"""The check table: every identity the suites verify, with its tolerances."""

# check id -> (anchor, dual-mode tolerance, fd-mode tolerance); None = informational
CHECK_DEFS = {
    "metric.inverse": ("Eq.rec", 1e-12, 1e-12),
    "metric.signature": ("Sec.2", 0.5, 0.5),
    "fields.dual_vs_fd": ("n/a", 1e-6, 1e-6),
    "lc.christoffel_symmetry": ("Eq.2", 1e-12, 1e-12),
    "lc.metric_compatibility": ("Eq.2", 1e-10, 1e-8),
    "lc.riemann_antisymmetry": ("Eq.17", 1e-10, 1e-10),
    "lc.ricci_symmetry": ("Eq.18", 1e-10, 1e-7),
    "lc.bianchi": ("Eq.36", 1e-7, 1e-3),
    "lc.divergence_forms": ("Eq.15", 1e-8, 1e-8),
    "em.homogeneous": ("Eq.12", 1e-10, 1e-10),
    "em.source_free": ("Eq.15", 1e-8, 1e-5),
    "em.source_density": ("Eq.15", 1e-8, 1e-5),
    "em.current_conservation": ("Eq.16", 1e-6, 1e-4),
    "em.divergence_rc_lc": ("Eq.6", 1e-8, 1e-8),
    "em.stress_trace": ("Eq.20Z", 1e-10, 1e-8),
    "em.stress_symmetry": ("Eq.20Z", 1e-12, 1e-12),
    "em.stress_conservation": ("Eq.40", 1e-7, 1e-5),
    "em.energy_density": ("Eq.20Z", 1e-12, 1e-10),
    "rc.additivity": ("Eq.1", 1e-14, 1e-14),
    "rc.contorsion_antisymmetry": ("Eq.cont", 1e-12, 1e-12),
    "rc.torsion_roundtrip": ("Eq.cont", 1e-10, 1e-10),
    "rc.metric_compatibility": ("Eq.1", 1e-10, 1e-8),
    "rc.k_f_pair": ("Eq.6", 1e-12, 1e-12),
    "rc.quadratic_pair": ("Eq.17", 1e-12, 1e-12),
    "rc.stress_pair": ("Eq.38", 1e-12, 1e-12),
    "rc.decomposition": ("Eq.17", 1e-8, 1e-5),
    "rc.scalar_split": ("Eq.19", 1e-8, 1e-5),
    "einstein.residual": ("Eq.31", 1e-8, 1e-5),
    "dyn.transport_identity": ("Eq.43", 1e-8, 1e-8),
    "dyn.norm_drift": ("Eq.45", 1e-8, 1e-8),
    "dyn.closed_form": ("Eq.45", 1e-6, 1e-6),
    "dyn.exchange_pair": ("Eq.38", 1e-10, 1e-10),
    "dyn.exchange_energy": ("Eq.40", 1e-7, 1e-5),
    "dyn.exchange_mass_flux": ("Eq.42", None, None),
    "dyn.exchange_conservation": ("Eq.46", 1e-6, 1e-5),
    "gauge.contorsion_shift": ("Eq.47", 1e-12, 1e-8),
    "gauge.scalar_shift": ("Eq.49", 1e-8, 1e-5),
    "gauge.f_invariance": ("Eq.13", 1e-12, 1e-8),
    "gauge.current_invariance": ("Eq.15", 1e-10, 1e-6),
    "gauge.stress_invariance": ("Eq.31", 1e-10, 1e-8),
    "gauge.einstein_invariance": ("Eq.31", 1e-10, 1e-8),
    "gauge.lorentz_invariance": ("Eq.45", 1e-12, 1e-8),
    "gauge.contorsion_delta": ("Eq.47", None, None),
    "gauge.curvature_delta": ("Eq.48", None, None),
    "gauge.orbit": ("Sec.5", 1e-12, 1e-7),
}


def default_tolerance(check_id, mode):
    """Tolerance of a check in the given derivative mode (None: informational)."""
    _anchor, tol_dual, tol_fd = CHECK_DEFS[check_id]
    return tol_dual if mode == "dual" else tol_fd
