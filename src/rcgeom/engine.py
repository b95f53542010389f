"""Pointwise geometry engine.

``GeometrySnapshot`` evaluates every geometric object the verification
suites need at a single chart point: Levi-Civita connection and curvature,
contorsion and torsion built from the potential, the full connection and
its curvature, the field strength, current, and stress-energy, together
with the exact coordinate derivatives of those objects needed by the
divergence-type identities.

Derivatives of computed objects are assembled analytically from the exact
field jets (product rule on the closed forms), never by differencing grids
of computed values; in finite-difference mode the handful of third-order
consumers fall back to stencils applied to the computed field.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EvalError, MetricError
from .fields import fd_jet, make_seeds
from .tensor import DEGENERACY_TOL, MetricAtPoint

DIM = 4
FOUR_PI = 4.0 * np.pi
PIPELINE_FD_STEP = 1e-3


class FieldJets:
    """Raw metric and potential derivatives at one point."""

    __slots__ = ("x", "order", "g", "dg", "ddg", "dddg", "A", "dA", "ddA", "dddA")

    def __init__(self, x, order, g, dg, ddg, dddg, A, dA, ddA, dddA):
        self.x = x
        self.order = order
        self.g = g
        self.dg = dg
        self.ddg = ddg
        self.dddg = dddg
        self.A = A
        self.dA = dA
        self.ddA = ddA
        self.dddA = dddA


def field_jets(model, x, order=2, mode="dual"):
    """Evaluate all 14 component fields of a model at a point."""
    model.require_in_domain(x)
    x = np.asarray(x, dtype=float)
    if mode not in ("dual", "fd"):
        raise ValueError(f"unknown derivative mode {mode!r}")
    if mode == "fd" and order > 2:
        raise EvalError("finite-difference mode does not carry third derivatives")

    g = np.empty((DIM, DIM))
    dg = np.empty((DIM, DIM, DIM))
    ddg = np.empty((DIM, DIM, DIM, DIM)) if order >= 2 else None
    dddg = np.empty((DIM,) * 5) if order >= 3 else None
    A = np.empty(DIM)
    dA = np.empty((DIM, DIM))
    ddA = np.empty((DIM, DIM, DIM)) if order >= 2 else None
    dddA = np.empty((DIM,) * 4) if order >= 3 else None

    seeds = make_seeds(x, order) if mode == "dual" else None

    for i in range(DIM):
        for j in range(i, DIM):
            f = model.g_fields[i][j]
            jv = (
                f.jet_unchecked(x, order, seeds)
                if mode == "dual"
                else fd_jet(f, x, order)
            )
            g[i, j] = g[j, i] = jv.value
            dg[:, i, j] = dg[:, j, i] = jv.grad
            if order >= 2:
                ddg[:, :, i, j] = ddg[:, :, j, i] = jv.hess
            if order >= 3:
                dddg[:, :, :, i, j] = dddg[:, :, :, j, i] = jv.third

    for n in range(DIM):
        f = model.A_fields[n]
        jv = (
            f.jet_unchecked(x, order, seeds)
            if mode == "dual"
            else fd_jet(f, x, order)
        )
        A[n] = jv.value
        dA[:, n] = jv.grad
        if order >= 2:
            ddA[:, :, n] = jv.hess
        if order >= 3:
            dddA[:, :, :, n] = jv.third

    parts = [g, dg, A, dA]
    if order >= 2:
        parts += [ddg, ddA]
    if order >= 3:
        parts += [dddg, dddA]
    for part in parts:
        if not np.isfinite(part).all():
            raise EvalError(
                f"non-finite field derivatives for {model.name!r} at {tuple(x)}"
            )
    return FieldJets(x, order, g, dg, ddg, dddg, A, dA, ddA, dddA)


def cyclic_gradient_residual(dF_dd):
    """max of the cyclic sum d_l F_mn + d_m F_nl + d_n F_lm over a gradient
    array (slots: derivative, first, second); closed F gives zero."""
    d = np.asarray(dF_dd, dtype=float)
    cyc = d + d.transpose(1, 2, 0) + d.transpose(2, 0, 1)
    return float(np.abs(cyc).max())


def _riemann_from_connection(gamma, dgamma):
    """R_{mnl}^c = d_m G_{nl}^c - d_n G_{ml}^c + G_{mr}^c G_{nl}^r - G_{nr}^c G_{ml}^r."""
    r = dgamma - dgamma.transpose(1, 0, 2, 3)
    r += np.einsum("mrc,nlr->mnlc", gamma, gamma)
    r -= np.einsum("nrc,mlr->mnlc", gamma, gamma)
    return r


class GeometrySnapshot:
    """All geometric objects of a model evaluated lazily at one point."""

    def __init__(self, model, x, mode="dual"):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.mode = mode
        self.C = model.constants.coupling
        self.c_light = model.constants.c
        self._jets_cache = {}

    def jets(self, order):
        for o in (3, 2, 1):
            if o >= order and o in self._jets_cache:
                return self._jets_cache[o]
        fj = field_jets(self.model, self.x, order=order, mode=self.mode)
        self._jets_cache[order] = fj
        return fj

    # -- metric layer --------------------------------------------------------

    @cached_property
    def g(self):
        return self.jets(1).g

    @cached_property
    def metric(self):
        return MetricAtPoint.from_components(self.g)

    @cached_property
    def det_g(self):
        return float(np.linalg.det(self.g))

    @cached_property
    def ginv(self):
        det = self.det_g
        scale = max(1.0, float(np.abs(self.g).max()))
        if abs(det) < DEGENERACY_TOL * scale**4:
            raise MetricError(
                f"metric is numerically degenerate at {tuple(self.x)} (det={det:.3e})"
            )
        return np.linalg.inv(self.g)

    @cached_property
    def sqrt_g(self):
        det = self.det_g
        if det >= 0.0:
            raise MetricError(f"metric determinant is not negative at {tuple(self.x)}")
        return float(np.sqrt(-det))

    @cached_property
    def dg(self):
        return self.jets(1).dg

    @cached_property
    def ddg(self):
        return self.jets(2).ddg

    @cached_property
    def dginv(self):
        return -np.einsum("ma,lab,bn->lmn", self.ginv, self.dg, self.ginv)

    @cached_property
    def ddginv(self):
        t1 = np.einsum("kma,lab,bn->klmn", self.dginv, self.dg, self.ginv)
        t2 = np.einsum("ma,klab,bn->klmn", self.ginv, self.ddg, self.ginv)
        t3 = np.einsum("ma,lab,kbn->klmn", self.ginv, self.dg, self.dginv)
        return -(t1 + t2 + t3)

    @cached_property
    def dsqrt_g(self):
        return 0.5 * self.sqrt_g * np.einsum("mn,lmn->l", self.ginv, self.dg)

    @cached_property
    def ddsqrt_g(self):
        tr = np.einsum("mn,lmn->l", self.ginv, self.dg)
        dtr = np.einsum("kmn,lmn->kl", self.dginv, self.dg) + np.einsum(
            "mn,klmn->kl", self.ginv, self.ddg
        )
        return 0.5 * (np.multiply.outer(self.dsqrt_g, tr) + self.sqrt_g * dtr)

    # -- Levi-Civita layer ---------------------------------------------------

    @cached_property
    def _sym_dg(self):
        # S[m,n,a] = d_m g_na + d_n g_ma - d_a g_mn
        dg = self.dg
        return dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)

    @cached_property
    def gamma_lc(self):
        return 0.5 * np.einsum("la,mna->mnl", self.ginv, self._sym_dg)

    @cached_property
    def _dsym_dg(self):
        ddg = self.ddg
        return ddg + ddg.transpose(0, 2, 1, 3) - ddg.transpose(0, 2, 3, 1)

    @cached_property
    def dgamma_lc(self):
        return 0.5 * (
            np.einsum("kla,mna->kmnl", self.dginv, self._sym_dg)
            + np.einsum("la,kmna->kmnl", self.ginv, self._dsym_dg)
        )

    @cached_property
    def ddgamma_lc(self):
        dddg = self.jets(3).dddg
        ddsym = dddg + dddg.transpose(0, 1, 3, 2, 4) - dddg.transpose(0, 1, 3, 4, 2)
        return 0.5 * (
            np.einsum("jkla,mna->jkmnl", self.ddginv, self._sym_dg)
            + np.einsum("kla,jmna->jkmnl", self.dginv, self._dsym_dg)
            + np.einsum("jla,kmna->jkmnl", self.dginv, self._dsym_dg)
            + np.einsum("la,jkmna->jkmnl", self.ginv, ddsym)
        )

    @cached_property
    def gamma_lc_trace(self):
        # G_{mr}^m as a function of r
        return np.einsum("mrm->r", self.gamma_lc)

    @cached_property
    def riemann_lc(self):
        return _riemann_from_connection(self.gamma_lc, self.dgamma_lc)

    @cached_property
    def ricci_lc(self):
        return np.einsum("mnlm->nl", self.riemann_lc)

    @cached_property
    def scalar_lc(self):
        return float(np.einsum("nl,nl->", self.ginv, self.ricci_lc))

    @cached_property
    def einstein_lc_dd(self):
        return self.ricci_lc - 0.5 * self.g * self.scalar_lc

    @cached_property
    def einstein_lc_uu(self):
        return np.einsum("ma,ab,bn->mn", self.ginv, self.einstein_lc_dd, self.ginv)

    @cached_property
    def d_riemann_lc(self):
        ddgamma = self.ddgamma_lc
        dgamma = self.dgamma_lc
        gamma = self.gamma_lc
        dr = ddgamma - ddgamma.transpose(0, 2, 1, 3, 4)
        dr += np.einsum("kmrc,nlr->kmnlc", dgamma, gamma)
        dr += np.einsum("mrc,knlr->kmnlc", gamma, dgamma)
        dr -= np.einsum("knrc,mlr->kmnlc", dgamma, gamma)
        dr -= np.einsum("nrc,kmlr->kmnlc", gamma, dgamma)
        return dr

    @cached_property
    def d_einstein_lc_uu(self):
        if self.mode == "fd":
            return _fd_pipeline(self.model, self.x, lambda s: s.einstein_lc_uu, self.mode)
        d_ricci = np.einsum("kmnlm->knl", self.d_riemann_lc)
        d_scalar = np.einsum("knl,nl->k", self.dginv, self.ricci_lc) + np.einsum(
            "nl,knl->k", self.ginv, d_ricci
        )
        dG_dd = d_ricci - 0.5 * (
            self.dg * self.scalar_lc
            + np.einsum("mn,k->kmn", self.g, d_scalar)
        )
        return (
            np.einsum("kma,ab,bn->kmn", self.dginv, self.einstein_lc_dd, self.ginv)
            + np.einsum("ma,kab,bn->kmn", self.ginv, dG_dd, self.ginv)
            + np.einsum("ma,ab,kbn->kmn", self.ginv, self.einstein_lc_dd, self.dginv)
        )

    def bianchi_residual(self):
        """max_n |covariant divergence of the Einstein tensor|."""
        div = np.einsum("mmn->n", self.d_einstein_lc_uu)
        div += np.einsum("r,rn->n", self.gamma_lc_trace, self.einstein_lc_uu)
        div += np.einsum("mrn,mr->n", self.gamma_lc, self.einstein_lc_uu)
        return float(np.abs(div).max())

    # -- electromagnetic layer -----------------------------------------------

    @cached_property
    def A(self):
        return self.jets(1).A

    @cached_property
    def dA(self):
        return self.jets(1).dA

    @cached_property
    def F_dd(self):
        dA = self.dA
        return dA - dA.T

    @cached_property
    def dF_dd(self):
        ddA = self.jets(2).ddA
        return ddA - ddA.transpose(0, 2, 1)

    @cached_property
    def ddF_dd(self):
        dddA = self.jets(3).dddA
        return dddA - dddA.transpose(0, 1, 3, 2)

    @cached_property
    def F_mix(self):
        # F_n^{.l} = g^{la} F_nl... contracted on the second slot
        return np.einsum("la,na->nl", self.ginv, self.F_dd)

    @cached_property
    def dF_mix(self):
        return np.einsum("kla,na->knl", self.dginv, self.F_dd) + np.einsum(
            "la,kna->knl", self.ginv, self.dF_dd
        )

    @cached_property
    def F_uu(self):
        return np.einsum("ma,nb,ab->mn", self.ginv, self.ginv, self.F_dd)

    @cached_property
    def dF_uu(self):
        return (
            np.einsum("kma,nb,ab->kmn", self.dginv, self.ginv, self.F_dd)
            + np.einsum("ma,knb,ab->kmn", self.ginv, self.dginv, self.F_dd)
            + np.einsum("ma,nb,kab->kmn", self.ginv, self.ginv, self.dF_dd)
        )

    @cached_property
    def ddF_uu(self):
        gi, dgi, ddgi = self.ginv, self.dginv, self.ddginv
        F, dF, ddF = self.F_dd, self.dF_dd, self.ddF_dd
        return (
            np.einsum("jkma,nb,ab->jkmn", ddgi, gi, F)
            + np.einsum("kma,jnb,ab->jkmn", dgi, dgi, F)
            + np.einsum("kma,nb,jab->jkmn", dgi, gi, dF)
            + np.einsum("jma,knb,ab->jkmn", dgi, dgi, F)
            + np.einsum("ma,jknb,ab->jkmn", gi, ddgi, F)
            + np.einsum("ma,knb,jab->jkmn", gi, dgi, dF)
            + np.einsum("jma,nb,kab->jkmn", dgi, gi, dF)
            + np.einsum("ma,jnb,kab->jkmn", gi, dgi, dF)
            + np.einsum("ma,nb,jkab->jkmn", gi, gi, ddF)
        )

    @cached_property
    def F2(self):
        return float(np.einsum("mn,mn->", self.F_dd, self.F_uu))

    @cached_property
    def dF2(self):
        return np.einsum("lmn,mn->l", self.dF_dd, self.F_uu) + np.einsum(
            "mn,lmn->l", self.F_dd, self.dF_uu
        )

    def homogeneous_residual(self):
        """max of the cyclic sum d_m F_nl + d_n F_lm + d_l F_mn."""
        return cyclic_gradient_residual(self.dF_dd)

    # divergence of F^{mn} in three routes
    @cached_property
    def lc_div_F_det(self):
        return np.einsum("m,mn->n", self.dsqrt_g, self.F_uu) / self.sqrt_g + np.einsum(
            "mmn->n", self.dF_uu
        )

    @cached_property
    def lc_div_F_gamma(self):
        return (
            np.einsum("mmn->n", self.dF_uu)
            + np.einsum("r,rn->n", self.gamma_lc_trace, self.F_uu)
            + np.einsum("mrn,mr->n", self.gamma_lc, self.F_uu)
        )

    @cached_property
    def rc_div_F(self):
        return (
            np.einsum("mmn->n", self.dF_uu)
            + np.einsum("r,rn->n", self.gamma_full_trace, self.F_uu)
            + np.einsum("mrn,mr->n", self.gamma_full, self.F_uu)
        )

    @cached_property
    def J_up(self):
        return (self.c_light / FOUR_PI) * self.lc_div_F_det

    @cached_property
    def J_down(self):
        return self.g @ self.J_up

    @cached_property
    def dJ_up(self):
        if self.mode == "fd":
            return _fd_pipeline(self.model, self.x, lambda s: s.J_up, self.mode)
        s, ds, dds = self.sqrt_g, self.dsqrt_g, self.ddsqrt_g
        ddW = (
            np.einsum("kl,mn->klmn", dds, self.F_uu)
            + np.einsum("l,kmn->klmn", ds, self.dF_uu)
            + np.einsum("k,lmn->klmn", ds, self.dF_uu)
            + s * self.ddF_uu
        )
        D = np.einsum("m,mn->n", ds, self.F_uu) + s * np.einsum("mmn->n", self.dF_uu)
        dD = np.einsum("kmmn->kn", ddW)
        return (self.c_light / FOUR_PI) * (
            dD / s - np.multiply.outer(ds / (s * s), D)
        )

    def current_conservation_residual(self):
        """|d_n(sqrt(-g) J^n)| with the current differentiated exactly."""
        val = np.einsum("n,n->", self.dsqrt_g, self.J_up) + self.sqrt_g * np.einsum(
            "nn->", self.dJ_up
        )
        return abs(float(val))

    @cached_property
    def T_em_dd(self):
        m = np.einsum("mb,nb->mn", self.F_mix, self.F_dd)
        return (-m + 0.25 * self.g * self.F2) / FOUR_PI

    @cached_property
    def dT_em_dd(self):
        dm = np.einsum("lmb,nb->lmn", self.dF_mix, self.F_dd) + np.einsum(
            "mb,lnb->lmn", self.F_mix, self.dF_dd
        )
        return (
            -dm
            + 0.25 * (self.dg * self.F2 + np.einsum("mn,l->lmn", self.g, self.dF2))
        ) / FOUR_PI

    @cached_property
    def T_em_uu(self):
        return np.einsum("ma,ab,bn->mn", self.ginv, self.T_em_dd, self.ginv)

    @cached_property
    def dT_em_uu(self):
        return (
            np.einsum("kma,ab,bn->kmn", self.dginv, self.T_em_dd, self.ginv)
            + np.einsum("ma,kab,bn->kmn", self.ginv, self.dT_em_dd, self.ginv)
            + np.einsum("ma,ab,kbn->kmn", self.ginv, self.T_em_dd, self.dginv)
        )

    def div_T_em(self, connection="rc"):
        gamma = self.gamma_full if connection == "rc" else self.gamma_lc
        gtr = self.gamma_full_trace if connection == "rc" else self.gamma_lc_trace
        return (
            np.einsum("mmn->n", self.dT_em_uu)
            + np.einsum("r,rn->n", gtr, self.T_em_uu)
            + np.einsum("mrn,mr->n", gamma, self.T_em_uu)
        )

    def stress_exchange_residual(self):
        """max_n |div T^{mn} - F^{mn} J_m / c|, divergence with the full connection."""
        rhs = np.einsum("mn,m->n", self.F_uu, self.J_down) / self.c_light
        return float(np.abs(self.div_T_em("rc") - rhs).max())

    @cached_property
    def chern_simons(self):
        a = np.multiply.outer(self.A, self.F_dd)
        return (a + a.transpose(1, 2, 0) + a.transpose(2, 0, 1)) / 6.0

    # -- contorsion layer ----------------------------------------------------

    @cached_property
    def K_mix(self):
        return -self.C * np.einsum("m,nl->mnl", self.A, self.F_mix)

    @cached_property
    def K_down(self):
        return -self.C * np.einsum("m,nl->mnl", self.A, self.F_dd)

    @cached_property
    def dK_mix(self):
        return -self.C * (
            np.einsum("km,nl->kmnl", self.dA, self.F_mix)
            + np.einsum("m,knl->kmnl", self.A, self.dF_mix)
        )

    @cached_property
    def covd_K(self):
        g = self.gamma_lc
        K = self.K_mix
        return (
            self.dK_mix
            + np.einsum("krl,mnr->kmnl", g, K)
            - np.einsum("kmr,rnl->kmnl", g, K)
            - np.einsum("knr,mrl->kmnl", g, K)
        )

    @cached_property
    def torsion_mix(self):
        return self.K_mix - self.K_mix.transpose(1, 0, 2)

    @cached_property
    def gamma_full(self):
        return self.gamma_lc + self.K_mix

    @cached_property
    def gamma_full_trace(self):
        return np.einsum("mrm->r", self.gamma_full)

    @cached_property
    def dgamma_full(self):
        return self.dgamma_lc + self.dK_mix

    # -- full curvature layer --------------------------------------------------

    @cached_property
    def riemann_rc(self):
        return _riemann_from_connection(self.gamma_full, self.dgamma_full)

    @cached_property
    def quadratic_pair(self):
        K = self.K_mix
        return np.einsum("nlr,mrc->mnlc", K, K) - np.einsum("mlr,nrc->mnlc", K, K)

    @cached_property
    def riemann_rc_decomposed(self):
        pair = self.covd_K - self.covd_K.transpose(1, 0, 2, 3)
        return self.riemann_lc + pair + self.quadratic_pair

    def decomposition_residual(self):
        return float(np.abs(self.riemann_rc - self.riemann_rc_decomposed).max())

    def quadratic_pair_residual(self):
        return float(np.abs(self.quadratic_pair).max())

    @cached_property
    def ricci_rc(self):
        return np.einsum("mnlm->nl", self.riemann_rc)

    @cached_property
    def scalar_rc(self):
        return float(np.einsum("nl,nl->", self.ginv, self.ricci_rc))

    @cached_property
    def contorsion_trace_vector(self):
        # W^m = K_n^{.nm}, evaluated through its closed form -C A_n F^{nm}
        return -self.C * np.einsum("n,nm->m", self.A, self.F_uu)

    @cached_property
    def d_contorsion_trace_vector(self):
        return -self.C * (
            np.einsum("ln,nm->lm", self.dA, self.F_uu)
            + np.einsum("n,lnm->lm", self.A, self.dF_uu)
        )

    @cached_property
    def scalar_rc_traced(self):
        """Scalar curvature via the contorsion-trace divergence route."""
        divW = float(np.einsum("mm->", self.d_contorsion_trace_vector)) + float(
            np.einsum("r,r->", self.gamma_lc_trace, self.contorsion_trace_vector)
        )
        return self.scalar_lc + 2.0 * divW

    def scalar_split(self):
        """(R_direct, R_lc, em term, current coupling term, R via trace)."""
        em = self.C * self.F2
        coupling = (8.0 * np.pi * self.C / self.c_light) * float(
            np.einsum("m,m->", self.A, self.J_up)
        )
        return self.scalar_rc, self.scalar_lc, em, coupling, self.scalar_rc_traced

    # -- algebraic cancellation pairs -----------------------------------------

    @cached_property
    def K_first_trace(self):
        # K_{md}^{.m} as a function of d
        return np.einsum("mdm->d", self.K_mix)

    def pair_residual_F(self):
        """K_{md}^{.m} F^{dn} + K_{md}^{.n} F^{md}."""
        val = np.einsum("d,dn->n", self.K_first_trace, self.F_uu) + np.einsum(
            "mdn,md->n", self.K_mix, self.F_uu
        )
        return float(np.abs(val).max())

    def pair_residual_T(self):
        """Same contraction pattern against the EM stress-energy."""
        val = np.einsum("d,dn->n", self.K_first_trace, self.T_em_uu) + np.einsum(
            "mdn,md->n", self.K_mix, self.T_em_uu
        )
        return float(np.abs(val).max())

    # -- compatibility checks ---------------------------------------------------

    def metric_compatibility_residual(self, connection="lc"):
        gamma = self.gamma_lc if connection == "lc" else self.gamma_full
        # nabla_k g_mn = d_k g_mn - G_{km}^r g_rn - G_{kn}^r g_mr
        grad = (
            self.dg
            - np.einsum("kmr,rn->kmn", gamma, self.g)
            - np.einsum("knr,mr->kmn", gamma, self.g)
        )
        return float(np.abs(grad).max())


def _fd_pipeline(model, x, extract, mode, h=PIPELINE_FD_STEP):
    """Central-difference derivative of a computed pointwise quantity.

    Returns an array whose leading axis is the derivative direction.
    """
    x = np.asarray(x, dtype=float)
    rows = []
    for k in range(DIM):
        e = np.zeros(DIM)
        e[k] = h
        hi = extract(GeometrySnapshot(model, x + e, mode))
        lo = extract(GeometrySnapshot(model, x - e, mode))
        rows.append((np.asarray(hi) - np.asarray(lo)) / (2.0 * h))
    return np.stack(rows, axis=0)


def snapshot(model, x, mode="dual"):
    """Convenience constructor for a GeometrySnapshot."""
    return GeometrySnapshot(model, x, mode)
