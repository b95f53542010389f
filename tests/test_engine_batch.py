"""Batches against their rows taken as batches of one, and chunked suites
and the batched scenarios against point-by-point ones."""

from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from rcgeom import (
    GeometryError,
    catalog_get,
    harness,
    load_spacetime_file,
    transform_potential,
)
from rcgeom.catalog import build_model, parse_spacetime_text
from rcgeom.checks import CHECK_DEFS
from rcgeom.dynamics import probe_velocity
from rcgeom.engine import GeometrySnapshot, batched_einsum
from rcgeom.fields import gauge_function_jet
from rcgeom.harness import run_suite

KN_FILE = Path(__file__).resolve().parents[1] / "bench" / "kerr_newman.spacetime"

# Off-diagonal metric, time-dependent potential: no symmetry makes a
# divergence identity vanish term by term.
GENERIC = """
name = generic
coords = t, x, y, z
param a = 0.1
param b = 0.05
g[0][0] = "1 + a*sin(x)*cos(y)"
g[0][1] = "b*x*y"
g[0][3] = "0.5*b*sin(t + z)"
g[1][1] = "-(1 + a*x^2)"
g[1][2] = "b*sin(z)"
g[2][2] = "-(1 + a*cos(x)*y^2)"
g[2][3] = "b*t*z"
g[3][3] = "-(1 + a*exp(-z^2))"
A[0] = "0.3*sin(x + t)"
A[1] = "0.2*y*cos(t)"
A[2] = "0.1*t*z^2 + 0.2*x"
A[3] = "0.2*x*y*exp(-t^2)"
grid.t = -0.3:0.3:2
grid.x = -0.4:0.4:3
grid.y = -0.4:0.4:2
grid.z = -0.3:0.3:2
"""


def _models():
    return {
        "reissner-nordstrom": catalog_get("reissner-nordstrom"),
        "em-plane-wave": catalog_get("em-plane-wave"),
        "kerr-newman": load_spacetime_file(KN_FILE),
        "generic": parse_spacetime_text(GENERIC),
    }


MODELS = _models()

MEMBERS = sorted(
    name for name, v in vars(GeometrySnapshot).items() if isinstance(v, cached_property)
)

# residual method -> members whose magnitudes set the scale of its terms
RESIDUALS = {
    "bianchi_residual": ("d_einstein_lc_uu",),
    "homogeneous_residual": ("dF_dd",),
    "current_conservation_residual": ("dJ_up", "dsqrt_g"),
    "stress_exchange_residual": ("dT_em_uu",),
    "decomposition_residual": ("riemann_rc",),
    "quadratic_pair_residual": ("quadratic_pair",),
    "pair_residual_F": ("K_mix", "F_uu"),
    "pair_residual_T": ("K_mix", "T_em_uu"),
    "metric_compatibility_residual": ("dg",),
    "scalar_split": ("ricci_rc", "F_uu"),
}


def _points(model, n=5):
    grid = model.default_grid
    return grid[:: max(1, len(grid) // n)][:n]


def _value(snap, name):
    v = getattr(snap, name)
    if name == "metric":
        lead = (len(snap.x),)
        parts = (v.matrix, v.inverse, v.det_g, v.sqrt_neg_det)
        return np.concatenate([np.reshape(p, lead + (-1,)) for p in parts], axis=-1)
    if callable(v):
        v = v()
    if isinstance(v, tuple):  # scalar_split: one tuple entry per term
        return np.stack(v, axis=-1)
    return np.asarray(v, dtype=float)


def _stack(rows, name):
    """Per-point values of a member over the rows, each a batch of one, or
    None when evaluation raises."""
    try:
        return np.concatenate([_value(s, name) for s in rows])
    except GeometryError:
        return None


def _close(batch, single, scale):
    # Members that cancel to roundoff (a null F^2, a vacuum curvature) carry
    # no relative precision, so the scale is floored at the unit of g.
    tol = 1e-12 * max(scale, 1.0)
    assert batch.shape == single.shape
    assert np.abs(batch - single).max() <= tol


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_batch_members_match_one_point_snapshots(name, mode):
    """A batch matches its rows taken as batches of one.  A batch of one
    evaluates the folded trees on floats, a larger batch on arrays."""
    model = MODELS[name]
    X = _points(model)
    batch = GeometrySnapshot(model, X, mode)
    singles = [GeometrySnapshot(model, X[i:i + 1], mode) for i in range(len(X))]

    compared = 0
    for member in MEMBERS:
        single = _stack(singles, member)
        if single is None:
            # fd mode carries no third jets: the batch must refuse as well
            with pytest.raises(GeometryError):
                _value(batch, member)
            continue
        _close(_value(batch, member), single, np.abs(single).max())
        compared += 1
    assert compared >= len(MEMBERS) - 4

    for method, scale_members in RESIDUALS.items():
        single = _stack(singles, method)
        if single is None:
            continue
        scale = max(np.abs(_stack(singles, m)).max() for m in scale_members)
        _close(_value(batch, method), single, scale)
    for connection in ("lc", "rc"):
        single = np.concatenate([s.div_T_em(connection) for s in singles])
        _close(batch.div_T_em(connection), single, np.abs(single).max())

    # scalar members carry the point axis too
    for member in ("det_g", "sqrt_g", "scalar_lc", "F2", "scalar_rc"):
        assert getattr(batch, member).shape == (len(X),)
        assert getattr(singles[0], member).shape == (1,)


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_point_is_a_batch_of_one(name, mode):
    """A (4,) point gives the snapshot of x[None], bit for bit, and every
    member carries a leading point axis of 1."""
    model = MODELS[name]
    x = _points(model)[1]
    point = GeometrySnapshot(model, x, mode)
    row = GeometrySnapshot(model, x[None], mode)
    assert point.x.shape == (1, 4)
    for member in MEMBERS + sorted(RESIDUALS):
        try:
            want = _value(row, member)
        except GeometryError:
            with pytest.raises(GeometryError):
                _value(point, member)
            continue
        raw = getattr(point, member)
        raw = raw() if callable(raw) else raw
        lead = raw.matrix if member == "metric" else raw
        for part in (lead if isinstance(lead, tuple) else (lead,)):
            assert np.shape(part)[0] == 1, member
        got = _value(point, member)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), member


def _verdicts(report):
    return [(c.check_id, c.grid_points, c.passed, c.max_residual is None, c.note)
            for c in report.checks]


DEGENERATE = """
name = degenerate-at-origin
coords = t, x, y, z
domain = "1.5 - x"
g[0][0] = "1"
g[1][1] = "-(x^2 + 0.01*y^2)"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "0.1*x*y"
grid.t = 0:0:1
grid.x = 0.5:1:2
grid.y = 0.5:1:2
grid.z = 0:0:1
"""


@pytest.mark.parametrize("case", ["horizon-and-axis", "degenerate-metric"])
def test_chunked_errors_match_point_by_point(case, monkeypatch):
    if case == "horizon-and-axis":
        # r = 1.5 lies inside the horizon, theta = 0 on the axis
        model = catalog_get("reissner-nordstrom")
        grid = {"r": [1.5, 3.0, 4.5], "theta": [0.0, 1.0], "phi": [0.1], "t": [0.0, 0.2]}
    else:
        # g_11 vanishes at x = y = 0 (a MetricError late in the pipeline) and
        # x = 2 lies outside the domain (a DomainError first thing): the
        # batch meets the later point's error first, a point-by-point run
        # the earlier point's
        model = parse_spacetime_text(DEGENERATE)
        grid = {"x": [-0.5, 0.0, 0.5, 2.0], "y": [0.0, 0.5], "z": [0.0], "t": [0.0, 0.1]}

    def run():
        return run_suite("all", model, grid_overrides=grid)

    chunked = run()
    assert any(c.note for c in chunked.checks)  # the grid does exercise errors
    monkeypatch.setattr(harness, "CHUNK", 1)
    pointwise = run()
    assert _verdicts(chunked) == _verdicts(pointwise)
    for a, b in zip(chunked.checks, pointwise.checks):
        if a.max_residual is not None and a.tolerance is not None:
            assert abs(a.max_residual - b.max_residual) <= 0.01 * a.tolerance


def test_generic_model_current_is_not_vacuous():
    model = MODELS["generic"]
    rep = run_suite("maxwell", model)
    assert rep.passed
    check = {c.check_id: c for c in rep.checks}["em.current_conservation"]
    small = harness.SuiteContext(model).points("small")
    snap = GeometrySnapshot(model, small)
    assert np.abs(snap.J_up).max() > 1e-3
    assert np.abs(snap.dJ_up).max() > 1e-3
    assert check.max_residual <= 1e-12


# -- the product rule against the hand expansions it replaced -----------------
# Each reference writes the Leibniz terms out, in the order, with the
# subscripts and the summation order that ``leibniz`` must give.

ein = batched_einsum


def _hand_ddginv(s):
    t1 = ein("kma,lab,bn->klmn", s.dginv, s.dg, s.ginv)
    t2 = ein("ma,klab,bn->klmn", s.ginv, s.ddg, s.ginv)
    t3 = ein("ma,lab,kbn->klmn", s.ginv, s.dg, s.dginv)
    return -(t1 + t2 + t3)


def _hand_ddgamma_lc(s):
    dddg = s.jets(3).dddg
    ddsym = dddg + dddg.swapaxes(-3, -2) - dddg.transpose(0, 1, 2, 4, 5, 3)
    return 0.5 * (
        ein("jkla,mna->jkmnl", s.ddginv, s._sym_dg)
        + ein("kla,jmna->jkmnl", s.dginv, s._dsym_dg)
        + ein("jla,kmna->jkmnl", s.dginv, s._dsym_dg)
        + ein("la,jkmna->jkmnl", s.ginv, ddsym)
    )


def _hand_d_riemann_lc(s):
    ddgamma, dgamma, gamma = s.ddgamma_lc, s.dgamma_lc, s.gamma_lc
    dr = ddgamma - ddgamma.swapaxes(-4, -3)
    dr += ein("kmrc,nlr->kmnlc", dgamma, gamma)
    dr += ein("mrc,knlr->kmnlc", gamma, dgamma)
    dr -= ein("knrc,mlr->kmnlc", dgamma, gamma)
    dr -= ein("nrc,kmlr->kmnlc", gamma, dgamma)
    return dr


def _hand_ddF_uu(s):
    gi, dgi, ddgi = s.ginv, s.dginv, s.ddginv
    F, dF, ddF = s.F_dd, s.dF_dd, s.ddF_dd
    return (
        ein("jkma,nb,ab->jkmn", ddgi, gi, F)
        + ein("kma,jnb,ab->jkmn", dgi, dgi, F)
        + ein("kma,nb,jab->jkmn", dgi, gi, dF)
        + ein("jma,knb,ab->jkmn", dgi, dgi, F)
        + ein("ma,jknb,ab->jkmn", gi, ddgi, F)
        + ein("ma,knb,jab->jkmn", gi, dgi, dF)
        + ein("jma,nb,kab->jkmn", dgi, gi, dF)
        + ein("ma,jnb,kab->jkmn", gi, dgi, dF)
        + ein("ma,nb,jkab->jkmn", gi, gi, ddF)
    )


HAND_EXPANSIONS = {
    "ddginv": _hand_ddginv,
    "ddgamma_lc": _hand_ddgamma_lc,
    "d_riemann_lc": _hand_d_riemann_lc,
    "ddF_uu": _hand_ddF_uu,
}


@pytest.mark.parametrize("member", sorted(HAND_EXPANSIONS))
@pytest.mark.parametrize("name", ["generic", "kerr-newman"])
def test_product_rule_gives_the_hand_expansion_bit_for_bit(name, member):
    model = MODELS[name]
    X = _points(model)
    for pts in (X, X[2:3]):
        snap = GeometrySnapshot(model, pts)
        got = getattr(snap, member)
        want = HAND_EXPANSIONS[member](snap)
        assert np.abs(want).max() > 0.0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- construction invariants ---------------------------------------------------

INVARIANT_MODELS = {
    "generic": MODELS["generic"],
    "kerr-newman": MODELS["kerr-newman"],
    "charge-ball+gauge": transform_potential(catalog_get("charge-ball"), "0.1*t*x + 0.05*sin(y)"),
}


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", sorted(INVARIANT_MODELS))
def test_connection_symmetries_hold_by_construction(name, mode):
    """G_{mn}^l = G_{nm}^l and K_{mnl} = -K_{mln} hold bit for bit: gamma_lc
    contracts a _sym_dg that is symmetric in m, n, and K_down = -C A (x) F
    with F = dA - dA^T.  No input can fail them, so they are no report rows."""
    model = INVARIANT_MODELS[name]
    grid = harness.SuiteContext(model, mode).grid
    for pts in (grid, grid[:1]):
        s = GeometrySnapshot(model, pts, mode)
        assert np.abs(s.K_down).max() > 0.0
        assert np.abs(s.gamma_lc).max() > 0.0 or not model.layout.g_live  # charge-ball is flat
        assert np.array_equal(s.gamma_lc, s.gamma_lc.swapaxes(-3, -2))
        assert np.array_equal(s.K_down, -s.K_down.swapaxes(-2, -1))


# -- the gauge rows against a point-by-point reference --------------------------

GAUGE_MODELS = {**MODELS, "charge-ball": catalog_get("charge-ball")}


def _reference_gauge_rows(ctx):
    """The gauge rows one point at a time, with one-point snapshots and the
    residuals written out again: (check id, value, points, note) in report
    order.  A row that raises at a point has no value, and its note is the
    first error it meets, gauge function by gauge function and point by
    point."""
    model, mode = ctx.model, ctx.mode
    pts = ctx.points("small")[:8]
    eight_pi_c = 8.0 * np.pi * model.constants.coupling
    worst, notes = {}, {}

    def acc(s, V, k):
        return (-np.einsum("mdn,m,d->n", s.gamma_lc[0], V, V)
                + k * np.einsum("mn,m->n", s.F_mix[0], V))

    def contorsion_shift(old, new, phi):
        pj = gauge_function_jet(phi, old.x[0], 1, check=True)
        route = old.K_mix[0] - old.C * np.einsum("m,nl->mnl", pj.grad, old.F_mix[0])
        return float(np.abs(new.K_mix[0] - route).max()) / (1.0 + float(np.abs(new.K_mix[0]).max()))

    def scalar_shift(old, new, phi):
        pj = gauge_function_jet(phi, old.x[0], 1, check=True)
        s, J = old.sqrt_g[0], old.J_up[0]
        div = (np.dot(old.dsqrt_g[0], pj.value * J) + s * np.dot(pj.grad, J)
               + s * pj.value * np.trace(old.dJ_up[0]))
        div_term = 8.0 * np.pi * old.C / (old.c_light * s) * div
        return abs(new.scalar_rc[0] - old.scalar_rc[0] - div_term) / (1.0 + abs(old.scalar_rc[0]))

    def delta(member):
        return lambda old, new, phi: np.abs(getattr(new, member) - getattr(old, member)).max()

    def einstein(old, new, phi):
        return np.abs((new.einstein_lc_dd - eight_pi_c * new.T_em_dd)
                      - (old.einstein_lc_dd - eight_pi_c * old.T_em_dd)).max()

    def lorentz(old, new, phi):
        V = probe_velocity(old)[0]
        return np.abs(acc(new, V, 0.7) - acc(old, V, 0.7)).max()

    def orbit(twice, once, phi):
        return max(float(np.abs(twice.K_mix - once.K_mix).max()),
                   float(np.abs(twice.F_dd - once.F_dd).max()),
                   abs(twice.scalar_rc[0] - once.scalar_rc[0]))

    def run(cid, fn, model_old, model_new, phi, points):
        for p in points:
            try:
                value = float(fn(GeometrySnapshot(model_old, p, mode),
                                 GeometrySnapshot(model_new, p, mode), phi))
            except GeometryError as err:
                notes.setdefault(cid, f"{type(err).__name__}: {err}")
            else:
                worst[cid] = max(worst.get(cid, 0.0), value)

    rows = {
        "gauge.contorsion_shift": contorsion_shift,
        "gauge.scalar_shift": scalar_shift,
        "gauge.f_invariance": delta("F_dd"),
        "gauge.current_invariance": delta("J_up"),
        "gauge.stress_invariance": delta("T_em_dd"),
        "gauge.einstein_invariance": einstein,
        "gauge.lorentz_invariance": lorentz,
        "gauge.contorsion_delta": delta("K_mix"),
        "gauge.curvature_delta": delta("riemann_rc"),
    }
    for cid, fn in rows.items():
        for phi in ctx.phi_fields:
            run(cid, fn, model, transform_potential(model, phi), phi, pts)
    twice = transform_potential(transform_potential(model, ctx.phi_fields[0]), ctx.phi_fields[1])
    run("gauge.orbit", orbit, twice, transform_potential(model, ctx.orbit_phi), ctx.orbit_phi,
        pts[:2])

    counts = {**dict.fromkeys(rows, len(pts) * len(ctx.phi_fields)), "gauge.orbit": len(pts[:2])}
    return [(cid, None if cid in notes else worst.get(cid, 0.0), n, notes.get(cid))
            for cid, n in counts.items()]


def _gauge_rows(ctx):
    """The gauge rows as ``run_suite`` runs them."""
    rows = harness._pointwise_rows(ctx, "gauge")
    assert [row.group for _cid, row in rows] == ["gauge"] * 9 + ["orbit"]
    return harness._run_pointwise(ctx, rows)


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", sorted(GAUGE_MODELS))
def test_batched_gauge_scenario_matches_point_by_point(name, mode):
    ctx = harness.SuiteContext(GAUGE_MODELS[name], mode)
    rows = _gauge_rows(ctx)
    reference = _reference_gauge_rows(ctx)
    assert [(cid, n) for cid, _v, n, _note in rows] == [(cid, n) for cid, _v, n, _note in reference]
    for (cid, value, _n, note), (_cid, ref, _rn, ref_note) in zip(rows, reference):
        tol = ctx.tolerance(cid)
        assert note is None and ref_note is None  # an informational row's note is its table row's
        if tol is None:
            assert CHECK_DEFS[cid].note.startswith("informational")
            assert abs(value - ref) <= 1e-12 * abs(ref)
        else:
            assert (value <= tol) == (ref <= tol)
            assert abs(value - ref) <= 1e-6 * tol, cid


# -- the dynamics scenario's batches against batches of one -------------------

DYNAMICS_MODELS = {**GAUGE_MODELS, "minkowski-constant-e": catalog_get("minkowski-constant-e")}

# the pointwise rows of the dynamics suite; the dust rows run on a model with dust
DYNAMICS_ROWS = ("dyn.transport_identity", "dyn.exchange_mass_flux", "dyn.exchange_conservation")


def _assert_rows_match(ctx, cid, batch, rows):
    tol = ctx.tolerance(cid)
    assert batch.shape == rows.shape == (len(ctx.points("small")),)
    if tol is None:
        assert np.abs(batch - rows).max() <= 1e-12 * np.abs(rows).max(), cid
    else:
        assert np.abs(batch - rows).max() <= 1e-6 * tol, cid


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", sorted(DYNAMICS_MODELS))
def test_batched_dynamics_rows_match_batches_of_one(name, mode):
    """The transport identity and the dust exchange over the small points,
    one value per point, against each point taken as a batch of one."""
    model = DYNAMICS_MODELS[name]
    ctx = harness.SuiteContext(model, mode)
    pts = ctx.points("small")
    rows = [GeometrySnapshot(model, pts[i:i + 1], mode) for i in range(len(pts))]
    checked = [cid for cid in DYNAMICS_ROWS if CHECK_DEFS[cid].claim is None or model.dust]
    assert len(checked) == (3 if "dust" in model.meta else 1)
    for cid in checked:
        residual = CHECK_DEFS[cid].residual
        _assert_rows_match(ctx, cid, residual(GeometrySnapshot(model, pts, mode)),
                           np.concatenate([residual(r) for r in rows]))


# Flat, with a domain x > -1, y > -1 (a product of two factors); in fd mode
# the current's stencils (step 1e-3) leave it from the first point along y
# and from the third along x, which a batch's stencils, direction by
# direction, meet in the other order.
EDGES = """
name = edges
coords = t, x, y, z
domain = "(x + 1)*(y + 1)"
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "-(0.5*x)"
A[2] = "0.1*x*y"
grid.t = 0:0:1
grid.x = 0.5:-0.9995:2
grid.y = -0.9995:0.5:2
grid.z = 0:0:1
"""


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("case", ["across-horizon", "stencils-leave-domain", "log-gauge-function"])
def test_gauge_scenario_error_is_the_point_by_point_one(case, mode):
    """Each gauge row that raises fails alone, with the note of its first
    failing point in a point-by-point run; the other rows still run."""
    phis = None
    if case == "across-horizon":
        model = catalog_get("reissner-nordstrom")
        grid = {"r": [3.0, 1.5, 4.5], "theta": [1.0], "phi": [0.1], "t": [0.0, 0.2]}
    elif case == "log-gauge-function":
        model, grid, phis = catalog_get("schwarzschild"), None, ["0.2*t", "log(t)"]
    else:
        model, grid = parse_spacetime_text(EDGES), None
    report = run_suite("gauge", model, mode=mode, grid_overrides=grid, phis=phis)
    ctx = harness.SuiteContext(model, mode, grid_overrides=grid, phis=phis)
    reference = _reference_gauge_rows(ctx)
    assert [c.check_id for c in report.checks] == [cid for cid, *_ in reference]
    failing = {cid: note for cid, _v, _n, note in reference if note}
    if case == "stencils-leave-domain":
        # only the scalar shift reads the current's derivative, whose fd
        # stencils leave the domain
        assert list(failing) == (["gauge.scalar_shift"] if mode == "fd" else [])
    else:
        assert len(failing) == 10
    for check, (_cid, value, _n, note) in zip(report.checks, reference):
        assert check.note == (note or CHECK_DEFS[check.check_id].note)
        assert check.passed == (note is None)
        if note:
            assert check.max_residual is None
        else:
            assert check.max_residual is not None
    assert report.passed == (not failing)


# -- a constant metric is evaluated once per model -------------------------------

# The members that read only the metric and its derivatives.
METRIC_MEMBERS = (
    "det_g", "ginv", "sqrt_g", "dginv", "ddginv", "dsqrt_g", "ddsqrt_g", "_sym_dg",
    "gamma_lc", "_dsym_dg", "dgamma_lc", "ddgamma_lc", "gamma_lc_trace", "riemann_lc",
    "ricci_lc", "scalar_lc", "einstein_lc_dd", "einstein_lc_uu", "d_riemann_lc",
)

# Constant, off-diagonal metric: no member vanishes by symmetry alone.
OFFDIAG = """
name = offdiag
coords = t, x, y, z
g[0][0] = "{g00}"
g[0][1] = "0.5"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "0.3*sin(x + t)"
A[2] = "0.1*t*z^2 + 0.2*x"
grid.t = -0.3:0.3:2
grid.x = -0.4:0.4:2
grid.y = -0.4:0.4:2
grid.z = -0.3:0.3:2
"""

CONSTANT_METRIC_MODELS = {
    **{name: lambda name=name: catalog_get(name)
       for name in ("minkowski", "minkowski-constant-e", "em-plane-wave", "charge-ball")},
    "offdiag": lambda: parse_spacetime_text(OFFDIAG.format(g00="4")),
}


def _sample(model, n, seed):
    box = model.sample_box()
    rng = np.random.default_rng(seed)
    return np.array([[rng.uniform(*box[c]) for c in model.chart.names] for _ in range(n)])


def _metric_members(snap):
    """member -> its array, or the text of the error it raises."""
    out = {}
    for member in METRIC_MEMBERS:
        try:
            out[member] = getattr(snap, member)
        except GeometryError as err:
            out[member] = f"{type(err).__name__}: {err}"
    return out


def _assert_same_bits(got, want):
    assert got.keys() == want.keys()
    for member, w in want.items():
        g = got[member]
        if isinstance(w, str):
            assert g == w, member
        else:
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), member


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", sorted(CONSTANT_METRIC_MODELS))
def test_shared_metric_members_match_the_unshared_computation(name, mode):
    """Whichever batch size computes a member first, every later snapshot,
    of one point or of 40 others, gets the bits its own computation gives."""
    model = CONSTANT_METRIC_MODELS[name]()
    assert not model.layout.g_live
    X, Y = _sample(model, 40, 0), _sample(model, 40, 1)
    store = model.layout.shared
    unshared = {}
    for n in (1, 40):
        store.clear()
        unshared[n] = _metric_members(GeometrySnapshot(model, X[:n], mode))

    for first in (1, 40):
        store.clear()
        _metric_members(GeometrySnapshot(model, X[:first], mode))
        raised = {m for m, v in unshared[first].items() if isinstance(v, str)}
        assert raised == ({"ddgamma_lc", "d_riemann_lc"} if mode == "fd" else set())
        assert set(store) == {(m, mode) for m in METRIC_MEMBERS if m not in raised}
        for n in (1, 40):
            snap = GeometrySnapshot(model, Y[:n], mode)
            got = _metric_members(snap)
            _assert_same_bits(got, unshared[n])


def test_constant_metric_snapshots_get_writable_members_of_their_own():
    """Snapshots of one point and of three, the first of them computing
    each kept member, get writable arrays: writing into one snapshot's
    members leaves the other snapshot's and a fresh snapshot's unchanged."""
    members = ("ginv", "gamma_lc", "riemann_lc", "scalar_lc")
    flat = GeometrySnapshot(catalog_get("minkowski-constant-e"), np.zeros(4))
    want = {m: getattr(flat, m)[0] for m in members}
    for writer in (0, 1):
        model = catalog_get("minkowski-constant-e")
        snaps = [GeometrySnapshot(model, _sample(model, n, n)) for n in (1, 3)]
        got = [{m: getattr(s, m) for m in members} for s in snaps]
        for m in members:
            got[writer][m][...] = 2.0
        fresh = GeometrySnapshot(model, _sample(model, 1, 5))
        for m in members:
            for arr in (got[1 - writer][m], getattr(fresh, m)):
                assert (arr == want[m]).all(), (writer, m)


def test_models_with_different_constant_metrics_share_nothing():
    a = parse_spacetime_text(OFFDIAG.format(g00="4"))
    b = parse_spacetime_text(OFFDIAG.format(g00="9"))
    x = _sample(a, 1, 0)
    ginv_a, ginv_b = GeometrySnapshot(a, x).ginv, GeometrySnapshot(b, x).ginv
    assert a.layout.shared.keys() == b.layout.shared.keys() == {("ginv", "dual"), ("det_g", "dual")}
    assert ginv_a is not ginv_b
    for model, ginv in ((a, ginv_a), (b, ginv_b)):
        assert ginv.tobytes() == np.linalg.inv(model.layout.g[None]).tobytes()


@pytest.mark.parametrize("mode", ["dual", "fd"])
def test_gauge_shifted_model_reuses_the_kept_members(mode):
    """A gauge shift keeps the metric fields: the shifted model's snapshots
    add no kept member and get the bits their own computation gives."""
    phi = "0.2*t + 0.05*t*x"
    fresh = transform_potential(catalog_get("minkowski-constant-e"), phi)
    X = _sample(fresh, 40, 0)
    unshared = {}
    for n in (1, 40):
        fresh.layout.shared.clear()
        unshared[n] = _metric_members(GeometrySnapshot(fresh, X[:n], mode))

    model = catalog_get("minkowski-constant-e")
    _metric_members(GeometrySnapshot(model, X[20:21], mode))
    kept = dict(model.layout.shared)
    assert kept
    shifted = transform_potential(model, phi)
    for n in (1, 40):
        _assert_same_bits(_metric_members(GeometrySnapshot(shifted, X[:n], mode)), unshared[n])
    store = shifted.layout.shared
    assert store.keys() == kept.keys() and all(store[k] is v for k, v in kept.items())


@pytest.mark.parametrize("mode", ["dual", "fd"])
def test_coordinate_dependent_metric_shares_nothing(mode):
    model = catalog_get("schwarzschild")
    shifted = transform_potential(model, "0.2*t + 0.05*t*r")
    for x in model.default_grid[:2]:
        for m in (model, shifted):
            _metric_members(GeometrySnapshot(m, x, mode))
    assert model.layout.g_live and model.layout.shared == {} == shifted.layout.shared


def test_constant_degenerate_metric_fails_at_every_snapshot_with_its_point():
    model = build_model("flat-degenerate", ("t", "x", "y", "z"),
                        {(0, 0): "1", (1, 1): "-1", (2, 2): "-1", (3, 3): "0"}, {0: "x"},
                        grid_axes={"t": (0,), "x": (0,), "y": (0,), "z": (0,)}, validate=False)
    for p in ([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]):
        got = _metric_members(GeometrySnapshot(model, np.array(p)))
        pt = f"({p[0]}, {p[1]}, {p[2]}, {p[3]})"
        for member in ("ginv", "gamma_lc", "riemann_lc", "einstein_lc_uu"):
            assert got[member] == f"MetricError: metric is numerically degenerate at {pt} (det=0.000e+00)"
        assert got["sqrt_g"] == f"MetricError: metric determinant is not negative at {pt}"
    assert set(model.layout.shared) == {("det_g", "dual"), ("_sym_dg", "dual"), ("_dsym_dg", "dual")}


# Flat, with a domain x > -1 and a potential that cannot be evaluated at
# x <= -0.5 inside it.
SINGULAR = """
name = singular
coords = t, x, y, z
domain = "x + 1"
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "log(x + 0.5)"
grid.t = 0:0:1
grid.x = 0:0.5:2
grid.y = 0:0:1
grid.z = 0:0:1
"""


@pytest.mark.parametrize("mode", ["dual", "fd"])
def test_shared_members_meet_each_snapshot_domain_and_field_errors(mode):
    """A snapshot that gets a shared member still evaluates its own field
    jets: outside the domain, or where the potential fails, it raises what
    it raises when nothing is shared."""
    bad = [np.array([0.0, -2.0, 0.0, 0.0]), np.array([0.0, -0.7, 0.0, 0.0])]
    fresh = parse_spacetime_text(SINGULAR)
    want = [_metric_members(GeometrySnapshot(fresh, p, mode)) for p in bad]
    assert fresh.layout.shared == {}
    assert "DomainError" in want[0]["gamma_lc"] and "EvalError" in want[1]["gamma_lc"]

    model = parse_spacetime_text(SINGULAR)
    _metric_members(GeometrySnapshot(model, np.array([0.0, 0.2, 0.0, 0.0]), mode))
    assert len(model.layout.shared) >= len(METRIC_MEMBERS) - 2
    for p, w in zip(bad, want):
        assert _metric_members(GeometrySnapshot(model, p, mode)) == w
