"""Geometry engine over a batch of chart points.

``GeometrySnapshot`` evaluates every geometric object the verification
suites need: Levi-Civita connection and curvature, contorsion and torsion
built from the potential, the full connection and its curvature, the field
strength, current, and stress-energy, together with the exact coordinate
derivatives of those objects needed by the divergence-type identities.

A snapshot takes a batch of points, shape (N, 4); one point, shape (4,), is
read as a batch of one.  Every member carries the leading point axis
(``g`` has shape (N, 4, 4)), the scalar members (``det_g``, ``sqrt_g``,
``scalar_lc``, ``F2``, ``scalar_rc``) are (N,) arrays, and each residual
method returns one value per point.  Every contraction is written as at one
point and runs over the point axis through ``tensor.batched_einsum``, which
plans each subscripts string once as pairwise steps (a matrix product per
point is one stacked matmul), so each row of a contraction has the bits of
its point taken as a batch of one.

The field jets come from ``field_jets``, which fills the model's constant
template (``SpacetimeModel.layout``) and evaluates only the
coordinate-dependent components, on the arrays of the whole batch, a batch
of one included.  In dual mode the expression components run through one
generated straight-line numpy function per model and order
(``codegen.compile_columns``): the jet arithmetic of a batch recorded entry by
entry over (N,) columns, each distinct subtree once and no entry along an
axis its tree does not read, written point-first into the members.  Its
entries have the jet path's bits up to the sign of a zero.  The jet path
(``ExprField.jet_unchecked``) stays for the gauge-shifted potentials, whose
components share each gauge function's jet within a call, and for every
component of a call where the column function fails: an overflow, a
division by zero, a power outside its domain or a non-finite entry sends
the call back to the jet path, which raises its own note.  fd mode runs the
field stencils.
Derivatives of computed objects are assembled analytically from the exact
field jets, each as the Leibniz expansion (``_leibniz``) of the product it
differentiates, never by differencing grids of computed values; in
finite-difference mode the handful of third-order consumers fall back to
the field stencils' central differences, applied to the computed field
along the axes the model reads.

A constant metric (no coordinate-dependent component, as on the flat
backgrounds of the test-field models) makes every member that reads only
the metric and its derivatives (``det_g``, ``ginv``, ``sqrt_g``, their
derivatives, the Levi-Civita connection and its curvature) the same at
every point of every model with that metric.  Such a member is computed
once per process for each constant metric and derivative mode, by the first
snapshot that reads it, and kept in a bounded memo as one row; later
snapshots, of any model with that metric, get the row repeated over their
points, each an array of their own.  Models whose metric depends on the
coordinates compute every member per snapshot.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from .errors import _RAISE, GeometryError
from .codegen import compile_columns
from .fields import (ExprField, ShiftedPotentialField, _check_finite, central_differences,
                     check_fd_order, fd_jet, make_seeds)
from .tensor import (MetricAtPoint, _leibniz, _outer, _total, batched_einsum, max_abs,
                     metric_inverse, volume_factor)

DIM = 4
FOUR_PI = 4.0 * np.pi
PIPELINE_FD_STEP = 1e-3

# Raw metric and potential derivatives at every point of a batch, the point
# axis first; the derivatives above the jets' order are None.
FieldJets = collections.namedtuple(
    "FieldJets", "x order g dg A dA ddg ddA dddg dddA", defaults=(None,) * 4)


# Where field_jets puts a component's value and derivatives of each order:
# indices into its members, in FieldJets order (g, dg, A, dA, ddg, ...).
_G_MEMBERS = (0, 1, 4, 6)
_A_MEMBERS = (2, 3, 5, 7)


def field_jets(model, X, order=2, mode="dual"):
    """Evaluate the component fields of a model at every point of X, shape
    (N, 4).

    The members start from the model's constant template (``model.layout``):
    the constant components, and the zero derivatives of them, are filled
    in, and only the coordinate-dependent components are evaluated.  In dual
    mode the expression components run through one generated column
    function of the model's trees and order (``_columns``); the gauge-shifted
    potentials, and every component where that function fails, take the
    jet path, whose shifted components share each gauge function's jet.  A
    non-finite entry in any member raises, naming the first point at fault.
    """
    model.require_in_domain(X)
    if mode not in ("dual", "fd"):
        raise ValueError(f"unknown derivative mode {mode!r}")
    if mode == "fd":
        check_fd_order(order)

    layout = model.layout
    n = len(X)
    ranks = (2, 3, 1, 2, 4, 3, 5, 4)[: 2 + 2 * order]  # of g, dg, A, dA, ddg, ...
    members = [np.zeros((n,) + (DIM,) * r) for r in ranks]  # the point axis first
    members[0][...] = layout.g
    members[2][...] = layout.A
    live = _live(layout)
    if mode == "dual":
        live = _columns(live, X, order, members)
        if not live:  # every component came from the column function, finite
            return FieldJets(X, order, *members)

    seeds = make_seeds(X, order) if mode == "dual" else None
    phi_jets = {}

    def jet(f):
        if mode == "fd":
            return fd_jet(f, X, order)
        if isinstance(f, ShiftedPotentialField):
            return f.jet_unchecked(X, order, seeds, phi_jets)
        return f.jet_unchecked(X, order, seeds)

    for places, entries, f in live:
        for k, part in enumerate(jet(f)[:order + 1]):
            if k:  # the jets carry the point axis last
                part = part.transpose(k, *range(k))
            for entry in entries:
                members[places[k]][(slice(None),) * (k + 1) + entry] = part

    _check_finite([m.transpose(*range(1, m.ndim), 0) for m in members], model.name, X,
                  "non-finite field derivatives for {!r}")
    return FieldJets(X, order, *members)


def _live(layout):
    """(indices of the members by order, entries, field) of each
    coordinate-dependent component: a metric component off the diagonal
    has two entries."""
    live = [(_G_MEMBERS, ((i, j), (j, i)) if i != j else ((i, j),), f) for i, j, f in layout.g_live]
    return live + [(_A_MEMBERS, ((k,),), f) for k, f in layout.A_live]


def _column_function(live, order):
    """The generated column function of the expression components of
    ``live`` at ``order`` (``codegen.compile_columns``, made on first use), or
    None where there is none or the generator declines."""
    exprs = [c for c in live if isinstance(c[2], ExprField)]
    if not exprs:
        return None
    return compile_columns(tuple(f.tree for *_, f in exprs), order,
                           tuple((places[:order + 1], entries) for places, entries, _ in exprs))


def _columns(live, X, order, members):
    """Write the expression components of ``live`` into the members through
    their column function (``_column_function``), and return the components
    left to the jet path: the gauge-shifted potentials, or all of them where
    a coordinate is not finite, there is no function, or it raises, returns
    None or computes a non-finite entry."""
    run = _column_function(live, order) if np.isfinite(X).all() else None
    try:
        with np.errstate(**_RAISE):
            computed = None if run is None else run(*np.ascontiguousarray(X.T), members)
    except Exception:  # noqa: BLE001 - the jet path meets it again, with its note
        computed = None
    if computed is None or not np.isfinite(np.concatenate(computed)).all():
        return live
    return [c for c in live if not isinstance(c[2], ExprField)]


class _cached(functools.cached_property):
    """``functools.cached_property`` without the lock that Python 3.10 and
    3.11 take on every first access (3.12 has none).  A member that raises
    caches nothing and raises again on the next access."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _metric_member(*orders):
    """A member that reads only the metric and its derivatives, reaching the
    field jets at ``orders`` in that order.

    When the model's metric is constant (``layout.g_live`` is empty) the
    member is the same at every point of every model with that metric: the
    first snapshot of a template and mode that reads it computes it, and
    ``_ROWS`` keeps a copy of its first row, keyed by (the template's bytes,
    member, mode).  A later snapshot, of any model with that template, still
    evaluates its own field jets at ``orders``, so its domain and finiteness
    errors stay its own, and gets the kept row repeated over its points, an
    array of its own.  A member that raises keeps nothing.
    """

    def decorate(func):
        name = func.__name__

        @functools.wraps(func)
        def member(self):
            layout = self.model.layout
            if layout.g_live:
                return func(self)
            key = (layout.g.tobytes(), name, self.mode)
            row = _ROWS.get(key)
            if row is None:
                value = func(self)
                _ROWS[key] = value[:1].copy()
                if len(_ROWS) > _ROWS_MAX:
                    _ROWS.popitem(last=False)
                return value
            for order in orders:
                self.jets(order)
            # np.repeat, not a stride-0 view: the bits of a contraction can
            # follow its operands' strides (einsum's loop order, the BLAS
            # route matmul takes), so the row is handed on as an ordinary array.
            return np.repeat(row, len(self.x), axis=0)

        return _cached(member)

    return decorate


# _metric_member's rows of constant metrics, oldest first.  A template's rows
# in both modes are 34, about 35 KB, so the bound holds three.  Each access is
# one call of the dict's: snapshots in threads at worst compute a row twice.
_ROWS = collections.OrderedDict()
_ROWS_MAX = 128


def _riemann(gamma, letters=""):
    """d_{letters} of R_{mnl}^c = d_m G_{nl}^c - d_n G_{ml}^c + G_{mr}^c G_{nl}^r
    - G_{nr}^c G_{ml}^r, from the connection's jets (G, dG, ...)."""
    d = gamma[len(letters) + 1]
    r = d - d.swapaxes(-4, -3)
    for term in _leibniz("mrc,nlr->mnlc", (gamma, gamma), letters):
        r += term
    for term in _leibniz("nrc,mlr->mnlc", (gamma, gamma), letters):
        r -= term
    return r


def cyclic_gradient_residual(dF_dd):
    """max of the cyclic sum d_l F_mn + d_m F_nl + d_n F_lm over a gradient
    array (slots: point, derivative, first, second), one value per point;
    closed F gives zero."""
    d = np.asarray(dF_dd, dtype=float)
    cyc = d + d.transpose(0, 2, 3, 1) + d.transpose(0, 3, 1, 2)
    return max_abs(cyc)


class GeometrySnapshot:
    """All geometric objects of a model evaluated lazily over a batch of
    points, shape (N, 4); a point, shape (4,), is a batch of one."""

    def __init__(self, model, x, mode="dual"):
        self.model = model
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.mode = mode
        self._jets = None  # the highest-order field jets evaluated so far

    @property
    def C(self):
        """The contorsion coupling G / c^4."""
        return self.model.constants.coupling

    @property
    def c_light(self):
        return self.model.constants.c

    def jets(self, order):
        if self._jets is None or self._jets.order < order:
            self._jets = field_jets(self.model, self.x, order=order, mode=self.mode)
        return self._jets

    def preload(self, order):
        """Evaluate the field jets now at the highest order the caller will
        read, so lower orders share them.  fd mode stops at order 2: it
        differentiates computed fields by stencils, not by third jets.  An
        error is left to the member that needs the failing order, which
        meets it again."""
        try:
            self.jets(min(order, 2) if self.mode == "fd" else order)
        except GeometryError:
            pass

    # -- metric layer --------------------------------------------------------

    @_cached
    def g(self):
        return self.jets(1).g

    @_cached
    def metric(self):
        """The validated metric from ``g``, ``ginv``, ``det_g`` and ``sqrt_g``."""
        return MetricAtPoint.assemble(self.g, self.ginv, self.det_g, self.sqrt_g, self.x)

    @_metric_member(1)
    def det_g(self):
        return np.linalg.det(self.g)

    @_metric_member(1)
    def ginv(self):
        return metric_inverse(self.g, self.det_g, self.x)

    @_metric_member(1)
    def sqrt_g(self):
        return volume_factor(self.g, self.det_g, self.x)

    @_cached
    def dg(self):
        return self.jets(1).dg

    @_cached
    def ddg(self):
        return self.jets(2).ddg

    @_metric_member(1)
    def dginv(self):
        return -batched_einsum("ma,lab,bn->lmn", self.ginv, self.dg, self.ginv)

    @_metric_member(1, 2)
    def ddginv(self):
        gi = (self.ginv, self.dginv)
        return -_total(_leibniz("ma,lab,bn->lmn", (gi, (self.dg, self.ddg), gi), "k"))

    @_metric_member(1)
    def dsqrt_g(self):
        return 0.5 * self.sqrt_g[:, None] * batched_einsum("mn,lmn->l", self.ginv, self.dg)

    @_metric_member(1, 2)
    def ddsqrt_g(self):
        tr = batched_einsum("mn,lmn->l", self.ginv, self.dg)
        dtr = _total(_leibniz("mn,lmn->l", ((self.ginv, self.dginv), (self.dg, self.ddg)), "k"))
        return 0.5 * (_outer(self.dsqrt_g, tr) + self.sqrt_g[:, None, None] * dtr)

    def density_div(self, X, dX):
        """d_m(sqrt(-g) X^{m...}) = d_m sqrt(-g) X^{m...} + sqrt(-g) d_m X^{m...},
        for a vector or a 2-index X and its gradient dX, at every point."""
        rest = "n" if X.ndim == 3 else ""
        s = self.sqrt_g[:, None] if rest else self.sqrt_g
        return (batched_einsum(f"m,m{rest}->{rest}", self.dsqrt_g, X)
                + s * batched_einsum(f"mm{rest}->{rest}", dX))

    # -- Levi-Civita layer ---------------------------------------------------

    @_metric_member(1)
    def _sym_dg(self):
        # S[m,n,a] = d_m g_na + d_n g_ma - d_a g_mn
        dg = self.dg
        return dg + dg.swapaxes(-3, -2) - dg.transpose(0, 2, 3, 1)

    @_metric_member(1)
    def gamma_lc(self):
        return 0.5 * batched_einsum("la,mna->mnl", self.ginv, self._sym_dg)

    @_metric_member(2)
    def _dsym_dg(self):
        ddg = self.ddg
        return ddg + ddg.swapaxes(-3, -2) - ddg.transpose(0, 1, 3, 4, 2)

    @_metric_member(1, 2)
    def dgamma_lc(self):
        jets = ((self.ginv, self.dginv), (self._sym_dg, self._dsym_dg))
        return 0.5 * _total(_leibniz("la,mna->mnl", jets, "k"))

    @_metric_member(3)
    def ddgamma_lc(self):
        dddg = self.jets(3).dddg
        ddsym = dddg + dddg.swapaxes(-3, -2) - dddg.transpose(0, 1, 2, 4, 5, 3)
        jets = ((self.ginv, self.dginv, self.ddginv), (self._sym_dg, self._dsym_dg, ddsym))
        return 0.5 * _total(_leibniz("la,mna->mnl", jets, "jk"))

    @_metric_member(1)
    def gamma_lc_trace(self):
        # G_{mr}^m as a function of r
        return batched_einsum("mrm->r", self.gamma_lc)

    @_metric_member(1, 2)
    def riemann_lc(self):
        return _riemann((self.gamma_lc, self.dgamma_lc))

    @_metric_member(1, 2)
    def ricci_lc(self):
        return batched_einsum("mnlm->nl", self.riemann_lc)

    @_metric_member(1, 2)
    def scalar_lc(self):
        return batched_einsum("nl,nl->", self.ginv, self.ricci_lc)

    @_metric_member(1, 2)
    def einstein_lc_dd(self):
        return self.ricci_lc - 0.5 * self.g * self.scalar_lc[:, None, None]

    @_metric_member(1, 2)
    def einstein_lc_uu(self):
        return batched_einsum("ma,ab,bn->mn", self.ginv, self.einstein_lc_dd, self.ginv)

    @_metric_member(3)
    def d_riemann_lc(self):
        return _riemann((self.gamma_lc, self.dgamma_lc, self.ddgamma_lc), "k")

    @_cached
    def d_einstein_lc_uu(self):
        if self.mode == "fd":
            return _fd_pipeline(self, lambda s: s.einstein_lc_uu)
        gi = (self.ginv, self.dginv)
        d_ricci = batched_einsum("kmnlm->knl", self.d_riemann_lc)
        d_scalar = _total(_leibniz("nl,nl->", (gi, (self.ricci_lc, d_ricci)), "k"))
        gR = ((self.g, self.dg), (self.scalar_lc, d_scalar))
        dG_dd = d_ricci - 0.5 * _total(_leibniz("mn,->mn", gR, "k"))
        return _total(_leibniz("ma,ab,bn->mn", (gi, (self.einstein_lc_dd, dG_dd), gi), "k"))

    def bianchi_residual(self):
        """max_n |covariant divergence of the Einstein tensor|."""
        return max_abs(self._div(self.d_einstein_lc_uu, self.einstein_lc_uu))

    # -- electromagnetic layer -----------------------------------------------

    @_cached
    def A(self):
        return self.jets(1).A

    @_cached
    def dA(self):
        return self.jets(1).dA

    @_cached
    def F_dd(self):
        dA = self.dA
        return dA - dA.swapaxes(-1, -2)

    @_cached
    def dF_dd(self):
        ddA = self.jets(2).ddA
        return ddA - ddA.swapaxes(-1, -2)

    @_cached
    def ddF_dd(self):
        dddA = self.jets(3).dddA
        return dddA - dddA.swapaxes(-1, -2)

    @_cached
    def F_mix(self):
        # F_n^{.l} = g^{la} F_nl... contracted on the second slot
        return batched_einsum("la,na->nl", self.ginv, self.F_dd)

    @_cached
    def dF_mix(self):
        jets = ((self.ginv, self.dginv), (self.F_dd, self.dF_dd))
        return _total(_leibniz("la,na->nl", jets, "k"))

    @_cached
    def F_uu(self):
        return batched_einsum("ma,nb,ab->mn", self.ginv, self.ginv, self.F_dd)

    @_cached
    def dF_uu(self):
        gi = (self.ginv, self.dginv)
        return _total(_leibniz("ma,nb,ab->mn", (gi, gi, (self.F_dd, self.dF_dd)), "k"))

    @_cached
    def ddF_uu(self):
        gi = (self.ginv, self.dginv, self.ddginv)
        F = (self.F_dd, self.dF_dd, self.ddF_dd)
        return _total(_leibniz("ma,nb,ab->mn", (gi, gi, F), "jk"))

    @_cached
    def F2(self):
        return batched_einsum("mn,mn->", self.F_dd, self.F_uu)

    @_cached
    def dF2(self):
        return _total(_leibniz("mn,mn->", ((self.F_dd, self.dF_dd), (self.F_uu, self.dF_uu)), "l"))

    def homogeneous_residual(self):
        """max of the cyclic sum d_m F_nl + d_n F_lm + d_l F_mn."""
        return cyclic_gradient_residual(self.dF_dd)

    # divergence of F^{mn} in three routes
    @_cached
    def lc_div_F_det(self):
        return batched_einsum("m,mn->n", self.dsqrt_g, self.F_uu) / self.sqrt_g[
            :, None
        ] + batched_einsum("mmn->n", self.dF_uu)

    @_cached
    def lc_div_F_gamma(self):
        return self._div(self.dF_uu, self.F_uu)

    @_cached
    def rc_div_F(self):
        return self._div(self.dF_uu, self.F_uu, "rc")

    @_cached
    def J_up(self):
        return (self.c_light / FOUR_PI) * self.lc_div_F_det

    @_cached
    def J_down(self):
        return (self.g @ self.J_up[:, :, None])[:, :, 0]

    @_cached
    def dJ_up(self):
        if self.mode == "fd":
            return _fd_pipeline(self, lambda s: s.J_up)
        s, ds = self.sqrt_g, self.dsqrt_g
        # W^{mn} = sqrt(-g) F^{mn}
        jets = ((s, ds, self.ddsqrt_g), (self.F_uu, self.dF_uu, self.ddF_uu))
        ddW = _total(_leibniz(",mn->mn", jets, "kl"))
        D = self.density_div(self.F_uu, self.dF_uu)
        dD = batched_einsum("kmmn->kn", ddW)
        return (self.c_light / FOUR_PI) * (
            dD / s[:, None, None] - _outer(ds / (s * s)[:, None], D)
        )

    def current_conservation_residual(self):
        """|d_n(sqrt(-g) J^n)| with the current differentiated exactly."""
        return np.abs(self.density_div(self.J_up, self.dJ_up))

    @_cached
    def T_em_dd(self):
        m = batched_einsum("mb,nb->mn", self.F_mix, self.F_dd)
        return (-m + 0.25 * self.g * self.F2[:, None, None]) / FOUR_PI

    @_cached
    def dT_em_dd(self):
        FF = ((self.F_mix, self.dF_mix), (self.F_dd, self.dF_dd))
        gF2 = ((self.g, self.dg), (self.F2, self.dF2))
        dm = _total(_leibniz("mb,nb->mn", FF, "l"))
        return (-dm + 0.25 * _total(_leibniz("mn,->mn", gF2, "l"))) / FOUR_PI

    @_cached
    def T_em_uu(self):
        return batched_einsum("ma,ab,bn->mn", self.ginv, self.T_em_dd, self.ginv)

    @_cached
    def dT_em_uu(self):
        gi = (self.ginv, self.dginv)
        return _total(_leibniz("ma,ab,bn->mn", (gi, (self.T_em_dd, self.dT_em_dd), gi), "k"))

    def div_T_em(self, connection="rc"):
        return self._div(self.dT_em_uu, self.T_em_uu, connection)

    def stress_exchange_residual(self):
        """max_n |div T^{mn} - F^{mn} J_m / c|, divergence with the full connection."""
        rhs = batched_einsum("mn,m->n", self.F_uu, self.J_down) / self.c_light
        return max_abs(self.div_T_em("rc") - rhs)

    @_cached
    def chern_simons(self):
        a = self.A[..., :, None, None] * self.F_dd[..., None, :, :]
        return (a + a.transpose(0, 2, 3, 1) + a.transpose(0, 3, 1, 2)) / 6.0

    # -- contorsion layer ----------------------------------------------------

    @_cached
    def K_mix(self):
        return -self.C * batched_einsum("m,nl->mnl", self.A, self.F_mix)

    @_cached
    def K_down(self):
        return -self.C * batched_einsum("m,nl->mnl", self.A, self.F_dd)

    @_cached
    def dK_mix(self):
        jets = ((self.A, self.dA), (self.F_mix, self.dF_mix))
        return -self.C * _total(_leibniz("m,nl->mnl", jets, "k"))

    @_cached
    def covd_K(self):
        g = self.gamma_lc
        K = self.K_mix
        return (
            self.dK_mix
            + batched_einsum("krl,mnr->kmnl", g, K)
            - batched_einsum("kmr,rnl->kmnl", g, K)
            - batched_einsum("knr,mrl->kmnl", g, K)
        )

    @_cached
    def torsion_mix(self):
        return self.K_mix - self.K_mix.swapaxes(-3, -2)

    @_cached
    def gamma_full(self):
        return self.gamma_lc + self.K_mix

    @_cached
    def gamma_full_trace(self):
        return batched_einsum("mrm->r", self.gamma_full)

    @_cached
    def dgamma_full(self):
        return self.dgamma_lc + self.dK_mix

    # -- full curvature layer --------------------------------------------------

    @_cached
    def riemann_rc(self):
        return _riemann((self.gamma_full, self.dgamma_full))

    @_cached
    def quadratic_pair(self):
        K = self.K_mix
        return batched_einsum("nlr,mrc->mnlc", K, K) - batched_einsum("mlr,nrc->mnlc", K, K)

    @_cached
    def riemann_rc_decomposed(self):
        pair = self.covd_K - self.covd_K.swapaxes(-4, -3)
        return self.riemann_lc + pair + self.quadratic_pair

    def decomposition_residual(self):
        return max_abs(self.riemann_rc - self.riemann_rc_decomposed)

    def quadratic_pair_residual(self):
        return max_abs(self.quadratic_pair)

    @_cached
    def ricci_rc(self):
        return batched_einsum("mnlm->nl", self.riemann_rc)

    @_cached
    def scalar_rc(self):
        return batched_einsum("nl,nl->", self.ginv, self.ricci_rc)

    @_cached
    def contorsion_trace_vector(self):
        # W^m = K_n^{.nm}, evaluated through its closed form -C A_n F^{nm}
        return -self.C * batched_einsum("n,nm->m", self.A, self.F_uu)

    @_cached
    def d_contorsion_trace_vector(self):
        jets = ((self.A, self.dA), (self.F_uu, self.dF_uu))
        return -self.C * _total(_leibniz("n,nm->m", jets, "l"))

    @_cached
    def scalar_rc_traced(self):
        """Scalar curvature via the contorsion-trace divergence route."""
        divW = batched_einsum("mm->", self.d_contorsion_trace_vector) + batched_einsum(
            "r,r->", self.gamma_lc_trace, self.contorsion_trace_vector
        )
        return self.scalar_lc + 2.0 * divW

    def scalar_split(self):
        """(R_direct, R_lc, em term, current coupling term, R via trace)."""
        em = self.C * self.F2
        coupling = (8.0 * np.pi * self.C / self.c_light) * batched_einsum(
            "m,m->", self.A, self.J_up
        )
        return self.scalar_rc, self.scalar_lc, em, coupling, self.scalar_rc_traced

    # -- algebraic cancellation pairs -----------------------------------------

    @_cached
    def K_first_trace(self):
        # K_{md}^{.m} as a function of d
        return batched_einsum("mdm->d", self.K_mix)

    def pair_residual_F(self):
        """K_{md}^{.m} F^{dn} + K_{md}^{.n} F^{md}."""
        val = batched_einsum("d,dn->n", self.K_first_trace, self.F_uu) + batched_einsum(
            "mdn,md->n", self.K_mix, self.F_uu
        )
        return max_abs(val)

    def pair_residual_T(self):
        """Same contraction pattern against the EM stress-energy."""
        val = batched_einsum("d,dn->n", self.K_first_trace, self.T_em_uu) + batched_einsum(
            "mdn,md->n", self.K_mix, self.T_em_uu
        )
        return max_abs(val)

    # -- covariant derivatives -------------------------------------------------

    def _div(self, dX, X, connection="lc"):
        """nabla_m X^{mn} = d_m X^{mn} + G_{mr}^m X^{rn} + G_{mr}^n X^{mr} with the
        Levi-Civita ("lc") or the full ("rc") connection."""
        rc = connection == "rc"
        gamma = self.gamma_full if rc else self.gamma_lc
        trace = self.gamma_full_trace if rc else self.gamma_lc_trace
        return (batched_einsum("mmn->n", dX) + batched_einsum("r,rn->n", trace, X)
                + batched_einsum("mrn,mr->n", gamma, X))

    def metric_compatibility_residual(self, connection="lc"):
        gamma = self.gamma_lc if connection == "lc" else self.gamma_full
        # nabla_k g_mn = d_k g_mn - G_{km}^r g_rn - G_{kn}^r g_mr
        grad = (
            self.dg
            - batched_einsum("kmr,rn->kmn", gamma, self.g)
            - batched_einsum("knr,mr->kmn", gamma, self.g)
        )
        return max_abs(grad)


def _fd_pipeline(snap, extract):
    """Central-difference derivative (``fields.central_differences``, step
    ``PIPELINE_FD_STEP``) of the snapshot's pointwise quantity ``extract(snap)``
    at each of its points, along the model's ``read_axes``; the derivative
    axis follows the point axis.  One snapshot holds every stencil point,
    2a·N of them for a model that reads a axes.  On a model that reads none
    the derivative is exactly 0, of the quantity's shape, and no snapshot
    is built."""
    model, x = snap.model, snap.x
    if not model.read_axes:
        return np.zeros((len(x), DIM) + extract(snap).shape[1:])
    jv = central_differences(lambda pts: extract(GeometrySnapshot(model, pts, snap.mode)), x,
                             model.read_axes, np.full_like(x, PIPELINE_FD_STEP), 1)
    # C-contiguous: the bits of a contraction can follow its operands' layout
    return np.ascontiguousarray(np.moveaxis(jv.grad, 0, 1))
