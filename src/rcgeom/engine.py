"""Geometry engine over one chart point or a batch of points.

``GeometrySnapshot`` evaluates every geometric object the verification
suites need: Levi-Civita connection and curvature, contorsion and torsion
built from the potential, the full connection and its curvature, the field
strength, current, and stress-energy, together with the exact coordinate
derivatives of those objects needed by the divergence-type identities.

A snapshot takes one point, shape (4,), or a batch, shape (N, 4).  Over a
batch every member carries a leading point axis (``g`` has shape
(N, 4, 4)), the scalar members (``det_g``, ``sqrt_g``, ``scalar_lc``,
``F2``, ``scalar_rc``) are (N,) arrays, and each residual method returns one
value per point.  At one point the members are exactly what the
single-point formulas give (floats for the scalars); over a batch the
contractions run along cached ``np.einsum_path`` contraction orders, so the
numbers agree with the single-point ones to roundoff.

Derivatives of computed objects are assembled analytically from the exact
field jets (product rule on the closed forms), never by differencing grids
of computed values; in finite-difference mode the handful of third-order
consumers fall back to stencils applied to the computed field.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EvalError, GeometryError, MetricError
from .fields import fd_jet, make_seeds
from .tensor import DEGENERACY_TOL, MetricAtPoint, first_bad

DIM = 4
FOUR_PI = 4.0 * np.pi
PIPELINE_FD_STEP = 1e-3

# subscripts -> (the same contraction over a leading point axis, its
# contraction path or False); filled on first use, bounded by the
# subscripts written in this module.
_BATCHED = {}


def batched_einsum(subscripts, *operands):
    """np.einsum of per-point tensors, written as at one point ("ma,ab->mb"),
    over a leading point axis.

    Three or more operands are contracted pairwise along a path chosen once
    per subscripts from the tensors of the first point: the point axis
    scales every pairwise cost alike, so the path, and with it every result,
    does not depend on the batch size or on which batch came first.
    """
    spec = _BATCHED.get(subscripts)
    if spec is None:
        ins, out = subscripts.split("->")
        subs = ",".join("..." + s for s in ins.split(",")) + "->..." + out
        path = False
        if len(operands) > 2:
            path = np.einsum_path(subscripts, *(op[0] for op in operands),
                                  optimize="greedy")[0]
        spec = _BATCHED[subscripts] = (subs, path)
    return np.einsum(spec[0], *operands, optimize=spec[1])


def max_abs(a, batched):
    """max |a| over the tensor axes: a float at one point, one value per
    point over a batch."""
    if batched:
        return np.abs(a).reshape(len(a), -1).max(axis=1)
    return float(np.abs(a).max())


def _trailing(a, *axes):
    """a.transpose(*axes) applied to the tensor axes of a; the leading point
    axis of a batch stays in front.  (A swap of two axes is a swapaxes with
    negative axes.)"""
    if a.ndim == len(axes):
        return a.transpose(axes)
    return a.transpose((0,) + tuple(i + 1 for i in axes))


def _outer(a, b):
    # a_i b_j at every point
    return a[..., :, None] * b[..., None, :]


class FieldJets:
    """Raw metric and potential derivatives at one point or a batch."""

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
    """Evaluate all 14 component fields of a model at a point, shape (4,),
    or at a batch of points, shape (N, 4)."""
    model.require_in_domain(x)
    x = np.asarray(x, dtype=float)
    if mode not in ("dual", "fd"):
        raise ValueError(f"unknown derivative mode {mode!r}")
    if mode == "fd" and order > 2:
        raise EvalError("finite-difference mode does not carry third derivatives")

    # Filled with the batch axis last, as the jets carry it; moved to the
    # front below.
    batch = x.shape[:-1]
    g = np.empty((DIM, DIM) + batch)
    dg = np.empty((DIM, DIM, DIM) + batch)
    ddg = np.empty((DIM,) * 4 + batch) if order >= 2 else None
    dddg = np.empty((DIM,) * 5 + batch) if order >= 3 else None
    A = np.empty((DIM,) + batch)
    dA = np.empty((DIM, DIM) + batch)
    ddA = np.empty((DIM,) * 3 + batch) if order >= 2 else None
    dddA = np.empty((DIM,) * 4 + batch) if order >= 3 else None

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

    parts = [g, dg, A, dA, ddg, ddA, dddg, dddA]
    if batch:
        parts = [None if a is None else np.ascontiguousarray(np.moveaxis(a, -1, 0))
                 for a in parts]
    for part in parts:
        if part is None:
            continue
        finite = np.isfinite(part)
        if not finite.all():
            where = x
            if batch:
                where = x[np.argmin(finite.reshape(len(x), -1).all(axis=1))]
            raise EvalError(
                f"non-finite field derivatives for {model.name!r} at {tuple(where)}"
            )
    g, dg, A, dA, ddg, ddA, dddg, dddA = parts
    return FieldJets(x, order, g, dg, ddg, dddg, A, dA, ddA, dddA)


def cyclic_gradient_residual(dF_dd):
    """max of the cyclic sum d_l F_mn + d_m F_nl + d_n F_lm over a gradient
    array (slots: derivative, first, second); closed F gives zero.  A leading
    point axis gives one value per point."""
    d = np.asarray(dF_dd, dtype=float)
    cyc = d + _trailing(d, 1, 2, 0) + _trailing(d, 2, 0, 1)
    return max_abs(cyc, d.ndim > 3)


class GeometrySnapshot:
    """All geometric objects of a model evaluated lazily at one point or
    over a batch of points."""

    def __init__(self, model, x, mode="dual"):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.mode = mode
        self.batched = self.x.ndim == 2
        # contraction of per-point tensors, written as at one point
        self.einsum = batched_einsum if self.batched else np.einsum
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

    # -- batch helpers -----------------------------------------------------------

    def max_abs(self, a):
        """max |a| over the tensor axes, per point over a batch."""
        return max_abs(a, self.batched)

    def _scalar(self, v):
        return v if self.batched else float(v)

    def _lift(self, s, k):
        """Per-point scalar s shaped to broadcast against k tensor axes."""
        return s.reshape((-1,) + (1,) * k) if self.batched else s

    # -- metric layer --------------------------------------------------------

    @cached_property
    def g(self):
        return self.jets(1).g

    @cached_property
    def metric(self):
        return MetricAtPoint.from_components(self.g)

    @cached_property
    def det_g(self):
        return self._scalar(np.linalg.det(self.g))

    @cached_property
    def ginv(self):
        det = self.det_g
        if self.batched:
            scale = np.maximum(1.0, np.abs(self.g).max(axis=(-2, -1)))
        else:
            scale = max(1.0, float(np.abs(self.g).max()))
        hit = first_bad(abs(det) < DEGENERACY_TOL * scale**4, self.x, det)
        if hit:
            raise MetricError(
                f"metric is numerically degenerate at {tuple(hit[0])} (det={hit[1]:.3e})"
            )
        return np.linalg.inv(self.g)

    @cached_property
    def sqrt_g(self):
        det = self.det_g
        hit = first_bad(det >= 0.0, self.x, det)
        if hit:
            raise MetricError(f"metric determinant is not negative at {tuple(hit[0])}")
        return self._scalar(np.sqrt(-det))

    @cached_property
    def dg(self):
        return self.jets(1).dg

    @cached_property
    def ddg(self):
        return self.jets(2).ddg

    @cached_property
    def dginv(self):
        return -self.einsum("ma,lab,bn->lmn", self.ginv, self.dg, self.ginv)

    @cached_property
    def ddginv(self):
        t1 = self.einsum("kma,lab,bn->klmn", self.dginv, self.dg, self.ginv)
        t2 = self.einsum("ma,klab,bn->klmn", self.ginv, self.ddg, self.ginv)
        t3 = self.einsum("ma,lab,kbn->klmn", self.ginv, self.dg, self.dginv)
        return -(t1 + t2 + t3)

    @cached_property
    def dsqrt_g(self):
        return 0.5 * self._lift(self.sqrt_g, 1) * self.einsum("mn,lmn->l", self.ginv, self.dg)

    @cached_property
    def ddsqrt_g(self):
        tr = self.einsum("mn,lmn->l", self.ginv, self.dg)
        dtr = self.einsum("kmn,lmn->kl", self.dginv, self.dg) + self.einsum(
            "mn,klmn->kl", self.ginv, self.ddg
        )
        return 0.5 * (_outer(self.dsqrt_g, tr) + self._lift(self.sqrt_g, 2) * dtr)

    # -- Levi-Civita layer ---------------------------------------------------

    @cached_property
    def _sym_dg(self):
        # S[m,n,a] = d_m g_na + d_n g_ma - d_a g_mn
        dg = self.dg
        return dg + dg.swapaxes(-3, -2) - _trailing(dg, 1, 2, 0)

    @cached_property
    def gamma_lc(self):
        return 0.5 * self.einsum("la,mna->mnl", self.ginv, self._sym_dg)

    @cached_property
    def _dsym_dg(self):
        ddg = self.ddg
        return ddg + ddg.swapaxes(-3, -2) - _trailing(ddg, 0, 2, 3, 1)

    @cached_property
    def dgamma_lc(self):
        return 0.5 * (
            self.einsum("kla,mna->kmnl", self.dginv, self._sym_dg)
            + self.einsum("la,kmna->kmnl", self.ginv, self._dsym_dg)
        )

    @cached_property
    def ddgamma_lc(self):
        dddg = self.jets(3).dddg
        ddsym = dddg + dddg.swapaxes(-3, -2) - _trailing(dddg, 0, 1, 3, 4, 2)
        return 0.5 * (
            self.einsum("jkla,mna->jkmnl", self.ddginv, self._sym_dg)
            + self.einsum("kla,jmna->jkmnl", self.dginv, self._dsym_dg)
            + self.einsum("jla,kmna->jkmnl", self.dginv, self._dsym_dg)
            + self.einsum("la,jkmna->jkmnl", self.ginv, ddsym)
        )

    @cached_property
    def gamma_lc_trace(self):
        # G_{mr}^m as a function of r
        return self.einsum("mrm->r", self.gamma_lc)

    def _riemann(self, gamma, dgamma):
        """R_{mnl}^c = d_m G_{nl}^c - d_n G_{ml}^c + G_{mr}^c G_{nl}^r - G_{nr}^c G_{ml}^r."""
        r = dgamma - dgamma.swapaxes(-4, -3)
        r += self.einsum("mrc,nlr->mnlc", gamma, gamma)
        r -= self.einsum("nrc,mlr->mnlc", gamma, gamma)
        return r

    @cached_property
    def riemann_lc(self):
        return self._riemann(self.gamma_lc, self.dgamma_lc)

    @cached_property
    def ricci_lc(self):
        return self.einsum("mnlm->nl", self.riemann_lc)

    @cached_property
    def scalar_lc(self):
        return self._scalar(self.einsum("nl,nl->", self.ginv, self.ricci_lc))

    @cached_property
    def einstein_lc_dd(self):
        return self.ricci_lc - 0.5 * self.g * self._lift(self.scalar_lc, 2)

    @cached_property
    def einstein_lc_uu(self):
        return self.einsum("ma,ab,bn->mn", self.ginv, self.einstein_lc_dd, self.ginv)

    @cached_property
    def d_riemann_lc(self):
        ddgamma = self.ddgamma_lc
        dgamma = self.dgamma_lc
        gamma = self.gamma_lc
        dr = ddgamma - ddgamma.swapaxes(-4, -3)
        dr += self.einsum("kmrc,nlr->kmnlc", dgamma, gamma)
        dr += self.einsum("mrc,knlr->kmnlc", gamma, dgamma)
        dr -= self.einsum("knrc,mlr->kmnlc", dgamma, gamma)
        dr -= self.einsum("nrc,kmlr->kmnlc", gamma, dgamma)
        return dr

    @cached_property
    def d_einstein_lc_uu(self):
        if self.mode == "fd":
            return _fd_pipeline(self.model, self.x, lambda s: s.einstein_lc_uu, self.mode)
        d_ricci = self.einsum("kmnlm->knl", self.d_riemann_lc)
        d_scalar = self.einsum("knl,nl->k", self.dginv, self.ricci_lc) + self.einsum(
            "nl,knl->k", self.ginv, d_ricci
        )
        dG_dd = d_ricci - 0.5 * (
            self.dg * self._lift(self.scalar_lc, 3)
            + self.einsum("mn,k->kmn", self.g, d_scalar)
        )
        return (
            self.einsum("kma,ab,bn->kmn", self.dginv, self.einstein_lc_dd, self.ginv)
            + self.einsum("ma,kab,bn->kmn", self.ginv, dG_dd, self.ginv)
            + self.einsum("ma,ab,kbn->kmn", self.ginv, self.einstein_lc_dd, self.dginv)
        )

    def bianchi_residual(self):
        """max_n |covariant divergence of the Einstein tensor|."""
        div = self.einsum("mmn->n", self.d_einstein_lc_uu)
        div += self.einsum("r,rn->n", self.gamma_lc_trace, self.einstein_lc_uu)
        div += self.einsum("mrn,mr->n", self.gamma_lc, self.einstein_lc_uu)
        return self.max_abs(div)

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
        return dA - dA.swapaxes(-1, -2)

    @cached_property
    def dF_dd(self):
        ddA = self.jets(2).ddA
        return ddA - ddA.swapaxes(-1, -2)

    @cached_property
    def ddF_dd(self):
        dddA = self.jets(3).dddA
        return dddA - dddA.swapaxes(-1, -2)

    @cached_property
    def F_mix(self):
        # F_n^{.l} = g^{la} F_nl... contracted on the second slot
        return self.einsum("la,na->nl", self.ginv, self.F_dd)

    @cached_property
    def dF_mix(self):
        return self.einsum("kla,na->knl", self.dginv, self.F_dd) + self.einsum(
            "la,kna->knl", self.ginv, self.dF_dd
        )

    @cached_property
    def F_uu(self):
        return self.einsum("ma,nb,ab->mn", self.ginv, self.ginv, self.F_dd)

    @cached_property
    def dF_uu(self):
        return (
            self.einsum("kma,nb,ab->kmn", self.dginv, self.ginv, self.F_dd)
            + self.einsum("ma,knb,ab->kmn", self.ginv, self.dginv, self.F_dd)
            + self.einsum("ma,nb,kab->kmn", self.ginv, self.ginv, self.dF_dd)
        )

    @cached_property
    def ddF_uu(self):
        gi, dgi, ddgi = self.ginv, self.dginv, self.ddginv
        F, dF, ddF = self.F_dd, self.dF_dd, self.ddF_dd
        ein = self.einsum
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

    @cached_property
    def F2(self):
        return self._scalar(self.einsum("mn,mn->", self.F_dd, self.F_uu))

    @cached_property
    def dF2(self):
        return self.einsum("lmn,mn->l", self.dF_dd, self.F_uu) + self.einsum(
            "mn,lmn->l", self.F_dd, self.dF_uu
        )

    def homogeneous_residual(self):
        """max of the cyclic sum d_m F_nl + d_n F_lm + d_l F_mn."""
        return cyclic_gradient_residual(self.dF_dd)

    # divergence of F^{mn} in three routes
    @cached_property
    def lc_div_F_det(self):
        return self.einsum("m,mn->n", self.dsqrt_g, self.F_uu) / self._lift(
            self.sqrt_g, 1
        ) + self.einsum("mmn->n", self.dF_uu)

    @cached_property
    def lc_div_F_gamma(self):
        return (
            self.einsum("mmn->n", self.dF_uu)
            + self.einsum("r,rn->n", self.gamma_lc_trace, self.F_uu)
            + self.einsum("mrn,mr->n", self.gamma_lc, self.F_uu)
        )

    @cached_property
    def rc_div_F(self):
        return (
            self.einsum("mmn->n", self.dF_uu)
            + self.einsum("r,rn->n", self.gamma_full_trace, self.F_uu)
            + self.einsum("mrn,mr->n", self.gamma_full, self.F_uu)
        )

    @cached_property
    def J_up(self):
        return (self.c_light / FOUR_PI) * self.lc_div_F_det

    @cached_property
    def J_down(self):
        if self.batched:
            return (self.g @ self.J_up[:, :, None])[:, :, 0]
        return self.g @ self.J_up

    @cached_property
    def dJ_up(self):
        if self.mode == "fd":
            return _fd_pipeline(self.model, self.x, lambda s: s.J_up, self.mode)
        s, ds, dds = self.sqrt_g, self.dsqrt_g, self.ddsqrt_g
        ddW = (
            self.einsum("kl,mn->klmn", dds, self.F_uu)
            + self.einsum("l,kmn->klmn", ds, self.dF_uu)
            + self.einsum("k,lmn->klmn", ds, self.dF_uu)
            + self._lift(s, 4) * self.ddF_uu
        )
        D = self.einsum("m,mn->n", ds, self.F_uu) + self._lift(s, 1) * self.einsum(
            "mmn->n", self.dF_uu
        )
        dD = self.einsum("kmmn->kn", ddW)
        return (self.c_light / FOUR_PI) * (
            dD / self._lift(s, 2) - _outer(ds / self._lift(s * s, 1), D)
        )

    def current_conservation_residual(self):
        """|d_n(sqrt(-g) J^n)| with the current differentiated exactly."""
        val = self.einsum("n,n->", self.dsqrt_g, self.J_up) + self.sqrt_g * self.einsum(
            "nn->", self.dJ_up
        )
        return np.abs(val) if self.batched else abs(float(val))

    @cached_property
    def T_em_dd(self):
        m = self.einsum("mb,nb->mn", self.F_mix, self.F_dd)
        return (-m + 0.25 * self.g * self._lift(self.F2, 2)) / FOUR_PI

    @cached_property
    def dT_em_dd(self):
        dm = self.einsum("lmb,nb->lmn", self.dF_mix, self.F_dd) + self.einsum(
            "mb,lnb->lmn", self.F_mix, self.dF_dd
        )
        return (
            -dm
            + 0.25 * (
                self.dg * self._lift(self.F2, 3)
                + self.einsum("mn,l->lmn", self.g, self.dF2)
            )
        ) / FOUR_PI

    @cached_property
    def T_em_uu(self):
        return self.einsum("ma,ab,bn->mn", self.ginv, self.T_em_dd, self.ginv)

    @cached_property
    def dT_em_uu(self):
        return (
            self.einsum("kma,ab,bn->kmn", self.dginv, self.T_em_dd, self.ginv)
            + self.einsum("ma,kab,bn->kmn", self.ginv, self.dT_em_dd, self.ginv)
            + self.einsum("ma,ab,kbn->kmn", self.ginv, self.T_em_dd, self.dginv)
        )

    def div_T_em(self, connection="rc"):
        gamma = self.gamma_full if connection == "rc" else self.gamma_lc
        gtr = self.gamma_full_trace if connection == "rc" else self.gamma_lc_trace
        return (
            self.einsum("mmn->n", self.dT_em_uu)
            + self.einsum("r,rn->n", gtr, self.T_em_uu)
            + self.einsum("mrn,mr->n", gamma, self.T_em_uu)
        )

    def stress_exchange_residual(self):
        """max_n |div T^{mn} - F^{mn} J_m / c|, divergence with the full connection."""
        rhs = self.einsum("mn,m->n", self.F_uu, self.J_down) / self.c_light
        return self.max_abs(self.div_T_em("rc") - rhs)

    @cached_property
    def chern_simons(self):
        a = self.A[..., :, None, None] * self.F_dd[..., None, :, :]
        return (a + _trailing(a, 1, 2, 0) + _trailing(a, 2, 0, 1)) / 6.0

    # -- contorsion layer ----------------------------------------------------

    @cached_property
    def K_mix(self):
        return -self.C * self.einsum("m,nl->mnl", self.A, self.F_mix)

    @cached_property
    def K_down(self):
        return -self.C * self.einsum("m,nl->mnl", self.A, self.F_dd)

    @cached_property
    def dK_mix(self):
        return -self.C * (
            self.einsum("km,nl->kmnl", self.dA, self.F_mix)
            + self.einsum("m,knl->kmnl", self.A, self.dF_mix)
        )

    @cached_property
    def covd_K(self):
        g = self.gamma_lc
        K = self.K_mix
        return (
            self.dK_mix
            + self.einsum("krl,mnr->kmnl", g, K)
            - self.einsum("kmr,rnl->kmnl", g, K)
            - self.einsum("knr,mrl->kmnl", g, K)
        )

    @cached_property
    def torsion_mix(self):
        return self.K_mix - self.K_mix.swapaxes(-3, -2)

    @cached_property
    def gamma_full(self):
        return self.gamma_lc + self.K_mix

    @cached_property
    def gamma_full_trace(self):
        return self.einsum("mrm->r", self.gamma_full)

    @cached_property
    def dgamma_full(self):
        return self.dgamma_lc + self.dK_mix

    # -- full curvature layer --------------------------------------------------

    @cached_property
    def riemann_rc(self):
        return self._riemann(self.gamma_full, self.dgamma_full)

    @cached_property
    def quadratic_pair(self):
        K = self.K_mix
        return self.einsum("nlr,mrc->mnlc", K, K) - self.einsum("mlr,nrc->mnlc", K, K)

    @cached_property
    def riemann_rc_decomposed(self):
        pair = self.covd_K - self.covd_K.swapaxes(-4, -3)
        return self.riemann_lc + pair + self.quadratic_pair

    def decomposition_residual(self):
        return self.max_abs(self.riemann_rc - self.riemann_rc_decomposed)

    def quadratic_pair_residual(self):
        return self.max_abs(self.quadratic_pair)

    @cached_property
    def ricci_rc(self):
        return self.einsum("mnlm->nl", self.riemann_rc)

    @cached_property
    def scalar_rc(self):
        return self._scalar(self.einsum("nl,nl->", self.ginv, self.ricci_rc))

    @cached_property
    def contorsion_trace_vector(self):
        # W^m = K_n^{.nm}, evaluated through its closed form -C A_n F^{nm}
        return -self.C * self.einsum("n,nm->m", self.A, self.F_uu)

    @cached_property
    def d_contorsion_trace_vector(self):
        return -self.C * (
            self.einsum("ln,nm->lm", self.dA, self.F_uu)
            + self.einsum("n,lnm->lm", self.A, self.dF_uu)
        )

    @cached_property
    def scalar_rc_traced(self):
        """Scalar curvature via the contorsion-trace divergence route."""
        divW = self._scalar(self.einsum("mm->", self.d_contorsion_trace_vector)) + self._scalar(
            self.einsum("r,r->", self.gamma_lc_trace, self.contorsion_trace_vector)
        )
        return self.scalar_lc + 2.0 * divW

    def scalar_split(self):
        """(R_direct, R_lc, em term, current coupling term, R via trace)."""
        em = self.C * self.F2
        coupling = (8.0 * np.pi * self.C / self.c_light) * self._scalar(
            self.einsum("m,m->", self.A, self.J_up)
        )
        return self.scalar_rc, self.scalar_lc, em, coupling, self.scalar_rc_traced

    # -- algebraic cancellation pairs -----------------------------------------

    @cached_property
    def K_first_trace(self):
        # K_{md}^{.m} as a function of d
        return self.einsum("mdm->d", self.K_mix)

    def pair_residual_F(self):
        """K_{md}^{.m} F^{dn} + K_{md}^{.n} F^{md}."""
        val = self.einsum("d,dn->n", self.K_first_trace, self.F_uu) + self.einsum(
            "mdn,md->n", self.K_mix, self.F_uu
        )
        return self.max_abs(val)

    def pair_residual_T(self):
        """Same contraction pattern against the EM stress-energy."""
        val = self.einsum("d,dn->n", self.K_first_trace, self.T_em_uu) + self.einsum(
            "mdn,md->n", self.K_mix, self.T_em_uu
        )
        return self.max_abs(val)

    # -- compatibility checks ---------------------------------------------------

    def metric_compatibility_residual(self, connection="lc"):
        gamma = self.gamma_lc if connection == "lc" else self.gamma_full
        # nabla_k g_mn = d_k g_mn - G_{km}^r g_rn - G_{kn}^r g_mr
        grad = (
            self.dg
            - self.einsum("kmr,rn->kmn", gamma, self.g)
            - self.einsum("knr,mr->kmn", gamma, self.g)
        )
        return self.max_abs(grad)


def _fd_pipeline(model, x, extract, mode, h=PIPELINE_FD_STEP):
    """Central-difference derivative of a computed pointwise quantity.

    Returns an array whose derivative-direction axis follows the point axis
    of a batch (and leads at one point).  Over a batch, the eight shifted
    copies of every point form one batched snapshot.
    """
    x = np.asarray(x, dtype=float)
    shifted = []
    for k in range(DIM):
        e = np.zeros(DIM)
        e[k] = h
        shifted += [x + e, x - e]
    if x.ndim == 2:
        vals = np.asarray(extract(GeometrySnapshot(model, np.concatenate(shifted), mode)))
        vals = vals.reshape((2 * DIM, len(x)) + vals.shape[1:])
        return np.stack([(vals[2 * k] - vals[2 * k + 1]) / (2.0 * h) for k in range(DIM)],
                        axis=1)
    rows = []
    for k in range(DIM):
        hi = extract(GeometrySnapshot(model, shifted[2 * k], mode))
        lo = extract(GeometrySnapshot(model, shifted[2 * k + 1], mode))
        rows.append((np.asarray(hi) - np.asarray(lo)) / (2.0 * h))
    return np.stack(rows, axis=0)


def snapshot(model, x, mode="dual"):
    """Convenience constructor for a GeometrySnapshot at a point, shape (4,),
    or over a batch of points, shape (N, 4)."""
    return GeometrySnapshot(model, x, mode)
