"""The validated metric at a point, and the index operations the engine
performs with it, against small hand-computed oracles; the contraction
executor against np.einsum and against batches of one."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgeom import (MetricAtPoint, MetricError, SignatureError, catalog_get, parse_spacetime_text,
                    tensor)
from rcgeom.dynamics import norm_squared
from rcgeom.engine import GeometrySnapshot, cyclic_gradient_residual
from rcgeom.harness import resolve_model, run_suite

MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])

CROSSED_FIELDS = """
name = crossed
coords = t, x, y, z
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "z"
A[2] = "x"
grid.t = 0:1:2
grid.x = -1:1:2
grid.y = -1:1:2
grid.z = -1:1:2
"""


@pytest.fixture
def eta():
    return MetricAtPoint.from_components(MINKOWSKI)


def test_metric_invariants(eta):
    assert eta.det_g == pytest.approx(-1.0)
    assert eta.sqrt_neg_det == pytest.approx(1.0)
    assert np.abs(eta.inverse @ eta.matrix - np.eye(4)).max() <= 1e-12


def test_metric_rejects_wrong_signature():
    with pytest.raises(SignatureError):
        MetricAtPoint.from_components(np.diag([-1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(SignatureError):
        MetricAtPoint.from_components(np.diag([1.0, 1.0, -1.0, -1.0]))


def test_metric_rejects_degenerate():
    with pytest.raises(Exception):
        MetricAtPoint.from_components(np.diag([1.0, -1.0, -1.0, 0.0]))


def test_metric_rejects_asymmetric():
    g = MINKOWSKI.copy()
    g[0, 1] = 1e-6
    with pytest.raises(Exception):
        MetricAtPoint.from_components(g)


def test_raise_metric_gives_identity(eta):
    mixed = np.einsum("ma,an->mn", eta.inverse[0], eta.matrix[0])
    assert np.abs(mixed - np.eye(4)).max() <= 1e-12


def test_raise_slot1_of_field_strength():
    # F_01 = E in the uniform field; the engine's F_n^{.l} = g^{la} F_na
    m = catalog_get("minkowski-constant-e", {"E": 2.5})
    s = GeometrySnapshot(m, np.array([0.1, 0.2, 0.3, 0.4]))
    F = s.F_dd[0]

    # independent oracle: plain loops over the inverse metric
    oracle = np.zeros((4, 4))
    for n in range(4):
        for l in range(4):
            oracle[n, l] = sum(s.ginv[0][l, a] * F[n, a] for a in range(4))
    assert np.abs(s.F_mix[0] - oracle).max() == 0.0
    assert s.F_mix[0][0, 1] == pytest.approx(-2.5)
    assert s.F_mix[0][1, 0] == pytest.approx(-2.5)


def test_lower_then_raise_roundtrip():
    rng = np.random.default_rng(7)
    g = MINKOWSKI + 0.05 * _random_symmetric(rng)
    m = MetricAtPoint.from_components(g)
    t = rng.standard_normal((4, 4))
    back = m.inverse @ (m.matrix @ t)
    assert np.abs(back - t).max() <= 1e-12


def _random_symmetric(rng):
    a = rng.standard_normal((4, 4))
    return 0.5 * (a + a.T)


def test_contract_identity_gives_four(eta):
    assert np.trace(eta.inverse[0] @ eta.matrix[0]) == pytest.approx(4.0)


def test_contract_antisymmetric_mixed_vanishes():
    """The trace of F_n^{.n} vanishes for any antisymmetric F."""
    m = catalog_get("reissner-nordstrom")
    s = GeometrySnapshot(m, np.array([0.0, 4.0, 1.2, 0.3]))
    assert abs(np.trace(s.F_mix[0])) <= 1e-12


def test_scalar_product_signs():
    m = catalog_get("minkowski")
    x = np.zeros(4)
    assert norm_squared(m, x, np.array([1.0, 0, 0, 0])) == pytest.approx(1.0)
    assert norm_squared(m, x, np.array([0, 1.0, 0, 0])) == pytest.approx(-1.0)


def test_scalar_product_normalized_dust_velocity():
    """A comoving unit velocity on the charged static metric has norm one."""
    model = catalog_get("reissner-nordstrom")
    x = np.array([0.0, 4.0, 1.2, 0.3])
    m = model.metric_at(x)
    v_up = np.array([1.0 / np.sqrt(m.matrix[0][0, 0]), 0.0, 0.0, 0.0])
    assert norm_squared(model, x, v_up) == pytest.approx(1.0, abs=1e-12)


def _chern_simons(src, x):
    return GeometrySnapshot(parse_spacetime_text(src), np.asarray(x, float)).chern_simons[0]


def test_antisymmetrize3_symmetric_input_triples():
    """The engine's cyclic sum (the closedness check of F) triples a totally
    symmetric input."""
    a = np.random.default_rng(5).standard_normal(4)
    sym = np.einsum("i,j,k->ijk", a, a, a)
    assert cyclic_gradient_residual(sym[None])[0] == pytest.approx(3.0 * np.abs(sym).max())


def test_antisymmetrize3_hand_value():
    # A = (z, 0, x, 0): component (0,1,2) is (A_0 F_12 + A_2 F_01 + A_1 F_20) / 3!
    cs = _chern_simons(CROSSED_FIELDS, [0.0, 0.5, 0.2, 1.0])
    assert cs[0, 1, 2] == pytest.approx(1.0 / 6.0)
    assert cs[0, 2, 1] == pytest.approx(-1.0 / 6.0)
    assert cs[2, 0, 1] == pytest.approx(1.0 / 6.0)


def test_antisymmetrize3_zero():
    cs = GeometrySnapshot(catalog_get("minkowski"), np.zeros(4)).chern_simons
    assert np.abs(cs).max() == 0.0


def test_antisymmetrize3_total_antisymmetry_for_wedge_inputs():
    rng = np.random.default_rng(11)
    out = _chern_simons(CROSSED_FIELDS, rng.uniform(-1, 1, size=4))
    # invariant under cyclic shifts, sign flip under a transposition
    assert np.abs(out - out.transpose(1, 2, 0)).max() <= 1e-12
    assert np.abs(out + out.transpose(1, 0, 2)).max() <= 1e-12
    assert np.abs(out + out.transpose(0, 2, 1)).max() <= 1e-12


def test_symmetric_constructor_validates():
    good = MINKOWSKI + 0.05 * _random_symmetric(np.random.default_rng(0))
    MetricAtPoint.from_components(good)
    bad = good.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(MetricError):
        MetricAtPoint.from_components(bad)


def test_antisymmetric_constructor_validates():
    s = GeometrySnapshot(catalog_get("em-plane-wave"), np.array([0.3, 0.1, 0.0, 0.0]))
    assert np.abs(s.F_dd).max() > 0.0
    assert np.abs(s.F_dd[0] + s.F_dd[0].T).max() == 0.0


def test_rank_and_shape_validation():
    with pytest.raises(MetricError):
        MetricAtPoint.from_components(np.zeros(4))
    with pytest.raises(MetricError):
        MetricAtPoint.from_components(np.eye(5))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_raise_lower_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    g = MINKOWSKI + 0.05 * _random_symmetric(rng)
    try:
        m = MetricAtPoint.from_components(g)
    except SignatureError:
        return
    t = rng.standard_normal((4, 4))
    back = np.einsum("ab,bn,mn->ma", m.matrix[0], m.inverse[0], t)
    assert np.abs(back - t).max() <= 1e-12


# -- the contraction executor ---------------------------------------------------

KN_FILE = Path(__file__).resolve().parents[1] / "bench" / "kerr_newman.spacetime"

# An index shared by both operands that the result keeps (none of the
# package's products has one), and a chain of three matrix products.
SYNTHETIC = ["mab,mbc->mac", "ab,bc,cd->ad"]


@pytest.fixture(scope="module")
def package_subscripts():
    """Every subscripts string the suites contract, with fresh plans."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_PLANS", {})
        for spec in ("reissner-nordstrom", "charge-ball", str(KN_FILE)):
            run_suite("all", resolve_model(spec))
        subs = sorted(tensor._PLANS)
    assert {"nrc,mlr->mnlc", "ma,lab,bn->lmn", "mrm->r", "m,nl->mnl"} <= set(subs)
    return subs


def _operands(subscripts, n, rng):
    return [rng.standard_normal((n,) + (4,) * len(s))
            for s in subscripts.split("->")[0].split(",")]


def test_contractions_agree_with_einsum(package_subscripts, monkeypatch):
    monkeypatch.setattr(tensor, "_PLANS", {})
    rng = np.random.default_rng(20)
    for subscripts in package_subscripts + SYNTHETIC:
        ins, out = subscripts.split("->")
        direct = ",".join("..." + s for s in ins.split(",")) + "->..." + out
        for n in (1, 2, 40):
            ops = _operands(subscripts, n, rng)
            got, want = tensor.batched_einsum(subscripts, *ops), np.einsum(direct, *ops)
            assert got.shape == want.shape, subscripts
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (subscripts, n)


def test_each_row_has_the_bits_of_a_batch_of_one(package_subscripts, monkeypatch):
    """The property that CHUNK-sized batches and their one-point fallbacks
    rely on: a point's result does not depend on the batch around it."""
    monkeypatch.setattr(tensor, "_PLANS", {})
    rng = np.random.default_rng(21)
    for subscripts in package_subscripts + SYNTHETIC:
        ops = _operands(subscripts, 40, rng)
        batch = tensor.batched_einsum(subscripts, *ops)
        for i in range(40):
            one = tensor.batched_einsum(subscripts, *(op[i:i + 1] for op in ops))
            assert one.tobytes() == batch[i:i + 1].tobytes(), (subscripts, i)


@pytest.mark.parametrize("subscripts", ["mma,ab->b", "mn,ab->mb"])
def test_a_plan_refuses_an_index_reduced_within_its_operand(subscripts, monkeypatch):
    """A repeated index, or one that no other operand reads, is not planned:
    no subscripts of the package needs it."""
    monkeypatch.setattr(tensor, "_PLANS", {})
    ops = _operands(subscripts, 2, np.random.default_rng(22))
    with pytest.raises(ValueError, match="repeats an index or sums one"):
        tensor.batched_einsum(subscripts, *ops)
    assert subscripts not in tensor._PLANS


def test_a_plan_refuses_index_sizes_it_was_not_made_for(monkeypatch):
    monkeypatch.setattr(tensor, "_PLANS", {})
    a, b = np.ones((3, 2, 8)), np.ones((3, 8, 2))
    assert tensor.batched_einsum("ab,bc->ac", a, b).shape == (3, 2, 2)
    with pytest.raises(ValueError, match="planned for shapes"):
        tensor.batched_einsum("ab,bc->ac", np.ones((3, 4, 4)), np.ones((3, 4, 4)))
