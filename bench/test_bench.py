"""Tests of the benchmark itself: generator, oracle and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from rcgeom import cli, engine, jets  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(name, tmp_path):
    first = [op.argv for op in workloads.generate(name, 7, tmp_path)]
    again = [op.argv for op in workloads.generate(name, 7, tmp_path)]
    other = [op.argv for op in workloads.generate(name, 8, tmp_path)]
    assert first == again
    assert first != other


def test_every_run_has_a_tail_percentile():
    for name in workloads.WORKLOADS:
        n_ops = len(workloads.generate(name, 0, "."))
        assert workloads.passes_for(name, n_ops, 1) * n_ops > workloads.TAIL_BEYOND


def test_quantiles_are_harrell_davis_estimates():
    values = [float(i) for i in range(40)]
    assert run.quantile(values, 0.5) == pytest.approx(19.5, abs=1e-4)
    assert run.quantile([3.0] * 12, 0.5) == pytest.approx(3.0)
    value, pct = run.tail(values)
    assert pct == 75.0
    assert 28.5 < value < 30.5  # near the order statistic with ten values beyond it
    with pytest.raises(ValueError):
        run.tail(values[:10])


def test_every_snapshot_stage_is_mapped():
    props = {n for n, v in vars(engine.GeometrySnapshot).items() if isinstance(v, cached_property)}
    mapped = {n for names in tracing.ENGINE_STAGES.values() for n in names.split()}
    assert props <= mapped
    assert all(hasattr(engine.GeometrySnapshot, n) for n in mapped)


def _verdict(op):
    seconds, rc, stdout, exc = run.invoke(cli, op)
    return workloads.judge(op, rc, stdout, exc)


def test_oracle_accepts_negative_control_and_rejects_a_wrong_expectation(tmp_path):
    ops = {op.name: op for op in workloads.generate("catalog-sweep", 3, tmp_path)}
    control = ops["kn-512-mischarged-einstein"]
    assert _verdict(control).status == "ok"
    as_if_exact = workloads.Op(**{**vars(control), "expect": "pass"})
    assert _verdict(as_if_exact).status == "wrong"


def test_oracle_counts_an_escaping_exception_as_error(tmp_path):
    op = workloads.generate("catalog-sweep", 0, tmp_path)[0]
    outcome = workloads.judge(op, None, "", TypeError("cannot serialize"))
    assert outcome.status == "error"


def test_oracle_checks_worldline_bounds(tmp_path):
    circ, accel, _bound = workloads.generate("worldline", 4, tmp_path)
    assert _verdict(circ).status == "ok"
    off_orbit = workloads.Op(**{**vars(circ), "radius": circ.radius + 1e-3})
    assert _verdict(off_orbit).status == "wrong"
    assert _verdict(accel).steps == 500


def _traced_pass(ops):
    t = tracing.Tracer()
    with t.installed():
        samples = run.run_passes(cli, ops, 1, tracer=t)
    assert all(s["status"] == "ok" for s in samples)
    return t


def test_traced_counts_repeat_exactly(tmp_path):
    """Two traced passes of the same seed give identical counts, also with --jobs 2."""
    sweep = {op.name: op for op in workloads.generate("catalog-sweep", 5, tmp_path)}
    ops = workloads.generate("worldline", 5, tmp_path)
    ops += [sweep[name] for name in ("rn-512-all", "reissner-nordstrom-all",
                                     "charge-ball-gauge", "charge-ball-all-fd")]

    first, second = _traced_pass(ops), _traced_pass(ops)
    assert first.totals()[1] == second.totals()[1]
    m1, m2 = first.metrics(), second.metrics()
    exact = [n for n, unit in tracing.PER_LAYER.items() if unit != "s"]
    assert {n: m1[n] for n in exact} == {n: m2[n] for n in exact}
    # every layer the mix exercises shows work
    for name in ("jets.ops.o3", "fields.shifted_jet_calls", "engine.fd_pipeline_snapshots",
                 "dynamics.steps", "gauge.transform_calls", "expr.eval_nodes"):
        assert m1[name] > 0, name
    assert set(m1) == set(tracing.PER_LAYER)


def test_tracer_restores_the_package(tmp_path):
    before = (engine.field_jets, jets.Jet.__add__, jets.FUNCTIONS["sin"],
              vars(engine.GeometrySnapshot)["gamma_lc"], cli.main)
    t = tracing.Tracer()
    with t.installed():
        assert engine.field_jets is not before[0]
    after = (engine.field_jets, jets.Jet.__add__, jets.FUNCTIONS["sin"],
             vars(engine.GeometrySnapshot)["gamma_lc"], cli.main)
    assert all(a is b for a, b in zip(before, after))
