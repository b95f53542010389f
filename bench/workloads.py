"""Seed -> argv generator for the rcgeom benchmark workloads, and the verdict oracle.

Every operation is one ``verify`` invocation, given to ``rcgeom.cli.main``
exactly as a user would type it.  The seed picks model parameters, grid
offsets, initial conditions and gauge functions inside ranges where the
known answer holds; the program only ever sees the generated argv.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
KN_FILE = BENCH_DIR / "kerr_newman.spacetime"
KN_MISCHARGED_FILE = BENCH_DIR / "kerr_newman_mischarged.spacetime"

# Why each workload exists and which layers it loads (see README.md).
WHY = {
    "catalog-sweep": "every verify path but worldlines: suite all and gauge on every model "
                     "(--jobs 2), suite all --diff fd, 512-point RN and Kerr-Newman grids "
                     "with a mis-charged control",
    "worldline": "serial RK4/DP54 worldlines: order-1 RHS snapshots, metric_values and "
                 "in_domain per step; grid batching cannot help here",
}

# Wall time of one pass at baseline on the 2-core reference sandbox.  A run is
# a fixed number of whole passes sized from --seconds with these, so that two
# runs of the same code always time the same mix of verdicts.
NOMINAL_PASS_S = {
    "catalog-sweep": 14.35,
    "worldline": 1.05,
}

# The tail percentile needs at least this many verdicts beyond it.
TAIL_BEYOND = 10

# Oracle bounds for worldline verdicts.
NORM_DRIFT_BOUND = 1e-8  # max |g(V,V) - 1| over the trajectory (dyn.norm_drift tolerance)
CLOSED_FORM_BOUND = 1e-6  # uniform-acceleration error and circular-orbit radius drift

# Checks whose grid_points count worldline states, not pointwise points.
_STATE_COUNT_CHECKS = ("dyn.closed_form", "dyn.norm_drift")

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Op:
    """One verify invocation and the answer it must give."""

    name: str
    argv: tuple
    expect: str  # "pass" | "fail-einstein" | "orbit"
    out: Path
    spacetime: str
    params: dict = field(default_factory=dict)
    radius: float | None = None  # circular orbit radius to hold
    oracle: str | None = None  # closed-form oracle the summary must carry


def _f(x):
    return repr(float(x))


def _op(name, command, spacetime, params, out, extra, expect="pass", **kw):
    argv = [command, "--spacetime", spacetime]
    for key, value in params.items():
        argv += ["--param", f"{key}={_f(value)}"]
    argv += list(extra) + ["--out", str(out)]
    return Op(name, tuple(argv), expect, out, spacetime, dict(params), **kw)


def _spherical_grid(rng):
    r0 = rng.uniform(3.0, 3.5)
    th0 = rng.uniform(0.3, 0.45)
    return ["--grid", f"r={_f(r0)}:{_f(r0 + 7.0)}:32",
            "--grid", f"theta={_f(th0)}:{_f(math.pi - th0)}:4"]


def _dense_grid(rng, out_dir):
    rn = {"M": rng.uniform(0.8, 1.2), "q": rng.uniform(0.1, 0.6)}
    kn = {"a": rng.uniform(0.3, 0.6), "q": rng.uniform(0.2, 0.5)}
    out = out_dir / "report.json"
    rn_grid, kn_grid = _spherical_grid(rng), _spherical_grid(rng)
    dual = ["--jobs", "1", "--diff", "dual"]
    return [
        _op("rn-512-all", "run", "reissner-nordstrom", rn, out,
            ["--suite", "all", *rn_grid, *dual]),
        _op("kn-512-all", "run", str(KN_FILE), kn, out,
            ["--suite", "all", *kn_grid, *dual]),
        _op("kn-512-einstein", "run", str(KN_FILE), kn, out,
            ["--suite", "einstein", *kn_grid, *dual]),
        _op("kn-512-mischarged-einstein", "run", str(KN_MISCHARGED_FILE), kn, out,
            ["--suite", "einstein", *kn_grid, *dual], expect="fail-einstein"),
    ]


def _worldlines(rng, out_dir):
    out = out_dir / "trajectory.csv"
    common = ["--save-every", "10"]

    # circular geodesic in Schwarzschild (M = 1), a third of an orbit
    r = rng.uniform(7.0, 10.0)
    vt = 1.0 / math.sqrt(1.0 - 3.0 / r)
    vphi = math.sqrt(1.0 / r**3) * vt
    ds = 2.0 * math.pi / vphi / 1500.0
    circ = _op("schwarzschild-circular-rk4", "worldline", "schwarzschild", {}, out,
               [f"--x0=0,{_f(r)},{_f(HALF_PI)},0", f"--v0={_f(vt)},0,0,{_f(vphi)}",
                "--ds", _f(ds), "--steps", "500", "--method", "rk4", *common],
               expect="orbit", radius=r)

    # from rest in a uniform field: V^0 = cosh(k E s)
    E, k = rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.8)
    x0 = ",".join(_f(rng.uniform(-0.5, 0.5)) for _ in range(4))
    accel = _op("constant-e-rest-rk4", "worldline", "minkowski-constant-e", {"E": E}, out,
                [f"--x0={x0}", "--v0=1,0,0,0", f"--charge-ratio={_f(k)}",
                 "--ds", "0.002", "--steps", "500", "--method", "rk4", *common],
                expect="orbit", oracle="uniform-acceleration")

    # bound charged orbit near the neutral circular one, adaptive DP54
    q, r = rng.uniform(0.2, 0.5), rng.uniform(9.0, 12.0)
    f = 1.0 - 2.0 / r + q * q / r**2
    omega = math.sqrt(1.0 / r**3 - q * q / r**4)
    vt = 1.0 / math.sqrt(f - r * r * omega * omega)
    vr, k = rng.uniform(-0.02, 0.02), rng.uniform(-0.15, 0.15)
    bound = _op("rn-charged-rk45", "worldline", "reissner-nordstrom", {"q": q}, out,
                [f"--x0=0,{_f(r)},{_f(HALF_PI)},0",
                 f"--v0={_f(vt)},{_f(vr)},0,{_f(omega * vt)}", f"--charge-ratio={_f(k)}",
                 "--ds", "0.5", "--steps", "600", "--method", "rk45-adaptive", *common],
                expect="orbit")
    return [circ, accel, bound]


_CATALOG_PARAMS = {
    "minkowski": lambda rng: {},
    "minkowski-constant-e": lambda rng: {"E": rng.uniform(0.8, 1.2)},
    "schwarzschild": lambda rng: {"M": rng.uniform(0.9, 1.1)},
    "reissner-nordstrom": lambda rng: {"M": rng.uniform(0.9, 1.1), "q": rng.uniform(0.2, 0.5)},
    "em-plane-wave": lambda rng: {"a": rng.uniform(0.3, 0.7), "k": rng.uniform(0.8, 1.2)},
    "charge-ball": lambda rng: {"rho_q": rng.uniform(0.01, 0.03), "rho0": rng.uniform(0.04, 0.06)},
}
_SECOND_COORD = {"schwarzschild": "r", "reissner-nordstrom": "r"}


def _session(rng, out_dir):
    out = out_dir / "report.json"
    runs, gauges = [], []
    for name, draw in _CATALOG_PARAMS.items():
        params = draw(rng)
        runs.append(_op(f"{name}-all", "run", name, params, out,
                        ["--suite", "all", "--jobs", "2"]))
        x1 = _SECOND_COORD.get(name, "x")
        c1, c2, c3 = rng.uniform(0.1, 0.4), rng.uniform(0.02, 0.1), rng.uniform(0.05, 0.2)
        phi = f"{c1:.4f}*t + {c2:.4f}*t*{x1} + {c3:.4f}*sin(t)"
        gauges.append(_op(f"{name}-gauge", "gauge", name, params, out,
                          ["--phi", phi, "--jobs", "2"]))
    return runs + gauges


def _fd_crosscheck(rng, out_dir):
    out = out_dir / "report.json"
    fd = ["--suite", "all", "--diff", "fd"]
    return [
        _op("rn-all-fd", "run", "reissner-nordstrom",
            _CATALOG_PARAMS["reissner-nordstrom"](rng), out, fd),
        _op("charge-ball-all-fd", "run", "charge-ball",
            _CATALOG_PARAMS["charge-ball"](rng), out, fd),
    ]


def catalog_sweep(rng, out_dir):
    """The default session, the fd cross-check and the dense grids, in that order."""
    return _session(rng, out_dir) + _fd_crosscheck(rng, out_dir) + _dense_grid(rng, out_dir)


WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "worldline": _worldlines,
}


def generate(workload, seed, out_dir):
    """The ordered operations of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, Path(out_dir))


def passes_for(workload, n_ops, seconds):
    """Whole passes per run: about ``seconds`` at baseline, and enough
    verdicts that a tail percentile with TAIL_BEYOND beyond it exists."""
    need = math.ceil((TAIL_BEYOND + 1) / n_ops)
    return max(need, round(seconds / NOMINAL_PASS_S[workload]))


# -- oracle ---------------------------------------------------------------------


@dataclass
class Outcome:
    """Result of judging one operation against its known answer.

    ``status`` is "ok", "error" (raised, exit 2, or no output) or "wrong"
    (a verdict contradicting the known answer).
    """

    status: str
    note: str = ""
    points: int = 0  # distinct pointwise points a report delivered
    steps: int = 0  # accepted integrator steps a worldline delivered


def judge(op, rc, stdout, exc):
    """Compare one finished invocation with the answer the input implies."""
    if exc is not None:
        return Outcome("error", f"{type(exc).__name__}: {exc}")
    if rc not in (0, 1):
        return Outcome("error", f"exit status {rc}")
    try:
        if op.expect == "orbit":
            return _judge_worldline(op, rc, stdout)
        return _judge_report(op, rc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return Outcome("error", f"unreadable output: {type(err).__name__}: {err}")


def _judge_report(op, rc):
    with open(op.out, encoding="utf-8") as fh:
        report = json.load(fh)
    checks = report["checks"]
    if not checks:
        return Outcome("wrong", "report has no checks")
    failing = [c["id"] for c in checks if not c["pass"]]
    gating_failing = [c["id"] for c in checks if c["tolerance"] is not None and not c["pass"]]
    points = max((c["grid_points"] for c in checks if c["id"] not in _STATE_COUNT_CHECKS),
                 default=0)
    if op.expect == "pass":
        if rc != 0 or failing:
            return Outcome("wrong", f"exit {rc}, failing {failing}", points)
    elif op.expect == "fail-einstein":
        if rc != 1 or failing != ["einstein.residual"] or gating_failing != failing:
            return Outcome("wrong", f"exit {rc}, failing {failing}", points)
    else:
        raise ValueError(f"unknown expectation {op.expect!r}")
    if any(c["grid_points"] < 1 for c in checks):
        return Outcome("wrong", "a check covered no points", points)
    return Outcome("ok", points=points)


def _judge_worldline(op, rc, stdout):
    summary = json.loads(stdout.strip().splitlines()[-1])
    steps = int(summary["steps_taken"])
    problems = []
    if rc != 0 or summary["domain_exit"]:
        problems.append(f"exit {rc}, domain_exit {summary['domain_exit']}")
    if not summary["max_norm_drift"] <= NORM_DRIFT_BOUND:
        problems.append(f"max_norm_drift {summary['max_norm_drift']:.3e}")
    if op.oracle is not None:
        oracle = summary.get("oracle") or {}
        if oracle.get("name") != op.oracle or not oracle["max_error"] <= CLOSED_FORM_BOUND:
            problems.append(f"oracle {oracle}")
    if op.radius is not None:
        with open(op.out, encoding="utf-8", newline="") as fh:
            drift = max(abs(float(row["x1"]) - op.radius) for row in csv.DictReader(fh))
        if not drift <= CLOSED_FORM_BOUND:
            problems.append(f"radius drift {drift:.3e}")
    if problems:
        return Outcome("wrong", "; ".join(problems), steps=steps)
    return Outcome("ok", steps=steps)
