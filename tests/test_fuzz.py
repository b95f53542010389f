"""The exit-code contract of the command line, fuzzed: random definition
files, smooth perturbations of Minkowski space and of the Schwarzschild
components on grids of at most 8 points, through random ``run``, ``gauge``
and ``worldline`` commands in dual and fd mode.

Exit 3 (a defect) never happens; exit 2 comes with an ``error:`` line on
stderr; exit 0 means every report row has a finite ``max_residual`` (for a
worldline, every saved state is finite).  A few draws take a wild value
one time in eight (extreme constants, a large perturbation, a grid outside
the domain, a start off the grid), so that the load and input errors are
reached too; about three cases in four load."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rcgeom.cli import main
from rcgeom.harness import SUITES

CHARTS = {
    "minkowski": ("t", "x", "y", "z"),
    "schwarzschild": ("t", "r", "theta", "phi"),
}
BASES = {
    "minkowski": {(0, 0): "1", (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"},
    "schwarzschild": {(0, 0): "1 - 2*M/r", (1, 1): "-1/(1 - 2*M/r)", (2, 2): "-r^2",
                      (3, 3): "-r^2*sin(theta)^2"},
}
DOMAINS = {"minkowski": None, "schwarzschild": "(r - 2*M) * sin(theta)"}
# each axis: the box the grid and the start are drawn from
BOXES = {
    "minkowski": ((-0.5, 0.5),) * 4,
    "schwarzschild": ((0.0, 1.0), (3.0, 10.0), (0.3, math.pi - 0.3), (0.0, 2.0 * math.pi)),
}
# smooth bounded terms over the chart, {0}..{3} the coordinate names
TERMS = ["sin({1})", "cos({2} + {0})", "exp(-{3}^2)", "tanh({1} - {2})", "{0}*{3}",
         "sin({1})*cos({2})", "1/(2 + cos({3}))", "sqrt(1 + {1}^2)", "{2}^2", "log(2 + sin({0}))"]
SPHERICAL_TERMS = ["1/{1}", "exp(-{1}/10)", "sin({2})^2", "cos({3})", "{0}/{1}"]

coefficient = st.floats(-0.1, 0.1).map(lambda v: round(v, 4))
wild = st.integers(0, 7).map(lambda n: n == 0)  # one case in eight


@st.composite
def terms(draw, base):
    names = CHARTS[base]
    pool = TERMS + (SPHERICAL_TERMS if base == "schwarzschild" else [])
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    return " + ".join(f"{draw(coefficient)}*{term.format(*names)}" for term in picked)


@st.composite
def definitions(draw):
    """A definition file's text, its base and its grid axes."""
    base = draw(st.sampled_from(sorted(CHARTS)))
    names = CHARTS[base]
    lines = ["name = fuzzed", f"coords = {', '.join(names)}"]
    if base == "schwarzschild":
        lines.append(f"param M = {draw(st.floats(0.1, 1.2)):.4g}")
    if draw(wild):
        lines += [f"G = {draw(st.sampled_from([1e-200, 1e-5, 7.0, 1e200]))!r}",
                  f"c = {draw(st.sampled_from([1e-100, 0.3, 3.0, 1e100]))!r}"]
    scale = 40.0 if draw(wild) else 1.0
    metric = dict(BASES[base])
    for i, j in draw(st.lists(st.sampled_from([(i, j) for i in range(4) for j in range(i, 4)]),
                              max_size=3, unique=True)):
        metric[i, j] = f"{metric.get((i, j), '0')} + {scale}*({draw(terms(base))})"
    lines += [f'g[{i}][{j}] = "{src}"' for (i, j), src in sorted(metric.items())]
    for n in draw(st.lists(st.integers(0, 3), max_size=3, unique=True)):
        lines.append(f'A[{n}] = "{draw(terms(base))}"')
    if DOMAINS[base] is not None:
        lines.append(f'domain = "{DOMAINS[base]}"')
    counts = draw(st.sampled_from([(1, 1, 1, 1), (1, 2, 1, 1), (1, 2, 2, 1), (2, 2, 2, 1),
                                   (1, 2, 2, 2), (1, 8, 1, 1), (1, 4, 2, 1)]))
    axes = []
    for name, (lo, hi), n in zip(names, BOXES[base], draw(st.permutations(counts))):
        a = draw(st.floats(lo, hi))
        b = draw(st.floats(lo, hi)) if n > 1 else a
        if draw(wild):
            a -= 4.0
        axes.append(np.linspace(a, b, n))
        lines.append(f"grid.{name} = {a!r}:{b!r}:{n}")
    return "\n".join(lines) + "\n", base, axes


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


@st.composite
def commands(draw, base, axes):
    """argv after ``--spacetime <file>``, without ``--out``, and its kind."""
    kind = draw(st.sampled_from(["run", "run", "gauge", "worldline", "worldline"]))
    diff = ["--diff", draw(st.sampled_from(["dual", "fd"]))]
    # a value that may start with "-" is written "--opt value" or "--opt=value"
    joined = draw(st.booleans())

    def option(name, value):
        return [f"{name}={value}"] if joined else [name, value]

    if kind == "run":
        return kind, ["--suite", draw(st.sampled_from(SUITES)), *diff]
    if kind == "gauge":
        phis = draw(st.lists(terms(base), min_size=1, max_size=2))
        return kind, [*diff, *(token for phi in phis for token in option("--phi", phi))]
    x0 = [draw(st.sampled_from(list(axis))) for axis in axes]
    if draw(wild):
        x0[1] = draw(st.sampled_from([0.0, 1.9, -3.0, 1e300]))
    # timelike at every start: the Schwarzschild chart's g_rr is below -1
    # and its angular components below -9
    v0 = [1.0, *(draw(st.floats(-0.3, 0.3)) * (0.1 if base == "schwarzschild" else 1.0)
                 for _ in range(3))]
    method = draw(st.sampled_from(["rk4", "rk45-adaptive"]))
    argv = [*option("--x0", _csv(x0)), *option("--v0", _csv(v0)), "--method", method, *diff,
            # argparse also takes a unique prefix of an option
            *option(draw(st.sampled_from(["--charge-ratio", "--charge"])),
                    repr(draw(st.floats(-1.0, 1.0)))),
            "--ds", repr(draw(st.sampled_from([0.01, 0.05, 0.2]))),
            "--steps", str(draw(st.integers(1, 12)))]
    if method == "rk4" and draw(st.booleans()):
        argv += ["--renormalize-every", str(draw(st.integers(1, 4)))]
    return kind, argv


@st.composite
def cases(draw):
    text, base, axes = draw(definitions())
    return text, *draw(commands(base, axes))


def _run(argv):
    """The exit status and stderr of ``verify`` with argv; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_random_definitions_keep_the_exit_code_contract(case):
    text, kind, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "fuzzed.spacetime", Path(tmp) / "out"
        spec.write_text(text)
        status, stderr = _run([kind, "--spacetime", str(spec), *argv, "--out", str(out)])
        context = f"{text}\n{kind} {' '.join(argv)}\nexit {status}\n{stderr}"
        assert status in (0, 1, 2), context
        if status == 2:
            assert any("error: " in line for line in stderr.splitlines()), context
        if status == 0 and kind == "worldline":
            rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            assert np.isfinite(rows).all(), context
        elif status == 0:
            residuals = [row["max_residual"] for row in json.loads(out.read_text())["checks"]]
            assert all(isinstance(r, (int, float)) and math.isfinite(r) for r in residuals), context
