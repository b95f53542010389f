"""rcgeom benchmark: time to a correct ``verify`` verdict, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  One caller in one process drives
``rcgeom.cli.main(argv)`` as a closed loop: it sends the next verdict only
after the previous one returned.  Every verdict is checked against the
answer its input implies (``workloads.judge``).

``--trace 0`` times whole passes of the workload and prints the end-to-end
metrics.  ``--trace 1`` runs one untraced pass and one traced pass, prints
the per-layer metrics of the traced pass and states the tracing overhead.
Human-readable lines start with ``#``; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record with the environment, every sample and (traced) every
span is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7

# A fresh interpreter imports rcgeom and builds (or parses) every model the
# workload uses, exactly as the CLI resolves them.
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from rcgeom.harness import resolve_model
for spec, params in json.loads(sys.argv[2]):
    resolve_model(spec, params)
print(repr(time.perf_counter() - t0))
"""

LIMITS = (
    "shared 2-core sandbox; timings only from time.perf_counter and getrusage on the "
    "benchmark's own processes; no system-wide tracing and no cache dropping"
)


def import_cli():
    """rcgeom.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        from rcgeom import cli
    except ImportError as err:
        sys.exit(f"error: cannot import rcgeom from {SRC}: {err}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: rcgeom was imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, op):
    """One verdict: (seconds from cli.main entry to return, exit status, stdout, exception)."""
    with contextlib.suppress(FileNotFoundError):
        op.out.unlink()
    stdout, exc, rc = io.StringIO(), None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
    except Exception as err:  # an exception escaping cli.main is a failed operation
        exc = err
    seconds = time.perf_counter() - t0
    return seconds, rc, stdout.getvalue(), exc


def run_passes(cli, ops, passes, tracer=None):
    samples = []
    for _ in range(passes):
        for op in ops:
            if tracer is not None:
                tracer.begin_verdict(len(samples))
            seconds, rc, stdout, exc = invoke(cli, op)
            if tracer is not None:
                tracer.end_verdict()
            outcome = workloads.judge(op, rc, stdout, exc)
            samples.append({"op": op.name, "seconds": seconds, "status": outcome.status,
                            "note": outcome.note, "points": outcome.points,
                            "steps": outcome.steps, "worldline": op.expect == "orbit"})
    return samples


def setup_seconds(ops):
    models = []
    for op in ops:
        if [op.spacetime, op.params] not in models:
            models.append([op.spacetime, op.params])
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(models)],
            capture_output=True, text=True, timeout=120, check=True, cwd=BENCH.parent)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return quantile(times, 0.5), times


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted average of all order statistics.  When the verdict mix has gaps
    (short gauge verdicts next to long suites), it is much steadier than the
    single order statistic at rank p*n.  Needs (n+1)p > 1."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 100_001)
    log_pdf = (a - 1.0) * np.log(t[1:-1]) + (b - 1.0) * np.log1p(-t[1:-1])
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it: (estimate, percentile)."""
    n = len(values)
    if n <= workloads.TAIL_BEYOND:
        raise ValueError(f"{n} verdicts leave no percentile with "
                         f"{workloads.TAIL_BEYOND} beyond it")
    p = (n - workloads.TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p


def summarize(samples):
    """End-to-end figures of a list of verdict samples."""
    seconds = [s["seconds"] for s in samples]
    total = sum(seconds)
    wl = [s for s in samples if s["worldline"]]
    wl_seconds = sum(s["seconds"] for s in wl)
    value, pct = tail(seconds)
    return {
        "verdicts": len(samples),
        "verdict_s_p50": quantile(seconds, 0.5),
        "verdict_s_tail": value,
        "tail_percentile": pct,
        "points_per_s": sum(s["points"] for s in samples) / total,
        "steps_per_s": sum(s["steps"] for s in wl) / wl_seconds if wl else None,
        "fail_ratio": sum(s["status"] != "ok" for s in samples) / len(samples),
    }


def environment(args, ops, passes):
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "ops": [{"name": op.name, "argv": list(op.argv)} for op in ops],
        "loop": "closed loop, one caller in one process",
        "limits": LIMITS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    ops = workloads.generate(args.workload, args.seed, OUT / f"{args.workload}-{args.seed}")
    ops[0].out.parent.mkdir(exist_ok=True)
    record = {}

    if args.trace:
        import tracer as tracing

        passes = 1
        plain = run_passes(cli, ops, 1)
        t = tracing.Tracer()
        with t.installed():
            traced = run_passes(cli, ops, 1, tracer=t)
        samples = plain + traced
        plain_s = sum(s["seconds"] for s in plain)
        traced_s = sum(s["seconds"] for s in traced)
        layer = t.metrics()
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
        record["trace"] = {
            "untraced_pass_s": plain_s,
            "traced_pass_s": traced_s,
            "overhead": traced_s / plain_s - 1.0,
            "attributed_s": sum(v for k, v in layer.items() if tracing.PER_LAYER[k] == "s"),
            "points": t.points,
            "counts": dict(t.totals()[1]),
            "spans": [dict(zip(("id", "parent", "verdict", "name", "start", "end"), sp))
                      for sp in t.spans()],
        }
        print(f"# traced pass {traced_s:.3f} s vs untraced {plain_s:.3f} s: "
              f"overhead {100.0 * record['trace']['overhead']:+.0f}%")
    else:
        passes = workloads.passes_for(args.workload, len(ops), args.seconds)
        setup_median, setup_all = setup_seconds(ops)
        samples = run_passes(cli, ops, passes)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures = summarize(samples)
        metrics = {
            "setup_s": {"value": setup_median, "unit": "s"},
            "verdict_s_p50": {"value": figures["verdict_s_p50"], "unit": "s"},
            "verdict_s_tail": {"value": figures["verdict_s_tail"], "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
        }
        record["end_to_end"] = {**figures, "setup_s_samples": setup_all}
        print(f"# {args.workload} seed {args.seed}: {passes} passes x {len(ops)} verdicts; "
              f"tail = p{figures['tail_percentile']:.1f} of {figures['verdicts']} verdicts")
        steps = figures["steps_per_s"]
        print(f"# points_per_s {figures['points_per_s']:.1f} points/s  "
              f"steps_per_s {'n/a' if steps is None else format(steps, '.1f')} steps/s  "
              f"fail_ratio {figures['fail_ratio']:.4f}")

    record["environment"] = environment(args, ops, passes)
    record["samples"] = samples
    record["metrics"] = metrics
    failed = sum(s["status"] != "ok" for s in samples)
    wrong = sum(s["status"] == "wrong" for s in samples)
    for s in samples:
        if s["status"] != "ok":
            print(f"# {s['status']}: {s['op']}: {s['note'][:160]}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    # "correct": no verdict contradicted its known answer.  Operations that
    # raised or exited with an error status are counted in "failed" only.
    print(json.dumps({"correct": wrong == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
