"""Run one benchmark workload (or all three) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernel_geometric --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the unmodified program and reports the end-to-end
metrics; ``--trace 1`` runs half the budget untraced and half with every
layer wrapped, and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs each workload in its own interpreter.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("kernel_geometric", "fault_plans", "live_unix")

#: End-to-end metrics and units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("meals_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("dining_msgs_per_meal", "1"),
    ("response_vt_p90", "vt"),
)

#: Ops per half of a traced run: enough for a steady overhead median.
TRACE_MIN_OPS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def untraced(name: str, seed: int, seconds: float):
    from workloads import WORKLOADS, peak_rss_mb

    out = WORKLOADS[name](seed, seconds)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out, {metric: (out.metrics[metric], unit) for metric, unit in END_TO_END}


def traced(name: str, seed: int, seconds: float):
    import layers
    from tracing import Tracer
    from workloads import RUN_DIR, WORKLOADS, p50

    run = WORKLOADS[name]
    half = seconds / 2.0
    plain = run(seed, half, min_ops=TRACE_MIN_OPS, repeats=1)
    tracer = Tracer()
    state = layers.instrument(tracer)
    cpu = time.process_time()
    extra = {"lags": state["lags"]} if name == "live_unix" else {}
    try:
        out = tracer.span("bench", run, seed, half, min_ops=TRACE_MIN_OPS, repeats=1, **extra)
    finally:
        tracer.restore()
    cpu = time.process_time() - cpu
    wall = tracer.total_s["bench"]
    overhead = p50(out.op_s) / p50(plain.op_s)
    values = layers.per_layer_metrics(
        tracer, state, wall=wall, cpu=cpu, meals=out.meals_total, overhead=overhead
    )
    os.makedirs(RUN_DIR, exist_ok=True)
    dump = os.path.join(RUN_DIR, f"spans-{name}-{seed}.jsonl")
    tracer.dump(dump)
    props = sorted(
        (key for key in values if key.startswith("checks.prop.")),
        key=lambda key: -values[key],
    )
    print(f"  top check properties: "
          + ", ".join(f"{key[len('checks.prop.'):-2]} {values[key]:.4f}s" for key in props[:5]))
    print(f"  tracing overhead: op p50 {p50(out.op_s) * 1e3:.3f} ms traced vs "
          f"{p50(plain.op_s) * 1e3:.3f} ms untraced ({(overhead - 1.0) * 100:+.1f}%)")
    print(f"  self times sum to {values['trace.self_sum_s']:.6f} s of "
          f"{wall:.6f} s traced wall; {tracer.span_total} spans, dump {dump}")
    out.attempted += plain.attempted
    out.failed += plain.failed
    out.notes.extend(plain.notes)
    return out, {metric: (values[metric], unit) for metric, unit in layers.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run it from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import p50, p90, warm_imports

    warm_imports()
    measure = traced if args.trace else untraced
    out, metrics = measure(args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{out.attempted} ops attempted, {out.failed} failed")
    for note in out.notes:
        print(f"  ! {note}")
    if out.raw_op_s:
        print(f"  uncalibrated op wall time: p50 {p50(out.raw_op_s) * 1e3:.3f} ms, "
              f"p90 {p90(out.raw_op_s) * 1e3:.3f} ms over {len(out.raw_op_s)} ops; "
              f"calibration pass p50 {p50(out.op_speed) * 1e3:.3f} ms")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {unit}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
