"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 perfbench/selftest.py

* **failure accounting** - ``fault_plans`` ops on the ``greedy-eater``
  mutant, through the benchmark's own op path, must all count as failed;
* **determinism** - one seed gives identical inputs (graph edges, plan
  JSON), another seed different ones, and on both kernel workloads the
  exact counts repeat across two runs of one seed;
* **traced run** - every patched entry point is the original object again
  afterwards, per-layer self times sum to the traced wall time, and the
  tracing-overhead line is printed.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from tracing import _MISSING, Tracer  # noqa: E402

EXACT_KEYS = ("sim.events", "network.sends", "dining_msgs_per_meal", "response_vt_p90")


def check(condition: bool, message: str, failures: list) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def test_greedy_eater_fails(failures: list) -> None:
    print("failure accounting: fault_plans on the greedy-eater mutant")
    out = w.run_fault_plans(3, 0.0, min_ops=6, repeats=1, mutant="greedy-eater")
    check(out.attempted == 6 and out.failed == out.attempted,
          f"{out.failed}/{out.attempted} mutant ops counted as failed", failures)


def test_determinism(failures: list) -> None:
    print("determinism")
    graph = lambda seed: w.topologies.random_geometric(  # noqa: E731
        w.KERNEL_N, seed=w.kernel_inputs(seed)["graph_seeds"][0]
    ).edges
    check(graph(5) == graph(5), "same seed, same kernel graph edges", failures)
    check(graph(5) != graph(6), "other seed, other kernel graph edges", failures)
    plans = lambda seed: [p.to_json() for p in w.plan_family(seed)]  # noqa: E731
    check(plans(5) == plans(5), "same seed, same plan JSON", failures)
    check(plans(5) != plans(6), "other seed, other plan JSON", failures)
    check(w.live_inputs(5) == w.live_inputs(5) != w.live_inputs(6),
          "live inputs follow the seed", failures)
    for name, workload in (("kernel_geometric", w.run_kernel_geometric),
                           ("fault_plans", w.run_fault_plans)):
        first, second = (workload(5, 0.0, repeats=1).exact for _ in range(2))
        same = all(first[key] == second[key] for key in EXACT_KEYS)
        check(same, f"{name}: {', '.join(f'{k}={first[k]:.6g}' for k in EXACT_KEYS)} "
                    "repeat exactly", failures)


def test_traced_run(failures: list) -> None:
    print("traced run")
    probe = Tracer()
    layers.instrument(probe)
    targets = list(probe._patches)
    probe.restore()
    for name in run.NAMES:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            out, metrics = run.traced(name, 2, 2.0)
        restored = all(vars(owner).get(attr, _MISSING) is own for owner, attr, own in targets)
        check(restored, f"{name}: all {len(targets)} patched entry points restored", failures)
        wall = metrics["trace.wall_s"][0]
        total = metrics["trace.self_sum_s"][0]
        check(abs(total - wall) <= 1e-6 * wall,
              f"{name}: self times sum {total:.6f} s = traced wall {wall:.6f} s", failures)
        check("tracing overhead:" in captured.getvalue(),
              f"{name}: overhead line printed", failures)
        check(out.failed == 0, f"{name}: traced run has no failed ops", failures)


def main() -> int:
    failures: list = []
    os.chdir(ROOT)
    w.warm_imports()
    test_greedy_eater_fails(failures)
    test_determinism(failures)
    test_traced_run(failures)
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
