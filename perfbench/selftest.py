#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py                 # run every check (~2 min)
    python3 perfbench/selftest.py --pin-digests   # re-pin digests.json

Checks that
  - every emitted metric name matches [A-Za-z0-9_.-]+, carries a unit, and
    the traced and untraced runs emit exactly the BENCHMARK.json metrics;
  - a clean run at the default seed is correct, and the traced run reproduces
    the untraced run's result digests;
  - the digest check fires on a perturbed input (experiment.faults changed);
  - a crash sweep with torture.break_recovery=true reports failed_frac > 0;
  - counting allocations leaves wall_s within its BENCHMARK.json bound of a
    build without the counter.

--pin-digests records the default-seed result digests of every workload in
digests.json. Only a change that is meant to alter simulated results should
re-pin them.
"""

import argparse
import json
import re
import statistics
import sys

import run as bench

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    return ok


def bench_spec():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def check_names(metrics, declared, what):
    names_ok = all(NAME_RE.match(n) and u for n, (_, u) in metrics.items())
    units = {m["name"]: m["unit"] for m in declared}
    same = {n: u for n, (_, u) in metrics.items()} == units
    return expect(names_ok and same, f"{what}: metric names and units match BENCHMARK.json")


def pin_digests():
    bench.build(["perfbench"])
    digests = {}
    for name in bench.WORKLOADS:
        run = bench.run_binary("perfbench", name, bench.DEFAULT_SEED, 1)
        p = run["passes"][0]
        if p["failed"]:
            print(f"{name}: {p['failed']} failed operation(s); not pinning", file=sys.stderr)
            return 1
        digests[name] = {"digest": p["digest"]}
        if "op_digests" in p:
            digests[name]["op_digests"] = p["op_digests"]
        print(f"{name}: {p['digest']}")
    bench.DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


def alloc_counter_cost(workload, bound, pairs=3):
    """Median wall_s with and without the allocation counter, alternating."""
    bench.build(["perfbench", "perfbench_nocount"])
    walls = {"perfbench": [], "perfbench_nocount": []}
    for i in range(pairs):
        order = ["perfbench", "perfbench_nocount"] if i % 2 == 0 else \
            ["perfbench_nocount", "perfbench"]
        for binary in order:
            run = bench.run_binary(binary, workload, bench.DEFAULT_SEED, 1)
            walls[binary].append(run["passes"][0]["wall_s"])
    counted = statistics.median(walls["perfbench"])
    plain = statistics.median(walls["perfbench_nocount"])
    return expect(counted <= plain * (1 + bound),
                  f"allocation counter: wall_s {counted:.3f} s vs {plain:.3f} s without "
                  f"(bound {bound:.0%})")


def selftest():
    spec = bench_spec()
    ok = True

    metrics, attempted, failed = bench.run_workload("crash_sweep", bench.DEFAULT_SEED, 2, False)
    ok &= expect(failed == 0 and attempted > 0, "crash_sweep clean at the default seed")
    ok &= check_names(metrics, spec["end_to_end"], "untraced run")

    metrics, attempted, failed = bench.run_workload("crash_sweep", 5, 5, True)
    ok &= expect(failed == 0, "traced crash_sweep reproduces the untraced digests")
    ok &= check_names(metrics, spec["per_layer"], "traced run")

    _, attempted, failed = bench.run_workload("iops_write", bench.DEFAULT_SEED, 1, False,
                                              ["experiment.faults=11"])
    ok &= expect(failed > 0, f"perturbed experiment.faults fails the digest check "
                             f"({failed}/{attempted} failed)")

    # A non-default seed has no pinned digest, so only the audit can fail it.
    _, attempted, failed = bench.run_workload("crash_sweep", 3, 2, False,
                                              ["torture.break_recovery=true"])
    ok &= expect(failed > 0, f"break_recovery sweep reports failed_frac > 0 "
                             f"({failed}/{attempted})")

    wall_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    ok &= alloc_counter_cost("crash_sweep", wall_bound)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pin-digests", action="store_true")
    args = ap.parse_args()
    sys.exit(pin_digests() if args.pin_digests else selftest())


if __name__ == "__main__":
    main()
