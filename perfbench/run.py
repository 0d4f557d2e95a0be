#!/usr/bin/env python3
"""End-to-end benchmark of the pofi simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (the simulator libraries from src/ plus the binaries in
perfbench/cpp/) into .bench_build/, runs one workload in a child process on
one runner thread, checks the simulated results and prints every metric by
name and unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
workload once untraced and once in the link-time traced binary and reports
the per-layer metrics. Seed 0 keeps the committed specs' own seeds, whose
result digests are pinned in perfbench/digests.json; any other seed re-derives
every entry's seed. perfbench/README.md records why each workload was chosen;
perfbench/selftest.py checks the checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0

# Each workload is one pass of work over `inputs` inputs, each input on its
# own seeds (see cpp/main.cpp), so the same --seed always runs the same
# inputs. A run repeats them in rounds for about --seconds, at least twice.
# Entry indices pick rows of the committed spec.
WORKLOADS = {
    "iops_write": {
        "spec": "specs/fig8_iops.json",
        "kind": "campaign",
        "inputs": 2,
        "entries": [0, 3, 6],  # 1.2k, 12k and 30k simulated IOPS
    },
    "crash_sweep": {
        "spec": "specs/torture_smoke.json",
        "kind": "torture",
        "inputs": 6,
        "sets": [
            # The committed specs all mount by journal replay alone; the
            # spare-area scan makes every remount run the FTL's power-on
            # recovery, so that layer is measured too.
            "drive.por_scan=true",
            "torture.requests=400",
            "torture.window_first=0",
            "torture.window_count=0",
            "torture.stride=16",
            "torture.shrink=false",
        ],
    },
}

# setup_s is the median over this many processes of their one cold set-up,
# the set-up pofi_run pays once per run.
SETUP_PROCESSES = 21
CHILD_TIMEOUT_S = 170

# Spans of the traced binary reported as "<layer>_s" (self time per pass)
# and, for the second list, "<layer>_calls".
SPAN_LAYERS = ["platform.shadow", "ssd.cache.power_lost", "ftl.committable_count",
               "sim.queue", "nand.op", "ftl.io", "blk.submit", "ssd.submit",
               "ftl.recover_por", "torture.crash_point", "torture.audit",
               "platform.construct", "platform.reset", "workload.next", "psu.power"]
CALL_LAYERS = ["platform.shadow", "ftl.committable_count", "sim.queue", "nand.op",
               "blk.submit", "ssd.submit"]
# Layers that only enclose others: their self time is not layer work.
CONTAINERS = {"runner.campaign", "torture.explore", "platform.run"}
# obs counters (ExperimentResult::metrics), summed over a pass's entries.
OBS_COUNTERS = ["ssd.cache.dirty_lost", "nand.ispp.started", "nand.ecc.corrected",
                "ftl.gc.invocations", "ftl.journal.flushes", "blk.timeouts"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(2)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to perfbench/")
    # Keep the compiler's temporary files inside the build tree too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=300, env=env)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr, timeout=1200, env=env)


def run_binary(binary, workload, seed, passes, extra=(), seconds=0):
    """Run `binary` on `passes` inputs (0: set-up only); returns its JSON.

    With `seconds` it repeats them in rounds for about that long; else once.
    """
    w = WORKLOADS[workload]
    spec = ROOT / w["spec"]
    if not spec.is_file():
        fail(f"workload spec {w['spec']} not found")
    cmd = [str(BUILD_DIR / binary), "--spec", str(spec), "--kind", w["kind"],
           "--seed", str(seed), "--passes", str(passes), "--seconds", str(seconds)]
    if "entries" in w:
        cmd += ["--entries", ",".join(str(i) for i in w["entries"])]
    for kv in w.get("sets", []):
        cmd += ["--set", kv]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"{binary} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def setup_times(workload, seed, extra=()):
    """Cold set-up and spec-load seconds of SETUP_PROCESSES set-up-only runs."""
    runs = [run_binary("perfbench", workload, seed, 0, extra) for _ in range(SETUP_PROCESSES)]
    return [r["setup_s"] for r in runs], [r["spec_load_s"] for r in runs]


def print_digests(workload, seed, runs):
    """One stdout line per pass, so two commits can be compared at any seed."""
    for label, run in runs.items():
        for p in run["passes"]:
            print(f"digest {workload} seed {seed} {label} pass {p['input']}: {p['digest']}")


def check_passes(workload, seed, runs):
    """Count failed operations over every pass of every binary run.

    An operation (campaign entry or crash point) fails when the binary reports
    it failed (non-success status, missing faults, audit violation) or when
    its result digest differs from the reference. At the default seed the
    reference is the digest pinned in digests.json; at other seeds it is the
    first pass of the first run on the same input (later rounds, and the
    traced run, must reproduce it bit for bit).
    """
    pinned = json.loads(DIGESTS.read_text())[workload] if seed == DEFAULT_SEED else None
    attempted = failed = 0
    for run in runs:
        for p in run["passes"]:
            k = p["input"]
            ref = pinned or runs[0]["passes"][k]
            attempted += p["ops"]
            bad = p["failed"]
            if p["digest"] != ref["digest"]:
                log(f"perfbench: {workload}: pass {k} result digest {p['digest']} "
                    f"!= expected {ref['digest']}")
                ref_ops = ref.get("op_digests")
                if ref_ops and len(ref_ops) == len(p.get("op_digests", [])):
                    bad = max(bad, sum(a != b for a, b in zip(ref_ops, p["op_digests"])))
                else:
                    bad = p["ops"]
            failed += min(bad, p["ops"])
    return attempted, failed


def med(values):
    return statistics.median(values)


def per_input(run, field):
    """Each input's least `field` over its passes (one per round), by input.

    An input does the same work in every round, so a slower round is the
    host's doing, not the program's: a neighbour's burst slows one round of
    an input and not, as a rule, the other.
    """
    best = {}
    for p in run["passes"]:
        k = p["input"]
        best[k] = min(best.get(k, p[field]), p[field])
    return [best[k] for k in sorted(best)]


def end_to_end(run, setup_s):
    # Inputs differ in their work, so a run reports its median input: the
    # least would pick the lightest input (see README, "Steadiness").
    walls = per_input(run, "wall_s")
    faults = per_input(run, "faults")
    return {
        "wall_s": (med(walls), "s"),
        "faults_per_s": (med(f / w for f, w in zip(faults, walls)), "1/s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        "setup_s": (med(setup_s), "s"),
    }


def per_layer(reference, traced, load_s):
    passes = traced["passes"]

    def span(p, name, field):
        return p["layers"].get(name, {}).get(field, 0)

    def counter(p, name):
        return p.get("counters", {}).get(name, 0)

    ref_wall = med(per_input(reference, "wall_s"))
    traced_wall = med(per_input(traced, "wall_s"))
    m = {}
    for layer in SPAN_LAYERS:
        m[layer + "_s"] = (med(span(p, layer, "self_s") for p in passes), "s")
    for layer in CALL_LAYERS:
        m[layer + "_calls"] = (med(span(p, layer, "calls") for p in passes), "count")
    for name in OBS_COUNTERS:
        m[name] = (med(counter(p, name) for p in passes), "count")
    events = med(p["events"] for p in passes)
    m["sim.events"] = (events, "count")
    m["sim.events_per_s"] = (events / ref_wall, "1/s")
    m["nand.write_amp"] = (med(p["nand_programs"] / max(p["host_pages_written"], 1)
                               for p in passes), "ratio")
    torture = [p for p in passes if "points_planned" in p]
    m["torture.points_injected"] = (med(p["faults"] for p in torture) if torture else 0, "count")
    m["torture.schedule_events"] = (med(p["schedule_events"] for p in torture) if torture else 0,
                                    "count")
    m["torture.injected_per_planned"] = (
        med(p["faults"] / max(p["points_planned"], 1) for p in torture) if torture else 0, "ratio")
    m["ftl.por.pages_scanned"] = (med(p["por_oob_reads"] for p in passes), "count")
    m["spec.load_s"] = (med(load_s), "s")
    m["runner.overhead_s"] = (med(p["runner_overhead_s"] for p in passes), "s")
    m["runner.attempts"] = (med(p["attempts"] for p in passes), "count")
    m["process.allocs_per_fault"] = (
        med(p["allocs"] / max(p["faults"], 1) for p in reference["passes"]), "count")
    m["trace.overhead_frac"] = (traced_wall / ref_wall - 1.0, "fraction")
    m["trace.unattributed_s"] = (
        med(p["wall_s"] - sum(v["self_s"] for k, v in p["layers"].items() if k not in CONTAINERS)
            for p in passes), "s")
    return m


def emit(metrics, attempted, failed, correct):
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'failed_frac':32s} {failed / max(attempted, 1):.6g} fraction")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(workload, seed, seconds, trace, overrides=()):
    """Run one workload; returns (metrics, attempted, failed).

    `overrides` are extra spec --set PATH=VALUE pairs (self-test only).
    """
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    if not trace:
        build(["perfbench"])
        setup_s, _ = setup_times(workload, seed, sets)
        run = run_binary("perfbench", workload, seed, WORKLOADS[workload]["inputs"], sets,
                         seconds)
        print_digests(workload, seed, {"untraced": run})
        attempted, failed = check_passes(workload, seed, [run])
        return end_to_end(run, setup_s), attempted, failed

    build(["perfbench", "perfbench_traced"])
    _, load_s = setup_times(workload, seed, sets)
    # One round each: the traced binary runs the reference's inputs again.
    passes = WORKLOADS[workload]["inputs"]
    reference = run_binary("perfbench", workload, seed, passes, sets + ["--metrics", "1"])
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    spans = TRACE_DIR / f"{workload}-seed{seed}.spans.jsonl"
    traced = run_binary("perfbench_traced", workload, seed, passes,
                        sets + ["--metrics", "1", "--spans", str(spans)])
    print_digests(workload, seed, {"untraced": reference, "traced": traced})
    attempted, failed = check_passes(workload, seed, [reference, traced])
    return per_layer(reference, traced, load_s), attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    metrics, attempted, failed = run_workload(args.workload, args.seed, args.seconds,
                                              args.trace == 1)
    emit(metrics, attempted, failed, failed == 0)


if __name__ == "__main__":
    main()
