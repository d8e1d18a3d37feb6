"""One timed repetition of a workload in a fresh interpreter.

Started by run.py from the root of a solvrad checkout.  It imports solvrad
from `src/`, writes the workload's inputs, times one `cmd_suite` call, checks
every entry, and prints one JSON line: setup_s, run_s, cpu_s, peak_rss_mb,
the host reference times just before and just after the call, and the
per-entry checks.  With --trace 1 the layer functions are wrapped first and
the spans are written to --spans.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def host_reference_ms() -> float:
    """A fixed stdlib-only loop; its time tracks how fast the host is running
    right now, independent of solvrad.  It allocates little, so it leaves
    the peak RSS alone."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(400_000):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
    return (time.perf_counter() - t0) * 1000.0


def trace_hooks() -> dict:
    """Counters recorded at the layer boundaries while tracing."""
    gensets: set = set()

    def classes(tracer, args, result):
        tracer.count("classes_elems", args[0].order)

    def centralizer(tracer, args, result):
        tracer.count("centralizer_orbit_elems", args[0].order // result.order)

    def build(tracer, args, result):
        key = frozenset(args[1].generators)
        if key not in gensets:
            gensets.add(key)
            tracer.count("distinct_gensets")

    return {
        "bsgs.conjugacy_classes": classes,
        "bsgs.centralizer": centralizer,
        "bsgs.Bsgs.__init__": build,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath("src"))
    import solvrad.cli
    import workloads

    config = workloads.write_config(args.workload, args.seed, args.inputs)
    setup_s = time.monotonic() - args.spawned_at

    host_before_ms = host_reference_ms()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(trace_hooks())

    c0 = time.process_time()
    t0 = time.perf_counter()
    _, report = solvrad.cli.cmd_suite(config)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host_after_ms = host_reference_ms()

    with open(args.expected) as f:
        expected = json.load(f)[args.workload]
    entries = report.details["entries"]

    # faults that void every entry of this repetition
    problems = []
    if not os.path.abspath(solvrad.cli.__file__).startswith(os.path.abspath("src")):
        problems.append(f"solvrad imported from {solvrad.cli.__file__}")
    if tracer is not None:
        tracer.dump(args.spans)
        problems += [f"unwrapped after patching: {n}" for n in tracer.unwrapped_left()]
    if len(entries) != len(expected):
        problems.append(f"{len(entries)} entries, expected {len(expected)}")

    void = bool(problems)
    checks = []
    for i, want in enumerate(expected):
        if i >= len(entries):
            checks.append({"ok": False, "digest": None})
            continue
        sub = entries[i]
        got = workloads.facts(sub)
        ok = not void and sub["exit_code"] == 0 and got == want
        if sub["exit_code"] != 0 or got != want:
            problems.append(
                f"entry {i}: exit {sub['exit_code']}, facts {got}, expected {want}"
            )
        text = json.dumps(workloads.without_timing(sub), sort_keys=True)
        checks.append({"ok": ok, "digest": hashlib.sha256(text.encode()).hexdigest()})

    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "host_ref_before_ms": host_before_ms,
        "host_ref_after_ms": host_after_ms,
        "entries": checks,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
