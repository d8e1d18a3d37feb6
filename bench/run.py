"""solvrad benchmark: time `solvrad.cli.cmd_suite` on generated suite configs.

Run from the root of a solvrad checkout:

    python3 bench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Each repetition is a fresh interpreter (bench/worker.py), so module-level
caches never carry over, just as for a real `solvrad` invocation.  The load
is one process at a time, one thread: a closed loop of back-to-back
repetitions until --seconds have passed (at least one repetition).

--trace 0 reports the end-to-end metrics, each the median over the
repetitions, with times in seconds of the reference host (see
at_reference_speed).  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics from the traced ones (counts from the first,
times as medians), plus the tracing overhead and a per-call microbenchmark
of the permutation primitives.

Every entry of every repetition is checked: exit code 0 (the program's own
criterion-vs-oracle check held), the relabelling-invariant facts in
bench/expected.json, and a report identical, apart from timing_ms, to the
same entry of the run's first repetition.  The last line of stdout is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import timeit

from tracer import layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"
RUN_LIMIT_S = 170  # a whole run must end well inside 180 s

END_TO_END = ("run_s", "cpu_s", "peak_rss_mb", "setup_s")
# worker.host_reference_ms() on the reference host running at full speed
REF_MS = 60.0


def run_worker(args, k: int, trace: bool, started: float) -> dict | None:
    """One repetition; None if the worker did not finish cleanly."""
    spans = os.path.join(WORK, f"spans-{k}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--inputs", os.path.join(WORK, "inputs"),
        "--expected", os.path.join(HERE, "expected.json"),
        "--trace", "1" if trace else "0",
        "--spans", spans,
        "--spawned-at",
    ]
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(
            cmd + [repr(time.monotonic())],
            capture_output=True, text=True, timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        print(f"repetition {k}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repetition {k}: exit {proc.returncode}\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in result.get("problems", []):
        print(f"repetition {k}: {problem}", file=sys.stderr)
    if trace:
        with open(spans) as f:
            result["layers"] = layer_metrics(json.load(f))
        os.remove(spans)
    return result


def at_reference_speed(r: dict) -> dict:
    """A repetition's end-to-end metrics, each time scaled by REF_MS over the
    host reference loop timed next to it in the same process.

    On a shared 2-vCPU host the speed drifts by up to 2x over minutes, and
    the program and the reference loop slow down together (their times
    correlate at 0.8-0.9 per repetition), so the scaled times measure the
    program rather than the host.  run_s and cpu_s use the mean of the loops just before and just
    after the cmd_suite call; setup_s, which ends just before the first
    loop, uses that one."""
    around = (r["host_ref_before_ms"] + r["host_ref_after_ms"]) / 2
    return {
        "run_s": r["run_s"] * REF_MS / around,
        "cpu_s": r["cpu_s"] * REF_MS / around,
        "peak_rss_mb": r["peak_rss_mb"],
        "setup_s": r["setup_s"] * REF_MS / r["host_ref_before_ms"],
    }


def layer_values(m: dict) -> dict:
    """The per-layer metrics of one traced repetition."""
    names, layers, counters = m["names"], m["layers"], m["counters"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    builds = calls("bsgs.Bsgs.__init__")
    distinct = counters.get("distinct_gensets", 0)
    return {
        "bsgs.classes_s": total("bsgs.conjugacy_classes"),
        "bsgs.classes_calls": calls("bsgs.conjugacy_classes"),
        "bsgs.classes_elems": counters.get("classes_elems", 0),
        "bsgs.centralizer_s": total("bsgs.centralizer"),
        "bsgs.centralizer_calls": calls("bsgs.centralizer"),
        "bsgs.centralizer_orbit_elems": counters.get("centralizer_orbit_elems", 0),
        "bsgs.subgroup_builds": builds,
        "bsgs.subgroup_build_s": total("bsgs.Bsgs.__init__"),
        "bsgs.normal_closure_s": total("bsgs.normal_closure"),
        "bsgs.normal_closure_calls": calls("bsgs.normal_closure"),
        "bsgs.distinct_gensets": distinct,
        "bsgs.distinct_genset_ratio": distinct / builds if builds else 0.0,
        "bsgs.random_element_s": total("bsgs.random_element"),
        "bsgs.random_element_calls": calls("bsgs.random_element"),
        "structure.self_s": layer("structure", "self_s"),
        "structure.is_solvable_calls": calls("structure.is_solvable"),
        "structure.is_nilpotent_calls": calls("structure.is_nilpotent"),
        "structure.oracle_s": total("structure.solvable_radical_oracle")
        + total("structure.fitting_oracle"),
        "criteria.self_s": layer("criteria", "self_s"),
        "criteria.scan_calls": layer("criteria", "calls"),
        "cli.self_s": layer("cli", "self_s"),
        "cli.calls": layer("cli", "calls"),
        "zoo.build_s": layer("zoo", "outer_s"),
        "zoo.calls": layer("zoo", "calls"),
    }


def microbench() -> dict:
    """Per-call times of the permutation primitives at degree 65, which are
    too hot to wrap: median of five timings of 20,000 calls each."""
    from solvrad.perm import _inv, _mul

    rng = random.Random(65)
    p, q = list(range(65)), list(range(65))
    rng.shuffle(p)
    rng.shuffle(q)
    env = {"_mul": _mul, "_inv": _inv, "p": tuple(p), "q": tuple(q)}
    out = {}
    for name, stmt in (("perm.mul_us", "_mul(p, q)"), ("perm.inv_us", "_inv(p)")):
        times = timeit.Timer(stmt, globals=env).repeat(repeat=5, number=20_000)
        out[name] = statistics.median(times) / 20_000 * 1e6
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    if not os.path.isfile(os.path.join("src", "solvrad", "cli.py")):
        print("run from the root of a solvrad checkout: src/solvrad is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    started = time.monotonic()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        micro = microbench() if args.trace else {}
        reps: list[tuple[bool, dict | None]] = []
        # a traced run needs at least one untraced and one traced repetition
        minimum = 2 if args.trace else 1
        last = 0.0
        # start a repetition only if it would likely end less than half a
        # repetition past --seconds, so runs last about --seconds on average
        while len(reps) < minimum or time.monotonic() - started + last / 2 <= args.seconds:
            traced = bool(args.trace) and len(reps) % 2 == 1
            t0 = time.monotonic()
            reps.append((traced, run_worker(args, len(reps), traced, started)))
            last = time.monotonic() - t0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    with open(os.path.join(HERE, "expected.json")) as f:
        n_entries = len(json.load(f)[args.workload])
    attempted = failed = 0
    reference: list | None = None
    for _, r in reps:
        attempted += n_entries
        if r is None:
            failed += n_entries
            continue
        reference = reference or [c["digest"] for c in r["entries"]]
        for c, ref in zip(r["entries"], reference):
            failed += not c["ok"] or c["digest"] != ref

    plain = [r for traced, r in reps if r is not None and not traced]
    traced_reps = [r for traced, r in reps if r is not None and traced]
    # each traced repetition with the untraced one just before it
    pairs = [
        (reps[i][1], reps[i + 1][1]) for i in range(0, len(reps) - 1, 2)
        if reps[i][1] is not None and reps[i + 1][1] is not None
    ]
    if not plain or (args.trace and not pairs):
        print("no repetition finished; no metrics to report", file=sys.stderr)
        return 1

    def median(key, rows=plain):
        return statistics.median(r[key] for r in rows)

    host_ms = [
        r[k] for r in plain + traced_reps
        for k in ("host_ref_before_ms", "host_ref_after_ms")
    ]

    if args.trace:
        per_rep = [layer_values(r["layers"]) for r in traced_reps]
        metrics = {}
        for name in per_rep[0]:
            if units[name] == "s":
                metrics[name] = statistics.median(v[name] for v in per_rep)
            else:
                metrics[name] = per_rep[0][name]
                if any(v[name] != per_rep[0][name] for v in per_rep):
                    print(f"{name} differs between traced repetitions: "
                          f"{[v[name] for v in per_rep]}", file=sys.stderr)
        metrics.update(micro)
        # a ratio within each adjacent pair cancels the host's drift over the run
        metrics["trace.overhead_frac"] = statistics.median(
            at_reference_speed(t)["run_s"] / at_reference_speed(u)["run_s"]
            for u, t in pairs
        ) - 1
        metrics["host.ref_ms"] = statistics.median(host_ms)
    else:
        scaled = [at_reference_speed(r) for r in plain]
        metrics = {
            name: statistics.median(s[name] for s in scaled) for name in END_TO_END
        }
    if set(metrics) != set(units):
        print(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions "
          f"({len(plain)} untraced, {len(traced_reps)} traced)")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(f"  {'failed_frac':32s} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} entries)")
    if not args.trace:
        print(f"  {'host.ref_ms':32s} {statistics.median(host_ms):14.6f} ms "
              f"(reference host: {REF_MS} ms)")
        for name in ("run_s", "cpu_s", "setup_s"):
            print(f"  {'wall.' + name:32s} {median(name):14.6f} s (as measured)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
