"""Run the benchmark on every workload over a range of seeds and summarise.

Run from the root of a solvrad checkout:

    python3 bench/sweep.py --first-seed 0 --runs 10 --out bench/trajectory/NAME.json

For each workload it makes --runs end-to-end runs (--trace 0), one per seed,
then one traced run (--trace 1) on the first seed.  For every end-to-end
metric it records the median, the quartiles (statistics.quantiles, n=4) and
the spread (interquartile distance over the median), and checks the spread
against the metric's bound in BENCHMARK.json.  This is the before/after
measurement a performance change cites, and each file under
bench/trajectory/ is one point of the repository's trajectory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    summary = {
        "commit": commit,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for workload in names:
        results = []
        for seed in seeds:
            r = run(workload, seed, bench["run_seconds"], 0)
            results.append(r)
            print(workload, seed, r["failed"], "/", r["attempted"],
                  {k: round(v["value"], 4) for k, v in r["metrics"].items()},
                  flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        ok &= entry["failed"] == 0
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": values,
            }
            flag = "" if spread < bound / 3 else " (above a third of the bound)"
            if spread > bound:
                flag, ok = " (ABOVE THE BOUND)", False
            print(f"  {name:12s} median {med:10.4f} spread {spread:.4f} "
                  f"bound {bound}{flag}", flush=True)
        traced = run(workload, seeds[0], bench["run_seconds"], 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_failed"] = traced["failed"]
        ok &= traced["failed"] == 0
        summary["workloads"][workload] = entry

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
