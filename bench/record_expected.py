"""Regenerate bench/expected.json, the facts the correctness gate checks.

Run from the root of a solvrad checkout after changing a workload:

    python3 bench/record_expected.py

Each workload runs in-process at seed 0 and at two relabelling seeds.  The
file is written only if every entry exits 0 and the facts agree across the
seeds, i.e. they really are invariant under relabelling.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402
from solvrad.cli import cmd_suite  # noqa: E402

WORK = ".bench_work"


def main() -> int:
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            per_seed = []
            for seed in (0, 1, 2):
                config = workloads.write_config(workload, seed, WORK)
                _, report = cmd_suite(config)
                entries = report.details["entries"]
                bad = [i for i, e in enumerate(entries) if e["exit_code"] != 0]
                if bad:
                    print(f"{workload} seed {seed}: entries {bad} did not exit 0")
                    return 1
                per_seed.append([workloads.facts(e) for e in entries])
            if any(f != per_seed[0] for f in per_seed):
                print(f"{workload}: facts differ between seeds")
                return 1
            expected[workload] = per_seed[0]
            print(f"{workload}: {len(per_seed[0])} entries")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
