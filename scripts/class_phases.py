#!/usr/bin/env python3
"""Phase times of the conjugacy-class build and the orbit representatives.

For one group spec, runs the steps of `bsgs.conjugacy_classes` one by one,
then what a criterion scan asks of each nontrivial class, and prints the
best time of each phase over the repetitions:

    enumerate   the transversal products (`_enumerate_raw`)
    sort        sorting them, which numbers the elements
    index       the base-image index and the generators' conjugation
                actions on the numbers (`_Numbering`)
    walks       the class walks on the numbers
    centralizers  C_G(rep) of every class, from its walk
    count       the number of C_G(rep)-orbits on every class, by Burnside's
                lemma where it applies, else by the completed walk
    first-k     the first k orbit representatives of every class, on a
                fresh stream
    all reps    every orbit representative of every class

and the peak RSS of the process.  Stdlib only; run from a checkout:

    python3 scripts/class_phases.py 'file:sz8.json'
    python3 scripts/class_phases.py 'S(9)' --element-cap 400000 --repeat 2
"""

import argparse
import resource
import sys
import time
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from solvrad.bsgs import (  # noqa: E402
    DEFAULT_ELEMENT_CAP,
    ConjugacyClass,
    _enumerate_raw,
    _Numbering,
    build_bsgs,
)
from solvrad.zoo import construct  # noqa: E402

PHASES = (
    "enumerate", "sort", "index", "walks", "centralizers", "count", "first-k",
    "all reps",
)


def one_run(group, k: int) -> dict:
    times = {}
    clock = time.perf_counter

    t = clock()
    elements = _enumerate_raw(group)
    times["enumerate"] = clock() - t

    t = clock()
    elements.sort()
    times["sort"] = clock() - t

    t = clock()
    table = _Numbering(group, elements)
    times["index"] = clock() - t

    t = clock()
    cid = table.cid
    classes = [
        ConjugacyClass(table, table.walk(j), j)
        for j in range(len(cid)) if cid[j] < 0
    ]
    times["walks"] = clock() - t
    tested = [c for c in classes if not c.representative.is_identity()]

    t = clock()
    cents = [c.centralizer for c in tested]
    times["centralizers"] = clock() - t

    t = clock()
    counts = [c.orbit_reps_under(cz).count for c, cz in zip(tested, cents)]
    times["count"] = clock() - t

    t = clock()
    for c, cz in zip(tested, cents):
        list(islice(c.orbit_reps_under(cz), k))
    times["first-k"] = clock() - t

    t = clock()
    for c, cz in zip(tested, cents):
        list(c.orbit_reps_under(cz))
    times["all reps"] = clock() - t

    times["classes"] = len(classes)
    times["orbit reps"] = sum(counts)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spec")
    parser.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--first", type=int, default=21,
                        help="k of the first-k phase (default 21)")
    args = parser.parse_args(argv)

    group = build_bsgs(construct(args.spec))
    if group.order > args.element_cap:
        print(f"order {group.order} exceeds --element-cap {args.element_cap}")
        return 3
    runs = [one_run(group, args.first) for _ in range(args.repeat)]
    print(f"{args.spec}: order {group.order}, {runs[0]['classes']} classes, "
          f"{runs[0]['orbit reps']} orbit representatives; "
          f"best of {args.repeat}, first-k with k = {args.first}")
    for phase in PHASES:
        print(f"  {phase:13s} {min(r[phase] for r in runs) * 1000:9.1f} ms")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  {'peak RSS':13s} {rss:9.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
