#!/usr/bin/env python3
"""Phase times of the conjugacy-class build, the orbit representatives
and the radical oracles.

For one group spec, runs the steps of `bsgs.conjugacy_classes` one by one,
then what a criterion scan asks of each class of more than one member (a
one-member class is its own only orbit representative), and prints the
best time of each phase over the repetitions:

    rows        the class table's rows: the transversal products' images
                of the row points P, and, as bytes when the degree is at
                most 256, then of the base points and each generator's
                points s^-1(b) (`_row_points`, `_table_rows`)
    sort        sorting the rows, which numbers the elements
    index       the base-image keys and the generators' conjugation actions
                on the numbers (`_Numbering`)
    walks       the class walks on the numbers, and the representatives,
                built from their rows, or from the transversals when P is
                not every point
    centralizers  C_G(rep) of every class, from its walk
    count       the number of C_G(rep)-orbits on every class, by Burnside's
                lemma where it applies, else by the completed walk
    first-k     the first k orbit representatives of every class, on a
                fresh stream
    all reps    every orbit representative of every class
    oracles     the Fitting and solvable-radical oracles on the classes,
                with the number of class normal closures they build

together with |P|, whether the rows are bytes or tuples, how many
elements the class build built as image arrays, and the peak RSS of the
process.  Each repetition builds the group afresh, so the oracles decide
the group's own verdicts anew.

With --element CYCLES it builds no class table and times instead, for the
one element g, `class_of(G, g)` and the centralizer C_G(g) read from that
class's walk, and their sum, best of the repetitions.  The element cap does
not apply there, since G is not enumerated.  Stdlib only; run from a
checkout:

    python3 scripts/class_phases.py 'file:sz8.json'
    python3 scripts/class_phases.py 'S(9)' --element-cap 400000 --repeat 2
    python3 scripts/class_phases.py 'A(10)' --element '(1,2,3,4,5,6,7)'
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
    _Numbering,
    _row_points,
    _sorted_rows,
    _table_rows,
    Bsgs,
    build_bsgs,
    centralizer,
    class_of,
)
from solvrad.perm import parse_cycles  # noqa: E402
from solvrad.structure import fitting_oracle, solvable_radical_oracle  # noqa: E402
from solvrad.zoo import construct  # noqa: E402

PHASES = (
    "rows", "sort", "index", "walks", "centralizers", "count", "first-k",
    "all reps", "oracles",
)


def one_run(group, k: int) -> dict:
    times = {}
    clock = time.perf_counter

    t = clock()
    points = _row_points(group)
    rows = _table_rows(group, points)
    times["rows"] = clock() - t

    t = clock()
    rows, order = _sorted_rows(rows, points, group.degree)
    times["sort"] = clock() - t

    t = clock()
    table = _Numbering(group, rows, points, order)
    times["index"] = clock() - t

    t = clock()
    cid = table.cid
    classes = [
        ConjugacyClass(table, table.walk(j), j)
        for j in range(len(cid)) if cid[j] < 0
    ]
    times["walks"] = clock() - t
    times["points"] = len(points)
    times["built"] = len(table.elements)
    times["codec"] = type(rows[0]).__name__
    tested = [c for c in classes if c.class_size > 1]

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

    t = clock()
    fitting_oracle(group, classes)
    solvable_radical_oracle(group, classes)
    times["oracles"] = clock() - t
    times["closures"] = sum(c._normal_closure is not None for c in classes)

    times["classes"] = len(classes)
    times["orbit reps"] = sum(counts)
    return times


def element_run(group, g) -> dict:
    clock = time.perf_counter
    t = clock()
    cls = class_of(group, g)
    times = {"class_of": clock() - t}
    t = clock()
    centralizer(group, g, cls)
    times["centralizer"] = clock() - t
    times["total"] = times["class_of"] + times["centralizer"]
    times["size"] = cls.class_size
    return times


def print_rss() -> None:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  {'peak RSS':13s} {rss:9.1f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spec")
    parser.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--first", type=int, default=21,
                        help="k of the first-k phase (default 21)")
    parser.add_argument("--element", metavar="CYCLES",
                        help="time class_of and the centralizer of this "
                        "element instead of the class build")
    args = parser.parse_args(argv)

    gens = construct(args.spec)
    group = build_bsgs(gens)
    if args.element is not None:
        g = parse_cycles(args.element, group.degree)
        if not group.contains(g):
            print(f"{args.element} is not a member of {args.spec}")
            return 4
        runs = [element_run(group, g) for _ in range(args.repeat)]
        print(f"{args.spec}: order {group.order}, the class of {args.element} has "
              f"{runs[0]['size']} members; best of {args.repeat}")
        for phase in ("class_of", "centralizer", "total"):
            print(f"  {phase:13s} {min(r[phase] for r in runs) * 1000:9.1f} ms")
        print_rss()
        return 0
    if group.order > args.element_cap:
        print(f"order {group.order} exceeds --element-cap {args.element_cap}")
        return 3
    runs = [one_run(Bsgs(gens), args.first) for _ in range(args.repeat)]
    print(f"{args.spec}: order {group.order}, {runs[0]['classes']} classes, "
          f"{runs[0]['orbit reps']} orbit representatives; "
          f"{runs[0]['points']} of {group.degree} row points as "
          f"{runs[0]['codec']}, "
          f"{runs[0]['built']} elements built by the class build; "
          f"best of {args.repeat}, first-k with k = {args.first}")
    for phase in PHASES:
        line = f"  {phase:13s} {min(r[phase] for r in runs) * 1000:9.1f} ms"
        if phase == "oracles":
            line += f", {runs[0]['closures']} class closures"
        print(line)
    print_rss()
    return 0


if __name__ == "__main__":
    sys.exit(main())
