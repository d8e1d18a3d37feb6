"""Conjugate-generation criteria for radical membership, with witnesses.

Each criterion asks whether subgroups generated by an element g together
with conjugates of g are all solvable (or nilpotent).  The universal
quantifier over conjugators collapses to representatives of the
centralizer orbits: <g, xgx^-1> depends only on h = xgx^-1, and replacing
h by a C_G(g)-conjugate replaces the generated subgroup by a conjugate,
so one representative per C_G(g)-orbit on the class of g decides the
whole orbit.  Representatives are visited in a canonical order
(lexicographic on image arrays), so verdicts and first-found witnesses
are reproducible; a reported witness is always the canonically smallest.

Solvability and nilpotency pass to subgroups, so every scan, exhaustive or
randomized, keeps a cover for the element g it scans: the passing subgroups
<g, h, ...> it has built so far.  A candidate tuple of conjugates that all
lie in one cover group passes without a build of its own, and the cover
remembers which conjugates each group contains, so no conjugate is sifted
through one group twice.  A tuple of powers of g generates the cyclic <g>
and passes without a build, and so does Thompson's identity class, whose
pairs <1, y> = <y> are cyclic.  Every skipped
candidate really passes, so the first failure in canonical order, its
witness and the logical counters are those of the unpruned scan.  A
randomized search still makes every RNG draw, in the same order, so its
samples, witnesses and counters are unchanged too.  The Thompson test uses
the same lemma as the others: <r, y> and <r, cyc^-1> are conjugate for c in
C_G(r), so its second element is reduced to C_G(r)-orbit representatives of
the sorted element list, the smallest member of each orbit.

Exhaustive mode may assert the universal claim; randomized mode can only
falsify it.  Exhaustive scans raise BudgetExceededError when the logical
space they report exceeds their tuple budget.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Optional

from .bsgs import (
    Bsgs,
    CapExceededError,
    ConjugacyClass,
    GeneratorSet,
    MembershipError,
    _OrbitReps,
    centralizer,
    class_of,
    conjugacy_classes,
    normal_closure,
    random_element,
)
from .perm import Permutation, _mul, is_prime
from .structure import (
    CRITERION,
    FITTING,
    SOLVABLE_RADICAL,
    RadicalResult,
    is_nilpotent,
    is_solvable,
)

EXHAUSTIVE = "exhaustive"
RANDOMIZED = "randomized"

DEFAULT_TUPLE_BUDGET = 10_000_000
DEFAULT_RANDOMIZED_BUDGET = 1000  # samples per element of a randomized search


class BudgetExceededError(RuntimeError):
    """The exhaustive search space is larger than the configured budget."""


def _budget_or_default(budget: Optional[int], mode: str) -> int:
    """`budget`, or when it is None the default of `mode`: a tuple budget
    for an exhaustive scan, a sample count for a randomized search."""
    if budget is not None:
        return budget
    return DEFAULT_RANDOMIZED_BUDGET if mode == RANDOMIZED else DEFAULT_TUPLE_BUDGET


@dataclass
class Witness:
    """Conjugators x (or a, b, c) such that g together with the listed
    conjugates of g generates a subgroup with the recorded properties."""

    conjugators: list[Permutation]
    generated_order: int
    solvable: bool
    nilpotent: bool


@dataclass
class CriterionVerdict:
    element: Permutation
    in_radical_claimed: bool
    witness: Optional[Witness]
    search_mode: str
    tuples_checked: int


@dataclass
class ElementProfile:
    element: Permutation
    order: int


@dataclass
class ClassPairVerdict:
    """Outcome of the per-class pair-solvability test for a whole group."""

    all_classes_pass: bool
    witness_element: Optional[Permutation]
    witness: Optional[Witness]
    pairs_checked: int


@dataclass
class ThompsonVerdict:
    """Outcome of the all-two-generated-subgroups-solvable test."""

    all_pairs_solvable: bool
    witness_pair: Optional[tuple]
    generated_order: Optional[int]
    pairs_checked: int


@dataclass
class SharpnessReport:
    triples_checked: int
    all_solvable: bool
    max_generated_order: int


def _span(group: Bsgs, raws) -> Bsgs:
    """The subgroup of `group` that the members `raws` generate; its build
    is bounded by the group's order."""
    return Bsgs(
        GeneratorSet(group.degree, [Permutation._from_raw(r) for r in raws]),
        group.order,
    )


def _require_member(group: Bsgs, g: Permutation) -> None:
    if not group.contains(g):
        raise MembershipError(f"{g!r} is not a member of the group")


def _require_prime_order_gt3(g: Permutation) -> int:
    n = g.order()
    if not (is_prime(n) and n > 3):
        raise ValueError(
            f"element order {n} violates the precondition: order must be "
            "prime and greater than 3"
        )
    return n


def reduced_conjugate_orbit(
    group: Bsgs,
    x: Permutation,
    class_of_x: ConjugacyClass,
    cent: Bsgs,
) -> list[Permutation]:
    """One representative per orbit of C_G(x) conjugating the class of x.

    The orbits partition the class; testing <x, h> for one h per orbit is
    equivalent to testing it for every h in the class.
    """
    els = class_of_x._table.elements
    return [Permutation._from_raw(els[j]) for j in class_of_x.orbit_reps_under(cent)]


def _conjugator_to(
    cls: ConjugacyClass, g: Permutation, h: Permutation
) -> Permutation:
    """Some x with x g x^-1 = h, for two members of the same class."""
    return cls.conjugator(h) * cls.conjugator(g).inverse()


def _scan_reps(group: Bsgs, g: Permutation, cls: ConjugacyClass) -> _OrbitReps:
    """The ascending C_G(g)-orbit representatives on `cls`, the class of g,
    as a lazy stream with a count: the class's own when g is its
    representative, else a new one under C_G(g)."""
    if g == cls.representative:
        return cls.orbit_reps
    return cls.orbit_reps_under(centralizer(group, g, cls))


def _singles(table, reps):
    """The 1-tuples (element,) of the numbered `reps`, read lazily."""
    els = table.elements
    return ((els[j],) for j in reps)


def _witness_for(sub: Bsgs, conjugators, solvable: bool = False) -> Witness:
    """Witness from a failing subgroup the scan already built; a subgroup
    that is not solvable, or not nilpotent, is not nilpotent."""
    return Witness(list(conjugators), sub.order, solvable, False)


def _check_budget(space: int, budget: int, what: str) -> None:
    if space > budget:
        raise BudgetExceededError(
            f"{space} {what} exceed the tuple budget {budget}"
        )


class _Cover:
    """The passing subgroups <g, h1, ..., hk> that one scan of g has built,
    and what is known of their members.

    Each distinct conjugate gets a bit, 1 << n, when it is first seen.  Each
    group keeps two masks over those bits: the conjugates it has been tested
    on, and those it contains.  So a conjugate is sifted through a group at
    most once; asked again, it costs a bit test.  A group contains the
    conjugates it was built from without a sift.

    Tuples of powers of g need no group: they generate <g>, which is
    cyclic, so solvable and nilpotent.  And every group contains g, so it
    contains the powers of g without a sift.
    """

    __slots__ = ("groups", "tested", "inside", "bits", "powers", "_g_powers")

    def __init__(self, g: tuple):
        self.groups: list[Bsgs] = []
        self.tested: list[int] = []
        self.inside: list[int] = []
        self.bits: dict[tuple, int] = {}  # conjugate -> its bit
        self.powers = 0  # the bits of the conjugates that are powers of g
        self._g_powers = {g}
        p = _mul(g, g)
        while p != g:
            self._g_powers.add(p)
            p = _mul(p, g)

    def bit(self, h: tuple) -> int:
        b = self.bits.get(h)
        if b is None:
            b = self.bits[h] = 1 << len(self.bits)
            if h in self._g_powers:
                self.powers |= b
        return b

    def cyclic(self, mask: int) -> bool:
        """Whether the conjugates of `mask` are all powers of g."""
        return not mask & ~self.powers

    def contains(self, k: int, h: tuple, b: int) -> bool:
        """Whether group k contains the conjugate h, whose bit is b."""
        if b & self.powers:
            return True
        if not self.tested[k] & b:
            self.tested[k] |= b
            if self.groups[k]._contains_raw(h):
                self.inside[k] |= b
        return bool(self.inside[k] & b)

    def covers(self, ks, hs: tuple, bs) -> bool:
        """Whether one of the groups ks contains all of hs, whose bits are bs."""
        # newest first: later cover groups tend to be the larger ones
        return any(
            all(self.contains(k, h, b) for h, b in zip(hs, bs))
            for k in reversed(ks)
        )

    def add(self, sub: Bsgs, mask: int) -> int:
        """Add a passing group built from the conjugates of `mask`; returns
        its index."""
        self.groups.append(sub)
        self.tested.append(mask)
        self.inside.append(mask)
        return len(self.groups) - 1


def _first_failure(
    group: Bsgs, g_raw: tuple, candidates, predicate
) -> Optional[tuple[int, tuple, Bsgs]]:
    """The first tuple of conjugates (h1, ..., hk) of `candidates`, in their
    order, whose <g, h1, ..., hk> fails the predicate, with its index and
    the subgroup built for it; None if every one passes.  `candidates` may
    be any iterable, and is consumed no further than the failing tuple.
    g and the conjugates are members of `group`, whose order bounds each
    build.

    The predicate must pass to subgroups (solvable, nilpotent) and hold on
    cyclic groups: a tuple of powers of g, or one inside an already built
    passing subgroup, passes without a build of its own.
    """
    cover = _Cover(g_raw)
    for i, hs in enumerate(candidates):
        bs = [cover.bit(h) for h in hs]
        mask = reduce(or_, bs, 0)
        if cover.cyclic(mask) or cover.covers(range(len(cover.groups)), hs, bs):
            continue
        sub = _span(group, [g_raw, *hs])
        if not predicate(sub):
            return i, hs, sub
        cover.add(sub, mask)
    return None


def _class_scan(
    group: Bsgs,
    g: Permutation,
    cls: ConjugacyClass,
    budget: int,
    nilpotent: bool = False,
) -> CriterionVerdict:
    """Exhaustive verdict on every <g, xgx^-1> being solvable (or
    nilpotent), over the C_G(g)-orbit representatives of the class of g."""
    reps = _scan_reps(group, g, cls)
    _check_budget(reps.count, budget, "orbit representatives")
    predicate = is_nilpotent if nilpotent else is_solvable
    failure = _first_failure(group, g._img, _singles(cls._table, reps), predicate)
    witness = None
    if failure is not None:
        _, (h,), sub = failure
        x = _conjugator_to(cls, g, Permutation._from_raw(h))
        # only a nilpotency failure can still be solvable
        witness = _witness_for(sub, [x], nilpotent and is_solvable(sub))
    return CriterionVerdict(
        element=g,
        in_radical_claimed=witness is None,
        witness=witness,
        search_mode=EXHAUSTIVE,
        tuples_checked=reps.count,
    )


def _random_search(
    group: Bsgs, g: Permutation, k: int, budget: int, rng_seed: int
) -> CriterionVerdict:
    """Randomized verdict: sample k conjugators at a time, up to `budget`
    samples, and report the first sample whose
    <g, x1 g x1^-1, ..., xk g xk^-1> is nonsolvable.

    The samples feed the scan kernel, so a sample whose conjugates lie in
    an already built solvable subgroup passes without a build.  Every
    sample is still drawn, in the same RNG order, and a failing sample is
    never covered, so the verdict, witness and `tuples_checked` are those
    of building every sample.
    """
    rng = random.Random(rng_seed)
    g_raw = g._img
    xs: list[Permutation] = []

    def conjugate(x: tuple) -> tuple:
        # x g x^-1 maps x[i] to x[g[i]]
        h = list(x)
        for i, xi in enumerate(x):
            h[xi] = x[g_raw[i]]
        return tuple(h)

    def samples():
        for _ in range(budget):
            xs[:] = [random_element(group, rng) for _ in range(k)]
            yield tuple(conjugate(x._img) for x in xs)

    failure = _first_failure(group, g_raw, samples(), is_solvable)
    if failure is None:
        return CriterionVerdict(g, True, None, RANDOMIZED, budget)
    # the kernel stops at the failing sample, so xs holds its conjugators
    i, _, sub = failure
    return CriterionVerdict(g, False, _witness_for(sub, xs), RANDOMIZED, i + 1)


def two_conjugate_test(
    group: Bsgs,
    g: Permutation,
    mode: str = EXHAUSTIVE,
    budget: Optional[int] = None,
    rng_seed: int = 0,
    class_of_g: Optional[ConjugacyClass] = None,
) -> CriterionVerdict:
    """Does every x in G give a solvable <g, xgx^-1>?

    Requires g to be a member of prime order > 3.  Exhaustive mode decides
    by scanning centralizer-orbit representatives of the class of g, at
    most `budget` of them (default DEFAULT_TUPLE_BUDGET); randomized mode
    samples `budget` x (default DEFAULT_RANDOMIZED_BUDGET) and can only
    report a witness.
    """
    _require_member(group, g)
    _require_prime_order_gt3(g)
    budget = _budget_or_default(budget, mode)
    if mode == RANDOMIZED:
        return _random_search(group, g, 1, budget, rng_seed)
    cls = class_of_g if class_of_g is not None else class_of(group, g)
    return _class_scan(group, g, cls, budget)


def nonsolvable_witness_search(
    group: Bsgs, g: Permutation, budget: int, rng_seed: int = 0
) -> Optional[Witness]:
    """Randomized falsifier: sample x uniformly and return the first x with
    <g, xgx^-1> nonsolvable, or None once the budget is exhausted."""
    _require_member(group, g)
    _require_prime_order_gt3(g)
    return _random_search(group, g, 1, budget, rng_seed).witness


def _criterion_radical(group: Bsgs, classes, kind: str, test) -> RadicalResult:
    """The normal closure of the class representatives a criterion claims
    for the radical.  `test(cls)` gives the verdict on the class's
    representative, or None for a class the criterion does not test."""
    verdicts = []
    member_reps = []
    for cls in classes:
        v = test(cls)
        if v is None:
            continue
        verdicts.append(v)
        if v.in_radical_claimed:
            member_reps.append(v.element)
    return RadicalResult(
        subgroup=normal_closure(group, member_reps),
        kind=kind,
        member_class_reps=member_reps,
        method=CRITERION,
        verdicts=verdicts,
    )


def baer_suzuki_set(
    group: Bsgs,
    classes: list[ConjugacyClass],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> RadicalResult:
    """Subgroup generated by the classes whose representative g has every
    <g, xgx^-1> nilpotent; by the classical Baer-Suzuki theorem this is the
    nilpotent radical.  Each class scans at most `budget` orbit
    representatives."""

    def test(cls):
        rep = cls.representative
        if rep.is_identity():
            return CriterionVerdict(rep, True, None, EXHAUSTIVE, 1)
        return _class_scan(group, rep, cls, budget, nilpotent=True)

    return _criterion_radical(group, classes, FITTING, test)


def two_conjugate_radical(
    group: Bsgs,
    classes: list[ConjugacyClass],
    mode: str = EXHAUSTIVE,
    budget: Optional[int] = None,
    rng_seed: int = 0,
) -> RadicalResult:
    """Subgroup generated by the classes of prime order > 3 that pass the
    two-conjugate test; the claim under test is that these are exactly the
    classes of prime order > 3 in the solvable radical.  Classes of other
    orders are not tested and have no verdict."""

    def test(cls):
        n = cls.representative.order()
        if not (is_prime(n) and n > 3):
            return None
        return two_conjugate_test(
            group, cls.representative, mode, budget, rng_seed, class_of_g=cls
        )

    return _criterion_radical(group, classes, SOLVABLE_RADICAL, test)


def four_conjugate_element_test(
    group: Bsgs,
    g: Permutation,
    mode: str = EXHAUSTIVE,
    tuple_budget: Optional[int] = None,
    rng_seed: int = 0,
    class_of_g: Optional[ConjugacyClass] = None,
) -> CriterionVerdict:
    """Is <g, aga^-1, bgb^-1, cgc^-1> solvable for all a, b, c in G?

    Randomized mode samples `tuple_budget` triples (default
    DEFAULT_RANDOMIZED_BUDGET) and can only report a witness.
    Exhaustive mode scans (h1, h2, h3) over class(g)^3 with the first
    coordinate reduced to centralizer-orbit representatives; it requires
    that space, len(h1 reps) * |class(g)|^2, to be <= tuple_budget
    (default DEFAULT_TUPLE_BUDGET).  A
    subgroup containing a nonsolvable subgroup is nonsolvable, so prefixes
    <g,h1> / <g,h1,h2> that already fail are reported with the
    lexicographically first completion, which is exactly where the naive
    scan would first fail.  One cover of passing subgroups serves all three
    levels: a prefix or tuple inside one of them is not built.
    """
    _require_member(group, g)
    tuple_budget = _budget_or_default(tuple_budget, mode)
    if mode == RANDOMIZED:
        return _random_search(group, g, 3, tuple_budget, rng_seed)

    cls = class_of_g if class_of_g is not None else class_of(group, g)
    raw = cls._elements_raw
    h1_reps = _scan_reps(group, g, cls)
    total = h1_reps.count * len(raw) * len(raw)
    _check_budget(total, tuple_budget, "reduced triples")
    g_raw = g._img
    first = raw[0]

    def failure(hs, sub=None):
        if sub is None:  # a failing prefix: report its first completion
            sub = _span(group, [g_raw, *hs])
        conjs = [
            _conjugator_to(cls, g, Permutation._from_raw(h)) for h in hs
        ]
        return CriterionVerdict(
            element=g,
            in_radical_claimed=False,
            witness=_witness_for(sub, conjs),
            search_mode=EXHAUSTIVE,
            tuples_checked=total,
        )

    # live1 / live2: the cover groups containing h1 / h1 and h2
    cover = _Cover(g_raw)
    bits = [cover.bit(h) for h in raw]

    def build(hs, mask, *lives) -> Optional[Bsgs]:
        """Build <g, *hs>: the subgroup if it is not solvable, else None
        once it is in the cover and in each of the live lists."""
        sub = _span(group, [g_raw, *hs])
        if not is_solvable(sub):
            return sub
        k = cover.add(sub, mask)
        for live in lives:
            live.append(k)
        return None

    for h1 in map(cls._table.elements.__getitem__, h1_reps):
        m1 = cover.bit(h1)
        live1 = [k for k in range(len(cover.groups)) if cover.contains(k, h1, m1)]
        if not live1 and not cover.cyclic(m1):
            if build((h1,), m1, live1) is not None:
                return failure((h1, first, first))
        for h2, b2 in zip(raw, bits):
            m2 = m1 | b2
            live2 = [k for k in live1 if cover.contains(k, h2, b2)]
            if not live2 and not cover.cyclic(m2):
                if build((h1, h2), m2, live1, live2) is not None:
                    return failure((h1, h2, first))
            # the h3 known to pass: those inside a live2 group, and the
            # powers of g, which add nothing to the passing <g, h1, h2>
            known = cover.powers
            for k in live2:
                known |= cover.inside[k]
            for h3, b3 in zip(raw, bits):
                if b3 & known or cover.covers(live2, (h3,), (b3,)):
                    continue
                m3 = m2 | b3
                sub = build((h1, h2, h3), m3, live1, live2)
                if sub is not None:
                    return failure((h1, h2, h3), sub)
                known |= m3
    return CriterionVerdict(
        element=g,
        in_radical_claimed=True,
        witness=None,
        search_mode=EXHAUSTIVE,
        tuples_checked=total,
    )


def four_conjugate_radical(
    group: Bsgs,
    classes: list[ConjugacyClass],
    mode: str = EXHAUSTIVE,
    tuple_budget: Optional[int] = None,
    rng_seed: int = 0,
) -> RadicalResult:
    """Subgroup generated by the classes passing the four-conjugate test;
    the claim under test is that it equals the solvable radical."""
    return _criterion_radical(
        group,
        classes,
        SOLVABLE_RADICAL,
        lambda cls: four_conjugate_element_test(
            group, cls.representative, mode, tuple_budget, rng_seed, cls
        ),
    )


def class_pair_solvability(
    group: Bsgs,
    classes: list[ConjugacyClass],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> ClassPairVerdict:
    """Does every pair of elements of one conjugacy class generate a
    solvable subgroup?  Scans (rep, h) with h reduced to centralizer-orbit
    representatives, class by class in canonical order.  Raises
    BudgetExceededError before a class that would take the pair count
    past `budget`."""
    checked = 0
    for cls in classes:
        rep = cls.representative
        reps = cls.orbit_reps
        _check_budget(checked + reps.count, budget, "class pairs")
        failure = _first_failure(
            group, rep._img, _singles(cls._table, reps), is_solvable
        )
        if failure is not None:
            i, (h,), sub = failure
            x = _conjugator_to(cls, rep, Permutation._from_raw(h))
            return ClassPairVerdict(
                all_classes_pass=False,
                witness_element=rep,
                witness=_witness_for(sub, [x]),
                pairs_checked=checked + i + 1,
            )
        checked += reps.count
    return ClassPairVerdict(
        all_classes_pass=True,
        witness_element=None,
        witness=None,
        pairs_checked=checked,
    )


def thompson_test(
    group: Bsgs,
    element_cap: int,
    classes: Optional[list[ConjugacyClass]] = None,
) -> ThompsonVerdict:
    """Is every two-generated subgroup solvable?  Pairs are reduced up to
    simultaneous conjugacy by taking the first element to be a class
    representative r; the second ranges over the whole group, scanned as
    C_G(r)-orbit representatives.  `pairs_checked` counts the pairs of the
    unreduced scan, (class rep, element) in sorted order, up to and
    including a failing one.  `classes`, when given, must be the group's
    conjugacy classes."""
    if group.order > element_cap:
        raise CapExceededError(
            f"group order {group.order} exceeds element cap {element_cap}"
        )
    if classes is None:
        classes = conjugacy_classes(group, element_cap)
    # the classes share one numbering of the whole group, in sorted order
    table = classes[0]._table
    everything = range(group.order)
    checked = 0
    for cls in classes:
        rep = cls.representative
        if rep.is_identity():
            # every <1, y> = <y> is cyclic: pass the class without walking
            # the orbits of C_G(1) = G on the elements, the classes again
            checked += group.order
            continue
        ys = _OrbitReps(table, everything, cls.centralizer)
        failure = _first_failure(group, rep._img, _singles(table, ys), is_solvable)
        if failure is not None:
            i, (y,), sub = failure
            # y's number is its position in the sorted element list
            return ThompsonVerdict(
                all_pairs_solvable=False,
                witness_pair=(rep, Permutation._from_raw(y)),
                generated_order=sub.order,
                pairs_checked=checked + ys.found[i] + 1,
            )
        checked += group.order
    return ThompsonVerdict(
        all_pairs_solvable=True,
        witness_pair=None,
        generated_order=None,
        pairs_checked=checked,
    )


def transposition_triple_sharpness(n: int) -> SharpnessReport:
    """Exhaust all unordered triples of transpositions of S(n) and check
    each generates a solvable subgroup (three transpositions can never
    supply a nonsolvable witness, which is why four conjugates are needed
    in general).

    Triples in one S(n)-orbit generate conjugate subgroups, with the same
    order and solvability, so only the first triple of each orbit is built.
    A triple is the edge set of a 3-edge graph on {1..n}, and its orbit is
    the graph's isomorphism type, which the sorted degrees of its touched
    points determine (`_triple_shape`).  `triples_checked` still counts
    every triple."""
    if not 5 <= n <= 8:
        raise ValueError(f"n must be between 5 and 8, got {n}")
    triples = 0
    verdicts: dict[tuple, tuple[int, bool]] = {}  # shape -> (order, solvable)
    for triple in combinations(combinations(range(n), 2), 3):
        triples += 1
        shape = _triple_shape(triple)
        if shape not in verdicts:
            sub = Bsgs(GeneratorSet(n, [_transposition(n, i, j) for i, j in triple]))
            verdicts[shape] = (sub.order, is_solvable(sub))
    return SharpnessReport(
        triples_checked=triples,
        all_solvable=all(solvable for _, solvable in verdicts.values()),
        max_generated_order=max(order for order, _ in verdicts.values()),
    )


def _transposition(n: int, i: int, j: int) -> Permutation:
    img = list(range(n))
    img[i], img[j] = j, i
    return Permutation._from_raw(tuple(img))


def _triple_shape(edges) -> tuple:
    """The sorted degrees of the points a set of three edges touches.  Two
    3-edge graphs are isomorphic exactly when these agree: K3 (2,2,2),
    P4 (1,1,2,2), K1,3 (1,1,1,3), P3+K2 (1,1,1,1,2), 3K2 (1,1,1,1,1,1)."""
    return tuple(sorted(Counter(pt for edge in edges for pt in edge).values()))


def prime_order_elements(classes: list[ConjugacyClass]) -> list[ElementProfile]:
    """One profile per class whose representative has prime order > 3."""
    out = []
    for cls in classes:
        rep = cls.representative
        n = rep.order()
        if is_prime(n) and n > 3:
            out.append(ElementProfile(rep, n))
    return out
