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

Exhaustive mode may assert the universal claim; randomized mode can only
falsify it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .bsgs import (
    Bsgs,
    CapExceededError,
    ConjugacyClass,
    GeneratorSet,
    MembershipError,
    centralizer,
    class_of,
    conjugacy_classes,
    normal_closure,
    random_element,
)
from .perm import Permutation, _inv, _mul, is_prime
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


class BudgetExceededError(RuntimeError):
    """The exhaustive search space is larger than the configured budget."""


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


def _span(degree: int, raws) -> Bsgs:
    return Bsgs(GeneratorSet(degree, [Permutation._from_raw(r) for r in raws]))


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


def _orbit_partition_reps(elements_sorted: list, cent_gens: list) -> list:
    """Lex-minimal representative of each centralizer-conjugation orbit on a
    (sorted) class; reps come out in ascending order."""
    if not cent_gens:
        return list(elements_sorted)
    inv = [_inv(s) for s in cent_gens]
    visited = set()
    reps = []
    for e in elements_sorted:
        if e in visited:
            continue
        reps.append(e)
        visited.add(e)
        frontier = [e]
        while frontier:
            nxt = []
            for y in frontier:
                for s, si in zip(cent_gens, inv):
                    z = _mul(s, _mul(y, si))
                    if z not in visited:
                        visited.add(z)
                        nxt.append(z)
            frontier = nxt
    assert len(visited) == len(elements_sorted)
    return reps


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
    reps = _orbit_partition_reps(class_of_x._elements_raw, cent._gens_raw)
    return [Permutation._from_raw(r) for r in reps]


def _conjugator_to(
    cls: ConjugacyClass, g: Permutation, h: Permutation
) -> Permutation:
    """Some x with x g x^-1 = h, for two members of the same class."""
    return cls.conjugator(h) * cls.conjugator(g).inverse()


def _witness_for(
    group_degree: int, base_raw: tuple, conjugates_raw: list, conjugators
) -> Witness:
    sub = _span(group_degree, [base_raw, *conjugates_raw])
    solv = is_solvable(sub)
    nilp = is_nilpotent(sub) if solv else False
    return Witness(
        conjugators=list(conjugators),
        generated_order=sub.order,
        solvable=solv,
        nilpotent=nilp,
    )


def two_conjugate_test(
    group: Bsgs,
    g: Permutation,
    mode: str = EXHAUSTIVE,
    budget: int = 1000,
    rng_seed: int = 0,
    class_of_g: Optional[ConjugacyClass] = None,
    cent: Optional[Bsgs] = None,
) -> CriterionVerdict:
    """Does every x in G give a solvable <g, xgx^-1>?

    Requires g to be a member of prime order > 3.  Exhaustive mode decides
    by scanning centralizer-orbit representatives of the class of g;
    randomized mode samples x and can only report a witness.
    """
    _require_member(group, g)
    _require_prime_order_gt3(g)
    if mode == RANDOMIZED:
        w, samples = _nonsolvable_search(group, g, budget, rng_seed)
        return CriterionVerdict(
            element=g,
            in_radical_claimed=w is None,
            witness=w,
            search_mode=RANDOMIZED,
            tuples_checked=samples,
        )

    cls = class_of_g if class_of_g is not None else class_of(group, g)
    cz = cent if cent is not None else centralizer(group, g, cls)
    reps = _orbit_partition_reps(cls._elements_raw, cz._gens_raw)
    g_raw = g._img
    for h in reps:
        sub = _span(group.degree, [g_raw, h])
        if not is_solvable(sub):
            x = _conjugator_to(cls, g, Permutation._from_raw(h))
            return CriterionVerdict(
                element=g,
                in_radical_claimed=False,
                witness=_witness_for(group.degree, g_raw, [h], [x]),
                search_mode=EXHAUSTIVE,
                tuples_checked=len(reps),
            )
    return CriterionVerdict(
        element=g,
        in_radical_claimed=True,
        witness=None,
        search_mode=EXHAUSTIVE,
        tuples_checked=len(reps),
    )


def nonsolvable_witness_search(
    group: Bsgs, g: Permutation, budget: int, rng_seed: int = 0
) -> Optional[Witness]:
    """Randomized falsifier: sample x uniformly and return the first x with
    <g, xgx^-1> nonsolvable, or None once the budget is exhausted."""
    _require_member(group, g)
    _require_prime_order_gt3(g)
    return _nonsolvable_search(group, g, budget, rng_seed)[0]


def _nonsolvable_search(
    group: Bsgs, g: Permutation, budget: int, rng_seed: int
) -> tuple[Optional[Witness], int]:
    rng = random.Random(rng_seed)
    g_raw = g._img
    for i in range(budget):
        x = random_element(group, rng)
        xr = x._img
        h = _mul(xr, _mul(g_raw, _inv(xr)))
        sub = _span(group.degree, [g_raw, h])
        if not is_solvable(sub):
            witness = Witness(
                conjugators=[x],
                generated_order=sub.order,
                solvable=False,
                nilpotent=False,
            )
            return witness, i + 1
    return None, budget


def baer_suzuki_set(group: Bsgs, classes: list[ConjugacyClass]) -> RadicalResult:
    """Subgroup generated by the classes whose representative g has every
    <g, xgx^-1> nilpotent; by the classical Baer-Suzuki theorem this is the
    nilpotent radical."""
    verdicts = []
    member_reps = []
    for cls in classes:
        rep = cls.representative
        rep_raw = rep._img
        if rep.is_identity():
            member_reps.append(rep)
            verdicts.append(
                CriterionVerdict(rep, True, None, EXHAUSTIVE, 1)
            )
            continue
        cz = centralizer(group, rep, cls)
        reps = _orbit_partition_reps(cls._elements_raw, cz._gens_raw)
        witness = None
        for h in reps:
            sub = _span(group.degree, [rep_raw, h])
            if not is_nilpotent(sub):
                x = _conjugator_to(cls, rep, Permutation._from_raw(h))
                witness = _witness_for(group.degree, rep_raw, [h], [x])
                break
        if witness is None:
            member_reps.append(rep)
        verdicts.append(
            CriterionVerdict(
                element=rep,
                in_radical_claimed=witness is None,
                witness=witness,
                search_mode=EXHAUSTIVE,
                tuples_checked=len(reps),
            )
        )
    subgroup = normal_closure(group, member_reps)
    return RadicalResult(
        subgroup=subgroup,
        kind=FITTING,
        member_class_reps=member_reps,
        method=CRITERION,
        verdicts=verdicts,
    )


def four_conjugate_element_test(
    group: Bsgs,
    g: Permutation,
    mode: str = EXHAUSTIVE,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    rng_seed: int = 0,
    class_of_g: Optional[ConjugacyClass] = None,
    cent: Optional[Bsgs] = None,
) -> CriterionVerdict:
    """Is <g, aga^-1, bgb^-1, cgc^-1> solvable for all a, b, c in G?

    Exhaustive mode scans (h1, h2, h3) over class(g)^3 with the first
    coordinate reduced to centralizer-orbit representatives; it requires
    |class(g)|^3 <= tuple_budget.  A subgroup containing a nonsolvable
    subgroup is nonsolvable, so prefixes <g,h1> / <g,h1,h2> that already
    fail are reported with the lexicographically first completion, which
    is exactly where the naive scan would first fail.
    """
    _require_member(group, g)
    if mode == RANDOMIZED:
        return _four_conjugate_randomized(group, g, tuple_budget, rng_seed)

    cls = class_of_g if class_of_g is not None else class_of(group, g)
    raw = cls._elements_raw
    if len(raw) ** 3 > tuple_budget:
        raise BudgetExceededError(
            f"class size {len(raw)}: {len(raw) ** 3} raw triples exceed the "
            f"tuple budget {tuple_budget}"
        )
    cz = cent if cent is not None else centralizer(group, g, cls)
    h1_reps = _orbit_partition_reps(raw, cz._gens_raw)
    total = len(h1_reps) * len(raw) * len(raw)
    g_raw = g._img
    first = raw[0]

    def verdict_from(h1, h2, h3):
        conjs = [
            _conjugator_to(cls, g, Permutation._from_raw(h))
            for h in (h1, h2, h3)
        ]
        return CriterionVerdict(
            element=g,
            in_radical_claimed=False,
            witness=_witness_for(group.degree, g_raw, [h1, h2, h3], conjs),
            search_mode=EXHAUSTIVE,
            tuples_checked=total,
        )

    for h1 in h1_reps:
        if not is_solvable(_span(group.degree, [g_raw, h1])):
            return verdict_from(h1, first, first)
        for h2 in raw:
            if not is_solvable(_span(group.degree, [g_raw, h1, h2])):
                return verdict_from(h1, h2, first)
            for h3 in raw:
                if not is_solvable(_span(group.degree, [g_raw, h1, h2, h3])):
                    return verdict_from(h1, h2, h3)
    return CriterionVerdict(
        element=g,
        in_radical_claimed=True,
        witness=None,
        search_mode=EXHAUSTIVE,
        tuples_checked=total,
    )


def _four_conjugate_randomized(
    group: Bsgs, g: Permutation, budget: int, rng_seed: int
) -> CriterionVerdict:
    rng = random.Random(rng_seed)
    g_raw = g._img
    for i in range(budget):
        abc = [random_element(group, rng) for _ in range(3)]
        conjugates = [
            _mul(x._img, _mul(g_raw, _inv(x._img))) for x in abc
        ]
        sub = _span(group.degree, [g_raw, *conjugates])
        if not is_solvable(sub):
            return CriterionVerdict(
                element=g,
                in_radical_claimed=False,
                witness=Witness(abc, sub.order, False, False),
                search_mode=RANDOMIZED,
                tuples_checked=i + 1,
            )
    return CriterionVerdict(
        element=g,
        in_radical_claimed=True,
        witness=None,
        search_mode=RANDOMIZED,
        tuples_checked=budget,
    )


def four_conjugate_radical(
    group: Bsgs,
    classes: list[ConjugacyClass],
    mode: str = EXHAUSTIVE,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    rng_seed: int = 0,
) -> RadicalResult:
    """Subgroup generated by the classes passing the four-conjugate test;
    the claim under test is that it equals the solvable radical."""
    verdicts = []
    member_reps = []
    for cls in classes:
        v = four_conjugate_element_test(
            group,
            cls.representative,
            mode=mode,
            tuple_budget=tuple_budget,
            rng_seed=rng_seed,
            class_of_g=cls,
        )
        verdicts.append(v)
        if v.in_radical_claimed:
            member_reps.append(cls.representative)
    subgroup = normal_closure(group, member_reps)
    return RadicalResult(
        subgroup=subgroup,
        kind=SOLVABLE_RADICAL,
        member_class_reps=member_reps,
        method=CRITERION,
        verdicts=verdicts,
    )


def class_pair_solvability(
    group: Bsgs, classes: list[ConjugacyClass]
) -> ClassPairVerdict:
    """Does every pair of elements of one conjugacy class generate a
    solvable subgroup?  Scans (rep, h) with h reduced to centralizer-orbit
    representatives, class by class in canonical order."""
    checked = 0
    for cls in classes:
        rep = cls.representative
        rep_raw = rep._img
        cz = centralizer(group, rep, cls)
        for h in _orbit_partition_reps(cls._elements_raw, cz._gens_raw):
            checked += 1
            sub = _span(group.degree, [rep_raw, h])
            if not is_solvable(sub):
                x = _conjugator_to(cls, rep, Permutation._from_raw(h))
                return ClassPairVerdict(
                    all_classes_pass=False,
                    witness_element=rep,
                    witness=_witness_for(group.degree, rep_raw, [h], [x]),
                    pairs_checked=checked,
                )
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
    representative; the second ranges over the whole group.  `classes`,
    when given, must be the group's conjugacy classes."""
    if group.order > element_cap:
        raise CapExceededError(
            f"group order {group.order} exceeds element cap {element_cap}"
        )
    if classes is None:
        classes = conjugacy_classes(group, element_cap)
    elements = sorted(
        e for cls in classes for e in cls._elements_raw
    )
    checked = 0
    for cls in classes:
        rep_raw = cls.representative._img
        for y in elements:
            checked += 1
            sub = _span(group.degree, [rep_raw, y])
            if not is_solvable(sub):
                return ThompsonVerdict(
                    all_pairs_solvable=False,
                    witness_pair=(
                        cls.representative,
                        Permutation._from_raw(y),
                    ),
                    generated_order=sub.order,
                    pairs_checked=checked,
                )
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
    in general)."""
    if not 5 <= n <= 8:
        raise ValueError(f"n must be between 5 and 8, got {n}")
    transpositions = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            img = list(range(n))
            img[i], img[j] = j, i
            transpositions.append(tuple(img))
    triples = 0
    max_order = 0
    all_solvable = True
    for t1, t2, t3 in combinations(transpositions, 3):
        triples += 1
        sub = _span(n, [t1, t2, t3])
        if sub.order > max_order:
            max_order = sub.order
        if not is_solvable(sub):
            all_solvable = False
    return SharpnessReport(
        triples_checked=triples,
        all_solvable=all_solvable,
        max_generated_order=max_order,
    )


def prime_order_elements(classes: list[ConjugacyClass]) -> list[ElementProfile]:
    """One profile per class whose representative has prime order > 3."""
    out = []
    for cls in classes:
        rep = cls.representative
        n = rep.order()
        if is_prime(n) and n > 3:
            out.append(ElementProfile(rep, n))
    return out
