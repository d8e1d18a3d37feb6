"""Solvability, nilpotency, derived and lower central series, and the
oracle radicals (largest solvable / nilpotent normal subgroup) that the
conjugate-generation criteria are verified against.

Membership in the solvable radical is equivalent to solvability of one's
normal closure (and likewise, nilpotent radical / nilpotent closure), and
that membership is a class function, so the oracles iterate over conjugacy
class representatives and take the normal closure of the qualifying ones.

The predicates settle what the group order settles before computing a
series (Holt, Eick & O'Brien, Handbook of Computational Group Theory): by
Burnside's p^a q^b theorem a group whose order has at most two prime
divisors is solvable, and a group of prime-power order is nilpotent.  The
series functions always compute every term, and keep nothing.

Each group keeps the order of its solvable residual (`Bsgs._residual`),
which decides its solvability, and its nilpotency verdict (`_nilpotent`),
so each is computed once per group object.  A subgroup of a group's
order is the group, so where a build may come out whole the caller asks
the group itself (`_whole_or`), and every such build shares its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .bsgs import Bsgs, ConjugacyClass, normal_closure
from .perm import Permutation, commutator

SOLVABLE_RADICAL = "solvable_radical"
FITTING = "fitting"
ORACLE = "oracle"
CRITERION = "criterion"


@dataclass
class SeriesResult:
    """A descending subgroup chain that either reached the trivial group
    (terminated) or repeated a nontrivial term (stabilized)."""

    terms: list[Bsgs]
    terminated: bool
    stabilized: bool


@dataclass
class RadicalResult:
    subgroup: Bsgs
    kind: str  # SOLVABLE_RADICAL or FITTING
    member_class_reps: list[Permutation]
    method: str  # ORACLE or CRITERION
    verdicts: Optional[list] = field(default=None, repr=False)


def derived_subgroup(h: Bsgs) -> Bsgs:
    """[H, H]: the normal closure in h of the commutators of its generators."""
    gens = h.generators
    seeds = []
    seen = set()
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            c = commutator(a, b)
            if not c.is_identity() and c not in seen:
                seeds.append(c)
                seen.add(c)
    return normal_closure(h, seeds)


def derived_series(h: Bsgs) -> SeriesResult:
    """H >= [H,H] >= [[H,H],[H,H]] >= ... until trivial or repeated."""
    terms = [h]
    while True:
        nxt = derived_subgroup(terms[-1])
        terms.append(nxt)
        if nxt.order == 1 or nxt.order == terms[-2].order:
            break
    terminated = nxt.order == 1
    return SeriesResult(terms, terminated=terminated, stabilized=not terminated)


def _prime_divisors(h: Bsgs) -> set[int]:
    """The primes dividing |H|, read from its basic orbit lengths: their
    product is |H| and each is at most the degree, so trial division is
    short."""
    primes = set()
    for t in h._chain.transversals:
        n, p = len(t), 2
        while p * p <= n:
            if n % p == 0:
                primes.add(p)
                while n % p == 0:
                    n //= p
            p += 1
        if n > 1:
            primes.add(n)
    return primes


def _whole_or(group: Bsgs, sub: Bsgs) -> Bsgs:
    """`sub`, a subgroup of `group`, or `group` itself when sub has its
    order, so that a predicate asked about sub reads the group's verdict."""
    return group if sub.order == group.order else sub


def is_solvable(h: Bsgs) -> bool:
    """Whether H is solvable: whether its solvable residual is trivial."""
    return solvable_residual_order(h) == 1


def solvable_residual_order(h: Bsgs) -> int:
    """The order of H's solvable residual, the last term of its derived
    series, computed once per group object.  The walk down the series stops
    at a perfect term, the residual, or at a term whose order has at most
    two prime divisors, which is solvable by Burnside's p^a q^b theorem, so
    the residual is trivial.  Every term of a nonsolvable group contains its
    nontrivial perfect residual, whose order has three prime divisors, so
    only a solvable group's walk stops at the order test."""
    if h._residual is None:
        h._residual = _residual_by_series(h)
    return h._residual


def _residual_by_series(h: Bsgs) -> int:
    while len(_prime_divisors(h)) > 2:
        d = derived_subgroup(h)
        if d.order == h.order:
            return h.order
        h = d
    return 1


def lower_central_series(h: Bsgs) -> SeriesResult:
    """gamma_1 = H, gamma_{i+1} = normal closure of [gamma_i, H]."""
    h_gens = h.generators
    terms = [h]
    while True:
        seeds = []
        seen = set()
        for x in terms[-1].generators:
            for y in h_gens:
                c = commutator(x, y)
                if not c.is_identity() and c not in seen:
                    seeds.append(c)
                    seen.add(c)
        nxt = normal_closure(h, seeds)
        terms.append(nxt)
        if nxt.order == 1:
            return SeriesResult(terms, terminated=True, stabilized=False)
        if nxt.order == terms[-2].order:
            return SeriesResult(terms, terminated=False, stabilized=True)


def is_nilpotent(h: Bsgs) -> bool:
    """Whether H is nilpotent, computed once per group object: a group of
    prime-power order is, and otherwise its lower central series must
    reach 1.  The order test is made on H alone, never on a lower-central
    term: S(3)'s gamma_2 is C(3), yet S(3) is not nilpotent."""
    if h._nilpotent is None:
        h._nilpotent = (
            len(_prime_divisors(h)) <= 1 or lower_central_series(h).terminated
        )
    return h._nilpotent


def solvable_radical_oracle(
    group: Bsgs, classes: list[ConjugacyClass]
) -> RadicalResult:
    """Largest solvable normal subgroup: generated by every class whose
    representative has a solvable normal closure."""
    return _radical_oracle(group, classes, is_solvable, SOLVABLE_RADICAL)


def fitting_oracle(group: Bsgs, classes: list[ConjugacyClass]) -> RadicalResult:
    """Largest nilpotent normal subgroup, via nilpotent normal closures."""
    return _radical_oracle(group, classes, is_nilpotent, FITTING)


def _radical_oracle(group, classes, predicate, kind) -> RadicalResult:
    """A normal closure with the group's order is the group itself, so the
    predicate asks `group`, whose verdict the scans on it share."""
    member_reps = []
    for cls in classes:
        rep = cls.representative
        if rep.is_identity() or predicate(
            _whole_or(group, normal_closure(group, [rep]))
        ):
            member_reps.append(rep)
    subgroup = normal_closure(group, member_reps)
    return RadicalResult(
        subgroup=subgroup,
        kind=kind,
        member_class_reps=member_reps,
        method=ORACLE,
    )
