"""Solvability, nilpotency, derived and lower central series, and the
oracle radicals (largest solvable / nilpotent normal subgroup) that the
conjugate-generation criteria are verified against.

Membership in the solvable radical is equivalent to solvability of one's
normal closure (and likewise, nilpotent radical / nilpotent closure), and
that membership is a class function, so the oracles decide it per conjugacy
class.  The radicals are normal subgroups, so a group that passes is its own
radical, and a class is settled by a decided class of one of its powers
where it can be; only the rest build their representative's normal closure,
which the class keeps.

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
from math import gcd
from typing import Optional

from .bsgs import Bsgs, ConjugacyClass, _getter, normal_closure
from .perm import Permutation, _mul, commutator

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
    return set().union(*map(_primes_of, map(len, h._chain.transversals)))


def _primes_of(n: int) -> set[int]:
    """The primes dividing n, by trial division."""
    primes, p = set(), 2
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
    """The radical of `predicate` over `classes`, the group's conjugacy
    classes, and its member classes' representatives, in class order.

    The radical is a normal subgroup, so a group that passes is its own
    radical, and every class is a member without a closure.  Otherwise a
    class is settled, in class order, from its powers where it can be: x is
    out when some x^p, p a prime dividing ord(x), lies in a class already
    out.  Only then is <<x>> built (once per class, kept by the class; the
    group itself when whole, so its verdict is the group's).  Its verdict
    passes to every undecided class of a power x^k: to those with
    gcd(k, ord(x)) = 1, which have the same closure, and to all of them when
    x is a member.  So each closure built costs at most ord(x) products."""
    if predicate(group):
        reps = [cls.representative for cls in classes]
        return RadicalResult(group, kind, reps, ORACLE)
    table = classes[0]._table
    key, pos, cid = _getter(group._chain.base), table.pos, table.cid

    def class_id(y):
        return cid[pos[key(y)]]

    inside = [None] * len(table.sizes)  # by class id: member, out, undecided
    member_reps = []
    for cls in classes:
        rep = cls.representative
        c, x, n = cid[cls._root], rep._img, rep.order()
        if inside[c] is None:
            if any(inside[class_id(_power(x, p))] is False for p in _primes_of(n)):
                inside[c] = False
            else:
                inside[c] = verdict = n == 1 or predicate(cls.normal_closure)
                y = x
                for k in range(2, n):
                    y = _mul(y, x)
                    d = class_id(y)
                    if inside[d] is None and (verdict or gcd(k, n) == 1):
                        inside[d] = verdict
        if inside[c]:
            member_reps.append(rep)
    return RadicalResult(
        subgroup=normal_closure(group, member_reps),
        kind=kind,
        member_class_reps=member_reps,
        method=ORACLE,
    )


def _power(x: tuple, e: int) -> tuple:
    """x^e for e >= 1, by repeated squaring."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else _mul(result, x)
        e >>= 1
        if e:
            x = _mul(x, x)
    return result
