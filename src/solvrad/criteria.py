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
and passes without a build.  A tuple whose members commute with g and
with each other generates an abelian group, which is solvable and
nilpotent, so it passes without a build too, and so does a Thompson class
of one member: its representative is central, so its pairs are abelian.
An exhaustive scan of several conjugates, such as the four-conjugate
test's three, extends each orbit representative by one class member per
level, in lexicographic order: each prefix gets the same checks as a
whole tuple, and a failing prefix fails with every completion, so it is
reported with its first.
Every skipped candidate really passes, so the first failure in canonical
order, its witness and the logical counters are those of the unpruned
scan.  A randomized search reads every sample of its seeded stream of
draws, in order, so its witnesses and counters are those of building every
sample.  The classes of one randomized radical run share one stream, each
sample drawn once: every class reads the samples it would draw alone.

The Thompson test uses the same lemma as the others: <r, y> and
<r, cyc^-1> are conjugate for c in C_G(r), so its second element is
reduced to C_G(r)-orbit representatives, the smallest member of each
orbit.  It also scans each unordered pair of classes once: for y in an
earlier class than r, with x y x^-1 = r', <r, y> is conjugate to
<r', x r x^-1>, a pair the earlier class's scan has already passed (a scan
stops at its first failure).  So the class of r is scanned against its own
class and the later ones only, in sorted order.

Exhaustive mode may assert the universal claim; randomized mode can only
falsify it.  Exhaustive scans raise BudgetExceededError when the logical
space they report exceeds their tuple budget.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .bsgs import (
    Bsgs,
    ConjugacyClass,
    GeneratorSet,
    MembershipError,
    _OrbitReps,
    _check_element_cap,
    centralizer,
    class_of,
    conjugacy_classes,
    normal_closure,
    random_element,
)
from .perm import Permutation, Raw, _inv, _mul, _raw, is_prime
from .structure import (
    CRITERION,
    FITTING,
    SOLVABLE_RADICAL,
    RadicalResult,
    _whole_or,
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
    for an exhaustive scan, a sample count for a randomized search.  A
    budget below 1 is refused: a search that draws nothing, or a scan that
    may check nothing, decides nothing.  An unknown mode is refused too."""
    if mode not in (EXHAUSTIVE, RANDOMIZED):
        raise ValueError(f"mode must be {EXHAUSTIVE!r} or {RANDOMIZED!r}, got {mode!r}")
    if budget is None:
        return DEFAULT_RANDOMIZED_BUDGET if mode == RANDOMIZED else DEFAULT_TUPLE_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    return budget


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


def _require_classes_of(group: Bsgs, classes) -> None:
    """Refuse a class of another group object: a scan of it would read that
    group's centralizer and orbit representatives."""
    for cls in classes:
        if cls._table.group is not group:
            raise MembershipError("a class of another group object was given")


def _require_member(
    group: Bsgs, g: Permutation, class_of_g: Optional[ConjugacyClass]
) -> None:
    if not group.contains(g):
        raise MembershipError(f"{g!r} is not a member of the group")
    if class_of_g is not None:
        _require_classes_of(group, [class_of_g])


def _prime_gt3(n: int) -> bool:
    """Whether n is a prime > 3, an element order the two-conjugate test takes."""
    return is_prime(n) and n > 3


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

    Each distinct conjugate gets a bit, 1 << n, when it is first seen, and
    a tuple's mask is the OR of its members' bits.  Each group keeps two
    masks: the conjugates it has been tested on, and those it contains.  So
    a tuple is tested against a group with one mask comparison, and a
    conjugate is sifted through a group at most once.  A group contains the
    conjugates it was built from without a sift.

    Tuples of powers of g need no group: they generate <g>, which is
    cyclic, so solvable and nilpotent.  And every group contains g, so it
    contains the powers of g without a sift.  Nor do tuples whose members
    commute with g and with each other, which generate an abelian group; the
    cover keeps the masks of those it has found, so a repeated one costs a
    set lookup, not its products.
    """

    __slots__ = (
        "groups", "tested", "inside", "bits", "conj", "powers", "_g_powers",
        "_g", "_commuting",
    )

    def __init__(self, g: Raw):
        self._g = g
        self._commuting: set[int] = set()  # masks of commuting tuples
        self.groups: list[Bsgs] = []
        self.tested: list[int] = []
        self.inside: list[int] = []
        self.bits: dict[Raw, int] = {}  # conjugate -> its bit
        self.conj: list[Raw] = []  # bit position -> its conjugate
        self.powers = 0  # the bits of the conjugates that are powers of g
        self._g_powers = {g}
        p = _mul(g, g)
        while p != g:
            self._g_powers.add(p)
            p = _mul(p, g)

    def bit(self, h: Raw) -> int:
        b = self.bits.get(h)
        if b is None:
            b = self.bits[h] = 1 << len(self.conj)
            self.conj.append(h)
            if h in self._g_powers:
                self.powers |= b
        return b

    def cyclic(self, mask: int) -> bool:
        """Whether the conjugates of `mask` are all powers of g."""
        return not mask & ~self.powers

    def abelian(self, hs: tuple, mask: int) -> bool:
        """Whether g and the conjugates hs, whose bits make `mask`, commute
        pairwise."""
        if mask in self._commuting:
            return True
        if all(_mul(a, b) == _mul(b, a) for a, b in combinations((self._g, *hs), 2)):
            self._commuting.add(mask)
            return True
        return False

    def holds(self, k: int, mask: int) -> bool:
        """Whether group k contains every conjugate of `mask`; the untested
        ones are sifted in bit order, up to the first it does not contain."""
        need = mask & ~(self.powers | self.inside[k])
        if not need or need & self.tested[k]:
            return not need
        contains = self.groups[k]._contains_raw
        while need:
            b = need & -need
            self.tested[k] |= b
            if not contains(self.conj[b.bit_length() - 1]):
                return False
            self.inside[k] |= b
            need ^= b
        return True

    def covers(self, ks, mask: int) -> bool:
        """Whether one of the groups ks contains every conjugate of `mask`."""
        # newest first: later cover groups tend to be the larger ones
        for k in reversed(ks):
            if self.holds(k, mask):
                return True
        return False

    def add(self, sub: Bsgs, mask: int) -> int:
        """Add a passing group built from the conjugates of `mask`; returns
        its index."""
        self.groups.append(sub)
        self.tested.append(mask)
        self.inside.append(mask)
        return len(self.groups) - 1


def _first_failure(
    group: Bsgs, g_raw: Raw, candidates, predicate, members=(), depth: int = 0
) -> Optional[tuple[int, tuple, Bsgs]]:
    """The first tuple of conjugates (h1, ..., hk) of `candidates`, in their
    order, each extended by `depth` further conjugates from `members`, one
    per level in turn, whose <g, h1, ...> fails the predicate, with its
    candidate's index and the subgroup built for it; None if every one
    passes.  `candidates` may be any iterable, and is consumed no further
    than the failing tuple.  g and the conjugates are members of `group`,
    whose order bounds each build; a build that reaches it is the group,
    and takes the group's own verdict, computed once per group.

    The predicate must pass to subgroups (solvable, nilpotent) and hold on
    abelian groups: a tuple or prefix of powers of g, one inside an already
    built passing subgroup, or one whose members commute with g and with
    each other passes without a build of its own.  An abelian group is not
    added to the cover: a tuple inside it commutes too, and passes the same
    test.  A failing prefix fails with every completion, so it is reported
    with its first, where the unpruned scan first fails.  Cover tests take
    a tuple's mask.
    """
    cover = _Cover(g_raw)
    bit = cover.bit
    level = (members, [bit(h) for h in members])
    for i, hs in enumerate(candidates):
        mask = 0
        for h in hs:
            mask |= bit(h)
        if depth:
            live = [k for k in range(len(cover.groups)) if cover.holds(k, mask)]
            failure = _scan_prefix(
                group, cover, predicate, level, depth, hs, mask, [live]
            )
        elif cover.cyclic(mask) or cover.covers(range(len(cover.groups)), mask):
            continue
        elif cover.abelian(hs, mask):
            continue
        else:
            failure = _build(group, cover, predicate, hs, mask, ())
        if failure is not None:
            return (i, *failure)
    return None


def _scan_prefix(group, cover, predicate, level, depth, hs, mask, lives):
    """The first failing tuple, as (tuple, subgroup), among the prefix hs,
    whose bits make `mask`, and its extensions by `depth` members of
    `level` (members and their bits); None if all pass.  lives[-1] lists
    the cover groups that contain hs, the earlier lists those that contain
    its shorter prefixes, and a group built here joins each list."""
    live = lives[-1]
    members, bits = level
    if not (live or cover.cyclic(mask) or cover.abelian(hs, mask)):
        failure = _build(group, cover, predicate, hs, mask, lives)
        if failure is not None:
            hs = (*hs, *[members[0]] * depth)
            return hs, _span(group, [cover._g, *hs])
    if depth > 1:
        for h, b in zip(members, bits):
            nxt = [k for k in live if cover.holds(k, b)]
            failure = _scan_prefix(
                group, cover, predicate, level, depth - 1, (*hs, h), mask | b,
                [*lives, nxt],
            )
            if failure is not None:
                return failure
        return None
    # the last level skips whole masks: the h known to pass are those inside
    # a live group, and the powers of g, which add nothing to <g, *hs>
    known = cover.powers
    for k in live:
        known |= cover.inside[k]
    for h, b in zip(members, bits):
        if b & known or cover.covers(live, b):
            continue
        m = mask | b
        if not cover.abelian((*hs, h), m):
            failure = _build(group, cover, predicate, (*hs, h), m, lives)
            if failure is not None:
                return failure
        known |= m
    return None


def _build(group, cover, predicate, hs, mask, lives):
    """Build <g, *hs>, whose conjugates' bits make `mask`: (hs, the
    subgroup) if it fails the predicate, else None once it is in the cover
    and in each of the live lists.  A build of the group's order is the
    group, so the predicate asks `group`, whose verdict is computed once."""
    sub = _span(group, [cover._g, *hs])
    if not predicate(_whole_or(group, sub)):
        return hs, sub
    k = cover.add(sub, mask)
    for live in lives:
        live.append(k)
    return None


def _class_scan(
    group: Bsgs,
    g: Permutation,
    cls: ConjugacyClass,
    budget: int,
    conjugates: int = 1,
    nilpotent: bool = False,
) -> CriterionVerdict:
    """Exhaustive verdict on every <g, x1 g x1^-1, ..., xk g xk^-1>, k =
    `conjugates`, being solvable (or nilpotent): x1 g x1^-1 runs over the
    C_G(g)-orbit representatives of the class of g, the later ones over the
    whole class.  C_G(g) is read from the walk of `cls`, which refuses a g
    outside it."""
    if g == cls.representative:
        reps = cls.orbit_reps  # the class's own, computed once
    else:
        reps = cls.orbit_reps_under(centralizer(cls._table.group, g, cls))
    space = reps.count * cls.class_size ** (conjugates - 1)
    what = ("orbit representatives", "reduced pairs", "reduced triples")
    _check_budget(space, budget, what[conjugates - 1])
    predicate = is_nilpotent if nilpotent else is_solvable
    members = cls._elements_raw if conjugates > 1 else ()
    failure = _first_failure(
        group, g._img, _singles(cls._table, reps), predicate, members, conjugates - 1
    )
    witness = None
    if failure is not None:
        _, hs, sub = failure
        xs = [_conjugator_to(cls, g, Permutation._from_raw(h)) for h in hs]
        # only a nilpotency failure can still be solvable
        solvable = nilpotent and is_solvable(_whole_or(group, sub))
        witness = _witness_for(sub, xs, solvable)
    return CriterionVerdict(
        element=g,
        in_radical_claimed=witness is None,
        witness=witness,
        search_mode=EXHAUSTIVE,
        tuples_checked=space,
    )


class _Draws:
    """The `random_element` draws of one seeded stream, as raws, drawn when
    first read and then kept, each with its inverse.
    Sample i of k conjugators is draws k*i ... k*i + k - 1, which is what k
    draws at a time from a fresh random.Random(rng_seed) give, so searches
    that share the stream read the samples each would draw alone, and each
    draw is made once."""

    __slots__ = ("_group", "_rng", "_raws", "_invs")

    def __init__(self, group: Bsgs, rng_seed: int):
        self._group = group
        self._rng = random.Random(rng_seed)
        self._raws: list[Raw] = []
        self._invs: list[Raw] = []

    def _draw_to(self, stop: int) -> None:
        raws, invs = self._raws, self._invs
        while len(raws) < stop:
            x = random_element(self._group, self._rng)._img
            raws.append(x)
            invs.append(_inv(x))

    def sample(self, i: int, k: int) -> list[Raw]:
        stop = k * (i + 1)
        self._draw_to(stop)
        return self._raws[stop - k:stop]

    def conjugates(self, i: int, k: int, g: Raw) -> tuple:
        """The x g x^-1 of sample i, for the raw g: two products each."""
        stop = k * (i + 1)
        self._draw_to(stop)
        raws, invs = self._raws, self._invs
        return tuple([
            _mul(_mul(raws[j], g), invs[j]) for j in range(stop - k, stop)
        ])


def _random_search(
    group: Bsgs, g: Permutation, k: int, budget: int, draws: _Draws
) -> CriterionVerdict:
    """Randomized verdict: read samples of k conjugators from `draws`, up to
    `budget` samples, and report the first sample whose
    <g, x1 g x1^-1, ..., xk g xk^-1> is nonsolvable.

    The samples feed the scan kernel, so a sample whose conjugates lie in
    an already built solvable subgroup passes without a build.  Every
    sample is still read, in stream order, and a failing sample is never
    covered, so the verdict, witness and `tuples_checked` are those of
    building every sample.  The searches of one radical run share one
    stream, so each sample is drawn once and every class reads it; only the
    conjugates x g x^-1 and the cover are the class's own.
    """
    samples = (draws.conjugates(i, k, g._img) for i in range(budget))
    failure = _first_failure(group, g._img, samples, is_solvable)
    if failure is None:
        return CriterionVerdict(g, True, None, RANDOMIZED, budget)
    i, _, sub = failure
    xs = [Permutation._from_raw(x) for x in draws.sample(i, k)]
    return CriterionVerdict(g, False, _witness_for(sub, xs), RANDOMIZED, i + 1)


def _class_test(
    group: Bsgs, k: int, mode: str, budget: Optional[int], rng_seed: int,
    nilpotent: bool = False,
):
    """`test(g, cls)`: the verdict of a search in `mode` with k conjugates
    on g, a member whose class is `cls` or None.  A randomized test makes
    one stream of draws here, which every g reads; an exhaustive one scans
    `cls`, or class_of(group, g) when cls is None, for nilpotent subgroups
    when `nilpotent` is set, else solvable ones."""
    budget = _budget_or_default(budget, mode)
    if mode == RANDOMIZED:
        draws = _Draws(group, rng_seed)
        return lambda g, cls: _random_search(group, g, k, budget, draws)
    return lambda g, cls: _class_scan(
        group, g, cls or class_of(group, g), budget, k, nilpotent
    )


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
    _require_member(group, g, class_of_g)
    if not _prime_gt3(n := g.order()):
        raise ValueError(
            f"element order {n} violates the precondition: order must be "
            "prime and greater than 3"
        )
    return _class_test(group, 1, mode, budget, rng_seed)(g, class_of_g)


def nonsolvable_witness_search(
    group: Bsgs, g: Permutation, budget: int, rng_seed: int = 0
) -> Optional[Witness]:
    """Randomized falsifier: sample x uniformly and return the first x with
    <g, xgx^-1> nonsolvable, or None once the budget is exhausted."""
    return two_conjugate_test(group, g, RANDOMIZED, budget, rng_seed).witness


def _criterion_radical(group: Bsgs, classes, kind: str, test) -> RadicalResult:
    """The normal closure of the class representatives a criterion claims
    for the radical.  `test(rep, cls)` gives the verdict on the class's
    representative, or None for a class the criterion does not test."""
    _require_classes_of(group, classes)
    verdicts = []
    member_reps = []
    claimed = {}  # representative -> class size
    for cls in classes:
        v = test(cls.representative, cls)
        if v is None:
            continue
        verdicts.append(v)
        if v.in_radical_claimed:
            member_reps.append(v.element)
            claimed[cls.representative] = cls.class_size
    # claimed classes that cover the group generate it
    whole = sum(claimed.values()) == group.order
    return RadicalResult(
        subgroup=group if whole else normal_closure(group, member_reps),
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
    scan = _class_test(group, 1, EXHAUSTIVE, budget, 0, nilpotent=True)
    return _criterion_radical(group, classes, FITTING, scan)


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
    scan = _class_test(group, 1, mode, budget, rng_seed)

    def test(rep, cls):
        return scan(rep, cls) if _prime_gt3(rep.order()) else None

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
    DEFAULT_RANDOMIZED_BUDGET) and can only report a witness.  Exhaustive
    mode is the class scan with three conjugates: (h1, h2, h3) over
    class(g)^3, h1 reduced to centralizer-orbit representatives, a space of
    len(h1 reps) * |class(g)|^2 that must be <= tuple_budget (default
    DEFAULT_TUPLE_BUDGET).
    """
    _require_member(group, g, class_of_g)
    return _class_test(group, 3, mode, tuple_budget, rng_seed)(g, class_of_g)


def four_conjugate_radical(
    group: Bsgs,
    classes: list[ConjugacyClass],
    mode: str = EXHAUSTIVE,
    tuple_budget: Optional[int] = None,
    rng_seed: int = 0,
) -> RadicalResult:
    """Subgroup generated by the classes passing the four-conjugate test;
    the claim under test is that it equals the solvable radical."""
    test = _class_test(group, 3, mode, tuple_budget, rng_seed)
    return _criterion_radical(group, classes, SOLVABLE_RADICAL, test)


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
    _require_classes_of(group, classes)
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
    representative r; the second ranges over r's class and the later ones,
    whose pairs with the earlier classes' representatives have passed
    already, scanned as C_G(r)-orbit representatives.  `pairs_checked`
    counts the pairs of the unreduced scan, (class rep, element) over the
    whole group in sorted order, up to and including a failing one.
    `classes`, when given, must be the group's conjugacy classes."""
    _check_element_cap(group.order, element_cap)
    if classes is None:
        classes = conjugacy_classes(group, element_cap)
    _require_classes_of(group, classes)
    # the classes share one numbering of the whole group, in sorted order,
    # and classes[c] is the walk whose id is c
    table = classes[0]._table
    later = range(group.order)  # the members of this class and the later ones
    checked = 0
    for c, cls in enumerate(classes):
        later = [j for j in later if table.cid[j] >= c]
        rep = cls.representative
        if cls.class_size == 1:
            # rep is central, so every <rep, y> is abelian: pass the class
            # without walking the orbits of C_G(rep) = G on the elements
            checked += group.order
            continue
        ys = _OrbitReps(table, later, cls.centralizer)
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
    return Permutation._from_raw(_raw(img))


def _triple_shape(edges) -> tuple:
    """The sorted degrees of the points a set of three edges touches.  Two
    3-edge graphs are isomorphic exactly when these agree: K3 (2,2,2),
    P4 (1,1,2,2), K1,3 (1,1,1,3), P3+K2 (1,1,1,1,2), 3K2 (1,1,1,1,1,1)."""
    return tuple(sorted(Counter(pt for edge in edges for pt in edge).values()))


def prime_order_elements(classes: list[ConjugacyClass]) -> list[ElementProfile]:
    """One profile per class whose representative has prime order > 3."""
    out = []
    for cls in classes:
        n = cls.representative.order()
        if _prime_gt3(n):
            out.append(ElementProfile(cls.representative, n))
    return out
