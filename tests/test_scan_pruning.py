"""Differential safety net for the pruned criterion scans.

Each criterion scan in `solvrad.criteria`, exhaustive or randomized, skips
candidates that lie in a passing subgroup it has already built, and the
Thompson test scans only centralizer-orbit representatives.  The reference
scans below are the unpruned loops: every candidate in canonical order (or
every random sample) gets its own subgroup, centralizer orbits come from
brute-force centralizers, and the Thompson scan visits every (class
representative, element) pair.  Verdicts, witnesses (conjugators and
generated order) and counters must agree, no cover group may sift the
same conjugate twice, no scan may build a tuple that a passing group it
built earlier contains, and no scan may leave a reference cycle for the
collector.  A build of the group's order asks the group itself, whose
verdicts are computed once; on the nonsolvable groups, where many builds
are the whole group, the scans must still agree with the references, which
build and ask every subgroup afresh.  The classes of one randomized
radical run read one stream of draws, each drawn once; every verdict must
still be that of a reference drawing alone from a fresh RNG.  The
sharpness check builds one triple of transpositions per graph shape; its
reference builds them all.
"""

import gc
import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvrad.criteria
from solvrad.bsgs import (
    Bsgs,
    GeneratorSet,
    build_bsgs,
    class_of,
    conjugacy_classes,
    enumerate_elements,
    random_element,
)
from solvrad.criteria import (
    EXHAUSTIVE,
    RANDOMIZED,
    BudgetExceededError,
    SharpnessReport,
    _class_scan,
    _Cover,
    _Draws,
    _first_failure,
    _random_search,
    _triple_shape,
    baer_suzuki_set,
    class_pair_solvability,
    four_conjugate_element_test,
    four_conjugate_radical,
    nonsolvable_witness_search,
    thompson_test,
    transposition_triple_sharpness,
    two_conjugate_radical,
    two_conjugate_test,
)
from solvrad.perm import (
    Permutation, _inv, _mul, _raw, conjugate, is_prime, parse_cycles,
)
from solvrad.zoo import construct
from solvrad.structure import is_nilpotent, is_solvable

# D4 x S3 (15 classes) and S4 x C2 (10) are solvable, so Thompson's test
# scans every class against its own and the later ones
SPECS = ["S(4)", "S(5)", "A(5)", "D(6)", "direct(C(5),A(5))", "PSL2(7)",
         "direct(D(4),S(3))", "direct(S(4),C(2))"]


def _span(degree, raws):
    return build_bsgs(GeneratorSet(degree, [Permutation._from_raw(r) for r in raws]))


def _conjugator(cls, g, h_raw):
    return cls.conjugator(Permutation._from_raw(h_raw)) * cls.conjugator(g).inverse()


def _orbit_reps(group, g_raw, members):
    """Smallest member of each orbit of the brute-force centralizer of g
    conjugating `members` (a sorted union of classes), ascending."""
    cent = [
        a for a in (p._img for p in enumerate_elements(group))
        if _mul(a, g_raw) == _mul(g_raw, a)
    ]
    return sorted({min(_mul(a, _mul(h, _inv(a))) for a in cent) for h in members})


def _witness_key(w):
    if w is None:
        return None
    return (tuple(x.images for x in w.conjugators), w.generated_order,
            w.solvable, w.nilpotent)


def _reference_witness(group, g, hs, cls):
    sub = _span(group.degree, [g._img, *hs])
    solvable = is_solvable(sub)
    return (
        tuple(_conjugator(cls, g, h).images for h in hs),
        sub.order,
        solvable,
        is_nilpotent(sub) if solvable else False,
    )


def _verdict_key(v):
    return (v.in_radical_claimed, v.tuples_checked, _witness_key(v.witness))


def reference_class_scan(group, cls, predicate):
    """(claimed, tuples_checked, witness) for every <g, xgx^-1>, g the
    class representative."""
    g = cls.representative
    reps = _orbit_reps(group, g._img, cls._elements_raw)
    for h in reps:
        if not predicate(_span(group.degree, [g._img, h])):
            return False, len(reps), _reference_witness(group, g, [h], cls)
    return True, len(reps), None


def reference_four(group, cls, g=None):
    g = cls.representative if g is None else g
    raw = cls._elements_raw
    h1_reps = _orbit_reps(group, g._img, raw)
    total = len(h1_reps) * len(raw) ** 2
    first = raw[0]

    def fail(hs):
        return False, total, _reference_witness(group, g, hs, cls)

    for h1 in h1_reps:
        if not is_solvable(_span(group.degree, [g._img, h1])):
            return fail([h1, first, first])
        for h2 in raw:
            if not is_solvable(_span(group.degree, [g._img, h1, h2])):
                return fail([h1, h2, first])
            for h3 in raw:
                if not is_solvable(_span(group.degree, [g._img, h1, h2, h3])):
                    return fail([h1, h2, h3])
    return True, total, None


def reference_pairs(group, classes):
    """(all pass, pairs_checked, witness element images, witness)."""
    checked = 0
    for cls in classes:
        g = cls.representative
        for h in _orbit_reps(group, g._img, cls._elements_raw):
            checked += 1
            if not is_solvable(_span(group.degree, [g._img, h])):
                w = _reference_witness(group, g, [h], cls)
                return False, checked, g.images, w
    return True, checked, None, None


def reference_thompson(group, classes):
    """(all pass, pairs_checked, witness pair images, generated order)."""
    elements = sorted(e for cls in classes for e in cls._elements_raw)
    checked = 0
    for cls in classes:
        r = cls.representative._img
        for y in elements:
            checked += 1
            sub = _span(group.degree, [r, y])
            if not is_solvable(sub):
                pair = (cls.representative.images, Permutation._from_raw(y).images)
                return False, checked, pair, sub.order
    return True, checked, None, None


def reference_random_search(group, g, k, budget, seed):
    """(claimed, tuples_checked, witness): build <g, x1 g x1^-1, ...> for
    every sample of k conjugators until one is nonsolvable."""
    rng = random.Random(seed)
    g_raw = g._img
    for i in range(budget):
        xs = [random_element(group, rng) for _ in range(k)]
        conjugates = [_mul(x._img, _mul(g_raw, _inv(x._img))) for x in xs]
        sub = _span(group.degree, [g_raw, *conjugates])
        if not is_solvable(sub):
            witness = (tuple(x.images for x in xs), sub.order, False, False)
            return False, i + 1, witness
    return True, budget, None


def check_random_searches(group, classes, seeds, budget):
    """The randomized searches, with one conjugate (two, the nonsolvable
    witness search) and with three (four), agree with the unpruned loop on
    every class representative; returns their verdicts."""
    claims = []
    for cls in classes:
        g = cls.representative
        for k in (1, 3):
            for seed in seeds:
                v = _random_search(group, g, k, budget, _Draws(group, seed))
                ref = reference_random_search(group, g, k, budget, seed)
                assert _verdict_key(v) == ref
                claims.append(v.in_radical_claimed)
                n = g.order()
                if k == 1 and is_prime(n) and n > 3:
                    w = nonsolvable_witness_search(group, g, budget, seed)
                    assert _witness_key(w) == ref[2]
    return claims


def check_class_scans(group, classes):
    """The Baer-Suzuki and two-conjugate scans agree with their reference
    on every class."""
    bs = baer_suzuki_set(group, classes)
    for cls, v in zip(classes, bs.verdicts):
        if cls.representative.is_identity():
            assert _verdict_key(v) == (True, 1, None)
        else:
            assert _verdict_key(v) == reference_class_scan(group, cls, is_nilpotent)

    for cls in classes:
        g = cls.representative
        n = g.order()
        if is_prime(n) and n > 3:
            v = two_conjugate_test(group, g, class_of_g=cls)
            assert _verdict_key(v) == reference_class_scan(group, cls, is_solvable)


def check_group_scans(group, classes, four_space_limit=None):
    """The four-conjugate, class-pair and Thompson scans agree with their
    reference; four-conjugate classes whose space exceeds the limit are
    skipped."""
    for cls in classes:
        g = cls.representative
        space = len(_orbit_reps(group, g._img, cls._elements_raw)) * cls.class_size ** 2
        if four_space_limit is not None and space > four_space_limit:
            continue
        v = four_conjugate_element_test(group, g, class_of_g=cls)
        assert _verdict_key(v) == reference_four(group, cls)

    pv = class_pair_solvability(group, classes)
    assert (
        pv.all_classes_pass,
        pv.pairs_checked,
        pv.witness_element.images if pv.witness_element else None,
        _witness_key(pv.witness),
    ) == reference_pairs(group, classes)

    tv = thompson_test(group, group.order, classes)
    assert (
        tv.all_pairs_solvable,
        tv.pairs_checked,
        tuple(p.images for p in tv.witness_pair) if tv.witness_pair else None,
        tv.generated_order,
    ) == reference_thompson(group, classes)


@pytest.mark.parametrize("spec", SPECS)
def test_pruned_scans_match_reference(spec, group_of, classes_of):
    check_class_scans(group_of(spec), classes_of(spec))
    check_group_scans(group_of(spec), classes_of(spec))


@pytest.mark.parametrize("spec", ["S(5)", "A(5)", "direct(C(5),A(5))", "PSL2(7)"])
def test_scans_asking_the_whole_group_match_reference(spec, monkeypatch):
    # a fresh group, so its verdicts are first computed inside the scans
    group = build_bsgs(construct(spec))
    classes = conjugacy_classes(group)
    whole = []  # per predicate call: whether it asked the group itself
    for name in ("is_solvable", "is_nilpotent"):
        predicate = getattr(solvrad.criteria, name)

        def asked(h, predicate=predicate):
            whole.append(h is group)
            return predicate(h)

        monkeypatch.setattr(solvrad.criteria, name, asked)
    check_class_scans(group, classes)
    check_group_scans(group, classes)
    assert any(whole) and not all(whole)


@pytest.mark.parametrize("spec", ["S(3)", "S(4)"])
def test_a_nilpotency_failure_on_the_whole_solvable_group_is_solvable(spec):
    # S(4)'s 4-cycles and S(3)'s transpositions each fail with a pair that
    # generates the whole group: its nilpotency verdict is kept first, and
    # the witness then asks its solvability
    group = build_bsgs(construct(spec))
    witnesses = [
        v.witness
        for v in baer_suzuki_set(group, conjugacy_classes(group)).verdicts
        if v.witness is not None and v.witness.generated_order == group.order
    ]
    assert witnesses
    assert all(w.solvable and not w.nilpotent for w in witnesses)
    assert (group._residual, group._nilpotent) == (1, False)


@pytest.mark.parametrize("spec", ["A(5)", "S(5)", "PSL2(7)"])
def test_four_from_a_non_representative_matches_reference(spec, group_of, classes_of):
    # from the class representative, the smallest member, the scan starts
    # at (g, g, h3) and meets every failing triple there first; from the
    # largest member a prefix <g, h1> or <g, h1, h2> can fail first, and is
    # reported with its first completion
    group = group_of(spec)
    failed = 0
    for cls in classes_of(spec):
        x = cls.elements[-1]
        v = four_conjugate_element_test(group, x, class_of_g=cls)
        assert _verdict_key(v) == reference_four(group, cls, x)
        failed += not v.in_radical_claimed
    assert failed


@pytest.mark.parametrize("spec", ["A(5)", "S(5)", "PSL2(7)", "direct(S(4),C(2))"])
def test_class_scan_of_two_conjugates_matches_reference(spec, group_of, classes_of):
    # one inner level: <g, h1, h2>, h1 over the orbit representatives and
    # h2 over the class, every pair built by the reference
    group = group_of(spec)
    for cls in classes_of(spec):
        g = cls.representative
        raw = cls._elements_raw
        reps = _orbit_reps(group, g._img, raw)
        want = True, len(reps) * len(raw), None
        for hs in product(reps, raw):
            if not is_solvable(_span(group.degree, [g._img, *hs])):
                want = False, want[1], _reference_witness(group, g, hs, cls)
                break
        assert _verdict_key(_class_scan(group, g, cls, 10**6, conjugates=2)) == want


@pytest.mark.parametrize(
    "spec", ["S(4)", "direct(C(3),S(4))", "direct(C(5),A(5))", "PSL2(7)"]
)
def test_no_build_lies_in_an_earlier_passing_group(spec, group_of, classes_of,
                                                   monkeypatch):
    # every group a scan builds joins each live list that contains its
    # prefix, so no later tuple inside it is built
    group, classes = group_of(spec), classes_of(spec)
    scans = []  # per cover: the (generators, subgroup) built, in order
    init, span = solvrad.criteria._Cover.__init__, solvrad.criteria._span

    def new_cover(self, g):
        scans.append([])
        init(self, g)

    def recorded(group, raws):
        sub = span(group, raws)
        scans[-1].append((raws, sub))
        return sub

    monkeypatch.setattr(solvrad.criteria._Cover, "__init__", new_cover)
    monkeypatch.setattr(solvrad.criteria, "_span", recorded)
    for mode in (EXHAUSTIVE, RANDOMIZED):
        four_conjugate_radical(group, classes, mode, None, rng_seed=4)
    assert sum(map(len, scans)) > 5
    for builds in scans:
        passing = []
        for raws, sub in builds:
            assert not any(all(map(p._contains_raw, raws)) for p in passing)
            if is_solvable(sub):
                passing.append(sub)


# generators of a random group of degree at most 6
RANDOM_GENS = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.permutations(list(range(1, n + 1))).map(Permutation),
        min_size=1,
        max_size=3,
    )
)


@settings(max_examples=40, deadline=None)
@given(RANDOM_GENS)
def test_pruned_scans_match_reference_on_random_groups(gens):
    group = build_bsgs(GeneratorSet(gens[0].degree, gens))
    classes = conjugacy_classes(group)
    check_class_scans(group, classes)
    check_random_searches(group, classes, seeds=(0, 1), budget=10)
    if group.order <= 120:  # beyond, the unpruned references get too slow
        check_group_scans(group, classes, four_space_limit=2_000)


class _CountedSifts:
    """A cover group that counts its sifts, by (group, conjugate)."""

    def __init__(self, sub, k, sifts):
        self._sub, self._k, self._sifts = sub, k, sifts

    def _contains_raw(self, h):
        self._sifts[self._k, h] += 1
        return self._sub._contains_raw(h)


@settings(max_examples=60, deadline=None)
@given(RANDOM_GENS, st.data())
def test_cover_holds_is_membership_and_sifts_once(gens, data):
    # a cover of g over (some of) its class, with a few passing groups
    # <g, h...>: holds(k, mask) is whether group k contains every conjugate
    # of the mask, the powers of g counted as inside; a second query sifts
    # nothing, and no conjugate is sifted twice through one group
    group = build_bsgs(GeneratorSet(gens[0].degree, gens))
    g = data.draw(st.sampled_from(gens))._img
    members = class_of(group, Permutation._from_raw(g))._elements_raw[:12]
    powers, p = {g}, _mul(g, g)
    while p != g:
        powers.add(p)
        p = _mul(p, g)
    cover = _Cover(g)
    assert [cover.bit(h) for h in members] == [1 << j for j in range(len(members))]
    index = st.integers(min_value=0, max_value=len(members) - 1)
    sifts, subs = Counter(), []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        picked = data.draw(st.lists(index, max_size=2))
        sub = _span(group.degree, [g, *(members[j] for j in picked)])
        if is_solvable(sub):
            mask = sum(1 << j for j in set(picked))
            assert cover.add(_CountedSifts(sub, len(subs), sifts), mask) == len(subs)
            subs.append(sub)
    masks = st.integers(min_value=0, max_value=(1 << len(members)) - 1)
    for mask in data.draw(st.lists(masks, min_size=1, max_size=8)):
        for k, sub in enumerate(subs):
            want = all(
                h in powers or sub._contains_raw(h)
                for j, h in enumerate(members) if mask >> j & 1
            )
            assert cover.holds(k, mask) == want
            before = sifts.total()
            assert cover.holds(k, mask) == want
            assert sifts.total() == before
        assert cover.covers(range(len(subs)), mask) == any(
            cover.holds(k, mask) for k in range(len(subs))
        )
    assert max(sifts.values(), default=1) == 1


@pytest.mark.parametrize(
    "spec, solvable",
    [("S(5)", False), ("A(5)", False), ("PSL2(7)", False),
     ("direct(C(5),A(5))", False), ("S(4)", True), ("D(6)", True),
     ("direct(D(5),D(7))", True), ("direct(S(4),S(4))", True)],
)
def test_pruned_random_search_matches_reference(spec, solvable, group_of, classes_of):
    claims = check_random_searches(
        group_of(spec), classes_of(spec), seeds=(0, 1, 2), budget=20
    )
    # a solvable group passes every sample; the others show some witness
    assert all(claims) == solvable


RANDOMIZED_RADICALS = [(four_conjugate_radical, 3), (two_conjugate_radical, 1)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "spec", ["S(5)", "A(5)", "PSL2(7)", "direct(C(5),A(5))", "direct(S(4),S(4))"]
)
def test_randomized_radical_matches_a_fresh_stream_per_class(
    spec, seed, group_of, classes_of
):
    # the classes of one run read one stream of draws; each verdict must be
    # the one a search drawing alone, from a fresh Random(seed), reaches
    group, classes = group_of(spec), classes_of(spec)
    for budget in (4, 12):
        for radical, k in RANDOMIZED_RADICALS:
            result = radical(group, classes, RANDOMIZED, budget, seed)
            for v in result.verdicts:
                ref = reference_random_search(group, v.element, k, budget, seed)
                assert _verdict_key(v) == ref


@pytest.mark.parametrize("budget", [2, 7, 20])
def test_a_randomized_radical_draws_each_sample_once(budget, group_of, classes_of,
                                                     monkeypatch):
    draws = []

    def counted(group, rng):
        draws.append(group)
        return random_element(group, rng)

    monkeypatch.setattr(solvrad.criteria, "random_element", counted)
    # S4 x S4 is solvable: each of its 25 classes reads the whole budget
    spec = "direct(S(4),S(4))"
    result = four_conjugate_radical(
        group_of(spec), classes_of(spec), RANDOMIZED, budget, 0
    )
    assert len(result.verdicts) == 25
    assert all(v.tuples_checked == budget for v in result.verdicts)
    assert len(draws) == 3 * budget
    # C5 x A5: the first 5-element classes fail on an early sample, and a
    # later class of the radical reads on to the budget, extending the
    # stream past them
    draws.clear()
    spec = "direct(C(5),A(5))"
    result = two_conjugate_radical(
        group_of(spec), classes_of(spec), RANDOMIZED, budget, 0
    )
    checked = [v.tuples_checked for v in result.verdicts]
    assert not result.verdicts[0].in_radical_claimed
    assert checked[0] < max(checked) == budget
    assert len(draws) == budget


@pytest.mark.parametrize("spec", ["S(1)", "S(2)", "direct(S(4),S(4))", "file:sz8.json"])
def test_gathered_conjugates_are_conjugates(spec, group_of):
    # S(1) and S(2) give the shortest byte raws, Sz(8) has degree 65
    group = group_of(spec)
    gs = [random_element(group, random.Random(s)) for s in range(3)]
    gs += group.generators
    for k in (1, 3):
        draws = _Draws(group, 7)
        furthest = -1
        for i in (4, 0, 9, 2, 9):
            got = [draws.conjugates(i, k, g._img) for g in gs]
            # the stream holds the draws of every sample up to the furthest
            furthest = max(furthest, i)
            assert len(draws._raws) == len(draws._invs) == k * (furthest + 1)
            xs = [Permutation._from_raw(x) for x in draws.sample(i, k)]
            assert got == [tuple(conjugate(g, x)._img for x in xs) for g in gs]


@pytest.mark.parametrize(
    "spec, mode",
    [("direct(S(4),S(4))", RANDOMIZED), ("direct(C(3),S(4))", EXHAUSTIVE)],
)
def test_each_conjugate_is_sifted_once_per_cover_group(spec, mode, group_of,
                                                       classes_of, monkeypatch):
    sifts = Counter()
    groups = []  # keeps every sifting group alive, so no id() is reused

    def counted(self, g):
        groups.append(self)
        sifts[id(self), g] += 1
        return contains_raw(self, g)

    contains_raw = Bsgs._contains_raw
    monkeypatch.setattr(Bsgs, "_contains_raw", counted)
    budget = 50 if mode == RANDOMIZED else None
    result = four_conjugate_radical(
        group_of(spec), classes_of(spec), mode, budget, rng_seed=3
    )
    assert all(v.in_radical_claimed for v in result.verdicts)
    assert len(sifts) > 50
    assert max(sifts.values()) == 1


def _record_builds(monkeypatch):
    """The generator sets of every Bsgs built from here on."""
    builds = []
    init = Bsgs.__init__

    def counted(self, gens, bound=None):
        builds.append(gens)
        init(self, gens, bound)

    monkeypatch.setattr(Bsgs, "__init__", counted)
    return builds


def test_tuples_of_powers_of_g_are_not_built(group_of, classes_of, monkeypatch):
    # the class of g = (1,2,3) in S(3) is {g, g^-1}, so every tuple of its
    # members generates the cyclic <g>
    group = group_of("S(3)")
    cls = next(c for c in classes_of("S(3)") if c.class_size == 2)
    builds = _record_builds(monkeypatch)
    g = cls.representative
    assert four_conjugate_element_test(group, g, class_of_g=cls).in_radical_claimed
    assert four_conjugate_element_test(
        group, g, RANDOMIZED, 20, class_of_g=cls
    ).in_radical_claimed
    assert class_pair_solvability(group, [cls]).all_classes_pass
    assert builds == []


def test_commuting_tuples_are_not_built(group_of, classes_of, monkeypatch):
    # C4 x C6 is abelian, so every tuple commutes.  In S(4) the class of
    # (1,2)(3,4) is the three involutions of the Klein four-group, which
    # commute without being powers of one another.
    abelian = group_of("direct(C(4),C(6))")
    abelian_classes = classes_of("direct(C(4),C(6))")
    s4 = group_of("S(4)")
    klein = next(
        c for c in classes_of("S(4)")
        if c.class_size == 3 and c.representative.order() == 2
    )
    builds = _record_builds(monkeypatch)
    assert all(v.in_radical_claimed
               for v in baer_suzuki_set(abelian, abelian_classes).verdicts)
    assert class_pair_solvability(abelian, abelian_classes).all_classes_pass
    tv = thompson_test(abelian, abelian.order, abelian_classes)
    assert tv.all_pairs_solvable and tv.pairs_checked == 24 * 24
    for mode, budget in ((RANDOMIZED, 20), (EXHAUSTIVE, None)):
        four = four_conjugate_radical(abelian, abelian_classes, mode, budget, rng_seed=1)
        assert all(v.in_radical_claimed for v in four.verdicts)

    g = klein.representative
    klein_set = baer_suzuki_set(s4, [klein])
    assert klein_set.verdicts[0].in_radical_claimed
    # a claimed class that does not cover the group gives its normal closure
    assert klein_set.subgroup.order == 4
    assert class_pair_solvability(s4, [klein]).all_classes_pass
    for mode, budget in ((RANDOMIZED, 20), (EXHAUSTIVE, None)):
        assert four_conjugate_element_test(
            s4, g, mode, budget, class_of_g=klein
        ).in_radical_claimed
    assert builds == []


@pytest.mark.parametrize("spec", ["direct(C(5),A(5))", "direct(S(4),C(2))", "PSL2(7)"])
def test_scans_leave_no_garbage_cycles(spec, group_of, classes_of):
    # a cover's groups must be freed by reference counting once its scan
    # returns, not wait for the cyclic collector
    group, classes = group_of(spec), classes_of(spec)
    gc.collect()
    gc.disable()
    try:
        for mode in (EXHAUSTIVE, RANDOMIZED):
            four_conjugate_radical(group, classes, mode, None, rng_seed=2)
            two_conjugate_radical(group, classes, mode, 50, rng_seed=2)
        baer_suzuki_set(group, classes)
        class_pair_solvability(group, classes)
        thompson_test(group, group.order, classes)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_tuple_commuting_with_g_but_not_within_is_built(group_of):
    # (1,2,3) and (3,4,5) commute with g = (6,7,8) but not with each other,
    # and <g, (1,2,3), (3,4,5)> = C3 x A5 is not solvable
    g, h1, h2 = (parse_cycles(c, 8)._img for c in ("(6,7,8)", "(1,2,3)", "(3,4,5)"))
    i, hs, sub = _first_failure(group_of("S(8)"), g, [(h1, h2)], is_solvable)
    assert (i, hs, sub.order) == (0, (h1, h2), 180)


def test_a_commuting_tuple_is_multiplied_out_once(group_of, monkeypatch):
    # (1,2)(3,4) and (1,3)(2,4) commute; a repeated tuple is not retested
    g, h = (parse_cycles(c, 4)._img for c in ("(1,2)(3,4)", "(1,3)(2,4)"))
    calls = Counter()
    mul = solvrad.criteria._mul

    def counted(a, b):
        calls[a, b] += 1
        return mul(a, b)

    monkeypatch.setattr(solvrad.criteria, "_mul", counted)
    assert _first_failure(group_of("S(4)"), g, [(h,)] * 5, is_solvable) is None
    assert calls[g, h] == calls[h, g] == 1


@pytest.mark.parametrize(
    "spec", ["direct(D(4),S(3))", "direct(S(4),C(2))", "S(5)", "PSL2(7)"]
)
def test_thompson_builds_no_pair_from_an_earlier_class(spec, group_of, classes_of,
                                                       monkeypatch):
    # <r, y> with y in an earlier class is conjugate to a pair that the
    # earlier class's scan has passed
    group, classes = group_of(spec), classes_of(spec)
    class_index = {e: c for c, cls in enumerate(classes) for e in cls._elements_raw}
    pairs = []
    span = solvrad.criteria._span

    def recorded(group, raws):
        pairs.append(tuple(map(class_index.__getitem__, raws)))
        return span(group, raws)

    monkeypatch.setattr(solvrad.criteria, "_span", recorded)
    tv = thompson_test(group, group.order, classes)
    assert pairs and all(r <= y for r, y in pairs)
    assert any(r == y for r, y in pairs)  # a class meets its own members
    if tv.all_pairs_solvable:  # every class is scanned, not just the first
        assert len({r for r, _ in pairs}) > 1


@pytest.mark.parametrize(
    "spec, pairs_checked, generated_order",
    [("A(5)", 76, 60), ("PSL2(7)", 193, 168)],
)
def test_thompson_pairs_checked_pinned(spec, pairs_checked, generated_order, group_of):
    v = thompson_test(group_of(spec), 10_000)
    assert not v.all_pairs_solvable
    assert (v.pairs_checked, v.generated_order) == (pairs_checked, generated_order)


def test_two_conjugate_scan_reads_only_its_prefix_on_sz8(sz8):
    """Each tested class of Sz(8) fails at its 21st (order 7) or 2nd (orders
    5 and 13) orbit representative.  The scan produces no representative
    past that, while `tuples_checked` still counts every one, by Burnside's
    lemma."""
    classes = conjugacy_classes(sz8, 50_000)
    result = two_conjugate_radical(sz8, classes)
    by_rep = {cls.representative: cls for cls in classes}
    want = {5: (2, 1168), 7: (21, 596), 13: (2, 176)}
    orders = sorted(v.element.order() for v in result.verdicts)
    assert orders == [5, 7, 7, 7, 13, 13, 13]
    for v in result.verdicts:
        produced, checked = want[v.element.order()]
        assert not v.in_radical_claimed
        assert v.tuples_checked == checked
        assert len(by_rep[v.element].orbit_reps.found) <= produced


def reference_sharpness(n):
    """Every triple of transpositions of S(n) gets its own subgroup."""
    transpositions = []
    for i, j in combinations(range(n), 2):
        img = list(range(n))
        img[i], img[j] = j, i
        transpositions.append(_raw(img))
    subs = [_span(n, triple) for triple in combinations(transpositions, 3)]
    return SharpnessReport(
        triples_checked=len(subs),
        all_solvable=all(is_solvable(sub) for sub in subs),
        max_generated_order=max(sub.order for sub in subs),
    )


@pytest.mark.parametrize("n, triples", [(5, 120), (6, 455), (7, 1330), (8, 3276)])
def test_sharpness_matches_exhaustive_loop(n, triples):
    report = transposition_triple_sharpness(n)
    assert report == reference_sharpness(n)
    assert report == SharpnessReport(triples, True, 24)


def _canonical_form(edges, n):
    """The lexicographically smallest relabelling of an edge set over all
    n! permutations of its points."""
    return min(
        tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
        for p in permutations(range(n))
    )


def test_triple_shape_is_a_complete_invariant():
    # two triples share a shape exactly when some relabelling of the points
    # maps one edge set onto the other, i.e. when they lie in one S(6)-orbit
    triples = list(combinations(combinations(range(6), 2), 3))
    assert len(triples) == 455
    shapes = [_triple_shape(t) for t in triples]
    forms = [_canonical_form(t, 6) for t in triples]
    assert len(set(forms)) == 5
    assert len(set(zip(shapes, forms))) == len(set(shapes)) == len(set(forms))
    # the degree sequences of K3, P4, K1,3, P3+K2 and 3K2
    assert set(shapes) == {
        (2, 2, 2), (1, 1, 2, 2), (1, 1, 1, 3), (1, 1, 1, 1, 2), (1,) * 6
    }


class TestBudgets:
    """Each exhaustive scan raises once the logical space it reports, and
    no less, exceeds its budget."""

    def test_four_checks_the_reduced_space(self, group_of, classes_of):
        g = group_of("S(4)")
        cls = next(c for c in classes_of("S(4)") if c.class_size == 6)
        space = four_conjugate_element_test(g, cls.representative).tuples_checked
        assert space < cls.class_size ** 3
        v = four_conjugate_element_test(g, cls.representative, tuple_budget=space)
        assert v.tuples_checked == space
        with pytest.raises(BudgetExceededError):
            four_conjugate_element_test(
                g, cls.representative, tuple_budget=space - 1
            )

    def test_two(self, group_of, classes_of):
        g = group_of("A(5)")
        cls = next(c for c in classes_of("A(5)") if c.representative.order() == 5)
        space = two_conjugate_test(g, cls.representative).tuples_checked
        assert two_conjugate_test(g, cls.representative, budget=space).tuples_checked == space
        with pytest.raises(BudgetExceededError):
            two_conjugate_test(g, cls.representative, budget=space - 1)

    def test_bs(self, group_of, classes_of):
        g, classes = group_of("S(4)"), classes_of("S(4)")
        space = max(v.tuples_checked for v in baer_suzuki_set(g, classes).verdicts)
        baer_suzuki_set(g, classes, space)
        with pytest.raises(BudgetExceededError):
            baer_suzuki_set(g, classes, space - 1)

    def test_pairs(self, group_of, classes_of):
        g, classes = group_of("S(4)"), classes_of("S(4)")
        space = class_pair_solvability(g, classes).pairs_checked
        assert class_pair_solvability(g, classes, space).all_classes_pass
        with pytest.raises(BudgetExceededError):
            class_pair_solvability(g, classes, space - 1)
