"""Differential safety net for the pruned criterion scans.

Each criterion scan in `solvrad.criteria`, exhaustive or randomized, skips
candidates that lie in a passing subgroup it has already built, and the
Thompson test scans only centralizer-orbit representatives.  The reference
scans below are the unpruned loops: every candidate in canonical order (or
every random sample) gets its own subgroup, centralizer orbits come from
brute-force centralizers, and the Thompson scan visits every (class
representative, element) pair.  Verdicts, witnesses (conjugators and
generated order) and counters must agree, and no cover group may sift the
same conjugate twice.  The sharpness check builds one triple of
transpositions per graph shape; its reference builds them all.
"""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvrad.bsgs import (
    Bsgs,
    GeneratorSet,
    build_bsgs,
    conjugacy_classes,
    enumerate_elements,
    random_element,
)
from solvrad.criteria import (
    EXHAUSTIVE,
    RANDOMIZED,
    BudgetExceededError,
    SharpnessReport,
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
from solvrad.perm import Permutation, _inv, _mul, is_prime
from solvrad.structure import is_nilpotent, is_solvable

SPECS = ["S(4)", "S(5)", "A(5)", "D(6)", "direct(C(5),A(5))", "PSL2(7)"]


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


def reference_four(group, cls):
    g = cls.representative
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
                v = _random_search(group, g, k, budget, seed)
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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(1, n + 1))).map(Permutation),
            min_size=1,
            max_size=3,
        )
    )
)
def test_pruned_scans_match_reference_on_random_groups(gens):
    group = build_bsgs(GeneratorSet(gens[0].degree, gens))
    classes = conjugacy_classes(group)
    check_class_scans(group, classes)
    check_random_searches(group, classes, seeds=(0, 1), budget=10)
    if group.order <= 120:  # beyond, the unpruned references get too slow
        check_group_scans(group, classes, four_space_limit=2_000)


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


def test_tuples_of_powers_of_g_are_not_built(group_of, classes_of, monkeypatch):
    # the class of g = (1,2,3) in S(3) is {g, g^-1}, so every tuple of its
    # members generates the cyclic <g>
    group = group_of("S(3)")
    cls = next(c for c in classes_of("S(3)") if c.class_size == 2)
    builds = []
    init = Bsgs.__init__

    def counted(self, gens):
        builds.append(gens)
        init(self, gens)

    monkeypatch.setattr(Bsgs, "__init__", counted)
    g = cls.representative
    assert four_conjugate_element_test(group, g, class_of_g=cls).in_radical_claimed
    assert four_conjugate_element_test(
        group, g, RANDOMIZED, 20, class_of_g=cls
    ).in_radical_claimed
    assert class_pair_solvability(group, [cls]).all_classes_pass
    assert builds == []


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
        transpositions.append(tuple(img))
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
