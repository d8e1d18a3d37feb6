"""Differential safety net for the pruned criterion scans.

Each exhaustive scan in `solvrad.criteria` skips candidates that lie in a
passing subgroup it has already built, and the Thompson test scans only
centralizer-orbit representatives.  The reference scans below are the
unpruned loops: every candidate in canonical order gets its own subgroup,
centralizer orbits come from brute-force centralizers, and the Thompson
scan visits every (class representative, element) pair.  Verdicts,
witnesses (conjugators and generated order) and counters must agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvrad.bsgs import (
    GeneratorSet,
    build_bsgs,
    conjugacy_classes,
    enumerate_elements,
)
from solvrad.criteria import (
    BudgetExceededError,
    baer_suzuki_set,
    class_pair_solvability,
    four_conjugate_element_test,
    thompson_test,
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
    if group.order <= 120:  # beyond, the unpruned references get too slow
        check_group_scans(group, classes, four_space_limit=2_000)


@pytest.mark.parametrize(
    "spec, pairs_checked, generated_order",
    [("A(5)", 76, 60), ("PSL2(7)", 193, 168)],
)
def test_thompson_pairs_checked_pinned(spec, pairs_checked, generated_order, group_of):
    v = thompson_test(group_of(spec), 10_000)
    assert not v.all_pairs_solvable
    assert (v.pairs_checked, v.generated_order) == (pairs_checked, generated_order)


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
