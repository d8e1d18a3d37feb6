import math

import pytest

import bruteforce as bf
import solvrad.bsgs
import solvrad.structure
from solvrad.bsgs import Bsgs, conjugacy_classes, enumerate_elements
from solvrad.perm import parse_cycles
from solvrad.structure import (
    ORACLE,
    SOLVABLE_RADICAL,
    derived_series,
    derived_subgroup,
    fitting_oracle,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    solvable_radical_oracle,
)
from solvrad.zoo import construct

SMALL_SPECS = [
    "S(3)", "S(4)", "S(5)", "A(4)", "A(5)", "C(12)", "D(4)", "D(6)",
    "PSL2(5)", "direct(C(4),S(3))",
]


def elements_of(g):
    return {p.images for p in enumerate_elements(g)}


class TestDerivedSubgroup:
    def test_s5_gives_a5_of_index_two(self, group_of):
        d = derived_subgroup(group_of("S(5)"))
        assert d.order == 60
        assert group_of("S(5)").order == 2 * d.order
        assert d.contains(parse_cycles("(1,2,3)", 5))

    def test_abelian_gives_trivial(self, group_of):
        assert derived_subgroup(group_of("C(12)")).order == 1

    def test_perfect_group_is_its_own_derived(self, group_of):
        a5 = group_of("A(5)")
        assert derived_subgroup(a5).order == a5.order

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_matches_brute_force(self, spec, group_of):
        g = group_of(spec)
        brute = bf.derived_set(elements_of(g), g.degree)
        assert elements_of(derived_subgroup(g)) == brute


class TestSeries:
    def test_terminated_xor_stabilized(self, group_of):
        for spec in ("S(4)", "A(5)", "C(12)"):
            s = derived_series(group_of(spec))
            assert s.terminated != s.stabilized

    def test_terms_strictly_decrease_until_end(self, group_of):
        for spec in SMALL_SPECS:
            s = derived_series(group_of(spec))
            orders = [t.order for t in s.terms]
            for a, b in zip(orders, orders[1:-1]):
                assert b < a
            if s.terminated:
                assert orders[-1] == 1

    def test_terms_are_nested(self, group_of):
        s = derived_series(group_of("S(4)"))
        for big, small in zip(s.terms, s.terms[1:]):
            assert all(big.contains(g) for g in small.generators)

    def test_solvable_series_length_bound(self, group_of):
        for spec in ("S(3)", "S(4)", "C(12)", "D(6)"):
            g = group_of(spec)
            s = derived_series(g)
            strict_steps = len(s.terms) - 1
            assert strict_steps <= math.log2(g.order) + 1

    def test_stabilized_series_shows_perfect_core(self, group_of):
        s = derived_series(group_of("S(5)"))
        assert s.stabilized
        assert s.terms[-1].order == 60  # the perfect core A5


class TestSolvableNilpotent:
    def test_s4_solvable(self, group_of):
        assert is_solvable(group_of("S(4)"))

    def test_a5_not_solvable(self, group_of):
        assert not is_solvable(group_of("A(5)"))

    def test_d4_nilpotent(self, group_of):
        assert is_nilpotent(group_of("D(4)"))

    def test_s3_not_nilpotent_but_solvable(self, group_of):
        assert not is_nilpotent(group_of("S(3)"))
        assert is_solvable(group_of("S(3)"))

    def test_abelian_direct_product_nilpotent(self, group_of):
        assert is_nilpotent(group_of("direct(C(4),C(9))"))

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_agrees_with_brute_force(self, spec, group_of):
        g = group_of(spec)
        els = elements_of(g)
        assert is_solvable(g) == bf.is_solvable_set(els, g.degree)
        assert is_nilpotent(g) == bf.is_nilpotent_set(els, g.degree)

    def test_burnside_direction(self, group_of):
        # order of the form p^a q^b forces solvability; is_solvable reads
        # that from the order, so the derived series checks the engine
        for spec in ("S(3)", "S(4)", "A(4)", "C(12)", "D(4)", "D(6)",
                     "direct(C(4),S(3))"):
            g = group_of(spec)
            assert len(bf.prime_divisors(g.order)) <= 2
            assert is_solvable(g)
            assert derived_series(g).terminated
        # three prime divisors: the order settles nothing, so is_solvable
        # computes, and finds the perfect A5
        for spec in ("A(5)", "S(5)"):
            g = group_of(spec)
            assert len(bf.prime_divisors(g.order)) == 3
            assert not is_solvable(g)
            assert derived_series(g).stabilized

    def test_lower_central_stabilizes_for_s3(self, group_of):
        s = lower_central_series(group_of("S(3)"))
        assert s.stabilized
        assert s.terms[-1].order == 3


class TestRadicalOracles:
    def test_solvable_group_radical_is_whole(self, group_of, classes_of):
        r = solvable_radical_oracle(group_of("S(4)"), classes_of("S(4)"))
        assert r.subgroup.order == 24
        assert r.kind == SOLVABLE_RADICAL and r.method == ORACLE

    def test_simple_group_radical_is_trivial(self, group_of, classes_of):
        r = solvable_radical_oracle(group_of("A(5)"), classes_of("A(5)"))
        assert r.subgroup.order == 1

    def test_direct_product_radical_is_c5_factor(self, group_of, classes_of):
        spec = "direct(C(5),A(5))"
        r = solvable_radical_oracle(group_of(spec), classes_of(spec))
        assert r.subgroup.order == 5
        assert r.subgroup.contains(parse_cycles("(1,2,3,4,5)", 10))

    def test_fitting_s4_is_klein_four(self, group_of, classes_of):
        f = fitting_oracle(group_of("S(4)"), classes_of("S(4)"))
        assert f.subgroup.order == 4
        assert elements_of(f.subgroup) == {
            (1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1),
        }

    def test_fitting_s3_is_c3(self, group_of, classes_of):
        f = fitting_oracle(group_of("S(3)"), classes_of("S(3)"))
        assert f.subgroup.order == 3

    def test_fitting_of_nilpotent_group_is_whole(self, group_of, classes_of):
        f = fitting_oracle(group_of("D(4)"), classes_of("D(4)"))
        assert f.subgroup.order == 8

    @pytest.mark.parametrize("spec", ["S(3)", "S(4)", "D(4)", "D(6)", "C(12)", "A(5)"])
    def test_radicals_match_maximal_normal_search(self, spec, group_of, classes_of):
        # independent oracle: enumerate all normal subgroups as class unions
        g = group_of(spec)
        els = elements_of(g)
        r = solvable_radical_oracle(g, classes_of(spec))
        best = bf.max_normal_with(els, g.degree, bf.is_solvable_set)
        assert elements_of(r.subgroup) == best
        f = fitting_oracle(g, classes_of(spec))
        best_n = bf.max_normal_with(els, g.degree, bf.is_nilpotent_set)
        assert elements_of(f.subgroup) == best_n

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_result_is_normal_and_has_claimed_property(self, spec, group_of, classes_of):
        g = group_of(spec)
        r = solvable_radical_oracle(g, classes_of(spec))
        for a in g.generators:
            for s in r.subgroup.generators:
                assert r.subgroup.contains(a * s * a.inverse())
        assert is_solvable(r.subgroup)
        f = fitting_oracle(g, classes_of(spec))
        assert is_nilpotent(f.subgroup)

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_fitting_contained_in_solvable_radical(self, spec, group_of, classes_of):
        g = group_of(spec)
        r = solvable_radical_oracle(g, classes_of(spec))
        f = fitting_oracle(g, classes_of(spec))
        assert all(r.subgroup.contains(x) for x in f.subgroup.generators)

    def test_member_reps_have_solvable_closures(self, group_of, classes_of):
        g = group_of("direct(C(5),A(5))")
        r = solvable_radical_oracle(g, classes_of("direct(C(5),A(5))"))
        assert all(r.subgroup.contains(rep) for rep in r.member_class_reps)


class ClosureLog:
    """Every normal closure the oracles build, as its seeds, through the
    names `bsgs` (a class's own closure) and `structure` (the radical and
    the series) call it by."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = solvrad.bsgs.normal_closure

        def logged(group, seeds):
            self.calls.append(list(seeds))
            return real(group, seeds)

        for module in (solvrad.bsgs, solvrad.structure):
            monkeypatch.setattr(module, "normal_closure", logged)

    def of_classes(self, classes):
        """The representatives whose own closure was built: a call on one
        nontrivial class's representative object (the radical of a group
        whose only member class is the identity's has the same seeds)."""
        reps = {id(c.representative) for c in classes[1:]}
        return [s[0] for s in self.calls if len(s) == 1 and id(s[0]) in reps]


def fresh(spec):
    """A new group object and its classes: no verdict or closure kept."""
    group = Bsgs(construct(spec))
    return group, conjugacy_classes(group)


class TestOracleClosures:
    # one closure per class decided by its own: Sz(8)'s 4A and 4B square
    # into 2A, and the classes of one cyclic subgroup's generators (7ABC,
    # 13ABC, and (c, a) in C(5) x A(5)) share a closure; the central
    # classes of C(n) x A(5) are powers of one generator's class, and the
    # other products' n-th powers lie in A(5)'s classes, already out
    @pytest.mark.parametrize(
        "spec, built",
        [("file:sz8.json", 4), ("direct(C(5),A(5))", 6), ("direct(C(31),A(5))", 4)],
    )
    @pytest.mark.parametrize("oracle", [solvable_radical_oracle, fitting_oracle])
    def test_classes_settled_from_powers(self, spec, built, oracle, monkeypatch):
        group, classes = fresh(spec)
        log = ClosureLog(monkeypatch)
        oracle(group, classes)
        assert len(log.of_classes(classes)) == built

    def test_a_passing_group_builds_no_closure(self, monkeypatch):
        group, classes = fresh("direct(S(4),S(4))")
        log = ClosureLog(monkeypatch)
        r = solvable_radical_oracle(group, classes)
        assert log.calls == []  # nor the radical's, nor a series term
        assert r.subgroup is group
        assert r.member_class_reps == [c.representative for c in classes]

    @pytest.mark.parametrize("spec", ["direct(S(4),A(5))", "file:sz8.json"])
    def test_oracles_share_each_class_closure(self, spec, monkeypatch):
        group, classes = fresh(spec)
        log = ClosureLog(monkeypatch)
        fitting = fitting_oracle(group, classes)
        first = log.of_classes(classes)
        log.calls.clear()
        radical = solvable_radical_oracle(group, classes)
        assert first and not set(map(id, first)) & set(map(id, log.of_classes(classes)))
        # the shared closures give each oracle its own answer
        for oracle, got in ((fitting_oracle, fitting), (solvable_radical_oracle, radical)):
            want = oracle(*fresh(spec))
            assert [p.images for p in got.member_class_reps] == [
                p.images for p in want.member_class_reps
            ]
            assert got.subgroup.order == want.subgroup.order
