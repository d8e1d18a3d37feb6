import math

import pytest

import bruteforce as bf
import solvrad.bsgs
import solvrad.structure
from solvrad.bsgs import Bsgs, GeneratorSet, conjugacy_classes, enumerate_elements
from solvrad.perm import parse_cycles
from solvrad.structure import (
    ORACLE,
    SOLVABLE_RADICAL,
    derived_subgroup,
    fitting_oracle,
    is_nilpotent,
    is_solvable,
    solvable_radical_oracle,
    solvable_residual_order,
)
from solvrad.zoo import construct

SMALL_SPECS = [
    "S(3)", "S(4)", "S(5)", "A(4)", "A(5)", "C(12)", "D(4)", "D(6)",
    "PSL2(5)", "direct(C(4),S(3))",
]


def elements_of(g):
    return {p.images for p in enumerate_elements(g)}


def walk_derived_orders(g):
    """The orders of g >= [g,g] >= ..., each term by derived_subgroup, down
    to 1 or to the first repeated order, as bf.derived_orders stops."""
    orders = [g.order]
    while True:
        g = derived_subgroup(g)
        orders.append(g.order)
        if g.order in (1, orders[-2]):
            return orders


def brute_derived_orders(g):
    return bf.derived_orders([p.images for p in g.generators], g.degree)


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
        # the walk ends at 1 (solvable) or at a repeated order (perfect)
        for spec, last in (("S(4)", 1), ("A(5)", 60), ("C(12)", 1)):
            orders = walk_derived_orders(group_of(spec))
            assert orders == brute_derived_orders(group_of(spec))
            assert orders[-1] == last

    def test_terms_strictly_decrease_until_end(self, group_of):
        for spec in SMALL_SPECS:
            orders = walk_derived_orders(group_of(spec))
            assert orders == brute_derived_orders(group_of(spec))
            for a, b in zip(orders, orders[1:-1]):
                assert b < a

    def test_terms_are_nested(self, group_of):
        big = group_of("S(4)")
        while big.order > 1:
            small = derived_subgroup(big)
            assert all(big.contains(g) for g in small.generators)
            big = small

    def test_solvable_series_length_bound(self, group_of):
        for spec in ("S(3)", "S(4)", "C(12)", "D(6)"):
            g = group_of(spec)
            strict_steps = len(walk_derived_orders(g)) - 1
            assert strict_steps <= math.log2(g.order) + 1

    def test_stabilized_series_shows_perfect_core(self, group_of):
        assert solvable_residual_order(group_of("S(5)")) == 60  # the perfect A5


# each branch of the p-part test, on orders with two prime divisors: the
# p-parts of distinct primes commute and each prime's parts generate a
# p-group (D(4)'s two 2-parts are built, C(12)'s one cyclic part per prime
# is not); a 2-part and a 3-part that do not commute (S(3), S(3) x C(2));
# commuting parts whose 2-parts generate S3, not a 2-group; generators
# that are all 2-elements, so their 2-parts generate the whole S3
NILPOTENT_CASES = [
    ("direct(D(4),C(3))", None, True),
    ("C(12)", None, True),
    ("S(3)", (3, ["(1,2)", "(1,2,3)"]), False),
    ("S3xC3", (6, ["(1,2)", "(2,3)", "(4,5,6)"]), False),
    ("direct(S(3),C(2))", None, False),
    ("S(3)-by-transpositions", (3, ["(1,2)", "(2,3)"]), False),
]


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
        # that from the order, so the brute-force derived series checks it
        for spec in ("S(3)", "S(4)", "A(4)", "C(12)", "D(4)", "D(6)",
                     "direct(C(4),S(3))"):
            g = group_of(spec)
            assert len(bf.prime_divisors(g.order)) <= 2
            assert is_solvable(g)
            assert brute_derived_orders(g)[-1] == 1
        # three prime divisors: the order settles nothing, so is_solvable
        # computes, and finds the perfect A5
        for spec in ("A(5)", "S(5)"):
            g = group_of(spec)
            assert len(bf.prime_divisors(g.order)) == 3
            assert not is_solvable(g)
            assert brute_derived_orders(g)[-1] == 60

    @pytest.mark.parametrize(
        "spec, cycles, nilpotent", NILPOTENT_CASES, ids=[c[0] for c in NILPOTENT_CASES]
    )
    def test_p_part_branches(self, spec, cycles, nilpotent):
        if cycles is None:
            gens = construct(spec)
        else:
            degree, text = cycles
            gens = GeneratorSet(degree, [parse_cycles(c, degree) for c in text])
        g = Bsgs(gens)  # fresh: no verdict kept from another test
        assert len(bf.prime_divisors(g.order)) == 2
        assert is_nilpotent(g) is nilpotent
        assert nilpotent == bf.is_nilpotent_set(elements_of(g), g.degree)


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
    the derived subgroup) call it by."""

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
