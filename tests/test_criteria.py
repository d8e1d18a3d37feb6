import random

import pytest

import solvrad.bsgs
from solvrad.bsgs import (
    CapExceededError,
    GeneratorSet,
    MembershipError,
    build_bsgs,
    centralizer,
    class_of,
    conjugacy_classes,
    random_element,
)
from solvrad.criteria import (
    EXHAUSTIVE,
    RANDOMIZED,
    BudgetExceededError,
    baer_suzuki_set,
    class_pair_solvability,
    four_conjugate_element_test,
    four_conjugate_radical,
    nonsolvable_witness_search,
    prime_order_elements,
    reduced_conjugate_orbit,
    thompson_test,
    transposition_triple_sharpness,
    two_conjugate_radical,
    two_conjugate_test,
)
from solvrad.perm import conjugate, parse_cycles
from solvrad.structure import (
    fitting_oracle,
    is_nilpotent,
    is_solvable,
    solvable_radical_oracle,
)
from solvrad.bsgs import same_subgroup


def regenerate(group_degree, element, witness):
    gens = [element] + [conjugate(element, x) for x in witness.conjugators]
    return build_bsgs(GeneratorSet(group_degree, gens))


def assert_witness_regenerates(group, element, witness):
    sub = regenerate(group.degree, element, witness)
    assert sub.order == witness.generated_order
    assert is_solvable(sub) == witness.solvable
    assert is_nilpotent(sub) == witness.nilpotent


class TestReducedConjugateOrbit:
    def test_abelian_ambient_gives_singletons(self, group_of, classes_of):
        g = group_of("C(5)")
        for cls in classes_of("C(5)"):
            cent = centralizer(g, cls.representative)
            reps = reduced_conjugate_orbit(g, cls.representative, cls, cent)
            assert len(reps) == cls.class_size == 1

    def test_s5_transposition_orbits(self, group_of, classes_of):
        g = group_of("S(5)")
        x = parse_cycles("(1,2)", 5)
        cls = class_of(g, x)
        cent = centralizer(g, x)
        reps = reduced_conjugate_orbit(g, x, cls, cent)
        assert len(reps) <= cls.class_size == 10
        # orbits: {g} itself, the disjoint transpositions, the overlapping ones
        assert len(reps) == 3

    def test_a5_five_cycle_orbit_sizes_sum_to_class(self, group_of):
        g = group_of("A(5)")
        x = parse_cycles("(1,2,3,4,5)", 5)
        cls = class_of(g, x)
        cent = centralizer(g, x)
        reps = reduced_conjugate_orbit(g, x, cls, cent)
        assert cls.class_size == 12
        assert len(reps) == 4  # two fixed powers plus two orbits of five

    def test_reduction_soundness_random_pairs(self, group_of):
        # solvability of <g, xgx^-1> equals that of the orbit representative
        g5 = group_of("S(5)")
        rng = random.Random(1234)
        for _ in range(25):
            g = random_element(g5, rng)
            if g.is_identity():
                continue
            x = random_element(g5, rng)
            h = conjugate(g, x)
            cls = class_of(g5, g)
            cent = centralizer(g5, g)
            reps = reduced_conjugate_orbit(g5, g, cls, cent)
            direct_answer = is_solvable(
                build_bsgs(GeneratorSet(5, [g, h]))
            )
            # find the representative of h's orbit
            rep_answers = {
                r.images: is_solvable(build_bsgs(GeneratorSet(5, [g, r])))
                for r in reps
            }
            orbit_rep = _orbit_rep_of(h, reps, cent)
            assert rep_answers[orbit_rep.images] == direct_answer


def _orbit_rep_of(h, reps, cent):
    targets = {r.images: r for r in reps}
    frontier = [h]
    seen = {h.images}
    while frontier:
        nxt = []
        for y in frontier:
            if y.images in targets:
                return targets[y.images]
            for s in cent.generators:
                z = conjugate(y, s)
                if z.images not in seen:
                    seen.add(z.images)
                    nxt.append(z)
        frontier = nxt
    raise AssertionError("orbit representative not found")


class TestTwoConjugate:
    def test_a5_five_cycle_has_witness(self, group_of):
        g = group_of("A(5)")
        v = two_conjugate_test(g, parse_cycles("(1,2,3,4,5)", 5))
        assert not v.in_radical_claimed
        assert v.witness is not None
        assert v.witness.generated_order == 60
        assert v.search_mode == EXHAUSTIVE
        assert_witness_regenerates(g, v.element, v.witness)

    def test_central_five_cycle_in_direct_product_passes(self, group_of):
        g = group_of("direct(C(5),A(5))")
        v = two_conjugate_test(g, parse_cycles("(1,2,3,4,5)", 10))
        assert v.in_radical_claimed
        assert v.witness is None
        assert v.tuples_checked == 1  # singleton class

    def test_verdict_iff_witness_absent(self, group_of, classes_of):
        g = group_of("PSL2(7)")
        for cls in classes_of("PSL2(7)"):
            n = cls.representative.order()
            if n in (5, 7, 11, 13):
                v = two_conjugate_test(g, cls.representative, class_of_g=cls)
                assert v.in_radical_claimed == (v.witness is None)

    def test_exhaustive_tuples_equal_reduced_count(self, group_of):
        g = group_of("A(5)")
        x = parse_cycles("(1,2,3,4,5)", 5)
        cls = class_of(g, x)
        cent = centralizer(g, x)
        reps = reduced_conjugate_orbit(g, x, cls, cent)
        v = two_conjugate_test(g, x, class_of_g=cls)
        assert v.tuples_checked == len(reps)

    def test_nonmember_rejected(self, group_of):
        with pytest.raises(ValueError):
            two_conjugate_test(group_of("A(5)"), parse_cycles("(1,2)", 5))

    def test_nonmember_raises_membership_error(self, group_of):
        for test in (two_conjugate_test, four_conjugate_element_test):
            with pytest.raises(MembershipError):
                test(group_of("A(5)"), parse_cycles("(1,2)", 5))

    @pytest.mark.parametrize("text,order", [("(1,2)", 2), ("(1,2,3)", 3),
                                            ("(1,2,3,4)", 4), ("(1,2)(3,4,5)", 6)])
    def test_order_precondition_enforced(self, text, order, group_of):
        g = group_of("S(5)")
        p = parse_cycles(text, 5)
        assert p.order() == order
        with pytest.raises(ValueError):
            two_conjugate_test(g, p)

    def test_randomized_mode_finds_witness(self, group_of):
        g = group_of("A(5)")
        v = two_conjugate_test(
            g, parse_cycles("(1,2,3,4,5)", 5), mode=RANDOMIZED, budget=100,
            rng_seed=7,
        )
        assert v.search_mode == RANDOMIZED
        assert v.witness is not None
        assert 1 <= v.tuples_checked <= 100
        assert_witness_regenerates(g, v.element, v.witness)

    def test_sz8_order_five_element_has_witness(self, sz8, sz8_classes):
        rep = next(
            c.representative
            for c in sz8_classes
            if c.representative.order() == 5
        )
        cls = next(c for c in sz8_classes if c.representative == rep)
        v = two_conjugate_test(sz8, rep, class_of_g=cls)
        assert not v.in_radical_claimed
        assert v.witness is not None and not v.witness.solvable
        assert_witness_regenerates(sz8, rep, v.witness)


class TestNonsolvableWitnessSearch:
    def test_a5_five_cycle_budget_200(self, group_of):
        g = group_of("A(5)")
        w = nonsolvable_witness_search(g, parse_cycles("(1,2,3,4,5)", 5), 200, 42)
        assert w is not None
        assert_witness_regenerates(g, parse_cycles("(1,2,3,4,5)", 5), w)

    def test_witness_fraction_in_a5(self, group_of):
        # exhaustive count: 10 of the 12 class members give a nonsolvable pair
        g = group_of("A(5)")
        x = parse_cycles("(1,2,3,4,5)", 5)
        cls = class_of(g, x)
        bad = sum(
            1
            for h in cls.elements
            if not is_solvable(build_bsgs(GeneratorSet(5, [x, h])))
        )
        assert (bad, cls.class_size) == (10, 12)

    def test_psl2_7_order_7_element(self, group_of, classes_of):
        g = group_of("PSL2(7)")
        rep = next(
            c.representative
            for c in classes_of("PSL2(7)")
            if c.representative.order() == 7
        )
        w = nonsolvable_witness_search(g, rep, 200, 1)
        assert w is not None
        assert_witness_regenerates(g, rep, w)

    def test_radical_element_exhausts_budget(self, group_of):
        g = group_of("direct(C(5),A(5))")
        w = nonsolvable_witness_search(g, parse_cycles("(1,2,3,4,5)", 10), 50, 1)
        assert w is None

    def test_order_precondition(self, group_of):
        with pytest.raises(ValueError):
            nonsolvable_witness_search(group_of("S(5)"), parse_cycles("(1,2)", 5), 10)

    def test_deterministic_for_fixed_seed(self, group_of):
        g = group_of("A(5)")
        x = parse_cycles("(1,2,3,4,5)", 5)
        w1 = nonsolvable_witness_search(g, x, 100, 5)
        w2 = nonsolvable_witness_search(g, x, 100, 5)
        assert w1.conjugators == w2.conjugators


class TestBudgetBelowOne:
    """A budget below 1 is refused in both modes: a randomized search that
    drew nothing would claim membership, and an exhaustive one would report
    a budget overrun."""

    @pytest.mark.parametrize("mode", [EXHAUSTIVE, RANDOMIZED])
    @pytest.mark.parametrize("budget", [0, -5])
    def test_element_tests_refuse(self, mode, budget, group_of):
        g = group_of("A(5)")
        x = parse_cycles("(1,2,3,4,5)", 5)
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            two_conjugate_test(g, x, mode, budget=budget)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            four_conjugate_element_test(g, x, mode, tuple_budget=budget)

    @pytest.mark.parametrize("mode", [EXHAUSTIVE, RANDOMIZED])
    def test_radicals_refuse(self, mode, group_of, classes_of):
        g, classes = group_of("A(5)"), classes_of("A(5)")
        for radical in (two_conjugate_radical, four_conjugate_radical):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                radical(g, classes, mode, 0)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            baer_suzuki_set(g, classes, 0)

    def test_witness_search_refuses(self, group_of):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            nonsolvable_witness_search(
                group_of("A(5)"), parse_cycles("(1,2,3,4,5)", 5), 0
            )

    def test_a_budget_of_one_reads_one_sample(self, group_of):
        v = two_conjugate_test(
            group_of("A(5)"), parse_cycles("(1,2,3,4,5)", 5), RANDOMIZED, budget=1
        )
        assert v.tuples_checked == 1


class TestUnknownMode:
    """A search mode other than EXHAUSTIVE and RANDOMIZED is refused, not
    run as an exhaustive scan."""

    @pytest.mark.parametrize("mode", ["exhaustiv", "RANDOMIZED", "random", None])
    def test_refused(self, mode, group_of, classes_of):
        g, classes = group_of("A(5)"), classes_of("A(5)")
        x = parse_cycles("(1,2,3,4,5)", 5)
        runs = [
            lambda: two_conjugate_test(g, x, mode),
            lambda: four_conjugate_element_test(g, x, mode),
            lambda: two_conjugate_radical(g, classes, mode),
            lambda: four_conjugate_radical(g, classes, mode),
        ]
        for run in runs:
            with pytest.raises(
                ValueError, match="mode must be 'exhaustive' or 'randomized'"
            ):
                run()


class TestBaerSuzuki:
    def test_s4_matches_fitting_oracle(self, group_of, classes_of):
        g = group_of("S(4)")
        r = baer_suzuki_set(g, classes_of("S(4)"))
        f = fitting_oracle(g, classes_of("S(4)"))
        assert same_subgroup(r.subgroup, f.subgroup)
        assert {p.images for p in r.member_class_reps} == {
            p.images for p in f.member_class_reps
        }

    def test_s3_transposition_fails_via_s3_pair(self, group_of, classes_of):
        g = group_of("S(3)")
        r = baer_suzuki_set(g, classes_of("S(3)"))
        assert r.subgroup.order == 3
        transposition_verdict = next(
            v for v in r.verdicts if v.element.order() == 2
        )
        assert not transposition_verdict.in_radical_claimed
        assert transposition_verdict.witness.generated_order == 6
        assert not transposition_verdict.witness.nilpotent
        assert transposition_verdict.witness.solvable

    def test_nilpotent_group_keeps_everything(self, group_of, classes_of):
        for spec in ("D(4)", "C(12)"):
            g = group_of(spec)
            r = baer_suzuki_set(g, classes_of(spec))
            assert r.subgroup.order == g.order

    def test_the_radical_is_generated_by_the_classes_given(
        self, group_of, classes_of
    ):
        s4 = group_of("S(4)")
        klein = [c for c in classes_of("S(4)") if c.class_size == 3]
        for radical in (baer_suzuki_set, four_conjugate_radical):
            assert radical(s4, []).subgroup.order == 1
            assert radical(s4, klein).subgroup.order == 4
        d4 = group_of("D(4)")
        assert baer_suzuki_set(d4, classes_of("D(4)")).subgroup is d4

    def test_witnesses_regenerate(self, group_of, classes_of):
        g = group_of("S(4)")
        r = baer_suzuki_set(g, classes_of("S(4)"))
        for v in r.verdicts:
            if v.witness is not None:
                assert_witness_regenerates(g, v.element, v.witness)


class TestFourConjugate:
    def test_transposition_quadruple_spans_s5(self, group_of):
        # the adjacent transpositions are mutual conjugates and generate S5
        gens = [parse_cycles(t, 5) for t in ("(1,2)", "(2,3)", "(3,4)", "(4,5)")]
        sub = build_bsgs(GeneratorSet(5, gens))
        assert sub.order == 120

    def test_every_s5_transposition_gets_a_witness(self, group_of):
        g = group_of("S(5)")
        for i in range(1, 5):
            for j in range(i + 1, 6):
                t = parse_cycles(f"({i},{j})", 5)
                v = four_conjugate_element_test(g, t)
                assert not v.in_radical_claimed
                assert v.witness is not None and len(v.witness.conjugators) == 3
                assert not v.witness.solvable
                assert_witness_regenerates(g, t, v.witness)

    def test_s4_whole_group(self, group_of, classes_of):
        r = four_conjugate_radical(group_of("S(4)"), classes_of("S(4)"))
        assert r.subgroup.order == 24

    def test_direct_product_matches_oracle(self, group_of, classes_of):
        spec = "direct(C(5),A(5))"
        g = group_of(spec)
        r = four_conjugate_radical(g, classes_of(spec))
        o = solvable_radical_oracle(g, classes_of(spec))
        assert same_subgroup(r.subgroup, o.subgroup)

    def test_exhaustive_tuple_count(self, group_of):
        g = group_of("S(4)")
        x = parse_cycles("(1,2)", 4)
        cls = class_of(g, x)
        cent = centralizer(g, x)
        reps = reduced_conjugate_orbit(g, x, cls, cent)
        v = four_conjugate_element_test(g, x, class_of_g=cls)
        assert v.tuples_checked == len(reps) * cls.class_size ** 2

    def test_budget_exceeded(self, group_of):
        g = group_of("S(5)")
        with pytest.raises(BudgetExceededError):
            four_conjugate_element_test(
                g, parse_cycles("(1,2)", 5), tuple_budget=10
            )

    def test_randomized_mode_falsifies(self, group_of):
        g = group_of("S(5)")
        v = four_conjugate_element_test(
            g, parse_cycles("(1,2)", 5), mode=RANDOMIZED, tuple_budget=200,
            rng_seed=3,
        )
        assert v.search_mode == RANDOMIZED
        assert v.witness is not None
        assert len(v.witness.conjugators) == 3
        assert_witness_regenerates(g, v.element, v.witness)


class TestGivenClass:
    """The class handed to an exhaustive per-element test as class_of_g."""

    @pytest.mark.parametrize(
        "test", [two_conjugate_test, four_conjugate_element_test]
    )
    def test_class_without_g_raises_membership_error(
        self, test, group_of, classes_of
    ):
        group = group_of("A(5)")
        g = parse_cycles("(1,2,3,4,5)", 5)
        without_g = [c for c in classes_of("A(5)") if g not in c.elements]
        assert without_g[0].representative.is_identity()
        assert any(c.representative.order() == 5 for c in without_g)
        other = build_bsgs(GeneratorSet(5, group.generators))  # a second build
        for cls in without_g:
            for given in (cls, class_of(other, cls.representative)):
                with pytest.raises(MembershipError):
                    test(group, g, class_of_g=given)

    @pytest.mark.parametrize(
        "test", [two_conjugate_test, four_conjugate_element_test]
    )
    def test_class_of_another_group_is_refused(self, test, group_of):
        """The class of g in <g> holds g, but a scan of it would read <g>'s
        centralizer and orbit representatives, and claim g for A(5)'s
        radical."""
        group = group_of("A(5)")
        g = parse_cycles("(1,2,3,4,5)", 5)
        cyclic = build_bsgs(GeneratorSet(5, [g]))
        assert not test(group, g).in_radical_claimed
        for mode in (EXHAUSTIVE, RANDOMIZED):
            with pytest.raises(MembershipError, match="class of another group"):
                test(group, g, mode, class_of_g=class_of(cyclic, g))

    @pytest.mark.parametrize(
        "test", [two_conjugate_test, four_conjugate_element_test]
    )
    def test_given_class_is_not_walked_again(
        self, test, group_of, classes_of, monkeypatch
    ):
        """A non-representative g takes its centralizer from the given
        class's walk: no conjugation orbit is walked for it."""
        group = group_of("A(5)")
        g = class_of(group, parse_cycles("(1,2,3,4,5)", 5)).elements[-1]
        own = class_of(group, g)
        whole = next(c for c in classes_of("A(5)") if g in c.elements)
        assert g not in (own.representative, whole.representative)
        expected = test(group, g)
        walks = []
        walk = solvrad.bsgs._orbit_numbering
        monkeypatch.setattr(
            solvrad.bsgs, "_orbit_numbering",
            lambda *args: walks.append(args) or walk(*args),
        )
        assert test(group, g, class_of_g=own) == expected
        got = test(group, g, class_of_g=whole)
        assert walks == []
        assert not got.in_radical_claimed
        assert got.tuples_checked == expected.tuples_checked
        # the conjugators follow the class's walk; the conjugates they give
        # are the canonical first failure
        assert [conjugate(g, x) for x in got.witness.conjugators] == [
            conjugate(g, x) for x in expected.witness.conjugators
        ]
        assert_witness_regenerates(group, g, got.witness)

    @pytest.mark.parametrize("foreign", ["S(5)", "A(5) built again"])
    @pytest.mark.parametrize(
        "criterion, mode",
        [
            ("bs", EXHAUSTIVE),
            ("four", EXHAUSTIVE),
            ("four", RANDOMIZED),
            ("two", EXHAUSTIVE),
            ("two", RANDOMIZED),
            ("pairs", EXHAUSTIVE),
            ("thompson", EXHAUSTIVE),
        ],
    )
    def test_classes_of_another_group_are_refused(
        self, criterion, mode, foreign, group_of, classes_of
    ):
        """Before, S(5)'s classes gave A(5) a trivial Fitting radical and a
        class-pair verdict, and a second build's classes ran every scan."""
        group = group_of("A(5)")
        if foreign == "S(5)":
            classes = classes_of("S(5)")
        else:
            classes = conjugacy_classes(build_bsgs(GeneratorSet(5, group.generators)))
        run = {
            "bs": lambda: baer_suzuki_set(group, classes),
            "four": lambda: four_conjugate_radical(group, classes, mode),
            "two": lambda: two_conjugate_radical(group, classes, mode),
            "pairs": lambda: class_pair_solvability(group, classes),
            "thompson": lambda: thompson_test(group, group.order, classes),
        }[criterion]
        with pytest.raises(MembershipError, match="class of another group"):
            run()


class TestClassPairSolvability:
    def test_s4_passes(self, group_of, classes_of):
        assert class_pair_solvability(group_of("S(4)"), classes_of("S(4)")).all_classes_pass

    def test_c7_passes(self, group_of, classes_of):
        assert class_pair_solvability(group_of("C(7)"), classes_of("C(7)")).all_classes_pass

    def test_a5_fails_with_regenerating_witness(self, group_of, classes_of):
        g = group_of("A(5)")
        v = class_pair_solvability(g, classes_of("A(5)"))
        assert not v.all_classes_pass
        assert v.witness.generated_order == 60
        assert_witness_regenerates(g, v.witness_element, v.witness)


class TestThompson:
    def test_s4_passes(self, group_of):
        assert thompson_test(group_of("S(4)"), 10_000).all_pairs_solvable

    def test_d6_passes(self, group_of):
        assert thompson_test(group_of("D(6)"), 10_000).all_pairs_solvable

    def test_a5_fails_with_nonsolvable_pair(self, group_of):
        v = thompson_test(group_of("A(5)"), 10_000)
        assert not v.all_pairs_solvable
        x, y = v.witness_pair
        sub = build_bsgs(GeneratorSet(5, [x, y]))
        assert sub.order == v.generated_order
        assert not is_solvable(sub)

    def test_cap_enforced(self, group_of):
        with pytest.raises(CapExceededError):
            thompson_test(group_of("S(5)"), 50)

    @pytest.mark.parametrize("spec", ["S(4)", "A(5)"])
    def test_given_classes_same_verdict(self, spec, group_of, classes_of):
        g = group_of(spec)
        assert thompson_test(g, 10_000, classes_of(spec)) == thompson_test(g, 10_000)

    def test_cap_enforced_with_classes(self, group_of, classes_of):
        with pytest.raises(CapExceededError):
            thompson_test(group_of("S(5)"), 50, classes_of("S(5)"))


class TestSharpness:
    def test_n5(self):
        r = transposition_triple_sharpness(5)
        assert r.triples_checked == 120
        assert r.all_solvable
        assert r.max_generated_order == 24

    def test_n6(self):
        r = transposition_triple_sharpness(6)
        assert r.triples_checked == 455
        assert r.all_solvable

    def test_path_triple_generates_s4(self):
        gens = [parse_cycles(t, 4) for t in ("(1,2)", "(2,3)", "(3,4)")]
        sub = build_bsgs(GeneratorSet(4, gens))
        assert sub.order == 24
        assert is_solvable(sub)

    @pytest.mark.parametrize("n", [4, 9, 0])
    def test_range_enforced(self, n):
        with pytest.raises(ValueError):
            transposition_triple_sharpness(n)


class TestPrimeOrderElements:
    def test_s4_has_none(self, classes_of):
        assert prime_order_elements(classes_of("S(4)")) == []

    def test_a5_has_the_two_five_cycle_classes(self, classes_of):
        profiles = prime_order_elements(classes_of("A(5)"))
        assert len(profiles) == 2
        assert all(p.order == 5 for p in profiles)

    def test_orders_are_prime_gt3(self, classes_of):
        for spec in ("S(5)", "PSL2(7)", "direct(C(5),A(5))"):
            for p in prime_order_elements(classes_of(spec)):
                assert p.order in (5, 7, 11, 13, 17, 19, 23)
