import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from solvrad import bsgs, structure
from solvrad.bsgs import (
    Bsgs,
    CapExceededError,
    GeneratorSet,
    MembershipError,
    build_bsgs,
    centralizer,
    class_of,
    conjugacy_classes,
    enumerate_elements,
    normal_closure,
    random_element,
    same_subgroup,
    _Chain,
)
from solvrad.criteria import _span
from solvrad.perm import (
    DegreeMismatchError,
    Permutation,
    _identity,
    _inv,
    _mul,
    _raw,
    parse_cycles,
)
from solvrad.structure import derived_subgroup

SMALL_SPECS = [
    "S(3)", "S(4)", "S(5)", "A(4)", "A(5)", "C(12)", "D(4)", "D(5)", "D(6)",
    "PSL2(5)", "PSL2(7)", "direct(C(4),S(3))", "direct(C(5),A(5))",
]


def brute_elements(group):
    return bf.closure([g.images for g in group.generators], group.degree)


class TestBuild:
    def test_s5_order(self, group_of):
        assert group_of("S(5)").order == 120

    def test_trivial_group(self):
        g = build_bsgs(GeneratorSet(4, []))
        assert g.order == 1
        assert g.base == ()

    def test_mixed_degrees_rejected(self):
        with pytest.raises(DegreeMismatchError):
            GeneratorSet(4, [parse_cycles("(1,2)", 4), parse_cycles("(1,2)", 5)])

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_order_matches_brute_force_closure(self, spec, group_of):
        g = group_of(spec)
        assert g.order == len(brute_elements(g))

    @pytest.mark.parametrize("spec", ["S(4)", "A(5)", "D(6)", "PSL2(5)"])
    def test_strong_generators_are_members(self, spec, group_of):
        g = group_of(spec)
        for s in g.strong_generators:
            assert g.contains(s)

    def test_order_is_product_of_orbit_sizes(self, group_of):
        g = group_of("S(5)")
        n = 1
        for t in g.transversals:
            n *= len(t)
        assert n == g.order


class TestContains:
    def test_even_permutation_in_a5(self, group_of):
        assert group_of("A(5)").contains(parse_cycles("(1,2,3)", 5))

    def test_odd_permutation_not_in_a5(self, group_of):
        assert not group_of("A(5)").contains(parse_cycles("(1,2)", 5))

    def test_identity_always_member(self, group_of):
        for spec in ("S(4)", "C(12)", "PSL2(5)"):
            g = group_of(spec)
            assert g.contains(Permutation.identity(g.degree))

    @pytest.mark.parametrize("spec", ["S(4)", "A(5)", "D(6)", "direct(C(4),S(3))"])
    def test_sound_and_complete_vs_brute_force(self, spec, group_of):
        g = group_of(spec)
        members = brute_elements(g)
        assert {p.images for p in enumerate_elements(g)} == members
        rng = random.Random(11)
        for _ in range(50):
            images = list(range(1, g.degree + 1))
            rng.shuffle(images)
            p = Permutation(images)
            assert g.contains(p) == (p.images in members)

    def test_degree_mismatch(self, group_of):
        with pytest.raises(DegreeMismatchError):
            group_of("S(4)").contains(parse_cycles("(1,2)", 5))


class TestNormalClosure:
    def test_three_cycle_closes_to_a5(self, group_of):
        nc = normal_closure(group_of("S(5)"), [parse_cycles("(1,2,3)", 5)])
        assert nc.order == 60
        # confirm by element count of the brute-force closure of all conjugates
        s5 = brute_elements(group_of("S(5)"))
        conjugates = {bf.conj(a, (2, 3, 1, 4, 5)) for a in s5}
        assert len(bf.span(conjugates, 5)) == 60

    def test_identity_seed_gives_trivial_group(self, group_of):
        nc = normal_closure(group_of("S(4)"), [Permutation.identity(4)])
        assert nc.order == 1

    def test_central_factor_of_direct_product(self, group_of):
        g = group_of("direct(C(5),A(5))")
        nc = normal_closure(g, [parse_cycles("(1,2,3,4,5)", 10)])
        assert nc.order == 5

    def test_seed_not_member_rejected(self, group_of):
        with pytest.raises(MembershipError):
            normal_closure(group_of("A(5)"), [parse_cycles("(1,2)", 5)])

    @pytest.mark.parametrize("spec,seed", [("S(5)", "(1,2)"), ("A(5)", "(1,2,3)")])
    def test_conjugation_invariance(self, spec, seed, group_of):
        g = group_of(spec)
        nc = normal_closure(g, [parse_cycles(seed, g.degree)])
        for a in g.generators:
            for s in nc.generators:
                assert nc.contains(a * s * a.inverse())


class TestCentralizer:
    def test_five_cycle_in_s5(self, group_of):
        c = centralizer(group_of("S(5)"), parse_cycles("(1,2,3,4,5)", 5))
        assert c.order == 5

    def test_identity_centralizer_is_whole_group(self, group_of):
        g = group_of("S(4)")
        c = centralizer(g, Permutation.identity(4))
        assert same_subgroup(c, g)

    def test_double_transposition_in_s4(self, group_of):
        c = centralizer(group_of("S(4)"), parse_cycles("(1,2)(3,4)", 4))
        assert c.order == 8

    def test_matches_brute_force(self, group_of):
        g = group_of("D(6)")
        x = parse_cycles("(1,2,3,4,5,6)", 6)
        c = centralizer(g, x)
        brute = bf.centralizer_set(brute_elements(g), x.images)
        assert {p.images for p in enumerate_elements(c)} == brute

    def test_elements_commute_with_x(self, group_of):
        g = group_of("S(5)")
        x = parse_cycles("(1,2)(3,4)", 5)
        c = centralizer(g, x)
        for p in enumerate_elements(c):
            assert p * x == x * p

    def test_non_member_rejected(self, group_of):
        with pytest.raises(MembershipError):
            centralizer(group_of("A(5)"), parse_cycles("(1,2)", 5))


def _check_centralizer_from_class(g):
    """centralizer(g, rep, cls) is the subgroup centralizer(g, rep) computes
    from a fresh conjugation orbit, and both equal the brute-force
    centralizer, for every class of g."""
    elements = brute_elements(g)
    for cls in conjugacy_classes(g):
        rep = cls.representative
        from_class = centralizer(g, rep, cls)
        assert same_subgroup(from_class, centralizer(g, rep))
        brute = bf.centralizer_set(elements, rep.images)
        assert {p.images for p in enumerate_elements(from_class)} == brute


class TestCentralizerFromClass:
    @pytest.mark.parametrize(
        "spec", ["S(4)", "A(5)", "D(6)", "direct(C(4),S(3))", "PSL2(7)"]
    )
    def test_named_groups(self, spec, group_of):
        _check_centralizer_from_class(group_of(spec))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(
                st.permutations(list(range(1, n + 1))).map(Permutation),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_random_groups(self, gens):
        _check_centralizer_from_class(build_bsgs(GeneratorSet(gens[0].degree, gens)))

    def test_class_of_another_element_is_ignored(self, group_of, classes_of):
        # x is not the class's representative: the orbit of x is walked
        g = group_of("S(4)")
        cls = next(c for c in classes_of("S(4)") if c.class_size == 6)
        x = cls.elements[-1]
        assert x != cls.representative
        assert same_subgroup(centralizer(g, x, cls), centralizer(g, x))


class TestConjugacyClasses:
    def test_s4_class_sizes(self, classes_of):
        assert sorted(c.class_size for c in classes_of("S(4)")) == [1, 3, 6, 6, 8]

    def test_abelian_group_has_singletons(self, classes_of):
        cls = classes_of("C(5)")
        assert len(cls) == 5
        assert all(c.class_size == 1 for c in cls)

    def test_a5_class_sizes(self, classes_of):
        assert sorted(c.class_size for c in classes_of("A(5)")) == [1, 12, 12, 15, 20]

    @pytest.mark.parametrize("spec", ["S(4)", "A(5)", "D(6)", "direct(C(4),S(3))"])
    def test_classes_partition_the_group(self, spec, group_of, classes_of):
        g = group_of(spec)
        cls = classes_of(spec)
        assert sum(c.class_size for c in cls) == g.order
        seen = set()
        for c in cls:
            for e in c.elements:
                assert e not in seen
                seen.add(e)

    def test_matches_brute_force_partition(self, group_of, classes_of):
        g = group_of("S(4)")
        brute = {frozenset(c) for c in bf.classes_set(brute_elements(g))}
        mine = {frozenset(p.images for p in c.elements) for c in classes_of("S(4)")}
        assert mine == brute

    def test_elements_share_cycle_type(self, classes_of):
        for c in classes_of("S(5)"):
            want = c.representative.cycle_type()
            assert all(e.cycle_type() == want for e in c.elements)

    def test_orbit_stabilizer_for_every_class(self, group_of, classes_of):
        for spec in ("S(4)", "S(5)", "A(5)", "D(6)", "PSL2(5)"):
            g = group_of(spec)
            for c in classes_of(spec):
                cz = centralizer(g, c.representative)
                assert c.class_size * cz.order == g.order

    def test_cap_exceeded(self, group_of):
        with pytest.raises(CapExceededError):
            conjugacy_classes(group_of("S(5)"), element_cap=100)

    def test_representative_is_lex_minimal(self, classes_of):
        for c in classes_of("S(4)"):
            assert min(e.images for e in c.elements) == c.representative.images

    def test_conjugator_maps_rep_to_member(self, group_of, classes_of):
        g = group_of("S(5)")
        for c in classes_of("S(5)"):
            h = c.elements[-1]
            x = c.conjugator(h)
            assert x * c.representative * x.inverse() == h

    def test_class_of_single_element(self, group_of, classes_of):
        g = group_of("A(5)")
        p = parse_cycles("(1,2,3,4,5)", 5)
        c = class_of(g, p)
        match = [d for d in classes_of("A(5)") if d.representative == c.representative]
        assert len(match) == 1
        assert {e.images for e in c.elements} == {
            e.images for e in match[0].elements
        }


class TestRandomGeneratorStress:
    """Arbitrary seeded generator sets, cross-checked against brute force."""

    @pytest.mark.parametrize("seed", range(40))
    def test_order_membership_enumeration(self, seed):
        rng = random.Random(seed)
        degree = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(1, degree + 1))
            rng.shuffle(images)
            gens.append(Permutation(images))
        g = build_bsgs(GeneratorSet(degree, gens))
        brute = bf.closure([p.images for p in gens], degree)
        assert g.order == len(brute)
        assert {p.images for p in enumerate_elements(g)} == brute

    @pytest.mark.parametrize("seed", range(15))
    def test_normal_closure_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        degree = rng.randint(3, 6)
        gens = []
        for _ in range(2):
            images = list(range(1, degree + 1))
            rng.shuffle(images)
            gens.append(Permutation(images))
        g = build_bsgs(GeneratorSet(degree, gens))
        elements = sorted(bf.closure([p.images for p in gens], degree))
        seed_el = Permutation(list(elements[rng.randrange(len(elements))]))
        nc = normal_closure(g, [seed_el])
        conjugates = {bf.conj(a, seed_el.images) for a in elements}
        brute = bf.span(conjugates, degree)
        assert {p.images for p in enumerate_elements(nc)} == brute

    @pytest.mark.parametrize("seed", range(15))
    def test_centralizer_matches_brute_force(self, seed):
        rng = random.Random(200 + seed)
        degree = rng.randint(3, 6)
        gens = []
        for _ in range(2):
            images = list(range(1, degree + 1))
            rng.shuffle(images)
            gens.append(Permutation(images))
        g = build_bsgs(GeneratorSet(degree, gens))
        elements = sorted(bf.closure([p.images for p in gens], degree))
        x = Permutation(list(elements[rng.randrange(len(elements))]))
        c = centralizer(g, x)
        brute = bf.centralizer_set(set(elements), x.images)
        assert {p.images for p in enumerate_elements(c)} == brute


def _reference_sift(chain, g, start=0):
    """Strip g through the chain, inverting each coset representative."""
    for i in range(start, len(chain.base)):
        x = g[chain.base[i]]
        if x == chain.base[i]:
            continue
        u = chain.transversals[i].get(x)
        if u is None:
            return g, i
        g = _mul(_inv(u), g)
    return g, len(chain.base)


def _check_chain(group, seed=0, samples=20):
    """Every level stores u^-1 for each coset representative u and its
    sorted orbit points, and sift (which strips with the stored inverses)
    agrees with a sift that inverts on the fly, from every level, on random
    members and on random permutations of the degree."""
    chain = group._chain
    ident = _identity(chain.degree)
    assert len(chain.inverses) == len(chain.points) == len(chain.base)
    for t, t_inv, pts in zip(chain.transversals, chain.inverses, chain.points):
        assert t_inv.keys() == t.keys()
        assert pts == sorted(t)
        for pt, u in t.items():
            assert _mul(t_inv[pt], u) == ident
    rng = random.Random(seed)
    candidates = [random_element(group, rng)._img for _ in range(samples)]
    for _ in range(samples):
        images = list(ident)
        rng.shuffle(images)
        candidates.append(_raw(images))
    for g in candidates:
        for start in range(len(chain.base) + 1):
            assert chain.sift(g, start) == _reference_sift(chain, g, start)


class TestChainInverses:
    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_built_groups(self, spec, group_of):
        _check_chain(group_of(spec))

    @pytest.mark.parametrize(
        "spec, cycle", [("S(5)", "(1,2,3)"), ("direct(C(5),A(5))", "(1,2,3,4,5)"),
                        ("PSL2(7)", None), ("D(6)", None)]
    )
    def test_normal_closures_and_centralizers(self, spec, cycle, group_of):
        g = group_of(spec)
        x = parse_cycles(cycle, g.degree) if cycle else g.generators[0]
        _check_chain(normal_closure(g, [x]))
        _check_chain(centralizer(g, x))

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
    def test_random_groups(self, gens):
        g = build_bsgs(GeneratorSet(gens[0].degree, gens))
        _check_chain(g)
        _check_chain(normal_closure(g, gens[-1:]))
        _check_chain(centralizer(g, gens[0]))

    def test_sz8(self, sz8):
        _check_chain(sz8, samples=50)


def _chain_state(chain):
    """Everything a chain holds, dict insertion orders included."""
    return (
        chain.base,
        chain.levels,
        [list(t.items()) for t in chain.transversals],
        [list(t.items()) for t in chain.inverses],
        chain.points,
    )


class _UnboundedChain(_Chain):
    """A chain that ignores its bound, so its Schreier-Sims sweeps to the
    end; patched in as bsgs._Chain, it gives the unbounded builds."""

    __slots__ = ()

    def __init__(self, degree, gens=(), bound=None):
        super().__init__(degree, gens)


def _unbounded_closure(group, seeds):
    """normal_closure without the bound: every conjugation round runs, and
    every chain extension sweeps to the end."""
    ident = _identity(group.degree)
    amb = group._gens_raw
    closure_gens = []
    for s in seeds:
        if s._img != ident and s._img not in closure_gens:
            closure_gens.append(s._img)
    chain = _Chain(group.degree, closure_gens)
    frontier = list(closure_gens)
    while frontier:
        new = []
        for c in frontier:
            for a in amb:
                t = _mul(a, _mul(c, _inv(a)))
                if t not in new and not chain.contains(t):
                    new.append(t)
        chain.extend(new)
        closure_gens.extend(new)
        frontier = new
    return Bsgs._wrap(group.degree, chain, closure_gens)


def _check_bounded_build(group, gens_raw) -> bool:
    """A scan build of members of `group`, bounded by the group's order,
    has the unbounded chain of the same generators; returns whether the
    bound was reached."""
    bounded = _span(group, gens_raw)._chain
    assert bounded.bound == group.order
    assert _chain_state(bounded) == _chain_state(_Chain(group.degree, gens_raw))
    return bounded.order() == group.order


def _check_closure(group, seeds):
    nc = normal_closure(group, seeds)
    ref = _unbounded_closure(group, seeds)
    assert _chain_state(nc._chain) == _chain_state(ref._chain)
    assert nc._gens_raw == ref._gens_raw


def _check_centralizers(group, monkeypatch):
    classes = conjugacy_classes(group)
    bounded = [centralizer(group, c.representative, c) for c in classes]
    with monkeypatch.context() as m:
        m.setattr(bsgs, "_Chain", _UnboundedChain)
        free = [centralizer(group, c.representative, c) for c in classes]
    for a, b in zip(bounded, free):
        assert _chain_state(a._chain) == _chain_state(b._chain)


def _random_member_gens(group, rng, k):
    return [random_element(group, rng)._img for _ in range(k)]


class TestKnownOrderStop:
    """Builds inside a group of known order stop Schreier-Sims once they
    reach that order, and come out as the full sweep would."""

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_named_groups(self, spec, group_of):
        g = group_of(spec)
        assert _check_bounded_build(g, g._gens_raw)
        rng = random.Random(spec)
        for k in (1, 2, 2, 3):
            _check_bounded_build(g, _random_member_gens(g, rng, k))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(
                st.permutations(list(range(1, n + 1))).map(Permutation),
                min_size=1,
                max_size=3,
            )
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_random_groups(self, gens, seed):
        g = build_bsgs(GeneratorSet(gens[0].degree, gens))
        rng = random.Random(seed)
        for k in (1, 2, 3):
            _check_bounded_build(g, _random_member_gens(g, rng, k))
        _check_closure(g, [random_element(g, rng)])

    def test_sz8_random_subgroups(self, sz8):
        rng = random.Random(8)
        reached = [
            _check_bounded_build(sz8, _random_member_gens(sz8, rng, k))
            for k in (1, 2, 2, 2, 3, 3)
        ]
        assert any(reached) and not all(reached)

    @pytest.mark.parametrize(
        "spec", ["S(5)", "A(5)", "direct(C(5),A(5))", "PSL2(7)", "direct(C(4),S(3))"]
    )
    def test_closures_derived_and_centralizers(self, spec, group_of, monkeypatch):
        g = group_of(spec)
        for cls in conjugacy_classes(g):
            _check_closure(g, [cls.representative])
        h = g
        for _ in range(3):
            with monkeypatch.context() as m:
                m.setattr(structure, "normal_closure", _unbounded_closure)
                free = derived_subgroup(h)
            d = derived_subgroup(h)
            assert _chain_state(d._chain) == _chain_state(free._chain)
            assert d._gens_raw == free._gens_raw
            h = d
        _check_centralizers(g, monkeypatch)

    def test_sz8_closures_and_centralizers(self, sz8, sz8_classes, monkeypatch):
        for cls in sz8_classes:
            _check_closure(sz8, [cls.representative])
        _check_centralizers(sz8, monkeypatch)

    def test_bounded_sz8_closure_sifts_less(self, sz8, sz8_classes, monkeypatch):
        calls = [0]
        sift = _Chain.sift

        def counted(self, g, start=0):
            calls[0] += 1
            return sift(self, g, start)

        monkeypatch.setattr(_Chain, "sift", counted)
        rep = sz8_classes[1].representative
        nc = normal_closure(sz8, [rep])
        bounded, calls[0] = calls[0], 0
        ref = _unbounded_closure(sz8, [rep])
        assert nc.order == ref.order == sz8.order
        assert 0 < bounded < calls[0]

    def test_order_past_the_bound_raises(self, group_of):
        s4 = group_of("S(4)")
        with pytest.raises(MembershipError, match="exceeds its bound"):
            _Chain(4, s4._gens_raw, 3)
        a4 = group_of("A(4)")
        chain = _Chain(4, a4._gens_raw, a4.order)
        assert chain.order() == 12
        with pytest.raises(MembershipError, match="exceeds its bound"):
            chain.extend([parse_cycles("(1,2)", 4)._img])
        with pytest.raises(MembershipError, match="exceeds its bound"):
            Bsgs(GeneratorSet(4, s4.generators), a4.order // 2)


def _reference_enumeration(group):
    """Transversal products u_0 u_1 ... u_k, each level's points in
    ascending order, the first level varying slowest."""
    chain = group._chain

    def rec(i, prefix):
        if i == len(chain.base):
            yield prefix
            return
        for pt in sorted(chain.transversals[i]):
            yield from rec(i + 1, _mul(prefix, chain.transversals[i][pt]))

    return list(rec(0, _identity(group.degree)))


# The first 20 draws of random.Random(5), as image strings: a seeded
# randomized search depends on this exact sequence.
SEED_5_DRAWS = {
    "direct(S(4),S(4))": [
        "34127568", "13426587", "43125867", "43127658", "21348756",
        "23146578", "23146578", "12437856", "14327856", "13247865",
        "21438567", "14327856", "34128675", "23146578", "31427856",
        "32145786", "31246758", "32417856", "32148756", "13246875",
    ],
    "PSL2(7)": [
        "54186327", "18632547", "43652871", "34216785", "81276453",
        "72813645", "45812763", "41863257", "38154762", "38247516",
        "31756824", "84173265", "18725364", "48351627", "38247516",
        "51748263", "46273581", "41863257", "14257863", "35724618",
    ],
}


def _reference_draw(group, rng):
    """u_0 u_1 ... u_k with one product per chain level, each u_i drawn by
    rng.randrange over level i's sorted orbit points."""
    chain = group._chain
    g = _identity(group.degree)
    for t in chain.transversals:
        pts = sorted(t)
        g = _mul(g, t[pts[rng.randrange(len(pts))]])
    return g


# Chain levels per group: one (C(2)), three (S(4), PSL2(7), Sz(8)), six
# (S4 x S4) and none (the trivial group); only S4 x S4 merges levels.
DRAW_SPECS = ["C(2)", "S(4)", "PSL2(7)", "direct(S(4),S(4))", "C(1)", "file:sz8.json"]


class _NoRandrange(random.Random):
    def randrange(self, *args):
        raise AssertionError("random_element called rng.randrange")


class TestBlockedDraws:
    @pytest.mark.parametrize("spec", DRAW_SPECS)
    def test_draws_equal_the_level_by_level_product(self, spec, group_of):
        g = group_of(spec)
        for seed in range(20):
            rng, ref = _NoRandrange(seed), random.Random(seed)
            for _ in range(200):
                assert random_element(g, rng)._img == _reference_draw(g, ref)
            # the same getrandbits calls as randrange: both streams end in
            # the same state
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("spec", DRAW_SPECS)
    def test_tables_cover_the_levels_within_the_degree(self, spec, group_of):
        g = group_of(spec)
        random_element(g, 0)
        blocks = g._draw_blocks
        sizes = [n for block_sizes, _ in blocks for n in block_sizes]
        assert sizes == [len(t) for t in g._chain.transversals]
        for block_sizes, table in blocks:
            assert len(table) == math.prod(block_sizes) <= g.degree

    def test_merged_blocks(self, group_of):
        blocks = {}
        for spec in ("direct(S(4),S(4))", "file:sz8.json"):
            g = group_of(spec)
            random_element(g, 0)
            blocks[spec] = [sizes for sizes, _ in g._draw_blocks]
        # six levels in four blocks: three products per draw instead of six
        assert blocks["direct(S(4),S(4))"] == [[4], [4], [3, 2], [3, 2]]
        assert blocks["file:sz8.json"] == [[65], [64], [7]]

    def test_tables_are_built_once_on_the_first_draw(self, group_of):
        s4 = group_of("S(4)")
        built = build_bsgs(GeneratorSet(4, s4.generators))
        wrapped = normal_closure(s4, [parse_cycles("(1,2,3)", 4)])
        for g in (built, wrapped):
            assert g._draw_blocks is None
            random_element(g, 0)
            blocks = g._draw_blocks
            assert g.contains(random_element(g, 1))
            assert g._draw_blocks is blocks


# Base lengths 0 (the trivial group), 1, 2 and 3 (Sz(8)), with bytes keys;
# tuple keys past degree 256.
KEY_SPECS = [
    ("C(1)", 0), ("C(5)", 1), ("S(3)", 2), ("file:sz8.json", 3),
    ("C(257)", 1), ("direct(C(254),S(3))", 3),
]


class TestBaseImageKeys:
    @pytest.mark.parametrize("spec, base_length", KEY_SPECS)
    def test_keys_are_base_images_of_the_built_conjugates(
        self, spec, base_length, group_of
    ):
        g = group_of(spec)
        base = g._chain.base
        assert len(base) == base_length
        rng = random.Random(0)
        conjugators = g._gens_raw + [random_element(g, rng)._img for _ in range(5)]
        ys = [random_element(g, rng)._img for _ in range(30)]
        table = conjugacy_classes(g)[0]._table
        for s in conjugators:
            key = table.conjugate_key(s)
            for y in ys:
                z = _mul(s, _mul(y, _inv(s)))
                assert key(y) == table.key(z)
                assert type(key(y)) is (bytes if g.degree <= 256 else tuple)
                assert tuple(key(y)) == tuple(z[b] for b in base)


# Either side of the byte raws: degrees 65, 256 and 257.
RAW_TYPE_SPECS = ["file:sz8.json", "direct(C(253),S(3))", "C(257)"]


@pytest.mark.parametrize("spec", RAW_TYPE_SPECS)
def test_engine_raws_take_the_degree_type(spec, group_of, classes_of):
    """Every permutation the engine holds is bytes up to degree 256, and a
    tuple above: generators, chain levels, transversals and inverses, sift
    residues, draws, enumerated elements, class members and conjugators,
    and the chains of centralizers and normal closures."""
    g = group_of(spec)
    raw_type = bytes if g.degree <= 256 else tuple
    x = random_element(g, random.Random(0))
    cls = class_of(g, x)
    cent, closure = centralizer(g, x, cls), normal_closure(g, [x])
    raws = [*g._gens_raw, x._img, g._chain.sift(x._img)[0]]
    raws += [e._img for _, e in zip(range(5), enumerate_elements(g))]
    raws += [*cls._elements_raw[:5], cls.conjugator(x)._img]
    classes = classes_of(spec)
    raws += [c.representative._img for c in classes] + classes[-1]._elements_raw
    for chain in (g._chain, cent._chain, closure._chain):
        raws += [chain._ident, *chain.strong_generators()]
        raws += [s for level in chain.level_inverses for s in level]
        for t, t_inv in zip(chain.transversals, chain.inverses):
            raws += [*t.values(), *t_inv.values()]
    assert {type(r) for r in raws} == {raw_type}
    assert all(len(r) == g.degree for r in raws)


class TestRandomAndEnumerate:
    @pytest.mark.parametrize("spec", sorted(SEED_5_DRAWS))
    def test_seeded_draws_pinned(self, spec, group_of):
        g = group_of(spec)
        rng = random.Random(5)
        draws = ["".join(map(str, random_element(g, rng).images)) for _ in range(20)]
        assert draws == SEED_5_DRAWS[spec]

    @pytest.mark.parametrize("spec", ["S(4)", "D(6)", "PSL2(7)", "direct(C(4),S(3))"])
    def test_enumeration_order(self, spec, group_of):
        g = group_of(spec)
        assert [p._img for p in enumerate_elements(g)] == _reference_enumeration(g)

    def test_samples_are_members(self, group_of):
        g = group_of("A(5)")
        rng = random.Random(3)
        for _ in range(100):
            assert g.contains(random_element(g, rng))

    def test_fixed_seed_reproducible_sequence(self, group_of):
        g = group_of("S(5)")
        rng1, rng2 = random.Random(42), random.Random(42)
        s1 = [random_element(g, rng1) for _ in range(20)]
        s2 = [random_element(g, rng2) for _ in range(20)]
        assert s1 == s2

    def test_coupon_collector_s4(self, group_of):
        g = group_of("S(4)")
        rng = random.Random(5)
        seen = {random_element(g, rng).images for _ in range(10 * g.order)}
        assert len(seen) == g.order

    def test_trivial_group_sampling(self):
        g = build_bsgs(GeneratorSet(3, []))
        assert random_element(g, 0) == Permutation.identity(3)

    def test_uniformity_with_fixed_seed(self, group_of):
        # exact transversal sampling: frequencies over S(3) stay balanced
        g = group_of("S(3)")
        rng = random.Random(123)
        counts = {}
        n = 6000
        for _ in range(n):
            key = random_element(g, rng).images
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        assert max(counts.values()) - min(counts.values()) < 200

    def test_enumerate_s3(self, group_of):
        els = list(enumerate_elements(group_of("S(3)")))
        assert len(els) == 6
        assert len({e.images for e in els}) == 6

    def test_enumerate_trivial(self):
        g = build_bsgs(GeneratorSet(2, []))
        assert list(enumerate_elements(g)) == [Permutation.identity(2)]

    def test_enumerate_cap(self, group_of):
        with pytest.raises(CapExceededError):
            list(enumerate_elements(group_of("S(5)"), cap=50))

    @pytest.mark.parametrize("spec", ["S(4)", "D(6)", "PSL2(5)"])
    def test_enumerate_count_equals_order(self, spec, group_of):
        g = group_of(spec)
        els = list(enumerate_elements(g))
        assert len(els) == g.order
        assert len({e.images for e in els}) == g.order

    def test_enumerate_sz8_under_cap(self, sz8):
        count = sum(1 for _ in enumerate_elements(sz8, cap=50_000))
        assert count == 29120
