"""Differential safety net for conjugation orbits walked on numbered elements.

`solvrad.bsgs` numbers the sorted group (or one class) once, walks the classes
on the numbers, and keeps a parent and a generator per element instead of a
conjugator per member; centralizer-orbit representatives come from a lazy
stream counted by Burnside's lemma.  The reference below is the full-tuple
orbit walk: every conjugate built as s y s^-1, an eager transversal with one
conjugator per member, re-rooted at the representative when the walk started
elsewhere.  Classes, representatives, conjugators, centralizer generators and
centralizer-orbit representatives must agree exactly, not just up to group
equality, and so must the centralizer and orbit representatives that each
class keeps.  Every prefix a stream produces is the reference's prefix of
that length, and its count, taken before any representative is read, is the
length of the completed walk.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvrad.bsgs import (
    GeneratorSet,
    MembershipError,
    _Chain,
    _OrbitReps,
    build_bsgs,
    centralizer,
    class_of,
    conjugacy_classes,
    enumerate_elements,
)
from solvrad.criteria import reduced_conjugate_orbit
from solvrad.perm import Permutation, _identity, _inv, _mul

SPECS = ["S(4)", "S(5)", "A(5)", "D(6)", "PSL2(7)", "direct(C(5),A(5))"]


def ref_conjugation_orbit(group, x):
    """transversal[y] = u with u x u^-1 = y, every conjugate built."""
    gens = group._gens_raw
    gens_inv = [_inv(s) for s in gens]
    transversal = {x: _identity(group.degree)}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            u = transversal[y]
            for s, si in zip(gens, gens_inv):
                z = _mul(s, _mul(y, si))
                if z not in transversal:
                    transversal[z] = _mul(s, u)
                    nxt.append(z)
        frontier = nxt
    return transversal


def ref_class_of(group, g):
    """(sorted members, transversal re-rooted at the smallest member)."""
    transversal = ref_conjugation_orbit(group, g)
    elements = sorted(transversal)
    rep = elements[0]
    if rep != g:
        to_g = _inv(transversal[rep])
        transversal = {y: _mul(u, to_g) for y, u in transversal.items()}
    return elements, transversal


def ref_classes(group):
    assigned = set()
    out = []
    for e in sorted(p._img for p in enumerate_elements(group)):
        if e not in assigned:
            elements, transversal = ref_class_of(group, e)
            assigned.update(elements)
            out.append((elements, transversal))
    return out


def ref_centralizer_gens(group, x, orbit=None, transversal=None):
    """Strong generators of C_G(x) from Schreier generators over the sorted
    orbit; the orbit is walked afresh when no transversal is given."""
    if transversal is None:
        transversal = ref_conjugation_orbit(group, x)
        orbit = sorted(transversal)
    target = group.order // len(orbit)
    chain = _Chain(group.degree, ())
    ident = _identity(group.degree)
    gens = group._gens_raw
    for y in orbit:
        u = transversal[y]
        for s in gens:
            z = _mul(s, _mul(y, _inv(s)))
            cand = _mul(_inv(transversal[z]), _mul(s, u))
            if cand != ident and not chain.contains(cand):
                chain.extend([cand])
                if chain.order() == target:
                    return chain.strong_generators()
    return chain.strong_generators()


def ref_orbit_partition_reps(elements_sorted, cent_gens):
    if not cent_gens:
        return list(elements_sorted)
    visited = set()
    reps = []
    for e in elements_sorted:
        if e in visited:
            continue
        reps.append(e)
        visited.add(e)
        frontier = [e]
        while frontier:
            nxt = []
            for y in frontier:
                for s in cent_gens:
                    z = _mul(s, _mul(y, _inv(s)))
                    if z not in visited:
                        visited.add(z)
                        nxt.append(z)
            frontier = nxt
    return reps


def assert_class_matches(group, cls, elements, transversal, stride=1):
    """Members, representative and every member's conjugator; the public
    conjugator() is asked for every `stride`-th member, the rest are read
    from the class's walk arrays with one shared cache."""
    assert cls._elements_raw == elements
    assert cls.representative._img == elements[0]
    known = {cls._root: cls._root_conj}
    for i, (j, h) in enumerate(zip(cls._members, elements)):
        if i % stride == 0:
            u = cls.conjugator(Permutation._from_raw(h))._img
        else:
            u = cls._table.conjugator(j, known)
        assert u == transversal[h]


def assert_stream_matches(reps, ref, burnside):
    """A fresh orbit-representative stream against the reference list: its
    count, taken first, comes from Burnside's lemma exactly when `burnside`
    (and the walk has not started), and equals the completed walk's length;
    each representative read extends the prefix by one, and the prefix read
    so far is the reference's prefix of that length."""
    els = reps._table.elements
    count = reps.count
    assert (reps.found == []) == burnside
    if not burnside:
        assert [els[j] for j in reps.found] == ref
    for k, j in enumerate(reps, 1):
        if burnside:
            assert len(reps.found) == k
        assert els[j] == ref[k - 1]
    assert len(reps.found) == count == len(ref)


def burnside_applies(cls, cent):
    return cls._table.whole() and cent.order < cls.class_size


def assert_centralizers_match(
    group, cls, elements, transversal, whole=None, walk=True
):
    """centralizer from the class (and, with `walk`, walked afresh) against
    the reference; then the orbit representatives of the class (and of
    `whole`, a sorted element list) under it."""
    rep = cls.representative
    cz = centralizer(group, rep, cls)
    assert cz._gens_raw == ref_centralizer_gens(
        group, rep._img, elements, transversal
    )
    # the class's own centralizer and orbit representatives, built once
    assert cls.centralizer._gens_raw == cz._gens_raw
    ref = ref_orbit_partition_reps(elements, cz._gens_raw)
    table = cls._table
    assert [table.elements[j] for j in cls.orbit_reps] == ref
    assert cls.orbit_reps.count == len(ref)
    assert cls.centralizer is cls.centralizer
    assert cls.orbit_reps is cls.orbit_reps
    if walk:
        assert centralizer(group, rep)._gens_raw == ref_centralizer_gens(
            group, rep._img
        )
    assert_stream_matches(cls.orbit_reps_under(cz), ref, burnside_applies(cls, cz))
    assert [p._img for p in reduced_conjugate_orbit(group, rep, cls, cz)] == ref
    if whole is not None:
        # Thompson's domain: every element, numbered by the class table
        everything = _OrbitReps(table, range(len(whole)), cz)
        assert_stream_matches(
            everything, ref_orbit_partition_reps(whole, cz._gens_raw), False
        )


def check_group(group, classes, thorough=True):
    """Every class against the reference.  Short of `thorough`, the public
    conjugator() is sampled, and the fresh centralizer walks and the
    whole-group orbit domain (Thompson's) are skipped."""
    ref = ref_classes(group)
    assert len(classes) == len(ref)
    whole = sorted(e for elements, _ in ref for e in elements) if thorough else None
    for cls, (elements, transversal) in zip(classes, ref):
        assert_class_matches(
            group, cls, elements, transversal, 1 if thorough else 97
        )
        assert_centralizers_match(
            group, cls, elements, transversal, whole, walk=thorough
        )


def check_class_of_non_representatives(group, classes):
    """class_of from members other than the representative re-roots its
    walk, and centralizers walked from such a member agree too."""
    for cls in classes:
        members = cls._elements_raw
        for h in sorted({members[-1], members[len(members) // 2]} - {members[0]}):
            p = Permutation._from_raw(h)
            got = class_of(group, p)
            elements, transversal = ref_class_of(group, h)
            assert_class_matches(group, got, elements, transversal)
            assert centralizer(group, got.representative, got)._gens_raw == (
                ref_centralizer_gens(group, members[0], elements, transversal)
            )
            assert centralizer(group, p, got)._gens_raw == ref_centralizer_gens(
                group, h
            )


def check_streams(group, classes):
    """For the representative, a middle and the last member g of every
    class, the C_G(g)-orbit representatives on the class, from the
    whole-group numbering (counted by Burnside's lemma where it applies) and
    from class_of's numbering of the class alone (counted by the walk)."""
    for cls in classes:
        members = cls._elements_raw
        for h in sorted({members[0], members[len(members) // 2], members[-1]}):
            p = Permutation._from_raw(h)
            cz = centralizer(group, p, cls)
            ref = ref_orbit_partition_reps(members, cz._gens_raw)
            assert_stream_matches(
                cls.orbit_reps_under(cz), ref, burnside_applies(cls, cz)
            )
            own = class_of(group, p)
            assert_stream_matches(own.orbit_reps_under(cz), ref, False)


@pytest.mark.parametrize("spec", SPECS)
def test_named_groups_match_reference(spec, group_of, classes_of):
    check_group(group_of(spec), classes_of(spec))


@pytest.mark.parametrize("spec", SPECS)
def test_class_of_from_non_representative(spec, group_of, classes_of):
    check_class_of_non_representatives(group_of(spec), classes_of(spec))


def test_sz8_matches_reference(sz8, sz8_classes):
    # the fresh walks and the whole-group domain are left to the smaller groups
    check_group(sz8, sz8_classes, thorough=False)


@pytest.mark.parametrize("spec", SPECS)
def test_streams_of_named_groups(spec, group_of, classes_of):
    check_streams(group_of(spec), classes_of(spec))


def test_streams_of_sz8(sz8, sz8_classes):
    check_streams(sz8, sz8_classes)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(1, n + 1))).map(Permutation),
            min_size=1,
            max_size=3,
        )
    )
)
def test_streams_of_random_groups(gens):
    group = build_bsgs(GeneratorSet(gens[0].degree, gens))
    check_streams(group, conjugacy_classes(group))


def test_conjugator_rejects_non_members(group_of, classes_of):
    """A permutation outside the class is refused, also one outside the
    group that has a member's base image."""
    group = group_of("A(5)")
    classes = classes_of("A(5)")
    cls = classes[1]
    with pytest.raises(MembershipError):
        cls.conjugator(classes[2].representative)
    h = list(cls._elements_raw[-1])
    i, j = (p for p in range(5) if p not in group._chain.base)
    h[i], h[j] = h[j], h[i]
    impostor = Permutation._from_raw(tuple(h))
    assert not group.contains(impostor)
    with pytest.raises(MembershipError):
        cls.conjugator(impostor)


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
def test_random_groups_match_reference(gens):
    group = build_bsgs(GeneratorSet(gens[0].degree, gens))
    classes = conjugacy_classes(group)
    check_group(group, classes)
    check_class_of_non_representatives(group, classes)
