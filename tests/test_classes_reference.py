"""Differential safety net for conjugation orbits walked on numbered elements.

`solvrad.bsgs` numbers the sorted group once and walks the classes on the
numbers, or numbers one class (class_of) in the walk that discovers it, and
keeps a parent and a generator per element instead of a conjugator per member; centralizer-orbit representatives come from a lazy
stream counted by Burnside's lemma.  The reference below is the full-tuple
orbit walk: every conjugate built as s y s^-1, an eager transversal with one
conjugator per member, re-rooted at the representative when the walk started
elsewhere.  Classes, representatives, conjugators, centralizer generators and
centralizer-orbit representatives must agree exactly, not just up to group
equality, and so must the centralizer and orbit representatives that each
class keeps.  Every prefix a stream produces is the reference's prefix of
that length, and its count, taken before any representative is read, is the
length of the completed walk.

The class table numbers the group from rows, each element's images of a
few points, as bytes when the degree fits a byte, and builds an element
when it is read, from a full row or from the transversals.  Its numbering
must equal the full-tuple numbering of sorted(_enumerate_raw(G)), every
conjugate built, in every array; each element's number must come back through the table's key; and
every built element must be the full tuple it stands for.
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvrad.bsgs import (
    GeneratorSet,
    MembershipError,
    _Chain,
    _Numbering,
    _OrbitReps,
    _Rebuilt,
    _enumerate_raw,
    _row_points,
    _sorted_rows,
    _table_rows,
    build_bsgs,
    centralizer,
    class_of,
    conjugacy_classes,
    enumerate_elements,
    same_subgroup,
)
from solvrad.criteria import reduced_conjugate_orbit
from solvrad.perm import Permutation, _identity, _inv, _mul, _raw
from solvrad.zoo import construct

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


def assert_orbit_numbering(group, cls, g):
    """The one-orbit table of cls = class_of(group, g): g is number 0 and
    the class's root; each member's number comes back through its key,
    which reads as its base image;
    actions[i][j] is the number of s_i e_j s_i^-1; each other member is
    s e_parent s^-1 for s = s_via, found after its parent; and the class
    lists its members ascending."""
    table = cls._table
    els, gens, base = table.elements, group._gens_raw, group._chain.base
    n = len(els)
    assert els[0] == g and cls._root == 0 and table.parent[0] == -1
    assert [table.number(e) for e in els] == list(range(n))
    assert [tuple(table.key(e)) for e in els] == [tuple(e[b] for b in base) for e in els]
    assert len(table.pos) == n == cls.class_size
    for s, act in zip(gens, table.actions, strict=True):
        si = _inv(s)
        assert [els[z] for z in act] == [_mul(s, _mul(e, si)) for e in els]
    for j in range(1, n):
        s, up = gens[table.via[j]], table.parent[j]
        assert up < j
        assert els[j] == _mul(s, _mul(els[up], _inv(s)))
    assert cls._elements_raw == sorted(els)
    assert table.cid == [0] * n and table.sizes == [n]


def check_class_of_non_representatives(group, classes):
    """class_of from members other than the representative re-roots its
    walk, and centralizers walked from such a member agree too."""
    for cls in classes:
        members = cls._elements_raw
        for h in sorted({members[-1], members[len(members) // 2]} - {members[0]}):
            p = Permutation._from_raw(h)
            got = class_of(group, p)
            assert_orbit_numbering(group, got, h)
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
    class, C_G(g) read from the class's walk, which is the subgroup that a
    fresh walk from g gives, and the C_G(g)-orbit representatives on the
    class, from the whole-group numbering (counted by Burnside's lemma where
    it applies) and from class_of's numbering of the class alone (counted
    by the walk)."""
    for cls in classes:
        members = cls._elements_raw
        for h in sorted({members[0], members[len(members) // 2], members[-1]}):
            p = Permutation._from_raw(h)
            cz = centralizer(group, p, cls)
            assert same_subgroup(cz, centralizer(group, p))
            assert all(_mul(s, h) == _mul(h, s) for s in cz._gens_raw)
            assert cz.order * cls.class_size == group.order
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


@pytest.mark.parametrize("seed", [None, 1])
def test_orbit_numbering_of_sz8(seed, sz8, sz8_classes):
    """class_of's one-orbit table on Sz(8), and on a relabelling that moves
    its base, from the representative, a middle and the last member of a
    few classes."""
    if seed is None:
        group, classes = sz8, sz8_classes
    else:
        group = build_bsgs(relabelled("file:sz8.json", seed))
        classes = conjugacy_classes(group)
    for cls in classes[1::3]:
        members = cls._elements_raw
        for h in (members[0], members[len(members) // 2], members[-1]):
            assert_orbit_numbering(group, class_of(group, Permutation._from_raw(h)), h)


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
    impostor = Permutation._from_raw(_raw(h))
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


def row_points(group):
    """The row points by their definition, also where conjugacy_classes
    takes every point instead."""
    base = group._chain.base
    points = set(range(max(base) + 1))
    points.update(s.index(b) for s in group._gens_raw for b in base)
    return sorted(points)


def walked(table):
    """The table with every class walked, in order."""
    for j in range(len(table.cid)):
        if table.cid[j] < 0:
            table.walk(j)
    return table


def numbered(group, points):
    """The whole group numbered from its rows on `points` as
    conjugacy_classes numbers it, and walked class by class."""
    rows, order = _sorted_rows(_table_rows(group, points), points, group.degree)
    return walked(_Numbering(group, rows, points, order))


def full_tuple_numbering(group):
    """The sorted image tuples numbered by place, each generator's action
    read from the built conjugates s e s^-1, and walked class by class."""
    elements = sorted(_enumerate_raw(group))
    number = {e: j for j, e in enumerate(elements)}
    n = len(elements)
    ref = object.__new__(_Numbering)
    ref.group, ref.elements, ref.sizes = group, elements, []
    ref.cid, ref.parent, ref.via = [-1] * n, [-1] * n, [0] * n
    ref.actions = [
        [number[_mul(s, _mul(e, _inv(s)))] for e in elements]
        for s in group._gens_raw
    ]
    return walked(ref)


def assert_numbering_matches(group, table, points):
    """Every array of `table` against the full-tuple numbering, each
    element read one at a time, and each element's number through its key;
    then, on a fresh numbering from the same rows, a few elements singly
    and the rest in one pass."""
    ref = full_tuple_numbering(group)
    elements = ref.elements
    n = len(elements)
    assert [table.elements[j] for j in range(n)] == elements
    degree = group.degree
    assert [table.images[j][:degree] for j in range(n)] == elements
    assert [table.number(e) for e in elements] == list(range(n))
    assert len(table.pos) == n
    assert type(table.key(elements[0])) is (bytes if group.degree <= 256 else tuple)
    assert table.actions == ref.actions
    assert table.cid == ref.cid
    assert table.parent == ref.parent
    assert table.via == ref.via
    assert table.sizes == ref.sizes
    fresh = numbered(group, points).elements
    assert isinstance(fresh, _Rebuilt)
    singles = [n - 1, 0, n // 2]
    assert [fresh[j] for j in singles] == [elements[j] for j in singles]
    js = [*range(n - 1, -1, -1), 0]
    assert fresh.read(js) == [elements[j] for j in js]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(1, n + 1))).map(Permutation),
            min_size=1,
            max_size=3,
        )
    )
)
def test_row_numbering_of_random_groups(gens):
    group = build_bsgs(GeneratorSet(gens[0].degree, gens))
    if group.order == 1:
        return  # no base point, so no row points: covered by the next test
    points = row_points(group)
    assert_numbering_matches(group, numbered(group, points), points)


def relabelled(spec, seed):
    """The group of `spec` with its points renamed by a seeded permutation,
    which moves its base."""
    gens = construct(spec)
    images = list(range(1, gens.degree + 1))
    random.Random(seed).shuffle(images)
    sigma = Permutation(images)
    return GeneratorSet(
        gens.degree, [sigma * g * sigma.inverse() for g in gens.generators]
    )


@pytest.mark.parametrize(
    "spec, seed, rows",
    [
        ("file:sz8.json", None, 6),
        ("file:sz8.json", 1, 9),
        ("PSL2(31)", None, 6),
        ("direct(PSL2(31),C(2))", None, 34),  # a base point at 32: every point
        ("C(1)", None, 1),  # the trivial group: every point
        ("C(2)", None, 2),
        ("PSL2(7)", None, 8),
        # either side of the byte rows: degrees 256 and 257
        ("direct(C(253),S(3))", None, 256),
        ("direct(C(254),S(3))", None, 257),
        ("direct(S(3),C(254))", None, 5),
        ("C(257)", None, 2),  # tuple rows on a one-point base: one-column slices
    ],
)
def test_class_table_numbering_matches_full_tuples(spec, seed, rows):
    gens = construct(spec) if seed is None else relabelled(spec, seed)
    group = build_bsgs(gens)
    points = _row_points(group)
    assert len(points) == rows
    table = conjugacy_classes(group)[0]._table
    assert (table.images is table.elements) == (rows < group.degree)
    assert_numbering_matches(group, table, points)


def test_a_full_row_table_builds_only_the_members_read():
    """The class build reads each class's representative, and the orbit
    walks of a scan read the full rows themselves, so no other member's
    image tuple is built."""
    group = build_bsgs(construct("A(6)"))
    classes = conjugacy_classes(group)
    table = classes[0]._table
    assert table.images is not table.elements
    reps = sorted(c._members[0] for c in classes)
    assert sorted(table.elements) == reps
    for c in classes:
        assert c.orbit_reps.count == len(list(c.orbit_reps))
    assert sorted(table.elements) == reps


def regular_s3():
    """S(3) acting on itself by left multiplication: a one-point base, so
    the base images are one-point rows."""
    elements = sorted(p._img for p in enumerate_elements(build_bsgs(construct("S(3)"))))
    place = {e: i for i, e in enumerate(elements)}
    gens = [
        Permutation._from_raw(_raw([place[_mul(s, e)] for e in elements]))
        for s in elements[1:3]
    ]
    return build_bsgs(GeneratorSet(6, gens))


def test_one_point_rows():
    group = regular_s3()
    assert group.order == 6 and len(group._chain.base) == 1
    elements = _enumerate_raw(group)
    for p in range(6):
        assert list(map(tuple, _enumerate_raw(group, [p]))) == [(e[p],) for e in elements]
    points = row_points(group)
    assert len(points) < group.degree
    assert_numbering_matches(group, numbered(group, points), points)
    # C_G(g) is smaller than the class of a transposition, so the orbits on
    # it are counted by Burnside's lemma from one-point base images
    check_group(group, conjugacy_classes(group))
    check_streams(group, conjugacy_classes(group))


@pytest.mark.parametrize("spec", ["PSL2(7)", "direct(C(5),A(5))", "PSL2(13)"])
def test_partly_read_streams_leave_no_numbering_alive(spec, group_of):
    """A stream read only in part holds a suspended walk; freed by reference
    counting with its class, it must not keep the class table alive."""

    def numberings():
        return sum(isinstance(o, _Numbering) for o in gc.get_objects())

    group = group_of(spec)
    gc.collect()
    gc.disable()
    try:
        before = numberings()
        classes = conjugacy_classes(group)
        for cls in classes:
            next(iter(cls.orbit_reps))
            assert cls.orbit_reps.count >= 1
        del classes, cls
        assert numberings() == before
    finally:
        gc.enable()
