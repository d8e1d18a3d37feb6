"""Subgroup machinery: strong generating sets, order, membership, orbits,
normal closure, centralizers, conjugacy classes, element enumeration.

The engine is a deterministic Schreier-Sims over stabilizer chains: groups
here are desk scale (degree <= ~100, order <= ~10^6), so reproducibility is
worth more than randomized speed.  All search orders are canonical
(lexicographic on image arrays, sorted orbit points), so every derived
object is identical across runs.

Conjugation orbits are walked by base image: an element of a group is fixed
by the images of the group's base points, and (s y s^-1)(b) = s(y(s^-1(b))),
so a conjugate is identified from len(base) lookups before, or instead of,
building its image array.  Conjugacy classes number the sorted enumerated
group once (_Numbering): each group generator's conjugation action becomes
an array of numbers, and the class walks run on the numbers, recording a
class id, a parent and a generator per element instead of a conjugator.
Conjugators, and a centralizer's Schreier generators, are read from those
arrays on demand.  Centralizer-orbit representatives are produced lazily,
as far as a scan reads them, and counted by Burnside's lemma (_OrbitReps).
"""

from __future__ import annotations

import random
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .perm import (
    DegreeMismatchError,
    Permutation,
    _identity,
    _inv,
    _mul,
)

DEFAULT_ELEMENT_CAP = 200_000


class CapExceededError(RuntimeError):
    """An enumeration-based operation was asked to exceed its element cap."""


class MembershipError(ValueError):
    """A permutation required to lie in a group does not."""


class GeneratorSet:
    """A degree plus a list of generating permutations.

    Identity entries are dropped; the empty list generates the trivial group.
    """

    __slots__ = ("degree", "generators")

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        gens = []
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != {degree}"
                )
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = gens

    def __repr__(self) -> str:
        return f"GeneratorSet(degree={self.degree}, n_gens={len(self.generators)})"


class _Chain:
    """Mutable stabilizer chain over raw 0-based image tuples.

    levels[i] generates the stabilizer of base[:i]; transversals[i] maps each
    point of the i-th basic orbit to a coset representative u with
    u[base[i]] = point, inverses[i] maps the same point to u^-1, and
    points[i] lists the orbit's points in ascending order.  Sifting strips
    with the stored inverses, so it never inverts a permutation.

    `bound`, when given, is a proven upper bound on the order of the group
    the chain generates, such as the order of a group that contains every
    generator.  The product of the basic orbit lengths of a partial chain
    is a lower bound on that order, so once it equals the bound the chain
    is complete: every Schreier generator still to be checked lies in the
    group and sifts to the identity, and stopping there leaves base,
    levels, transversals, inverses and points as the full sweep would.
    An order past the bound means a generator outside the bounding group
    was given, and raises MembershipError.
    """

    __slots__ = (
        "degree", "base", "levels", "transversals", "inverses", "points",
        "bound", "_ident",
    )

    def __init__(
        self, degree: int, gens: Sequence[tuple] = (), bound: Optional[int] = None
    ):
        self.degree = degree
        self.bound = bound
        self.base: list[int] = []
        self.levels: list[list[tuple]] = []
        self.transversals: list[dict[int, tuple]] = []
        self.inverses: list[dict[int, tuple]] = []
        self.points: list[list[int]] = []
        self._ident = _identity(degree)
        new = [g for g in gens if g != self._ident]
        if new:
            self.extend(new)

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def _at_bound(self) -> bool:
        """Whether the chain's order has reached its bound, which makes it
        complete; raises if the order has passed the bound."""
        if self.bound is None:
            return False
        n = self.order()
        if n > self.bound:
            self._past_bound()
        return n == self.bound

    def _past_bound(self) -> None:
        raise MembershipError(
            f"the chain's order exceeds its bound {self.bound}: a generator "
            "lies outside the bounding group"
        )

    def sift(self, g: tuple, start: int = 0) -> tuple[tuple, int]:
        """Strip g through the chain from the given level.

        Returns (residue, level): level is where stripping got stuck, or
        len(base) if every base point could be fixed.
        """
        for i in range(start, len(self.base)):
            x = g[self.base[i]]
            if x == self.base[i]:
                continue
            u_inv = self.inverses[i].get(x)
            if u_inv is None:
                return g, i
            g = _mul(u_inv, g)
        return g, len(self.base)

    def contains(self, g: tuple) -> bool:
        residue, level = self.sift(g)
        return level == len(self.base) and residue == self._ident

    def _recompute_orbit(self, i: int) -> None:
        b = self.base[i]
        gens = self.levels[i]
        gens_inv = [_inv(s) for s in gens]
        T = {b: self._ident}
        Tinv = {b: self._ident}
        frontier = [b]
        while frontier:
            nxt = []
            for pt in frontier:
                u = T[pt]
                for s, s_inv in zip(gens, gens_inv):
                    img = s[pt]
                    if img not in T:
                        T[img] = _mul(s, u)
                        Tinv[img] = _mul(Tinv[pt], s_inv)
                        nxt.append(img)
            frontier = nxt
        self.transversals[i] = T
        self.inverses[i] = Tinv
        self.points[i] = sorted(T)

    def _new_base_point(self, g: tuple) -> None:
        bp = next(i for i, v in enumerate(g) if i != v)
        self.base.append(bp)
        self.levels.append([])
        self.transversals.append({bp: self._ident})
        self.inverses.append({bp: self._ident})
        self.points.append([bp])

    def extend(self, new_gens: Iterable[tuple]) -> None:
        """Add generators and restore the strong-generating property."""
        changed = False
        for g in new_gens:
            if g == self._ident or self.contains(g):
                continue
            if self._at_bound():
                self._past_bound()  # the complete chain does not contain g
            j = 0
            while j < len(self.base) and g[self.base[j]] == self.base[j]:
                j += 1
            if j == len(self.base):
                self._new_base_point(g)
            for l in range(j + 1):
                self.levels[l].append(g)
            for l in range(j + 1):
                self._recompute_orbit(l)
            changed = True
        if changed and not self._at_bound():
            self._schreier_sims()

    def _schreier_sims(self) -> None:
        """Deterministic verification sweep from the deepest level upward;
        it ends early once the chain reaches its bound."""
        ident = self._ident
        i = len(self.base) - 1
        while i >= 0:
            T = self.transversals[i]
            Tinv = self.inverses[i]
            gens = self.levels[i]
            restart = None
            for pt in self.points[i]:
                u = T[pt]
                for s in gens:
                    sg = _mul(Tinv[s[pt]], _mul(s, u))
                    if sg == ident:
                        continue
                    residue, j = self.sift(sg, i + 1)
                    if residue == ident:
                        continue
                    if j == len(self.base):
                        self._new_base_point(residue)
                    for l in range(i + 1, j + 1):
                        self.levels[l].append(residue)
                        self._recompute_orbit(l)
                    if self._at_bound():
                        return
                    restart = j
                    break
                if restart is not None:
                    break
            if restart is not None:
                i = restart
            else:
                i -= 1

    def strong_generators(self) -> list[tuple]:
        seen: dict[tuple, None] = {}
        for level in self.levels:
            for g in level:
                seen.setdefault(g)
        return list(seen)


class Bsgs:
    """Immutable base / strong generating set handle on a permutation group.

    Built once, then safe to share: queries never change the group, and the
    only state they add is the draw tables of `random_element`, built on
    the first draw.

    `bound`, when given, must be a proven upper bound on the order of the
    generated group, such as the order of a group that contains every
    generator; Schreier-Sims then stops once it reaches it (see _Chain).
    """

    __slots__ = ("degree", "_chain", "_gens_raw", "_order", "_draw_blocks")

    def __init__(self, gens: GeneratorSet, bound: Optional[int] = None):
        self.degree = gens.degree
        self._gens_raw = [g._img for g in gens.generators]
        self._chain = _Chain(gens.degree, self._gens_raw, bound)
        self._order = self._chain.order()
        self._draw_blocks = None

    @classmethod
    def _wrap(cls, degree: int, chain: _Chain, defining_raw: list[tuple]) -> "Bsgs":
        """Adopt an already-built chain (which must not be mutated afterwards)."""
        group = object.__new__(cls)
        group.degree = degree
        group._chain = chain
        group._gens_raw = defining_raw
        group._order = chain.order()
        group._draw_blocks = None
        return group

    @property
    def order(self) -> int:
        return self._order

    @property
    def base(self) -> tuple:
        """Base points, 1-based."""
        return tuple(b + 1 for b in self._chain.base)

    @property
    def strong_generators(self) -> list[Permutation]:
        return [Permutation._from_raw(g) for g in self._chain.strong_generators()]

    @property
    def transversals(self) -> list[dict[int, Permutation]]:
        """Per base point: orbit point (1-based) -> coset representative."""
        return [
            {pt + 1: Permutation._from_raw(u) for pt, u in t.items()}
            for t in self._chain.transversals
        ]

    @property
    def generators(self) -> list[Permutation]:
        """The defining generators."""
        return [Permutation._from_raw(g) for g in self._gens_raw]

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(f"degree {p.degree} != {self.degree}")
        return self._chain.contains(p._img)

    def is_trivial(self) -> bool:
        return self._order == 1

    def __repr__(self) -> str:
        return f"Bsgs(degree={self.degree}, order={self._order})"

    def _contains_raw(self, g: tuple) -> bool:
        return self._chain.contains(g)


def build_bsgs(gens: GeneratorSet) -> Bsgs:
    """Deterministic Schreier-Sims; order and membership are exact."""
    return Bsgs(gens)


def contains(group: Bsgs, p: Permutation) -> bool:
    return group.contains(p)


def same_subgroup(a: Bsgs, b: Bsgs) -> bool:
    """True iff a and b are the same subgroup (order + mutual membership)."""
    if a.degree != b.degree or a.order != b.order:
        return False
    return all(b._contains_raw(g) for g in a._gens_raw) and all(
        a._contains_raw(g) for g in b._gens_raw
    )


def normal_closure(group: Bsgs, seeds) -> Bsgs:
    """Smallest subgroup of `group` containing the seeds and invariant under
    conjugation by the group's generators.

    Seeds must be members.  Accepts a GeneratorSet or a list of Permutation.

    The closure lies in `group`, so its chain is bounded by the group's
    order (see _Chain): a closure that reaches it is the whole group, its
    Schreier-Sims ends there, and so do the conjugation rounds, since the
    next round would find only members and add no generator.
    """
    if isinstance(seeds, GeneratorSet):
        seed_perms = seeds.generators
        if seeds.degree != group.degree:
            raise DegreeMismatchError(
                f"seed degree {seeds.degree} != {group.degree}"
            )
    else:
        seed_perms = list(seeds)
    for s in seed_perms:
        if not group.contains(s):
            raise MembershipError(f"seed {s!r} is not a member of the group")

    ident = _identity(group.degree)
    amb = group._gens_raw
    amb_inv = [_inv(a) for a in amb]
    closure_gens: list[tuple] = []
    for s in seed_perms:
        if s._img != ident and s._img not in closure_gens:
            closure_gens.append(s._img)
    chain = _Chain(group.degree, closure_gens, group.order)
    frontier = list(closure_gens)
    while frontier and chain.order() < group.order:
        new: list[tuple] = []
        batch: set[tuple] = set()
        for c in frontier:
            for a, ai in zip(amb, amb_inv):
                t = _mul(a, _mul(c, ai))
                if t not in batch and not chain.contains(t):
                    new.append(t)
                    batch.add(t)
        chain.extend(new)
        closure_gens.extend(new)
        frontier = new
    return Bsgs._wrap(group.degree, chain, closure_gens)


def centralizer(
    group: Bsgs, x: Permutation, cls: Optional[ConjugacyClass] = None
) -> Bsgs:
    """Centralizer of x, via the conjugation orbit of x with Schreier
    generators; stops once the orbit-stabilizer bound |G|/|orbit| is hit.
    That order is exact, so it also bounds the centralizer's chain (see
    _Chain): the Schreier-Sims of the generator that reaches it ends there.

    The orbit is numbered (see _Numbering): each Schreier generator
    w^-1 s u takes its conjugators u and w from the walk's parent and
    generator arrays, on demand, and a walk edge (w = s u) is skipped
    without a product.  When x is the representative of `cls`, a class of
    `group`, the class's walk is the orbit and it is not walked again.
    """
    if not group.contains(x):
        raise MembershipError(f"{x!r} is not a member of the group")
    xr = x._img
    ident = _identity(group.degree)
    if cls is not None and cls._table.group is group and cls.representative == x:
        table, orbit, root = cls._table, cls._members, cls._root
        known = {root: cls._root_conj}
    else:
        table = _Numbering(group, sorted(_conjugation_orbit(group, xr)))
        root = table.pos[_base_image(xr, group._chain.base)]
        orbit = table.walk(root)
        known = {root: ident}
    target, rem = divmod(group.order, len(orbit))
    assert rem == 0, "orbit size must divide the group order"

    chain = _Chain(group.degree, (), target)
    gens = group._gens_raw
    parent, via = table.parent, table.via
    done = False
    for y in orbit:
        u = table.conjugator(y, known)
        for i, (s, act) in enumerate(zip(gens, table.actions)):
            z = act[y]
            if parent[z] == y and via[z] == i:
                continue  # a walk edge: the Schreier generator is trivial
            w = table.conjugator(z, known)
            cand = _mul(_inv(w), _mul(s, u))
            if cand != ident and not chain.contains(cand):
                chain.extend([cand])
                if chain.order() == target:
                    done = True
                    break
        if done:
            break
    assert chain.order() * len(orbit) == group.order
    return Bsgs._wrap(group.degree, chain, chain.strong_generators())


def _base_image(e: tuple, base: Sequence[int]) -> tuple:
    """The images of the base points under e, which fix e within its group."""
    return tuple([e[b] for b in base])


def _base_images(elements: Sequence[tuple], points: Sequence[int]) -> Iterable[tuple]:
    """The images of `points` under each of the elements, as tuples.
    itemgetter builds them in C, but returns a bare item for one index, so
    fewer than two points take the plain lookups."""
    if len(points) > 1:
        return map(itemgetter(*points), elements)
    return [_base_image(e, points) for e in elements]


def _conjugate_keys(
    gens: Sequence[tuple], base: Sequence[int]
) -> list[Callable[[tuple], tuple]]:
    """For each s in gens, the function y -> base image of s y s^-1, which
    reads (s y s^-1)(b) = s(y(s^-1(b))) without building the conjugate.
    The points s^-1(b) are found once per generator."""
    return [_conjugate_key(s, _base_image(_inv(s), base)) for s in gens]


def _conjugate_key(s: tuple, pull: tuple) -> Callable[[tuple], tuple]:
    """y -> base image of s y s^-1, given pull, the base image of s^-1.
    itemgetter returns a bare item, not a tuple, for a single index, so a
    base of fewer than two points takes the plain lookups."""
    if len(pull) < 2:
        return lambda y: tuple([s[y[b]] for b in pull])
    at_pull = itemgetter(*pull)
    return lambda y: itemgetter(*at_pull(y))(s)


def _conjugation_orbit(group: Bsgs, x: tuple) -> list[tuple]:
    """Orbit of x under conjugation by the group's generators, unsorted.
    Conjugates are identified by base image, so a conjugate costs one key
    of len(base) lookups and is built only when its key is new."""
    gens, base = group._gens_raw, group._chain.base
    steps = list(zip(gens, map(_inv, gens), _conjugate_keys(gens, base)))
    seen = {_base_image(x, base)}
    orbit = [x]
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for s, s_inv, key in steps:
                k = key(y)
                if k not in seen:
                    seen.add(k)
                    nxt.append(_mul(s, _mul(y, s_inv)))
        orbit += nxt
        frontier = nxt
    return orbit


class _Numbering:
    """Members of a group, numbered once in sorted order, with the
    conjugation action of the group's generators on the numbers and the
    orbit walks over it.  The numbered set is the whole group (the classes
    of `conjugacy_classes`) or one conjugation orbit (`class_of`).

    Since the numbers follow the sorted order, a sorted list of numbers is
    a sorted list of elements.  elements[j] is member j and pos maps a
    member's base image to j.  actions[i][j] is the number of s_i e_j s_i^-1
    for the i-th group generator s_i.  An orbit walk goes frontier by
    frontier, generators in order, the first discovery winning; it gives
    each member it reaches its orbit's id (`cid`), and, except at its root,
    the member it came from (`parent`, -1 at a root) and the generator
    (`via`): e_j = s e_parent s^-1 for s = s_via[j].  sizes[c] is the size
    of orbit c.  The lists hold the int objects that are pos's values, or
    small cached ints, so each costs one pointer per member.
    """

    __slots__ = ("group", "elements", "pos", "actions", "cid", "parent", "via", "sizes")

    def __init__(self, group: Bsgs, elements: list[tuple]):
        self.group = group
        self.elements = elements
        n = len(elements)
        base = group._chain.base
        self.pos = dict(zip(_base_images(elements, base), range(n)))
        # (s e s^-1)(b) = s(e(s^-1(b))): each generator's conjugate keys are
        # read in C, column by column, from the points s^-1(b)
        self.actions = []
        for s in group._gens_raw:
            columns = [
                map(s.__getitem__, map(itemgetter(p), elements))
                for p in _base_image(_inv(s), base)
            ]
            self.actions.append(list(map(self.pos.__getitem__, zip(*columns))))
        self.cid = [-1] * n
        self.parent = [-1] * n
        self.via = [0] * n
        self.sizes: list[int] = []

    def whole(self) -> bool:
        """Whether the numbered set is the whole group."""
        return len(self.elements) == self.group.order

    def walk(self, root: int) -> list[int]:
        """Walk the orbit of member `root`, which no walk has reached yet,
        as the next orbit id; returns its members' numbers, ascending."""
        c = len(self.sizes)
        cid, parent, via = self.cid, self.parent, self.via
        steps = list(enumerate(self.actions))
        cid[root] = c
        members = [root]
        frontier = [root]
        while frontier:
            nxt = []
            for y in frontier:
                for i, act in steps:
                    z = act[y]
                    if cid[z] < 0:
                        cid[z] = c
                        parent[z] = y
                        via[z] = i
                        nxt.append(z)
            members += nxt
            frontier = nxt
        members.sort()
        self.sizes.append(len(members))
        return members

    def conjugator(self, j: int, known: dict) -> tuple:
        """The conjugator of member j (u x u^-1 = e_j, for the root x of j's
        walk), as the product of the generators on its path up to the
        nearest member in `known`; `known` holds at least the conjugator of
        the walk's root and keeps every conjugator computed on the way."""
        path = []
        while j not in known:
            path.append(j)
            j = self.parent[j]
        u = known[j]
        gens = self.group._gens_raw
        for k in reversed(path):
            u = _mul(gens[self.via[k]], u)
            known[k] = u
        return u


class _OrbitReps:
    """The smallest member of each orbit of a group C conjugating a set of
    numbered members (a class, or the whole group), as ascending numbers,
    produced lazily.

    Iterating yields the representatives found so far, then walks on only
    as far as the consumer reads: the next representative is the smallest
    member that no orbit walk has reached, and its own orbit is walked only
    when the representative after it is asked for.  Every iterator shares
    one growing prefix, `found`.

    `count` is the number of orbits.  When the members are one class K of a
    numbering of the whole group, C must be C_G(g) for some g in K; if
    |C| < |K|, the count is found by Burnside's lemma without the walk (see
    _burnside_count).  Otherwise it is the length of the completed walk.
    """

    __slots__ = ("_table", "_members", "_cent", "found", "_walk", "_count")

    def __init__(self, table: _Numbering, members: Sequence[int], cent: Bsgs):
        self._table = table
        self._members = members
        self._cent = cent
        self.found: list[int] = []
        self._walk = self._reps()
        self._count: Optional[int] = None

    def __iter__(self) -> Iterator[int]:
        found = self.found
        i = 0
        while True:
            if i == len(found):
                j = next(self._walk, None)
                if j is None:
                    return
                found.append(j)
            yield found[i]
            i += 1

    def _reps(self) -> Iterator[int]:
        table = self._table
        els, pos = table.elements, table.pos
        keys = _conjugate_keys(self._cent._gens_raw, table.group._chain.base)
        seen: set[int] = set()
        for e in self._members:
            if e in seen:
                continue
            yield e
            seen.add(e)
            frontier = [e]
            while frontier:
                nxt = []
                for y in frontier:
                    ey = els[y]
                    for key in keys:
                        z = pos[key(ey)]
                        if z not in seen:
                            seen.add(z)
                            nxt.append(z)
                frontier = nxt
        assert len(seen) == len(self._members)

    @property
    def count(self) -> int:
        if self._count is None:
            table, n = self._table, len(self._members)
            one_class = n == table.sizes[table.cid[self._members[0]]]
            if table.whole() and one_class and self._cent.order < n:
                self._count = _burnside_count(table, self._cent)
            else:
                self._count = sum(1 for _ in self)
        return self._count


def _burnside_count(table: _Numbering, cent: Bsgs) -> int:
    """The number of C-orbits on the class K of g, for C = C_G(g) and a
    numbering of the whole group G, by Burnside's lemma.  An element c of a
    class L fixes |K n C_G(c)| = |K| |L n C| / |L| members of K (count the
    commuting pairs in K x L two ways), so the orbits number
    (1/|C|) sum over c in C of that = (|G|/|C|^2) sum over L of |L n C|^2 / |L|.
    |L n C| is read from the class ids of C's enumerated elements, and
    |G|/|L| is an integer."""
    keys = _base_images(_enumerate_raw(cent), table.group._chain.base)
    hits = Counter(map(table.cid.__getitem__, map(table.pos.__getitem__, keys)))
    order = table.group.order
    total = sum(m * m * (order // table.sizes[c]) for c, m in hits.items())
    count, rem = divmod(total, cent.order ** 2)
    assert rem == 0, "Burnside's count must be an integer"
    return count


class ConjugacyClass:
    """A conjugacy class, fully enumerated: representative (the lexicographically
    smallest member), all elements, and the class size.

    Members are numbers of a _Numbering, of the whole group or of the class
    alone, kept ascending.  Instead of a conjugator per member, the class
    reads conjugator(h) from the numbering's walk arrays on demand: the
    generators on h's path to the walk's root, times the root's conjugator,
    which is the re-rooting factor u(rep)^-1 when the walk started at
    another member and the identity otherwise.

    The class also computes, once and on first use, what a criterion scan of
    it needs: `centralizer`, C_G(rep) from the class's walk, and `orbit_reps`,
    the lazily produced ascending smallest members of the C_G(rep)-orbits
    on the class, with their count.
    """

    __slots__ = (
        "representative", "_table", "_members", "_root", "_root_conj", "degree",
        "_centralizer", "_orbit_reps",
    )

    def __init__(self, table: _Numbering, members: list[int], root: int):
        self.degree = table.group.degree
        self._table = table
        self._members = members
        self._root = root
        rep = members[0]
        conj = _identity(self.degree)
        if rep != root:
            # re-root at the canonical representative: the root's conjugator
            # becomes to_g, which maps rep back to g (to_g rep to_g^-1 = g)
            conj = _inv(table.conjugator(rep, {root: conj}))
        self._root_conj = conj
        self.representative = Permutation._from_raw(table.elements[rep])
        self._centralizer = self._orbit_reps = None

    @property
    def _elements_raw(self) -> list[tuple]:
        return list(map(self._table.elements.__getitem__, self._members))

    @property
    def centralizer(self) -> Bsgs:
        if self._centralizer is None:
            self._centralizer = centralizer(
                self._table.group, self.representative, self
            )
        return self._centralizer

    @property
    def orbit_reps(self) -> _OrbitReps:
        if self._orbit_reps is None:
            self._orbit_reps = self.orbit_reps_under(self.centralizer)
        return self._orbit_reps

    def orbit_reps_under(self, cent: Bsgs) -> _OrbitReps:
        """The C-orbit representatives on the class for C = C_G(g), g a
        member; a new stream, where `orbit_reps` is the class's own."""
        return _OrbitReps(self._table, self._members, cent)

    @property
    def elements(self) -> list[Permutation]:
        return [Permutation._from_raw(e) for e in self._elements_raw]

    @property
    def class_size(self) -> int:
        return len(self._members)

    def conjugator(self, h: Permutation) -> Permutation:
        """Some x with x * rep * x^-1 = h; h must be a class member."""
        table = self._table
        j = None
        if h.degree == self.degree:
            j = table.pos.get(_base_image(h._img, table.group._chain.base))
        if (
            j is None
            or table.elements[j] != h._img
            or table.cid[j] != table.cid[self._root]
        ):
            raise MembershipError(f"{h!r} is not in this conjugacy class")
        return Permutation._from_raw(
            table.conjugator(j, {self._root: self._root_conj})
        )

    def __repr__(self) -> str:
        return (
            f"ConjugacyClass(rep={self.representative!r}, "
            f"size={self.class_size})"
        )


def conjugacy_classes(
    group: Bsgs, element_cap: int = DEFAULT_ELEMENT_CAP
) -> list[ConjugacyClass]:
    """All conjugacy classes by full element enumeration, ordered by their
    (lexicographically minimal) representatives.  The enumeration is
    numbered once (see _Numbering) and the classes are its orbit walks,
    each started at its smallest member, which no earlier walk reached."""
    if group.order > element_cap:
        raise CapExceededError(
            f"group order {group.order} exceeds element cap {element_cap}; "
            "every command enumerates the conjugacy classes first, so raise "
            "--element-cap"
        )
    table = _Numbering(group, sorted(_enumerate_raw(group)))
    cid = table.cid
    classes = [
        ConjugacyClass(table, table.walk(j), j)
        for j in range(len(cid)) if cid[j] < 0
    ]
    assert sum(c.class_size for c in classes) == group.order
    return classes


def class_of(group: Bsgs, g: Permutation) -> ConjugacyClass:
    """The conjugacy class of one member, without full group enumeration:
    its conjugation orbit, numbered alone and walked from g."""
    if not group.contains(g):
        raise MembershipError(f"{g!r} is not a member of the group")
    table = _Numbering(group, sorted(_conjugation_orbit(group, g._img)))
    root = table.pos[_base_image(g._img, group._chain.base)]
    return ConjugacyClass(table, table.walk(root), root)


def random_element(group: Bsgs, rng) -> Permutation:
    """Uniform random element via transversal sampling (exactly uniform).

    The element is u_0 u_1 ... u_k, one coset representative per chain
    level, the i-th drawn by rng.randrange over level i's sorted orbit
    points, first level first.  The draw reads blocks of consecutive levels
    from tables of their products (`_draw_blocks`), built on the group's
    first draw, so it takes one product per block instead of one per level
    and still returns the same element for the same rng calls.

    `rng` is a random.Random or an int seed; a fixed Random instance yields
    a reproducible sequence.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    blocks = group._draw_blocks
    if blocks is None:
        blocks = group._draw_blocks = _draw_blocks(group._chain)
    g = None
    for sizes, table in blocks:
        i = 0
        for n in sizes:
            i = i * n + rng.randrange(n)
        g = table[i] if g is None else _mul(g, table[i])
    return Permutation._from_raw(g if g is not None else _identity(group.degree))


def _draw_blocks(chain: _Chain) -> list[tuple[list[int], list[tuple]]]:
    """The chain's levels grouped into blocks of consecutive levels, each
    grown while the product of its orbit sizes stays at most the degree,
    as (orbit sizes, table).  The table lists the products u_i ... u_j of
    the block's coset representatives, indexed in mixed radix by their
    points' positions in the sorted orbits, the first level most
    significant."""
    blocks: list[tuple[list[int], list[tuple]]] = []
    for t, pts in zip(chain.transversals, chain.points):
        us = [t[pt] for pt in pts]
        if blocks and len(blocks[-1][1]) * len(us) <= chain.degree:
            sizes, table = blocks[-1]
            sizes.append(len(us))
            blocks[-1] = (sizes, [_mul(a, u) for a in table for u in us])
        else:
            blocks.append(([len(us)], us))
    return blocks


def enumerate_elements(
    group: Bsgs, cap: int = DEFAULT_ELEMENT_CAP
) -> Iterator[Permutation]:
    """Every element exactly once, via transversal products, in a fixed
    deterministic order."""
    if group.order > cap:
        raise CapExceededError(
            f"group order {group.order} exceeds cap {cap}"
        )
    for g in _enumerate_raw(group):
        yield Permutation._from_raw(g)


def _enumerate_raw(group: Bsgs) -> list[tuple]:
    """Every element as a transversal product u_0 u_1 ... u_k, ordered by
    the indices of the u_i among their levels' sorted orbit points, the
    first level varying slowest.  The products are built from the last level
    up, so the longest list held besides the result has |G| / |orbit 0|
    entries."""
    chain = group._chain
    products = [_identity(group.degree)]
    if group.degree == 1:
        return products  # itemgetter of one index returns a bare int
    for t, pts in zip(reversed(chain.transversals), reversed(chain.points)):
        # u p is itemgetter(*p)(u): one getter per lower product, in C
        us = [t[pt] for pt in pts]
        getters = [itemgetter(*p) for p in products]
        products = [get(u) for u in us for get in getters]
    return products
