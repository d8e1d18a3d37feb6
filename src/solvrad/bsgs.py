"""Subgroup machinery: strong generating sets, order, membership, orbits,
normal closure, centralizers, conjugacy classes, element enumeration.

The engine is a deterministic Schreier-Sims over stabilizer chains: groups
here are desk scale (degree <= ~100, order <= ~10^6), so reproducibility is
worth more than randomized speed.  All search orders are canonical
(lexicographic on image arrays, sorted orbit points), so every derived
object is identical across runs.

Every permutation the engine holds (chain levels, transversals and their
inverses, sift residues, class members, draws) is a raw of perm's codec,
and the class table's rows and keys are rows of it: this module composes
and reads them through perm (_row, _mul_rows, _reader), never by type.

An element of a group is fixed by the images of the group's base points,
and (s y s^-1)(b) = s(y(s^-1(b))), so a conjugate is identified from
len(base) lookups before, or instead of, building its image array.
Conjugacy classes number the sorted group once (_Numbering) from rows, the
images of the few points that order the elements and key their conjugates,
and build an element when it is read; class_of numbers one class in the
walk that finds it.  Each generator's conjugation action is an array of
numbers, and the class walks run on them, recording a class id, a parent
and a generator per element instead of a conjugator.  Conjugators, and a
centralizer's Schreier generators, are read from those arrays on demand:
every centralizer reads the walk of its element's class, so no orbit is
walked twice.  Centralizer-orbit representatives are produced lazily, as
far as a scan reads them, and counted by Burnside's lemma (_OrbitReps).
"""

from __future__ import annotations

import random
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .perm import (
    DegreeMismatchError,
    Permutation,
    Raw,
    _identity,
    _inv,
    _mul,
    _mul_rows,
    _reader,
    _row,
)

DEFAULT_ELEMENT_CAP = 200_000


class CapExceededError(RuntimeError):
    """An enumeration-based operation was asked to exceed its element cap."""


class MembershipError(ValueError):
    """A permutation required to lie in a group does not."""


class GeneratorSet:
    """A degree plus a list of generating permutations.

    Identity entries are dropped; the empty list generates the trivial group.
    `order` is the order of the generated group when the constructor knows
    it: the named families of `zoo` without a build, a group file from the
    order it checked against its claimed_order.  Otherwise it is None.
    `built` is the group those generators make when a constructor has
    already built it, as a group file is to check its claimed_order, and
    `build_bsgs` hands it on; otherwise it is None.
    """

    __slots__ = ("degree", "generators", "order", "built")

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation] = (),
        order: Optional[int] = None,
    ):
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
        self.order = order
        self.built = None

    def __repr__(self) -> str:
        return f"GeneratorSet(degree={self.degree}, n_gens={len(self.generators)})"


class _Chain:
    """Mutable stabilizer chain over raws, the 0-based image arrays of perm.

    levels[i] generates the stabilizer of base[:i], and level_inverses[i]
    holds their inverses, each made once, when its generator joins the
    chain; transversals[i] maps each point of the i-th basic orbit to a
    coset representative u with u[base[i]] = point, inverses[i] maps the
    same point to u^-1, and points[i] lists the orbit's points in ascending
    order.  Sifting strips with the stored inverses, so it never inverts a
    permutation.

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
        "degree", "base", "levels", "level_inverses", "transversals",
        "inverses", "points", "bound", "_ident",
    )

    def __init__(
        self, degree: int, gens: Sequence[Raw] = (), bound: Optional[int] = None
    ):
        self.degree = degree
        self.bound = bound
        self.base: list[int] = []
        self.levels: list[list[Raw]] = []
        self.level_inverses: list[list[Raw]] = []
        self.transversals: list[dict[int, Raw]] = []
        self.inverses: list[dict[int, Raw]] = []
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

    def sift(self, g: Raw, start: int = 0) -> tuple[Raw, int]:
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

    def contains(self, g: Raw) -> bool:
        residue, level = self.sift(g)
        return level == len(self.base) and residue == self._ident

    def _recompute_orbit(self, i: int) -> None:
        b = self.base[i]
        gens = self.levels[i]
        gens_inv = self.level_inverses[i]
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

    def _new_base_point(self, g: Raw) -> None:
        bp = next(i for i, v in enumerate(g) if i != v)
        self.base.append(bp)
        self.levels.append([])
        self.level_inverses.append([])
        self.transversals.append({bp: self._ident})
        self.inverses.append({bp: self._ident})
        self.points.append([bp])

    def _add_generator(self, g: Raw, first: int, last: int) -> None:
        """Add g, and its inverse, to the levels first..last."""
        g_inv = _inv(g)
        for l in range(first, last + 1):
            self.levels[l].append(g)
            self.level_inverses[l].append(g_inv)

    def extend(self, new_gens: Iterable[Raw]) -> None:
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
            self._add_generator(g, 0, j)
            for l in range(j + 1):
                self._recompute_orbit(l)
            changed = True
        if changed and not self._at_bound():
            self._schreier_sims()

    def _schreier_sims(self) -> None:
        """Deterministic verification sweep from the deepest level upward;
        it ends early once the chain reaches its bound.  A tree edge
        (s u = T[s(pt)]) gives the identity, so it takes one product."""
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
                    su = _mul(s, u)
                    if su == T[s[pt]]:
                        continue
                    residue, j = self.sift(_mul(Tinv[s[pt]], su), i + 1)
                    if residue == ident:
                        continue
                    if j == len(self.base):
                        self._new_base_point(residue)
                    self._add_generator(residue, i + 1, j)
                    for l in range(i + 1, j + 1):
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

    def strong_generators(self) -> list[Raw]:
        seen: dict[Raw, None] = {}
        for level in self.levels:
            for g in level:
                seen.setdefault(g)
        return list(seen)


class Bsgs:
    """Immutable base / strong generating set handle on a permutation group.

    Built once, then safe to share: queries never change the group, and the
    only state they add is filled on first use and never changes: the draw
    tables of `random_element`, built on the first draw, the order of the
    solvable residual that `structure.is_solvable` reads (`_residual`), and
    the verdict of `structure.is_nilpotent` (`_nilpotent`), each computed
    on the first question.

    `bound`, when given, must be a proven upper bound on the order of the
    generated group, such as the order of a group that contains every
    generator; Schreier-Sims then stops once it reaches it (see _Chain).
    """

    __slots__ = (
        "degree", "_chain", "_gens_raw", "_order", "_draw_blocks", "_residual",
        "_nilpotent",
    )

    def __init__(self, gens: GeneratorSet, bound: Optional[int] = None):
        self.degree = gens.degree
        self._gens_raw = [g._img for g in gens.generators]
        self._chain = _Chain(gens.degree, self._gens_raw, bound)
        self._order = self._chain.order()
        self._draw_blocks = self._residual = self._nilpotent = None

    @classmethod
    def _wrap(cls, degree: int, chain: _Chain, defining_raw: list[Raw]) -> "Bsgs":
        """Adopt an already-built chain (which must not be mutated afterwards)."""
        group = object.__new__(cls)
        group.degree = degree
        group._chain = chain
        group._gens_raw = defining_raw
        group._order = chain.order()
        group._draw_blocks = group._residual = group._nilpotent = None
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

    def _contains_raw(self, g: Raw) -> bool:
        return self._chain.contains(g)


def build_bsgs(gens: GeneratorSet) -> Bsgs:
    """Deterministic Schreier-Sims; order and membership are exact.  A
    generator set that a constructor has built already gives that build."""
    return gens.built or Bsgs(gens)


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

    ident = group._chain._ident
    amb = group._gens_raw
    amb_inv = [_inv(a) for a in amb]
    closure_gens: list[Raw] = []
    for s in seed_perms:
        if s._img != ident and s._img not in closure_gens:
            closure_gens.append(s._img)
    chain = _Chain(group.degree, closure_gens, group.order)
    frontier = list(closure_gens)
    while frontier and chain.order() < group.order:
        new: list[Raw] = []
        batch: set[Raw] = set()
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

    The orbit is the walk of `cls`, a class of `group` holding x, or of
    class_of(group, x) when `cls` is None or of another group; a `cls`
    without x raises MembershipError.  Each Schreier generator w^-1 s u
    takes its conjugators u and w from the walk's parent and generator
    arrays, on demand, rooted at x: with c the class's conjugator, u_y =
    c(y) c(x)^-1.  A walk edge (w = s u) is skipped without a product.
    """
    if cls is None or cls._table.group is not group:
        cls = class_of(group, x)
    table, orbit = cls._table, cls._members
    known = {cls._root: _mul(cls._root_conj, _inv(cls.conjugator(x)._img))}
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
            if cand != chain._ident and not chain.contains(cand):
                chain.extend([cand])
                if chain.order() == target:
                    done = True
                    break
        if done:
            break
    assert chain.order() * len(orbit) == group.order
    return Bsgs._wrap(group.degree, chain, chain.strong_generators())


class _Numbering:
    """Members of a group, numbered once, with the conjugation action of
    the group's generators on the numbers and the orbit walks over it: the
    whole group in sorted order (the classes of `conjugacy_classes`), or
    one conjugation orbit in the order its walk finds it (`class_of`).

    The whole group comes as sorted rows (_table_rows), when order[j] is
    row j's place in the enumeration: e_j's images of the sorted `points`,
    every point or the row points (_row_points), then of the base, then of
    each generator's points s_i^-1(b), as slices.  Only the table makes
    keys.  pos maps a member's key, its base image, to its number j, and
    actions[i][j] is the number of s_i e_j s_i^-1, keyed by
    s_i(e_j(s_i^-1(b))): the row's slice for s_i composed with s_i.
    elements[j] is e_j's raw, built when read (_Rebuilt), and images[j]
    reads e_j at any point, as its full row or elements[j].  A sorted list
    of numbers is a sorted list of members.  An orbit walk goes
    frontier by frontier, generators in order, the first discovery winning;
    it gives each member it reaches its orbit's id (`cid`), and, except at
    its root, the member it came from (`parent`, -1 at a root) and the
    generator (`via`): e_j = s e_parent s^-1 for s = s_via[j].  sizes[c] is
    the size of orbit c.  The lists hold the int objects that are pos's
    values, or small cached ints, so each costs one pointer per member.
    """

    __slots__ = (
        "group", "key", "images", "elements", "pos", "actions",
        "cid", "parent", "via", "sizes",
    )

    def __init__(
        self, group: Bsgs, rows: list, points: Sequence, order: Optional[list] = None
    ):
        self._keyed(group)
        n, gens = len(rows), group._gens_raw
        k, m = len(points), len(group._chain.base)
        starts = [k + i * m for i in range(len(gens) + 1)]
        key, *cuts = [itemgetter(slice(j, j + m)) for j in starts]
        conjugates = (_mul_rows([s], map(cut, rows)) for s, cut in zip(gens, cuts))
        self.pos = dict(zip(map(key, rows), range(n)))
        self.actions = [list(map(self.pos.__getitem__, keys)) for keys in conjugates]
        self.elements = _Rebuilt(group, rows, order)
        self.images = rows if order is None else self.elements
        self.cid = [-1] * n
        self.parent = [-1] * n
        self.via = [0] * n
        self.sizes: list[int] = []

    def _keyed(self, group: Bsgs) -> None:
        """Take the group and its key: `key(e)` is e's base image."""
        self.group, self.key = group, _reader(group._chain.base, group.degree)

    def number(self, e: Raw) -> Optional[int]:
        """Member e's number; None when no member has e's key."""
        return self.pos.get(self.key(e))

    def numbers(self, sub: Bsgs) -> Iterator[int]:
        """The numbers of the subgroup `sub`'s members."""
        rows = _enumerate_raw(sub, self.group._chain.base)
        return map(self.pos.__getitem__, rows)

    def conjugate_key(self, s: Raw) -> Callable[[Sequence], object]:
        """y -> the key of s y s^-1, read as s(y(s^-1(b))), no conjugate built."""
        group = self.group
        return _reader([s.index(b) for b in group._chain.base], group.degree, s)

    def whole(self) -> bool:
        """Whether the numbered set is the whole group."""
        return len(self.cid) == self.group.order

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

    def conjugator(self, j: int, known: dict) -> Raw:
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


class _Rebuilt(dict):
    """Members of the whole group by number, each built on its first read
    and kept: member j is its full row's images of every point, or, from
    rows of fewer points, element i = order[j] of _enumerate_raw, u v for
    the first level's coset representative u at index i // |S| and element
    v at index i % |S| of S, the first base point's stabilizer, enumerated
    once.  `read` builds a list of members in one pass, without a Python
    call per member."""

    __slots__ = ("_build",)

    def __init__(self, group: Bsgs, rows: list, order: Optional[list]):
        super().__init__()
        if order is None:
            n = group.degree
            self._build = lambda js: [rows[j][:n] for j in js]
            return
        chain = group._chain
        us = list(map(chain.transversals[0].__getitem__, chain.points[0]))
        vs = _enumerate_raw(group, level=1)
        m = len(vs)
        self._build = lambda js: [
            _mul(us[i // m], vs[i % m]) for i in map(order.__getitem__, js)
        ]

    def __missing__(self, j: int) -> Raw:
        e = self[j] = self._build((j,))[0]
        return e

    def read(self, js: Sequence[int]) -> list[Raw]:
        new = [j for j in js if j not in self]
        self.update(zip(new, self._build(new)))
        return list(map(self.__getitem__, js))


class _OrbitReps:
    """The smallest member of each orbit of a group C conjugating a set of
    numbered members (a class, or a union of classes of the whole group),
    listed in ascending order, as numbers in that order, produced lazily.

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
        self._walk = _orbit_walk(table, members, cent)
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


def _orbit_walk(table: _Numbering, members: Sequence[int], cent: Bsgs) -> Iterator[int]:
    """The stream of _OrbitReps, each orbit walked when the next
    representative is asked for; a function, so that the generator's frame
    holds no _OrbitReps, which holds the generator."""
    els, pos = table.images, table.pos
    keys = list(map(table.conjugate_key, cent._gens_raw))
    seen: set[int] = set()
    for e in members:
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
    assert len(seen) == len(members)


def _burnside_count(table: _Numbering, cent: Bsgs) -> int:
    """The number of C-orbits on the class K of g, for C = C_G(g) and a
    numbering of the whole group G, by Burnside's lemma.  An element c of a
    class L fixes |K n C_G(c)| = |K| |L n C| / |L| members of K (count the
    commuting pairs in K x L two ways), so the orbits number
    (1/|C|) sum over c in C of that = (|G|/|C|^2) sum over L of |L n C|^2 / |L|.
    |L n C| is read from the class ids of C's enumerated elements, and
    |G|/|L| is an integer."""
    hits = Counter(map(table.cid.__getitem__, table.numbers(cent)))
    order = table.group.order
    total = sum(m * m * (order // table.sizes[c]) for c, m in hits.items())
    count, rem = divmod(total, cent.order ** 2)
    assert rem == 0, "Burnside's count must be an integer"
    return count


class ConjugacyClass:
    """A conjugacy class, fully enumerated: representative (the lexicographically
    smallest member), all elements, and the class size.

    Members are numbers of a _Numbering, of the whole group or of the class
    alone, listed in ascending order of their elements.  The class reads
    conjugator(h) from the numbering's walk arrays on demand, not a stored
    conjugator per member: the generators on h's path to the walk's root,
    times the root's conjugator, which is the re-rooting factor u(rep)^-1
    when the walk started at another member and the identity otherwise.

    The class also computes, once and on first use, what a criterion scan of
    it needs: `centralizer`, C_G(rep) from the class's walk, and `orbit_reps`,
    the lazily produced ascending smallest members of the C_G(rep)-orbits
    on the class, with their count.  A one-member class is one orbit under
    any group, so its `orbit_reps` walk it under G itself, which is C_G(rep),
    and build no centralizer.  And what a radical oracle asks of it:
    `normal_closure`, <<rep>>, or G itself when that is its order.
    """

    __slots__ = (
        "representative", "_table", "_members", "_root", "_root_conj", "degree",
        "_centralizer", "_orbit_reps", "_normal_closure",
    )

    def __init__(self, table: _Numbering, members: list[int], root: int):
        self.degree = table.group.degree
        self._table = table
        self._members = members
        self._root = root
        rep = members[0]
        conj = table.group._chain._ident
        if rep != root:
            # re-root at the canonical representative: the root's conjugator
            # becomes to_g, which maps rep back to g (to_g rep to_g^-1 = g)
            conj = _inv(table.conjugator(rep, {root: conj}))
        self._root_conj = conj
        self.representative = Permutation._from_raw(table.elements[rep])
        self._centralizer = self._orbit_reps = self._normal_closure = None

    @property
    def _elements_raw(self) -> list[Raw]:
        els = self._table.elements
        if isinstance(els, _Rebuilt):
            return els.read(self._members)  # in one pass
        return list(map(els.__getitem__, self._members))

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
            central = len(self._members) == 1
            cent = self._table.group if central else self.centralizer
            self._orbit_reps = self.orbit_reps_under(cent)
        return self._orbit_reps

    @property
    def normal_closure(self) -> Bsgs:
        """<<rep>>, or the group itself, with its kept verdicts, when the
        closure has the group's order; built once."""
        if self._normal_closure is None:
            group = self._table.group
            sub = normal_closure(group, [self.representative])
            self._normal_closure = group if sub.order == group.order else sub
        return self._normal_closure

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
        j = table.number(h._img) if h.degree == self.degree else None
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
    _check_element_cap(group.order, element_cap)
    points = _row_points(group)
    rows, order = _sorted_rows(_table_rows(group, points), points, group.degree)
    table = _Numbering(group, rows, points, order)
    cid = table.cid
    classes = [
        ConjugacyClass(table, table.walk(j), j)
        for j in range(len(cid)) if cid[j] < 0
    ]
    assert sum(c.class_size for c in classes) == group.order
    return classes


def _sorted_rows(
    rows: list, points: Sequence, degree: int
) -> tuple[list, Optional[list]]:
    """The rows sorted, which numbers their members, and, for rows of fewer
    than every point, the sorted rows' places in `rows`, from which
    _Rebuilt builds the members."""
    if len(points) == degree:
        rows.sort()
        return rows, None
    order = sorted(range(len(rows)), key=rows.__getitem__)
    return list(map(rows.__getitem__, order)), order


def _table_rows(group: Bsgs, points: Sequence[int]) -> list:
    """The class table's rows (see _Numbering), in enumeration order."""
    base = group._chain.base
    pulls = [s.index(b) for s in group._gens_raw for b in base]
    return _enumerate_raw(group, [*points, *base, *pulls])


def _row_points(group: Bsgs) -> Sequence[int]:
    """The sorted points whose images number the group (see _Numbering):
    0..max(base), where any two members first differ, since they differ at
    a base point, and each s^-1(b), which the conjugation action of a group
    generator s reads at a base point b.  Every point instead for the
    trivial group, which has no base, and where those are more than half the
    points: such rows save less than rebuilding members from them costs, the
    enumeration order kept and a call per member read."""
    base = group._chain.base
    points = set(range(max(base, default=-1) + 1))
    points.update(s.index(b) for s in group._gens_raw for b in base)
    if not base or 2 * len(points) > group.degree:
        return range(group.degree)
    return sorted(points)


def _check_element_cap(order: int, element_cap: int) -> None:
    """Refuse a group of `order` elements past the element cap, before its
    elements or classes are enumerated."""
    if order > element_cap:
        raise CapExceededError(
            f"group order {order} exceeds element cap {element_cap}; "
            "every command enumerates the conjugacy classes first, so raise "
            "--element-cap"
        )


def class_of(group: Bsgs, g: Permutation) -> ConjugacyClass:
    """The conjugacy class of one member, without full group enumeration:
    its conjugation orbit, numbered by the walk from g that finds it."""
    if not group.contains(g):
        raise MembershipError(f"{g!r} is not a member of the group")
    table = _orbit_numbering(group, g._img)
    members = sorted(table.pos.values(), key=table.elements.__getitem__)
    return ConjugacyClass(table, members, 0)


def _orbit_numbering(group: Bsgs, x: Raw) -> _Numbering:
    """The conjugation orbit of x, numbered in discovery order by the walk
    that _Numbering.walk makes from x: a new base-image key of s y s^-1
    numbers, builds and links the next member.  Members are stepped from in
    number order, so each step appends the key's number to s's actions."""
    gens = group._gens_raw
    table = object.__new__(_Numbering)
    table._keyed(group)
    table.actions = [[] for _ in gens]
    elements = table.images = table.elements = [x]
    pos = table.pos = {table.key(x): 0}
    parent, via = table.parent, table.via = [-1], [0]
    keys = map(table.conjugate_key, gens)
    steps = list(zip(range(len(gens)), gens, map(_inv, gens), keys, table.actions))
    frontier = [0]
    while frontier:
        nxt = []
        for y in frontier:  # pos's int objects, which parent holds too
            e = elements[y]
            for i, s, s_inv, key, act in steps:
                k = key(e)
                z = pos.get(k)
                if z is None:
                    z = pos[k] = len(elements)
                    elements.append(_mul(s, _mul(e, s_inv)))
                    parent.append(y)
                    via.append(i)
                    nxt.append(z)
                act.append(z)
        frontier = nxt
    table.cid, table.sizes = [0] * len(elements), [len(elements)]
    return table


def random_element(group: Bsgs, rng) -> Permutation:
    """Uniform random element via transversal sampling (exactly uniform).

    The element is u_0 u_1 ... u_k, one coset representative per chain
    level, the i-th drawn over level i's sorted orbit points, first level
    first.  Each level index is drawn with the rng.getrandbits calls that
    rng.randrange makes for it (the same rejection loop, inline), so the
    element and the rng's end state are those of one randrange per level.
    The draw reads blocks of consecutive levels from tables of their
    products (`_draw_blocks`), built on the group's first draw, so it takes
    one product per block instead of one per level.

    `rng` is a random.Random or an int seed; a fixed Random instance yields
    a reproducible sequence.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    blocks = group._draw_blocks
    if blocks is None:
        blocks = group._draw_blocks = _draw_blocks(group._chain)
    getrandbits = rng.getrandbits
    g = None
    for sizes, table in blocks:
        i = 0
        for n in sizes:
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            i = i * n + r
        g = table[i] if g is None else _mul(g, table[i])
    return Permutation._from_raw(g if g is not None else group._chain._ident)


def _draw_blocks(chain: _Chain) -> list[tuple[list[int], list[Raw]]]:
    """The chain's levels grouped into blocks of consecutive levels, each
    grown while the product of its orbit sizes stays at most the degree,
    as (orbit sizes, table).  The table lists the products u_i ... u_j of
    the block's coset representatives, indexed in mixed radix by their
    points' positions in the sorted orbits, the first level most
    significant."""
    blocks: list[tuple[list[int], list[Raw]]] = []
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
    _check_element_cap(group.order, cap)
    for g in _enumerate_raw(group):
        yield Permutation._from_raw(g)


def _enumerate_raw(
    group: Bsgs, points: Optional[Sequence[int]] = None, level: int = 0
) -> list:
    """The images of `points` (every point when None, so the elements'
    raws) under every element u_l ... u_k of the stabilizer of the first
    l = `level` base points, a transversal product, ordered by the indices
    of the u_i among their levels' sorted orbit points, the first level
    varying slowest.  The rows are built from the last level up, from the
    identity's row, so the longest list held besides the result has
    |G| / |orbit 0| entries, in perm's codec for the degree."""
    chain = group._chain
    row = range(group.degree) if points is None else points
    products = [_row(row, group.degree)]
    levels = zip(chain.transversals[level:], chain.points[level:])
    for t, pts in reversed(list(levels)):
        products = list(_mul_rows([t[pt] for pt in pts], products))
    return products
