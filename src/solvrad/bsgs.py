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
building its image array.  Conjugacy classes take each conjugate from the
enumerated group by that key.  A class keeps the Schreier tree of its orbit
walk rather than a conjugator per member, and conjugators (and a
centralizer's Schreier generators) are read from the tree on demand.
"""

from __future__ import annotations

import random
from bisect import bisect_left
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

    Each Schreier generator w^-1 s u takes its conjugators u and w from the
    orbit's Schreier tree, on demand, and a tree edge (w = s u) is skipped
    without a product.  When x is the representative of `cls`, a class of
    `group`, the class's tree is the orbit and it is not walked again.
    """
    if not group.contains(x):
        raise MembershipError(f"{x!r} is not a member of the group")
    xr = x._img
    base = group._chain.base
    if cls is not None and cls._group is group and cls._elements_raw[0] == xr:
        orbit, tree, known = cls._elements_raw, cls._tree, dict([cls._root])
    else:
        members, tree = _conjugation_orbit(group, xr)
        orbit = sorted(members.values())
        known = {_base_image(xr, base): _identity(group.degree)}
    target, rem = divmod(group.order, len(orbit))
    assert rem == 0, "orbit size must divide the group order"

    chain = _Chain(group.degree, (), target)
    gens = group._gens_raw
    keys = _conjugate_keys(gens, base)
    ident = _identity(group.degree)
    done = False
    for y in orbit:
        ky = _base_image(y, base)
        u = _tree_conjugator(tree, gens, ky, known)
        for i, (s, key) in enumerate(zip(gens, keys)):
            kz = key(y)
            if tree[kz] == (ky, i):
                continue  # a tree edge: the Schreier generator is trivial
            w = _tree_conjugator(tree, gens, kz, known)
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


def _conjugation_orbit(
    group: Bsgs, x: tuple, lookup: Optional[dict] = None
) -> tuple[dict, dict]:
    """Orbit of x under conjugation by the group's generators, walked frontier
    by frontier, generators in order, the first discovery winning.

    Conjugates are identified by base image, so a conjugate costs one key
    of len(base) lookups; the conjugate itself is taken from `lookup` (base
    image -> element, the enumerated group) or, without one, built only when
    its key is new.  Returns (members, tree), both keyed by base image:
    members[k] is the orbit element, and tree[k] = (parent key, generator
    index i) with element = s_i parent s_i^-1, or None at x.
    """
    base = group._chain.base
    gens = group._gens_raw
    gens_inv = [_inv(s) for s in gens]
    keys = _conjugate_keys(gens, base)
    root = _base_image(x, base)
    members = {root: x}
    tree: dict = {root: None}
    frontier = [(root, x)]
    while frontier:
        nxt = []
        for ky, y in frontier:
            for i, key in enumerate(keys):
                kz = key(y)
                if kz not in tree:
                    if lookup is not None:
                        z = lookup[kz]
                    else:
                        z = _mul(gens[i], _mul(y, gens_inv[i]))
                    tree[kz] = (ky, i)
                    members[kz] = z
                    nxt.append((kz, z))
        frontier = nxt
    return members, tree


def _orbit_partition_reps(
    elements_sorted: list, cent_gens: list, base: Sequence[int]
) -> list:
    """Lex-minimal representative of each centralizer-conjugation orbit on a
    sorted class (or union of classes); reps come out in ascending order.

    `base` is a base of the ambient group: the domain is keyed by base
    image, and each conjugate is looked up by its key, never built."""
    if not cent_gens:
        return list(elements_sorted)
    index = {_base_image(e, base): e for e in elements_sorted}
    keys = _conjugate_keys(cent_gens, base)
    visited = set()
    reps = []
    for k, e in index.items():
        if k in visited:
            continue
        reps.append(e)
        visited.add(k)
        frontier = [e]
        while frontier:
            nxt = []
            for y in frontier:
                for key in keys:
                    kz = key(y)
                    if kz not in visited:
                        visited.add(kz)
                        nxt.append(index[kz])
            frontier = nxt
    assert len(visited) == len(elements_sorted)
    return reps


def _tree_conjugator(tree: dict, gens: list, k: tuple, known: dict) -> tuple:
    """The conjugator u of the orbit member keyed k (u x u^-1 = member, for
    the tree's root x), as the product of the generators on its path up to
    the nearest key in `known`; `known` holds at least the root's conjugator
    and keeps every conjugator computed on the way."""
    path = []
    while k not in known:
        parent, i = tree[k]
        path.append((k, i))
        k = parent
    u = known[k]
    for k, i in reversed(path):
        u = _mul(gens[i], u)
        known[k] = u
    return u


class ConjugacyClass:
    """A conjugacy class, fully enumerated: representative (the lexicographically
    smallest member), all elements, and the class size.

    Members are identified by their base images in the group.  Instead of a
    conjugator per member, the class keeps the Schreier tree of the orbit
    walk that found it (each member's parent and generator index), and
    conjugator(h) reads h's conjugator from it on demand: the generators on
    h's path to the root, times the root's conjugator, which is the
    re-rooting factor u(rep)^-1 when the walk started at another member and
    the identity otherwise.

    The class also computes, once and on first use, what a criterion scan of
    it needs: `centralizer`, C_G(rep) from the class's tree, and `orbit_reps`,
    the ascending smallest members of the C_G(rep)-orbits on the class.
    """

    __slots__ = (
        "representative", "_elements_raw", "_group", "_tree", "_root", "degree",
        "_centralizer", "_orbit_reps",
    )

    def __init__(
        self, group: Bsgs, elements_raw: list[tuple], tree: dict, root: tuple
    ):
        self.degree = group.degree
        self._group = group
        self._elements_raw = elements_raw
        self._tree = tree
        self._root = root  # (root key, root conjugator)
        self.representative = Permutation._from_raw(elements_raw[0])
        self._centralizer = self._orbit_reps = None

    @property
    def centralizer(self) -> Bsgs:
        if self._centralizer is None:
            self._centralizer = centralizer(self._group, self.representative, self)
        return self._centralizer

    @property
    def orbit_reps(self) -> list[tuple]:
        if self._orbit_reps is None:
            self._orbit_reps = _orbit_partition_reps(
                self._elements_raw, self.centralizer._gens_raw, self._group._chain.base
            )
        return self._orbit_reps

    @property
    def elements(self) -> list[Permutation]:
        return [Permutation._from_raw(e) for e in self._elements_raw]

    @property
    def class_size(self) -> int:
        return len(self._elements_raw)

    def conjugator(self, h: Permutation) -> Permutation:
        """Some x with x * rep * x^-1 = h; h must be a class member."""
        els = self._elements_raw
        i = bisect_left(els, h._img)
        if i == len(els) or els[i] != h._img:
            raise MembershipError(f"{h!r} is not in this conjugacy class")
        k = _base_image(h._img, self._group._chain.base)
        u = _tree_conjugator(self._tree, self._group._gens_raw, k, dict([self._root]))
        return Permutation._from_raw(u)

    def __repr__(self) -> str:
        return (
            f"ConjugacyClass(rep={self.representative!r}, "
            f"size={self.class_size})"
        )


def conjugacy_classes(
    group: Bsgs, element_cap: int = DEFAULT_ELEMENT_CAP
) -> list[ConjugacyClass]:
    """All conjugacy classes by full element enumeration, ordered by their
    (lexicographically minimal) representatives.  The orbit walks take each
    conjugate from the enumeration by its base image instead of building it."""
    if group.order > element_cap:
        raise CapExceededError(
            f"group order {group.order} exceeds element cap {element_cap}; "
            "every command enumerates the conjugacy classes first, so raise "
            "--element-cap"
        )
    base = group._chain.base
    # base image -> element, in sorted element order
    lookup = {_base_image(e, base): e for e in sorted(_enumerate_raw(group))}
    assigned: set[tuple] = set()
    classes = []
    for k, e in lookup.items():
        if k in assigned:
            continue
        cls = _class_of_raw(group, e, lookup)
        assigned.update(cls._tree)
        classes.append(cls)
    assert sum(c.class_size for c in classes) == group.order
    return classes


def class_of(group: Bsgs, g: Permutation) -> ConjugacyClass:
    """The conjugacy class of one member, without full group enumeration."""
    if not group.contains(g):
        raise MembershipError(f"{g!r} is not a member of the group")
    return _class_of_raw(group, g._img)


def _class_of_raw(
    group: Bsgs, g: tuple, lookup: Optional[dict] = None
) -> ConjugacyClass:
    members, tree = _conjugation_orbit(group, g, lookup)
    elements = sorted(members.values())
    root = (_base_image(g, group._chain.base), _identity(group.degree))
    rep = elements[0]
    if rep != g:
        # re-root at the canonical representative: the root's conjugator
        # becomes to_g, which maps rep back to g (to_g rep to_g^-1 = g)
        k = _base_image(rep, group._chain.base)
        to_g = _inv(_tree_conjugator(tree, group._gens_raw, k, dict([root])))
        root = (root[0], to_g)
    return ConjugacyClass(group, elements, tree, root)


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
    for t, pts in zip(reversed(chain.transversals), reversed(chain.points)):
        products = [_mul(t[pt], p) for pt in pts for p in products]
    return products
