"""Permutations on {1..n} with disjoint-cycle text I/O.

Composition convention (fixed for the whole package): ``compose(p, q)``
applies q FIRST, then p, i.e. the result maps i to p(q(i)).  Conjugation
is ``conjugate(g, a) = a o g o a^-1`` and the commutator is
``commutator(x, y) = x o y o x^-1 o y^-1``.  All public surfaces are
1-based.

Internally a permutation of degree n is its raw: the 0-based images of
0..n-1, as ``bytes`` when n <= 256, so that a byte holds every point, and as
a tuple of ints above.  ``_raw`` is the one place that picks the type.  On
bytes, composition is one ``bytes.translate`` and inversion one
``bytes.maketrans``, both in C; bytes compare by memcmp, which is the
tuple order of the images, so sorting and the canonical order are those of
the image arrays either way.  Every raw of one degree has the same type,
so raws of a group compare, hash and sort among themselves.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import itemgetter
from typing import Sequence, Union


class DegreeMismatchError(ValueError):
    """Operands act on different numbers of points."""


class CycleFormatError(ValueError):
    """Malformed, repeated or out-of-range cycle text."""


Raw = Union[bytes, tuple]  # a permutation's 0-based images, see _raw
_BYTE_POINTS = bytes(range(256))  # the points a byte holds, in order


def _raw(seq: Sequence[int]) -> Raw:
    """The raw of the 0-based image array `seq`: bytes when its degree is at
    most 256, else a tuple."""
    return bytes(seq) if len(seq) <= 256 else tuple(seq)


def _mul(p: Raw, q: Raw) -> Raw:
    """Raw composition, apply q first: r[i] = p[q[i]], in C.  For bytes, q
    translated by p's images, padded to a translate table."""
    if q.__class__ is bytes:
        return q.translate(p.ljust(256, b"\0"))
    return itemgetter(*q)(p)


def _inv(p: Raw) -> Raw:
    """Raw inverse.  For bytes, the table that maps byte p[i] to i."""
    n = len(p)
    if p.__class__ is bytes:
        return bytes.maketrans(p, _BYTE_POINTS[:n])[:n]
    out = [0] * n
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _identity(n: int) -> Raw:
    return _raw(range(n))


def _power(p: Raw, e: int) -> Raw:
    """Raw p^e for e >= 0, by repeated squaring from the identity."""
    r = _identity(len(p))
    while e:
        if e & 1:
            r = _mul(r, p)
        e >>= 1
        if e:
            p = _mul(p, p)
    return r


class Permutation:
    """Immutable bijection of {1..n}; hashable, usable as a dict key."""

    __slots__ = ("_img",)

    def __init__(self, images: Sequence[int]):
        """Build from the 1-based image array: images[i-1] is the image of i."""
        img = [v - 1 for v in images]
        n = len(img)
        if sorted(img) != list(range(n)):
            raise ValueError(f"not a bijection of 1..{n}: {list(images)!r}")
        self._img = _raw(img)

    @classmethod
    def _from_raw(cls, img: Raw) -> "Permutation":
        p = object.__new__(cls)
        p._img = img
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        return cls._from_raw(_identity(degree))

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple:
        """The 1-based image array."""
        return tuple(v + 1 for v in self._img)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self._img):
            raise ValueError(f"point {point} out of range 1..{len(self._img)}")
        return self._img[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """compose(self, other): apply other first, then self."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self._img) != len(other._img):
            raise DegreeMismatchError(
                f"degree {len(self._img)} != {len(other._img)}"
            )
        return Permutation._from_raw(_mul(self._img, other._img))

    def inverse(self) -> "Permutation":
        return Permutation._from_raw(_inv(self._img))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        return Permutation._from_raw(_power(self._img, k))

    def is_identity(self) -> bool:
        return self._img == _identity(len(self._img))

    def order(self) -> int:
        """Least k >= 1 with p^k = identity: the lcm of the cycle lengths."""
        return reduce(math.lcm, (len(c) for c in self.cycles()), 1)

    def cycles(self) -> list:
        """Disjoint cycles as 1-based tuples, canonical form: each cycle
        starts at its smallest moved point, cycles sorted by that point;
        fixed points omitted."""
        img = self._img
        seen = [False] * len(img)
        out = []
        for i in range(len(img)):
            if seen[i] or img[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = img[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = img[j]
            out.append(tuple(v + 1 for v in cyc))
        return out

    def cycle_type(self) -> tuple:
        """Multiset of cycle lengths >= 2, sorted; invariant under conjugation."""
        return tuple(sorted(len(c) for c in self.cycles()))

    def support(self) -> tuple:
        """Moved points, ascending, 1-based."""
        return tuple(i + 1 for i, j in enumerate(self._img) if i != j)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __lt__(self, other: "Permutation") -> bool:
        # canonical order: lexicographic on image arrays, memcmp on bytes;
        # raws of degrees either side of 256 differ in type
        a, b = self._img, other._img
        if a.__class__ is not b.__class__:
            return tuple(a) < tuple(b)
        return a < b

    def __repr__(self) -> str:
        return f"Permutation({print_cycles(self)!r}, degree={self.degree})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Product p o q, applying q first: (p o q)(i) = p(q(i))."""
    return p * q


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def order(p: Permutation) -> int:
    return p.order()


def conjugate(g: Permutation, a: Permutation) -> Permutation:
    """a o g o a^-1; preserves cycle type."""
    if g.degree != a.degree:
        raise DegreeMismatchError(f"degree {g.degree} != {a.degree}")
    ai = a._img
    return Permutation._from_raw(_mul(ai, _mul(g._img, _inv(ai))))


def commutator(x: Permutation, y: Permutation) -> Permutation:
    """x o y o x^-1 o y^-1."""
    if x.degree != y.degree:
        raise DegreeMismatchError(f"degree {x.degree} != {y.degree}")
    xi, yi = x._img, y._img
    return Permutation._from_raw(_mul(xi, _mul(yi, _mul(_inv(xi), _inv(yi)))))


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle text like "(1,2,3)(4,5)" at an explicit degree.

    Fixed points may be omitted; the empty string (or whitespace) is the
    identity.  Raises CycleFormatError on malformed text, a repeated point,
    or a point outside 1..degree.
    """
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    img = list(range(degree))
    used = set()
    pos = 0
    text = text.strip()
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise CycleFormatError(f"expected '(' at position {pos}: {text!r}")
        end = text.find(")", pos)
        if end < 0:
            raise CycleFormatError(f"unclosed cycle at position {pos}: {text!r}")
        body = text[pos + 1 : end].strip()
        pos = end + 1
        if not body:
            continue
        points = []
        for token in body.split(","):
            token = token.strip()
            if not token.isdigit():
                raise CycleFormatError(f"bad point {token!r} in {text!r}")
            points.append(int(token))
        for v in points:
            if not 1 <= v <= degree:
                raise CycleFormatError(f"point {v} out of range 1..{degree}")
            if v in used:
                raise CycleFormatError(f"point {v} repeated in {text!r}")
            used.add(v)
        for a, b in zip(points, points[1:]):
            img[a - 1] = b - 1
        img[points[-1] - 1] = points[0] - 1
    return Permutation._from_raw(_raw(img))


def print_cycles(p: Permutation) -> str:
    """Canonical disjoint-cycle text; "" for the identity."""
    return "".join("(" + ",".join(map(str, c)) + ")" for c in p.cycles())


def is_prime(n: int) -> bool:
    """Whether n is a prime; False for n < 2."""
    return _primes_of(n) == {n}


def _primes_of(n: int) -> set[int]:
    """The primes dividing n, by trial division."""
    primes, p = set(), 2
    while p * p <= n:
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.add(n)
    return primes
