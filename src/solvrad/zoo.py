"""Constructors for standard group families, a minimal prime-field matrix
layer for projective-line actions, and ingestion of generator files.

GroupSpec DSL: S(n), A(n), C(n), D(n) (dihedral of order 2n on n points),
PSL2(p) for prime 5 <= p <= 31, direct(spec, spec, ...) nested to depth 3,
and file:<path> for a JSON generator file.  file: paths resolve against the
working directory first and fall back to the data files shipped with the
package (so file:sz8.json always works).

The family constructors, and direct products of them, set the order of
the generated group on the GeneratorSet they return, so a caller can
refuse a group past its element cap before building it.  A file: spec sets
it to the order it checked against the file's claimed_order, and hands on
the group it built for that check; it leaves both None when the file claims
none.  A direct product is always built as the product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import factorial, prod
from pathlib import Path
from typing import Optional

from .bsgs import GeneratorSet, build_bsgs
from .perm import Permutation, is_prime, parse_cycles, CycleFormatError

MAX_DIRECT_DEPTH = 3


class GroupSpecError(ValueError):
    """Unparseable or invalid group specification."""


class GroupFileError(ValueError):
    """Bad group file: parse failure, degree mismatch, or order mismatch."""


@dataclass(frozen=True)
class PrimeFieldMatrix:
    """A 2x2 matrix over F_p; strictly a device for building permutation
    representations of matrix groups on the projective line."""

    p: int
    entries: tuple  # ((a, b), (c, d)), residues mod p

    def __post_init__(self):
        (a, b), (c, d) = self.entries
        object.__setattr__(
            self,
            "entries",
            ((a % self.p, b % self.p), (c % self.p, d % self.p)),
        )

    def determinant(self) -> int:
        (a, b), (c, d) = self.entries
        return (a * d - b * c) % self.p

    def __mul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        if self.p != other.p:
            raise ValueError("mixed moduli")
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return PrimeFieldMatrix(
            self.p,
            ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)),
        )

    def projective_permutation(self) -> Permutation:
        """Action on P^1(F_p): slopes 0..p-1 are points 1..p, infinity is
        point p+1.  Requires a nonzero determinant."""
        if self.determinant() == 0:
            raise ValueError("singular matrix has no projective action")
        p = self.p
        (a, b), (c, d) = self.entries
        images = [0] * (p + 1)
        for point in range(1, p + 2):
            if point <= p:  # finite slope z as (z : 1)
                x, y = point - 1, 1
            else:  # infinity as (1 : 0)
                x, y = 1, 0
            nx, ny = (a * x + b * y) % p, (c * x + d * y) % p
            if ny == 0:
                images[point - 1] = p + 1
            else:
                images[point - 1] = (nx * pow(ny, -1, p)) % p + 1
        return Permutation(images)


def psl2_perm(p: int) -> GeneratorSet:
    """Generators of PSL2(p) acting on the p+1 points of the projective
    line: the transvection [[1,1],[0,1]] and the rotation [[0,-1],[1,0]]."""
    if not (is_prime(p) and 5 <= p <= 31):
        raise GroupSpecError(f"PSL2 parameter must be a prime in 5..31, got {p}")
    t = PrimeFieldMatrix(p, ((1, 1), (0, 1)))
    s = PrimeFieldMatrix(p, ((0, -1), (1, 0)))
    return GeneratorSet(
        p + 1,
        [t.projective_permutation(), s.projective_permutation()],
        p * (p * p - 1) // 2,
    )


@dataclass
class GroupFile:
    format_version: int
    name: str
    degree: int
    generators: list[str]
    claimed_order: Optional[int]
    provenance: str


def load_group_file(path: str) -> tuple[GeneratorSet, GroupFile]:
    """Parse a JSON generator file and, when claimed_order is present,
    verify it against the computed group order (mismatch is a hard error)
    and set it as the returned GeneratorSet's order, and the group built to
    check it as its `built`, so `build_bsgs` does not build it again."""
    source = _resolve_file(path)
    try:
        doc = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise GroupFileError(f"cannot read group file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise GroupFileError(f"group file {path} is not a JSON object")
    if doc.get("format_version") != 1:
        raise GroupFileError(
            f"unsupported format_version {doc.get('format_version')!r} in {path}"
        )
    try:
        meta = GroupFile(
            format_version=1,
            name=str(doc["name"]),
            degree=int(doc["degree"]),
            generators=list(doc["generators"]),
            claimed_order=(
                int(doc["claimed_order"]) if "claimed_order" in doc else None
            ),
            provenance=str(doc.get("provenance", "")),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise GroupFileError(f"bad field in group file {path}: {e}") from e
    if meta.degree < 1:
        raise GroupFileError(f"degree must be positive in {path}")
    try:
        perms = [parse_cycles(t, meta.degree) for t in meta.generators]
    except CycleFormatError as e:
        raise GroupFileError(f"bad generator in {path}: {e}") from e
    gens = GeneratorSet(meta.degree, perms)
    if meta.claimed_order is not None:
        gens.built = build_bsgs(gens)
        gens.order = gens.built.order
        if gens.order != meta.claimed_order:
            raise GroupFileError(
                f"order mismatch in {path}: claimed {meta.claimed_order}, "
                f"computed {gens.order}"
            )
    return gens, meta


def _resolve_file(path: str):
    p = Path(path)
    if p.exists():
        return p
    packaged = resources.files("solvrad").joinpath("data").joinpath(path)
    if packaged.is_file():
        return packaged
    raise GroupFileError(
        f"group file not found: {path} (also looked in the packaged data files)"
    )


def construct(spec: str) -> GeneratorSet:
    """Build the generator set described by a GroupSpec string."""
    text = spec.strip()
    if text.startswith("file:"):
        gens, _ = load_group_file(text[len("file:") :].strip())
        return gens
    gens, rest = _parse(text, depth=0)
    if rest.strip():
        raise GroupSpecError(f"trailing text {rest!r} after spec in {spec!r}")
    return gens


def _parse(text: str, depth: int) -> tuple[GeneratorSet, str]:
    text = text.lstrip()
    if text.startswith("file:"):
        # inside direct(...) a path runs to the next ',' or ')'; paths
        # containing those characters only work as a top-level spec
        end = len(text)
        for stop in ",)":
            pos = text.find(stop)
            if pos >= 0:
                end = min(end, pos)
        path = text[len("file:") : end].strip()
        gens, _ = load_group_file(path)
        return gens, text[end:]
    for name in ("direct", "PSL2", "S", "A", "C", "D"):
        if text.startswith(name + "(") or (
            text.startswith(name) and text[len(name) :].lstrip().startswith("(")
        ):
            body_start = text.index("(", len(name))
            if name == "direct":
                return _parse_direct(text[body_start:], depth)
            end = text.index(")", body_start) if ")" in text[body_start:] else -1
            if end < 0:
                raise GroupSpecError(f"missing ')' in {text!r}")
            arg = text[body_start + 1 : end].strip()
            if not (arg.isdigit() or (arg.startswith("-") and arg[1:].isdigit())):
                raise GroupSpecError(f"bad integer parameter {arg!r} in {text!r}")
            return _family(name, int(arg)), text[end + 1 :]
    raise GroupSpecError(f"unrecognized group spec {text!r}")


def _parse_direct(text: str, depth: int) -> tuple[GeneratorSet, str]:
    if depth >= MAX_DIRECT_DEPTH:
        raise GroupSpecError(
            f"direct(...) nested deeper than {MAX_DIRECT_DEPTH}"
        )
    assert text.startswith("(")
    rest = text[1:]
    factors = []
    while True:
        gens, rest = _parse(rest, depth + 1)
        factors.append(gens)
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:]
            continue
        if rest.startswith(")"):
            rest = rest[1:]
            break
        raise GroupSpecError(f"expected ',' or ')' in direct(...), got {rest!r}")
    if len(factors) < 2:
        raise GroupSpecError("direct(...) needs at least two factors")
    return direct_product(factors), rest


def _family(name: str, n: int) -> GeneratorSet:
    if name == "PSL2":
        return psl2_perm(n)
    if n < 1:
        raise GroupSpecError(f"{name}({n}): parameter must be >= 1")
    if name == "S":
        return symmetric(n)
    if name == "A":
        return alternating(n)
    if name == "C":
        return cyclic(n)
    if name == "D":
        return dihedral(n)
    raise GroupSpecError(f"unknown family {name}")


def _cycle(n: int, points: list[int]) -> Permutation:
    img = list(range(1, n + 1))
    for a, b in zip(points, points[1:]):
        img[a - 1] = b
    if points:
        img[points[-1] - 1] = points[0]
    return Permutation(img)


def symmetric(n: int) -> GeneratorSet:
    """S(n) = <(1,2), (1,2,...,n)>."""
    if n == 1:
        return GeneratorSet(1, [], 1)
    gens = [_cycle(n, [1, 2]), _cycle(n, list(range(1, n + 1)))]
    return GeneratorSet(n, gens, factorial(n))


def alternating(n: int) -> GeneratorSet:
    """A(n) = <(1,2,3), (3,4,...,n)> for odd n, with the long cycle
    multiplied by (1,2) for even n (keeping both generators even)."""
    if n <= 2:
        return GeneratorSet(max(n, 1), [], 1)
    if n == 3:
        return GeneratorSet(3, [_cycle(3, [1, 2, 3])], 3)
    three = _cycle(n, [1, 2, 3])
    tail = list(range(3, n + 1))
    if n % 2 == 1:
        second = _cycle(n, tail)
    else:
        second = _cycle(n, [1, 2]) * _cycle(n, tail)
    return GeneratorSet(n, [three, second], factorial(n) // 2)


def cyclic(n: int) -> GeneratorSet:
    """C(n) = <(1,2,...,n)>."""
    if n == 1:
        return GeneratorSet(1, [], 1)
    return GeneratorSet(n, [_cycle(n, list(range(1, n + 1)))], n)


def dihedral(n: int) -> GeneratorSet:
    """D(n): order 2n on n points; rotation (1..n) plus the reflection
    fixing point 1 (j -> n+2-j).  Needs n >= 3 for a faithful action."""
    if n < 3:
        raise GroupSpecError(
            f"D({n}): the dihedral group of order {2 * n} has no faithful "
            f"action on {n} points; n >= 3 required"
        )
    rot = _cycle(n, list(range(1, n + 1)))
    refl = Permutation([1] + [n + 2 - j for j in range(2, n + 1)])
    return GeneratorSet(n, [rot, refl], 2 * n)


def direct_product(factors: list[GeneratorSet]) -> GeneratorSet:
    """Disjoint-support juxtaposition: degree is the sum of the factor
    degrees, and each factor generator acts on its own block of points.
    The order is the product of the factors' orders, when all are known."""
    degree = sum(f.degree for f in factors)
    gens = []
    offset = 0
    for f in factors:
        for g in f.generators:
            img = list(range(1, degree + 1))
            for i, v in enumerate(g.images):
                img[offset + i] = offset + v
            gens.append(Permutation(img))
        offset += f.degree
    orders = [f.order for f in factors]
    order = None if None in orders else prod(orders)
    return GeneratorSet(degree, gens, order)
