"""Ambient groups, finite ground sets, and representation-function algebra.

Elements are plain ints (rank-1 integer lattice and residue rings) or tuples
of ints (lattices of rank >= 2).  All counts are exact Python integers; the
only floating point in this module is none at all.

Lattice coordinates are kept inside the signed 64-bit range and every
arithmetic step is checked, because a silently wrapped coordinate would
corrupt dissociativity verdicts downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    AmbientMismatchError,
    CoordinateOverflowError,
    PreconditionError,
    SizeCapExceededError,
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# Dense convolution tables are worthwhile only below this index range.
DENSE_RANGE_LIMIT = 1 << 22

Element = Union[int, tuple]


def _check64(value: int) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise CoordinateOverflowError(f"coordinate {value} outside signed 64-bit range")
    return value


@dataclass(frozen=True)
class IntegerLattice:
    """Z^rank with componentwise addition; rank 1 uses bare ints."""

    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("lattice rank must be >= 1")

    @property
    def zero(self) -> Element:
        return 0 if self.rank == 1 else (0,) * self.rank

    def validate(self, x: Element) -> Element:
        if self.rank == 1:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"rank-1 lattice element must be int, got {x!r}")
            return _check64(x)
        if not isinstance(x, tuple) or len(x) != self.rank:
            raise TypeError(f"rank-{self.rank} element must be a {self.rank}-tuple, got {x!r}")
        for c in x:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"lattice coordinates must be ints, got {c!r}")
            _check64(c)
        return x

    def add(self, a: Element, b: Element) -> Element:
        if self.rank == 1:
            return _check64(a + b)
        return tuple(_check64(x + y) for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        if self.rank == 1:
            return _check64(a - b)
        return tuple(_check64(x - y) for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        if self.rank == 1:
            return _check64(-a)
        return tuple(_check64(-x) for x in a)

    def scale(self, lam: int, a: Element) -> Element:
        if self.rank == 1:
            return _check64(lam * a)
        return tuple(_check64(lam * x) for x in a)

    def magnitude(self, a: Element) -> int:
        if self.rank == 1:
            return abs(a)
        return max(abs(x) for x in a)

    def describe(self) -> str:
        return f"z d={self.rank}"


@dataclass(frozen=True)
class Residues:
    """Z/NZ with representatives in [0, N)."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")

    @property
    def rank(self) -> int:
        return 1

    @property
    def zero(self) -> int:
        return 0

    def validate(self, x: Element) -> int:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"residue must be int, got {x!r}")
        return x % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def scale(self, lam: int, a: int) -> int:
        return (lam * a) % self.modulus

    def magnitude(self, a: int) -> int:
        # Distance to 0 on the cycle; used only for deterministic orderings.
        return min(a, self.modulus - a)

    def describe(self) -> str:
        return f"mod {self.modulus}"


Ambient = Union[IntegerLattice, Residues]


def _require_same_ambient(a: "GroundSet", b: "GroundSet") -> Ambient:
    if a.ambient != b.ambient:
        raise AmbientMismatchError(f"ambients differ: {a.ambient} vs {b.ambient}")
    return a.ambient


@dataclass(frozen=True)
class GroundSet:
    """A finite subset of an ambient group, stored sorted and deduplicated."""

    ambient: Ambient
    elements: tuple

    @classmethod
    def of(cls, ambient: Ambient, items: Iterable[Element]) -> "GroundSet":
        seen = {ambient.validate(x) for x in items}
        return cls(ambient, tuple(sorted(seen)))

    @cached_property
    def _index(self) -> frozenset:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __bool__(self) -> bool:
        return bool(self.elements)

    def restrict(self, keep: Iterable[Element]) -> "GroundSet":
        keep = set(keep)
        return GroundSet(self.ambient, tuple(x for x in self.elements if x in keep))

    def without(self, drop: Iterable[Element]) -> "GroundSet":
        drop = set(drop)
        return GroundSet(self.ambient, tuple(x for x in self.elements if x not in drop))

    def union(self, other: "GroundSet") -> "GroundSet":
        _require_same_ambient(self, other)
        return GroundSet.of(self.ambient, self.elements + other.elements)

    def diameter(self) -> int:
        """Max coordinate spread; 0 for empty sets."""
        if not self.elements:
            return 0
        amb = self.ambient
        if isinstance(amb, Residues):
            return amb.modulus - 1
        if amb.rank == 1:
            return self.elements[-1] - self.elements[0]
        spans = []
        for i in range(amb.rank):
            coords = [x[i] for x in self.elements]
            spans.append(max(coords) - min(coords))
        return max(spans)

    def describe(self) -> str:
        return f"{{{len(self)} elements, {self.ambient.describe()}}}"


def integers(items: Iterable[int]) -> GroundSet:
    """Ground set in the rank-1 integer lattice."""
    return GroundSet.of(IntegerLattice(1), items)


def residues(items: Iterable[int], modulus: int) -> GroundSet:
    """Ground set in Z/nZ."""
    return GroundSet.of(Residues(modulus), items)


def vectors(items: Iterable[tuple], rank: int) -> GroundSet:
    """Ground set in Z^rank."""
    return GroundSet.of(IntegerLattice(rank), items)


def combination(ambient: Ambient, elems: Sequence[Element], coeffs: Sequence[int]) -> Element:
    """Integer combination sum_i coeffs[i] * elems[i] under the ambient ops."""
    acc = ambient.zero
    for c, x in zip(coeffs, elems):
        if c:
            acc = ambient.add(acc, ambient.scale(c, x))
    return acc


def by_magnitude(ambient: Ambient, elems: Iterable[Element], descending: bool = False) -> list:
    """Elements ordered by ambient magnitude, ties broken by value."""
    sign = -1 if descending else 1
    return sorted(elems, key=lambda e: (sign * ambient.magnitude(e), e))


# ---------------------------------------------------------------------------
# Set algebra


def sumset(a: GroundSet, b: GroundSet, sign: str = "+", size_cap: int | None = None) -> GroundSet:
    """A + B or A - B as a ground set."""
    amb = _require_same_ambient(a, b)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    op = amb.add if sign == "+" else amb.sub
    out = set()
    for x in a.elements:
        for y in b.elements:
            out.add(op(x, y))
        if size_cap is not None and len(out) > size_cap:
            raise SizeCapExceededError(
                f"sumset exceeds cap {size_cap}", cap=size_cap, stage="sumset"
            )
    return GroundSet(amb, tuple(sorted(out)))


def dilate(a: GroundSet, lam: int) -> GroundSet:
    """lam * A elementwise; lam must be nonzero."""
    if lam == 0:
        raise PreconditionError("dilation by 0 collapses the set")
    return GroundSet.of(a.ambient, (a.ambient.scale(lam, x) for x in a.elements))


def translate(a: GroundSet, x: Element) -> GroundSet:
    """A + x elementwise."""
    amb = a.ambient
    x = amb.validate(x)
    return GroundSet.of(amb, (amb.add(e, x) for e in a.elements))


def iterated_sumset(
    a: GroundSet, n: int, m: int = 0, size_cap: int | None = None
) -> GroundSet:
    """nA - mA computed by successive sumsets with a cap check per stage."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    acc = a
    for _ in range(n - 1):
        acc = sumset(acc, a, "+", size_cap=size_cap)
    for _ in range(m):
        acc = sumset(acc, a, "-", size_cap=size_cap)
    return acc


# ---------------------------------------------------------------------------
# Representation functions


@dataclass(frozen=True)
class RepFn:
    """Counting function x -> #representations, with exact integer counts."""

    ambient: Ambient
    entries: dict

    def __getitem__(self, x) -> int:
        return self.entries.get(x, 0)

    def support(self) -> GroundSet:
        return GroundSet(self.ambient, tuple(sorted(self.entries)))

    def max_value(self) -> int:
        return max(self.entries.values()) if self.entries else 0

    def square_sum(self) -> int:
        return sum(c * c for c in self.entries.values())


def _convolve_dict(entries: dict, part: GroundSet, sign: str) -> dict:
    amb = part.ambient
    op = amb.add if sign == "+" else amb.sub
    out: dict = {}
    for x, c in entries.items():
        for y in part.elements:
            z = op(x, y)
            out[z] = out.get(z, 0) + c
    return out


def _convolve_dense_line(entries: dict, part: GroundSet, sign: str) -> dict:
    """Dense rank-1 convolution over an integer index range."""
    lo_e = min(entries)
    hi_e = max(entries)
    deltas = [y if sign == "+" else -y for y in part.elements]
    lo = lo_e + min(deltas)
    hi = hi_e + max(deltas)
    table = [0] * (hi - lo + 1)
    for x, c in entries.items():
        for d in deltas:
            table[x + d - lo] += c
    return {lo + i: c for i, c in enumerate(table) if c}


def _convolve_dense_cyclic(entries: dict, part: GroundSet, sign: str) -> dict:
    n = part.ambient.modulus
    deltas = [y if sign == "+" else n - y for y in part.elements]
    table = [0] * n
    for x, c in entries.items():
        for d in deltas:
            table[(x + d) % n] += c
    return {i: c for i, c in enumerate(table) if c}


def _convolve(entries: dict, part: GroundSet, sign: str, size_cap: int | None) -> dict:
    amb = part.ambient
    if not entries or not part.elements:
        return {}
    if isinstance(amb, Residues):
        if amb.modulus <= DENSE_RANGE_LIMIT and len(entries) * 8 >= amb.modulus:
            out = _convolve_dense_cyclic(entries, part, sign)
        else:
            out = _convolve_dict(entries, part, sign)
    elif amb.rank == 1:
        span = max(entries) - min(entries) + part.elements[-1] - part.elements[0] + 1
        if span <= DENSE_RANGE_LIMIT and len(entries) * 8 >= span:
            out = _convolve_dense_line(entries, part, sign)
        else:
            out = _convolve_dict(entries, part, sign)
    else:
        out = _convolve_dict(entries, part, sign)
    if size_cap is not None and len(out) > size_cap:
        raise SizeCapExceededError(
            f"representation support exceeds cap {size_cap}", cap=size_cap, stage="rep_fn"
        )
    return out


def rep_fn(parts: Sequence[tuple[GroundSet, str]], size_cap: int | None = None) -> RepFn:
    """Representation counts of eps_1 A_1 + ... + eps_j A_j, eps in {+, -}.

    ``parts`` is a sequence of (set, sign) pairs.  The count at x is the
    number of tuples (a_1, ..., a_j) with sum of signed a_i equal to x.
    """
    if not parts:
        raise ValueError("rep_fn needs at least one part")
    amb = parts[0][0].ambient
    for gs, sign in parts:
        if gs.ambient != amb:
            raise AmbientMismatchError("rep_fn parts live in different ambients")
        if sign not in ("+", "-"):
            raise ValueError("signs must be '+' or '-'")
    entries = {amb.zero: 1}
    for gs, sign in parts:
        entries = _convolve(entries, gs, sign, size_cap)
    return RepFn(amb, entries)


# ---------------------------------------------------------------------------
# Bounded-support subset sums


def sigma_k(a: GroundSet, k: int, size_cap: int | None = None) -> GroundSet:
    """All sums over subsets of A of size at most k (distinct elements).

    Always contains 0 (the empty subset).  Layered dynamic programming over
    subset sizes with per-layer deduplication.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    amb = a.ambient
    layers: list[set] = [{amb.zero}] + [set() for _ in range(k)]
    for x in a.elements:
        for t in range(min(k, len(layers) - 1), 0, -1):
            prev = layers[t - 1]
            if not prev:
                continue
            cur = layers[t]
            for s in prev:
                cur.add(amb.add(s, x))
            if size_cap is not None and len(cur) > size_cap:
                raise SizeCapExceededError(
                    f"sigma_k layer exceeds cap {size_cap}", cap=size_cap, stage="sigma_k"
                )
    out = set()
    for layer in layers:
        out |= layer
    return GroundSet(amb, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# Multiplicative-to-additive embedding


@dataclass(frozen=True)
class MultEmbedding:
    """Prime-exponent-vector embedding of a set of positive integers.

    ``image`` lives in Z^r where r is the number of primes dividing the
    product of the set; multiplication upstairs is addition downstairs, so
    multiplicative relations and energies transfer exactly.  The integer 1
    maps to the zero vector (it is the identity), which ``has_identity``
    flags for callers that treat 0 specially.
    """

    primes: tuple
    image: GroundSet
    forward: dict  # original int -> vector
    backward: dict  # vector -> original int
    has_identity: bool

    def vector(self, n: int):
        return self.forward[n]

    def preimage(self, sub: GroundSet) -> GroundSet:
        return integers(self.backward[v] for v in sub.elements)


def mult_embed(a: GroundSet) -> MultEmbedding:
    """Embed a set of positive integers via prime exponent vectors."""
    amb = a.ambient
    if not isinstance(amb, IntegerLattice) or amb.rank != 1:
        raise PreconditionError("mult_embed expects a rank-1 integer set")
    if any(x < 1 for x in a.elements):
        raise PreconditionError("mult_embed expects positive integers")
    import sympy

    factorizations = {x: sympy.factorint(x) for x in a.elements}
    primes = sorted({p for f in factorizations.values() for p in f})
    rank = max(1, len(primes))
    target = IntegerLattice(rank)
    forward = {}
    backward = {}
    for x in a.elements:
        f = factorizations[x]
        if primes:
            vec = tuple(f.get(p, 0) for p in primes)
        else:
            vec = (0,)
        if rank == 1:
            vec = vec[0] if primes else 0
        forward[x] = vec
        backward[vec] = x
    image = GroundSet.of(target, forward.values()) if primes else GroundSet.of(
        IntegerLattice(1), forward.values()
    )
    return MultEmbedding(
        primes=tuple(primes),
        image=image,
        forward=forward,
        backward=backward,
        has_identity=1 in a._index,
    )


def product_set(a: GroundSet, b: GroundSet, size_cap: int | None = None) -> GroundSet:
    """A * B for integer sets, or pointwise products mod N for residues."""
    amb = _require_same_ambient(a, b)
    out = set()
    if isinstance(amb, Residues):
        n = amb.modulus
        for x in a.elements:
            for y in b.elements:
                out.add((x * y) % n)
    else:
        if amb.rank != 1:
            raise PreconditionError("product_set needs rank-1 integers or residues")
        for x in a.elements:
            for y in b.elements:
                out.add(_check64(x * y))
    if size_cap is not None and len(out) > size_cap:
        raise SizeCapExceededError(f"product set exceeds cap {size_cap}", cap=size_cap)
    return GroundSet(amb, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# Set file format
#
#   # comment
#   @ambient z d=2        (or "@ambient mod 97"; default "z d=1")
#   1,0
#   -3,7


def parse_set_text(text: str) -> GroundSet:
    ambient: Ambient = IntegerLattice(1)
    items: list[Element] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@ambient"):
            if items:
                raise ValueError(f"line {lineno}: @ambient must precede elements")
            if saw_header:
                raise ValueError(f"line {lineno}: duplicate @ambient header")
            saw_header = True
            spec = line[len("@ambient"):].strip()
            if spec.startswith("mod"):
                ambient = Residues(int(spec[3:].strip()))
            elif spec.startswith("z"):
                rest = spec[1:].strip()
                rank = 1
                if rest:
                    if not rest.startswith("d="):
                        raise ValueError(f"line {lineno}: bad lattice spec {spec!r}")
                    rank = int(rest[2:])
                ambient = IntegerLattice(rank)
            else:
                raise ValueError(f"line {lineno}: unknown ambient {spec!r}")
            continue
        coords = [int(tok.strip()) for tok in line.split(",")]
        if isinstance(ambient, IntegerLattice) and ambient.rank > 1:
            items.append(tuple(coords))
        else:
            if len(coords) != 1:
                raise ValueError(f"line {lineno}: expected a single integer, got {line!r}")
            items.append(coords[0])
    return GroundSet.of(ambient, items)


def format_set(gs: GroundSet) -> str:
    lines = [f"@ambient {gs.ambient.describe()}"]
    for x in gs.elements:
        if isinstance(x, tuple):
            lines.append(",".join(str(c) for c in x))
        else:
            lines.append(str(x))
    return "\n".join(lines) + "\n"


def load_set(path: str) -> GroundSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_set_text(fh.read())


def save_set(gs: GroundSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_set(gs))
