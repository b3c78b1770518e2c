"""Ambient groups, finite ground sets, and representation-function algebra.

Elements are plain ints (rank-1 integer lattice and residue rings) or tuples
of ints (lattices of rank >= 2).  All counts are exact Python integers; the
only floating point in this module is none at all.

Lattice coordinates are kept inside the signed 64-bit range, because a
silently wrapped coordinate would corrupt dissociativity verdicts
downstream.  Single ambient operations check their result.  Bulk sums
(``sumset``, ``rep_fn``, ``translate``, ``span_k``) add plain ints instead:
``_int_view`` maps each part of a signed sum onto ints (elements on the
line, residues mod N, mixed-radix packed vectors on Z^r) and checks int64
once, on the per-coordinate extremes of every prefix of the parts, before
any sum is formed.  Each partial sum lies between those extremes and both
extremes are reached, so the check raises exactly when checking every
partial sum would.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import add, mul
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


def _mixed_radix(spreads: list) -> list:
    """Weights W with W[-1] = 1 and W[i-1] = W[i] * (spreads[i] + 1).

    The linear code v -> sum_i v_i * W[i] is injective on any box whose
    coordinate i takes spreads[i] + 1 consecutive values: two points of it
    differ by at most spreads[i] in coordinate i, so no digit carries.
    """
    weights = [1]
    for spread in spreads[:0:-1]:
        weights.append(weights[-1] * (spread + 1))
    weights.reverse()
    return weights


def _int_view(ambient: Ambient, parts: Sequence[tuple[Sequence[Element], str]]):
    """Plain-int codes for the parts of a signed sum, and their decoder.

    ``parts`` holds nonempty (elements, sign) pairs.  Returns (codes,
    modulus, decode): codes[j] holds the ints of part j in its element
    order, with its sign applied.  One code from every part, added (mod
    ``modulus`` when it is not None), is the code of the ambient sum, and
    ``decode`` maps a list of such codes back to their sums; None means the
    codes are the elements themselves.

    On the line a code is the signed element, and mod N the signed residue.
    On Z^r a vector v of part j packs to sum_i (v_i - lo_ji) * W_i (Kronecker
    substitution), where lo_ji is coordinate i's minimum over part j, and the
    mixed-radix weights are W_{r-1} = 1 and W_{i-1} = W_i * (s_i + 1), with
    s_i the spread of coordinate i over the sums of all parts.  No digit
    carries, so the packing is injective on those sums and orders them as
    tuples.

    Before returning, int64 is checked on every prefix of the parts: the
    sums of its per-coordinate minima, then of its maxima.  The first one
    outside the range is the value the error names.
    """
    if isinstance(ambient, Residues):
        n = ambient.modulus
        return [e if s == "+" else [-y % n for y in e] for e, s in parts], n, None
    if ambient.rank == 1:
        codes = [e if s == "+" else [-y for y in e] for e, s in parts]
        lo = hi = 0
        for part in codes:
            lo += min(part)
            hi += max(part)
            if lo < INT64_MIN or hi > INT64_MAX:
                _check64(lo)
                _check64(hi)
        return codes, None, None
    signed = [e if s == "+" else [tuple(-v for v in y) for y in e] for e, s in parts]
    lows = [tuple(map(min, zip(*part))) for part in signed]
    lo_sum = hi_sum = (0,) * ambient.rank
    for part, lo in zip(signed, lows):
        lo_sum = tuple(map(add, lo_sum, lo))
        hi_sum = tuple(map(add, hi_sum, map(max, zip(*part))))
        if min(lo_sum) < INT64_MIN or max(hi_sum) > INT64_MAX:
            for value in lo_sum + hi_sum:
                _check64(value)
    weights = _mixed_radix([hi - lo for lo, hi in zip(lo_sum, hi_sum)])
    codes = []
    for part, lo in zip(signed, lows):
        shift = sum(map(mul, lo, weights))
        codes.append([sum(map(mul, y, weights)) - shift for y in part])

    def decode(codes: list) -> list:
        columns = []
        for w, lo in zip(weights[:-1], lo_sum):
            columns.append([c // w + lo for c in codes])
            codes = [c % w for c in codes]
        columns.append([c + lo_sum[-1] for c in codes])
        return list(zip(*columns))

    return codes, None, decode


def _decoded(codes: list, decode) -> tuple:
    return tuple(codes if decode is None else decode(codes))


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(bits: int, base: int) -> list:
    """base + i for every set bit i of ``bits``, ascending."""
    flags = bin(bits)[:1:-1].encode().translate(_BIT_BYTES)
    return list(compress(range(base, base + len(flags)), flags))


def sumset(a: GroundSet, b: GroundSet, sign: str = "+", size_cap: int | None = None) -> GroundSet:
    """A + B or A - B as a ground set.

    With at least one pair per four slots of the sums' index range (at
    most ``DENSE_RANGE_LIMIT`` slots), B's shifts of A's bitset are OR-ed;
    otherwise the sums of each row of A are collected, checking the cap
    after every row.  Either way the cap raises iff |A +- B| > cap.
    """
    amb = _require_same_ambient(a, b)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if not a.elements or not b.elements:
        return GroundSet(amb, ())
    (xs, ys), n, decode = _int_view(amb, [(a.elements, "+"), (b.elements, sign)])
    lo_x = lo_y = 0
    if n is None:
        lo_x, lo_y = min(xs), min(ys)
        span = max(xs) - lo_x + max(ys) - lo_y + 1
    else:
        span = n
    if span <= DENSE_RANGE_LIMIT and len(xs) * len(ys) * 4 >= span:
        row = 0
        for x in xs:
            row |= 1 << (x - lo_x)
        bits = 0
        for y in ys:
            bits |= row << (y - lo_y)
        if n is not None:
            bits = (bits & ((1 << n) - 1)) | (bits >> n)
        if size_cap is not None and bits.bit_count() > size_cap:
            raise SizeCapExceededError(
                f"sumset exceeds cap {size_cap}", cap=size_cap, stage="sumset"
            )
        codes = _set_bits(bits, lo_x + lo_y)
    else:
        out: set = set()
        for x in xs:
            out.update([x + y for y in ys] if n is None else [(x + y) % n for y in ys])
            if size_cap is not None and len(out) > size_cap:
                raise SizeCapExceededError(
                    f"sumset exceeds cap {size_cap}", cap=size_cap, stage="sumset"
                )
        codes = sorted(out)
    return GroundSet(amb, _decoded(codes, decode))


def dilate(a: GroundSet, lam: int) -> GroundSet:
    """lam * A elementwise; lam must be nonzero."""
    if lam == 0:
        raise PreconditionError("dilation by 0 collapses the set")
    return GroundSet.of(a.ambient, (a.ambient.scale(lam, x) for x in a.elements))


def translate(a: GroundSet, x: Element) -> GroundSet:
    """A + x elementwise."""
    amb = a.ambient
    x = amb.validate(x)
    if not a.elements:
        return GroundSet(amb, ())
    (es, (d,)), n, decode = _int_view(amb, [(a.elements, "+"), ((x,), "+")])
    codes = sorted([e + d for e in es] if n is None else [(e + d) % n for e in es])
    return GroundSet(amb, _decoded(codes, decode))


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

    def square_sum(self) -> int:
        return sum(c * c for c in self.entries.values())


# Array typecodes for the packed counts of a dense convolution, narrowest first.
_COUNT_TYPES = [(code, array(code).itemsize) for code in "BHIQ"]

# Below this many pairs, setting up the packed arrays costs more than
# adding the pairs into a dict.
PACKED_MIN_PAIRS = 256


def _packed_product(entries: dict, ints: list, modulus: int | None) -> dict | None:
    """``_convolve``'s counts by one big-integer product, or None where a dict is better.

    The product needs at least ``PACKED_MIN_PAIRS`` pairs, at least two
    pairs per slot of the sums' index range, at most ``DENSE_RANGE_LIMIT``
    slots, and max(counts) * len(ints) below 2^64.  The counts are packed
    into fixed-width slots of one big integer and multiplied by the
    indicator of ``ints`` packed the same way; no slot carries, because no
    count of the product exceeds that bound.
    """
    pairs = len(entries) * len(ints)
    if pairs < PACKED_MIN_PAIRS:
        return None
    lo_e, lo_y = (min(entries), min(ints)) if modulus is None else (0, 0)
    width = max(entries) - lo_e + 1
    reach = max(ints) - lo_y + 1
    span = width + reach - 1 if modulus is None else modulus
    if span > DENSE_RANGE_LIMIT or pairs < 2 * span:
        return None
    bits = (max(entries.values()) * len(ints)).bit_length()
    if bits > 64:
        return None
    code, size = next(t for t in _COUNT_TYPES if bits <= 8 * t[1])
    row = array(code, bytes(size * width))
    for x, c in entries.items():
        row[x - lo_e] = c
    part = array(code, bytes(size * reach))
    for y in ints:
        part[y - lo_y] = 1
    product = int.from_bytes(row.tobytes(), sys.byteorder) * int.from_bytes(
        part.tobytes(), sys.byteorder
    )
    counts = array(code, product.to_bytes(size * (width + reach - 1), sys.byteorder)).tolist()
    if modulus is None:
        base = lo_e + lo_y
        return {base + i: c for i, c in enumerate(counts) if c}
    high = counts[modulus:]
    counts = counts[:modulus]
    counts[: len(high)] = map(add, counts, high)
    return {i: c for i, c in enumerate(counts) if c}


def _convolve(entries: dict, ints: list, modulus: int | None, size_cap: int | None) -> dict:
    """Counts of x + y (mod ``modulus``) over x in ``entries``, with its count, and y in ``ints``."""
    out = _packed_product(entries, ints, modulus)
    if out is None:
        out = {}
        for x, c in entries.items():
            for y in ints:
                z = x + y if modulus is None else (x + y) % modulus
                out[z] = out.get(z, 0) + c
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
    # Sums reach only the parts before the first empty one.
    formed = []
    for gs, sign in parts:
        if not gs.elements:
            break
        formed.append((gs.elements, sign))
    codes, n, decode = _int_view(amb, formed)
    if len(formed) < len(parts):
        return RepFn(amb, {})
    entries = {0: 1}
    for ints in codes:
        entries = _convolve(entries, ints, n, size_cap)
    if decode is not None:
        entries = dict(zip(decode(list(entries)), entries.values()))
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
