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
from math import gcd
from operator import add, mul
from typing import Iterable, Sequence, Union

from ._ntheory import factorint
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


def _unit_dilations(a: GroundSet) -> tuple:
    """The units g mod N with gA = A, ascending, when A mod N holds a unit.

    x -> gx is then an automorphism of Z/N that maps A onto itself, so it
    keeps relations, k-fold sums and the Dirichlet sum of A.  Such a g maps
    A's first unit u to a unit y of A, so g = y/u: at most |A| candidates,
    each checked against A with an early exit.  Off ``Residues``, and for a
    set without a unit, the result is (1,): a set of non-units may have far
    more dilations than elements (every unit fixes {N/2}), and the trivial
    group is a subgroup of any stabilizer.
    """
    amb = a.ambient
    if not isinstance(amb, Residues):
        return (1,)
    n = amb.modulus
    units = [y for y in a.elements if gcd(y, n) == 1]
    if not units:
        return (1,)
    inv = pow(units[0], -1, n)
    index = a._index
    candidates = sorted(y * inv % n for y in units)
    return tuple(g for g in candidates if all(g * x % n in index for x in a.elements))


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


# From this many pairs on, a sparse step sorts its pair sums as int64
# arrays instead of adding them into a set or a dict one by one.
SORTED_MIN_PAIRS = 2048

# A sorted step forms at most this many pair sums at once, or as many as
# the support found so far, whichever is larger.
SORTED_BLOCK_PAIRS = 1 << 14


def _cap_error(stage: str, size_cap: int) -> SizeCapExceededError:
    subject = "sumset" if stage == "sumset" else "representation support"
    return SizeCapExceededError(f"{subject} exceeds cap {size_cap}", cap=size_cap, stage=stage)


def _sums_fit64(lo_x: int, hi_x: int, ys: Sequence[int], modulus: int | None) -> bool:
    """Whether the codes in [lo_x, hi_x], the codes ``ys`` and every sum of
    one of each fit int64; mod N the codes lie in [0, N) and each sum below 2N."""
    if modulus is not None:
        return 2 * modulus <= INT64_MAX
    lo_y, hi_y = min(ys), max(ys)
    lo, hi = min(lo_x, lo_y, lo_x + lo_y), max(hi_x, hi_y, hi_x + hi_y)
    return INT64_MIN <= lo and hi <= INT64_MAX


def _reduced(sums, weights, kind: str):
    """The distinct values of the nonempty int64 array ``sums``, ascending,
    each with the total of its ``weights`` (None when ``weights`` is).

    ``sums`` must be a fresh array: a sort without weights runs in place.
    """
    import numpy as np

    if weights is None:
        sums.sort(kind=kind)
    else:
        order = sums.argsort(kind=kind)
        sums, weights = sums[order], weights[order]
        del order  # one pair-sized array fewer at the peak
    first = np.empty(len(sums), bool)
    first[0] = True
    np.not_equal(sums[1:], sums[:-1], out=first[1:])
    if weights is None:
        return sums[first], None
    starts = np.flatnonzero(first)
    return sums[starts], np.add.reduceat(weights, starts)


def _sorted_blocks(keys, counts, ys, modulus: int | None, size_cap: int | None, stage: str):
    """The sums x + y (mod ``modulus``) of int64 arrays ``keys`` and ``ys``, sorted.

    A block of rows of ``keys`` (at least ``SORTED_BLOCK_PAIRS`` pairs, or
    as many as the support found so far) forms its pair sums as one int64
    array, and ``_reduced`` sorts them and drops equal neighbours, adding
    their counts when ``counts``, the int64 count of each key, is not
    None.  Each block merges into the sorted support found so far, and
    the cap of ``stage`` raises after the first block past ``size_cap``;
    the support only grows, so it raises iff the whole support passes the
    cap.  Returns the ascending int64 arrays (codes, counts), counts None
    when ``counts`` is.
    """
    import numpy as np

    out_keys = out_counts = None
    start = 0
    while start < len(keys):
        found = 0 if out_keys is None else len(out_keys)
        stop = start + max(1, max(SORTED_BLOCK_PAIRS, found) // len(ys))
        sums = (keys[start:stop, None] + ys).ravel()
        if modulus is not None:
            sums[sums >= modulus] -= modulus
        weights = None if counts is None else np.repeat(counts[start:stop], len(ys))
        block_keys, block_counts = _reduced(sums, weights, "quicksort")
        if out_keys is None:
            out_keys, out_counts = block_keys, block_counts
        else:
            # Two ascending runs: a stable sort merges them in linear time.
            merged = np.concatenate((out_keys, block_keys))
            weights = None if counts is None else np.concatenate((out_counts, block_counts))
            out_keys, out_counts = _reduced(merged, weights, "stable")
        if size_cap is not None and len(out_keys) > size_cap:
            raise _cap_error(stage, size_cap)
        start = stop
    return out_keys, out_counts


def _sum_codes(xs, base: int | None, ys: Sequence[int], modulus: int | None, size_cap: int | None):
    """X + Y on plain-int codes, added mod ``modulus`` when it is not None.

    X is ``xs``: a bitset whose bit i stands for the code base + i when
    ``base`` is not None, else a collection of codes or the ascending int64
    array of an earlier sorted step; Y is the sequence ``ys``.  Both are
    nonempty.  Returns (state, base, count): X + Y in one of those forms,
    and its size as an int.

    With at least one pair per four slots of the sums' index range (at
    most ``DENSE_RANGE_LIMIT`` slots; mod N the range is N), X + Y is a
    bitset: Y's shifts of X's bitset are OR-ed, and mod N the bits past N
    fold back.  Otherwise, with at least ``SORTED_MIN_PAIRS`` pairs whose
    codes and sums fit int64, it is the ascending int64 array that
    ``_sorted_blocks`` leaves, which imports numpy the first time it runs.
    Otherwise it is a set, built one row per element of the shorter of X
    and Y, checking the cap after every row.  Every path raises iff
    |X + Y| > cap.
    """
    in_array = base is None and not isinstance(xs, (set, list, tuple))
    if base is not None:
        count = xs.bit_count()
        lo_x, hi_x = base, base + xs.bit_length() - 1
    else:
        count = len(xs)
        lo_x, hi_x = (int(xs[0]), int(xs[-1])) if in_array else (min(xs), max(xs))
    if modulus is None:
        lo_y = min(ys)
        span = hi_x - lo_x + max(ys) - lo_y + 1
    else:
        lo_x = lo_y = 0
        span = modulus
    if span <= DENSE_RANGE_LIMIT and count * len(ys) * 4 >= span:
        if base is None:
            # One digit per slot, most significant first: linear in the width.
            flags = bytearray(b"0") * (hi_x - lo_x + 1)
            for x in xs.tolist() if in_array else xs:
                flags[hi_x - x] = 49
            xs = int(flags, 2)
        out = 0
        for y in ys:
            out |= xs << (y - lo_y)
        if modulus is not None:
            out = (out & ((1 << modulus) - 1)) | (out >> modulus)
        count = out.bit_count()
        if size_cap is not None and count > size_cap:
            raise _cap_error("sumset", size_cap)
        return out, lo_x + lo_y, count
    if base is not None:
        xs = _set_bits(xs, base)
    if count * len(ys) >= SORTED_MIN_PAIRS and _sums_fit64(lo_x, hi_x, ys, modulus):
        import numpy as np

        keys = xs if in_array else np.fromiter(xs, np.int64, count)
        out, _ = _sorted_blocks(keys, None, np.array(ys, np.int64), modulus, size_cap, "sumset")
        return out, None, len(out)
    if in_array:
        xs = xs.tolist()
    rows, cols = (ys, xs) if len(ys) <= count else (xs, ys)
    out = set()
    for r in rows:
        sums = map(r.__add__, cols)
        out.update(sums if modulus is None else map(modulus.__rmod__, sums))
        if size_cap is not None and len(out) > size_cap:
            raise _cap_error("sumset", size_cap)
    return out, None, len(out)


def sumset(a: GroundSet, b: GroundSet, sign: str = "+", size_cap: int | None = None) -> GroundSet:
    """A + B or A - B as a ground set.

    The sums are formed once on ``_int_view`` codes by ``_sum_codes``,
    which picks a bitset, a sorted int64 array or a set of codes, and
    decoded once at the end (an array through one ``tolist``).  The cap
    raises iff |A +- B| > cap.
    """
    amb = _require_same_ambient(a, b)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if not a.elements or not b.elements:
        return GroundSet(amb, ())
    (xs, ys), n, decode = _int_view(amb, [(a.elements, "+"), (b.elements, sign)])
    out, base, _count = _sum_codes(xs, None, ys, n, size_cap)
    if base is not None:
        codes = _set_bits(out, base)
    else:
        codes = sorted(out) if isinstance(out, set) else out.tolist()
    return GroundSet(amb, _decoded(codes, decode))


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


class RepFn:
    """Counting function x -> #representations, with exact integer counts.

    ``entries`` maps each x of the support to its count.  When the last
    step of ``rep_fn`` sorted its sums, the RepFn keeps that step's
    ascending int64 arrays of codes and counts instead: ``entries`` builds
    the dict from them when first read, while ``support_size`` and
    ``square_sum`` read the arrays, so a support size or an energy never
    builds the dict.
    """

    def __init__(self, ambient: Ambient, entries: dict):
        self.ambient = ambient
        self._entries = entries
        self._sorted = None

    @classmethod
    def _of_sorted(cls, ambient: Ambient, codes, counts, decode) -> "RepFn":
        r = cls(ambient, None)
        r._sorted = (codes, counts, decode)
        return r

    @property
    def entries(self) -> dict:
        if self._entries is None:
            codes, counts, decode = self._sorted
            codes = codes.tolist()
            self._entries = dict(zip(codes if decode is None else decode(codes), counts.tolist()))
            self._sorted = None
        return self._entries

    def __getitem__(self, x) -> int:
        return self.entries.get(x, 0)

    def support_size(self) -> int:
        return _support(self._entries if self._entries is not None else self._sorted[:2])

    def square_sum(self) -> int:
        return _square_sum(self._entries if self._entries is not None else self._sorted[:2])


# Array typecodes for the packed counts of a dense convolution, narrowest first.
_COUNT_TYPES = [(code, array(code).itemsize) for code in "BHIQ"]


def _slot_type(bound: int) -> tuple | None:
    """(typecode, bytes) of the narrowest ``_COUNT_TYPES`` slot that holds
    ``bound``, or None past 64 bits."""
    bits = bound.bit_length()
    return next((t for t in _COUNT_TYPES if bits <= 8 * t[1]), None)


def _packed(slot: tuple, width: int, items) -> int:
    """One big integer of ``width`` slots of type ``slot``, slot i holding c
    for each (i, c) of ``items`` and 0 elsewhere.

    Multiplying two such integers adds, in slot i + j, the product of
    slot i of one and slot j of the other, as long as no slot of the
    product passes its type: the convolution of the two rows of counts.
    """
    code, size = slot
    row = array(code, bytes(size * width))
    for i, c in items:
        row[i] = c
    return int.from_bytes(row.tobytes(), sys.byteorder)


def _fold(q: int, slot: tuple, modulus: int) -> int:
    """The packed product ``q`` of fewer than 2N slots with slot i + N
    added onto slot i; no slot carries when no folded count passes its type."""
    shift = 8 * slot[1] * modulus
    return (q & ((1 << shift) - 1)) + (q >> shift)


def _slots(q: int, slot: tuple, width: int) -> array:
    """The first ``width`` slots of the packed integer ``q``."""
    code, size = slot
    return array(code, q.to_bytes(size * width, sys.byteorder))


# Below this many pairs, setting up the packed arrays costs more than
# adding the pairs into a dict.
PACKED_MIN_PAIRS = 256


def _support(entries) -> int:
    """Number of codes in a dict of counts or in a sorted step's arrays."""
    return len(entries) if isinstance(entries, dict) else len(entries[0])


def _extent(entries) -> tuple:
    """(least code, greatest code, greatest count) of a dict or of sorted arrays."""
    if isinstance(entries, dict):
        return min(entries), max(entries), max(entries.values())
    codes, counts = entries
    return int(codes[0]), int(codes[-1]), int(counts.max())


def _square_sum(entries) -> int:
    """Sum of the squared counts of a dict or of sorted arrays, exact past int64."""
    if isinstance(entries, dict):
        return sum(c * c for c in entries.values())
    counts = entries[1]
    if int(counts.max()) ** 2 * len(counts) <= INT64_MAX:
        return int(counts @ counts)
    return sum(c * c for c in counts.tolist())


def _items(entries):
    """The (code, count) pairs of a dict or of sorted arrays."""
    if isinstance(entries, dict):
        return entries.items()
    codes, counts = entries
    return zip(codes.tolist(), counts.tolist())


def _packed_product(entries, ints: list, modulus: int | None) -> dict | None:
    """``_convolve``'s counts by one big-integer product, or None where a dict is better.

    The product needs at least ``PACKED_MIN_PAIRS`` pairs, at least two
    pairs per slot of the sums' index range, at most ``DENSE_RANGE_LIMIT``
    slots, and max(counts) * len(ints) below 2^64.  The counts are packed
    by ``_packed`` into the narrowest slot that holds that bound and
    multiplied by the indicator of ``ints`` packed the same way; no slot
    carries, because no count of the product, folded mod N or not,
    exceeds the bound.
    """
    pairs = _support(entries) * len(ints)
    if pairs < PACKED_MIN_PAIRS:
        return None
    lo, hi, top = _extent(entries)
    lo_e, lo_y = (lo, min(ints)) if modulus is None else (0, 0)
    width = hi - lo_e + 1
    reach = max(ints) - lo_y + 1
    span = width + reach - 1 if modulus is None else modulus
    if span > DENSE_RANGE_LIMIT or pairs < 2 * span:
        return None
    slot = _slot_type(top * len(ints))
    if slot is None:
        return None
    product = _packed(slot, width, ((x - lo_e, c) for x, c in _items(entries))) * _packed(
        slot, reach, ((y - lo_y, 1) for y in ints)
    )
    if modulus is not None:
        product = _fold(product, slot, modulus)
    base = lo_e + lo_y
    counts = _slots(product, slot, span).tolist()
    return {base + i: c for i, c in enumerate(counts) if c}


def _sorted_sums(entries, ints: list, modulus: int | None, size_cap: int | None):
    """``_convolve``'s counts by sorting the pair sums, or None where a dict is better.

    Needs at least ``SORTED_MIN_PAIRS`` pairs, every code and sum inside
    int64, and max(counts) * len(ints) below 2^63.  ``entries`` is a dict
    or the arrays of an earlier sorted step; ``_sorted_blocks`` forms the
    sums and adds the counts.  Returns the ascending int64 arrays (codes,
    counts).
    """
    support = _support(entries)
    if support * len(ints) < SORTED_MIN_PAIRS:
        return None
    lo_e, hi_e, top = _extent(entries)
    if not _sums_fit64(lo_e, hi_e, ints, modulus) or top * len(ints) > INT64_MAX:
        return None
    import numpy as np

    if isinstance(entries, dict):
        keys = np.fromiter(entries, np.int64, support)
        counts = np.fromiter(entries.values(), np.int64, support)
    else:
        keys, counts = entries
    return _sorted_blocks(keys, counts, np.array(ints, np.int64), modulus, size_cap, "rep_fn")


def _convolve(entries, ints: list, modulus: int | None, size_cap: int | None):
    """Counts of x + y (mod ``modulus``) over x in ``entries``, with its count, and y in ``ints``.

    ``entries`` and the result are each a dict of counts or the ascending
    int64 arrays (codes, counts) that ``_sorted_sums`` returns, so that
    consecutive sorted steps build no dict between them.  Three kernels
    give the same counts.  ``_packed_product`` takes every dense step (see
    its rules) and returns a dict; ``_sorted_sums`` takes a sparse step of
    at least ``SORTED_MIN_PAIRS`` pairs whose codes, sums and counts fit
    int64, returns arrays, and imports numpy the first time it runs; the
    dict loop takes the rest.  The sorted kernel runs the block loop of
    ``_sorted_blocks`` with counts, the one that ``_sum_codes`` runs
    without them for distinct sums.  Raises SizeCapExceededError when the
    support of the result passes ``size_cap``; the support only grows, so
    the dict loop checks after each row and the sorted kernel after each
    block, and each stops at the first one past the cap.
    """
    out = _packed_product(entries, ints, modulus)
    if out is None:
        arrays = _sorted_sums(entries, ints, modulus, size_cap)
        if arrays is not None:
            return arrays
        out = {}
        for x, c in _items(entries):
            for y in ints:
                z = x + y if modulus is None else (x + y) % modulus
                out[z] = out.get(z, 0) + c
            if size_cap is not None and len(out) > size_cap:
                break
    if size_cap is not None and len(out) > size_cap:
        raise _cap_error("rep_fn", size_cap)
    return out


def _chain(codes: list, modulus: int | None, size_cap: int | None):
    """Counts of the sums of one code from each list of ``codes``, one
    ``_convolve`` step per list: a dict or a last sorted step's arrays."""
    entries = {0: 1}
    for ints in codes:
        entries = _convolve(entries, ints, modulus, size_cap)
    return entries


def rep_fn(parts: Sequence[tuple[GroundSet, str]], size_cap: int | None = None) -> RepFn:
    """Representation counts of eps_1 A_1 + ... + eps_j A_j, eps in {+, -}.

    ``parts`` is a sequence of (set, sign) pairs.  The count at x is the
    number of tuples (a_1, ..., a_j) with sum of signed a_i equal to x.
    The counts are built one part at a time by ``_convolve``, on
    ``_int_view`` codes.  Each step takes one of three kernels, by the
    size of its input: the packed big-integer product for a dense step,
    sorted int64 arrays for a sparse step of at least ``SORTED_MIN_PAIRS``
    pairs whose sums and counts fit int64, and a dict loop otherwise.  The
    kernel changes the order of ``entries`` only, never a count.  A last
    sorted step hands its arrays to the RepFn, which builds ``entries``
    from them only when it is read.
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
    entries = _chain(codes, n, size_cap)
    if not isinstance(entries, dict):
        return RepFn._of_sorted(amb, *entries, decode)
    if decode is not None:
        entries = dict(zip(decode(list(entries)), entries.values()))
    return RepFn(amb, entries)


# ---------------------------------------------------------------------------
# Bounded-support subset sums


def sigma_k(a: GroundSet, k: int, size_cap: int | None = None) -> GroundSet:
    """All sums over subsets of A of size at most k (distinct elements).

    Always contains 0 (the empty subset).  Once k >= |A| every subset
    counts, and one running set of sums takes each element in turn, with
    ``size_cap`` checked against it.  Below that, layered dynamic
    programming over subset sizes with per-layer deduplication, and the
    cap checked against each layer.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    amb = a.ambient
    if k >= len(a):
        sums = {amb.zero}
        for x in a.elements:
            sums |= {amb.add(s, x) for s in sums}
            if size_cap is not None and len(sums) > size_cap:
                raise SizeCapExceededError(
                    f"sigma_k exceeds cap {size_cap}", cap=size_cap, stage="sigma_k"
                )
        return GroundSet(amb, tuple(sorted(sums)))
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

    def preimage(self, sub: GroundSet) -> GroundSet:
        return integers(self.backward[v] for v in sub.elements)


def mult_embed(a: GroundSet) -> MultEmbedding:
    """Embed a set of positive integers via prime exponent vectors."""
    amb = a.ambient
    if not isinstance(amb, IntegerLattice) or amb.rank != 1:
        raise PreconditionError("mult_embed expects a rank-1 integer set")
    if any(x < 1 for x in a.elements):
        raise PreconditionError("mult_embed expects positive integers")
    factorizations = {x: factorint(x) for x in a.elements}
    primes = sorted({p for f in factorizations.values() for p in f})
    rank = max(1, len(primes))
    forward = {}
    backward = {}
    for x in a.elements:
        f = factorizations[x]
        vec = tuple(f.get(p, 0) for p in primes) or (0,)
        if rank == 1:
            vec = vec[0]
        forward[x] = vec
        backward[vec] = x
    image = vectors(forward.values(), rank)
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
