"""Higher additive energies T_k and relative dimension dim_{alpha,k}.

T_k(A) counts 2k-tuples with equal k-fold sums; it equals the sum of squared
k-fold representation counts.  Multiplicative energies are computed through
the prime-exponent embedding, which is an exact isomorphism onto vector
addition.  All values are unbounded Python integers.

T_k needs only the squared counts, not kA itself, so it reads them from
A's ``_int_view`` codes, which are formed, and checked against int64,
once.  A dense set takes one packed big-integer power of A's indicator,
with no dict and no numpy.  A sparse set of at most
``TABLE_MAX_MULTISETS`` k-multisets lists them with their arrangement
counts and sorts their sums once, up to k times fewer sums than the
pairs of the chain's last step when A's k-fold sums are nearly all
distinct; where they collide, the bound keeps the table within a small
factor of the chain.  The rest takes ``rep_fn``'s chain of convolution
steps (see ``_tk_kernel``).
``rep_fn`` and ``additive_energy`` keep the chain, so E(A, A) = T_2(A)
compares two independent paths.

dim_{alpha,k}(A), the least dim(B) over B subset of A with T_k(B) >= alpha *
T_k(A), is exact up to ``EXACT_ALPHA_THRESHOLD`` elements.  A relation
table lists A's k-multisets of indices, groups them by sum, and gives
every support mask S a weight, so that T_k(B) is the total weight of the
supports inside B; bit-sliced over the supports, that is a few big-int
operations for any subset B.  A depth-first search over index-increasing
subsets, held as index masks, stops at the first subset that qualifies,
and returns from a node once B together with every later element falls
short of the threshold.  ``dim_k_exact`` then searches the minimal
qualifying subsets in (size, elements) order, skipping a subset that
holds a dissociated set already found of the best size or more.  The
energy search charges one meter state per k-multiset listed, one per
ordered pair of multisets with equal sums and one per subset energy read,
after ``check_feasible`` has refused a table of more multisets than the
budget leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

from .budget import as_meter
from .dissociation import (
    DimensionBounds,
    dim_bounds,
    dim_k_exact,
    is_k_dissociated,
    max_dissociated_greedy,
)
from .errors import PreconditionError
from .groundset import (
    DENSE_RANGE_LIMIT,
    INT64_MAX,
    INT64_MIN,
    SORTED_BLOCK_PAIRS,
    SORTED_MIN_PAIRS,
    GroundSet,
    _cap_error,
    _chain,
    _fold,
    _int_view,
    _packed,
    _reduced,
    _set_bits,
    _slot_type,
    _slots,
    _square_sum,
    _unit_dilations,
    mult_embed,
    rep_fn,
)

# dim_alpha_k searches the minimal qualifying subsets exactly up to this
# size, and probes energy-heavy subsets beyond it.
EXACT_ALPHA_THRESHOLD = 16

# _tk_table lists at most this many k-multisets, one block of the sorted
# kernel's pair sums.  The table pays only when A's k-fold sums are nearly
# all distinct; where they collide (a dilated progression) the chain's
# steps stay small while the table still lists every multiset.  On a
# shared 2-core Xeon, up to this bound that worst case took at most 2.3
# times the chain, at most 1 ms; at 2.3 to 2.6 times the bound, 2.6 to
# 7.5 times.  Random wide sets ran 1.2 to 5 times faster on the table.
TABLE_MAX_MULTISETS = SORTED_BLOCK_PAIRS


@dataclass(frozen=True)
class EnergyValue:
    """Exact energy count with its parameters."""

    value: int
    k: int
    operation: str  # "+" or "*"

    def to_json(self) -> dict:
        # Decimal string keeps arbitrary precision intact in JSON.
        return {"value_dec": str(self.value), "k": self.k, "op": self.operation}


def _additive_tk(a: GroundSet, k: int, size_cap: int | None) -> int:
    """T_k(A) from A's ``_int_view`` codes, by the kernel ``_tk_kernel`` picks.

    ``size_cap`` raises iff |kA| > cap, on every kernel.
    """
    if len(a) == 0:
        return 0
    if k == 1:
        return len(a)
    part_codes, modulus, _decode = _int_view(a.ambient, [(a.elements, "+")] * k)
    codes = part_codes[0]  # the k parts are identical, and so are their codes
    return _tk_kernel(codes, k, modulus, size_cap)(codes, k, modulus, size_cap)


def _tk_kernel(codes: list, k: int, modulus: int | None, size_cap: int | None):
    """The kernel for T_k of these n codes, by n, k and the k-fold code range R.

    R is N mod N, and k * spread + 1 otherwise.  ``_tk_packed_power`` takes
    a range of at most ``DENSE_RANGE_LIMIT`` slots and four slots per
    k-multiset, when n^(k-1), the largest count of kA, fits 64 bits.
    ``_tk_table`` takes at most ``TABLE_MAX_MULTISETS`` of the C(n + k - 1,
    k) multisets, and no more than R, since past R their sums must
    collide.  It also needs the chain's last step to sort anyway (so no
    path that is numpy-free starts importing numpy), the k-fold sums to
    fit int64, and so n^k, the total of all counts, and k * n^(k-1), the
    largest product c * size it forms.  Under a size cap it also needs no
    more multisets than the cap: the chain raises at its first step past a
    smaller cap, before it has formed them all.  ``_tk_chain`` takes the
    rest.
    """
    n = len(codes)
    lo, hi = min(codes), max(codes)
    slots = modulus if modulus is not None else k * (hi - lo) + 1
    multisets = math.comb(n + k - 1, k)
    if slots <= DENSE_RANGE_LIMIT and slots <= 4 * multisets and n ** (k - 1) < 1 << 64:
        return _tk_packed_power
    if (
        n * math.comb(n + k - 2, k - 1) >= SORTED_MIN_PAIRS
        and multisets <= min(slots, TABLE_MAX_MULTISETS)
        and INT64_MIN <= k * lo
        and k * hi <= INT64_MAX
        and max(n, k) * n ** (k - 1) <= INT64_MAX
        and (size_cap is None or multisets <= size_cap)
    ):
        return _tk_table
    return _tk_chain


def _tk_packed_power(codes: list, k: int, modulus: int | None, size_cap: int | None) -> int:
    """T_k as the sum of the squared slots of P^k, P the indicator of the codes.

    P is ``_packed`` with one slot per code (offset by the least code on
    the line and on Z^r), in the narrowest slot that holds n^(k-1).  On
    the line and on Z^r, P^k is one power.  Mod N it is square-and-multiply,
    and ``_fold`` folds each product; every folded slot is a count of jA
    mod N for some j <= k, at most n^(k-1), so no slot carries.
    """
    slot = _slot_type(len(codes) ** (k - 1))
    lo = 0 if modulus is not None else min(codes)
    width = max(codes) - lo + 1
    p = _packed(slot, width, ((c - lo, 1) for c in codes))
    if modulus is None:
        width = width * k - k + 1
        q = p**k
    else:
        width = modulus
        q = p
        for bit in bin(k)[3:]:
            q = _fold(q * q, slot, modulus)
            if bit == "1":
                q = _fold(q * p, slot, modulus)
    counts = _slots(q, slot, width)
    if size_cap is not None and width - counts.count(0) > size_cap:
        raise _cap_error("rep_fn", size_cap)
    return sum(map(mul, counts, counts))


def _tk_table(codes: list, k: int, modulus: int | None, size_cap: int | None) -> int:
    """T_k as the sum of the squared counts of the k-fold sums, from A's k-multisets.

    The multisets of indices are built one index at a time, each new index
    at least the last.  Each carries its code sum and its arrangement count
    c(m) = k! / prod(mult!), the number of k-tuples it orders into, updated
    as c * size / run when the new index makes a run of ``run`` equal
    indices.  One sort groups equal sums, and ``add.reduceat`` adds their
    counts.
    """
    import numpy as np

    n = len(codes)
    values = np.array(codes, np.int64)
    last = np.arange(n)
    sums, counts, runs = values, np.ones(n, np.int64), np.ones(n, np.int64)
    for size in range(2, k + 1):
        reach = n - last  # the indices a multiset can take next
        ends = np.cumsum(reach)
        rows = np.repeat(np.arange(len(last)), reach)
        new = np.arange(ends[-1]) - (ends - reach - last)[rows]
        runs = np.where(new == last[rows], runs[rows] + 1, 1)
        counts = counts[rows] * size // runs
        sums = sums[rows] + values[new]
        last = new
    if modulus is not None:
        sums %= modulus
    sums, counts = _reduced(sums, counts, "quicksort")
    if size_cap is not None and len(sums) > size_cap:
        raise _cap_error("rep_fn", size_cap)
    return _square_sum((sums, counts))


def _tk_chain(codes: list, k: int, modulus: int | None, size_cap: int | None) -> int:
    """T_k from the k-fold representation counts of ``rep_fn``'s step loop."""
    return _square_sum(_chain([codes] * k, modulus, size_cap))


def t_k(a: GroundSet, k: int, op: str = "+", size_cap: int | None = None) -> EnergyValue:
    """k-fold energy T_k(A) under + or * (positive integers only for *).

    k = 1 degenerates to |A| and is allowed because the chained energy
    arguments in the decomposition routines start there.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if op == "+":
        return EnergyValue(_additive_tk(a, k, size_cap), k, "+")
    if op == "*":
        emb = mult_embed(a)
        return EnergyValue(_additive_tk(emb.image, k, size_cap), k, "*")
    raise ValueError("op must be '+' or '*'")


def additive_energy(a: GroundSet, b: GroundSet) -> EnergyValue:
    """E(A,B) = sum_x r_{A-B}(x)^2; E(A,A) recovers T_2(A)."""
    if len(a) == 0 or len(b) == 0:
        return EnergyValue(0, 2, "+")
    r = rep_fn([(a, "+"), (b, "-")])
    return EnergyValue(r.square_sum(), 2, "+")


# ---------------------------------------------------------------------------
# Relative dimension


def dim_alpha_k(
    a: GroundSet,
    alpha,
    k: int = 2,
    budget: int | None = None,
) -> DimensionBounds:
    """min dim(B) over B subset of A with T_k(B) >= alpha * T_k(A).

    Exact up to ``EXACT_ALPHA_THRESHOLD`` elements.  T_k and dim both grow
    with B, so the minimum is reached on a minimal qualifying B, and a
    depth-first search over index-increasing subsets that stops extending a
    subset once it qualifies reaches every such B.  The search skips every
    subtree whose superset B + (later elements) misses the threshold, and
    reads each subset's T_k from a relation table on A's k-multisets (see
    ``_qualifying_subsets``).  Candidates are then taken in (size, sorted
    elements) order and searched with ``dim_k_exact`` unless dim(B) >=
    ceil(log_3 |B|), or a dissociated set of the best size or more that an
    earlier greedy or exact search returned lies inside B, or a greedy
    dissociated subset of B shows that B cannot beat the best so far.  A
    candidate replaces the best only with a strictly smaller dimension, and
    a subset precedes its supersets in that order, so the witness is the
    first minimal qualifying subset whose dimension is the minimum.

    Mod N a unit g with gA = A (``groundset._unit_dilations``) keeps T_k
    and dim, so gB has B's energy and dimension.  Of the candidates that
    are dilates of one another only the first in that order is taken: a
    later one cannot beat it, and the first minimizer is the first of its
    own orbit, so the value and the witness stay those of the full loop.

    The meter counts the energy search's states, one per k-multiset of A
    listed, one per ordered pair of multisets with equal sums and one per
    subset energy read, then the states of the greedy and exact dimension
    searches.  A budget that leaves fewer states than the C(n + k - 1, k)
    multisets is refused before the table is listed.  Beyond the threshold
    a sound upper bound is produced by probing energy-heavy subsets
    obtained from block peeling, with the threshold inequality re-checked
    exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise PreconditionError("alpha must lie in (0, 1]")
    total = t_k(a, k).value
    n = len(a)
    if n == 0:
        raise PreconditionError("dim_alpha_k needs a nonempty set")
    meter = as_meter(budget)
    if n <= EXACT_ALPHA_THRESHOLD:
        best: int | None = None
        best_witness: GroundSet | None = None
        candidates = _qualifying_subsets(a, k, alpha.numerator * total, alpha.denominator, meter)
        candidates.sort(key=lambda elems: (len(elems), elems))
        dilations = _unit_dilations(a)
        if len(dilations) > 1:
            # One candidate per orbit of the dilations, its first in order.
            modulus = a.ambient.modulus
            seen: set = set()
            firsts = []
            for elems in candidates:
                if frozenset(elems) not in seen:
                    firsts.append(elems)
                    seen.update(frozenset(g * x % modulus for x in elems) for g in dilations)
            candidates = firsts
        # Dissociated subsets the searches below have found.  One of size
        # >= best inside B shows that B cannot beat the current optimum.
        known: list = []
        for elems in candidates:
            if best is not None:
                if _floor_log(len(elems), 3) + 1 > best:
                    # dim(B) >= ceil(log_3 |B|) cannot beat the current optimum.
                    continue
                inside = set(elems)
                if any(len(d) >= best and d <= inside for d in known):
                    continue
            sub = GroundSet(a.ambient, elems)
            if best is not None:
                greedy = frozenset(max_dissociated_greedy(sub, 1, budget=meter).elements)
                known.append(greedy)
                if len(greedy) >= best:
                    continue
            db = dim_k_exact(sub, 1, budget=meter)
            if not db.exact:
                # The subsets' searches share one meter: a truncated one left
                # it over its limit, so this tick raises the exhaustion error.
                meter.tick(0)
            known.append(frozenset(db.lower_witness.elements))
            if best is None or db.value < best:
                best = db.value
                best_witness = sub
                if best == 0:
                    # Only {0} has dimension 0.  At best == 1 the two skips
                    # above pass over every other candidate.
                    break
        return DimensionBounds(
            "dim_alpha_k", k, best, best, True, best_witness, None, meter.states
        )
    # Heuristic mode: find an energy-retaining subset with certified small dim.
    from .decompose import dissociated_peeling  # local import avoids a cycle

    kappa = (total / (n ** (2 * k))) ** (1.0 / k)
    margin = (1.0 - float(alpha) ** (1.0 / (2 * k))) ** 2
    l = max(2, math.ceil(k / max(kappa * margin, 1e-9)))
    upper = None
    witness = None
    while l <= n:
        peel = dissociated_peeling(a, l, budget=meter)
        rem = peel.remainder
        if len(rem) > 0:
            t_rem = _additive_tk(rem, k, None)
            if t_rem * alpha.denominator >= alpha.numerator * total:
                rem_dim = peel.remainder_dim
                if rem_dim is not None and rem_dim.exact:
                    upper = rem_dim.value
                else:
                    upper = min(l - 1, len(rem))
                witness = rem
                break
        l *= 2
    if upper is None:
        da = dim_bounds(a, 1, budget=meter)
        upper = da.upper
        witness = a
    return DimensionBounds(
        "dim_alpha_k", k, 1, max(1, upper), False, None, witness, meter.states,
        note="heuristic mode: upper from an energy-retaining subset",
    )


def _qualifying_subsets(a: GroundSet, k: int, need: int, den: int, meter) -> list:
    """Element tuples of the subsets B with T_k(B) * den >= need that a
    depth-first search over index-increasing subsets reaches.

    A subset that qualifies is recorded and not extended.  T_k grows with
    B, so every proper prefix of a minimal qualifying subset fails and the
    search reaches it.  A node also tests U = B + elems[idx:], the largest
    set any child from index idx on, or any of its descendants, can reach,
    and returns once T_k(U) * den < need.  A child's first U is its
    parent's U at the child's index, which passed, so it is not read again.

    Subsets are n-bit index masks, and T_k(B) is read from a relation
    table.  T_k(B) counts the ordered pairs (m, m') of k-multisets of B's
    indices with equal code sums, each weighted by c(m) * c(m'), where
    c(m) = k! / prod(mult!) counts the ordered k-tuples that m arranges
    into.  So with weight[S] the sum of c(m) * c(m') over the equal-sum
    pairs whose supports join to S, T_k(B) = sum weight[S] over S inside B.
    Each distinct S gets one bit t; ``inside`` tables, one per half of the
    index mask, hold the bits of the supports whose part in that half lies
    inside B's, and the column of digit b holds the bits of the supports
    whose weight has bit b set.  Then T_k(B) = sum_b popcount(digit_b &
    inside_lo & inside_hi) << b: a few big-int operations per subset, and
    the digits that no weight sets are left out.

    The multisets add ``_int_view`` codes, so int64 is checked once, on the
    k-fold extremes; on Z^r the codes are Kronecker codes.  The meter
    refuses, by ``check_feasible``, a table of more multisets than it has
    states left, and then counts one state per multiset listed, one per
    ordered equal-sum pair of multisets and one per subset energy read.
    """
    elems = a.elements
    n = len(elems)
    part_codes, modulus, _decode = _int_view(a.ambient, [(elems, "+")] * k)
    codes = part_codes[0]  # the k parts are identical, and so are their codes
    multisets = math.comb(n + k - 1, k)
    meter.check_feasible(multisets, "relation table")
    meter.tick(multisets)
    fact_k = math.factorial(k)
    by_sum: dict = {}
    for m in combinations_with_replacement(range(n), k):
        mask = total = run = 0
        arrangements, prev = fact_k, -1
        for i in m:
            run = run + 1 if i == prev else 1
            arrangements //= run
            mask |= 1 << i
            total += codes[i]
            prev = i
        if modulus is not None:
            total %= modulus
        by_sum.setdefault(total, []).append((mask, arrangements))
    weight: dict = {}
    for group in by_sum.values():
        meter.tick(len(group) ** 2)
        for x, (s, c) in enumerate(group):
            weight[s] = weight.get(s, 0) + c * c
            for s2, c2 in group[x + 1 :]:
                u = s | s2
                weight[u] = weight.get(u, 0) + 2 * c * c2

    def columns(values, width: int) -> list:
        # Column j has bit t set when values[t] has bit j set.  The values
        # are written as width-digit binary text, the last one first, so a
        # column is every width-th character: one slice and one int(..., 2).
        text = "".join(map(f"{{:0{width}b}}".format, reversed(values)))
        return [int(text[width - 1 - j :: width], 2) for j in range(width)]

    # Bit t of every column below stands for the t-th support in ``weight``:
    # holds[e] has the supports that contain element e, and digit b the
    # supports whose weight has bit b set.
    holds = columns(list(weight), n)
    bits = max(weight.values(), default=0).bit_length()
    digits = [(b, col) for b, col in enumerate(columns(list(weight.values()), bits)) if col]
    every = (1 << len(weight)) - 1
    half = n // 2
    low = (1 << half) - 1

    def inside(cols: list) -> list:
        # entry m: the supports that miss every element of cols outside m
        missing = [0]
        for col in cols:
            missing += [x | col for x in missing]
        return [every ^ x for x in reversed(missing)]

    inside_lo = inside(holds[:half])
    inside_hi = inside(holds[half:])
    tick = meter.tick

    def energy(mask: int) -> int:
        tick()
        kept = inside_lo[mask & low] & inside_hi[mask >> half]
        total = 0
        for b, col in digits:
            total += (col & kept).bit_count() << b
        return total

    suffix = [((1 << n) - 1) >> idx << idx for idx in range(n + 1)]
    found: list = []

    def walk(start: int, mask: int) -> None:
        # The caller has found T_k(mask | suffix[start]) * den >= need.
        for idx in range(start, n):
            child = mask | 1 << idx
            if energy(child) * den >= need:
                found.append(child)
            else:
                walk(idx + 1, child)
            if idx + 1 < n and energy(mask | suffix[idx + 1]) * den < need:
                return

    if energy(suffix[0]) * den >= need:
        walk(0, 0)
    return [tuple(elems[i] for i in _set_bits(m, 0)) for m in found]


def _floor_log(n: int, base: int) -> int:
    v = 0
    while base ** (v + 1) <= n:
        v += 1
    return v


# ---------------------------------------------------------------------------
# Rudin ratio for dissociated sets


def rudin_ratio(lam: GroundSet, k: int) -> Fraction:
    """T_k(L) / (k^k |L|^k) for a verified dissociated set L.

    The dissociation check runs at the default budget.

    The classical bound says this stays below C^k for an absolute C; the
    suite reports the fitted value, never asserting any particular constant.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cert = is_k_dissociated(lam, 1)
    if not cert.is_dissociated:
        raise PreconditionError(f"set is not dissociated (relation {cert.relation})")
    if len(lam) == 0:
        raise PreconditionError("empty set has no Rudin ratio")
    value = t_k(lam, k).value
    return Fraction(value, (k ** k) * (len(lam) ** k))
