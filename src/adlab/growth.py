"""Growth of iterated sumsets and structural models of slow growth.

This module measures how |nA| grows with n, checks that growth curves stay
inside the windows predicted by the dimension of the set, and builds the
small auxiliary objects those checks need: the beta statistic
|A+X+Y| / sqrt(|X||Y|), polynomial growth fits, and modular models that
preserve l-fold additive structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from ._ntheory import next_prime
from .budget import as_meter
from .dissociation import dim_bounds, is_k_dissociated
from .errors import (
    PreconditionError,
    SizeCapExceededError,
    TrialsExhaustedError,
    VerificationFailedError,
)
from .groundset import (
    INT64_MAX,
    INT64_MIN,
    Element,
    GroundSet,
    IntegerLattice,
    Residues,
    _check64,
    _mixed_radix,
    _sum_codes,
    by_magnitude,
    iterated_sumset,
    sumset,
    translate,
)
from .records import ClaimRecord, ExperimentReport, canonical

DEFAULT_GROWTH_CAP = 200_000


@dataclass(frozen=True)
class GrowthCurve:
    """Sizes of A, 2A, 3A, ... with an optional truncation marker.

    sizes[i] is |{(i+1)}A|.  If the size cap was hit while building some
    iterate, truncated_at records the first n whose sumset was abandoned
    and the curve stops before it.
    """

    sizes: tuple[int, ...]
    truncated_at: Optional[int] = None


def growth_sequence(a: GroundSet, n_max: int) -> GrowthCurve:
    """Compute |nA| for n = 1..n_max, stopping early if an iterate would
    exceed ``DEFAULT_GROWTH_CAP`` elements.

    One running state of the codes of nA (a bitset while dense, else an
    ascending int64 array from a step of at least ``SORTED_MIN_PAIRS``
    pairs, else a set; see ``groundset._sum_codes``) takes A's codes once
    per n, and its size is read off as an int; nA is never decoded.  Codes
    are the elements on the line, residues mod N, and on Z^r Kronecker
    codes sum_i v_i * W_i, with the weights of a box that holds every sum
    up to n_max, so no two sums of nA share a code.  On the line and Z^r,
    int64 is checked on n times A's per-coordinate minima, then maxima,
    before step n, so the first value outside the range raises
    ``CoordinateOverflowError`` where a checked sumset would; a cap hit at
    a smaller n returns the curve first.  A Kronecker code past int64
    only keeps a step off the sorted array.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    if not a.elements:
        raise PreconditionError("growth of the empty set is not defined")
    amb = a.ambient
    codes = a.elements
    modulus = None
    if isinstance(amb, Residues):
        modulus, ends = amb.modulus, ()
    elif amb.rank == 1:
        ends = (codes[0], codes[-1])
    else:
        lows = tuple(map(min, zip(*codes)))
        highs = tuple(map(max, zip(*codes)))
        weights = _mixed_radix([n_max * (hi - lo) for lo, hi in zip(lows, highs)])
        codes = [sum(map(mul, v, weights)) for v in codes]
        ends = lows + highs
    sizes = [len(codes)]
    state, base = codes, None
    for n in range(2, n_max + 1):
        if ends:
            reached = [n * c for c in ends]
            if min(reached) < INT64_MIN or max(reached) > INT64_MAX:
                for value in reached:
                    _check64(value)
        try:
            state, base, count = _sum_codes(state, base, codes, modulus, DEFAULT_GROWTH_CAP)
        except SizeCapExceededError:
            return GrowthCurve(tuple(sizes), truncated_at=n)
        sizes.append(count)
    return GrowthCurve(tuple(sizes))


def _split_chunks(seq: Sequence[Element], m: int) -> list[list[Element]]:
    """Split seq into m contiguous chunks whose lengths differ by at most 1."""
    n = len(seq)
    base, extra = divmod(n, m)
    out = []
    start = 0
    for j in range(m):
        size = base + (1 if j < extra else 0)
        out.append(list(seq[start : start + size]))
        start += size
    return out


def verify_growth_bounds(a: GroundSet, budget: Optional[int] = None) -> ExperimentReport:
    """Measure the growth curve |nA|, n <= 4, of A and compare it against
    the windows implied by d = dim_1(A).  Every sumset is capped at
    ``DEFAULT_GROWTH_CAP`` elements.

    Three stages are recorded as fitted constants (the leading constant in
    each window is not pinned down by theory, so we report the constant the
    data implies rather than asserting a fixed one):

      stage1: |nA| >= |A| * (d / (C1 * log2|A|))^(n-1)
      stage2: |nA| >= (d / (C2 * n))^(n-1)
      stage3: with K = d*ceil(log2 d) and e = dim_K(A),
              |(e^2 * ceil(log2 e)) A| >= exp(e * log e / C3)

    One inequality has an exact constant and is checked outright: if
    Lambda is a dissociated witness of size d, split into m blocks
    Lambda_1..Lambda_m, and S = Lambda_1 + ... + Lambda_m, then for
    n*m <= d/4,

        |nS| * (2^n * n!)^m >= prod_j |Lambda_j|^n.

    All comparisons use exact integer arithmetic.
    """
    if not a.elements:
        raise PreconditionError("growth bounds need a nonempty set")
    meter = as_meter(budget)
    curve = growth_sequence(a, 4)
    db = dim_bounds(a, 1, budget=meter)
    d = db.lower  # certified even when the search was truncated
    records: list[ClaimRecord] = []
    measured: dict = {
        "curve": canonical(curve),
        "dim_lower": db.lower,
        "dim_upper": db.upper,
        "dim_exact": db.exact,
        "k": 1,
    }

    size_a = len(a)
    log_a = math.log2(size_a) if size_a > 1 else None
    for n in range(2, len(curve.sizes) + 1):
        size_n = curve.sizes[n - 1]
        ratio = size_n / size_a
        if log_a and d > 0 and ratio > 0:
            # |nA|/|A| >= (d / (C*log|A|))^(n-1)  =>  C >= d / (log|A| * ratio^(1/(n-1)))
            c1 = d / (log_a * ratio ** (1.0 / (n - 1)))
            records.append(
                ClaimRecord(
                    claim=f"growth_stage1_n{n}",
                    klass="fitted",
                    instance=a.describe(),
                    measured={"n": n, "size": size_n},
                    fitted_constant=c1,
                )
            )
        if d > 0 and size_n > 1:
            # |nA| >= (d/(C*n))^(n-1)  =>  C >= d / (n * |nA|^(1/(n-1)))
            c2 = d / (n * size_n ** (1.0 / (n - 1)))
            records.append(
                ClaimRecord(
                    claim=f"growth_stage2_n{n}",
                    klass="fitted",
                    instance=a.describe(),
                    measured={"n": n, "size": size_n},
                    fitted_constant=c2,
                )
            )

    # Stage 3: dimension measured at the amplified order K = d*ceil(log2 d).
    if d >= 2:
        big_k = d * max(1, math.ceil(math.log2(d)))
        db3 = dim_bounds(a, big_k, budget=meter)
        e = db3.lower
        if e >= 2:
            n3 = e * e * max(1, math.ceil(math.log2(e)))
            if n3 <= 64:
                curve3 = growth_sequence(a, n3)
                if curve3.truncated_at is None and len(curve3.sizes) >= n3:
                    size_n3 = curve3.sizes[n3 - 1]
                    if size_n3 > 1:
                        # |n3 A| >= exp(e log e / C)  =>  C >= e*log(e)/log|n3 A|
                        c3 = e * math.log(e) / math.log(size_n3)
                        records.append(
                            ClaimRecord(
                                claim="growth_stage3",
                                klass="fitted",
                                instance=a.describe(),
                                measured={"order_k": big_k, "dim_at_order": e, "n": n3, "size": size_n3},
                                fitted_constant=c3,
                            )
                        )
                else:
                    records.append(
                        ClaimRecord(
                            claim="growth_stage3",
                            klass="fitted",
                            instance=a.describe(),
                            measured={"order_k": big_k, "dim_at_order": e},
                            note="iterate exceeded size cap; constant not measured",
                        )
                    )

    # Exact-constant split-block bound, checked on the certified witness.
    if db.lower_witness is not None and d >= 4:
        lam = db.lower_witness
        if not is_k_dissociated(lam, 1).is_dissociated:
            raise VerificationFailedError(f"dimension witness {lam.elements} is not 1-dissociated")
        amb = lam.ambient
        witness = by_magnitude(amb, lam.elements)
        configs = [(n, m) for n in range(1, d + 1) for m in range(1, d + 1) if n * m * 4 <= d]
        for n, m in configs:
            chunks = _split_chunks(witness, m)
            parts = [GroundSet.of(amb, ch) for ch in chunks]
            s = parts[0]
            try:
                for part in parts[1:]:
                    s = sumset(s, part, size_cap=DEFAULT_GROWTH_CAP)
                ns = iterated_sumset(s, n, size_cap=DEFAULT_GROWTH_CAP)
            except SizeCapExceededError:
                continue
            lhs = len(ns) * (2**n * math.factorial(n)) ** m
            rhs = 1
            for ch in chunks:
                rhs *= len(ch) ** n
            ok = lhs >= rhs
            records.append(
                ClaimRecord(
                    claim=f"split_block_growth_n{n}_m{m}",
                    klass="hard",
                    instance=a.describe(),
                    measured={"n": n, "m": m, "lhs": lhs, "rhs": rhs, "size_ns": len(ns)},
                    violated=not ok,
                )
            )

    return ExperimentReport(
        name="growth_bounds",
        instance=a.describe(),
        params={"n_max": 4, "k": 1, "size_cap": DEFAULT_GROWTH_CAP},
        measured=measured,
        records=records,
    )


@dataclass(frozen=True)
class BetaEstimate:
    """Best (smallest) observed value of |A+X+Y| / sqrt(|X| |Y|).

    The square of the statistic is rational, so upper_sq is exact; upper is
    its floating-point square root for display.
    """

    upper_sq: Fraction
    x_label: str
    y_label: str
    x_size: int
    y_size: int
    sum_size: int
    candidates_tried: int

    @property
    def upper(self) -> float:
        return math.sqrt(self.upper_sq.numerator / self.upper_sq.denominator)

    def to_json(self) -> dict:
        return {
            "upper_sq": self.upper_sq,
            "upper": self.upper,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x_size": self.x_size,
            "y_size": self.y_size,
            "sum_size": self.sum_size,
            "candidates_tried": self.candidates_tried,
        }


def _beta_candidates(a: GroundSet) -> list[tuple[str, GroundSet]]:
    amb = a.ambient
    cands: list[tuple[str, GroundSet]] = [("zero", GroundSet.of(amb, [amb.zero]))]
    cands.append(("self", a))
    h_set = a
    for h in range(2, 5):
        try:
            h_set = sumset(h_set, a, size_cap=DEFAULT_GROWTH_CAP)
        except SizeCapExceededError:
            break
        cands.append((f"sum{h}", h_set))
    if isinstance(amb, Residues):
        limit = a.diameter()  # N - 1, so Z_2 gets no interval
    elif amb.rank == 1:
        limit = max(2, a.diameter())
    else:
        return cands
    m = 2
    while m < limit:
        cands.append((f"interval{m}", GroundSet.of(amb, range(m))))
        m *= 2
    if limit >= 2:
        cands.append((f"interval{limit}", GroundSet.of(amb, range(limit))))
    return cands


def beta_hat(a: GroundSet) -> BetaEstimate:
    """Minimize |A+X+Y| / sqrt(|X| |Y|) over a small structured family of
    candidate pairs (X, Y).

    The true statistic is an infimum over all finite X, Y; this routine
    reports a certified upper bound for it, which is what the dimension
    comparisons need.  Candidates are the zero singleton, A itself, a few
    iterated sumsets of A, and initial intervals with power-of-two lengths
    up to the diameter of A (intervals only apply to rank-1 integer and
    modular ambients).  Sumsets are capped at ``DEFAULT_GROWTH_CAP``
    elements; a pair whose A+X+Y passes the cap is skipped.
    """
    if not a.elements:
        raise PreconditionError("beta statistic needs a nonempty set")
    cands = _beta_candidates(a)
    best: Optional[tuple[Fraction, str, str, int, int, int]] = None
    tried = 0
    for xi, (xl, xs) in enumerate(cands):
        ax = sumset(a, xs, size_cap=DEFAULT_GROWTH_CAP)
        for yl, ys in cands[xi:]:
            tried += 1
            try:
                axy = sumset(ax, ys, size_cap=DEFAULT_GROWTH_CAP)
            except SizeCapExceededError:
                continue
            val = Fraction(len(axy) ** 2, len(xs) * len(ys))
            if best is None or val < best[0]:
                best = (val, xl, yl, len(xs), len(ys), len(axy))
    return BetaEstimate(
        upper_sq=best[0],
        x_label=best[1],
        y_label=best[2],
        x_size=best[3],
        y_size=best[4],
        sum_size=best[5],
        candidates_tried=tried,
    )


def polynomial_growth_fit(a: GroundSet, budget: Optional[int] = None) -> ExperimentReport:
    """Fit |nA| ~ |A| * n^d and compare the exponent with the dimension.

    The fitted exponent is d_fit = max_n log(|nA|/|A|) / log n, over the
    iterates n <= 5 within ``DEFAULT_GROWTH_CAP`` elements.  Sets of bounded
    dimension grow polynomially, with the exponent controlled by dim_k up
    to logarithmic factors; both directions are reported as fitted
    constants.
    """
    curve = growth_sequence(a, 5)
    size_a = curve.sizes[0]
    d_fit = 0.0
    per_n = []
    for n in range(2, len(curve.sizes) + 1):
        expo = math.log(curve.sizes[n - 1] / size_a) / math.log(n)
        per_n.append({"n": n, "exponent": expo})
        d_fit = max(d_fit, expo)
    records: list[ClaimRecord] = []
    meter = as_meter(budget)
    for k in (1, 2):
        db = dim_bounds(a, k, budget=meter)
        dk = db.lower
        if dk >= 1 and size_a > 1:
            # polynomial growth window: d_fit <= C * (d*log d + log|A|) / log(k+1)-ish;
            # record the raw ratio as the fitted constant.
            denom = dk * math.log2(max(dk, 2)) + math.log2(size_a)
            records.append(
                ClaimRecord(
                    claim=f"poly_growth_k{k}",
                    klass="fitted",
                    instance=a.describe(),
                    measured={"d_fit": d_fit, "dim_lower": dk, "dim_exact": db.exact},
                    fitted_constant=d_fit / denom if denom > 0 else None,
                )
            )
    return ExperimentReport(
        name="polynomial_growth",
        instance=a.describe(),
        params={"n_max": 5, "size_cap": DEFAULT_GROWTH_CAP},
        measured={"curve": canonical(curve), "d_fit": d_fit, "per_n": per_n},
        records=records,
    )


@dataclass(frozen=True)
class FreimanModel:
    """A verified l-isomorphism from a dense piece of A into Z_m.

    subset is the piece A* (at least |A|/l of A), modulus is m, and mapping
    sends each element of A* to its residue.  verified means the defining
    property was checked exhaustively: for all l-tuples from A*,
    sum a_i = sum b_i  iff  sum phi(a_i) = sum phi(b_i) mod m.
    """

    subset: GroundSet
    modulus: int
    mapping: dict[Element, int]
    l: int
    prime: int
    dilation: int
    attempts: int
    verified: bool


def verify_span_isomorphism(
    subset: GroundSet, mapping: dict[Element, int], l: int, modulus: int
) -> bool:
    """Exhaustively check that mapping is an l-isomorphism on subset."""
    from itertools import combinations_with_replacement

    seen: dict[Element, int] = {}
    images: dict[int, Element] = {}
    for tup in combinations_with_replacement(sorted(subset.elements), l):
        total = sum(tup)
        img = sum(mapping[x] for x in tup) % modulus
        if total in seen:
            if seen[total] != img:
                return False
        else:
            if img in images and images[img] != total:
                return False
            seen[total] = img
            images[img] = total
    return True


def freiman_model(a: GroundSet, seed: int = 0) -> FreimanModel:
    """Build a verified 2-isomorphic modular model of a dense subset of A.

    Standard rectification at l = 2: pick a prime p larger than all 2-fold
    sums can reach, dilate by a unit lambda mod p, keep the elements landing
    in the more popular of 2 intervals (at least |A|/2 of them), and read the
    result mod m, starting from m = |2A - 2A| (at least 2; as tight as the
    doubling allows, and built within ``DEFAULT_GROWTH_CAP`` elements).
    Candidates are verified exhaustively before being returned.
    The first 64 units of a seed-shuffled order are tried as dilations
    (every unit when p <= 65); if none works at that modulus, m is escalated
    by up to 8 (visible in the result as a larger modulus).
    """
    import random

    amb = a.ambient
    if not (isinstance(amb, IntegerLattice) and amb.rank == 1):
        raise PreconditionError("modular models are built for rank-1 integer sets")
    if not a.elements:
        raise PreconditionError("cannot model the empty set")

    diff = iterated_sumset(a, 2, 2, size_cap=DEFAULT_GROWTH_CAP)
    m0 = max(len(diff), 2)
    max_abs = max((abs(x) for x in a.elements), default=0)
    # The model lives mod p, so p is held to the 64-bit range of every coordinate.
    p = _check64(next_prime(4 * max_abs + 3))
    width = -(-p // 2)  # ceil(p / 2)
    rng = random.Random(seed)
    lams = list(range(1, p))
    rng.shuffle(lams)
    lams = lams[:64]
    min_keep = -(-len(a) // 2)

    attempts = 0
    for m in range(m0, m0 + 9):
        for lam in lams:
            attempts += 1
            buckets: dict[int, list[int]] = {}
            for x in sorted(a.elements):
                j = (lam * x % p) // width
                buckets.setdefault(j, []).append(x)
            j_star = min(buckets, key=lambda j: (-len(buckets[j]), j))
            kept = buckets[j_star]
            if len(kept) < min_keep:
                raise VerificationFailedError("pigeonhole on interval classes failed")
            base = j_star * width
            mapping = {x: (lam * x % p - base) % m for x in kept}
            subset = GroundSet.of(amb, kept)
            if verify_span_isomorphism(subset, mapping, 2, m):
                return FreimanModel(
                    subset=subset,
                    modulus=m,
                    mapping=mapping,
                    l=2,
                    prime=p,
                    dilation=lam,
                    attempts=attempts,
                    verified=True,
                )
    raise TrialsExhaustedError(f"no verified 2-isomorphic model near modulus {m0} in {attempts} attempts")


def dim_shift_ratio(
    a: GroundSet, shifts: Sequence[Element], budget: Optional[int] = None
) -> ExperimentReport:
    """Measure how far dim_1(A + x) can move from dim_1(A) over the given
    shifts.

    Shifting can change the dimension (the statistic is not
    translation-invariant), but only within a bounded factor; the worst
    observed ratio in either direction, over the shifts whose dimension and
    the base one are both exact, is recorded as a fitted constant (None when
    no such shift exists).
    A zero shift must leave the set unchanged and its certified dimension
    interval consistent with the base one; that case is a hard record.
    """
    meter = as_meter(budget)
    base = dim_bounds(a, 1, budget=meter)
    rows = []
    worst = None
    records: list[ClaimRecord] = []
    for x in shifts:
        shifted = translate(a, x)
        db = dim_bounds(shifted, 1, budget=meter)
        rows.append(
            {
                "shift": list(x) if isinstance(x, tuple) else x,
                "dim_lower": db.lower,
                "dim_upper": db.upper,
                "exact": db.exact,
            }
        )
        if x == a.ambient.zero:
            # The two searches spend one meter, so the shifted one may stop
            # earlier; both intervals are certified, so they must intersect.
            if shifted.elements != a.elements:
                fault = "zero shift changed the set"
            elif db.lower > base.upper or base.lower > db.upper:
                fault = (
                    f"disjoint intervals: base [{base.lower}, {base.upper}],"
                    f" zero shift [{db.lower}, {db.upper}]"
                )
            else:
                fault = ""
            records.append(
                ClaimRecord(
                    claim="shift_zero_fixed",
                    klass="hard",
                    instance=a.describe(),
                    measured={"dim_lower": db.lower},
                    violated=bool(fault),
                    note=fault,
                )
            )
        if base.exact and db.exact and base.lower > 0 and db.lower > 0:
            worst = max(worst or 1.0, db.lower / base.lower, base.lower / db.lower)
    records.append(
        ClaimRecord(
            claim="shift_dim_ratio",
            klass="fitted",
            instance=a.describe(),
            measured={"base_dim_lower": base.lower, "shifts": rows},
            fitted_constant=worst,
        )
    )
    return ExperimentReport(
        name="dim_shift",
        instance=a.describe(),
        params={"k": 1, "num_shifts": len(shifts)},
        measured={"base": {"lower": base.lower, "upper": base.upper, "exact": base.exact}},
        records=records,
    )
