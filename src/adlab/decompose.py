"""Constructive decompositions of finite sets.

The routines here take a set apart: peeling off dissociated blocks, slicing
representation functions into dyadic level sets, extracting a
structured core with an explicit Balog-Szemeredi-Gowers-style pipeline,
splitting a set into an additively tame part and a multiplicatively tame
part, pulling out B_h[1] (Sidon-type) subsets, and measuring how much of
the ratio box [n]/[n] the difference set covers.

Everything is deterministic: randomized-looking steps are derandomized
(popularity arguments use exact counts).  Reported statistics are exact
integers or rationals so they can be recomputed bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .budget import WorkMeter, as_meter
from .dissociation import DimensionBounds, dim_bounds, is_k_dissociated, max_dissociated_greedy
from .energy import additive_energy, t_k
from .errors import (
    PreconditionError,
    SizeCapExceededError,
    VerificationFailedError,
)
from .groundset import (
    DENSE_RANGE_LIMIT,
    GroundSet,
    IntegerLattice,
    RepFn,
    _int_view,
    by_magnitude,
    mult_embed,
    rep_fn,
    sumset,
    translate,
)
from .growth import beta_hat

REP_SUPPORT_CAP = 1 << 18
SIDON_EXACT_LIMIT = 20
# A Sidon search keeps its sums in bitsets while their index range has at
# most this many slots per h-multiset of A (see _sidon_levels).
SIDON_SLOTS_PER_SUM = 64
RATIO_SET_CAP = 4000


# ---------------------------------------------------------------------------
# dissociated peeling


@dataclass(frozen=True)
class PeelingResult:
    """A = block_1 | ... | block_s | remainder with dissociated blocks.

    Every block has exactly l elements and passes the 1-dissociation check,
    so k is always 1.  certified means dim_1(remainder) < l was proven;
    when the dimension search was truncated by budget the flag is False and
    remainder_dim carries the bounds that were established.
    """

    blocks: tuple[GroundSet, ...]
    remainder: GroundSet
    l: int
    k: int
    remainder_dim: Optional[DimensionBounds]
    certified: bool
    note: str = ""

    def to_json(self) -> dict:
        return {
            "blocks": [sorted(b.elements) for b in self.blocks],
            "remainder": sorted(self.remainder.elements),
            "l": self.l,
            "k": self.k,
            "certified": self.certified,
            "note": self.note,
        }


def dissociated_peeling(a: GroundSet, l: int, budget: Optional[int] = None) -> PeelingResult:
    """Greedily extract disjoint 1-dissociated blocks of size exactly l.

    Each round takes the greedy maximal dissociated subset of what is left
    (largest magnitudes first) and keeps its first l elements; when greedy
    comes up short, an exact dimension search has the final say.  The loop
    stops when the leftover set has dimension < l, certified when the
    search completed within budget.
    """
    if l < 1:
        raise PreconditionError("block size l must be at least 1")
    meter = as_meter(budget)
    blocks: list[GroundSet] = []
    current = a
    note = ""
    remainder_dim: Optional[DimensionBounds] = None
    certified = False
    while True:
        if len(current) < l:
            db = dim_bounds(current, 1, budget=meter) if current.elements else None
            remainder_dim = db
            certified = db is None or db.upper < l
            break
        witness = max_dissociated_greedy(current, 1, budget=meter)
        if len(witness) < l:
            db = dim_bounds(current, 1, budget=meter)
            remainder_dim = db
            if db.lower >= l and db.lower_witness is not None:
                ordered = by_magnitude(current.ambient, db.lower_witness.elements, descending=True)
                blocks.append(GroundSet.of(current.ambient, ordered[:l]))
                current = current.without(blocks[-1])
                continue
            certified = db.exact or db.upper < l
            if not certified:
                note = "remainder dimension not certified below l (budget truncation)"
            break
        ordered = by_magnitude(current.ambient, witness.elements, descending=True)
        block = GroundSet.of(current.ambient, ordered[:l])
        if not is_k_dissociated(block, 1).is_dissociated:
            raise VerificationFailedError(f"peeled block {block.elements} is not 1-dissociated")
        blocks.append(block)
        current = current.without(block)
    return PeelingResult(
        blocks=tuple(blocks),
        remainder=current,
        l=l,
        k=1,
        remainder_dim=remainder_dim,
        certified=certified,
        note=note,
    )


# ---------------------------------------------------------------------------
# dyadic level sets


def level_set(r: RepFn) -> list[tuple[Fraction, GroundSet]]:
    """Partition the support of r into dyadic bands (Delta, 2*Delta].

    Band labels are the lower endpoints Delta = 2^i (i may be negative),
    as Fractions; every positive count lands in exactly one band, so the
    bands partition the support.  Returned in increasing Delta order.
    """
    bands: dict[Fraction, list] = {}
    for x, c in r.entries.items():
        if c <= 0:
            continue
        # 2 * Delta is the least power of two >= c.
        delta = Fraction(1 << (c - 1).bit_length(), 2)
        bands.setdefault(delta, []).append(x)
    out = []
    for delta in sorted(bands):
        out.append((delta, GroundSet.of(r.ambient, bands[delta])))
    return out


def _heaviest_band(bands: list[tuple[Fraction, GroundSet]], weight, meter: WorkMeter):
    """The band (Delta, P) with the largest (weight(Delta, P), Delta),
    charging |P| states per band before its weight is computed."""

    def key(band):
        delta, p_delta = band
        meter.tick(len(p_delta))
        return weight(delta, p_delta), delta

    return max(bands, key=key)


# ---------------------------------------------------------------------------
# constructive BSG


@dataclass(frozen=True)
class BsgResult:
    """Structured core H and shift x from the BSG-style pipeline.

    stats holds exact integers and rationals only, so every entry can be
    recomputed from (A, B, parameters) and compared bit-for-bit.
    """

    h: GroundSet
    x: object
    stats: dict


def _energy_chain(b: GroundSet, l: int, size_cap: int) -> tuple[list[RepFn], list[int]]:
    """r_{2^i B} and T_{2^i}(B) for i = 0..l, stopping early at the cap.

    Level i is r_{2^i B}, built by ``rep_fn``.  The chain stops before
    level i when |supp r_{2^(i-1) B}|^2 > 8 * size_cap, and also when
    level i's support would pass size_cap.
    """
    reps = [rep_fn([(b, "+")])]
    energies = [reps[0].square_sum()]
    for i in range(1, l + 1):
        if reps[-1].support_size() ** 2 > 8 * size_cap:
            break
        try:
            nxt = rep_fn([(b, "+")] * 2**i, size_cap=size_cap)
        except SizeCapExceededError:
            break
        reps.append(nxt)
        energies.append(nxt.square_sum())
    return reps, energies


def _bsg_core(
    a: GroundSet,
    b: GroundSet,
    k_target: Fraction,
    energy_ab: int,
    l: int,
    meter: WorkMeter,
) -> BsgResult:
    """The BSG pipeline behind bsg_asymmetric; energy_ab is E(A,B), which
    both callers have already computed."""
    size_a, size_b = len(a), len(b)

    # Hoelder amplification: walk the energy chain T_1, T_2, T_4, ... of B
    # and take the level that loses the least against the trivial bound.
    reps, chain = _energy_chain(b, l, REP_SUPPORT_CAP)
    surrogates: dict[int, Fraction] = {}
    best_j = 1
    best_m: Optional[Fraction] = None
    for j in range(1, len(chain)):
        m_j = Fraction(size_b ** (2**j) * chain[j - 1], chain[j])
        surrogates[j] = m_j
        if best_m is None or m_j < best_m:
            best_m, best_j = m_j, j
    j = best_j if surrogates else 1

    # Dyadic level set of r_{2^{j-1} B}, weighted toward popular bands.
    r_level = reps[j - 1]
    delta, p = _heaviest_band(
        level_set(r_level), lambda d, pd: d**4 * additive_energy(pd, pd).value, meter
    )

    # Popular-difference graph on P: d is popular when r_{P-P}(d) clears
    # half the average energy per pair.
    r_pp = rep_fn([(p, "+"), (p, "-")])
    energy_p = r_pp.square_sum()
    theta = Fraction(energy_p, 2 * len(p) ** 2)
    elems = by_magnitude(p.ambient, p.elements)
    amb = p.ambient
    edges = 0
    best_v = None
    best_deg = -1
    neighbors_of_best: list = []
    for u in elems:
        meter.tick(len(elems))
        nbrs = []
        for v in elems:
            if v == u:
                continue
            d = amb.sub(u, v)
            if r_pp[d] >= theta:
                nbrs.append(v)
        edges += len(nbrs)
        if len(nbrs) > best_deg:
            best_deg, best_v, neighbors_of_best = len(nbrs), u, nbrs
    h = GroundSet.of(amb, [best_v, *neighbors_of_best])

    hh = sumset(h, h)
    r_bh = rep_fn([(b, "+"), (h, "-")])
    # max keeps the first of equal counts, in magnitude order.  H holds the
    # max-degree vertex and B is nonempty, so r_{B-H} has an entry and its
    # largest count is at least 1.
    x_star = max(by_magnitude(amb, r_bh.entries), key=r_bh.entries.__getitem__)
    x_count = r_bh.entries[x_star]

    stats = {
        "j": j,
        "m_surrogates": {str(jj): v for jj, v in surrogates.items()},
        "delta": delta,
        "p_size": len(p),
        "theta": theta,
        "edges": edges,
        "energy_p": energy_p,
        "energy_ab": energy_ab,
        "k_target": Fraction(k_target),
        "h_size": len(h),
        "hh_size": len(hh),
        "doubling": Fraction(len(hh), len(h)),
        "trivial_doubling": Fraction(len(h) + 1, 2),
        "intersection": x_count,
        "a_size": size_a,
        "b_size": size_b,
    }
    return BsgResult(h=h, x=x_star, stats=stats)


def bsg_asymmetric(
    a: GroundSet,
    b: GroundSet,
    k_target: Fraction | int,
    l: int = 3,
    budget: Optional[int] = None,
) -> BsgResult:
    """Extract a small-doubling core H and shift x with B ∩ (H+x) large.

    Requires the energy precondition E(A,B) >= |A||B|^2 / K (checked
    exactly) and |A| >= |B|.  The pipeline is deterministic: an energy
    chain on B picks the amplification level, a dyadic band of the
    resulting representation function picks P, a popular-difference graph
    on P picks H as the closed neighborhood of a maximum-degree vertex,
    and x maximizes r_{B-H}.  Guarantees at desk scale are empirical; the
    stats record the measured doubling |H+H|/|H| and intersection count
    next to their trivial yardsticks, and everything in stats is exactly
    recomputable.
    """
    if a.ambient != b.ambient:
        raise PreconditionError("A and B must share an ambient")
    if not a.elements or not b.elements:
        raise PreconditionError("A and B must be nonempty")
    if len(a) < len(b):
        raise PreconditionError("need |A| >= |B|")
    k_target = Fraction(k_target)
    if k_target <= 0:
        raise PreconditionError("K must be positive")
    energy_ab = additive_energy(a, b).value
    if energy_ab * k_target.numerator < len(a) * len(b) ** 2 * k_target.denominator:
        raise PreconditionError(
            f"energy precondition failed: E(A,B) = {energy_ab} < |A||B|^2/K"
        )
    meter = as_meter(budget)
    return _bsg_core(a, b, k_target, energy_ab, l, meter)


# ---------------------------------------------------------------------------
# beta decomposition


@dataclass(frozen=True)
class BetaDecomposition:
    """A dense piece A* of A with small measured beta statistic."""

    a_star: GroundSet
    stats: dict
    note: str = ""


def beta_decomposition(
    a: GroundSet,
    k: int = 2,
    budget: Optional[int] = None,
) -> BetaDecomposition:
    """Find A* ⊆ A that is dense and additively structured.

    The energy chain T_2, ..., T_k of A is scanned for the largest j with
    T_j >= |A|^2 T_{j-1} / K, where K is the value determined by
    T_k(A) = |A|^{2k-1} K^{1-k} (the test is carried out in
    cross-multiplied integer form, so no irrational K is ever computed).
    The level set of r_{(j-1)A}, built within ``REP_SUPPORT_CAP``
    elements, at the most energetic dyadic band feeds the BSG pipeline,
    and A* = A ∩ (H + x).  If the chain test never fires the theorem
    gives nothing and A itself is returned with a note.
    """
    if k < 2:
        raise PreconditionError("k must be at least 2")
    if len(a) <= 2:
        return BetaDecomposition(a_star=a, stats={"sizes": len(a)}, note="set too small; returned unchanged")
    meter = as_meter(budget)
    size = len(a)
    energies = [0, len(a)]  # T_0 unused, T_1 = |A|
    for j in range(2, k + 1):
        energies.append(t_k(a, j).value)
    t_k_val = energies[k]

    fired = None
    for j in range(k, 1, -1):
        t_j, t_jm1 = energies[j], energies[j - 1]
        if t_j ** (k - 1) * size ** (2 * k - 1) >= t_k_val * size ** (2 * (k - 1)) * t_jm1 ** (k - 1):
            fired = j
            break
    stats: dict = {
        "k": k,
        "energies": {str(i): energies[i] for i in range(1, k + 1)},
        "size": size,
    }
    if fired is None:
        stats["chain_fired"] = None
        return BetaDecomposition(
            a_star=a, stats=stats, note="chain test degenerate (no energetic level); returned A"
        )
    j = fired
    stats["chain_fired"] = j

    r = rep_fn([(a, "+")] * (j - 1), size_cap=REP_SUPPORT_CAP)
    delta, p = _heaviest_band(
        level_set(r), lambda d, pd: d**2 * additive_energy(pd, a).value, meter
    )
    stats["delta"] = delta
    stats["p_size"] = len(p)

    e_pa = additive_energy(p, a).value
    k_prime = Fraction(len(p) * size**2, e_pa)
    core = _bsg_core(p, a, k_prime, e_pa, l=2, meter=meter)
    shifted = translate(core.h, core.x)
    a_star = a.restrict(shifted.elements)
    if not a_star.elements:
        stats["bsg"] = core.stats
        return BetaDecomposition(a_star=a, stats=stats, note="core missed A entirely; returned A")
    est = beta_hat(a_star)
    stats["bsg"] = core.stats
    stats["a_star_size"] = len(a_star)
    stats["density_ratio"] = Fraction(size, len(a_star))
    stats["beta_upper_sq"] = est.upper_sq
    stats["small_block"] = len(a_star) ** 2 < size
    return BetaDecomposition(a_star=a_star, stats=stats)


# ---------------------------------------------------------------------------
# additive/multiplicative splitting


@dataclass(frozen=True)
class DecompositionResult:
    """A = B | C with C multiplicatively tame and B additively tame.

    iterations traces each peel: the size of C going in, its
    multiplicative s-energy, the threshold compared against, and the size
    of the extracted piece.  flags collect anything that deviated from the
    ideal run (iteration cap, non-shrinking peel, small pieces).
    """

    a: GroundSet
    b: GroundSet
    c: GroundSet
    s: int
    q: int
    big_k: Fraction
    threshold: Fraction
    energies: dict
    iterations: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def __post_init__(self):
        if set(self.b.elements) & set(self.c.elements):
            raise VerificationFailedError("B and C overlap")
        if set(self.b.elements) | set(self.c.elements) != set(self.a.elements):
            raise VerificationFailedError("B and C do not cover A")

    def to_json(self) -> dict:
        return {
            "b": sorted(self.b.elements),
            "c": sorted(self.c.elements),
            "s": self.s,
            "q": self.q,
            "big_k": self.big_k,
            "threshold": self.threshold,
            "energies": self.energies,
            "iterations": self.iterations,
            "flags": self.flags,
        }


def dec_tk(
    a: GroundSet,
    s: int = 2,
    q: Optional[int] = None,
    big_k: Optional[Fraction] = None,
    budget: Optional[int] = None,
) -> DecompositionResult:
    """Split a set of positive integers into B ⊔ C with T_s^x(C) small.

    While the multiplicative s-energy of the remaining part C exceeds the
    threshold |A|^{2s-1} K^{1-s}, the loop maps C to prime-exponent
    vectors, extracts a structured core via the beta pipeline, and moves
    it into B; multiplicatively structured pieces are additively spread,
    which is what keeps T_q^+(B) low.  K defaults to max(2, |A|^{1/4})
    rounded; asymptotic choices of K degenerate at desk sizes.  The loop
    always terminates: a peel that takes all of C stops it (flagged), as
    does the iteration cap |A| + 1.
    """
    amb = a.ambient
    if not isinstance(amb, IntegerLattice) or amb.rank != 1:
        raise PreconditionError("dec_tk expects a rank-1 integer set")
    if any(x < 1 for x in a.elements):
        raise PreconditionError("dec_tk expects positive integers")
    if s < 2:
        raise PreconditionError("s must be at least 2")
    q = s if q is None else q
    if q < 2:
        raise PreconditionError("q must be at least 2")
    if not a.elements:
        raise PreconditionError("cannot decompose the empty set")
    meter = as_meter(budget)
    size = len(a)
    kk = Fraction(big_k) if big_k is not None else Fraction(max(2, round(size**0.25)))
    if kk <= 1:
        raise PreconditionError("K must exceed 1")
    threshold = Fraction(size ** (2 * s - 1)) / kk ** (s - 1)
    max_iter = size + 1

    desk_note = None
    if size >= 3:
        log_a = math.log(size)
        loglog = math.log(max(math.log(size), 1.0001))
        logloglog = math.log(max(loglog, 1.0001)) if loglog > 1 else 0.0
        bound = log_a / math.sqrt(max(loglog * max(logloglog, 1e-9), 1e-9))
        if s > bound:
            desk_note = (
                f"s={s} is outside the guaranteed regime for |A|={size} (limit ~{bound:.2f}); "
                "proceeding anyway"
            )

    b_elems: set = set()
    c = a
    iterations: list = []
    flags: list[str] = []
    if desk_note:
        flags.append(desk_note)
    peels = 0
    for it in range(max_iter):
        tsc = t_k(c, s, op="*").value if c.elements else 0
        over = Fraction(tsc) > threshold
        row = {
            "iteration": it,
            "c_size": len(c),
            "t_s_mult_c": tsc,
            "threshold": threshold,
            "above_threshold": over,
        }
        if not over:
            iterations.append(row)
            break
        emb = mult_embed(c)
        dec = beta_decomposition(emb.image, k=s, budget=meter)
        piece_vectors = dec.a_star
        piece = emb.preimage(piece_vectors)
        row["peel_size"] = len(piece)
        row["peel_note"] = dec.note
        row["small_piece"] = len(piece) ** 2 < size
        if len(piece) ** 2 < size:
            flags.append(f"iteration {it}: extracted piece smaller than sqrt|A|")
        took_all = len(piece) == len(c)
        b_elems |= set(piece.elements)
        c = c.without(piece)
        peels += 1
        iterations.append(row)
        if took_all:
            flags.append(f"iteration {it}: peel took all of C; stopping early")
            break
    else:
        flags.append(f"iteration cap {max_iter} reached with C above threshold")

    b = a.restrict(b_elems)
    energies = {
        "t_s_add_b": t_k(b, s).value if b.elements else 0,
        "t_q_add_b": t_k(b, q).value if b.elements else 0,
        "t_s_mult_c": t_k(c, s, op="*").value if c.elements else 0,
        "peels": peels,
    }
    return DecompositionResult(
        a=a,
        b=b,
        c=c,
        s=s,
        q=q,
        big_k=kk,
        threshold=threshold,
        energies=energies,
        iterations=iterations,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Sidon-type extraction


def _sidon_levels(codes: list, h: int, modulus: Optional[int]):
    """Root state, child step and per-code steps of the B_h[1] search.

    A state holds levels[1..h]; levels[j] is the set of j-fold sums of the
    chosen codes (levels[0] is {0}).  ``extend(state, step)`` returns the
    state with the code of ``step`` added, or None when the code breaks
    B_h[1]: the new h-fold sums are m*c + levels[h - m] for m = 1..h, and
    the chosen set is B_h[1], hence B_j[1] for every j <= h, so the code
    is accepted iff those h translates are pairwise disjoint and miss
    levels[h].

    Off the residues, codes are moved by -min(codes) first, so that
    levels[j] holds each sum s as s - j*min(codes).  The levels are int
    bitsets when the h-fold sums' index range (h times the spread of the
    codes, plus one; N mod N) holds at most ``SIDON_SLOTS_PER_SUM`` slots
    per h-multiset of the codes and at most ``DENSE_RANGE_LIMIT`` in all;
    mod N a shift wraps around.  Otherwise they are sets of ints.  A step
    lists the moves m*c for m = 1..h.  Returns (root, extend, steps,
    bitset).
    """
    multisets = math.comb(len(codes) + h - 1, h)
    if modulus is None:
        low = min(codes)
        codes = [c - low for c in codes]
        span = h * max(codes) + 1
        steps = [tuple(m * c for m in range(1, h + 1)) for c in codes]
    else:
        span = modulus
        steps = [tuple(m * c % modulus for m in range(1, h + 1)) for c in codes]
    if span <= DENSE_RANGE_LIMIT and span <= SIDON_SLOTS_PER_SUM * multisets:
        if modulus is None:
            shift = int.__lshift__
        else:
            mask = (1 << modulus) - 1

            def shift(bits: int, y: int) -> int:
                bits <<= y
                return (bits & mask) | (bits >> modulus)

        def extend(state: tuple, moves: tuple):
            levels = (1,) + state
            top = state[-1]
            for m in range(1, h + 1):
                moved = shift(levels[h - m], moves[m - 1])
                if top & moved:
                    return None
                top |= moved
            grown = []
            for j in range(1, h):
                bits = levels[j]
                for m in range(1, j + 1):
                    bits |= shift(levels[j - m], moves[m - 1])
                grown.append(bits)
            grown.append(top)
            return tuple(grown)

        return (0,) * h, extend, steps, True

    if modulus is None:

        def translate(sums, y: int):
            return map(y.__add__, sums)

    else:

        def translate(sums, y: int):
            return map(modulus.__rmod__, map(y.__add__, sums))

    def extend(state: tuple, moves: tuple):
        levels = ({0},) + state
        top = state[-1]
        for m in range(1, h + 1):
            if not top.isdisjoint(translate(levels[h - m], moves[m - 1])):
                return None
            top = top.union(translate(levels[h - m], moves[m - 1]))
        grown = []
        for j in range(1, h):
            sums = levels[j]
            for m in range(1, j + 1):
                sums = sums.union(translate(levels[j - m], moves[m - 1]))
            grown.append(sums)
        grown.append(top)
        return tuple(grown)

    return (frozenset(),) * h, extend, steps, False


def sidon_extract(
    a: GroundSet,
    h: int = 2,
    op: str = "+",
    budget: Optional[int] = None,
) -> GroundSet:
    """Largest B_h[1] subset of A when |A| <= ``SIDON_EXACT_LIMIT`` (20),
    a maximal one otherwise.

    A B_h[1] set has all h-fold sums distinct; with op="*" the h-fold
    products are made distinct instead, computed exactly through the
    prime-exponent embedding.  Up to the limit an exact depth-first search
    runs over the (downward-closed) family of B_h[1] subsets; past it a
    greedy pass inserts elements in ascending order and keeps an element
    whenever it does not break the property.  The sums are
    formed on ``_int_view`` codes, so int64 is checked once, on the h-fold
    extremes, before the search starts.

    Each search node holds the j-fold sums of its elements for j <= h
    (``_sidon_levels``) and tests a candidate against them, in one of two
    state kinds chosen from the input: int bitsets when the h-fold sums'
    index range is at most ``SIDON_SLOTS_PER_SUM`` slots per h-multiset of
    A and at most ``DENSE_RANGE_LIMIT``, sets of ints otherwise.  At h = 2
    the test of a bitset that does not wrap around (on the line and Z^r)
    is written out in the search loop.  The
    visit order, the pruning and the ticks are those of the plain search
    that rebuilds every h-fold sum of each candidate subset: a candidate
    costs len(subset)**h // h + 1 ticks in the exact search and
    len(kept)**(h - 1) + 1 in the greedy pass, charged before its test, so
    results and budget errors do not depend on the state kind.
    """
    if h < 2:
        raise PreconditionError("h must be at least 2")
    if op not in ("+", "*"):
        raise PreconditionError("op must be '+' or '*'")

    if op == "*":
        emb = mult_embed(a)
        inner = sidon_extract(emb.image, h, "+", budget)
        return emb.preimage(inner)

    amb = a.ambient
    meter = as_meter(budget)
    elems = by_magnitude(amb, a.elements)
    if not elems:
        return a
    part_codes, n, _decode = _int_view(amb, [(elems, "+")] * h)
    # the h parts are identical, and so are their codes
    root, extend, steps, bitset = _sidon_levels(part_codes[0], h, n)
    tick = meter.tick

    if len(elems) > SIDON_EXACT_LIMIT:
        kept: list = []
        state = root
        for i, step in enumerate(steps):
            tick(len(kept) ** (h - 1) + 1)
            child = extend(state, step)
            if child is not None:
                kept.append(i)
                state = child
        return GroundSet.of(amb, [elems[i] for i in kept])

    size = len(elems)
    costs = [(t + 1) ** h // h + 1 for t in range(size)]  # ticks per candidate at depth t
    path = [0] * size
    best: list = []
    # At h = 2 a bitset test without wrap-around is written out in the loop:
    # c is accepted iff c + levels[1] misses levels[2] and 2c is not in
    # levels[2] (c + levels[1] never holds 2c, as c is not yet chosen).
    inline = bitset and n is None and h == 2
    if inline:
        shifts = [c for c, _ in steps]
        ones = [1 << c for c in shifts]
        twos = [1 << c2 for _, c2 in steps]

    def dfs(start: int, depth: int, state: tuple):
        nonlocal best
        if depth > len(best):
            best = path[:depth]
        # even taking everything that is left cannot beat the best
        if depth + (size - start) <= len(best):
            return
        cost = costs[depth]
        if inline:
            l1, l2 = state
            for i in range(start, size):
                tick(cost)
                moved = l1 << shifts[i]
                if moved & l2 or l2 & twos[i]:
                    continue
                path[depth] = i
                dfs(i + 1, depth + 1, (l1 | ones[i], l2 | moved | twos[i]))
        else:
            for i in range(start, size):
                tick(cost)
                child = extend(state, steps[i])
                if child is not None:
                    path[depth] = i
                    dfs(i + 1, depth + 1, child)

    dfs(0, 0, root)
    return GroundSet.of(amb, [elems[i] for i in best])


# ---------------------------------------------------------------------------
# ratio box


@dataclass(frozen=True)
class RatioBoxResult:
    """Largest n with every reduced fraction from [n]/[n] realized in D/D."""

    n: int
    missing: Fraction
    ratio_count: int


def _difference_ratios(a: GroundSet) -> set[tuple[int, int]]:
    """The ratios d1/d2 of nonzero differences of A, as reduced pairs.

    The pair of d1/d2 is (d1/g, d2/g) with g = gcd(d1, d2), over the
    magnitudes d1, d2 of A - A; reduced pairs and positive fractions are in
    bijection, so a/b with gcd(a, b) = 1 is a ratio iff (a, b) is in the set.
    """
    mags = {abs(x - y) for x in a.elements for y in a.elements if x != y}
    return {(d1 // g, d2 // g) for d1 in mags for d2 in mags for g in (math.gcd(d1, d2),)}


def ratio_box(a: GroundSet) -> RatioBoxResult:
    """Measure how much of the box [n]/[n] the ratios of A - A cover.

    D is the nonzero part of A - A (symmetric, so positive ratios come
    from the magnitudes).  The scan grows n while every reduced a/b with
    1 <= a, b <= n is a ratio of two differences; it reports the first
    missing fraction one step past the answer.  Ratios are tested as
    reduced int pairs (``_difference_ratios``), and ``ratio_count`` counts
    them.  The scan always stops: 1/(n+1) is no ratio once n+1 exceeds
    max|D| / min|D|.  Singletons have no nonzero differences and return
    n = 0 with missing 1.  Sets of more than ``RATIO_SET_CAP`` elements are
    refused with SizeCapExceededError.
    """
    amb = a.ambient
    if not isinstance(amb, IntegerLattice) or amb.rank != 1:
        raise PreconditionError("ratio box is defined for rank-1 integer sets")
    if len(a) > RATIO_SET_CAP:
        raise SizeCapExceededError("too many elements for the pair scan", cap=RATIO_SET_CAP, stage="ratio-box")
    return _ratio_box_scan(_difference_ratios(a))


def _ratio_box_scan(ratios: set[tuple[int, int]]) -> RatioBoxResult:
    """The ratio box of a set whose difference ratios are ``ratios``."""
    if not ratios:
        return RatioBoxResult(n=0, missing=Fraction(1), ratio_count=0)
    n = 0
    missing: Optional[Fraction] = None
    while missing is None:
        cand = n + 1
        for x in range(1, cand + 1):
            if math.gcd(x, cand) != 1:
                continue
            if (x, cand) not in ratios:
                missing = Fraction(x, cand)
                break
            if (cand, x) not in ratios:
                missing = Fraction(cand, x)
                break
        if missing is None:
            n = cand
    return RatioBoxResult(n=n, missing=missing, ratio_count=len(ratios))
