"""Dissociativity certificates, additive dimension, spans, and covers.

A set L is k-dissociated when no nonzero coefficient vector eps with entries
in [-k, k] satisfies sum eps_i * l_i = 0.  Equivalently, the (k+1)^|L| sums
with coefficients in [0, k] are pairwise distinct.  The greedy and
branch-and-bound searches add one element at a time to a state holding
those sums and reject an element as soon as two sums meet.  The state is a
plain-int bitset on the line and mod N <= 2^22, and a set of int codes on
Z^r (Kronecker codes) and mod N > 2^22 (residues); see ``_extender``.  On
Z^r each step checks the extremes of the new sums against int64 once, so
the search raises ``CoordinateOverflowError`` exactly when one of its sums
leaves that range.  The line's bitsets hold sums of magnitudes and never
form a signed sum, so no int64 check is made there.  ``span_k`` and the
candidate tests of ``d_k_exact`` (``_span_test``) build spans with one
builder on int codes, ``_span_codes``: a bitset over the code box while the
box has at most 2^22 slots and at most ``SPAN_SLOTS_PER_SUM`` slots per sum
enumerated, a set of codes otherwise.  ``d_k_exact`` checks int64 where
``span_k`` would.  ``is_k_dissociated`` certifies a whole set at every k by
one meet-in-the-middle search for a relation, on the same codes and with
the same int64 check as ``span_k``.

All searches are deterministic: elements are processed in a fixed order and
witnesses are the lexicographically smallest among optimal ones (subsets are
compared as sorted tuples).

``dim_k_exact`` searches each orbit of A's symmetries once, as the input
alone decides: one element of each class {x, -x}, the smaller one, since a
sign flip keeps a set k-dissociated; and mod N, when the units g with
gA = A move A's least nonzero element onto every other, only subsets that
hold it.  The lexicographically smallest optimal witness already has both
properties, so values and witnesses are those of the search on all of A;
only states and budget truncations move.

Budget contract: every search charges one tick of its node weight per
tried candidate, in the order it tries them and before that candidate's
``extend``.  ``dim_k_exact`` counts its ticks inline rather than through
``WorkMeter.tick``, but raises at the tick and with the states where
``WorkMeter.tick`` would, so bounds, witnesses and state counts depend on
the input and the budget alone, also when the budget truncates a search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, mul, sub

from .budget import WorkMeter, as_meter
from .errors import (
    BudgetExceededError,
    PreconditionError,
    SizeCapExceededError,
    VerificationFailedError,
)
from .groundset import (
    DENSE_RANGE_LIMIT,
    INT64_MAX,
    INT64_MIN,
    Ambient,
    GroundSet,
    Residues,
    _check64,
    _decoded,
    _int_view,
    _mixed_radix,
    _set_bits,
    _unit_dilations,
    by_magnitude,
    combination,
    sigma_k,
)

DEFAULT_SPAN_CAP = 1 << 22
# A span is built in a bitset while its code box has at most this many slots
# per sum of the (2k+1)^|S| it enumerates (see _span_codes).
SPAN_SLOTS_PER_SUM = 512

MAX_CUBE_GENERATORS = 24


@dataclass(frozen=True)
class DissociationCertificate:
    """Outcome of a dissociativity test, re-verifiable from the relation."""

    verdict: str  # "dissociated" or "relation"
    k: int
    relation: tuple | None  # coefficients aligned with the sorted element order
    method: str  # "meet-in-the-middle"
    states_visited: int

    @property
    def is_dissociated(self) -> bool:
        return self.verdict == "dissociated"

    def verify(self, lam: GroundSet) -> bool:
        """Recheck the certificate against the set it was issued for."""
        if self.verdict == "dissociated":
            return self.relation is None
        eps = self.relation
        if eps is None or len(eps) != len(lam.elements):
            return False
        if not any(eps):
            return False
        if any(abs(c) > self.k for c in eps):
            return False
        total = combination(lam.ambient, lam.elements, eps)
        return total == lam.ambient.zero


@dataclass(frozen=True)
class DimensionBounds:
    """Certified bounds for a dimension-like quantity."""

    kind: str  # "dim_k", "d_k", "dim_alpha_k"
    k: int
    lower: int
    upper: int
    exact: bool
    lower_witness: GroundSet | None = None
    upper_witness: GroundSet | None = None
    states: int = 0
    note: str = ""

    def __post_init__(self):
        if self.lower > self.upper:
            raise VerificationFailedError(f"bounds inverted: {self.lower} > {self.upper}")

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("bounds are not exact")
        return self.lower

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "lower_witness": list(self.lower_witness) if self.lower_witness else None,
            "upper_witness": list(self.upper_witness) if self.upper_witness else None,
            "states": self.states,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# Distinct-sum search states


def _disjoint_union(sums: set, moves: tuple, translate):
    """The union of sums and its translates by each move, or None when two
    of them meet.

    ``translate(sums, y)`` iterates over the sums moved by y.  Each
    translate is tested against the union so far before it joins it, and
    the test stops at the first sum found in both.
    """
    combined = sums
    for y in moves:
        if not combined.isdisjoint(translate(sums, y)):
            return None
        combined = combined.union(translate(sums, y))
    return combined


def _extender(ambient: Ambient, k: int, elems: list):
    """Root state, child step and per-element steps of the distinct-sums search.

    A state at depth t holds the (k+1)^t sums with coefficients in [0, k]
    of the chosen elements.  ``extend(state, step, count)``, where step is
    ``steps[j]`` for the element ``elems[j]`` and count is the number of
    sums in the state, returns the state with that element added, or None
    when two sums meet.  Steps are computed once per call.

    - On the line the state is a bitset of the sums.  A negative x only
      translates the set, so the bitset depends on |x| alone and the step
      is |x|.
    - Mod N <= ``DENSE_RANGE_LIMIT`` (2^22) it is a bitset of length N
      whose shifts wrap around, and the step is x itself.
    - On both bitsets the child is the union of the k + 1 translates of
      the state by c*step, c = 0..k, built by doubling: reading the binary
      digits of k + 1 after the leading 1, the union of the first ``have``
      translates is OR-ed with its own shift by have*step, and then, on a
      digit 1, with the state shifted by the new have*step.  That is at
      most 2*log2(k + 1) shifts instead of k.  Every union formed joins
      some of the k + 1 translates, so its size is have*count exactly when
      they are disjoint, and the first union short of that returns None.
      On the line at k = 1 the step is one shift and an AND.
    - Mod N > ``DENSE_RANGE_LIMIT`` it is a set of residues, and the step
      lists the moves c*x mod N for c = 1..k.
    - On Z^r it is a set of Kronecker codes sum_i v_i * W_i, with weights
      from the box k*sum(min(v_i, 0)) .. k*sum(max(v_i, 0)) of the input,
      which holds every reachable sum, so equal codes mean equal sums.  The
      step lists the moves c*code(x) for c = 1..k.  The state also carries
      the per-coordinate extremes of its sums, and each ``extend`` checks
      the child's against int64 before it forms a sum.  Both extremes are
      reached, so it raises ``CoordinateOverflowError`` exactly when one of
      the child's sums leaves int64.

    A set state grows by ``_disjoint_union``, which rejects an element at
    the first sum it finds twice.

    Callers charge one meter tick per tried element, in index order, before
    its ``extend``; ``dim_k_exact`` counts those ticks inline and raises
    where ``WorkMeter.tick`` would.
    """
    kp1 = k + 1
    plan = bin(kp1)[3:]  # the binary digits of k + 1 after the leading 1
    if isinstance(ambient, Residues) and ambient.modulus <= DENSE_RANGE_LIMIT:
        n = ambient.modulus
        mask = (1 << n) - 1

        def extend(bits: int, x: int, count: int):
            out, have = bits, 1
            for digit in plan:
                spread = out << have * x % n
                out |= (spread & mask) | (spread >> n)
                have *= 2
                if out.bit_count() != have * count:
                    return None
                if digit == "1":
                    spread = bits << have * x % n
                    out |= (spread & mask) | (spread >> n)
                    have += 1
                    if out.bit_count() != have * count:
                        return None
            return out

        return 1, extend, elems
    if isinstance(ambient, Residues):
        n = ambient.modulus

        def translate(sums: set, y: int):
            return map(n.__rmod__, map(y.__add__, sums))

        def extend(sums: set, moves: tuple, count: int):
            return _disjoint_union(sums, moves, translate)

        return {0}, extend, [tuple(c * x % n for c in range(1, kp1)) for x in elems]
    if ambient.rank == 1:
        if k == 1:

            def extend(bits: int, step: int, count: int):
                shifted = bits << step
                return None if bits & shifted else bits | shifted

        else:

            def extend(bits: int, step: int, count: int):
                out, have = bits, 1
                for digit in plan:
                    out |= out << have * step
                    have *= 2
                    if out.bit_count() != have * count:
                        return None
                    if digit == "1":
                        out |= bits << have * step
                        have += 1
                        if out.bit_count() != have * count:
                            return None
                return out

        return 1, extend, [abs(x) for x in elems]
    # Kronecker codes; a step is (moves, growth of the extremes: k * the
    # negative parts, then k * the positive parts of x's coordinates).
    grows = [tuple(k * min(c, 0) for c in x) + tuple(k * max(c, 0) for c in x) for x in elems]
    rank = ambient.rank
    box = [sum(col) for col in zip(*grows)]
    weights = _mixed_radix([hi - lo for lo, hi in zip(box[:rank], box[rank:])])
    codes = [sum(map(mul, x, weights)) for x in elems]
    steps = [(tuple(c * code for c in range(1, kp1)), grow) for code, grow in zip(codes, grows)]

    def translate(sums: set, y: int):
        return map(y.__add__, sums)

    def extend(state: tuple, step: tuple, count: int):
        sums, extremes = state
        moves, grow = step
        extremes = tuple(map(add, extremes, grow))
        if min(extremes) < INT64_MIN or max(extremes) > INT64_MAX:
            for value in extremes:
                _check64(value)
        combined = _disjoint_union(sums, moves, translate)
        return None if combined is None else (combined, extremes)

    return ({0}, (0,) * (2 * rank)), extend, steps


def _state_weight(ambient: Ambient, elems, k: int) -> int:
    """Budget weight per search node, heavier for wide bitsets."""
    if isinstance(ambient, Residues):
        span = ambient.modulus
    elif ambient.rank == 1:
        span = k * sum(abs(x) for x in elems) + 1
    else:
        span = len(elems) ** 2 + 1
    return max(1, span >> 14)


# ---------------------------------------------------------------------------
# Dissociativity certificates


def is_k_dissociated(lam: GroundSet, k: int = 1, budget: int | None = None) -> DissociationCertificate:
    """Certified test with an explicit relation on failure, by meet in the middle.

    The sorted elements split into halves of floor(n/2) and ceil(n/2).  The
    left half lists sum(eps_a * a) and the right half sum(-eps_a * a) over
    its vectors eps in [-k, k], so a relation is a sum both halves list.
    Sums are ints built from the ``_int_view`` codes of the multiples
    -k*a..k*a, as in ``span_k``: a's step for c is code(c*a) - code(0).
    Steps add like the multiples and are 0 for a = 0, so a sum of steps is
    0 exactly when the ambient sum is (mod N on residues).

    The lists start at the sum 0 and grow in turn, left first.  Element a's
    block appends its list shifted by a's step for c = 1..k, -k..-1, so a
    vector's index holds its coefficients as digits in radix 2k + 1.  Each
    new sum is looked up in the other half's set; a hit joins the new,
    nonzero vector with the other half's first vector of that sum.  A
    relation is found by the block that lists the later of its halves.

    States: one per listed sum, charged by one ``meter.tick`` before each
    block.  A dissociated set lists every sum but the two zero vectors',
    (2k+1)^floor(n/2) + (2k+1)^ceil(n/2) - 2 states.  The codes are checked
    against int64 as ``span_k`` checks them, so at every k the call raises
    ``CoordinateOverflowError`` exactly where ``span_k(lam, k)`` would.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    meter = as_meter(budget)
    amb = lam.ambient
    n = len(lam.elements)
    radix = 2 * k + 1
    multiples = [[amb.scale(c, x) for c in range(-k, k + 1)] for x in lam.elements]
    codes, modulus, _ = _int_view(amb, [(part, "+") for part in multiples])
    coeffs = (*range(1, k + 1), *range(-k, 0))  # the digits 1..2k
    h = n // 2  # the right half starts at element h
    sums = ([0], [0])  # per half, its sums in index order
    seen = ({0}, {0})  # and the set of them
    for t in range(n - h):
        for j in (t, h + t) if t < h else (h + t,):
            side = 0 if j < h else 1
            own, other, found = sums[side], sums[1 - side], seen[1 - side]
            m = len(own)
            meter.tick((radix - 1) * m)
            part = codes[j]
            new = []
            for c in coeffs:
                step = part[k + c if side == 0 else k - c] - part[k]
                if modulus is None:
                    block = [s + step for s in own]
                else:
                    block = [(s + step) % modulus for s in own]
                if found.isdisjoint(block):
                    new += block
                    continue
                i = next(i for i, s in enumerate(block) if s in found)
                eps = [0] * n
                own_index, other_index = m + len(new) + i, other.index(block[i])
                for e, index in ((side * h, own_index), ((1 - side) * h, other_index)):
                    while index:
                        index, d = divmod(index, radix)
                        eps[e] = d if d <= k else d - radix
                        e += 1
                cert = DissociationCertificate(
                    "relation", k, tuple(eps), "meet-in-the-middle", meter.states
                )
                if not cert.verify(lam):
                    raise VerificationFailedError(f"relation {eps} does not vanish")
                return cert
            seen[side].update(new)
            own += new
    return DissociationCertificate("dissociated", k, None, "meet-in-the-middle", meter.states)


# ---------------------------------------------------------------------------
# Greedy maximal dissociated subsets


def max_dissociated_greedy(lam: GroundSet, k: int = 1, budget: int | None = None) -> GroundSet:
    """Single-pass greedy k-dissociated subset, maximal under insertion.

    Elements are tried largest magnitude first.  Rejection is monotone (a
    relation survives supersets), so the result cannot be extended by any
    element of the input.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    amb = lam.ambient
    meter = as_meter(budget)
    elems = by_magnitude(amb, [x for x in lam.elements if x != amb.zero], descending=True)
    weight = _state_weight(amb, elems, k)
    state, extend, steps = _extender(amb, k, elems)
    count = 1
    chosen = []
    for x, step in zip(elems, steps):
        meter.tick(weight)
        child = extend(state, step, count)
        if child is not None:
            state = child
            count *= k + 1
            chosen.append(x)
    return GroundSet.of(amb, chosen)


# ---------------------------------------------------------------------------
# Exact dimension by branch and bound


def _ceil_root(p: int, r: int) -> int:
    """Least b >= 0 with b^r >= p, for p >= 0 and r >= 1."""
    if r == 1 or p <= 1:
        return p
    x = 1 << -(-p.bit_length() // r)  # x^r >= 2^bit_length > p
    while True:
        y = ((r - 1) * x + p // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x if x**r >= p else x + 1


def _sign_classes(lam: GroundSet, elems: list) -> list:
    """One element of each class {x, -x} among ``elems``, A's nonzero
    elements in order: the smaller one in element order.

    That is the negative one on the line and on Z^r (its first nonzero
    coordinate is negative), so a set with no negative element comes back
    as it is; mod N it is the one at most N/2.  Negation is plain, so an
    INT64_MIN coordinate raises nothing here.
    """
    amb = lam.ambient
    if isinstance(amb, Residues):
        n, index = amb.modulus, lam._index
        return [x for x in elems if 2 * x <= n or n - x not in index]
    zero = amb.zero
    if elems[0] > zero:
        return elems
    index = lam._index
    if amb.rank == 1:
        return [x for x in elems if x < 0 or -x not in index]
    return [x for x in elems if x < zero or tuple(-c for c in x) not in index]


def dim_k_exact(lam: GroundSet, k: int = 1, budget: int | None = None) -> DimensionBounds:
    """Largest k-dissociated subset size by depth-first branch and bound.

    Elements are scanned in ascending order, so the first witness found at
    the optimum is the lexicographically smallest one.  On budget exhaustion
    the result degrades to certified bounds with ``exact=False``.

    Symmetry: flipping the sign of an element keeps a set k-dissociated, and
    no k-dissociated set holds both x and -x.  So the search runs on one
    element of each class {x, -x} of A's nonzero elements, the smaller one
    in element order (``_sign_classes``): swapping a larger one for its
    negative makes a witness lexicographically smaller, so the smallest
    optimal witness uses only these, and the witness and value stay those
    of the search on all of A.  Mod N, when the units g with gA = A
    (``groundset._unit_dilations``) carry A's first nonzero element a0 to
    every other, the root tries a0 alone: dilating any witness so that it
    holds a0 and then taking the smaller element of each class gives an
    optimal witness that holds a0, and a set holding the least element
    precedes every set without it.  Only states and truncations move.

    Visit order: after the greedy pre-pass, which runs on the same class
    representatives, a node tries its candidates in ascending index order
    and charges one tick of the node weight per tried candidate, before
    that candidate's ``extend``.  A root that tries a0 alone
    (``forced_root``) makes the root's checks and charges one tick for a0.
    A node picks its loop once: on the line at k = 1 the shift-and test of
    the bitset is written out in the loop, and every other state goes
    through ``extend``.  Either loop counts its ticks by the index of the
    next candidate, with no per-candidate charge, and the search writes
    them back to the meter when it returns; once the budget is spent it
    charges the meter, which raises at the tick and with the states where
    ``WorkMeter.tick`` would.
    Bounds, witness, note and states are therefore fixed by the input and
    the budget alone.

    A node is pruned by counting: the (k+1)^t sums of a k-dissociated set
    of size t are distinct, so they must fit in the box the set can reach.
    That box is the group mod N, else k*(sum of magnitudes)+1 values per
    coordinate (magnitudes are max-norms in Z^rank).  ``need[t]`` is the
    least such k*(sum)+1 that holds (k+1)^t sums, and ``reach[m]``, k times
    the sum of the m largest magnitudes of the input, bounds what m more
    candidates add to the box.  A node at depth d survives only if m more
    elements can fit for every m up to best - d + 1, that is if
    ``thr[d]``, the largest need[d + m] - reach[m] over those m, is at
    most its box.  ``thr[d]`` is computed when a node at depth d first
    needs it and dropped whenever ``best`` improves, so a node prunes in
    O(1) time amortized.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    amb = lam.ambient
    elems = [x for x in lam.elements if x != amb.zero]
    n = len(elems)
    if n == 0:
        # no search runs, so a shared meter reports what it holds so far
        spent = budget.states if isinstance(budget, WorkMeter) else 0
        return DimensionBounds("dim_k", k, 0, 0, True, GroundSet.of(amb, ()), None, spent)
    meter = as_meter(budget)
    modulus = amb.modulus if isinstance(amb, Residues) else None
    forced = False  # the root tries elems[0] alone
    if modulus is not None:
        forced = len({g * elems[0] % modulus for g in _unit_dilations(lam)}) == n
    reps = _sign_classes(lam, elems)
    classes = lam if len(reps) == n else GroundSet(amb, tuple(reps))
    elems, n = reps, len(reps)
    weight = _state_weight(amb, elems, k)
    kmag = [k * amb.magnitude(x) for x in elems]
    reach = [0]
    for m in sorted(kmag, reverse=True):
        reach.append(reach[-1] + m)
    rank = amb.rank
    # need[t] for every depth t the search can reach: no box below exceeds
    # top, and every check stops at the first need above its box.  Mod N
    # every box holds N sums, so need[t] is 0 or past every box.
    top = 2 * reach[n] + 1
    kp1 = k + 1
    need = []
    power = 1
    while len(need) <= n:
        if modulus is not None:
            need.append(0 if power <= modulus else top + 1)
        else:
            need.append(_ceil_root(power, rank))
        if need[-1] > top:
            break
        power *= kp1

    greedy = max_dissociated_greedy(classes, k, budget=meter)
    best = len(greedy) - 1
    witness: tuple | None = None
    root_cap = 0
    while root_cap < n and need[root_cap + 1] <= reach[root_cap + 1] + 1:
        root_cap += 1

    thr = [None] * (best + 1)  # thr[d], built when first needed after best last moved
    root, extend, steps = _extender(amb, k, elems)
    shift_and = modulus is None and rank == 1 and k == 1  # extend inlined below
    path = [None] * n
    spare = max(0, (meter.limit - meter.states) // weight)  # ticks that fit

    def dfs(i: int, depth: int, box: int, state, count: int, left: int) -> int:
        """Search below a node with ``left`` ticks to spend; return those not spent.

        box = k*(sum of the chosen magnitudes)+1 and count = (k+1)^depth.
        """
        nonlocal best, witness, thr
        if depth > best:
            best = depth
            witness = tuple(path[:depth])
            thr = [None] * (best + 1)
        stop = n + depth - best  # a candidate at j >= stop cannot beat best
        if i >= stop:
            return left
        bound = thr[depth]
        if bound is None:
            # need[depth + m] - reach[m] for m up to best - depth + 1; the
            # last need is past every box, so the slice may stop there.
            bound = thr[depth] = max(map(sub, need[depth : best + 2], reach))
        if bound > box:
            return left
        dead = i + left  # the candidate at index dead finds no tick left
        end = stop if stop < dead else dead
        child_count = count * kp1
        j = i  # the next candidate; each one tried spends one tick
        if shift_and:
            while j < end:
                shifted = state << steps[j]
                j += 1
                if state & shifted:
                    continue
                path[depth] = elems[j - 1]
                # the child's state replaces shifted, so no second bitset
                # stays alive through the child's subtree
                shifted |= state
                left = dfs(j, depth + 1, box + kmag[j - 1], shifted, child_count, dead - j)
                dead = j + left
                stop = n + depth - best
                end = stop if stop < dead else dead
        else:
            while j < end:
                child = extend(state, steps[j], count)
                j += 1
                if child is None:
                    continue
                path[depth] = elems[j - 1]
                left = dfs(j, depth + 1, box + kmag[j - 1], child, child_count, dead - j)
                dead = j + left
                stop = n + depth - best
                end = stop if stop < dead else dead
        if end < stop:
            # The candidate at index end needs a tick the budget lacks.
            meter.states += spare * weight
            meter.tick(weight)
        return dead - j

    def forced_root(left: int) -> int:
        """The root of ``dfs`` with elems[0] as its only candidate."""
        nonlocal best, witness, thr
        if best < 0:
            best, witness, thr = 0, (), [None]
        if max(map(sub, need[: best + 2], reach)) > 1:
            return left
        if not left:
            meter.states += spare * weight
            meter.tick(weight)
        child = extend(root, steps[0], 1)
        if child is None:
            return left - 1
        path[0] = elems[0]
        return dfs(1, 1, 1 + kmag[0], child, kp1, left - 1)

    truncated = False
    try:
        left = forced_root(spare) if forced else dfs(0, 0, 1, root, 1, spare)
        meter.states += (spare - left) * weight
    except BudgetExceededError:
        truncated = True

    if witness is not None:
        low_set = GroundSet.of(amb, witness)
    else:
        low_set = greedy
    lower = len(low_set)
    if truncated:
        upper = max(lower, min(n, root_cap))
        return DimensionBounds(
            "dim_k", k, lower, upper, lower == upper, low_set, None, meter.states,
            note="search truncated by budget",
        )
    return DimensionBounds("dim_k", k, lower, lower, True, low_set, None, meter.states)


def dim_bounds(lam: GroundSet, k: int = 1, budget: int | None = None) -> DimensionBounds:
    """dim_k_exact that degrades to bounds instead of raising on budget.

    When the budget runs out before the search's greedy pre-pass ends, the
    bounds are [0, n] with an empty witness, where n counts the nonzero
    elements.
    """
    meter = as_meter(budget)
    try:
        return dim_k_exact(lam, k, meter)
    except BudgetExceededError:
        amb = lam.ambient
        n = len([x for x in lam.elements if x != amb.zero])
        return DimensionBounds(
            "dim_k", k, 0, n, False, GroundSet.of(amb, ()), None, meter.states, note="budget"
        )


def _avoiding(n: int, supports, meter) -> list:
    """Indices of the lexicographically first largest subset of range(n)
    that holds no mask of ``supports`` (n-bit index masks).

    The ascending depth-first search of ``dim_k_exact``, so the first
    largest subset found is the lexicographically first.  ``free`` holds
    the candidates above the last one chosen that may still join.  A
    support kills its largest element once the others are chosen, the
    second largest, j, last: ``kills[j]`` maps each rest (the elements
    below j) to the largest elements it kills.  A node stops once its size
    plus its free candidates cannot beat the best, and charges one
    ``meter`` tick per candidate it tries.
    """
    kills: list = [{} for _ in range(n)]
    free = (1 << n) - 1
    for s in supports:
        top = 1 << s.bit_length() - 1
        if s == top:
            free &= ~top
        else:
            j = (s ^ top).bit_length() - 1
            rest = s ^ top ^ 1 << j
            kills[j][rest] = kills[j].get(rest, 0) | top
    best = 0

    def dfs(free: int, chosen: int) -> None:
        nonlocal best
        if chosen.bit_count() > best.bit_count():
            best = chosen
        while chosen.bit_count() + free.bit_count() > best.bit_count():
            low = free & -free
            free ^= low
            meter.tick()
            child = free
            for rest, tops in kills[low.bit_length() - 1].items():
                if not rest & ~chosen:
                    child &= ~tops
            dfs(child, chosen | low)

    dfs(free, 0)
    return _set_bits(best, 0)


# ---------------------------------------------------------------------------
# Spans and covering numbers


def _span_codes(parts: list, modulus: int | None):
    """Every sum of one code from each part, added mod ``modulus`` when it
    is not None.

    ``parts[j]`` lists, ascending, the codes of the multiples -k..k of the
    j-th element of S, so the sums are the codes of Span_k(S); mod N the
    residue 0 comes first.  Returns (state, base): a bitset whose bit i
    stands for the code base + i when base is not None, else a set of codes.

    The box of the sums has sum(max - min) + 1 slots over the parts, and N
    mod N.  While it has at most ``DENSE_RANGE_LIMIT`` slots and at most
    ``SPAN_SLOTS_PER_SUM`` slots per sum of the (2k+1)^|S| enumerated, the
    state is a bitset: each part ORs into the bitset its shifts by the
    part's codes less their minimum, which the base adds, and mod N the bits
    past N fold back.  Otherwise it is a set of codes.
    """
    sums, width = 1, 1
    for part in parts:
        sums *= len(part)
        width += part[-1] - part[0]
    if modulus is not None:
        width = modulus
    if width <= DENSE_RANGE_LIMIT and width <= SPAN_SLOTS_PER_SUM * sums:
        bits, base = 1, 0
        if modulus is None:
            for part in parts:
                low = part[0]
                base += low
                out = bits
                for d in part[1:]:
                    out |= bits << d - low
                bits = out
            return bits, base
        mask = (1 << modulus) - 1
        for part in parts:
            out = bits
            for d in part[1:]:
                out |= bits << d
            bits = (out & mask) | (out >> modulus)
        return bits, 0
    if not parts:
        return {0}, None
    cur = set(parts[0])
    if modulus is None:
        for part in parts[1:]:
            cur = {v + d for d in part for v in cur}
    else:
        for part in parts[1:]:
            cur = {(v + d) % modulus for d in part for v in cur}
    return cur, None


def span_k(s: GroundSet, k: int, size_cap: int | None = None) -> GroundSet:
    """{sum eps_i s_i : |eps_i| <= k}; requires (2k+1)^|S| within the cap.

    The sums are formed once on ``_int_view`` codes by ``_span_codes``,
    which picks a bitset or a set of codes, and decoded once at the end.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    cap = size_cap if size_cap is not None else DEFAULT_SPAN_CAP
    if (2 * k + 1) ** len(s) > cap:
        raise SizeCapExceededError(
            f"span enumeration (2k+1)^|S| = {(2 * k + 1) ** len(s)} exceeds cap {cap}",
            cap=cap,
            stage="span_k",
        )
    amb = s.ambient
    steps = [[amb.scale(c, x) for c in range(-k, k + 1)] for x in s.elements]
    codes, n, decode = _int_view(amb, [(part, "+") for part in steps])
    state, base = _span_codes(list(map(sorted, codes)), n)
    out = sorted(state) if base is None else _set_bits(state, base)
    return GroundSet(amb, _decoded(out, decode))


def _min_size_for_span(count: int, k: int) -> int:
    """Smallest t with (2k+1)^t >= count."""
    t = 0
    cap = 1
    while cap < count:
        cap *= 2 * k + 1
        t += 1
    return t


def _span_test(a: GroundSet, k: int):
    """``covers(cand)``: whether Span_k(cand) holds A, for cand a nonempty
    tuple of A's elements.

    Runs ``_span_codes`` on int codes of A's elements and of their multiples
    -k..k, built once: the elements themselves on the line, residues mod N,
    and on Z^r Kronecker codes sum_i v_i * W_i whose weights come from the
    box -k*sum|x_i| .. k*sum|x_i| over A, which holds every span.  A span
    in a bitset is tested with one shift and one AND against the bitset of
    A's codes, unless they leave its range.  A cand that ``span_k`` refuses, because (2k+1)^|cand|
    exceeds ``DEFAULT_SPAN_CAP`` or because k*sum|x_i| over cand leaves
    int64 in some coordinate, goes through ``span_k`` itself and raises its
    error.
    """
    amb = a.ambient
    elems = a.elements
    modulus = amb.modulus if isinstance(amb, Residues) else None

    def extent(xs) -> int:
        """The largest k*sum|x_i| over the coordinates."""
        return k * max(sum(map(abs, col)) for col in ([xs] if amb.rank == 1 else zip(*xs)))

    if amb.rank == 1:
        codes = elems
    else:
        weights = _mixed_radix([2 * k * sum(map(abs, col)) for col in zip(*elems)])
        codes = [sum(map(mul, x, weights)) for x in elems]
    coeffs = range(-k, k + 1)
    if modulus is None:
        mults = {x: sorted(c * v for c in coeffs) for x, v in zip(elems, codes)}
    else:
        mults = {x: sorted(c * v % modulus for c in coeffs) for x, v in zip(elems, codes)}
    target = set(codes)
    low, high = min(target), max(target)
    target_bits = None  # built at the first bitset span that A's codes fit
    risky = modulus is None and extent(elems) > INT64_MAX

    def covers(cand: tuple) -> bool:
        nonlocal target_bits
        if (2 * k + 1) ** len(cand) > DEFAULT_SPAN_CAP or (risky and extent(cand) > INT64_MAX):
            return set(elems) <= set(span_k(GroundSet(amb, cand), k).elements)
        state, base = _span_codes([mults[x] for x in cand], modulus)
        if base is None:
            return target <= state
        if low < base or high - base >= state.bit_length():
            return False
        if target_bits is None:
            target_bits = sum(1 << v - low for v in target)
        return (state >> low - base) & target_bits == target_bits

    return covers


def d_k_exact(a: GroundSet, k: int = 1, budget: int | None = None) -> DimensionBounds:
    """min |S| over S subset of A with A inside Span_k(S), by size-ordered search.

    Candidates are tried by size, then in ``itertools.combinations`` order;
    each costs (2k+1)^|S| ticks, charged before it is tested on the int
    codes of ``_span_test``.  The search raises ``SizeCapExceededError`` or
    ``CoordinateOverflowError`` at the first candidate ``span_k`` would
    raise on; the greedy upper witness is checked the same way, except that
    a witness past the span cap is replaced by A.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    amb = a.ambient
    elems = a.elements
    need = set(elems)
    empty = GroundSet.of(amb, ())
    if not need or need == {amb.zero}:
        spent = budget.states if isinstance(budget, WorkMeter) else 0
        return DimensionBounds("d_k", k, 0, 0, True, None, empty, spent)
    meter = as_meter(budget)

    # A maximal 1-dissociated subset spans A with coefficients in [-1, 1],
    # so it is a valid upper witness for every k >= 1.
    fallback = max_dissociated_greedy(a, 1, budget=meter)
    covers = _span_test(a, k)
    try:
        if not covers(fallback.elements):
            fallback = a
    except SizeCapExceededError:
        fallback = a

    t_lo = _min_size_for_span(len(need), k)
    t = t_lo
    try:
        while t <= len(elems):
            per_candidate = (2 * k + 1) ** t
            for cand in itertools.combinations(elems, t):
                meter.tick(per_candidate)
                if covers(cand):
                    return DimensionBounds(
                        "d_k", k, t, t, True, None, GroundSet(amb, cand), meter.states
                    )
            t += 1
    except BudgetExceededError:
        return DimensionBounds(
            "d_k", k, t, len(fallback), False, None, fallback, meter.states,
            note="search truncated by budget",
        )
    # Unreachable in principle: S = A always spans A for k >= 1.
    return DimensionBounds("d_k", k, len(elems), len(elems), True, None, a, meter.states)


def d_star_lower(a: GroundSet, lam: GroundSet) -> int:
    """Counting lower bound for the unrestricted covering number d*_1(A).

    Any S with A inside Span_1(S) has 3^|S| >= |A|.  If ``lam`` is a
    1-dissociated subset of A of size d, its 2^d subset sums are distinct
    and lie in Span_d(S), so also 2^d <= (2d + 1)^|S|.  Returns the larger
    of the two smallest such |S| (0 for A = {0}).
    """
    d = len(lam)
    return max(_min_size_for_span(len(a), 1), _min_size_for_span(2**d, d))


# ---------------------------------------------------------------------------
# Combinatorial cubes


def cube(lam: GroundSet) -> tuple[GroundSet, bool]:
    """Subset-sum cube Sigma(L) = Sigma_|L|(L) and whether it is proper (|Q| = 2^|L|)."""
    if len(lam) > MAX_CUBE_GENERATORS:
        raise PreconditionError(f"cube limited to {MAX_CUBE_GENERATORS} generators")
    q = sigma_k(lam, len(lam))
    return q, len(q) == 1 << len(lam)
