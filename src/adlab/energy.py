"""Higher additive energies T_k and relative dimension dim_{alpha,k}.

T_k(A) counts 2k-tuples with equal k-fold sums; it equals the sum of squared
k-fold representation counts.  Multiplicative energies are computed through
the prime-exponent embedding, which is an exact isomorphism onto vector
addition.  All values are unbounded Python integers.

dim_{alpha,k}(A), the least dim(B) over B subset of A with T_k(B) >= alpha *
T_k(A), is exact up to ``EXACT_ALPHA_THRESHOLD`` elements.  A depth-first
search over index-increasing subsets carries each subset's representation
functions, adding one element per step, and stops at the first subset that
qualifies.  It also carries the functions of B together with every later
element, removing one element per step, and returns from a node once even
that superset falls short of the threshold.  ``dim_k_exact`` then searches
the minimal qualifying subsets in (size, elements) order, skipping a subset
that holds a dissociated set already found of the best size or more.  One
meter state is one representation entry read by an add or remove step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .budget import as_meter
from .dissociation import (
    DimensionBounds,
    dim_bounds,
    dim_k_exact,
    is_k_dissociated,
    max_dissociated_greedy,
)
from .errors import PreconditionError
from .groundset import GroundSet, _int_view, mult_embed, rep_fn

# dim_alpha_k searches the minimal qualifying subsets exactly up to this
# size, and probes energy-heavy subsets beyond it.
EXACT_ALPHA_THRESHOLD = 16


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
    if len(a) == 0:
        return 0
    if k == 1:
        return len(a)
    r = rep_fn([(a, "+")] * k, size_cap=size_cap)
    return r.square_sum()


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
    subtree whose superset B + (later elements) misses the threshold (see
    ``_qualifying_subsets``).  Candidates are then taken in (size, sorted
    elements) order and searched with ``dim_k_exact`` unless dim(B) >=
    ceil(log_3 |B|), or a dissociated set of the best size or more that an
    earlier greedy or exact search returned lies inside B, or a greedy
    dissociated subset of B shows that B cannot beat the best so far.  A
    candidate replaces the best only with a strictly smaller dimension, and
    a subset precedes its supersets in that order, so the witness is the
    first minimal qualifying subset whose dimension is the minimum.

    The meter counts one state per representation-function entry an add
    or remove step of the energy search reads, building A's functions
    included, then the states of the greedy and exact dimension
    searches.  Beyond the threshold a sound upper bound is produced by
    probing energy-heavy subsets obtained from block peeling, with the
    threshold inequality re-checked exactly.
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
    search reaches it.  Each node carries r_j, the j-fold representation
    function of B, for j = 0..k, and T_k(B) = sum r_k(x)^2; adding y gives
    r_j(B + y) = sum_i C(j, i) * r_{j-i}(B) shifted by i*y (see ``step``).

    A node also carries the functions and T_k of U = B + elems[idx:], the
    largest set any child from index idx on, or any of its descendants,
    can reach.  Once T_k(U) * den < need none of them qualifies, and the
    node returns.  After each child, y = elems[idx] leaves U by the remove
    step, and the child starts from the parent's U at its own index.

    The walk adds ``_int_view`` codes, so int64 is checked once, on the
    k-fold extremes; on Z^r the codes are Kronecker codes.  The meter is
    ticked once per representation entry a step reads, before the step,
    and building A's functions at the root is charged the same way.
    """
    elems = a.elements
    n = len(elems)
    part_codes, modulus, _decode = _int_view(a.ambient, [(elems, "+")] * k)
    binom = [[math.comb(j, i) for i in range(j + 1)] for j in range(k + 1)]
    shifts = []
    for y in part_codes[0]:  # the k parts are identical, and so are their codes
        row = [i * y for i in range(k + 1)]
        shifts.append(row if modulus is None else [d % modulus for d in row])
    found: list = []
    chosen: list = []

    def step(reps: list, energy: int, shift: list, sign: int) -> tuple:
        """The functions and T_k of X + y (sign 1) or X - y (sign -1).

        Adding reads X's functions: r_j(X + y) = r_j(X) + sum_{i>=1}
        C(j, i) * r_{j-i}(X) shifted by i*y.  Removing reads the ones it
        has already formed, for ascending j: r_j(X - y) = r_j(X) - sum_{i>=1}
        C(j, i) * r_{j-i}(X - y) shifted by i*y.  An entry going from v to
        v + w changes T_k by w * (2v + w), and one that reaches 0 is dropped.
        """
        out = [reps[0]]
        src = reps if sign > 0 else out
        for j in range(1, k + 1):
            meter.tick(len(reps[j]) + sum(map(len, src[:j])))
            cur = dict(reps[j])
            get = cur.get
            for i in range(1, j + 1):
                c = sign * binom[j][i]
                rep = src[j - i]
                zs = map(shift[i].__add__, rep)
                if modulus is not None:
                    zs = map(modulus.__rmod__, zs)
                for z, v in zip(zs, rep.values()):
                    old = get(z, 0)
                    w = c * v
                    new = old + w
                    if new:
                        cur[z] = new
                    else:
                        del cur[z]
                    if j == k:
                        energy += w * (old + new)
            out.append(cur)
        return out, energy

    def walk(start: int, reps: list, energy: int, u_reps: list, u_energy: int) -> None:
        for idx in range(start, n):
            if u_energy * den < need:
                return
            shift = shifts[idx]
            child, child_energy = step(reps, energy, shift, 1)
            chosen.append(elems[idx])
            if child_energy * den >= need:
                found.append(tuple(chosen))
            else:
                walk(idx + 1, child, child_energy, u_reps, u_energy)
            chosen.pop()
            if idx + 1 < n:
                u_reps, u_energy = step(u_reps, u_energy, shift, -1)

    empty = [{0: 1}] + [{} for _ in range(k)]
    whole, whole_energy = empty, 0
    for shift in shifts:
        whole, whole_energy = step(whole, whole_energy, shift, 1)
    walk(0, empty, 0, whole, whole_energy)
    return found


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
