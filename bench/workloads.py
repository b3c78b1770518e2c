"""Seeded inputs of the four benchmark workloads.

``core``, ``wide`` and ``dense`` are claim suites: a claim list, an
instance list and a budget, run through ``adlab.harness.run_suite`` so
that one operation is one ``evaluate_claim`` call.  ``ops`` is a list of
direct library calls, one operation each; they look their functions up
on the ``adlab`` package at call time, so that the tracer sees them.  The
seed only chooses inputs; the program sees nothing but the generated sets.

Where a workload takes random sets, every draw keeps the shape of the
input (sizes, ranges, moduli) fixed and lets the seed choose the
elements, so that two seeds cost about the same and run-to-run spread
measures the program rather than the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import adlab
from adlab import integers, residues, subgroup
from adlab.harness import CORE_BUDGET, CORE_INSTANCES, spec

# Criterion 4 of the acceptance tests: the unconditional hard inequalities
# and the budget its sweep runs them at.
SWEEP_CLAIMS = (
    "pluennecke_doubling",
    "hoelder_energy_chain",
    "growth_monotone",
    "dim_chain",
    "dim_counting_lower",
    "dirichlet_dim_lower",
    "energy_dim_lower",
)
SWEEP_BUDGET = 200_000
SWEEP_PRIMES = (7, 13, 31, 61)

# wide: one set per size in criterion 4's size range.  Drawing the size
# too, as criterion 4 does, makes a 21-set pass cost anywhere from half
# to twice its mean depending on the seed.
WIDE_SIZES = tuple(range(4, 25))
WIDE_RANGE_MAX = 10**6 - 1

DENSE_N = 10

# Twelve groups of 25 calls.  Sorted by latency, a group's calls fall into
# blocks of like calls; 12 of them are cheaper than t_k(line, 4), so the
# median of a pass falls in the middle of the twelve t_k(line, 4) calls
# and the p95 among the twelve t_k(mult, 4) calls, not on the edge
# between two kinds of call, where it would jump with the draw.
OPS_GROUPS = 12
OPS_SUBGROUP_ORDER = 12
OPS_PRIME_WINDOW = (900, 1200)


@dataclass(frozen=True)
class Suite:
    """Arguments of one ``run_suite`` pass."""

    claims: Optional[tuple]
    instances: tuple
    budget: int


@dataclass(frozen=True)
class Op:
    """One direct library call.

    ``check(result, earlier)`` returns an error message or None; ``earlier``
    maps the names of ops already run in this pass to their results.
    """

    name: str
    call: Callable[[], object]
    check: Optional[Callable[[object, dict], Optional[str]]] = None


def core_suite(seed: int) -> Suite:
    """Exactly ``adlab verify --suite core``; the seed does not apply."""
    return Suite(None, CORE_INSTANCES, CORE_BUDGET)


def wide_suite(seed: int) -> Suite:
    instances = tuple(
        spec("random_sample", seed=seed * 1000 + i, n_max=WIDE_RANGE_MAX, size=size)
        for i, size in enumerate(WIDE_SIZES)
    )
    return Suite(SWEEP_CLAIMS, instances, SWEEP_BUDGET)


def dense_suite(seed: int) -> Suite:
    """Criterion 4's exhaustive part; fixed, so the seed does not apply."""
    subsets = tuple(
        (f"subset(mask={mask})", integers(i + 1 for i in range(DENSE_N) if mask >> i & 1))
        for mask in range(1, 1 << DENSE_N)
    )
    subgroups = tuple(
        spec("subgroup", p=p, t=t) for p in SWEEP_PRIMES for t in range(1, p) if (p - 1) % t == 0
    )
    return Suite(SWEEP_CLAIMS, subsets + subgroups, SWEEP_BUDGET)


SUITES = {"core": core_suite, "wide": wide_suite, "dense": dense_suite}


def _mult_set(rng: random.Random, size: int):
    """Distinct products 2^a 3^b 5^c 7^d 11^e 13^f: rank >= 2 under mult_embed."""
    caps = ((2, 3), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1))
    out: set = set()
    while len(out) < size:
        x = 1
        for p, e in caps:
            x *= p ** rng.randint(0, e)
        out.add(x)
    return integers(out)


def _same_value(other: str):
    def check(result, earlier):
        want = earlier[other].value
        if result.value != want:
            return f"{result.value} != {other} = {want}"
        return None

    return check


def _nondecreasing(curve, earlier):
    sizes = list(curve.sizes)
    if sizes != sorted(sizes):
        return f"|nA| decreases: {sizes}"
    return None


def _sumset_bounds(a):
    n = len(a)
    lo, hi = 2 * min(a.elements), 2 * max(a.elements)

    def check(result, earlier):
        if not 2 * n - 1 <= len(result) <= n * (n + 1) // 2:
            return f"|A+A| = {len(result)} outside [2|A|-1, |A|(|A|+1)/2] for |A| = {n}"
        if not all(lo <= x <= hi for x in result.elements):
            return "A+A leaves [2 min A, 2 max A]"
        return None

    return check


def _dirichlet_exact(members):
    elems = sorted(members.elements)

    def at(q: int, n: int, s: int) -> Fraction:
        return sum(
            (Fraction(min(q * x % n, n - q * x % n), n) ** s for x in elems), Fraction(0)
        )

    def check(value, earlier):
        if not value.exact or not isinstance(value.value, Fraction):
            return "integer s gave an inexact value"
        n, s, q = value.modulus, value.s, value.argmin_q
        if at(q, n, s) != value.value:
            return f"value at argmin q={q} is not {value.value}"
        if any(at(r, n, s) < value.value for r in (1, 2, n - 1)):
            return "a spot-checked q beats the reported minimum"
        return None

    return check


def _group_ops(tag: str, rng: random.Random, primes: list) -> list:
    line = integers(rng.sample(range(1, 161), 40))
    wide = integers(rng.sample(range(1, 10**6), 20))
    cyclic = residues(rng.sample(range(1009), 60), 1009)
    mult = _mult_set(rng, 16)
    p = rng.choice(primes)
    gamma = subgroup(p, OPS_SUBGROUP_ORDER).members
    small = integers(rng.sample(range(1, 61), 14))
    box = integers(rng.sample(range(1, 61), 12))
    ops = []
    for kind, a, op in (("line", line, "+"), ("wide", wide, "+"),
                        ("cyclic", cyclic, "+"), ("mult", mult, "*")):
        for k in (2, 3, 4):
            ops.append(Op(f"{tag}.t_k.{kind}.{k}", lambda a=a, k=k, op=op: adlab.t_k(a, k, op=op)))
        if op == "+":
            ops.append(Op(
                f"{tag}.additive_energy.{kind}",
                lambda a=a: adlab.additive_energy(a, a),
                _same_value(f"{tag}.t_k.{kind}.2"),
            ))
    return ops + [
        Op(f"{tag}.sumset.line", lambda: adlab.sumset(line, line), _sumset_bounds(line)),
        Op(f"{tag}.mult_embed", lambda: adlab.mult_embed(mult)),
        Op(f"{tag}.growth_sequence.line", lambda: adlab.growth_sequence(line, 5), _nondecreasing),
        Op(f"{tag}.growth_sequence.wide", lambda: adlab.growth_sequence(wide, 4), _nondecreasing),
        Op(f"{tag}.growth_sequence.cyclic", lambda: adlab.growth_sequence(cyclic, 4), _nondecreasing),
        Op(f"{tag}.dirichlet_min", lambda: adlab.dirichlet_min(gamma, s=2), _dirichlet_exact(gamma)),
        Op(f"{tag}.subgroup_growth_experiment",
           lambda: adlab.subgroup_growth_experiment(p, OPS_SUBGROUP_ORDER)),
        Op(f"{tag}.dec_tk", lambda: adlab.dec_tk(mult, s=2)),
        Op(f"{tag}.ratio_box", lambda: adlab.ratio_box(box)),
        Op(f"{tag}.sidon_extract", lambda: adlab.sidon_extract(small)),
    ]


def ops_calls(seed: int) -> list:
    """Direct library calls, as a CLI or quick-start user makes them.

    Each group draws one set per ``_convolve`` path (dense line, wide dict,
    dense cyclic, rank >= 2 through ``mult_embed``) and runs the energy,
    growth, modular and decomposition entry points on them.
    """
    lo, hi = OPS_PRIME_WINDOW
    primes = [
        p for p in range(lo, hi)
        if (p - 1) % OPS_SUBGROUP_ORDER == 0 and all(p % d for d in range(2, int(p**0.5) + 1))
    ]
    ops: list = []
    for g in range(OPS_GROUPS):
        ops += _group_ops(f"g{g}", random.Random(seed * 1000 + g), primes)
    return ops
