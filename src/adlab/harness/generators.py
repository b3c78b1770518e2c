"""Deterministic instance generators for the verification suite.

An InstanceSpec is a pure description (generator name, parameters, seed);
realizing it twice yields bit-identical ground sets, so reports can refer
to instances by spec alone.  The family covers the structures the claim
registry cares about: intervals, arithmetic and geometric progressions,
unions and direct sums of progressions, subset-sum cubes, products of
prime powers, multiplicative subgroups, prime initial segments, and
seeded random samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..dissociation import cube as _cube
from ..errors import PreconditionError, VerificationFailedError
from ..groundset import GroundSet, integers, sumset
from ..modular import subgroup as _subgroup

ES_SIZE_CAP = 4096


def _as_param(value):
    """Normalize a parameter value into a hashable, JSON-friendly form."""
    if isinstance(value, bool) or value is None:
        raise PreconditionError(f"unsupported parameter value {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_as_param(v) for v in value)
    raise PreconditionError(f"unsupported parameter value {value!r}")


@dataclass(frozen=True)
class InstanceSpec:
    """Self-contained recipe for one test instance."""

    generator: str
    params: tuple  # sorted ((name, value), ...) pairs
    seed: int = 0

    @classmethod
    def make(cls, generator: str, seed: int = 0, **params) -> "InstanceSpec":
        normalized = tuple(sorted((k, _as_param(v)) for k, v in params.items()))
        return cls(generator=generator, params=normalized, seed=seed)

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    @property
    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        tail = f"; seed={self.seed}" if self.seed else ""
        return f"{self.generator}({inner}{tail})"

    def to_json(self) -> dict:
        return {
            "generator": self.generator,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in self.params},
            "seed": self.seed,
            "label": self.label,
        }


def _gen_interval(seed: int, n: int) -> GroundSet:
    if n < 1:
        raise PreconditionError("interval length must be >= 1")
    return integers(range(1, n + 1))


def _gen_ap(seed: int, start: int, step: int, length: int) -> GroundSet:
    if length < 1:
        raise PreconditionError("progression length must be >= 1")
    if step == 0:
        raise PreconditionError("progression step must be nonzero")
    return integers(start + i * step for i in range(length))


def _gen_gp(seed: int, base: int, length: int) -> GroundSet:
    if length < 1:
        raise PreconditionError("progression length must be >= 1")
    if base < 2:
        raise PreconditionError("geometric base must be >= 2")
    # 64-bit overflow surfaces as CoordinateOverflowError from the ambient.
    return integers(base**i for i in range(length))


def _gen_ap_union(seed: int, aps: tuple) -> GroundSet:
    if not aps:
        raise PreconditionError("need at least one progression")
    out: GroundSet | None = None
    for triple in aps:
        if len(triple) != 3:
            raise PreconditionError("each progression is (start, step, length)")
        part = _gen_ap(seed, *triple)
        out = part if out is None else out.union(part)
    return out


def _gen_ap_sumset(seed: int, aps: tuple) -> GroundSet:
    """Direct sum H_1 + ... + H_K of arithmetic progressions."""
    if not aps:
        raise PreconditionError("need at least one progression")
    parts = []
    for triple in aps:
        if len(triple) != 3:
            raise PreconditionError("each progression is (start, step, length)")
        parts.append(_gen_ap(seed, *triple))
    out = parts[0]
    for part in parts[1:]:
        out = sumset(out, part)
    return out


def _gen_cube(seed: int, gens: tuple) -> GroundSet:
    if not gens:
        raise PreconditionError("cube needs at least one generator")
    q, _proper = _cube(integers(gens))
    return q


def _gen_es_product(seed: int, s: int, h: int) -> GroundSet:
    """{p_1^{l_1} * ... * p_s^{l_s} : l_i in [h]} over the first s primes."""
    if s < 1 or h < 1:
        raise PreconditionError("need s >= 1 and h >= 1")
    if h**s > ES_SIZE_CAP:
        raise PreconditionError(f"h^s = {h ** s} exceeds the {ES_SIZE_CAP} instance cap")
    import sympy

    primes = [sympy.prime(i + 1) for i in range(s)]
    values = [1]
    for p in primes:
        values = [v * p**e for v in values for e in range(1, h + 1)]
    # Unique factorization keeps all h^s products distinct; the ambient
    # validation raises on 64-bit overflow.
    out = integers(values)
    if len(out) != h**s:
        raise VerificationFailedError(f"{len(out)} distinct products, expected h^s = {h**s}")
    return out


def _gen_subgroup(seed: int, p: int, t: int) -> GroundSet:
    return _subgroup(p, t).members


def _gen_primes(seed: int, count: int) -> GroundSet:
    if count < 1:
        raise PreconditionError("need count >= 1")
    import sympy

    return integers(sympy.prime(i + 1) for i in range(count))


def _gen_random_sample(seed: int, n_max: int, size: int) -> GroundSet:
    if not 1 <= size <= n_max:
        raise PreconditionError("need 1 <= size <= n_max")
    rng = random.Random(seed)
    return integers(rng.sample(range(1, n_max + 1), size))


GENERATORS = {
    "interval": (_gen_interval, ("n",)),
    "ap": (_gen_ap, ("start", "step", "length")),
    "gp": (_gen_gp, ("base", "length")),
    "ap_union": (_gen_ap_union, ("aps",)),
    "ap_sumset": (_gen_ap_sumset, ("aps",)),
    "cube": (_gen_cube, ("gens",)),
    "es_product": (_gen_es_product, ("s", "h")),
    "subgroup": (_gen_subgroup, ("p", "t")),
    "primes": (_gen_primes, ("count",)),
    "random_sample": (_gen_random_sample, ("n_max", "size")),
}


def generate(spec: InstanceSpec) -> GroundSet:
    """Realize a spec; identical specs produce identical ground sets."""
    if spec.generator not in GENERATORS:
        raise PreconditionError(
            f"unknown generator {spec.generator!r}; known: {', '.join(sorted(GENERATORS))}"
        )
    fn, required = GENERATORS[spec.generator]
    params = spec.params_dict
    missing = [k for k in required if k not in params]
    unexpected = [k for k in params if k not in required]
    if missing or unexpected:
        raise PreconditionError(
            f"generator {spec.generator!r}: missing {missing or 'none'}, "
            f"unexpected {unexpected or 'none'}"
        )
    return fn(spec.seed, **params)


def spec(generator: str, seed: int = 0, **params) -> InstanceSpec:
    """Shorthand constructor used throughout the suite definitions."""
    return InstanceSpec.make(generator, seed=seed, **params)
