"""Prime-field multiplicative subgroups and modular diagnostics.

Tools here live mod a prime p: materializing the multiplicative subgroup of
a given order, the Dirichlet minimum min_q sum_a ||qa/N||^s, dense Fourier
peaks, and a growth experiment that measures how fast additive iterates of
a subgroup expand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._ntheory import factorint, is_prime, primitive_root, totient
from .budget import as_meter
from .dissociation import dim_bounds
from .energy import dim_alpha_k, t_k
from .errors import PreconditionError, SizeCapExceededError, VerificationFailedError
from .groundset import GroundSet, IntegerLattice, Residues, _unit_dilations, product_set
from .growth import growth_sequence
from .records import ClaimRecord, ExperimentReport, canonical

DIRICHLET_SCAN_CAP = 1 << 20
FOURIER_SIZE_CAP = 1 << 22

# dirichlet_min scans q in blocks of at most this many (q, element) table
# reads, or one q per block when |A| is larger.
DIRICHLET_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class SubgroupSpec:
    """A multiplicative subgroup of F_p* of order t, with its elements."""

    p: int
    t: int
    generator: int
    members: GroundSet

    def __post_init__(self):
        g, t, p = self.generator, self.t, self.p
        if pow(g, t, p) != 1 or any(pow(g, t // q, p) == 1 for q in factorint(t)):
            raise VerificationFailedError(f"{g} does not have order {t} mod {p}")
        if len(self.members) != t:
            raise VerificationFailedError(f"subgroup of order {t} has {len(self.members)} members")


def subgroup(p: int, t: int) -> SubgroupSpec:
    """The unique multiplicative subgroup of F_p* of order t.

    Requires p prime (at most 2^31) and t | p-1.  The generator is a power
    of the smallest primitive root mod p, so the result is deterministic.
    """
    if p > 2**31 or not is_prime(p):
        raise PreconditionError(f"p={p} must be a prime at most 2^31")
    if t < 1 or (p - 1) % t != 0:
        raise PreconditionError(f"t={t} must divide p-1={p - 1}")
    g = primitive_root(p)
    gen = pow(g, (p - 1) // t, p)
    elems = set()
    x = 1
    for _ in range(t):
        elems.add(x)
        x = x * gen % p
    members = GroundSet.of(Residues(p), elems)
    return SubgroupSpec(p=p, t=t, generator=gen, members=members)


@dataclass(frozen=True)
class DirichletValue:
    """min_q sum_{a in A} ||q a / N||^s together with the first minimizing q.

    s is a positive integer and value is the exact Fraction
    sum_a (N ||q a / N||)^s / N^s; exact is always True.
    """

    value: Fraction
    argmin_q: int
    s: int
    modulus: int
    exact: bool = True


def _dirichlet_elems(a: GroundSet, modulus: Optional[int]) -> tuple[list[int], int]:
    amb = a.ambient
    if isinstance(amb, Residues):
        if modulus is not None and modulus != amb.modulus:
            raise PreconditionError("modulus argument conflicts with the ambient modulus")
        return sorted(a.elements), amb.modulus
    if isinstance(amb, IntegerLattice) and amb.rank == 1:
        if modulus is None:
            raise PreconditionError("integer sets need an explicit modulus N")
        if modulus < 2:
            raise PreconditionError("modulus must be at least 2")
        return sorted(a.elements), modulus
    raise PreconditionError("Dirichlet minimum needs residues mod N or rank-1 integers")


def _dirichlet_table(n: int, s: int) -> list:
    """(N ||r/N||)^s = min(r, N - r)^s for r in [0, N): the powers of
    0..N/2 and, mirrored, those of (N-1)/2 down to 1."""
    table = [r**s for r in range(n // 2 + 1)]
    table += table[(n - 1) // 2 : 0 : -1]
    return table


def dirichlet_min(a: GroundSet, s: int = 2, modulus: Optional[int] = None) -> DirichletValue:
    """Minimize sum_{a in A} ||q a / N||^s over q in [1, N-1], exactly.

    ||x|| is the distance from x to the nearest integer, and s must be a
    positive integer.  Each q is scanned against a table of
    (N ||r/N||)^s for the N residues r, so the value is an exact Fraction
    and argmin_q is the first q that reaches it.  The table is symmetric
    in r and N - r, so ``_dirichlet_table`` computes half of it and
    appends that half's mirror image.  The sum at q is the sum
    at gq for every g in +-H, H the units with gA = A
    (``groundset._unit_dilations``; H = {1} on integer sets), so the scan
    takes one q per orbit of +-H on [1, N-1], its smallest member, which
    is at most N/2.  The first minimizer is the smallest member of its
    orbit, as an orbit-mate below it would reach the minimum first, so
    argmin_q is that of the full scan.  The totals of a block of q are
    formed together, at most ``DIRICHLET_BLOCK_CELLS`` table reads a
    block, and a block's first least total is kept only if it beats every
    earlier block.  It is refused with SizeCapExceededError for N > 2^20
    (``DIRICHLET_SCAN_CAP``).
    """
    if not isinstance(s, int) or s < 1:
        raise PreconditionError("exponent s must be a positive integer")
    if not a.elements:
        raise PreconditionError("Dirichlet minimum of the empty set is undefined")
    elems, n = _dirichlet_elems(a, modulus)
    if n > DIRICHLET_SCAN_CAP:
        raise SizeCapExceededError(
            f"full q-scan over N={n} exceeds the cap",
            cap=DIRICHLET_SCAN_CAP,
            stage="dirichlet-scan",
        )
    table = _dirichlet_table(n, s)
    qs = range(1, n // 2 + 1)
    dilations = _unit_dilations(a)
    if len(dilations) > 1:
        # Ascending, each q not yet in an orbit starts one and marks it.
        moves = {*dilations, *(n - g for g in dilations)}
        seen = bytearray(n)
        qs = []
        q = 1
        while 0 < q <= n // 2:
            qs.append(q)
            for g in moves:
                seen[g * q % n] = 1
            q = seen.find(0, q + 1)
    best_num = best_q = None
    step = max(1, DIRICHLET_BLOCK_CELLS // len(elems))
    for lo in range(0, len(qs), step):
        block = qs[lo : lo + step]
        # One column of table values over the block's q per element.
        columns = [[table[q * x % n] for q in block] for x in elems]
        totals = list(map(sum, zip(*columns)))
        least = min(totals)
        if best_num is None or least < best_num:
            best_num, best_q = least, block[totals.index(least)]
    return DirichletValue(value=Fraction(best_num, n**s), argmin_q=best_q, s=s, modulus=n)


def verify_dirichlet_dim(
    a: GroundSet,
    s: int = 2,
    modulus: Optional[int] = None,
    k: int = 1,
    budget: Optional[int] = None,
) -> ExperimentReport:
    """Check the unconditional dimension bound d >= s*log(N-1)/log(dT).

    s is a positive integer.  T = |A| / V is an exact Fraction, V the
    Dirichlet minimum from ``dirichlet_min`` (so N > 2^20 is refused), and
    d is a certified lower bound for dim(A); substituting the lower bound
    is sound because the right side decreases in d.  The plain form has no
    hidden constant and is checked as a hard record.  The variant for sets
    with small product set, d >> s*log(N-1)/log(d k^2 D^3 T log(DT)) with
    D = |AA|/|A|, has an unspecified constant and is only recorded as fitted.
    """
    dv = dirichlet_min(a, s, modulus=modulus)
    n = dv.modulus
    records: list[ClaimRecord] = []
    measured: dict = {"dirichlet": dv, "modulus": n}
    meter = as_meter(budget)
    db = dim_bounds(a, 1, budget=meter)
    d = db.lower
    measured["dim_lower"] = d
    measured["dim_exact"] = db.exact

    if dv.value == 0 or d == 0:
        records.append(
            ClaimRecord(
                claim="dirichlet_dim_lower",
                klass="hard",
                instance=a.describe(),
                measured=measured,
                note="degenerate instance (zero Dirichlet value or zero dimension); bound vacuous",
            )
        )
    else:
        t_cap = len(a) / dv.value
        t_f = float(t_cap)
        measured["T"] = t_cap
        if d * t_f > 1.0:
            rhs = s * math.log(n - 1) / math.log(d * t_f)
            ok = d >= rhs - 1e-12
            records.append(
                ClaimRecord(
                    claim="dirichlet_dim_lower",
                    klass="hard",
                    instance=a.describe(),
                    measured={"d": d, "rhs": rhs, "slack": d - rhs},
                    violated=not ok,
                )
            )
        # Small-product-set variant, constant not pinned down: fitted only.
        if isinstance(a.ambient, Residues) and 0 not in a._index:
            aa = product_set(a, a)
            bigd = Fraction(len(aa), len(a))
            dbk = dim_bounds(a, k, budget=meter) if k != 1 else db
            dk = dbk.lower
            inner = dk * k * k * float(bigd) ** 3 * t_f * max(math.log(float(bigd) * t_f), 1e-9)
            if dk >= 1 and inner > 1 and n >= 3:
                fitted = dk * math.log(inner) / (s * math.log(n - 1))
                records.append(
                    ClaimRecord(
                        claim="dirichlet_dim_lower_product",
                        klass="fitted",
                        instance=a.describe(),
                        measured={"d_k": dk, "k": k, "doubling": bigd},
                        fitted_constant=fitted,
                    )
                )
    return ExperimentReport(
        name="dirichlet_dim",
        instance=a.describe(),
        params={"s": s, "k": k, "modulus": n},
        measured=measured,
        records=records,
    )


@dataclass(frozen=True)
class FourierPeak:
    """Largest nontrivial Fourier coefficient of the indicator of A mod N."""

    modulus: int
    size: int
    max_abs: float
    argmax: int


def fourier_spectrum(a: GroundSet):
    """|hat A(r)| for r = 0..N-1, as a numpy array, via a dense FFT."""
    import numpy as np

    amb = a.ambient
    if not isinstance(amb, Residues):
        raise PreconditionError("Fourier diagnostics need a residue ambient")
    n = amb.modulus
    if n > FOURIER_SIZE_CAP:
        raise SizeCapExceededError(
            f"modulus {n} too large for a dense transform", cap=FOURIER_SIZE_CAP, stage="fourier"
        )
    ind = np.zeros(n, dtype=np.float64)
    for x in a.elements:
        ind[x] = 1.0
    return np.abs(np.fft.fft(ind))


def fourier_max(a: GroundSet) -> FourierPeak:
    """max over r != 0 of |sum_{a in A} e(ar/N)|, with the smallest argmax.

    The full set has peak 0 (all nontrivial coefficients vanish); an
    interval peaks at r = 1.
    """
    mags = fourier_spectrum(a)
    n = len(mags)
    if n == 1:
        raise PreconditionError("modulus 1 has no nonzero frequency")
    rest = mags[1:]
    idx = int(rest.argmax()) + 1
    return FourierPeak(modulus=n, size=len(a), max_abs=float(rest[idx - 1]), argmax=idx)


# Hermite constants gamma_1..gamma_8 are known exactly; beyond that a
# Minkowski-type linear bound is used as a stand-in (comparison is logged,
# never asserted).
_HERMITE = [
    1.0,
    (4 / 3) ** 0.5,
    2 ** (1 / 3),
    2**0.5,
    8 ** (1 / 5),
    (64 / 3) ** (1 / 6),
    64 ** (1 / 7),
    2.0,
]


def _hermite(n: int) -> float:
    if n < 1:
        return 1.0
    if n <= 8:
        return _HERMITE[n - 1]
    return 1.0 + n / 5.0


def _dirichlet_lattice_prediction(p: int, t: int, phi_t: int) -> tuple[float, int]:
    """Lattice-based lower bound for p^2 * D_{2,p}(Gamma), maximized over
    the admissible lattice rank r <= phi(t) = phi_t."""
    best = 0.0
    best_r = 2
    r_cap = max(2, phi_t)
    for r in range(2, min(r_cap, 24) + 1):
        val = (p ** (2 * (r - 1)) * t / (r * _hermite(r - 1) ** (r - 1))) ** (1.0 / r)
        if val > best:
            best, best_r = val, r
    return best / p**2, best_r


def subgroup_growth_experiment(
    p: int,
    t: int,
    n_max: int = 4,
    k_max: int = 3,
    budget: Optional[int] = None,
) -> ExperimentReport:
    """Measure additive growth of a multiplicative subgroup of F_p*.

    Computes |n*Gamma| for n <= n_max, the additive energies T_k^+(Gamma)
    for k <= k_max, and certified dimension bounds, then records the fitted
    constant in each predicted inequality:

      - dim(Gamma) >= c * min(log p/log log p, log p/log t, phi(t)),
        phi Euler's totient;
      - the regime-dependent upper bound for T_k^+(Gamma);
      - |n*Gamma| >= c * (t / (n log^3 t))^n;
      - for tiny t, the dense-subset bound linking dim_{1/2,2} to dim.

    Logs (never asserts) the lattice prediction for the Dirichlet value.
    Natural logarithms throughout.
    """
    if p > 100_000:
        raise PreconditionError("experiment pipeline is capped at p <= 100000")
    spec = subgroup(p, t)
    gamma = spec.members
    meter = as_meter(budget)
    curve = growth_sequence(gamma, n_max)
    energies = {k: t_k(gamma, k).value for k in range(1, k_max + 1)}
    db = dim_bounds(gamma, 1, budget=meter)
    d = db.lower

    ln_p = math.log(p)
    lnln_p = math.log(ln_p) if ln_p > 1 else 0.0
    ln_t = math.log(t) if t > 1 else 0.0
    phi_t = totient(t)
    records: list[ClaimRecord] = []

    terms = [phi_t]
    if lnln_p > 0:
        terms.append(ln_p / lnln_p)
    if ln_t > 0:
        terms.append(ln_p / ln_t)
    predicted_dim = min(terms)
    if predicted_dim > 0:
        records.append(
            ClaimRecord(
                claim="subgroup_dim_lower",
                klass="fitted",
                instance=gamma.describe(),
                measured={"dim_lower": d, "dim_exact": db.exact, "predicted_min": predicted_dim},
                fitted_constant=d / predicted_dim,
            )
        )

    if lnln_p > 0:
        regime = "small" if t <= ln_p / lnln_p else ("large" if t >= ln_p else "middle")
    else:
        regime = "small"
    lnln_t = math.log(ln_t) if ln_t > 1 else 0.0
    for k in range(2, k_max + 1):
        tk = energies[k]
        fitted = None
        if regime == "small" and lnln_t > 0:
            fitted = (tk / t**k) ** (1.0 / k) / (k * ln_t**2 * lnln_t)
        elif regime == "large" and ln_t > 0:
            log_t_p = ln_p / ln_t
            if log_t_p > 1:
                fitted = (tk / t ** (2 * k)) ** (1.0 / k) * ln_p / (k * ln_t * math.log(log_t_p) ** 2)
        elif regime == "middle" and lnln_p > 0:
            denom_min = min(phi_t, ln_p / lnln_p)
            if denom_min > 0:
                fitted = (tk / t ** (2 * k)) ** (1.0 / k) * denom_min / (k * lnln_p**2)
        records.append(
            ClaimRecord(
                claim=f"subgroup_energy_upper_k{k}",
                klass="fitted",
                instance=gamma.describe(),
                measured={"k": k, "t_k": tk, "regime": regime},
                fitted_constant=fitted,
                note="" if fitted is not None else "degenerate logs at this size; constant not measured",
            )
        )

    if ln_t > 0:
        for n in range(2, len(curve.sizes) + 1):
            base = t / (n * ln_t**3)
            records.append(
                ClaimRecord(
                    claim=f"subgroup_growth_rate_n{n}",
                    klass="fitted",
                    instance=gamma.describe(),
                    measured={"n": n, "size": curve.sizes[n - 1], "predicted_base": base},
                    fitted_constant=curve.sizes[n - 1] / base**n,
                )
            )

    half_cover = next(
        (n for n in range(1, len(curve.sizes) + 1) if curve.sizes[n - 1] ** 2 >= p), None
    )
    coverage = Fraction(curve.sizes[-1], p)

    if t <= 12:
        alpha = Fraction(1, 2)
        da = dim_alpha_k(gamma, alpha, k=2, budget=meter)
        if da.exact and da.lower > 0 and ln_t > 0 and db.exact:
            fitted = float(alpha) * d / (ln_t * da.lower)
            records.append(
                ClaimRecord(
                    claim="subgroup_dim_alpha",
                    klass="fitted",
                    instance=gamma.describe(),
                    measured={"dim": d, "dim_alpha_k": da.lower, "alpha": alpha},
                    fitted_constant=fitted,
                )
            )

    dv = dirichlet_min(gamma, 2)
    lattice_pred, lattice_r = _dirichlet_lattice_prediction(p, t, phi_t)
    records.append(
        ClaimRecord(
            claim="subgroup_dirichlet_prediction",
            klass="fitted",
            instance=gamma.describe(),
            measured={
                "dirichlet_value": dv.value,
                "lattice_prediction": lattice_pred,
                "lattice_rank": lattice_r,
            },
            fitted_constant=float(dv.value) / lattice_pred if lattice_pred > 0 else None,
            note="external-constant prediction; logged only",
        )
    )

    return ExperimentReport(
        name="subgroup_growth",
        instance=gamma.describe(),
        params={"p": p, "t": t, "n_max": n_max, "k_max": k_max},
        measured={
            "curve": canonical(curve),
            "energies": {str(k): v for k, v in energies.items()},
            "dim_lower": d,
            "dim_upper": db.upper,
            "dim_exact": db.exact,
            "regime": regime,
            "half_cover_n": half_cover,
            "coverage_fraction": coverage,
            "generator": spec.generator,
        },
        records=records,
    )
