"""Claim registry: the quantitative statements the suite can evaluate.

Two classes of claim.  "hard" claims are inequalities with no hidden
constants (plus certificate and postcondition re-verifications); a hard
violation means a bug and makes the suite exit nonzero.  "fitted" claims
come from asymptotic statements whose absolute constants are unspecified;
they are never pass/fail, the suite just measures the constant each
instance implies and aggregates.

``evaluate_claim`` owns the rules every claim shares.  The empty set, a
sumset or product set above SUMSET_CAP (200 000) elements, an exhausted
budget and a coordinate outside the signed 64-bit range each give one
record noted "skipped: ..."; a certificate, witness or partition that fails
its re-verification gives one violated hard record, whatever the claim's
class.

Where a claim applies lives in its registry entry's ``requires``: ordered
(test(a, instance), reason) pairs for the ambient, the instance kind and
the size envelope (energies up to |A| = 64, amplified-order dimensions on
compact sets: |A| <= 32 with diameter or modulus <= 5 000, |A| <= 20 on
Z^r; subgroup sweeps up to p = 10 000).  ``evaluate_claim`` checks them in
order before the evaluator runs, so a test may assume the ones before it
held, and the first that fails gives one record noted "skipped: <reason>".
An evaluator words only the skips that follow from what it measured, such
as a truncated search or a degenerate window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .._ntheory import is_prime, totient
from ..budget import as_meter
from ..decompose import _difference_ratios, _ratio_box_scan, dec_tk, sidon_extract
from ..dissociation import (
    DimensionBounds,
    _avoiding,
    cube,
    d_k_exact,
    d_star_lower,
    dim_bounds,
    is_k_dissociated,
    max_dissociated_greedy,
    span_k,
)
from ..energy import additive_energy, dim_alpha_k, rudin_ratio, t_k
from ..errors import (
    BudgetExceededError,
    CoordinateOverflowError,
    PreconditionError,
    SizeCapExceededError,
    TrialsExhaustedError,
    VerificationFailedError,
)
from ..groundset import (
    GroundSet,
    IntegerLattice,
    Residues,
    by_magnitude,
    mult_embed,
    product_set,
    sigma_k,
    sumset,
)
from ..growth import (
    dim_shift_ratio,
    freiman_model,
    polynomial_growth_fit,
    verify_growth_bounds,
    verify_span_isomorphism,
)
from ..modular import fourier_max, subgroup_growth_experiment, verify_dirichlet_dim
from ..records import ClaimRecord

MAX_ENERGY_SIZE = 64
MAX_SUBGROUP_P = 10_000
SUMSET_CAP = 200_000
# Line-bitset states cost memory proportional to k * sum|a|, so claims that
# need dimensions at amplified k stay on compact sets.
MAX_AMPLIFIED_DIAMETER = 5_000
# The subset-sum cube searches run at this budget, whatever the claim's.
CUBE_DIM_BUDGET = 400_000


@dataclass(frozen=True)
class Claim:
    id: str
    klass: str  # "hard" | "fitted"
    direction: str  # "upper" | "lower" | "none": how fitted constants aggregate
    summary: str
    evaluate: Callable  # (claim, a, instance, budget) -> list[ClaimRecord]
    requires: tuple = ()  # (test(a, instance) -> bool, skip reason), checked in order


def _rec(claim: Claim, instance, measured, fitted=None, violated=False, note=""):
    return ClaimRecord(
        claim=claim.id,
        klass=claim.klass,
        instance=instance,
        measured=measured,
        fitted_constant=fitted,
        violated=violated,
        note=note,
    )


def _skip(claim: Claim, instance, reason: str):
    return [_rec(claim, instance, {}, note=f"skipped: {reason}")]


def _adopt(report, family=None, exact=False, degenerate=None):
    """An evaluator adopting the records of report(a, inst, budget), a library
    experiment, whose claim starts with family (or is family, when exact).

    family defaults to the registry id; a record under another name keeps it
    as ``variant``.  With no record adopted the claim skips, noted
    degenerate, or gives no record when degenerate is None.
    """

    def ev(claim, a, inst, budget):
        fam = family or claim.id
        out = []
        for r in report(a, inst, budget).records:
            if (r.claim == fam) if exact else r.claim.startswith(fam):
                measured = dict(r.measured)
                if r.claim != claim.id:
                    measured["variant"] = r.claim
                out.append(_rec(claim, inst, measured, r.fitted_constant, r.violated, r.note))
        return out or (_skip(claim, inst, degenerate) if degenerate else [])

    return ev


def _compact_for_amplified_k(a: GroundSet, inst=None) -> bool:
    """Whether high-k dimension states stay cheap on this set (a requires test; inst is unused)."""
    if len(a) > 32:
        return False
    amb = a.ambient
    if isinstance(amb, Residues):
        return amb.modulus <= MAX_AMPLIFIED_DIAMETER
    if amb.rank == 1:
        return a.diameter() <= MAX_AMPLIFIED_DIAMETER
    return len(a) <= 20


# ---------------------------------------------------------------------------
# Facts: measurements shared by the claims evaluated on one (set, budget).
#
# evaluate_claim drops the store whenever it moves to another (set, budget),
# so each fact is computed once per instance and never reused for another.
# A fact whose computation hit a size cap keeps the error and raises it on
# each hit.  Every budgeted fact runs at the claim's budget, with two
# exceptions that keep a meter of their own: the CUBE_DIM_BUDGET cube
# searches of sigma_dissociated_dim and cube_dim_ratio (their fitted
# constants are measured at that size), and is_k_dissociated certificate
# checks (a budget must never turn a re-verification into a skip).

_MISSING = object()
_facts: dict = {}
_facts_scope: tuple = ()


def _fact(fn, *args, **kw):
    """fn(*args, **kw), computed at most once while the scope stands."""
    key = (fn, args, tuple(kw.items()))
    value = _facts.get(key, _MISSING)
    if value is _MISSING:
        try:
            value = fn(*args, **kw)
        except SizeCapExceededError as exc:
            value = exc.with_traceback(None)
        _facts[key] = value
    if isinstance(value, SizeCapExceededError):
        raise value.with_traceback(None)
    return value


def _nA(a: GroundSet, n: int) -> GroundSet:
    if n <= 1:
        return a
    return sumset(_fact(_nA, a, n - 1), a, size_cap=SUMSET_CAP)


def _checked_ratio_box(a: GroundSet) -> tuple:
    """ratio_box(a) on a small rank-1 set, and whether its whole box and not
    its missing fraction is among the ratios, from one build of the ratio set
    (which is dropped after, so the store does not hold it)."""
    ratios = _difference_ratios(a)
    rb = _ratio_box_scan(ratios)
    box = range(1, rb.n + 1)
    realized = all(
        (x // g, y // g) in ratios for y in box for x in box for g in (math.gcd(x, y),)
    )
    return rb, realized and (rb.missing.numerator, rb.missing.denominator) not in ratios


def _dim_used(db: DimensionBounds) -> int:
    """Exact value when available, else the certified upper bound.

    Substituting an upper bound is sound for every check of the shape
    f(dim) >= g with f nondecreasing: the true statement implies the
    weakened one, so a failure still means a real violation.
    """
    return db.lower if db.exact else db.upper


def _largest(a: GroundSet, m: int) -> GroundSet:
    """The m elements of largest magnitude."""
    return GroundSet.of(a.ambient, by_magnitude(a.ambient, a.elements, descending=True)[:m])


def clear_caches() -> None:
    """Drop stored facts (tests use this to re-time cold runs)."""
    global _facts_scope
    _facts.clear()
    _facts_scope = ()


# ---------------------------------------------------------------------------
# Hard claims


def _ev_growth_monotone(claim, a, inst, budget):
    sizes = [len(_fact(_nA, a, n)) for n in range(1, 5)]
    ok = all(sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 1))
    measured = {"sizes": sizes}
    if isinstance(a.ambient, IntegerLattice):
        floor_ok = all(
            sizes[n - 1] >= n * (len(a) - 1) + 1 for n in range(1, len(sizes) + 1)
        )
        measured["torsion_free_floor"] = floor_ok
        ok = ok and floor_ok
    return [_rec(claim, inst, measured, violated=not ok)]


def _ev_pluennecke(claim, a, inst, budget):
    two = _fact(_nA, a, 2)
    three = _fact(_nA, a, 3)
    diff = sumset(a, a, "-", size_cap=SUMSET_CAP)
    two_minus_one = sumset(two, a, "-", size_cap=SUMSET_CAP)
    s1, s2, s3 = len(a), len(two), len(three)
    checks = {
        # |nA| <= (|2A|/|A|)^n |A|, cross-multiplied to stay in integers
        "triple_sum": s3 * s1**2 <= s2**3,
        "difference": len(diff) * s1 <= s2**2,
        "two_minus_one": len(two_minus_one) * s1**2 <= s2**3,
    }
    measured = {
        "sizes": {"1A": s1, "2A": s2, "3A": s3, "A-A": len(diff), "2A-A": len(two_minus_one)},
        "doubling": Fraction(s2, s1),
        "checks": checks,
    }
    return [_rec(claim, inst, measured, violated=not all(checks.values()))]


def _ev_sigma_cover(claim, a, inst, budget):
    k = min(3, len(a))
    sig = sigma_k(a, k, size_cap=SUMSET_CAP)
    a0 = a.union(GroundSet.of(a.ambient, [a.ambient.zero]))
    cover = _fact(_nA, a0, k)
    ka = _fact(_nA, a, k)
    checks = {
        "inside_k_fold_cover": set(sig.elements) <= set(cover.elements),
        "at_least_singletons": len(sig) >= len(a),
        "count_upper": len(sig) <= k * len(ka) + 1,
    }
    measured = {"k": k, "sigma_size": len(sig), "k_fold_size": len(ka), "checks": checks}
    return [_rec(claim, inst, measured, violated=not all(checks.values()))]


def _ev_hoelder(claim, a, inst, budget):
    t1, t2, t3 = len(a), _fact(t_k, a, 2, "+").value, _fact(t_k, a, 3, "+").value
    two = _fact(_nA, a, 2)
    three = _fact(_nA, a, 3)
    checks = {
        "log_convex_2": t2 * t2 <= t1 * t3,
        "cauchy_schwarz_2": t1 ** 4 <= len(two) * t2,
        "cauchy_schwarz_3": t1 ** 6 <= len(three) * t3,
    }
    measured = {"t1": t1, "t2": t2, "t3": t3}
    if len(two) <= 1500:
        e_ab = additive_energy(a, two).value
        checks["bilinear_norm"] = e_ab**2 <= t2 * _fact(t_k, two, 2, "+").value
        measured["energy_a_2a"] = e_ab
    return [
        _rec(claim, inst, dict(measured, checks=checks), violated=not all(checks.values()))
    ]


def _ev_dim_chain(claim, a, inst, budget):
    # The greedy maximal witness W is 1-dissociated, so it bounds dim from
    # below and feeds the d* counting bound; it also spans A with
    # coefficients in [-1,1] (every rejected element closed a relation), so
    # |W| bounds d from above.
    w = _fact(max_dissociated_greedy, a, 1, budget=budget)
    dstar_lo = d_star_lower(a, w)
    if len(a) <= 10:
        de = _fact(dim_bounds, a, 1, budget=budget)
        dk = _fact(d_k_exact, a, 1, budget=budget)
        if de.exact and dk.exact:
            # The check reads the uncapped count; the report shows it capped at d.
            checks = {"dstar_le_d": dstar_lo <= dk.value, "d_le_dim": dk.value <= de.value}
            measured = {
                "dim": de.value,
                "d": dk.value,
                "dstar_lower": min(dstar_lo, dk.value),
                "dstar_upper": dk.value,
                "mode": "exact",
            }
            return [_rec(claim, inst, dict(measured, checks=checks), violated=not all(checks.values()))]
    # Large instances: certified-bounds form; d* <= d, so dstar_lo also
    # bounds d from below.
    d_up = max(1, len(w))
    db = _fact(dim_bounds, a, 1, budget=budget)
    checks = {"dstar_le_d": dstar_lo <= d_up, "d_le_dim": dstar_lo <= db.upper}
    measured = {
        "dim_lower": db.lower,
        "dim_upper": db.upper,
        "d_upper": d_up,
        "dstar_lower": dstar_lo,
        "mode": "bounds",
    }
    return [_rec(claim, inst, dict(measured, checks=checks), violated=not all(checks.values()))]


def _ev_dim_counting(claim, a, inst, budget):
    db1 = _fact(dim_bounds, a, 1, budget=budget)
    d1 = _dim_used(db1)
    checks = {"box_k1": 3**d1 >= len(a)}
    measured = {"dim1_used": d1, "dim1_exact": db1.exact, "size": len(a)}
    try:
        for k in (2, 3):
            ka = _fact(_nA, a, k)
            checks[f"sumset_box_k{k}"] = (2 * k + 1) ** d1 >= len(ka)
            measured[f"size_{k}A"] = len(ka)
    except SizeCapExceededError:
        pass
    # Corrected counting bound at k = 2.  Covering A by dilates e^{-1} of the
    # span multiplies the count by the number of solutions of e*x = s, which
    # is gcd(e, N) per residue class (and 1 over the integers), so
    # |A| <= (sum_{e<=k} gcd(e, N)) * (2k+1)^{dim_k}.  The verbatim
    # log_{2k+1}|A| form without that factor fails already for the residues
    # of a small multiplicative subgroup, so only the corrected form is hard.
    if _compact_for_amplified_k(a):
        db2 = _fact(dim_bounds, a, 2, budget=budget)
        d2 = _dim_used(db2)
        if isinstance(a.ambient, Residues):
            factor = sum(math.gcd(e, a.ambient.modulus) for e in (1, 2))
        else:
            factor = 2
        checks["box_k2_corrected"] = factor * 5**d2 >= len(a)
        measured["dim2_used"] = d2
        measured["dim2_exact"] = db2.exact
        measured["k2_factor"] = factor
        if len(a) > 1:
            measured["verbatim_k2_ratio"] = d2 * math.log(5) / math.log(len(a))
    return [_rec(claim, inst, dict(measured, checks=checks), violated=not all(checks.values()))]


def _ev_energy_dim_lower(claim, a, inst, budget):
    db = _fact(dim_bounds, a, 1, budget=budget)
    d = _dim_used(db)
    checks = {}
    measured = {"dim_used": d, "dim_exact": db.exact}
    for k in (2, 3):
        tk = _fact(t_k, a, k, "+").value
        checks[f"k{k}"] = tk * (2 * k + 1) ** d >= len(a) ** (2 * k)
        measured[f"t{k}"] = tk
    return [_rec(claim, inst, dict(measured, checks=checks), violated=not all(checks.values()))]


def _dirichlet_report(a, inst, budget):
    # product_doubling_dim needs residues, so it reads dirichlet_dim_lower's fact.
    modulus = None if isinstance(a.ambient, Residues) else 101
    return _fact(verify_dirichlet_dim, a, s=2, modulus=modulus, budget=budget)


def _growth_report(a, inst, budget):
    return _fact(verify_growth_bounds, a, budget=budget)


def _shift_report(a, inst, budget):
    """The one shift experiment per instance; zero is always its first shift."""
    amb = a.ambient
    if isinstance(amb, Residues):
        shifts = tuple(dict.fromkeys(x % amb.modulus for x in (0, 1, 2, amb.modulus - 1)))
    elif amb.rank == 1:
        shifts = (0, 1, -1, 7)
    else:
        shifts = (amb.zero, tuple(1 if i == 0 else 0 for i in range(amb.rank)))
    return _fact(dim_shift_ratio, a, shifts, budget=budget)


def _ev_witness_reverify(claim, a, inst, budget):
    checks = {}
    measured = {}
    w = _fact(max_dissociated_greedy, a, 1, budget=budget)
    cert_w = is_k_dissociated(w, 1) if w else None
    checks["greedy_witness_dissociated"] = cert_w is None or cert_w.is_dissociated
    db = _fact(dim_bounds, a, 1, budget=budget)
    if db.lower_witness is not None and db.lower_witness.elements:
        cert_l = is_k_dissociated(db.lower_witness, 1)
        checks["dim_witness_dissociated"] = cert_l.is_dissociated
        checks["dim_witness_inside"] = set(db.lower_witness.elements) <= set(a.elements)
    if len(a) <= 16:
        cert_a = is_k_dissociated(a, 1)
        checks["certificate_reverifies"] = cert_a.verify(a)
        measured["verdict"] = cert_a.verdict
        if len(w) <= 12:
            try:
                sp = span_k(w, 1)
                checks["greedy_witness_spans"] = set(a.elements) <= set(sp.elements)
            except SizeCapExceededError:
                pass
    measured["witness_size"] = len(w)
    return [_rec(claim, inst, dict(measured, checks=checks), violated=not all(checks.values()))]


def _ev_freiman(claim, a, inst, budget):
    try:
        model = freiman_model(a, seed=1)
    except TrialsExhaustedError as exc:
        return [
            _rec(
                claim,
                inst,
                {},
                note=f"no model found within the dilation sweep: {exc}",
            )
        ]
    ok = model.verified and verify_span_isomorphism(
        model.subset, model.mapping, model.l, model.modulus
    )
    measured = {
        "modulus": model.modulus,
        "prime": model.prime,
        "dilation": model.dilation,
        "kept": len(model.subset),
        "attempts": model.attempts,
    }
    return [_rec(claim, inst, measured, violated=not ok)]


def _ev_ratio_box_inclusion(claim, a, inst, budget):
    rb, ok = _fact(_checked_ratio_box, a)
    measured = {"n": rb.n, "missing": rb.missing, "ratio_count": rb.ratio_count}
    return [_rec(claim, inst, measured, violated=not ok)]


def _ev_sidon_property(claim, a, inst, budget):
    b = _fact(sidon_extract, a, h=2, budget=budget)
    amb = a.ambient
    sums = {}
    ok = bool(b) and set(b.elements) <= set(a.elements)
    elems = b.elements
    for i in range(len(elems)):
        for j in range(i, len(elems)):
            s = amb.add(elems[i], elems[j])
            if s in sums:
                ok = False
            sums[s] = (i, j)
    measured = {"sidon_size": len(b), "size": len(a)}
    return [_rec(claim, inst, measured, violated=not ok)]


def _ev_decomposition(claim, a, inst, budget):
    dec = dec_tk(a, s=2, budget=budget)
    checks = {
        "partition": set(dec.b.elements) | set(dec.c.elements) == set(a.elements)
        and not (set(dec.b.elements) & set(dec.c.elements)),
        "energies_match": (
            dec.energies["t_s_add_b"] == (_fact(t_k, dec.b, dec.s, "+").value if dec.b else 0)
            and dec.energies["t_q_add_b"] == (_fact(t_k, dec.b, dec.q, "+").value if dec.b else 0)
            and dec.energies["t_s_mult_c"] == (_fact(t_k, dec.c, dec.s, "*").value if dec.c else 0)
        ),
    }
    peels = dec.energies["peels"]
    stopped_early = any(
        "cap" in f or "took all of C" in f for f in dec.flags
    )
    if peels >= 1 and not stopped_early:
        checks["mult_energy_below_threshold"] = (
            Fraction(dec.energies["t_s_mult_c"]) <= dec.threshold
        )
    if peels >= 1 and len(dec.b) >= 2:
        checks["add_energy_nontrivial"] = dec.energies["t_q_add_b"] < len(dec.b) ** (
            2 * dec.q - 1
        )
    measured = {
        "b_size": len(dec.b),
        "c_size": len(dec.c),
        "peels": peels,
        "threshold": dec.threshold,
        "energies": dec.energies,
        "flags": dec.flags,
    }
    return [_rec(claim, inst, dict(measured, checks=checks), violated=not all(checks.values()))]


# ---------------------------------------------------------------------------
# Fitted claims


def _poly_report(a, inst, budget):
    return _fact(polynomial_growth_fit, a, budget=budget)


def _ev_dim_compare(claim, a, inst, budget):
    d1 = _fact(dim_bounds, a, 1, budget=budget)
    d2 = _fact(dim_bounds, a, 2, budget=budget)
    if not (d1.exact and d2.exact) or d1.value == 0 or d2.value == 0:
        return _skip(claim, inst, "dimension search truncated or degenerate")
    out = []
    for l, k, dl, dk in ((1, 2, d1.value, d2.value), (2, 1, d2.value, d1.value)):
        denom = dk * max(math.log(k * dk) / math.log(l + 1), 1.0)
        out.append(
            _rec(
                claim,
                inst,
                {"l": l, "k": k, "dim_l": dl, "dim_k": dk},
                fitted=dl / denom,
            )
        )
    return out


def _amplified_dim(a: GroundSet, budget):
    """((d, k*, dim bounds at min(k*, 64)), None) for d = dim_1's lower end and
    k* = round(d log d); (None, the skip reason) when d < 2."""
    d = _fact(dim_bounds, a, 1, budget=budget).lower
    if d < 2:
        return None, "dimension too small for the amplified order"
    k_star = max(1, round(d * math.log(d)))
    return (d, k_star, _fact(dim_bounds, a, min(k_star, 64), budget=budget)), None


def _ev_small_doubling_dim(claim, a, inst, budget):
    two = _fact(_nA, a, 2)
    kk = len(two) / len(a)
    amplified, why = _amplified_dim(a, budget)
    if amplified is None:
        return _skip(claim, inst, why)
    d, k_star, dks = amplified
    lnln_a = math.log(max(math.log(len(a)), 1.0001))
    rhs = math.log(len(a)) / lnln_a + kk * math.log(2 * kk) ** 6 * math.log(
        math.log(4 * kk)
    )
    measured = {
        "doubling": Fraction(len(two), len(a)),
        "k_star": k_star,
        "dim_at_k_star": dks.lower,
        "dim": d,
    }
    return [_rec(claim, inst, measured, fitted=dks.lower / rhs)]


def _ev_bounded_growth_dim(claim, a, inst, budget):
    sizes = [len(_fact(_nA, a, n)) for n in range(1, 5)]
    log_a = math.log(len(a))
    kk = max(math.log(s) / log_a for s in sizes)
    inner = kk * log_a
    if inner <= 1:
        return _skip(claim, inst, "growth exponent degenerate")
    amplified, why = _amplified_dim(a, budget)
    if amplified is None:
        return _skip(claim, inst, why)
    _d, k_star, dks = amplified
    rhs = kk * log_a / math.log(inner)
    measured = {"growth_exponent": kk, "k_star": k_star, "dim_at_k_star": dks.lower}
    return [_rec(claim, inst, measured, fitted=dks.lower / rhs)]


def _witness_cube(a: GroundSet, k: int, budget, min_size: int):
    """(L, Sigma(L), dim_1 bounds of Sigma(L)) for L the 8 largest elements of
    the greedy k-dissociated witness; None when L has fewer than min_size."""
    lam = _largest(_fact(max_dissociated_greedy, a, k, budget=budget), 8)
    if len(lam) < min_size:
        return None
    q, _proper = cube(lam)
    return lam, q, _fact(dim_bounds, q, 1, budget=CUBE_DIM_BUDGET)


def _ev_sigma_dim(claim, a, inst, budget):
    witness_cube = _witness_cube(a, 2, budget, min_size=2)
    if witness_cube is None:
        return _skip(claim, inst, "no 2-dissociated pair to build the subset-sum set")
    lam, q, dq = witness_cube
    n = len(lam)
    upper_ratio = dq.upper / (n * math.log(n))
    lower_ratio = dq.lower / min(n * math.log(n), 2.0)
    measured = {
        "lam_size": n,
        "sigma_size": len(q),
        "dim_lower": dq.lower,
        "dim_upper": dq.upper,
        "lower_ratio": lower_ratio,
    }
    return [_rec(claim, inst, measured, fitted=upper_ratio)]


def _ev_cube_dim_ratio(claim, a, inst, budget):
    db = _fact(dim_bounds, a, 1, budget=budget)
    d = db.lower
    if d < 2:
        return _skip(claim, inst, "needs dimension at least 2")
    k_star = min(64, max(1, round(d * math.log(d))))
    witness_cube = _witness_cube(a, k_star, budget, min_size=1)
    if witness_cube is None:
        return _skip(claim, inst, "no high-order dissociated subset")
    lam, q, dq = witness_cube
    if dq.lower == 0:
        return _skip(claim, inst, "degenerate subset-sum set")
    big_k = dq.upper / d
    denom = big_k * d / math.log(d)
    measured = {
        "k_star": k_star,
        "lam_k_size": len(lam),
        "cube_size": len(q),
        "cube_dim_upper": dq.upper,
        "dim": d,
    }
    return [_rec(claim, inst, measured, fitted=len(lam) / denom)]


def _ev_dim_alpha(claim, a, inst, budget):
    k = 2
    alpha = Fraction(1, 2)
    da = dim_alpha_k(a, alpha, k=k, budget=budget)
    if not da.exact or da.value == 0:
        return _skip(claim, inst, "relative dimension degenerate")
    tk = _fact(t_k, a, k, "+").value
    kappa = (tk / len(a) ** (2 * k)) ** (1.0 / k)
    margin = (1.0 - float(alpha) ** (1.0 / (2 * k))) ** 2
    measured = {"dim_alpha_k": da.value, "kappa": kappa, "t_k": tk}
    return [_rec(claim, inst, measured, fitted=da.value * kappa * margin / (16 * k))]


def _ev_rudin(claim, a, inst, budget):
    lam = _largest(_fact(max_dissociated_greedy, a, 1, budget=budget), 12)
    if len(lam) < 2:
        return _skip(claim, inst, "no dissociated pair")
    out = []
    for k in (2, 3, 4):
        ratio = rudin_ratio(lam, k)
        out.append(
            _rec(
                claim,
                inst,
                {"k": k, "lam_size": len(lam), "ratio": ratio},
                fitted=float(ratio) ** (1.0 / k),
            )
        )
    return out


def _ev_fourier_dim(claim, a, inst, budget):
    peak = fourier_max(a)
    hyp = peak.max_abs <= len(a) / 4
    measured = {
        "peak": peak.max_abs,
        "argmax": peak.argmax,
        "epsilon": peak.max_abs / len(a),
        "hypothesis": hyp,
    }
    if not hyp:
        return [
            _rec(claim, inst, measured, note="largest coefficient above |A|/4; hypothesis not met")
        ]
    db = _fact(dim_bounds, a, 1, budget=budget)
    return [_rec(claim, inst, measured, fitted=db.lower / math.log(a.ambient.modulus))]


def _ev_product_set_energy(claim, a, inst, budget):
    aa = _fact(product_set, a, a, size_cap=SUMSET_CAP)
    bigd = len(aa) / len(a)
    db = _fact(dim_bounds, a, 1, budget=budget)
    d = db.lower
    if d < 2:
        return _skip(claim, inst, "needs dimension at least 2")
    k = 2
    tk = _fact(t_k, a, k, "+").value
    c = (tk / len(a) ** (2 * k)) ** (1.0 / k) * d / (k * bigd**6 * math.log(d) ** 2)
    measured = {"product_ratio": Fraction(len(aa), len(a)), "dim": d, "t_k": tk}
    return [_rec(claim, inst, measured, fitted=c)]


def _mult_dim_lower(a: GroundSet, budget) -> int:
    """Certified lower bound for the multiplicative dimension.

    Works on a compact subset of the prime-exponent image so the subset-sum
    state (a set of exponent vectors) stays small.
    """
    emb = mult_embed(a)
    greedy = _fact(max_dissociated_greedy, _largest(emb.image, 14), 1, budget=budget)
    return len(greedy)


def _ev_sum_product_doubling(claim, a, inst, budget):
    log_a = math.log(len(a))
    two = _fact(_nA, a, 2)
    aa = _fact(product_set, a, a, size_cap=SUMSET_CAP)
    k_add = len(two) / len(a)
    k_mul = len(aa) / len(a)
    dim_plus = _fact(dim_bounds, a, 1, budget=budget).lower
    dim_times = _fact(_mult_dim_lower, a, budget)
    out = []
    if 0 < math.log(k_mul) and math.log(k_mul) < log_a:
        window = log_a * math.log(log_a / math.log(k_mul))
        if window > 0:
            out.append(
                _rec(
                    claim,
                    inst,
                    {"variant": "plus_dim_small_product", "k_mul": k_mul, "dim_plus": dim_plus},
                    fitted=dim_plus / window,
                )
            )
            window2 = log_a**2 / math.log(k_mul) * math.log(log_a / math.log(k_mul))
            out.append(
                _rec(
                    claim,
                    inst,
                    {"variant": "plus_dim_small_product_integers", "k_mul": k_mul, "dim_plus": dim_plus},
                    fitted=dim_plus / window2,
                )
            )
    if 0 < math.log(k_add) and math.log(k_add) < log_a:
        window = log_a * math.log(log_a / math.log(k_add))
        if window > 0:
            out.append(
                _rec(
                    claim,
                    inst,
                    {"variant": "times_dim_small_sumset", "k_add": k_add, "dim_times": dim_times},
                    fitted=dim_times / window,
                )
            )
    return out or _skip(claim, inst, "doubling degenerate (no window)")


def _ev_sum_product_dim(claim, a, inst, budget):
    log_a = math.log(len(a))
    loglog = math.log(log_a)
    logloglog = math.log(loglog)
    dim_plus = _fact(dim_bounds, a, 1, budget=budget).lower
    dim_times = _fact(_mult_dim_lower, a, budget)
    denom = log_a * math.sqrt(loglog / logloglog)
    measured = {"dim_plus": dim_plus, "dim_times": dim_times}
    return [
        _rec(
            claim,
            inst,
            measured,
            fitted=max(dim_plus, dim_times) / denom,
            note="triple-log window; constant recorded for completeness only",
        )
    ]


def _ev_sidon_extremal(claim, a, inst, budget):
    b = _fact(sidon_extract, a, h=2, budget=budget)
    c = sidon_extract(a, h=2, op="*", budget=budget)
    best = max(len(b), len(c))
    measured = {"additive": len(b), "multiplicative": len(c), "size": len(a)}
    try:
        two = _fact(_nA, a, 2)
        sq = _fact(product_set, a, a, size_cap=SUMSET_CAP)
        measured["sum_plus_product"] = len(two) + len(sq)
    except SizeCapExceededError:
        pass
    return [_rec(claim, inst, measured, fitted=math.log(best) / math.log(len(a)))]


def _ev_ratio_box_growth(claim, a, inst, budget):
    rb, _ = _fact(_checked_ratio_box, a)
    two = _fact(_nA, a, 2)
    kk = len(two) / len(a)
    if rb.n < 1 or kk <= 1:
        return [
            _rec(
                claim,
                inst,
                {"n": rb.n, "doubling": kk},
                note="degenerate box or doubling; constant not measured",
            )
        ]
    c = math.log(rb.n + 1) * math.log(kk) / math.log(len(a))
    return [_rec(claim, inst, {"n": rb.n, "doubling": kk}, fitted=c)]


def _subgroup_params(inst) -> Optional[tuple[int, int]]:
    """(p, t) of a subgroup instance, None for any other instance."""
    if isinstance(inst, dict) and inst.get("generator") == "subgroup":
        params = inst.get("params", {})
        return params.get("p"), params.get("t")
    return None


def _subgroup_sweep(a, inst, budget):
    """The growth experiment of a subgroup instance, shared by its claims."""
    p, t = _subgroup_params(inst)
    return _fact(subgroup_growth_experiment, p, t, n_max=4, k_max=3, budget=budget)


def _ev_subgroup_coverage(claim, a, inst, budget):
    rep = _subgroup_sweep(a, inst, budget)
    p, t = rep.params["p"], rep.params["t"]
    half_cover = rep.measured["half_cover_n"]
    ln_p = math.log(p)
    lnln_p = math.log(ln_p)
    hyp = totient(t) * math.log(max(t, 2)) >= ln_p
    measured = {
        "half_cover_n": half_cover,
        "coverage_fraction": rep.measured["coverage_fraction"],
        "hypothesis": hyp,
    }
    if half_cover is None or lnln_p <= 0:
        return [_rec(claim, inst, measured, note="no half-coverage within the window")]
    fitted = half_cover * lnln_p / ln_p**2
    note = "" if hyp else "totient hypothesis not met at this size"
    return [_rec(claim, inst, measured, fitted=fitted, note=note)]


def _ev_difference_in_subgroup(claim, a, inst, budget):
    p, t = _subgroup_params(inst)
    gamma = set(a.elements)
    sym = sorted(x for x in gamma if (p - x) % p in gamma)
    # Translation-invariance lets us pin 0 in A; the rest of A is a subset
    # of sym with all pairwise differences inside Gamma, a clique: the
    # largest subset of sym that holds no non-adjacent pair.
    apart = [
        1 << i | 1 << j
        for j, v in enumerate(sym) for i, u in enumerate(sym[:j])
        if (u - v) % p not in gamma or (v - u) % p not in gamma
    ]
    best = 1 + len(_avoiding(len(sym), apart, as_meter(budget)))
    delta = 1.0 - math.log(t) / math.log(p)
    measured = {"max_size": best, "symmetric_part": len(sym), "delta": delta}
    if best < 3 or delta <= 0:
        return [_rec(claim, inst, measured, note="degenerate clique or exponent")]
    # Doubling of the densest found A is not tracked by the clique search;
    # the trivial bound |A+A| <= |A|(|A|+1)/2 gives the worst-case K.
    k_worst = (best + 1) / 2
    denom = math.log(k_worst) * math.sqrt(
        (1.0 / delta) * math.log(1.0 / delta) * math.log(p)
    ) if 0 < delta < 1 and k_worst > 1 else None
    if not denom:
        return [_rec(claim, inst, measured, note="degenerate window")]
    return [_rec(claim, inst, measured, fitted=math.log(best) / denom)]


# ---------------------------------------------------------------------------
# Where claims apply: the tests and (test, reason) pairs of the registry's
# requires that more than one entry uses.  A test may assume that the pairs
# before it in the same entry held.


def _rank1_ints(a: GroundSet, inst) -> bool:
    return isinstance(a.ambient, IntegerLattice) and a.ambient.rank == 1


def _positive_ints(a: GroundSet, inst) -> bool:
    return _rank1_ints(a, inst) and min(a.elements) >= 1


def _subgroup_p_at_most(cap: int) -> Callable:
    return lambda a, inst: (p := _subgroup_params(inst)[0]) is not None and p <= cap


def _prime_modulus_to_4096(a: GroundSet, inst) -> bool:
    return a.ambient.modulus <= 4096 and is_prime(a.ambient.modulus)


_COMPACT = (_compact_for_amplified_k, "set too wide for amplified-order dimension work")
_ENERGY_CAP = (lambda a, inst: len(a) <= MAX_ENERGY_SIZE, f"energies are capped at |A| = {MAX_ENERGY_SIZE}")
_RANK1 = (_rank1_ints, "needs rank-1 integers")
_POSITIVE = (_positive_ints, "needs rank-1 positive integers")
_PAIR_SCAN = (lambda a, inst: len(a) <= 24, "pair scan is kept to |A| <= 24")
_SUM_PRODUCT_ENVELOPE = (
    lambda a, inst: len(a) <= 48 and max(a.elements) <= 10**6, "kept to |A| <= 48, values <= 10^6"
)
_RESIDUES = (lambda a, inst: isinstance(a.ambient, Residues), "needs a residue ambient")
_SUBGROUP = (lambda a, inst: _subgroup_params(inst) is not None, "needs a multiplicative subgroup instance")
_SUBGROUP_SWEEP = (
    _SUBGROUP,
    (_subgroup_p_at_most(MAX_SUBGROUP_P), f"subgroup sweeps are capped at p <= {MAX_SUBGROUP_P}"),
)


# ---------------------------------------------------------------------------
# Registry


def _claims() -> dict[str, Claim]:
    # Skip notes of the claims that adopt experiment records and find none.
    no_bound = "bound degenerate on this instance"
    no_window = "window degenerate at this size"
    too_small = "degenerate at this size"
    entries = [
        # hard
        ("growth_monotone", "hard", "none", "|nA| is nondecreasing; torsion-free floor n(|A|-1)+1", _ev_growth_monotone),
        ("pluennecke_doubling", "hard", "none", "|nA-mA| <= (|2A|/|A|)^{n+m} |A| in integer form", _ev_pluennecke),
        ("sigma_subset_cover", "hard", "none", "Sigma_k(A) sits inside k(A u {0}) with the counting bound", _ev_sigma_cover, ((lambda a, inst: len(a) <= 48, "set too large for the layered subset-sum scan"),)),
        ("hoelder_energy_chain", "hard", "none", "log-convexity and Cauchy-Schwarz bounds for T_k", _ev_hoelder, (_ENERGY_CAP,)),
        ("dim_chain", "hard", "none", "d* <= d <= dim at k = 1, exact or certified-bounds form", _ev_dim_chain),
        ("dim_counting_lower", "hard", "none", "|A| and |kA| against (2k+1)^dim boxes (gcd-corrected at k = 2)", _ev_dim_counting),
        ("energy_dim_lower", "hard", "none", "T_k(A) (2k+1)^dim >= |A|^{2k}", _ev_energy_dim_lower, (_ENERGY_CAP,)),
        ("dirichlet_dim_lower", "hard", "none", "dim >= s log(N-1)/log(dim * |A|/D) for the Dirichlet minimum D", _adopt(_dirichlet_report, exact=True, degenerate=no_bound), ((lambda a, inst: a.ambient.rank == 1, "needs residues or rank-1 integers"),)),
        ("split_block_growth", "hard", "none", "|nS| (2^n n!)^m >= prod k^n |L_j|^n for split dissociated blocks", _adopt(_growth_report, degenerate="certified dimension below 4; no eligible (n, m)"), (_COMPACT,)),
        ("shift_zero_fixed", "hard", "none", "shifting by 0 fixes the set and its dimension bounds", _adopt(_shift_report)),
        ("witness_reverify", "hard", "none", "certificates and witnesses re-verify through their own module", _ev_witness_reverify),
        # freiman_model lists the p - 1 dilations mod p ~ 4 max|x|, for a singleton too.
        ("freiman_isomorphism", "hard", "none", "the modular model is a verified Freiman 2-isomorphism", _ev_freiman,
         (_RANK1, (lambda a, inst: len(a) <= 10, "model search is kept to |A| <= 10"), (lambda a, inst: max(abs(x) for x in a.elements) <= 50, "elements too large for the dilation sweep"))),
        ("ratio_box_inclusion", "hard", "none", "the reported ratio box is fully realized and the missing ratio is real", _ev_ratio_box_inclusion, (_RANK1, _PAIR_SCAN)),
        ("sidon_property", "hard", "none", "extracted B_2[1] subsets have all pair sums distinct", _ev_sidon_property, ((lambda a, inst: a.ambient.rank == 1, "kept to rank-1 and residue sets"),)),
        ("decomposition_energy", "hard", "none", "additive/multiplicative split partitions A with matching traced energies", _ev_decomposition,
         (_POSITIVE, (lambda a, inst: len(a) <= 32 and max(a.elements) <= 10**6, "decomposition sweep is kept to |A| <= 32, values <= 10^6"))),
        # fitted
        ("growth_stage1", "fitted", "upper", "first growth window: |nA| >= |A| (dim/(C log|A|))^{n-1}", _adopt(_growth_report, degenerate=no_window), (_COMPACT,)),
        ("growth_stage2", "fitted", "upper", "second growth window: |nA| >= (dim/(C n))^{n-1}", _adopt(_growth_report, degenerate=no_window), (_COMPACT,)),
        ("growth_stage3", "fitted", "upper", "third growth window at amplified dissociation order", _adopt(_growth_report, degenerate=no_window), (_COMPACT,)),
        ("poly_growth", "fitted", "upper", "polynomial growth exponent against dim_k log dim_k", _adopt(_poly_report, degenerate=no_window),
         ((lambda a, inst: len(a) >= 2, "needs at least two elements"), (_compact_for_amplified_k, "set too wide for the growth sweep"))),
        ("dim_compare", "fitted", "upper", "dim_l against dim_k log_{l+1}(k dim_k)", _ev_dim_compare, ((lambda a, inst: len(a) <= 16, "exact two-parameter dimensions are kept to |A| <= 16"),)),
        ("small_doubling_dim", "fitted", "upper", "amplified dim against log|A|/loglog|A| + K log^6(2K) loglog(4K)", _ev_small_doubling_dim, ((lambda a, inst: len(a) >= 4, "needs |A| >= 4"), _COMPACT)),
        ("bounded_growth_dim", "fitted", "upper", "amplified dim against K log|A|/log(K log|A|)", _ev_bounded_growth_dim, ((lambda a, inst: len(a) >= 3, "needs |A| >= 3"), _COMPACT)),
        ("sigma_dissociated_dim", "fitted", "upper", "dim of the subset-sum set of a dissociated block vs n log n", _ev_sigma_dim, ((_compact_for_amplified_k, "set too wide for order-2 dissociation states"),)),
        ("cube_dim_ratio", "fitted", "upper", "dim_k at amplified k against K dim/log dim via the subset-sum cube", _ev_cube_dim_ratio, (_COMPACT,)),
        ("shift_dim_ratio", "fitted", "upper", "worst two-sided dimension ratio under translation", _adopt(_shift_report)),
        ("dim_alpha_bound", "fitted", "upper", "relative dimension against k/kappa at alpha = 1/2", _ev_dim_alpha, ((lambda a, inst: len(a) <= 10, "exact relative dimension is kept to |A| <= 10"),)),
        ("rudin_constant", "fitted", "upper", "T_k(L)^{1/k}/(k |L|) over verified dissociated sets", _ev_rudin),
        ("fourier_dim", "fitted", "lower", "dim against log p under a flat Fourier spectrum", _ev_fourier_dim, (_RESIDUES, (_prime_modulus_to_4096, "needs a prime modulus <= 4096"))),
        ("product_set_energy", "fitted", "upper", "T_k against |A|^{2k} (k D^6 log^2 d / d)^k for product-ratio D", _ev_product_set_energy,
         (_POSITIVE, (lambda a, inst: len(a) <= 48 and max(a.elements) <= 10**6, "product set sweep is kept to |A| <= 48, values <= 10^6"))),
        ("product_doubling_dim", "fitted", "lower", "Dirichlet dimension window with the product-ratio correction", _adopt(_dirichlet_report, "dirichlet_dim_lower_product", degenerate=no_bound), (_RESIDUES, (lambda a, inst: 0 not in a, "needs 0 outside A"))),
        ("sum_product_doubling", "fitted", "lower", "dimensions under small sumset or product set", _ev_sum_product_doubling,
         ((lambda a, inst: len(a) >= 3 and _positive_ints(a, inst), "needs at least three positive integers"), _SUM_PRODUCT_ENVELOPE)),
        ("sum_product_dim", "fitted", "lower", "max of both dimensions against the double-log window", _ev_sum_product_dim,
         ((_positive_ints, "needs positive integers"), (lambda a, inst: len(a) >= 16, "triple logarithms need |A| >= 16"), _SUM_PRODUCT_ENVELOPE)),
        ("sidon_extremal", "fitted", "lower", "largest B_2[1] subset exponent under + or x", _ev_sidon_extremal,
         ((lambda a, inst: len(a) >= 2 and _positive_ints(a, inst), "needs at least two positive integers"), (lambda a, inst: len(a) <= 40, "extraction sweep is kept to |A| <= 40"))),
        ("ratio_box_growth", "fitted", "lower", "ratio box size against exp(c log|A|/log K)", _ev_ratio_box_growth,
         ((lambda a, inst: len(a) >= 3 and _rank1_ints(a, inst), "needs at least three rank-1 integers"), _PAIR_SCAN)),
        ("subgroup_dim_lower", "fitted", "lower", "subgroup dimension against min(log p/loglog p, log p/log t, phi(t))", _adopt(_subgroup_sweep, degenerate=too_small), _SUBGROUP_SWEEP),
        ("subgroup_energy_upper", "fitted", "upper", "subgroup T_k against the regime-dependent window", _adopt(_subgroup_sweep, degenerate=too_small), _SUBGROUP_SWEEP),
        ("subgroup_growth_rate", "fitted", "lower", "|n Gamma| against (t/(n log^3 t))^n", _adopt(_subgroup_sweep, degenerate=too_small), _SUBGROUP_SWEEP),
        ("subgroup_dim_alpha", "fitted", "lower", "relative dimension of a subgroup against alpha dim/log t", _adopt(_subgroup_sweep, degenerate=too_small), _SUBGROUP_SWEEP),
        ("subgroup_dirichlet_prediction", "fitted", "none", "lattice prediction for the subgroup Dirichlet value (logged only)", _adopt(_subgroup_sweep, degenerate=too_small), _SUBGROUP_SWEEP),
        ("subgroup_coverage", "fitted", "upper", "first n with |n Gamma|^2 >= p against log^2 p/loglog p", _ev_subgroup_coverage, _SUBGROUP_SWEEP),
        ("difference_in_subgroup", "fitted", "upper", "largest A with nonzero differences inside Gamma", _ev_difference_in_subgroup, (_SUBGROUP, (_subgroup_p_at_most(300), "clique search is kept to p <= 300"))),
    ]
    return {entry[0]: Claim(*entry) for entry in entries}


REGISTRY: dict[str, Claim] = _claims()

HARD_CLAIMS = tuple(cid for cid, c in REGISTRY.items() if c.klass == "hard")
FITTED_CLAIMS = tuple(cid for cid, c in REGISTRY.items() if c.klass == "fitted")


def get_claim(claim_id: str) -> Claim:
    try:
        return REGISTRY[claim_id]
    except KeyError:
        raise PreconditionError(
            f"unknown claim id {claim_id!r}; known ids: {', '.join(sorted(REGISTRY))}"
        ) from None


def evaluate_claim(claim_id: str, a: GroundSet, instance, budget=None) -> list[ClaimRecord]:
    """Evaluate one claim on one realized instance, under the skip rules above.

    Calls on the same (set, budget) share stored facts; a call on another
    one drops them first.  The empty set skips before any evaluator runs,
    and so does a failed test of the claim's ``requires``.
    """
    global _facts_scope
    claim = get_claim(claim_id)
    if not a:
        return _skip(claim, instance, "empty set")
    if _facts_scope != (a, budget):
        _facts.clear()
        _facts_scope = (a, budget)
    try:
        for test, reason in claim.requires:
            if not test(a, instance):
                return _skip(claim, instance, reason)
        return claim.evaluate(claim, a, instance, budget)
    except BudgetExceededError as exc:
        return _skip(claim, instance, f"budget exhausted ({exc})")
    except (CoordinateOverflowError, SizeCapExceededError) as exc:
        return _skip(claim, instance, f"{type(exc).__name__}: {exc}")
    except VerificationFailedError as exc:
        return [
            ClaimRecord(
                claim=claim.id,
                klass="hard",
                instance=instance,
                measured={},
                violated=True,
                note=f"verification failed: {exc}",
            )
        ]


def fit_constant(claim_id: str, records) -> dict:
    """Aggregate fitted constants for one claim in its monotone direction.

    Upper-bound claims need the max observed constant, lower-bound claims
    the min; quantiles describe the distribution either way.
    """
    claim = get_claim(claim_id)
    pool = [
        r.fitted_constant
        for r in records
        if r.claim == claim_id and r.fitted_constant is not None
    ]
    if not records:
        raise PreconditionError("fit_constant needs at least one record")
    if not pool:
        return {
            "claim": claim_id,
            "direction": claim.direction,
            "count": 0,
            "note": "no measurable constants (all records skipped or degenerate)",
        }
    vals = sorted(float(v) for v in pool)

    def q(p: float) -> float:
        idx = p * (len(vals) - 1)
        lo = math.floor(idx)
        hi = math.ceil(idx)
        frac = idx - lo
        return vals[lo] * (1 - frac) + vals[hi] * frac

    binding = max(vals) if claim.direction == "upper" else (
        min(vals) if claim.direction == "lower" else None
    )
    return {
        "claim": claim_id,
        "direction": claim.direction,
        "count": len(vals),
        "binding": binding,
        "min": vals[0],
        "max": vals[-1],
        "quantiles": {"q25": q(0.25), "q50": q(0.5), "q75": q(0.75)},
        "finite": all(math.isfinite(v) for v in vals),
    }
