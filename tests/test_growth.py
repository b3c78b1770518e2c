import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import adlab.growth
from adlab import (
    CoordinateOverflowError,
    PreconditionError,
    additive_energy,
    beta_hat,
    dim_bounds,
    dim_shift_ratio,
    freiman_model,
    growth_sequence,
    integers,
    iterated_sumset,
    polynomial_growth_fit,
    residues,
    sumset,
    t_k,
    vectors,
    verify_growth_bounds,
    verify_span_isomorphism,
)
from adlab import groundset

from helpers import AMBIENT_KINDS, ambient_sets, record_sum_kernels
from oracles import naive_growth_sizes, naive_iterated


def test_growth_sequence_interval():
    gc = growth_sequence(integers(range(1, 9)), 4)
    assert gc.sizes == (8, 15, 22, 29)
    assert gc.truncated_at is None


def test_growth_sequence_matches_oracle():
    xs = [0, 1, 4, 9, 11]
    gc = growth_sequence(integers(xs), 5)
    for n, size in enumerate(gc.sizes, start=1):
        assert size == len(naive_iterated(xs, n))


def test_growth_sequence_generalized_ap():
    # {1, 10, 100} has no carries for small n: |nA| = C(n+2, 2)
    gc = growth_sequence(integers([1, 10, 100]), 4)
    assert gc.sizes == tuple(math.comb(n + 2, 2) for n in range(1, 5))


def test_growth_sequence_truncation(monkeypatch):
    monkeypatch.setattr(adlab.growth, "DEFAULT_GROWTH_CAP", 40)
    gc = growth_sequence(integers(range(1, 9)), 6)
    assert gc.sizes == (8, 15, 22, 29, 36)
    assert gc.truncated_at == 6


def _growth_cases():
    """(set, modulus) pairs on the line, mod N on both sides of 2^22, Z^2 and Z^3."""
    rng = random.Random(20)
    cases = [(integers([-7, -3, 0, 2, 11]), None), (integers([-40, -39, 5]), None)]
    for _ in range(6):
        cases.append((integers(rng.sample(range(-30, 31), rng.randint(1, 7))), None))
    cases.append((integers(rng.sample(range(-10**6, 10**6), 5)), None))
    cases.append((residues([1, 5, 6, 17, 30], 31), 31))
    for modulus in (7, 97, 1009, (1 << 22) + 15, 10**9 + 7):
        members = rng.sample(range(modulus), min(modulus, rng.randint(2, 6)))
        cases.append((residues(members, modulus), modulus))
    for rank, reach in ((2, 4), (3, 2)):
        for _ in range(3):
            coords = [tuple(rng.randint(-reach, reach) for _ in range(rank)) for _ in range(5)]
            cases.append((vectors(coords, rank), None))
    return cases


@pytest.mark.parametrize("a, modulus", _growth_cases())
def test_growth_sequence_matches_the_growth_oracle(a, modulus):
    want = naive_growth_sizes(a.elements, 5, modulus)
    gc = growth_sequence(a, 5)
    assert gc == adlab.growth.GrowthCurve(tuple(want))


@pytest.mark.parametrize("a, modulus", _growth_cases())
def test_growth_sequence_truncates_where_the_oracle_passes_the_cap(monkeypatch, a, modulus):
    want = naive_growth_sizes(a.elements, 5, modulus)
    monkeypatch.setattr(adlab.growth, "DEFAULT_GROWTH_CAP", want[1])
    first = next((n for n, size in enumerate(want, start=1) if size > want[1]), None)
    kept = want if first is None else want[: first - 1]
    assert growth_sequence(a, 5) == adlab.growth.GrowthCurve(tuple(kept), truncated_at=first)


def test_growth_sequence_checks_int64_before_each_step(monkeypatch):
    # 2A fits in int64; the least second coordinate of 3A, -9 * 2^60, does not.
    big = 3 << 60
    a = vectors([(big, -big), (0, 1), (1, 0)], 2)
    assert growth_sequence(a, 2).sizes == tuple(naive_growth_sizes(a.elements, 2))
    with pytest.raises(CoordinateOverflowError, match=f"^coordinate {-3 * big} outside"):
        growth_sequence(a, 3)
    # A cap passed at n = 2 returns the curve before the overflow at n = 3.
    monkeypatch.setattr(adlab.growth, "DEFAULT_GROWTH_CAP", 5)
    assert growth_sequence(a, 3) == adlab.growth.GrowthCurve((3,), truncated_at=2)


def _sorted_growth_cases():
    """(set, modulus, n_max, kernel of each step n = 2..n_max)."""
    rng = random.Random(24)
    wide = integers(rng.sample(range(1, 10**6), 20))
    signed = integers(rng.sample(range(-(10**6), 10**6), 20))
    # 50 codes near +2^62 or -2^62: 2A (2 500 pairs) reaches +-2^63 and fits.
    near_top = integers([2**62 - rng.randrange(10**9) for _ in range(50)])
    near_bottom = integers([-(2**62) + rng.randrange(10**9) for _ in range(50)])
    cyc = residues(rng.sample(range(10**9 + 7), 20), 10**9 + 7)
    huge = 2**62 + 1
    big_cyc = residues([huge - 1 - rng.randrange(10**6) for _ in range(20)], huge)
    plane = vectors([(rng.randrange(-1000, 1000), rng.randrange(-1000, 1000)) for _ in range(20)], 2)
    box = vectors([tuple(rng.randrange(-50, 51) for _ in range(3)) for _ in range(20)], 3)
    # Spreads near 2^21 per coordinate at n_max = 3: the codes reach 2^67.
    past = vectors([tuple(rng.randrange(-(2**20), 2**20) for _ in range(3)) for _ in range(20)], 3)
    # 20 values in [0, 10^4): 2A is sparse and small, 3A sparse and past
    # SORTED_MIN_PAIRS, and 4A dense, so the array turns into a bitset.
    mixed = integers(rng.sample(range(10**4), 20))
    return {
        "line": (wide, None, 4, ["set", "sorted", "sorted"]),
        "line-negatives": (signed, None, 4, ["set", "sorted", "sorted"]),
        "line-2^62": (near_top, None, 2, ["sorted"]),
        "line-minus-2^62": (near_bottom, None, 2, ["sorted"]),
        "mod-10^9+7": (cyc, 10**9 + 7, 4, ["set", "sorted", "sorted"]),
        "mod-2^62+1": (big_cyc, huge, 3, ["set", "set"]),
        "z2": (plane, None, 4, ["set", "sorted", "sorted"]),
        "z3": (box, None, 4, ["set", "sorted", "sorted"]),
        "z3-past-int64": (past, None, 3, ["set", "set"]),
        "set-sorted-bitset": (mixed, None, 5, ["set", "sorted", "bitset", "bitset"]),
    }


SORTED_GROWTH_CASES = _sorted_growth_cases()


@pytest.mark.parametrize("name", sorted(SORTED_GROWTH_CASES))
def test_growth_sequence_kernels_match_the_oracle_and_the_set_loop(monkeypatch, name):
    a, modulus, n_max, kernels = SORTED_GROWTH_CASES[name]
    want = tuple(naive_growth_sizes(a.elements, n_max, modulus))
    ran = record_sum_kernels(monkeypatch)
    gc = growth_sequence(a, n_max)
    assert gc == adlab.growth.GrowthCurve(want)
    assert {type(size) for size in gc.sizes} == {int}
    assert ran == kernels
    ran.clear()
    monkeypatch.setattr(groundset, "SORTED_MIN_PAIRS", 1 << 62)
    assert growth_sequence(a, n_max).sizes == want
    assert "sorted" not in ran


def test_growth_sequence_cap_on_sorted_steps(monkeypatch):
    # Blocks of 100 pairs, so each sorted step merges many blocks.
    monkeypatch.setattr(groundset, "SORTED_BLOCK_PAIRS", 100)
    a = SORTED_GROWTH_CASES["line"][0]
    sizes = tuple(naive_growth_sizes(a.elements, 4))
    for n in (3, 4):
        monkeypatch.setattr(adlab.growth, "DEFAULT_GROWTH_CAP", sizes[n - 1])
        assert growth_sequence(a, 4).sizes[: n] == sizes[: n]
        monkeypatch.setattr(adlab.growth, "DEFAULT_GROWTH_CAP", sizes[n - 1] - 1)
        assert growth_sequence(a, 4) == adlab.growth.GrowthCurve(sizes[: n - 1], truncated_at=n)


@pytest.mark.parametrize("kind", AMBIENT_KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_growth_sequence_sorted_on_every_step_matches_the_oracle(kind, data):
    # With no pair minimum and no dense range, every step n >= 2 is sorted.
    (a,), modulus = data.draw(ambient_sets(kind, 1, 8))
    want = tuple(naive_growth_sizes(a.elements, 4, modulus))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundset, "SORTED_MIN_PAIRS", 1)
        mp.setattr(groundset, "DENSE_RANGE_LIMIT", 0)
        ran = record_sum_kernels(mp)
        gc = growth_sequence(a, 4)
    assert gc.sizes == want and {type(size) for size in gc.sizes} == {int}
    assert ran == ["sorted"] * 3


def test_growth_bounds_interval_clean():
    rep = verify_growth_bounds(integers(range(1, 9)))
    assert not any(r.violated for r in rep.records)
    stems = {r.claim.split("_n")[0] for r in rep.records}
    assert {"growth_stage1", "growth_stage2", "split_block_growth"} <= stems
    assert rep.measured["curve"]["sizes"] == [8, 15, 22, 29]


def test_growth_bounds_stage_constants_recompute():
    a = integers(range(1, 9))
    rep = verify_growth_bounds(a)
    d = rep.measured["dim_lower"]
    by_claim = {r.claim: r for r in rep.records}
    r = by_claim["growth_stage2_n3"]
    size3 = r.measured["size"]
    assert size3 == 22
    assert r.fitted_constant == pytest.approx(d / (3 * size3 ** 0.5))


def test_split_block_record_recompute():
    a = integers(range(1, 9))
    rep = verify_growth_bounds(a)
    rec = next(r for r in rep.records if r.claim == "split_block_growth_n1_m1")
    w = dim_bounds(a, 1).lower_witness
    # k = 1, n = m = 1: S is the witness itself, |1S| * 2 >= |Lambda|
    assert rec.measured["size_ns"] == len(w)
    assert rec.measured["lhs"] == 2 * len(w)
    assert rec.measured["rhs"] == len(w)
    assert rec.measured["lhs"] >= rec.measured["rhs"]


def test_growth_bounds_rejects_empty():
    with pytest.raises(PreconditionError):
        verify_growth_bounds(integers([]))


# ---------------------------------------------------------------------------
# Beta statistic


def test_beta_hat_interval_frozen():
    bh = beta_hat(integers(range(1, 9)))
    assert bh.upper_sq == Fraction(4096, 841)
    assert bh.sum_size == 64 and bh.x_size == bh.y_size == 29
    assert bh.upper == pytest.approx(64 / 29)


def test_beta_hat_internal_consistency():
    bh = beta_hat(integers([0, 3, 7, 19, 31]))
    assert bh.upper_sq == Fraction(bh.sum_size ** 2, bh.x_size * bh.y_size)
    assert bh.candidates_tried > 0


def test_beta_hat_beats_explicit_candidates():
    a = integers(range(1, 9))
    bh = beta_hat(a)
    # X = Y = {0} and X = Y = A are both in the candidate family
    assert bh.upper_sq <= Fraction(len(a) ** 2, 1)
    aa = sumset(a, a)
    aaa = sumset(aa, a)
    assert bh.upper_sq <= Fraction(len(aaa) ** 2, len(a) ** 2)


# ---------------------------------------------------------------------------
# Polynomial growth exponent


def test_poly_fit_ap_exponent():
    ap = integers(range(0, 50, 7))
    rep = polynomial_growth_fit(ap)
    r1 = next(r for r in rep.records if r.claim == "poly_growth_k1")
    want = max(
        math.log((7 * n + 1) / 8) / math.log(n) for n in range(2, 6)
    )
    assert r1.measured["d_fit"] == pytest.approx(want)
    assert r1.measured["d_fit"] < 1.0
    assert r1.measured["dim_lower"] >= 1


def test_poly_fit_reports_both_orders():
    rep = polynomial_growth_fit(integers(range(1, 9)))
    claims = {r.claim for r in rep.records}
    assert {"poly_growth_k1", "poly_growth_k2"} <= claims


# ---------------------------------------------------------------------------
# Dimension under shifts


def test_shift_zero_keeps_dim():
    rng = random.Random(1006)
    # The zero-shift search runs on the meter the base search spent, so its
    # bounds can be looser than the base ones; they must still intersect.
    wide = integers(rng.sample(range(1, 10**6), rng.randint(4, 24)))
    for a, budget in ((integers([1, 2, 4, 8, 9]), None), (wide, 20_000)):
        rep = dim_shift_ratio(a, [0, 1], budget=budget)
        rec = next(r for r in rep.records if r.claim == "shift_zero_fixed")
        assert not rec.violated and rec.note == ""


def test_shift_zero_violation_names_its_cause(monkeypatch):
    a = integers([1, 2, 4, 8, 9])
    monkeypatch.setattr(adlab.growth, "translate", lambda s, x: integers([e + 1 for e in s]))
    rep = dim_shift_ratio(a, [0])
    rec = next(r for r in rep.records if r.claim == "shift_zero_fixed")
    assert rec.violated and rec.note == "zero shift changed the set"


def test_shift_ratio_fits_only_exact_pairs():
    rng = random.Random(1006)
    a = integers(rng.sample(range(1, 10**6), rng.randint(4, 24)))
    base = dim_bounds(a, 1, budget=20_000)
    assert (base.lower, base.upper, base.exact) == (14, 14, True)
    # At this budget the shifts by 0 and 1 stay inexact.  Searched first on
    # the shared meter, the shift by 7 comes back [15, 15], all 15 elements
    # dissociated.
    for shifts, constant in (([0, 1], None), ([7, 1], 15 / 14)):
        rep = dim_shift_ratio(a, shifts, budget=20_000)
        fit = next(r for r in rep.records if r.claim == "shift_dim_ratio")
        assert not fit.violated
        assert fit.fitted_constant == constant
        assert [row["exact"] for row in fit.measured["shifts"]] == [s == 7 for s in shifts]


def test_shift_ratio_records_each_shift():
    a = integers(range(1, 9))
    rep = dim_shift_ratio(a, [0, 3, -5])
    rec = next(r for r in rep.records if r.claim == "shift_dim_ratio")
    shifts = {s["shift"]: s for s in rec.measured["shifts"]}
    assert shifts[0]["dim_lower"] == rec.measured["base_dim_lower"] == 4
    # shifting [1..8] by -5 folds elements onto negatives of each other
    assert shifts[-5]["dim_lower"] == 3
    for s in shifts.values():
        su = dim_bounds(integers([x + s["shift"] for x in range(1, 9)]), 1)
        assert (su.lower, su.upper) == (s["dim_lower"], s["dim_upper"])


# ---------------------------------------------------------------------------
# Freiman models


def test_freiman_model_interval():
    a = integers(range(1, 9))
    fm = freiman_model(a, seed=1)
    assert fm.verified
    assert len(fm.mapping) == len(a)
    assert len(set(fm.mapping.values())) == len(a)
    assert all(0 <= v < fm.modulus for v in fm.mapping.values())
    assert verify_span_isomorphism(fm.subset, fm.mapping, fm.l, fm.modulus)


def test_freiman_model_preserves_energy():
    a = integers(range(1, 9))
    fm = freiman_model(a, seed=1)
    image = residues(fm.mapping.values(), fm.modulus)
    assert t_k(image, 2).value == t_k(a, 2).value == 344
    assert additive_energy(image, image).value == 344


def test_freiman_verifier_rejects_tampering():
    a = integers(range(1, 9))
    fm = freiman_model(a, seed=1)
    ks = sorted(fm.mapping)
    collide = dict(fm.mapping)
    collide[ks[0]] = collide[ks[1]]
    assert not verify_span_isomorphism(fm.subset, collide, fm.l, fm.modulus)
    swapped = dict(fm.mapping)
    swapped[ks[0]], swapped[ks[1]] = swapped[ks[1]], swapped[ks[0]]
    assert not verify_span_isomorphism(fm.subset, swapped, fm.l, fm.modulus)


def test_freiman_translation_still_isomorphism():
    a = integers(range(1, 9))
    fm = freiman_model(a, seed=1)
    shifted = {k: (v + 1) % fm.modulus for k, v in fm.mapping.items()}
    assert verify_span_isomorphism(fm.subset, shifted, fm.l, fm.modulus)


def test_freiman_model_deterministic():
    a = integers([0, 1, 5, 11, 19])
    f1 = freiman_model(a, seed=4)
    f2 = freiman_model(a, seed=4)
    assert f1.mapping == f2.mapping and f1.modulus == f2.modulus


def test_iterated_sumset_agrees_with_chain():
    a = integers([0, 2, 5])
    chain = a
    for n in range(2, 5):
        chain = sumset(chain, a)
        assert set(iterated_sumset(a, n).elements) == set(chain.elements)
