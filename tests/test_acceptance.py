"""Acceptance gate: one test per release criterion.

Each test is self-contained, uses independent brute-force oracles from
``oracles.py`` where exact values are claimed, and enforces the stated
runtime envelope with a wall-clock assertion.  Run with ``pytest -v`` to
get one pass/fail line per criterion.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from adlab import (
    additive_energy,
    bsg_asymmetric,
    dec_tk,
    dim_bounds,
    dim_k_exact,
    dim_shift_ratio,
    dirichlet_min,
    freiman_model,
    integers,
    is_k_dissociated,
    iterated_sumset,
    ratio_box,
    rudin_ratio,
    subgroup,
    sumset,
    t_k,
    verify_growth_bounds,
    verify_span_isomorphism,
)
from adlab.harness import clear_caches, evaluate_claim

from oracles import naive_dim_k, naive_dim_k1, naive_ratio_box, naive_tk


FIRST_16_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def test_criterion_01_exact_dimension_oracle():
    t0 = time.perf_counter()
    for n in range(1, 17):
        xs = list(range(1, n + 1))
        assert dim_k_exact(integers(xs), 1).value == naive_dim_k1(xs), f"n={n}"
    assert dim_k_exact(integers(range(1, 5)), 1).value == 3
    assert dim_k_exact(integers(range(1, 9)), 1).value == 4
    assert dim_k_exact(integers(range(1, 5)), 2).value == 2
    assert dim_k_exact(integers(range(1, 10)), 2).value == 3
    assert naive_dim_k(list(range(1, 5)), 2) == 2
    assert naive_dim_k(list(range(1, 10)), 2) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_02_energy_oracle_equivalence():
    t0 = time.perf_counter()
    for mask in range(1 << 8):
        xs = [i + 1 for i in range(8) if mask >> i & 1]
        a = integers(xs)
        for k in (2, 3):
            assert t_k(a, k).value == naive_tk(xs, k), (xs, k)
    assert t_k(integers([0, 1]), 2).value == 6
    assert t_k(integers([0, 1]), 3).value == 20
    assert t_k(integers([1, 2, 3]), 2).value == 19
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_03_subgroup_pipeline():
    g = subgroup(7, 3)
    assert g.members.elements == (1, 2, 4)
    assert t_k(g.members, 2).value == 15
    dv = dirichlet_min(g.members, s=2)
    assert dv.exact
    assert isinstance(dv.value, Fraction)
    assert dv.value == Fraction(2, 7)


def test_criterion_04_unconditional_inequality_suite():
    claim_ids = (
        "pluennecke_doubling",
        "hoelder_energy_chain",
        "growth_monotone",
        "dim_chain",
        "dim_counting_lower",
        "dirichlet_dim_lower",
        "energy_dim_lower",
    )
    t0 = time.perf_counter()
    violations = []

    def sweep(a, inst):
        for cid in claim_ids:
            for rec in evaluate_claim(cid, a, inst, budget=200_000):
                if rec.violated:
                    violations.append((cid, rec.instance, rec.measured))

    # all nonempty A inside [10]
    for mask in range(1, 1 << 10):
        sweep(
            integers([i + 1 for i in range(10) if mask >> i & 1]),
            {"generator": "literal"},
        )
    # 200 seeded random sets below 10^6
    for i in range(200):
        rng = random.Random(1000 + i)
        xs = rng.sample(range(1, 10**6), rng.randint(4, 24))
        sweep(integers(xs), {"generator": "random_sample", "seed": 1000 + i})
    # every multiplicative subgroup for the listed primes
    for p in (7, 13, 31, 61):
        for t in range(1, p):
            if (p - 1) % t == 0:
                sweep(
                    subgroup(p, t).members,
                    {"generator": "subgroup", "params": {"p": p, "t": t}},
                )
    clear_caches()
    assert violations == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_05_rudin_constant_finite():
    rng = random.Random(500)
    maxima = {k: Fraction(0) for k in (1, 2, 3, 4)}
    verified = 0
    while verified < 54:
        size = 4 + verified % 9
        lam = integers(rng.sample(range(1, 10**7), size))
        cert = is_k_dissociated(lam, 1)
        if not cert.is_dissociated:
            continue  # resample; wide random sets are almost always dissociated
        assert cert.verify(lam)
        for k in (1, 2, 3, 4):
            ratio = rudin_ratio(lam, k)
            assert isinstance(ratio, Fraction) and ratio > 0
            maxima[k] = max(maxima[k], ratio)
        verified += 1
    assert verified >= 50
    for k, value in maxima.items():
        assert math.isfinite(float(value)), (k, value)
    assert maxima[1] == 1  # T_1 = |A| makes the k = 1 ratio exactly one


def test_criterion_06_split_block_growth_exact():
    tested = [
        integers(range(1, 9)),
        integers(range(1, 13)),
        integers(range(1, 17)),
        integers([2**i for i in range(10)]),
        integers([3**i for i in range(7)]),
        integers(list(range(1, 7)) + list(range(100, 106))),
        integers(range(3, 3 + 12 * 7, 7)),
        integers(random.Random(42).sample(range(1, 10**4), 16)),
    ]
    for a in tested:
        # the library checks the inequality exactly and reports each (n, m)
        # as a hard record; a violation shows as violated=True
        rep = verify_growth_bounds(a)
        split_records = [r for r in rep.records if r.claim.startswith("split_block_growth")]
        d = rep.measured["dim_lower"]
        for rec in split_records:
            assert not rec.violated
            assert 4 * rec.measured["n"] * rec.measured["m"] <= d
            assert rec.measured["lhs"] >= rec.measured["rhs"]
        if d >= 4:
            assert split_records, a.describe()

    # independent recomputation on a progression whose witness is the set itself
    gp = integers([2**i for i in range(12)])
    witness = dim_bounds(gp, 1).lower_witness
    assert witness is not None and is_k_dissociated(witness, 1).is_dissociated
    elems = sorted(witness.elements)
    d = len(elems)
    for n, m in [(n, m) for n in range(1, 4) for m in range(1, 4) if 4 * n * m <= d]:
        bounds = [round(j * d / m) for j in range(m + 1)]
        chunks = [elems[bounds[j] : bounds[j + 1]] for j in range(m)]
        assert all(chunks)
        s = integers(chunks[0])
        for ch in chunks[1:]:
            s = sumset(s, integers(ch))
        ns = iterated_sumset(s, n)
        lhs = len(ns) * (2**n * math.factorial(n)) ** m
        rhs = 1
        for ch in chunks:
            rhs *= len(ch) ** n
        assert lhs >= rhs, (n, m, lhs, rhs)


def test_criterion_07_ratio_box_oracle():
    for i in range(100):
        rng = random.Random(7000 + i)
        xs = rng.sample(range(0, 121), rng.randint(1, 40))
        assert ratio_box(integers(xs)).n == naive_ratio_box(xs), sorted(xs)
    assert ratio_box(integers(range(0, 35, 7))).n == 4
    assert ratio_box(integers(range(3, 3 + 5 * 11, 11))).n == 4


def test_criterion_08_dec_tk_contract():
    t0 = time.perf_counter()
    instances = [
        integers([2**i for i in range(16)]),
        integers(FIRST_16_PRIMES),
        integers(range(1, 17)),
    ]
    for a in instances:
        res = dec_tk(a, s=2)
        b_set, c_set = set(res.b.elements), set(res.c.elements)
        assert b_set | c_set == set(a.elements)
        assert not b_set & c_set
        assert res.energies["t_s_mult_c"] == t_k(res.c, res.s, op="*").value
        assert res.energies["t_s_add_b"] == t_k(res.b, res.s).value
        if res.energies["peels"] >= 1:
            assert res.energies["t_s_mult_c"] <= res.threshold
            assert res.energies["t_q_add_b"] == t_k(res.b, res.q).value
            if len(res.b) >= 2:
                assert res.energies["t_q_add_b"] < len(res.b) ** (2 * res.q - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"criterion 8 took {elapsed:.1f}s"


def test_criterion_09_bsg_contract():
    done = 0
    for i in range(20):
        rng = random.Random(9000 + i)
        na = rng.randint(6, 14)
        nb = rng.randint(3, na)
        a = integers(rng.sample(range(0, 60), na))
        b = integers(rng.sample(range(0, 60), nb))
        e = additive_energy(a, b).value
        k_target = Fraction(2 * len(a) * len(b) ** 2, e)
        assert e >= Fraction(len(a) * len(b) ** 2, k_target)  # verified precondition
        res = bsg_asymmetric(a, b, k_target)
        assert len(res.h) > 0
        hh = sumset(res.h, res.h)
        assert res.stats["doubling"] == Fraction(len(hh), len(res.h))
        counts = Counter(
            bb - hh_el for bb in b.elements for hh_el in res.h.elements
        )
        assert res.stats["intersection"] == max(counts.values())
        done += 1
    assert done == 20


def test_criterion_10_shift_experiment():
    shifts = list(range(-20, 21))
    max_ratio = Fraction(0)
    for mask in range(1, 1 << 10):
        xs = [i + 1 for i in range(10) if mask >> i & 1]
        a = integers(xs)
        rep = dim_shift_ratio(a, shifts)
        zero_rec = next(r for r in rep.records if r.claim == "shift_zero_fixed")
        assert not zero_rec.violated, xs
        ratio_rec = next(r for r in rep.records if r.claim == "shift_dim_ratio")
        base = ratio_rec.measured["base_dim_lower"]
        assert base == dim_k_exact(a, 1).value >= 1
        for entry in ratio_rec.measured["shifts"]:
            assert entry["exact"]
            if entry["shift"] == 0:
                assert entry["dim_lower"] == base
            max_ratio = max(max_ratio, Fraction(entry["dim_lower"], base))
    assert math.isfinite(float(max_ratio)) and max_ratio >= 1
    print(f"max shift dimension ratio over A in [10], |x| <= 20: {max_ratio}")


def test_criterion_11_freiman_model_exhaustive():
    checked = 0
    for size in range(1, 9):
        for xs in itertools.combinations(range(1, 13), size):
            fm = freiman_model(integers(xs), seed=0)
            assert fm.verified, xs
            assert verify_span_isomorphism(fm.subset, fm.mapping, fm.l, fm.modulus), xs
            checked += 1
    assert checked == sum(math.comb(12, m) for m in range(1, 9))


def test_criterion_12_deterministic_reports():
    cmd = ["-m", "adlab.cli", "verify", "--suite", "core"]
    runs = []
    # the third run drops asserts: verdicts must not depend on them
    for flags in ([], [], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, *cmd], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        payload.pop("timing", None)
        runs.append(json.dumps(payload, sort_keys=True).encode())
    assert runs[0] == runs[1] == runs[2]
