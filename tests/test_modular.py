import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from adlab import (
    PreconditionError,
    SizeCapExceededError,
    SubgroupSpec,
    VerificationFailedError,
    dilate,
    dirichlet_min,
    fourier_max,
    fourier_spectrum,
    integers,
    random_cover,
    residues,
    subgroup,
    subgroup_growth_experiment,
    verify_dirichlet_dim,
)
from adlab.modular import DIRICHLET_SCAN_CAP

from oracles import naive_dft_peak, naive_dirichlet


# ---------------------------------------------------------------------------
# Multiplicative subgroups


def test_subgroup_frozen_members():
    assert subgroup(7, 3).members.elements == (1, 2, 4)
    assert subgroup(13, 4).members.elements == (1, 5, 8, 12)
    assert subgroup(31, 5).members.elements == (1, 2, 4, 8, 16)


def test_subgroup_is_multiplicatively_closed():
    for p, t in ((7, 3), (13, 6), (31, 5), (61, 12)):
        g = subgroup(p, t).members
        els = set(g.elements)
        assert len(els) == t
        for a, b in itertools.product(els, repeat=2):
            assert a * b % p in els


def test_subgroup_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        subgroup(7, 4)  # 4 does not divide 6
    with pytest.raises(PreconditionError):
        subgroup(8, 2)  # not prime


def test_subgroup_spec_rejects_wrong_generator():
    members = subgroup(7, 3).members
    # 3 is a primitive root mod 7: order 6, not 3
    with pytest.raises(VerificationFailedError, match="order 3"):
        SubgroupSpec(p=7, t=3, generator=3, members=members)
    with pytest.raises(VerificationFailedError, match="members"):
        SubgroupSpec(p=7, t=3, generator=2, members=subgroup(7, 2).members)


# ---------------------------------------------------------------------------
# Dirichlet-type minimum


def test_dirichlet_frozen_values():
    dv = dirichlet_min(subgroup(7, 3).members, s=2)
    assert dv.exact and dv.value == Fraction(2, 7)
    one = dirichlet_min(residues([1], 5), s=2)
    assert one.value == Fraction(1, 25)


def _dirichlet_at(xs, q, s, n):
    return sum(
        (Fraction(min((q * a) % n, n - (q * a) % n), n) ** s for a in xs),
        Fraction(0),
    )


def test_dirichlet_matches_oracle():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.choice([7, 11, 12, 15])
        xs = rng.sample(range(n), rng.randint(1, min(6, n - 1)))
        s = rng.choice([1, 2, 3])
        dv = dirichlet_min(residues(xs, n), s=s)
        assert dv.exact
        assert dv.value == naive_dirichlet(xs, s, n)
        # the reported argmin must actually achieve the minimum
        assert _dirichlet_at(xs, dv.argmin_q, s, n) == dv.value


def test_dirichlet_invariant_under_unit_dilation():
    g = subgroup(13, 4).members
    base = dirichlet_min(g, s=2).value
    for u in (2, 3, 7, 11):
        assert dirichlet_min(dilate(g, u), s=2).value == base


def test_dirichlet_full_scan_keeps_the_first_minimiser():
    # The scan keeps the first q that reaches the minimum.
    rng = random.Random(29)
    for _ in range(20):
        n = rng.choice([7, 12, 31, 101])
        xs = rng.sample(range(n), rng.randint(1, min(6, n - 1)))
        for s in (1, 2, 3):
            full = dirichlet_min(residues(xs, n), s=s)
            first = min(range(1, n), key=lambda q: _dirichlet_at(xs, q, s, n))
            assert full.argmin_q == first
    # Integers with negatives, reduced mod an explicit N.
    ints = dirichlet_min(integers([-3, 4, 10]), s=2, modulus=101)
    assert ints.argmin_q == min(range(1, 101), key=lambda q: _dirichlet_at([-3, 4, 10], q, 2, 101))


@pytest.mark.parametrize("s", [0, 1.5])
def test_dirichlet_needs_a_positive_integer_s(s):
    with pytest.raises(PreconditionError):
        dirichlet_min(subgroup(7, 3).members, s=s)


def test_dirichlet_scan_is_refused_past_the_cap():
    dirichlet_min(residues([1], DIRICHLET_SCAN_CAP), s=1)
    with pytest.raises(SizeCapExceededError):
        dirichlet_min(residues([1], DIRICHLET_SCAN_CAP + 1), s=1)


# ---------------------------------------------------------------------------
# Fourier peaks


def test_fourier_parseval():
    for xs, n in (([1, 2, 4], 7), (list(range(1, 6)), 13), ([0, 2, 3, 10], 17)):
        spec = fourier_spectrum(residues(xs, n))
        assert spec.shape == (n,)
        assert np.sum(np.abs(spec) ** 2) == pytest.approx(n * len(xs))


def test_fourier_peak_matches_oracle():
    import cmath

    rng = random.Random(8)
    for _ in range(12):
        n = rng.choice([7, 11, 13, 16])
        xs = rng.sample(range(n), rng.randint(1, n - 1))
        fp = fourier_max(residues(xs, n))
        assert fp.max_abs == pytest.approx(naive_dft_peak(xs, n), abs=1e-9)
        # the reported frequency must realize the peak
        at_arg = abs(sum(cmath.exp(2j * cmath.pi * a * fp.argmax / n) for a in xs))
        assert at_arg == pytest.approx(fp.max_abs, abs=1e-9)
        assert 1 <= fp.argmax < n
        assert fp.size == len(xs) and fp.modulus == n


def test_fourier_interval_peaks_at_one():
    fp = fourier_max(residues(range(1, 6), 13))
    assert fp.argmax == 1


def test_fourier_full_residue_class_is_flat():
    fp = fourier_max(residues(range(13), 13))
    assert fp.max_abs == pytest.approx(0, abs=1e-9)


def test_fourier_zero_freq_excluded():
    # the trivial frequency always has weight |A|; the peak must be elsewhere
    fp = fourier_max(residues([0, 5], 11))
    assert fp.max_abs < 2


# ---------------------------------------------------------------------------
# Dimension lower bounds through Dirichlet sums


def test_verify_dirichlet_dim_clean():
    rep = verify_dirichlet_dim(residues(range(1, 11), 101), s=2)
    assert not any(r.violated for r in rep.records)
    claims = {r.claim for r in rep.records}
    assert "dirichlet_dim_lower" in claims
    assert rep.measured["dirichlet"].exact
    assert rep.measured["dim_lower"] >= 1


def test_verify_dirichlet_dim_on_subgroup():
    g = subgroup(31, 5).members
    rep = verify_dirichlet_dim(g, s=2)
    assert not any(r.violated for r in rep.records)


# ---------------------------------------------------------------------------
# Subgroup growth experiments


def test_subgroup_growth_frozen_curve():
    rep = subgroup_growth_experiment(7, 3)
    m = rep.measured
    assert m["curve"]["sizes"] == [3, 6, 7, 7]
    assert m["energies"] == {"1": 3, "2": 15, "3": 111}
    assert m["dim_exact"] and m["dim_lower"] == 2
    assert m["regime"] == "large"


def test_subgroup_growth_energies_oracle():
    rep = subgroup_growth_experiment(7, 3)
    g = sorted(subgroup(7, 3).members.elements)
    for k in (2, 3):
        naive = sum(
            1
            for tup in itertools.product(g, repeat=2 * k)
            if sum(tup[:k]) % 7 == sum(tup[k:]) % 7
        )
        assert rep.measured["energies"][str(k)] == naive


def test_subgroup_growth_records_clean():
    rep = subgroup_growth_experiment(13, 6, n_max=3, k_max=2)
    assert not any(r.violated for r in rep.records)
    stems = {r.claim.rsplit("_n", 1)[0].rsplit("_k", 1)[0] for r in rep.records}
    assert "subgroup_dim_lower" in stems
    assert "subgroup_energy_upper" in stems


# ---------------------------------------------------------------------------
# Random covers


def test_random_cover_extremes():
    a = residues([1, 2, 4], 7)
    s = subgroup(7, 3).members
    all_in = random_cover(a, s, 1.0, trials=3, seed=2)
    assert set(all_in.x) == set(a.elements) and len(all_in.omega) == 0
    none_in = random_cover(a, s, 0.0, trials=3, seed=2)
    assert none_in.x == () and len(none_in.omega) == none_in.stats["universe_size"]


def test_random_cover_seed_deterministic():
    a = residues(range(1, 17), 17)
    s = subgroup(17, 4).members
    r1 = random_cover(a, s, 0.5, trials=5, seed=9)
    r2 = random_cover(a, s, 0.5, trials=5, seed=9)
    assert r1.x == r2.x and r1.omega.elements == r2.omega.elements
    assert r1.stats == r2.stats


def test_random_cover_partition():
    a = residues(range(1, 17), 17)
    s = subgroup(17, 4).members
    res = random_cover(a, s, 0.4, trials=4, seed=1)
    # X is a subset of A; omega covers what X + S misses
    assert set(res.x) <= set(a.elements)
    assert res.stats["x_size"] == len(res.x)
