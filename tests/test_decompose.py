import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from adlab import (
    CoordinateOverflowError,
    PreconditionError,
    additive_energy,
    beta_decomposition,
    bsg_asymmetric,
    dec_tk,
    dissociated_peeling,
    integers,
    level_set,
    rep_fn,
    ratio_box,
    residues,
    sidon_extract,
    sumset,
    t_k,
    vectors,
)
from adlab.decompose import REP_SUPPORT_CAP, SIDON_EXACT_LIMIT, _energy_chain

from oracles import naive_ratio_box, naive_relation, naive_sidon_max


# ---------------------------------------------------------------------------
# Peeling


def test_peeling_partitions_the_set():
    a = integers(range(1, 9))
    peel = dissociated_peeling(a, 3)
    pieces = [set(b.elements) for b in peel.blocks] + [set(peel.remainder.elements)]
    merged = set().union(*pieces)
    assert merged == set(a.elements)
    assert sum(len(p) for p in pieces) == len(a)


def test_peeling_blocks_are_dissociated():
    a = integers([1, 2, 3, 5, 8, 13, 21, 34, 55])
    peel = dissociated_peeling(a, 4)
    assert peel.certified
    for b in peel.blocks:
        assert len(b) == 4
        assert naive_relation(list(b.elements), 1) is None


def test_peeling_remainder_has_certified_dim():
    peel = dissociated_peeling(integers(range(1, 9)), 3)
    assert peel.remainder_dim is not None and peel.remainder_dim.exact
    assert peel.remainder_dim.value <= len(peel.remainder)


def test_peeling_remainder_check_out_of_budget():
    # Mod 2^41 each search node weighs more than the default budget, so the
    # remainder check's greedy fallback runs out too and certifies only [0, 3].
    peel = dissociated_peeling(residues([1, 2, 3], 2**41), 3, budget=5 * 2**27)
    assert peel.blocks == () and not peel.certified
    db = peel.remainder_dim
    assert (db.lower, db.upper, db.exact, db.note) == (0, 3, False, "budget")
    assert peel.note == "remainder dimension not certified below l (budget truncation)"


def test_peeling_no_block_when_l_exceeds_set():
    peel = dissociated_peeling(integers([1, 2]), 5)
    assert peel.blocks == ()
    assert set(peel.remainder.elements) == {1, 2}


# ---------------------------------------------------------------------------
# Dyadic level sets


def test_level_set_frozen_bands():
    a = integers(range(1, 5))
    r = rep_fn([(a, "+"), (a, "+")])
    bands = level_set(r)
    shaped = [(band, set(g.elements)) for band, g in bands]
    assert shaped == [
        (Fraction(1, 2), {2, 8}),
        (Fraction(1), {3, 7}),
        (Fraction(2), {4, 5, 6}),
    ]


def test_level_set_partitions_support():
    a = integers([0, 1, 3, 7, 11])
    r = rep_fn([(a, "+"), (a, "+")])
    bands = level_set(r)
    support = set(sumset(a, a).elements)
    seen = set()
    for band, g in bands:
        for x in g.elements:
            assert x not in seen
            seen.add(x)
            # the multiplicity sits inside (band, 2*band]
            assert band < r.entries[x] <= 2 * band
    assert seen == support


# ---------------------------------------------------------------------------
# Asymmetric graph decomposition


def test_bsg_contract_small():
    a = integers(range(1, 9))
    k = Fraction(2)
    assert additive_energy(a, a).value * k >= len(a) ** 3  # precondition holds
    res = bsg_asymmetric(a, a, k)
    assert len(res.h) > 0
    hh = sumset(res.h, res.h)
    assert res.stats["hh_size"] == len(hh)
    assert res.stats["doubling"] == Fraction(len(hh), len(res.h))
    shifted = {e + res.x for e in res.h.elements}
    assert res.stats["intersection"] == len(shifted & set(a.elements))


def test_bsg_rejects_weak_energy():
    a = integers([1, 10, 100, 1000])  # Sidon: E = 2n^2 - n
    with pytest.raises(PreconditionError):
        bsg_asymmetric(a, a, Fraction(1))


def test_bsg_deterministic():
    a = integers([0, 1, 2, 3, 5, 8, 11])
    r1 = bsg_asymmetric(a, a, Fraction(3))
    r2 = bsg_asymmetric(a, a, Fraction(3))
    assert r1.h.elements == r2.h.elements and r1.x == r2.x
    assert r1.stats == r2.stats


def test_bsg_asymmetric_pair_contract():
    a = integers(range(1, 13))
    b = integers(range(4, 12))
    e = additive_energy(a, b).value
    k = Fraction(2 * len(a) * len(b) ** 2, e)
    res = bsg_asymmetric(a, b, k)
    assert len(res.h) > 0
    hh = sumset(res.h, res.h)
    assert res.stats["doubling"] == Fraction(len(hh), len(res.h))
    shifted = {el + res.x for el in res.h.elements}
    assert res.stats["intersection"] == len(shifted & set(b.elements))


# _energy_chain(b, 3, REP_SUPPORT_CAP) on sets that meet each stop rule:
# supports of r_{2^i B} for the levels built, and T_{2^i}(B) where pinned.
# [1, 1500] stops before level 1 and [1, 1399] before level 2, because
# |supp|^2 > 8 * cap there; the 53 random elements stop at level 2, whose
# support passes the cap although 1431^2 does not pass 8 * cap.
ENERGY_CHAINS = [
    (range(1, 1501), [1500], None),
    (range(1, 1400), [1399, 2797], None),
    ([3**i for i in range(12)], [12, 78, 1310, 41559], [12, 276, 386180, 6276340862180]),
    (random.Random(5).sample(range(1, 10**9), 53), [53, 1431], [53, 5565]),
]


@pytest.mark.parametrize("xs, supports, energies", ENERGY_CHAINS)
def test_energy_chain_stop_rules(xs, supports, energies):
    reps, chain = _energy_chain(integers(xs), 3, REP_SUPPORT_CAP)
    assert [len(r.entries) for r in reps] == supports
    assert chain == [r.square_sum() for r in reps]
    if energies is not None:
        assert chain == energies


# ---------------------------------------------------------------------------
# Energy-guided refinement


def test_beta_decomposition_selects_dense_core():
    a = integers(range(1, 17))
    bd = beta_decomposition(a, k=2)
    assert 0 < len(bd.a_star) <= len(a)
    assert set(bd.a_star.elements) <= set(a.elements)
    assert bd.stats["density_ratio"] == Fraction(len(a), len(bd.a_star))


def test_beta_decomposition_deterministic():
    a = integers([1, 4, 9, 16, 25, 36, 49, 64])
    b1 = beta_decomposition(a, k=2)
    b2 = beta_decomposition(a, k=2)
    assert b1.a_star.elements == b2.a_star.elements


# ---------------------------------------------------------------------------
# Additive/multiplicative splitting


def test_dec_tk_interval_clean_exit():
    a = integers(range(1, 9))
    res = dec_tk(a, s=2)
    assert set(res.b.elements) | set(res.c.elements) == set(a.elements)
    assert set(res.b.elements) & set(res.c.elements) == set()
    assert res.energies["t_s_mult_c"] == t_k(res.c, 2, op="*").value
    assert res.energies["peels"] == 0
    # clean exit requires the multiplicative energy to sit under the threshold
    assert res.energies["t_s_mult_c"] <= res.threshold


def test_dec_tk_geometric_progression_peels():
    a = integers([2 ** i for i in range(10)])
    res = dec_tk(a, s=2)
    assert set(res.b.elements) | set(res.c.elements) == set(a.elements)
    assert set(res.b.elements) & set(res.c.elements) == set()
    assert res.energies["t_s_mult_c"] == t_k(res.c, 2, op="*").value
    if res.energies["peels"] >= 1 and len(res.b) >= 2:
        q = res.q
        assert res.energies["t_q_add_b"] == t_k(res.b, q).value
        assert res.energies["t_q_add_b"] < len(res.b) ** (2 * q - 1)


def test_dec_tk_records_iterations():
    a = integers([2 ** i for i in range(10)])
    res = dec_tk(a, s=2)
    # the trace logs every pass, including the final clean check
    peels = res.energies["peels"]
    assert peels <= len(res.iterations) <= peels + 1
    assert peels == sum(1 for step in res.iterations if step["above_threshold"])


def test_dec_tk_flags_a_peel_that_takes_all_of_c():
    res = dec_tk(integers([29, 47, 82]), s=2)
    assert res.b.elements == (29, 47, 82)
    assert res.c.elements == ()
    assert res.flags == ["iteration 0: peel took all of C; stopping early"]
    assert res.energies["peels"] == 1


# ---------------------------------------------------------------------------
# Sidon extraction


def _is_sidon(a, h):
    """Whether the h-multiset sums of a's elements, added in its ambient, are distinct."""
    sums = []
    for tup in combinations_with_replacement(a.elements, h):
        total = tup[0]
        for x in tup[1:]:
            total = a.ambient.add(total, x)
        sums.append(total)
    return len(sums) == len(set(sums))


def test_sidon_frozen_values():
    assert sidon_extract(integers(range(1, 6)), 2).elements == (1, 2, 4)
    got = sidon_extract(integers([2, 3, 4, 9]), 2, op="*")
    assert set(got.elements) == {2, 3, 4, 9}


def test_sidon_exact_matches_oracle():
    rng = random.Random(17)
    for _ in range(10):
        xs = sorted(rng.sample(range(1, 40), rng.randint(2, 8)))
        for h in (2, 3):
            got = sidon_extract(integers(xs), h)
            assert set(got.elements) <= set(xs)
            assert _is_sidon(got, h)
            assert len(got) == naive_sidon_max(xs, h)


def test_sidon_greedy_mode_gives_valid_subset():
    xs = sorted(random.Random(23).sample(range(1, 500), 30))
    got = sidon_extract(integers(xs), 2, mode="greedy")
    assert set(got.elements) <= set(xs)
    assert _is_sidon(got, 2)


def test_sidon_switches_to_greedy_past_the_exact_limit():
    # 0 comes first by magnitude and blocks every other power of two
    # (0 + 2x = x + x), so greedy keeps 0 and half the powers while the
    # largest B_2[1] subset drops 0 and keeps them all.
    for n in (SIDON_EXACT_LIMIT, SIDON_EXACT_LIMIT + 1):
        xs = [0] + [-(2**i) for i in range(n - 1)]
        a = integers(xs)
        got = sidon_extract(a, 2)
        greedy = sidon_extract(a, 2, mode="greedy")
        best = naive_sidon_max(xs, 2)
        assert len(greedy) < best
        if n <= SIDON_EXACT_LIMIT:
            assert _is_sidon(got, 2) and len(got) == best
        else:
            assert got == greedy


@pytest.mark.parametrize(
    "a",
    [
        integers([-9, -4, 0, 2, 3, 11]),
        residues([0, 1, 3, 7, 12, 20], 31),
        residues([1, 2, 3, 4, 5, 6], 7),
        vectors([(0, 0), (1, 0), (0, 1), (1, 1), (2, -1), (-1, 3)], 2),
    ],
)
def test_sidon_exact_and_greedy_in_every_ambient(a):
    for h in (2, 3):
        best = max(
            r for r in range(len(a) + 1)
            for sub in combinations(a.elements, r) if _is_sidon(a.restrict(sub), h)
        )
        exact = sidon_extract(a, h)
        assert set(exact.elements) <= set(a.elements) and _is_sidon(exact, h)
        assert len(exact) == best
        greedy = sidon_extract(a, h, mode="greedy")
        assert _is_sidon(greedy, h)
        # maximal: every element left out breaks the property
        for x in set(a.elements) - set(greedy.elements):
            assert not _is_sidon(greedy.union(a.restrict([x])), h)


def test_sidon_int64_bounds_and_empty_input():
    assert sidon_extract(integers([]), 2).elements == ()
    assert sidon_extract(integers([]), 2, op="*").elements == ()
    # 2 * (2^62 - 1) and 2 * -2^62 fit in int64; their 3-fold sums do not.
    assert sidon_extract(integers([1, 2**62 - 1]), 2).elements == (1, 2**62 - 1)
    assert sidon_extract(integers([-(2**62), 5]), 2).elements == (-(2**62), 5)
    with pytest.raises(CoordinateOverflowError, match="^coordinate 13835058055282163709 "):
        sidon_extract(integers([1, 2**62 - 1]), 3)
    with pytest.raises(CoordinateOverflowError, match="^coordinate -13835058055282163712 "):
        sidon_extract(integers([-(2**62), 5]), 3)
    with pytest.raises(CoordinateOverflowError):
        sidon_extract(integers([1, 2**62]), 2)
    assert len(sidon_extract(vectors([(0, 2**62 - 1), (1, 0)], 2), 2)) == 2
    with pytest.raises(CoordinateOverflowError):
        sidon_extract(vectors([(0, 2**62), (1, 0)], 2), 2)


# ---------------------------------------------------------------------------
# Ratio boxes


def test_ratio_box_frozen():
    rb = ratio_box(integers([0, 1, 3]))
    assert rb.n == 3 and rb.missing == Fraction(1, 4)


def test_ratio_box_ap_realizes_four():
    ap = integers(range(0, 35, 7))  # 5-term progression
    assert ratio_box(ap).n == 4


def test_ratio_box_matches_oracle():
    rng = random.Random(29)
    for _ in range(20):
        xs = sorted(rng.sample(range(0, 60), rng.randint(2, 7)))
        rb = ratio_box(integers(xs))
        assert rb.n == naive_ratio_box(xs)


def test_ratio_box_missing_is_first_gap():
    xs = [0, 1, 3]
    rb = ratio_box(integers(xs))
    mags = sorted({abs(x - y) for x in xs for y in xs if x != y})
    ratios = {Fraction(d1, d2) for d1 in mags for d2 in mags}
    assert rb.missing not in ratios
    n = rb.n
    assert rb.missing.numerator <= n + 1 and rb.missing.denominator <= n + 1
