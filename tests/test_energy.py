import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adlab import (
    CoordinateOverflowError,
    PreconditionError,
    SizeCapExceededError,
    additive_energy,
    dim_alpha_k,
    dim_k_exact,
    integers,
    mult_embed,
    rep_fn,
    residues,
    rudin_ratio,
    subgroup,
    t_k,
    vectors,
)

from adlab import energy
from adlab.budget import WorkMeter
from adlab.energy import _qualifying_subsets
from adlab.groundset import _unit_dilations
from oracles import (
    naive_dim_alpha,
    naive_energy,
    naive_iterated,
    naive_minimal_qualifying,
    naive_tk,
    reference_qualifying_subsets,
    subsets,
)


# ---------------------------------------------------------------------------
# T_k against the tuple-counting oracle


def test_tk_raises_when_k_fold_sums_leave_int64():
    # Dense or sparse, sums that leave int64 raise.
    for xs in ([2**62, 2**62 + 1], [2**62, 2**62 + 10**9]):
        with pytest.raises(CoordinateOverflowError, match="^coordinate 9223372036854775808 outside"):
            t_k(integers(xs), 2)


def test_tk_frozen_values():
    pairs = [
        (([0, 1], 2), 6),
        (([0, 1], 3), 20),
        (([1, 2, 3], 2), 19),
        (([1, 2, 3], 3), 141),
        (([1, 2, 3, 4], 2), 44),
    ]
    for (xs, k), want in pairs:
        assert t_k(integers(xs), k).value == want


def test_tk_matches_oracle_exhaustive():
    for xs in subsets(range(1, 6)):
        a = integers(xs)
        for k in (1, 2, 3):
            got = t_k(a, k).value
            assert got == naive_tk(xs, k)


@given(
    st.sets(st.integers(min_value=-30, max_value=30), min_size=1, max_size=5),
    st.integers(min_value=2, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_tk_matches_oracle_random(xs, k):
    assert t_k(integers(xs), k).value == naive_tk(sorted(xs), k)


def test_tk_trivial_floor_and_ceiling():
    # |A|^k <= T_k(A) <= |A|^(2k-1), diagonal tuples vs free choice of 2k-1.
    rng = random.Random(3)
    for _ in range(20):
        xs = rng.sample(range(-50, 51), rng.randint(1, 7))
        a = integers(xs)
        for k in (2, 3):
            v = t_k(a, k).value
            assert len(xs) ** k <= v <= len(xs) ** (2 * k - 1)


def test_tk_k1_is_cardinality():
    a = integers([3, 1, 4, 1, 5])
    assert t_k(a, 1).value == len(a)


def test_tk_rejects_bad_arguments():
    with pytest.raises(ValueError):
        t_k(integers([1]), 0)
    with pytest.raises(ValueError):
        t_k(integers([1]), 2, op="-")


def test_tk_size_cap_enforced():
    with pytest.raises(SizeCapExceededError):
        t_k(integers(range(1, 40)), 3, size_cap=5)


# ---------------------------------------------------------------------------
# T_k kernels: packed power, k-multiset table and convolution chain

KERNELS = ("_tk_packed_power", "_tk_table", "_tk_chain")


def _record_kernels(mp):
    """The name of the kernel ``_tk_kernel`` picks on each call, in order."""
    ran = []
    pick = energy._tk_kernel

    def recording(codes, k, modulus, size_cap):
        kernel = pick(codes, k, modulus, size_cap)
        ran.append(kernel.__name__)
        return kernel

    mp.setattr(energy, "_tk_kernel", recording)
    return ran


def _check_tk(a, k, want, op="+"):
    """T_k(A) == want, and ``size_cap`` raises iff |kA| > cap."""
    assert t_k(a, k, op).value == want
    xs = (mult_embed(a).image if op == "*" else a).elements
    modulus = getattr(a.ambient, "modulus", None)
    size = len(naive_iterated(xs, k, modulus=modulus))
    assert t_k(a, k, op, size_cap=size).value == want
    with pytest.raises(SizeCapExceededError):
        t_k(a, k, op, size_cap=size - 1)


def _kernel_cases():
    rng = random.Random(27)
    wide = rng.sample(range(-(10**6), 10**6), 20)
    # 16 products of powers of 2, 3, 5, 7, 11 and 13: rank 6 under mult_embed.
    mult = set()
    while len(mult) < 16:
        mult.add(math.prod(p ** rng.randint(0, e) for p, e in ((2, 3), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1))))
    mult = integers(mult)
    # Rank-3 coordinates that fit int64, but whose k-fold Kronecker codes do not.
    far = vectors([tuple(rng.randrange(2**22) for _ in range(3)) for _ in range(20)], 3)
    yield "line-dense-k4", integers(rng.sample(range(30), 12)), 4, "+", "_tk_packed_power"
    yield "line-dense-k2", integers(range(-5, 6)), 2, "+", "_tk_packed_power"
    for k in (2, 3, 4, 5):  # k = 2, 4 only square, k = 3, 5 also multiply
        yield f"mod31-k{k}", residues(rng.sample(range(31), 10), 31), k, "+", "_tk_packed_power"
    yield "mod61-k4", residues(rng.sample(range(61), 18), 61), 4, "+", "_tk_packed_power"
    yield "z2-dense", vectors({(x, y) for x in range(4) for y in range(4) if x != y}, 2), 3, "+", "_tk_packed_power"
    yield "wide-k3", integers(wide), 3, "+", "_tk_table"
    yield "wide-k4", integers(wide[:12]), 4, "+", "_tk_table"
    yield "mult-k3", mult, 3, "*", "_tk_table"
    yield "mod10^9+7-k3", residues(wide, 10**9 + 7), 3, "+", "_tk_table"
    yield "mult-k4", mult, 4, "*", "_tk_table"
    yield "z3-far-k3", far, 3, "+", "_tk_chain"
    yield "wide-k2", integers(wide), 2, "+", "_tk_chain"
    yield "wide-small-k3", integers(wide[:6]), 3, "+", "_tk_chain"
    yield "mult-k2", mult, 2, "*", "_tk_chain"


KERNEL_CASES = {name: rest for name, *rest in _kernel_cases()}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_tk_kernels_match_naive(monkeypatch, name):
    a, k, op, kernel = KERNEL_CASES[name]
    xs = (mult_embed(a).image if op == "*" else a).elements
    want = naive_tk(xs, k, getattr(a.ambient, "modulus", None))
    ran = _record_kernels(monkeypatch)
    _check_tk(a, k, want, op)
    # The calls are uncapped, capped at |kA| and capped at |kA| - 1; a cap
    # below the number of k-multisets sends a table set to the chain.
    size = len(naive_iterated(xs, k, modulus=getattr(a.ambient, "modulus", None)))
    multisets = math.comb(len(a) + k - 1, k)
    assert ran == [
        "_tk_chain" if kernel == "_tk_table" and cap is not None and cap < multisets else kernel
        for cap in (None, size, size - 1)
    ]


def test_packed_power_widens_its_slots_between_products(monkeypatch):
    # Mod N each product of the square-and-multiply takes the narrowest
    # slot of its own counts, at most n^(j-1) in the j-th power.
    widenings = []
    widened = energy._widened

    def recording(q, slot, wider, width):
        widenings.append((slot[0], wider[0]))
        return widened(q, slot, wider, width)

    monkeypatch.setattr(energy, "_widened", recording)
    rng = random.Random(31)
    cases = [
        (residues(rng.sample(range(61), 18), 61), 3, [("B", "H"), ("B", "H")]),  # and P
        (residues(rng.sample(range(101), 41), 101), 4, [("B", "I")]),
        (residues(rng.sample(range(101), 41), 101), 7, [("B", "H"), ("B", "H"), ("H", "I"), ("I", "Q"), ("H", "Q")]),
        (residues(rng.sample(range(101), 12), 101), 3, []),
    ]
    for a, k, want in cases:
        widenings.clear()
        assert energy._tk_kernel(list(a.elements), k, a.ambient.modulus, None) is energy._tk_packed_power
        assert t_k(a, k).value == rep_fn([(a, "+")] * k).square_sum()
        assert widenings == want, (len(a), k)


def test_table_stops_at_its_bound(monkeypatch):
    # 23 wide values have 14 950 4-multisets, 24 have 17 550: the bound of
    # 2^14 falls between them.
    assert energy.TABLE_MAX_MULTISETS == 1 << 14
    rng = random.Random(28)
    wide = rng.sample(range(10**6), 24)
    ran = _record_kernels(monkeypatch)
    for xs in (wide[:23], wide):
        a = integers(xs)
        assert t_k(a, 4).value == rep_fn([(a, "+")] * 4).square_sum()
    # A dilated progression of 100 terms has 4.4 million 4-multisets but
    # only 397 distinct 4-fold sums, so the chain's steps stay small.
    ap = integers(range(0, 10**8, 10**6))
    assert t_k(ap, 4).value == t_k(integers(range(100)), 4).value
    assert ran == ["_tk_table", "_tk_chain", "_tk_chain", "_tk_packed_power"]


@pytest.mark.parametrize("kernel", KERNELS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_every_kernel_matches_naive_on_any_input(kernel, data):
    modulus = data.draw(st.sampled_from([None, None, 2, 7, 30]))
    if modulus is None:
        elements = st.integers(min_value=-40, max_value=40)
    else:
        elements = st.integers(min_value=0, max_value=modulus - 1)
    xs = sorted(data.draw(st.sets(elements, min_size=1, max_size=7)))
    k = data.draw(st.integers(min_value=1, max_value=4))
    a = integers(xs) if modulus is None else residues(xs, modulus)
    want = naive_tk(a.elements, k, modulus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_tk_kernel", lambda codes, k, modulus, size_cap: getattr(energy, kernel))
        if k == 1:
            assert t_k(a, k).value == want == len(xs)
        else:
            _check_tk(a, k, want)


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_kernel_raises_when_k_fold_sums_leave_int64(kernel):
    # The codes are checked once, before a kernel runs: 3 * (2^61 + 5)
    # fits int64, 4 * 2^61 does not.
    xs = [2**61, 2**61 + 1, 2**61 + 5]
    neg = [-x for x in xs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_tk_kernel", lambda codes, k, modulus, size_cap: getattr(energy, kernel))
        for ys in (xs, neg):
            assert t_k(integers(ys), 3).value == naive_tk(ys, 3)
            with pytest.raises(CoordinateOverflowError):
                t_k(integers(ys), 4)
        pts = [(0, x) for x in xs]
        assert t_k(vectors(pts, 2), 3).value == naive_tk(pts, 3)
        with pytest.raises(CoordinateOverflowError):
            t_k(vectors(pts, 2), 4)


# ---------------------------------------------------------------------------
# Pairwise energy


def test_energy_diagonal_is_t2():
    for xs in ([1, 2, 3], [0, 4, 9, 11], list(range(1, 9))):
        a = integers(xs)
        assert additive_energy(a, a).value == t_k(a, 2).value


def test_energy_frozen_interval_values():
    assert additive_energy(integers(range(1, 5)), integers(range(1, 5))).value == 44
    assert additive_energy(integers(range(1, 9)), integers(range(1, 9))).value == 344


@given(
    st.sets(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6),
    st.sets(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_energy_matches_oracle(xs, ys):
    got = additive_energy(integers(xs), integers(ys)).value
    assert got == naive_energy(sorted(xs), sorted(ys))


def test_energy_residues_wraps():
    a = residues([0, 1, 2], 3)
    # every difference is attainable; r_{A-A} is constant 3 on Z_3
    assert additive_energy(a, a).value == 27


# ---------------------------------------------------------------------------
# Multiplicative energy through the exponent embedding


def test_mult_energy_primes_are_product_sidon():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    a = integers(primes)
    # distinct primes are multiplicatively independent, so ab = cd only
    # for the trivial pairings: T_2 = 2n^2 - n
    assert t_k(a, 2, op="*").value == 2 * 16 * 16 - 16


def test_mult_energy_gp_equals_additive_on_exponents():
    gp = integers([2 ** i for i in range(16)])
    exps = integers(range(16))
    assert t_k(gp, 2, op="*").value == t_k(exps, 2).value == 2736


def test_mult_energy_small_oracle():
    rng = random.Random(11)
    for _ in range(15):
        xs = rng.sample(range(1, 60), rng.randint(1, 6))
        got = t_k(integers(xs), 2, op="*").value
        naive = sum(
            1
            for a, b, c, d in itertools.product(xs, repeat=4)
            if a * b == c * d
        )
        assert got == naive


def test_mult_embed_preserves_products():
    emb = mult_embed(integers([2, 3, 6]))
    assert len(emb.image) == 3
    v2, v3, v6 = (emb.forward[x] for x in (2, 3, 6))
    assert tuple(p + q for p, q in zip(v2, v3)) == v6


# ---------------------------------------------------------------------------
# Energy-threshold dimension


def test_dim_alpha_full_threshold_is_dim():
    a = integers(range(1, 5))
    res = dim_alpha_k(a, 1, k=2)
    assert res.exact and res.value == dim_k_exact(a, 1).value == 3


def test_dim_alpha_matches_oracle_small():
    rng = random.Random(5)
    for _ in range(12):
        xs = sorted(rng.sample(range(1, 30), rng.randint(2, 6)))
        for alpha in (Fraction(1, 2), Fraction(3, 4), 1):
            res = dim_alpha_k(integers(xs), alpha, k=2)
            assert res.exact
            assert (res.value, res.lower_witness.elements) == naive_dim_alpha(xs, alpha, 2)


def _alpha_cases():
    rng = random.Random(17)
    for i in range(6):
        xs = rng.sample(range(-9, 10), rng.randint(2, 7))
        if i % 2:
            xs = sorted(set(xs) | {0})
        yield f"int{i}", integers(xs), None
    for n in (2, 3):
        yield f"mod{n}", residues(range(n), n), n
    for p in (2, 3, 7, 13, 31):
        for t in range(1, 13):
            if (p - 1) % t == 0:
                yield f"subgroup({p},{t})", subgroup(p, t).members, p
    # Here a larger candidate beats the best of the smaller ones.
    yield "mod61_later_best", residues([12, 13, 31, 43, 48], 61), 61
    yield "int_later_best", integers([-9, -6, -1, 8, 17, 23]), None
    for i in range(4):
        yield f"mod101_{i}", residues(rng.sample(range(101), rng.randint(2, 7)), 101), 101
    for i in range(4):
        pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(2, 6))}
        yield f"z2_{i}", vectors(pts, 2), None


@pytest.mark.parametrize("a, modulus", [c[1:] for c in _alpha_cases()], ids=[c[0] for c in _alpha_cases()])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dim_alpha_value_and_witness_match_full_enumeration(a, modulus, k):
    # The walk's candidates are the subsets that qualify while the subset
    # without their last element does not; the witness is the first of
    # them, in (size, elements) order, at the least dimension.
    xs = a.elements
    total = t_k(a, k).value
    for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
        family = naive_minimal_qualifying(xs, alpha, k, modulus)
        walked = _qualifying_subsets(a, k, alpha.numerator * total, alpha.denominator, WorkMeter(None))
        assert set(walked) == {sub for sub, _ in family}, alpha
        res = dim_alpha_k(a, alpha, k=k)
        assert res.exact
        got = (res.value, res.lower_witness.elements)
        assert got == naive_dim_alpha(xs, alpha, k, modulus), (alpha, got)
        assert got[1] == next(sub for sub, dim in family if dim == got[0]), (alpha, got)


def _walk_cases():
    yield "subgroup(1009,12)", subgroup(1009, 12).members, 2
    yield "subgroup(61,12)", subgroup(61, 12).members, 2
    yield "range(1,17)", integers(range(1, 17)), 2
    wide = integers(random.Random(26).sample(range(1, 10**6), 16))
    yield "wide16_k2", wide, 2
    yield "wide16_k3", wide, 3
    for name, a, _modulus in _alpha_cases():
        yield f"{name}_k3", a, 3


@pytest.mark.parametrize("a, k", [c[1:] for c in _walk_cases()], ids=[c[0] for c in _walk_cases()])
def test_qualifying_subsets_match_the_dict_walk(a, k):
    # Sets of 12 to 16 elements are past naive enumeration; the reference
    # walks the same subsets carrying representation functions, with every
    # element at the top level and with the orbit-least ones alone.
    total = t_k(a, k).value
    for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
        need, den = alpha.numerator * total, alpha.denominator
        for dilations in {(1,), _unit_dilations(a)}:
            walked = _qualifying_subsets(a, k, need, den, WorkMeter(None), dilations)
            assert walked == reference_qualifying_subsets(a, k, need, den, dilations), (alpha, dilations)


@pytest.mark.parametrize(
    "a", [integers([2**62, 2**62 + 1]), integers([-(2**62), -(2**62) - 1]), vectors([(0, 2**62), (1, 2**62 + 1)], 2)]
)
def test_qualifying_subsets_raise_when_k_fold_sums_leave_int64(a):
    # The 2-fold sums leave int64; the elements and the 1-fold sums do not.
    with pytest.raises(CoordinateOverflowError):
        _qualifying_subsets(a, 2, 1, 1, WorkMeter(None))
    with pytest.raises(CoordinateOverflowError):
        dim_alpha_k(a, Fraction(1, 2), k=2)
    assert _qualifying_subsets(a, 1, 1, 1, WorkMeter(None)) == [(a.elements[0],), (a.elements[1],)]


def test_dim_alpha_zero_beats_an_earlier_singleton():
    # At alpha * T_k(A) <= 1 every singleton qualifies; {0} has dimension 0
    # even though (-2,) comes first in (size, elements) order.
    xs = [-2, 0, 3]
    a = integers(xs)
    alpha = Fraction(1, t_k(a, 2).value)
    res = dim_alpha_k(a, alpha, k=2)
    assert (res.value, res.lower_witness.elements) == (0, (0,)) == naive_dim_alpha(xs, alpha, 2)


def test_dim_alpha_witness_retains_energy():
    xs = sorted(random.Random(9).sample(range(1, 200), 10))
    a = integers(xs)
    alpha = Fraction(1, 2)
    res = dim_alpha_k(a, alpha, k=2)
    assert res.exact and res.lower_witness is not None
    sub = res.lower_witness
    assert set(sub.elements) <= set(xs)
    assert Fraction(t_k(sub, 2).value) >= alpha * t_k(a, 2).value
    assert dim_k_exact(sub, 1).value == res.value


def test_dim_alpha_heuristic_mode_is_sound():
    a = integers(range(1, 41))
    res = dim_alpha_k(a, Fraction(1, 2), k=2)
    assert not res.exact
    assert 1 <= res.lower <= res.upper
    # the heuristic witness must satisfy the energy threshold it claims
    w = res.upper_witness
    assert w is not None
    assert 2 * t_k(w, 2).value >= t_k(a, 2).value


def test_dim_alpha_rejects_bad_alpha():
    with pytest.raises(PreconditionError):
        dim_alpha_k(integers([1, 2]), 0)
    with pytest.raises(PreconditionError):
        dim_alpha_k(integers([1, 2]), Fraction(3, 2))


# ---------------------------------------------------------------------------
# Rudin ratio


def test_rudin_frozen_value():
    lam = integers([1, 2, 4, 8])
    # Sidon of size 4: T_2 = 2*16 - 4 = 28, denominator 2^2 * 4^2 = 64
    assert rudin_ratio(lam, 2) == Fraction(28, 64) == Fraction(7, 16)


def test_rudin_matches_energy_oracle():
    lam = integers([1, 2, 4, 8, 16])
    for k in (2, 3):
        want = Fraction(naive_tk(list(lam.elements), k), (k ** k) * len(lam) ** k)
        assert rudin_ratio(lam, k) == want


def test_rudin_requires_dissociated():
    with pytest.raises(PreconditionError):
        rudin_ratio(integers([1, 2, 3]), 2)
    with pytest.raises(PreconditionError):
        rudin_ratio(integers([]), 2)


def test_energy_value_metadata():
    v = t_k(integers([1, 5]), 2, op="*")
    assert v.k == 2 and v.operation == "*"
    w = additive_energy(integers([1]), integers([2]))
    assert w.k == 2 and w.operation == "+"
