import random
from collections import Counter

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from adlab import (
    AmbientMismatchError,
    CoordinateOverflowError,
    GroundSet,
    IntegerLattice,
    PreconditionError,
    Residues,
    SizeCapExceededError,
    combination,
    format_set,
    integers,
    iterated_sumset,
    load_set,
    mult_embed,
    parse_set_text,
    product_set,
    rep_fn,
    residues,
    save_set,
    sigma_k,
    span_k,
    sumset,
    translate,
    vectors,
)
from adlab import groundset

from oracles import naive_iterated, naive_neg, naive_rep, naive_sigma, naive_sumset, naive_tk
from helpers import AMBIENT_KINDS, ambient_sets, record_sum_kernels

small_int_sets = st.sets(st.integers(-50, 50), min_size=1, max_size=8)


def test_of_sorts_and_dedupes():
    a = integers([5, 1, 3, 1, 5])
    assert a.elements == (1, 3, 5)
    assert len(a) == 3
    assert 3 in a and 2 not in a


def test_residues_normalize():
    a = residues([8, 15, -1], 7)
    assert a.elements == (1, 6)  # 8 = 1, 15 = 1, -1 = 6


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatchError):
        sumset(integers([1]), residues([1], 5))


def test_overflow_guard():
    with pytest.raises(CoordinateOverflowError):
        integers([2**63])
    with pytest.raises(CoordinateOverflowError, match="^coordinate 9223372036854775808 outside"):
        sumset(integers([2**62]), integers([2**62]))


MAX64 = 2**63 - 1
MIN64 = -(2**63)


def test_sums_at_the_int64_bounds_pass_and_one_step_beyond_raises():
    top = integers([2**62])
    assert sumset(top, integers([2**62 - 1])).elements == (MAX64,)
    assert sumset(top, integers([-(2**62) + 1]), "-").elements == (MAX64,)
    assert rep_fn([(top, "+"), (integers([2**62 - 1]), "+")]).entries == {MAX64: 1}
    assert translate(top, 2**62 - 1).elements == (MAX64,)
    bottom = integers([-(2**62)])
    assert sumset(bottom, bottom).elements == (MIN64,)
    assert rep_fn([(bottom, "+"), (integers([2**62]), "-")]).entries == {MIN64: 1}
    assert span_k(integers([2**62 - 1]), 2).elements[-1] == 2**63 - 2
    corner = translate(vectors([(2**62, -(2**62))], 2), (2**62 - 1, -(2**62)))
    assert corner.elements == ((MAX64, MIN64),)
    beyond = [
        lambda: sumset(top, top),
        lambda: sumset(top, integers([-(2**62)]), "-"),
        lambda: sumset(bottom, integers([-(2**62) - 1])),
        lambda: sumset(bottom, integers([2**62 + 1]), "-"),
        lambda: rep_fn([(top, "+"), (top, "+")]),
        lambda: rep_fn([(bottom, "+"), (integers([2**62 + 1]), "-")]),
        lambda: translate(top, 2**62),
        lambda: translate(vectors([(0, -(2**62))], 2), (0, -(2**62) - 1)),
        lambda: span_k(integers([2**62]), 2),
        lambda: span_k(vectors([(1, 2**62)], 2), 2),
        # t_k(A, 2) on two adjacent elements, a dense range
        lambda: rep_fn([(integers([2**62, 2**62 + 1]), "+")] * 2),
    ]
    for call in beyond:
        with pytest.raises(CoordinateOverflowError):
            call()


def test_an_overflowing_prefix_raises_even_when_the_whole_sum_fits():
    top = integers([2**62])
    # 2^62 + 2^62 - 2^62 fits, but its first two parts already leave int64.
    with pytest.raises(CoordinateOverflowError, match="^coordinate 9223372036854775808 outside"):
        rep_fn([(top, "+"), (top, "+"), (top, "-")])
    assert rep_fn([(top, "+"), (top, "-"), (top, "+")]).entries == {2**62: 1}
    # No sum reaches a part after an empty one, but the parts before it are summed.
    assert rep_fn([(top, "+"), (integers([]), "+"), (top, "+")]).entries == {}
    with pytest.raises(CoordinateOverflowError):
        rep_fn([(top, "+"), (top, "+"), (integers([]), "+")])


@settings(max_examples=60, deadline=None)
@given(small_int_sets, small_int_sets)
def test_sumset_matches_naive(xs, ys):
    a, b = integers(xs), integers(ys)
    assert list(sumset(a, b).elements) == naive_sumset(xs, ys)
    assert list(sumset(a, b, "-").elements) == naive_sumset(xs, [-y for y in ys])


@pytest.mark.parametrize("kind", AMBIENT_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sumset_matches_naive_in_every_ambient(kind, data):
    (a, b), modulus = data.draw(ambient_sets(kind, 2, 12))
    xs, ys = a.elements, b.elements
    assert list(sumset(a, b).elements) == naive_sumset(xs, ys, modulus)
    assert list(sumset(a, b, "-").elements) == naive_sumset(xs, naive_neg(ys, modulus), modulus)


@pytest.mark.parametrize("kind", AMBIENT_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_size_cap_raises_iff_the_sumset_exceeds_it(kind, data):
    (a, b), modulus = data.draw(ambient_sets(kind, 2, 12))
    sign = data.draw(st.sampled_from("+-"))
    cap = data.draw(st.integers(0, 60))
    ys = b.elements if sign == "+" else naive_neg(b.elements, modulus)
    size = len(naive_sumset(a.elements, ys, modulus))
    if size > cap:
        with pytest.raises(SizeCapExceededError):
            sumset(a, b, sign, size_cap=cap)
    else:
        assert len(sumset(a, b, sign, size_cap=cap)) == size


@pytest.mark.parametrize("kind", AMBIENT_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rep_fn_matches_naive_in_every_ambient(kind, data):
    count = data.draw(st.integers(1, 4))
    sets, modulus = data.draw(ambient_sets(kind, count, 6))
    signs = data.draw(st.lists(st.sampled_from("+-"), min_size=count, max_size=count))
    parts = list(zip(sets, signs))
    want = naive_rep([(gs.elements, sign) for gs, sign in parts], modulus)
    assert rep_fn(parts).entries == want
    a = sets[0]
    assert rep_fn([(a, "+")] * count).square_sum() == naive_tk(a.elements, count, modulus)


@pytest.mark.parametrize("kind", AMBIENT_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rep_fn_cap_raises_iff_the_support_exceeds_it(kind, data):
    # Every part is nonempty, so the last support is the widest.
    count = data.draw(st.integers(1, 4))
    sets, modulus = data.draw(ambient_sets(kind, count, 6))
    signs = data.draw(st.lists(st.sampled_from("+-"), min_size=count, max_size=count))
    parts = list(zip(sets, signs))
    want = naive_rep([(gs.elements, sign) for gs, sign in parts], modulus)
    cap = data.draw(st.integers(0, len(want) + 5))
    _check_rep_fn_cap(parts, cap, want)


def _check_rep_fn_cap(parts, cap, want):
    if len(want) > cap:
        with pytest.raises(SizeCapExceededError) as info:
            rep_fn(parts, size_cap=cap)
        err = info.value
        assert (str(err), err.cap, err.stage) == (
            f"representation support exceeds cap {cap}", cap, "rep_fn"
        )
    else:
        assert rep_fn(parts, size_cap=cap).entries == want


def test_rep_fn_cap_on_a_wide_set():
    # 40 elements spread over [1, 10^9]: the first two convolutions take
    # the dict path and the third (820 x 40 pairs) the sorted kernel, and
    # r_{3B} has C(42, 3) = 11 480 entries.
    rng = random.Random(3)
    b = integers(rng.sample(range(1, 10**9), 40))
    parts = [(b, "+")] * 3
    want = naive_rep([(b.elements, "+")] * 3)
    assert len(want) == 11_480
    for cap in (0, 39, 40, 819, 820, 5_000, 11_479, 11_480, 11_481):
        _check_rep_fn_cap(parts, cap, want)


def _kernels(monkeypatch):
    """The kernel that returned the counts of each ``_convolve`` step, in order."""
    ran = []
    packed, sorted_sums = groundset._packed_product, groundset._sorted_sums

    def packed_recording(entries, ints, modulus):
        out = packed(entries, ints, modulus)
        if out is not None:
            ran.append("packed")
        return out

    def sorted_recording(entries, ints, modulus, size_cap):
        out = sorted_sums(entries, ints, modulus, size_cap)
        ran.append("dict" if out is None else "sorted")
        return out

    monkeypatch.setattr(groundset, "_packed_product", packed_recording)
    monkeypatch.setattr(groundset, "_sorted_sums", sorted_recording)
    return ran


def _sample_sets(ambient, draw, sizes):
    return [GroundSet.of(ambient, {draw() for _ in range(size)}) for size in sizes]


def _kernel_cases():
    rng = random.Random(23)
    top, huge = 2**62, 2**62 + 1
    wide = lambda: rng.randrange(-(10**6), 10**6)
    cases = {
        "line": (IntegerLattice(1), wide, (64, 40), "+-", ["dict", "sorted"]),
        "line-t3": (IntegerLattice(1), wide, (16, 16, 16), "+++", ["dict", "dict", "sorted"]),
        # Codes near +2^62 and, signed, near -2^62: every sum fits int64.
        "line-2^62": (IntegerLattice(1), lambda: top - rng.randrange(10**6), (64, 40), "+-",
                      ["dict", "sorted"]),
        "mod-97": (Residues(97), lambda: rng.randrange(97), (60, 60, 60), "+++",
                   ["dict", "packed", "packed"]),
        "mod-2^22+15": (Residues(2**22 + 15), lambda: rng.randrange(2**22 + 15), (64, 40), "+-",
                        ["dict", "sorted"]),
        "mod-10^9+7": (Residues(10**9 + 7), lambda: rng.randrange(10**9 + 7), (64, 40), "++",
                       ["dict", "sorted"]),
        # Residues near 2^62 mod N > 2^62: a sum of two can pass int64.
        "mod-2^62+1": (Residues(huge), lambda: huge - 1 - rng.randrange(10**6), (64, 40), "+-",
                       ["dict", "dict"]),
        "z2": (IntegerLattice(2), lambda: (wide() // 1000, wide() // 1000), (64, 40), "+-",
               ["dict", "sorted"]),
        "z3": (IntegerLattice(3), lambda: tuple(rng.randrange(-50, 51) for _ in range(3)),
               (48, 48), "+-", ["dict", "sorted"]),
        # Spreads near 2^24 per coordinate: the Kronecker codes reach 2^72.
        "z3-past-int64": (IntegerLattice(3), lambda: tuple(rng.randrange(-(2**22), 2**22)
                                                           for _ in range(3)),
                          (48, 48), "+-", ["dict", "dict"]),
        # The arrays of one sorted step feed the next sorted step, and the
        # packed product once the sums fill the cycle.
        "line-t4": (IntegerLattice(1), wide, (16, 16, 16, 16), "++++",
                    ["dict", "dict", "sorted", "sorted"]),
        "mod-5003": (Residues(5003), lambda: rng.randrange(5003), (60, 60, 60), "+++",
                     ["dict", "sorted", "packed"]),
    }
    return {name: (_sample_sets(amb, draw, sizes), signs, amb, ran)
            for name, (amb, draw, sizes, signs, ran) in cases.items()}


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_rep_fn_kernels_match_naive_and_the_dict_loop(monkeypatch, name):
    sets, signs, amb, want_ran = KERNEL_CASES[name]
    modulus = amb.modulus if isinstance(amb, Residues) else None
    parts = list(zip(sets, signs))
    want = naive_rep([(gs.elements, sign) for gs, sign in parts], modulus)
    ran = _kernels(monkeypatch)
    r = rep_fn(parts)
    # Read before entries: a last sorted step's square sum and support
    # size come from its arrays.
    assert r.square_sum() == sum(c * c for c in want.values())
    assert r.support_size() == len(want)
    assert (r._entries is None) == (ran[-1] == "sorted")
    assert r.entries == want
    assert r.support_size() == len(want)
    assert ran == want_ran
    ran.clear()
    monkeypatch.setattr(groundset, "SORTED_MIN_PAIRS", 1 << 62)
    assert rep_fn(parts).entries == want
    assert "sorted" not in ran


def _naive_convolve(entries, ints):
    out = Counter()
    for x, c in entries.items():
        for y in ints:
            out[x + y] += c
    return dict(out)


def _as_arrays(entries):
    """``entries`` as the ascending (codes, counts) arrays of a sorted step."""
    import numpy as np

    codes = sorted(entries)
    return np.array(codes, np.int64), np.array([entries[x] for x in codes], np.int64)


def test_sorted_kernel_falls_back_when_a_sum_or_a_count_can_leave_int64(monkeypatch):
    ints = list(range(0, 2048 * 10**6, 10**6))
    # The count bound is max(count) * len(ints) = count * 2^11; the two
    # rows overlap, so the largest actual count is twice the row count.
    cases = [
        ({0: 2**52 - 1, 10**6: 2**52 - 1}, ints, "sorted"),
        ({0: 2**52, 10**6: 1}, ints, "dict"),
        ({0: 2**62, 10**6: 2**62}, ints, "dict"),  # an actual count of 2^63
        # Sums at INT64_MAX fit, one past it does not; likewise at INT64_MIN.
        ({MAX64 - ints[-1] - 5: 1, MAX64 - ints[-1]: 1}, ints, "sorted"),
        ({MAX64 - ints[-1] - 5: 1, MAX64 - ints[-1] + 1: 1}, ints, "dict"),
        ({MIN64 + 5: 1, MIN64: 1}, ints, "sorted"),
        ({MIN64 + 5: 1, MIN64: 1}, [-1] + ints[1:], "dict"),
    ]
    for entries, ys, kernel in cases:
        want = _naive_convolve(entries, ys)
        ran = _kernels(monkeypatch)
        assert dict(groundset._items(groundset._convolve(entries, ys, None, None))) == want
        # The same counts as a sorted step's arrays take the same kernel.
        out = groundset._convolve(_as_arrays(entries), ys, None, None)
        assert dict(groundset._items(out)) == want
        assert ran == [kernel, kernel]


def test_sorted_arrays_feed_every_kernel(monkeypatch):
    rng = random.Random(7)
    sparse = dict.fromkeys(rng.sample(range(-(10**6), 10**6), 100), 3)
    dense = {x: x % 5 + 1 for x in range(0, 300, 2)}
    cases = [
        (sparse, rng.sample(range(10**6), 30), "sorted"),
        (sparse, [0, 7], "dict"),  # 200 pairs
        (dense, list(range(10)), "packed"),
    ]
    for entries, ys, kernel in cases:
        ran = _kernels(monkeypatch)
        out = groundset._convolve(_as_arrays(entries), ys, None, None)
        assert dict(groundset._items(out)) == _naive_convolve(entries, ys)
        assert ran == [kernel]
        assert isinstance(out, dict) == (kernel != "sorted")


def test_square_sum_of_sorted_counts_leaves_int64_exactly():
    # 3 037 000 499^2 is the largest square in int64; two of them are not.
    import numpy as np

    for counts in ([3], [2**31, 5], [3_037_000_499], [3_037_000_499] * 2, [2**40, 3]):
        r = groundset.RepFn._of_sorted(
            IntegerLattice(1), np.arange(len(counts)), np.array(counts, np.int64), None
        )
        assert r.square_sum() == sum(c * c for c in counts)
        assert r.entries == dict(enumerate(counts))


def test_sorted_kernel_merges_blocks_and_checks_the_cap_after_each(monkeypatch):
    # Blocks of 100 pairs to start with, so each step merges many blocks.
    monkeypatch.setattr(groundset, "SORTED_BLOCK_PAIRS", 100)
    rng = random.Random(5)
    b = integers(rng.sample(range(-(10**6), 10**6), 30))
    cyc = residues(rng.sample(range(10**9 + 7), 50), 10**9 + 7)
    for parts, modulus in (([(b, "+")] * 3, None), ([(cyc, "+"), (cyc, "-")], 10**9 + 7)):
        want = naive_rep([(gs.elements, sign) for gs, sign in parts], modulus)
        ran = _kernels(monkeypatch)
        assert rep_fn(parts).entries == want
        assert ran[-1] == "sorted"
        for cap in (0, 99, 100, len(want) - 1, len(want), len(want) + 1):
            _check_rep_fn_cap(parts, cap, want)
    # The kernel raises itself, after the first block past the cap, rather
    # than returning the whole support for _convolve to measure.
    entries = dict.fromkeys(range(0, 64 * 10**6, 10**6), 1)
    with pytest.raises(SizeCapExceededError, match="^representation support exceeds cap 100$"):
        groundset._sorted_sums(entries, list(range(0, 64 * 7, 7)), None, 100)


@pytest.mark.parametrize("kind", AMBIENT_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sorted_kernel_on_every_step_matches_naive(kind, data):
    # With no pair minimum, every sparse step of these small sums is sorted.
    count = data.draw(st.integers(1, 4))
    sets, modulus = data.draw(ambient_sets(kind, count, 6))
    signs = data.draw(st.lists(st.sampled_from("+-"), min_size=count, max_size=count))
    parts = list(zip(sets, signs))
    want = naive_rep([(gs.elements, sign) for gs, sign in parts], modulus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundset, "SORTED_MIN_PAIRS", 1)
        assert rep_fn(parts).square_sum() == sum(c * c for c in want.values())
        assert rep_fn(parts).entries == want
        cap = data.draw(st.integers(0, len(want) + 2))
        _check_rep_fn_cap(parts, cap, want)


def test_sumset_dense_and_sparse_paths_agree():
    # 60 residues mod 1009 and an interval take the bitset; a wide set the rows.
    cyc = residues(range(0, 1009, 17), 1009)
    line = integers(range(-40, 41, 3))
    wide = integers([1, 10**6, 3 * 10**6])
    plane = vectors([(x, y) for x in range(-3, 4) for y in range(-2, 3)], 2)
    for a, modulus in ((cyc, 1009), (line, None), (wide, None), (plane, None)):
        for sign, ys in (("+", a.elements), ("-", naive_neg(a.elements, modulus))):
            assert list(sumset(a, a, sign).elements) == naive_sumset(a.elements, ys, modulus)


def test_sumset_dense_rows_of_two_thousand_elements():
    # Both take the bitset path, whose row is built from 2 000 elements.
    rng = random.Random(2000)
    line = integers(rng.sample(range(-3000, 3000), 2000))
    cyc = residues(rng.sample(range(7919), 2000), 7919)
    for a, modulus in ((line, None), (cyc, 7919)):
        b = GroundSet(a.ambient, a.elements[::97])
        assert list(sumset(a, b).elements) == naive_sumset(a.elements, b.elements, modulus)
        ys = naive_neg(b.elements, modulus)
        assert list(sumset(a, b, "-").elements) == naive_sumset(a.elements, ys, modulus)


def _sumset_cases():
    rng = random.Random(24)
    top, huge = 2**62, 2**62 + 1
    wide = lambda: rng.randrange(-(10**6), 10**6)
    cases = {
        "line": (IntegerLattice(1), wide, "sorted"),
        # Codes near +2^62 and, signed, near -2^62: every sum fits int64.
        "line-2^62": (IntegerLattice(1), lambda: top - rng.randrange(10**6), "sorted"),
        "mod-2^22+15": (Residues(2**22 + 15), lambda: rng.randrange(2**22 + 15), "sorted"),
        "mod-10^9+7": (Residues(10**9 + 7), lambda: rng.randrange(10**9 + 7), "sorted"),
        # Residues near 2^62 mod N > 2^62: a sum of two can pass int64.
        "mod-2^62+1": (Residues(huge), lambda: huge - 1 - rng.randrange(10**6), "set"),
        "z2": (IntegerLattice(2), lambda: (wide() // 1000, wide() // 1000), "sorted"),
        "z3": (IntegerLattice(3), lambda: tuple(rng.randrange(-50, 51) for _ in range(3)), "sorted"),
        # Spreads near 2^24 per coordinate: the Kronecker codes reach 2^72.
        "z3-past-int64": (IntegerLattice(3),
                          lambda: tuple(rng.randrange(-(2**22), 2**22) for _ in range(3)), "set"),
    }
    return {name: (_sample_sets(amb, draw, (64, 40)), amb, kernel)
            for name, (amb, draw, kernel) in cases.items()}


SUMSET_CASES = _sumset_cases()


@pytest.mark.parametrize("name", sorted(SUMSET_CASES))
def test_sumset_kernels_match_naive_and_the_set_loop(monkeypatch, name):
    sum_kernels = record_sum_kernels(monkeypatch)
    # 64 x 40 = 2 560 pairs, past SORTED_MIN_PAIRS, in a sparse range.
    (a, b), amb, kernel = SUMSET_CASES[name]
    modulus = amb.modulus if isinstance(amb, Residues) else None
    for sign, ys in (("+", b.elements), ("-", naive_neg(b.elements, modulus))):
        want = naive_sumset(a.elements, ys, modulus)
        got = sumset(a, b, sign).elements
        assert list(got) == want
        assert sum_kernels[-1] == kernel
        # Decoded from Python ints, never from numpy scalars.
        assert {type(c) for x in got for c in (x if isinstance(x, tuple) else (x,))} == {int}
        with monkeypatch.context() as mp:
            mp.setattr(groundset, "SORTED_MIN_PAIRS", 1 << 62)
            assert list(sumset(a, b, sign).elements) == want
            assert sum_kernels[-1] == "set"


def test_sum_codes_falls_back_when_a_sum_can_leave_int64(monkeypatch):
    sum_kernels = record_sum_kernels(monkeypatch)
    ys = list(range(0, 2048 * 10**6, 10**6))
    # Sums at INT64_MAX fit, one past it does not; likewise at INT64_MIN.
    cases = [
        ([MAX64 - ys[-1] - 5, MAX64 - ys[-1]], ys, "sorted"),
        ([MAX64 - ys[-1] - 5, MAX64 - ys[-1] + 1], ys, "set"),
        ([MIN64 + 5, MIN64], ys, "sorted"),
        ([MIN64 + 5, MIN64], [-1] + ys[1:], "set"),
    ]
    for xs, cols, kernel in cases:
        want = naive_sumset(xs, cols)
        state, base, count = groundset._sum_codes(xs, None, cols, None, None)
        assert base is None and type(count) is int and count == len(want)
        assert sorted(state) == want if kernel == "set" else state.tolist() == want
        assert sum_kernels == [kernel]
        sum_kernels.clear()


def test_sorted_sums_check_the_cap_after_each_block(monkeypatch):
    # Blocks of 100 pairs, so each step merges many blocks.
    monkeypatch.setattr(groundset, "SORTED_BLOCK_PAIRS", 100)
    sum_kernels = record_sum_kernels(monkeypatch)
    rng = random.Random(6)
    line = integers(rng.sample(range(-(10**6), 10**6), 64))
    cyc = residues(rng.sample(range(10**9 + 7), 64), 10**9 + 7)
    for a, modulus in ((line, None), (cyc, 10**9 + 7)):
        b = GroundSet(a.ambient, a.elements[:40])
        size = len(naive_sumset(a.elements, b.elements, modulus))
        assert len(sumset(a, b, size_cap=size)) == size
        assert sum_kernels[-1] == "sorted"
        with pytest.raises(SizeCapExceededError) as info:
            sumset(a, b, size_cap=size - 1)
        err = info.value
        assert (str(err), err.cap, err.stage) == (
            f"sumset exceeds cap {size - 1}", size - 1, "sumset"
        )
    # The kernel raises itself, after the first block past the cap.
    xs, ys = list(range(0, 64 * 10**6, 10**6)), list(range(0, 64 * 7, 7))
    with pytest.raises(SizeCapExceededError, match="^sumset exceeds cap 100$"):
        groundset._sum_codes(xs, None, ys, None, 100)


@pytest.mark.parametrize("kind", AMBIENT_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sorted_sums_on_every_step_match_naive(kind, data):
    # With no pair minimum and no dense range, every sumset step is sorted.
    (a, b), modulus = data.draw(ambient_sets(kind, 2, 12))
    sign = data.draw(st.sampled_from("+-"))
    ys = b.elements if sign == "+" else naive_neg(b.elements, modulus)
    want = naive_sumset(a.elements, ys, modulus)
    cap = data.draw(st.integers(0, len(want) + 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundset, "SORTED_MIN_PAIRS", 1)
        mp.setattr(groundset, "DENSE_RANGE_LIMIT", 0)
        ran = record_sum_kernels(mp)
        assert list(sumset(a, b, sign).elements) == want
        assert ran == ["sorted"]
        if len(want) > cap:
            with pytest.raises(SizeCapExceededError):
                sumset(a, b, sign, size_cap=cap)
        else:
            assert list(sumset(a, b, sign, size_cap=cap).elements) == want


@settings(max_examples=30, deadline=None)
@given(small_int_sets, st.integers(1, 3), st.integers(0, 2))
def test_iterated_sumset_matches_naive(xs, n, m):
    a = integers(xs)
    assert list(iterated_sumset(a, n, m).elements) == naive_iterated(sorted(xs), n, m)


def test_sumset_residues_wraps():
    a = residues([3, 4], 5)
    s = sumset(a, a)
    assert set(s.elements) == {(x + y) % 5 for x in (3, 4) for y in (3, 4)}


def test_size_cap_enforced():
    a = integers(range(1, 30))
    with pytest.raises(SizeCapExceededError):
        sumset(a, a, size_cap=10)


def test_dilate_translate():
    a = integers([1, 2, 4])
    assert translate(a, 10).elements == (11, 12, 14)
    assert translate(residues([1, 5], 7), 3).elements == (1, 4)
    assert translate(vectors([(0, 1), (1, -1)], 2), (-1, 2)).elements == ((-1, 3), (0, 1))


def test_combination():
    amb = IntegerLattice(1)
    assert combination(amb, (2, 3, 5), (1, -1, 2)) == 2 - 3 + 10
    amb2 = Residues(7)
    assert combination(amb2, (3, 5), (2, 1)) == (6 + 5) % 7


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(-20, 20), min_size=1, max_size=7), st.integers(1, 4))
def test_sigma_k_matches_naive(xs, k):
    a = integers(xs)
    assert list(sigma_k(a, k).elements) == naive_sigma(xs, k)


@pytest.mark.parametrize(
    "a, zero, modulus",
    [
        (integers([-7, 0, 3, 5, 11]), 0, None),
        (residues([1, 2, 4, 6, 9], 11), 0, 11),
        (vectors([(0, 1), (1, 0), (1, 1), (-2, 3)], 2), (0, 0), None),
    ],
    ids=["line", "residues", "z2"],
)
def test_sigma_k_below_at_and_past_the_size_of_a(a, zero, modulus):
    # From k = |A| on, sigma_k keeps one running set of subset sums.
    for k in range(len(a) + 3):
        expected = naive_sigma(a.elements, k, zero, modulus)
        assert list(sigma_k(a, k).elements) == expected, k
    with pytest.raises(SizeCapExceededError):
        sigma_k(a, len(a) + 1, size_cap=len(expected) - 1)
    assert len(sigma_k(a, len(a) + 1, size_cap=len(expected))) == len(expected)


def test_sigma_k_contains_zero():
    # the empty sum always contributes
    a = integers([3, 5])
    assert 0 in sigma_k(a, 2)


def test_rep_fn_counts():
    a = integers([0, 1])
    r = rep_fn([(a, "+"), (a, "+")])
    assert r.entries == {0: 1, 1: 2, 2: 1}
    r2 = rep_fn([(a, "+"), (a, "-")])
    assert r2.entries == {-1: 1, 0: 2, 1: 1}


def test_rep_fn_counts_past_64_bits():
    # Counts widen from one byte to 64 bits per packed slot, then leave the
    # packed product for the dict once they could pass 2^64.
    parts = 20
    coeffs = [1]
    for _ in range(parts):
        coeffs = [
            sum(coeffs[i - d] for d in range(16) if 0 <= i - d < len(coeffs))
            for i in range(len(coeffs) + 15)
        ]
    assert max(coeffs) > 2**64
    assert rep_fn([(integers(range(16)), "+")] * parts).entries == dict(enumerate(coeffs))
    group = residues(range(31), 31)
    assert rep_fn([(group, "+")] * 14).entries == {r: 31**13 for r in range(31)}


def test_mult_embed_roundtrip():
    a = integers([2, 3, 6])
    emb = mult_embed(a)
    assert set(emb.image.elements) == {(1, 0), (0, 1), (1, 1)}
    back = emb.preimage(emb.image)
    assert back.elements == a.elements


def test_mult_embed_requires_positive():
    with pytest.raises(PreconditionError):
        mult_embed(integers([0, 2]))
    with pytest.raises(PreconditionError):
        mult_embed(integers([-2, 3]))


def test_mult_embed_prime_powers_rank_one():
    a = integers([2, 4, 8])
    emb = mult_embed(a)
    # single prime collapses to the exponent line
    assert set(emb.image.elements) == {1, 2, 3}
    assert emb.preimage(emb.image).elements == (2, 4, 8)


def test_product_set():
    a = integers([2, 3])
    assert product_set(a, a).elements == (4, 6, 9)
    g = residues([1, 2, 4], 7)
    assert set(product_set(g, g).elements) == {1, 2, 4}  # subgroup is closed


def test_vectors_ambient():
    v = vectors([(1, 0), (0, 1)], 2)
    s = sumset(v, v)
    assert set(s.elements) == {(2, 0), (1, 1), (0, 2)}


def test_set_file_roundtrip(tmp_path):
    for a in (
        integers([-3, 1, 8]),
        residues([1, 5, 8, 12], 13),
        vectors([(1, 2), (3, -4)], 2),
    ):
        assert parse_set_text(format_set(a)).elements == a.elements
        assert parse_set_text(format_set(a)).ambient == a.ambient
        path = tmp_path / "set.txt"
        save_set(a, str(path))
        assert load_set(str(path)) == a


def test_parse_rejects_garbage():
    with pytest.raises(Exception):
        parse_set_text("@ambient mod 7\nbanana\n")


def test_groundset_hashable_and_cacheable():
    a = integers([1, 2])
    b = integers([1, 2])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
