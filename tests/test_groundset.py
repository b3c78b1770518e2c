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
    dilate,
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
    sumset,
    translate,
    vectors,
)

from oracles import naive_iterated, naive_sigma, naive_sumset

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
    with pytest.raises(CoordinateOverflowError):
        sumset(integers([2**62]), integers([2**62]))


@settings(max_examples=60, deadline=None)
@given(small_int_sets, small_int_sets)
def test_sumset_matches_naive(xs, ys):
    a, b = integers(xs), integers(ys)
    assert list(sumset(a, b).elements) == naive_sumset(xs, ys)
    assert list(sumset(a, b, "-").elements) == naive_sumset(xs, [-y for y in ys])


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
    assert dilate(a, 3).elements == (3, 6, 12)
    assert dilate(a, -1).elements == (-4, -2, -1)
    assert translate(a, 10).elements == (11, 12, 14)
    with pytest.raises(Exception):
        dilate(a, 0)


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
