import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from adlab import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CoordinateOverflowError,
    PreconditionError,
    WorkMeter,
    cube,
    d_k_exact,
    d_star_lower,
    dim_bounds,
    dim_k_exact,
    integers,
    is_k_dissociated,
    max_dissociated_greedy,
    residues,
    span_k,
    subgroup,
    vectors,
)
from adlab import dissociation
from adlab.dissociation import _extender, _span_codes
from adlab.groundset import Residues
from adlab.harness import CORE_INSTANCES, generate

from oracles import (
    naive_cube,
    naive_d_k,
    naive_dim_k,
    naive_dim_k1,
    naive_relation,
    naive_span,
    reference_dim_bounds,
    relation_supports,
    subsets,
)


def test_certificate_agrees_with_naive_small():
    rng = random.Random(7)
    for _ in range(40):
        xs = sorted(rng.sample(range(-15, 16), rng.randint(1, 6)))
        for k in (1, 2, 3):
            cert = is_k_dissociated(integers(xs), k)
            assert cert.is_dissociated == (naive_relation(xs, k) is None)
            assert cert.verify(integers(xs))
    # residues mod 31 and Z^2, with 0 among the draws
    for _ in range(40):
        rs = rng.sample(range(31), rng.randint(1, 5))
        vs = list({(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))})
        for k in (1, 2, 3):
            for lam, xs, modulus in ((residues(rs, 31), rs, 31), (vectors(vs, 2), vs, None)):
                cert = is_k_dissociated(lam, k)
                assert cert.is_dissociated == (naive_relation(xs, k, modulus) is None)
                assert cert.verify(lam)


def test_relation_certificate_replays():
    cert = is_k_dissociated(integers([1, 2, 3]), 1)
    assert cert.verdict == "relation"
    coeffs = cert.relation
    assert sum(c * x for c, x in zip(coeffs, (1, 2, 3))) == 0
    assert any(coeffs) and all(abs(c) <= 1 for c in coeffs)


@pytest.mark.parametrize(
    "xs, k",
    [
        ([2**i for i in range(12)], 1),  # one table of all sums lists 2^12
        ([1, 5, 25, 125, 625, 3125], 2),  # one table of all sums lists 5^6 = 15 625
    ],
    ids=["k1", "k2"],
)
def test_certificate_costs_two_half_tables(xs, k):
    cert = is_k_dissociated(integers(xs), k)
    assert cert.is_dissociated
    n = len(xs)
    assert cert.states_visited <= (2 * k + 1) ** (n // 2) + (2 * k + 1) ** (n - n // 2)


def test_certificate_stops_at_a_relation_among_the_first_elements():
    # 1 + 13 - 14 = 0 is found once each half has listed its first two elements.
    cert = is_k_dissociated(integers(range(1, 25)), 1)
    assert cert.verdict == "relation" and cert.verify(integers(range(1, 25)))
    assert cert.states_visited <= 54


def test_certificate_charges_a_block_before_listing_it():
    # 127 = 1 + 2 + ... + 64: the relation is the 27th sum of the last block,
    # the right half's 127 (54 sums), listed after 2 + 2 + 6 + 6 + 18 + 18 +
    # 54 = 106 states.  One state short of the block, no sum of it is listed.
    lam = integers([1, 2, 4, 8, 16, 32, 64, 127])
    cert = is_k_dissociated(lam, 1, budget=160)
    assert cert.verdict == "relation" and cert.verify(lam)
    assert cert.states_visited == 106 + 54
    meter = WorkMeter(159)
    with pytest.raises(BudgetExceededError, match="state budget exhausted"):
        is_k_dissociated(lam, 1, budget=meter)
    assert meter.states == 160  # the whole block, charged before any of its sums


def test_certificate_on_the_line_raises_when_a_signed_sum_leaves_int64():
    assert is_k_dissociated(integers([B62, -(B62 - 1)]), 1).is_dissociated
    with pytest.raises(CoordinateOverflowError):
        is_k_dissociated(integers([B62, -B62]), 1)


def test_zero_element_is_instant_relation():
    cert = is_k_dissociated(integers([0, 5]), 1)
    assert cert.verdict == "relation"
    assert cert.verify(integers([0, 5]))


def test_dim_exact_matches_naive_dfs():
    rng = random.Random(3)
    for _ in range(25):
        xs = sorted(rng.sample(range(1, 60), rng.randint(1, 9)))
        db = dim_k_exact(integers(xs), 1)
        assert db.exact
        assert db.value == naive_dim_k1(xs)


def test_dim_k2_matches_naive_on_tiny():
    rng = random.Random(11)
    for _ in range(10):
        xs = sorted(rng.sample(range(1, 25), rng.randint(1, 5)))
        db = dim_k_exact(integers(xs), 2)
        assert db.value == naive_dim_k(xs, 2)


def _random_sets(kind, rng):
    """(ground set, elements, modulus) triples for one ambient kind."""
    if kind == "residues":
        # N = 2 and 3, elements with c*x = 0 for c <= 3 (3 mod 6, 4 mod 8), and a
        # modulus past the bitset limit, which runs on frozensets.
        yield residues([1], 2), [1], 2
        yield residues([1, 2], 3), [1, 2], 3
        yield residues([3], 6), [3], 6
        yield residues([2, 4, 5], 8), [2, 4, 5], 8
        for n in (4, 7, 12, 30):
            for _ in range(3):
                xs = rng.sample(range(1, n), rng.randint(1, min(n - 1, 5)))
                yield residues(xs, n), xs, n
        big = (1 << 22) + 1
        xs = [1, 2, 5, big - 3, big - 1]
        yield residues(xs, big), xs, big
    elif kind == "z2":
        # Four points with dim_3 = 3 and five with dim_2 = 4: (k+1)^t sums
        # exceed k * (sum of max-norms) + 1, which bounds one coordinate only.
        for xs in ([(-3, 1), (0, 2), (1, 0), (3, -2)], [(-3, 1), (1, -2), (1, -1), (1, 3), (2, 3)]):
            yield vectors(xs, 2), xs, None
        pts = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
        for _ in range(20):
            xs = rng.sample(pts, rng.randint(1, 5))
            yield vectors(xs, 2), xs, None
    else:
        for _ in range(8):
            xs = rng.sample(range(-20, 21), rng.randint(1, 5))
            yield integers(xs), xs, None


@pytest.mark.parametrize("kind", ["residues", "z2", "negative"])
def test_dim_and_greedy_match_naive_in_every_ambient(kind):
    rng = random.Random(17)
    for a, xs, modulus in _random_sets(kind, rng):
        for k in (1, 2, 3):
            db = dim_k_exact(a, k)
            assert db.exact and db.value == naive_dim_k(xs, k, modulus), (xs, k)
            assert naive_relation(list(db.lower_witness.elements), k, modulus) is None
            greedy = max_dissociated_greedy(a, k)
            assert set(greedy.elements) <= set(a.elements)
            assert naive_relation(list(greedy.elements), k, modulus) is None, (xs, k)


def _bit_positions(bits):
    return {i for i, digit in enumerate(reversed(bin(bits)[2:])) if digit == "1"}


def _naive_translates(bits, step, k, modulus):
    """The k + 1 translates of the set in ``bits`` by c*step, OR-ed, or None
    when two of them meet."""
    seen = set()
    for c in range(k + 1):
        for s in _bit_positions(bits):
            z = s + c * step if modulus is None else (s + c * step) % modulus
            if z in seen:
                return None
            seen.add(z)
    return seen


@pytest.mark.parametrize("k", [*range(1, 10), 36, 64])
@pytest.mark.parametrize("modulus", [None, 97, 10007])
def test_bitset_steps_match_the_naive_union_of_translates(k, modulus):
    rng = random.Random(k)
    amb = integers([]).ambient if modulus is None else Residues(modulus)
    unit = 1 if modulus is None else rng.randrange(1, modulus)
    # At the states of 0, 1 and 2 powers of k + 1 (times a unit mod N), the
    # next power is accepted while (k + 1)^depth sums fit; a zero step, and
    # most random ones, meet.
    powers = [(k + 1) ** depth * unit for depth in range(3)]
    if modulus is not None:
        powers = [x % modulus for x in powers]
    others = [rng.randrange(1, 400) for _ in range(3)] + [0]
    state, extend, steps = _extender(amb, k, powers + others)
    trials = []
    count = 1
    for power in steps[:3]:
        trials += [(state, step, count) for step in [power, *steps[3:]]]
        state, count = extend(state, power, count), count * (k + 1)
        if state is None:
            break
    # Any bitset is a valid state: small random ones, where any two of the
    # k + 1 translates may meet first.
    for _ in range(100):
        members = rng.sample(range(40), rng.randint(1, 6))
        trials.append((sum(1 << x for x in members), rng.randrange(1, 60), len(members)))
    outcomes = set()
    for state, step, count in trials:
        want = _naive_translates(state, step, k, modulus)
        got = extend(state, step, count)
        assert (got is None) == (want is None), (k, modulus, state, step)
        assert got is None or _bit_positions(got) == want
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_truncated_searches_spend_the_same_states():
    # Budget-truncated searches on subset-sum cubes, pinned tick for tick:
    # the core suite's cube searches of gp(2, 10), ap_union and
    # random_sample, as the harness runs them at CUBE_DIM_BUDGET.  The
    # plain loop reference_dim_bounds gives the first two the same results,
    # but takes about 23 s for each.
    cases = [
        ([2, 8, 32, 128, 512], (7, 12, False, 400001, (2, 8, 34, 130, 168, 520, 672))),
        ([5, 6, 118, 136, 145], (7, 11, False, 400001, (5, 6, 123, 141, 260, 292, 399))),
        (
            [558, 619, 621, 641, 931, 938],
            (8, 15, False, 400008, (2510, 3370, 3377, 3667, 3687, 3689, 3750, 4308)),
        ),
    ]
    for gens, expected in cases:
        db = dim_bounds(cube(integers(gens))[0], 1, budget=400_000)
        assert (db.lower, db.upper, db.exact, db.states, db.lower_witness.elements) == expected
        assert db.note == "search truncated by budget"


def _search_sets():
    """Small sets on the line (negatives too, and crowded), mod N (past the
    bitset limit too), in Z^2 and in Z^3."""
    line = st.lists(st.integers(-40, 40), max_size=9).map(integers)
    # Many small magnitudes: the root's counting allowance falls below n.
    crowded = st.lists(st.integers(-12, 12), min_size=6, max_size=10).map(integers)
    mod = st.sampled_from([2, 3, 6, 8, 12, 30, 97, (1 << 22) + 1]).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), max_size=7).map(lambda xs: residues(xs, n))
    )
    z2 = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=6)
    z3 = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)), max_size=5)
    return st.one_of(
        line, crowded, mod, z2.map(lambda xs: vectors(xs, 2)), z3.map(lambda xs: vectors(xs, 3))
    )


@settings(max_examples=400, deadline=None)
@given(
    _search_sets(),
    st.integers(1, 3),
    st.sampled_from([None, 8, 50, 300, 2000]),
    st.sampled_from([0, 3]),
)
# Truncated with the allowance of the root, 4, as the upper end.
@example(integers([-12, -9, -6, 0, 1, 2, 3, 7, 8, 11]), 2, 12, 0)
# No search on {0}: the states already on the meter.
@example(integers([0]), 1, 50, 3)
# One element of each class {x, -x}: the search runs on -7, -3, -2, 5.
@example(integers([-7, -3, -2, 2, 3, 5, 7]), 1, None, 0)
# Units mod 12 and a subgroup mod 13: their dilations are transitive, so
# the root tries the least element alone.
@example(residues([1, 5, 7, 11], 12), 1, None, 0)
@example(subgroup(13, 4).members, 2, None, 0)
# A coset of subgroup(31, 5), truncated after the greedy pre-pass.
@example(residues([3, 6, 12, 17, 24], 31), 1, 6, 0)
def test_search_matches_the_reference_loop(a, k, budget, spent):
    # Bounds, witness, note and states, tick for tick, also when a budget
    # truncates the search or a shared meter has already been charged.
    amb = a.ambient
    modulus = amb.modulus if isinstance(amb, Residues) else None
    limit = DEFAULT_BUDGET if budget is None else budget
    expected = reference_dim_bounds(list(a.elements), k, limit, modulus, spent)

    def meter():
        m = WorkMeter(budget)
        if spent:
            m.tick(spent)
        return m

    db = dim_bounds(a, k, meter())
    got = (db.lower, db.upper, db.exact, db.states, db.lower_witness.elements, db.note)
    assert got == expected
    if db.note != "budget":
        assert dim_k_exact(a, k, meter()) == db


def test_dim_frozen_values():
    assert dim_k_exact(integers(range(1, 5)), 1).value == 3
    assert dim_k_exact(integers(range(1, 9)), 1).value == 4
    assert dim_k_exact(integers(range(1, 5)), 2).value == 2
    assert dim_k_exact(integers(range(1, 10)), 2).value == 3


@pytest.mark.parametrize(
    "p, t, witness",
    [
        (211, 42, (1, 12, 14, 31, 38, 73)),
        (401, 40, (1, 20, 22, 29, 35, 39, 98)),
        (401, 50, (1, 5, 14, 16, 39, 72, 173)),
    ],
)
def test_subgroup_dimensions_finish_on_their_orbits(p, t, witness):
    # On all of Gamma these searches stop at 2 M states with [6, 7] and
    # [7, 8]; on one element of each class {x, -x} with 1 at the root they
    # finish, each with the witness the truncated search had found.
    db = dim_bounds(subgroup(p, t).members, 1, budget=2_000_000)
    assert (db.lower, db.upper, db.exact, db.note) == (len(witness), len(witness), True, "")
    assert db.lower_witness.elements == witness


# ---------------------------------------------------------------------------
# The largest subset holding no listed support


def _first_avoiding(n, supports):
    """The first subset of range(n), largest first and then in lexicographic
    order, that holds no support."""
    for size in range(n, -1, -1):
        for sub in combinations(range(n), size):
            mask = sum(1 << i for i in sub)
            if not any(s & mask == s for s in supports):
                return list(sub)


def test_avoiding_matches_brute_force():
    rng = random.Random(31)
    for _ in range(1500):
        n = rng.randint(0, 10)
        width = rng.randint(1, 4)
        supports = [
            sum(1 << i for i in rng.sample(range(n), min(n, rng.randint(1, width))))
            for _ in range(rng.randint(0, 3 * n))
        ]
        supports = [s for s in supports if s]
        got = dissociation._avoiding(n, supports, WorkMeter(None))
        assert got == _first_avoiding(n, supports), (n, supports)


@pytest.mark.parametrize("spent", [0, 5])
def test_avoiding_raises_at_the_tick_of_the_meter(spent):
    # One tick per tried candidate, through WorkMeter.tick: a short budget
    # raises at the first tick past it, with those states, also on a meter
    # charged before the call.
    supports = relation_supports(range(1, 13))
    full = WorkMeter(None)
    full.tick(spent)
    witness = dissociation._avoiding(12, supports, full)
    total = full.states
    assert witness == [0, 1, 3, 7] and total > spent + 1
    for budget in range(spent + 1, total):
        meter = WorkMeter(budget)
        meter.tick(spent)
        with pytest.raises(BudgetExceededError) as exc:
            dissociation._avoiding(12, supports, meter)
        assert meter.states == exc.value.states == budget + 1
        assert str(exc.value) == f"state budget exhausted ({budget + 1} > {budget})"
    meter = WorkMeter(total)
    meter.tick(spent)
    assert dissociation._avoiding(12, supports, meter) == witness
    assert meter.states == total


def _criterion_4_sets(max_size):
    """Criterion 4's random draws below 10^6 of at most max_size elements."""
    out = []
    for i in range(200):
        rng = random.Random(1000 + i)
        xs = rng.sample(range(1, 10**6), rng.randint(4, 24))
        if len(xs) <= max_size:
            out.append(integers(xs))
    return out


@pytest.mark.parametrize(
    "sets",
    [
        pytest.param(
            lambda: [integers(sub) for sub in subsets(range(1, 11)) if sub], id="subsets_of_10"
        ),
        pytest.param(lambda: [generate(s) for s in CORE_INSTANCES], id="core"),
        pytest.param(
            lambda: [
                subgroup(p, t).members
                for p in (7, 13, 31, 61) for t in range(1, 17) if (p - 1) % t == 0
            ],
            id="subgroups",
        ),
        pytest.param(lambda: _criterion_4_sets(16), id="random"),
    ],
)
def test_dimensions_from_relation_supports(sets):
    # A second path to dim_1: list every relation's support by meet in the
    # middle and take the largest subset of the nonzero elements that holds
    # none.  Value and witness must be dim_bounds'.
    for a in sets():
        amb = a.ambient
        elems = [x for x in a.elements if x != amb.zero]
        modulus = amb.modulus if isinstance(amb, Residues) else None
        supports = relation_supports(elems, modulus)
        kept = dissociation._avoiding(len(elems), supports, WorkMeter(None))
        db = dim_bounds(a, 1)
        assert db.exact, a
        assert tuple(elems[i] for i in kept) == db.lower_witness.elements, a


def test_dim_witness_is_dissociated_subset():
    a = integers(range(1, 13))
    db = dim_k_exact(a, 1)
    w = db.lower_witness
    assert set(w.elements) <= set(a.elements)
    assert is_k_dissociated(w, 1).is_dissociated
    assert len(w) == db.value


def test_dim_monotone_under_inclusion():
    base = list(range(1, 11))
    prev = 0
    for n in range(1, 11):
        cur = dim_k_exact(integers(base[:n]), 1).value
        assert cur >= prev
        prev = cur


def test_dim_ignores_zero():
    a = integers([3, 5, 9])
    a0 = integers([0, 3, 5, 9])
    assert dim_k_exact(a, 1).value == dim_k_exact(a0, 1).value
    assert dim_k_exact(a, 2).value == dim_k_exact(a0, 2).value


def test_trivial_sets_report_the_states_of_their_meter():
    # No search runs on {} or {0}: a shared meter reports what it already
    # holds, as on any other set; an int or None budget reports 0.
    m = WorkMeter(100)
    m.tick(7)
    assert dim_bounds(integers([0]), 1, m).states == 7
    assert dim_bounds(integers([0, 3]), 1, m).states == 9
    for a in (integers([]), integers([0]), residues([0], 5), vectors([(0, 0)], 2)):
        assert dim_k_exact(a, 1, m).states == 9
        assert d_k_exact(a, 1, m).states == 9
        for budget in (None, 10, 0, -1):
            assert dim_k_exact(a, 1, budget).states == 0
            assert d_k_exact(a, 1, budget).states == 0


def test_dim_antitone_in_k():
    for xs in ([1, 2, 3, 4, 5, 6], [2, 3, 7, 11], [1, 10, 100]):
        d1 = dim_k_exact(integers(xs), 1).value
        d2 = dim_k_exact(integers(xs), 2).value
        d3 = dim_k_exact(integers(xs), 3).value
        assert d1 >= d2 >= d3


@settings(max_examples=30, deadline=None)
@given(
    st.sets(st.integers(1, 40), min_size=1, max_size=6),
    st.sampled_from([-3, -1, 2, 5]),
)
def test_dim_dilation_invariant(xs, lam):
    a = integers(xs)
    dilated = integers(a.ambient.scale(lam, x) for x in a.elements)
    assert dim_k_exact(a, 1).value == dim_k_exact(dilated, 1).value
    assert dim_k_exact(a, 2).value == dim_k_exact(dilated, 2).value


def test_counting_floor_k1():
    # 3^dim >= |A| holds for every instance at order 1
    for mask_set in subsets(range(1, 9)):
        if not mask_set:
            continue
        d = dim_k_exact(integers(mask_set), 1).value
        assert 3**d >= len(mask_set)


def test_counting_floor_k2_gcd_corrected():
    # at order 2 the box bound carries the coefficient-dilate factor
    gamma = residues([1, 2, 4], 7)
    d2 = dim_k_exact(gamma, 2).value
    factor = 2  # gcd(1,7) + gcd(2,7)
    assert factor * 5**d2 >= len(gamma)


def test_span_matches_naive():
    rng = random.Random(5)
    for _ in range(20):
        xs = sorted(rng.sample(range(-9, 10), rng.randint(1, 4)))
        for k in (1, 2, 3):
            sp = span_k(integers(xs), k)
            assert list(sp.elements) == naive_span(xs, k)


def test_span_residues():
    sp = span_k(residues([3], 7), 1)
    assert set(sp.elements) == {0, 3, 4}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "a, bitset",
    [
        # Dense line sets, small moduli and small Z^2 boxes take bitsets;
        # sparse line sets, moduli past 2^22 and wide Z^2 boxes take sets.
        (integers([-9, 2, 5, 7]), True),
        (integers([-1, 0, 1]), True),
        (integers([1, 10**6, -3 * 10**5]), False),
        (residues([3, 40, 77], 97), True),
        (residues([0, 1, 6], 12), True),
        (residues([3, 40, 77, 1 << 21], (1 << 22) + 1), False),
        (vectors([(1, -2), (3, 0), (-2, 5)], 2), True),
        (vectors([(1, -2 * 10**5), (3 * 10**4, 0)], 2), False),
        (vectors([(1, 0, -1), (0, 2, 1)], 3), True),
    ],
)
def test_span_matches_naive_on_both_states(monkeypatch, a, bitset, k):
    kinds = []

    def recording(parts, modulus):
        state, base = _span_codes(parts, modulus)
        kinds.append(base is not None)
        return state, base

    monkeypatch.setattr(dissociation, "_span_codes", recording)
    amb = a.ambient
    modulus = amb.modulus if isinstance(amb, Residues) else None
    assert list(span_k(a, k).elements) == naive_span(a.elements, k, modulus)
    assert kinds == [bitset]


def test_d_k_exact_small():
    # naive minimum spanning subset for A = [6]
    a = integers(range(1, 7))
    res = d_k_exact(a, 1)
    assert res.exact
    best = None
    for sub in subsets(range(1, 7)):
        if sub and set(range(1, 7)) <= set(naive_span(sub, 1)):
            best = len(sub)
            break
    assert res.value == best
    assert res.upper_witness is not None
    assert set(a.elements) <= set(span_k(res.upper_witness, 1).elements)


def test_chain_at_k1():
    a = integers(range(1, 9))
    dim = dim_k_exact(a, 1).value
    d = d_k_exact(a, 1).value
    assert d_star_lower(a, max_dissociated_greedy(a, 1)) <= d <= dim


def test_d_star_lower_counts():
    # 3^2 >= 8 gives 2; the greedy witness {8, 7, 5, 1} gives 2^4 <= 9^|S|, also 2
    a = integers(range(1, 9))
    lam = max_dissociated_greedy(a, 1)
    assert len(lam) == 4 and d_star_lower(a, lam) == 2
    zero = integers([0])
    assert d_star_lower(zero, max_dissociated_greedy(zero, 1)) == 0
    # powers of two are dissociated: 3^3 >= 20, but 2^20 > 41^3 forces 4
    powers = integers([2**i for i in range(20)])
    assert d_star_lower(powers, powers) == 4


def test_restricted_cover_can_exceed_dim_at_higher_k():
    # {2, 3} at order 3: the pair carries the relation 3*2 - 2*3 = 0, so the
    # largest 3-dissociated subset is a singleton, yet no singleton 3-span
    # contains both elements.  The k = 1 chain does not survive amplification.
    a = integers([2, 3])
    assert dim_k_exact(a, 3).value == 1
    assert d_k_exact(a, 3).value == 2


def test_d_k_antitone_in_k():
    a = integers(range(1, 7))
    assert d_k_exact(a, 1).value >= d_k_exact(a, 2).value >= d_k_exact(a, 3).value


def _cover_sets():
    """Small sets on the line (negatives too; dense enough for bitset spans
    at small t, or so sparse that the spans stay sets), mod N (past 2^22
    too), in Z^2 and in Z^3."""
    line = st.sampled_from([30, 3000, 1 << 23]).flatmap(
        lambda r: st.lists(st.integers(-r, r), max_size=5).map(integers)
    )
    mod = st.sampled_from([2, 5, 12, 97, (1 << 22) + 1]).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), max_size=5).map(lambda xs: residues(xs, n))
    )
    z2 = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=5)
    z3 = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)), max_size=5)
    return st.one_of(line, mod, z2.map(lambda xs: vectors(xs, 2)), z3.map(lambda xs: vectors(xs, 3)))


@settings(max_examples=200, deadline=None)
@given(_cover_sets(), st.integers(1, 3))
# A bitset span of {1, 2} cannot reach the codes of A, which spread past 2^22.
@example(integers([1, 2, 3, 1 << 23]), 1)
def test_d_k_finds_the_first_covering_subset(a, k):
    amb = a.ambient
    modulus = amb.modulus if isinstance(amb, Residues) else None
    first = naive_d_k(list(a.elements), k, modulus)
    db = d_k_exact(a, k)
    assert db.exact and db.value == len(first)
    assert db.upper_witness.elements == first


@pytest.mark.parametrize(
    "a, k, budget, expected",
    [
        (integers(range(1, 9)), 1, None, (3, 3, True, 341, (1, 2, 5), "")),
        (integers([-7, -3, 2, 5, 11, 20]), 1, None, (4, 4, True, 843, (-7, -3, 2, 11), "")),
        (
            integers([-7, -3, 2, 5, 11, 20]), 2, 200,
            (2, 4, False, 206, (-7, 5, 11, 20), "search truncated by budget"),
        ),
        (integers(range(-6, 9)), 1, 2000, (3, 3, True, 95, (-6, -5, -2), "")),
        (residues([1, 5, 17, 30, 44], 97), 1, None, (4, 4, True, 446, (1, 5, 17, 30), "")),
        (
            residues([3, 9, 27, 81, 243], (1 << 22) + 1), 2, 3000,
            (4, 5, False, 3430, (3, 9, 27, 81, 243), "search truncated by budget"),
        ),
        (
            vectors([(1, 0), (0, 1), (1, 1), (2, -1), (-3, 2)], 2), 2, None,
            (3, 3, True, 405, ((-3, 2), (0, 1), (1, 0)), ""),
        ),
        (
            vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, -1, 0), (0, 2, -2)], 3), 1, 60,
            (
                2, 5, False, 69, ((0, 0, 1), (0, 1, 0), (0, 2, -2), (1, 0, 0), (2, -1, 0)),
                "search truncated by budget",
            ),
        ),
        (
            vectors([(2, -1, 1), (-2, 2, 0), (1, 1, -2), (0, -2, 2), (2, 2, 2)], 3), 3, 300,
            (
                2, 5, False, 334, ((-2, 2, 0), (0, -2, 2), (1, 1, -2), (2, -1, 1), (2, 2, 2)),
                "search truncated by budget",
            ),
        ),
        # Rows 9-12 pin both span states: gp(2, 10) and the Z^2 set take
        # bitsets, as does mod 97, while criterion 4's random set 38, whose
        # box fits 2^22, stays on sets.
        (
            integers([2**i for i in range(10)]), 1, 500_000,
            (
                8, 10, False, 503587, tuple(2**i for i in range(10)),
                "search truncated by budget",
            ),
        ),
        (
            integers([49330, 74645, 130414, 156929, 266486, 392932, 513342]), 1, None,
            (7, 7, True, 17034, (49330, 74645, 130414, 156929, 266486, 392932, 513342), ""),
        ),
        (residues([2, 3, 11, 29, 40, 58, 71, 90], 97), 2, None, (3, 3, True, 1208, (2, 3, 58), "")),
        (
            vectors([(3, 1), (-1, 2), (2, 2), (5, -1), (-4, 3), (1, -5), (6, 4)], 2), 1, None,
            (6, 6, True, 9808, ((-4, 3), (-1, 2), (1, -5), (2, 2), (3, 1), (5, -1)), ""),
        ),
    ],
)
def test_d_k_states_are_pinned(a, k, budget, expected):
    # Tick for tick, also when the budget truncates the search.
    db = d_k_exact(a, k, budget)
    assert (db.lower, db.upper, db.exact, db.states, db.upper_witness.elements, db.note) == expected


B62 = 1 << 62
OVERFLOW = "overflow"


@pytest.mark.parametrize(
    "xs, k, expected",
    [
        # (greedy size, dim_bounds (lower, upper, states), d_k_exact (lower, upper, states),
        # is_k_dissociated verdict)
        ([(B62, 0), (B62 - 1, 1)], 1, (2, (2, 2, 4), (2, 2, 17), "dissociated")),
        ([(B62, 0), (B62, 1)], 1, (OVERFLOW, OVERFLOW, OVERFLOW, OVERFLOW)),
        ([(-B62, 0), (-B62, -1)], 1, (2, (2, 2, 4), OVERFLOW, OVERFLOW)),
        ([(-B62 - 1, 0), (-B62, 3)], 1, (OVERFLOW, OVERFLOW, OVERFLOW, OVERFLOW)),
        ([(B62 // 2, 1), (B62 // 2 - 1, -1)], 2, (2, (2, 2, 4), (2, 2, 37), "dissociated")),
        ([(B62 // 2, 1), (B62 // 2 - 1, -1)], 3, (OVERFLOW, OVERFLOW, OVERFLOW, OVERFLOW)),
        ([(1, B62 - 2, -1), (2, B62, 0), (0, 1, 2)], 1, (3, (3, 3, 6), (3, 3, 66), "dissociated")),
        ([(1, B62 - 1, -1), (2, B62, 0), (0, 1, 2)], 1, (OVERFLOW, OVERFLOW, OVERFLOW, OVERFLOW)),
        ([(3, -2, -B62), (-1, 0, -B62 + 1), (2, 2, -1)], 1, (3, (3, 3, 6), OVERFLOW, OVERFLOW)),
        (
            [(3, -2, -B62 - 1), (-1, 0, -B62 + 1), (2, 2, -1)], 1,
            (OVERFLOW, OVERFLOW, OVERFLOW, OVERFLOW),
        ),
        ([(B62 // 2, 0, 1), (B62 // 2, 1, 0), (0, -1, 1)], 1, (2, (2, 2, 6), (2, 2, 21), "relation")),
        ([(B62 // 2, 0, 1), (B62 // 2, 1, 0), (0, -1, 1)], 2, (OVERFLOW, OVERFLOW, OVERFLOW, OVERFLOW)),
        (
            [(B62 // 2 - 1, 0, 1), (B62 // 2, 1, 0), (0, -1, 1)], 2,
            (3, (3, 3, 6), (3, 3, 218), "dissociated"),
        ),
        # The sign-class test of dim_k_exact negates (1, -2^63), whose
        # negative leaves int64, and raises nothing.
        ([(-1, 0), (1, -2 * B62)], 1, (2, (2, 2, 4), OVERFLOW, OVERFLOW)),
    ],
)
def test_lattice_searches_raise_exactly_when_a_sum_leaves_int64(xs, k, expected):
    # Sums within a few units of +-2^63: every search raises at the first
    # sum (or, for d_k_exact, span) outside int64, and only there.
    a = vectors(xs, len(xs[0]))

    def bounds(db):
        return db.lower, db.upper, db.states

    calls = (
        lambda: len(max_dissociated_greedy(a, k)),
        lambda: bounds(dim_bounds(a, k)),
        lambda: bounds(d_k_exact(a, k)),
        lambda: is_k_dissociated(a, k).verdict,
    )
    message = r"^coordinate -?\d+ outside signed 64-bit range$"
    for call, want in zip(calls, expected):
        if want == OVERFLOW:
            with pytest.raises(CoordinateOverflowError, match=message):
                call()
        else:
            assert call() == want
    # The certificate's codes are checked where span_k's are.
    try:
        span_k(a, k)
    except CoordinateOverflowError:
        assert expected[3] == OVERFLOW
    else:
        assert expected[3] != OVERFLOW


def test_greedy_is_maximal_and_spans():
    rng = random.Random(13)
    for _ in range(20):
        xs = sorted(rng.sample(range(1, 200), rng.randint(1, 10)))
        a = integers(xs)
        w = max_dissociated_greedy(a, 1)
        assert is_k_dissociated(w, 1).is_dissociated
        # maximality: every rejected element closes a relation, so it lies
        # in the unit-coefficient span of the witness
        assert set(a.elements) <= set(naive_span(sorted(w.elements), 1))


def test_budget_raises_and_bounds_degrade():
    a = integers([2**i + i for i in range(14)])
    with pytest.raises(BudgetExceededError):
        dim_k_exact(a, 1, budget=3)
    db = dim_bounds(a, 1, budget=3)
    assert not db.exact or db.lower == db.upper
    assert db.lower <= dim_k_exact(a, 1).value <= db.upper


def test_degraded_bounds_that_meet_are_exact():
    # Budget 6 buys the greedy pre-pass but not the whole search.
    a = integers([1, 2, 4, 8, 16, 32])
    db = dim_bounds(a, 1, budget=6)
    assert db.note == "search truncated by budget"
    assert (db.lower, db.upper, db.exact, db.value) == (6, 6, True, 6)


def test_bounds_degrade_when_one_node_outweighs_every_budget():
    # One node of this wide set weighs 2^49 states, more than the whole
    # budget, so the greedy pre-pass cannot finish and only [0, n] is
    # certified.
    db = dim_bounds(integers([2**62 - 1, 2**62]), 1, budget=50_000)
    assert (db.lower, db.upper, db.exact, db.note) == (0, 2, False, "budget")
    assert db.lower_witness is not None and len(db.lower_witness) == 0


def test_cube_proper_and_improper():
    q, proper = cube(integers([1, 10, 100]))
    assert proper and len(q) == 8
    assert set(q.elements) == {0, 1, 10, 11, 100, 101, 110, 111}
    q2, proper2 = cube(integers([1, 2, 3]))
    assert not proper2 and len(q2) < 8
    # {3, 5, 6} mod 7 reaches every residue; the Z^2 set has (1, 0) + (0, 1) = (1, 1).
    for lam, zero, modulus, size in (
        (residues([3, 5, 6], 7), 0, 7, 7),
        (vectors([(1, 0), (0, 1), (1, 1), (2, -3)], 2), (0, 0), None, 14),
    ):
        q, proper = cube(lam)
        assert list(q.elements) == naive_cube(lam.elements, zero, modulus)
        assert (len(q), proper) == (size, False)


def test_cube_generator_cap():
    with pytest.raises(PreconditionError):
        cube(integers(range(1, 30)))


def test_span_cap():
    with pytest.raises(Exception):
        span_k(integers(range(1, 30)), 3)
