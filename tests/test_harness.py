import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import adlab.decompose as decompose
import adlab.harness.claims as claims
from adlab import (
    PreconditionError,
    SizeCapExceededError,
    VerificationFailedError,
    d_k_exact,
    integers,
    residues,
    vectors,
)
from adlab.harness import (
    CORE_INSTANCES,
    FITTED_CLAIMS,
    HARD_CLAIMS,
    REGISTRY,
    clear_caches,
    evaluate_claim,
    fit_constant,
    generate,
    get_claim,
    report_to_json,
    run_core_suite,
    run_suite,
    spec,
)
from adlab.harness.runner import CORE_BUDGET
from adlab.modular import subgroup


# ---------------------------------------------------------------------------
# Generators


def test_generator_frozen_examples():
    assert generate(spec("es_product", s=2, h=2)).elements == (6, 12, 18, 36)
    assert generate(spec("interval", n=4)).elements == (1, 2, 3, 4)
    q = generate(spec("cube", gens=(1, 10, 100)))
    assert len(q) == 8  # proper cube on 3 generators


def test_generator_ap_and_gp():
    assert generate(spec("ap", start=1, step=1, length=6)).elements == tuple(range(1, 7))
    assert generate(spec("gp", base=2, length=5)).elements == (1, 2, 4, 8, 16)


def test_generator_random_sample_deterministic():
    s1 = generate(spec("random_sample", seed=3, n_max=1000, size=14))
    s2 = generate(spec("random_sample", seed=3, n_max=1000, size=14))
    s3 = generate(spec("random_sample", seed=4, n_max=1000, size=14))
    assert s1.elements == s2.elements
    assert len(s1) == 14
    assert s1.elements != s3.elements


def test_generator_unknown_name_raises():
    with pytest.raises(PreconditionError):
        generate(spec("no_such_generator", x=1))


def test_generator_parameter_validation():
    with pytest.raises(PreconditionError):
        generate(spec("interval"))
    with pytest.raises(PreconditionError):
        generate(spec("interval", n=4, bogus=1))


def test_spec_serialization_roundtrip():
    s = spec("ap", start=5, step=3, length=7, seed=2)
    j = s.to_json()
    assert j["generator"] == "ap"
    assert j["params"] == {"length": 7, "start": 5, "step": 3}
    assert j["seed"] == 2
    assert "ap" in j["label"]


# ---------------------------------------------------------------------------
# Registry


def test_registry_partition():
    assert set(REGISTRY) == set(HARD_CLAIMS) | set(FITTED_CLAIMS)
    assert not set(HARD_CLAIMS) & set(FITTED_CLAIMS)
    for cid, claim in REGISTRY.items():
        assert claim.id == cid
        assert claim.klass in ("hard", "fitted")
        assert claim.summary


def test_get_claim_unknown_raises():
    with pytest.raises(PreconditionError):
        get_claim("no_such_claim")


def test_dirichlet_claim_on_subgroup_holds():
    g = subgroup(31, 5).members
    recs = evaluate_claim(
        "dirichlet_dim_lower", g, {"generator": "subgroup", "params": {"p": 31, "t": 5}}
    )
    assert recs and not any(r.violated for r in recs)


def test_hard_claims_on_interval_all_hold():
    a = integers(range(1, 9))
    inst = {"generator": "literal"}
    for cid in HARD_CLAIMS:
        recs = evaluate_claim(cid, a, inst)
        assert not any(r.violated for r in recs), cid


def test_evaluate_claim_skip_note():
    big = integers(range(1, 200))
    recs = evaluate_claim("energy_dim_lower", big, {"generator": "literal"})
    assert recs
    assert all(r.note.startswith("skipped:") for r in recs)
    assert not any(r.violated for r in recs)


# ---------------------------------------------------------------------------
# Constant fitting


def test_fit_constant_shape():
    recs = []
    for a in (integers(range(1, 9)), integers([1, 2, 4, 8, 16])):
        recs += evaluate_claim("rudin_constant", a, {"generator": "literal"})
    fc = fit_constant("rudin_constant", recs)
    assert fc["claim"] == "rudin_constant"
    assert fc["direction"] == "upper"
    assert fc["count"] == len([r for r in recs if r.fitted_constant is not None])
    assert fc["binding"] == fc["max"]  # upper-direction constants bind at the max
    assert fc["min"] <= fc["quantiles"]["q25"] <= fc["quantiles"]["q50"]
    assert fc["quantiles"]["q50"] <= fc["quantiles"]["q75"] <= fc["max"]
    assert fc["finite"]


def test_fit_constant_lower_direction_binds_at_min():
    recs = []
    for a in (integers(range(1, 9)), integers(range(1, 13))):
        recs += evaluate_claim("sidon_extremal", a, {"generator": "literal"})
    fc = fit_constant("sidon_extremal", recs)
    assert fc["direction"] == "lower"
    assert fc["binding"] == fc["min"]


def test_fit_constant_empty_raises():
    with pytest.raises(PreconditionError):
        fit_constant("rudin_constant", [])


# ---------------------------------------------------------------------------
# Suite runner


def test_run_suite_no_instances():
    rep = run_suite(claim_ids=["growth_monotone"], instances=())
    assert rep["summary"]["records"] == 0
    assert rep["summary"]["hard_violations"] == 0


def test_run_suite_unknown_claim_raises():
    with pytest.raises(PreconditionError):
        run_suite(claim_ids=["growth_monotone", "bogus"], instances=())


def test_run_suite_single_instance():
    rep = run_suite(
        claim_ids=["growth_monotone", "pluennecke_doubling", "rudin_constant"],
        instances=[integers(range(1, 9))],
    )
    assert rep["summary"]["instances"] == 1
    assert rep["summary"]["records"] >= 3
    assert rep["summary"]["hard_violations"] == 0
    assert "rudin_constant" in rep["fits"]
    assert rep["violations"] == []


def test_run_suite_report_is_deterministic():
    kwargs = dict(
        claim_ids=["growth_monotone", "dim_chain"],
        instances=[spec("interval", n=6), spec("gp", base=2, length=6)],
    )
    j1 = report_to_json(run_suite(**kwargs), drop_timing=True)
    j2 = report_to_json(run_suite(**kwargs), drop_timing=True)
    assert j1 == j2


@pytest.mark.parametrize(
    "target, claim", [("dec_tk", "decomposition_energy"), ("dim_bounds", "cube_dim_ratio")]
)
def test_verification_failure_is_one_violated_record(monkeypatch, target, claim):
    # A broken certificate fails the run even inside a fitted claim.
    def broken(*args, **kw):
        raise VerificationFailedError("certificate does not re-verify")

    monkeypatch.setattr(claims, target, broken)
    rep = run_suite([claim, "growth_monotone"], [integers(range(1, 9))])
    recs = [r for r in rep["records"] if r["claim"] == claim]
    assert len(recs) == 1 and recs[0]["violated"] and recs[0]["class"] == "hard"
    assert "certificate does not re-verify" in recs[0]["note"]
    assert rep["violations"] == [{"claim": claim, "instance": "{8 elements, z d=1}"}]
    assert rep["summary"]["hard_violations"] == 1


def test_dim_chain_checks_the_uncapped_d_star_count(monkeypatch):
    # d* <= d is hard: a count above the exact d must be one violated record.
    a = integers(range(1, 9))
    d = d_k_exact(a, 1).value
    monkeypatch.setattr(claims, "d_star_lower", lambda a, lam: d + 1)
    clear_caches()
    rep = run_suite(["dim_chain"], [a])
    clear_caches()
    recs = rep["records"]
    assert len(recs) == 1 and recs[0]["violated"] and recs[0]["class"] == "hard"
    assert recs[0]["measured"]["mode"] == "exact"
    assert recs[0]["measured"]["checks"] == {"dstar_le_d": False, "d_le_dim": True}
    assert recs[0]["measured"]["dstar_lower"] == d
    assert rep["summary"]["hard_violations"] == 1


def test_stored_size_cap_error_reraises_without_recompute():
    calls = []

    def capped(x):
        calls.append(x)
        raise SizeCapExceededError("too large", cap=1, stage="test")

    clear_caches()
    for _ in range(2):
        with pytest.raises(SizeCapExceededError, match="too large"):
            claims._fact(capped, 1)
    assert calls == [1]
    clear_caches()


def test_stored_facts_match_cold_runs():
    a = integers([1, 2, 4, 8, 9, 20, 33])
    # 4B passes the sumset cap, so growth_monotone meets a size-cap error
    b = integers(random.Random(5).sample(range(1, 10**6), 50))

    def run(x):
        inst = {"generator": "literal"}
        return [r.to_json() for cid in REGISTRY for r in evaluate_claim(cid, x, inst, budget=50_000)]

    warm = [run(a), run(b), run(a)]
    cold = []
    for x in (a, b, a):
        clear_caches()
        cold.append(run(x))
    assert warm == cold


def test_each_instance_fact_runs_once(monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(claims, name)

        def wrapper(*args, **kw):
            calls.append((name, args, tuple(sorted(kw.items()))))
            return fn(*args, **kw)

        return wrapper

    for name in ("d_k_exact", "dim_shift_ratio", "sidon_extract", "_difference_ratios"):
        monkeypatch.setattr(claims, name, counted(name))
    # ratio_box builds the difference ratios too; the claims must not call it
    monkeypatch.setattr(decompose, "_difference_ratios", claims._difference_ratios)
    clear_caches()
    a = integers([1, 2, 4, 8, 9, 20, 33])
    for cid in REGISTRY:
        assert evaluate_claim(cid, a, {"generator": "literal"}, budget=50_000)
    clear_caches()
    # one call per distinct input; sidon_extremal also extracts under "*"
    assert len(calls) == len(set(calls))
    assert sorted(name for name, _, _ in calls) == [
        "_difference_ratios", "d_k_exact", "dim_shift_ratio", "sidon_extract", "sidon_extract"
    ]
    assert not hasattr(claims, "dim_k_exact")


def test_claims_skip_on_coordinate_overflow():
    # 2A leaves the signed 64-bit range, which aborted whole suites before.
    a = integers([2**62 - 1, 2**62])
    for cid in REGISTRY:
        recs = evaluate_claim(cid, a, {"generator": "literal"}, budget=50_000)
        assert recs and not any(r.violated for r in recs), cid
    recs = evaluate_claim("growth_monotone", a, {"generator": "literal"}, budget=50_000)
    assert [r.note for r in recs] == [
        "skipped: CoordinateOverflowError: coordinate 9223372036854775808 outside signed 64-bit range"
    ]


# A modulus above 2^22, where the dissociation search keeps frozenset states.
WIDE_MODULUS = (1 << 22) + 15


@pytest.mark.parametrize(
    "empty", [integers([]), residues([], 31), residues([], WIDE_MODULUS), vectors([], 2)]
)
def test_empty_set_is_one_skip_for_every_claim(empty):
    for cid in REGISTRY:
        recs = evaluate_claim(cid, empty, {"generator": "literal"}, budget=20_000)
        assert [r.note for r in recs] == ["skipped: empty set"], cid


@st.composite
def any_ambient_set(draw):
    """A set of 0-6 elements on the line, mod N or in Z^2 / Z^3.

    Lattice coordinates stay small (|c| <= 4 in Z^2, <= 2 in Z^3) so that
    the dimension searches every claim runs stay within seconds.
    """
    kind = draw(st.sampled_from(("line", "mod", "wide_mod", "z2", "z3")))
    size = dict(max_size=6)
    if kind == "line":
        near = st.integers(2**62 - 256, 2**62 + 256)
        elem = st.one_of(st.integers(-20, 20), near, near.map(lambda x: -x))
        return integers(draw(st.lists(elem, **size)))
    if kind in ("mod", "wide_mod"):
        n = draw(st.integers(2, 64)) if kind == "mod" else WIDE_MODULUS
        return residues(draw(st.lists(st.integers(0, n - 1), **size)), n)
    rank, c = (2, 4) if kind == "z2" else (3, 2)
    return vectors(draw(st.lists(st.tuples(*[st.integers(-c, c)] * rank), **size)), rank)


@settings(max_examples=100, deadline=None)
@given(any_ambient_set())
def test_every_claim_returns_records_in_every_ambient(a):
    for cid in REGISTRY:
        recs = evaluate_claim(cid, a, {"generator": "literal"}, budget=20_000)
        assert recs, cid
        assert not any(r.violated and r.klass == "hard" for r in recs), (cid, recs)
        if not a:
            assert [r.note for r in recs] == ["skipped: empty set"], cid


def test_size_cap_is_one_central_skip(monkeypatch):
    # Every sumset cap reads the same, whichever claim meets it; the three
    # claims that keep a partial record when a cap is hit still measure.
    monkeypatch.setattr(claims, "SUMSET_CAP", 20)
    a = integers(range(1, 13))
    inst = {"generator": "literal"}
    clear_caches()
    try:
        for cid in (
            "growth_monotone", "pluennecke_doubling", "sigma_subset_cover",
            "hoelder_energy_chain", "small_doubling_dim", "bounded_growth_dim",
            "product_set_energy", "sum_product_doubling", "ratio_box_growth",
        ):
            recs = evaluate_claim(cid, a, inst, budget=50_000)
            assert len(recs) == 1, cid
            assert recs[0].note.startswith("skipped: SizeCapExceededError:"), (cid, recs[0].note)
        for cid in ("dim_counting_lower", "witness_reverify", "sidon_extremal"):
            recs = evaluate_claim(cid, a, inst, budget=50_000)
            assert recs and not any(r.note.startswith("skipped") for r in recs), cid
    finally:
        clear_caches()


def test_freiman_sweep_skips_large_singletons():
    # The dilation sweep lists about 4 max|x| residues, whatever |A| is.
    inst = {"generator": "literal"}
    clear_caches()
    try:
        recs = evaluate_claim("freiman_isomorphism", integers([10**6]), inst, budget=20_000)
        assert [r.note for r in recs] == ["skipped: elements too large for the dilation sweep"]
        recs = evaluate_claim("freiman_isomorphism", integers([-50]), inst, budget=20_000)
        assert len(recs) == 1 and not recs[0].violated and not recs[0].note.startswith("skipped")
    finally:
        clear_caches()


def test_small_modulus_has_one_zero_shift_record():
    # The residue shifts 0, 1, 2, N-1 collide mod 2 and mod 3.
    for n in (2, 3):
        a = residues([1], n)
        recs = evaluate_claim("shift_zero_fixed", a, {"generator": "literal"})
        assert len(recs) == 1 and not recs[0].violated
        shifts = evaluate_claim("shift_dim_ratio", a, {"generator": "literal"})[0].measured["shifts"]
        assert [row["shift"] for row in shifts] == list(range(n))


# Skip notes on sets the core suite does not hold: Z^r, a composite modulus,
# a residue set containing 0, signed, wide, singleton and huge line sets, a
# 16-element line set (the least |A| with a positive triple logarithm, where
# sum_product_dim must measure), and subgroups above the clique and sweep caps.  Each row maps a note (after
# "skipped: ") to the claims whose first record carries it; every other claim
# must measure something.
_LITERAL = {"generator": "literal"}
_SUBGROUP_CLAIMS = (
    "subgroup_dim_lower", "subgroup_energy_upper", "subgroup_growth_rate", "subgroup_dim_alpha",
    "subgroup_dirichlet_prediction", "subgroup_coverage", "difference_in_subgroup",
)
_OFF_SUBGROUP = {"needs a multiplicative subgroup instance": _SUBGROUP_CLAIMS}
_OFF_RESIDUES = {"needs a residue ambient": ("fourier_dim", "product_doubling_dim")}
_OFF_RANK1 = {
    "needs rank-1 integers": ("freiman_isomorphism", "ratio_box_inclusion"),
    "needs at least three rank-1 integers": ("ratio_box_growth",),
}
_OFF_POSITIVE = {
    "needs rank-1 positive integers": ("decomposition_energy", "product_set_energy"),
    "needs at least three positive integers": ("sum_product_doubling",),
    "needs positive integers": ("sum_product_dim",),
    "needs at least two positive integers": ("sidon_extremal",),
}
_NO_SPLIT = {"certified dimension below 4; no eligible (n, m)": ("split_block_growth",)}
_TOO_WIDE = {
    "set too wide for amplified-order dimension work": (
        "split_block_growth", "growth_stage1", "growth_stage2", "growth_stage3",
        "small_doubling_dim", "bounded_growth_dim", "cube_dim_ratio",
    ),
    "set too wide for the growth sweep": ("poly_growth",),
    "set too wide for order-2 dissociation states": ("sigma_dissociated_dim",),
}
SKIP_NOTE_CASES = {
    "z2": (
        vectors([(0, 0), (1, 0), (0, 1), (1, 2), (3, -1)], 2),
        _LITERAL,
        {
            **_OFF_RANK1, **_OFF_POSITIVE, **_OFF_RESIDUES, **_OFF_SUBGROUP,
            "needs residues or rank-1 integers": ("dirichlet_dim_lower",),
            "kept to rank-1 and residue sets": ("sidon_property",),
        },
    ),
    "z3": (
        vectors([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3),
        _LITERAL,
        {
            **_OFF_RANK1, **_OFF_POSITIVE, **_OFF_RESIDUES, **_OFF_SUBGROUP, **_NO_SPLIT,
            "needs residues or rank-1 integers": ("dirichlet_dim_lower",),
            "kept to rank-1 and residue sets": ("sidon_property",),
        },
    ),
    "mod30": (
        residues([1, 7, 11, 13, 17], 30),
        _LITERAL,
        {
            **_OFF_RANK1, **_OFF_POSITIVE, **_OFF_SUBGROUP, **_NO_SPLIT,
            "window degenerate at this size": ("growth_stage3",),
            "needs a prime modulus <= 4096": ("fourier_dim",),
        },
    ),
    "mod31_with_zero": (
        residues([0, 1, 5, 25], 31),
        _LITERAL,
        {
            **_OFF_RANK1, **_OFF_POSITIVE, **_OFF_SUBGROUP, **_NO_SPLIT,
            "needs 0 outside A": ("product_doubling_dim",),
        },
    ),
    "signed_line": (
        integers([-7, -2, 0, 3, 10]),
        _LITERAL,
        {**_OFF_POSITIVE, **_OFF_RESIDUES, **_OFF_SUBGROUP, **_NO_SPLIT},
    ),
    "line_66": (
        integers(range(1, 199, 3)),
        _LITERAL,
        {
            **_TOO_WIDE, **_OFF_RESIDUES, **_OFF_SUBGROUP,
            "set too large for the layered subset-sum scan": ("sigma_subset_cover",),
            "energies are capped at |A| = 64": ("hoelder_energy_chain", "energy_dim_lower"),
            "model search is kept to |A| <= 10": ("freiman_isomorphism",),
            "pair scan is kept to |A| <= 24": ("ratio_box_inclusion", "ratio_box_growth"),
            "decomposition sweep is kept to |A| <= 32, values <= 10^6": ("decomposition_energy",),
            "exact two-parameter dimensions are kept to |A| <= 16": ("dim_compare",),
            "exact relative dimension is kept to |A| <= 10": ("dim_alpha_bound",),
            "product set sweep is kept to |A| <= 48, values <= 10^6": ("product_set_energy",),
            "kept to |A| <= 48, values <= 10^6": ("sum_product_doubling", "sum_product_dim"),
            "extraction sweep is kept to |A| <= 40": ("sidon_extremal",),
        },
    ),
    "line_16": (
        integers(range(1, 32, 2)),
        _LITERAL,
        {
            **_OFF_RESIDUES, **_OFF_SUBGROUP,
            "model search is kept to |A| <= 10": ("freiman_isomorphism",),
            "exact relative dimension is kept to |A| <= 10": ("dim_alpha_bound",),
            "budget exhausted (state budget exhausted (20011 > 20000))": ("sidon_property", "sidon_extremal"),
        },
    ),
    "singleton": (
        integers([5]),
        _LITERAL,
        {
            **_OFF_RESIDUES, **_OFF_SUBGROUP, **_NO_SPLIT,
            "window degenerate at this size": ("growth_stage1", "growth_stage2", "growth_stage3"),
            "needs at least two elements": ("poly_growth",),
            "needs |A| >= 4": ("small_doubling_dim",),
            "needs |A| >= 3": ("bounded_growth_dim",),
            "no 2-dissociated pair to build the subset-sum set": ("sigma_dissociated_dim",),
            "needs dimension at least 2": ("cube_dim_ratio", "product_set_energy"),
            "no dissociated pair": ("rudin_constant",),
            "needs at least three positive integers": ("sum_product_doubling",),
            "triple logarithms need |A| >= 16": ("sum_product_dim",),
            "needs at least two positive integers": ("sidon_extremal",),
            "needs at least three rank-1 integers": ("ratio_box_growth",),
        },
    ),
    "element_above_10^6": (
        integers([1, 2, 5, 11, 2_000_000]),
        _LITERAL,
        {
            **_TOO_WIDE, **_OFF_RESIDUES, **_OFF_SUBGROUP,
            "elements too large for the dilation sweep": ("freiman_isomorphism",),
            "decomposition sweep is kept to |A| <= 32, values <= 10^6": ("decomposition_energy",),
            "product set sweep is kept to |A| <= 48, values <= 10^6": ("product_set_energy",),
            "kept to |A| <= 48, values <= 10^6": ("sum_product_doubling",),
            "triple logarithms need |A| >= 16": ("sum_product_dim",),
        },
    ),
    "subgroup_401_8": (
        subgroup(401, 8).members,
        spec("subgroup", p=401, t=8).to_json(),
        {
            **_OFF_RANK1, **_OFF_POSITIVE,
            "clique search is kept to p <= 300": ("difference_in_subgroup",),
        },
    ),
    "subgroup_20011_5": (
        subgroup(20011, 5).members,
        spec("subgroup", p=20011, t=5).to_json(),
        {
            **_TOO_WIDE, **_OFF_RANK1, **_OFF_POSITIVE,
            "needs a prime modulus <= 4096": ("fourier_dim",),
            "subgroup sweeps are capped at p <= 10000": _SUBGROUP_CLAIMS[:-1],
            "clique search is kept to p <= 300": ("difference_in_subgroup",),
        },
    ),
}


@pytest.mark.parametrize("case", SKIP_NOTE_CASES)
def test_skip_notes_off_the_core_instances(case):
    a, inst, table = SKIP_NOTE_CASES[case]
    expected = {cid: f"skipped: {note}" for note, cids in table.items() for cid in cids}
    clear_caches()
    try:
        got = {}
        for cid in REGISTRY:
            note = evaluate_claim(cid, a, inst, budget=20_000)[0].note
            got[cid] = note if note.startswith("skipped:") else "not skipped"
    finally:
        clear_caches()
    assert got == {cid: expected.get(cid, "not skipped") for cid in REGISTRY}


# The claims that adopt a library experiment's records: claim -> (report,
# family, whether a record's claim must equal the family rather than start
# with it, note of the skip when no record is adopted or None for no record).
_ADOPTED = {
    "dirichlet_dim_lower": (claims._dirichlet_report, "dirichlet_dim_lower", True, "bound degenerate on this instance"),
    "product_doubling_dim": (claims._dirichlet_report, "dirichlet_dim_lower_product", False, "bound degenerate on this instance"),
    "split_block_growth": (claims._growth_report, "split_block_growth", False, "certified dimension below 4; no eligible (n, m)"),
    "growth_stage1": (claims._growth_report, "growth_stage1", False, "window degenerate at this size"),
    "growth_stage2": (claims._growth_report, "growth_stage2", False, "window degenerate at this size"),
    "growth_stage3": (claims._growth_report, "growth_stage3", False, "window degenerate at this size"),
    "poly_growth": (claims._poly_report, "poly_growth", False, "window degenerate at this size"),
    "shift_zero_fixed": (claims._shift_report, "shift_zero_fixed", False, None),
    "shift_dim_ratio": (claims._shift_report, "shift_dim_ratio", False, None),
    **{
        cid: (claims._subgroup_sweep, cid, False, "degenerate at this size")
        for cid in _SUBGROUP_CLAIMS[:5]
    },
}
_ADOPTION_CASES = [
    (generate(s), s.to_json())
    for s in (
        spec("interval", n=4),
        spec("interval", n=8),
        spec("gp", base=2, length=10),
        spec("subgroup", p=13, t=4),
        spec("subgroup", p=31, t=5),
        spec("subgroup", p=7, t=1),
    )
] + [
    (vectors([(0, 0), (1, 0), (0, 1), (2, 3), (5, -1)], 2), _LITERAL),
    (residues([1, 3, 9, 10, 12], 13), _LITERAL),
]


def test_adopted_claims_keep_their_family_records_in_order():
    compared = {cid: 0 for cid in _ADOPTED}
    empty = 0
    clear_caches()
    try:
        for a, inst in _ADOPTION_CASES:
            for cid, (report, family, exact, degenerate) in _ADOPTED.items():
                if not all(test(a, inst) for test, _reason in REGISTRY[cid].requires):
                    continue
                compared[cid] += 1
                got = evaluate_claim(cid, a, inst, budget=CORE_BUDGET)
                kept = [
                    r for r in report(a, inst, CORE_BUDGET).records
                    if (r.claim == family if exact else r.claim.startswith(family))
                ]
                if not kept:
                    empty += 1
                    assert [r.note for r in got] == ([] if degenerate is None else [f"skipped: {degenerate}"])
                    continue
                assert len(got) == len(kept), (cid, a)
                for g, r in zip(got, kept):
                    assert ("variant" in g.measured) == (r.claim != cid)
                    variant = {"variant": r.claim} if r.claim != cid else {}
                    assert g.measured == {**r.measured, **variant}
                    assert (g.claim, g.klass, g.instance) == (cid, REGISTRY[cid].klass, inst)
                    assert (g.fitted_constant, g.violated, g.note) == (r.fitted_constant, r.violated, r.note)
    finally:
        clear_caches()
    assert all(compared.values()), compared
    assert empty


def test_core_suite_clean():
    rep = run_core_suite()
    assert rep["summary"]["hard_violations"] == 0
    assert rep["summary"]["records"] > 100
    assert rep["summary"]["instances"] == len(CORE_INSTANCES)
    # every core claim family produced at least one fit or record
    assert rep["fits"]
    digest = hashlib.sha256(report_to_json(rep, drop_timing=True).encode()).hexdigest()
    assert digest == "84eb41ff9d9d4582dc617319dd06a3b0e364ec594bb8179725d3be4fb92273f0"


def test_report_json_parses_back():
    import json

    rep = run_suite(claim_ids=["growth_monotone"], instances=[integers([1, 2, 3])])
    parsed = json.loads(report_to_json(rep))
    assert parsed["schema"] == rep["schema"]
    assert parsed["summary"]["records"] == rep["summary"]["records"]
