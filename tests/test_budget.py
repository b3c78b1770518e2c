"""The budget contract: a call's budget is one WorkMeter that every
sub-search spends, and no other budget stands behind it."""

import sys
from fractions import Fraction

import pytest

from adlab import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    WorkMeter,
    d_star_bounds,
    dim_alpha_k,
    dim_bounds,
    integers,
    is_k_dissociated,
)
from adlab.budget import as_meter
from adlab.cli import main
from adlab.dissociation import coin_weighing_dissociated
from adlab.harness import CORE_INSTANCES, REGISTRY, clear_caches, evaluate_claim, generate


@pytest.fixture
def meters(monkeypatch):
    """Every WorkMeter created while the test runs, with the code that asked for it."""
    created = []
    init = WorkMeter.__init__

    def counting_init(self, budget):
        init(self, budget)
        caller = sys._getframe(1)
        while caller.f_code is as_meter.__code__:
            caller = caller.f_back
        created.append((self, caller.f_code))

    monkeypatch.setattr(WorkMeter, "__init__", counting_init)
    return created


def test_environment_does_not_change_the_default(monkeypatch):
    monkeypatch.setenv("ADLAB_BUDGET", "5")
    assert WorkMeter(None).limit == DEFAULT_BUDGET
    with pytest.raises(ValueError):
        WorkMeter(0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dim_bounds(integers([1, 2, 4, 8, 16, 32]), 1, budget=3),
        lambda: d_star_bounds(integers(range(1, 9)), 1, budget=10**6),
        lambda: coin_weighing_dissociated(
            integers([1, 10, 100, 1000, 10000]), 3, seed=1, budget=10**6
        ),
    ],
    ids=["dim_bounds", "d_star_bounds", "coin_weighing_dissociated"],
)
def test_one_meter_per_library_call(meters, call):
    call()
    assert len(meters) == 1


def test_dim_bounds_spends_only_the_callers_meter():
    m = WorkMeter(3)
    db = dim_bounds(integers([1, 2, 4, 8, 16, 32]), 1, budget=m)
    assert (db.lower, db.upper, db.exact, db.note) == (0, 6, False, "budget")
    assert db.lower_witness is not None and len(db.lower_witness) == 0
    assert db.states == m.states == 4


def test_claims_spend_only_the_claim_budget(meters):
    labels = ("gp(base=2, length=10)", "subgroup(p=31, t=5)")
    instances = [i for i in CORE_INSTANCES if i.label in labels]
    assert len(instances) == 2
    clear_caches()
    for inst in instances:
        a = generate(inst)
        for cid in REGISTRY:
            evaluate_claim(cid, a, inst.to_json(), budget=50_000)
    clear_caches()
    limits = {m.limit for m, code in meters if code is not is_k_dissociated.__code__}
    assert limits <= {50_000, 400_000}
    assert 50_000 in limits


# dim_alpha_k(DIM_ALPHA_SET, 1/2, k=2) reads 11 813 representation entries in
# its energy search; the greedy and exact dimension searches after it bring
# the call to 12 112 states.
DIM_ALPHA_SET = [1, 2, 4, 8, 16, 32, 64, 128, 256, 3]
DIM_ALPHA_ENERGY_STATES = 11_813
DIM_ALPHA_STATES = 12_112


@pytest.fixture
def dimension_searches(monkeypatch):
    """Names of the dimension searches dim_alpha_k starts, in order."""
    import adlab.energy as energy

    started = []
    for name in ("dim_k_exact", "max_dissociated_greedy"):
        search = getattr(energy, name)

        def logged(*args, _search=search, _name=name, **kwargs):
            started.append(_name)
            return _search(*args, **kwargs)

        monkeypatch.setattr(energy, name, logged)
    return started


def test_dim_alpha_states_are_deterministic():
    a = integers(DIM_ALPHA_SET)
    runs = [dim_alpha_k(a, Fraction(1, 2), k=2) for _ in range(2)]
    assert [r.states for r in runs] == [DIM_ALPHA_STATES] * 2
    assert runs[0] == runs[1]


def test_dim_alpha_energy_search_is_charged_before_any_dimension_search(dimension_searches):
    a = integers(DIM_ALPHA_SET)
    with pytest.raises(BudgetExceededError):
        dim_alpha_k(a, Fraction(1, 2), k=2, budget=DIM_ALPHA_ENERGY_STATES - 1)
    assert dimension_searches == []
    assert dim_alpha_k(a, Fraction(1, 2), k=2, budget=DIM_ALPHA_STATES).value == 6
    assert dimension_searches[0] == "dim_k_exact"


def test_dim_alpha_budget_exhaustion_is_a_skip(dimension_searches):
    # Each budget lets the energy search finish and runs out in the
    # dimension searches that follow it.
    a = integers(DIM_ALPHA_SET)
    for b in (11_850, 11_950, 12_050):
        assert DIM_ALPHA_ENERGY_STATES < b < DIM_ALPHA_STATES
        dimension_searches.clear()
        with pytest.raises(BudgetExceededError):
            dim_alpha_k(a, Fraction(1, 2), k=2, budget=b)
        assert dimension_searches
    clear_caches()
    recs = evaluate_claim("dim_alpha_bound", a, {"generator": "literal"}, budget=11_950)
    clear_caches()
    assert len(recs) == 1
    assert recs[0].note.startswith("skipped: budget exhausted")


def test_verify_at_a_tiny_budget_raises_nothing():
    clear_caches()
    assert main(["verify", "--budget", "300"]) in (0, 2)
    clear_caches()
