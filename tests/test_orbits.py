"""The dimension, Dirichlet and dim_alpha searches take one member of each
orbit of A's symmetries: sign classes {x, -x}, and mod N the units g with
gA = A.  Their results must be those of the searches without the
reduction."""

import random
from fractions import Fraction
from math import gcd

import pytest

from adlab import (
    dim_alpha_k,
    dim_bounds,
    dim_k_exact,
    dirichlet_min,
    dissociation,
    energy,
    integers,
    residues,
    subgroup,
    t_k,
    vectors,
)
from adlab._ntheory import is_prime
from adlab.budget import WorkMeter
from adlab.energy import _qualifying_subsets
from adlab.groundset import Residues, _unit_dilations

from oracles import naive_dirichlet, naive_tk, reference_qualifying_subsets

BUDGET = 20_000


def _subgroups_and_cosets():
    """Every subgroup of F_p* with p < 200 and t <= 40, and its coset by
    the least residue outside it."""
    out = []
    for p in filter(is_prime, range(3, 200)):
        for t in range(1, min(40, p - 1) + 1):
            if (p - 1) % t == 0:
                gamma = subgroup(p, t).members
                out.append(gamma)
                h = next((x for x in range(2, p) if x not in gamma), None)
                if h is not None:
                    out.append(residues([h * x for x in gamma.elements], p))
    return out


def _symmetric_sets(seed):
    """Random line, mod-N and Z^2 sets that hold many pairs {x, -x}."""
    rng = random.Random(seed)
    out = []
    for _ in range(60):
        xs = rng.sample(range(1, 60), rng.randint(1, 7))
        out.append(integers(xs + [-x for x in xs if rng.random() < 0.7]))
        n = rng.choice([12, 30, 97, 101, 128])
        ys = rng.sample(range(1, n), rng.randint(1, 6))
        out.append(residues(ys + [n - y for y in ys if rng.random() < 0.7], n))
        vs = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
        out.append(vectors(vs + [(-a, -b) for a, b in vs if rng.random() < 0.7], 2))
    return out


SETS = _subgroups_and_cosets() + _symmetric_sets(1)


def test_unit_dilations_are_the_stabilizer():
    rng = random.Random(3)
    for n in (2, 7, 12, 13, 30, 31):
        units = [g for g in range(1, n) if gcd(g, n) == 1]
        for _ in range(40):
            a = residues(rng.sample(range(n), rng.randint(1, min(6, n))), n)
            if not any(gcd(x, n) == 1 for x in a.elements):
                assert _unit_dilations(a) == (1,)
                continue
            want = tuple(g for g in units if {g * x % n for x in a.elements} == set(a.elements))
            assert _unit_dilations(a) == want
    assert _unit_dilations(subgroup(31, 5).members) == (1, 2, 4, 8, 16)
    assert _unit_dilations(integers([-2, 2])) == (1,)
    assert _unit_dilations(residues([6], 12)) == (1,)


def test_dimension_search_keeps_every_finished_result(monkeypatch):
    reduced = [dim_bounds(a, 1, budget=BUDGET) for a in SETS]
    # The search on every element: no sign classes, no dilations.
    monkeypatch.setattr(dissociation, "_sign_classes", lambda lam, elems: elems)
    monkeypatch.setattr(dissociation, "_unit_dilations", lambda a: (1,))
    moved = 0
    for a, new in zip(SETS, reduced):
        old = dim_bounds(a, 1, budget=BUDGET)
        if old.note == "":
            assert (new.lower, new.upper, new.exact, new.note) == (old.lower, old.upper, True, "")
            assert new.lower_witness == old.lower_witness, a
        else:
            assert new.lower >= old.lower and new.upper <= old.upper, a
            moved += (new.lower, new.upper) != (old.lower, old.upper)
    # Truncated searches on the larger subgroups finish once reduced.
    assert moved > 0


def test_dirichlet_scan_keeps_the_value_and_the_first_minimiser():
    for a in SETS:
        if not isinstance(a.ambient, Residues):
            continue
        got = dirichlet_min(a, s=2)
        assert (got.value, got.argmin_q) == naive_dirichlet(a.elements, 2, a.ambient.modulus), a


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 4)])
def test_dim_alpha_keeps_the_value_and_the_witness(alpha):
    k = 2
    checked = 0
    for a in SETS:
        if not isinstance(a.ambient, Residues) or len(a) > 10:
            continue
        modulus = a.ambient.modulus
        need = alpha.numerator * naive_tk(a.elements, k, modulus)
        candidates = reference_qualifying_subsets(a, k, need, alpha.denominator)
        best = None
        for elems in sorted(candidates, key=lambda b: (len(b), b)):
            dim = dim_k_exact(residues(elems, modulus), 1).value
            if best is None or dim < best[0]:
                best = (dim, elems)
        got = dim_alpha_k(a, alpha, k)
        assert (got.lower, got.lower_witness.elements) == best, a
        checked += len(_unit_dilations(a)) > 1
    assert checked > 50


@pytest.mark.parametrize("alpha, k", [(Fraction(1, 2), 2), (Fraction(1, 4), 2), (Fraction(1, 2), 3)])
def test_energy_walk_rooted_at_orbit_least_elements(monkeypatch, alpha, k):
    sets = [a for a in _subgroups_and_cosets() if len(a) <= 14]
    reduced = []
    saved = 0
    for a in sets:
        modulus, dilations = a.ambient.modulus, _unit_dilations(a)
        need, den = alpha.numerator * t_k(a, k).value, alpha.denominator
        full_meter, rooted_meter = WorkMeter(None), WorkMeter(None)
        full = _qualifying_subsets(a, k, need, den, full_meter)
        rooted = _qualifying_subsets(a, k, need, den, rooted_meter, dilations)
        assert set(rooted) <= set(full), a
        assert rooted == sorted(rooted, key=lambda b: (len(b), b)), a
        orbits = [{tuple(sorted(g * x % modulus for x in b)) for g in dilations} for b in rooted]
        assert all(b not in orbit for i, b in enumerate(rooted) for orbit in orbits[:i]), a

        # The first member of each orbit the full walk meets is kept unless
        # it is not minimal: some element can leave it and it still qualifies.
        firsts = {min(tuple(sorted(g * x % modulus for x in b)) for g in dilations) for b in full}
        for b in firsts.difference(rooted):
            assert any(
                t_k(residues(b[:i] + b[i + 1 :], modulus), k).value * den >= need for i in range(len(b))
            ), (a, b)
        assert rooted_meter.states <= full_meter.states, a
        saved += rooted_meter.states < full_meter.states
        reduced.append(dim_alpha_k(a, alpha, k))
    assert saved > len(sets) // 2
    # The full walk, and every candidate it finds.
    monkeypatch.setattr(energy, "_unit_dilations", lambda a: (1,))
    for a, got in zip(sets, reduced):
        want = dim_alpha_k(a, alpha, k)
        assert (got.value, got.lower_witness) == (want.value, want.lower_witness), a
