from math import prod

import pytest

from adlab._ntheory import factorint, first_primes, is_prime, next_prime, primitive_root, totient

from oracles import naive_factor, naive_is_prime, naive_order, naive_primes_below, naive_totient

LIMIT = 20_000
INT64_MAX_PRIME = 2**63 - 25


def _primes_below(n, count):
    """The ``count`` largest primes below n, by trial division."""
    found = []
    while len(found) < count:
        n -= 1
        if naive_is_prime(n):
            found.append(n)
    return found


def test_small_n_match_trial_division():
    for n in range(LIMIT):
        assert is_prime(n) == naive_is_prime(n), n
    for n in range(1, LIMIT):
        assert factorint(n) == naive_factor(n), n


def test_totient_matches_the_gcd_count():
    for n in [*range(1, 2_000), *range(2_000, LIMIT, 97)]:
        assert totient(n) == naive_totient(n), n


@pytest.mark.parametrize("n", [0, -1, -12])
def test_factorint_needs_a_positive_n(n):
    with pytest.raises(ValueError):
        factorint(n)


def test_products_of_large_primes():
    p, q, r = _primes_below(2**31, 3)
    small = _primes_below(2**21, 2)
    cases = [
        {q: 1, p: 1},
        {r: 1, p: 1},
        {p: 2},
        {small[0]: 3},
        {small[1]: 2, small[0]: 1},
        {41: 1, 43: 1, q: 1},
        {2: 1, 37: 1, small[1]: 1, r: 1},
    ]
    for expected in cases:
        n = prod(f**e for f, e in expected.items())
        assert n < 2**63
        assert not is_prime(n)
        assert factorint(n) == dict(sorted(expected.items())), n


def test_edges():
    assert factorint(1) == {} and totient(1) == 1 and not is_prime(1)
    assert factorint(2) == {2: 1} and totient(2) == 1 and is_prime(2)
    assert factorint(2**62) == {2: 62} and totient(2**62) == 2**61
    assert factorint(3**39) == {3: 39} and totient(3**39) == 2 * 3**38
    n = INT64_MAX_PRIME
    assert is_prime(n) and factorint(n) == {n: 1} and totient(n) == n - 1
    assert next_prime(n - 1) == n
    # Every n between it and 2^63 fails Fermat's test to base 2, so is composite.
    for m in range(n + 1, 2**63):
        assert pow(2, m - 1, m) != 1 and not is_prime(m)
    assert next_prime(n) > 2**63


def test_primitive_root_is_the_smallest_generator():
    for p in naive_primes_below(2_000):
        g = next(g for g in range(1, p) if naive_order(g, p) == p - 1)
        assert primitive_root(p) == g, p
    assert primitive_root(2) == 1


def test_next_prime_and_first_primes_match_the_sieve():
    primes = naive_primes_below(LIMIT)
    i = 0
    for n in range(-3, primes[-1]):
        while primes[i] <= n:
            i += 1
        assert next_prime(n) == primes[i], n
    for count in (0, 1, 2, 12, len(primes)):
        assert first_primes(count) == primes[:count]
