"""Exact integer number theory: primality, factoring, totient, primitive roots.

``is_prime`` is deterministic Miller-Rabin on the twelve prime bases 2..37.
No composite below 3.18 * 10^23 is a strong pseudoprime to all of them
(Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86 (2017)), so the test is exact far past the signed 64-bit
range every caller stays in.  ``factorint`` divides out those twelve primes
and splits what is left with Pollard's rho in Brent's form (Brent, "An
improved Monte Carlo factorization algorithm", BIT 20 (1980)).  Every
function is deterministic.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """n is prime; exact for every n < 3.18 * 10^23."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of n, an odd composite that is not a perfect square."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # a block overshot: step through it again one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n: int) -> dict:
    """{prime: exponent} for n >= 1, primes increasing; factorint(1) == {}."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out: dict = {}
    for p in _BASES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    # Each (m, e) left stands for m**e, where m > 1 has no prime factor below 41.
    todo = [(n, 1)] if n > 1 else []
    while todo:
        m, e = todo.pop()
        if m < 41 * 41 or is_prime(m):
            out[m] = out.get(m, 0) + e
        elif (r := isqrt(m)) * r == m:
            todo.append((r, 2 * e))
        else:
            d = _rho(m)
            todo += [(d, e), (m // d, e)]
    return dict(sorted(out.items()))


def totient(n: int) -> int:
    """Euler's phi(n) for n >= 1."""
    phi = 1
    for p, e in factorint(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def primitive_root(p: int) -> int:
    """The smallest generator of (Z/p)* for a prime p; 1 when p == 2."""
    qs = factorint(p - 1)
    return next(g for g in itertools.count(1) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def next_prime(n: int) -> int:
    """The smallest prime greater than n."""
    n = max(n, 1) + 1
    while not is_prime(n):
        n += 1
    return n


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes, increasing."""
    primes, p = [], 1
    for _ in range(count):
        p = next_prime(p)
        primes.append(p)
    return primes
