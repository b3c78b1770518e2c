"""Brute-force reference implementations used to validate the library.

Everything here works on plain integers (or tuples) with the most direct
algorithm available, no pruning and no clever encodings, so a disagreement
with the library is always the library's problem.  Sizes are kept small by
the callers.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd, isqrt


def subsets(items):
    """All subsets as tuples, by increasing size then lexicographic order."""
    items = sorted(items)
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def _total(items, modulus=None):
    """Sum of ints, of residues mod ``modulus``, or of equal-length int tuples."""
    items = list(items)
    if items and isinstance(items[0], tuple):
        return tuple(sum(coord) for coord in zip(*items))
    value = sum(items)
    return value if modulus is None else value % modulus


def naive_neg(xs, modulus=None):
    """-x for each x: ints, residues mod ``modulus``, or int tuples."""
    return [
        tuple(-c for c in x) if isinstance(x, tuple) else _total([-x], modulus) for x in xs
    ]


def naive_sumset(xs, ys, modulus=None):
    """Sorted distinct x + y: ints, residues mod ``modulus``, or int tuples."""
    return sorted({_total((x, y), modulus) for x in xs for y in ys})


def naive_rep(parts, modulus=None):
    """x -> #tuples with signed sum x, by enumerating every tuple.

    ``parts`` holds (elements, sign) pairs with sign "+" or "-".
    """
    signed = [xs if sign == "+" else naive_neg(xs, modulus) for xs, sign in parts]
    return dict(Counter(_total(tup, modulus) for tup in product(*signed)))


def naive_iterated(xs, n, m=0, modulus=None):
    """nA - mA, n >= 1, by repeated pairwise sumsets: ints, residues mod
    ``modulus``, or int tuples."""
    out = sorted({_total([x], modulus) for x in xs})
    for _ in range(n - 1):
        out = naive_sumset(out, xs, modulus)
    for _ in range(m):
        out = naive_sumset(out, naive_neg(xs, modulus), modulus)
    return out


def naive_growth_sizes(xs, n_max, modulus=None):
    """|nA| for n = 1..n_max, each iterate built from scratch."""
    return [len(naive_iterated(xs, n, modulus=modulus)) for n in range(1, n_max + 1)]


def naive_sigma(xs, k, zero=0, modulus=None):
    """Sums of at most k distinct elements, the empty sum being ``zero``."""
    out = set()
    for size in range(0, k + 1):
        for combo in combinations(sorted(xs), size):
            out.add(_total(combo, modulus) if combo else zero)
    return sorted(out)


def naive_cube(xs, zero=0, modulus=None):
    """Sums over all subsets of xs, the empty sum being ``zero``."""
    return sorted({_total(combo, modulus) if combo else zero for combo in subsets(xs)})


def naive_relation(xs, k, modulus=None):
    """A nonzero coefficient vector in [-k, k]^n summing to zero, or None.

    Elements are ints, residues mod ``modulus``, or equal-length tuples of
    ints added componentwise.
    """
    xs = sorted(xs)
    coords = [xs] if not xs or not isinstance(xs[0], tuple) else list(zip(*xs))
    for coeffs in product(range(-k, k + 1), repeat=len(xs)):
        if not any(coeffs):
            continue
        totals = [sum(c * x for c, x in zip(coeffs, coord)) for coord in coords]
        if all(t == 0 if modulus is None else t % modulus == 0 for t in totals):
            return coeffs
    return None


def naive_dim_k1(xs, modulus=None):
    """Largest subset with pairwise-distinct subset sums, by full DFS.

    The dissociated family is downward closed, so a depth-first walk that
    extends every valid subset visits all of them; no bounding is applied.
    Elements are ints, residues mod ``modulus``, or equal-length int tuples.
    """
    xs = sorted(xs)
    best = 0
    zero = (0,) * len(xs[0]) if xs and isinstance(xs[0], tuple) else 0

    def walk(idx, sums, depth):
        nonlocal best
        best = max(best, depth)
        for j in range(idx, len(xs)):
            x = xs[j]
            shifted = {_total((s, x), modulus) for s in sums}
            if shifted & sums:
                continue
            walk(j + 1, sums | shifted, depth + 1)

    walk(0, {zero}, 0)
    return best


class _OutOfBudget(Exception):
    pass


def reference_dim_bounds(xs, k, budget, modulus=None, spent=0):
    """(lower, upper, exact, states, witness, note) of ``dim_bounds``, by a
    plain copy of its search.

    Elements are ints, residues mod ``modulus`` or equal-length int tuples.
    States start at ``spent`` and every tried element costs one node weight,
    first in the greedy pre-pass (largest magnitude first), then in the
    depth-first search (ascending order, each node's candidates tried before
    it looks at the next).  A tick that takes the states past ``budget``
    stops the walk: in the pre-pass the result is [0, n] with note
    "budget"; in the search, the best subset found so far against the
    counting allowance of the root.  Sum sets are plain sets; a node is
    pruned when the (k+1)^t distinct sums cannot fit in the box its
    elements reach.

    Both the pre-pass and the search run on the nonzero elements x whose
    negative -x is not a smaller element of the set.  Mod N, when A's
    first nonzero element a0 is a unit and for every nonzero x the
    dilation by x/a0 maps A onto itself, the root tries a0 alone.
    """
    zero = (0,) * len(xs[0]) if xs and isinstance(xs[0], tuple) else 0
    rank = len(zero) if isinstance(zero, tuple) else 1
    elems = sorted(x for x in xs if x != zero)
    n = len(elems)
    if n == 0:
        return 0, 0, True, spent, (), ""
    members = set(xs)
    forced = False
    if modulus is not None and gcd(elems[0], modulus) == 1:
        inv = pow(elems[0], -1, modulus)
        forced = all({x * inv * y % modulus for y in xs} == members for x in elems)

    def neg(x):
        if modulus is not None:
            return -x % modulus
        return tuple(-c for c in x) if rank > 1 else -x

    elems = [x for x in elems if not (neg(x) < x and neg(x) in members)]
    n_nonzero, n = n, len(elems)

    def magnitude(x):
        if modulus is not None:
            return min(x, modulus - x)
        return max(abs(c) for c in x) if rank > 1 else abs(x)

    def add(s, x, c):
        if rank > 1:
            return tuple(a + c * b for a, b in zip(s, x))
        return (s + c * x) % modulus if modulus is not None else s + c * x

    def extended(sums, x):
        out = {add(s, x, c) for s in sums for c in range(k + 1)}
        return out if len(out) == (k + 1) * len(sums) else None

    if modulus is not None:
        span = modulus
    elif rank == 1:
        span = k * sum(abs(x) for x in elems) + 1
    else:
        span = n * n + 1
    weight = max(1, span >> 14)
    states = spent

    def tick():
        nonlocal states
        states += weight
        if states > budget:
            raise _OutOfBudget

    greedy, sums = [], {zero}
    try:
        for x in sorted(elems, key=lambda e: (-magnitude(e), e)):
            tick()
            grown = extended(sums, x)
            if grown is not None:
                greedy.append(x)
                sums = grown
    except _OutOfBudget:
        return 0, n_nonzero, False, states, (), "budget"

    mags = sorted((magnitude(x) for x in elems), reverse=True)
    prefix = [sum(mags[:m]) for m in range(n + 1)]

    def allowance(depth, chosen_mag, rem):
        best_m = 0
        for m in range(rem + 1):
            box = modulus if modulus is not None else (k * (chosen_mag + prefix[m]) + 1) ** rank
            if (k + 1) ** (depth + m) > box:
                break
            best_m = m
        return best_m

    best, witness = len(greedy) - 1, None

    def dfs(i, chosen, chosen_mag, sums):
        nonlocal best, witness
        depth = len(chosen)
        if depth > best:
            best, witness = depth, tuple(chosen)
        if depth + n - i <= best:
            return
        if depth + allowance(depth, chosen_mag, n - i) <= best:
            return
        for j in range(i, n):
            if depth + n - j <= best or (forced and depth == 0 and j > 0):
                break
            tick()
            grown = extended(sums, elems[j])
            if grown is not None:
                dfs(j + 1, chosen + [elems[j]], chosen_mag + magnitude(elems[j]), grown)

    lower_set = tuple(sorted(greedy))
    try:
        dfs(0, [], 0, {zero})
    except _OutOfBudget:
        if witness is not None:
            lower_set = witness
        lower = len(lower_set)
        upper = max(lower, min(n, allowance(0, 0, n)))
        return lower, upper, lower == upper, states, lower_set, "search truncated by budget"
    if witness is not None:
        lower_set = witness
    return len(lower_set), len(lower_set), True, states, lower_set, ""


def naive_dim_k(xs, k, modulus=None):
    """Largest k-dissociated subset via per-subset relation search."""
    best = 0
    for sub in subsets(xs):
        if len(sub) > best and naive_relation(sub, k, modulus) is None:
            best = len(sub)
    return best


def naive_span(xs, k, modulus=None):
    """Sorted distinct sums c_1 x_1 + ... with every c_i in [-k, k]: ints,
    residues mod ``modulus``, or equal-length int tuples."""
    out = set()
    for coeffs in product(range(-k, k + 1), repeat=len(xs)):
        terms = [
            tuple(c * v for v in x) if isinstance(x, tuple) else c * x
            for c, x in zip(coeffs, xs)
        ]
        out.add(_total(terms, modulus))
    return sorted(out)


def naive_d_k(xs, k, modulus=None):
    """The first subset whose span with coefficients in [-k, k] holds xs.

    Subsets of the distinct elements are tried by size, then in
    ``itertools.combinations`` order of the sorted elements; each span is
    formed from every coefficient vector.  Elements are ints, residues mod
    ``modulus`` or equal-length int tuples.
    """
    xs = sorted(set(xs))
    zero = tuple(0 for _ in xs[0]) if xs and isinstance(xs[0], tuple) else 0
    target = set(xs) - {zero}  # every span holds zero
    for sub in subsets(xs):
        if target <= set(naive_span(sub, k, modulus)):
            return sub
    raise AssertionError("the whole set always spans itself")


def naive_tk(xs, k, modulus=None):
    """T_k: ordered pairs of k-tuples with equal sums.

    Every k-tuple is enumerated and the tuples are grouped by their sum, so
    a group of c tuples gives c^2 pairs.  Elements are ints, residues mod
    ``modulus``, or equal-length int tuples.
    """
    sums = Counter(_total(tup, modulus) for tup in product(xs, repeat=k))
    return sum(c * c for c in sums.values())


@lru_cache(maxsize=None)
def _energies_and_dims(xs, k, modulus):
    """(subset, T_k, dim_1) for every nonempty subset, in (size, elements) order."""
    return [
        (sub, naive_tk(sub, k, modulus), naive_dim_k1(sub, modulus))
        for sub in subsets(xs)
        if sub
    ]


def naive_dim_alpha(xs, alpha, k, modulus=None):
    """(dim_{alpha,k}, witness) by enumerating every nonempty subset.

    The value is the least dim_1(B) over subsets B with T_k(B) >= alpha *
    T_k(A); the witness is the first such B of least dimension in (size,
    sorted elements) order.
    """
    xs = tuple(sorted(xs))
    total = naive_tk(xs, k, modulus)
    best = None
    for sub, energy, dim in _energies_and_dims(xs, k, modulus):
        if energy >= Fraction(alpha) * total and (best is None or dim < best[0]):
            best = (dim, sub)
    return best


def naive_minimal_qualifying(xs, alpha, k, modulus=None):
    """[(B, dim_1(B))] for the subsets B with T_k(B) >= alpha * T_k(A) whose
    B minus its last element falls short, in (size, sorted elements) order.
    """
    xs = tuple(sorted(xs))
    need = Fraction(alpha) * naive_tk(xs, k, modulus)
    rows = _energies_and_dims(xs, k, modulus)
    energy = {sub: e for sub, e, _ in rows}
    energy[()] = 0
    return [(sub, dim) for sub, e, dim in rows if e >= need > energy[sub[:-1]]]


def reference_qualifying_subsets(a, k, need, den):
    """The list ``energy._qualifying_subsets(a, k, need, den, meter)``
    returns, from a walk that carries representation functions.

    The same index-increasing depth-first search and the same two tests: a
    node returns once T_k(U) * den < need for U = B + a.elements[idx:], and
    records B + y, without extending it, once T_k(B + y) * den >= need.
    Each node carries r_j, the j-fold representation function of B, for j
    = 0..k, and T_k(B) = sum r_k(x)^2; adding y gives r_j(B + y) = sum_i
    C(j, i) * r_{j-i}(B) shifted by i*y, and removing y from U inverts
    that step for ascending j.  The codes are the library's ``_int_view``
    codes, so int64 is checked as there.  No meter.
    """
    from math import comb

    from adlab.groundset import _int_view

    elems = a.elements
    n = len(elems)
    part_codes, modulus, _decode = _int_view(a.ambient, [(elems, "+")] * k)
    binom = [[comb(j, i) for i in range(j + 1)] for j in range(k + 1)]

    def step(reps, energy, y, sign):
        out = [reps[0]]
        src = reps if sign > 0 else out
        for j in range(1, k + 1):
            cur = dict(reps[j])
            for i in range(1, j + 1):
                for x, v in src[j - i].items():
                    z = x + i * y if modulus is None else (x + i * y) % modulus
                    old = cur.get(z, 0)
                    new = old + sign * binom[j][i] * v
                    if new:
                        cur[z] = new
                    else:
                        del cur[z]
                    if j == k:
                        energy += new * new - old * old
            out.append(cur)
        return out, energy

    found = []
    chosen = []

    def walk(start, reps, energy, u_reps, u_energy):
        for idx in range(start, n):
            if u_energy * den < need:
                return
            y = part_codes[0][idx]
            child, child_energy = step(reps, energy, y, 1)
            chosen.append(elems[idx])
            if child_energy * den >= need:
                found.append(tuple(chosen))
            else:
                walk(idx + 1, child, child_energy, u_reps, u_energy)
            chosen.pop()
            u_reps, u_energy = step(u_reps, u_energy, y, -1)

    empty = [{0: 1}] + [{} for _ in range(k)]
    whole, whole_energy = empty, 0
    for y in part_codes[0]:
        whole, whole_energy = step(whole, whole_energy, y, 1)
    walk(0, empty, 0, whole, whole_energy)
    return found


def naive_energy(xs, ys):
    """E(A,B): quadruples with a - b = a' - b'."""
    count = 0
    for a1, a2 in product(xs, repeat=2):
        for b1, b2 in product(ys, repeat=2):
            if a1 - b1 == a2 - b2:
                count += 1
    return count


def _lowest_terms(num, den):
    """The fraction num/den of positive ints as its gcd-reduced pair."""
    g = gcd(num, den)
    return num // g, den // g


def naive_ratio_box(xs):
    """Largest n with every x/y (1 <= x, y <= n) among difference ratios."""
    mags = sorted({abs(x - y) for x in xs for y in xs if x != y})
    if not mags:
        return 0
    ratios = {_lowest_terms(d1, d2) for d1 in mags for d2 in mags}
    n = 0
    while True:
        cand = n + 1
        ok = all(
            _lowest_terms(x, y) in ratios
            for x in range(1, cand + 1)
            for y in range(1, cand + 1)
        )
        if not ok:
            return n
        n = cand


def reference_ratio_box(xs):
    """(n, missing, ratio_count) of ``ratio_box`` by its scan on Fractions.

    The ratios of nonzero differences are a set of Fractions; n grows while
    every reduced x/y with 1 <= x, y <= n + 1 is in it, scanning x upward
    and testing x/(n+1) before (n+1)/x, and missing is the first one that
    is not.  The scan is cut at n = max|d| // min|d| + 1.
    """
    mags = sorted({abs(x - y) for x in xs for y in xs if x != y})
    if not mags:
        return 0, Fraction(1), 0
    ratios = {Fraction(d1, d2) for d1 in mags for d2 in mags}
    max_n = max(mags) // min(mags) + 1
    n = 0
    missing = None
    while missing is None and n <= max_n:
        cand = n + 1
        for x in range(1, cand + 1):
            if gcd(x, cand) != 1:
                continue
            if Fraction(x, cand) not in ratios:
                missing = Fraction(x, cand)
                break
            if Fraction(cand, x) not in ratios:
                missing = Fraction(cand, x)
                break
        if missing is None:
            n = cand
    return n, missing, len(ratios)


def naive_sidon_max(xs, h):
    """Largest B_h[1] subset by checking every subset."""
    best = 0
    for sub in subsets(xs):
        if len(sub) <= best:
            continue
        sums = [sum(t) for t in combinations_with_replacement(sub, h)]
        if len(sums) == len(set(sums)):
            best = len(sub)
    return best


def reference_sidon(a, h, mode, meter):
    """Elements of ``sidon_extract(a, h, "+", meter)`` by its plain loops, with
    ``mode`` ("exact_tiny" or "greedy") naming the search that the size of A
    selects there.

    A copy of the search that rebuilds every h-multiset sum of the candidate
    subset for each test: the same ``_int_view`` codes and int64 check, the
    same order (``by_magnitude``), and the same ticks, charged to ``meter``
    before each test: len(cand)**h // h + 1 per candidate in exact mode,
    len(kept)**(h - 1) + 1 in greedy mode.  Errors propagate as they are.
    """
    from adlab.groundset import _int_view, by_magnitude

    def h_fold_ok(codes, modulus):
        seen = set()
        for tup in combinations_with_replacement(codes, h):
            total = sum(tup) if modulus is None else sum(tup) % modulus
            if total in seen:
                return False
            seen.add(total)
        return True

    amb = a.ambient
    elems = by_magnitude(amb, a.elements)
    if not elems:
        return a.elements
    part_codes, n, _decode = _int_view(amb, [(elems, "+")] * h)
    codes = part_codes[0]

    if mode == "greedy":
        kept = []
        for i, code in enumerate(codes):
            meter.tick(len(kept) ** (h - 1) + 1)
            if h_fold_ok([codes[j] for j in kept] + [code], n):
                kept.append(i)
        return tuple(sorted(elems[i] for i in kept))

    best = []

    def dfs(start, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (len(elems) - start) <= len(best):
            return
        for i in range(start, len(elems)):
            cand = chosen + [i]
            meter.tick(len(cand) ** h // h + 1)
            if h_fold_ok([codes[j] for j in cand], n):
                dfs(i + 1, cand)

    dfs(0, [])
    return tuple(sorted(elems[i] for i in best))


def naive_dft_peak(xs, n):
    """max_{r != 0} |sum_a e(ar/n)| by direct summation."""
    import cmath

    best = 0.0
    for r in range(1, n):
        z = sum(cmath.exp(2j * cmath.pi * a * r / n) for a in xs)
        best = max(best, abs(z))
    return best


def naive_dirichlet(xs, s, n):
    """(min over q in [1, n-1] of sum_a ||q*a/n||^s, the first q reaching
    it), exactly, by a full scan of q."""
    best = best_q = None
    for q in range(1, n):
        total = 0  # n^s times the sum
        for a in xs:
            rem = (q * a) % n
            total += min(rem, n - rem) ** s
        if best is None or total < best:
            best, best_q = total, q
    return Fraction(best, n**s), best_q


def naive_is_prime(n):
    """n is prime, by trial division by every d with d*d <= n."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def naive_factor(n):
    """{prime: exponent} of n >= 1, by trial division by d = 2, 3, 4, ..."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def naive_totient(n):
    """#{1 <= k <= n : gcd(k, n) = 1}."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def naive_order(g, p):
    """The least e >= 1 with g^e = 1 mod p, by repeated multiplication; g a unit."""
    x, e = g % p, 1
    while x != 1:
        x, e = x * g % p, e + 1
    return e


def naive_primes_below(limit):
    """The primes below ``limit``, by the sieve of Eratosthenes."""
    flags = [n >= 2 for n in range(limit)]
    for d in range(2, isqrt(max(limit - 1, 0)) + 1):
        if flags[d]:
            for m in range(d * d, limit, d):
                flags[m] = False
    return [n for n, prime in enumerate(flags) if prime]
