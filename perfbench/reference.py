"""Independent reference values for the sieve-class checks.

Written from the definitions and sharing no code with recnum, so that the
expected values in workloads.py do not rest on the program alone:

- digit sums by block tiling, s(k) = k // G_n + s(k mod G_n) for
  G_n <= k < G_{n+1}, instead of floor division from the top term;
- almost primes by marking the products of two primes, instead of reading a
  smallest-prime-factor table;
- Lambda_2 = mu * log^2 from its closed form: (2k - 1) log^2 p at p^k,
  2 log p log q at p^a q^b (p != q), 0 elsewhere; instead of the recursion
  Lambda_l = Lambda_{l-1} log + Lambda_{l-1} * Lambda.

Zeckendorf base (1, 1) with G = 1, 2, 3, 5, ... and modulus s = 2 only.

    python3 perfbench/reference.py --x 10000000 --x-disc 1000000
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from workloads import geometric_z_samples


def zeckendorf_digit_sums(n: int) -> np.ndarray:
    """s_G(k) for 0 <= k < n in the base G = 1, 2, 3, 5, 8, ..."""
    terms = [1, 2]
    while terms[-1] < n:
        terms.append(terms[-1] + terms[-2])
    s = np.zeros(max(n, 1), dtype=np.int64)
    for g, g_next in zip(terms, terms[1:]):
        if g >= n:
            break
        ks = np.arange(g, min(g_next, n))
        s[ks] = ks // g + s[ks % g]
    return s[:n]


def prime_mask(x: int) -> np.ndarray:
    """Sieve of Eratosthenes: is_prime[k] for 0 <= k <= x."""
    is_prime = np.ones(x + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


def almost_prime_count(x: int, r: int) -> int:
    """#{2 <= k <= x : k prime or a product of two primes, s_G(k) = r mod 2}."""
    is_prime = prime_mask(x)
    primes = np.nonzero(is_prime)[0]
    marked = is_prime.copy()
    for p in primes[primes <= math.isqrt(x)]:
        qs = primes[(primes >= p) & (primes <= x // p)]
        marked[p * qs] = True
    in_class = zeckendorf_digit_sums(x + 1) % 2 == r
    return int(np.count_nonzero(marked & in_class))


def lambda2_class_sum(x: int, r: int) -> float:
    """sum of Lambda_2(k) over 0 <= k < x with s_G(k) = r mod 2."""
    n_max = x - 1
    primes = np.nonzero(prime_mask(n_max))[0]
    lam2 = np.zeros(x)
    # prime powers p^k, with their prime p
    pp_val, pp_prime = [], []
    for p in map(int, primes):
        k, pk = 1, p
        while pk <= n_max:
            lam2[pk] = (2 * k - 1) * math.log(p) ** 2
            pp_val.append(pk)
            pp_prime.append(p)
            k, pk = k + 1, pk * p
    order = np.argsort(pp_val)
    pp_val = np.array(pp_val, dtype=np.int64)[order]
    pp_prime = np.array(pp_prime, dtype=np.int64)[order]
    pp_log = np.log(pp_prime)
    # p^a q^b with p < q; then p^2 < p^a q^b <= n_max
    for u, p in zip(pp_val, pp_prime):
        if p > math.isqrt(n_max):
            continue
        hi = int(np.searchsorted(pp_val, n_max // u, side="right"))
        keep = pp_prime[:hi] > p
        lam2[u * pp_val[:hi][keep]] = 2.0 * math.log(p) * pp_log[:hi][keep]
    in_class = zeckendorf_digit_sums(x) % 2 == r
    return float(np.sum(lam2[in_class]))


def discrepancy_total(x: int, r: int, theta: float) -> float:
    """sum over 1 <= q < x^theta of max over z in the geometric samples and
    h mod q of |#{k < z in class, k = h mod q} - #{k < z in class} / q|."""
    ks = np.nonzero(zeckendorf_digit_sums(x) % 2 == r)[0]
    q_max = math.ceil(x**theta) - 1
    total = 0.0
    for q in range(1, q_max + 1):
        residues = ks % q
        worst = 0.0
        for z in geometric_z_samples(x):
            sub = residues[: int(np.searchsorted(ks, z))]
            counts = np.bincount(sub, minlength=q)
            worst = max(worst, float(np.max(np.abs(counts - len(sub) / q))))
        total += worst
    return total


def sieve_values(x: int, x_disc: int, r: int, theta: float = 0.3) -> dict:
    return {
        "count": almost_prime_count(x, r),
        "lhs": lambda2_class_sum(x, r),
        "total": discrepancy_total(x_disc, r, theta),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--x", type=int, default=10**7)
    ap.add_argument("--x-disc", type=int, default=10**6)
    args = ap.parse_args()
    for r in (0, 1):
        print(r, sieve_values(args.x, args.x_disc, r))


if __name__ == "__main__":
    main()
