"""An oracle for the cycleswap benchmark, written apart from the program.

Nothing here imports ``cycleswap``.  The exact distributions come from
closed forms (the exponential formula, Flajolet-Sedgewick, *Analytic
Combinatorics*, Ch. II); the statistics come from counters on plain
one-line tuples; sampled histograms are judged by a chi-square test whose
threshold is a proven tail bound, so the false-alarm level is at most
``ALPHA`` per test.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import comb, factorial

#: False-alarm level of one chi-square test.
ALPHA = 1e-9

#: Bins with a smaller expected count are merged before the chi-square test.
MIN_EXPECTED = 5.0


def k_cycle_counts(k: int, n: int) -> tuple[int, ...]:
    """counts[m] = #{pi in S_kn with exactly m k-cycles}, m = 0..n:
    sum_j (-1)^j (kn)! / (k^(m+j) m! j!)."""
    total = factorial(k * n)
    counts = []
    for m in range(n + 1):
        s = sum(
            (-1) ** j * Fraction(total, k ** (m + j) * factorial(m) * factorial(j))
            for j in range(n - m + 1)
        )
        if s.denominator != 1:
            raise ArithmeticError(f"non-integral k-cycle count at k={k}, n={n}, m={m}")
        counts.append(int(s))
    return tuple(counts)


def fixed_point_counts(k: int, n: int) -> tuple[int, ...]:
    """counts[m] = #{sigma in Z_k^n x| S_n with exactly m fixed points}:
    C(n,m) sum_i (-1)^i C(n-m,i) k^(n-m-i) (n-m-i)!."""
    return tuple(
        comb(n, m)
        * sum(
            (-1) ** i * comb(n - m, i) * k ** (n - m - i) * factorial(n - m - i)
            for i in range(n - m + 1)
        )
        for m in range(n + 1)
    )


def bijection_checked(k: int, n: int) -> int:
    """Elements a full bijection check visits: all of S_kn, then every
    (delta, sigma) of the codomain, which has as many."""
    return 2 * factorial(k * n)


def involution_checked(k: int, n: int) -> int:
    """Pairs in S(k,n) x S_kn."""
    return factorial(k * n) * k**n * factorial(n)


def cycles(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a 1-based one-line permutation, each from its least letter."""
    seen = [False] * (len(images) + 1)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = images[j - 1]
        out.append(tuple(cycle))
    return out


def cycle_lengths(images: tuple[int, ...]) -> list[int]:
    return sorted((len(c) for c in cycles(images)), reverse=True)


def count_k_cycles(images: tuple[int, ...], k: int) -> int:
    return sum(1 for c in cycles(images) if len(c) == k)


def count_fixed_points(x: tuple[int, ...], tau: tuple[int, ...], k: int) -> int:
    """Indices i with x_i = 0 mod k and tau(i) = i."""
    return sum(1 for i, (xi, ti) in enumerate(zip(x, tau), start=1) if xi % k == 0 and ti == i)


def cycle_text(images: tuple[int, ...]) -> str:
    """Cycle notation with every cycle written out, fixed points too."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles(images))


_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycle_text(text: str, m: int) -> tuple[int, ...]:
    """One-line form of a permutation of {1..m} written as disjoint cycles;
    letters left out are fixed.  Raises ValueError on anything else."""
    images = list(range(1, m + 1))
    seen = set()
    if _CYCLE.sub("", text).strip():
        raise ValueError(f"not cycle notation: {text!r}")
    for body in _CYCLE.findall(text):
        cycle = [int(tok) for tok in body.split()]
        if not cycle:
            raise ValueError("empty cycle")
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if a in seen or not 1 <= a <= m:
                raise ValueError(f"bad letter {a} in {text!r}")
            seen.add(a)
            images[a - 1] = b
    return tuple(images)


def chi2_threshold(df: int, alpha: float = ALPHA) -> float:
    """The least x > df with the Chernoff bound on P(chi2_df >= x),
    (x/df)^(df/2) e^((df-x)/2), at most alpha."""
    def log_bound(x: float) -> float:
        return df / 2 * math.log(x / df) + (df - x) / 2

    lo, hi = float(df), float(df)
    while log_bound(hi) > math.log(alpha):
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if log_bound(mid) > math.log(alpha):
            lo = mid
        else:
            hi = mid
    return hi


def chi2_statistic(observed: tuple[int, ...], exact: tuple[int, ...]) -> tuple[float, int]:
    """Pearson's statistic of ``observed`` against the distribution
    proportional to ``exact``, after merging adjacent bins until each
    expects at least MIN_EXPECTED draws; returns (statistic, df)."""
    trials = sum(observed)
    total = sum(exact)
    groups: list[list[float]] = []
    cur_obs, cur_exp = 0, 0.0
    for obs, count in zip(observed, exact):
        cur_obs += obs
        cur_exp += float(Fraction(count * trials, total))
        if cur_exp >= MIN_EXPECTED:
            groups.append([cur_obs, cur_exp])
            cur_obs, cur_exp = 0, 0.0
    if groups:
        groups[-1][0] += cur_obs
        groups[-1][1] += cur_exp
    else:
        groups.append([cur_obs, cur_exp])
    stat = sum((o - e) ** 2 / e for o, e in groups if e > 0)
    return stat, len(groups) - 1


def sample_passes(observed: tuple[int, ...], exact: tuple[int, ...]) -> bool:
    """True when a sampled histogram is consistent with the exact counts."""
    if len(observed) != len(exact):
        return False
    if any(obs and not count for obs, count in zip(observed, exact)):
        return False
    stat, df = chi2_statistic(observed, exact)
    if df == 0:
        return True
    return stat < chi2_threshold(df)
