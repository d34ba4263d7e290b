"""``nu`` against an exact oracle: the closed-form rule in ``fractions``, on the float inputs.

Every float is a rational, so the rule that ``perfbench/gen.py:ref_nu`` follows
(s*, s**, the level c and the cutoff r need only +, -, x and /) can be computed
without rounding.  ``_waterfill`` decides ties within TIE_TOL * t, so ``nu`` may
stop its search at r' < r; each skipped entry then lies within that slack of the
float level c', and mass conservation gives c' - c <= (r - r') / (d - r) slacks.
Hence |nu - exact| <= (d - 1) * TIE_TOL * t plus rounding, 4 * d * eps * t.  A
spectrum with one near-tied pair stays within 2 * TIE_TOL * t; a tie cluster ahead
of a near tie reaches the general bound; exact dyadic ties cost rounding only.
"""

from fractions import Fraction

import numpy as np

from frameopt import nu
from frameopt.majorization import TIE_TOL

GAPS = (0.0, 1e-16, 1e-14, 1e-13, 1e-11)


def _rounding(d: int) -> float:
    return 4 * d * np.finfo(float).eps


def _exact_nu(lam, m: int, t: float):
    """(nu, r) by the closed-form rule, exact; t is clamped up to sum(lam) as ``nu`` does."""
    d = len(lam)
    t = Fraction(max(t, float(np.add.reduce(np.array(lam)))))
    lam = [Fraction(x) for x in lam]
    if m >= 1:
        head = sum(lam[:m])
        s_star = head + (d - m) * lam[m - 1]
        if t > s_star:
            c = lam[m - 1] + (t - s_star) / (d - m)
            if t >= (d - m) * lam[0] + head:  # s**
                return [c] * (d - m) + lam[:m], 0
            r = next(j for j in range(d) if lam[j] <= c)
            return lam[:r] + [c] * (d - m) + lam[r:m], r
    prefix = Fraction(0)
    for r in range(d):
        c = (t - prefix) / (d - r)
        if c >= lam[r] or r == d - 1:
            return lam[:r] + [c] * (d - r), r
        prefix += lam[r]


def _traces(lam, m: int):
    """tr(lam), the thresholds, points between them and beyond, as a caller computes them in floats."""
    arr = np.array(lam)
    d = arr.size
    if m >= 1:
        head = float(arr[:m].sum())
        marks = [head + (d - m) * lam[m - 1], (d - m) * lam[0] + head]  # s*, s**
    else:  # the jump traces, where the cutoff r steps down
        marks = [float(arr[:k].sum()) + (d - k) * lam[k] for k in range(1, d)]
    marks = sorted([float(arr.sum())] + marks)
    between = [(a + b) / 2 for a, b in zip(marks, marks[1:])]
    return marks + between + [2.0 * marks[-1]]


def _error(lam, m: int, t: float):
    """(nu's r, exact r, max |nu - exact| / t) over the sorted spectra, t as ``nu`` clamps it."""
    got = nu(lam, m, t)
    want, r = _exact_nu(lam, m, t)
    t = max(t, float(np.add.reduce(np.array(lam))))
    err = max(abs(Fraction(x) - y) for x, y in zip(sorted(got.nu.values.tolist()), sorted(want)))
    return got.r, r, float(err / Fraction(t)) if t > 0.0 else float(err)


def _near_tie_spectra(rng):
    for d in range(2, 9):
        for gap in GAPS:
            for _ in range(2):
                lam = np.sort(rng.random(d))[::-1] * 10.0 ** rng.uniform(-6.0, 6.0)
                j = int(rng.integers(0, d - 1))
                lam[j + 1] = max(lam[j] * (1.0 - gap), lam[j + 1])
                yield lam.tolist()


def test_near_ties_cost_at_most_two_tie_slacks(rng):
    with np.errstate(all="raise"):  # and pytest's filterwarnings = error
        for lam in _near_tie_spectra(rng):
            d = len(lam)
            for m in range(-1, d):
                for t in _traces(lam, m):
                    rel = _error(lam, m, t)[2]
                    assert rel <= 2 * TIE_TOL + _rounding(d), (lam, m, t, rel)


def test_dyadic_ties_cost_rounding_only(rng):
    with np.errstate(all="raise"):
        for d in range(2, 9):
            for _ in range(8):
                k = int(rng.integers(-30, 31))
                lam = (np.sort(rng.integers(0, 9, d))[::-1] * 2.0**k).tolist()
                for m in range(-1, d):
                    # every trace here is dyadic: sums of at most 8 entries of at most 8 * 2^k
                    for t in _traces(lam, m) + [sum(lam) + 2.0 ** (k - 2)]:
                        r, want_r, rel = _error(lam, m, t)
                        assert r == want_r, (lam, m, t)
                        assert rel <= _rounding(d), (lam, m, t, rel)


def test_a_tie_cluster_reaches_the_general_bound():
    # lam = (1, ..., 1, 1 - gap) at t = tr(lam): the search passes at r = 0 when the level
    # 1 - gap / d is within TIE_TOL * t of 1, that is for gap up to about d^2 * TIE_TOL
    for d in range(2, 9):
        inside, outside = ([1.0] * (d - 1) + [1.0 - f * d * d * TIE_TOL] for f in (0.99, 1.01))
        r, want_r, rel = _error(inside, 0, sum(inside))
        assert (r, want_r) == (0, d - 1)
        assert (d - 1.5) * TIE_TOL < rel <= (d - 1) * TIE_TOL + _rounding(d)
        r, want_r, rel = _error(outside, 0, sum(outside))
        assert r == want_r == d - 1 and rel <= _rounding(d)
