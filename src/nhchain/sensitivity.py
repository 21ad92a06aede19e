"""Boundary-deformation sweeps, spectral distances, and sensitivity verdicts.

A model enters this module as a callable delta -> Spectrum (and, for the
exponent fit, a callable (n_sites, delta) -> Spectrum).  The Hausdorff
distance is used as the spectral-change metric Delta throughout: it is
permutation-free and stable when multisets of different provenance are
compared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NumericalError, Spectrum, _values, hausdorff_points

__all__ = [
    "SensitivityReport",
    "delta_sweep",
    "hausdorff",
    "sensitivity_exponent",
    "classify_sensitivity",
]


def hausdorff(s1, s2) -> float:
    """Symmetric Hausdorff distance between two spectra in the complex plane."""
    return hausdorff_points(s1, s2)


def delta_sweep(spectrum_fn: Callable[[float], Spectrum], delta_grid) -> list:
    """One Spectrum per grid value, in grid order."""
    return [spectrum_fn(float(d)) for d in np.asarray(delta_grid, dtype=float)]


@dataclass(frozen=True)
class SensitivityReport:
    """Result of the critical-deformation fit delta*(N) ~ e^{-xi N}.

    Besides delta* (None when unreached) and `reached`, each size records
    `at_floor` (delta* is the search floor: an upper bound, not a crossing)
    and `evaluations` (spectra computed, the delta = 0 reference and
    delta = 1 included).
    """

    n_list: tuple
    delta_star: tuple
    reached: tuple
    xi: float
    r_squared: float
    verdict: str
    threshold: float
    at_floor: tuple
    evaluations: tuple


_DELTA_FLOOR = 1e-14        # smallest delta searched: e^{-xi N} is ~1e-10 already at N = 30
_MAX_STEPS = 60             # midpoints per size at most; a reached size takes about 18
_BISECT_RATIO = 1.0 + 1e-2  # bracket b/a at which ITP takes over from bisection
_END_RATIO = 1.0 + 1e-12    # bracket b/a at which the search stops
_ITP_K1 = 0.002             # truncation kappa_1 = _ITP_K1 / (width of the ITP bracket)
_ITP_K2 = 2.0               # truncation exponent kappa_2
_ITP_N0 = 1                 # steps ITP may take beyond bisection's count


def _bisect_delta_star(fn, threshold: float):
    """A crossing delta* in [_DELTA_FLOOR, 1] of the spectral change H(delta)
    = hausdorff(fn(delta), fn(0)) through `threshold`.

    Returns b with H(b) >= threshold for which some a >= b / (1 + 1e-12)
    has H(a) < threshold; None when H(1) < threshold; exactly _DELTA_FLOOR
    when H(_DELTA_FLOOR) >= threshold already (an upper bound on delta*).
    Raises NumericalError when _MAX_STEPS midpoints leave the bracket open.

    Geometric bisection first narrows the bracket to b/a < 1.01, so when H is
    not monotone the crossing is the one a bisection to the end would find.
    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2021) on ln H - ln threshold
    over ln delta then finishes the bracket, and never takes more than
    bisection's steps plus _ITP_N0.  ln H is close to linear in ln delta,
    so the truncation that keeps regula falsi off one end is small
    (kappa_1 = 0.002 / width; at 0 regula falsi stalls).  A point that the
    projection places within eps (half of ln(1 + 1e-12)) of an end of the
    bracket moves to 1.5 eps inside that end, where the projection radius
    allows it: if the crossing lies within eps of that end, that one
    spectrum closes the bracket.  Each side is decided by H >= threshold
    alone; the logarithms only place the next point.  A size that reaches
    the threshold takes about 20 spectra, delta = 0 and 1 included, and at
    most 49.
    """
    ref = fn(0.0)
    h_b = hausdorff(fn(1.0), ref)
    if h_b < threshold:
        return None
    a, b, h_a = _DELTA_FLOOR, 1.0, None
    steps = 0
    while steps < _MAX_STEPS and b / a >= _BISECT_RATIO:
        steps += 1
        mid = float(np.sqrt(a * b))
        h = hausdorff(fn(mid), ref)
        if h >= threshold:
            b, h_b = mid, h
        else:
            a, h_a = mid, h
    if h_a is None:
        h_a = hausdorff(fn(a), ref)
        if h_a >= threshold:
            return a

    log_threshold = math.log(threshold)

    def excess(h):  # ln H - ln threshold, the function ITP interpolates
        return math.log(h) - log_threshold if h > 0 else -math.inf

    xa, xb, ya, yb = math.log(a), math.log(b), excess(h_a), excess(h_b)
    eps = 0.5 * math.log(_END_RATIO)
    k1 = _ITP_K1 / (xb - xa)
    n_max = max(math.ceil(math.log2((xb - xa) / (2 * eps))), 0) + _ITP_N0
    j = 0
    while steps < _MAX_STEPS and b / a >= _END_RATIO:
        steps += 1
        width = xb - xa
        x_half = 0.5 * (xa + xb)
        x_f = xb - yb * width / (yb - ya) if yb > ya else x_half  # regula falsi
        sigma = math.copysign(1.0, x_half - x_f)
        trunc = k1 * width ** _ITP_K2
        x_t = x_f + sigma * trunc if trunc <= abs(x_half - x_f) else x_half
        r = max(eps * 2.0 ** (n_max - j) - 0.5 * width, 0.0)
        x = x_t if abs(x_t - x_half) <= r else x_half - sigma * r
        near = xa + 1.5 * eps if x - xa < eps else xb - 1.5 * eps if xb - x < eps else x
        if abs(near - x_half) <= r:
            x = near
        mid = math.exp(x)
        if not a < mid < b:
            mid = float(np.sqrt(a * b))
        h = hausdorff(fn(mid), ref)
        if h >= threshold:
            b, xb, yb = mid, math.log(mid), excess(h)
        else:
            a, xa, ya = mid, math.log(mid), excess(h)
        j += 1
    if b / a >= _END_RATIO:
        raise NumericalError(f"the delta* search left [{a!r}, {b!r}] open after {_MAX_STEPS} midpoints")
    return b


def sensitivity_exponent(family_fn: Callable[[int, float], Spectrum], threshold: float,
                         n_list, drop_smallest: int = 0) -> SensitivityReport:
    """Fit ln delta*(N) against N over a list of at least 4 distinct sizes.

    For each N a critical deformation delta* is located in [1e-14, 1]: a b
    with H(b) = hausdorff(S(b), S(0)) >= threshold for which some
    a >= b / (1 + 1e-12) has H(a) < threshold, inside the bracket that
    geometric bisection holds at b/a < 1.01 (see _bisect_delta_star).  It
    need not be the smallest such delta when H is not monotone.  A size
    whose spectrum has moved by the threshold already at 1e-14 reports
    delta* = 1e-14, an upper bound, with `at_floor` set.  Sizes that never
    reach the threshold at delta = 1 are flagged and excluded from the fit.
    `evaluations` counts the spectra of each size: 2 for one that never
    reaches the threshold, about 20 for one that does, and at most 49; a
    search whose bracket is still open after 60 midpoints raises
    NumericalError.
    `drop_smallest` removes that many smallest-|lambda| eigenvalues from
    every spectrum first (used to separate a gradually moving zero-mode
    branch from the bulk).  The verdict is 'exponential' when the fitted
    xi exceeds 0.01 with every size reaching the threshold.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    n_list = [int(n) for n in n_list]
    if len(set(n_list)) < 4:
        raise ValueError(f"need at least 4 sizes for the exponent fit, all distinct; got {n_list}")

    def spectrum_at(n, d):
        vals = _values(family_fn(n, d))
        if drop_smallest:
            vals = vals[np.argsort(np.abs(vals))][drop_smallest:]
        return vals

    stars, evaluations = [], []
    for n in n_list:
        calls = 0

        def counted(d, n=n):
            nonlocal calls
            calls += 1
            return spectrum_at(n, d)

        stars.append(_bisect_delta_star(counted, threshold))
        evaluations.append(calls)
    reached = [s is not None for s in stars]

    def report(xi, r2, verdict):
        return SensitivityReport(tuple(n_list), tuple(stars), tuple(reached), xi, r2, verdict,
                                 threshold, tuple(s == _DELTA_FLOOR for s in stars),
                                 tuple(evaluations))

    fit_n = np.array([n for n, s in zip(n_list, stars) if s is not None], dtype=float)
    fit_d = np.array([s for s in stars if s is not None], dtype=float)
    if len(fit_n) < 2:
        return report(0.0, 0.0, "non-exponential")
    y = np.log(fit_d)
    A = np.column_stack([fit_n, np.ones_like(fit_n)])
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        r2 = 1.0 if not len(res) or res[0] < 1e-30 else 0.0
    else:
        ss_res = float(res[0]) if len(res) else float(((A @ coef - y) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot
    xi = float(-coef[0])
    verdict = "exponential" if (all(reached) and xi > 0.01) else "non-exponential"
    return report(xi, float(r2), verdict)


# Thresholds of the fixed-size screen in classify_sensitivity, calibrated on
# the solved chains at N = 30, where the two classes separate as
# (step, secant) ratios (>= 4, >= 15) vs (<= 1.3, <= 1.7).
_SCREEN_STEP_RATIO = 3.0
_SCREEN_SECANT_RATIO = 5.0


@dataclass(frozen=True)
class ScreenResult:
    verdict: str
    step_ratio: float
    secant_ratio: float
    jump: float


def classify_sensitivity(spectrum_fn: Callable[[float], Spectrum],
                         eps: float = 0.01) -> ScreenResult:
    """Fixed-size screen for exponential sensitivity (the exponent fit is
    authoritative; this is the cheap single-N heuristic).

    Compares the initial jump hausdorff(S(0), S(eps)) against the following
    step hausdorff(S(eps), S(2 eps)) (the step ratio) and against the
    linear drift eps * hausdorff(S(0), S(1)) (the secant ratio).  Either
    ratio at or above its threshold, 3 and 5, yields the exponential
    verdict.
    """
    if eps <= 0 or 2 * eps > 1:
        raise ValueError(f"eps must lie in (0, 0.5], got {eps}")
    s0 = spectrum_fn(0.0)
    s1 = spectrum_fn(eps)
    s2 = spectrum_fn(2 * eps)
    sfull = spectrum_fn(1.0)
    jump = hausdorff(s0, s1)
    step = hausdorff(s1, s2)
    secant = eps * hausdorff(s0, sfull)
    tiny = 1e-300
    r_step = jump / max(step, tiny)
    r_secant = jump / max(secant, tiny)
    exponential = jump >= tiny and (r_step >= _SCREEN_STEP_RATIO or r_secant >= _SCREEN_SECANT_RATIO)
    verdict = "exponential" if exponential else "non-exponential"
    return ScreenResult(verdict, float(r_step), float(r_secant), float(jump))
