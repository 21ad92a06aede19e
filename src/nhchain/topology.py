"""Winding numbers around base energies and point-gap / line-gap screening.

The winding of det(H(k) - E_B) over one Brillouin-zone traversal is computed
by summing principal-branch phase increments on a uniform k grid, doubling
the grid until the pre-rounding sum sits close to an integer.  Orientation
convention: k runs from -pi to pi and counterclockwise loops count positive.

A `BlochSampler` evaluates its Bloch function on a whole k grid in one
call and keeps H(k) on each closed grid it has sampled, so a scan over many
base energies (`gap_classify`, `tridiag_det_winding`) evaluates the Bloch
function once per grid size, and only the shifted determinants are
recomputed per energy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import cmul

__all__ = [
    "BlochSampler",
    "WindingResult",
    "winding_number",
    "gap_classify",
    "tridiag_bloch_det",
    "tridiag_det_winding",
]

UNRELIABLE_MIN_DET = 1e-10


class BlochSampler:
    """Samples of a Bloch function k -> H(k), scalar or square block, period 2 pi.

    `fn` takes an array of k and returns H on all of them at once: shape
    (n,) for a scalar curve, (n, dim, dim) for a block (a value that does
    not depend on k may come without the k axis).  `grid(n)` holds H(k) on
    the closed grid linspace(-pi, pi, n + 1); each grid size is evaluated
    once per sampler, in one call of `fn`.  Products of complex arrays in
    `fn` should go through `core.cmul` where H(k) must not depend on
    whether k came alone or in an array.
    """

    def __init__(self, fn, dim: int = 1):
        self.fn = fn
        self.dim = int(dim)
        self._grids: dict[int, np.ndarray] = {}

    def _evaluate(self, ks: np.ndarray) -> np.ndarray:
        shape = ks.shape if self.dim == 1 else ks.shape + (self.dim, self.dim)
        return np.broadcast_to(np.asarray(self.fn(ks), dtype=complex), shape)

    def grid(self, n: int) -> np.ndarray:
        """H(k) on linspace(-pi, pi, n + 1): shape (n + 1,) or (n + 1, dim, dim)."""
        if n not in self._grids:
            h = self._evaluate(np.linspace(-np.pi, np.pi, n + 1))
            h.flags.writeable = False  # shared by every later caller
            self._grids[n] = h
        return self._grids[n]

    def _shifted_det(self, h: np.ndarray, base_energy: complex) -> np.ndarray:
        """det(H - E_B) of samples h from `grid` or `_evaluate`."""
        if self.dim == 1:
            return h - base_energy
        return np.linalg.det(h - base_energy * np.eye(self.dim))

    def det_shifted(self, ks, base_energy: complex) -> np.ndarray:
        """det(H(k) - E_B) on an array of k values."""
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        return self._shifted_det(self._evaluate(ks), base_energy)

    def periodicity_defect(self) -> float:
        ks = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        a = self.det_shifted(ks, 0.0)
        b = self.det_shifted(ks + 2 * np.pi, 0.0)
        scale = np.abs(a).max() + 1e-300
        return float(np.abs(a - b).max() / scale)


@dataclass(frozen=True)
class WindingResult:
    base_energy: complex
    w: int
    samples: int
    min_abs_det: float
    phase_sum: float


def _phase_increments(dets: np.ndarray) -> np.ndarray:
    return np.angle(dets[1:] / dets[:-1])


def winding_number(sampler: BlochSampler, base_energy, n_samples: int = 256) -> WindingResult:
    """Winding of det(H(k) - E_B) as k traverses [-pi, pi].

    Doubles the sample count, up to 2^16, until no single phase increment
    exceeds pi/2 (which rules out 2 pi aliasing when the curve passes
    between samples) and the pre-rounding phase sum lies within 0.1 of an
    integer.  Raises when the base energy sits on (or numerically touches)
    the sampled spectral curve, where the winding is undefined.
    """
    if n_samples < 64:
        raise ValueError(f"need at least 64 samples, got {n_samples}")
    E = complex(base_energy)
    n = int(n_samples)
    while True:
        dets = sampler._shifted_det(sampler.grid(n), E)
        min_det = float(np.abs(dets).min())
        if min_det < UNRELIABLE_MIN_DET:
            raise ValueError(
                f"base energy {E} lies on the spectrum (min |det| = {min_det:.3g})"
            )
        inc = _phase_increments(dets)
        total = float(inc.sum() / (2 * np.pi))
        resolved = np.abs(inc).max() < 0.5 * np.pi
        if resolved and abs(total - round(total)) <= 0.1:
            return WindingResult(E, int(round(total)), n, min_det, total)
        if n >= 1 << 16:
            if not resolved:
                raise ValueError(
                    f"base energy {E} too close to the spectral curve to resolve "
                    f"the winding (min |det| = {min_det:.3g})"
                )
            return WindingResult(E, int(round(total)), n, min_det, total)
        n *= 2


def gap_classify(sampler: BlochSampler):
    """Scan a 12 x 12 grid over the bounding box of the Bloch curve, padded
    by a fifth of its width and height, for a winding witness.

    Returns ('point-gap', WindingResult) at the first base energy with
    |w| >= 1, else ('line-gap-consistent', None).  A grid verdict is not a
    proof of the absence of winding.
    """
    pts = sampler.grid(512)[:-1]  # k = pi repeats k = -pi
    if sampler.dim > 1:
        pts = np.linalg.eigvals(pts).ravel()
    re_lo, re_hi = pts.real.min(), pts.real.max()
    im_lo, im_hi = pts.imag.min(), pts.imag.max()
    dre = max(re_hi - re_lo, 1e-6)
    dim_ = max(im_hi - im_lo, 1e-6)
    res = np.linspace(re_lo - 0.2 * dre, re_hi + 0.2 * dre, 12)
    ims = np.linspace(im_lo - 0.2 * dim_, im_hi + 0.2 * dim_, 12)
    min_curve_dist = 0.02 * max(dre, dim_)
    for re in res:
        for im in ims:
            E = complex(re, im)
            # scalar curves are sampled in k order, so the polyline distance
            # is meaningful; band eigenvalues are unordered, use points only
            near = (_polyline_distance(pts, E) if sampler.dim == 1
                    else float(np.abs(pts - E).min()))
            if near < min_curve_dist:
                continue
            try:
                res_w = winding_number(sampler, E)
            except ValueError:
                continue
            if abs(res_w.w) >= 1:
                return "point-gap", res_w
    return "line-gap-consistent", None


def _polyline_distance(pts: np.ndarray, z: complex) -> float:
    """Distance of z to the closed polyline through consecutive curve samples."""
    a = pts
    b = np.roll(pts, -1)
    d = b - a
    L2 = np.abs(d) ** 2
    L2[L2 == 0] = 1e-300
    t = np.clip(((z - a) * np.conj(d)).real / L2, 0.0, 1.0)
    return float(np.abs(z - (a + t * d)).min())


def tridiag_bloch_det(t_l, t_r, k, n_rows: int):
    """Determinant of the n_rows tridiagonal Bloch block by the recursion
    det(n) = a det(n-1) - b c det(n-2), det(1) = a, det(2) = a^2 - b c,
    with a = t_l e^{-ik} + t_r e^{ik}, b = t_r + t_l e^{ik},
    c = t_l + t_r e^{-ik}.  A complex for a scalar k, else an array of the
    shape of k; products are taken by `core.cmul`, so both agree bit for bit.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    t_l, t_r = complex(t_l), complex(t_r)
    k = np.asarray(k, dtype=float)
    a = cmul(t_l, np.exp(-1j * k)) + cmul(t_r, np.exp(1j * k))
    bc = cmul(t_r + cmul(t_l, np.exp(1j * k)), t_l + cmul(t_r, np.exp(-1j * k)))
    prev2, prev1 = 1.0 + 0j, a
    for _ in range(2, n_rows + 1):
        prev2, prev1 = prev1, cmul(a, prev1) - cmul(bc, prev2)
    return complex(prev1) if prev1.ndim == 0 else prev1


def tridiag_det_winding(t_l, t_r, n_rows: int):
    """Winding of the curve k -> det of the tridiagonal Bloch block.

    Candidate interior points are scanned (curve centroid plus a small
    grid, from 512 samples); the result with the largest |w| is returned
    together with the phase flag, which is True when t_r / t_l is a pure
    phase -- the determinant curve is then a rescaled real function and
    must not wind.
    """
    if n_rows < 2:
        raise ValueError(f"n_rows must be >= 2, got {n_rows}")
    t_l, t_r = complex(t_l), complex(t_r)
    phase_flag = abs(abs(t_r / t_l) - 1.0) < 1e-12
    sampler = BlochSampler(lambda k: tridiag_bloch_det(t_l, t_r, k, n_rows), dim=1)
    pts = sampler.grid(1024)[:-1]
    span = max(pts.real.max() - pts.real.min(), pts.imag.max() - pts.imag.min())
    if span < 1e-12:
        return WindingResult(complex(pts.mean()), 0, 0, 0.0, 0.0), phase_flag
    centroid = complex(pts.mean())
    candidates = [centroid]
    for fr in (0.25, 0.5):
        for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            candidates.append(centroid + fr * span * np.exp(1j * ang))
    best = None
    for E in candidates:
        if np.abs(pts - E).min() < 1e-3 * span:
            continue
        try:
            res = winding_number(sampler, E, 512)
        except ValueError:
            continue
        if best is None or abs(res.w) > abs(best.w):
            best = res
    if best is None:
        best = WindingResult(centroid, 0, 0, float(np.abs(pts - centroid).min()), 0.0)
    return best, phase_flag
