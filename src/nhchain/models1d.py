"""Spectra, shifted wavenumbers and eigenvectors of the solvable 1D chains.

Covered models: nearest-neighbour asymmetric chain (with optional end
on-site energies and asymmetric corners), the two-band alternating chain of
even or odd length (with alternating on-site potentials and a zero-mode
criterion), the unidirectional and mixed long-range chains, and the scalar
Bloch functions with their three non-winding parameter families.

`hn_spectrum`, `ssh_spectrum` and `mixed_longrange_spectrum` take their
eigenvalues from one dense eigensolve of the chain matrix (provenance
"oracle") and recover the shifted wavenumbers from them: cos(alpha_tilde) =
(lambda - t_d) / (2 sqrt(t_l) sqrt(t_r)) for the one-band chain, the
lambda^2 relation for the two-band chain (one alpha_tilde per +- pair at even
length), and the root of largest modulus of u_l y^3 - lambda y + t_r = 0,
y = e^{i alpha_tilde}, for the mixed long-range chain.  The exact
wavenumber sets stay analytic: the plain one-band chain at delta = 0 and
+-1 and the open odd two-band chain.  The stacked lattices of models2d
recover their Bloch blocks' wavenumbers with the same inversion helpers.

The paper's boundary-equation route (alphasolver) is kept behind
`hn_closed_form`, `ssh_closed_form` and `mixed_longrange_closed_form`.  The
command line checks it against the dense oracle at a reduced size (N <= 12);
at large N it loses digits or raises `NumericalError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alphasolver import (
    AlphaSet,
    alpha_from_roots,
    canonical_triple,
    dedup_sorted,
    dirichlet_ratio,
    polynomialize,
    roots,
)
from .core import ChainStencil, NumericalError, Spectrum, build_chain_matrix, dense_spectrum
from .core import as_corner_pair as _pair
from .core import principal_sqrt as _sq

__all__ = [
    "HNParams",
    "SSHParams",
    "LongRangeParams",
    "hn_stencil",
    "hn_matrix",
    "hn_spectrum",
    "hn_closed_form",
    "hn_eigenvector",
    "hn_balanced",
    "ssh_matrix",
    "ssh_spectrum",
    "ssh_closed_form",
    "ssh_zero_mode_predicate",
    "ssh_balanced",
    "unidirectional_matrix",
    "unidirectional_spectrum",
    "mixed_longrange_matrix",
    "mixed_longrange_spectrum",
    "mixed_longrange_closed_form",
    "bloch_1d",
    "nonwinding_family",
]


def _zero_hopping_fallback(matrix) -> tuple[Spectrum, AlphaSet]:
    """Dense spectrum and no wavenumbers, for a chain with a vanishing hopping."""
    spec = dense_spectrum(matrix, parameters={"fallback": "zero hopping"})
    return spec, AlphaSet(np.empty(0), np.empty(0, dtype=int), 0.0, "oracle-fallback")


def _alpha_set_from_cos(cos_alpha: np.ndarray, shift: complex, generator: str) -> AlphaSet:
    """One shifted wavenumber per value of cos(alpha_tilde), Re in [0, pi]."""
    return AlphaSet(np.arccos(cos_alpha), np.ones(len(cos_alpha), dtype=int), shift, generator)


def _hn_wavenumbers(h: dict, lam: np.ndarray):
    """Invert lambda = h_d + 2 sqrt(h_l) sqrt(h_r) cos(alpha_tilde).

    h holds arrays of the chain coefficients, one entry per chain (Bloch
    block); lam holds one row of eigenvalues per chain.  Returns the
    cos(alpha_tilde) rows and the shifts.
    """
    sl, sr = np.sqrt(h["h_l"]), np.sqrt(h["h_r"])
    return (lam - h["h_d"][:, None]) / (2.0 * sl * sr)[:, None], 1j * np.log(sr / sl)


def _ssh_wavenumbers(h: dict, lam: np.ndarray, pairs: bool = True):
    """Invert the two-band relation, like `_hn_wavenumbers`.

    (lambda - m)^2 = v^2 + h_l1 h_r1 + h_l2 h_r2 + 2 cos(alpha_tilde)
    sqrt(h_l1) sqrt(h_r1) sqrt(h_l2) sqrt(h_r2), with m and v the mean and
    half-difference of the two on-site terms hd1, hd2.  With `pairs`
    (even length, eigenvalues in +- pairs about m) one value per pair is
    kept; otherwise one per eigenvalue.
    """
    mid, v = (h["hd1"] + h["hd2"]) / 2.0, (h["hd1"] - h["hd2"]) / 2.0
    sl1, sl2, sr1, sr2 = (np.sqrt(h[k]) for k in ("hl1", "hl2", "hr1", "hr2"))
    base = v * v + h["hl1"] * h["hr1"] + h["hl2"] * h["hr2"]
    c = ((lam - mid[:, None]) ** 2 - base[:, None]) / (2.0 * sl1 * sr1 * sl2 * sr2)[:, None]
    return _one_per_pair(c) if pairs else c, 1j * np.log((sr1 * sr2) / (sl1 * sl2))


def _one_per_pair(c: np.ndarray) -> np.ndarray:
    """Half of every row of c, keeping one value of each near-equal pair.

    Greedy from the lexicographically smallest value: keep it and drop the
    remaining value closest to it.  A wrong partner can only be one closer
    than the rounding error, so the kept multiset does not depend on it.
    """
    c = np.sort(c, axis=1)
    rows = np.arange(len(c))
    out = np.empty((len(c), c.shape[1] // 2), dtype=complex)
    for k in range(out.shape[1]):
        i = np.argmax(~np.isnan(c), axis=1)
        out[:, k] = c[rows, i]
        c[rows, i] = np.nan
        c[rows, np.nanargmin(np.abs(c - out[:, k, None]), axis=1)] = np.nan
    return out


# ---------------------------------------------------------------------------
# nearest-neighbour chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HNParams:
    """Nearest-neighbour chain: diagonal t_d, left hop t_l (superdiagonal),
    right hop t_r (subdiagonal), optional end on-site energies."""

    t_l: complex
    t_r: complex
    t_d: complex = 0.0
    eps1: complex = 0.0
    epsN: complex = 0.0

    def __post_init__(self):
        for name in ("t_l", "t_r", "t_d", "eps1", "epsN"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def shift(self) -> complex:
        """alpha_tilde = alpha + shift."""
        return 1j * np.log(_sq(self.t_r) / _sq(self.t_l))

    @property
    def is_plain(self) -> bool:
        return self.eps1 == 0 and self.epsN == 0


def hn_stencil(p: HNParams, N: int, delta) -> ChainStencil:
    end = None if p.is_plain else (p.eps1, p.epsN)
    return ChainStencil(N, {1: p.t_l, -1: p.t_r}, (p.t_d,), _pair(delta), end)


def hn_matrix(p: HNParams, N: int, delta) -> np.ndarray:
    return build_chain_matrix(hn_stencil(p, N, delta))


def _hn_lambda(p: HNParams, alphas: np.ndarray) -> np.ndarray:
    return p.t_d + 2.0 * _sq(p.t_l) * _sq(p.t_r) * np.cos(alphas)


def _hn_exact_alpha_set(p: HNParams, N: int, delta) -> Optional[AlphaSet]:
    """The exact wavenumber sets of the plain chain with symmetric corners at
    delta = 0 and delta = +-1, or None for any other boundary.  The
    plane-wave solutions at delta = +-1 exist because the boundary equations
    then admit single-exponential eigenvectors."""
    dl, dr = _pair(delta)
    shift = p.shift
    if p.is_plain and dl == dr:
        if dl == 0:
            kp = np.arange(1, N + 1)
            vals = np.pi * kp / (N + 1) + 0j
            return AlphaSet(vals, np.ones(N, dtype=int), shift, "hn-delta0")
        if dl in (1.0 + 0j, -1.0 + 0j):
            k = np.arange(N)
            alph = (2 * np.pi * k + (0.0 if dl == 1 else np.pi)) / N
            vals, mult = dedup_sorted(alph + shift)
            return AlphaSet(vals, mult, shift, "hn-fourier")
    return None


def hn_alpha_set(p: HNParams, N: int, delta) -> AlphaSet:
    """Shifted wavenumbers of the nearest-neighbour chain, closed form.

    delta = 0 and delta = +-1 (plain chain, symmetric corners) use the exact
    wavenumber sets; every other boundary value goes through the cleared
    polynomial.
    """
    exact = _hn_exact_alpha_set(p, N, delta)
    if exact is not None:
        return exact
    poly = polynomialize(
        "hn", {"t_l": p.t_l, "t_r": p.t_r, "eps1": p.eps1, "epsN": p.epsN}, N, _pair(delta)
    )
    aset = alpha_from_roots(roots(poly), "pairs", expected=N)
    return AlphaSet(aset.values, aset.multiplicity, p.shift, "hn-equation")


def hn_closed_form(p: HNParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """The paper's route: wavenumbers from the boundary equation (alphasolver),
    eigenvalues lambda = t_d + 2 sqrt(t_l) sqrt(t_r) cos(alpha_tilde),
    provenance "analytic".  Reliable at small N only; see `hn_spectrum`."""
    if p.t_l == 0 or p.t_r == 0:
        return _zero_hopping_fallback(hn_matrix(p, N, delta))
    aset = hn_alpha_set(p, N, delta)
    lam = _hn_lambda(p, aset.expand())
    params = {"model": "hn", "N": N, "delta": _pair(delta)}
    return Spectrum(lam, "analytic", params), aset


def hn_spectrum(p: HNParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """Eigenvalues lambda = t_d + 2 sqrt(t_l) sqrt(t_r) cos(alpha_tilde).

    The plain chain with symmetric corners at delta = 0 and +-1 has exact
    wavenumber sets and an "analytic" spectrum.  Otherwise the eigenvalues
    come from a dense eigensolve (provenance "oracle") and each gets the
    alpha_tilde that `_hn_wavenumbers` recovers from it (generator "hn-eig").
    A vanishing hopping leaves the dense spectrum without wavenumbers.
    """
    if p.t_l == 0 or p.t_r == 0:
        return _zero_hopping_fallback(hn_matrix(p, N, delta))
    params = {"model": "hn", "N": N, "delta": _pair(delta)}
    exact = _hn_exact_alpha_set(p, N, delta)
    if exact is not None:
        return Spectrum(_hn_lambda(p, exact.expand()), "analytic", params), exact
    spec = dense_spectrum(hn_matrix(p, N, delta), parameters=params)
    h = {"h_d": np.array([p.t_d]), "h_l": np.array([p.t_l]), "h_r": np.array([p.t_r])}
    cos_alpha, shift = _hn_wavenumbers(h, spec.eigenvalues[None, :])
    return spec, _alpha_set_from_cos(cos_alpha[0], shift[0], "hn-eig")


def hn_eigenvector(p: HNParams, alpha_tilde: complex, delta, N: int) -> np.ndarray:
    """Unnormalized right eigenvector for one shifted wavenumber.

    psi_n = (sqrt(t_r)/sqrt(t_l))^n (sin(n a) + delta (sqrt(t_r)/sqrt(t_l))^N
    sin((N - n) a)); valid for the plain chain with symmetric corners.
    """
    if not p.is_plain:
        raise ValueError("explicit eigenvectors require eps1 = epsN = 0")
    dl, dr = _pair(delta)
    if dl != dr:
        raise ValueError("explicit eigenvectors require symmetric corners")
    a = complex(alpha_tilde)
    ratio = _sq(p.t_r) / _sq(p.t_l)
    n = np.arange(1, N + 1)
    psi = ratio**n * (np.sin(n * a) + dl * ratio**N * np.sin((N - n) * a))
    norm = np.linalg.norm(psi)
    if norm < 1e-12 * N:
        raise ValueError(f"vanishing eigenvector at alpha_tilde = {a}")
    return psi


def hn_balanced(p: HNParams, tol: float = 1e-12):
    """True when |t_l| = |t_r|; also returns theta = arg(t_r / t_l)."""
    flag = abs(abs(p.t_l) - abs(p.t_r)) <= tol * (abs(p.t_l) + abs(p.t_r))
    return bool(flag), float(np.angle(p.t_r / p.t_l))


# ---------------------------------------------------------------------------
# alternating two-band chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SSHParams:
    """Alternating chain with hoppings (tl1, tr1) on odd bonds, (tl2, tr2) on
    even bonds, and alternating on-site potentials v1, v2."""

    tl1: complex
    tr1: complex
    tl2: complex
    tr2: complex
    v1: complex = 0.0
    v2: complex = 0.0

    def __post_init__(self):
        for name in ("tl1", "tr1", "tl2", "tr2", "v1", "v2"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def v(self) -> complex:
        return (self.v1 - self.v2) / 2.0

    @property
    def hoppings_nonzero(self) -> bool:
        return 0 not in (self.tl1, self.tr1, self.tl2, self.tr2)

    @property
    def shift(self) -> complex:
        return 1j * np.log((_sq(self.tr1) * _sq(self.tr2)) / (_sq(self.tl1) * _sq(self.tl2)))


def ssh_matrix(p: SSHParams, N: int, delta) -> np.ndarray:
    """Chain matrix; even N wraps corners delta * tr2 / delta * tl2, odd N
    uses the square-root corner elements delta_r sqrt(tr1 tr2) and
    delta_l sqrt(tl1 tl2)."""
    dl, dr = _pair(delta)
    H = np.zeros((N, N), dtype=complex)
    for m in range(N):
        H[m, m] = p.v1 if m % 2 == 0 else p.v2
    for m in range(N - 1):
        H[m, m + 1] = p.tl1 if m % 2 == 0 else p.tl2
        H[m + 1, m] = p.tr1 if m % 2 == 0 else p.tr2
    if N % 2 == 0:
        H[0, N - 1] += dr * p.tr2
        H[N - 1, 0] += dl * p.tl2
    else:
        H[0, N - 1] += dr * _sq(p.tr1) * _sq(p.tr2)
        H[N - 1, 0] += dl * _sq(p.tl1) * _sq(p.tl2)
    return H


def _ssh_lambda2(p: SSHParams, alphas: np.ndarray) -> np.ndarray:
    C1 = _sq(p.tl1) * _sq(p.tr1) * _sq(p.tl2) * _sq(p.tr2)
    return p.v * p.v + p.tl1 * p.tr1 + p.tl2 * p.tr2 + 2.0 * np.cos(alphas) * C1


def ssh_spectrum(p: SSHParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """Full eigenvalue multiset of the alternating chain.

    Eigenvalues lambda = (v1+v2)/2 +- sqrt(v^2 + tl1 tr1 + tl2 tr2 +
    2 cos(a) sqrt(tl1) sqrt(tr1) sqrt(tl2) sqrt(tr2)).  The open odd chain
    has an exact wavenumber set and an "analytic" spectrum.  Otherwise the
    eigenvalues come from a dense eigensolve (provenance "oracle") and the
    wavenumbers are recovered from them by `_ssh_wavenumbers` (generator
    "ssh-eig"): one per +- pair for even N, one per eigenvalue for odd N.
    Odd chains take no on-site potentials; a vanishing hopping leaves the
    dense spectrum without wavenumbers.
    """
    if not p.hoppings_nonzero:
        return _zero_hopping_fallback(ssh_matrix(p, N, delta))
    if N % 2 and (p.v1 != 0 or p.v2 != 0):
        raise ValueError("odd-length chains are solved without on-site potentials")
    dl, dr = _pair(delta)
    meta = {"model": "ssh", "N": N, "delta": (dl, dr)}
    if N % 2 and dl == 0 and dr == 0:
        return _ssh_odd_open(p, N, meta)
    spec = dense_spectrum(ssh_matrix(p, N, delta), parameters=meta)
    h = {"hd1": p.v1, "hd2": p.v2, "hl1": p.tl1, "hl2": p.tl2, "hr1": p.tr1, "hr2": p.tr2}
    cos_alpha, shift = _ssh_wavenumbers({k: np.array([v]) for k, v in h.items()},
                                        spec.eigenvalues[None, :], pairs=N % 2 == 0)
    return spec, _alpha_set_from_cos(cos_alpha[0], shift[0], "ssh-eig")


def ssh_closed_form(p: SSHParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """The paper's route for the alternating chain, provenance "analytic".

    Even N: one +- pair of eigenvalues per wavenumber of the boundary
    equation (alphasolver).  Odd N: one eigenvalue per wavenumber, sign
    resolved by the sign factor of the odd-chain equation (oracle fallback
    if it is numerically unstable); zero modes arise as ordinary equation
    roots.  Reliable at small N only; see `ssh_spectrum`.
    """
    if not p.hoppings_nonzero:
        return _zero_hopping_fallback(ssh_matrix(p, N, delta))
    dl, dr = _pair(delta)
    shift = p.shift
    params = {"tl1": p.tl1, "tr1": p.tr1, "tl2": p.tl2, "tr2": p.tr2}
    meta = {"model": "ssh", "N": N, "delta": (dl, dr)}
    if N % 2 == 0:
        poly = polynomialize("ssh-even", params, N, (dl, dr))
        aset = alpha_from_roots(roots(poly), "pairs", expected=N // 2)
        mid = (p.v1 + p.v2) / 2.0
        sq_lam2 = np.sqrt(_ssh_lambda2(p, aset.expand()))
        lam = np.concatenate([mid + sq_lam2, mid - sq_lam2])
        return Spectrum(lam, "analytic", meta), AlphaSet(aset.values, aset.multiplicity, shift, "ssh-even")
    if p.v1 != 0 or p.v2 != 0:
        raise ValueError("odd-length chains are solved without on-site potentials")
    if dl == 0 and dr == 0:
        return _ssh_odd_open(p, N, meta)
    poly = polynomialize("ssh-odd", params, N, (dl, dr))
    ys = roots(poly)
    aset = alpha_from_roots(ys, "pairs", expected=N)
    alphas = aset.expand()
    lam2 = _ssh_lambda2(p, alphas)
    lam_plus = np.sqrt(lam2)
    signs, flagged = _odd_signs(p, alphas, lam_plus, N, dl, dr)
    if flagged:
        spec = dense_spectrum(ssh_matrix(p, N, delta))
        lam = _match_signs(lam_plus, spec.eigenvalues)
        meta["sign"] = "oracle-fallback"
        return Spectrum(lam, "analytic", meta), AlphaSet(aset.values, aset.multiplicity, shift, "ssh-odd")
    return (
        Spectrum(signs * lam_plus, "analytic", meta),
        AlphaSet(aset.values, aset.multiplicity, shift, "ssh-odd"),
    )


def _ssh_odd_open(p: SSHParams, N: int, meta: dict) -> tuple[Spectrum, AlphaSet]:
    """Open odd chain: exact zero mode plus symmetric +- pairs."""
    k = np.arange(1, N + 1)
    k = k[k != (N + 1) // 2]
    alph = 2.0 * np.pi * k / (N + 1)
    uniq = alph[: (N - 1) // 2]
    lam2 = _ssh_lambda2(p, uniq)
    s = np.sqrt(lam2)
    lam = np.concatenate([[0.0], s, -s])
    vals = np.concatenate([uniq + 0j, [_zero_mode_alpha(p)]])
    return (
        Spectrum(lam, "analytic", meta),
        AlphaSet(vals, np.ones(len(vals), dtype=int), p.shift, "ssh-odd-open"),
    )


def _zero_mode_alpha(p: SSHParams) -> complex:
    # cos(a) at lambda^2 = 0
    C1 = _sq(p.tl1) * _sq(p.tr1) * _sq(p.tl2) * _sq(p.tr2)
    c = -(p.v * p.v + p.tl1 * p.tr1 + p.tl2 * p.tr2) / (2.0 * C1)
    return complex(np.arccos(c))


def _odd_signs(p: SSHParams, alphas, lam_plus, N, dl, dr):
    """Sign factor of the odd-chain equation; flags numerical instability."""
    C1 = _sq(p.tl1) * _sq(p.tr1) * _sq(p.tl2) * _sq(p.tr2)
    denom = dl * (_sq(p.tl1) * _sq(p.tl2)) ** N + dr * (_sq(p.tr1) * _sq(p.tr2)) ** N
    scale = (abs(p.tl1) * abs(p.tl2)) ** (N / 2) + (abs(p.tr1) * abs(p.tr2)) ** (N / 2)
    if abs(denom) < 1e-12 * max(scale, 1e-300) or not np.isfinite(denom):
        return np.ones(len(alphas)), True
    signs = np.empty(len(alphas))
    for i, (a, lp) in enumerate(zip(alphas, lam_plus)):
        bracket = dirichlet_ratio((N + 1) // 2, a) - dl * dr * dirichlet_ratio((N - 1) // 2, a)
        sigma = lp * bracket * C1 ** ((N - 1) // 2) / denom
        if not np.isfinite(sigma):
            return np.ones(len(alphas)), True
        if abs(sigma - 1.0) < 0.5:
            signs[i] = 1.0
        elif abs(sigma + 1.0) < 0.5:
            signs[i] = -1.0
        else:
            return np.ones(len(alphas)), True
    return signs, False


def _match_signs(lam_plus, oracle_vals):
    """Pick the +- sign per candidate that best matches the oracle multiset."""
    out = np.empty(len(lam_plus), dtype=complex)
    pool = list(oracle_vals)
    for i, lp in enumerate(lam_plus):
        cand = min(pool, key=lambda z: min(abs(z - lp), abs(z + lp)))
        out[i] = lp if abs(cand - lp) <= abs(cand + lp) else -lp
        pool.remove(cand)
    return out


def ssh_zero_mode_predicate(p: SSHParams):
    """Zero-mode criterion |tl2 tr2 / (tl1 tr1)| > 1 for open even chains.

    Returns (flag, margin) with margin = |tl2 tr2 / (tl1 tr1)| - 1; flag is
    None at the marginal point.  The mode energy shrinks like the inverse
    square root of this ratio per unit cell, so at practical sizes the
    margin must be well away from zero for the mode to be numerically tiny.
    """
    r1 = abs(p.tl2 * p.tr2 / (p.tl1 * p.tr1))
    margin = r1 - 1.0
    if abs(margin) < 1e-12:
        return None, 0.0
    return bool(margin > 0), float(margin)


def ssh_balanced(p: SSHParams, tol: float = 1e-12):
    """True when |tr1 tr2| = |tl1 tl2|; also returns the phase of the ratio."""
    a = abs(p.tr1 * p.tr2)
    b = abs(p.tl1 * p.tl2)
    flag = abs(a - b) <= tol * (a + b)
    theta = float(np.angle((_sq(p.tl1) * _sq(p.tl2)) / (_sq(p.tr1) * _sq(p.tr2))))
    return bool(flag), theta


# ---------------------------------------------------------------------------
# long-range chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LongRangeParams:
    """Two-parameter long-range chains and the general four-hop family.

    variant 'unidirectional': hops +1 (t_l) and +2 (u_l) only;
    variant 'mixed': hops +2 (u_l) and -1 (t_r);
    variant 'general': all four of t_l, t_r, u_l, u_r (Bloch level only).
    """

    variant: str
    t_l: complex = 0.0
    t_r: complex = 0.0
    u_l: complex = 0.0
    u_r: complex = 0.0

    def __post_init__(self):
        if self.variant not in ("unidirectional", "mixed", "general"):
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("t_l", "t_r", "u_l", "u_r"):
            object.__setattr__(self, name, complex(getattr(self, name)))


def unidirectional_matrix(t_l, u_l, delta, N: int) -> np.ndarray:
    return build_chain_matrix(ChainStencil(N, {1: t_l, 2: u_l}, (0.0,), complex(delta)))


def unidirectional_spectrum(t_l, u_l, delta, N: int) -> Spectrum:
    """Closed form for the chain hopping only to the left.

    lambda_j = t_l |d|^(1/N) e^{i phi/N + 2 pi i j/N} + u_l |d|^(2/N)
    e^{2 i phi/N + 4 pi i j /N}; at delta = 0 the matrix is nilpotent and the
    spectrum is identically zero.
    """
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    d = complex(delta)
    meta = {"model": "unidirectional", "N": N, "delta": (d, d)}
    if d == 0:
        return Spectrum(np.zeros(N, dtype=complex), "analytic", meta)
    mod, phi = abs(d), np.angle(d)
    j = np.arange(N)
    w = np.exp(1j * (phi / N + 2 * np.pi * j / N))
    lam = complex(t_l) * mod ** (1.0 / N) * w + complex(u_l) * mod ** (2.0 / N) * w**2
    return Spectrum(lam, "analytic", meta)


def mixed_longrange_matrix(t_r, u_l, delta, N: int) -> np.ndarray:
    return build_chain_matrix(ChainStencil(N, {2: u_l, -1: t_r}, (0.0,), complex(delta)))


def mixed_longrange_spectrum(t_r, u_l, delta, N: int) -> tuple[Spectrum, AlphaSet]:
    """Spectrum of the chain with +2 and -1 hops, lambda = u_l y^2 + t_r / y.

    The eigenvalues come from a dense eigensolve (provenance "oracle").  Each
    has three roots y of u_l y^3 - lambda y + t_r = 0, found for all
    eigenvalues at once as the eigenvalues of their 3 x 3 companion
    matrices; the triple rule of the closed form (`canonical_triple`) picks
    one, and alpha_tilde = -i log(y) (generator "mixed-eig", no shift).
    A vanishing hopping leaves the dense spectrum without wavenumbers.
    """
    t_r, u_l = complex(t_r), complex(u_l)
    H = mixed_longrange_matrix(t_r, u_l, delta, N)
    if t_r == 0 or u_l == 0:
        return _zero_hopping_fallback(H)
    meta = {"model": "mixed-longrange", "N": N, "delta": complex(delta)}
    spec = dense_spectrum(H, parameters=meta)
    companion = np.zeros((N, 3, 3), dtype=complex)
    companion[:, 0, 1] = spec.eigenvalues / u_l
    companion[:, 0, 2] = -t_r / u_l
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    ys = canonical_triple(np.linalg.eigvals(companion))
    return spec, AlphaSet(-1j * np.log(ys), np.ones(N, dtype=int), 0.0, "mixed-eig")


def mixed_longrange_closed_form(t_r, u_l, delta, N: int) -> tuple[Spectrum, AlphaSet]:
    """The paper's route: the degree-3N boundary polynomial, provenance "analytic".

    The 3N roots group into triples sharing one eigenvalue
    lambda = u_l y^2 + t_r / y; the Spectrum parameters record the degree
    and the removed factor.  Reliable at small N only; see
    `mixed_longrange_spectrum`.  A vanishing t_r or u_l raises
    `NumericalError`: the polynomial does not exist there, but the
    eigensolver route does.
    """
    t_r, u_l = complex(t_r), complex(u_l)
    if t_r == 0 or u_l == 0:
        raise NumericalError("the mixed long-range closed form needs nonzero t_r and u_l")
    poly = polynomialize("mixed-longrange", {"t_r": t_r, "u_l": u_l}, N, complex(delta))
    ys = roots(poly)
    key = lambda y: u_l * y * y + t_r / y
    aset = alpha_from_roots(ys, "triples", value_key=key, expected=N)
    lam = np.array([key(np.exp(1j * a)) for a in aset.expand()])
    meta = {"model": "mixed-longrange", "N": N, "delta": complex(delta),
            "degree": poly.degree, "removed_factor": poly.removed_factors[0]}
    return Spectrum(lam, "analytic", meta), aset


def bloch_1d(params: LongRangeParams, k):
    """Scalar Bloch value t_l e^{ik} + t_r e^{-ik} + u_l e^{2ik} + u_r e^{-2ik}."""
    k = np.asarray(k, dtype=float)
    out = (
        params.t_l * np.exp(1j * k)
        + params.t_r * np.exp(-1j * k)
        + params.u_l * np.exp(2j * k)
        + params.u_r * np.exp(-2j * k)
    )
    return complex(out) if out.ndim == 0 else out


def triangle_chain_params(t_l, t_r) -> LongRangeParams:
    """Chain of triangles: u_l = t_r and u_r = t_l."""
    return LongRangeParams("general", t_l=t_l, t_r=t_r, u_l=t_r, u_r=t_l)


def nonwinding_family(case: int, t: float, u: float, phi: float, phi1: float, phi2: float) -> LongRangeParams:
    """The three parameter families whose Bloch curve never winds.

    case 1: hops paired by complex conjugate phases; the Bloch image is a
    straight segment along e^{i phi}.
    case 2: single amplitude t with phase-locked long hops; the image is the
    segment 4 t e^{i(phi1+phi2)/2} cos((k+phi)/2) cos((3k+phi+phi1-phi2)/2).
    case 3: phase-locked so the k in [pi, 2pi] half retraces the first half.
    All free inputs are real.
    """
    for name, val in (("t", t), ("u", u), ("phi", phi), ("phi1", phi1), ("phi2", phi2)):
        if abs(complex(val).imag) > 0:
            raise ValueError(f"{name} must be real")
    if case == 1:
        return LongRangeParams(
            "general",
            t_l=t * np.exp(1j * (phi + phi1 / 2)),
            t_r=t * np.exp(1j * (phi - phi1 / 2)),
            u_l=u * np.exp(1j * (phi + phi2 / 2)),
            u_r=u * np.exp(1j * (phi - phi2 / 2)),
        )
    if case == 2:
        return LongRangeParams(
            "general",
            t_l=t * np.exp(1j * phi1),
            u_l=t * np.exp(1j * (phi1 + phi)),
            t_r=t * np.exp(1j * phi2),
            u_r=t * np.exp(1j * (phi2 - phi)),
        )
    if case == 3:
        return LongRangeParams(
            "general",
            t_l=t * np.exp(1j * phi1),
            t_r=t * np.exp(1j * (phi1 + phi)),
            u_l=u * np.exp(1j * phi2),
            u_r=u * np.exp(1j * (phi2 + 2 * phi)),
        )
    raise ValueError(f"case must be 1, 2 or 3, got {case}")


def impurity_states(p: HNParams, N: int, delta, mass_threshold: float = 0.5):
    """Corner-bond-localized states of the chain with an enhanced corner link.

    Returns (count, eigenvalues, masses): states whose biorthogonal density
    places more than `mass_threshold` of its weight within two sites of the
    corner bond.  For delta well above 1 the strong bond binds a pair of
    impurity states split symmetrically about t_d.
    """
    from .core import dense_spectrum, expectation_profiles

    H = hn_matrix(p, N, delta)
    spec, vr, vl = dense_spectrum(H, want_vectors=True)
    found = []
    masses = []
    for k in range(N):
        prof = expectation_profiles(vr[:, k], vl[:, k])
        if prof.lr is None:
            continue
        m = np.abs(prof.lr)
        m = m / m.sum()
        mass = float(m[:2].sum() + m[-2:].sum())
        masses.append(mass)
        if mass > mass_threshold:
            found.append(spec.eigenvalues[k])
    return len(found), np.array(found), np.array(masses)
