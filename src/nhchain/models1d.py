"""Spectra, shifted wavenumbers and eigenvectors of the solvable 1D chains.

Covered models: nearest-neighbour asymmetric chain (with optional end
on-site energies and asymmetric corners), the two-band alternating chain of
even or odd length (with alternating on-site potentials and a zero-mode
criterion), the unidirectional and mixed long-range chains, and the scalar
Bloch functions with their three non-winding parameter families.

The per-size lines `hn_line`, `ssh_line` and `mixed_longrange_line` take
the eigenvalues at each delta from one dense eigensolve of the chain matrix
(provenance "oracle"): a line builds the matrix without its corners once
and adds the corners per delta, and the command line uses the lines alone.
`hn_spectrum`, `ssh_spectrum` and `mixed_longrange_spectrum` call them at
one delta and also recover the shifted wavenumbers from the eigenvalues:
cos(alpha_tilde) = (lambda - t_d) / (2 sqrt(t_l) sqrt(t_r)) for the one-band
chain, the lambda^2 relation for the two-band chain (one alpha_tilde per
+- pair at even length), and the root of largest modulus of
u_l y^3 - lambda y + t_r = 0, y = e^{i alpha_tilde}, for the mixed
long-range chain.  The exact wavenumber sets stay analytic: the plain
one-band chain at delta = 0 and +-1 and the open odd two-band chain.  The
stacked lattices of models2d recover their Bloch blocks' wavenumbers with
the same inversion helpers.

The paper's boundary-equation route (alphasolver) is kept behind
`hn_closed_form`, `ssh_closed_form` and `mixed_longrange_closed_form`.  The
command line checks it against the dense oracle at a reduced size (N <= 12);
at large N it loses digits or raises `NumericalError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

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
from .core import (
    ChainStencil,
    CornerOperator,
    NumericalError,
    Spectrum,
    build_chain_matrix,
    chain_operator,
    cmul,
    dense_spectrum,
)
from .core import as_corner_pair as _pair
from .core import principal_sqrt as _sq

__all__ = [
    "HNParams",
    "SSHParams",
    "LongRangeParams",
    "hn_stencil",
    "hn_matrix",
    "hn_line",
    "hn_spectrum",
    "hn_closed_form",
    "hn_eigenvector",
    "hn_balanced",
    "ssh_operator",
    "ssh_matrix",
    "ssh_line",
    "ssh_spectrum",
    "ssh_closed_form",
    "ssh_zero_mode_predicate",
    "ssh_balanced",
    "unidirectional_matrix",
    "unidirectional_spectrum",
    "mixed_longrange_matrix",
    "mixed_longrange_line",
    "mixed_longrange_spectrum",
    "mixed_longrange_closed_form",
    "bloch_1d",
    "nonwinding_family",
]


def _zero_hopping_spectrum(matrix) -> Spectrum:
    """Dense spectrum of a chain with a vanishing hopping."""
    return dense_spectrum(matrix, parameters={"fallback": "zero hopping"})


def _no_wavenumbers() -> AlphaSet:
    return AlphaSet(np.empty(0), np.empty(0, dtype=int), 0.0, "oracle-fallback")


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
    dist = np.abs(c[:, None, :] - c[:, :, None])  # dist[r, i, j] = |c_j - c_i|
    left = np.ones(c.shape, dtype=bool)
    out = np.empty((len(c), c.shape[1] // 2), dtype=complex)
    for k in range(out.shape[1]):
        i = np.argmax(left, axis=1)
        out[:, k] = c[rows, i]
        left[rows, i] = False
        left[rows, np.argmin(np.where(left, dist[rows, i], np.inf), axis=1)] = False
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
    if not (p.is_plain and dl == dr and dl in (0, 1.0 + 0j, -1.0 + 0j)):
        return None
    shift = p.shift
    if dl == 0:
        kp = np.arange(1, N + 1)
        vals = np.pi * kp / (N + 1) + 0j
        return AlphaSet(vals, np.ones(N, dtype=int), shift, "hn-delta0")
    k = np.arange(N)
    alph = (2 * np.pi * k + (0.0 if dl == 1 else np.pi)) / N
    vals, mult = dedup_sorted(alph + shift)
    return AlphaSet(vals, mult, shift, "hn-fourier")


def hn_closed_form(p: HNParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """The paper's route: wavenumbers from the boundary equation (alphasolver),
    eigenvalues lambda = t_d + 2 sqrt(t_l) sqrt(t_r) cos(alpha_tilde),
    provenance "analytic".  delta = 0 and +-1 (plain chain, symmetric
    corners) take the exact wavenumber sets, every other boundary the cleared
    polynomial.  Reliable at small N only, and a root pair off inversion
    raises `NumericalError`; see `hn_spectrum`.  So does a vanishing t_l or
    t_r: the equation does not exist there, but the eigensolver route does."""
    if p.t_l == 0 or p.t_r == 0:
        raise NumericalError("the hn closed form needs nonzero t_l and t_r")
    aset = _hn_exact_alpha_set(p, N, delta)
    if aset is None:
        poly = polynomialize(
            "hn", {"t_l": p.t_l, "t_r": p.t_r, "eps1": p.eps1, "epsN": p.epsN}, N, _pair(delta)
        )
        aset = alpha_from_roots(roots(poly), "pairs", expected=N)
        aset = AlphaSet(aset.values, aset.multiplicity, p.shift, "hn-equation")
    lam = _hn_lambda(p, aset.expand())
    params = {"model": "hn", "N": N, "delta": _pair(delta)}
    return Spectrum(lam, "analytic", params), aset


def hn_line(p: HNParams, N: int) -> Callable[[object], Spectrum]:
    """delta -> eigenvalues lambda = t_d + 2 sqrt(t_l) sqrt(t_r) cos(alpha_tilde),
    the chain matrix built once.

    Returns a function of a scalar delta or a (delta_l, delta_r) pair; each
    call takes its matrix from one `CornerOperator`, so a caller that
    solves the chain at many deformations (a sensitivity fit) pays for the
    assembly once, and gets the same spectra bit for bit.  The plain chain
    with symmetric corners at delta = 0 and +-1 has exact wavenumber sets
    and an "analytic" spectrum.  Otherwise the eigenvalues come from a dense
    eigensolve (provenance "oracle"); a vanishing hopping gets one too, with
    parameters {"fallback": "zero hopping"}.
    """
    @cache
    def op() -> CornerOperator:
        # built on first use: the exact sets need no matrix, and N = 2 has
        # one at delta = 0 but no banded matrix
        return chain_operator(hn_stencil(p, N, 0.0))

    if p.t_l == 0 or p.t_r == 0:
        return lambda delta: _zero_hopping_spectrum(op().at(delta))

    def line(delta) -> Spectrum:
        params = {"model": "hn", "N": N, "delta": _pair(delta)}
        exact = _hn_exact_alpha_set(p, N, delta)
        if exact is not None:
            return Spectrum(_hn_lambda(p, exact.expand()), "analytic", params)
        return dense_spectrum(op().at(delta), parameters=params)

    return line


def hn_spectrum(p: HNParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """`hn_line(p, N)` at delta and the shifted wavenumbers.

    An "analytic" spectrum keeps its exact wavenumber set; each eigenvalue
    of a dense one gets the alpha_tilde that `_hn_wavenumbers` recovers from
    it (generator "hn-eig").  A vanishing hopping leaves no wavenumbers.
    """
    spec = hn_line(p, N)(delta)
    if "fallback" in spec.parameters:
        return spec, _no_wavenumbers()
    if spec.provenance == "analytic":
        return spec, _hn_exact_alpha_set(p, N, delta)
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


def hn_balanced(p: HNParams):
    """True when |t_l| = |t_r| to a relative 1e-12; also returns theta = arg(t_r / t_l)."""
    flag = abs(abs(p.t_l) - abs(p.t_r)) <= 1e-12 * (abs(p.t_l) + abs(p.t_r))
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


def ssh_operator(p: SSHParams, N: int) -> CornerOperator:
    """The chain matrix as a function of delta; even N wraps corners
    delta * tr2 / delta * tl2, odd N uses the square-root corner elements
    delta_r sqrt(tr1) sqrt(tr2) and delta_l sqrt(tl1) sqrt(tl2), multiplied
    in that order."""
    H = np.zeros((N, N), dtype=complex)
    sites = np.arange(N)
    H[sites, sites] = np.where(sites % 2 == 0, p.v1, p.v2)
    bonds = sites[:-1]
    H[bonds, bonds + 1] = np.where(bonds % 2 == 0, p.tl1, p.tl2)
    H[bonds + 1, bonds] = np.where(bonds % 2 == 0, p.tr1, p.tr2)
    if N % 2 == 0:
        upper, lower = (p.tr2,), (p.tl2,)
    else:
        upper, lower = (_sq(p.tr1), _sq(p.tr2)), (_sq(p.tl1), _sq(p.tl2))
    return CornerOperator(H, ((0, N - 1, upper),), ((N - 1, 0, lower),))


def ssh_matrix(p: SSHParams, N: int, delta) -> np.ndarray:
    """`ssh_operator(p, N)` at delta."""
    return ssh_operator(p, N).at(delta)


def _ssh_lambda2(p: SSHParams, alphas: np.ndarray) -> np.ndarray:
    C1 = _sq(p.tl1) * _sq(p.tr1) * _sq(p.tl2) * _sq(p.tr2)
    return p.v * p.v + p.tl1 * p.tr1 + p.tl2 * p.tr2 + 2.0 * np.cos(alphas) * C1


def ssh_line(p: SSHParams, N: int) -> Callable[[object], Spectrum]:
    """delta -> full eigenvalue multiset of the alternating chain, the chain
    matrix built once (see `hn_line`).

    Eigenvalues lambda = (v1+v2)/2 +- sqrt(v^2 + tl1 tr1 + tl2 tr2 +
    2 cos(a) sqrt(tl1) sqrt(tr1) sqrt(tl2) sqrt(tr2)).  The open odd chain
    has an exact wavenumber set and an "analytic" spectrum.  Otherwise the
    eigenvalues come from a dense eigensolve (provenance "oracle"); a
    vanishing hopping gets one too, with parameters {"fallback": "zero
    hopping"}.  Odd chains take no on-site potentials: one with them raises
    here.
    """
    op = ssh_operator(p, N)
    if not p.hoppings_nonzero:
        return lambda delta: _zero_hopping_spectrum(op.at(delta))
    if N % 2 and (p.v1 != 0 or p.v2 != 0):
        raise ValueError("odd-length chains are solved without on-site potentials")

    def line(delta) -> Spectrum:
        dl, dr = _pair(delta)
        meta = {"model": "ssh", "N": N, "delta": (dl, dr)}
        if N % 2 and dl == 0 and dr == 0:
            return _ssh_odd_open(p, N, meta)[0]
        return dense_spectrum(op.at(delta), parameters=meta)

    return line


def ssh_spectrum(p: SSHParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """`ssh_line(p, N)` at delta and the shifted wavenumbers.

    The open odd chain keeps its exact wavenumber set; from a dense
    spectrum they are recovered by `_ssh_wavenumbers` (generator "ssh-eig"):
    one per +- pair for even N, one per eigenvalue for odd N.  A vanishing
    hopping leaves no wavenumbers.
    """
    spec = ssh_line(p, N)(delta)
    if "fallback" in spec.parameters:
        return spec, _no_wavenumbers()
    if spec.provenance == "analytic":
        return spec, _ssh_odd_open(p, N, spec.parameters)[1]
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
    roots.  Reliable at small N only; see `ssh_spectrum`.  A root pair off
    inversion or a vanishing hopping raises `NumericalError`, as in
    `hn_closed_form`.
    """
    if not p.hoppings_nonzero:
        raise NumericalError("the ssh closed form needs all four hoppings nonzero")
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


def ssh_balanced(p: SSHParams):
    """True when |tr1 tr2| = |tl1 tl2| to a relative 1e-12; also returns the
    phase of the ratio."""
    a = abs(p.tr1 * p.tr2)
    b = abs(p.tl1 * p.tl2)
    flag = abs(a - b) <= 1e-12 * (a + b)
    theta = float(np.angle((_sq(p.tl1) * _sq(p.tl2)) / (_sq(p.tr1) * _sq(p.tr2))))
    return bool(flag), theta


# ---------------------------------------------------------------------------
# long-range chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LongRangeParams:
    """The four-hop chain at the Bloch level: t_l, t_r, u_l, u_r on hops
    +1, -1, +2, -2 (the unidirectional chain has t_l and u_l only, the
    mixed one u_l and t_r)."""

    t_l: complex = 0.0
    t_r: complex = 0.0
    u_l: complex = 0.0
    u_r: complex = 0.0

    def __post_init__(self):
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


def mixed_longrange_line(t_r, u_l, N: int) -> Callable[[object], Spectrum]:
    """delta -> spectrum of the chain with +2 and -1 hops, lambda = u_l y^2 +
    t_r / y, the chain matrix built once (see `hn_line`); delta is a scalar.
    The eigenvalues come from a dense eigensolve (provenance "oracle"); with
    a vanishing hopping its parameters are {"fallback": "zero hopping"}."""
    t_r, u_l = complex(t_r), complex(u_l)
    op = chain_operator(ChainStencil(N, {2: u_l, -1: t_r}, (0.0,)))
    if t_r == 0 or u_l == 0:
        return lambda delta: _zero_hopping_spectrum(op.at(complex(delta)))

    def line(delta) -> Spectrum:
        d = complex(delta)
        return dense_spectrum(op.at(d), parameters={"model": "mixed-longrange", "N": N, "delta": d})

    return line


def mixed_longrange_spectrum(t_r, u_l, delta, N: int) -> tuple[Spectrum, AlphaSet]:
    """`mixed_longrange_line(t_r, u_l, N)` at delta and the shifted wavenumbers.

    Each eigenvalue has three roots y of u_l y^3 - lambda y + t_r = 0, found
    for all eigenvalues at once as the eigenvalues of their 3 x 3 companion
    matrices; the triple rule of the closed form (`canonical_triple`) picks
    one, and alpha_tilde = -i log(y) (generator "mixed-eig", no shift).
    A vanishing hopping leaves no wavenumbers.
    """
    spec = mixed_longrange_line(t_r, u_l, N)(delta)
    if "fallback" in spec.parameters:
        return spec, _no_wavenumbers()
    t_r, u_l = complex(t_r), complex(u_l)
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
        cmul(params.t_l, np.exp(1j * k))
        + cmul(params.t_r, np.exp(-1j * k))
        + cmul(params.u_l, np.exp(2j * k))
        + cmul(params.u_r, np.exp(-2j * k))
    )
    return complex(out) if out.ndim == 0 else out


def triangle_chain_params(t_l, t_r) -> LongRangeParams:
    """Chain of triangles: u_l = t_r and u_r = t_l."""
    return LongRangeParams(t_l=t_l, t_r=t_r, u_l=t_r, u_r=t_l)


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
            t_l=t * np.exp(1j * (phi + phi1 / 2)),
            t_r=t * np.exp(1j * (phi - phi1 / 2)),
            u_l=u * np.exp(1j * (phi + phi2 / 2)),
            u_r=u * np.exp(1j * (phi - phi2 / 2)),
        )
    if case == 2:
        return LongRangeParams(
            t_l=t * np.exp(1j * phi1),
            u_l=t * np.exp(1j * (phi1 + phi)),
            t_r=t * np.exp(1j * phi2),
            u_r=t * np.exp(1j * (phi2 - phi)),
        )
    if case == 3:
        return LongRangeParams(
            t_l=t * np.exp(1j * phi1),
            t_r=t * np.exp(1j * (phi1 + phi)),
            u_l=u * np.exp(1j * phi2),
            u_r=u * np.exp(1j * (phi2 + 2 * phi)),
        )
    raise ValueError(f"case must be 1, 2 or 3, got {case}")


def impurity_states(p: HNParams, N: int, delta):
    """Corner-bond-localized states of the chain with an enhanced corner link.

    Returns (count, eigenvalues, masses): states whose biorthogonal density
    places more than half of its weight within two sites of the corner
    bond.  For delta well above 1 the strong bond binds a pair of
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
        if mass > 0.5:
            found.append(spec.eigenvalues[k])
    return len(found), np.array(found), np.array(masses)
