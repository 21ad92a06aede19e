"""Spectra, shifted wavenumbers and eigenvectors of the solvable 1D chains.

Covered models: nearest-neighbour asymmetric chain (with optional end
on-site energies and asymmetric corners), the two-band alternating chain of
even or odd length (with alternating on-site potentials and a zero-mode
criterion), the unidirectional and mixed long-range chains, and the scalar
Bloch functions with their three non-winding parameter families.

The per-size lines `hn_line`, `ssh_line` and `mixed_longrange_line` solve
every delta through one body, `_chain_line`: the chain matrix without its
corners is built once; an exact wavenumber set (the plain one-band chain at
delta = 0 and +-1, the open odd two-band chain) gives an "analytic"
spectrum, and every other delta an eigensolve, labelled {"fallback": "zero
hopping"} when a hopping vanishes.  Before the eigensolve, a plain one-band
chain at N >= 40 whose boundary term |C| = |delta_r r^N + delta_l r^(-N)|
(r = sqrt(t_r) / sqrt(t_l)) is at least 1e3 solves its boundary equation,
six terms in u = e^(-i alpha_tilde), by vectorised Newton
(`_hn_boundary_roots`, provenance "boundary-equation").  It takes the roots
only under a certificate: N disjoint inclusion discs, one per eigenvalue.
The eigensolve uses the chain's sublattice grading where it has one (the
sublattice symmetry of the two-band chain; Kawabata, Shiozaki, Ueda and
Sato, PRX 9, 041015 (2019)): the plain one-band and the two-band chain of
even N have two sublattices, the mixed long-range chain of N divisible by 3
has three, and every hop, corners included, goes from one to the next.
One N/m-site grade block of (H - c)^m then holds the whole spectrum
(`_graded_eigenvalues`, provenance "sublattice-oracle"), taken where its
m-th roots do not amplify the block's error more than 64-fold; everywhere
else the whole matrix gets one dense eigensolve (provenance "oracle").  The
command line uses the lines alone.  `hn_spectrum`, `ssh_spectrum` and
`mixed_longrange_spectrum` call them at one delta and also recover the
shifted wavenumbers from the eigenvalues: cos(alpha_tilde) = (lambda - t_d)
/ (2 sqrt(t_l) sqrt(t_r)) for the one-band chain, the lambda^2 relation for
the two-band chain (one alpha_tilde per +- pair at even length), and the
root of largest modulus of u_l y^3 - lambda y + t_r = 0, y = e^{i alpha_tilde},
for the mixed long-range chain.  The stacked lattices of models2d recover
their Bloch blocks' wavenumbers with the same inversion helpers, and solve
the Bloch blocks of an even N1, which are two-sublattice chains too, with
the same `_graded_eigenvalues`.

The paper's polynomial route (alphasolver: the boundary equations cleared
into polynomials in y and rooted through companion matrices) is kept behind
`hn_closed_form`, `ssh_closed_form` and `mixed_longrange_closed_form`.  The
command line checks it against the dense oracle at a reduced size (N <= 12);
at large N it loses digits or raises `NumericalError`.  It answers from its
own equation or not at all: a root pair off inversion, root triples that do
not group, an odd-chain sign factor off +-1, or odd-chain signs whose odd
power sums do not vanish raises `NumericalError`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
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
    expectation_profiles,
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


def _chain_line(op: Callable[[], CornerOperator], hoppings_nonzero: bool,
                exact: Callable[[object], Optional[Spectrum]],
                grading: Optional[tuple]) -> Callable[[object], Spectrum]:
    """The per-delta body of every chain line: delta -> Spectrum.

    `op` builds the chain's `CornerOperator`; it is called on first use and
    kept, so the exact sets need no matrix.  A chain with a vanishing
    hopping gets one dense eigensolve per delta, with parameters
    {"fallback": "zero hopping"}.  Otherwise each delta takes `exact(delta)`
    where that gives a spectrum; then, for a chain that declares a grading
    (m, c, v) (None: no grading), the eigenvalues of one grade block of
    (H - c)^m where `_graded_eigenvalues` accepts them (provenance
    "sublattice-oracle"); and one dense eigensolve of the operator at delta
    (provenance "oracle") everywhere else.
    """
    op = cache(op)
    if not hoppings_nonzero:
        return lambda delta: replace(dense_spectrum(op().at(delta)), parameters={"fallback": "zero hopping"})

    def line(delta) -> Spectrum:
        spec = exact(delta)
        if spec is not None:
            return spec
        H = op().at(delta)
        if grading is not None:
            lam, ok = _graded_eigenvalues(H, *grading)
            if ok:
                return Spectrum(lam, "sublattice-oracle")
        return dense_spectrum(H)

    return line


# Largest amplification (||H - c||_inf / |lambda - c|)^(m - 1) of the m-th
# root that `_graded_eigenvalues` accepts.  A block eigenvalue mu carries an
# error of about eps ||H - c||^m, and lambda - c = mu^(1/m) turns it into eps
# ||H - c|| times this factor.
_GRADED_MAX_GAIN = 64.0
# Largest ||H - c||_inf that `_graded_eigenvalues` multiplies out: its block
# entries then stay below 1e300 for m <= 3.
_GRADED_MAX_NORM = 1e100
# the m-th roots of unity, as a column
_ROOTS_OF_UNITY = {2: np.array([[1.0], [-1.0]]),
                   3: np.array([[1.0], [complex(-0.5, 3**0.5 / 2)], [complex(-0.5, -(3**0.5 / 2))]])}


def _graded_eigenvalues(H: np.ndarray, m: int, c, v) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, accepted) of a graded matrix H, or of a batch of them
    H[b] along a leading axis, each from one grade block of (H[b] - c_b)^m;
    row b is meaningful where accepted[b].  A chain passes its one matrix,
    and the Bloch blocks of an even-width stack (models2d) come as a batch.

    Site n has grade n mod m, and m divides N.  The grading (m, c, v) states
    that H - c is v on grade 0, -v on grade 1 (m = 2 only) and 0 on every
    other diagonal entry, and that every off-diagonal entry, corners
    included, carries grade g to g + 1 (mod m): two sublattices for the
    nearest-neighbour and two-band chains and the Bloch blocks of an
    even-width stack, three for the +2/-1 mixed chain.  c and v are scalars
    or arrays over the batch.  Then (H - c)^m is block diagonal over grades,
    and its grade-0 block is P = S_(m-1) ... S_1 S_0, S_g the slice of H
    from grade g to grade g + 1, plus v^2 when m = 2 ((H - c)^2 = v^2 +
    (H - c - v diag(1, -1, ...))^2).  As diag(w^g) (H - c - v ...)
    diag(w^-g) = w (H - c - v ...) with w^m = 1, the N eigenvalues are c +
    mu^(1/m) w^j, j < m, for the N / m eigenvalues mu of P.  A single
    matrix solves its block through `dense_spectrum`, so a real block is
    solved in real arithmetic; a batch takes one batched eigvals.  A real
    mu takes its real cube root, so real eigenvalues of a real chain stay
    real, and m = 2 gives each pair as c +- mu^(1/2).
    A matrix is accepted only if (||H - c||_inf / min |lambda - c|)^(m - 1)
    is at most `_GRADED_MAX_GAIN`.  Every entry of P is at most ||H -
    c||_inf^m, so a batch whose norm reaches `_GRADED_MAX_NORM` (or is not
    finite) is declined whole before any product, and P never overflows.
    """
    size = np.abs(H)
    norm = (size.sum(axis=-1) - size.diagonal(0, -2, -1)).max(axis=-1) + abs(v)
    if not norm.max() < _GRADED_MAX_NORM:
        return np.zeros(H.shape[:-1], dtype=complex), np.zeros(H.shape[:-2], dtype=bool)
    P = H[..., ::m, m - 1::m]
    for g in range(m - 1, 0, -1):
        P = P @ H[..., g::m, g - 1::m]
    if np.count_nonzero(v):
        diag = np.arange(P.shape[-1])
        P[..., diag, diag] += np.asarray(v * v)[..., None]
    mu = dense_spectrum(P).eigenvalues if P.ndim == 2 else np.linalg.eigvals(P).astype(complex)
    if m == 2:
        r = np.sqrt(mu)
    else:
        r = mu ** (1.0 / 3.0)
        real = mu.imag == 0
        r[real] = np.cbrt(mu.real[real])
    ok = norm <= _GRADED_MAX_GAIN ** (1 / (m - 1)) * np.abs(r).min(axis=-1)
    lam = np.asarray(c)[..., None, None] + _ROOTS_OF_UNITY[m] * r[..., None, :]
    return lam.reshape(H.shape[:-1]), ok


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
    return Spectrum(_hn_lambda(p, aset.expand()), "analytic"), aset


# Gates of `_hn_boundary_roots`, measured with one BLAS thread on a 2-core
# machine (min of 300 calls, t_r / t_l in {1.5, 2, 4}, delta 0.5).  Per delta
# the route takes 0.15-0.18 ms at N 30, where the graded block solve of the
# even chain (`_graded_eigenvalues`) takes 0.07-0.08 ms and the dense
# eigensolve 0.13-0.15 ms; at N 40 0.16-0.20 against 0.10-0.11 and 0.25-0.26
# ms, at N 60 0.19-0.20 against 0.18-0.20 and 0.61-0.63 ms, at N 120
# 0.21-0.27 against 0.67-0.71 and 7.0-7.8 ms.  The route keeps N 40-60, where
# the graded solve is faster or as fast, for accuracy: near the open limit
# both eigensolves lose digits to the imaginary gauge (hn (1, 4), N 40, delta
# 1e-9: graded 1.3e-9, dense 3.8e-9 off), the route 2e-16.  Of random plain chains
# at N 40-200 (real and complex hoppings, delta 1e-14-1) it certified all
# 2909 with |C| >= 1e3, 115 of 118 with |C| in [1e2, 1e3) and 63 of 242 with
# |C| in [1, 1e2): below 1e3 the roots |u| ~ |C|^(-1/N) near the unit circle
# and a refused point pays for both solves.
_BOUNDARY_MIN_N = 40
_BOUNDARY_MIN_C = 1e3
# Impurity roots |u| = |delta_l delta_r|^(-1/2) well inside the seeds' circle
# |u| = |C|^(-1/N) are out of Newton's reach: of 14534 gated points (N 40-200)
# with radius ratio below 0.9 none certified (40 of 396 in [0.9, 1) and all
# 1792 above did), so they are declined before any Newton step.
_IMPURITY_MIN_RATIO = 0.9
_NEWTON_MAX_STEPS = 30
_NEWTON_TOL = 1e-13  # the last step, relative to 1 + max|lambda|


def _power(u: np.ndarray, n: int) -> np.ndarray:
    """u**n for an integer n >= 1 by repeated squaring: numpy's complex power
    takes a slower exp-log route from n = 100 on."""
    out = None
    while n:
        if n & 1:
            out = u if out is None else out * u
        n >>= 1
        u = u * u if n else u
    return out


def _hn_h(u: np.ndarray, N: int, C: complex, D: complex):
    """h(u) = 1 - D u^2 - C u^N (1 - u^2) - u^(2N+2) + D u^(2N) and h'(u)."""
    uN, u2 = _power(u, N), u * u
    w = uN * uN
    h = 1.0 - D * u2 - C * uN * (1.0 - u2) - w * u2 + D * w
    dh = -2.0 * D * u - C * uN * (N - (N + 2) * u2) / u - (2 * N + 2) * w * u + 2 * N * D * w / u
    return h, dh


def _hn_boundary_roots(p: HNParams, N: int, delta) -> Optional[np.ndarray]:
    """The N eigenvalues of the plain chain from its boundary equation, or
    None where they are not certified.

    With rho = sqrt(t_l) sqrt(t_r), r = sqrt(t_r) / sqrt(t_l), D = delta_l
    delta_r and C = delta_r r^N + delta_l r^(-N), the characteristic
    polynomial at lambda = t_d + rho (u + 1/u) is F = rho^N h(u) u^(-N-1) /
    (1/u - u) (the corner determinant of Molinari, Linear Algebra Appl. 429,
    2221 (2008)); see `_hn_h`.  The trivial roots u = +-1 of h cancel
    against 1/u - u, and the other 2N pair as (u, 1/u), so the eigenvalues
    are the N roots inside the unit circle.  Newton on h runs over all of them at once, from
    u_k = C^(-1/N) e^(-2 pi i k / N) moved once by the balance u^N = (1 - D
    u^2) / (C (1 - u^2)) of the leading terms, until its largest step stops
    shrinking.  The eigenvalues are certified when every |u_k| < 1, the
    last step moves no lambda_k by more than `_NEWTON_TOL` (1 + max|lambda|),
    and the N discs |z - lambda_k| <= N |F / F'(lambda_k)| are pairwise
    disjoint: each such disc holds a root of the degree-N polynomial F, so
    each then holds exactly one, and no eigenvalue is missed or doubled.
    The route needs no matrix, and it keeps the digits that the dense
    eigensolver loses to the imaginary gauge |r|^n near the open limit
    (Hatano and Nelson, PRL 77, 570 (1996)): at t_r / t_l = 4, N 60, delta
    1e-12 the dense eigenvalues are 1.1e-6 off, these 1e-16.  A chain with
    end energies or a vanishing hopping, N < `_BOUNDARY_MIN_N`, |C| <
    `_BOUNDARY_MIN_C`, and impurity roots |D|^(-1/2) closer to 0 than
    `_IMPURITY_MIN_RATIO` |C|^(-1/N) give None at once.
    """
    if not p.is_plain or p.t_l == 0 or p.t_r == 0 or N < _BOUNDARY_MIN_N:
        return None
    dl, dr = _pair(delta)
    rho, r = _sq(p.t_l) * _sq(p.t_r), np.complex128(_sq(p.t_r) / _sq(p.t_l))
    with np.errstate(all="ignore"):
        C = complex(dr * r**N + dl * r**-N)
    if not (np.isfinite(C) and abs(C) >= _BOUNDARY_MIN_C):
        return None
    D = dl * dr
    if abs(D) ** 0.5 * abs(C) ** (-1.0 / N) > 1.0 / _IMPURITY_MIN_RATIO:
        return None
    u = C ** (-1.0 / N) * np.exp(-2j * np.pi * np.arange(N) / N)
    u = u * ((1.0 - D * u * u) / (1.0 - u * u)) ** (1.0 / N)
    last = np.inf
    for _ in range(_NEWTON_MAX_STEPS):
        h, dh = _hn_h(u, N, C, D)
        step = h / dh
        dlam_du = rho * (1.0 - 1.0 / (u * u))
        size = float(np.abs(dlam_du * step).max())
        if not size < last:
            break
        u, last = u - step, size
    else:
        return None
    lam = p.t_d + rho * (u + 1.0 / u)
    if not (np.abs(u).max() < 1.0 and size <= _NEWTON_TOL * (1.0 + np.abs(lam).max())):
        return None
    # F'/F = (h'/h + g'/g) / lambda'(u) with g = u^(-N-1) / (1/u - u)
    dlog_g = (1.0 / (u * u) + 1.0) / (1.0 / u - u) - (N + 1) / u
    radius = N * np.abs(h * dlam_du / (dh + h * dlog_g))
    if not np.isfinite(radius).all():
        return None
    # discs that meet are closer than 2 max(radius) in Re lambda: sorted by
    # it, only neighbours up to `reach` places apart need a test
    order = np.argsort(lam.real, kind="stable")
    z, rad = lam[order], radius[order]
    reach = np.searchsorted(z.real, z.real + 2.0 * rad.max(), side="right") - np.arange(N)
    for k in range(1, int(reach.max())):
        if np.any(np.abs(z[k:] - z[:-k]) <= rad[k:] + rad[:-k]):
            return None
    return lam


def hn_line(p: HNParams, N: int) -> Callable[[object], Spectrum]:
    """delta -> eigenvalues lambda = t_d + 2 sqrt(t_l) sqrt(t_r) cos(alpha_tilde)
    at a scalar delta or a (delta_l, delta_r) pair, through `_chain_line`.

    A caller that solves the chain at many deformations (a sensitivity fit)
    pays for the matrix assembly once and gets the same spectra bit for bit.
    The plain chain with symmetric corners has exact wavenumber sets, and an
    "analytic" spectrum, at delta = 0 and +-1 (N = 2 has one at delta = 0
    but no banded matrix).  Elsewhere a plain chain at N >= 40 whose
    boundary term |C| = |delta_r r^N + delta_l r^(-N)| (r = sqrt(t_r) /
    sqrt(t_l)) is at least 1e3 takes the roots of its boundary equation
    where a certificate holds (`_hn_boundary_roots`; provenance
    "boundary-equation").  Every other delta, and a chain with a vanishing
    hopping, gets an eigensolve: a plain chain of even N declares the
    grading (2, t_d, 0) to `_chain_line`, whose two sublattices are the odd
    and even sites, and solves one N/2-site block of (H - t_d)^2 where that
    is accepted; otherwise the whole matrix.
    """
    def exact(delta) -> Optional[Spectrum]:
        aset = _hn_exact_alpha_set(p, N, delta)
        if aset is not None:
            return Spectrum(_hn_lambda(p, aset.expand()), "analytic")
        lam = _hn_boundary_roots(p, N, delta)
        return None if lam is None else Spectrum(lam, "boundary-equation")

    return _chain_line(lambda: chain_operator(hn_stencil(p, N, 0.0)),
                       p.t_l != 0 and p.t_r != 0, exact,
                       (2, p.t_d, 0.0) if p.is_plain and N % 2 == 0 else None)


def hn_spectrum(p: HNParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """`hn_line(p, N)` at delta and the shifted wavenumbers.

    An "analytic" spectrum keeps its exact wavenumber set; each eigenvalue
    of a dense or "boundary-equation" one gets the alpha_tilde that
    `_hn_wavenumbers` recovers from it (generator "hn-eig").  A vanishing
    hopping leaves no wavenumbers.
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
    """delta -> full eigenvalue multiset of the alternating chain, through
    `_chain_line` (see `hn_line`).

    Eigenvalues lambda = (v1+v2)/2 +- sqrt(v^2 + tl1 tr1 + tl2 tr2 +
    2 cos(a) sqrt(tl1) sqrt(tr1) sqrt(tl2) sqrt(tr2)).  The open odd chain
    has an exact wavenumber set and an "analytic" spectrum; every other
    delta, and a chain with a vanishing hopping, gets an eigensolve.  A
    chain of even N declares the grading (2, (v1+v2)/2, (v1-v2)/2) and
    solves one N/2-site block of (H - (v1+v2)/2)^2 where that is accepted;
    an odd chain, whose corner joins two sites of one sublattice, solves
    the whole matrix.  An odd chain with nonzero hoppings takes no on-site
    potentials: one with them raises here.
    """
    if p.hoppings_nonzero and N % 2 and (p.v1 != 0 or p.v2 != 0):
        raise ValueError("odd-length chains are solved without on-site potentials")

    def exact(delta) -> Optional[Spectrum]:
        return _ssh_odd_open(p, N)[0] if N % 2 and _pair(delta) == (0, 0) else None

    return _chain_line(lambda: ssh_operator(p, N), p.hoppings_nonzero, exact,
                       (2, (p.v1 + p.v2) / 2.0, p.v) if N % 2 == 0 else None)


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
        return spec, _ssh_odd_open(p, N)[1]
    h = {"hd1": p.v1, "hd2": p.v2, "hl1": p.tl1, "hl2": p.tl2, "hr1": p.tr1, "hr2": p.tr2}
    cos_alpha, shift = _ssh_wavenumbers({k: np.array([v]) for k, v in h.items()},
                                        spec.eigenvalues[None, :], pairs=N % 2 == 0)
    return spec, _alpha_set_from_cos(cos_alpha[0], shift[0], "ssh-eig")


def ssh_closed_form(p: SSHParams, N: int, delta) -> tuple[Spectrum, AlphaSet]:
    """The paper's route for the alternating chain, provenance "analytic".

    Even N: one +- pair of eigenvalues per wavenumber of the boundary
    equation (alphasolver).  Odd N: one eigenvalue per wavenumber, its sign
    given by the sign factor of the odd-chain equation (`_odd_signs`); zero
    modes arise as ordinary equation roots.  Reliable at small N only; see
    `ssh_spectrum`.  A root pair off inversion, a sign factor that cannot
    be read, signs whose odd power sums do not vanish
    (`_check_odd_power_sums`) or a vanishing hopping raises
    `NumericalError`, as in `hn_closed_form`.
    """
    if not p.hoppings_nonzero:
        raise NumericalError("the ssh closed form needs all four hoppings nonzero")
    dl, dr = _pair(delta)
    shift = p.shift
    params = {"tl1": p.tl1, "tr1": p.tr1, "tl2": p.tl2, "tr2": p.tr2}
    if N % 2 == 0:
        poly = polynomialize("ssh-even", params, N, (dl, dr))
        aset = alpha_from_roots(roots(poly), "pairs", expected=N // 2)
        mid = (p.v1 + p.v2) / 2.0
        sq_lam2 = np.sqrt(_ssh_lambda2(p, aset.expand()))
        lam = np.concatenate([mid + sq_lam2, mid - sq_lam2])
        return Spectrum(lam, "analytic"), AlphaSet(aset.values, aset.multiplicity, shift, "ssh-even")
    if p.v1 != 0 or p.v2 != 0:
        raise ValueError("odd-length chains are solved without on-site potentials")
    if dl == 0 and dr == 0:
        return _ssh_odd_open(p, N)
    aset = alpha_from_roots(roots(polynomialize("ssh-odd", params, N, (dl, dr))), "pairs", expected=N)
    alphas = aset.expand()
    lam_plus = np.sqrt(_ssh_lambda2(p, alphas))
    lam = _odd_signs(p, alphas, lam_plus, N, dl, dr) * lam_plus
    _check_odd_power_sums(lam, N)
    return Spectrum(lam, "analytic"), AlphaSet(aset.values, aset.multiplicity, shift, "ssh-odd")


# Of 6000 random odd chains (N 3-11, complex normal hoppings, delta moduli
# 1e-12-1) whose sign factors were read, the 4337 spectra right to 1e-6 had
# power-sum ratios of at most 9.8e-9 and the 6 wrong ones at least 0.049.
_POWER_SUM_TOL = 1e-6


def _check_odd_power_sums(lam: np.ndarray, N: int) -> None:
    """Raise `NumericalError` unless sum(lambda^k) = tr H^k vanishes for odd
    k in {1, 3} below N, to `_POWER_SUM_TOL` N max|lambda|^k.

    On a ring of odd length N without on-site terms, a closed walk shorter
    than N cannot wind around the ring, so it has even length and tr H^k = 0
    for odd k < N.  The signs of the odd chain are read one wavenumber at a
    time; this checks them jointly.
    """
    scale = float(np.abs(lam).max())
    for k in (1, 3):
        if k < N:
            off = abs(complex(np.sum(lam**k)))
            if not off <= _POWER_SUM_TOL * N * scale**k:
                raise NumericalError(f"odd-chain signs: |sum lambda^{k}| = {off:.3g} is not 0 "
                                     f"(scale N max|lambda|^{k} = {N * scale**k:.3g})")


def _ssh_odd_open(p: SSHParams, N: int) -> tuple[Spectrum, AlphaSet]:
    """Open odd chain: exact zero mode plus symmetric +- pairs."""
    k = np.arange(1, N + 1)
    k = k[k != (N + 1) // 2]
    alph = 2.0 * np.pi * k / (N + 1)
    uniq = alph[: (N - 1) // 2]
    s = np.sqrt(_ssh_lambda2(p, uniq))
    vals = np.concatenate([uniq + 0j, [_zero_mode_alpha(p)]])
    aset = AlphaSet(vals, np.ones(len(vals), dtype=int), p.shift, "ssh-odd-open")
    return Spectrum(np.concatenate([[0.0], s, -s]), "analytic"), aset


def _zero_mode_alpha(p: SSHParams) -> complex:
    # cos(a) at lambda^2 = 0
    C1 = _sq(p.tl1) * _sq(p.tr1) * _sq(p.tl2) * _sq(p.tr2)
    c = -(p.v * p.v + p.tl1 * p.tr1 + p.tl2 * p.tr2) / (2.0 * C1)
    return complex(np.arccos(c))


def _odd_signs(p: SSHParams, alphas, lam_plus, N, dl, dr) -> np.ndarray:
    """The +-1 sign factor of the odd-chain equation, one per wavenumber.

    Raises `NumericalError` where the factor cannot be read: a denominator
    that vanishes against its scale, a non-finite factor, or one not within
    0.5 of +1 or -1.
    """
    C1 = _sq(p.tl1) * _sq(p.tr1) * _sq(p.tl2) * _sq(p.tr2)
    denom = dl * (_sq(p.tl1) * _sq(p.tl2)) ** N + dr * (_sq(p.tr1) * _sq(p.tr2)) ** N
    scale = (abs(p.tl1) * abs(p.tl2)) ** (N / 2) + (abs(p.tr1) * abs(p.tr2)) ** (N / 2)
    if abs(denom) < 1e-12 * max(scale, 1e-300) or not np.isfinite(denom):
        raise NumericalError(f"odd-chain sign factor: denominator {abs(denom):.3g} vanishes "
                             f"against its scale {scale:.3g}")
    sigma = np.array([lp * (dirichlet_ratio((N + 1) // 2, a) - dl * dr * dirichlet_ratio((N - 1) // 2, a))
                      for a, lp in zip(alphas, lam_plus)]) * C1 ** ((N - 1) // 2) / denom
    if not np.isfinite(sigma).all():
        raise NumericalError("odd-chain sign factor is not finite")
    signs = np.where(np.abs(sigma - 1.0) < 0.5, 1.0, -1.0)
    off = np.abs(sigma - signs)
    if off.max() >= 0.5:
        k = int(np.argmax(off))
        raise NumericalError(f"odd-chain sign factor {sigma[k]:.6g} is not within 0.5 of +1 or -1")
    return signs


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
    if d == 0:
        return Spectrum(np.zeros(N, dtype=complex), "analytic")
    mod, phi = abs(d), np.angle(d)
    j = np.arange(N)
    w = np.exp(1j * (phi / N + 2 * np.pi * j / N))
    lam = complex(t_l) * mod ** (1.0 / N) * w + complex(u_l) * mod ** (2.0 / N) * w**2
    return Spectrum(lam, "analytic")


def mixed_longrange_matrix(t_r, u_l, delta, N: int) -> np.ndarray:
    return build_chain_matrix(ChainStencil(N, {2: u_l, -1: t_r}, (0.0,), complex(delta)))


def mixed_longrange_line(t_r, u_l, N: int) -> Callable[[object], Spectrum]:
    """delta -> spectrum of the chain with +2 and -1 hops, lambda = u_l y^2 +
    t_r / y, through `_chain_line` (see `hn_line`); delta is a scalar.  Every
    delta gets an eigensolve: the chain has no exact set.  Both hops go from
    grade n mod 3 to the next, so a chain of N divisible by 3 declares the
    grading (3, 0, 0) and solves one N/3-site block of H^3 where that is
    accepted (its eigenvalues are closed under multiplication by e^(2 pi i /
    3)).  A chain with eigenvalues near 0, such as u_l = t_r = 1 (declined
    at all 41 delta in [0, 1] at N 30, 60 and 120: min |lambda| is 0.1 to
    0.003, the guard asks for 0.25), and any other N solve the whole
    matrix."""
    t_r, u_l = complex(t_r), complex(u_l)
    line = _chain_line(lambda: chain_operator(ChainStencil(N, {2: u_l, -1: t_r}, (0.0,))),
                       t_r != 0 and u_l != 0, lambda delta: None, (3, 0.0, 0.0) if N % 3 == 0 else None)
    return lambda delta: line(complex(delta))


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
    return Spectrum(lam, "analytic", {"degree": poly.degree, "removed_factor": poly.removed_factors[0]}), aset


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
