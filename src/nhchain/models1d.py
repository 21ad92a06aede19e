"""Spectra, shifted wavenumbers and eigenvectors of the solvable 1D chains.

Covered models: nearest-neighbour asymmetric chain (with optional end
on-site energies and asymmetric corners), the two-band alternating chain of
even or odd length (with alternating on-site potentials and a zero-mode
criterion), the unidirectional and mixed long-range chains, and the scalar
Bloch functions with their three non-winding parameter families.

The per-size lines `hn_line`, `ssh_line` and `mixed_longrange_line`, and
the stacked lines of models2d, solve every delta through one body, `_line`:
a chain is a stack of one block.  Its operator is built once; an exact
wavenumber set (the plain one-band chain at delta = 0 and +-1, the open odd
two-band chain) gives an "analytic" spectrum.  Else a plain one-band chain
at N >= 40 whose boundary term |C| = |delta_r r^N + delta_l r^(-N)| (r =
sqrt(t_r) / sqrt(t_l)) is at least 1e3 solves its boundary equation, six
terms in u = e^(-i alpha_tilde), by vectorised Newton (`_hn_boundary_roots`,
provenance "boundary-equation"), under a certificate: N disjoint inclusion
discs, one per eigenvalue.  Else a balanced chain (|t_l| = |t_r|, the
paper's insensitivity condition) is t_d + e^{i psi} K with K Hermitian at
every real scalar delta, and takes eigvalsh, or the singular values of its
sublattice slice.  Every other delta is solved by `block_eigvals`: a chain
graded into m sublattices (the even plain one-band and two-band chains, m =
2, and the mixed chain of N divisible by 3, m = 3) solves one N/m-site grade
block where its guard accepts (provenance "sublattice-oracle", as for a
balanced chain's sublattice slice), the whole matrix otherwise ("oracle",
labelled {"fallback": "zero hopping"} when a hopping vanishes); a chain of
at most 12 sites whose matrix is real at delta is solved whole, which costs
less there than the block.  The command line uses the lines alone.
`hn_spectrum`, `ssh_spectrum` and `mixed_longrange_spectrum` call them at
one delta and also recover the
shifted wavenumbers from the eigenvalues: cos(alpha_tilde) = (lambda - t_d)
/ (2 sqrt(t_l) sqrt(t_r)) for the one-band chain, the lambda^2 relation for
the two-band chain (one alpha_tilde per +- pair at even length), and the
root of largest modulus of u_l y^3 - lambda y + t_r = 0, y = e^{i alpha_tilde},
for the mixed long-range chain.  The stacked lattices of models2d recover
their Bloch blocks' wavenumbers with the same inversion helpers.

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
from .core import _eigvals, _solver_failure
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


# Largest chain that `_line` solves whole at a delta where its matrix is
# real, graded or not: there the real eigensolve of the whole matrix costs
# less than forming and solving a grade block of (H - c)^m (hn (1, 1.5),
# microseconds per delta, whole / graded: 27 / 37 at N 8, 33 / 39 at N 12,
# 40 / 40 at N 14; `tools/route_times.py`), while a complex chain gains from
# the block from N 12 on (hn (1, 2.5 e^{0.4i}): 71 / 47).
_WHOLE_MAX_N = 12


def _line(ops: Callable[[], tuple], s: np.ndarray, m: Optional[int],
          exact: Callable[[object], Optional[Spectrum]] = lambda delta: None,
          hoppings_nonzero: bool = True) -> Callable[[object], Spectrum]:
    """The per-delta body of every chain and stack line: delta -> Spectrum.

    `ops` builds the blocks' operators on first use, and the line keeps
    them, so the exact sets need no matrix: a chain's one `CornerOperator`,
    its matrix its one block (s = [1]), or a stack's (A, B, C), block j
    being A + s_j B + C / s_j.  Each delta takes the first route that
    answers: `exact(delta)` (a chain's exact set or boundary equation); at a
    real scalar delta, `_hermitian_eigvals` for the leading blocks that
    `_hermitian_blocks` found Hermitian up to a shift and a phase (once, on
    first use); `block_eigvals` with m sublattices (None: none) for the
    rest, but with none for a chain of at most `_WHOLE_MAX_N` (12) sites
    whose matrix is real at delta, solved whole.  A stack whose operators
    are real at delta 0 and 1, with s_(N-j) = conj(s_j) (BC1, or BC2 with a
    real delta2 > 0), has its blocks in conjugate pairs at a real delta
    (`_bloch_eigvals`); every other line solves all blocks, in order j = 0,
    1, ...

    A chain returns provenance "sublattice-oracle" where its block was
    solved at 1/m size, "oracle" where whole; a chain with a vanishing
    hopping takes one dense eigensolve per delta, parameters {"fallback":
    "zero hopping"}, and no other route.  A stack returns the rows in block
    order j, provenance "bloch-oracle", with `_bloch_eigvals`' counts as
    parameters "hermitian_blocks" and "sublattice_blocks".
    """
    ops, n = cache(ops), len(s)
    if not hoppings_nonzero:
        return lambda delta: replace(dense_spectrum(ops()[0].at(delta)), parameters={"fallback": "zero hopping"})

    @cache
    def gate():
        o = ops()  # a chain is never paired: its block is solved as its operator stores it
        paired = (len(o) == 3 and np.array_equal(s[-np.arange(n)], s.conj())
                  and not any(op.at(d).imag.any() for op in o for d in (0.0, 1.0)))
        # pairs: the self-conjugate blocks (0, and n/2 for even n), then one block of each pair
        order = [0, *([n // 2] if n % 2 == 0 else []), *range(1, (n + 1) // 2)] if paired else list(range(n))
        return o, paired, order, *_hermitian_blocks(o, s, order)

    def line(delta) -> Spectrum:
        spec = exact(delta)
        if spec is not None:
            return spec
        o, paired, order, shift, phase = gate()
        dl, dr = _pair(delta)
        if not (dl == dr and dl.imag == 0):
            paired, order, shift, phase = False, list(range(n)), shift[:0], phase[:0]
        if len(o) == 1 and not len(shift):  # a chain's matrix as a batch of one, no copy
            M = o[0].at(delta)
            whole = len(M) <= _WHOLE_MAX_N and not M.imag.any()
            lam, half = block_eigvals(M[None], None if whole else m)
            return Spectrum(lam[0], "sublattice-oracle" if half[0] else "oracle")
        lam, n_herm, n_half = _bloch_eigvals([op.at(delta)[None] for op in o], s, paired, order,
                                             shift, phase, m)
        if len(o) == 1:
            return Spectrum(lam[0], "sublattice-oracle" if n_half else "oracle")
        return Spectrum(lam.ravel(), "bloch-oracle", {"hermitian_blocks": n_herm, "sublattice_blocks": n_half})

    return line


def block_eigvals(M: np.ndarray, m: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, graded) of a batch M of chain matrices along its
    leading axis, one row per matrix: the eigensolve of every block of a
    line (`_line`) not solved as a Hermitian matrix.  With a grading into m
    sublattices (None: none), row b comes from one grade block where
    `_graded_eigenvalues` accepts it (graded[b]); the other matrices are
    solved whole, together in one batched `core._eigvals`."""
    if m is None:
        return _eigvals(M), np.zeros(len(M), dtype=bool)
    lam, ok = _graded_eigenvalues(M, m)
    if not ok.all():
        lam[~ok] = _eigvals(M[~ok])
    return lam, ok


def _blocks(mats, t: np.ndarray, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Entries [rows, cols] of the blocks A + t B + C / t of mats = (A, B,
    C) as a new array, broadcast over t and the leading axes of A, B and C,
    formed as (t B + A) + C / t; a chain's mats = (M,) is its own block."""
    if len(mats) == 1:
        return mats[0][..., rows, cols].copy()
    A, B, C = (M[..., rows, cols] for M in mats)
    X = t * B
    X += A
    X += C / t
    return X


def _bloch_eigvals(mats, s: np.ndarray, paired: bool, order: list, shift: np.ndarray, phase: np.ndarray,
                   m: Optional[int]) -> tuple[np.ndarray, int, int]:
    """(Eigenvalues of the blocks of mats (`_blocks`; the operators at one
    delta, each with a leading axis of one), one row per block j; the
    numbers of blocks solved as Hermitian matrices and at 1/m size, a solved
    pair counting as two).

    The leading blocks of `order`, one per entry of `shift` and `phase`
    (from `_hermitian_blocks`), go to `_hermitian_eigvals`, the others to
    `block_eigvals`.  With `paired` (block N-j the conjugate of block j),
    the self-conjugate ones are formed in real arithmetic, the others in
    one complex batch, and the conjugates of the pairs' rows fill rows N-j.
    """
    n, k = len(s), len(shift)
    n_self = 2 - n % 2 if paired else 0
    mats = [M.real for M in mats] if paired else mats
    herm, selfconj, rest = order[:k], order[k:n_self], order[max(k, n_self):]
    lam = np.empty((n, mats[0].shape[-1]), dtype=complex)
    n_herm = (1 + paired) * k - min(k, n_self)
    n_half = n_herm if m == 2 else 0
    for idx, t, weight in ((selfconj, s[selfconj].real, 1), (rest, s[rest], 1 + paired)):
        if idx:
            lam[idx], half = block_eigvals(_blocks(mats, t[:, None, None]), m)
            n_half += weight * int(half.sum())
    if herm:
        lam[herm] = _hermitian_eigvals(mats, s[herm][:, None, None], shift, phase, m == 2)
    if paired:
        mirrored = np.arange(1, (n + 1) // 2)
        lam[n - mirrored] = lam[mirrored].conj()
    return lam, n_herm, n_half


# A block passes `_hermitian_blocks` when its K deviates from K^H by at most
# this many ulps of max|M|.
HERMITIAN_ULPS = 16


def _phase_check(m: np.ndarray, mt: np.ndarray, diag: np.ndarray):
    """(pass, c, e^{2 i psi}) per block.  m[d, b, e] is the e-th compared
    entry M_ik of block b at delta = d (d = 0, 1, ...), mt[d, b, e] the
    entry M_ki, and diag[e] marks i = k, its first True entry being M_00.

    e^{2 i psi} is the phase of the block's largest product M_ik M_ki
    (i != k) at d = 0, and c its M_00 there; a block passes if
    K = e^{-i psi} (M - c I) is Hermitian, to HERMITIAN_ULPS ulps of max|M|,
    at every d: K_ik - conj(K_ki) = e^{-i psi} ((M - c I)_ik - e^{2 i psi}
    conj((M - c I)_ki)).  The products are taken of entries scaled by a
    power of two per block, 1/2^e with max|M| < 2^e, so they cannot
    overflow and round as the unscaled ones, e^{2 i psi} included.
    """
    scale = np.ldexp(1.0, -np.frexp(np.abs(m[0]).max(axis=-1, initial=0.0))[1])[:, None]
    prod = np.where(diag, 0, (m[0] * scale) * (mt[0] * scale))
    p = prod[np.arange(len(prod)), np.argmax(np.abs(prod), axis=1)]
    p = np.where(p == 0, 1, p)
    e2 = p / np.abs(p)
    shift = m[0][:, np.argmax(diag)]
    d, dt = m - diag * shift[:, None], mt - diag * shift[:, None]
    dev = np.abs(d - e2[:, None] * dt.conj()).max(axis=-1)
    ok = (dev <= HERMITIAN_ULPS * np.finfo(float).eps * np.abs(m).max(axis=-1)).all(axis=0)
    return ok, shift, e2


def _hermitian_blocks(ops, s: np.ndarray, order: list) -> tuple[np.ndarray, np.ndarray]:
    """(c_j, e^{i psi_j}) of the leading blocks of `order` (see `_blocks`)
    M_j = c_j I + e^{i psi_j} K_j with K_j Hermitian at every real scalar
    delta, up to the first block that is not.

    `_phase_check` decides each block at delta = 0 and delta = 1; M is
    affine in delta, so K then is Hermitian at every real delta.  First the
    moduli of row 0 and column 0 of the first block at delta = 0 are
    compared, to twice that tolerance (|M_0k| != |M_k0| fails the check as
    well), so a line whose first block fails pays for O(N) entries.  Then
    the blocks are checked together on the entries where an operator is
    nonzero at delta = 0 or 1, or whose transpose is: O(N) entries per block
    of the banded chains.
    """
    bulk, t = [op.bulk for op in ops], s[order[:1]]
    row, col = (np.abs(_blocks(bulk, t, i, k)) for i, k in ((0, slice(None)), (slice(None), 0)))
    if (np.abs(row - col) > 2 * HERMITIAN_ULPS * np.finfo(float).eps * np.maximum(row, col).max()).any():
        return np.empty(0, dtype=complex), np.empty(0, dtype=complex)
    X = [np.stack([op.bulk, op.at(1.0)])[:, None] for op in ops]
    nonzero = sum(np.abs(Y[:, 0]) for Y in X).any(axis=0)
    nonzero |= nonzero.T
    np.fill_diagonal(nonzero, True)
    r, c = np.nonzero(nonzero)
    t = s[order][:, None]
    ok, shift, e2 = _phase_check(_blocks(X, t, r, c), _blocks(X, t, c, r), r == c)
    n = len(ok) if ok.all() else int(np.argmin(ok))
    return shift[:n], np.sqrt(e2[:n])


def _hermitian_eigvals(mats, t: np.ndarray, shift: np.ndarray, phase: np.ndarray, graded: bool) -> np.ndarray:
    """Eigenvalues c_j + e^{i psi_j} mu of the blocks M_j (`_blocks` of mats
    at t) that are c_j I + e^{i psi_j} K_j with K_j Hermitian (c_j = M_00),
    one row per block.

    Ungraded blocks take one batched eigvalsh of the K_j (which reads their
    lower triangles).  A `graded` block, a chain of two sublattices, has K_j
    zero on the even sites, a real d_j = K_11 on the odd ones (0 for the
    plain one-band chain and the hn-family stacks), and every other entry
    joining an even site to an odd one.  Its eigenvalues are then mu = d/2
    +- (d^2/4 + sigma^2)^(1/2) for the N/2 singular values sigma of K[even,
    odd], from one batched SVD (backward stable: no guard) of that slice
    alone.  The root of the sign of d is formed as written and the other as
    -sigma^2 over it, so neither cancels, and d = 0 gives exactly +-sigma.
    """
    if graded:
        K, m11 = _blocks(mats, t, slice(0, None, 2), slice(1, None, 2)), _blocks(mats, t, slice(1, 2), slice(1, 2))
    else:
        K = _blocks(mats, t)
        diag = np.arange(K.shape[-1])
        K[:, diag, diag] -= shift[:, None]
    K *= phase.conj()[:, None, None]
    try:
        if not graded:
            return shift[:, None] + phase[:, None] * np.linalg.eigvalsh(K)
        sigma = np.linalg.svd(K, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise _solver_failure(K, exc) from exc
    half_d = ((m11[:, 0, 0] - shift) * phase.conj()).real[:, None] / 2
    big = half_d + np.copysign(np.hypot(half_d, sigma), half_d)
    ratio = np.divide(sigma, big, out=np.zeros_like(sigma), where=big != 0)
    mu = np.concatenate([big, -ratio * sigma], axis=1)
    return shift[:, None] + phase[:, None] * mu


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


def _graded_eigenvalues(H: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, accepted) of a batch of graded matrices H[b] along the
    leading axis, each from one grade block of (H[b] - c_b)^m; row b is
    meaningful where accepted[b].

    The grading is the sublattice symmetry of Kawabata, Shiozaki, Ueda and
    Sato, PRX 9, 041015 (2019).  Site n has grade n mod m, and m divides
    N.  A grading into m sublattices states that H - c is v on grade 0, -v
    on grade 1 (m = 2 only) and 0 on every other diagonal entry, with c, v
    = (H_00 +- H_11) / 2 read off the diagonal, and that every
    off-diagonal entry, corners included, carries grade g to g + 1 (mod
    m).  The plain one-band chain (c = t_d), the two-band chain (c, v =
    (v1 +- v2) / 2) and a stack's Bloch blocks of even N, and the +2/-1
    mixed chain of N divisible by 3 (m = 3, c = 0) have one.  Then (H -
    c)^m is block diagonal over grades, and its grade-0 block is P =
    S_(m-1) ... S_1 S_0, S_g the slice of H from grade g to grade g + 1,
    plus v^2 when m = 2 ((H - c)^2 = v^2 + (H - c - v diag(1, -1, ...))^2).
    As diag(w^g) (H - c - v ...) diag(w^-g) = w (H - c - v ...) with w^m =
    1, the N eigenvalues are c + mu^(1/m) w^j, j < m, for the N / m
    eigenvalues mu of P, all from one batched `_eigvals`.  A real mu takes
    its real cube root, so real eigenvalues of a real chain stay real, and
    m = 2 gives each pair as c +- mu^(1/2).  A matrix is accepted only if
    (||H - c||_inf / min |lambda - c|)^(m - 1) is at most
    `_GRADED_MAX_GAIN`.  Every entry of P is at most ||H - c||_inf^m, so a
    batch whose norm reaches `_GRADED_MAX_NORM` (or is not finite) is
    declined whole before any product, and P never overflows.
    """
    h0, h1 = H[:, 0, 0], H[:, 1, 1]
    c, v = (h0 + h1) / 2, (h0 - h1) / 2
    size = np.abs(H)
    norm = (size.sum(axis=-1) - size.diagonal(0, -2, -1)).max(axis=-1) + np.abs(v)
    if not norm.max() < _GRADED_MAX_NORM:
        return np.zeros(H.shape[:-1], dtype=complex), np.zeros(len(H), dtype=bool)
    P = H[:, ::m, m - 1::m]
    for g in range(m - 1, 0, -1):
        P = P @ H[:, g::m, g - 1::m]
    if np.count_nonzero(v):
        diag = np.arange(P.shape[-1])
        P[:, diag, diag] += (v * v)[:, None]
    mu = _eigvals(P)
    if m == 2:
        r = np.sqrt(mu)
    else:
        r = mu ** (1.0 / 3.0)
        real = mu.imag == 0
        r[real] = np.cbrt(mu.real[real])
    ok = norm <= _GRADED_MAX_GAIN ** (1 / (m - 1)) * np.abs(r).min(axis=-1)
    lam = c[:, None, None] + _ROOTS_OF_UNITY[m] * r[:, None, :]
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
    at a scalar delta or a (delta_l, delta_r) pair, through `_line`.

    A caller that solves the chain at many deformations (a sensitivity fit)
    pays for the matrix assembly once and gets the same spectra bit for bit.
    The plain chain with symmetric corners has exact wavenumber sets, and an
    "analytic" spectrum, at delta = 0 and +-1 (N = 2 has one at delta = 0
    but no banded matrix).  Elsewhere a plain chain at N >= 40 whose
    boundary term |C| = |delta_r r^N + delta_l r^(-N)| (r = sqrt(t_r) /
    sqrt(t_l)) is at least 1e3 takes the roots of its boundary equation
    where a certificate holds (`_hn_boundary_roots`; provenance
    "boundary-equation").  A balanced chain, |t_l| = |t_r|, is solved as a
    Hermitian matrix at a real scalar delta (|C| <= 2: no boundary
    equation).  Every other delta, and a chain with a vanishing hopping,
    gets an eigensolve.  A plain chain of even N declares two sublattices,
    its odd and even sites, solved as one grade block above 12 sites or
    where its matrix is complex.
    """
    def exact(delta) -> Optional[Spectrum]:
        aset = _hn_exact_alpha_set(p, N, delta)
        if aset is not None:
            return Spectrum(_hn_lambda(p, aset.expand()), "analytic")
        lam = _hn_boundary_roots(p, N, delta)
        return None if lam is None else Spectrum(lam, "boundary-equation")

    return _line(lambda: (chain_operator(hn_stencil(p, N, 0.0)),), np.ones(1),
                 2 if p.is_plain and N % 2 == 0 else None, exact, p.t_l != 0 and p.t_r != 0)


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
    `_line` (see `hn_line`).

    Eigenvalues lambda = (v1+v2)/2 +- sqrt(v^2 + tl1 tr1 + tl2 tr2 +
    2 cos(a) sqrt(tl1) sqrt(tr1) sqrt(tl2) sqrt(tr2)).  The open odd chain
    has an exact wavenumber set and an "analytic" spectrum.  A chain whose
    every bond has |tl| = |tr| with one phase of tl tr (and (v2 - v1) on
    that phase's line) is solved as a Hermitian matrix at a real scalar
    delta.  Every other delta, and a chain with a vanishing hopping, gets an
    eigensolve.  A chain of even N declares two sublattices (a grade block
    above 12 sites or where its matrix is complex); an odd chain's corner
    joins two sites of one.  An odd chain with nonzero hoppings takes
    no on-site potentials: one with them raises here.
    """
    if p.hoppings_nonzero and N % 2 and (p.v1 != 0 or p.v2 != 0):
        raise ValueError("odd-length chains are solved without on-site potentials")

    def exact(delta) -> Optional[Spectrum]:
        return _ssh_odd_open(p, N)[0] if N % 2 and _pair(delta) == (0, 0) else None

    return _line(lambda: (ssh_operator(p, N),), np.ones(1), 2 if N % 2 == 0 else None, exact, p.hoppings_nonzero)


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
    t_r / y, through `_line` (see `hn_line`); delta is a scalar.  Every
    delta gets an eigensolve: the chain has no exact set and is never
    Hermitian up to a phase.  Both hops go from
    grade n mod 3 to the next, so a chain of N divisible by 3 declares three
    sublattices, solved as one grade block above 12 sites or where its
    matrix is complex.  Its guard declines a chain with eigenvalues near 0,
    such as u_l = t_r = 1 (all 41 delta in [0, 1] at N 30, 60 and 120: min
    |lambda| is 0.1 to 0.003, the guard asks for 0.25)."""
    t_r, u_l = complex(t_r), complex(u_l)
    line = _line(lambda: (chain_operator(ChainStencil(N, {2: u_l, -1: t_r}, (0.0,))),), np.ones(1),
                 3 if N % 3 == 0 else None, hoppings_nonzero=t_r != 0 and u_l != 0)
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
    ys = canonical_triple(_eigvals(companion))
    return spec, AlphaSet(-1j * np.log(ys), np.ones(N, dtype=int), 0.0, "mixed-eig")


def mixed_longrange_closed_form(t_r, u_l, delta, N: int) -> tuple[Spectrum, AlphaSet]:
    """The paper's route: the 3N roots of the boundary equation, provenance "analytic".

    The cleared equation has degree 3N + 3 in y with the spurious cubic
    factor 2 y^3 = t_r / u_l.  When 3 | N it holds powers of y^3 only and is
    rooted as a polynomial of degree N + 1 in w = y^3, whose spurious root
    is dropped and whose other N roots give three y each; any other N is
    rooted in y and loses the cubic's three roots.  The 3N roots group into
    triples sharing one eigenvalue lambda = u_l y^2 + t_r / y; the Spectrum
    parameters record the degree 3N and the removed factor.  Reliable at
    small N only; see `mixed_longrange_spectrum`.  A vanishing t_r or u_l raises
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
    lam = key(np.exp(1j * aset.expand()))
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
