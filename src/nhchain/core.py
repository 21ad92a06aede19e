"""Boundary-deformed chain matrices, the dense eigensolver oracle, and
site-resolved state diagnostics.

Conventions used throughout the package:

* matrices act on column vectors, ``H[m, n]`` is the amplitude for hopping
  from site ``n`` to site ``m`` (0-based internally, sites are 1..N in
  formulas);
* a positive offset ``o = n - m`` is a hop "to the left" amplitude placed on
  the o-th superdiagonal;
* corner deformations wrap the band: wrapped negative offsets land in the
  upper-right corner (scaled by ``delta_r``), wrapped positive offsets in the
  lower-left corner (scaled by ``delta_l``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "ChainStencil",
    "EigensolverError",
    "NumericalError",
    "Spectrum",
    "StateProfiles",
    "LocalizationReport",
    "CornerOperator",
    "chain_operator",
    "build_chain_matrix",
    "cmul",
    "dense_spectrum",
    "match_spectra",
    "spectral_mismatch",
    "expectation_profiles",
    "localization_report",
]

def as_corner_pair(corner_deform) -> tuple[complex, complex]:
    """Normalize a scalar delta or a (delta_l, delta_r) pair."""
    if np.isscalar(corner_deform):
        return complex(corner_deform), complex(corner_deform)
    dl, dr = corner_deform
    return complex(dl), complex(dr)


def principal_sqrt(z) -> complex:
    """Principal branch square root; the split-radical convention means
    products like sqrt(a)*sqrt(b) are never collapsed to sqrt(a*b)."""
    return complex(np.sqrt(complex(z)))


def cmul(a, b) -> np.ndarray:
    """Elementwise complex product a * b, rounded as numpy rounds one pair
    of complex scalars.

    numpy's vectorised complex multiply may fuse a multiply and an add, so
    on an array it can differ from the scalar product in the last bit; the
    real and imaginary parts here are separate real operations, and an
    array of products equals the products taken one element at a time.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _segment_distance(z, a, d) -> np.ndarray:
    """|z - w| for w the point of the segment [a, a + d] nearest z,
    broadcast over z, a and d; a zero-length segment is its point a.

    |d| is the builtin abs: numpy's modulus of an array d, Python's (libm
    hypot) of a complex one, which differ in the last bit."""
    L2 = np.atleast_1d(abs(d) ** 2)
    L2[L2 == 0] = 1e-300
    t = np.clip(((z - a) * np.conj(d)).real / L2, 0.0, 1.0)
    return np.abs(z - (a + t * d))


@dataclass(frozen=True)
class ChainStencil:
    """One-band chain: hopping amplitudes by signed offset plus corner scaling.

    Parameters
    ----------
    n_sites : int
        Chain length N.
    hoppings : dict[int, complex]
        Off-diagonal amplitudes keyed by offset ``n - m`` (nonzero offsets
        only; the diagonal comes from `onsite_pattern`).
    onsite_pattern : sequence of complex
        Periodically repeated diagonal entries (length = unit-cell size).
    corner_deform : complex or (complex, complex)
        Corner scaling delta, or an asymmetric pair ``(delta_l, delta_r)``.
    end_onsite : (complex, complex), optional
        Extra on-site energies added at the first and last site.
    """

    n_sites: int
    hoppings: dict = field(default_factory=dict)
    onsite_pattern: tuple = (0.0,)
    corner_deform: object = 0.0
    end_onsite: Optional[tuple] = None

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        hop = {int(o): complex(t) for o, t in self.hoppings.items() if t != 0}
        if any(o == 0 for o in hop):
            raise ValueError("offset 0 belongs in onsite_pattern, not hoppings")
        object.__setattr__(self, "hoppings", hop)
        object.__setattr__(
            self, "onsite_pattern", tuple(complex(v) for v in self.onsite_pattern)
        )
        p, q = self.range_lr
        # band and corner blocks must not overlap
        if p + q >= self.n_sites:
            raise ValueError(
                f"hopping range p+q = {p + q} too large for N = {self.n_sites}: "
                "corner blocks would overlap the band"
            )

    @property
    def range_lr(self) -> tuple[int, int]:
        """(p, q): largest negative and positive offsets in use."""
        p = max((-o for o in self.hoppings if o < 0), default=0)
        q = max((o for o in self.hoppings if o > 0), default=0)
        return p, q

    @property
    def corner_pair(self) -> tuple[complex, complex]:
        return as_corner_pair(self.corner_deform)


@dataclass(frozen=True)
class CornerOperator:
    """A chain matrix as a function of its corner deformation.

    `bulk` is the matrix at delta = 0.  `upper` and `lower` list the corner
    entries as (row, col, factors): the entry at delta is bulk[row, col] +
    delta_r * f1 * f2 ... (upper right) or delta_l * f1 * f2 ... (lower
    left), multiplied left to right in Python complex arithmetic, upper
    entries first.  That is the assembly's own arithmetic, so `at(delta)`
    equals the matrix assembled directly at delta bit for bit, and a caller
    that solves one chain at many deformations builds the bulk once.
    """

    bulk: np.ndarray
    upper: tuple
    lower: tuple

    def __post_init__(self):
        self.bulk.flags.writeable = False  # shared by every `at`

    def at(self, corner_deform) -> np.ndarray:
        """The matrix at a scalar delta or a (delta_l, delta_r) pair."""
        dl, dr = as_corner_pair(corner_deform)
        H = self.bulk.copy()
        for d, cells in ((dr, self.upper), (dl, self.lower)):
            for row, col, factors in cells:
                v = d
                for f in factors:
                    v = v * f
                H[row, col] += v
        return H


def chain_operator(stencil: ChainStencil) -> CornerOperator:
    """The matrix of a ChainStencil as a function of its corner deformation
    (the stencil's own `corner_deform` is not used).

    The banded part repeats `onsite_pattern` on the diagonal and places each
    hopping on its offset diagonal.  Corner entries are the wrapped hoppings
    scaled by delta_r (upper right) and delta_l (lower left), so delta = 1
    with a uniform diagonal reproduces a circulant matrix and delta = 0 a
    banded Toeplitz matrix.
    """
    N = stencil.n_sites
    H = np.zeros((N, N), dtype=complex)
    sites = np.arange(N)
    cell = len(stencil.onsite_pattern)
    H[sites, sites] = np.tile(np.array(stencil.onsite_pattern, dtype=complex), -(-N // cell))[:N]
    if stencil.end_onsite is not None:
        H[0, 0] += complex(stencil.end_onsite[0])
        H[N - 1, N - 1] += complex(stencil.end_onsite[1])
    upper, lower = [], []
    for o, t in stencil.hoppings.items():
        rows = sites[max(0, -o):min(N, N - o)]
        H[rows, rows + o] += t
        if o < 0:
            upper += [(m, m + o + N, (t,)) for m in range(-o)]
        else:
            lower += [(m, m + o - N, (t,)) for m in range(N - o, N)]
    return CornerOperator(H, tuple(upper), tuple(lower))


def build_chain_matrix(stencil: ChainStencil) -> np.ndarray:
    """Assemble the dense N x N matrix for a ChainStencil: `chain_operator`
    at the stencil's corner deformation."""
    return chain_operator(stencil).at(stencil.corner_deform)


@dataclass(frozen=True)
class Spectrum:
    """A multiset of complex eigenvalues with provenance.

    The provenance names the route, all taken by the one per-delta body of
    the chain and stack lines (`models1d._line`): "analytic" (an exact
    closed form), "oracle" (one eigensolve of the whole matrix, general or,
    for a chain Hermitian up to a shift and a phase, Hermitian),
    "sublattice-oracle" (a chain graded into m sublattices, solved by one
    N/m-site grade block where its guard accepts, `models1d.block_eigvals`,
    or, Hermitian, by the singular values of its sublattice slice; a chain
    of at most 12 sites whose matrix is real at delta is solved whole and
    is "oracle" unless Hermitian),
    "bloch-oracle" (a stacked lattice's Bloch blocks, solved by the same
    routes) or "boundary-equation" (a long plain one-band chain's boundary
    equation solved by Newton, kept only where N disjoint inclusion discs
    certify one eigenvalue each; `models1d.hn_line`).

    `parameters` is empty but for the keys a caller reads: "fallback" (a
    chain line's dense solve of a chain with a vanishing hopping; read by
    the wavenumber recovery and the benchmark tracer), "degree" and
    "removed_factor" (the mixed long-range closed form's polynomial;
    `cli.validate`'s triple grouping), "hermitian_blocks" (Bloch blocks
    that a stack's line, `models2d.stacked_line`, solved as Hermitian
    matrices; the tests) and "sublattice_blocks" (Bloch blocks of an even
    N1 that it solved at half size, by singular values or one grade block
    of (M - c)^2; the tests).
    No closed form borrows from the dense oracle: one that cannot answer
    from its own equation raises `NumericalError`.
    """

    eigenvalues: np.ndarray
    provenance: str = "oracle"
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.eigenvalues, dtype=complex)).ravel()
        object.__setattr__(self, "eigenvalues", vals)

    def __len__(self):
        return len(self.eigenvalues)


def _values(x) -> np.ndarray:
    """The eigenvalues of a Spectrum, or any array of them, as a flat
    complex array."""
    return np.asarray(getattr(x, "eigenvalues", x), dtype=complex).ravel()


def _min_spacing(v: np.ndarray) -> float:
    """Smallest distance between two entries of a nonempty v; inf for one."""
    d = np.abs(v[:, None] - v[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def match_spectra(a, b) -> float:
    """Maximum pair distance under minimal-cost bipartite matching.

    Multisets in the complex plane have no canonical order, so eigenvalue
    lists are compared by solving the assignment problem on |a_i - b_j|.
    Let every a_i lie within r of its nearest b_j, with 2r below the
    smallest spacing s within a.  Then no two a_i share a nearest b_j (they
    would be within 2r of each other), and pairing a_i with another a_k's
    partner costs at least s - r > r, so the nearest-neighbour matching is
    the unique optimum and r its maximum.  Only otherwise is the assignment
    problem solved (scipy).
    """
    va, vb = _values(a), _values(b)
    if va.shape != vb.shape:
        raise ValueError(f"cardinality mismatch: {len(va)} vs {len(vb)}")
    cost = np.abs(va[:, None] - vb[None, :])
    if len(va):
        r = cost.min(axis=1).max()
        if 2 * r < _min_spacing(va):
            return float(r)
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spectral_mismatch(a, b) -> float:
    """match_spectra normalized by 1 + max|lambda|."""
    va, vb = _values(a), _values(b)
    scale = 1.0 + max(np.abs(va).max(initial=0.0), np.abs(vb).max(initial=0.0))
    return match_spectra(va, vb) / scale


class NumericalError(ValueError):
    """A solver failed on valid input: roots that do not pair or group as
    the model's symmetry requires, or an eigensolver that did not converge.
    The command line reports these with their own exit code (4)."""


class EigensolverError(NumericalError, RuntimeError):
    pass


def _solver_failure(M: np.ndarray, exc: np.linalg.LinAlgError) -> ValueError:
    """The error to raise for numpy's LinAlgError from a solve of M (which
    the command line would report as a configuration error): ValueError
    where M has a non-finite entry, which LAPACK is never given, and
    `EigensolverError` otherwise."""
    if not np.isfinite(M).all():
        return ValueError("matrix contains non-finite entries")
    return EigensolverError(f"eigensolver failed (shape={M.shape}, frob={np.linalg.norm(M):.6g}): {exc}")


def _eigvals(matrix, vectors: bool = False):
    """Every dense eigensolve of the package: the eigenvalues of a square
    matrix, or of each matrix of a batch along leading axes, as a complex
    array of shape matrix.shape[:-1]; with `vectors` (one matrix), scipy's
    (eigenvalues, left vectors, right vectors) of one ``eig``.

    float64 input stays real and other input is cast to complex.  Input
    with no nonzero imaginary entry is solved in real arithmetic (``dgeev``
    instead of ``zgeev``): the same eigenvalues for less work, the complex
    ones in exact conjugate pairs.  Non-finite entries raise ValueError
    (numpy and scipy refuse them before LAPACK), a LAPACK failure
    `EigensolverError`.
    """
    M = np.asarray(matrix)
    if M.dtype != np.float64:
        M = M.astype(complex, copy=False)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    A = M.real if M.dtype == complex and not M.imag.any() else M
    try:
        if not vectors:
            return np.linalg.eigvals(A).astype(complex, copy=False)
        from scipy.linalg import eig

        return eig(A, left=True, right=True)
    except np.linalg.LinAlgError as exc:
        raise _solver_failure(M, exc) from exc


def dense_spectrum(matrix, want_vectors: bool = False):
    """Dense oracle: all eigenvalues of one general matrix, by `_eigvals`.

    With ``want_vectors=True`` also returns every right and left
    eigenvector from the same decomposition (one ``scipy.linalg.eig``
    call), so column k of both belongs to eigenvalue k without any value
    matching.  Left vectors follow ``vl.conj() @ M = lambda * vl.conj()``,
    and ``vl.conj() @ vr`` is the biorthogonal overlap.  scipy is imported
    for this call only; `models2d.representative_state`, which reports one
    eigenpair, takes the eigenvalues alone and comes here only when a long
    Jordan chain defeats its inverse iteration.

    Returns
    -------
    Spectrum              if not want_vectors
    (Spectrum, vr, vl)    otherwise; vr/vl have eigenvectors in columns.
    """
    if np.ndim(matrix) != 2:
        raise ValueError(f"expected a square matrix, got shape {np.shape(matrix)}")
    if not want_vectors:
        return Spectrum(_eigvals(matrix), "oracle")
    vals, vl, vr = _eigvals(matrix, vectors=True)
    return Spectrum(vals, "oracle"), vr, vl


@dataclass(frozen=True)
class StateProfiles:
    """Site-resolved |psi_r|^2, |psi_l|^2 and (psi_l)* psi_r for one state."""

    rr: np.ndarray
    ll: np.ndarray
    lr: Optional[np.ndarray]
    normalization: str
    overlap: complex

    @property
    def n_sites(self) -> int:
        return len(self.rr)


def expectation_profiles(psi_r, psi_l) -> StateProfiles:
    """Left, right and biorthogonal expectation values of the site projector.

    The biorthogonal profile is normalized so it sums to one; if the
    biorthogonal overlap (psi_l)^dagger psi_r (nearly) vanishes, the profile
    is omitted and flagged via ``normalization='degenerate'``.
    """
    pr = np.asarray(psi_r, dtype=complex).ravel()
    pl = np.asarray(psi_l, dtype=complex).ravel()
    if pr.shape != pl.shape:
        raise ValueError(f"vector length mismatch: {pr.shape} vs {pl.shape}")
    rr = np.abs(pr) ** 2
    ll = np.abs(pl) ** 2
    lr = np.conj(pl) * pr
    overlap = lr.sum()
    scale = np.linalg.norm(pl) * np.linalg.norm(pr)
    if scale == 0:
        raise ValueError("zero eigenvector supplied")
    if abs(overlap) < 1e-12 * scale:
        return StateProfiles(rr, ll, None, "degenerate", complex(overlap))
    return StateProfiles(rr, ll, lr / overlap, "biorthogonal", complex(overlap))


@dataclass(frozen=True)
class LocalizationReport:
    center_of_mass: float
    left_edge_fraction: float
    right_edge_fraction: float
    decay_rate: float
    fit_r2: float


def localization_report(profile) -> LocalizationReport:
    """Localization diagnostics of a site-resolved density.

    Accepts a StateProfiles (uses the right density) or a plain array of
    weights.  The decay rate is |slope| of a least-squares fit of
    log(density) over the heavier half of the chain, excluding 2 boundary
    sites to avoid the oscillatory nodes of the open-chain eigenvectors.
    """
    w = profile.rr if isinstance(profile, StateProfiles) else np.asarray(profile, float)
    w = np.abs(np.asarray(w, dtype=float)).ravel()
    N = len(w)
    if N < 10:
        raise ValueError(f"need at least 10 sites, got {N}")
    total = w.sum()
    if total == 0:
        raise ValueError("all-zero profile")
    w = w / total
    sites = np.arange(1, N + 1, dtype=float)
    com = float((sites * w).sum())
    edge = max(1, int(np.ceil(0.1 * N)))
    left = float(w[:edge].sum())
    right = float(w[-edge:].sum())
    # fit over the heavier half, 2 boundary sites dropped
    half = N // 2
    if right >= left:
        seg = slice(N - half, N - 2)
    else:
        seg = slice(2, half)
    x = sites[seg]
    y = w[seg]
    pos = y > 0
    if pos.sum() < 3:
        return LocalizationReport(com, left, right, 0.0, 0.0)
    x, ly = x[pos], np.log(y[pos])
    A = np.column_stack([x, np.ones_like(x)])
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    if ss_tot == 0:
        r2 = 1.0
    else:
        ss_res = float(res[0]) if len(res) else float(((A @ coef - ly) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot
    return LocalizationReport(com, left, right, float(abs(coef[0])), float(r2))


def hausdorff_points(a, b) -> float:
    """Symmetric Hausdorff distance between two point sets in the plane.

    Pair distances are ``sqrt(dx*dx + dy*dy)``, the arithmetic of a
    Euclidean ``cdist``, not ``abs`` of the complex difference (``hypot``),
    which can differ in the last bit.  The min-max runs on the squared
    distances and only its result is square-rooted: sqrt is monotone and
    correctly rounded, so that is the same number.
    """
    va, vb = _values(a), _values(b)
    if len(va) == 0 or len(vb) == 0:
        raise ValueError("empty spectrum")
    D = np.subtract.outer(va.real, vb.real)
    D *= D
    dy = np.subtract.outer(va.imag, vb.imag)
    dy *= dy
    D += dy
    return float(np.sqrt(max(D.min(axis=1).max(), D.min(axis=0).max())))
