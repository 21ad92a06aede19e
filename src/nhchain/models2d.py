"""Stacked-chain lattices: assembly, Bloch reductions, and closed forms.

A lattice of N2 stacked chains of length N1 is an N1 N2 x N1 N2 block matrix
with diagonal blocks A, super/sub blocks B and C, and corner blocks set by
the stacking boundary mode:

* BC1  -- fully periodic in the stacking direction (corners C and B);
* BC2  -- the similarity-transformable pair: corners delta2^{-1} C and
  delta2 B, which reduce to Bloch blocks carrying omega_j delta2^{1/N2};
* OPEN -- no corner blocks (numeric route only).

BC1/BC2 spectra come from the N2 Bloch blocks A + s_j B + s_j^{-1} C,
solved by `stacked_line` through the chains' per-delta body
(`models1d._line`, provenance "bloch-oracle"): one block of each conjugate
pair where the blocks come in pairs, balanced blocks as Hermitian
matrices, and for even N1 every block at half size, its two sublattices
being its even and odd sites.  On the shipped 30 x 30 hn stacks the
half-size solves take a third to two fifths of the time of the full-size
ones per delta1 (one BLAS thread).  `stacked_hn_spectrum` and
`stacked_ssh_spectrum` also recover each block's shifted wavenumbers from
its eigenvalues through the dispersion relation of the block's effective
chain, by the same inversion helpers as the 1D chains (models1d).  Those wavenumbers lose digits near
alpha_tilde = 0 and pi, where arccos is ill-conditioned; they get no Newton
polish, as no caller uses stacked wavenumbers beyond their count.
The closed forms carry the balance verdicts and the envelope curves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .alphasolver import AlphaSet
from .core import ChainStencil, CornerOperator, EigensolverError, Spectrum, chain_operator, dense_spectrum
from .core import _segment_distance, _values
from .models1d import SSHParams, _alpha_set_from_cos, _hn_wavenumbers, _line, _ssh_wavenumbers, ssh_operator

__all__ = [
    "Stacked2DSpec",
    "EnvelopeCurves",
    "build_stacked_matrix",
    "bc_reduce",
    "stacked_line",
    "stacked_hn_spectrum",
    "stacked_hn_balance",
    "envelope_curves",
    "triangular_spec",
    "triangular_spectrum",
    "kagome_matrix",
    "stacked_ssh_spectrum",
    "stacked_ssh_balance",
    "separable_square_matrix",
    "separable_square_spectrum",
    "representative_state",
    "profile_along_chain",
]

HN_KEYS = ("t_d", "t_l", "t_r", "u_d", "v_dl", "v_dr", "u_u", "v_ul", "v_ur")
SSH_KEYS = tuple(
    f"{base}{i}"
    for base in ("td", "tl", "tr", "ud", "vdl", "vdr", "uu", "vul", "vur")
    for i in (1, 2)
)
# relative tolerance (of max|lambda|) under which representative_state counts
# two eigenvalue keys as tied
STATE_TIE_RTOL = 1e-9
# representative_state's inverse iteration: shift off the eigenvalue, in ulps
# of max|H|
STATE_SHIFT_ULPS = 4
# stacking boundary modes
MODES = ("bc1", "bc2", "open")


@dataclass(frozen=True)
class Stacked2DSpec:
    """Stacked-lattice description: family, parameters, sizes and boundaries.

    family is 'hn', 'ssh' or 'triangular'; params holds the family's hopping
    names (HN_KEYS, SSH_KEYS, or t_l/t_r).  mode is 'bc1', 'bc2' or 'open';
    delta2 is only meaningful for bc2 (bc2 requires delta2 != 0).
    """

    family: str
    params: dict
    n1: int
    n2: int
    delta1: complex = 0.0
    mode: str = "bc1"
    delta2: complex = 1.0

    def __post_init__(self):
        if self.family not in ("hn", "ssh", "triangular"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown boundary mode {self.mode!r}")
        if self.mode == "bc2" and complex(self.delta2) == 0:
            raise ValueError("bc2 requires delta2 != 0")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"a stack needs n1 >= 1 and n2 >= 1, got {self.n1} x {self.n2}")
        if self.family == "ssh" and self.n1 % 2:
            raise ValueError("ssh stacks require even n1")
        object.__setattr__(self, "params", {k: complex(v) for k, v in self.params.items()})
        object.__setattr__(self, "delta2", complex(self.delta2))

    @property
    def corner_coefficients(self) -> tuple[complex, complex]:
        """(upper-right multiplying C, lower-left multiplying B)."""
        if self.mode == "bc1":
            return 1.0 + 0j, 1.0 + 0j
        if self.mode == "open":
            return 0.0 + 0j, 0.0 + 0j
        return 1.0 / self.delta2, self.delta2

    def stack_factors(self) -> np.ndarray:
        """s_j multiplying B in the reduced blocks (1/s_j multiplies C).

        The roots of unity omega_j are computed for j <= N2/2 and completed
        by conjugation: omega_0 = 1 and omega_{N2/2} = -1 are exactly real,
        and omega_{N2-j} = conj(omega_j) exactly.
        """
        half = self.n2 // 2
        omega = np.exp(2j * np.pi * np.arange(half + 1) / self.n2)
        omega[0] = 1.0
        if self.n2 % 2 == 0:
            omega[half] = -1.0
        omega = np.concatenate([omega, omega[1:(self.n2 + 1) // 2][::-1].conj()])
        if self.mode == "bc1":
            return omega
        if self.mode == "bc2":
            return omega * self.delta2 ** (1.0 / self.n2)
        raise ValueError("no Bloch reduction exists for open stacking; "
                         "use the dense oracle on build_stacked_matrix")


def _hn_like_operator(n, diag, sup, sub) -> CornerOperator:
    hops = {}
    if sup != 0:
        hops[1] = sup
    if sub != 0:
        hops[-1] = sub
    return chain_operator(ChainStencil(n, hops, (diag,)))


def _hn_params(spec: Stacked2DSpec) -> dict:
    """The HN_KEYS parameters of an hn or triangular stack: the triangular
    lattice is the hn stack with t_d = v_dl = v_ur = 0, u_d = v_ul = t_r and
    v_dr = u_u = t_l."""
    p = spec.params
    if spec.family == "hn":
        return p
    return {"t_d": 0.0, "t_l": p["t_l"], "t_r": p["t_r"], "u_d": p["t_r"], "v_dl": 0.0,
            "v_dr": p["t_l"], "u_u": p["t_l"], "v_ul": p["t_r"], "v_ur": 0.0}


def block_operators(spec: Stacked2DSpec) -> tuple[CornerOperator, CornerOperator, CornerOperator]:
    """The three N1 x N1 blocks (A, B, C) as functions of delta1."""
    p, n1 = spec.params, spec.n1
    if spec.family != "ssh":
        p = _hn_params(spec)
        return (_hn_like_operator(n1, p["t_d"], p["t_l"], p["t_r"]),
                _hn_like_operator(n1, p["u_d"], p["v_dl"], p["v_dr"]),
                _hn_like_operator(n1, p["u_u"], p["v_ul"], p["v_ur"]))
    return (ssh_operator(SSHParams(p["tl1"], p["tr1"], p["tl2"], p["tr2"], p["td1"], p["td2"]), n1),
            ssh_operator(SSHParams(p["vdl1"], p["vdr1"], p["vdl2"], p["vdr2"], p["ud1"], p["ud2"]), n1),
            ssh_operator(SSHParams(p["vul1"], p["vur1"], p["vul2"], p["vur2"], p["uu1"], p["uu2"]), n1))


def blocks(spec: Stacked2DSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three N1 x N1 blocks (A, B, C) at this delta1."""
    return tuple(op.at(spec.delta1) for op in block_operators(spec))


def build_stacked_matrix(spec: Stacked2DSpec) -> np.ndarray:
    """Assemble the full N1 N2 x N1 N2 operator.

    The matrix is float64 when the blocks and the corner coefficients have
    no nonzero imaginary part (the entries are the real parts of the
    complex assembly, bit for bit), complex otherwise.
    """
    A, B, C = blocks(spec)
    n1, n2 = spec.n1, spec.n2
    ctr, cbl = spec.corner_coefficients
    dtype = complex
    if not (A.imag.any() or B.imag.any() or C.imag.any()) and ctr.imag == cbl.imag == 0:
        dtype = float
        A, B, C, ctr, cbl = A.real, B.real, C.real, ctr.real, cbl.real
    H = np.zeros((n1 * n2, n1 * n2), dtype=dtype)
    for j in range(n2):
        sl = slice(j * n1, (j + 1) * n1)
        H[sl, sl] = A
        if j + 1 < n2:
            nxt = slice((j + 1) * n1, (j + 2) * n1)
            H[sl, nxt] = B
            H[nxt, sl] = C
    if n2 > 1:
        H[0:n1, (n2 - 1) * n1:] += ctr * C
        H[(n2 - 1) * n1:, 0:n1] += cbl * B
    else:
        H[0:n1, 0:n1] += ctr * C + cbl * B
    return H


def bc_reduce(spec: Stacked2DSpec) -> list[np.ndarray]:
    """The N2 Bloch blocks A + s_j B + s_j^{-1} C (BC1/BC2 only)."""
    A, B, C = blocks(spec)
    return [A + s * B + C / s for s in spec.stack_factors()]


def lift_block_vector(vec: np.ndarray, s_j: complex, n2: int) -> np.ndarray:
    """Lift an N1 block eigenvector to the stacked lattice (BC1: s_j = omega_j)."""
    return np.concatenate([vec * s_j**m for m in range(n2)])


def _stack_h_coeffs(spec: Stacked2DSpec, s: complex) -> dict:
    """Per-block effective chain parameters at stacking factor s."""
    p = spec.params
    if spec.family != "ssh":
        p = _hn_params(spec)
        return {
            "h_d": p["t_d"] + s * p["u_d"] + p["u_u"] / s,
            "h_l": p["t_l"] + s * p["v_dl"] + p["v_ul"] / s,
            "h_r": p["t_r"] + s * p["v_dr"] + p["v_ur"] / s,
        }
    return {
        "hd1": p["td1"] + s * p["ud1"] + p["uu1"] / s,
        "hd2": p["td2"] + s * p["ud2"] + p["uu2"] / s,
        "hl1": p["tl1"] + s * p["vdl1"] + p["vul1"] / s,
        "hl2": p["tl2"] + s * p["vdl2"] + p["vul2"] / s,
        "hr1": p["tr1"] + s * p["vdr1"] + p["vur1"] / s,
        "hr2": p["tr2"] + s * p["vdr2"] + p["vur2"] / s,
    }


def stacked_line(spec: Stacked2DSpec) -> Callable[[object], Spectrum]:
    """delta1 -> eigenvalues of a BC1/BC2 stack (hn, ssh or triangular
    family) at that delta1 (spec.delta1 itself is not used), rows in block
    order j: N1 eigenvalues of block 0, then of block 1, and so on, from
    `models1d._line`, provenance "bloch-oracle".  Open stacking has no Bloch
    reduction and raises ValueError here.

    At a real delta1 the blocks that are Hermitian up to a shift and a phase
    at every real delta1 are solved as Hermitian matrices: under BC1 all
    the blocks of a stack that the paper's balance condition |h_l(s)| =
    |h_r(s)| on the unit circle holds for (`stacked_hn_balance` cases 1-4
    and 'general-r', the triangular lattice), real or complex.  Each block
    is then a chain with diagonal h_d and hoppings of equal modulus whose
    product has one phase e^{2 i psi}, so its eigenvalues lie on the line
    h_d + e^{i psi} R.  parameters["hermitian_blocks"] counts the blocks
    (of N2) solved as Hermitian matrices, parameters["sublattice_blocks"]
    those solved at half size.
    """
    return _line(lambda: block_operators(spec), spec.stack_factors(), 2 if spec.n1 % 2 == 0 else None)


def _bloch_spectrum(spec: Stacked2DSpec, hop_keys: tuple, wavenumbers):
    """(`stacked_line(spec)` at spec.delta1, per-block AlphaSet or None).

    A block whose hoppings `hop_keys` are all nonzero gets the wavenumbers
    that `wavenumbers(h, lam)` recovers from its eigenvalues: given the
    effective coefficients (arrays over those blocks) and their eigenvalue
    rows, it returns (cos alpha_tilde rows, shifts).  The other blocks get
    None.
    """
    out = stacked_line(spec)(spec.delta1)
    lam = out.eigenvalues.reshape(spec.n2, spec.n1)
    h = _stack_h_coeffs(spec, spec.stack_factors())
    scale = max(abs(v) for v in spec.params.values()) or 1.0
    ok = np.min([np.abs(h[k]) for k in hop_keys], axis=0) >= 1e-12 * scale
    cos_alpha, shift = wavenumbers({k: v[ok] for k, v in h.items()}, lam[ok])
    alpha_sets: list[Optional[AlphaSet]] = [None] * spec.n2
    for j, c, sh in zip(np.flatnonzero(ok), cos_alpha, shift):
        alpha_sets[j] = _alpha_set_from_cos(c, sh, "bloch-eig")
    return out, alpha_sets


def stacked_hn_spectrum(spec: Stacked2DSpec):
    """Spectrum of an HN (or triangular) stack under BC1/BC2.

    Per stacking factor s_j the Bloch block is a nearest-neighbour chain
    with h_d, h_l, h_r.  The eigenvalues are `stacked_line(spec)` at
    spec.delta1 (provenance "bloch-oracle"), rows in block order j.  Each block's
    shifted wavenumbers are recovered from its eigenvalues through
    cos(alpha_tilde) = (lambda - h_d) / (2 sqrt(h_l) sqrt(h_r)), N1 per
    block; a block with a vanishing h_l or h_r has none and gets None.
    arccos loses digits near alpha_tilde = 0 and pi; there is no Newton
    polish, since no caller uses stacked wavenumbers beyond their count.
    """
    if spec.family not in ("hn", "triangular"):
        raise ValueError(f"stacked_hn_spectrum expects an hn-like family, got {spec.family!r}")
    return _bloch_spectrum(spec, ("h_l", "h_r"), _hn_wavenumbers)


def stacked_ssh_spectrum(spec: Stacked2DSpec):
    """Spectrum of an SSH stack under BC1/BC2 (even N1).

    Eigenvalues from `stacked_line`, as for `stacked_hn_spectrum`,
    provenance "bloch-oracle".  Wavenumbers come from the two-band relation
    of each block's effective chain
    (`models1d._ssh_wavenumbers`): one alpha_tilde per +- pair, N1/2 per
    block, None where an effective hopping vanishes.  As there, they lose
    digits near 0 and pi with no Newton polish.
    """
    if spec.family != "ssh":
        raise ValueError(f"stacked_ssh_spectrum expects family 'ssh', got {spec.family!r}")
    return _bloch_spectrum(spec, ("hl1", "hl2", "hr1", "hr2"), _ssh_wavenumbers)


# ---------------------------------------------------------------------------
# balance-case classification (real parameters)
# ---------------------------------------------------------------------------

def _req_real(params: dict, what: str):
    if any(abs(v.imag) > 1e-12 for v in params.values()):
        raise ValueError(f"{what} assumes real parameters")


# absolute tolerance of the balance classification's equalities and
# per-j modulus checks
_BALANCE_TOL = 1e-10


def _eq(a, b) -> bool:
    return abs(a - b) <= _BALANCE_TOL


def stacked_hn_balance(spec: Stacked2DSpec) -> str:
    """Case tag of the stacking balance condition |h_l / h_r| = 1.

    Structural cases (real parameters): case1 h_r = conj(h_l), case2
    h_r = h_l, case3 h_l = omega h_r, case4 h_l = h_r / omega; otherwise a
    per-j modulus check decides 'general-r' vs 'unbalanced'.  Hoppings in
    the periodic direction (t_d, u_d, u_u) never enter.
    """
    if spec.family == "triangular":
        return "case4"
    p = spec.params
    _req_real(p, "case classification")
    t_l, t_r = p["t_l"].real, p["t_r"].real
    v_dl, v_dr = p["v_dl"].real, p["v_dr"].real
    v_ul, v_ur = p["v_ul"].real, p["v_ur"].real
    if _eq(t_r, t_l) and _eq(v_ur, v_dl) and _eq(v_dr, v_ul):
        return "case1"
    if _eq(t_r, t_l) and _eq(v_ul, v_ur) and _eq(v_dl, v_dr):
        return "case2"
    if _eq(t_l, v_ur) and _eq(v_dl, t_r) and _eq(v_ul, 0) and _eq(v_dr, 0):
        return "case3"
    if _eq(t_l, v_dr) and _eq(v_dl, 0) and _eq(v_ur, 0) and _eq(v_ul, t_r):
        return "case4"
    return _per_block_case(spec, lambda h: (h["h_l"], h["h_r"]))


def _per_block_case(spec: Stacked2DSpec, ratio: Callable) -> str:
    """'general-r' when |num / den| is 1 within `_BALANCE_TOL` on every
    block, (num, den) = ratio of its `_stack_h_coeffs`, else 'unbalanced'."""
    for s in spec.stack_factors():
        num, den = ratio(_stack_h_coeffs(spec, s))
        if abs(den) == 0 or abs(abs(num / den) - 1.0) > _BALANCE_TOL:
            return "unbalanced"
    return "general-r"


_SSH_CASES_INDIVIDUAL = {
    # case -> list of (lhs key, rhs key) equalities among individual hoppings
    "case1": [("tr1", "tl1"), ("vdr1", "vdl1"), ("vur1", "vul1"),
              ("tr2", "tl2"), ("vdr2", "vdl2"), ("vur2", "vul2")],
    "case2": [("tr1", "tl1"), ("vdr1", "vul1"), ("vur1", "vdl1"),
              ("tr2", "tl2"), ("vdr2", "vul2"), ("vur2", "vdl2")],
    "case3": [("tr1", "tl2"), ("vdr1", "vdl2"), ("vur1", "vul2"),
              ("tr2", "tl1"), ("vdr2", "vdl1"), ("vur2", "vul1")],
    "case4": [("tr1", "tl2"), ("vdr1", "vul2"), ("vur1", "vdl2"),
              ("tr2", "tl1"), ("vdr2", "vul1"), ("vur2", "vdl1")],
}


def _ssh_product_case_residual(p: dict, shift: int) -> float:
    """Residual of h_r1 h_r2 = omega^shift h_l1 h_l2 as a Laurent identity.

    Each h is vu/omega + t + vd omega, so each product is a Laurent
    quadratic; its coefficients of omega^-2..2, convolved from the two
    triples (vu, t, vd), go to slots -4..4, the left ones `shift` slots up,
    and the residual is the largest difference of a slot.
    """
    def product(side: str, at: int) -> np.ndarray:
        slots = np.zeros(9)
        slots[at:at + 5] = np.convolve(*([p[f"{h}{side}{i}"] for h in ("vu", "t", "vd")] for i in (1, 2)))
        return slots

    return float(np.abs(product("r", 2) - product("l", 2 + shift)).max())


def stacked_ssh_balance(spec: Stacked2DSpec) -> str:
    """Case tag of |sqrt(h_r1 h_r2) / sqrt(h_l1 h_l2)| = 1 for SSH stacks.

    Cases 1-4 are equalities between individual hoppings; cases 5-7 relate
    products of adjacent hoppings (h_r1 h_r2 = omega^r h_l1 h_l2 for
    r = 0, j, 2j).  Falls back to the per-j modulus check ('general-r'),
    else 'unbalanced'.
    """
    p = {k: v.real for k, v in spec.params.items()}
    _req_real(spec.params, "case classification")
    for case, eqs in _SSH_CASES_INDIVIDUAL.items():
        if all(_eq(p[a], p[b]) for a, b in eqs):
            return case
    for case, shift in (("case5", 0), ("case6", 1), ("case7", 2)):
        if _ssh_product_case_residual(p, shift) <= _BALANCE_TOL:
            return case
    return _per_block_case(spec, lambda h: (h["hr1"] * h["hr2"], h["hl1"] * h["hl2"]))


# ---------------------------------------------------------------------------
# envelope curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeCurves:
    t_grid: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    z_plus: np.ndarray
    z_minus: np.ndarray
    loop: Optional[np.ndarray] = None
    case: str = ""


def envelope_curves(spec: Stacked2DSpec, t_grid=None) -> EnvelopeCurves:
    """The boundary curves z1(t) +- z2(t) of a balanced HN stack; an
    unbalanced one raises ValueError.

    z1(t) = t_d + e^{it} u_d + e^{-it} u_u and z2(t) =
    2 sqrt(t_r + e^{it} v_dr + e^{-it} v_ur) sqrt(t_l + e^{it} v_dl +
    e^{-it} v_ul); the eigenvalues of a balanced stack lie on the straight
    segments [z_-(t), z_+(t)].  For cases 3 and 4 the two curves join into a
    single closed loop, returned in `loop`: t_d + u_d e^{2it} + u_u e^{-2it}
    plus the short-range term, written with cos 2t and sin 2t, which holds
    for complex parameters too.  The case is `stacked_hn_balance`'s (the
    triangular lattice, complex hoppings included, is case 4), and z1, h_l,
    h_r are `_stack_h_coeffs` at s = e^{it}.
    """
    case = stacked_hn_balance(spec)
    if case == "unbalanced":
        raise ValueError("envelope curves are defined for balanced stacks")
    if t_grid is None:
        t_grid = np.linspace(0.0, 2 * np.pi, 361)
    t_grid = np.asarray(t_grid, dtype=float)
    h = _stack_h_coeffs(spec, np.exp(1j * t_grid))
    z1 = h["h_d"]
    z2 = 2.0 * np.sqrt(h["h_r"]) * np.sqrt(h["h_l"])
    loop = None
    if case in ("case3", "case4"):
        p = _hn_params(spec)
        t_d, u_d, u_u, t_l, t_r = (p[k] for k in ("t_d", "u_d", "u_u", "t_l", "t_r"))
        if case == "case3":
            short = 2 * (t_l * np.exp(-1j * t_grid) + t_r * np.exp(1j * t_grid))
        else:
            short = 2 * (t_l * np.exp(1j * t_grid) + t_r * np.exp(-1j * t_grid))
        loop = t_d + (u_u + u_d) * np.cos(2 * t_grid) + 1j * (u_d - u_u) * np.sin(2 * t_grid) + short
    return EnvelopeCurves(t_grid, z1, z2, z1 + z2, z1 - z2, loop, case)


def segment_distance(points, z_minus, z_plus) -> np.ndarray:
    """Distance of complex points to the segment [z_minus, z_plus]."""
    a = complex(z_minus)
    return _segment_distance(np.asarray(points, dtype=complex).ravel(), a, complex(z_plus) - a)


# ---------------------------------------------------------------------------
# triangular lattice
# ---------------------------------------------------------------------------

def triangular_spec(t_l, t_r, n1, n2, delta1, mode="bc1", delta2=1.0) -> Stacked2DSpec:
    return Stacked2DSpec("triangular", {"t_l": t_l, "t_r": t_r}, n1, n2, delta1, mode, delta2)


def triangular_spectrum(spec: Stacked2DSpec):
    """Triangular-lattice spectrum: analytic for BC1/BC2, oracle for OPEN."""
    if spec.family != "triangular":
        raise ValueError("triangular_spectrum expects a triangular spec")
    if spec.mode == "open":
        return dense_spectrum(build_stacked_matrix(spec)), [None] * spec.n2
    return stacked_hn_spectrum(spec)


def representative_state(matrix):
    """Eigenpair whose |lambda| is closest to the spectral median.

    Returns (lambda, vr, vl): vr is a right eigenvector, and vl a left one
    in the convention of `dense_spectrum` (``vl.conj() @ M = lambda *
    vl.conj()``), both of unit 2-norm.

    For an even count the median is the mean of the two middle magnitudes,
    so at least two eigenvalues are equally close (four when each has a
    complex-conjugate partner).  Candidates are all eigenvalues within
    ``STATE_TIE_RTOL * max|lambda|`` of the smallest distance.  Among them the
    choice is lexicographic on (|lambda|, -Im lambda, -Re lambda): the lower
    magnitude, then the larger imaginary part, then the larger real part,
    with keys closer than the same tolerance counted as equal.  The choice
    therefore depends on the eigenvalues alone, not on their order in the
    eigensolver output.

    Only the eigenvalues come from the dense eigensolver; the two vectors
    come from `_inverse_iteration` at the chosen lambda, so no other
    eigenvector is computed.  An eigenvalue with a one-dimensional
    eigenspace gets its eigenvector, a short Jordan chain included (a
    Jordan block's vectors, whose biorthogonal overlap vanishes).  An
    eigenvalue with a larger eigenspace gets the vector of it that the fixed
    start vector leads to; like the eigenvalue, it does not depend on the
    order of the eigensolver output.

    A long Jordan chain defeats the inverse iteration: on a nilpotent open
    chain (hopping one way only) the solves grow by max|M| / shift per
    site and leave the float range from 11 sites on.  Then the state
    comes from the full eigendecomposition, ``dense_spectrum(M,
    want_vectors=True)``: lambda chosen by the same rule among its
    eigenvalues, and the right and left vectors of its column.
    """
    M = np.asarray(matrix)
    lam = dense_spectrum(M).eigenvalues
    k = _representative_index(lam)
    try:
        return (lam[k], *_inverse_iteration(M, lam[k]))
    except EigensolverError:
        spec, vr, vl = dense_spectrum(M, want_vectors=True)
        k = _representative_index(spec.eigenvalues)
        return spec.eigenvalues[k], vr[:, k], vl[:, k]


def _representative_index(lam: np.ndarray) -> int:
    """Index of the eigenvalue that `representative_state` reports."""
    mags = np.abs(lam)
    tol = STATE_TIE_RTOL * mags.max()
    dist = np.abs(mags - _median(mags))
    cand = np.flatnonzero(dist <= dist.min() + tol)
    for key in (mags, -lam.imag, -lam.real):
        cand = cand[key[cand] <= key[cand].min() + tol]
    return int(cand[0])


def _median(x: np.ndarray) -> float:
    """np.median of a 1-D float array, bit for bit, from one sort (np.median
    loads numpy.ma)."""
    s = np.sort(x)
    n = len(s)
    return (s[(n - 1) // 2] + s[n // 2]) / 2


def _shifted_pair(M: np.ndarray, mu) -> np.ndarray:
    """The stack [M - mu I, (M - mu I)^H] in one (2, n, n) array."""
    n = len(M)
    diag = mu * np.eye(n)
    stack = np.empty((2, n, n), dtype=np.result_type(M, diag))
    np.subtract(M, diag, out=stack[0])
    np.conjugate(stack[0].T, out=stack[1])
    return stack


def _inverse_iteration(M: np.ndarray, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """Right and left eigenvectors of M at its eigenvalue lam, unit 2-norm.

    Two steps of inverse iteration (Ipsen, SIAM Rev. 39, 254, 1997) from
    fixed start vectors, on the stack [M - mu I, (M - mu I)^H]: each step is
    one batched solve and a normalisation.  The start vectors are the Weyl
    phases exp(2 pi i frac(k phi)), k = 1..2n, phi the golden ratio: entry k
    is z^k with z = exp(2 pi i phi) no root of unity, so they have a
    component along every Fourier mode of a chain, where a uniform vector
    has one along a single mode.  The shift mu is lam moved by
    STATE_SHIFT_ULPS ulps of max(|lam|, max|M|), so an exactly computed
    eigenvalue does not leave M - mu I singular, however large |lam| is
    against the entries.  Raises EigensolverError when a solve meets a zero
    pivot or leaves the float range.
    """
    n = len(M)
    scale = max(abs(lam), np.abs(M).max()) or 1.0
    mu = lam + STATE_SHIFT_ULPS * np.finfo(float).eps * scale
    stack = _shifted_pair(M, mu)
    k = np.arange(1, 2 * n + 1)
    x = np.exp(2j * np.pi * (k * ((1 + 5 ** 0.5) / 2) % 1.0)).reshape(2, n, 1)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):
                x = np.linalg.solve(stack, x)
                x /= np.linalg.norm(x, axis=1, keepdims=True)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"inverse iteration at {complex(lam):.6g} failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise EigensolverError(f"inverse iteration at {complex(lam):.6g} overflowed")
    return x[0, :, 0], x[1, :, 0]


def profile_along_chain(vec, n1: int, n2: int, sublattice: int = 1) -> np.ndarray:
    """|psi|^2 aggregated over the stacking direction: a length-n1 profile."""
    v = np.asarray(vec).ravel()
    dens = np.abs(v) ** 2
    if len(v) == n1 * n2 * sublattice:
        dens = dens.reshape(n2, n1, sublattice).sum(axis=(0, 2))
    else:
        raise ValueError(f"vector length {len(v)} != n1*n2*sublattice")
    return dens


# ---------------------------------------------------------------------------
# Kagome lattice (numeric only)
# ---------------------------------------------------------------------------

_KAGOME_UP = [
    # (src sublattice, (di, dj), dst sublattice); amplitude tag 'r' is the
    # counterclockwise direction around each triangle
    (0, (0, 0), 1, "r"), (1, (0, 0), 2, "r"), (2, (0, 0), 0, "r"),
    (1, (0, 0), 0, "l"), (2, (0, 0), 1, "l"), (0, (0, 0), 2, "l"),
]
_KAGOME_DOWN = [
    (1, (1, -1), 2, "r"), (2, (0, 1), 0, "r"), (0, (-1, 0), 1, "r"),
    (2, (-1, 1), 1, "l"), (0, (0, -1), 2, "l"), (1, (1, 0), 0, "l"),
]


def kagome_matrix(t_l, t_r, n1: int, n2: int, delta1, delta2, delta2p,
                  inter_scale: float = 1.0) -> np.ndarray:
    """Kagome lattice operator on an n1 x n2 grid of three-site cells.

    Counterclockwise hops carry t_r and clockwise hops t_l on both the
    in-cell triangles and the inter-cell triangles (the latter scaled by
    `inter_scale`; zero decouples the lattice into 3 x 3 cell blocks).
    Bonds wrapping the first direction pick up delta1; bonds wrapping the
    stacking direction pick up delta2 (+1 wraps) or delta2p (-1 wraps).
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("need at least a 2 x 2 grid of cells")
    amps = {"l": complex(t_l), "r": complex(t_r)}
    d1, d2, d2p = complex(delta1), complex(delta2), complex(delta2p)
    dim = 3 * n1 * n2
    H = np.zeros((dim, dim), dtype=complex)

    def idx(i, j, s):
        return (j * n1 + i) * 3 + s

    def place(bonds, scale):
        for s_src, (di, dj), s_dst, tag in bonds:
            amp = amps[tag] * scale
            if amp == 0:
                continue
            for j in range(n2):
                for i in range(n1):
                    ii, jj = i + di, j + dj
                    factor = 1.0 + 0j
                    if ii < 0 or ii >= n1:
                        factor *= d1
                        ii %= n1
                    if jj >= n2:
                        factor *= d2
                        jj -= n2
                    elif jj < 0:
                        factor *= d2p
                        jj += n2
                    if factor != 0:
                        H[idx(ii, jj, s_dst), idx(i, j, s_src)] += amp * factor

    place(_KAGOME_UP, 1.0)
    place(_KAGOME_DOWN, complex(inter_scale))
    return H


# ---------------------------------------------------------------------------
# separable square lattice
# ---------------------------------------------------------------------------

def separable_square_matrix(chain_a: np.ndarray, chain_b: np.ndarray) -> np.ndarray:
    """Kronecker assembly of two independent chain directions."""
    A = np.asarray(chain_a, dtype=complex)
    Kb = np.asarray(chain_b, dtype=complex)
    return np.kron(np.eye(len(Kb)), A) + np.kron(Kb, np.eye(len(A)))


def separable_square_spectrum(spectrum_a, spectrum_b) -> Spectrum:
    """Minkowski sum of two solved 1D spectra: all pairwise lambda_a + lambda_b.

    The sum is "analytic" when both inputs are (bare arrays count as
    analytic), else "oracle": the 1D chain spectra mostly come from the
    dense eigensolver.
    """
    va, vb = _values(spectrum_a), _values(spectrum_b)
    analytic = all(getattr(s, "provenance", "analytic") == "analytic" for s in (spectrum_a, spectrum_b))
    return Spectrum((va[:, None] + vb[None, :]).ravel(), "analytic" if analytic else "oracle")
