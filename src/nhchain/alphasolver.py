"""Boundary-determinant conditions as polynomial root problems in y = e^{i*alpha}.

The transcendental equations fixing the shifted wavenumbers of the solvable
chains are cleared into polynomials by writing every sin(m*a)/sin(a) ratio as
a Laurent polynomial in y.  Each known trivial factor is removed once: the
y = +-1 artifacts of the one-band and two-band equations stay in the cleared
equation and `roots` leaves them out on its s = y + 1/y route, and the
builder of the mixed long-range chain drops the roots of its spurious cubic
factor from the equation's roots: one root in w = y^3 when 3 | N, three in
y otherwise.  The remaining roots encode exactly the physical wavenumbers;
on the s route they come in (y, 1/y) pairs.

This is the paper's route to the chain spectra.  The models1d closed-form
entries (`hn_closed_form`, `ssh_closed_form`, `mixed_longrange_closed_form`)
run it, and the command line checks them against the dense oracle at a
reduced size; the production chain spectra come from the dense eigensolver.
The route loses digits as the chain grows: from N of about 50 for
unbalanced chains the Newton polish can pull the two roots of a pair apart.
`alpha_from_roots` then raises `NumericalError` instead of returning a wrong
spectrum.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import NumericalError
from .core import as_corner_pair as _pair
from .core import principal_sqrt as _sq

__all__ = [
    "AlphaSet",
    "PolyY",
    "dirichlet_ratio",
    "polynomialize",
    "roots",
    "alpha_from_roots",
    "verify_generic",
]

DEDUP_TOL = 1e-9
GROUP_TOL = 1e-6


def dirichlet_ratio(n: int, alpha) -> complex:
    """sin(n*alpha)/sin(alpha), stable near the zeros of sin(alpha).

    Near sin(alpha) = 0 the quotient is evaluated through its polynomial form
    in cos(alpha) (a Chebyshev recurrence), which gives the limit value n at
    alpha = 0 exactly.
    """
    if n < 0:
        return -dirichlet_ratio(-n, alpha)
    if n == 0:
        return 0.0 + 0.0j
    a = complex(alpha)
    s = np.sin(a)
    if abs(s) > 1e-3:
        return complex(np.sin(n * a) / s)
    c = np.cos(a)
    u_prev, u = 0.0 + 0.0j, 1.0 + 0.0j  # U_{-1}, U_0
    for _ in range(n - 1):
        u_prev, u = u, 2 * c * u - u_prev
    return complex(u)


@dataclass(frozen=True)
class AlphaSet:
    """Solved shifted-wavenumber values with their multiplicities.

    `shift` is the constant relating alpha and the shifted variable,
    alpha_tilde = alpha + shift; `generator` names the producing equation.
    """

    values: np.ndarray
    multiplicity: np.ndarray
    shift: complex
    generator: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "multiplicity", np.asarray(self.multiplicity, dtype=int))

    def expand(self) -> np.ndarray:
        """alpha_tilde values repeated according to multiplicity."""
        return np.repeat(self.values, self.multiplicity)

    def __len__(self):
        return int(self.multiplicity.sum())


@dataclass(frozen=True)
class PolyY:
    """A cleared boundary equation: a polynomial in y with ascending
    coefficients.  `roots` never returns the roots of `removed_factors`: a
    `palindromic` PolyY ("anti" or "pal") still carries them, and
    `known_roots` are the equation's roots without them, solved by the
    builder.  `degree` counts the `known_roots` where there are some, else
    it is the degree of the equation."""

    coeffs: np.ndarray
    removed_factors: tuple = ()
    palindromic: str = ""
    known_roots: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        if self.known_roots is not None:
            return len(self.known_roots)
        return len(self.coeffs) - 1


def _np_roots(desc: np.ndarray) -> np.ndarray:
    """np.roots of the descending coefficients `desc`; a LAPACK failure of
    its companion eigensolve refuses the closed form (`NumericalError`)."""
    try:
        return np.roots(desc)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"companion eigensolve failed: {exc}") from exc


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop exactly-zero leading entries only: the cleared equations can have
    a very wide but genuine coefficient range, so no relative cut is safe."""
    if np.abs(coeffs).max() == 0:
        raise ValueError("zero polynomial")
    k = len(coeffs)
    while k > 1 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


def _anti_poly(n: int, a: complex, b: complex, c: complex) -> PolyY:
    """The cleared four-term equation of the one-band and even two-band chains,
    -(y^(2n+2) - 1) + a (y^(2n+1) - y) + b (y^(2n) - y^2) + c (y^(n+2) - y^n) = 0:
    antipalindromic, with the factors y - 1 and y + 1."""
    P = np.zeros(2 * n + 3, dtype=complex)
    terms = ((n + 1, -1.0), (n, a), (n - 1, b), (1, c))
    for m, weight in terms if c != 0 else terms[:3]:  # a vanishing c leaves signed zeros as they are
        P[n + 1 + m] += weight
        P[n + 1 - m] -= weight
    return PolyY(P, ("(y - 1)", "(y + 1)"), "anti")


def _hn_poly(params: dict, N: int, delta) -> PolyY:
    t_l, t_r = complex(params["t_l"]), complex(params["t_r"])
    if t_l == 0 or t_r == 0:
        raise ValueError("t_l and t_r must be nonzero for the analytic route")
    e1 = complex(params.get("eps1", 0.0))
    eN = complex(params.get("epsN", 0.0))
    dl, dr = _pair(delta)
    rho = _sq(t_l) / _sq(t_r)
    E = (e1 + eN) / (_sq(t_r) * _sq(t_l))
    F = dl * dr - e1 * eN / (t_l * t_r)
    G = dl * rho**N + dr * rho ** (-N)
    # the sin-cleared equation, multiplied by 2i y^(N+1)
    return _anti_poly(N, E, F, G)


def _ssh_even_poly(params: dict, N: int, delta) -> PolyY:
    if N % 2:
        raise ValueError(f"even chain length required, got N = {N}")
    tl1, tr1 = complex(params["tl1"]), complex(params["tr1"])
    tl2, tr2 = complex(params["tl2"]), complex(params["tr2"])
    if 0 in (tl1, tr1, tl2, tr2):
        raise ValueError("all four hoppings must be nonzero for the analytic route")
    dl, dr = _pair(delta)
    M = N // 2
    R = (_sq(tl2) * _sq(tr2)) / (_sq(tl1) * _sq(tr1))
    rho = (_sq(tr1) * _sq(tr2)) / (_sq(tl1) * _sq(tl2))
    B = dr * rho**M + dl * rho ** (-M)
    dd = dl * dr
    # multiplied by 2i y^(M+1)
    return _anti_poly(M, (dd - 1) * R, dd, B)


def _ssh_odd_poly(params: dict, N: int, delta) -> PolyY:
    if N % 2 == 0:
        raise ValueError(f"odd chain length required, got N = {N}")
    tl1, tr1 = complex(params["tl1"]), complex(params["tr1"])
    tl2, tr2 = complex(params["tl2"]), complex(params["tr2"])
    if 0 in (tl1, tr1, tl2, tr2):
        raise ValueError("all four hoppings must be nonzero for the analytic route")
    dl, dr = _pair(delta)
    C0 = tl1 * tr1 + tl2 * tr2
    C1 = _sq(tl1) * _sq(tr1) * _sq(tl2) * _sq(tr2)
    rho = (_sq(tr1) * _sq(tr2)) / (_sq(tl1) * _sq(tl2))
    D = (
        dr**2 * tr1 * tr2 * rho ** (N - 1)
        + dl**2 * tl1 * tl2 * rho ** (-(N - 1))
        + 2 * dl * dr * C1
    )
    # lambda^2(y) * (F y^p)^2 * y = D (y^2 - 1)^2 y^N  with
    # F y^p = y^(N+1) - 1 - dl dr (y^N - y)
    Fyp = np.zeros(N + 2, dtype=complex)
    Fyp[N + 1] = 1.0
    Fyp[0] = -1.0
    Fyp[N] -= dl * dr
    Fyp[1] += dl * dr
    quad = np.array([C1, C0, C1], dtype=complex)
    G = np.convolve(quad, np.convolve(Fyp, Fyp))
    sub = np.zeros(N + 5, dtype=complex)
    sub[N] = 1.0
    sub[N + 2] = -2.0
    sub[N + 4] = 1.0
    size = max(len(G), len(sub))
    P = np.zeros(size, dtype=complex)
    P[: len(G)] += G
    P[: len(sub)] -= D * sub
    return PolyY(P, ("(y - 1)^2", "(y + 1)^2"), "pal")


def _p_recursion(N: int) -> list[np.ndarray]:
    """p(n) as ascending coefficient arrays in r; p(0) = 0, p(1) = -1."""
    ps = [np.zeros(1), np.array([-1.0])]
    for n in range(2, N + 1):
        a = -ps[n - 1]
        b = np.concatenate([[0.0], ps[n - 2]])
        out = np.zeros(max(len(a), len(b)))
        out[: len(a)] += a
        out[: len(b)] += b
        ps.append(out)
    return ps


@functools.lru_cache(maxsize=32)
def _mixed_basis(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The delta-independent parts of the mixed chain's cleared equation,
    cached per N (so read-only): rows[i] are the ascending coefficients in
    r = c y^-3 of 1, r, p(N), r p(N), r p(N-1), r^2 p(N-1), r^N and
    r^(N+1), and exponents[b, k] is the power of y that r^k lands on in
    block b of `_mixed_poly` (y^(3N+3), y^(2N+3), y^(4N+3), y^(N+3) times
    an r-polynomial)."""
    L = N + 2
    ps = _p_recursion(N)
    pN, pN1 = ps[N], ps[N - 1]
    rows = np.zeros((8, L))
    rows[0, 0] = rows[1, 1] = rows[6, N] = rows[7, N + 1] = 1.0
    rows[2, : len(pN)] = pN
    rows[3, 1 : len(pN) + 1] = pN
    rows[4, 1 : len(pN1) + 1] = pN1
    rows[5, 2 : len(pN1) + 2] = pN1
    exponents = np.array([3 * N + 3, 2 * N + 3, 4 * N + 3, N + 3])[:, None] - 3 * np.arange(L)
    rows.setflags(write=False)
    exponents.setflags(write=False)
    return rows, exponents


def _mixed_poly(params: dict, N: int, delta) -> PolyY:
    t_r, u_l = complex(params["t_r"]), complex(params["u_l"])
    if u_l == 0:
        raise ValueError("u_l must be nonzero")
    d, dr = _pair(delta)
    if d != dr:
        raise ValueError("the mixed long-range equation takes one corner value, "
                         f"got delta_l = {d} and delta_r = {dr}")
    c = t_r / u_l
    # the cleared equation, in r = c y^-3 and sgn = (-1)^N, block by block:
    #   y^(3N+3) [ -(2 + r) p(N) + 2 r p(N-1) + sgn r^(N+1)
    #              + 2 d^2 (r p(N) + r (1 - r) p(N-1) - sgn r^N) ]
    # + y^(2N+3) [ 2 d (1 + p(N) + r (r - 1) p(N-1)) - d^3 r (1 + 2 p(N-1) + p(N)) ]
    # + y^(4N+3) d sgn r^N (2 - r)
    # + y^(N+3)  d^2 (r - 2)
    sgn = (-1.0) ** N
    d2, d3 = d * d, d**3
    weights = np.array([
        [0, 0, -2, -1 + 2 * d2, 2 + 2 * d2, -2 * d2, -2 * d2 * sgn, sgn],
        [2 * d, -d3, 2 * d, -d3, -2 * d - 2 * d3, 2 * d, 0, 0],
        [0, 0, 0, 0, 0, 0, 2 * d * sgn, -d * sgn],
        [-2 * d2, d2, 0, 0, 0, 0, 0, 0],
    ], dtype=complex)
    rows, exponents = _mixed_basis(N)
    terms = (weights @ rows) * c ** np.arange(N + 2)
    valid = exponents >= 0
    if np.any(terms[~valid] != 0):
        raise AssertionError("unexpected Laurent tail below y^0")
    P = np.zeros(4 * N + 4, dtype=complex)
    np.add.at(P, exponents[valid], terms[valid])
    P = _trim(P)
    # The cleared equation carries the spurious cubic factor 2 y^3 = t_r/u_l.
    # Coefficient-level division is unstable (the quotient's small leading
    # coefficients are differences of huge terms), so the equation is rooted
    # as it is and the spurious roots are dropped.  For 3 | N every exponent
    # of y is a multiple of 3 (the chain's Z3 grading), so the equation is a
    # polynomial Q of degree N + 1 in w = y^3, the factor is the one root
    # w = t_r/(2 u_l), and the y are the cube roots of the other N roots;
    # any other N is rooted in y, where the factor is three roots.
    if c == 0:
        raise ValueError("t_r must be nonzero for the mixed-chain polynomial")
    if N % 3 == 0:
        ws = _drop_spurious(P[::3], abs(c), np.array([c / 2.0]))
        ys = np.outer(ws ** (1.0 / 3.0), np.exp(2j * np.pi / 3 * np.arange(3))).ravel()
    else:
        y0 = (c / 2.0) ** (1.0 / 3.0)
        ys = _drop_spurious(P, abs(c) ** (1.0 / 3.0), y0 * np.exp(2j * np.pi / 3 * np.arange(3)))
    return PolyY(P, ("(y^3 - t_r/(2 u_l))",), known_roots=ys)


def _drop_spurious(P: np.ndarray, scale: float, targets: np.ndarray) -> np.ndarray:
    """The roots of the ascending polynomial P but one next to each target,
    rooted in units of `scale`, cluster-merged and Newton-polished;
    `NumericalError` if a target has no root within 1e-4 max(1, |target|)."""
    b = P * scale ** np.arange(len(P))
    all_roots = scale * _np_roots(b[::-1] / np.abs(b).max())
    keep = np.ones(len(all_roots), dtype=bool)
    for target in targets:
        dist = np.where(keep, np.abs(all_roots - target), np.inf)
        j = int(np.argmin(dist))
        # generous tolerance: when the spurious root coincides with a genuine
        # multiple root the companion splits the cluster by ~eps^(1/m)
        if dist[j] > 1e-4 * max(1.0, abs(target)):
            raise NumericalError(
                f"spurious root {target:.6g} of the cubic factor not found among the equation roots"
            )
        keep[j] = False
    desc, d1 = P[::-1], np.polyder(P[::-1])
    kept, single = _merge_root_clusters(all_roots[keep], desc)
    return _newton_vec(desc, d1, kept, iters=12, mask=single)


_EQUATIONS = {
    "hn": _hn_poly,
    "ssh-even": _ssh_even_poly,
    "ssh-odd": _ssh_odd_poly,
    "mixed-longrange": _mixed_poly,
}


def polynomialize(equation: str, params: dict, n_sites: int, delta) -> PolyY:
    """Clear a model's boundary-determinant equation into a PolyY.

    `equation` is one of 'hn' (covers end on-site energies and asymmetric
    corners), 'ssh-even', 'ssh-odd', 'mixed-longrange'.  The known trivial
    factors are named in `removed_factors` (see `PolyY`).
    """
    try:
        builder = _EQUATIONS[equation]
    except KeyError:
        raise ValueError(f"unknown equation tag {equation!r}; expected one of {sorted(_EQUATIONS)}")
    poly = builder(params, int(n_sites), delta)
    if poly.coeffs[-1] == 0:
        raise ValueError(f"degenerate leading coefficient for {equation}")
    return poly


def _newton_vec(desc: np.ndarray, d1: np.ndarray, ys: np.ndarray, iters: int = 1,
                mask=None) -> np.ndarray:
    """Vectorized safeguarded Newton polish over a root array.

    Each step evaluates p and p' at every root in one Horner pass over an
    array interleaving the two, two in-place numpy calls per coefficient.
    That rounds exactly as `np.polyval` does, which matters at the
    near-multiple roots of the open and periodic limits, where the last
    bits of the polish decide which check refuses; a Vandermonde product
    costs about as much at these degrees and does not.
    """
    ys = np.array(ys, dtype=complex)
    act = np.ones(len(ys), dtype=bool) if mask is None else np.array(mask, dtype=bool)
    coef = np.zeros((len(desc), 2 * len(ys)), dtype=complex)
    coef[:, 0::2] = np.asarray(desc)[:, None]
    coef[1:, 1::2] = np.asarray(d1)[:, None]

    def p_dp(x):
        x = np.repeat(x, 2)
        out = np.zeros_like(x)
        for c in coef:
            out *= x
            out += c
        return out[0::2], out[1::2]

    p, dp = p_dp(ys)
    for _ in range(iters):
        if not act.any():
            break
        safe = np.abs(dp) > 1e-30 * np.maximum(1.0, np.abs(p))
        step = np.where(safe, p / np.where(dp == 0, 1.0, dp), 0.0)
        ok = act & safe & (np.abs(step) < 0.5 * np.maximum(1.0, np.abs(ys)))
        cand = ys - np.where(ok, step, 0.0)
        pc, dpc = p_dp(cand)
        better = ok & (np.abs(pc) < np.abs(p))
        ys = np.where(better, cand, ys)
        p = np.where(better, pc, p)
        dp = np.where(better, dpc, dp)
        act = better & (np.abs(step) >= 1e-15 * np.maximum(1.0, np.abs(ys)))
    return ys


def _merge_root_clusters(ys: np.ndarray, desc: np.ndarray, radius: float = 5e-5):
    """Collapse clusters of nearly equal roots of the polynomial with
    descending coefficients `desc` onto their means.

    The companion solver splits a root of multiplicity m by roughly
    eps^(1/m); the split copies are symmetric around the true location, so
    the cluster mean recovers it to O(eps).  A cluster is only merged if it
    is consistent with a genuine multiple root: |P^(m-1)(mean)| must be
    small against |P^(m)(mean)| * diameter, which rejects accidental
    near-collisions of simple roots (for example two root loci crossing
    during a sweep).
    """
    out = ys.copy()
    single = np.ones(len(ys), dtype=bool)
    derivs = [np.asarray(desc, dtype=complex)]
    linked = np.abs(ys[:, None] - ys[None, :]) < radius * np.maximum(1.0, np.abs(ys))[:, None]
    labels = _link_clusters(linked)
    for label in np.flatnonzero(np.bincount(labels) > 1):
        members = np.flatnonzero(labels == label)
        m = len(members)
        z = ys[members].mean()
        while len(derivs) <= m:
            derivs.append(np.polyder(derivs[-1]))
        diam = np.abs(ys[members] - z).max() * 2.0
        lo = abs(np.polyval(derivs[m - 1], z))
        hi = abs(np.polyval(derivs[m], z)) * diam
        if lo > 0.25 * hi:
            continue
        out[members] = z
        single[members] = False
    return out, single


def _s_reduction_roots(kind: str, c: np.ndarray) -> np.ndarray:
    """Roots of a (anti-)palindromic equation c (trimmed, ascending) via s = y + 1/y.

    Solving the half-degree polynomial in the physical variable s and
    reconstructing the exact (y, 1/y) pairs is far better conditioned than
    rooting in y when the pair moduli are extreme: the |y| << 1 roots pack
    into a tight ring while their s values stay well separated.  The trivial
    y = +-1 factors are removed here, with no division: an anti-palindromic
    polynomial is y^(M+1) (y - 1/y) R(s) with the artifacts inside the
    prefactor, and a palindromic one is y^(M+2) (s^2 - 4) Q(s) whose two
    known s-roots are checked and dropped from the root list.
    """
    n = c.size - 1
    if n % 2:
        raise ValueError(f"s-reduction needs even degree, got {n}")
    half = n // 2
    sign = -1.0 if kind == "anti" else 1.0
    if np.abs(c - sign * c[::-1]).max() > 1e-9 * np.abs(c).max():
        raise NumericalError(f"polynomial is not {kind}-palindromic")
    # S = sum_j c[half + j] T_j, summed in the order of the recurrence (the
    # roots of a nearly double s, at y near +-1, move with its last bits)
    terms = c[half + 1:, None] * _s_basis(kind, half)
    if kind == "pal":
        terms[0, 0] += c[half]
    S = np.add.accumulate(terms, axis=0)[-1]
    S = _trim(S)
    desc = S[::-1] / np.abs(S).max()
    svals = _np_roots(desc)
    svals = _newton_vec(desc, np.polyder(desc), svals, iters=8)
    if kind == "pal":
        for target in (2.0, -2.0):
            j = int(np.argmin(np.abs(svals - target)))
            if abs(svals[j] - target) > 1e-4:
                raise NumericalError(
                    f"expected trivial wavenumber at s = {target:+.0f} not found"
                )
            svals = np.delete(svals, j)
    # s^2 and |s +- root| as one complex value rounds them: numpy's complex
    # array product and np.abs may differ from those in the last bit
    sq = np.empty_like(svals)
    sq.real = svals.real * svals.real - svals.imag * svals.imag
    sq.imag = svals.real * svals.imag + svals.imag * svals.real
    root = np.sqrt(sq - 4.0)
    plus, minus = svals + root, svals - root
    big = 0.5 * np.where(np.hypot(plus.real, plus.imag) >= np.hypot(minus.real, minus.imag), plus, minus)
    return np.stack([big, 1.0 / big], axis=1).ravel()


@functools.lru_cache(maxsize=32)
def _s_basis(kind: str, half: int) -> np.ndarray:
    """Row j - 1 (j = 1 .. half): ascending coefficients in s of
    T_j = (y^j - y^-j)/(y - 1/y) (anti, from T_0 = 0, T_1 = 1) or
    T_j = y^j + y^-j (pal, from T_0 = 2, T_1 = s), by T_{j+1} = s T_j - T_{j-1}.
    Complex, so the product with the coefficients needs no cast; cached per
    degree, so read-only."""
    T = np.zeros((half, half if kind == "anti" else half + 1), dtype=complex)
    prev, cur = (np.zeros(1), np.ones(1)) if kind == "anti" else (np.array([2.0]), np.array([0.0, 1.0]))
    for j in range(half):
        T[j, : len(cur)] = cur
        nxt = np.zeros(len(cur) + 1)
        nxt[1:] += cur
        nxt[: len(prev)] -= prev
        prev, cur = cur, nxt
    T.setflags(write=False)
    return T


def roots(poly: PolyY) -> np.ndarray:
    """The roots of a PolyY but those of its removed factors.

    `known_roots` are returned sorted.  A palindromic equation is solved in
    s = y + 1/y (`_s_reduction_roots`) and each root polished by 1 + 11
    Newton steps on the equation; the roots stay in pair order, entries 2k
    and 2k+1 being y and 1/y before the polish.  Any other PolyY raises
    ValueError: no builder makes one.
    """
    if poly.known_roots is not None:
        ys = np.asarray(poly.known_roots, dtype=complex)
        return ys[np.lexsort((ys.imag, ys.real))]
    c = _trim(poly.coeffs)
    if c.size < 2:
        raise ValueError("degree must be at least 1")
    if not poly.palindromic:
        raise ValueError("roots needs a palindromic equation or known roots")
    desc, d1 = c[::-1], np.polyder(c[::-1])
    ys = _s_reduction_roots(poly.palindromic, c)
    # two calls: the second restarts the roots the first step left alone
    ys = _newton_vec(desc, d1, ys, iters=1)
    return _newton_vec(desc, d1, ys, iters=11)


def _link_clusters(linked: np.ndarray) -> np.ndarray:
    """Connected components of range(n) under the n x n boolean matrix
    `linked`, of which only the pairs i < j are read: the label of each
    index is the smallest index of its component."""
    adj = np.triu(linked, 1)
    adj |= adj.T
    labels = np.arange(len(linked))
    while True:
        # each index takes the smallest label among itself and its
        # neighbours, then the label of that label (labels only fall)
        new = np.where(adj, labels[None, :], labels[:, None]).min(axis=1, initial=len(labels))
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _divisible_clusters(keys: np.ndarray, size: int, tol: float) -> np.ndarray:
    """Cluster labels (`_link_clusters`) of keys linked within
    tol * max(1, max|key|); every cluster must hold a multiple of `size`
    keys, or `NumericalError` is raised."""
    tau = tol * max(1.0, np.abs(keys).max())
    labels = _link_clusters(np.abs(keys[:, None] - keys[None, :]) <= tau)
    counts = np.bincount(labels)
    sizes = sorted(counts[counts % size != 0].tolist())
    if sizes:
        raise NumericalError(
            f"grouping into sets of {size} failed: cluster sizes {sizes} are not "
            f"multiples of {size} (linking distance {tau:.3g})"
        )
    return labels


def alpha_from_roots(root_values, pairing: str, value_key=None, expected=None) -> AlphaSet:
    """Reduce polynomial roots to an AlphaSet under the model's symmetry.

    pairing='pairs': roots in the pair order of `roots`, entries 2k and
    2k+1 giving one wavenumber; a pair whose product is off 1 by more than
    GROUP_TOL raises `NumericalError`, as the polish has moved one of its
    roots onto another root.  pairing='triples': roots come in triples
    sharing one eigenvalue (mixed long-range chain), which `value_key`
    (triples only) maps the root array to, elementwise; keys within
    GROUP_TOL (relative to max(1, max|key|)) of each other link, and a
    linked cluster whose size is no multiple of 3 raises `NumericalError`
    ("grouping into sets of 3 failed").  `expected` is the required number
    of groups.
    """
    ys = np.asarray(root_values, dtype=complex).ravel()
    if pairing not in ("pairs", "triples"):
        raise ValueError(f"unknown pairing tag {pairing!r}")
    size = 2 if pairing == "pairs" else 3
    if len(ys) % size:
        raise ValueError(f"{len(ys)} roots cannot be grouped into {pairing}")
    if pairing == "pairs":
        pairs = ys.reshape(-1, 2)
        off = np.abs(pairs[:, 0] * pairs[:, 1] - 1.0)
        if off.size and off.max() > GROUP_TOL:
            k = int(np.argmax(off))
            raise NumericalError(f"roots {pairs[k, 0]:.6g} and {pairs[k, 1]:.6g} are no "
                                 f"inversion pair: product off 1 by {off[k]:.3g}")
        alphas = -1j * np.log(_canonical_pairs(pairs))
    else:
        keys = np.asarray(value_key(ys), dtype=complex)
        # clusters of nearly equal keys must hold whole groups; a cluster of
        # three is one group.  Near-degenerate eigenvalues may interleave the
        # members of larger clusters, which leaves the assembled multiset
        # unchanged, so groups are carved inside them by nearest keys
        labels = _divisible_clusters(keys, size, GROUP_TOL)
        counts = np.bincount(labels)
        order = np.argsort(labels, kind="stable")
        triples = order[(counts == size)[labels[order]]].reshape(-1, size)
        groups = [triples]
        for label in np.flatnonzero(counts > size):
            pool = sorted(np.flatnonzero(labels == label), key=lambda i: (keys[i].real, keys[i].imag))
            while pool:
                i = pool.pop(0)
                pool.sort(key=lambda j: abs(keys[j] - keys[i]))
                groups.append(np.array([[i] + pool[: size - 1]]))
                del pool[: size - 1]
        alphas = -1j * np.log(canonical_triple(ys[np.concatenate(groups)]))
    if expected is not None and len(alphas) != expected:
        raise NumericalError(f"reduced to {len(alphas)} wavenumbers, expected {expected}")
    values, mult = dedup_sorted(alphas)
    return AlphaSet(values, mult, 0.0 + 0.0j, pairing)


def _canonical_pairs(pairs: np.ndarray) -> np.ndarray:
    """One y per row (y_a, y_b) of inversion pairs, the pair members
    representing alpha and -alpha: of y_a, y_b, 1/y_a and 1/y_b, the first
    of largest modulus with angle >= -1e-12 (the branch Re(alpha) >= 0,
    preferring |y| >= 1, Im(alpha) <= 0), or y_a if none has one."""
    cands = np.concatenate([pairs, 1.0 / pairs], axis=1)
    # np.hypot rounds as the builtin abs of one complex value; np.abs of a
    # complex array can differ from it in the last bit and break ties otherwise
    size = np.where(np.angle(cands) >= -1e-12, np.hypot(cands.real, cands.imag), -1.0)
    return cands[np.arange(len(cands)), np.argmax(size, axis=1)]


def canonical_triple(members: np.ndarray) -> np.ndarray:
    """Deterministic representative of each root triple (last axis): the
    largest |y|, then the smallest real part, then the smallest imaginary part."""
    order = np.lexsort((members.imag, members.real, -np.abs(members)), axis=-1)
    return np.take_along_axis(members, order[..., :1], axis=-1)[..., 0]


def dedup_sorted(alphas: np.ndarray):
    """Sorted distinct values and their multiplicities; a value within
    DEDUP_TOL of the first value of the current group joins it."""
    alphas = np.asarray(alphas, dtype=complex)
    order = np.lexsort((alphas.imag, alphas.real))
    vals, mult = [], []
    for a in alphas[order]:
        if vals and abs(a - vals[-1]) < DEDUP_TOL:
            mult[-1] += 1
        else:
            vals.append(a)
            mult.append(1)
    return np.array(vals, dtype=complex), np.array(mult, dtype=int)


def verify_generic(stencil, lam) -> float:
    """Residual |det M| of the simplified boundary equations at energy lam,
    at the stencil's corners.

    Builds the characteristic-polynomial roots x_i of the bulk recurrence at
    this energy, evaluates the boundary rows on the basis psi_n = x_i^n and
    returns |det M| after column and row equilibration.  A near-zero value
    certifies lam as an eigenvalue of the boundary-deformed chain; repeated
    x_i are replaced by the confluent basis n * x_i^n.
    """
    if len(stencil.onsite_pattern) != 1 or stencil.end_onsite is not None:
        raise ValueError("verify_generic requires a uniform diagonal")
    dl, dr = stencil.corner_pair
    hops = stencil.hoppings
    p, q = stencil.range_lr
    deg = p + q
    if deg < 1:
        raise ValueError("stencil has no hoppings")
    N = stencil.n_sites
    diag = stencil.onsite_pattern[0]
    cp = np.zeros(deg + 1, dtype=complex)
    for o, t in hops.items():
        cp[o + p] += t
    cp[p] += diag - complex(lam)
    xs = _np_roots(cp[::-1])
    if len(xs) != deg:
        raise ValueError("characteristic polynomial degenerated at this energy")
    # confluent basis for repeated roots: k-th duplicate uses n^k x^n;
    # detection at 1e-6 because the companion solver splits genuine double
    # roots by roughly the square root of machine precision
    dup_order = np.zeros(deg, dtype=int)
    for i in range(deg):
        for j in range(i):
            if abs(xs[i] - xs[j]) < 1e-6 * max(1.0, abs(xs[j])):
                xs[i] = xs[j] = 0.5 * (xs[i] + xs[j])
                dup_order[i] = max(dup_order[i], dup_order[j] + 1)

    def basis(x, k, n):
        return (n**k) * x**n if k else x ** complex(n)

    rows = []
    for m in range(1, p + 1):
        terms = [(hops[s], N + m + s, m + s) for s in hops if s < 0 and m + s <= 0]
        rows.append([
            sum(t * (dr * basis(x, k, e1) - basis(x, k, e2)) for t, e1, e2 in terms)
            for x, k in zip(xs, dup_order)
        ])
    for m in range(N - q + 1, N + 1):
        terms = [(hops[s], m + s - N, m + s) for s in hops if s > 0 and m + s > N]
        rows.append([
            sum(t * (dl * basis(x, k, e1) - basis(x, k, e2)) for t, e1, e2 in terms)
            for x, k in zip(xs, dup_order)
        ])
    M = np.array(rows, dtype=complex)
    if M.shape != (deg, deg):
        raise ValueError(f"boundary matrix is {M.shape}, expected ({deg}, {deg})")
    cn = np.abs(M).max(axis=0)
    cn[cn == 0] = 1.0
    M = M / cn[None, :]
    rn = np.abs(M).max(axis=1)
    rn[rn == 0] = 1.0
    M = M / rn[:, None]
    return float(abs(np.linalg.det(M)))
