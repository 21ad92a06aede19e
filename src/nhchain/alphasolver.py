"""Boundary-determinant conditions as polynomial root problems in y = e^{i*alpha}.

The transcendental equations fixing the shifted wavenumbers of the solvable
chains are cleared into polynomials by writing every sin(m*a)/sin(a) ratio as
a Laurent polynomial in y.  Known trivial factors (the anti-palindromic
y = +-1 artifacts, the squared corner factors of odd chains, the spurious
cubic of the mixed long-range chain) are divided out before root finding, so
the remaining roots encode exactly the physical wavenumbers.

This is the paper's route to the chain spectra.  The models1d closed-form
entries (`hn_closed_form`, `ssh_closed_form`, `mixed_longrange_closed_form`)
run it, and the command line checks them against the dense oracle at a
reduced size; the production chain spectra come from the dense eigensolver.
The route loses digits as the chain grows (root pairing fails from N of
about 50 for unbalanced chains), and such failures raise `NumericalError`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    """Polynomial in y with ascending coefficients and a removed-factor log."""

    coeffs: np.ndarray
    removed_factors: tuple = ()
    equation: str = ""
    n_sites: int = 0
    reduction: str = "pairs"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, y):
        return np.polyval(self.coeffs[::-1], y)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop exactly-zero leading entries only: the cleared equations can have
    a very wide but genuine coefficient range, so no relative cut is safe."""
    if np.abs(coeffs).max() == 0:
        raise ValueError("zero polynomial")
    k = len(coeffs)
    while k > 1 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


def _deflate(coeffs: np.ndarray, root: complex, what: str) -> np.ndarray:
    """Exact synthetic division by (y - root); raises if the remainder is large."""
    desc = coeffs[::-1]
    out = np.empty(len(desc) - 1, dtype=complex)
    acc = 0.0 + 0.0j
    for i in range(len(desc) - 1):
        acc = desc[i] + acc * root
        out[i] = acc
    rem = desc[-1] + acc * root
    if abs(rem) > 1e-7 * np.abs(coeffs).max():
        raise NumericalError(f"expected factor {what} is not a factor (remainder {abs(rem):.3g})")
    return out[::-1]


def _scaled_companion_roots(coeffs: np.ndarray, scale: float) -> np.ndarray:
    """Roots via the companion matrix of the polynomial in y = scale * z."""
    b = coeffs * scale ** np.arange(len(coeffs))
    return scale * np.roots(b[::-1] / np.abs(b).max())


def _sinpoly(coeffs: np.ndarray, m: int, weight: complex, size: int) -> None:
    """Accumulate weight * (y^(c+m) - y^(c-m)) with c = (size-1)//2 center."""
    c = size // 2
    coeffs[c + m] += weight
    coeffs[c - m] -= weight


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
    # sin-cleared equation, multiplied by 2i y^(N+1):
    #   -(y^(2N+2) - 1) + E (y^(2N+1) - y) + F (y^(2N) - y^2) + G (y^(N+2) - y^N) = 0
    P = np.zeros(2 * N + 3, dtype=complex)
    size = 2 * N + 3
    _sinpoly(P, N + 1, -1.0, size)
    _sinpoly(P, N, E, size)
    _sinpoly(P, N - 1, F, size)
    if G != 0:
        _sinpoly(P, 1, G, size)
    full = P.copy()
    P = _deflate(P, 1.0, "(y - 1)")
    P = _deflate(P, -1.0, "(y + 1)")
    return PolyY(_trim(P), ("(y - 1)", "(y + 1)"), "hn", N, "pairs",
                 {"expected": N, "delta": (dl, dr), "refine": full,
                  "s_reduction": ("anti", full)})


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
    # multiplied by 2i y^(M+1):
    #   -(y^(2M+2)-1) + (dd-1) R (y^(2M+1)-y) + dd (y^(2M)-y^2) + B (y^(M+2)-y^M) = 0
    size = 2 * M + 3
    P = np.zeros(size, dtype=complex)
    _sinpoly(P, M + 1, -1.0, size)
    _sinpoly(P, M, (dd - 1) * R, size)
    _sinpoly(P, M - 1, dd, size)
    if B != 0:
        _sinpoly(P, 1, B, size)
    full = P.copy()
    P = _deflate(P, 1.0, "(y - 1)")
    P = _deflate(P, -1.0, "(y + 1)")
    return PolyY(_trim(P), ("(y - 1)", "(y + 1)"), "ssh-even", N, "pairs",
                 {"expected": M, "delta": (dl, dr), "refine": full,
                  "s_reduction": ("anti", full)})


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
    full = P.copy()
    for root, tag in ((1.0, "(y - 1)^2"), (1.0, None), (-1.0, "(y + 1)^2"), (-1.0, None)):
        P = _deflate(P, root, tag or "corner factor")
    return PolyY(_trim(P), ("(y - 1)^2", "(y + 1)^2"), "ssh-odd", N, "pairs",
                 {"expected": N, "delta": (dl, dr), "refine": full,
                  "s_reduction": ("pal", full)})


def _p_recursion(N: int) -> list[np.ndarray]:
    """p(n) as ascending coefficient arrays in r; p(0) = 0, p(1) = -1."""
    ps = [np.zeros(1, dtype=complex), np.array([-1.0 + 0j])]
    for n in range(2, N + 1):
        a = -ps[n - 1]
        b = np.concatenate([[0.0], ps[n - 2]])
        out = np.zeros(max(len(a), len(b)), dtype=complex)
        out[: len(a)] += a
        out[: len(b)] += b
        ps.append(out)
    return ps


def _mixed_poly(params: dict, N: int, delta) -> PolyY:
    t_r, u_l = complex(params["t_r"]), complex(params["u_l"])
    if u_l == 0:
        raise ValueError("u_l must be nonzero")
    d = complex(delta) if np.isscalar(delta) else complex(delta[0])
    c = t_r / u_l
    ps = _p_recursion(N)
    pN, pN1 = ps[N], ps[N - 1]

    terms: dict[int, complex] = {}

    def add_r(rcoefs, shift: int, scale: complex):
        # accumulate scale * y^shift * sum_k rcoefs[k] (c y^-3)^k
        for k, v in enumerate(rcoefs):
            if v != 0:
                p = shift - 3 * k
                terms[p] = terms.get(p, 0.0 + 0.0j) + scale * v * c**k

    def shifted(rcoefs, up: int):
        out = np.zeros(len(rcoefs) + up, dtype=complex)
        out[up:] = rcoefs
        return out

    base = 3 * N + 3
    # -y^(3N+3) [ (2 + r) p(N) - 2 r p(N-1) + (-r)^(N+1) ]
    add_r(pN, base, -2.0)
    add_r(shifted(pN, 1), base, -1.0)
    add_r(shifted(pN1, 1), base, 2.0)
    add_r(shifted([(-1.0) ** (N + 1)], N + 1), base, -1.0)
    # + d y^(2N+3) [ 2 + 2 p(N) + 2 r (r-1) p(N-1) + (2 - r) y^(2N) (-r)^N ]
    b2 = 2 * N + 3
    add_r([2.0], b2, d)
    add_r(pN, b2, 2.0 * d)
    add_r(shifted(pN1, 2), b2, 2.0 * d)
    add_r(shifted(pN1, 1), b2, -2.0 * d)
    sgn = (-1.0) ** N
    add_r(shifted([sgn], N), b2 + 2 * N, 2.0 * d)
    add_r(shifted([sgn], N + 1), b2 + 2 * N, -d)
    # + d^2 y^(3N+3) [ -y^(-2N)(2 - r) + 2 r p(N) + 2 r (1 - r) p(N-1) - 2 (-r)^N ]
    add_r([2.0], base - 2 * N, -(d**2))
    add_r(shifted([1.0], 1), base - 2 * N, d**2)
    add_r(shifted(pN, 1), base, 2.0 * d**2)
    add_r(shifted(pN1, 1), base, 2.0 * d**2)
    add_r(shifted(pN1, 2), base, -2.0 * d**2)
    add_r(shifted([sgn], N), base, -2.0 * d**2)
    # - d^3 y^(2N+3) r [ 1 + 2 p(N-1) + p(N) ]
    add_r(shifted([1.0], 1), b2, -(d**3))
    add_r(shifted(pN1, 1), b2, -2.0 * d**3)
    add_r(shifted(pN, 1), b2, -(d**3))

    lo = min(p for p, v in terms.items() if v != 0)
    hi = max(p for p, v in terms.items() if v != 0)
    if lo < 0:
        raise AssertionError(f"unexpected Laurent tail down to y^{lo}")
    P = np.zeros(hi + 1, dtype=complex)
    for p, v in terms.items():
        P[p] = v
    P = _trim(P)
    # The cleared equation carries the spurious cubic factor 2 y^3 = t_r/u_l.
    # Coefficient-level division is unstable (the quotient's small leading
    # coefficients are differences of huge terms), so the quotient is rebuilt
    # from the root multiset with the three cubic roots removed.
    if c == 0:
        raise ValueError("t_r must be nonzero for the mixed-chain polynomial")
    all_roots = _scaled_companion_roots(P, abs(c) ** (1.0 / 3.0))
    w3 = np.exp(2j * np.pi / 3)
    y0 = (c / 2.0) ** (1.0 / 3.0)
    keep = list(range(len(all_roots)))
    for k in range(3):
        target = y0 * w3**k
        j = min(keep, key=lambda i: abs(all_roots[i] - target))
        # generous tolerance: when the spurious root coincides with a genuine
        # multiple root the companion splits the cluster by ~eps^(1/m)
        if abs(all_roots[j] - target) > 1e-4 * max(1.0, abs(target)):
            raise NumericalError(
                f"spurious cubic root {target:.6g} not found among the equation roots"
            )
        keep.remove(j)
    desc, d1 = P[::-1], np.polyder(P[::-1])
    kept, single = _merge_root_clusters(all_roots[keep], desc)
    kept = _newton_vec(desc, d1, kept, iters=12, mask=single)
    quotient = np.polymul(np.poly(kept), [P[-1]])[::-1]
    if quotient.size - 1 != 3 * N:
        raise NumericalError(
            f"degenerate mixed-chain polynomial: degree {quotient.size - 1}, "
            f"expected {3 * N}"
        )
    return PolyY(quotient, ("(y^3 - t_r/(2 u_l))",), "mixed-longrange", N, "triples",
                 {"expected": N, "delta": (d, d), "refine": P, "roots": kept})


_EQUATIONS = {
    "hn": _hn_poly,
    "ssh-even": _ssh_even_poly,
    "ssh-odd": _ssh_odd_poly,
    "mixed-longrange": _mixed_poly,
}


def polynomialize(equation: str, params: dict, n_sites: int, delta) -> PolyY:
    """Clear a model's boundary-determinant equation into a PolyY.

    `equation` is one of 'hn' (covers end on-site energies and asymmetric
    corners), 'ssh-even', 'ssh-odd', 'mixed-longrange'.  Known trivial
    factors are divided out and logged on the result.
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
    """Vectorized safeguarded Newton polish over a root array."""
    ys = np.array(ys, dtype=complex)
    act = np.ones(len(ys), dtype=bool) if mask is None else np.array(mask, dtype=bool)
    p = np.polyval(desc, ys)
    for _ in range(iters):
        if not act.any():
            break
        dp = np.polyval(d1, ys)
        safe = np.abs(dp) > 1e-30 * np.maximum(1.0, np.abs(p))
        step = np.where(safe, p / np.where(dp == 0, 1.0, dp), 0.0)
        ok = act & safe & (np.abs(step) < 0.5 * np.maximum(1.0, np.abs(ys)))
        cand = ys - np.where(ok, step, 0.0)
        pc = np.polyval(desc, cand)
        better = ok & (np.abs(pc) < np.abs(p))
        ys = np.where(better, cand, ys)
        p = np.where(better, pc, p)
        act = better & (np.abs(step) >= 1e-15 * np.maximum(1.0, np.abs(ys)))
    return ys


def _merge_root_clusters(ys: np.ndarray, desc=None, radius: float = 5e-5):
    """Collapse clusters of nearly equal roots onto their means.

    The companion solver splits a root of multiplicity m by roughly
    eps^(1/m); the split copies are symmetric around the true location, so
    the cluster mean recovers it to O(eps).  When the polynomial (descending
    coefficients) is supplied, a cluster is only merged if it is consistent
    with a genuine multiple root: |P^(m-1)(mean)| must be small against
    |P^(m)(mean)| * diameter, which rejects accidental near-collisions of
    simple roots (for example two root loci crossing during a sweep).
    """
    n = len(ys)
    out = ys.copy()
    single = np.ones(n, dtype=bool)
    derivs = [None if desc is None else np.asarray(desc, dtype=complex)]
    linked = lambda i, j: abs(ys[i] - ys[j]) < radius * max(1.0, abs(ys[i]))
    for members in _link_clusters(n, linked):
        m = len(members)
        if m < 2:
            continue
        z = ys[members].mean()
        if desc is not None:
            while len(derivs) <= m:
                derivs.append(np.polyder(derivs[-1]))
            diam = max(abs(ys[i] - z) for i in members) * 2.0
            lo = abs(np.polyval(derivs[m - 1], z))
            hi = abs(np.polyval(derivs[m], z)) * diam
            if lo > 0.25 * hi:
                continue
        for i in members:
            out[i] = z
            single[i] = False
    return out, single


def _s_reduction_roots(kind: str, full: np.ndarray) -> np.ndarray:
    """Roots of a (anti-)palindromic equation through s = y + 1/y.

    Solving the half-degree polynomial in the physical variable s and
    reconstructing the exact (y, 1/y) pairs is far better conditioned than
    rooting in y when the pair moduli are extreme: the |y| << 1 roots pack
    into a tight ring while their s values stay well separated.  The trivial
    y = +-1 factors never reach the root finder -- an anti-palindromic
    polynomial is y^(M+1) (y - 1/y) R(s) with the artifacts inside the
    prefactor, and a palindromic one is y^(M+2) (s^2 - 4) Q(s) whose two
    known s-roots are dropped from the root list.
    """
    c = _trim(np.asarray(full, dtype=complex))
    n = c.size - 1
    if n % 2:
        raise ValueError(f"s-reduction needs even degree, got {n}")
    half = n // 2
    sign = -1.0 if kind == "anti" else 1.0
    if np.abs(c - sign * c[::-1]).max() > 1e-9 * np.abs(c).max():
        raise NumericalError(f"polynomial is not {kind}-palindromic")
    if kind == "anti":
        # (y^j - y^-j)/(y - 1/y): q_1 = 1, q_2 = s, q_{j+1} = s q_j - q_{j-1}
        R = np.zeros(half, dtype=complex)
        q_prev = np.zeros(1, dtype=complex)
        q_cur = np.array([1.0 + 0.0j])
        for j in range(1, half + 1):
            R[: len(q_cur)] += c[half + j] * q_cur
            nxt = np.zeros(len(q_cur) + 1, dtype=complex)
            nxt[1:] += q_cur
            nxt[: len(q_prev)] -= q_prev
            q_prev, q_cur = q_cur, nxt
        svals = _solve_s(R)
    else:
        # y^j + y^-j: p_0 = 2, p_1 = s, p_{j+1} = s p_j - p_{j-1}
        Q = np.zeros(half + 1, dtype=complex)
        Q[0] = c[half]
        p_prev = np.array([2.0 + 0.0j])
        p_cur = np.array([0.0 + 0.0j, 1.0])
        for j in range(1, half + 1):
            Q[: len(p_cur)] += c[half + j] * p_cur
            nxt = np.zeros(len(p_cur) + 1, dtype=complex)
            nxt[1:] += p_cur
            nxt[: len(p_prev)] -= p_prev
            p_prev, p_cur = p_cur, nxt
        svals = list(_solve_s(Q))
        for target in (2.0, -2.0):
            j = min(range(len(svals)), key=lambda i: abs(svals[i] - target))
            if abs(svals[j] - target) > 1e-4:
                raise NumericalError(
                    f"expected trivial wavenumber at s = {target:+.0f} not found"
                )
            svals.pop(j)
        svals = np.asarray(svals)
    ys = np.empty(2 * len(svals), dtype=complex)
    for i, s in enumerate(svals):
        root = np.sqrt(s * s - 4.0)
        big = 0.5 * (s + root) if abs(s + root) >= abs(s - root) else 0.5 * (s - root)
        ys[2 * i] = big
        ys[2 * i + 1] = 1.0 / big
    return ys


def _solve_s(coeffs_asc: np.ndarray) -> np.ndarray:
    c = _trim(coeffs_asc)
    desc = c[::-1] / np.abs(c).max()
    svals = np.roots(desc)
    return _newton_vec(desc, np.polyder(desc), svals, iters=8)


def roots(poly: PolyY) -> np.ndarray:
    """All roots of a PolyY via companion-matrix eigenvalues.

    Palindromic equations are reduced to half degree in s = y + 1/y first.
    Roots are Newton-polished (against the higher-accuracy parent equation
    when the PolyY carries one), then clusters of nearly equal roots are
    collapsed onto their means so genuine multiple roots are resolved well
    below the dedup tolerance.
    """
    c = _trim(poly.coeffs)
    if c.size < 2:
        raise ValueError("degree must be at least 1")
    cached = poly.meta.get("roots")
    if cached is not None:
        # the factor-removal step already solved the parent equation; its
        # root multiset is more accurate than re-rooting the rebuilt quotient
        ys = np.asarray(cached, dtype=complex)
        order = np.lexsort((ys.imag, ys.real))
        return ys[order]
    deg = c.size - 1
    desc = c[::-1]
    refine = poly.meta.get("refine")
    rdesc = None if refine is None else np.asarray(refine, dtype=complex)[::-1]
    reduction = poly.meta.get("s_reduction")
    if reduction is not None:
        # the stored quotient can carry deflation noise when the equation
        # has a huge dynamic range, so the s-route validates and polishes
        # against the parent polynomial only
        ys = _s_reduction_roots(*reduction)
        polish_desc = rdesc if rdesc is not None else desc
    else:
        # rebalance wide-ranged coefficients by the substitution y = s z
        # before the companion solve; the Newton polish runs on the
        # original polynomial
        s = 1.0
        if c[0] != 0:
            s = float(np.clip(abs(c[0] / c[-1]) ** (1.0 / deg), 1e-6, 1e6))
        scaled = c * s ** np.arange(c.size)
        ys = s * np.roots(scaled[::-1] / np.abs(scaled).max())
        polish_desc = desc
    # merge split multiple roots before any polishing: the raw companion
    # splits are symmetric, so cluster means are accurate, while Newton in
    # the noise crater of a multiple root would scatter them
    ys, single = _merge_root_clusters(ys, polish_desc)
    pd1 = np.polyder(polish_desc)
    ys = _newton_vec(polish_desc, pd1, ys, iters=1, mask=single)
    if rdesc is not None and rdesc is not polish_desc:
        ys = _newton_vec(rdesc, np.polyder(rdesc), ys, iters=12, mask=single)
    elif rdesc is not None:
        ys = _newton_vec(rdesc, pd1, ys, iters=11, mask=single)
    order = np.lexsort((ys.imag, ys.real))
    return ys[order]


def _link_clusters(n: int, linked) -> list:
    """Connected components of range(n) under the pair predicate linked(i, j)."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if linked(i, j):
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def _divisible_clusters(keys: np.ndarray, size: int, tol: float):
    """Clusters whose sizes are multiples of `size`, escalating the linking
    distance when nearly degenerate groups interleave."""
    scale = max(1.0, np.abs(keys).max())
    last = None
    for factor in (1.0, 10.0, 100.0, 1e3, 1e4):
        tau = factor * tol * scale
        clusters = _link_clusters(len(keys), lambda i, j: abs(keys[i] - keys[j]) <= tau)
        last = clusters
        if all(len(c) % size == 0 for c in clusters):
            return clusters
    sizes = sorted(len(c) for c in last if len(c) % size)
    raise NumericalError(
        f"grouping into sets of {size} failed: cluster sizes {sizes} are not "
        f"multiples of {size} (linking distance up to {1e4 * tol * scale:.3g})"
    )


def alpha_from_roots(root_values, pairing: str, value_key=None, expected=None,
                     group_tol: float = GROUP_TOL) -> AlphaSet:
    """Reduce polynomial roots to an AlphaSet under the model's symmetry.

    pairing='pairs': roots come in (y, 1/y) pairs giving one wavenumber each;
    pairing='triples': roots come in triples sharing one eigenvalue (mixed
    long-range chain).  `value_key` maps a root to its grouping invariant
    (default y + 1/y); `expected` is the required number of groups.
    """
    ys = np.asarray(root_values, dtype=complex).ravel()
    if pairing not in ("pairs", "triples"):
        raise ValueError(f"unknown pairing tag {pairing!r}")
    size = 2 if pairing == "pairs" else 3
    if len(ys) % size:
        raise ValueError(f"{len(ys)} roots cannot be grouped into {pairing}")
    if value_key is None:
        value_key = lambda y: y + 1.0 / y
    alphas = []
    if pairing == "pairs":
        # the root multiset is closed under y -> 1/y; matching each root
        # with the one nearest its inverse is far better conditioned than
        # clustering the keys, whose jitter is amplified by |1/y^2| for
        # roots well inside the unit circle
        for members in _pair_by_inversion(ys):
            y = _canonical_member(members, pairing)
            alphas.append(-1j * np.log(y))
    else:
        keys = np.array([value_key(y) for y in ys])
        # clusters of nearly equal keys must hold whole groups;
        # near-degenerate eigenvalues may interleave their members, which
        # leaves the assembled multiset unchanged, so groups are carved
        # inside each cluster by nearest keys
        clusters = _divisible_clusters(keys, size, group_tol)
        for cluster in clusters:
            pool = sorted(cluster, key=lambda i: (keys[i].real, keys[i].imag))
            while pool:
                i = pool.pop(0)
                pool.sort(key=lambda j: abs(keys[j] - keys[i]))
                members = ys[[i] + pool[: size - 1]]
                del pool[: size - 1]
                y = _canonical_member(members, pairing)
                alphas.append(-1j * np.log(y))
    alphas = np.array(alphas)
    if expected is not None and len(alphas) != expected:
        raise NumericalError(f"reduced to {len(alphas)} wavenumbers, expected {expected}")
    values, mult = dedup_sorted(alphas)
    return AlphaSet(values, mult, 0.0 + 0.0j, pairing)


def _pair_by_inversion(ys: np.ndarray) -> list:
    """Match each root with the one closest to its inverse.

    Pairs are claimed greedily, starting from the roots farthest from the
    unit circle (their partners are the most distinctive); ties inside
    near-degenerate clusters are harmless because any assignment there
    yields the same eigenvalue.
    """
    order = sorted(range(len(ys)), key=lambda i: -abs(np.log(abs(ys[i]))))
    used = np.zeros(len(ys), dtype=bool)
    pairs = []
    for i in order:
        if used[i]:
            continue
        used[i] = True
        target = 1.0 / ys[i]
        best, best_d = -1, np.inf
        for j in range(len(ys)):
            if used[j]:
                continue
            d = abs(ys[j] - target)
            if d < best_d:
                best, best_d = j, d
        if best < 0 or best_d > 0.2 * max(1.0, abs(target)):
            raise NumericalError(
                f"no inversion partner for root {ys[i]:.6g} "
                f"(nearest candidate off by {best_d:.3g})"
            )
        used[best] = True
        pairs.append(ys[[i, best]])
    return pairs


def _canonical_member(members: np.ndarray, pairing: str) -> complex:
    if pairing == "pairs":
        # the pair members represent alpha and -alpha; canonicalize to the
        # branch with Re(alpha) >= 0, preferring |y| >= 1 (Im(alpha) <= 0)
        a, b = members
        cands = [a, b, 1.0 / a, 1.0 / b]
        pos = [y for y in cands if np.angle(y) >= -1e-12]
        if pos:
            return max(pos, key=abs)
        return a
    return canonical_triple(members)


def canonical_triple(members: np.ndarray) -> np.ndarray:
    """Deterministic representative of each root triple (last axis): the
    largest |y|, then the smallest real part, then the smallest imaginary part."""
    order = np.lexsort((members.imag, members.real, -np.abs(members)), axis=-1)
    return np.take_along_axis(members, order[..., :1], axis=-1)[..., 0]


def dedup_sorted(alphas: np.ndarray, tol: float = DEDUP_TOL):
    """Sorted distinct values and their multiplicities; a value within tol of
    the first value of the current group joins it."""
    alphas = np.asarray(alphas, dtype=complex)
    order = np.lexsort((alphas.imag, alphas.real))
    vals, mult = [], []
    for a in alphas[order]:
        if vals and abs(a - vals[-1]) < tol:
            mult[-1] += 1
        else:
            vals.append(a)
            mult.append(1)
    return np.array(vals, dtype=complex), np.array(mult, dtype=int)


def verify_generic(stencil, lam, delta=None) -> float:
    """Residual |det M| of the simplified boundary equations at energy lam.

    Builds the characteristic-polynomial roots x_i of the bulk recurrence at
    this energy, evaluates the boundary rows on the basis psi_n = x_i^n and
    returns |det M| after column and row equilibration.  A near-zero value
    certifies lam as an eigenvalue of the boundary-deformed chain; repeated
    x_i are replaced by the confluent basis n * x_i^n.
    """
    if len(stencil.onsite_pattern) != 1 or stencil.end_onsite is not None:
        raise ValueError("verify_generic requires a uniform diagonal")
    dl, dr = _as_pair_or_stencil(stencil, delta)
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
    xs = np.roots(cp[::-1])
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


def _as_pair_or_stencil(stencil, delta):
    if delta is None:
        return stencil.corner_pair
    return _pair(delta)
