import numpy as np
import pytest

from nhchain.alphasolver import (
    GROUP_TOL,
    AlphaSet,
    alpha_from_roots,
    dirichlet_ratio,
    polynomialize,
    roots,
    verify_generic,
)
from nhchain.core import ChainStencil, NumericalError, build_chain_matrix, dense_spectrum
from nhchain.alphasolver import PolyY, _canonical_pairs, _link_clusters, _p_recursion, _trim

from conftest import cnormal


class TestDirichletRatio:
    def test_simple_value(self):
        assert dirichlet_ratio(3, np.pi / 2) == pytest.approx(-1.0)

    def test_limit_at_zero(self):
        assert dirichlet_ratio(5, 0.0) == pytest.approx(5.0)
        assert dirichlet_ratio(5, 1e-9) == pytest.approx(5.0, abs=1e-6)

    def test_matches_direct_quotient(self):
        a = 0.7 + 0.3j
        direct = np.sin(4 * a) / np.sin(a)
        assert abs(dirichlet_ratio(4, a) - direct) < 1e-12

    def test_chebyshev_branch_agrees(self):
        # just inside the switch-over region
        a = 1e-4 + 5e-5j
        direct = np.sin(6 * a) / np.sin(a)
        assert abs(dirichlet_ratio(6, a) - direct) < 1e-10


class TestPolynomialize:
    def test_hn_open_boundary_roots(self):
        N = 7
        poly = polynomialize("hn", {"t_l": 1.3, "t_r": 0.4 - 0.2j}, N, 0.0)
        ys = roots(poly)
        expected = np.exp(1j * np.pi * np.array([k for k in range(1, 2 * N + 2) if k != N + 1]) / (N + 1))
        assert _set_distance(ys, expected) < 1e-9
        assert poly.removed_factors == ("(y - 1)", "(y + 1)")

    def test_hn_periodic_double_roots(self):
        # balanced chain at delta = 1: wavenumbers p pi / N with p even,
        # doubly degenerate away from the band edges
        N = 4
        poly = polynomialize("hn", {"t_l": 1.0, "t_r": 1.0}, N, 1.0)
        aset = alpha_from_roots(roots(poly), "pairs", expected=N)
        vals = sorted(aset.values.real)
        assert np.allclose(vals, [0.0, np.pi / 2, np.pi], atol=1e-7)
        assert np.abs(aset.values.imag).max() < 1e-7
        mult = {round(v, 6): m for v, m in zip(aset.values.real, aset.multiplicity)}
        assert mult[round(np.pi / 2, 6)] == 2

    def test_mixed_degree_and_triples(self):
        N = 6
        t_r, u_l = 1.0, 2.0
        poly = polynomialize("mixed-longrange", {"t_r": t_r, "u_l": u_l}, N, 0.35)
        assert poly.degree == 3 * N
        assert "(y^3 - t_r/(2 u_l))" in poly.removed_factors
        ys = roots(poly)
        key = lambda y: u_l * y * y + t_r / y
        aset = alpha_from_roots(ys, "triples", value_key=key, expected=N)
        assert len(aset) == N

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown equation"):
            polynomialize("nope", {}, 4, 0.0)

    def test_zero_hopping_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            polynomialize("hn", {"t_l": 0.0, "t_r": 1.0}, 5, 0.0)


TRIVIAL_CASES = [
    ("hn", {"t_l": 1.3, "t_r": 0.4 - 0.2j}, (3, 7, 12), lambda N: N),
    ("hn", {"t_l": 0.8, "t_r": 1.7, "eps1": 0.3, "epsN": -0.2j}, (4, 9), lambda N: N),
    ("ssh-even", {"tl1": 1.0, "tr1": 2.0 - 0.5j, "tl2": 0.7, "tr2": 1.5}, (4, 8, 12),
     lambda N: N // 2),
    ("ssh-odd", {"tl1": 1.0, "tr1": 2.0 - 0.5j, "tl2": 0.7, "tr2": 1.5}, (5, 9, 11),
     lambda N: N),
]


class TestTrivialFactors:
    """The one-band and two-band PolyY carry their y = +-1 factors; `roots`
    removes them."""

    @pytest.mark.parametrize("equation, params, sizes, expected", TRIVIAL_CASES,
                             ids=[c[0] for c in TRIVIAL_CASES])
    @pytest.mark.parametrize("delta", [0.3, 0.9 - 0.2j, (0.4, -0.7)], ids=["real", "complex", "pair"])
    def test_factors_carried_and_removed(self, equation, params, sizes, expected, delta):
        for N in sizes:
            poly = polynomialize(equation, params, N, delta)
            assert poly.palindromic == ("pal" if equation == "ssh-odd" else "anti")
            desc = poly.coeffs[::-1]
            scale = np.abs(poly.coeffs).sum()
            for tag in poly.removed_factors:
                y = 1.0 if "y - 1" in tag else -1.0
                multiplicity = int(tag.split("^")[1]) if "^" in tag else 1
                for k in range(multiplicity):
                    value = np.polyval(np.polyder(desc, k), y)
                    assert abs(value) <= 1e-12 * scale * poly.degree**k, (N, tag, k)
            ys = roots(poly)
            assert len(ys) == 2 * expected(N)
            assert np.abs(ys[:, None] - np.array([1.0, -1.0])[None, :]).min() > 1e-6
            assert len(alpha_from_roots(ys, "pairs", expected=expected(N))) == expected(N)

    @pytest.mark.parametrize("N", [4, 6, 9])
    def test_mixed_returns_known_roots(self, N):
        poly = polynomialize("mixed-longrange", {"t_r": 1.0, "u_l": 2.0 - 0.3j}, N, 0.35)
        assert poly.degree == 3 * N and not poly.palindromic
        # the cleared equation itself, the spurious cubic factor included
        assert poly.coeffs.size - 1 == 3 * N + 3
        ys = roots(poly)
        known = np.asarray(poly.known_roots)
        assert np.array_equal(ys, known[np.lexsort((known.imag, known.real))])


class TestRoots:
    @pytest.mark.parametrize("equation, params, sizes, expected", TRIVIAL_CASES,
                             ids=[c[0] for c in TRIVIAL_CASES])
    def test_pair_order(self, equation, params, sizes, expected):
        # entries 2k and 2k+1 are y and 1/y, each polished to a root
        for N in sizes:
            poly = polynomialize(equation, params, N, 0.6 - 0.1j)
            pairs = roots(poly).reshape(-1, 2)
            assert np.abs(pairs[:, 0] * pairs[:, 1] - 1.0).max() < 1e-12
            scale = np.abs(poly.coeffs).sum()
            assert np.abs(np.polyval(poly.coeffs[::-1], pairs)).max() < 1e-10 * scale

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            roots(PolyY(np.array([2.0]), palindromic="anti"))

    def test_generic_polynomial_rejected(self):
        # no builder makes a PolyY that is neither palindromic nor solved
        with pytest.raises(ValueError, match="palindromic equation or known roots"):
            roots(PolyY(np.array([-8.0, 0.0, 0.0, 1.0])))


class TestAlphaFromRoots:
    def test_hn_open_n3(self):
        poly = polynomialize("hn", {"t_l": 2.0, "t_r": 1.0}, 3, 0.0)
        aset = alpha_from_roots(roots(poly), "pairs", expected=3)
        assert np.allclose(sorted(aset.values.real), [np.pi / 4, np.pi / 2, 3 * np.pi / 4], atol=1e-9)

    def test_ssh_pairs_give_half_count(self, rng):
        N = 8
        params = {k: cnormal(rng) for k in ("tl1", "tr1", "tl2", "tr2")}
        poly = polynomialize("ssh-even", params, N, 0.3)
        aset = alpha_from_roots(roots(poly), "pairs", expected=N // 2)
        assert len(aset) == N // 2

    def test_mixed_triple_count(self, rng):
        N = 5
        t_r, u_l = cnormal(rng), cnormal(rng)
        poly = polynomialize("mixed-longrange", {"t_r": t_r, "u_l": u_l}, N, 0.6)
        ys = roots(poly)
        assert len(ys) == 15
        aset = alpha_from_roots(ys, "triples", value_key=lambda y: u_l * y * y + t_r / y,
                                expected=N)
        assert len(aset) == N

    def test_expected_count_enforced(self):
        with pytest.raises(ValueError, match="expected"):
            alpha_from_roots([2.0, 0.5, 3.0, 1 / 3.0], "pairs", expected=3)

    def test_wrong_group_size(self):
        with pytest.raises(ValueError, match="grouped"):
            alpha_from_roots([1.0, 2.0, 3.0], "pairs")

    def test_pair_off_inversion_raises(self):
        # 2 * (0.5 + eps) - 1 = 2 eps: accepted below GROUP_TOL, refused above
        aset = alpha_from_roots([3.0, 1 / 3.0, 2.0, 0.5 + 0.4 * GROUP_TOL], "pairs", expected=2)
        assert len(aset) == 2
        with pytest.raises(NumericalError, match="inversion pair"):
            alpha_from_roots([3.0, 1 / 3.0, 2.0, 0.5 + 0.6 * GROUP_TOL], "pairs", expected=2)


# Chains whose closed form returned a spectrum 2.8e-4 to 0.25 off the dense
# oracle, labelled "analytic", before the pair check: a Newton-polished root
# had moved onto another root, and its partner was found by a loose search.
WRONG_PAIRS = [
    ("hn", (1.0, 1.5), 50, 1e-3),
    ("hn", (1.0, 1.5), 120, 0.3),
    ("hn", (1.0, 1.5), 120, 0.9),
    ("hn", (1.0, 2.0), 120, 1e-3),
    ("hn", (1.0, 4.0), 80, 1e-3),
    ("ssh", (2.0, 1.0, 1.0, 3.0), 31, 1e-3),
]


@pytest.mark.parametrize("model, params, N, delta", WRONG_PAIRS,
                         ids=[f"{m}{p}-N{n}-d{d:g}" for m, p, n, d in WRONG_PAIRS])
def test_closed_form_refuses_broken_pairs(model, params, N, delta):
    from nhchain.models1d import HNParams, SSHParams, hn_closed_form, ssh_closed_form

    solve = {"hn": (HNParams, hn_closed_form), "ssh": (SSHParams, ssh_closed_form)}
    make, closed_form = solve[model]
    with pytest.raises(NumericalError, match="inversion pair"):
        closed_form(make(*params), N, delta)


class TestVerifyGeneric:
    def test_oracle_round_trip(self, rng):
        for _ in range(4):
            N = 12
            hops = {o: cnormal(rng) for o in (-2, -1, 1, 2)}
            delta = float(rng.uniform(0, 1.2))
            st = ChainStencil(N, hops, (cnormal(rng),), delta)
            spec = dense_spectrum(build_chain_matrix(st))
            worst = max(verify_generic(st, lam) for lam in spec.eigenvalues)
            assert worst < 1e-7

    def test_far_energy_large_residual(self, rng):
        hops = {o: cnormal(rng) for o in (-2, -1, 1, 2)}
        st = ChainStencil(12, hops, (0.0,), 0.5)
        scale = max(abs(v) for v in hops.values())
        assert verify_generic(st, 10 * scale) > 1e-3

    def test_hn_closed_form_certified(self):
        N, t_d, t_l, t_r = 10, 0.5, 1.0, 2.0
        st = ChainStencil(N, {1: t_l, -1: t_r}, (t_d,), 0.0)
        lam = t_d + 2 * np.sqrt(t_l * t_r) * np.cos(np.pi / (N + 1))
        assert verify_generic(st, lam) < 1e-8

    def test_confluent_basis(self):
        # at lambda = band edge of the Hermitian chain the two recurrence
        # roots coincide; the confluent basis keeps the matrix well formed
        st = ChainStencil(10, {1: 1.0, -1: 1.0}, (0.0,), 0.0)
        res = verify_generic(st, 2.0)
        assert np.isfinite(res) and res > 1e-6  # 2.0 is not an eigenvalue

    def test_nonuniform_diagonal_rejected(self):
        st = ChainStencil(8, {1: 1.0, -1: 1.0}, (0.1, -0.1), 0.0)
        with pytest.raises(ValueError, match="uniform"):
            verify_generic(st, 0.0)


def _canonical_pair(members) -> complex:
    """The scalar pair rule `_canonical_pairs` applies to every row at once:
    the pair members represent alpha and -alpha; canonicalize to the branch
    with Re(alpha) >= 0, preferring |y| >= 1 (Im(alpha) <= 0)."""
    a, b = members
    cands = [a, b, 1.0 / a, 1.0 / b]
    pos = [y for y in cands if np.angle(y) >= -1e-12]
    return max(pos, key=abs) if pos else a


class TestCanonicalPairs:
    def _check(self, pairs):
        pairs = np.asarray(pairs, dtype=complex).reshape(-1, 2)
        want = np.array([_canonical_pair(row) for row in pairs])
        got = _canonical_pairs(pairs)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_random_pairs(self, rng):
        ys = cnormal(rng, 200) * np.exp(rng.normal(0, 2, 200))
        self._check(np.stack([ys, 1.0 / ys], axis=1))
        self._check(np.stack([1.0 / ys, ys], axis=1))
        self._check(cnormal(rng, 200))

    def test_edge_cases(self):
        tiny = 1e-12
        self._check([
            [complex(-2.0, 0.0), complex(-0.5, 0.0)],     # angle exactly pi
            [complex(-2.0, -0.0), complex(-0.5, -0.0)],   # angle exactly -pi
            [complex(-0.5, -0.0), complex(-2.0, 0.0)],
            [2 * np.exp(-0.5j * tiny), 0.5 * np.exp(0.5j * tiny)],  # within 1e-12 of 0
            [2 * np.exp(-2j * tiny), 0.5 * np.exp(2j * tiny)],      # just outside
            [np.exp(-2j * tiny), np.exp(2j * tiny)],
            [np.exp(0.3j), np.exp(-0.3j)],                 # equal moduli
            [np.exp(-0.3j), np.exp(0.3j)],
            [1.0, 1.0],
            [-1.0, -1.0],
            [2.0, 0.5],
            [0.5j, -2j],
        ])


class TestLinkClusters:
    def test_components_through_chains_of_links(self):
        # 4 - 0 - 5 - 2 link through three hops; 1 and 3 link; 6 alone; the
        # lower triangle is not read
        linked = np.zeros((7, 7), dtype=bool)
        for i, j in ((0, 4), (0, 5), (2, 5), (1, 3)):
            linked[i, j] = True
        linked[6, 0] = True
        assert _link_clusters(linked).tolist() == [0, 1, 0, 1, 0, 0, 6]

    def test_path_graph(self):
        n = 9
        linked = np.zeros((n, n), dtype=bool)
        order = [8, 3, 5, 0, 7, 1, 6, 2, 4]
        for a, b in zip(order, order[1:]):
            linked[min(a, b), max(a, b)] = True
        assert _link_clusters(linked).tolist() == [0] * n
        assert _link_clusters(np.zeros((0, 0), dtype=bool)).tolist() == []


def _roots_reference(poly: PolyY) -> np.ndarray:
    """`roots` of a palindromic PolyY as a loop over coefficients and roots:
    the s-recurrence summed term by term, each (y, 1/y) pair formed from one
    complex s, and the Newton polish evaluated by `np.polyval`."""

    def newton(desc, d1, ys, iters):
        ys = np.array(ys, dtype=complex)
        act = np.ones(len(ys), dtype=bool)
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

    c = _trim(poly.coeffs)
    half = (c.size - 1) // 2
    if poly.palindromic == "anti":
        S = np.zeros(half, dtype=complex)
        prev, cur = np.zeros(1, dtype=complex), np.array([1.0 + 0.0j])
    else:
        S = np.zeros(half + 1, dtype=complex)
        S[0] = c[half]
        prev, cur = np.array([2.0 + 0.0j]), np.array([0.0 + 0.0j, 1.0])
    for j in range(1, half + 1):
        S[: len(cur)] += c[half + j] * cur
        nxt = np.zeros(len(cur) + 1, dtype=complex)
        nxt[1:] += cur
        nxt[: len(prev)] -= prev
        prev, cur = cur, nxt
    S = _trim(S)
    desc = S[::-1] / np.abs(S).max()
    svals = newton(desc, np.polyder(desc), np.roots(desc), 8)
    if poly.palindromic == "pal":
        for target in (2.0, -2.0):
            svals = np.delete(svals, int(np.argmin(np.abs(svals - target))))
    ys = np.empty(2 * len(svals), dtype=complex)
    for i, s in enumerate(svals):
        root = np.sqrt(s * s - 4.0)
        big = 0.5 * (s + root) if abs(s + root) >= abs(s - root) else 0.5 * (s - root)
        ys[2 * i], ys[2 * i + 1] = big, 1.0 / big
    desc, d1 = c[::-1], np.polyder(c[::-1])
    return newton(desc, d1, newton(desc, d1, ys, 1), 11)


def test_roots_equal_the_loop_reference(rng):
    """The array forms of the s-recurrence, the pair construction and the
    polish round as the loops did, bit for bit: near the open and periodic
    limits the last bits decide which check refuses."""
    for equation, params, sizes, _ in TRIVIAL_CASES:
        for N in sizes:
            for delta in (0.3, 1e-9, (0.4, -0.7), cnormal(rng, scale=0.6)):
                poly = polynomialize(equation, params, N, delta)
                got, want = roots(poly), _roots_reference(poly)
                assert np.array_equal(got.view(np.float64), want.view(np.float64)), (equation, N, delta)


def test_link_clusters_random_graphs(rng):
    """Against a breadth-first search over the symmetrised upper triangle."""
    for n in (1, 5, 30):
        for density in (0.02, 0.1, 0.3):
            linked = rng.random((n, n)) < density
            adj = np.triu(linked, 1)
            adj = adj | adj.T
            want = -np.ones(n, dtype=int)
            for start in range(n):
                if want[start] < 0:
                    want[start], todo = start, [start]
                    while todo:
                        for j in np.flatnonzero(adj[todo.pop()]):
                            if want[j] < 0:
                                want[j] = start
                                todo.append(j)
            assert _link_clusters(linked).tolist() == want.tolist()


MIXED_SETS = [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (1.0 + 0.5j, 2.0 - 0.3j), (0.7 - 1.2j, 1.1 + 0.4j)]


class TestMixedClosedForm:
    """3 | N roots the equation in w = y^3 (N 9, 12), other N in y (10, 11)."""

    @pytest.mark.parametrize("N", [9, 10, 11, 12])
    @pytest.mark.parametrize("t_r, u_l", MIXED_SETS, ids=[f"{t}-{u}" for t, u in MIXED_SETS])
    def test_matches_dense(self, t_r, u_l, N):
        from nhchain.models1d import mixed_longrange_closed_form, mixed_longrange_matrix

        for delta in (1e-3, 0.3, 0.9):
            spec, aset = mixed_longrange_closed_form(t_r, u_l, delta, N)
            assert spec.parameters["degree"] == 3 * N and len(aset) == N
            lam = np.linalg.eigvals(mixed_longrange_matrix(t_r, u_l, delta, N))
            assert _set_distance(spec.eigenvalues, lam) <= 1e-10 * (1 + np.abs(lam).max())

    @pytest.mark.parametrize("N", [6, 9, 12])
    def test_equation_in_cubes(self, N):
        """3 | N: only powers of y^3 in the equation, and the roots are whole
        sets of cube roots of the N roots in w."""
        poly = polynomialize("mixed-longrange", {"t_r": 1.0 + 0.5j, "u_l": 2.0 - 0.3j}, N, 0.3)
        assert poly.degree == 3 * N
        assert np.count_nonzero(poly.coeffs[np.arange(len(poly.coeffs)) % 3 != 0]) == 0
        w = np.sort_complex(poly.known_roots**3)
        assert np.abs(w.reshape(-1, 3) - w.reshape(-1, 3)[:, :1]).max() < 1e-12 * np.abs(w).max()

    def test_corner_pair_refused(self):
        """The mixed equation is derived for one corner value."""
        params = {"t_r": 1.0, "u_l": 2.0}
        with pytest.raises(ValueError, match="one corner value"):
            polynomialize("mixed-longrange", params, 6, (0.1, 0.5))
        same = polynomialize("mixed-longrange", params, 6, (0.1, 0.1))
        assert np.array_equal(same.coeffs, polynomialize("mixed-longrange", params, 6, 0.1).coeffs)


class TestPRecursion:
    def test_first_values(self):
        ps = _p_recursion(3)
        assert np.allclose(ps[0], [0.0])
        assert np.allclose(ps[1], [-1.0])
        assert np.allclose(ps[2], [1.0, 0.0])    # p(2) = 1
        assert np.allclose(ps[3], [-1.0, -1.0])  # p(3) = -1 - r


class TestInvariants:
    def test_analytic_matches_oracle_random(self, rng):
        from nhchain.core import spectral_mismatch
        from nhchain.models1d import HNParams, hn_matrix, hn_spectrum

        for _ in range(10):
            N = int(rng.integers(3, 25))
            p = HNParams(cnormal(rng), cnormal(rng), cnormal(rng))
            delta = cnormal(rng, scale=0.6)
            spec, _ = hn_spectrum(p, N, delta)
            oracle = dense_spectrum(hn_matrix(p, N, delta))
            assert spectral_mismatch(spec, oracle) < 1e-7

    def test_balanced_alpha_real(self, rng):
        from nhchain.models1d import HNParams, hn_spectrum

        for delta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            theta = float(rng.uniform(-np.pi, np.pi))
            p = HNParams(1.0, np.exp(1j * theta))
            _, aset = hn_spectrum(p, 16, delta)
            assert np.abs(aset.expand().imag).max() < 1e-8

    def test_gauge_invariance_open_chain(self, rng):
        # the delta = 0 spectrum depends on t_l t_r only
        from nhchain.models1d import HNParams, hn_spectrum
        from nhchain.core import match_spectra

        t_l, t_r, c = 1.2 - 0.4j, 0.8 + 0.3j, 2.5 * np.exp(0.3j)
        s1, _ = hn_spectrum(HNParams(t_l, t_r), 14, 0.0)
        s2, _ = hn_spectrum(HNParams(c * t_l, t_r / c), 14, 0.0)
        assert match_spectra(s1, s2) < 1e-9


def _set_distance(a, b):
    from scipy.optimize import linear_sum_assignment

    A = np.asarray(a, dtype=complex).ravel()
    B = np.asarray(b, dtype=complex).ravel()
    C = np.abs(A[:, None] - B[None, :])
    r, c = linear_sum_assignment(C)
    return C[r, c].max()


class TestClosedFormInvariants:
    """TestInvariants' draws through the closed-form entry `hn_closed_form`."""

    def test_closed_form_matches_oracle_random(self, rng):
        from nhchain.core import spectral_mismatch
        from nhchain.models1d import HNParams, hn_closed_form, hn_matrix

        for _ in range(10):
            N = int(rng.integers(3, 25))
            p = HNParams(cnormal(rng), cnormal(rng), cnormal(rng))
            delta = cnormal(rng, scale=0.6)
            spec, aset = hn_closed_form(p, N, delta)
            assert spec.provenance == "analytic" and aset.generator == "hn-equation"
            oracle = dense_spectrum(hn_matrix(p, N, delta))
            assert spectral_mismatch(spec, oracle) < 1e-7

    def test_closed_form_balanced_alpha_real(self, rng):
        from nhchain.models1d import HNParams, hn_closed_form

        for delta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            theta = float(rng.uniform(-np.pi, np.pi))
            p = HNParams(1.0, np.exp(1j * theta))
            _, aset = hn_closed_form(p, 16, delta)
            assert np.abs(aset.expand().imag).max() < 1e-8


def _old_sinpoly(coeffs, m, weight, size):
    c = size // 2
    coeffs[c + m] += weight
    coeffs[c - m] -= weight


def _old_hn_poly(params, N, delta):
    """The one-band builder as it was before `_anti_poly`."""
    from nhchain.core import as_corner_pair as _pair, principal_sqrt as _sq

    t_l, t_r = complex(params["t_l"]), complex(params["t_r"])
    e1, eN = complex(params.get("eps1", 0.0)), complex(params.get("epsN", 0.0))
    dl, dr = _pair(delta)
    rho = _sq(t_l) / _sq(t_r)
    E = (e1 + eN) / (_sq(t_r) * _sq(t_l))
    F = dl * dr - e1 * eN / (t_l * t_r)
    G = dl * rho**N + dr * rho ** (-N)
    P = np.zeros(2 * N + 3, dtype=complex)
    size = 2 * N + 3
    _old_sinpoly(P, N + 1, -1.0, size)
    _old_sinpoly(P, N, E, size)
    _old_sinpoly(P, N - 1, F, size)
    if G != 0:
        _old_sinpoly(P, 1, G, size)
    return P


def _old_ssh_even_poly(params, N, delta):
    """The even two-band builder as it was before `_anti_poly`."""
    from nhchain.core import as_corner_pair as _pair, principal_sqrt as _sq

    tl1, tr1 = complex(params["tl1"]), complex(params["tr1"])
    tl2, tr2 = complex(params["tl2"]), complex(params["tr2"])
    dl, dr = _pair(delta)
    M = N // 2
    R = (_sq(tl2) * _sq(tr2)) / (_sq(tl1) * _sq(tr1))
    rho = (_sq(tr1) * _sq(tr2)) / (_sq(tl1) * _sq(tl2))
    B = dr * rho**M + dl * rho ** (-M)
    dd = dl * dr
    size = 2 * M + 3
    P = np.zeros(size, dtype=complex)
    _old_sinpoly(P, M + 1, -1.0, size)
    _old_sinpoly(P, M, (dd - 1) * R, size)
    _old_sinpoly(P, M - 1, dd, size)
    if B != 0:
        _old_sinpoly(P, 1, B, size)
    return P


def test_anti_poly_equals_the_replaced_builders(rng):
    """`_hn_poly` and `_ssh_even_poly`, now one `_anti_poly` each, give the
    coefficient arrays of the builders they replaced bit for bit (signed
    zeros included), at sizes where the four terms' slots coincide (N 1, 2;
    M 1, 2), at delta 0 (a vanishing last term) and at (delta_l, delta_r)
    pairs, with end energies on the one-band chain."""
    from nhchain.alphasolver import _hn_poly, _ssh_even_poly

    def draw():
        return complex(rng.normal(), rng.normal()) if rng.random() < 0.5 else float(rng.normal())

    for trial in range(400):
        delta = (0.0, 1.0, draw(), (draw(), draw()))[trial % 4]
        hn = {"t_l": draw(), "t_r": draw()}
        if trial % 3 == 0:
            hn.update(eps1=draw(), epsN=draw())
        ssh = {k: draw() for k in ("tl1", "tr1", "tl2", "tr2")}
        for N in (1, 2, 3, 7, 30):
            got = _hn_poly(hn, N, delta)
            assert got.removed_factors == ("(y - 1)", "(y + 1)") and got.palindromic == "anti"
            assert np.array_equal(got.coeffs.view(np.int64), _old_hn_poly(hn, N, delta).view(np.int64))
        for N in (2, 4, 6, 30):
            got = _ssh_even_poly(ssh, N, delta)
            assert got.removed_factors == ("(y - 1)", "(y + 1)") and got.palindromic == "anti"
            assert np.array_equal(got.coeffs.view(np.int64), _old_ssh_even_poly(ssh, N, delta).view(np.int64))
