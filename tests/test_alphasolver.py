import numpy as np
import pytest

from nhchain.alphasolver import (
    AlphaSet,
    alpha_from_roots,
    dirichlet_ratio,
    polynomialize,
    roots,
    verify_generic,
)
from nhchain.core import ChainStencil, build_chain_matrix, dense_spectrum
from nhchain.alphasolver import PolyY, _p_recursion

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


class TestRoots:
    def test_quadratic(self):
        ys = roots(PolyY(np.array([-1.0, 0.0, 1.0])))
        assert _set_distance(ys, [1.0, -1.0]) < 1e-14

    def test_cubic(self):
        ys = roots(PolyY(np.array([-8.0, 0.0, 0.0, 1.0])))
        w3 = np.exp(2j * np.pi / 3)
        assert _set_distance(ys, [2.0, 2.0 * w3, 2.0 * w3**2]) < 1e-12

    def test_random_degree_20_residual(self, rng):
        coeffs = cnormal(rng, 21)
        ys = roots(PolyY(coeffs))
        res = np.abs(np.polyval(coeffs[::-1], ys)).sum()
        assert res < 1e-8 * np.linalg.norm(coeffs)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            roots(PolyY(np.array([2.0])))


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
