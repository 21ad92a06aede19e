import numpy as np
import pytest

from nhchain.core import as_corner_pair, dense_spectrum, match_spectra, principal_sqrt, spectral_mismatch
from nhchain.models1d import (
    HNParams,
    LongRangeParams,
    SSHParams,
    _one_per_pair,
    bloch_1d,
    hn_balanced,
    hn_eigenvector,
    hn_line,
    hn_matrix,
    hn_spectrum,
    impurity_states,
    mixed_longrange_line,
    mixed_longrange_matrix,
    mixed_longrange_spectrum,
    nonwinding_family,
    ssh_balanced,
    ssh_closed_form,
    ssh_line,
    ssh_matrix,
    ssh_spectrum,
    ssh_zero_mode_predicate,
    triangle_chain_params,
    unidirectional_matrix,
    unidirectional_spectrum,
)

from conftest import cnormal


class TestHN:
    def test_hermitian_n3(self):
        spec, _ = hn_spectrum(HNParams(1.0, 1.0), 3, 0.0)
        assert match_spectra(spec, [np.sqrt(2), 0.0, -np.sqrt(2)]) < 1e-12

    def test_n2_open(self):
        spec, _ = hn_spectrum(HNParams(1.0, 2.0), 2, 0.0)
        assert match_spectra(spec, [np.sqrt(2), -np.sqrt(2)]) < 1e-12
        oracle = np.linalg.eigvals(np.array([[0, 1], [2, 0]], dtype=complex))
        assert match_spectra(spec, oracle) < 1e-12

    def test_periodic_equals_fourier_ellipse(self):
        N = 30
        t_l, t_r = 1.0, 2.0 * np.exp(1j * np.pi / 4)
        spec, _ = hn_spectrum(HNParams(t_l, t_r), N, 1.0)
        k = np.arange(N)
        w = np.exp(2j * np.pi * k / N)
        assert match_spectra(spec, t_l * w + t_r / w) < 1e-12

    def test_generalized_ends_vs_oracle(self, rng):
        for _ in range(6):
            N = int(rng.integers(4, 22))
            p = HNParams(cnormal(rng), cnormal(rng), 0.0, cnormal(rng), cnormal(rng))
            deltas = (cnormal(rng, scale=0.5), cnormal(rng, scale=0.5))
            spec, _ = hn_spectrum(p, N, deltas)
            oracle = dense_spectrum(hn_matrix(p, N, deltas))
            assert spectral_mismatch(spec, oracle) < 1e-8

    def test_uniform_diagonal_is_spectral_shift(self, rng):
        p0 = HNParams(1.0 + 0.2j, 0.7, 0.0)
        p1 = HNParams(1.0 + 0.2j, 0.7, 1.5 - 0.5j)
        s0, _ = hn_spectrum(p0, 9, 0.4)
        s1, _ = hn_spectrum(p1, 9, 0.4)
        assert match_spectra(s1, s0.eigenvalues + (1.5 - 0.5j)) < 1e-10

    def test_eigenvector_open_chain_formula(self):
        N, kp = 11, 4
        p = HNParams(1.0, 2.0 * np.exp(1j * np.pi / 4))
        _, aset = hn_spectrum(p, N, 0.0)
        a = np.pi * kp / (N + 1)
        psi = hn_eigenvector(p, a, 0.0, N)
        ratio = np.sqrt(p.t_r) / np.sqrt(p.t_l)
        n = np.arange(1, N + 1)
        expected = ratio**n * np.sin(n * a)
        assert np.allclose(psi, expected)

    def test_eigenvector_residual(self, rng):
        for delta in (0.0, 0.3, 1.0):
            p = HNParams(cnormal(rng), cnormal(rng), cnormal(rng))
            N = 13
            spec, aset = hn_spectrum(p, N, delta)
            H = hn_matrix(p, N, delta)
            checked = 0
            for a in aset.expand():
                try:
                    psi = hn_eigenvector(p, a, delta, N)
                except ValueError:
                    continue
                lam = p.t_d + 2 * np.sqrt(p.t_l) * np.sqrt(p.t_r) * np.cos(a)
                res = np.linalg.norm(H @ psi - lam * psi) / np.linalg.norm(psi)
                assert res < 1e-8
                checked += 1
            assert checked >= N - 1

    def test_standing_wave_when_symmetric(self):
        psi = hn_eigenvector(HNParams(1.0, 1.0), np.pi / 5, 0.0, 9)
        n = np.arange(1, 10)
        assert np.allclose(psi, np.sin(n * np.pi / 5))

    def test_balanced_flag(self):
        assert hn_balanced(HNParams(1.0, 2.0 * np.exp(1j * np.pi / 4)))[0] is False
        flag, theta = hn_balanced(HNParams(1.0, np.exp(1j * np.pi / 4)))
        assert flag and theta == pytest.approx(np.pi / 4)
        assert hn_balanced(HNParams(0.5, 0.5)) == (True, 0.0)

    def test_impurity_regime_corner_pair(self):
        # an enhanced corner link binds a pair of corner-localized states,
        # split symmetrically about t_d, balanced and unbalanced alike
        for t_r in (2.0, np.exp(0.7j)):
            count, lams, masses = impurity_states(HNParams(1.0, t_r, 0.3), 31, 2.5)
            assert count == 2
            assert np.allclose(sorted((lams - 0.3).real), sorted((-(lams - 0.3)).real), atol=1e-8)
            bulk = np.sort(masses)[:-2]
            assert bulk.max() < 0.3


class TestSSH:
    def test_hermitian_limit(self):
        p = SSHParams(1.0, 1.0, 1.0, 1.0)
        N = 12
        spec, _ = ssh_spectrum(p, N, 1.0)
        k = 2 * np.pi * np.arange(N // 2) / (N // 2)
        expected = np.concatenate([np.abs(1 + np.exp(1j * k)), -np.abs(1 + np.exp(1j * k))])
        assert match_spectra(spec, expected) < 1e-8

    def test_double_zero_mode(self):
        spec, _ = ssh_spectrum(SSHParams(1, 2, 3, 4), 30, 0.0)
        mags = np.sort(np.abs(spec.eigenvalues))
        assert mags[1] < 1e-3  # two near-zero modes

    def test_zero_mode_moves_gradually(self):
        zm = []
        for d in (0.0, 0.05, 0.1, 0.2):
            spec, _ = ssh_spectrum(SSHParams(1, 2, 3, 4), 30, d)
            zm.append(np.sort(np.abs(spec.eigenvalues))[0])
        steps = np.diff(zm)
        assert np.all(steps >= -1e-6) and steps.max() < 0.5

    def test_odd_open_exact_zero(self, rng):
        p = SSHParams(cnormal(rng), cnormal(rng), cnormal(rng), cnormal(rng))
        spec, _ = ssh_spectrum(p, 5, 0.0)
        assert np.abs(spec.eigenvalues).min() < 1e-12
        oracle = dense_spectrum(ssh_matrix(p, 5, 0.0))
        assert spectral_mismatch(spec, oracle) < 1e-9

    def test_even_spectrum_symmetric(self, rng):
        p = SSHParams(cnormal(rng), cnormal(rng), cnormal(rng), cnormal(rng))
        spec, _ = ssh_spectrum(p, 16, 0.45)
        assert match_spectra(spec, -spec.eigenvalues) < 1e-9

    def test_potentials_shift_but_keep_alpha(self, rng):
        hop = [cnormal(rng) for _ in range(4)]
        bare, aset0 = ssh_spectrum(SSHParams(*hop), 12, 0.3)
        with_v, aset1 = ssh_spectrum(SSHParams(*hop, 0.8, -0.6), 12, 0.3)
        assert match_spectra(aset0.expand(), aset1.expand()) < 1e-9
        oracle = dense_spectrum(ssh_matrix(SSHParams(*hop, 0.8, -0.6), 12, 0.3))
        assert spectral_mismatch(with_v, oracle) < 1e-8

    def test_zero_mode_predicate(self):
        flag, margin = ssh_zero_mode_predicate(SSHParams(1, 2, 3, 4))
        assert flag is True and margin > 0
        flag, margin = ssh_zero_mode_predicate(SSHParams(3, 4, 1, 2))
        assert flag is False
        spec = dense_spectrum(ssh_matrix(SSHParams(3, 4, 1, 2), 30, 0.0))
        assert np.abs(spec.eigenvalues).min() > 1e-3
        flag, margin = ssh_zero_mode_predicate(SSHParams(1.0, 2.0, 1.0, 2.0))
        assert flag is None and margin == 0.0

    def test_balanced_examples(self):
        assert ssh_balanced(SSHParams(1, 2, 3, 4))[0] is False
        assert ssh_balanced(SSHParams(-1j, 0.5, 4, 8))[0] is True
        assert ssh_balanced(SSHParams(1.0, 1.0, 0.5, 0.5))[0] is True

    def test_odd_asymmetric_corners_vs_oracle(self, rng):
        for _ in range(4):
            N = int(rng.integers(2, 10)) * 2 + 1
            p = SSHParams(cnormal(rng), cnormal(rng), cnormal(rng), cnormal(rng))
            deltas = (cnormal(rng, scale=0.6), cnormal(rng, scale=0.6))
            spec, _ = ssh_spectrum(p, N, deltas)
            oracle = dense_spectrum(ssh_matrix(p, N, deltas))
            assert spectral_mismatch(spec, oracle) < 1e-8

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="known defect: the odd-chain closed form is 5e-7 off the oracle here")
    def test_odd_closed_form_matches_oracle_near_open_limit(self):
        """The balanced odd chain at N = 31, delta = 1e-3: the closed form
        returns an "analytic" spectrum that passes its pair check yet is
        about 5e-7 (relative to 1 + max|lambda|) off the dense eigenvalues."""
        p = SSHParams(-1j, 0.5, 4, 8)
        spec, _ = ssh_closed_form(p, 31, 1e-3)
        assert spec.provenance == "analytic"
        assert spectral_mismatch(spec, dense_spectrum(ssh_matrix(p, 31, 1e-3))) < 1e-9

    def test_zero_hopping_falls_back_to_oracle(self):
        spec, aset = ssh_spectrum(SSHParams(0.0, 1.0, 2.0, 3.0), 8, 0.2)
        assert spec.provenance == "oracle"


class TestLongRange:
    def test_unidirectional_open_all_zero(self):
        spec = unidirectional_spectrum(1.3, -2.0j, 0.0, 17)
        assert np.abs(spec.eigenvalues).max() == 0.0
        H = unidirectional_matrix(1.3, -2.0j, 0.0, 17)
        assert np.abs(np.linalg.matrix_power(H, 17)).max() == 0.0

    def test_unidirectional_periodic_formula(self):
        spec = unidirectional_spectrum(1.0, 2.0, 1.0, 4)
        j = np.arange(4)
        expected = 1j**j + 2.0 * (-1.0) ** j
        assert match_spectra(spec, expected) < 1e-12
        oracle = dense_spectrum(unidirectional_matrix(1.0, 2.0, 1.0, 4))
        assert match_spectra(spec, oracle.eigenvalues) < 1e-10

    def test_unidirectional_small_delta_near_periodic(self):
        s_half = unidirectional_spectrum(1.0, 2.0, 0.5, 50)
        s_one = unidirectional_spectrum(1.0, 2.0, 1.0, 50)
        assert match_spectra(s_half, s_one) < 5 * (1 - 0.5 ** (1.0 / 50)) * 3

    def test_mixed_periodic_contains_fourier(self):
        spec, _ = mixed_longrange_spectrum(1.0, 1.0, 1.0, 6)
        k = 2 * np.pi * np.arange(6) / 6
        fourier = np.exp(2j * k) + np.exp(-1j * k)
        assert match_spectra(spec, fourier) < 1e-9

    def test_mixed_vs_oracle(self, rng):
        for _ in range(5):
            N = int(rng.integers(4, 18))
            t_r, u_l = cnormal(rng), cnormal(rng)
            d = float(rng.uniform(0, 1))
            spec, _ = mixed_longrange_spectrum(t_r, u_l, d, N)
            oracle = dense_spectrum(mixed_longrange_matrix(t_r, u_l, d, N))
            assert spectral_mismatch(spec, oracle) < 1e-7

    def test_bloch_values(self):
        p = LongRangeParams(t_l=1.0, t_r=2.0, u_l=0.5, u_r=-1.0)
        assert bloch_1d(p, 0.0) == pytest.approx(2.5)
        tri = triangle_chain_params(1.0, 1.0)
        assert abs(bloch_1d(tri, np.pi)) < 1e-12
        ks = np.linspace(-np.pi, np.pi, 13)
        direct = (p.t_l * np.exp(1j * ks) + p.t_r * np.exp(-1j * ks)
                  + p.u_l * np.exp(2j * ks) + p.u_r * np.exp(-2j * ks))
        assert np.abs(bloch_1d(p, ks) - direct).max() < 1e-14

    def test_nonwinding_case1_hermitian(self):
        p = nonwinding_family(1, 1.0, 1.0, 0.0, 0.0, 0.0)
        assert p.t_l == p.t_r == p.u_l == p.u_r == 1.0
        ks = np.linspace(0, 2 * np.pi, 50)
        vals = bloch_1d(p, ks)
        assert np.abs(vals.imag).max() < 1e-12

    def test_nonwinding_case2_product_form(self):
        t, phi = 1.0, np.pi / 2
        p = nonwinding_family(2, t, t, phi, 0.0, 0.0)
        ks = np.linspace(0, 2 * np.pi, 40)
        expected = 4 * t * np.cos((ks + phi) / 2) * np.cos((3 * ks + phi) / 2)
        assert np.abs(bloch_1d(p, ks) - expected).max() < 1e-12

    def test_nonwinding_case3_retraces(self):
        p = nonwinding_family(3, 1.3, 0.7, 0.9, 0.4, -1.1)
        # the image over [pi, 2pi] retraces the image over [0, pi]
        phi = 0.9
        k = np.linspace(0, np.pi, 64)
        fwd = bloch_1d(p, k + phi / 2)
        back = bloch_1d(p, -k + phi / 2)
        assert np.abs(fwd - back).max() < 1e-12

    def test_nonreal_inputs_rejected(self):
        with pytest.raises(ValueError, match="real"):
            nonwinding_family(1, 1.0 + 1j, 1.0, 0.0, 0.0, 0.0)


class TestEigRoute:
    """Chain spectra from the dense eigensolver, wavenumbers recovered from them."""

    N = 120

    @staticmethod
    def _rel_match(a, b):
        b = np.asarray(getattr(b, "eigenvalues", b))
        return match_spectra(a, b) / np.abs(b).max()

    @pytest.mark.parametrize("p,delta", [
        (HNParams(1.0, 1.5), 0.3),
        (HNParams(1.0, 4.0, 0.2 - 0.1j), 0.7),
        (HNParams(1.1 + 0.4j, -0.7 + 0.9j, 0.0, 0.3, -0.2j), (0.4, -0.25)),
    ])
    def test_hn_wavenumbers_map_back(self, p, delta):
        spec, aset = hn_spectrum(p, self.N, delta)
        assert spec.provenance == "oracle" and aset.generator == "hn-eig"
        assert aset.shift == pytest.approx(p.shift)
        oracle = dense_spectrum(hn_matrix(p, self.N, delta))
        assert spectral_mismatch(spec, oracle) < 1e-10
        back = p.t_d + 2 * np.sqrt(p.t_l) * np.sqrt(p.t_r) * np.cos(aset.expand())
        assert self._rel_match(back, spec) < 1e-10

    @pytest.mark.parametrize("N,p,delta", [
        (120, SSHParams(-1j, 0.5, 4.0, 8.0), 0.3),
        (120, SSHParams(1.0, 2.0, 3.0, 4.0, 0.8, -0.6), (0.2, 0.9)),
        (121, SSHParams(1.0, 2.0, 3.0, 4.0), 0.3),
    ])
    def test_ssh_wavenumbers_map_back(self, N, p, delta):
        spec, aset = ssh_spectrum(p, N, delta)
        assert spec.provenance == "oracle" and aset.generator == "ssh-eig"
        assert len(aset) == (N // 2 if N % 2 == 0 else N)
        oracle = dense_spectrum(ssh_matrix(p, N, delta))
        assert spectral_mismatch(spec, oracle) < 1e-10
        c1 = np.sqrt(p.tl1) * np.sqrt(p.tr1) * np.sqrt(p.tl2) * np.sqrt(p.tr2)
        lam2 = p.v**2 + p.tl1 * p.tr1 + p.tl2 * p.tr2 + 2 * np.cos(aset.expand()) * c1
        mid = (p.v1 + p.v2) / 2
        if N % 2 == 0:
            back = np.concatenate([mid + np.sqrt(lam2), mid - np.sqrt(lam2)])
            assert self._rel_match(back, spec) < 1e-10
        else:
            assert self._rel_match(lam2, spec.eigenvalues**2) < 1e-10

    @pytest.mark.parametrize("t_r,u_l,delta", [(2.0, 1.0, 0.3), (1.0, 2.0, 0.9), (0.7 - 0.5j, 1.2j, 0.05)])
    def test_mixed_wavenumbers_map_back(self, t_r, u_l, delta):
        spec, aset = mixed_longrange_spectrum(t_r, u_l, delta, self.N)
        assert spec.provenance == "oracle" and aset.generator == "mixed-eig"
        oracle = dense_spectrum(mixed_longrange_matrix(t_r, u_l, delta, self.N))
        assert spectral_mismatch(spec, oracle) < 1e-10
        y = np.exp(1j * aset.expand())
        assert self._rel_match(u_l * y * y + t_r / y, spec) < 1e-10
        # the closed form's triple rule: the root of largest modulus
        for yk, lam in zip(y, spec.eigenvalues):
            others = np.roots([u_l, 0.0, -lam, t_r])
            assert abs(yk) >= np.abs(others).max() * (1 - 1e-9)

    def test_balanced_long_chain_wavenumbers_real(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for theta in rng.uniform(-np.pi, np.pi, 6):
            p = HNParams(1.0, np.exp(1j * theta))
            for delta in (-0.9, -0.5, 0.3, 0.5, 0.999):
                _, aset = hn_spectrum(p, self.N, delta)
                worst = max(worst, float(np.abs(aset.expand().imag).max()))
        assert worst < 1e-8

    def test_exact_sets_stay_analytic(self):
        p = HNParams(1.0, 1.5)
        for delta, generator in ((0.0, "hn-delta0"), (1.0, "hn-fourier"), (-1.0, "hn-fourier")):
            spec, aset = hn_spectrum(p, self.N, delta)
            assert spec.provenance == "analytic" and aset.generator == generator
        spec, aset = ssh_spectrum(SSHParams(1.0, 2.0, 3.0, 4.0), 121, 0.0)
        assert spec.provenance == "analytic" and aset.generator == "ssh-odd-open"

    def test_mixed_zero_hopping_falls_back_to_oracle(self):
        spec, aset = mixed_longrange_spectrum(0.0, 1.0, 0.5, 9)
        assert spec.parameters["fallback"] == "zero hopping" and len(aset) == 0
        oracle = dense_spectrum(mixed_longrange_matrix(0.0, 1.0, 0.5, 9))
        assert match_spectra(spec, oracle) == 0.0


def _nan_greedy_one_per_pair(c):
    """The pairing greedy as first written: removed values become NaN."""
    c = np.sort(c, axis=1)
    rows = np.arange(len(c))
    out = np.empty((len(c), c.shape[1] // 2), dtype=complex)
    for k in range(out.shape[1]):
        i = np.argmax(~np.isnan(c), axis=1)
        out[:, k] = c[rows, i]
        c[rows, i] = np.nan
        c[rows, np.nanargmin(np.abs(c - out[:, k, None]), axis=1)] = np.nan
    return out


class TestOnePerPair:
    """`_one_per_pair` keeps exactly what the NaN/nanargmin greedy kept."""

    @staticmethod
    def _draw(rng):
        n_rows, half = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        kind = rng.integers(3)
        if kind == 0:  # real rows
            vals = rng.normal(size=(n_rows, half)) + 0j
        else:
            vals = rng.normal(size=(n_rows, half)) + 1j * rng.normal(size=(n_rows, half))
        if kind == 2:  # conjugate pairs sharing a real part
            vals[:, 1::2] = np.conj(vals[:, : half // 2 * 2 : 2])
        noisy = vals * (1 + 1e-15 * rng.normal(size=vals.shape))
        row = np.concatenate([vals, noisy], axis=1)
        return row[:, rng.permutation(2 * half)]

    def test_matches_nan_greedy_bitwise(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            c = self._draw(rng)
            kept = _one_per_pair(c.copy())
            assert kept.tobytes() == _nan_greedy_one_per_pair(c.copy()).tobytes()

    def test_exact_tie_takes_first_index(self):
        # 1j and 1 are both at distance 1 from 0; the first in sorted order goes
        c = np.array([[2.0, 1.0, 1j, 0.0]])
        assert _one_per_pair(c.copy()).tobytes() == _nan_greedy_one_per_pair(c.copy()).tobytes()
        assert _one_per_pair(c).tolist() == [[0.0, 1.0]]

    def test_input_untouched_and_one_per_pair(self):
        a, b = 0.3 + 0.5j, 0.3 - 0.5j
        c = np.array([[a, b, a + 5.6e-17, b + 5.6e-17], [1.0, 1.0, -2.0, -2.0 + 1e-16]])
        before = c.copy()
        kept = _one_per_pair(c)
        assert np.array_equal(c, before)
        assert match_spectra(kept[0], [a, b]) < 1e-15
        assert match_spectra(kept[1], [1.0, -2.0]) < 1e-15


def _same_spectrum(a, b) -> bool:
    """Equal eigenvalue bits, provenance and parameters."""
    return (np.array_equal(a.eigenvalues.view(np.int64), b.eigenvalues.view(np.int64))
            and a.provenance == b.provenance and a.parameters == b.parameters)


LINE_DELTAS = [0.0, 1.0, -1.0, 1e-14, 0.3, (0.2, 0.7), 0.3, 1e-14, -1.0, 1.0, 0.0]


class TestLines:
    """A per-size line evaluated at one delta after another equals a fresh
    line at each delta, bit for bit: the operator it keeps is not changed
    by an evaluation."""

    @pytest.mark.parametrize("p, N", [
        (HNParams(1.0, 1.5), 20),
        (HNParams(1.0, 2.0 * np.exp(0.7j), t_d=0.3), 12),
        (HNParams(1.0, 1.0), 9),                     # Hermitian: exact sets at 0 and +-1
        (HNParams(1.0, 2.0, eps1=0.4, epsN=-0.2j), 10),  # no exact sets
        (HNParams(1.0, 0.0), 8),                     # zero hopping
        (HNParams(0.0, 2.0, t_d=1.0), 8),
    ])
    def test_hn_line(self, p, N):
        line = hn_line(p, N)
        for delta in LINE_DELTAS:
            assert _same_spectrum(line(delta), hn_line(p, N)(delta))
            if "fallback" not in line(delta).parameters and line(delta).provenance == "oracle":
                assert _same_spectrum(line(delta), dense_spectrum(hn_matrix(p, N, delta)))

    def test_hn_line_two_sites(self):
        # N = 2 has its exact set at delta = 0 and no banded matrix
        line = hn_line(HNParams(1.0, 2.0), 2)
        assert _same_spectrum(line(0.0), hn_line(HNParams(1.0, 2.0), 2)(0.0))
        with pytest.raises(ValueError, match="too large for N = 2"):
            line(0.3)

    @pytest.mark.parametrize("p, N", [
        (SSHParams(1.0, 2.0, 3.0, 3.7), 20),
        (SSHParams(1.0, 2.0, 3.0, 3.7), 9),          # odd: exact set at delta = 0
        (SSHParams(1.0, -1j, 4.0, 8.0 * np.exp(0.3j)), 11),
        (SSHParams(1.0, 2.0, 3.0, 4.0, v1=0.5, v2=-0.25j), 8),
        (SSHParams(1.0, 0.0, 3.0, 4.0), 7),          # zero hopping
        (SSHParams(1.0, 2.0, 3.0, 4.0), 1),
    ])
    def test_ssh_line(self, p, N):
        line = ssh_line(p, N)
        for delta in LINE_DELTAS:
            assert _same_spectrum(line(delta), ssh_line(p, N)(delta))

    def test_ssh_line_odd_with_potentials_raises(self):
        p = SSHParams(1.0, 2.0, 3.0, 4.0, v1=0.5)
        for call in (lambda: ssh_line(p, 9), lambda: ssh_line(p, 9)(0.3)):
            with pytest.raises(ValueError, match="without on-site potentials"):
                call()

    @pytest.mark.parametrize("p, N", [
        (SSHParams(1.0, 2.0, 3.0, 3.7, v1=0.5, v2=-0.5), 6),
        (SSHParams(1.0, -1j, 4.0 + 1j, 8.0 * np.exp(0.3j)), 7),
        (SSHParams(-1.0, 2.0, -3.0, 4.0), 1),
        (SSHParams(1.0, 2.0, 3.0, 4.0), 2),
    ])
    def test_ssh_matrix_equals_per_entry_assembly_bitwise(self, p, N):
        """The corners of odd chains are (delta sqrt(a)) sqrt(b), as the
        per-entry assembly multiplies them."""
        def loop_build(delta):
            dl, dr = as_corner_pair(delta)
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
                H[0, N - 1] += dr * principal_sqrt(p.tr1) * principal_sqrt(p.tr2)
                H[N - 1, 0] += dl * principal_sqrt(p.tl1) * principal_sqrt(p.tl2)
            return H

        for delta in LINE_DELTAS + [0.3 + 0.1j]:
            assert np.array_equal(ssh_matrix(p, N, delta).view(np.int64),
                                  loop_build(delta).view(np.int64))

    @pytest.mark.parametrize("t_r, u_l, N", [(1.0, 2.0, 20), (2.0 * np.exp(0.4j), 1.0, 13),
                                            (0.0, 1.0, 8), (1.0, 0.0, 8)])
    def test_mixed_longrange_line(self, t_r, u_l, N):
        line = mixed_longrange_line(t_r, u_l, N)
        for delta in [d for d in LINE_DELTAS if not isinstance(d, tuple)] + [0.3 - 0.2j]:
            assert _same_spectrum(line(delta), mixed_longrange_line(t_r, u_l, N)(delta))
        with pytest.raises(TypeError):
            line((0.2, 0.7))
