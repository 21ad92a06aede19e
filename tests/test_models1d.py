import numpy as np
import pytest

from nhchain import models1d
from nhchain.core import (
    NumericalError,
    Spectrum,
    as_corner_pair,
    dense_spectrum,
    match_spectra,
    principal_sqrt,
    spectral_mismatch,
)
from nhchain.models1d import (
    HNParams,
    LongRangeParams,
    SSHParams,
    _graded_eigenvalues,
    _hn_boundary_roots,
    _one_per_pair,
    bloch_1d,
    hn_balanced,
    hn_closed_form,
    hn_eigenvector,
    hn_line,
    hn_matrix,
    hn_spectrum,
    impurity_states,
    mixed_longrange_closed_form,
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

    def test_odd_closed_form_refuses_near_open_limit(self):
        """The balanced odd chain at N = 31, delta = 1e-3: the sign factor of
        the odd-chain equation is far from +-1, so the closed form raises
        instead of returning an "analytic" spectrum off the dense
        eigenvalues."""
        with pytest.raises(NumericalError, match="sign factor .* is not within 0.5"):
            ssh_closed_form(SSHParams(-1j, 0.5, 4, 8), 31, 1e-3)

    @pytest.mark.parametrize("p, N, delta", [
        (SSHParams(-0.7381696708201799 - 1.3186603570491784j, 0.15852287692445555 - 0.38743607312672407j,
                   -0.3566574936685596 - 0.15562858037957356j, 0.8081908050049532 - 0.07721014434286076j),
         7, 8.111305317447299e-09),
        (SSHParams(0.6152159077148137 - 1.263076144028351j, -1.1122546263274737 + 0.5288777346516814j,
                   1.2063247763788376 + 0.7851628376125396j, -0.3957474535105101 - 0.8016586795265931j),
         9, (1.1769865425377313e-08, 2.7119729150381955e-07)),
    ])
    def test_odd_closed_form_refuses_signs_off_the_power_sums(self, p, N, delta):
        """Random odd chains near the open limit whose sign factors all read
        within 0.5 of +-1, yet whose signs are wrong (0.56 and 0.58 off the
        dense eigenvalues without this check): sum(lambda) or sum(lambda^3)
        is far from tr H = tr H^3 = 0, so the closed form raises."""
        with pytest.raises(NumericalError, match=r"odd-chain signs: \|sum lambda\^[13]\|"):
            ssh_closed_form(p, N, delta)

    def test_zero_hopping_falls_back_to_oracle(self):
        spec, aset = ssh_spectrum(SSHParams(0.0, 1.0, 2.0, 3.0), 8, 0.2)
        assert spec.provenance == "oracle"


def _random_delta(rng):
    """A real, complex or (delta_l, delta_r) boundary with moduli in [1e-12, 1]."""
    mod = 10.0 ** rng.uniform(-12.0, 0.0, 2)
    kind = int(rng.integers(3))
    if kind == 0:
        return float(mod[0])
    if kind == 1:
        return complex(mod[0] * np.exp(2j * np.pi * rng.random()))
    return float(mod[0]), float(mod[1])


def _closed_form_cases():
    """(family, closed form, arguments, N): seeded random chains of every
    family, plus the odd points whose sign factor is off +-1 (N 9, 11, 31)
    and the stiff mixed chain whose triples do not group."""
    rng = np.random.default_rng(22)
    cases = []
    for _ in range(30):
        N = int(rng.integers(3, 13))
        cases.append(("hn", hn_closed_form, (HNParams(cnormal(rng), cnormal(rng)), N, _random_delta(rng)), N))
        p = SSHParams(*(cnormal(rng) for _ in range(4)), v1=cnormal(rng), v2=cnormal(rng))
        N = 2 * int(rng.integers(2, 7))
        cases.append(("ssh even", ssh_closed_form, (p, N, _random_delta(rng)), N))
        N = 2 * int(rng.integers(1, 6)) + 1
        cases.append(("ssh odd", ssh_closed_form,
                      (SSHParams(*(cnormal(rng) for _ in range(4))), N, _random_delta(rng)), N))
        N = int(rng.integers(4, 11))
        delta = _random_delta(rng)
        delta = delta[0] if isinstance(delta, tuple) else delta
        cases.append(("mixed", mixed_longrange_closed_form, (cnormal(rng), cnormal(rng), delta, N), N))
    cases += [("ssh odd", ssh_closed_form, (SSHParams(*p), N, delta), N) for p, N, delta in
              (((1, 2, 3, 4), 9, 1e-9), ((1, 2, 1, 2), 11, 1e-9), ((-1j, 0.5, 4, 8), 31, 1e-3))]
    cases.append(("mixed", mixed_longrange_closed_form, (1.0, 1e6, 0.3, 10), 10))
    return cases


def test_closed_forms_answer_from_their_own_equation(monkeypatch):
    """With the dense eigensolver unavailable, every closed form returns an
    "analytic" spectrum of N eigenvalues or raises `NumericalError`."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("a closed form called the dense eigensolver")

    monkeypatch.setattr(models1d, "dense_spectrum", no_oracle)
    outcomes = {}
    for family, closed_form, args, N in _closed_form_cases():
        try:
            spec, _ = closed_form(*args)
            outcome = "analytic"
            assert spec.provenance == "analytic" and len(spec) == N, (family, args)
        except NumericalError:
            outcome = "refused"
        outcomes.setdefault(family, set()).add(outcome)
    # every family answers somewhere; the odd and the mixed chain refuse somewhere
    assert sorted(outcomes) == ["hn", "mixed", "ssh even", "ssh odd"]
    assert all("analytic" in o for o in outcomes.values())
    assert outcomes["ssh odd"] == outcomes["mixed"] == {"analytic", "refused"}


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
    """Chain spectra from an eigensolver, wavenumbers recovered from them:
    the even plain hn, even two-band and 3 | N mixed chains below solve one
    grade block of (H - c)^m, the others the whole matrix."""

    N = 120

    @staticmethod
    def _rel_match(a, b):
        b = np.asarray(getattr(b, "eigenvalues", b))
        return match_spectra(a, b) / np.abs(b).max()

    # chains that the boundary-equation route declines: |C| = 91 and 213,
    # below its 1e3 gate, and end energies
    @pytest.mark.parametrize("p,delta", [
        (HNParams(1.0, 1.1), 0.3),
        (HNParams(1.0, 1.1, 0.2 - 0.1j), 0.7),
        (HNParams(1.1 + 0.4j, -0.7 + 0.9j, 0.0, 0.3, -0.2j), (0.4, -0.25)),
    ])
    def test_hn_wavenumbers_map_back(self, p, delta):
        spec, aset = hn_spectrum(p, self.N, delta)
        assert spec.provenance == ("sublattice-oracle" if p.is_plain else "oracle")
        assert aset.generator == "hn-eig"
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
        assert spec.provenance == ("oracle" if N % 2 else "sublattice-oracle")
        assert aset.generator == "ssh-eig"
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
        assert spec.provenance == "sublattice-oracle" and aset.generator == "mixed-eig"
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


def _eigensolver_route(p: HNParams, N: int, delta) -> Spectrum:
    """What `hn_line` returns where no exact set or boundary root applies:
    the graded block of an even plain chain where it is accepted, else the
    dense eigensolve."""
    H = hn_matrix(p, N, delta)
    if p.is_plain and N % 2 == 0:
        lam, ok = _graded_eigenvalues(H, 2, p.t_d, 0.0)
        if ok:
            return Spectrum(lam, "sublattice-oracle")
    return dense_spectrum(H)


def _boundary_c(p: HNParams, N: int, delta) -> complex:
    dl, dr = as_corner_pair(delta)
    r = principal_sqrt(p.t_r) / principal_sqrt(p.t_l)
    return dr * r**N + dl * r**-N


class TestBoundaryRoute:
    """Plain hn chains at N >= 40 with |C| >= 1e3 take the certified roots of
    the boundary equation; every other chain keeps the eigensolver route."""

    @pytest.mark.parametrize("N", [40, 60, 120, 200])
    @pytest.mark.parametrize("t_r", [1.5, 2.0, 4.0, 2.5 * np.exp(0.7j)])
    def test_agrees_with_dense_spectrum(self, N, t_r):
        p = HNParams(1.0, t_r)
        line = hn_line(p, N)
        for delta in (1e-3, 0.3, 0.9, (0.2, 0.7)):
            spec = line(delta)
            gated = abs(_boundary_c(p, N, delta)) >= 1e3
            assert spec.provenance == ("boundary-equation" if gated else "sublattice-oracle")
            assert len(spec) == N
            assert spectral_mismatch(spec, dense_spectrum(hn_matrix(p, N, delta))) < 1e-12

    @pytest.mark.parametrize("p, N, delta", [
        (HNParams(1.0, np.exp(0.6j)), 60, 0.3),            # balanced: |C| <= 2
        (HNParams(1.0, 2.0, eps1=0.3, epsN=-0.2), 60, 0.3),  # end energies
        (HNParams(1.0, 4.0), 30, 0.3),                     # N below 40
        (HNParams(1.0, 2.0), 60, 1e-16),                   # |C| = 115
    ])
    def test_declined_chains_keep_dense_solve(self, p, N, delta):
        assert _hn_boundary_roots(p, N, delta) is None
        assert _same_spectrum(hn_line(p, N)(delta), _eigensolver_route(p, N, delta))

    def test_refused_certificate_falls_back(self, monkeypatch):
        # delta = 3 binds two impurity states with |u| = 1/3, far inside the
        # seeds' circle |u| = |C|^(-1/N) = 0.69 (ratio 0.48 < 0.9), where
        # Newton would not reach them: the route refuses before any step
        p, N, delta = HNParams(1.0, 2.0), 60, 3.0
        assert abs(_boundary_c(p, N, delta)) >= 1e3

        def no_newton(*args):
            raise AssertionError("a Newton step was taken")

        monkeypatch.setattr(models1d, "_hn_h", no_newton)
        assert _hn_boundary_roots(p, N, delta) is None
        assert _same_spectrum(hn_line(p, N)(delta), _eigensolver_route(p, N, delta))

    def test_wavenumbers_map_back(self):
        p = HNParams(1.0, 4.0, 0.2 - 0.1j)
        spec, aset = hn_spectrum(p, 120, 0.7)
        assert spec.provenance == "boundary-equation" and aset.generator == "hn-eig"
        assert spectral_mismatch(spec, dense_spectrum(hn_matrix(p, 120, 0.7))) < 1e-12
        back = p.t_d + 2 * np.sqrt(p.t_l) * np.sqrt(p.t_r) * np.cos(aset.expand())
        assert match_spectra(back, spec.eigenvalues) / np.abs(spec.eigenvalues).max() < 1e-12


def _graded_hopping(rng, complex_):
    z = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return complex(z * np.exp(1j * rng.uniform(-np.pi, np.pi))) if complex_ else z


def _graded_chains(seed: int):
    """(family, line, delta -> matrix, N, grade count m, delta): seeded even
    plain hn chains, even two-band chains without and with on-site
    potentials, and 3 | N mixed chains, at real and complex hoppings and a
    scalar or (delta_l, delta_r) boundary with moduli in [0.1, 1]."""
    rng = np.random.default_rng(seed)
    out = []
    for complex_ in (False, True):
        for pair in (False, True):
            hop = lambda: _graded_hopping(rng, complex_)
            mod = rng.uniform(0.1, 1.0, 2)
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi, 2)) if complex_ else np.ones(2)
            delta = tuple(complex(z) for z in mod * phase) if pair else complex(mod[0] * phase[0])
            N = int(rng.integers(3, 16)) * 2
            p = HNParams(hop(), hop(), hop())
            out.append(("hn", hn_line(p, N), lambda d, p=p, N=N: hn_matrix(p, N, d), N, 2, delta))
            for onsite in (0, 2):
                q = SSHParams(*(hop() for _ in range(4 + onsite)))
                out.append(("ssh", ssh_line(q, N), lambda d, q=q, N=N: ssh_matrix(q, N, d), N, 2, delta))
            if not pair:  # the mixed chain takes a scalar delta
                M, t_r, u_l = int(rng.integers(2, 11)) * 3, hop(), hop()
                out.append(("mixed", mixed_longrange_line(t_r, u_l, M),
                            lambda d, t_r=t_r, u_l=u_l, M=M: mixed_longrange_matrix(t_r, u_l, d, M),
                            M, 3, delta))
    return out


class TestGradedRoute:
    """Even plain hn, even two-band and 3 | N mixed chains solve one grade
    block of (H - c)^m where the root amplification allows, and keep the
    dense eigensolve of the whole matrix, bit for bit, where it does not."""

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_dense_spectrum(self, seed):
        accepted = 0
        for family, line, matrix, N, m, delta in _graded_chains(seed):
            spec, dense = line(delta), dense_spectrum(matrix(delta))
            if spec.provenance == "oracle":
                assert _same_spectrum(spec, dense), (family, N, delta)
                continue
            accepted += 1
            assert spec.provenance == "sublattice-oracle" and len(spec) == N
            scale = 1.0 + np.abs(dense.eigenvalues).max()
            assert match_spectra(spec, dense) < 1e-13 * scale, (family, N, delta)
        assert accepted >= 12

    @pytest.mark.parametrize("line, matrix", [
        (lambda: mixed_longrange_line(1.0, 1.0, 60)(0.99),               # eigenvalues near 0
         lambda: mixed_longrange_matrix(1.0, 1.0, 0.99, 60)),
        (lambda: ssh_line(SSHParams(-1j, 0.5, 4.0, 8.0), 60)(1e-6),      # near-zero modes
         lambda: ssh_matrix(SSHParams(-1j, 0.5, 4.0, 8.0), 60, 1e-6)),
        (lambda: ssh_line(SSHParams(1.0, 2.0, 3.0, 4.0), 31)(0.3),       # odd: no grading
         lambda: ssh_matrix(SSHParams(1.0, 2.0, 3.0, 4.0), 31, 0.3)),
        (lambda: hn_line(HNParams(1.0, 2.0, eps1=0.3), 30)(0.3),         # end energy
         lambda: hn_matrix(HNParams(1.0, 2.0, eps1=0.3), 30, 0.3)),
        (lambda: mixed_longrange_line(2.0, 1.0, 62)(0.3),                # 3 does not divide N
         lambda: mixed_longrange_matrix(2.0, 1.0, 0.3, 62)),
        (lambda: hn_line(HNParams(1e160, 2e160), 8)(0.3),                # the block would overflow
         lambda: hn_matrix(HNParams(1e160, 2e160), 8, 0.3)),
    ])
    def test_declined_points_keep_dense_solve(self, line, matrix):
        spec = line()
        assert spec.provenance == "oracle"
        assert _same_spectrum(spec, dense_spectrum(matrix()))

    def test_accepted_points_solve_no_full_matrix(self, monkeypatch):
        sizes = []

        def recording(M, *args, **kwargs):
            sizes.append(len(M))
            return dense_spectrum(M, *args, **kwargs)

        monkeypatch.setattr(models1d, "dense_spectrum", recording)
        accepted = 0
        for family, line, matrix, N, m, delta in _graded_chains(0) + _graded_chains(1):
            sizes.clear()
            if line(delta).provenance == "sublattice-oracle":
                accepted += 1
                assert sizes == [N // m], (family, N, sizes)
        assert accepted >= 24

    def test_pairs_are_exact_and_real_chains_stay_conjugate_closed(self):
        # m = 2, c = 0: the pairs are +-r exactly; a real mixed chain keeps
        # its real eigenvalues real and the others in exact conjugate pairs
        spec = ssh_line(SSHParams(1.0, -2.0j, 3.0, 4.0), 20)(0.3)
        assert spec.provenance == "sublattice-oracle"
        assert np.array_equal(np.sort_complex(spec.eigenvalues), np.sort_complex(-spec.eigenvalues))
        spec = mixed_longrange_line(2.0, 1.0, 30)(0.3)
        assert spec.provenance == "sublattice-oracle"
        lam = spec.eigenvalues
        assert np.array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))
        assert (lam.imag == 0).sum() == (dense_spectrum(mixed_longrange_matrix(2.0, 1.0, 0.3, 30))
                                         .eigenvalues.imag == 0).sum()


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
