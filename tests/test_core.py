import numpy as np
import pytest

from nhchain.core import (
    ChainStencil,
    EigensolverError,
    build_chain_matrix,
    dense_spectrum,
    expectation_profiles,
    hausdorff_points,
    localization_report,
    match_spectra,
    spectral_mismatch,
)

from conftest import cnormal


class TestBuildChainMatrix:
    def test_hermitian_open_chain(self):
        st = ChainStencil(3, {1: 1.0, -1: 1.0}, (0.0,), 0.0)
        H = build_chain_matrix(st)
        assert np.array_equal(H, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex))

    def test_periodic_is_circulant(self):
        t_d, t_l, t_r = 0.3, 1.0 + 0.5j, 2.0
        st = ChainStencil(5, {1: t_l, -1: t_r}, (t_d,), 1.0)
        H = build_chain_matrix(st)
        assert H[0, 0] == t_d and H[0, 1] == t_l and H[0, 4] == t_r
        # circulant: every row is the previous one rotated right
        for m in range(1, 5):
            assert np.allclose(H[m], np.roll(H[m - 1], 1))

    def test_next_nearest_corner_block(self):
        t12, t13, t21, t31 = 1.1, 0.4j, -0.7, 2.3 + 1j
        st = ChainStencil(6, {1: t12, 2: t13, -1: t21, -2: t31}, (0.0,), 0.5)
        H = build_chain_matrix(st)
        assert np.allclose(H[0:2, 4:6], 0.5 * np.array([[t31, t21], [0, t31]]))
        assert np.allclose(H[4:6, 0:2], 0.5 * np.array([[t13, 0], [t12, t13]]))

    def test_range_too_large_rejected(self):
        with pytest.raises(ValueError, match="range"):
            ChainStencil(4, {2: 1.0, -2: 1.0}, (0.0,), 0.0)

    def test_delta_one_equals_circulant_wrap(self, rng):
        for _ in range(5):
            N = int(rng.integers(6, 15))
            hops = {o: cnormal(rng) for o in (-2, -1, 1, 2)}
            banded = build_chain_matrix(ChainStencil(N, hops, (cnormal(rng),), 0.0))
            closed = build_chain_matrix(ChainStencil(N, hops, (banded[0, 0],), 1.0))
            wrap = np.zeros((N, N), dtype=complex)
            for o, t in hops.items():
                for m in range(N):
                    n = m + o
                    if not (0 <= n < N):
                        wrap[m, n % N] += t
            assert np.allclose(closed, banded + wrap)

    def test_asymmetric_corners(self):
        st = ChainStencil(5, {1: 1.0, -1: 2.0}, (0.0,), (0.25, 0.75))
        H = build_chain_matrix(st)
        assert H[0, 4] == 0.75 * 2.0  # delta_r scales the wrapped right hop
        assert H[4, 0] == 0.25 * 1.0

    def test_end_onsite(self):
        st = ChainStencil(4, {1: 1.0, -1: 1.0}, (0.5,), 0.0, end_onsite=(0.1, -0.2))
        H = build_chain_matrix(st)
        assert H[0, 0] == 0.6 and H[3, 3] == 0.3 and H[1, 1] == 0.5


class TestDenseSpectrum:
    def test_identity(self):
        spec = dense_spectrum(np.eye(4))
        assert np.allclose(np.sort_complex(spec.eigenvalues), np.ones(4))

    def test_hn_fourier_values(self):
        st = ChainStencil(4, {1: 1.0, -1: 2.0}, (0.0,), 1.0)
        spec = dense_spectrum(build_chain_matrix(st))
        expected = [1j ** k + 2.0 * (1j ** -k) for k in range(4)]
        assert match_spectra(spec.eigenvalues, expected) < 1e-12

    def test_hermitian_spectrum_real(self, rng):
        A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        H = A + A.conj().T
        spec = dense_spectrum(H)
        assert np.abs(spec.eigenvalues.imag).max() < 1e-10

    def test_left_vector_convention(self, rng):
        H = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        spec, vr, vl = dense_spectrum(H, want_vectors=True)
        for k in range(8):
            lam = spec.eigenvalues[k]
            # conj(vl) is a left row eigenvector of H
            res = np.linalg.norm(vl[:, k].conj() @ H - lam * vl[:, k].conj())
            assert res < 1e-10
            # and vl.conj equals a right eigenvector of H^T for the same lam
            res_t = np.linalg.norm(H.T @ vl[:, k].conj() - lam * vl[:, k].conj())
            assert res_t < 1e-10

    def test_biorthogonality(self, rng):
        H = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        spec, vr, vl = dense_spectrum(H, want_vectors=True)
        G = vl.conj().T @ vr
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-8 * np.abs(np.diag(G)).min()

    def test_real_matrix_spectrum(self, rng):
        # real entries stored as complex go through real arithmetic: complex
        # eigenvalues come in exact conjugate pairs
        H = rng.normal(size=(30, 30)).astype(complex)
        vals = dense_spectrum(H).eigenvalues
        assert np.abs(vals.imag).max() > 0.1
        assert match_spectra(vals, vals.conj()) == 0.0
        assert spectral_mismatch(vals, np.linalg.eigvals(H)) < 1e-12

    def test_real_matrix_vectors(self, rng):
        H = rng.normal(size=(10, 10)).astype(complex)
        spec, vr, vl = dense_spectrum(H, want_vectors=True)
        lam = spec.eigenvalues
        assert np.abs(lam.imag).max() > 0.1
        assert np.abs(H @ vr - vr * lam).max() < 1e-10
        assert np.abs(vl.conj().T @ H - lam[:, None] * vl.conj().T).max() < 1e-10
        G = vl.conj().T @ vr
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-8 * np.abs(np.diag(G)).min()

    def test_vector_failure_is_eigensolver_error(self, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eig algorithm did not converge")

        monkeypatch.setattr(scipy.linalg, "eig", fail)
        with pytest.raises(EigensolverError, match="did not converge"):
            dense_spectrum(np.eye(3), want_vectors=True)

    def test_nonfinite_rejected(self):
        M = np.eye(3) * np.nan
        with pytest.raises(ValueError, match="finite"):
            dense_spectrum(M)


class TestMatchSpectra:
    def test_permutation_invariant(self, rng):
        vals = cnormal(rng, 9)
        perm = rng.permutation(9)
        assert match_spectra(vals, vals[perm]) < 1e-15

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="cardinality"):
            match_spectra([1.0], [1.0, 2.0])

    def test_normalized_mismatch(self):
        assert spectral_mismatch([10.0], [10.0 + 1e-6]) < 1e-6


class TestExpectationProfiles:
    def test_point_state(self):
        prof = expectation_profiles([1, 0, 0], [1, 0, 0])
        assert np.allclose(prof.rr, [1, 0, 0])
        assert np.allclose(prof.lr, [1, 0, 0])

    def test_hn_open_chain_sine_squared(self):
        # geometric factors of the left/right eigenvectors cancel in the
        # biorthogonal profile, leaving sin^2(n k' pi / (N+1))
        N, kp = 12, 3
        t_l, t_r = 1.0, 2.0 * np.exp(1j * np.pi / 4)
        ratio = np.sqrt(t_r) / np.sqrt(t_l)
        n = np.arange(1, N + 1)
        sine = np.sin(n * kp * np.pi / (N + 1))
        psi_r = ratio**n * sine
        psi_l = np.conj(ratio ** (-n)) * sine
        prof = expectation_profiles(psi_r, psi_l)
        expected = sine**2 / (sine**2).sum()
        assert np.allclose(prof.lr, expected, atol=1e-12)

    def test_biorthogonal_normalization(self, rng):
        pr, pl = cnormal(rng, 20), cnormal(rng, 20)
        prof = expectation_profiles(pr, pl)
        assert abs(prof.lr.sum() - 1.0) < 1e-12

    def test_degenerate_overlap_flagged(self):
        prof = expectation_profiles([1, 0], [0, 1])
        assert prof.lr is None
        assert prof.normalization == "degenerate"


class TestLocalizationReport:
    def test_uniform_profile(self):
        rep = localization_report(np.ones(30))
        assert rep.left_edge_fraction == pytest.approx(0.1)
        assert rep.right_edge_fraction == pytest.approx(0.1)
        assert rep.decay_rate == pytest.approx(0.0, abs=1e-12)

    def test_geometric_profile(self):
        n = np.arange(1, 31)
        rep = localization_report(4.0**n)
        # outer three sites of the geometric series hold exactly 63/64
        assert rep.right_edge_fraction == pytest.approx(63 / 64, rel=1e-9)
        assert rep.decay_rate == pytest.approx(np.log(4), rel=1e-6)
        assert rep.fit_r2 > 0.999999

    def test_hn_state_decay_rate(self):
        # |psi_n|^2 ~ |t_r/t_l|^n = 2^n for the open-chain eigenvectors
        N, kp = 30, 7
        ratio = np.sqrt(2.0 * np.exp(1j * np.pi / 4))
        n = np.arange(1, N + 1)
        psi = ratio**n * np.sin(n * kp * np.pi / (N + 1))
        rep = localization_report(np.abs(psi) ** 2)
        assert rep.decay_rate == pytest.approx(np.log(2), rel=0.1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            localization_report(np.zeros(12))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="10"):
            localization_report(np.ones(5))


def test_hausdorff_examples():
    assert hausdorff_points([1 + 1j, 2.0], [1 + 1j, 2.0]) == 0.0
    assert hausdorff_points([0.0], [3.0, 4.0j]) == pytest.approx(4.0)
