import numpy as np
import pytest

from nhchain.core import (
    ChainStencil,
    EigensolverError,
    as_corner_pair,
    build_chain_matrix,
    chain_operator,
    cmul,
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

    def test_operator_equals_per_entry_assembly_bitwise(self, rng):
        """chain_operator(st).at(delta) against the per-entry loop it
        replaced, bit for bit, signed zeros included, at many deltas of one
        operator (no delta leaks into the next)."""
        def loop_build(st, delta):
            N = st.n_sites
            dl, dr = as_corner_pair(delta)
            H = np.zeros((N, N), dtype=complex)
            for m in range(N):
                H[m, m] = st.onsite_pattern[m % len(st.onsite_pattern)]
            if st.end_onsite is not None:
                H[0, 0] += complex(st.end_onsite[0])
                H[N - 1, N - 1] += complex(st.end_onsite[1])
            for o, t in st.hoppings.items():
                for m in range(N):
                    n = m + o
                    if 0 <= n < N:
                        H[m, n] += t
                    elif n < 0:
                        H[m, n + N] += dr * t
                    else:
                        H[m, n - N] += dl * t
            return H

        deltas = [0.0, 1.0, -1.0, 1e-14, 0.3, 0.3 - 0.2j, (0.2, 0.7), (-0.0, 2.5j)]
        for _ in range(40):
            N = int(rng.integers(5, 14))
            offsets = rng.choice([-2, -1, 1, 2], size=int(rng.integers(1, 5)), replace=False)
            hops = {int(o): cnormal(rng) * rng.choice([1, 1j, -1]) for o in offsets}
            hops[int(offsets[0])] = complex(-1.5, -0.0)  # a signed zero to keep
            cell = tuple(cnormal(rng, int(rng.integers(1, 4))))
            end = None if rng.random() < 0.5 else (cnormal(rng), -0.0)
            st = ChainStencil(N, hops, cell, 0.0, end)
            op = chain_operator(st)
            for delta in deltas + deltas[::-1]:
                got, want = op.at(delta), loop_build(st, delta)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert not op.bulk.flags.writeable


def test_cmul_equals_scalar_products_bitwise(rng):
    """An array of cmul products equals the complex scalar products taken
    one at a time, at every array length (numpy's vectorised multiply need
    not)."""
    for n in (1, 2, 3, 7, 16, 257, 1000):
        a = cnormal(rng, n) * 10.0 ** rng.uniform(-3, 3, n)
        b = cnormal(rng, n)
        t = cnormal(rng)
        for got, want in ((cmul(a, b), [x * y for x, y in zip(a, b)]),
                          (cmul(t, b), [t * y for y in b])):
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
    assert cmul(2j, 3j).shape == () and complex(cmul(2j, 3j)) == -6


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

    @staticmethod
    def _hungarian_max(a, b):
        from scipy.optimize import linear_sum_assignment

        cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].max())

    @staticmethod
    def _draws(seed):
        """(a, b) pairs: separated, perturbed by 1e-13 to 1; clustered; exactly degenerate."""
        rng = np.random.default_rng(seed)
        for n in (1, 2, 5, 12, 40):
            a = cnormal(rng, n)
            for eps in (1e-13, 1e-6, 1e-2, 0.3, 1.0):
                yield a, rng.permutation(a + eps * cnormal(rng, n))
            tight = np.repeat(cnormal(rng, -(-n // 3)), 3)[:n] + 1e-9 * cnormal(rng, n)
            yield tight, rng.permutation(tight + 1e-10 * cnormal(rng, n))
            twice = np.concatenate([a[: n // 2], a[: n - n // 2]])
            yield twice, rng.permutation(twice) + 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_hungarian_maximum(self, seed):
        for a, b in self._draws(seed):
            assert match_spectra(a, b) == self._hungarian_max(a, b)

    def test_hungarian_only_without_certificate(self, monkeypatch):
        import scipy.optimize

        calls = []
        lsa = scipy.optimize.linear_sum_assignment

        def counting(cost):
            calls.append(cost.shape)
            return lsa(cost)

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
        rng = np.random.default_rng(5)
        a = np.arange(12) + 0.5j * np.arange(12)
        assert match_spectra(a, rng.permutation(a) + 1e-14) > 0 and not calls
        assert match_spectra([7.0], [8.5]) == 1.5 and not calls
        # b's spacing does not enter: 0.1 here, below 2r = 0.9
        assert match_spectra([0.0, 1.0], [0.45, 0.55]) == 0.45 and not calls
        # a repeated value in either set, or pairs farther apart than half a spacing
        assert match_spectra([0.0, 0.0, 1.0], [0.0, 1e-3, 1.0]) == 1e-3
        assert match_spectra([0.0, 1e-3, 1.0], [0.0, 0.0, 1.0]) == 1e-3
        assert match_spectra([0.0, 1.0], [0.5, 1.5]) == 0.5
        assert calls == [(3, 3), (3, 3), (2, 2)]

    def test_empty_input_unchanged(self):
        with pytest.raises(ValueError):
            match_spectra([], [])


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


def test_hausdorff_root_of_max_equals_max_of_roots(rng):
    """The square root of the min-max squared distance is the min-max of the
    square-rooted distance matrix (the formula it replaced), bit for bit,
    on sets with tied distances: lattice points, repeats and mirror images."""
    def sqrt_matrix_reference(a, b):
        D = np.subtract.outer(a.real, b.real) ** 2 + np.subtract.outer(a.imag, b.imag) ** 2
        D = np.sqrt(D)
        return float(max(D.min(axis=1).max(), D.min(axis=0).max()))

    for _ in range(500):
        n, m = rng.integers(1, 30, size=2)
        scale = 10.0 ** rng.uniform(-8, 4)
        a = (rng.integers(-3, 4, size=n) + 1j * rng.integers(-3, 4, size=n)) * scale
        b = (rng.integers(-3, 4, size=m) + 1j * rng.integers(-3, 4, size=m)) * scale
        b = np.concatenate([b, a[: int(rng.integers(0, n + 1))], a.conj()[:2]])
        if rng.random() < 0.5:
            b = b + (rng.normal(size=len(b)) + 1j * rng.normal(size=len(b))) * scale * 1e-9
        assert hausdorff_points(a, b) == sqrt_matrix_reference(a, b)
        assert hausdorff_points(b, a) == sqrt_matrix_reference(b, a)


def test_hausdorff_equals_cdist_reference(rng):
    """The numpy distances are the arithmetic of scipy's Euclidean cdist, so
    the Hausdorff distance is the same float, near-coincident points included."""
    from scipy.spatial.distance import cdist

    for _ in range(300):
        n, m = rng.integers(1, 40, size=2)
        a = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-6, 3)
        noise = (rng.normal(size=m) + 1j * rng.normal(size=m)) * 10.0 ** rng.uniform(-16, 0)
        b = a[rng.integers(0, n, size=m)] + noise
        D = cdist(np.column_stack([a.real, a.imag]), np.column_stack([b.real, b.imag]))
        assert hausdorff_points(a, b) == max(D.min(axis=1).max(), D.min(axis=0).max())


def _old_polyline_distance(pts, z):
    """`topology._polyline_distance` as it was before `core._segment_distance`."""
    a = pts
    b = np.roll(pts, -1)
    d = b - a
    L2 = np.abs(d) ** 2
    L2[L2 == 0] = 1e-300
    t = np.clip(((z - a) * np.conj(d)).real / L2, 0.0, 1.0)
    return float(np.abs(z - (a + t * d)).min())


def _old_segment_distance(points, z_minus, z_plus):
    """`models2d.segment_distance` as it was before `core._segment_distance`."""
    pts = np.asarray(points, dtype=complex).ravel()
    a, b = complex(z_minus), complex(z_plus)
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return np.abs(pts - a)
    t = ((pts - a) * np.conj(d)).real / L2
    t = np.clip(t, 0.0, 1.0)
    return np.abs(pts - (a + t * d))


def test_segment_distance_equals_the_replaced_formulas_bitwise(rng):
    """Both callers of the one point-to-segment kernel give what their own
    formulas gave, bit for bit: the closed polyline of 512 curve samples
    (repeated samples make zero-length segments) and one segment of many
    points, a zero-length segment included."""
    from nhchain.models2d import segment_distance
    from nhchain.topology import _polyline_distance

    for trial in range(200):
        pts = cnormal(rng, 512, scale=10.0 ** rng.integers(-3, 4))
        pts[rng.integers(0, 511, 8)] = pts[rng.integers(0, 511, 8)]
        pts[1:40:3] = pts[0:39:3]  # runs of equal samples
        for z in (complex(*rng.normal(size=2)), pts[5], (pts[7] + pts[8]) / 2):
            assert _polyline_distance(pts, z).hex() == _old_polyline_distance(pts, z).hex()
        ends = cnormal(rng, 2)
        for zm, zp in ((ends[0], ends[1]), (ends[0], ends[0]), (0.0, 0.0), (pts[3], pts[3] + 1e-200)):
            got, want = segment_distance(pts, zm, zp), _old_segment_distance(pts, zm, zp)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
