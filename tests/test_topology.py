import numpy as np
import pytest

from nhchain.topology import (
    UNRELIABLE_MIN_DET,
    BlochSampler,
    _polyline_distance,
    gap_classify,
    tridiag_bloch_det,
    tridiag_det_winding,
    winding_number,
)

from conftest import cnormal


def hn_sampler(t_l, t_r, t_d=0.0):
    return BlochSampler(lambda k: t_d + t_l * np.exp(1j * k) + t_r * np.exp(-1j * k))


def two_band_block(k, tl1, tr1, tl2, tr2, v1=0.0, v2=0.0):
    """The 2 x 2 two-band Bloch block at a scalar k, or at an array of k
    (k axis first), as a BlochSampler takes it."""
    h = np.empty(np.shape(k) + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = v1, v2
    h[..., 0, 1] = tl1 + tr2 * np.exp(-1j * k)
    h[..., 1, 0] = tr1 + tl2 * np.exp(1j * k)
    return h


class TestWindingNumber:
    def test_hermitian_zero(self):
        res = winding_number(BlochSampler(lambda k: 2 * np.cos(k)), 3.0j)
        assert res.w == 0

    def test_hn_inside_ellipse(self):
        res = winding_number(hn_sampler(1.0, 2.0), 0.0)
        assert res.w == -1
        # against a brute phase summation on a fine fixed grid
        ks = np.linspace(-np.pi, np.pi, 4097)
        dets = np.exp(1j * ks) + 2 * np.exp(-1j * ks)
        brute = np.angle(dets[1:] / dets[:-1]).sum() / (2 * np.pi)
        assert round(brute) == -1

    def test_orientation_flips_with_dominant_hop(self):
        assert winding_number(hn_sampler(2.0, 1.0), 0.0).w == 1

    def test_balanced_no_point_gap(self, rng):
        t_r = np.exp(1j * np.pi / 4)
        samp = hn_sampler(1.0, t_r)
        seg_dir = np.sqrt(t_r)
        for _ in range(25):
            z = cnormal(rng, scale=2.0)
            # keep the probe away from the spectral segment
            if min(abs(z - seg_dir * x) for x in np.linspace(-2, 2, 81)) < 0.1:
                continue
            assert winding_number(samp, z).w == 0

    def test_on_spectrum_rejected(self):
        with pytest.raises(ValueError, match="spectrum"):
            winding_number(hn_sampler(1.0, 1.0), 0.0)

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="64"):
            winding_number(hn_sampler(1.0, 2.0), 0.0, n_samples=8)

    def test_converged_under_doubling(self):
        res = winding_number(hn_sampler(1.0, 2.0), 0.5 + 0.2j, n_samples=256)
        res2 = winding_number(hn_sampler(1.0, 2.0), 0.5 + 0.2j, n_samples=512)
        assert res.w == res2.w

    def test_constant_inside_component(self):
        samp = hn_sampler(1.0, 2.0)
        for probe in (0.0, 0.3 + 0.4j, -0.5 - 0.2j):
            assert winding_number(samp, probe).w == -1
        for probe in (4.0, -4.0, 3.5j):
            assert winding_number(samp, probe).w == 0

    def test_periodicity_check(self):
        assert hn_sampler(1.0, 2.0).periodicity_defect() < 1e-12


class TestGapClassify:
    def test_unbalanced_point_gap(self):
        verdict, witness = gap_classify(hn_sampler(1.0, 2.0))
        assert verdict == "point-gap"
        assert abs(witness.w) >= 1

    def test_balanced_line_gap(self):
        verdict, witness = gap_classify(hn_sampler(1.0, np.exp(1j * np.pi / 4)))
        assert verdict == "line-gap-consistent"

    def test_nonwinding_family_line_gap(self):
        from nhchain.models1d import bloch_1d, nonwinding_family

        p = nonwinding_family(1, 1.0, 0.6, 0.3, 0.7, -0.4)
        verdict, _ = gap_classify(BlochSampler(lambda k: bloch_1d(p, k)))
        assert verdict == "line-gap-consistent"

    def test_ssh_block_sampler(self):
        verdict, witness = gap_classify(
            BlochSampler(lambda k: two_band_block(k, 1.0, 2.0, 3.0, 4.0), dim=2))
        assert verdict == "point-gap"

    def test_balanced_ssh_block_line_gap(self):
        # |tr1 tr2| = |tl1 tl2| keeps the determinant loop from winding
        verdict, _ = gap_classify(
            BlochSampler(lambda k: two_band_block(k, -1j, 0.5, 4.0, 8.0), dim=2))
        assert verdict == "line-gap-consistent"

    def test_long_range_chains_always_point_gapped(self):
        # one-way hopping and the mixed +2/-1 chain wind even at equal
        # hopping magnitudes
        uni = BlochSampler(lambda k: np.exp(1j * k) + 2.0 * np.exp(2j * k))
        verdict, witness = gap_classify(uni)
        assert verdict == "point-gap" and abs(witness.w) >= 1
        mixed = BlochSampler(lambda k: np.exp(2j * k) + np.exp(-1j * k))
        verdict, witness = gap_classify(mixed)
        assert verdict == "point-gap" and abs(witness.w) >= 1


def _ssh_block(k):
    return two_band_block(k, 1.0, 2.0, 3.0, 4.0, v1=0.2, v2=-0.1)


SAMPLER_FNS = {
    "hn": (lambda k: 0.3 + np.exp(1j * k) + 2.0 * np.exp(-1j * k), 1),
    "ssh": (_ssh_block, 2),
    "mixed": (lambda k: 2.0 * np.exp(2j * k) + np.exp(-1j * k), 1),
}


def _reference_winding(fn, dim, base_energy, n_samples=256):
    """winding_number rebuilt from det_shifted on fresh samplers, no grid reuse."""
    E, n = complex(base_energy), n_samples
    while True:
        dets = BlochSampler(fn, dim).det_shifted(np.linspace(-np.pi, np.pi, n + 1), E)
        min_det = float(np.abs(dets).min())
        if min_det < UNRELIABLE_MIN_DET:
            return None
        inc = np.angle(dets[1:] / dets[:-1])
        total = float(inc.sum() / (2 * np.pi))
        if np.abs(inc).max() < 0.5 * np.pi and abs(total - round(total)) <= 0.1:
            return (int(round(total)), n, min_det, total)
        n *= 2


def _reference_gap(fn, dim, grid_size=12, pad=0.2):
    """gap_classify's scan on per-k evaluations and reference windings."""
    ks = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    if dim == 1:
        pts = np.array([complex(fn(k)) for k in ks])
    else:
        pts = np.concatenate([np.linalg.eigvals(np.asarray(fn(k), dtype=complex)) for k in ks])
    dre = max(pts.real.max() - pts.real.min(), 1e-6)
    dim_ = max(pts.imag.max() - pts.imag.min(), 1e-6)
    for re in np.linspace(pts.real.min() - pad * dre, pts.real.max() + pad * dre, grid_size):
        for im in np.linspace(pts.imag.min() - pad * dim_, pts.imag.max() + pad * dim_, grid_size):
            E = complex(re, im)
            near = (_polyline_distance(pts, E) if dim == 1 else float(np.abs(pts - E).min()))
            if near < 0.02 * max(dre, dim_):
                continue
            ref = _reference_winding(fn, dim, E)
            if ref is not None and abs(ref[0]) >= 1:
                return "point-gap", (E,) + ref
    return "line-gap-consistent", None


class TestSamplerCache:
    @staticmethod
    def _counting(fn):
        """fn, and the number of k values of each of its calls."""
        calls = []

        def counted(k):
            calls.append(np.size(k))
            return fn(k)

        return counted, calls

    def test_winding_evaluates_each_grid_once(self):
        counted, calls = self._counting(SAMPLER_FNS["hn"][0])
        samp = BlochSampler(counted)
        for E in (0.0, 0.4 + 0.2j, 5.0, -4.0j):
            assert winding_number(samp, E).samples == 256
        assert calls == [257]
        winding_number(samp, 0.0, n_samples=128)
        assert calls == [257, 129]

    @pytest.mark.parametrize("name", sorted(SAMPLER_FNS))
    def test_gap_classify_evaluates_each_grid_once(self, name):
        fn, dim = SAMPLER_FNS[name]
        counted, calls = self._counting(fn)
        samp = BlochSampler(counted, dim)
        verdict, witness = gap_classify(samp)
        assert verdict == "point-gap" and witness.samples == 256
        # band points on the 512 grid, every winding on the 256 grid, one
        # call of the function per grid
        assert calls == [513, 257]
        assert gap_classify(samp)[1] == witness
        assert calls == [513, 257]

    @pytest.mark.parametrize("name", sorted(SAMPLER_FNS))
    def test_matches_per_k_reference_bitwise(self, name):
        fn, dim = SAMPLER_FNS[name]
        samp = BlochSampler(fn, dim)
        rng = np.random.default_rng(11)
        for E in list(3 * rng.normal(size=12) + 3j * rng.normal(size=12)) + [0.0]:
            ref = _reference_winding(fn, dim, E)
            try:
                res = winding_number(samp, E)
            except ValueError:
                assert ref is None
                continue
            # repr round-trips floats exactly, so equal reprs are equal bits
            assert repr((res.w, res.samples, res.min_abs_det, res.phase_sum)) == repr(ref)
        verdict, witness = gap_classify(BlochSampler(fn, dim))
        ref_verdict, ref_witness = _reference_gap(fn, dim)
        assert verdict == ref_verdict
        assert repr((witness.base_energy, witness.w, witness.samples, witness.min_abs_det,
                     witness.phase_sum)) == repr(ref_witness)


class TestTridiagDet:
    def test_single_row(self):
        k = 0.7
        a = 1.0 * np.exp(-1j * k) + 5.0 * np.exp(1j * k)
        assert tridiag_bloch_det(1.0, 5.0, k, 1) == pytest.approx(a)

    def test_two_rows_hermitian_zero(self):
        assert tridiag_bloch_det(1.0, 1.0, 0.0, 2) == pytest.approx(0.0)

    def test_matches_dense_determinant(self, rng):
        for _ in range(4):
            t_l, t_r = cnormal(rng), cnormal(rng)
            k = float(rng.uniform(-np.pi, np.pi))
            n = 5
            a = t_l * np.exp(-1j * k) + t_r * np.exp(1j * k)
            b = t_r + t_l * np.exp(1j * k)
            c = t_l + t_r * np.exp(-1j * k)
            M = np.diag(np.full(n, a)) + np.diag(np.full(n - 1, b), 1) + np.diag(np.full(n - 1, c), -1)
            assert abs(tridiag_bloch_det(t_l, t_r, k, n) - np.linalg.det(M)) < 1e-10 * abs(np.linalg.det(M)) + 1e-10


class TestTridiagWinding:
    def test_generic_winds(self):
        res, flag = tridiag_det_winding(1.0, 5.0, 3)
        assert abs(res.w) >= 1
        assert flag is False

    def test_phase_ratio_never_winds(self):
        for n_rows in (2, 3, 5, 8):
            res, flag = tridiag_det_winding(1.0, np.exp(1j * 0.6), n_rows)
            assert flag is True
            assert res.w == 0

    def test_hermitian_curve_degenerate(self):
        res, flag = tridiag_det_winding(1.0, 1.0, 4)
        assert res.w == 0
        assert flag is True


def test_tridiag_det_on_array_equals_per_k_bitwise(rng):
    """tridiag_bloch_det on an array of k equals the scalar calls bit for
    bit, so tridiag_det_winding's one-call grids keep their outputs."""
    ks = np.linspace(-np.pi, np.pi, 1025)
    for n_rows in (1, 2, 5, 9):
        t_l, t_r = cnormal(rng), cnormal(rng)
        grid = tridiag_bloch_det(t_l, t_r, ks, n_rows)
        per_k = np.array([tridiag_bloch_det(t_l, t_r, k, n_rows) for k in ks])
        assert isinstance(tridiag_bloch_det(t_l, t_r, ks[3], n_rows), complex)
        assert np.array_equal(grid.view(np.int64), per_k.view(np.int64))


def test_constant_bloch_function_broadcasts():
    scalar = BlochSampler(lambda k: 1.5 + 0.5j)
    assert np.array_equal(scalar.grid(64), np.full(65, 1.5 + 0.5j))
    block = BlochSampler(lambda k: np.diag([1.0, -1.0]), dim=2)
    assert block.grid(64).shape == (65, 2, 2)
    assert gap_classify(block)[0] == "line-gap-consistent"
