import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhchain.core import Spectrum
from nhchain.models1d import (
    HNParams,
    SSHParams,
    hn_matrix,
    hn_spectrum,
    mixed_longrange_matrix,
    ssh_matrix,
)
from nhchain.core import dense_spectrum
from nhchain.sensitivity import (
    _bisect_delta_star,
    classify_sensitivity,
    delta_sweep,
    hausdorff,
    sensitivity_exponent,
)

from conftest import cnormal


def hn_fn(t_l, t_r, N):
    return lambda d: dense_spectrum(hn_matrix(HNParams(t_l, t_r), N, d))


def ssh_fn(params, N):
    return lambda d: dense_spectrum(ssh_matrix(params, N, d))


class TestHausdorff:
    def test_identical(self):
        s = Spectrum([1.0, 2.0j])
        assert hausdorff(s, s) == 0.0

    def test_max_min_arithmetic(self):
        assert hausdorff(Spectrum([0.0]), Spectrum([3.0, 4.0j])) == pytest.approx(4.0)

    def test_balanced_sweep_stays_bounded(self):
        # balanced chain: both endpoints lie on the same segment; the drift
        # is bounded by the wavenumber-shift of the segment parametrization
        t_l, t_r = 1.0, np.exp(1j * np.pi / 3)
        s0, _ = hn_spectrum(HNParams(t_l, t_r), 20, 0.0)
        s1, _ = hn_spectrum(HNParams(t_l, t_r), 20, 1.0)
        assert hausdorff(s0, s1) < 2 * abs(np.sqrt(t_l * t_r)) * (np.pi / 21)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 2**32 - 1))
    def test_pseudometric(self, na, nb, seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=na) + 1j * r.normal(size=na)
        b = r.normal(size=nb) + 1j * r.normal(size=nb)
        c = r.normal(size=5) + 1j * r.normal(size=5)
        dab, dba = hausdorff(a, b), hausdorff(b, a)
        assert dab == pytest.approx(dba)
        assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12


class TestDeltaSweep:
    def test_jump_versus_smooth(self):
        grid = [0.0, 0.01, 0.02]
        jumped = delta_sweep(hn_fn(1.0, 2.0 * np.exp(1j * np.pi / 4), 30), grid)
        h1 = hausdorff(jumped[0], jumped[1])
        h2 = hausdorff(jumped[1], jumped[2])
        assert h1 > 5 * h2
        smooth = delta_sweep(hn_fn(1.0, np.exp(1j * np.pi / 4), 30), grid)
        h1 = hausdorff(smooth[0], smooth[1])
        h2 = hausdorff(smooth[1], smooth[2])
        assert h1 < 2 * h2

    def test_constant_model(self):
        sweep = delta_sweep(lambda d: Spectrum([1.0, -1.0]), [0.0, 0.5, 1.0])
        assert all(hausdorff(sweep[0], s) == 0.0 for s in sweep)


class TestClassify:
    def test_flagship_chain_examples(self):
        assert classify_sensitivity(hn_fn(1.0, 2.0 * np.exp(1j * np.pi / 4), 30)).verdict == "exponential"
        assert classify_sensitivity(hn_fn(1.0, np.exp(1j * np.pi / 4), 30)).verdict == "non-exponential"

    def test_alternating_chain_examples(self):
        assert classify_sensitivity(ssh_fn(SSHParams(1, 2, 3, 4), 30)).verdict == "exponential"
        assert classify_sensitivity(ssh_fn(SSHParams(-1j, 0.5, 4, 8), 30)).verdict == "non-exponential"

    def test_mixed_chain_balanced_magnitudes_still_jump(self):
        for u_l, t_r in ((2.0, 1.0), (1.0, 1.0), (1.0, 2.0)):
            fn = lambda d: dense_spectrum(mixed_longrange_matrix(t_r, u_l, d, 30))
            assert classify_sensitivity(fn).verdict == "exponential"

    def test_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            classify_sensitivity(hn_fn(1.0, 2.0, 10), eps=0.9)


class TestExponentFit:
    def test_unbalanced_chain_exponential(self):
        fam = lambda n, d: dense_spectrum(hn_matrix(HNParams(1.0, 2.0), n, d))
        rep = sensitivity_exponent(fam, 0.5, [8, 12, 16, 20])
        assert rep.verdict == "exponential"
        assert rep.xi > 0.05
        assert rep.r_squared > 0.95

    def test_balanced_chain_non_exponential(self):
        fam = lambda n, d: dense_spectrum(hn_matrix(HNParams(1.0, np.exp(0.4j)), n, d))
        rep = sensitivity_exponent(fam, 0.5, [8, 12, 16, 20])
        assert rep.verdict == "non-exponential"
        assert not any(rep.reached)

    def test_zero_mode_branch_masks_bulk(self):
        # the gradually moving zero-mode branch saturates delta* for the
        # full spectrum; dropping the two smallest eigenvalues restores the
        # exponential verdict of the bulk
        fam = lambda n, d: dense_spectrum(ssh_matrix(SSHParams(1, 2, 3, 4), n, d))
        full = sensitivity_exponent(fam, 0.6, [10, 14, 18, 22])
        bulk = sensitivity_exponent(fam, 0.6, [10, 14, 18, 22], drop_smallest=2)
        assert full.verdict == "non-exponential"
        assert bulk.verdict == "exponential"
        assert bulk.xi > full.xi

    def test_requires_enough_sizes(self):
        with pytest.raises(ValueError, match="4 sizes"):
            sensitivity_exponent(lambda n, d: Spectrum([0.0]), 0.5, [4, 6])

    def test_repeated_sizes_rejected(self):
        # four copies of one size leave the slope of the fit undetermined
        fam = lambda n, d: dense_spectrum(hn_matrix(HNParams(1.0, 2.0), n, d))
        with pytest.raises(ValueError, match="distinct"):
            sensitivity_exponent(fam, 0.5, [8, 8, 8, 8])

    def test_floor_flagged(self):
        # hn (1, 4) at N = 60 has moved by H = 0.67 already at delta = 1e-14
        fam = lambda n, d: dense_spectrum(hn_matrix(HNParams(1.0, 4.0), n, d))
        rep = sensitivity_exponent(fam, 0.5, [30, 40, 50, 60])
        assert rep.reached == (True, True, True, True)
        assert rep.at_floor == (False, False, False, True)
        assert rep.delta_star[-1] == 1e-14
        assert rep.as_dict()["at_floor"] == [False, False, False, True]

    def test_evaluations_count_every_spectrum(self):
        calls = {}

        def fam(n, d):
            calls[n] = calls.get(n, 0) + 1
            return dense_spectrum(hn_matrix(HNParams(1.0, 2.0), n, d))

        rep = sensitivity_exponent(fam, 0.5, [8, 12, 16, 20])
        assert rep.evaluations == tuple(calls[n] for n in (8, 12, 16, 20))
        assert rep.as_dict()["evaluations"] == list(rep.evaluations)
        balanced = lambda n, d: dense_spectrum(hn_matrix(HNParams(1.0, np.exp(0.4j)), n, d))
        assert sensitivity_exponent(balanced, 0.5, [8, 12, 16, 20]).evaluations == (2, 2, 2, 2)

    def test_verdicts_agree_with_screen(self):
        for t_r, expect in ((2.0, "exponential"), (np.exp(0.4j), "non-exponential")):
            fam = lambda n, d: dense_spectrum(hn_matrix(HNParams(1.0, t_r), n, d))
            rep = sensitivity_exponent(fam, 0.5, [10, 14, 18, 22])
            screen = classify_sensitivity(hn_fn(1.0, t_r, 22))
            assert rep.verdict == screen.verdict == expect


def plain_bisection(fn, threshold, lo=1e-14, max_iter=60):
    """Geometric bisection of delta* to b/a < 1 + 1e-12, the reference search."""
    ref = fn(0.0)
    if hausdorff(fn(1.0), ref) < threshold:
        return None
    a, b = lo, 1.0
    for _ in range(max_iter):
        if b / a < 1.0 + 1e-12:
            break
        mid = float(np.sqrt(a * b))
        if hausdorff(fn(mid), ref) >= threshold:
            b = mid
        else:
            a = mid
    return b


def counted(fn):
    """fn and a one-element list that counts its calls."""
    calls = [0]

    def wrapped(d):
        calls[0] += 1
        return fn(d)

    return wrapped, calls


SEARCH_FAMILIES = {
    **{f"hn-{n}": hn_fn(1.0, 2.0, n) for n in (8, 12, 16, 20, 26)},
    **{f"ssh-{n}": ssh_fn(SSHParams(1, 2, 3, 4), n) for n in (10, 14, 18, 22)},
}


class TestCriticalSearch:
    @pytest.mark.parametrize("name", sorted(SEARCH_FAMILIES))
    def test_matches_plain_bisection(self, name):
        ref_fn, ref_calls = counted(SEARCH_FAMILIES[name])
        new_fn, new_calls = counted(SEARCH_FAMILIES[name])
        want = plain_bisection(ref_fn, 0.5)
        got = _bisect_delta_star(new_fn, 0.5)
        assert (got is None) == (want is None)
        assert abs(got - want) <= 1e-12 * want
        assert new_calls[0] <= ref_calls[0] + 2

    def test_non_monotone_change_keeps_bisection_crossing(self):
        # H(delta) crosses 0.5 upward at 0.22, downward near 0.33 and upward
        # again at 0.35; an interpolating search over all of [1e-14, 1]
        # lands on 0.3498, bisection on 0.2203
        fn = lambda d: dense_spectrum(
            mixed_longrange_matrix(2.874496406554747, 2.329161058441691, d, 26))
        want = plain_bisection(fn, 0.5)
        got = _bisect_delta_star(fn, 0.5)
        assert want == pytest.approx(0.2203, abs=1e-4)
        assert abs(got - want) <= 1e-12 * want

    def test_fewer_spectra_than_bisection(self):
        # plain bisection takes 47 spectra per size here (423 in all); the
        # interpolating finish takes 22-24
        total = 0
        for fn in SEARCH_FAMILIES.values():
            wrapped, calls = counted(fn)
            _bisect_delta_star(wrapped, 0.5)
            total += calls[0]
        assert total <= 30 * len(SEARCH_FAMILIES)


class TestBalancedLineProperty:
    def test_spectra_stay_on_fixed_segment(self):
        t_l, t_r = 1.0, np.exp(1j * np.pi / 4)
        direction = np.sqrt(t_l) * np.sqrt(t_r)
        for d in (0.0, 0.25, 0.5, 0.75, 1.0):
            spec, _ = hn_spectrum(HNParams(t_l, t_r), 24, d)
            perp = np.imag(spec.eigenvalues / direction)
            assert np.abs(perp).max() < 1e-8
