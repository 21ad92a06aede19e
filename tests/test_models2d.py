import json
from pathlib import Path

import numpy as np
import pytest

from nhchain.cli import parse_config, validate
from nhchain.core import CornerOperator, EigensolverError, Spectrum, dense_spectrum, expectation_profiles, match_spectra, spectral_mismatch
from nhchain.models1d import (
    HNParams,
    SSHParams,
    _hermitian_blocks,
    _one_per_pair,
    hn_closed_form,
    hn_matrix,
    hn_spectrum,
    ssh_closed_form,
    ssh_matrix,
    ssh_spectrum,
    unidirectional_matrix,
)
from nhchain.models2d import (
    HN_KEYS,
    SSH_KEYS,
    Stacked2DSpec,
    _inverse_iteration,
    _median,
    _shifted_pair,
    _ssh_product_case_residual,
    _stack_h_coeffs,
    bc_reduce,
    blocks,
    build_stacked_matrix,
    envelope_curves,
    kagome_matrix,
    lift_block_vector,
    profile_along_chain,
    representative_state,
    segment_distance,
    separable_square_matrix,
    separable_square_spectrum,
    stacked_hn_balance,
    stacked_hn_spectrum,
    stacked_line,
    stacked_ssh_balance,
    stacked_ssh_spectrum,
    triangular_spec,
    triangular_spectrum,
)

from conftest import cnormal

HN_P = dict(t_d=1.0, t_l=3.0, t_r=2.0, u_d=7.0, v_dl=9.0, v_dr=8.0, u_u=4.0, v_ul=6.0, v_ur=5.0)


def ssh_params(vals):
    keys = [f"{b}{i}" for b in ("td", "tl", "tr", "ud", "vdl", "vdr", "uu", "vul", "vur") for i in (1, 2)]
    return dict(zip(keys, vals))


# the standard balanced-case parameter sets used by the shipped configs
STACK_HN_CASE1 = dict(t_d=1.0, t_l=2.0, t_r=2.0, u_d=2.0, v_dl=4.0, v_dr=3.0, u_u=-3.0, v_ul=3.0, v_ur=4.0)
STACK_HN_CASE2 = dict(t_d=1.0, t_l=2.0, t_r=2.0, u_d=2.0, v_dl=4.0, v_dr=4.0, u_u=-3.0, v_ul=3.0, v_ur=3.0)
STACK_HN_CASE3 = dict(t_d=1.0, t_l=2.0, t_r=1.0, u_d=2.0, v_dl=1.0, v_dr=0.0, u_u=-3.0, v_ul=0.0, v_ur=2.0)
STACK_HN_UNBAL = dict(t_d=1.0, t_r=2.0, t_l=3.0, u_u=4.0, v_ur=5.0, v_ul=6.0, u_d=7.0, v_dr=8.0, v_dl=9.0)

STACK_SSH_CASE1 = ssh_params([1, 4, 1, 2, 1, 2, 3, 6, 3, 4, 3, 4, 2, 5, 5, 6, 5, 6])
STACK_SSH_CASE2 = ssh_params([1, 4, 1, 2, 1, 2, 3, 6, 5, 6, 3, 4, 2, 5, 3, 4, 5, 6])
STACK_SSH_CASE4 = ssh_params([1, 4, 2, 1, 1, 2, 3, 6, 6, 5, 3, 4, 2, 5, 4, 3, 5, 6])
STACK_SSH_CASE7 = ssh_params([1, 4, 1, 8, 1, 6, 3, 6, 0, 0, 8 / 3, 3, 2, 5, 2, 3, 0, 0])
STACK_SSH_UNBAL = ssh_params([1, 4, 3, 4, 1, 2, 3, 6, 3, 4, 1, 2, 2, 5, 3, 4, 1, 2])


class TestBuildStackedMatrix:
    def test_single_layer_open_is_chain(self):
        spec = Stacked2DSpec("hn", HN_P, 6, 1, 0.4, "open")
        A = hn_matrix(HNParams(HN_P["t_l"], HN_P["t_r"], HN_P["t_d"]), 6, 0.4)
        assert np.allclose(build_stacked_matrix(spec), A)

    def test_decoupled_chains_block_diagonal(self):
        p = dict(HN_P, u_d=0.0, v_dl=0.0, v_dr=0.0, u_u=0.0, v_ul=0.0, v_ur=0.0)
        spec = Stacked2DSpec("hn", p, 5, 4, 0.3, "bc1")
        H = build_stacked_matrix(spec)
        A = hn_matrix(HNParams(p["t_l"], p["t_r"], p["t_d"]), 5, 0.3)
        for j in range(4):
            sl = slice(5 * j, 5 * j + 5)
            assert np.allclose(H[sl, sl], A)
        assert np.abs(H).sum() == pytest.approx(4 * np.abs(A).sum())

    def test_triangular_hand_assembled(self):
        # independent assembly from the bond list of the triangular lattice
        t_l, t_r, d1 = 1.0, 5.0, 0.35
        n1 = n2 = 4
        spec = triangular_spec(t_l, t_r, n1, n2, d1, "bc1")
        H = build_stacked_matrix(spec)
        G = np.zeros((16, 16), dtype=complex)

        def idx(i, j):
            return j * n1 + i

        def hop(src, dst, amp):
            (i1, j1), (i2, j2) = src, dst
            fac = d1 if (not 0 <= i1 < n1 or not 0 <= i2 < n1) else 1.0
            G[idx(i2 % n1, j2 % n2), idx(i1 % n1, j1 % n2)] += amp * fac

        for j in range(n2):
            for i in range(n1):
                hop((i, j), (i + 1, j), t_r)      # rightward along the chain
                hop((i + 1, j), (i, j), t_l)
                hop((i, j), (i, j + 1), t_l)      # to the next chain
                hop((i, j + 1), (i, j), t_r)
                hop((i + 1, j), (i, j + 1), t_r)  # diagonal bond
                hop((i, j + 1), (i + 1, j), t_l)
        assert np.allclose(H, G)

    def test_bc2_zero_delta_rejected(self):
        with pytest.raises(ValueError, match="delta2"):
            Stacked2DSpec("hn", HN_P, 4, 4, 0.0, "bc2", 0.0)

    @pytest.mark.parametrize("n1, n2", [(0, 4), (4, 0), (4, -1)])
    def test_empty_stack_rejected(self, n1, n2):
        with pytest.raises(ValueError, match=rf"n1 >= 1 and n2 >= 1, got {n1} x {n2}"):
            Stacked2DSpec("hn", HN_P, n1, n2, 0.0, "bc1")


class TestBCReduce:
    def test_bc2_at_one_equals_bc1(self):
        s1 = Stacked2DSpec("hn", HN_P, 5, 4, 0.3, "bc1")
        s2 = Stacked2DSpec("hn", HN_P, 5, 4, 0.3, "bc2", 1.0)
        for a, b in zip(bc_reduce(s1), bc_reduce(s2)):
            assert np.array_equal(a, b)

    def test_block_union_matches_oracle(self):
        spec = Stacked2DSpec("hn", HN_P, 8, 8, 0.45, "bc1")
        vals = np.concatenate([np.linalg.eigvals(b) for b in bc_reduce(spec)])
        oracle = dense_spectrum(build_stacked_matrix(spec))
        assert spectral_mismatch(vals, oracle.eigenvalues) < 1e-7

    def test_open_mode_has_no_reduction(self):
        spec = Stacked2DSpec("hn", HN_P, 5, 4, 0.3, "open")
        with pytest.raises(ValueError, match="no Bloch reduction"):
            bc_reduce(spec)

    def test_eigenvector_lift(self):
        spec = Stacked2DSpec("hn", HN_P, 4, 5, 0.2, "bc1")
        H = build_stacked_matrix(spec)
        for j, block in enumerate(bc_reduce(spec)):
            lam, vec = np.linalg.eig(block)
            s_j = spec.stack_factors()[j]
            lifted = lift_block_vector(vec[:, 0], s_j, 5)
            res = np.linalg.norm(H @ lifted - lam[0] * lifted) / np.linalg.norm(lifted)
            assert res < 1e-8


class TestStackedHN:
    def test_decoupled_limit(self):
        p = dict(HN_P, u_d=0.0, v_dl=0.0, v_dr=0.0, u_u=0.0, v_ul=0.0, v_ur=0.0)
        spec2d = Stacked2DSpec("hn", p, 6, 3, 0.4, "bc1")
        spec, _ = stacked_hn_spectrum(spec2d)
        chain, _ = hn_spectrum(HNParams(p["t_l"], p["t_r"], p["t_d"]), 6, 0.4)
        assert match_spectra(spec, np.tile(chain.eigenvalues, 3)) < 1e-9

    @pytest.mark.parametrize("mode,delta2", [("bc1", 1.0), ("bc2", 0.6 + 0.3j)])
    def test_matches_oracle(self, mode, delta2):
        spec2d = Stacked2DSpec("hn", HN_P, 6, 5, 0.7, mode, delta2)
        spec, asets = stacked_hn_spectrum(spec2d)
        oracle = dense_spectrum(build_stacked_matrix(spec2d))
        assert spectral_mismatch(spec, oracle) < 1e-7
        assert all(a is not None for a in asets)

    def test_balance_cases(self):
        assert stacked_hn_balance(Stacked2DSpec("hn", STACK_HN_CASE1, 6, 6, 0.0)) == "case1"
        assert stacked_hn_balance(Stacked2DSpec("hn", STACK_HN_CASE2, 6, 6, 0.0)) == "case2"
        assert stacked_hn_balance(Stacked2DSpec("hn", STACK_HN_CASE3, 6, 6, 0.0)) == "case3"
        assert stacked_hn_balance(Stacked2DSpec("hn", STACK_HN_UNBAL, 6, 6, 0.0)) == "unbalanced"

    def test_case4_structural(self):
        p = dict(t_d=1.0, t_l=2.0, t_r=1.0, u_d=2.0, v_dl=0.0, v_dr=2.0, u_u=-3.0, v_ul=1.0, v_ur=0.0)
        assert stacked_hn_balance(Stacked2DSpec("hn", p, 6, 6, 0.0)) == "case4"

    def test_hermitian_is_case1(self):
        p = dict(t_d=1.0, t_l=2.0, t_r=2.0, u_d=0.5, v_dl=3.0, v_dr=3.0, u_u=0.5, v_ul=3.0, v_ur=3.0)
        assert stacked_hn_balance(Stacked2DSpec("hn", p, 6, 6, 0.0)) == "case1"

    def test_random_draw_unbalanced(self, rng):
        p = {k: float(rng.uniform(0.5, 3.0)) for k in HN_P}
        assert stacked_hn_balance(Stacked2DSpec("hn", p, 6, 6, 0.0)) == "unbalanced"

    def test_periodic_direction_does_not_change_verdict(self, rng):
        p = dict(STACK_HN_CASE2)
        p["t_d"], p["u_d"], p["u_u"] = rng.uniform(-3, 3, 3)
        assert stacked_hn_balance(Stacked2DSpec("hn", p, 6, 6, 0.0)) == "case2"

    def test_case1_eigenvalues_on_segments(self):
        n1 = n2 = 10
        spec2d = Stacked2DSpec("hn", STACK_HN_CASE1, n1, n2, 0.35, "bc1")
        spec, _ = stacked_hn_spectrum(spec2d)
        env = envelope_curves(spec2d, np.linspace(0, 2 * np.pi, n2, endpoint=False))
        worst = 0.0
        for j in range(n2):
            lam = spec.eigenvalues[j * n1:(j + 1) * n1]
            worst = max(worst, segment_distance(lam, env.z_minus[j], env.z_plus[j]).max())
        assert worst < 1e-6


class TestEnvelope:
    def test_case2_two_ellipses(self):
        spec2d = Stacked2DSpec("hn", STACK_HN_CASE2, 6, 6, 0.0, "bc1")
        env = envelope_curves(spec2d)
        p = STACK_HN_CASE2
        t = env.t_grid
        for sign, curve in ((+1, env.z_plus), (-1, env.z_minus)):
            ellipse = (p["t_d"] + sign * 2 * p["t_r"]
                       + np.exp(1j * t) * (p["u_d"] + sign * 2 * p["v_dr"])
                       + np.exp(-1j * t) * (p["u_u"] + sign * 2 * p["v_ur"]))
            assert np.abs(curve - ellipse).max() < 1e-9

    def test_case3_loop_matches_parametrization(self):
        spec2d = Stacked2DSpec("hn", STACK_HN_CASE3, 6, 6, 0.0, "bc1")
        env = envelope_curves(spec2d, np.linspace(0, 2 * np.pi, 2001))
        assert env.case == "case3"
        assert env.loop is not None
        p = STACK_HN_CASE3
        tp = env.t_grid
        re = p["t_d"] + (p["u_u"] + p["u_d"]) * np.cos(2 * tp) + 2 * (p["t_l"] + p["t_r"]) * np.cos(tp)
        im = (p["u_d"] - p["u_u"]) * np.sin(2 * tp) + 2 * (p["t_r"] - p["t_l"]) * np.sin(tp)
        assert np.abs(env.loop - (re + 1j * im)).max() < 1e-9
        # z_plus and z_minus both lie on the loop
        for curve in (env.z_plus, env.z_minus):
            d = np.abs(curve[:, None] - env.loop[None, :]).min(axis=1)
            assert d.max() < 0.05

    def test_decoupled_envelope_constant(self):
        p = dict(t_d=1.0, t_l=2.0, t_r=2.0, u_d=0.0, v_dl=0.0, v_dr=0.0, u_u=0.0, v_ul=0.0, v_ur=0.0)
        env = envelope_curves(Stacked2DSpec("hn", p, 6, 6, 0.0, "bc1"))
        assert np.abs(env.z_plus - (1.0 + 4.0)).max() < 1e-12
        assert np.abs(env.z_minus - (1.0 - 4.0)).max() < 1e-12

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="balanced"):
            envelope_curves(Stacked2DSpec("hn", STACK_HN_UNBAL, 6, 6, 0.0, "bc1"))


class TestTriangular:
    def test_bc2_at_one_equals_bc1(self):
        t1 = triangular_spec(1.0, 5.0, 6, 6, 0.4, "bc1")
        t2 = triangular_spec(1.0, 5.0, 6, 6, 0.4, "bc2", 1.0)
        s1, _ = triangular_spectrum(t1)
        s2, _ = triangular_spectrum(t2)
        assert match_spectra(s1, s2) < 1e-12

    @pytest.mark.parametrize("mode,delta2", [("bc1", 1.0), ("bc2", 0.5)])
    def test_matches_oracle(self, mode, delta2):
        spec2d = triangular_spec(1.0, 5.0, 8, 6, 0.3, mode, delta2)
        spec, _ = triangular_spectrum(spec2d)
        oracle = dense_spectrum(build_stacked_matrix(spec2d))
        assert spectral_mismatch(spec, oracle) < 1e-7

    def test_bc1_square_eigenvalues_inside_loop(self):
        n = 10
        spec2d = triangular_spec(1.0, 5.0, n, n, 0.5, "bc1")
        spec, _ = triangular_spectrum(spec2d)
        env = envelope_curves(spec2d)
        for lam in spec.eigenvalues:
            inc = np.angle(np.roll(env.loop - lam, -1) / (env.loop - lam)).sum() / (2 * np.pi)
            assert abs(round(inc)) >= 1  # loop winds around every eigenvalue

    def test_envelope_case_is_the_balance_case(self):
        # t_l = t_r meets case 1's equalities too once mapped onto the hn stack
        spec2d = triangular_spec(1.0, 1.0, 6, 6, 0.0, "bc1")
        env = envelope_curves(spec2d)
        assert stacked_hn_balance(spec2d) == env.case == "case4"
        assert env.loop is not None

    def test_envelope_uses_the_block_coefficients(self):
        # z1 = h_d and z2^2 = 4 h_l h_r of the Bloch blocks at t = arg(s_j)
        spec2d = triangular_spec(1.0, 2.5, 5, 6, 0.0, "bc1")
        s = spec2d.stack_factors()
        env = envelope_curves(spec2d, np.angle(s))
        for j, block in enumerate(bc_reduce(spec2d)):
            assert abs(env.z1[j] - block[0, 0]) < 1e-12
            assert abs(env.z2[j] ** 2 - 4 * block[0, 1] * block[1, 0]) < 1e-11

    @pytest.mark.parametrize("t_r", [2.0 + 1j, -1.0 + 0.3j])
    def test_complex_loop_lies_on_the_curves(self, t_r):
        # the case-4 loop of a complex triangular lattice is the union of
        # z+ and z-, up to the 2 pi / 4000 step of the sampled reference
        spec2d = triangular_spec(1.0, t_r, 6, 6, 0.0, "bc1")
        env = envelope_curves(spec2d)
        assert stacked_hn_balance(spec2d) == env.case == "case4"
        fine = envelope_curves(spec2d, np.linspace(0.0, 2 * np.pi, 4001))
        ref = np.concatenate([fine.z_plus, fine.z_minus])
        assert np.abs(env.loop[:, None] - ref[None, :]).min(axis=1).max() < 0.01

    def test_bc2_exponent_modulus_fixed_at_square_aspect(self):
        # [delta2^(1/N2)]^(N1/2) has modulus |delta2|^(1/2) whenever N1 = N2,
        # independent of the common size
        for n in (4, 8, 12):
            spec2d = triangular_spec(1.0, 5.0, n, n, 0.0, "bc2", 0.37)
            mods = np.abs(spec2d.stack_factors() ** (n / 2))
            assert np.allclose(mods, np.sqrt(0.37))

    def test_open_localization_decreases_with_n2(self):
        fractions = []
        for n2 in (2, 6, 10):
            spec2d = triangular_spec(1.0, 5.0, 16, n2, 0.0, "open")
            H = build_stacked_matrix(spec2d)
            lam, vr, vl = representative_state(H)
            prof = profile_along_chain(vr, 16, n2)
            w = max(1, int(np.ceil(0.1 * 16)))
            p = prof / prof.sum()
            fractions.append(max(p[:w].sum(), p[-w:].sum()))
        assert fractions[0] > fractions[1] > fractions[2]


class TestRepresentativeState:
    def test_same_eigenvalue_for_any_order(self):
        # two magnitudes tie at the median 3; the lower one is reported
        assert representative_state(np.diag([1.0, 2.0, 4.0, 5.0]))[0] == 2.0
        assert representative_state(np.diag([5.0, 4.0, 2.0, 1.0]))[0] == 2.0

    def test_conjugate_tie_independent_of_order(self):
        a = representative_state(np.diag([1, 2 + 1j, 2 - 1j, 5]))
        b = representative_state(np.diag([5, 2 - 1j, 2 + 1j, 1]))
        assert a[0] == b[0] == 2 + 1j
        assert np.allclose(np.abs(a[1]), [0, 1, 0, 0])
        assert np.allclose(np.abs(b[1]), [0, 0, 1, 0])

    def test_site_permutation_gives_permuted_state(self):
        H = build_stacked_matrix(triangular_spec(1.0, 5.0, 8, 4, 0.0, "open"))
        lam, vr, _ = representative_state(H)
        mags = np.abs(np.linalg.eigvals(H))
        dist = np.abs(mags - np.median(mags))
        assert abs(abs(lam) - np.median(mags)) <= dist.min() + 1e-9 * mags.max()
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(len(H))
            lam_p, vr_p, _ = representative_state(H[np.ix_(perm, perm)])
            assert abs(lam_p - lam) < 1e-9 * abs(lam)
            overlap = abs(np.vdot(vr_p, vr[perm])) / (np.linalg.norm(vr_p) * np.linalg.norm(vr))
            assert overlap == pytest.approx(1.0, abs=1e-9)


def _null_vector_profiles(H, lam):
    """|vr|^2, |vl|^2 and the biorthogonal profile from the SVD null vectors
    of H - lam I, as the benchmark's `states` check computes them."""
    u, s, vh = np.linalg.svd(H - lam * np.eye(len(H)))
    assert s[-1] <= 1e-10 * s[0] and s[-2] >= 1e3 * s[-1]
    right, left = vh[-1].conj(), u[:, -1]
    bio = np.conj(left) * right
    return np.abs(right) ** 2, np.abs(left) ** 2, bio / bio.sum()


STATE_MATRICES = {
    **{f"triangular_30x10_d{d}": lambda d=d: build_stacked_matrix(
        triangular_spec(1.0, 5.0, 30, 10, d, "open")) for d in (0.0, 0.37, 0.9)},
    "hn_complex_tr_N20": lambda: hn_matrix(HNParams(1.0, 1.7 * np.exp(0.6j), 0.2), 20, 0.3),
}


class TestRepresentativeStateVectors:
    """The eigenpair from one eigenvalue solve and inverse iteration."""

    @pytest.mark.parametrize("name", sorted(STATE_MATRICES))
    def test_profiles_match_svd_null_vectors(self, name):
        H = STATE_MATRICES[name]()
        lam, vr, vl = representative_state(H)
        assert np.linalg.norm(vr) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(vl) == pytest.approx(1.0, abs=1e-14)
        rr, ll, lr = _null_vector_profiles(H, lam)
        prof = expectation_profiles(vr, vl)
        assert prof.normalization == "biorthogonal"
        assert np.abs(prof.rr - rr).max() < 1e-8
        assert np.abs(prof.ll - ll).max() < 1e-8
        assert np.abs(prof.lr - lr).max() < 1e-8

    def test_jordan_block(self):
        # a defective double eigenvalue: one right (e1) and one left (e2)
        # eigenvector, with vanishing biorthogonal overlap
        lam, vr, vl = representative_state(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert lam == 2.0
        assert np.allclose(np.abs(vr), [1.0, 0.0], atol=1e-12)
        assert np.allclose(np.abs(vl), [0.0, 1.0], atol=1e-12)
        assert expectation_profiles(vr, vl).normalization == "degenerate"

    def test_close_pair_gets_clean_vector(self):
        # eigenvalues 1e-10 apart: the second step removes the neighbour's
        # share that the first leaves (about shift / 1e-10, some 4e-5)
        H = np.diag([1.0, 2.0, 2.0 + 1e-10, 5.0])
        lam, vr, vl = representative_state(H)
        assert lam == 2.0
        assert np.abs(vr[[0, 2, 3]]).max() < 1e-8 and np.abs(vl[[0, 2, 3]]).max() < 1e-8

    @pytest.mark.parametrize("H", [np.array([[3.0, 1.0], [1.0, 3.0]]),
                                   hn_matrix(HNParams(1.0, 1.0), 12, 1.0)])
    def test_eigenvector_orthogonal_to_uniform_vector(self, H):
        # the chosen eigenvector sums to zero (for the 2 x 2 it is (1, -1) at
        # lambda = 2; on the periodic chain every mode but the uniform one
        # does), so a uniform start vector would lead to the wrong one
        lam, vr, vl = representative_state(H)
        assert np.linalg.norm(H @ vr - lam * vr) < 1e-12
        assert np.linalg.norm(vl.conj() @ H - lam * vl.conj()) < 1e-12

    def test_degenerate_eigenspace_vector_independent_of_order(self, monkeypatch):
        import nhchain.models2d as m2

        H = np.diag([1.0, 2.0, 2.0, 5.0])
        lam, vr, vl = representative_state(H)
        real = m2.dense_spectrum
        monkeypatch.setattr(m2, "dense_spectrum",
                            lambda M: Spectrum(real(M).eigenvalues[::-1]))
        lam_rev, vr_rev, vl_rev = representative_state(H)
        assert lam == lam_rev == 2.0
        assert np.array_equal(vr, vr_rev) and np.array_equal(vl, vl_rev)
        # a vector of the eigenspace spanned by sites 2 and 3
        assert np.abs(vr[[0, 3]]).max() < 1e-12 and np.abs(vl[[0, 3]]).max() < 1e-12

    @pytest.mark.parametrize("H", [unidirectional_matrix(1.0, 1.0, 0.0, 30),
                                   hn_matrix(HNParams(1.0, 0.0), 30, 0.0)])
    def test_long_jordan_chain_takes_full_eigendecomposition(self, H):
        # nilpotent open chains: one 30-site Jordan block at lambda = 0, on
        # which inverse iteration leaves the float range
        with pytest.raises(EigensolverError):
            _inverse_iteration(H, 0.0)
        lam, vr, vl = representative_state(H)
        spec, VR, VL = dense_spectrum(H, want_vectors=True)
        k = int(np.flatnonzero(spec.eigenvalues == lam)[0])
        assert lam == 0.0
        assert np.array_equal(vr, VR[:, k]) and np.array_equal(vl, VL[:, k])
        assert np.linalg.norm(H @ vr) < 1e-12 and np.linalg.norm(vl.conj() @ H) < 1e-12
        assert expectation_profiles(vr, vl).normalization == "degenerate"

    def test_shift_scales_with_eigenvalue(self, monkeypatch):
        # lambda = 8 of the all-ones 8 x 8 is 8 times max|M|: a shift of 4
        # ulps of max|M| alone is half an ulp of 8 and rounds back to lambda
        diagonals = []
        solve = np.linalg.solve

        def spy(a, b):
            diagonals.append(a[0].diagonal().copy())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        vr, vl = _inverse_iteration(np.ones((8, 8)), 8.0)
        assert np.all(diagonals[0].real != 1.0 - 8.0)
        assert np.allclose(np.abs(vr), 8 ** -0.5, atol=1e-12)
        assert np.allclose(np.abs(vl), 8 ** -0.5, atol=1e-12)

    def test_no_eigenvector_set_is_computed(self, monkeypatch):
        import nhchain.models2d as m2

        calls = []
        real = m2.dense_spectrum

        def spy(matrix, want_vectors=False):
            calls.append(want_vectors)
            return real(matrix, want_vectors)

        monkeypatch.setattr(m2, "dense_spectrum", spy)
        representative_state(build_stacked_matrix(triangular_spec(1.0, 5.0, 6, 4, 0.2, "open")))
        assert calls == [False]


def test_median_equals_np_median_bitwise():
    """The sort-based median of `_representative_index` is np.median's to
    the bit, on odd and even counts, with and without ties."""
    rng = np.random.default_rng(59)
    for n in range(1, 60):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        draws = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3),
                 rng.integers(0, 4, n).astype(float),    # ties
                 np.abs(np.concatenate([z, z.conj()])),  # conjugate pairs tie exactly
                 np.abs(z))
        for x in draws:
            assert np.float64(_median(x)).tobytes() == np.float64(np.median(x)).tobytes(), (n, x)


@pytest.mark.parametrize("n", [5, 30, 300])
@pytest.mark.parametrize("kind", ["real", "complex", "real-negative-shift"])
def test_shifted_pair_equals_np_stack_bitwise(rng, n, kind):
    """The preallocated [M - mu I, (M - mu I)^H] of `_inverse_iteration` is
    the np.stack of the two, dtype and signed zeros included."""
    M = rng.standard_normal((n, n))
    mu = np.float64(-abs(rng.standard_normal())) if kind == "real-negative-shift" else np.float64(0.7)
    if kind == "complex":
        M = M + 1j * rng.standard_normal((n, n))
        mu = np.complex128(complex(rng.standard_normal(), -rng.standard_normal()))
    for m, shift in ((M, mu), (M, np.complex128(mu - 0.3j))):
        shifted = m - shift * np.eye(n)
        want = np.stack([shifted, shifted.conj().T])
        got = _shifted_pair(m, shift)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

REAL_STACKS = {
    "triangular_open": triangular_spec(1.0, 5.0, 12, 5, 0.37, "open"),
    "triangular_bc1": triangular_spec(1.0, 5.0, 8, 6, 0.5, "bc1"),
    "stacked_hn_bc2": Stacked2DSpec("hn", {"t_d": 1, "t_l": 2, "t_r": 1, "u_d": 2, "v_dl": 1,
                                           "v_dr": 0, "u_u": -3, "v_ul": 0, "v_ur": 2},
                                    6, 5, 0.3, "bc2", 0.6),
    "stacked_ssh_open": Stacked2DSpec("ssh", {k: 1.0 + 0.1 * i for i, k in enumerate(SSH_KEYS)},
                                      6, 4, 0.8, "open"),
}


def _complex_assembly(spec):
    """The stacked operator assembled in complex arithmetic, block by block."""
    A, B, C = blocks(spec)
    n1, n2 = spec.n1, spec.n2
    ctr, cbl = spec.corner_coefficients
    H = np.zeros((n1 * n2, n1 * n2), dtype=complex)
    for j in range(n2):
        H[j * n1:(j + 1) * n1, j * n1:(j + 1) * n1] = A
        if j + 1 < n2:
            H[j * n1:(j + 1) * n1, (j + 1) * n1:(j + 2) * n1] = B
            H[(j + 1) * n1:(j + 2) * n1, j * n1:(j + 1) * n1] = C
    H[:n1, (n2 - 1) * n1:] += ctr * C
    H[(n2 - 1) * n1:, :n1] += cbl * B
    return H


class TestRealAssembly:
    @pytest.mark.parametrize("name", sorted(REAL_STACKS))
    def test_real_matrix_same_eigenvalues_as_complex(self, name):
        spec = REAL_STACKS[name]
        H = build_stacked_matrix(spec)
        Hc = _complex_assembly(spec)
        assert H.dtype == np.float64
        assert np.array_equal(H, Hc)
        lam = dense_spectrum(H).eigenvalues
        assert np.array_equal(lam, dense_spectrum(Hc).eigenvalues)
        assert np.abs(lam.imag).max() > 0.1

    @pytest.mark.parametrize("change", [{"delta1": 0.3 + 0.1j}, {"delta2": 0.5 + 0.3j},
                                        {"params": {"t_l": 1.0, "t_r": 5j}}])
    def test_complex_input_stays_complex(self, change):
        fields = dict(family="triangular", params={"t_l": 1.0, "t_r": 5.0}, n1=6, n2=4,
                      delta1=0.3, mode="bc2", delta2=0.5)
        fields.update(change)
        assert build_stacked_matrix(Stacked2DSpec(**fields)).dtype == complex


class TestKagome:
    def test_decoupled_triangles(self):
        H = kagome_matrix(1.0, 5.0, 3, 3, 0.0, 0.0, 0.0, inter_scale=0.0)
        cell = np.array([[0, 1, 5], [5, 0, 1], [1, 5, 0]], dtype=complex)
        # block diagonal of 3x3 up-triangle cells
        for b in range(9):
            sl = slice(3 * b, 3 * b + 3)
            assert np.allclose(H[sl, sl], cell)
        assert np.abs(H).sum() == pytest.approx(9 * np.abs(cell).sum())

    def test_localization_grows_with_anisotropy(self):
        def edge_fraction(n1, n2):
            H = kagome_matrix(1.0, 5.0, n1, n2, 0.0, 0.0, 0.0)
            lam, vr, vl = representative_state(H)
            prof = profile_along_chain(vr, n1, n2, sublattice=3)
            p = prof / prof.sum()
            w = max(1, int(np.ceil(0.1 * n1)))
            return max(p[:w].sum(), p[-w:].sum())

        assert edge_fraction(18, 2) > edge_fraction(10, 10) + 0.1

    def test_periodic_wraps(self):
        H_open = kagome_matrix(1.0, 2.0, 3, 3, 0.0, 0.0, 0.0)
        H_per = kagome_matrix(1.0, 2.0, 3, 3, 1.0, 1.0, 1.0)
        assert np.abs(H_per).sum() > np.abs(H_open).sum()
        # every site has the same coordination under full periodicity
        deg = (np.abs(H_per) > 0).sum(axis=1)
        assert deg.min() == deg.max() == 4

    def test_fully_periodic_matches_bloch_blocks(self):
        # independent check of the bond geometry: the doubly periodic
        # lattice diagonalizes into 3x3 momentum blocks
        from nhchain.models2d import _KAGOME_DOWN, _KAGOME_UP

        t_l, t_r, n1, n2 = 1.0, 5.0, 4, 3
        H = kagome_matrix(t_l, t_r, n1, n2, 1.0, 1.0, 1.0)
        amps = {"l": t_l, "r": t_r}
        vals = []
        for m in range(n1):
            for n in range(n2):
                k1, k2 = 2 * np.pi * m / n1, 2 * np.pi * n / n2
                B = np.zeros((3, 3), dtype=complex)
                for s_src, (di, dj), s_dst, tag in _KAGOME_UP + _KAGOME_DOWN:
                    B[s_dst, s_src] += amps[tag] * np.exp(1j * (k1 * di + k2 * dj))
                vals += list(np.linalg.eigvals(B))
        oracle = dense_spectrum(H)
        assert spectral_mismatch(vals, oracle.eigenvalues) < 1e-10


class TestStackedSSH:
    def test_decoupled_limit(self):
        p = ssh_params([1, 4, 1, 2, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        spec2d = Stacked2DSpec("ssh", p, 6, 3, 0.5, "bc1")
        spec, _ = stacked_ssh_spectrum(spec2d)
        chain, _ = ssh_spectrum(SSHParams(1, 2, 2, 3, 1, 4), 6, 0.5)
        assert match_spectra(spec, np.tile(chain.eigenvalues, 3)) < 1e-9

    @pytest.mark.parametrize("params", [STACK_SSH_CASE1, STACK_SSH_CASE4, STACK_SSH_UNBAL])
    def test_matches_oracle(self, params):
        spec2d = Stacked2DSpec("ssh", params, 8, 6, 0.4, "bc1")
        spec, _ = stacked_ssh_spectrum(spec2d)
        oracle = dense_spectrum(build_stacked_matrix(spec2d))
        assert spectral_mismatch(spec, oracle) < 1e-7

    def test_bc2_matches_oracle(self, rng):
        p = {k: float(rng.uniform(0.5, 2.5)) for k in STACK_SSH_CASE1}
        spec2d = Stacked2DSpec("ssh", p, 6, 5, 0.6, "bc2", 0.8 + 0.4j)
        spec, _ = stacked_ssh_spectrum(spec2d)
        oracle = dense_spectrum(build_stacked_matrix(spec2d))
        assert spectral_mismatch(spec, oracle) < 1e-7

    def test_balance_cases(self):
        assert stacked_ssh_balance(Stacked2DSpec("ssh", STACK_SSH_CASE1, 6, 6, 0.0)) == "case1"
        assert stacked_ssh_balance(Stacked2DSpec("ssh", STACK_SSH_CASE4, 6, 6, 0.0)) == "case4"
        assert stacked_ssh_balance(Stacked2DSpec("ssh", STACK_SSH_CASE7, 6, 6, 0.0)) == "case7"
        assert stacked_ssh_balance(Stacked2DSpec("ssh", STACK_SSH_UNBAL, 6, 6, 0.0)) == "unbalanced"

    def test_odd_n1_rejected(self):
        with pytest.raises(ValueError, match="even"):
            Stacked2DSpec("ssh", STACK_SSH_CASE1, 5, 4, 0.0)

    def test_product_residual_equals_hand_expansion(self, rng):
        """The convolved Laurent products give the residual of the hand
        expansion they replaced within 1e-15 of the products' scale, on
        random real hoppings with zeros among them, at every shift."""
        for _ in range(500):
            p = {k: float(rng.normal()) * (rng.random() > 0.2) for k in STACK_SSH_CASE1}
            scale = max((abs(p[f"t{s}{i}"]) + abs(p[f"vd{s}{i}"]) + abs(p[f"vu{s}{i}"]))
                        for s in "lr" for i in (1, 2)) ** 2
            for shift in (0, 1, 2):
                got = _ssh_product_case_residual(p, shift)
                assert abs(got - _hand_product_residual(p, shift)) <= 1e-15 * scale

    def test_balance_tags_unchanged(self, rng):
        """`stacked_ssh_balance` tags the shipped configs, the test sets and
        their perturbations inside and outside the tolerance as the
        classification it replaced did (hand-expanded products and its own
        per-block loop)."""
        configs = Path(__file__).resolve().parent.parent / "configs"
        sets = [parse_config(json.loads(path.read_text()))["params"]
                for path in sorted(configs.glob("*.json")) if '"stacked-ssh"' in path.read_text()]
        sets += [STACK_SSH_CASE1, STACK_SSH_CASE2, STACK_SSH_CASE4, STACK_SSH_CASE7, STACK_SSH_UNBAL]
        sets += [{k: v + eps * rng.normal() for k, v in p.items()} for p in list(sets) for eps in (1e-12, 1e-8)]
        tags = set()
        for p in sets:
            for n2 in (4, 7):
                spec = Stacked2DSpec("ssh", {k: complex(v) for k, v in p.items()}, 6, n2, 0.0)
                tags.add(stacked_ssh_balance(spec))
                assert stacked_ssh_balance(spec) == _replaced_ssh_balance(spec)
        assert tags >= {"case1", "case4", "case7", "unbalanced"}


def _hand_product_residual(p, shift):
    """`_ssh_product_case_residual` as it was: both products expanded by hand."""
    def coeffs(tA, vdA, vuA, tB, vdB, vuB):
        return {-2: vuA * vuB, -1: tA * vuB + vuA * tB, 0: tA * tB + vdA * vuB + vuA * vdB,
                1: tA * vdB + vdA * tB, 2: vdA * vdB}

    right = coeffs(p["tr1"], p["vdr1"], p["vur1"], p["tr2"], p["vdr2"], p["vur2"])
    left = coeffs(p["tl1"], p["vdl1"], p["vul1"], p["tl2"], p["vdl2"], p["vul2"])
    return max(abs(right.get(power, 0.0) - left.get(power - shift, 0.0)) for power in range(-4, 5))


def _replaced_ssh_balance(spec):
    """`stacked_ssh_balance` as it was before its per-block loop was shared."""
    from nhchain import models2d

    p = {k: v.real for k, v in spec.params.items()}
    for case, eqs in models2d._SSH_CASES_INDIVIDUAL.items():
        if all(models2d._eq(p[a], p[b]) for a, b in eqs):
            return case
    for case, shift in (("case5", 0), ("case6", 1), ("case7", 2)):
        if _hand_product_residual(p, shift) <= models2d._BALANCE_TOL:
            return case
    for s in spec.stack_factors():
        h = _stack_h_coeffs(spec, s)
        denom = h["hl1"] * h["hl2"]
        if abs(denom) == 0 or abs(abs(h["hr1"] * h["hr2"] / denom) - 1.0) > models2d._BALANCE_TOL:
            return "unbalanced"
    return "general-r"


class TestSeparableSquare:
    def test_hermitian_grid(self):
        a, _ = hn_spectrum(HNParams(1.0, 1.0), 4, 0.0)
        b, _ = hn_spectrum(HNParams(1.0, 1.0), 3, 0.0)
        spec = separable_square_spectrum(a, b)
        ks = 2 * np.cos(np.pi * np.arange(1, 5) / 5)
        ls = 2 * np.cos(np.pi * np.arange(1, 4) / 4)
        expected = (ks[:, None] + ls[None, :]).ravel()
        assert match_spectra(spec, expected.astype(complex)) < 1e-12

    def test_matches_assembled_oracle(self):
        pa = HNParams(1.0, 2.0, 0.3)
        pb = HNParams(0.5, 1.5, -0.2)
        sa, _ = hn_spectrum(pa, 8, 0.0)
        sb, _ = hn_spectrum(pb, 8, 0.7)
        spec = separable_square_spectrum(sa, sb)
        H = separable_square_matrix(hn_matrix(pa, 8, 0.0), hn_matrix(pb, 8, 0.7))
        assert spectral_mismatch(spec, dense_spectrum(H)) < 1e-7

    def test_single_site_second_direction_shifts(self):
        pa = HNParams(1.0, 2.0, 0.0)
        sa, _ = hn_spectrum(pa, 6, 0.4)
        spec = separable_square_spectrum(sa, [0.7 + 0.1j])
        assert match_spectra(spec, sa.eigenvalues + 0.7 + 0.1j) < 1e-12

    def test_provenance_follows_inputs(self):
        exact, _ = hn_spectrum(HNParams(1.0, 2.0), 6, 0.0)
        dense, _ = hn_spectrum(HNParams(1.0, 2.0), 6, 0.4)
        assert separable_square_spectrum(exact, [0.5]).provenance == "analytic"
        assert separable_square_spectrum(exact, dense).provenance == "oracle"


class TestBlochRoute:
    """Stacked BC1/BC2 spectra from one batched eigensolve of the Bloch blocks."""

    def test_near_delta_one_matches_full_lattice(self):
        # the per-block closed form was 1.2e-5 off here
        spec2d = Stacked2DSpec("hn", STACK_HN_CASE1, 8, 8, 1 - 1e-4, "bc1")
        spec, asets = stacked_hn_spectrum(spec2d)
        oracle = dense_spectrum(build_stacked_matrix(spec2d))
        assert spectral_mismatch(spec, oracle) < 1e-10
        assert spec.provenance == "bloch-oracle"
        assert [len(a) for a in asets] == [8] * 8

    def test_validate_passes_near_delta_one(self):
        cfg = parse_config({
            "model": "stacked-hn", "task": "sweep", "params": STACK_HN_CASE1,
            "sizes": {"N1": 30, "N2": 30}, "mode": "bc1", "delta": 0.9999,
            "output": "near_one",
        })
        report = validate(cfg)
        assert report["status"] == "pass", report

    @staticmethod
    def _rel_match(a, b):
        b = np.asarray(b)
        return match_spectra(a, b) / np.abs(b).max()

    @pytest.mark.parametrize("mode,delta2", [("bc1", 1.0), ("bc2", 0.7 - 0.4j)])
    def test_hn_wavenumbers_match_block_closed_form(self, mode, delta2):
        spec2d = Stacked2DSpec("hn", HN_P, 7, 5, 0.37, mode, delta2)
        spec, asets = stacked_hn_spectrum(spec2d)
        for j, (block, s) in enumerate(zip(bc_reduce(spec2d), spec2d.stack_factors())):
            h = _stack_h_coeffs(spec2d, s)
            alphas = asets[j].expand()
            assert len(alphas) == 7
            back = h["h_d"] + 2 * np.sqrt(h["h_l"]) * np.sqrt(h["h_r"]) * np.cos(alphas)
            assert self._rel_match(back, np.linalg.eigvals(block)) < 1e-10
            assert self._rel_match(back, spec.eigenvalues[j * 7:(j + 1) * 7]) < 1e-10
            _, closed = hn_spectrum(HNParams(h["h_l"], h["h_r"], h["h_d"]), 7, 0.37)
            assert match_spectra(np.cos(alphas), np.cos(closed.expand())) < 1e-8

    @pytest.mark.parametrize("mode,delta2", [("bc1", 1.0), ("bc2", 0.7 - 0.4j)])
    def test_ssh_wavenumbers_match_block_closed_form(self, mode, delta2):
        spec2d = Stacked2DSpec("ssh", STACK_SSH_CASE4, 8, 5, 0.37, mode, delta2)
        spec, asets = stacked_ssh_spectrum(spec2d)
        for j, (block, s) in enumerate(zip(bc_reduce(spec2d), spec2d.stack_factors())):
            h = _stack_h_coeffs(spec2d, s)
            alphas = asets[j].expand()
            assert len(alphas) == 4
            mid, v = (h["hd1"] + h["hd2"]) / 2, (h["hd1"] - h["hd2"]) / 2
            c1 = np.sqrt(h["hl1"]) * np.sqrt(h["hr1"]) * np.sqrt(h["hl2"]) * np.sqrt(h["hr2"])
            r = np.sqrt(v * v + h["hl1"] * h["hr1"] + h["hl2"] * h["hr2"] + 2 * np.cos(alphas) * c1)
            back = np.concatenate([mid + r, mid - r])
            assert self._rel_match(back, np.linalg.eigvals(block)) < 1e-10
            assert self._rel_match(back, spec.eigenvalues[j * 8:(j + 1) * 8]) < 1e-10
            pj = SSHParams(h["hl1"], h["hr1"], h["hl2"], h["hr2"], h["hd1"], h["hd2"])
            _, closed = ssh_spectrum(pj, 8, 0.37)
            assert match_spectra(np.cos(alphas), np.cos(closed.expand())) < 1e-8

    # The two tests above reach the block wavenumbers through `hn_spectrum`
    # and `ssh_spectrum`, which share the stack's eigenvalue-to-wavenumber
    # helpers; these compare the stacked wavenumbers with the paper's route.
    @pytest.mark.parametrize("mode,delta2", [("bc1", 1.0), ("bc2", 0.7 - 0.4j)])
    def test_hn_wavenumbers_match_block_paper_route(self, mode, delta2):
        spec2d = Stacked2DSpec("hn", HN_P, 7, 5, 0.37, mode, delta2)
        _, asets = stacked_hn_spectrum(spec2d)
        for j, s in enumerate(spec2d.stack_factors()):
            h = _stack_h_coeffs(spec2d, s)
            _, closed = hn_closed_form(HNParams(h["h_l"], h["h_r"], h["h_d"]), 7, 0.37)
            assert closed.generator != "hn-eig"
            assert match_spectra(np.cos(asets[j].expand()), np.cos(closed.expand())) < 1e-8

    @pytest.mark.parametrize("mode,delta2", [("bc1", 1.0), ("bc2", 0.7 - 0.4j)])
    def test_ssh_wavenumbers_match_block_paper_route(self, mode, delta2):
        spec2d = Stacked2DSpec("ssh", STACK_SSH_CASE4, 8, 5, 0.37, mode, delta2)
        _, asets = stacked_ssh_spectrum(spec2d)
        for j, s in enumerate(spec2d.stack_factors()):
            h = _stack_h_coeffs(spec2d, s)
            pj = SSHParams(h["hl1"], h["hr1"], h["hl2"], h["hr2"], h["hd1"], h["hd2"])
            _, closed = ssh_closed_form(pj, 8, 0.37)
            assert closed.generator != "ssh-eig"
            assert match_spectra(np.cos(asets[j].expand()), np.cos(closed.expand())) < 1e-8

    def test_vanishing_hopping_block_has_no_wavenumbers(self):
        # h_l = s - 1/s vanishes at s = 1 (j = 0) and s = -1 (j = 2)
        p = dict(HN_P, t_l=0.0, v_dl=1.0, v_ul=-1.0)
        spec2d = Stacked2DSpec("hn", p, 6, 4, 0.37, "bc1")
        spec, asets = stacked_hn_spectrum(spec2d)
        assert [a is None for a in asets] == [True, False, True, False]
        assert len(spec) == 24
        oracle = dense_spectrum(build_stacked_matrix(spec2d))
        assert spectral_mismatch(spec, oracle) < 1e-10

    def test_one_per_pair_with_equal_real_parts(self):
        # a conjugate pair of wavenumbers, each seen twice with rounding noise
        # in the real part: keeping every other sorted value would drop one
        a, b = 0.3 + 0.5j, 0.3 - 0.5j
        row = np.array([[a, b, a + 5.6e-17, b + 5.6e-17]])
        kept = _one_per_pair(row)
        assert kept.shape == (1, 2)
        assert match_spectra(kept[0], [a, b]) < 1e-15

    @pytest.mark.parametrize("n2", [1, 2, 3, 7, 8])
    @pytest.mark.parametrize("family", ["hn", "ssh", "triangular"])
    def test_conjugate_pairs_match_full_lattice(self, family, n2):
        if family == "hn":
            spec2d, solve = Stacked2DSpec("hn", HN_P, 5, n2, 0.37, "bc1"), stacked_hn_spectrum
        elif family == "ssh":
            spec2d, solve = Stacked2DSpec("ssh", STACK_SSH_CASE4, 6, n2, 0.37, "bc1"), stacked_ssh_spectrum
        else:
            spec2d, solve = triangular_spec(1.0, 2.5, 5, n2, 0.37), triangular_spectrum
        spec, asets = solve(spec2d)
        assert len(asets) == n2
        assert spectral_mismatch(spec, dense_spectrum(build_stacked_matrix(spec2d))) < 1e-12
        rows = spec.eigenvalues.reshape(n2, -1)
        for j in range(n2 // 2 + 1, n2):
            assert np.array_equal(rows[j], rows[n2 - j].conj())

    @staticmethod
    def _blocks_solved(monkeypatch, solve, spec2d):
        """(result of solve(spec2d), number of Bloch blocks given to eigvals)."""
        solved = []
        eigvals = np.linalg.eigvals

        def counting(a):
            solved.append(1 if np.ndim(a) == 2 else len(a))
            return eigvals(a)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvals", counting)
            out = solve(spec2d)
        return out, sum(solved)

    @pytest.mark.parametrize("mode,delta2,t_l,conjugate", [
        ("bc1", 1.0, 3.0, True),
        ("bc2", 0.5, 3.0, True),
        ("bc2", -0.5, 3.0, False),
        ("bc2", 0.5 + 0.2j, 3.0, False),
        ("bc1", 1.0, 3.0 + 0.5j, False),
    ])
    @pytest.mark.parametrize("n2", [7, 8])
    def test_conjugate_route_only_for_real_input(self, monkeypatch, n2, mode, delta2, t_l, conjugate):
        spec2d = Stacked2DSpec("hn", dict(HN_P, t_l=t_l), 5, n2, 0.37, mode, delta2)
        (spec, _), solved = self._blocks_solved(monkeypatch, stacked_hn_spectrum, spec2d)
        assert solved == (n2 // 2 + 1 if conjugate else n2)
        assert spectral_mismatch(spec, dense_spectrum(build_stacked_matrix(spec2d))) < 1e-12

    def test_conjugate_route_counts_ssh_blocks(self, monkeypatch):
        real = Stacked2DSpec("ssh", STACK_SSH_CASE4, 6, 8, 0.37, "bc1")
        cplx = Stacked2DSpec("ssh", dict(STACK_SSH_CASE4, tl1=1 + 0.5j), 6, 8, 0.37, "bc1")
        assert self._blocks_solved(monkeypatch, stacked_ssh_spectrum, real)[1] == 5
        assert self._blocks_solved(monkeypatch, stacked_ssh_spectrum, cplx)[1] == 8


# general-r at N2 = 2: h_l(s) = h_r(s) at s = +-1, no structural case
STACK_HN_GENERAL_R = dict(t_d=1.0, t_l=1.0, t_r=1.0, u_d=2.0, v_dl=1.0, v_dr=0.5, u_u=-3.0, v_ul=2.0, v_ur=2.5)
STACK_HN_CASE4 = dict(t_d=1.0, t_l=2.0, t_r=1.0, u_d=2.0, v_dl=0.0, v_dr=2.0, u_u=-3.0, v_ul=1.0, v_ur=0.0)
BALANCED_BC1 = {
    "case1": ("hn", STACK_HN_CASE1, (7, 8)),
    "case2": ("hn", STACK_HN_CASE2, (7, 8)),
    "case3": ("hn", STACK_HN_CASE3, (7, 8)),
    "case4": ("hn", STACK_HN_CASE4, (7, 8)),
    "general-r": ("hn", STACK_HN_GENERAL_R, (1, 2)),
    "triangular": ("triangular", {"t_l": 1.0, "t_r": 5.0}, (7, 8)),
}


class TestHermitianBlocks:
    """Under BC1 the balance condition |h_l(s)| = |h_r(s)| makes each Bloch
    block h_d I + e^{i psi} K with K Hermitian at every real delta1; the
    line solves such blocks with eigvalsh."""

    @pytest.mark.parametrize("name", sorted(BALANCED_BC1))
    def test_balanced_stacks_solve_every_block_as_hermitian(self, name):
        family, params, n2s = BALANCED_BC1[name]
        for n2 in n2s:
            spec = Stacked2DSpec(family, params, 6, n2, 0.0, "bc1")
            assert stacked_hn_balance(spec) != "unbalanced"
            for d1 in (0.0, 0.3, 1.0, -2.0):
                assert stacked_line(spec)(d1).parameters["hermitian_blocks"] == n2
            assert stacked_line(spec)(0.3 + 0.1j).parameters["hermitian_blocks"] == 0

    def test_unbalanced_stack_solves_no_block_as_hermitian(self):
        spec = Stacked2DSpec("hn", STACK_HN_UNBAL, 30, 30, 0.0, "bc1")
        assert stacked_hn_balance(spec) == "unbalanced"
        assert stacked_line(spec)(0.3).parameters["hermitian_blocks"] == 0

    @pytest.mark.parametrize("name", sorted(BALANCED_BC1))
    @pytest.mark.parametrize("d1", [0.0, 1e-14, 0.3, 1.0])
    def test_matches_general_eigensolver_on_the_balance_lines(self, name, d1):
        family, params, n2s = BALANCED_BC1[name]
        for n2 in n2s:
            spec = Stacked2DSpec(family, params, 7, n2, d1, "bc1")
            lam = stacked_line(spec)(d1).eigenvalues
            ref = _bloch_reference(spec)
            assert match_spectra(lam, ref) <= 1e-13 * (1 + np.abs(ref).max())
            # block j lies on h_d + sqrt(h_l h_r) R (the paper's segments)
            h = _stack_h_coeffs(spec, spec.stack_factors()[:, None])
            root = np.sqrt(h["h_l"] * h["h_r"])
            off = ((lam.reshape(n2, 7) - h["h_d"]) * root.conj()).imag / np.abs(root)
            assert np.abs(off).max() <= 1e-13 * (1 + np.abs(ref).max())

    def test_block_must_be_hermitian_at_delta_one_too(self):
        """A Hermitian bulk whose corner breaks the symmetry at delta1 = 1
        is no Hermitian block, though it is one at delta1 = 0."""
        n = 5
        bulk = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1) + 0j
        zero = CornerOperator(np.zeros((n, n), dtype=complex), (), ())
        upper, lower = ((0, n - 1, (1.0,)),), ((n - 1, 0, (1.0,)),)
        for corners, hermitian in (((upper, ()), 0), ((upper, lower), 1)):
            A = CornerOperator(bulk.copy(), *corners)
            shift, phase = _hermitian_blocks((A, zero, zero), np.ones(1, dtype=complex), [0])
            assert len(shift) == len(phase) == hermitian

    @pytest.mark.parametrize("n1", [7, 8])
    def test_complex_hoppings_solve_every_block_as_hermitian(self, n1):
        """Every hopping of a balanced stack times one phase keeps each
        block Hermitian up to a shift and a phase; with complex hoppings the
        blocks are no conjugate pairs, and all N2 are checked and solved."""
        params = {k: v * np.exp(0.4j) for k, v in STACK_HN_CASE2.items()}
        for d1 in (0.0, 0.3, 1.0):
            spec = Stacked2DSpec("hn", params, n1, 6, d1, "bc1")
            out = stacked_line(spec)(d1)
            assert out.parameters["hermitian_blocks"] == 6
            assert spectral_mismatch(out, dense_spectrum(build_stacked_matrix(spec))) <= 1e-13

    @pytest.mark.parametrize("n2", [7, 8])
    @pytest.mark.parametrize("d1", [0.0, 1e-14, 0.3, 1.0])
    def test_ssh_case2_matches_general_eigensolver(self, n2, d1):
        spec = Stacked2DSpec("ssh", STACK_SSH_CASE2, 8, n2, d1, "bc1")
        out = stacked_line(spec)(d1)
        assert out.parameters["hermitian_blocks"] == n2
        ref = _bloch_reference(spec)
        assert match_spectra(out, ref) <= 1e-13 * (1 + np.abs(ref).max())


def _bloch_reference(spec):
    """The Bloch eigenvalues of `spec` solved from its own blocks by the
    general eigensolver, as the stacked spectra solved them before they took
    them from a line and before blocks that are Hermitian up to a shift and
    a phase took eigvalsh: a line's blocks that it solves with eigvals equal
    these bit for bit, its Hermitian ones to rounding."""
    real = all(v.imag == 0 for v in spec.params.values()) and complex(spec.delta1).imag == 0
    paired = spec.mode == "bc1" or (spec.delta2.imag == 0 and spec.delta2.real > 0)
    s = spec.stack_factors()
    if not (real and paired):
        return np.linalg.eigvals(np.stack(bc_reduce(spec))).ravel()
    n2 = spec.n2
    A, B, C = (M.real for M in blocks(spec))
    lam = np.empty((n2, spec.n1), dtype=complex)
    selfconj = [0, n2 // 2] if n2 % 2 == 0 else [0]
    r = s[selfconj].real[:, None, None]
    lam[selfconj] = np.linalg.eigvals(A + r * B + C / r)
    pairs = np.arange(1, (n2 + 1) // 2)
    if len(pairs):
        t = s[pairs][:, None, None]
        lam[pairs] = np.linalg.eigvals(A + t * B + C / t)
        lam[n2 - pairs] = lam[pairs].conj()
    return lam.ravel()


def _assert_equals_reference(got: Spectrum, at: Stacked2DSpec):
    """`got` equals `_bloch_reference(at)` bit for bit in every block solved
    at full size (an odd N1, or a block the half-size route declines), and
    to 1e-13 of 1 + max|lambda| block by block where it was solved at half
    size."""
    ref = _bloch_reference(at)
    rows, ref_rows = got.eigenvalues.reshape(at.n2, at.n1), ref.reshape(at.n2, at.n1)
    exact = [np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(rows, ref_rows)]
    if at.n1 % 2:
        assert got.parameters["sublattice_blocks"] == 0 and all(exact)
    assert sum(exact) >= at.n2 - got.parameters["sublattice_blocks"]
    tol = 1e-13 * (1 + np.abs(ref).max())
    assert max(match_spectra(a, b) for a, b in zip(rows, ref_rows)) <= tol


class TestStackedLine:
    """One line evaluated at one delta1 after another equals a fresh line
    of the spec at each delta1, bit for bit; with no block solved as a
    Hermitian matrix, it also equals `_bloch_reference` bit for bit in the
    blocks it solves at full size, and to rounding in those it solves at
    half size (`_assert_equals_reference`)."""

    DELTAS = (0.0, 1.0, -1.0, 1e-14, 0.3, 0.3 + 0.2j, 0.3, 0.0)

    @pytest.mark.parametrize("family, params, n1, n2, mode, delta2", [
        ("hn", STACK_HN_UNBAL, 6, 5, "bc1", 1.0),
        ("hn", STACK_HN_CASE1, 4, 6, "bc2", 0.5),
        ("hn", dict(STACK_HN_CASE2, t_l=2.0 + 0.5j), 5, 4, "bc1", 1.0),
        ("ssh", STACK_SSH_CASE7, 6, 4, "bc1", 1.0),
        ("ssh", STACK_SSH_UNBAL, 4, 3, "bc2", -0.7 + 0.2j),
        ("triangular", {"t_l": 1.0, "t_r": 5.0}, 5, 6, "bc2", 2.0),
    ])
    def test_equals_stacked_eigenvalues(self, family, params, n1, n2, mode, delta2):
        spec = Stacked2DSpec(family, params, n1, n2, 0.9, mode, delta2)
        line = stacked_line(spec)
        for d1 in self.DELTAS:
            at = Stacked2DSpec(family, params, n1, n2, d1, mode, delta2)
            got, want = line(d1), stacked_line(at)(d1)
            assert np.array_equal(got.eigenvalues.view(np.int64), want.eigenvalues.view(np.int64))
            _assert_equals_reference(got, at)
            assert (got.provenance, got.parameters) == (want.provenance, want.parameters)
            assert got.parameters["hermitian_blocks"] == 0

    @pytest.mark.parametrize("family, params, n1, n2, hermitian", [
        ("hn", STACK_HN_CASE3, 5, 6, 6),
        ("ssh", STACK_SSH_CASE2, 6, 5, 5),
        ("ssh", STACK_SSH_CASE1, 4, 6, 2),
    ])
    def test_balanced_equals_fresh_line(self, family, params, n1, n2, hermitian):
        """Also with blocks solved as Hermitian matrices at a real delta1;
        at a complex one, no block is, and the line equals the reference as
        in `test_equals_stacked_eigenvalues`."""
        line = stacked_line(Stacked2DSpec(family, params, n1, n2, 0.9, "bc1"))
        for d1 in self.DELTAS:
            at = Stacked2DSpec(family, params, n1, n2, d1, "bc1")
            got, want = line(d1), stacked_line(at)(d1)
            assert np.array_equal(got.eigenvalues.view(np.int64), want.eigenvalues.view(np.int64))
            assert (got.provenance, got.parameters) == (want.provenance, want.parameters)
            ref = _bloch_reference(at)
            if isinstance(d1, complex):
                assert got.parameters["hermitian_blocks"] == 0
                _assert_equals_reference(got, at)
            else:
                assert got.parameters["hermitian_blocks"] == hermitian
                assert match_spectra(got, ref) <= 1e-13 * (1 + np.abs(ref).max())

    def test_open_stack_raises(self):
        with pytest.raises(ValueError, match="no Bloch reduction"):
            stacked_line(Stacked2DSpec("hn", STACK_HN_CASE1, 4, 4, 0.0, "open"))


class TestHalfSizeBlocks:
    """Bloch blocks of even N1 are solved at half size: the Hermitian ones
    from the singular values of their sublattice-to-sublattice slice, the
    others from the grade-0 block of (M - c)^2 under the amplification
    guard; a declined block is solved whole."""

    KEYS = {"hn": HN_KEYS, "ssh": SSH_KEYS, "triangular": ("t_l", "t_r")}

    # ssh stacks need an even N1, the hn-like chains N1 >= 3
    @pytest.mark.parametrize("family, n1", [
        *((f, n1) for f in ("hn", "triangular") for n1 in (4, 5, 6, 8)),
        *(("ssh", n1) for n1 in (2, 4, 6, 8)),
    ])
    def test_matches_assembled_lattice(self, family, n1):
        """Random stacks (seeded) against the dense eigenvalues of the whole
        lattice.  delta1 = 0 is left out: there each block is an open chain,
        whose eigenvalues are ill-conditioned for every route."""
        rng = np.random.default_rng(1000 + 10 * n1 + len(family))
        half = 0
        for mode, delta2 in (("bc1", 1.0), ("bc2", 0.5), ("bc2", -0.7 + 0.2j)):
            for complex_hops in (False, True):
                for d1 in (0.37, 1.0, 0.3 + 0.2j):
                    params = {k: rng.normal() + (1j * rng.normal() if complex_hops else 0)
                              for k in self.KEYS[family]}
                    spec = Stacked2DSpec(family, params, n1, int(rng.integers(1, 7)), d1, mode, delta2)
                    out = stacked_line(spec)(d1)
                    assert spectral_mismatch(out, dense_spectrum(build_stacked_matrix(spec))) <= 1e-13
                    half += out.parameters["sublattice_blocks"]
        assert (half > 0) == (n1 % 2 == 0)

    def test_declined_block_is_solved_whole(self):
        """h_r(1) = t_r + v_dr + v_ur = 0: at delta1 = 0 block 0 is a
        one-way open chain, all its eigenvalues at h_d, and the guard
        declines its half-size solve; it gets the full-block eigvals."""
        params = dict(STACK_HN_UNBAL, t_r=-(STACK_HN_UNBAL["v_dr"] + STACK_HN_UNBAL["v_ur"]))
        spec = Stacked2DSpec("hn", params, 6, 5, 0.0, "bc1")
        out = stacked_line(spec)(0.0)
        assert out.parameters == {"hermitian_blocks": 0, "sublattice_blocks": 4}
        full = np.linalg.eigvals(bc_reduce(spec)[0].real)
        assert np.array_equal(out.eigenvalues[:6].view(np.int64), full.astype(complex).view(np.int64))
        _assert_equals_reference(out, spec)

    def test_hermitian_check_of_huge_hoppings(self):
        """Every hopping times 1e160: the Hermitian-block check scales its
        products, so the line finds the same Hermitian blocks with no
        overflow, and the spectrum is 1e160 times the unscaled one."""
        spec = Stacked2DSpec("hn", STACK_HN_CASE1, 6, 4, 0.3, "bc1")
        huge = Stacked2DSpec("hn", {k: 1e160 * v for k, v in STACK_HN_CASE1.items()}, 6, 4, 0.3, "bc1")
        small, big = stacked_line(spec)(0.3), stacked_line(huge)(0.3)
        assert big.parameters == small.parameters
        assert small.parameters["hermitian_blocks"] > 0
        lam = small.eigenvalues
        assert match_spectra(big.eigenvalues / 1e160, lam) <= 1e-14 * (1 + np.abs(lam).max())

    def test_blocks_too_large_to_square_are_solved_whole(self):
        """Entries of 1e160 would overflow the block of (M - c)^2: the
        blocks are solved whole, with no warning (the suite turns
        RuntimeWarnings into errors).  A complex hopping keeps the line
        from its Hermitian-block check, whose products overflow too."""
        params = {k: 1e160 * v for k, v in dict(STACK_HN_UNBAL, t_l=3.0 + 0.5j).items()}
        spec = Stacked2DSpec("hn", params, 6, 5, 0.3, "bc1")
        out = stacked_line(spec)(0.3)
        assert out.parameters == {"hermitian_blocks": 0, "sublattice_blocks": 0}
        ref = _bloch_reference(spec)
        assert np.array_equal(out.eigenvalues.view(np.int64), ref.view(np.int64))
