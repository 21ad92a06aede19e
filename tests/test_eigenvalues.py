"""The eigenvalue-only lines against the spectra that also recover wavenumbers.

`hn_line`, `ssh_line`, `mixed_longrange_line` and `stacked_line`, evaluated
at one delta, must return exactly the `Spectrum` of the matching
`*_spectrum` function; the command line must reach every chain and Bloch
spectrum through them.
"""
import numpy as np
import pytest

from nhchain import models1d, models2d
from nhchain.cli import parse_config, run
from nhchain.models1d import (
    HNParams,
    SSHParams,
    hn_closed_form,
    hn_line,
    hn_spectrum,
    mixed_longrange_closed_form,
    mixed_longrange_line,
    mixed_longrange_spectrum,
    ssh_closed_form,
    ssh_line,
    ssh_spectrum,
    unidirectional_spectrum,
)
from nhchain.models2d import (
    Stacked2DSpec,
    separable_square_spectrum,
    stacked_hn_spectrum,
    stacked_line,
    stacked_ssh_spectrum,
    triangular_spec,
    triangular_spectrum,
)

from test_cli import STACK_HN, STACK_SSH

DELTAS = (0.0, 1.0, -1.0, 0.3, (0.4, -0.25))


def assert_same(eig, full):
    assert eig.eigenvalues.dtype == full.eigenvalues.dtype
    assert np.array_equal(eig.eigenvalues, full.eigenvalues)
    assert eig.provenance == full.provenance
    assert eig.parameters == full.parameters


def _hopping(rng, complex_):
    z = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
    return z * np.exp(1j * rng.uniform(-np.pi, np.pi)) if complex_ else z


@pytest.mark.parametrize("seed", range(8))
def test_hn_eigenvalues_equal_spectrum(seed):
    rng = np.random.default_rng(seed)
    provenances = set()
    for complex_ in (False, True):
        for ends in (False, True):
            p = HNParams(_hopping(rng, complex_), _hopping(rng, complex_), _hopping(rng, complex_),
                         *(_hopping(rng, complex_) for _ in range(2 if ends else 0)))
            N = int(rng.integers(3, 21))
            for delta in DELTAS:
                eig = hn_line(p, N)(delta)
                assert_same(eig, hn_spectrum(p, N, delta)[0])
                provenances.add(eig.provenance)
    assert {"analytic", "oracle"} <= provenances <= {"analytic", "oracle", "sublattice-oracle"}


@pytest.mark.parametrize("seed", range(8))
def test_ssh_eigenvalues_equal_spectrum(seed):
    rng = np.random.default_rng(100 + seed)
    provenances = set()
    for complex_ in (False, True):
        for N in (int(rng.integers(2, 11)) * 2, int(rng.integers(2, 11)) * 2 + 1):
            onsite = (_hopping(rng, complex_), _hopping(rng, complex_)) if N % 2 == 0 else ()
            p = SSHParams(*(_hopping(rng, complex_) for _ in range(4)), *onsite)
            for delta in DELTAS:
                eig = ssh_line(p, N)(delta)
                assert_same(eig, ssh_spectrum(p, N, delta)[0])
                provenances.add(eig.provenance)
    assert {"analytic", "oracle"} <= provenances <= {"analytic", "oracle", "sublattice-oracle"}


@pytest.mark.parametrize("seed", range(8))
def test_mixed_eigenvalues_equal_spectrum(seed):
    rng = np.random.default_rng(200 + seed)
    for complex_ in (False, True):
        t_r, u_l, N = _hopping(rng, complex_), _hopping(rng, complex_), int(rng.integers(4, 21))
        for delta in (0.0, 1.0, -1.0, 0.3, 0.5 - 0.2j):
            assert_same(mixed_longrange_line(t_r, u_l, N)(delta),
                        mixed_longrange_spectrum(t_r, u_l, delta, N)[0])


def _hn_at(p, N, delta):
    return hn_line(p, N)(delta)


def _ssh_at(p, N, delta):
    return ssh_line(p, N)(delta)


def _mixed_at(t_r, u_l, delta, N):
    return mixed_longrange_line(t_r, u_l, N)(delta)


# ids name the eigenvalue-only route and the spectrum it must equal
@pytest.mark.parametrize("eig,full,args", [
    pytest.param(_hn_at, hn_spectrum, (HNParams(0.0, 1.5), 9, 0.3),
                 id="hn_eigenvalues-hn_spectrum-args0"),
    pytest.param(_hn_at, hn_spectrum, (HNParams(1.0, 0.0, 0.2), 8, 1.0),
                 id="hn_eigenvalues-hn_spectrum-args1"),
    pytest.param(_ssh_at, ssh_spectrum, (SSHParams(1.0, 0.0, 2.0, 3.0), 8, 0.3),
                 id="ssh_eigenvalues-ssh_spectrum-args2"),
    pytest.param(_ssh_at, ssh_spectrum, (SSHParams(1.0, 2.0, 0.0, 3.0, 0.5, 0.1), 9, 0.0),
                 id="ssh_eigenvalues-ssh_spectrum-args3"),
    pytest.param(_mixed_at, mixed_longrange_spectrum, (0.0, 1.0, 0.5, 9),
                 id="mixed_longrange_eigenvalues-mixed_longrange_spectrum-args4"),
    pytest.param(_mixed_at, mixed_longrange_spectrum, (1.0, 0.0, 0.5, 9),
                 id="mixed_longrange_eigenvalues-mixed_longrange_spectrum-args5"),
])
def test_zero_hopping_fallback(eig, full, args):
    spec = eig(*args)
    assert spec.parameters == {"fallback": "zero hopping"}
    assert_same(spec, full(*args)[0])


def test_odd_open_ssh_is_analytic():
    p = SSHParams(1.0, 2.0, 3.0, 4.0)
    spec = ssh_line(p, 11)(0.0)
    assert spec.provenance == "analytic" and spec.eigenvalues[0] == 0
    assert_same(spec, ssh_spectrum(p, 11, 0.0)[0])


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_odd_ssh_with_onsite_raises(delta):
    p = SSHParams(1.0, 2.0, 3.0, 4.0, 0.5, 0.0)
    for solve in (_ssh_at, ssh_spectrum):
        with pytest.raises(ValueError, match="odd-length chains"):
            solve(p, 9, delta)


def _stack_params(family, rng, complex_):
    keys = {"hn": models2d.HN_KEYS, "ssh": models2d.SSH_KEYS, "triangular": ("t_l", "t_r")}[family]
    return {k: _hopping(rng, complex_) for k in keys}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["hn", "ssh", "triangular"])
def test_stacked_eigenvalues_equal_spectrum(family, seed):
    rng = np.random.default_rng(300 + seed)
    full = {"hn": stacked_hn_spectrum, "ssh": stacked_ssh_spectrum, "triangular": triangular_spectrum}[family]
    for complex_ in (False, True):
        params = _stack_params(family, rng, complex_)
        n1 = int(rng.integers(2, 7)) * 2
        for n2 in (1, 4, 7):
            for mode, delta2 in (("bc1", 1.0), ("bc2", 0.6), ("bc2", -0.5), ("bc2", 0.5 + 0.3j)):
                for delta1 in (0.0, 0.37, -1.0):
                    spec2d = Stacked2DSpec(family, params, n1, n2, delta1, mode, delta2)
                    eig = stacked_line(spec2d)(delta1)
                    assert eig.provenance == "bloch-oracle" and len(eig) == n1 * n2
                    assert_same(eig, full(spec2d)[0])


def test_stacked_eigenvalues_refuse_open_stacking():
    spec2d = Stacked2DSpec("triangular", {"t_l": 1.0, "t_r": 2.0}, 4, 4, 0.3, "open")
    with pytest.raises(ValueError, match="no Bloch reduction"):
        stacked_line(spec2d)


# config name: (config without task, tasks defined for it)
GUARDED = {
    "hn": ({"model": "hn", "params": {"t_l": 1.0, "t_r": 2.0}, "sizes": {"N": 10}},
           ("sweep", "sensitivity", "balance")),
    "hn-general": ({"model": "hn-general", "params": {"t_l": 1.0, "t_r": 2.0, "eps1": 0.3},
                    "sizes": {"N": 10}}, ("sweep", "sensitivity", "balance")),
    "ssh": ({"model": "ssh", "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0, "v1": 0.2},
             "sizes": {"N": 10}}, ("sweep", "sensitivity", "balance")),
    "ssh-odd": ({"model": "ssh-odd", "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0},
                 "sizes": {"N": 9}}, ("sweep", "sensitivity", "balance")),
    "mixed-longrange": ({"model": "mixed-longrange", "params": {"t_r": 1.0, "u_l": 2.0},
                         "sizes": {"N": 10}}, ("sweep", "sensitivity")),
    "stacked-hn": ({"model": "stacked-hn", "params": STACK_HN, "sizes": {"N1": 4, "N2": 4}},
                   ("sweep", "sensitivity", "envelope", "balance")),
    "stacked-ssh": ({"model": "stacked-ssh", "params": STACK_SSH, "sizes": {"N1": 4, "N2": 4},
                     "mode": "bc2", "delta2": 0.6}, ("sweep", "sensitivity", "balance")),
    "triangular-bc1": ({"model": "triangular", "params": {"t_l": 1.0, "t_r": 2.0},
                        "sizes": {"N1": 4, "N2": 4}}, ("sweep", "sensitivity", "envelope", "balance")),
    "triangular-bc2": ({"model": "triangular", "params": {"t_l": 1.0, "t_r": 2.0},
                        "sizes": {"N1": 4, "N2": 4}, "mode": "bc2", "delta2": 0.5},
                       ("sweep", "sensitivity", "envelope", "balance")),
    "separable-square": ({"model": "separable-square",
                          "params": {"a_t_l": 1.0, "a_t_r": 2.0, "b_t_l": 1.0, "b_t_r": 0.5},
                          "sizes": {"N1": 4, "N2": 4}}, ("sweep", "sensitivity")),
}
RECOVERING = ((models1d, "hn_spectrum"), (models1d, "ssh_spectrum"),
              (models1d, "mixed_longrange_spectrum"), (models2d, "stacked_hn_spectrum"),
              (models2d, "stacked_ssh_spectrum"))


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_run_path_never_recovers_wavenumbers(tmp_path, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("the run path recovered wavenumbers")

    for module, attr in RECOVERING:
        monkeypatch.setattr(module, attr, refuse)
    base, tasks = GUARDED[name]
    for task in tasks:
        cfg = parse_config(dict(base, task=task, delta={"start": 0.0, "stop": 1.0, "step": 0.5},
                                n_list=[4, 6, 8, 10],
                                output=task))
        assert run(cfg, tmp_path) == 0, task
        assert (tmp_path / f"{task}.json").exists()


READ_KEYS = {"fallback", "degree", "removed_factor", "hermitian_blocks"}


def test_spectra_carry_only_read_parameters():
    """Every `parameters` key of a spectrum that nhchain builds is one that
    something reads: the zero-hopping fallback, the mixed closed form's
    degree and removed factor, and the stacked lines' Hermitian block
    count."""
    hn, hn0 = HNParams(1.0, 2.0), HNParams(1.0, 0.0)
    ssh, ssh0 = SSHParams(1.0, 2.0, 3.0, 4.0), SSHParams(1.0, 0.0, 3.0, 4.0)
    spectra = {
        "hn_line": hn_line(hn, 8)(0.3),
        "hn_line exact": hn_line(HNParams(1.0, 1.0), 8)(1.0),
        "hn_line zero": hn_line(hn0, 8)(0.3),
        "ssh_line even": ssh_line(ssh, 8)(0.3),
        "ssh_line odd": ssh_line(ssh, 9)(0.3),
        "ssh_line odd open": ssh_line(ssh, 9)(0.0),
        "ssh_line zero": ssh_line(ssh0, 7)(0.0),
        "mixed_longrange_line": mixed_longrange_line(1.0, 2.0, 8)(0.3),
        "mixed_longrange_line zero": mixed_longrange_line(1.0, 0.0, 8)(0.3),
        "stacked_line": stacked_line(triangular_spec(1.0, 5.0, 6, 4, 0.2))(0.2),
        "hn_closed_form": hn_closed_form(hn, 8, 0.3)[0],
        "ssh_closed_form even": ssh_closed_form(ssh, 8, 0.3)[0],
        "ssh_closed_form odd": ssh_closed_form(ssh, 9, 0.3)[0],
        "ssh_closed_form odd open": ssh_closed_form(ssh, 9, 0.0)[0],
        "mixed_longrange_closed_form": mixed_longrange_closed_form(1.0, 2.0, 0.3, 6)[0],
        "unidirectional_spectrum": unidirectional_spectrum(1.0, 0.5, 0.3, 8),
        "unidirectional_spectrum open": unidirectional_spectrum(1.0, 0.5, 0.0, 8),
        "triangular_spectrum open": triangular_spectrum(triangular_spec(1.0, 5.0, 4, 3, 0.2, "open"))[0],
        "separable_square_spectrum": separable_square_spectrum(hn_line(hn, 6)(0.3), hn_line(hn0, 5)(0.5)),
    }
    assert {name: sorted(set(s.parameters) - READ_KEYS) for name, s in spectra.items()
            if set(s.parameters) - READ_KEYS} == {}
    # the keys are there where they are read
    assert all(spectra[name].parameters == {"fallback": "zero hopping"}
               for name in ("hn_line zero", "ssh_line zero", "mixed_longrange_line zero"))
    assert set(spectra["mixed_longrange_closed_form"].parameters) == {"degree", "removed_factor"}
    assert spectra["stacked_line"].parameters == {"hermitian_blocks": 4}
