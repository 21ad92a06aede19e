"""Output checks, run after the timed loop and outside its timing.

Each result of a job that exited 0 is compared with a reference computed
here from the model's own matrix, independently of the call that produced it:

* chain sweeps (hn, ssh, mixed-longrange): `core.dense_spectrum` of the
  model matrix, compared by `core.spectral_mismatch` at TOL_SPECTRUM;
* stacked BC1 sweeps: the assembled N1 N2 matrix is checked to be block
  circulant, then `core.dense_spectrum` of its N2 Fourier blocks gives the
  exact spectrum (a full 900 x 900 eig would cost 1 s per boundary value);
* open triangular sweeps (already oracle output): power sums
  sum(lambda^k) = tr(H^k) for k = 1, 2;
* states: the reported eigenvalue must be a singular point of H - lambda I,
  closest in |lambda| to the spectral median, and the site profiles must
  match the null vectors of H - lambda I from an SVD;
* winding: the argument principle on the Bloch Laurent polynomial (root
  count inside the unit circle);
* gap: the witness's winding by root count, or no winding anywhere on a
  fine grid of base energies for a line-gap verdict;
* sensitivity: every critical deformation is re-bracketed with dense spectra
  and a Hausdorff distance written here, the exponent refitted, and the
  screen ratios recomputed.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import jobs

TOL_SPECTRUM = 1e-6   # core.spectral_mismatch, i.e. relative to 1 + max|lambda|
TOL_POWER = 1e-10     # |sum lambda^k - tr H^k| <= TOL_POWER * n * norm(H)^k
TOL_PROFILE = 1e-8    # site profiles against the SVD null vectors
TOL_RATIO = 1e-3      # sensitivity screen ratios, relative
BRACKET = 1e-3        # delta* is re-bracketed at delta* (1 -+ BRACKET)


def cx(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(float(value[0]), float(value[1]))
    return complex(value)


def delta_values(delta) -> list:
    """Boundary values of a config, computed as nhchain.cli does."""
    if isinstance(delta, dict):
        start, stop, step = float(delta["start"]), float(delta["stop"]), float(delta["step"])
        return [start + k * step for k in range(int(round((stop - start) / step)) + 1)]
    return [float(delta)]


def n_results(raw: dict) -> int:
    """One result per delta-spectrum for a sweep, one task answer otherwise."""
    return len(delta_values(raw["delta"])) if raw["task"] == "sweep" else 1


def hausdorff(a, b) -> float:
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def winding_by_roots(coeffs_desc):
    """Winding of p(z) / z around the unit circle; None if a root of p lies on it."""
    r = np.abs(np.roots(coeffs_desc))
    if np.any(np.abs(r - 1.0) < 1e-9):
        return None
    return int(np.sum(r < 1.0)) - 1


class Checker:
    def __init__(self, nhchain):
        self.core = nhchain.core
        self.m1 = nhchain.models1d
        self.m2 = nhchain.models2d

    # -- model matrices ---------------------------------------------------
    def matrix(self, raw: dict, delta, size=None):
        model = raw["model"]
        p = {k: cx(v) for k, v in raw["params"].items()}
        sizes = dict(raw["sizes"])
        if size is not None:
            sizes["N1" if "N1" in sizes else "N"] = size
        if model == "hn":
            return self.m1.hn_matrix(self.m1.HNParams(p["t_l"], p["t_r"], p.get("t_d", 0.0)),
                                     sizes["N"], delta)
        if model == "ssh":
            sp = self.m1.SSHParams(p["tl1"], p["tr1"], p["tl2"], p["tr2"],
                                   p.get("v1", 0.0), p.get("v2", 0.0))
            return self.m1.ssh_matrix(sp, sizes["N"], delta)
        if model == "mixed-longrange":
            return self.m1.mixed_longrange_matrix(p["t_r"], p["u_l"], delta, sizes["N"])
        family = {"stacked-hn": "hn", "stacked-ssh": "ssh", "triangular": "triangular"}[model]
        spec = self.m2.Stacked2DSpec(family, p, sizes["N1"], sizes["N2"], delta,
                                     raw.get("mode", "bc1"))
        return self.m2.build_stacked_matrix(spec)

    def eigvals(self, H):
        return self.core.dense_spectrum(H).eigenvalues

    def block_circulant_eigvals(self, H, n1: int, n2: int):
        """Exact spectrum of a block-circulant matrix from its Fourier blocks."""
        hb = H.reshape(n2, n1, n2, n1)
        first = hb[0].transpose(1, 0, 2)                      # R_k = H[block 0, block k]
        j = np.arange(n2)[:, None]
        k = np.arange(n2)[None, :]
        rows = hb[j, :, (j + k) % n2, :]                      # H[block j, block j + k]
        if not np.array_equal(rows, np.broadcast_to(first, rows.shape)):
            return None
        phase = np.exp(2j * np.pi * np.outer(np.arange(n2), np.arange(n2)) / n2)
        blocks = np.einsum("qk,kab->qab", phase, first)
        return np.concatenate([self.eigvals(b) for b in blocks])

    # -- per task ---------------------------------------------------------
    def check(self, raw: dict, out_dir: Path) -> list:
        """[(verified, reason)] for every result of a job that exited 0."""
        name = raw["output"]
        try:
            if raw["task"] == "sweep":
                return self.sweep(raw, _read_csv(out_dir / f"{name}.csv"))
            side = json.loads((out_dir / f"{name}.json").read_text())
            if raw["task"] == "states":
                return [self.states(raw, side, _read_csv(out_dir / f"{name}.csv"))]
            return [getattr(self, raw["task"])(raw, side)]
        except (OSError, KeyError, IndexError, ValueError) as exc:
            return [(False, f"unreadable output: {type(exc).__name__}: {exc}")] * n_results(raw)

    def sweep(self, raw, rows) -> list:
        groups = {}
        for row in rows:
            groups.setdefault(row[0], []).append(complex(float(row[2]), float(row[3])))
        out = []
        for d in delta_values(raw["delta"]):
            vals = groups.get(f"{d:.17g}")
            H = self.matrix(raw, d)
            if vals is None or len(vals) != len(H):
                out.append((False, f"delta {d:.6g}: {0 if vals is None else len(vals)} "
                                   f"eigenvalues for {len(H)} sites"))
                continue
            vals = np.array(vals)
            if raw["model"] == "triangular" and raw.get("mode") == "open":
                out.append(self.power_sums(H, vals, d))
                continue
            ref = None
            if raw["model"].startswith("stacked") and raw.get("mode", "bc1") == "bc1":
                ref = self.block_circulant_eigvals(H, raw["sizes"]["N1"], raw["sizes"]["N2"])
            if ref is None:
                ref = self.eigvals(H)
            mm = self.core.spectral_mismatch(vals, ref)
            out.append((mm <= TOL_SPECTRUM, None if mm <= TOL_SPECTRUM
                        else f"delta {d:.6g}: spectral mismatch {mm:.2e}"))
        return out

    @staticmethod
    def power_sums(H, vals, d):
        n = len(H)
        norm = np.sqrt(np.abs(H).sum(axis=0).max() * np.abs(H).sum(axis=1).max())
        traces = (np.trace(H), np.sum(H * H.T))
        for k, tr in enumerate(traces, start=1):
            err = abs(np.sum(vals ** k) - tr)
            if err > TOL_POWER * n * max(norm, 1.0) ** k:
                return False, f"delta {d:.6g}: power sum k={k} off by {err:.2e}"
        return True, None

    def states(self, raw, side, rows):
        d = delta_values(raw["delta"])[0]
        H = self.matrix(raw, d)
        lam = cx(side["state"]["eigenvalue"])
        rows = sorted(rows, key=lambda r: int(r[1]))
        rr = np.array([float(r[2]) for r in rows])
        ll = np.array([float(r[3]) for r in rows])
        lr = np.array([complex(float(r[4]), float(r[5])) for r in rows])
        if len(rows) != len(H):
            return False, f"{len(rows)} profile rows for {len(H)} sites"
        u, s, vh = np.linalg.svd(H - lam * np.eye(len(H)))
        if s[-1] > 1e-10 * s[0]:
            return False, f"reported eigenvalue is not one: sigma_min/sigma_max = {s[-1] / s[0]:.2e}"
        if s[-2] < 1e3 * s[-1]:
            return False, "eigenvalue not isolated; profile cannot be checked"
        mags = np.abs(self.eigvals(H))
        med = np.median(mags)
        if abs(abs(lam) - med) > np.abs(mags - med).min() + 1e-9 * mags.max():
            return False, "reported state is not the one closest to the median |lambda|"
        right, left = vh[-1].conj(), u[:, -1]
        if np.abs(np.abs(right) ** 2 - rr).max() > TOL_PROFILE:
            return False, "right profile differs from the null vector"
        if np.abs(np.abs(left) ** 2 - ll).max() > TOL_PROFILE:
            return False, "left profile differs from the left null vector"
        if side["state"]["normalization"] == "biorthogonal":
            bio = np.conj(left) * right
            if np.abs(bio / bio.sum() - lr).max() > TOL_PROFILE:
                return False, "biorthogonal profile differs from the null vectors"
        return True, None

    @staticmethod
    def _bloch_winding(raw, energy):
        p = {k: cx(v) for k, v in raw["params"].items()}
        if raw["model"] == "hn":        # z (t_d + t_l z + t_r / z - E)
            return winding_by_roots([p["t_l"], p.get("t_d", 0.0) - energy, p["t_r"]])
        if raw["model"] == "ssh":       # z det(H(z) - E)
            v = (p.get("v1", 0.0) - energy) * (p.get("v2", 0.0) - energy)
            return winding_by_roots([-p["tl1"] * p["tl2"],
                                     v - p["tl1"] * p["tr1"] - p["tr2"] * p["tl2"],
                                     -p["tr1"] * p["tr2"]])
        if raw["model"] == "mixed-longrange":   # z (u_l z^2 + t_r / z - E)
            return winding_by_roots([p["u_l"], 0.0, -energy, p["t_r"]])
        raise ValueError(f"no winding reference for model {raw['model']!r}")

    def winding(self, raw, side):
        energy = cx(raw.get("base_energy", 0.0))
        want = self._bloch_winding(raw, energy)
        got = side["winding"]["w"]
        if want is None or got != want:
            return False, f"winding {got} at E = {energy:.4g}, argument principle gives {want}"
        return True, None

    def gap(self, raw, side):
        verdict = side["gap"]["verdict"]
        if verdict == "point-gap":
            wit = side["gap"]["witness"]
            want = self._bloch_winding(raw, cx(wit["base_energy"]))
            if want is None or want == 0 or want != wit["w"]:
                return False, f"witness winding {wit['w']}, argument principle gives {want}"
            return True, None
        p = {k: cx(v) for k, v in raw["params"].items()}
        pts = np.array(jobs.bloch_points(raw["model"], p))
        if raw["model"] == "hn":
            pts += p.get("t_d", 0.0)
        span = max(np.ptp(pts.real), np.ptp(pts.imag), 1e-6)
        for re in np.linspace(pts.real.min(), pts.real.max(), 41):
            for im in np.linspace(pts.imag.min(), pts.imag.max(), 41):
                e = complex(re, im)
                if np.abs(pts - e).min() < 1e-3 * span:
                    continue
                w = self._bloch_winding(raw, e)
                if w:
                    return False, f"verdict {verdict} but winding {w} at E = {e:.4g}"
        return True, None

    def sensitivity(self, raw, side):
        rep = side["sensitivity"]
        thr = float(raw.get("threshold", 0.5))
        full = raw["sizes"].get("N1") or raw["sizes"]["N"]

        def spec(n, d):
            return self.eigvals(self.matrix(raw, d, size=n))

        # fixed-size screen (policy defaults of nhchain.sensitivity.ScreenPolicy)
        eps = 0.01
        s0, s1, s2, s_full = (spec(full, d) for d in (0.0, eps, 2 * eps, 1.0))
        jump, step, secant = hausdorff(s0, s1), hausdorff(s1, s2), eps * hausdorff(s0, s_full)
        r_step, r_secant = jump / max(step, 1e-300), jump / max(secant, 1e-300)
        want = ("exponential" if jump >= 1e-300 and (r_step >= 3.0 or r_secant >= 5.0)
                else "non-exponential")
        screen = rep["screen"]
        if screen["verdict"] != want:
            return False, f"screen verdict {screen['verdict']}, dense spectra give {want}"
        for key, val in (("step_ratio", r_step), ("secant_ratio", r_secant)):
            if abs(screen[key] - val) > TOL_RATIO * max(abs(val), 1e-12):
                return False, f"screen {key} {screen[key]:.6g}, dense spectra give {val:.6g}"

        fit = rep["exponent"]
        for n, star, reached in zip(fit["n_list"], fit["delta_star"], fit["reached"]):
            ref = spec(n, 0.0)
            if not reached:
                if hausdorff(spec(n, 1.0), ref) >= thr:
                    return False, f"N={n}: threshold reached at delta=1 but reported unreached"
                continue
            lo = hausdorff(spec(n, star * (1 - BRACKET)), ref)
            hi = hausdorff(spec(n, star * (1 + BRACKET)), ref)
            if not lo < thr <= hi:
                return False, (f"N={n}: delta*={star:.6g} does not bracket the threshold "
                               f"({lo:.4g}, {hi:.4g})")
        ns = np.array([n for n, s in zip(fit["n_list"], fit["delta_star"]) if s is not None], float)
        stars = np.array([s for s in fit["delta_star"] if s is not None], float)
        xi = -np.polyfit(ns, np.log(stars), 1)[0] if len(ns) >= 2 else 0.0
        if abs(fit["xi"] - xi) > 1e-8 * max(1.0, abs(xi)):
            return False, f"xi {fit['xi']:.8g}, refit gives {xi:.8g}"
        want = "exponential" if all(fit["reached"]) and xi > 0.01 else "non-exponential"
        if fit["verdict"] != want:
            return False, f"fit verdict {fit['verdict']}, expected {want}"
        return True, None


def _read_csv(path: Path) -> list:
    """Data rows of an nhchain CSV, split into fields."""
    return [line.split(",") for line in path.read_text(encoding="ascii").splitlines()[1:] if line]
