"""The benchmark's four workloads: seeded inputs, operations and checks.

Every workload builds all of its inputs from `--seed` in its constructor (the
set-up phase), exposes them as a list of operations (one round, the
workload's full set of answers) and checks a round's outputs against
computations made apart from the program (`oracles.py`) or against properties
the method must have. Continuous inputs are drawn by stratified sampling: a
fixed Latin-hypercube layout puts one input in each cell of each range, and
the seed places it inside its cell. The inputs still cover the whole ranges,
while the cost of a round barely depends on the seed, which keeps the
seed-to-seed spread of the timings small.

In-process workloads reach the package through module attributes at call
time (`vd.rate_surface(...)`), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
_LAYOUT_SEED = 20120502      # fixed cell layout; --seed only moves inside cells
_TAGS = {"rate-points": 1, "golden-rule": 2, "green-checks": 3, "cli": 4}


def _rng(seed: int, workload: str):
    return np.random.default_rng([seed, _TAGS[workload]])


def _cells(rng, n: int, layout_index: int):
    """n stratified draws in [0, 1): one per cell of width 1/n, the cells in
    a fixed order (the layout) and the position inside each cell seeded."""
    order = np.random.default_rng([_LAYOUT_SEED, layout_index]).permutation(n)
    return (order + rng.uniform(size=n)) / n


def _log_cells(rng, n, layout_index, lo, hi):
    return np.exp(math.log(lo) + math.log(hi / lo) * _cells(rng, n, layout_index))


class CheckFailure(Exception):
    """A CLI process exited non-zero."""


class Workload:
    """Defaults shared by the workloads."""

    vd = None                   # the imported package, for in-process workloads

    def before_round(self):
        pass

    def can_repeat(self):
        return True

    def op_s(self, labels, times):
        """op_s from each operation's label and median time over the rounds."""
        return statistics.fmean(times)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# rate-points
# ---------------------------------------------------------------------------

RATE_TOLS = (1e-4, 1e-5, 1e-6)
N_RATE_POINTS = 6     # model i % 3 with rel_tol (i // 2) % 3: six distinct pairs
N_DENSE_CHECKS = 1


def _terms(model):
    return tuple((t.plasma_strength, t.resonance, t.damping) for t in model)


class RatePoints(Workload):
    """rate_surface at seeded points over three models, three tolerances and
    beta, z0, omega and kappa ranges; k_max = omega/beta + 10/z0."""

    name = "rate-points"

    def __init__(self, seed: int, root: Path):
        import vacdrag as vd
        self.vd = vd
        rng = _rng(seed, self.name)
        n = N_RATE_POINTS
        magneto = {
            "label": f"magnetodielectric-{seed}",
            "electric_terms": [{"plasma_strength": float(rng.uniform(0.8, 1.2)),
                                "resonance": float(rng.uniform(0.9, 1.1)),
                                "damping": float(rng.uniform(0.08, 0.12))}],
            "magnetic_terms": [{"plasma_strength": float(rng.uniform(0.3, 0.5)),
                                "resonance": float(rng.uniform(0.8, 1.0)),
                                "damping": float(rng.uniform(0.08, 0.12))}],
        }
        self.models = [vd.load_model("bundled:lorentz_dielectric"),
                       vd.load_model("bundled:drude_metal"),
                       vd.model_from_dict(magneto)]
        betas = 0.2 + 0.6 * _cells(rng, n, 1)
        z0s = _log_cells(rng, n, 2, 0.1, 3.0)
        omegas = 0.05 + 0.45 * _cells(rng, n, 3)
        kappas = rng.normal(size=(n, 3))
        self.points = []
        for i in range(n):
            beta, z0, omega = float(betas[i]), float(z0s[i]), float(omegas[i])
            quad = vd.QuadratureSpec(rel_tol=RATE_TOLS[(i // 2) % 3],
                                     abs_tol=1e-18, k_max=omega / beta + 10.0 / z0)
            self.points.append((
                self.models[i % 3],
                vd.DetectorSpec(kappa=tuple(kappas[i]), omega=omega, z0=z0),
                vd.MotionFrame(beta=beta), quad))
        self.dense = sorted(rng.choice(n, N_DENSE_CHECKS, replace=False).tolist())
        # two extra rate_surface calls: at one of the loosest-tolerance points
        self.symmetry = int(rng.integers(2))

    def operations(self):
        vd = self.vd
        return [(f"rate_surface[{i}]",
                 lambda m=m, d=d, f=f, q=q: vd.rate_surface(d, f, m, q))
                for i, (m, d, f, q) in enumerate(self.points)]

    def check(self, outputs):
        import oracles
        vd = self.vd
        errors = {}
        for i, r in enumerate(outputs):
            s, p = r.breakdown["s"], r.breakdown["p"]
            if not r.converged:
                errors[i] = "did not converge"
            elif not (r.gamma == s + p and s >= 0.0 and p >= 0.0 and r.gamma > 0.0):
                errors[i] = f"gamma {r.gamma!r} is not s {s!r} + p {p!r} >= 0"
        for i in self.dense:
            model, det, frame, quad = self.points[i]
            ky_cut = max(25.0 / det.z0, 2.0 * det.omega, 5.0)
            s, p = oracles.rate_dense(_terms(model.electric_terms),
                                      _terms(model.magnetic_terms), frame.beta,
                                      det.kappa, det.omega, det.z0, quad.k_max,
                                      ky_cut)
            r = outputs[i]
            tol = 5.0 * quad.rel_tol * (s + p)
            if abs(r.breakdown["s"] - s) > tol or abs(r.breakdown["p"] - p) > tol:
                errors[i] = (f"(s, p) = ({r.breakdown['s']!r}, {r.breakdown['p']!r})"
                             f" but the dense grid gives ({s!r}, {p!r})")
        i = self.symmetry
        model, det, frame, quad = self.points[i]
        gamma = outputs[i].gamma
        flipped = vd.rate_surface(
            vd.DetectorSpec(tuple(-c for c in det.kappa), det.omega, det.z0),
            frame, model, quad).gamma
        doubled = vd.rate_surface(
            vd.DetectorSpec(tuple(2.0 * c for c in det.kappa), det.omega, det.z0),
            frame, model, quad).gamma
        if flipped != gamma:
            errors[i] = f"gamma(-kappa) {flipped!r} != gamma(kappa) {gamma!r}"
        elif abs(doubled - 4.0 * gamma) > 1e-9 * 4.0 * gamma:
            errors[i] = f"gamma(2 kappa) {doubled!r} != 4 gamma(kappa) {4 * gamma!r}"
        return errors


# ---------------------------------------------------------------------------
# golden-rule
# ---------------------------------------------------------------------------

LADDER_ANCHORS = (0.5, 1.0, 400.0, 1600.0, 6400.0)
N_LADDER_SEEDED = 11
HIT_REPEATS = 600    # passes over the ladder on the cached spline


class GoldenRule(Workload):
    """finite_time_probability over a T ladder with the inputs of
    scenarios/finite_time.json. The first call of a round builds the rate
    spline; the rest of the ladder, and HIT_REPEATS more passes over all of
    it, reuse the cached spline. The rate spline cache is cleared before
    every round."""

    name = "golden-rule"

    def __init__(self, seed: int, root: Path):
        import vacdrag as vd
        self.vd = vd
        doc = json.loads((root / "scenarios" / "finite_time.json").read_text())
        self.model = vd.load_model(doc["model_file"])
        self.frame = vd.MotionFrame(beta=float(doc["frame"]["beta"]))
        d = doc["detector"]
        self.det = vd.DetectorSpec(kappa=tuple(d["kappa"]), omega=float(d["omega"]),
                                   z0=float(d["z0"]))
        self.quad = vd.QuadratureSpec(**doc["quad"])
        seeded = _log_cells(_rng(seed, self.name), N_LADDER_SEEDED, 1, 0.5, 6400.0)
        self.ladder = sorted(set(LADDER_ANCHORS) | {float(t) for t in seeded})

    def operations(self):
        vd = self.vd
        return [(f"P(T={t:.6g})",
                 lambda t=t: vd.finite_time_probability(self.det, self.frame,
                                                        self.model, self.quad, t))
                for t in self.ladder * (1 + HIT_REPEATS)]

    def can_repeat(self):
        return hasattr(getattr(self.vd.rates, "_rate_spline", None), "cache_clear")

    def before_round(self):
        if self.can_repeat():
            self.vd.rates._rate_spline.cache_clear()

    def op_s(self, labels, times):
        # a P(T) query on the cached spline (cache lookup and sinc-kernel
        # convolution): the median of each ladder T's cache hits, then their
        # mean. The first call, which builds the spline, is nearly all of
        # wall_s.
        hits = {}
        for label, t in zip(labels[1:], times[1:]):
            hits.setdefault(label, []).append(t)
        return statistics.fmean(statistics.median(v) for v in hits.values())

    def check(self, outputs):
        vd = self.vd
        n = len(self.ladder)
        errors = {i: "a cache hit differs from the first pass"
                  for i in range(n, len(outputs)) if outputs[i] != outputs[i % n]}
        p = dict(zip(self.ladder, outputs))
        index = {t: i for i, t in enumerate(self.ladder)}
        for t, v in p.items():
            if not (math.isfinite(v) and v > 0.0):
                errors[index[t]] = f"P({t:g}) = {v!r} is not positive"
        gamma = vd.rate_surface(self.det, self.frame, self.model, self.quad).gamma
        # small T: P(T) grows like T^2
        small = p[0.5] / 0.25
        for t in (t for t in self.ladder if t <= 4.0):
            if abs(p[t] / (t * t) / small - 1.0) > 0.02:
                errors[index[t]] = f"P({t:g})/T^2 departs from the T^2 law"
        if abs(p[1.0] / p[0.5] - 4.0) > 0.01:
            errors[index[1.0]] = f"P(1)/P(0.5) = {p[1.0] / p[0.5]!r}, not 4"

        # large T: P(T)/T approaches gamma like 1/T
        def gap(t):
            return abs(p[t] / t - gamma) / gamma
        for lo, hi in ((400.0, 1600.0), (1600.0, 6400.0)):
            ratio = gap(lo) / gap(hi)
            if not 3.0 <= ratio <= 5.0:
                errors[index[hi]] = f"gap falls by {ratio:.3g} from T={lo:g} to {hi:g}"
        if gap(1600.0) >= 0.01:
            errors[index[1600.0]] = f"|P/T - gamma|/gamma = {gap(1600.0):.3g} at T=1600"
        envelope = 1.5 * gap(400.0) * 400.0
        for t in (t for t in self.ladder if t >= 400.0):
            if gap(t) > envelope / t:
                errors[index[t]] = f"gap {gap(t):.3g} at T={t:g} above the 1/T envelope"
        return errors


# ---------------------------------------------------------------------------
# green-checks
# ---------------------------------------------------------------------------

N_KK = 12            # frequencies per model
N_IDENTITY = 8
N_DISSIPATION = 20
GRID = 8             # reflection_coefficients grids are GRID x GRID


class GreenChecks(Workload):
    """The Green-function and susceptibility diagnostics at seeded inputs;
    the rate kernel in rates.py is never called."""

    name = "green-checks"

    def __init__(self, seed: int, root: Path):
        import vacdrag as vd
        self.vd = vd
        rng = _rng(seed, self.name)
        self.lorentz = vd.load_model("bundled:lorentz_dielectric")
        self.drude = vd.load_model("bundled:drude_metal")
        self.rest = vd.MotionFrame(beta=0.0)
        ops = []
        # reciprocity: {inside, outside} the light circle x {finite, None}
        # k_max, with +kx and -kx, around the geometry of
        # scenarios/reciprocity_check.json (their cost grows with the
        # separation of the two points, so it varies little)
        betas = 0.2 + 0.5 * _cells(rng, 4, 1)
        omegas = 0.3 + 0.3 * _cells(rng, 4, 2)
        inside = 0.3 + 0.3 * _cells(rng, 2, 3)
        outside = 2.5 + 2.5 * _cells(rng, 2, 4)
        heights = 0.05 * (2.0 * _cells(rng, 8, 14) - 1.0)
        shifts = 0.4 + 0.05 * (2.0 * _cells(rng, 4, 15) - 1.0)
        for i, (ratio, sign, k_max) in enumerate(((inside[0], 1.0, 40.0),
                                                  (inside[1], -1.0, None),
                                                  (outside[0], -1.0, 40.0),
                                                  (outside[1], 1.0, None))):
            a = (0.0, 0.8 + float(heights[2 * i]))
            b = (float(shifts[i]), 1.1 + float(heights[2 * i + 1]))
            args = (vd.MotionFrame(beta=float(betas[i])), sign * float(ratio * omegas[i]),
                    float(omegas[i]), a, b,
                    vd.QuadratureSpec(rel_tol=1e-6, k_max=k_max))
            ops.append(("reciprocity", args))
        # surface_green_coincident at rest, evanescent kx
        for ratio, omega, z0 in zip(1.5 + 2.5 * _cells(rng, 2, 5),
                                    0.3 + 0.5 * _cells(rng, 2, 6),
                                    0.6 + 0.8 * _cells(rng, 2, 7)):
            ops.append(("surface_green", (float(ratio * omega), float(omega),
                                          float(z0))))
        for layout, model in ((8, self.lorentz), (9, self.drude)):
            for w in _log_cells(rng, N_KK, layout, 1e-2, 1e2):
                ops.append(("kk", (model, float(w))))
        pairs = 0
        while pairs < N_IDENTITY:
            om, op = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.1, 3.0))
            if abs(om) < 0.1 or abs(om * om - op * op) < 0.05:
                continue
            ops.append(("identity", (om, op)))
            pairs += 1
        done = 0
        while done < N_DISSIPATION:
            kx = float(rng.uniform(-2.0, 2.0))
            kvec = tuple(float(c) for c in rng.uniform(-2.0, 2.0, size=2))
            omega = float(rng.uniform(0.2, 2.5))
            beta = float(rng.uniform(-0.8, 0.8))
            if abs(omega - beta * kx) < 0.05:
                continue
            ops.append(("dissipation", (vd.MotionFrame(beta=beta), kx, kvec, omega)))
            done += 1
        kpar = _log_cells(rng, GRID, 10, 0.05, 20.0)
        omega = _log_cells(rng, GRID, 11, 0.11, 4.7)
        rest_grid = [(float(k), float(w)) for k in kpar for w in omega
                     if abs(k / w - 1.0) > 1e-3]
        ops.append(("fresnel_rest", rest_grid))
        beta = float(0.3 + 0.4 * rng.uniform())
        omega = 0.1 + 0.4 * rng.uniform()
        ks = omega / beta * (1.0 + _log_cells(rng, GRID, 12, 0.01, 100.0))
        kys = 6.0 * (2.0 * _cells(rng, GRID, 13) - 1.0)
        ops.append(("fresnel_moving", (vd.MotionFrame(beta=beta), float(omega),
                                       [(float(k), float(y)) for k in ks for y in kys])))
        self.inputs = ops

    def _run(self, kind, args):
        vd = self.vd
        if kind == "reciprocity":
            frame, kx, omega, a, b, quad = args
            return vd.reciprocity_check(self.lorentz, frame, kx, omega, a, b, quad)
        if kind == "surface_green":
            kx, omega, z0 = args
            return vd.surface_green_coincident(
                self.lorentz, self.rest, vd.SurfaceGeometry(z0), kx, omega,
                vd.QuadratureSpec(rel_tol=1e-8, k_max=40.0))
        if kind == "kk":
            model, w = args
            return vd.kk_reconstruct(model, "electric", w, vd.QuadratureSpec())
        if kind == "identity":
            return vd.verify_identity_1(self.lorentz, *args, vd.QuadratureSpec())
        if kind == "dissipation":
            frame, kx, kvec, omega = args
            return vd.green_dissipation_identity(self.lorentz, frame, kx, kvec,
                                                 omega, vd.QuadratureSpec())
        if kind == "fresnel_rest":
            out = []
            for kpar, omega in args:
                rc = vd.reflection_coefficients(self.lorentz, self.rest, kpar, 0.0, omega)
                out.append((rc.r11, rc.r22))
            return out
        frame, omega, grid = args
        out = []
        for model in (self.lorentz, self.drude):
            for k, ky in grid:
                rc = vd.reflection_coefficients(model, frame, -k, ky, -omega)
                out.append((rc.r11, rc.r22))
        return out

    def operations(self):
        return [(kind, lambda kind=kind, args=args: self._run(kind, args))
                for kind, args in self.inputs]

    def check(self, outputs):
        import oracles
        lorentz = _terms(self.lorentz.electric_terms)
        errors = {}
        for i, ((kind, args), out) in enumerate(zip(self.inputs, outputs)):
            if kind == "reciprocity":
                if not out.transpose_residual < 1e-6:
                    errors[i] = f"transpose residual {out.transpose_residual:.3g}"
                elif not out.naive_residual >= 1e-5:
                    errors[i] = f"naive residual {out.naive_residual:.3g} is small"
            elif kind == "surface_green":
                kx, omega, z0 = args
                eps = oracles.chi_mp(lorentz, omega) + 1.0
                ref = oracles.reflected_green_dense(eps, 1.0, kx, omega, z0, 40.0)
                diff = np.max(np.abs(np.asarray(out) - ref))
                if diff > 1e-7 * np.max(np.abs(ref)):
                    errors[i] = f"differs from the dense grid by {diff:.3g}"
            elif kind == "kk":
                model, w = args
                exact = oracles.chi_mp(_terms(model.electric_terms), w)
                if abs(out - exact) > 1e-5 * abs(exact):
                    errors[i] = f"KK error {abs(out - exact) / abs(exact):.3g} at {w:g}"
            elif kind == "identity":
                lhs, rhs, resid = out
                exact = oracles.identity_rhs_mp(lorentz, *args)
                scale = max(abs(lhs), abs(exact))
                if resid > 1e-6 * max(abs(lhs), abs(rhs)) or \
                        abs(lhs - exact) > 1e-6 * scale:
                    errors[i] = f"identity residual {abs(lhs - exact) / scale:.3g}"
            elif kind == "dissipation":
                if not out.relative_residual < 1e-8:
                    errors[i] = f"dissipation residual {out.relative_residual:.3g}"
            elif kind == "fresnel_rest":
                for (kpar, omega), (r11, r22) in zip(args, out):
                    eps = oracles.chi_mp(lorentz, omega) + 1.0
                    rs, rp = oracles.fresnel_textbook(eps, 1.0, kpar, omega)
                    if abs(r11 - rs) > 1e-12 * max(1.0, abs(rs)) or \
                            abs(r22 - rp) > 1e-12 * max(1.0, abs(rp)):
                        errors[i] = f"Fresnel differs at kpar={kpar:g}, omega={omega:g}"
            elif not all(r11.imag > 0.0 and r22.imag > 0.0 for r11, r22 in out):
                errors[i] = "Im r <= 0 on the rate domain"
        return errors


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Columns each kind writes, as documented by the CLI.
COLUMNS = {
    "rate-free": ["gamma", "error_estimate", "exact"],
    "rate-surface": ["gamma", "error_estimate", "converged", "k_lower", "k_max",
                     "s", "p"],
    "fresnel": ["re_r11", "im_r11", "re_r22", "im_r22"],
    "kk-check": ["omega", "re_chi", "im_chi", "re_reconstructed", "rel_error",
                 "converged"],
    "identity-check": ["omega_minus", "omega_plus", "re_lhs", "im_lhs", "re_rhs",
                       "im_rhs", "relative_residual", "converged"],
    "dissipation-check": ["kx", "ky", "kz", "omega", "residual",
                          "relative_residual"],
    "reciprocity-check": ["kx", "omega", "transpose_residual", "naive_residual"],
    "finite-time": ["T", "probability"],
}


def _columns(doc):
    if doc["kind"] != "sweep":
        return COLUMNS[doc["kind"]]
    axis = doc["sweep_axis"]["name"]
    if axis == "kx":
        return ["kx", "re_r11", "im_r11", "re_r22", "im_r22"]
    return [axis, "gamma", "error_estimate", "converged"]


def _axis_grid(axis):
    lo, hi, n = float(axis["min"]), float(axis["max"]), int(axis["count"])
    if n == 1:
        return [lo]
    if axis.get("spacing", "lin") == "log":
        return [float(v) for v in np.geomspace(lo, hi, n)]
    return [float(v) for v in np.linspace(lo, hi, n)]


class Cli(Workload):
    """One `python -m vacdrag` process per operation: validate every
    scenario, run every bundled scenario but finite_time.json to CSV, one
    JSON run, a seeded sweep with 1 and 2 workers, and one scenario twice
    against a fresh cache directory (a miss, then a hit)."""

    name = "cli"
    CACHE_SCENARIO = "rate_surface.json"
    JSON_SCENARIO = "rate_surface.json"

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.scenarios = sorted((root / "scenarios").glob("*.json"))
        self.docs = {p.name: json.loads(p.read_text()) for p in self.scenarios}
        rng = _rng(seed, self.name)
        axis = ("beta", "z0", "omega")[int(rng.integers(3))]
        beta, z0, omega = 0.5, float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.08, 0.12))
        lo_hi = {"beta": (0.3, 0.6), "z0": (0.6, 1.6), "omega": (0.06, 0.16)}[axis]
        lo = lo_hi[0] + 0.05 * (lo_hi[1] - lo_hi[0]) * rng.uniform()
        hi = lo_hi[1] - 0.05 * (lo_hi[1] - lo_hi[0]) * rng.uniform()
        k_lower = {"beta": omega / lo, "z0": omega / beta, "omega": hi / beta}[axis]
        self.sweep = {
            "kind": "sweep",
            "model_file": "bundled:lorentz_dielectric",
            "frame": {"beta": beta},
            "detector": {"kappa": [float(c) for c in rng.normal(size=3)],
                         "omega": omega, "z0": z0},
            "quad": {"rel_tol": 1e-4, "abs_tol": 1e-18,
                     "k_max": k_lower + 10.0 / (lo if axis == "z0" else z0)},
            "sweep_axis": {"name": axis, "min": lo, "max": hi, "count": 4,
                           "spacing": "log" if axis == "z0" else "lin"},
        }
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.sweep_path = self.tmp / "sweep.json"
        self.sweep_path.write_text(json.dumps(self.sweep))
        self.env = dict(os.environ)
        self.env.pop("VACDRAG_CACHE_DIR", None)
        self.trace_dir = None       # set by the worker for a traced round
        self.invocations = []       # (wall, span file) of traced processes
        self.round_dir = None
        self._rounds = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def before_round(self):
        self._rounds += 1
        self.round_dir = self.tmp / f"round-{self._rounds}"
        self.round_dir.mkdir()

    def _invoke(self, args, out_name=None):
        """One CLI process; returns the bytes it wrote (file or stdout)."""
        env = self.env
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "vacdrag", *args]
        else:
            spans = self.trace_dir / f"{len(self.invocations):03d}.npz"
            env = dict(env, PERFBENCH_SPANS=str(spans))
            cmd = [sys.executable, str(HERE / "cli_shim.py"), *args]
        out = None
        if out_name is not None:
            out = self.round_dir / out_name
            cmd += ["--output", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                              timeout=170)
        wall = time.perf_counter() - t0
        if self.trace_dir is not None:
            self.invocations.append((wall, spans))
        if proc.returncode != 0:
            raise CheckFailure(f"exit code {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}")
        return out.read_bytes() if out is not None else proc.stdout

    def operations(self):
        ops = []
        for p in self.scenarios:
            ops.append((f"validate {p.name}",
                        lambda p=p: self._invoke(["validate", "--scenario", str(p)])))
        for p in self.scenarios:
            if p.name == "finite_time.json":
                continue
            ops.append((f"run {p.name}",
                        lambda p=p: self._invoke(["run", "--scenario", str(p)],
                                                 p.stem + ".csv")))
        json_path = self.root / "scenarios" / self.JSON_SCENARIO
        ops.append(("run --format json",
                    lambda: self._record(self._invoke(
                        ["run", "--scenario", str(json_path), "--format", "json"],
                        "record.json"))))
        for workers in (1, 2):
            ops.append((f"run sweep --workers {workers}",
                        lambda w=workers: self._invoke(
                            ["run", "--scenario", str(self.sweep_path),
                             "--workers", str(w)], f"sweep-w{w}.csv")))
        cached = self.root / "scenarios" / self.CACHE_SCENARIO
        for label in ("miss", "hit"):
            ops.append((f"run cache {label}",
                        lambda label=label: self._invoke(
                            ["run", "--scenario", str(cached), "--cache-dir",
                             str(self.round_dir / "cache")], f"cache-{label}.csv")))
        return ops

    @staticmethod
    def _record(blob):
        """A JSON record without the fields that change from run to run."""
        record = json.loads(blob)
        del record["wall_time"], record["provenance"]["timestamp"]
        return record

    def op_s(self, labels, times):
        return statistics.fmean(t for label, t in zip(labels, times)
                                if label.startswith("run"))

    def check(self, outputs):
        errors = {}
        labels = [label for label, _ in self.operations()]
        by_label = dict(zip(labels, outputs))
        for i, label in enumerate(labels):
            if not label.startswith("run "):
                continue
            name = label.split()[1]
            if name in self.docs:
                doc = self.docs[name]
            elif name == "sweep":
                doc = self.sweep
            else:
                doc = self.docs[self.CACHE_SCENARIO if name == "cache"
                                else self.JSON_SCENARIO]
            if label == "run --format json":
                record = outputs[i]
                csv_rows = list(csv.reader(io.StringIO(
                    by_label[f"run {self.JSON_SCENARIO}"].decode())))
                if record["outputs"]["columns"] != _columns(doc) or \
                        float(csv_rows[1][0]) != record["outputs"]["rows"][0]["gamma"]:
                    errors[i] = "JSON record disagrees with the CSV run"
                continue
            rows = list(csv.reader(io.StringIO(outputs[i].decode())))
            if rows[0] != _columns(doc):
                errors[i] = f"header {rows[0]} is not {_columns(doc)}"
            elif "converged" in rows[0] and \
                    any(r[rows[0].index("converged")] != "True" for r in rows[1:]):
                errors[i] = "a row did not converge"
            elif doc["kind"] == "rate-free" and float(rows[1][0]) != 0.0:
                errors[i] = f"rate-free gamma is {rows[1][0]}, not 0"
            elif doc["kind"] == "sweep" and \
                    [float(r[0]) for r in rows[1:]] != _axis_grid(doc["sweep_axis"]):
                errors[i] = "sweep rows are not in axis order"
        pairs = (("run sweep --workers 1", "run sweep --workers 2"),
                 ("run cache miss", "run cache hit"))
        for first, second in pairs:
            if by_label[first] != by_label[second]:
                errors[labels.index(second)] = f"bytes differ from {first!r}"
        return errors


WORKLOADS = {cls.name: cls for cls in (RatePoints, GoldenRule, GreenChecks, Cli)}
