"""Acceptance gate: each test enforces one published behavior at its stated
tolerance and runtime budget, and prints a single PASS line when it holds."""

import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import reference
from vacdrag.cli import main
from vacdrag.greens import reciprocity_check, reflection_coefficients
from vacdrag.greens import green_dissipation_identity
from vacdrag.kinematics import MotionFrame
from vacdrag.medium import chi, kk_reconstruct, load_model, verify_identity_1
from vacdrag.quadrature import QuadratureSpec
from vacdrag.rates import (
    DetectorSpec,
    finite_time_probability,
    rate_free_space,
    rate_surface,
)

LORENTZ = load_model("bundled:lorentz_dielectric")
DRUDE = load_model("bundled:drude_metal")
REST = MotionFrame(beta=0.0)
QUAD = QuadratureSpec(k_max=50.0)
DET = DetectorSpec(kappa=(0.8, 0.3, 1.1), omega=0.1, z0=1.0)


class budget:
    """Wall-clock guard; reports the elapsed time in the PASS line."""

    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.limit, \
                f"{self.label}: {self.elapsed:.2f} s exceeds {self.limit} s"
            print(f"[{self.label}] PASS ({self.elapsed:.2f} s < {self.limit} s)")
        return False


def test_01_free_space_rate_is_exactly_zero():
    with budget("criterion 01 free-space null", 1.0):
        for beta in (0.0, 0.3, 0.6, 0.9, 0.99):
            for omega in (0.1, 1.0, 10.0):
                det = DetectorSpec(kappa=(1.0, 0.0, 0.0), omega=omega, z0=None)
                r = rate_free_space(det, MotionFrame(beta=beta), QuadratureSpec())
                assert r.gamma == 0.0


def test_02_surface_rate_vanishes_at_rest():
    with budget("criterion 02 static null", 1.0):
        r = rate_surface(DET, REST, LORENTZ, QUAD)
        assert r.gamma == 0.0


def test_03_reflection_sign_and_rate_positivity():
    with budget("criterion 03 sign structure", 10.0):
        frame = MotionFrame(beta=0.5)
        omega = 0.1
        k_lo, k_hi = omega / 0.5, 50.0
        ks = k_lo + (k_hi - k_lo) * (np.arange(1, 11) / 11.0)
        kys = np.linspace(-6.0, 6.0, 10)
        for model in (LORENTZ, DRUDE):
            for k in ks:
                for ky in kys:
                    rc = reflection_coefficients(model, frame, -float(k),
                                                 float(ky), -omega)
                    assert rc.r11.imag > 0.0
                    assert rc.r22.imag > 0.0
        assert rate_surface(DET, frame, LORENTZ, QUAD).gamma > 0.0


def test_04_kramers_kronig_consistency():
    with budget("criterion 04 KK consistency", 30.0):
        grid = np.geomspace(1e-3, 1e3, 50)
        for model in (LORENTZ, DRUDE):
            for omega in grid:
                exact = chi(model, "electric", float(omega))
                rec = kk_reconstruct(model, "electric", float(omega),
                                     QuadratureSpec())
                assert abs(rec - exact) <= 1e-5 * abs(exact), \
                    f"{model.label} at omega={omega}"


def test_05_frequency_identity_random_pairs():
    with budget("criterion 05 pole-pair identity", 60.0):
        rng = np.random.default_rng(20260814)
        done = 0
        while done < 20:
            om = float(rng.uniform(-3.0, 3.0))
            op = float(rng.uniform(0.1, 3.0))
            if abs(om) < 0.1 or abs(om * om - op * op) < 0.05:
                continue
            lhs, rhs, resid = verify_identity_1(LORENTZ, om, op, QuadratureSpec())
            assert resid <= 1e-6 * max(abs(lhs), abs(rhs)), (om, op)
            done += 1


def test_06_green_dissipation_identity_random_points():
    with budget("criterion 06 dissipation identity", 10.0):
        rng = np.random.default_rng(314159)
        done = 0
        while done < 50:
            kx = float(rng.uniform(-2.0, 2.0))
            kvec = rng.uniform(-2.0, 2.0, size=2)
            omega = float(rng.uniform(0.2, 2.5))
            beta = float(rng.uniform(-0.8, 0.8))
            if abs(omega - beta * kx) < 0.05:
                continue
            rep = green_dissipation_identity(LORENTZ, MotionFrame(beta=beta),
                                             kx, kvec, omega, QuadratureSpec())
            assert rep.relative_residual < 1e-8
            done += 1


def test_07_reciprocity_velocity_reversal():
    with budget("criterion 07 reciprocity", 60.0):
        a, b = (0.0, 0.8), (0.4, 1.1)
        moving = reciprocity_check(LORENTZ, MotionFrame(beta=0.5), 2.0, 0.4,
                                   a, b, QuadratureSpec())
        assert moving.transpose_residual < 1e-6
        assert moving.naive_residual >= 10.0 * 1e-6
        rest = reciprocity_check(LORENTZ, REST, 2.0, 0.4, a, b, QuadratureSpec())
        assert rest.transpose_residual < 1e-8
        assert rest.naive_residual < 1e-8


def test_08_fresnel_reduction_at_rest():
    with budget("criterion 08 Fresnel reduction", 1.0):
        count = 0
        for kpar in np.geomspace(0.05, 20.0, 10):
            for omega in np.geomspace(0.11, 4.7, 10):
                rc = reflection_coefficients(LORENTZ, REST, float(kpar), 0.0,
                                             float(omega))
                eps = 1.0 + chi(LORENTZ, "electric", float(omega))
                rs, rp = reference.fresnel_textbook(eps, 1.0, float(kpar),
                                                    float(omega))
                assert abs(rc.r11 - rs) <= 1e-12 * max(1.0, abs(rs))
                assert abs(rc.r22 - rp) <= 1e-12 * max(1.0, abs(rp))
                count += 1
        assert count == 100


def test_09_distance_decay_ladder():
    with budget("criterion 09 distance decay", 120.0):
        ladder = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        gammas = [rate_surface(DetectorSpec(kappa=DET.kappa, omega=0.1, z0=z),
                               MotionFrame(beta=0.5), LORENTZ, QUAD).gamma
                  for z in ladder]
        xi_min = math.sqrt((0.1 / 0.5) ** 2 - 0.1 ** 2)
        for i in range(1, len(ladder)):
            assert gammas[i] < gammas[i - 1]
            bound = math.exp(-2.0 * xi_min * (ladder[i] - ladder[i - 1]))
            assert gammas[i] <= bound * gammas[i - 1]


def test_10_golden_rule_convergence():
    with budget("criterion 10 golden-rule limit", 300.0):
        frame = MotionFrame(beta=0.5)
        quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-18, k_max=50.0)
        gamma = rate_surface(DET, frame, LORENTZ, quad).gamma
        t_star = None
        for T in (400.0, 800.0, 1600.0, 3200.0, 6400.0):
            p = finite_time_probability(DET, frame, LORENTZ, quad, T)
            if abs(p / T - gamma) / gamma < 0.01:
                t_star = T
                break
        assert t_star is not None, "P(T)/T never reached 1% of the rate"
        print(f"golden-rule T* = {t_star:g}")


# The committed outputs of the bundled scenarios. A change that moves a
# value on purpose updates its file and says why in CHANGES.md.
REFERENCE_CSV = Path(__file__).resolve().parent / "reference_csv"


def assert_matches_reference(text, reference_text):
    """A CSV against its reference: the header and the True/False cells
    exactly; in a rate row (one with an error_estimate) every number within
    the reference row's error_estimate; elsewhere every number within 1e-12
    relative. Non-finite numbers must match exactly."""
    got = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(reference_text)))
    assert got[0] == ref[0], f"header {got[0]} is not {ref[0]}"
    assert len(got) == len(ref), f"{len(got) - 1} rows, not {len(ref) - 1}"
    header = ref[0]
    for row, ref_row in zip(got[1:], ref[1:]):
        bound = None
        if "error_estimate" in header:
            bound = float(ref_row[header.index("error_estimate")])
        for column, cell, ref_cell in zip(header, row, ref_row):
            if ref_cell in ("True", "False"):
                assert cell == ref_cell, (column, cell, ref_cell)
                continue
            value, expected = float(cell), float(ref_cell)
            if not math.isfinite(expected):
                assert cell == ref_cell, (column, cell, ref_cell)
            elif bound is not None:
                assert abs(value - expected) <= bound, (column, value, expected)
            else:
                assert abs(value - expected) <= 1e-12 * abs(expected), \
                    (column, value, expected)


def test_reference_comparison_can_fail():
    rate = (REFERENCE_CSV / "rate_surface.csv").read_text()
    header, row = rate.splitlines()
    cells = row.split(",")
    gamma, bound = float(cells[0]), float(cells[1])

    def with_gamma(shift):
        cells[0] = "%.17g" % (gamma + shift * bound)
        return f"{header}\n{','.join(cells)}\n"

    assert_matches_reference(with_gamma(0.5), rate)
    kx = (REFERENCE_CSV / "sweep_kx.csv").read_text()
    moved = [(with_gamma(2.0), rate),                  # twice its error
             (rate.replace("True", "False"), rate),    # a boolean
             (rate.replace("converged", "ok"), rate),  # the header
             # a reflection coefficient, by 4.3e-12 relative
             (kx.replace("0.023242787495544794", "0.023242787495644794"), kx)]
    for text, reference_text in moved:
        with pytest.raises(AssertionError):
            assert_matches_reference(text, reference_text)


def test_11_cli_byte_determinism(tmp_path, scenarios_dir):
    scenario_files = sorted(scenarios_dir.glob("*.json"))
    assert scenario_files, "no bundled scenarios found"
    assert sorted(p.stem for p in REFERENCE_CSV.glob("*.csv")) == \
        [p.stem for p in scenario_files]
    digests = []
    for run in ("first", "second"):
        outdir = tmp_path / run
        outdir.mkdir()
        blobs = {}
        for sc in scenario_files:
            out = outdir / (sc.stem + ".csv")
            code = main(["run", "--scenario", str(sc), "--output", str(out)])
            assert code == 0, f"{sc.name} exited {code}"
            blobs[sc.name] = out.read_bytes()
            if run == "first":
                assert_matches_reference(
                    out.read_text(), (REFERENCE_CSV / out.name).read_text())
        digests.append(blobs)
    assert digests[0] == digests[1]
    print(f"[criterion 11 determinism] PASS ({len(scenario_files)} scenarios)")
