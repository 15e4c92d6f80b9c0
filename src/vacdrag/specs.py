"""Input specifications: the dataclasses that describe a computation, their
validators, the model loaders, and the rule that decides whether a surface
rate can be computed.

Nothing here imports numpy, so a scenario can be checked (`vacdrag
validate`) without loading the numerics. The numeric modules import these
names from here, and the old paths (`vacdrag.quadrature.QuadratureSpec`,
`vacdrag.kinematics.MotionFrame`, `vacdrag.medium.load_model`,
`vacdrag.rates.DetectorSpec`, ...) name the same objects.

Each computation that can reject its inputs first calls the one `check_*`
predicate here that is written for it, and the scenario validator calls the
same predicate on every row, so validation rejects exactly what a run
rejects, with the same message. One range rule, check_scale, bounds every
dimensionful input where it enters: the detector's, the quadrature's and a
model term's numbers in their constructors, each row's in its predicate.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from importlib import resources

__all__ = [
    "DetectorSpec",
    "LorentzOscillator",
    "MAX_CONVOLUTION_PANELS",
    "MotionFrame",
    "NonConvergenceError",
    "QuadratureSpec",
    "SCALE",
    "SusceptibilityModel",
    "check_dissipation",
    "check_identity",
    "check_kk_frequency",
    "check_rate_inputs",
    "check_reciprocity",
    "check_reflected_green",
    "check_reflection",
    "check_scale",
    "convolution_panels",
    "is_finite",
    "load_model",
    "lorentz_gamma",
    "model_from_dict",
    "model_to_dict",
]


def _is_real(value) -> bool:
    """A real number (numpy's included), not a bool. float is tried first:
    most values are floats, and the numbers.Real check is slower."""
    return isinstance(value, (float, numbers.Real)) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """math.isfinite, False for an int beyond float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _keep_hash(self) -> None:
    """Keep a frozen spec's hash, that of the tuple of its fields as
    dataclass makes it: rates' spline cache hashes its four key specs on
    every query, and a kept hash saves about 0.5 us per P(T) cache hit. The
    last step of their __post_init__."""
    object.__setattr__(self, "_hash", hash(
        tuple(getattr(self, f.name) for f in fields(self))))


def _kept_hash(self) -> int:
    return self._hash


def _set_state(self, state: dict) -> None:
    """Unpickle a frozen spec and hash it again: str hashes, and before
    Python 3.12 None's, differ between processes."""
    self.__dict__.update(state)
    _keep_hash(self)


# Every dimensionful input (c = hbar = 1), a model's terms included, is 0 or
# within [1/SCALE, SCALE] in magnitude, so the products the code forms stay
# within the normal floats, 2^-1022 to 2^1024, with every input at an end of
# the range. A dispersion integrand reaches w = 2^20 times its top pole, at
# most band_edge = 4 (resonance + damping) <= 2^103, in its 1/u tail and
# forms w^4 / prod (w^2 - p^2) and a shift times w Im chi <= s / damping:
# at most about 2^500, and 2^-400 from squared poles at the low end. Near a
# Doppler zero, omega - beta kx of in-range omega != 0 and kx is 0,
# rejected where chi is singular, or at least about 2^-153, so a Drude chi
# ~ s / (gamma damping (omega - beta kx)) stays below 2^100 / (2^-100
# 2^-153) = 2^353. The wave operator and the bath form two wavenumbers
# times gamma^2 chi, gamma^2 <= 2^53 for any float |beta| < 1: 2^606 at
# most; the decay constant forms eps mu omega^2, 2^906 with an electric and
# a magnetic Drude term both at the ends; the rate's folds form kappa^2
# kpar^4 / omega^2, ky_cut = 25 / z0 <= 2^105: about 2^820 at most.
SCALE = 2.0 ** 100
_RANGE = f"[{1.0 / SCALE:.6g}, {SCALE:.6g}]"


def check_scale(name: str, *values) -> None:
    """Raise ValueError unless every value is 0 or within [1/SCALE, SCALE]
    in magnitude; NaN, +-inf and ints beyond float range fail too. The
    message names name.format(*values), formatted only then."""
    for value in values:
        if not (value == 0.0 or 1.0 / SCALE <= abs(value) <= SCALE):
            raise ValueError(f"{name.format(*values)} must be finite, of "
                             f"magnitude 0 or within {_RANGE}")


class NonConvergenceError(RuntimeError):
    """Raised when an operation cannot meet its tolerance; carries the
    residual error estimate that was achieved."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


# QUADPACK's dqagse refuses a relative tolerance below max(50 eps, 5e-29)
# when epsabs <= 0. Here abs_tol may be as small as the least normal
# float, so a rel_tol below the floor is an error: every panel's error
# estimate is at least 50 eps of its integral of |f|, and below the floor
# only abs_tol could stop the loop, after seconds of bisection.
_REL_TOL_FLOOR = 50.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and domain-control settings shared by all integrals."""

    __hash__ = _kept_hash
    __setstate__ = _set_state

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    k_max: float | None = None

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "k_max"):
            value = getattr(self, name)
            if not (_is_real(value) or name == "k_max" and value is None):
                raise ValueError(f"{name} must be a real number")
        if not (isinstance(self.max_subdivisions, (int, numbers.Integral))
                and not isinstance(self.max_subdivisions, bool)):
            raise ValueError("max_subdivisions must be an integer")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be > 0")
        if not math.isfinite(self.rel_tol):
            raise ValueError("rel_tol must be finite")
        if not self.rel_tol >= _REL_TOL_FLOOR:
            raise ValueError(f"rel_tol must be >= {_REL_TOL_FLOOR:.6g}, 50 eps, "
                             "the floor of QUADPACK's dqagse")
        if not self.abs_tol >= sys.float_info.min:
            raise ValueError(f"abs_tol must be >= {sys.float_info.min:.6g}, the "
                             "smallest normal float")
        if not math.isfinite(self.abs_tol):
            raise ValueError("abs_tol must be finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.k_max is not None:
            if not self.k_max > 0.0:
                raise ValueError("k_max must be > 0 when set")
            check_scale("k_max", self.k_max)
        _keep_hash(self)


def lorentz_gamma(beta: float) -> float:
    beta = float(beta)
    if not abs(beta) < 1.0:
        raise ValueError("|beta| must be < 1")
    return 1.0 / math.sqrt(1.0 - beta * beta)


@dataclass(frozen=True)
class MotionFrame:
    """Uniform motion with velocity beta along the fixed axis x-hat."""

    __hash__ = _kept_hash
    __setstate__ = _set_state

    beta: float
    gamma: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", lorentz_gamma(self.beta))
        _keep_hash(self)


@dataclass(frozen=True)
class DetectorSpec:
    """Dipole detector: coupling vector kappa, gap omega, height z0."""

    __hash__ = _kept_hash
    __setstate__ = _set_state

    kappa: tuple
    omega: float
    z0: float | None = None

    def __post_init__(self):
        kappa = tuple(self.kappa)
        if len(kappa) != 3:
            raise ValueError("kappa must have three components")
        if not all(_is_real(c) for c in kappa):
            raise ValueError("kappa components must be real numbers")
        check_scale("kappa components", *kappa)
        kappa = tuple(float(c) for c in kappa)
        object.__setattr__(self, "kappa", kappa)
        for name in ("omega", "z0"):
            value = getattr(self, name)
            if name == "z0" and value is None:
                continue
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number")
            check_scale(name, value)
            object.__setattr__(self, name, float(value))
        if not self.omega > 0.0:
            raise ValueError("omega must be > 0")
        if not any(c != 0.0 for c in kappa):
            raise ValueError("kappa must be nonzero")
        if self.z0 is not None and not self.z0 > 0.0:
            raise ValueError("z0 must be > 0 when given")
        _keep_hash(self)


_OSCILLATOR_FIELDS = ("plasma_strength", "resonance", "damping")


@dataclass(frozen=True)
class LorentzOscillator:
    """One damped-oscillator term: plasma_strength / (resonance^2 - w^2 - i damping w)."""

    plasma_strength: float
    resonance: float
    damping: float

    def __post_init__(self):
        if self.plasma_strength < 0.0:
            raise ValueError("plasma_strength must be >= 0")
        if self.resonance < 0.0:
            raise ValueError("resonance must be >= 0")
        if not self.damping > 0.0:
            raise ValueError("damping must be > 0")
        for name in _OSCILLATOR_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            check_scale(name, getattr(self, name))


@dataclass(frozen=True)
class SusceptibilityModel:
    __hash__ = _kept_hash
    __setstate__ = _set_state

    electric_terms: tuple = ()
    magnetic_terms: tuple = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "electric_terms", tuple(self.electric_terms))
        object.__setattr__(self, "magnetic_terms", tuple(self.magnetic_terms))
        _keep_hash(self)


def check_rate_inputs(det: DetectorSpec, frame: MotionFrame,
                      model: SusceptibilityModel, quad: QuadratureSpec,
                      finite_time: bool = False) -> bool:
    """Whether the surface rate is exactly zero for these inputs (with
    finite_time, the finite-time probability); raises ValueError when it
    cannot be computed.

    In order: beta = 0 gives the exact zero before any check; then z0 is
    required, k_max must be set and must exceed omega / |beta|, and for the
    finite-time window [0.2 omega, 1.8 omega] 1.8 omega / |beta|, which
    keeps the window's top in range; then its bottom must be in range. A
    model with no terms gives the exact zero after these checks for the
    rate, before them for the finite-time probability.
    """
    empty = not model.electric_terms and not model.magnetic_terms
    if frame.beta == 0.0 or (finite_time and empty):
        return True
    if det.z0 is None:
        raise ValueError("detector height z0 is required for the surface rate")
    if quad.k_max is None:
        raise ValueError("quad.k_max must be set for the surface rate")
    if quad.k_max <= det.omega / abs(frame.beta):
        raise ValueError("quad.k_max must exceed omega / |beta|")
    if finite_time and quad.k_max <= 1.8 * det.omega / abs(frame.beta):
        raise ValueError("quad.k_max must exceed 1.8 omega / |beta| for the "
                         "finite-time window")
    if finite_time and det.omega < 5.0 / SCALE:
        raise ValueError(f"omega must be >= {5.0 / SCALE:.6g}, so that the "
                         f"finite-time window [0.2 omega, 1.8 omega] lies within "
                         f"{_RANGE}")
    return empty


MAX_CONVOLUTION_PANELS = 2 ** 14
_CYCLES_PER_PANEL = 16


def convolution_panels(T: float, omega: float) -> int:
    """The panel count P of the finite-time convolution at interaction time
    T and gap omega: the smallest power of two that leaves at most 16 cycles
    of the kernel 4 sin^2(x T / 2) / x^2 per panel of the window [-0.8
    omega, 0.8 omega], which holds 0.8 omega T / pi cycles. Raises
    ValueError unless T > 0 and P <= MAX_CONVOLUTION_PANELS, that is T <=
    16 pi MAX_CONVOLUTION_PANELS / (0.8 omega)."""
    if not T > 0.0:
        raise ValueError("T must be > 0")
    cycles = 0.8 * omega * T / math.pi
    if not cycles <= _CYCLES_PER_PANEL * MAX_CONVOLUTION_PANELS:
        limit = _CYCLES_PER_PANEL * MAX_CONVOLUTION_PANELS * math.pi / (0.8 * omega)
        raise ValueError(f"T must be <= {limit:.6g} at omega = {omega:g}: the "
                         f"finite-time convolution takes at most "
                         f"{MAX_CONVOLUTION_PANELS} panels")
    return 1 << (math.ceil(cycles / _CYCLES_PER_PANEL) - 1).bit_length()


def _free_carrier(terms) -> bool:
    """Whether a term is a free-carrier one, singular at zero frequency."""
    return any(t.resonance == 0.0 for t in terms)


def check_reflection(model: SusceptibilityModel, beta: float, kx: float,
                     ky: float, omega: float) -> None:
    """Raise ValueError for a lab-frame mode out of range (check_scale) or
    whose reflection amplitudes are undefined: normal incidence, which has
    no transverse basis; a mode on the light cone, kx^2 + ky^2 = omega^2 to
    1e-12 relative (xi = 0); or, for a model with a free-carrier term, a
    Doppler frequency gamma (omega - beta kx) of zero, formed as
    kinematics.doppler forms it, where that term's chi is singular."""
    check_scale("kx, ky and omega", kx, ky, omega)
    kpar2 = kx * kx + ky * ky
    if kpar2 == 0.0:
        raise ValueError("normal incidence has no transverse basis")
    if abs(kpar2 - omega * omega) <= 1e-12 * max(kpar2, omega * omega):
        raise ValueError("mode lies on the light cone (xi = 0)")
    if omega - beta * kx == 0.0 and _free_carrier(model.electric_terms
                                                  + model.magnetic_terms):
        raise ValueError("free-carrier term is singular at zero frequency")


def check_reflected_green(kx: float, omega: float, k_max: float | None) -> None:
    """Raise ValueError for a reflected-Green mode out of range
    (check_scale) or that cannot be integrated: omega = 0, where the p
    dyad's 1 / omega^2 diverges; a grazing mode, kx^2 = omega^2 to 1e-12
    relative, where the light circle shrinks to ky = 0 and the reflected ky
    integral is not integrable; or a ky cut k_max at or inside the light
    circle ky^2 = omega^2 - kx^2, whose segments it would cut off."""
    check_scale("kx and omega", kx, omega)
    if omega == 0.0:
        raise ValueError("omega must be nonzero: the reflected p dyad divides "
                         "by omega^2")
    if abs(kx * kx - omega * omega) <= 1e-12 * max(kx * kx, omega * omega):
        raise ValueError("grazing mode kx^2 = omega^2 is not integrable")
    circle_sq = omega * omega - kx * kx
    if k_max is not None and circle_sq > 0.0 and k_max <= math.sqrt(circle_sq):
        raise ValueError("quad.k_max truncates inside the light circle")


def check_reciprocity(model: SusceptibilityModel, beta: float, kx: float,
                      omega: float, k_max: float | None) -> None:
    """check_reflected_green, then, for a model with a free-carrier term, a
    zero Doppler frequency of any of the three Green functions: omega - beta
    kx at (kx, beta) and (-kx, -beta), omega + beta kx at (-kx, beta)."""
    check_reflected_green(kx, omega, k_max)
    if 0.0 in (omega - beta * kx, omega + beta * kx) and \
            _free_carrier(model.electric_terms + model.magnetic_terms):
        raise ValueError("free-carrier term is singular at zero frequency")


def band_edge(terms) -> float:
    """4 x the largest resonance + damping, that at least 1: the Lorentz
    terms absorb below it."""
    return 4.0 * max(max((t.resonance + t.damping for t in terms), default=1.0), 1.0)


def pole_windows(terms, poles) -> tuple:
    """The principal-value windows (pole, a, b) of a dispersion integral with
    a pole at each |p| of poles, ascending: [0, mid], ..., [mid', cut], the
    mids between poles and cut = max(band_edge, 2 x the top pole). Raises
    ValueError for a pole within 1e-12 of its window's width of an end of
    its window, where the fold of medium._dispersion about the pole would
    be too narrow."""
    poles = sorted(abs(p) for p in poles)
    ends = [0.0] + [0.5 * (lo + hi) for lo, hi in zip(poles, poles[1:])]
    ends.append(max(band_edge(terms), 2.0 * poles[-1]))
    for pole, a, b in zip(poles, ends, ends[1:]):
        if min(pole - a, b - pole) <= 1e-12 * (b - a):
            raise ValueError(f"pole {pole:g} lies within 1e-12 of an end of its "
                             f"principal-value window [{a:g}, {b:g}]")
    return tuple(zip(poles, ends, ends[1:]))


def check_kk_frequency(terms, omega: float) -> None:
    """Raise ValueError for a reconstruction frequency <= 0, out of range
    (check_scale) or too near an end of its window (pole_windows). Each rule
    rejects one end of a log axis, so validate checks its ends, and the
    range message names no row."""
    if not omega > 0.0:
        raise ValueError("reconstruction frequency must be > 0")
    check_scale("reconstruction frequency", omega)
    pole_windows(terms, (omega,))


def check_identity(model: SusceptibilityModel, omega_minus: float,
                   omega_plus: float, shift: float) -> None:
    """Raise ValueError for inputs the two-pole identity cannot take, in
    order: pole frequencies out of range (check_scale) or degenerate,
    omega_minus^2 = omega_plus^2 to 1e-9 relative; a pole at 0 with a
    free-carrier term; a shift out of range; omega_plus <= 0, or a pole too
    near an end of its window (pole_windows)."""
    check_scale("pole frequencies ({:g}, {:g})", omega_minus, omega_plus)
    dm2 = omega_minus * omega_minus - omega_plus * omega_plus
    if abs(dm2) <= 1e-9 * max(omega_minus * omega_minus,
                              omega_plus * omega_plus, 1.0):
        raise ValueError("pole frequencies are degenerate")
    if 0.0 in (omega_minus, omega_plus) and _free_carrier(model.electric_terms):
        raise ValueError("free-carrier term is singular at zero frequency")
    check_scale("shift {:g}", shift)
    if not omega_plus > 0.0:
        raise ValueError(f"omega_plus must be > 0, got {omega_plus:g}")
    pole_windows(model.electric_terms, (omega_minus, omega_plus))


def check_dissipation(beta: float, kx: float, ky: float, kz: float,
                      omega: float) -> None:
    """Raise ValueError, in order, at the comoving resonance omega = V kx,
    where the dissipation identity's prefactor gamma (omega - V kx)
    vanishes, and for a k-point out of range (check_scale)."""
    if omega - beta * kx == 0.0:
        raise ValueError("comoving resonance: omega - V kx must be nonzero")
    check_scale("k-point ({:g}, {:g}, {:g}, {:g}): kx, ky, kz and omega",
                kx, ky, kz, omega)


def model_to_dict(model: SusceptibilityModel) -> dict:
    def pack(terms):
        return [{"plasma_strength": t.plasma_strength, "resonance": t.resonance,
                 "damping": t.damping} for t in terms]
    return {"label": model.label,
            "electric_terms": pack(model.electric_terms),
            "magnetic_terms": pack(model.magnetic_terms)}


def unknown_fields(doc, known, path: str = "") -> list:
    """"<path><key>: unknown field" for each key of doc not in known, in
    sorted order."""
    return [f"{path}{key}: unknown field" for key in sorted(set(doc).difference(known))]


def model_from_dict(doc: dict) -> SusceptibilityModel:
    """A model from its JSON document; ValueError names every key that is not
    `label`, `electric_terms`, `magnetic_terms` or, in a term, an oscillator
    field."""
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    channels = {name: list(doc.get(name, ()))
                for name in ("electric_terms", "magnetic_terms")}
    unknown = unknown_fields(doc, ("label", *channels))
    for name, entries in channels.items():
        for i, e in enumerate(entries):
            if not isinstance(e, dict):
                raise ValueError(f"{name}[{i}]: must be an object")
            unknown += unknown_fields(e, _OSCILLATOR_FIELDS, f"{name}[{i}].")
    if unknown:
        raise ValueError("; ".join(unknown))
    def unpack(entries):
        return tuple(LorentzOscillator(**{f: float(e[f]) for f in _OSCILLATOR_FIELDS})
                     for e in entries)
    return SusceptibilityModel(
        electric_terms=unpack(channels["electric_terms"]),
        magnetic_terms=unpack(channels["magnetic_terms"]),
        label=str(doc.get("label", "")))


def load_model(source: str) -> SusceptibilityModel:
    """Load a model from a JSON file path or a bundled:NAME reference."""
    source = str(source)
    if source.startswith("bundled:"):
        name = source.split(":", 1)[1]
        text = resources.files("vacdrag").joinpath(f"models/{name}.json").read_text()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return model_from_dict(json.loads(text))
