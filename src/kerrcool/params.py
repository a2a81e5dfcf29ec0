"""Canonical parameter types and unit conventions.

Internally every frequency or rate is an angular quantity (rad/s).  All
config I/O speaks cyclic Hz (the convention of the experimental parameter
table), so the single 2*pi conversion happens here and nowhere else.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import ConfigError

TAU = 2.0 * math.pi

#: Exact SI values (2019 redefinition), written out rather than imported;
#: tests/test_params.py pins them bit for bit.
hbar = 6.62607015e-34 / TAU
k_B = 1.380649e-23

CONFIG_KEYS = ("f_m", "gamma_m", "kappa", "kerr", "g0", "n_th")


class BranchPolicy(enum.Enum):
    """How a steady-state solve picks a root when several coexist."""

    LOWER_BRANCH = "lower"
    UPPER_BRANCH = "upper"
    REQUIRE_MONOSTABLE = "monostable"


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the coupled cavity-mechanics system.

    All fields are angular (rad/s) except the dimensionless bath
    occupation ``n_th``.
    """

    omega_m: float   # mechanical frequency
    gamma_m: float   # mechanical linewidth
    kappa: float     # cavity linewidth
    kerr: float      # intrinsic Kerr constant
    g0: float        # bare optomechanical coupling
    n_th: float      # mechanical bath occupation

    def __post_init__(self):
        checks = [
            ("omega_m", self.omega_m > 0, "must be > 0"),
            ("kappa", self.kappa > 0, "must be > 0"),
            ("gamma_m", self.gamma_m > 0, "must be > 0"),
            ("kerr", self.kerr >= 0, "must be >= 0"),
            ("g0", self.g0 >= 0, "must be >= 0"),
            ("n_th", self.n_th >= 0, "must be >= 0"),
        ]
        for key, ok, msg in checks:
            if not (ok and math.isfinite(getattr(self, key))):
                raise ConfigError(f"{key} {msg} and finite, got {getattr(self, key)!r}")
        if not self.gamma_m < self.omega_m:
            raise ConfigError(
                f"gamma_m must be < omega_m (high-Q oscillator), got "
                f"gamma_m={self.gamma_m!r}, omega_m={self.omega_m!r}"
            )

    def replace(self, **kw) -> "SystemParams":
        """Copy with the given fields changed, validated again."""
        return replace(self, **kw)

    def without_kerr(self) -> "SystemParams":
        """Identical system with the intrinsic Kerr switched off."""
        return self.replace(kerr=0.0)

    @property
    def bath_temperature(self) -> float:
        """Temperature (K) implied by n_th at omega_m via Bose-Einstein."""
        return bath_temperature(self.omega_m, self.n_th)


@dataclass(frozen=True)
class OperatingPoint:
    """Drive settings: detuning (rad/s, may be negative) and input photon
    flux (photons/s), plus the branch-selection policy."""

    detuning: float
    n_in: float
    branch_policy: BranchPolicy = BranchPolicy.LOWER_BRANCH

    def __post_init__(self):
        if not (math.isfinite(self.detuning)):
            raise ConfigError(f"detuning must be finite, got {self.detuning!r}")
        if not (self.n_in >= 0 and math.isfinite(self.n_in)):
            raise ConfigError(f"n_in must be >= 0 and finite, got {self.n_in!r}")


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean thermal occupation of a mode at angular frequency omega (rad/s)
    for a bath at the given temperature (K)."""
    if temperature <= 0:
        return 0.0
    x = hbar * omega / (k_B * temperature)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:   # x above about 709: the limit e^-x, or 0
        return math.exp(-x)
    except ZeroDivisionError:   # x = 0: no finite occupation
        return math.inf


def bath_temperature(omega: float, n_th: float) -> float:
    """Invert Bose-Einstein: temperature (K) giving occupation n_th at omega."""
    if n_th <= 0:
        return 0.0
    return hbar * omega / (k_B * math.log1p(1.0 / n_th))


def _config_number(document: dict, key: str) -> float:
    """float(document[key]), or a ConfigError naming the key."""
    try:
        return float(document[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key} is not a number: {document[key]!r}") from exc


def params_from_config(document: dict) -> SystemParams:
    """Build validated SystemParams from a flat key-value document.

    Frequencies in the document are cyclic (Hz): keys ``f_m``, ``gamma_m``,
    ``kappa``, ``kerr``, ``g0``.  The bath occupation is ``n_th``
    (dimensionless); alternatively ``temperature_K`` is accepted and
    converted through the Bose-Einstein law at the mechanical frequency.
    """
    values = {}
    positive = ("f_m", "gamma_m", "kappa")
    for key in ("f_m", "gamma_m", "kappa", "kerr", "g0"):
        if key not in document:
            raise ConfigError(f"missing config key: {key}")
        values[key] = _config_number(document, key)
        if key in positive and not values[key] > 0:
            raise ConfigError(f"config key {key} must be > 0, got {values[key]!r}")
        if not (values[key] >= 0 and math.isfinite(values[key])):
            raise ConfigError(f"config key {key} must be >= 0 and finite, got {values[key]!r}")

    if "n_th" in document:
        n_th = _config_number(document, "n_th")
    elif "temperature_K" in document:
        temp = _config_number(document, "temperature_K")
        if temp < 0:
            raise ConfigError(f"temperature_K must be >= 0, got {temp!r}")
        n_th = bose_occupation(TAU * values["f_m"], temp)
    else:
        raise ConfigError("missing config key: n_th (or temperature_K)")

    return SystemParams(
        omega_m=TAU * values["f_m"],
        gamma_m=TAU * values["gamma_m"],
        kappa=TAU * values["kappa"],
        kerr=TAU * values["kerr"],
        g0=TAU * values["g0"],
        n_th=n_th,
    )


def _cyclic_preimage(x: float) -> float:
    """Cyclic value f whose angular image f*TAU reproduces x bit-exactly.

    Plain division can land one ulp off; scan the immediate float
    neighbourhood and keep an exact preimage whenever one exists.
    """
    if x == 0.0:
        return 0.0
    f = x / TAU
    best, best_err = f, abs(f * TAU - x)
    for step in (1, 2, 3):
        for target in (math.inf, -math.inf):
            g = f
            for _ in range(step):
                g = math.nextafter(g, target)
            err = abs(g * TAU - x)
            if err < best_err:
                best, best_err = g, err
    return best


def serialize_config(p: SystemParams) -> dict:
    """Flat cyclic-Hz document for ``params_from_config``.

    Round-trips bit-exactly for any params that came from a config.
    """
    return {
        "f_m": _cyclic_preimage(p.omega_m),
        "gamma_m": _cyclic_preimage(p.gamma_m),
        "kappa": _cyclic_preimage(p.kappa),
        "kerr": _cyclic_preimage(p.kerr),
        "g0": _cyclic_preimage(p.g0),
        "n_th": p.n_th,
    }


def default_params() -> SystemParams:
    """The baseline superconducting-circuit parameter set used throughout:
    f_m = 0.3 MHz, gamma_m = 0.5 Hz, kappa = 3 MHz, Kerr = 0.16 MHz,
    g0 = 1.7 kHz, with 2778 thermal phonons in the mechanical bath."""
    return params_from_config({
        "f_m": 0.3e6,
        "gamma_m": 0.5,
        "kappa": 3e6,
        "kerr": 0.16e6,
        "g0": 1.7e3,
        "n_th": 2778.0,
    })


#: Fraction of the bifurcation drive used as the standard "critical" input
#: power: strong enough for near-maximal photon number, still monostable.
CRITICAL_POWER_FRACTION = 0.9999999
