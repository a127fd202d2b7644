"""Physical parameters, unit conventions, and validation.

All energies are expressed in units of the characteristic hopping ``J``.
The canonical unit system sets ``J = 1`` so detuning axes read directly in
units of J; ``J`` is stored so configurations remain self-describing.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from .errors import UnsupportedFeatureError, ValidationError


class Band(enum.Enum):
    """Selects the positive- or negative-energy branch of the dispersion."""

    UPPER = "upper"
    LOWER = "lower"

    @property
    def sign(self) -> int:
        return 1 if self is Band.UPPER else -1


class Variant(enum.Enum):
    """Which sublattice(s) of the coupling cell the emitter attaches to."""

    A = "A"
    B = "B"
    AB = "AB"


@dataclass(frozen=True)
class WaveguideParams:
    """Dimerized resonator chain: hoppings t1 = J(1+delta), t2 = J(1-delta)."""

    delta: float
    J: float = 1.0
    omega0: float = 0.0

    @property
    def t1(self) -> float:
        return self.J * (1.0 + self.delta)

    @property
    def t2(self) -> float:
        return self.J * (1.0 - self.delta)


@dataclass(frozen=True)
class EmitterParams:
    """Driven three-level emitter and its waveguide coupling.

    ``omega_e`` is the ground-to-excited transition energy, ``delta_c`` the
    control-field detuning (the metastable level sits at omega_e - delta_c),
    ``omega_rabi`` the control-field Rabi frequency, ``g`` the waveguide
    coupling strength, and ``x1`` the 1-based unit-cell index of the
    coupling site.
    """

    omega_e: float
    delta_c: float = 0.0
    omega_rabi: float = 0.0
    g: float = 0.2
    x1: int = 5

    @property
    def omega_a(self) -> float:
        return self.omega_e - self.delta_c


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling variant with its sublattice mixing parameter.

    ``alpha`` splits the coupling as g1 = g*alpha on the A site and
    g2 = g*(1-alpha) on the B site.  Variant A pins alpha = 1, variant B
    pins alpha = 0; omit ``alpha`` to get the pinned value (AB defaults
    to an even split).
    """

    variant: Variant
    alpha: float | None = None

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))
        if self.alpha is None:
            default = {Variant.A: 1.0, Variant.B: 0.0, Variant.AB: 0.5}
            object.__setattr__(self, "alpha", default[self.variant])

    def couplings(self, g: float) -> tuple[float, float]:
        """Site couplings (g1, g2) for overall strength g."""
        return g * self.alpha, g * (1.0 - self.alpha)


@dataclass(frozen=True)
class ModelParams:
    """Validated, immutable parameter bundle shared by all modules."""

    waveguide: WaveguideParams
    emitter: EmitterParams
    coupling: CouplingConfig
    notes: tuple[str, ...] = ()


def validate(
    params: WaveguideParams,
    emitter: EmitterParams,
    config: CouplingConfig,
) -> ModelParams:
    """Check every invariant and return the normalized bundle.

    Raises :class:`ValidationError` naming the offending field (a NaN or
    infinite energy too), or :class:`UnsupportedFeatureError` for a nonzero
    on-site energy (which would break the chiral symmetry this version
    relies on).
    """
    for name, value in (("J", params.J), ("omega_e", emitter.omega_e),
                        ("delta_c", emitter.delta_c), ("omega_rabi", emitter.omega_rabi),
                        ("g", emitter.g)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} out of range: {value} (must be finite)")
    if not params.J > 0.0:
        raise ValidationError(f"J out of range: {params.J} (must be > 0)")
    if not -1.0 <= params.delta <= 1.0:
        raise ValidationError(f"delta out of range: {params.delta} (must be in [-1, 1])")
    if params.omega0 != 0.0:
        raise UnsupportedFeatureError(
            f"omega0 = {params.omega0} unsupported: nonzero on-site energy breaks "
            "chiral symmetry; shift omega_e instead"
        )
    if emitter.omega_rabi < 0.0:
        raise ValidationError(f"omega_rabi out of range: {emitter.omega_rabi} (must be >= 0)")
    if emitter.g < 0.0:
        raise ValidationError(f"g out of range: {emitter.g} (must be >= 0)")
    if isinstance(emitter.x1, bool) or emitter.x1 != int(emitter.x1):
        raise ValidationError(f"x1 must be an integer cell index, got {emitter.x1!r}")
    if not 0.0 <= config.alpha <= 1.0:
        raise ValidationError(f"alpha out of range: {config.alpha} (must be in [0, 1])")
    if config.variant is Variant.A and config.alpha != 1.0:
        raise ValidationError(f"alpha = {config.alpha} inconsistent with variant A (requires 1)")
    if config.variant is Variant.B and config.alpha != 0.0:
        raise ValidationError(f"alpha = {config.alpha} inconsistent with variant B (requires 0)")
    if config.variant is Variant.AB and not 0.0 < config.alpha < 1.0:
        raise ValidationError(
            f"alpha = {config.alpha} inconsistent with variant AB (requires 0 < alpha < 1)"
        )

    notes = []
    gap_edge = 2.0 * abs(params.delta) * params.J
    outer_edge = 2.0 * params.J
    if not gap_edge <= abs(emitter.omega_e) <= outer_edge:
        notes.append(
            f"omega_e = {emitter.omega_e} lies outside the passbands "
            f"+/-[{gap_edge}, {outer_edge}]; scattering sweeps near resonance "
            "will have few or no in-band points"
        )
    return ModelParams(params, emitter, config, tuple(notes))


def _strict_int(value) -> int:
    if isinstance(value, bool) or float(value) != int(float(value)):
        raise ValueError(f"{value!r} is not an integer")
    return int(float(value))


# JSON parameter schema: field name -> (converter, default).
_SCHEMA = {
    "J": (float, 1.0),
    "delta": (float, 0.5),
    "omega_e": (float, 1.5),
    "delta_c": (float, 0.0),
    "omega_rabi": (float, 0.0),
    "g": (float, 0.2),
    "alpha": (float, None),
    "config": (str, "A"),
    "x1": (_strict_int, 5),
}


def load_param_dict(path) -> dict:
    """Read a JSON parameter file, rejecting unknown keys."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValidationError(f"parameter file {path} must contain a JSON object")
    for key in raw:
        if key not in _SCHEMA:
            raise ValidationError(f"unknown parameter {key!r} in {path}")
    return raw


def bundle_from_dict(values: dict) -> ModelParams:
    """Build and validate a bundle from schema-keyed values (missing keys
    take their defaults)."""
    merged = {}
    for key, (conv, default) in _SCHEMA.items():
        val = values.get(key, default)
        if val is not None:
            try:
                val = conv(val)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"parameter {key!r}: {exc}") from exc
        merged[key] = val
    wg = WaveguideParams(delta=merged["delta"], J=merged["J"])
    em = EmitterParams(
        omega_e=merged["omega_e"],
        delta_c=merged["delta_c"],
        omega_rabi=merged["omega_rabi"],
        g=merged["g"],
        x1=merged["x1"],
    )
    try:
        cfg = CouplingConfig(Variant(merged["config"]), merged["alpha"])
    except ValueError as exc:
        raise ValidationError(f"parameter 'config': {exc}") from exc
    return validate(wg, em, cfg)
