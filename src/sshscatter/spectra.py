"""Pole structure, regime classification, sweeps, and lineshape extraction.

Sweeps evaluate the closed-form t and r once per grid point, dropping the
out-of-band points by mask; the formulas are regular at the potential
poles, so contour data contains no non-finite values.  Feature extraction
is deliberately fit-free: positions come from grid extrema and widths from
linear interpolation of half-depth crossings, so accuracy is controlled by
grid refinement alone.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bands import h_over_j, require_dispersive
from .errors import EmptyGridError, ValidationError
from .params import Band, CouplingConfig, EmitterParams, WaveguideParams, in_units_of_j
from .scattering import _coupling_weight, _pole_roots, amplitude_grid

# Deterministic regime boundaries on the control-field ratio.  The physics
# only fixes the asymptotic regimes (weak / comparable / strong control
# field); the numeric cutoffs are a reporting heuristic.
RATIO_LORENTZIAN_MAX = 0.25
RATIO_EIT_MAX = 4.0


@dataclass(frozen=True)
class PolePair:
    """The two complex detuning-plane poles of the transmission amplitude."""

    pole_plus: complex
    pole_minus: complex


@dataclass(frozen=True)
class RegimeLabel:
    """Deterministic lineshape classification with its driving ratio."""

    label: str
    ratio: float


@dataclass(frozen=True)
class SpectrumGrid:
    """Flat records of (delta_k, omega_rabi) -> (T, R, t) samples."""

    delta_k: np.ndarray
    omega_rabi: np.ndarray
    transmission: np.ndarray
    reflection: np.ndarray
    amplitude: np.ndarray

    def __len__(self) -> int:
        return len(self.delta_k)


@dataclass(frozen=True)
class LineshapeFeature:
    """One extracted dip or peak.

    ``depth`` is 1 - T_min for dips and the peak height T_max for peaks;
    ``asymmetry`` is the ratio of left to right half-widths.
    """

    kind: str
    position: float
    depth: float
    fwhm: float
    asymmetry: float


def _pole_terms(config, params, emitter, k, band):
    """(s, delta_c, Omega/2) in units of J, s = g^2 B / (4 t1 t2 sin k) on ``band``."""
    _, delta_c, omega_rabi, g = in_units_of_j(params, emitter)
    h = h_over_j(k, params)
    require_dispersive(params, k)
    weight = _coupling_weight(*config.couplings(1.0), band.sign * abs(h), h.conjugate())
    a, b = 1.0 + params.delta, 1.0 - params.delta
    return g * g * weight / (4.0 * a * b * math.sin(k)), delta_c, omega_rabi / 2.0


def _in_energy(z: complex, params: WaveguideParams) -> complex:
    """z J, part by part (a complex times a float may flip a -0)."""
    return complex(z.real * params.J, z.imag * params.J)


def poles(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    k: float,
    band: Band = Band.UPPER,
) -> PolePair:
    """Detuning-plane poles of the transmission at momentum k on ``band``.

    The roots of ``(dk - 2i s)(dk + delta_c) = Omega^2/4``, s = g^2 E F /
    (4 t1 t2 sin k) at the photon's signed energy E: the zeros of the
    closed form's fixed-k (Markov) denominator, not of the full
    energy-dependent one (at Omega = 0 the root -delta_c cancels from t).
    Both are solved in units of J and multiplied by J once; a pole beyond
    the doubles in absolute units (J is unbounded) raises ValidationError
    naming g or omega_rabi, whichever term dominates it.
    """
    strength, delta_c, half = _pole_terms(config, params, emitter, k, band)
    plus, minus = _pole_roots(strength, delta_c, half)
    plus, minus = _in_energy(plus, params), _in_energy(minus, params)
    if not (cmath.isfinite(plus) and cmath.isfinite(minus)):
        field, order = ("g", "g^2/J") if abs(strength) >= half else ("omega_rabi", "Omega")
        raise ValidationError(
            f"{field} out of range: {getattr(emitter, field)} (a pole, of order {order}, overflows)"
        )
    return PolePair(plus, minus)


def classify_regime(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    k: float,
    band: Band = Band.UPPER,
) -> RegimeLabel:
    """Classify the expected lineshape by the control-field strength ratio.

    ratio = |Omega/2| / |s| with the pole strength s of :func:`poles` on
    ``band``; below 0.25 the response is a single Lorentzian dip, above 4
    an Autler-Townes doublet, in between a transparency window.
    """
    strength, _, half = _pole_terms(config, params, emitter, k, band)
    if half == 0.0:
        ratio = 0.0
    elif strength == 0.0:
        ratio = math.inf
    else:
        ratio = abs(half) / abs(strength)
    if ratio < RATIO_LORENTZIAN_MAX:
        label = "lorentzian"
    elif ratio <= RATIO_EIT_MAX:
        label = "eit"
    else:
        label = "ats"
    return RegimeLabel(label=label, ratio=ratio)


def lamb_shift(g: float, alpha: float, params: WaveguideParams) -> float:
    """Displacement g^2 a(1-a)/t1 of the transmission zero for split-site
    coupling (exactly zero for single-site coupling), formed in units of J."""
    g = in_units_of_j(params, EmitterParams(0.0, g=g))[3]
    return alpha * (1.0 - alpha) * g * g / (1.0 + params.delta) * params.J


def ats_dip_positions(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
) -> tuple[float, float]:
    """Strong-control-field dip detunings, shifted by half the Lamb shift."""
    shift = lamb_shift(emitter.g, config.alpha, params) / 2.0
    half = emitter.omega_rabi / 2.0
    return shift - half, shift + half


def sweep_spectrum(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    dk_grid,
    band: Band = Band.UPPER,
) -> SpectrumGrid:
    """Evaluate (T, R) over a detuning grid at fixed control field.

    Grid points whose energy ``omega_e + delta_k`` falls outside the
    selected passband are skipped; an entirely out-of-band grid raises
    :class:`EmptyGridError`.
    """
    dk_grid = np.asarray(dk_grid, dtype=float)
    in_band, t, r = amplitude_grid(config, emitter.omega_e + dk_grid, params, emitter, band)
    if not t.size:
        raise EmptyGridError(
            f"no grid point maps into the {band.value} passband for omega_e = {emitter.omega_e}"
        )
    return SpectrumGrid(
        delta_k=dk_grid[in_band],
        omega_rabi=np.full(t.size, emitter.omega_rabi),
        transmission=np.abs(t) ** 2,
        reflection=np.abs(r) ** 2,
        amplitude=t,
    )


def sweep_contour(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    dk_grid,
    omega_grid,
    band: Band = Band.UPPER,
) -> SpectrumGrid:
    """Outer sweep over control-field strength, inner over detuning.

    Every row keeps the same in-band detunings, so an out-of-band detuning
    grid raises :class:`EmptyGridError` from its first row.
    """
    rows = [
        sweep_spectrum(config, params, dataclasses.replace(emitter, omega_rabi=float(om)),
                       dk_grid, band)
        for om in np.asarray(omega_grid, dtype=float)
    ]
    if not rows:
        raise EmptyGridError("the control-field grid is empty")
    return SpectrumGrid(**{
        field.name: np.concatenate([getattr(row, field.name) for row in rows])
        for field in dataclasses.fields(SpectrumGrid)
    })


def _half_crossing(x, y, i_from, level, direction):
    """Interpolated x where y crosses ``level`` walking from index i_from."""
    i = i_from
    n = len(y)
    while 0 <= i + direction < n:
        j = i + direction
        if (y[i] - level) * (y[j] - level) <= 0.0 and y[i] != y[j]:
            frac = (level - y[i]) / (y[j] - y[i])
            return x[i] + frac * (x[j] - x[i])
        i = j
    return None


def _feature(kind, x, t, i, level, depth):
    """The dip or peak at sample i with its width at ``level``, or None
    where a crossing of that level falls outside the grid."""
    left = _half_crossing(x, t, i, level, -1)
    right = _half_crossing(x, t, i, level, +1)
    if left is None or right is None:
        return None
    asymmetry = (x[i] - left) / (right - x[i])
    return LineshapeFeature(kind, float(x[i]), float(depth), float(right - left), float(asymmetry))


def extract_features(spectrum: SpectrumGrid) -> list[LineshapeFeature]:
    """Extract dips (T < 0.5 minima) and the transparency peaks between them.

    Requires a single-control-field spectrum with at least 3 points on an
    increasing detuning grid.  Dips whose half-depth crossings fall outside
    the grid are dropped (their width is not measurable at this span).
    """
    if len(spectrum) < 3:
        raise ValidationError("feature extraction needs at least 3 spectrum points")
    if len(np.unique(spectrum.omega_rabi)) != 1:
        raise ValidationError("feature extraction expects a single-control-field row")
    x = spectrum.delta_k
    if np.any(np.diff(x) <= 0.0):
        raise ValidationError("detuning grid must be strictly increasing")
    t = spectrum.transmission

    inner = t[1:-1]
    minima = np.flatnonzero((inner < t[:-2]) & (inner <= t[2:]) & (inner < 0.5)) + 1
    features, dip_idx = [], []
    for i in minima.tolist():
        depth = 1.0 - t[i]
        dip = _feature("dip", x, t, i, 1.0 - depth / 2.0, depth)
        if dip is not None:
            dip_idx.append(i)
            features.append(dip)

    # One transparency peak per gap between adjacent dips: the highest
    # sample in the open interval, if it clears T = 0.5.
    for a, b in zip(dip_idx[:-1], dip_idx[1:]):
        if b - a < 2:
            continue
        j = a + 1 + int(np.argmax(t[a + 1 : b]))
        peak = _feature("peak", x, t, j, t[j] / 2.0, t[j]) if t[j] > 0.5 else None
        if peak is not None:
            features.append(peak)
    features.sort(key=lambda f: f.position)
    return features
