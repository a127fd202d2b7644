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
from .errors import (
    EmptyGridError,
    UnsupportedFeatureError,
    ValidationError,
)
from .params import Band, CouplingConfig, EmitterParams, WaveguideParams
from .scattering import amplitude_grid, interference_factor

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


def _pole_strength(config, params, emitter, k):
    """(s, F, omega_k, sin k, g) with s, omega_k and g in units of J."""
    h = h_over_j(k, params)
    require_dispersive(params, k)
    sink = math.sin(k)
    fac = interference_factor(cmath.phase(h), config.alpha)
    g = emitter.g / params.J
    omega_k = abs(h)
    a, b = 1.0 + params.delta, 1.0 - params.delta
    return g * g * omega_k * fac / (4.0 * a * b * sink), fac, omega_k, sink, g


def poles(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    k: float,
) -> PolePair:
    """Detuning-plane poles of the transmission at control-field resonance.

    Valid only for ``delta_c = 0``, where the pole equation closes in
    radicals: ``dk = i s +/- sqrt(Omega^2/4 - s^2)`` with the complex
    strength ``s = g^2 omega_k F / (4 t1 t2 sin k)``.  The smaller root is
    computed as ``-(Omega/2)^2`` over the larger, keeping its precision.
    Both are solved in units of J, where g^2 and t1 t2 stay in range; a
    strength beyond the range of doubles raises :class:`ValidationError`
    naming g.
    """
    if emitter.delta_c != 0.0:
        raise UnsupportedFeatureError(
            "closed-form poles require delta_c = 0; sweep the spectrum instead"
        )
    strength = _pole_strength(config, params, emitter, k)[0]
    if not cmath.isfinite(strength):
        raise ValidationError(
            f"g out of range: {emitter.g} (the pole strength, of order (g/J)^2 J, overflows)"
        )
    half = emitter.omega_rabi / params.J / 2.0
    # above order 1 the discriminant is formed at the power-of-two scale of
    # the larger of Omega/2 and |s|, exactly, where neither square overflows
    scale = math.ldexp(1.0, -max(0, math.frexp(max(half, abs(strength)))[1]))
    s_scaled = strength * scale
    h_scaled = half * scale
    r_scaled = cmath.sqrt(h_scaled * h_scaled - s_scaled * s_scaled)
    root = r_scaled / scale
    # the larger root first, free of cancellation; their product is -Omega^2/4
    if (1j * s_scaled * r_scaled.conjugate()).real >= 0.0:
        plus = 1j * strength + root
        minus = -half * (half / plus) if half else 0j
    else:
        minus = 1j * strength - root
        plus = -half * (half / minus) if half else 0j
    j = params.J  # scaled by parts: a complex times a float may flip a -0
    return PolePair(complex(plus.real * j, plus.imag * j), complex(minus.real * j, minus.imag * j))


def classify_regime(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    k: float,
) -> RegimeLabel:
    """Classify the expected lineshape by the control-field strength ratio.

    ratio = |Omega| 2 t1 t2 |sin k| / (g^2 omega_k |F|), formed in units of
    J; below 0.25 the response is a single Lorentzian dip, above 4 an
    Autler-Townes doublet, in between a transparency window.
    """
    _, fac, omega_k, sink, g = _pole_strength(config, params, emitter, k)
    if emitter.omega_rabi == 0.0:
        ratio = 0.0
    elif g == 0.0:
        ratio = math.inf
    else:
        # divided by g twice, not by g^2: g^2 underflows to 0 for g below
        # about 1e-162 J, where the ratio should overflow to inf as at g = 0
        ratio = (
            abs(emitter.omega_rabi) / params.J / g / g
            * 2.0 * (1.0 + params.delta) * (1.0 - params.delta) * abs(sink)
            / (omega_k * abs(fac))
        )
    if ratio < RATIO_LORENTZIAN_MAX:
        label = "lorentzian"
    elif ratio <= RATIO_EIT_MAX:
        label = "eit"
    else:
        label = "ats"
    return RegimeLabel(label=label, ratio=ratio)


def lamb_shift(g: float, alpha: float, params: WaveguideParams) -> float:
    """Displacement g^2 a(1-a)/t1 of the transmission zero for split-site
    coupling (exactly zero for single-site coupling, even where g^2
    overflows), formed in units of J."""
    g = g / params.J
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
        level = 1.0 - depth / 2.0
        left = _half_crossing(x, t, i, level, -1)
        right = _half_crossing(x, t, i, level, +1)
        if left is None or right is None:
            continue
        dip_idx.append(i)
        features.append(
            LineshapeFeature(
                kind="dip",
                position=float(x[i]),
                depth=float(depth),
                fwhm=float(right - left),
                asymmetry=float((x[i] - left) / (right - x[i])),
            )
        )

    # One transparency peak per gap between adjacent dips: the highest
    # sample in the open interval, if it clears T = 0.5.
    for a, b in zip(dip_idx[:-1], dip_idx[1:]):
        if b - a < 2:
            continue
        seg = slice(a + 1, b)
        j = a + 1 + int(np.argmax(t[seg]))
        if t[j] <= 0.5:
            continue
        level = t[j] / 2.0
        left = _half_crossing(x, t, j, level, -1)
        right = _half_crossing(x, t, j, level, +1)
        if left is None or right is None:
            continue
        features.append(
            LineshapeFeature(
                kind="peak",
                position=float(x[j]),
                depth=float(t[j]),
                fwhm=float(right - left),
                asymmetry=float((x[j] - left) / (right - x[j])),
            )
        )
    features.sort(key=lambda f: f.position)
    return features
