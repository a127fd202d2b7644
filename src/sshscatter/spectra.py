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

from .bands import bloch_point, require_dispersive
from .errors import (
    BandEdgeError,
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
    require_dispersive(params)
    bp = bloch_point(k, params)
    sink = math.sin(k)
    if sink == 0.0:
        raise BandEdgeError(f"sin k = 0 at k = {k}; pole analysis undefined")
    fac = interference_factor(bp.phi_k, config.alpha)
    g2 = emitter.g * emitter.g
    return g2 * bp.omega_k * fac / (4.0 * params.t1 * params.t2 * sink), fac, bp, sink


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
    computed as ``-(Omega^2/4)`` over the larger, keeping its precision.
    """
    if emitter.delta_c != 0.0:
        raise UnsupportedFeatureError(
            "closed-form poles require delta_c = 0; sweep the spectrum instead"
        )
    strength, _, _, _ = _pole_strength(config, params, emitter, k)
    quarter = emitter.omega_rabi * emitter.omega_rabi / 4.0
    root = cmath.sqrt(quarter - strength * strength)
    # the larger root first, free of cancellation; their product is -Omega^2/4
    if (1j * strength * root.conjugate()).real >= 0.0:
        plus = 1j * strength + root
        minus = -quarter / plus if quarter else 0j
    else:
        minus = 1j * strength - root
        plus = -quarter / minus if quarter else 0j
    return PolePair(pole_plus=plus, pole_minus=minus)


def classify_regime(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    k: float,
) -> RegimeLabel:
    """Classify the expected lineshape by the control-field strength ratio.

    ratio = |Omega| 2 t1 t2 |sin k| / (g^2 omega_k |F|); below 0.25 the
    response is a single Lorentzian dip, above 4 an Autler-Townes doublet,
    in between a transparency window.
    """
    _, fac, bp, sink = _pole_strength(config, params, emitter, k)
    if emitter.omega_rabi == 0.0:
        ratio = 0.0
    elif emitter.g == 0.0:
        ratio = math.inf
    else:
        # divided by g twice, not by g^2: g^2 underflows to 0 for g below
        # about 1e-162, where the ratio should overflow to inf as at g = 0
        ratio = (
            abs(emitter.omega_rabi) / emitter.g / emitter.g
            * 2.0 * params.t1 * params.t2 * abs(sink)
            / (bp.omega_k * abs(fac))
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
    coupling (exactly zero for single-site coupling)."""
    return g * g * alpha * (1.0 - alpha) / params.t1


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

    minima = [
        i
        for i in range(1, len(t) - 1)
        if t[i] < t[i - 1] and t[i] <= t[i + 1] and t[i] < 0.5
    ]
    features = []
    for i in minima:
        depth = 1.0 - t[i]
        level = 1.0 - depth / 2.0
        left = _half_crossing(x, t, i, level, -1)
        right = _half_crossing(x, t, i, level, +1)
        if left is None or right is None:
            continue
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
    dip_idx = [i for i in minima if any(f.position == x[i] for f in features)]
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
