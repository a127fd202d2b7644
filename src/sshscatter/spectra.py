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


def _ldexp(x: float, n: int) -> float:
    """x 2^n, +-inf where that overflows."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _unscale(x: float, n: int, params: WaveguideParams) -> float:
    """x 2^n J: from units of J, at the scale 2^-n, back to absolute units.

    Where x 2^n is a double it is rounded in units of J, then times J, so
    at J = 2^m the answer is the J = 1 answer times J exactly, subnormals
    too; where it is not, J's mantissa joins x first.  +-inf where the
    answer overflows.
    """
    try:
        return math.ldexp(x, n) * params.J
    except OverflowError:
        j_mant, j_exp = math.frexp(params.J)
        return _ldexp(x * j_mant, n + j_exp)


def _scaled(z: complex, n: int) -> complex:
    """z 2^n, part by part (a complex times a float may flip a -0)."""
    return complex(math.ldexp(z.real, n), math.ldexp(z.imag, n))


def _pole_terms(config, params, emitter, k):
    """(s, n, w, p): in units of J the pole strength is s 2^n and half the
    drive, Omega/2J, is w 2^p, so that neither leaves the range of doubles.

    s is formed with g/J above order 1 at the scale 2^-n/2, where its
    square fits; w is carried at its own power of two.
    """
    h = h_over_j(k, params)
    require_dispersive(params, k)
    fac = interference_factor(cmath.phase(h), config.alpha)
    g = emitter.g / params.J
    m = math.frexp(g)[1] if g >= 1.0 else 0
    g = math.ldexp(g, -m)
    a, b = 1.0 + params.delta, 1.0 - params.delta
    drive, p = math.frexp(emitter.omega_rabi)
    j_mant, j_exp = math.frexp(params.J)
    return (g * g * abs(h) * fac / (4.0 * a * b * math.sin(k)), 2 * m,
            drive / j_mant / 2.0, p - j_exp)


def poles(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    k: float,
) -> PolePair:
    """Detuning-plane poles of the transmission at control-field resonance.

    Valid only for ``delta_c = 0``, where the pole equation closes in
    radicals: ``dk = i s +/- sqrt(Omega^2/4 - s^2)`` with the complex
    strength ``s = g^2 omega_k F / (4 t1 t2 sin k)``.  Both roots are
    solved in units of J, the smaller as -(Omega/2)^2 over the larger, and
    each is scaled back once; a pole beyond the range of doubles raises
    ValidationError naming g or omega_rabi, whichever term dominates it.
    """
    if emitter.delta_c != 0.0:
        raise UnsupportedFeatureError(
            "closed-form poles require delta_c = 0; sweep the spectrum instead"
        )
    strength, exponent, half, p = _pole_terms(config, params, emitter, k)
    # the discriminant at the power-of-two scale 2^top of the larger of
    # Omega/2J and |s| (a zero term takes the other's), where no square
    # over- or underflows
    s_top = math.frexp(abs(strength))[1] + exponent
    h_top = math.frexp(half)[1] + p
    top = max(s_top if strength else h_top, h_top if half else s_top)
    s_scaled = _scaled(strength, exponent - top)
    h_scaled = math.ldexp(half, p - top)
    r_scaled = cmath.sqrt(h_scaled * h_scaled - s_scaled * s_scaled)
    plus = (1j * s_scaled * r_scaled.conjugate()).real >= 0.0
    # the larger root, free of cancellation, 2^1022 up from there, where
    # its modulus lies in [2^1020, 2^1024) and i s keeps its digits beside
    # an Omega/2 up to 2^2044 times larger
    top -= 1022
    larger = 1j * _scaled(strength, exponent - top)
    root = r_scaled / 2.0**-1022
    larger = larger + root if plus else larger - root
    pole = complex(_unscale(larger.real, top, params), _unscale(larger.imag, top, params))
    if not cmath.isfinite(pole):
        field, order = ("g", "g^2/J") if abs(s_scaled) >= abs(h_scaled) else ("omega_rabi", "Omega")
        raise ValidationError(
            f"{field} out of range: {getattr(emitter, field)} (a pole, of order {order}, overflows)"
        )
    # their product is -(Omega/2)^2, formed with the larger brought to order 1
    smaller = 0j
    if half:
        smaller = -half * (half / _scaled(larger, -1022))
        n = 2 * p - top - 1022
        smaller = complex(_unscale(smaller.real, n, params), _unscale(smaller.imag, n, params))
    return PolePair(pole, smaller) if plus else PolePair(smaller, pole)


def classify_regime(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    k: float,
) -> RegimeLabel:
    """Classify the expected lineshape by the control-field strength ratio.

    ratio = |Omega/2| / |s| with the pole strength s of :func:`poles`; below
    0.25 the response is a single Lorentzian dip, above 4 an Autler-Townes
    doublet, in between a transparency window.
    """
    strength, exponent, half, p = _pole_terms(config, params, emitter, k)
    if half == 0.0:
        ratio = 0.0
    elif strength == 0.0:
        ratio = math.inf
    else:
        mant, n = math.frexp(abs(strength))
        ratio = _ldexp(abs(half) / mant, p - exponent - n)
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
    overflows), formed in units of J with g/J above order 1 at scale 2^-m."""
    g = g / params.J
    m = math.frexp(g)[1] if g >= 1.0 else 0
    g = math.ldexp(g, -m)
    return _unscale(alpha * (1.0 - alpha) * g * g / (1.0 + params.delta), 2 * m, params)


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
