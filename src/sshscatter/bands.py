"""Dispersion, Bloch phases, and topology of the bare dimerized waveguide.

The chain's convention lives here alone: ``h(k) = -t1 - t2 exp(-ik) = |h|
exp(i phi_k)`` in units of J (:func:`h_over_j`, behind every route) and the
band phase ``E exp(i phi_E) = h`` (:func:`band_phase`), each written once for
a float (cmath) and an array of momenta (numpy); ``omega_k = J |h(k)|``.
Every phase is the principal branch in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandEdgeError,
    DegenerateEigenvectorError,
    OutOfBandError,
    UndefinedWindingError,
    ValidationError,
)
from .params import Band, WaveguideParams


@dataclass(frozen=True)
class BlochPoint:
    """Dispersion data at one quasi-momentum."""

    k: float
    h: complex
    phi_k: float
    omega_k: float


@dataclass(frozen=True)
class DVector:
    """Pseudospin vector (dx, dy, dz) of the two-band Bloch Hamiltonian;
    dx and dy are arrays when taken over an array of momenta."""

    dx: float
    dy: float
    dz: float = 0.0


@dataclass(frozen=True)
class BlochEigenvectors:
    """Normalized (A, B) sublattice amplitudes of the two Bloch bands."""

    upper: np.ndarray
    lower: np.ndarray


def h_over_j(k, params: WaveguideParams):
    """h(k)/J = -(1 + delta) - (1 - delta) exp(-ik), in units of J where no
    product of hoppings overflows: a float k in (-pi, pi] gives a complex by
    cmath (any other real scalar but a bool is taken as ``float(k)``), an
    array of k (-pi too) an array by the same arithmetic in numpy."""
    scalar = isinstance(k, float)
    if not scalar and isinstance(k, numbers.Real) and not isinstance(k, bool):
        k, scalar = float(k), True
    if scalar and not -math.pi < k <= math.pi:
        raise ValidationError(f"k = {k} outside the Brillouin zone (-pi, pi]")
    return -(1.0 + params.delta) - (1.0 - params.delta) * (cmath.exp if scalar else np.exp)(-1j * k)


def bloch_point(k: float, params: WaveguideParams) -> BlochPoint:
    """Evaluate h(k), its phase, and the upper-band energy at momentum k."""
    h, j = h_over_j(k, params), params.J  # scaled by parts: h * j may flip a -0
    return BlochPoint(k, complex(h.real * j, h.imag * j), cmath.phase(h), abs(h) * j)


def require_dispersive(params: WaveguideParams, k: float) -> None:
    """Raise :class:`BandEdgeError` where nothing propagates at momentum k:
    on the flat bands of delta = +-1 and where |cos k| = 1 in doubles (k = 0,
    pi and every k within rounding of them), the momenta that no energy maps
    to in :func:`_band_cos`; there sin k is 0 or a rounding residue."""
    if abs(params.delta) == 1.0:
        raise BandEdgeError(f"delta = {params.delta}: flat bands, no momentum propagates")
    if abs(math.cos(k)) == 1.0:
        raise BandEdgeError(
            f"k = {k} is a band edge, exactly or to rounding: no momentum propagates"
        )


def band_edges(params: WaveguideParams) -> tuple[float, float]:
    """Return (gap edge, outer edge) = (2|delta|J, 2J) of the upper band."""
    return 2.0 * abs(params.delta) * params.J, 2.0 * params.J


def band_phase(k, energy, params: WaveguideParams):
    """Generalized coupling phase phi_E with energy * exp(i phi_E) = h(k).

    The principal phase of h(k) for positive (upper-band) energies, of -h(k)
    for negative (lower-band) ones: only the sign enters, so no division
    rounds it.  A real scalar k (as :func:`h_over_j` takes it) and a float
    energy give a float, an array of k an array (``energy`` an array or a
    float).  A zero or non-finite energy has no phase and raises
    :class:`ValidationError`.
    """
    h = h_over_j(k, params)
    if type(h) is complex:  # the cmath h of a scalar k
        return _phase_of(h, energy)
    if np.all(np.isfinite(energy) & (energy != 0.0)):
        return np.angle(np.where(energy > 0.0, h, -h))
    raise _no_phase(energy)


def _phase_of(h, energy: float) -> float:
    """:func:`band_phase` of a float energy from h(k)/J already formed."""
    if energy != 0.0 and math.isfinite(energy):
        return cmath.phase(h if energy > 0.0 else -h)
    raise _no_phase(energy)


def _no_phase(energy) -> ValidationError:
    return ValidationError(f"energy = {energy} has no band phase (must be finite and nonzero)")


def _band_cos(omega, params: WaveguideParams, sign):
    """The one in-band test: ``(in_band, cos k)`` at signed energy ``omega``
    on the band of sign ``sign``; Python scalars for a float, else arrays.

    cos k = ((|omega|/J)^2 - a^2 - b^2) / (2ab), a = 1 + delta, b = 1 - delta,
    is in units of J, where no product of hoppings can leave the range of
    doubles.  In band: the right sign, strictly between the band edges and
    |cos k| < 1 (acos strictly inside (0, pi)).  At delta = +-1 the edges
    meet and 2ab is 0: nothing is in band.
    """
    gap_edge, outer_edge = band_edges(params)
    w = abs(omega)
    a, b = 1.0 + params.delta, 1.0 - params.delta
    x = w / params.J
    cos_k = (x * x - a * a - b * b) / (2.0 * a * b or math.inf)
    return (omega * sign > 0.0) & (w > gap_edge) & (w < outer_edge) & (abs(cos_k) < 1.0), cos_k


def momentum_from_energy(
    omega: float, params: WaveguideParams, band: Band | None = None
) -> float:
    """Invert the dispersion: momentum k in (0, pi) with omega_k(k) = |omega|.

    Passing ``band`` additionally enforces that the sign of ``omega``
    matches the selected branch.  The in-band test is :func:`_band_cos`,
    in units of J; only an energy it rejects is sorted by cause:
    :class:`ValidationError` for NaN or the wrong sign, :class:`OutOfBandError`
    (code ``"gap"`` or ``"beyond_edge"``) for a non-propagating energy and
    :class:`BandEdgeError` on an edge, exactly or to rounding, where
    sin(k) = 0 makes every scattering denominator degenerate.
    """
    in_band, cos_k = _band_cos(omega, params, band.sign if band else math.copysign(1.0, omega))
    if in_band:
        return math.acos(cos_k)
    if math.isnan(omega):
        raise ValidationError(f"omega = {omega} is not a number")
    if band is not None and omega * band.sign <= 0.0:
        raise ValidationError(f"omega = {omega} has the wrong sign for the {band.value} band")
    gap_edge, outer_edge = band_edges(params)
    w = abs(omega)
    if w < gap_edge:
        raise OutOfBandError(f"|omega| = {w} lies in the band gap (< {gap_edge})", code="gap")
    if w > outer_edge:
        raise OutOfBandError(
            f"|omega| = {w} lies beyond the outer band edge (> {outer_edge})",
            code="beyond_edge",
        )
    raise BandEdgeError(f"|omega| = {w} sits on a band edge, exactly or to rounding")


def momentum_grid(omega, params: WaveguideParams, band: Band = Band.UPPER):
    """Array counterpart of :func:`momentum_from_energy`: ``(in_band, k)``,
    the mask of the energies at which it would return rather than raise,
    and the momenta in (0, pi) at those energies only, from the same
    :func:`_band_cos`."""
    # far out of band (|omega|/J)^2 overflows to inf (at delta = +-1, inf/inf
    # to nan): both read as out of band
    with np.errstate(over="ignore", invalid="ignore"):
        in_band, cos_k = _band_cos(np.asarray(omega, dtype=float), params, band.sign)
    return in_band, np.arccos(cos_k[in_band])


def group_velocity(k: float, params: WaveguideParams) -> float:
    """Magnitude |t1 t2 sin k| / omega_k of the band slope.

    The analytic derivative of the upper band is -t1 t2 sin(k)/omega_k,
    negative on (0, pi); callers that need a direction combine this
    magnitude with their own propagation convention (formed in units of
    J).  Returns 0 at the band edges k = 0, pi.
    """
    if k == 0.0 or abs(k) == math.pi:
        return 0.0
    w = abs(h_over_j(k, params))
    if w < 1e-12:
        raise DegenerateEigenvectorError("group velocity undefined at a gap-closing point")
    return abs((1.0 + params.delta) * (1.0 - params.delta) * math.sin(k)) / w * params.J


def bloch_eigenvectors(k: float, params: WaveguideParams) -> BlochEigenvectors:
    """Eigenvectors (A, B amplitudes) of the 2x2 Bloch Hamiltonian at k.

    The upper/lower vectors satisfy H_k v = +/- omega_k v; both are unit
    norm and mutually orthogonal; the bands are degenerate where |h| < 1e-12 J.
    """
    h = h_over_j(k, params)
    if abs(h) < 1e-12:
        raise DegenerateEigenvectorError(
            f"bands are degenerate at k = {k} (gapless chain); eigenvectors undefined"
        )
    phase = cmath.exp(-1j * cmath.phase(h))
    upper = np.array([1.0, phase]) / math.sqrt(2.0)
    lower = np.array([-1.0, phase]) / math.sqrt(2.0)
    return BlochEigenvectors(upper=upper, lower=lower)


def d_vector(k, params: WaveguideParams) -> DVector:
    """Pseudospin components (dx, dy, dz) = J (Re h, -Im h, 0), at k or over an array of k."""
    h = h_over_j(k, params)
    return DVector(dx=params.J * h.real, dy=-params.J * h.imag)


def winding_number(params: WaveguideParams, n_samples: int = 4096) -> int:
    """Winding of the d(k) loop around the origin over the Brillouin zone.

    Accumulates branch-safe phase increments between consecutive samples
    rather than unwrapping a global arg, so the count is robust next to
    the phase discontinuity.  The accumulated angle must land within 1e-6
    of an integer multiple of 2 pi.
    """
    if params.delta == 0.0:
        raise UndefinedWindingError("winding number undefined for delta = 0 (gap closed)")
    if n_samples < 64:
        raise ValidationError(f"n_samples = {n_samples} too coarse (need >= 64)")
    k = np.linspace(-math.pi, math.pi, n_samples + 1)
    # d = dx + i dy is J h*: its winding does not depend on J, and in units of
    # J the phases stay defined where t1 t2 would underflow or overflow
    dz = h_over_j(k, params).conj()
    increments = np.angle(dz[1:] / dz[:-1])
    nu_raw = float(np.sum(increments)) / (2.0 * math.pi)
    nu = round(nu_raw)
    if abs(nu_raw - nu) >= 1e-6:
        raise UndefinedWindingError(
            f"winding accumulation did not close: residual {abs(nu_raw - nu):.3e}"
        )
    return nu


def zak_phase(params: WaveguideParams, n_samples: int = 4096) -> float:
    """Geometric phase nu * pi of the occupied band."""
    return winding_number(params, n_samples) * math.pi


def dispersion_grid(k, params: WaveguideParams):
    """Vectorized upper-band energy J |h(k)| over an array of momenta."""
    return params.J * np.abs(h_over_j(np.asarray(k, dtype=float), params))
