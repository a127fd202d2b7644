"""Dispersion, Bloch phases, and topology of the bare dimerized waveguide.

The two-band dispersion is ``omega_k = sqrt(t1^2 + t2^2 + 2 t1 t2 cos k)``
with the complex intersublattice coupling ``h(k) = -t1 - t2 exp(-ik)``
written as ``|h| exp(i phi_k)``.  Every phase in this package uses the
principal branch of ``phi_k`` in (-pi, pi]; the scattering layer consumes
the same branch so the transfer-matrix trigonometry composes consistently.
"""

from __future__ import annotations

import cmath
import math
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


def h_over_j(k: float, params: WaveguideParams) -> complex:
    """h(k)/J = -(1 + delta) - (1 - delta) exp(-ik), k in (-pi, pi]: the scalar
    h of every route, in units of J where no product of hoppings overflows."""
    if not -math.pi < k <= math.pi:
        raise ValidationError(f"k = {k} outside the Brillouin zone (-pi, pi]")
    return -(1.0 + params.delta) - (1.0 - params.delta) * cmath.exp(-1j * k)


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


def band_phase(k: float, energy: float, params: WaveguideParams) -> float:
    """Generalized coupling phase phi_E with energy * exp(i phi_E) = h(k).

    For positive (upper-band) energies this is the principal phase of h(k);
    for negative (lower-band) energies it is shifted by pi.  Scattering
    formulas written in terms of (energy, phi_E) cover both bands.
    """
    return cmath.phase(bloch_point(k, params).h / energy)


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
    """Pseudospin components dx = -t1 - t2 cos k, dy = -t2 sin k, dz = 0,
    at a momentum or an array of momenta (then dx and dy are arrays)."""
    return DVector(
        dx=-params.t1 - params.t2 * np.cos(k),
        dy=-params.t2 * np.sin(k),
        dz=0.0,
    )


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
    # the loop's winding does not depend on J, and on the J = 1 chain the
    # phases stay defined where t1 t2 would underflow or overflow
    d = d_vector(k, WaveguideParams(delta=params.delta))
    dz = d.dx + 1j * d.dy
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
    """Vectorized upper-band energy J sqrt(a^2 + b^2 + 2ab cos k), with
    a = 1 + delta and b = 1 - delta, over an array of momenta; in units of
    J, t1^2 can neither overflow nor underflow."""
    k = np.asarray(k, dtype=float)
    a, b = 1.0 + params.delta, 1.0 - params.delta
    return params.J * np.sqrt(a * a + b * b + 2.0 * a * b * np.cos(k))
