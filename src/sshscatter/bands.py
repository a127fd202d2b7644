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


def bloch_point(k: float, params: WaveguideParams) -> BlochPoint:
    """Evaluate h(k), its phase, and the upper-band energy at momentum k."""
    if not -math.pi < k <= math.pi:
        raise ValidationError(f"k = {k} outside the Brillouin zone (-pi, pi]")
    h = complex(-params.t1 - params.t2 * cmath.exp(-1j * k))
    return BlochPoint(k=k, h=h, phi_k=cmath.phase(h), omega_k=abs(h))


def require_dispersive(params: WaveguideParams) -> None:
    """Raise :class:`BandEdgeError` at delta = +-1, where t1 or t2 is 0 and
    no momentum propagates (tested on delta: t1 t2 underflows at tiny J)."""
    if abs(params.delta) == 1.0:
        raise BandEdgeError(f"delta = {params.delta}: flat bands, no momentum propagates")


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


def momentum_from_energy(
    omega: float, params: WaveguideParams, band: Band | None = None
) -> float:
    """Invert the dispersion: momentum k in (0, pi) with omega_k(k) = |omega|.

    Passing ``band`` additionally enforces that the sign of ``omega``
    matches the selected branch.  Raises :class:`OutOfBandError` (code
    ``"gap"`` or ``"beyond_edge"``) for non-propagating energies and
    :class:`BandEdgeError` exactly on an edge, where sin(k) = 0 makes every
    scattering denominator degenerate.
    """
    if band is not None and omega * band.sign <= 0.0:
        raise ValidationError(
            f"omega = {omega} has the wrong sign for the {band.value} band"
        )
    gap_edge, outer_edge = band_edges(params)
    w = abs(omega)
    if w == gap_edge or w == outer_edge:
        raise BandEdgeError(f"|omega| = {w} sits exactly on a band edge")
    if w < gap_edge:
        raise OutOfBandError(
            f"|omega| = {w} lies in the band gap (< {gap_edge})", code="gap"
        )
    if w > outer_edge:
        raise OutOfBandError(
            f"|omega| = {w} lies beyond the outer band edge (> {outer_edge})",
            code="beyond_edge",
        )
    t1, t2 = params.t1, params.t2
    arg = (w * w - t1 * t1 - t2 * t2) / (2.0 * t1 * t2)
    k = math.acos(max(-1.0, min(1.0, arg)))
    if k == 0.0 or k == math.pi:
        raise BandEdgeError(f"|omega| = {w} is numerically indistinguishable from a band edge")
    return k


def momentum_grid(omega, params: WaveguideParams, band: Band = Band.UPPER):
    """Array counterpart of :func:`momentum_from_energy`: ``(in_band, k)``,
    the mask of the energies at which it would return rather than raise,
    and the momenta in (0, pi) at those energies only."""
    omega = np.asarray(omega, dtype=float)
    gap_edge, outer_edge = band_edges(params)
    w = np.abs(omega)
    in_band = (omega * band.sign > 0.0) & (w > gap_edge) & (w < outer_edge)
    # divided only between the edges: at delta = +-1 they coincide, so the
    # zero t1 t2 is never a divisor
    t1, t2 = params.t1, params.t2
    arg = np.divide(w * w - t1 * t1 - t2 * t2, 2.0 * t1 * t2,
                    out=np.full(np.shape(w), 2.0), where=in_band)
    # |arg| < 1 is where acos lands strictly inside (0, pi)
    in_band &= np.abs(arg) < 1
    return in_band, np.arccos(arg[in_band])


def group_velocity(k: float, params: WaveguideParams) -> float:
    """Magnitude |t1 t2 sin k| / omega_k of the band slope.

    The analytic derivative of the upper band is -t1 t2 sin(k)/omega_k,
    negative on (0, pi); callers that need a direction combine this
    magnitude with their own propagation convention.  Returns 0 at the
    band edges k = 0, pi.
    """
    if k == 0.0 or abs(k) == math.pi:
        return 0.0
    bp = bloch_point(k, params)
    if bp.omega_k < 1e-12:
        raise DegenerateEigenvectorError("group velocity undefined at a gap-closing point")
    return abs(params.t1 * params.t2 * math.sin(k)) / bp.omega_k


def bloch_eigenvectors(k: float, params: WaveguideParams) -> BlochEigenvectors:
    """Eigenvectors (A, B amplitudes) of the 2x2 Bloch Hamiltonian at k.

    The upper/lower vectors satisfy H_k v = +/- omega_k v; both are unit
    norm and mutually orthogonal.
    """
    bp = bloch_point(k, params)
    if bp.omega_k < 1e-12:
        raise DegenerateEigenvectorError(
            f"bands are degenerate at k = {k} (gapless chain); eigenvectors undefined"
        )
    phase = cmath.exp(-1j * bp.phi_k)
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
