"""Effective potentials, transfer matrices, and closed-form t and r.

Both probing bands are handled through one convention: for a photon of
signed energy E (positive on the upper band, negative on the lower band)
at momentum k, the band phase phi_E is defined by ``E exp(i phi_E) = h(k)``.
On the upper band phi_E is the ordinary coupling phase; on the lower band
it is shifted by pi.  Written this way every formula below covers both
bands without case splits, which the finite-lattice oracle confirms.

Two independent routes to the scattering amplitudes coexist on purpose:
the closed forms (:func:`transmittance`, :func:`reflectance` and their
array form :func:`amplitude_grid`) and the transfer-matrix ->
scattering-matrix pipeline, kept as the check route.  The closed forms
carry the potential's denominator multiplied through, so they stay
regular at its poles; the pipeline raises there.  They agree to ~1e-14
wherever both are defined; tests enforce 1e-10.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bands import h_over_j, momentum_from_energy, momentum_grid, require_dispersive
from .errors import DegenerateDenominatorError, PotentialSingularityError
from .params import Band, CouplingConfig, EmitterParams, WaveguideParams

# Threshold in units of J^2 (both amplitude routes divide by J first) below
# which the potential denominator counts as a pole hit; see _potential_terms.
_POLE_EPS = 1e-14

# At a pole hit, couplings below this (in units of J) are solved at g = J
# (see _cell_amplitudes): g^2 and the products built on it would underflow
# there and lose their digits.
_G_TINY = 1e-100


@dataclass(frozen=True)
class EffectivePotential:
    """Scattering potential the driven emitter presents to the photon.

    ``value`` is the full single-site potential; ``response`` is the shared
    detuning factor such that the split-site potentials are
    ``on_a = 4 g1^2 response``, ``cross = 4 g1 g2 response`` and
    ``on_b = 4 g2^2 response`` (so ``on_a * on_b == cross**2`` exactly).
    """

    value: float
    response: float
    on_a: float
    cross: float
    on_b: float


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 map from (right-mover, left-mover) amplitudes on the left of the
    emitter to the same pair on its right."""

    t11: complex
    t12: complex
    t21: complex
    t22: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.t11, self.t12], [self.t21, self.t22]])

    @property
    def det(self) -> complex:
        return self.t11 * self.t22 - self.t12 * self.t21


@dataclass(frozen=True)
class ScatteringMatrix:
    """Transmission/reflection amplitudes for left and right incidence."""

    t_left: complex
    t_right: complex
    r_left: complex
    r_right: complex


def detuning_response(delta_k: float, delta_c: float, omega_rabi: float) -> float:
    """Common detuning factor ``(dk + dc) / [4 dk (dk + dc) - Omega^2]`` of the
    site potentials, num/den of :func:`_potential_terms`, which states every
    case: ``1/(4 dk)`` with the control field off, exactly 0 at two-photon
    resonance however small Omega is.  Raises :class:`PotentialSingularityError`
    at a pole hit, carrying the nearest pole detuning.
    """
    num, den = _potential_terms(delta_k, delta_c, omega_rabi, 1.0)
    if den == 0.0 and num != 0.0:
        # of the roots (-dc +- sqrt(dc^2 + Omega^2))/2, the one on delta_k's side
        root = math.sqrt(delta_c * delta_c + omega_rabi * omega_rabi)
        pole = (-delta_c + math.copysign(root, 2.0 * delta_k + delta_c)) / 2.0
        raise PotentialSingularityError(
            f"potential pole at delta_k = {pole} (got {delta_k})", pole=pole)
    # den is 0 with num only where Omega^2 underflows at dk = -dc: V = 0
    return num / (den or 1.0)


def effective_potential(
    delta_k: float,
    delta_c: float,
    omega_rabi: float,
    g: float,
    alpha: float = 1.0,
) -> EffectivePotential:
    """Effective potential(s) at photon detuning ``delta_k``.

    The total value is ``4 g^2 (dk + dc) / [4 dk (dk + dc) - Omega^2]``;
    ``alpha`` splits it over the two sublattice sites of the coupling cell.
    """
    resp = detuning_response(delta_k, delta_c, omega_rabi)
    g1, g2 = g * alpha, g * (1.0 - alpha)
    return EffectivePotential(
        value=4.0 * g * g * resp,
        response=resp,
        on_a=4.0 * g1 * g1 * resp,
        cross=4.0 * g1 * g2 * resp,
        on_b=4.0 * g2 * g2 * resp,
    )


def ab_transfer_factors(
    k: float,
    phi_e: float,
    pot: EffectivePotential,
    x1: int,
    params: WaveguideParams,
) -> tuple[TransferMatrix, TransferMatrix]:
    """Per-site factors (A-site step, B-site step) of the two-site coupling.

    The total transfer matrix is the product B-step @ A-step.  Each factor
    alone is basis-convention dependent and has non-unit determinant; the
    determinants t1/(t1 - cross) and (t1 - cross)/t1 cancel exactly in the
    product, restoring flux conservation.  All in units of J, ``pot`` too.
    """
    t1, t2 = 1.0 + params.delta, 1.0 - params.delta
    v1, v2, v3 = pot.on_a, pot.cross, pot.on_b
    if abs(t1 - v2) < 1e-12 * (abs(t1) + abs(v2)):
        raise DegenerateDenominatorError(
            f"t1 - cross potential = {t1 - v2:.3e} vanishes; A-step factor degenerate"
        )
    ep = cmath.exp(1j * phi_e)
    theta = cmath.exp(2j * (k * x1 + phi_e))
    xa = 2j * (t1 - v2) * math.sin(phi_e)
    pa, qa = v1 + v2 / ep, v1 + v2 * ep
    step_a = TransferMatrix(
        1.0 - pa / xa, -(qa / theta) / xa, (pa * theta) / xa, 1.0 + qa / xa
    )
    yb = 2j * t2 * math.sin(k + phi_e)
    pb, qb = v3 + v2 * ep, v3 + v2 / ep
    phx = cmath.exp(2j * k * x1)
    step_b = TransferMatrix(
        1.0 + pb / yb, (qb / phx) / yb, -(pb * phx) / yb, 1.0 - qb / yb
    )
    return step_a, step_b


def transfer_matrix(
    config: CouplingConfig,
    k: float,
    params: WaveguideParams,
    emitter: EmitterParams,
    band: Band = Band.UPPER,
) -> TransferMatrix:
    """Transfer matrix across the emitter at momentum k on the given band.

    Every variant is the product B-step @ A-step of
    :func:`ab_transfer_factors`.  Single-site couplings A and B are its
    alpha = 1 and alpha = 0 cases: at alpha = 1 the B step is exactly the
    identity, at alpha = 0 the A step is, and the remaining step equals the
    single-site matrix because t2 sin(k + phi_E) = -t1 sin phi_E.  Energies
    are divided by J once.  Raises :class:`BandEdgeError` on the flat-band
    chain (delta = +-1) and where |cos k| = 1, raises
    :class:`PotentialSingularityError` at potential poles and
    :class:`DegenerateDenominatorError` when t1 equals the cross potential.
    """
    h = h_over_j(k, params)
    require_dispersive(params, k)
    j, energy = params.J, band.sign * abs(h)
    phi_e = cmath.phase(h / energy)
    dk = energy - emitter.omega_e / j
    try:
        pot = effective_potential(dk, emitter.delta_c / j, emitter.omega_rabi / j,
                                  emitter.g / j, config.alpha)
    except PotentialSingularityError as exc:  # its pole, back from units of J
        pole = exc.pole * j
        raise PotentialSingularityError(
            f"potential pole at delta_k = {pole} (got {dk * j})", pole=pole) from None
    a, b = ab_transfer_factors(k, phi_e, pot, emitter.x1, params)
    return TransferMatrix(
        b.t11 * a.t11 + b.t12 * a.t21, b.t11 * a.t12 + b.t12 * a.t22,
        b.t21 * a.t11 + b.t22 * a.t21, b.t21 * a.t12 + b.t22 * a.t22,
    )


def scattering_matrix(u: TransferMatrix) -> ScatteringMatrix:
    """Rearrange a transfer matrix into transmission/reflection amplitudes.

    The degenerate case |t22| -> 0 (perfect reflection) cannot occur for a
    Hermitian emitter at finite potential, but is mapped defensively to
    zero transmission with unit-modulus reflection.
    """
    if abs(u.t22) < 1e-14:
        r_left = -u.t21 / abs(u.t21) if u.t21 != 0 else 1.0 + 0j
        r_right = u.t12 / abs(u.t12) if u.t12 != 0 else 1.0 + 0j
        return ScatteringMatrix(0j, 0j, r_left, r_right)
    return ScatteringMatrix(
        t_left=u.t11 - u.t12 * u.t21 / u.t22,
        t_right=1.0 / u.t22,
        r_left=-u.t21 / u.t22,
        r_right=u.t12 / u.t22,
    )


def interference_factor(phi_e: float, alpha: float) -> complex:
    """Two-path interference weight 2 a(1-a)(exp(-i phi_E) - 1) + 1."""
    return 2.0 * alpha * (1.0 - alpha) * (cmath.exp(-1j * phi_e) - 1.0) + 1.0


def _potential_terms(delta_k, delta_c, omega_rabi, g):
    """(num, den) with V = 4 g^2 num / den, all in units of J; floats or
    arrays of ``delta_k``.  ``den`` snaps to 0 at an exact pole hit,
    ``|den| < _POLE_EPS``, unless ``num`` vanishes too (V = 0 there).
    """
    if g == 0.0:
        # a decoupled emitter has no potential, and so no pole either
        return 0.0, 1.0
    if omega_rabi == 0.0:
        # the metastable level decouples: V = g^2 / delta_k
        num, den = 0.25, delta_k
    else:
        num = delta_k + delta_c
        den = 4.0 * delta_k * num - omega_rabi * omega_rabi
    return num, den * ((abs(den) >= _POLE_EPS) | (num == 0.0))


def _cell_amplitudes(config, energy, h, phase, params, emitter):
    """Closed-form (t, r) at signed energy ``energy``; floats or arrays.

    ``h`` is h(k)/J = -(1 + delta) - (1 - delta) exp(-ik) at the photon's
    momentum and ``phase`` is exp(2i k x1).  Every other energy is divided
    by J once (t1/J = 1 + delta): in units of J no product of energies
    leaves the range of doubles, and at J = 2^n t and r equal the J = 1
    answer exactly.  With V = 4 g^2 num/den the coupling cell's two
    equations of motion plus the emitter's ``den c = 4 num (g1 u_A + g2 u_B)``
    (its amplitude c kept as a third unknown) solve to

        D = (h - h*) t1 den + 4 num [E (g1^2 + g2^2) + 2 g1 g2 h*]
        t = (h - h*) (t1 den - 4 num g1 g2) / D
        r = -4 num (g1 h + g2 E)^2 exp(2i k x1) / (E D)

    where h - h* = 2i t2 sin k.  Nothing here divides by den, so one
    expression covers finite potentials, their poles (den = 0) and every
    coupling geometry.
    """
    j = params.J
    g, delta_c, omega_rabi = emitter.g / j, emitter.delta_c / j, emitter.omega_rabi / j
    num, den = _potential_terms((energy - emitter.omega_e) / j, delta_c, omega_rabi, g)
    energy = energy / j
    g1, g2 = config.couplings(g)
    if 0.0 < g < _G_TINY:
        # t and r depend on g only through den / g^2, which is 0 at a pole
        # hit whatever g is: solve those points at g = J
        g1, g2 = config.couplings(np.where(den == 0.0, 1.0, g))
    h_conj = h.conjugate()
    s = h - h_conj
    c = 4.0 * num
    x = (1.0 + params.delta) * den
    d = s * x + c * (energy * (g1 * g1 + g2 * g2) + 2.0 * g1 * g2 * h_conj)
    b = g1 * h + g2 * energy
    # d is 0 only where both the potential's denominator and its numerator
    # 4 g^2 num read 0, as when Omega^2 or g^2 underflows: V = 0 there
    free = d == 0.0
    # adding 0j turns an exact zero of t (a pole hit) into +0, not -0
    t = (s * (x - c * g1 * g2) + free) / (d + free) + 0j
    return t, -c * b * b * phase / (energy * (d + free))


def _point_amplitudes(config, omega, params, emitter, band):
    k = momentum_from_energy(omega, params, band)
    h = h_over_j(k, params)
    phase = cmath.exp(2j * k * emitter.x1)
    return _cell_amplitudes(config, omega, h, phase, params, emitter)


def transmittance(
    config: CouplingConfig,
    omega: float,
    params: WaveguideParams,
    emitter: EmitterParams,
    band: Band = Band.UPPER,
) -> complex:
    """Closed-form transmission amplitude at signed photon energy ``omega``.

    Single-site couplings: ``t = 2 t1 t2 sin k / (2 t1 t2 sin k - i V E)``.
    Two-site coupling:
    ``t = 2i t2 sin k (t1 - V a(1-a)) / (2i t1 t2 sin k + V E F)`` with the
    interference factor F above.  Both are evaluated with the potential's
    denominator multiplied through, so a potential pole needs no special
    case (t = 0 there for single-site coupling).  Out-of-band energies and
    band edges raise.
    """
    return _point_amplitudes(config, omega, params, emitter, band)[0]


def reflectance(
    config: CouplingConfig,
    omega: float,
    params: WaveguideParams,
    emitter: EmitterParams,
    band: Band = Band.UPPER,
) -> complex:
    """Reflection amplitude for left incidence at signed energy ``omega``.

    ``r = -V E (a exp(i phi_E) + 1 - a)^2 exp(2i k x1) / (2i t1 t2 sin k + V E F)``,
    the same coupling-cell solution as :func:`transmittance` (the
    single-site couplings are a = 1 and a = 0).  It is evaluated with the
    potential's denominator multiplied through, so it stays regular at and
    next to the potential poles and at the shifted transmission zero, and
    |t|^2 + |r|^2 = 1 holds at every in-band point.
    """
    return _point_amplitudes(config, omega, params, emitter, band)[1]


def amplitude_grid(
    config: CouplingConfig,
    omega,
    params: WaveguideParams,
    emitter: EmitterParams,
    band: Band = Band.UPPER,
):
    """Closed-form (t, r) over an array of signed energies.

    Returns ``(in_band, t, r)``: the mask of the energies at which
    :func:`transmittance` would not raise, and the two amplitudes at those
    energies only.  Each point's kinematics are computed once.
    """
    omega = np.asarray(omega, dtype=float)
    in_band, k = momentum_grid(omega, params, band)
    h = -(1.0 + params.delta) - (1.0 - params.delta) * np.exp(-1j * k)
    phase = np.exp(2j * k * emitter.x1)
    t, r = _cell_amplitudes(config, omega[in_band], h, phase, params, emitter)
    return in_band, t, r
