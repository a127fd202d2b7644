"""Effective potentials, transfer matrices, and closed-form t and r.

A photon has a signed energy E (negative on the lower band) and the band
phase phi_E of :mod:`sshscatter.bands`, ``E exp(i phi_E) = h(k)``, so every
formula below covers both bands without case splits.

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

from .bands import _phase_of, h_over_j, momentum_from_energy, momentum_grid, require_dispersive
from .errors import DegenerateDenominatorError, PotentialSingularityError
from .params import (
    Band,
    CouplingConfig,
    EmitterParams,
    WaveguideParams,
    cell_index,
    in_units_of_j,
)

# Threshold in units of J^2 below which detuning_response, the one place
# that divides by the potential's denominator (for the check route), counts
# it as a pole hit; the closed forms multiply it through and need none.
_POLE_EPS = 1e-14


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
    resonance however small Omega is.  It divides by den, so it alone tests
    for a pole: |den| < ``_POLE_EPS`` (1e-14, in units of J^2) with num
    nonzero raises :class:`PotentialSingularityError`, carrying the nearest
    pole detuning.
    """
    num, den = _potential_terms(delta_k, delta_k + delta_c, omega_rabi, 1.0)
    if abs(den) < _POLE_EPS and num != 0.0:
        # the pole equation without coupling (s = 0): the root nearest delta_k
        pole = min(_pole_roots(0.0, delta_c, omega_rabi / 2.0), key=lambda r: abs(delta_k - r)).real
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
    return EffectivePotential(4.0 * g * g * resp, resp, *_site_potentials(resp, g, alpha))


def _site_potentials(resp: float, g: float, alpha: float) -> tuple[float, float, float]:
    """(on_a, cross, on_b) = 4 (g1^2, g1 g2, g2^2) resp of :class:`EffectivePotential`."""
    g1, g2 = g * alpha, g * (1.0 - alpha)
    return 4.0 * g1 * g1 * resp, 4.0 * g1 * g2 * resp, 4.0 * g2 * g2 * resp


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
    product, restoring flux conservation.  All in units of J, ``pot`` too;
    ``x1`` is taken as :func:`~sshscatter.params.cell_index` takes it.
    """
    step_a, step_b = _step_entries(
        k, phi_e, pot.on_a, pot.cross, pot.on_b, cell_index(x1), params.delta)
    return TransferMatrix(*step_a), TransferMatrix(*step_b)


def _step_entries(k, phi_e, v1, v2, v3, x1, delta):
    """Entries (t11, t12, t21, t22) of the A step and of the B step of
    :func:`ab_transfer_factors`, plain complex numbers, from the site
    potentials (v1, v2, v3) = (on_a, cross, on_b) in units of J."""
    t1, t2 = 1.0 + delta, 1.0 - delta
    if abs(t1 - v2) < 1e-12 * (abs(t1) + abs(v2)):
        raise DegenerateDenominatorError(
            f"t1 - cross potential = {t1 - v2:.3e} vanishes; A-step factor degenerate"
        )
    ep = cmath.exp(1j * phi_e)
    theta = cmath.exp(2j * (k * x1 + phi_e))
    xa = 2j * (t1 - v2) * math.sin(phi_e)
    pa, qa = v1 + v2 / ep, v1 + v2 * ep
    yb = 2j * t2 * math.sin(k + phi_e)
    pb, qb = v3 + v2 * ep, v3 + v2 / ep
    phx = cmath.exp(2j * k * x1)
    return (
        (1.0 - pa / xa, -(qa / theta) / xa, (pa * theta) / xa, 1.0 + qa / xa),
        (1.0 + pb / yb, (qb / phx) / yb, -(pb * phx) / yb, 1.0 - qb / yb),
    )


def transfer_matrix(
    config: CouplingConfig,
    k: float,
    params: WaveguideParams,
    emitter: EmitterParams,
    band: Band = Band.UPPER,
) -> TransferMatrix:
    """Transfer matrix across the emitter at momentum k on the given band.

    Every variant is the product B-step @ A-step of
    :func:`ab_transfer_factors`, formed in one pass: h(k), phi_E, the site
    potentials and the eight step entries are plain numbers, and only the
    product is built as a :class:`TransferMatrix`.  Single-site couplings
    A and B are its alpha = 1 and alpha = 0 cases: at alpha = 1 the B step
    is exactly the identity, at alpha = 0 the A step is, and the remaining
    step equals the single-site matrix because t2 sin(k + phi_E) =
    -t1 sin phi_E.  Energies
    are taken in units of J from :func:`~sshscatter.params.in_units_of_j`.
    Unlike the closed forms, which read the detuning from the metastable
    level as omega/J less its rounded level omega_e/J - delta_c/J, this
    route still forms it as dk + delta_c, so where those cancel to rounding
    the two can differ.  Raises
    :class:`BandEdgeError` on the flat-band chain (delta = +-1) and where
    |cos k| = 1, raises :class:`PotentialSingularityError` at potential
    poles and :class:`DegenerateDenominatorError` when t1 equals the cross
    potential.
    """
    omega_e, delta_c, omega_rabi, g = in_units_of_j(params, emitter)
    x1 = cell_index(emitter.x1)
    h = h_over_j(k, params)
    require_dispersive(params, k)
    energy = band.sign * abs(h)
    phi_e = _phase_of(h, energy)
    dk = energy - omega_e
    try:
        resp = detuning_response(dk, delta_c, omega_rabi)
    except PotentialSingularityError as exc:  # its pole, back from units of J
        pole = exc.pole * params.J
        raise PotentialSingularityError(
            f"potential pole at delta_k = {pole} (got {dk * params.J})", pole=pole) from None
    (a11, a12, a21, a22), (b11, b12, b21, b22) = _step_entries(
        k, phi_e, *_site_potentials(resp, g, config.alpha), x1, params.delta)
    return TransferMatrix(
        b11 * a11 + b12 * a21, b11 * a12 + b12 * a22,
        b21 * a11 + b22 * a21, b21 * a12 + b22 * a22,
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


def _potential_terms(delta_k, two_photon, omega_rabi, g):
    """(num, den) with V = 4 g^2 num / den, all in units of J; floats or
    arrays of ``delta_k`` and ``two_photon``, the detuning from the
    metastable level (dk + dc).  Both as rounded, with no threshold: the
    closed forms multiply den through and are regular where it is 0, and
    :func:`detuning_response` makes its own pole test.
    """
    if g == 0.0:
        # a decoupled emitter has no potential, and so no pole either
        return 0.0, 1.0
    if omega_rabi == 0.0:
        # the metastable level decouples: V = g^2 / delta_k
        num, den = 0.25, delta_k
    else:
        num = two_photon
        den = 4.0 * delta_k * num - omega_rabi * omega_rabi
    return num, den


def _coupling_weight(w1, w2, energy, h_conj):
    """B = E (w1^2 + w2^2) + 2 w1 w2 h* = E F, the photon's weight in the denominator
    of :func:`_cell_amplitudes` (F the :func:`interference_factor`); floats or arrays."""
    return energy * (w1 * w1 + w2 * w2) + 2.0 * w1 * w2 * h_conj


def _pole_roots(s, delta_c, half):
    """(plus, minus) = i s - dc/2 +- sqrt((i s + dc/2)^2 + half^2), the roots
    of (dk - 2i s)(dk + dc) = half^2 with s = g^2 B / (4 t1 t2 sin k) and
    half = Omega/2: the larger free of cancellation, the smaller as their
    product -2i s dc - half^2 over it (0 where that product is 0)."""
    centre = 1j * s - delta_c / 2.0
    shifted = s - 0.5j * delta_c  # (i s + dc/2)^2 = -shifted^2
    root = cmath.sqrt(half * half - shifted * shifted)
    plus = (centre * root.conjugate()).real >= 0.0
    larger = centre + root if plus else centre - root
    product = -2j * s * delta_c - half * half
    smaller = product / larger if product else 0j
    return (larger, smaller) if plus else (smaller, larger)


def _cell_amplitudes(config, energy, h, phase, params, emitter):
    """Closed-form (t, r) at signed energy ``energy``; floats or arrays.

    ``h`` is :func:`~sshscatter.bands.h_over_j` at the photon's momentum and
    ``phase`` is exp(2i k x1).  Every other energy is taken in units of J
    from :func:`~sshscatter.params.in_units_of_j` (t1/J = 1 + delta), and
    the detuning from the metastable level is omega/J less its level
    omega_e/J - delta_c/J, rounded once, as the lattice oracle holds it
    (at J = 2^n that level is omega_a/J exactly).  With V = 4 g^2 num/den
    the coupling cell's two equations of motion plus the emitter's
    ``den c = 4 num (g1 u_A + g2 u_B)`` (its amplitude c kept as a third
    unknown) solve to

        D = (h - h*) t1 den + C [E (w1^2 + w2^2) + 2 w1 w2 h*]
        t = (h - h*) (t1 den - C w1 w2) / D
        r = -C (w1 h + w2 E)^2 exp(2i k x1) / (E D)

    where C = 4 num g^2, (w1, w2) = (g1, g2)/g = (alpha, 1 - alpha) and
    h - h* = 2i t2 sin k.  Nothing here divides by den, so one expression
    covers finite potentials, their poles (den = 0) and every coupling
    geometry.  Inside the domain of ``in_units_of_j`` D is never 0 in band:
    where C = 0, den is -(Omega/J)^2 or 1, and where den = 0, D is C E for
    one coupled site and has the imaginary part 2 C w1 w2 Im h* for two.
    """
    omega_e, delta_c, omega_rabi, g = in_units_of_j(params, emitter)
    energy = energy / params.J
    # dk and the detuning from the metastable level, against the levels as
    # the lattice holds them: omega_e/J and omega_e/J - delta_c/J
    num, den = _potential_terms(energy - omega_e, energy - (omega_e - delta_c), omega_rabi, g)
    c = 4.0 * num * (g * g)
    w1, w2 = config.couplings(1.0)
    h_conj = h.conjugate()
    s = h - h_conj
    x = (1.0 + params.delta) * den
    d = s * x + c * _coupling_weight(w1, w2, energy, h_conj)
    b = w1 * h + w2 * energy
    # adding 0j turns an exact zero of t (a pole hit) into +0, not -0
    t = s * (x - c * w1 * w2) / d + 0j
    return t, -c * b * b * phase / (energy * d)


def _point_amplitudes(config, omega, params, emitter, band):
    k = momentum_from_energy(omega, params, band)
    h = h_over_j(k, params)
    phase = cmath.exp(2j * k * cell_index(emitter.x1))
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
    phase = np.exp(2j * k * cell_index(emitter.x1))
    t, r = _cell_amplitudes(config, omega[in_band], h_over_j(k, params), phase, params, emitter)
    return in_band, t, r
