"""Property tests: documented invariants over hypothesis draws.

The draws reach potential poles, two-photon resonance and band edges; an
input the package rejects must be rejected the same way on both sides of
an identity.  Energies are on the scale of J: each drive and detuning is
either exactly 0 or at least 1e-6 J.  Far below that, products such as
4 g^2 (dk + dc) leave the range of doubles, and the 1e-14 pole-hit
threshold is in units of J, not relative to the drive.  Couplings also
reach down to 1e-300 J, where g^2 underflows.  The kinematics, the closed
forms, the check route, the poles, the group velocity and the Bloch
eigenvectors are computed in units of J, so rescaling J by any power of
two that keeps every input and output a normal double must give the J = 1
answer exactly.  hypothesis is a test-only dependency
(``pip install .[test]``); without it this module is skipped.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sshscatter import (  # noqa: E402
    Band,
    CouplingConfig,
    EmitterParams,
    Variant,
    WaveguideParams,
    amplitude_grid,
    band_edges,
    bloch_eigenvectors,
    bloch_point,
    boundary_matched_solve,
    classify_regime,
    group_velocity,
    lamb_shift,
    momentum_from_energy,
    poles,
    reflectance,
    scattering_matrix,
    transfer_matrix,
    transmittance,
)
from sshscatter.errors import ModelError  # noqa: E402


def _magnitude(high):
    return st.one_of(st.just(0.0), st.floats(1e-6, high))


@st.composite
def cases(draw, variants=tuple(Variant), bands=tuple(Band), edge_margin=0.0, x1_max=12):
    """(config, omega, waveguide, emitter, band): an in-band energy on a
    chain with J = 1, and an emitter detuned by at most 0.3 from it."""
    variant = draw(st.sampled_from(variants))
    band = draw(st.sampled_from(bands))
    wg = WaveguideParams(delta=draw(st.floats(-0.9, 0.9)))
    gap, outer = band_edges(wg)
    u = draw(st.floats(max(edge_margin, 1e-9), 1.0 - max(edge_margin, 1e-9)))
    omega = band.sign * (gap + u * (outer - gap))
    detuning = draw(_magnitude(0.3)) * draw(st.sampled_from((1.0, -1.0)))
    emitter = EmitterParams(
        omega_e=omega - band.sign * detuning,
        delta_c=draw(st.floats(-0.2, 0.2, allow_subnormal=False)),
        omega_rabi=draw(_magnitude(0.5)),
        g=draw(st.one_of(_magnitude(0.4), st.floats(1e-300, 1e-6))),
        x1=draw(st.integers(4, x1_max)),
    )
    alpha = {Variant.A: 1.0, Variant.B: 0.0}.get(variant)
    if alpha is None:
        alpha = draw(st.floats(0.0, 1.0))
    return CouplingConfig(variant, alpha), omega, wg, emitter, band


def _outcome(compute):
    """``compute()``, or the type of the package error it raised."""
    try:
        return compute()
    except ModelError as exc:
        return type(exc)


def _assert_same(a, b, tol):
    if isinstance(a, type) or isinstance(b, type):
        assert a is b
    else:
        assert a == b or abs(a - b) <= tol


def _check_route(config, k, wg, emitter, band):
    s = scattering_matrix(transfer_matrix(config, k, wg, emitter, band))
    return s.t_left, s.r_left


def _eigenvectors(k, wg):
    v = bloch_eigenvectors(k, wg)
    return np.stack((v.upper, v.lower))


def _scale_answers(config, omega, wg, emitter, band):
    """Every J-covariant answer at one point: (t, r, k, amplitude_grid over
    +-omega, poles at delta_c = 0, regime, Lamb shift, the check route's
    (t, r), group velocity, Bloch eigenvectors), each an outcome as
    :func:`_outcome` gives it."""
    k = _outcome(lambda: momentum_from_energy(omega, wg, band))
    if isinstance(k, type):
        pair = regime = route = speed = vectors = k
    else:
        pair = _outcome(lambda: poles(config, wg, replace(emitter, delta_c=0.0), k))
        regime = _outcome(lambda: classify_regime(config, wg, emitter, k))
        route = _outcome(lambda: _check_route(config, k, wg, emitter, band))
        speed = _outcome(lambda: group_velocity(k, wg))
        vectors = _outcome(lambda: _eigenvectors(k, wg))
    return (
        _outcome(lambda: transmittance(config, omega, wg, emitter, band)),
        _outcome(lambda: reflectance(config, omega, wg, emitter, band)),
        k,
        amplitude_grid(config, [omega, -omega], wg, emitter, band),
        pair,
        regime,
        lamb_shift(emitter.g, config.alpha, wg),
        route,
        speed,
        vectors,
    )


def _normal_exponents(values):
    """The exponents n for which 2^n v is a normal double for every value v
    that is a normal double itself (zeros and subnormals scale as they
    are, the same way in the package and here)."""
    lo, hi = -1021, 1023
    for v in values:
        if abs(v) >= sys.float_info.min:
            e = math.frexp(abs(v))[1]  # 2^(e-1) <= |v| < 2^e
            lo, hi = max(lo, -1021 - e), min(hi, 1024 - e)
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(case=cases(), data=st.data())
def test_transmission_covariant_under_rescaling_j(case, data):
    """Multiplying every energy, J included, by a power of two leaves t, r,
    k, the grid mask, the regime, the check route's t and r and the Bloch
    eigenvectors unchanged and scales the poles, the Lamb shift and the
    group velocity, all exactly.

    A power of two makes the rescaling itself exact in floating point, and
    the package divides by J before any product forms, so the exponent may
    range over all of double precision: it is drawn so that every scaled
    energy stays a normal double, inputs, h(k) and outputs alike.
    """
    config, omega, wg, emitter, band = case
    answers = _scale_answers(config, omega, wg, emitter, band)
    t, r, k, grid, pair, regime, shift, route, speed, vectors = answers
    energies = [omega, emitter.omega_e, omega - emitter.omega_e, emitter.delta_c,
                emitter.omega_rabi, emitter.g, shift]
    if not isinstance(speed, type):
        energies.append(speed)
    if not isinstance(k, type):
        h = bloch_point(k, wg).h
        energies += [h.real, h.imag]
    if not isinstance(pair, type):
        energies += [pair.pole_plus.real, pair.pole_plus.imag,
                     pair.pole_minus.real, pair.pole_minus.imag]
    lo, hi = _normal_exponents(energies)
    j = 2.0 ** data.draw(st.integers(lo, hi), label="exponent")
    scaled = replace(
        emitter,
        omega_e=emitter.omega_e * j,
        delta_c=emitter.delta_c * j,
        omega_rabi=emitter.omega_rabi * j,
        g=emitter.g * j,
    )
    big = WaveguideParams(wg.delta, J=j)
    t_j, r_j, k_j, grid_j, pair_j, regime_j, shift_j, route_j, speed_j, vectors_j = (
        _scale_answers(config, omega * j, big, scaled, band)
    )
    _assert_same(t_j, t, 0.0)
    _assert_same(r_j, r, 0.0)
    _assert_same(k_j, k, 0.0)
    for a, b in zip(grid_j, grid):
        np.testing.assert_array_equal(a, b)
    if isinstance(pair, type):
        assert pair_j is pair
    else:
        assert pair_j.pole_plus == pair.pole_plus * j
        assert pair_j.pole_minus == pair.pole_minus * j
    assert regime_j == regime
    assert shift_j == shift * j
    if isinstance(route, type):
        assert route_j is route
    else:
        assert route_j == route
    if isinstance(speed, type):
        assert speed_j is speed
    else:
        assert speed_j == speed * j
    if isinstance(vectors, type):
        assert vectors_j is vectors
    else:
        np.testing.assert_array_equal(vectors_j, vectors)


@settings(max_examples=300, deadline=None)
@given(case=cases(), x1=st.integers(1, 40))
def test_closed_form_magnitudes_independent_of_x1(case, x1):
    config, omega, wg, emitter, band = case
    moved = replace(emitter, x1=x1)
    for fn in (transmittance, reflectance):
        a, b = (_outcome(lambda: abs(fn(config, omega, wg, e, band))) for e in (emitter, moved))
        _assert_same(a, b, 1e-14)


@settings(max_examples=60, deadline=None)
@given(case=cases(edge_margin=0.02, x1_max=29), x1=st.integers(4, 29))
def test_lattice_magnitude_independent_of_x1(case, x1):
    config, omega, wg, emitter, band = case
    a, b = (
        _outcome(lambda: abs(boundary_matched_solve(omega, 32, wg, e, config, band).t_num))
        for e in (emitter, replace(emitter, x1=x1))
    )
    _assert_same(a, b, 1e-10)


@settings(max_examples=300, deadline=None)
@given(case=cases(variants=(Variant.A, Variant.B), bands=(Band.UPPER,)))
def test_band_mirror_for_single_site_coupling(case):
    """t_lower(-omega; -omega_e, -delta_c) = t_upper(omega; omega_e, delta_c).

    The chiral map psi_B -> -psi_B takes the upper band to the lower one.
    A single coupled site only sees its own sign flip, which drops out of
    |g|^2.  Two-site (AB) coupling does not obey this mirror: the map flips
    the sign of the cross coupling g1 g2, so AB is not drawn here.
    """
    config, omega, wg, emitter, _ = case
    mirrored = replace(emitter, omega_e=-emitter.omega_e, delta_c=-emitter.delta_c)
    upper = _outcome(lambda: transmittance(config, omega, wg, emitter, Band.UPPER))
    lower = _outcome(lambda: transmittance(config, -omega, wg, mirrored, Band.LOWER))
    _assert_same(lower, upper, 0.0)
