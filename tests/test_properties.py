"""Property tests: documented invariants over hypothesis draws.

The draws reach potential poles, two-photon resonance and band edges; an
input the package rejects must be rejected the same way on both sides of
an identity.  Energies are on the scale of J: each drive and detuning is
either exactly 0 or at least 1e-6 J, since the check route's 1e-14
pole-hit threshold is in units of J, not relative to the drive.  Couplings
also reach down to 1e-300 J and detunings may be tiny, below the domain
[2^-100, 2^100] J of ``params.in_units_of_j``: such a draw is refused with
the same ValidationError on both sides, and a draw moved outside the
domain on purpose is refused alike by every route.  The kinematics, the closed
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
from hypothesis import assume, example, given, settings  # noqa: E402
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
    build_hamiltonian,
    classify_regime,
    group_velocity,
    lamb_shift,
    momentum_from_energy,
    poles,
    reflectance,
    scattering_matrix,
    transfer_matrix,
    transmittance,
    validate,
)
from sshscatter.errors import ModelError, ValidationError  # noqa: E402


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
        _outcome(lambda: amplitude_grid(config, [omega, -omega], wg, emitter, band)),
        pair,
        regime,
        _outcome(lambda: lamb_shift(emitter.g, config.alpha, wg)),
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
@given(case=cases(), exponent=st.integers(-2100, 2100))
# the smaller pole's real part is subnormal (-1.04e-309): rounded in units
# of J, it doubles exactly at J = 2
@example(
    case=(CouplingConfig(Variant.AB, 1.1125369292536007e-308), 0.5, WaveguideParams(0.0),
          EmitterParams(omega_e=0.5, omega_rabi=0.03125, g=0.25, x1=4), Band.UPPER),
    exponent=1,
)
def test_transmission_covariant_under_rescaling_j(case, exponent):
    """Multiplying every energy, J included, by a power of two leaves t, r,
    k, the grid mask, the regime, the check route's t and r and the Bloch
    eigenvectors unchanged and scales the poles, the Lamb shift and the
    group velocity, all exactly.

    A power of two makes the rescaling itself exact in floating point, and
    the package divides by J before any product forms, so the exponent may
    range over all of double precision: the drawn exponent is clamped to the
    exponents at which every scaled energy stays a normal double, inputs,
    h(k) and outputs alike.
    """
    config, omega, wg, emitter, band = case
    answers = _scale_answers(config, omega, wg, emitter, band)
    t, r, k, grid, pair, regime, shift, route, speed, vectors = answers
    energies = [omega, emitter.omega_e, omega - emitter.omega_e, emitter.delta_c,
                emitter.omega_rabi, emitter.g]
    if not isinstance(shift, type):
        energies.append(shift)
    if not isinstance(speed, type):
        energies.append(speed)
    if not isinstance(k, type):
        h = bloch_point(k, wg).h
        energies += [h.real, h.imag]
    if not isinstance(pair, type):
        energies += [pair.pole_plus.real, pair.pole_plus.imag,
                     pair.pole_minus.real, pair.pole_minus.imag]
    lo, hi = _normal_exponents(energies)
    j = 2.0 ** min(max(exponent, lo), hi)
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
    if isinstance(grid, type):
        assert grid_j is grid
    else:
        for a, b in zip(grid_j, grid):
            np.testing.assert_array_equal(a, b)
    if isinstance(pair, type):
        assert pair_j is pair
    else:
        assert pair_j.pole_plus == pair.pole_plus * j
        assert pair_j.pole_minus == pair.pole_minus * j
    assert regime_j == regime
    if isinstance(shift, type):
        assert shift_j is shift
    else:
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


_DOMAIN_FIELDS = ("omega_e", "delta_c", "omega_rabi", "g")


@st.composite
def outside_the_domain(draw):
    """(case, field): a case with one of omega_e, delta_c, omega_rabi or g
    moved outside [2^-100, 2^100] J, below or above, on a chain with J a
    power of two."""
    config, omega, wg, emitter, band = draw(cases())
    j = 2.0 ** draw(st.integers(-900, 900))
    field = draw(st.sampled_from(_DOMAIN_FIELDS))
    ratio = draw(st.one_of(st.floats(5e-324, 2.0**-101), st.floats(2.0**101, 2.0**120)))
    if field in ("omega_e", "delta_c"):
        ratio *= draw(st.sampled_from((1.0, -1.0)))
    # every other field inside the domain (0 where the draw put it outside)
    inside = {name: getattr(emitter, name) * j for name in _DOMAIN_FIELDS}
    inside = {name: v if v == 0 or 2.0**-100 <= abs(v / j) <= 2.0**100 else 0.0
              for name, v in inside.items()}
    assume(ratio * j != 0.0)  # a ratio below the subnormals at this J reads 0
    emitter = replace(emitter, **{**inside, field: ratio * j})
    return (config, omega * j, WaveguideParams(wg.delta, J=j), emitter, band), field


@settings(max_examples=300, deadline=None)
@given(drawn=outside_the_domain())
def test_out_of_domain_draw_is_refused_alike_by_every_route(drawn):
    """A field outside the domain gets one ValidationError, naming it, from
    validate and from every route that reads the emitter: both closed
    forms, the grid, the check route, the poles, the regime, the Lamb shift,
    the lattice solve (scalar and array) and the lattice Hamiltonian of the
    transport."""
    (config, omega, wg, emitter, band), field = drawn
    with pytest.raises(ValidationError, match=rf"^{field} out of range") as err:
        validate(wg, emitter, config)
    message = str(err.value)
    k = _outcome(lambda: momentum_from_energy(omega, wg, band))
    assume(not isinstance(k, type))  # a band edge to rounding: the kinematics refuse first
    routes = [
        lambda: transmittance(config, omega, wg, emitter, band),
        lambda: reflectance(config, omega, wg, emitter, band),
        lambda: amplitude_grid(config, [omega, -omega], wg, emitter, band),
        lambda: transfer_matrix(config, k, wg, emitter, band),
        lambda: classify_regime(config, wg, emitter, k),
        lambda: boundary_matched_solve(omega, 32, wg, emitter, config, band),
        lambda: boundary_matched_solve(np.array([omega]), 32, wg, emitter, config, band),
        lambda: build_hamiltonian(32, wg, emitter, config),
    ]
    if field != "delta_c":
        routes.append(lambda: poles(config, wg, replace(emitter, delta_c=0.0), k))
    if field == "g":
        routes.append(lambda: lamb_shift(emitter.g, config.alpha, wg))
    for route in routes:
        with pytest.raises(ValidationError) as err:
            route()
        assert str(err.value) == message
