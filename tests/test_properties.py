"""Property tests: documented invariants over hypothesis draws.

The draws reach potential poles, two-photon resonance and band edges; an
input the package rejects must be rejected the same way on both sides of
an identity.  Energies are on the scale of J: each drive and detuning is
either exactly 0 or at least 1e-6 J.  Far below that, products such as
4 g^2 (dk + dc) leave the range of doubles, and the 1e-14 pole-hit
threshold is absolute, not relative to the drive.  Couplings also reach
down to 1e-300 J, where g^2 underflows; below that a rescaling by J would
itself round g.  hypothesis is a test-only dependency
(``pip install .[test]``); without it this module is skipped.
"""

from dataclasses import replace

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
    band_edges,
    boundary_matched_solve,
    reflectance,
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
        assert abs(a - b) <= tol


@settings(max_examples=300, deadline=None)
@given(case=cases(), exponent=st.integers(-3, 3))
def test_transmission_covariant_under_rescaling_j(case, exponent):
    """Dividing every energy, J included, by J leaves t unchanged.

    J is a power of two, so the rescaling itself is exact in floating point
    and the check stays tight next to poles and band edges.
    """
    config, omega, wg, emitter, band = case
    j = 2.0**exponent
    scaled = replace(
        emitter,
        omega_e=emitter.omega_e * j,
        delta_c=emitter.delta_c * j,
        omega_rabi=emitter.omega_rabi * j,
        g=emitter.g * j,
    )
    t = _outcome(lambda: transmittance(config, omega, wg, emitter, band))
    big = WaveguideParams(wg.delta, J=j)
    t_scaled = _outcome(lambda: transmittance(config, omega * j, big, scaled, band))
    _assert_same(t_scaled, t, 1e-12)


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
