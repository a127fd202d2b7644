import math
import warnings

import numpy as np
import pytest

from sshscatter import (
    Band,
    WaveguideParams,
    band_edges,
    band_phase,
    bloch_eigenvectors,
    bloch_point,
    d_vector,
    group_velocity,
    momentum_from_energy,
    momentum_grid,
    winding_number,
    zak_phase,
)
from sshscatter.bands import dispersion_grid, h_over_j
from sshscatter.errors import (
    BandEdgeError,
    DegenerateEigenvectorError,
    OutOfBandError,
    UndefinedWindingError,
    ValidationError,
)


def bloch_matrix(k, wg):
    """Independent 2x2 Bloch Hamiltonian for eigen-checks."""
    h = -wg.t1 - wg.t2 * np.exp(-1j * k)
    return np.array([[0.0, h], [np.conj(h), 0.0]])


class TestDispersion:
    def test_zone_center_and_edge(self, trivial_chain):
        assert bloch_point(0.0, trivial_chain).omega_k == pytest.approx(2.0, abs=1e-12)
        assert bloch_point(math.pi, trivial_chain).omega_k == pytest.approx(1.0, abs=1e-12)

    def test_midzone_value(self, trivial_chain):
        # direct evaluation: sqrt(t1^2 + t2^2) at k = pi/2
        assert bloch_point(math.pi / 2, trivial_chain).omega_k == pytest.approx(
            math.sqrt(2.5), abs=1e-12
        )

    def test_h_matches_omega(self, trivial_chain):
        for k in np.linspace(-3.1, 3.1, 17):
            bp = bloch_point(float(k), trivial_chain)
            assert abs(bp.h) == pytest.approx(bp.omega_k, abs=1e-14)
            assert bp.h == pytest.approx(
                -trivial_chain.t1 - trivial_chain.t2 * np.exp(-1j * k), abs=1e-14
            )

    def test_sign_of_delta_irrelevant(self):
        k = np.linspace(-math.pi, math.pi, 101)
        plus = dispersion_grid(k, WaveguideParams(delta=0.5))
        minus = dispersion_grid(k, WaveguideParams(delta=-0.5))
        np.testing.assert_allclose(plus, minus, atol=1e-12)

    def test_monotone_decrease_on_half_zone(self, trivial_chain):
        k = np.linspace(0.0, math.pi, 300)
        w = dispersion_grid(k, trivial_chain)
        assert np.all(np.diff(w) < 0.0)

    @pytest.mark.parametrize("J", [1e-300, 1e-170, 1.0, 1e170, 1e300])
    @pytest.mark.parametrize("delta", [-0.5, 0.05, 0.9])
    def test_grid_scales_with_J_over_the_exponent_range(self, J, delta):
        # t1^2 overflows at J = 1e300 and underflows at J = 1e-170; the
        # energy in units of J must not
        k = np.linspace(-math.pi, math.pi, 257)
        unit = dispersion_grid(k, WaveguideParams(delta=delta))
        scaled = dispersion_grid(k, WaveguideParams(delta=delta, J=J)) / J
        np.testing.assert_allclose(scaled, unit, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("k", [4.0, -3.5, 4, np.int64(-4)])
    def test_out_of_zone_rejected(self, trivial_chain, k):
        # an int k once skipped the zone check on the numpy path
        with pytest.raises(ValidationError, match="outside the Brillouin zone"):
            bloch_point(k, trivial_chain)


class TestMomentumInversion:
    def test_round_trip(self, trivial_chain):
        for omega in (1.05, 1.3, math.sqrt(2.5), 1.9, 1.99):
            k = momentum_from_energy(omega, trivial_chain)
            assert 0.0 < k < math.pi
            assert bloch_point(k, trivial_chain).omega_k == pytest.approx(
                omega, rel=1e-12
            )

    def test_known_inverse(self, trivial_chain):
        assert momentum_from_energy(math.sqrt(2.5), trivial_chain) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_gap_and_beyond_edge_codes(self, trivial_chain):
        with pytest.raises(OutOfBandError) as err:
            momentum_from_energy(0.5, trivial_chain)
        assert err.value.code == "gap"
        with pytest.raises(OutOfBandError) as err:
            momentum_from_energy(2.5, trivial_chain)
        assert err.value.code == "beyond_edge"

    def test_edges_are_singular(self, trivial_chain):
        with pytest.raises(BandEdgeError):
            momentum_from_energy(2.0, trivial_chain)
        with pytest.raises(BandEdgeError):
            momentum_from_energy(1.0, trivial_chain)

    @pytest.mark.parametrize("band", [None, Band.UPPER, Band.LOWER])
    def test_nan_energy_is_not_a_band_edge(self, trivial_chain, band):
        with pytest.raises(ValidationError, match=r"omega = nan is not a number"):
            momentum_from_energy(math.nan, trivial_chain, band)

    def test_negative_energy_uses_magnitude(self, trivial_chain):
        assert momentum_from_energy(-1.5, trivial_chain) == momentum_from_energy(
            1.5, trivial_chain
        )

    @pytest.mark.parametrize("delta", [1.0, -1.0])
    def test_flat_band_grid_is_empty_without_warnings(self, delta):
        # t1 t2 = 0 at delta = +-1: the band has no interior to divide over
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            in_band, k = momentum_grid(np.linspace(-3.0, 3.0, 13), WaveguideParams(delta=delta))
        assert not in_band.any() and k.size == 0

    def test_band_selector_enforces_sign(self, trivial_chain):
        from sshscatter import Band

        k = momentum_from_energy(-1.5, trivial_chain, Band.LOWER)
        assert k == momentum_from_energy(1.5, trivial_chain, Band.UPPER)
        with pytest.raises(ValidationError):
            momentum_from_energy(-1.5, trivial_chain, Band.UPPER)
        with pytest.raises(ValidationError):
            momentum_from_energy(1.5, trivial_chain, Band.LOWER)


class TestGroupVelocity:
    def test_uniform_chain_midzone(self):
        # derivative of the dispersion at k = pi/2, delta = 0: J/sqrt(2)
        assert group_velocity(math.pi / 2, WaveguideParams(delta=0.0)) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_dimerized_midzone(self, trivial_chain):
        assert group_velocity(math.pi / 2, trivial_chain) == pytest.approx(
            0.75 / math.sqrt(2.5), abs=1e-12
        )

    def test_vanishes_at_band_edges(self, trivial_chain):
        assert group_velocity(0.0, trivial_chain) == 0.0
        assert group_velocity(math.pi, trivial_chain) == 0.0

    def test_matches_finite_difference(self, trivial_chain):
        eps = 1e-6
        for k in (0.4, 1.2, 2.4):
            fd = (
                bloch_point(k + eps, trivial_chain).omega_k
                - bloch_point(k - eps, trivial_chain).omega_k
            ) / (2 * eps)
            assert group_velocity(k, trivial_chain) == pytest.approx(abs(fd), abs=1e-8)


class TestBlochEigenvectors:
    @pytest.mark.parametrize("k", [0.0, 0.7, math.pi / 2, 2.9, math.pi])
    def test_eigen_equation(self, k, trivial_chain):
        vecs = bloch_eigenvectors(k, trivial_chain)
        hk = bloch_matrix(k, trivial_chain)
        omega = bloch_point(k, trivial_chain).omega_k
        np.testing.assert_allclose(hk @ vecs.upper, omega * vecs.upper, atol=1e-12)
        np.testing.assert_allclose(hk @ vecs.lower, -omega * vecs.lower, atol=1e-12)

    def test_orthonormal(self, trivial_chain):
        vecs = bloch_eigenvectors(1.1, trivial_chain)
        assert np.vdot(vecs.upper, vecs.upper) == pytest.approx(1.0, abs=1e-14)
        assert np.vdot(vecs.lower, vecs.lower) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(vecs.upper, vecs.lower)) < 1e-14

    def test_gapless_point_degenerate(self):
        with pytest.raises(DegenerateEigenvectorError):
            bloch_eigenvectors(math.pi, WaveguideParams(delta=0.0))


class TestDVector:
    def test_zone_center(self, trivial_chain):
        d = d_vector(0.0, trivial_chain)
        assert (d.dx, d.dy, d.dz) == (-2.0, 0.0, 0.0)

    def test_zone_edge(self, trivial_chain):
        d = d_vector(math.pi, trivial_chain)
        assert d.dx == pytest.approx(-1.0)
        assert d.dy == pytest.approx(0.0, abs=1e-15)

    def test_midzone(self, trivial_chain):
        d = d_vector(math.pi / 2, trivial_chain)
        assert d.dx == pytest.approx(-1.5, abs=1e-15)
        assert d.dy == pytest.approx(-0.5, abs=1e-15)

    def test_norm_equals_dispersion(self, trivial_chain):
        k = np.linspace(-math.pi, math.pi, 257)
        d = d_vector(k, trivial_chain)
        np.testing.assert_allclose(
            np.hypot(d.dx, d.dy),
            dispersion_grid(k, trivial_chain),
            atol=1e-12,
        )


class TestTopology:
    def test_trivial_phase(self, trivial_chain):
        assert winding_number(trivial_chain) == 0
        assert zak_phase(trivial_chain) == 0.0

    def test_topological_phase(self, topological_chain):
        assert winding_number(topological_chain) == 1
        assert zak_phase(topological_chain) == pytest.approx(math.pi)

    def test_gapless_undefined(self):
        with pytest.raises(UndefinedWindingError):
            winding_number(WaveguideParams(delta=0.0))

    def test_sample_count_invariance(self):
        for delta in (0.5, -0.5, 0.05, -0.9):
            wg = WaveguideParams(delta=delta)
            assert winding_number(wg, 64) == winding_number(wg, 4096)

    def test_too_few_samples_rejected(self, trivial_chain):
        with pytest.raises(ValidationError):
            winding_number(trivial_chain, 32)

    @pytest.mark.parametrize("delta", [0.5, -0.5, 0.05, -0.9])
    def test_independent_of_scale(self, delta):
        # t1 t2 underflows at J = 5e-324 and overflows at 1e300
        nus = {winding_number(WaveguideParams(delta=delta, J=j)) for j in (5e-324, 1e-300, 1.0, 1e300)}
        assert nus == {winding_number(WaveguideParams(delta=delta))}


def berry_phase_wilson_loop(wg, n_k=512):
    """Independent geometric-phase oracle: discrete Wilson loop of the
    occupied-band eigenvectors around the Brillouin zone."""
    ks = -math.pi + (np.arange(n_k) + 0.5) * 2.0 * math.pi / n_k
    vecs = [bloch_eigenvectors(float(k), wg).lower for k in ks]
    vecs.append(vecs[0])
    product = 1.0 + 0.0j
    for left, right in zip(vecs[:-1], vecs[1:]):
        product *= np.vdot(left, right)
    return -np.angle(product)


def angle_distance(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


@pytest.mark.parametrize("delta,expected", [(0.5, 0.0), (-0.5, math.pi), (0.2, 0.0), (-0.8, math.pi)])
def test_zak_phase_matches_wilson_loop(delta, expected):
    wg = WaveguideParams(delta=delta)
    loop = berry_phase_wilson_loop(wg)
    assert angle_distance(loop, expected) < 1e-8
    assert angle_distance(zak_phase(wg), loop) < 1e-8


def test_band_edges(trivial_chain, topological_chain):
    assert band_edges(trivial_chain) == (1.0, 2.0)
    assert band_edges(topological_chain) == (1.0, 2.0)
    assert band_edges(WaveguideParams(delta=0.0)) == (0.0, 2.0)


def test_band_phase_upper_and_lower(trivial_chain):
    k = 1.3
    bp = bloch_point(k, trivial_chain)
    upper = band_phase(k, bp.omega_k, trivial_chain)
    lower = band_phase(k, -bp.omega_k, trivial_chain)
    assert upper == pytest.approx(bp.phi_k, abs=1e-14)
    # shifted by pi: exp(i lower) = -exp(i upper)
    assert np.exp(1j * lower) == pytest.approx(-np.exp(1j * upper), abs=1e-14)


@pytest.mark.parametrize("energy", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_band_phase_without_an_energy_is_named(trivial_chain, energy):
    # 0 used to raise a bare ZeroDivisionError, nan and +-inf to return a
    # phase (nan, 0 or pi) silently
    with pytest.raises(ValidationError, match=r"energy = "):
        band_phase(1.3, energy, trivial_chain)
    with pytest.raises(ValidationError, match=r"energy = "):
        band_phase(np.array([1.3, 1.4]), np.array([1.5, energy]), trivial_chain)


def _dense_zone():
    """The closed zone [-pi, pi] on a dense grid, with momenta within 1e-12
    of 0 and of +-pi."""
    near = np.array([1e-12, 3e-13, 1e-15])
    return np.r_[np.linspace(-math.pi, math.pi, 4001), -near, near, math.pi - near, near - math.pi]


@pytest.mark.parametrize("band", list(Band))
@pytest.mark.parametrize("J", [1.0, 0.125])
@pytest.mark.parametrize("delta", [0.5, -0.5, 0.05, -0.9])
def test_array_forms_match_the_float_forms(delta, J, band):
    # one kernel behind both forms: an array of momenta gives what each
    # float gives, to the rounding of numpy's own atan2 and hypot
    wg = WaveguideParams(delta=delta, J=J)
    k = _dense_zone()
    h, energy = h_over_j(k, wg), band.sign * dispersion_grid(k, wg)
    phi = band_phase(k, energy, wg)
    for i in range(1, len(k)):
        hf = h_over_j(float(k[i]), wg)
        assert abs(h[i] - hf) <= 1e-15 * abs(hf)
        assert abs(phi[i] - band_phase(float(k[i]), float(energy[i]), wg)) <= 4.5e-16
        ef = band.sign * bloch_point(float(k[i]), wg).omega_k
        assert abs(energy[i] - ef) <= 3e-16 * abs(ef)
    # the float form refuses k = -pi; the array takes it, and h(-pi) = h(pi)*
    # where sin pi rounds to 1.2e-16
    assert k[0] == -math.pi
    assert h[0] == h_over_j(math.pi, wg).conjugate()


@pytest.mark.parametrize("k", [1, -2, np.int64(3), np.float32(0.5)])
def test_real_scalar_momentum_is_its_float(trivial_chain, k):
    # an int once went down the numpy path: a numpy.complex128 h that
    # differed in the last bits from the float's
    h = h_over_j(k, trivial_chain)
    assert type(h) is complex and h == h_over_j(float(k), trivial_chain)
    phi = band_phase(k, -1.3, trivial_chain)
    assert type(phi) is float and phi == band_phase(float(k), -1.3, trivial_chain)
