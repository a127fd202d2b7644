import ast
import cmath
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from sshscatter import (
    Band,
    CouplingConfig,
    EmitterParams,
    Variant,
    WaveguideParams,
    amplitude_grid,
    band_edges,
    band_phase,
    bloch_point,
    boundary_matched_solve,
    classify_regime,
    detuning_response,
    effective_potential,
    momentum_from_energy,
    poles,
    reflectance,
    scattering_matrix,
    transfer_matrix,
    transmittance,
)
from sshscatter.errors import (
    BandEdgeError,
    DegenerateDenominatorError,
    ModelError,
    OutOfBandError,
    PotentialSingularityError,
    ValidationError,
)
import sshscatter.bands
import sshscatter.scattering
from sshscatter.bands import h_over_j, require_dispersive
from sshscatter.params import in_units_of_j
from sshscatter.scattering import TransferMatrix, ab_transfer_factors


def random_case(rng, variant):
    """In-band draw away from degeneracies, mirroring the validation suite."""
    while True:
        delta = float(rng.uniform(0.15, 0.7)) * (1.0 if rng.random() < 0.5 else -1.0)
        wg = WaveguideParams(delta=delta)
        gap, outer = band_edges(wg)
        omega = gap + float(rng.uniform(0.08, 0.92)) * (outer - gap)
        emitter = EmitterParams(
            omega_e=omega - float(rng.uniform(-0.3, 0.3)),
            delta_c=float(rng.uniform(-0.2, 0.2)),
            omega_rabi=float(rng.uniform(0.0, 0.5)),
            g=float(rng.uniform(0.05, 0.4)),
            x1=int(rng.integers(1, 12)),
        )
        alpha = {
            Variant.A: 1.0,
            Variant.B: 0.0,
            Variant.AB: float(rng.uniform(0.1, 0.9)),
        }[variant]
        config = CouplingConfig(variant, alpha)
        dk = omega - emitter.omega_e
        if emitter.omega_rabi == 0.0 and abs(dk) < 1e-3:
            continue
        den = 4.0 * dk * (dk + emitter.delta_c) - emitter.omega_rabi**2
        if emitter.omega_rabi > 0.0 and abs(den) < 1e-4:
            continue
        if variant is Variant.AB:
            resp = (dk + emitter.delta_c) / den if emitter.omega_rabi else 1.0 / (4 * dk)
            if abs(wg.t1 - 4 * emitter.g**2 * alpha * (1 - alpha) * resp) < 1e-3 * wg.t1:
                continue
        return wg, emitter, config, omega


class TestEffectivePotential:
    def test_vanishes_at_two_photon_resonance(self):
        pot = effective_potential(0.0, 0.0, 0.2, 0.2)
        assert pot.value == 0.0
        # with Omega < 1e-7 the denominator -Omega^2 is below the pole-hit
        # threshold, but the numerator is exactly zero: no pole
        assert effective_potential(0.0, 0.0, 1e-8, 0.2).value == 0.0
        assert effective_potential(-0.03, 0.03, 1e-8, 0.2, alpha=0.4).cross == 0.0

    def test_control_off_reduces_to_single_pole(self):
        pot = effective_potential(0.1, 0.0, 0.0, 0.2)
        assert pot.value == pytest.approx(0.4, abs=1e-15)

    def test_control_off_ignores_control_detuning(self):
        # with the drive off the metastable level decouples entirely
        pot = effective_potential(0.1, -0.1, 0.0, 0.2)
        assert pot.value == pytest.approx(0.4, abs=1e-15)

    def test_pole_signal_carries_location(self):
        with pytest.raises(PotentialSingularityError) as err:
            effective_potential(0.1, 0.0, 0.2, 0.2)
        assert err.value.pole == pytest.approx(0.1)
        with pytest.raises(PotentialSingularityError) as err:
            effective_potential(-0.1, 0.0, 0.2, 0.2)
        assert err.value.pole == pytest.approx(-0.1)

    def test_pole_beside_a_detuned_control_keeps_its_digits(self):
        # delta_c >> Omega: the root on delta_k's side, about Omega^2/(4 dc),
        # once lost 2.0e-9 of itself to cancellation in -dc/2 + sqrt(...)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            dc, half = mp.mpf(0.1), mp.mpf(1e-5) / 2
            root = -dc / 2 + mp.sqrt(dc**2 / 4 + half**2)
        with pytest.raises(PotentialSingularityError) as err:
            detuning_response(float(root), 0.1, 1e-5)
        assert abs(err.value.pole - root) <= 1e-14 * root

    def test_response_examples(self):
        assert detuning_response(-0.1, 0.1, 0.2) == pytest.approx(0.0, abs=1e-15)
        assert detuning_response(0.1, 0.0, 0.0) == pytest.approx(2.5, abs=1e-12)
        assert detuning_response(0.05, 0.0, 0.2) == pytest.approx(-5.0 / 3.0, rel=1e-12)

    def test_split_identity(self):
        pot = effective_potential(0.07, 0.03, 0.1, 0.3, alpha=0.3)
        assert pot.on_a * pot.on_b == pytest.approx(pot.cross**2, rel=1e-12)
        assert pot.on_a + 2 * pot.cross + pot.on_b == pytest.approx(pot.value, rel=1e-12)


class TestTransferMatrix:
    @pytest.mark.parametrize("variant", [Variant.A, Variant.B, Variant.AB])
    def test_unit_determinant(self, variant):
        rng = np.random.default_rng(11)
        for _ in range(50):
            wg, emitter, config, omega = random_case(rng, variant)
            k = momentum_from_energy(omega, wg)
            u = transfer_matrix(config, k, wg, emitter)
            assert abs(u.det - 1.0) < 1e-12

    def test_transparent_point_is_identity(self, trivial_chain, config_a):
        # V = 0 at delta_k = 0 with the control field on
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=3)
        k = momentum_from_energy(1.5, trivial_chain)
        u = transfer_matrix(config_a, k, trivial_chain, emitter)
        np.testing.assert_allclose(u.as_array(), np.eye(2), atol=1e-14)

    def test_pole_propagates_from_potential(self, trivial_chain, config_a):
        # transfer matrices carry no analytic-limit handling of their own
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=3)
        k = momentum_from_energy(1.5, trivial_chain)
        with pytest.raises(PotentialSingularityError):
            transfer_matrix(config_a, k, trivial_chain, emitter)

    @pytest.mark.parametrize("J", [1.0, 2.0**-40, 1e-170, 1e300])
    def test_pole_location_is_an_energy(self, J):
        # the potential forms in units of J; the pole it reports is scaled back
        wg = WaveguideParams(delta=0.5, J=J)
        emitter = EmitterParams(omega_e=1.5 * J, omega_rabi=0.2 * J, g=0.2 * J, x1=3)
        k = momentum_from_energy(1.6 * J, wg)  # the pole at delta_k = Omega/2
        with pytest.raises(PotentialSingularityError, match="potential pole") as err:
            transfer_matrix(CouplingConfig(Variant.AB, 0.3), k, wg, emitter)
        assert err.value.pole == pytest.approx(0.1 * J, rel=1e-12)

    def test_ab_degenerate_denominator_signalled(self, trivial_chain):
        # at the shifted transmission zero the A-step factor blows up
        config = CouplingConfig(Variant.AB, 0.5)
        zero = 0.2**2 * 0.25 / trivial_chain.t1
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=3)
        k = momentum_from_energy(1.5 + zero, trivial_chain)
        with pytest.raises(DegenerateDenominatorError):
            transfer_matrix(config, k, trivial_chain, emitter)

    def test_ab_factor_determinants_cancel(self, trivial_chain):
        config = CouplingConfig(Variant.AB, 0.3)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.1, g=0.25, x1=4)
        omega = 1.62
        k = momentum_from_energy(omega, trivial_chain)
        from sshscatter.bands import band_phase
        from sshscatter.scattering import effective_potential as ep

        phi_e = band_phase(k, omega, trivial_chain)
        pot = ep(omega - 1.5, 0.0, 0.1, 0.25, alpha=0.3)
        step_a, step_b = ab_transfer_factors(k, phi_e, pot, 4, trivial_chain)
        assert abs(step_a.det * step_b.det - 1.0) < 1e-12
        assert abs(step_a.det - 1.0) > 1e-6  # individually non-unimodular


def single_site_transfer(variant, k, phi_e, value, x1, t1, t2):
    """Reference: the single-site transfer matrices, each written on its own."""
    if variant is Variant.A:
        w = value / (2j * t2 * math.sin(k + phi_e))
        ph = cmath.exp(2j * (k * x1 + phi_e))
        return TransferMatrix(1.0 + w, w / ph, -w * ph, 1.0 - w)
    w = value / (2j * t1 * math.sin(phi_e))
    ph = cmath.exp(2j * k * x1)
    return TransferMatrix(1.0 - w, -w / ph, w * ph, 1.0 + w)


class TestSingleSiteAsTwoSiteProduct:
    @pytest.mark.parametrize("band", [Band.UPPER, Band.LOWER])
    @pytest.mark.parametrize("variant", [Variant.A, Variant.B])
    def test_matches_single_site_reference(self, variant, band):
        # A and B run through the two-step product at alpha = 1 and 0; each
        # entry must match the single-site formula to rounding.  Energies are
        # drawn inside the band as in random_case: at the band edges sin phi_E
        # vanishes and both formulas lose digits.
        rng = np.random.default_rng(31)
        config = CouplingConfig(variant)
        worst, signs = 0.0, set()
        for _ in range(400):
            delta = float(rng.uniform(0.15, 0.7)) * (1.0 if rng.random() < 0.5 else -1.0)
            wg = WaveguideParams(delta=delta)
            gap, outer = band_edges(wg)
            fraction = float(rng.uniform(0.08, 0.92))
            k = momentum_from_energy(band.sign * (gap + fraction * (outer - gap)), wg, band)
            # the energy transfer_matrix itself reads off k, to the last bit
            energy = band.sign * bloch_point(k, wg).omega_k
            emitter = EmitterParams(
                omega_e=energy - float(rng.uniform(-0.3, 0.3)),
                delta_c=float(rng.uniform(-0.2, 0.2)),
                omega_rabi=float(rng.uniform(0.0, 0.5)),
                g=float(rng.uniform(0.05, 0.4)),
                x1=int(rng.integers(1, 41)),
            )
            try:
                value = effective_potential(
                    energy - emitter.omega_e, emitter.delta_c, emitter.omega_rabi, emitter.g
                ).value
            except PotentialSingularityError:
                continue
            ref = single_site_transfer(
                variant, k, band_phase(k, energy, wg), value, emitter.x1, wg.t1, wg.t2
            ).as_array()
            got = transfer_matrix(config, k, wg, emitter, band).as_array()
            worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
            signs.add(delta > 0)
        assert signs == {True, False}
        assert worst < 1e-13

    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    def test_spectator_step_is_identity(self, trivial_chain, alpha):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.13, g=0.2, x1=5)
        k = momentum_from_energy(1.62, trivial_chain)
        pot = effective_potential(0.12, 0.0, 0.13, 0.2, alpha)
        steps = ab_transfer_factors(
            k, band_phase(k, 1.62, trivial_chain), pot, emitter.x1, trivial_chain
        )
        spectator = steps[1] if alpha == 1.0 else steps[0]
        assert np.array_equal(spectator.as_array(), np.eye(2))


class TestFlatBandChain:
    # at delta = +-1 t1 or t2 vanishes and no momentum propagates; every
    # function that takes k directly must say so with a typed error
    @pytest.mark.parametrize("delta", [1.0, -1.0])
    @pytest.mark.parametrize(
        "config",
        [CouplingConfig(Variant.A), CouplingConfig(Variant.B), CouplingConfig(Variant.AB, 0.3)],
        ids=["A", "B", "AB"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda c, wg, em: transfer_matrix(c, 1.0, wg, em),
            lambda c, wg, em: poles(c, wg, em, 1.0),
            lambda c, wg, em: classify_regime(c, wg, em, 1.0),
        ],
        ids=["transfer_matrix", "poles", "classify_regime"],
    )
    def test_typed_error_names_delta(self, call, config, delta):
        wg = WaveguideParams(delta=delta)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=5)
        with pytest.raises(BandEdgeError, match=r"delta = -?1\.0"):
            call(config, wg, emitter)

    # at the band edges k = 0 and pi sin k = 0: in floating point
    # sin(pi) is 1.2e-16, not 0, so a test on sin k misses k = pi.  Within
    # rounding of an edge |cos k| reads 1 and no energy maps to k either:
    # sin k is a residue there, and the amplitudes would be meaningless
    @pytest.mark.parametrize(
        "k", [0.0, math.pi, 5e-324, 1e-300, 1e-9, math.pi - 1e-9],
        ids=["0", "pi", "5e-324", "1e-300", "1e-9", "pi-1e-9"],
    )
    @pytest.mark.parametrize(
        "config",
        [CouplingConfig(Variant.A), CouplingConfig(Variant.B), CouplingConfig(Variant.AB, 0.3)],
        ids=["A", "B", "AB"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda c, wg, em, k: transfer_matrix(c, k, wg, em),
            poles,
            classify_regime,
        ],
        ids=["transfer_matrix", "poles", "classify_regime"],
    )
    def test_band_edge_momentum_raises(self, call, config, k, trivial_chain):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=5)
        with pytest.raises(BandEdgeError, match=r"k = .* band edge"):
            call(config, trivial_chain, emitter, k)

    @pytest.mark.parametrize("cos_k", [math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)])
    def test_extreme_in_band_momenta_pass(self, cos_k, trivial_chain):
        # acos of the doubles next to +-1: 1.49e-8 and pi - 1.49e-8, the
        # momenta closest to an edge that an in-band energy maps to
        k = math.acos(cos_k)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=5)
        for config in (CouplingConfig(Variant.A), CouplingConfig(Variant.AB, 0.3)):
            s = scattering_matrix(transfer_matrix(config, k, trivial_chain, emitter))
            assert abs(abs(s.t_left) ** 2 + abs(s.r_left) ** 2 - 1.0) < 1e-12
            pair = poles(config, trivial_chain, emitter, k)
            assert cmath.isfinite(pair.pole_plus) and cmath.isfinite(pair.pole_minus)
            assert classify_regime(config, trivial_chain, emitter, k).label == "lorentzian"


class TestRoutesAtExtremeScale:
    """Closed form, check route and lattice oracle far from J = 1.

    Both amplitude routes divide every energy by J before the potential
    forms, so neither reads a false pole from the J^2 threshold nor loses
    its digits where t1 t2 or g^2 leave the range of doubles.
    """

    @pytest.mark.parametrize("J", [1e-8, 1e-170, 1e300])
    @pytest.mark.parametrize("band", [Band.UPPER, Band.LOWER])
    @pytest.mark.parametrize("delta", [0.5, -0.5])
    @pytest.mark.parametrize(
        "config",
        [CouplingConfig(Variant.A), CouplingConfig(Variant.B), CouplingConfig(Variant.AB, 0.3)],
        ids=["A", "B", "AB"],
    )
    def test_three_routes_agree(self, config, delta, band, J):
        wg = WaveguideParams(delta=delta, J=J)
        s = band.sign
        emitter = EmitterParams(
            omega_e=s * 1.5 * J, delta_c=s * 0.03 * J, omega_rabi=0.2 * J, g=0.2 * J, x1=5
        )
        omega = s * 1.62 * J
        t = transmittance(config, omega, wg, emitter, band)
        r = reflectance(config, omega, wg, emitter, band)
        k = momentum_from_energy(omega, wg, band)
        route = scattering_matrix(transfer_matrix(config, k, wg, emitter, band))
        sol = boundary_matched_solve(omega, 32, wg, emitter, config, band)
        assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-12)
        for t_other, r_other in ((route.t_left, route.r_left), (sol.t_num, sol.r_num)):
            assert abs(t_other - t) < 1e-10
            assert abs(r_other - r) < 1e-10


class TestScatteringMatrix:
    def test_identity_maps_to_identity(self):
        s = scattering_matrix(TransferMatrix(1, 0, 0, 1))
        assert s.t_left == 1.0
        assert s.t_right == 1.0
        assert s.r_left == 0.0
        assert s.r_right == 0.0

    @pytest.mark.parametrize("variant", [Variant.A, Variant.B, Variant.AB])
    def test_unitarity_and_reciprocity(self, variant):
        rng = np.random.default_rng(7)
        for _ in range(50):
            wg, emitter, config, omega = random_case(rng, variant)
            k = momentum_from_energy(omega, wg)
            s = scattering_matrix(transfer_matrix(config, k, wg, emitter))
            assert abs(abs(s.t_left) ** 2 + abs(s.r_left) ** 2 - 1.0) < 1e-12
            assert abs(abs(s.t_left) ** 2 + abs(s.r_right) ** 2 - 1.0) < 1e-12
            assert abs(s.t_left - s.t_right) < 1e-12

    def test_degenerate_t22_maps_to_full_reflection(self):
        s = scattering_matrix(TransferMatrix(1.0, 2.0j, -0.5j, 1e-16))
        assert s.t_left == 0.0
        assert abs(abs(s.r_left) - 1.0) < 1e-14


class TestTransmittance:
    def test_perfect_mirror_without_control_field(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        t = transmittance(config_a, 1.5, trivial_chain, emitter)
        assert t == 0.0

    def test_transparency_with_control_field(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=5)
        t = transmittance(config_a, 1.5, trivial_chain, emitter)
        assert abs(t - 1.0) < 1e-15

    def test_transparency_survives_a_tiny_drive(self, trivial_chain):
        # Omega^2 < 1e-14 puts the whole two-photon window inside the check
        # route's pole-hit band |den| < 1e-14, but at dk = -dc the potential
        # is exactly zero; the closed form, the transfer-matrix route and the
        # lattice agree
        emitter = EmitterParams(omega_e=1.5, omega_rabi=1e-8, g=0.2, x1=5)
        k = momentum_from_energy(1.5, trivial_chain)
        for variant in Variant:
            config = CouplingConfig(variant)
            assert transmittance(config, 1.5, trivial_chain, emitter) == 1.0
            assert reflectance(config, 1.5, trivial_chain, emitter) == 0.0
            pipe = scattering_matrix(transfer_matrix(config, k, trivial_chain, emitter))
            assert abs(pipe.t_left - 1.0) < 1e-12
            sol = boundary_matched_solve(1.5, 32, trivial_chain, emitter, config)
            assert abs(sol.t_num - 1.0) < 1e-12

    def test_underflowing_drive_is_refused_by_name(self, trivial_chain):
        # Omega = 5e-324 J lies below the domain [2^-100, 2^100] J: every route
        # refuses it naming omega_rabi (the lattice halved it to 0 and solved
        # an undriven emitter, t = 0, where the closed form gave t = 1)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=5e-324, g=0.2, x1=5)
        assert detuning_response(0.0, 0.0, 5e-324) == 0.0
        k = momentum_from_energy(1.5, trivial_chain)
        for variant in Variant:
            config = CouplingConfig(variant)
            for route in (
                lambda: transmittance(config, 1.5, trivial_chain, emitter),
                lambda: reflectance(config, 1.5, trivial_chain, emitter),
                lambda: amplitude_grid(config, [1.5], trivial_chain, emitter),
                lambda: transfer_matrix(config, k, trivial_chain, emitter),
                lambda: boundary_matched_solve(1.5, 32, trivial_chain, emitter, config),
                lambda: boundary_matched_solve(np.array([1.5]), 32, trivial_chain, emitter,
                                               config),
            ):
                with pytest.raises(ValidationError, match=r"^omega_rabi out of range"):
                    route()

    @pytest.mark.parametrize("omega_rabi", [1e-155, 1e-160])
    def test_grid_refuses_a_drive_whose_square_is_subnormal(self, trivial_chain, omega_rabi):
        # Omega^2 subnormal made numpy's complex division overflow (T = inf,
        # R = nan in a sweep); such a drive is now outside the domain
        emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2, x1=5)
        for variant in Variant:
            with pytest.raises(ValidationError, match=r"^omega_rabi out of range"):
                amplitude_grid(CouplingConfig(variant), [1.4, 1.5, 1.6], trivial_chain, emitter)

    @pytest.mark.parametrize("omega_rabi", [0.0, 0.2])
    def test_decoupled_emitter_is_transparent(self, trivial_chain, omega_rabi):
        # g = 0 is a valid input; the emitter's poles must not survive it
        emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.0, x1=5)
        config = CouplingConfig(Variant.AB, 0.3)
        for omega in (1.5 - omega_rabi / 2.0, 1.5, 1.5 + omega_rabi / 2.0, 1.62):
            assert transmittance(config, omega, trivial_chain, emitter) == 1.0
            assert reflectance(config, omega, trivial_chain, emitter) == 0.0

    def test_derived_midband_value(self, trivial_chain, config_a):
        # hand evaluation: V = g^2/(sqrt(2.5) - 1.5), |t|^2 = s^2/(s^2 + (V w)^2)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        omega = math.sqrt(2.5)
        k = math.pi / 2
        v = 0.04 / (omega - 1.5)
        s = 2.0 * trivial_chain.t1 * trivial_chain.t2 * math.sin(k)
        expected = s * s / (s * s + (v * omega) ** 2)
        t = transmittance(config_a, omega, trivial_chain, emitter)
        assert abs(t) ** 2 == pytest.approx(expected, rel=1e-12)
        assert abs(t) ** 2 == pytest.approx(0.787, abs=1e-3)

    def test_ab_zero_at_shifted_detuning(self, trivial_chain, config_ab):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        zero = 0.04 * 0.25 / trivial_chain.t1
        t = transmittance(config_ab, 1.5 + zero, trivial_chain, emitter)
        assert abs(t) < 1e-12

    def test_ab_alpha_limit_matches_single_site(self, trivial_chain):
        # closed form at alpha -> 1 must collapse onto the single-site result
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.13, g=0.2, x1=5)
        nearly_a = CouplingConfig(Variant.AB, 1.0 - 1e-13)
        exact_a = CouplingConfig(Variant.A)
        for omega in (1.2, 1.62, 1.9):
            t_ab = transmittance(nearly_a, omega, trivial_chain, emitter)
            t_a = transmittance(exact_a, omega, trivial_chain, emitter)
            assert abs(t_ab - t_a) < 1e-12

    @pytest.mark.parametrize("alpha,variant", [(1.0, Variant.A), (0.0, Variant.B)])
    def test_ab_formulas_at_pinned_mixing(self, alpha, variant, trivial_chain):
        # the two-site expressions evaluated at alpha = 1 or 0 reproduce the
        # single-site results exactly, through both computation routes
        emitter = EmitterParams(omega_e=1.5, delta_c=0.05, omega_rabi=0.13, g=0.2, x1=5)
        edge_config = CouplingConfig(Variant.AB, alpha)
        single = CouplingConfig(variant)
        for omega in (1.2, 1.62, 1.9):
            t_ab = transmittance(edge_config, omega, trivial_chain, emitter)
            t_single = transmittance(single, omega, trivial_chain, emitter)
            assert abs(t_ab - t_single) < 1e-12
            k = momentum_from_energy(omega, trivial_chain)
            s_ab = scattering_matrix(transfer_matrix(edge_config, k, trivial_chain, emitter))
            assert abs(s_ab.t_left - t_single) < 1e-12
            assert abs(abs(s_ab.t_left) ** 2 + abs(s_ab.r_left) ** 2 - 1.0) < 1e-12

    def test_out_of_band_rejected(self, trivial_chain, config_a, resonant_emitter):
        with pytest.raises(OutOfBandError):
            transmittance(config_a, 0.5, trivial_chain, resonant_emitter)
        with pytest.raises(ValidationError):
            transmittance(config_a, -1.5, trivial_chain, resonant_emitter, Band.UPPER)

    def test_lower_band_supported(self, trivial_chain, config_ab):
        emitter = EmitterParams(omega_e=-1.5, omega_rabi=0.1, g=0.2, x1=5)
        t = transmittance(config_ab, -1.62, trivial_chain, emitter, Band.LOWER)
        r = reflectance(config_ab, -1.62, trivial_chain, emitter, Band.LOWER)
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-12


class TestTwoPhotonLevel:
    """The closed form and the lattice read one rounded metastable level.

    The lattice holds a at omega_e/J - delta_c/J; the closed form once
    formed the detuning from it as dk + delta_c, which does not cancel
    where omega equals that level only after rounding, and so saw a
    potential where the lattice saw none."""

    @pytest.mark.parametrize("emitter, omega", [
        # dk + dc = 1.8e-16 and den = -1.4e-16, snapped to a pole: t was 0
        (EmitterParams(omega_e=1.5, delta_c=0.05, omega_rabi=1e-8, g=0.2, x1=10), 1.45),
        # omega_e - delta_c rounds to omega_e: dk + dc = 1e-20 gave |t| = 0.0192
        (EmitterParams(omega_e=1.7, delta_c=-1e-20, omega_rabi=0.3, g=1e10, x1=10), 1.7),
    ], ids=["tiny-drive", "tiny-detuning"])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_closed_form_matches_the_lattice(self, trivial_chain, variant, emitter, omega):
        config = CouplingConfig(variant, 0.35)
        t = transmittance(config, omega, trivial_chain, emitter)
        assert t == 1.0 and reflectance(config, omega, trivial_chain, emitter) == 0.0
        assert amplitude_grid(config, [omega], trivial_chain, emitter)[1][0] == 1.0
        sol = boundary_matched_solve(omega, 32, trivial_chain, emitter, config)
        assert abs(sol.t_num - t) < 1e-10


class TestClosedFormVsPipeline:
    @pytest.mark.parametrize("variant", [Variant.A, Variant.B, Variant.AB])
    @pytest.mark.parametrize("band", [Band.UPPER, Band.LOWER])
    def test_agreement(self, variant, band):
        rng = np.random.default_rng(23)
        for _ in range(60):
            wg, emitter, config, omega = random_case(rng, variant)
            omega *= band.sign
            emitter = EmitterParams(
                omega_e=band.sign * emitter.omega_e,
                delta_c=emitter.delta_c,
                omega_rabi=emitter.omega_rabi,
                g=emitter.g,
                x1=emitter.x1,
            )
            k = momentum_from_energy(omega, wg)
            t_closed = transmittance(config, omega, wg, emitter, band)
            s = scattering_matrix(transfer_matrix(config, k, wg, emitter, band))
            assert abs(t_closed - s.t_left) < 1e-10
            r = reflectance(config, omega, wg, emitter, band)
            assert abs(r - s.r_left) < 1e-12


class TestSymmetries:
    def test_a_b_identical(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(200):
            wg, emitter, _, omega = random_case(rng, Variant.A)
            k = momentum_from_energy(omega, wg)
            ta = scattering_matrix(
                transfer_matrix(CouplingConfig(Variant.A), k, wg, emitter)
            ).t_left
            tb = scattering_matrix(
                transfer_matrix(CouplingConfig(Variant.B), k, wg, emitter)
            ).t_left
            worst = max(worst, abs(ta - tb))
        assert worst < 1e-12

    def test_single_site_blind_to_delta_sign(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            wg, emitter, config, omega = random_case(rng, Variant.A)
            mirrored = WaveguideParams(delta=-wg.delta)
            t_plus = transmittance(config, omega, wg, emitter)
            t_minus = transmittance(config, omega, mirrored, emitter)
            assert abs(abs(t_plus) - abs(t_minus)) < 1e-12

    def test_ab_sees_delta_sign(self, config_ab):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        t_plus = transmittance(config_ab, 1.52, WaveguideParams(delta=0.5), emitter)
        t_minus = transmittance(config_ab, 1.52, WaveguideParams(delta=-0.5), emitter)
        # delta < 0 places its transmission zero exactly here
        assert abs(t_minus) ** 2 < 1e-20
        assert abs(abs(t_plus) ** 2 - abs(t_minus) ** 2) > 0.1

    def test_magnitudes_independent_of_coupling_cell(self, trivial_chain):
        emitter_kwargs = dict(omega_e=1.5, delta_c=0.05, omega_rabi=0.17, g=0.3)
        for variant, alpha in ((Variant.A, 1.0), (Variant.B, 0.0), (Variant.AB, 0.4)):
            config = CouplingConfig(variant, alpha)
            mags = []
            for x1 in (1, 5, 50):
                emitter = EmitterParams(x1=x1, **emitter_kwargs)
                t = transmittance(config, 1.7, trivial_chain, emitter)
                r = reflectance(config, 1.7, trivial_chain, emitter)
                mags.append((abs(t), abs(r)))
            for t_mag, r_mag in mags[1:]:
                assert t_mag == pytest.approx(mags[0][0], abs=1e-12)
                assert r_mag == pytest.approx(mags[0][1], abs=1e-12)


class TestReflectance:
    def test_transparent_point(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=5)
        assert abs(reflectance(config_a, 1.5, trivial_chain, emitter)) < 1e-15

    def test_mirror_point_fully_reflects(self, trivial_chain):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        for variant, alpha in ((Variant.A, 1.0), (Variant.B, 0.0)):
            r = reflectance(CouplingConfig(variant, alpha), 1.5, trivial_chain, emitter)
            assert abs(abs(r) - 1.0) < 1e-12

    def test_unitarity_at_singular_points(self, trivial_chain):
        # potential pole (ATS zero) and the shifted AB zero both keep T + R = 1
        config = CouplingConfig(Variant.AB, 0.5)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
        t = transmittance(config, 1.7, trivial_chain, emitter)
        r = reflectance(config, 1.7, trivial_chain, emitter)
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-12

        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        zero = 0.04 * 0.25 / trivial_chain.t1
        t = transmittance(config, 1.5 + zero, trivial_chain, emitter)
        r = reflectance(config, 1.5 + zero, trivial_chain, emitter)
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-12


class TestCouplingCellIndex:
    """The closed forms take x1 as the lattice routes and ``params.validate``
    do: an integral value is that cell, anything else a ValidationError
    naming x1 (2.5 and True once gave a half-cell phase, "3" a bare
    TypeError)."""

    @pytest.mark.parametrize("x1", [2.5, True, "3", math.nan])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_other_values_are_named(self, trivial_chain, variant, x1):
        config = CouplingConfig(variant)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=x1)
        k = momentum_from_energy(1.6, trivial_chain)
        calls = [
            lambda: transmittance(config, 1.6, trivial_chain, emitter),
            lambda: reflectance(config, 1.6, trivial_chain, emitter),
            lambda: amplitude_grid(config, np.array([1.4, 1.6]), trivial_chain, emitter),
            lambda: transfer_matrix(config, k, trivial_chain, emitter),
            lambda: ab_transfer_factors(k, band_phase(k, 1.6, trivial_chain),
                                        effective_potential(0.1, 0.0, 0.4, 0.2, 0.5), x1,
                                        trivial_chain),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=r"^x1 must be an integer cell index"):
                call()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_integral_values_are_the_cell(self, trivial_chain, variant):
        config = CouplingConfig(variant)
        omega = np.array([1.4, 1.6])
        k = momentum_from_energy(1.6, trivial_chain)
        results = []
        for x1 in (3, 3.0, np.int64(3)):
            emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=x1)
            grid = amplitude_grid(config, omega, trivial_chain, emitter)
            results.append((reflectance(config, 1.6, trivial_chain, emitter),
                            transfer_matrix(config, k, trivial_chain, emitter),
                            grid[1].tolist(), grid[2].tolist()))
        assert results[0] == results[1] == results[2]


class TestNearPole:
    """Two-site coupling 1e-6 .. 1e-12 away from every potential pole.

    The random draws of the other suites stay clear of the poles; here the
    reflection amplitude is probed right next to them, with and without
    the control field, against flux conservation and the lattice oracle.
    """

    @pytest.mark.parametrize("delta", [0.5, -0.5])
    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    @pytest.mark.parametrize("omega_rabi", [0.0, 0.0045, 0.2])
    def test_flux_and_lattice_agreement(self, delta, alpha, omega_rabi):
        wg = WaveguideParams(delta=delta)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2, x1=10)
        config = CouplingConfig(Variant.AB, alpha)
        pole_dks = [0.0] if omega_rabi == 0.0 else [-omega_rabi / 2.0, omega_rabi / 2.0]
        worst_flux = worst_lattice = 0.0
        for pole in pole_dks:
            for eps in 10.0 ** -np.arange(6, 13):
                for sign in (1.0, -1.0):
                    omega = 1.5 + pole + sign * eps
                    t = transmittance(config, omega, wg, emitter)
                    r = reflectance(config, omega, wg, emitter)
                    r_lattice = boundary_matched_solve(omega, 32, wg, emitter, config).r_num
                    worst_flux = max(worst_flux, abs(abs(t) ** 2 + abs(r) ** 2 - 1.0))
                    worst_lattice = max(worst_lattice, abs(r - r_lattice))
        assert worst_flux <= 1e-12
        assert worst_lattice <= 1e-12


class TestCouplingAtTheDomainEnds:
    """Couplings and drives at the ends of the domain [2^-100, 2^100] J and
    beyond them.  Inside, no square or product of the ratios to J leaves
    the normal doubles, so the closed form needs no scale branch; outside,
    every route refuses the field by name."""

    @pytest.mark.parametrize("variant,alpha", [(Variant.A, 1.0), (Variant.B, 0.0),
                                               (Variant.AB, 0.2)])
    @pytest.mark.parametrize("g", [3.9e-162, 1e-100, 5e-324, 1e31, 1e300])
    def test_coupling_outside_the_domain_is_refused(self, trivial_chain, variant, alpha, g):
        # g = 3.9e-162 once gave |r| = 1.07 at a pole hit (g^2 subnormal)
        config = CouplingConfig(variant, alpha)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=g, x1=4)
        for route in (transmittance, reflectance):
            with pytest.raises(ValidationError, match=r"^g out of range"):
                route(config, 1.6, trivial_chain, emitter)
        with pytest.raises(ValidationError, match=r"^g out of range"):
            amplitude_grid(config, [1.5, 1.6], trivial_chain, emitter)

    @pytest.mark.parametrize("config", [CouplingConfig(Variant.A), CouplingConfig(Variant.B),
                                        CouplingConfig(Variant.AB, 0.3)], ids=["A", "B", "AB"])
    def test_pole_hit_does_not_depend_on_g(self, trivial_chain, config):
        # 4 dk (dk + dc) = Omega^2 exactly at dk = Omega/2 = 0.125: g^2 cancels
        # from t and r, up to the rounding of C = 4 num g^2 and of D
        def amplitudes(g):
            emitter = EmitterParams(omega_e=1.5, omega_rabi=0.25, g=g, x1=5)
            _, t_grid, r_grid = amplitude_grid(config, [1.625], trivial_chain, emitter)
            return (transmittance(config, 1.625, trivial_chain, emitter),
                    reflectance(config, 1.625, trivial_chain, emitter), t_grid[0], r_grid[0])

        at_j = amplitudes(1.0)
        for g in [2.0**-100, 1e-20, 0.2, 0.99, 3.0, 1e3, 1e10, 2.0**100]:
            assert amplitudes(g) == pytest.approx(at_j, rel=4 * 2.0**-52, abs=4 * 2.0**-52)
        if config.variant is not Variant.AB:
            assert at_j[0] == 0.0

    @pytest.mark.parametrize("g, omega_rabi", [(1.7, 0.4), (0.2, 2.5), (3.0, 40.0), (1e5, 1e3)])
    @pytest.mark.parametrize(
        "config",
        [CouplingConfig(Variant.A), CouplingConfig(Variant.B), CouplingConfig(Variant.AB, 0.3)],
        ids=["A", "B", "AB"],
    )
    def test_three_routes_agree(self, trivial_chain, config, g, omega_rabi):
        emitter = EmitterParams(omega_e=1.5, delta_c=0.03, omega_rabi=omega_rabi, g=g, x1=5)
        t = transmittance(config, 1.62, trivial_chain, emitter)
        r = reflectance(config, 1.62, trivial_chain, emitter)
        k = momentum_from_energy(1.62, trivial_chain)
        route = scattering_matrix(transfer_matrix(config, k, trivial_chain, emitter))
        sol = boundary_matched_solve(1.62, 32, trivial_chain, emitter, config)
        assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-12)
        for t_other, r_other in ((route.t_left, route.r_left), (sol.t_num, sol.r_num)):
            assert abs(t_other - t) < 1e-10
            assert abs(r_other - r) < 1e-10

    @pytest.mark.parametrize("g", [0.2, 2.0**100])
    @pytest.mark.parametrize("omega_rabi", [0.0, 0.4, 2.0**-100, 2.0**100])
    @pytest.mark.parametrize("alpha", [1.0, 0.0, 0.3])
    def test_finite_and_flux_conserving(self, trivial_chain, g, omega_rabi, alpha):
        # dk = -delta_c = 1/16 (exact) is the two-photon zero of the driven
        # potential, where V = 0 however large g is
        variant = {1.0: Variant.A, 0.0: Variant.B}.get(alpha, Variant.AB)
        config = CouplingConfig(variant, alpha)
        emitter = EmitterParams(omega_e=1.5, delta_c=-0.0625, omega_rabi=omega_rabi, g=g, x1=5)
        omegas = np.array([1.45, 1.5625, 1.6])
        in_band, t, r = amplitude_grid(config, omegas, trivial_chain, emitter)
        assert in_band.all()
        assert np.isfinite(t).all() and np.isfinite(r).all()
        np.testing.assert_allclose(np.abs(t) ** 2 + np.abs(r) ** 2, 1.0, rtol=0, atol=1e-12)
        if omega_rabi > 0.0:
            assert abs(t[1] - 1.0) < 1e-12
        if g > 1e20 and omega_rabi < 1.0 and variant is not Variant.AB:
            # off that zero the potential is of order (g/J)^2: a mirror
            assert np.abs(t[[0, 2]]).max() < 1e-12

    @pytest.mark.parametrize("field", ["g", "omega_rabi"])
    @pytest.mark.parametrize("value", [1e31, 1.3e154, 1e300])
    def test_strong_coupling_or_drive_outside_the_domain_is_refused(self, trivial_chain, field,
                                                                    value):
        # above 2^100 J the closed form once rescaled num and den by powers of
        # two; such a field is now refused by name
        emitter = EmitterParams(omega_e=1.5, delta_c=-0.0625, omega_rabi=0.4, g=0.2, x1=5)
        emitter = dataclasses.replace(emitter, **{field: value})
        with pytest.raises(ValidationError, match=rf"^{field} out of range"):
            amplitude_grid(CouplingConfig(Variant.AB, 0.3), [1.45, 1.6], trivial_chain, emitter)


_ENDS = (2.0**-100, 2.0**-100 * 1.37, 0.3, 1.0, 2.0**100 / 1.37, 2.0**100)


class TestDomainCorners:
    """Every corner of the domain [2^-100, 2^100] J of g, Omega and delta_c
    (with 0 for Omega and delta_c), on both bands, at J from 2^-900 to
    2^900: the closed forms are finite and conserve flux, are exactly
    J-covariant at J = 2^n, and agree with the lattice oracle.
    """

    @staticmethod
    def _corners(sign):
        """(emitter in units of J, energies in units of J): omega_e = 1.5,
        probed at resonance, at the poles +-Omega/2, at two-photon resonance
        omega_a and at 1.62, each where it is in band."""
        for g in _ENDS:
            for omega_rabi in (0.0, *_ENDS):
                for delta_c in (0.0, *_ENDS[:3], -1.0, -_ENDS[4], _ENDS[5]):
                    emitter = EmitterParams(omega_e=sign * 1.5, delta_c=sign * delta_c,
                                            omega_rabi=omega_rabi, g=g, x1=10)
                    energies = [1.5, 1.5 + omega_rabi / 2.0, 1.5 - omega_rabi / 2.0,
                                1.5 - delta_c, 1.62]
                    yield emitter, [sign * w for w in energies if 1.0 < w < 2.0]

    @pytest.mark.parametrize("J", [1.0, 0.7, 2.0**-900, 2.0**900])
    @pytest.mark.parametrize("band", [Band.UPPER, Band.LOWER])
    @pytest.mark.parametrize("config", [CouplingConfig(Variant.A), CouplingConfig(Variant.B),
                                        CouplingConfig(Variant.AB, 0.3)], ids=["A", "B", "AB"])
    def test_corner(self, config, band, J):
        unit, wg = WaveguideParams(delta=0.5), WaveguideParams(delta=0.5, J=J)
        covariant = math.frexp(J)[0] == 0.5
        for emitter, energies in self._corners(band.sign):
            scaled = dataclasses.replace(
                emitter, omega_e=emitter.omega_e * J, delta_c=emitter.delta_c * J,
                omega_rabi=emitter.omega_rabi * J, g=emitter.g * J)
            omegas = np.array(energies) * J
            solved, t_lat, r_lat, _ = boundary_matched_solve(omegas, 32, wg, scaled, config, band)
            assert solved.all()
            for i, omega in enumerate(omegas.tolist()):
                t = transmittance(config, omega, wg, scaled, band)
                r = reflectance(config, omega, wg, scaled, band)
                assert cmath.isfinite(t) and cmath.isfinite(r)
                assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-12
                if covariant:
                    assert t == transmittance(config, energies[i], unit, emitter, band)
                    assert r == reflectance(config, energies[i], unit, emitter, band)
                assert abs(t_lat[i] - t) <= 1e-10 and abs(r_lat[i] - r) <= 1e-10


@pytest.mark.parametrize("config", [CouplingConfig(Variant.A), CouplingConfig(Variant.B),
                                    CouplingConfig(Variant.AB)], ids=["A", "B", "AB"])
def test_point_a_few_ulps_from_a_pole_is_not_a_pole(trivial_chain, config):
    # at omega = omega_e under a tiny drive den = 4 dk (dk + dc) - Omega^2
    # is -Omega^2 = -1.9e-16 J^2, while the pole lies about 4 ulps of omega
    # away; an absolute 1e-14 J^2 threshold on den once made it a pole hit
    # (t = 0 for A and B, |t| = 0.993 on the lattice)
    emitter = EmitterParams(omega_e=1.2, delta_c=0.05, omega_rabi=1.37e-8, g=1e-8, x1=10)
    lattice = boundary_matched_solve(1.2, 32, trivial_chain, emitter, config)
    assert abs(transmittance(config, 1.2, trivial_chain, emitter) - lattice.t_num) <= 1e-10
    assert abs(reflectance(config, 1.2, trivial_chain, emitter) - lattice.r_num) <= 1e-10


@pytest.mark.parametrize("g", [0.2, 3.0, 2.0**100])
@pytest.mark.parametrize("J", [1.0, 0.37])
@pytest.mark.parametrize("variant", list(Variant))
def test_float_inputs_give_python_scalars(variant, J, g):
    # the scalar route takes no numpy call, which would return numpy scalars
    # and slow every scalar query: floats in, Python complex and float out,
    # at a finite potential and at a pole hit (+-Omega/2), for a coupling
    # below and above J (above J a rescaling by np.frexp once gave numpy
    # scalars)
    wg = WaveguideParams(delta=0.5, J=J)
    config = CouplingConfig(variant, 0.35)
    emitter = EmitterParams(omega_e=1.5 * J, omega_rabi=0.2 * J, g=g * J, x1=5)
    for band, omega in ((Band.UPPER, 1.62 * J), (Band.UPPER, 1.6 * J), (Band.LOWER, -1.62 * J)):
        k = momentum_from_energy(omega, wg, band)
        assert type(k) is float
        assert type(h_over_j(k, wg)) is complex
        assert type(band_phase(k, omega, wg)) is float
        assert type(transmittance(config, omega, wg, emitter, band)) is complex
        assert type(reflectance(config, omega, wg, emitter, band)) is complex
        if omega != 1.6 * J:
            u = transfer_matrix(config, k, wg, emitter, band)
            assert {type(u.t11), type(u.t12), type(u.t21), type(u.t22)} == {complex}


@pytest.mark.parametrize("variant", list(Variant))
def test_integer_momentum_gives_the_float_transfer_matrix(trivial_chain, variant):
    # an int k once gave numpy.complex128 entries, off the float's in the last bits
    config = CouplingConfig(variant, 0.35)
    emitter = EmitterParams(omega_e=1.5, delta_c=0.03, omega_rabi=0.2, g=0.2, x1=5)
    for band in Band:
        u = transfer_matrix(config, 1, trivial_chain, emitter, band)
        v = transfer_matrix(config, 1.0, trivial_chain, emitter, band)
        assert {type(u.t11), type(u.t12), type(u.t21), type(u.t22)} == {complex}
        assert _bits(u.t11, u.t12, u.t21, u.t22) == _bits(v.t11, v.t12, v.t21, v.t22)


def _two_step_transfer(config, k, params, emitter, band):
    """Reference: the two-step product as first written, formula for formula.

    The effective potential, then the A and B step matrices, then the
    product B-step @ A-step; on the way it checks that
    :func:`effective_potential` and :func:`ab_transfer_factors` still return
    these numbers bit for bit.
    """
    omega_e, delta_c, omega_rabi, g = in_units_of_j(params, emitter)
    h = h_over_j(k, params)
    require_dispersive(params, k)
    energy = band.sign * abs(h)
    phi_e = band_phase(k, energy, params)
    dk = energy - omega_e
    try:
        resp = detuning_response(dk, delta_c, omega_rabi)
    except PotentialSingularityError as exc:
        pole = exc.pole * params.J
        raise PotentialSingularityError(
            f"potential pole at delta_k = {pole} (got {dk * params.J})", pole=pole) from None
    g1, g2 = g * config.alpha, g * (1.0 - config.alpha)
    v1, v2, v3 = 4.0 * g1 * g1 * resp, 4.0 * g1 * g2 * resp, 4.0 * g2 * g2 * resp
    pot = effective_potential(dk, delta_c, omega_rabi, g, config.alpha)
    assert _bits(pot.value, pot.response, pot.on_a, pot.cross, pot.on_b) == _bits(
        4.0 * g * g * resp, resp, v1, v2, v3)
    t1, t2 = 1.0 + params.delta, 1.0 - params.delta
    if abs(t1 - v2) < 1e-12 * (abs(t1) + abs(v2)):
        raise DegenerateDenominatorError(
            f"t1 - cross potential = {t1 - v2:.3e} vanishes; A-step factor degenerate"
        )
    ep = cmath.exp(1j * phi_e)
    theta = cmath.exp(2j * (k * emitter.x1 + phi_e))
    xa = 2j * (t1 - v2) * math.sin(phi_e)
    pa, qa = v1 + v2 / ep, v1 + v2 * ep
    a = TransferMatrix(1.0 - pa / xa, -(qa / theta) / xa, (pa * theta) / xa, 1.0 + qa / xa)
    yb = 2j * t2 * math.sin(k + phi_e)
    pb, qb = v3 + v2 * ep, v3 + v2 / ep
    phx = cmath.exp(2j * k * emitter.x1)
    b = TransferMatrix(1.0 + pb / yb, (qb / phx) / yb, -(pb * phx) / yb, 1.0 - qb / yb)
    assert ab_transfer_factors(k, phi_e, pot, emitter.x1, params) == (a, b)
    return TransferMatrix(
        b.t11 * a.t11 + b.t12 * a.t21, b.t11 * a.t12 + b.t12 * a.t22,
        b.t21 * a.t11 + b.t22 * a.t21, b.t21 * a.t12 + b.t22 * a.t22,
    )


def _bits(*values):
    """Every real and imaginary part as its exact bits (-0.0 apart from 0.0)."""
    return [(float(z.real).hex(), float(z.imag).hex(), type(z)) for z in values]


def _outcome(call):
    try:
        u = call()
    except ModelError as exc:
        return type(exc), str(exc)
    s = scattering_matrix(u)
    return _bits(u.t11, u.t12, u.t21, u.t22, s.t_left, s.t_right, s.r_left, s.r_right)


class TestOnePassCheckRoute:
    """``transfer_matrix`` forms h(k), phi_E, the site potentials and the
    step entries once per call, and gives the two-step product bit for bit."""

    @staticmethod
    def _draw(rng, i):
        variant = (Variant.A, Variant.B, Variant.AB)[i % 3]
        band = (Band.UPPER, Band.LOWER)[(i // 3) % 2]
        J = 2.0 ** int(rng.integers(-1000, 1001))
        delta = float(rng.uniform(0.1, 0.8)) * (1.0 if rng.random() < 0.5 else -1.0)
        wg = WaveguideParams(delta=delta, J=J)
        k = float(rng.uniform(0.0, math.pi))
        energy = band.sign * abs(h_over_j(k, WaveguideParams(delta)))
        emitter = EmitterParams(
            omega_e=J * (energy - band.sign * float(rng.uniform(-0.3, 0.3))),
            delta_c=J * float(rng.uniform(0.01, 0.2)) * (1.0 if rng.random() < 0.5 else -1.0),
            omega_rabi=J * float(rng.uniform(0.0, 0.5)),
            g=J * float(rng.uniform(0.05, 0.4)),
            x1=int(rng.integers(1, 41)),
        )
        alpha = float(rng.uniform(0.01, 0.99)) if variant is Variant.AB else None
        return CouplingConfig(variant, alpha), k, wg, emitter, band

    def test_bit_identical_to_the_two_step_product(self):
        rng = np.random.default_rng(25)
        for i in range(6000):
            args = self._draw(rng, i)
            assert _outcome(lambda: transfer_matrix(*args)) == _outcome(
                lambda: _two_step_transfer(*args)), args

    @pytest.mark.parametrize("g", [0.2, 1e5, 1e7, 2.0**100])
    def test_strong_coupling_keeps_the_two_step_digits(self, trivial_chain, g):
        # above about 1e4 J scattering_matrix's t11 - t12 t21 / t22 cancels
        # to a loss of digits; the one-pass entries reproduce it bit for bit
        emitter = EmitterParams(omega_e=1.5, delta_c=0.03, omega_rabi=0.4, g=g, x1=5)
        k = momentum_from_energy(1.62, trivial_chain)
        for config in (CouplingConfig(Variant.A), CouplingConfig(Variant.AB, 0.3)):
            args = config, k, trivial_chain, emitter, Band.UPPER
            assert _outcome(lambda: transfer_matrix(*args)) == _outcome(
                lambda: _two_step_transfer(*args))

    def _errors(self):
        wg = WaveguideParams(delta=0.5, J=2.0**-30)
        k = momentum_from_energy(1.5 * wg.J, wg)
        energy = abs(h_over_j(k, WaveguideParams(0.5)))
        g = 0.2
        zero = g * g * 0.25 / 1.5  # where 4 g1 g2 / (4 dk) = t1 at alpha = 1/2
        flat = WaveguideParams(delta=-1.0)
        return [
            # a potential pole: dk = 0 with the drive off, on both bands
            (PotentialSingularityError, CouplingConfig(Variant.A), k, wg,
             EmitterParams(omega_e=energy * wg.J, g=g * wg.J, x1=3), Band.UPPER),
            (PotentialSingularityError, CouplingConfig(Variant.AB, 0.3), k, wg,
             EmitterParams(omega_e=-energy * wg.J, delta_c=0.1 * wg.J, g=g * wg.J), Band.LOWER),
            # a degenerate A step: t1 - cross = 0
            (DegenerateDenominatorError, CouplingConfig(Variant.AB, 0.5), k, wg,
             EmitterParams(omega_e=(energy - zero) * wg.J, g=g * wg.J, x1=3), Band.UPPER),
            # band edges, exact and flat
            (BandEdgeError, CouplingConfig(Variant.B), math.pi, wg,
             EmitterParams(omega_e=wg.J, g=g * wg.J), Band.UPPER),
            (BandEdgeError, CouplingConfig(Variant.A), 0.0, wg,
             EmitterParams(omega_e=wg.J, g=g * wg.J), Band.LOWER),
            (BandEdgeError, CouplingConfig(Variant.AB), 1.0, flat,
             EmitterParams(omega_e=1.0), Band.UPPER),
        ]

    def test_raised_errors_keep_type_and_message(self):
        for error, *args in self._errors():
            got = _outcome(lambda: transfer_matrix(*args))
            assert got[0] is error
            assert got == _outcome(lambda: _two_step_transfer(*args))

    def test_one_h_one_matrix_and_no_potential_object(self, monkeypatch):
        counts = {"h": 0, "matrix": 0, "potential": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for module in (sshscatter.bands, sshscatter.scattering):
            monkeypatch.setattr(module, "h_over_j", counted("h", h_over_j))
        monkeypatch.setattr(sshscatter.scattering, "TransferMatrix",
                            counted("matrix", TransferMatrix))
        monkeypatch.setattr(sshscatter.scattering, "EffectivePotential",
                            counted("potential", sshscatter.scattering.EffectivePotential))
        rng = np.random.default_rng(3)
        for i in range(6):
            args = self._draw(rng, i)
            counts.update(h=0, matrix=0, potential=0)
            transfer_matrix(*args)
            assert counts == {"h": 1, "matrix": 1, "potential": 0}, args

    def test_band_sign_is_a_plain_attribute(self):
        assert not isinstance(inspect.getattr_static(Band, "sign", None), property)
        for band, sign in ((Band.UPPER, 1), (Band.LOWER, -1)):
            assert type(inspect.getattr_static(band, "sign")) is int
            assert inspect.getattr_static(band, "sign") == sign

    def test_site_potentials_and_step_entries_written_once(self):
        # outside the lattice (the independent oracle) the site potentials
        # 4 g1^2 resp, 4 g1 g2 resp, 4 g2^2 resp are written in one function
        # and so are the step entries, the only sines of phi_E
        package = Path(sshscatter.scattering.__file__).parent
        potentials, steps = set(), set()
        for path in sorted(package.glob("*.py")):
            if path.stem == "lattice":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
                for node in ast.walk(func):
                    where = (path.stem, func.name)
                    if _is_site_potential(node):
                        potentials.add(where)
                    if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sin"
                            and "phi_e" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}):
                        steps.add(where)
        assert potentials == {("scattering", "_site_potentials")}
        assert steps == {("scattering", "_step_entries")}


def _is_site_potential(node):
    """True for a product chain with the factor 4.0 and a site coupling g1 or g2."""
    factors, stack = [], [node]
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    while stack:
        term = stack.pop()
        if isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult):
            stack += [term.left, term.right]
        else:
            factors.append(term)
    return (any(isinstance(f, ast.Constant) and f.value == 4.0 for f in factors)
            and any(isinstance(f, ast.Name) and f.id in ("g1", "g2") for f in factors))
