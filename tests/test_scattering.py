import cmath
import math

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
    OutOfBandError,
    PotentialSingularityError,
    ValidationError,
)
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
        # Omega^2 < 1e-14 puts the whole two-photon window inside the pole-hit
        # band |den| < 1e-14, but at dk = -dc the potential is exactly zero;
        # the closed form, the transfer-matrix route and the lattice agree
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

    def test_transparency_survives_an_underflowing_drive(self, trivial_chain):
        # Omega^2 underflows to 0, so the potential reads 0/0 at dk = -dc: the
        # emitter must still be transparent, not raise ZeroDivisionError
        emitter = EmitterParams(omega_e=1.5, omega_rabi=5e-324, g=0.2, x1=5)
        assert detuning_response(0.0, 0.0, 5e-324) == 0.0
        k = momentum_from_energy(1.5, trivial_chain)
        for variant in Variant:
            assert transmittance(CouplingConfig(variant), 1.5, trivial_chain, emitter) == 1.0
            assert reflectance(CouplingConfig(variant), 1.5, trivial_chain, emitter) == 0.0
            pipe = scattering_matrix(transfer_matrix(CouplingConfig(variant), k, trivial_chain,
                                                     emitter))
            assert pipe.t_left == 1.0 and pipe.r_left == 0.0

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


class TestSubnormalCoupling:
    """A coupling whose square is subnormal (g below about 1.5e-154).

    At an exact pole hit the amplitudes are those of any g > 0 (t = 0 for
    single-site coupling), and off it the emitter is transparent to double
    precision; g^2 itself keeps only a few significant bits there.
    """

    @pytest.mark.parametrize("variant,alpha", [(Variant.A, 1.0), (Variant.B, 0.0),
                                               (Variant.AB, 0.2)])
    @pytest.mark.parametrize("x1", [4, 5])
    def test_flux_at_and_off_a_pole_hit(self, trivial_chain, variant, alpha, x1):
        config = CouplingConfig(variant, alpha)
        tiny = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=3.9e-162, x1=x1)
        normal = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=x1)
        omegas = np.array([1.5, 1.6])
        in_band, t_grid, r_grid = amplitude_grid(config, omegas, trivial_chain, tiny)
        assert in_band.all()
        for omega, t_g, r_g in zip(omegas, t_grid, r_grid):
            t = transmittance(config, omega, trivial_chain, tiny)
            r = reflectance(config, omega, trivial_chain, tiny)
            assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-12
            assert abs(t_g - t) <= 1e-15 and abs(r_g - r) <= 1e-15
        # the pole hit: every g > 0 gives the same amplitudes
        t = transmittance(config, 1.5, trivial_chain, tiny)
        r = reflectance(config, 1.5, trivial_chain, tiny)
        assert abs(t - transmittance(config, 1.5, trivial_chain, normal)) <= 1e-12
        assert abs(r - reflectance(config, 1.5, trivial_chain, normal)) <= 1e-12
        # off the pole the potential is below 1e-300
        assert abs(transmittance(config, 1.6, trivial_chain, tiny) - 1.0) <= 1e-15
