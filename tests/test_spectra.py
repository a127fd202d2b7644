import json
import math
import re

import numpy as np
import pytest

from sshscatter import (
    Band,
    CouplingConfig,
    EmitterParams,
    Variant,
    WaveguideParams,
    ats_dip_positions,
    band_edges,
    band_phase,
    bloch_point,
    boundary_matched_solve,
    classify_regime,
    extract_features,
    interference_factor,
    lamb_shift,
    momentum_from_energy,
    momentum_grid,
    poles,
    reflectance,
    sweep_contour,
    sweep_spectrum,
    transmittance,
)
from sshscatter.cli import run
from sshscatter.errors import (
    BandEdgeError,
    EmptyGridError,
    ModelError,
    OutOfBandError,
    ValidationError,
)
from sshscatter.spectra import LineshapeFeature, SpectrumGrid, _half_crossing


@pytest.fixture
def resonant_k(trivial_chain):
    return momentum_from_energy(1.5, trivial_chain)


class TestPoles:
    def test_control_off_single_site(self, trivial_chain, config_a, resonant_k):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        pair = poles(config_a, trivial_chain, emitter, resonant_k)
        bp = bloch_point(resonant_k, trivial_chain)
        gamma = 0.04 * bp.omega_k / (2.0 * 0.75 * math.sin(resonant_k))
        assert pair.pole_minus == pytest.approx(0.0, abs=1e-15)
        assert pair.pole_plus == pytest.approx(1j * gamma, abs=1e-14)

    def test_strong_control_splits_to_half_rabi(self, trivial_chain, config_a, resonant_k):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=2.0, g=0.2, x1=5)
        pair = poles(config_a, trivial_chain, emitter, resonant_k)
        assert pair.pole_plus.real == pytest.approx(1.0, rel=1e-3)
        assert pair.pole_minus.real == pytest.approx(-1.0, rel=1e-3)

    def test_control_off_split_coupling_real_part_is_level_shift(
        self, trivial_chain, config_ab, resonant_k
    ):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        pair = poles(config_ab, trivial_chain, emitter, resonant_k)
        shift = lamb_shift(0.2, 0.5, trivial_chain)
        nonzero = max(pair.pole_plus, pair.pole_minus, key=abs)
        assert nonzero.real == pytest.approx(shift, rel=1e-10)
        assert min(abs(pair.pole_plus), abs(pair.pole_minus)) < 1e-15

    def test_imaginary_parts_nonnegative_on_forward_momenta(self, trivial_chain):
        # sampled sanity check; a violation would be a finding, not a failure
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = float(rng.uniform(0.1, math.pi - 0.1))
            alpha = float(rng.uniform(0.0, 1.0))
            variant = Variant.AB if 0 < alpha < 1 else (Variant.A if alpha == 1 else Variant.B)
            emitter = EmitterParams(
                omega_e=1.5, omega_rabi=float(rng.uniform(0, 0.5)), g=0.2, x1=5
            )
            pair = poles(CouplingConfig(variant, alpha), trivial_chain, emitter, k)
            assert pair.pole_plus.imag >= -1e-15
            assert pair.pole_minus.imag >= -1e-15

    def test_small_pole_keeps_full_precision(self, trivial_chain, config_a):
        # Omega << |s|: the smaller root must not come from a cancellation
        emitter = EmitterParams(omega_e=1.6, omega_rabi=1.44e-7, g=0.2, x1=5)
        k = momentum_from_energy(1.6, trivial_chain)
        pair = poles(config_a, trivial_chain, emitter, k)
        quarter = emitter.omega_rabi**2 / 4.0
        assert abs(pair.pole_plus * pair.pole_minus + quarter) <= 1e-12 * quarter
        assert abs(pair.pole_plus) > abs(pair.pole_minus)

    @pytest.mark.parametrize("config", [CouplingConfig(Variant.A), CouplingConfig(Variant.AB, 0.3)],
                             ids=["A", "AB"])
    @pytest.mark.parametrize("g", [1e-20, 2.0**-100, 2.0**100])
    def test_control_off_pole_is_twice_the_strength_for_any_coupling(
        self, trivial_chain, config, resonant_k, g
    ):
        # Omega = 0: the poles are 2 i s and 0, s ~ g^2, at both ends of the
        # domain of g
        def pair(coupling):
            emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=coupling, x1=5)
            return poles(config, trivial_chain, emitter, resonant_k)

        reference = pair(0.2).pole_plus * (g / 0.2) ** 2
        assert pair(g).pole_plus == pytest.approx(reference, rel=1e-14, abs=0.0)
        assert pair(g).pole_minus == 0.0

    @pytest.mark.parametrize("g", [1e-78, 1e-100, 1e-150, 1e31, 1e300])
    def test_coupling_outside_the_domain_is_refused(self, trivial_chain, config_a, resonant_k, g):
        # 1e-78 to 1e-150 once took the discriminant at a power-of-two scale;
        # every such coupling lies outside [2^-100, 2^100] J
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=g, x1=5)
        for route in (poles, classify_regime):
            with pytest.raises(ValidationError, match=r"^g out of range"):
                route(config_a, trivial_chain, emitter, resonant_k)
        with pytest.raises(ValidationError, match=r"^g out of range"):
            lamb_shift(g, 0.5, trivial_chain)

    @pytest.mark.parametrize("g,drive", [(2.0**-100, 2.0**100), (2.0**-60, 2.0**60)])
    def test_strength_keeps_its_digits_beside_a_far_larger_drive(
        self, trivial_chain, config_a, resonant_k, g, drive
    ):
        # Omega/2 >> |s| (up to 2^300 times larger at the domain ends): Im of
        # either pole is Re(s) = Im(2 i s)/2, the Omega = 0 pole
        def pair(omega_rabi):
            emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=g, x1=5)
            return poles(config_a, trivial_chain, emitter, resonant_k)

        strength = pair(0.0).pole_plus.imag / 2.0
        driven = pair(drive)
        assert driven.pole_plus.imag == pytest.approx(strength, rel=1e-14, abs=0.0)
        assert driven.pole_plus.real == pytest.approx(drive / 2.0, rel=1e-14)

    @pytest.mark.parametrize("drive", [2e-140, 1.6e35, 1e50])
    def test_drive_outside_the_domain_is_refused(self, trivial_chain, config_a, resonant_k,
                                                 drive):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=drive, g=0.2, x1=5)
        for route in (poles, classify_regime):
            with pytest.raises(ValidationError, match=r"^omega_rabi out of range"):
                route(config_a, trivial_chain, emitter, resonant_k)

    @pytest.mark.parametrize("config", [CouplingConfig(Variant.A), CouplingConfig(Variant.B),
                                        CouplingConfig(Variant.AB, 0.3)], ids=["A", "B", "AB"])
    @pytest.mark.parametrize("band", list(Band))
    @pytest.mark.parametrize("delta_c", [0.1, -0.03, 1e-6])
    @pytest.mark.parametrize("drive", [0.0, 1e-5, 0.05, 0.4])
    def test_detuned_control_matches_the_textbook(self, trivial_chain, config, band, delta_c,
                                                  drive):
        # both roots of (dk - 2i s)(dk + dc) = Omega^2/4, s at the band's
        # energy, to the 50-digit roots, each relative to itself; each zeroes
        # the closed form's denominator D at this k
        k = momentum_from_energy(1.5, trivial_chain)
        emitter = EmitterParams(omega_e=1.5 * band.sign, delta_c=delta_c, omega_rabi=drive,
                                g=0.2, x1=5)
        pair = poles(config, trivial_chain, emitter, k, band)
        s, roots = textbook_poles(config, trivial_chain, emitter, k, band)
        for pole, root in zip((pair.pole_plus, pair.pole_minus), roots):
            assert abs(complex(root) - pole) <= 1e-14 * abs(complex(root))
            step = newton_step(config, trivial_chain, emitter, k, band, pole)
            assert abs(step) <= 1e-14 * abs(pole)


class TestRegime:
    def test_no_control_field_is_lorentzian(self, trivial_chain, config_a, resonant_k):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        assert classify_regime(config_a, trivial_chain, emitter, resonant_k).label == "lorentzian"

    def test_strong_field_is_ats(self, trivial_chain, config_a, resonant_k):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
        label = classify_regime(config_a, trivial_chain, emitter, resonant_k)
        assert label.label == "ats"
        assert label.ratio > 4.0

    def test_weak_field_near_boundary(self, trivial_chain, config_a, resonant_k):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.009, g=0.2, x1=5)
        out = classify_regime(config_a, trivial_chain, emitter, resonant_k)
        assert out.label == "lorentzian"
        assert out.ratio == pytest.approx(0.22, abs=0.01)

    def test_ratio_scales_linearly_with_control(self, trivial_chain, config_a, resonant_k):
        em1 = EmitterParams(omega_e=1.5, omega_rabi=0.1, g=0.2, x1=5)
        em2 = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=5)
        r1 = classify_regime(config_a, trivial_chain, em1, resonant_k).ratio
        r2 = classify_regime(config_a, trivial_chain, em2, resonant_k).ratio
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    @pytest.mark.parametrize("g", [1e-170, 1e-300, 5e-324])
    def test_underflowing_coupling_is_refused(self, trivial_chain, config_a, resonant_k, g):
        # g^2 is 0 below about 1e-162, where the ratio read inf as at g = 0;
        # such a coupling is now outside the domain
        tiny = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=g, x1=5)
        with pytest.raises(ValidationError, match=r"^g out of range"):
            classify_regime(config_a, trivial_chain, tiny, resonant_k)

    def test_decoupled_ratio_is_inf(self, trivial_chain, config_a, resonant_k):
        decoupled = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.0, x1=5)
        out = classify_regime(config_a, trivial_chain, decoupled, resonant_k)
        assert out.label == "ats" and out.ratio == math.inf


class TestLambShift:
    def test_single_site_unshifted(self, trivial_chain):
        assert lamb_shift(0.2, 1.0, trivial_chain) == 0.0
        assert lamb_shift(0.2, 0.0, trivial_chain) == 0.0

    def test_single_site_unshifted_at_the_domain_end(self, trivial_chain):
        assert lamb_shift(2.0**100, 1.0, trivial_chain) == 0.0
        assert lamb_shift(2.0**100, 0.0, trivial_chain) == 0.0
        with pytest.raises(ValidationError, match=r"^g out of range"):
            lamb_shift(1e300, 1.0, trivial_chain)

    def test_trivial_phase_value(self, trivial_chain):
        assert lamb_shift(0.2, 0.5, trivial_chain) == pytest.approx(1.0 / 150.0, rel=1e-12)

    def test_topological_phase_is_larger(self, topological_chain):
        assert lamb_shift(0.2, 0.5, topological_chain) == pytest.approx(0.02, rel=1e-12)


def ratio_reference(config, params, emitter, k):
    """The regime ratio as first written: |Omega| 2 t1 t2 |sin k| /
    (g^2 omega_k |F|) in units of J, dividing by g twice."""
    h = -(1.0 + params.delta) - (1.0 - params.delta) * complex(math.cos(k), -math.sin(k))
    fac = interference_factor(math.atan2(h.imag, h.real), config.alpha)
    g = emitter.g / params.J
    return (
        abs(emitter.omega_rabi) / params.J / g / g
        * 2.0 * (1.0 + params.delta) * (1.0 - params.delta) * abs(math.sin(k))
        / (abs(h) * abs(fac))
    )


def _textbook_cell(config, params, k, band):
    """(t1, t2, h, B) in 50 digits, in absolute units: the hoppings, h(k) and
    the weight B = E (w1^2 + w2^2) + 2 w1 w2 h* at the band's signed energy E."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        j, delta, k = mp.mpf(params.J), mp.mpf(params.delta), mp.mpf(k)
        t1, t2 = j * (1 + delta), j * (1 - delta)
        h = -t1 - t2 * mp.exp(-1j * k)
        w1, w2 = mp.mpf(config.alpha), 1 - mp.mpf(config.alpha)
        return t1, t2, h, band.sign * abs(h) * (w1**2 + w2**2) + 2 * w1 * w2 * mp.conj(h)


def textbook_poles(config, params, emitter, k, band=Band.UPPER):
    """(s, (plus, minus)) in 50 digits, in absolute units: s = g^2 B /
    (4 t1 t2 sin k) and the roots i s - dc/2 +/- sqrt((i s + dc/2)^2 + Omega^2/4)
    of (dk - 2i s)(dk + dc) = Omega^2/4, the smaller as their product
    -2i s dc - Omega^2/4 over the larger (their difference would cancel
    all 50 digits at g = 0.2)."""
    mp = pytest.importorskip("mpmath")
    t1, t2, h, weight = _textbook_cell(config, params, k, band)
    with mp.workdps(50):
        s = mp.mpf(emitter.g) ** 2 * weight / (4 * t1 * t2 * mp.sin(mp.mpf(k)))
        dc, half = mp.mpf(emitter.delta_c), mp.mpf(emitter.omega_rabi) / 2
        root = mp.sqrt((1j * s + dc / 2) ** 2 + half**2)
        plus, minus = 1j * s - dc / 2 + root, 1j * s - dc / 2 - root
        product = -2j * s * dc - half**2
        if abs(plus) >= abs(minus):
            return s, (plus, product / plus if product else mp.mpc(0))
        return s, (product / minus if product else mp.mpc(0), minus)


def newton_step(config, params, emitter, k, band, dk):
    """D/D' in 50 digits, D the closed form's denominator at momentum k as
    a function of the detuning dk: D = (h - h*) t1 (4 dk (dk + dc) - Omega^2)
    + 4 g^2 (dk + dc) B.  Next to a simple zero it is dk less that zero."""
    mp = pytest.importorskip("mpmath")
    t1, _, h, weight = _textbook_cell(config, params, k, band)
    with mp.workdps(50):
        dk, dc = mp.mpc(dk), mp.mpf(emitter.delta_c)
        drive, g = mp.mpf(emitter.omega_rabi), mp.mpf(emitter.g)
        sk = (h - mp.conj(h)) * t1
        d = sk * (4 * dk * (dk + dc) - drive**2) + 4 * g**2 * (dk + dc) * weight
        return d / (sk * (8 * dk + 4 * dc) + 4 * g**2 * weight)


class TestTinyJ:
    """A tiny J with every energy inside the domain [2^-100, 2^100] J: the
    poles and the Lamb shift, formed in units of J and multiplied by J
    once, match a 50-digit reference."""

    TINY = 1e-170

    def test_poles_command_refuses_the_default_coupling(self, capsys):
        # the default g = 0.2 is 2e169 J here: once carried at a power-of-two
        # scale, now outside the domain and refused by name
        argv = ["poles", "--config", "A", "--J", "1e-170", "--omega-e", "1.5e-170",
                "--omega-rabi", "2e-171"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"\bg out of range", captured.err), captured.err

    @pytest.mark.parametrize("config", [CouplingConfig(Variant.A), CouplingConfig(Variant.AB, 0.3)],
                             ids=["A", "AB"])
    @pytest.mark.parametrize("delta", [0.5, -0.5])
    @pytest.mark.parametrize("g, drive", [
        (2.0**100, lambda s: 2.0**-100),  # |s| ~ 2^200 J, the smaller root ~ 2^-400 J
        (2.0**-100, lambda s: 2.0**100),  # Omega/2 ~ 2^300 |s|
        (2.0**-40, lambda s: 0.3 * s),
        (2.0**-40, lambda s: 1.0 * s),
        (2.0**-40, lambda s: 4.0 * s),
    ], ids=["strong", "weak", "eit", "edge", "ats"])
    def test_poles_match_the_textbook(self, config, delta, g, drive):
        # g and drive are in units of J, drive a function of |s|/J
        params = WaveguideParams(delta=delta, J=self.TINY)
        k = momentum_from_energy(1.5 * self.TINY, params)
        emitter = EmitterParams(omega_e=1.5 * self.TINY, g=g * self.TINY, x1=5)
        s = textbook_poles(config, params, emitter, k)[0]
        omega_rabi = drive(float(abs(s)) / self.TINY) * self.TINY
        emitter = EmitterParams(omega_e=1.5 * self.TINY, omega_rabi=omega_rabi,
                                g=g * self.TINY, x1=5)
        roots = textbook_poles(config, params, emitter, k)[1]
        pair = poles(config, params, emitter, k)
        for pole in (pair.pole_plus, pair.pole_minus):
            nearest = min(roots, key=lambda r: abs(complex(r) - pole))
            assert abs(complex(nearest) - pole) <= 1e-13 * abs(complex(nearest))
        ratio = classify_regime(config, params, emitter, k).ratio
        assert ratio == pytest.approx(omega_rabi / 2.0 / float(abs(s)), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    @pytest.mark.parametrize("g", [2.0**-100, 0.3, 2.0**100])
    def test_lamb_shift_matches_the_textbook(self, alpha, g):
        mp = pytest.importorskip("mpmath")
        params = WaveguideParams(delta=0.5, J=self.TINY)
        g = g * self.TINY
        with mp.workdps(50):
            a = mp.mpf(alpha)
            expected = mp.mpf(g) ** 2 * a * (1 - a) / (mp.mpf(self.TINY) * mp.mpf(1.5))
        assert lamb_shift(g, alpha, params) == pytest.approx(float(expected), rel=1e-14)

    def test_lamb_shift_overflow_is_inf(self):
        # (g/J)^2 J = 2^1040 J: beyond the doubles in absolute units only
        assert lamb_shift(2.0**1020, 0.5, WaveguideParams(delta=0.5, J=2.0**1000)) == math.inf
        with pytest.raises(ValidationError, match=r"^g out of range"):
            lamb_shift(1e300, 0.5, WaveguideParams(delta=0.5))

    def test_drive_at_the_domain_end_without_coupling(self, trivial_chain, config_a, resonant_k):
        # at g = 0 the poles are +-Omega/2, down to Omega = 2^-100 J; a drive
        # of 2e-170 J, once taken at its own scale, is refused
        emitter = EmitterParams(omega_e=1.5, omega_rabi=2.0**-100, g=0.0, x1=5)
        pair = poles(config_a, trivial_chain, emitter, resonant_k)
        assert {pair.pole_plus, pair.pole_minus} == {2.0**-101 + 0j, -(2.0**-101) + 0j}
        emitter = EmitterParams(omega_e=1.5, omega_rabi=2e-170, g=0.0, x1=5)
        with pytest.raises(ValidationError, match=r"^omega_rabi out of range"):
            poles(config_a, trivial_chain, emitter, resonant_k)


class TestDriveBeyondTheDomain:
    """A drive beyond 2^100 J is refused by name.  J itself is unbounded, so
    a pole in units of J can still overflow once multiplied by J."""

    ARGV = ["--format", "csv", "poles", "--config", "A", "--J", "1e-170",
            "--omega-e", "1.5e-170", "--g", "1e-100", "--omega-rabi", "1e139"]

    def test_command_refuses_the_drive(self, capsys):
        # Omega/J = 1e309 was once carried at its own power of two
        assert run(self.ARGV) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"\bomega_rabi out of range", captured.err), captured.err

    def test_library_values_match_the_textbook_at_the_domain_ends(self):
        mp = pytest.importorskip("mpmath")
        params = WaveguideParams(delta=0.5, J=1e-170)
        k = momentum_from_energy(1.5e-170, params)
        emitter = EmitterParams(omega_e=1.5e-170, omega_rabi=2.0**100 * 1e-170,
                                g=2.0**-100 * 1e-170, x1=5)
        config = CouplingConfig(Variant.A)
        s, roots = textbook_poles(config, params, emitter, k)
        with mp.workdps(50):
            ratio = mp.mpf(emitter.omega_rabi) / 2 / abs(s)
        pair = poles(config, params, emitter, k)
        for pole in (pair.pole_plus, pair.pole_minus):
            nearest = min(roots, key=lambda r: abs(complex(r) - pole))
            assert abs(complex(nearest.real) - pole.real) <= 1e-13 * abs(float(nearest.real))
            assert abs(complex(nearest.imag) - pole.imag) <= 1e-13 * abs(float(nearest.imag))
        regime = classify_regime(config, params, emitter, k)
        assert regime.label == "ats"
        assert regime.ratio == pytest.approx(float(ratio), rel=1e-13)

    # AB at a phase where i s points along -Re: with |s| just below Omega/2
    # the larger pole, |s| + sqrt(Omega^2/4 - s^2) of order Omega, overflows.
    # At J = 2^950 the coupling g 2^475 gives the strength |s| ~ g^2/J of g
    # at J = 1, with g/J and Omega/J inside the domain
    CASE = dict(delta=0.45065641073409457, alpha=0.36824525479162395, k=1.5245685813738654,
                omega_rabi=1.7816475482415873e+308, g=3.05126856237099e+154 * 2.0**475,
                J=2.0**950)

    @pytest.mark.parametrize("scale, field", [(1.0, "omega_rabi"), (2.0, "g")])
    def test_refusal_names_the_larger_term(self, scale, field):
        case = self.CASE
        emitter = EmitterParams(omega_e=1.5 * case["J"], omega_rabi=case["omega_rabi"],
                                g=case["g"] * scale, x1=5)
        with pytest.raises(ValidationError, match=rf"^{field} out of range.*overflows"):
            poles(CouplingConfig(Variant.AB, case["alpha"]),
                  WaveguideParams(case["delta"], J=case["J"]), emitter, case["k"])

    @pytest.mark.parametrize("g, drive", [(2.0**-100, 2.0**100), (2.0**100, 2.0**-100)])
    def test_ratio_at_the_domain_ends(self, trivial_chain, config_a, resonant_k, g, drive):
        # the ratio spans about 2^+-300, and the regime labels follow it
        emitter = EmitterParams(omega_e=1.5, omega_rabi=drive, g=g, x1=5)
        regime = classify_regime(config_a, trivial_chain, emitter, resonant_k)
        assert regime.ratio == pytest.approx(
            ratio_reference(config_a, trivial_chain, emitter, resonant_k), rel=1e-13)
        assert regime.label == ("ats" if drive > g else "lorentzian")


class TestRegimeReference:
    def test_labels_and_ratios_match_the_50_digit_ratio(self):
        # the ratio |Omega/2| / |s| to 8 eps times the condition number of
        # B, kappa = (|E| (w1^2 + w2^2) + 2 w1 w2 |h|) / |B| = 1 / |F|
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        labels = set()
        for _ in range(3000):
            delta = float(rng.uniform(-0.9, 0.9))
            params = WaveguideParams(delta=delta, J=float(rng.choice([1.0, 0.7, 3.3, 2.0**-40])))
            variant = Variant(rng.choice(["A", "B", "AB"]))
            alpha = {Variant.A: 1.0, Variant.B: 0.0}.get(variant, float(rng.uniform(0.0, 1.0)))
            config = CouplingConfig(variant, alpha)
            k = float(rng.uniform(0.01, math.pi - 0.01))
            emitter = EmitterParams(
                omega_e=1.5 * params.J,
                omega_rabi=float(10.0 ** rng.uniform(-4.0, 1.0)) * params.J,
                g=float(10.0 ** rng.uniform(-3.0, 0.5)) * params.J,
                x1=5,
            )
            out = classify_regime(config, params, emitter, k)
            s = textbook_poles(config, params, emitter, k)[0]
            with mp.workdps(50):
                reference = float(mp.mpf(emitter.omega_rabi) / 2 / abs(s))
            kappa = 1.0 / abs(interference_factor(band_phase(k, 1.0, params), alpha))
            tol = 8 * 2.0**-52 * kappa
            assert out.ratio == pytest.approx(reference, rel=tol)
            for bound in (0.25, 4.0):
                # a label may only differ where rounding straddles a bound
                if abs(reference - bound) > tol * bound:
                    assert (out.ratio < bound) == (reference < bound)
            labels.add(out.label)
        assert labels == {"lorentzian", "eit", "ats"}


class TestAtsDips:
    def test_single_site_symmetric(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
        lo, hi = ats_dip_positions(config_a, trivial_chain, emitter)
        assert lo == pytest.approx(-0.2)
        assert hi == pytest.approx(0.2)

    def test_split_coupling_offset(self, trivial_chain, config_ab):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
        lo, hi = ats_dip_positions(config_ab, trivial_chain, emitter)
        assert lo == pytest.approx(1.0 / 300.0 - 0.2, rel=1e-10)
        assert hi == pytest.approx(1.0 / 300.0 + 0.2, rel=1e-10)

    def test_separation_linear_in_control(self, trivial_chain, config_a):
        em1 = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=5)
        em2 = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
        lo1, hi1 = ats_dip_positions(config_a, trivial_chain, em1)
        lo2, hi2 = ats_dip_positions(config_a, trivial_chain, em2)
        assert (hi2 - lo2) == pytest.approx(2.0 * (hi1 - lo1), rel=1e-12)


class TestSweeps:
    def test_lorentzian_dip_and_recovery(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.1, x1=5)
        grid = sweep_spectrum(config_a, trivial_chain, emitter, np.linspace(-0.2, 0.2, 801))
        middle = np.argmin(np.abs(grid.delta_k))
        assert grid.transmission[middle] == pytest.approx(0.0, abs=1e-20)
        assert grid.transmission[0] > 0.9
        assert grid.transmission[-1] > 0.9

    def test_energy_conservation_everywhere(self, trivial_chain, config_ab):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.05, g=0.2, x1=5)
        grid = sweep_spectrum(config_ab, trivial_chain, emitter, np.linspace(-0.4, 0.4, 1001))
        np.testing.assert_allclose(
            grid.transmission + grid.reflection, 1.0, atol=1e-10
        )
        assert np.all(grid.transmission >= 0.0)
        assert np.all(grid.transmission <= 1.0 + 1e-12)

    def test_near_symmetric_spectrum_at_control_resonance(self, trivial_chain, config_a):
        # |t|^2 is not exactly mirror symmetric in delta_k: the probe energy
        # enters through omega_k and sin k as well, an O(delta_k/omega_e)
        # effect confirmed by the lattice oracle.  Exact symmetry survives in
        # the transmission zeros at +/- Omega/2 and the transparency point.
        # 1.5 +- 0.065 round a few ulps off the zeros, where the closed form
        # and the lattice agree on a near-zero t
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.13, g=0.2, x1=5)
        dk = np.linspace(-0.02, 0.02, 401)
        grid = sweep_spectrum(config_a, trivial_chain, emitter, dk)
        assert np.max(np.abs(grid.transmission - grid.transmission[::-1])) < 2e-3
        for sign in (+1.0, -1.0):
            omega = 1.5 + sign * 0.065
            t = transmittance(config_a, omega, trivial_chain, emitter)
            lattice = boundary_matched_solve(omega, 32, trivial_chain, emitter, config_a)
            assert abs(t) <= 1e-10 and abs(t - lattice.t_num) <= 1e-10

    def test_out_of_band_points_skipped(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.9, omega_rabi=0.0, g=0.1, x1=5)
        grid = sweep_spectrum(config_a, trivial_chain, emitter, np.linspace(-0.3, 0.3, 61))
        assert len(grid) < 61
        assert np.all(grid.delta_k + 1.9 < 2.0)

        # Grids across the outer edge, the gap edge, and (delta = 0.1) the
        # whole gap into the other band, on both bands.  The detunings are
        # multiples of 2^-6, so dk = 0 puts the energy exactly on an edge.
        # A point is kept exactly where the scalar kinematics do not raise.
        dk = np.arange(-32, 33) * 2.0**-6
        for delta, edge in ((0.5, 2.0), (0.5, 1.0), (0.1, 0.2)):
            wg = WaveguideParams(delta=delta)
            assert edge in band_edges(wg)
            for band in (Band.UPPER, Band.LOWER):
                emitter = EmitterParams(omega_e=band.sign * edge, g=0.1, x1=5)
                expected = []
                for x in dk:
                    try:
                        momentum_from_energy(emitter.omega_e + x, wg, band)
                    except ModelError:
                        continue
                    expected.append(x)
                grid = sweep_spectrum(config_a, wg, emitter, dk, band)
                np.testing.assert_array_equal(grid.delta_k, expected)
                assert 0 < len(grid) < len(dk)
                assert 0.0 not in grid.delta_k

        # The neighbours of every edge, at every scale: the grid's mask is
        # where the scalar path returns, with the same k to the bit, and the
        # scalar path's error names the energy's cause.
        for delta in (0.5, -0.5, 0.0, 1.0, -1.0):
            for J in (1.0, 2.0**-3, 1e-170, 1e300):
                wg = WaveguideParams(delta=delta, J=J)
                gap, outer = band_edges(wg)
                edges = [e * s for e in (gap, outer) for s in (1.0, -1.0)]
                omegas = np.array(
                    [np.nextafter(e, to) for e in edges for to in (-np.inf, e, np.inf)]
                )
                for band in (Band.UPPER, Band.LOWER):
                    in_band, k = momentum_grid(omegas, wg, band)
                    k_scalar = []
                    for omega, kept in zip(omegas, in_band):
                        try:
                            k_scalar.append(momentum_from_energy(float(omega), wg, band))
                        except ModelError as exc:
                            assert not kept
                            w = abs(omega)
                            if omega * band.sign <= 0.0:
                                assert type(exc) is ValidationError
                            elif w < gap or w > outer:
                                assert type(exc) is OutOfBandError
                                assert exc.code == ("gap" if w < gap else "beyond_edge")
                            else:
                                assert type(exc) is BandEdgeError
                        else:
                            assert kept
                    assert k.tolist() == k_scalar
                    assert in_band.any() == (abs(delta) != 1.0)

    @pytest.mark.parametrize("variant", [Variant.A, Variant.B, Variant.AB])
    def test_sweep_matches_scalar_amplitudes(self, variant):
        # unfiltered draws: poles, zeros and band edges are not steered clear of
        rng = np.random.default_rng(41)
        for _ in range(20):
            band = Band.UPPER if rng.random() < 0.5 else Band.LOWER
            wg = WaveguideParams(delta=float(rng.uniform(-0.8, 0.8)))
            alpha = {Variant.A: 1.0, Variant.B: 0.0}.get(variant, float(rng.uniform(0.05, 0.95)))
            emitter = EmitterParams(
                omega_e=band.sign * float(rng.uniform(0.0, 2.2)),
                delta_c=float(rng.uniform(-0.2, 0.2)),
                omega_rabi=float(rng.choice([0.0, rng.uniform(0.0, 0.5)])),
                g=float(rng.uniform(0.05, 0.4)),
                x1=int(rng.integers(1, 40)),
            )
            config = CouplingConfig(variant, alpha)
            dk = np.linspace(float(rng.uniform(-0.6, -0.1)), float(rng.uniform(0.1, 0.6)), 301)
            try:
                grid = sweep_spectrum(config, wg, emitter, dk, band)
            except EmptyGridError:
                continue
            for x, amp, refl in zip(grid.delta_k, grid.amplitude, grid.reflection):
                omega = emitter.omega_e + x
                t = transmittance(config, omega, wg, emitter, band)
                r = reflectance(config, omega, wg, emitter, band)
                assert abs(amp - t) <= 1e-13
                assert abs(refl - abs(r) ** 2) <= 1e-13

    def test_fully_out_of_band_raises(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=0.2, omega_rabi=0.0, g=0.1, x1=5)
        with pytest.raises(EmptyGridError):
            sweep_spectrum(config_a, trivial_chain, emitter, np.linspace(-0.1, 0.1, 11))

    def test_contour_zero_column_matches_spectrum(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        dk = np.linspace(-0.2, 0.2, 101)
        single = sweep_spectrum(config_a, trivial_chain, emitter, dk)
        contour = sweep_contour(config_a, trivial_chain, emitter, dk, [0.0, 0.2])
        first = contour.omega_rabi == 0.0
        np.testing.assert_array_equal(contour.transmission[first], single.transmission)

    def test_split_coupling_contours_differ_by_topology(self, config_ab):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        dk = np.linspace(-0.05, 0.05, 201)
        plus = sweep_contour(CouplingConfig(Variant.AB, 0.5), WaveguideParams(delta=0.5),
                             emitter, dk, [0.0, 0.01])
        minus = sweep_contour(CouplingConfig(Variant.AB, 0.5), WaveguideParams(delta=-0.5),
                              emitter, dk, [0.0, 0.01])
        assert np.max(np.abs(plus.transmission - minus.transmission)) > 0.1


def extract_features_loop(spectrum):
    """Reference: feature extraction as first written, with the minima
    found by a Python loop over every point and the kept dips' indices
    recovered by float equality of their positions."""
    x, t = spectrum.delta_k, spectrum.transmission
    minima = [
        i
        for i in range(1, len(t) - 1)
        if t[i] < t[i - 1] and t[i] <= t[i + 1] and t[i] < 0.5
    ]
    features = []
    for i in minima:
        depth = 1.0 - t[i]
        level = 1.0 - depth / 2.0
        left = _half_crossing(x, t, i, level, -1)
        right = _half_crossing(x, t, i, level, +1)
        if left is None or right is None:
            continue
        features.append(LineshapeFeature("dip", float(x[i]), float(depth), float(right - left),
                                         float((x[i] - left) / (right - x[i]))))
    dip_idx = [i for i in minima if any(f.position == x[i] for f in features)]
    for a, b in zip(dip_idx[:-1], dip_idx[1:]):
        if b - a < 2:
            continue
        j = a + 1 + int(np.argmax(t[a + 1 : b]))
        if t[j] <= 0.5:
            continue
        level = t[j] / 2.0
        left = _half_crossing(x, t, j, level, -1)
        right = _half_crossing(x, t, j, level, +1)
        if left is None or right is None:
            continue
        features.append(LineshapeFeature("peak", float(x[j]), float(t[j]), float(right - left),
                                         float((x[j] - left) / (right - x[j]))))
    features.sort(key=lambda f: f.position)
    return features


class TestFeatures:
    def make_grid(self, dk, t):
        dk = np.asarray(dk, dtype=float)
        return SpectrumGrid(
            delta_k=dk,
            omega_rabi=np.zeros_like(dk),
            transmission=np.asarray(t, dtype=float),
            reflection=1.0 - np.asarray(t, dtype=float),
            amplitude=np.sqrt(np.asarray(t, dtype=complex)),
        )

    def test_single_lorentzian_dip(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.1, x1=5)
        grid = sweep_spectrum(config_a, trivial_chain, emitter, np.linspace(-0.2, 0.2, 4001))
        dips = [f for f in extract_features(grid) if f.kind == "dip"]
        assert len(dips) == 1
        assert abs(dips[0].position) < 1e-4
        assert dips[0].depth == pytest.approx(1.0, abs=1e-12)
        assert dips[0].fwhm > 0.0

    def test_ats_doublet_positions(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
        grid = sweep_spectrum(config_a, trivial_chain, emitter, np.linspace(-0.35, 0.35, 10001))
        feats = extract_features(grid)
        dips = [f for f in feats if f.kind == "dip"]
        peaks = [f for f in feats if f.kind == "peak"]
        assert len(dips) == 2
        assert dips[0].position == pytest.approx(-0.2, abs=5e-3)
        assert dips[1].position == pytest.approx(0.2, abs=5e-3)
        assert len(peaks) == 1
        assert abs(peaks[0].position) < 5e-3
        assert peaks[0].depth == pytest.approx(1.0, abs=1e-10)

    def test_dip_positions_converge_with_grid(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
        for steps in (1001, 2001, 4001):
            dk = np.linspace(-0.35, 0.35, steps)
            spacing = dk[1] - dk[0]
            grid = sweep_spectrum(config_a, trivial_chain, emitter, dk)
            dips = [f for f in extract_features(grid) if f.kind == "dip"]
            worst = max(abs(abs(f.position) - 0.2) for f in dips)
            assert worst <= 0.75 * spacing

    def test_asymmetry_measures_skew(self):
        x = np.linspace(-1, 1, 2001)
        # asymmetric synthetic dip: wider left shoulder
        t = 1.0 - np.exp(-np.where(x < 0, (x / 0.2) ** 2, (x / 0.1) ** 2))
        feats = extract_features(self.make_grid(x, t))
        assert len(feats) == 1
        assert feats[0].asymmetry == pytest.approx(2.0, rel=0.05)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            extract_features(self.make_grid([0.0, 0.1], [1.0, 1.0]))

    def test_mixed_control_rows_rejected(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
        contour = sweep_contour(
            config_a, trivial_chain, emitter, np.linspace(-0.1, 0.1, 11), [0.0, 0.1]
        )
        with pytest.raises(ValidationError):
            extract_features(contour)

    def test_matches_the_loop_reference(self, trivial_chain, config_a):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(300):
            n = int(rng.integers(3, 600))
            x = np.cumsum(rng.uniform(1e-3, 1e-2, n))
            t = np.ones(n)
            for _ in range(int(rng.integers(0, 5))):
                centre, width = rng.uniform(x[0], x[-1]), rng.uniform(5e-3, 0.2)
                t *= 1.0 - rng.uniform(0.3, 1.0) / (1.0 + ((x - centre) / width) ** 2)
            if rng.random() < 0.5:
                t = np.clip(t + rng.normal(0.0, 0.02, n), 0.0, 1.0)
            if rng.random() < 0.3:
                t = np.round(t, 1)  # plateaus: equal neighbours at the minima
            grid = self.make_grid(x, t)
            expected = extract_features_loop(grid)
            assert extract_features(grid) == expected
            found += len(expected)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
        grid = sweep_spectrum(config_a, trivial_chain, emitter, np.linspace(-0.35, 0.35, 10001))
        assert extract_features(grid) == extract_features_loop(grid)
        assert found > 300

    def test_featureless_spectrum_yields_empty_list(self):
        x = np.linspace(-1, 1, 101)
        assert extract_features(self.make_grid(x, np.full_like(x, 0.9))) == []
