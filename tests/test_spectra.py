import math

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
    bloch_point,
    classify_regime,
    extract_features,
    lamb_shift,
    momentum_from_energy,
    momentum_grid,
    poles,
    reflectance,
    sweep_contour,
    sweep_spectrum,
    transmittance,
)
from sshscatter.errors import (
    BandEdgeError,
    EmptyGridError,
    ModelError,
    OutOfBandError,
    UnsupportedFeatureError,
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

    def test_detuned_control_unsupported(self, trivial_chain, config_a, resonant_k):
        emitter = EmitterParams(omega_e=1.5, delta_c=0.1, g=0.2, x1=5)
        with pytest.raises(UnsupportedFeatureError):
            poles(config_a, trivial_chain, emitter, resonant_k)


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
    def test_underflowing_coupling_reads_as_decoupled(self, trivial_chain, config_a, resonant_k, g):
        # g^2 is 0 below about 1e-162; the ratio overflows as at g = 0
        decoupled = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.0, x1=5)
        tiny = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=g, x1=5)
        out = classify_regime(config_a, trivial_chain, tiny, resonant_k)
        assert out == classify_regime(config_a, trivial_chain, decoupled, resonant_k)
        assert out.label == "ats" and out.ratio == math.inf


class TestLambShift:
    def test_single_site_unshifted(self, trivial_chain):
        assert lamb_shift(0.2, 1.0, trivial_chain) == 0.0
        assert lamb_shift(0.2, 0.0, trivial_chain) == 0.0

    def test_trivial_phase_value(self, trivial_chain):
        assert lamb_shift(0.2, 0.5, trivial_chain) == pytest.approx(1.0 / 150.0, rel=1e-12)

    def test_topological_phase_is_larger(self, topological_chain):
        assert lamb_shift(0.2, 0.5, topological_chain) == pytest.approx(0.02, rel=1e-12)


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
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.13, g=0.2, x1=5)
        dk = np.linspace(-0.02, 0.02, 401)
        grid = sweep_spectrum(config_a, trivial_chain, emitter, dk)
        assert np.max(np.abs(grid.transmission - grid.transmission[::-1])) < 2e-3
        for sign in (+1.0, -1.0):
            t = transmittance(config_a, 1.5 + sign * 0.065, trivial_chain, emitter)
            assert abs(t) == 0.0

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
