import ast
import cmath
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sshscatter.lattice
from sshscatter import (
    Band,
    CouplingConfig,
    EmitterParams,
    Variant,
    WaveguideParams,
    band_edges,
    band_phase,
    bandwidth_averaged_transmission,
    boundary_matched_solve,
    build_hamiltonian,
    evolve,
    gaussian_packet,
    momentum_from_energy,
    transmittance,
    wavepacket_transport,
)
from sshscatter.errors import (
    ChainTooShortError,
    IntegrationAccuracyError,
    PlacementError,
    PotentialSingularityError,
    ValidationError,
)
from sshscatter.lattice import (
    _BLOCK,
    _chebyshev_coefficients,
    packet_momentum_weights,
)


def dense_reference_solve(omega, n, params, emitter, config, band=Band.UPPER):
    """(t, r) from the boundary-matched system as first written: unknowns
    ordered r, interior sites, t, e, a, summed into a dense matrix with
    np.add.at and solved by np.linalg.solve."""
    k = momentum_from_energy(omega, params, band)
    phi_e = band_phase(k, omega, params)
    ham = build_hamiltonian(n, params, emitter, config)
    col = np.r_[0, 0, 1 : 2 * n - 3, 2 * n - 3, 2 * n - 3, 2 * n - 2, 2 * n - 1]
    bloch = np.array([cmath.exp(1j * phi_e), 1.0])
    factor = np.r_[cmath.exp(-1j * k) * bloch.conj(), np.ones(2 * n - 4),
                   cmath.exp(1j * k * n) * bloch, 1.0, 1.0]
    const = np.r_[cmath.exp(1j * k) * bloch, np.zeros(2 * n)]
    rows, states, vals = ham._entries()
    keep = (rows != 0) & (rows != 2 * n - 1)
    vals = (vals - omega * (rows == states))[keep]
    eqs, states = col[rows[keep]], states[keep]
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    np.add.at(mat, (eqs, col[states]), vals * factor[states])
    rhs = np.zeros(2 * n, dtype=complex)
    np.add.at(rhs, eqs, -vals * const[states])
    sol = np.linalg.solve(mat, rhs)
    return complex(sol[2 * n - 3]), complex(sol[0])


class TestBuildHamiltonian:
    def test_hermitian(self, trivial_chain, resonant_emitter, config_ab):
        ham = build_hamiltonian(20, trivial_chain, resonant_emitter, config_ab)
        assert np.max(np.abs(ham.matrix - ham.matrix.T.conj())) == 0.0

    def test_minimal_chain_structure(self, trivial_chain):
        # two cells, coupling at the first: bonds t1 (x2), t2, g, and the
        # control-field coupling, plus the two emitter level energies
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.3, g=0.2, x1=1)
        ham = build_hamiltonian(2, trivial_chain, emitter, CouplingConfig(Variant.A))
        mat = ham.matrix
        assert mat.shape == (6, 6)
        upper = [mat[i, j] for i in range(6) for j in range(i + 1, 6) if mat[i, j] != 0]
        assert len(upper) == 5
        values = sorted(abs(v) for v in upper)
        assert values == pytest.approx([0.15, 0.2, 0.5, 1.5, 1.5])
        assert mat[4, 4] == 1.5
        assert mat[5, 5] == 1.5

    def test_waveguide_block_diagonal_is_zero(self, trivial_chain, resonant_emitter):
        ham = build_hamiltonian(12, trivial_chain, resonant_emitter, CouplingConfig(Variant.B))
        assert np.all(np.diag(ham.matrix)[:24] == 0.0)

    def test_coupling_rows(self, trivial_chain):
        emitter = EmitterParams(omega_e=1.5, delta_c=0.1, omega_rabi=0.3, g=0.2, x1=4)
        ham = build_hamiltonian(10, trivial_chain, emitter, CouplingConfig(Variant.AB, 0.25))
        ie, ia = 20, 21
        assert ham.matrix[ie, ie] == 1.5
        assert ham.matrix[ia, ia] == pytest.approx(1.4)
        assert ham.matrix[ie, ia] == pytest.approx(0.15)
        assert ham.matrix[ie, 2 * 3] == pytest.approx(0.05)      # A site of cell 4
        assert ham.matrix[ie, 2 * 3 + 1] == pytest.approx(0.15)  # B site of cell 4

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("x1", [1, 5, 12])
    def test_apply_matches_matrix(self, trivial_chain, variant, x1):
        # x1 = N puts the B coupling next to the zero BN-e bond of the basis
        emitter = EmitterParams(omega_e=1.5, delta_c=0.07, omega_rabi=0.3, g=0.2, x1=x1)
        ham = build_hamiltonian(12, trivial_chain, emitter, CouplingConfig(variant, 0.3))
        rng = np.random.default_rng(x1)
        psi = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
        np.testing.assert_allclose(ham.apply(psi), ham.matrix @ psi, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_apply_leaves_its_input_untouched(self, topological_chain, variant):
        # the product is written in place into fresh storage, never into psi
        emitter = EmitterParams(omega_e=1.5, delta_c=0.07, omega_rabi=0.3, g=0.2, x1=6)
        ham = build_hamiltonian(12, topological_chain, emitter, CouplingConfig(variant, 0.3))
        rng = np.random.default_rng(5)
        for psi in (rng.normal(size=ham.dim), rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)):
            kept = psi.copy()
            np.testing.assert_allclose(ham.apply(psi), ham.matrix @ psi, rtol=0, atol=1e-14)
            assert np.array_equal(psi, kept)

    @pytest.mark.parametrize("variant,site", [(Variant.A, 0), (Variant.B, 1)])
    @pytest.mark.parametrize("x1", [1, 5, 12])
    def test_single_site_is_one_coupling_entry(self, topological_chain, variant, site, x1):
        # A and B couple both sites of cell x1 with (g, 0) and (0, g); the
        # zero coupling must leave the matrix exactly as one entry would
        emitter = EmitterParams(omega_e=1.5, delta_c=0.07, omega_rabi=0.3, g=0.2, x1=x1)
        ham = build_hamiltonian(12, topological_chain, emitter, CouplingConfig(variant))
        ref = np.zeros((26, 26))
        i = np.arange(23)
        ref[i, i + 1] = ref[i + 1, i] = np.where(i % 2, -topological_chain.t2, -topological_chain.t1)
        ref[24, 24], ref[25, 25] = emitter.omega_e, emitter.omega_a
        ref[24, 25] = ref[25, 24] = emitter.omega_rabi / 2.0
        ref[24, 2 * x1 - 2 + site] = ref[2 * x1 - 2 + site, 24] = emitter.g
        assert np.array_equal(ham.matrix, ref)

    def test_placement_outside_chain_rejected(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=21)
        with pytest.raises(PlacementError):
            build_hamiltonian(20, trivial_chain, emitter, config_a)

    def test_decoupled_waveguide_spectrum_fills_bands(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.0, x1=50)
        ham = build_hamiltonian(100, trivial_chain, emitter, config_a)
        vals = np.linalg.eigvalsh(ham.matrix[:200, :200])
        assert np.min(np.abs(vals)) > 1.0 - 1e-9
        assert np.max(np.abs(vals)) < 2.0 + 1e-9
        # band edges are approached as the chain grows
        assert np.min(np.abs(vals)) - 1.0 < 5e-3
        assert 2.0 - np.max(np.abs(vals)) < 5e-3


class TestBoundaryMatchedSolve:
    def test_derived_midband_point(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=11)
        omega = math.sqrt(2.5)
        sol = boundary_matched_solve(omega, 24, trivial_chain, emitter, config_a)
        t_closed = transmittance(config_a, omega, trivial_chain, emitter)
        assert abs(sol.t_num) ** 2 == pytest.approx(0.787, abs=1e-3)
        assert abs(sol.t_num - t_closed) < 1e-10
        assert sol.residual < 1e-10

    def test_transparent_point(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=11)
        sol = boundary_matched_solve(1.5, 24, trivial_chain, emitter, config_a)
        assert abs(sol.t_num - 1.0) < 1e-10
        assert abs(sol.r_num) < 1e-10

    def test_flux_conservation(self, trivial_chain, config_ab):
        emitter = EmitterParams(omega_e=1.5, delta_c=0.07, omega_rabi=0.23, g=0.3, x1=9)
        for omega in (1.1, 1.45, 1.8):
            sol = boundary_matched_solve(omega, 28, trivial_chain, emitter, config_ab)
            assert abs(abs(sol.t_num) ** 2 + abs(sol.r_num) ** 2 - 1.0) < 1e-10

    @pytest.mark.parametrize("delta", [0.5, -0.5])
    def test_split_coupling_grid_agreement(self, delta, config_ab):
        # 50-point arbitration grid for the two-site closed form
        wg = WaveguideParams(delta=delta)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.02, g=0.2, x1=10)
        worst = 0.0
        for dk in np.linspace(-0.4, 0.4, 50):
            omega = 1.5 + float(dk)
            t_closed = transmittance(config_ab, omega, wg, emitter)
            sol = boundary_matched_solve(omega, 24, wg, emitter, config_ab)
            worst = max(worst, abs(t_closed - sol.t_num))
        assert worst < 1e-10

    def test_lower_band(self, trivial_chain, config_b):
        emitter = EmitterParams(omega_e=-1.5, omega_rabi=0.11, g=0.2, x1=10)
        omega = -1.63
        sol = boundary_matched_solve(omega, 24, trivial_chain, emitter, config_b, Band.LOWER)
        t_closed = transmittance(config_b, omega, trivial_chain, emitter, Band.LOWER)
        assert abs(sol.t_num - t_closed) < 1e-10

    def test_coupling_cell_shift_leaves_magnitude(self, trivial_chain, config_ab):
        base = EmitterParams(omega_e=1.5, omega_rabi=0.1, g=0.25, x1=10)
        shifted = EmitterParams(omega_e=1.5, omega_rabi=0.1, g=0.25, x1=11)
        a = boundary_matched_solve(1.6, 28, trivial_chain, base, config_ab)
        b = boundary_matched_solve(1.6, 28, trivial_chain, shifted, config_ab)
        assert abs(abs(a.t_num) - abs(b.t_num)) < 1e-10

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("band", list(Band))
    def test_independent_of_chain_length(self, variant, band):
        # boundary matching is exact at any length, so N = 32 (dense LU)
        # and 128 up to 4096 (band solve) must give one answer
        wg = WaveguideParams(delta=0.35)
        emitter = EmitterParams(
            omega_e=1.42 * band.sign, delta_c=0.06, omega_rabi=0.17, g=0.27, x1=9
        )
        config = CouplingConfig(variant, 0.35)
        sols = [
            boundary_matched_solve(1.55 * band.sign, n, wg, emitter, config, band)
            for n in (32, 128, 512, 1024, 4096)
        ]
        for sol in sols:
            assert sol.residual < 1e-10
            assert abs(sol.t_num - sols[0].t_num) < 1e-10
            assert abs(sol.r_num - sols[0].r_num) < 1e-10
        assert abs(abs(sols[0].t_num) ** 2 + abs(sols[0].r_num) ** 2 - 1.0) < 1e-10

    @pytest.mark.parametrize("solve", ["crossover", "band_everywhere"])
    @pytest.mark.parametrize("n", [8, 24, 32, 48, 96, 128])
    @pytest.mark.parametrize("band", list(Band))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_dense_reference(self, monkeypatch, variant, band, n, solve):
        # N = 8 .. 48 lie below the crossover and 96, 128 above it; taking
        # the band solve everywhere also puts e and a next to either end
        assert 48 < sshscatter.lattice._BAND_SOLVE_MIN_CELLS <= 96
        if solve == "band_everywhere":
            monkeypatch.setattr(sshscatter.lattice, "_BAND_SOLVE_MIN_CELLS", 0)
        config = CouplingConfig(variant, 0.35)
        for delta in (0.35, -0.35):
            wg = WaveguideParams(delta=delta)
            for x1 in (4, n - 3):
                emitter = EmitterParams(
                    omega_e=1.42 * band.sign, delta_c=0.06, omega_rabi=0.17, g=0.27, x1=x1
                )
                args = (1.55 * band.sign, n, wg, emitter, config, band)
                sol = boundary_matched_solve(*args)
                t_ref, r_ref = dense_reference_solve(*args)
                assert abs(sol.t_num - t_ref) < 1e-12
                assert abs(sol.r_num - r_ref) < 1e-12
                assert sol.residual < 1e-12

    @pytest.mark.parametrize("band", list(Band))
    @pytest.mark.parametrize("fraction", [1e-8, 1e-4, 1 - 1e-4, 1 - 1e-8])
    @pytest.mark.parametrize("delta", [0.35, -0.35, 0.05, -0.9])
    def test_near_band_edges(self, delta, fraction, band):
        # 1e-8 and 1e-4 of the band width from the gap edge and from the
        # outer edge, where the incoming and reflected waves nearly coincide
        wg = WaveguideParams(delta=delta)
        gap, outer = band_edges(wg)
        omega = band.sign * (gap + fraction * (outer - gap))
        emitter = EmitterParams(omega_e=omega, delta_c=0.06, omega_rabi=0.17, g=0.27, x1=9)
        for variant in Variant:
            config = CouplingConfig(variant, 0.35)
            short, long = (
                boundary_matched_solve(omega, n, wg, emitter, config, band) for n in (32, 512)
            )
            assert short.residual < 1e-12
            assert long.residual < 1e-12
            assert abs(long.t_num - short.t_num) < 1e-10
            assert abs(long.r_num - short.r_num) < 1e-10

    @pytest.mark.parametrize("n", [24, 96])
    @pytest.mark.parametrize("g", [0.0, 0.2])
    def test_singular_system_raises(self, trivial_chain, config_ab, n, g):
        # undriven and probed on the metastable level: the row of a is zero
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=g, x1=10)
        with pytest.raises(PotentialSingularityError):
            boundary_matched_solve(1.5, n, trivial_chain, emitter, config_ab)

    def test_long_chain_memory(self, trivial_chain, config_ab):
        # the band solve holds O(N) numbers; the dense matrix at N = 4096
        # alone would take 1 GB
        emitter = EmitterParams(omega_e=1.5, delta_c=0.07, omega_rabi=0.23, g=0.3, x1=9)
        boundary_matched_solve(1.6, 64, trivial_chain, emitter, config_ab)
        tracemalloc.start()
        try:
            boundary_matched_solve(1.6, 4096, trivial_chain, emitter, config_ab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_edge_placement_rejected(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=2)
        with pytest.raises(PlacementError):
            boundary_matched_solve(1.6, 24, trivial_chain, emitter, config_a)


class TestEvolve:
    def test_zero_time_is_identity(self, trivial_chain, resonant_emitter, config_a):
        ham = build_hamiltonian(12, trivial_chain, resonant_emitter, config_a)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=26) + 1j * rng.normal(size=26)
        psi /= np.linalg.norm(psi)
        np.testing.assert_allclose(evolve(psi, ham, 0.0), psi, atol=1e-12)

    def test_eigenvector_acquires_pure_phase(self, trivial_chain, resonant_emitter, config_a):
        ham = build_hamiltonian(12, trivial_chain, resonant_emitter, config_a)
        vals, vecs = np.linalg.eigh(ham.matrix)
        v = vecs[:, 7]
        out = evolve(v, ham, 3.7)
        overlap = np.vdot(v, out)
        assert abs(abs(overlap) - 1.0) < 1e-10
        assert overlap == pytest.approx(np.exp(-1j * vals[7] * 3.7), abs=1e-10)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("t", [0.0, 3.7, 50.0, 500.0])
    def test_matches_eigh_reference(self, topological_chain, variant, t):
        emitter = EmitterParams(omega_e=1.5, delta_c=0.05, omega_rabi=0.3, g=0.4, x1=6)
        ham = build_hamiltonian(12, topological_chain, emitter, CouplingConfig(variant, 0.3))
        rng = np.random.default_rng(17)
        psi = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
        psi /= np.linalg.norm(psi)
        vals, vecs = np.linalg.eigh(ham.matrix)
        reference = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi))
        np.testing.assert_allclose(evolve(psi, ham, t), reference, rtol=0, atol=1e-10)

    def test_steps_compose(self, trivial_chain, config_ab):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.3, x1=20)
        ham = build_hamiltonian(40, trivial_chain, emitter, config_ab)
        psi = gaussian_packet(1.5, 4.0, 12, trivial_chain, 40)
        two_steps = evolve(evolve(psi, ham, 13.1), ham, 29.4)
        np.testing.assert_allclose(two_steps, evolve(psi, ham, 42.5), rtol=0, atol=1e-12)

    @staticmethod
    def _time_for_terms(ham, n):
        """The shortest time whose expansion keeps exactly n terms."""
        count = lambda x: len(_chebyshev_coefficients.__wrapped__(x))
        lo, hi = 0.0, float(n)
        for _ in range(80):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if count(mid) < n else (lo, mid)
        assert count(hi) == n
        return hi / ham._chebyshev[1]

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n_terms", [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2])
    def test_block_boundaries_match_eigh(self, topological_chain, variant, n_terms):
        # the terms are summed a block of _BLOCK at a time: a sum that ends
        # just before, at and just after a block boundary must lose nothing.
        # Two terms is the fewest the truncation keeps, which t = 0 also gets
        emitter = EmitterParams(omega_e=1.5, delta_c=0.05, omega_rabi=0.3, g=0.4, x1=6)
        ham = build_hamiltonian(12, topological_chain, emitter, CouplingConfig(variant, 0.3))
        rng = np.random.default_rng(23)
        psi = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
        psi /= np.linalg.norm(psi)
        vals, vecs = np.linalg.eigh(ham.matrix)
        assert len(_chebyshev_coefficients(0.0)) == 2
        for t in (0.0, self._time_for_terms(ham, n_terms)):
            reference = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi))
            np.testing.assert_allclose(evolve(psi, ham, t), reference, rtol=0, atol=1e-12)

    def test_coefficients_are_memoised_read_only(self):
        coeffs = _chebyshev_coefficients(12.5)
        assert _chebyshev_coefficients(12.5) is coeffs
        with pytest.raises(ValueError):
            coeffs[0] = 0.0

    def test_memory_does_not_grow_with_the_terms(self, trivial_chain, config_ab):
        # about 3300 terms of 1202 complex entries: keeping them all would
        # take about 60 MB, the fixed block of _BLOCK terms well under 1 MB
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=300)
        ham = build_hamiltonian(600, trivial_chain, emitter, config_ab)
        psi = gaussian_packet(1.5, 20.0, 200, trivial_chain, 600)
        assert len(_chebyshev_coefficients(ham._chebyshev[1] * 1500.0)) > 3000
        _chebyshev_coefficients.cache_clear()
        tracemalloc.start()
        try:
            evolve(psi, ham, 1500.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("variant", list(Variant))
    def test_set_up_is_built_once_and_cannot_go_stale(self, topological_chain, variant):
        # apply and evolve read what they need of H from values the
        # Hamiltonian keeps; its arrays are read-only, so those values
        # stay H's, and a reused Hamiltonian answers as a fresh one does
        emitter = EmitterParams(omega_e=1.5, delta_c=0.05, omega_rabi=0.3, g=0.4, x1=6)
        config = CouplingConfig(variant, 0.3)
        ham = build_hamiltonian(12, topological_chain, emitter, config)
        for field in (ham.onsite, ham.bonds, ham.sites, ham.couplings):
            with pytest.raises(ValueError):
                field[0] = 1
        rng = np.random.default_rng(29)
        psi = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
        psi /= np.linalg.norm(psi)
        first, second = evolve(psi, ham, 3.7), evolve(psi, ham, 41.0)
        assert ham._chebyshev is ham._chebyshev and ham._stencil is ham._stencil

        def fresh():
            return build_hamiltonian(12, topological_chain, emitter, config)

        assert np.array_equal(evolve(psi, fresh(), 3.7), first)
        assert np.array_equal(evolve(psi, fresh(), 41.0), second)
        assert np.array_equal(evolve(psi, ham, 3.7), first)
        assert np.array_equal(ham.apply(psi), fresh().apply(psi))

    def test_long_run_norm(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=200)
        ham = build_hamiltonian(400, trivial_chain, emitter, config_a)
        psi = gaussian_packet(1.5, 20.0, 120, trivial_chain, 400)
        out = evolve(psi, ham, 500.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-8


class TestGaussianPacket:
    def test_matches_direct_momentum_sum(self, trivial_chain):
        n, center = 400, 120
        k, weights = packet_momentum_weights(1.5, 20.0, n)
        phi = np.angle(-trivial_chain.t1 - trivial_chain.t2 * np.exp(-1j * k))
        phases = np.exp(1j * np.outer(k, np.arange(1, n + 1) - center))
        direct = np.zeros(2 * n + 2, dtype=complex)
        direct[0 : 2 * n : 2] = phases.T @ weights
        direct[1 : 2 * n : 2] = phases.T @ (weights * np.exp(-1j * phi))
        direct /= np.linalg.norm(direct)
        packet = gaussian_packet(1.5, 20.0, center, trivial_chain, n)
        np.testing.assert_allclose(packet, direct, rtol=0, atol=1e-12)


class TestWavepacket:
    def test_free_propagation(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.0, x1=200)
        k0 = momentum_from_energy(1.62, trivial_chain)
        run = wavepacket_transport(k0, 20.0, 400, trivial_chain, emitter, config_a)
        assert run.transmitted > 0.999
        assert run.norm_drift < 1e-8
        assert run.transmitted + run.reflected + run.residual <= 1.0 + 1e-8

    def test_resonant_mirror(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.4, x1=200)
        k0 = momentum_from_energy(1.5, trivial_chain)
        run = wavepacket_transport(k0, 20.0, 400, trivial_chain, emitter, config_a)
        assert run.transmitted < 0.05
        avg = bandwidth_averaged_transmission(config_a, trivial_chain, emitter, k0, 20.0, 400)
        assert abs(run.transmitted - avg) < 2e-2

    def test_split_transparency(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=200)
        k0 = momentum_from_energy(1.5, trivial_chain)
        run = wavepacket_transport(k0, 20.0, 400, trivial_chain, emitter, config_a)
        avg = bandwidth_averaged_transmission(config_a, trivial_chain, emitter, k0, 20.0, 400)
        assert run.transmitted > 0.95
        assert abs(run.transmitted - avg) < 2e-2

    @pytest.mark.parametrize("exponent", [-50, 600])
    def test_exact_under_power_of_two_scale(self, config_ab, exponent):
        # the group velocity and the packet's Bloch phases are formed in
        # units of J, so at J = 2^n every energy, time and step scales exactly
        def transmitted(j):
            wg = WaveguideParams(delta=-0.5, J=j)
            emitter = EmitterParams(omega_e=1.5 * j, omega_rabi=0.4 * j, g=0.2 * j, x1=200)
            k0 = momentum_from_energy(1.5 * j, wg)
            return wavepacket_transport(k0, 20.0, 400, wg, emitter, config_ab).transmitted

        assert transmitted(2.0**exponent) == transmitted(1.0)

    def test_repeated_runs_are_identical(self, trivial_chain, topological_chain, config_ab):
        # the memoised coefficients must not make a run depend on the runs before it
        def run(chain, omega_rabi):
            emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2, x1=200)
            k0 = momentum_from_energy(1.62, chain)
            return wavepacket_transport(k0, 20.0, 400, chain, emitter, config_ab)

        first = run(trivial_chain, 0.4)
        run(topological_chain, 0.0)
        assert run(trivial_chain, 0.4) == first

    @pytest.mark.parametrize("n_cells, error, steps", [
        (600, ChainTooShortError, r"after \d+ steps"),
        (1500, IntegrationAccuracyError, "after 64 steps"),
    ])
    def test_resonant_topological_run_names_its_time(self, trivial_chain, n_cells, error, steps):
        # two-site coupling on delta = +0.5 at resonance decays too slowly for
        # the step budget: on 600 cells the packet reaches a chain end first
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=n_cells // 2)
        k0 = momentum_from_energy(1.5, trivial_chain)
        with pytest.raises(error, match=rf"t = \d+(\.\d+)? {steps}"):
            wavepacket_transport(k0, 20.0, n_cells, trivial_chain, emitter,
                                 CouplingConfig(Variant.AB, 0.5))

    def test_carrier_outside_window_rejected(self, trivial_chain, resonant_emitter, config_a):
        with pytest.raises(ValidationError):
            wavepacket_transport(0.05, 20.0, 400, trivial_chain, resonant_emitter, config_a)

    def test_narrow_chain_rejected(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=40)
        with pytest.raises(ValidationError):
            wavepacket_transport(1.5, 20.0, 80, trivial_chain, emitter, config_a)

    def test_emitter_too_close_to_end(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=350)
        with pytest.raises(ChainTooShortError):
            wavepacket_transport(1.5, 20.0, 400, trivial_chain, emitter, config_a)

    @pytest.mark.parametrize("sigma_x", [math.nan, math.inf, 0.0, -1.0, -math.inf])
    def test_bad_packet_width_is_named(self, trivial_chain, config_a, sigma_x):
        # nan used to fail in int(round(...)); 0 and -1 ran to the step budget
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=200)
        with pytest.raises(ValidationError, match=r"\bsigma_x\b"):
            wavepacket_transport(1.5, sigma_x, 400, trivial_chain, emitter, config_a)
        with pytest.raises(ValidationError, match=r"\bsigma_x\b"):
            bandwidth_averaged_transmission(config_a, trivial_chain, emitter, 1.5, sigma_x, 400)


def test_oracle_does_not_import_scattering_code():
    # the lattice oracle must stay an independent route: no imports from the
    # transfer-matrix / closed-form module
    source = ast.parse(Path(sshscatter.lattice.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(source):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert not any("scattering" in name for name in imported)
    assert not any("spectra" in name for name in imported)
