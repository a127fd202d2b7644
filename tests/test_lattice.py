import ast
import cmath
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sshscatter.lattice
from sshscatter import (
    Band,
    CouplingConfig,
    EmitterParams,
    LatticeHamiltonian,
    ScatterSolution,
    Variant,
    WaveguideParams,
    amplitude_grid,
    band_edges,
    band_phase,
    bandwidth_averaged_transmission,
    boundary_matched_solve,
    build_hamiltonian,
    evolve,
    gaussian_packet,
    momentum_from_energy,
    momentum_grid,
    transmittance,
    validate,
    wavepacket_transport,
)
from sshscatter.errors import (
    BandEdgeError,
    ChainTooShortError,
    PlacementError,
    PotentialSingularityError,
    ValidationError,
)
from sshscatter.lattice import (
    _BLOCK,
    _chebyshev_coefficients,
    packet_momentum_weights,
)
from sshscatter.validation import _PACKET_SETTINGS, _packet_cells


def _gershgorin(ham):
    """(lo, hi): the Gershgorin bounds of H's spectrum."""
    rows, cols, vals = ham._entries()
    radius = np.bincount(rows, weights=np.abs(vals) * (rows != cols), minlength=ham.dim)
    return float(np.min(ham.onsite - radius)), float(np.max(ham.onsite + radius))


def _apply_by_entries(ham, psi):
    """H psi summed from the stored entries: the diagonal, each bond to the
    right, each bond to the left, then the couplings into e and out of it,
    the order in which :meth:`LatticeHamiltonian.apply` adds its terms."""
    psi = np.asarray(psi, dtype=complex)
    out = psi * ham.onsite
    head, tail = out[..., :-1], out[..., 1:]
    head += ham.bonds * psi[..., 1:]
    tail += ham.bonds * psi[..., :-1]
    lo = int(ham.sites[0])
    emitter, sites = out[..., -2], out[..., lo : lo + 2]
    emitter += psi[..., lo : lo + 2] @ ham.couplings
    sites += psi[..., -2:-1] * ham.couplings
    return out


def _random_hamiltonian(rng, n, x1):
    variant = Variant(("A", "B", "AB")[int(rng.integers(3))])
    omega_e, delta_c, omega_rabi, g, delta = rng.uniform((-4, -0.3, 0, 0, -0.9), (4, 0.3, 0.6, 0.6, 0.9))
    emitter = EmitterParams(float(omega_e), float(delta_c), float(omega_rabi), float(g), x1)
    alpha = float(rng.uniform(0.1, 0.9)) if variant is Variant.AB else None
    return build_hamiltonian(n, WaveguideParams(float(delta)), emitter, CouplingConfig(variant, alpha))


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
        # a stack of states is applied along its last axis, each as alone
        stack = rng.normal(size=(2, 3, ham.dim)) + 1j * rng.normal(size=(2, 3, ham.dim))
        np.testing.assert_allclose(ham.apply(stack), stack @ ham.matrix.T, rtol=0, atol=1e-14)
        assert np.array_equal(ham.apply(stack)[1, 2], ham.apply(stack[1, 2]))

    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    def test_apply_is_the_sum_of_the_entries_bit_for_bit(self, n):
        # the stencil adds the same products in the same order as a sum over
        # the stored entries, so the two agree exactly, one state or a stack
        rng = np.random.default_rng(n)
        for x1 in sorted({1, (n + 1) // 2, n}):
            ham = _random_hamiltonian(rng, n, x1)
            psi = rng.normal(size=(4, ham.dim)) + 1j * rng.normal(size=(4, ham.dim))
            psi *= 10.0 ** rng.integers(-8, 8, size=psi.shape)
            assert np.array_equal(ham.apply(psi), _apply_by_entries(ham, psi))
            for state in psi:
                assert np.array_equal(ham.apply(state), _apply_by_entries(ham, state))

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

    def test_holds_its_numbers(self, topological_chain):
        # H/J is the named tuple of the numbers it is made of: two hoppings,
        # the two levels, the drive, the coupling cell and its couplings
        emitter = EmitterParams(omega_e=1.5, delta_c=0.125, omega_rabi=0.25, g=0.5, x1=4)
        ham = build_hamiltonian(10, topological_chain, emitter, CouplingConfig(Variant.AB, 0.25))
        assert ham == LatticeHamiltonian(10, 0.5, 1.5, 1.5, 1.375, 0.125, 4, 0.125, 0.375)
        assert ham.dim == 22 and hash(ham) == hash(build_hamiltonian(
            10, topological_chain, emitter, CouplingConfig(Variant.AB, 0.25)))

    def test_allocates_nothing_that_grows_with_the_chain(self, trivial_chain, config_ab):
        # H is held as its numbers: stored as 2N + 2 on-site and 2N + 1 bond
        # entries it would take about 33 MB at 2^20 cells
        emitter = EmitterParams(omega_e=1.5, delta_c=0.07, omega_rabi=0.23, g=0.3, x1=9)
        build_hamiltonian(64, trivial_chain, emitter, config_ab)
        tracemalloc.start()
        try:
            ham = build_hamiltonian(2**20, trivial_chain, emitter, config_ab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e3
        assert ham.dim == 2**21 + 2

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

    @pytest.mark.parametrize("j", [0.7, 2.0**-1000, 2.0**1023], ids=["0.7", "2^-1000", "2^1023"])
    def test_matrix_is_in_units_of_j(self, topological_chain, j):
        # every route reads H/J: the hoppings are -(1 +- delta) and each
        # energy is its ratio to J, so at J = 2^n the matrix is the J = 1
        # one exactly, where omega_a = 2 J would overflow in absolute units
        emitter = EmitterParams(omega_e=1.875, delta_c=-0.125, omega_rabi=0.3, g=0.2, x1=4)
        config = CouplingConfig(Variant.AB, 0.3)
        unit = build_hamiltonian(10, topological_chain, emitter, config).matrix
        scaled = build_hamiltonian(
            10, WaveguideParams(delta=-0.5, J=j),
            EmitterParams(omega_e=1.875 * j, delta_c=-0.125 * j, omega_rabi=0.3 * j,
                          g=0.2 * j, x1=4), config).matrix
        if math.log2(j).is_integer():
            assert np.array_equal(scaled, unit)
        else:
            np.testing.assert_allclose(scaled, unit, rtol=1e-15, atol=0)
        assert np.all(np.diag(scaled, 1)[:19] == np.where(np.arange(19) % 2, -1.5, -0.5))


class TestCouplingCellIndex:
    """Both lattice routes take x1 as ``params.validate`` does: an integral
    value is that cell, anything else a ValidationError naming x1."""

    @staticmethod
    def _emitter(x1):
        return EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=x1)

    def test_integral_float_is_the_cell(self, trivial_chain, config_a):
        # 200.0 passes validate; it used to end in IndexError in the
        # transport and TypeError in the solve
        validate(trivial_chain, self._emitter(200.0), config_a)
        def solve(omega, x1):
            return boundary_matched_solve(omega, 400, trivial_chain, self._emitter(x1), config_a)

        assert solve(1.6, 200.0) == solve(1.6, 200)
        for a, b in zip(solve(np.array([1.45, 1.6]), 200.0), solve(np.array([1.45, 1.6]), 200)):
            assert np.array_equal(a, b)
        k0 = momentum_from_energy(1.5, trivial_chain)
        runs = [wavepacket_transport(k0, 20.0, 400, trivial_chain, self._emitter(x1), config_a)
                for x1 in (200, 200.0, np.int64(200))]
        assert runs[1] == runs[0] == runs[2] and runs[1].x1 == 200
        assert isinstance(runs[1].x1, int)

    @pytest.mark.parametrize("x1", [200.5, math.nan, math.inf, True, "200"])
    def test_other_values_are_named(self, trivial_chain, config_a, x1):
        emitter = self._emitter(x1)
        k0 = momentum_from_energy(1.5, trivial_chain)
        calls = [
            lambda: validate(trivial_chain, emitter, config_a),
            lambda: build_hamiltonian(400, trivial_chain, emitter, config_a),
            lambda: boundary_matched_solve(1.6, 400, trivial_chain, emitter, config_a),
            lambda: boundary_matched_solve(np.array([1.6]), 400, trivial_chain, emitter,
                                           config_a),
            lambda: wavepacket_transport(k0, 20.0, 400, trivial_chain, emitter, config_a),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=r"^x1 must be an integer cell index"):
                call()


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
        # boundary matching is exact at any length, so N = 32 up to 4096
        # must give one answer, and the residual checks the Bloch waves
        # on every free row of the longest chain too
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

    @pytest.mark.parametrize("n", [8, 24, 32, 48, 96, 128])
    @pytest.mark.parametrize("band", list(Band))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_dense_reference(self, variant, band, n):
        # the six-unknown solve against all 2N chain unknowns solved at
        # once, with the coupling cell next to either end of the chain
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

    @pytest.mark.parametrize("g", [0.27, 0.0])
    @pytest.mark.parametrize("band", list(Band))
    @pytest.mark.parametrize("fraction", [1e-8, 1e-4, 1 - 1e-4, 1 - 1e-8])
    @pytest.mark.parametrize("delta", [0.35, -0.35, 0.05, -0.9])
    def test_near_band_edges(self, delta, fraction, band, g):
        # 1e-8 and 1e-4 of the band width from the gap edge and from the
        # outer edge, where the incoming and reflected waves nearly coincide
        wg = WaveguideParams(delta=delta)
        gap, outer = band_edges(wg)
        omega = band.sign * (gap + fraction * (outer - gap))
        emitter = EmitterParams(omega_e=omega, delta_c=0.06, omega_rabi=0.17, g=g, x1=9)
        for variant in Variant:
            config = CouplingConfig(variant, 0.35)
            t = transmittance(config, omega, wg, emitter, band)
            short, long = (
                boundary_matched_solve(omega, n, wg, emitter, config, band) for n in (32, 512)
            )
            assert short.residual < 1e-12
            assert long.residual < 1e-12
            assert abs(short.t_num - t) < 1e-10
            assert abs(long.t_num - t) < 1e-10
            assert abs(long.t_num - short.t_num) < 1e-10
            assert abs(long.r_num - short.r_num) < 1e-10

    @pytest.mark.parametrize("n", [24, 96])
    @pytest.mark.parametrize("g", [0.0, 0.2])
    @pytest.mark.parametrize("delta_c", [0.0, 0.05])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_undriven_emitter_matches_closed_form(self, trivial_chain, variant, delta_c, g, n):
        # at Omega = 0 level a has no path to the chain, nor has e at g = 0:
        # probed on their own energies their rows would be empty, so they are
        # pinned to psi = 0.  At omega = omega_e = omega_a single-site
        # coupling is the perfect mirror t = 0; g = 0 gives t = 1
        config = CouplingConfig(variant)
        emitter = EmitterParams(omega_e=1.5, delta_c=delta_c, omega_rabi=0.0, g=g, x1=10)
        for omega in (1.5, 1.5 - delta_c):
            sol = boundary_matched_solve(omega, n, trivial_chain, emitter, config)
            t = transmittance(config, omega, trivial_chain, emitter)
            assert abs(sol.t_num - t) < 1e-10
            assert sol.residual < 1e-12
        if g == 0.0:
            assert t == 1.0

    @pytest.mark.parametrize("n", [24, 96])
    def test_uncoupled_driven_emitter_is_transparent(self, trivial_chain, config_ab, n):
        # at g = 0 e and a form a closed pair: probed on one of its levels,
        # omega_e +- Omega/2, its rows would be singular; both are pinned
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.0, x1=10)
        for omega in (1.3, 1.7):
            sol = boundary_matched_solve(omega, n, trivial_chain, emitter, config_ab)
            assert abs(sol.t_num - 1.0) < 1e-10 and sol.residual < 1e-12

    def test_long_chain_memory(self, trivial_chain, config_ab):
        # the solve holds O(N) numbers; a dense matrix of the whole chain
        # at N = 4096 alone would take 1 GB.  Over 4096 energies the states
        # are held a chunk of _CHUNK entries at a time: all at once, each
        # array of them would take 537 MB
        emitter = EmitterParams(omega_e=1.5, delta_c=0.07, omega_rabi=0.23, g=0.3, x1=9)
        for omega in (1.6, np.linspace(1.01, 1.99, 4096)):
            boundary_matched_solve(omega, 64, trivial_chain, emitter, config_ab)
            tracemalloc.start()
            try:
                boundary_matched_solve(omega, 4096, trivial_chain, emitter, config_ab)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6

    def test_edge_placement_rejected(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=2)
        for omega in (1.6, np.array([1.6, 1.7])):
            with pytest.raises(PlacementError):
                boundary_matched_solve(omega, 24, trivial_chain, emitter, config_a)

    @pytest.mark.parametrize("n_cells", [8.0, 24.5, 1.5, math.nan, math.inf, True, "24"])
    def test_non_integer_chain_length_is_named(self, trivial_chain, config_a, n_cells):
        # 8.0 used to end in numpy's TypeError inside build_hamiltonian
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=4)
        for omega in (1.6, np.array([1.6, 1.7])):
            with pytest.raises(ValidationError, match=r"\bn_cells\b"):
                boundary_matched_solve(omega, n_cells, trivial_chain, emitter, config_a)
        with pytest.raises(ValidationError, match=r"\bn_cells\b"):
            build_hamiltonian(n_cells, trivial_chain, emitter, config_a)

    def test_numpy_integer_chain_length_accepted(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=11)
        sol = boundary_matched_solve(1.6, np.int64(24), trivial_chain, emitter, config_a)
        assert sol == boundary_matched_solve(1.6, 24, trivial_chain, emitter, config_a)


def _readme_recipes():
    """The README's headline spectra as (chain, emitter, coupling, energies):
    mirror and transparency, the strong-drive doublet and the topological
    Fano line on both signs of delta, on the CLI's grids."""
    a, ab = CouplingConfig(Variant.A), CouplingConfig(Variant.AB, 0.5)
    recipes = {
        f"eit-{rabi}": (0.5, a, rabi, np.linspace(-0.2, 0.2, 401)) for rabi in (0.0, 0.2)
    }
    recipes["ats"] = (0.5, a, 0.4, np.linspace(-0.35, 0.35, 10001))
    for delta in (0.5, -0.5):
        recipes[f"fano{delta:+}"] = (delta, ab, 0.0045, np.linspace(-0.03, 0.05, 8001))
    return {
        name: (WaveguideParams(delta=delta),
               EmitterParams(omega_e=1.5, omega_rabi=rabi, g=0.2, x1=5), config, 1.5 + dk)
        for name, (delta, config, rabi, dk) in recipes.items()
    }


_RECIPES = _readme_recipes()


class TestArraySolve:
    @pytest.mark.parametrize("name", list(_RECIPES))
    def test_readme_recipes_match_closed_form(self, name):
        # every in-band point of the README's spectra, checked on the lattice
        wg, emitter, config, omega = _RECIPES[name]
        in_band, t_closed, _ = amplitude_grid(config, omega, wg, emitter)
        solved, t, r, residual = boundary_matched_solve(omega, 32, wg, emitter, config)
        # no recipe energy is singular: none is masked beyond the band
        assert np.flatnonzero(in_band & ~solved).tolist() == []
        assert np.max(np.abs(t - t_closed)) < 1e-10
        assert np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)) < 1e-10
        assert np.max(residual) < 1e-12

    @pytest.mark.parametrize("band", list(Band))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_mask_is_the_momentum_grids(self, variant, band):
        # grids across the gap edge and the outer edge, the edges themselves,
        # energies of the other band's sign and nan: solved where k exists
        wg = WaveguideParams(delta=0.35)
        gap, outer = band_edges(wg)
        omega = band.sign * np.r_[np.linspace(gap - 0.05, gap + 0.05, 101),
                                  np.linspace(outer - 0.05, outer + 0.05, 101),
                                  gap, outer, 0.0, -1.5, math.nan]
        emitter = EmitterParams(omega_e=1.42 * band.sign, delta_c=0.06, omega_rabi=0.17,
                                g=0.27, x1=9)
        config = CouplingConfig(variant, 0.35)
        solved, t, r, residual = boundary_matched_solve(omega, 32, wg, emitter, config, band)
        in_band, _ = momentum_grid(omega, wg, band)
        assert np.array_equal(solved, in_band)
        assert 0 < solved.sum() < len(omega)
        assert t.shape == r.shape == residual.shape == (solved.sum(),)
        assert np.max(residual) < 1e-12

    @pytest.mark.parametrize("g,omega_rabi", [(0.2, 0.0), (0.0, 0.0), (0.0, 0.4), (0.2, 0.4)])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_elements_match_the_scalar_call(self, trivial_chain, variant, g, omega_rabi):
        # pinned levels (no drive, no coupling) inside an array, probed on
        # the emitter's levels omega_e, omega_a and omega_e +- Omega/2 and
        # across the band; each element is the scalar call's answer
        config = CouplingConfig(variant, 0.35)
        emitter = EmitterParams(omega_e=1.5, delta_c=0.05, omega_rabi=omega_rabi, g=g, x1=10)
        omega = np.r_[1.5, 1.45, 1.3, 1.7, np.linspace(1.01, 1.99, 60)]
        solved, t, r, residual = boundary_matched_solve(omega, 24, trivial_chain, emitter, config)
        assert solved.all()
        for i, w in enumerate(omega):
            sol = boundary_matched_solve(w, 24, trivial_chain, emitter, config)
            assert abs(t[i] - sol.t_num) < 1e-14
            assert abs(r[i] - sol.r_num) < 1e-14
            assert abs(residual[i] - sol.residual) < 1e-14
            assert residual[i] < 1e-12

    def test_numpy_scalar_is_a_float(self, trivial_chain, config_ab):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=11)
        sol = boundary_matched_solve(np.float64(1.6), 24, trivial_chain, emitter, config_ab)
        assert isinstance(sol, ScatterSolution)
        assert sol == boundary_matched_solve(1.6, 24, trivial_chain, emitter, config_ab)

    @pytest.mark.parametrize("omega", [np.ones((2, 2)), np.array(1.6)])
    def test_only_one_axis_of_energies(self, trivial_chain, config_ab, omega):
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=11)
        with pytest.raises(ValidationError, match="1-d"):
            boundary_matched_solve(omega, 24, trivial_chain, emitter, config_ab)

    def test_chunks_give_the_same_answers(self, trivial_chain, config_ab, monkeypatch):
        # the in-band energies in one chunk against chunks of 7, the last
        # one short, and one solve per chunk
        emitter = EmitterParams(omega_e=1.5, delta_c=0.07, omega_rabi=0.23, g=0.3, x1=9)
        omega = np.linspace(0.9, 2.1, 100)
        solve, sizes = np.linalg.solve, []

        def counted(mat, rhs):
            sizes.append(len(mat))
            return solve(mat, rhs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        whole = boundary_matched_solve(omega, 32, trivial_chain, emitter, config_ab)
        assert sizes == [whole[0].sum()]
        sizes.clear()
        monkeypatch.setattr(sshscatter.lattice, "_CHUNK", 7 * 66)
        parts = boundary_matched_solve(omega, 32, trivial_chain, emitter, config_ab)
        count = int(whole[0].sum())
        assert count % 7 and sizes == [min(7, count - i) for i in range(0, count, 7)]
        for a, b in zip(whole, parts):
            assert np.array_equal(a, b)

    @staticmethod
    def _masked_alone(chain, emitter, config, cause):
        """The scalar call at omega = 1.5 raises naming ``cause``; an array
        masks that energy (twice) and the out-of-band 2.5 alone."""
        with pytest.raises(PotentialSingularityError, match=cause):
            boundary_matched_solve(1.5, 32, chain, emitter, config)
        omega = np.array([1.4, 1.5, 2.5, 1.6, 1.5])
        solved, t, r, residual = boundary_matched_solve(omega, 32, chain, emitter, config)
        assert np.flatnonzero(~solved).tolist() == [1, 2, 4]
        for w, t_num in zip(omega[solved], t):
            assert t_num == boundary_matched_solve(w, 32, chain, emitter, config).t_num

    # No energy inside the domain of in_units_of_j is known to give an
    # exactly singular system or a solution beyond the doubles (the two
    # cases that did, g = 5e-324 and Omega = 1e-310, are refused below), so
    # the two safety checks are driven here by patching the solve at 1.5
    @pytest.mark.parametrize("variant", list(Variant))
    def test_singular_energy_is_masked(self, trivial_chain, variant, monkeypatch):
        equations = sshscatter.lattice._coupling_cell_equations

        def zero_first_row_at_1_5(ham, omega, left, right):
            entries = equations(ham, omega, left, right)
            keep = omega != 1.5
            return tuple(entry * keep for entry in entries[:3]) + entries[3:]  # the first row

        monkeypatch.setattr(sshscatter.lattice, "_coupling_cell_equations", zero_first_row_at_1_5)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=10)
        self._masked_alone(trivial_chain, emitter, CouplingConfig(variant, 0.35), "singular")

    @pytest.mark.parametrize("variant", list(Variant))
    def test_solution_beyond_the_doubles_is_masked(self, trivial_chain, variant, monkeypatch):
        residuals = sshscatter.lattice._residuals

        def nan_at_1_5(ham, omega, powers, phase, sol):
            # omega is a number for one energy, a column for a stack
            out = residuals(ham, omega, powers, phase, sol)
            return np.where(np.reshape(omega, np.shape(out)) == 1.5, np.nan, out)

        monkeypatch.setattr(sshscatter.lattice, "_residuals", nan_at_1_5)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=10)
        self._masked_alone(trivial_chain, emitter, CouplingConfig(variant, 0.35), "doubles")

    @pytest.mark.parametrize("field, value", [("g", 5e-324), ("g", 1e-160), ("g", 1e31),
                                              ("omega_rabi", 1e-310), ("omega_rabi", 1e-160),
                                              ("omega_rabi", 1e31)])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_field_outside_the_domain_is_refused(self, trivial_chain, variant, field, value):
        # g = 5e-324 once gave an exact 0 pivot at the pole hit, Omega = 1e-310
        # an amplitude 2g/Omega beyond the doubles at two-photon resonance
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=10)
        emitter = dataclasses.replace(emitter, **{field: value})
        config = CouplingConfig(variant, 0.35)
        for omega in (1.5, np.array([1.4, 1.5])):
            with pytest.raises(ValidationError, match=rf"^{field} out of range"):
                boundary_matched_solve(omega, 32, trivial_chain, emitter, config)
        with pytest.raises(ValidationError, match=rf"^{field} out of range"):
            build_hamiltonian(32, trivial_chain, emitter, config)

    @pytest.mark.parametrize("omega_rabi", [2.0**-100, 1e-20])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_tiny_drive_at_two_photon_resonance_solves(self, trivial_chain, variant, omega_rabi):
        # at omega = omega_a the emitter's level a grows as g/(Omega/2), up
        # to about 2^100 at the end of the domain; the drive makes the
        # emitter transparent there
        config = CouplingConfig(variant)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2, x1=10)
        t_closed = transmittance(config, 1.5, trivial_chain, emitter)
        assert t_closed == 1.0
        sol = boundary_matched_solve(1.5, 32, trivial_chain, emitter, config)
        assert abs(sol.t_num - t_closed) < 1e-10 and sol.residual < 1e-12
        omega = np.array([1.4, 1.5, 1.6])
        solved, t, r, residual = boundary_matched_solve(omega, 32, trivial_chain, emitter, config)
        assert solved.all() and np.max(residual) < 1e-12
        assert np.max(np.abs(t - amplitude_grid(config, omega, trivial_chain, emitter)[1])) < 1e-10
        assert abs(t[1] - sol.t_num) < 1e-15

    def test_fano_elements_match_the_scalar_call(self):
        # every energy of the README's Fano line on delta = -0.5: the array
        # solve shares h(k) and phi_E with the scalar call, and differs only
        # by numpy's arccos and atan2 against the C library's
        wg, emitter, config, omega = _RECIPES["fano-0.5"]
        solved, t, r, _ = boundary_matched_solve(omega, 32, wg, emitter, config)
        assert solved.all()
        scalar = [boundary_matched_solve(w, 32, wg, emitter, config) for w in omega.tolist()]
        assert np.max(np.abs(t - [sol.t_num for sol in scalar])) <= 1.5e-15
        assert np.max(np.abs(r - [sol.r_num for sol in scalar])) <= 3e-15

    @pytest.mark.parametrize("g", [2.0**-100, 1e-20])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_tiny_coupling_at_the_pole_hit_solves(self, trivial_chain, variant, g):
        # at omega = omega_e without drive the emitter amplitude grows as
        # 1/g, up to 2^100 at the end of the domain.  A and B are mirrors there
        config = CouplingConfig(variant)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=g, x1=10)
        t_closed = transmittance(config, 1.5, trivial_chain, emitter)
        assert t_closed == 0.0 or variant is Variant.AB
        sol = boundary_matched_solve(1.5, 32, trivial_chain, emitter, config)
        assert abs(sol.t_num - t_closed) < 1e-10 and sol.residual < 1e-12
        omega = np.array([1.4, 1.5, 1.6])
        solved, t, r, residual = boundary_matched_solve(omega, 32, trivial_chain, emitter, config)
        assert solved.all() and np.max(residual) < 1e-12
        assert np.max(np.abs(t - amplitude_grid(config, omega, trivial_chain, emitter)[1])) < 1e-10
        assert abs(t[1] - sol.t_num) < 1e-15


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

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("omega_e", [3.5, -3.5])
    @pytest.mark.parametrize("t", [3.7, 50.0, 500.0])
    def test_far_detuned_emitter_matches_eigh(self, topological_chain, variant, omega_e, t):
        # the emitter's Gershgorin disc reaches beyond the chain's on one
        # side, so the interval about zero is wider than the spectrum's
        emitter = EmitterParams(omega_e=omega_e, delta_c=0.05, omega_rabi=0.3, g=0.4, x1=6)
        ham = build_hamiltonian(12, topological_chain, emitter, CouplingConfig(variant, 0.3))
        lo, hi = _gershgorin(ham)
        assert ham._chebyshev[0] == max(-lo, hi) > (hi - lo) / 2.0
        rng = np.random.default_rng(31)
        psi = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
        psi /= np.linalg.norm(psi)
        vals, vecs = np.linalg.eigh(ham.matrix)
        reference = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi))
        np.testing.assert_allclose(evolve(psi, ham, t), reference, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("setting", _PACKET_SETTINGS)
    def test_validate_chains_keep_the_centred_interval(self, setting):
        # on every transport case of `validate` the Gershgorin interval is
        # symmetric about zero, so the interval about zero is as narrow and
        # each step keeps its number of terms
        variant, delta, omega_carrier, omega_rabi = setting
        config, wg = CouplingConfig(variant), WaveguideParams(delta=delta)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2)
        k0 = momentum_from_energy(omega_carrier, wg)
        cells = _packet_cells(config, wg, emitter, k0, 20.0)
        ham = build_hamiltonian(cells, wg, dataclasses.replace(emitter, x1=cells // 2), config)
        lo, hi = _gershgorin(ham)
        assert ham._chebyshev[0] == (hi - lo) / 2.0 == hi == -lo

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_state_not_finite_is_refused(self, trivial_chain, resonant_emitter, config_a, bad):
        # it used to come back all NaN: the drift test compared NaN > 1e-8
        ham = build_hamiltonian(12, trivial_chain, resonant_emitter, config_a)
        state = np.eye(ham.dim, dtype=complex)[3]
        state[7] = bad
        with pytest.raises(ValidationError, match="NaN or inf"):
            evolve(state, ham, 1.0)

    @pytest.mark.parametrize("dim", [25, 27, 0])
    def test_state_of_the_wrong_length_is_refused(self, trivial_chain, resonant_emitter,
                                                  config_a, dim):
        # it used to end in numpy's "could not broadcast" ValueError
        ham = build_hamiltonian(12, trivial_chain, resonant_emitter, config_a)
        with pytest.raises(ValidationError, match=r"does not fit the Hamiltonian's 26 entries"):
            evolve(np.ones(dim, dtype=complex) / max(dim, 1) ** 0.5, ham, 1.0)
        with pytest.raises(ValidationError, match=r"does not fit"):
            evolve(np.ones((2, ham.dim), dtype=complex), ham, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    def test_interval_is_the_gershgorin_bound_of_the_entries(self, n):
        # evolve's w, computed from the numbers of H, is the largest
        # Gershgorin bound of its stored entries exactly, wherever x1 sits
        rng = np.random.default_rng(100 + n)
        for x1 in sorted({1, (n + 1) // 2, n}):
            for _ in range(20):
                ham = _random_hamiltonian(rng, n, x1)
                lo, hi = _gershgorin(ham)
                assert ham._chebyshev[0] == max(-lo, hi)

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
        return hi / ham._chebyshev[0]

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
        assert len(_chebyshev_coefficients(ham._chebyshev[0] * 1500.0)) > 3000
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
        # evolve reads what it needs of H from a value the Hamiltonian
        # keeps; its arrays are read-only, so that value stays H's, and a
        # reused Hamiltonian answers as a fresh one does
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
        assert ham._chebyshev is ham._chebyshev

        def fresh():
            return build_hamiltonian(12, topological_chain, emitter, config)

        assert np.array_equal(evolve(psi, fresh(), 3.7), first)
        assert np.array_equal(evolve(psi, fresh(), 41.0), second)
        assert np.array_equal(evolve(psi, ham, 3.7), first)
        assert np.array_equal(ham.apply(psi), fresh().apply(psi))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 2.0**60, -1e6])
    def test_step_out_of_range_is_named(self, trivial_chain, resonant_emitter, config_a, t):
        # refused before the expansion is built: at |w t| = 2^60 its order
        # loop would take about 1e7 passes before a 2^62-sample FFT
        ham = build_hamiltonian(12, trivial_chain, resonant_emitter, config_a)
        named = rf"^evolve step t = {re.escape(repr(t))} .* w t = "
        with pytest.raises(ValidationError, match=named):
            evolve(np.eye(ham.dim)[0], ham, t)

    def test_step_at_a_far_detuned_emitter_is_named(self, trivial_chain, config_a):
        # omega_e = 2^100 J is inside the domain, but no step of the
        # transport fits its Chebyshev interval
        emitter = EmitterParams(omega_e=2.0**100, g=0.2, x1=200)
        ham = build_hamiltonian(400, trivial_chain, emitter, config_a)
        with pytest.raises(ValidationError, match=r"^evolve step t = 1\.0 "):
            evolve(np.eye(ham.dim)[0], ham, 1.0)
        k0 = momentum_from_energy(1.5, trivial_chain)
        with pytest.raises(ValidationError, match=r"^evolve step t = "):
            wavepacket_transport(k0, 20.0, 400, trivial_chain, emitter, config_a)

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

    @pytest.mark.parametrize("n_cells", [400.5, 400.0, True, 0, -3])
    def test_bad_chain_length_is_named(self, trivial_chain, config_a, n_cells):
        # 400.5 used to build a 401-point grid, True and 0 to return nan with
        # RuntimeWarnings, and gaussian_packet at 400.0 to raise IndexError
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=200)
        with pytest.raises(ValidationError, match=r"\bn_cells\b"):
            packet_momentum_weights(1.5, 20.0, n_cells)
        with pytest.raises(ValidationError, match=r"\bn_cells\b"):
            gaussian_packet(1.5, 20.0, 120, trivial_chain, n_cells)
        with pytest.raises(ValidationError, match=r"\bn_cells\b"):
            bandwidth_averaged_transmission(config_a, trivial_chain, emitter, 1.5, 20.0, n_cells)


class TestWavepacket:
    # (variant, delta, carrier energy, Omega, cells): (T, R, stop time) as
    # computed at commit 6e81809, before the Chebyshev recurrence dropped
    # the chain's diagonal; on these chains the interval is unchanged, so
    # the transport must be too
    PINNED = {
        ("A", 0.5, 1.62, 0.0, 400): (0.8797089589997211, 0.12029103391714685, 325.1200067454083),
        ("B", 0.5, 1.5, 0.4, 400): (0.9996719667613103, 0.0003280290608846471, 304.25553170226596),
        ("AB", -0.5, 1.5, 0.0, 600): (0.5241544400242588, 0.47584453652201897, 588.2273612910476),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_transport_is_pinned(self, case):
        variant, delta, omega_carrier, omega_rabi, cells = case
        wg = WaveguideParams(delta=delta)
        emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2, x1=cells // 2)
        k0 = momentum_from_energy(omega_carrier, wg)
        run = wavepacket_transport(k0, 20.0, cells, wg, emitter, CouplingConfig(Variant(variant)))
        for value, pinned in zip((run.transmitted, run.reflected, run.time), self.PINNED[case]):
            assert abs(value - pinned) < 1e-12

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

    _AB = (Variant.AB, -0.5, 1.5, 0.0, 1.5)

    @pytest.mark.parametrize("exponent, case", [
        pytest.param(-50, _AB, id="-50"),
        pytest.param(600, _AB, id="600"),
        # omega_e - delta_c = 2 J, which overflows in absolute units
        pytest.param(1023, (Variant.A, 0.5, 1.875, -0.125, 1.62), id="1023"),
    ])
    def test_exact_under_power_of_two_scale(self, exponent, case):
        # the run evolves H/J with the speed in cells per 1/J, and the
        # packet's Bloch phases are formed in units of J, so at J = 2^n it is
        # the J = 1 run and only its reported time scales
        variant, delta, omega_e, delta_c, carrier = case

        def run(j):
            wg = WaveguideParams(delta=delta, J=j)
            emitter = EmitterParams(omega_e=omega_e * j, delta_c=delta_c * j,
                                    omega_rabi=0.4 * j, g=0.2 * j, x1=200)
            k0 = momentum_from_energy(carrier * j, wg)
            return wavepacket_transport(k0, 20.0, 400, wg, emitter, CouplingConfig(variant))

        scaled, unit = run(2.0**exponent), run(1.0)
        assert (scaled.transmitted, scaled.reflected) == (unit.transmitted, unit.reflected)
        assert scaled.time * 2.0**exponent == unit.time

    def test_time_beyond_the_doubles_names_j(self):
        # the _AB run lasts about 304/J, beyond the doubles at J = 2^-1018,
        # where it once returned time = inf with T = 0.99994 and no error
        variant, delta, omega_e, delta_c, carrier = self._AB
        j = 2.0**-1018
        wg = WaveguideParams(delta=delta, J=j)
        emitter = EmitterParams(omega_e=omega_e * j, delta_c=delta_c * j, omega_rabi=0.4 * j,
                                g=0.2 * j, x1=200)
        k0 = momentum_from_energy(carrier * j, wg)
        with pytest.raises(ValidationError, match=r"^J out of range: .* lasts 304\.\d+/J"):
            wavepacket_transport(k0, 20.0, 400, wg, emitter, CouplingConfig(variant))

    def test_chain_end_beyond_the_doubles_names_t_in_units_of_1_over_j(self):
        # the packet reaches a chain end after about 649/J: at J = 2^-1018 t/J
        # leaves the doubles, and the error once read "at t = inf"; it names
        # the time in units of 1/J instead, the J = 1 run's figure
        messages = []
        for j in (1.0, 2.0**-1018):
            wg = WaveguideParams(delta=0.5, J=j)
            emitter = EmitterParams(omega_e=1.5 * j, g=0.2 * j, x1=300)
            k0 = momentum_from_energy(1.5 * j, wg)
            with pytest.raises(ChainTooShortError) as err:
                wavepacket_transport(k0, 20.0, 600, wg, emitter, CouplingConfig(Variant.AB))
            messages.append(str(err.value))
        assert re.search(r"at t = \d+(\.\d+)?/J after 22 steps", messages[1])
        assert messages[1] == messages[0].replace(" after", "/J after")

    def test_repeated_runs_are_identical(self, trivial_chain, topological_chain, config_ab):
        # the memoised coefficients must not make a run depend on the runs before it
        def run(chain, omega_rabi):
            emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2, x1=200)
            k0 = momentum_from_energy(1.62, chain)
            return wavepacket_transport(k0, 20.0, 400, chain, emitter, config_ab)

        first = run(trivial_chain, 0.4)
        run(topological_chain, 0.0)
        assert run(trivial_chain, 0.4) == first

    @pytest.mark.parametrize("n_cells", [600, 1500])
    def test_resonant_topological_run_names_its_time(self, trivial_chain, n_cells):
        # two-site coupling on delta = +0.5 at resonance rings down for about
        # 5000 time units: on these chains the packet reaches an end first,
        # and the chain end is the only limit on a run
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=n_cells // 2)
        k0 = momentum_from_energy(1.5, trivial_chain)
        with pytest.raises(ChainTooShortError, match=r"t = \d+(\.\d+)? after \d+ steps"):
            wavepacket_transport(k0, 20.0, n_cells, trivial_chain, emitter,
                                 CouplingConfig(Variant.AB, 0.5))

    def test_carrier_outside_window_rejected(self, trivial_chain, resonant_emitter, config_a):
        with pytest.raises(ValidationError):
            wavepacket_transport(0.05, 20.0, 400, trivial_chain, resonant_emitter, config_a)

    @pytest.mark.parametrize("delta", [1.0, -1.0])
    def test_flat_band_rejected(self, resonant_emitter, config_a, delta):
        # no packet moves on a flat band, v = 0
        with pytest.raises(BandEdgeError, match="flat bands"):
            wavepacket_transport(1.5, 20.0, 400, WaveguideParams(delta=delta),
                                 resonant_emitter, config_a)

    def test_narrow_chain_rejected(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=40)
        with pytest.raises(ValidationError):
            wavepacket_transport(1.5, 20.0, 80, trivial_chain, emitter, config_a)

    def test_emitter_too_close_to_end(self, trivial_chain, config_a):
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=350)
        with pytest.raises(ChainTooShortError):
            wavepacket_transport(1.5, 20.0, 400, trivial_chain, emitter, config_a)

    @pytest.mark.parametrize("n_cells", [400.0, 400.5, math.nan, math.inf, "400", None])
    def test_non_integer_chain_length_is_named(self, trivial_chain, config_a, n_cells):
        emitter = EmitterParams(omega_e=1.5, g=0.2, x1=200)
        with pytest.raises(ValidationError, match=r"\bn_cells\b"):
            wavepacket_transport(1.5, 20.0, n_cells, trivial_chain, emitter, config_a)

    @pytest.mark.parametrize("sigma_x", [math.nan, math.inf, 0.0, -1.0, -math.inf, 1e-300, 0.5])
    def test_bad_packet_width_is_named(self, trivial_chain, config_a, sigma_x):
        # nan used to fail in int(round(...)); below one cell the step
        # sigma_x / 2v shrinks toward 0 and a run would never reach a chain end
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


@pytest.mark.parametrize("module", ["scattering", "spectra", "lattice"])
def test_no_scale_branch_in_the_numerics(module):
    # every ratio to J is bounded by params.in_units_of_j, so the closed
    # forms, the poles and the lattice solve need no power-of-two scaling
    # and no silenced floating-point warnings; none may creep back
    path = Path(sshscatter.lattice.__file__).with_name(f"{module}.py")
    source = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(source) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(source) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(source) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & {"frexp", "ldexp", "errstate"}


def _is_sum_of_squares(node):
    """True for ``a * a + b * b`` with plain names a and b."""
    def square(term):
        return (isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)
                and isinstance(term.left, ast.Name) and isinstance(term.right, ast.Name)
                and term.left.id == term.right.id)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and square(node.left) and square(node.right))


def test_one_weight_and_one_pole_equation():
    # t's fixed-k denominator is written once, in scattering: the weight
    # B = E (w1^2 + w2^2) + 2 w1 w2 h* in _coupling_weight and the roots of
    # the pole quadratic, the one square root of a variable, in _pole_roots.
    # The poles, the regime and the potential's pole read them, and the
    # band phase is written in bands alone.  The lattice, the independent
    # oracle, is not scanned.
    package = Path(sshscatter.lattice.__file__).parent
    weights, roots, phases = [], [], []
    for path in sorted(package.glob("*.py")):
        if path.stem == "lattice":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(func):
                where = (path.stem, func.name)
                if _is_sum_of_squares(node):
                    weights.append(where)
                if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sqrt"
                        and not isinstance(node.args[0], ast.Constant)):
                    roots.append(where)
                if (isinstance(node, ast.Attribute) and node.attr == "phase"
                        and getattr(node.value, "id", None) == "cmath"):
                    phases.append(where)
        if path.stem == "spectra":
            assert "interference_factor" not in {
                node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            } | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    assert weights == [("scattering", "_coupling_weight")]
    assert roots == [("scattering", "_pole_roots")]
    assert {module for module, _ in phases} == {"bands"}


def test_package_import_loads_no_heavy_dependency():
    # importing scipy.linalg would add about 0.3 s and 28 MB to every start
    # (2-core x86-64 VM), so the oracle solves with numpy; mpmath and
    # hypothesis serve the tests only
    src = str(Path(sshscatter.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys, sshscatter, sshscatter.cli\n"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('scipy', 'mpmath', 'hypothesis'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == []
