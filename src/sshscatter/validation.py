"""Agreement suite: closed forms vs transfer pipeline vs finite lattice.

This module owns the cross-checks between the independent computation
routes.  It sits above both the scattering and lattice modules so the
oracle itself stays free of any transfer-matrix code.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .bands import band_edges, dispersion_grid, group_velocity, momentum_from_energy
from .errors import ValidationError
from .lattice import (
    EMITTER_EMPTY,
    _check_packet_width,
    boundary_matched_solve,
    packet_momentum_weights,
    wavepacket_transport,
)
from .params import Band, CouplingConfig, EmitterParams, Variant, WaveguideParams
from .scattering import (
    amplitude_grid,
    effective_potential,
    scattering_matrix,
    transfer_matrix,
    transmittance,
)
from .spectra import poles

TOL_AGREEMENT = 1e-10
TOL_WAVEPACKET = 2e-2

# Transport oracle cases (variant, delta, carrier energy, Omega): a detuned,
# a resonant and a strongly driven case per coupling variant, single-site
# variants on the delta = 0.5 chain and the two-site variant on delta = -0.5,
# plus the resonant two-site case on delta = 0.5, whose slow ring-down
# (2 |Im| of the pole about 2.3e-3) asks for the longest chain.
_PACKET_SETTINGS = (
    (Variant.A, 0.5, 1.62, 0.0), (Variant.A, 0.5, 1.5, 0.0), (Variant.A, 0.5, 1.5, 0.4),
    (Variant.B, 0.5, 1.62, 0.0), (Variant.B, 0.5, 1.5, 0.0), (Variant.B, 0.5, 1.5, 0.4),
    (Variant.AB, -0.5, 1.62, 0.0), (Variant.AB, -0.5, 1.5, 0.0), (Variant.AB, -0.5, 1.5, 0.4),
    (Variant.AB, 0.5, 1.5, 0.0),
)


def _packet_cells(config, params, emitter, k0, sigma_x) -> int:
    """Chain length for a transport run, from the closed-form poles.

    The run lasts about the packet's passage, 5.5 sigma_x / v, plus the time
    the slowest nonzero pole (the zero one at Omega = 0 is the decoupled
    level a) takes to bring the emitter to EMITTER_EMPTY; the chain holds
    that flight and the packet on each side of a mid-chain emitter.  Only
    the length depends on the closed forms, never the transported answer.
    """
    speed = group_velocity(k0, params)
    pair = poles(config, params, emitter, k0)
    rate = 2.0 * min(abs(p.imag) for p in (pair.pole_plus, pair.pole_minus) if p)
    t = 5.5 * sigma_x / speed + math.log(1.0 / EMITTER_EMPTY) / rate
    return 2 * math.ceil(speed * t + 4.0 * sigma_x)


def bandwidth_averaged_transmission(
    config: CouplingConfig,
    params: WaveguideParams,
    emitter: EmitterParams,
    k0: float,
    sigma_x: float,
    n_cells: int,
    band: Band = Band.UPPER,
) -> float:
    """Closed-form |t|^2 averaged over the packet's momentum distribution.

    Uses the same discrete momentum grid and Gaussian weights the packet is
    built from, so the comparison against transported probability has no
    free parameters.
    """
    k, weights = packet_momentum_weights(k0, sigma_x, n_cells)
    w2 = weights * weights
    keep = w2 >= 1e-14
    energies = band.sign * dispersion_grid(np.abs(k[keep]), params)
    in_band, t, _ = amplitude_grid(config, energies, params, emitter, band)
    w2 = w2[keep][in_band]
    return float(np.sum(w2 * np.abs(t) ** 2) / np.sum(w2))


def _draw_case(rng, variant):
    """One random in-band parameter draw, rejecting near-degenerate points
    where double precision cannot support the 1e-10 agreement target."""
    while True:
        delta = float(rng.uniform(0.15, 0.7)) * (1.0 if rng.random() < 0.5 else -1.0)
        wg = WaveguideParams(delta=delta)
        gap, outer = band_edges(wg)
        omega = gap + float(rng.uniform(0.08, 0.92)) * (outer - gap)
        omega_e = omega - float(rng.uniform(-0.3, 0.3))
        delta_c = float(rng.uniform(-0.2, 0.2))
        omega_rabi = float(rng.uniform(0.0, 0.5))
        g = float(rng.uniform(0.05, 0.4))
        # A and B take their pinned alpha = 1 and 0
        alpha = float(rng.uniform(0.15, 0.85)) if variant is Variant.AB else None
        x1 = int(rng.integers(4, 12))
        emitter = EmitterParams(
            omega_e=omega_e, delta_c=delta_c, omega_rabi=omega_rabi, g=g, x1=x1
        )
        config = CouplingConfig(variant, alpha)
        dk = omega - omega_e
        if omega_rabi == 0.0 and abs(dk) < 1e-3:
            continue
        den = 4.0 * dk * (dk + delta_c) - omega_rabi * omega_rabi
        if omega_rabi > 0.0 and abs(den) < 1e-4:
            continue
        cross = effective_potential(dk, delta_c, omega_rabi, g, config.alpha).cross
        if abs(wg.t1 - cross) < 1e-3 * wg.t1:
            continue
        return wg, emitter, config, omega


def agreement_report(
    draws_per_config: int = 20,
    seed: int = 20240811,
    n_cells: int = 32,
    include_wavepacket: bool = True,
    sigma_x: float = 20.0,
) -> dict:
    """Run the full agreement chain and return a JSON-ready report.

    For every coupling variant, ``draws_per_config`` random in-band points
    compare the closed-form transmission against the transfer-matrix
    pipeline and against the boundary-matched lattice solve; the transport
    oracle then runs the ten cases of ``_PACKET_SETTINGS``, each on a chain
    sized by :func:`_packet_cells`.
    """
    if draws_per_config < 0:
        raise ValidationError(f"draws_per_config must not be negative, got {draws_per_config}")
    if draws_per_config == 0 and not include_wavepacket:
        raise ValidationError("nothing to check: draws_per_config = 0 and no wavepackets")
    if include_wavepacket:
        _check_packet_width(sigma_x)
    rng = np.random.default_rng(seed)
    max_cm = 0.0
    max_cl = 0.0
    max_res = 0.0
    n_cases = 0
    for variant in (Variant.A, Variant.B, Variant.AB):
        for _ in range(draws_per_config):
            wg, emitter, config, omega = _draw_case(rng, variant)
            t_closed = transmittance(config, omega, wg, emitter)
            k = momentum_from_energy(omega, wg)
            t_pipe = scattering_matrix(transfer_matrix(config, k, wg, emitter)).t_left
            sol = boundary_matched_solve(omega, n_cells, wg, emitter, config)
            max_cm = max(max_cm, abs(t_closed - t_pipe))
            max_cl = max(max_cl, abs(t_closed - sol.t_num))
            max_res = max(max_res, sol.residual)
            n_cases += 1

    packet_cases = []
    max_wp = 0.0
    if include_wavepacket:
        for variant, delta, omega_carrier, omega_rabi in _PACKET_SETTINGS:
            config = CouplingConfig(variant)
            wg = WaveguideParams(delta=delta)
            emitter = EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2)
            k0 = momentum_from_energy(omega_carrier, wg)
            cells = _packet_cells(config, wg, emitter, k0, sigma_x)
            emitter = dataclasses.replace(emitter, x1=cells // 2)
            run = wavepacket_transport(k0, sigma_x, cells, wg, emitter, config)
            t_avg = bandwidth_averaged_transmission(config, wg, emitter, k0, sigma_x, cells)
            diff = abs(run.transmitted - t_avg)
            max_wp = max(max_wp, diff)
            packet_cases.append({
                "config": variant.value, "delta": delta, "k0": k0, "omega_rabi": omega_rabi,
                "n_cells": cells, "T_analytic_avg": t_avg, "T_wp": run.transmitted, "diff": diff,
            })

    passed = (
        max_cm < TOL_AGREEMENT
        and max_cl < TOL_AGREEMENT
        and (not include_wavepacket or max_wp < TOL_WAVEPACKET)
    )
    return {
        "n_cases": n_cases,
        "seed": seed,
        "n_cells": n_cells,
        "tolerance_agreement": TOL_AGREEMENT,
        "tolerance_wavepacket": TOL_WAVEPACKET,
        "max_abs_error_closed_vs_matrix": max_cm,
        "max_abs_error_closed_vs_lattice": max_cl,
        "max_lattice_residual": max_res,
        "max_wavepacket_diff": max_wp,
        "wavepacket_cases": packet_cases,
        "passed": passed,
    }
