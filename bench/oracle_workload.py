"""Workload ``oracle``: closed forms cross-checked against the finite lattice.

Two kinds of operation, both built from the public API:

- a seeded scattering case: closed-form ``t`` and ``r``, the
  transfer-matrix pipeline, and ``boundary_matched_solve``, mostly at
  N = 32 with fewer cases at N = 128 and N = 512;
- the nine wavepacket cases of ``sshscatter validate`` (400 cells, 600 for
  two-site coupling), each paired with ``bandwidth_averaged_transmission``.

The case counts are chosen so that the 90th latency percentile falls in
the middle of the N = 128 cases rather than on the boundary between two
sizes, which keeps ``op_p90_ms`` steady.
"""

from __future__ import annotations

import sshscatter as ss
from sshscatter.lattice import boundary_matched_solve

import checks as ck
from common import Op, fail_on, signed, uniform

SIZES = ((32, 200), (128, 30), (512, 2))
SHORT_SIZES = ((32, 12), (128, 2))
REFERENCE_CELLS = 32

# (variant, delta, cell scale, [(carrier energy, Omega)]) as in `validate`
PACKETS = (
    ("A", 0.5, 1.0, ((1.62, 0.0), (1.5, 0.0), (1.5, 0.4))),
    ("B", 0.5, 1.0, ((1.62, 0.0), (1.5, 0.0), (1.5, 0.4))),
    ("AB", -0.5, 1.5, ((1.62, 0.0), (1.5, 0.0), (1.5, 0.4))),
)
PACKET_CELLS = 400
SIGMA_X = 20.0


def _draw_case(rng, index: int, n_cells: int) -> dict:
    """An in-band scattering point; the skeleton fixes variant and band."""
    variant = ("A", "B", "AB")[index % 3]
    band = ss.Band.UPPER if (index // 3) % 2 == 0 else ss.Band.LOWER
    delta = signed(rng, 0.15, 0.7)
    gap, outer = ck.band_limits(delta)
    omega = band.sign * (gap + uniform(rng, 0.02, 0.98) * (outer - gap))
    emitter = ss.EmitterParams(
        omega_e=omega - band.sign * uniform(rng, -0.3, 0.3),
        delta_c=uniform(rng, -0.2, 0.2),
        omega_rabi=uniform(rng, 0.0, 0.5),
        g=uniform(rng, 0.05, 0.4),
        x1=int(rng.integers(4, min(n_cells - 3, 29))),
    )
    alpha = {"A": 1.0, "B": 0.0}[variant] if variant != "AB" else uniform(rng, 0.15, 0.85)
    return {"waveguide": ss.WaveguideParams(delta=delta), "emitter": emitter,
            "config": ss.CouplingConfig(ss.Variant(variant), alpha), "omega": omega,
            "band": band, "n_cells": n_cells}


def _scatter(case):
    wg, em, cfg, omega, band = (
        case[k] for k in ("waveguide", "emitter", "config", "omega", "band"))
    t = ss.transmittance(cfg, omega, wg, em, band)
    r = ss.reflectance(cfg, omega, wg, em, band)
    k = ss.momentum_from_energy(omega, wg, band)
    pipe = ss.scattering_matrix(ss.transfer_matrix(cfg, k, wg, em, band))
    sol = ss.boundary_matched_solve(omega, case["n_cells"], wg, em, cfg, band)
    return t, r, pipe.t_left, sol.t_num, sol.r_num


def _packet_specs():
    for variant, delta, scale, cases in PACKETS:
        cells = int(round(PACKET_CELLS * scale))
        for carrier, omega_rabi in cases:
            yield {"config": ss.CouplingConfig(ss.Variant(variant)),
                   "waveguide": ss.WaveguideParams(delta=delta),
                   "emitter": ss.EmitterParams(omega_e=1.5, omega_rabi=omega_rabi, g=0.2,
                                               x1=cells // 2),
                   "carrier": carrier, "n_cells": cells}


def _packet(spec):
    wg, em, cfg, cells = spec["waveguide"], spec["emitter"], spec["config"], spec["n_cells"]
    k0 = ss.momentum_from_energy(spec["carrier"], wg)
    run = ss.wavepacket_transport(k0, SIGMA_X, cells, wg, em, cfg)
    t_avg = ss.bandwidth_averaged_transmission(cfg, wg, em, k0, SIGMA_X, cells)
    return run.transmitted, run.reflected, run.residual, t_avg


def build(rng, short: bool, scratch: str) -> list[Op]:
    ops = []
    index = 0
    for n_cells, count in SHORT_SIZES if short else SIZES:
        for _ in range(count):
            case = _draw_case(rng, index, n_cells)
            ops.append(Op(f"scatter_n{n_cells}", lambda c=case: _scatter(c), case))
            index += 1
    packets = list(_packet_specs())
    for spec in packets[:1] if short else packets:
        ops.append(Op("wavepacket", lambda s=spec: _packet(s), spec))
    return ops


def digest(op: Op, output):
    return output


def check_scatter(case, output) -> list[str]:
    t, r, t_pipe, t_lat, r_lat = output
    out = ck.check_close("closed t vs pipeline t", t, t_pipe, ck.TOL_ROUTE)
    out += ck.check_close("closed t vs lattice t", t, t_lat, ck.TOL_ROUTE)
    out += ck.check_close("closed r vs lattice r", r, r_lat, ck.TOL_ROUTE)
    out += ck.check_flux(t_lat, r_lat, ck.TOL_ROUTE, "lattice")
    if case["n_cells"] != REFERENCE_CELLS:
        ref = boundary_matched_solve(case["omega"], REFERENCE_CELLS, case["waveguide"],
                                     case["emitter"], case["config"], case["band"])
        out += ck.check_close(f"lattice t at N={case['n_cells']} vs N={REFERENCE_CELLS}",
                              t_lat, ref.t_num, ck.TOL_ROUTE)
    return out


def check(ops: list[Op], outputs: list) -> dict[int, list[str]]:
    failures: dict[int, list[str]] = {}
    for i, (op, output) in enumerate(zip(ops, outputs)):
        if output is None:
            continue
        if op.kind == "wavepacket":
            fail_on(failures, i, ck.check_packet(*output))
        else:
            fail_on(failures, i, check_scatter(op.spec, output))
    return failures
