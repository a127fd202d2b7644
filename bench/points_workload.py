"""Workload ``points``: scalar queries, each at a freshly drawn parameter set.

An operation draws nothing itself: its parameters (delta, J, omega_e,
delta_c, Omega, g, alpha, x1 and an in-band omega) were drawn from the seed
at set-up.  It then asks for ``transmittance``, ``reflectance``,
``transfer_matrix`` + ``scattering_matrix``, ``momentum_from_energy``,
``poles`` and ``classify_regime`` at that one point, the way validation and
bandwidth averaging use the scattering layer.  The draws are not steered
away from poles, band edges or other degenerate neighbourhoods.
"""

from __future__ import annotations

import dataclasses

import sshscatter as ss

import checks as ck
from common import Op, fail_on, signed, uniform

N_OPS = 300
SHORT_OPS = 30


def _draw(rng, index: int) -> dict:
    """One point; the skeleton fixes the variant and the band."""
    variant = ("A", "B", "AB")[index % 3]
    band = ss.Band.UPPER if (index // 3) % 2 == 0 else ss.Band.LOWER
    J = float(2.0 ** rng.uniform(-1.0, 1.0))
    delta = signed(rng, 0.1, 0.8)
    gap, outer = ck.band_limits(delta, J)
    omega = band.sign * (gap + uniform(rng, 0.0, 1.0) * (outer - gap))
    emitter = ss.EmitterParams(
        omega_e=omega - band.sign * J * uniform(rng, -0.3, 0.3),
        delta_c=J * uniform(rng, -0.2, 0.2),
        omega_rabi=J * uniform(rng, 0.0, 0.5),
        g=J * uniform(rng, 0.05, 0.4),
        x1=int(rng.integers(1, 41)),
    )
    alpha = {"A": 1.0, "B": 0.0}[variant] if variant != "AB" else uniform(rng, 0.05, 0.95)
    return {"waveguide": ss.WaveguideParams(delta=delta, J=J), "emitter": emitter,
            "config": ss.CouplingConfig(ss.Variant(variant), alpha), "omega": omega,
            "band": band, "other_x1": int(rng.integers(1, 41))}


def _query(p):
    wg, em, cfg, omega, band = (
        p[k] for k in ("waveguide", "emitter", "config", "omega", "band"))
    t = ss.transmittance(cfg, omega, wg, em, band)
    r = ss.reflectance(cfg, omega, wg, em, band)
    k = ss.momentum_from_energy(omega, wg, band)
    sm = ss.scattering_matrix(ss.transfer_matrix(cfg, k, wg, em, band))
    resonant = dataclasses.replace(em, delta_c=0.0)
    pair = ss.poles(cfg, wg, resonant, k)
    regime = ss.classify_regime(cfg, wg, em, k)
    return (t, r, k, sm.t_left, sm.t_right, pair.pole_plus, pair.pole_minus,
            regime.label, regime.ratio)


def build(rng, short: bool, scratch: str) -> list[Op]:
    ops = []
    for i in range(SHORT_OPS if short else N_OPS):
        point = _draw(rng, i)
        ops.append(Op("point", lambda p=point: _query(p), point))
    return ops


def digest(op: Op, output):
    return output


def _rescaled(p):
    """The same point with every energy divided by J (J = 1 units)."""
    wg, em, J = p["waveguide"], p["emitter"], p["waveguide"].J
    return (ss.WaveguideParams(delta=wg.delta, J=1.0),
            dataclasses.replace(em, omega_e=em.omega_e / J, delta_c=em.delta_c / J,
                                omega_rabi=em.omega_rabi / J, g=em.g / J),
            p["omega"] / J)


def check_point(p, output) -> list[str]:
    t, r, k, t_left, t_right, p_plus, p_minus, label, ratio = output
    wg, em, cfg, omega, band = (p[k] for k in ("waveguide", "emitter", "config", "omega", "band"))
    alpha, J, delta = cfg.alpha, wg.J, wg.delta
    out = ck.check_flux(t, r)
    out += ck.check_close("t_left vs t_right", t_left, t_right, ck.TOL_ROUTE)
    out += ck.check_close("closed t vs pipeline t", t, t_left, ck.TOL_ROUTE)
    out += ck.check_momentum(k, omega, delta, J)
    # |t| is blind to the coupling cell, in both routes
    moved = dataclasses.replace(em, x1=p["other_x1"])
    t_moved = ss.transmittance(cfg, omega, wg, moved, band)
    sm_moved = ss.scattering_matrix(ss.transfer_matrix(cfg, k, wg, moved, band))
    out += ck.check_close("|t| under a move of x1", abs(t_moved), abs(t), ck.TOL_ROUTE)
    out += ck.check_close("|t_pipeline| under a move of x1", abs(sm_moved.t_left), abs(t_left),
                          ck.TOL_ROUTE)
    # t is dimensionless: J-rescaled energies give the same amplitude
    wg1, em1, omega1 = _rescaled(p)
    out += ck.check_close("t under rescaling of J", ss.transmittance(cfg, omega1, wg1, em1, band),
                          t, ck.TOL_ROUTE)
    s, quarter = ck.pole_quadratic(k, delta, J, em.g, alpha, em.omega_rabi)
    out += ck.check_poles(p_plus, p_minus, s, quarter)
    out += ck.check_regime(label, ratio, ck.regime_ratio(k, delta, J, em.g, alpha, em.omega_rabi))
    return out


def check(ops: list[Op], outputs: list) -> dict[int, list[str]]:
    failures: dict[int, list[str]] = {}
    for i, (op, output) in enumerate(zip(ops, outputs)):
        if output is not None:
            fail_on(failures, i, check_point(op.spec, output))
    return failures
