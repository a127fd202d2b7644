"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
asserts the same condition, so the module doubles as a human-readable
checklist and a hard CI gate.
"""

import json
import math

import numpy as np
import pytest

from sshscatter import (
    CouplingConfig,
    EmitterParams,
    Variant,
    WaveguideParams,
    agreement_report,
    band_edges,
    bloch_point,
    extract_features,
    momentum_from_energy,
    scattering_matrix,
    sweep_spectrum,
    transfer_matrix,
    transmittance,
    winding_number,
)
from sshscatter.cli import run
from sshscatter.errors import ModelError, UndefinedWindingError

TRIVIAL = WaveguideParams(delta=0.5)
TOPOLOGICAL = WaveguideParams(delta=-0.5)


def _criterion(num, description, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}{tail}")
    assert ok, f"criterion {num}: {description}{tail}"


def _random_emitter(rng, wg):
    gap, outer = band_edges(wg)
    omega = gap + float(rng.uniform(0.08, 0.92)) * (outer - gap)
    emitter = EmitterParams(
        omega_e=omega - float(rng.uniform(-0.3, 0.3)),
        delta_c=float(rng.uniform(-0.2, 0.2)),
        omega_rabi=float(rng.uniform(0.0, 0.5)),
        g=float(rng.uniform(0.05, 0.4)),
        x1=int(rng.integers(1, 12)),
    )
    dk = omega - emitter.omega_e
    den = 4.0 * dk * (dk + emitter.delta_c) - emitter.omega_rabi**2
    if emitter.omega_rabi == 0.0 and abs(dk) < 1e-3:
        return None
    if emitter.omega_rabi > 0.0 and abs(den) < 1e-4:
        return None
    return omega, emitter


def test_c01_band_structure():
    err0 = abs(bloch_point(0.0, TRIVIAL).omega_k - 2.0)
    errpi = abs(bloch_point(math.pi, TRIVIAL).omega_k - 1.0)
    edges_ok = band_edges(TRIVIAL) == (1.0, 2.0) and band_edges(TOPOLOGICAL) == (1.0, 2.0)
    _criterion(
        1,
        "dispersion hits 2J at k=0 and 2|delta|J at k=pi (tol 1e-12)",
        err0 < 1e-12 and errpi < 1e-12 and edges_ok,
        f"errors {err0:.1e}, {errpi:.1e}",
    )


def test_c02_topology():
    nu_trivial = winding_number(TRIVIAL)
    nu_topo = winding_number(TOPOLOGICAL)
    try:
        winding_number(WaveguideParams(delta=0.0))
        gapless_raises = False
    except UndefinedWindingError:
        gapless_raises = True
    _criterion(
        2,
        "winding number 0 / 1 for delta = +0.5 / -0.5, undefined at delta = 0",
        nu_trivial == 0 and nu_topo == 1 and gapless_raises,
        f"nu(+)={nu_trivial}, nu(-)={nu_topo}",
    )


def test_c03_single_site_couplings_identical():
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    while count < 1000:
        delta = float(rng.uniform(0.15, 0.7)) * (1.0 if rng.random() < 0.5 else -1.0)
        wg = WaveguideParams(delta=delta)
        case = _random_emitter(rng, wg)
        if case is None:
            continue
        omega, emitter = case
        k = momentum_from_energy(omega, wg)
        t_a = scattering_matrix(
            transfer_matrix(CouplingConfig(Variant.A), k, wg, emitter)
        ).t_left
        t_b = scattering_matrix(
            transfer_matrix(CouplingConfig(Variant.B), k, wg, emitter)
        ).t_left
        worst = max(worst, abs(t_a - t_b))
        count += 1
    _criterion(
        3,
        "A and B site transmission identical over 1000 random draws (tol 1e-12)",
        worst < 1e-12,
        f"max |t_A - t_B| = {worst:.2e}",
    )


def test_c04_topology_blindness_and_sensitivity():
    rng = np.random.default_rng(202)
    worst_sym = 0.0
    count = 0
    while count < 500:
        delta = float(rng.uniform(0.15, 0.7))
        wg_plus = WaveguideParams(delta=delta)
        wg_minus = WaveguideParams(delta=-delta)
        case = _random_emitter(rng, wg_plus)
        if case is None:
            continue
        omega, emitter = case
        for variant in (Variant.A, Variant.B):
            config = CouplingConfig(variant)
            t_plus = transmittance(config, omega, wg_plus, emitter)
            t_minus = transmittance(config, omega, wg_minus, emitter)
            worst_sym = max(worst_sym, abs(abs(t_plus) - abs(t_minus)))
        count += 1

    config = CouplingConfig(Variant.AB, 0.5)
    emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
    best_asym = 0.0
    for dk in np.linspace(-0.05, 0.05, 201):
        try:
            t_plus = transmittance(config, 1.5 + float(dk), TRIVIAL, emitter)
            t_minus = transmittance(config, 1.5 + float(dk), TOPOLOGICAL, emitter)
        except ModelError:
            continue
        best_asym = max(best_asym, abs(abs(t_plus) ** 2 - abs(t_minus) ** 2))
    _criterion(
        4,
        "single-site |t| blind to sign(delta) (1e-12); split coupling is not (> 0.1)",
        worst_sym < 1e-12 and best_asym > 0.1,
        f"max sym dev = {worst_sym:.2e}, max T contrast = {best_asym:.2f}",
    )


def test_c05_mirror_to_transparency_switch():
    config = CouplingConfig(Variant.A)
    mirror = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
    driven = EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=5)
    t_off = abs(transmittance(config, 1.5, TRIVIAL, mirror)) ** 2
    t_on = abs(transmittance(config, 1.5, TRIVIAL, driven)) ** 2
    _criterion(
        5,
        "resonant photon: T = 0 with drive off, T = 1 with drive on (tol 1e-12)",
        t_off < 1e-12 and abs(t_on - 1.0) < 1e-12,
        f"T_off = {t_off:.1e}, 1 - T_on = {abs(t_on - 1):.1e}",
    )


@pytest.fixture(scope="module")
def ats_spectrum():
    emitter = EmitterParams(omega_e=1.5, omega_rabi=0.4, g=0.2, x1=5)
    grid = np.linspace(-0.35, 0.35, 10000)
    return sweep_spectrum(CouplingConfig(Variant.A), TRIVIAL, emitter, grid)


def test_c06_ats_dip_positions(ats_spectrum):
    dips = [f for f in extract_features(ats_spectrum) if f.kind == "dip"]
    ok = len(dips) == 2
    err = max(abs(abs(f.position) - 0.2) for f in dips) if ok else math.inf
    _criterion(
        6,
        "strong-drive doublet dips at +/- Omega/2 (tol 5e-3 on a 1e4 grid)",
        ok and err < 5e-3,
        f"positions {[round(f.position, 5) for f in dips]}",
    )


def test_c07_shifted_transmission_zero():
    config = CouplingConfig(Variant.AB, 0.5)
    emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0, g=0.2, x1=5)
    t_trivial = abs(transmittance(config, 1.5 + 1.0 / 150.0, TRIVIAL, emitter))
    t_topo = abs(transmittance(config, 1.5 + 0.02, TOPOLOGICAL, emitter))
    _criterion(
        7,
        "split-coupling zero at g^2 a(1-a)/t1: 1/150 J and 0.02 J (tol 1e-12)",
        t_trivial < 1e-12 and t_topo < 1e-12,
        f"|t| = {t_trivial:.1e}, {t_topo:.1e}",
    )


@pytest.fixture(scope="module")
def fano_spectra():
    emitter = EmitterParams(omega_e=1.5, omega_rabi=0.0045, g=0.2, x1=5)
    grid = np.linspace(-0.03, 0.05, 64001)
    config = CouplingConfig(Variant.AB, 0.5)
    return {
        0.5: sweep_spectrum(config, TRIVIAL, emitter, grid),
        -0.5: sweep_spectrum(config, TOPOLOGICAL, emitter, grid),
    }


def test_c08_topological_lineshape_sharper(fano_spectra):
    # Sharpness is measured as the FWHM of the transparency window between
    # the two transmission zeros: the zero-to-one swing of the asymmetric
    # lineshape.  (The half-depth width of the adjacent zero itself measures
    # the opposite ordering, because for delta < 0 the broad hybridized
    # resonance depresses the background; see the decisions ledger.)
    window = {}
    dip_width = {}
    for delta, grid in fano_spectra.items():
        feats = extract_features(grid)
        peaks = [f for f in feats if f.kind == "peak"]
        window[delta] = min(peaks, key=lambda f: abs(f.position)).fwhm
        dips = [f for f in feats if f.kind == "dip"]
        dip_width[delta] = min(dips, key=lambda f: abs(f.position)).fwhm
    ratio = window[-0.5] / window[0.5]
    _criterion(
        8,
        "narrow-drive transparency window sharper in the topological phase (ratio < 1)",
        ratio < 1.0,
        f"window fwhm ratio = {ratio:.3f}; adjacent-zero half-depth ratio = "
        f"{dip_width[-0.5] / dip_width[0.5]:.2f}",
    )


def test_c09_unitarity_and_reciprocity(ats_spectrum, fano_spectra):
    grids = [ats_spectrum] + list(fano_spectra.values())
    worst_flux = max(
        float(np.max(np.abs(g.transmission + g.reflection - 1.0))) for g in grids
    )
    worst_recip = 0.0
    rng = np.random.default_rng(303)
    count = 0
    while count < 500:
        delta = float(rng.uniform(0.15, 0.7)) * (1.0 if rng.random() < 0.5 else -1.0)
        wg = WaveguideParams(delta=delta)
        case = _random_emitter(rng, wg)
        if case is None:
            continue
        omega, emitter = case
        alpha = float(rng.uniform(0.1, 0.9))
        config = CouplingConfig(Variant.AB, alpha)
        k = momentum_from_energy(omega, wg)
        try:
            s = scattering_matrix(transfer_matrix(config, k, wg, emitter))
        except ModelError:
            continue
        worst_recip = max(worst_recip, abs(s.t_left - s.t_right))
        worst_flux = max(worst_flux, abs(abs(s.t_left) ** 2 + abs(s.r_left) ** 2 - 1.0))
        count += 1
    _criterion(
        9,
        "|t|^2 + |r|^2 = 1 and t_L = t_R at every sampled point (tol 1e-12)",
        worst_flux < 1e-12 and worst_recip < 1e-12,
        f"max flux dev = {worst_flux:.2e}, max t_L - t_R = {worst_recip:.2e}",
    )


def test_c10_oracle_agreement():
    report = agreement_report(
        draws_per_config=20,
        n_cells=32,
        include_wavepacket=True,
        sigma_x=20.0,
    )
    _criterion(
        10,
        "closed form vs matrix pipeline vs lattice (1e-10); transport oracle (2e-2)",
        report["passed"],
        "errors: matrix {:.1e}, lattice {:.1e}, wavepacket {:.1e}".format(
            report["max_abs_error_closed_vs_matrix"],
            report["max_abs_error_closed_vs_lattice"],
            report["max_wavepacket_diff"],
        ),
    )


def test_c11_transparency_window_widens(tmp_path):
    out = tmp_path / "contour.csv"
    code = run([
        "--out", str(out), "contour",
        "--config", "A", "--g", "0.2", "--delta", "0.5", "--omega-e", "1.5",
        "--dk-min", "-0.5", "--dk-max", "0.5", "--dk-steps", "801",
        "--omega-rabi-min", "0.05", "--omega-rabi-max", "0.4",
        "--omega-rabi-steps", "8",
    ])
    assert code == 0
    rows = np.array(
        [[float(v) for v in line.split(",")]
         for line in out.read_text().strip().splitlines()[1:]]
    )
    widths = []
    ridge_ok = True
    for om in np.unique(rows[:, 1]):
        sel = rows[rows[:, 1] == om]
        dk, t = sel[:, 0], sel[:, 2]
        center = int(np.argmin(np.abs(dk)))
        ridge_ok &= t[center] > 0.99
        lo = center
        while lo > 0 and t[lo - 1] > 0.5:
            lo -= 1
        hi = center
        while hi < len(t) - 1 and t[hi + 1] > 0.5:
            hi += 1
        widths.append(dk[hi] - dk[lo])
    monotone = all(b > a for a, b in zip(widths, widths[1:]))
    _criterion(
        11,
        "contour has a T > 0.99 ridge at zero detuning whose width grows with drive",
        ridge_ok and monotone,
        f"widths {['%.3f' % w for w in widths]}",
    )


def test_c12_deterministic_output(tmp_path):
    argv = [
        "spectrum", "--config", "AB", "--alpha", "0.5", "--omega-rabi", "0.01",
        "--delta", "-0.5", "--dk-steps", "301",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert run(["--out", str(first)] + argv) == 0
    assert run(["--out", str(second)] + argv) == 0
    same_spectrum = first.read_bytes() == second.read_bytes()

    w1 = tmp_path / "w1.json"
    w2 = tmp_path / "w2.json"
    assert run(["--out", str(w1), "winding", "--delta", "-0.5"]) == 0
    assert run(["--out", str(w2), "winding", "--delta", "-0.5"]) == 0
    same_winding = w1.read_bytes() == w2.read_bytes()
    payload = json.loads(w1.read_text())
    _criterion(
        12,
        "repeated CLI invocations are byte-identical",
        same_spectrum and same_winding and payload["nu"] == 1,
        f"spectrum identical: {same_spectrum}, winding identical: {same_winding}",
    )
