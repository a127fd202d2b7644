"""Tests of the benchmark itself: every check rejects a perturbed value,
the tracer sees every call path, and a short run prints the agreed result.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sshscatter as ss  # noqa: E402
import sshscatter.cli  # noqa: E402,F401  (binds ss.cli)

import checks as ck  # noqa: E402
import oracle_workload  # noqa: E402
import points_workload  # noqa: E402
import spans  # noqa: E402
import spectra_workload  # noqa: E402

CHAIN = ss.WaveguideParams(delta=0.5)
EMITTER = ss.EmitterParams(omega_e=1.5, omega_rabi=0.2, g=0.2, x1=7)
CONFIGS = [ss.CouplingConfig(ss.Variant.A), ss.CouplingConfig(ss.Variant.AB, 0.3)]


def _round12(x):
    return np.vectorize(lambda v: float(f"{v:.11e}"))(x)


# ------------------------------------------------------------ plain checks


@pytest.mark.parametrize("config", CONFIGS, ids=["A", "AB"])
def test_flux_check(config):
    t = ss.transmittance(config, 1.53, CHAIN, EMITTER)
    r = ss.reflectance(config, 1.53, CHAIN, EMITTER)
    assert ck.check_flux(t, r) == []
    assert ck.check_flux(t, r + 1e-6)
    assert ck.check_flux(t * (1 + 1e-9), r)


@pytest.mark.parametrize("config", CONFIGS, ids=["A", "AB"])
def test_spectrum_row_checks(config):
    grid = ss.sweep_spectrum(config, CHAIN, EMITTER, np.linspace(-0.2, 0.2, 101))
    rows = _round12(np.column_stack([grid.delta_k, grid.transmission, grid.reflection,
                                     grid.amplitude.real, grid.amplitude.imag]))
    assert ck.check_spectrum_rows(rows) == []
    for col in (1, 2, 3):
        bad = rows.copy()
        bad[50, col] += 1e-9
        assert ck.check_spectrum_rows(bad), col
    assert ck.check_grid(rows[:, 0], grid.delta_k) == []
    assert ck.check_grid(rows[1:, 0], grid.delta_k)
    assert ck.check_grid(rows[:, 0] + 1e-9, grid.delta_k)


def test_special_points_check():
    dk = np.linspace(-0.2, 0.2, 401)
    trans = np.full_like(dk, 0.5)
    trans[200] = 0.0
    assert ck.check_special_points(dk, trans, [(0.0, 0.0)]) == []
    trans[200] = 1e-9
    assert ck.check_special_points(dk, trans, [(0.0, 0.0)])
    assert ck.check_special_points(dk, trans, [(0.0005, 0.0)])


def test_group_checks():
    table = np.random.default_rng(0).random((20, 5))
    assert ck.check_same_spectra([table, table.copy()]) == []
    bad = table.copy()
    bad[3, 1] += 1e-9
    assert ck.check_same_spectra([table, bad])
    assert ck.check_sign_contrast(table[:, 1], table[:, 1])
    assert ck.check_sign_contrast(table[:, 1], table[:, 2]) == []


def test_dip_check():
    assert ck.check_dips([-0.1, 0.1], (-0.1, 0.1), 1e-3) == []
    assert ck.check_dips([-0.1, 0.1 + 2e-3], (-0.1, 0.1), 1e-3)
    assert ck.check_dips([-0.1, 0.0, 0.1], (-0.1, 0.1), 1e-3)
    assert ck.check_dips([-0.1], (-0.1, 0.1), 1e-3)


@pytest.mark.parametrize("config", CONFIGS, ids=["A", "AB"])
def test_pole_and_regime_checks(config):
    k = ss.momentum_from_energy(1.55, CHAIN)
    pair = ss.poles(config, CHAIN, EMITTER, k)
    s, quarter = ck.pole_quadratic(k, 0.5, 1.0, EMITTER.g, config.alpha, EMITTER.omega_rabi)
    assert ck.check_poles(pair.pole_plus, pair.pole_minus, s, quarter) == []
    assert ck.check_poles(pair.pole_plus * (1 + 1e-8), pair.pole_minus, s, quarter)
    assert ck.check_poles(pair.pole_plus, pair.pole_plus, s, quarter)
    regime = ss.classify_regime(config, CHAIN, EMITTER, k)
    want = ck.regime_ratio(k, 0.5, 1.0, EMITTER.g, config.alpha, EMITTER.omega_rabi)
    assert ck.check_regime(regime.label, regime.ratio, want) == []
    assert ck.check_regime(regime.label, regime.ratio * (1 + 1e-8), want)
    assert ck.check_regime("ats" if regime.label != "ats" else "eit", regime.ratio, want)


def test_momentum_and_packet_checks():
    k = ss.momentum_from_energy(1.55, CHAIN)
    assert ck.check_momentum(k, 1.55, 0.5, 1.0) == []
    assert ck.check_momentum(k + 1e-9, 1.55, 0.5, 1.0)
    assert ck.check_momentum(-k, 1.55, 0.5, 1.0)
    assert ck.check_packet(0.6, 0.3, 0.1, 0.61) == []
    assert ck.check_packet(0.6, 0.3, 0.1 + 1e-6, 0.61)
    assert ck.check_packet(0.6, 0.3, 0.1, 0.63)


def test_driven_zeros_are_zeros_of_t():
    """The benchmark's zero positions make the program's t vanish."""
    for config in CONFIGS:
        t1 = CHAIN.t1
        alpha = config.alpha if config.variant is ss.Variant.AB else 0.0
        for dk in ck.driven_zeros(EMITTER.g, alpha, t1, EMITTER.omega_rabi):
            assert abs(ss.transmittance(config, EMITTER.omega_e + dk, CHAIN, EMITTER)) < 1e-9


# ------------------------------------------------------- workload checks


def _points(n=12):
    ops = points_workload.build(np.random.default_rng(5), True, "")[:n]
    return ops, [op.run() for op in ops]


def test_points_check_accepts_program_output():
    ops, outputs = _points()
    assert points_workload.check(ops, outputs) == {}


@pytest.mark.parametrize("field", range(9))
def test_points_check_rejects_each_perturbed_output(field):
    ops, outputs = _points(3)
    for op, out in zip(ops, outputs):
        out = list(out)
        if isinstance(out[field], str):
            out[field] = {"lorentzian": "eit"}.get(out[field], "lorentzian")
        else:
            out[field] = out[field] * (1 + 1e-7) + 1e-7
        assert points_workload.check_point(op.spec, tuple(out)), field


def _shifted(real, when, by):
    def fake(config, omega, params, emitter, band=ss.Band.UPPER):
        t = real(config, omega, params, emitter, band)
        return t * (1 + by) if when(params, emitter) else t
    return fake


@pytest.mark.parametrize("case", ["x1", "J"])
def test_points_invariance_checks_see_a_broken_program(monkeypatch, case):
    ops, outputs = _points(3)
    real = ss.transmittance
    if case == "x1":
        when = lambda params, emitter: emitter.x1 == ops[0].spec["other_x1"]  # noqa: E731
    else:
        when = lambda params, emitter: params.J == 1.0  # noqa: E731
    monkeypatch.setattr(ss, "transmittance", _shifted(real, when, 1e-8))
    msgs = points_workload.check_point(ops[0].spec, outputs[0])
    assert any(case in m for m in msgs), msgs


@pytest.mark.parametrize("field", range(5))
def test_oracle_check_rejects_each_perturbed_output(field):
    ops = oracle_workload.build(np.random.default_rng(3), True, "")[:2]
    for op in ops:
        out = list(op.run())
        assert oracle_workload.check_scatter(op.spec, tuple(out)) == []
        out[field] += 1e-8
        assert oracle_workload.check_scatter(op.spec, tuple(out))


def test_oracle_check_compares_lattice_sizes():
    op = next(o for o in oracle_workload.build(np.random.default_rng(3), True, "")
              if o.spec["n_cells"] == 128)
    t, r, t_pipe, t_lat, r_lat = op.run()
    assert oracle_workload.check_scatter(op.spec, (t, r, t_pipe, t_lat, r_lat)) == []
    emitter = dataclasses.replace(op.spec["emitter"], g=op.spec["emitter"].g * 1.01)
    found = oracle_workload.check_scatter(dict(op.spec, emitter=emitter),
                                          (t, r, t_pipe, t_lat, r_lat))
    assert any("N=128" in m for m in found)


@pytest.fixture(scope="module")
def spectra_run(tmp_path_factory):
    scratch = str(tmp_path_factory.mktemp("spectra"))
    ops = spectra_workload.build(np.random.default_rng(2), True, scratch)
    outputs = [op.run() for op in ops]
    return ops, outputs


def test_spectra_check_accepts_program_output(spectra_run):
    ops, outputs = spectra_run
    assert spectra_workload.check(ops, outputs) == {}
    kinds = {op.kind for op in ops}
    assert kinds == {"spectrum", "contour", "features", "poles", "winding"}


def _perturb_file(path, edit):
    text = Path(path).read_text(encoding="utf-8")
    Path(path).write_text(edit(text), encoding="utf-8")
    return text


@pytest.mark.parametrize("kind", ["spectrum", "contour", "features", "poles", "winding"])
def test_spectra_check_rejects_each_perturbed_file(spectra_run, kind):
    ops, outputs = spectra_run
    i = next(i for i, op in enumerate(ops) if op.kind == kind)
    path = ops[i].spec["out"]

    def edit(text):
        if path.endswith(".csv"):
            return _edit_csv(-1, 1e-6)(text)
        data = json.loads(text)
        if kind == "features":
            data[0]["position"] += 0.05
        elif kind == "poles":
            data["pole_plus"][0] += 1e-6
        else:
            data["nu"] = 1 - data["nu"]
        return json.dumps(data)

    original = _perturb_file(path, edit)
    try:
        assert i in spectra_workload.check(ops, outputs)
    finally:
        Path(path).write_text(original, encoding="utf-8")


def _edit_csv(column, by):
    def edit(text):
        lines = text.splitlines()
        cells = lines[len(lines) // 2].split(",")
        cells[column] = repr(float(cells[column]) + by)
        lines[len(lines) // 2] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def test_spectra_group_checks_see_a_broken_pair(spectra_run):
    ops, outputs = spectra_run
    quartet = [i for i, op in enumerate(ops) if op.spec.get("group", ("",))[0] == "quartet"]
    pair = [i for i, op in enumerate(ops) if op.spec.get("group", ("",))[0] == "ab-sign"][:2]
    # a B file that differs from its A twin flags the intact A file too
    target = ops[quartet[1]].spec["out"]
    original = _perturb_file(target, _edit_csv(1, 1e-9))
    try:
        assert quartet[0] in spectra_workload.check(ops, outputs)
    finally:
        Path(target).write_text(original, encoding="utf-8")
    # an AB file copied onto its sign partner makes the pair blind to sign(delta)
    partner = ops[pair[1]].spec["out"]
    saved = Path(partner).read_text(encoding="utf-8")
    shutil.copyfile(ops[pair[0]].spec["out"], partner)
    try:
        found = spectra_workload.check(ops, outputs)
        assert any("blind to sign" in m for m in found.get(pair[0], []))
    finally:
        Path(partner).write_text(saved, encoding="utf-8")


# ----------------------------------------------------------------- tracer


def test_tracer_reaches_names_imported_elsewhere_and_restores():
    import sshscatter.spectra as spectra_mod

    tracer = spans.Tracer()
    original = ss.transmittance
    tracer.install()
    try:
        assert ss.transmittance is not original
        assert spectra_mod.transmittance is ss.scattering.transmittance is ss.transmittance
        grid = ss.sweep_spectrum(CONFIGS[0], CHAIN, EMITTER, np.linspace(-0.6, 0.6, 61))
    finally:
        tracer.uninstall()
    assert ss.transmittance is original and spectra_mod.transmittance is original
    metrics = spans.per_layer(tracer.names, tracer.arrays(), tracer.counts)
    assert metrics["spectra.sweep_spectrum.points_requested"] == 61
    assert metrics["spectra.sweep_spectrum.points_kept"] == len(grid) < 61
    assert metrics["scattering.transmittance.calls"] == 61
    assert metrics["scattering.reflectance.calls"] == len(grid)
    table = spans.summarize(tracer.names, tracer.arrays())
    assert table["spectra.sweep_spectrum"]["calls"] == 1


def test_self_time_and_ancestry_from_synthetic_spans():
    names = ["spectra.sweep_spectrum", "bands.momentum_from_energy", "other"]
    arrays = {
        "name_id": np.array([0, 1, 1, 2, 1]),
        "parent": np.array([-1, 0, 0, -1, 3]),
        "start": np.array([0.0, 1.0, 3.0, 10.0, 11.0]),
        "end": np.array([6.0, 2.0, 5.0, 14.0, 12.0]),
        "tag": np.zeros(5, dtype=int),
        "raised": np.array([0, 0, 1, 0, 0]),
    }
    table = spans.summarize(names, arrays)
    assert table["spectra.sweep_spectrum"]["self_s"] == pytest.approx(3.0)
    assert table["bands.momentum_from_energy"]["calls"] == 3
    assert table["other"]["self_s"] == pytest.approx(3.0)
    assert spans.under(names, arrays, "spectra.sweep_spectrum").tolist() == [
        False, True, True, False, False]
    counts = {"spectra.sweep_spectrum.points_requested": 2,
              "spectra.sweep_spectrum.points_kept": 1, "cli.bytes_written": 0}
    metrics = spans.per_layer(names, arrays, counts)
    # one call returned normally inside the sweep, one raised, one ran elsewhere
    assert metrics["bands.momentum_from_energy.calls_per_point"] == 1.0
    assert metrics["spectra.sweep_spectrum.kept_ratio"] == 0.5


# -------------------------------------------------------------- end to end


def _run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload,trace", [("spectra", 0), ("oracle", 0), ("points", 0),
                                            ("points", 1)])
def test_short_run_prints_the_agreed_result(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "1",
                "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record_path = ROOT / "bench" / "out" / f"{workload}-seed4-trace{trace}.json"
    record = json.loads(record_path.read_text())
    assert record["seed"] == 4 and record["machine"]["blas_threads"] == "1"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "points", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
