import json
import math
import re

import numpy as np
import pytest

from sshscatter import cli
from sshscatter.cli import run


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSpectrumCommand:
    def test_dip_sits_at_resonance(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = run([
            "--out", str(out), "spectrum",
            "--config", "A", "--g", "0.2", "--omega-rabi", "0",
            "--delta", "0.5", "--omega-e", "1.5",
            "--dk-min", "-0.2", "--dk-max", "0.2", "--dk-steps", "401",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["delta_k", "T", "R", "re_t", "im_t"]
        assert len(rows) == 401
        t_vals = np.array([float(r[1]) for r in rows])
        dk_vals = np.array([float(r[0]) for r in rows])
        assert abs(dk_vals[int(np.argmin(t_vals))]) < 1e-12
        assert np.all(t_vals >= 0.0)
        assert np.all(t_vals <= 1.0 + 1e-12)
        assert np.max(np.abs(t_vals + np.array([float(r[2]) for r in rows]) - 1)) < 1e-10

    def test_json_format(self, tmp_path):
        out = tmp_path / "spectrum.json"
        code = run([
            "--out", str(out), "--format", "json", "spectrum",
            "--config", "AB", "--alpha", "0.5", "--dk-steps", "11",
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 11
        assert set(rows[0]) == {"delta_k", "T", "R", "re_t", "im_t"}

    def test_lower_band(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = run([
            "--out", str(out), "spectrum",
            "--config", "B", "--omega-e", "-1.5", "--band", "lower",
            "--omega-rabi", "0.1", "--dk-steps", "51",
        ])
        assert code == 0
        header, rows = read_csv(out)
        t_plus_r = [float(r[1]) + float(r[2]) for r in rows]
        assert all(abs(v - 1.0) < 1e-10 for v in t_plus_r)

    def test_bad_grid_is_usage_error(self):
        assert run(["spectrum", "--config", "A", "--dk-steps", "1"]) == 2
        assert run(["spectrum", "--config", "A", "--dk-min", "0.2",
                    "--dk-max", "-0.2"]) == 2


class TestWindingCommand:
    def test_topological_value(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["--out", str(out), "winding", "--delta", "-0.5"]) == 0
        payload = json.loads(out.read_text())
        assert payload["delta"] == -0.5
        assert payload["nu"] == 1
        assert payload["zak_phase"] == pytest.approx(math.pi, rel=1e-11)

    def test_trivial_value(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["--out", str(out), "winding", "--delta", "0.5"]) == 0
        payload = json.loads(out.read_text())
        assert payload["nu"] == 0
        assert payload["zak_phase"] == 0.0

    def test_gapless_is_usage_error(self, tmp_path):
        assert run(["winding", "--delta", "0"]) == 2


class TestBandsCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "bands.csv"
        assert run(["--out", str(out), "bands", "--delta", "0.5", "--k-steps", "41"]) == 0
        header, rows = read_csv(out)
        assert header == ["k", "omega_upper", "omega_lower", "dx", "dy"]
        assert len(rows) == 41
        for row in rows:
            w_up, w_lo = float(row[1]), float(row[2])
            assert w_up == pytest.approx(-w_lo)
            assert 1.0 - 1e-9 <= w_up <= 2.0 + 1e-9
            assert math.hypot(float(row[3]), float(row[4])) == pytest.approx(w_up, abs=1e-10)


    @pytest.mark.parametrize("steps", ["1", "0", "-1"])
    def test_short_k_grid_is_usage_error(self, capsys, steps):
        # 0 printed only the header and -1 ended in numpy's ValueError
        assert run(["bands", "--k-steps", steps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k grid" in captured.err

    @pytest.mark.parametrize("J", ["1e300", "1e-170"])
    def test_extreme_scale_energies(self, capsys, J):
        # t1^2 overflows at J = 1e300 and underflows at J = 1e-170
        assert run(["bands", "--delta", "0.5", "--J", J, "--k-steps", "41"]) == 0
        captured = capsys.readouterr()
        assert "Warning" not in captured.err
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        w_up = np.array([float(row[1]) for row in rows]) / float(J)
        assert np.all((w_up >= 1.0 - 1e-12) & (w_up <= 2.0 + 1e-12))


class TestPolesCommand:
    def test_payload_fields(self, tmp_path):
        out = tmp_path / "poles.json"
        code = run([
            "--out", str(out), "poles",
            "--config", "AB", "--alpha", "0.5", "--g", "0.2",
            "--omega-rabi", "0.4", "--delta", "0.5", "--omega-e", "1.5",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"pole_plus", "pole_minus", "regime", "ratio", "lamb_shift"}
        assert payload["lamb_shift"] == pytest.approx(1.0 / 150.0, rel=1e-10)
        assert payload["regime"] in {"lorentzian", "eit", "ats"}
        assert len(payload["pole_plus"]) == 2


class TestFeaturesCommand:
    def test_ats_doublet(self, tmp_path):
        out = tmp_path / "features.json"
        code = run([
            "--out", str(out), "features",
            "--config", "A", "--g", "0.2", "--omega-rabi", "0.4",
            "--delta", "0.5", "--omega-e", "1.5",
            "--dk-min", "-0.35", "--dk-max", "0.35", "--dk-steps", "7001",
        ])
        assert code == 0
        feats = json.loads(out.read_text())
        dips = [f for f in feats if f["kind"] == "dip"]
        assert len(dips) == 2
        assert dips[0]["position"] == pytest.approx(-0.2, abs=5e-3)
        assert dips[1]["position"] == pytest.approx(0.2, abs=5e-3)


class TestContourCommand:
    def test_columns_and_range(self, tmp_path):
        out = tmp_path / "contour.csv"
        code = run([
            "--out", str(out), "contour",
            "--config", "A", "--g", "0.2", "--delta", "0.5", "--omega-e", "1.5",
            "--dk-steps", "21", "--omega-rabi-min", "0",
            "--omega-rabi-max", "0.2", "--omega-rabi-steps", "3",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["delta_k", "omega_rabi", "T"]
        assert len(rows) == 63
        assert all(0.0 <= float(r[2]) <= 1.0 + 1e-12 for r in rows)


class TestValidateCommand:
    def test_quick_agreement_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "--out", str(out), "validate",
            "--draws", "3", "--n-cells", "24", "--skip-wavepacket",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["n_cases"] == 9
        assert report["max_abs_error_closed_vs_matrix"] < 1e-10
        assert report["max_abs_error_closed_vs_lattice"] < 1e-10

    def test_csv_format_rejected(self):
        assert run(["--format", "csv", "validate", "--skip-wavepacket"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_packet_width_is_usage_error(self, capsys, value):
        assert run(["validate", "--draws", "0", f"--sigma-x={value}"]) == 2
        assert re.search(r"\bsigma_x\b", capsys.readouterr().err)

    @pytest.mark.parametrize("draws", ["-3", "0"])
    def test_draw_count_that_checks_nothing_is_usage_error(self, capsys, draws):
        # both used to report "passed": true after checking nothing
        assert run(["validate", "--draws", draws, "--skip-wavepacket"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "draws" in captured.err

    def test_full_suite_with_wavepackets(self, tmp_path):
        # default chain sizes: the two-site resonant case needs the full
        # length for its ringdown, so only the draw count is reduced here
        out = tmp_path / "report.json"
        code = run([
            "--out", str(out), "validate", "--draws", "2", "--n-cells", "24",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert len(report["wavepacket_cases"]) == 9
        assert report["max_wavepacket_diff"] < 2e-2


class TestParamFileAndErrors:
    def test_param_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"delta": 0.5, "config": "A", "g": 0.1}))
        out = tmp_path / "w.json"
        code = run(["--params", str(cfg), "--out", str(out), "winding", "--delta", "-0.5"])
        assert code == 0
        assert json.loads(out.read_text())["nu"] == 1  # flag wins over file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"coupling": 0.2}))
        assert run(["--params", str(cfg), "winding"]) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["--params", str(tmp_path / "nope.json"), "winding"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["spectrum", "--frobnicate", "1"]) == 2

    def test_out_of_range_delta_is_usage_error(self):
        assert run(["winding", "--delta", "1.5"]) == 2

    def test_flat_band_spectrum_is_usage_error_without_warnings(self, capsys):
        assert run(["spectrum", "--config", "A", "--delta", "1", "--dk-steps", "5"]) == 2
        err = capsys.readouterr().err
        assert "no grid point maps into the upper passband" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, field", [
        ("--J", "J"), ("--omega-e", "omega_e"), ("--delta-c", "delta_c"),
        ("--omega-rabi", "omega_rabi"), ("--g", "g"), ("--omega", "omega"),
    ])
    def test_non_finite_input_names_its_field(self, capsys, flag, field, value):
        command = "poles" if flag == "--omega" else "spectrum"
        assert run([command, "--config", "A", f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{field}\b", err), err
        assert "sits on a band edge" not in err
        assert "Warning" not in err

    def test_poles_json_is_strict(self, capsys):
        # (Omega/J)^2 overflows here; the output must stay strict JSON, with
        # any non-finite part written as a string, never as NaN or Infinity
        assert run(["poles", "--config", "A", "--omega-rabi", "1e300"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        json.loads(capsys.readouterr().out, parse_constant=reject)
        assert cli._jsonify(complex(math.nan, -math.inf)) == ["nan", "-inf"]
        assert cli._jsonify(complex(1.0, -0.0)) == [1.0, -0.0]

    @pytest.mark.parametrize("value", ["1e200", "1e300"])
    @pytest.mark.parametrize("flag, field", [("--g", "g"), ("--omega-rabi", "omega_rabi")])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--config", "A", "--dk-steps", "5"],
        ["contour", "--config", "A", "--dk-steps", "5", "--omega-rabi-steps", "3"],
        ["features", "--config", "A", "--dk-steps", "51"],
        ["poles", "--config", "A"],
        ["poles", "--config", "AB", "--alpha", "0.3"],
    ], ids=["spectrum", "contour", "features", "poles", "poles-AB"])
    def test_huge_coupling_or_drive_is_finite_or_named(self, capsys, argv, flag, field, value):
        # (g/J)^2 and (Omega/J)^2 overflow: the answer is finite (the
        # potential enters only as a ratio) or a usage error naming the field
        code = run(["--format", "json", *argv, f"{flag}={value}"])
        captured = capsys.readouterr()
        assert "Warning" not in captured.err
        if code == 2:
            assert re.search(rf"\b{field}\b", captured.err), captured.err
            return
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        json.loads(captured.out, parse_constant=reject)
        assert not re.search(r'"-?(nan|inf)"', captured.out), captured.out

    @pytest.mark.parametrize("argv", [
        ["contour", "--config", "AB", "--alpha", "0.3", "--dk-steps", "5",
         "--omega-rabi-max", "1e300", "--omega-rabi-steps", "4", "--g", "1e300"],
        ["spectrum", "--config", "B", "--dk-steps", "9", "--omega-rabi", "1e300", "--g", "1e300"],
    ], ids=["contour", "spectrum"])
    def test_huge_coupling_and_drive_together_are_finite(self, capsys, argv):
        assert run(["--format", "json", *argv]) == 0
        captured = capsys.readouterr()
        assert "Warning" not in captured.err
        assert not re.search(r'"-?(nan|inf)"', captured.out), captured.out

    def test_underflowing_coupling_poles(self, capsys):
        assert run(["poles", "--config", "A", "--omega-rabi", "0.2", "--g", "1e-170"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "ats" and payload["ratio"] == "inf"

    ENERGY_FIELDS = {"delta_k", "position", "fwhm", "pole_plus", "pole_minus", "lamb_shift"}

    def _scaled_run(self, capsys, argv, J):
        """Run ``argv``, whose (flag, value) entries give energies in units of
        J, at scale J; return the JSON output flattened, its energies over J."""
        argv = [f"{a[0]}={a[1] * J!r}" if isinstance(a, tuple) else a for a in argv]
        assert run(["--format", "json", *argv, "--J", repr(J)]) == 0
        captured = capsys.readouterr()
        assert "Warning" not in captured.err
        records = json.loads(captured.out)
        flat = []
        for record in records if isinstance(records, list) else [records]:
            for key, value in record.items():
                scale = J if key in self.ENERGY_FIELDS else 1.0
                for v in value if isinstance(value, list) else [value]:
                    flat.append(v / scale if isinstance(v, float) else v)
        return flat

    EMITTER = [("--omega-e", 1.5), ("--g", 0.2), ("--omega-rabi", 0.4)]
    DK = [("--dk-min", -0.35), ("--dk-max", 0.35)]

    @pytest.mark.parametrize("J", [1e-170, 1e300])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--config", "AB", "--alpha", "0.3", "--dk-steps", "41", *EMITTER, *DK],
        ["features", "--config", "A", "--dk-steps", "2001", *EMITTER, *DK],
        ["poles", "--config", "AB", "--alpha", "0.3", *EMITTER],
    ], ids=["spectrum", "features", "poles"])
    def test_extreme_scale_matches_unit_scale(self, capsys, argv, J):
        # t1 t2 and g^2 leave the range of doubles at these J; the closed
        # forms, the kinematics and the poles work in units of J
        unit = self._scaled_run(capsys, argv, 1.0)
        scaled = self._scaled_run(capsys, argv, J)
        assert len(unit) > 4
        assert scaled == pytest.approx(unit, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("command", ["spectrum", "contour", "features"])
    def test_huge_emitter_energy_is_an_empty_grid(self, capsys, command):
        assert run([command, "--omega-e", "1e300"]) == 2
        err = capsys.readouterr().err
        assert "no grid point maps into the upper passband" in err
        assert "Warning" not in err

    def test_subnormal_scale_winding(self, capsys):
        assert run(["winding", "--delta", "-0.5", "--J", "5e-324"]) == 0
        assert json.loads(capsys.readouterr().out)["nu"] == 1

    def test_empty_sweep_is_usage_error(self):
        assert run([
            "spectrum", "--config", "A", "--omega-e", "0.2",
            "--dk-min", "-0.01", "--dk-max", "0.01", "--dk-steps", "5",
        ]) == 2


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        argv_sets = [
            ["spectrum", "--config", "AB", "--alpha", "0.3", "--omega-rabi", "0.05",
             "--dk-steps", "101"],
            ["winding", "--delta", "-0.5"],
            ["poles", "--config", "A", "--omega-rabi", "0.2"],
            ["--format", "json", "bands", "--k-steps", "31"],
        ]
        for i, argv in enumerate(argv_sets):
            a = tmp_path / f"a{i}.out"
            b = tmp_path / f"b{i}.out"
            assert run(["--out", str(a)] + argv) == 0
            assert run(["--out", str(b)] + argv) == 0
            assert a.read_bytes() == b.read_bytes()


def _reference_value(value) -> str:
    """The per-value CSV rendering the block formatter must reproduce."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "{:.11e}".format(float(value))
    return str(value)


def _reference_csv(header, columns) -> str:
    """A record (a scalar per header entry) is one row; a complex column
    ``name`` is the two columns ``name_re, name_im``."""
    if np.ndim(columns[0]) == 0:
        columns = [[value] for value in columns]
    names, parts = [], []
    for name, col in zip(header, columns):
        col = np.asarray(col).tolist()
        if any(isinstance(v, complex) for v in col):
            names += [f"{name}_re", f"{name}_im"]
            parts += [[v.real for v in col], [v.imag for v in col]]
        else:
            names.append(name)
            parts.append(col)
    lines = [",".join(names)] + [",".join(_reference_value(v) for v in row) for row in zip(*parts)]
    return "\n".join(lines) + "\n"


class TestCsvBlocks:
    SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300,
               1.0, -2.5e-17, 0.1, 123456.789012345]
    # 12 and 13 significant digits at a rounding tie of the 12 printed;
    # 9.9999999999995 carries into the next exponent
    NEAR_TIES = [1.000000000005, 123456789012.5, 9.9999999999995, 1.0000000000015,
                 2.5000000000005e-11, 9.9999999999995e33, 5.55555555555549e20]
    # the array path covers zero and [1e-11, 1e34)
    BOUNDARIES = [9.99999999999e-12, 1e-11, 9.9999999999995e33, 1e34]

    def _check(self, header, columns):
        text = "".join(cli._csv_chunks(header, columns))
        assert text == _reference_csv(header, columns)

    def _check_column(self, values):
        """``values``, their neighbours on both sides and their negatives."""
        col = np.asarray(values, dtype=np.float64)
        col = np.concatenate([col, np.nextafter(col, 0.0), np.nextafter(col, np.inf)])
        col = np.concatenate([col, -col])
        self._check(["x", "y"], [col, col[::-1].copy()])

    def test_special_floats(self):
        col = np.array(self.SPECIAL)
        self._check(["a", "b"], [col, col[::-1].copy()])

    def test_near_ties(self):
        self._check_column(self.NEAR_TIES)

    def test_both_sides_of_the_range_boundaries(self):
        self._check_column(self.BOUNDARIES)

    def test_zeros_subnormals_and_powers_of_ten(self):
        tiny = [5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]
        self._check_column([0.0] + tiny + [float(f"1e{e}") for e in range(-11, 34)])

    def test_fallback_runs_only_where_documented(self, monkeypatch):
        # the per-value % formats nan, +-inf, |x| outside [1e-11, 1e34) and
        # near-ties; powers of ten, where log10 may be one off, do not need it
        seen = []

        class Spy(str):
            def __mod__(self, value):
                seen.append(value)
                return str.__mod__(self, value)

        monkeypatch.setattr(cli, "_FLOAT_FMT", Spy(cli._FLOAT_FMT))
        powers = np.array([float(f"1e{e}") for e in range(-10, 34)])
        array_path = np.concatenate([[0.0, 1.5e-11, 9.75e33], powers,
                                     np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        fallback = [math.nan, math.inf, -math.inf, 5e-324, 9e-12, 1e34, -1e300,
                    1.000000000005, -123456789012.5]
        self._check(["x"], [np.concatenate([array_path, -array_path, fallback])])
        assert sorted(map(repr, seen)) == sorted(map(repr, fallback))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        col = rng.integers(-2 ** 63, 2 ** 63, 20000, dtype=np.int64).view(np.float64)
        self._check(["x", "y"], [col, col[::-1].copy()])

    def test_decimals_at_every_exponent_of_the_array_path(self):
        rng = np.random.default_rng(12)
        digits = rng.integers(10 ** 12, 10 ** 13, 3000)
        exps = rng.integers(-24, 22, 3000)
        self._check_column([float(f"{d - d % 10 + 5}e{e}") for d, e in zip(digits, exps)]
                           + [float(f"{d}e{e}") for d, e in zip(digits, exps)])

    def test_any_floats_across_a_block_boundary(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
        def check(values):
            col = np.resize(np.array(values), cli._BLOCK_ROWS + len(values))
            self._check(["x", "y", "i"], [col, col[::-1].copy(), np.arange(len(col))])

        check()

    def test_table_without_a_float_column(self):
        self._check(["kind", "n"], [["dip", "peak", "dip"], [1, -2, 3]])

    def test_int_bool_and_str_columns(self):
        n = len(self.SPECIAL)
        self._check(
            ["kind", "x", "nu", "flag"],
            [["dip", "peak"] * (n // 2) + ["dip"], self.SPECIAL, list(range(-3, n - 3)),
             [True, False] * (n // 2) + [True]],
        )

    def test_empty_table_is_the_header(self):
        assert "".join(cli._csv_chunks(["kind", "position"], [[], []])) == "kind,position\n"

    def test_block_boundary_inside_the_table(self):
        rng = np.random.default_rng(7)
        n = cli._BLOCK_ROWS + 17
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[[0, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, n - 1]] = [-0.0, math.nan, math.inf, 5e-324]
        chunks = list(cli._csv_chunks(["x", "i", "s"], [floats, np.arange(n), ["v"] * n]))
        assert len(chunks) == 3  # header, one full block, the rest
        assert "".join(chunks) == _reference_csv(["x", "i", "s"], [floats, np.arange(n), ["v"] * n])

    @pytest.mark.parametrize("argv", [
        ["winding", "--delta", "-0.5"],
        ["poles", "--config", "AB", "--alpha", "0.5", "--omega-rabi", "0.0045"],
        ["poles", "--config", "A", "--g", "0", "--omega-rabi", "0.2"],
        ["features", "--config", "A", "--omega-rabi", "0.4", "--dk-min", "-0.35",
         "--dk-max", "0.35", "--dk-steps", "2001"],
    ])
    def test_mixed_tables_match_the_reference(self, argv):
        args = cli._build_parser().parse_args(["--format", "csv"] + argv)
        header, columns, _ = args.handler(args)
        self._check(header, columns)


README_RECIPES = [
    "spectrum --config A --g 0.2 --omega-rabi 0 --delta 0.5 --omega-e 1.5 "
    "--dk-min -0.2 --dk-max 0.2 --dk-steps 401",
    "winding --delta -0.5",
    "contour --config AB --alpha 0.5 --delta -0.5 --omega-rabi-max 0.1",
    "poles --config AB --alpha 0.5 --omega-rabi 0.0045",
    "spectrum --config A --omega-rabi 0 --dk-steps 401",
    "spectrum --config A --omega-rabi 0.2 --dk-steps 401",
    "features --config A --omega-rabi 0.4 --dk-min -0.35 --dk-max 0.35 --dk-steps 10001",
    "spectrum --config AB --alpha 0.5 --omega-rabi 0.0045 --delta 0.5 "
    "--dk-min -0.03 --dk-max 0.05 --dk-steps 8001",
    "spectrum --config AB --alpha 0.5 --omega-rabi 0.0045 --delta -0.5 "
    "--dk-min -0.03 --dk-max 0.05 --dk-steps 8001",
]


class TestCsvMatchesReference:
    """Each command's table, written by the block writer, is the per-value
    reference text, on stdout and through --out alike."""

    @pytest.mark.parametrize("command", README_RECIPES + [
        # every R and im_t is exactly zero
        "spectrum --config A --g 0 --dk-steps 11",
        # many blocks, and a band edge inside the grid
        "spectrum --config B --omega-e -1.5 --band lower --omega-rabi 0.1 "
        "--dk-min -1 --dk-max 1 --dk-steps 64001",
    ])
    def test_command_table(self, tmp_path, capsys, command):
        argv = ["--format", "csv"] + command.split()
        args = cli._build_parser().parse_args(argv)
        header, columns, _ = args.handler(args)
        expected = _reference_csv(header, columns)
        assert "".join(cli._csv_chunks(header, columns)) == expected
        assert run(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "table.csv"
        assert run(["--out", str(out)] + argv) == 0
        assert out.read_bytes() == expected.encode("utf-8")


class TestParserReuse:
    """The parser is built once per process; runs must not share state."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_json_then_default_format(self, capsys):
        assert run(["--format", "json", "spectrum", "--dk-steps", "5"]) == 0
        assert capsys.readouterr().out.startswith("[")
        assert run(["spectrum", "--dk-steps", "5"]) == 0
        assert capsys.readouterr().out.startswith("delta_k,T,R,re_t,im_t\n")

    def test_param_file_then_flags_only(self, tmp_path, capsys):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"delta": -0.5}))
        assert run(["--params", str(cfg), "winding"]) == 0
        assert json.loads(capsys.readouterr().out)["nu"] == 1
        assert run(["winding"]) == 0
        assert json.loads(capsys.readouterr().out)["nu"] == 0

    @pytest.mark.parametrize("first,code", [
        (["spectrum", "--frobnicate", "1"], 2),
        (["--help"], 0),
        (["spectrum", "--help"], 0),
    ])
    def test_exit_then_valid_command(self, capsys, first, code):
        assert run(first) == code
        capsys.readouterr()
        assert run(["winding", "--delta", "-0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == -0.5


class TestStdoutMatchesFile:
    """Streaming to stdout and writing --out give the same bytes."""

    @pytest.mark.parametrize("argv", [
        ["bands", "--k-steps", "31"],
        ["winding", "--delta", "-0.5"],
        ["spectrum", "--config", "AB", "--alpha", "0.3", "--omega-rabi", "0.05",
         "--dk-steps", str(cli._BLOCK_ROWS + 101)],
        ["contour", "--config", "A", "--dk-steps", "21", "--omega-rabi-steps", "3"],
        ["poles", "--config", "A", "--omega-rabi", "0.2"],
        ["features", "--config", "A", "--omega-rabi", "0.4", "--dk-min", "-0.35",
         "--dk-max", "0.35", "--dk-steps", "2001"],
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip(self, tmp_path, capsys, argv, fmt):
        out = tmp_path / "out"
        assert run(["--format", fmt] + argv) == 0
        streamed = capsys.readouterr().out.encode("utf-8")
        assert run(["--out", str(out), "--format", fmt] + argv) == 0
        assert out.read_bytes() == streamed
        # the other format writes the same table: a record is one JSON object
        # or a one-row CSV, and a complex value [re, im] is two CSV columns
        other = "json" if fmt == "csv" else "csv"
        assert run(["--format", other] + argv) == 0
        texts = {fmt: streamed.decode("utf-8"), other: capsys.readouterr().out}
        header, *rows = [line.split(",") for line in texts["csv"].splitlines()]
        records = json.loads(texts["json"])
        records = records if isinstance(records, list) else [records]
        assert len(records) == len(rows)
        for record, row in zip(records, rows):
            flat = {}
            for key, value in record.items():
                if isinstance(value, list):
                    flat[f"{key}_re"], flat[f"{key}_im"] = value
                else:
                    flat[key] = value
            assert list(flat) == header
            for value, text in zip(flat.values(), row):
                if isinstance(value, str) and value not in ("inf", "-inf", "nan"):
                    assert text == value
                else:
                    assert float(text) == pytest.approx(float(value), rel=1e-12, abs=0.0,
                                                         nan_ok=True)

    def test_validate_round_trip(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["validate", "--draws", "1", "--n-cells", "24", "--skip-wavepacket"]
        assert run(argv) == 0
        streamed = capsys.readouterr().out.encode("utf-8")
        assert run(["--out", str(out)] + argv) == 0
        assert out.read_bytes() == streamed
