"""Command-line interface: deterministic CSV/JSON emission for every sweep.

Float output is fixed at 12 significant digits (scientific notation for
CSV, rounded values for JSON) and files are written atomically, so two
invocations with the same inputs produce byte-identical artifacts.  Each
table handler returns a header and equal-length columns; CSV text is
formatted and written a block of rows at a time.

Exit codes: 0 success, 1 validation-tolerance breach, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import bands as band_ops
from . import spectra
from .errors import ModelError, ValidationError
from .params import _SCHEMA, Band, bundle_from_dict, load_param_dict
from .validation import agreement_report

_FLOAT_FMT = "%.11e"

#: rows per block of CSV text; each block is formatted in one call
_BLOCK_ROWS = 4096


def _round12(value: float) -> float:
    if value == 0.0 or not math.isfinite(value):
        return value
    return float(_FLOAT_FMT % value)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {key: _jsonify(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(val) for val in obj]
    if isinstance(obj, complex):
        return [_jsonify(obj.real), _jsonify(obj.imag)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        # non-finite values (e.g. an unbounded regime ratio at g = 0) are
        # emitted as strings to keep the output strict JSON
        return _round12(value) if math.isfinite(value) else str(value)
    return obj


def _emit(chunks, out_path) -> None:
    """Write text chunks to stdout, or to ``out_path`` atomically.

    Each chunk is written as it is produced, so a large table never exists
    as one string.
    """
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sshscatter-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_chunks(header, columns):
    """CSV text of a column table: the header line, then blocks of rows.

    ``columns`` are equal-length 1-d arrays (or sequences numpy turns into
    one), each of a single type.  Float columns print as ``%.11e`` (the
    same text as ``{:.11e}`` for every double); int, bool and str columns
    print as ``str`` of the value.  Each block of ``_BLOCK_ROWS`` rows is
    one ``%`` format of the row template repeated.
    """
    columns = [np.asarray(col) for col in columns]
    width = len(columns)
    row = ",".join(_FLOAT_FMT if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [col[start:start + _BLOCK_ROWS].tolist() for col in columns]
        values = [None] * (width * len(block[0]))
        for j, col in enumerate(block):
            values[j::width] = col
        yield row * len(block[0]) % tuple(values)


def _emit_json(payload, out_path) -> None:
    _emit([json.dumps(_jsonify(payload), indent=2) + "\n"], out_path)


def _add_param_flags(parser, with_coupling=True):
    parser.add_argument("--delta", type=float, default=None, help="dimerization constant")
    parser.add_argument("--J", type=float, default=None, help="characteristic hopping (default 1)")
    if with_coupling:
        parser.add_argument("--config", choices=["A", "B", "AB"], default=None,
                            help="coupling variant")
        parser.add_argument("--alpha", type=float, default=None,
                            help="sublattice mixing (AB only)")
        parser.add_argument("--g", type=float, default=None, help="waveguide coupling")
        parser.add_argument("--omega-rabi", type=float, default=None,
                            help="control-field Rabi frequency")
        parser.add_argument("--delta-c", type=float, default=None,
                            help="control-field detuning")
        parser.add_argument("--omega-e", type=float, default=None,
                            help="emitter transition energy")
        parser.add_argument("--x1", type=int, default=None, help="coupling cell index")


def _add_dk_flags(parser):
    parser.add_argument("--dk-min", type=float, default=-0.2)
    parser.add_argument("--dk-max", type=float, default=0.2)
    parser.add_argument("--dk-steps", type=int, default=401)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` leaves the parser unchanged and returns a new namespace
    each call, and every default is immutable, so runs share nothing.
    """
    parser = argparse.ArgumentParser(
        prog="sshscatter",
        description="Single-photon scattering through a dimerized resonator "
        "waveguide coupled to a driven three-level emitter.",
    )
    parser.add_argument("--params", default=None, help="JSON parameter file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="output format (default depends on subcommand)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="dispersion and pseudospin components over k")
    _add_param_flags(p, with_coupling=False)
    p.add_argument("--k-steps", type=int, default=501)

    p = sub.add_parser("winding", help="winding number and geometric phase")
    _add_param_flags(p, with_coupling=False)
    p.add_argument("--n-samples", type=int, default=4096)

    p = sub.add_parser("spectrum", help="transmission spectrum over detuning")
    _add_param_flags(p)
    _add_dk_flags(p)
    p.add_argument("--band", choices=["upper", "lower"], default="upper")

    p = sub.add_parser("contour", help="transmission over detuning and control field")
    _add_param_flags(p)
    _add_dk_flags(p)
    p.add_argument("--omega-rabi-min", type=float, default=0.0)
    p.add_argument("--omega-rabi-max", type=float, default=0.4)
    p.add_argument("--omega-rabi-steps", type=int, default=9)
    p.add_argument("--band", choices=["upper", "lower"], default="upper")

    p = sub.add_parser("poles", help="transmission poles, regime, and level shift")
    _add_param_flags(p)
    p.add_argument("--omega", type=float, default=None,
                   help="probe energy for the pole analysis (default omega_e)")

    p = sub.add_parser("features", help="dips and peaks extracted from a spectrum")
    _add_param_flags(p)
    _add_dk_flags(p)
    p.add_argument("--band", choices=["upper", "lower"], default="upper")

    p = sub.add_parser("validate", help="run the closed-form/lattice agreement suite")
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--n-cells", type=int, default=32)
    p.add_argument("--wavepacket-cells", type=int, default=400)
    p.add_argument("--sigma-x", type=float, default=20.0)
    p.add_argument("--skip-wavepacket", action="store_true")
    return parser


def _merge_bundle(args):
    """Defaults <- parameter file <- explicit flags, then validate."""
    values = {}
    if args.params is not None:
        values.update(load_param_dict(args.params))
    for key in _SCHEMA:
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    bundle = bundle_from_dict(values)
    for note in bundle.notes:
        print(f"note: {note}", file=sys.stderr)
    return bundle


def _grid(lo, hi, steps, what):
    if steps < 2:
        raise ValidationError(f"{what} needs at least 2 steps, got {steps}")
    if not hi > lo:
        raise ValidationError(f"{what} range must be increasing, got [{lo}, {hi}]")
    return np.linspace(lo, hi, steps)


def _cmd_bands(args):
    bundle = _merge_bundle(args)
    wg = bundle.waveguide
    ks = np.linspace(-math.pi, math.pi, args.k_steps)
    omega = band_ops.dispersion_grid(ks, wg)
    d = band_ops.d_vector(ks, wg)
    header = ["k", "omega_upper", "omega_lower", "dx", "dy"]
    return header, [ks, omega, -omega, d.dx, d.dy], None, "csv"


def _cmd_winding(args):
    bundle = _merge_bundle(args)
    nu = band_ops.winding_number(bundle.waveguide, args.n_samples)
    payload = {
        "delta": bundle.waveguide.delta,
        "nu": nu,
        "zak_phase": nu * math.pi,
    }
    return list(payload), [[value] for value in payload.values()], payload, "json"


def _spectrum_grid(args, bundle):
    dk = _grid(args.dk_min, args.dk_max, args.dk_steps, "dk grid")
    return spectra.sweep_spectrum(
        bundle.coupling, bundle.waveguide, bundle.emitter, dk, Band(args.band)
    )


def _cmd_spectrum(args):
    bundle = _merge_bundle(args)
    grid = _spectrum_grid(args, bundle)
    header = ["delta_k", "T", "R", "re_t", "im_t"]
    columns = [grid.delta_k, grid.transmission, grid.reflection,
               grid.amplitude.real, grid.amplitude.imag]
    return header, columns, None, "csv"


def _cmd_contour(args):
    bundle = _merge_bundle(args)
    dk = _grid(args.dk_min, args.dk_max, args.dk_steps, "dk grid")
    om = _grid(args.omega_rabi_min, args.omega_rabi_max, args.omega_rabi_steps,
               "omega_rabi grid")
    grid = spectra.sweep_contour(
        bundle.coupling, bundle.waveguide, bundle.emitter, dk, om, Band(args.band)
    )
    header = ["delta_k", "omega_rabi", "T"]
    return header, [grid.delta_k, grid.omega_rabi, grid.transmission], None, "csv"


def _cmd_poles(args):
    bundle = _merge_bundle(args)
    omega = args.omega if args.omega is not None else bundle.emitter.omega_e
    k = band_ops.momentum_from_energy(omega, bundle.waveguide)
    pair = spectra.poles(bundle.coupling, bundle.waveguide, bundle.emitter, k)
    regime = spectra.classify_regime(bundle.coupling, bundle.waveguide, bundle.emitter, k)
    payload = {
        "pole_plus": pair.pole_plus,
        "pole_minus": pair.pole_minus,
        "regime": regime.label,
        "ratio": regime.ratio,
        "lamb_shift": spectra.lamb_shift(
            bundle.emitter.g, bundle.coupling.alpha, bundle.waveguide
        ),
    }
    header = ["pole_plus_re", "pole_plus_im", "pole_minus_re", "pole_minus_im",
              "regime", "ratio", "lamb_shift"]
    row = (
        pair.pole_plus.real, pair.pole_plus.imag,
        pair.pole_minus.real, pair.pole_minus.imag,
        regime.label, regime.ratio, payload["lamb_shift"],
    )
    return header, [[value] for value in row], payload, "json"


def _cmd_features(args):
    bundle = _merge_bundle(args)
    grid = _spectrum_grid(args, bundle)
    found = spectra.extract_features(grid)
    header = ["kind", "position", "depth", "fwhm", "asymmetry"]
    columns = [[getattr(f, name) for f in found] for name in header]
    return header, columns, None, "json"


def run(argv=None) -> int:
    """Parse arguments, run one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)

    try:
        if args.command == "validate":
            if args.format == "csv":
                raise ValidationError("the validation report is JSON only")
            report = agreement_report(
                draws_per_config=args.draws,
                seed=args.seed,
                n_cells=args.n_cells,
                include_wavepacket=not args.skip_wavepacket,
                wavepacket_cells=args.wavepacket_cells,
                sigma_x=args.sigma_x,
            )
            _emit_json(report, args.out)
            return 0 if report["passed"] else 1

        # a handler returns a column table (a header and equal-length
        # columns); its payload of None means one JSON record per row
        handler = {
            "bands": _cmd_bands,
            "winding": _cmd_winding,
            "spectrum": _cmd_spectrum,
            "contour": _cmd_contour,
            "poles": _cmd_poles,
            "features": _cmd_features,
        }[args.command]
        header, columns, payload, default_format = handler(args)
        out_format = args.format or default_format
        if out_format == "csv":
            _emit(_csv_chunks(header, columns), args.out)
        else:
            if payload is None:
                rows = zip(*(np.asarray(col).tolist() for col in columns))
                payload = [dict(zip(header, row)) for row in rows]
            _emit_json(payload, args.out)
        return 0
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
