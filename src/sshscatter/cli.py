"""Command-line interface: deterministic CSV/JSON emission for every sweep.

Float output is fixed at 12 significant digits (scientific notation for
CSV, rounded values for JSON) and files are written atomically, so two
invocations with the same inputs produce byte-identical artifacts.  Each
command handler returns one table: a header and equal-length columns, or,
for a record (``winding``, ``poles``), one scalar per header entry.  A
table is written as CSV rows, a block at a time, or as a JSON list of
objects; a record as a one-row CSV or one JSON object.  A complex value
is ``[re, im]`` in JSON and two columns ``name_re, name_im`` in CSV.

A CSV float is the text ``"%.11e" % value`` gives, which is correctly
rounded; it is computed a column block at a time.  For zero and every
|x| in [1e-11, 1e34), E = floor(log10 |x|) sets k = 11 - E with |k| <= 22,
so the 12-digit mantissa y = |x| * 10**k is one product or quotient by
the exact double 5**|k| and an exact scaling by 2**k.  That is one
rounding: y < 2**40 is within 2**-13 of its true value, and ``rint(y)``
is the correctly rounded mantissa unless frac(y) is within 2**-10 of 1/2.
Those near-ties, nan, +-inf and |x| outside the range (about 0.2% of the
values of a real table) are formatted one at a time with ``%``.  Int, bool
and str cells are ``str`` of the value.

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

#: rows per block of CSV text; a block's arrays stay small enough to be
#: reused from the heap rather than mapped afresh
_BLOCK_ROWS = 1024


def _jsonify(obj):
    if isinstance(obj, dict):
        return {key: _jsonify(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(val) for val in obj]
    if isinstance(obj, complex):
        return [_jsonify(obj.real), _jsonify(obj.imag)]
    if isinstance(obj, float):
        # rounded to the 12 digits CSV prints; non-finite values (e.g. an
        # unbounded regime ratio at g = 0) are strings, to keep strict JSON
        return float(_FLOAT_FMT % obj) if math.isfinite(obj) else str(obj)
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


def _slots(texts, width=None):
    """``texts`` as the rows of a uint8 array: a NUL in the separator's
    place, then the UTF-8 text, NUL-padded to ``width`` bytes (default: the
    longest)."""
    data = [text.encode() for text in texts]
    if width is None:
        width = max(map(len, data), default=0)
    packed = b"".join(b"\0" + item.ljust(width, b"\0") for item in data)
    return np.frombuffer(packed, np.uint8).reshape(len(data), 1 + width)


def _words(*byte_columns):
    """Native uint32 words whose four bytes, in memory order, are the
    entries of four byte columns (arrays of one length, or scalars)."""
    columns = np.broadcast_arrays(*byte_columns)
    return np.stack(columns, axis=1).astype(np.uint8).view(np.uint32).ravel()


def _ascii(n, places):
    """The ASCII digit columns of the integers ``n``, ``places`` digits wide."""
    return [ord("0") + n // 10 ** p % 10 for p in range(places - 1, -1, -1)]


_LEADS = np.arange(20)
_EXPONENTS = np.arange(-11, 35)
#: four digits of 0 .. 9999
_DIGITS4 = _words(*_ascii(np.arange(10000), 4))
#: three digits of 0 .. 999, then 'e'
_DIGITS3_E = _words(*_ascii(np.arange(1000), 3), ord("e"))
#: at 10 * sign + d: the separator's place, '-' or NUL, the digit d, '.'
_LEAD = _words(0, ord("-") * (_LEADS >= 10), *_ascii(_LEADS % 10, 1), ord("."))
#: at E + 11, for E in [-11, 34]: the exponent's sign and two digits, NUL
_EXPONENT = _words(np.where(_EXPONENTS < 0, ord("-"), ord("+")),
                   *_ascii(np.abs(_EXPONENTS), 2), 0)
#: 5**k, exact in a double for k <= 22
_POW5 = np.array([5 ** k for k in range(23)], dtype=np.float64)

#: bytes per float cell: the separator, then at most 19 bytes of text
#: ('-1.00000000000e-308' is the widest)
_FLOAT_SLOT = 20


def _mantissa(ax, exp):
    """``ax * 10**k``, k = 11 - exp, with one rounding for ``|k| <= 22``: a
    product or quotient by the exact 5**|k|, then exact scaling by 2**k."""
    k = (11.0 - exp).astype(np.int32)
    p = _POW5.take(np.abs(k).astype(np.intp))
    y = ax * p
    np.divide(ax, p, out=y, where=k < 0)
    return np.ldexp(y, k)


def _split(m, unit):
    """Quotient and remainder of the integral doubles ``m`` < 2**41 by
    ``unit``, exactly: the rounded quotient never reaches the next
    integer."""
    q = np.floor(m / unit)
    return q, m - q * unit


def _float_text(x):
    """The ``%.11e`` text of each value of the float64 array ``x``, as a
    ``_FLOAT_SLOT``-byte slot: a NUL in the separator's place, then the
    text, NUL-padded.

    The digits are exact for the reason ``_csv_chunks`` gives.  Where log10
    is one off, next to a power of ten, y leaves [1e11, 1e12) and E is
    corrected once; a mantissa that rounds up to 10**12 is 10**11 with E
    bumped.  The digits then come from word tables.
    """
    ax = np.abs(x)
    nonzero = ax != 0.0
    fast = (ax >= 1e-11) & (ax < 1e34)
    ax = np.where(fast, ax, 1.0)
    exp = np.minimum(np.maximum(np.floor(np.log10(ax)), -11.0), 33.0)
    y = _mantissa(ax, exp)
    high, low = y >= 1e12, y < 1e11
    if (high | low).any():
        # log10 is one off next to a power of ten
        exp = np.minimum(np.maximum(exp + high - low, -11.0), 33.0)
        y = _mantissa(ax, exp)
        high, low = y >= 1e12, y < 1e11
    mant = np.rint(y)
    fast &= ~(high | low) & (np.abs(mant - y) < 0.5 - 2.0 ** -10)
    mant *= nonzero
    carry = mant == 1e12
    mant[carry] = 1e11
    # the sign rides above the mantissa: the leading quotient is 10 * sign + d
    rest, last3 = _split(mant + 1e12 * np.signbit(x), 1e3)
    rest, mid4 = _split(rest, 1e4)
    lead, high4 = _split(rest, 1e4)
    words = np.stack([
        table.take(index.astype(np.intp)) for table, index in (
            (_LEAD, lead), (_DIGITS4, high4), (_DIGITS4, mid4), (_DIGITS3_E, last3),
            (_EXPONENT, (exp + carry) * nonzero + 11.0),
        )
    ], axis=-1)
    text = words.view(np.uint8)
    slow = ~fast & nonzero
    if slow.any():
        text[slow] = _slots([_FLOAT_FMT % value for value in x[slow].tolist()],
                            _FLOAT_SLOT - 1)
    return text


def _csv_chunks(header, columns):
    """CSV text of a column table: the header line, then blocks of rows.

    ``columns`` are equal-length 1-d arrays (or sequences numpy turns into
    one), each of a single type, or scalars: a record is a one-row table.
    A complex column ``name`` is split into ``name_re, name_im``.

    A float prints as exactly ``"%.11e" % value`` (the same text as
    ``{:.11e}``), which is correctly rounded; the text is computed for a
    block's float columns at once by ``_float_text``.  For zero and every |x| in [1e-11, 1e34), E =
    floor(log10 |x|) sets k = 11 - E with |k| <= 22, so the 12-digit
    mantissa y = |x| * 10**k is one product or quotient by 5**|k|, which is
    an exact double, and an exact scaling by 2**k.  That is one rounding,
    so y < 2**40 is within 2**-13 of its true value, and ``rint(y)`` is the
    correctly rounded mantissa unless frac(y) is within 2**-10 of 1/2.
    Only those near-ties, nan, +-inf and |x| outside [1e-11, 1e34) take the
    per-value fallback ``"%.11e" % value``.  An int, bool or str cell is
    ``str`` of its value (which holds no NUL), packed once per table.

    A block of ``_BLOCK_ROWS`` rows is one uint8 array with a fixed-width
    slot per cell: the separator's place, then the text, NUL-padded.  The
    NULs are deleted from its bytes in one pass.
    """
    names, cells = [], []
    for name, col in zip(header, columns):
        col = np.atleast_1d(col)
        if col.dtype.kind == "c":
            names += [f"{name}_re", f"{name}_im"]
            cells += [col.real, col.imag]
        elif col.dtype.kind == "f":
            names.append(name)
            cells.append(col)
        else:
            names.append(name)
            cells.append(_slots([str(value) for value in col.tolist()]))
    yield ",".join(names) + "\n"
    widths = [_FLOAT_SLOT if cell.ndim == 1 else cell.shape[1] for cell in cells]
    separators = np.cumsum(widths)[:-1]
    for start in range(0, len(cells[0]), _BLOCK_ROWS):
        block = [cell[start:start + _BLOCK_ROWS] for cell in cells]
        rows = len(block[0])
        floats = np.array([part for part in block if part.ndim == 1], np.float64)
        text = iter(_float_text(floats.reshape(-1, rows)))
        pieces = [next(text) if part.ndim == 1 else part for part in block]
        buf = np.concatenate(pieces + [np.full((rows, 1), ord("\n"), np.uint8)], axis=1)
        buf[:, separators] = ord(",")
        yield buf.tobytes().translate(None, b"\0").decode()


def _json_text(obj) -> str:
    return json.dumps(_jsonify(obj), indent=2) + "\n"


def _json_chunks(header, columns):
    """JSON text of a table: a list of one object per row, or, for a
    record, one object."""
    values = [np.asarray(col).tolist() for col in columns]
    if np.ndim(columns[0]) == 0:
        return [_json_text(dict(zip(header, values)))]
    return [_json_text([dict(zip(header, row)) for row in zip(*values)])]


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
    parser.add_argument("--band", choices=["upper", "lower"], default="upper")


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
    p.set_defaults(handler=_cmd_bands)
    _add_param_flags(p, with_coupling=False)
    p.add_argument("--k-steps", type=int, default=501)

    p = sub.add_parser("winding", help="winding number and geometric phase")
    p.set_defaults(handler=_cmd_winding)
    _add_param_flags(p, with_coupling=False)
    p.add_argument("--n-samples", type=int, default=4096)

    p = sub.add_parser("spectrum", help="transmission spectrum over detuning")
    p.set_defaults(handler=_cmd_spectrum)
    _add_param_flags(p)
    _add_dk_flags(p)

    p = sub.add_parser("contour", help="transmission over detuning and control field")
    p.set_defaults(handler=_cmd_contour)
    _add_param_flags(p)
    _add_dk_flags(p)
    p.add_argument("--omega-rabi-min", type=float, default=0.0)
    p.add_argument("--omega-rabi-max", type=float, default=0.4)
    p.add_argument("--omega-rabi-steps", type=int, default=9)

    p = sub.add_parser("poles", help="transmission poles, regime, and level shift")
    p.set_defaults(handler=_cmd_poles)
    _add_param_flags(p)
    p.add_argument("--omega", type=float, default=None,
                   help="probe energy for the pole analysis (default omega_e)")

    p = sub.add_parser("features", help="dips and peaks extracted from a spectrum")
    p.set_defaults(handler=_cmd_features)
    _add_param_flags(p)
    _add_dk_flags(p)

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
    ks = _grid(-math.pi, math.pi, args.k_steps, "k grid")
    omega = band_ops.dispersion_grid(ks, wg)
    d = band_ops.d_vector(ks, wg)
    header = ["k", "omega_upper", "omega_lower", "dx", "dy"]
    return header, [ks, omega, -omega, d.dx, d.dy], "csv"


def _cmd_winding(args):
    bundle = _merge_bundle(args)
    nu = band_ops.winding_number(bundle.waveguide, args.n_samples)
    return ["delta", "nu", "zak_phase"], [bundle.waveguide.delta, nu, nu * math.pi], "json"


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
    return header, columns, "csv"


def _cmd_contour(args):
    bundle = _merge_bundle(args)
    dk = _grid(args.dk_min, args.dk_max, args.dk_steps, "dk grid")
    om = _grid(args.omega_rabi_min, args.omega_rabi_max, args.omega_rabi_steps,
               "omega_rabi grid")
    grid = spectra.sweep_contour(
        bundle.coupling, bundle.waveguide, bundle.emitter, dk, om, Band(args.band)
    )
    header = ["delta_k", "omega_rabi", "T"]
    return header, [grid.delta_k, grid.omega_rabi, grid.transmission], "csv"


def _cmd_poles(args):
    bundle = _merge_bundle(args)
    omega = args.omega if args.omega is not None else bundle.emitter.omega_e
    k = band_ops.momentum_from_energy(omega, bundle.waveguide)
    pair = spectra.poles(bundle.coupling, bundle.waveguide, bundle.emitter, k)
    regime = spectra.classify_regime(bundle.coupling, bundle.waveguide, bundle.emitter, k)
    shift = spectra.lamb_shift(bundle.emitter.g, bundle.coupling.alpha, bundle.waveguide)
    header = ["pole_plus", "pole_minus", "regime", "ratio", "lamb_shift"]
    return header, [pair.pole_plus, pair.pole_minus, regime.label, regime.ratio, shift], "json"


def _cmd_features(args):
    bundle = _merge_bundle(args)
    grid = _spectrum_grid(args, bundle)
    found = spectra.extract_features(grid)
    header = ["kind", "position", "depth", "fwhm", "asymmetry"]
    columns = [[getattr(f, name) for f in found] for name in header]
    return header, columns, "json"


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
            _emit([_json_text(report)], args.out)
            return 0 if report["passed"] else 1

        header, columns, default_format = args.handler(args)
        write = _csv_chunks if (args.format or default_format) == "csv" else _json_chunks
        _emit(write(header, columns), args.out)
        return 0
    except (OSError, json.JSONDecodeError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
