"""Workload ``spectra``: CLI requests that sweep the closed forms.

Each operation is one ``sshscatter`` command line run in-process through
``sshscatter.cli.run`` with ``--out`` into the scratch directory: the
README's recipes, then a seeded batch of ``spectrum``, ``contour``,
``features``, ``poles`` and ``winding`` requests.

The batch has a fixed skeleton (which request, which coupling, band, drive
level and grid size) and the seed draws only the continuous parameters, so
every seed asks for the same amount of work.  Each grid is built around the
detunings its checks need: dk = 0, the potential poles +/- Omega/2, and for
undriven two-site coupling the shifted zero L, all fall on grid points,
and a grid that reaches past a band edge puts the edge between two fixed
grid points, so the number of kept points does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import sshscatter as ss
import sshscatter.cli  # noqa: F401  (binds ss.cli)
from sshscatter.lattice import boundary_matched_solve

import checks as ck
from common import Op, fail_on, signed, uniform

DEFAULTS = {"J": 1.0, "delta": 0.5, "omega_e": 1.5, "delta_c": 0.0, "omega_rabi": 0.0,
            "g": 0.2, "x1": 5, "band": "upper", "lo": -0.2, "hi": 0.2, "n": 401}
ALPHA_DEFAULT = {"A": 1.0, "B": 0.0, "AB": 0.5}
#: kept rows compared with the lattice per spectrum file
LATTICE_ROWS = (0.23, 0.52, 0.77)
LATTICE_CELLS = 32


def _request(cmd: str, **spec) -> dict:
    """Resolve a request's parameters against the CLI defaults.

    ``argv`` keeps a literal command line; without it one is written out
    from the parameters.
    """
    full = dict(DEFAULTS, cmd=cmd, **spec)
    full.setdefault("config", "A")
    full.setdefault("alpha", ALPHA_DEFAULT[full["config"]])
    return full


def _argv(spec: dict) -> list[str]:
    cmd = spec["cmd"]
    if cmd == "winding":
        return ["winding", "--delta", repr(spec["delta"])]
    argv = [cmd, "--config", spec["config"], "--delta", repr(spec["delta"]),
            "--omega-e", repr(spec["omega_e"]), "--g", repr(spec["g"]),
            "--omega-rabi", repr(spec["omega_rabi"]), "--x1", str(spec["x1"])]
    if spec["config"] == "AB":
        argv += ["--alpha", repr(spec["alpha"])]
    if cmd == "poles":
        return argv + ["--omega", repr(spec["omega"])]
    argv += ["--dk-min", repr(spec["lo"]), "--dk-max", repr(spec["hi"]),
             "--dk-steps", str(spec["n"]), "--band", spec["band"]]
    if cmd == "contour":
        argv += ["--omega-rabi-min", "0.0", "--omega-rabi-max", repr(spec["om_max"]),
                 "--omega-rabi-steps", str(spec["om_n"])]
    return argv


def _recipes() -> list[dict]:
    """The README's command lines, resolved against the CLI defaults."""
    fano = "--config AB --alpha 0.5 --omega-rabi 0.0045 --delta {} --dk-min -0.03 " \
           "--dk-max 0.05 --dk-steps 8001"
    return [
        _request("spectrum", config="A", g=0.2, omega_rabi=0.0, delta=0.5, omega_e=1.5,
                 argv="spectrum --config A --g 0.2 --omega-rabi 0 --delta 0.5 --omega-e 1.5 "
                      "--dk-min -0.2 --dk-max 0.2 --dk-steps 401"),
        _request("winding", delta=-0.5, argv="winding --delta -0.5"),
        _request("contour", config="AB", alpha=0.5, delta=-0.5, om_max=0.1, om_n=9,
                 argv="contour --config AB --alpha 0.5 --delta -0.5 --omega-rabi-max 0.1"),
        _request("poles", config="AB", alpha=0.5, omega_rabi=0.0045, omega=1.5,
                 argv="poles --config AB --alpha 0.5 --omega-rabi 0.0045"),
        _request("spectrum", config="A", omega_rabi=0.0,
                 argv="spectrum --config A --omega-rabi 0 --dk-steps 401"),
        _request("spectrum", config="A", omega_rabi=0.2,
                 argv="spectrum --config A --omega-rabi 0.2 --dk-steps 401"),
        _request("features", config="A", omega_rabi=0.4, lo=-0.35, hi=0.35, n=10001,
                 argv="features --config A --omega-rabi 0.4 --dk-min -0.35 --dk-max 0.35 "
                      "--dk-steps 10001"),
        _request("spectrum", config="AB", alpha=0.5, omega_rabi=0.0045, delta=0.5,
                 lo=-0.03, hi=0.05, n=8001, group=("recipe-sign",),
                 argv="spectrum " + fano.format("0.5")),
        _request("spectrum", config="AB", alpha=0.5, omega_rabi=0.0045, delta=-0.5,
                 lo=-0.03, hi=0.05, n=8001, group=("recipe-sign",),
                 argv="spectrum " + fano.format("-0.5")),
    ]


class _Draw:
    """Seeded continuous parameters on a fixed skeleton."""

    def __init__(self, rng):
        self.rng = rng

    def centered(self, delta: float, band: str, n: int, frac: float = 0.25):
        """Emitter near mid-band and a grid with dk = 0 on point j."""
        gap, outer = ck.band_limits(delta)
        width = outer - gap
        sign = 1.0 if band == "upper" else -1.0
        omega_e = sign * ((gap + outer) / 2.0 + uniform(self.rng, -0.1, 0.1) * width)
        h = 2.0 * frac * width / (n - 1)
        j = (n - 1) // 2 + int(self.rng.integers(-(n - 1) // 10, (n - 1) // 10 + 1))
        return omega_e, h, j

    def drive(self, level: str, h: float) -> float:
        """Rabi frequency at a drive level, with +/- Omega/2 on the grid."""
        if level == "mirror":
            return 0.0
        lo, hi = (0.02, 0.06) if level == "eit" else (0.2, 0.28)
        q = max(1, round(uniform(self.rng, lo, hi) / (2.0 * h)))
        return 2.0 * q * h

    def emitter(self, config: str) -> dict:
        alpha = ALPHA_DEFAULT[config] if config != "AB" else uniform(self.rng, 0.2, 0.8)
        return {"config": config, "alpha": alpha, "g": uniform(self.rng, 0.15, 0.25),
                "x1": int(self.rng.integers(4, 30))}


def _grid_spec(h: float, j: int, n: int) -> dict:
    return {"lo": -j * h, "hi": (n - 1 - j) * h, "n": n}


def _batch(rng, short: bool) -> list[dict]:
    draw = _Draw(rng)
    reqs = []
    bands = ("upper", "lower")
    levels = ("mirror", "eit", "ats")
    small, mid = (41, 101) if short else (401, 1001)

    # A/B quartets: A and B at +delta and -delta must give one spectrum.
    # There are ten, so that the median latency falls among them.
    for band in bands:
        for q, level in enumerate(levels + ("eit", "ats")):
            delta = uniform(rng, 0.3, 0.6)
            omega_e, h, j = draw.centered(delta, band, small)
            om = draw.drive(level, h)
            g, x1 = uniform(rng, 0.15, 0.25), int(rng.integers(4, 30))
            for config in ("A", "B"):
                for sgn in (1.0, -1.0):
                    reqs.append(_request(
                        "spectrum", config=config, delta=sgn * delta, omega_e=omega_e,
                        g=g, omega_rabi=om, x1=x1, band=band, group=("quartet", band, q),
                        **_grid_spec(h, j, small)))
    # AB sign pairs: the same emitter on both dimerizations must differ.
    for band in bands:
        for level in levels:
            delta = uniform(rng, 0.3, 0.6)
            omega_e, h, j = draw.centered(delta, band, mid)
            om = draw.drive(level, h)
            em = draw.emitter("AB")
            for sgn in (1.0, -1.0):
                reqs.append(_request(
                    "spectrum", delta=sgn * delta, omega_e=omega_e, omega_rabi=om, band=band,
                    group=("ab-sign", band, level), **em, **_grid_spec(h, j, mid)))
    # Undriven AB: zero at the level shift L; the grid holds both 0 and L.
    for band in bands:
        for sgn in (1.0, -1.0):
            delta = sgn * uniform(rng, 0.3, 0.6)
            omega_e, h0, j = draw.centered(delta, band, small)
            em = draw.emitter("AB")
            shift = ck.level_shift(em["g"], em["alpha"], ck.hoppings(delta)[0])
            h = shift / max(1, round(shift / h0))
            reqs.append(_request("spectrum", delta=delta, omega_e=omega_e, band=band, **em,
                                 **_grid_spec(h, j, small)))
    # Grids past a band edge: the edge sits between points m and m + 1.
    for config in ("A", "AB"):
        for band in bands:
            for edge in ("outer", "gap"):
                delta = signed(rng, 0.3, 0.6)
                reqs.append(_edge_request(draw, config, band, edge, delta, small,
                                          m=small // 2, inside=small // 5,
                                          driven=edge == "gap"))
    big = 641 if short else 64001
    reqs.append(_edge_request(draw, "A", "upper", "outer", signed(rng, 0.3, 0.6), big,
                              m=big // 5, inside=big // 20, driven=True, step=2e-5))
    # Strong-drive features: two dips at the zeros of t.
    for band in bands:
        for config in ("A", "B", "AB"):
            delta = signed(rng, 0.3, 0.5)
            omega_e, h, j = draw.centered(delta, band, mid, frac=0.3)
            q = round(uniform(rng, 0.25, 0.32) / (2.0 * h))
            reqs.append(_request("features", delta=delta, omega_e=omega_e, band=band,
                                 omega_rabi=2.0 * q * h, **draw.emitter(config),
                                 **_grid_spec(h, j, mid)))
    # Contours: Omega_i / 2 on the detuning grid for every row.
    for config in ("A", "AB"):
        delta = signed(rng, 0.3, 0.6)
        omega_e, h, j = draw.centered(delta, "upper", small)
        q = max(1, round(uniform(rng, 0.2, 0.28) / (8.0 * h)))
        reqs.append(_request("contour", delta=delta, omega_e=omega_e, om_max=8.0 * q * h,
                             om_n=5, **draw.emitter(config), **_grid_spec(h, j, small)))
    # Pole analysis at an in-band probe energy, and winding numbers.
    for i in range(6 if short else 12):
        config = ("A", "B", "AB")[i % 3]
        delta = signed(rng, 0.2, 0.7)
        gap, outer = ck.band_limits(delta)
        omega = gap + uniform(rng, 0.1, 0.9) * (outer - gap)
        em = draw.emitter(config)
        omega_e = min(max(omega + uniform(rng, -0.2, 0.2), gap + 0.01), outer - 0.01)
        reqs.append(_request("poles", delta=delta, omega=omega, omega_e=omega_e,
                             omega_rabi=uniform(rng, 0.0, 0.4), **em))
    for i in range(3 if short else 6):
        reqs.append(_request("winding", delta=signed(rng, 0.05, 0.7)))
    return reqs


def _edge_request(draw, config, band, edge, delta, n, m, inside, driven, step=None):
    """Grid whose band edge lies at index m + f, f in [0.25, 0.75).

    ``inside`` is how many steps dk = 0 sits inside the band from the edge;
    a driven emitter has its poles a quarter of that from dk = 0.  The step
    defaults to a quarter of the band width over the grid.
    """
    gap, outer = ck.band_limits(delta)
    f = uniform(draw.rng, 0.25, 0.75)
    h = step or 0.25 * (outer - gap) / n
    # edges at high dk: upper/outer and lower/gap; at low dk: the others
    high = (band, edge) in (("upper", "outer"), ("lower", "gap"))
    edge_energy = {"outer": outer, "gap": gap}[edge] * (1.0 if band == "upper" else -1.0)
    j = m - inside if high else m + inside
    omega_e = edge_energy - (m + f - j) * h
    omega_rabi = 2.0 * (inside // 4) * h if driven else 0.0
    return _request("spectrum", delta=delta, omega_e=omega_e, band=band, omega_rabi=omega_rabi,
                    **draw.emitter(config), **_grid_spec(h, j, n))


def build(rng, short: bool, scratch: str) -> list[Op]:
    specs = _recipes() + _batch(rng, short)
    if short:
        specs = [s for s in specs if s["n"] <= 2001]
    ops = []
    for i, spec in enumerate(specs):
        ext = "csv" if spec["cmd"] in ("spectrum", "contour") else "json"
        spec["out"] = os.path.join(scratch, f"op{i:03d}.{ext}")
        argv = ["--out", spec["out"]] + (spec["argv"].split() if "argv" in spec else _argv(spec))
        ops.append(Op(spec["cmd"], _runner(argv), spec))
    return ops


def _runner(argv):
    def run():
        return ss.cli.run(argv)
    return run


def digest(op: Op, output) -> tuple:
    """Exit code and a hash of the written file, compared across passes."""
    sha = hashlib.sha256()
    try:
        with open(op.spec["out"], "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
    except OSError:
        return output, None
    return output, sha.hexdigest()


# ------------------------------------------------------------------ checks


def _grid(spec):
    return np.linspace(spec["lo"], spec["hi"], spec["n"])


def _kept(spec, dk):
    sign = 1 if spec["band"] == "upper" else -1
    return dk[ck.in_band(spec["omega_e"] + dk, spec["delta"], sign, spec["J"])]


def _contains(dk, value):
    return bool(np.min(np.abs(dk - value)) < 1e-12)


def _special_points(spec, dk, omega_rabi):
    """(dk, T) pairs fixed by the physics at delta_c = 0, where on the grid."""
    points = []
    if spec["config"] in ("A", "B"):
        if omega_rabi == 0.0:
            points.append((0.0, 0.0))
        else:
            points += [(0.0, 1.0), (-omega_rabi / 2.0, 0.0), (omega_rabi / 2.0, 0.0)]
    elif omega_rabi == 0.0:
        t1 = ck.hoppings(spec["delta"], spec["J"])[0]
        points.append((ck.level_shift(spec["g"], spec["alpha"], t1), 0.0))
    return [(x, t) for x, t in points if _contains(dk, x)]


def _poles_of_potential(dk, omega_rabi):
    return [0.0] if omega_rabi == 0.0 else [-omega_rabi / 2.0, omega_rabi / 2.0]


def _reference_t(spec, dk, omega_rabi):
    return ck.closed_form_t(
        spec["omega_e"] + dk, delta=spec["delta"], J=spec["J"], omega_e=spec["omega_e"],
        delta_c=spec["delta_c"], omega_rabi=omega_rabi, g=spec["g"], alpha=spec["alpha"],
        two_site=spec["config"] == "AB")


def _lattice(spec, dk, omega_rabi):
    wg = ss.WaveguideParams(delta=spec["delta"], J=spec["J"])
    em = ss.EmitterParams(omega_e=spec["omega_e"], delta_c=spec["delta_c"],
                          omega_rabi=omega_rabi, g=spec["g"], x1=spec["x1"])
    cfg = ss.CouplingConfig(ss.Variant(spec["config"]), spec["alpha"])
    band = ss.Band(spec["band"])
    return boundary_matched_solve(spec["omega_e"] + dk, LATTICE_CELLS, wg, em, cfg, band).t_num


def _lattice_rows(n_rows, dk, omega_rabi):
    """Row indices for the lattice comparison, off the potential poles
    (where the undriven lattice system is singular by construction)."""
    rows = []
    for frac in LATTICE_ROWS:
        i = int(frac * (n_rows - 1))
        while any(abs(dk[i] - p) < 1e-9 for p in _poles_of_potential(dk, omega_rabi[i])):
            i += 1
        rows.append(i)
    return rows


def check_spectrum_file(spec, rows) -> list[str]:
    want = _kept(spec, _grid(spec))
    out = ck.check_grid(rows[:, 0] if rows.size else np.zeros(0), want)
    if out:
        return out
    out += ck.check_spectrum_rows(rows)
    dk, trans = want, rows[:, 1]
    tol = ck.TOL_ROUTE + ck.TOL_ROUNDING
    out += ck.check_close("t vs the benchmark's closed form", rows[:, 3] + 1j * rows[:, 4],
                          _reference_t(spec, dk, spec["omega_rabi"]), tol)
    out += ck.check_special_points(dk, trans, _special_points(spec, dk, spec["omega_rabi"]))
    oms = np.full(len(dk), spec["omega_rabi"])
    for i in _lattice_rows(len(dk), dk, oms):
        t_lat = _lattice(spec, dk[i], spec["omega_rabi"])
        out += ck.check_close(f"lattice t at dk={dk[i]:.6g}", complex(rows[i, 3], rows[i, 4]),
                              t_lat, ck.TOL_ROUTE + ck.TOL_ROUNDING)
    return out


def check_contour_file(spec, rows) -> list[str]:
    kept = _kept(spec, _grid(spec))
    oms = np.linspace(0.0, spec["om_max"], spec["om_n"])
    want_dk = np.tile(kept, len(oms))
    want_om = np.repeat(oms, len(kept))
    out = ck.check_grid(rows[:, 0] if rows.size else np.zeros(0), want_dk)
    if out or rows.shape[1] != 3:
        return out or [f"contour table has {rows.shape[1]} columns, expected 3"]
    out += ck.check_close("contour omega_rabi", rows[:, 1], want_om, 1e-11)
    trans = rows[:, 2]
    if np.any(trans < -ck.TOL_ROUNDING) or np.any(trans > 1.0 + ck.TOL_ROUNDING):
        out.append("contour T outside [0, 1]")
    for r, om in enumerate(oms):
        seg = slice(r * len(kept), (r + 1) * len(kept))
        out += ck.check_close(f"T vs the benchmark's closed form at Omega={om:.6g}", trans[seg],
                              abs(_reference_t(spec, kept, om)) ** 2,
                              ck.TOL_ROUTE + ck.TOL_ROUNDING)
        out += ck.check_special_points(kept, trans[seg], _special_points(spec, kept, om))
    for i in _lattice_rows(len(want_dk), want_dk, want_om):
        t_lat = _lattice(spec, want_dk[i], want_om[i])
        out += ck.check_close(f"lattice T at dk={want_dk[i]:.6g}", trans[i], abs(t_lat) ** 2,
                              ck.TOL_ROUTE + ck.TOL_ROUNDING)
    return out


def check_features_file(spec, payload) -> list[str]:
    dips = [f["position"] for f in payload if f["kind"] == "dip"]
    t1 = ck.hoppings(spec["delta"], spec["J"])[0]
    alpha = spec["alpha"] if spec["config"] == "AB" else 0.0
    expected = ck.driven_zeros(spec["g"], alpha, t1, spec["omega_rabi"])
    step = (spec["hi"] - spec["lo"]) / (spec["n"] - 1)
    return ck.check_dips(dips, expected, step)


def check_poles_file(spec, payload) -> list[str]:
    t1, t2 = ck.hoppings(spec["delta"], spec["J"])
    k = math.acos((spec["omega"] ** 2 - t1 * t1 - t2 * t2) / (2.0 * t1 * t2))
    s, quarter = ck.pole_quadratic(k, spec["delta"], spec["J"], spec["g"], spec["alpha"],
                                   spec["omega_rabi"])
    p_plus, p_minus = complex(*payload["pole_plus"]), complex(*payload["pole_minus"])
    out = ck.check_poles(p_plus, p_minus, s, quarter)
    want = ck.regime_ratio(k, spec["delta"], spec["J"], spec["g"], spec["alpha"],
                           spec["omega_rabi"])
    out += ck.check_regime(payload["regime"], payload["ratio"], want)
    out += ck.check_close("lamb_shift", payload["lamb_shift"],
                          ck.level_shift(spec["g"], spec["alpha"], t1), 1e-13)
    return out


def check_winding_file(spec, payload) -> list[str]:
    nu = 1 if spec["delta"] < 0 else 0
    out = [] if payload["nu"] == nu else [f"winding {payload['nu']} for delta {spec['delta']}"]
    return out + ck.check_close("zak phase", payload["zak_phase"], nu * math.pi, 1e-11)


def _read(spec):
    if spec["out"].endswith(".csv"):
        return np.loadtxt(spec["out"], delimiter=",", skiprows=1, ndmin=2)
    with open(spec["out"], encoding="utf-8") as fh:
        return json.load(fh)


_FILE_CHECKS = {"spectrum": check_spectrum_file, "contour": check_contour_file,
                "features": check_features_file, "poles": check_poles_file,
                "winding": check_winding_file}


def check(ops: list[Op], outputs: list) -> dict[int, list[str]]:
    failures: dict[int, list[str]] = {}
    tables = {}
    groups: dict[tuple, list[int]] = {}
    for i, (op, code) in enumerate(zip(ops, outputs)):
        if code is None:
            continue
        if code != 0:
            fail_on(failures, i, [f"exit code {code}"])
            continue
        data = _read(op.spec)
        fail_on(failures, i, _FILE_CHECKS[op.kind](op.spec, data))
        if "group" in op.spec:
            tables[i] = data
            groups.setdefault(op.spec["group"], []).append(i)
    for key, members in groups.items():
        if len(members) < 2 or any(i not in tables for i in members):
            continue
        if key[0] == "quartet":
            msgs = ck.check_same_spectra([tables[i] for i in members])
        else:
            a, b = members
            msgs = ck.check_sign_contrast(tables[a][:, 1], tables[b][:, 1])
        for i in members:
            fail_on(failures, i, msgs)
    return failures
