"""Span tracing of the program's public functions, from outside the program.

:class:`Tracer` wraps every public function (and public method of a public
class) defined in the traced modules, and puts each wrapper on every module
attribute of the package that holds the original: modules import functions
by name (``from .scattering import transmittance``), and a wrapper on the
defining module alone would miss those calls.  A wrapped call records one
span: name, start, end, parent span, whether it raised, and an optional
integer tag.  Spans live in flat arrays while the run lasts and are written
out when it ends; the per-layer figures are computed from them afterwards.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "sshscatter"
TRACED_MODULES = ("params", "bands", "scattering", "spectra", "lattice", "validation", "cli")


def _cli_out_path(argv):
    argv = list(argv or ())
    for i, arg in enumerate(argv[:-1]):
        if arg == "--out":
            return argv[i + 1]
    return None


def _count_cli_bytes(args, kwargs, result, counts):
    path = _cli_out_path(args[0] if args else kwargs.get("argv"))
    if path is not None and os.path.exists(path):
        counts["cli.bytes_written"] += os.path.getsize(path)


def _count_sweep_points(args, kwargs, result, counts):
    grid = args[3] if len(args) > 3 else kwargs["dk_grid"]
    counts["spectra.sweep_spectrum.points_requested"] += len(grid)
    counts["spectra.sweep_spectrum.points_kept"] += len(result)


def _tag_n_cells(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["n_cells"])


# Counts taken at a wrapper's boundary, and integer tags stored on its spans.
_COUNTERS = {"cli.run": _count_cli_bytes, "spectra.sweep_spectrum": _count_sweep_points}
_TAGS = {"lattice.boundary_matched_solve": _tag_n_cells}


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("i")
        self.raised = array("b")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, tag=None, count=None):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            stack = self._stack
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.tag.append(tag(args, kwargs) if tag else 0)
            self.raised.append(0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count:
                count(args, kwargs, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(span name, owner, attribute, original) for every public callable."""
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{short}.{attr}", module, attr, obj
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{short}.{meth}", obj, meth, fn

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        seen = set()
        for name, owner, attr, original in self._targets():
            if name in seen:
                raise RuntimeError(f"two traced callables share the span name {name}")
            seen.add(name)
            wrapper = self.span(name, original, _TAGS.get(name), _COUNTERS.get(name))
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                for mod in modules:
                    for other, value in list(vars(mod).items()):
                        if value is original and (mod, other) != (owner, attr):
                            self._patch(mod, other, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Calls, total time and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    n_names = len(names)
    calls = np.bincount(name_id, minlength=n_names)
    total = np.bincount(name_id, weights=dur, minlength=n_names)
    own = np.bincount(name_id, weights=self_time, minlength=n_names)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i, name in enumerate(names)
    }


def under(names: list[str], spans: dict[str, np.ndarray], ancestor: str) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` above them."""
    parent = spans["parent"]
    if ancestor not in names or len(parent) == 0:
        return np.zeros(len(parent), dtype=bool)
    is_anc = spans["name_id"] == names.index(ancestor)
    mask = np.zeros(len(parent), dtype=bool)
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    while True:
        new = has_parent & (is_anc[safe] | mask[safe])
        if np.array_equal(new, mask):
            return mask
        mask = new


# Per-layer figures reported by the traced run, per pass.
SELF_TIMES = (
    "bands.momentum_from_energy", "bands.band_phase", "scattering.transmittance",
    "scattering.reflectance", "scattering.transfer_matrix", "scattering.scattering_matrix",
    "spectra.sweep_spectrum", "spectra.sweep_contour", "spectra.extract_features",
    "spectra.poles", "spectra.classify_regime", "params.bundle_from_dict", "cli.run",
    "lattice.build_hamiltonian", "lattice.eigensystem", "lattice.evolve",
    "lattice.wavepacket_transport", "validation.bandwidth_averaged_transmission",
)
CALLS = ("scattering.transmittance", "scattering.reflectance", "lattice.evolve")
PER_SWEEP_POINT = ("bands.momentum_from_energy", "scattering.effective_potential")
SOLVE_SIZES = (32, 128, 512)


def per_layer(names: list[str], spans: dict[str, np.ndarray], counts) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``calls_per_point`` counts the calls made inside ``sweep_spectrum`` that
    returned normally, per kept sweep point.  ``nN_ms`` is the median
    duration of a ``boundary_matched_solve`` call on N cells.
    """
    table = summarize(names, spans)
    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = table.get(name, {}).get("self_s", 0.0)
    for name in CALLS:
        metrics[f"{name}.calls"] = int(table.get(name, {}).get("calls", 0))
    requested = counts["spectra.sweep_spectrum.points_requested"]
    kept = counts["spectra.sweep_spectrum.points_kept"]
    metrics["spectra.sweep_spectrum.points_requested"] = int(requested)
    metrics["spectra.sweep_spectrum.points_kept"] = int(kept)
    metrics["spectra.sweep_spectrum.kept_ratio"] = kept / requested if requested else 0.0
    in_sweep = under(names, spans, "spectra.sweep_spectrum") & (spans["raised"] == 0)
    for name in PER_SWEEP_POINT:
        n_calls = 0
        if name in names:
            n_calls = int(np.count_nonzero(in_sweep & (spans["name_id"] == names.index(name))))
        metrics[f"{name}.calls_per_point"] = n_calls / kept if kept else 0.0
    metrics["cli.bytes_written"] = int(counts["cli.bytes_written"])
    solve = "lattice.boundary_matched_solve"
    solve_id = names.index(solve) if solve in names else -1
    dur = spans["end"] - spans["start"]
    for n in SOLVE_SIZES:
        sel = (spans["name_id"] == solve_id) & (spans["tag"] == n)
        metrics[f"{solve}.n{n}_ms"] = float(np.median(dur[sel])) * 1e3 if sel.any() else 0.0
    return metrics
