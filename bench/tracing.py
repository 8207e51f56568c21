"""In-memory spans around the public functions of each elastoscan layer.

The tracer wraps functions and methods by module attribute: every loaded
``elastoscan.*`` module that binds the original object gets the wrapper, so
calls through ``from .forward import save_msr`` style imports are caught as
well.  The library itself is not modified; ``uninstall`` restores every
binding.  A span is ``[name, start, end, parent, attrs]`` with ``parent`` the
index of the enclosing span (or None); the program is single-threaded at the
benchmark's settings, so one stack gives the nesting.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _path_bytes(result, args, kwargs, index):
    return {"bytes": os.path.getsize(args[index])}


def _unknowns(result, args, kwargs):
    return {"unknowns": result.matrix.shape[0]}


def _points(result, args, kwargs):
    return {"points": len(np.atleast_2d(args[0]))}


def _fill_counts(result, args, kwargs):
    before = sum(int(k.sum()) for k in args[0].known.values())
    after = sum(int(k.sum()) for k in result.known.values())
    total = sum(k.size for k in result.known.values())
    return {"filled": after - before, "unknown": total - after, "entries": total}


# (defining module, attribute or Class.method, span name, attrs(result, args, kwargs))
TARGETS = (
    ("geometry", "boundary_quadrature", "geometry.quadrature", None),
    ("elastic", "hankel_pack", "elastic.kernel", None),
    ("elastic", "logcoef_pack", "elastic.kernel", None),
    ("elastic", "traction_of_green", "elastic.kernel", None),
    ("elastic", "PlaneWave.field", "elastic.incident", None),
    ("elastic", "PlaneWave.traction", "elastic.incident", None),
    ("forward", "assemble_system", "forward.assemble", _unknowns),
    ("forward", "SystemMatrix.factorization", "forward.factorize", None),
    ("forward", "SystemMatrix.solve", "forward.solve", None),
    ("forward", "synthesize_msr", "forward.synth", None),
    ("forward", "add_noise", "forward.noise", None),
    ("forward", "save_msr", "forward.msr_save", functools.partial(_path_bytes, index=1)),
    ("forward", "load_msr", "forward.msr_load", None),
    ("indicators", "indicator_values_at", "indicators.eval", _points),
    ("indicators", "IndicatorField.to_csv", "indicators.csv",
     functools.partial(_path_bytes, index=1)),
    ("aperture", "apply_mask", "aperture.mask", None),
    ("aperture", "reciprocity_fill", "aperture.fill", _fill_counts),
    ("aperture", "limited_indicator", "aperture.limited", None),
    ("aperture", "tikhonov_retrieve", "aperture.retrieve", None),
    ("harness", "run_preset", "harness.run", None),
    ("harness", "run_experiment", "harness.run", None),
    ("harness", "render_heatmap", "harness.pgm", None),
    ("harness", "RunManifest.add_file", "harness.hash", None),
    ("harness", "_Emitter.write_bytes", "harness.write", None),
)

# per-layer metric -> unit; the order is the order of the report
LAYER_UNITS = {
    "geometry.quadrature_s": "s",
    "elastic.kernel_s": "s",
    "elastic.kernel_calls": "count",
    "elastic.incident_s": "s",
    "forward.assemble_s": "s",
    "forward.factorize_s": "s",
    "forward.solve_s": "s",
    "forward.synth_s": "s",
    "forward.noise_s": "s",
    "forward.msr_save_s": "s",
    "forward.msr_load_s": "s",
    "forward.msr_bytes": "B",
    "forward.unknowns": "count",
    "indicators.eval_s": "s",
    "indicators.eval_calls": "count",
    "indicators.points_per_s": "1/s",
    "indicators.csv_s": "s",
    "indicators.csv_bytes": "B",
    "indicators.csv_valid_frac": "frac",
    "aperture.mask_s": "s",
    "aperture.fill_s": "s",
    "aperture.limited_s": "s",
    "aperture.retrieve_s": "s",
    "aperture.fill_share": "frac",
    "aperture.extrap_share": "frac",
    "harness.run_s": "s",
    "harness.pgm_s": "s",
    "harness.hash_s": "s",
    "harness.bytes_written": "B",
    "harness.io_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}


class Tracer:
    """Collects spans while installed; ``reset`` starts a fresh span list."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, fn, name: str, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            if attrs is not None:
                rec[4] = attrs(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed in ``missing``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "elastoscan" or key.startswith("elastoscan.")]
        for modname, attr, name, attrs in TARGETS:
            owner = sys.modules.get(f"elastoscan.{modname}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, name, attrs)
            if cls_name:
                self._restore.append((owner, fn_name, original))
                setattr(owner, fn_name, wrapper)
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def self_times(spans) -> tuple[dict, dict]:
    """Per span name: summed self time (duration minus direct children) and call count."""
    child = defaultdict(float)
    for _, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    selft, calls = defaultdict(float), defaultdict(int)
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        selft[name] += (t1 - t0) - child[idx]
        if parent is None or spans[parent][0] != name:
            calls[name] += 1
    return selft, calls


def _attr_sum(spans, name: str, key: str) -> float:
    return float(sum(s[4][key] for s in spans if s[0] == name and s[4]))


def layer_metrics(spans, wall_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced repetition.

    ``indicators.csv_valid_frac`` and ``trace.overhead_frac`` need the whole run and
    are added by the caller.
    """
    selft, calls = self_times(spans)
    eval_s = selft["indicators.eval"]
    entries = _attr_sum(spans, "aperture.fill", "entries")
    top = sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent is None)
    return {
        "geometry.quadrature_s": selft["geometry.quadrature"],
        "elastic.kernel_s": selft["elastic.kernel"],
        "elastic.kernel_calls": calls["elastic.kernel"],
        "elastic.incident_s": selft["elastic.incident"],
        "forward.assemble_s": selft["forward.assemble"],
        "forward.factorize_s": selft["forward.factorize"],
        "forward.solve_s": selft["forward.solve"],
        "forward.synth_s": selft["forward.synth"],
        "forward.noise_s": selft["forward.noise"],
        "forward.msr_save_s": selft["forward.msr_save"],
        "forward.msr_load_s": selft["forward.msr_load"],
        "forward.msr_bytes": _attr_sum(spans, "forward.msr_save", "bytes"),
        "forward.unknowns": _attr_sum(spans, "forward.assemble", "unknowns"),
        "indicators.eval_s": eval_s,
        "indicators.eval_calls": calls["indicators.eval"],
        "indicators.points_per_s": (_attr_sum(spans, "indicators.eval", "points") / eval_s
                                    if eval_s > 0 else 0.0),
        "indicators.csv_s": selft["indicators.csv"],
        "indicators.csv_bytes": _attr_sum(spans, "indicators.csv", "bytes"),
        "aperture.mask_s": selft["aperture.mask"],
        "aperture.fill_s": selft["aperture.fill"],
        "aperture.limited_s": selft["aperture.limited"],
        "aperture.retrieve_s": selft["aperture.retrieve"],
        "aperture.fill_share": (_attr_sum(spans, "aperture.fill", "filled") / entries
                                if entries else 0.0),
        "aperture.extrap_share": (_attr_sum(spans, "aperture.fill", "unknown") / entries
                                  if entries else 0.0),
        "harness.run_s": selft["harness.run"],
        "harness.pgm_s": selft["harness.pgm"],
        "harness.hash_s": selft["harness.hash"],
        "harness.bytes_written": float(bytes_written),
        "harness.io_s": (selft["forward.msr_save"] + selft["indicators.csv"]
                         + selft["harness.write"]),
        "trace.coverage": top / wall_s,
    }
