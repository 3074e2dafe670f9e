"""Spans around the calls into each cyclewalk layer, and the per-layer metrics.

The tracer never edits the package source.  It replaces every public
function of each layer module with a wrapper that records one span per
call, and rebinds the same wrapper under every other name in the
package that refers to the original function (``cli.write_table`` is
bound at import from ``output``; ``analysis.evolve`` from ``walk``), so
a call is seen whichever name the caller looks it up by.  Process-pool
workers run without the wrappers, so traced sweeps must run at jobs=1.

A span is (layer, function, start, end, parent span, operation id,
info).  A layer's self time is the duration of its spans minus the
time covered by their direct child spans.  "Entries" are spans whose
parent belongs to another layer (or to none): they count how often
work crosses into the layer.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
import warnings

import numpy as np

#: The package modules taken as layers, from the bottom up.
LAYERS = ("_kernels", "walk", "spectral", "analysis", "output", "cli")

# Computed cost model of one kernel step on one site: the (sites, 4)
# complex128 table is read and written once (128 B); the accumulate and
# norm-scan kernels read it once more to sum |a|^2 (64 B, 16 flop).  The
# step itself is 20 flop per site for the recycled walk (two 2x2 real
# coin blocks on complex amplitudes) and 16 for the memory walk.
_STEP_BYTES, _SCAN_BYTES = 128, 64
_STEP_FLOPS = {"recycled": 20, "memory": 16}
_SCAN_FLOPS = 16

_DIAG_PREFIXES = ("spectral_cache", "eigensystem")
_MB = 1024.0 * 1024.0


def _public_functions(module):
    """Public module attributes that are functions defined by the module."""
    for name, obj in sorted(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _kernel_info(name, args, kwargs, result):
    arr = next((a for a in args if isinstance(a, np.ndarray)), None)
    steps = kwargs.get("steps")
    if steps is None:
        steps = next((a for a in args if isinstance(a, (int, np.integer))
                      and not isinstance(a, bool)), 0)
    sites = arr.size // 4 if arr is not None else 0
    model = "memory" if "memory" in name else "recycled"
    scan = "accumulate" in name or "normscan" in name
    site_steps = sites * int(steps)
    return {"sites": sites, "steps": int(steps), "site_steps": site_steps,
            "bytes": site_steps * (_STEP_BYTES + (_SCAN_BYTES if scan else 0)),
            "flops": site_steps * (_STEP_FLOPS[model]
                                   + (_SCAN_FLOPS if scan else 0))}


def _spectral_info(name, args, kwargs, result):
    if not name.startswith(_DIAG_PREFIXES):
        return None
    lams = getattr(result, "eigenvalues", None)
    blocks = lams.shape[0] if getattr(lams, "ndim", 1) == 2 else 1
    return {"blocks": int(blocks)}


def _analysis_info(name, args, kwargs, result):
    if name != "sweep" or not isinstance(result, list):
        return None
    return {"cells": len(result),
            "failed_cells": sum(1 for r in result
                                if getattr(r, "error", None) is not None)}


def _output_info(name, args, kwargs, result):
    if isinstance(result, str):
        return {"bytes": len(result.encode("utf-8"))}
    return None


_INFO = {"_kernels": _kernel_info, "spectral": _spectral_info,
         "analysis": _analysis_info, "output": _output_info}


class Tracer:
    """Records spans while installed; metrics come from one round's spans.

    With ``track_alloc`` set, every outermost ``spectral`` span runs
    under tracemalloc and records the peak bytes allocated during it.
    That slows the spectral layer, so alloc rounds are kept apart from
    the rounds whose times are reported.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.rounds = []
        self.stack = []
        self.op_id = None
        self.track_alloc = False
        self.warning_count = 0
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: sys.modules["%s.%s" % (self.package.__name__, name)]
                   for name in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = self._wrap(layer, name, fn)
        prefix = self.package.__name__
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == prefix
                                      or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        self._saved.append((warnings, "warn", warnings.warn))
        warnings.warn = self._counting_warn(
            warnings.warn, getattr(modules["spectral"],
                                   "DegenerateClusterWarning", Warning))

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved = []

    def _counting_warn(self, warn, counted):
        tracer = self

        def counting_warn(message, category=None, stacklevel=1, *args,
                          **kwargs):
            cat = category if category is not None else (
                type(message) if isinstance(message, Warning) else UserWarning)
            if isinstance(cat, type) and issubclass(cat, counted):
                tracer.warning_count += 1
            return warn(message, category, stacklevel + 1, *args, **kwargs)
        return counting_warn

    def _wrap(self, layer, name, fn):
        tracer = self
        info_fn = _INFO.get(layer)

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            alloc = (tracer.track_alloc and layer == "spectral"
                     and not tracemalloc.is_tracing())
            if alloc:
                tracemalloc.start()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                info = info_fn(name, args, kwargs, result) if info_fn else None
                if alloc:
                    info = dict(info or {},
                                peak_alloc=tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer.stack.pop()
                tracer.spans[index] = (layer, name, start, end, parent,
                                       tracer.op_id, info)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- rounds -------------------------------------------------------------

    def start_round(self):
        self.spans = []
        self.stack = []
        self.warning_count = 0

    def end_round(self):
        self.rounds.append((self.spans, self.warning_count))
        self.spans = []

    def dump(self):
        """All recorded rounds as JSON-ready lists (times in seconds)."""
        return [{"warnings": count,
                 "spans": [[layer, name, round(start, 9), round(end, 9),
                            parent, op, info]
                           for layer, name, start, end, parent, op, info
                           in spans]}
                for spans, count in self.rounds]


#: Unit of every per-layer metric, in the order the benchmark lists them.
UNITS = {
    "kernels.calls": "count", "kernels.busy_s": "s",
    "kernels.walk_steps": "count", "kernels.steps_per_call": "count",
    "kernels.ns_per_site_step": "ns", "kernels.bytes_computed": "B",
    "kernels.flops_computed": "flop",
    "walk.calls": "count", "walk.self_s": "s",
    "spectral.diag_calls": "count", "spectral.blocks": "count",
    "spectral.diag_s": "s", "spectral.us_per_block": "us",
    "spectral.rebind_s": "s", "spectral.sum_s": "s",
    "spectral.closed_form_s": "s", "spectral.self_s": "s",
    "spectral.peak_alloc_mb": "MB", "spectral.ambiguous_warnings": "count",
    "analysis.calls": "count", "analysis.self_s": "s",
    "analysis.cells": "count", "analysis.failed_cells": "count",
    "analysis.pool_speedup": "ratio",
    "output.calls": "count", "output.render_s": "s", "output.bytes": "B",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _own_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, warning_count):
    """Per-layer metrics of one round, keyed by the benchmark's metric names.

    ``spectral.peak_alloc_mb`` is nonzero only for an alloc round;
    ``analysis.pool_speedup`` and ``trace.overhead_ratio`` need more than
    one round and are filled in by the caller.
    """
    own_times = _own_times(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    entries = dict.fromkeys(LAYERS, 0)
    entry_s = dict.fromkeys(LAYERS, 0.0)
    k = {"steps": 0, "site_steps": 0, "bytes": 0, "flops": 0}
    diag_calls = blocks = cells = failed_cells = out_bytes = 0
    diag_s = rebind_s = sum_s = closed_s = 0.0
    peak_alloc = 0
    for (layer, name, start, end, parent, _, info), own in zip(spans,
                                                                own_times):
        dur = end - start
        self_s[layer] += own
        parent_layer = spans[parent][0] if parent >= 0 else None
        if parent_layer != layer:
            entries[layer] += 1
            entry_s[layer] += dur
        info = info or {}
        peak_alloc = max(peak_alloc, info.get("peak_alloc", 0))
        if layer == "_kernels":
            for key in k:
                k[key] += info.get(key, 0)
        elif layer == "spectral":
            if "blocks" in info:
                diag_calls += 1
                blocks += info["blocks"]
                diag_s += dur
            elif name == "cache_with_state":
                rebind_s += dur
            elif name.startswith("limiting_distribution"):
                sum_s += own
            elif name.startswith("closed_form"):
                closed_s += own
        elif layer == "analysis":
            cells += info.get("cells", 0)
            failed_cells += info.get("failed_cells", 0)
        elif layer == "output" and "bytes" in info and not (
                parent_layer == "output" and spans[parent][6]
                and "bytes" in spans[parent][6]):
            out_bytes += info["bytes"]
    kcalls = entries["_kernels"]
    return {
        "kernels.calls": kcalls,
        "kernels.busy_s": self_s["_kernels"],
        "kernels.walk_steps": k["steps"],
        "kernels.steps_per_call": k["steps"] / kcalls if kcalls else 0.0,
        "kernels.ns_per_site_step": (self_s["_kernels"] * 1e9 / k["site_steps"]
                                     if k["site_steps"] else 0.0),
        "kernels.bytes_computed": k["bytes"],
        "kernels.flops_computed": k["flops"],
        "walk.calls": entries["walk"],
        "walk.self_s": self_s["walk"],
        "spectral.diag_calls": diag_calls,
        "spectral.blocks": blocks,
        "spectral.diag_s": diag_s,
        "spectral.us_per_block": diag_s * 1e6 / blocks if blocks else 0.0,
        "spectral.rebind_s": rebind_s,
        "spectral.sum_s": sum_s,
        "spectral.closed_form_s": closed_s,
        "spectral.self_s": self_s["spectral"],
        "spectral.peak_alloc_mb": peak_alloc / _MB,
        "spectral.ambiguous_warnings": warning_count,
        "analysis.calls": entries["analysis"],
        "analysis.self_s": self_s["analysis"],
        "analysis.cells": cells,
        "analysis.failed_cells": failed_cells,
        "output.calls": entries["output"],
        "output.render_s": entry_s["output"],
        "output.bytes": out_bytes,
        "cli.calls": entries["cli"],
        "cli.self_s": self_s["cli"],
    }


def self_shares(spans, wall_s):
    """Each layer's self time as a share of the round's wall time."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, _own_times(spans)):
        out[span[0]] += own
    return {layer: (t / wall_s if wall_s else 0.0) for layer, t in out.items()}
