"""Span tracing of lossyqpt's layers from outside the package.

Each traced function is replaced, at every module attribute and module
level dict entry inside ``lossyqpt`` that binds it (``cli._METHODS``
holds the ``fit_*`` functions from import time), by a wrapper that
records a span: name, start, end, parent span and operation id.  Spans
stay in memory, in flat arrays, until the run writes them out.  A span's
self time is its duration minus the durations of its direct children,
and minus the wrapper's own cost for each of them: the part of a wrapped
call that falls outside the span it records would otherwise count as the
caller's time.  That cost is measured at install on an empty function.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

# layer -> public functions traced in it, named <module>.<function>
LAYERS = {
    "qmath": ("herm_eig", "psd_sqrt", "state_fidelity"),
    "channels": ("probability_operator", "process_fidelity_ntp", "apply_channel"),
    "tomography": ("reconstruct_linear", "state_tomography", "lambda_from_outputs",
                   "linear_inversion"),
    "simulator": ("simulate_counts", "expected_counts"),
    "mle": ("fit_unconstrained", "fit_trace_preserving", "fit_linear",
            "fit_post_selected", "normalize_max_p"),
    "optimize": ("minimize_adaptive",),
    "serialize": ("read_json", "write_json"),
    "cli": ("main",),
}
# The callable mle hands to minimize_adaptive (the weighted misfit, plus
# the penalty term in the trace-preserving fit) has no module-level name;
# the minimize_adaptive wrapper wraps it under this one.
OBJECTIVE = "mle.objective"
OP = "op"


def _empty():
    pass


def traced_names():
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    names.insert(names.index("mle.normalize_max_p") + 1, OBJECTIVE)
    return names


class Tracer:
    def __init__(self):
        self.names = [OP, *traced_names()]
        self._id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._restore = []
        self.bindings = {}
        self.wrapper_s = 0.0

    def wrap(self, name, fn, wrap_first_arg=None):
        """fn wrapped to record a span named `name`; wrap_first_arg, if
        given, is applied to the first positional argument first."""
        nid = self._id[name]
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_first_arg is not None:
                args = (wrap_first_arg(args[0]), *args[1:])
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self._op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def calibrate(self, calls=20000, repeats=5):
        """Per-call cost of a wrapper outside the span it records, in
        seconds: a wrapped empty function against a plain call, best of
        `repeats` rounds."""
        probe = Tracer()
        traced = probe.wrap(OP, _empty)
        clock = time.perf_counter
        best = math.inf
        for _ in range(repeats):
            first = len(probe.start)
            t0 = clock()
            for _ in range(calls):
                _empty()
            t1 = clock()
            for _ in range(calls):
                traced()
            t2 = clock()
            inside = math.fsum(e - s for s, e in zip(probe.start[first:], probe.end[first:]))
            best = min(best, ((t2 - t1) - inside - (t1 - t0)) / calls)
        self.wrapper_s = max(best, 0.0)

    def install(self):
        """Wrap every traced function at every name that binds it."""
        self.calibrate()
        homes = {layer: importlib.import_module(f"lossyqpt.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lossyqpt" or n.startswith("lossyqpt."))]
        for layer, fns in LAYERS.items():
            home = homes[layer]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name)
                wrap_arg = None
                if name == "optimize.minimize_adaptive":
                    wrap_arg = functools.partial(self.wrap, OBJECTIVE)
                wrapper = self.wrap(name, original, wrap_arg)
                sites = []
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod.__dict__, attr, original, wrapper)
                            sites.append(f"{mod.__name__}.{attr}")
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._rebind(value, key, original, wrapper)
                                    sites.append(f"{mod.__name__}.{attr}[{key!r}]")
                self.bindings[name] = sites

    def _rebind(self, table, key, original, wrapper):
        table[key] = wrapper
        self._restore.append((table, key, original))

    def uninstall(self):
        for table, key, original in reversed(self._restore):
            table[key] = original
        self._restore.clear()

    def begin_op(self, op_id):
        self._op_id = op_id
        idx = len(self.start)
        self.name.append(self._id[OP])
        self.parent.append(-1)
        self.op.append(op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)

    def end_op(self):
        self.end[self._stack.pop()] = time.perf_counter()
        self._op_id = -1

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self):
        """Per traced function: calls and self ms (medians over operations)
        and share (total self time over total operation time, both without
        the wrappers' cost); and that cost per call."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        self_s = (dur - np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
                  - np.bincount(a["parent"][child], minlength=dur.size) * self.wrapper_s)
        is_op = a["name"] == self._id[OP]
        op_ids = np.sort(a["op"][is_op])
        in_op = a["op"] >= 0
        total_op_s = float(dur[is_op].sum() - np.count_nonzero(in_op & ~is_op) * self.wrapper_s)
        out = {"trace.wrapper_us": (self.wrapper_s * 1e6, "us")}
        for name in self.names[1:]:
            sel = in_op & (a["name"] == self._id[name])
            slot = np.searchsorted(op_ids, a["op"][sel])
            calls = np.bincount(slot, minlength=op_ids.size)
            self_ms = np.bincount(slot, weights=self_s[sel], minlength=op_ids.size) * 1e3
            out[f"{name}.calls"] = (float(np.median(calls)), "count")
            out[f"{name}.self_ms"] = (float(np.median(self_ms)), "ms")
            out[f"{name}.share"] = (float(self_s[sel].sum()) / total_op_s, "fraction")
        return out
