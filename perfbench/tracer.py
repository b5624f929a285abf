"""From-outside tracing of qutritsim's public functions.

``Tracer.install()`` wraps each function in ``LAYERS`` and rebinds the
wrapper in every module namespace that holds the original (``geometry``
and ``cli`` import their own ``state_to_points``, for example, and so do
the benchmark's workloads), so no call is missed; ``uninstall()`` puts
the originals back. Class construction is traced through the dataclass
``__post_init__``, which is where validation runs.
``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped as plain counters.

Spans (name, start, end, parent, op) are kept in memory and only recorded
while an op is open (``begin_op``/``end_op``); calls made by the
benchmark's own checks pass straight through. A span's self time is its
duration minus the durations of its children, which in single-threaded
code never overlap.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Public functions per module (the layers). Dotted names are methods or
# class constructors; "Ket3" stands for Ket3.__post_init__.
LAYERS = {
    "core": ("Ket3", "DensityMatrix3", "Unitary3", "Unitary3.apply", "dm_from_ket",
             "fidelity", "phase_invariant_distance"),
    "majorana": ("state_to_points", "points_to_state", "pair_distance", "rotate_pair",
                 "great_circle_distance"),
    "algebra": ("u_lambda", "u_sigma", "r_so3", "transition_op", "transition_unitary",
                "majorana_rotation_check"),
    "geometry": ("canonical_decompose", "magnetization", "canonical_state"),
    "gates": ("gate_by_name", "chrestenson", "swap", "phase_gate"),
    "nmrsim": ("run_sequence", "apply_event", "event_unitary", "sequence_unitary",
               "verify_sequence", "sequence_from_text", "spectrum_lines", "phase_table",
               "transition_frequencies"),
    "tomography": ("run_tomo_experiments", "reconstruct", "tomo_report"),
    "cli": ("main", "build_parser", "parse_state_spec", "sample_trajectory"),
}
COUNTED = ("eigh", "eigvalsh")
CONSTRUCTED = ("Ket3", "DensityMatrix3", "Unitary3")


def layer_metric_names() -> list:
    """Every per-layer metric name the traced run reports, in order."""
    names = []
    for module, fns in LAYERS.items():
        for fn in fns:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_us"]
    names += [f"{module}.self_s" for module in LAYERS]
    names += [f"numpy.{fn}.calls" for fn in COUNTED]
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts = Counter()
        self.op = -1
        self.ops = 0
        self._stack = [-1]
        self._wrapped = None

    # -- op boundaries ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.op = -1
        self.ops += 1

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1])
            self.span_op.append(self.op)
            self.span_end.append(0)
            stack.append(idx)
            self.span_start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.op >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _bindings(self) -> list:
        """(owner, attribute, original, wrapper) for every rebinding."""
        # Every loaded module, so the benchmark's own imported names are
        # rebound too and its calls into the program are traced.
        modules = [m for m in list(sys.modules.values()) if m is not None]
        out = []
        for module, fns in LAYERS.items():
            home = sys.modules[f"qutritsim.{module}"]
            for fn in fns:
                name = f"{module}.{fn}"
                if fn in CONSTRUCTED or "." in fn:
                    cls_name, _, meth = fn.partition(".")
                    cls = getattr(home, cls_name)
                    meth = meth or "__post_init__"
                    original = cls.__dict__[meth]
                    out.append((cls, meth, original, self._span(name, original)))
                    continue
                original = getattr(home, fn)
                wrapper = self._span(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            out.append((mod, attr, original, wrapper))
        for fn in COUNTED:
            original = getattr(np.linalg, fn)
            out.append((np.linalg, fn, original, self._counter(f"numpy.{fn}", original)))
        return out

    def install(self) -> None:
        """Put the wrappers in place everywhere the originals are bound."""
        if self._wrapped is None:
            self._wrapped = self._bindings()
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the originals back, so untraced code pays no wrapper cost."""
        for owner, attr, original, _ in self._wrapped or ():
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times_ns(self) -> list:
        """Self time of every span: duration minus its children's durations."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        own = [e - s for s, e in zip(start, end)]
        for idx, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[idx] - start[idx]
        return own

    def metrics(self) -> dict:
        """Per-layer metrics over the ops traced so far."""
        ops = max(self.ops, 1)
        calls = Counter()
        self_ns = Counter()
        for name_id, own in zip(self.span_name, self.self_times_ns()):
            calls[name_id] += 1
            self_ns[name_id] += own
        by_name = {name: i for i, name in enumerate(self.names)}
        out = {}
        module_ns = Counter()
        for module, fns in LAYERS.items():
            for fn in fns:
                i = by_name[f"{module}.{fn}"]
                n = calls[i]
                out[f"{module}.{fn}.calls"] = (n / ops, "calls/op")
                out[f"{module}.{fn}.self_us"] = (self_ns[i] / n / 1e3 if n else 0.0, "us/call")
                module_ns[module] += self_ns[i]
        for module in LAYERS:
            out[f"{module}.self_s"] = (module_ns[module] / ops / 1e9, "s/op")
        for fn in COUNTED:
            out[f"numpy.{fn}.calls"] = (self.counts[f"numpy.{fn}"] / ops, "calls/op")
        return out

    def write_spans(self, path) -> None:
        """Write the spans as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
