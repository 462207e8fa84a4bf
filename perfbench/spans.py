"""In-memory span tracer installed around the public functions of netdmd's layers.

Spans are recorded from the benchmark's side only: every public function of
the layer modules is replaced by a timing wrapper in every module namespace
that binds it (the package re-exports names with ``from .x import y``, so
patching the defining module alone would miss most call sites).
``numpy.linalg.svd`` is wrapped the same way, because the dense kernels reach
LAPACK through it. Spans are aggregated per name as they close: call count
and self time (duration minus the time covered by wrapped child spans).
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

#: Layer modules whose public functions get a span each, in dependency order.
LAYERS = ("numkernel", "topology", "sysmodel", "dmdcore", "netdmdc", "bench")

#: Functions reported under a shared span name instead of their own.
SPAN_ALIASES = {
    "sysmodel.gen_circular": "sysmodel.generate",
    "sysmodel.gen_erdos_renyi": "sysmodel.generate",
}

SVD_SPAN = "numkernel.svd"
NODE_SOLVE_SPAN = "dmdcore.dmdc_exact"
NETWORK_SOLVE_SPAN = "netdmdc.network_dmdc_exact"


class SpanStats:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Aggregates spans by name while ``recording`` is true.

    ``top_s`` is the time covered by outermost spans, the numerator of trace
    coverage. ``node_solves`` counts node solves made inside a network solve;
    ``svd_matrices``/``svd_elements`` are the matrices and entries handed to
    LAPACK SVD, computed from the argument shapes.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.recording = False
        self.top_s = 0.0
        self.node_solves = 0
        self.svd_matrices = 0
        self.svd_elements = 0
        self._stack: list[list] = []  # [name, start, child_s]

    def stat(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._enter(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _enter(self, name: str, args) -> None:
        if name == NODE_SOLVE_SPAN and any(frame[0] == NETWORK_SOLVE_SPAN for frame in self._stack):
            self.node_solves += 1
        elif name == SVD_SPAN and args:
            shape = getattr(args[0], "shape", ())
            if len(shape) >= 2:
                batch = 1
                for d in shape[:-2]:
                    batch *= int(d)
                self.svd_matrices += batch
                self.svd_elements += batch * int(shape[-2]) * int(shape[-1])
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s = self._stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_s += duration


def _layer_functions():
    """(span name, function) for every public function defined in a layer module."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"netdmd.{layer}"]
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            out.append((SPAN_ALIASES.get(name, name), fn))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace each traced function by its wrapper in every loaded module, then restore.

    Call sites must look the functions up through a module attribute at call
    time (``netdmdc.model_error(...)``); names bound before installation into
    a namespace that is not a loaded module are not seen.
    """
    import numpy as np

    targets = _layer_functions() + [(SVD_SPAN, np.linalg.svd)]
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in targets}
    patched = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
