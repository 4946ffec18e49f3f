"""Span tracing for the benchmark's traced run, patched in from outside ``src/``.

The traced run wraps the public entry points of each layer (see
``LAYER_FUNCTIONS`` and ``MODEL_SPANS``) with a recorder that keeps one span
per call: name, start, end and parent span, on a per-thread stack so the
scoring server's worker thread nests its own spans. Spans stay in memory and
are written once, when the run ends. A span's self time is its duration
minus the durations of its child spans; children of one span run on its
thread, one after another, so they never overlap.

While the recorder is active, ``repro.obs`` runs under ``obs.capture()``, so
the program's own counters (plan caches, score cache, batch occupancy,
retirements, compactions) are read from the same registry.

The untraced run uses no :class:`Tracer` at all; only :func:`patch`, which
the train workload needs to stamp optimizer-step returns.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute, span name). Functions are rebound in every loaded
#: ``repro`` module that imported them by name.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.data.extraction", "build_packed_samples", "graph.extract"),
    ("repro.graph.traversal", "k_hop_union", "graph.halo"),
    ("repro.data.loader", "collate_from_store", "data.collate"),
    ("repro.seal.evaluator", "evaluate", "seal.eval"),
)

#: (module, class, method, span name) for methods patched on their class.
LAYER_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward"),
    ("repro.nn.optim", "Adam", "step", "nn.optimizer"),
    ("repro.serve.scorer", "LinkScorer", "score", "serve.score"),
    ("repro.serve.scorer", "LinkScorer", "invalidate", "serve.invalidate"),
    ("repro.stream.snapshot", "StreamingGraph", "apply", "stream.apply"),
    ("repro.stream.snapshot", "StreamingGraph", "snapshot", "stream.snapshot"),
)

#: Module classes whose forward gets a span; any DGCNN-family model is
#: ``models.forward``. Other modules (pooling, dropout) count toward the
#: self time of the span that called them.
MODEL_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.models.layers", "GATConv", "models.gatconv"),
    ("repro.models.sort_pool", "SortPooling", "models.sortpool"),
    ("repro.nn.conv", "Conv1d", "models.conv1d"),
    ("repro.nn.dense", "Linear", "models.linear"),
    ("repro.models.dgcnn", "DGCNNBackbone", "models.forward"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(
    [name for _, _, name in LAYER_FUNCTIONS]
    + [name for *_, name in LAYER_METHODS]
    + [name for _, _, name in MODEL_SPANS]
    + ["seal.loop"]
)


def _module(name: str):
    __import__(name)
    return sys.modules[name]


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, value) -> int:
        """Replace ``original`` wherever a loaded ``repro`` module binds it."""
        found = 0
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self.set(mod, attr, value)
                    found += 1
        return found

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@contextmanager
def patch(owner, attr: str, wrap: Callable) -> Iterator[None]:
    """Replace ``owner.attr`` by ``wrap(original)`` for the block."""
    patches = Patches()
    patches.set(owner, attr, wrap(owner.__dict__[attr]))
    try:
        yield
    finally:
        patches.undo()


class Tracer:
    """Records layer spans while active; computes self times afterwards."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent_span_or_None, thread_id].
        self.spans: List[list] = []
        self.pairs: Dict[str, float] = defaultdict(float)
        self.registry = None
        self._local = threading.local()
        self._patches = Patches()
        self._capture = None
        self.active = False

    # -- recording --------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (e.g. ``seal.loop``)."""
        if not self.active:
            yield
            return
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
               threading.get_ident()]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield
        finally:
            stack.pop()
            rec[2] = time.perf_counter()
            self._local.last = rec

    def last_duration(self, name: str) -> Optional[float]:
        """Duration of the span that last closed on this thread, if ``name``."""
        rec = getattr(self._local, "last", None)
        if rec is None or rec[0] != name:
            return None
        return rec[2] - rec[1]

    def _wrap(self, fn: Callable, name: str, pairs: Optional[Callable] = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            rec = [name, clock(), 0.0, stack[-1] if stack else None,
                   threading.get_ident()]
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
                tracer._local.last = rec
                if pairs is not None:
                    tracer.pairs[name] += pairs(args)

        traced.__wrapped__ = fn
        return traced

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "Tracer":
        """Patch every layer entry point and open an ``obs`` capture."""
        from repro import obs

        counts = {
            "graph.extract": lambda args: len(args[2]),
            "serve.score": lambda args: len(args[1]),
        }
        for mod, attr, name in LAYER_FUNCTIONS:
            original = getattr(_module(mod), attr)
            if not self._patches.rebind(original, self._wrap(original, name, counts.get(name))):
                raise RuntimeError(f"{mod}.{attr} is bound nowhere")
        for mod, cls_name, attr, name in LAYER_METHODS:
            cls = getattr(_module(mod), cls_name)
            self._patches.set(cls, attr, self._wrap(cls.__dict__[attr], name, counts.get(name)))
        self._patch_module_call()
        self._capture = obs.capture()
        self.registry = self._capture.__enter__()
        self.active = True
        return self

    def _patch_module_call(self) -> None:
        from repro.nn.module import Module

        classes = [(getattr(_module(m), c), n) for m, c, n in MODEL_SPANS]
        by_type: Dict[type, Optional[Callable]] = {}
        original = Module.__dict__["__call__"]

        def call_for(cls: type) -> Optional[Callable]:
            for base, name in classes:
                if issubclass(cls, base):
                    return self._wrap(original, name)
            return None

        def call(module, *args, **kwargs):
            cls = type(module)
            try:
                fn = by_type[cls]
            except KeyError:
                fn = by_type[cls] = call_for(cls)
            if fn is None:
                return original(module, *args, **kwargs)
            return fn(module, *args, **kwargs)

        self._patches.set(Module, "__call__", call)

    def stop(self) -> None:
        """Undo every patch and close the ``obs`` capture."""
        self.active = False
        self._patches.undo()
        if self._capture is not None:
            self._capture.__exit__(None, None, None)
            self._capture = None

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record no span and count into a throwaway registry for the block."""
        from repro import obs

        self.active = False
        try:
            with obs.capture():
                yield
        finally:
            self.active = True

    # -- results ------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[3] is not None:
                child[id(rec[3])] += rec[2] - rec[1]
        out: Dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[0]] += (rec[2] - rec[1]) - child[id(rec)]
        return dict(out)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec[0]] += 1
        return dict(out)

    def write(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent_index, thread]``."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            [rec[0], rec[1], rec[2], -1 if rec[3] is None else index[id(rec[3])], rec[4]]
            for rec in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}))
