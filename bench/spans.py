"""Span tracer for the traced benchmark run.

``install`` wraps every public function of the os2e modules (and the names
other modules imported from them, such as ``training.forward``) in a timing
wrapper.  Each call records one span: its name, its parent span, start and
end in nanoseconds, and optionally one computed count (rows, bytes or
iterations).  Spans stay in memory as packed arrays until the run ends.
The untraced run never calls ``install``, so it executes unmodified code.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array

import numpy as np

_TRAIN_ENTRY = ("init_transfer_train", "knowledge_transfer_train", "data_transfer_train")


def _forward_rows(args, kwargs, result):
    return np.shape(kwargs["x"] if "x" in kwargs else args[2])[0]


def _bytes_out(args, kwargs, result):
    return result.pixels.nbytes


def _path_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _total_iters(args, kwargs, result):
    return (kwargs["config"] if "config" in kwargs else args[-1]).total_iters


def _counter(layer: str, attr: str):
    """The computed count a span of ``layer.attr`` records, or None."""
    if layer == "io" and attr.startswith(("read_", "write_")):
        return _path_bytes  # file size
    if layer == "training" and attr in _TRAIN_ENTRY:
        return _total_iters
    return {"network.forward": _forward_rows, "pipeline.resize_bilinear": _bytes_out}.get(
        f"{layer}.{attr}"
    )


def _span_name(layer: str, attr: str):
    if layer == "network" and attr.endswith("_loss"):
        return "network.loss"
    if layer == "cli" and attr == "run":
        return lambda args: f"cli.{args[0][0] if args[0] else 'run'}"
    return f"{layer}.{attr}"


class Tracer:
    """In-memory span recorder; spans nest by call order (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self._stack = [-1]
        self.active = True  # False: wrappers call straight through, no span

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def open(self, name: str) -> int:
        sid = len(self.parent)
        self.name_of.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.count.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, count: int = 0) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.count[sid] = count
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` so each call is a span; ``name`` may be a callable of args."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(name(args) if callable(name) else name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = int(count(args, kwargs, result))
                return result
            finally:
                self.close(sid, n)

        return traced

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, summed self and wall ns, summed count, durations."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        # children never overlap in one thread, so self = own - children
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        self_ns = dur - child.astype(np.int64)
        name_of = np.frombuffer(self.name_of, dtype=np.int64)
        count = np.frombuffer(self.count, dtype=np.int64)
        out = {}
        for idx, name in enumerate(self.names):
            sel = name_of == idx
            out[name] = {
                "calls": int(sel.sum()),
                "self_ns": int(self_ns[sel].sum()),
                "wall_ns": int(dur[sel].sum()),
                "count": int(count[sel].sum()),
                "durations_ns": dur[sel],
                "counts": count[sel],
            }
        return out

    def write(self, path: str) -> None:
        """Save the spans as numpy arrays; ``name`` indexes into ``names``."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            count=np.frombuffer(self.count, dtype=np.int64),
        )


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


def install(tracer: Tracer, modules: dict[str, object]) -> Patches:
    """Wrap each layer module's public functions; ``modules`` maps layer -> module."""
    patches = Patches()
    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            wrapped[id(fn)] = tracer.wrap(_span_name(layer, attr), fn, _counter(layer, attr))
    # rebind direct imports too (training.forward, selection.conditional_entropy, ...)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                patches.set(module, attr, wrapped[id(value)])

    pipeline, selection = modules["pipeline"], modules["selection"]
    # the scorers are callables handed to score_regions: time each call
    score_regions = vars(pipeline)["score_regions"]

    def scoring(image, config, scorers, *args, **kwargs):
        scorers = {k: tracer.wrap("pipeline.scorer", f) for k, f in scorers.items()}
        return score_regions(image, config, scorers, *args, **kwargs)

    patches.set(pipeline, "score_regions", scoring)
    patches.set(
        pipeline.ImageBuffer,
        "__post_init__",
        tracer.wrap("pipeline.ImageBuffer", pipeline.ImageBuffer.__post_init__),
    )
    from_posterior = selection.SelectionProblem.from_posterior
    patches.set(
        selection.SelectionProblem,
        "from_posterior",
        staticmethod(tracer.wrap("selection.from_posterior", from_posterior)),
    )
    return patches
