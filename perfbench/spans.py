"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function or method: name, start, end,
parent span and run id, plus the layer index and batch size for layer
calls.  Spans stay in a list while the run is measured and are written out as
JSON lines only at the end, so the cost of tracing is the wrapper call alone.

Functions are wrapped at every name a caller resolves: ``kernels`` and
``ttmatrix`` import ``tt_svd`` and ``tt_full`` by name, so replacing the
attribute of ``ttconv.tt`` alone would miss their calls.  ``patch_function``
therefore rebinds every global in the ``ttconv`` package that refers to the
original function object.  The benchmark itself calls the library through
module attributes (``kernels.ttconv_from_dense(...)``), which the same rebinding
covers.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from time import process_time as clock


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._undo = []
        self.input_shapes = {}  # layer index -> per-image input shape

    # -- recording -----------------------------------------------------------

    def _open(self, name, attrs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None}
        if attrs:
            span.update(attrs)
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = clock()
        return span

    def _close(self, span):
        span["end"] = clock()
        self._stack.pop()

    def wrap(self, fn, name, attrs=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        def wrapper(*args, **kwargs):
            span = self._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    @contextlib.contextmanager
    def phase(self, name):
        """A top-level span grouping one benchmark phase."""
        span = self._open(name, None)
        try:
            yield
        finally:
            self._close(span)

    # -- installing wrappers -------------------------------------------------

    def patch_function(self, module, attr, name):
        original = getattr(module, attr)
        wrapper = self.wrap(original, name)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("ttconv"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name))
        self._undo.append((cls, attr, original))

    def _set_instance(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj).get(attr, _DELETE)))
        setattr(obj, attr, value)

    def instrument_network(self, net):
        """Wrap each layer instance's forward/backward and the loss head.

        A forward with ``train=False`` is recorded as ``eval``.  The first
        call of each layer records its per-image input shape, which the
        computed cost counts need.
        """
        for idx, layer in enumerate(net.layers):
            self._set_instance(layer, "forward", self._layer_forward(layer, idx))
            self._set_instance(layer, "backward",
                               self.wrap(layer.backward, f"nn.{layer.kind}.bwd", {"layer": idx}))
        self._set_instance(net.loss, "forward", self.wrap(net.loss.forward, "nn.loss"))
        self._set_instance(net.loss, "backward", self.wrap(net.loss.backward, "nn.loss"))

    def _layer_forward(self, layer, idx):
        fwd, kind = layer.forward, layer.kind
        fwd_name, eval_name = f"nn.{kind}.fwd", f"nn.{kind}.eval"
        shapes = self.input_shapes

        def forward(x, train=False):
            if idx not in shapes:
                shapes[idx] = tuple(x.shape[1:])
            span = self._open(fwd_name if train else eval_name, {"layer": idx, "b": x.shape[0]})
            try:
                return fwd(x, train=train)
            finally:
                self._close(span)
        return forward

    def instrument_attr(self, obj, attr, name):
        self._set_instance(obj, attr, self.wrap(getattr(obj, attr), name))

    def restore(self):
        for obj, attr, original in reversed(self._undo):
            if original is _DELETE:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def table(self):
        """Per span: (name, phase, duration, self time, span).

        Self time is the duration minus the time direct children cover; calls
        are single-threaded, so children never overlap.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        root = [0] * len(spans)
        for span in spans:
            parent = span["parent"]
            dur = span["end"] - span["start"]
            if parent is None:
                root[span["id"]] = span["id"]
            else:
                root[span["id"]] = root[parent]
                child_time[parent] += dur
        rows = []
        for span in spans:
            dur = span["end"] - span["start"]
            rows.append((span["name"], spans[root[span["id"]]]["name"], dur,
                         dur - child_time[span["id"]], span))
        return rows

    def dump(self, path, header):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"run": self.run_id, **header}) + "\n")
            for span in self.spans:
                f.write(json.dumps({"run": self.run_id, **span}) + "\n")


_DELETE = object()
