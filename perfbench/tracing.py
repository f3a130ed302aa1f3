"""Outside-in tracing: wrap the public callables of each layer from the
benchmark's own files, record one span per call, and restore every wrapped
callable when the traced block ends.

A span records its name, start, end, parent span and request id. A layer's
self time is its span minus the spans of its children. ``nn`` building
blocks (attention, feed-forward, RMSNorm) are shared by the target and the
drafter, so their spans are attributed to the nearest enclosing ``model.*``
or ``drafter.*`` span. A ``LayerKV`` copy is attributed to the cache that
owns it, not to the span stack: ``speculation.commit`` compacts the target's
``KVCache`` outside any model span. The drafter's rolling caches are the
``LayerKV`` pair of a ``DraftState``; every other ``LayerKV`` is the target's.

Patch targets follow how the program binds names: ``engine`` imports
``expand_tree``, ``verify``, ``commit`` and ``sample`` at import time, so
those are patched on ``amphista.engine``; ``Drafter.head_logits`` calls
``amphista.drafter.topk_lists``; ``training.train`` calls the module-level
``batch_draft_logits``, ``compute_losses`` and ``measure_head_accuracy``;
``cli`` imports ``load_checkpoint`` by name, and the fixture loads through
``cli``, so it is patched there as well as on ``checkpoint``.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

from amphista import bench, checkpoint, cli, drafter, engine, model, nn, tensor, training

_OWNERS = ("model.", "drafter.")


def _forward_kind(args, kwargs) -> str:
    """Classify ``TargetModel.forward(self, tokens, cache, mask=None, ...)``."""
    cache = args[2] if len(args) > 2 else kwargs["cache"]
    mask = args[3] if len(args) > 3 else kwargs.get("mask")
    if mask is not None:
        return "model.tree_forward"
    return "model.prefill" if cache.length == 0 else "model.decode"


# (owner, attribute, span name); a name starting with "nn." is attributed to
# the enclosing model or drafter span, and a callable name is chosen per call.
SPAN_TARGETS = (
    (bench, "ar_generate", "engine.generate"),
    (bench, "speculative_generate", "engine.generate"),
    (model.TargetModel, "forward", _forward_kind),
    (model.TargetModel, "forward_batch", "model.forward_batch"),
    (engine, "sample", "model.sample"),
    (nn.SelfAttention, "__call__", "nn.attention"),
    (nn.FeedForward, "__call__", "nn.ffn"),
    (nn.RMSNorm, "__call__", "nn.norm"),
    (drafter.Drafter, "draft", "drafter.draft"),
    (drafter.Drafter, "adapt", "drafter.adapt"),
    (drafter.Drafter, "auto_embed", "drafter.auto_embed"),
    (drafter.Drafter, "head_logits", "drafter.heads"),
    (drafter.Drafter, "sequence_logits", "drafter.sequence_logits"),
    (drafter, "topk_lists", "drafter.topk"),
    (engine, "expand_tree", "speculation.expand_tree"),
    (engine, "verify", "speculation.verify"),
    (engine, "commit", "speculation.commit"),
    (training, "batch_draft_logits", "training.forward"),
    (training, "compute_losses", "training.loss"),
    (tensor.Tensor, "backward", "training.backward"),
    (training.AdamW, "step", "training.optimizer"),
    (training, "measure_head_accuracy", "training.eval"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (cli, "load_checkpoint", "checkpoint.load"),
)


KV_METHODS = ("extend", "select", "truncate")


def _kv_rows(method: str, layer, args) -> int:
    """Rows of a ``LayerKV`` that a call copies (keys and values each)."""
    if method == "extend":
        return layer.length + args[0].shape[0]
    if method == "select":
        return args[0] + len(args[1])
    return args[0]  # truncate(new_len)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    request: int
    self_time: float


class Tracer:
    """Context manager that installs the wrappers and collects spans and counts.

    Counts (not spans) are kept at ``LayerKV`` copies, as bytes copied per
    owner and per method (``model.kv_bytes``, ``model.kv_bytes.select``), and at
    ``Tensor`` construction, as tensors built and bytes scanned for
    non-finite values; both are computed from array shapes.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[list] = []
        self._drafter_kv: weakref.WeakSet = weakref.WeakSet()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in SPAN_TARGETS:
                self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name))
            for method in KV_METHODS:
                self._patch(nn.LayerKV, method, self._kv_wrapper(method))
            self._patch(drafter.DraftState, "__init__", self._draft_state_wrapper())
            self._patch(tensor.Tensor, "__init__", self._tensor_wrapper(tensor.Tensor.__init__))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _owner(self) -> str:
        for frame in reversed(self._stack):
            if frame[0].startswith(_OWNERS):
                return frame[0].split(".", 1)[0]
        return "nn"

    def _span_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if span.startswith("nn."):
                span = tracer._owner() + span[2:]
            stack, spans = tracer._stack, tracer.spans
            parent = stack[-1][2] if stack else -1
            frame = [span, 0.0, len(spans)]  # name, child time, span index
            spans.append(None)  # filled on exit, so children can name it as parent
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[frame[2]] = Span(span, start, end, parent, tracer.request, duration - frame[1])

        wrapper.__wrapped__ = fn
        return wrapper

    def _kv_wrapper(self, method: str):
        fn = vars(nn.LayerKV)[method]
        tracer = self

        def wrapper(layer, *args):
            row_bytes = layer.k.shape[1] * layer.k.shape[2] * layer.k.itemsize
            copied = 2 * row_bytes * _kv_rows(method, layer, args)
            owner = "drafter" if layer in tracer._drafter_kv else "model"
            tracer.counts[f"{owner}.kv_bytes"] += copied
            tracer.counts[f"{owner}.kv_bytes.{method}"] += copied
            return fn(layer, *args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _draft_state_wrapper(self):
        fn = vars(drafter.DraftState)["__init__"]
        drafter_kv = self._drafter_kv

        def wrapper(state, *args, **kwargs):
            fn(state, *args, **kwargs)
            drafter_kv.update((state.kv1, state.kv2))

        wrapper.__wrapped__ = fn
        return wrapper

    def _tensor_wrapper(self, fn):
        counts = self.counts

        def wrapper(t, *args, **kwargs):
            fn(t, *args, **kwargs)
            counts["tensor.count"] += 1
            counts["tensor.scan_bytes"] += t.data.nbytes

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            agg = out[s.name]
            agg[0] += 1
            agg[1] += s.end - s.start
            agg[2] += s.self_time
        return {k: tuple(v) for k, v in out.items()}
