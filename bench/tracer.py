"""Outside-in span tracing of seqrec's layers.

The tracer replaces a layer's public functions with timing wrappers in
every ``seqrec`` module namespace that holds them, i.e. where callers look
them up (``ag.matmul`` in the encoder, ``augmenter_loss`` imported by name
into the trainer, ...). Nothing inside ``src/`` changes. Spans (name,
start, end, parent) are kept in memory in flat arrays and summarised or
written out after the run; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _first_arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[self.name_id[idx]]] -= 1

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module: str, func: str, span, pre=None, post=None) -> None:
        """Replace `module.func` wherever a seqrec module holds that object.

        `span` is the span name, or a callable (args, kwargs) -> name.
        `pre(tracer, args, kwargs)` runs before the call and
        `post(tracer, args, kwargs, result)` after it, outside the span.
        """
        original = getattr(sys.modules[module], func)
        tracer = self
        name_of = span if callable(span) else (lambda args, kwargs: span)

        if inspect.isgeneratorfunction(original):  # time each item it yields
            def wrapper(*args, **kwargs):
                it = original(*args, **kwargs)
                while True:
                    idx = tracer.open(name_of(args, kwargs))
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if pre is not None:
                    pre(tracer, args, kwargs)
                idx = tracer.open(name_of(args, kwargs))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if post is not None:
                    post(tracer, args, kwargs, result)
                return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "seqrec" and not mod_name.startswith("seqrec."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def unwrap_all(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (summed durations) and self_s."""
        n = len(self.start)
        out: dict[str, dict[str, float]] = {}
        if n == 0:
            return out
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": float(calls[i]), "total_s": float(total[i]),
                         "self_s": float(self_s[i])}
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, name, start, end, parent."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n")


# ---------------------------------------------------------------------------
# The layer map: which functions are wrapped and what each wrapper counts
# ---------------------------------------------------------------------------

AUTOGRAD_OPS = ("embedding_lookup", "concat", "cross_entropy", "softmax", "layer_norm",
                "dropout", "add", "mul", "transpose", "relu", "softplus")


def _matmul_span(args, kwargs):
    b = _first_arg(args, kwargs, 1, "b")
    return "autograd.matmul.weight" if b.data.ndim == 2 else "autograd.matmul.batched"


def _backward_pre(tracer, args, kwargs):
    from seqrec import autograd as ag
    tracer.record_max("autograd.tape_len", ag.tape_size())


def _stack_post(tracer, args, kwargs, result):
    ids = np.asarray(_first_arg(args, kwargs, 3, "ids"))
    tracer.count("encoder.transformer_stack.tokens", float((ids != 0).sum()))
    tracer.count("encoder.transformer_stack.slots", float(ids.size))


def _generator_post(tracer, args, kwargs, result):
    if not tracer.inside("augmenter.generate_augmented_batch"):
        return
    r, m = np.asarray(_first_arg(args, kwargs, 1, "teacher_ids")).shape
    tracer.count("augmenter.decode.steps")
    tracer.count("augmenter.decode.rows_used", r)
    tracer.count("augmenter.decode.rows_computed", r * (m + 1))


def _augment_post(tracer, args, kwargs, result):
    tracer.count("augmenter.generate_augmented_batch.seqs", len(result))


def _score_post(tracer, args, kwargs, result):
    tracer.count("recommender.score_candidates.rows", len(result))


def _save_post(tracer, args, kwargs, result):
    path = _first_arg(args, kwargs, 0, "path")
    tracer.count("checkpoint.save_checkpoint.bytes", os.path.getsize(path))


LAYERS = {
    "encoder": ("seqrec.encoder", ["transformer_stack"]),
    "augmenter": ("seqrec.augmenter", ["augmenter_loss", "restoration_accuracy",
                                       "generate_augmented_batch", "generator_forward"]),
    "recommender": ("seqrec.recommender", ["rec_loss", "sequence_reprs", "score_candidates"]),
    "contrastive": ("seqrec.contrastive", ["batch_contrastive_loss", "triplet_loss"]),
    "optim": ("seqrec.optim", ["adam_step"]),
    "augops": ("seqrec.augops", ["corrupt_sequence", "random_augment"]),
    "data": ("seqrec.data", ["make_batches", "pad_batch", "sample_negatives"]),
    "evaluate": ("seqrec.evaluate", ["evaluate_model", "rank_of_target",
                                     "simulate_noisy_testset"]),
    "trainer": ("seqrec.trainer", ["validation_aug_loss", "make_contrast_views",
                                   "joint_loss"]),
    "checkpoint": ("seqrec.checkpoint", ["save_checkpoint", "load_checkpoint"]),
}

HOOKS = {
    "encoder.transformer_stack": {"post": _stack_post},
    "augmenter.generator_forward": {"post": _generator_post},
    "augmenter.generate_augmented_batch": {"post": _augment_post},
    "recommender.score_candidates": {"post": _score_post},
    "checkpoint.save_checkpoint": {"post": _save_post},
}


def install(tracer: Tracer) -> None:
    """Wrap every layer function of the map; undo with tracer.unwrap_all()."""
    import seqrec.cli  # noqa: F401  (load every module that holds references)

    tracer.wrap("seqrec.autograd", "backward", "autograd.backward", pre=_backward_pre)
    tracer.wrap("seqrec.autograd", "matmul", _matmul_span)
    for op in AUTOGRAD_OPS:
        tracer.wrap("seqrec.autograd", op, f"autograd.{op}")
    for layer, (module, funcs) in LAYERS.items():
        for func in funcs:
            span = f"{layer}.{func}"
            tracer.wrap(module, func, span, **HOOKS.get(span, {}))
