"""Span tracer that times mixkd's layers from outside the program.

``Tracer.install`` replaces the public functions of ``data``, ``mixup``,
``model``, ``autodiff``, ``kernels``, ``distill``, ``evaluation`` and
``bounds`` with wrappers that record a span (name, start, end, parent
span, step id) around each call, in every mixkd module that holds a
reference to them; ``uninstall`` puts the originals back.  The wrappers
pass arguments and results through untouched, so the arithmetic of a
traced run is the arithmetic of an untraced one.  Spans stay in memory
until ``save``.

VJP time is taken by wrapping the ``_vjp`` closure of each tensor an op
returns.  Self time is a span's duration minus the durations of its
direct children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

OPS = ("matmul", "softmax", "layer_norm", "gelu", "add_bias", "add", "mul",
       "scale", "transpose", "reshape", "gather_rows", "select_index",
       "cross_entropy", "mse")
KERNELS = ("gelu_forward", "gelu_backward", "softmax_rows", "layernorm_rows")
LOSSES = ("loss_mle", "loss_sm", "loss_tmkd")
FORWARDS = ("model.forward", "model.student_forward", "model.teacher_forward")
ITER = "bench.iter"


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


class _Span:
    __slots__ = ("tracer", "idx", "i")

    def __init__(self, tracer, idx):
        self.tracer, self.idx = tracer, idx

    def __enter__(self):
        self.i = self.tracer._open(self.idx)

    def __exit__(self, *exc):
        self.tracer._close(self.i)


class Tracer:
    def __init__(self, roles: dict):
        # id(ModelParams) -> "teacher" | "student": tells the frozen
        # teacher's forward passes from the student's
        self.roles = roles
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.step_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.step = -1
        self.counters: Counter = Counter()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, idx: int) -> int:
        i = len(self.end)
        self.name_idx.append(idx)
        self.parent.append(self._stack[-1])
        self.step_ids.append(self.step)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, self._id(name))

    def _timed(self, name: str, fn, after=None):
        idx = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # -- installing the wrappers -------------------------------------------

    def _patch_function(self, module, attr: str, wrapper) -> None:
        """Swap ``module.attr`` for ``wrapper`` wherever a mixkd module
        imported it by name."""
        orig = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name != "mixkd" and not name.startswith("mixkd."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from mixkd import (autodiff, bounds, data, distill, evaluation,
                           kernels, mixup, model)

        fn = self._patch_function
        fn(data, "make_batch", self._timed("data.make_batch", data.make_batch))
        fn(mixup, "make_pairs", self._timed(
            "mixup.make_pairs", mixup.make_pairs,
            lambda args, out: self.counters.update({"specs": len(out)})))
        fn(mixup, "materialize",
           self._timed("mixup.materialize", mixup.materialize))
        fn(model, "embed_batch", self._timed("model.embed", model.embed_batch))
        fn(model, "forward_from_embeddings",
           self._forward(model.forward_from_embeddings))
        for op in OPS:
            fn(autodiff, op, self._op(op, getattr(autodiff, op)))
        fn(autodiff, "backward",
           self._timed("autodiff.backward", autodiff.backward))
        fn(autodiff, "_check_finite",
           self._timed("autodiff.check_finite", autodiff._check_finite))
        self._patch_method(autodiff.Tensor, "__init__", self._timed(
            "autodiff.tensor_init", autodiff.Tensor.__init__))
        self._patch_method(autodiff.Tape, "__init__", self._tape(
            autodiff.Tape.__init__))
        for k in KERNELS:
            fn(kernels, k, self._timed(
                f"kernels.{k}", getattr(kernels, k),
                lambda args, out, k=k: self.counters.update(
                    {f"bytes.{k}": _nbytes(args) + _nbytes(out)})))
        fn(distill, "total_loss",
           self._timed("distill.total_loss", distill.total_loss))
        for loss in LOSSES:
            fn(distill, loss, self._timed(f"distill.{loss}",
                                          getattr(distill, loss)))
        self._patch_method(distill.Adam, "step", self._timed(
            "distill.optimizer", distill.Adam.step))
        fn(evaluation, "evaluate",
           self._timed("evaluation.evaluate", evaluation.evaluate))
        self._patch_method(bounds.EnumerableTestbed, "sample", self._timed(
            "bounds.sample", bounds.EnumerableTestbed.sample))
        self._patch_method(bounds.ThresholdScorerClass, "loss_matrix",
                           self._timed("bounds.loss_matrix",
                                       bounds.ThresholdScorerClass.loss_matrix))
        fn(bounds, "population_risks",
           self._timed("bounds.population_risks", bounds.population_risks))
        fn(bounds, "empirical_gap_experiment",
           self._timed("bounds.experiment", bounds.empirical_gap_experiment))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _op(self, op: str, fn):
        vjp_name = f"autodiff.vjp.{op}"

        def time_vjp(args, out):
            if out._vjp is not None:
                out._vjp = self._timed(vjp_name, out._vjp)
        return self._timed(f"autodiff.fwd.{op}", fn, time_vjp)

    def _forward(self, fn):
        idx = {None: self._id("model.forward"),
               "student": self._id("model.student_forward"),
               "teacher": self._id("model.teacher_forward")}

        @functools.wraps(fn)
        def wrapper(params, *args, **kwargs):
            i = self._open(idx[self.roles.get(id(params))])
            try:
                return fn(params, *args, **kwargs)
            finally:
                self._close(i)
        return wrapper

    def _tape(self, init):
        @functools.wraps(init)
        def wrapper(tape, root):
            init(tape, root)
            self.counters["tape_nodes"] += len(tape.nodes)
        return wrapper

    # -- results -----------------------------------------------------------

    def _arrays(self):
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        idx = np.frombuffer(self.name_idx, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        return dur, idx, parent

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive seconds, self seconds, span count)."""
        dur, idx, parent = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        m = len(self.names)
        total = np.bincount(idx, weights=dur, minlength=m)
        own = np.bincount(idx, weights=dur - child, minlength=m)
        count = np.bincount(idx, minlength=m)
        return {name: (float(total[k]), float(own[k]), int(count[k]))
                for k, name in enumerate(self.names)}

    def save(self, path) -> None:
        dur, idx, parent = self._arrays()
        np.savez(path, names=np.array(json.dumps(self.names)), name_idx=idx,
                 parent=parent, step=np.frombuffer(self.step_ids, dtype=np.intc),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def layer_metrics(tracer: Tracer, units: int, training: bool) -> dict:
    """Per-layer metrics as {name: (value, unit)}, each per step, batch or
    trial (``units`` of them in the traced phase)."""
    t = tracer.totals()
    c = tracer.counters

    def ms(name):
        return t.get(name, (0.0, 0.0, 0))[0] * 1e3 / units

    def self_ms(name):
        return t.get(name, (0.0, 0.0, 0))[1] * 1e3 / units

    def calls(name):
        return t.get(name, (0.0, 0.0, 0))[2] / units

    def share(part_ms):
        return part_ms / it if training and it > 0 else 0.0

    it = ms(ITER)
    tensors = calls("autodiff.tensor_init")
    out = {
        "data.collate.ms": (ms("data.collate"), "ms"),
        "data.make_batch.ms": (ms("data.make_batch"), "ms"),
        "mixup.make_pairs.ms": (ms("mixup.make_pairs"), "ms"),
        "mixup.make_pairs.specs": (c["specs"] / units, "count"),
        "mixup.materialize.ms": (ms("mixup.materialize"), "ms"),
        "model.embed.ms": (ms("model.embed"), "ms"),
        "model.embed.calls": (calls("model.embed"), "count"),
        "model.student_forward.ms": (ms("model.student_forward"), "ms"),
        "model.teacher_forward.ms": (ms("model.teacher_forward"), "ms"),
        "model.forward.ms": (sum(ms(f) for f in FORWARDS), "ms"),
        "autodiff.tensors": (tensors, "count"),
        "autodiff.tensor_init.ms": (ms("autodiff.tensor_init"), "ms"),
        "autodiff.check_finite.ms": (ms("autodiff.check_finite"), "ms"),
        "autodiff.tape_nodes": (c["tape_nodes"] / units, "count"),
        "autodiff.graph_useful_ratio": (
            c["tape_nodes"] / units / tensors if tensors else 0.0, "ratio"),
        "autodiff.backward.ms": (ms("autodiff.backward"), "ms"),
        "autodiff.backward.self_ms": (self_ms("autodiff.backward"), "ms"),
    }
    for op in OPS:
        out[f"autodiff.fwd.{op}.ms"] = (ms(f"autodiff.fwd.{op}"), "ms")
        out[f"autodiff.vjp.{op}.ms"] = (ms(f"autodiff.vjp.{op}"), "ms")
    for k in KERNELS:
        out[f"kernels.{k}.ms"] = (ms(f"kernels.{k}"), "ms")
        out[f"kernels.{k}.computed_mb"] = (c[f"bytes.{k}"] / 1e6 / units, "MB")
    out["kernels.share"] = (sum(ms(f"kernels.{k}") for k in KERNELS) / it
                            if it > 0 else 0.0, "ratio")
    out.update({
        "distill.total_loss.ms": (ms("distill.total_loss"), "ms"),
        "distill.losses.ms": (sum(ms(f"distill.{x}") for x in LOSSES), "ms"),
        "distill.optimizer.ms": (ms("distill.optimizer"), "ms"),
        "distill.step.data_share": (share(ms("data.collate")), "ratio"),
        "distill.step.forward_share": (share(ms("distill.total_loss")), "ratio"),
        "distill.step.backward_share": (share(ms("autodiff.backward")), "ratio"),
        "distill.step.optimizer_share": (share(ms("distill.optimizer")), "ratio"),
        "evaluation.evaluate.self_ms": (self_ms("evaluation.evaluate"), "ms"),
        "bounds.sample.ms": (ms("bounds.sample"), "ms"),
        "bounds.loss_matrix.ms": (ms("bounds.loss_matrix"), "ms"),
        "bounds.population_risks.ms": (ms("bounds.population_risks"), "ms"),
        "bounds.experiment.self_ms": (self_ms("bounds.experiment"), "ms"),
        "trace.unit_ms": (it, "ms"),
    })
    return out


def top_self(tracer: Tracer, units: int, n: int = 8) -> list[tuple[str, float]]:
    """The n span names with the largest self time, in ms per unit."""
    rows = [(name, own * 1e3 / units) for name, (_, own, _) in
            tracer.totals().items() if name != ITER]
    return sorted(rows, key=lambda r: -r[1])[:n]
