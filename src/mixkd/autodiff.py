"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is dynamic: every operation records its inputs and a vector-
Jacobian product closure on the output tensor, and ``backward`` walks a
freshly built topological tape.  Inside ``no_grad`` the same ops record
nothing, for forward passes that are never differentiated, and
``backward`` refuses a root that has no graph.  Nothing broadcasts:
``add``, ``sub`` and ``mul`` take two tensors of one shape, ``scale`` is
the one tensor-times-scalar op, and every other combination goes through
an explicit op (``add_bias``, ``gather_rows``, ``mix``, ``embedding``,
...), so shape bugs fail loudly.

Finiteness is checked at the boundaries, not per op.  A tensor built by
``Tensor(...)`` or ``constant(...)`` is checked; an op result is not.
``model.forward_from_embeddings`` checks its logits (and features),
``distill.total_loss`` the loss, ``backward`` every leaf gradient it
wrote and the optimizers every parameter after a step, so every value
that is returned or stored is finite.  An intermediate that overflows
and is then absorbed (say a -inf attention score that the softmax turns
into 0) is no error.  To find the op that first went non-finite, run
the computation again under ``detect_anomaly``: there every op result
and every VJP output is checked, and the error names the op and the
``scope`` path it ran in (``teacher/layers.1.ffn``).

The modes (``no_grad``, ``detect_anomaly``, ``scope``) are context-local:
each is a ``contextvars.ContextVar``, so a mode entered in one thread is
not seen by another, and a worker started in ``contextvars.copy_context()``
inherits the modes of the code that started it.
"""

from __future__ import annotations

import contextvars
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels


class AutodiffError(Exception):
    """Base class for tensor library failures."""


class ShapeError(AutodiffError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(AutodiffError):
    """A NaN or Inf appeared in a tensor value."""


def _check_finite(arr: np.ndarray,
                  message: str = "tensor contains NaN or Inf") -> None:
    """The one finiteness check: every boundary and anomaly mode call it."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(message)


class Tensor:
    """A dense float64 array that can participate in backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "_inputs", "_vjp",
                 "_backward_done")

    def __init__(self, data, requires_grad: bool = False,
                 _inputs: tuple = (), _vjp: Optional[Callable] = None,
                 _unchecked: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # op results, and arrays that cannot hold NaN or Inf (a 0/1 mask),
        # are not checked
        if not _unchecked:
            _check_finite(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._inputs = _inputs
        self._vjp = _vjp
        self._backward_done = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        """A constant copy that stops gradient flow."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)
_anomaly = contextvars.ContextVar("anomaly", default=False)
_scope = contextvars.ContextVar("scope", default="top level")


@contextmanager
def _set_mode(mode: contextvars.ContextVar, value):
    """Set ``mode`` for the block, in the current context only.  Nests;
    the previous value is restored on exit, also when the block raises."""
    token = mode.set(value)
    try:
        yield
    finally:
        mode.reset(token)


def no_grad():
    """Ops inside return leaves with no inputs and no VJP: same values, no
    graph."""
    return _set_mode(_grad_enabled, False)


def detect_anomaly():
    """Check every op result and every VJP output inside; the first
    non-finite one raises ``NonFiniteError("first non-finite: <op> in
    <scope>")`` (``<op> vjp`` for a gradient)."""
    return _set_mode(_anomaly, True)


def _scope_path(name: str) -> str:
    """The path of scope ``name`` entered here: ``outer/name``, or
    ``name`` at the top level."""
    outer = _scope.get()
    return name if outer == "top level" else f"{outer}/{name}"


@contextmanager
def scope(name: str):
    """Name the block that ``detect_anomaly`` reports an op in.  Scopes
    nest as ``outer/inner``, under the scope current where the block is
    entered; the top level adds no prefix."""
    with _set_mode(_scope, _scope_path(name)):
        yield


def _checked_vjp(vjp: Callable, where: str) -> Callable:
    def checked(g):
        grads = vjp(g)
        for pg in grads:
            if pg is not None:
                _check_finite(pg, f"first non-finite: {where}")
        return grads
    return checked


def _result(data: np.ndarray, inputs: Sequence[Tensor],
            vjp: Callable) -> Tensor:
    graph = _grad_enabled.get() and any(t.requires_grad for t in inputs)
    if _anomaly.get():
        op = sys._getframe(1).f_code.co_name  # the op that called us
        where = _scope.get()
        _check_finite(data, f"first non-finite: {op} in {where}")
        if graph:
            vjp = _checked_vjp(vjp, f"{op} vjp in {where}")
    if graph:
        return Tensor(data, requires_grad=True, _inputs=tuple(inputs),
                      _vjp=vjp, _unchecked=True)
    # prune the graph below non-differentiable results (constants) and
    # under no_grad
    return Tensor(data, requires_grad=False, _unchecked=True)


class Tape:
    """Topologically ordered record of all tensors reaching a root."""

    def __init__(self, root: Tensor):
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._inputs:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.nodes = order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``,
    then check that each of those gradients is finite.  A root with no
    graph (no VJP, and not a leaf that requires grad) raises: no gradient
    could reach a leaf from it."""
    if loss.size != 1:
        raise AutodiffError(f"backward root must be scalar, got shape {loss.shape}")
    if loss._vjp is None and not loss.requires_grad:
        raise AutodiffError(
            "backward root has no graph: it was built under no_grad or "
            "from constants only")
    if loss._backward_done:
        raise AutodiffError("backward already ran for this tensor; rebuild the graph")
    loss._backward_done = True

    tape = Tape(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: list[Tensor] = []
    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
                leaves.append(node)
            continue
        input_grads = node._vjp(g)
        for parent, pg in zip(node._inputs, input_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    for node in leaves:
        _check_finite(node.grad, "a leaf gradient contains NaN or Inf")


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def _check_operand(op: str, a: Tensor, b) -> None:
    """``b`` must be a tensor of ``a``'s shape."""
    if not isinstance(b, Tensor):
        raise AutodiffError(f"{op}: unsupported operand type {type(b).__name__}")
    if b.shape != a.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` for two tensors of one shape."""
    _check_operand("add", a, b)
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    """``a - b`` for two tensors of one shape."""
    _check_operand("sub", a, b)
    return _result(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """``a * b`` for two tensors of one shape; a scalar factor is ``scale``."""
    _check_operand("mul", a, b)
    return _result(a.data * b.data, (a, b),
                   lambda g, av=a.data, bv=b.data: (g * bv, g * av))


def scale(a: Tensor, s: float) -> Tensor:
    """``a * s`` for a real scalar ``s``."""
    if not isinstance(s, numbers.Real):
        raise AutodiffError(f"scale: unsupported operand type {type(s).__name__}")
    s = float(s)
    return _result(a.data * s, (a,), lambda g: (g * s,))


def mix(a: Tensor, b: Tensor, lam: np.ndarray) -> Tensor:
    """``a * lam + b * (1 - lam)`` for two tensors of one shape [m, ...]
    and one constant weight per leading row, ``lam`` [m], broadcast over
    the other axes without a copy; the VJP is ``(g * lam, g * (1 - lam))``."""
    lam = np.asarray(lam, dtype=np.float64)
    if a.shape != b.shape or a.data.ndim < 1 or lam.shape != a.shape[:1]:
        raise ShapeError(f"mix: operands {a.shape} and {b.shape}, "
                         f"lam {lam.shape}")
    lam = lam.reshape(lam.shape + (1,) * (a.data.ndim - 1))
    rest = 1.0 - lam
    out = a.data * lam
    out += b.data * rest
    return _result(out, (a, b), lambda g: (g * lam, g * rest))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return _result(a.data.reshape(shape), (a,),
                   lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _result(np.ascontiguousarray(a.data.transpose(axes)), (a,),
                   lambda g: (g.transpose(inv),))


def _check_ids(op: str, ids: np.ndarray, rows: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise AutodiffError(
            f"{op} index out of range for table with {rows} rows")


def _scatter_rows(ids: np.ndarray, g: np.ndarray, rows: int) -> np.ndarray:
    """``np.add.at(zeros((rows,) + g.shape[1:]), ids, g)`` for 1-D ``ids``,
    bitwise: one flat bincount over (row, column) slots adds in input
    order from +0.0, signed zeros too."""
    w = int(np.prod(g.shape[1:]))
    slots = (ids[:, None] * w + np.arange(w)).ravel()
    dt = np.bincount(slots, weights=g.reshape(ids.size, w).ravel(),
                     minlength=rows * w)
    # empty ids give int64 zeros
    return dt.astype(np.float64, copy=False).reshape((rows,) + g.shape[1:])


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add gradient to the table;
    a row may be a vector or any block of trailing axes."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"gather_rows expects 1-D ids, got shape {ids.shape}")
    _check_ids("gather_rows", ids, table.shape[0])
    return _result(table.data[ids], (table,),
                   lambda g, rows=table.shape[0]: (
                       _scatter_rows(ids, g, rows),))


def embedding(tok: Tensor, pos: Tensor, ids: np.ndarray,
              mask: np.ndarray) -> Tensor:
    """``(tok[ids] + pos[:T]) * mask`` for token ids [n,T] and a pad mask
    [n,T] (true = real): token plus position rows [n,T,d], multiplied by
    the 0/1 mask.  A multiply, not a select: a pad position is a zero of
    the sum's sign (-0.0 where the sum is negative).  The VJP masks the
    gradient the same way and scatter-adds it into each table
    (``_scatter_rows``, as ``gather_rows``)."""
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise ShapeError(f"embedding: ids {ids.shape} / mask {mask.shape} "
                         "must be one [n,T] shape")
    n, T = ids.shape
    if (tok.data.ndim != 2 or pos.data.ndim != 2 or tok.shape[1] != pos.shape[1]
            or T > pos.shape[0]):
        raise ShapeError(f"embedding: tables {tok.shape} / {pos.shape} for "
                         f"ids {ids.shape}")
    _check_ids("embedding", ids, tok.shape[0])
    keep = mask[:, :, None].astype(np.float64)  # float: a faster product
    out = tok.data[ids]
    out += pos.data[:T]
    out *= keep

    def vjp(g, rows=(tok.shape[0], pos.shape[0])):
        gm = (g * keep).reshape(n * T, -1)
        return (_scatter_rows(ids.ravel(), gm, rows[0]),
                _scatter_rows(np.tile(np.arange(T), n), gm, rows[1]))

    return _result(out, (tok, pos), vjp)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d]; the bias gradient sums over all leading axes."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: x {x.shape} vs bias {b.shape}")
    lead = tuple(range(x.data.ndim - 1))
    return _result(x.data + b.data, (x, b),
                   lambda g: (g, g.sum(axis=lead)))


def select_index(x: Tensor, index: int) -> Tensor:
    """Slice a single position along axis 1 (e.g. the leading [CLS] slot
    of an [n, T, d] sequence)."""
    data = x.data[:, index]

    def vjp(g, shape=x.shape, index=index):
        dx = np.zeros(shape, dtype=np.float64)
        dx[:, index] = g
        return (dx,)

    return _result(np.ascontiguousarray(data), (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """2-D matrix product, or stacked (batched) product for equal leading dims.

    With ``bias`` [k] this is ``add_bias(matmul(a, b), bias)`` as one op: the
    bias is added in place to the product, and its gradient sums over all
    leading axes.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    if a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul leading dims differ: {a.shape} x {b.shape}")
    if bias is not None and bias.shape != b.shape[-1:]:
        raise ShapeError(f"matmul: bias {bias.shape} vs b {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g, ad=a.data, bd=b.data):
        da = np.matmul(g, bd.swapaxes(-1, -2))
        db = np.matmul(ad.swapaxes(-1, -2), g)
        return (da, db)

    if bias is None:
        return _result(out, (a, b), vjp)
    out += bias.data
    lead = tuple(range(out.ndim - 1))
    return _result(out, (a, b, bias),
                   lambda g: vjp(g) + (g.sum(axis=lead),))


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis; a temperature is ``softmax(scale(x,
    1 / tau))``."""
    if x.data.ndim == 0:
        raise ShapeError("softmax needs at least one axis, got a 0-D tensor")
    p = kernels.softmax_rows(
        np.ascontiguousarray(x.data).reshape(-1, x.shape[-1]))
    p = p.reshape(x.shape)
    return _result(p, (x,), lambda g, p=p: (kernels.softmax_backward(p, g),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance (the
    variance plus ``kernels``' epsilon, 1e-5, under the square root), then
    affine."""
    k = x.shape[-1]
    if gain.shape != (k,) or bias.shape != (k,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} vs last axis {k}")
    out_rows, xhat, inv_std = kernels.layernorm_rows(
        np.ascontiguousarray(x.data.reshape(-1, k)), gain.data, bias.data)

    def vjp(g, xhat=xhat, inv_std=inv_std, gd=gain.data, k=k, shape=x.shape):
        g = g.reshape(-1, k)
        dx = kernels.layernorm_rows_backward(g, xhat, inv_std, gd)
        return (dx.reshape(shape), *kernels.layernorm_sums(g, xhat))

    return _result(out_rows.reshape(x.shape), (x, gain, bias), vjp)


def gelu(x: Tensor) -> Tensor:
    return _result(kernels.gelu_forward(x.data), (x,),
                   lambda g, xd=x.data: (kernels.gelu_backward(xd, g),))


# ---------------------------------------------------------------------------
# losses and reductions
# ---------------------------------------------------------------------------

_LOG_CLAMP = 1e-12


def cross_entropy(probs: Tensor, targets: Tensor) -> Tensor:
    """Mean of -target . log(prob) over rows; accepts soft targets.

    Probabilities below 1e-12 are clamped inside the log so a confident
    wrong prediction yields a large finite loss instead of -inf.
    """
    if probs.shape != targets.shape:
        raise ShapeError(f"cross_entropy: probs {probs.shape} vs targets {targets.shape}")
    if probs.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D inputs, got {probs.shape}")
    t = targets.data
    if (t < -1e-6).any() or np.abs(t.sum(axis=1) - 1.0).max() > 1e-6:
        raise AutodiffError("cross_entropy targets are not on the probability simplex")
    n = probs.shape[0]
    pc = np.maximum(probs.data, _LOG_CLAMP)
    value = -(t * np.log(pc)).sum() / n

    def vjp(g, pc=pc, t=t, n=n, raw=probs.data):
        gp = np.where(raw >= _LOG_CLAMP, -(t / pc) / n, 0.0) * g
        gt = (-np.log(pc) / n) * g
        return (gp, gt)

    return _result(np.array(value), (probs, targets), vjp)


def mse(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} and {b.shape} differ")
    diff = a.data - b.data
    n = a.size
    return _result(np.array((diff * diff).sum() / n), (a, b),
                   lambda g, diff=diff, n=n: (g * 2.0 * diff / n,
                                              g * (-2.0) * diff / n))


def tsum(x: Tensor) -> Tensor:
    return _result(np.array(x.data.sum()), (x,),
                   lambda g, shape=x.shape: (np.broadcast_to(g, shape).copy(),))


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

@dataclass
class FiniteDiffReport:
    max_rel_err: float
    n_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor,
                      h: float = 1e-4, tol: float = 1e-4,
                      max_entries: Optional[int] = None,
                      rng: Optional[np.random.Generator] = None) -> FiniteDiffReport:
    """Compare analytic gradients of a scalar function against central differences.

    Relative error uses max(|analytic|, |numeric|, 1) as denominator so that
    near-zero gradients are judged on absolute error.
    """
    if h <= 0:
        raise AutodiffError("finite_diff_check requires h > 0")
    x.zero_grad()
    out = f(x)
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.zero_grad()

    flat_idx = np.arange(x.size)
    if max_entries is not None and max_entries < x.size:
        gen = rng if rng is not None else np.random.default_rng(0)
        flat_idx = gen.choice(x.size, size=max_entries, replace=False)

    flat = x.data.reshape(-1)
    a_flat = analytic.reshape(-1)
    max_err = 0.0
    for i in flat_idx:
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x).item()
        flat[i] = orig - h
        lo = f(x).item()
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * h)
        denom = max(abs(a_flat[i]), abs(numeric), 1.0)
        max_err = max(max_err, abs(a_flat[i] - numeric) / denom)
    return FiniteDiffReport(max_rel_err=max_err, n_checked=len(flat_idx), tol=tol)
