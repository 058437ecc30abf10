"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is dynamic: every operation records its inputs and a vector-
Jacobian product closure on the output tensor, and ``backward`` walks a
freshly built topological tape.  Inside ``no_grad`` the same ops record
nothing, for forward passes that are never differentiated.  Only
scalar-vs-tensor broadcasting is allowed; everything else goes through
explicit ops (``add_bias``, ``gather_rows``, ...) so shape bugs fail
loudly.

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


@contextmanager
def scope(name: str):
    """Name the block that ``detect_anomaly`` reports an op in.  Scopes
    nest as ``outer/inner``, under the scope current where the block is
    entered; the top level adds no prefix."""
    outer = _scope.get()
    with _set_mode(_scope,
                   name if outer == "top level" else f"{outer}/{name}"):
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
    # prune the graph below non-differentiable results (e.g. a frozen
    # teacher) and under no_grad
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
    then check that each of those gradients is finite."""
    if loss.size != 1:
        raise AutodiffError(f"backward root must be scalar, got shape {loss.shape}")
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
    """``b`` must be a tensor of ``a``'s shape or a real scalar."""
    if isinstance(b, Tensor):
        if b.shape != a.shape:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
    elif not isinstance(b, numbers.Real):
        raise AutodiffError(f"{op}: unsupported operand type {type(b).__name__}")


def add(a: Tensor, b) -> Tensor:
    """``a + b`` for an equal-shape tensor or a real scalar ``b``."""
    _check_operand("add", a, b)
    if isinstance(b, Tensor):
        return _result(a.data + b.data, (a, b), lambda g: (g, g))
    return _result(a.data + float(b), (a,), lambda g: (g,))


def sub(a: Tensor, b) -> Tensor:
    """``a - b`` for an equal-shape tensor or a real scalar ``b``."""
    _check_operand("sub", a, b)
    if isinstance(b, Tensor):
        return _result(a.data - b.data, (a, b), lambda g: (g, -g))
    return _result(a.data - float(b), (a,), lambda g: (g,))


def mul(a: Tensor, b) -> Tensor:
    """``a * b`` for an equal-shape tensor or a real scalar ``b``."""
    _check_operand("mul", a, b)
    if isinstance(b, Tensor):
        return _result(a.data * b.data, (a, b),
                       lambda g, av=a.data, bv=b.data: (g * bv, g * av))
    s = float(b)
    return _result(a.data * s, (a,), lambda g: (g * s,))


def scale(a: Tensor, s: float) -> Tensor:
    """``a * s`` for a real scalar ``s``."""
    if not isinstance(s, numbers.Real):
        raise AutodiffError(f"scale: unsupported operand type {type(s).__name__}")
    s = float(s)
    return _result(a.data * s, (a,), lambda g: (g * s,))


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


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add gradient to the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"gather_rows expects 1-D ids, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise AutodiffError(
            f"gather_rows index out of range for table with {table.shape[0]} rows")

    def vjp(g, ids=ids, rows=table.shape[0]):
        # one flat bincount over (row, column) slots: it adds in input order
        # from +0.0, so it is bitwise np.add.at into zeros, signed zeros too
        w = int(np.prod(g.shape[1:]))
        slots = (ids[:, None] * w + np.arange(w)).ravel()
        dt = np.bincount(slots, weights=g.reshape(ids.size, w).ravel(),
                         minlength=rows * w)
        # empty ids give int64 zeros
        return (dt.astype(np.float64, copy=False).reshape(
            (rows,) + g.shape[1:]),)

    return _result(table.data[ids], (table,), vjp)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d]; the bias gradient sums over all leading axes."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: x {x.shape} vs bias {b.shape}")
    lead = tuple(range(x.data.ndim - 1))
    return _result(x.data + b.data, (x, b),
                   lambda g: (g, g.sum(axis=lead)))


def select_index(x: Tensor, index: int, axis: int = 1) -> Tensor:
    """Slice a single position along ``axis`` (e.g. the leading [CLS] slot)."""
    data = np.take(x.data, index, axis=axis)

    def vjp(g, shape=x.shape, index=index, axis=axis):
        dx = np.zeros(shape, dtype=np.float64)
        sl = [slice(None)] * len(shape)
        sl[axis] = index
        dx[tuple(sl)] = g
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

def softmax(x: Tensor, scale: Optional[float] = None,
            key_bias: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis.

    With ``scale`` and/or ``key_bias`` this is
    ``softmax(x * scale + key_bias)`` as one op, the attention softmax:
    ``key_bias`` [n, k] is a constant row per leading index (e.g. 0 for a
    real key and -1e9 for a pad key), broadcast over the middle axes (heads
    and queries) without a copy.  The scaled, biased scores are one buffer
    and no tensor, and the softmax normalizes in that buffer.
    """
    nd = x.data.ndim
    if nd == 0:
        raise ShapeError("softmax needs at least one axis, got a 0-D tensor")
    z = x.data
    if scale is not None:
        scale = float(scale)
        z = z * scale
    if key_bias is not None:
        kb = np.asarray(key_bias, dtype=np.float64)
        if nd < 2 or kb.shape != (x.shape[0], x.shape[-1]):
            raise ShapeError(f"softmax: key_bias {kb.shape} vs scores {x.shape}")
        kb = kb.reshape(kb.shape[:1] + (1,) * (nd - 2) + kb.shape[1:])
        if z is x.data:
            z = z + kb
        else:
            z += kb
    rows = np.ascontiguousarray(z).reshape(-1, x.shape[-1])
    # z is a fresh buffer when scale or key_bias made it; x.data is not ours
    p = kernels.softmax_rows(rows, out=None if z is x.data else rows)
    p = p.reshape(x.shape)

    def vjp(g, p=p):
        dz = g - (g * p).sum(axis=-1, keepdims=True)
        dz *= p
        if scale is not None:
            dz *= scale
        return (dz,)

    return _result(p, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    k = x.shape[-1]
    if gain.shape != (k,) or bias.shape != (k,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} vs last axis {k}")
    if eps <= 0:
        raise AutodiffError("layer_norm eps must be positive")
    out_rows, xhat, inv_std = kernels.layernorm_rows(
        np.ascontiguousarray(x.data.reshape(-1, k)), gain.data, bias.data, eps)

    def vjp(g, xhat=xhat, inv_std=inv_std, gd=gain.data, k=k, shape=x.shape):
        g2 = g.reshape(-1, k)
        dgain = (g2 * xhat).sum(axis=0)
        dbias = g2.sum(axis=0)
        dxhat = g2 * gd
        dx = inv_std * (dxhat
                        - dxhat.mean(axis=1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
        return (dx.reshape(shape), dgain, dbias)

    return _result(out_rows.reshape(x.shape), (x, gain, bias), vjp)


def gelu(x: Tensor) -> Tensor:
    out = kernels.gelu_forward(np.ascontiguousarray(x.data))
    return _result(out, (x,),
                   lambda g, xd=x.data: (kernels.gelu_backward(
                       np.ascontiguousarray(xd), np.ascontiguousarray(g)),))


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


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            draw_shape: Optional[tuple] = None) -> Tensor:
    """Inverted dropout; identity when rate is 0.

    With ``draw_shape`` the mask is drawn at that shape and ``x`` holds
    the leading rows (along axis -2) of each of its blocks: a layer that
    computes only some query rows then draws the generator stream, and
    uses the masks, of the full layer.
    """
    if rate == 0.0:
        return x
    if draw_shape is None:
        keep = rng.random(x.shape) >= rate
    else:
        keep = rng.random(draw_shape) >= rate
        rows = x.size * keep.shape[-2] // keep.size
        keep = keep[..., :rows, :].reshape(x.shape)
    return mul(x, constant(keep / (1.0 - rate)))


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
