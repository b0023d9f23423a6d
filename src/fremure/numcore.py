"""Dense float64 tensors with reverse-mode autodiff, a deterministic RNG and Adam.

Everything downstream (gates, encoders, classification heads, the training
loop) is assembled from the primitives in this module. Three constraints shape
the design:

* all arithmetic is double precision, so central-difference gradient checks
  are meaningful at h ~ 1e-5;
* gradients live on an explicit tape: ``backward()`` adds into the ``.grad``
  of leaves (in training, views of the optimizer's arena) until the caller
  resets them; it never visits a constant, and an op's backward
  computes no gradient for an operand that does not require one;
* every random draw comes from :class:`Rng`, a counter-based generator with a
  fully documented output function, so identical seeds give bit-identical
  streams on any platform.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError

# ---------------------------------------------------------------------------
# gradient mode
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape construction inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense float64 array with an optional gradient slot.

    ``requires_grad`` marks leaves the tape should differentiate; results of
    operations on such tensors carry backward closures. A leaf's ``grad`` is
    ``None`` until ``Adam.zero_grad`` points it at its view of the optimizer's
    arena or the first ``backward()`` reaching it stores a copy; later calls
    add into it in place until reset. An op result's ``grad`` stays ``None``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def backward(self):
        """Backpropagate from a scalar; accumulates into the ``.grad`` slots
        of the leaves that require gradients (the parameters and other
        tensors made with ``requires_grad=True``), in place. Constants are
        never visited, and intermediate results keep ``.grad`` None."""
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss tensor")
        if not self.requires_grad:
            return
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        flow = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad = flow.pop(id(node), None)
            if grad is None:
                continue
            if node._backward is None:
                if node.grad is None:
                    node.grad = grad.copy()
                else:
                    node.grad += grad
                continue
            parent_grads = node._backward(grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                acc = flow.get(id(parent))
                flow[id(parent)] = pgrad if acc is None else acc + pgrad


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents, backward) -> Tensor:
    # op results are float64 arrays already, so skip Tensor.__init__'s asarray
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
    return out


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data - b.data

    def backward(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data / b.data

    def backward(g):
        return (_unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if b.requires_grad else None)

    return _make(out, (a, b), backward)


def neg(a) -> Tensor:
    a = _wrap(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def pow_(a, exponent: float) -> Tensor:
    a = _wrap(a)
    out = a.data ** exponent

    def backward(g):
        return (g * exponent * a.data ** (exponent - 1),)

    return _make(out, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product of operands of two or more axes, with numpy
    broadcasting of the leading (batch) axes."""
    a, b = _wrap(a), _wrap(b)
    out = a.data @ b.data

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def affine(x, w, b=None, act: str | None = None) -> Tensor:
    """x @ w (+ b) in one node, optionally followed by relu (act="relu").

    A 2-D weight (n_in, n_out) maps x of shape (..., n_in) with a 1-D bias.
    A 3-D weight (T, n_in, n_out) carries a leading task axis: x has shape
    (T, ..., n_in), the bias (T, n_out), and slice t of the output is
    x[t] @ w[t] + b[t], so T independent layers run as one batched product.
    The bias gradient sums over every axis but the task axis.
    """
    x, w = _wrap(x), _wrap(w)
    n_in, n_out = w.data.shape[-2:]
    lead = w.data.shape[:-2]            # () for one layer, (T,) for a stack
    if lead:
        out = x.data.reshape(lead + (-1, n_in)) @ w.data
        if b is not None:
            out += b.data[:, None, :]
        out = out.reshape(x.data.shape[:-1] + (n_out,))
    else:
        out = x.data @ w.data
        if b is not None:
            out += b.data
    if act is not None:
        if act != "relu":
            raise ContractError(f"unsupported affine activation '{act}'")
        mask = out > 0
        out = out * mask

    def backward(g):
        if act is not None:
            g = g * mask
        x2 = x.data.reshape(lead + (-1, n_in))
        g2 = g.reshape(lead + (-1, n_out))
        gx = (g2 @ np.swapaxes(w.data, -1, -2)).reshape(x.data.shape) \
            if x.requires_grad else None
        gw = np.swapaxes(x2, -1, -2) @ g2
        if b is None:
            return gx, gw
        return gx, gw, g2.sum(axis=-2)

    parents = (x, w) if b is None else (x, w, _wrap(b))
    return _make(out, parents, backward)


def stack(tensors, shape=None) -> Tensor:
    """Stack tensors along a new leading axis.

    Without `shape` every tensor must have the same shape (numpy rejects
    ragged input). With it, tensor i is zero-padded at the end of each axis
    up to `shape` (it fills out[i, :n0, :n1, ...]). The backward pass hands
    each tensor the gradient of its own unpadded slot; padding receives none.
    """
    if shape is None:
        return _make(np.array([t.data for t in tensors]), tensors, tuple)
    out = np.zeros((len(tensors),) + tuple(shape))
    slots = [(i,) + tuple(map(slice, t.data.shape)) for i, t in enumerate(tensors)]
    for slot, t in zip(slots, tensors):
        out[slot] = t.data

    def backward(g):
        return tuple(g[slot] for slot in slots)

    return _make(out, tensors, backward)


def exp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = _wrap(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    a, b = _wrap(a), _wrap(b)
    out = np.maximum(a.data, b.data)
    mask = a.data >= b.data

    def backward(g):
        return (_unbroadcast(g * mask, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * ~mask, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), backward)


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    """Logistic function, computed on a sign-split branch so no exp overflows."""
    a = _wrap(a)
    out = _sigmoid_np(a.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward)


_SIG_LO = np.finfo(np.float64).tiny
_SIG_HI = np.nextafter(1.0, 0.0)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    # e = exp(-|x|) never overflows; x >= 0 takes 1 / (1 + e^-x) and x < 0
    # takes e^x / (1 + e^x), the same values the sign split would give
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    # clamp saturated values back into the open interval so downstream
    # logs and complements stay finite
    return out.clip(_SIG_LO, _SIG_HI)


def softplus(a) -> Tensor:
    """log(1 + exp(x)) without overflow; gradient is the sigmoid."""
    a = _wrap(a)
    out = np.logaddexp(0.0, a.data)

    def backward(g):
        return (g * _sigmoid_np(a.data),)

    return _make(out, (a,), backward)


def sum_(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), backward)


def mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = a.data.mean(axis=axis)
    count = a.data.size / out.size

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return _make(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    out = np.transpose(a.data, axes)
    inverse = np.argsort(axes)
    return _make(out, (a,), lambda g: (np.transpose(g, inverse),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), backward)


def _is_basic(index) -> bool:
    """True for an index of ints, slices, None and Ellipsis only: numpy's
    basic indexing, which never selects an element twice."""
    parts = index if type(index) is tuple else (index,)
    return all(p is None or p is Ellipsis or type(p) in (int, slice)
               or isinstance(p, np.integer) for p in parts)


def getitem(a, index) -> Tensor:
    """a[index]. The backward pass assigns the gradient into zeros for a
    basic index, and accumulates it with ``np.add.at`` for index arrays,
    which may pick an element more than once."""
    a = _wrap(a)
    out = a.data[index]
    basic = _is_basic(index)

    def backward(g):
        ga = np.zeros_like(a.data)
        if basic:
            ga[index] = g
        else:
            np.add.at(ga, index, g)
        return (ga,)

    return _make(out, (a,), backward)


# operator sugar on Tensor
Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = lambda self, other: div(self, other)
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__pow__ = lambda self, exponent: pow_(self, exponent)
Tensor.__matmul__ = lambda self, other: matmul(self, other)
Tensor.__getitem__ = lambda self, index: getitem(self, index)
Tensor.sum = lambda self, axis=None: sum_(self, axis)
Tensor.mean = lambda self, axis=None: mean(self, axis)
Tensor.reshape = lambda self, shape: reshape(self, shape)
Tensor.transpose = lambda self, axes: transpose(self, axes)


# ---------------------------------------------------------------------------
# stable composites
# ---------------------------------------------------------------------------

def _axis_extent(data: np.ndarray, axis: int) -> int:
    if not -data.ndim <= axis < data.ndim:
        raise ContractError(f"axis {axis} out of range for ndim {data.ndim}")
    return data.shape[axis]


def softmax(a) -> Tensor:
    """Softmax along the last axis with max subtraction.

    The shift is treated as a constant: softmax is shift invariant, so the
    gradient is unchanged and exact. Fused into one tape node with the
    analytic Jacobian-vector product.
    """
    a = _wrap(a)
    if _axis_extent(a.data, -1) < 1:
        raise ContractError("softmax axis must have extent >= 1")
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return _make(out, (a,), backward)


def log_softmax(a) -> Tensor:
    """Log-softmax along the last axis, shifted by the max."""
    a = _wrap(a)
    if _axis_extent(a.data, -1) < 1:
        raise ContractError("log_softmax axis must have extent >= 1")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    soft = np.exp(out)

    def backward(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _make(out, (a,), backward)


def log_sum_exp(a, axis: int) -> Tensor:
    """log(sum(exp(x))) along `axis`, which the result drops, shifted by the
    max so nothing overflows."""
    a = _wrap(a)
    if _axis_extent(a.data, axis) < 1:
        raise ContractError("log_sum_exp axis must have extent >= 1")
    shift = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - shift)
    total = e.sum(axis=axis, keepdims=True)
    out = np.squeeze(np.log(total) + shift, axis=axis)
    soft = e / total

    def backward(g):
        return (np.expand_dims(g, axis) * soft,)

    return _make(out, (a,), backward)


# added to the variance in layer_norm, so a constant row normalizes to zeros
LN_EPS = 1e-5


def layer_norm(a, residual=None) -> Tensor:
    """Parameter-free normalization over the last axis: zero mean, unit variance.

    No learnable scale or shift. For output y and incoming gradient g, the
    input gradient is inv_std * (g - mean(g) - y * mean(g * y)), the exact
    Jacobian-vector product of the fused form. When `residual` is given the
    node normalizes a + residual and routes the same gradient to both.
    """
    a = _wrap(a)
    x = a.data if residual is None else a.data + residual.data
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ContractError("layer_norm needs a last axis of extent >= 1")
    n = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / n
    # second centering pass removes the rounding residue left by the first
    # when the row magnitude dwarfs its spread; analytically a no-op, so the
    # gradient formula below is unaffected
    centered -= centered.sum(axis=-1, keepdims=True) / n
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    out = centered * inv

    def backward(g):
        gm = g.sum(axis=-1, keepdims=True) / n
        gy = (g * out).sum(axis=-1, keepdims=True) / n
        gin = inv * (g - gm - out * gy)
        return (gin,) if residual is None else (gin, gin)

    parents = (a,) if residual is None else (a, residual)
    return _make(out, parents, backward)


def split_heads(t, h: int) -> Tensor:
    """(..., n, h*dh) -> (..., h, n, dh): reshape plus axis swap in one node."""
    t = _wrap(t)
    if t.data.ndim < 2 or t.data.shape[-1] % h != 0:
        raise ContractError("split_heads needs (..., n, d) with h dividing d")
    shape = t.data.shape
    dh = shape[-1] // h
    out = np.swapaxes(t.data.reshape(shape[:-1] + (h, dh)), -3, -2)

    def backward(g):
        return (np.swapaxes(g, -3, -2).reshape(shape),)

    return _make(out, (t,), backward)


def merge_heads(t) -> Tensor:
    """(..., h, n, dh) -> (..., n, h*dh): inverse of split_heads."""
    t = _wrap(t)
    if t.data.ndim < 3:
        raise ContractError("merge_heads needs (..., h, n, dh)")
    h, n, dh = t.data.shape[-3:]
    out_shape = t.data.shape[:-3] + (n, h * dh)
    out = np.swapaxes(t.data, -3, -2).reshape(out_shape)

    def backward(g):
        return (np.swapaxes(g.reshape(g.shape[:-1] + (h, dh)), -3, -2),)

    return _make(out, (t,), backward)


def attention(q, k, v, scale: float) -> Tensor:
    """softmax(q @ k^T * scale, last axis) @ v as one node.

    q, k, v: (..., n, dh) with identical shapes; rows attend within the last
    two axes only, leading axes are independent. The softmax shift is exact
    (shift invariance), and the backward pass reuses the stored attention
    matrix, so gradients are analytic rather than composed from pieces.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if not (q.data.shape == k.data.shape == v.data.shape) or q.data.ndim < 2:
        raise ContractError("attention expects three equally shaped (..., n, dh) tensors")
    scores = (q.data @ np.swapaxes(k.data, -1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    out = att @ v.data

    def backward(g):
        gv = np.swapaxes(att, -1, -2) @ g
        gatt = g @ np.swapaxes(v.data, -1, -2)
        gs = (gatt - (gatt * att).sum(axis=-1, keepdims=True)) * att * scale
        gq = gs @ k.data
        gk = np.swapaxes(gs, -1, -2) @ q.data
        return gq, gk, gv

    return _make(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# modules and parameters
# ---------------------------------------------------------------------------

class Module:
    """Base class for parameterized components.

    ``parameters()`` walks instance attributes (tensors with requires_grad,
    nested modules, and lists/dicts of modules) and returns a flat
    ``{path: Tensor}`` dict in attribute insertion order, which is what the
    optimizer and the checkpoint format key on.
    """

    def parameters(self) -> dict:
        out = {}
        for name, value in vars(self).items():
            self._collect(name, value, out)
        return out

    def _collect(self, prefix, value, out):
        if isinstance(value, Tensor):
            if value.requires_grad:
                out[prefix] = value
        elif isinstance(value, Module):
            for sub, p in value.parameters().items():
                out[f"{prefix}.{sub}"] = p
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                self._collect(f"{prefix}.{i}", item, out)
        elif isinstance(value, dict):
            for key, item in value.items():
                self._collect(f"{prefix}.{key}", item, out)

    def zero_grad(self):
        for p in self.parameters().values():
            p.grad = None


class Linear(Module):
    """Affine map x @ w + b with uniform Glorot-style init; bias optional."""

    def __init__(self, n_in: int, n_out: int, rng: "Rng", bias: bool = True):
        scale = math.sqrt(6.0 / (n_in + n_out))
        self.w = Tensor(rng.uniform_range(-scale, scale, (n_in, n_out)), requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True) if bias else None

    def __call__(self, x) -> Tensor:
        return affine(x, self.w, self.b)


# ---------------------------------------------------------------------------
# deterministic random generator
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z) -> np.ndarray:
    """SplitMix64 output function on uint64 arrays (wraps mod 2^64)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.uint64)).copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def uniform_from_raw(raw: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1] from raw 64-bit draws: ``((raw >> 11) + 1) * 2**-53``."""
    return ((raw >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from a flat, even-length array of uniforms: each
    consecutive pair (u1, u2) gives ``r*cos(2 pi u2)`` then ``r*sin(2 pi u2)``
    with ``r = sqrt(-2 ln u1)``. Callers drawing in bulk pass the same flat
    layout as ``Rng.normals`` does, so the same numpy loops run on each side."""
    u1, u2 = u[0::2], u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(u.size)
    out[0::2] = radius * np.cos(2.0 * np.pi * u2)
    out[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return out


def categorical_from_uniforms(pmf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Class indices for uniforms ``u`` by inverse CDF: the first class whose
    cumulative probability reaches u, clamped to the last class."""
    cdf = np.cumsum(np.asarray(pmf, dtype=np.float64))
    idx = np.searchsorted(cdf, u, side="left")
    return np.minimum(idx, len(cdf) - 1).astype(np.int64)


class Rng:
    """Counter-based deterministic generator (SplitMix64).

    Output function, fixed for reproducibility across implementations:

    * raw stream:      ``out_i = mix64(seed + i * GOLDEN)`` for i = 1, 2, ...
      where mix64 is the SplitMix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15;
    * uniforms:        ``u = ((raw >> 11) + 1) * 2**-53`` in (0, 1];
    * standard normal: Box-Muller on consecutive uniform pairs (u1, u2),
      ``r = sqrt(-2 ln u1)``, emitting ``r*cos(2 pi u2)`` then
      ``r*sin(2 pi u2)``; a trailing odd draw discards the sine term;
    * spawn(key):      child seed = ``mix64(seed + (key + 1) * GOLDEN)``,
      giving independent streams per (seed, key).
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = self.seed

    def raw(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._counter) + idx * np.uint64(_GOLDEN)
        self._counter = (self._counter + n * _GOLDEN) & _MASK64
        return _mix64(z)

    def uniforms(self, n: int) -> np.ndarray:
        return uniform_from_raw(self.raw(n))

    def uniform_range(self, lo: float, hi: float, shape) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        return (lo + (hi - lo) * self.uniforms(n)).reshape(shape)

    def normals(self, shape) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        return box_muller(self.uniforms(2 * pairs))[:n].reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        # Fisher-Yates driven by the raw stream.
        order = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = int(self.raw(1)[0] % np.uint64(i + 1))
            order[i], order[j] = order[j], order[i]
        return order

    def spawn(self, key: int) -> "Rng":
        # _mix64 on one Python int: the same bits without a numpy round trip
        z = (self.seed + (key + 1) * _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return Rng(z ^ (z >> 31))


# ---------------------------------------------------------------------------
# Adam optimizer
# ---------------------------------------------------------------------------

def keep_freed_memory():
    """Have glibc keep the heap memory this process frees. Each training step
    frees a tape of a few MB; glibc's default returns a freed heap top to the
    system, and the next step faults it in again. Both thresholds start at
    the ceiling of glibc's own adaptive rule. A no-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)           # M_TRIM_THRESHOLD


# elements per Adam update chunk: small enough that the chunk's temporaries
# stay in cache, large enough that per-chunk dispatch is negligible
ADAM_CHUNK = 1 << 14


class Adam:
    """Bias-corrected Adam over a named parameter dict, on one flat arena.

    Update per step t: m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2,
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
    A parameter the backward pass never reaches has g = 0.

    Construction copies every parameter into one float64 buffer and rebinds
    each ``p.data`` to a view of it; ``m``, ``v`` and the gradients are flat
    buffers in the same layout. ``zero_grad`` zeroes the gradients and points
    each ``p.grad`` at its view, which ``Tensor.backward`` adds into, so
    ``step`` copies no gradient. It runs the update over ``ADAM_CHUNK``
    elements at a time with two preallocated temporaries. Every operation is
    elementwise, so the result is bitwise that of a per-tensor update. A
    parameter whose ``data`` or ``grad`` is rebound afterwards has left the
    arena, and ``step`` refuses to run. Construction calls
    ``keep_freed_memory``, for the tape each step builds and frees.
    """

    def __init__(self, params: dict, lr: float, beta1: float, beta2: float,
                 eps: float):
        keep_freed_memory()
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        owner = {}
        for key, p in params.items():
            if owner.setdefault(id(p), key) != key:
                raise ContractError(f"parameters '{owner[id(p)]}' and '{key}' "
                                    "are the same tensor")
        size = sum(p.data.size for p in params.values())
        self.flat = np.empty(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._grad = np.zeros(size)
        self._slots = []         # (key, parameter, its view, its gradient's view)
        start = 0
        for key, p in params.items():
            stop = start + p.data.size
            view = self.flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._slots.append((key, p, view, self._grad[start:stop].reshape(view.shape)))
            start = stop
        chunk = min(ADAM_CHUNK, size)
        self._tmp = (np.empty(chunk), np.empty(chunk))

    def step(self):
        for key, p, view, gview in self._slots:
            if p.data is not view:
                raise ContractError(f"parameter '{key}' was rebound after the "
                                    "optimizer was built")
            if p.grad is not gview:
                raise ContractError(f"the gradient of '{key}' is not its view of "
                                    "the optimizer's arena (zero_grad first)")
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for lo in range(0, self.flat.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, self.flat.size)
            p, g = self.flat[lo:hi], self._grad[lo:hi]
            m, v = self.m[lo:hi], self.v[lo:hi]
            t1, t2 = self._tmp[0][:hi - lo], self._tmp[1][:hi - lo]
            m *= b1
            np.multiply(g, 1.0 - b1, out=t1)
            m += t1
            v *= b2
            np.multiply(g, g, out=t1)
            t1 *= 1.0 - b2
            v += t1
            np.divide(m, bc1, out=t1)
            t1 *= lr
            np.divide(v, bc2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += eps
            t1 /= t2
            p -= t1

    def zero_grad(self):
        self._grad.fill(0.0)
        for _, p, _, gview in self._slots:
            p.grad = gview
