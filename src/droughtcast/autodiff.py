"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a ``numpy`` array plus an optional tape entry
(parent references and a backward closure).  Every operation in this module
records the minimal information needed to push gradients back to its
inputs; :func:`backward` replays the tape in reverse topological order and
accumulates into ``Tensor.grad``.  The tape is per-forward-pass: ``backward``
releases parent references afterwards, so graphs are not retained across
steps and higher-order derivatives are not supported.

Binary elementwise ops take two tensors of equal shape, or a tensor and
then a 1-D vector that matches its trailing axis (bias addition).
Anything else raises ``ShapeError``.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptySequenceError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "RngState",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "matmul",
    "transpose",
    "reshape",
    "softmax",
    "weighted_sum",
    "lstm",
    "concat",
    "slice_tensor",
    "gather_rows",
    "dropout",
    "sum_all",
    "mean_all",
    "backward",
    "no_grad",
    "grad_check",
    "GradCheckReport",
]


class Tensor:
    """A float64 array that can participate in a differentiation tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


_recording = True  # cleared inside ``no_grad``


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: results carry no parents, so an
    inference pass keeps no activations for a backward pass.  The previous
    state is restored on exit, also when the block raises."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Invert broadcasting by summing gradient over the leading axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def _check_broadcast(a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape:
        return
    # a trailing 1-D vector over a 2-D (or higher) tensor
    if b.data.ndim == 1 and a.data.ndim >= 2 and a.shape[-1] == b.shape[0]:
        return
    raise ShapeError(f"shapes {a.shape} and {b.shape} do not broadcast")


def _binary(a: Tensor, b: Tensor, fwd, bwd_a, bwd_b) -> Tensor:
    _check_broadcast(a, b)
    out_data = fwd(a.data, b.data)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _sum_to_shape(bwd_a(g, a.data, b.data), a.shape))
        if b.requires_grad:
            _accumulate(b, _sum_to_shape(bwd_b(g, a.data, b.data), b.shape))

    return _result(out_data, (a, b), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _result(a.data * c, (a,), _bw)


def relu(a: Tensor) -> Tensor:
    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0.0))

    return _result(np.maximum(a.data, 0.0), (a,), _bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), _bw)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute the axes as ``np.transpose`` does (reversed by default)."""
    inverse = None if axes is None else tuple(np.argsort(axes))

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g.transpose(inverse))

    return _result(a.data.transpose(axes).copy(), (a,), _bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    new = a.data.reshape(shape)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.shape))

    return _result(new.copy(), (a,), _bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, computed with max-subtraction for stability."""
    if np.isnan(a.data).any():
        raise NumericError("softmax received NaN input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out_data = ex / ex.sum(axis=axis, keepdims=True)

    def _bw(g):
        if a.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            _accumulate(a, out_data * (g - inner))

    return _result(out_data, (a,), _bw)


def weighted_sum(weights: Tensor, values: Tensor) -> Tensor:
    """Per-row weighted sum over the middle axis: ``(B, T)`` weights and
    ``(B, T, h)`` values give ``(B, h)``."""
    if weights.data.ndim != 2 or values.data.ndim != 3 or values.shape[:2] != weights.shape:
        raise ShapeError(f"cannot weight {values.shape} values by {weights.shape}")
    out_data = np.matmul(weights.data[:, None, :], values.data)[:, 0]

    def _bw(g):
        if weights.requires_grad:
            _accumulate(weights, np.matmul(values.data, g[:, :, None])[:, :, 0])
        if values.requires_grad:
            _accumulate(values, weights.data[:, :, None] * g[:, None, :])

    return _result(out_data, (weights, values), _bw)


def lstm(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One LSTM layer over a time-major ``(T, B, in)`` sequence, from zero
    hidden and cell states; returns the hidden state of every step,
    ``(T, B, H)``.

    ``w (in + H, 4H)`` stacks the input rows over the recurrent rows, and
    its columns (like those of ``b (4H,)``) hold the input, forget,
    candidate and output gates in that order.  The input projection of all
    steps is one GEMM before the time loop (Appleyard et al. 2016,
    arXiv:1604.01946).  The layer is one tape node: its backward runs
    backpropagation through time over the saved gate activations and cell
    states, then forms the weight gradient from two GEMMs over all ``T*B``
    rows.
    """
    steps, batch, n_in = x.shape
    hidden = b.shape[0] // 4
    if w.shape != (n_in + hidden, 4 * hidden) or b.shape != (4 * hidden,):
        raise ShapeError(f"LSTM weights {w.shape} and bias {b.shape} do not fit {n_in} inputs")
    w_x, w_h = w.data[:n_in], w.data[n_in:]
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    # gates[t] holds step t's input projection, then its gate activations
    gates = (x.data.reshape(steps * batch, n_in) @ w_x).reshape(steps, batch, 4 * hidden)
    # hs[t + 1] and cs[t + 1] are step t's hidden and cell state; index 0 is the zero start
    hs = np.zeros((steps + 1, batch, hidden))
    cs = np.zeros((steps + 1, batch, hidden))
    for t in range(steps):
        z = gates[t]
        z += hs[t] @ w_h
        z += b.data
        z[:, :g_.start] = _sigmoid(z[:, :g_.start])
        z[:, o_] = _sigmoid(z[:, o_])
        np.tanh(z[:, g_], out=z[:, g_])
        np.add(z[:, f_] * cs[t], z[:, i_] * z[:, g_], out=cs[t + 1])
        np.multiply(z[:, o_], np.tanh(cs[t + 1]), out=hs[t + 1])

    def _bw(grad):
        tanh_c = np.tanh(cs[1:])
        out_gate = gates[:, :, o_]
        dc_from_h = out_gate * (1.0 - tanh_c * tanh_c)
        # local derivatives of the activations, scaled in place into dz
        dz = 1.0 - gates
        dz *= gates
        dz[:, :, g_] = 1.0 - gates[:, :, g_] * gates[:, :, g_]
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            a, d = gates[t], dz[t]
            dh += grad[t]
            dc += dh * dc_from_h[t]
            d[:, i_] *= dc * a[:, g_]
            d[:, f_] *= dc * cs[t]
            d[:, g_] *= dc * a[:, i_]
            d[:, o_] *= dh * tanh_c[t]
            dc *= a[:, f_]
            dh = d @ w_h.T
        dz = dz.reshape(steps * batch, 4 * hidden)
        if w.requires_grad:
            _accumulate(w, np.concatenate([x.data.reshape(steps * batch, n_in).T @ dz,
                                           hs[:-1].reshape(steps * batch, hidden).T @ dz]))
        if b.requires_grad:
            _accumulate(b, dz.sum(axis=0))
        if x.requires_grad:
            _accumulate(x, (dz @ w_x.T).reshape(x.shape))

    return _result(hs[1:], (x, w, b), _bw)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != ndim:
            raise ShapeError("concat rank mismatch")
        for ax in range(ndim):
            if ax != axis % ndim and t.shape[ax] != tensors[0].shape[ax]:
                raise ShapeError(
                    f"concat dim {ax} mismatch: {t.shape} vs {tensors[0].shape}"
                )
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis % ndim] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def _bw(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _accumulate(t, piece)

    return _result(out_data, tuple(tensors), _bw)


def slice_tensor(a: Tensor, ranges: list[tuple[int, int]]) -> Tensor:
    """Slice ``a`` by per-axis ``(start, stop)`` ranges (missing axes kept whole)."""
    if len(ranges) > a.data.ndim:
        raise ShapeError(f"{len(ranges)} ranges for a rank-{a.data.ndim} tensor")
    index = tuple(slice(lo, hi) for lo, hi in ranges)
    out_data = a.data[index].copy()

    def _bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[index] += g

    return _result(out_data, (a,), _bw)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; gradient accumulates only into taken rows."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a 1-D index vector")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"row index out of range for table with {a.shape[0]} rows")
    out_data = a.data[idx]

    def _bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return _result(out_data, (a,), _bw)


def dropout(a: Tensor, p: float, training: bool, rng: "RngState") -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = (rng.random(a.shape) >= p).astype(np.float64) / (1.0 - p)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g * keep)

    return _result(a.data * keep, (a,), _bw)


def sum_all(a: Tensor) -> Tensor:
    def _bw(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, float(g)))

    return _result(np.asarray(a.data.sum()), (a,), _bw)


def mean_all(a: Tensor) -> Tensor:
    if a.data.size == 0:
        raise EmptySequenceError("mean of an empty tensor")
    return scale(sum_all(a), 1.0 / a.data.size)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order walk (graphs can be deeper than the recursion limit)."""
    order: list[Tensor] = []
    visited: set[int] = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every reachable requires_grad tensor.

    ``root`` must be scalar (size 1).  Fan-in accumulates with ``+=``.  The
    tape is released afterwards so intermediate results can be collected.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    order = _topo_order(root)
    if root.requires_grad:
        _accumulate(root, np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node in order:
        node._parents = ()
        node._backward = None


class RngState:
    """Seeded, splittable random stream (PCG64).

    The same seed yields a bit-identical draw sequence; :meth:`split` derives
    an independent child stream from a string or integer key via SHA-256, so
    stream layout does not depend on draw order elsewhere in the program.
    """

    algorithm = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def split(self, key) -> "RngState":
        digest = hashlib.sha256(f"{self.seed}:{key}".encode()).digest()
        return RngState(int.from_bytes(digest[:8], "little"))

    def random(self, shape=None) -> np.ndarray:
        return self._gen.random(shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def normal(self, loc: float, scale_: float, shape=None) -> np.ndarray:
        return self._gen.normal(loc, scale_, shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


@dataclass
class GradCheckReport:
    """Per-parameter maximum relative error of analytic vs numeric gradients."""

    per_input: dict = field(default_factory=dict)
    step: float = 1e-5
    tolerance: float = 1e-4

    @property
    def max_error(self) -> float:
        return max(self.per_input.values(), default=0.0)

    @property
    def failures(self) -> list[str]:
        return [k for k, v in self.per_input.items() if v >= self.tolerance]

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(f, inputs, step: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued ``f`` to central differences.

    ``inputs`` is a dict (or list) of requires_grad tensors that ``f`` reads;
    ``f`` is called with no arguments and must be deterministic across calls
    (dropout disabled or its mask frozen).

    The per-element error is ``|a - n| / max(|a|, |n|, 1e-3)``; the 1e-3
    floor makes the comparison absolute for gradients too small for central
    differences to resolve against float64 roundoff in the loss.
    """
    if not isinstance(inputs, dict):
        inputs = {str(i): t for i, t in enumerate(inputs)}
    for t in inputs.values():
        t.zero_grad()
    out = f()
    backward(out)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in inputs.items()
    }

    report = GradCheckReport(step=step, tolerance=tolerance)
    for name, t in inputs.items():
        numeric = np.zeros_like(t.data)
        for idx in np.ndindex(t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + step
            hi = f().item()
            t.data[idx] = orig - step
            lo = f().item()
            t.data[idx] = orig
            numeric[idx] = (hi - lo) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), 1e-3)
        err = np.abs(analytic[name] - numeric) / denom
        report.per_input[name] = float(err.max()) if err.size else 0.0
    return report
