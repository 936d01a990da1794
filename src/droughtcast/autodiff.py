"""Numerical kernels shared by the layers: trainable parameters, the seeded
random stream, the fused LSTM layer and a finite-difference gradient check.

Each layer in :mod:`droughtcast.layers` has a forward that returns its
output plus the cache its backward needs, and
:meth:`droughtcast.model.HybridModel.backward` calls those backwards in
reverse order, filling the ``grad`` of every :class:`Tensor` in place.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "Tensor",
    "RngState",
    "Ring",
    "LstmForward",
    "LstmBackward",
    "grad_check",
    "GradCheckReport",
]


class Tensor:
    """A trainable float64 array plus the gradient of the loss with respect
    to it, of the same shape, which the backward pass writes in place (a
    zero array unless ``grad`` is given)."""

    __slots__ = ("data", "grad")

    def __init__(self, data, grad: np.ndarray | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros(self.data.shape) if grad is None else grad


PROJECT_STEPS = 16  # steps per input-projection GEMM: one block of a layer's tasks


class Ring:
    """The hidden states of an eval-mode layer: two slots of
    ``PROJECT_STEPS + 1`` rows, used by alternate blocks, so the layer holds
    two blocks of states instead of all ``T``.  Row 0 of a slot holds the
    last state of the block before it, and ``ring[start:stop]`` reads the
    block that starts at ``start`` as one contiguous ``(stop - start, B,
    H)`` view, as the layer above reads its input."""

    def __init__(self, steps: int, batch: int, hidden: int):
        self.shape = (steps, batch, hidden)
        self.slots = np.zeros((2, PROJECT_STEPS + 1, batch, hidden))

    def __getitem__(self, block: slice) -> np.ndarray:
        return self.slots[block.start // PROJECT_STEPS % 2, 1:block.stop - block.start + 1]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The slot of the block that starts at ``start``, from the state
        before it to its last state."""
        k = start // PROJECT_STEPS
        rows = self.slots[k % 2, :stop - start + 1]
        if k:
            rows[0] = self.slots[(k - 1) % 2, -1]
        return rows


class LstmForward:
    """One LSTM layer's forward over a time-major ``(T, B, in)`` sequence
    ``x``, from zero hidden and cell states, as tasks for a task graph:
    per block of ``PROJECT_STEPS`` steps :meth:`project` (the block's input
    projection, one GEMM; Appleyard et al. 2016, arXiv:1604.01946) and
    :meth:`step` (the recurrence).

    The constructor makes the halved copies of ``w`` and ``b`` (below),
    allocates every other buffer (uninitialised where the tasks write
    every element) and sets ``states``, where the hidden states go (the
    ``(T, B, H)`` states of every step in training mode, a :class:`Ring`
    in eval mode), and ``cache``, what :class:`LstmBackward` reads
    (``None`` in eval mode); both fill as the blocks run.  Block k's
    projection must run before its step, and the steps in order.  A
    projection reads its rows of ``x`` only when it runs, so ``x`` may be
    the ``states`` of the layer below (a ``Ring`` included) while that
    layer is running.  Training keeps every step's gate
    activations and cell state for the backward, so its projections may
    run ahead of the steps; eval mode reuses one block of gate rows and two
    cell states, so block k's projection must wait for step k - 1.

    ``w (in + H, 4H)`` stacks the input rows over the recurrent rows, and
    its columns (like those of ``b (4H,)``) hold the input, forget,
    candidate and output gates in that order.  Both modes run the same
    GEMMs, so their outputs agree bit for bit (a BLAS may round a row
    differently with the height of the GEMM it is in, so training does not
    project all ``T`` steps at once).

    All four activations of a step are one in-place ``tanh``: σ(z) = ½ +
    ½·tanh(z/2) for the i, f and o gates, whose columns of ``w`` and ``b``
    are halved once per forward, by the constructor; the ``tanh`` is then
    scaled and shifted by ½ (by 1 and 0 for g).  Halving is exact (short of
    subnormals), so the ``tanh`` sees exactly z/2; ±inf gives exactly 1 and
    0, and nothing overflows.
    """

    def __init__(self, x, w: np.ndarray, b: np.ndarray, training: bool):
        steps, batch, n_in = x.shape
        hidden = b.shape[0] // 4
        self.x, self.steps, self.n_in = x, steps, n_in
        self.training = training
        self.scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
        self.shift = 1.0 - self.scale
        # a step's row holds its input projection, then its gate activations
        self.gates = np.empty((steps if training else min(steps, PROJECT_STEPS), batch,
                               4 * hidden))
        # in training hs[t + 1] is step t's hidden state and hs[0] the zero start;
        # cs is indexed the same way modulo its length, so eval cycles through two
        if training:
            self.hs, self.cs = np.empty((2, steps + 1, batch, hidden))
            self.hs[0] = self.cs[0] = 0.0
        else:
            self.hs, self.cs = Ring(steps, batch, hidden), np.zeros((2, batch, hidden))
        self.candidate = np.empty((batch, hidden))  # i * g
        self.w_scaled, self.b_scaled = w * self.scale, b * self.scale
        self.states = self.hs[1:] if training else self.hs
        self.cache = (x, w, self.gates, self.hs, self.cs) if training else None

    def _block(self, start: int) -> tuple[slice, np.ndarray]:
        rows = slice(start, min(start + PROJECT_STEPS, self.steps))
        return rows, self.gates[rows] if self.training else self.gates[:rows.stop - start]

    def project(self, start: int) -> None:
        """The input projection of the block that starts at step ``start``."""
        rows, block = self._block(start)
        np.matmul(self.x[rows].reshape(-1, self.n_in), self.w_scaled[:self.n_in],
                  out=block.reshape(-1, block.shape[2]))

    def step(self, start: int) -> np.ndarray:
        """The recurrence over the block that starts at step ``start``;
        returns its ``(steps, B, H)`` hidden states."""
        rows, block = self._block(start)
        hidden = self.candidate.shape[1]
        i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
        scale, shift, b, cs = self.scale, self.shift, self.b_scaled, self.cs
        w_h = self.w_scaled[self.n_in:]
        # h[0]: the state before the block
        h = self.hs[start:rows.stop + 1] if self.training else self.hs.rows(start, rows.stop)
        for j, z in enumerate(block):
            t = start + j
            z += h[j] @ w_h
            z += b
            np.tanh(z, out=z)
            z *= scale
            z += shift
            c = np.multiply(z[:, f_], cs[t % len(cs)], out=cs[(t + 1) % len(cs)])
            c += np.multiply(z[:, i_], z[:, g_], out=self.candidate)
            np.multiply(z[:, o_], np.tanh(c, out=h[j + 1]), out=h[j + 1])
        return h[1:]


class LstmBackward:
    """Backpropagation through time over the saved gate activations and
    cell states of :class:`LstmForward`'s ``cache``, as tasks for a task
    graph: per block of ``PROJECT_STEPS`` steps, last block first,
    :meth:`step` (the recurrence back) and :meth:`input_rows` (the block's
    rows of the input gradient, one GEMM), then the three
    :meth:`weight_tasks`.

    ``grad (T, B, H)`` is the gradient of every step's hidden state or,
    given the layer's dropout ``mask``, of its dropped output, which each
    step multiplies by its rows of ``mask``.  A step reads its rows of
    ``grad`` only when it runs, so ``grad`` may be the ``dx`` of the layer
    above while that layer is running.

    The constructor allocates the layer's buffers and ``dx (T, B, in)``,
    the input gradient, which fills as the blocks run (``None`` unless
    ``input_grad``).  The steps run in order, block k's step before its
    ``input_rows``, and the last step (block 0's) before the weight tasks.
    A step takes ``tanh(c)``, the output gate's ``dc`` factor and the
    activation derivatives for its block only and writes the block's ``dz``
    over its gate activations, spent from then on (the cache is used up);
    ``input_rows`` reads those rows of ``dz``, and the weight tasks all of
    them.

    Every task runs the same GEMMs on the same operands whatever the order
    or thread, so ``dx``, ``dw`` and ``db`` have the same bits in any
    schedule the order above allows.
    """

    def __init__(self, grad: np.ndarray, mask: np.ndarray | None, cache, dw: np.ndarray,
                 db: np.ndarray, input_grad: bool):
        self.grad, self.mask, self.dw, self.db = grad, mask, dw, db
        self.x, w, self.gates, self.hs, self.cs = cache
        self.steps, batch, self.n_in = self.x.shape
        hidden = self.hs.shape[2]
        self.w_x, self.w_h = w[:self.n_in], w[self.n_in:]
        self.dx = np.empty(self.x.shape) if input_grad else None
        # one block's dz, tanh(c), dc_from_h and masked grad
        self.dz = np.empty((min(self.steps, PROJECT_STEPS), batch, 4 * hidden))
        self.tanh_c, self.dc_from_h, self.masked = np.empty((3,) + self.dz.shape[:2] + (hidden,))
        self.dh = np.zeros((batch, hidden))
        self.dc = np.zeros((batch, hidden))

    def step(self, start: int) -> None:
        """The recurrence back over the block that starts at step ``start``."""
        stop = min(start + PROJECT_STEPS, self.steps)
        rows = stop - start
        hidden = self.dh.shape[1]
        i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
        block, dz_block, cs, w_h = self.gates[start:stop], self.dz[:rows], self.cs, self.w_h
        g = self.grad[start:stop]
        if self.mask is not None:
            g = np.multiply(g, self.mask[start:stop], out=self.masked[:rows])
        tc = np.tanh(cs[start + 1:stop + 1], out=self.tanh_c[:rows])
        from_h = np.multiply(tc, tc, out=self.dc_from_h[:rows])
        np.subtract(1.0, from_h, out=from_h)
        from_h *= block[:, :, o_]
        # local derivatives of the activations, scaled in place into dz
        np.subtract(1.0, block, out=dz_block)
        dz_block *= block
        np.multiply(block[:, :, g_], block[:, :, g_], out=dz_block[:, :, g_])
        np.subtract(1.0, dz_block[:, :, g_], out=dz_block[:, :, g_])
        dh, dc = self.dh, self.dc
        for j in range(rows - 1, -1, -1):
            a, d = block[j], dz_block[j]
            dh += g[j]
            dc += dh * from_h[j]
            d[:, i_] *= dc * a[:, g_]
            d[:, f_] *= dc * cs[start + j]
            d[:, g_] *= dc * a[:, i_]
            d[:, o_] *= dh * tc[j]
            dc *= a[:, f_]
            dh = d @ w_h.T
        self.dh = dh
        block[...] = dz_block  # the block's gates are spent: dz takes their place

    def input_rows(self, start: int) -> None:
        """The rows of ``dx`` of the block that starts at step ``start``."""
        rows = slice(start, min(start + PROJECT_STEPS, self.steps))
        dz = self.gates[rows]
        np.matmul(dz.reshape(-1, dz.shape[2]), self.w_x.T,
                  out=self.dx[rows].reshape(-1, self.n_in))

    def weight_tasks(self) -> tuple:
        """The three weight-gradient tasks: ``dw``'s recurrent rows, then
        its input rows (one GEMM each over all ``T*B`` rows of ``dz``; the
        input rows are the smaller one in the first layer), then ``db``."""
        dz = self.gates.reshape(-1, self.gates.shape[2])
        hs, x = self.hs[:-1].reshape(len(dz), -1), self.x.reshape(len(dz), -1)
        return (partial(np.matmul, hs.T, dz, out=self.dw[self.n_in:]),
                partial(np.matmul, x.T, dz, out=self.dw[:self.n_in]),
                partial(dz.sum, axis=0, out=self.db))


class RngState(np.random.Generator):
    """Seeded, splittable random stream (PCG64).

    The same seed yields a bit-identical draw sequence; :meth:`split` derives
    an independent child stream from a string or integer key via SHA-256, so
    stream layout does not depend on draw order elsewhere in the program.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        super().__init__(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def split(self, key) -> "RngState":
        digest = hashlib.sha256(f"{self.seed}:{key}".encode()).digest()
        return RngState(int.from_bytes(digest[:8], "little"))


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


def grad_check(f, params: dict[str, Tensor], step: float = 1e-5,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients to central differences.

    ``f`` takes no arguments, runs a forward and a backward pass that write
    the ``grad`` of every tensor in ``params``, and returns the scalar loss.
    It must be deterministic across calls (dropout disabled or its mask
    frozen).

    The per-element error is ``|a - n| / max(|a|, |n|, 1e-3)``; the 1e-3
    floor makes the comparison absolute for gradients too small for central
    differences to resolve against float64 roundoff in the loss.
    """
    f()
    analytic = {name: t.grad.copy() for name, t in params.items()}
    report = GradCheckReport(step=step, tolerance=tolerance)
    for name, t in params.items():
        numeric = np.zeros_like(t.data)
        for idx in np.ndindex(t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + step
            hi = f()
            t.data[idx] = orig - step
            lo = f()
            t.data[idx] = orig
            numeric[idx] = (hi - lo) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), 1e-3)
        err = np.abs(analytic[name] - numeric) / denom
        report.per_input[name] = float(err.max()) if err.size else 0.0
    return report
