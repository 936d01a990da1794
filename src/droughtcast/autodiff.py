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

import numpy as np

__all__ = [
    "Tensor",
    "RngState",
    "Ring",
    "lstm_forward",
    "lstm_backward",
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


PROJECT_STEPS = 16  # steps per input-projection GEMM: one block of the wavefront


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


def lstm_forward(x, w: np.ndarray, b: np.ndarray, training: bool):
    """One LSTM layer over a time-major ``(T, B, in)`` sequence, from zero
    hidden and cell states, as a generator that runs one block of
    ``PROJECT_STEPS`` steps per ``next``.

    The first ``next`` allocates every buffer and yields where the hidden
    states go, with the cache :func:`lstm_backward` reads: in training mode
    the ``(T, B, H)`` states of every step, in eval mode a :class:`Ring`
    and ``None``; both fill as the blocks run.  Each later ``next`` runs
    the next block and yields its ``(steps, B, H)`` hidden states.  A block
    reads its rows of ``x`` only when it runs, so ``x`` may be the output
    of the layer below (a ``Ring`` included) while that layer is one block
    ahead.

    ``w (in + H, 4H)`` stacks the input rows over the recurrent rows, and
    its columns (like those of ``b (4H,)``) hold the input, forget,
    candidate and output gates in that order.  The input projection is
    hoisted out of the step loop (Appleyard et al. 2016, arXiv:1604.01946)
    into one GEMM per block.  Both modes run the same GEMMs, so their
    outputs agree bit for bit (a BLAS may round a row differently with the
    height of the GEMM it is in, so training does not project all ``T``
    steps at once); training keeps every step's gate activations and cell
    state for the backward, while eval reuses one block of gates and two
    cell states.

    All four activations of a step are one in-place ``tanh``: σ(z) = ½ +
    ½·tanh(z/2) for the i, f and o gates, whose columns of ``w`` and ``b``
    are halved once per call; the ``tanh`` is then scaled and shifted by ½
    (by 1 and 0 for g).  Halving is exact (short of subnormals), so the
    ``tanh`` sees exactly z/2; ±inf gives exactly 1 and 0, and nothing
    overflows.
    """
    steps, batch, n_in = x.shape
    hidden = b.shape[0] // 4
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
    shift = 1.0 - scale
    w_x, w_h = w[:n_in] * scale, w[n_in:] * scale
    b = b * scale
    # a step's row holds its input projection, then its gate activations
    gates = np.empty((steps if training else min(steps, PROJECT_STEPS), batch, 4 * hidden))
    # in training hs[t + 1] is step t's hidden state and hs[0] the zero start;
    # cs is indexed the same way modulo its length, so eval cycles through two
    hs = np.zeros((steps + 1, batch, hidden)) if training else Ring(steps, batch, hidden)
    cs = np.zeros((steps + 1 if training else 2, batch, hidden))
    candidate = np.empty((batch, hidden))  # i * g
    yield (hs[1:], (x, w, gates, hs, cs)) if training else (hs, None)
    for start in range(0, steps, PROJECT_STEPS):
        stop = min(start + PROJECT_STEPS, steps)
        block = gates[start:stop] if training else gates[:stop - start]
        np.matmul(x[start:stop].reshape(-1, n_in), w_x, out=block.reshape(-1, 4 * hidden))
        h = hs[start:stop + 1] if training else hs.rows(start, stop)  # h[0]: the state before
        for j, z in enumerate(block):
            t = start + j
            z += h[j] @ w_h
            z += b
            np.tanh(z, out=z)
            z *= scale
            z += shift
            c = np.multiply(z[:, f_], cs[t % len(cs)], out=cs[(t + 1) % len(cs)])
            c += np.multiply(z[:, i_], z[:, g_], out=candidate)
            np.multiply(z[:, o_], np.tanh(c, out=h[j + 1]), out=h[j + 1])
        yield h[1:]


def lstm_backward(grad: np.ndarray, mask: np.ndarray | None, cache, dw: np.ndarray,
                  db: np.ndarray, input_grad: bool):
    """Backpropagation through time over the saved gate activations and
    cell states, as a generator that runs one block of ``PROJECT_STEPS``
    steps per ``next``, last block first.

    ``grad (T, B, H)`` is the gradient of every step's hidden state or,
    given the layer's dropout ``mask``, of its dropped output, which each
    block multiplies by its rows of ``mask``.  A block reads its rows of
    ``grad`` only when it runs, so ``grad`` may be the input gradient of
    the layer above while that layer is one block ahead.

    The first ``next`` allocates the layer's buffers and yields the input
    gradient ``dx (T, B, in)``, which fills as the blocks run (``None``
    unless ``input_grad``).  Each later ``next`` runs the next block back,
    taking ``tanh(c)``, the output gate's ``dc`` factor and the activation
    derivatives for that block only, forms the block's rows of ``dx`` with
    one GEMM over its rows of ``dz``, and writes those over the block's
    gate activations, spent from then on (the cache is used up).  The
    ``next`` after the first block writes the weight gradient into ``dw``,
    as two GEMMs over all ``T*B`` rows of ``dz`` (its input rows, then its
    recurrent rows), and the bias gradient into ``db``, and ends the
    generator.

    ``dw`` and ``db`` have the bits of one whole backward for a given
    ``dz``, and ``dx`` has them when ``T <= PROJECT_STEPS``; over more steps
    the BLAS may round a block's rows of ``dx`` differently from the same
    rows of one ``(T*B, 4H)`` GEMM, a last-bit change in the gradients of
    every layer below the top.
    """
    x, w, gates, hs, cs = cache
    steps, batch, n_in = x.shape
    hidden = hs.shape[2]
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    w_x, w_h = w[:n_in], w[n_in:]
    dx = np.empty(x.shape) if input_grad else None
    # one block's dz, tanh(c), dc_from_h and masked grad
    dz = np.empty((min(steps, PROJECT_STEPS), batch, 4 * hidden))
    tanh_c, dc_from_h, masked = np.empty((3,) + dz.shape[:2] + (hidden,))
    dh = np.zeros((batch, hidden))
    dc = np.zeros((batch, hidden))
    yield dx
    for start in reversed(range(0, steps, PROJECT_STEPS)):
        stop = min(start + PROJECT_STEPS, steps)
        rows = stop - start
        block, dz_block = gates[start:stop], dz[:rows]
        g = grad[start:stop]
        if mask is not None:
            g = np.multiply(g, mask[start:stop], out=masked[:rows])
        tc = np.tanh(cs[start + 1:stop + 1], out=tanh_c[:rows])
        from_h = np.multiply(tc, tc, out=dc_from_h[:rows])
        np.subtract(1.0, from_h, out=from_h)
        from_h *= block[:, :, o_]
        # local derivatives of the activations, scaled in place into dz
        np.subtract(1.0, block, out=dz_block)
        dz_block *= block
        np.multiply(block[:, :, g_], block[:, :, g_], out=dz_block[:, :, g_])
        np.subtract(1.0, dz_block[:, :, g_], out=dz_block[:, :, g_])
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
        if input_grad:
            np.matmul(dz_block.reshape(-1, 4 * hidden), w_x.T,
                      out=dx[start:stop].reshape(-1, n_in))
        block[...] = dz_block  # the block's gates are spent: dz takes their place
        yield
    dz = gates.reshape(steps * batch, 4 * hidden)
    np.matmul(x.reshape(steps * batch, n_in).T, dz, out=dw[:n_in])
    np.matmul(hs[:-1].reshape(steps * batch, hidden).T, dz, out=dw[n_in:])
    dz.sum(axis=0, out=db)


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
