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


PROJECT_STEPS = 16  # steps per input-projection GEMM


def lstm_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, training: bool):
    """One LSTM layer over a time-major ``(T, B, in)`` sequence, from zero
    hidden and cell states.  Returns the hidden state of every step,
    ``(T, B, H)``, and in training mode the cache :func:`lstm_backward`
    reads (``None`` otherwise).

    ``w (in + H, 4H)`` stacks the input rows over the recurrent rows, and
    its columns (like those of ``b (4H,)``) hold the input, forget,
    candidate and output gates in that order.  The input projection is
    hoisted out of the step loop (Appleyard et al. 2016, arXiv:1604.01946)
    into one GEMM per block of ``PROJECT_STEPS`` steps.  Both modes run the
    same GEMMs, so their outputs agree bit for bit (a BLAS may round a row
    differently with the height of the GEMM it is in, so training does not
    project all ``T`` steps at once); training keeps every step's gate
    activations and cell state for the backward, while eval reuses one
    block of gates and two cell states.

    All four activations of a step are one in-place ``tanh``: σ(z) = ½ +
    ½·tanh(z/2) for the i, f and o gates, whose columns of the recurrent
    weight and of ``b`` are halved once per call, and of each projection
    block once per block; the ``tanh`` is then scaled and shifted by ½ (by
    1 and 0 for g).  Halving is exact (short of subnormals), so the ``tanh``
    sees exactly z/2; ±inf gives exactly 1 and 0, and nothing overflows.
    """
    steps, batch, n_in = x.shape
    hidden = b.shape[0] // 4
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
    shift = 1.0 - scale
    w_x, w_h = w[:n_in], w[n_in:] * scale
    b = b * scale
    # a step's row holds its input projection, then its gate activations
    gates = np.empty((steps if training else min(steps, PROJECT_STEPS), batch, 4 * hidden))
    # hs[t + 1] is step t's hidden state and hs[0] the zero start; cs is indexed
    # the same way modulo its length, so eval cycles through two cell states
    hs = np.zeros((steps + 1, batch, hidden))
    cs = np.zeros((steps + 1 if training else 2, batch, hidden))
    candidate = np.empty((batch, hidden))  # i * g
    for start in range(0, steps, PROJECT_STEPS):
        stop = min(start + PROJECT_STEPS, steps)
        block = gates[start:stop] if training else gates[:stop - start]
        np.matmul(x[start:stop].reshape(-1, n_in), w_x, out=block.reshape(-1, 4 * hidden))
        block *= scale
        for t, z in enumerate(block, start):
            z += hs[t] @ w_h
            z += b
            np.tanh(z, out=z)
            z *= scale
            z += shift
            c = np.multiply(z[:, f_], cs[t % len(cs)], out=cs[(t + 1) % len(cs)])
            c += np.multiply(z[:, i_], z[:, g_], out=candidate)
            np.multiply(z[:, o_], np.tanh(c, out=hs[t + 1]), out=hs[t + 1])
    return hs[1:], ((x, w, gates, hs, cs) if training else None)


def lstm_backward(grad: np.ndarray, cache, dw: np.ndarray, db: np.ndarray,
                  input_grad: bool) -> np.ndarray | None:
    """Backpropagation through time over the saved gate activations and
    cell states, given the gradient of every step's hidden state
    ``(T, B, H)``.  Writes the weight gradient into ``dw``, as two GEMMs
    over all ``T*B`` rows (its input rows, then its recurrent rows), and
    the bias gradient into ``db``; returns ``dx`` if ``input_grad``."""
    x, w, gates, hs, cs = cache
    steps, batch, n_in = x.shape
    hidden = hs.shape[2]
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    w_x, w_h = w[:n_in], w[n_in:]
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
    np.matmul(x.reshape(steps * batch, n_in).T, dz, out=dw[:n_in])
    np.matmul(hs[:-1].reshape(steps * batch, hidden).T, dz, out=dw[n_in:])
    dz.sum(axis=0, out=db)
    return (dz @ w_x.T).reshape(x.shape) if input_grad else None


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
