"""What every layer shares: trainable parameters, the seeded random stream
and a finite-difference gradient check.

Each layer in :mod:`droughtcast.layers` has a forward that returns its
output plus the cache its backward needs, and
:meth:`droughtcast.model.HybridModel.backward` calls those backwards in
reverse order, filling the ``grad`` of every :class:`Tensor` in place.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Tensor", "RngState", "grad_check", "GradCheckReport"]


class Tensor:
    """A trainable float64 array plus the gradient of the loss with respect
    to it, of the same shape, which the backward pass writes in place (a
    zero array unless ``grad`` is given)."""

    __slots__ = ("data", "grad")

    def __init__(self, data, grad: np.ndarray | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros(self.data.shape) if grad is None else grad


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
