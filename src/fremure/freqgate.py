"""Class-frequency prior and the frequency-aware feature correction.

The gate input is log(1/(f + eps)), strictly decreasing in class frequency,
so with nonnegative weights rare classes push the gate toward 1 (normalize
harder) and frequent ones toward 0 (leave features alone). The smoothing term
sits inside the reciprocal so zero-count classes stay finite.
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .errors import ContractError

# the smoothing term of log(1/(f + eps))
EPS = 1e-6
# half-width of the uniform initial weights of the frequency and fusion gates
INIT_SCALE = 1e-2


class FrequencyPrior:
    """Normalized class frequencies f_k = n_k / sum(n), smoothed by EPS in
    the gate input. Counts that are not a non-empty 1-d array of nonnegative
    values with a positive one raise ContractError naming ``name``."""

    def __init__(self, counts, name: str = "counts"):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ContractError(f"{name} must be a non-empty 1-d array")
        if np.any(counts < 0):
            raise ContractError(f"{name} must hold no negative count")
        total = counts.sum()
        if total <= 0:
            raise ContractError(f"{name} must hold at least one positive count")
        self.counts = counts
        self.f = counts / total

    def log_inverse(self) -> np.ndarray:
        """log(1/(f_k + eps)): the gate's pre-activation input, finite for f_k = 0."""
        return np.log(1.0 / (self.f + EPS))


class FrequencyGate(nc.Module):
    """Learned map from the inverse-frequency signal to a per-feature gate,
    one task's as drawn; a ``dpeg.Dpeg`` stacks one per task.

    W starts as small uniform noise and b at zero, so the initial gate sits
    near 0.5 and applies no correction bias.
    """

    def __init__(self, n_classes: int, d: int, rng: nc.Rng):
        self.w = nc.Tensor(rng.uniform_range(-INIT_SCALE, INIT_SCALE, (n_classes, d)),
                           requires_grad=True)
        self.b = nc.Tensor(np.zeros(d), requires_grad=True)


def gate_values(signal: np.ndarray, w, b) -> nc.Tensor:
    """sigmoid(W . log(1/(f + eps)) + b); every element strictly inside (0, 1).

    ``signal`` is ``FrequencyPrior.log_inverse()``, (C,), with a
    ``FrequencyGate``'s w and b; or T such signals, (T, 1, C), with the T
    gates' weights stacked along a leading task axis.
    """
    return nc.sigmoid(nc.affine(nc.Tensor(signal), w, b))


def frequency_correct(x: nc.Tensor, g: nc.Tensor) -> nc.Tensor:
    """Blend raw and normalized features: x' = g * layer_norm(x) + (1 - g) * x,
    for a gate g in [0, 1] that broadcasts against x."""
    return g * nc.layer_norm(x) + (1.0 - g) * x
