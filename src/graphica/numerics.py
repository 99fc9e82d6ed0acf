"""Adam with coupled weight decay over one flat parameter vector.

Everything runs in 64-bit floats on plain numpy arrays.  The graph
kernel itself (degree-scaled propagation around one shared edge mask,
convolutions, pooling) lives in ``gap._forward_pass``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError


#: Adam's moment decay rates and denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam accumulators over one flat parameter vector.

    The update applies coupled weight decay, g = grad + weight_decay * w,
    followed by the standard bias-corrected moment step:

        m <- BETA1 * m + (1 - BETA1) * g
        v <- BETA2 * v + (1 - BETA2) * g^2
        w <- w - lr * (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + EPS)
    """

    m: np.ndarray
    v: np.ndarray
    step: int
    learning_rate: float
    weight_decay: float = 0.0

    @classmethod
    def initial(cls, n_params: int, learning_rate: float,
                weight_decay: float = 0.0) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), step=0,
                   learning_rate=learning_rate, weight_decay=weight_decay)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One Adam update.  Returns (new_params, state); the state's
    accumulators are advanced in place."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape} and state "
            f"{state.m.shape} must agree")
    if not np.all(np.isfinite(grads)):
        bad = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise NumericError(f"non-finite gradient at flat index {bad}")
    g = grads + state.weight_decay * params
    state.step += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * g
    state.v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = state.m / (1.0 - BETA1 ** state.step)
    v_hat = state.v / (1.0 - BETA2 ** state.step)
    new_params = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    return new_params, state
