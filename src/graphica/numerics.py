"""Adam with coupled weight decay over one flat parameter vector.

Everything runs in 64-bit floats on plain numpy arrays.  The graph
kernel itself (degree-scaled propagation around one shared edge mask,
convolutions, pooling) lives in ``gap._forward_pass``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError


@dataclass
class AdamState:
    """Adam accumulators over one flat parameter vector.

    The update applies coupled weight decay, g = grad + weight_decay * w,
    followed by the standard bias-corrected moment step:

        m <- beta1 * m + (1 - beta1) * g
        v <- beta2 * v + (1 - beta2) * g^2
        w <- w - lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
    """

    m: np.ndarray
    v: np.ndarray
    step: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def initial(cls, n_params: int, learning_rate: float,
                weight_decay: float = 0.0, beta1: float = 0.9,
                beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), step=0,
                   learning_rate=learning_rate, beta1=beta1, beta2=beta2,
                   eps=eps, weight_decay=weight_decay)


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
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    new_params = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, state
