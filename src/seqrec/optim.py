"""The Adam optimizer over a name -> Tensor table (a component's named_params())."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .errors import CheckpointError

# Adam's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001):
        self.lr = float(lr)
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.m:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    @classmethod
    def from_state_arrays(cls, arrays: dict[str, np.ndarray], step_count: int,
                          lr: float) -> "AdamState":
        """A saved state (state_arrays() and step_count): moments for the names it holds.

        Every array must be named m.<parameter> or v.<parameter>; which
        parameters those are, and their shapes, the run that resumes checks.
        """
        state = cls({}, lr)
        for key, arr in arrays.items():
            moment, _, name = key.partition(".")
            if moment not in ("m", "v") or not name:
                raise CheckpointError(f"Adam state array {key!r} is not named "
                                      f"m.<parameter> or v.<parameter>")
            getattr(state, moment)[name] = arr.copy()
        state.step_count = int(step_count)
        return state


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update; gradients are consumed (reset to None)."""
    missing = [name for name, t in params.items() if t.grad is None]
    if missing:
        raise ValueError(f"uninitialized gradient for parameters: {missing[:5]}")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad = None
