"""Named parameter collections and the Adam optimizer."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .errors import CheckpointError

# Adam's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class ParamStore:
    """Ordered name -> Tensor mapping for one trainable parameter set."""

    def __init__(self, named: dict[str, Tensor]):
        self._params: dict[str, Tensor] = dict(named)

    def items(self):
        return self._params.items()

    def fill_missing_grads(self) -> None:
        """Give zero gradients to params a loss did not touch this step."""
        for t in self._params.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Set every parameter from values, which must name exactly these parameters."""
        extra = [name for name in values if name not in self._params]
        if extra:
            raise CheckpointError(f"array {extra[0]!r} is not a parameter of this model "
                                  f"({len(extra)} such arrays)")
        for name, t in self._params.items():
            if name not in values:
                raise CheckpointError(f"missing array for parameter {name!r}")
            if values[name].shape != t.data.shape:
                raise CheckpointError(f"array {name!r} has shape {values[name].shape}, "
                                      f"the model needs {t.data.shape}")
        for name, t in self._params.items():
            t.data = values[name].astype(t.data.dtype, copy=True)


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: ParamStore, lr: float = 0.001):
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
        """A saved state (state_arrays() and step_count): moments for the names it holds."""
        state = cls(ParamStore({}), lr)
        for key, arr in arrays.items():
            moment, name = key.split(".", 1)
            getattr(state, moment)[name] = arr.copy()
        state.step_count = int(step_count)
        return state


def adam_step(params: ParamStore, state: AdamState) -> None:
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
