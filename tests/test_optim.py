"""Adam optimizer: closed-form first step, zero-grad fixpoint, determinism."""

import numpy as np
import pytest

from seqrec import autograd as ag
from seqrec.optim import AdamState, adam_step


def make_params(values):
    """A name -> Tensor parameter table, as named_params() returns."""
    return {name: ag.param(np.array(val)) for name, val in values.items()}


def test_first_step_closed_form():
    # m_hat = g, v_hat = g^2 at step 1, so the update is lr*g/(|g|+eps)
    params = make_params({"p": [0.0]})
    state = AdamState(params, lr=0.001)
    params["p"].grad = np.array([1.0])
    adam_step(params, state)
    expected = -0.001 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(params["p"].data, [expected], rtol=1e-12)


def test_zero_grad_leaves_param_untouched():
    params = make_params({"p": [1.5, -2.0]})
    state = AdamState(params)
    params["p"].grad = np.zeros(2)
    adam_step(params, state)
    np.testing.assert_array_equal(params["p"].data, [1.5, -2.0])


def test_missing_grad_raises():
    params = make_params({"p": [1.0], "q": [2.0]})
    state = AdamState(params)
    params["p"].grad = np.array([0.5])
    with pytest.raises(ValueError, match="uninitialized"):
        adam_step(params, state)


def test_grads_cleared_after_step():
    params = make_params({"p": [1.0]})
    state = AdamState(params)
    params["p"].grad = np.array([0.5])
    adam_step(params, state)
    assert params["p"].grad is None


def test_step_counter_increments():
    params = make_params({"p": [1.0]})
    state = AdamState(params)
    for expected in (1, 2, 3):
        params["p"].grad = np.array([0.1])
        adam_step(params, state)
        assert state.step_count == expected


def test_identical_runs_are_bitwise_identical():
    def run():
        rng = np.random.default_rng(42)
        params = make_params({"w": rng.standard_normal((3, 3))})
        state = AdamState(params, lr=0.01)
        for step in range(10):
            g_rng = np.random.default_rng(100 + step)
            params["w"].grad = g_rng.standard_normal((3, 3))
            adam_step(params, state)
        return params["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


def test_training_reduces_quadratic_loss():
    params = make_params({"x": [5.0, -3.0]})
    state = AdamState(params, lr=0.05)
    for _ in range(400):
        x = params["x"]
        ag.backward((x * x).sum())
        adam_step(params, state)
    assert np.all(np.abs(params["x"].data) < 0.05)
