"""Adam optimizer: closed-form first step, zero-grad fixpoint, determinism."""

import numpy as np
import pytest

from seqrec import autograd as ag
from seqrec.optim import AdamState, ParamStore, adam_step


def make_store(values):
    """A ParamStore and the tensors it holds, by name."""
    params = {name: ag.param(np.array(val)) for name, val in values.items()}
    return ParamStore(params), params


def test_first_step_closed_form():
    # m_hat = g, v_hat = g^2 at step 1, so the update is lr*g/(|g|+eps)
    store, params = make_store({"p": [0.0]})
    state = AdamState(store, lr=0.001)
    params["p"].grad = np.array([1.0])
    adam_step(store, state)
    expected = -0.001 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(params["p"].data, [expected], rtol=1e-12)


def test_zero_grad_leaves_param_untouched():
    store, params = make_store({"p": [1.5, -2.0]})
    state = AdamState(store)
    params["p"].grad = np.zeros(2)
    adam_step(store, state)
    np.testing.assert_array_equal(params["p"].data, [1.5, -2.0])


def test_missing_grad_raises():
    store, params = make_store({"p": [1.0], "q": [2.0]})
    state = AdamState(store)
    params["p"].grad = np.array([0.5])
    with pytest.raises(ValueError, match="uninitialized"):
        adam_step(store, state)


def test_grads_cleared_after_step():
    store, params = make_store({"p": [1.0]})
    state = AdamState(store)
    params["p"].grad = np.array([0.5])
    adam_step(store, state)
    assert params["p"].grad is None


def test_step_counter_increments():
    store, params = make_store({"p": [1.0]})
    state = AdamState(store)
    for expected in (1, 2, 3):
        params["p"].grad = np.array([0.1])
        adam_step(store, state)
        assert state.step_count == expected


def test_identical_runs_are_bitwise_identical():
    def run():
        rng = np.random.default_rng(42)
        store, params = make_store({"w": rng.standard_normal((3, 3))})
        state = AdamState(store, lr=0.01)
        for step in range(10):
            g_rng = np.random.default_rng(100 + step)
            params["w"].grad = g_rng.standard_normal((3, 3))
            adam_step(store, state)
        return params["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


def test_training_reduces_quadratic_loss():
    store, params = make_store({"x": [5.0, -3.0]})
    state = AdamState(store, lr=0.05)
    for _ in range(400):
        x = params["x"]
        ag.backward((x * x).sum())
        adam_step(store, state)
    assert np.all(np.abs(params["x"].data) < 0.05)
