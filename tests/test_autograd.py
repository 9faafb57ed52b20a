"""Autodiff kernel: forward values, gradients vs finite differencesrules,
tape semantics, and determinism."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from gradcheck import max_rel_error
from seqrec import autograd as ag
from seqrec.errors import ShapeError


def test_xavier_bound_matches_fan_formula():
    t = ag.xavier_init((4, 4), seed=7)
    bound = np.sqrt(6.0 / (4 + 4))  # recomputed independently of the op
    assert t.data.shape == (4, 4)
    assert np.all(np.abs(t.data) <= bound)
    assert t.requires_grad


def test_xavier_single_cell_bound():
    t = ag.xavier_init((1, 1), seed=0)
    assert abs(t.data[0, 0]) <= np.sqrt(3.0)


def test_xavier_deterministic_per_seed():
    a = ag.xavier_init((5, 3), seed=11)
    b = ag.xavier_init((5, 3), seed=11)
    c = ag.xavier_init((5, 3), seed=12)
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_xavier_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        ag.xavier_init((0, 3), seed=1)
    with pytest.raises(ShapeError):
        ag.xavier_init((), seed=1)
    with pytest.raises(ShapeError):
        ag.xavier_init((4, -1), seed=1)


def test_softmax_uniform_on_equal_logits():
    out = ag.softmax(ag.constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(0)
    x = ag.constant(rng.standard_normal((7, 11)) * 30)
    y = ag.softmax(x).data
    assert np.all(y >= 0)
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_cross_entropy_two_way_uniform():
    loss = ag.cross_entropy(ag.constant([0.0, 0.0]), 0)
    assert abs(loss.item() - np.log(2.0)) < 1e-12


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(ValueError):
        ag.cross_entropy(ag.constant([0.0, 0.0]), 2)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ag.matmul(ag.constant(np.zeros((2, 3))), ag.constant(np.zeros((2, 3))))


def test_dropout_at_rate_zero_is_identity():
    x = ag.constant(np.arange(12.0).reshape(3, 4))
    out = ag.dropout(x, 0.0, np.random.default_rng(5))
    assert out is x


def test_dropout_train_scales_survivors():
    x = ag.constant(np.ones((200, 50)))
    rate = 0.5
    out = ag.dropout(x, rate, rng=np.random.default_rng(5)).data
    zeros = (out == 0.0).mean()
    survivors = out[out != 0.0]
    np.testing.assert_allclose(survivors, 1.0 / (1.0 - rate))
    assert abs(zeros - rate) < 0.02


def test_dropout_deterministic_per_seed():
    x = ag.constant(np.ones((10, 10)))
    a = ag.dropout(x, 0.3, rng=np.random.default_rng(9)).data
    b = ag.dropout(x, 0.3, rng=np.random.default_rng(9)).data
    np.testing.assert_array_equal(a, b)


def test_dropout_rejects_bad_rate():
    x = ag.constant(np.ones(3))
    with pytest.raises(ValueError):
        ag.dropout(x, 1.0, rng=np.random.default_rng(0))


def test_layer_norm_row_moments():
    rng = np.random.default_rng(1)
    x = ag.constant(rng.standard_normal((9, 33)) * 4 + 2)
    y = ag.layer_norm(x).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-6)


def test_backward_dot_square():
    x = ag.param([1.0, 2.0])
    ag.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_sum_of_softmax_is_zero():
    x = ag.param([[0.3, -1.2, 2.0, 0.0]])
    ag.backward(ag.softmax(x).sum())
    np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)


def test_backward_rejects_non_scalar():
    x = ag.param([1.0, 2.0])
    y = x * 2.0
    with pytest.raises(ShapeError):
        ag.backward(y)
    ag.clear_tape()


def test_gradients_accumulate_over_reuse():
    x = ag.param([3.0])
    y = x * 2.0 + x * 5.0  # x used twice
    ag.backward(y.sum())
    np.testing.assert_allclose(x.grad, [7.0])


def test_tape_cleared_after_backward():
    x = ag.param([1.0, 2.0])
    ag.backward((x * x).sum())
    assert ag.tape_size() == 0


def test_no_two_leaves_share_a_gradient_buffer():
    rng = np.random.default_rng(4)
    a, b, x, v1, v2 = (ag.param(rng.standard_normal(s))
                       for s in ((3, 4), (3, 4), (3, 4), (6,), (6,)))
    w = rng.standard_normal((3, 4))
    w2 = rng.standard_normal((2, 6))
    leaves = {"a": a, "b": b, "x": x, "v1": v1, "v2": v2}
    for passes in (1, 2):  # the second pass adds into the first pass's buffers
        loss = ((ag.add(a, b) * w).sum() + (ag.add(x, x) * w).sum()
                + (ag.concat([v1.reshape(1, 6), v2.reshape(1, 6)]) * w2).sum())
        ag.backward(loss)
        for (m, s), (n, t) in combinations(leaves.items(), 2):
            assert not np.shares_memory(s.grad, t.grad), (m, n)
        np.testing.assert_array_equal(a.grad, passes * w)
        np.testing.assert_array_equal(b.grad, passes * w)
        np.testing.assert_array_equal(x.grad, passes * 2 * w)
        np.testing.assert_array_equal(v1.grad, passes * w2[0])
        np.testing.assert_array_equal(v2.grad, passes * w2[1])


def test_backward_frees_node_gradients_as_it_goes():
    w = ag.param(np.full(1 << 17, 0.5))  # 1 MiB of float64
    h = w
    for _ in range(16):
        h = ag.relu(h * 1.0001 + 0.01)
    loss = h.sum()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ag.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # 48 nodes of 1 MiB each: holding every node's gradient to the end
    # peaks near 50 MiB; releasing each as backward passes it stays near 3.
    assert peak < 12 * 2**20, f"backward peaked at {peak / 2**20:.1f} MiB"
    np.testing.assert_allclose(w.grad, 1.0001 ** 16)
    assert loss.grad is None and h.grad is None


def test_no_grad_blocks_recording():
    x = ag.param([1.0, 2.0])
    with ag.no_grad():
        y = (x * x).sum()
    assert ag.tape_size() == 0
    assert not y.requires_grad


def test_forward_backward_bitwise_deterministic():
    def run():
        w = ag.xavier_init((6, 6), seed=3)
        x = ag.constant(np.linspace(-1, 1, 6).reshape(1, 6))
        h = ag.relu(ag.matmul(x, w))
        h = ag.dropout(h, 0.4, rng=np.random.default_rng(77))
        loss = ag.softmax(h).sum() + ag.cross_entropy(h, np.array([2])).mean()
        ag.backward(loss)
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


# ---------------------------------------------------------------------------
# Gradient soundness per primitive op (central finite differences)
# ---------------------------------------------------------------------------


def _rand(rng, *shape):
    return ag.param(rng.standard_normal(shape))


OP_CASES = {
    "add": lambda p, c: (ag.add(p["a"], p["b"])).sum(),
    "add_broadcast": lambda p, c: (ag.add(p["a"], p["row"])).sum(),
    "add_same": lambda p, c: (ag.add(p["a"], p["a"]) * c["w"]).sum(),
    "mul": lambda p, c: (ag.mul(p["a"], p["b"]) * 0.5).sum(),
    "matmul": lambda p, c: ag.matmul(p["m1"], p["m2"]).sum(),
    "matmul_batched": lambda p, c: ag.matmul(p["t3"], p["m2"]).sum(),
    "matmul_4d": lambda p, c: ag.softplus(ag.matmul(p["t4"], p["m2"])).sum(),
    "matmul_t1": lambda p, c: ag.softplus(ag.matmul(p["t1"], p["m2"])).sum(),
    "matmul_noncontiguous": lambda p, c: ag.softplus(
        ag.matmul(ag.transpose(p["t3"], (1, 0, 2)), p["m2"])).sum(),
    "matmul_transposed_weight": lambda p, c: ag.softplus(
        ag.matmul(p["t3"], ag.transpose_last(p["table"]))).sum(),
    "softmax": lambda p, c: (ag.softmax(p["a"]) * c["w"]).sum(),
    "relu": lambda p, c: ag.relu(p["a"]).sum(),
    "softplus": lambda p, c: ag.softplus(p["a"]).sum(),
    "layer_norm": lambda p, c: (ag.layer_norm(p["a"]) * c["w"]).sum(),
    "embedding": lambda p, c: (ag.embedding_lookup(p["table"], c["ids"]) * c["w3"]).sum(),
    "cross_entropy": lambda p, c: ag.cross_entropy(p["a"], c["targets"]).mean(),
    "concat": lambda p, c: (ag.layer_norm(ag.concat([p["v1"].reshape(1, 6), p["v2"].reshape(1, 6)]))
                            * c["w2"]).sum(),
    "transpose": lambda p, c: ag.matmul(p["m1"], ag.transpose_last(p["m1"])).sum(),
    "reshape": lambda p, c: (p["a"].reshape(24) * c["wflat"]).sum(),
    "mean": lambda p, c: p["a"].mean(),
    "dropout": lambda p, c: ag.dropout(p["a"], 0.3,
                                       rng=np.random.default_rng(123)).sum(),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_primitive_gradients_match_finite_differences(name):
    build_case = OP_CASES[name]
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        params = {
            "a": _rand(rng, 4, 6),
            "b": _rand(rng, 4, 6),
            "row": _rand(rng, 6),
            "m1": _rand(rng, 4, 5),
            "m2": _rand(rng, 5, 3),
            "t3": _rand(rng, 2, 4, 5),
            "v1": _rand(rng, 6),
            "v2": _rand(rng, 6),
            "table": _rand(rng, 8, 5),
        }
        # keep relu/dropout kinks away from the FD step
        params["a"].data += np.sign(params["a"].data) * 0.05
        consts = {
            "w": ag.constant(rng.standard_normal((4, 6))),
            "w2": ag.constant(rng.standard_normal((2, 6))),
            "w3": ag.constant(rng.standard_normal((3, 7, 5))),
            "wflat": ag.constant(rng.standard_normal(24)),
            "ids": rng.integers(0, 8, size=(3, 7)),
            "targets": rng.integers(0, 6, size=4),
        }
        # its own generator, so the draws of the other cases stay as they were
        params["t4"] = _rand(np.random.default_rng(2000 + trial), 2, 3, 4, 5)
        params["t1"] = _rand(np.random.default_rng(3000 + trial), 4, 1, 5)
        used = {k: v for k, v in params.items()}
        worst = max(worst, max_rel_error(lambda: build_case(used, consts), used, rng))
    assert worst <= 1e-4, f"{name}: worst rel err {worst:.3e}"


def test_matmul_gradient_tight_tolerance():
    # 2x3 @ 3x2 against central differences at h=1e-5
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(50 + trial)
        params = {"m1": _rand(rng, 2, 3), "m2": _rand(rng, 3, 2)}
        worst = max(
            worst,
            max_rel_error(
                lambda: (ag.matmul(params["m1"], params["m2"]) * 0.7).sum(),
                params, rng, coords_per_param=6,
            ),
        )
    assert worst <= 1e-6


@pytest.mark.parametrize("lead", [(6, 1), (6, 4), (3, 2, 4)], ids=["N1k", "NTk", "NhTk"])
def test_weight_matmul_matches_numpy_reference(lead):
    # forward and both gradients of a @ W against np.matmul, with a
    # non-uniform upstream gradient so a transposed rule cannot pass
    rng = np.random.default_rng(17)
    k, m = 5, 3
    a = ag.param(rng.standard_normal((*lead, k)))
    w = ag.param(rng.standard_normal((k, m)))
    up = rng.standard_normal((*lead, m))
    out = ag.matmul(a, w)
    ag.backward((out * ag.constant(up)).sum())
    np.testing.assert_allclose(out.data, np.matmul(a.data, w.data), rtol=1e-12)
    np.testing.assert_allclose(a.grad, np.matmul(up, w.data.T), rtol=1e-12)
    want_w = np.matmul(np.swapaxes(a.data, -1, -2), up).reshape(-1, k, m).sum(axis=0)
    np.testing.assert_allclose(w.grad, want_w, rtol=1e-12)
    assert a.grad.shape == a.shape and w.grad.shape == w.shape
