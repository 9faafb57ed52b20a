"""Autodiff kernel: forward values, gradients vs finite differences,
tape semantics, and determinism."""

import contextlib
import tracemalloc
import types
import weakref
from itertools import combinations

import numpy as np
import pytest

from gradcheck import max_rel_error
from seqrec import autograd as ag
from seqrec.encoder import (
    EncoderParams,
    ModelDims,
    attention_mask,
    embed_sequence,
    encode_batch,
    transformer_stack,
)
from seqrec.errors import ShapeError
from seqrec.seeding import SeedStream


def test_xavier_bound_matches_fan_formula():
    t = ag.xavier_init((4, 4), np.random.default_rng(7))
    bound = np.sqrt(6.0 / (4 + 4))  # recomputed independently of the op
    assert t.data.shape == (4, 4)
    assert np.all(np.abs(t.data) <= bound)
    assert t.requires_grad


def test_xavier_single_cell_bound():
    t = ag.xavier_init((1, 1), np.random.default_rng(0))
    assert abs(t.data[0, 0]) <= np.sqrt(3.0)


def test_xavier_deterministic_per_seed():
    a = ag.xavier_init((5, 3), np.random.default_rng(11))
    b = ag.xavier_init((5, 3), np.random.default_rng(11))
    c = ag.xavier_init((5, 3), np.random.default_rng(12))
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_xavier_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        ag.xavier_init((0, 3), np.random.default_rng(1))
    with pytest.raises(ShapeError):
        ag.xavier_init((), np.random.default_rng(1))
    with pytest.raises(ShapeError):
        ag.xavier_init((4, -1), np.random.default_rng(1))


ALL = np.True_  # a softmax mask that allows every cell


def test_softmax_uniform_on_equal_logits():
    out = ag.softmax(ag.constant([0.0, 0.0, 0.0]), ALL)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(0)
    x = ag.constant(rng.standard_normal((7, 11)) * 30)
    y = ag.softmax(x, ALL).data
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
    y = ag.layer_norm(x, ag.param(np.ones(33)), ag.param(np.zeros(33))).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-6)


def test_layer_norm_applies_gain_and_bias():
    rng = np.random.default_rng(2)
    x = ag.constant(rng.standard_normal((3, 5)))
    gain, bias = ag.param(rng.standard_normal(5)), ag.param(rng.standard_normal(5))
    plain = ag.layer_norm(x, ag.param(np.ones(5)), ag.param(np.zeros(5))).data
    np.testing.assert_array_equal(ag.layer_norm(x, gain, bias).data,
                                  plain * gain.data + bias.data)


def test_layer_norm_rejects_affine_of_the_wrong_shape():
    x = ag.constant(np.ones((2, 4)))
    with pytest.raises(ShapeError):
        ag.layer_norm(x, ag.param(np.ones(3)), ag.param(np.zeros(4)))
    with pytest.raises(ShapeError):
        ag.layer_norm(x, ag.param(np.ones(4)), ag.param(np.zeros((1, 4))))


def test_matmul_bias_is_added_to_every_row():
    rng = np.random.default_rng(3)
    a = ag.constant(rng.standard_normal((2, 3, 4)))
    w, bias = ag.param(rng.standard_normal((4, 5))), ag.param(rng.standard_normal(5))
    np.testing.assert_array_equal(ag.matmul(a, w, bias).data,
                                  ag.matmul(a, w).data + bias.data)


def test_matmul_refuses_a_bias_it_cannot_add():
    a = ag.constant(np.ones((2, 3, 4)))
    with pytest.raises(ShapeError):  # stacked right operand
        ag.matmul(a, ag.constant(np.ones((2, 4, 5))), ag.param(np.zeros(5)))
    with pytest.raises(ShapeError):  # one entry per output column
        ag.matmul(a, ag.constant(np.ones((4, 5))), ag.param(np.zeros(4)))
    with pytest.raises(ShapeError):
        ag.matmul(a, ag.constant(np.ones((4, 5))), ag.param(np.zeros((1, 5))))


def test_backward_dot_square():
    x = ag.param([1.0, 2.0])
    ag.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_sum_of_softmax_is_zero():
    x = ag.param([[0.3, -1.2, 2.0, 0.0]])
    ag.backward(ag.softmax(x, ALL).sum())
    np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)


def test_masked_softmax_gives_blocked_cells_no_weight_and_no_gradient():
    # a (2, 1, 4, 6) mask broadcast over 3 heads, as attention applies it;
    # every row keeps an allowed cell and is the softmax of those cells alone
    rng = np.random.default_rng(6)
    x = ag.param(rng.standard_normal((2, 3, 4, 6)) * 5)
    allowed = _allowed(rng, (2, 1, 4, 6))
    g = rng.standard_normal(x.shape)
    y = ag.softmax(x, allowed)
    ag.backward((y * ag.constant(g)).sum())
    blocked = np.broadcast_to(~allowed, x.shape)
    assert np.all(y.data[blocked] == 0.0) and np.all(x.grad[blocked] == 0.0)
    for idx in np.ndindex(x.shape[:-1]):
        keep = ~blocked[idx]
        p = np.exp(x.data[idx][keep] - x.data[idx][keep].max())
        p /= p.sum()
        np.testing.assert_allclose(y.data[idx][keep], p, rtol=1e-12)
        gk = g[idx][keep]
        np.testing.assert_allclose(x.grad[idx][keep], p * (gk - gk @ p), rtol=1e-9, atol=1e-15)


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


def test_in_place_relu_writes_into_its_input_and_keeps_the_gradient():
    rng = np.random.default_rng(11)
    x_data = rng.standard_normal((7, 5))
    x = ag.constant(x_data.copy())
    y = ag.relu(x)
    np.testing.assert_array_equal(x.data, x_data)  # the default leaves its input alone
    assert not np.shares_memory(y.data, x.data)
    y_in_place = ag.relu(x, in_place=True)
    assert np.shares_memory(y_in_place.data, x.data)
    np.testing.assert_array_equal(y_in_place.data, y.data)

    w_data = rng.standard_normal((5, 4))

    def grad(in_place):
        w = ag.param(w_data)
        h = ag.relu(ag.matmul(ag.constant(x_data), w), in_place=in_place)
        ag.backward((h * ag.constant(np.linspace(-1.0, 1.0, 28).reshape(7, 4))).sum())
        return h.data, w.grad

    for got, want in zip(grad(True), grad(False)):
        np.testing.assert_array_equal(got, want)


def test_no_grad_blocks_recording():
    x = ag.param([1.0, 2.0])
    with ag.no_grad():
        y = (x * x).sum()
    assert ag.tape_size() == 0
    assert not y.requires_grad


def test_forward_backward_bitwise_deterministic():
    def run():
        w = ag.xavier_init((6, 6), np.random.default_rng(3))
        x = ag.constant(np.linspace(-1, 1, 6).reshape(1, 6))
        h = ag.relu(ag.matmul(x, w))
        h = ag.dropout(h, 0.4, rng=np.random.default_rng(77))
        loss = ag.softmax(h, ALL).sum() + ag.cross_entropy(h, np.array([2])).mean()
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


def _allowed(rng, shape):
    """A random boolean softmax mask that allows at least one cell per row."""
    allowed = rng.random(shape) < 0.5
    rows = allowed.reshape(-1, shape[-1])
    rows[np.arange(len(rows)), rng.integers(0, shape[-1], size=len(rows))] = True
    return allowed


OP_CASES = {
    "add": lambda p, c: (ag.add(p["a"], p["b"])).sum(),
    "add_broadcast": lambda p, c: (ag.add(p["a"], p["row"])).sum(),
    "add_same": lambda p, c: (ag.add(p["a"], p["a"]) * c["w"]).sum(),
    "mul": lambda p, c: (ag.mul(p["a"], p["b"]) * 0.5).sum(),
    "matmul": lambda p, c: ag.matmul(p["m1"], p["m2"]).sum(),
    "matmul_batched": lambda p, c: ag.matmul(p["t3"], p["m2"]).sum(),
    "matmul_bias": lambda p, c: ag.softplus(ag.matmul(p["t3"], p["m2"], p["bias"])).sum(),
    "matmul_4d": lambda p, c: ag.softplus(ag.matmul(p["t4"], p["m2"])).sum(),
    "matmul_t1": lambda p, c: ag.softplus(ag.matmul(p["t1"], p["m2"])).sum(),
    "matmul_noncontiguous": lambda p, c: ag.softplus(
        ag.matmul(ag.transpose(p["t3"], (1, 0, 2)), p["m2"])).sum(),
    "matmul_transposed_weight": lambda p, c: ag.softplus(
        ag.matmul(p["t3"], ag.transpose_last(p["table"]))).sum(),
    "softmax": lambda p, c: (ag.softmax(p["a"], ALL) * c["w"]).sum(),
    "softmax_masked": lambda p, c: (ag.softmax(p["a"], c["allowed"]) * c["w"]).sum(),
    "relu": lambda p, c: ag.relu(p["a"]).sum(),
    "ffn": lambda p, c: ag.softplus(
        ag.ffn(p["t3"], p["m2"], p["bias"], p["ffn_w2"], p["ffn_b2"])).sum(),
    "attention": lambda p, c: ag.softplus(ag.attention(
        p["att_h"], *(p[f"att_w{x}"] for x in "qkvo"), c["att_allowed"], 2, 0.3,
        (np.random.default_rng(7), np.random.default_rng(8)))).sum(),
    "attention_last_only": lambda p, c: ag.softplus(ag.attention(
        p["att_h"], *(p[f"att_w{x}"] for x in "qkvo"), c["att_allowed"], 2,
        last_only=True)).sum(),
    # t3 feeds recompute's fn once and the residual add outside it, as
    # ffn's input does in a block
    "recompute_shared_input": lambda p, c: ag.softplus(p["t3"] + ag.recompute(
        lambda h, w: ag.matmul(ag.softplus(ag.matmul(h, w)), ag.transpose_last(w)),
        (p["t3"], p["m2"]))).sum(),
    "softplus": lambda p, c: ag.softplus(p["a"]).sum(),
    "layer_norm": lambda p, c: (ag.layer_norm(p["a"], p["gain"], p["beta"]) * c["w"]).sum(),
    "embedding": lambda p, c: (ag.embedding_lookup(p["table"], c["ids"]) * c["w3"]).sum(),
    "cross_entropy": lambda p, c: ag.cross_entropy(p["a"], c["targets"]).mean(),
    "row_slice": lambda p, c: ag.softplus(
        ag.matmul(p["t3"], ag.transpose_last(ag.row_slice(p["table"], 1, 4)))).sum(),
    "concat": lambda p, c: (ag.layer_norm(ag.concat([p["v1"].reshape(1, 6), p["v2"].reshape(1, 6)]),
                                          p["gain"], p["beta"]) * c["w2"]).sum(),
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
        affine = np.random.default_rng(4000 + trial)
        params["bias"] = _rand(affine, 3)
        params["gain"], params["beta"] = _rand(affine, 6), _rand(affine, 6)
        consts["allowed"] = _allowed(np.random.default_rng(5000 + trial), (4, 6))
        second = np.random.default_rng(6000 + trial)
        params["ffn_w2"], params["ffn_b2"] = _rand(second, 3, 4), _rand(second, 4)
        third = np.random.default_rng(7000 + trial)
        params["att_h"] = _rand(third, 2, 4, 6)
        for x in "qkvo":
            params[f"att_w{x}"] = _rand(third, 6, 6)
        consts["att_allowed"] = _allowed(third, (2, 1, 4, 4))
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


def _composed_ffn(h, W1, b1, W2, b2):
    return ag.matmul(ag.relu(ag.matmul(h, W1, b1)), W2, b2)


@pytest.mark.parametrize("constant_h", [False, True], ids=["param_h", "constant_h"])
@pytest.mark.parametrize("shape", [(5, 7, 8), (5, 1, 8), (9, 8)], ids=["NTe", "last_only", "2d"])
def test_ffn_matches_the_composed_ops_bit_for_bit(shape, constant_h):
    # one recompute node that replays matmul, relu and matmul in backward:
    # value and all five gradients as the composed ops give them, and a
    # constant input still gives the weights their gradients
    rng = np.random.default_rng(31)
    e, inner = shape[-1], 4 * shape[-1]
    h_data = rng.standard_normal(shape)
    kept = h_data.copy()
    weights = {"W1": rng.standard_normal((e, inner)), "b1": 0.5 * rng.standard_normal(inner),
               "W2": rng.standard_normal((inner, e)), "b2": rng.standard_normal(e)}
    up = rng.standard_normal(shape)

    def run(op):
        h = ag.constant(h_data) if constant_h else ag.param(h_data)
        ws = {name: ag.param(w) for name, w in weights.items()}
        out = op(h, ws["W1"], ws["b1"], ws["W2"], ws["b2"])
        nodes = ag.tape_size()
        ag.backward((out * ag.constant(up)).sum())
        return nodes, out.data, h.grad, {name: w.grad for name, w in ws.items()}

    got_nodes, got, got_h, got_w = run(ag.ffn)
    want_nodes, want, want_h, want_w = run(_composed_ffn)
    assert (got_nodes, want_nodes) == (1, 3)
    np.testing.assert_array_equal(got, want)
    if constant_h:
        assert got_h is None and want_h is None
    else:
        np.testing.assert_array_equal(got_h, want_h)
    for name, g in want_w.items():
        assert g is not None, name
        np.testing.assert_array_equal(got_w[name], g, err_msg=name)
    np.testing.assert_array_equal(h_data, kept)  # relu wrote into ffn's own buffer


def _composed_attention(h, Wq, Wk, Wv, Wo, allowed, n_heads, rate, rngs, last_only):
    n, t, e = h.shape
    dh = e // n_heads
    rows = 1 if last_only else t

    def split(x, r):
        return ag.transpose(x.reshape(n, r, n_heads, dh), (0, 2, 1, 3))

    def drop(x, site):
        return x if rngs is None else ag.dropout(x, rate, rngs[site])

    k = split(ag.matmul(h, Wk), t)
    v = split(ag.matmul(h, Wv), t)
    if last_only:
        h = ag.embedding_lookup(h.reshape(n * t, e), np.arange(n) * t + (t - 1)).reshape(n, 1, e)
        allowed = allowed[:, :, -1:, :]
    q = split(ag.matmul(h, Wq), rows)
    w = drop(ag.softmax(ag.matmul(q, ag.transpose_last(k)) * (1.0 / np.sqrt(dh)), allowed), 0)
    ctx = ag.transpose(ag.matmul(w, v), (0, 2, 1, 3)).reshape(n, rows, e)
    return h + drop(ag.matmul(ctx, Wo), 1)


@pytest.mark.parametrize("dropout", [False, True], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("last_only", [False, True], ids=["full", "last_only"])
@pytest.mark.parametrize("constant_h", [False, True], ids=["param_h", "constant_h"])
def test_attention_matches_the_composed_ops_bit_for_bit(constant_h, last_only, n_heads, dropout):
    # one recompute node that replays the composed ops in backward:
    # value, h's gradient (four parts in the composed order) and the four
    # weights' gradients as the composed ops give them, over left-padded
    # rows (a PAD query is blocked throughout), with the same dropout draws
    rng = np.random.default_rng(37)
    n, t, e = 5, 6, 8
    ids = rng.integers(1, 20, size=(n, t))
    for r in range(n):
        ids[r, :r + 1] = 0
    ids[0, 0] = 4
    allowed = attention_mask(ids)
    h_data = rng.standard_normal((n, t, e))
    kept = h_data.copy()
    weights = {x: rng.standard_normal((e, e)) for x in "qkvo"}
    up = rng.standard_normal((n, 1 if last_only else t, e))

    def run(op):
        h = ag.constant(h_data) if constant_h else ag.param(h_data)
        ws = {x: ag.param(w) for x, w in weights.items()}
        rngs = (np.random.default_rng(1), np.random.default_rng(2)) if dropout else None
        out = op(h, ws["q"], ws["k"], ws["v"], ws["o"], allowed, n_heads, 0.3, rngs, last_only)
        nodes = ag.tape_size()
        ag.backward((out * ag.constant(up)).sum())
        return nodes, out.data, h.grad, {x: w.grad for x, w in ws.items()}

    got_nodes, got, got_h, got_w = run(
        lambda *args: ag.attention(*args[:-1], last_only=args[-1]))
    want_nodes, want, want_h, want_w = run(_composed_attention)
    assert got_nodes == 1 and want_nodes >= 18
    np.testing.assert_array_equal(got, want)
    if constant_h:
        assert got_h is None and want_h is None
    else:
        np.testing.assert_array_equal(got_h, want_h)
    for x, g in want_w.items():
        assert g is not None, x
        np.testing.assert_array_equal(got_w[x], g, err_msg=f"W{x}")
    np.testing.assert_array_equal(h_data, kept)


def test_backward_under_no_grad_still_replays_a_recompute_node():
    # the replay tapes whether or not no_grad is on, so a backward run
    # inside no_grad gives every input the composed ops' gradient
    rng = np.random.default_rng(43)
    h_data = rng.standard_normal((3, 4, 5))
    weights = [rng.standard_normal(shape) for shape in ((5, 20), (20,), (20, 5), (5,))]
    up = rng.standard_normal((3, 4, 5))

    def run(op, mode):
        h, ws = ag.param(h_data), [ag.param(w) for w in weights]
        loss = (op(h, *ws) * ag.constant(up)).sum()
        with mode():
            ag.backward(loss)
        return [h.grad] + [w.grad for w in ws]

    got = run(ag.ffn, ag.no_grad)
    want = run(_composed_ffn, contextlib.nullcontext)
    assert ag.tape_size() == 0
    for i, (g, w) in enumerate(zip(got, want)):
        assert g is not None, i
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("listed", [True, False], ids=["listed", "unlisted"])
def test_recompute_redraws_the_forward_mask_only_from_listed_generators(listed):
    # backward sets a listed generator back to its state before the
    # forward, so the replayed dropout draws the forward's mask again; an
    # unlisted generator draws its next mask instead
    x = ag.param(np.random.default_rng(47).standard_normal(64))
    draws = np.random.default_rng(5)
    first, second = (draws.random(64) >= 0.5 for _ in range(2))
    rng = np.random.default_rng(5)
    out = ag.recompute(lambda x: ag.dropout(x, 0.5, rng), (x,), (rng,) if listed else ())
    np.testing.assert_array_equal(out.data, x.data * first * 2.0)
    ag.backward(out.sum())
    np.testing.assert_array_equal(x.grad, (first if listed else second) * 2.0)


def _softmax_grad(x, up):
    s = np.exp(x - x.max(axis=-1, keepdims=True))
    s = s / s.sum(axis=-1, keepdims=True)
    return s * (up - (up * s).sum(axis=-1, keepdims=True))


def _keep(seed, shape, rate=0.3):
    return np.random.default_rng(seed).random(shape) >= rate


# relu, dropout and softmax spend the gradient their node owns; each case
# hands one of them a gradient that is a view (a concat slice, a transpose,
# a reshape) or that a later rule shares out, next to a numpy reference
# computed out of place: (loss builder, reference of x's gradient, x's shape,
# the upstream weights' shape).
ALIASING_CASES = {
    "relu_of_concat": (
        lambda x, w: (ag.relu(ag.concat([x, x])) * w).sum(),
        lambda x, w: w[:3] * (x > 0) + w[3:] * (x > 0), (3, 4), (6, 4)),
    "concat_of_relus": (
        lambda x, w: (ag.concat([ag.relu(x), ag.relu(x * -1.0)], axis=1) * w).sum(),
        lambda x, w: w[:, :4] * (x > 0) - w[:, 4:] * (x < 0), (3, 4), (3, 8)),
    "dropout_of_transpose": (
        lambda x, w: (ag.dropout(ag.transpose(x, (1, 0)), 0.3, np.random.default_rng(5))
                      * w).sum(),
        lambda x, w: (w * _keep(5, (4, 3)) / 0.7).T, (3, 4), (4, 3)),
    "transpose_of_dropout": (
        lambda x, w: (ag.transpose(ag.dropout(x, 0.3, np.random.default_rng(5)), (1, 0))
                      * w).sum(),
        lambda x, w: w.T * _keep(5, (3, 4)) / 0.7, (3, 4), (4, 3)),
    "softmax_after_reshape": (
        lambda x, w: (ag.softmax(x.reshape(2, 6), ALL) * w).sum(),
        lambda x, w: _softmax_grad(x.reshape(2, 6), w).reshape(3, 4), (3, 4), (2, 6)),
    "reshape_of_softmax": (
        lambda x, w: (ag.softmax(x, ALL).reshape(12) * w).sum(),
        lambda x, w: _softmax_grad(x, w.reshape(3, 4)), (3, 4), (12,)),
    "relu_of_add": (
        lambda x, w: (ag.relu(ag.add(x, x)) * w).sum(),
        lambda x, w: 2.0 * w * (x > 0), (3, 4), (3, 4)),
    "add_of_relus": (
        lambda x, w: (ag.add(ag.relu(x), ag.relu(x * -1.0)) * w).sum(),
        lambda x, w: w * (x > 0) - w * (x < 0), (3, 4), (3, 4)),
}


@pytest.mark.parametrize("name", sorted(ALIASING_CASES))
def test_in_place_rules_are_safe_on_shared_and_viewed_gradients(name):
    build, reference, x_shape, w_shape = ALIASING_CASES[name]
    rng = np.random.default_rng(41)
    x = ag.param(rng.standard_normal(x_shape))
    x.data += np.sign(x.data) * 0.05  # keep relu kinks away from the FD step
    w_data = rng.standard_normal(w_shape)
    w = ag.constant(w_data)
    assert max_rel_error(lambda: build(x, w), {"x": x}, rng, coords_per_param=12) <= 1e-6
    ag.backward(build(x, w))
    np.testing.assert_allclose(x.grad, reference(x.data, w_data), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("rows", [1, 122, 602])
def test_embedding_backward_matches_add_at_bit_for_bit(rows):
    # 7680 ids, most of them repeated, scattered into a (rows, 64) table
    rng = np.random.default_rng(rows)
    table = ag.param(rng.standard_normal((rows, 64)))
    ids = rng.integers(0, rows, size=(256, 30))
    up = rng.standard_normal((256, 30, 64))
    ag.backward((ag.embedding_lookup(table, ids) * ag.constant(up)).sum())
    want = np.zeros((rows, 64))
    np.add.at(want, ids.reshape(-1), up.reshape(-1, 64))
    np.testing.assert_array_equal(table.grad, want)


def _log_softmax_nll(x, targets):
    """-log_softmax(x)[target], forming the whole max-shifted log-softmax."""
    z = x - x.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]


@pytest.mark.parametrize("shape, scale", [((7, 2001), 3.0), ((5, 1), 1.0), ((6, 40), 1e6)],
                         ids=["wide", "one_column", "large"])
def test_cross_entropy_matches_the_log_softmax_oracle(shape, scale):
    # the one-buffer head: losses bit for bit the full log-softmax's,
    # gradient g * (softmax - onehot), and the logits left as they were
    rng = np.random.default_rng(shape[1])
    logits = ag.param(scale * rng.standard_normal(shape))
    kept = logits.data.copy()
    targets = rng.integers(0, shape[1], size=shape[0])
    g = rng.standard_normal(shape[0])
    loss = ag.cross_entropy(logits, targets)
    assert loss.data.tobytes() == _log_softmax_nll(kept, targets).tobytes()
    ag.backward((loss * ag.constant(g)).sum())
    soft = np.exp(kept - kept.max(axis=-1, keepdims=True))
    soft /= soft.sum(axis=-1, keepdims=True)
    want = g[:, None] * (soft - np.eye(shape[1])[targets])
    np.testing.assert_allclose(logits.grad, want, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(logits.data, kept)


@pytest.mark.parametrize("shape, scale", [((7, 2001), 3.0), ((6, 40), 1e6)],
                         ids=["wide", "large"])
def test_untaped_cross_entropy_gives_the_taped_losses_bit_for_bit(shape, scale):
    # an untaped call skips the normalisation only the rule reads; the
    # losses are taken before it, under no_grad and for constant logits alike
    rng = np.random.default_rng(shape[1] + 1)
    data = scale * rng.standard_normal(shape)
    targets = rng.integers(0, shape[1], size=shape[0])
    taped = ag.cross_entropy(ag.param(data), targets)
    assert ag.tape_size() == 1
    ag.clear_tape()
    with ag.no_grad():
        no_grad = ag.cross_entropy(ag.param(data), targets)
    constant = ag.cross_entropy(ag.constant(data), targets)
    assert ag.tape_size() == 0
    assert no_grad.data.tobytes() == taped.data.tobytes() == constant.data.tobytes()


def test_row_slice_matches_the_whole_table_gather():
    # each row appears once, so the slice's gradient is the gather's bit for bit
    rng = np.random.default_rng(9)
    table = ag.param(rng.standard_normal((12, 5)))
    up = ag.constant(rng.standard_normal((10, 5)))
    grads = []
    for take in (lambda: ag.row_slice(table, 1, 11),
                 lambda: ag.embedding_lookup(table, np.arange(1, 11))):
        rows = take()
        np.testing.assert_array_equal(rows.data, table.data[1:11])
        ag.backward((rows * up).sum())
        grads.append(table.grad)
        table.grad = None
    np.testing.assert_array_equal(*grads)
    with pytest.raises(ShapeError):
        ag.row_slice(table, 3, 13)


# A training forward of the block stack, for the tape's retention rule.
TRAIN_DIMS = ModelDims(n_items=30, embed_dim=16, n_layers=2, n_heads=2, dropout=0.1)


def _left_padded_ids(rng):
    ids = rng.integers(1, 31, size=(5, 9))
    for r in range(4):
        ids[r, :2 * r] = 0
    return ids


def _holds_tensor(value):
    """A Tensor, or a list, tuple or function whose items or closure cells hold one."""
    if isinstance(value, (list, tuple)):
        return any(_holds_tensor(v) for v in value)
    if isinstance(value, types.FunctionType):
        return any(_holds_tensor(c.cell_contents) for c in value.__closure__ or ())
    return isinstance(value, ag.Tensor)


def test_no_taped_rule_holds_a_tensor():
    # a rule saves arrays, never a Tensor, so no output outlives the
    # forward code's last reference through the tape; recompute's rule
    # holds its fn, so neither fn nor a function fn captures may hold one
    enc = EncoderParams(TRAIN_DIMS, seed=1)
    rng = np.random.default_rng(2)
    ids = _left_padded_ids(rng)
    stream = SeedStream(3, "retention")
    h = transformer_stack(embed_sequence(ids, enc, stream), enc.blocks, TRAIN_DIMS, ids, stream)
    last = h.reshape(5 * 9, 16)
    logits = ag.matmul(ag.concat([last, last * 0.5], axis=1), ag.constant(rng.random((32, 31))))
    loss = ag.cross_entropy(logits, rng.integers(0, 31, size=45)).mean() + ag.softplus(h).sum()
    try:
        assert ag._TAPE[-1] is loss._node
        ops = {node.rule.__qualname__.split(".")[0] for node in ag._TAPE}
        assert {"embedding_lookup", "dropout", "matmul", "recompute", "layer_norm",
                "add", "mul", "concat", "cross_entropy", "softplus"} <= ops
        for node in ag._TAPE:
            assert not _holds_tensor(node.rule), node.rule.__qualname__
    finally:
        ag.clear_tape()


def test_activations_no_rule_reads_are_freed_before_backward(monkeypatch):
    # the Wo projection (dropout keeps only its mask) and every add output
    # (layer_norm and dropout keep their own arrays) are freed once
    # the forward drops them; holding them changes no gradient
    enc = EncoderParams(TRAIN_DIMS, seed=4)
    ids = _left_padded_ids(np.random.default_rng(5))
    wo = {id(blk.Wo) for blk in enc.blocks}
    matmul, add = ag.matmul, ag.add
    seen = []

    def spy_matmul(a, b, bias=None):
        out = matmul(a, b, bias)
        if id(b) in wo:
            seen.append(out.data)
        return out

    def spy_add(a, b):
        out = add(a, b)
        seen.append(out.data)
        return out

    monkeypatch.setattr(ag, "matmul", spy_matmul)
    monkeypatch.setattr(ag, "add", spy_add)

    def run(hold):
        seen.clear()
        h = encode_batch(ids, enc, stream=SeedStream(6, "retention"))
        loss = (h * ag.constant(np.linspace(-1.0, 1.0, h.size).reshape(h.shape))).sum()
        del h
        refs = [weakref.ref(a) for a in seen]
        if not hold:
            seen.clear()
        alive = sum(r() is not None for r in refs)
        ag.backward(loss)
        grads = {}
        for name, p in enc.named_params().items():
            grads[name], p.grad = p.grad, None
        return len(refs), alive, grads

    n_held, alive_held, want = run(hold=True)
    n, alive, got = run(hold=False)
    assert n == n_held == 1 + 2 * 3 and alive_held == n  # embedding add; 2 adds + Wo a block
    assert alive == 0, f"{alive} of {n} activations outlive the forward"
    for name, g in want.items():
        np.testing.assert_array_equal(got[name], g, err_msg=name)


def _training_memory(backward: bool) -> tuple[float, float]:
    """MiB traced over one training forward of a (256, 40) batch at embed 64:
    (live after the forward, which is what the tape keeps for backward;
    peak through backward too, or the forward's peak without backward)."""
    dims = ModelDims(n_items=100, embed_dim=64, dropout=0.1)
    probe = EncoderParams(dims, seed=0)
    ids = np.random.default_rng(0).integers(1, 101, size=(256, 40))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = encode_batch(ids, probe, stream=SeedStream(0, "memory"))
        live = tracemalloc.get_traced_memory()[0] - before
        assert out.shape == (256, 40, 64)
        if backward:
            loss = (out * ag.constant(np.linspace(-1.0, 1.0, out.size).reshape(out.shape))).sum()
            del out
            ag.backward(loss)
            assert all(p.grad is not None for p in probe.named_params().values())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        ag.clear_tape()
    return live / 2**20, peak / 2**20


def test_training_forward_holds_no_attention_intermediates():
    # everything the tape keeps for backward: 26.9 MiB now that attention
    # keeps only its inputs' arrays (27.9 MiB with its two dropout masks
    # too); 53.8 MiB while the tape held q, k, v, the softmax and the
    # context, 202 MiB with one array per bias
    # add, affine step and float dropout mask, 151 MiB while the tape held
    # every op's output, and 74 MiB while it held the FFN's hidden layer
    live, _ = _training_memory(backward=False)
    assert live <= 32, f"training forward holds {live:.1f} MiB"


def test_training_forward_holds_no_ffn_hidden_layer():
    # neither ffn nor attention keeps an intermediate on the tape, so the
    # forward holds 26.9 MiB and forward plus backward, which replays one
    # sublayer's ops at a time, peaks at 68.9 MiB (27.9 and 69.8 while
    # attention kept its dropout masks; 53.8 and 95.6 while attention's
    # intermediates were taped; 73.8 and 110.8 while the relu output was
    # taped too)
    live, peak = _training_memory(backward=True)
    assert live <= 32, f"training forward holds {live:.1f} MiB"
    assert peak <= 76, f"forward and backward peak at {peak:.1f} MiB"
