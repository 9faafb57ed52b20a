"""Encoder: embedding rules, masking, causality, padding inertness."""

import numpy as np
import pytest

from seqrec import autograd as ag
from seqrec.autograd import NEG_INF
from seqrec.encoder import (
    EncoderParams,
    ModelDims,
    attention_mask,
    embed_sequence,
    encode_batch,
    position_indices,
    take_last_position,
    transformer_stack,
)
from seqrec.errors import ShapeError
from seqrec.seeding import SeedStream

DIMS = ModelDims(n_items=20, embed_dim=16, n_layers=2, n_heads=2, dropout=0.5,
                 max_len=50, max_aug_len=60)


@pytest.fixture(scope="module")
def enc():
    return EncoderParams(DIMS, seed=42)


def test_dims_vocabulary_layout():
    assert DIMS.vocab_size == 22
    assert DIMS.mask_id == 21
    with pytest.raises(ValueError):
        ModelDims(n_items=10, embed_dim=10, n_heads=3)


def test_position_indices_skip_padding():
    ids = np.array([[0, 0, 5, 7], [1, 2, 3, 4]])
    np.testing.assert_array_equal(position_indices(ids),
                                  [[0, 0, 0, 1], [0, 1, 2, 3]])


def test_embed_single_item_with_zero_positions(enc):
    probe = EncoderParams(DIMS, seed=1)
    probe.pos_emb.data[:] = 0.0
    h = embed_sequence(np.array([[3]]), probe)
    np.testing.assert_array_equal(h.data[0, 0], probe.item_emb.data[3])


def test_embed_rejects_overlong_input(enc):
    ids = np.ones((1, DIMS.max_aug_len + 1), dtype=np.int64)
    with pytest.raises(ShapeError):
        embed_sequence(ids, enc)


def test_embed_rejects_out_of_range_id(enc):
    with pytest.raises(ShapeError):
        embed_sequence(np.array([[22]]), enc)


def test_eval_forward_is_deterministic(enc):
    ids = np.array([[2, 5, 9, 1]])
    a = encode_batch(ids, enc).data
    b = encode_batch(ids, enc).data
    np.testing.assert_array_equal(a, b)


def test_train_dropout_keyed_by_stream(enc):
    ids = np.array([[2, 5, 9, 1]])
    a = encode_batch(ids, enc, stream=SeedStream(1, "x")).data
    b = encode_batch(ids, enc, stream=SeedStream(1, "x")).data
    c = encode_batch(ids, enc, stream=SeedStream(2, "x")).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_attention_mask_blocks_pad_and_future():
    ids = np.array([[0, 3, 4]])
    mask = attention_mask(ids)
    assert mask.dtype == bool and mask.shape == (1, 1, 3, 3)
    # column 0 is PAD: blocked for every query; a key after its query is
    # blocked; the query itself and earlier real keys are allowed
    np.testing.assert_array_equal(mask[0, 0], [[False, False, False],
                                               [False, True, False],
                                               [False, True, True]])


def test_masked_attention_rows_are_distributions():
    rng = np.random.default_rng(0)
    ids = np.array([[0, 0, 3, 4, 5]])
    scores = ag.constant(rng.standard_normal((1, 1, 5, 5)))
    mask = attention_mask(ids)
    weights = ag.softmax(scores, mask).data[0, 0]
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
    # blocked entries carry exactly zero weight for real queries, and a PAD
    # query, blocked throughout, spreads its weight evenly
    real = mask[0, 0, 2:]
    assert np.all(weights[2:][~real] == 0.0) and np.all(weights[2:][real] > 0.0)
    np.testing.assert_array_equal(weights[:2], 0.2)


def test_causality_prefix_invariant_to_suffix(enc):
    rng = np.random.default_rng(4)
    ids = rng.integers(1, 21, size=(1, 8))
    out1 = encode_batch(ids, enc).data
    ids2 = ids.copy()
    ids2[0, 5:] = rng.integers(1, 21, size=3)
    out2 = encode_batch(ids2, enc).data
    np.testing.assert_array_equal(out1[0, :5], out2[0, :5])
    assert not np.array_equal(out1[0, 5:], out2[0, 5:])


def test_padding_inertness(enc):
    # masked PAD keys get exactly zero weight; the residual ulp-level
    # differences come from BLAS picking size-dependent kernels
    short = np.array([[7, 3]])
    padded = np.array([[0, 0, 0, 7, 3]])
    h_short = encode_batch(short, enc).data
    h_padded = encode_batch(padded, enc).data
    np.testing.assert_allclose(h_short[0], h_padded[0, 3:], atol=1e-12, rtol=0)


def test_all_pad_but_one_matches_length_one_forward(enc):
    single = encode_batch(np.array([[9]]), enc).data
    padded = encode_batch(np.array([[0, 0, 0, 9]]), enc).data
    np.testing.assert_allclose(single[0, 0], padded[0, 3], atol=1e-12, rtol=0)


def test_output_shape(enc):
    for t in (1, 5, 60):
        ids = np.ones((2, t), dtype=np.int64)
        assert encode_batch(ids, enc).shape == (2, t, 16)


def test_take_last_position():
    h = ag.constant(np.arange(24.0).reshape(2, 3, 4))
    out = take_last_position(h)
    np.testing.assert_array_equal(out.data, h.data[:, -1, :])


def test_encoder_gradients_flow_to_all_params(enc):
    probe = EncoderParams(DIMS, seed=7)
    ids = np.array([[2, 5, 9], [1, 4, 0]])  # second row has trailing pad? no: pad is left
    ids = np.array([[2, 5, 9], [0, 1, 4]])
    h = encode_batch(ids, probe)
    ag.backward((h * ag.constant(np.ones(h.shape))).sum() * 0.5)
    for name, p in probe.named_params().items():
        assert p.grad is not None, name


def _rel_diff(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_last_only_matches_the_full_stacks_last_column(n_layers):
    # left-padded rows of mixed lengths; the value and every parameter
    # gradient of a scalar loss on the last column must not depend on
    # whether the final block computes the other columns
    dims = ModelDims(n_items=20, embed_dim=16, n_layers=n_layers, n_heads=2, dropout=0.0)
    probe = EncoderParams(dims, seed=13)
    ids = np.array([[0, 0, 0, 0, 4, 9], [0, 0, 3, 8, 1, 20], [5, 6, 7, 2, 11, 12],
                    [0, 0, 0, 0, 0, 17]])
    weights = ag.constant(np.random.default_rng(5).standard_normal((4, 16)))

    def run(last_only):
        h = embed_sequence(ids, probe)
        out = transformer_stack(h, probe.blocks, dims, ids, last_only=last_only)
        if not last_only:
            out = take_last_position(out)
        ag.backward((out * weights).sum())
        grads = {}
        for name, p in probe.named_params().items():
            grads[name], p.grad = p.grad, None
        return out.data, grads

    full, full_grads = run(last_only=False)
    last, last_grads = run(last_only=True)
    assert last.shape == (4, 16)
    assert _rel_diff(last, full) <= 1e-12
    for name, g in full_grads.items():
        assert _rel_diff(last_grads[name], g) <= 1e-12, name


# The block as it was built from one-output ops: a separate add for each FFN
# bias, an np.var layer norm followed by "* gain + bias", an additive float64
# attention mask, an unshifted-buffer softmax and a float dropout mask.
# Forward rules and gradients are the previous kernel's, so transformer_stack
# must match them bit for bit.


def _old_softmax(x):
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g, sx):
        inner = (g * y).sum(axis=-1, keepdims=True)
        ag._accum(sx, y * (g - inner))

    return ag._record(ag.Tensor(y), (x,), bw)


def _old_layer_norm(x, gain, bias, eps=1e-8):
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bw(g, sx):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        ag._accum(sx, inv * (g - gm - xhat * gx))

    return ag._record(ag.Tensor(xhat), (x,), bw) * gain + bias


def _old_dropout(x, rate, stream):
    keep = (stream.next_rng().random(x.shape) >= rate).astype(np.float64)
    scale = 1.0 / (1.0 - rate)

    def bw(g, sx):
        ag._accum(sx, g * keep * scale)

    return ag._record(ag.Tensor(x.data * keep * scale), (x,), bw)


def _old_stack(ids, enc: EncoderParams, stream, last_only):
    dims = enc.dims
    n, t = ids.shape
    e, heads, dh = dims.embed_dim, dims.n_heads, dims.head_dim
    h = ag.embedding_lookup(enc.item_emb, ids)
    h = _old_dropout(h + ag.embedding_lookup(enc.pos_emb, position_indices(ids)),
                     dims.dropout, stream)
    mask = np.where(attention_mask(ids), 0.0, NEG_INF)  # additive, a float64 constant

    def split_heads(x, rows):
        return ag.transpose(x.reshape(n, rows, heads, dh), (0, 2, 1, 3))

    for i, blk in enumerate(enc.blocks):
        k = split_heads(ag.matmul(h, blk.Wk), t)
        v = split_heads(ag.matmul(h, blk.Wv), t)
        rows = t
        if last_only and i == len(enc.blocks) - 1:
            rows = 1
            h = take_last_position(h).reshape(n, 1, e)
            mask = mask[:, :, -1:, :]
        q = split_heads(ag.matmul(h, blk.Wq), rows)
        scores = ag.matmul(q, ag.transpose_last(k)) * (1.0 / np.sqrt(dh)) + ag.constant(mask)
        attn = _old_dropout(_old_softmax(scores), dims.dropout, stream)
        ctx = ag.transpose(ag.matmul(attn, v), (0, 2, 1, 3)).reshape(n, rows, e)
        h = h + _old_dropout(ag.matmul(ctx, blk.Wo), dims.dropout, stream)
        h = _old_layer_norm(h, blk.ln1_g, blk.ln1_b)
        f = ag.relu(ag.matmul(h, blk.W1) + blk.b1)
        f = _old_dropout(ag.matmul(f, blk.W2) + blk.b2, dims.dropout, stream)
        h = _old_layer_norm(h + f, blk.ln2_g, blk.ln2_b)
    return h.reshape(n, e) if last_only else h


def _constant_adds():
    """Taped adds with a constant input: in a block stack, only a mask add."""
    return sum(node.rule.__qualname__.startswith("add.") and None in node.sinks
               for node in ag._TAPE)


@pytest.mark.parametrize("last_only", [False, True], ids=["full", "last_only"])
def test_stack_matches_the_one_output_op_block_bit_for_bit(last_only):
    # a training block (taped, dropout on) with its early releases, the
    # ffn node that recomputes its hidden layer in backward and the boolean
    # mask applied inside softmax: every value and gradient as the oracle's,
    # which keeps every array, copies for ReLU and adds a float mask to the
    # scores
    dims = ModelDims(n_items=20, embed_dim=16, n_layers=2, n_heads=2, dropout=0.1)
    probe = EncoderParams(dims, seed=21)
    rng = np.random.default_rng(8)
    for blk in probe.blocks:  # non-trivial affine and biases
        for name in ("ln1_g", "ln1_b", "b1", "b2", "ln2_g", "ln2_b"):
            getattr(blk, name).data += rng.standard_normal(getattr(blk, name).shape)
    ids = rng.integers(1, 21, size=(5, 7))
    for r in range(5):
        ids[r, :r + 1] = 0  # left padding of every length, one full row
    ids[0, 0] = 3

    def run(forward):
        h = forward(SeedStream(4, "oracle"))
        tape.append((ag.tape_size(), _constant_adds()))
        ag.backward((h * ag.constant(np.linspace(-1.0, 1.0, h.size).reshape(h.shape))).sum())
        grads = {}
        for name, p in probe.named_params().items():
            grads[name], p.grad = p.grad, None
        return h.data, grads

    tape = []
    got, got_grads = run(lambda s: transformer_stack(embed_sequence(ids, probe, s),
                                                     probe.blocks, dims, ids, s,
                                                     last_only=last_only))
    want, want_grads = run(lambda s: _old_stack(ids, probe, s, last_only))
    # the oracle tapes one mask add a block, six nodes a block that the
    # fused ops never had (two bias adds and each layer norm's gain mul and
    # bias add), and the W1 matmul and relu nodes that ffn folds into its own
    (got_len, got_adds), (want_len, want_adds) = tape
    assert (got_adds, want_adds) == (0, dims.n_layers)
    assert want_len - got_len == dims.n_layers * (1 + 6 + 2)
    np.testing.assert_array_equal(got, want)
    assert set(got_grads) == set(want_grads)
    for name, g in want_grads.items():
        assert g is not None, name
        np.testing.assert_array_equal(got_grads[name], g, err_msg=name)
