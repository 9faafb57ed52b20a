"""Recommender: scoring rules, loss closed forms, candidate scores."""

import tracemalloc

import numpy as np
import pytest

from seqrec import autograd as ag
from seqrec import recommender
from seqrec.data import pad_batch
from seqrec.encoder import (
    EncoderParams,
    ModelDims,
    encode_batch,
    take_last_position,
    transformer_stack,
)
from seqrec.recommender import (
    RecommenderParams,
    full_forward,
    item_logits,
    rec_loss,
    score_candidates,
    sequence_reprs,
)

DIMS = ModelDims(n_items=25, embed_dim=32, n_layers=1, n_heads=1, dropout=0.0)


def _softmax(x):
    p = np.exp(x - x.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def parts():
    return EncoderParams(DIMS, seed=3), RecommenderParams(DIMS, seed=4)


@pytest.fixture
def forward_ids(monkeypatch):
    """The id matrix of every recommender.full_forward call, in call order."""
    seen = []
    real_forward = recommender.full_forward

    def recording_forward(ids, *args, **kwargs):
        seen.append(ids)
        return real_forward(ids, *args, **kwargs)

    monkeypatch.setattr(recommender, "full_forward", recording_forward)
    return seen


def test_forward_preserves_shape(parts):
    enc, rec = parts
    ids = np.array([[1, 2, 3, 4], [0, 5, 6, 7]])
    h = encode_batch(ids, enc)
    assert transformer_stack(h, rec.blocks, DIMS, ids).shape == (2, 4, DIMS.embed_dim)
    assert full_forward(ids, enc, rec).shape == (2, DIMS.embed_dim)


def test_forward_is_causal(parts):
    enc, rec = parts

    def all_positions(ids):
        return transformer_stack(encode_batch(ids, enc), rec.blocks, DIMS, ids).data

    ids = np.array([[1, 2, 3, 4, 5, 6]])
    a = all_positions(ids)
    ids2 = ids.copy()
    ids2[0, 4:] = [9, 10]
    b = all_positions(ids2)
    np.testing.assert_array_equal(a[0, :4], b[0, :4])


def test_degenerate_blocks_pass_residual_through(parts):
    enc, _ = parts
    rec = RecommenderParams(DIMS, seed=9)
    for blk in rec.blocks:
        blk.Wo.data[:] = 0.0  # attention contributes nothing
        blk.W2.data[:] = 0.0  # FFN contributes nothing
        blk.b2.data[:] = 0.0
    rng = np.random.default_rng(0)
    h_rows = rng.standard_normal((1, 5, DIMS.embed_dim))
    h_rows = (h_rows - h_rows.mean(-1, keepdims=True)) / h_rows.std(-1, keepdims=True)
    ids = np.ones((1, 5), dtype=np.int64)
    out = transformer_stack(ag.constant(h_rows), rec.blocks, DIMS, ids).data
    # with zeroed sublayers each block is layer_norm twice; normalized rows
    # pass through up to the epsilon in the variance
    np.testing.assert_allclose(out, h_rows, atol=1e-6)


def test_catalog_scores_leave_pad_and_mask_out(parts):
    # one score per real item: PAD and MASK get no column, hence no mass
    enc, rec = parts
    catalog = np.arange(1, DIMS.n_items + 1)[None, :]
    scores = score_candidates([[3, 8, 2]], catalog, enc, rec)
    assert scores.shape == (1, DIMS.n_items)
    probs = _softmax(scores)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_aligned_embedding_rows_score_their_item():
    # one-hot-ish item rows: a hidden state equal to row k scores item k first
    enc = EncoderParams(DIMS, seed=5)
    eye = np.zeros((DIMS.vocab_size, DIMS.embed_dim))
    eye[:, :DIMS.vocab_size] = np.eye(DIMS.vocab_size)
    enc.item_emb.data = eye
    for k in (1, 7, 25):
        h = ag.constant(eye[k][None, :])
        logits = item_logits(h, enc).data[0]
        assert logits.argmax() + 1 == k


def test_rec_loss_masks_the_last_item(parts, forward_ids):
    enc, rec = parts
    loss = rec_loss([[4, 9, 2], [7, 5]], enc, rec).item()
    # the 2- and 3-slot rows fall in two length classes, shortest first
    assert [ids.tolist() for ids in forward_ids] == [[[7, DIMS.mask_id]],
                                                     [[4, 9, DIMS.mask_id]]]
    with ag.no_grad():
        logits = [item_logits(full_forward(np.array(ids), enc, rec), enc).data[0]
                  for ids in ([[4, 9, DIMS.mask_id]], [[7, DIMS.mask_id]])]
    nll = [np.log(np.exp(row).sum()) - row[target - 1]
           for row, target in zip(logits, (2, 5))]
    assert abs(loss - np.mean(nll)) < 1e-12
    with pytest.raises(ValueError, match="need >= 2 items"):
        rec_loss([[3]], enc, rec)


def test_rec_loss_uniform_logits_is_ln_catalog(parts):
    enc = EncoderParams(DIMS, seed=6)
    rec = RecommenderParams(DIMS, seed=7)
    enc.item_emb.data[:] = 0.0  # all candidate scores collapse to zero
    loss = rec_loss([[3, 8, 2], [7, 5, 1]], enc, rec)
    assert abs(loss.item() - np.log(DIMS.n_items)) < 1e-12


def test_rec_loss_matches_manual_nll(parts):
    enc, rec = parts
    seq = [4, 9, 2, 11]
    loss = rec_loss([seq], enc, rec)
    ids = np.array([seq[:-1] + [DIMS.mask_id]])
    with ag.no_grad():  # every position through the recommender stack, then the last
        h = transformer_stack(encode_batch(ids, enc), rec.blocks, DIMS, ids)
        logits = item_logits(take_last_position(h), enc).data[0]
    shifted = logits - logits.max()
    manual = -(shifted[seq[-1] - 1] - np.log(np.exp(shifted).sum()))
    assert abs(loss.item() - manual) < 1e-12


def test_rec_loss_decreases_with_training(parts):
    from seqrec.optim import AdamState, ParamStore, adam_step

    enc = EncoderParams(DIMS, seed=8)
    rec = RecommenderParams(DIMS, seed=9)
    # deterministic transitions: 1->2->3->4->5
    seqs = [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [3, 4, 5, 6, 7]] * 4
    params = ParamStore({**enc.named_params(), **rec.named_params()})
    opt = AdamState(params, lr=0.01)
    first = rec_loss(seqs, enc, rec).item()
    for _ in range(30):
        loss = rec_loss(seqs, enc, rec)
        ag.backward(loss)
        params.fill_missing_grads()
        adam_step(params, opt)
    assert rec_loss(seqs, enc, rec).item() < first


def test_score_candidates_matches_distribution(parts):
    # the candidates' scores order them as the next-item distribution over
    # the whole catalog does, computed here from the history plus MASK
    enc, rec = parts
    history = [3, 8, 2]
    cands = np.array([[1, 5, 20]])
    scores = score_candidates([history], cands, enc, rec)[0]
    with ag.no_grad():
        ids = np.array([history + [DIMS.mask_id]])
        probs = _softmax(item_logits(full_forward(ids, enc, rec), enc).data)[0]
    order_scores = np.argsort(-scores)
    order_probs = np.argsort(-probs[cands[0] - 1])
    np.testing.assert_array_equal(order_scores, order_probs)


MIXED_LENGTHS = (33, 1, 9, 59, 2, 17, 5, 3)  # six length classes, out of order


def mixed_histories():
    return [[1 + (7 * i + 3 * j) % DIMS.n_items for j in range(n)]
            for i, n in enumerate(MIXED_LENGTHS)]


def test_grouped_scores_match_scoring_each_row_alone(parts):
    # one chunk spanning several length classes: each row's scores equal the
    # row scored by itself, in input order, up to padding's last-ulp rounding
    enc, rec = parts
    histories = mixed_histories()
    rng = np.random.default_rng(0)
    cands = rng.integers(1, DIMS.n_items + 1, size=(len(histories), 6))
    grouped = score_candidates(histories, cands, enc, rec)
    alone = np.concatenate([score_candidates([h], c[None], enc, rec)
                            for h, c in zip(histories, cands)])
    np.testing.assert_allclose(grouped, alone, rtol=0, atol=1e-12)


def test_scores_run_one_forward_per_length_class(parts, forward_ids):
    enc, rec = parts
    histories = mixed_histories()
    score_candidates(histories, np.ones((len(histories), 2), dtype=np.int64), enc, rec)
    # classes of 2, 3-4, 5-8, 9-16, 17-32 and 33-64 slots, each padded to its widest row
    assert [ids.shape[1] for ids in forward_ids] == [2, 4, 6, 10, 18, 60]


def test_score_candidates_rejects_ids_outside_the_catalog(parts):
    # id 0 would read the last item's score and n_items + 1 has no row
    enc, rec = parts
    for bad in (0, DIMS.n_items + 1):
        with pytest.raises(ValueError, match="candidate ids"):
            score_candidates([[3, 4]], np.array([[bad, 5]]), enc, rec)


# one batch over six length classes, out of order: single-row classes, and a
# row longer than the model's window that is clipped to its last 60 items
TRAIN_LENGTHS = (33, 2, 9, 75, 3, 17, 5, 40)


def one_padded_pass(rows, enc, rec, stream=None):
    """The oracle for recommender._class_forward: every row in one padded pass."""
    ids = pad_batch(rows)
    return recommender.full_forward(ids, enc, rec, stream=stream)


def train_rows():
    return [[1 + (5 * i + 3 * j) % DIMS.n_items for j in range(n)]
            for i, n in enumerate(TRAIN_LENGTHS)]


def loss_and_grads(make_loss, params):
    for t in params.values():
        t.grad = None
    loss = make_loss()
    ag.backward(loss)
    grads = {n: t.grad.copy() for n, t in params.items() if t.grad is not None}
    for t in params.values():
        t.grad = None
    return loss.item(), grads


def assert_close_relative(got, want, rtol=1e-12):
    """Equal up to rtol times the largest magnitude of `want`."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("stack", ["rec_loss", "sequence_reprs"])
def test_grouped_stacks_match_one_padded_pass(parts, monkeypatch, stack):
    enc, rec = parts
    params = {**enc.named_params(), **rec.named_params()}
    seqs = train_rows()
    if stack == "rec_loss":
        make_loss = lambda: rec_loss(seqs, enc, rec)
    else:  # a loss that reads every row's representation unevenly
        weights = ag.constant(np.arange(len(seqs) * DIMS.embed_dim, dtype=float)
                              .reshape(len(seqs), DIMS.embed_dim) / 100)
        make_loss = lambda: (sequence_reprs(seqs, enc, rec) * weights).sum()
    grouped, g_grouped = loss_and_grads(make_loss, params)
    monkeypatch.setattr(recommender, "_class_forward", one_padded_pass)
    padded, g_padded = loss_and_grads(make_loss, params)
    assert abs(grouped - padded) <= 1e-12 * abs(padded)
    assert sorted(g_grouped) == sorted(g_padded) and len(g_padded) > 10
    for name in g_padded:
        assert_close_relative(g_grouped[name], g_padded[name])


def test_grouped_reprs_follow_the_input_order(parts):
    enc, rec = parts
    seqs = train_rows()
    perm = np.random.default_rng(1).permutation(len(seqs))
    with ag.no_grad():
        reprs = sequence_reprs(seqs, enc, rec).data
        permuted = sequence_reprs([seqs[i] for i in perm], enc, rec).data
    np.testing.assert_allclose(permuted, reprs[perm], rtol=0, atol=1e-12)


@pytest.mark.parametrize("stack", ["rec_loss", "sequence_reprs"])
def test_training_stacks_run_one_forward_per_length_class(parts, forward_ids, stack):
    enc, rec = parts
    getattr(recommender, stack)(train_rows(), enc, rec)
    # classes of 2, 3, 5, 9, 17 and 33-60 slots (the 75-item row is clipped)
    assert [ids.shape[1] for ids in forward_ids] == [2, 3, 5, 9, 17, 60]


def test_scoring_forward_peaks_at_most_32_mib():
    # traced peak of a no-grad full_forward at embed 64 over the widest
    # augment-at-test scoring class of the benchmark, 136 rows x 60 slots:
    # 67.0 MiB while each block's locals kept every intermediate and ReLU
    # copied the W1 product; 27.7 MiB when each array goes once read and
    # ReLU overwrites the W1 product (39.6 MiB with a ReLU copy); 24.4 MiB
    # with the attention mask a boolean that softmax applies, not a float
    dims = ModelDims(n_items=120, embed_dim=64, dropout=0.1)
    enc, rec = EncoderParams(dims, seed=0), RecommenderParams(dims, seed=1)
    ids = np.random.default_rng(0).integers(1, 121, size=(136, 60))
    with ag.no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = full_forward(ids, enc, rec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert out.shape == (136, 64)
    assert peak <= 32 * 2**20, f"scoring forward peaked at {peak / 2**20:.1f} MiB"
