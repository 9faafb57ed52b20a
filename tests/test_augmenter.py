"""Augmenter: operation head, reverse generator, restoration loss, generation."""

import numpy as np
import pytest

from gradcheck import directional_rel_error, max_rel_error
from seqrec import augmenter as am
from seqrec import autograd as ag
from seqrec.augmenter import (
    AugmenterParams,
    augmenter_loss,
    generate_augmented,
    generate_augmented_batch,
    generator_forward,
    predict_op_logits,
    predict_ops,
    restoration_accuracy,
    reverse_generate,
)
from seqrec.augops import (
    OP_DELETE,
    OP_INSERT,
    OP_KEEP,
    CorruptionConfig,
    CorruptionRecord,
    corrupt_sequence,
)
from seqrec.encoder import EncoderParams, ModelDims, encode_batch

DIMS = ModelDims(n_items=20, embed_dim=16, n_layers=1, n_heads=1, dropout=0.5,
                 max_len=50, max_aug_len=60, max_insert=5)


def fresh_params(seed=0):
    return EncoderParams(DIMS, seed), AugmenterParams(DIMS, seed + 1)


# ---------------------------------------------------------------------------
# operation head
# ---------------------------------------------------------------------------


def test_zero_projection_gives_uniform_ops():
    enc, aug = fresh_params()
    aug.op_proj.data[:] = 0.0
    h = encode_batch(np.array([[1, 2, 3]]), enc)
    probs = predict_ops(h, aug).data
    np.testing.assert_allclose(probs, 1 / 3, atol=1e-15)


def test_op_rows_are_distributions():
    enc, aug = fresh_params(3)
    h = encode_batch(np.array([[4, 9, 2, 7]]), enc)
    probs = predict_ops(h, aug).data
    assert probs.shape == (1, 4, 3)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_op_softmax_shift_invariance():
    enc, aug = fresh_params(4)
    h = encode_batch(np.array([[4, 9, 2]]), enc)
    logits = predict_op_logits(h, aug)
    shifted = logits + 3.7
    a = ag.softmax(logits).data
    b = ag.softmax(shifted).data
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert np.array_equal(a.argmax(-1), b.argmax(-1))


# ---------------------------------------------------------------------------
# reverse generator
# ---------------------------------------------------------------------------


def test_generator_distribution_covers_items_plus_stop():
    enc, aug = fresh_params(5)
    anchors = ag.constant(np.random.default_rng(0).standard_normal((2, 16)))
    logits = generator_forward(anchors, np.zeros((2, 0), dtype=np.int64), enc, aug)
    assert logits.shape == (2, 1, DIMS.n_items + 1)
    probs = ag.softmax(logits).data
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_generator_teacher_steps_are_causal():
    # step j must not depend on teacher items >= j
    enc, aug = fresh_params(6)
    anchor = ag.constant(np.random.default_rng(1).standard_normal((1, 16)))
    run_a = np.array([[3, 7, 5]], dtype=np.int64)
    run_b = np.array([[3, 7, 11]], dtype=np.int64)
    la = generator_forward(anchor, run_a, enc, aug).data
    lb = generator_forward(anchor, run_b, enc, aug).data
    np.testing.assert_array_equal(la[0, :3], lb[0, :3])
    assert not np.array_equal(la[0, 3], lb[0, 3])


def test_reverse_generate_respects_cap_and_determinism():
    enc, aug = fresh_params(7)
    anchor = np.random.default_rng(2).standard_normal(16)
    for cap in (1, 3, 5):
        run = reverse_generate(anchor, enc, aug, max_run=cap)
        assert len(run) <= cap
        assert all(1 <= x <= DIMS.n_items for x in run)
    again = reverse_generate(anchor, enc, aug, max_run=5)
    assert again == reverse_generate(anchor, enc, aug, max_run=5)


def test_reverse_generate_stop_first_gives_empty(monkeypatch):
    enc, aug = fresh_params(8)
    stop = DIMS.n_items

    def fake_forward(anchors, teacher, enc_, aug_, train=False, stream=None):
        r, m = teacher.shape
        logits = np.zeros((r, m + 1, DIMS.n_items + 1))
        logits[:, :, stop] = 5.0  # STOP dominates everywhere
        return ag.constant(logits)

    monkeypatch.setattr(am, "generator_forward", fake_forward)
    assert reverse_generate(np.zeros(16), enc, aug) == []


def test_reverse_generate_sample_mode_needs_rng():
    enc, aug = fresh_params(9)
    with pytest.raises(ValueError):
        reverse_generate(np.zeros(16), enc, aug, mode="sample")
    run = reverse_generate(np.zeros(16), enc, aug, mode="sample",
                           rng=np.random.default_rng(0))
    assert len(run) <= DIMS.max_insert


# ---------------------------------------------------------------------------
# restoration loss
# ---------------------------------------------------------------------------


def test_all_keep_op_term_is_len_times_ln3():
    enc, aug = fresh_params(10)
    aug.op_proj.data[:] = 0.0
    record = CorruptionRecord(s_mod=[3, 8, 5], ops=[OP_KEEP] * 3)
    loss, stats = augmenter_loss([record], enc, aug)
    assert abs(stats.op_nll_sum - 3 * np.log(3.0)) < 1e-10
    assert stats.n_op_positions == 3


def test_loss_finite_and_positive_on_random_records():
    enc, aug = fresh_params(11)
    ccfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=DIMS.n_items)
    rng = np.random.default_rng(3)
    records = [
        corrupt_sequence(list(rng.integers(1, DIMS.n_items + 1, size=8)), ccfg, seed=k)
        for k in range(6)
    ]
    loss, stats = augmenter_loss(records, enc, aug)
    assert np.isfinite(loss.item())
    assert loss.item() > 0
    assert stats.n_records == 6


def test_loss_matches_hand_rolled_accumulation():
    # independent oracle: pull the model's own probability rows and add up
    # -log p term by term (operations, teacher-forced items, final STOP)
    enc, aug = fresh_params(12)
    record = CorruptionRecord(
        s_mod=[4, 9, 2],
        ops=[OP_KEEP, OP_INSERT, OP_DELETE],
        ins_targets={1: [7, 3]},
        tail_targets=[5],
    )
    loss, stats = augmenter_loss([record], enc, aug)

    ids = np.array([[4, 9, 2, DIMS.mask_id]])
    with ag.no_grad():
        h = encode_batch(ids, enc)
        op_probs = predict_ops(h, aug).data[0]
        expected = 0.0
        for pos, op in enumerate(record.ops):
            expected += -np.log(op_probs[pos, op])
        h_flat = h.data.reshape(-1, 16)

        def run_nll(anchor_row, run):
            nll = 0.0
            teacher = np.array([run], dtype=np.int64)
            logits = generator_forward(ag.constant(h_flat[anchor_row][None]),
                                       teacher, enc, aug).data[0]
            steps = [item - 1 for item in run] + [DIMS.n_items]
            for j, cls in enumerate(steps):
                shifted = logits[j] - logits[j].max()
                logp = shifted - np.log(np.exp(shifted).sum())
                nll += -logp[cls]
            return nll

        expected += run_nll(1, [7, 3])   # insert anchored at position 1
        expected += run_nll(3, [5])      # tail anchored at the sentinel
    assert abs(loss.item() - expected) < 1e-10


def test_loss_gradients_match_finite_differences():
    enc, aug = fresh_params(13)
    ccfg = CorruptionConfig(0.4, 0.4, 0.2, n_items=DIMS.n_items)
    rng = np.random.default_rng(4)
    records = [
        corrupt_sequence(list(rng.integers(1, DIMS.n_items + 1, size=6)), ccfg, seed=k)
        for k in range(3)
    ]
    params = {}
    params.update(enc.named_params())
    params.update(aug.named_params())

    def build():
        return augmenter_loss(records, enc, aug)[0]

    assert directional_rel_error(build, params, rng) <= 1e-4
    assert max_rel_error(build, params, rng, coords_per_param=1) <= 1e-4


def test_restoration_accuracy_bounds():
    enc, aug = fresh_params(14)
    ccfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=DIMS.n_items)
    records = [corrupt_sequence(list(range(1, 10)), ccfg, seed=k) for k in range(4)]
    acc = restoration_accuracy(records, enc, aug)
    assert 0 <= acc.op_hits <= acc.n_op_positions
    assert 0 <= acc.ins_hits <= acc.n_ins_items < acc.n_ins_targets


def test_restoration_accuracy_reports_the_loss_sums():
    enc, aug = fresh_params(15)
    ccfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=DIMS.n_items)
    records = [corrupt_sequence(list(range(1, 3 + k)), ccfg, seed=k) for k in range(6)]
    _, stats = augmenter_loss(records, enc, aug)
    ag.clear_tape()
    acc = restoration_accuracy(records, enc, aug)
    for name in ("op_nll_sum", "ins_nll_sum", "n_records", "n_op_positions", "n_ins_targets"):
        assert getattr(acc, name) == getattr(stats, name), name
    assert acc.n_op_positions == sum(len(r.ops) for r in records)
    assert acc.n_ins_items == sum(len(run) for r in records
                                  for run in [*r.ins_targets.values(), r.tail_targets])


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _one_hot_op_patch(monkeypatch, layout):
    """Force op predictions: layout maps (row, col offset from left) -> op."""

    def fake_logits(h, aug_):
        n, w, _ = h.shape
        logits = np.zeros((n, w, 3))
        for (row, col), op in layout.items():
            logits[row, col, op] = 10.0
        return ag.constant(logits)

    monkeypatch.setattr(am, "predict_op_logits", fake_logits)


def test_generate_all_keep_is_identity(monkeypatch):
    enc, aug = fresh_params(15)
    monkeypatch.setattr(am, "_decode_runs",
                        lambda anchors, *a, **k: [[] for _ in range(anchors.shape[0])])
    aug.op_proj.data[:] = 0.0  # zero logits argmax to keep
    seq = [5, 2, 9, 14]
    assert generate_augmented(seq, enc, aug) == seq


def test_generate_splices_insert_run_reversed(monkeypatch):
    enc, aug = fresh_params(16)
    seq = [5, 2, 9]
    # batch width is len(seq)+1 (sentinel), so col 0 is the first real item;
    # force insert there with a decoded run in reverse order [x, y] = [7, 3]
    _one_hot_op_patch(monkeypatch, {(0, 0): OP_INSERT})

    def fake_decode(anchors, *a, **k):
        runs = [[] for _ in range(anchors.shape[0])]
        runs[0] = [7, 3]  # the insert slot comes before the sentinel slot
        return runs

    monkeypatch.setattr(am, "_decode_runs", fake_decode)
    out = generate_augmented(seq, enc, aug)
    assert out == [3, 7, 5, 2, 9]


def test_generate_oracle_restores_corruption(monkeypatch):
    # forcing the ground-truth labels and runs must map damage back exactly
    enc, aug = fresh_params(17)
    ccfg = CorruptionConfig(0.3, 0.5, 0.2, n_items=DIMS.n_items)
    rng = np.random.default_rng(9)
    for trial in range(40):
        seq = list(rng.integers(1, DIMS.n_items + 1, size=int(rng.integers(2, 12))))
        record = corrupt_sequence(seq, ccfg, seed=trial)
        if len(record.s_mod) > DIMS.max_aug_len - 1:
            continue
        w = len(record.s_mod) + 1
        layout = {(0, pos): op for pos, op in enumerate(record.ops)}

        def fake_logits(h, aug_, layout=layout, w=w):
            logits = np.zeros((1, w, 3))
            for (row, col), op in layout.items():
                logits[row, col, op] = 10.0
            return ag.constant(logits)

        runs = [record.ins_targets[p] for p in sorted(record.ins_targets)]
        runs.append(record.tail_targets)

        def fake_decode(anchors, *a, runs=runs, **k):
            assert anchors.shape[0] == len(runs)
            return [list(r) for r in runs]

        monkeypatch.setattr(am, "predict_op_logits", fake_logits)
        monkeypatch.setattr(am, "_decode_runs", fake_decode)
        assert generate_augmented(record.s_mod, enc, aug) == seq


def test_generate_never_empty_and_bounded():
    enc, aug = fresh_params(18)
    rng = np.random.default_rng(11)
    for trial in range(10):
        seq = list(rng.integers(1, DIMS.n_items + 1, size=int(rng.integers(1, 55))))
        out = generate_augmented(seq, enc, aug)
        assert 1 <= len(out) <= DIMS.max_aug_len
        assert all(1 <= x <= DIMS.n_items for x in out)


def test_generate_stochastic_bounded_and_seeded():
    enc, aug = fresh_params(19)
    seq = [1 + (k % DIMS.n_items) for k in range(29)]
    a = generate_augmented(seq, enc, aug, stochastic=True, rng=np.random.default_rng(5))
    b = generate_augmented(seq, enc, aug, stochastic=True, rng=np.random.default_rng(5))
    assert a == b
    assert 1 <= len(a) <= DIMS.max_aug_len


def test_generate_batch_matches_single():
    enc, aug = fresh_params(20)
    seqs = [[1, 2, 3], [7, 8], [9, 10, 11, 12]]
    batch_out = generate_augmented_batch(seqs, enc, aug)
    single_out = [generate_augmented(s, enc, aug) for s in seqs]
    assert batch_out == single_out
