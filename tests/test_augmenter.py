"""Augmenter: operation head, reverse generator, restoration loss, generation."""

import dataclasses
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

from gradcheck import directional_rel_error, max_rel_error
from seqrec import augmenter as am
from seqrec import autograd as ag
from seqrec.augmenter import (
    AugmenterParams,
    augmenter_loss,
    generate_augmented_batch,
    generator_forward,
    predict_op_logits,
    restoration_accuracy,
)
from seqrec.augops import (
    OP_DELETE,
    OP_INSERT,
    OP_KEEP,
    CorruptionConfig,
    CorruptionRecord,
    corrupt_sequence,
)
from seqrec.cli import _load_model_ckpt
from seqrec.data import pad_batch
from seqrec.encoder import EncoderParams, ModelDims, encode_batch
from seqrec.seeding import SeedStream, rng_for

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "ring120-full.ckpt"
DIMS = ModelDims(n_items=20, embed_dim=16, n_layers=1, n_heads=1, dropout=0.5,
                 max_len=50, max_aug_len=60, max_insert=5)


def _softmax(x):
    p = np.exp(x - x.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def fresh_params(seed=0, dims=DIMS):
    return EncoderParams(dims, seed), AugmenterParams(dims, seed + 1)


# ---------------------------------------------------------------------------
# operation head
# ---------------------------------------------------------------------------


def test_zero_projection_gives_uniform_ops():
    enc, aug = fresh_params()
    aug.op_proj.data[:] = 0.0
    h = encode_batch(np.array([[1, 2, 3]]), enc)
    probs = _softmax(predict_op_logits(h, aug).data)
    np.testing.assert_allclose(probs, 1 / 3, atol=1e-15)


def test_op_rows_are_distributions():
    enc, aug = fresh_params(3)
    h = encode_batch(np.array([[4, 9, 2, 7]]), enc)
    probs = _softmax(predict_op_logits(h, aug).data)
    assert probs.shape == (1, 4, 3)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_op_softmax_shift_invariance():
    enc, aug = fresh_params(4)
    h = encode_batch(np.array([[4, 9, 2]]), enc)
    logits = predict_op_logits(h, aug)
    shifted = logits + 3.7
    a = _softmax(logits.data)
    b = _softmax(shifted.data)
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
    probs = _softmax(logits.data)
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


def _forward_with_stop_logit(stop_logit):
    """A generator stand-in: item 1 scores 1.0 at every step, STOP stop_logit."""

    def fake_forward(anchors, teacher, enc_, aug_, last_only=False):
        assert last_only
        logits = np.zeros((teacher.shape[0], DIMS.n_items + 1))
        logits[:, 0] = 1.0
        logits[:, DIMS.n_items] = stop_logit
        return ag.constant(logits)

    return fake_forward


def test_decode_respects_max_insert_and_is_deterministic(monkeypatch):
    anchors = np.random.default_rng(2).standard_normal((4, 16))
    for cap in (1, 3, 5):
        enc, aug = fresh_params(7, dims=dataclasses.replace(DIMS, max_insert=cap))
        runs = am._decode_runs(anchors, enc, aug)
        assert all(len(run) <= cap for run in runs)
        assert all(1 <= x <= DIMS.n_items for run in runs for x in run)
        assert am._decode_runs(anchors, enc, aug) == runs
        # a generator that never stops is cut at exactly max_insert items
        with monkeypatch.context() as patch:
            patch.setattr(am, "generator_forward", _forward_with_stop_logit(-5.0))
            assert am._decode_runs(anchors, enc, aug) == [[1] * cap] * 4


def test_decode_stop_first_gives_empty_runs(monkeypatch):
    enc, aug = fresh_params(8)
    monkeypatch.setattr(am, "generator_forward", _forward_with_stop_logit(5.0))
    assert am._decode_runs(np.zeros((3, 16)), enc, aug) == [[], [], []]


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
    records = corrupt_sequence(
        [list(rng.integers(1, DIMS.n_items + 1, size=8)) for _ in range(6)], ccfg, rng_for(0))
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
        op_probs = _softmax(predict_op_logits(h, aug).data)[0]
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
    records = corrupt_sequence(
        [list(rng.integers(1, DIMS.n_items + 1, size=6)) for _ in range(3)], ccfg, rng_for(0))
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
    records = corrupt_sequence([list(range(1, 10))] * 4, ccfg, rng_for(0))
    acc = restoration_accuracy(records, enc, aug)
    assert 0 <= acc.op_hits <= acc.n_op_positions
    assert 0 <= acc.ins_hits <= acc.n_ins_items < acc.n_ins_targets


def test_restoration_accuracy_reports_the_loss_sums():
    enc, aug = fresh_params(15)
    ccfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=DIMS.n_items)
    records = corrupt_sequence([list(range(1, 3 + k)) for k in range(6)], ccfg, rng_for(0))
    _, stats = augmenter_loss(records, enc, aug)
    ag.clear_tape()
    acc = restoration_accuracy(records, enc, aug)
    for name in ("op_nll_sum", "ins_nll_sum", "n_records", "n_op_positions", "n_ins_targets"):
        assert getattr(acc, name) == getattr(stats, name), name
    assert acc.n_op_positions == sum(len(r.ops) for r in records)
    assert acc.n_ins_items == sum(len(run) for r in records
                                  for run in [*r.ins_targets.values(), r.tail_targets])


# Runs of every length class: 0, 1, 2-3, 4-7 and >= 8 items.
CLASS_RECORDS = [
    CorruptionRecord(s_mod=[4, 9, 2, 7], ops=[OP_KEEP, OP_INSERT, OP_DELETE, OP_INSERT],
                     ins_targets={1: [7, 3], 3: [1]}),
    CorruptionRecord(s_mod=[5, 6], ops=[OP_INSERT, OP_KEEP],
                     ins_targets={0: [1, 2, 3, 4, 5]},
                     tail_targets=[8, 9, 10, 11, 12, 13, 14, 15, 16]),
    CorruptionRecord(s_mod=[3], ops=[OP_KEEP], tail_targets=[2, 3, 4]),
    CorruptionRecord(s_mod=[1, 2, 3], ops=[OP_INSERT, OP_INSERT, OP_KEEP],
                     ins_targets={0: [6, 7, 8, 9, 10, 11, 12], 1: [11, 12]},
                     tail_targets=[20]),
]


def _one_pass_restoration(records, enc, aug):
    """Oracle: one padded encoder and generator pass, every cell scored and masked."""
    ids = pad_batch([r.s_mod + [DIMS.mask_id] for r in records])
    n, w = ids.shape
    op_targets = np.zeros((n, w), dtype=np.int64)
    op_mask = np.zeros((n, w))
    runs = []
    for i, rec in enumerate(records):
        offset = w - 1 - len(rec.s_mod)  # column of s_mod[0]
        op_targets[i, offset:w - 1] = rec.ops
        op_mask[i, offset:w - 1] = 1.0
        runs += [(i * w + offset + pos, run) for pos, run in rec.ins_targets.items()]
        runs.append((i * w + w - 1, rec.tail_targets))
    h = encode_batch(ids, enc)
    op_logits = predict_op_logits(h, aug)
    m = max(len(run) for _, run in runs)
    teacher = np.zeros((len(runs), m), dtype=np.int64)
    targets = np.zeros((len(runs), m + 1), dtype=np.int64)
    valid = np.zeros((len(runs), m + 1))
    for j, (_, run) in enumerate(runs):
        teacher[j, :len(run)] = run
        targets[j, :len(run) + 1] = [item - 1 for item in run] + [DIMS.n_items]
        valid[j, :len(run) + 1] = 1.0
    anchors = ag.embedding_lookup(h.reshape(n * w, DIMS.embed_dim), [a for a, _ in runs])
    gen_logits = generator_forward(anchors, teacher, enc, aug)
    nll = ((ag.cross_entropy(op_logits, op_targets) * ag.constant(op_mask)).sum()
           + (ag.cross_entropy(gen_logits, targets) * ag.constant(valid)).sum())
    item_steps = valid * (targets != DIMS.n_items)
    counts = {"n_ins_targets": int(valid.sum()), "n_ins_items": int(item_steps.sum()),
              "op_hits": int(((op_logits.data.argmax(-1) == op_targets) * op_mask).sum()),
              "ins_hits": int(((gen_logits.data.argmax(-1) == targets) * item_steps).sum())}
    return nll * (1.0 / n), counts


def _rel_diff(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _value_and_grads(loss, params):
    ag.backward(loss)
    grads = {}
    for name, p in params.items():
        grads[name], p.grad = p.grad, None
    return loss.item(), grads


def _assert_matches_one_padded_pass(records, enc, aug):
    params = {**enc.named_params(), **aug.named_params()}
    loss, grads = _value_and_grads(augmenter_loss(records, enc, aug)[0], params)
    oracle_loss, counts = _one_pass_restoration(records, enc, aug)
    expected, expected_grads = _value_and_grads(oracle_loss, params)
    assert abs(loss - expected) <= 1e-12 * abs(expected)
    for name, g in expected_grads.items():
        assert _rel_diff(grads[name], g) <= 1e-12, name
    acc = restoration_accuracy(records, enc, aug)
    assert {name: getattr(acc, name) for name in counts} == counts


def test_grouped_restoration_matches_one_padded_pass():
    lengths = {len(run) for r in CLASS_RECORDS
               for run in [*r.ins_targets.values(), r.tail_targets]}
    assert {n.bit_length() for n in lengths} == {0, 1, 2, 3, 4}
    _assert_matches_one_padded_pass(CLASS_RECORDS, *fresh_params(16))


def _random_record(length, rng):
    def items(lo, hi):
        return (1 + rng.integers(0, DIMS.n_items, size=rng.integers(lo, hi))).tolist()

    ops = rng.integers(0, 3, size=length).tolist()
    return CorruptionRecord(s_mod=items(length, length + 1), ops=ops,
                            ins_targets={t: items(1, 6) for t, op in enumerate(ops)
                                         if op == OP_INSERT},
                            tail_targets=items(0, 4))


# Damaged sequences of five encoder classes (1, 2-3, 4-7, 8-15 and 16-31
# items), out of order; the classes of 1, 9 and 17 items hold one record.
ENCODER_CLASS_RECORDS = [_random_record(n, np.random.default_rng(n))
                         for n in (17, 2, 5, 1, 3, 9, 6)]


def test_grouped_encoder_matches_one_padded_pass(monkeypatch):
    widths = []

    def counting_encode(ids, *args, **kwargs):
        widths.append(ids.shape[1])
        return encode_batch(ids, *args, **kwargs)

    monkeypatch.setattr(am, "encode_batch", counting_encode)
    enc, aug = fresh_params(18)
    augmenter_loss(ENCODER_CLASS_RECORDS, enc, aug)
    assert widths == [2, 4, 7, 10, 18]  # each class's widest row, sentinel included
    monkeypatch.undo()
    _assert_matches_one_padded_pass(ENCODER_CLASS_RECORDS, enc, aug)


class CountingStream(SeedStream):
    """A SeedStream that counts its next_rng() calls."""

    def __init__(self, *parts):
        super().__init__(*parts)
        self.draws = 0

    def next_rng(self):
        self.draws += 1
        return super().next_rng()


def test_restoration_dropout_draw_count_is_pinned():
    # five encoder passes and three generator passes, each drawing one mask
    # for its input and three in its block; one extra draw would shift every
    # later mask
    enc, aug = fresh_params(19)
    stream = CountingStream(7, "aug-batch")
    augmenter_loss(ENCODER_CLASS_RECORDS, enc, aug, stream=stream)
    ag.clear_tape()
    assert stream.draws == 32


def test_restoration_dropout_is_deterministic():
    # one SeedStream key gives the same encoder and generator masks each time
    enc, aug = fresh_params(19)
    params = {**enc.named_params(), **aug.named_params()}
    runs = [_value_and_grads(augmenter_loss(ENCODER_CLASS_RECORDS, enc, aug,
                                            stream=SeedStream(7, "aug-batch"))[0], params)
            for _ in range(2)]
    (loss_a, grads_a), (loss_b, grads_b) = runs
    assert loss_a == loss_b
    assert loss_a != augmenter_loss(ENCODER_CLASS_RECORDS, enc, aug)[0].item()  # masks drawn
    for name, g in grads_a.items():
        np.testing.assert_array_equal(g, grads_b[name], err_msg=name)


def test_operation_head_scores_only_real_positions(monkeypatch):
    # the operation head reads the real positions' rows alone, so no padding
    # or sentinel cell is scored and no mask weights the per-cell losses: the
    # taped pass multiplies by no constant array
    enc, aug = fresh_params(21)
    head_rows, constant_muls = [], []
    head, mul = am.predict_op_logits, ag.mul

    def recording_head(h, *args):
        head_rows.append(h.shape[0])
        return head(h, *args)

    def recording_mul(a, b):
        constant_muls.extend(t.shape for t in (a, b) if not t.requires_grad and t.ndim)
        return mul(a, b)

    monkeypatch.setattr(am, "predict_op_logits", recording_head)
    monkeypatch.setattr(ag, "mul", recording_mul)
    _, stats = augmenter_loss(ENCODER_CLASS_RECORDS, enc, aug)
    ag.clear_tape()
    assert stats.n_op_positions == sum(len(r.s_mod) for r in ENCODER_CLASS_RECORDS)
    assert head_rows == [stats.n_op_positions]
    assert constant_muls == []


def test_generator_passes_score_only_real_steps(monkeypatch):
    # each generator pass pads its runs to at most twice the shortest run's
    # steps, and is scored by one cross-entropy over its real steps only:
    # each run's items as classes, then STOP, runs in the pass's row order
    enc, aug = fresh_params(17)
    passes, ce_targets = [], []
    forward, cross_entropy = am.generator_forward, ag.cross_entropy

    def recording_forward(anchors, teacher, *args, **kwargs):
        passes.append(teacher.copy())
        return forward(anchors, teacher, *args, **kwargs)

    def recording_ce(logits, targets):
        if logits.shape[-1] == DIMS.n_items + 1:
            assert len(ce_targets) == len(passes) - 1, "one cross-entropy per pass"
            ce_targets.append(np.asarray(targets).tolist())
        return cross_entropy(logits, targets)

    monkeypatch.setattr(am, "generator_forward", recording_forward)
    monkeypatch.setattr(ag, "cross_entropy", recording_ce)
    _, stats = augmenter_loss(CLASS_RECORDS, enc, aug)
    assert len(passes) == len(ce_targets) == 5
    for teacher, targets in zip(passes, ce_targets):
        lengths = (teacher != 0).sum(axis=1)
        assert teacher.shape[1] + 1 <= 2 * (lengths.min() + 1), teacher.shape
        assert targets == [cls for row, n in zip(teacher, lengths)
                           for cls in [*(row[:n] - 1), DIMS.n_items]]
    assert sum(len(t) for t in ce_targets) == stats.n_ins_targets


def test_restoration_head_holds_one_catalog_wide_buffer_per_class(monkeypatch):
    # at 2,000 items the generator head dominates a training forward: it
    # peaked at 30 MiB while every class's logits, their concatenation, the
    # log-softmax and its exp were live together; scored one class at a
    # time, with one buffer per cross-entropy, it peaks at 15 MiB
    dims = ModelDims(n_items=2000, embed_dim=16, n_layers=1)
    enc, aug = fresh_params(20, dims=dims)
    rng = np.random.default_rng(20)
    seqs = [rng.integers(1, 2001, size=rng.integers(5, 20)).tolist() for _ in range(128)]
    records = corrupt_sequence(seqs, CorruptionConfig(0.8, 0.1, 0.1, n_items=2000),
                               rng_for(20))
    forward = am.generator_forward
    logits, alive_at_next_pass = [], []

    def recording_forward(*args, **kwargs):
        alive_at_next_pass.append(sum(ref() is not None for ref in logits))
        out = forward(*args, **kwargs)
        logits.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(am, "generator_forward", recording_forward)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss, _ = augmenter_loss(records, enc, aug, stream=SeedStream(20, "memory"))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    try:
        assert len(logits) > 1
        assert alive_at_next_pass == [0] * len(logits), "a class's logits outlive its scoring"
        assert all(ref() is None for ref in logits), "generator logits live into backward"
        assert peak <= 22 * 2**20, f"restoration forward peaked at {peak / 2**20:.1f} MiB"
        ag.backward(loss)
        assert np.isfinite(enc.item_emb.grad).all()
    finally:
        ag.clear_tape()


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
    assert generate_augmented_batch([seq], enc, aug)[0] == seq


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
    out = generate_augmented_batch([seq], enc, aug)[0]
    assert out == [3, 7, 5, 2, 9]


def test_generate_oracle_restores_corruption(monkeypatch):
    # forcing the ground-truth labels and runs must map damage back exactly
    enc, aug = fresh_params(17)
    ccfg = CorruptionConfig(0.3, 0.5, 0.2, n_items=DIMS.n_items)
    rng = np.random.default_rng(9)
    seqs = [list(rng.integers(1, DIMS.n_items + 1, size=int(rng.integers(2, 12))))
            for _ in range(40)]
    for seq, record in zip(seqs, corrupt_sequence(seqs, ccfg, rng_for(0))):
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
        assert generate_augmented_batch([record.s_mod], enc, aug)[0] == seq


def test_generate_never_empty_and_bounded():
    enc, aug = fresh_params(18)
    rng = np.random.default_rng(11)
    seqs = [list(rng.integers(1, DIMS.n_items + 1, size=int(rng.integers(1, 55))))
            for _ in range(10)]
    # inputs that fill or overflow the window are clipped to leave the sentinel a slot
    seqs += [[1 + k % DIMS.n_items for k in range(n)]
             for n in (DIMS.max_aug_len, DIMS.max_aug_len + 5)]
    for seq in seqs:
        out = generate_augmented_batch([seq], enc, aug)[0]
        assert 1 <= len(out) <= DIMS.max_aug_len
        assert all(1 <= x <= DIMS.n_items for x in out)


def test_generate_stochastic_bounded_and_seeded():
    enc, aug = fresh_params(19)
    seq = [1 + (k % DIMS.n_items) for k in range(29)]
    a = generate_augmented_batch([seq], enc, aug, rng=np.random.default_rng(5))[0]
    b = generate_augmented_batch([seq], enc, aug, rng=np.random.default_rng(5))[0]
    assert a == b
    assert 1 <= len(a) <= DIMS.max_aug_len


def test_generate_batch_matches_single():
    # the pinned model inserts, so its mixed-length batch, which spans six
    # length classes of the grouped encoder pass, also checks the splicing
    pinned = _load_model_ckpt(FIXTURE)[2]
    mixed = [[(5 * i + j) % 120 + 1 for j in range(n)]
             for i, n in enumerate((12, 1, 40, 3, 6, 25, 2))]
    for (enc, aug), seqs in ((fresh_params(20), [[1, 2, 3], [7, 8], [9, 10, 11, 12]]),
                             ((pinned.enc, pinned.aug), mixed)):
        batch_out = generate_augmented_batch(seqs, enc, aug)
        assert batch_out == [generate_augmented_batch([s], enc, aug)[0] for s in seqs]
    assert sum(len(out) > len(s) for out, s in zip(batch_out, mixed)) >= 3


def test_decide_ops_runs_one_encoder_pass_per_length_class(monkeypatch):
    # each length class gets its own pass; each sequence's row matches its
    # real cells of one pass over the whole batch up to padding's last-ulp
    # rounding
    enc, aug = fresh_params(21)
    seqs = [[1 + (3 * i + j) % DIMS.n_items for j in range(n)]
            for i, n in enumerate((9, 1, 4, 2, 3, 17))]
    ids = pad_batch([s + [DIMS.mask_id] for s in seqs])
    with ag.no_grad():
        one_pass = encode_batch(ids, enc)
        one_pass_ops = predict_op_logits(one_pass, aug).data.argmax(axis=-1)
    widths = []

    def counting_encode(ids_, *args, **kwargs):
        widths.append(ids_.shape[1])
        return encode_batch(ids_, *args, **kwargs)

    monkeypatch.setattr(am, "encode_batch", counting_encode)
    states, ops = am._decide_ops(seqs, enc, aug)
    assert widths == [2, 4, 5, 10, 18]  # each class's widest row, sentinel included
    assert [len(o) for o in ops] == [len(s) + 1 for s in seqs]
    real = ids != 0
    for i, (h_i, ops_i) in enumerate(zip(states, ops)):
        assert h_i.shape == (len(seqs[i]) + 1, DIMS.embed_dim)
        np.testing.assert_allclose(h_i, one_pass.data[i][real[i]], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(ops_i, one_pass_ops[i][real[i]])


def test_stochastic_batch_draws_are_pinned():
    # the benchmark's trained ring-120 model; ops draw over the real cells of
    # each row, rows in order, then each decode step draws over its active
    # anchors, so the draw order is fixed
    model = _load_model_ckpt(FIXTURE)[2]
    seqs = [[(start + j) % 120 + 1 for j in range(n)]
            for start, n in ((0, 6), (37, 9), (60, 3), (115, 8))]
    got = generate_augmented_batch(seqs, model.enc, model.aug, rng=np.random.default_rng(5))
    assert got == [
        [120, 1, 99, 1, 2, 2, 3, 4, 5, 4, 5, 6],
        [38, 39, 39, 40, 38, 38, 39, 39, 40, 41, 42, 43, 43, 44, 39, 40, 45, 45, 46, 45],
        [64, 65, 65, 62, 63, 64, 65],
        [116, 115, 115, 116, 117, 118, 118, 119, 119, 118, 119, 120, 1, 4, 2, 2, 3, 120, 1],
    ]


def _one_choice_per_row(logits, rng):
    """The per-row sampler _sample_rows replaced: one rng.choice per row."""
    rows = []
    for row in logits.reshape(-1, logits.shape[-1]):
        p = np.exp(row - row.max())
        p /= p.sum()
        rows.append(rng.choice(len(p), p=p))
    return np.array(rows).reshape(logits.shape[:-1])


def test_sample_rows_picks_what_one_choice_per_row_picks():
    # peaked, flat and underflowing rows; same picks, same draws used
    logits = np.random.default_rng(2).standard_normal((4, 50, 7)) * 4
    logits[0, :, 3] = 800.0  # every other class has probability 0
    logits[1] = 0.0
    got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
    got = am._sample_rows(logits, got_rng)
    np.testing.assert_array_equal(got, _one_choice_per_row(logits, want_rng))
    assert got.shape == (4, 50) and (got[0] == 3).all()
    assert got_rng.random() == want_rng.random()


def test_sampled_ops_draw_over_real_cells_only():
    # a row's ops take the same draws whatever the batch's width: the
    # padding cells left of a short row draw nothing
    model = _load_model_ckpt(FIXTURE)[2]
    short, wide = [5, 6, 7], list(range(10, 40))
    ops = lambda seqs: am._decide_ops(seqs, model.enc, model.aug, rng=np.random.default_rng(4))[1]
    alone, padded = ops([short]), ops([short, wide])
    assert len(padded[1]) == 31
    np.testing.assert_array_equal(padded[0], alone[0])


def test_greedy_decode_matches_full_row_decoding(monkeypatch):
    # every real position of the pinned model's batch as an anchor; decoding
    # that computes each step's logits alone must pick what full-row
    # decoding picks
    model = _load_model_ckpt(FIXTURE)[2]
    seqs = [[(start + 2 * j) % 120 + 1 for j in range(n)]
            for start, n in ((0, 6), (37, 9), (60, 3), (115, 8), (90, 14))]
    states, _ = am._decide_ops(seqs, model.enc, model.aug)
    anchors = np.concatenate(states)  # every real position and every sentinel
    assert len(anchors) == 45
    last_step = am._decode_runs(anchors, model.enc, model.aug)

    full = am.generator_forward

    def full_rows(anchors_, teacher, enc_, aug_, last_only=False):
        assert last_only
        return ag.constant(full(anchors_, teacher, enc_, aug_).data[:, -1])

    monkeypatch.setattr(am, "generator_forward", full_rows)
    assert am._decode_runs(anchors, model.enc, model.aug) == last_step
    assert sum(len(run) >= 2 for run in last_step) >= 5  # several multi-step runs


def _decode_runs_row_by_row(anchors, enc, aug, rng=None):
    """The decode _decode_runs replaced: one Python list per run, rebuilt per step."""
    stop = am._stop_class(enc.dims)
    runs = [[] for _ in range(anchors.shape[0])]
    active = list(range(anchors.shape[0]))
    with ag.no_grad():
        for step in range(enc.dims.max_insert):
            teacher = (np.array([runs[i] for i in active], dtype=np.int64) if step > 0
                       else np.zeros((len(active), 0), dtype=np.int64))
            logits = generator_forward(ag.constant(anchors[np.array(active, dtype=np.int64)]),
                                       teacher, enc, aug, last_only=True).data
            picks = logits.argmax(axis=-1) if rng is None else am._sample_rows(logits, rng)
            survivors = []
            for row, pick in zip(active, picks):
                if int(pick) != stop:
                    runs[row].append(int(pick) + 1)
                    survivors.append(row)
            active = survivors
            if not active:
                break
    return runs


def test_decode_runs_match_the_row_by_row_decode():
    # greedy and sampled runs of the pinned model from every position of a
    # batch: same runs, same draws used
    model = _load_model_ckpt(FIXTURE)[2]
    seqs = [[(start + 3 * j) % 120 + 1 for j in range(n)]
            for start, n in ((0, 6), (37, 9), (60, 3), (115, 8), (90, 14), (11, 20))]
    anchors = np.concatenate(am._decide_ops(seqs, model.enc, model.aug)[0])
    want = _decode_runs_row_by_row(anchors, model.enc, model.aug)
    assert am._decode_runs(anchors, model.enc, model.aug) == want
    assert len({len(run) for run in want}) >= 3  # runs end at different steps
    for seed in (3, 4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = am._decode_runs(anchors, model.enc, model.aug, rng=got_rng)
        assert got == _decode_runs_row_by_row(anchors, model.enc, model.aug, rng=want_rng)
        assert all(type(x) is int for run in got for x in run)
        assert got_rng.random() == want_rng.random()
