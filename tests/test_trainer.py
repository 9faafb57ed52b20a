"""Training phases: joint-loss algebra, ablation modes, resume equivalence."""

import re
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from seqrec import augmenter as am
from seqrec import autograd as ag
from seqrec import recommender, trainer
from seqrec.augmenter import generation_op_proportions, restoration_accuracy
from seqrec.augops import AugConfig, CorruptionConfig, random_augment
from seqrec.checkpoint import load_checkpoint
from seqrec.config import MODES, RunConfig, parse_config_lines, read_meta
from seqrec.data import PAD_ID, ItemSequence, leave_one_out_split, length_classes
from seqrec.cli import _save_model_ckpt
from seqrec.errors import ConfigError, NonFiniteError
from seqrec.optim import AdamState
from seqrec.seeding import SeedStream, rng_for
from seqrec.trainer import (
    TrainResult,
    _corrupt_batch,
    build_model,
    dims_from_config,
    joint_loss,
    model_arrays,
    model_from_arrays,
    train_augmenter,
    train_recommender,
    validation_aug_loss,
)

from test_augmenter import CountingStream
from test_data import make_vocab
from test_recommender import assert_close_relative, loss_and_grads, one_padded_pass


def zero_grads(params):
    """Drop every gradient of a name -> Tensor table (named_params())."""
    for t in params.values():
        t.grad = None


def tiny_cfg(**overrides):
    base = dict(embed_dim=16, n_layers=1, n_heads=1, dropout=0.0, batch_size=16,
                lr=0.003, epochs_augmenter=3, epochs_recommender=2, patience=50,
                seed=11, mode="full", alpha=0.1, beta=0.005)
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def tiny_data():
    rng = np.random.default_rng(0)
    seqs = []
    for k in range(60):
        start = int(rng.integers(0, 120))
        length = int(rng.integers(6, 10))
        items = [(start + j) % 120 + 1 for j in range(length)]
        seqs.append(ItemSequence(f"u{k}", items))
    return leave_one_out_split(seqs), make_vocab(120)


@pytest.fixture(scope="module")
def tiny_model(tiny_data):
    split, vocab = tiny_data
    cfg = tiny_cfg()
    dims = dims_from_config(cfg, vocab.n_items)
    return build_model(dims, seed=5)


@pytest.fixture(scope="module")
def trained_model():
    """The benchmark's pinned ring-120 model: its generator hits run items."""
    ckpt = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "ring120-full.ckpt"
    text, arrays, _, _ = load_checkpoint(ckpt)
    cfg = parse_config_lines(text.splitlines())
    dims = dims_from_config(cfg, int(read_meta(text.splitlines())["n_items"]))
    return model_from_arrays(dims, arrays)


def batch_from(split, n=8):
    return [u.train for u in split.users[:n]]


# ---------------------------------------------------------------------------
# joint loss
# ---------------------------------------------------------------------------


def test_zero_weights_reduce_to_rec_loss(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs = batch_from(split)
    cfg = tiny_cfg(alpha=0.0, beta=0.0)
    total, parts = joint_loss(seqs, tiny_model, cfg, rng_for(0))
    assert parts["total"] == parts["rec"]
    assert "cl" not in parts and "tri" not in parts
    ag.clear_tape()


def test_joint_loss_is_linear_recombination(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs = batch_from(split)
    cfg = tiny_cfg(alpha=0.3, beta=0.02)
    total, parts = joint_loss(seqs, tiny_model, cfg, rng_for(0))
    recombined = parts["rec"] + 0.3 * parts["cl"] + 0.02 * parts["tri"]
    assert abs(parts["total"] - recombined) < 1e-12
    ag.clear_tape()


def test_joint_gradient_is_sum_of_term_gradients(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs = batch_from(split, n=6)
    model = tiny_model
    alpha, beta = 0.25, 0.04
    names = list(model.named_params(("enc", "rec")))

    def grads_of(a, b):
        cfg = tiny_cfg(alpha=a, beta=b)
        params = model.named_params(("enc", "rec"))
        zero_grads(params)
        total, _ = joint_loss(seqs, model, cfg, rng_for(0))
        ag.backward(total)
        out = {n: (params[n].grad.copy() if params[n].grad is not None else 0.0)
               for n in names}
        zero_grads(params)
        return out

    g_joint = grads_of(alpha, beta)
    g_rec = grads_of(0.0, 0.0)
    # isolate the cl and tri components via weight differences
    g_rec_cl = grads_of(alpha, 0.0)
    for n in names:
        combined = g_rec_cl[n] + (g_joint[n] - g_rec_cl[n])
        np.testing.assert_allclose(g_joint[n], combined, atol=1e-8)
        # and the alpha-term really scales: (g_rec_cl - g_rec) is alpha * cl grad
        half = grads_of(alpha / 2, 0.0)
        np.testing.assert_allclose(
            g_rec_cl[n] - g_rec[n], 2.0 * (half[n] - g_rec[n]), atol=1e-8
        )
        break  # one parameter suffices; full check happens in acceptance


def test_joint_backward_gives_each_param_its_own_gradient(tiny_data, trained_model,
                                                          monkeypatch):
    split, _ = tiny_data
    seqs = batch_from(split)
    cfg = tiny_cfg()
    store = trained_model.named_params()

    def two_backward_passes():
        zero_grads(store)
        grads = []
        for _ in range(2):  # the second pass adds into the first pass's buffers
            stream = SeedStream(cfg.seed, "rec-dropout", 0, 0)
            loss, _ = joint_loss(seqs, trained_model, cfg, rng_for(0), stream=stream)
            ag.backward(loss)
            got = {n: p.grad for n, p in store.items() if p.grad is not None}
            for (m, g), (n, h) in combinations(got.items(), 2):
                assert not np.shares_memory(g, h), (m, n)
            grads.append({n: g.copy() for n, g in got.items()})
        zero_grads(store)
        return grads

    owned = two_backward_passes()

    def copying_accum(sink, g):
        if sink is not None:
            if sink.grad is None:
                sink.grad = np.array(g, dtype=sink.dtype, copy=True)
            else:
                sink.grad += g

    monkeypatch.setattr(ag, "_accum", copying_accum)
    copied = two_backward_passes()
    for got, want in zip(owned, copied):
        assert sorted(got) == sorted(want) and len(got) > 10
        for n in want:
            np.testing.assert_array_equal(got[n], want[n], err_msg=n)


def mixed_length_batch(split):
    """Train prefixes plus rows of 2, 12 and 70 items (the last one clipped)."""
    seqs = batch_from(split, n=6)
    extra = [[(7 * k + j) % 120 + 1 for j in range(n)] for k, n in enumerate((2, 12, 70))]
    return seqs + extra


def test_grouped_joint_loss_matches_one_padded_pass(tiny_data, trained_model,
                                                    monkeypatch):
    split, _ = tiny_data
    seqs = mixed_length_batch(split)
    cfg = tiny_cfg()
    params = trained_model.named_params(("enc", "rec"))
    run = lambda: joint_loss(seqs, trained_model, cfg, rng_for(0))[0]
    grouped, g_grouped = loss_and_grads(run, params)
    monkeypatch.setattr(recommender, "_class_forward", one_padded_pass)
    padded, g_padded = loss_and_grads(run, params)
    assert abs(grouped - padded) <= 1e-12 * abs(padded)
    assert sorted(g_grouped) == sorted(g_padded) and len(g_padded) > 10
    for name in g_padded:
        assert_close_relative(g_grouped[name], g_padded[name])


def test_grouped_joint_dropout_is_deterministic(tiny_data, trained_model):
    # each length class draws its dropout masks from the batch's stream in
    # class order, so one key gives one loss and one gradient, bit for bit
    split, _ = tiny_data
    seqs = mixed_length_batch(split)
    cfg = tiny_cfg()
    params = trained_model.named_params()

    def run():
        stream = SeedStream(cfg.seed, "rec-dropout", 0, 0)
        return joint_loss(seqs, trained_model, cfg, rng_for(0), stream=stream)[0]

    first, g_first = loss_and_grads(run, params)
    second, g_second = loss_and_grads(run, params)
    assert first == second
    assert sorted(g_first) == sorted(g_second) and len(g_first) > 10
    for name in g_first:
        np.testing.assert_array_equal(g_first[name], g_second[name], err_msg=name)


def test_joint_dropout_draw_count_is_pinned(tiny_data, trained_model):
    # every length-class pass of rec_loss and the three contrast stacks draws
    # its masks from the batch's stream; one extra draw would shift every
    # later mask
    split, _ = tiny_data
    seqs = mixed_length_batch(split)
    stream = CountingStream(11, "rec-dropout", 0, 0)
    joint_loss(seqs, trained_model, tiny_cfg(), rng_for(0), stream=stream)
    ag.clear_tape()
    assert stream.draws == 133


def test_forward_without_a_stream_draws_no_dropout(tiny_data, trained_model, monkeypatch):
    # cotrain runs every kind of forward: the recommender's stacks, the
    # learned view's generation and the restoration loss
    split, _ = tiny_data
    seqs = mixed_length_batch(split)
    assert trained_model.dims.dropout > 0

    def no_dropout(*args, **kwargs):
        raise AssertionError("a forward without a stream drew a dropout mask")

    monkeypatch.setattr(ag, "dropout", no_dropout)
    _, parts = joint_loss(seqs, trained_model, tiny_cfg(mode="cotrain"), rng_for(0))
    ag.clear_tape()
    assert {"rec", "cl", "tri", "aug"} <= set(parts)


def test_unknown_mode_rejected(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs = batch_from(split)
    cfg = tiny_cfg()
    cfg.mode = "fancy"  # RunConfig validates on construction only
    with pytest.raises(ConfigError):
        joint_loss(seqs, tiny_model, cfg, rng_for(0))


@pytest.mark.parametrize("mode", list(MODES))
def test_each_mode_pins_its_views_terms_and_trained_parts(tiny_data, trained_model,
                                                           monkeypatch, mode):
    # the pinned model's augmenter inserts and deletes, so its greedy and
    # sampled outputs and the random views all differ
    split, _ = tiny_data
    seqs = batch_from(split)
    model = trained_model
    cfg = tiny_cfg(mode=mode)
    views = []
    make_views = trainer.make_contrast_views

    def recording(*args):
        got = make_views(*args)
        views.extend(got)
        return got

    monkeypatch.setattr(trainer, "make_contrast_views", recording)
    zero_grads(model.named_params())
    total, parts = joint_loss(seqs, model, cfg, rng_for(0))
    ag.backward(total)
    trained = {c for c in ("enc", "aug", "rec")
               if any(p.grad is not None for p in model.named_params((c,)).values())}
    zero_grads(model.named_params())

    want_parts = {"rec", "cl", "total"}
    if mode != "wo_tri":
        want_parts.add("tri")
    if mode == "cotrain":
        want_parts.add("aug")
    assert set(parts) == want_parts
    assert ("tri" in parts) == MODES[mode].triplet
    assert trained == ({"enc", "aug", "rec"} if mode == "cotrain" else {"enc", "rec"})

    # the views, drawn in order from the batch generator
    rng = rng_for(0)
    aug_cfg = AugConfig(cfg.gamma, cfg.eta, cfg.beta_r)
    greedy = am.generate_augmented_batch(seqs, model.enc, model.aug)

    def random_view():
        return [random_augment(s, aug_cfg, rng, model.dims.mask_id) for s in seqs]

    def sampled_view():
        return am.generate_augmented_batch(seqs, model.enc, model.aug, rng=rng)

    if mode == "base":
        want = [random_view(), random_view()]
    elif mode == "duoaug":
        want = [sampled_view(), sampled_view()]
    else:
        want = [greedy, random_view()]
    assert views == want
    assert want[0] != want[1] and (mode != "duoaug" or greedy not in want)


def test_singleton_remainder_batch_skips_in_batch_term(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs = batch_from(split, n=1)
    total, parts = joint_loss(seqs, tiny_model, tiny_cfg(), rng_for(0))
    assert "cl" not in parts and "tri" in parts
    assert np.isfinite(parts["total"])
    ag.clear_tape()


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def test_augmenter_training_reduces_loss(tiny_data):
    split, vocab = tiny_data
    cfg = tiny_cfg(epochs_augmenter=5)
    result = train_augmenter(split, vocab, cfg)
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
    # the walks are cyclic, so ops become predictable beyond 3-way chance
    assert result.history[-1]["val_op_accuracy"] > 1 / 3
    assert result.best_epoch >= 0
    assert set(result.opt.m) == set(result.model.named_params(("enc", "aug")))


def test_augmenter_training_deterministic(tiny_data):
    split, vocab = tiny_data
    cfg = tiny_cfg(epochs_augmenter=2)
    a = train_augmenter(split, vocab, cfg)
    b = train_augmenter(split, vocab, cfg)

    def strip_timing(history):
        return [{k: v for k, v in row.items() if k != "seconds"} for row in history]

    assert strip_timing(a.history) == strip_timing(b.history)
    for name, arr in model_arrays(a.model).items():
        np.testing.assert_array_equal(arr, model_arrays(b.model)[name])


# Both phases on tiny_data at dropout 0.2, phase 2 in full mode from the
# phase-1 model. A shifted dropout draw, batch order or loss average moves
# these figures far beyond the tolerance, which only absorbs BLAS rounding.
PINNED_HISTORY = {
    "augmenter": [
        {"epoch": 0, "train_loss": 31.115387006946882, "val_loss": 24.77376489924912,
         "val_op_accuracy": 0.42402826855123676, "val_ins_top1": 0.0},
        {"epoch": 1, "train_loss": 25.84989463500569, "val_loss": 22.517658906176504,
         "val_op_accuracy": 0.4381625441696113, "val_ins_top1": 0.0},
    ],
    "recommender": [
        {"epoch": 0, "loss_rec": 4.89298515858291, "loss_cl": 5.064054247131423,
         "loss_tri": 2.4224730459927706, "loss_total": 5.4115029485260155,
         "val_sum": 0.4232572140481918, "val_skipped": 0},
        {"epoch": 1, "loss_rec": 4.792976868737947, "loss_cl": 4.395671861528342,
         "loss_tri": 1.6445102699293495, "loss_total": 5.2407666062404274,
         "val_sum": 0.4892214712720847, "val_skipped": 0},
    ],
}


def test_both_phases_keep_their_history_and_log_line(tiny_data):
    split, vocab = tiny_data
    lines = []
    phase1 = train_augmenter(split, vocab, tiny_cfg(epochs_augmenter=2, dropout=0.2),
                             log=lines.append)
    phase2 = train_recommender(split, vocab, tiny_cfg(dropout=0.2), pretrained=phase1.model,
                               log=lines.append)
    for result, want in zip((phase1, phase2), PINNED_HISTORY.values()):
        got = [{k: v for k, v in row.items() if k != "seconds"} for row in result.history]
        assert got == [pytest.approx(row, rel=1e-9) for row in want]
        assert all(row["seconds"] > 0 for row in result.history)
    assert (phase1.best_epoch, phase2.best_epoch) == (1, 1)
    assert len(lines) == 4
    assert re.fullmatch(r"augmenter epoch 0: train_loss=31\.1154 val_loss=24\.7738 "
                        r"val_op_accuracy=0\.4240 val_ins_top1=0\.0000 \(\d+\.\ds\)", lines[0])
    assert re.fullmatch(r"recommender epoch 1: loss_rec=4\.7930 loss_cl=4\.3957 "
                        r"loss_tri=1\.6445 loss_total=5\.2408 val_sum=0\.4892 "
                        r"val_skipped=0 \(\d+\.\ds\)", lines[3])


@pytest.mark.parametrize("train, validation, scores", [
    (train_augmenter, "validation_aug_loss",  # val_loss rises after epoch 0
     lambda n: (float(n), {"op_accuracy": 0.5, "ins_top1": 0.5})),
    (train_recommender, "evaluate_model",  # val_sum falls after epoch 0
     lambda n: SimpleNamespace(total=1.0 / n, n_skipped=0)),
])
def test_patience_stops_a_run_that_stops_improving(tiny_data, monkeypatch, train,
                                                   validation, scores):
    split, vocab = tiny_data
    calls, improved = [], []

    def getting_worse(*args, **kwargs):
        calls.append(None)
        return scores(len(calls))

    monkeypatch.setattr(trainer, validation, getting_worse)
    cfg = tiny_cfg(mode="base", epochs_augmenter=5, epochs_recommender=5, patience=1)
    result = train(split, vocab, cfg,
                   on_epoch=lambda result, better: improved.append(better))
    assert [row["epoch"] for row in result.history] == [0, 1]
    assert improved == [True, False]
    assert (result.best_epoch, result.best_metric) == (0, 1.0)


def test_resumed_run_keeps_the_early_stopping_state(tiny_data, monkeypatch):
    # val_loss rises after epoch 0 and patience is 2: the unbroken run stops
    # after epoch 2, and a run resumed after epoch 0 must stop there too
    split, vocab = tiny_data
    losses, improved = [], []
    monkeypatch.setattr(trainer, "validation_aug_loss", lambda *args: (
        losses.pop(0), {"op_accuracy": 0.5, "ins_top1": 0.5}))

    def on_epoch(result, better):
        improved.append((result.history[-1]["epoch"], better))

    cfg = tiny_cfg(epochs_augmenter=6, patience=2)
    losses[:] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    straight = train_augmenter(split, vocab, cfg, on_epoch=on_epoch)
    assert improved == [(0, True), (1, False), (2, False)]

    improved.clear()
    losses[:] = [1.0]
    first = train_augmenter(split, vocab, tiny_cfg(epochs_augmenter=1, patience=2),
                            on_epoch=on_epoch)
    assert (first.best_epoch, first.best_metric, first.patience_left) == (0, 1.0, 2)
    assert first.epoch == 0
    losses[:] = [2.0, 3.0, 4.0, 5.0, 6.0]
    resumed = train_augmenter(split, vocab, cfg, resume=first, on_epoch=on_epoch)
    assert improved == [(0, True), (1, False), (2, False)]
    assert (resumed.best_epoch, resumed.best_metric, resumed.patience_left) == \
        (straight.best_epoch, straight.best_metric, straight.patience_left) == (0, 1.0, 0)


def test_recommender_needs_augmenter_for_full_mode(tiny_data):
    split, vocab = tiny_data
    with pytest.raises(ConfigError, match="needs an augmenter, which the starting model lacks"):
        train_recommender(split, vocab, tiny_cfg(mode="full"))


def test_recommender_base_mode_runs_without_augmenter(tiny_data):
    split, vocab = tiny_data
    cfg = tiny_cfg(mode="base", epochs_recommender=1)
    result = train_recommender(split, vocab, cfg)
    assert result.model.aug is None
    assert len(result.history) == 1
    assert "loss_rec" in result.history[0]


def test_full_pipeline_all_modes_smoke(tiny_data):
    split, vocab = tiny_data
    phase1 = train_augmenter(split, vocab, tiny_cfg(epochs_augmenter=1))
    for mode in ("full", "wo_tri", "duoaug", "cotrain"):
        cfg = tiny_cfg(mode=mode, epochs_recommender=1)
        pre = phase1.model if mode != "base" else None
        result = train_recommender(split, vocab, cfg, pretrained=pre)
        assert np.isfinite(result.history[0]["val_sum"])


def test_pretrained_dims_must_match_the_run_config(tiny_data):
    split, vocab = tiny_data
    phase1 = train_augmenter(split, vocab, tiny_cfg(epochs_augmenter=1))
    with pytest.raises(ConfigError, match=r"embed_dim 16 vs 32; dropout 0.0 vs 0.2"):
        train_recommender(split, vocab, tiny_cfg(embed_dim=32, dropout=0.2),
                          pretrained=phase1.model)


@pytest.mark.parametrize("train, mode", [(train_augmenter, "base"),
                                         (train_recommender, "cotrain")])
def test_prefix_longer_than_max_len_is_refused_before_training(tiny_data, monkeypatch,
                                                                train, mode):
    # the generator's position table has max_len + 1 rows, so a corruption
    # that deletes a whole longer prefix would index past it mid-epoch
    split, vocab = tiny_data
    first = next(u for u in split.users if len(u.train) > 4)

    def no_batches(*args, **kwargs):
        raise AssertionError("a batch was built before the prefix check")

    monkeypatch.setattr(trainer, "make_batches", no_batches)
    expected = f"user '{first.user_id}' has a train prefix of {len(first.train)} items, " \
               f"longer than max_len 4"
    with pytest.raises(ConfigError, match=expected):
        train(split, vocab, tiny_cfg(mode=mode, max_len=4))


@pytest.mark.parametrize("phase", ["augmenter", "recommender"])
def test_non_finite_step_stops_before_adam_and_checkpoint(tiny_data, tmp_path, phase):
    split, vocab = tiny_data
    cfg = tiny_cfg(mode="base", epochs_augmenter=3, epochs_recommender=3)
    ckpt = tmp_path / f"{phase}-last.ckpt"
    saved = {}

    def on_epoch(result, improved):
        _save_model_ckpt(ckpt, cfg, phase, result)
        saved[result.epoch] = ckpt.read_bytes()
        result.model.enc.pos_emb.data[0, 0] = np.nan  # every sequence reads position 0

    train = train_augmenter if phase == "augmenter" else train_recommender
    with pytest.raises(NonFiniteError) as err:
        train(split, vocab, cfg, on_epoch=on_epoch)
    assert err.value.key == (cfg.seed, phase, 1, 0)
    assert "epoch 1, batch 0" in str(err.value)
    assert list(saved) == [0]
    assert ckpt.read_bytes() == saved[0]


def _inf_gradient(t):
    """A zero-valued scalar whose rule gives t an infinite gradient."""
    def bw(g, st):
        ag._accum(st, np.full(t.shape, np.inf))

    return ag._record(ag.Tensor(0.0), (t,), bw)


@pytest.mark.parametrize("phase", ["augmenter", "recommender"])
def test_finite_loss_with_a_non_finite_gradient_stops_before_adam(tiny_data, tmp_path,
                                                                  monkeypatch, phase):
    # from epoch 1 on, each loss adds a zero whose rule writes inf into
    # enc.pos_emb's gradient: the loss stays finite, the gradient does not
    split, vocab = tiny_data
    cfg = tiny_cfg(mode="base", epochs_augmenter=3, epochs_recommender=3)
    ckpt = tmp_path / f"{phase}-last.ckpt"
    saved, poisoned, losses, steps = {}, [], [], []

    def on_epoch(result, improved):
        _save_model_ckpt(ckpt, cfg, phase, result)
        saved[result.epoch] = ckpt.read_bytes()
        poisoned.append(result.model.enc.pos_emb)

    backward, adam_step = ag.backward, trainer.adam_step

    def poisoned_backward(loss):
        losses.append(loss.item())
        backward(loss + _inf_gradient(poisoned[0]) if poisoned else loss)

    def counted_adam_step(params, opt):
        steps.append(bool(poisoned))
        adam_step(params, opt)

    monkeypatch.setattr(ag, "backward", poisoned_backward)
    monkeypatch.setattr(trainer, "adam_step", counted_adam_step)
    train = train_augmenter if phase == "augmenter" else train_recommender
    with pytest.raises(NonFiniteError, match="non-finite gradient of enc.pos_emb") as err:
        train(split, vocab, cfg, on_epoch=on_epoch)
    assert err.value.key == (cfg.seed, phase, 1, 0)
    assert np.isfinite(losses[-1])
    assert steps and not any(steps)  # Adam never stepped once the poison was in
    assert list(saved) == [0]
    assert ckpt.read_bytes() == saved[0]


def test_resume_matches_unbroken_run(tiny_data):
    split, vocab = tiny_data
    cfg = tiny_cfg(mode="base", epochs_recommender=3, dropout=0.2)

    straight = train_recommender(split, vocab, cfg)

    cfg2 = tiny_cfg(mode="base", epochs_recommender=2, dropout=0.2)
    partial = train_recommender(split, vocab, cfg2)
    # snapshot the whole run state into fresh objects, continue after epoch 1
    dims = dims_from_config(cfg, vocab.n_items)
    resume = TrainResult(
        model_from_arrays(dims, model_arrays(partial.model)),
        AdamState.from_state_arrays(partial.opt.state_arrays(), partial.opt.step_count,
                                    cfg.lr),
        epoch=partial.epoch, best_epoch=partial.best_epoch,
        best_metric=partial.best_metric, patience_left=partial.patience_left)
    resumed = train_recommender(split, vocab, cfg, resume=resume)
    assert resumed is resume and resumed.history[0]["epoch"] == 2 == resumed.epoch
    a = straight.history[-1]
    b = resumed.history[0]
    assert abs(a["loss_total"] - b["loss_total"]) <= 1e-12
    assert abs(a["val_sum"] - b["val_sum"]) <= 1e-12
    for name, arr in model_arrays(straight.model).items():
        np.testing.assert_array_equal(arr, model_arrays(resumed.model)[name])
    for name, arr in straight.opt.state_arrays().items():
        np.testing.assert_array_equal(arr, resumed.opt.state_arrays()[name])


def test_resumed_run_steps_at_the_run_configs_lr(tiny_data):
    # a state built at another lr steps at cfg.lr, the lr its checkpoints store
    split, vocab = tiny_data
    cfg = tiny_cfg(mode="base", epochs_recommender=2)
    straight = train_recommender(split, vocab, cfg)
    partial = train_recommender(split, vocab, tiny_cfg(mode="base", epochs_recommender=1))
    partial.opt.lr = 3 * cfg.lr
    resumed = train_recommender(split, vocab, cfg, resume=partial)
    assert resumed.epoch == 1 and resumed.opt.lr == cfg.lr
    for name, arr in model_arrays(straight.model).items():
        np.testing.assert_array_equal(arr, model_arrays(resumed.model)[name], err_msg=name)


def _no_batches(*args, **kwargs):
    raise AssertionError("a batch was built before the starting state was checked")


def test_resume_in_a_mode_its_adam_state_does_not_cover_is_refused(tiny_data, monkeypatch):
    # a base-mode run from the phase-1 model holds the augmenter but trains
    # it not, so its Adam state has no moments a cotrain run could step
    split, vocab = tiny_data
    phase1 = train_augmenter(split, vocab, tiny_cfg(epochs_augmenter=1))
    base = train_recommender(split, vocab, tiny_cfg(mode="base", epochs_recommender=1),
                             pretrained=phase1.model)
    monkeypatch.setattr(trainer, "make_batches", _no_batches)
    with pytest.raises(ConfigError, match=r"holds no moments for parameter 'aug\.[^']+', "
                                          r"which a recommender run in mode 'cotrain'"):
        train_recommender(split, vocab, tiny_cfg(mode="cotrain"), resume=base)


def test_resume_of_other_dims_or_with_pretrained_is_refused(tiny_data, monkeypatch):
    split, vocab = tiny_data
    first = train_augmenter(split, vocab, tiny_cfg(epochs_augmenter=1))
    monkeypatch.setattr(trainer, "make_batches", _no_batches)
    with pytest.raises(ConfigError, match=r"the resumed model does not match the run config "
                                          r"\(resumed vs config\): embed_dim 16 vs 32; "
                                          r"max_aug_len 60 vs 30"):
        train_augmenter(split, vocab, tiny_cfg(embed_dim=32, max_aug_len=30), resume=first)
    with pytest.raises(ConfigError, match="not both"):
        train_recommender(split, vocab, tiny_cfg(mode="base"), pretrained=first.model,
                          resume=first)


def test_generation_op_proportions_sum_to_one(tiny_data, tiny_model):
    split, _ = tiny_data
    props = generation_op_proportions([u.train for u in split.users[:20]], tiny_model.enc,
                                      tiny_model.aug)
    assert len(props) == 3
    assert abs(sum(props) - 1.0) < 1e-12


def test_generation_op_proportions_are_the_augmenters_ops(tiny_data, trained_model):
    split, _ = tiny_data
    seqs = [u.train for u in split.users]
    assert sum(len(s) for s in seqs) == 332
    for batch_size in (256, 7):
        props = generation_op_proportions(seqs, trained_model.enc, trained_model.aug,
                                          batch_size=batch_size)
        assert props == (73 / 332, 9 / 332, 250 / 332)


def test_op_proportions_clip_like_generation(trained_model):
    # an input that fills the window is clipped to leave the sentinel a slot,
    # as generate_augmented_batch clips it
    cap = trained_model.dims.max_aug_len
    seq = [(7 + j) % 120 + 1 for j in range(cap)]
    enc, aug = trained_model.enc, trained_model.aug
    props = generation_op_proportions([seq], enc, aug)
    assert props == generation_op_proportions([seq[-(cap - 1):]], enc, aug)
    assert abs(sum(props) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# restoration validation
# ---------------------------------------------------------------------------

CCFG = CorruptionConfig(0.4, 0.5, 0.1, max_insert_run=5, n_items=120)


def test_validation_encodes_each_record_once_per_length_class(tiny_data, tiny_model,
                                                             monkeypatch):
    # each chunk runs one encoder pass per length class of its damaged
    # sequences, no pass pads a row beyond twice its slots, and every
    # eligible record is encoded exactly once
    split, _ = tiny_data
    chunks = []  # (s_mod lengths, [(rows, width, shortest row's slots)]) per chunk
    accuracy, encode = trainer.restoration_accuracy, am.encode_batch

    def recording_accuracy(records, *args, **kwargs):
        chunks.append(([len(r.s_mod) for r in records], []))
        return accuracy(records, *args, **kwargs)

    def recording_encode(ids, *args, **kwargs):
        chunks[-1][1].append((*ids.shape, int((ids != PAD_ID).sum(axis=1).min())))
        return encode(ids, *args, **kwargs)

    monkeypatch.setattr(trainer, "restoration_accuracy", recording_accuracy)
    monkeypatch.setattr(am, "encode_batch", recording_encode)
    validation_aug_loss(split, tiny_model, CCFG, seed=3, batch_size=16)
    eligible = sum(len(u.train) >= 2 for u in split.users)
    assert len(chunks) == -(-eligible // 16)
    assert sum(rows for _, calls in chunks for rows, _, _ in calls) == eligible
    for lengths, calls in chunks:
        assert len(calls) == len(length_classes(lengths))
        for _, width, shortest in calls:
            assert width <= 2 * shortest, calls


def test_validation_pools_hits_not_ratios(tiny_data, trained_model):
    split, _ = tiny_data
    prefixes = [u.train for u in split.users if len(u.train) >= 2]
    records = _corrupt_batch(prefixes, CCFG, rng_for(3, "valid-corrupt"), trained_model.dims)
    whole = restoration_accuracy(records, trained_model.enc, trained_model.aug)
    assert 0 < whole.ins_hits < whole.n_ins_items  # a figure that weighting can move
    for batch_size in (7, 16, 64):
        loss, detail = validation_aug_loss(split, trained_model, CCFG, 3, batch_size)
        assert detail["ins_top1"] == whole.ins_hits / whole.n_ins_items
        assert detail["op_accuracy"] == whole.op_hits / whole.n_op_positions
        assert loss == pytest.approx(whole.loss, rel=1e-12)


def test_negatives_no_fewer_than_the_catalog_are_refused_before_the_first_batch(
        tiny_data, monkeypatch):
    split, vocab = tiny_data
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran")
    monkeypatch.setattr(trainer, "joint_loss", no_batch)
    with pytest.raises(ConfigError, match="^n_negatives 120 must be below the catalog's "
                                          "120 items"):
        train_recommender(split, vocab, tiny_cfg(mode="base", n_negatives=120))
