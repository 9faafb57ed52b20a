"""Training phases: joint-loss algebra, ablation modes, resume equivalence."""

from pathlib import Path

import numpy as np
import pytest

from seqrec import augmenter as am
from seqrec import autograd as ag
from seqrec.augmenter import restoration_accuracy
from seqrec.augops import CorruptionConfig
from seqrec.checkpoint import load_checkpoint
from seqrec.config import RunConfig, parse_config_lines, read_meta
from seqrec.data import ItemSequence, leave_one_out_split
from seqrec.errors import ConfigError
from seqrec.optim import AdamState, ParamStore
from seqrec.trainer import (
    _corrupt_batch,
    build_model,
    dims_from_config,
    generation_op_proportions,
    joint_loss,
    model_arrays,
    model_from_arrays,
    train_augmenter,
    train_recommender,
    validation_aug_loss,
)

from test_data import make_vocab


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
    users = split.users[:n]
    return [u.train for u in users], [u.user_id for u in users]


# ---------------------------------------------------------------------------
# joint loss
# ---------------------------------------------------------------------------


def test_zero_weights_reduce_to_rec_loss(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs, users = batch_from(split)
    cfg = tiny_cfg(alpha=0.0, beta=0.0)
    total, parts = joint_loss(seqs, users, tiny_model, "full", cfg, 0, 0, train=False)
    assert parts["total"] == parts["rec"]
    assert "cl" not in parts and "tri" not in parts
    ag.clear_tape()


def test_joint_loss_is_linear_recombination(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs, users = batch_from(split)
    cfg = tiny_cfg(alpha=0.3, beta=0.02)
    total, parts = joint_loss(seqs, users, tiny_model, "full", cfg, 0, 0, train=False)
    recombined = parts["rec"] + 0.3 * parts["cl"] + 0.02 * parts["tri"]
    assert abs(parts["total"] - recombined) < 1e-12
    ag.clear_tape()


def test_wo_tri_drops_triplet_term(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs, users = batch_from(split)
    total, parts = joint_loss(seqs, users, tiny_model, "wo_tri", tiny_cfg(), 0, 0,
                              train=False)
    assert "tri" not in parts and "cl" in parts
    ag.clear_tape()


def test_joint_gradient_is_sum_of_term_gradients(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs, users = batch_from(split, n=6)
    model = tiny_model
    alpha, beta = 0.25, 0.04
    names = list(model.named_params(("enc", "rec")))

    def grads_of(a, b):
        cfg = tiny_cfg(alpha=a, beta=b)
        store = ParamStore(model.named_params(("enc", "rec")))
        store.zero_grads()
        total, _ = joint_loss(seqs, users, model, "full", cfg, 0, 0, train=False)
        ag.backward(total)
        out = {n: (store[n].grad.copy() if store[n].grad is not None else 0.0)
               for n in names}
        store.zero_grads()
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


def test_base_mode_leaves_augmenter_untouched(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs, users = batch_from(split)
    model = tiny_model
    aug_store = ParamStore(model.named_params(("aug",)))
    aug_store.zero_grads()
    total, _ = joint_loss(seqs, users, model, "base", tiny_cfg(), 0, 0, train=False)
    ag.backward(total)
    for name, p in aug_store.items():
        assert p.grad is None, f"augmenter param {name} got a gradient in base mode"
    ParamStore(model.named_params()).zero_grads()


def test_cotrain_adds_restoration_term(tiny_data, tiny_model):
    from seqrec.augops import CorruptionConfig

    split, vocab = tiny_data
    seqs, users = batch_from(split)
    model = tiny_model
    ccfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=vocab.n_items)
    total, parts = joint_loss(seqs, users, model, "cotrain", tiny_cfg(), 0, 0,
                              train=False, ccfg=ccfg)
    assert "aug" in parts
    ag.backward(total)
    aug_store = ParamStore(model.named_params(("aug",)))
    assert any(p.grad is not None for _, p in aug_store.items())
    ParamStore(model.named_params()).zero_grads()


def test_unknown_mode_rejected(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs, users = batch_from(split)
    with pytest.raises(ConfigError):
        joint_loss(seqs, users, tiny_model, "fancy", tiny_cfg(), 0, 0)


def test_singleton_remainder_batch_skips_in_batch_term(tiny_data, tiny_model):
    split, _ = tiny_data
    seqs, users = batch_from(split, n=1)
    total, parts = joint_loss(seqs, users, tiny_model, "full", tiny_cfg(), 0, 0,
                              train=False)
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
    assert set(result.best_arrays) == set(result.model.named_params(("enc", "aug")))


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


def test_recommender_needs_augmenter_for_full_mode(tiny_data):
    split, vocab = tiny_data
    with pytest.raises(ConfigError):
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
    for mode in ("full", "wo_tri", "duoaug", "cotrain", "testaug"):
        cfg = tiny_cfg(mode=mode, epochs_recommender=1)
        pre = phase1.model if mode != "base" else None
        result = train_recommender(split, vocab, cfg, pretrained=pre)
        assert np.isfinite(result.history[0]["val_sum"])


def test_resume_matches_unbroken_run(tiny_data):
    split, vocab = tiny_data
    cfg = tiny_cfg(mode="base", epochs_recommender=3, dropout=0.2)

    straight = train_recommender(split, vocab, cfg)

    cfg2 = tiny_cfg(mode="base", epochs_recommender=2, dropout=0.2)
    partial = train_recommender(split, vocab, cfg2)
    # snapshot params + optimizer, rebuild fresh objects, continue epoch 2
    arrays = model_arrays(partial.model)
    dims = dims_from_config(cfg, vocab.n_items)
    resumed_model = model_from_arrays(dims, arrays, seed=cfg.seed)
    params = ParamStore(resumed_model.named_params(("enc", "rec")))
    opt = AdamState(params, lr=cfg.lr)
    opt.load_state_arrays(partial.opt.state_arrays(), partial.opt.step_count)
    resumed = train_recommender(split, vocab, cfg, model=resumed_model, opt=opt,
                                start_epoch=2)
    assert resumed.history[0]["epoch"] == 2
    a = straight.history[-1]
    b = resumed.history[0]
    assert abs(a["loss_total"] - b["loss_total"]) <= 1e-12
    assert abs(a["val_sum"] - b["val_sum"]) <= 1e-12
    for name, arr in model_arrays(straight.model).items():
        np.testing.assert_array_equal(arr, model_arrays(resumed.model)[name])


def test_generation_op_proportions_sum_to_one(tiny_data, tiny_model):
    split, _ = tiny_data
    props = generation_op_proportions([u.train for u in split.users[:20]], tiny_model)
    assert len(props) == 3
    assert abs(sum(props) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# restoration validation
# ---------------------------------------------------------------------------

CCFG = CorruptionConfig(0.4, 0.5, 0.1, max_insert_run=5, n_items=120)


def test_validation_encodes_each_chunk_once(tiny_data, tiny_model, monkeypatch):
    split, _ = tiny_data
    calls = []
    original = am.encode_batch

    def counting(ids, *args, **kwargs):
        calls.append(ids.shape[0])
        return original(ids, *args, **kwargs)

    monkeypatch.setattr(am, "encode_batch", counting)
    validation_aug_loss(split, tiny_model, CCFG, seed=3, batch_size=16)
    eligible = sum(len(u.train) >= 2 for u in split.users)
    assert len(calls) == -(-eligible // 16)
    assert sum(calls) == eligible


def test_validation_pools_hits_not_ratios(tiny_data, trained_model):
    split, _ = tiny_data
    users = [u for u in split.users if len(u.train) >= 2]
    records = _corrupt_batch([u.train for u in users], [u.user_id for u in users], CCFG,
                             3, "valid", trained_model.dims.max_aug_len - 1)
    whole = restoration_accuracy(records, trained_model.enc, trained_model.aug)
    assert 0 < whole.ins_hits < whole.n_ins_items  # a figure that weighting can move
    for batch_size in (7, 16, 64):
        loss, detail = validation_aug_loss(split, trained_model, CCFG, 3, batch_size)
        assert detail["ins_top1"] == whole.ins_hits / whole.n_ins_items
        assert detail["op_accuracy"] == whole.op_hits / whole.n_op_positions
        assert loss == pytest.approx(whole.loss, rel=1e-12)
