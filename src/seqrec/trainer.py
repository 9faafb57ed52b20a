"""Two-phase training.

Phase 1 teaches the augmenter to restore randomly corrupted sequences
(encoder + augmenter trained on the restoration loss). Phase 2 trains the
recommender on the joint objective: next-item loss plus weighted in-batch
and triplet contrastive terms over (raw, learned-augmented,
random-augmented) views. The encoder keeps training in phase 2; the
augmenter is frozen except in cotrain mode.

All randomness is keyed by (seed, phase, epoch, batch, row), so a run can
be resumed from a checkpoint and continue exactly as the unbroken run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .augmenter import (
    AugmenterParams,
    augmenter_loss,
    generate_augmented_batch,
    predict_op_logits,
    restoration_accuracy,
)
from .augops import AugConfig, CorruptionConfig, corrupt_sequence, random_augment
from .config import MODES, RunConfig
from .contrastive import batch_contrastive_loss, triplet_loss
from .data import SplitDataset, Vocabulary, make_batches, pad_batch
from .encoder import EncoderParams, ModelDims, encode_batch
from .errors import ConfigError
from .evaluate import evaluate_model
from .optim import AdamState, ParamStore, adam_step
from .recommender import RecommenderParams, rec_loss, sequence_reprs
from .seeding import SeedStream, derive_seed, rng_for


@dataclass
class RecModel:
    """Bundle of all trainable components sharing one ModelDims."""

    dims: ModelDims
    enc: EncoderParams
    aug: AugmenterParams | None = None
    rec: RecommenderParams | None = None

    def named_params(self, components=("enc", "aug", "rec")):
        out = {}
        if "enc" in components:
            out.update(self.enc.named_params("enc"))
        if "aug" in components and self.aug is not None:
            out.update(self.aug.named_params("aug"))
        if "rec" in components and self.rec is not None:
            out.update(self.rec.named_params("rec"))
        return out


def dims_from_config(cfg: RunConfig, n_items: int) -> ModelDims:
    return ModelDims(
        n_items=n_items,
        embed_dim=cfg.embed_dim,
        n_layers=cfg.n_layers,
        n_heads=cfg.n_heads,
        dropout=cfg.dropout,
        max_len=cfg.max_len,
        max_aug_len=cfg.max_aug_len,
        max_insert=cfg.max_insert,
    )


def build_model(dims: ModelDims, seed: int, with_aug: bool = True,
                with_rec: bool = True) -> RecModel:
    return RecModel(
        dims=dims,
        enc=EncoderParams(dims, seed),
        aug=AugmenterParams(dims, seed) if with_aug else None,
        rec=RecommenderParams(dims, seed) if with_rec else None,
    )


@dataclass
class TrainResult:
    model: RecModel
    opt: AdamState
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = float("nan")
    best_arrays: dict[str, np.ndarray] = field(default_factory=dict)


def _chunks(seq, size):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


# ---------------------------------------------------------------------------
# Phase 1: augmenter pretraining
# ---------------------------------------------------------------------------


def _corrupt_batch(seqs, user_ids, ccfg, base_seed, tag, max_mod_len):
    """Fresh corruption records for one batch; over-long damage is skipped."""
    records = []
    for user, seq in zip(user_ids, seqs):
        rec = corrupt_sequence(seq, ccfg, seed=derive_seed(base_seed, "corrupt", tag, user))
        if len(rec.s_mod) <= max_mod_len:
            records.append(rec)
    return records


def validation_aug_loss(split: SplitDataset, model: RecModel, ccfg: CorruptionConfig,
                        seed: int, batch_size: int) -> tuple[float, dict[str, float]]:
    """Restoration loss + accuracies on a fixed corruption of the prefixes.

    One no-grad pass per chunk. Hits and their denominators are summed over
    chunks, so the accuracies do not depend on batch_size.
    """
    eligible = [u for u in split.users if len(u.train) >= 2]
    max_mod_len = model.dims.max_aug_len - 1
    total, count = 0.0, 0
    op_hits = op_total = ins_hits = ins_total = 0
    for chunk in _chunks(eligible, batch_size):
        records = _corrupt_batch([u.train for u in chunk], [u.user_id for u in chunk],
                                 ccfg, seed, "valid", max_mod_len)
        if not records:
            continue
        stats = restoration_accuracy(records, model.enc, model.aug)
        total += stats.op_nll_sum + stats.ins_nll_sum
        count += stats.n_records
        op_hits += stats.op_hits
        op_total += stats.n_op_positions
        ins_hits += stats.ins_hits
        ins_total += stats.n_ins_items
    mean = total / count if count else float("inf")
    detail = {
        "op_accuracy": op_hits / op_total if op_total else 0.0,
        "ins_top1": ins_hits / ins_total if ins_total else 0.0,
    }
    return mean, detail


def train_augmenter(
    split: SplitDataset,
    vocab: Vocabulary,
    cfg: RunConfig,
    model: RecModel | None = None,
    opt: AdamState | None = None,
    start_epoch: int = 0,
    on_epoch=None,
    log=None,
) -> TrainResult:
    """Minimize the restoration loss with per-epoch fresh corruptions.

    Tracks the best validation restoration loss; pass model/opt/start_epoch
    to resume a run mid-way with identical behaviour.
    """
    dims = dims_from_config(cfg, vocab.n_items)
    if model is None:
        model = build_model(dims, cfg.seed, with_aug=True, with_rec=False)
    ccfg = CorruptionConfig(cfg.p_keep, cfg.p_delete, cfg.p_insert,
                            max_insert_run=cfg.max_insert, n_items=vocab.n_items)
    params = ParamStore(model.named_params(("enc", "aug")))
    if opt is None:
        opt = AdamState(params, lr=cfg.lr)
    result = TrainResult(model=model, opt=opt)
    max_mod_len = dims.max_aug_len - 1
    patience_left = cfg.patience
    best = float("inf")
    for epoch in range(start_epoch, cfg.epochs_augmenter):
        t0 = time.time()
        epoch_loss, n_batches = 0.0, 0
        batches = make_batches(split, cfg.batch_size,
                               seed=derive_seed(cfg.seed, "aug-order", epoch),
                               min_prefix_len=2)
        for b_idx, batch in enumerate(batches):
            records = _corrupt_batch(batch.seqs, batch.user_ids, ccfg, cfg.seed,
                                     epoch, max_mod_len)
            if not records:
                continue
            stream = SeedStream(cfg.seed, "aug-dropout", epoch, b_idx)
            loss, stats = augmenter_loss(records, model.enc, model.aug,
                                         train=True, stream=stream)
            ag.backward(loss)
            params.fill_missing_grads()
            adam_step(params, opt)
            epoch_loss += stats.loss
            n_batches += 1
        val_loss, val_acc = validation_aug_loss(split, model, ccfg, cfg.seed, cfg.batch_size)
        row = {
            "epoch": epoch,
            "train_loss": epoch_loss / max(n_batches, 1),
            "val_loss": val_loss,
            "val_op_accuracy": val_acc["op_accuracy"],
            "val_ins_top1": val_acc["ins_top1"],
            "seconds": time.time() - t0,
        }
        result.history.append(row)
        improved = val_loss < best
        if improved:
            best = val_loss
            result.best_epoch = epoch
            result.best_metric = val_loss
            result.best_arrays = params.copy_values()
            patience_left = cfg.patience
        else:
            patience_left -= 1
        if log:
            log(f"augmenter epoch {epoch}: train {row['train_loss']:.4f} "
                f"val {val_loss:.4f} op_acc {val_acc['op_accuracy']:.3f} "
                f"ins_top1 {val_acc['ins_top1']:.3f} ({row['seconds']:.1f}s)")
        if on_epoch:
            on_epoch(epoch, model, opt, row, improved)
        if patience_left <= 0:
            break
    return result


# ---------------------------------------------------------------------------
# Phase 2: joint recommender training
# ---------------------------------------------------------------------------

MODES_NEEDING_AUGMENTER = ("full", "wo_tri", "duoaug", "testaug")


def make_contrast_views(
    seqs: list[list[int]],
    user_ids: list[str],
    model: RecModel,
    mode: str,
    aug_cfg: AugConfig,
    seed: int,
    epoch,
    batch_idx,
) -> tuple[list[list[int]], list[list[int]]]:
    """Build the two augmented views of each sequence for one batch."""
    mask_id = model.dims.mask_id

    def random_views(tag):
        return [
            random_augment(s, aug_cfg, derive_seed(seed, tag, epoch, u), mask_id)
            for u, s in zip(user_ids, seqs)
        ]

    if mode == "base":
        return random_views("view1"), random_views("view2")
    if mode == "duoaug":
        one = generate_augmented_batch(seqs, model.enc, model.aug, stochastic=True,
                                       rng=rng_for(seed, "duo1", epoch, batch_idx))
        two = generate_augmented_batch(seqs, model.enc, model.aug, stochastic=True,
                                       rng=rng_for(seed, "duo2", epoch, batch_idx))
        return one, two
    # full / wo_tri / testaug / cotrain: learned view + random view
    one = generate_augmented_batch(seqs, model.enc, model.aug, stochastic=False)
    return one, random_views("view2")


def joint_loss(
    seqs: list[list[int]],
    user_ids: list[str],
    model: RecModel,
    mode: str,
    cfg: RunConfig,
    epoch,
    batch_idx,
    train: bool = True,
    stream: SeedStream | None = None,
    ccfg: CorruptionConfig | None = None,
):
    """L = L_rec + alpha*L_cl + beta*L_tri (+ restoration loss in cotrain)."""
    if mode not in MODES:
        raise ConfigError(f"unknown training mode {mode!r}")
    alpha = cfg.alpha
    beta = 0.0 if mode == "wo_tri" else cfg.beta
    parts: dict[str, float] = {}
    total = rec_loss(seqs, model.enc, model.rec, train=train, stream=stream)
    parts["rec"] = total.item()
    if alpha != 0.0 or beta != 0.0:
        aug_cfg = AugConfig(cfg.gamma, cfg.eta, cfg.beta_r)
        view1, view2 = make_contrast_views(seqs, user_ids, model, mode, aug_cfg,
                                           cfg.seed, epoch, batch_idx)
        r1 = sequence_reprs(view1, model.enc, model.rec, train=train, stream=stream)
        r2 = sequence_reprs(view2, model.enc, model.rec, train=train, stream=stream)
        # a trailing remainder batch of one user has no in-batch negatives;
        # the triplet term still applies
        if alpha != 0.0 and len(seqs) >= 2:
            l_cl = batch_contrastive_loss(r1, r2)
            parts["cl"] = l_cl.item()
            total = total + alpha * l_cl
        if beta != 0.0:
            r_raw = sequence_reprs(seqs, model.enc, model.rec, train=train, stream=stream)
            l_tri = triplet_loss(r_raw, r1, r2)
            parts["tri"] = l_tri.item()
            total = total + beta * l_tri
    if mode == "cotrain":
        records = _corrupt_batch(seqs, user_ids, ccfg, cfg.seed, f"co-{epoch}",
                                 model.dims.max_aug_len - 1)
        if records:
            l_aug, stats = augmenter_loss(records, model.enc, model.aug,
                                          train=train, stream=stream)
            parts["aug"] = stats.loss
            total = total + l_aug
    parts["total"] = total.item()
    return total, parts


def joint_step(
    seqs: list[list[int]],
    user_ids: list[str],
    model: RecModel,
    params: ParamStore,
    opt: AdamState,
    mode: str,
    cfg: RunConfig,
    epoch,
    batch_idx,
    ccfg: CorruptionConfig | None = None,
) -> dict[str, float]:
    """One optimization step on the joint objective; returns the loss parts."""
    stream = SeedStream(cfg.seed, "rec-dropout", epoch, batch_idx)
    loss, parts = joint_loss(seqs, user_ids, model, mode, cfg, epoch, batch_idx,
                             train=True, stream=stream, ccfg=ccfg)
    ag.backward(loss)
    params.fill_missing_grads()
    adam_step(params, opt)
    return parts


def train_recommender(
    split: SplitDataset,
    vocab: Vocabulary,
    cfg: RunConfig,
    pretrained: RecModel | None = None,
    model: RecModel | None = None,
    opt: AdamState | None = None,
    start_epoch: int = 0,
    on_epoch=None,
    log=None,
) -> TrainResult:
    """Train the recommender (and encoder) on the joint objective.

    Modes that contrast against a learned view need `pretrained` (phase-1
    encoder + augmenter); its encoder continues training while the
    augmenter stays frozen. cotrain trains encoder, augmenter, and
    recommender together from whatever state is given (or fresh).
    Validation tracks the summed metrics on the validation split.
    """
    mode = cfg.mode
    if mode not in MODES:
        raise ConfigError(f"unknown training mode {mode!r}")
    if mode in MODES_NEEDING_AUGMENTER and pretrained is None and model is None:
        raise ConfigError(f"mode {mode!r} needs a pretrained augmenter")
    dims = dims_from_config(cfg, vocab.n_items)
    if model is None:
        if pretrained is not None:
            model = RecModel(dims=pretrained.dims, enc=pretrained.enc,
                             aug=pretrained.aug,
                             rec=RecommenderParams(pretrained.dims, cfg.seed))
        else:
            with_aug = mode == "cotrain"
            model = build_model(dims, cfg.seed, with_aug=with_aug, with_rec=True)
    trained_parts = ("enc", "rec", "aug") if mode == "cotrain" else ("enc", "rec")
    params = ParamStore(model.named_params(trained_parts))
    if opt is None:
        opt = AdamState(params, lr=cfg.lr)
    ccfg = None
    if mode == "cotrain":
        ccfg = CorruptionConfig(cfg.p_keep, cfg.p_delete, cfg.p_insert,
                                max_insert_run=cfg.max_insert, n_items=vocab.n_items)
    result = TrainResult(model=model, opt=opt)
    patience_left = cfg.patience
    best = -float("inf")
    for epoch in range(start_epoch, cfg.epochs_recommender):
        t0 = time.time()
        sums: dict[str, float] = {}
        n_batches = 0
        batches = make_batches(split, cfg.batch_size,
                               seed=derive_seed(cfg.seed, "rec-order", epoch),
                               min_prefix_len=2)
        for b_idx, batch in enumerate(batches):
            parts = joint_step(batch.seqs, batch.user_ids, model, params, opt,
                               mode, cfg, epoch, b_idx, ccfg=ccfg)
            for key, val in parts.items():
                sums[key] = sums.get(key, 0.0) + val
            n_batches += 1
        report = evaluate_model(split, vocab, model.enc, model.rec, which="valid",
                                seed=cfg.seed, n_negatives=cfg.n_negatives,
                                batch_size=cfg.batch_size)
        row = {"epoch": epoch, "val_sum": report.total,
               "val_skipped": report.n_skipped,
               "seconds": time.time() - t0}
        for key, val in sums.items():
            row[f"loss_{key}"] = val / max(n_batches, 1)
        result.history.append(row)
        improved = report.total > best
        if improved:
            best = report.total
            result.best_epoch = epoch
            result.best_metric = report.total
            result.best_arrays = ParamStore(model.named_params()).copy_values()
            patience_left = cfg.patience
        else:
            patience_left -= 1
        if log:
            loss_bits = " ".join(f"{k}={v / max(n_batches, 1):.4f}" for k, v in sums.items())
            log(f"recommender epoch {epoch}: {loss_bits} val_sum {report.total:.4f} "
                f"({row['seconds']:.1f}s)")
        if on_epoch:
            on_epoch(epoch, model, opt, row, improved)
        if patience_left <= 0:
            break
    return result


def model_arrays(model: RecModel) -> dict[str, np.ndarray]:
    """Named parameter arrays of every component present (for checkpoints)."""
    return ParamStore(model.named_params()).copy_values()


def model_from_arrays(dims: ModelDims, arrays: dict[str, np.ndarray],
                      seed: int = 0) -> RecModel:
    """Rebuild a model from checkpoint arrays; components inferred by prefix."""
    prefixes = {name.split(".", 1)[0] for name in arrays}
    model = build_model(dims, seed, with_aug="aug" in prefixes,
                        with_rec="rec" in prefixes)
    store = ParamStore(model.named_params())
    store.load_values(arrays)
    return model


def generation_op_proportions(
    seqs: list[list[int]],
    model: RecModel,
    batch_size: int = 256,
) -> tuple[float, float, float]:
    """Realized keep/delete/insert fractions when augmenting `seqs` greedily."""
    counts = np.zeros(3)
    with ag.no_grad():
        for chunk in _chunks(seqs, batch_size):
            batch = pad_batch([str(i) for i in range(len(chunk))],
                              [s + [model.dims.mask_id] for s in chunk])
            h = encode_batch(batch.ids, model.enc, train=False)
            ops = predict_op_logits(h, model.aug).data.argmax(axis=-1)
            n, w = batch.ids.shape
            for i, s in enumerate(chunk):
                offset = w - 1 - len(s)
                row = ops[i, offset:w - 1]
                for op in row:
                    counts[op] += 1
    total = counts.sum()
    if total == 0:
        return (0.0, 0.0, 0.0)
    return tuple(counts / total)
