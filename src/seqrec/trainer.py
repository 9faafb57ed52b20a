"""Two-phase training.

Phase 1 teaches the augmenter to restore randomly corrupted sequences
(encoder + augmenter trained on the restoration loss). Phase 2 trains the
recommender on the joint objective: next-item loss plus weighted in-batch
and triplet contrastive terms over (raw, learned-augmented,
random-augmented) views. The encoder keeps training in phase 2; what
each mode contrasts, and whether it also trains the augmenter, is its row
of config.MODES.

This module turns that row into a run: the components each phase trains,
the corruption generator configured from a RunConfig, and the checks of
the model and Adam state a run starts from (_start). A run's resumable
state is one TrainResult, which `resume` continues. Both phases run one
epoch loop (_run_epochs): batch order, one generator and one dropout
SeedStream per batch (the forward trains because it is given a stream),
the Adam step, loss averages, validation, early stopping and the log line.

The batch is the unit of replay. Its corruption (one corrupt_sequence call
over the batch), random views and sampled generations all draw, in a fixed
order, from one generator keyed by (seed, phase, epoch, batch), and its
dropout masks from a stream under the same key, so a run can be resumed
from a checkpoint and continue exactly as the unbroken run. Validation
corrupts every prefix in one call, from one generator keyed by the seed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .augmenter import (
    AugmenterParams,
    RestorationStats,
    augmenter_loss,
    generate_augmented_batch,
    restoration_accuracy,
)
from .augops import AugConfig, CorruptionConfig, corrupt_sequence, random_augment
from .config import RunConfig
from .contrastive import batch_contrastive_loss, triplet_loss
from .data import SplitDataset, Vocabulary, make_batches
from .encoder import EncoderParams, ModelDims, Params
from .errors import CheckpointError, ConfigError, NonFiniteError
from .evaluate import check_negative_count, evaluate_model
from .optim import AdamState, adam_step
from .recommender import RecommenderParams, rec_loss, sequence_reprs
from .seeding import SeedStream, rng_for


@dataclass
class RecModel(Params):
    """Bundle of all trainable components sharing one ModelDims; its
    parameters are named enc.*, aug.*, rec.* (Params), in that order."""

    dims: ModelDims
    enc: EncoderParams
    aug: AugmenterParams | None = None
    rec: RecommenderParams | None = None

    def named_params(self, components=("enc", "aug", "rec")) -> dict[str, Tensor]:
        """The parameters of the named components, in the table's order."""
        return {name: t for name, t in super().named_params().items()
                if name.split(".", 1)[0] in components}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Set every parameter from values, which must name exactly these; a refused
        load sets none."""
        params = self.named_params()
        extra = [name for name in values if name not in params]
        if extra:
            raise CheckpointError(f"array {extra[0]!r} is not a parameter of this model "
                                  f"({len(extra)} such arrays)")
        for name, t in params.items():
            if name not in values:
                raise CheckpointError(f"missing array for parameter {name!r}")
            if values[name].shape != t.data.shape:
                raise CheckpointError(f"array {name!r} has shape {values[name].shape}, "
                                      f"the model needs {t.data.shape}")
        for name, t in params.items():
            t.data = values[name].astype(t.data.dtype, copy=True)


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


def corruption_config(cfg: RunConfig, n_items: int) -> CorruptionConfig:
    """The corruption generator that restoration trains on, in phase 1 and in
    a phase 2 that trains the augmenter."""
    return CorruptionConfig(cfg.p_keep, cfg.p_delete, cfg.p_insert,
                            max_insert_run=cfg.max_insert, n_items=n_items)


@dataclass
class TrainResult:
    """A run's resumable state and epoch rows: model, Adam state, the last
    finished epoch (-1 before any), the best epoch (-1 before any improves),
    its metric, and the epochs without improvement the run still allows."""

    model: RecModel
    opt: AdamState
    history: list[dict] = field(default_factory=list)
    epoch: int = -1
    best_epoch: int = -1
    best_metric: float = float("nan")
    patience_left: int = 0


def _step(loss, params: dict[str, Tensor], opt: AdamState, key: tuple) -> None:
    """Backward and one Adam step, refused when the loss or a gradient is not finite.

    A parameter the loss did not reach steps on a zero gradient. key is the
    batch's (seed, phase, epoch, batch); the run stops before a NaN or Inf
    reaches the parameters, the Adam moments or a checkpoint.
    """
    ag.backward(loss)
    for t in params.values():
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
    bad = [name for name, t in params.items() if not np.isfinite(t.grad).all()]
    if bad or not np.isfinite(loss.item()):
        seed, phase, epoch, batch = key
        what = f"gradient of {', '.join(bad)}" if bad else "loss"
        raise NonFiniteError(f"non-finite {what} at seed {seed}, phase {phase}, "
                             f"epoch {epoch}, batch {batch}", key)
    adam_step(params, opt)


def _chunks(seq, size):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


# ---------------------------------------------------------------------------
# Phase 1: augmenter pretraining
# ---------------------------------------------------------------------------


def _corrupt_batch(seqs, ccfg, rng, dims: ModelDims):
    """One corruption batch drawn from rng; damage that leaves the MASK
    sentinel no slot in the max_aug_len window is skipped."""
    return [rec for rec in corrupt_sequence(seqs, ccfg, rng)
            if len(rec.s_mod) <= dims.max_aug_len - 1]


def _check_prefix_lengths(split: SplitDataset, max_len: int) -> None:
    """Refuse train prefixes longer than max_len before the first batch.

    A corruption may delete a whole prefix into one teacher-forced run, and
    the generator's position table covers runs of at most max_len items.
    """
    for u in split.users:
        if len(u.train) > max_len:
            raise ConfigError(f"user {u.user_id!r} has a train prefix of {len(u.train)} "
                              f"items, longer than max_len {max_len}; preprocess the "
                              f"data with the run's max_len")


def validation_aug_loss(split: SplitDataset, model: RecModel, ccfg: CorruptionConfig,
                        seed: int, batch_size: int) -> tuple[float, dict[str, float]]:
    """Restoration loss + accuracies on a fixed corruption of the prefixes.

    The trainable prefixes (those training batches hold) are corrupted
    once, as one batch in split order from one generator keyed (seed,
    "valid-corrupt"), and the records are then scored in chunks of
    batch_size, one no-grad pass per chunk; so the records do not depend on
    batch_size. The chunks' RestorationStats are pooled before any ratio is
    taken, so the accuracies do not depend on batch_size either.
    """
    records = _corrupt_batch(split.trainable_prefixes(), ccfg, rng_for(seed, "valid-corrupt"),
                             model.dims)
    stats = sum((restoration_accuracy(chunk, model.enc, model.aug)
                 for chunk in _chunks(records, batch_size)), RestorationStats())
    return stats.loss, {"op_accuracy": stats.op_accuracy, "ins_top1": stats.ins_top1}


# Per phase: the tag of its batch-order, batch and dropout keys, and the history
# field that picks the best epoch, with its sign (1 maximises, -1 minimises).
_PHASES = {"augmenter": ("aug", "val_loss", -1), "recommender": ("rec", "val_sum", 1)}


def _start(phase: str, cfg: RunConfig, n_items: int, model: RecModel,
           resume: TrainResult | None) -> tuple[TrainResult, dict[str, Tensor]]:
    """The run's starting state and the parameters its phase trains.

    The starting model (fresh, on a phase-1 model, or resume.model) must have
    cfg's dims, since checkpoints store cfg, and a resumed Adam state must
    hold both moments, each of the parameter's shape, for every parameter
    the run trains; it steps at cfg.lr, the lr those checkpoints store.
    Phase 1 trains encoder + augmenter; phase 2 encoder + recommender,
    + augmenter where the mode says, and refuses an n_negatives its
    validation could rank no user with.
    """
    source = "resumed" if resume is not None else "phase-1"  # a fresh model has cfg's dims
    have, want = asdict(model.dims), asdict(dims_from_config(cfg, n_items))
    differ = [f"{k} {have[k]} vs {v}" for k, v in want.items() if have[k] != v]
    if differ:
        raise ConfigError(f"the {source} model does not match the run config "
                          f"({source} vs config): {'; '.join(differ)}")
    if phase == "recommender":
        check_negative_count(cfg.n_negatives, n_items)
    if phase == "augmenter":
        parts = ("enc", "aug")
    else:
        parts = ("enc", "rec", "aug") if cfg.policy.trains_augmenter else ("enc", "rec")
    params = model.named_params(parts)
    if resume is None:
        return TrainResult(model, AdamState(params, lr=cfg.lr), patience_left=cfg.patience), params
    moments = {"m": resume.opt.m, "v": resume.opt.v}
    for name, t in params.items():
        lacking = [f"{kind}.{name}" for kind, held in moments.items() if name not in held]
        if lacking:
            what = "moments" if len(lacking) == 2 else f"moment {lacking[0]!r}"
            raise ConfigError(f"the resumed Adam state holds no {what} for parameter "
                              f"{name!r}, which a {phase} run in mode {cfg.mode!r} trains")
        for kind, held in moments.items():
            if held[name].shape != t.data.shape:
                raise ConfigError(f"the resumed Adam state's array '{kind}.{name}' has shape "
                                  f"{held[name].shape}, the parameter {t.data.shape}")
    resume.opt.lr = float(cfg.lr)
    return resume, params


def _run_epochs(phase: str, split: SplitDataset, cfg: RunConfig, result: TrainResult,
                params: dict[str, Tensor], batch_loss, validate, on_epoch=None,
                log=None) -> TrainResult:
    """The epoch loop of both phases, from result.epoch + 1 up to cfg.epochs_<phase>.

    Batch b of an epoch steps params on batch_loss(seqs, rng, stream) ->
    (loss, parts), or is skipped on None; rng and stream are keyed by (seed,
    tag, epoch, b). The row averages the parts over the stepped batches and
    adds validate()'s fields. An epoch improves when its metric beats every
    earlier one's (a phase-1 val_loss of inf never does); the run stops
    after cfg.patience epochs without one, resumed or not. on_epoch(result,
    improved) runs after each epoch's row is logged.
    """
    tag, metric, sign = _PHASES[phase]
    best = sign * result.best_metric if result.best_epoch >= 0 else -float("inf")
    for epoch in range(result.epoch + 1, getattr(cfg, f"epochs_{phase}")):
        if result.patience_left <= 0:
            break
        t0 = time.perf_counter()
        sums: dict[str, float] = {}
        n_batches = 0
        batches = make_batches(split, cfg.batch_size, rng_for(cfg.seed, f"{tag}-order", epoch))
        for b_idx, seqs in enumerate(batches):
            rng = rng_for(cfg.seed, f"{tag}-batch", epoch, b_idx)
            stream = SeedStream(cfg.seed, f"{tag}-dropout", epoch, b_idx)
            stepped = batch_loss(seqs, rng, stream)
            if stepped is None:
                continue
            loss, parts = stepped
            _step(loss, params, result.opt, (cfg.seed, phase, epoch, b_idx))
            for key, val in parts.items():
                sums[key] = sums.get(key, 0.0) + val
            n_batches += 1
        row = {"epoch": epoch, **{k: v / n_batches for k, v in sums.items()}, **validate()}
        row["seconds"] = time.perf_counter() - t0
        result.history.append(row)
        result.epoch = epoch
        improved = sign * row[metric] > best
        if improved:
            best = sign * row[metric]
            result.best_epoch = epoch
            result.best_metric = row[metric]
            result.patience_left = cfg.patience
        else:
            result.patience_left -= 1
        if log:
            fields = " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in row.items() if k not in ("epoch", "seconds"))
            log(f"{phase} epoch {epoch}: {fields} ({row['seconds']:.1f}s)")
        if on_epoch:
            on_epoch(result, improved)
    return result


def train_augmenter(
    split: SplitDataset,
    vocab: Vocabulary,
    cfg: RunConfig,
    resume: TrainResult | None = None,
    on_epoch=None,
    log=None,
) -> TrainResult:
    """Minimize the restoration loss with per-epoch fresh corruptions.

    Tracks the best validation restoration loss. `resume`, a phase-1
    TrainResult, continues that run after its last epoch exactly as the
    unbroken run would.
    """
    model = resume.model if resume else build_model(dims_from_config(cfg, vocab.n_items),
                                                    cfg.seed, with_rec=False)
    result, params = _start("augmenter", cfg, vocab.n_items, model, resume)
    _check_prefix_lengths(split, model.dims.max_len)
    ccfg = corruption_config(cfg, vocab.n_items)

    def batch_loss(seqs, rng, stream):
        records = _corrupt_batch(seqs, ccfg, rng, model.dims)
        if not records:
            return None
        loss, stats = augmenter_loss(records, model.enc, model.aug, stream=stream)
        return loss, {"train_loss": stats.loss}

    def validate():
        val_loss, val_acc = validation_aug_loss(split, model, ccfg, cfg.seed, cfg.batch_size)
        return {"val_loss": val_loss, "val_op_accuracy": val_acc["op_accuracy"],
                "val_ins_top1": val_acc["ins_top1"]}

    return _run_epochs("augmenter", split, cfg, result, params, batch_loss, validate,
                       on_epoch, log)


# ---------------------------------------------------------------------------
# Phase 2: joint recommender training
# ---------------------------------------------------------------------------

def make_contrast_views(
    seqs: list[list[int]],
    model: RecModel,
    sources: tuple[str, str],
    aug_cfg: AugConfig,
    rng: np.random.Generator,
) -> tuple[list[list[int]], list[list[int]]]:
    """The two augmented views of each sequence for one batch, one per source
    (config.ModePolicy.views), in order; sampled and random views draw from rng."""
    views = []
    for source in sources:
        if source == "random":
            views.append([random_augment(s, aug_cfg, rng, model.dims.mask_id) for s in seqs])
        else:
            views.append(generate_augmented_batch(seqs, model.enc, model.aug,
                                                  rng=rng if source == "sampled" else None))
    return views[0], views[1]


def joint_loss(
    seqs: list[list[int]],
    model: RecModel,
    cfg: RunConfig,
    rng: np.random.Generator,
    stream: SeedStream | None = None,
):
    """L = L_rec + alpha*L_cl + beta*L_tri (+ the restoration loss where the
    mode trains the augmenter).

    The terms and views follow cfg.mode's policy. The views, then the
    restoration loss's corruptions, draw from rng. With a stream the forward
    trains: every stack draws its dropout masks from it, in call order.
    """
    alpha = cfg.alpha
    beta = cfg.beta if cfg.policy.triplet else 0.0
    parts: dict[str, float] = {}
    total = rec_loss(seqs, model.enc, model.rec, stream=stream)
    parts["rec"] = total.item()
    if alpha != 0.0 or beta != 0.0:
        aug_cfg = AugConfig(cfg.gamma, cfg.eta, cfg.beta_r)
        view1, view2 = make_contrast_views(seqs, model, cfg.policy.views, aug_cfg, rng)
        r1 = sequence_reprs(view1, model.enc, model.rec, stream=stream)
        r2 = sequence_reprs(view2, model.enc, model.rec, stream=stream)
        # a trailing remainder batch of one user has no in-batch negatives;
        # the triplet term still applies
        if alpha != 0.0 and len(seqs) >= 2:
            l_cl = batch_contrastive_loss(r1, r2)
            parts["cl"] = l_cl.item()
            total = total + alpha * l_cl
        if beta != 0.0:
            r_raw = sequence_reprs(seqs, model.enc, model.rec, stream=stream)
            l_tri = triplet_loss(r_raw, r1, r2)
            parts["tri"] = l_tri.item()
            total = total + beta * l_tri
    if cfg.policy.trains_augmenter:
        ccfg = corruption_config(cfg, model.dims.n_items)
        records = _corrupt_batch(seqs, ccfg, rng, model.dims)
        if records:
            l_aug, stats = augmenter_loss(records, model.enc, model.aug, stream=stream)
            parts["aug"] = stats.loss
            total = total + l_aug
    parts["total"] = total.item()
    return total, parts


def train_recommender(
    split: SplitDataset,
    vocab: Vocabulary,
    cfg: RunConfig,
    pretrained: RecModel | None = None,
    resume: TrainResult | None = None,
    on_epoch=None,
    log=None,
) -> TrainResult:
    """Train the recommender (and encoder) on the joint objective.

    A run starts fresh, from `pretrained` (phase-1 encoder + augmenter) or
    continues `resume`, a phase-2 TrainResult, after its last epoch; not
    both. Modes that contrast against a learned view need a starting model
    that holds an augmenter; the encoder continues training while the
    augmenter stays frozen. A mode that trains the augmenter trains
    encoder, augmenter, and recommender together from whatever state is
    given (or fresh). Validation tracks the summed metrics on the
    validation split.
    """
    if resume is not None:
        if pretrained is not None:
            raise ConfigError("a run either starts from a phase-1 model (--augmenter) or "
                              "continues a resumed one (--resume), not both")
        model = resume.model
    elif pretrained is not None:
        model = RecModel(pretrained.dims, pretrained.enc, pretrained.aug,
                         RecommenderParams(pretrained.dims, cfg.seed))
    else:
        model = build_model(dims_from_config(cfg, vocab.n_items), cfg.seed,
                            with_aug=cfg.policy.trains_augmenter)
    result, params = _start("recommender", cfg, vocab.n_items, model, resume)
    if cfg.policy.needs_augmenter and model.aug is None:
        raise ConfigError(f"mode {cfg.mode!r} needs an augmenter, which the starting model "
                          f"lacks: start a new run from a phase-1 checkpoint (--augmenter CKPT)")
    if cfg.policy.trains_augmenter:
        _check_prefix_lengths(split, model.dims.max_len)

    def batch_loss(seqs, rng, stream):
        loss, parts = joint_loss(seqs, model, cfg, rng, stream=stream)
        return loss, {f"loss_{key}": val for key, val in parts.items()}

    def validate():
        report = evaluate_model(split, vocab, model.enc, model.rec, which="valid",
                                seed=cfg.seed, n_negatives=cfg.n_negatives,
                                batch_size=cfg.batch_size)
        return {"val_sum": report.total, "val_skipped": report.n_skipped}

    return _run_epochs("recommender", split, cfg, result, params, batch_loss, validate,
                       on_epoch, log)


def model_arrays(model: RecModel) -> dict[str, np.ndarray]:
    """A copy of every present component's named parameter arrays (for checkpoints)."""
    return {name: t.data.copy() for name, t in model.named_params().items()}


def model_from_arrays(dims: ModelDims, arrays: dict[str, np.ndarray]) -> RecModel:
    """Rebuild a model from checkpoint arrays; components inferred by prefix.

    RecModel.load_values refuses arrays that do not match the model's table.
    """
    prefixes = {name.split(".", 1)[0] for name in arrays}
    model = build_model(dims, 0, with_aug="aug" in prefixes,
                        with_rec="rec" in prefixes)
    model.load_values(arrays)
    return model
