"""Learnable sequence augmenter.

Given encoder states of a (possibly damaged) sequence, the augmenter
predicts a keep/delete/insert operation per position and, at insert
positions, generates a short run of new items with a reverse generator:
a small causal Transformer anchored on the insertion position's hidden
state that emits items most-recent-first until a STOP symbol.

Sequences are encoded with a trailing MASK sentinel. The sentinel's hidden
state anchors end-of-sequence insertions: its generation target is the run
of items deleted from the tail (possibly just STOP). Operation supervision
covers only the real positions, so the per-position operation loss of an
all-keep record is exactly len(seq) * ln 3 under uniform logits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .augops import OP_DELETE, OP_INSERT, CorruptionRecord
from .data import PAD_ID, pad_batch
from .encoder import (
    BlockParams,
    EncoderParams,
    ModelDims,
    encode_batch,
    transformer_stack,
)
from .seeding import SeedStream, rng_for


class AugmenterParams:
    """Operation head plus the reverse generator's own stack and tables."""

    def __init__(self, dims: ModelDims, seed: int):
        self.dims = dims
        e = dims.embed_dim
        # 3 operation logits per position, ordered (keep, delete, insert).
        self.op_proj = ag.xavier_init((3, e), rng_for(seed, "aug", "op_proj"))
        self.gen_blocks = [
            BlockParams(dims, (seed, "aug", "gen_block", i))
            for i in range(dims.n_layers)
        ]
        # Teacher-forced runs can span a whole deleted prefix, so the
        # generator's position table covers max_len + anchor.
        self.gen_pos = ag.xavier_init(
            (dims.max_len + 1, e), rng_for(seed, "aug", "gen_pos")
        )
        self.stop_emb = ag.xavier_init((1, e), rng_for(seed, "aug", "stop_emb"))

    def named_params(self, prefix: str = "aug") -> dict[str, Tensor]:
        out = {
            f"{prefix}.op_proj": self.op_proj,
            f"{prefix}.gen_pos": self.gen_pos,
            f"{prefix}.stop_emb": self.stop_emb,
        }
        for i, blk in enumerate(self.gen_blocks):
            out.update(blk.named_params(f"{prefix}.gen_blocks.{i}"))
        return out


def predict_op_logits(h: Tensor, aug: AugmenterParams) -> Tensor:
    """(.., e) hidden states -> (.., 3) operation logits."""
    return ag.matmul(h, ag.transpose_last(aug.op_proj))


def predict_ops(h: Tensor, aug: AugmenterParams) -> Tensor:
    """Per-position keep/delete/insert probability rows (sum to 1)."""
    return ag.softmax(predict_op_logits(h, aug))


def _stop_class(dims: ModelDims) -> int:
    return dims.n_items  # classes 0..n_items-1 are items 1..n_items


def generator_output_logits(
    h: Tensor, enc: EncoderParams, aug: AugmenterParams
) -> Tensor:
    """Scores over items + STOP via the shared item table plus the STOP row."""
    dims = enc.dims
    item_rows = ag.embedding_lookup(
        enc.item_emb, np.arange(1, dims.n_items + 1, dtype=np.int64)
    )
    rows = ag.concat([item_rows, aug.stop_emb], axis=0)  # (n_items+1, e)
    return ag.matmul(h, ag.transpose_last(rows))


def generator_forward(
    anchors: Tensor,
    teacher_ids: np.ndarray,
    enc: EncoderParams,
    aug: AugmenterParams,
    train: bool = False,
    stream: SeedStream | None = None,
) -> Tensor:
    """Teacher-forced reverse-generator pass.

    anchors: (R, e) hidden states of the insertion positions.
    teacher_ids: (R, M) ground-truth run items, right-padded with PAD.
    Returns logits (R, M+1, n_items+1); the row at step j conditions on the
    anchor plus teacher items < j, so j targets run item j (or STOP at the
    end of the run). Causal masking makes all steps trainable in one pass.
    """
    dims = enc.dims
    r, m = teacher_ids.shape
    e = dims.embed_dim
    parts = [anchors.reshape(r, 1, e)]
    if m > 0:
        parts.append(ag.embedding_lookup(enc.item_emb, teacher_ids))
    h = ag.concat(parts, axis=1) if len(parts) > 1 else parts[0]
    pos = ag.embedding_lookup(aug.gen_pos, np.arange(m + 1, dtype=np.int64))
    h = h + pos
    if train and dims.dropout > 0:
        if stream is None:
            raise ValueError("training forward needs a SeedStream for dropout")
        h = ag.dropout(h, dims.dropout, train=True, rng=stream.next_rng())
    # Padding beyond a run's true length sits to the right; causal masking
    # keeps it out of every valid step, so a plain causal mask suffices.
    fake_ids = np.ones((r, m + 1), dtype=np.int64)
    h = transformer_stack(h, aug.gen_blocks, dims, fake_ids, causal=True,
                          train=train, stream=stream)
    return generator_output_logits(h, enc, aug)


# ---------------------------------------------------------------------------
# Restoration loss
# ---------------------------------------------------------------------------


@dataclass
class AugLossStats:
    """Detached per-batch numbers for logging and closed-form checks."""

    op_nll_sum: float
    ins_nll_sum: float
    n_records: int
    n_op_positions: int
    n_ins_targets: int  # teacher-forced targets incl. STOP steps

    @property
    def loss(self) -> float:
        return (self.op_nll_sum + self.ins_nll_sum) / self.n_records


def _assemble_records(records: list[CorruptionRecord], mask_id: int):
    """Pad damaged sequences (with sentinel) and align labels/runs to columns."""
    seqs = [r.s_mod + [mask_id] for r in records]
    batch = pad_batch([str(i) for i in range(len(records))], seqs)
    n, w = batch.ids.shape
    op_targets = np.zeros((n, w), dtype=np.int64)
    op_mask = np.zeros((n, w))
    runs: list[tuple[int, list[int]]] = []  # (flat anchor index, target run)
    for i, rec in enumerate(records):
        offset = w - 1 - len(rec.s_mod)  # column of s_mod[0]
        op_targets[i, offset:w - 1] = rec.ops
        op_mask[i, offset:w - 1] = 1.0
        for pos, run in rec.ins_targets.items():
            runs.append((i * w + offset + pos, list(run)))
        runs.append((i * w + (w - 1), list(rec.tail_targets)))
    return batch, op_targets, op_mask, runs


def _run_matrices(runs: list[tuple[int, list[int]]], stop_class: int):
    """Right-pad teacher runs and lay out their target classes + valid mask."""
    r = len(runs)
    m = max(len(run) for _, run in runs)
    anchor_idx = np.array([a for a, _ in runs], dtype=np.int64)
    teacher = np.full((r, m), PAD_ID, dtype=np.int64)
    targets = np.zeros((r, m + 1), dtype=np.int64)
    valid = np.zeros((r, m + 1))
    for j, (_, run) in enumerate(runs):
        teacher[j, :len(run)] = run
        targets[j, :len(run)] = [item - 1 for item in run]
        targets[j, len(run)] = stop_class
        valid[j, :len(run) + 1] = 1.0
    return anchor_idx, teacher, targets, valid


@dataclass
class RestorationStats(AugLossStats):
    """AugLossStats plus argmax hit counts; pool batches by summing counts."""

    op_hits: int  # over the n_op_positions real positions
    ins_hits: int  # over the n_ins_items teacher-forced run items
    n_ins_items: int  # n_ins_targets without the STOP steps


class _Head(NamedTuple):
    """One output head of the restoration model over a batch."""

    logits: Tensor
    targets: np.ndarray
    mask: np.ndarray  # 1 where a target counts
    nll_sum: Tensor  # masked cross-entropy sum

    def hits(self, steps: np.ndarray) -> int:
        """Argmax hits over the steps marked 1."""
        return int(((self.logits.data.argmax(axis=-1) == self.targets) * steps).sum())


def _head(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> _Head:
    nll = ag.cross_entropy(logits, targets) * ag.constant(mask)
    return _Head(logits, targets, mask, nll.sum())


def _restoration_forward(
    records: list[CorruptionRecord],
    enc: EncoderParams,
    aug: AugmenterParams,
    train: bool = False,
    stream: SeedStream | None = None,
) -> tuple[_Head, _Head, AugLossStats]:
    """Encode the damaged sequences, then score operations and teacher-forced runs.

    Returns the operation head over real positions, the generator head over
    every run step up to and including STOP, and the batch's AugLossStats.
    """
    if not records:
        raise ValueError("restoration needs a non-empty batch")
    dims = enc.dims
    batch, op_targets, op_mask, runs = _assemble_records(records, dims.mask_id)
    n, w = batch.ids.shape
    h = encode_batch(batch.ids, enc, train=train, stream=stream)
    op = _head(predict_op_logits(h, aug), op_targets, op_mask)
    anchor_idx, teacher, targets, valid = _run_matrices(runs, _stop_class(dims))
    anchors = ag.embedding_lookup(h.reshape(n * w, dims.embed_dim), anchor_idx)
    gen = _head(generator_forward(anchors, teacher, enc, aug, train=train, stream=stream),
                targets, valid)
    stats = AugLossStats(op_nll_sum=op.nll_sum.item(), ins_nll_sum=gen.nll_sum.item(),
                         n_records=n, n_op_positions=int(op_mask.sum()),
                         n_ins_targets=int(valid.sum()))
    return op, gen, stats


def augmenter_loss(
    records: list[CorruptionRecord],
    enc: EncoderParams,
    aug: AugmenterParams,
    train: bool = False,
    stream: SeedStream | None = None,
) -> tuple[Tensor, AugLossStats]:
    """Batch-mean restoration NLL: operation labels + teacher-forced runs.

    Every record contributes one end-of-sequence run (its deleted tail, or
    just STOP), so the generator also learns when nothing belongs at the end.
    """
    op, gen, stats = _restoration_forward(records, enc, aug, train=train, stream=stream)
    return (op.nll_sum + gen.nll_sum) * (1.0 / stats.n_records), stats


def restoration_accuracy(
    records: list[CorruptionRecord],
    enc: EncoderParams,
    aug: AugmenterParams,
) -> RestorationStats:
    """Held-out diagnostics of one batch from a single no-grad pass.

    The loss numbers are augmenter_loss's; op_hits counts argmax operation
    hits over real positions, ins_hits argmax hits over teacher-forced run
    items (STOP steps excluded).
    """
    with ag.no_grad():
        op, gen, stats = _restoration_forward(records, enc, aug)
    item_steps = gen.mask * (gen.targets != _stop_class(enc.dims))
    return RestorationStats(**vars(stats), op_hits=op.hits(op.mask),
                            ins_hits=gen.hits(item_steps), n_ins_items=int(item_steps.sum()))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _decode_runs(
    anchors: np.ndarray,
    enc: EncoderParams,
    aug: AugmenterParams,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    max_run: int | None = None,
) -> list[list[int]]:
    """Decode one insertion run per anchor, re-encoding the prefix each step.

    Returns runs in generation (reverse) order; a run ends at STOP or at
    max_run items. All anchors still active at a step share one forward.
    """
    dims = enc.dims
    if max_run is None:
        max_run = dims.max_insert
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sample mode needs an rng")
    stop = _stop_class(dims)
    n_anchors = anchors.shape[0]
    runs: list[list[int]] = [[] for _ in range(n_anchors)]
    active = list(range(n_anchors))
    with ag.no_grad():
        for step in range(max_run):
            idx = np.array(active, dtype=np.int64)
            teacher = (
                np.array([runs[i] for i in active], dtype=np.int64)
                if step > 0 else np.zeros((len(active), 0), dtype=np.int64)
            )
            logits = generator_forward(
                ag.constant(anchors[idx]), teacher, enc, aug
            ).data[:, step, :]
            if mode == "greedy":
                picks = logits.argmax(axis=-1)
            else:
                shifted = logits - logits.max(axis=-1, keepdims=True)
                probs = np.exp(shifted)
                probs /= probs.sum(axis=-1, keepdims=True)
                picks = np.array([rng.choice(len(p), p=p) for p in probs])
            survivors = []
            for row, pick in zip(active, picks):
                if int(pick) == stop:
                    continue
                runs[row].append(int(pick) + 1)  # class -> item id
                survivors.append(row)
            active = survivors
            if not active:
                break
    return runs


def reverse_generate(
    anchor_h,
    enc: EncoderParams,
    aug: AugmenterParams,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    max_run: int | None = None,
) -> list[int]:
    """Generate one insertion run (reverse order) from a single anchor state."""
    data = anchor_h.data if isinstance(anchor_h, Tensor) else np.asarray(anchor_h)
    return _decode_runs(data[None, :], enc, aug, mode=mode, rng=rng, max_run=max_run)[0]


def generate_augmented_batch(
    seqs: list[list[int]],
    enc: EncoderParams,
    aug: AugmenterParams,
    stochastic: bool = False,
    rng: np.random.Generator | None = None,
) -> list[list[int]]:
    """Augment each sequence with the trained model.

    Per position the argmax operation is applied (sampled when stochastic);
    insert runs are decoded reverse-first and spliced back in forward order
    before their anchor. The sentinel anchor may append items at the end.
    Output is never empty (falls back to the last item) and is truncated to
    the max_aug_len most recent tokens.
    """
    dims = enc.dims
    if stochastic and rng is None:
        raise ValueError("stochastic generation needs an rng")
    if any(len(s) < 1 for s in seqs):
        raise ValueError("cannot augment an empty sequence")
    batch = pad_batch([str(i) for i in range(len(seqs))], [s + [dims.mask_id] for s in seqs])
    n, w = batch.ids.shape
    with ag.no_grad():
        h = encode_batch(batch.ids, enc, train=False)
        op_logits = predict_op_logits(h, aug).data
    if stochastic:
        shifted = op_logits - op_logits.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        flat = probs.reshape(-1, 3)
        ops = np.array([rng.choice(3, p=p) for p in flat]).reshape(n, w)
    else:
        ops = op_logits.argmax(axis=-1)

    # One decode slot per insert position plus one per sentinel.
    anchor_rows: list[int] = []
    slot_of: dict[tuple[int, int], int] = {}
    h_flat = h.data.reshape(n * w, dims.embed_dim)
    for i, seq in enumerate(seqs):
        offset = w - 1 - len(seq)
        for t in range(len(seq)):
            if ops[i, offset + t] == OP_INSERT:
                slot_of[(i, t)] = len(anchor_rows)
                anchor_rows.append(i * w + offset + t)
        slot_of[(i, len(seq))] = len(anchor_rows)  # sentinel slot
        anchor_rows.append(i * w + (w - 1))
    decode_mode = "sample" if stochastic else "greedy"
    runs = _decode_runs(h_flat[np.array(anchor_rows, dtype=np.int64)], enc, aug,
                        mode=decode_mode, rng=rng)

    out: list[list[int]] = []
    for i, seq in enumerate(seqs):
        offset = w - 1 - len(seq)
        built: list[int] = []
        for t, item in enumerate(seq):
            op = ops[i, offset + t]
            if op == OP_INSERT:
                built.extend(reversed(runs[slot_of[(i, t)]]))
            if op != OP_DELETE:
                built.append(item)
        built.extend(reversed(runs[slot_of[(i, len(seq))]]))
        if not built:
            built = [seq[-1]]
        out.append(built[-dims.max_aug_len:])
    return out


def generate_augmented(
    items: list[int],
    enc: EncoderParams,
    aug: AugmenterParams,
    stochastic: bool = False,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Single-sequence convenience wrapper over generate_augmented_batch."""
    return generate_augmented_batch([items], enc, aug, stochastic=stochastic, rng=rng)[0]
