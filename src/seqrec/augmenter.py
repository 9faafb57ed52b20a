"""Learnable sequence augmenter.

Given encoder states of a (possibly damaged) sequence, the augmenter
predicts a keep/delete/insert operation per position and, at insert
positions, generates a short run of new items with a reverse generator:
a small causal Transformer anchored on the insertion position's hidden
state that emits items most-recent-first until a STOP symbol.

Sequences are encoded with a trailing MASK sentinel into one flat array of
cells, one pass per length class (encoder.class_passes). The sentinel's
state anchors end-of-sequence insertions: its generation target is the run
of items deleted from the tail (possibly just STOP). Operation supervision
covers only the real positions, so the per-position operation loss of an
all-keep record is exactly len(seq) * ln 3 under uniform logits.

The restoration loss is scored per run-length class: each generator pass
projects only its class's real steps onto the catalog plus STOP, and one
cross-entropy per class scores them, so no catalog-wide logits outlive
their class.

Generation reads the model's ops and decoded runs as a CorruptionRecord
and rebuilds each sequence with augops.restore_sequence, the same rule
that undoes a corruption.

The restoration loss trains when it is given a SeedStream: the encoder's
and the generator's passes then draw their dropout masks from it, in
class order. Generation and the held-out diagnostics take no stream and
draw none.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .augops import OP_INSERT, CorruptionRecord, restore_sequence
from .data import PAD_ID, length_classes
from .encoder import (
    BlockParams,
    EncoderParams,
    ModelDims,
    Params,
    _dropout,
    class_passes,
    encode_batch,
    transformer_stack,
)
from .seeding import SeedStream, rng_for


class AugmenterParams(Params):
    """Operation head plus the reverse generator's own stack and tables."""

    prefix = "aug"

    def __init__(self, dims: ModelDims, seed: int):
        self.dims = dims
        e = dims.embed_dim
        # 3 operation logits per position, ordered (keep, delete, insert).
        self.op_proj = ag.xavier_init((3, e), rng_for(seed, "aug", "op_proj"))
        # Teacher-forced runs can span a whole deleted prefix, so the
        # generator's position table covers max_len + anchor.
        self.gen_pos = ag.xavier_init(
            (dims.max_len + 1, e), rng_for(seed, "aug", "gen_pos")
        )
        self.stop_emb = ag.xavier_init((1, e), rng_for(seed, "aug", "stop_emb"))
        self.gen_blocks = [
            BlockParams(dims, (seed, "aug", "gen_block", i))
            for i in range(dims.n_layers)
        ]


def predict_op_logits(h: Tensor, aug: AugmenterParams) -> Tensor:
    """(.., e) hidden states -> (.., 3) operation logits."""
    return ag.matmul(h, ag.transpose_last(aug.op_proj))


def _stop_class(dims: ModelDims) -> int:
    return dims.n_items  # classes 0..n_items-1 are items 1..n_items


def generator_output_logits(
    h: Tensor, enc: EncoderParams, aug: AugmenterParams
) -> Tensor:
    """Scores over items + STOP via the shared item table plus the STOP row."""
    item_rows = ag.row_slice(enc.item_emb, 1, enc.dims.n_items + 1)
    rows = ag.concat([item_rows, aug.stop_emb], axis=0)  # (n_items+1, e)
    return ag.matmul(h, ag.transpose_last(rows))


def generator_forward(
    anchors: Tensor,
    teacher_ids: np.ndarray,
    enc: EncoderParams,
    aug: AugmenterParams,
    stream: SeedStream | None = None,
    last_only: bool = False,
    steps: np.ndarray | None = None,
) -> Tensor:
    """Teacher-forced reverse-generator pass.

    anchors: (R, e) hidden states of the insertion positions.
    teacher_ids: (R, M) ground-truth run items, right-padded with PAD.
    Returns logits (R, M+1, n_items+1); the row at step j conditions on the
    anchor plus teacher items < j, so j targets run item j (or STOP at the
    end of the run). Causal masking makes all steps trainable in one pass.
    With last_only, only step M is computed and the logits are (R, n_items+1).
    With steps, flat indices into the R x (M+1) step grid, only those steps
    are projected and the logits are (len(steps), n_items+1) in that order.
    """
    dims = enc.dims
    r, m = teacher_ids.shape
    e = dims.embed_dim
    parts = [anchors.reshape(r, 1, e)]
    if m > 0:
        parts.append(ag.embedding_lookup(enc.item_emb, teacher_ids))
    h = ag.concat(parts, axis=1) if len(parts) > 1 else parts[0]
    pos = ag.embedding_lookup(aug.gen_pos, np.arange(m + 1, dtype=np.int64))
    h = _dropout(h + pos, dims, stream)
    # Padding beyond a run's true length sits to the right; causal masking
    # keeps it out of every valid step, so a plain causal mask suffices.
    fake_ids = np.ones((r, m + 1), dtype=np.int64)
    h = transformer_stack(h, aug.gen_blocks, dims, fake_ids, stream=stream,
                          last_only=last_only)
    if steps is not None:
        h = ag.embedding_lookup(h.reshape(r * (m + 1), e), steps)
    return generator_output_logits(h, enc, aug)


# ---------------------------------------------------------------------------
# Restoration loss
# ---------------------------------------------------------------------------


@dataclass
class RestorationStats:
    """Detached sums and counts of restoration passes; records pool with +,
    from the zero record RestorationStats(). Hits are counted only by
    restoration_accuracy, and are 0 otherwise."""

    op_nll_sum: float = 0.0
    ins_nll_sum: float = 0.0
    n_records: int = 0
    n_op_positions: int = 0  # the real positions, which alone are scored
    n_ins_targets: int = 0  # teacher-forced targets incl. STOP steps
    n_ins_items: int = 0  # n_ins_targets without the STOP steps
    op_hits: int = 0  # argmax hits over the n_op_positions
    ins_hits: int = 0  # argmax hits over the n_ins_items

    def __add__(self, other: RestorationStats) -> RestorationStats:
        return RestorationStats(*(a + b for a, b in zip(astuple(self), astuple(other))))

    @property
    def loss(self) -> float:
        """Restoration NLL per record; inf over no records."""
        nll = self.op_nll_sum + self.ins_nll_sum
        return nll / self.n_records if self.n_records else float("inf")

    @property
    def op_accuracy(self) -> float:
        return self.op_hits / self.n_op_positions if self.n_op_positions else 0.0

    @property
    def ins_top1(self) -> float:
        return self.ins_hits / self.n_ins_items if self.n_ins_items else 0.0


def _encode_cells(
    seqs: list[list[int]],
    enc: EncoderParams,
    stream: SeedStream | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Encode each sequence plus its MASK sentinel, one pass per length class.

    Returns encoder.class_passes' flat (cells, e) states and sentinel[i],
    the cell of seqs[i]'s sentinel: item j of seqs[i] sits at cell
    sentinel[i] - len(seqs[i]) + j. Each class draws its dropout masks
    from stream in class order.
    """
    mask_id = enc.dims.mask_id
    return class_passes([s + [mask_id] for s in seqs],
                        lambda ids: encode_batch(ids, enc, stream=stream))


def _run_matrices(runs: list[tuple[int, list[int]]], stop_class: int):
    """Right-pad teacher runs; return their real steps and those steps' targets.

    steps are flat indices into the (R, M+1) step grid, in C order: run j's
    steps 0..len(run), whose targets are its items as classes, then STOP.
    """
    r = len(runs)
    lengths = np.array([len(run) for _, run in runs], dtype=np.int64)
    m = int(lengths.max())
    anchor_idx = np.array([a for a, _ in runs], dtype=np.int64)
    teacher = np.full((r, m), PAD_ID, dtype=np.int64)
    for j, (_, run) in enumerate(runs):
        teacher[j, :len(run)] = run
    targets = np.concatenate([teacher - 1, np.zeros((r, 1), dtype=np.int64)], axis=1)
    targets[np.arange(r), lengths] = stop_class
    steps = np.flatnonzero(np.arange(m + 1) <= lengths[:, None])
    return anchor_idx, teacher, steps, targets.reshape(-1)[steps]


def _restoration_forward(
    records: list[CorruptionRecord],
    enc: EncoderParams,
    aug: AugmenterParams,
    stream: SeedStream | None = None,
    count_hits: bool = False,
) -> tuple[Tensor, RestorationStats]:
    """Encode the damaged sequences, then score operations and teacher-forced runs.

    Returns the restoration NLL sum (operations at the real positions, plus
    every run step up to and including STOP) and the batch's
    RestorationStats, whose hits are counted only with count_hits.
    The encoder runs once per length class of the damaged sequences
    (_encode_cells); the run anchors and the operation head read its flat
    states, records in cell order, and the head reads only the real
    positions' rows, so no padding or sentinel cell is scored. The
    generator runs once per length class of runs, so no pass pads a run
    beyond twice its steps; each pass projects only its real steps, and one
    cross-entropy per class scores them, so a class's catalog-wide logits
    are dropped as soon as they are scored. The classes' per-step losses
    are summed in one concatenation, in _run_matrices order.
    """
    if not records:
        raise ValueError("restoration needs a non-empty batch")
    h_flat, sentinel = _encode_cells([r.s_mod for r in records], enc, stream=stream)
    cells, op_targets = [], []
    runs: list[tuple[int, list[int]]] = []
    for i in np.argsort(sentinel):
        rec, end = records[i], int(sentinel[i])
        start = end - len(rec.s_mod)  # s_mod[0]'s cell
        cells.extend(range(start, end))
        op_targets.extend(rec.ops)
        runs.extend((start + pos, list(run)) for pos, run in rec.ins_targets.items())
        runs.append((end, list(rec.tail_targets)))
    op_targets = np.array(op_targets, dtype=np.int64)
    op_logits = predict_op_logits(ag.embedding_lookup(h_flat, cells), aug)
    op_nll = ag.cross_entropy(op_logits, op_targets).sum()
    op_hits = int((op_logits.data.argmax(axis=-1) == op_targets).sum()) if count_hits else 0
    stop = _stop_class(enc.dims)
    losses = []
    ins_hits = n_ins_items = 0
    for rows in length_classes([len(run) for _, run in runs]):
        anchor_idx, teacher, steps, targets = _run_matrices([runs[j] for j in rows], stop)
        logits = generator_forward(ag.embedding_lookup(h_flat, anchor_idx), teacher,
                                   enc, aug, stream=stream, steps=steps)
        losses.append(ag.cross_entropy(logits, targets))
        items = targets != stop
        n_ins_items += int(items.sum())
        if count_hits:
            ins_hits += int(((logits.data.argmax(axis=-1) == targets) & items).sum())
        del logits  # freed before the next class computes its own
    gen_losses = ag.concat(losses, axis=0)
    gen_nll = gen_losses.sum()
    stats = RestorationStats(op_nll.item(), gen_nll.item(), len(records), op_targets.size,
                             gen_losses.size, n_ins_items, op_hits, ins_hits)
    return op_nll + gen_nll, stats


def augmenter_loss(
    records: list[CorruptionRecord],
    enc: EncoderParams,
    aug: AugmenterParams,
    stream: SeedStream | None = None,
) -> tuple[Tensor, RestorationStats]:
    """Batch-mean restoration NLL: operation labels + teacher-forced runs.

    Every record contributes one end-of-sequence run (its deleted tail, or
    just STOP), so the generator also learns when nothing belongs at the end.
    The stats count no hits, which would argmax every run class's logits.
    """
    nll, stats = _restoration_forward(records, enc, aug, stream=stream)
    return nll * (1.0 / stats.n_records), stats


def restoration_accuracy(
    records: list[CorruptionRecord],
    enc: EncoderParams,
    aug: AugmenterParams,
) -> RestorationStats:
    """Held-out RestorationStats of one batch from a single no-grad pass.

    The loss numbers are augmenter_loss's; op_hits counts argmax operation
    hits over the real positions, ins_hits argmax hits over teacher-forced
    run items (STOP steps excluded), each run class's as it is scored.
    """
    with ag.no_grad():
        return _restoration_forward(records, enc, aug, count_hits=True)[1]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _sample_rows(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One class per row drawn from softmax(logits), rows in C order.

    One uniform per row, inverted through the row's cumulative softmax: the
    first class whose cumulative share exceeds the draw. This is the rule
    and arithmetic of Generator.choice(n, p=row), so a row picks what a
    choice call per row would. The last share is exactly 1, so every draw
    lands on a class, and a class of zero probability is never picked.
    """
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random(logits.shape[:-1])
    return (cdf <= u[..., None]).sum(axis=-1)


def _decode_runs(
    anchors: np.ndarray,
    enc: EncoderParams,
    aug: AugmenterParams,
    rng: np.random.Generator | None = None,
) -> list[list[int]]:
    """Decode one insertion run per anchor, one generator step at a time.

    Each step runs the generator over the anchor plus the items decoded so
    far and computes the newest step's logits only. Each step picks the
    argmax, or draws from the softmax when an rng is given. Returns runs in
    generation (reverse) order; a run ends at STOP or at max_insert items.
    All anchors still active at a step share one forward. The runs so far
    are one (anchors, max_insert) array of teacher ids, right-padded with
    PAD, and the active anchors one index array, so a step's bookkeeping
    is a single mask of the rows that did not pick STOP.
    """
    dims = enc.dims
    stop = _stop_class(dims)
    runs = np.full((anchors.shape[0], dims.max_insert), PAD_ID, dtype=np.int64)
    active = np.arange(anchors.shape[0])
    with ag.no_grad():
        for step in range(dims.max_insert):
            logits = generator_forward(
                ag.constant(anchors[active]), runs[active, :step], enc, aug, last_only=True
            ).data
            picks = logits.argmax(axis=-1) if rng is None else _sample_rows(logits, rng)
            going = picks != stop
            active = active[going]
            runs[active, step] = picks[going] + 1  # class -> item id
            if not active.size:
                break
    lengths = np.count_nonzero(runs != PAD_ID, axis=1).tolist()
    return [run[:n] for run, n in zip(runs.tolist(), lengths)]


def _clip_inputs(seqs: list[list[int]], dims: ModelDims) -> list[list[int]]:
    """Each sequence's max_aug_len - 1 most recent items.

    This leaves the MASK sentinel a slot within the encoder's window.
    """
    return [list(s[-(dims.max_aug_len - 1):]) for s in seqs]


def _decide_ops(
    seqs: list[list[int]],
    enc: EncoderParams,
    aug: AugmenterParams,
    rng: np.random.Generator | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Encode each sequence plus its MASK sentinel and pick one op per position.

    Returns, per sequence, its (len + 1, e) hidden states and its len + 1
    ops, sentinel last: the argmax operation, or one drawn from its softmax
    when an rng is given. The encoder runs once per length class
    (_encode_cells); the op head then reads each sequence's cells, rows in
    input order, so sampling draws over real cells only and padding uses up
    no draws.
    """
    with ag.no_grad():
        h_flat, sentinel = _encode_cells(seqs, enc)
        h = h_flat.data[np.concatenate([np.arange(end - len(s), end + 1)
                                        for s, end in zip(seqs, sentinel)])]
        del h_flat
        op_logits = predict_op_logits(ag.constant(h), aug).data
    ops = op_logits.argmax(axis=-1) if rng is None else _sample_rows(op_logits, rng)
    splits = np.cumsum([len(s) + 1 for s in seqs])[:-1]
    return np.split(h, splits), np.split(ops, splits)


def generation_op_proportions(
    seqs: list[list[int]],
    enc: EncoderParams,
    aug: AugmenterParams,
    batch_size: int = 256,
) -> tuple[float, float, float]:
    """Realized keep/delete/insert fractions when augmenting seqs greedily.

    The inputs are clipped as generation clips them (_clip_inputs), and
    their ops decided batch_size sequences at a time.
    """
    counts = np.zeros(3)
    for start in range(0, len(seqs), batch_size):
        _, ops = _decide_ops(_clip_inputs(seqs[start:start + batch_size], enc.dims), enc, aug)
        counts += np.bincount(np.concatenate([o[:-1] for o in ops]), minlength=3)
    total = counts.sum()
    return tuple(counts / total) if total else (0.0, 0.0, 0.0)

def generate_augmented_batch(
    seqs: list[list[int]],
    enc: EncoderParams,
    aug: AugmenterParams,
    rng: np.random.Generator | None = None,
) -> list[list[int]]:
    """Augment each sequence with the trained model.

    Per position the argmax operation is applied, or one drawn from its
    softmax when an rng is given (insert runs are then sampled too). One
    run is decoded per insert position and one per sentinel, and each
    sequence is rebuilt by restore_sequence from its predicted ops and
    runs, so generation undoes damage by the rule corruption records
    follow. Each input is clipped to its max_aug_len - 1 most recent items
    (_clip_inputs). Output is never empty (falls back to the last item) and
    is truncated to the max_aug_len most recent tokens.
    """
    dims = enc.dims
    if any(len(s) < 1 for s in seqs):
        raise ValueError("cannot augment an empty sequence")
    seqs = _clip_inputs(seqs, dims)
    states, ops = _decide_ops(seqs, enc, aug, rng=rng)
    # Decode anchors per sequence: its insert positions, then its sentinel.
    anchor_pos = [np.append(np.flatnonzero(o[:-1] == OP_INSERT), len(o) - 1) for o in ops]
    runs = iter(_decode_runs(np.concatenate([h[p] for h, p in zip(states, anchor_pos)]),
                             enc, aug, rng=rng))
    out: list[list[int]] = []
    for seq, o, p in zip(seqs, ops, anchor_pos):
        ins_runs = {int(pos): next(runs) for pos in p[:-1]}
        built = restore_sequence(CorruptionRecord(seq, o[:-1].tolist(), ins_runs, next(runs)))
        out.append(built[-dims.max_aug_len:] or [seq[-1]])
    return out


def generate_augmented(
    items: list[int],
    enc: EncoderParams,
    aug: AugmenterParams,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """One sequence through generate_augmented_batch (bench/make_fixture.py's decode check)."""
    return generate_augmented_batch([items], enc, aug, rng=rng)[0]
