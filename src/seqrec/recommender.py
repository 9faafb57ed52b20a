"""Next-item recommender: its own causal block stack on top of the encoder.

Training masks the last item of each row and scores it against the shared
item table; inference appends a MASK slot after the full history so the
prediction conditions on every real item. Sequence representations for the
contrastive losses come from the same stack's last-position states. Every
caller reads only that position, so the stack's last block computes it alone,
and every caller runs one pass per length class of its rows (class_passes).
A pass trains, drawing its dropout masks, exactly when it is given a
SeedStream; scoring takes none.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import (
    BlockParams,
    EncoderParams,
    ModelDims,
    Params,
    class_passes,
    encode_batch,
    transformer_stack,
)
from .seeding import SeedStream


class RecommenderParams(Params):
    """The recommender's block stack; the item table is shared with the encoder."""

    prefix = "rec"

    def __init__(self, dims: ModelDims, seed: int):
        self.dims = dims
        self.blocks = [
            BlockParams(dims, (seed, "rec", "block", i)) for i in range(dims.n_layers)
        ]


def full_forward(
    ids: np.ndarray,
    enc: EncoderParams,
    rec: RecommenderParams,
    stream: SeedStream | None = None,
) -> Tensor:
    """Encoder then recommender stack; (N, e) states at the final position."""
    return transformer_stack(encode_batch(ids, enc, stream=stream), rec.blocks, rec.dims, ids,
                             stream=stream, last_only=True)


def _class_forward(
    rows: list[list[int]],
    enc: EncoderParams,
    rec: RecommenderParams,
    stream: SeedStream | None = None,
) -> Tensor:
    """(N, e) final-position states of `rows`, in input order.

    One full_forward per length class (encoder.class_passes), each drawing
    its dropout masks from `stream` in class order; one row gather puts the
    states back in input order, unless they already are.
    """
    states, last = class_passes(rows, lambda ids: full_forward(ids, enc, rec, stream=stream))
    if np.array_equal(last, np.arange(len(rows))):
        return states
    return ag.embedding_lookup(states, last)


def sequence_reprs(
    seqs: list[list[int]],
    enc: EncoderParams,
    rec: RecommenderParams,
    stream: SeedStream | None = None,
) -> Tensor:
    """(N, e) sequence summaries from the full stack, for similarity scores:
    the state at each sequence's final position, one pass per length class.
    """
    if any(len(s) < 1 for s in seqs):
        raise ValueError("cannot represent an empty sequence")
    clipped = [s[-enc.dims.max_aug_len:] for s in seqs]
    return _class_forward(clipped, enc, rec, stream=stream)


def item_logits(h_last: Tensor, enc: EncoderParams) -> Tensor:
    """(N, e) states -> (N, n_items) scores against real item rows only."""
    rows = ag.row_slice(enc.item_emb, 1, enc.dims.n_items + 1)
    return ag.matmul(h_last, ag.transpose_last(rows))


def _next_item_rows(contexts, dims: ModelDims) -> list[list[int]]:
    """Each context's max_aug_len - 1 most recent items, then the MASK slot
    whose state scores the next item."""
    return [list(c[-(dims.max_aug_len - 1):]) + [dims.mask_id] for c in contexts]


def rec_loss(
    seqs: list[list[int]],
    enc: EncoderParams,
    rec: RecommenderParams,
    stream: SeedStream | None = None,
) -> Tensor:
    """Batch-mean NLL of each row's true last item at the masked slot.

    Each row's items before its last are the context (_next_item_rows);
    rows need >= 1 context item (length >= 2).
    """
    if any(len(s) < 2 for s in seqs):
        raise ValueError("recommendation rows need >= 2 items (context + target)")
    rows = _next_item_rows([s[:-1] for s in seqs], enc.dims)
    targets = np.array([s[-1] - 1 for s in seqs], dtype=np.int64)
    h = _class_forward(rows, enc, rec, stream=stream)
    return ag.cross_entropy(item_logits(h, enc), targets).mean()


def score_candidates(
    contexts: list[list[int]],
    candidate_ids: np.ndarray,
    enc: EncoderParams,
    rec: RecommenderParams,
) -> np.ndarray:
    """Scores of per-user candidate items given per-user histories.

    contexts: N histories; candidate_ids: (N, C) item ids in 1..n_items.
    Returns (N, C) raw scores (monotone in probability). Histories become
    rows as in training (_next_item_rows) and run one forward pass per
    length class as the training stacks do.
    """
    dims = enc.dims
    cands = np.asarray(candidate_ids, dtype=np.int64)
    if cands.size and (cands.min() < 1 or cands.max() > dims.n_items):
        raise ValueError(f"candidate ids must lie in 1..{dims.n_items}, "
                         f"got {cands.min()}..{cands.max()}")
    rows = _next_item_rows(contexts, dims)
    with ag.no_grad():
        logits = item_logits(_class_forward(rows, enc, rec), enc).data
    return np.take_along_axis(logits, cands - 1, axis=1)

