"""Next-item recommender: its own causal block stack on top of the encoder.

Training masks the last item of each row and scores it against the shared
item table; inference appends a MASK slot after the full history so the
prediction conditions on every real item. Sequence representations for the
contrastive losses come from the same stack's last-position states. Every
caller reads only that position, so the stack's last block computes it alone.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import length_classes, pad_batch
from .encoder import (
    BlockParams,
    EncoderParams,
    ModelDims,
    encode_batch,
    transformer_stack,
)
from .seeding import SeedStream


class RecommenderParams:
    """The recommender's block stack; the item table is shared with the encoder."""

    def __init__(self, dims: ModelDims, seed: int):
        self.dims = dims
        self.blocks = [
            BlockParams(dims, (seed, "rec", "block", i)) for i in range(dims.n_layers)
        ]

    def named_params(self, prefix: str = "rec") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, blk in enumerate(self.blocks):
            out.update(blk.named_params(f"{prefix}.blocks.{i}"))
        return out


def full_forward(
    ids: np.ndarray,
    enc: EncoderParams,
    rec: RecommenderParams,
    train: bool = False,
    stream: SeedStream | None = None,
) -> Tensor:
    """Encoder then recommender stack; (N, e) states at the final position."""
    h = encode_batch(ids, enc, train=train, stream=stream)
    return transformer_stack(h, rec.blocks, rec.dims, ids, train=train, stream=stream,
                             last_only=True)


def sequence_reprs(
    seqs: list[list[int]],
    enc: EncoderParams,
    rec: RecommenderParams,
    train: bool = False,
    stream: SeedStream | None = None,
) -> Tensor:
    """(N, e) sequence summaries from the full stack, for similarity scores:
    the state at each sequence's final position.
    """
    if any(len(s) < 1 for s in seqs):
        raise ValueError("cannot represent an empty sequence")
    dims = enc.dims
    clipped = [s[-dims.max_aug_len:] for s in seqs]
    batch = pad_batch([str(i) for i in range(len(clipped))], clipped)
    return full_forward(batch.ids, enc, rec, train=train, stream=stream)


def item_logits(h_last: Tensor, enc: EncoderParams) -> Tensor:
    """(N, e) states -> (N, n_items) scores against real item rows only."""
    dims = enc.dims
    rows = ag.embedding_lookup(
        enc.item_emb, np.arange(1, dims.n_items + 1, dtype=np.int64)
    )
    return ag.matmul(h_last, ag.transpose_last(rows))


def masked_last_rows(seqs: list[list[int]], mask_id: int):
    """Rows for the recommendation loss: last item swapped for MASK.

    Returns (padded ids, 0-based target classes). Rows need >= 1 context
    item before the masked slot, i.e. sequence length >= 2.
    """
    if any(len(s) < 2 for s in seqs):
        raise ValueError("recommendation rows need >= 2 items (context + target)")
    inputs = [s[:-1] + [mask_id] for s in seqs]
    targets = np.array([s[-1] - 1 for s in seqs], dtype=np.int64)
    batch = pad_batch([str(i) for i in range(len(seqs))], inputs)
    return batch.ids, targets


def rec_loss(
    seqs: list[list[int]],
    enc: EncoderParams,
    rec: RecommenderParams,
    train: bool = False,
    stream: SeedStream | None = None,
) -> Tensor:
    """Batch-mean NLL of each row's true last item at the masked slot."""
    dims = enc.dims
    ids, targets = masked_last_rows([s[-dims.max_aug_len:] for s in seqs], dims.mask_id)
    logits = item_logits(full_forward(ids, enc, rec, train=train, stream=stream), enc)
    return ag.cross_entropy(logits, targets).mean()


def score_candidates(
    contexts: list[list[int]],
    candidate_ids: np.ndarray,
    enc: EncoderParams,
    rec: RecommenderParams,
) -> np.ndarray:
    """Scores of per-user candidate items given per-user histories.

    contexts: N histories; candidate_ids: (N, C) item ids in 1..n_items.
    Returns (N, C) raw scores (monotone in probability). Histories are
    clipped to the model's window and given a trailing MASK slot. One
    forward pass runs per length class of histories (data.length_classes),
    so no row is padded to more than twice its width; rows keep their order.
    """
    dims = enc.dims
    cands = np.asarray(candidate_ids, dtype=np.int64)
    if cands.size and (cands.min() < 1 or cands.max() > dims.n_items):
        raise ValueError(f"candidate ids must lie in 1..{dims.n_items}, "
                         f"got {cands.min()}..{cands.max()}")
    histories = [list(c[-(dims.max_aug_len - 1):]) for c in contexts]
    scores = np.empty(cands.shape)
    with ag.no_grad():
        for rows in length_classes([len(c) for c in histories]):
            batch = pad_batch([str(i) for i in rows],
                              [histories[i] + [dims.mask_id] for i in rows])
            logits = item_logits(full_forward(batch.ids, enc, rec), enc).data
            scores[rows] = np.take_along_axis(logits, cands[rows] - 1, axis=1)
    return scores

