"""Next-item recommender: its own causal block stack on top of the encoder.

Training masks the last item of each row and scores it against the shared
item table; inference appends a MASK slot after the full history so the
prediction conditions on every real item. Sequence representations for the
contrastive losses come from the same stack's last-position states.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import pad_batch
from .encoder import (
    BlockParams,
    EncoderParams,
    ModelDims,
    encode_batch,
    take_last_position,
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


def rec_forward(
    h_enc: Tensor,
    ids: np.ndarray,
    rec: RecommenderParams,
    train: bool = False,
    stream: SeedStream | None = None,
) -> Tensor:
    """Run the recommender stack over encoder states (same masking rules)."""
    return transformer_stack(h_enc, rec.blocks, rec.dims, ids, causal=True,
                             train=train, stream=stream)


def full_forward(
    ids: np.ndarray,
    enc: EncoderParams,
    rec: RecommenderParams,
    train: bool = False,
    stream: SeedStream | None = None,
) -> Tensor:
    """Encoder then recommender stack."""
    h = encode_batch(ids, enc, train=train, stream=stream)
    return rec_forward(h, ids, rec, train=train, stream=stream)


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
    h = full_forward(batch.ids, enc, rec, train=train, stream=stream)
    return take_last_position(h)


def item_logits(h_last: Tensor, enc: EncoderParams) -> Tensor:
    """(N, e) states -> (N, n_items) scores against real item rows only."""
    dims = enc.dims
    rows = ag.embedding_lookup(
        enc.item_emb, np.arange(1, dims.n_items + 1, dtype=np.int64)
    )
    return ag.matmul(h_last, ag.transpose_last(rows))


def next_item_distribution(
    items: list[int],
    enc: EncoderParams,
    rec: RecommenderParams,
) -> np.ndarray:
    """Probabilities over item ids 1..n_items for the next interaction.

    Appends a MASK slot after the (clipped) history; PAD and MASK never
    receive probability mass because only real item rows are scored.
    """
    dims = enc.dims
    context = list(items[-(dims.max_aug_len - 1):]) + [dims.mask_id]
    with ag.no_grad():
        h = full_forward(np.asarray([context], dtype=np.int64), enc, rec)
        logits = item_logits(take_last_position(h), enc).data[0]
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    return probs / probs.sum()


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
    h = full_forward(ids, enc, rec, train=train, stream=stream)
    logits = item_logits(take_last_position(h), enc)
    return ag.cross_entropy(logits, targets).mean()


def score_candidates(
    contexts: list[list[int]],
    candidate_ids: np.ndarray,
    enc: EncoderParams,
    rec: RecommenderParams,
) -> np.ndarray:
    """Scores of per-user candidate items given per-user histories.

    contexts: N histories; candidate_ids: (N, C) item ids. Returns (N, C)
    raw scores (monotone in probability). Histories are clipped to the
    model's window and given a trailing MASK slot.
    """
    dims = enc.dims
    inputs = [list(c[-(dims.max_aug_len - 1):]) + [dims.mask_id] for c in contexts]
    batch = pad_batch([str(i) for i in range(len(inputs))], inputs)
    with ag.no_grad():
        h = full_forward(batch.ids, enc, rec)
        logits = item_logits(take_last_position(h), enc).data
    return np.take_along_axis(logits, np.asarray(candidate_ids, dtype=np.int64) - 1, axis=1)


def recommend_topk(
    items: list[int],
    enc: EncoderParams,
    rec: RecommenderParams,
    candidates: list[int] | None = None,
    k: int = 10,
) -> list[int]:
    """Top-k candidate ids by next-item score, ties broken by ascending id.

    candidates defaults to the full catalog 1..n_items.
    """
    dims = enc.dims
    if candidates is None:
        candidates = list(range(1, dims.n_items + 1))
    probs = next_item_distribution(items, enc, rec)
    cand = np.asarray(candidates, dtype=np.int64)
    scores = probs[cand - 1]
    order = np.lexsort((cand, -scores))  # score desc, then id asc
    return [int(cand[i]) for i in order[:k]]
