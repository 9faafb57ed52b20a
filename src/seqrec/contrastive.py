"""In-batch and triplet contrastive losses over sequence representations.

A sequence's representation is the hidden state at its last real position
after the full encoder + recommender stack. Similarity is the plain dot
product (no normalization, no temperature).
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import NEG_INF, Tensor
from .errors import ConfigError


def batch_contrastive_loss(reprs_a: Tensor, reprs_b: Tensor) -> Tensor:
    """In-batch InfoNCE over two aligned views.

    reprs_a/reprs_b: (N, e), row u of each being a view of the same source
    sequence. For each of the 2N anchors the positive is its partner view
    and the other 2N-2 rows are negatives; self-similarity is masked out.
    Under all-equal representations the loss is ln(2N-1).
    """
    n = reprs_a.shape[0]
    if n < 2 or reprs_b.shape[0] != n:
        raise ConfigError(f"need two aligned views with N >= 2, got {reprs_a.shape} / {reprs_b.shape}")
    z = ag.concat([reprs_a, reprs_b], axis=0)  # (2N, e)
    sims = ag.matmul(z, ag.transpose_last(z))
    self_mask = ag.constant(np.eye(2 * n) * NEG_INF)
    logits = sims + self_mask
    partners = np.concatenate([np.arange(n) + n, np.arange(n)]).astype(np.int64)
    return ag.cross_entropy(logits, partners).mean()  # over the 2N anchors


def triplet_loss(reprs_raw: Tensor, reprs_pos: Tensor, reprs_neg: Tensor) -> Tensor:
    """Two-way ranking loss preferring sim(raw, pos) over sim(raw, neg).

    Computed as softplus(sim(raw, neg) - sim(raw, pos)), the stable form of
    -log[exp(s_pos) / (exp(s_pos) + exp(s_neg))]; batch-averaged.
    """
    if not (reprs_raw.shape == reprs_pos.shape == reprs_neg.shape):
        raise ConfigError(
            f"triplet views must share a shape, got {reprs_raw.shape}, "
            f"{reprs_pos.shape}, {reprs_neg.shape}"
        )
    s_pos = (reprs_raw * reprs_pos).sum(axis=-1)
    s_neg = (reprs_raw * reprs_neg).sum(axis=-1)
    return ag.softplus(s_neg - s_pos).mean()
