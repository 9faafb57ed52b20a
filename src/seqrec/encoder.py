"""Shared causal Transformer encoder over item-id sequences.

Batches are right-aligned (left-padded with PAD=0). Position indices count
real tokens only, and attention gives PAD keys exactly zero weight, so the
hidden states of real positions do not depend on how much padding a batch
adds (up to BLAS kernel rounding at the last ulp). Attention is causal:
position t sees positions <= t. The mask is one boolean (N, 1, T, T)
array (attention_mask) that ag.softmax applies itself, setting each
blocked score to autograd's NEG_INF in its own copy.

A forward trains exactly when it is given a SeedStream: each dropout site
then draws its mask from the stream's next generator, in a fixed order.
Without a stream, or at dropout 0, no mask is drawn and dropout is the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import PAD_ID
from .errors import ShapeError
from .seeding import SeedStream, rng_for

FFN_MULT = 4  # FFN inner width, in multiples of embed_dim


@dataclass
class ModelDims:
    """Shapes shared by every model component."""

    n_items: int
    embed_dim: int = 64
    n_layers: int = 1
    n_heads: int = 1
    dropout: float = 0.5
    max_len: int = 50       # raw sequence cap (most recent kept)
    max_aug_len: int = 60   # augmented/corrupted sequence cap
    max_insert: int = 5     # longest generated insertion run

    def __post_init__(self):
        if self.n_heads < 1 or self.embed_dim % self.n_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )

    @property
    def vocab_size(self) -> int:
        return self.n_items + 2  # PAD + items + MASK

    @property
    def mask_id(self) -> int:
        return self.n_items + 1

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads


class BlockParams:
    """One Transformer block: self-attention + FFN, post-norm with affine."""

    def __init__(self, dims: ModelDims, seed_parts: tuple):
        e = dims.embed_dim
        inner = FFN_MULT * e

        def xav(name, shape):
            return ag.xavier_init(shape, rng_for(*seed_parts, name))

        self.Wq = xav("Wq", (e, e))
        self.Wk = xav("Wk", (e, e))
        self.Wv = xav("Wv", (e, e))
        self.Wo = xav("Wo", (e, e))
        self.ln1_g = ag.param(np.ones(e))
        self.ln1_b = ag.param(np.zeros(e))
        self.W1 = xav("W1", (e, inner))
        self.b1 = ag.param(np.zeros(inner))
        self.W2 = xav("W2", (inner, e))
        self.b2 = ag.param(np.zeros(e))
        self.ln2_g = ag.param(np.ones(e))
        self.ln2_b = ag.param(np.zeros(e))

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        names = ["Wq", "Wk", "Wv", "Wo", "ln1_g", "ln1_b",
                 "W1", "b1", "W2", "b2", "ln2_g", "ln2_b"]
        return {f"{prefix}.{n}": getattr(self, n) for n in names}


class EncoderParams:
    """Item/position embeddings plus the encoder's block stack."""

    def __init__(self, dims: ModelDims, seed: int):
        self.dims = dims
        self.item_emb = ag.xavier_init(
            (dims.vocab_size, dims.embed_dim), rng_for(seed, "enc", "item_emb")
        )
        self.pos_emb = ag.xavier_init(
            (dims.max_aug_len, dims.embed_dim), rng_for(seed, "enc", "pos_emb")
        )
        self.blocks = [
            BlockParams(dims, (seed, "enc", "block", i)) for i in range(dims.n_layers)
        ]

    def named_params(self, prefix: str = "enc") -> dict[str, Tensor]:
        out = {f"{prefix}.item_emb": self.item_emb, f"{prefix}.pos_emb": self.pos_emb}
        for i, blk in enumerate(self.blocks):
            out.update(blk.named_params(f"{prefix}.blocks.{i}"))
        return out


def position_indices(ids: np.ndarray) -> np.ndarray:
    """Per-slot position ids counting real (non-PAD) tokens from the left."""
    real = ids != PAD_ID
    pos = np.cumsum(real, axis=-1) - 1
    return np.maximum(pos, 0)


def attention_mask(ids: np.ndarray) -> np.ndarray:
    """(N, 1, T, T) boolean mask: True where query t may attend to key s,
    i.e. s <= t and key s is a real token (not PAD)."""
    t = ids.shape[1]
    key_real = (ids != PAD_ID)[:, None, None, :]
    return key_real & np.tril(np.ones((t, t), dtype=bool))[None, None]


def _dropout(h: Tensor, dims: ModelDims, stream: SeedStream | None) -> Tensor:
    """Dropout at rate dims.dropout with a mask from the stream's next generator.

    Without a stream, or at rate 0, h itself: no generator is drawn.
    """
    if stream is None or dims.dropout == 0:
        return h
    return ag.dropout(h, dims.dropout, stream.next_rng())


def embed_sequence(
    ids: np.ndarray,
    enc: EncoderParams,
    stream: SeedStream | None = None,
) -> Tensor:
    """Initial hidden states: item embedding + position embedding (+ dropout)."""
    ids = np.asarray(ids, dtype=np.int64)
    dims = enc.dims
    if ids.shape[1] > dims.max_aug_len:
        raise ShapeError(
            f"sequence length {ids.shape[1]} exceeds the {dims.max_aug_len} cap"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= dims.vocab_size):
        raise ShapeError(
            f"id out of range [0, {dims.vocab_size}): min={ids.min()}, max={ids.max()}"
        )
    h = ag.embedding_lookup(enc.item_emb, ids)
    h = h + ag.embedding_lookup(enc.pos_emb, position_indices(ids))
    return _dropout(h, dims, stream)


def transformer_stack(
    h: Tensor,
    blocks: list[BlockParams],
    dims: ModelDims,
    ids: np.ndarray,
    stream: SeedStream | None = None,
    last_only: bool = False,
) -> Tensor:
    """Run the causal block stack over (N, T, e) hidden states.

    Returns (N, T, e), or with last_only the (N, e) states of the final
    column: the last block then attends from that column alone (its keys
    and values still cover all T columns), and every other step of that
    block runs on it alone. Batches are right-aligned, so the final column
    holds a real token in every row.

    A block keeps an intermediate alive only until its last reader has it:
    q and k go once the scores exist, the scores once the softmax has
    them, the attention weights and v once the context exists, the context
    once its Wo projection is added, and the FFN output once the second
    layer norm has run. ReLU writes into the W1 product, so the FFN holds
    one (N, T, 4e) array, not two. What a backward rule reads stays alive
    on the tape (see autograd); a no-grad pass holds nothing more.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n, t = ids.shape
    e, heads, dh = dims.embed_dim, dims.n_heads, dims.head_dim
    mask = attention_mask(ids)
    scale = 1.0 / np.sqrt(dh)

    def split_heads(x, rows):
        return ag.transpose(x.reshape(n, rows, heads, dh), (0, 2, 1, 3))

    for i, blk in enumerate(blocks):
        k = split_heads(ag.matmul(h, blk.Wk), t)
        v = split_heads(ag.matmul(h, blk.Wv), t)
        rows = t
        if last_only and i == len(blocks) - 1:
            rows = 1
            h = take_last_position(h).reshape(n, 1, e)
            mask = mask[:, :, -1:, :]
        q = split_heads(ag.matmul(h, blk.Wq), rows)
        scores = ag.matmul(q, ag.transpose_last(k)) * scale
        del q, k
        attn = _dropout(ag.softmax(scores, mask), dims, stream)
        del scores
        ctx = ag.transpose(ag.matmul(attn, v), (0, 2, 1, 3)).reshape(n, rows, e)
        del attn, v
        h = h + _dropout(ag.matmul(ctx, blk.Wo), dims, stream)
        del ctx
        h = ag.layer_norm(h, blk.ln1_g, blk.ln1_b)
        # the W1 product is a buffer only this block holds, so ReLU may overwrite it
        f = ag.relu(ag.matmul(h, blk.W1, blk.b1), in_place=True)
        f = _dropout(ag.matmul(f, blk.W2, blk.b2), dims, stream)
        h = ag.layer_norm(h + f, blk.ln2_g, blk.ln2_b)
        del f
    return h.reshape(n, e) if last_only else h


def encode_batch(
    ids: np.ndarray,
    enc: EncoderParams,
    stream: SeedStream | None = None,
) -> Tensor:
    """Full encoder forward: embeddings then the block stack."""
    # no local holds the embeddings, so the stack frees them after block 0 reads them
    return transformer_stack(embed_sequence(ids, enc, stream=stream), enc.blocks, enc.dims,
                             ids, stream=stream)


def take_last_position(h: Tensor) -> Tensor:
    """(N, T, e) -> (N, e) rows at the final (right-aligned) position."""
    n, t, e = h.shape
    flat = h.reshape(n * t, e)
    idx = np.arange(n, dtype=np.int64) * t + (t - 1)
    return ag.embedding_lookup(flat, idx)
