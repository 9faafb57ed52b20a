"""Random sequence augmentations and the corruption generator.

The three classic augmentations (mask/crop/reorder) produce contrast views.
corrupt_sequence() is the one keep/delete/insert damage rule. It damages a
batch of sequences and records, per damaged sequence, the per-position
restoration labels (keep / delete / insert) and insertion targets needed
to rebuild the original exactly: the self-supervised training signal, and
(with single-item inserts) the noisy test set of evaluate. restore_sequence()
replays a record; for every row s of a batch, restore_sequence(record) == s.

Every random function draws from the np.random.Generator it is given, in a
fixed order, so the caller's key decides the draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Restoration operation labels, in logit order.
OP_KEEP = 0
OP_DELETE = 1
OP_INSERT = 2
OP_NAMES = ("keep", "delete", "insert")


@dataclass
class AugConfig:
    """Ratios for the random augmentations."""

    gamma: float = 0.5   # fraction of positions masked
    eta: float = 0.6     # crop window fraction
    beta_r: float = 0.5  # reorder window fraction

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0,1], got {self.eta}")
        if not 0.0 < self.beta_r <= 1.0:
            raise ValueError(f"beta_r must be in (0,1], got {self.beta_r}")


@dataclass
class CorruptionConfig:
    """Keep/delete/insert probabilities for the corruption generator."""

    p_keep: float = 0.4
    p_delete: float = 0.5
    p_insert: float = 0.1
    max_insert_run: int = 5
    n_items: int = 0  # inserted noise is drawn uniformly from 1..n_items

    def __post_init__(self):
        for key in ("p_keep", "p_delete", "p_insert"):
            p = getattr(self, key)
            if not 0.0 <= p <= 1.0:  # NaN fails this test too
                raise ValueError(f"{key} must be in [0,1], got {p}")
        total = self.p_keep + self.p_delete + self.p_insert
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"p_keep+p_delete+p_insert must be 1, got {total}")
        if self.n_items < 1:
            raise ValueError("n_items must be set (>=1) for noise insertion")


@dataclass
class CorruptionRecord:
    """A damaged sequence plus everything needed to restore the original.

    ops is aligned 1:1 with s_mod. ins_targets maps a position of s_mod
    (labelled OP_INSERT) to the ground-truth run that belongs before it,
    stored in reverse-generation order (most-recent-deleted first).
    tail_targets holds items deleted from the very end of the sequence,
    also reverse-ordered; they are re-attached after the last position.
    """

    s_mod: list[int]
    ops: list[int]
    ins_targets: dict[int, list[int]] = field(default_factory=dict)
    tail_targets: list[int] = field(default_factory=list)


def _window(length: int, ratio: float) -> int:
    return max(1, int(np.floor(ratio * length)))


def mask_augment(items: list[int], gamma: float, rng: np.random.Generator,
                 mask_id: int) -> list[int]:
    """Replace max(1, floor(gamma*len)) random positions by the mask token."""
    if not items:
        raise ValueError("cannot augment an empty sequence")
    count = _window(len(items), gamma)
    positions = rng.choice(len(items), size=count, replace=False)
    out = list(items)
    for p in positions:
        out[p] = mask_id
    return out


def crop_augment(items: list[int], eta: float, rng: np.random.Generator) -> list[int]:
    """Keep one contiguous window of max(1, floor(eta*len)) items."""
    if not items:
        raise ValueError("cannot augment an empty sequence")
    width = _window(len(items), eta)
    start = int(rng.integers(0, len(items) - width + 1))
    return list(items[start:start + width])


def reorder_augment(items: list[int], beta_r: float, rng: np.random.Generator) -> list[int]:
    """Shuffle one contiguous window of max(1, floor(beta_r*len)) items."""
    if not items:
        raise ValueError("cannot augment an empty sequence")
    width = _window(len(items), beta_r)
    start = int(rng.integers(0, len(items) - width + 1))
    out = list(items)
    window = out[start:start + width]
    perm = rng.permutation(width)
    out[start:start + width] = [window[i] for i in perm]
    return out


def random_augment(items: list[int], cfg: AugConfig, rng: np.random.Generator,
                   mask_id: int) -> list[int]:
    """Apply one of mask/crop/reorder, chosen uniformly by one draw from rng."""
    choice = int(rng.integers(0, 3))
    if choice == 0:
        return mask_augment(items, cfg.gamma, rng, mask_id)
    if choice == 1:
        return crop_augment(items, cfg.eta, rng)
    return reorder_augment(items, cfg.beta_r, rng)


def corrupt_sequence(seqs: list[list[int]], cfg: CorruptionConfig,
                     rng: np.random.Generator) -> list[CorruptionRecord]:
    """Randomly damage each row of a batch, recording how to undo the damage.

    Per original item: keep it, delete it, or insert a run of random items
    before it. Three draws cover the batch, rows in order: one choice() for
    every item, one integers() call for every insert's run length, one for
    every inserted item. Restoration labels are written from the repairer's
    point of view: inserted noise must be deleted; a surviving item whose
    predecessors were deleted carries an insert label with the deleted run
    as target. If every item of a row is deleted, its last item survives,
    so a damaged sequence is never empty. Rows need at least one item.
    """
    lengths = [len(items) for items in seqs]
    if 0 in lengths:
        raise ValueError(f"corruption needs >=1 item per row, row {lengths.index(0)} is empty")
    choices = rng.choice(3, size=sum(lengths), p=[cfg.p_keep, cfg.p_delete, cfg.p_insert])
    run_lens = rng.integers(1, cfg.max_insert_run + 1, size=int((choices == OP_INSERT).sum()))
    noise = iter(rng.integers(1, cfg.n_items + 1, size=int(run_lens.sum())).tolist())
    runs = iter(run_lens.tolist())
    choices = choices.tolist()

    records = []
    start = 0
    for items in seqs:
        draws = choices[start:start + len(items)]
        start += len(items)
        if all(d == OP_DELETE for d in draws):
            draws[-1] = OP_KEEP
        s_mod: list[int] = []
        ops: list[int] = []
        ins_targets: dict[int, list[int]] = {}
        pending: list[int] = []  # deleted originals awaiting a surviving anchor
        for item, draw in zip(items, draws):
            if draw == OP_DELETE:
                pending.append(item)
                continue
            if draw == OP_INSERT:
                for _ in range(next(runs)):
                    ops.append(OP_DELETE)
                    s_mod.append(next(noise))
            if pending:
                ops.append(OP_INSERT)
                ins_targets[len(s_mod)] = list(reversed(pending))
                pending = []
            else:
                ops.append(OP_KEEP)
            s_mod.append(item)
        records.append(CorruptionRecord(s_mod=s_mod, ops=ops, ins_targets=ins_targets,
                                        tail_targets=list(reversed(pending))))
    return records


def restore_sequence(record: CorruptionRecord) -> list[int]:
    """Replay a record's labels over s_mod, rebuilding the original sequence."""
    out: list[int] = []
    for pos, (item, op) in enumerate(zip(record.s_mod, record.ops)):
        if op == OP_DELETE:
            continue
        if op == OP_INSERT:
            out.extend(reversed(record.ins_targets[pos]))
        out.append(item)
    out.extend(reversed(record.tail_targets))
    return out
