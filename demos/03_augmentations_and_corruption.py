#!/usr/bin/env python3
"""The three random augmentations and the corruption/restoration round trip.

Run: python3 demos/03_augmentations_and_corruption.py
"""

from seqrec.augops import (
    OP_NAMES,
    AugConfig,
    CorruptionConfig,
    corrupt_sequence,
    crop_augment,
    mask_augment,
    random_augment,
    reorder_augment,
    restore_sequence,
)
from seqrec.seeding import rng_for

MASK = 121
seq = list(range(1, 13))
print("raw sequence:  ", seq)

# every random function draws from the generator it is given; rng_for derives
# one from a key, so the same key replays the same draws
rng = rng_for(1, "demo")
print("mask (gamma=.5):", mask_augment(seq, 0.5, rng, MASK))
print("crop (eta=.6):  ", crop_augment(seq, 0.6, rng))
print("reorder (.5):   ", reorder_augment(seq, 0.5, rng))
print("random choice:  ", random_augment(seq, AugConfig(), rng, MASK))

# --- corruption for self-supervised restoration ------------------------------

# corrupt_sequence damages a whole batch with three draws: every op choice,
# every insert's run length, every inserted item
cfg = CorruptionConfig(p_keep=0.4, p_delete=0.5, p_insert=0.1, n_items=120)
batch = [seq, seq[:5], [42]]
records = corrupt_sequence(batch, cfg, rng_for(11))
for row, record in zip(batch, records):
    print("\ndamaged:", record.s_mod)
    print("labels: ", [OP_NAMES[o] for o in record.ops])
    for pos, run in sorted(record.ins_targets.items()):
        print(f"  before position {pos} restore {run[::-1]} (stored reverse-first: {run})")
    if record.tail_targets:
        print(f"  tail restore {record.tail_targets[::-1]}")
    rebuilt = restore_sequence(record)
    print("replayed:", rebuilt)
    print("round trip exact:", rebuilt == row)
