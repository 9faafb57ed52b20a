#!/usr/bin/env python3
"""From raw interaction log to train/valid/test splits and eval candidates.

Generates a synthetic log, then walks the ingestion pipeline step by step.
Run: python3 demos/02_data_pipeline.py
"""

from seqrec.data import (
    Vocabulary,
    build_sequences,
    dataset_stats,
    five_core_filter,
    leave_one_out_split,
    make_batches,
    pad_batch,
    sample_negatives,
)
from seqrec.seeding import rng_for
from seqrec.synthgen import SynthSpec, generate

# a small ring-structured world: item k is always followed by item k+1
spec = SynthSpec(n_items=120, n_users=400, structure="ring",
                 min_len=6, max_len=14, noise_rate=0.05, seed=7)
interactions, noised_positions = generate(spec)
print(f"generated {len(interactions)} interactions "
      f"({len(noised_positions)} positions replaced by noise)")

filtered = five_core_filter(interactions)
print(f"5-core filtering kept {len(filtered)} interactions")

vocab = Vocabulary.from_interactions(filtered)
sequences = build_sequences(filtered, vocab)
stats = dataset_stats(sequences, vocab)
print("stats:", {k: round(v, 4) if isinstance(v, float) else v for k, v in stats.items()})

split = leave_one_out_split(sequences)
u = split.users[0]
print(f"\nuser {u.user_id}: train prefix {u.train}")
print(f"  validation target {u.valid_target}, test target {u.test_target}")

# an evaluation pass keys one generator per (seed, split, "negatives") and
# draws every user's negatives from it, in sorted user-id order
negatives, ok = sample_negatives([v.full() for v in split.users], vocab, 99,
                                 rng_for(1, "test", "negatives"))
overlap = set(negatives[0].tolist()) & set(u.full())
print(f"  99 negatives sampled, overlap with history: {len(overlap)} (must be 0)")
print(f"  users with a pool of 99 negatives: {int(ok.sum())} of {len(ok)}")

# training keys the batch order by (seed, phase, epoch)
batch = next(make_batches(split, 4, rng_for(0, "rec-order", 0)))
ids = pad_batch(batch)
print(f"\nfirst batch: ids matrix {ids.shape}, left-padded rows:")
for row in ids[:2]:
    print("  ", row)
