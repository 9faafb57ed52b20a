#!/usr/bin/env python3
"""Ranking metrics from first principles and the noisy-test-set harness.

Run: python3 demos/06_robustness_and_metrics.py
"""

import numpy as np

from seqrec.data import ItemSequence, Vocabulary
from seqrec.evaluate import (
    NoisySimConfig,
    dist,
    rank_of_target,
    simulate_noisy_testset,
    user_metrics,
)

# --- a single user's metrics -------------------------------------------------

# each row of candidates holds the target in column 0, then its negatives
rng = np.random.default_rng(0)
candidate_ids = np.arange(37, 137)[None]
scores = rng.standard_normal((1, 100))
rank = int(rank_of_target(scores, candidate_ids)[0])
print(f"target 37 ranked {rank} of 100")
for k in (5, 10, 20):
    hit, rr, nd = user_metrics(rank, k)
    print(f"  @{k}: hit={hit:.0f} mrr={rr:.4f} ndcg={nd:.4f}")

# ties break toward the smaller item id, deterministically; one call ranks
# every row of a scored batch
tied = rank_of_target(np.zeros((2, 100)), np.array([np.arange(1, 101), np.arange(100, 0, -1)]))
print(f"all scores tied: item 1 ranks {tied[0]}, item 100 ranks {tied[1]}")

# --- robustness simulation ----------------------------------------------------

tokens = [f"i{k}" for k in range(120)]
vocab = Vocabulary({t: i + 1 for i, t in enumerate(tokens)}, ["<pad>"] + tokens)
# one generator keyed (seed, "noisy-sim") damages every user, in user-id order
seqs = [ItemSequence("u1", list(range(1, 11))), ItemSequence("u2", list(range(50, 60)))]
noised = simulate_noisy_testset(seqs, NoisySimConfig(ratio=(4, 3, 3), seed=1), vocab)
for before, after in zip(seqs, noised):
    print(f"\n{before.user_id} test sequence: ", before.items)
    print("noised (4:3:3):    ", after.items, "(final item always survives)")

# the robustness score compares metric totals on noised vs clean test sets
print(f"\ndist(3.6540, 3.7740) = {dist(3.6540, 3.7740):+.2%}")
print(f"dist(5.3365, 5.5523) = {dist(5.3365, 5.5523):+.2%}")
