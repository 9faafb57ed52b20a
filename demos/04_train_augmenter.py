#!/usr/bin/env python3
"""Teach the augmenter to restore damaged ring sequences (~5 minutes).

On a ring every transition is deterministic, so the restoration task is
fully solvable: injected noise breaks adjacency (delete it), gaps in the
walk reveal deletions (insert the missing run). Watch op accuracy and
teacher-forced insertion top-1 climb past 0.8.

Run: python3 demos/04_train_augmenter.py
"""

from seqrec.augmenter import generate_augmented_batch
from seqrec.config import RunConfig
from seqrec.data import Vocabulary, build_sequences, five_core_filter, leave_one_out_split
from seqrec.synthgen import SynthSpec, generate
from seqrec.trainer import train_augmenter

spec = SynthSpec(n_items=120, n_users=2000, structure="ring",
                 min_len=8, max_len=18, noise_rate=0.0, seed=5)
interactions, _ = generate(spec)
filtered = five_core_filter(interactions)
vocab = Vocabulary.from_interactions(filtered)
split = leave_one_out_split(build_sequences(filtered, vocab))
print(f"{len(split.users)} users, {vocab.n_items} items")

cfg = RunConfig(embed_dim=64, n_layers=1, dropout=0.1, batch_size=256, lr=0.005,
                epochs_augmenter=26, patience=50, seed=1,
                p_keep=0.4, p_delete=0.5, p_insert=0.1)
result = train_augmenter(split, vocab, cfg, log=print)

# damage a fresh walk and let the augmenter repair it
model = result.model
walk = [(40 + j) % 120 + 1 for j in range(10)]
damaged = [walk[0], walk[1], 7, walk[2], walk[5], walk[6], walk[7]]  # noise + gap
out = generate_augmented_batch([damaged], model.enc, model.aug)[0]
print("\nclean walk:   ", walk)
print("damaged input:", damaged)
print("augmented:    ", out)
# trained on delete-heavy corruption, it also likes extending the walk at
# both ends; the two repairs to look for:
print("noise item 7 deleted:  ", 7 not in out)
print("gap items 44,45 filled:", all(x in out for x in (44, 45)))
