"""Random augmentations and the corruption/restoration round trip."""

from collections import Counter

import numpy as np
import pytest

from seqrec.augops import (
    OP_DELETE,
    OP_INSERT,
    OP_KEEP,
    AugConfig,
    CorruptionConfig,
    corrupt_sequence,
    crop_augment,
    mask_augment,
    random_augment,
    reorder_augment,
    restore_sequence,
)

MASK = 999


def replay_record(record):
    """Independent restoration replay used as the round-trip oracle."""
    rebuilt = []
    for pos in range(len(record.s_mod)):
        op = record.ops[pos]
        if op == OP_DELETE:
            continue
        if op == OP_INSERT:
            rebuilt.extend(record.ins_targets[pos][::-1])
        rebuilt.append(record.s_mod[pos])
    rebuilt.extend(record.tail_targets[::-1])
    return rebuilt


# ---------------------------------------------------------------------------
# mask / crop / reorder
# ---------------------------------------------------------------------------


def test_mask_count_and_length():
    seq = list(range(1, 11))
    out = mask_augment(seq, 0.5, seed=1, mask_id=MASK)
    assert len(out) == 10
    assert out.count(MASK) == 5


def test_mask_single_item_bumps_floor():
    out = mask_augment([7], 0.5, seed=1, mask_id=MASK)
    assert out == [MASK]


def test_mask_deterministic():
    seq = list(range(1, 21))
    assert mask_augment(seq, 0.3, 5, MASK) == mask_augment(seq, 0.3, 5, MASK)
    assert mask_augment(seq, 0.3, 5, MASK) != mask_augment(seq, 0.3, 6, MASK)


def test_crop_is_contiguous_window():
    seq = list(range(1, 11))
    out = crop_augment(seq, 0.6, seed=2)
    assert len(out) == 6
    start = seq.index(out[0])
    assert out == seq[start:start + 6]


def test_crop_full_ratio_is_identity():
    seq = list(range(1, 8))
    assert crop_augment(seq, 1.0, seed=3) == seq


def test_crop_single_item():
    assert crop_augment([42], 0.5, seed=4) == [42]


def test_reorder_window_one_unchanged():
    seq = [1, 2, 3]
    assert reorder_augment(seq, 0.3, seed=5) == seq  # floor(0.9) -> window 1


def test_reorder_preserves_multiset_and_flanks():
    rng = np.random.default_rng(0)
    for trial in range(50):
        seq = list(rng.integers(1, 100, size=10))
        out = reorder_augment(seq, 0.5, seed=trial)
        assert sorted(out) == sorted(seq)
        assert len(out) == len(seq)
        # outside one length-5 window everything matches
        diffs = [i for i, (a, b) in enumerate(zip(seq, out)) if a != b]
        if diffs:
            assert max(diffs) - min(diffs) < 5


def test_reorder_two_items_roughly_uniform():
    flips = sum(reorder_augment([1, 2], 1.0, seed=s) == [2, 1] for s in range(1000))
    # chi-square against a fair coin, 1 dof: reject only below p=0.01
    chi2 = (flips - 500) ** 2 / 500 + (500 - flips) ** 2 / 500
    assert chi2 < 6.63, f"flip count {flips} too skewed"


def test_random_augment_choice_frequencies():
    cfg = AugConfig(gamma=0.5, eta=0.6, beta_r=0.5)
    seq = list(range(1, 11))
    counts = Counter()
    for s in range(3000):
        out = random_augment(seq, cfg, seed=s, mask_id=MASK)
        if MASK in out:
            counts["mask"] += 1
        elif len(out) < len(seq):
            counts["crop"] += 1
        else:
            counts["reorder"] += 1
    for op in ("mask", "crop", "reorder"):
        assert abs(counts[op] - 1000) <= 100, counts


def test_random_augment_single_item_always_valid():
    cfg = AugConfig()
    for s in range(30):
        out = random_augment([5], cfg, seed=s, mask_id=MASK)
        assert out in ([5], [MASK])


def test_random_augment_deterministic():
    cfg = AugConfig()
    seq = list(range(1, 16))
    assert random_augment(seq, cfg, 7, MASK) == random_augment(seq, cfg, 7, MASK)


def test_aug_config_validates_ranges():
    with pytest.raises(ValueError):
        AugConfig(gamma=0.0)
    with pytest.raises(ValueError):
        AugConfig(eta=1.5)


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def test_corrupt_keep_only_is_identity():
    cfg = CorruptionConfig(1.0, 0.0, 0.0, n_items=50)
    seq = [3, 1, 4, 1, 5]
    rec = corrupt_sequence(seq, cfg, seed=0)
    assert rec.s_mod == seq
    assert rec.ops == [OP_KEEP] * 5
    assert rec.ins_targets == {}
    assert rec.tail_targets == []


def test_corrupt_delete_only_keeps_one_survivor():
    cfg = CorruptionConfig(0.0, 1.0, 0.0, n_items=50)
    seq = [10, 20, 30]
    rec = corrupt_sequence(seq, cfg, seed=1)
    assert len(rec.s_mod) == 1
    assert rec.s_mod[0] in seq
    assert replay_record(rec) == seq


def test_corrupt_insert_labels_are_delete():
    cfg = CorruptionConfig(0.0, 0.0, 1.0, max_insert_run=3, n_items=50)
    seq = [10, 20]
    rec = corrupt_sequence(seq, cfg, seed=2)
    # every original survives; everything else is labelled delete
    survivors = [p for p, op in enumerate(rec.ops) if op != OP_DELETE]
    assert [rec.s_mod[p] for p in survivors] == seq
    assert replay_record(rec) == seq


def test_corrupt_rejects_single_item():
    cfg = CorruptionConfig(n_items=50)
    with pytest.raises(ValueError):
        corrupt_sequence([1], cfg, seed=0)


def test_corrupt_config_validates_probabilities():
    with pytest.raises(ValueError):
        CorruptionConfig(0.5, 0.5, 0.5, n_items=10)
    with pytest.raises(ValueError):
        CorruptionConfig(n_items=0)
    with pytest.raises(ValueError, match="p_keep must be in"):
        CorruptionConfig(float("nan"), 0.5, 0.1, n_items=10)


def test_restoration_round_trip_random():
    cfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=80)
    rng = np.random.default_rng(100)
    for trial in range(1000):
        length = int(rng.integers(2, 30))
        seq = list(rng.integers(1, 81, size=length))
        rec = corrupt_sequence(seq, cfg, seed=trial)
        assert replay_record(rec) == seq
        assert restore_sequence(rec) == seq  # library replay agrees


def test_corrupt_draw_frequencies_match_probabilities():
    cfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=80)
    rng = np.random.default_rng(5)
    counts = np.zeros(3)
    total = 0
    seed = 0
    while total < 10_000:
        length = int(rng.integers(5, 25))
        seq = list(rng.integers(1, 81, size=length))
        rec = corrupt_sequence(seq, cfg, seed=seed)
        for d in rec.draws:
            counts[d] += 1
        total += length
        seed += 1
    freq = counts / counts.sum()
    for got, want in zip(freq, (0.4, 0.5, 0.1)):
        assert abs(got - want) <= 0.02, freq


def test_corrupt_deterministic_per_seed():
    cfg = CorruptionConfig(n_items=40)
    seq = list(range(1, 15))
    a = corrupt_sequence(seq, cfg, seed=9)
    b = corrupt_sequence(seq, cfg, seed=9)
    assert a.s_mod == b.s_mod and a.ops == b.ops
    assert a.ins_targets == b.ins_targets and a.tail_targets == b.tail_targets


def test_corrupt_insert_targets_are_reverse_ordered():
    # force deletes around a known survivor: [a, b, c] with b kept
    cfg = CorruptionConfig(0.0, 1.0, 0.0, n_items=50)
    for seed in range(50):
        seq = [11, 22, 33, 44]
        rec = corrupt_sequence(seq, cfg, seed=seed)
        survivor = rec.s_mod[0]
        pos_in_seq = seq.index(survivor)
        before = seq[:pos_in_seq]
        after = seq[pos_in_seq + 1:]
        if before:
            assert rec.ins_targets[0] == before[::-1]
        assert rec.tail_targets == after[::-1]
