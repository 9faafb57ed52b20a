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
from seqrec.seeding import rng_for

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


def choices_of(record):
    """Each original position's keep/delete/insert choice, read off a record.

    A survivor that follows inserted noise (labelled delete) chose insert,
    any other survivor keep; an insert label's targets and the tail were
    deleted.
    """
    choices = []
    after_noise = False
    for pos, op in enumerate(record.ops):
        if op == OP_DELETE:
            after_noise = True
            continue
        if op == OP_INSERT:
            choices += [OP_DELETE] * len(record.ins_targets[pos])
        choices.append(OP_INSERT if after_noise else OP_KEEP)
        after_noise = False
    return choices + [OP_DELETE] * len(record.tail_targets)


# ---------------------------------------------------------------------------
# mask / crop / reorder
# ---------------------------------------------------------------------------


def test_mask_count_and_length():
    seq = list(range(1, 11))
    out = mask_augment(seq, 0.5, rng_for(1), MASK)
    assert len(out) == 10
    assert out.count(MASK) == 5


def test_mask_single_item_bumps_floor():
    out = mask_augment([7], 0.5, rng_for(1), MASK)
    assert out == [MASK]


def test_mask_deterministic():
    seq = list(range(1, 21))
    draw = lambda key: mask_augment(seq, 0.3, rng_for(key), MASK)
    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_crop_is_contiguous_window():
    seq = list(range(1, 11))
    out = crop_augment(seq, 0.6, rng_for(2))
    assert len(out) == 6
    start = seq.index(out[0])
    assert out == seq[start:start + 6]


def test_crop_full_ratio_is_identity():
    seq = list(range(1, 8))
    assert crop_augment(seq, 1.0, rng_for(3)) == seq


def test_crop_single_item():
    assert crop_augment([42], 0.5, rng_for(4)) == [42]


def test_reorder_window_one_unchanged():
    seq = [1, 2, 3]
    assert reorder_augment(seq, 0.3, rng_for(5)) == seq  # floor(0.9) -> window 1


def test_reorder_preserves_multiset_and_flanks():
    rng = np.random.default_rng(0)
    for trial in range(50):
        seq = list(rng.integers(1, 100, size=10))
        out = reorder_augment(seq, 0.5, rng_for(trial))
        assert sorted(out) == sorted(seq)
        assert len(out) == len(seq)
        # outside one length-5 window everything matches
        diffs = [i for i, (a, b) in enumerate(zip(seq, out)) if a != b]
        if diffs:
            assert max(diffs) - min(diffs) < 5


def test_reorder_two_items_roughly_uniform():
    flips = sum(reorder_augment([1, 2], 1.0, rng_for(s)) == [2, 1] for s in range(1000))
    # chi-square against a fair coin, 1 dof: reject only below p=0.01
    chi2 = (flips - 500) ** 2 / 500 + (500 - flips) ** 2 / 500
    assert chi2 < 6.63, f"flip count {flips} too skewed"


def test_random_augment_choice_frequencies():
    cfg = AugConfig(gamma=0.5, eta=0.6, beta_r=0.5)
    seq = list(range(1, 11))
    counts = Counter()
    for s in range(3000):
        out = random_augment(seq, cfg, rng_for(s), MASK)
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
        out = random_augment([5], cfg, rng_for(s), MASK)
        assert out in ([5], [MASK])


def test_random_augment_deterministic():
    cfg = AugConfig()
    seq = list(range(1, 16))
    draw = lambda key: random_augment(seq, cfg, rng_for(key), MASK)
    assert draw(7) == draw(7)


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
    seqs = [[3, 1, 4, 1, 5], [9]]
    for seq, rec in zip(seqs, corrupt_sequence(seqs, cfg, rng_for(0))):
        assert rec.s_mod == seq
        assert rec.ops == [OP_KEEP] * len(seq)
        assert rec.ins_targets == {}
        assert rec.tail_targets == []


def test_corrupt_delete_only_keeps_one_survivor():
    # an all-delete row keeps its last item, which anchors the deleted run
    cfg = CorruptionConfig(0.0, 1.0, 0.0, n_items=50)
    long_row, single = corrupt_sequence([[10, 20, 30], [7]], cfg, rng_for(1))
    assert (long_row.s_mod, long_row.ops) == ([30], [OP_INSERT])
    assert long_row.ins_targets == {0: [20, 10]} and long_row.tail_targets == []
    assert (single.s_mod, single.ops) == ([7], [OP_KEEP])
    assert replay_record(long_row) == [10, 20, 30]


def test_corrupt_insert_labels_are_delete():
    cfg = CorruptionConfig(0.0, 0.0, 1.0, max_insert_run=3, n_items=50)
    seqs = [[10, 20], [30]]
    for seq, rec in zip(seqs, corrupt_sequence(seqs, cfg, rng_for(2))):
        # every original survives; everything else is labelled delete
        survivors = [p for p, op in enumerate(rec.ops) if op != OP_DELETE]
        assert [rec.s_mod[p] for p in survivors] == seq
        assert replay_record(rec) == seq


def test_corrupt_rejects_empty_row():
    cfg = CorruptionConfig(n_items=50)
    with pytest.raises(ValueError, match="row 1 is empty"):
        corrupt_sequence([[1, 2], [], [3]], cfg, rng_for(0))


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
    for trial in range(200):
        seqs = [list(rng.integers(1, 81, size=int(rng.integers(1, 30))))
                for _ in range(int(rng.integers(1, 12)))]
        seqs.append([int(rng.integers(1, 81))])  # every batch holds a 1-item row
        records = corrupt_sequence(seqs, cfg, rng_for(trial))
        assert len(records) == len(seqs)
        for seq, rec in zip(seqs, records):
            assert replay_record(rec) == seq
            assert restore_sequence(rec) == seq  # library replay agrees


def test_corrupt_draws_three_calls_per_batch():
    # replaying the three batch draws on a twin generator rebuilds every
    # row's choices (bar all-delete survivors) and every inserted item, and
    # leaves both generators at the same state
    cfg = CorruptionConfig(0.3, 0.5, 0.2, max_insert_run=3, n_items=40)
    rng = np.random.default_rng(8)
    seqs = [list(rng.integers(1, 41, size=int(rng.integers(1, 6)))) for _ in range(300)]
    drawn, twin = rng_for(4), rng_for(4)
    records = corrupt_sequence(seqs, cfg, drawn)
    choices = twin.choice(3, size=sum(map(len, seqs)), p=[0.3, 0.5, 0.2])
    run_lens = twin.integers(1, 4, size=int((choices == OP_INSERT).sum()))
    noise = twin.integers(1, 41, size=int(run_lens.sum()))
    got = [choices_of(rec) for rec in records]
    survivors = 0
    for row, want in zip(got, np.split(choices, np.cumsum(list(map(len, seqs)))[:-1])):
        if (want == OP_DELETE).all():
            survivors += 1
            want = np.append(want[:-1], OP_KEEP)
        assert row == want.tolist()
    assert survivors > 0
    inserted = [x for rec in records for x, op in zip(rec.s_mod, rec.ops) if op == OP_DELETE]
    assert inserted == noise.tolist()
    assert drawn.random() == twin.random()


def test_corrupt_draw_frequencies_match_probabilities():
    cfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=80)
    rng = np.random.default_rng(5)
    seqs = []
    while sum(map(len, seqs)) < 10_000:
        seqs.append(list(rng.integers(1, 81, size=int(rng.integers(5, 25)))))
    counts = np.zeros(3)
    for seq, rec in zip(seqs, corrupt_sequence(seqs, cfg, rng_for(0))):
        choices = choices_of(rec)
        assert len(choices) == len(seq)
        counts += np.bincount(choices, minlength=3)
    freq = counts / counts.sum()
    for got, want in zip(freq, (0.4, 0.5, 0.1)):
        assert abs(got - want) <= 0.02, freq


def test_corrupt_deterministic_per_seed():
    cfg = CorruptionConfig(n_items=40)
    seqs = [list(range(1, 15)), list(range(3, 9))]
    assert corrupt_sequence(seqs, cfg, rng_for(9)) == corrupt_sequence(seqs, cfg, rng_for(9))


def test_corrupt_insert_targets_are_reverse_ordered():
    # distinct items: each deleted run sits between two survivors, or after
    # the last one, and is stored most-recent-first
    cfg = CorruptionConfig(0.5, 0.5, 0.0, n_items=50)
    seq = [11, 22, 33, 44, 55]
    for rec in corrupt_sequence([seq] * 50, cfg, rng_for(3)):
        at = [seq.index(x) for x in rec.s_mod]
        for pos, (prev, here) in enumerate(zip([-1] + at, at)):
            assert rec.ins_targets.get(pos, []) == seq[prev + 1:here][::-1]
        assert rec.tail_targets == seq[at[-1] + 1:][::-1]
