"""Data pipeline: parsing, 5-core filtering, splits, negatives, batching."""

import re

import numpy as np
import pytest

from seqrec.data import (
    Interaction,
    ItemSequence,
    Vocabulary,
    build_sequences,
    dataset_stats,
    five_core_filter,
    leave_one_out_split,
    make_batches,
    pad_batch,
    parse_interactions,
    read_sequences,
    read_vocabulary,
    sample_negatives,
    write_sequences,
    write_vocabulary,
)
from seqrec.errors import ConfigError, ParseError, PoolTooSmallError


def make_vocab(n_items):
    tokens = [f"i{k}" for k in range(n_items)]
    return Vocabulary({t: i + 1 for i, t in enumerate(tokens)}, ["<pad>"] + tokens)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_line(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("u1 i9 100\n")
    assert parse_interactions(path) == [Interaction("u1", "i9", 100)]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("")
    assert parse_interactions(path) == []


def test_parse_missing_field_reports_line(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("u1 i9\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_interactions(path)


def test_parse_bad_timestamp_reports_line(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("u1 i9 100\nu2 i3 notanint\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_interactions(path)


def test_parse_accepts_tabs_and_blank_lines(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("u1\ti9\t100\n\nu2 i3 50\n")
    out = parse_interactions(path)
    assert len(out) == 2


# ---------------------------------------------------------------------------
# 5-core filter
# ---------------------------------------------------------------------------


def brute_force_five_core(interactions):
    """Independent oracle: re-filter from scratch until nothing changes."""
    current = list(interactions)
    while True:
        users = {}
        items = {}
        for x in current:
            users[x.user_id] = users.get(x.user_id, 0) + 1
            items[x.item_id] = items.get(x.item_id, 0) + 1
        nxt = [x for x in current if users[x.user_id] >= 5 and items[x.item_id] >= 5]
        if nxt == current:
            return nxt
        current = nxt


def test_five_core_drops_small_user():
    inter = [Interaction("u1", f"i{k}", k) for k in range(4)]
    assert five_core_filter(inter) == []


def test_five_core_keeps_dense_grid():
    inter = [
        Interaction(f"u{u}", f"i{i}", u * 10 + i)
        for u in range(5) for i in range(5)
    ]
    assert five_core_filter(inter) == inter


def test_five_core_cascade_matches_oracle():
    # u0..u4 share items i0..i4; u5 has 4 records on i0..i3 plus one on i9,
    # which dies and can cascade
    inter = [
        Interaction(f"u{u}", f"i{i}", u * 10 + i)
        for u in range(5) for i in range(5)
    ]
    inter += [Interaction("u5", f"i{i}", 100 + i) for i in range(4)]
    inter += [Interaction("u5", "i9", 104)]
    got = five_core_filter(inter)
    assert got == brute_force_five_core(inter)


def test_five_core_random_graphs_match_oracle_and_idempotent():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(5, 60))
        inter = [
            Interaction(f"u{rng.integers(0, 8)}", f"i{rng.integers(0, 8)}", int(t))
            for t in range(n)
        ]
        got = five_core_filter(inter)
        assert got == brute_force_five_core(inter)
        assert five_core_filter(got) == got  # idempotent


# ---------------------------------------------------------------------------
# sequences and splits
# ---------------------------------------------------------------------------


def test_build_sequences_sorts_by_timestamp():
    vocab = make_vocab(3)
    inter = [
        Interaction("u1", "i0", 3),
        Interaction("u1", "i1", 1),
        Interaction("u1", "i2", 2),
    ]
    (seq,) = build_sequences(inter, vocab)
    assert seq.items == [2, 3, 1]  # i1, i2, i0 as dense ids


def test_build_sequences_keeps_most_recent_50():
    vocab = make_vocab(60)
    inter = [Interaction("u1", f"i{k}", k) for k in range(53)]
    (seq,) = build_sequences(inter, vocab, max_len=50)
    assert len(seq.items) == 50
    assert seq.items[0] == vocab.token_to_id["i3"]
    assert seq.items[-1] == vocab.token_to_id["i52"]


def test_build_sequences_refuses_max_len_below_one():
    # items[-0:] is the whole list, so max_len = 0 would clip nothing
    vocab = make_vocab(6)
    inter = [Interaction("u1", f"i{k}", k) for k in range(6)]
    with pytest.raises(ConfigError, match=re.escape("max_len must be >= 1, got 0")):
        build_sequences(inter, vocab, max_len=0)
    (seq,) = build_sequences(inter, vocab, max_len=1)
    assert seq.items == [vocab.token_to_id["i5"]]


def test_build_sequences_stable_on_timestamp_ties():
    vocab = make_vocab(3)
    inter = [
        Interaction("u1", "i2", 7),
        Interaction("u1", "i0", 7),
        Interaction("u1", "i1", 7),
    ]
    (seq,) = build_sequences(inter, vocab)
    assert seq.items == [vocab.token_to_id[t] for t in ("i2", "i0", "i1")]


def test_split_five_items():
    split = leave_one_out_split([ItemSequence("u", [1, 2, 3, 4, 5])])
    u = split.users[0]
    assert (u.train, u.valid_target, u.test_target) == ([1, 2, 3], 4, 5)


def test_split_minimum_length():
    split = leave_one_out_split([ItemSequence("u", [1, 2, 3])])
    u = split.users[0]
    assert (u.train, u.valid_target, u.test_target) == ([1], 2, 3)


def test_split_excludes_short_sequences():
    split = leave_one_out_split([ItemSequence("u", [1, 2])])
    assert len(split.users) == 0


def test_split_partitions_exactly():
    rng = np.random.default_rng(3)
    seqs = [
        ItemSequence(f"u{k}", list(rng.integers(1, 50, size=rng.integers(3, 12))))
        for k in range(50)
    ]
    split = leave_one_out_split(seqs)
    by_user = {s.user_id: s.items for s in seqs}
    for u in split.users:
        assert u.full() == by_user[u.user_id]


# ---------------------------------------------------------------------------
# negatives
# ---------------------------------------------------------------------------


def test_negatives_disjoint_from_history():
    vocab = make_vocab(120)
    seq = ItemSequence("u1", list(range(1, 11)))
    negatives = sample_negatives(seq, vocab, count=99, seed=5)
    assert len(negatives) == 99
    assert len(set(negatives)) == 99
    assert not set(negatives) & set(seq.items)


def test_negatives_pool_too_small():
    vocab = make_vocab(105)
    seq = ItemSequence("u1", list(range(1, 11)))
    with pytest.raises(PoolTooSmallError):
        sample_negatives(seq, vocab, count=99, seed=5)


def test_negatives_deterministic_per_seed():
    vocab = make_vocab(150)
    seq = ItemSequence("u1", list(range(1, 11)))
    a = sample_negatives(seq, vocab, seed=5)
    b = sample_negatives(seq, vocab, seed=5)
    c = sample_negatives(seq, vocab, seed=6)
    assert a == b
    assert a != c


def test_negatives_match_the_scanned_pool():
    # the keyed draw indexes the ascending pool of uninteracted ids; rebuild
    # that pool by scanning the catalog and replay the draw
    from seqrec.seeding import rng_for

    vocab = make_vocab(130)
    users = [
        ItemSequence("u1", [5, 17, 3, 17, 99]),
        ItemSequence("u2", list(range(1, 31)) + [130]),  # pool of exactly 99
        ItemSequence("u3", [120, 7, 64, 2, 88, 41]),
        ItemSequence("u4", [1]),
    ]
    for seq in users:
        negatives = sample_negatives(seq, vocab, count=99, seed=8)
        pool = [i for i in range(1, vocab.n_items + 1) if i not in set(seq.items)]
        chosen = rng_for(8, seq.user_id, "negatives").choice(len(pool), size=99,
                                                             replace=False)
        assert negatives == [pool[i] for i in chosen]
        assert all(type(i) is int for i in negatives)
    # one more interacted item leaves 98: the boundary sits at count
    with pytest.raises(PoolTooSmallError, match="only 98 uninteracted items"):
        sample_negatives(ItemSequence("u2", list(range(1, 32)) + [130]), vocab,
                         count=99, seed=8)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def make_split(lengths):
    seqs = [
        ItemSequence(f"u{k}", list(range(1, n + 3)))  # +2 for the held-out items
        for k, n in enumerate(lengths)
    ]
    return leave_one_out_split(seqs)


def test_pad_batch_left_pads():
    ids = pad_batch([[1, 2, 3], [4, 5, 6, 7, 8]])
    assert ids.shape == (2, 5)
    assert list(ids[0]) == [0, 0, 1, 2, 3]
    assert list(ids[1]) == [4, 5, 6, 7, 8]


def test_pad_never_right_of_real_item():
    rng = np.random.default_rng(11)
    seqs = [list(rng.integers(1, 9, size=rng.integers(1, 7))) for _ in range(20)]
    ids = pad_batch(seqs)
    for row, seq in zip(ids, seqs):
        real = np.flatnonzero(row != 0)
        assert list(row[real]) == seq
        assert real[-1] == ids.shape[1] - 1  # right-aligned


def test_make_batches_rejects_tiny_batch():
    with pytest.raises(ConfigError):
        list(make_batches(make_split([3, 3]), batch_size=1, seed=0))


def test_make_batches_last_batch_smaller():
    batches = list(make_batches(make_split([3] * 5), batch_size=2, seed=0))
    assert [len(b.seqs) for b in batches] == [2, 2, 1]


def test_make_batches_oversized_batch_yields_one():
    batches = list(make_batches(make_split([3] * 5), batch_size=50, seed=0))
    assert [len(b.seqs) for b in batches] == [5]


def test_make_batches_deterministic():
    split = make_split([3, 4, 5, 6, 7, 8])
    a = [b.user_ids for b in make_batches(split, 2, seed=9)]
    b = [b.user_ids for b in make_batches(split, 2, seed=9)]
    c = [b.user_ids for b in make_batches(split, 2, seed=10)]
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# files and stats
# ---------------------------------------------------------------------------


def test_sequence_file_round_trip(tmp_path):
    seqs = [ItemSequence("u1", [1, 2, 3]), ItemSequence("u2", [9])]
    path = tmp_path / "sequences.txt"
    write_sequences(path, seqs)
    assert path.read_text().startswith("#seqrec-v1\n")
    assert read_sequences(path) == seqs


def test_sequence_file_rejects_bad_header(tmp_path):
    path = tmp_path / "sequences.txt"
    path.write_text("u1: 1 2 3\n")
    with pytest.raises(ParseError):
        read_sequences(path)


def test_vocab_file_round_trip(tmp_path):
    vocab = make_vocab(7)
    path = tmp_path / "vocab.txt"
    write_vocabulary(path, vocab)
    loaded = read_vocabulary(path)
    assert loaded.token_to_id == vocab.token_to_id
    assert loaded.n_items == 7
    assert loaded.mask_id == 8


@pytest.mark.parametrize("lines, message, line_no", [
    (["a\t1", "b\tx2"], "non-integer item id: 'x2'", 3),
    (["a\t1", "b\t2", "a\t3"], "duplicate token 'a'", 4),
    (["a\t1", "b\t1"], "duplicate id 1 (first on line 2)", 3),
    (["a\t1", "b\t3"], "id 3 outside 1..2", 3),
    (["a\t0", "b\t1"], "id 0 outside 1..2", 2),
], ids=["non-integer", "duplicate-token", "duplicate-id", "gap", "zero"])
def test_vocab_file_rejects_malformed_ids(tmp_path, lines, message, line_no):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(["#seqrec-vocab-v1", *lines]) + "\n")
    with pytest.raises(ParseError) as err:
        read_vocabulary(path)
    assert err.value.line_no == line_no
    assert message in str(err.value)


@pytest.mark.parametrize("lines, message, line_no", [
    (["u1: 3 4 5", "u2 6 7"], "missing ':' separator", 3),
    (["u1: 3 x 5"], "non-integer item id", 2),
    (["u1: 3 4", "", "u2: 4 2.5"], "non-integer item id", 4),
], ids=["missing-colon", "non-integer", "non-integer-after-blank"])
def test_sequence_file_rejects_malformed_lines(tmp_path, lines, message, line_no):
    path = tmp_path / "sequences.txt"
    path.write_text("\n".join(["#seqrec-v1", *lines]) + "\n")
    with pytest.raises(ParseError) as err:
        read_sequences(path)
    assert err.value.line_no == line_no
    assert message in str(err.value)


def test_density_on_grid():
    vocab = make_vocab(10)
    seqs = [ItemSequence(f"u{k}", list(range(1, 6))) for k in range(10)]
    stats = dataset_stats(seqs, vocab)
    assert stats["records"] == 50
    assert stats["density"] == pytest.approx(0.5)
    assert stats["avg_length"] == pytest.approx(5.0)
