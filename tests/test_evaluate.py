"""Ranking metrics, sampled evaluation, robustness simulation."""

import hashlib
import math
import zlib

import numpy as np
import pytest

from seqrec import evaluate
from seqrec.augops import corrupt_sequence
from seqrec.data import (
    ItemSequence,
    SplitDataset,
    SplitSequence,
    Vocabulary,
    leave_one_out_split,
    sample_negatives,
)
from seqrec.encoder import EncoderParams, ModelDims
from seqrec.errors import ConfigError
from seqrec.evaluate import (
    K_VALUES,
    MetricReport,
    NoisySimConfig,
    dist,
    evaluate_model,
    rank_of_target,
    simulate_noisy_testset,
    user_metrics,
)
from seqrec.recommender import RecommenderParams
from seqrec.seeding import rng_for


def make_vocab(n_items):
    tokens = [f"i{k}" for k in range(n_items)]
    return Vocabulary({t: i + 1 for i, t in enumerate(tokens)}, ["<pad>"] + tokens)


def naive_rank(scores, ids, target):
    """Full-sort oracle: order by score desc then id asc, find the target."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [ids[i] for i in order].index(target) + 1


# ---------------------------------------------------------------------------
# rank_of_target
# ---------------------------------------------------------------------------


def target_first(scores, ids, target):
    """The row with the target moved to column 0 (a swap keeps the sort oracle)."""
    pos = int(np.flatnonzero(ids == target)[0])
    perm = np.arange(len(ids))
    perm[[0, pos]] = perm[[pos, 0]]
    return scores[perm], ids[perm]


def test_highest_score_ranks_first():
    assert rank_of_target(np.array([[0.9, 0.1, 0.3]]), np.array([[7, 5, 9]])).tolist() == [1]


def test_all_tied_smallest_id_first():
    ids = np.array([[3, 12, 44, 9], [9, 12, 3, 44], [44, 12, 3, 9]])
    assert rank_of_target(np.zeros((3, 4)), ids).tolist() == [1, 2, 4]


def test_rank_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    rows, expected = [], []
    for trial in range(300):
        n = 100
        ids = rng.choice(10_000, size=n, replace=False) + 1
        scores = np.round(rng.standard_normal(n), 2)  # rounding forces ties
        target = int(ids[rng.integers(0, n)])
        rows.append(target_first(scores, ids, target))
        expected.append(naive_rank(scores, ids, target))
    scores, ids = (np.stack(part) for part in zip(*rows))
    assert rank_of_target(scores, ids).tolist() == expected


def test_rank_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    ids = np.arange(1, 101)
    scores = rng.standard_normal(100)
    rows = [target_first(scores, ids, target) for target in ids[:20]]
    scores, ids = (np.stack(part) for part in zip(*rows))
    assert (rank_of_target(scores, ids) == rank_of_target(np.exp(scores), ids)).all()


# ---------------------------------------------------------------------------
# user_metrics
# ---------------------------------------------------------------------------


def test_rank_one_is_perfect():
    assert user_metrics(1, 5) == (1.0, 1.0, 1.0)


def test_rank_two_values():
    hit, rr, nd = user_metrics(2, 5)
    assert hit == 1.0
    assert rr == 0.5
    assert abs(nd - 1.0 / math.log2(3.0)) < 1e-12
    assert abs(nd - 0.63093) < 1e-5


def test_outside_cutoff_is_zero():
    assert user_metrics(7, 5) == (0.0, 0.0, 0.0)


def test_rank_below_one_rejected():
    with pytest.raises(ValueError):
        user_metrics(0, 5)


def test_metric_ordering_and_k_monotonicity():
    for rank in range(1, 101):
        prev = None
        for k in K_VALUES:
            hit, rr, nd = user_metrics(rank, k)
            assert hit >= nd >= rr  # 1 >= 1/log2(r+1) >= 1/r for r >= 1
            if prev is not None:
                assert (hit, rr, nd) >= prev
            prev = (hit, rr, nd)


def test_metrics_match_naive_reference_on_random_scores():
    rng = np.random.default_rng(2)
    for trial in range(200):
        ids = rng.choice(5000, size=100, replace=False) + 1
        scores = np.round(rng.standard_normal(100), 1)
        target = int(ids[rng.integers(0, 100)])
        rank = naive_rank(scores, ids, target)
        got = int(rank_of_target(*(row[None] for row in target_first(scores, ids, target)))[0])
        for k in K_VALUES:
            hit = 1.0 if rank <= k else 0.0
            rr = 1.0 / rank if rank <= k else 0.0
            nd = 1.0 / math.log2(rank + 1) if rank <= k else 0.0
            assert user_metrics(got, k) == (hit, rr, nd)


# ---------------------------------------------------------------------------
# noisy simulation and dist
# ---------------------------------------------------------------------------


def test_keep_only_ratio_is_identity():
    vocab = make_vocab(50)
    seqs = [ItemSequence("u1", [1, 2, 3, 4, 5])]
    out = simulate_noisy_testset(seqs, NoisySimConfig(ratio=(1, 0, 0), seed=0), vocab)
    assert out[0].items == [1, 2, 3, 4, 5]


def test_final_item_always_preserved():
    vocab = make_vocab(50)
    rng = np.random.default_rng(3)
    seqs = [
        ItemSequence(f"u{k}", list(rng.integers(1, 51, size=rng.integers(2, 20))))
        for k in range(200)
    ]
    out = simulate_noisy_testset(seqs, NoisySimConfig(seed=1), vocab)
    for before, after in zip(seqs, out):
        assert after.items[-1] == before.items[-1]
        assert len(after.items) >= 1


def test_delete_heavy_ratio_keeps_penultimate_fallback():
    vocab = make_vocab(50)
    seqs = [ItemSequence("u1", [7, 8, 9])]
    out = simulate_noisy_testset(seqs, NoisySimConfig(ratio=(0, 1, 0), seed=2), vocab)
    assert out[0].items == [8, 9]  # context fell empty; penultimate retained


def test_noise_frequencies_match_ratio():
    # distinct ids from a large catalog make survival counting exact:
    # a kept original is present afterwards, a deleted one is absent, and
    # anything beyond the survivors was inserted (collisions ~25/10000)
    vocab = make_vocab(10_000)
    rng = np.random.default_rng(4)
    seqs = [
        ItemSequence(f"u{k}", list(rng.choice(10_000, size=25, replace=False) + 1))
        for k in range(500)
    ]  # 12000 damageable positions
    out = simulate_noisy_testset(seqs, NoisySimConfig(ratio=(4, 3, 3), seed=5), vocab)
    positions = survivors = inserted = 0
    for before, after in zip(seqs, out):
        original = set(before.items[:-1])
        kept_here = sum(1 for x in after.items[:-1] if x in original)
        positions += len(before.items) - 1
        survivors += kept_here
        inserted += len(after.items) - 1 - kept_here
    # per damageable position: delete w.p. 0.3; insert w.p. 0.3 adds an item
    # while keeping the original, so survivors/positions ~ 0.7
    assert abs(survivors / positions - 0.7) <= 0.02
    assert abs(inserted / positions - 0.3) <= 0.02
    deleted_frac = 1.0 - survivors / positions
    keep_frac = 1.0 - deleted_frac - inserted / positions
    assert abs(deleted_frac - 0.3) <= 0.02
    assert abs(keep_frac - 0.4) <= 0.02


def test_noisy_damage_unchanged_under_user_permutation():
    vocab = make_vocab(50)
    rng = np.random.default_rng(6)
    seqs = [ItemSequence(f"u{k}", list(rng.integers(1, 51, size=rng.integers(1, 12))))
            for k in range(60)]
    cfg = NoisySimConfig(seed=3)
    out = simulate_noisy_testset(seqs, cfg, vocab)
    perm = rng.permutation(len(seqs))
    permuted = simulate_noisy_testset([seqs[i] for i in perm], cfg, vocab)
    assert permuted == [out[i] for i in perm]
    assert [s.user_id for s in out] == [s.user_id for s in seqs]  # input order kept
    assert sum(a != b for a, b in zip(seqs, out)) > len(seqs) // 2


def test_noisy_damage_is_pinned_on_random_batches():
    # the noisy test set feeds reported results, so its draws are pinned: 300
    # random batches (1-item sequences, all-delete contexts and zero ratio parts
    # among them) hash to the bytes the harness gave before it shared
    # augops.corrupt_sequence with training
    digest = hashlib.sha256()
    rng = np.random.default_rng(123)
    for _ in range(300):
        vocab = make_vocab(int(rng.integers(5, 60)))
        seqs = [ItemSequence(f"u{int(rng.integers(0, 10**6))}",
                             rng.integers(1, vocab.n_items + 1,
                                          size=int(rng.integers(1, 30))).tolist())
                for _ in range(int(rng.integers(1, 40)))]
        ratio = tuple(float(x) for x in rng.integers(0, 5, size=3))
        cfg = NoisySimConfig(ratio=ratio if sum(ratio) else (1.0, 1.0, 1.0),
                             seed=int(rng.integers(0, 100)))
        out = simulate_noisy_testset(seqs, cfg, vocab)
        digest.update(repr([(s.user_id, s.items) for s in out]).encode())
    assert digest.hexdigest() == \
        "b7187180933a42559d9f9fdc7cff05b0e88e0efb27c2fa53048e5041a082e856"


def test_noisy_pass_is_one_corruption_call(monkeypatch):
    split, vocab = make_split(n_users=30, seq_len=8, seed=2)
    calls = []

    def counting(seqs, cfg, rng):
        calls.append((len(seqs), cfg.max_insert_run, cfg.n_items))
        return corrupt_sequence(seqs, cfg, rng)

    monkeypatch.setattr(evaluate, "corrupt_sequence", counting)
    monkeypatch.setattr(evaluate, "score_candidates", recording_scorer([]))
    for which in ("valid", "test"):
        evaluate_model(split, vocab, None, None, which=which, seed=1, batch_size=7,
                       noisy=NoisySimConfig(seed=2))
    assert calls == [(30, 1, 130)] * 2  # every context at once, single-item inserts


@pytest.mark.parametrize("ratio", [(float("nan"), 1, 1), (float("inf"), 1, 1), (1, -1, 1),
                                   (0, 0, 0)])
def test_noisy_config_refuses_bad_ratio(ratio):
    with pytest.raises(ConfigError, match="--noisy-ratio/--ratio"):
        NoisySimConfig(ratio=ratio)


def test_dist_reference_values():
    assert abs(dist(3.6540, 3.7740) * 100 - (-3.17)) <= 0.01
    assert abs(dist(5.3365, 5.5523) * 100 - (-3.88)) <= 0.01
    assert dist(4.2, 4.2) == 0.0


def test_dist_rejects_nonpositive_raw():
    with pytest.raises(ValueError):
        dist(1.0, 0.0)


# ---------------------------------------------------------------------------
# evaluate_model
# ---------------------------------------------------------------------------


def make_split(n_users=40, n_items=130, seq_len=8, seed=0):
    rng = np.random.default_rng(seed)
    seqs = [
        ItemSequence(f"u{k}", list(rng.integers(1, n_items + 1, size=seq_len)))
        for k in range(n_users)
    ]
    return leave_one_out_split(seqs), make_vocab(n_items)


def test_perfect_scorer_gives_sum_nine(monkeypatch):
    split, vocab = make_split()
    def oracle(contexts, cands, enc, rec):
        scores = np.zeros(cands.shape)
        scores[:, 0] = 1.0  # the target occupies column 0
        return scores
    monkeypatch.setattr(evaluate, "score_candidates", oracle)
    report = evaluate_model(split, vocab, None, None, seed=1)
    for k in K_VALUES:
        assert report.hr[k] == report.mrr[k] == report.ndcg[k] == 1.0
    assert abs(report.total - 9.0) < 1e-12


def test_random_scorer_hit_rate_near_expectation(monkeypatch):
    split, vocab = make_split(n_users=1000, n_items=200, seq_len=6, seed=5)
    def scorer(contexts, cands, enc, rec):
        rng = np.random.default_rng(zlib.crc32(cands.tobytes()))  # hash() is salted
        return rng.standard_normal(cands.shape)
    monkeypatch.setattr(evaluate, "score_candidates", scorer)
    report = evaluate_model(split, vocab, None, None, seed=2)
    assert abs(report.hr[10] - 0.10) <= 0.03


def test_report_deterministic_and_order_independent():
    split, vocab = make_split(n_users=25)
    dims = ModelDims(n_items=130, embed_dim=16, n_layers=1, n_heads=1, dropout=0.0)
    enc = EncoderParams(dims, seed=0)
    rec = RecommenderParams(dims, seed=1)
    a = evaluate_model(split, vocab, enc, rec, seed=7)
    b = evaluate_model(split, vocab, enc, rec, seed=7)
    assert a.to_kv_lines() == b.to_kv_lines()
    # permuted user order: same users, same negatives, identical report
    perm = np.random.default_rng(8).permutation(len(split.users))
    permuted = SplitDataset([split.users[i] for i in perm])
    c = evaluate_model(permuted, vocab, enc, rec, seed=7)
    assert a.to_kv_lines() == c.to_kv_lines()
    noisy = NoisySimConfig(seed=2)
    assert (evaluate_model(split, vocab, enc, rec, seed=7, noisy=noisy).to_kv_lines()
            == evaluate_model(permuted, vocab, enc, rec, seed=7, noisy=noisy).to_kv_lines())


@pytest.mark.parametrize("noisy", [None, NoisySimConfig(seed=2)])
def test_report_independent_of_batch_size(noisy):
    split, vocab = make_split(n_users=30)
    dims = ModelDims(n_items=130, embed_dim=16, n_layers=1, n_heads=1, dropout=0.0)
    enc = EncoderParams(dims, seed=0)
    rec = RecommenderParams(dims, seed=1)
    small, large = (evaluate_model(split, vocab, enc, rec, seed=7, batch_size=b, noisy=noisy)
                    for b in (7, 256))
    assert small.to_kv_lines() == large.to_kv_lines()
    assert small.n_users == 30


def test_valid_and_test_splits_use_different_targets(monkeypatch):
    split, vocab = make_split(n_users=12)
    hits = []
    def remember(contexts, cands, enc, rec):
        hits.append((len(contexts[0]), cands.shape))
        scores = np.zeros(cands.shape)
        scores[:, 0] = 1.0
        return scores
    monkeypatch.setattr(evaluate, "score_candidates", remember)
    evaluate_model(split, vocab, None, None, which="valid", seed=0)
    valid_ctx_len = hits[0][0]
    hits.clear()
    evaluate_model(split, vocab, None, None, which="test", seed=0)
    assert hits[0][0] == valid_ctx_len + 1  # test history includes the valid item


def recording_scorer(rows):
    """A scorer that ranks column 0 first and records each (context, candidates) row."""
    def score(contexts, cands, enc, rec):
        rows.extend(zip(contexts, cands.tolist()))
        scores = np.zeros(cands.shape)
        scores[:, 0] = 1.0
        return scores
    return score


@pytest.mark.parametrize("which", ["valid", "test"])
def test_noisy_rows_score_the_damaged_history_against_undamaged_negatives(monkeypatch,
                                                                          which):
    split, vocab = make_split(n_users=30, seq_len=9, seed=3)
    rows = []
    monkeypatch.setattr(evaluate, "score_candidates", recording_scorer(rows))
    noisy = NoisySimConfig(seed=4)
    report = evaluate_model(split, vocab, None, None, which=which, seed=6, batch_size=7,
                            noisy=noisy)
    assert report.n_users == len(split.users) == len(rows)
    # one call of each batch form over all users, in sorted user-id order,
    # replays the pass's chunked draws
    users = sorted(split.users, key=lambda u: u.user_id)
    histories = [u.train if which == "valid" else u.train + [u.valid_target] for u in users]
    targets = [u.valid_target if which == "valid" else u.test_target for u in users]
    damaged = simulate_noisy_testset(
        [ItemSequence(u.user_id, h + [t]) for u, h, t in zip(users, histories, targets)],
        noisy, vocab)
    negatives, ok = sample_negatives([u.full() for u in users], vocab, 99,
                                     rng_for(6, which, "negatives"))
    assert ok.all()
    moved = 0
    for u, history, target, noised, negs, (context, cands) in zip(
            users, histories, targets, damaged, negatives, rows):
        assert context == noised.items[:-1]
        moved += context != history
        assert cands[0] == target
        assert cands[1:] == negs.tolist()
        assert len(set(cands[1:])) == 99 and not set(cands[1:]) & set(u.full())
    assert moved > len(rows) // 2  # the checks above ran on damaged contexts


def test_pool_too_small_user_leaves_other_users_negatives_unchanged(monkeypatch):
    split, vocab = make_split(n_users=20, seq_len=8, seed=4)
    rows = []
    monkeypatch.setattr(evaluate, "score_candidates", recording_scorer(rows))
    evaluate_model(split, vocab, None, None, seed=3, batch_size=7)
    baseline, rows[:] = list(rows), []
    # u13 sorts mid-chunk; 35 distinct items leave it a pool of 95 < 99
    small = SplitSequence("u13", list(range(1, 34)), 34, 35)
    users = [small if u.user_id == "u13" else u for u in split.users]
    report = evaluate_model(SplitDataset(users), vocab, None, None, seed=3, batch_size=7)
    assert (report.n_users, report.n_skipped) == (19, 1)
    order = sorted(u.user_id for u in split.users)
    assert rows == [row for uid, row in zip(order, baseline) if uid != "u13"]


@pytest.mark.parametrize("n_negatives", [50, 99])
def test_catalog_no_larger_than_negatives_is_refused(monkeypatch, n_negatives):
    # a user's free pool holds at most 49 of the 50 items: no user could be ranked
    split, vocab = make_split(n_users=10, n_items=50)
    rows = []
    monkeypatch.setattr(evaluate, "score_candidates", recording_scorer(rows))
    with pytest.raises(ConfigError, match=f"^n_negatives {n_negatives} must be below the "
                                          f"catalog's 50 items"):
        evaluate_model(split, vocab, None, None, seed=0, n_negatives=n_negatives)
    assert rows == []


def test_pools_smaller_than_negatives_skip_everyone(monkeypatch):
    # 50 items, 45 negatives: each user holds 8 distinct items, leaving a pool of 42
    split = leave_one_out_split([ItemSequence(f"u{k}", list(range(k + 1, k + 9)))
                                 for k in range(10)])
    rows = []
    monkeypatch.setattr(evaluate, "score_candidates", recording_scorer(rows))
    report = evaluate_model(split, make_vocab(50), None, None, seed=0, n_negatives=45)
    assert (report.n_users, report.n_skipped, rows) == (0, 10, [])
    assert report.total == 0.0
    assert evaluate_model(split, make_vocab(50), None, None, n_negatives=42).n_users == 10


def test_empty_train_prefix_is_scored_without_its_target(monkeypatch):
    split = SplitDataset([SplitSequence("u0", [], 5, 6), SplitSequence("u1", [3], 7, 8)])
    rows = []
    monkeypatch.setattr(evaluate, "score_candidates", recording_scorer(rows))
    report = evaluate_model(split, make_vocab(130), None, None, which="valid", seed=0)
    assert report.n_users == 2
    assert [(context, cands[0]) for context, cands in rows] == [([], 5), ([3], 7)]


def test_report_from_ranks_averages_user_metrics():
    ranks = [1, 2, 7, 30]
    report = MetricReport.from_ranks(ranks, n_skipped=3)
    assert (report.n_users, report.n_skipped) == (4, 3)
    for k in K_VALUES:
        per_user = [user_metrics(r, k) for r in ranks]
        assert report.hr[k] == math.fsum(m[0] for m in per_user) / 4
        assert report.mrr[k] == math.fsum(m[1] for m in per_user) / 4
        assert report.ndcg[k] == math.fsum(m[2] for m in per_user) / 4
    assert report.hr[5] == 0.5 and report.hr[10] == 0.75
    empty = MetricReport.from_ranks([], n_skipped=2)
    assert empty.total == 0.0 and (empty.n_users, empty.n_skipped) == (0, 2)


def test_pool_too_small_users_are_counted(monkeypatch):
    # 120 items, users touch 30 distinct -> pool 90 < 99
    rng = np.random.default_rng(9)
    seqs = [
        ItemSequence(f"u{k}", list(rng.choice(120, size=30, replace=False) + 1))
        for k in range(5)
    ]
    split = leave_one_out_split(seqs)
    vocab = make_vocab(120)
    def oracle(contexts, cands, enc, rec):
        scores = np.zeros(cands.shape)
        scores[:, 0] = 1.0
        return scores
    monkeypatch.setattr(evaluate, "score_candidates", oracle)
    report = evaluate_model(split, vocab, None, None, seed=0)
    assert report.n_skipped == 5
    assert report.n_users == 0


def test_metric_report_text_and_kv():
    report = MetricReport(
        hr={5: 0.5, 10: 0.6, 20: 0.7},
        mrr={5: 0.2, 10: 0.25, 20: 0.3},
        ndcg={5: 0.3, 10: 0.35, 20: 0.4},
        n_users=10,
    )
    assert abs(report.total - 3.6) < 1e-12
    text = report.to_text()
    assert "HR" in text and "Sum" in text
    kv = dict(line.split("=") for line in report.to_kv_lines())
    assert float(kv["hr@5"]) == 0.5
    assert float(kv["sum"]) == pytest.approx(3.6)
