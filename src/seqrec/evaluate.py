"""Sampled top-K evaluation and the noisy-test-set robustness harness.

Each user's held-out target is ranked against 99 sampled uninteracted
items; HR/MRR/NDCG at K in {5, 10, 20} are averaged over users with
order-independent summation (math.fsum), so a report depends only on the
(config, seed) pair, not on batch or user ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    ItemSequence,
    SplitDataset,
    Vocabulary,
    sample_negatives,
)
from .encoder import EncoderParams
from .errors import PoolTooSmallError
from .recommender import RecommenderParams, score_candidates
from .seeding import derive_seed, rng_for

K_VALUES = (5, 10, 20)


@dataclass
class NoisySimConfig:
    """keep:delete:insert ratio applied to test histories (final item kept)."""

    ratio: tuple[float, float, float] = (4.0, 3.0, 3.0)
    seed: int = 0

    def probabilities(self) -> tuple[float, float, float]:
        total = sum(self.ratio)
        if total <= 0 or any(r < 0 for r in self.ratio):
            raise ValueError(f"ratio parts must be positive, got {self.ratio}")
        return tuple(r / total for r in self.ratio)


@dataclass
class MetricReport:
    hr: dict[int, float] = field(default_factory=dict)
    mrr: dict[int, float] = field(default_factory=dict)
    ndcg: dict[int, float] = field(default_factory=dict)
    n_users: int = 0
    n_skipped: int = 0

    @property
    def total(self) -> float:
        """Sum of the nine metric values."""
        return math.fsum(
            [self.hr[k] for k in K_VALUES]
            + [self.mrr[k] for k in K_VALUES]
            + [self.ndcg[k] for k in K_VALUES]
        )

    def to_kv_lines(self) -> list[str]:
        lines = []
        for k in K_VALUES:
            lines.append(f"hr@{k}={self.hr[k]!r}")
        for k in K_VALUES:
            lines.append(f"mrr@{k}={self.mrr[k]!r}")
        for k in K_VALUES:
            lines.append(f"ndcg@{k}={self.ndcg[k]!r}")
        lines.append(f"sum={self.total!r}")
        lines.append(f"users={self.n_users}")
        lines.append(f"skipped={self.n_skipped}")
        return lines

    def to_text(self) -> str:
        header = f"{'metric':<8}" + "".join(f"{('@' + str(k)):>12}" for k in K_VALUES)
        rows = [header]
        for name, vals in (("HR", self.hr), ("MRR", self.mrr), ("NDCG", self.ndcg)):
            rows.append(f"{name:<8}" + "".join(f"{vals[k]:>12.4f}" for k in K_VALUES))
        rows.append(f"{'Sum':<8}{self.total:>12.4f}")
        rows.append(f"users evaluated: {self.n_users}, skipped (small pool): {self.n_skipped}")
        return "\n".join(rows)


def rank_of_target(scores: np.ndarray, candidate_ids: np.ndarray, target_id: int) -> int:
    """1-based rank of the target by descending score, ties by ascending id."""
    scores = np.asarray(scores, dtype=float)
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    matches = np.flatnonzero(candidate_ids == target_id)
    if matches.size == 0:
        raise ValueError(f"target {target_id} not among the candidates")
    pos = int(matches[0])
    better = (scores > scores[pos]).sum()
    tied_before = ((scores == scores[pos]) & (candidate_ids < target_id)).sum()
    return int(better + tied_before + 1)


def user_metrics(rank: int, k: int) -> tuple[float, float, float]:
    """(hit, reciprocal rank, ndcg) for a single relevant item at `rank`."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > k:
        return 0.0, 0.0, 0.0
    return 1.0, 1.0 / rank, 1.0 / math.log2(rank + 1)


def simulate_noisy_testset(
    sequences: list[ItemSequence],
    cfg: NoisySimConfig,
    vocab: Vocabulary,
) -> list[ItemSequence]:
    """Damage every item but the last: keep/delete/insert-before by ratio.

    Insertions draw a uniform random item. If damage removes the whole
    context, the penultimate item is kept so the history is never empty.
    """
    p_keep, p_delete, p_insert = cfg.probabilities()
    out = []
    for seq in sequences:
        rng = rng_for(cfg.seed, seq.user_id, "noisy-sim")
        draws = rng.choice(3, size=max(len(seq) - 1, 0), p=[p_keep, p_delete, p_insert])
        noised: list[int] = []
        for item, d in zip(seq.items[:-1], draws):
            if d == 1:
                continue
            if d == 2:
                noised.append(int(rng.integers(1, vocab.n_items + 1)))
            noised.append(item)
        if not noised and len(seq) >= 2:
            noised = [seq.items[-2]]
        noised.append(seq.items[-1])
        out.append(ItemSequence(seq.user_id, noised))
    return out


def dist(sum_noisy: float, sum_raw: float) -> float:
    """Relative change of the metric total on the simulated test set."""
    if sum_raw <= 0:
        raise ValueError(f"raw total must be positive, got {sum_raw}")
    return (sum_noisy - sum_raw) / sum_raw


def evaluate_model(
    split: SplitDataset,
    vocab: Vocabulary,
    enc: EncoderParams,
    rec: RecommenderParams,
    which: str = "test",
    seed: int = 0,
    n_negatives: int = 99,
    batch_size: int = 256,
    noisy: NoisySimConfig | None = None,
    transform_context=None,
) -> MetricReport:
    """Rank each user's held-out item against sampled negatives.

    which='valid' scores the validation item given the train prefix;
    which='test' scores the test item given prefix + validation item.
    `noisy` damages the (test) histories first; `transform_context` maps
    each scoring chunk's list of non-empty histories to the list that is
    scored (used by augment-at-test evaluation). The target is always in
    candidate column 0. Users whose negative pool is too small are skipped
    and counted.
    """
    if which not in ("valid", "test"):
        raise ValueError(f"split must be 'valid' or 'test', got {which!r}")
    neg_seed = derive_seed(seed, which, "negatives")

    contexts: list[list[int]] = []
    cand_rows: list[list[int]] = []
    targets: list[int] = []
    skipped = 0
    full_seqs = {u.user_id: ItemSequence(u.user_id, u.full()) for u in split.users}
    histories: dict[str, list[int]] = {}
    for u in split.users:
        histories[u.user_id] = list(u.train) if which == "valid" else list(u.train) + [u.valid_target]
    if noisy is not None:
        noisy_in = [
            ItemSequence(u.user_id, histories[u.user_id] + [0]) for u in split.users
        ]
        # the sim keeps the final slot; feed target placeholder, then drop it
        noised = simulate_noisy_testset(noisy_in, noisy, vocab)
        for seq in noised:
            histories[seq.user_id] = seq.items[:-1]

    for u in split.users:
        target = u.valid_target if which == "valid" else u.test_target
        try:
            cands = sample_negatives(full_seqs[u.user_id], vocab, count=n_negatives,
                                     seed=neg_seed, target=target)
        except PoolTooSmallError:
            skipped += 1
            continue
        history = histories[u.user_id]
        if not history:
            history = [u.train[-1]] if u.train else [u.valid_target]
        contexts.append(history)
        cand_rows.append(cands.all_ids())
        targets.append(target)

    per_user: dict[tuple[str, int], list[float]] = {
        (m, k): [] for m in ("hr", "mrr", "ndcg") for k in K_VALUES
    }
    for start in range(0, len(contexts), batch_size):
        chunk = slice(start, start + batch_size)
        ctxs = contexts[chunk]
        if transform_context is not None:
            ctxs = transform_context(ctxs)
        scores = score_candidates(ctxs, np.asarray(cand_rows[chunk]), enc, rec)
        for row, cand, target in zip(scores, cand_rows[chunk], targets[chunk]):
            rank = rank_of_target(row, np.asarray(cand), target)
            for k in K_VALUES:
                hit, rr, nd = user_metrics(rank, k)
                per_user[("hr", k)].append(hit)
                per_user[("mrr", k)].append(rr)
                per_user[("ndcg", k)].append(nd)

    n_users = len(contexts)
    report = MetricReport(n_users=n_users, n_skipped=skipped)
    for k in K_VALUES:
        report.hr[k] = math.fsum(per_user[("hr", k)]) / n_users if n_users else 0.0
        report.mrr[k] = math.fsum(per_user[("mrr", k)]) / n_users if n_users else 0.0
        report.ndcg[k] = math.fsum(per_user[("ndcg", k)]) / n_users if n_users else 0.0
    return report
