"""Sampled top-K evaluation and the noisy-test-set robustness harness.

Each user's held-out target is ranked against 99 sampled uninteracted
items; HR/MRR/NDCG at K in {5, 10, 20} are averaged over users with
order-independent summation (math.fsum). Each user's negatives come from
a generator keyed by (seed, split, "negatives", user), so a report depends
only on the (config, seed) pair, not on batch or user ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ItemSequence, SplitDataset, Vocabulary, sample_negatives
from .encoder import EncoderParams
from .errors import PoolTooSmallError
from .recommender import RecommenderParams, score_candidates
from .seeding import rng_for

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

    @classmethod
    def from_ranks(cls, ranks: list[int], n_skipped: int = 0) -> "MetricReport":
        """Means over users of HR/MRR/NDCG at each K, from 1-based target ranks.

        math.fsum sums each column exactly before its one division, so the
        report does not depend on user order; no ranks give 0.0 throughout.
        """
        report = cls(n_users=len(ranks), n_skipped=n_skipped)
        for k in K_VALUES:
            per_user = np.array([user_metrics(r, k) for r in ranks]).reshape(-1, 3)
            report.hr[k], report.mrr[k], report.ndcg[k] = (
                math.fsum(col) / len(ranks) if ranks else 0.0 for col in per_user.T
            )
        return report

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

    Each user's scored sequence is its history followed by the target:
    train prefix + validation item for which='valid', the whole split
    sequence for which='test'. `noisy` damages these sequences, which
    keeps their final item, the target. The context is the sequence minus
    its target, and the target is candidate column 0 before the negatives,
    which avoid the user's whole split sequence. `transform_context` maps
    each scoring chunk's list of contexts to the list that is scored (used
    by augment-at-test evaluation). Users whose negative pool is too small
    are skipped and counted.
    """
    if which not in ("valid", "test"):
        raise ValueError(f"split must be 'valid' or 'test', got {which!r}")
    scored = [ItemSequence(u.user_id, u.full()[:-1] if which == "valid" else u.full())
              for u in split.users]
    if noisy is not None:
        scored = simulate_noisy_testset(scored, noisy, vocab)

    contexts: list[list[int]] = []
    cand_rows: list[list[int]] = []
    for u, seq in zip(split.users, scored):
        rng = rng_for(seed, which, "negatives", u.user_id)
        try:
            negatives = sample_negatives(ItemSequence(u.user_id, u.full()), vocab,
                                         n_negatives, rng)
        except PoolTooSmallError:
            continue
        contexts.append(seq.items[:-1])
        cand_rows.append([seq.items[-1]] + negatives)

    ranks: list[int] = []
    for start in range(0, len(contexts), batch_size):
        chunk = slice(start, start + batch_size)
        ctxs = contexts[chunk]
        if transform_context is not None:
            ctxs = transform_context(ctxs)
        cands = np.asarray(cand_rows[chunk])
        scores = score_candidates(ctxs, cands, enc, rec)
        ranks += [rank_of_target(row, ids, ids[0]) for row, ids in zip(scores, cands)]
    return MetricReport.from_ranks(ranks, n_skipped=len(split.users) - len(ranks))
