"""Sampled top-K evaluation and the noisy-test-set robustness harness.

Each user's held-out target is ranked against 99 sampled uninteracted
items; HR/MRR/NDCG at K in {5, 10, 20} are averaged over users with
order-independent summation (math.fsum). An evaluation pass keys one
generator (seed, split, "negatives") and draws every user's negatives
from it with users in sorted user-id order. The --noisy simulation damages
the contexts with augops.corrupt_sequence, the damage rule restoration
trains on, from one generator (seed, "noisy-sim") keyed the same way. A
report therefore depends only on the (config, seed) pair and the set of
users in the split, not on user order or batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .augops import CorruptionConfig, corrupt_sequence
from .data import ItemSequence, SplitDataset, Vocabulary, sample_negatives
from .encoder import EncoderParams
from .errors import ConfigError
from .recommender import RecommenderParams, score_candidates
from .seeding import rng_for

K_VALUES = (5, 10, 20)


@dataclass
class NoisySimConfig:
    """keep:delete:insert ratio applied to test histories (final item kept)."""

    ratio: tuple[float, float, float] = (4.0, 3.0, 3.0)
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(r) and r >= 0 for r in self.ratio) or sum(self.ratio) <= 0:
            raise ConfigError("--noisy-ratio/--ratio parts must be finite and >= 0 with a "
                              f"positive sum, got {self.ratio}")

    def probabilities(self) -> tuple[float, float, float]:
        total = sum(self.ratio)
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


def rank_of_target(scores: np.ndarray, candidate_ids: np.ndarray) -> np.ndarray:
    """1-based rank of each row's column-0 candidate, by descending score.

    scores and candidate_ids are (N, C); ties go to the smaller id.
    """
    scores = np.asarray(scores, dtype=float)
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    target = scores[:, :1]
    better = (scores > target).sum(axis=1)
    tied_before = ((scores == target) & (candidate_ids < candidate_ids[:, :1])).sum(axis=1)
    return better + tied_before + 1


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

    The contexts (every item but the last) of the sequences of 2+ items, in
    sorted user-id order, are one corrupt_sequence batch with single-item
    inserts, drawn from one generator keyed (cfg.seed, "noisy-sim"); each
    damaged context gets its final item back. A context damaged down to
    nothing keeps its last item, so the history is never empty. Returns
    the sequences in input order.
    """
    ccfg = CorruptionConfig(*cfg.probabilities(), max_insert_run=1, n_items=vocab.n_items)
    order = sorted((i for i, seq in enumerate(sequences) if len(seq) >= 2),
                   key=lambda i: sequences[i].user_id)
    records = corrupt_sequence([sequences[i].items[:-1] for i in order], ccfg,
                               rng_for(cfg.seed, "noisy-sim"))
    out = list(sequences)
    for i, record in zip(order, records):
        out[i] = ItemSequence(sequences[i].user_id, record.s_mod + sequences[i].items[-1:])
    return out


def dist(sum_noisy: float, sum_raw: float) -> float:
    """Relative change of the metric total on the simulated test set."""
    if sum_raw <= 0:
        raise ValueError(f"raw total must be positive, got {sum_raw}")
    return (sum_noisy - sum_raw) / sum_raw


def check_negative_count(n_negatives: int, n_items: int) -> None:
    """Refuse a negative count no user can fill: a user's free pool holds at
    most n_items - 1 items, so every user would be skipped."""
    if n_negatives >= n_items:
        raise ConfigError(f"n_negatives {n_negatives} must be below the catalog's {n_items} "
                          f"items: no user could be ranked")


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
    which avoid the user's whole split sequence. Users are taken in sorted
    user-id order, in chunks of `batch_size`; each chunk draws its
    negatives from the pass's one generator, and its scores are ranked in
    one array pass. `transform_context` maps each scoring chunk's list of
    contexts to the list that is scored (used by augment-at-test
    evaluation). Users whose negative pool is too small are skipped and
    counted; a count no user can fill is refused (check_negative_count).
    """
    if which not in ("valid", "test"):
        raise ValueError(f"split must be 'valid' or 'test', got {which!r}")
    check_negative_count(n_negatives, vocab.n_items)
    users = sorted(split.users, key=lambda u: u.user_id)
    scored = [ItemSequence(u.user_id, u.full()[:-1] if which == "valid" else u.full())
              for u in users]
    if noisy is not None:
        scored = simulate_noisy_testset(scored, noisy, vocab)

    rng = rng_for(seed, which, "negatives")
    ranks: list[int] = []
    for start in range(0, len(users), batch_size):
        chunk = slice(start, start + batch_size)
        negatives, ok = sample_negatives([u.full() for u in users[chunk]], vocab,
                                         n_negatives, rng)
        kept = [seq.items for seq, keep in zip(scored[chunk], ok) if keep]
        if not kept:
            continue
        ctxs = [items[:-1] for items in kept]
        if transform_context is not None:
            ctxs = transform_context(ctxs)
        cands = np.column_stack([[items[-1] for items in kept], negatives[ok]])
        ranks += rank_of_target(score_candidates(ctxs, cands, enc, rec), cands).tolist()
    return MetricReport.from_ranks(ranks, n_skipped=len(users) - len(ranks))
