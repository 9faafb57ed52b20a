"""Interaction-log ingestion, filtering, splits, negatives, and batching.

Dense id layout: PAD = 0, items occupy 1..n_items; the model adds MASK =
n_items + 1 (encoder.ModelDims.mask_id).
Sequence files are UTF-8 text with a version header line; see
write_sequences/read_sequences for the exact format.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError

log = logging.getLogger(__name__)

PAD_ID = 0
SEQ_FILE_HEADER = "#seqrec-v1"
VOCAB_FILE_HEADER = "#seqrec-vocab-v1"


@dataclass(frozen=True)
class Interaction:
    user_id: str
    item_id: str
    timestamp: int


@dataclass
class Vocabulary:
    """Bijection between raw item tokens and dense ids 1..n_items."""

    token_to_id: dict[str, int]
    id_to_token: list[str]  # index 0 unused (PAD)

    @property
    def n_items(self) -> int:
        return len(self.id_to_token) - 1

    @classmethod
    def from_interactions(cls, interactions: list[Interaction]) -> "Vocabulary":
        tokens = sorted({x.item_id for x in interactions})
        token_to_id = {tok: i + 1 for i, tok in enumerate(tokens)}
        return cls(token_to_id, ["<pad>"] + tokens)


@dataclass
class ItemSequence:
    user_id: str
    items: list[int]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class SplitSequence:
    """One user's leave-one-out split: train prefix + the two held-out items."""

    user_id: str
    train: list[int]
    valid_target: int
    test_target: int

    def full(self) -> list[int]:
        return self.train + [self.valid_target, self.test_target]


@dataclass
class SplitDataset:
    users: list[SplitSequence]

    def __len__(self) -> int:
        return len(self.users)

    def trainable_prefixes(self) -> list[list[int]]:
        """The train prefixes of 2+ items, in split order: rec_loss predicts a
        prefix's last item from the items before it, so it needs two."""
        return [u.train for u in self.users if len(u.train) >= 2]


def parse_interactions(path) -> list[Interaction]:
    """Read whitespace-separated `user item timestamp` triples."""
    out: list[Interaction] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"expected 3 fields, got {len(parts)}: {line!r}", line_no)
            user, item, ts = parts
            try:
                ts_val = int(ts)
            except ValueError:
                raise ParseError(f"timestamp is not an integer: {ts!r}", line_no) from None
            out.append(Interaction(user, item, ts_val))
    return out


def five_core_filter(interactions: list[Interaction]) -> list[Interaction]:
    """Drop users/items with <5 records, repeating until nothing changes."""
    current = list(interactions)
    while True:
        user_counts: dict[str, int] = {}
        item_counts: dict[str, int] = {}
        for x in current:
            user_counts[x.user_id] = user_counts.get(x.user_id, 0) + 1
            item_counts[x.item_id] = item_counts.get(x.item_id, 0) + 1
        kept = [
            x for x in current
            if user_counts[x.user_id] >= 5 and item_counts[x.item_id] >= 5
        ]
        if len(kept) == len(current):
            return kept
        current = kept


def build_sequences(
    interactions: list[Interaction],
    vocab: Vocabulary,
    max_len: int = 50,
) -> list[ItemSequence]:
    """Per-user chronological sequences, keeping the max_len most recent items.

    Equal timestamps keep their input file order (stable sort).
    """
    if max_len < 1:  # items[-0:] would keep the whole history
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    per_user: dict[str, list[tuple[int, int]]] = {}
    for order, x in enumerate(interactions):
        per_user.setdefault(x.user_id, []).append((x.timestamp, order))
    sequences = []
    for user in sorted(per_user):
        entries = sorted(per_user[user], key=lambda e: (e[0], e[1]))
        items = [vocab.token_to_id[interactions[order].item_id] for _, order in entries]
        if len(items) > max_len:
            items = items[-max_len:]
        sequences.append(ItemSequence(user, items))
    return sequences


def leave_one_out_split(sequences: list[ItemSequence]) -> SplitDataset:
    """Last item -> test, second-to-last -> valid, remainder -> train prefix.

    Sequences shorter than 3 cannot be split and are dropped with a warning.
    """
    users = []
    skipped = 0
    for seq in sequences:
        if len(seq) < 3:
            skipped += 1
            continue
        users.append(
            SplitSequence(
                user_id=seq.user_id,
                train=list(seq.items[:-2]),
                valid_target=seq.items[-2],
                test_target=seq.items[-1],
            )
        )
    if skipped:
        log.warning("excluded %d sequences shorter than 3 items from the split", skipped)
    return SplitDataset(users)


def sample_negatives(
    seqs: list[list[int]],
    vocab: Vocabulary,
    count: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` distinct uninteracted items for each sequence of a batch.

    One rng.random((len(seqs), n_items)) call gives every (row, item) pair
    a uniform key; a row's negatives are its `count` lowest-keyed items
    that the sequence never holds, in ascending key order. Negatives thus
    avoid every item the user ever interacted with, and do not depend on
    which of its items is ranked against them. Every row uses up its key
    row, so successive calls on one generator draw as one call on their
    concatenated batch would. Returns the (len(seqs), count) int64 ids and
    a boolean mask of the rows whose free pool holds `count` items; the
    other rows hold PAD.
    """
    n_items = vocab.n_items
    keys = rng.random((len(seqs), n_items))
    lengths = [len(seq) for seq in seqs]
    rows = np.repeat(np.arange(len(seqs)), lengths)
    ids = np.fromiter(itertools.chain.from_iterable(seqs), np.int64, sum(lengths))
    held = (ids >= 1) & (ids <= n_items)
    keys[rows[held], ids[held] - 1] = np.inf
    ok = np.isfinite(keys).sum(axis=1) >= count
    negatives = np.full((len(seqs), count), PAD_ID, dtype=np.int64)
    if ok.any():
        keys = keys[ok]
        lowest = np.argpartition(keys, count - 1, axis=1)[:, :count]
        order = np.argsort(np.take_along_axis(keys, lowest, axis=1), axis=1, kind="stable")
        negatives[ok] = np.take_along_axis(lowest, order, axis=1) + 1
    return negatives, ok


def pad_batch(seqs: list[list[int]]) -> np.ndarray:
    """Left-pad sequences with PAD to a right-aligned (N, T) int64 id matrix."""
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, width - len(s):] = s
    return ids


def length_classes(lengths) -> list[np.ndarray]:
    """Row indices grouped by power-of-two length class, shortest class first.

    A row of length L takes L + 1 slots (a trailing sentinel or STOP step);
    its class is L.bit_length(), so the classes hold 1, 2, 3-4, 5-8, ...
    slots and padding to a class's widest row at most doubles any row.
    Indices keep their input order within a class.
    """
    keys = np.array([int(n).bit_length() for n in lengths], dtype=np.int64)
    if not keys.size:
        return []
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def make_batches(split: SplitDataset, batch_size: int, rng: np.random.Generator):
    """Yield batches (lists of train prefixes) in an order shuffled by rng.

    batch_size must be >= 2 (in-batch contrast needs at least one negative
    pair). Only split.trainable_prefixes() are batched.
    """
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    prefixes = split.trainable_prefixes()
    order = rng.permutation(len(prefixes))
    for start in range(0, len(prefixes), batch_size):
        yield [list(prefixes[i]) for i in order[start:start + batch_size]]


# ---------------------------------------------------------------------------
# Sequence/vocabulary file round trip
# ---------------------------------------------------------------------------


def write_sequences(path, sequences: list[ItemSequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SEQ_FILE_HEADER + "\n")
        for seq in sequences:
            fh.write(f"{seq.user_id}: {' '.join(str(i) for i in seq.items)}\n")


def read_sequences(path) -> list[ItemSequence]:
    """Read a sequence file; each line holds one non-empty, unique user id.

    A line splits at its last ':', so a user id may itself hold ':'.
    """
    out = []
    line_of_user: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != SEQ_FILE_HEADER:
            raise ParseError(f"bad header {first!r}, expected {SEQ_FILE_HEADER!r}", 1)
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if ":" not in line:
                raise ParseError(f"missing ':' separator: {line!r}", line_no)
            user, _, rest = line.rpartition(":")
            user = user.strip()
            if not user:
                raise ParseError(f"empty user id: {line!r}", line_no)
            if user in line_of_user:
                raise ParseError(f"duplicate user {user!r} (first on line "
                                 f"{line_of_user[user]})", line_no)
            line_of_user[user] = line_no
            try:
                items = [int(tok) for tok in rest.split()]
            except ValueError:
                raise ParseError(f"non-integer item id: {rest!r}", line_no) from None
            if not items:
                raise ParseError(f"user {user!r} has no items", line_no)
            out.append(ItemSequence(user, items))
    return out


def write_vocabulary(path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VOCAB_FILE_HEADER + "\n")
        for dense_id in range(1, vocab.n_items + 1):
            fh.write(f"{vocab.id_to_token[dense_id]}\t{dense_id}\n")


def read_vocabulary(path) -> Vocabulary:
    """Read a vocabulary file; tokens and ids must be unique and ids dense 1..n."""
    token_to_id: dict[str, int] = {}
    line_of_id: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != VOCAB_FILE_HEADER:
            raise ParseError(f"bad header {first!r}, expected {VOCAB_FILE_HEADER!r}", 1)
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected 'token<TAB>id': {line!r}", line_no)
            tok, raw_id = parts
            try:
                item_id = int(raw_id)
            except ValueError:
                raise ParseError(f"non-integer item id: {raw_id!r}", line_no) from None
            if tok in token_to_id:
                raise ParseError(f"duplicate token {tok!r}", line_no)
            if item_id in line_of_id:
                raise ParseError(f"duplicate id {item_id} (first on line "
                                 f"{line_of_id[item_id]})", line_no)
            token_to_id[tok] = item_id
            line_of_id[item_id] = line_no
    n = len(token_to_id)
    for item_id, line_no in line_of_id.items():
        if not 1 <= item_id <= n:
            raise ParseError(f"id {item_id} outside 1..{n}: ids must be dense 1..n", line_no)
    id_to_token = ["<pad>"] * (n + 1)
    for tok, i in token_to_id.items():
        id_to_token[i] = tok
    return Vocabulary(token_to_id, id_to_token)


def dataset_stats(sequences: list[ItemSequence], vocab: Vocabulary) -> dict[str, float]:
    """Users / items / records / average length / density summary."""
    n_users = len(sequences)
    n_records = sum(len(s) for s in sequences)
    n_items = vocab.n_items
    return {
        "users": n_users,
        "items": n_items,
        "records": n_records,
        "avg_length": n_records / n_users if n_users else 0.0,
        "density": n_records / (n_users * n_items) if n_users and n_items else 0.0,
    }
