"""Synthetic interaction logs with known transition structure.

Users walk a Markov chain over items: either a ring (item k is always
followed by item k+1 mod n) or a block chain (with probability
in_block_prob the next item is uniform within the current item's block,
otherwise uniform over the whole catalog). Optional replacement noise
swaps positions for uniform random items; the noised positions go to a
sidecar truth file so denoising behaviour can be measured against ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Interaction
from .seeding import rng_for


@dataclass
class SynthSpec:
    n_items: int = 120
    n_users: int = 2000
    structure: str = "ring"  # "ring" | "block"
    n_blocks: int = 12
    in_block_prob: float = 0.9
    min_len: int = 8
    max_len: int = 18
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_items < 120:
            raise ValueError("need >= 120 items so 99-negative sampling stays feasible")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.structure not in ("ring", "block"):
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if not 0.0 <= self.in_block_prob <= 1.0:  # NaN fails too
            raise ValueError(f"in_block_prob must be in [0, 1], got {self.in_block_prob}")
        if self.structure == "block" and self.n_items % self.n_blocks != 0:
            raise ValueError("n_items must divide evenly into n_blocks")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate must be in [0,1), got {self.noise_rate}")
        if not 2 <= self.min_len <= self.max_len:
            raise ValueError("need 2 <= min_len <= max_len")


def item_token(k: int) -> str:
    return f"i{k:05d}"


def user_token(u: int) -> str:
    return f"u{u:05d}"


def generate(spec: SynthSpec) -> tuple[list[Interaction], list[tuple[str, int]]]:
    """Build interactions plus (user, position) pairs of the noised slots."""
    interactions: list[Interaction] = []
    truth: list[tuple[str, int]] = []
    block_size = spec.n_items // spec.n_blocks
    for u in range(spec.n_users):
        user = user_token(u)
        rng = rng_for(spec.seed, user, "walk")
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        cur = int(rng.integers(0, spec.n_items))
        walk = [cur]
        for _ in range(length - 1):
            if spec.structure == "ring":
                cur = (cur + 1) % spec.n_items
            else:
                if rng.random() < spec.in_block_prob:
                    block = cur // block_size
                    cur = int(block * block_size + rng.integers(0, block_size))
                else:
                    cur = int(rng.integers(0, spec.n_items))
            walk.append(cur)
        noise_rng = rng_for(spec.seed, user, "noise")
        for pos in range(length):
            if spec.noise_rate > 0 and noise_rng.random() < spec.noise_rate:
                walk[pos] = int(noise_rng.integers(0, spec.n_items))
                truth.append((user, pos))
        for pos, item in enumerate(walk):
            interactions.append(Interaction(user, item_token(item), pos + 1))
    return interactions, truth


def write_interactions(path, interactions: list[Interaction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x in interactions:
            fh.write(f"{x.user_id}\t{x.item_id}\t{x.timestamp}\n")


def write_truth(path, truth: list[tuple[str, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for user, pos in truth:
            fh.write(f"{user} {pos}\n")
