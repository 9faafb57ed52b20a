"""Run configuration: defaults, flat key=value config files, validation."""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass

from .augops import AugConfig, CorruptionConfig
from .encoder import ModelDims
from .errors import ConfigError
from .evaluate import K_VALUES


@dataclass(frozen=True)
class ModePolicy:
    """What a phase-2 run contrasts and trains.

    views: the source of each contrast view, in draw order: "greedy" (the
    augmenter's argmax output), "sampled" (its output sampled from the batch
    generator) or "random" (a random mask/crop/reorder). triplet: whether
    the triplet term applies. trains_augmenter: whether phase 2 also trains
    the augmenter, on the restoration loss.
    """

    views: tuple[str, str]
    triplet: bool
    trains_augmenter: bool

    @property
    def needs_augmenter(self) -> bool:
        return self.trains_augmenter or self.views != ("random", "random")

    @property
    def needs_phase1_augmenter(self) -> bool:
        return self.needs_augmenter and not self.trains_augmenter


# The training modes, in --mode order: the paper's model, then its ablations
# (random views as in CL4SRec, no triplet term, two sampled views, all three
# components trained together).
MODES = {
    "full": ModePolicy(("greedy", "random"), triplet=True, trains_augmenter=False),
    "base": ModePolicy(("random", "random"), triplet=True, trains_augmenter=False),
    "wo_tri": ModePolicy(("greedy", "random"), triplet=False, trains_augmenter=False),
    "duoaug": ModePolicy(("sampled", "sampled"), triplet=True, trains_augmenter=False),
    "cotrain": ModePolicy(("greedy", "random"), triplet=True, trains_augmenter=True),
}

# lower bounds checked when a config loads; batch_size >= 2 leaves every
# in-batch contrast a negative pair, max_aug_len >= 2 a context and a slot
_AT_LEAST = {
    "embed_dim": 1, "n_layers": 1, "max_len": 1, "max_aug_len": 2, "batch_size": 2,
    "epochs_augmenter": 0, "epochs_recommender": 0, "patience": 1,
    "alpha": 0, "beta": 0, "n_negatives": 1,
}


@dataclass
class RunConfig:
    # paths
    interactions: str = ""
    processed_dir: str = ""
    out_dir: str = "runs"
    # model
    embed_dim: int = 64
    n_layers: int = 1
    n_heads: int = 1
    dropout: float = 0.5
    max_len: int = 50
    max_aug_len: int = 60
    max_insert: int = 5
    # optimization
    lr: float = 0.001
    batch_size: int = 256
    epochs_augmenter: int = 200
    epochs_recommender: int = 200
    patience: int = 20
    # loss weights and corruption probabilities
    alpha: float = 0.1
    beta: float = 0.005
    p_keep: float = 0.4
    p_delete: float = 0.5
    p_insert: float = 0.1
    # random-augmentation ratios
    gamma: float = 0.5
    eta: float = 0.6
    beta_r: float = 0.5
    # run
    seed: int = 0
    mode: str = "full"
    n_negatives: int = 99

    def __post_init__(self):
        self.validate()

    @property
    def policy(self) -> ModePolicy:
        """What this run's mode contrasts and trains (MODES)."""
        try:
            return MODES[self.mode]
        except KeyError:
            raise ConfigError(f"mode must be one of {tuple(MODES)}, "
                              f"got {self.mode!r}") from None

    def validate(self) -> None:
        self.policy  # refuses an unknown mode
        for key, f in _FIELDS.items():  # what a `key = value` line cannot carry back
            value = getattr(self, key)
            if f.type == "str" and ("#" in value or value != value.strip()
                                    or len(value.splitlines()) > 1):
                raise ConfigError(f"{key} must hold no '#', line break or leading or "
                                  f"trailing whitespace, got {value!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        for key, low in _AT_LEAST.items():
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= low):
                raise ConfigError(f"{key} must be finite and >= {low}, got {value}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.max_insert < 1 or self.max_insert > 5:
            raise ConfigError(f"max_insert must be in 1..5, got {self.max_insert}")
        try:  # the corruption and contrast ratios and the head split, before any training
            CorruptionConfig(self.p_keep, self.p_delete, self.p_insert, n_items=1)
            AugConfig(self.gamma, self.eta, self.beta_r)
            ModelDims(0, embed_dim=self.embed_dim, n_heads=self.n_heads)
        except ValueError as err:
            raise ConfigError(str(err)) from None


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(name: str, raw: str, line_no: int):
    kind = _FIELDS[name].type
    raw = raw.strip()
    if kind == "str":
        return raw
    try:
        return {"int": int, "float": float}[kind](raw)
    except ValueError:
        raise ConfigError(f"config line {line_no}: {name} must be {kind}, "
                          f"got {raw!r}") from None


def _check_retired(key: str, raw: str, line_no: int) -> None:
    """Accept a retired key's line, as older checkpoints carry it, only at its fixed value."""
    if key == "ks":
        parts = raw.replace(",", " ").split()
        ok = all(p.isdigit() for p in parts) and tuple(map(int, parts)) == K_VALUES
        fixed = ",".join(str(k) for k in K_VALUES)
    else:  # precision: tensors are always float64
        ok, fixed = raw.strip() == "float64", "float64"
    if not ok:
        raise ConfigError(f"config line {line_no}: {key} is fixed at {fixed}, "
                          f"got {raw.strip()!r}")


def _line_body(line: str, line_no: int) -> str:
    """A config line without its comment and outer whitespace.

    A '#' at the start of the line or after whitespace starts a comment; a
    '#' inside a value is refused, not cut off (`out_dir = runs/#a`).
    """
    comment = re.search(r"(?:^|\s)#", line)
    body = line[:comment.start()] if comment else line
    if "#" in body:
        raise ConfigError(f"config line {line_no}: a '#' inside a value, got {line.strip()!r}; "
                          f"a comment starts with '#' after whitespace")
    return body.strip()


def parse_config_lines(lines) -> RunConfig:
    """Apply `key = value` lines over defaults; unknown keys are an error.

    Comments follow _line_body. Keys starting with '_' are checkpoint
    metadata and are ignored here.
    """
    cfg = RunConfig()
    for line_no, line in enumerate(lines, start=1):
        line = _line_body(line, line_no)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key.startswith("_"):
            continue
        if key in ("ks", "precision"):
            _check_retired(key, raw, line_no)
            continue
        if key not in _FIELDS:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw, line_no))
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh.read().splitlines())


def config_to_lines(cfg: RunConfig, meta: dict | None = None) -> list[str]:
    """Serialize a config (plus optional _meta keys) as key = value lines."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    for key, value in (meta or {}).items():
        lines.append(f"_{key} = {value}")
    return lines


def read_meta(lines) -> dict[str, str]:
    """Extract _meta keys from serialized config lines (comments as in _line_body)."""
    meta = {}
    for line_no, line in enumerate(lines, start=1):
        line = _line_body(line, line_no)
        if line.startswith("_") and "=" in line:
            key, _, raw = line.partition("=")
            meta[key.strip()[1:]] = raw.strip()
    return meta
