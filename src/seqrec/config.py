"""Run configuration: defaults, flat key=value config files, validation."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError
from .evaluate import K_VALUES

MODES = ("full", "base", "wo_tri", "duoaug", "testaug", "cotrain")


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
    precision: str = "float64"
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

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32/float64, got {self.precision!r}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        total = self.p_keep + self.p_delete + self.p_insert
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"p_keep+p_delete+p_insert must be 1, got {total}")
        if self.max_insert < 1 or self.max_insert > 5:
            raise ConfigError(f"max_insert must be in 1..5, got {self.max_insert}")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(name: str, raw: str):
    field = _FIELDS[name]
    raw = raw.strip()
    if field.type in ("int",):
        return int(raw)
    if field.type in ("float",):
        return float(raw)
    if field.type in ("str",):
        return raw
    raise ConfigError(f"cannot parse config key {name!r}")


def _check_ks(raw: str, line_no: int) -> None:
    """Accept the `ks` line older checkpoints carry only at its fixed value."""
    parts = raw.replace(",", " ").split()
    if not all(p.isdigit() for p in parts) or tuple(map(int, parts)) != K_VALUES:
        fixed = ",".join(str(k) for k in K_VALUES)
        raise ConfigError(f"config line {line_no}: ks is fixed at {fixed}, "
                          f"got {raw.strip()!r}")


def parse_config_lines(lines, base: RunConfig | None = None) -> RunConfig:
    """Apply `key = value` lines over defaults; unknown keys are an error.

    Lines starting with '#' (and inline '# ...' suffixes) are comments.
    Keys starting with '_' are checkpoint metadata and are ignored here.
    """
    values = dataclasses.asdict(base) if base else {}
    cfg = RunConfig(**values) if values else RunConfig()
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key.startswith("_"):
            continue
        if key == "ks":
            _check_ks(raw, line_no)
            continue
        if key not in _FIELDS:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    cfg.validate()
    return cfg


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh.read().splitlines(), base=base)


def config_to_lines(cfg: RunConfig, meta: dict | None = None) -> list[str]:
    """Serialize a config (plus optional _meta keys) as key = value lines."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    for key, value in (meta or {}).items():
        lines.append(f"_{key} = {value}")
    return lines


def read_meta(lines) -> dict[str, str]:
    """Extract _meta keys from serialized config lines."""
    meta = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line.startswith("_") and "=" in line:
            key, _, raw = line.partition("=")
            meta[key.strip()[1:]] = raw.strip()
    return meta
