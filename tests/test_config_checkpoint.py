"""Config file parsing and the binary checkpoint round trip."""

from pathlib import Path

import numpy as np
import pytest

from seqrec.checkpoint import load_checkpoint, save_checkpoint
from seqrec.config import (
    RunConfig,
    config_to_lines,
    load_config,
    parse_config_lines,
    read_meta,
)
from seqrec.errors import CheckpointError, ConfigError

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "ring120-full.ckpt"


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_defaults_match_documented_values():
    cfg = RunConfig()
    assert cfg.embed_dim == 64
    assert cfg.n_layers == 1
    assert cfg.n_heads == 1
    assert cfg.dropout == 0.5
    assert cfg.max_len == 50
    assert cfg.max_aug_len == 60
    assert cfg.max_insert == 5
    assert cfg.lr == 0.001
    assert cfg.alpha == 0.1
    assert cfg.beta == 0.005
    assert (cfg.p_keep, cfg.p_delete, cfg.p_insert) == (0.4, 0.5, 0.1)
    assert cfg.n_negatives == 99
    assert not hasattr(cfg, "ks")  # evaluation always reports K_VALUES


def test_parse_overrides_and_comments():
    cfg = parse_config_lines([
        "# a comment",
        "alpha = 0.2",
        "batch_size = 16  # inline comment",
        "mode = base",
        "",
    ])
    assert cfg.alpha == 0.2
    assert cfg.batch_size == 16
    assert cfg.mode == "base"


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_lines(["alhpa = 0.2"])


def test_stored_ks_line_still_loads():
    # checkpoints written while `ks` was a config key carry this line
    lines = config_to_lines(RunConfig(alpha=0.3)) + ["ks = 5,10,20"]
    assert parse_config_lines(lines) == RunConfig(alpha=0.3)
    text, _, _, _ = load_checkpoint(FIXTURE)
    assert "ks = 5,10,20" in text.splitlines()
    assert parse_config_lines(text.splitlines()).mode == "full"


@pytest.mark.parametrize("raw", ["1,2", "5,10", "5,10,20,50", "ten"])
def test_other_ks_values_name_the_fixed_k(raw):
    with pytest.raises(ConfigError, match="ks is fixed at 5,10,20"):
        parse_config_lines([f"ks = {raw}"])


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        parse_config_lines(["mode = fancy"])


def test_probability_sum_validated():
    with pytest.raises(ConfigError):
        parse_config_lines(["p_keep = 0.9"])


def test_round_trip_through_lines():
    cfg = RunConfig(alpha=0.3, seed=17, mode="wo_tri")
    lines = config_to_lines(cfg, meta={"n_items": 55, "epoch": 3})
    again = parse_config_lines(lines)
    assert again == cfg
    meta = read_meta(lines)
    assert meta["n_items"] == "55"
    assert meta["epoch"] == "3"


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 9\nlr = 0.01\n")
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.lr == 0.01


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "enc.item_emb": rng.standard_normal((7, 4)),
        "rec.blocks.0.Wq": rng.standard_normal((4, 4)),
        "aug.stop_emb": rng.standard_normal((1, 4)).astype(np.float32),
    }
    opt = {"m.enc.item_emb": rng.standard_normal((7, 4))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "seed = 1\n_n_items = 5\n", params, opt_step=12, opt_arrays=opt)
    text, loaded, step, opt_loaded = load_checkpoint(path)
    assert text == "seed = 1\n_n_items = 5\n"
    assert step == 12
    for name, arr in params.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)
    np.testing.assert_array_equal(opt_loaded["m.enc.item_emb"], opt["m.enc.item_emb"])


def test_checkpoint_without_optimizer(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "seed = 1\n", {"w": np.zeros((2, 2))})
    _, params, step, opt = load_checkpoint(path)
    assert step is None and opt is None
    assert params["w"].shape == (2, 2)


def test_corrupted_header_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "seed = 1\n", {"w": np.zeros(3)})
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "seed = 1\n", {"w": np.zeros((100, 100))})
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "x.ckpt", "", {"w": np.zeros(3, dtype=np.int32)})
