"""Config file parsing and the binary checkpoint round trip."""

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from seqrec import checkpoint as ckpt
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


def test_stored_precision_line_loads_only_at_float64():
    # every checkpoint written while `precision` was a config key carries it
    text, _, _, _ = load_checkpoint(FIXTURE)
    assert "precision = float64" in text.splitlines()
    lines = config_to_lines(RunConfig(alpha=0.3)) + ["precision = float64"]
    assert parse_config_lines(lines) == RunConfig(alpha=0.3)
    assert not hasattr(RunConfig(), "precision")
    with pytest.raises(ConfigError, match="precision is fixed at float64"):
        parse_config_lines(["precision = float32"])


def test_stored_testaug_mode_loads_as_full():
    # testaug trained exactly as full; test-time augmentation is `evaluate --testaug`
    assert parse_config_lines(["mode = testaug"]).mode == "full"
    with pytest.raises(ConfigError):
        RunConfig(mode="testaug")


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        parse_config_lines(["mode = fancy"])


def test_probability_sum_validated():
    with pytest.raises(ConfigError):
        parse_config_lines(["p_keep = 0.9"])


@pytest.mark.parametrize("lines, message", [
    (["p_keep = nan"], "p_keep must be in [0,1], got nan"),
    (["p_delete = nan", "p_keep = 0.9"], "p_delete must be in [0,1], got nan"),
    (["p_keep = 0.6", "p_insert = -0.1"], "p_insert must be in [0,1], got -0.1"),
    (["p_keep = 1.2", "p_delete = -0.3"], "p_keep must be in [0,1], got 1.2"),
])
def test_corruption_probabilities_refused_at_load(lines, message):
    # a NaN sum compares False against any tolerance, and a negative p can sum to 1
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_lines(lines)


@pytest.mark.parametrize("line, message", [
    ("gamma = 0", "gamma must be in (0,1), got 0.0"),
    ("eta = 1.5", "eta must be in (0,1], got 1.5"),
    ("n_heads = 3", "embed_dim 64 not divisible by n_heads 3"),
    ("n_heads = 0", "embed_dim 64 not divisible by n_heads 0"),
])
def test_contrast_ratios_and_heads_refused_at_load(line, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_lines([line])


@pytest.mark.parametrize("line, message", [
    ("alpha = nan", "alpha must be finite and >= 0, got nan"),
    ("lr = inf", "lr must be finite and > 0, got inf"),
    ("lr = 0", "lr must be finite and > 0, got 0.0"),
    ("beta = -1", "beta must be finite and >= 0, got -1.0"),
    ("embed_dim = 0", "embed_dim must be finite and >= 1, got 0"),
    ("n_layers = 0", "n_layers must be finite and >= 1, got 0"),
    ("epochs_augmenter = -3", "epochs_augmenter must be finite and >= 0, got -3"),
    ("n_negatives = 0", "n_negatives must be finite and >= 1, got 0"),
    ("max_aug_len = 1", "max_aug_len must be finite and >= 2, got 1"),
    ("max_len = 0", "max_len must be finite and >= 1, got 0"),
])
def test_out_of_range_values_refused_at_load(line, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_lines([line])


def test_patience_below_one_refused_at_load():
    # patience = 0 would stop every run after its first epoch, improving or not
    with pytest.raises(ConfigError, match=re.escape("patience must be finite and >= 1, got 0")):
        parse_config_lines(["patience = 0"])
    assert parse_config_lines(["patience = 1"]).patience == 1


@pytest.mark.parametrize("lines, message", [
    (["lr = abc"], "config line 1: lr must be float, got 'abc'"),
    (["seed = 3", "", "batch_size = 2.5"], "config line 3: batch_size must be int, got '2.5'"),
    (["mode = base", "seed = x7  # comment"], "config line 2: seed must be int, got 'x7'"),
])
def test_malformed_value_names_its_line_and_key(lines, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_lines(lines)


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


def _saved_v2(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "seed = 1\n", {"w": np.arange(6.0).reshape(2, 3)},
                    opt_step=3, opt_arrays={"m.w": np.ones((2, 3))})
    return path


def test_v2_trailer_is_the_crc_of_everything_before_it(tmp_path):
    raw = _saved_v2(tmp_path).read_bytes()
    assert raw.startswith(b"SEQRECKPT2\n")
    assert int.from_bytes(raw[-4:], "little") == zlib.crc32(raw[:-4])


@pytest.mark.parametrize("where", ["config", "array", "last"])
def test_flipped_payload_byte_rejected(tmp_path, where):
    path = _saved_v2(tmp_path)
    raw = bytearray(path.read_bytes())
    offset = {"config": len(ckpt.MAGIC) + 4, "array": raw.index(b"w") + 20,
              "last": len(raw) - 5}[where]
    raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC mismatch"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [1, 4, 5])
def test_cut_off_trailer_rejected(tmp_path, cut):
    path = _saved_v2(tmp_path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_bytes_after_the_trailer_rejected(tmp_path):
    path = _saved_v2(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="CRC mismatch"):
        load_checkpoint(path)


def test_v1_file_still_loads_array_for_array(tmp_path):
    # the pinned fixture is version 1; its v2 re-save, and that re-save
    # turned back into v1 (magic swapped, trailer dropped), load the same
    assert FIXTURE.read_bytes().startswith(ckpt.MAGIC_V1)
    text, params, _, _ = load_checkpoint(FIXTURE)
    v2 = tmp_path / "v2.ckpt"
    save_checkpoint(v2, text, params, opt_step=7, opt_arrays={"m.x": np.full(4, 0.5)})
    v1 = tmp_path / "v1.ckpt"
    v1.write_bytes(ckpt.MAGIC_V1 + v2.read_bytes()[len(ckpt.MAGIC):-4])
    for path in (v2, v1):
        text_b, params_b, step_b, opt_b = load_checkpoint(path)
        assert text_b == text and step_b == 7
        assert list(params_b) == list(params)
        for name, arr in params.items():
            assert params_b[name].dtype == arr.dtype
            np.testing.assert_array_equal(params_b[name], arr)
        np.testing.assert_array_equal(opt_b["m.x"], np.full(4, 0.5))


@pytest.mark.parametrize("where", ["config", "array name"])
def test_v1_invalid_utf8_rejected(tmp_path, where):
    # a v1 file has no CRC, so a bad text byte must fail in the parser
    path = _saved_v2(tmp_path)
    raw = bytearray(ckpt.MAGIC_V1 + path.read_bytes()[len(ckpt.MAGIC):-4])
    raw[{"config": len(ckpt.MAGIC_V1) + 4, "array name": raw.index(b"w")}[where]] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"{where}.* not valid UTF-8"):
        load_checkpoint(path)


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "augmenter-last.ckpt"
    save_checkpoint(path, "seed = 1\n", {"a": np.zeros(3), "b": np.ones((2, 2))},
                    opt_step=1, opt_arrays={"m.a": np.zeros(3)})
    before = path.read_bytes()
    write_array = ckpt._write_array
    calls = []

    def failing_write(fh, name, arr):
        calls.append(name)
        if len(calls) == 2:  # the first array is already written
            raise OSError("disk full")
        write_array(fh, name, arr)

    monkeypatch.setattr(ckpt, "_write_array", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, "seed = 2\n", {"a": np.full(3, 7.0), "b": np.zeros((2, 2))},
                        opt_step=2, opt_arrays={"m.a": np.ones(3)})
    assert calls == ["a", "b"]
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["augmenter-last.ckpt"]


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "x.ckpt", "", {"w": np.zeros(3, dtype=np.int32)})
    assert list(tmp_path.iterdir()) == []
