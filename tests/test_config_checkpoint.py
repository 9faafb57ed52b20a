"""Config file parsing and the binary checkpoint round trip."""

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from seqrec import autograd as ag
from seqrec import checkpoint as ckpt
from seqrec.checkpoint import load_checkpoint, save_checkpoint
from seqrec.cli import build_parser
from seqrec.config import (
    MODES,
    RunConfig,
    config_to_lines,
    load_config,
    parse_config_lines,
    read_meta,
)
from seqrec.encoder import ModelDims
from seqrec.errors import CheckpointError, ConfigError
from seqrec.trainer import build_model, model_arrays, model_from_arrays

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


def test_stored_testaug_mode_is_refused():
    # testaug is no mode; test-time augmentation is `evaluate --testaug`
    with pytest.raises(ConfigError, match="mode must be one of .* got 'testaug'"):
        parse_config_lines(["mode = testaug"])
    with pytest.raises(ConfigError):
        RunConfig(mode="testaug")


def test_mode_table_gives_the_modes_and_which_need_an_augmenter():
    modes = ("full", "base", "wo_tri", "duoaug", "cotrain")
    assert tuple(MODES) == modes
    assert [m for m, p in MODES.items() if p.needs_augmenter] == [
        "full", "wo_tri", "duoaug", "cotrain"]
    assert [m for m, p in MODES.items() if p.needs_phase1_augmenter] == [
        "full", "wo_tri", "duoaug"]
    for command in ("train-recommender", "sweep"):
        for mode in modes:
            assert build_parser().parse_args([command, "--mode", mode]).mode == mode
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--mode", "testaug"])


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


@pytest.mark.parametrize("value", ["runs/a b", "data/a=b", "C:\\data\\run 1", "runs/ä"])
def test_accepted_paths_survive_the_lines(value):
    cfg = RunConfig(interactions=value, processed_dir=value, out_dir=value)
    assert parse_config_lines(config_to_lines(cfg)) == cfg


@pytest.mark.parametrize("key", ["interactions", "processed_dir", "out_dir"])
@pytest.mark.parametrize("value", ["runs/#a", "data/a#b", "a\nb", "a\rb", " a", "a ", "a\t"])
def test_paths_a_config_line_cannot_carry_are_refused(key, value):
    # a '#' inside a value is refused when the line is read back, and the
    # reader splits lines and strips values
    with pytest.raises(ConfigError, match=f"^{key} must hold no '#'"):
        RunConfig(**{key: value})


def test_a_comment_starts_at_a_hash_after_whitespace():
    assert parse_config_lines(["# seed = 4", "  # note", "seed = 3  # note"]).seed == 3
    assert read_meta(["_phase = aug\t# note", "seed = 3"]) == {"phase": "aug"}


@pytest.mark.parametrize("read, lines, bad", [
    (parse_config_lines, ["out_dir = runs/#a"], 1),
    (parse_config_lines, ["seed = 3", "processed_dir = data/a#b"], 2),
    (read_meta, ["_phase = aug#x"], 1),
])
def test_a_hash_inside_a_value_is_refused_not_cut(read, lines, bad):
    with pytest.raises(ConfigError, match=re.escape(f"config line {bad}: a '#' inside a value, "
                                                    f"got {lines[bad - 1]!r}")):
        read(lines)


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


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("table", ["params", "optimizer"])
def test_repeated_array_name_rejected(tmp_path, version, table):
    # a writer that emitted one name twice; dict() would keep the last copy
    path = tmp_path / "model.ckpt"
    arrays = {"wa": np.zeros(3), "wb": np.ones(3)}
    save_checkpoint(path, "seed = 1\n", arrays if table == "params" else {"w": np.zeros(2)},
                    opt_step=1, opt_arrays=arrays if table == "optimizer" else {})
    payload = path.read_bytes()[len(ckpt.MAGIC):-4].replace(b"wb", b"wa")
    if version == 1:
        raw = ckpt.MAGIC_V1 + payload
    else:
        raw = ckpt.MAGIC + payload
        raw += zlib.crc32(raw).to_bytes(4, "little")
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="array 'wa' appears twice"):
        load_checkpoint(path)


def _tiny_model_arrays():
    dims = ModelDims(n_items=6, embed_dim=4, dropout=0.0, max_aug_len=8)
    return dims, model_arrays(build_model(dims, seed=0, with_aug=False))


def test_model_from_arrays_rejects_arrays_the_model_lacks():
    dims, arrays = _tiny_model_arrays()
    assert model_from_arrays(dims, arrays).aug is None
    arrays["enc.blocks.1.Wq"] = np.zeros((4, 4))  # a second layer the config lacks
    with pytest.raises(CheckpointError, match="'enc.blocks.1.Wq' is not a parameter"):
        model_from_arrays(dims, arrays)


def test_load_values_reports_a_missing_or_misshapen_parameter():
    dims, arrays = _tiny_model_arrays()
    model = build_model(dims, seed=1, with_aug=False)
    before = model_arrays(model)
    for name, value in (("enc.pos_emb", None), ("rec.blocks.0.b1", np.zeros(3))):
        bad = dict(arrays)
        if value is None:
            del bad[name]
        else:
            bad[name] = value
        with pytest.raises(CheckpointError, match=repr(name)):
            model.load_values(bad)
        for key, arr in model_arrays(model).items():  # nothing half-loaded
            np.testing.assert_array_equal(arr, before[key])


# The checkpoint contract: a model's arrays are saved and loaded by these
# names, and saved in this order.
TWO_LAYER_NAMES = [
    "enc.item_emb", "enc.pos_emb",
    "enc.blocks.0.Wq", "enc.blocks.0.Wk", "enc.blocks.0.Wv", "enc.blocks.0.Wo",
    "enc.blocks.0.ln1_g", "enc.blocks.0.ln1_b", "enc.blocks.0.W1", "enc.blocks.0.b1",
    "enc.blocks.0.W2", "enc.blocks.0.b2", "enc.blocks.0.ln2_g", "enc.blocks.0.ln2_b",
    "enc.blocks.1.Wq", "enc.blocks.1.Wk", "enc.blocks.1.Wv", "enc.blocks.1.Wo",
    "enc.blocks.1.ln1_g", "enc.blocks.1.ln1_b", "enc.blocks.1.W1", "enc.blocks.1.b1",
    "enc.blocks.1.W2", "enc.blocks.1.b2", "enc.blocks.1.ln2_g", "enc.blocks.1.ln2_b",
    "aug.op_proj", "aug.gen_pos", "aug.stop_emb",
    "aug.gen_blocks.0.Wq", "aug.gen_blocks.0.Wk", "aug.gen_blocks.0.Wv",
    "aug.gen_blocks.0.Wo", "aug.gen_blocks.0.ln1_g", "aug.gen_blocks.0.ln1_b",
    "aug.gen_blocks.0.W1", "aug.gen_blocks.0.b1", "aug.gen_blocks.0.W2",
    "aug.gen_blocks.0.b2", "aug.gen_blocks.0.ln2_g", "aug.gen_blocks.0.ln2_b",
    "aug.gen_blocks.1.Wq", "aug.gen_blocks.1.Wk", "aug.gen_blocks.1.Wv",
    "aug.gen_blocks.1.Wo", "aug.gen_blocks.1.ln1_g", "aug.gen_blocks.1.ln1_b",
    "aug.gen_blocks.1.W1", "aug.gen_blocks.1.b1", "aug.gen_blocks.1.W2",
    "aug.gen_blocks.1.b2", "aug.gen_blocks.1.ln2_g", "aug.gen_blocks.1.ln2_b",
    "rec.blocks.0.Wq", "rec.blocks.0.Wk", "rec.blocks.0.Wv", "rec.blocks.0.Wo",
    "rec.blocks.0.ln1_g", "rec.blocks.0.ln1_b", "rec.blocks.0.W1", "rec.blocks.0.b1",
    "rec.blocks.0.W2", "rec.blocks.0.b2", "rec.blocks.0.ln2_g", "rec.blocks.0.ln2_b",
    "rec.blocks.1.Wq", "rec.blocks.1.Wk", "rec.blocks.1.Wv", "rec.blocks.1.Wo",
    "rec.blocks.1.ln1_g", "rec.blocks.1.ln1_b", "rec.blocks.1.W1", "rec.blocks.1.b1",
    "rec.blocks.1.W2", "rec.blocks.1.b2", "rec.blocks.1.ln2_g", "rec.blocks.1.ln2_b",
]
TWO_LAYER_DIMS = ModelDims(n_items=30, embed_dim=8, n_layers=2, n_heads=2)


def test_parameter_names_and_order_are_pinned():
    model = build_model(TWO_LAYER_DIMS, 3)
    assert len(TWO_LAYER_NAMES) == 77
    assert list(model.named_params()) == list(model_arrays(model)) == TWO_LAYER_NAMES
    # a component subset keeps the table's order, in whatever order it is named
    assert list(model.named_params(("rec", "enc"))) == [
        name for name in TWO_LAYER_NAMES if not name.startswith("aug.")]
    assert list(model.enc.named_params()) == TWO_LAYER_NAMES[:26]
    assert list(model.aug.named_params("x"))[:3] == ["x.op_proj", "x.gen_pos", "x.stop_emb"]


def test_a_tensor_set_on_a_block_is_a_parameter():
    model = build_model(TWO_LAYER_DIMS, 3)
    model.enc.blocks[1].extra = ag.param(np.zeros(2))
    names = list(model.named_params())
    assert names[names.index("enc.blocks.1.ln2_b") + 1] == "enc.blocks.1.extra"
    assert len(names) == 78
    np.testing.assert_array_equal(model_arrays(model)["enc.blocks.1.extra"], np.zeros(2))


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
