"""End-to-end CLI: every subcommand on a small synthetic dataset."""

from pathlib import Path

import numpy as np
import pytest

from seqrec.augmenter import generate_augmented
from seqrec.checkpoint import load_checkpoint, save_checkpoint
from seqrec.cli import _load_model_ckpt, main
from seqrec.data import leave_one_out_split, read_sequences, read_vocabulary
from seqrec.evaluate import NoisySimConfig, evaluate_model

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "ring120-full.ckpt"

TINY_CFG = """
# tiny configuration for CLI round trips
embed_dim = 16
dropout = 0.1
batch_size = 16
lr = 0.003
epochs_augmenter = 1
epochs_recommender = 1
patience = 10
seed = 7
mode = base
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG)
    log = root / "interactions.txt"
    # enough users that 5-core filtering keeps the whole 120-item catalog
    rc = main(["synth", "--out-file", str(log), "--items", "120", "--users", "300",
               "--structure", "ring", "--min-len", "6", "--max-len", "10",
               "--seed", "3"])
    assert rc == 0
    data = root / "processed"
    rc = main(["preprocess", "--input", str(log), "--out", str(data)])
    assert rc == 0
    return root, cfg, data


def test_preprocess_outputs(workspace):
    root, _, data = workspace
    assert (data / "sequences.txt").exists()
    assert (data / "vocab.txt").exists()
    stats = (data / "stats.txt").read_text()
    for field in ("users=", "items=", "records=", "avg_length=", "density="):
        assert field in stats


def test_preprocess_idempotent(workspace, tmp_path):
    root, _, data = workspace
    again = tmp_path / "again"
    rc = main(["preprocess", "--input", str(root / "interactions.txt"),
               "--out", str(again)])
    assert rc == 0
    assert (again / "sequences.txt").read_text() == (data / "sequences.txt").read_text()
    assert (again / "vocab.txt").read_text() == (data / "vocab.txt").read_text()


def test_corrupt_prints_records(workspace, capsys):
    _, cfg, data = workspace
    rc = main(["corrupt", "--data", str(data), "--config", str(cfg), "--limit", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("user ") == 3
    assert "modified:" in out and "ops:" in out


def test_train_augmenter_writes_checkpoints(workspace):
    root, cfg, data = workspace
    out = root / "aug-run"
    rc = main(["train-augmenter", "--data", str(data), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    assert (out / "augmenter-best.ckpt").exists()
    assert (out / "augmenter-last.ckpt").exists()
    assert "augmenter epoch 0" in (out / "train-log.txt").read_text()


def test_augment_writes_sequence_file(workspace):
    root, cfg, data = workspace
    ckpt = root / "aug-run" / "augmenter-best.ckpt"
    out_file = root / "augmented.txt"
    rc = main(["augment", "--data", str(data), "--checkpoint", str(ckpt),
               "--out-file", str(out_file)])
    assert rc == 0
    seqs = read_sequences(out_file)
    assert len(seqs) == len(read_sequences(data / "sequences.txt"))
    assert all(1 <= len(s.items) <= 60 for s in seqs)


def test_train_recommender_and_evaluate(workspace):
    root, cfg, data = workspace
    out = root / "rec-run"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg),
               "--out", str(out), "--mode", "base"])
    assert rc == 0
    ckpt = out / "recommender-best.ckpt"
    assert ckpt.exists()

    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
               "--split", "test", "--out", str(out)])
    assert rc == 0
    kv = (out / "report-test.kv").read_text()
    assert "hr@10=" in kv and "sum=" in kv

    # identical invocation reproduces the identical report
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
               "--split", "test", "--out", str(root / "rec-run-2")])
    assert rc == 0
    assert (root / "rec-run-2" / "report-test.kv").read_text() == kv


def test_evaluate_noisy_flag(workspace):
    root, _, data = workspace
    ckpt = root / "rec-run" / "recommender-best.ckpt"
    out = root / "noisy-eval"
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
               "--split", "test", "--noisy", "--out", str(out)])
    assert rc == 0
    assert (out / "report-test-noisy.kv").exists()


def test_full_mode_requires_augmenter_checkpoint(workspace):
    root, cfg, data = workspace
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg),
               "--out", str(root / "x"), "--mode", "full"])
    assert rc == 1


def test_full_mode_with_augmenter_checkpoint(workspace):
    root, cfg, data = workspace
    out = root / "full-run"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg),
               "--out", str(out), "--mode", "full",
               "--augmenter", str(root / "aug-run" / "augmenter-best.ckpt")])
    assert rc == 0
    assert (out / "recommender-best.ckpt").exists()


def test_batched_augmentation_matches_one_sequence_at_a_time(workspace, tmp_path):
    _, _, data = workspace
    # the benchmark's trained ring-120 model, whose augmenter inserts and
    # deletes, re-saved with a small batch_size
    text, params, _, _ = load_checkpoint(FIXTURE)
    assert "batch_size = 256" in text.splitlines()
    ckpt = tmp_path / "small-batches.ckpt"
    save_checkpoint(ckpt, text.replace("batch_size = 256", "batch_size = 16"), params)
    cfg, _, model, _, _ = _load_model_ckpt(ckpt)
    sequences = read_sequences(data / "sequences.txt")
    # several chunks of batch_size, each mixing history lengths
    assert cfg.batch_size == 16 and len(sequences) > 3 * cfg.batch_size
    assert len({len(s.items) for s in sequences[:cfg.batch_size]}) > 1

    def one_at_a_time(histories):
        return [generate_augmented(h, model.enc, model.aug) for h in histories]

    out_file = tmp_path / "augmented.txt"
    rc = main(["augment", "--data", str(data), "--checkpoint", str(ckpt),
               "--out-file", str(out_file)])
    assert rc == 0
    got = read_sequences(out_file)
    assert [s.user_id for s in got] == [s.user_id for s in sequences]
    assert [s.items for s in got] == one_at_a_time([s.items for s in sequences])
    assert any(len(a.items) > len(s.items) for a, s in zip(got, sequences))  # inserts

    split = leave_one_out_split(sequences)
    vocab = read_vocabulary(data / "vocab.txt")
    for flags, noisy in (([], None), (["--noisy"], NoisySimConfig(seed=cfg.seed))):
        rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                   "--split", "test", "--testaug", "--out", str(tmp_path), *flags])
        assert rc == 0
        want = evaluate_model(split, vocab, model.enc, model.rec, which="test",
                              seed=cfg.seed, n_negatives=cfg.n_negatives,
                              batch_size=cfg.batch_size, noisy=noisy,
                              transform_context=one_at_a_time)
        suffix = "test" + ("-noisy" if noisy else "") + "-testaug"
        kv = (tmp_path / f"report-{suffix}.kv").read_text()
        assert kv == "\n".join(want.to_kv_lines()) + "\n"


def test_simulate_noise_writes_file(workspace):
    root, cfg, data = workspace
    out_file = root / "noised.txt"
    rc = main(["simulate-noise", "--data", str(data), "--out-file", str(out_file),
               "--ratio", "4:3:3", "--seed", "5"])
    assert rc == 0
    noised = read_sequences(out_file)
    originals = read_sequences(data / "sequences.txt")
    assert len(noised) == len(originals)
    for a, b in zip(originals, noised):
        assert a.items[-1] == b.items[-1]


def test_resume_reproduces_unbroken_run(workspace, tmp_path):
    root, _, data = workspace
    cfg2 = tmp_path / "two-epochs.cfg"
    cfg2.write_text(TINY_CFG.replace("epochs_recommender = 1", "epochs_recommender = 2"))
    straight = tmp_path / "straight"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg2),
               "--out", str(straight), "--mode", "base"])
    assert rc == 0

    cfg1 = tmp_path / "one-epoch.cfg"
    cfg1.write_text(TINY_CFG)
    part1 = tmp_path / "part1"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg1),
               "--out", str(part1), "--mode", "base"])
    assert rc == 0
    part2 = tmp_path / "part2"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg2),
               "--out", str(part2), "--mode", "base",
               "--resume", str(part1 / "recommender-last.ckpt")])
    assert rc == 0

    _, params_a, _, _ = load_checkpoint(straight / "recommender-last.ckpt")
    _, params_b, _, _ = load_checkpoint(part2 / "recommender-last.ckpt")
    assert set(params_a) == set(params_b)
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])


def test_sweep_emits_grid_table(workspace, tmp_path):
    root, cfg, data = workspace
    out = tmp_path / "sweep"
    rc = main(["sweep", "--data", str(data), "--config", str(cfg),
               "--out", str(out), "--mode", "base",
               "--grid", "alpha=0.1,0.2", "--grid", "beta=0.005,0.01"])
    assert rc == 0
    lines = (out / "sweep.txt").read_text().splitlines()
    assert len(lines) == 5  # header + 4 cells
    assert "alpha" in lines[0] and "sum" in lines[0]


def test_sweep_probs_grid_reports_operation_column(workspace, tmp_path):
    root, cfg, data = workspace
    out = tmp_path / "probs-sweep"
    rc = main(["sweep", "--data", str(data), "--config", str(cfg),
               "--out", str(out), "--mode", "full",
               "--grid", "probs=0.4:0.5:0.1,0.5:0.4:0.1"])
    assert rc == 0
    lines = (out / "sweep.txt").read_text().splitlines()
    header = lines[0].split("\t")
    assert "operation" in header and len(lines) == 3
    col = header.index("operation")
    for line in lines[1:]:
        cell = line.split("\t")[col]  # e.g. [62%, 10%, 28%]
        parts = [float(x.strip().rstrip("%")) for x in cell.strip("[]").split(",")]
        assert len(parts) == 3
        assert abs(sum(parts) - 100.0) <= 2.0  # rounding of three terms


def test_config_paths_can_replace_flags(workspace, tmp_path, capsys):
    root, _, data = workspace
    cfg = tmp_path / "paths.cfg"
    cfg.write_text(TINY_CFG + f"processed_dir = {data}\n")
    rc = main(["corrupt", "--config", str(cfg), "--limit", "1"])
    assert rc == 0
    assert "modified:" in capsys.readouterr().out
    rc = main(["corrupt", "--limit", "1"])  # no flag, no config -> clear error
    assert rc == 1


def test_unknown_config_key_fails_cleanly(workspace, tmp_path, capsys):
    _, _, data = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text("embde_dim = 16\n")
    rc = main(["corrupt", "--data", str(data), "--config", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_corrupted_checkpoint_fails_cleanly(workspace, tmp_path, capsys):
    root, _, data = workspace
    ckpt = root / "rec-run" / "recommender-best.ckpt"
    broken = tmp_path / "broken.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[0] ^= 0xFF
    broken.write_bytes(bytes(raw))
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(broken),
               "--split", "test", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
