"""End-to-end CLI: every subcommand on a small synthetic dataset."""

from pathlib import Path

import numpy as np
import pytest

from seqrec import cli, trainer
from seqrec.augmenter import generate_augmented_batch
from seqrec.checkpoint import load_checkpoint, save_checkpoint
from seqrec.cli import _load_model_ckpt, _save_model_ckpt, main
from seqrec.config import config_to_lines, parse_config_lines, read_meta
from seqrec.data import leave_one_out_split, read_sequences, read_vocabulary
from seqrec.evaluate import NoisySimConfig, evaluate_model
from seqrec.optim import AdamState

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


@pytest.fixture(scope="module")
def phase1_run(workspace):
    """Out dir of a phase-1 run on the workspace data, trained once per module."""
    root, cfg, data = workspace
    out = root / "aug-run"
    rc = main(["train-augmenter", "--data", str(data), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def base_run(workspace):
    """Out dir of a base-mode phase-2 run on the workspace data, trained once."""
    root, cfg, data = workspace
    out = root / "rec-run"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg),
               "--out", str(out), "--mode", "base"])
    assert rc == 0
    return out


@pytest.mark.parametrize("flags, refusal", [
    (["--users", "-3"], "n_users must be >= 1, got -3"),
    (["--structure", "block", "--blocks", "0"], "n_blocks must be >= 1, got 0"),
    (["--in-block-prob", "7"], "in_block_prob must be in [0, 1], got 7.0"),
    (["--in-block-prob", "nan"], "in_block_prob must be in [0, 1], got nan"),
], ids=["users", "blocks", "in_block_prob", "in_block_prob_nan"])
def test_synth_refuses_a_spec_it_cannot_generate(tmp_path, capsys, flags, refusal):
    log = tmp_path / "interactions.txt"
    assert main(["synth", "--out-file", str(log), *flags]) == 1
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert not log.exists()


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


def test_user_ids_holding_colons_survive_preprocess_and_corrupt(workspace, tmp_path, capsys):
    # a 5 x 5 grid survives 5-core filtering whole
    _, cfg, _ = workspace
    users = ["a:1", "b:2:", "c", "d:x:y", "e"]
    log = tmp_path / "interactions.txt"
    log.write_text("".join(f"{u} i{k} {k}\n" for u in users for k in range(5)))
    data = tmp_path / "processed"
    assert main(["preprocess", "--input", str(log), "--out", str(data)]) == 0
    assert [s.user_id for s in read_sequences(data / "sequences.txt")] == users
    capsys.readouterr()
    rc = main(["corrupt", "--data", str(data), "--config", str(cfg), "--limit", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert [l for l in out.splitlines() if l.startswith("user ")] == [f"user {u}" for u in users]


def test_corrupt_prints_records(workspace, capsys):
    _, cfg, data = workspace
    rc = main(["corrupt", "--data", str(data), "--config", str(cfg), "--limit", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("user ") == 3
    assert "modified:" in out and "ops:" in out


def test_corrupt_shows_at_most_limit_users(workspace, capsys):
    _, cfg, data = workspace
    rc = main(["corrupt", "--data", str(data), "--config", str(cfg), "--limit", "0"])
    assert rc == 0 and capsys.readouterr().out == ""
    rc = main(["corrupt", "--data", str(data), "--config", str(cfg), "--limit", "-1"])
    assert rc == 1 and "--limit must be >= 0, got -1" in capsys.readouterr().err


def test_corrupt_draws_each_user_apart(workspace, capsys):
    # one key per user: users of equal length do not share one corruption
    _, cfg, data = workspace
    rc = main(["corrupt", "--data", str(data), "--config", str(cfg), "--limit", "1000"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    ops_by_length = {}
    for original, ops in zip([l for l in lines if l.startswith("  original:")],
                             [l for l in lines if l.startswith("  ops:")]):
        ops_by_length.setdefault(len(original.split()), set()).add(ops)
    assert len(ops_by_length) > 1
    assert all(len(ops) > 1 for ops in ops_by_length.values()), ops_by_length.keys()


def test_train_augmenter_writes_checkpoints(phase1_run):
    assert (phase1_run / "augmenter-best.ckpt").exists()
    assert (phase1_run / "augmenter-last.ckpt").exists()
    assert "augmenter epoch 0" in (phase1_run / "train-log.txt").read_text()


def test_infinite_val_loss_never_makes_a_best_checkpoint(workspace, tmp_path, monkeypatch):
    # with no record to validate, phase 1's val_loss is inf: no epoch is best
    root, cfg, data = workspace
    monkeypatch.setattr(trainer, "validation_aug_loss",
                        lambda *args, **kwargs: (float("inf"), {"op_accuracy": 0.0,
                                                                "ins_top1": 0.0}))
    two = tmp_path / "two.cfg"
    two.write_text(cfg.read_text() + "epochs_augmenter = 2\n")
    out = tmp_path / "inf-run"
    rc = main(["train-augmenter", "--data", str(data), "--config", str(two),
               "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.glob("*.ckpt")) == ["augmenter-last.ckpt"]
    log = (out / "train-log.txt").read_text()
    assert "augmenter epoch 1: " in log and "val_loss=inf" in log
    assert "best augmenter epoch -1" in log


def test_augment_writes_sequence_file(workspace, phase1_run):
    root, cfg, data = workspace
    ckpt = phase1_run / "augmenter-best.ckpt"
    out_file = root / "augmented.txt"
    rc = main(["augment", "--data", str(data), "--checkpoint", str(ckpt),
               "--out-file", str(out_file)])
    assert rc == 0
    seqs = read_sequences(out_file)
    assert len(seqs) == len(read_sequences(data / "sequences.txt"))
    assert all(1 <= len(s.items) <= 60 for s in seqs)


def test_train_recommender_and_evaluate(workspace, base_run):
    root, cfg, data = workspace
    out = base_run
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


def test_evaluate_noisy_flag(workspace, base_run):
    root, _, data = workspace
    ckpt = base_run / "recommender-best.ckpt"
    out = root / "noisy-eval"
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
               "--split", "test", "--noisy", "--out", str(out)])
    assert rc == 0
    kv = (out / "report-test-noisy.kv").read_text()
    explicit = root / "noisy-eval-433"
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt), "--split", "test",
               "--noisy", "--noisy-ratio", "4:3:3", "--out", str(explicit)])
    assert rc == 0
    assert (explicit / "report-test-noisy.kv").read_text() == kv


@pytest.mark.parametrize("flags, message", [
    (["--noisy-ratio", "1:1:1"], "--noisy-ratio applies only with --noisy"),
    (["--noisy", "--noisy-ratio", "nan:1:1"], "--noisy-ratio/--ratio parts must be finite"),
    (["--noisy", "--noisy-ratio", "inf:1:1"], "--noisy-ratio/--ratio parts must be finite"),
])
def test_evaluate_refuses_a_bad_noisy_ratio(workspace, base_run, tmp_path, capsys, flags,
                                           message):
    _, _, data = workspace
    rc = main(["evaluate", "--data", str(data), "--checkpoint",
               str(base_run / "recommender-best.ckpt"), "--out", str(tmp_path), *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_full_mode_requires_augmenter_checkpoint(workspace):
    root, cfg, data = workspace
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg),
               "--out", str(root / "x"), "--mode", "full"])
    assert rc == 1


def test_full_mode_with_augmenter_checkpoint(workspace, phase1_run):
    root, cfg, data = workspace
    out = root / "full-run"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg),
               "--out", str(out), "--mode", "full",
               "--augmenter", str(phase1_run / "augmenter-best.ckpt")])
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
        return [generate_augmented_batch([h], model.enc, model.aug)[0] for h in histories]

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
    rc = main(["simulate-noise", "--data", str(data), "--out-file", str(root / "bad.txt"),
               "--ratio", "1:-1:1"])
    assert rc == 1 and not (root / "bad.txt").exists()


PINNED_NOISE = {  # simulate-noise output of SMALL_SEQUENCES, pinned: reports depend on it
    ("4:3:3", "5"): "u5: 14 3 6 17 4 1 4 9 10 12 1\nu1: 8\nu3: 20 11 6 13 15 7 19 4 5 13\n"
                    "u4: 10 14\nu2: 2 16 1 18 18 2 9\nu6: 11 5 5 7 6 12 12 8 17 4 2 1\n",
    ("1:3:1", "2"): "u5: 14 3 7 12 1\nu1: 8\nu3: 9 20 4 7 13\nu4: 10 14\nu2: 12 16 9\n"
                    "u6: 5 6 11 12 4 17 11 3 17 2 1\n",
}
SMALL_SEQUENCES = ("u5: 3 17 4 4 9 12 1\nu1: 8\nu3: 2 20 11 6 15 7 19 5 13\nu4: 10 14\n"
                   "u2: 16 18 3 1 2 9\nu6: 5 5 6 20 11 12 4 8 17 3 2 1\n")


@pytest.mark.parametrize("ratio, seed", list(PINNED_NOISE))
def test_simulate_noise_output_is_pinned(tmp_path, ratio, seed):
    data = tmp_path / "data"
    data.mkdir()
    (data / "vocab.txt").write_text("#seqrec-vocab-v1\n"
                                    + "".join(f"i{k:02d}\t{k}\n" for k in range(1, 21)))
    (data / "sequences.txt").write_text("#seqrec-v1\n" + SMALL_SEQUENCES)
    out_file = tmp_path / "noised.txt"
    rc = main(["simulate-noise", "--data", str(data), "--out-file", str(out_file),
               "--ratio", ratio, "--seed", seed])
    assert rc == 0
    assert out_file.read_text() == "#seqrec-v1\n" + PINNED_NOISE[ratio, seed]


def test_simulate_noise_refuses_a_sequence_without_items(workspace, tmp_path, capsys):
    _, _, data = workspace
    bad = tmp_path / "data"
    bad.mkdir()
    (bad / "vocab.txt").write_text((data / "vocab.txt").read_text())
    (bad / "sequences.txt").write_text("#seqrec-v1\nu1: 1 2 3\nu2:\n")
    rc = main(["simulate-noise", "--data", str(bad), "--out-file", str(tmp_path / "n.txt")])
    assert rc == 1
    assert "line 3: user 'u2' has no items" in capsys.readouterr().err


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

    for kind in ("last", "best"):
        # the resumed run improves on part 1's best exactly when the unbroken one does
        broken = part2 if (part2 / f"recommender-{kind}.ckpt").exists() else part1
        text_a, params_a, step_a, opt_a = load_checkpoint(straight / f"recommender-{kind}.ckpt")
        text_b, params_b, step_b, opt_b = load_checkpoint(broken / f"recommender-{kind}.ckpt")
        assert read_meta(text_a.splitlines()) == read_meta(text_b.splitlines())
        assert step_a == step_b
        assert set(params_a) == set(params_b) and set(opt_a) == set(opt_b)
        for name in params_a:
            np.testing.assert_array_equal(params_a[name], params_b[name], err_msg=name)
        for name in opt_a:
            np.testing.assert_array_equal(opt_a[name], opt_b[name], err_msg=name)
    last_line = [(out / "train-log.txt").read_text().splitlines()[-1]
                 for out in (straight, part2)]
    assert last_line[0].startswith("best recommender epoch ")
    assert last_line[0] == last_line[1]


def test_resume_of_a_finished_run_reports_its_best_epoch(base_run, workspace, tmp_path):
    _, cfg, data = workspace
    out = tmp_path / "again"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg),
               "--out", str(out), "--resume", str(base_run / "recommender-last.ckpt")])
    assert rc == 0
    best = (base_run / "train-log.txt").read_text().splitlines()[-1]
    assert best.startswith("best recommender epoch 0 (val sum ")
    assert (out / "train-log.txt").read_text().splitlines() == [best]  # no epoch ran
    assert not list(out.glob("*.ckpt"))


def test_resume_refuses_a_checkpoint_without_optimizer_state(workspace, tmp_path, capsys):
    # the pinned fixture holds parameters only: resuming it would restart
    # Adam at step 0 and early stopping from scratch
    _, _, data = workspace
    out = tmp_path / "resumed"
    rc = main(["train-recommender", "--data", str(data), "--resume", str(FIXTURE),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{FIXTURE} holds no optimizer or early-stopping state" in err
    assert "--augmenter" in err
    assert not (out / "train-log.txt").exists()  # no epoch ran


@pytest.mark.parametrize("dropped", ["_best_epoch", "_best_metric", "_patience_left"])
def test_resume_refuses_a_checkpoint_without_early_stopping_state(base_run, workspace,
                                                                  tmp_path, capsys, dropped):
    _, _, data = workspace
    text, params, opt_step, opt_arrays = load_checkpoint(base_run / "recommender-last.ckpt")
    kept = [line for line in text.splitlines() if not line.startswith(dropped)]
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(ckpt, "\n".join(kept) + "\n", params, opt_step=opt_step,
                    opt_arrays=opt_arrays)
    out = tmp_path / "resumed"
    rc = main(["train-recommender", "--data", str(data), "--resume", str(ckpt),
               "--out", str(out)])
    assert rc == 1
    assert f"{ckpt} holds no optimizer or early-stopping state" in capsys.readouterr().err
    assert not (out / "train-log.txt").exists()


@pytest.mark.parametrize("command, mode", [("train-augmenter", None),
                                           ("train-recommender", "base"),
                                           ("train-recommender", "full")])
def test_resume_alone_continues_from_the_stored_config(workspace, tmp_path, command, mode):
    root, cfg, data = workspace
    phase = command.removeprefix("train-")
    flags = []
    if mode is not None:
        flags = ["--mode", mode]
    if mode == "full":
        aug_out = tmp_path / "phase1"
        assert main(["train-augmenter", "--data", str(data), "--config", str(cfg),
                     "--out", str(aug_out)]) == 0
        flags += ["--augmenter", str(aug_out / "augmenter-last.ckpt")]
    epochs_key = f"epochs_{phase}"
    cfg2 = tmp_path / "two-epochs.cfg"
    cfg2.write_text(TINY_CFG.replace(f"{epochs_key} = 1", f"{epochs_key} = 2"))
    straight, part1, part2 = tmp_path / "straight", tmp_path / "part1", tmp_path / "part2"
    assert main([command, "--data", str(data), "--config", str(cfg2),
                 "--out", str(straight), *flags]) == 0
    assert main([command, "--data", str(data), "--config", str(cfg),
                 "--out", str(part1), *flags]) == 0

    # the 1-epoch checkpoint, re-saved as if its run had been asked for 2
    # epochs and had named its data and out dir in the config
    text, params, opt_step, opt_arrays = load_checkpoint(part1 / f"{phase}-last.ckpt")
    lines = text.splitlines()
    stored = parse_config_lines(lines)
    assert getattr(stored, epochs_key) == 1 and stored.processed_dir == ""
    setattr(stored, epochs_key, 2)
    stored.processed_dir, stored.out_dir = str(data), str(part2)
    ckpt = tmp_path / "resume.ckpt"
    save_checkpoint(ckpt, "\n".join(config_to_lines(stored, read_meta(lines))) + "\n",
                    params, opt_step=opt_step, opt_arrays=opt_arrays)

    assert main([command, "--resume", str(ckpt)]) == 0
    _, params_a, step_a, opt_a = load_checkpoint(straight / f"{phase}-last.ckpt")
    _, params_b, step_b, opt_b = load_checkpoint(part2 / f"{phase}-last.ckpt")
    assert step_a == step_b and set(params_a) == set(params_b) and set(opt_a) == set(opt_b)
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name], err_msg=name)
    for name in opt_a:
        np.testing.assert_array_equal(opt_a[name], opt_b[name], err_msg=name)


def test_resume_refuses_a_mode_that_trains_the_augmenter_the_run_did_not(workspace, tmp_path,
                                                                           capsys):
    # the pinned full-mode model, re-saved after epoch 0 with the Adam state
    # of its mode, which covers no augmenter parameter
    _, _, data = workspace
    cfg, _, model, _, _ = _load_model_ckpt(FIXTURE)
    opt = AdamState(model.named_params(("enc", "rec")), cfg.lr)
    ckpt = tmp_path / "full.ckpt"
    _save_model_ckpt(ckpt, cfg, "recommender",
                     trainer.TrainResult(model, opt, epoch=0, patience_left=cfg.patience))
    out = tmp_path / "cotrain"
    rc = main(["train-recommender", "--data", str(data), "--resume", str(ckpt),
               "--mode", "cotrain", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{ckpt}: the resumed Adam state holds no moments for parameter 'aug." in err
    assert "in mode 'cotrain' trains" in err
    assert not (out / "train-log.txt").exists()  # no epoch ran


@pytest.mark.parametrize("edit, refusal", [
    (lambda opt: opt.pop("v.enc.item_emb"),
     "the resumed Adam state holds no moment 'v.enc.item_emb' for parameter 'enc.item_emb'"),
    (lambda opt: opt.update({"m.enc.item_emb": opt["m.enc.item_emb"][:3]}),
     "the resumed Adam state's array 'm.enc.item_emb' has shape (3, 16), the parameter ("),
    (lambda opt: opt.update({"lr": np.array([0.003])}),
     "Adam state array 'lr' is not named m.<parameter> or v.<parameter>"),
], ids=["missing_v", "cut_m", "stray_array"])
def test_resume_refuses_an_adam_state_that_does_not_fit_before_any_batch(
        base_run, workspace, tmp_path, monkeypatch, capsys, edit, refusal):
    # base_run's last checkpoint, one epoch short of a 2-epoch run and CRC-valid,
    # with one Adam array dropped, cut or added
    _, _, data = workspace
    text, params, opt_step, opt_arrays = load_checkpoint(base_run / "recommender-last.ckpt")
    assert "epochs_recommender = 1\n" in text
    edit(opt_arrays)
    ckpt = tmp_path / "bad-adam.ckpt"
    save_checkpoint(ckpt, text.replace("epochs_recommender = 1", "epochs_recommender = 2"),
                    params, opt_step=opt_step, opt_arrays=opt_arrays)
    loops = []
    monkeypatch.setattr(trainer, "_run_epochs", lambda *a, **k: loops.append(a))
    out = tmp_path / "resumed"
    rc = main(["train-recommender", "--data", str(data), "--resume", str(ckpt),
               "--out", str(out)])
    assert rc == 1
    assert refusal in capsys.readouterr().err
    assert loops == []  # the epoch loop never started


def test_resume_with_other_dims_is_refused_before_training(phase1_run, workspace, tmp_path,
                                                           capsys):
    # the 16-dim phase-1 run, continued under a config of other embed_dim
    # and max_aug_len: its checkpoints would store dims the model lacks
    _, cfg, data = workspace
    other = tmp_path / "other.cfg"
    other.write_text(cfg.read_text() + "epochs_augmenter = 2\nembed_dim = 32\n"
                     "max_aug_len = 30\n")
    ckpt = phase1_run / "augmenter-last.ckpt"
    out = tmp_path / "resumed"
    rc = main(["train-augmenter", "--data", str(data), "--resume", str(ckpt),
               "--config", str(other), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{ckpt}: the resumed model does not match the run config" in err
    assert "embed_dim 16 vs 32; max_aug_len 60 vs 30" in err
    assert not list(out.glob("*.ckpt"))
    assert not (out / "train-log.txt").exists()  # no epoch ran


def test_resume_with_augmenter_is_refused(phase1_run, base_run, workspace, tmp_path, capsys):
    _, _, data = workspace
    out = tmp_path / "both"
    rc = main(["train-recommender", "--data", str(data), "--out", str(out),
               "--resume", str(base_run / "recommender-last.ckpt"),
               "--augmenter", str(phase1_run / "augmenter-last.ckpt")])
    assert rc == 1
    assert "(--augmenter) or continues a resumed one (--resume), not both" in \
        capsys.readouterr().err
    assert not list(out.glob("*.ckpt"))
    assert not (out / "train-log.txt").exists()


def test_augmenter_with_other_dims_is_refused_before_training(workspace, tmp_path, capsys):
    # the 16-dim run config against the 64-dim pinned fixture
    _, cfg, data = workspace
    out = tmp_path / "mismatch"
    rc = main(["train-recommender", "--data", str(data), "--config", str(cfg),
               "--out", str(out), "--mode", "full", "--augmenter", str(FIXTURE)])
    assert rc == 1
    assert "embed_dim 64 vs 16" in capsys.readouterr().err
    assert not list(out.glob("*.ckpt"))
    assert not (out / "train-log.txt").exists()  # no epoch ran


def test_prefix_longer_than_max_len_is_refused_before_training(workspace, tmp_path, capsys):
    # data preprocessed at the default max_len 50, trained with max_len 4
    _, cfg, data = workspace
    short = tmp_path / "short.cfg"
    short.write_text(cfg.read_text() + "max_len = 4\n")
    out = tmp_path / "short"
    rc = main(["train-augmenter", "--data", str(data), "--config", str(short),
               "--out", str(out)])
    assert rc == 1
    assert "items, longer than max_len 4" in capsys.readouterr().err
    assert not (out / "train-log.txt").exists()  # no epoch ran


def test_negatives_no_fewer_than_the_catalog_are_refused(workspace, base_run, tmp_path,
                                                         capsys):
    # the workspace catalog holds 120 items, so no user could be ranked
    _, cfg, data = workspace
    many = tmp_path / "many.cfg"
    many.write_text(cfg.read_text() + "n_negatives = 500\n")
    out = tmp_path / "many"
    rc = main(["train-recommender", "--data", str(data), "--config", str(many),
               "--out", str(out)])
    assert rc == 1
    assert "n_negatives 500 must be below the catalog's 120 items" in capsys.readouterr().err
    assert not (out / "train-log.txt").exists()  # no epoch ran

    text, params, _, _ = load_checkpoint(base_run / "recommender-best.ckpt")
    ckpt = tmp_path / "many.ckpt"
    save_checkpoint(ckpt, text.replace("n_negatives = 99", "n_negatives = 120"), params)
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "report")])
    assert rc == 1
    assert "n_negatives 120 must be below the catalog's 120 items" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()  # no report written


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("case", ["negatives", "full_without_augmenter", "resume_other_dims",
                                  "preprocess_missing_input"])
def test_a_refused_command_writes_nothing(phase1_run, workspace, tmp_path, capsys, case):
    # each refusal comes before the first file, so no out dir is left behind
    _, cfg, data = workspace
    out = str(tmp_path / "out")
    train = ["--data", str(data), "--out", out]
    if case == "negatives":
        (tmp_path / "many.cfg").write_text(cfg.read_text() + "n_negatives = 500\n")
        argv = ["train-recommender", *train, "--config", str(tmp_path / "many.cfg")]
    elif case == "full_without_augmenter":
        argv = ["train-recommender", *train, "--config", str(cfg), "--mode", "full"]
    elif case == "resume_other_dims":
        (tmp_path / "other.cfg").write_text(cfg.read_text() + "embed_dim = 32\n")
        argv = ["train-augmenter", *train, "--config", str(tmp_path / "other.cfg"),
                "--resume", str(phase1_run / "augmenter-last.ckpt")]
    else:
        argv = ["preprocess", "--input", str(tmp_path / "missing.txt"), "--out", out]
    before = _tree(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert _tree(tmp_path) == before


def test_sequence_ids_outside_the_vocabulary_are_refused(workspace, tmp_path, capsys):
    _, cfg, data = workspace
    bad = tmp_path / "data"
    bad.mkdir()
    (bad / "vocab.txt").write_text((data / "vocab.txt").read_text())
    (bad / "sequences.txt").write_text("#seqrec-v1\nu1: 1 2 3\nu2: 4 121 5\n")
    rc = main(["corrupt", "--data", str(bad), "--config", str(cfg), "--limit", "1"])
    assert rc == 1
    assert "user 'u2' has item id 121 outside the vocabulary's 1..120" in capsys.readouterr().err


def test_the_first_bad_id_late_in_a_long_sequence_is_named(workspace, tmp_path, capsys):
    _, cfg, data = workspace
    bad = tmp_path / "data"
    bad.mkdir()
    (bad / "vocab.txt").write_text((data / "vocab.txt").read_text())
    late = " ".join(map(str, list(range(1, 46)) + [0, 7, 300, 9]))
    (bad / "sequences.txt").write_text(f"#seqrec-v1\nu1: {' '.join(map(str, range(1, 121)))}\n"
                                       f"u2: {late}\n")
    rc = main(["corrupt", "--data", str(bad), "--config", str(cfg), "--limit", "1"])
    assert rc == 1
    assert "user 'u2' has item id 0 outside the vocabulary's 1..120" in capsys.readouterr().err


def test_resume_refuses_another_phase_checkpoint(workspace, tmp_path, capsys):
    _, _, data = workspace
    rc = main(["train-augmenter", "--data", str(data), "--resume", str(FIXTURE),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "'recommender' checkpoint" in capsys.readouterr().err


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


def test_sweep_refuses_a_bad_contrast_ratio_before_training(workspace, tmp_path, capsys):
    # gamma is read only by the phase-2 random views; the config is refused
    # at load, not after a whole phase 1
    _, cfg, data = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + "gamma = 0\nepochs_augmenter = 20\n")
    rc = main(["sweep", "--data", str(data), "--config", str(bad),
               "--out", str(tmp_path / "sweep"), "--mode", "full", "--grid", "alpha=0.1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: gamma must be in (0,1), got 0.0" in captured.err
    assert "training shared augmenter" not in captured.out


@pytest.mark.parametrize("grid, refusal", [
    ("alpha=x", "--grid alpha=x: could not convert string to float: 'x'"),
    ("alpha=0.1,-1", "--grid alpha=-1: alpha must be finite and >= 0, got -1.0"),
], ids=["not-a-number", "bad-later-cell"])
def test_sweep_refuses_a_bad_grid_value_before_training(workspace, tmp_path, capsys,
                                                       monkeypatch, grid, refusal):
    # a bad later cell is refused before the first cell trains
    _, cfg, data = workspace

    def no_training(*args, **kwargs):
        raise AssertionError("trained before every cell was checked")

    monkeypatch.setattr(cli, "train_augmenter", no_training)
    monkeypatch.setattr(cli, "train_recommender", no_training)
    rc = main(["sweep", "--data", str(data), "--config", str(cfg),
               "--out", str(tmp_path / "sweep"), "--mode", "full", "--grid", grid])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: {refusal}" in captured.err
    assert "training shared augmenter" not in captured.out


def test_sweep_names_a_bad_probs_value(workspace, tmp_path, capsys):
    _, cfg, data = workspace
    rc = main(["sweep", "--data", str(data), "--config", str(cfg),
               "--out", str(tmp_path / "sweep"), "--grid", "probs=0.4:0.5:0.1,0.5:x:0.5"])
    assert rc == 1
    assert ("error: --grid probs=0.5:x:0.5: probs must be three ':'-separated numbers, "
            "got '0.5:x:0.5'") in capsys.readouterr().err


def test_out_dir_holding_a_hash_is_refused_before_training(workspace, tmp_path, capsys):
    # `out_dir = runs/#a` would read back from a checkpoint as `runs/`
    _, cfg, data = workspace
    rc = main(["train-augmenter", "--data", str(data), "--config", str(cfg),
               "--out", str(tmp_path / "runs" / "#a")])
    assert rc == 1
    assert "error: out_dir must hold no '#'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_resume_refuses_a_stored_out_dir_holding_a_hash(phase1_run, workspace, tmp_path,
                                                      monkeypatch, capsys):
    # a checkpoint written before such values were refused at save; its line
    # must not read back as `out_dir = runs/`
    _, _, data = workspace
    text, params, opt_step, opt_arrays = load_checkpoint(phase1_run / "augmenter-last.ckpt")
    lines = [("out_dir = runs/#a" if line.startswith("out_dir =") else line)
             for line in text.splitlines()]
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(ckpt, "\n".join(lines) + "\n", params, opt_step=opt_step,
                    opt_arrays=opt_arrays)
    monkeypatch.chdir(tmp_path)
    rc = main(["train-augmenter", "--data", str(data), "--resume", str(ckpt)])
    assert rc == 1
    assert "'#' inside a value, got 'out_dir = runs/#a'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


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
    _, _, data = workspace
    broken = tmp_path / "broken.ckpt"
    raw = bytearray(FIXTURE.read_bytes())
    raw[0] ^= 0xFF
    broken.write_bytes(bytes(raw))
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(broken),
               "--split", "test", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
