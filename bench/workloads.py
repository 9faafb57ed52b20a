"""Workloads, set-up and output checks of the seqrec benchmark.

Every workload drives the public command line, in-process, the way a user
runs it: ``seqrec.cli.main([...])``, one call at a time (a closed loop with
one client). A *round* is the fixed sequence of calls a workload repeats;
rounds on the same data set run on identical inputs, so their outputs must
repeat exactly.

The workload seed only generates the input data (``seqrec synth``): one
run cycles its rounds over DATA_SETS data sets drawn from that seed. The
program itself always runs with its config seed 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURE = BENCH_DIR / "fixture" / "ring120-full.ckpt"
FIXTURE_SHA256 = BENCH_DIR / "fixture" / "ring120-full.sha256"

# Model sizes of every workload; float64 is the config default.
MODEL_CONFIG = {"embed_dim": 64, "batch_size": 256, "dropout": 0.1}

# Data sets per run. Round i uses data set i % DATA_SETS, and a run's quality
# is the mean over all of them: averaging over several data sets narrows the
# seed-to-seed spread of quality and of round time.
DATA_SETS = 6


def data_seed(seed: int, data_set: int) -> int:
    """The `seqrec synth` seed of one data set of a run; distinct across runs."""
    return seed * DATA_SETS + data_set

# One BLAS thread, at most nproc anywhere: the program is single-threaded
# Python around small GEMMs, and a fixed count keeps runs comparable.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    structure: str  # synthetic data: "block" or "ring"
    n_items: int
    n_users: int
    config: dict = field(default_factory=dict)  # extra config keys
    uses_fixture: bool = False


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "pretrain": Workload(
        name="pretrain",
        structure="block", n_items=600, n_users=768,
        config={"epochs_augmenter": 1},
    ),
    "joint": Workload(
        name="joint",
        structure="ring", n_items=120, n_users=512,
        config={"epochs_recommender": 1, "mode": "full"}, uses_fixture=True,
    ),
    "infer": Workload(
        name="infer",
        structure="ring", n_items=120, n_users=512, uses_fixture=True,
    ),
}


class BenchError(Exception):
    """The benchmark cannot run: missing program, bad fixture, failed set-up."""


def pin_process() -> None:
    """Fix the BLAS thread count; the allocator stays as a user's process has it.

    BLAS reads its thread count once, when numpy is first imported.
    """
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread count was pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


# ---------------------------------------------------------------------------
# Calling the program
# ---------------------------------------------------------------------------


def run_cli(argv: list[str], log_path: Path) -> int:
    """seqrec.cli.main(argv) with its output appended to log_path."""
    from seqrec import cli

    with open(log_path, "a", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        print(f"$ seqrec {' '.join(argv)}")
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2


class ResultCapture:
    """Keeps the TrainResult the CLI's training commands get back, and times
    their per-epoch validation.

    The CLI logs losses rounded to 4 places; the checks and the quality
    metric use the exact values, so the two training entry points are
    replaced where cli.py looks them up by pass-through wrappers. The
    validation functions are wrapped where the trainer looks them up, so
    that the step loop's time can be told apart from validation's.
    """

    RESULTS = ("train_augmenter", "train_recommender")  # in seqrec.cli
    VALIDATION = ("validation_aug_loss", "evaluate_model")  # in seqrec.trainer

    def __init__(self):
        self.results = []
        self.validation_s = 0.0
        self._originals = []

    def _wrap(self, module, name, after):
        original = getattr(module, name)
        self._originals.append((module, name, original))

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            after(result, time.perf_counter() - t0)
            return result

        setattr(module, name, wrapper)

    def _add_validation(self, _result, seconds):
        self.validation_s += seconds

    def __enter__(self):
        from seqrec import cli, trainer

        for name in self.RESULTS:
            self._wrap(cli, name, lambda result, _s: self.results.append(result))
        for name in self.VALIDATION:
            self._wrap(trainer, name, self._add_validation)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()
        return False


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pinned_fixture_sha256() -> str:
    return FIXTURE_SHA256.read_text(encoding="utf-8").split()[0]


def check_fixture(path: Path = FIXTURE) -> None:
    """Refuse a fixture whose sha256 differs from the pinned one."""
    if not path.is_file():
        raise BenchError(f"fixture {path} is missing; rebuild it with bench/make_fixture.py")
    got, want = sha256_of(path), pinned_fixture_sha256()
    if got != want:
        raise BenchError(f"fixture {path.name} has sha256 {got}, pinned {want}")


def synthesize(workdir: Path, structure: str, n_items: int, n_users: int, seed: int,
               log_path: Path) -> Path:
    """`seqrec synth` + `seqrec preprocess` into workdir/data."""
    workdir.mkdir(parents=True, exist_ok=True)
    raw = workdir / "interactions.tsv"
    data = workdir / "data"
    steps = (
        ["synth", "--out-file", str(raw), "--items", str(n_items), "--users", str(n_users),
         "--structure", structure, "--noise", "0.1", "--seed", str(seed)],
        ["preprocess", "--input", str(raw), "--out", str(data)],
    )
    for argv in steps:
        if run_cli(argv, log_path) != 0:
            raise BenchError(f"`seqrec {argv[0]}` failed; see {log_path}")
    return data


def write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


@dataclass
class Prepared:
    """What one set-up leaves for the rounds."""

    workdir: Path
    data: Path
    config: Path
    setup_s: float  # synth + preprocess + fixture hash check and load
    n_users: int  # users in the leave-one-out split
    n_train_users: int  # users with a train prefix of at least 2 items
    user_ids: list[str]  # every sequence's user, in file order
    n_items: int
    max_aug_len: int


def setup(workload: Workload, seed: int, workdir: Path, log_path: Path) -> Prepared:
    """Synthesize and preprocess the data, check the fixture, write the config.

    `setup_s` times what a user waits for before the first call: the data
    (synth, preprocess) and the fixture (hash check, load). The figures the
    benchmark itself reads from the data are computed after the timer.
    """
    from seqrec.checkpoint import load_checkpoint
    from seqrec.config import RunConfig
    from seqrec.data import leave_one_out_split, read_sequences, read_vocabulary

    if workdir.exists():
        shutil.rmtree(workdir)
    t0 = time.perf_counter()
    data = synthesize(workdir, workload.structure, workload.n_items, workload.n_users,
                      seed, log_path)
    if workload.uses_fixture:
        check_fixture()
        text, _, _, _ = load_checkpoint(FIXTURE)
    setup_s = time.perf_counter() - t0

    vocab = read_vocabulary(data / "vocab.txt")
    if workload.uses_fixture and f"_n_items = {vocab.n_items}" not in text.splitlines():
        raise BenchError(f"data has {vocab.n_items} items; the fixture was trained "
                         f"on a different catalog")
    config = write_config(workdir / "run.cfg", {**MODEL_CONFIG, **workload.config})
    sequences = read_sequences(data / "sequences.txt")
    split = leave_one_out_split(sequences)
    return Prepared(workdir=workdir, data=data, config=config, setup_s=setup_s,
                    n_users=len(split.users),
                    n_train_users=sum(len(u.train) >= 2 for u in split.users),
                    user_ids=[s.user_id for s in sequences],
                    n_items=vocab.n_items, max_aug_len=RunConfig().max_aug_len)


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of failure messages (empty when fine).
# ---------------------------------------------------------------------------


def check_finite(values: dict) -> list[str]:
    return [f"{k} is not finite ({v!r})" for k, v in values.items()
            if not isinstance(v, (int, float)) or not math.isfinite(v)]


def read_kv(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, raw = line.partition("=")
        out[key] = float(raw)
    return out


def check_report(kv: dict[str, float], n_users: int) -> list[str]:
    """Invariants of one evaluation report (`report-*.kv`)."""
    errors = check_finite(kv)
    if errors:
        return errors
    for name in ("hr", "mrr", "ndcg"):
        for k in (5, 10, 20):
            v = kv[f"{name}@{k}"]
            if not 0.0 <= v <= 1.0:
                errors.append(f"{name}@{k} = {v} outside [0, 1]")
    if not kv["hr@5"] <= kv["hr@10"] <= kv["hr@20"]:
        errors.append(f"HR not monotone in K: {kv['hr@5']}, {kv['hr@10']}, {kv['hr@20']}")
    for k in (5, 10, 20):
        if kv[f"mrr@{k}"] > kv[f"hr@{k}"]:
            errors.append(f"mrr@{k} = {kv[f'mrr@{k}']} exceeds hr@{k} = {kv[f'hr@{k}']}")
    if int(kv["users"]) + int(kv["skipped"]) != n_users:
        errors.append(f"evaluated {int(kv['users'])} + skipped {int(kv['skipped'])} "
                      f"!= {n_users} users")
    return errors


def check_augmented(seqs, user_ids: list[str], n_items: int, max_aug_len: int) -> list[str]:
    """Augment output: one sequence per user, non-empty, bounded, valid ids."""
    errors = []
    if [s.user_id for s in seqs] != user_ids:
        errors.append(f"augment wrote {len(seqs)} sequences for the wrong users "
                      f"(expected {len(user_ids)})")
    for s in seqs:
        if not s.items:
            errors.append(f"user {s.user_id}: empty augmented sequence")
        elif len(s.items) > max_aug_len:
            errors.append(f"user {s.user_id}: augmented length {len(s.items)} > {max_aug_len}")
        elif not all(1 <= i <= n_items for i in s.items):
            errors.append(f"user {s.user_id}: augmented ids outside 1..{n_items}")
    return errors


def check_history(history: list[dict]) -> list[str]:
    """Every logged loss and validation metric of a training run is finite."""
    if not history:
        return ["training ran no epoch"]
    errors = []
    for row in history:
        errors += check_finite({f"epoch {row['epoch']} {k}": v for k, v in row.items()
                                if k not in ("epoch", "val_skipped")})
    return errors


def check_same(reference: dict, other: dict, what: str) -> list[str]:
    """Two runs on identical inputs must give bit-identical quality numbers."""
    return [f"{what}: {k} = {other.get(k)!r}, first round gave {v!r}"
            for k, v in reference.items() if other.get(k) != v]


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    seconds: dict[str, float]  # wall time per CLI call
    quality: dict[str, float]  # exact result numbers of the round
    attempted: int  # training steps, ranked users and augmented sequences
    failed: int
    errors: list[str]
    units: dict[str, int]  # sequences or users each call processed
    step_s: float = 0.0  # training calls: epoch time without validation
    minor_faults: int = 0  # page faults the round took (ru_minflt)

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


def _timed(argv: list[str], log_path: Path) -> tuple[int, float]:
    t0 = time.perf_counter()
    code = run_cli(argv, log_path)
    return code, time.perf_counter() - t0


def _train_round(workload: Workload, prep: Prepared, log_path: Path) -> Round:
    out = prep.workdir / "out"
    if workload.name == "pretrain":
        command = "train-augmenter"
        argv = [command, "--data", str(prep.data), "--config", str(prep.config),
                "--out", str(out)]
    else:
        command = "train-recommender"
        argv = [command, "--data", str(prep.data), "--config", str(prep.config),
                "--out", str(out), "--mode", "full", "--augmenter", str(FIXTURE)]
    steps = math.ceil(prep.n_train_users / MODEL_CONFIG["batch_size"])
    with ResultCapture() as capture:
        code, seconds = _timed(argv, log_path)
    errors = [] if code == 0 else [f"`seqrec {command}` exited with {code}"]
    quality: dict[str, float] = {}
    step_s = 0.0
    if code == 0:
        history = capture.results[-1].history
        errors += check_history(history)
        step_s = sum(row["seconds"] for row in history) - capture.validation_s
        last = history[-1]
        if workload.name == "pretrain":
            quality = {"val_loss": last["val_loss"], "val_op_accuracy": last["val_op_accuracy"],
                       "val_ins_top1": last["val_ins_top1"], "train_loss": last["train_loss"]}
        else:
            quality = {"val_sum": last["val_sum"], "loss_total": last["loss_total"]}
            if not 0.0 < last["val_sum"] <= 9.0:
                errors.append(f"val_sum = {last['val_sum']} outside (0, 9]")
        for name in ("last", "best"):
            ckpt = out / f"{command.split('-')[1]}-{name}.ckpt"
            if not ckpt.is_file():
                errors.append(f"no checkpoint {ckpt.name} written")
    return Round(seconds={command: seconds}, quality=quality, attempted=steps,
                 failed=steps if errors else 0, errors=errors,
                 units={command: prep.n_train_users}, step_s=step_s)


def _infer_round(prep: Prepared, log_path: Path) -> Round:
    from seqrec.data import read_sequences

    out = prep.workdir / "out"
    common = ["--checkpoint", str(FIXTURE), "--data", str(prep.data)]
    seconds: dict[str, float] = {}
    quality: dict[str, float] = {}
    units: dict[str, int] = {}
    errors: list[str] = []
    attempted = failed = 0
    for label, flags, suffix, metric in (
            ("evaluate", [], "test", "test_sum"),
            ("evaluate-noisy", ["--noisy"], "test-noisy", "test_sum_noisy"),
            ("evaluate-testaug", ["--testaug"], "test-testaug", "test_sum_testaug")):
        code, seconds[label] = _timed(["evaluate", *common, "--out", str(out),
                                       "--split", "test", *flags], log_path)
        attempted += prep.n_users
        units[label] = prep.n_users
        if code != 0:
            errors.append(f"`seqrec evaluate {' '.join(flags)}` exited with {code}")
            failed += prep.n_users
            continue
        kv = read_kv(out / f"report-{suffix}.kv")
        report_errors = check_report(kv, prep.n_users)
        errors += [f"{label}: {e}" for e in report_errors]
        failed += prep.n_users if report_errors else int(kv["skipped"])
        quality[metric] = kv["sum"]

    aug_file = out / "augmented.txt"
    code, seconds["augment"] = _timed(["augment", *common, "--out-file", str(aug_file)],
                                      log_path)
    n_seqs = len(prep.user_ids)
    attempted += n_seqs
    units["augment"] = n_seqs
    if code != 0:
        errors.append(f"`seqrec augment` exited with {code}")
        failed += n_seqs
    else:
        seqs = read_sequences(aug_file)
        aug_errors = check_augmented(seqs, prep.user_ids, prep.n_items, prep.max_aug_len)
        errors += aug_errors
        failed += min(len(aug_errors), n_seqs)
        quality["augmented_items"] = float(sum(len(s.items) for s in seqs))
    return Round(seconds=seconds, quality=quality, attempted=attempted, failed=failed,
                 errors=errors, units=units)


def run_round(workload: Workload, prep: Prepared, log_path: Path) -> Round:
    if workload.name == "infer":
        return _infer_round(prep, log_path)
    return _train_round(workload, prep, log_path)


def headline_quality(workload: Workload, quality: dict[str, float]) -> float:
    """The `quality` metric: higher is better on every workload."""
    if workload.name == "pretrain":
        # The restoration loss covers the operation classifier and the
        # generator's item head; insertion top-1 accuracy is still about
        # 0.0002 after one epoch, so an accuracy would miss the generator.
        return 1.0 / quality["val_loss"]
    if workload.name == "joint":
        return quality["val_sum"]
    return quality["test_sum"] + quality["test_sum_noisy"] + quality["test_sum_testaug"]


# ---------------------------------------------------------------------------
# Trace expectations: which wrappers a workload must (not) reach
# ---------------------------------------------------------------------------

_FORWARD_OPS = ["autograd.matmul.weight", "autograd.matmul.batched",
                "autograd.embedding_lookup", "autograd.concat", "autograd.softmax",
                "autograd.layer_norm", "autograd.add", "autograd.mul", "autograd.transpose",
                "autograd.relu", "encoder.transformer_stack", "data.pad_batch"]
_TRAINING = ["autograd.backward", "autograd.cross_entropy", "autograd.dropout",
             "optim.adam_step", "data.make_batches", "checkpoint.save_checkpoint"]

EXPECTED_CALLS = {
    "pretrain": _FORWARD_OPS + _TRAINING + [
        "augmenter.augmenter_loss", "augmenter.restoration_accuracy",
        "augmenter.generator_forward", "augops.corrupt_sequence",
        "trainer.validation_aug_loss"],
    "joint": _FORWARD_OPS + _TRAINING + [
        "autograd.softplus", "augmenter.generate_augmented_batch", "recommender.rec_loss",
        "recommender.sequence_reprs", "recommender.score_candidates",
        "contrastive.batch_contrastive_loss", "contrastive.triplet_loss",
        "augops.random_augment", "data.sample_negatives", "evaluate.evaluate_model",
        "evaluate.rank_of_target", "trainer.make_contrast_views", "trainer.joint_loss",
        "checkpoint.load_checkpoint"],
    "infer": _FORWARD_OPS + [
        "augmenter.generate_augmented_batch", "recommender.score_candidates",
        "data.sample_negatives", "evaluate.evaluate_model", "evaluate.rank_of_target",
        "evaluate.simulate_noisy_testset", "checkpoint.load_checkpoint"],
}
EXPECTED_ZERO = {
    "pretrain": ["augmenter.generate_augmented_batch", "recommender.score_candidates",
                 "contrastive.batch_contrastive_loss", "contrastive.triplet_loss"],
    "joint": ["augmenter.augmenter_loss", "trainer.validation_aug_loss"],
    "infer": ["autograd.backward", "optim.adam_step", "checkpoint.save_checkpoint",
              "autograd.dropout"],
}


def check_trace(workload: str, values: dict[str, float]) -> list[str]:
    """The traced run reached every wrapper the layer table expects, and no other."""
    errors = [f"traced {workload}: no call of {name}" for name in EXPECTED_CALLS[workload]
              if values.get(f"{name}.calls", 0.0) <= 0]
    errors += [f"traced {workload}: unexpected calls of {name}"
               for name in EXPECTED_ZERO[workload] if values.get(f"{name}.calls", 0.0) > 0]
    if workload == "infer" and (values.get("augmenter.decode.steps", 0.0)
                                <= values.get("augmenter.generate_augmented_batch.calls", 0.0)):
        errors.append("traced infer: greedy decode never got past step 0")
    return errors
