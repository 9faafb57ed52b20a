"""Tests of the benchmark itself: metric names, tiny runs, and every check.

    python3 -m pytest bench/test_bench.py -q

The tiny runs use the real set-up, rounds and tracer with a few hundred
users, so each workload completes in seconds. Every output check is fed a
deliberately broken input, so that no check passes vacuously.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import shutil
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import make_fixture  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from seqrec.data import ItemSequence  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Small enough for seconds per round; ring data keeps all 120 items, so the
# fixture still fits the catalog.
TINY = {
    "pretrain": dataclasses.replace(wl.WORKLOADS["pretrain"], n_items=120, n_users=150),
    "joint": dataclasses.replace(wl.WORKLOADS["joint"], n_users=200),
    "infer": dataclasses.replace(wl.WORKLOADS["infer"], n_users=200),
}


def test_metric_and_workload_names():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """measure() of each tiny workload, untraced and traced."""
    out = {}
    for name, workload in TINY.items():
        for trace in (0, 1):
            work = tmp_path_factory.mktemp(f"{name}-{trace}")
            args = Namespace(workload=name, seed=3, seconds=0.01, trace=trace)
            out[name, trace] = run.measure(args, workload, work)
    return out


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_completes_checked(tiny_runs, name):
    for trace in (0, 1):
        metrics, counts, errors, _ = tiny_runs[name, trace]
        assert errors == []
        assert counts["attempted"] >= 1 and counts["failed"] == 0
        declared = SPEC["per_layer" if trace else "end_to_end"]
        values = [metrics.get(m["name"], 0.0) for m in declared]
        assert all(math.isfinite(v) for v in values)
    # traced and untraced rounds agree exactly on the outputs of each data set
    untraced, traced = tiny_runs[name, 0][3]["quality"], tiny_runs[name, 1][3]["quality"]
    assert sorted(untraced) == list(range(wl.DATA_SETS))
    assert traced and traced.items() <= untraced.items()
    if name != "infer":  # the step loop is timed apart from validation
        assert 0 < tiny_runs[name, 0][3]["step_median_rate"] < math.inf


def test_every_declared_layer_metric_is_produced(tiny_runs):
    produced = set()
    for name in TINY:
        produced |= set(tiny_runs[name, 1][0])
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_predicted_split_on_tiny_runs(tiny_runs):
    infer = tiny_runs["infer", 1][0]
    assert infer.get("autograd.backward.calls", 0.0) == 0.0
    assert infer["augmenter.decode.steps"] > infer["augmenter.generate_augmented_batch.calls"]
    assert tiny_runs["pretrain", 1][0].get("augmenter.generate_augmented_batch.calls", 0) == 0


# ---------------------------------------------------------------------------
# Each check fires on broken input
# ---------------------------------------------------------------------------

GOOD_REPORT = {"hr@5": 0.5, "hr@10": 0.6, "hr@20": 0.7, "mrr@5": 0.3, "mrr@10": 0.31,
               "mrr@20": 0.32, "ndcg@5": 0.35, "ndcg@10": 0.38, "ndcg@20": 0.4,
               "sum": 3.86, "users": 98.0, "skipped": 2.0}


def test_check_report():
    assert wl.check_report(GOOD_REPORT, 100) == []
    broken = [
        {"hr@10": 0.4},  # HR@5 > HR@10
        {"hr@20": 0.55},  # HR@10 > HR@20
        {"mrr@5": 0.51},  # MRR@5 > HR@5
        {"ndcg@20": 1.5},  # outside [0, 1]
        {"sum": math.nan},
        {"users": 97.0},  # evaluated + skipped != user count
    ]
    for change in broken:
        assert wl.check_report({**GOOD_REPORT, **change}, 100), change


def test_check_augmented():
    users = ["a", "b"]
    good = [ItemSequence("a", [1, 2]), ItemSequence("b", [120])]
    assert wl.check_augmented(good, users, 120, 60) == []
    for seqs in ([ItemSequence("a", []), good[1]],
                 [ItemSequence("a", [1] * 61), good[1]],
                 [ItemSequence("a", [0, 1]), good[1]],
                 [ItemSequence("a", [121]), good[1]],
                 good[:1]):
        assert wl.check_augmented(seqs, users, 120, 60)


def test_check_history_and_same():
    good = [{"epoch": 0, "train_loss": 1.0, "val_loss": 2.0}]
    assert wl.check_history(good) == []
    assert wl.check_history([{"epoch": 0, "train_loss": math.inf, "val_loss": 2.0}])
    assert wl.check_history([])
    assert wl.check_same({"val_sum": 1.0}, {"val_sum": 1.0}, "r") == []
    assert wl.check_same({"val_sum": 1.0}, {"val_sum": 1.0 + 1e-15}, "r")


def test_check_trace(tiny_runs):
    for name in TINY:
        values = tiny_runs[name, 1][0]
        assert wl.check_trace(name, values) == []
        missing = dict(values)
        missing[f"{wl.EXPECTED_CALLS[name][0]}.calls"] = 0.0
        assert wl.check_trace(name, missing)
    infer = tiny_runs["infer", 1][0]
    assert wl.check_trace("infer", {**infer, "autograd.backward.calls": 1.0})
    stuck = {**infer, "augmenter.decode.steps": infer["augmenter.generate_augmented_batch.calls"]}
    assert wl.check_trace("infer", stuck)


def test_fixture_hash_is_checked(tmp_path):
    wl.check_fixture()
    tampered = tmp_path / "fixture.ckpt"
    data = bytearray(wl.FIXTURE.read_bytes())
    data[-1] ^= 1
    tampered.write_bytes(bytes(data))
    with pytest.raises(wl.BenchError, match="sha256"):
        wl.check_fixture(tampered)


def test_decode_depth_detects_stop_at_step_zero(tmp_path):
    """The recipe's rejection rule: a decode stuck at step 0 is caught."""
    from seqrec import cli

    model = cli._load_model_ckpt(wl.FIXTURE)[2]
    data = wl.synthesize(tmp_path, "ring", 120, 200, 3, tmp_path / "cli.log")
    histories = make_fixture.ring_test_histories(data)[:20]
    calls, steps = make_fixture.decode_depth(model, histories)
    assert calls == 20 and steps > calls
    # Make STOP the argmax for every anchor: the generator's output is the
    # constant ones vector, items score 0 and STOP scores embed_dim.
    broken = copy.deepcopy(model)
    broken.aug.gen_blocks[-1].ln2_g.data[:] = 0.0
    broken.aug.gen_blocks[-1].ln2_b.data[:] = 1.0
    broken.enc.item_emb.data[:] = 0.0
    broken.aug.stop_emb.data[:] = 1.0
    calls, steps = make_fixture.decode_depth(broken, histories)
    assert steps == calls


def test_tracer_self_time():
    tracer = Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    tracer.start[0], tracer.end[0] = 0.0, 10.0
    tracer.start[1], tracer.end[1] = 2.0, 5.0
    stats = tracer.span_stats()
    assert stats["a"] == {"calls": 1.0, "total_s": 10.0, "self_s": 7.0}
    assert stats["b"] == {"calls": 1.0, "total_s": 3.0, "self_s": 3.0}


def test_wrappers_are_removed():
    from seqrec import autograd as ag
    from seqrec import trainer
    from tracer import install

    before = (ag.matmul, trainer.augmenter_loss)
    tracer = Tracer()
    install(tracer)
    assert ag.matmul is not before[0] and trainer.augmenter_loss is not before[1]
    tracer.unwrap_all()
    assert (ag.matmul, trainer.augmenter_loss) == before


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and bench/, exit non-zero, no result."""
    import subprocess

    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "infer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
