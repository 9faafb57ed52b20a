"""Rebuild the pinned trained-augmenter fixture of the benchmark.

    python3 bench/make_fixture.py            # train, check, write, pin
    python3 bench/make_fixture.py --verify   # train and compare with the pin

The recipe (bench/fixture/recipe.cfg) trains on ring data
SynthSpec(n_items=120, n_users=1500, structure="ring", noise_rate=0.1, seed=0):
16 phase-1 epochs (`seqrec train-augmenter`, lr 0.005), then 2 full-mode
phase-2 epochs (`seqrec train-recommender --mode full`). The last phase-2
checkpoint is re-saved without its optimizer state and with path-free
config lines, so the file depends only on the recipe, the code and the
BLAS build. A model trained only briefly decodes STOP at step 0 for every
anchor, which would leave decode unmeasured; the script refuses a result
whose greedy decode never gets past step 0 on the ring test histories.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

import workloads as wl

RECIPE = wl.BENCH_DIR / "fixture" / "recipe.cfg"
WORK = wl.BENCH_DIR / "_work" / "fixture"
DATA_USERS = 1500


def decode_depth(model, histories) -> tuple[int, int]:
    """(generate_augmented_batch calls, generator steps) over the histories.

    Each history is augmented on its own, as `seqrec augment` does; a decode
    that stops at step 0 takes exactly one generator step per call.
    """
    from seqrec.augmenter import generate_augmented
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        for history in histories:
            generate_augmented(history, model.enc, model.aug)
    finally:
        tracer.unwrap_all()
    calls = int(tracer.span_stats()["augmenter.generate_augmented_batch"]["calls"])
    return calls, int(tracer.counters["augmenter.decode.steps"])


def ring_test_histories(data_dir) -> list[list[int]]:
    """What evaluation ranks the test item from: train prefix + valid item."""
    from seqrec.data import leave_one_out_split, read_sequences

    split = leave_one_out_split(read_sequences(data_dir / "sequences.txt"))
    return [u.train + [u.valid_target] for u in split.users]


def build(out_path) -> None:
    from seqrec import cli
    from seqrec.checkpoint import load_checkpoint, save_checkpoint
    from seqrec.config import config_to_lines, parse_config_lines, read_meta

    if WORK.exists():
        shutil.rmtree(WORK)
    log = WORK / "cli.log"
    wl.synthesize(WORK, "ring", 120, DATA_USERS, 0, log)
    steps = (
        ["train-augmenter", "--data", str(WORK / "data"), "--config", str(RECIPE),
         "--out", str(WORK / "phase1")],
        ["train-recommender", "--data", str(WORK / "data"), "--config", str(RECIPE),
         "--out", str(WORK / "phase2"), "--mode", "full",
         "--augmenter", str(WORK / "phase1" / "augmenter-last.ckpt")],
    )
    for argv in steps:
        t0 = time.perf_counter()
        if wl.run_cli(argv, log) != 0:
            raise wl.BenchError(f"`seqrec {argv[0]}` failed; see {log}")
        print(f"{argv[0]}: {time.perf_counter() - t0:.1f} s")

    text, params, _, _ = load_checkpoint(WORK / "phase2" / "recommender-last.ckpt")
    lines = text.splitlines()
    cfg = parse_config_lines(lines)
    cfg.out_dir = "runs"  # the run's own paths would make the bytes path-dependent
    save_checkpoint(out_path, "\n".join(config_to_lines(cfg, read_meta(lines))) + "\n", params)

    model = cli._load_model_ckpt(out_path)[2]
    calls, steps_taken = decode_depth(model, ring_test_histories(WORK / "data"))
    print(f"greedy decode: {steps_taken} generator steps over {calls} histories")
    if steps_taken <= calls:
        os.remove(out_path)
        raise wl.BenchError("greedy decode never gets past step 0; fixture rejected")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verify", action="store_true",
                        help="rebuild into the work directory and compare with the pin")
    args = parser.parse_args(argv)
    wl.pin_process()
    sys.path.insert(0, str(wl.ROOT / "src"))
    out_path = WORK / "rebuilt.ckpt" if args.verify else wl.FIXTURE
    try:
        build(out_path)
    except wl.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    digest = wl.sha256_of(out_path)
    if args.verify:
        pinned = wl.pinned_fixture_sha256()
        print(f"rebuilt {digest}\npinned  {pinned}")
        return 0 if digest == pinned else 1
    wl.FIXTURE_SHA256.write_text(f"{digest}  {wl.FIXTURE.name}\n", encoding="utf-8")
    print(f"wrote {wl.FIXTURE} ({os.path.getsize(wl.FIXTURE)} bytes), sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
