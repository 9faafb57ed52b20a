"""Command-line entry point.

Subcommands: preprocess, corrupt, augment, train-augmenter,
train-recommender, evaluate, simulate-noise, sweep, synth. Every command
honours --seed; identical config + seed reproduces identical artifacts.
Exit code 0 on success, 1 with a one-line diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import autograd as ag
from .augmenter import generate_augmented_batch
from .augops import OP_NAMES, CorruptionConfig, corrupt_sequence
from .checkpoint import load_checkpoint, save_checkpoint
from .config import MODES, RunConfig, config_to_lines, load_config, parse_config_lines, read_meta
from .data import (
    ItemSequence,
    Vocabulary,
    build_sequences,
    dataset_stats,
    five_core_filter,
    leave_one_out_split,
    parse_interactions,
    read_sequences,
    read_vocabulary,
    write_sequences,
    write_vocabulary,
)
from .errors import ConfigError
from .evaluate import NoisySimConfig, evaluate_model, simulate_noisy_testset
from .optim import AdamState, ParamStore
from .synthgen import SynthSpec, generate, write_interactions, write_truth
from .trainer import (
    MODES_NEEDING_AUGMENTER,
    RecModel,
    dims_from_config,
    generation_op_proportions,
    model_arrays,
    model_from_arrays,
    train_augmenter,
    train_recommender,
)


def _load_processed(data_dir):
    data_dir = Path(data_dir)
    sequences = read_sequences(data_dir / "sequences.txt")
    vocab = read_vocabulary(data_dir / "vocab.txt")
    return sequences, vocab


def _data_dir(args, cfg: RunConfig) -> str:
    """--data flag, falling back to the config's processed_dir."""
    data = getattr(args, "data", None) or cfg.processed_dir
    if not data:
        raise ConfigError("no data directory: pass --data or set processed_dir")
    return data


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "mode", None) is not None:
        cfg.mode = args.mode
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    cfg.validate()
    ag.set_default_dtype(np.float32 if cfg.precision == "float32" else np.float64)
    return cfg


def _read_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return _apply_overrides(cfg, args)


def _save_model_ckpt(path, cfg: RunConfig, model: RecModel, phase: str, epoch: int,
                     opt: AdamState | None = None) -> None:
    meta = {"n_items": model.dims.n_items, "phase": phase, "epoch": epoch}
    text = "\n".join(config_to_lines(cfg, meta)) + "\n"
    if opt is None:
        save_checkpoint(path, text, model_arrays(model))
    else:
        save_checkpoint(path, text, model_arrays(model),
                        opt_step=opt.step_count, opt_arrays=opt.state_arrays())


def _load_model_ckpt(path):
    """Returns (cfg, meta, model, opt_step, opt_arrays)."""
    text, params, opt_step, opt_arrays = load_checkpoint(path)
    lines = text.splitlines()
    cfg = parse_config_lines(lines)
    meta = read_meta(lines)
    if "n_items" not in meta:
        raise ConfigError("checkpoint config lacks the _n_items record")
    ag.set_default_dtype(np.float32 if cfg.precision == "float32" else np.float64)
    dims = dims_from_config(cfg, int(meta["n_items"]))
    model = model_from_arrays(dims, params, seed=cfg.seed)
    return cfg, meta, model, opt_step, opt_arrays


def _train_logger(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train-log.txt"

    def log(line: str) -> None:
        print(line)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    return log


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    cfg = _read_config(args)
    input_path = args.input or cfg.interactions
    if not input_path:
        raise ConfigError("no input log: pass --input or set interactions")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    interactions = parse_interactions(input_path)
    filtered = five_core_filter(interactions)
    vocab = Vocabulary.from_interactions(filtered)
    sequences = build_sequences(filtered, vocab, max_len=cfg.max_len)
    write_sequences(out_dir / "sequences.txt", sequences)
    write_vocabulary(out_dir / "vocab.txt", vocab)
    stats = dataset_stats(sequences, vocab)
    stats_line = (
        f"users={stats['users']} items={stats['items']} records={stats['records']} "
        f"avg_length={stats['avg_length']:.2f} density={stats['density']:.4%}"
    )
    (out_dir / "stats.txt").write_text(stats_line + "\n", encoding="utf-8")
    print(stats_line)
    return 0


def cmd_corrupt(args) -> int:
    cfg = _read_config(args)
    sequences, vocab = _load_processed(_data_dir(args, cfg))
    ccfg = CorruptionConfig(cfg.p_keep, cfg.p_delete, cfg.p_insert,
                            max_insert_run=cfg.max_insert, n_items=vocab.n_items)
    shown = 0
    for seq in sequences:
        if len(seq.items) < 2:
            continue
        record = corrupt_sequence(seq.items, ccfg, seed=cfg.seed)
        print(f"user {seq.user_id}")
        print(f"  original: {' '.join(map(str, seq.items))}")
        print(f"  modified: {' '.join(map(str, record.s_mod))}")
        print(f"  ops:      {' '.join(OP_NAMES[o] for o in record.ops)}")
        for pos in sorted(record.ins_targets):
            run = " ".join(map(str, record.ins_targets[pos]))
            print(f"  insert@{pos}: {run}  (reverse order)")
        if record.tail_targets:
            print(f"  tail:     {' '.join(map(str, record.tail_targets))}  (reverse order)")
        shown += 1
        if shown >= args.limit:
            break
    return 0


def cmd_augment(args) -> int:
    ckpt_cfg, _meta, model, _, _ = _load_model_ckpt(args.checkpoint)
    sequences, _vocab = _load_processed(_data_dir(args, ckpt_cfg))
    if model.aug is None:
        raise ConfigError("checkpoint has no augmenter parameters")
    augmented = []
    for start in range(0, len(sequences), ckpt_cfg.batch_size):
        chunk = sequences[start:start + ckpt_cfg.batch_size]
        outs = generate_augmented_batch([s.items for s in chunk], model.enc, model.aug)
        augmented += [ItemSequence(s.user_id, out) for s, out in zip(chunk, outs)]
    write_sequences(args.out_file, augmented)
    print(f"wrote {len(augmented)} augmented sequences to {args.out_file}")
    return 0


def cmd_train_augmenter(args) -> int:
    cfg = _read_config(args)
    sequences, vocab = _load_processed(_data_dir(args, cfg))
    split = leave_one_out_split(sequences)
    out_dir = Path(cfg.out_dir)
    log = _train_logger(out_dir)
    model = opt_state = None
    start_epoch = 0
    if args.resume:
        r_cfg, meta, model, opt_step, opt_arrays = _load_model_ckpt(args.resume)
        if not args.config:  # an explicit --config wins over the stored one
            cfg = _apply_overrides(r_cfg, args)
        start_epoch = int(meta.get("epoch", -1)) + 1
        params = ParamStore(model.named_params(("enc", "aug")))
        opt_state = AdamState(params, lr=cfg.lr)
        if opt_arrays is not None:
            opt_state.load_state_arrays(opt_arrays, opt_step)

    def on_epoch(epoch, model, opt, row, improved):
        _save_model_ckpt(out_dir / "augmenter-last.ckpt", cfg, model, "augmenter",
                         epoch, opt=opt)
        if improved:
            _save_model_ckpt(out_dir / "augmenter-best.ckpt", cfg, model,
                             "augmenter", epoch, opt=opt)

    result = train_augmenter(split, vocab, cfg, model=model, opt=opt_state,
                             start_epoch=start_epoch, on_epoch=on_epoch, log=log)
    log(f"best augmenter epoch {result.best_epoch} (val loss {result.best_metric:.4f})")
    return 0


def cmd_train_recommender(args) -> int:
    cfg = _read_config(args)
    sequences, vocab = _load_processed(_data_dir(args, cfg))
    split = leave_one_out_split(sequences)
    out_dir = Path(cfg.out_dir)
    log = _train_logger(out_dir)
    pretrained = None
    if args.augmenter:
        _a_cfg, _a_meta, pretrained, _, _ = _load_model_ckpt(args.augmenter)
        ag.set_default_dtype(np.float32 if cfg.precision == "float32" else np.float64)
    elif cfg.mode in MODES_NEEDING_AUGMENTER:
        raise ConfigError(f"mode {cfg.mode!r} needs --augmenter CKPT")
    model = opt_state = None
    start_epoch = 0
    if args.resume:
        r_cfg, meta, model, opt_step, opt_arrays = _load_model_ckpt(args.resume)
        if not args.config:  # an explicit --config wins over the stored one
            cfg = _apply_overrides(r_cfg, args)
        start_epoch = int(meta.get("epoch", -1)) + 1
        parts = ("enc", "rec", "aug") if cfg.mode == "cotrain" else ("enc", "rec")
        params = ParamStore(model.named_params(parts))
        opt_state = AdamState(params, lr=cfg.lr)
        if opt_arrays is not None:
            opt_state.load_state_arrays(opt_arrays, opt_step)

    def on_epoch(epoch, model, opt, row, improved):
        _save_model_ckpt(out_dir / "recommender-last.ckpt", cfg, model,
                         "recommender", epoch, opt=opt)
        if improved:
            _save_model_ckpt(out_dir / "recommender-best.ckpt", cfg, model,
                             "recommender", epoch, opt=opt)

    result = train_recommender(split, vocab, cfg, pretrained=pretrained,
                               model=model, opt=opt_state, start_epoch=start_epoch,
                               on_epoch=on_epoch, log=log)
    log(f"best recommender epoch {result.best_epoch} (val sum {result.best_metric:.4f})")
    return 0


def _parse_ratio(raw: str) -> tuple[float, float, float]:
    parts = [float(x) for x in raw.split(":")]
    if len(parts) != 3:
        raise ConfigError(f"ratio must be three ':'-separated numbers, got {raw!r}")
    return tuple(parts)


def cmd_evaluate(args) -> int:
    cfg, _meta, model, _, _ = _load_model_ckpt(args.checkpoint)
    cfg = _apply_overrides(cfg, args)
    if model.rec is None:
        raise ConfigError("checkpoint has no recommender parameters")
    sequences, vocab = _load_processed(_data_dir(args, cfg))
    split = leave_one_out_split(sequences)
    noisy = None
    if args.noisy:
        noisy = NoisySimConfig(ratio=_parse_ratio(args.noisy_ratio), seed=cfg.seed)
    transform = None
    if args.testaug:
        if model.aug is None:
            raise ConfigError("--testaug needs augmenter parameters in the checkpoint")
        transform = lambda histories: generate_augmented_batch(histories, model.enc, model.aug)
    report = evaluate_model(split, vocab, model.enc, model.rec, which=args.split,
                            seed=cfg.seed, n_negatives=cfg.n_negatives,
                            batch_size=cfg.batch_size, noisy=noisy,
                            transform_context=transform)
    print(report.to_text())
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = args.split + ("-noisy" if args.noisy else "") + ("-testaug" if args.testaug else "")
    (out_dir / f"report-{suffix}.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    (out_dir / f"report-{suffix}.kv").write_text("\n".join(report.to_kv_lines()) + "\n",
                                                 encoding="utf-8")
    return 0


def cmd_simulate_noise(args) -> int:
    cfg = _read_config(args)
    sequences, vocab = _load_processed(_data_dir(args, cfg))
    noisy_cfg = NoisySimConfig(ratio=_parse_ratio(args.ratio), seed=cfg.seed)
    noised = simulate_noisy_testset(sequences, noisy_cfg, vocab)
    write_sequences(args.out_file, noised)
    print(f"wrote {len(noised)} noised sequences to {args.out_file}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _read_config(args)
    sequences, vocab = _load_processed(_data_dir(args, cfg))
    split = leave_one_out_split(sequences)
    grids: list[tuple[str, list[str]]] = []
    for spec in args.grid:
        key, _, raw = spec.partition("=")
        if not raw:
            raise ConfigError(f"--grid needs key=v1,v2 form, got {spec!r}")
        if key not in ("alpha", "beta", "probs"):
            raise ConfigError(f"sweepable keys are alpha, beta, probs; got {key!r}")
        grids.append((key, raw.split(",")))
    if not grids:
        raise ConfigError("sweep needs at least one --grid")
    sweep_probs = any(key == "probs" for key, _ in grids)

    cells: list[dict[str, str]] = [{}]
    for key, values in grids:
        cells = [dict(cell, **{key: v}) for cell in cells for v in values]

    base_aug = None
    if not sweep_probs and cfg.mode in MODES_NEEDING_AUGMENTER:
        print("training shared augmenter for the sweep...")
        base_aug = train_augmenter(split, vocab, cfg)

    rows = []
    for cell in cells:
        cell_cfg = dataclasses.replace(cfg)
        if "alpha" in cell:
            cell_cfg.alpha = float(cell["alpha"])
        if "beta" in cell:
            cell_cfg.beta = float(cell["beta"])
        if "probs" in cell:
            pk, pd, pi = _parse_ratio(cell["probs"])
            cell_cfg.p_keep, cell_cfg.p_delete, cell_cfg.p_insert = pk, pd, pi
        cell_cfg.validate()
        pretrained = None
        if cell_cfg.mode in MODES_NEEDING_AUGMENTER:
            if sweep_probs:
                phase1 = train_augmenter(split, vocab, cell_cfg)
                pretrained = phase1.model
            else:
                pretrained = base_aug.model
        phase2 = train_recommender(split, vocab, cell_cfg, pretrained=pretrained)
        report = evaluate_model(split, vocab, phase2.model.enc, phase2.model.rec,
                                which="test", seed=cell_cfg.seed,
                                n_negatives=cell_cfg.n_negatives,
                                batch_size=cell_cfg.batch_size)
        row = dict(cell)
        row["sum"] = f"{report.total:.4f}"
        if sweep_probs and phase2.model.aug is not None:
            props = generation_op_proportions([u.train for u in split.users if len(u.train) >= 2],
                                              phase2.model, batch_size=cell_cfg.batch_size)
            row["operation"] = "[" + ", ".join(f"{100 * p:.0f}%" for p in props) + "]"
        rows.append(row)
        print(" | ".join(f"{k}={v}" for k, v in row.items()))

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = sorted({k for row in rows for k in row})
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(row.get(k, "")) for k in header))
    (out_dir / "sweep.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_items=args.items,
        n_users=args.users,
        structure=args.structure,
        n_blocks=args.blocks,
        in_block_prob=args.in_block_prob,
        min_len=args.min_len,
        max_len=args.max_len,
        noise_rate=args.noise,
        seed=args.seed if args.seed is not None else 0,
    )
    interactions, truth = generate(spec)
    write_interactions(args.out_file, interactions)
    if args.truth:
        write_truth(args.truth, truth)
    print(f"wrote {len(interactions)} interactions for {spec.n_users} users to {args.out_file}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqrec")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, seed=True, out=False, mode=False):
        if config:
            p.add_argument("--config", help="key = value config file")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        if out:
            p.add_argument("--out", help="output directory")
        if mode:
            p.add_argument("--mode", choices=MODES, help="training/ablation mode")

    p = sub.add_parser("preprocess", help="filter raw interactions into sequence files")
    p.add_argument("--input", help="raw interaction log (or config interactions)")
    p.add_argument("--out", required=True, help="output directory")
    common(p, out=False)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("corrupt", help="show corruption records for inspection")
    p.add_argument("--data", help="preprocessed data directory (or config processed_dir)")
    p.add_argument("--limit", type=int, default=5, help="how many users to show")
    common(p)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("augment", help="write augmenter outputs for a sequence file")
    p.add_argument("--data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-file", required=True)
    common(p, config=False)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train-augmenter", help="phase 1: restoration pretraining")
    p.add_argument("--data")
    p.add_argument("--resume", help="checkpoint to continue from")
    common(p, out=True)
    p.set_defaults(func=cmd_train_augmenter)

    p = sub.add_parser("train-recommender", help="phase 2: joint training")
    p.add_argument("--data")
    p.add_argument("--augmenter", help="phase-1 checkpoint")
    p.add_argument("--resume", help="checkpoint to continue from")
    common(p, out=True, mode=True)
    p.set_defaults(func=cmd_train_recommender)

    p = sub.add_parser("evaluate", help="sampled top-K metrics for a checkpoint")
    p.add_argument("--data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.add_argument("--noisy", action="store_true", help="damage test histories first")
    p.add_argument("--noisy-ratio", default="4:3:3")
    p.add_argument("--testaug", action="store_true",
                   help="augment each history with the learned augmenter before scoring")
    common(p, config=False, out=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate-noise", help="write a noised copy of a sequence file")
    p.add_argument("--data")
    p.add_argument("--out-file", required=True)
    p.add_argument("--ratio", default="4:3:3")
    common(p)
    p.set_defaults(func=cmd_simulate_noise)

    p = sub.add_parser("sweep", help="grid sweep over alpha/beta or corruption probs")
    p.add_argument("--data")
    p.add_argument("--grid", action="append", default=[],
                   help="key=v1,v2 (alpha, beta) or probs=pk:pd:pi,...")
    common(p, out=True, mode=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic interaction log")
    p.add_argument("--out-file", required=True)
    p.add_argument("--truth", help="sidecar file for noised positions")
    p.add_argument("--items", type=int, default=120)
    p.add_argument("--users", type=int, default=2000)
    p.add_argument("--structure", choices=("ring", "block"), default="ring")
    p.add_argument("--blocks", type=int, default=12)
    p.add_argument("--in-block-prob", type=float, default=0.9)
    p.add_argument("--min-len", type=int, default=8)
    p.add_argument("--max-len", type=int, default=18)
    p.add_argument("--noise", type=float, default=0.0)
    common(p, config=False)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
