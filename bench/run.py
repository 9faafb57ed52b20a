"""The seqrec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {pretrain,joint,infer} --seed N --seconds S --trace {0,1}

The seed draws DATA_SETS data sets; round i runs on data set i % DATA_SETS.
Every round starts with a fresh set-up (data synth + preprocess + fixture
check and load); the median set-up time is `setup_s`. One untimed warm-up
round comes first; then rounds repeat for about S seconds, and at least
once per data set. With --trace 0 the last stdout line reports the
end-to-end metrics of BENCHMARK.json (quality as the mean over the data
sets); with --trace 1 the first half of the time runs untraced and the
second half under the layer tracer, and the line reports the per-layer
metrics, per traced round. Every round's outputs are checked, and rounds
on the same data set must agree exactly.
Exit code 0 with a result line, 1 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl

OUT_DIR = wl.BENCH_DIR / "_out"


def run_record(args) -> dict:
    """Where and on what the run was measured."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas_name} {blas_version}",
        "blas_threads": wl.BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def git_commit() -> str:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(wl.ROOT):
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((wl.ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(wl.ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def layer_metrics(tracer, n_rounds: int) -> dict[str, float]:
    """Every per-layer figure the tracer can give, per traced round."""
    values: dict[str, float] = {}
    for name, stats in tracer.span_stats().items():
        for stat, v in stats.items():
            values[f"{name}.{stat}"] = v / n_rounds
    for name, v in tracer.counters.items():
        values[name] = v / n_rounds
    for name, v in tracer.maxima.items():
        values[f"{name}.max"] = v
    c = tracer.counters
    slots = c.get("encoder.transformer_stack.slots", 0.0)
    values["encoder.transformer_stack.pad_frac"] = (
        1.0 - c["encoder.transformer_stack.tokens"] / slots if slots else 0.0)
    computed = c.get("augmenter.decode.rows_computed", 0.0)
    values["augmenter.decode.useful_row_frac"] = (
        c["augmenter.decode.rows_used"] / computed if computed else 0.0)
    return values


def measure(args, workload: wl.Workload, work) -> tuple[dict, dict, list[str], dict]:
    """Returns (metrics, counts, errors, details)."""
    log_path = work / "cli.log"
    setup_times: list[float] = []
    rounds: list[wl.Round] = []
    references: dict[int, wl.Round] = {}  # the first round on each data set
    errors: list[str] = []

    def set_up_and_run(data_set: int, what: str) -> wl.Round:
        # A fresh set-up before every round: setup_s then samples the same
        # stretch of the run as round_s, and every round starts from
        # fresh files.
        prep = wl.setup(workload, wl.data_seed(args.seed, data_set),
                        work / f"setup-{len(setup_times)}", log_path)
        setup_times.append(prep.setup_s)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            r = wl.run_round(workload, prep, log_path)
        finally:
            shutil.rmtree(prep.workdir, ignore_errors=True)
        r.minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        errors.extend(r.errors)
        reference = references.setdefault(data_set, r)
        errors.extend(wl.check_same(reference.quality, r.quality,
                                    f"{what} on data set {data_set}"))
        rounds.append(r)
        return r

    def timed_rounds(budget_s: float, what: str, min_rounds: int) -> list[wl.Round]:
        """Closed loop over the data sets, until the next round would overrun the budget."""
        batch = []
        t0 = time.perf_counter()
        while True:
            batch.append(set_up_and_run(len(batch) % wl.DATA_SETS, what))
            elapsed = time.perf_counter() - t0
            if len(batch) >= min_rounds and elapsed * (len(batch) + 1) / len(batch) > budget_s:
                return batch

    # the first round pays one-off costs (allocator growth, first file reads)
    set_up_and_run(0, "warm-up round")
    details: dict = {}

    if not args.trace:
        # every data set runs at least once, so that quality covers them all
        timed = timed_rounds(args.seconds, "untraced round", wl.DATA_SETS)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "round_s": statistics.median(r.total_s for r in timed),
            "quality": statistics.fmean(wl.headline_quality(workload, r.quality)
                                        for r in references.values()),
        }
    else:
        from tracer import Tracer, install

        untraced = timed_rounds(args.seconds / 2, "untraced round", 1)
        tracer = Tracer()
        install(tracer)
        try:
            traced = timed_rounds(args.seconds / 2, "traced round", 1)
        finally:
            tracer.unwrap_all()
        metrics = layer_metrics(tracer, len(traced))
        untraced_s = statistics.median(r.total_s for r in untraced)
        metrics["trace.round_s"] = statistics.median(r.total_s for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.round_s"] - untraced_s
        metrics["process.minor_faults"] = statistics.median(r.minor_faults for r in traced)
        errors.extend(wl.check_trace(workload.name, metrics))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv")
        details["untraced_round_s"] = untraced_s
        timed = traced

    details["setup_runs_s"] = setup_times
    details["minor_faults"] = [r.minor_faults for r in timed]
    details["rounds"] = len(timed)
    details["round_s"] = [r.total_s for r in timed]
    details["per_call_median_s"] = {
        call: statistics.median(r.seconds[call] for r in timed) for call in timed[0].seconds}
    details["per_call_median_rate"] = {
        call: statistics.median(r.units[call] / r.seconds[call] for r in timed)
        for call in timed[0].seconds}
    details["step_median_rate"] = statistics.median(
        sum(r.units.values()) / r.step_s if r.step_s else 0.0 for r in timed)
    details["quality"] = {data_set: r.quality for data_set, r in sorted(references.items())}
    counts = {"attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds)}
    return metrics, counts, errors, details


def user_view(workload: wl.Workload, metrics: dict, counts: dict, details: dict) -> list[str]:
    """The figures a user reads, by name and unit: medians over the timed rounds,
    quality figures as the mean over the data sets."""
    per_call, rate = details["per_call_median_s"], details["per_call_median_rate"]
    sets = list(details["quality"].values())
    q = {k: statistics.fmean(qs[k] for qs in sets) for k in sets[0]}
    rows = [("setup_s", metrics["setup_s"], "s"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
            ("ops_failed_frac", counts["failed"] / counts["attempted"], "ratio"),
            ("minor_faults", statistics.median(details["minor_faults"]), "count/round")]
    if workload.name in ("pretrain", "joint"):
        command, = per_call
        rows += [("epoch_s", per_call[command], "s"),
                 ("train_seq_per_s", details["step_median_rate"], "seq/s")]
        if workload.name == "pretrain":
            rows += [("val_loss", q["val_loss"], "nats/seq"),
                     ("val_op_accuracy", q["val_op_accuracy"], "ratio"),
                     ("val_ins_top1", q["val_ins_top1"], "ratio")]
        else:
            rows += [("val_sum", q["val_sum"], "sum")]
    else:
        for call, name, unit in (("evaluate", "eval_users_per_s", "users/s"),
                                 ("evaluate-noisy", "eval_noisy_users_per_s", "users/s"),
                                 ("evaluate-testaug", "eval_testaug_users_per_s", "users/s"),
                                 ("augment", "augment_seq_per_s", "seq/s")):
            rows.append((name, rate[call], unit))
        rows += [(k, q[k], "sum") for k in ("test_sum", "test_sum_noisy", "test_sum_testaug")]
    return [f"  {name:<26} {value:>14.6g} {unit}" for name, value, unit in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        wl.pin_process()
    except wl.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(wl.ROOT / "src"))
    try:
        import seqrec.cli
    except ImportError as exc:
        print(f"error: cannot import the program from {wl.ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if not seqrec.cli.__file__.startswith(str(wl.ROOT / "src")):
        print(f"error: seqrec was imported from {seqrec.cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 1
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workload = wl.WORKLOADS[args.workload]
    work = wl.BENCH_DIR / "_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        metrics, counts, errors, details = measure(args, workload, work)
    except wl.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:  # a layer the workload never reaches records zero
        metrics = {m["name"]: 0.0 for m in declared} | metrics
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    record = run_record(args)
    print(f"seqrec benchmark: workload {workload.name}, seed {args.seed}, "
          f"{details['rounds']} {'traced' if args.trace else 'timed'} rounds")
    for key, value in record.items():
        print(f"  {key:<26} {value}")
    if not args.trace:
        print("\n".join(user_view(workload, metrics, counts, details)))
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "details": details, "errors": errors,
                    "all_metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
