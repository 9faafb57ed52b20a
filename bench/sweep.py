"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 [--trace 0] [--out bench/_out/sweep.json]

Every workload runs once per seed, each run `python3 bench/run.py ...` in
its own process, one after the other, with BENCHMARK.json's run_seconds.
Per workload and metric the summary gives the values, the median and the
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) over the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads as wl


def seed_list(raw: str) -> list[int]:
    first, _, last = raw.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(wl.BENCH_DIR / "_out" / "sweep.json"))
    args = parser.parse_args(argv)
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in wl.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=wl.ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print("\n".join(lines[-25:]), file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = {} if args.trace else {k: v[-1] for k, v in values.items()}
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in shown.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else 0.0, "values": vals}
        summary["workloads"][workload] = rows
        for name, row in ({} if args.trace else rows).items():
            print(f"  {workload} {name}: median {row['median']:.6g} spread {row['spread']:.4f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
