"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads sweep,deep]
                                [--trace-seed N] [--out FILE]

Each (workload, seed) runs once, in its own process, with the settings in
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound; the
ungated latency percentiles and error rate from the ``detail`` line too.
``--trace-seed`` adds one traced run per workload and its per-layer metrics.
``--out`` writes the same summary, every raw value and the run environment
as JSON, which is how a baseline is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    detail = next((json.loads(line[7:]) for line in lines if line.startswith("detail ")), {})
    return env, detail, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = ([w["name"] for w in bench["workloads"]] if args.workloads is None
             else args.workloads.split(","))
    report = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in args.seeds:
            env, detail, result = run_once(workload, seed, bench["run_seconds"])
            failed += result["failed"] + (not result["correct"])
            for name, metric in {**result["metrics"], **detail}.items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        summary = {name: summarise(v) for name, v in values.items()}
        report["workloads"][workload] = {"failed": failed, "env": env, "metrics": summary}
        if args.trace_seed is not None:
            _, _, traced = run_once(workload, args.trace_seed, bench["run_seconds"], trace=1)
            report["workloads"][workload]["per_layer"] = {
                "seed": args.trace_seed,
                "failed": traced["failed"],
                "metrics": {n: m["value"] for n, m in traced["metrics"].items()},
            }
        for name, s in summary.items():
            bound = bounds.get(name)
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            over = bound is not None and spread != "-" and s["spread"] > bound
            flag = "  OVER BOUND" if over else ""
            print(f"  {name:<14} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {spread} (bound {bound}){flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
