"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout: twistlab is pure Python and is imported
from the ``src`` directory next to this one, so there is nothing to build.
``--workload all`` runs every workload, each in its own process.

With ``--trace 0`` the workload's query set is answered repeatedly: twice,
then again until the next repetition would end after ``--seconds``.  Each
repetition runs in a fresh worker process (this script with ``--rep``), so it
starts with cold library caches and a fresh heap, as a new process has them,
and no state or peak memory carries over.  The end-to-end metrics are medians
over the repetitions.  With ``--trace 1`` one untraced and one traced
repetition run, and the per-layer metrics come from the spans of the traced
one.  Human-readable lines come first; the last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "deep")
SETUP_SAMPLES = 5
MIN_REPS = 2  # a median needs company: even a rep longer than --seconds runs twice
TAIL_BEYOND = 10  # query_tail_ms is the highest percentile with this many samples above it
OUT_DIR = ROOT / ".bench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ environment


def _commit():
    """HEAD of the checkout's git metadata, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "twistlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = None
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ one repetition (worker side)


class Rep:
    """One pass over the query set: wall clock, per-query latencies, answers."""

    def __init__(self, wall, latencies, answers, skeleton_misses):
        self.wall = wall
        self.latencies = latencies
        self.answers = answers
        self.skeleton_misses = skeleton_misses


def _is_error(answer) -> bool:
    return isinstance(answer, dict) and set(answer) == {"error"}


def run_rep(workloads, queries, tracer=None) -> Rep:
    from twistlab import specht

    workloads.reset_caches()
    gc.collect()
    state: dict = {}
    latencies, answers = [], []
    misses = specht._skeleton.cache_info().misses
    if tracer is not None:
        tracer.install()
    try:
        clock = time.perf_counter
        began = clock()
        for query in queries:
            start = clock()
            try:
                answer = query.answer(query.run(state))
            except Exception as exc:  # a failed query counts in error_rate; the loop goes on
                answer = {"error": f"{type(exc).__name__}: {exc}"}
                print(f"query failed: {query.label}", file=sys.stderr)
                traceback.print_exc()
            latencies.append(clock() - start)
            answers.append(answer)
        wall = clock() - began
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Rep(wall, latencies, answers, specht._skeleton.cache_info().misses - misses)


def worker(args) -> int:
    """Set up, answer the query set once (traced with --trace 1), print one JSON line."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import twistlab.cli  # noqa: F401  (pulls in every layer and numpy)
    import workloads

    queries = workloads.build(args.workload, args.seed)
    workloads.warm_up()
    setup = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    rep = run_rep(workloads, queries, tracer)
    out = {
        "setup_s": setup,
        "wall_s": rep.wall,
        "latencies": rep.latencies,
        "answers": rep.answers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # KiB
        "skeleton_misses": rep.skeleton_misses,
    }
    if tracer is not None:
        out["summary"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": tracer.spans}))
        out["spans_file"] = str(path)
    print(json.dumps(out))
    return 0


# ------------------------------------------------------------------ measuring (parent side)


def spawn(args, flag: str, trace: int = 0) -> dict:
    """Run one worker process to its end and return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), flag]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker {flag} exited with {done.returncode}")
    return json.loads(lines[-1])


def count_failures(queries, answer_sets) -> int:
    """Check the first rep's answers; later reps must repeat them exactly."""
    first = answer_sets[0]
    verified = []
    for query, answer in zip(queries, first):
        try:
            ok = not _is_error(answer) and bool(query.check(answer, first))
        except Exception:  # a check that raises is a failed check
            print(f"check raised: {query.label}", file=sys.stderr)
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"check failed: {query.label}", file=sys.stderr)
        verified.append(ok)
    failed = verified.count(False)
    for answers in answer_sets[1:]:
        failed += sum(1 for ok, a, b in zip(verified, answers, first) if not ok or a != b)
    return failed


def tail(latencies):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, 1)  # 1-based rank of the reported sample
    return ordered[k - 1], 100.0 * k / n, n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, queries) -> dict:
    reps = [spawn(args, "--rep") for _ in range(MIN_REPS)]
    walls = [r["wall_s"] for r in reps]
    while sum(walls) + statistics.mean(walls) <= args.seconds:
        reps.append(spawn(args, "--rep"))
        walls.append(reps[-1]["wall_s"])
    setups = [r["setup_s"] for r in reps]
    setups += [spawn(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - len(reps))]
    failed = count_failures(queries, [r["answers"] for r in reps])
    attempted = len(queries) * len(reps)
    tails = [tail(r["latencies"]) for r in reps]
    _, pct, n = tails[0]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in reps), "s"),
        "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in reps), "MB"),
    }
    # printed and kept by spread.py, but not gated: see README, "Steadiness"
    detail = {
        "query_p50_ms": _metric(statistics.median(
            statistics.median(r["latencies"]) for r in reps) * 1e3, "ms"),
        "query_tail_ms": _metric(statistics.median(t[0] for t in tails) * 1e3, "ms"),
        "error_rate": _metric(failed / attempted, "ratio"),
    }
    detail["query_tail_ms"].update(percentile=pct, queries=n)
    print(f"workload {args.workload}  seed {args.seed}  {len(reps)} reps of {n} queries,"
          " one fresh process each")
    print(f"setup samples {', '.join(f'{s:.4f}' for s in setups)} s (median reported)")
    print(f"rep walls {', '.join(f'{w:.4f}' for w in walls)} s")
    for name, m in {**metrics, **detail}.items():
        note = {
            "query_tail_ms": f"  (p{pct:.1f} of {n} queries per rep)",
            "error_rate": f"  ({failed} failed of {attempted} attempted)",
        }.get(name, "")
        print(f"{name:<15} {m['value']:.6g} {m['unit']}{note}")
    print("detail " + json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(args, queries) -> dict:
    from collections import Counter, defaultdict

    import spans

    plain = spawn(args, "--rep")
    traced = spawn(args, "--rep", trace=1)
    failed = count_failures(queries, [plain["answers"], traced["answers"]])
    summary = traced["summary"]
    summary = {"calls": Counter(summary["calls"]), "self_s": defaultdict(float, summary["self_s"]),
               "covered_s": summary["covered_s"]}
    extra = {
        "skeleton_misses": traced["skeleton_misses"],
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": plain["wall_s"],
    }
    counters = Counter(traced["counters"])
    metrics = {
        name: _metric(value(summary, counters, extra), unit)
        for name, unit, value in spans.PER_LAYER
    }
    print(f"workload {args.workload}  seed {args.seed}  spans in {traced['spans_file']}")
    print(f"untraced wall {plain['wall_s']:.4f} s, traced wall {traced['wall_s']:.4f} s")
    for name, m in metrics.items():
        print(f"{name:<26} {m['value']:.6g} {m['unit']}")
    attempted = 2 * len(queries)
    print(f"{'error_rate':<26} {failed / attempted:.6g}"
          f"  ({failed} failed of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so no peak or cache leaks into the next."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"perfbench: no twistlab sources in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.rep or args.setup_only:
        return worker(args)

    # the checks need the library here too; importing it first also compiles
    # it once, before any worker times its set-up
    sys.path.insert(0, str(SRC))
    import twistlab
    import workloads

    if not Path(twistlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: twistlab imported from {twistlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    queries = workloads.build(args.workload, args.seed)
    print("env " + json.dumps(environment(args), sort_keys=True))
    result = measure_traced(args, queries) if args.trace else measure(args, queries)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
