"""One-command benchmark of engagerank's training and data paths.

    python3 perfbench/run.py --workload desk_mocorank --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--smoke`` shrinks every input for a quick self-test.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("desk_mocorank", "paper_mocorank", "cli_jsonl")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; a traced run alternates untraced rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs")
    return p.parse_args(argv)


def blas_info() -> dict:
    """Thread count and version read from the OpenBLAS that numpy loaded."""
    import ctypes
    import numpy as np

    info = {"numpy": np.__version__, "blas_threads": None, "blas": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({part for line in fh for part in line.split()
                       if "openblas" in part and ".so" in part})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info.update(blas_threads=threads(), blas=config().decode())
                return info
    return info


def run_rounds(workload, budget_s: float, tracer, results: dict, digests: list,
               problems: list) -> None:
    """Rounds until the next would overrun the budget, at least one of each
    kind in ``results``.  With a tracer, untraced and traced rounds
    alternate, so a drift in machine speed does not show up as tracing
    overhead."""
    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        try:
            times, dig, round_problems = workload.round(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        results["traced" if traced else "untraced"].append(times)
        digests.append(dig)
        problems += round_problems
        n += 1
        elapsed = time.perf_counter() - start
        if n >= len(results) and elapsed + elapsed / n > budget_s:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "engagerank" / "__init__.py").is_file():
        print(f"perfbench: no engagerank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread for this process and every command it starts
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import tracer as tracing
    import workloads

    run_dir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for old in run_dir.glob("*"):
        if old.is_file():
            old.unlink()
    env = dict(blas_info(), nproc=os.cpu_count(), python=platform.python_version(),
               workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, smoke=args.smoke)

    if args.workload == "cli_jsonl":
        workload = workloads.CliWorkload(args.seed, args.smoke, ROOT, run_dir)
    else:
        preset = "desk" if args.workload == "desk_mocorank" else "paper_scale"
        workload = workloads.MocorankWorkload(preset, args.seed, args.smoke)

    tracer = tracing.Tracer() if args.trace else None
    results = {"untraced": [], "traced": []} if args.trace else {"untraced": []}
    digests, problems = [], []
    failed = 0
    workload.start()
    try:
        run_rounds(workload, args.seconds, tracer, results, digests, problems)
        problems += workload.final_checks()
    except Exception:                      # an operation of the program failed
        traceback.print_exc()
        failed = 1
        problems.append("an operation failed; see the traceback above")
    finally:
        workload.stop()
    n_rounds = sum(len(r) for r in results.values())
    attempted = n_rounds * workload.ops_per_round + failed
    if len(set(digests)) > 1:
        problems.append(f"rounds ended with {len(set(digests))} different parameter "
                        "sets; traced and untraced runs must agree bitwise")

    metrics = {}
    if not failed and not args.trace:
        rounds = results["untraced"]
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_kb = rss_children if args.workload == "cli_jsonl" else rss_self
        metrics = {
            "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
            "train_samples_per_s": (sum(r.train_records for r in rounds)
                                    / sum(r.train_s for r in rounds), "records/s"),
            "eval_records_per_s": (sum(r.eval_records for r in rounds)
                                   / sum(r.eval_s for r in rounds), "records/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    elif not failed:
        traced = results["traced"]
        # each traced round against the untraced round just before it
        overhead = statistics.median(
            t.wall_s / u.wall_s for u, t in zip(results["untraced"], traced)) - 1.0
        layers = workload.layer_counts(tracer)
        metrics = tracing.layer_metrics(layers["summary"], layers["counts"],
                                        len(traced), workload.distinct,
                                        layers["cli"], 100.0 * overhead)
        with open(run_dir / "trace.json", "w") as fh:
            json.dump(dict(layers["trace"], env=env, rounds=len(traced)), fh)

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "rounds": {
        phase: [[r.setup_s, r.train_records / r.train_s, r.eval_records / r.eval_s]
                for r in rounds] for phase, rounds in results.items()}}))
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
