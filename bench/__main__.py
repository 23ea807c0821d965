"""Run the benchmark: every workload, each in its own subprocess.

From the repository root::

    python -m bench                         # end-to-end metrics, all workloads
    python -m bench --trace                 # per-layer metrics (traced run)
    python -m bench --workload tc_watch --seed 3 --trace 0
    python -m bench --runs 10 --out results.json
    python -m bench --compare bench/baseline.json    # run, then gate
    python -m bench --compare A.json B.json          # gate B against A

Workloads, metrics, units, bounds and the time budget of a run come from
``BENCHMARK.json`` at the repository root.  Each run prints a readable
block per workload and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
on success (even when an answer was wrong: ``correct`` says so), 1 when
``--compare`` finds a regression, 2 when a run could not complete or
two result sets cannot be compared, 3 when ``--compare`` finds no
regression but cannot resolve some metric from noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench.compare import compare, exit_status, mismatch, render

ROOT = Path(__file__).resolve().parent.parent
#: A worker that outlives this is killed; a run must end within 180 s.
WORKER_TIMEOUT = 170


class BenchError(RuntimeError):
    """A run could not produce a result."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from None


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in a fresh interpreter; returns its result."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise BenchError(f"the program sources are missing: no {src}/repro")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    # Set iteration order follows the string hash seed: pin it so a
    # seed replays the same evaluation order on every run.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    command = [
        sys.executable, "-m", "bench.worker", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload} did not finish within {WORKER_TIMEOUT} s"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def render_run(result: dict, names: list[str]) -> str:
    """A readable block for one run: metrics with units and spreads."""
    rate = result["failed"] / result["attempted"]
    lines = [
        f"{result['workload']}  seed {result['seed']}  "
        f"ops {result['attempted']}  matcher {','.join(result['matchers'])}"
    ]
    if result["matchers"] != [result["default_matcher"]]:
        lines.append(
            f"  WARNING: ran off the default matcher tier "
            f"{result['default_matcher']!r}"
        )
    for name in names:
        metric = result["metrics"][name]
        line = f"  {name:38s} {metric['value']:14.6g} {metric['unit']}"
        sample = result["samples"].get(name)
        if sample:
            line += "  " + "  ".join(
                f"{key} {value:.6g}" for key, value in sample.items()
            )
        lines.append(line)
    lines.append(
        f"  {'fail_rate':38s} {rate:14.6g} ratio"
        f"   ({result['failed']}/{result['attempted']})"
    )
    return "\n".join(lines)


def result_line(runs: dict[str, list[dict]], names: list[str]) -> dict:
    """The final JSON line; several runs report each metric's median,
    several workloads prefix it with ``workload/``."""
    results = [r for rs in runs.values() for r in rs]
    metrics = {}
    for workload, rs in runs.items():
        for name in names:
            key = name if len(runs) == 1 else f"{workload}/{name}"
            metrics[key] = {
                "value": statistics.median(
                    r["metrics"][name]["value"] for r in rs
                ),
                "unit": rs[0]["metrics"][name]["unit"],
            }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def load_results(path: str) -> dict:
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read results {path}: {err}") from None
    if not isinstance(document, dict) or "runs" not in document:
        raise BenchError(f"{path} is not a results document")
    return document


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    cli = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                  formatter_class=argparse.RawTextHelpFormatter)
    cli.add_argument("--workload", choices=workloads,
                     help="run this workload only (default: all)")
    cli.add_argument("--seed", type=int, default=1,
                     help="input seed of the first run (default 1)")
    cli.add_argument("--seconds", type=float, default=spec["run_seconds"],
                     help="measured time per run; only BENCHMARK.json's "
                          "run_seconds is accepted, so every result set "
                          "is comparable")
    cli.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="report per-layer metrics")
    cli.add_argument("--runs", type=int,
                     help="runs per workload, seeds seed, seed+1, ... "
                          "(default 1, or BASE's count with --compare)")
    cli.add_argument("--out", help="add every run's result to this results "
                                   "file, creating it when missing")
    cli.add_argument("--compare", nargs="+", metavar="RESULTS",
                     help="BASE [NEW]: gate NEW (or this run) against BASE")
    args = cli.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        cli.error(f"--seconds must be run_seconds, {spec['run_seconds']}")
    if args.runs is not None and args.runs < 1:
        cli.error("--runs must be positive")
    if args.compare and len(args.compare) > 2:
        cli.error("--compare takes BASE and at most one NEW")
    if args.compare and args.trace:
        cli.error("--compare gates end-to-end metrics; drop --trace")

    try:
        if not args.compare:
            measure_all(args, spec, workloads)
            return 0
        base = load_results(args.compare[0])
        if len(args.compare) == 2:
            new = load_results(args.compare[1])
        else:
            if args.runs is None:
                args.runs = max(map(len, base["runs"].values()), default=1)
            new = measure_all(args, spec, workloads)
        why = mismatch(base, new)
        if why:
            raise BenchError(f"cannot compare these result sets: {why}")
        rows = compare(base["runs"], new["runs"], spec["end_to_end"])
        print(render(rows))
        return exit_status(rows)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


def measure_all(args, spec: dict, workloads: list[str]) -> dict:
    """Run every selected workload ``--runs`` times, report, and return
    the results document."""
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    selected = [args.workload] if args.workload else workloads
    # Adding to an existing file lets two commits be measured in turns,
    # so a drift of the machine's speed hits both sets alike.
    kept = None
    if args.out and Path(args.out).exists():
        kept = load_results(args.out)
        if (kept.get("seconds"), kept.get("trace")) != (args.seconds,
                                                         args.trace):
            raise BenchError(f"{args.out} holds runs measured with another "
                             f"--seconds or --trace")
    runs: dict[str, list[dict]] = {}
    for workload in selected:
        for i in range(args.runs or 1):
            result = run_worker(workload, args.seed + i, args.seconds,
                                args.trace)
            missing = [n for n in names if n not in result["metrics"]]
            if missing:
                raise BenchError(f"{workload} did not measure {missing}")
            print(render_run(result, list(result["metrics"])), flush=True)
            runs.setdefault(workload, []).append(result)
    document = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
    }
    if args.out:
        written = kept or dict(document, runs={})
        for workload, results in runs.items():
            written["runs"].setdefault(workload, []).extend(results)
        Path(args.out).write_text(json.dumps(written, indent=1) + "\n")
    print(json.dumps(result_line(runs, names)))
    return document


if __name__ == "__main__":
    sys.exit(main())
