"""fisherbound benchmark: the CLI end to end, and layer by layer.

    python3 bench/run.py --workload bell-bounds --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # every workload, one table
    python3 bench/run.py --write-golden                  # regenerate bench/golden/

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory.  Each workload runs in its own child process as a
closed loop with one client calling `cli.run_command` on a fixed list of
configs (bench/workloads.py).

--trace 0 reports the end-to-end metrics: set-up time (median over
several fresh child processes), the median wall time of one pass over the
command list, and the peak RSS of the measuring child.  --trace 1 wraps the
public entry points of every module (bench/spans.py) and reports the
per-layer metrics plus a scaling sweep at n = 1..6 (bench/sweep.py).
FISHERBOUND_THREADS is set to workloads.THREADS in the child's
environment for the measured passes; one check pass per run uses the
program default.  Both values are recorded.

Every report is checked (bench/worker.py, Gate): exit codes against
bench/golden/, bytes against the run's reference pass at
the program's default thread count, and every field against the golden report at the
golden seed.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the details.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
DEADLINE_S = 175.0
E2E_UNITS = {"peak_rss_mb": "MB", "failed_frac": "ratio"}


class ChildError(RuntimeError):
    pass


def _child(mode, workload, seed, seconds, trace, deadline):
    env = dict(os.environ)
    env["FISHERBOUND_THREADS"] = str(workloads.THREADS)
    argv = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError(f"{workload}: out of time before the {mode} child")
    try:
        done = subprocess.run(argv + ["--spawned-at", repr(time.monotonic())],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload}: {mode} child did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildError(f"{workload}: {mode} child exited with {done.returncode}")
    return json.loads(lines[-1])


def _end_to_end(workload, seed, seconds, deadline):
    # set-up children before and after the measuring child, so that a slow
    # phase of the host during either part moves the median less
    def setup_times(count):
        return [_child("setup", workload, seed, 0, 0, deadline)["setup_s"]
                for _ in range(count)]

    before = setup_times(SETUP_SAMPLES // 2)
    result = _child("run", workload, seed, seconds, 0, deadline)
    setups = before + [result["setup_s"]] + setup_times(SETUP_SAMPLES - 1 - len(before))
    e2e = result["end_to_end"]
    wall = e2e.pop("wall_s")
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall["median"], **e2e,
               "peak_rss_mb": result["peak_rss_mb"],
               "failed_frac": result["failed"] / result["attempted"]}
    detail = {"workload": workload, "seed": seed, "trace": 0, "metrics": metrics,
              "wall_s": wall, "setup_s_samples": setups,
              "environment": result["environment"], "problems": result["problems"]}
    return result, metrics, detail


def _per_layer(workload, seed, seconds, deadline):
    result = _child("run", workload, seed, seconds, 1, deadline)
    metrics = dict(result["per_layer"])
    metrics.update({name: t["value"] for name, t in result["sweep"]["timings"].items()})
    detail = {"workload": workload, "seed": seed, "trace": 1, "metrics": metrics,
              "exact_counts": result["exact_counts"], "sweep": result["sweep"],
              "environment": result["environment"], "problems": result["problems"]}
    return result, metrics, detail


def _unit(name, trace):
    return layers.unit(name) if trace else E2E_UNITS.get(name, "s")


def _print_table(detail):
    print(f"{detail['workload']}  seed={detail['seed']}  trace={detail['trace']}  "
          f"FISHERBOUND_THREADS={detail['environment']['fisherbound_threads']}")
    for name, value in detail["metrics"].items():
        print(f"  {name:44s} {value:.6g} {_unit(name, detail['trace'])}")
    for problem in detail["problems"]:
        print(f"  FAILED {problem}")


def _write_golden():
    deadline = time.monotonic() + 10 * DEADLINE_S
    (HERE / "golden").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        result = _child("golden", workload, workloads.GOLDEN_SEED, 0, 0, deadline)
        golden = {"seed": workloads.GOLDEN_SEED, "commands": result["commands"]}
        with open(HERE / "golden" / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote bench/golden/{workload}.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate bench/golden/ from the current src/")
    args = parser.parse_args()

    if not (ROOT / "src" / "fisherbound" / "__init__.py").is_file():
        print(f"no fisherbound source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_golden:
        _write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    reported = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in reported}
    wrong = {n: u for n, u in units.items() if u != _unit(n, args.trace)}
    if wrong:
        parser.error(f"BENCHMARK.json units disagree with the benchmark: {wrong}")
    measure = _per_layer if args.trace else _end_to_end

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            result, metrics, detail = measure(workload, args.seed, seconds,
                                              time.monotonic() + DEADLINE_S)
        except ChildError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        _print_table(detail)
        print(json.dumps(detail))
        missing = [name for name in units if name not in metrics]
        if missing:
            print(f"{workload}: metrics not measured: {missing}", file=sys.stderr)
            return 1
        summary["correct"] = summary["correct"] and result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, unit in units.items():
            summary["metrics"][prefix + name] = {"value": metrics[name], "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
