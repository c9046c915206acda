"""Benchmark child process: one closed-loop client running one workload.

The client calls `cli.run_command` on the workload's configs one after
another.  Modes:

  setup   import fisherbound, build every model and parameter point the
          workload uses, report the set-up time and exit;
  run     set up, then one untimed pass at the default thread count
          (traced with --trace 1), then passes at workloads.THREADS: untraced
          for --seconds (trace 0), or alternating untraced and traced for
          --seconds (trace 1);
          every report goes through the correctness gate;
  golden  one pass at the golden seed, reports returned for storage.

Prints one JSON object on its last stdout line.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
FLOAT_RTOL = 1e-9


def _import_fisherbound():
    sys.path.insert(0, str(SRC))
    import fisherbound

    if Path(fisherbound.__file__).resolve().parent != SRC / "fisherbound":
        raise SystemExit(f"imported fisherbound from {fisherbound.__file__}, not {SRC}")
    return fisherbound


class Pass:
    """Reports, exit codes and timings of one pass over the command list."""

    def __init__(self, cli, plan):
        self.commands = [command for command, _ in plan]
        self.seconds, self.texts, self.codes, self.errors = [], [], [], []
        self.start = time.perf_counter()
        for command, cfg in plan:
            t0 = time.perf_counter()
            try:
                text, code = cli.run_command(command, dict(cfg))
                error = None
            except Exception:  # a crash is a failed command, not an aborted run
                text, code, error = None, None, traceback.format_exc()
            self.seconds.append(time.perf_counter() - t0)
            self.texts.append(text)
            self.codes.append(code)
            self.errors.append(error)
        self.end = time.perf_counter()

    @property
    def wall_s(self):
        return self.end - self.start


def _first_difference(got, want, path="report"):
    """Path of the first field that differs, or None.

    Integers, strings, booleans and null match exactly; floats agree to
    FLOAT_RTOL relative.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = _first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    numbers = [type(got), type(want)]
    if float in numbers and all(t in (int, float) for t in numbers):
        if got == want or (math.isnan(got) and math.isnan(want)):
            return None
        finite = math.isfinite(got) and math.isfinite(want)
        if finite and abs(got - want) <= FLOAT_RTOL * max(abs(got), abs(want)):
            return None
        return f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


class Gate:
    """Correctness gate behind failed_frac.

    A command fails if it raises, if its exit code differs from the golden
    one, if its report bytes differ from the reference pass of this run
    (the first pass checked: another thread count, tracing state or pass
    must not change a byte), or, at the golden seed, if any report field
    differs from the golden report.
    """

    def __init__(self, golden, seed):
        self.golden = golden["commands"]
        self.compare_fields = seed == golden["seed"]
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, done, label):
        if self.reference is None:
            self.reference = done.texts
        for i, command in enumerate(done.commands):
            self.attempted += 1
            problem = self._problem(i, done)
            if problem:
                self.failed += 1
                self.problems.append(f"{label} command {i} ({command}): {problem}")

    def _problem(self, i, done):
        want = self.golden[i]
        if done.errors[i]:
            return f"raised\n{done.errors[i]}"
        if done.codes[i] != want["exit_code"]:
            return f"exit code {done.codes[i]} != golden {want['exit_code']}"
        if done.texts[i] != self.reference[i]:
            return "report bytes differ from the reference pass"
        if self.compare_fields:
            return _first_difference(json.loads(done.texts[i]), want["report"])
        return None


def _load_golden(workload):
    with open(Path(__file__).resolve().parent / "golden" / f"{workload}.json",
              encoding="utf-8") as fh:
        return json.load(fh)


def _setup(fisherbound, workload, seed):
    from fisherbound import cli, pauli

    plan = workloads.commands(workload, seed, cli, pauli)
    for command, cfg in plan:
        if command in workloads.MODEL_COMMANDS:
            cli.build_model_and_theta(cfg)
    return plan


def _tail(values):
    """Median, highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(values)
    count = len(ordered)
    out = {"median": statistics.median(ordered), "samples": count,
           "tail_percentile": None, "tail": None, "values": list(values)}
    if count > 10:
        rank = count - 10  # 1-based rank with ten samples above it
        out["tail_percentile"] = 100.0 * rank / count
        out["tail"] = ordered[rank - 1]
    return out


def _by_command(passes):
    """Per-subcommand seconds per pass, median over passes."""
    out = {}
    for command in dict.fromkeys(passes[0].commands):
        per_pass = [sum(s for c, s in zip(p.commands, p.seconds) if c == command)
                    for p in passes]
        out[f"{command}_s"] = statistics.median(per_pass)
    return out


@contextlib.contextmanager
def _default_threads():
    """Run a block at the program's default FISHERBOUND_THREADS.

    The measured passes run at workloads.THREADS; this check pass shows
    that no report depends on the thread count.
    """
    saved = os.environ.pop("FISHERBOUND_THREADS", None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ["FISHERBOUND_THREADS"] = saved


def _environment(fisherbound):
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        blas_threads = get_threads()
    except (OSError, AttributeError):
        blas_threads = None
    with _default_threads():
        default_threads = fisherbound.mle_lab.resolve_threads()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "memory_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "fisherbound_threads_env": os.environ.get("FISHERBOUND_THREADS"),
        "fisherbound_threads": fisherbound.mle_lab.resolve_threads(),
        "fisherbound_threads_default": default_threads,
    }


def _run_untraced(fisherbound, plan, gate, seconds):
    with _default_threads():
        gate.check(Pass(fisherbound.cli, plan), "warm-up (default FISHERBOUND_THREADS)")
    passes = []
    start = time.perf_counter()
    walls = []
    # stop before a pass of typical length would end past the measuring time
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(walls) <= seconds):
        done = Pass(fisherbound.cli, plan)
        gate.check(done, f"pass {len(passes)}")
        passes.append(done)
        walls.append(done.wall_s)
    return {"wall_s": _tail(walls), **_by_command(passes)}


def _run_traced(fisherbound, plan, gate, seconds, workload, seed):
    import layers
    import spans
    import sweep

    cli = fisherbound.cli
    tracer = spans.Tracer(fisherbound)

    def traced_pass(label):
        tracer.install()
        try:
            done = Pass(cli, plan)
        finally:
            tracer.uninstall()
        gate.check(done, label)
        return spans.summarize(tracer.take(), done.start, done.end)

    with _default_threads():  # also the warm-up pass
        default = traced_pass("traced pass (default FISHERBOUND_THREADS)")
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        done = Pass(cli, plan)
        gate.check(done, f"untraced pass {len(untraced)}")
        untraced.append(done.wall_s)
        traced.append(traced_pass(f"traced pass {len(traced)}"))

    golden_gate = None
    if seed != workloads.GOLDEN_SEED:
        golden_plan = workloads.commands(workload, workloads.GOLDEN_SEED, cli, fisherbound.pauli)
        golden_gate = Gate(_load_golden(workload), workloads.GOLDEN_SEED)
        golden_gate.check(Pass(cli, golden_plan), "golden-seed pass")

    per_layer, exact_counts = layers.metrics(traced, default, untraced,
                                             fisherbound.mle_lab.resolve_threads())
    return per_layer, exact_counts, sweep.run(fisherbound, seed), golden_gate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "golden"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    args = parser.parse_args()

    fisherbound = _import_fisherbound()
    plan = _setup(fisherbound, args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}

    if args.mode == "golden":
        done = Pass(fisherbound.cli, plan)
        result["commands"] = [
            {"command": c, "exit_code": code, "report": json.loads(text)}
            for c, code, text in zip(done.commands, done.codes, done.texts)
        ]
    elif args.mode == "run":
        gate = Gate(_load_golden(args.workload), args.seed)
        result["environment"] = _environment(fisherbound)
        if args.trace:
            per_layer, exact_counts, scaling, golden_gate = _run_traced(
                fisherbound, plan, gate, args.seconds, args.workload, args.seed)
            result.update(per_layer=per_layer, exact_counts=exact_counts, sweep=scaling)
            gates = [gate, golden_gate] if golden_gate else [gate]
        else:
            result["end_to_end"] = _run_untraced(fisherbound, plan, gate, args.seconds)
            gates = [gate]
        result["attempted"] = sum(g.attempted for g in gates)
        result["failed"] = sum(g.failed for g in gates)
        result["problems"] = [p for g in gates for p in g.problems]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
