"""Per-layer metrics from the span summaries of the traced passes.

Metrics come from the traced pass of median wall time at the measured
thread count.  Counts must repeat exactly across every traced pass,
including the one at the program's default thread count; the layer self
times plus the unattributed time must add up to each pass's wall time.  Either
failing raises.
"""

import statistics
from collections import defaultdict

ATTRIBUTION_RTOL = 1e-9
COUNT_SUFFIXES = (".calls", ".elements", ".probes", ".trials_run", ".checks", ".threads")


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith(".bytes_computed"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


def _exact_counts(summary):
    """Every count that must not depend on timing or thread count."""
    out = {f"{name}.calls": entry["calls"] for name, entry in summary["names"].items()}
    for name, counters in summary["counts"].items():
        for key, value in counters.items():
            if not key.endswith("_max"):
                out[f"{name}.{key}"] = value
    return out


def _check_attribution(summary):
    total = sum(e["self_s"] for e in summary["names"].values()) + summary["unattributed_s"]
    if abs(total - summary["pass_s"]) > ATTRIBUTION_RTOL * summary["pass_s"]:
        raise RuntimeError(
            f"self times {total!r} s do not add up to the pass time {summary['pass_s']!r} s")


def _pass_metrics(summary):
    names, counts = summary["names"], summary["counts"]

    def get(name, field):
        return names.get(name, {}).get(field, 0)

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    m = {
        "trace.pass_s": summary["pass_s"],
        "trace.unattributed_s": summary["unattributed_s"],
        "cli.run_command.self_s": get("cli.run_command", "self_s"),
        "cli.render_report.s": get("cli.render_report", "s"),
        "models.build.s": get("models.build", "s"),
        "models.d2logp.bytes_computed": count("models.d2logp", "bytes_computed"),
        "models.mle_batch.self_s": get("models.mle_batch", "self_s"),
        "pauli.fwht.elements": count("pauli.fwht", "elements"),
        "pauli.fwht.bytes_computed": count("pauli.fwht", "bytes_computed"),
        "pauli.sign_matrix.s": get("pauli.sign_matrix", "s"),
        "fisher.spectral_stats.s": get("fisher.spectral_stats", "s"),
        "bounds.estimate_coefficients.self_s": get("bounds.estimate_coefficients", "self_s"),
        "mle_lab.success_probability.self_s": get("mle_lab.success_probability", "self_s"),
        "mle_lab.probes": count("mle_lab.find_min_samples", "probes"),
        "mle_lab.trials_run": count("mle_lab.find_min_samples", "trials_run"),
        "verify.run_checks.s": get("verify.run_checks", "s"),
        "verify.checks": count("verify.run_checks", "checks"),
        "verify.check_s.max": count("verify.run_checks", "check_s_max"),
    }
    for name in ("models.d2logp", "models.mle_batch", "pauli.fwht", "fisher.fim",
                 "fisher.estimable", "bounds.estimate_coefficients", "bounds.evaluators",
                 "special_functions.lambert_w0", "mle_lab.find_min_samples",
                 "mle_lab.success_probability"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    trials = m["mle_lab.trials_run"]
    search_s = m["mle_lab.find_min_samples.s"]
    m["mle_lab.trials_per_s"] = trials / search_s if search_s else 0.0
    m["mle_lab.fail_probe_trial_frac"] = (
        count("mle_lab.find_min_samples", "fail_probe_trials") / trials if trials else 0.0)
    modules = defaultdict(float)
    for name, entry in names.items():
        modules[name.split(".")[0]] += entry["self_s"]
    for module, seconds in modules.items():
        m[f"{module}.self_s"] = seconds
    return m


def metrics(traced, default_threads, untraced_walls, threads):
    """Per-layer metrics of the median traced pass, and the exact counts.

    Runs the exact-count self-test and the attribution check first.
    """
    reference = _exact_counts(traced[0])
    for label, summary in [(f"traced pass {i}", s) for i, s in enumerate(traced)] + [
            ("traced pass at the default thread count", default_threads)]:
        _check_attribution(summary)
        counts = _exact_counts(summary)
        if counts != reference:
            diff = {k: (reference.get(k), counts.get(k))
                    for k in sorted(set(reference) | set(counts))
                    if reference.get(k) != counts.get(k)}
            raise RuntimeError(f"exact-count self-test failed on {label}: {diff}")
    # one whole pass, so that its self times add up to its pass time
    middle = statistics.median_low(s["pass_s"] for s in traced)
    out = _pass_metrics(next(s for s in traced if s["pass_s"] == middle))
    out["mle_lab.threads"] = threads
    out["trace.overhead_frac"] = out["trace.pass_s"] / statistics.median(untraced_walls) - 1.0
    return out, reference
