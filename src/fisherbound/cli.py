"""Command-line surface: bounds, simulate, fisher, separation, verify.

A run is described by a flat JSON config (unknown keys rejected) merged
with command-line flags, flags winning.  Reports are CSV (RFC 4180, 17
significant digits, two `#` header lines carrying tool version, seed,
the resolved config and the run meta) or a JSON object with the same
rows; re-running from the embedded config reproduces a report byte for
byte.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 sample
budget exceeded (partial report still written).
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__, bounds, fisher, mle_lab, models, pauli, verify

__all__ = ["ConfigError", "main", "run_command"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

PAULI_SCHEMES = ("entangled-pauli", "separable-pauli", "two-copy-bell")
CLASSICAL_SCHEMES = ("bernoulli", "multinomial", "poisson", "gaussian-known-var")

DEFAULTS = {
    "scheme": "entangled-pauli",
    "n": 1,
    "epsilon": 0.1,
    "delta": 0.1,
    "norm": "linf",
    "trials": 2000,
    "seed": 0,
    "m_max": 2**22,
    "resolution": 1,
    "be_constant": 0.4748,
    "format": "csv",
    "out": None,
    "preset": "depolarizing",
    "param_seed": 1,
    "lambda": None,
    "theta": None,
    "r": None,
    "dim": 3,
    "truncation": 20,
    "grid_points": 0,
    "n_min": 1,
    "n_max": 8,
    "simulate_upto": 0,
    "wilson_level": 0.95,
    "inject_fault": None,
}

COLUMNS = {
    "bounds": ["bound_id", "kind", "norm", "value", "applicable", "reason",
               "limiting_term", "provenance", "epsilon", "delta", "d"],
    "simulate": ["scheme", "n", "epsilon", "delta", "norm", "m_star", "rate",
                 "wilson_lo", "wilson_hi", "lower_bound", "upper_bound", "seed"],
    "fisher": ["coordinate", "inv_diag", "qfim_inv_diag", "abs_diff",
               "estimable", "sigma"],
    "separation": ["n", "entangled_upper", "separable_lower", "ratio",
                   "m_star_entangled", "m_star_separable"],
    "verify": ["check", "passed", "detail"],
}


class ConfigError(ValueError):
    """Bad config file or flag combination; mapped to exit code 2."""


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must contain a JSON object")
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    return raw


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, the config file, and flags; flags win."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key in DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    if cfg["scheme"] not in PAULI_SCHEMES + CLASSICAL_SCHEMES:
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}")
    if cfg["norm"] not in ("linf", "l2"):
        raise ConfigError(f"norm must be 'linf' or 'l2', got {cfg['norm']!r}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    if not 0.0 < cfg["delta"] < 1.0:
        raise ConfigError("delta must be in (0, 1)")
    if not cfg["epsilon"] > 0.0:
        raise ConfigError("epsilon must be positive")
    if cfg["n"] < 1 or cfg["n_min"] < 1 or cfg["n_max"] < cfg["n_min"]:
        raise ConfigError("qubit counts must satisfy 1 <= n and n_min <= n_max")
    for key in ("trials", "m_max", "resolution"):
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], int):
            raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}")
    if cfg["trials"] < 1:
        raise ConfigError("trials must be >= 1")
    if cfg["resolution"] < 1:
        raise ConfigError("resolution must be >= 1")
    # sample counts are scored in float64, which holds integers exactly to 2**53
    if not 1 <= cfg["m_max"] <= 2**53:
        raise ConfigError("m_max must be in [1, 2**53]")
    if cfg["inject_fault"] is not None and cfg["inject_fault"] not in verify.FAULT_TARGETS:
        raise ConfigError(
            f"unknown fault target {cfg['inject_fault']!r}; known: {verify.FAULT_TARGETS}"
        )


def build_model_and_theta(cfg: dict):
    """Instantiate the configured scheme and resolve its parameter point."""
    scheme = cfg["scheme"]
    n = cfg["n"]
    explicit = cfg["lambda"] if cfg["lambda"] is not None else cfg["theta"]

    if scheme == "entangled-pauli":
        model = models.entangled_pauli_model(n)
        theta = _resolve_pauli_theta(cfg, n, explicit)
    elif scheme == "two-copy-bell":
        model = models.two_copy_bell_model(n)
        if explicit is not None:
            theta = np.asarray(explicit, dtype=float)
        elif cfg["preset"] == "random":
            # squared moments of a random pure product state are always valid
            rng = np.random.default_rng(np.random.SeedSequence(cfg["param_seed"]))
            bloch = rng.standard_normal((n, 3))
            bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
            theta = 0.99 * pauli.product_probe(bloch)[1:] ** 2
        else:
            theta = np.zeros(model.d)
    elif scheme == "separable-pauli":
        if cfg["r"] is not None:
            r = np.asarray(cfg["r"], dtype=float)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(cfg["param_seed"]))
            bloch = rng.standard_normal((n, 3))
            bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
            r = pauli.product_probe(bloch)
        model = models.separable_pauli_model(n, r)
        theta = (np.asarray(explicit, dtype=float) if explicit is not None
                 else np.zeros(model.d))
    elif scheme == "bernoulli":
        model = models.bernoulli_model()
        theta = (np.asarray(explicit, dtype=float) if explicit is not None
                 else np.array([0.5]))
    elif scheme == "multinomial":
        model = models.multinomial_model(cfg["dim"])
        theta = (np.asarray(explicit, dtype=float) if explicit is not None
                 else np.full(cfg["dim"], 1.0 / (cfg["dim"] + 1)))
    elif scheme == "poisson":
        model = models.PoissonTruncatedModel(cfg["truncation"])
        theta = (np.asarray(explicit, dtype=float) if explicit is not None
                 else np.array([1.0]))
    elif scheme == "gaussian-known-var":
        model = models.GaussianKnownCovModel(np.eye(cfg["dim"]))
        theta = (np.asarray(explicit, dtype=float) if explicit is not None
                 else np.zeros(cfg["dim"]))
    else:  # pragma: no cover - guarded by _validate_config
        raise ConfigError(f"unknown scheme {scheme!r}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.d,):
        raise ConfigError(
            f"{scheme} expects a parameter vector of length {model.d}, "
            f"got {theta.shape}"
        )
    # boundary/domain checks are left to the command paths: the fisher
    # command reports an undefined FIM instead of failing
    return model, theta


def _resolve_pauli_theta(cfg, n, explicit):
    d = pauli.num_paulis(n) - 1
    if explicit is not None:
        theta = np.asarray(explicit, dtype=float)
        if theta.shape == (d + 1,):
            theta = theta[1:]
        return theta
    preset = cfg["preset"]
    if preset == "depolarizing":
        return np.zeros(d)
    if preset == "identity":
        return np.ones(d)
    if preset == "random":
        rng = np.random.default_rng(np.random.SeedSequence(cfg["param_seed"]))
        return pauli.random_valid_eigenvalues(n, rng)[1:]
    raise ConfigError(f"unknown preset {preset!r}")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.17g}"
    return str(value)


def render_report(rows, command, meta, fmt):
    columns = COLUMNS[command]
    if fmt == "json":
        payload = {"meta": meta, "rows": [
            {col: row.get(col) for col in columns} for row in rows
        ]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    compact = dict(separators=(",", ":"), sort_keys=True)
    extras = {k: v for k, v in meta.items()
              if k not in ("tool_version", "seed", "command", "config")}
    buffer = io.StringIO()
    buffer.write(
        f"# fisherbound={__version__} seed={meta['seed']} "
        f"config={json.dumps(meta['config'], **compact)}\n"
    )
    buffer.write(f"# meta={json.dumps(extras, **compact)}\n")
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    return buffer.getvalue()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(cfg, command, **extra):
    meta = {"tool_version": __version__, "seed": cfg["seed"], "command": command,
            "config": {**cfg, "command": command}}
    meta.update(extra)
    return meta


def _bound_row(bound_id, kind, norm, result, eps, delta, d):
    return {
        "bound_id": bound_id,
        "kind": kind,
        "norm": norm,
        "value": float(result.value) if result.applicable else None,
        "applicable": result.applicable,
        "reason": result.reason,
        "limiting_term": result.limiting_term,
        "provenance": result.provenance,
        "epsilon": eps,
        "delta": delta,
        "d": d,
    }


def cmd_bounds(cfg: dict) -> tuple[list, dict, int]:
    model, theta = build_model_and_theta(cfg)
    eps, delta, c = cfg["epsilon"], cfg["delta"], cfg["be_constant"]
    grid = _theta_grid(cfg, model, theta)

    norms = ("linf", "l2")
    upper_fns = {"linf": bounds.upper_bound_linf, "l2": bounds.upper_bound_l2}
    lower_fns = {"linf": bounds.lower_bound_linf, "l2": bounds.lower_bound_l2}
    best_upper = dict.fromkeys(norms)
    lower = {}
    # one Fisher matrix per point, shared by both norms; grid[0] is theta,
    # so its coefficients also feed the lower bounds
    for index, point in enumerate(grid):
        f = fisher.fim(model, point)
        for norm in norms:
            coeffs = bounds.estimate_coefficients(model, point, eps, norm,
                                                  constant=c, fisher=f)
            candidate = upper_fns[norm](eps, delta, coeffs)
            best = best_upper[norm]
            if best is None or _bound_sort_key(candidate) > _bound_sort_key(best):
                best_upper[norm] = candidate
            if index == 0:
                lower[norm] = lower_fns[norm](eps, delta, coeffs)

    rows = []
    for norm in norms:
        rows.append(_bound_row(f"upper-{norm}", "upper", norm, best_upper[norm],
                               eps, delta, model.d))
        rows.append(_bound_row(f"lower-{norm}", "lower", norm, lower[norm],
                               eps, delta, model.d))

    if cfg["scheme"] in PAULI_SCHEMES:
        n = cfg["n"]
        rows.append({
            "bound_id": "entangled-upper-asymptotic", "kind": "upper", "norm": "linf",
            "value": bounds.entangled_pauli_upper(n, eps, delta), "applicable": True,
            "reason": "", "limiting_term": "small-eps limit", "provenance": "exact",
            "epsilon": eps, "delta": delta, "d": model.d,
        })
        rows.append({
            "bound_id": "separable-lower-asymptotic", "kind": "lower", "norm": "linf",
            "value": bounds.separable_pauli_lower(n, eps, delta), "applicable": True,
            "reason": "", "limiting_term": "small-eps limit", "provenance": "exact",
            "epsilon": eps, "delta": delta, "d": model.d,
        })
    meta = _meta(cfg, "bounds", grid_points=len(grid), domain_shrink=DOMAIN_SHRINK)
    return rows, meta, EXIT_OK


def _bound_sort_key(result):
    if not result.applicable:
        return (2, math.inf)
    return (1, result.value)


DOMAIN_SHRINK = 1e-6


def _theta_grid(cfg, model, theta):
    """Parameter points for the documented supremum search.

    Random draws are pulled toward the depolarizing point by the
    DOMAIN_SHRINK margin: the supremum is taken over the shrunk interior
    because the Fisher machinery degenerates on the domain boundary.
    """
    grid = [theta]
    extra = cfg["grid_points"]
    if extra > 0 and cfg["scheme"] in ("entangled-pauli", "two-copy-bell"):
        rng = np.random.default_rng(np.random.SeedSequence(cfg["param_seed"]))
        for _ in range(extra):
            lam = (1.0 - DOMAIN_SHRINK) * pauli.random_valid_eigenvalues(cfg["n"], rng)[1:]
            point = np.abs(lam) if cfg["scheme"] == "two-copy-bell" else lam
            if model.contains(point):
                grid.append(point)
    return grid


def cmd_simulate(cfg: dict) -> tuple[list, dict, int]:
    model, theta = build_model_and_theta(cfg)
    eps, delta, norm = cfg["epsilon"], cfg["delta"], cfg["norm"]
    f = fisher.fim(model, theta)
    if norm == "linf":
        lower = bounds.asymptotic_lower_linf(eps, delta, float(f.inverse_diag().max()))
    else:
        lower = bounds.asymptotic_lower_l2(eps, delta, f.lambda_max_inverse())
    coeffs = bounds.estimate_coefficients(model, theta, eps, norm,
                                          constant=cfg["be_constant"], fisher=f)
    upper_fn = bounds.upper_bound_linf if norm == "linf" else bounds.upper_bound_l2
    upper = upper_fn(eps, delta, coeffs)

    def base_row(**kwargs):
        row = {"scheme": cfg["scheme"], "n": cfg["n"], "epsilon": eps, "delta": delta,
               "norm": norm, "lower_bound": lower,
               "upper_bound": upper.value if upper.applicable else None,
               "seed": cfg["seed"]}
        row.update(kwargs)
        return row

    try:
        result = mle_lab.find_min_samples(
            model, theta, eps, delta, norm,
            trials=cfg["trials"], seed=cfg["seed"], resolution=cfg["resolution"],
            m_max=cfg["m_max"], level=cfg["wilson_level"],
        )
    except mle_lab.BudgetExceededError as exc:
        rows = [base_row(m_star=None, rate=probe.rate, wilson_lo=probe.wilson_lo,
                         wilson_hi=probe.wilson_hi) for probe in exc.probes[-1:]]
        meta = _meta(cfg, "simulate", budget_exceeded=True, error=str(exc))
        return rows, meta, EXIT_BUDGET
    rows = [base_row(m_star=result.m_star, rate=result.rate_at_m_star,
                     wilson_lo=result.wilson_lo, wilson_hi=result.wilson_hi)]
    meta = _meta(cfg, "simulate", bracket=list(result.bracket),
                 stable_at_double=result.stable_at_double,
                 upper_bound_applicable=upper.applicable,
                 upper_bound_reason=upper.reason)
    return rows, meta, EXIT_OK


def cmd_fisher(cfg: dict) -> tuple[list, dict, int]:
    model, theta = build_model_and_theta(cfg)
    try:
        f = fisher.fim(model, theta)
    except fisher.FimUndefinedError as exc:
        meta = _meta(cfg, "fisher", fim_defined=False, reason=str(exc))
        return [], meta, EXIT_OK

    inv_diag = f.inverse_diag()
    sigma = np.sqrt(np.clip(inv_diag, 0.0, None))
    closed = _closed_form_inverse_diag(cfg, model, theta)
    rows = []
    for a in range(model.d):
        qfim_value = None if closed is None else float(closed[a])
        rows.append({
            "coordinate": a,
            "inv_diag": float(inv_diag[a]),
            "qfim_inv_diag": qfim_value,
            "abs_diff": None if qfim_value is None or not math.isfinite(qfim_value)
            else abs(float(inv_diag[a]) - qfim_value),
            "estimable": fisher.estimable(f, a),
            "sigma": float(sigma[a]),
        })
    stats = fisher.spectral_stats(f)
    meta = _meta(cfg, "fisher", fim_defined=True, opnorm_inv=stats.opnorm_inv,
                 lambda_max_inv=stats.max_eig_inv,
                 used_pseudoinverse=stats.used_pseudoinverse)
    return rows, meta, EXIT_OK


def _closed_form_inverse_diag(cfg, model, theta):
    if cfg["scheme"] in ("entangled-pauli", "two-copy-bell"):
        return fisher.qfim_inverse_diag_pauli(theta)
    if cfg["scheme"] == "separable-pauli":
        values, _ = fisher.separable_qfim_inverse_diag(model.r, theta)
        return values
    return None


def cmd_separation(cfg: dict) -> tuple[list, dict, int]:
    eps, delta = cfg["epsilon"], cfg["delta"]
    rows = []
    for n in range(cfg["n_min"], cfg["n_max"] + 1):
        upper = bounds.entangled_pauli_upper(n, eps, delta)
        lower = bounds.separable_pauli_lower(n, eps, delta)
        row = {"n": n, "entangled_upper": upper, "separable_lower": lower,
               "ratio": lower / upper, "m_star_entangled": None,
               "m_star_separable": None}
        if cfg["simulate_upto"] >= n:
            ent = models.entangled_pauli_model(n)
            sep = models.separable_pauli_model(
                n, pauli.product_probe(np.tile([0.0, 0.0, 1.0], (n, 1)))
            )
            row["m_star_entangled"] = mle_lab.find_min_samples(
                ent, np.zeros(ent.d), eps, delta, cfg["norm"],
                trials=cfg["trials"], seed=cfg["seed"], m_max=cfg["m_max"],
            ).m_star
            row["m_star_separable"] = mle_lab.find_min_samples(
                sep, np.zeros(sep.d), eps, delta, cfg["norm"],
                trials=cfg["trials"], seed=cfg["seed"], m_max=cfg["m_max"],
            ).m_star
        rows.append(row)
    meta = _meta(cfg, "separation")
    return rows, meta, EXIT_OK


def cmd_verify(cfg: dict) -> tuple[list, dict, int]:
    results = verify.run_checks(seed=cfg["seed"] or 2024, fault=cfg["inject_fault"])
    rows = [{"check": r.name, "passed": r.passed, "detail": r.detail}
            for r in results]
    failures = [r for r in results if not r.passed]
    meta = _meta(cfg, "verify", passed=len(results) - len(failures),
                 failed=len(failures),
                 first_failure=failures[0].name if failures else None)
    if failures:
        print(f"first failing check: {failures[0].name}", file=sys.stderr)
    return rows, meta, EXIT_OK if not failures else EXIT_VERIFY_FAILED


COMMANDS = {
    "bounds": cmd_bounds,
    "simulate": cmd_simulate,
    "fisher": cmd_fisher,
    "separation": cmd_separation,
    "verify": cmd_verify,
}


def run_command(command: str, cfg: dict) -> tuple[str, int]:
    rows, meta, code = COMMANDS[command](cfg)
    return render_report(rows, command, meta, cfg["format"]), code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherbound",
        description="Sample-complexity bounds for maximum-likelihood quantum "
                    "learning, with Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("bounds", "evaluate the finite-sample and asymptotic bounds"),
        ("simulate", "search for the empirical minimal sample size"),
        ("fisher", "Fisher matrix diagnostics at a parameter point"),
        ("separation", "entangled-vs-separable sample complexity table"),
        ("verify", "run the cross-module invariant suite"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--format", choices=["csv", "json"])
        cmd.add_argument("--trials", type=int)
        cmd.add_argument("--epsilon", type=float)
        cmd.add_argument("--delta", type=float)
        cmd.add_argument("--norm", choices=["linf", "l2"])
        cmd.add_argument("--scheme")
        cmd.add_argument("--n", type=int)
        cmd.add_argument("--be-constant", dest="be_constant", type=float)
        cmd.add_argument("--m-max", dest="m_max", type=int)
        cmd.add_argument("--preset")
        cmd.add_argument("--param-seed", dest="param_seed", type=int)
        cmd.add_argument("--grid-points", dest="grid_points", type=int)
        cmd.add_argument("--resolution", type=int)
        if name == "separation":
            cmd.add_argument("--n-min", dest="n_min", type=int)
            cmd.add_argument("--n-max", dest="n_max", type=int)
            cmd.add_argument("--simulate-upto", dest="simulate_upto", type=int)
        if name == "verify":
            cmd.add_argument("--inject-fault", dest="inject_fault",
                             choices=list(verify.FAULT_TARGETS),
                             help="test-only corruption hook")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        text, code = run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(text, cfg["out"])
    return code


if __name__ == "__main__":
    sys.exit(main())
