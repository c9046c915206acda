"""Command-line surface: bounds, simulate, fisher, separation, verify.

A run is described by a flat JSON config (unknown keys rejected) merged
with command-line flags, flags winning.  Reports are CSV (RFC 4180, 17
significant digits, two `#` header lines carrying tool version, seed,
the resolved config and the run meta) or a JSON object with the same
rows; re-running from the embedded config reproduces a report byte for
byte.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 sample
budget exceeded (partial report still written), 4 internal error (an
unexpected exception, printed with its traceback).
"""

import argparse
import csv
import io
import json
import math
import sys
import traceback

import numpy as np

from . import __version__, bounds, fisher, mle_lab, models, pauli, verify

__all__ = ["ConfigError", "main", "run_command"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# Esseen's lower limit (sqrt(10) + 3) / (6 sqrt(2 pi)) on the Berry-Esseen
# constant: for smaller constants the inequality fails for some distribution
_ESSEEN_LOWER_LIMIT = (math.sqrt(10.0) + 3.0) / (6.0 * math.sqrt(2.0 * math.pi))

# The bounds multiply delta^-2, eps^-2 and, for the Bell models, d^2 < 16^n.
# Each factor may take a quarter of float64's binary exponent range, 2^256,
# so that their product with W0 and the inverse-Fisher scalars stays
# finite: eps in [2^-128, 2^128], delta >= 2^-128 and qubit counts <= 64.
_FACTOR_EXP = sys.float_info.max_exp // 4
_SCALE_EXP = _FACTOR_EXP // 2
_MAX_QUBITS = _FACTOR_EXP // 4

SCHEMES = ("entangled-pauli", "separable-pauli", "two-copy-bell",
           "bernoulli", "multinomial", "poisson", "gaussian-known-var")
# parameter-point presets per scheme; schemes not listed take only "depolarizing"
PRESETS = {"entangled-pauli": ("depolarizing", "identity", "random"),
           "two-copy-bell": ("depolarizing", "random")}

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
    if cfg["scheme"] not in SCHEMES:
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}")
    if cfg["norm"] not in bounds.NORMS:
        raise ConfigError(f"norm must be one of {bounds.NORMS}, got {cfg['norm']!r}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    for key in ("n", "n_min", "n_max", "dim", "truncation", "grid_points",
                "simulate_upto", "seed", "param_seed", "trials", "m_max", "resolution"):
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], int):
            raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}")
    for key in ("epsilon", "delta", "be_constant", "wilson_level"):
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], (int, float)):
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
        if not _finite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    for key in ("lambda", "theta", "r"):
        value = cfg[key]
        if value is not None and not (isinstance(value, list) and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
            raise ConfigError(f"{key} must be null or a flat list of numbers, got {value!r}")
        if value is not None and not all(_finite(x) for x in value):
            raise ConfigError(f"{key} must hold finite numbers, got {value!r}")
    presets = PRESETS.get(cfg["scheme"], ("depolarizing",))
    if cfg["preset"] not in presets:
        raise ConfigError(
            f"preset {cfg['preset']!r} is not available for {cfg['scheme']}; "
            f"known: {presets}"
        )
    if cfg["wilson_level"] not in mle_lab.Z_FOR_LEVEL:
        raise ConfigError(
            f"wilson_level must be one of {tuple(mle_lab.Z_FOR_LEVEL)}, "
            f"got {cfg['wilson_level']!r}"
        )
    if not 2.0**-_SCALE_EXP <= cfg["delta"] < 1.0:
        raise ConfigError(f"delta must be in [2**-{_SCALE_EXP}, 1) for the bounds to stay "
                          f"within float64, got {cfg['delta']!r}")
    if not 2.0**-_SCALE_EXP <= cfg["epsilon"] <= 2.0**_SCALE_EXP:
        raise ConfigError(f"epsilon must be in [2**-{_SCALE_EXP}, 2**{_SCALE_EXP}] for the "
                          f"bounds to stay within float64, got {cfg['epsilon']!r}")
    if not cfg["be_constant"] >= _ESSEEN_LOWER_LIMIT:
        raise ConfigError(
            f"be_constant must be >= {_ESSEEN_LOWER_LIMIT:.5f}, below which no "
            f"Berry-Esseen constant holds, got {cfg['be_constant']!r}"
        )
    for key in ("n", "n_min", "n_max"):
        if not 1 <= cfg[key] <= _MAX_QUBITS:
            raise ConfigError(f"{key} must be in [1, {_MAX_QUBITS}] for 16^{key} to stay "
                              f"within float64, got {cfg[key]!r}")
    if cfg["n_max"] < cfg["n_min"]:
        raise ConfigError("n_max must be >= n_min")
    for key, least in (("dim", 1), ("truncation", 1), ("grid_points", 0),
                       ("simulate_upto", 0), ("seed", 0), ("param_seed", 0),
                       ("trials", 1), ("resolution", 1)):
        if cfg[key] < least:
            raise ConfigError(f"{key} must be >= {least}")
    # sample counts are scored in float64, which holds integers exactly to 2**53
    if not 1 <= cfg["m_max"] <= 2**53:
        raise ConfigError("m_max must be in [1, 2**53]")
    if cfg["inject_fault"] is not None and cfg["inject_fault"] not in verify.FAULT_TARGETS:
        raise ConfigError(
            f"unknown fault target {cfg['inject_fault']!r}; known: {verify.FAULT_TARGETS}"
        )


def _finite(x) -> bool:
    """Whether a JSON number is a finite float64 (NaN, +-inf and huge ints are not)."""
    return abs(x) <= sys.float_info.max


def build_model_and_theta(cfg: dict):
    """Instantiate the configured scheme and resolve its parameter point."""
    scheme, n, dim = cfg["scheme"], cfg["n"], cfg["dim"]
    if scheme == "entangled-pauli":
        model = models.entangled_pauli_model(n)
        theta = _eigenvalue_preset(cfg, n, model.d)
    elif scheme == "two-copy-bell":
        model = models.two_copy_bell_model(n)
        # squared moments of a random pure product state are always valid
        theta = (0.99 * _random_product_state(cfg["param_seed"], n)[1:] ** 2
                 if cfg["preset"] == "random" else np.zeros(model.d))
    elif scheme == "separable-pauli":
        r = cfg["r"] if cfg["r"] is not None else _random_product_state(cfg["param_seed"], n)
        model = models.separable_pauli_model(n, r)
        theta = np.zeros(model.d)
    elif scheme == "bernoulli":
        model, theta = models.bernoulli_model(), [0.5]
    elif scheme == "multinomial":
        model, theta = models.multinomial_model(dim), np.full(dim, 1 / (dim + 1))
    elif scheme == "poisson":
        model, theta = models.PoissonTruncatedModel(cfg["truncation"]), [1.0]
    else:  # gaussian-known-var; _validate_config admits no other scheme
        model, theta = models.gaussian_known_var_model(dim), np.zeros(dim)
    if cfg["lambda"] is not None and cfg["theta"] is not None:
        raise ConfigError("lambda and theta name the same parameter vector; set at most one")
    key = "lambda" if cfg["lambda"] is not None else "theta"
    if cfg[key] is not None:
        theta = np.asarray(cfg[key], dtype=float)
        if scheme == "entangled-pauli" and theta.shape == (model.d + 1,):
            if abs(theta[0] - 1.0) > pauli.SIMPLEX_TOL:
                raise ConfigError(f"{key}[0] is the identity eigenvalue and must be 1, "
                                  f"got {theta[0]!r}")
            theta = theta[1:]
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.d,):
        raise ConfigError(
            f"{scheme} expects a parameter vector of length {model.d}, "
            f"got {theta.shape}"
        )
    # boundary/domain checks are left to the command paths: the fisher
    # command reports an undefined FIM instead of failing
    return model, theta


def _random_product_state(param_seed, n):
    """Pauli vector of a pure product state with random Bloch directions."""
    rng = np.random.default_rng(np.random.SeedSequence(param_seed))
    bloch = rng.standard_normal((n, 3))
    bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
    return pauli.product_probe(bloch)


def _eigenvalue_preset(cfg, n, d):
    if cfg["preset"] == "depolarizing":
        return np.zeros(d)
    if cfg["preset"] == "identity":
        return np.ones(d)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["param_seed"]))
    return pauli.random_valid_eigenvalues(n, rng)[1:]


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
    # the documented supremum search runs over theta and the model's random points
    grid = [theta]
    if cfg["grid_points"] > 0:
        rng = np.random.default_rng(np.random.SeedSequence(cfg["param_seed"]))
        grid.extend(model.random_points(rng, cfg["grid_points"]))

    # grid[0] is theta, so its coefficients also feed the lower bounds
    per_point = [bounds.estimate_coefficients(model, point, eps, constant=c) for point in grid]
    rows = []
    for norm in bounds.NORMS:
        # the supremum over the grid; an inapplicable candidate sorts above all
        upper = max((bounds.upper_bound(eps, delta, coeffs, norm) for coeffs in per_point),
                    key=_bound_sort_key)
        lower = bounds.lower_bound(eps, delta, per_point[0], norm)
        rows.append(_bound_row(f"upper-{norm}", "upper", norm, upper,
                               eps, delta, model.d))
        rows.append(_bound_row(f"lower-{norm}", "lower", norm, lower,
                               eps, delta, model.d))

    if model.qubits is not None:
        for bound_id, kind, limit in (
            ("entangled-upper-asymptotic", "upper", bounds.entangled_pauli_upper),
            ("separable-lower-asymptotic", "lower", bounds.separable_pauli_lower),
        ):
            result = bounds.BoundResult(limit(model.qubits, eps, delta), True,
                                        "small-eps limit")
            rows.append(_bound_row(bound_id, kind, "linf", result, eps, delta, model.d))
    meta = _meta(cfg, "bounds", grid_points=len(grid), domain_shrink=models.DOMAIN_SHRINK)
    return rows, meta, EXIT_OK


def _bound_sort_key(result):
    if not result.applicable:
        return (2, math.inf)
    return (1, result.value)


def cmd_simulate(cfg: dict) -> tuple[list, dict, int]:
    model, theta = build_model_and_theta(cfg)
    mle_lab.check_draws(model, cfg["trials"])  # before any work, not at the first probe
    eps, delta, norm = cfg["epsilon"], cfg["delta"], cfg["norm"]
    f = fisher.fim(model, theta)
    # the small-eps lower limit reads [F^-1]_aa in linf and lambda_max(F^-1) in l2
    inverse = float(f.inverse_diag.max()) if norm == "linf" else f.opnorm_inverse
    lower = bounds.asymptotic_lower_linf(eps, delta, inverse)
    coeffs = bounds.estimate_coefficients(model, theta, eps, constant=cfg["be_constant"],
                                          fisher=f)
    upper = bounds.upper_bound(eps, delta, coeffs, norm)

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

    inv_diag = f.inverse_diag
    sigma = np.sqrt(np.clip(inv_diag, 0.0, None))
    closed = model.closed_form_inverse_diag(theta)
    estimable = f.estimable.tolist()
    rows = []
    for a in range(model.d):
        qfim_value = None if closed is None else float(closed[a])
        rows.append({
            "coordinate": a,
            "inv_diag": float(inv_diag[a]),
            "qfim_inv_diag": qfim_value,
            "abs_diff": None if qfim_value is None or not math.isfinite(qfim_value)
            else abs(float(inv_diag[a]) - qfim_value),
            "estimable": estimable[a],
            "sigma": float(sigma[a]),
        })
    opnorm_inv = f.opnorm_inverse
    meta = _meta(cfg, "fisher", fim_defined=True, opnorm_inv=opnorm_inv,
                 lambda_max_inv=opnorm_inv, used_pseudoinverse=f.is_singular)
    return rows, meta, EXIT_OK


def cmd_separation(cfg: dict) -> tuple[list, dict, int]:
    eps, delta = cfg["epsilon"], cfg["delta"]
    rows = []
    for n in range(cfg["n_min"], cfg["n_max"] + 1):
        upper = bounds.entangled_pauli_upper(n, eps, delta)
        lower = bounds.separable_pauli_lower(n, eps, delta)
        rows.append({"n": n, "entangled_upper": upper, "separable_lower": lower,
                     "ratio": lower / upper, "m_star_entangled": None,
                     "m_star_separable": None})
    # largest n first: the models refuse an oversized n before any search runs
    for row in reversed(rows):
        n = row["n"]
        if cfg["simulate_upto"] >= n:
            ent = models.entangled_pauli_model(n)
            sep = models.separable_pauli_model(
                n, pauli.product_probe(np.tile([0.0, 0.0, 1.0], (n, 1)))
            )
            search = dict(trials=cfg["trials"], seed=cfg["seed"],
                          resolution=cfg["resolution"], m_max=cfg["m_max"],
                          level=cfg["wilson_level"])
            row["m_star_entangled"] = mle_lab.find_min_samples(
                ent, np.zeros(ent.d), eps, delta, cfg["norm"], **search).m_star
            row["m_star_separable"] = mle_lab.find_min_samples(
                sep, np.zeros(sep.d), eps, delta, cfg["norm"], **search).m_star
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
        cmd.add_argument("--norm", choices=bounds.NORMS)
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        # a fault of the program, not of its input
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
    try:
        _emit(text, cfg["out"])
    except OSError as exc:
        print(f"config error: cannot write {cfg['out']!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
