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

from . import __version__, bounds, fisher, mle_lab, models, pauli, special_functions, verify

__all__ = ["ConfigError", "main", "run_command"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# Esseen's lower limit (sqrt(10) + 3) / (6 sqrt(2 pi)) on the Berry-Esseen
# constant: for smaller constants the inequality fails for some distribution
_ESSEEN_LOWER_LIMIT = (math.sqrt(10.0) + 3.0) / (6.0 * math.sqrt(2.0 * math.pi))

# The bounds multiply delta^-2, eps^-2, C^2 and, for the Bell models,
# d^2 < 16^n.  Each factor may take a quarter of float64's binary exponent
# range, 2^256, so that their product with W0 and the inverse-Fisher scalars
# stays finite: eps in [2^-128, 2^128], delta >= 2^-128, the Berry-Esseen
# constant C <= 2^128 and qubit counts <= 64.
_FACTOR_EXP = sys.float_info.max_exp // 4
_SCALE_EXP = _FACTOR_EXP // 2
_MAX_QUBITS = _FACTOR_EXP // 4

SCHEMES = ("entangled-pauli", "separable-pauli", "two-copy-bell",
           "bernoulli", "multinomial", "poisson", "gaussian-known-var")
# parameter-point presets per scheme; schemes not listed take only "depolarizing"
PRESETS = {"entangled-pauli": ("depolarizing", "identity", "random"),
           "two-copy-bell": ("depolarizing", "random")}

# Every config field: its default, its JSON type ("int", "number", "string"
# or "list" of numbers) and the subcommands that take it as a flag.  A field
# whose default is null also takes null.
_EVERY = ("bounds", "simulate", "fisher", "separation", "verify")
FIELDS = {
    "scheme": ("entangled-pauli", "string", _EVERY),
    "n": (1, "int", _EVERY),
    "epsilon": (0.1, "number", _EVERY),
    "delta": (0.1, "number", _EVERY),
    "norm": ("linf", "string", _EVERY),
    "trials": (2000, "int", _EVERY),
    "seed": (0, "int", _EVERY),
    "m_max": (2**22, "int", _EVERY),
    "resolution": (1, "int", _EVERY),
    "be_constant": (special_functions.BERRY_ESSEEN_CONSTANT, "number", _EVERY),
    "format": ("csv", "string", _EVERY),
    "out": (None, "string", _EVERY),
    "preset": ("depolarizing", "string", _EVERY),
    "param_seed": (1, "int", _EVERY),
    "lambda": (None, "list", ()),
    "theta": (None, "list", ()),
    "r": (None, "list", ()),
    "dim": (3, "int", ()),
    "truncation": (20, "int", ()),
    "grid_points": (0, "int", _EVERY),
    "n_min": (1, "int", ("separation",)),
    "n_max": (8, "int", ("separation",)),
    "simulate_upto": (0, "int", ("separation",)),
    "wilson_level": (mle_lab.WILSON_LEVEL, "number", ()),
    "inject_fault": (None, "string", ("verify",)),
}
DEFAULTS = {key: default for key, (default, _, _) in FIELDS.items()}

# the values a field may take, where they are few
CHOICES = {
    "scheme": SCHEMES,
    "norm": bounds.NORMS,
    "format": ("csv", "json"),
    "wilson_level": tuple(mle_lab.Z_FOR_LEVEL),
    "inject_fault": verify.FAULT_TARGETS,
}


def _is_number(x) -> bool:
    """Whether a JSON value is a number within float64 (NaN, +-inf and huge
    ints are not; nor is a bool, though Python counts it an int)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


# each JSON type: (what it reads as in a message, the test of a value)
_TYPES = {
    "int": ("an integer", lambda x: isinstance(x, int) and not isinstance(x, bool)),
    "number": ("a finite number", _is_number),
    "string": ("a string", lambda x: isinstance(x, str)),
    "list": ("a flat list of finite numbers",
             lambda x: isinstance(x, list) and all(map(_is_number, x))),
}
_FLAG_TYPES = {"int": int, "number": float, "string": str}

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
    unknown = sorted(set(raw) - set(FIELDS))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    return raw


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, the config file, and flags; flags win."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key in FIELDS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    for key, (default, kind, _) in FIELDS.items():
        value = cfg[key]
        if value is None and default is None:
            continue
        what, is_kind = _TYPES[kind]
        if not is_kind(value):
            null = "null or " if default is None else ""
            raise ConfigError(f"{key} must be {null}{what}, got {value!r}")
        if key in CHOICES and value not in CHOICES[key]:
            raise ConfigError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
    presets = PRESETS.get(cfg["scheme"], ("depolarizing",))
    if cfg["preset"] not in presets:
        raise ConfigError(
            f"preset {cfg['preset']!r} is not available for {cfg['scheme']}; "
            f"known: {presets}"
        )
    if cfg["r"] is not None and cfg["scheme"] != "separable-pauli":
        raise ConfigError(f"r is the probe of separable-pauli; {cfg['scheme']} reads none")
    if not 2.0**-_SCALE_EXP <= cfg["delta"] < 1.0:
        raise ConfigError(f"delta must be in [2**-{_SCALE_EXP}, 1) for the bounds to stay "
                          f"within float64, got {cfg['delta']!r}")
    if not 2.0**-_SCALE_EXP <= cfg["epsilon"] <= 2.0**_SCALE_EXP:
        raise ConfigError(f"epsilon must be in [2**-{_SCALE_EXP}, 2**{_SCALE_EXP}] for the "
                          f"bounds to stay within float64, got {cfg['epsilon']!r}")
    if not _ESSEEN_LOWER_LIMIT <= cfg["be_constant"] <= 2.0**_SCALE_EXP:
        raise ConfigError(
            f"be_constant must be in [{_ESSEEN_LOWER_LIMIT:.5f}, 2**{_SCALE_EXP}]: below it no "
            f"Berry-Esseen constant holds, and above it the bounds leave float64, "
            f"got {cfg['be_constant']!r}"
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
    points = []
    if cfg["grid_points"] > 0:
        rng = np.random.default_rng(np.random.SeedSequence(cfg["param_seed"]))
        points = model.random_points(rng, cfg["grid_points"])

    # theta's coefficients also feed the lower bounds
    first = bounds.estimate_coefficients(model, theta, eps, constant=c)
    upper = {norm: bounds.upper_bound(eps, delta, first, norm) for norm in bounds.NORMS}
    # the supremum over the grid, one point's coefficients held at a time; an
    # inapplicable candidate sorts above all, and of equals the first stays
    for point in points:
        coeffs = bounds.estimate_coefficients(model, point, eps, constant=c)
        for norm in bounds.NORMS:
            upper[norm] = max(upper[norm], bounds.upper_bound(eps, delta, coeffs, norm),
                              key=_bound_sort_key)
    rows = []
    for norm in bounds.NORMS:
        lower = bounds.lower_bound(eps, delta, first, norm)
        rows.append(_bound_row(f"upper-{norm}", "upper", norm, upper[norm],
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
    meta = _meta(cfg, "bounds", grid_points=1 + len(points),
                 domain_shrink=models.DOMAIN_SHRINK)
    return rows, meta, EXIT_OK


def _bound_sort_key(result):
    if not result.applicable:
        return (2, math.inf)
    return (1, result.value)


def _search(cfg, model, theta):
    """The config's Monte Carlo search for m* on model at theta."""
    return mle_lab.find_min_samples(
        model, theta, cfg["epsilon"], cfg["delta"], cfg["norm"],
        trials=cfg["trials"], seed=cfg["seed"], resolution=cfg["resolution"],
        m_max=cfg["m_max"], level=cfg["wilson_level"],
    )


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
    result = _search(cfg, model, theta)
    rows = [{"scheme": cfg["scheme"], "n": cfg["n"], "epsilon": eps, "delta": delta,
             "norm": norm, "m_star": result.m_star, "rate": result.rate_at_m_star,
             "wilson_lo": result.wilson_lo, "wilson_hi": result.wilson_hi,
             "lower_bound": lower, "upper_bound": upper.value if upper.applicable else None,
             "seed": cfg["seed"]}]
    if result.m_star is None:
        meta = _meta(cfg, "simulate", budget_exceeded=True, error=result.message)
        return rows, meta, EXIT_BUDGET
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
    if cfg["r"] is not None:
        raise ConfigError("separation searches its own |0...0> probe and reads no r")
    eps, delta = cfg["epsilon"], cfg["delta"]
    rows = []
    for n in range(cfg["n_min"], cfg["n_max"] + 1):
        upper = bounds.entangled_pauli_upper(n, eps, delta)
        lower = bounds.separable_pauli_lower(n, eps, delta)
        rows.append({"n": n, "entangled_upper": upper, "separable_lower": lower,
                     "ratio": lower / upper, "m_star_entangled": None,
                     "m_star_separable": None})
    # largest n first: the models refuse an oversized n before any search runs;
    # the first search that reaches m_max ends the table there
    for row in reversed(rows):
        n = row["n"]
        if cfg["simulate_upto"] >= n:
            ent = models.entangled_pauli_model(n)
            sep = models.separable_pauli_model(
                n, pauli.product_probe(np.tile([0.0, 0.0, 1.0], (n, 1)))
            )
            for key, model in (("m_star_entangled", ent), ("m_star_separable", sep)):
                result = _search(cfg, model, np.zeros(model.d))
                row[key] = result.m_star
                if result.m_star is None:
                    meta = _meta(cfg, "separation", budget_exceeded=True, error=result.message)
                    return rows, meta, EXIT_BUDGET
    return rows, _meta(cfg, "separation"), EXIT_OK


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
        # flags are parsed to their JSON type and checked with the config
        for key, (_, kind, commands) in FIELDS.items():
            if name in commands:
                values = CHOICES.get(key)
                cmd.add_argument("--" + key.replace("_", "-"), dest=key, type=_FLAG_TYPES[kind],
                                 help=values and "one of: " + ", ".join(map(str, values)))
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
