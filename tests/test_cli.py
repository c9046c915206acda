import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fisherbound
from fisherbound import bounds, cli, fisher, mle_lab, models, pauli
from fisherbound.cli import (
    COLUMNS,
    ConfigError,
    build_model_and_theta,
    load_config,
    main,
    resolve_config,
    run_command,
)

GOLDEN_COLUMNS = {
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


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "fisherbound", *args],
        capture_output=True, text=True, **kwargs,
    )


def resolve(command, **overrides):
    parser_args = [command]
    namespace = main_parse(parser_args)
    cfg = resolve_config(namespace)
    cfg.update(overrides)
    return cfg


def main_parse(argv):
    from fisherbound.cli import build_parser

    return build_parser().parse_args(argv)


def extract_config_line(csv_text):
    header = csv_text.splitlines()[0]
    return json.loads(header.split("config=", 1)[1])


class TestColumnsGolden:
    def test_column_schema_stable(self):
        assert COLUMNS == GOLDEN_COLUMNS


# Config refusals, each exit 2: (config file text, message); None leaves the
# file unwritten
CONFIG_REFUSALS = {
    "unreadable-file": (None, "cannot read config"),
    "not-an-object": ("[1, 2]", "must contain a JSON object"),
    "norm": ('{"norm": "max"}', "norm must be one of ('linf', 'l2'), got 'max'"),
    "format": ('{"format": "xml"}', "format must be one of ('csv', 'json'), got 'xml'"),
    "qubit-range": ('{"n_min": 3, "n_max": 2}', "n_max must be >= n_min"),
    "fault-target": ('{"inject_fault": "lambert"}',
                     "inject_fault must be one of ('fwht',), got 'lambert'"),
    "identity-eigenvalue": ('{"lambda": [0.5, 0.1, 0.0, 0.0]}',
                            "lambda[0] is the identity eigenvalue and must be 1, "
                            "got np.float64(0.5)"),
    # the two names of the parameter vector: neither silently wins
    "lambda-and-theta": ('{"scheme": "bernoulli", "lambda": [0.3], "theta": [0.6]}',
                         "lambda and theta name the same parameter vector; set at most one"),
    # a probe that only separable-pauli reads is not silently ignored
    "probe-without-separable": ('{"scheme": "bernoulli", "r": [0.5, 0.1]}',
                                "r is the probe of separable-pauli; bernoulli reads none"),
}


class TestConfigHandling:
    @pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
    def test_config_refused(self, case, tmp_path, capsys):
        text, message = CONFIG_REFUSALS[case]
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        argv = ["bounds", "--config", str(path)]
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_model_and_theta(resolve_config(main_parse(argv)))
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"epsilon": 0.1, "bogus": true}')
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path))

    def test_flags_win_over_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"epsilon": 0.2, "delta": 0.2}')
        args = main_parse(["bounds", "--config", str(path), "--epsilon", "0.05"])
        cfg = resolve_config(args)
        assert cfg["epsilon"] == 0.05
        assert cfg["delta"] == 0.2

    def test_invalid_values_rejected(self):
        for flags in (["bounds", "--delta", "1.5"],
                      ["bounds", "--epsilon", "-1"],
                      ["bounds", "--scheme", "alchemy"]):
            args = main_parse(flags)
            with pytest.raises(ConfigError):
                resolve_config(args)

    @pytest.mark.parametrize("field", [
        {"trials": 1.5}, {"trials": "10"}, {"trials": True}, {"trials": 0},
        {"resolution": 2.0}, {"resolution": 0}, {"m_max": 1e20}, {"m_max": 0},
        {"m_max": 2**53 + 1},
        {"n": "2"}, {"n": 2.0}, {"n_min": True}, {"n_max": "8"},
        {"grid_points": "3"}, {"grid_points": -1}, {"simulate_upto": 0.5},
        {"simulate_upto": -1}, {"dim": "3", "scheme": "multinomial"}, {"dim": 0},
        {"truncation": 2.0}, {"truncation": 0}, {"seed": "1"}, {"seed": -1},
        {"param_seed": 1.0}, {"param_seed": -1},
        {"epsilon": "0.1"}, {"delta": True}, {"be_constant": "0.5"},
        {"wilson_level": None}, {"be_constant": -1}, {"be_constant": 0.4097},
        {"lambda": {"a": 1}}, {"theta": [True, 0, 0]}, {"theta": [None, 0, 0]},
        {"theta": 5}, {"r": [[1, 2]]}, {"r": "1,0,0"},
        {"epsilon": math.inf}, {"be_constant": math.inf},
        {"wilson_level": math.nan}, {"wilson_level": 0.8}, {"wilson_level": 1},
        {"theta": [math.nan]}, {"theta": [-math.inf]}, {"lambda": [10**400]},
        {"r": [1, 0, math.inf, 0], "scheme": "separable-pauli"},
        {"preset": "random"}, {"preset": "identity", "scheme": "two-copy-bell"},
        {"preset": "bogus", "scheme": "two-copy-bell"},
        {"preset": "bogus", "scheme": "entangled-pauli", "theta": [0.1, 0.0, 0.0]},
        {"preset": "identity", "scheme": "separable-pauli"},
    ])
    def test_search_fields_typed_and_bounded(self, tmp_path, capsys, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "bernoulli", "epsilon": 0.3, **field}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"config error: {next(iter(field))}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        {"lambda": [0.3, 0.1, 0.0, 0.0]}, {"theta": [0.0, 0.1, 0.0, 0.0]},
        {"lambda": [1.0 + 1e-11, 0.1, 0.0, 0.0]},
    ])
    def test_wrong_identity_eigenvalue_rejected(self, tmp_path, capsys, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "entangled-pauli", **field}))
        assert main(["fisher", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {next(iter(field))}" in err and "identity eigenvalue" in err

    @pytest.mark.parametrize("lam0", [1.0, 1.0 - 1e-13])
    def test_identity_eigenvalue_dropped(self, lam0):
        def report(lam):
            text, code = run_command("fisher", resolve("fisher", scheme="entangled-pauli",
                                                       **{"lambda": lam}))
            header, body = text.split("\n", 1)  # the header echoes the config
            assert header.startswith("# fisherbound=") and code == 0
            return body
        assert report([lam0, 0.1, 0.0, 0.0]) == report([0.1, 0.0, 0.0])

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"scheme": "gaussian-known-var", "dim": 1, "theta": [math.nan],
                      "epsilon": 0.1, "trials": 100}),
        ("bounds", {"epsilon": math.inf}),
        ("bounds", {"wilson_level": 0.8}),
    ])
    def test_non_finite_and_unsupported_numbers_exit_2(self, tmp_path, command, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))  # writes NaN and Infinity, as json.load reads them
        assert main([command, "--config", str(path)]) == 2

    # Configs whose bounds left float64 (OverflowError or ZeroDivisionError,
    # exit 4); the field that leaves its range comes first.
    @pytest.mark.parametrize("command, config", [
        ("bounds", {"epsilon": 1e-200, "scheme": "bernoulli"}),
        ("bounds", {"epsilon": 1e-160}),
        ("bounds", {"delta": 1e-300, "scheme": "bernoulli"}),
        ("simulate", {"delta": 1e-300, "scheme": "bernoulli"}),
        ("separation", {"n_max": 300}),
        ("separation", {"delta": 1e-200}),
        ("separation", {"epsilon": 1e-300, "n_max": 60}),
        ("simulate", {"epsilon": 1e-200, "scheme": "gaussian-known-var", "m_max": 4}),
        ("simulate", {"epsilon": 1e300}),
        ("bounds", {"epsilon": 1e300, "scheme": "poisson"}),
        ("simulate", {"epsilon": 1e-160, "m_max": 8}),
        ("bounds", {"be_constant": 1e200}),
        ("simulate", {"be_constant": 1e200, "scheme": "bernoulli"}),
    ])
    def test_float64_overflow_exits_2(self, tmp_path, capsys, command, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 2
        assert f"config error: {next(iter(config))} must be in [" in capsys.readouterr().err

    # Each range edge: the edge itself runs to finite numbers, one float64
    # step (or one qubit) beyond it exits 2.
    @pytest.mark.parametrize("command, inside, outside", [
        ("bounds", {"epsilon": 2.0**-128}, {"epsilon": float(np.nextafter(2.0**-128, 0))}),
        ("simulate", {"epsilon": 2.0**128, "scheme": "bernoulli", "trials": 50},
         {"epsilon": float(np.nextafter(2.0**128, math.inf)), "scheme": "bernoulli"}),
        ("bounds", {"delta": 2.0**-128}, {"delta": float(np.nextafter(2.0**-128, 0))}),
        ("separation", {"n_max": 64, "epsilon": 2.0**-128, "delta": 2.0**-128},
         {"n_max": 65}),
        ("separation", {"n_min": 64, "n_max": 64}, {"n_min": 65, "n_max": 65}),
        ("bounds", {"n": 64, "scheme": "bernoulli"}, {"n": 65, "scheme": "bernoulli"}),
        ("bounds", {"be_constant": 2.0**128, "epsilon": 2.0**-128, "delta": 2.0**-128},
         {"be_constant": float(np.nextafter(2.0**128, math.inf))}),
    ])
    def test_float64_range_edges(self, tmp_path, capsys, command, inside, outside):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**inside, "format": "json"}))
        assert main([command, "--config", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows and all(math.isfinite(value) for row in rows
                            for value in row.values() if isinstance(value, float))
        path.write_text(json.dumps(outside))
        assert main([command, "--config", str(path)]) == 2
        assert f"config error: {next(iter(outside))} must be in [" in capsys.readouterr().err

    # A ball that reaches theta = 0 has an infinite envelope, so no
    # finite-sample row applies, as for the affine models.  theta^k / k!
    # overflows float64 once theta + eps passes about 2e16 at truncation 20,
    # which must raise no warning either.
    @pytest.mark.parametrize("eps", ["1.5", "1e20", "3.4e38"])
    def test_poisson_envelope_far_out_raises_no_warning(self, eps):
        done = run_cli(["bounds", "--scheme", "poisson", "--epsilon", eps,
                        "--format", "json"], env={**os.environ, "PYTHONWARNINGS": "error"})
        assert (done.returncode, done.stderr) == (0, "")
        rows = {row["bound_id"]: row for row in json.loads(done.stdout)["rows"]}
        for bound in ("upper-linf", "lower-linf", "upper-l2", "lower-l2"):
            assert (rows[bound]["applicable"], rows[bound]["reason"]) == (
                False, "non-finite coefficients")

    # far from theta = 1 the score moments and theta^2, theta^3 leave float64
    # (theta = 1e160 raised OverflowError, the others printed RuntimeWarnings);
    # such coefficients are non-finite, and at 1e160 F underflows to singular
    @pytest.mark.parametrize("command", ["bounds", "simulate"])
    @pytest.mark.parametrize("theta, reasons", [
        (1e-300, {"non-finite coefficients"}), (1e-100, {"non-finite coefficients"}),
        (1e100, {"non-finite coefficients"}), (1e160, {"singular Fisher matrix", ""}),
    ], ids=["1e-300", "1e-100", "1e100", "1e160"])
    def test_poisson_theta_far_out_raises_no_warning(self, tmp_path, command, theta, reasons):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "poisson", "theta": [theta], "format": "json"}))
        done = run_cli([command, "--config", str(path)],
                       env={**os.environ, "PYTHONWARNINGS": "error"})
        assert done.stderr == ""
        assert done.returncode in (0, 3)
        if command == "bounds":
            assert {row["reason"] for row in json.loads(done.stdout)["rows"]} == reasons

    def test_search_that_cannot_certify_delta_exits_2(self, capsys):
        # all 2000 trials successful certify at most 2000 / (2000 + z^2) < 0.999
        assert main(["simulate", "--scheme", "bernoulli", "--epsilon", "0.05",
                     "--delta", "0.001"]) == 2
        assert ("config error: trials=2000 cannot certify success probability 1 - delta at "
                "delta=0.001: the Wilson level 0.95 needs at least 3838 trials"
                ) in capsys.readouterr().err

    def test_poisson_bounds_at_truncation_1e6(self):
        # the envelope is a closed form, so this runs in about the time of
        # `fisher`; warnings are errors under pytest
        cfg = resolve("bounds", scheme="poisson", truncation=10**6, epsilon=0.01,
                      format="json")
        text, code = run_command("bounds", cfg)
        rows = json.loads(text)["rows"]
        assert code == 0
        assert all(row["applicable"] and row["provenance"] == "exact" for row in rows)

    def test_poisson_lower_bound_below_m_star_at_tiny_theta(self):
        # F ~ 1/theta, so the small-eps lower limit ~ theta / eps^2 is far below
        # the one sample that suffices
        cfg = resolve("simulate", scheme="poisson", theta=[1e-100], trials=200,
                      format="json")
        text, code = run_command("simulate", cfg)
        row = json.loads(text)["rows"][0]
        assert (code, row["m_star"]) == (0, 1)
        assert row["lower_bound"] <= row["m_star"]

    def test_poisson_m_star_between_its_bounds_where_truncation_matters(self):
        # at K = 20 the sample mean estimates E_15[k] = 15 (1 - h(15)) = 14.32,
        # which never comes within 0.3 of 15; the model's MLE does
        cfg = resolve("simulate", scheme="poisson", theta=[15.0], epsilon=0.3,
                      format="json")
        text, code = run_command("simulate", cfg)
        row = json.loads(text)["rows"][0]
        assert code == 0
        assert row["lower_bound"] <= row["m_star"] <= row["upper_bound"]

    # an outcome of probability far below 1e-12 still carries F ~ 1/p
    @pytest.mark.parametrize("overrides, m_star", [
        ({"scheme": "bernoulli", "theta": [1e-19]}, 1),
        ({"scheme": "multinomial", "dim": 2, "theta": [1e-200, 0.5]}, 7272),
    ], ids=["bernoulli", "multinomial"])
    def test_lower_bound_below_m_star_at_an_improbable_outcome(self, overrides, m_star):
        cfg = resolve("simulate", epsilon=0.01, format="json", **overrides)
        text, code = run_command("simulate", cfg)
        row = json.loads(text)["rows"][0]
        assert (code, row["m_star"]) == (0, m_star)
        assert row["lower_bound"] <= row["m_star"]

    # at theta = 1e-320 a score overflows float64, so F is inf (bernoulli) or
    # nan (poisson): fisher reports it undefined, bounds and simulate exit 2
    @pytest.mark.parametrize("command", ["fisher", "bounds", "simulate"])
    @pytest.mark.parametrize("scheme", ["bernoulli", "poisson"])
    def test_non_finite_fisher_matrix_raises_no_warning(self, tmp_path, scheme, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": scheme, "theta": [1e-320], "format": "json"}))
        done = run_cli([command, "--config", str(path)],
                       env={**os.environ, "PYTHONWARNINGS": "error"})
        if command == "fisher":
            assert (done.returncode, done.stderr) == (0, "")
            meta = json.loads(done.stdout)["meta"]
            assert meta["fim_defined"] is False
            assert meta["reason"].endswith("is not finite")
        else:
            assert done.returncode == 2
            assert done.stderr.startswith("config error: ")
            assert done.stderr.rstrip().endswith("is not finite")

    def test_config_not_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    def test_build_model_presets(self):
        cfg = resolve("bounds", scheme="entangled-pauli", preset="depolarizing")
        model, theta = build_model_and_theta(cfg)
        assert model.scheme == "entangled-pauli"
        assert list(theta) == [0.0, 0.0, 0.0]
        cfg = resolve("bounds", scheme="separable-pauli", param_seed=4)
        model, theta = build_model_and_theta(cfg)
        assert model.scheme == "separable-pauli"


# a JSON value of the wrong type for each type of field; a field whose
# default is null also takes null, the others do not
WRONG_TYPE = {
    "int": [2.0, "2", True, [1]],
    "number": ["0.1", True, math.nan, 10**400, [0.1]],
    "string": [2, True, [1]],
    "list": ["1,0,0", 5, [True], [[1.0]], [math.inf]],
}


class TestFieldTable:
    """Every field of cli.FIELDS is typed from its row, and a flag goes
    through the same checks as the config file."""

    @pytest.mark.parametrize("key", list(cli.FIELDS))
    def test_a_value_of_the_wrong_type_exits_2(self, key, tmp_path, capsys):
        default, kind, _ = cli.FIELDS[key]
        path = tmp_path / "cfg.json"
        for value in WRONG_TYPE[kind] + ([None] if default is not None else []):
            path.write_text(json.dumps({key: value}))
            assert main(["bounds", "--config", str(path)]) == 2, value
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {key} must be "), err
            assert "Traceback" not in err

    @pytest.mark.parametrize("key, command", [
        (key, command) for key in cli.CHOICES for command in cli.FIELDS[key][2]])
    def test_a_flag_and_a_file_refuse_alike(self, key, command, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: "bogus"}))
        assert main([command, "--config", str(path)]) == 2
        message = capsys.readouterr().err
        assert message == (f"config error: {key} must be one of {cli.CHOICES[key]}, "
                           "got 'bogus'\n")
        assert main([command, "--" + key.replace("_", "-"), "bogus"]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_each_subcommand_takes_the_flags_its_rows_give(self, command):
        flags = set(vars(main_parse([command]))) - {"command", "config"}
        assert flags == {key for key, (_, _, commands) in cli.FIELDS.items()
                         if command in commands}


class TestReports:
    def test_round_trip_bit_exact(self, tmp_path):
        first = run_cli(["simulate", "--scheme", "bernoulli", "--epsilon", "0.3",
                         "--trials", "400", "--seed", "11"])
        assert first.returncode == 0
        embedded = extract_config_line(first.stdout)
        embedded.pop("command")
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(embedded))
        second = run_cli(["simulate", "--config", str(cfg_path)])
        assert second.stdout == first.stdout

    def test_same_seed_bit_identical(self):
        args = ["simulate", "--scheme", "entangled-pauli", "--epsilon", "0.3",
                "--trials", "500", "--seed", "3"]
        assert run_cli(args).stdout == run_cli(args).stdout

    def test_json_and_csv_numbers_identical(self):
        cfg = resolve("bounds", epsilon=0.05, delta=0.1, format="csv")
        csv_text, _ = run_command("bounds", cfg)
        cfg_json = dict(cfg, format="json")
        json_text, _ = run_command("bounds", cfg_json)
        payload = json.loads(json_text)
        lines = csv_text.splitlines()
        header = lines[2].split(",")
        for row_line, row_obj in zip(lines[3:], payload["rows"]):
            values = next(iter([row_line.split(",")]))
            for key, text in zip(header, values):
                parsed = row_obj[key]
                if isinstance(parsed, float):
                    assert float(text) == parsed
        assert len(lines[3:]) == len(payload["rows"])

    def test_fisher_report_closed_form_column(self):
        cfg = resolve("fisher", scheme="entangled-pauli", preset="random",
                      param_seed=5, format="json")
        text, code = run_command("fisher", cfg)
        assert code == 0
        rows = json.loads(text)["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["abs_diff"] <= 1e-8
            assert row["estimable"] is True

    def test_fisher_undefined_is_structured_not_fatal(self):
        cfg = resolve("fisher", scheme="entangled-pauli", preset="identity",
                      format="json")
        text, code = run_command("fisher", cfg)
        assert code == 0
        payload = json.loads(text)
        assert payload["meta"]["fim_defined"] is False
        assert payload["rows"] == []

    def test_two_copy_uniform_rates_identity_fisher(self):
        # maximally mixed state: every inverse diagonal is exactly 1
        cfg = resolve("fisher", scheme="two-copy-bell", preset="depolarizing",
                      format="json")
        text, _ = run_command("fisher", cfg)
        payload = json.loads(text)
        assert payload["meta"]["opnorm_inv"] == pytest.approx(1.0, abs=1e-10)
        for row in payload["rows"]:
            assert row["inv_diag"] == pytest.approx(1.0, abs=1e-10)

    def test_separable_fisher_flags_unidentifiable(self):
        cfg = resolve("fisher", scheme="separable-pauli", format="json",
                      r=[1.0, 0.0, 0.0])
        text, _ = run_command("fisher", cfg)
        rows = json.loads(text)["rows"]
        estimable_flags = [row["estimable"] for row in rows]
        assert estimable_flags == [True, False, False]

    def test_singular_fisher_has_no_upper_bound(self):
        # the second axis has probe component 0: F is singular, lambda_2 unidentifiable
        config = dict(scheme="separable-pauli", r=[1, 0.8, 0, 0.5], theta=[0, 0.5, 0],
                      epsilon=0.01, format="json")
        text, _ = run_command("bounds", resolve("bounds", **config))
        rows = {row["bound_id"]: row for row in json.loads(text)["rows"]}
        for norm in ("linf", "l2"):
            upper = rows[f"upper-{norm}"]
            assert (upper["applicable"], upper["value"]) == (False, None)
            assert upper["reason"] == "singular Fisher matrix"
            assert rows[f"lower-{norm}"]["applicable"] is True
        assert rows["lower-linf"]["value"] == pytest.approx(159902.80623732574, rel=1e-12)
        assert rows["lower-l2"]["value"] == pytest.approx(191304.0948560928, rel=1e-12)

        config.update(theta=[0, 0, 0], trials=200)
        payload = json.loads(run_command("simulate", resolve("simulate", **config))[0])
        assert payload["rows"][0]["upper_bound"] is None
        assert payload["rows"][0]["m_star"] >= 1
        assert payload["meta"]["upper_bound_applicable"] is False
        assert payload["meta"]["upper_bound_reason"] == "singular Fisher matrix"

    def test_bounds_inapplicable_row(self):
        cfg = resolve("bounds", epsilon=0.1, delta=0.1, format="json")
        text, _ = run_command("bounds", cfg)
        rows = {row["bound_id"]: row for row in json.loads(text)["rows"]}
        assert rows["upper-linf"]["applicable"] is False
        assert rows["upper-linf"]["reason"] == "tau0 <= 0"
        assert rows["upper-linf"]["value"] is None

    def test_bounds_emits_six_rows_for_pauli_scheme(self):
        cfg = resolve("bounds", epsilon=0.05, format="json")
        rows = json.loads(run_command("bounds", cfg)[0])["rows"]
        ids = [row["bound_id"] for row in rows]
        assert ids == ["upper-linf", "lower-linf", "upper-l2", "lower-l2",
                       "entangled-upper-asymptotic", "separable-lower-asymptotic"]

    def test_bernoulli_smoke_run_is_fast(self):
        import time

        started = time.perf_counter()
        result = run_cli(["simulate", "--scheme", "bernoulli", "--epsilon", "0.2",
                          "--delta", "0.1", "--trials", "1000", "--seed", "2"])
        assert result.returncode == 0
        assert time.perf_counter() - started < 10.0

    def test_separation_empirical_columns(self):
        cfg = resolve("separation", n_min=1, n_max=1, simulate_upto=1,
                      epsilon=0.3, delta=0.2, trials=300, format="json")
        rows = json.loads(run_command("separation", cfg)[0])["rows"]
        assert rows[0]["m_star_entangled"] >= 1
        assert rows[0]["m_star_separable"] >= rows[0]["m_star_entangled"]

    @pytest.mark.parametrize("search", [{"resolution": 64}, {"wilson_level": 0.99}])
    def test_separation_search_matches_simulate(self, search):
        cfg = resolve("separation", n_min=1, n_max=1, simulate_upto=1, epsilon=0.3,
                      trials=400, format="json", **search)
        row = json.loads(run_command("separation", cfg)[0])["rows"][0]
        simulated = json.loads(run_command("simulate", cfg)[0])["rows"][0]
        assert row["m_star_entangled"] == simulated["m_star"]

    def test_separation_ratio_grows(self):
        cfg = resolve("separation", n_min=1, n_max=6, format="json")
        rows = json.loads(run_command("separation", cfg)[0])["rows"]
        ratios = [row["ratio"] for row in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        match_cfg = resolve("bounds", epsilon=cfg["epsilon"], delta=cfg["delta"],
                            n=1, format="json")
        bound_rows = {r["bound_id"]: r for r in
                      json.loads(run_command("bounds", match_cfg)[0])["rows"]}
        assert rows[0]["entangled_upper"] == pytest.approx(
            bound_rows["entangled-upper-asymptotic"]["value"], rel=1e-12
        )

    @pytest.mark.parametrize("constant,finite_provenance", [
        (0.45, "unproven-constant"), (0.4748, "exact"), (None, "exact"),
    ])
    def test_provenance_marks_an_unproven_berry_esseen_constant(self, constant,
                                                                finite_provenance):
        # 0.4748 is the smallest proven constant (Shevtsova 2011)
        overrides = {} if constant is None else {"be_constant": constant}
        cfg = resolve("bounds", epsilon=0.05, format="json", **overrides)
        rows = json.loads(run_command("bounds", cfg)[0])["rows"]
        provenance = {row["bound_id"]: row["provenance"] for row in rows}
        assert provenance == {
            "upper-linf": finite_provenance, "lower-linf": finite_provenance,
            "upper-l2": finite_provenance, "lower-l2": finite_provenance,
            # the small-eps limits do not use the constant
            "entangled-upper-asymptotic": "exact", "separable-lower-asymptotic": "exact",
        }

    def test_poisson_provenance_follows_the_constant_alone(self):
        # the Poisson envelope is a proven bound, as every model's is
        model = models.PoissonTruncatedModel(20)
        for constant, provenance in ((0.45, "unproven-constant"), (0.4748, "exact")):
            coeffs = bounds.estimate_coefficients(model, [1.0], 0.01, constant=constant)
            assert coeffs.provenance == provenance


class TestAllSchemesEndToEnd:
    @pytest.mark.parametrize("scheme,eps", [
        ("entangled-pauli", 0.3),
        ("separable-pauli", 0.5),
        ("two-copy-bell", 0.3),
        ("bernoulli", 0.2),
        ("multinomial", 0.2),
        ("poisson", 0.5),
        ("gaussian-known-var", 0.5),
    ])
    def test_simulate_and_bounds_run(self, scheme, eps):
        sim_cfg = resolve("simulate", scheme=scheme, epsilon=eps, delta=0.2,
                          trials=300, seed=1, format="json")
        sim_text, sim_code = run_command("simulate", sim_cfg)
        assert sim_code == 0
        row = json.loads(sim_text)["rows"][0]
        assert row["m_star"] >= 1
        assert row["lower_bound"] is not None

        bounds_cfg = resolve("bounds", scheme=scheme, epsilon=eps, delta=0.2,
                             format="json")
        bounds_text, bounds_code = run_command("bounds", bounds_cfg)
        assert bounds_code == 0
        rows = json.loads(bounds_text)["rows"]
        assert len(rows) >= 4

    def test_two_copy_random_preset_is_valid(self):
        cfg = resolve("fisher", scheme="two-copy-bell", preset="random",
                      param_seed=3, format="json")
        text, code = run_command("fisher", cfg)
        assert code == 0
        assert json.loads(text)["meta"]["fim_defined"] is True

    def test_bounds_builds_one_fisher_matrix_per_grid_point(self, monkeypatch):
        calls = []
        real_fim = fisher.fim

        def counting_fim(*args, **kwargs):
            calls.append(args[1])
            return real_fim(*args, **kwargs)

        # estimate_coefficients builds it through the name bounds imported
        monkeypatch.setattr(fisher, "fim", counting_fim)
        monkeypatch.setattr(bounds, "fim", counting_fim)
        cfg = resolve("bounds", n=2, epsilon=0.01, grid_points=6, param_seed=4,
                      format="json")
        text, code = run_command("bounds", cfg)
        assert code == 0
        assert len(calls) == json.loads(text)["meta"]["grid_points"] > 1

    def test_bounds_looks_up_the_bound_functions_at_call_time(self, monkeypatch):
        # the benchmark's tracer patches these module attributes
        calls = {}
        for name in ("estimate_coefficients", "upper_bound", "lower_bound"):
            def counting(*args, _real=getattr(bounds, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(bounds, name, counting)
        cfg = resolve("bounds", n=1, epsilon=0.01, grid_points=2, format="json")
        text, code = run_command("bounds", cfg)
        assert code == 0
        # both draws land inside the domain: theta plus two points
        assert json.loads(text)["meta"]["grid_points"] == 3
        assert calls == {"estimate_coefficients": 3, "upper_bound": 6, "lower_bound": 2}

    def test_bounds_holds_one_grid_point_at_a_time(self):
        # the draw check sizes GRID_ARRAYS arrays of K doubles per grid point;
        # holding every point's coefficients took about 4 times that at n = 1
        cfg = resolve("bounds", n=1, epsilon=0.01, grid_points=1000, format="json")
        tracemalloc.start()
        try:
            text, code = run_command("bounds", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points = json.loads(text)["meta"]["grid_points"]
        assert code == 0 and points > 900
        assert peak / points <= models.GRID_ARRAYS * 4 * 8

    def test_supremum_grid_reported(self):
        cfg = resolve("bounds", epsilon=0.01, grid_points=5, param_seed=2,
                      format="json")
        text, code = run_command("bounds", cfg)
        assert code == 0
        meta = json.loads(text)["meta"]
        assert meta["grid_points"] >= 2  # configured point plus valid draws
        assert meta["domain_shrink"] == 1e-6

    @pytest.mark.parametrize("scheme", ["separable-pauli", "bernoulli", "multinomial",
                                        "poisson", "gaussian-known-var"])
    def test_grid_refused_by_a_model_without_random_points(self, scheme, capsys):
        assert main(["bounds", "--scheme", scheme, "--grid-points", "5"]) == 2
        assert capsys.readouterr().err == (f"config error: {scheme} draws no random points: "
                                           "grid_points must be 0\n")


class TestThetaGrid:
    """The Bell models' random_points, the supremum grid of `bounds`."""

    @pytest.mark.parametrize("scheme", ["entangled-pauli", "two-copy-bell"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("param_seed", [1, 11])
    def test_batched_grid_equals_sequential_draws(self, scheme, n, param_seed):
        model, _ = build_model_and_theta(resolve("bounds", scheme=scheme, n=n))
        rng = np.random.default_rng(np.random.SeedSequence(param_seed))
        expected = []
        for _ in range(9):
            lam = (1.0 - models.DOMAIN_SHRINK) * pauli.random_valid_eigenvalues(n, rng)[1:]
            point = np.abs(lam) if scheme == "two-copy-bell" else lam
            if model.contains(point):
                expected.append(point)
        grid = model.random_points(np.random.default_rng(np.random.SeedSequence(param_seed)), 9)
        assert len(grid) == len(expected)
        for got, want in zip(grid, expected):
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous


class TestDenseMemoryGuard:
    @pytest.fixture
    def no_sign_matrix(self, monkeypatch):
        def fail(n):
            raise AssertionError(f"sign_matrix({n}) called")

        monkeypatch.setattr(pauli, "sign_matrix", fail)
        monkeypatch.setattr(models, "sign_matrix", fail)

    @pytest.mark.parametrize("scheme", ["entangled-pauli", "two-copy-bell",
                                        "separable-pauli"])
    def test_oversized_model_exits_2_before_allocating(self, scheme, no_sign_matrix,
                                                       capsys):
        assert main(["bounds", "--scheme", scheme, "--n", "9"]) == 2
        err = capsys.readouterr().err
        assert f"{scheme} at n=9 needs about" in err
        assert "GiB" in err and "physical memory" in err

    def test_fisher_exits_2_too(self, no_sign_matrix, capsys):
        assert main(["fisher", "--n", "9"]) == 2
        assert "n=9" in capsys.readouterr().err

    def test_six_qubits_fit_a_7_gib_box(self, monkeypatch):
        monkeypatch.setattr(models, "_physical_memory", lambda: 7 * 2**30)
        for arrays in (models.BELL_DENSE_ARRAYS, models.SEPARABLE_DENSE_ARRAYS):
            models._check_dense_size("scheme", 6, arrays)  # does not raise
            with pytest.raises(ValueError, match="n=7 needs about"):
                models._check_dense_size("scheme", 7, arrays)

    @pytest.mark.parametrize("scheme", ["entangled-pauli", "two-copy-bell"])
    def test_supremum_grid_refused_before_the_draw(self, scheme, monkeypatch, capsys):
        monkeypatch.setattr(models, "_physical_memory", lambda: 7 * 2**30)
        monkeypatch.setattr(models, "random_valid_eigenvalues", _fail)
        argv = ["bounds", "--scheme", scheme, "--grid-points", "100000000",
                "--epsilon", "0.05"]
        assert main(argv) == 2
        assert (f"config error: {scheme} supremum grid of 100000000 points needs about "
                "24 GiB of 100000000 x 4 arrays, more than the 7 GiB of physical "
                "memory") in capsys.readouterr().err

    def test_separation_refuses_before_any_search(self, monkeypatch, capsys):
        # n = 7 is refused before the n = 1-6 searches, which take tens of seconds
        monkeypatch.setattr(models, "_physical_memory", lambda: 7 * 2**30)
        calls = []
        monkeypatch.setattr(mle_lab, "find_min_samples", lambda *a, **k: calls.append(a))
        assert main(["separation", "--simulate-upto", "7", "--n-max", "7"]) == 2
        assert "config error: entangled-pauli at n=7 needs about" in capsys.readouterr().err
        assert calls == []


class TestClassicalMemoryGuard:
    """dim and truncation are refused from their estimate, before allocating."""

    @pytest.fixture(autouse=True)
    def small_box(self, monkeypatch):
        monkeypatch.setattr(models, "_physical_memory", lambda: 7 * 2**30)

        def fail(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        for name in ("eye", "arange"):
            monkeypatch.setattr(np, name, fail)

    @pytest.mark.parametrize("scheme,key", [("multinomial", "dim"),
                                            ("gaussian-known-var", "dim"),
                                            ("poisson", "truncation")])
    @pytest.mark.parametrize("command", ["bounds", "simulate", "fisher"])
    def test_oversized_value_exits_2(self, scheme, key, command, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": scheme, key: 10**9}))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {scheme} at {key}=1000000000 needs about" in err
        assert "GiB" in err and "more than the 7 GiB of physical memory" in err

    def test_estimates_use_the_measured_array_counts(self):
        # 9 multinomial arrays of 10^4 x 10^4 doubles are 6.7 GiB; 10^4 + 1000 is not
        models._check_memory("m", models.MULTINOMIAL_DENSE_ARRAYS, 10**8, "dense")
        with pytest.raises(ValueError, match="needs about 9 GiB"):
            models.multinomial_model(11000)
        with pytest.raises(ValueError, match="needs about 8 GiB"):
            models.PoissonTruncatedModel(125 * 2**20)


def _fail(*args, **kwargs):
    raise AssertionError("worked before the size check")


# each Monte Carlo search entry point, called on a poisson model at theta = 1
LIBRARY_SEARCHES = {
    "success_probability": lambda model: mle_lab.success_probability(
        model, [1.0], 10, 0.3, "linf", trials=2000, seed=0),
    "find_min_samples": lambda model: mle_lab.find_min_samples(
        model, [1.0], 0.3, 0.1, "linf", trials=2000, seed=0),
}


class TestSearchMemoryGuard:
    """A search's draws hold four arrays of up to TRIAL_BLOCK x K counts; the
    poisson truncation is the one K that no dense guard bounds.  The search
    itself checks them, so library callers are covered as well as simulate."""

    @pytest.fixture(autouse=True)
    def small_box(self, monkeypatch, tmp_path):
        monkeypatch.setattr(models, "_physical_memory", lambda: 7 * 2**30)
        self.path = tmp_path / "cfg.json"
        # 4 x 512 x (10^6 + 1) counts are 15.3 GiB; the model itself is 61 MiB
        self.path.write_text(json.dumps({"scheme": "poisson", "truncation": 10**6}))

    def test_search_refused_before_any_draw(self, monkeypatch, capsys):
        # fisher, like bounds, holds no draw and still runs at this truncation
        assert main(["fisher", "--config", str(self.path), "--out", os.devnull]) == 0

        monkeypatch.setattr(models.StatModel, "estimate_batch", _fail)
        monkeypatch.setattr(fisher, "fim", _fail)
        assert main(["simulate", "--config", str(self.path)]) == 2
        err = capsys.readouterr().err
        assert ("config error: search on poisson at trials=2000, K=1000001 outcomes "
                "needs about 16 GiB of 512 x 1000001 count arrays") in err
        assert "more than the 7 GiB of physical memory" in err

    @pytest.mark.parametrize("search", sorted(LIBRARY_SEARCHES))
    def test_library_search_refused_before_any_draw(self, search, monkeypatch):
        model = models.PoissonTruncatedModel(10**6)
        monkeypatch.setattr(models.StatModel, "estimate_batch", _fail)
        with pytest.raises(ValueError, match=r"needs about 16 GiB of 512 x 1000001 count "
                                             r"arrays, more than the 7 GiB of physical memory"):
            LIBRARY_SEARCHES[search](model)

    def test_poisson_draw_stays_within_the_estimate(self):
        # near theta = K every row's MLE takes Newton steps over all K + 1 outcomes
        model = models.PoissonTruncatedModel(5000)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            model.estimate_batch(np.array([4990.0]), 3, rng, mle_lab.TRIAL_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mle_lab.DRAW_ARRAYS * mle_lab.TRIAL_BLOCK * model.K * 8

    @pytest.mark.parametrize("search", sorted(LIBRARY_SEARCHES))
    def test_library_search_runs_at_a_small_truncation(self, search):
        assert LIBRARY_SEARCHES[search](models.PoissonTruncatedModel(20)).wilson_lo > 0.0


class TestExitCodes:
    def test_success(self):
        assert run_cli(["bounds", "--epsilon", "0.05"]).returncode == 0

    def test_verify_clean(self):
        result = run_cli(["verify"])
        assert result.returncode == 0

    def test_verify_fault_injection(self):
        result = run_cli(["verify", "--inject-fault", "fwht"])
        assert result.returncode == 1
        assert "first failing check: pauli/fwht-involution" in result.stderr

    def test_bounds_at_five_qubits(self):
        # the Hessian stack alone would need 1024 x 1023 x 1023 doubles (7.98 GiB)
        result = run_cli(["bounds", "--n", "5", "--epsilon", "0.01", "--format", "json"])
        assert result.returncode == 0, result.stderr
        rows = json.loads(result.stdout)["rows"]
        assert {row["d"] for row in rows} == {1023}

    def test_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mystery": 1}')
        result = run_cli(["bounds", "--config", str(path)])
        assert result.returncode == 2
        assert "mystery" in result.stderr

    def test_bad_flag_is_config_error(self):
        assert run_cli(["bounds", "--no-such-flag"]).returncode == 2

    def test_budget_exceeded(self):
        result = run_cli(["simulate", "--scheme", "entangled-pauli",
                          "--epsilon", "0.01", "--trials", "200",
                          "--m-max", "64"])
        assert result.returncode == 3
        assert "budget_exceeded" in result.stdout or "m_star" in result.stdout

    def test_separation_budget_exceeded(self):
        # n = 2 is searched first: its entangled search passes and its
        # separable one reaches m_max; n = 1 is then not searched
        result = run_cli(["separation", "--n-max", "3", "--simulate-upto", "2",
                          "--epsilon", "0.3", "--trials", "200", "--m-max", "400",
                          "--format", "json"])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        report = json.loads(result.stdout)
        assert report["meta"]["budget_exceeded"] is True
        assert report["meta"]["error"].startswith("criterion unreachable at budget m_max=400:")
        cfg = resolve("separation", n_max=3, simulate_upto=2, epsilon=0.3, trials=200,
                      format="json")
        unbounded = json.loads(run_command("separation", cfg)[0])["rows"][1]
        columns = [(row["m_star_entangled"], row["m_star_separable"])
                   for row in report["rows"]]
        assert columns == [(None, None), (unbounded["m_star_entangled"], None), (None, None)]
        assert unbounded["m_star_separable"] > 400

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "report.csv"
        result = run_cli(["bounds", "--epsilon", "0.05", "--out", str(out)])
        assert result.returncode == 0
        assert out.read_text().startswith("# fisherbound=")

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(cli.COMMANDS, "bounds", broken)
        assert main(["bounds", "--epsilon", "0.05"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:\nTraceback (most recent call last):")
        assert captured.err.rstrip().endswith("RuntimeError: injected fault")

    @pytest.mark.parametrize("where", ["missing/report.csv", "."])
    def test_unwritable_out_is_config_error(self, tmp_path, where, capsys):
        out = tmp_path / where
        assert main(["bounds", "--epsilon", "0.05", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {str(out)!r}: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("module", [m for m in fisherbound.__all__ if m != "__version__"])
def test_every_public_name_resolves(module):
    # the benchmark tracer looks up every __all__ name of every module
    mod = getattr(fisherbound, module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ names missing {name!r}"


def test_main_returns_config_error_code():
    assert main(["bounds", "--delta", "2.0"]) == 2
