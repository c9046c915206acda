import json
import subprocess
import sys

import pytest

from fisherbound import fisher
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


class TestConfigHandling:
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
    ])
    def test_search_fields_typed_and_bounded(self, tmp_path, capsys, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "bernoulli", "epsilon": 0.3, **field}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"config error: {next(iter(field))}" in capsys.readouterr().err

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

        monkeypatch.setattr(fisher, "fim", counting_fim)
        cfg = resolve("bounds", n=2, epsilon=0.01, grid_points=6, param_seed=4,
                      format="json")
        text, code = run_command("bounds", cfg)
        assert code == 0
        assert len(calls) == json.loads(text)["meta"]["grid_points"] > 1

    def test_supremum_grid_reported(self):
        cfg = resolve("bounds", epsilon=0.01, grid_points=5, param_seed=2,
                      format="json")
        text, code = run_command("bounds", cfg)
        assert code == 0
        meta = json.loads(text)["meta"]
        assert meta["grid_points"] >= 2  # configured point plus valid draws
        assert meta["domain_shrink"] == 1e-6


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

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "report.csv"
        result = run_cli(["bounds", "--epsilon", "0.05", "--out", str(out)])
        assert result.returncode == 0
        assert out.read_text().startswith("# fisherbound=")


def test_main_returns_config_error_code():
    assert main(["bounds", "--delta", "2.0"]) == 2
