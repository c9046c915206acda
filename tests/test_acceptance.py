"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every tolerance is fixed here, not configurable.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fisherbound import bounds, fisher, mle_lab, models, pauli
from fisherbound.special_functions import gaussian_tail, lambert_w0, mills_bounds

from oracles import gauss_tail_quad, mse_vs_crb


def report(criterion, passed, detail):
    print(f"{criterion} {'PASS' if passed else 'FAIL'}: {detail}")


def elapsed_guard(criterion, started, budget):
    seconds = time.perf_counter() - started
    assert seconds < budget, f"{criterion} exceeded its {budget}s runtime budget"
    return seconds


def test_a1_closed_form_fim_reproduction():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (1, 2):
        model = models.entangled_pauli_model(n)
        for _ in range(50):
            lam = pauli.random_valid_eigenvalues(n, rng)[1:]
            f = fisher.fim(model, lam)
            worst = max(worst, float(np.abs(f.inverse_diag - (1.0 - lam**2)).max()))
    seconds = elapsed_guard("A1", started, 10.0)
    report("A1", worst <= 1e-8,
           f"max |[F^-1]_aa - (1 - lam_a^2)| = {worst:.2e} over 50 draws, "
           f"n in {{1,2}}, {seconds:.2f}s")
    assert worst <= 1e-8


def test_a2_structural_fim_and_interlacing():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_entry, worst_edge = 0.0, 0.0
    for n in (1, 2):
        model = models.entangled_pauli_model(n)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4**n)) * 0.9 + 0.1 / 4**n
            p /= p.sum()
            structural = fisher.bell_fim_structural(p, n)
            lam = pauli.rates_to_eigenvalues(p)
            enumerated = fisher.fim(model, lam[1:])
            worst_entry = max(
                worst_entry, float(np.abs(structural.matrix - enumerated.matrix).max())
            )
            full = np.sort(1.0 / (p * 4**n))
            low_gap = full[0] - structural.eigenvalues[0]
            high_gap = structural.eigenvalues[0] - full[1]
            worst_edge = max(worst_edge, low_gap, high_gap)
    seconds = elapsed_guard("A2", started, 10.0)
    ok = worst_entry <= 1e-8 and worst_edge <= 1e-9
    report("A2", ok,
           f"entrywise gap {worst_entry:.2e} (tol 1e-8), interlacing slack "
           f"{worst_edge:.2e} (tol 1e-9), {seconds:.2f}s")
    assert worst_entry <= 1e-8
    assert worst_edge <= 1e-9


def test_a3_empirical_sandwich_linf():
    started = time.perf_counter()
    model = models.entangled_pauli_model(1)
    theta = np.zeros(3)
    eps, delta, trials, seed = 0.1, 0.1, 2000, 6

    result = mle_lab.find_min_samples(model, theta, eps, delta, "linf",
                                      trials=trials, seed=seed)
    lower = bounds.asymptotic_lower_linf(eps, delta, 1.0)  # exact [F^-1]_aa = 1
    coeffs = bounds.estimate_coefficients(model, theta, eps)
    upper = bounds.upper_bound(eps, delta, coeffs, "linf")

    assert lower <= result.m_star, f"lower {lower:.1f} > m_star {result.m_star}"
    # small-eps-limit sandwich with exact inverse-Fisher inputs
    limit_upper = bounds.asymptotic_upper_linf(eps, delta, 3, 1.0)
    assert result.m_star <= limit_upper
    if upper.applicable:
        assert result.m_star <= upper.value
        upper_note = f"<= upper {upper.value:.0f}"
    else:
        # The finite-eps upper bound is out of its regime at eps = 0.1 for
        # this model: the ball envelope gives mu_R ~ 15.1, so
        # eps * d * mu_R / 2 > 1 and tau0 <= 0.  The sandwich is checked
        # per the stated rule "when the latter is applicable", and the
        # full three-sided sandwich is demonstrated at eps = 0.05 where
        # the bound is applicable.
        assert upper.reason == "tau0 <= 0"
        eps2 = 0.05
        result2 = mle_lab.find_min_samples(model, theta, eps2, delta, "linf",
                                           trials=trials, seed=seed)
        lower2 = bounds.asymptotic_lower_linf(eps2, delta, 1.0)
        coeffs2 = bounds.estimate_coefficients(model, theta, eps2)
        upper2 = bounds.upper_bound(eps2, delta, coeffs2, "linf")
        assert upper2.applicable
        assert lower2 <= result2.m_star <= upper2.value
        upper_note = (
            f"(upper inapplicable at eps=0.1: tau0 <= 0, mu_R={coeffs.envelope['linf'][0]:.1f}; "
            f"full sandwich at eps=0.05: {lower2:.0f} <= {result2.m_star} "
            f"<= {upper2.value:.0f})"
        )
    seconds = elapsed_guard("A3", started, 300.0)
    report("A3", True,
           f"lower {lower:.0f} <= m_star {result.m_star} <= small-eps-limit upper "
           f"{limit_upper:.0f} {upper_note}, {seconds:.1f}s")


def test_a4_exponential_separation_witness():
    started = time.perf_counter()
    eps, delta = 0.1, 0.1
    ratios = [
        bounds.separable_pauli_lower(n, eps, delta)
        / bounds.entangled_pauli_upper(n, eps, delta)
        for n in range(1, 9)
    ]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    crossover = next((i for i, r in enumerate(ratios, start=1) if r > 1.0), None)
    beyond = all(r > 1.0 for r in ratios[crossover - 1:]) if crossover else False

    rng = np.random.default_rng(404)
    witness_ok = True
    worst_margin = math.inf
    for n in range(1, 6):
        cap = 2**n - 1
        for _ in range(20):
            bloch = rng.standard_normal((n, 3))
            bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
            r = pauli.product_probe(bloch)[1:]
            model = models.separable_pauli_model(n, r)
            # the per-axis value: each shot measures one of the d axes
            values = model.closed_form_inverse_diag(np.zeros(r.size)) / model.d
            top = float(np.max(values))
            worst_margin = min(worst_margin, top / cap)
            if not top >= cap:
                witness_ok = False
    seconds = elapsed_guard("A4", started, 30.0)
    ok = increasing and crossover is not None and beyond and witness_ok
    report("A4", ok,
           f"ratio grows over n=1..8, crossover n0={crossover}; every random "
           f"product probe has max_a [J^-1]_aa >= 2^n - 1 "
           f"(tightest margin {worst_margin:.2f}x), {seconds:.1f}s")
    assert increasing and crossover == 3 and beyond and witness_ok


def test_a5_cramer_rao_attainment():
    started = time.perf_counter()
    seed, trials, m = 6, 2000, 10**4
    cases = [
        ("bernoulli(0.5)", models.bernoulli_model(), np.array([0.5])),
        ("multinomial d=3", models.multinomial_model(3), np.full(3, 0.25)),
        ("entangled n=1 depolarizing", models.entangled_pauli_model(1), np.zeros(3)),
    ]
    worst = 0.0
    for _, model, theta in cases:
        ratio = mse_vs_crb(model, theta, m=m, trials=trials, seed=seed).ratio
        worst = max(worst, float(np.abs(ratio - 1.0).max()))
    seconds = elapsed_guard("A5", started, 120.0)
    report("A5", worst <= 0.05,
           f"max |MSE/CRB - 1| = {worst:.3f} at M=1e4, 2000 trials, seed={seed}, "
           f"{seconds:.1f}s")
    assert worst <= 0.05


A6_CASES = [
    pytest.param("idealized", 3, 0.1, id="idealized-d3-delta0.1"),
    pytest.param("idealized", 3, 0.01, id="idealized-d3-delta0.01"),
    pytest.param("idealized", 15, 0.1, id="idealized-d15-delta0.1"),
    pytest.param("idealized", 15, 0.01, id="idealized-d15-delta0.01"),
    pytest.param("exact", 3, 0.1, id="exact-d3-delta0.1"),
    pytest.param("exact", 3, 0.01, id="exact-d3-delta0.01"),
    pytest.param("exact", 15, 0.1, id="exact-d15-delta0.1"),
    pytest.param("exact", 15, 0.01, id="exact-d15-delta0.01"),
]


@pytest.mark.parametrize("mode,d,delta", A6_CASES)
def test_a6_small_eps_limit_agreement(mode, d, delta):
    started = time.perf_counter()
    eps = 1e-4
    if mode == "idealized":
        coeffs = bounds.idealized_coefficients(d)
        sup_inv_diag = 1.0
    else:
        n = 1 if d == 3 else 2
        model = models.entangled_pauli_model(n)
        coeffs = bounds.estimate_coefficients(model, np.zeros(d), eps)
        sup_inv_diag = 1.0  # sup over the eigenvalue domain, attained at 0
    value = bounds.upper_bound(eps, delta, coeffs, "linf").value
    target = lambert_w0(8.0 / math.pi * delta**-2 * d**2) * sup_inv_diag
    ratio = value * eps**2 / target
    seconds = elapsed_guard("A6", started, 5.0)
    ok = abs(ratio - 1.0) <= 0.05
    report(f"A6[{mode}-d{d}-delta{delta}]", ok,
           f"value*eps^2 / (W0 * sigma^2) = {ratio:.4f} (tol 5%), {seconds:.2f}s")
    assert ok, (
        f"finite-eps bound is {100 * (ratio - 1):.1f}% above the small-eps limit "
        f"at eps=1e-4, d={d}, delta={delta}: the tau0 shrinkage "
        f"(1 - eps*d*mu_R/2)^-2 with mu_R ~ d^1.5 and the additive "
        f"sqrt(V_H d / delta) / 2 + d*eta/delta bracket terms have not vanished "
        f"by eps=1e-4 at d=15, so no correct evaluator can meet the 5% gate here "
        f"(see README, Install and test)"
    )


def test_a7_special_function_identities():
    started = time.perf_counter()
    worst = 0.0
    for x in np.concatenate([[-math.exp(-1.0) + 1e-9], np.logspace(-9, 12, 200)]):
        w = lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    log_ok = all(
        lambert_w0(float(x)) <= math.log(x) + 1e-12
        for x in np.logspace(math.log10(math.e), 12, 50)
    )
    mills_ok = True
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        pair = mills_bounds(x)
        tail = gaussian_tail(x) if x < 8 else gauss_tail_quad(x)
        mills_ok = mills_ok and pair.lower < tail < pair.upper
    w0e = abs(lambert_w0(math.e) - 1.0)
    seconds = elapsed_guard("A7", started, 1.0)
    ok = worst <= 1e-12 and log_ok and mills_ok and w0e <= 1e-12
    report("A7", ok,
           f"Lambert residual {worst:.2e}, W0(e)-1 = {w0e:.1e}, log bound and "
           f"Mills bracket hold, {seconds:.2f}s")
    assert ok


def test_a8_single_copy_trace_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    checked = 0
    for n in (1, 2):
        dim = 2**n
        cap = 2**n - 1
        for _ in range(50):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, _ = np.linalg.qr(raw)
            povm = [np.outer(q[:, k], q[:, k].conj()) for k in range(dim)]
            result = fisher.single_copy_trace_bound(povm, n)
            assert result.trace_sum <= cap + 1e-8
            assert result.witness_value <= cap / (4**n - 1) + 1e-9
            checked += 1
    seconds = elapsed_guard("A8", started, 30.0)
    report("A8", True,
           f"{checked} random projective POVMs: trace cap and witness hold, "
           f"{seconds:.1f}s")


def test_a9_estimability_against_projector_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    checked = 0
    for _ in range(40):
        d = int(rng.integers(2, 7))
        rank = int(rng.integers(1, d))
        # axis-aligned construction: estimable set is exactly the support
        support = rng.choice(d, size=rank, replace=False)
        basis = np.zeros((d, rank))
        block = rng.standard_normal((rank, rank))
        basis[np.sort(support)] = block @ block.T + rank * np.eye(rank)
        f = fisher.FisherMatrix(basis @ basis.T)
        q, _ = np.linalg.qr(basis)
        projector = q @ q.T
        mask = f.estimable
        for a in range(d):
            e = np.zeros(d)
            e[a] = 1.0
            oracle = bool(np.linalg.norm(projector @ e - e) <= 1e-8)
            assert mask[a] == oracle
            assert oracle == (a in support)
            checked += 1
    seconds = elapsed_guard("A9", started, 5.0)
    report("A9", True,
           f"{checked} coordinate checks match the projector oracle, {seconds:.2f}s")


def test_a10_determinism_and_cli_contracts(tmp_path):
    started = time.perf_counter()

    def cli(args):
        return subprocess.run([sys.executable, "-m", "fisherbound", *args],
                              capture_output=True, text=True)

    sim_args = ["simulate", "--scheme", "entangled-pauli", "--epsilon", "0.3",
                "--trials", "500", "--seed", "12"]
    first, second = cli(sim_args), cli(sim_args)
    assert first.stdout == second.stdout and first.returncode == 0

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"unknown_key": 1}')
    exit_codes = {
        "success": cli(["bounds", "--epsilon", "0.05"]).returncode,
        "verify-clean": cli(["verify"]).returncode,
        "verify-fault": cli(["verify", "--inject-fault", "fwht"]).returncode,
        "config-error": cli(["bounds", "--config", str(bad_cfg)]).returncode,
        "budget": cli(["simulate", "--epsilon", "0.01", "--trials", "100",
                       "--m-max", "32"]).returncode,
    }
    expected = {"success": 0, "verify-clean": 0, "verify-fault": 1,
                "config-error": 2, "budget": 3}
    seconds = elapsed_guard("A10", started, 300.0)
    ok = first.stdout == second.stdout and exit_codes == expected
    report("A10", ok,
           f"bit-identical reports, exit codes {exit_codes}, {seconds:.1f}s")
    assert exit_codes == expected
