"""Byte identity of CLI reports across refactors.

Each case pins the SHA-256 of the report text that `cli.run_command`
renders for the CLI defaults plus a few overrides, together with the exit
code.  Together the cases cover all five subcommands in both formats, a
singular Fisher matrix (in `fisher` and in `bounds`, whose lower-l2 row
reads the pseudoinverse's top direction), grid suprema whose upper rows
are inapplicable (n = 2 at eps = 0.01) and applicable (eps = 1e-4 at
n = 1 for both Bell schemes, eps = 1e-6 at n = 2), a sample budget that runs out
(exit 3), separation tables with simulated columns (one with a non-default
resolution and Wilson level), a verify run with an injected fault
(exit 1), Bell searches at n = 3 (entangled-pauli in l2,
two-copy-bell at a random point in linf), and a separable-pauli search at
n = 2 with the balanced probe (1, 1, 1)/sqrt(3) on each qubit, whose MLE
and max-norm error are per coordinate.  Every other simulate case runs at
n = 1, where d = 3 and the order in which the MLE and the error norm sum
their terms cannot change a bit.  One case pins a per-model path: the
two-copy-bell closed-form inverse diagonal in `fisher` at n = 2.  A
separable-pauli `bounds` grid, whose model draws no random points, writes
no report: it exits 2.

A change that is meant to leave the program's output alone must keep
every digest.  A digest may change only together with a written reason in
CHANGES.md, the same rule that holds for bench/golden/.  To regenerate a
digest, print `hashlib.sha256(text.encode()).hexdigest()` for the case.
"""

import hashlib

import numpy as np
import pytest

from fisherbound import cli, pauli

BALANCED_PROBE_N2 = pauli.product_probe(np.tile(np.ones(3) / np.sqrt(3.0), (2, 1))).tolist()

CASES = [
    ("bounds", {"epsilon": 0.05},
     0, "0eb6c83aa302b8cf4e2c133f3d158e8a6f9e24c0f739f5837a9dc821e9f42a44"),
    ("bounds", {"n": 2, "epsilon": 0.01, "grid_points": 3, "format": "json"},
     0, "479ead7dcbc0e5f04663e6fcdd42068e0b4bf05a39b26d3c31f0bcf4ddf0fb8c"),
    ("bounds", {"scheme": "poisson", "epsilon": 0.05, "format": "json"},
     0, "632360d1bec3def9df9e6f1601896964d2f6bf67e4bb02c5b005afa8f23f1df3"),
    ("bounds", {"scheme": "separable-pauli", "epsilon": 0.02},
     0, "60271fa1631800703d7cf59b4fcb2999437868789a76ecab1eb8fe27a3035468"),
    ("bounds", {"scheme": "two-copy-bell", "preset": "random", "epsilon": 0.001},
     0, "4555d07b08133df707f66a40cb863edfab98fb1fceb30e0eb74a5a50b17489fd"),
    ("simulate", {"scheme": "bernoulli", "epsilon": 0.2, "trials": 400},
     0, "473b5a89e09c3ee4a48e0173276f0ed9883da1bb683464a8e2220a059c1779d0"),
    ("simulate", {"epsilon": 0.3, "trials": 300, "norm": "l2", "format": "json"},
     0, "f77cc7cf704b1340db943c4b62ab65672e625d741e95e7d36a9f3375e8508f5f"),
    ("simulate", {"epsilon": 0.01, "trials": 200, "m_max": 64},
     3, "39ca253fbe298d79748e6dc2f3a0b7dec4bb443d6ee6effd6ceab6ce4e147efe"),
    ("simulate", {"scheme": "gaussian-known-var", "dim": 2, "epsilon": 0.2,
                  "trials": 300, "format": "json"},
     0, "7a38fb83f86ed0ed3f338894a40b9e10586e6843a81898eee9118aae9feb6622"),
    ("simulate", {"scheme": "poisson", "epsilon": 0.3, "trials": 300},
     0, "c16afe995d1acf6e8d8df23fff6d8a19215ab147a0e2d78d4ebc21e28747f5ab"),
    ("fisher", {"n": 2, "preset": "random", "param_seed": 5},
     0, "f67e6999e1d5abd8f83d400ae7bbb0bfa96f7546efe0814516c498c06aa812e1"),
    ("fisher", {"scheme": "separable-pauli", "format": "json"},
     0, "49e0e73fec6be9105724809f010a705b46e92f36582ef72680497ebacc4a0353"),
    ("fisher", {"scheme": "separable-pauli", "r": [1.0, 0.8, 0.0, 0.5]},
     0, "17371e43f0f5258d78e14096248d9498e813e1bf99f2d89d4ed46298795deeef"),
    ("separation", {"n_max": 3, "simulate_upto": 1, "epsilon": 0.3, "trials": 200},
     0, "7a39f2c7696f45438545becc4d458dbafca0834418fe160e3cbd3c9704f175ed"),
    ("separation", {"n_max": 4, "format": "json"},
     0, "f6b8bf5d9426c46c680b26536f4f628253f8ab4e3bf8c1fe81fbd6620acead1c"),
    ("verify", {"seed": 21},
     0, "d3878cf2197b84772c6af6bf1255ec05e414b97168a96011f8f8962561b57898"),
    ("verify", {"inject_fault": "fwht", "format": "json"},
     1, "de0175b1bb7786cca0ae30d229a9c10322835088859aada5b7217f02faf1c12d"),
    ("bounds", {"scheme": "separable-pauli", "r": [1, 0.8, 0, 0.5], "theta": [0, 0.5, 0],
                "epsilon": 0.01},
     0, "e2660c88e1a3a1e427a1e124d9dd110e272f903ca0e01b57fd65dba734b2ab10"),
    ("separation", {"n_max": 2, "simulate_upto": 1, "resolution": 8, "wilson_level": 0.99,
                    "epsilon": 0.3, "trials": 400},
     0, "7b8dbcdace95d1f679b81b6575e45e54c521bc4c7acef9a3d389e1216d1c0f35"),
    ("simulate", {"n": 3, "epsilon": 0.1, "trials": 300, "norm": "l2", "format": "json"},
     0, "475c6f3a76d8518215a142bafbd5e810f79aecb53c0f1c919dd288eb536a9e06"),
    ("simulate", {"scheme": "two-copy-bell", "n": 3, "preset": "random", "epsilon": 0.1,
                  "trials": 300},
     0, "3de3c722b612d67d4124c976bbe8f817ad64dbbd3275db72d5b3d718f1f176b2"),
    ("bounds", {"epsilon": 1e-4, "grid_points": 10},
     0, "6d098af84502d33bc1b3a3ce013e3da1f538e8e4c37e1cdb279ae675bbb5f0f1"),
    ("bounds", {"scheme": "two-copy-bell", "preset": "random", "epsilon": 1e-4,
                "grid_points": 10},
     0, "bb245102763d4dd4d8cf76c44e919dc9d64d838b81f6cd331f6c7069dbe0948a"),
    ("bounds", {"n": 2, "epsilon": 1e-6, "grid_points": 10},
     0, "a942dafbfeaddd1dcf4ce0c4f78660905363b9dc0a627d2d5ce4b3dba447ec7f"),
    ("simulate", {"scheme": "separable-pauli", "n": 2, "r": BALANCED_PROBE_N2, "epsilon": 0.1,
                  "trials": 300},
     0, "8690c338d0753cdded30274162a82411bc3f76591e3d51ceaaf1287a6dea3a15"),
    ("fisher", {"scheme": "two-copy-bell", "n": 2, "preset": "random"},
     0, "60fae59434f60f221f0164ce4213481a66efdc29373f1044325750a1c8f8bb6e"),
]


@pytest.mark.parametrize(
    "command, overrides, code, digest", CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
)
def test_report_digest(command, overrides, code, digest):
    text, got_code = cli.run_command(command, {**cli.DEFAULTS, **overrides})
    assert got_code == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_grid_on_a_model_without_random_points_is_refused(capsys):
    # separable-pauli draws no random points, so a supremum grid on it is
    # refused rather than reported over theta alone
    argv = ["bounds", "--scheme", "separable-pauli", "--n", "2", "--grid-points", "5"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: separable-pauli draws no random points: "
                            "grid_points must be 0\n")
