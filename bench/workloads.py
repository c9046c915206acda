"""Workload definitions: the fixed command lists each benchmark client runs.

Every config is the CLI defaults plus the overrides below, with the
workload seed written into both `seed` and `param_seed` and `format` set
to json so the correctness gate can compare reports field by field.
"""

import numpy as np

GOLDEN_SEED = 1

# Separable probes use a fixed Bloch direction on every qubit instead of
# the param_seed-drawn random product state: random probes put some
# components near zero, which drives m_star past any budget on some
# seeds (seeds 4 and 7 exceed m_max = 2**40 at n=3) and makes the search
# cost vary twofold between seeds.  (2, 1, 1)/sqrt(6) keeps every
# component >= 0.068 and m_star near 1e6 at n=3, as the random probe of
# param_seed 1 does.
SEPARABLE_BLOCH = np.array([2.0, 1.0, 1.0]) / np.sqrt(6.0)

WORKLOADS = {
    # Dense coefficient/Fisher path, no Monte Carlo: n=4 Hessian stacks
    # (256 x 255 x 255) are bandwidth-heavy, the 200-point n=3 grid is
    # heavy on per-call overhead, estimable makes 255 pinv calls.
    "bell-bounds": [
        ("bounds", {"scheme": "entangled-pauli", "n": 4, "epsilon": 0.01, "grid_points": 4}),
        ("bounds", {"scheme": "two-copy-bell", "n": 4, "preset": "random", "epsilon": 0.01}),
        ("bounds", {"scheme": "entangled-pauli", "n": 3, "epsilon": 0.01, "grid_points": 200}),
        ("fisher", {"scheme": "entangled-pauli", "n": 4, "preset": "random"}),
        ("fisher", {"scheme": "two-copy-bell", "n": 4, "preset": "random"}),
    ],
    # Bell Monte Carlo search: multinomial sampling, the fwht MLE, probe
    # scheduling and the per-probe thread pool; coefficient work at
    # n <= 3 is negligible.
    "bell-search": [
        ("simulate", {"scheme": "entangled-pauli", "n": 3, "epsilon": 0.05, "trials": 10000}),
        ("simulate", {"scheme": "entangled-pauli", "n": 3, "epsilon": 0.02}),
        ("simulate", {"scheme": "two-copy-bell", "n": 3, "preset": "random", "epsilon": 0.05}),
        ("simulate", {"scheme": "entangled-pauli", "n": 2, "epsilon": 0.05, "norm": "l2"}),
        ("simulate", {"scheme": "entangled-pauli", "n": 1, "epsilon": 0.02}),
    ],
    # The same mle_lab layer without fwht: m_star near 1e6, many short
    # probes where pool creation dominates, and the Gaussian special case.
    # A change tuned for Bell that costs these models shows here.
    "scalar-search": [
        ("simulate", {"scheme": "separable-pauli", "n": 3, "epsilon": 0.3}),
        ("simulate", {"scheme": "separable-pauli", "n": 2, "epsilon": 0.1}),
        ("simulate", {"scheme": "separable-pauli", "n": 1, "epsilon": 0.05}),
        ("simulate", {"scheme": "bernoulli", "epsilon": 0.005, "trials": 10000}),
        ("simulate", {"scheme": "multinomial", "dim": 3, "epsilon": 0.05}),
        ("simulate", {"scheme": "poisson", "epsilon": 0.05}),
        ("simulate", {"scheme": "gaussian-known-var", "dim": 3, "epsilon": 0.05}),
        ("separation", {"n_min": 1, "n_max": 8, "simulate_upto": 2}),
        ("verify", {}),
    ],
}

# FISHERBOUND_THREADS of the measured passes.  At the program default (2
# on a 2-vCPU host) the search workloads hand the GIL between two pool
# threads on every short probe, and on a shared host their pass time then
# swings by up to 2.5x in phases longer than a run; at 1 thread it stays
# within about 10%.  The check pass of every run uses the program default,
# so reports must still not depend on the thread count.
THREADS = 1

# subcommands whose configs carry a model and parameter point
MODEL_COMMANDS = ("bounds", "simulate", "fisher")


def commands(workload, seed, cli, pauli):
    """(subcommand, resolved config) pairs for one pass of the workload."""
    out = []
    for command, overrides in WORKLOADS[workload]:
        cfg = dict(cli.DEFAULTS)
        cfg.update(overrides)
        cfg.update(seed=seed, param_seed=seed, format="json")
        if cfg["scheme"] == "separable-pauli" and command in MODEL_COMMANDS:
            bloch = np.tile(SEPARABLE_BLOCH, (cfg["n"], 1))
            cfg["r"] = pauli.product_probe(bloch).tolist()
        out.append((command, cfg))
    return out
