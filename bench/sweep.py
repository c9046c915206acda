"""Scaling sweep of single layers at n = 1..6 qubits, guarded before allocation.

Each (layer, n) first gets an estimate of the bytes it holds at its peak
and of its floating-point operations.  Sizes over the memory budget (a
quarter of the machine's memory) or the operation budget are skipped and
recorded with those estimates; nothing is allocated for them.
"""

import os
import statistics
import time
from functools import partial

import numpy as np

QUBITS = range(1, 7)
ROWS = 512  # batch rows for fwht and mle_batch
COUNTS_PER_ROW = 1000
EPSILON = 0.01
MIN_REPEATS = 3
MIN_SECONDS = 0.2
MAX_REPEATS = 50
# fisher.fim at n=5 needs ~1.3e10 flops; at n=6 (an eigh of order 4095) ~8e11
FLOP_BUDGET = 2e10


def memory_budget():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4


def need(layer, n):
    """(peak bytes, flops) estimated from the shapes a call allocates."""
    k = 4**n
    d = k - 1
    batch = ROWS * k * 8
    # a dense Bell model holds the sign matrix and A; sign_matrix itself
    # peaks at about four K x K temporaries
    model = 3 * k * k * 8
    eigh = 10 * d**3
    if layer == "pauli.fwht":
        return 4 * batch, ROWS * k * 2 * n
    if layer == "models.mle_batch":
        return model + 5 * batch, ROWS * k * (2 * n + 2)
    if layer == "pauli.sign_matrix":
        return 4 * k * k * 8, 6 * k * k
    if layer == "fisher.fim":
        return model + 2 * k * d * 8 + 4 * d * d * 8, 2 * k * d * d + eigh
    if layer == "bounds.estimate_coefficients":
        # Hessian stack, its centred copy and the squared copy
        return (model + 3 * k * d * d * 8 + 4 * d * d * 8,
                8 * k * d * d + eigh)
    raise ValueError(layer)


LAYERS = ("pauli.fwht", "models.mle_batch", "pauli.sign_matrix", "fisher.fim",
          "bounds.estimate_coefficients")


def _time(call):
    times = []
    total = 0.0
    while len(times) < MIN_REPEATS or (total < MIN_SECONDS and len(times) < MAX_REPEATS):
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
    return statistics.median(times), len(times)


def run(fisherbound, seed):
    """Median seconds per call for each layer and size, plus the skipped ones."""
    models, pauli, fisher, bounds = (fisherbound.models, fisherbound.pauli,
                                     fisherbound.fisher, fisherbound.bounds)
    rng = np.random.default_rng(seed)
    budget = memory_budget()
    timings, skipped = {}, {}
    for n in QUBITS:
        k = 4**n
        theta = np.zeros(k - 1)
        model = None
        for layer in LAYERS:
            bytes_needed, flops = need(layer, n)
            if bytes_needed > budget or flops > FLOP_BUDGET:
                skipped[f"{layer}.s.n{n}"] = {
                    "bytes": bytes_needed, "flops": flops,
                    "reason": "memory" if bytes_needed > budget else "compute",
                }
                continue
            if model is None and layer not in ("pauli.fwht", "pauli.sign_matrix"):
                model = models.entangled_pauli_model(n)
            if layer == "pauli.fwht":
                batch = rng.random((ROWS, k))
                call = partial(pauli.fwht, batch)
            elif layer == "models.mle_batch":
                counts = rng.multinomial(COUNTS_PER_ROW, model.probs(theta), size=ROWS)
                call = partial(model.mle_batch, counts)
            elif layer == "pauli.sign_matrix":
                call = partial(pauli.sign_matrix, n)
            elif layer == "fisher.fim":
                call = partial(fisher.fim, model, theta)
            else:
                call = partial(bounds.estimate_coefficients, model, theta, EPSILON)
            seconds, repeats = _time(call)
            timings[f"{layer}.s.n{n}"] = {"value": seconds, "repeats": repeats}
    return {"memory_budget_bytes": budget, "flop_budget": FLOP_BUDGET,
            "timings": timings, "skipped": skipped}
