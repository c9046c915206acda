"""Monte Carlo verification of accuracy criteria under closed-form MLEs.

Trials draw multinomial counts from a model, apply its closed-form
maximum-likelihood estimator, and score success as max-norm or Euclidean
error at most eps.  find_min_samples searches for the smallest sample
size whose Wilson lower confidence bound on the success rate clears
1 - delta, by exponential doubling followed by bisection.

Reproducibility: every probe derives its own generator from the master
seed through numpy SeedSequence spawn keys, and trials are grouped into
fixed-size blocks each with a pre-assigned stream, so results are
bit-identical regardless of execution order or worker count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .models import GaussianKnownCovModel
from .pauli import fwht

__all__ = [
    "BudgetExceededError",
    "MinSamplesResult",
    "MonotonicityError",
    "SuccessEstimate",
    "TrialOutcome",
    "find_min_samples",
    "mle_classical",
    "mle_pauli_eigenvalues",
    "mse_vs_crb",
    "resolve_threads",
    "run_trial",
    "success_probability",
    "wilson_interval",
]

TRIAL_BLOCK = 512
WILSON_LEVEL = 0.95
_Z_FOR_LEVEL = {0.90: 1.6448536269514722, 0.95: 1.959963984540054,
                0.99: 2.5758293035489004}


class BudgetExceededError(RuntimeError):
    """Doubling search passed the sample-size budget without success."""

    def __init__(self, message, probes=None):
        super().__init__(message)
        self.probes = probes or []


class MonotonicityError(RuntimeError):
    """Success rates decreased with sample size beyond statistical noise."""


def resolve_threads() -> int:
    """Worker count from FISHERBOUND_THREADS; 0 or unset means auto."""
    raw = os.environ.get("FISHERBOUND_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"FISHERBOUND_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise ValueError("FISHERBOUND_THREADS must be >= 0")
    if value == 0:
        return min(os.cpu_count() or 1, 8)
    return value


def wilson_interval(successes: int, trials: int, level: float = WILSON_LEVEL):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = _Z_FOR_LEVEL.get(level)
    if z is None:
        raise ValueError(f"unsupported confidence level {level!r}")
    rate = successes / trials
    z2 = z * z
    centre = (rate + z2 / (2 * trials)) / (1 + z2 / trials)
    half = (
        z
        * math.sqrt(rate * (1 - rate) / trials + z2 / (4 * trials * trials))
        / (1 + z2 / trials)
    )
    return max(0.0, centre - half), min(1.0, centre + half)


def mle_pauli_eigenvalues(counts, n: int) -> np.ndarray:
    """MLE of all Pauli eigenvalues from Bell-measurement counts.

    lam_hat_a = sum_b (n_b / M) (-1)^<a, b>, i.e. the Walsh-Hadamard
    transform of the empirical frequencies; the identity component is 1
    exactly.  Returns the full length-4^n vector.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (4**n,):
        raise ValueError(f"expected {4**n} counts for n={n}")
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty counts")
    lam = fwht(counts / total)
    lam[0] = 1.0
    return lam


def mle_classical(kind: str, **stats):
    """Closed-form MLEs of the classical models from sufficient statistics.

    bernoulli: successes, total -> successes/total (flagged when on the
    boundary); gaussian: samples -> sample mean; multinomial: counts ->
    frequencies; poisson: samples -> sample mean.
    Returns (estimate, on_boundary).
    """
    if kind == "bernoulli":
        s, m = stats["successes"], stats["total"]
        est = s / m
        return np.array([est]), est in (0.0, 1.0)
    if kind == "gaussian":
        samples = np.atleast_2d(np.asarray(stats["samples"], dtype=float))
        return samples.mean(axis=0), False
    if kind == "multinomial":
        counts = np.asarray(stats["counts"], dtype=float)
        freqs = counts / counts.sum()
        return freqs[:-1], bool(np.any(freqs == 0.0))
    if kind == "poisson":
        samples = np.asarray(stats["samples"], dtype=float)
        est = float(samples.mean())
        return np.array([est]), est == 0.0
    raise ValueError(f"unknown model kind: {kind!r}")


@dataclass(frozen=True)
class TrialOutcome:
    """One Monte Carlo trial: estimate, both error norms, and the verdict."""

    estimate: np.ndarray
    error_linf: float
    error_l2: float
    success: bool


def _errors(estimates, theta):
    diff = estimates - theta[None, :]
    return np.abs(diff).max(axis=1), np.linalg.norm(diff, axis=1)


def _estimate_batch(model, theta, m, rng, trials):
    if isinstance(model, GaussianKnownCovModel):
        return model.sample_mean_batch(theta, m, rng, trials)
    p = np.clip(model.probs(theta), 0.0, None)
    counts = rng.multinomial(m, p / p.sum(), size=trials)
    return model.mle_batch(counts)


def run_trial(model, theta, m, eps, norm, rng) -> TrialOutcome:
    """Sample m measurements, apply the model MLE, score the accuracy event.

    eps = inf is accepted as an always-succeed sentinel.
    """
    if m < 1:
        raise ValueError("sample size must be >= 1")
    if norm not in ("linf", "l2"):
        raise ValueError(f"norm must be 'linf' or 'l2', got {norm!r}")
    theta = model.validate_theta(theta)
    estimates = _estimate_batch(model, theta, m, rng, trials=1)
    err_linf, err_l2 = _errors(estimates, theta)
    error = err_linf[0] if norm == "linf" else err_l2[0]
    return TrialOutcome(
        estimate=estimates[0],
        error_linf=float(err_linf[0]),
        error_l2=float(err_l2[0]),
        success=bool(error <= eps),
    )


@dataclass(frozen=True)
class SuccessEstimate:
    rate: float
    wilson_lo: float
    wilson_hi: float
    successes: int
    trials: int
    m: int


def _block_streams(seed, context, trials):
    """Pre-assigned per-block generators: (seed, context, block) spawn keys."""
    blocks = []
    start = 0
    index = 0
    while start < trials:
        size = min(TRIAL_BLOCK, trials - start)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(context, index))
        blocks.append((np.random.Generator(np.random.Philox(ss)), size))
        start += size
        index += 1
    return blocks


def success_probability(
    model, theta, m, eps, norm, trials, seed, level=WILSON_LEVEL, context=0
) -> SuccessEstimate:
    """Empirical Pr[error <= eps] with a Wilson score interval.

    Trials run in fixed blocks on independent derived streams; the
    success count is a sum over blocks, so any execution order (or
    thread count, per FISHERBOUND_THREADS) gives identical results.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    theta = model.validate_theta(theta)

    def run_block(args):
        rng, size = args
        # the estimates are fresh per block: score the requested norm in place
        diff = _estimate_batch(model, theta, m, rng, size)
        np.subtract(diff, theta, out=diff)
        if norm == "linf":
            error = np.abs(diff, out=diff).max(axis=1)
        else:
            error = np.linalg.norm(diff, axis=1)
        return int((error <= eps).sum())

    blocks = _block_streams(seed, context, trials)
    workers = resolve_threads()
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            successes = sum(pool.map(run_block, blocks))
    else:
        successes = sum(run_block(b) for b in blocks)
    lo, hi = wilson_interval(successes, trials, level)
    return SuccessEstimate(
        rate=successes / trials, wilson_lo=lo, wilson_hi=hi,
        successes=successes, trials=trials, m=m,
    )


@dataclass
class MinSamplesResult:
    """Empirical minimal sample size for an accuracy criterion.

    m_star is the smallest probed sample size whose Wilson lower bound
    reaches 1 - delta; bracket records the largest failing size below it.
    """

    m_star: int
    rate_at_m_star: float
    wilson_lo: float
    wilson_hi: float
    bracket: tuple
    trials_per_probe: int
    seed: int
    stable_at_double: bool
    probes: list = field(default_factory=list)
    monotonicity_notes: list = field(default_factory=list)


def _check_monotonicity(probes, floor_m, strict):
    """Collect statistically hard rate decreases across probed sizes.

    True success curves of discrete estimators are not monotone: the
    criterion boundary eps*M sweeps across the count lattice, producing
    real dips of a few percent (e.g. a fair coin at eps = 0.2 succeeds
    with probability 0.9586 at M = 20 but 0.9361 at M = 24).  Reversals
    are therefore recorded on the result rather than resolved; with
    strict=True a reversal at or above the bisection bracket raises,
    which is useful as a sampler-bug tripwire when the criterion is known
    to be lattice-free.
    """
    notes = []
    ordered = sorted(probes, key=lambda s: s.m)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.wilson_hi < earlier.wilson_lo - 1e-12:
            message = (
                f"success rate fell from {earlier.rate:.4f} at M={earlier.m} "
                f"to {later.rate:.4f} at M={later.m} beyond interval overlap"
            )
            if strict and earlier.m >= floor_m:
                raise MonotonicityError(message)
            notes.append(message)
    return notes


def find_min_samples(
    model,
    theta,
    eps,
    delta,
    norm,
    trials=2000,
    seed=0,
    resolution=1,
    m_max=2**22,
    level=WILSON_LEVEL,
    strict_monotonicity=False,
) -> MinSamplesResult:
    """Search for the minimal sample size meeting the accuracy criterion.

    Doubles M from 1 until the Wilson lower bound of the empirical
    success rate reaches 1 - delta, then bisects the bracket down to
    `resolution`.  Success probability is assumed nondecreasing in M
    within the search; the result records whether the criterion still
    holds at twice m_star and lists any statistically hard rate
    reversals (monotonicity_notes).  strict_monotonicity=True turns a
    reversal inside the bisection region into MonotonicityError.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    target = 1.0 - delta
    probes = {}

    def probe(m, index):
        if m not in probes:
            probes[m] = success_probability(
                model, theta, m, eps, norm, trials, seed, level, context=index
            )
        return probes[m]

    m = 1
    context = 0
    estimate = probe(m, context)
    while estimate.wilson_lo < target:
        if m >= m_max:
            raise BudgetExceededError(
                f"criterion unreachable at budget m_max={m_max}: Wilson lower "
                f"bound {estimate.wilson_lo:.4f} < {target:.4f} at M={m}",
                probes=sorted(probes.values(), key=lambda s: s.m),
            )
        m = min(2 * m, m_max)
        context += 1
        estimate = probe(m, context)

    lo = m // 2 if m > 1 else 0  # largest known-failing size (0 if none)
    hi = m
    while hi - lo > resolution:
        mid = (lo + hi) // 2
        context += 1
        if probe(mid, context).wilson_lo >= target:
            hi = mid
        else:
            lo = mid

    context += 1
    stability = probe(min(2 * hi, m_max), context)
    notes = _check_monotonicity(probes.values(), floor_m=max(lo, 1),
                                strict=strict_monotonicity)
    final = probes[hi]
    return MinSamplesResult(
        m_star=hi,
        rate_at_m_star=final.rate,
        wilson_lo=final.wilson_lo,
        wilson_hi=final.wilson_hi,
        bracket=(lo, hi),
        trials_per_probe=trials,
        seed=seed,
        stable_at_double=stability.wilson_lo >= target,
        probes=sorted(probes.values(), key=lambda s: s.m),
        monotonicity_notes=notes,
    )


@dataclass(frozen=True)
class MseCrbReport:
    """Per-coordinate empirical MSE against the Cramer-Rao prediction."""

    mse: np.ndarray
    crb: np.ndarray
    ratio: np.ndarray
    m: int
    trials: int


def mse_vs_crb(model, theta, m, trials, seed, fisher_matrix=None) -> MseCrbReport:
    """Empirical MLE mean squared error against [F^-1]_aa / m per coordinate."""
    from .fisher import fim

    theta = model.validate_theta(theta)
    f = fisher_matrix if fisher_matrix is not None else fim(model, theta)
    crb = f.inverse_diag() / m

    sq_sum = np.zeros(model.d)
    for rng, size in _block_streams(seed, 0, trials):
        estimates = _estimate_batch(model, theta, m, rng, size)
        sq_sum += ((estimates - theta[None, :]) ** 2).sum(axis=0)
    mse = sq_sum / trials
    return MseCrbReport(mse=mse, crb=crb, ratio=mse / crb, m=m, trials=trials)
