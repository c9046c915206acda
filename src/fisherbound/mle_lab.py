"""Monte Carlo verification of accuracy criteria under the models' MLEs.

Trials draw multinomial counts from a model, apply its
maximum-likelihood estimator, and score success as max-norm or Euclidean
error at most eps.  find_min_samples searches for the smallest sample
size whose Wilson lower confidence bound on the success rate clears
1 - delta, by exponential doubling followed by bisection; a search that
reaches m_max without a pass returns that as its result, with m_star None.

Reproducibility: every probe derives its own generator from the master
seed through numpy SeedSequence spawn keys, and trials are grouped into
fixed-size blocks each with a pre-assigned stream.  Blocks run in block
order on the calling thread, so results are bit-identical for a given
seed.  A search probe that can no longer pass stops at the first trial at
which even all-successful remaining trials would leave its Wilson lower
bound below 1 - delta; every pass/fail decision, and so the search
result, is the same as with all trials run.  To stop there it draws each
block's rows in pieces from the block's stream.  numpy's multinomial and
normal draws consume the stream row by row, so the pieces are bit for bit
the block drawn at once.  The empirical MSE-vs-Cramer-Rao diagnostic is a
test oracle (tests/oracles.py), not part of this module.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import models
from .bounds import _check_norm

__all__ = [
    "MinSamplesResult",
    "SuccessEstimate",
    "check_draws",
    "find_min_samples",
    "resolve_threads",
    "success_probability",
    "wilson_interval",
]

TRIAL_BLOCK = 512
DRAW_ARRAYS = 4
WILSON_LEVEL = 0.95
Z_FOR_LEVEL = {0.90: 1.6448536269514722, 0.95: 1.959963984540054,
               0.99: 2.5758293035489004}


def resolve_threads() -> int:
    """Worker count from FISHERBOUND_THREADS; 0 or unset means auto.

    The search runs on the calling thread, so this value changes no
    result or run; the benchmark harness (bench/worker.py) still records it.
    """
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


def check_draws(model, trials):
    """Refuse, before any draw, draws of DRAW_ARRAYS TRIAL_BLOCK x K arrays beyond
    physical memory; no dense guard bounds poisson's K.  DRAW_ARRAYS is the traced
    peak of poisson's estimate_batch, 3.2 arrays: the counts, then mle_batch's
    float copy or the two arrays of its Newton steps."""
    rows = min(trials, TRIAL_BLOCK)
    models._check_memory(f"search on {model.scheme} at trials={trials}, K={model.K} outcomes",
                         DRAW_ARRAYS, rows * model.K, f"{rows} x {model.K} count")


def wilson_interval(successes: int, trials: int, level: float = WILSON_LEVEL):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = Z_FOR_LEVEL.get(level)
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


@dataclass(frozen=True)
class SuccessEstimate:
    rate: float
    wilson_lo: float
    wilson_hi: float
    successes: int
    trials: int
    m: int


def _block_streams(seed, context, trials):
    """Per-block generators, in block order: (seed, context, block) spawn keys.

    Yields (generator, size) pairs; a caller that stops early never
    builds the streams of the blocks it skips.
    """
    for index, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(context, index))
        yield np.random.Generator(np.random.Philox(ss)), min(TRIAL_BLOCK, trials - start)


def _failures_to_fail(trials, level, target):
    """Fewest failures among `trials` that put the Wilson lower bound over
    all of them below target, by bisection (the bound falls as failures
    rise, whatever the other trials turn out); 0 when not even `trials`
    successes reach target."""
    lo, hi = 0, trials
    while lo < hi:
        mid = (lo + hi) // 2
        if wilson_interval(trials - mid, trials, level)[0] < target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _hits(model, theta, p, m, eps, norm, rng, rows):
    """Whether each of the next `rows` trials drawn from rng at p = probs(theta)
    has error <= eps."""
    # the estimates are fresh per draw: score the requested norm in place
    diff = model.estimate_batch(theta, p, m, rng, rows)
    np.subtract(diff, theta, out=diff)
    if norm == "linf":
        error = np.abs(diff, out=diff).max(axis=1)
    else:
        error = np.linalg.norm(diff, axis=1)
    return error <= eps


def success_probability(
    model, theta, p, m, eps, norm, trials, seed, level=WILSON_LEVEL, context=0,
    target=None,
) -> SuccessEstimate:
    """Empirical Pr[error <= eps] with a Wilson score interval; p is probs(theta).

    Trials run in fixed blocks, in block order on the calling thread, each
    block on its own pre-assigned stream.  With a target, the probe stops
    at the first trial at which its Wilson lower bound over all `trials`
    stays below target even if every remaining trial succeeds.  It draws
    each block in pieces from the block's stream, each sized to use up the
    failures the probe can still take at the failure rate seen so far.
    The size is only a hint: a piece in which failure becomes certain
    counts its trials up to that failure and drops the rest, so the
    estimate never depends on it.  The estimate then counts only the
    trials up to the stop, and its interval over them also lies below
    target.  Without a target every trial runs, a block per draw.
    """
    if m < 1:
        raise ValueError(f"sample size must be >= 1, got {m!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_norm(norm)
    check_draws(model, trials)

    # failures at which the probe fails however the remaining trials turn
    # out; with no target, more than can happen
    limit = trials + 1 if target is None else _failures_to_fail(trials, level, target)
    blocks = _block_streams(seed, context, trials)
    successes = run = end = 0
    while run < trials:
        if run == end:
            rng, size = next(blocks)
            end += size
        rows = end - run
        failures = run - successes
        # a hint only: the rows expected to use up the failures left at the
        # failure rate seen so far (smoothed, so the first piece is `limit`
        # rows); with no target it exceeds the rows left
        rows = min(rows, max(1, -(-(limit - failures) * (run + 1) // (failures + 1))))
        hits = _hits(model, theta, p, m, eps, norm, rng, rows)
        count = int(np.count_nonzero(hits))
        if failures + rows - count >= limit:
            # count the trials up to the one that decided the probe
            rows = int(np.argmax(failures + np.cumsum(~hits) >= limit)) + 1
            count = int(np.count_nonzero(hits[:rows]))
        successes += count
        run += rows
        if run - successes >= limit:
            break
    lo, hi = wilson_interval(successes, run, level)
    return SuccessEstimate(
        rate=successes / run, wilson_lo=lo, wilson_hi=hi,
        successes=successes, trials=run, m=m,
    )


@dataclass
class MinSamplesResult:
    """Empirical minimal sample size for an accuracy criterion.

    m_star is the smallest probed sample size whose Wilson lower bound
    reaches 1 - delta; bracket records the largest failing size below it.
    When the doubling reaches m_max without a pass, m_star is None, the rate
    and interval are those of the m_max probe, bracket is (m_max, None) and
    message says why.
    """

    m_star: int | None
    rate_at_m_star: float
    wilson_lo: float
    wilson_hi: float
    bracket: tuple
    stable_at_double: bool
    probes: list = field(default_factory=list)
    message: str | None = None


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
) -> MinSamplesResult:
    """Search for the minimal sample size meeting the accuracy criterion.

    Doubles M from 1 until the Wilson lower bound of the empirical
    success rate reaches 1 - delta, then bisects the bracket down to
    `resolution`.  The bisection assumes success probability nondecreasing
    in M, but true success curves dip on the count lattice (a fair coin at
    eps = 0.2 succeeds with probability 0.9586 at M = 20 and 0.9361 at
    M = 24), so m_star is the smallest probed passing size, not the
    smallest passing size, and stable_at_double records whether the
    criterion still holds at twice m_star.

    A probe stops at the first trial at which it cannot pass (see
    success_probability), so a failing probe may report fewer than
    `trials` trials.  A probe at
    M >= m_max runs in full, since a search that reaches it without a pass
    reports its rate.
    ValueError, before any draw, when not even `trials` successes could pass
    or norm is not one of bounds.NORMS.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    _check_norm(norm)
    target = 1.0 - delta
    if _failures_to_fail(trials, level, target) == 0:
        # T successes out of T give the Wilson lower bound T / (T + z^2)
        least = math.ceil(Z_FOR_LEVEL[level] ** 2 * (1.0 - delta) / delta)
        raise ValueError(f"trials={trials} cannot certify success probability 1 - delta at "
                         f"delta={delta!r}: the Wilson level {level} needs at least "
                         f"{least} trials")
    p = model.probs(theta)
    probes = {}

    def probe(m, index):
        if m not in probes:
            probes[m] = success_probability(
                model, theta, p, m, eps, norm, trials, seed, level, context=index,
                target=None if m >= m_max else target,
            )
        return probes[m]

    def result(m_star, at, bracket, stable, message=None):
        return MinSamplesResult(m_star, at.rate, at.wilson_lo, at.wilson_hi, bracket, stable,
                                sorted(probes.values(), key=lambda s: s.m), message)

    m = 1
    context = 0
    estimate = probe(m, context)
    while estimate.wilson_lo < target:
        if m >= m_max:
            return result(None, estimate, (m, None), False,
                          f"criterion unreachable at budget m_max={m_max}: Wilson lower "
                          f"bound {estimate.wilson_lo:.4f} < {target:.4f} at M={m}")
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
    return result(hi, probes[hi], (lo, hi), stability.wilson_lo >= target)

