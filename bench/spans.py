"""Spans around the public entry points of every fisherbound module.

The benchmark wraps functions from outside the package: every function in
a module's `__all__` (plus `cli.render_report`), and the model methods and
model constructors of the classes the model factories return.  A function
is wrapped at every module attribute that holds it, because callers look
names up where they imported them (`fisher.fim` and `bounds.fim`,
`pauli.fwht`, `models.fwht` and `mle_lab.fwht`).

Spans carry name, start, end and parent.  A span opened on a worker
thread whose own stack is empty takes the innermost open span of the
main thread as its parent, so trials run on the pool count as children
of the probe that launched them.
"""

import functools
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

MODULES = ("cli", "models", "pauli", "fisher", "bounds", "special_functions",
           "mle_lab", "verify")
EXTRA_FUNCTIONS = {"cli": ("render_report",)}
MODEL_METHODS = ("probs", "dprobs", "dlogp", "d2logp", "d3logp",
                 "third_derivative_envelope", "mle", "mle_batch",
                 "analytic_fisher", "exact_coefficients", "sample_mean_batch")
# constructors a caller invokes directly instead of through a factory
MODEL_CONSTRUCTORS = ("PoissonTruncatedModel", "GaussianKnownCovModel")

# entry points reported together under one span name
GROUPS = {
    "models.build": ("models.bernoulli_model", "models.classical_models",
                     "models.entangled_pauli_model", "models.multinomial_model",
                     "models.separable_pauli_model", "models.two_copy_bell_model",
                     "models.PoissonTruncatedModel", "models.GaussianKnownCovModel"),
    "bounds.evaluators": ("bounds.upper_bound_linf", "bounds.upper_bound_l2",
                          "bounds.lower_bound_linf", "bounds.lower_bound_l2"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)


def _fwht_counts(args, kwargs, result):
    size = result.shape[-1]
    elements = int(result.size)
    # log2(K) butterfly stages, each writing the whole float64 array
    return {"elements": elements, "bytes_computed": elements * 8 * (size.bit_length() - 1)}


def _d2logp_counts(args, kwargs, result):
    return {"bytes_computed": int(result.nbytes)}


def _find_min_samples_counts(args, kwargs, result):
    delta = kwargs["delta"] if "delta" in kwargs else args[3]
    target = 1.0 - delta
    probes = result.probes
    return {
        "probes": len(probes),
        "trials_run": sum(p.trials for p in probes),
        "fail_probe_trials": sum(p.trials for p in probes if p.wilson_lo < target),
    }


def _run_checks_counts(args, kwargs, result):
    return {"checks": len(result), "check_s_max": max(r.seconds for r in result)}


SPAN_NAME = {member: group for group, members in GROUPS.items() for member in members}

COUNTERS = {
    "pauli.fwht": _fwht_counts,
    "models.d2logp": _d2logp_counts,
    "mle_lab.find_min_samples": _find_min_samples_counts,
    "verify.run_checks": _run_checks_counts,
}


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, package):
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.main_thread()
        self.spans = []
        self._patches = self._plan(package)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is self._main_thread
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name, fn):
        name = SPAN_NAME.get(name, name)
        counter = COUNTERS.get(name)
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            span = Span(next(ids), name, parent, time.perf_counter())
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def _plan(self, package):
        """(owner, attribute, original, wrapper) for every site to patch."""
        modules = {name: getattr(package, name) for name in MODULES}
        wrappers = {}  # id(original) -> wrapper, shared by every alias
        for mod_name, module in modules.items():
            names = list(getattr(module, "__all__", ())) + list(EXTRA_FUNCTIONS.get(mod_name, ()))
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = self._wrap(f"{mod_name}.{attr}", fn)
        patches = []
        for module in modules.values():
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    patches.append((module, attr, value, wrappers[id(value)]))
        models = modules["models"]
        for cls in vars(models).values():
            if not (inspect.isclass(cls) and issubclass(cls, models.StatModel)):
                continue
            for method in MODEL_METHODS:
                fn = vars(cls).get(method)
                if inspect.isfunction(fn):
                    patches.append((cls, method, fn, self._wrap(f"models.{method}", fn)))
            if cls.__name__ in MODEL_CONSTRUCTORS:
                init = vars(cls)["__init__"]
                patches.append((cls, "__init__", init,
                                self._wrap(f"models.{cls.__name__}", init)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def attribute(spans, t0, t1):
    """Split the wall time [t0, t1] among the innermost open spans.

    A span's self time is its duration minus the union of its child
    spans' intervals.  Where several innermost spans are open at once (on
    pool threads), each gets an equal share of that interval, so the self
    times plus the unattributed time add up to t1 - t0 exactly.
    Returns ({span id: self seconds}, unattributed seconds).
    """
    parent = {s.id: s.parent for s in spans}
    events = sorted([(s.start, 1, s.id) for s in spans] + [(s.end, 0, s.id) for s in spans])
    open_children = defaultdict(int)
    active = set()
    self_s = defaultdict(float)
    unattributed = 0.0
    previous = t0
    for t, is_start, sid in events:
        dt = t - previous
        if dt > 0.0:
            leaves = [a for a in active if open_children[a] == 0]
            if leaves:
                share = dt / len(leaves)
                for a in leaves:
                    self_s[a] += share
            else:
                unattributed += dt
        previous = max(previous, t)
        p = parent[sid]
        if is_start:
            active.add(sid)
            if p in active:
                open_children[p] += 1
        else:
            active.discard(sid)
            if p in active:
                open_children[p] -= 1
    unattributed += t1 - previous
    return self_s, unattributed


def summarize(spans, t0, t1):
    """Per-name calls, busy seconds, self seconds and counters for one pass.

    `s` sums the durations of the outermost span of each name (a span
    nested in one of the same name is not counted twice; spans on
    parallel threads add up), `self_s` is the attributed wall share.
    """
    self_s, unattributed = attribute(spans, t0, t1)
    by_id = {s.id: s for s in spans}
    per_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        entry = per_name[s.name]
        entry["calls"] += 1
        entry["self_s"] += self_s.get(s.id, 0.0)
        ancestor = by_id.get(s.parent)
        while ancestor is not None and ancestor.name != s.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            entry["s"] += s.end - s.start
        for key, value in s.counts.items():
            if key.endswith("_max"):
                counts[s.name][key] = max(counts[s.name][key], value)
            else:
                counts[s.name][key] += value
    return {"names": {k: dict(v) for k, v in per_name.items()},
            "counts": {k: dict(v) for k, v in counts.items()},
            "unattributed_s": unattributed, "pass_s": t1 - t0}
