"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` replaces every public function of the ``openrates``
modules, at each module attribute (and module-level dispatch dict) a caller
resolves it through, by a wrapper that records a span: name, start, end and
the id of the enclosing span.  Nothing under ``src/`` is edited; `uninstall`
puts the original functions back, so untraced passes run the plain code.

Per-function hooks turn return values into counters at the same boundary
(`COUNTER_HOOKS`), so ratios such as point steps per second are measured
where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


def _point_steps(args, kwargs, result, counters):
    # evolve_survivors steps every survivor of M^n once, for n < n_max
    counts = result[0]
    counters["systems.point_steps"] += int(counts[:-1].sum())


def _nnz(args, kwargs, result, counters):
    counters["ulam.nnz"] += int(result.matrix.nnz)


def _eigen_iterations(args, kwargs, result, counters):
    counters["ulam.eigen_iterations"] += int(result.iterations)


def _collision_steps(args, kwargs, result, counters):
    # theta_chi2(table, samples, ...): each sample is one collision step
    samples = kwargs.get("samples", args[1] if len(args) > 1 else None)
    counters["billiard.collision_steps"] += int(samples)


def _trajectories(args, kwargs, result, counters):
    meta = result[0].meta
    samples = int(meta["samples"])
    n_max = int(result[0].per_n_mass[-1][0])
    counters["billiard.trajectories"] += samples
    counters["billiard.flagged"] += int(meta["flagged"])
    # computed count: every trajectory is stepped n_max times at most
    counters["billiard.trajectory_steps"] += samples * n_max


# Per-point helpers called hundreds of thousands of times per pass (torus
# distances inside Brin-Katok and hole-boundary loops, ball cutoffs): a span
# per call would cost more than the call, so their time counts to the caller.
INLINE = frozenset({"systems.torus_dist", "systems.torus_dist_1d",
                    "systems.torus_dist_2d", "dynballs.g_cutoff"})

COUNTER_HOOKS = {
    "systems.evolve_survivors": _point_steps,
    "ulam.build_ulam": _nnz,
    "ulam.leading_eigenpair": _eigen_iterations,
    "billiard.theta_chi2": _collision_steps,
    "billiard.billiard_escape_multi": _trajectories,
}


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent id]
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []         # (namespace, key, original)
        self.active = False        # spans are recorded only while installed

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of benchmark code."""
        if not self.active:
            yield
            return
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name, fn):
        hook = COUNTER_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hook(args, kwargs, result, self.counters)
            return result
        return traced

    def install(self, modules):
        """Wrap the public functions defined in `modules` wherever any of
        those modules refers to them."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__
                        and name not in INLINE):
                    wrappers[val] = self._wrap(name, val)
        for mod in modules:
            ns = vars(mod)
            for key, val in list(ns.items()):
                if key.startswith("__"):
                    continue
                if isinstance(val, dict):
                    for k, v in list(val.items()):
                        if _hashable(v) and v in wrappers:
                            self._patches.append((val, k, v))
                            val[k] = wrappers[v]
                elif _hashable(val) and val in wrappers:
                    self._patches.append((ns, key, val))
                    ns[key] = wrappers[val]
        self.active = True

    def uninstall(self):
        self.active = False
        while self._patches:
            ns, key, val = self._patches.pop()
            ns[key] = val

    def reset(self):
        self.spans = []
        self.counters = defaultdict(int)


def _hashable(v):
    try:
        hash(v)
    except TypeError:
        return False
    return True


def self_times(spans):
    """Self time per span name: duration minus the time covered by child
    spans.  Spans nest strictly (one thread), so children never overlap."""
    covered = defaultdict(float)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    out = defaultdict(float)
    for sid, (name, t0, t1, parent) in enumerate(spans):
        out[name] += (t1 - t0) - covered[sid]
    return out


def command_self_times(spans, prefix="cli.command."):
    """cli-layer self time grouped by the benchmark's per-command span
    (named `prefix + command`) that encloses it."""
    covered = defaultdict(float)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    owner = []
    out = defaultdict(float)
    for sid, (name, t0, t1, parent) in enumerate(spans):
        if name.startswith(prefix):
            own = name[len(prefix):]
        else:
            own = owner[parent] if parent >= 0 else None
        owner.append(own)
        if own is not None and name.split(".", 1)[0] == "cli":
            out[own] += (t1 - t0) - covered[sid]
    return out
