"""Out-of-program tracing: wraps the public functions of the entwine modules.

The modules bind each other's functions with `from .exactlin import ...`,
so a function is replaced in every module namespace that holds it (aliases
included), and the `LinMap` methods are replaced on the class.  Nothing in
the program itself changes; `uninstall` puts every original back.

Each call becomes a span (name, start, end, parent, task, thread), kept in
memory and written out by `write_spans`.  `corpus run` decides its checks
in a thread pool, so the span stack, the per-name sums and the counters are
all per thread and merged when read.  A span a pool thread opens with
nothing open in that thread is a child of the span open in the home thread
(the one that called `install`).

Self time is a span's duration minus the part of it its child spans cover;
total time skips calls nested in a call of the same function, so recursion
is not counted twice.  The roll-ups (GROUPS) share out time: a moment
inside spans of both groups counts for the group of the outer span only.
Durations are wall time: a pool thread's span also holds the time the
thread waits for the interpreter lock, so on `corpus` the per-function sums
add up to more than the pass took.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time

from entwine.exactlin import LinMap

import workloads

# the program's modules, one layer each
MODULES = ("cli", "corpus", "structures", "entwining", "homspaces", "coforget",
           "actforget", "ringext", "smash", "exactlin")

# elementwise vector and index helpers: a span each would cost more than the
# work it measures, so their time stays in the caller's self time
UNTRACED = frozenset({
    "exactlin.prod", "exactlin.flatten_index", "exactlin.unflatten_index",
    "exactlin.vec_zero", "exactlin.basis_vec", "exactlin.vec_add",
    "exactlin.vec_sub", "exactlin.vec_scale", "exactlin.vec_is_zero",
    "exactlin.kron_vec", "exactlin.dot", "exactlin.is_prime", "exactlin.GF",
})
LINMAP_METHODS = ("compose", "tensor", "inverse")

# roll-ups: wall time spent inside at least one function of the group
ASSEMBLY = frozenset({
    "homspaces.hom_basis", "exactlin.hom_probe_matrix",
    "coforget.compute_V1", "coforget.compute_W1",
    "actforget.compute_V1prime", "actforget.compute_W1prime",
    "ringext.compute_expectations", "ringext.compute_casimir",
    "ringext.right_dual_space", "ringext.tensor_over_R",
    "smash.compute_V3", "smash.compute_W3",
})
REVERIFY = frozenset({
    "coforget.frobenius_residual", "actforget.frobenius_prime_residual",
    "ringext.frobenius_residual", "smash.frobenius_smash_residual",
    "coforget.theta_residual", "coforget.z_residual",
    "actforget.vartheta_residual", "actforget.e_residual",
    "ringext.expectation_residual", "ringext.casimir_residual",
    "smash.kappa_residual", "smash.w3_residual", "homspaces.morphism_ok",
    # the benchmark's own re-check of a witness, with whatever it has to
    # rebuild first (the ext-frob check rebuilds S (x)_R S)
    "workloads.recheck",
})
# functions of the benchmark that are traced too: (module, attribute)
HARNESS = ((workloads, "recheck"),)
GROUPS = (("assembly", ASSEMBLY), ("reverify", REVERIFY))


class _Thread:
    """Everything one thread records; only that thread writes to it."""

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []      # open frames, see Tracer._wrap
        self.active = {}     # name -> open calls, for the recursion rule
        self.stats = {}      # name -> [calls, self_s, total_s]
        self.counters = {}
        self.group = None    # (group, frame) of the span that opened it
        self.spans = []


class Tracer:
    def __init__(self):
        self.task = ""
        self.keep_spans = True
        self._home = None
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, name, fn, hook=None):
        clock = time.perf_counter
        group = next((g for g, members in GROUPS if name in members), None)
        state = self._state

        def traced(*args, **kwargs):
            st = state()
            if st.stack:
                up, same_thread = st.stack[-1], True
            else:
                # work a pool thread does for the span open in the home
                # thread: that span is its parent
                home = self._home
                up = home.stack[-1] if home is not st and home.stack else None
                same_thread = False
            sid = next(self._ids)
            st.active[name] = st.active.get(name, 0) + 1
            # [name, span id, start, child time, child intervals in other threads]
            frame = [name, sid, clock(), 0.0, []]
            if group is not None and st.group is None:
                st.group = (group, frame)
            st.stack.append(frame)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(st.counters, fn, args, kwargs)
            finally:
                end = clock()
                st.stack.pop()
                start = frame[2]
                dur = end - start
                if same_thread:
                    up[3] += dur
                elif up is not None:
                    up[4].append((start, end))
                child = frame[3] + _covered(frame[4])
                s = st.stats.get(name)
                if s is None:
                    s = st.stats[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur - child
                st.active[name] -= 1
                if st.active[name] == 0:
                    s[2] += dur
                if st.group is not None and st.group[1] is frame:
                    key = group + ".total_s"
                    st.counters[key] = st.counters.get(key, 0.0) + dur
                    st.group = None
                if self.keep_spans:
                    st.spans.append((name, start, end, up[1] if up else 0, self.task,
                                     st.ident, sid))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- install / uninstall ----------------------------------------------

    def targets(self):
        """{original function: span name} for every traced function."""
        found = {}
        for short in MODULES:
            mod = sys.modules["entwine." + short]
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (short, attr)
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNTRACED
                        or inspect.isgeneratorfunction(obj)):
                    continue
                found[obj] = name
        return found

    def names(self) -> set:
        """Span name of every function `install` wraps."""
        return (set(self.targets().values())
                | {"exactlin.LinMap." + m for m in LINMAP_METHODS}
                | {"%s.%s" % (mod.__name__, attr) for mod, attr in HARNESS})

    def install(self):
        """Wrap every target; the calling thread becomes the home thread."""
        if self._undo:
            return
        self._home = self._state()
        wrapped = {}
        for fn, name in self.targets().items():
            wrapped[fn] = self._wrap(name, fn, HOOKS.get(name))
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("entwine") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._undo.append((mod, attr, obj))
        for meth in LINMAP_METHODS:
            orig = LinMap.__dict__[meth]
            name = "exactlin.LinMap." + meth
            setattr(LinMap, meth, self._wrap(name, orig, HOOKS.get(name)))
            self._undo.append((LinMap, meth, orig))
        for mod, attr in HARNESS:
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap("%s.%s" % (mod.__name__, attr), orig))
            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    # -- reading -----------------------------------------------------------

    def reset(self):
        """Forget the sums and counters (spans are kept for write_spans)."""
        for st in self._threads:
            st.stats.clear()
            st.counters.clear()

    def snapshot(self):
        """(merged {name: [calls, self_s, total_s]}, merged counters)."""
        stats, counters = {}, {}
        for st in list(self._threads):
            for name, (calls, self_s, total_s) in list(st.stats.items()):
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += total_s
            for key, val in list(st.counters.items()):
                counters[key] = counters.get(key, 0) + val
        return stats, counters

    def write_spans(self, path):
        """One tab-separated line per span, in order of span id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = sorted((s for st in self._threads for s in st.spans),
                       key=lambda s: s[6])
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\ttask\tthread\n")
            for name, start, end, parent, task, thread, sid in spans:
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%s\t%d\n"
                         % (sid, parent, name, start, end, task, thread))
        return len(spans)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# -- counters measured where the work happens -------------------------------

def _bump(counters, key, by):
    counters[key] = counters.get(key, 0) + by


def _rref(counters, fn, args, kwargs):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    _bump(counters, "exactlin.rref.cells", len(rows) * (len(rows[0]) if rows else 0))
    return fn(*args, **kwargs)


def _inverse(counters, fn, args, kwargs):
    result = fn(*args, **kwargs)
    _bump(counters, "exactlin.LinMap.inverse.invertible", result is not None)
    return result


def _search(counters, fn, args, kwargs):
    result = fn(*args, **kwargs)
    hit, _, meta = result
    _bump(counters, "homspaces.search.points", meta["points"])
    _bump(counters, "homspaces.search.hits", hit is not None)
    return result


def _hom_basis(counters, fn, args, kwargs):
    result = fn(*args, **kwargs)
    _bump(counters, "homspaces.hom_basis.dim_sum", len(result))
    return result


HOOKS = {
    "exactlin.rref": _rref,
    "exactlin.LinMap.inverse": _inverse,
    "homspaces.search_candidates": _search,
    "homspaces.hom_basis": _hom_basis,
}
