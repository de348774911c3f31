"""entwine benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, closed loop: a task starts when the previous one
has finished.  A pass runs the workload's whole task list; passes repeat
until the next one would end after S seconds (at least three run).  Every
verdict is checked against its pinned truth and every witness is re-checked
with the program's public residual function.

Times are normalised against the frozen speed probe of reference.py,
which interrupts every task of an untraced pass every 0.1 s, so the figures
read as seconds on a machine of the reference speed and a shared machine's
slow spells cancel out.  The raw times are printed alongside.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are its
per-layer ones, taken from one traced set-up and from traced passes that
alternate with untraced ones.  BENCHMARK.json is the one list of metric
names and units, and its run_seconds is the default of --seconds.  Spans go
to .bench_out/ at the root.

The program is imported from src/ next to this directory and from nowhere
else; without it the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PINNED = os.path.join(HERE, "baseline.json")

MIN_PASSES = 3
SETUP_SAMPLES = 9
SETUP_PROBES = 20  # before, between and after the set-up samples


def import_program():
    """Put src/ first on the path and check that entwine comes from there."""
    pkg = os.path.join(SRC, "entwine")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.stderr.write("error: no program source at %s\n" % pkg)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import entwine
    if os.path.dirname(os.path.abspath(entwine.__file__)) != pkg:
        sys.stderr.write("error: entwine imported from %s, not %s\n"
                         % (entwine.__file__, pkg))
        sys.exit(2)


def spec() -> dict:
    """BENCHMARK.json: run length and the name and unit of every metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build and validate the inputs, then exit (timed by "
                        "the parent process for setup_s)")
    return p.parse_args(argv)


def digest(reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()


def measure_setup(args) -> float:
    """Median normalised time of fresh processes that start the interpreter,
    import the program and build, transport, serialise and validate the
    inputs of the workload.  The probes run between the processes, not
    during them, so that they do not compete with them for the machine."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    sampler = reference.Sampler()
    raw = []
    for _ in range(SETUP_SAMPLES):
        for _ in range(SETUP_PROBES):
            sampler.take()
        t0 = time.perf_counter()
        # no timeout: Popen.wait with one polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
    for _ in range(SETUP_PROBES):
        sampler.take()
    setup_s = statistics.median(raw) / sampler.speed()
    print("set-up: raw median %.4f s, normalised %.4f s"
          % (statistics.median(raw), setup_s))
    return setup_s


class Runner:
    """Runs passes of one workload and keeps what the gate needs."""

    def __init__(self, workload, seed, prepared, tracer=None):
        from entwine.homspaces import SearchConfig

        self.workload = workload
        self.seed = seed
        self.prepared = prepared
        self.cfg = SearchConfig(seed=seed)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unknown = 0
        self.notes = []     # one line per failure
        self.digests = {}   # traced? -> digest of the first such pass
        self.passes = 0
        self.task_times = []  # per untraced pass: normalised seconds of each task
        self.sampler = None   # speed probes of the untraced passes

    def one_pass(self, traced=False) -> float:
        import workloads

        self.passes += 1
        jobs = ([lambda: workloads.run_corpus(self.seed)] if self.workload == "corpus"
                else [lambda p=p: workloads.run_task(p, self.cfg) for p in self.prepared])
        if not traced and self.sampler is None:
            self.sampler = reference.Sampler()
        outcomes, times, normalised = [], [], []
        for i, job in enumerate(jobs):
            if self.tracer:
                self.tracer.task = "%d:%d" % (self.passes, i)
            if traced:
                t0 = time.perf_counter()
                outcomes.append(job())
                times.append(time.perf_counter() - t0)
            else:
                out, raw, norm = self.sampler.time(job)
                outcomes.append(out)
                times.append(raw)
                normalised.append(norm)
        if not traced:
            self.task_times.append(normalised)
        for i, o in enumerate(outcomes):
            self.attempted += 1
            self.failed += o.failed
            self.unknown += o.status == "unknown"
            if o.note:
                self.notes.append("pass %d task %d: %s" % (self.passes, i, o.note))
        d = digest(o.report for o in outcomes)
        first = self.digests.setdefault(traced, d)
        if d != first:
            self.failed += len(outcomes)
            self.notes.append("pass %d: reports differ from the first %s pass"
                              % (self.passes, "traced" if traced else "untraced"))
        return sum(times)

    def median_pass(self) -> float:
        """Sum over tasks of each task's median normalised time in the
        untraced passes.

        On a shared 2-core machine the raw figure spread 0.09-0.16
        (quartile distance over median) across ten runs of a workload, as
        the machine's speed moved by up to 60% over seconds and minutes; the
        fastest times did no better, and scaling by reference work run
        between the tasks left 0.07-0.17.  Scaled by the probes taken during
        each task, ten runs of each workload spread 0.013-0.038."""
        return sum(statistics.median(col) for col in zip(*self.task_times))


def run_untraced(runner, seconds):
    """Untraced passes until the next one would end after `seconds`; the
    summed raw task times of each pass, probes left out."""
    start = time.perf_counter()
    times, spans = [], []
    while True:
        t0 = time.perf_counter()
        times.append(runner.one_pass())
        spans.append(time.perf_counter() - t0)  # probes included
        spent = time.perf_counter() - start
        if len(times) >= MIN_PASSES and spent + statistics.median(spans) > seconds:
            return times


def run_traced(runner, seconds):
    """Alternate untraced and traced passes; per-layer figures are per pass
    (counts from the first traced pass, times as the median over passes)."""
    tracer = runner.tracer
    start = time.perf_counter()
    plain, traced, per_pass = [], [], []
    while True:
        plain.append(runner.one_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.one_pass(traced=True))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.snapshot())
        tracer.keep_spans = False  # the first traced pass is written out
        spent = time.perf_counter() - start
        if spent + statistics.median(plain) + statistics.median(traced) > seconds:
            return plain, traced, per_pass


STATS = {"calls": 0, "self_s": 1, "total_s": 2}


def figure(name, snaps, derived, known):
    """One per-layer figure from tracer snapshots [(stats, counters)].

    `name` is a key of `derived`, `<module>.self_s` (the module's summed self
    time), or `<function>.<stat>` for a traced function.  Counts come from
    the first snapshot, times are the median over all of them."""
    from tracer import MODULES

    if name in derived:
        return derived[name]
    fn, stat = name.rsplit(".", 1)
    if fn in MODULES and stat == "self_s":
        return statistics.median(
            sum(v[1] for k, v in stats.items() if k.split(".")[0] == fn)
            for stats, _ in snaps)
    if fn not in known or stat not in STATS:
        raise KeyError("BENCHMARK.json names %r, which the traced run does not "
                       "measure" % name)
    if stat == "calls":
        return snaps[0][0].get(fn, (0,))[0]
    return statistics.median(s.get(fn, (0, 0.0, 0.0))[STATS[stat]] for s, _ in snaps)


def layer_metrics(plain, traced, per_pass, setup, known):
    """Every per-layer metric of BENCHMARK.json; `setup.<name>` is read from
    the traced set-up, the rest from the traced passes."""
    stats0, counters0 = per_pass[0]
    for i, (stats, _) in enumerate(per_pass[1:], 2):
        if {k: v[0] for k, v in stats.items()} != {k: v[0] for k, v in stats0.items()}:
            print("note: traced pass %d made other calls than the first" % i)

    def med_counter(key):
        return statistics.median(c.get(key, 0.0) for _, c in per_pass)

    inv_calls = stats0.get("exactlin.LinMap.inverse", (0,))[0]
    points = counters0.get("homspaces.search.points", 0)
    derived = {
        # sum of rows x columns of every matrix handed to rref
        "exactlin.rref.cells": counters0.get("exactlin.rref.cells", 0),
        "exactlin.LinMap.inverse.invertible_ratio":
            counters0.get("exactlin.LinMap.inverse.invertible", 0) / inv_calls
            if inv_calls else 0.0,
        "homspaces.search.points": points,
        # searches that found a witness / points visited (useful per attempt)
        "homspaces.search.hit_ratio":
            counters0.get("homspaces.search.hits", 0) / points if points else 0.0,
        "homspaces.hom_basis.dim_sum": counters0.get("homspaces.hom_basis.dim_sum", 0),
        # time inside solution-space construction / re-checks (tracer.GROUPS)
        "assembly.total_s": med_counter("assembly.total_s"),
        "reverify.total_s": med_counter("reverify.total_s"),
        # fastest traced pass over fastest untraced pass, minus 1
        "trace.overhead_share": min(traced) / min(plain) - 1.0,
    }
    setup_snap, setup_derived = setup
    values = {}
    for m in spec()["per_layer"]:
        name = m["name"]
        if name.startswith("setup."):
            value = figure(name[len("setup."):], [setup_snap], setup_derived, known)
        else:
            value = figure(name, per_pass, derived, known)
        values[name] = {"value": value, "unit": m["unit"]}
    return values


def check_pinned(workload, seed, digests):
    """Compare the verdict-report digest with the pinned one: flagged, not failed."""
    try:
        with open(PINNED) as fh:
            pinned = json.load(fh)["digests"].get(workload, {}).get(str(seed))
    except (OSError, ValueError, KeyError):
        pinned = None
    d = digests.get(False) or digests.get(True)
    if pinned is None:
        return "digest %s (no pinned value for seed %d)" % (d, seed)
    if d != pinned:
        return "digest CHANGED: %s, pinned %s" % (d, pinned)
    return "digest %s matches the pinned value" % d


def end_to_end(runner, seconds, setup_s) -> dict:
    times = run_untraced(runner, seconds)
    print("passes: %d, raw pass times: %s, median %.4f"
          % (len(times), " ".join("%.3f" % t for t in times), statistics.median(times)))
    print("speed probes: %d, mean %.3f of the reference's time"
          % (len(runner.sampler.probes), runner.sampler.speed()))
    values = {
        # one pass over the task list, each task at its median normalised
        # time in the run
        "wall_s": runner.median_pass(),
        # median normalised time of fresh processes: interpreter start,
        # imports, inputs built, transported, serialised and validated
        "setup_s": setup_s,
        # the benchmark process's peak resident set, one process per workload
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # 1 - unknown_share: a verdict turned "unknown" is a regression
        "decided_share": 1.0 - runner.unknown / runner.attempted,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec()["end_to_end"]}


def traced_setup(tracer, tasks, seed, import_s):
    """Build the inputs once under the tracer: (prepared, (snapshot, derived))."""
    import workloads

    tracer.task = "setup"
    tracer.install()
    t0 = time.perf_counter()
    try:
        prepared = workloads.prepare(tasks, seed)
    finally:
        total = time.perf_counter() - t0
        tracer.uninstall()
    snap = tracer.snapshot()
    tracer.reset()
    # import_s: wall time of the first import of the program in this process
    return prepared, (snap, {"import_s": import_s, "total_s": total})


def per_layer(runner, seconds, spans_path, setup) -> dict:
    plain, traced, per_pass = run_traced(runner, seconds)
    n = runner.tracer.write_spans(spans_path)
    print("traced passes: %d, untraced passes: %d, spans written to %s: %d"
          % (len(traced), len(plain), os.path.relpath(spans_path, ROOT), n))
    if runner.digests.get(True) != runner.digests.get(False):
        runner.failed += 1
        runner.notes.append("traced and untraced verdict reports differ")
    return layer_metrics(plain, traced, per_pass, setup, runner.tracer.names())


def result(runner, out) -> dict:
    print("unknown_share: %.4f, failed_share: %.4f"
          % (runner.unknown / runner.attempted, runner.failed / runner.attempted))
    for note in runner.notes:
        print("FAILED " + note)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": out}


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_program()
    import workloads
    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("error: unknown workload %r (known: %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    tasks = workloads.LADDERS.get(args.workload, [])
    if args.setup_only:
        workloads.prepare(tasks, args.seed)
        return 0

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        prepared, setup = traced_setup(tracer, tasks, args.seed, import_s)
        runner = Runner(args.workload, args.seed, prepared, tracer)
        out = per_layer(runner, args.seconds, os.path.join(
            OUT, "spans-%s-seed%d.tsv" % (args.workload, args.seed)), setup)
    else:
        setup_s = measure_setup(args)
        runner = Runner(args.workload, args.seed, workloads.prepare(tasks, args.seed))
        out = end_to_end(runner, args.seconds, setup_s)
    print(check_pinned(args.workload, args.seed, runner.digests))
    print(json.dumps(result(runner, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
