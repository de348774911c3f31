"""Self-test of the benchmark harness on a tiny task list (a few seconds).

    python3 bench/smoke.py

Checks that
* every end-to-end and per-layer metric of BENCHMARK.json is printed with
  its unit and a number;
* traced and untraced passes give the same verdict-report digest, and the
  tracer puts every original function back;
* a deliberately wrong pinned verdict is counted as a failed task, and an
  "unknown" verdict as undecided, not failed;
* verdicts do not change under the dense (unitriangular) change of basis;
* the speed probe's timer is off and its signal handler put back after a
  pass, and every normalised task time is positive.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import io
import os
import signal
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import run

run.import_program()

import workloads  # noqa: E402
from entwine import corpus, exactlin  # noqa: E402
from entwine.exactlin import LinMap  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ARROW, F2, F3, QQ, Task, flip, group_algebra, grouplikes, unit_extension)

TINY = [
    Task("flip(kC2,GL2)/F3 FG-frob search", F3, flip(group_algebra(2), grouplikes(2)),
         "FG-frob", "search", "yes"),
    Task("flip(k,arrow)/F2 FG-frob iso", F2, flip(corpus.trivial_algebra, ARROW),
         "FG-frob", "iso", "no"),
    Task("flip(kC2,DN)/Q FpGp-frob iso", QQ, flip(group_algebra(2), corpus.dual_numbers_coalgebra),
         "FpGp-frob", "iso", "yes"),
    Task("k->kC3/F2 ext-frob search", F2, unit_extension(group_algebra(3)),
         "ext-frob", "search", "yes"),
    # ends "unknown": counted as undecided, not as a failure
    Task("flip(k,arrow)/Q FG-frob search", QQ, flip(corpus.trivial_algebra, ARROW),
         "FG-frob", "search", "no"),
]

problems = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        problems.append(what)


def quiet(fn, *args):
    with redirect_stdout(io.StringIO()):
        return fn(*args)


def units_ok(out, expected):
    return (list(out) == [m["name"] for m in expected]
            and all(out[m["name"]]["unit"] == m["unit"]
                    and isinstance(out[m["name"]]["value"], (int, float))
                    for m in expected))


def main() -> int:
    prepared = workloads.prepare(TINY, 7)

    plain = run.Runner("tiny", 7, prepared)
    res = quiet(run.result, plain, quiet(run.end_to_end, plain, 0.0, 0.5))
    check(units_ok(res["metrics"], run.spec()["end_to_end"]),
          "every end-to-end metric is printed with its unit")
    check(res["correct"] and res["failed"] == 0
          and res["attempted"] == run.MIN_PASSES * len(TINY),
          "the tiny task list passes the correctness gate")
    check(res["metrics"]["decided_share"]["value"] == 1 - 1 / len(TINY),
          "an unknown verdict counts as undecided, not as failed")
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
          and all(t > 0 for times in plain.task_times for t in times),
          "the speed probe stops after each task and times are positive")

    originals = (exactlin.rref, LinMap.__dict__["compose"], corpus.validate_payload,
                 workloads.recheck)
    tracer = Tracer()
    traced_prep, setup = run.traced_setup(tracer, TINY, 7, 0.0)
    traced = run.Runner("tiny", 7, traced_prep, tracer)
    out = quiet(run.per_layer, traced, 0.0, os.path.join(run.OUT, "spans-smoke.tsv"), setup)
    check(units_ok(out, run.spec()["per_layer"]),
          "every per-layer metric is printed with its unit")
    check(traced.digests[True] == traced.digests[False] == plain.digests[False],
          "traced and untraced verdict digests are equal")
    check(traced.failed == 0, "the traced passes pass the correctness gate")
    check(originals == (exactlin.rref, LinMap.__dict__["compose"], corpus.validate_payload,
                        workloads.recheck),
          "uninstalling the tracer restores the original functions")
    check(out["homspaces.search_candidates.calls"]["value"] > 0
          and out["exactlin.LinMap.compose.calls"]["value"] > 0
          and out["exactlin.rref.cells"]["value"] > 0
          and out["setup.corpus.validate_payload.calls"]["value"] == len(TINY),
          "the traced run counts calls and cells, set-up included")

    wrong = [replace(t, truth="no" if t.truth == "yes" else "yes") if i == 0 else t
             for i, t in enumerate(TINY)]
    bad = run.Runner("tiny", 7, workloads.prepare(wrong, 7))
    res = quiet(run.result, bad, quiet(run.end_to_end, bad, 0.0, 0.5))
    check(not res["correct"] and res["failed"] == run.MIN_PASSES,
          "a wrong pinned verdict raises failed_share (%d of %d failed)"
          % (res["failed"], res["attempted"]))

    for seed in (1, 2, 3):
        dense = run.Runner("tiny", seed, workloads.prepare(TINY, seed, unitriangular=True))
        quiet(dense.one_pass)
        check(dense.failed == 0,
              "verdicts hold under a unitriangular change of basis (seed %d)" % seed)

    print("smoke: %s" % ("FAILED: " + "; ".join(problems) if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
