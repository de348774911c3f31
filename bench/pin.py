"""Record the seed-0 baseline and the pinned verdict digests in baseline.json.

    python3 bench/pin.py

Runs every workload at seed 0 untraced and traced (BENCHMARK.json's
run_seconds each) for the baseline figures, and one untraced pass per seed
0..SEEDS-1 for the digests of the verdict reports.  Keys of baseline.json
that this script does not write (the layer-to-metric map) are kept.  Re-run
it only when a change is meant to alter witnesses, and say why in
CHANGES.md.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run

run.import_program()

import workloads  # noqa: E402

SEEDS = 32


def last_json(cmd):
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    seconds = run.spec()["run_seconds"]
    try:
        with open(run.PINNED) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}

    seed0 = {}
    for w in workloads.WORKLOADS:
        seed0[w] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = last_json([sys.executable, run.__file__, "--workload", w, "--seed", "0",
                             "--seconds", str(seconds), "--trace", str(trace)])
            if not res["correct"]:
                raise SystemExit("%s trace %d failed the correctness gate" % (w, trace))
            seed0[w][key] = {k: v["value"] for k, v in res["metrics"].items()}
        print("baseline", w, seed0[w]["end_to_end"], flush=True)

    digests = {}
    for w in workloads.WORKLOADS:
        digests[w] = {}
        for seed in range(SEEDS):
            runner = run.Runner(w, seed, workloads.prepare(workloads.LADDERS.get(w, []), seed))
            runner.one_pass()
            if runner.failed:
                raise SystemExit("%s seed %d failed: %s" % (w, seed, runner.notes))
            digests[w][str(seed)] = runner.digests[False]
        print("digests", w, flush=True)

    doc.update({
        "measured_on": "%s, %d cores, CPython %s, %d-second runs"
                       % (platform.machine(), os.cpu_count(), platform.python_version(),
                          seconds),
        "seed0": seed0,
        "digests": digests,
    })
    with open(run.PINNED, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
