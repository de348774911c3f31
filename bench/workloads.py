"""The benchmark's workloads: seeded task lists with pinned true verdicts.

A task is a (structure, question, route) triple.  Set-up builds the
structure in its standard presentation, moves it along the seeded change of
basis, validates it and serialises it with the program's own writer.  A
timed run of the task then goes through the public API the way a user's
`analyze` would:

    parse the document -> validate -> decide at the pinned route
    -> re-check the witness with the public residual function
    -> render with cli.verdict_report and json.dumps(sort_keys=True)

Every public function is looked up on its module at call time, so the
tracer can wrap it from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from entwine import actforget, cli, coforget, corpus, ringext, smash
from entwine.entwining import Entwining
from entwine.exactlin import Field
from entwine.homspaces import SearchConfig
from entwine.smash import Factorization

from transport import Transport

F2, F3, QQ = Field("Fp", 2), Field("Fp", 3), Field("Q")

# question -> (module, decider, residual(payload, witness) -> list of failures)
QUESTIONS = {
    "FG-frob": (coforget, "FG_frobenius",
                lambda p, w: coforget.frobenius_residual(p, w["theta"], w["z"])),
    "FpGp-frob": (actforget, "FprimeGprime_frobenius",
                  lambda p, w: actforget.frobenius_prime_residual(
                      p, w["vartheta"], w["e"])),
    "ext-frob": (ringext, "frobenius_check",
                 lambda p, w: ringext.frobenius_residual(
                     p, ringext.tensor_over_R(p), w["nu"], w["e"])),
    "smash-frob": (smash, "smash_frobenius_A",
                   lambda p, w: smash.frobenius_smash_residual(
                       p, w["kappa"], w["e"])),
}


def flip(a_of, c_of):
    return lambda f: Entwining.flip(a_of(f), c_of(f))


def flip_factorization(b_of, a_of):
    return lambda f: Factorization.flip(b_of(f), a_of(f))


def unit_extension(s_of):
    return lambda f: corpus.unit_extension(f, s_of(f))


def group_algebra(n):
    return lambda f: corpus.cyclic_group_algebra(f, n)


def matrices(n):
    return lambda f: corpus.matrix_algebra(f, n)


def grouplikes(n):
    return lambda f: corpus.grouplike_coalgebra(f, n)


@dataclass(frozen=True)
class Task:
    label: str
    field: Field
    build: Callable        # field -> payload in its standard presentation
    question: str
    route: str
    truth: str             # the pinned true verdict, "yes" or "no"


ARROW, T2 = corpus.arrow_coalgebra, corpus.upper_triangular_algebra

ASSEMBLY = [
    Task("flip(M3,GL2)/F3 FG-frob iso", F3, flip(matrices(3), grouplikes(2)),
         "FG-frob", "iso", "yes"),
    Task("flip(M3,GL2)/F3 FG-frob search", F3, flip(matrices(3), grouplikes(2)),
         "FG-frob", "search", "yes"),
    Task("flip(M2,arrow)/F3 FpGp-frob iso", F3, flip(matrices(2), ARROW),
         "FpGp-frob", "iso", "yes"),
    Task("k->M3/F3 ext-frob search", F3, unit_extension(matrices(3)),
         "ext-frob", "search", "yes"),
    Task("k->M3/F3 ext-frob iso", F3, unit_extension(matrices(3)),
         "ext-frob", "iso", "yes"),
    Task("flipfact(M2,kC2)/F3 smash-frob iso", F3,
         flip_factorization(matrices(2), group_algebra(2)), "smash-frob", "iso", "yes"),
    Task("flipfact(M2,kC2)/F3 smash-frob search", F3,
         flip_factorization(matrices(2), group_algebra(2)), "smash-frob", "search", "yes"),
]

SEARCH_HIT = [
    Task("flip(kC4,GL2)/Q FG-frob iso", QQ, flip(group_algebra(4), grouplikes(2)),
         "FG-frob", "iso", "yes"),
    Task("flip(kC2,GL3)/Q FG-frob iso", QQ, flip(group_algebra(2), grouplikes(3)),
         "FG-frob", "iso", "yes"),
    Task("flip(kC3,GL2)/Q FG-frob iso", QQ, flip(group_algebra(3), grouplikes(2)),
         "FG-frob", "iso", "yes"),
]

SEARCH_EXHAUST = [
    Task("flip(T2,GL3)/F3 FpGp-frob iso", F3, flip(T2, grouplikes(3)),
         "FpGp-frob", "iso", "no"),
    Task("flip(kC3,arrow)/F2 FG-frob search", F2, flip(group_algebra(3), ARROW),
         "FG-frob", "search", "no"),
    # the bounded search over Q cannot certify "no": the expected outcome is
    # "unknown", counted as undecided, never as a pass or a failure
    Task("flip(kC2,arrow)/Q FG-frob search", QQ, flip(group_algebra(2), ARROW),
         "FG-frob", "search", "no"),
    Task("flip(kC2,arrow)/Q FG-frob iso", QQ, flip(group_algebra(2), ARROW),
         "FG-frob", "iso", "no"),
]

LADDERS = {"assembly": ASSEMBLY, "search-hit": SEARCH_HIT,
           "search-exhaust": SEARCH_EXHAUST}
WORKLOADS = ("corpus",) + tuple(LADDERS)
CORPUS_CHECKS = 151


class SetupError(RuntimeError):
    """The generated inputs are unusable; no timing is meaningful."""


@dataclass
class Outcome:
    """What one task produced: its status, whether it failed, its report."""

    status: str
    failed: bool
    report: str
    note: str = ""


@dataclass(frozen=True)
class Prepared:
    task: Task
    document: dict


def prepare(tasks, seed: int, unitriangular: bool = False) -> list:
    """Build, transport, validate and serialise the inputs of a task list."""
    out = []
    for task in tasks:
        moved = Transport(task.field, seed, task.label, unitriangular).structure(
            task.build(task.field))
        rep = corpus.validate_payload(moved)
        if not rep.ok:
            raise SetupError("transported input %r (seed %d) fails validation:\n%s"
                             % (task.label, seed, rep.describe()))
        out.append(Prepared(task, cli.payload_to_structure_document(task.field, moved)))
    return out


def recheck(question: str, payload, witness) -> list:
    """The independent re-check of a "yes" witness: the failures it finds."""
    return QUESTIONS[question][2](payload, witness)


def run_task(prep: Prepared, cfg: SearchConfig) -> Outcome:
    """One closed-loop task; exceptions count as failures."""
    task = prep.task
    try:
        field, _, payload = cli.parse_structure_document(prep.document)
        if not corpus.validate_payload(payload).ok:
            return Outcome("error", True, "", "parsed input fails validation")
        module, decider, _ = QUESTIONS[task.question]
        v = getattr(module, decider)(payload, cfg, route=task.route)
        checks = {}
        if v.status == "yes":
            bad = recheck(task.question, payload, v.witness)
            if bad:
                return Outcome(v.status, True, "", "witness fails re-check: %r" % (bad,))
            checks = {"frobenius-system": "0"}
        args = SimpleNamespace(seed=cfg.seed, enum_budget=cfg.enum_budget,
                               trials=cfg.trials)
        report = json.dumps(cli.verdict_report(v, field, args, checks), sort_keys=True)
    except Exception as ex:  # a task that raises is a failed task, not a crash
        return Outcome("error", True, "", "%s: %s" % (type(ex).__name__, ex))
    if v.status == "unknown":
        return Outcome(v.status, False, report)
    if v.status != task.truth:
        return Outcome(v.status, True, report,
                       "verdict %s contradicts pinned %s" % (v.status, task.truth))
    return Outcome(v.status, False, report)


def run_corpus(seed: int) -> Outcome:
    """`entwine corpus run --format json`, gated on 151 checks and 0 failed."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["corpus", "run", "--format", "json", "--seed", str(seed)])
        doc = json.loads(buf.getvalue())
    except Exception as ex:  # same rule as run_task
        return Outcome("error", True, "", "%s: %s" % (type(ex).__name__, ex))
    if code != 0 or doc.get("checks") != CORPUS_CHECKS or doc.get("failed") != 0:
        return Outcome("no", True, buf.getvalue(),
                       "exit %s, %s checks, %s failed" % (code, doc.get("checks"),
                                                          doc.get("failed")))
    return Outcome("yes", False, buf.getvalue())
