"""Command line front end: validate structure files, run analyses, browse
the corpus.

Structure files are a single JSON document with scalars as strings of
ASCII digits ("3/2" is accepted over Q, and over F_p when the denominator is
invertible).  The format is the table FORMAT below, which parsing,
serializing and kind lookup all read; this docstring summarises it:

    {"field": {"kind": "Q"} | {"kind": "Fp", "p": 5},
     <exactly one of>
     "algebra":        {"mult": m[i][j][k], "unit": [...]},
     "coalgebra":      {"comult": d[i][j][k], "counit": [...]},
     "bialgebra":      {"algebra": ..., "coalgebra": ...},
     "entwining":      {"algebra": ..., "coalgebra": ...,
                        "psi": p[c][a][a2][c2]},
     "doi_hopf":       {"bialgebra": ..., "algebra": ..., "coalgebra": ...,
                        "coaction": {"side": "right", "map": rows},
                        "action":   {"side": "right", "map": rows}},
     "factorization":  {"algebra_b": ..., "algebra_a": ...,
                        "rmap": r[a][b][b2][a2]},
     "ring_extension": {"base": ..., "total": ..., "embedding": rows}}

mult[i][j][k] is the coefficient of e_k in e_i e_j; comult[i][j][k] the
coefficient of e_j (x) e_k in Delta(e_i); psi[c][a][a2][c2] the coefficient
of e_a2 (x) e_c2 in psi(e_c (x) e_a); rmap[a][b][b2][a2] the coefficient of
e_b2 (x) e_a2 in R(e_a (x) e_b).  Matrix-valued maps ("map", "embedding")
are dense row-major matrices indexed by codomain then domain basis.

Exit codes: 0 pass / yes, 1 mathematical no or failed validation, 2 input
or usage error, 3 verdict unknown within the configured budget, 70 internal
error.  JSON reports carry no timing and are byte-identical for identical
inputs, flags, and seeds; timing is printed in text mode only.

A report's residual_checks are the verdict's own: the decider that found a
witness re-checked it once, and the front end only prints the result.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from math import prod

from . import __version__
from .actforget import Fprime_separable, FprimeGprime_frobenius, Gprime_separable
from .coforget import F_separable, FG_frobenius, G_separable
from .corpus import (
    CorpusEntry,
    all_entries,
    builtin,
    corpus_names,
    validate_payload,
)
from .entwining import (
    DoiHopfDatum,
    Entwining,
    adjunction_check,
    from_doi_hopf,
    std_object_AC,
    std_object_AstarC,
    std_object_CA,
    std_object_CstarA,
)
from .exactlin import Field, InternalCheckError, LinMap, ParseError, field_from_dict
from .homspaces import SearchConfig, Verdict, decide_frobenius
from .ringext import (
    RingExtension,
    _frobenius_problem,
    compute_casimir,
    compute_expectations,
    frobenius_check,
    separable_check,
    split_check,
    tensor_over_R,
)
from .smash import (
    Factorization,
    check_factorization,
    compute_V3,
    compute_W3,
    cross_check_frobenius,
    entwining_to_factorization,
    factorization_to_entwining,
    smash_frobenius_A,
    smash_over_A_report,
    smash_over_B_report,
    smash_product,
    unit_embedding_A,
)
from .structures import (
    ActionData,
    AlgebraData,
    BialgebraData,
    CoactionData,
    CoalgebraData,
)

QUESTIONS = ("F-sep", "G-sep", "FG-frob", "Fp-sep", "Gp-sep", "FpGp-frob",
             "ext-split", "ext-sep", "ext-frob",
             "smash-over-A", "smash-over-B", "cross-check")

EXTENSION_QUESTIONS = ("ext-split", "ext-sep", "ext-frob")
SMASH_QUESTIONS = ("smash-over-A", "smash-over-B")

EXIT_PASS, EXIT_NO, EXIT_INPUT, EXIT_UNKNOWN = 0, 1, 2, 3
EXIT_INTERNAL = 70  # self-check failure; a bug, not a verdict


# ---------------------------------------------------------------------------
# structure file parsing

def _at(path, msg):
    raise ParseError("%s: %s" % (path, msg))


def _dict(node, path):
    if not isinstance(node, dict):
        _at(path, "expected an object")
    return node


def _list(node, path):
    if not isinstance(node, list):
        _at(path, "expected an array")
    return node


def _vec(field, node, path):
    out = []
    for i, x in enumerate(_list(node, path)):
        try:
            out.append(field.parse(x))
        except ParseError as ex:
            _at("%s[%d]" % (path, i), ex)
    return out


def _nested(field, node, path, depth):
    if depth == 1:
        return _vec(field, node, path)
    return [_nested(field, x, "%s[%d]" % (path, i), depth - 1)
            for i, x in enumerate(_list(node, path))]


def _shape(node, dims, path):
    if not dims:
        return
    if len(node) != dims[0]:
        _at(path, "expected %d entries, found %d" % (dims[0], len(node)))
    for i, sub in enumerate(node):
        _shape(sub, dims[1:], "%s[%d]" % (path, i))


def _matrix(field, node, path, dom, cod):
    rows = []
    for i, row in enumerate(_list(node, path)):
        rows.append(_vec(field, row, "%s[%d]" % (path, i)))
        if len(rows[i]) != len(rows[0]):
            _at("%s[%d]" % (path, i), "ragged row (expected %d entries)" % len(rows[0]))
    if len(rows) != prod(cod) or (rows and len(rows[0]) != prod(dom)):
        _at(path, "expected a %dx%d matrix" % (prod(cod), prod(dom)))
    return LinMap.from_rows(field, dom, cod, rows)


# A field's spec is a payload kind (a key of FORMAT), or a tuple:
#   (BASIS,)                 a nonempty vector; its length is the dimension
#   (TENSOR, dom, cod)       nested constants t[dom legs...][cod legs...]
#   (MATRIX, dom, cod)       a dense row-major matrix, codomain x domain
#   (SIDED, cls, dom, cod)   {"side": "right", "map": <matrix>}, read as cls
# dom and cod name the fields before it whose dimensions are the legs.
BASIS, TENSOR, MATRIX, SIDED = "basis", "tensor", "matrix", "sided"

# kind -> (class, builder(field, *fields in parse order), fields); a field is
# (key, attribute of the class, spec)
FORMAT = {
    "algebra": (AlgebraData, lambda f, unit, mult: AlgebraData.make(f, mult, unit), (
        ("unit", "unit", (BASIS,)), ("mult", "mult", (TENSOR, ("unit", "unit"), ("unit",))))),
    "coalgebra": (CoalgebraData, lambda f, eps, d: CoalgebraData.make(f, d, eps), (
        ("counit", "counit", (BASIS,)),
        ("comult", "comult", (TENSOR, ("counit",), ("counit", "counit"))))),
    "bialgebra": (BialgebraData, lambda f, a, c: BialgebraData.make(a, c), (
        ("algebra", "algebra", "algebra"), ("coalgebra", "coalgebra", "coalgebra"))),
    "entwining": (Entwining, lambda f, a, c, psi: Entwining.make(a, c, psi), (
        ("algebra", "a", "algebra"), ("coalgebra", "c", "coalgebra"),
        ("psi", "psi", (TENSOR, ("c", "a"), ("a", "c"))))),
    "doi_hopf": (DoiHopfDatum, lambda f, *parts: DoiHopfDatum(*parts), (
        ("bialgebra", "h", "bialgebra"), ("algebra", "a", "algebra"),
        ("coalgebra", "c", "coalgebra"),
        ("coaction", "coaction", (SIDED, CoactionData, ("a",), ("a", "h"))),
        ("action", "action", (SIDED, ActionData, ("c", "h"), ("c",))))),
    "factorization": (Factorization, lambda f, b, a, r: Factorization.make(b, a, r), (
        ("algebra_b", "b", "algebra"), ("algebra_a", "a", "algebra"),
        ("rmap", "rmap", (TENSOR, ("a", "b"), ("b", "a"))))),
    "ring_extension": (RingExtension, lambda f, r, s, i: RingExtension(r, s, i), (
        ("base", "r", "algebra"), ("total", "s", "algebra"),
        ("embedding", "embedding", (MATRIX, ("r",), ("s",))))),
}

PAYLOAD_KEYS = tuple(FORMAT)


def _parse(field, kind, node, path):
    """Read one payload of the given kind, checking each field in turn."""
    _, build, fields = FORMAT[kind]
    node = _dict(node, path)
    keys = sorted(key for key, _, _ in fields)
    if set(node) != set(keys):
        _at(path, "expected exactly the keys %s" % ", ".join(keys))
    values, dims = [], {}
    for key, attr, spec in fields:
        sub = "%s.%s" % (path, key)
        if isinstance(spec, str):
            value = _parse(field, spec, node[key], sub)
            dims[attr] = value.dim
        elif spec[0] == BASIS:
            value = _vec(field, node[key], sub)
            if not value:
                _at(sub, "empty basis")
            dims[attr] = len(value)
        else:
            dom, cod = (tuple(dims[a] for a in legs) for legs in spec[-2:])
            if spec[0] == TENSOR:
                value = _nested(field, node[key], sub, len(dom) + len(cod))
                _shape(value, dom + cod, sub)
            elif spec[0] == MATRIX:
                value = _matrix(field, node[key], sub, dom, cod)
            else:
                sided = _dict(node[key], sub)
                if set(sided) != {"side", "map"}:
                    _at(sub, "expected exactly the keys side, map")
                if sided["side"] != "right":
                    _at(sub + ".side", "only right-sided data is supported")
                value = spec[1]("right", _matrix(field, sided["map"], sub + ".map", dom, cod))
        values.append(value)
    return build(field, *values)


def parse_structure_document(doc):
    """JSON document -> (field, kind, payload); raises ParseError with a
    path-addressed diagnostic on any malformed input."""
    doc = _dict(doc, "$")
    if "field" not in doc:
        _at("$", "missing \"field\"")
    try:
        field = field_from_dict(doc["field"])
    except ParseError as ex:
        _at("$.field", ex)
    kinds = [k for k in PAYLOAD_KEYS if k in doc]
    extra = set(doc) - set(PAYLOAD_KEYS) - {"field"}
    if extra:
        _at("$", "unknown keys: %s" % ", ".join(sorted(extra)))
    if len(kinds) != 1:
        _at("$", "expected exactly one of %s" % ", ".join(PAYLOAD_KEYS))
    kind = kinds[0]
    return field, kind, _parse(field, kind, doc[kind], kind)


def load_structure_file(path):
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise ParseError("cannot read %s: %s" % (path, ex)) from None
    except (RecursionError, ValueError) as ex:  # bad JSON, or a number too long to read
        raise ParseError("%s is not valid JSON: %s" % (path, ex)) from None
    return parse_structure_document(doc)


# ---------------------------------------------------------------------------
# serialization back to the file format

def _strs(field, nested):
    if isinstance(nested, (list, tuple)):
        return [_strs(field, x) for x in nested]
    return field.to_str(nested)


def _legs(field, m: LinMap) -> list:
    """m's entries as strings, nested by its domain legs, then its codomain
    legs."""
    nested = [field.to_str(x) for col in zip(*m.mat) for x in col]
    for d in reversed((m.dom + m.cod)[1:]):
        nested = [nested[i:i + d] for i in range(0, len(nested), d)]
    return nested


def _dump(field, kind, payload) -> dict:
    doc = {}
    for key, attr, spec in FORMAT[kind][2]:
        value = getattr(payload, attr)
        if isinstance(spec, str):
            doc[key] = _dump(field, spec, value)
        elif spec[0] == SIDED:
            doc[key] = {"side": value.side, "map": _strs(field, value.map.mat)}
        elif spec[0] == MATRIX:
            doc[key] = _strs(field, value.mat)
        elif isinstance(value, LinMap):
            doc[key] = _legs(field, value)
        else:
            doc[key] = _strs(field, value)
    return doc


def _entry_kind(payload) -> str:
    for kind, (cls, _, _) in FORMAT.items():
        if isinstance(payload, cls):
            return kind
    return type(payload).__name__


def payload_to_structure_document(field: Field, payload) -> dict:
    kind = _entry_kind(payload)
    if kind not in FORMAT:
        raise ParseError("cannot serialize payload of type %s" % kind)
    return {"field": field.describe(), kind: _dump(field, kind, payload)}


# ---------------------------------------------------------------------------
# reports

def _ser_witness(field, x):
    if isinstance(x, LinMap):
        return {"dom": list(x.dom), "cod": list(x.cod),
                "mat": [[field.to_str(v) for v in row] for row in x.mat]}
    if isinstance(x, dict):
        return {k: _ser_witness(field, v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_ser_witness(field, v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return field.to_str(x)


def _ser_meta(meta):
    out = {}
    for k, v in sorted(meta.items()):
        out[k] = v if isinstance(v, (bool, int, str)) or v is None else str(v)
    return out


def verdict_report(v: Verdict, field: Field, args, residuals) -> dict:
    return {
        "question": v.question,
        "status": v.status,
        "reason": v.reason,
        "definitive": v.definitive,
        "witness": _ser_witness(field, v.witness or {}),
        "residual_checks": residuals,
        "meta": _ser_meta(v.meta or {}),
        "field": field.describe(),
        "seed": args.seed,
        "enum_budget": args.enum_budget,
        "trials": args.trials,
        "tool": {"name": "entwine", "version": __version__},
    }


def emit(report: dict, fmt: str, elapsed=None):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    _emit_text(report, sys.stdout, elapsed)


def _emit_text(report, out, elapsed, indent=""):
    for k in sorted(report):
        v = report[k]
        if k == "witness":
            keys = ", ".join(sorted(v)) if v else "(none)"
            out.write("%switness: %s\n" % (indent, keys))
        elif isinstance(v, dict):
            out.write("%s%s:\n" % (indent, k))
            _emit_text(v, out, None, indent + "  ")
        elif isinstance(v, list):
            out.write("%s%s: %s\n" % (indent, k, ", ".join(str(x) for x in v) or "(none)"))
        else:
            out.write("%s%s: %s\n" % (indent, k, v))
    if elapsed is not None and not indent:
        out.write("elapsed: %.3fs\n" % elapsed)


# ---------------------------------------------------------------------------
# analyze

def _as_entwining(kind, payload) -> Entwining:
    if kind == "entwining":
        return payload
    if kind == "doi_hopf":
        return from_doi_hopf(payload)
    raise ParseError("usage error: this question needs an entwining or "
                     "doi_hopf payload, not %s" % kind)


def _as_factorization(kind, payload) -> Factorization:
    if kind == "factorization":
        return payload  # cmd_analyze has validated it
    if kind in ("entwining", "doi_hopf"):
        # derived from a valid payload, so a failure is a bug, not bad input
        fact = entwining_to_factorization(_as_entwining(kind, payload))
        rep = check_factorization(fact, "derived factorization")
        if not rep.ok:
            raise InternalCheckError(rep.describe())
        return fact
    raise ParseError("usage error: this question needs a factorization, "
                     "entwining, or doi_hopf payload, not %s" % kind)


_STATUS_EXIT = {"yes": EXIT_PASS, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}


def _exit_for(statuses) -> int:
    if "no" in statuses:
        return EXIT_NO
    if "unknown" in statuses:
        return EXIT_UNKNOWN
    return EXIT_PASS


# the single-verdict questions; the Frobenius deciders also take the search
# configuration
DECIDERS = {"F-sep": F_separable, "G-sep": G_separable, "FG-frob": FG_frobenius,
            "Fp-sep": Fprime_separable, "Gp-sep": Gprime_separable,
            "FpGp-frob": FprimeGprime_frobenius, "ext-split": split_check,
            "ext-sep": separable_check, "ext-frob": frobenius_check}
FROBENIUS_QUESTIONS = ("FG-frob", "FpGp-frob", "ext-frob")


def run_analysis(kind, payload, question, cfg, field, args):
    """Dispatch one question; returns (report dict, exit code)."""
    if question in DECIDERS:
        if question not in EXTENSION_QUESTIONS:
            subject = _as_entwining(kind, payload)
        elif kind == "ring_extension":
            subject = payload
        else:
            raise ParseError("usage error: question %s needs a ring_extension "
                             "payload, not %s" % (question, kind))
        decide = DECIDERS[question]
        v = decide(subject, cfg) if question in FROBENIUS_QUESTIONS else decide(subject)
        return verdict_report(v, field, args, v.residual_checks), _STATUS_EXIT[v.status]
    if question in SMASH_QUESTIONS:
        fact = _as_factorization(kind, payload)
        rep = (smash_over_A_report if question == "smash-over-A"
               else smash_over_B_report)(fact, cfg)
        body = {name: verdict_report(v, field, args, v.residual_checks)
                for name, v in rep.items()}
        report = {"question": question, "verdicts": body,
                  "field": field.describe(), "seed": args.seed,
                  "tool": {"name": "entwine", "version": __version__}}
        return report, _exit_for([v.status for v in rep.values()])
    if question == "cross-check":
        cc = cross_check_frobenius(_as_entwining(kind, payload), cfg)
        entwined, extension = cc["entwined"], cc["extension"]
        report = {
            "question": "cross-check",
            "agree": cc["agree"],
            "entwined": verdict_report(entwined, field, args, entwined.residual_checks),
            "extension": verdict_report(extension, field, args,
                                        extension.residual_checks),
            "field": field.describe(), "seed": args.seed,
            "tool": {"name": "entwine", "version": __version__},
        }
        if not cc["agree"]:
            return report, EXIT_NO
        statuses = [entwined.status, extension.status]
        return report, EXIT_UNKNOWN if "unknown" in statuses else EXIT_PASS
    raise ParseError("usage error: unknown question %r" % (question,))


# ---------------------------------------------------------------------------
# commands

def _violations_doc(rep):
    return [{"law": v.law, "index": list(v.index), "detail": v.detail}
            for v in rep.violations]


def cmd_validate(args) -> int:
    t0 = time.monotonic()
    field, kind, payload = load_structure_file(args.path)
    rep = validate_payload(payload)
    report = {
        "command": "validate",
        "path": args.path,
        "kind": kind,
        "field": field.describe(),
        "ok": rep.ok,
        "violations": _violations_doc(rep),
        "tool": {"name": "entwine", "version": __version__},
    }
    emit(report, args.format, elapsed=time.monotonic() - t0)
    return EXIT_PASS if rep.ok else EXIT_NO


def cmd_analyze(args) -> int:
    t0 = time.monotonic()
    field, kind, payload = load_structure_file(args.path)
    rep = validate_payload(payload)
    if not rep.ok:
        emit({"command": "analyze", "path": args.path, "kind": kind,
              "ok": False, "violations": _violations_doc(rep),
              "field": field.describe(),
              "tool": {"name": "entwine", "version": __version__}},
             args.format)
        return EXIT_NO
    cfg = SearchConfig(enum_budget=args.enum_budget, trials=args.trials,
                       seed=args.seed)
    report, code = run_analysis(kind, payload, args.question, cfg, field, args)
    emit(report, args.format, elapsed=time.monotonic() - t0)
    return code


def _entry_dims(payload) -> str:
    if isinstance(payload, AlgebraData):
        return str(payload.dim)
    if isinstance(payload, CoalgebraData):
        return str(payload.dim)
    if isinstance(payload, BialgebraData):
        return str(payload.algebra.dim)
    if isinstance(payload, Entwining):
        return "%dx%d" % (payload.a.dim, payload.c.dim)
    if isinstance(payload, DoiHopfDatum):
        return "%d,%d,%d" % (payload.h.algebra.dim, payload.a.dim, payload.c.dim)
    if isinstance(payload, Factorization):
        return "%dx%d" % (payload.b.dim, payload.a.dim)
    if isinstance(payload, RingExtension):
        return "%d->%d" % (payload.r.dim, payload.s.dim)
    return "?"


def cmd_corpus_list(args) -> int:
    rows = []
    for name in corpus_names():
        entry = builtin(name, QQ_FIELD)
        rows.append({"name": entry.name, "kind": _entry_kind(entry.payload),
                     "dims": _entry_dims(entry.payload),
                     "field_spec": entry.field_spec, "note": entry.note})
    report = {"command": "corpus list", "count": len(rows), "entries": rows,
              "tool": {"name": "entwine", "version": __version__}}
    if args.format == "json":
        emit(report, "json")
    else:
        for r in rows:
            sys.stdout.write("%-20s %-14s %-7s %-6s %s\n"
                             % (r["name"], r["kind"], r["dims"],
                                r["field_spec"], r["note"]))
        sys.stdout.write("%d entries\n" % len(rows))
    return EXIT_PASS


def cmd_corpus_export(args) -> int:
    if not args.name:
        raise ParseError("usage error: corpus export needs --name")
    field = _field_flag(args.field)
    entry = builtin(args.name, field)
    doc = payload_to_structure_document(field, entry.payload)
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_PASS


def _bump_first(m: LinMap, field) -> LinMap:
    rows = [list(r) for r in m.mat]
    rows[0][0] = rows[0][0] + field.one
    return LinMap.from_rows(field, m.dom, m.cod, rows)


def mutate_payload(payload):
    """Flip one structure constant; used to prove the corpus run can fail."""
    f = payload.field
    if isinstance(payload, AlgebraData):
        mult = [[list(r) for r in p] for p in payload.mult]
        mult[0][0][0] = mult[0][0][0] + f.one
        return AlgebraData.make(f, mult, list(payload.unit))
    if isinstance(payload, CoalgebraData):
        com = [[list(r) for r in p] for p in payload.comult]
        com[0][0][0] = com[0][0][0] + f.one
        return CoalgebraData.make(f, com, list(payload.counit))
    if isinstance(payload, BialgebraData):
        return BialgebraData.make(mutate_payload(payload.algebra), payload.coalgebra)
    if isinstance(payload, Entwining):
        return Entwining(payload.a, payload.c, _bump_first(payload.psi, f))
    if isinstance(payload, DoiHopfDatum):
        act = ActionData("right", _bump_first(payload.action.map, f))
        return DoiHopfDatum(payload.h, payload.a, payload.c, payload.coaction, act)
    if isinstance(payload, Factorization):
        return Factorization(payload.b, payload.a, _bump_first(payload.rmap, f))
    if isinstance(payload, RingExtension):
        return RingExtension(payload.r, payload.s,
                             _bump_first(payload.embedding, f))
    raise ParseError("cannot mutate payload of type %s" % type(payload).__name__)


def _routes_agree(decide, payload, cfg: SearchConfig):
    """A check that a Frobenius decider gives one verdict on both routes."""
    return lambda: (decide(payload, cfg, route="search").status
                    == decide(payload, cfg, route="iso").status)


def _corpus_checks(entry: CorpusEntry, cfg: SearchConfig):
    """(check name, thunk) pairs for one entry; every thunk returns a bool."""
    payload = entry.payload
    checks = [("valid", lambda: validate_payload(payload).ok)]
    if isinstance(payload, Entwining):
        e = payload

        def dict_round_trip():
            fact = entwining_to_factorization(e)
            return factorization_to_entwining(fact, e.c) == e

        def cross():
            return cross_check_frobenius(e, cfg)["agree"]

        def adjunction():
            objs = [std_object_AC(e), std_object_CA(e),
                    std_object_CstarA(e), std_object_AstarC(e)]
            return all(adjunction_check(e, m).ok for m in objs)

        checks += [("fg-frob-routes", _routes_agree(FG_frobenius, e, cfg)),
                   ("fpgp-frob-routes", _routes_agree(FprimeGprime_frobenius, e, cfg)),
                   ("dict-round-trip", dict_round_trip),
                   ("cross-check", cross),
                   ("adjunction", adjunction)]
    elif isinstance(payload, RingExtension):
        ext = payload

        def ext_routes():
            # one S (x)_R S serves both routes
            problem = _frobenius_problem(ext, tensor_over_R(ext), cfg)
            return (decide_frobenius(problem, cfg, "search").status
                    == decide_frobenius(problem, cfg, "iso").status)

        checks.append(("ext-frob-routes", ext_routes))
    elif isinstance(payload, Factorization):
        fact = payload

        def smash_valid():
            from .structures import check_algebra
            return check_algebra(smash_product(fact)).ok

        def gamma_dims():
            ext = unit_embedding_A(fact)
            t = tensor_over_R(ext)
            return (compute_V3(fact).dim == compute_expectations(ext).dim
                    and compute_W3(fact).dim == compute_casimir(t).dim)

        checks += [("smash-valid", smash_valid),
                   ("gamma-dims", gamma_dims),
                   ("smash-frob-routes", _routes_agree(smash_frobenius_A, fact, cfg))]
    return checks


def _run_one(task):
    entry_name, field_tag, check_name, thunk = task
    try:
        ok = bool(thunk())
        note = ""
    except (ParseError, InternalCheckError) as ex:
        ok, note = False, "%s: %s" % (type(ex).__name__, ex)
    return {"entry": entry_name, "field": field_tag, "check": check_name,
            "pass": ok, "note": note}


def cmd_corpus_run(args) -> int:
    t0 = time.monotonic()
    cfg = SearchConfig(enum_budget=args.enum_budget, trials=args.trials,
                       seed=args.seed)
    if args.inject_mutation and args.inject_mutation not in corpus_names():
        raise ParseError("unknown corpus entry %r" % (args.inject_mutation,))
    tasks = []
    for field_tag, field in (("F2", Field("Fp", 2)), ("F3", Field("Fp", 3))):
        for entry in all_entries(field):
            if args.inject_mutation == entry.name:
                entry = CorpusEntry(entry.name, entry.field_spec,
                                    mutate_payload(entry.payload), entry.note)
            for check_name, thunk in _corpus_checks(entry, cfg):
                tasks.append((entry.name, field_tag, check_name, thunk))
    results = [_run_one(t) for t in tasks]
    failed = [r for r in results if not r["pass"]]
    report = {"command": "corpus run", "checks": len(results),
              "failed": len(failed), "ok": not failed, "results": results,
              "seed": args.seed, "enum_budget": args.enum_budget,
              "trials": args.trials,
              "tool": {"name": "entwine", "version": __version__}}
    if args.format == "json":
        emit(report, "json")
    else:
        for r in results:
            line = "%s %-20s [%s] %s" % ("PASS" if r["pass"] else "FAIL",
                                         r["entry"], r["field"], r["check"])
            if r["note"]:
                line += "  (" + r["note"] + ")"
            sys.stdout.write(line + "\n")
        sys.stdout.write("%d checks, %d failed, %.2fs\n"
                         % (len(results), len(failed), time.monotonic() - t0))
    return EXIT_PASS if not failed else EXIT_NO


def cmd_corpus(args) -> int:
    if args.action == "list":
        return cmd_corpus_list(args)
    if args.action == "run":
        return cmd_corpus_run(args)
    return cmd_corpus_export(args)


# ---------------------------------------------------------------------------
# entry point

QQ_FIELD = Field("Q")


def _field_flag(spec: str) -> Field:
    """Q, or F and a prime in ASCII digits with no sign or leading zero."""
    if spec == "Q":
        return QQ_FIELD
    if re.fullmatch("F[1-9][0-9]*", spec):
        try:
            return Field("Fp", int(spec[1:]))
        except (ValueError, ParseError):
            pass
    raise ParseError("usage error: --field takes Q or F<p>, not %r" % (spec,))


def _count(text: str) -> int:
    """A nonnegative integer option value; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer, not %r" % text)
    return n


def _common_flags(sp):
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--enum-budget", type=_count, default=1 << 16)
    sp.add_argument("--trials", type=_count, default=64)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="entwine",
        description="Exact separability / Frobenius analysis of entwining "
                    "structures, smash products, and ring extensions.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run every applicable axiom validator")
    v.add_argument("path")
    _common_flags(v)
    v.set_defaults(fn=cmd_validate)

    a = sub.add_parser("analyze", help="decide one separability or Frobenius "
                                       "question about a structure file")
    a.add_argument("path")
    a.add_argument("--question", required=True, choices=QUESTIONS)
    _common_flags(a)
    a.set_defaults(fn=cmd_analyze)

    c = sub.add_parser("corpus", help="list, export, or exercise the builtin corpus")
    c.add_argument("action", choices=["list", "run", "export"])
    c.add_argument("--name", help="entry name (export)")
    c.add_argument("--field", default="Q", help="field for export: Q or F<p>")
    c.add_argument("--inject-mutation", metavar="ENTRY",
                   help="corrupt one entry before running (self-test mode)")
    _common_flags(c)
    c.set_defaults(fn=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as ex:
        sys.stderr.write("error: %s\n" % ex)
        return EXIT_INPUT
    except InternalCheckError as ex:
        sys.stderr.write("internal self-check failure: %s\n" % ex)
        return EXIT_INTERNAL
    except Exception:  # any other failure is a bug, never a verdict
        import traceback  # imported here: it costs 0.2 MB of memory at start-up

        sys.stderr.write("internal error:\n" + traceback.format_exc())
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
