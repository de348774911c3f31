"""The command line front end: file parsing, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from _reversed_corpus import run_reversed
from entwine import actforget, cli, coforget, homspaces, ringext, smash
from entwine.cli import (
    main,
    parse_structure_document,
    payload_to_structure_document,
)
from entwine.corpus import builtin
from entwine.exactlin import Field, ParseError, QQ, ShapeError
from entwine.smash import check_factorization, entwining_to_factorization
from entwine.structures import ValidationReport, Violation

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)


def export(tmp_path, name, field, fname=None):
    entry = builtin(name, field)
    doc = payload_to_structure_document(field, entry.payload)
    p = tmp_path / ((fname or name) + ".json")
    p.write_text(json.dumps(doc))
    return p


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- validate -----------------------------------------------------------------

@pytest.mark.parametrize("name,field", [
    ("kC2", F2), ("GL3", QQ), ("sweedler", F3), ("doihopf-kC2", F2),
    ("doihopf-kC2-datum", F3), ("fact-doihopf-kC2", F2), ("ext-k-M2", QQ),
    ("flip-k-arrow", F3),
])
def test_validate_corpus_exports_pass(tmp_path, capsys, name, field):
    p = export(tmp_path, name, field)
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 0
    assert "ok: True" in out


def test_validate_broken_counit(tmp_path, capsys):
    p = export(tmp_path, "GL2", F2)
    doc = json.loads(p.read_text())
    doc["coalgebra"]["counit"][0] = "0"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(p), "--format", "json")
    assert code == 1
    rep = json.loads(out)
    assert not rep["ok"]
    assert any("counit" in v["law"] for v in rep["violations"])


def test_validate_malformed_scalar(tmp_path, capsys):
    p = export(tmp_path, "kC2", QQ)
    doc = json.loads(p.read_text())
    doc["algebra"]["unit"][0] = "1/0"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "algebra.unit[0]" in err


@pytest.mark.parametrize("scalar", [
    "\u0661",        # ARABIC-INDIC DIGIT ONE
    "\uff11",        # FULLWIDTH DIGIT ONE
    "1/\u0663",      # a non-ASCII denominator
    "-\u0967",       # DEVANAGARI DIGIT ONE, signed
])
def test_non_ascii_digits_are_malformed_scalars(tmp_path, capsys, scalar):
    p = export(tmp_path, "kC2", QQ)
    doc = json.loads(p.read_text())
    doc["algebra"]["unit"][0] = scalar
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert err == "error: algebra.unit[0]: malformed scalar %r\n" % scalar


def test_signed_and_fraction_scalars_are_accepted():
    doc = {"field": {"kind": "Q"},
           "algebra": {"mult": [[["-1"]]], "unit": ["+1"]}}
    _, _, a = parse_structure_document(doc)
    assert (a.mult[0][0][0], a.unit[0]) == (-QQ.one, QQ.one)
    doc["algebra"]["unit"] = ["3/2"]
    _, _, a = parse_structure_document(doc)
    assert a.unit[0] == QQ.parse("3") / QQ.parse("2")


@pytest.mark.parametrize("spec", [
    "F\u0663", "F\uff13", "F+3", "F-3", "F03", "F 3", "F3 ", "F", "F4", "F1", "F0",
    "Fp3", "f3", "q",
])
def test_corpus_export_field_flag_takes_an_ascii_prime(capsys, spec):
    code, out, err = run(capsys, "corpus", "export", "--name", "kC2", "--field", spec)
    assert (code, out) == (2, "")
    assert err == "error: usage error: --field takes Q or F<p>, not %r\n" % spec


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F5", "F101"])
def test_corpus_export_field_flag_accepts_q_and_primes(capsys, spec):
    code, out, _ = run(capsys, "corpus", "export", "--name", "kC2", "--field", spec)
    assert code == 0
    assert json.loads(out)["field"] == (
        {"kind": "Q"} if spec == "Q" else {"kind": "Fp", "p": int(spec[1:])})


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
@pytest.mark.parametrize("literal,needle", [
    ('"%s"' % ("7" * 5000), "algebra.unit[0]"),
    ("7" * 5000, "is not valid JSON"),
], ids=["string", "number"])
def test_validate_oversized_scalar_is_bad_input(tmp_path, capsys, field, literal, needle):
    """A scalar past the interpreter's 4,300-digit limit on int conversion,
    as a string or as a bare JSON number, is bad input, not an internal
    error."""
    p = export(tmp_path, "kC2", field)
    doc = json.loads(p.read_text())
    doc["algebra"]["unit"][0] = "PLACEHOLDER"
    p.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d.pop("field"), "field"),
    (lambda d: d.update(algebra={"mult": [], "unit": []}), "exactly one"),
    (lambda d: d.update(extra=1), "unknown keys"),
    (lambda d: d["coalgebra"].pop("counit"), "coalgebra"),
])
def test_validate_structural_errors(tmp_path, capsys, mangle, needle):
    p = export(tmp_path, "DN", F2)
    doc = json.loads(p.read_text())
    mangle(doc)
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("field_obj", [
    {"kind": "Q", "p": 5}, {"kind": "Fp", "p": 3, "extra": 1}, {"kind": "Fp"},
    {"kind": "Q", "extra": 1}, {"kind": "F3"}, {"kind": ["Q"]}, {"p": 3}, "Q",
    {"kind": "Fp", "p": 4}, {"kind": "Fp", "p": [3]}, {"kind": "Fp", "p": 3.0},
    {"kind": "Fp", "p": True}, {"kind": "Fp", "p": "3"},
])
def test_validate_field_object_takes_exactly_its_keys(tmp_path, capsys, field_obj):
    p = export(tmp_path, "DN", QQ)
    doc = json.loads(p.read_text())
    doc["field"] = field_obj
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: $.field: ")


@pytest.mark.parametrize("argv", [
    ("analyze", "{path}", "--question", "FG-frob", "--enum-budget", "-1"),
    ("analyze", "{path}", "--question", "FG-frob", "--trials", "-1"),
    ("analyze", "{path}", "--question", "FG-frob", "--enum-budget", "many"),
    ("corpus", "run", "--enum-budget", "-1"),
    ("corpus", "run", "--trials", "-5"),
])
def test_negative_budgets_are_usage_errors(tmp_path, capsys, argv):
    """Exit 2 from the argument parser, never the 1 of a verdict "no"."""
    p = export(tmp_path, "flip-k-arrow", F2)
    with pytest.raises(SystemExit) as ex:
        main([a.format(path=p) for a in argv])
    assert ex.value.code == 2
    assert "expected a nonnegative integer" in capsys.readouterr().err


def test_zero_budgets_are_accepted(tmp_path, capsys):
    p = export(tmp_path, "flip-k-arrow", F2)
    code, out, _ = run(capsys, "analyze", str(p), "--question", "FG-frob",
                       "--enum-budget", "0", "--trials", "0", "--format", "json")
    assert code in (0, 1, 3)
    assert json.loads(out)["question"] == "FG-frob"


def test_validate_not_json(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text("{nope")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "JSON" in err


def test_validate_not_utf8(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_bytes(b"\xff\xff\xff{")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "is not valid JSON" in err


def test_validate_too_deeply_nested(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text("[" * 200000 + "]" * 200000)
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "is not valid JSON" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.json")
    assert code == 2


def test_ragged_matrix_rejected(tmp_path, capsys):
    p = export(tmp_path, "ext-k-kC2", F2)
    doc = json.loads(p.read_text())
    doc["ring_extension"]["embedding"] = [["1"], ["0", "0"]]
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2


# -- analyze ------------------------------------------------------------------

def test_analyze_gsep_doihopf_f2_is_no(tmp_path, capsys):
    p = export(tmp_path, "doihopf-kC2", F2)
    code, out, _ = run(capsys, "analyze", str(p), "--question", "G-sep",
                       "--format", "json")
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "no"
    assert rep["definitive"] is True
    assert rep["reason"]


def test_analyze_frobenius_not_separable_headline(tmp_path, capsys):
    p = export(tmp_path, "flip-k-DN", QQ)
    code, out, _ = run(capsys, "analyze", str(p), "--question", "FG-frob",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "yes"
    assert set(rep["witness"]) >= {"theta", "z"}
    assert rep["residual_checks"] == {"frobenius-system": "0"}
    code, out, _ = run(capsys, "analyze", str(p), "--question", "F-sep",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["status"] == "no"


def test_analyze_ext_frobenius_m2(tmp_path, capsys):
    p = export(tmp_path, "ext-k-M2", F3)
    code, out, _ = run(capsys, "analyze", str(p), "--question", "ext-frob",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "yes"
    assert rep["residual_checks"] == {"frobenius-system": "0"}
    assert set(rep["witness"]) >= {"nu", "e"}


def test_analyze_question_payload_mismatch(tmp_path, capsys):
    p = export(tmp_path, "ext-k-M2", F3)
    code, _, err = run(capsys, "analyze", str(p), "--question", "FG-frob")
    assert code == 2
    assert "usage error" in err


def test_analyze_smash_reports(tmp_path, capsys):
    p = export(tmp_path, "fact-doihopf-kC2", F2)
    code, out, _ = run(capsys, "analyze", str(p), "--question", "smash-over-A",
                       "--format", "json")
    assert code == 1  # split fails over F2
    rep = json.loads(out)
    got = {k: v["status"] for k, v in rep["verdicts"].items()}
    assert got == {"split": "no", "separable": "yes", "frobenius": "yes"}
    code, out, _ = run(capsys, "analyze", str(p), "--question", "smash-over-B",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert all(v["status"] == "yes" for v in rep["verdicts"].values())


def test_analyze_cross_check(tmp_path, capsys):
    p = export(tmp_path, "flip-k-DN", F2)
    code, out, _ = run(capsys, "analyze", str(p), "--question", "cross-check",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["agree"] is True
    assert rep["entwined"]["status"] == "yes"
    assert rep["extension"]["status"] == "yes"


def test_analyze_doi_hopf_payload_accepted(tmp_path, capsys):
    p = export(tmp_path, "doihopf-kC2-datum", F3)
    code, out, _ = run(capsys, "analyze", str(p), "--question", "FG-frob",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "yes"


def test_analyze_unknown_exit_code(tmp_path, capsys):
    p = export(tmp_path, "flip-k-GL2", QQ)
    code, out, _ = run(capsys, "analyze", str(p), "--question", "FG-frob",
                       "--format", "json", "--trials", "0",
                       "--enum-budget", "0")
    assert code == 3
    assert json.loads(out)["status"] == "unknown"


def test_iso_failing_the_morphism_laws_is_an_internal_error(tmp_path, capsys,
                                                              monkeypatch):
    """A found iso that fails the re-check is a solver bug: exit 70, not 2."""
    from entwine import homspaces

    monkeypatch.setattr(homspaces, "morphism_ok", lambda *args: False)
    p = export(tmp_path, "flip-k-DN", F2)
    # a one-point budget leaves the candidate search undecided, so analyze
    # goes on to the isomorphism route
    code, _, err = run(capsys, "analyze", str(p), "--question", "FG-frob",
                       "--enum-budget", "1", "--trials", "0")
    assert code == 70
    assert "found iso violates the morphism laws" in err
    code, out, _ = run(capsys, "corpus", "run", "--format", "json")
    assert code == 1
    notes = [r["note"] for r in json.loads(out)["results"] if not r["pass"]]
    assert notes
    assert all(n.startswith("InternalCheckError: ") for n in notes)


def test_any_other_failure_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """An exception no command expects is a bug: exit 70 with its traceback,
    never 1, which reads as a verdict."""
    def shape_bug(e):
        raise ShapeError("planted shape bug")

    monkeypatch.setitem(cli.DECIDERS, "F-sep", shape_bug)
    p = export(tmp_path, "flip-k-DN", F2)
    code, _, err = run(capsys, "analyze", str(p), "--question", "F-sep")
    assert code == 70
    assert "Traceback" in err and "ShapeError: planted shape bug" in err


def test_derived_factorization_failing_the_axioms_is_an_internal_error(
        tmp_path, capsys, monkeypatch):
    """The factorization derived from a valid entwining is re-checked; a
    failure is a bug in the dictionary (exit 70), not bad input (exit 2)."""
    p = export(tmp_path, "flip-k-DN", F2)
    _, _, e = cli.load_structure_file(str(p))
    broken = cli.mutate_payload(entwining_to_factorization(e))
    assert not check_factorization(broken).ok
    monkeypatch.setattr(cli, "entwining_to_factorization", lambda e: broken)
    for question in cli.SMASH_QUESTIONS:
        code, _, err = run(capsys, "analyze", str(p), "--question", question)
        assert code == 70, question
        assert "derived factorization" in err


# a payload each normalized question answers "yes" for over F3, and the
# normalization check its first re-checked witness names
_NORMALIZED = {
    "F-sep": ("flip-k-GL2", "counit-normalization"),
    "G-sep": ("flip-k-GL2", "unit-normalization"),
    "Fp-sep": ("flip-k-GL2", "counit-normalization"),
    "Gp-sep": ("flip-k-GL2", "mult-normalization"),
    "ext-split": ("ext-k-M2", "unit-normalization"),
    "ext-sep": ("ext-k-M2", "mult-normalization"),
    "smash-over-A": ("fact-doihopf-kC2", "unit-normalization"),
    "smash-over-B": ("fact-doihopf-kC2", "unit-normalization"),
}


@pytest.mark.parametrize("question", sorted(_NORMALIZED))
def test_unnormalized_witness_is_an_internal_error(tmp_path, capsys, monkeypatch,
                                                   question):
    """A solver that returns zero coefficients gives a member of the
    solution space that is not normalized: its re-check exits 70 and names
    the normalization it fails."""
    entry, check = _NORMALIZED[question]
    real = homspaces.solve_affine_in_span

    def zeros(field, images, target):
        part, kern = real(field, images, target)
        return (None if part is None else [field.zero] * len(images)), kern

    monkeypatch.setattr(homspaces, "solve_affine_in_span", zeros)
    p = export(tmp_path, entry, F3)
    code, _, err = run(capsys, "analyze", str(p), "--question", question)
    assert code == 70
    assert check in err


@pytest.mark.parametrize("question,entry", [
    ("FG-frob", "flip-k-GL2"), ("FpGp-frob", "flip-k-GL2"), ("ext-frob", "ext-k-M2"),
    ("smash-over-A", "fact-doihopf-kC2"), ("smash-over-B", "fact-doihopf-kC2"),
])
def test_frobenius_witness_failing_its_residual_is_an_internal_error(
        tmp_path, capsys, monkeypatch, question, entry):
    """A Frobenius witness that fails its residual exits 70.  (The iso
    route's re-check is tested in test_homspaces.py.)"""
    def planted(*args):
        return ["planted-failure"]

    monkeypatch.setattr(coforget, "frobenius_residual", planted)
    monkeypatch.setattr(actforget, "frobenius_prime_residual", planted)
    monkeypatch.setattr(ringext, "frobenius_residual", planted)
    monkeypatch.setattr(smash, "frobenius_smash_residual", planted)
    p = export(tmp_path, entry, F3)
    code, _, err = run(capsys, "analyze", str(p), "--question", question)
    assert code == 70
    assert "planted-failure" in err


@pytest.mark.parametrize("question,entry,name", [
    ("ext-sep", "ext-k-M2", "tensor_over_R"),
    ("ext-frob", "ext-k-M2", "tensor_over_R"),
    ("smash-over-B", "fact-doihopf-kC2", "op_dual"),
    ("cross-check", "flip-k-DN", "entwining_to_factorization"),
])
def test_analyze_builds_each_derived_structure_once(tmp_path, capsys, monkeypatch,
                                                    question, entry, name):
    """The report takes its residual checks from the verdict, so S (x)_R S,
    the op-dual factorization or the derived factorization is built once,
    by the decider, and not again to re-check the witness."""
    p = export(tmp_path, entry, F3)
    built = []
    real = getattr(smash, name)  # smash imports tensor_over_R from ringext

    def counted(*args):
        built.append(args)
        return real(*args)

    for module in (cli, ringext, smash):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, "analyze", str(p), "--question", question)
    assert code == 0
    assert len(built) == 1


# one payload of a kind each question accepts
_GATE_ENTRIES = {q: "flip-k-DN" for q in cli.QUESTIONS}
_GATE_ENTRIES.update({q: "ext-k-M2" for q in cli.EXTENSION_QUESTIONS})
_GATE_ENTRIES.update({q: "fact-doihopf-kC2" for q in cli.SMASH_QUESTIONS})


@pytest.mark.parametrize("question", cli.QUESTIONS)
def test_analyze_runs_nothing_on_input_the_gate_rejects(tmp_path, capsys,
                                                        monkeypatch, question):
    """Constructions and deciders take valid input: `validate_payload` in
    `cmd_analyze` is the only check between a file and the analysis."""
    reached = []
    monkeypatch.setattr(cli, "validate_payload", lambda payload: ValidationReport(
        "planted", [Violation("planted-law", (), "planted")]))
    monkeypatch.setattr(cli, "run_analysis", lambda *args: reached.append(args))
    p = export(tmp_path, _GATE_ENTRIES[question], F2)
    code, out, _ = run(capsys, "analyze", str(p), "--question", question,
                       "--format", "json")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert [v["law"] for v in rep["violations"]] == ["planted-law"]
    assert not reached


def test_analyze_invalid_structure(tmp_path, capsys):
    p = export(tmp_path, "kC2", F2)
    doc = json.loads(p.read_text())
    doc["algebra"]["mult"][0][0][1] = "1"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "analyze", str(p), "--question", "ext-split",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_analyze_byte_deterministic(tmp_path, capsys):
    p = export(tmp_path, "doihopf-kC2", F3)
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", str(p), "--question", "FG-frob",
                           "--format", "json", "--seed", "5")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["seed"] == 5


# -- corpus -------------------------------------------------------------------

def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] >= 12
    names = [e["name"] for e in rep["entries"]]
    assert "doihopf-kC2" in names and "sweedler" in names


def test_corpus_export_validates(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "export", "--name", "doihopf-kC2",
                       "--field", "F2")
    assert code == 0
    p = tmp_path / "dh.json"
    p.write_text(out)
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 0


def test_corpus_export_unknown(capsys):
    code, _, err = run(capsys, "corpus", "export", "--name", "nosuch")
    assert code == 2


def test_corpus_export_bad_field(capsys):
    code, _, err = run(capsys, "corpus", "export", "--name", "kC2",
                       "--field", "F")
    assert code == 2
    assert "--field" in err


def test_corpus_run_clean_and_deterministic(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "corpus", "run", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    rep = json.loads(outs[0])
    assert rep["ok"] and rep["failed"] == 0 and rep["checks"] > 50
    code, out = run_reversed(monkeypatch, ["corpus", "run", "--format", "json"])
    assert code == 0
    assert out == outs[0]


# sha256 of `entwine corpus run --format json` with default flags, generated
# before the constructions lost their validate/verify switches
CORPUS_RUN_SHA256 = "bcd17ba604b72620bbdb0e064ece64a936e94f0e0d6b08c332ab78dae8c879d6"


def test_corpus_run_output_is_pinned(capsys):
    code, out, _ = run(capsys, "corpus", "run", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_RUN_SHA256


def test_corpus_run_builds_each_tensor_square_once(capsys, monkeypatch):
    """The ext-frob-routes check decides both routes of an extension over
    one S (x)_R S: no extension's tensor square is built twice.  (The
    gamma-dims and cross-check checks build those of their own A -> B # A.)"""
    built = []
    real_tensor = ringext.tensor_over_R

    def tensor(ext):
        built.append(ext)
        return real_tensor(ext)

    monkeypatch.setattr(ringext, "tensor_over_R", tensor)
    monkeypatch.setattr(cli, "tensor_over_R", tensor)
    code, out, _ = run(capsys, "corpus", "run", "--format", "json")
    assert code == 0
    checks = [r["check"] for r in json.loads(out)["results"]]
    assert len(built) == (checks.count("ext-frob-routes") + checks.count("gamma-dims")
                          + checks.count("cross-check"))
    assert len({id(ext) for ext in built}) == len(built)


def test_corpus_run_injected_mutation_fails(capsys):
    code, out, _ = run(capsys, "corpus", "run", "--inject-mutation", "kC2")
    assert code == 1
    assert "FAIL" in out


def test_corpus_run_unknown_mutation_target(capsys):
    code, _, err = run(capsys, "corpus", "run", "--inject-mutation", "zzz")
    assert code == 2


# -- round trips through the file format ---------------------------------------

@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_document_round_trip_every_entry(field):
    from entwine.corpus import all_entries

    for entry in all_entries(field):
        doc = json.loads(json.dumps(
            payload_to_structure_document(field, entry.payload)))
        f2, kind, payload = parse_structure_document(doc)
        assert f2 == field
        assert payload == entry.payload, entry.name


def test_rational_scalars_round_trip():
    doc = {"field": {"kind": "Q"},
           "algebra": {"mult": [[["3/2"]]], "unit": ["2/3"]}}
    field, kind, a = parse_structure_document(doc)
    assert kind == "algebra"
    assert a.mult[0][0][0] == QQ.parse("3/2")
    assert a.unit[0] == QQ.parse("2/3")


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "entwine.cli", "corpus", "list"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "doihopf-kC2" in out.stdout
