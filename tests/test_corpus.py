"""The builtin registry: named validated structures over selectable fields."""

import pytest

from entwine.corpus import (
    CorpusEntry,
    all_entries,
    builtin,
    corpus_names,
    doi_hopf_kc2_datum,
    field_allowed,
    random_doi_hopf,
    upper_triangular_algebra,
    validate_payload,
)
from entwine.entwining import Entwining, check_doi_hopf, check_entwining, from_doi_hopf
from entwine.exactlin import Field, ParseError, QQ
from entwine.ringext import RingExtension
from entwine.smash import Factorization
from entwine.structures import AlgebraData, BialgebraData, CoalgebraData

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)
F5 = Field("Fp", 5)
FIELDS = [QQ, F2, F3, F5]

MINIMUM = {"k", "kC2", "kC3", "M2", "GL2", "GL3", "DN", "sweedler",
           "doihopf-kC2", "ext-k-kC2", "ext-k-kC3", "ext-k-M2", "ext-id-kC2"}


def test_registry_minimum_contents():
    names = set(corpus_names())
    assert MINIMUM <= names
    assert len(names) >= 12
    assert any(n.startswith("flip-") for n in names)


@pytest.mark.parametrize("field", FIELDS)
def test_every_entry_valid(field):
    entries = all_entries(field)
    assert len(entries) >= 12
    for entry in entries:
        rep = validate_payload(entry.payload)
        assert rep.ok, (entry.name, rep.describe())
        assert entry.note


def test_unknown_name_rejected():
    with pytest.raises(ParseError):
        builtin("nosuch", QQ)


def test_field_constraints_enforced():
    with pytest.raises(ParseError):
        builtin("sweedler", F2)
    for field in (QQ, F3, F5):
        assert isinstance(builtin("sweedler", field).payload, BialgebraData)
    assert not field_allowed("p!=2", F2)
    assert field_allowed("p!=2", F3)
    assert field_allowed("any", F2)


def test_builtin_spot_checks():
    kc2 = builtin("kC2", F2).payload
    assert isinstance(kc2, AlgebraData) and kc2.dim == 2
    m2 = builtin("M2", QQ).payload
    assert isinstance(m2, AlgebraData) and m2.dim == 4
    e = builtin("doihopf-kC2", QQ).payload
    assert isinstance(e, Entwining)
    # psi(g (x) g) = g (x) 1 and psi(c (x) 1) = 1 (x) c
    one, zero = QQ.one, QQ.zero
    assert e.psi_entry(1, 0, 1, 1) == one
    assert e.psi_entry(1, 1, 1, 1) == zero
    for i in range(2):
        assert e.psi_entry(0, i, i, 0) == one


def test_entwined_dims_capped():
    for field in (QQ, F2):
        for entry in all_entries(field):
            p = entry.payload
            if isinstance(p, Entwining):
                assert p.a.dim * p.c.dim <= 8
            if isinstance(p, Factorization):
                assert p.a.dim * p.b.dim <= 8


def test_builtin_deterministic():
    for name in corpus_names():
        if not field_allowed(builtin(name, QQ).field_spec, F2):
            continue
        assert builtin(name, F2).payload == builtin(name, F2).payload


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_payload_kinds_present(field):
    kinds = {type(e.payload) for e in all_entries(field)}
    assert {AlgebraData, CoalgebraData, Entwining, Factorization,
            RingExtension} <= kinds


def test_doi_hopf_datum_entry_matches_entwining_entry():
    d = builtin("doihopf-kC2-datum", F3).payload
    e = builtin("doihopf-kC2", F3).payload
    assert from_doi_hopf(d) == e
    assert doi_hopf_kc2_datum(F3) == d


def test_upper_triangular_is_unital_associative_dim3():
    t2 = upper_triangular_algebra(F2)
    assert t2.dim == 3
    assert validate_payload(t2).ok


# -- seeded generator ---------------------------------------------------------

def test_random_doi_hopf_deterministic():
    a = random_doi_hopf((2, 2, 2), F2, seed=1)
    b = random_doi_hopf((2, 2, 2), F2, seed=1)
    assert a == b
    assert check_doi_hopf(a).ok
    e = from_doi_hopf(a)
    assert check_entwining(e).ok


def test_random_doi_hopf_trivial_bialgebra_always_succeeds():
    for seed in range(5):
        d = random_doi_hopf((1, 1, 1), F3, seed=seed)
        assert check_doi_hopf(d).ok
        assert check_entwining(from_doi_hopf(d)).ok


def test_random_doi_hopf_serialized_bytes_identical():
    import json

    from entwine.cli import payload_to_structure_document

    docs = [json.dumps(payload_to_structure_document(
        F3, random_doi_hopf((2, 2, 2), F3, seed=9)), sort_keys=True)
        for _ in range(2)]
    assert docs[0] == docs[1]


def test_random_doi_hopf_unsupported_dims():
    with pytest.raises(ParseError):
        random_doi_hopf((9, 1, 1), F2, seed=0)


def test_mutated_payload_rejected():
    from entwine.cli import mutate_payload

    for name in ("kC2", "GL2", "doihopf-kC2", "fact-doihopf-kC2", "ext-k-M2"):
        entry = builtin(name, F3)
        bad = mutate_payload(entry.payload)
        assert not validate_payload(bad).ok, name
