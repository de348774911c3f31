"""Entwining axioms, Doi-Hopf induction, standard objects, adjunctions."""

import pytest

from entwine.corpus import (
    cyclic_group_algebra,
    cyclic_group_bialgebra,
    dual_numbers_coalgebra,
    grouplike_coalgebra,
    matrix_algebra,
    random_doi_hopf,
    trivial_algebra,
    validate_payload,
)
from entwine.entwining import (
    DoiHopfDatum,
    Entwining,
    EntwinedObject,
    adjunction_check,
    check_doi_hopf,
    check_entwined_object,
    check_entwining,
    from_doi_hopf,
    invert_psi,
    std_object_AC,
    std_object_AstarC,
    std_object_CA,
    std_object_CstarA,
)
from entwine.exactlin import GF, QQ, Field, LinMap, basis_vec
from entwine.structures import ActionData, CoactionData

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)


def doi_hopf_kc2(field):
    """H = kC2 acting and coacting on itself regularly."""
    h = cyclic_group_bialgebra(field, 2)
    coact = CoactionData("right", h.coalgebra.comult_map())
    act = ActionData("right", h.algebra.mult_map())
    return DoiHopfDatum(h, h.algebra, h.coalgebra, coact, act)


# -- axioms ------------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_flip_entwinings_are_valid(field):
    pairs = [
        (trivial_algebra(field), grouplike_coalgebra(field, 2)),
        (trivial_algebra(field), dual_numbers_coalgebra(field)),
        (cyclic_group_algebra(field, 2), grouplike_coalgebra(field, 2)),
        (matrix_algebra(field, 2), grouplike_coalgebra(field, 2)),
    ]
    for a, c in pairs:
        assert check_entwining(Entwining.flip(a, c)).ok


def test_broken_psi_is_rejected_with_named_law():
    a = cyclic_group_algebra(QQ, 2)
    c = grouplike_coalgebra(QQ, 2)
    e = Entwining.flip(a, c)
    mat = [list(r) for r in e.psi.mat]
    mat[0][3] = QQ.one  # pollute psi(g (x) g)
    bad = Entwining(a, c, LinMap(QQ, e.psi.dom, e.psi.cod,
                                 tuple(tuple(r) for r in mat)))
    rep = check_entwining(bad)
    assert not rep.ok
    assert any(v.law.startswith("entwine-") for v in rep.violations)


def test_zero_psi_fails_unit_axiom():
    a = trivial_algebra(QQ)
    c = grouplike_coalgebra(QQ, 2)
    zero = LinMap.zero_map(QQ, (2, 1), (1, 2))
    rep = check_entwining(Entwining(a, c, zero))
    laws = {v.law for v in rep.violations}
    assert "entwine-unit" in laws


# -- Doi-Hopf ----------------------------------------------------------------

def test_doi_hopf_kc2_datum_is_valid():
    assert check_doi_hopf(doi_hopf_kc2(QQ)).ok


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_doi_hopf_kc2_psi_is_the_expected_permutation(field):
    assert check_doi_hopf(doi_hopf_kc2(field)).ok
    e = from_doi_hopf(doi_hopf_kc2(field))
    one, zero = field.one, field.zero
    # psi(g^c (x) g^a) = g^a (x) g^{c+a}
    for c in range(2):
        for a in range(2):
            for a2 in range(2):
                for c2 in range(2):
                    want = one if (a2 == a and c2 == (c + a) % 2) else zero
                    assert e.psi_entry(a2, c2, c, a) == want
    assert check_entwining(e).ok


def test_the_gate_rejects_an_invalid_datum():
    """from_doi_hopf takes valid data; validate_payload is what turns an
    invalid datum away."""
    d = doi_hopf_kc2(QQ)
    bad_act = ActionData("right", LinMap.zero_map(QQ, (2, 2), (2,)))
    broken = DoiHopfDatum(d.h, d.a, d.c, d.coaction, bad_act)
    rep = validate_payload(broken)
    assert not rep.ok
    assert "action-unit" in {v.law for v in rep.violations}


@pytest.mark.parametrize("dims,seed", [((2, 2, 2), 0), ((2, 1, 2), 7), ((1, 2, 1), 3)])
def test_random_doi_hopf_yields_valid_entwinings(dims, seed):
    d = random_doi_hopf(dims, F2, seed)
    assert check_doi_hopf(d).ok
    assert check_entwining(from_doi_hopf(d)).ok


# -- standard objects --------------------------------------------------------

def entwining_corpus(field):
    yield Entwining.flip(trivial_algebra(field), dual_numbers_coalgebra(field))
    yield Entwining.flip(cyclic_group_algebra(field, 2), grouplike_coalgebra(field, 2))
    yield Entwining.flip(matrix_algebra(field, 2), grouplike_coalgebra(field, 2))
    yield from_doi_hopf(doi_hopf_kc2(field))


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_standard_objects_validate_eagerly(field):
    """The standard objects of a valid entwining pass the entwined-object
    laws; the builders do not check them, so this test does."""
    for e in entwining_corpus(field):
        assert check_entwining(e).ok
        for build in (std_object_AC, std_object_CA, std_object_CstarA, std_object_AstarC):
            obj = build(e)
            assert check_entwined_object(e, obj).ok


def test_the_gate_rejects_a_broken_entwining():
    """The standard-object builders take valid entwinings; validate_payload
    is what turns a broken one away."""
    a = cyclic_group_algebra(QQ, 2)
    c = grouplike_coalgebra(QQ, 2)
    bad = Entwining(a, c, LinMap.zero_map(QQ, (2, 2), (2, 2)))
    rep = validate_payload(bad)
    assert not rep.ok
    assert "entwine-unit" in {v.law for v in rep.violations}


def test_CA_coaction_value_for_doi_hopf_kc2():
    e = from_doi_hopf(doi_hopf_kc2(QQ))
    obj = std_object_CA(e)
    # rho(g (x) g) = g (x) psi(g (x) g) = g (x) g (x) 1
    img = obj.coact.apply(basis_vec(QQ, 4, 1 * 2 + 1))
    want = basis_vec(QQ, 8, (1 * 2 + 1) * 2 + 0)
    assert img == want


def test_CstarA_left_action_for_flip_is_left_multiplication():
    field = QQ
    a = cyclic_group_algebra(field, 2)
    c = grouplike_coalgebra(field, 2)
    obj = std_object_CstarA(Entwining.flip(a, c))
    # g . (c* (x) 1) = c* (x) g when psi just swaps legs
    img = obj.lact.apply(basis_vec(field, 2 * 4, 1 * 4 + (0 * 2 + 0)))
    assert img == basis_vec(field, 4, 0 * 2 + 1)


def test_AstarC_left_coaction_for_flip_splits_comultiplication():
    field = QQ
    a = cyclic_group_algebra(field, 2)
    c = dual_numbers_coalgebra(field)
    e = Entwining.flip(a, c)
    obj = std_object_AstarC(e)
    assert check_entwined_object(e, obj).ok
    # lambda(a* (x) x) = g (x) a* (x) x + x (x) a* (x) g
    img = obj.lcoact.apply(basis_vec(field, 4, 0 * 2 + 1))
    want = [field.zero] * 8
    want[(0 * 2 + 0) * 2 + 1] = field.one
    want[(1 * 2 + 0) * 2 + 0] = field.one
    assert list(img) == want


def test_entwined_object_checker_rejects_broken_compatibility():
    field = QQ
    e = from_doi_hopf(doi_hopf_kc2(field))
    good = std_object_AC(e)
    flipped = Entwining.flip(e.a, e.c)
    wrong_act = std_object_AC(flipped).act  # built against a different psi
    bad = EntwinedObject("broken", good.dim, wrong_act, good.coact)
    rep = check_entwined_object(e, bad)
    assert not rep.ok


# -- inverse psi -------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_invert_psi_on_flip_and_doi_hopf(field):
    for e in entwining_corpus(field):
        phi, rep = invert_psi(e)
        assert phi is not None and rep.ok
        na, nc = e.a.dim, e.c.dim
        ident = LinMap.identity(field, (na * nc,))
        assert phi.compose(e.psi).with_shapes((na * nc,), (na * nc,)) == ident


def test_invert_psi_reports_singular_matrix():
    a = cyclic_group_algebra(QQ, 2)
    c = grouplike_coalgebra(QQ, 2)
    phi, rep = invert_psi(Entwining(a, c, LinMap.zero_map(QQ, (2, 2), (2, 2))))
    assert phi is None
    assert not rep.ok
    assert rep.violations[0].law == "psi-invertible"


# -- adjunctions -------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F2])
def test_adjunction_triangles_on_standard_objects(field):
    for e in entwining_corpus(field):
        for build in (std_object_AC, std_object_CA, std_object_CstarA, std_object_AstarC):
            obj = build(e)
            assert adjunction_check(e, obj).ok


def test_nested_make_round_trips_entries():
    field = QQ
    a = cyclic_group_algebra(field, 2)
    c = grouplike_coalgebra(field, 2)
    nested = [[[[field.one if (a2 == ai and c2 == ci) else field.zero
                 for c2 in range(2)] for a2 in range(2)]
               for ai in range(2)] for ci in range(2)]
    e = Entwining.make(a, c, nested)
    assert e.psi == Entwining.flip(a, c).psi
    assert e.psi_entry(1, 0, 0, 1) == field.one
