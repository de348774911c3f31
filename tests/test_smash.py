"""Factorization structures, smash products, and the extension A -> B # A.

Frozen verdicts below were computed once from the defining linear systems
and cross-checked through the ring-extension route; the doi-hopf R matrix
was derived by hand from psi(c (x) a) = a_(0) (x) c a_(1).
"""

import random
import tracemalloc

import pytest

from entwine.corpus import (
    arrow_coalgebra,
    corpus_entwinings,
    corpus_factorizations,
    cyclic_group_algebra,
    cyclic_group_bialgebra,
    dual_numbers_coalgebra,
    grouplike_coalgebra,
    matrix_algebra,
    trivial_algebra,
    trivial_coalgebra,
    validate_payload,
)
from entwine.entwining import DoiHopfDatum, Entwining, check_entwining, from_doi_hopf
from entwine.exactlin import QQ, Field, InternalCheckError, LinMap, ParseError, swap_map
from entwine.homspaces import SearchConfig
from entwine import ringext
from entwine.ringext import (
    casimir_residual,
    check_extension,
    compute_casimir,
    compute_expectations,
    frobenius_check,
    tensor_over_R,
)
from entwine.smash import (
    Factorization,
    check_factorization,
    compute_V3,
    compute_W3,
    cross_check_frobenius,
    entwining_to_factorization,
    factorization_to_entwining,
    frobenius_smash_residual,
    gamma_lift_map,
    gamma_section_map,
    kappa_residual,
    op_dual,
    smash_frobenius_A,
    smash_over_A_report,
    smash_over_B_report,
    smash_product,
    unit_embedding_A,
    w3_residual,
)
from entwine.structures import (
    ActionData,
    CoactionData,
    check_algebra,
    check_algebra_map,
    dual_algebra,
)

from _vectors import product

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)
FIELDS = [QQ, F2, F3]


def doi_hopf_kc2_entwining(field):
    h = cyclic_group_bialgebra(field, 2)
    d = DoiHopfDatum(h, h.algebra, h.coalgebra,
                     CoactionData("right", h.coalgebra.comult_map()),
                     ActionData("right", h.algebra.mult_map()))
    return from_doi_hopf(d)


def t2_algebra(field):
    # upper triangular 2x2 matrices, the smallest non-Frobenius algebra
    return dual_algebra(arrow_coalgebra(field))


def doi_hopf_factorization(field):
    return entwining_to_factorization(doi_hopf_kc2_entwining(field))


# --- validity and the twist axioms ---------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_flip_factorizations_valid(field):
    pairs = [
        (cyclic_group_algebra(field, 2), trivial_algebra(field)),
        (matrix_algebra(field, 2), cyclic_group_algebra(field, 2)),
        (t2_algebra(field), t2_algebra(field)),
    ]
    for b, a in pairs:
        assert check_factorization(Factorization.flip(b, a)).ok


def _toggle(field, fact, row, col):
    rows = [list(r) for r in fact.rmap.mat]
    rows[row][col] = field.one if not rows[row][col] else field.zero
    bad = LinMap.from_rows(field, fact.rmap.dom, fact.rmap.cod, rows)
    return Factorization(fact.b, fact.a, bad)


def test_invalid_factorization_rejected():
    fact = Factorization.flip(cyclic_group_algebra(F2, 2), cyclic_group_algebra(F2, 2))
    bad = _toggle(F2, fact, 3, 0)
    rep = check_factorization(bad)
    assert not rep.ok
    assert any(v.law.startswith("factor-") for v in rep.violations)
    assert not validate_payload(bad).ok


def test_smash_associative_unital_iff_axioms_random_F2():
    # the twisted product is associative with unit 1 # 1 exactly when the
    # four factorization axioms hold; 200 seeded R-maps, dims 2 and 2
    b = cyclic_group_algebra(F2, 2)
    a = cyclic_group_algebra(F2, 2)
    rng = random.Random(0)
    seen_valid = 0
    for _ in range(200):
        rows = [[F2.one if rng.randrange(2) else F2.zero for _ in range(4)]
                for _ in range(4)]
        fact = Factorization(b, a, LinMap.from_rows(F2, (2, 2), (2, 2), rows))
        ax = check_factorization(fact).ok
        alg = check_algebra(smash_product(fact)).ok
        assert ax == alg
        seen_valid += ax
    flip = Factorization.flip(b, a)
    assert check_factorization(flip).ok
    assert check_algebra(smash_product(flip)).ok
    dh = doi_hopf_factorization(F2)
    assert check_factorization(dh).ok
    assert check_algebra(smash_product(dh)).ok
    broken = _toggle(F2, flip, 3, 0)
    assert not check_factorization(broken).ok
    assert not check_algebra(smash_product(broken)).ok
    assert seen_valid < 200


@pytest.mark.parametrize("field", FIELDS)
def test_flip_smash_is_tensor_algebra(field):
    pairs = [
        (cyclic_group_algebra(field, 2), cyclic_group_algebra(field, 2)),
        (matrix_algebra(field, 2), cyclic_group_algebra(field, 2)),
        (t2_algebra(field), trivial_algebra(field)),
    ]
    for b, a in pairs:
        assert check_factorization(Factorization.flip(b, a)).ok
        assert smash_product(Factorization.flip(b, a)) == b.tensor(a)
    four = smash_product(Factorization.flip(cyclic_group_algebra(field, 2),
                                            cyclic_group_algebra(field, 2)))
    assert four.dim == 4


# --- the entwining dictionary ---------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_doi_hopf_R_matrix(field):
    # hand computation: R(1 (x) f) = f (x) 1, R(g (x) f) = (f . g) (x) g,
    # written on the basis 1*, g* of B = (kC2)*
    fact = doi_hopf_factorization(field)
    bits = [[1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0]]
    expected = tuple(tuple(field.one if x else field.zero for x in row)
                     for row in bits)
    assert fact.rmap.mat == expected
    assert check_factorization(fact).ok


def _dictionary_entwinings(field):
    es = [
        Entwining.flip(cyclic_group_algebra(field, 2), grouplike_coalgebra(field, 2)),
        Entwining.flip(trivial_algebra(field), dual_numbers_coalgebra(field)),
        Entwining.flip(matrix_algebra(field, 2), trivial_coalgebra(field)),
        Entwining.flip(t2_algebra(field), trivial_coalgebra(field)),
        doi_hopf_kc2_entwining(field),
    ]
    return es


@pytest.mark.parametrize("field", FIELDS)
def test_dictionary_round_trips(field):
    for e in _dictionary_entwinings(field):
        assert check_entwining(e).ok
        fact = entwining_to_factorization(e)
        assert check_factorization(fact).ok
        back = factorization_to_entwining(fact, e.c)
        assert back == e
        again = entwining_to_factorization(back)
        assert again.rmap == fact.rmap


def test_dictionary_rejects_mismatched_coalgebra():
    e = Entwining.flip(cyclic_group_algebra(F2, 2), dual_numbers_coalgebra(F2))
    assert check_entwining(e).ok
    fact = entwining_to_factorization(e)
    with pytest.raises(ParseError):
        factorization_to_entwining(fact, grouplike_coalgebra(F2, 2))


# --- opposite duality ------------------------------------------------------


def _checked_op_dual(fact):
    """op_dual(fact), with both facts its docstring states checked exactly:
    the dual is a factorization, and the leg swap is an algebra map from
    B # A onto the opposite of the dual's smash product."""
    dual = op_dual(fact)
    assert check_factorization(dual, "op-dual").ok
    swap = swap_map(fact.field, fact.b.dim, fact.a.dim)
    assert check_algebra_map(smash_product(fact), smash_product(dual).opposite(),
                             swap, "op-dual-iso").ok
    return dual


@pytest.mark.parametrize("field", FIELDS)
def test_op_dual_involution(field):
    for fact in [doi_hopf_factorization(field),
                 Factorization.flip(matrix_algebra(field, 2),
                                    cyclic_group_algebra(field, 2))]:
        dual = _checked_op_dual(fact)
        assert _checked_op_dual(dual) == fact


@pytest.mark.parametrize("field", FIELDS)
def test_op_dual_of_flip_swaps_factors(field):
    b = matrix_algebra(field, 2)
    a = cyclic_group_algebra(field, 3)
    assert _checked_op_dual(Factorization.flip(b, a)) == Factorization.flip(
        a.opposite(), b.opposite())


# --- V3, W3, and the gamma correspondence ---------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_V3_of_commutative_flip_is_everything(field):
    fact = Factorization.flip(cyclic_group_algebra(field, 2),
                              cyclic_group_algebra(field, 2))
    v3 = compute_V3(fact)
    assert v3.dim == 4
    for kappa in v3.basis:
        assert kappa_residual(fact, kappa) == []


@pytest.mark.parametrize("field", FIELDS)
def test_gamma_matches_ring_extension_spaces(field):
    for fact, v3dim, w3dim in [(doi_hopf_factorization(field), 2, 2),
                               (Factorization.flip(cyclic_group_algebra(field, 2),
                                                   cyclic_group_algebra(field, 2)),
                                None, 4)]:
        ext = unit_embedding_A(fact)
        t = tensor_over_R(ext)
        v3 = compute_V3(fact)
        w3 = compute_W3(fact)
        assert v3.dim == compute_expectations(ext).dim
        if v3dim is not None:
            assert v3.dim == v3dim
        w1 = compute_casimir(t)
        assert w3.dim == w1.dim
        if w3dim is not None:
            assert w3.dim == w3dim

        nb, na = fact.b.dim, fact.a.dim
        lift = gamma_lift_map(fact)
        sec = gamma_section_map(fact)
        assert lift.compose(sec) == LinMap.identity(field, (nb, nb, na))
        round_q = t.pi.compose(sec).compose(lift).compose(t.sigma)
        assert round_q == LinMap.identity(field, (t.dim,))

        # gamma carries each Casimir element into W3 and back
        for vec in w1.basis:
            img = lift.apply(t.sigma.apply(vec))
            assert w3_residual(fact, img) == []
        for vec in w3.basis:
            back = t.pi.apply(sec.apply(vec))
            assert casimir_residual(t, back) == []


def _raw_v3_holds(fact, kappa_cols):
    # a . kappa(b) = kappa(b_R) . a_R checked from structure constants
    f = fact.field
    na, nb = fact.a.dim, fact.b.dim
    for a in range(na):
        ea = tuple(f.one if i == a else f.zero for i in range(na))
        for b in range(nb):
            lhs = product(fact.a, ea, kappa_cols[b])
            rhs = [f.zero] * na
            for b2 in range(nb):
                for a2 in range(na):
                    coeff = fact.r_entry(b2, a2, a, b)
                    if not coeff:
                        continue
                    ea2 = tuple(f.one if i == a2 else f.zero for i in range(na))
                    term = product(fact.a, kappa_cols[b2], ea2)
                    rhs = [x + coeff * y for x, y in zip(rhs, term)]
            if list(lhs) != rhs:
                return False
    return True


def _raw_w3_holds(fact, e):
    f = fact.field
    na, nb = fact.a.dim, fact.b.dim

    def unit(n, i):
        return tuple(f.one if j == i else f.zero for j in range(n))

    def at(i, j, t):
        return e[(i * nb + j) * na + t]

    size = nb * nb * na
    for x in range(nb):
        lhs = [f.zero] * size
        rhs = [f.zero] * size
        for i in range(nb):
            for j in range(nb):
                for t in range(na):
                    c = at(i, j, t)
                    if not c:
                        continue
                    prod = product(fact.b, unit(nb, x), unit(nb, i))
                    for k in range(nb):
                        lhs[(k * nb + j) * na + t] += c * prod[k]
                    for b2 in range(nb):
                        for a2 in range(na):
                            r = fact.r_entry(b2, a2, t, x)
                            if not r:
                                continue
                            prod = product(fact.b, unit(nb, j), unit(nb, b2))
                            for m in range(nb):
                                rhs[(i * nb + m) * na + a2] += c * r * prod[m]
        if lhs != rhs:
            return False
    for y in range(na):
        lhs = [f.zero] * size
        rhs = [f.zero] * size
        for i in range(nb):
            for j in range(nb):
                for t in range(na):
                    c = at(i, j, t)
                    if not c:
                        continue
                    for p in range(nb):
                        for a1 in range(na):
                            r1 = fact.r_entry(p, a1, y, i)
                            if not r1:
                                continue
                            for q in range(nb):
                                for a2 in range(na):
                                    r2 = fact.r_entry(q, a2, a1, j)
                                    if not r2:
                                        continue
                                    prod = product(fact.a, unit(na, a2), unit(na, t))
                                    for s in range(na):
                                        lhs[(p * nb + q) * na + s] += c * r1 * r2 * prod[s]
                    prod = product(fact.a, unit(na, t), unit(na, y))
                    for s in range(na):
                        rhs[(i * nb + j) * na + s] += c * prod[s]
        if lhs != rhs:
            return False
    return True


def test_V3_W3_match_brute_force_F2():
    fact = doi_hopf_factorization(F2)
    na, nb = fact.a.dim, fact.b.dim
    v3 = compute_V3(fact)
    raw_kappas = 0
    for mask in range(1 << (na * nb)):
        cols = []
        for b in range(nb):
            cols.append(tuple(F2.one if (mask >> (b * na + i)) & 1 else F2.zero
                              for i in range(na)))
        raw_kappas += _raw_v3_holds(fact, cols)
    assert raw_kappas == 2 ** v3.dim
    for kappa in v3.basis:
        cols = [kappa.apply(tuple(F2.one if j == b else F2.zero for j in range(nb)))
                for b in range(nb)]
        assert _raw_v3_holds(fact, cols)

    w3 = compute_W3(fact)
    size = nb * nb * na
    raw_es = 0
    for mask in range(1 << size):
        e = tuple(F2.one if (mask >> i) & 1 else F2.zero for i in range(size))
        raw_es += _raw_w3_holds(fact, e)
    assert raw_es == 2 ** w3.dim
    for e in w3.basis:
        assert _raw_w3_holds(fact, e)


def test_W3_laws_stay_small():
    """compute_W3 composes the small factors of each law first and tensors
    the identity factors last.  Composed through identity factors, as
    (id (x) m_B (x) id) . (id (x) id (x) R), the laws of flip(M3, kC2) over
    F3 traced 8.2 MB; composed small first they trace 5.8 MB."""
    fact = Factorization.flip(matrix_algebra(F3, 3), cyclic_group_algebra(F3, 2))
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert compute_W3(fact).dim == 18
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 7_000_000


# --- verdicts over A and over B --------------------------------------------


def _statuses(rep):
    return (rep["split"].status, rep["separable"].status, rep["frobenius"].status)


FROZEN_OVER_A = [
    ("flip-k-k", "QQ", ("yes", "yes", "yes")),
    ("flip-k-k", "F2", ("yes", "yes", "yes")),
    ("flip-k-k", "F3", ("yes", "yes", "yes")),
    ("flip-kc2-k", "QQ", ("yes", "yes", "yes")),
    ("flip-kc2-k", "F2", ("yes", "no", "yes")),
    ("flip-kc2-k", "F3", ("yes", "yes", "yes")),
    ("flip-m2-k", "QQ", ("yes", "yes", "yes")),
    ("flip-m2-k", "F2", ("yes", "yes", "yes")),
    ("flip-m2-k", "F3", ("yes", "yes", "yes")),
    ("flip-t2-k", "QQ", ("yes", "no", "no")),
    ("flip-t2-k", "F2", ("yes", "no", "no")),
    ("flip-t2-k", "F3", ("yes", "no", "no")),
    ("doihopf", "QQ", ("yes", "yes", "yes")),
    ("doihopf", "F2", ("no", "yes", "yes")),
    ("doihopf", "F3", ("yes", "yes", "yes")),
]


def _named_factorization(name, field):
    if name == "flip-k-k":
        return Factorization.flip(trivial_algebra(field), trivial_algebra(field))
    if name == "flip-kc2-k":
        return Factorization.flip(cyclic_group_algebra(field, 2), trivial_algebra(field))
    if name == "flip-m2-k":
        return Factorization.flip(matrix_algebra(field, 2), trivial_algebra(field))
    if name == "flip-t2-k":
        return Factorization.flip(t2_algebra(field), trivial_algebra(field))
    if name == "doihopf":
        return doi_hopf_factorization(field)
    raise AssertionError(name)


def _named_field(tag):
    return {"QQ": QQ, "F2": F2, "F3": F3}[tag]


@pytest.mark.parametrize("name,ftag,expected", FROZEN_OVER_A)
def test_smash_over_A_frozen_verdicts(name, ftag, expected):
    field = _named_field(ftag)
    fact = _named_factorization(name, field)
    assert check_factorization(fact).ok
    rep = smash_over_A_report(fact)
    assert _statuses(rep) == expected
    for v in rep.values():
        assert v.definitive
        if v.status == "no":
            assert v.reason
    if rep["frobenius"].status == "yes":
        w = rep["frobenius"].witness
        assert frobenius_smash_residual(fact, w["kappa"], w["e"]) == []
    if rep["split"].status == "yes":
        kappa = rep["split"].witness["kappa"]
        assert kappa_residual(fact, kappa) == []
        assert kappa.apply(fact.b.unit) == fact.a.unit


@pytest.mark.parametrize("field", [QQ, F2])
def test_smash_over_B_report_via_op_dual(field):
    for name in ("flip-kc2-k", "doihopf"):
        fact = _named_factorization(name, field)
        assert check_factorization(fact).ok
        rep = smash_over_B_report(fact)
        assert _statuses(rep) == ("yes", "yes", "yes")
        assert rep["frobenius"].question == "smash-B-frob"
        assert rep["split"].question == "smash-B-split"
        for v in rep.values():
            assert v.meta.get("via") == "op-dual"


@pytest.mark.parametrize("field", [F2, F3])
def test_frobenius_routes_agree(field):
    for name in ("flip-kc2-k", "flip-t2-k", "flip-m2-k", "doihopf"):
        fact = _named_factorization(name, field)
        by_search = smash_frobenius_A(fact, route="search")
        by_iso = smash_frobenius_A(fact, route="iso")
        assert by_search.status == by_iso.status
        for v in (by_search, by_iso):
            assert v.definitive
            if v.status == "yes":
                assert frobenius_smash_residual(fact, v.witness["kappa"],
                                                v.witness["e"]) == []


def test_smash_iso_route_builds_the_tensor_square_once(monkeypatch):
    """The iso route builds S (x)_R S of A -> B # A once and hands it to the
    extension's decision, which still re-checks the extension witness."""
    built, rechecked = [], []
    real_tensor, real_residual = ringext.tensor_over_R, ringext.frobenius_residual

    def tensor(ext):
        built.append(ext)
        return real_tensor(ext)

    def residual(*args):
        rechecked.append(args)
        return real_residual(*args)

    monkeypatch.setattr(ringext, "tensor_over_R", tensor)
    monkeypatch.setattr("entwine.smash.tensor_over_R", tensor)
    monkeypatch.setattr(ringext, "frobenius_residual", residual)
    fact = Factorization.flip(matrix_algebra(F3, 2), cyclic_group_algebra(F3, 2))
    assert smash_frobenius_A(fact, route="iso").status == "yes"
    assert len(built) == 1
    assert len(rechecked) == 1


@pytest.mark.parametrize("field", FIELDS)
def test_unit_embedding_is_valid_extension(field):
    for fact in [doi_hopf_factorization(field),
                 Factorization.flip(matrix_algebra(field, 2),
                                    cyclic_group_algebra(field, 2))]:
        assert check_extension(unit_embedding_A(fact)).ok


@pytest.mark.parametrize("field", [QQ, F2])
def test_cross_check_frobenius_agrees(field):
    cases = [
        Entwining.flip(trivial_algebra(field), grouplike_coalgebra(field, 2)),
        Entwining.flip(trivial_algebra(field), dual_numbers_coalgebra(field)),
        doi_hopf_kc2_entwining(field),
    ]
    for e in cases:
        cc = cross_check_frobenius(e)
        assert cc["agree"]
        assert cc["entwined"].status == "yes"
        assert cc["extension"].status == "yes"


def _corpus_and_derived_factorizations():
    out = []
    for field in FIELDS:
        tag = "Q" if field.kind == "Q" else "F%d" % field.p
        out += [pytest.param(fact, id="%s-%s" % (tag, name))
                for name, fact in corpus_factorizations(field)]
        out += [pytest.param(entwining_to_factorization(e),
                             id="%s-from-%s" % (tag, name))
                for name, e in corpus_entwinings(field)]
    return out


@pytest.mark.parametrize("fact", _corpus_and_derived_factorizations())
def test_smash_frobenius_agrees_with_the_extension(fact):
    """B # A over A is Frobenius exactly when the extension A -> B # A is;
    both deciders answer definitively and alike."""
    smash_v = smash_frobenius_A(fact)
    ext_v = frobenius_check(unit_embedding_A(fact))
    assert smash_v.definitive and ext_v.definitive
    assert smash_v.status == ext_v.status


def test_cross_check_raises_when_smash_and_extension_disagree(monkeypatch):
    e = Entwining.flip(trivial_algebra(F2), grouplike_coalgebra(F2, 2))
    assert cross_check_frobenius(e)["agree"]
    real = ringext.frobenius_check

    def flipped(ext, cfg=SearchConfig(), route="auto"):
        v = real(ext, cfg, route)
        v.status = {"yes": "no", "no": "yes"}.get(v.status, v.status)
        return v

    monkeypatch.setattr("entwine.smash.frobenius_check", flipped)
    with pytest.raises(InternalCheckError, match="smash and extension disagree"):
        cross_check_frobenius(e)
