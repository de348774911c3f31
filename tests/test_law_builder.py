"""The contraction builder `LinearLaws` against the probing reference.

Every solution space the package assembles with `LinearLaws` must come out
equal (==, basis element by basis element) to the one built by probing each
matrix unit in `_probe_reference`, over every corpus entwining,
factorization and extension over Q, F2 and F3, a few random Doi-Hopf
entwinings, and the extensions A -> B # A of the corpus factorizations,
also in rescaled bases.
"""

import random

import pytest

import _probe_reference as ref
from _rescaled import rescaled_entwining, rescaled_extension, rescaled_factorization
from _vectors import in_span
from entwine import actforget, coforget, homspaces, ringext, smash
from entwine.actforget import FROBENIUS_PRIME_CS
from entwine.coforget import FROBENIUS_CS
from entwine.corpus import (
    corpus_entwinings,
    corpus_extensions,
    corpus_factorizations,
    random_doi_hopf,
)
from entwine.entwining import (
    EntwinedObject,
    Entwining,
    from_doi_hopf,
    std_object_AC,
    std_object_AstarC,
    std_object_CA,
    std_object_CstarA,
)
from entwine.exactlin import (
    QQ,
    Field,
    InternalCheckError,
    LinearLaws,
    LinMap,
    ShapeError,
    Term,
    basis_vec,
    nullspace,
    solve_linear,
    vec_is_zero,
)
from entwine.homspaces import ENTWINED_MORPHISMS, ConstraintSet

FIELDS = (("Q", QQ), ("F2", Field("Fp", 2)), ("F3", Field("Fp", 3)))
# (dims, field, seed) of random Doi-Hopf data that sample quickly
RANDOM_DOI_HOPF = (((2, 2, 2), "F2", 0), ((2, 2, 2), "F2", 1), ((2, 2, 2), "F2", 2),
                   ((2, 2, 2), "F3", 1), ((1, 2, 2), "F3", 2))


def _corpus(entries_of):
    return [pytest.param(payload, id="%s-%s" % (tag, name))
            for tag, field in FIELDS for name, payload in entries_of(field)]


def _random_entwinings():
    fields = dict(FIELDS)
    return [pytest.param(from_doi_hopf(random_doi_hopf(dims, fields[tag], seed)),
                         id="doihopf%s-%s-seed%d" % ("".join(map(str, dims)), tag, seed))
            for dims, tag, seed in RANDOM_DOI_HOPF]


ENTWININGS = _corpus(corpus_entwinings) + _random_entwinings()
ALL_SIDES = ConstraintSet(right_A_linear=True, left_A_linear=True,
                          right_C_colinear=True, left_C_colinear=True)


@pytest.mark.parametrize("e", ENTWININGS)
def test_entwining_spaces_match_probing(e):
    ac, ca = std_object_AC(e), std_object_CA(e)
    csa, asc = std_object_CstarA(e), std_object_AstarC(e)
    for x, y, cs in ((ac, csa, FROBENIUS_CS), (csa, ac, FROBENIUS_CS),
                     (ca, asc, FROBENIUS_PRIME_CS), (asc, ca, FROBENIUS_PRIME_CS),
                     (ac, ca, ENTWINED_MORPHISMS), (ca, ac, ENTWINED_MORPHISMS)):
        assert homspaces.hom_basis(e, x, y, cs) == ref.hom_basis(e, x, y, cs)
    assert coforget.compute_V1(e).basis == ref.compute_V1(e)
    assert coforget.compute_W1(e).basis == ref.compute_W1(e)
    assert actforget.compute_V1prime(e).basis == ref.compute_V1prime(e)
    assert actforget.compute_W1prime(e).basis == ref.compute_W1prime(e)


@pytest.mark.parametrize("fact", _corpus(corpus_factorizations) + [
    pytest.param(rescaled_factorization(fact), id="%s-%s-rescaled" % (tag, name))
    for tag, field in FIELDS if field.char != 2
    for name, fact in corpus_factorizations(field)])
def test_factorization_spaces_match_probing(fact):
    assert smash.compute_V3(fact).basis == ref.compute_V3(fact)
    assert smash.compute_W3(fact).basis == ref.compute_W3(fact)


# The corpus extensions have R = k or R = S; the extensions A -> B # A have
# a base in between, and the rescaled bases bring in constants other than
# 0 and 1.
def _extensions():
    out = _corpus(corpus_extensions)
    for tag, field in FIELDS:
        for name, fact in corpus_factorizations(field):
            out.append(pytest.param(smash.unit_embedding_A(fact), id="%s-%s-unit" % (tag, name)))
        if field.char == 2:
            continue
        for name, ext in corpus_extensions(field):
            out.append(pytest.param(rescaled_extension(ext), id="%s-%s-rescaled" % (tag, name)))
        for name, fact in corpus_factorizations(field):
            out.append(pytest.param(smash.unit_embedding_A(rescaled_factorization(fact)),
                                    id="%s-%s-unit-rescaled" % (tag, name)))
    return out


EXTENSIONS = _extensions()


@pytest.mark.parametrize("ext", EXTENSIONS)
def test_extension_spaces_match_probing(ext):
    t = ringext.tensor_over_R(ext)
    assert (t.pi, t.sigma, t.relations) == ref.tensor_over_R(ext)
    assert ringext.compute_expectations(ext).basis == ref.compute_expectations(ext)
    assert ringext.compute_casimir(t).basis == ref.compute_casimir(t)
    dspace = ringext.right_dual_space(ext)
    assert dspace == ref.right_dual_space(ext)
    assert ringext.fg_projective_coords(ext, dspace) == ref.fg_projective_coords(ext, dspace)
    assert (ringext.dual_morphism_space(ext, dspace)
            == ref.dual_morphism_space(ext, dspace))


def test_hom_basis_with_every_side_matches_probing():
    """All four laws at once; the laws are linear in the map whether or not
    the structure maps form a valid object, so mixed objects do here."""
    for _, field in FIELDS:
        for _, e in corpus_entwinings(field):
            ac, ca = std_object_AC(e), std_object_CA(e)
            x = EntwinedObject("AC+", ac.dim, ac.act, ac.coact, ac.lact, ca.lcoact)
            y = EntwinedObject("CA+", ca.dim, ca.act, ca.coact, ac.lact, ca.lcoact)
            assert homspaces.hom_basis(e, x, y, ALL_SIDES) == ref.hom_basis(e, x, y, ALL_SIDES)


# -- the re-checks agree with the spaces ------------------------------------

def _samples(field, n, rng):
    """Unit vectors and a few random vectors of length n."""
    return ([basis_vec(field, n, i) for i in range(n)]
            + [tuple(field.random(rng) for _ in range(n)) for _ in range(4)])


@pytest.mark.parametrize("e", ENTWININGS[::3])
def test_morphism_ok_is_membership_in_the_hom_space(e):
    """Candidates: unit and random maps, and the maps that satisfy every law
    but one, so that dropping any law from morphism_ok shows.  Membership
    is read off the contraction-built space, which shares no code with the
    law evaluation morphism_ok runs."""
    f, rng = e.field, random.Random(0)
    ac, csa = std_object_AC(e), std_object_CstarA(e)
    laws = ("right_A_linear", "left_A_linear", "right_C_colinear")
    for x, y in ((ac, csa), (csa, ac)):
        flat = [[v for row in b.mat for v in row]
                for b in homspaces.hom_basis(e, x, y, FROBENIUS_CS)]
        candidates = _samples(f, x.dim * y.dim, rng)
        for drop in laws:
            weaker = ConstraintSet(**{name: name != drop for name in laws})
            candidates += [[v for row in b.mat for v in row]
                           for b in homspaces.hom_basis(e, x, y, weaker)]
        for vec in candidates:
            fm = LinMap(f, (x.dim,), (y.dim,),
                        tuple(tuple(vec[r * x.dim:(r + 1) * x.dim]) for r in range(y.dim)))
            member = in_span(f, flat, vec) if flat else vec_is_zero(vec)
            assert homspaces.morphism_ok(e, x, y, fm, FROBENIUS_CS) == member


@pytest.mark.parametrize("ext", _corpus(corpus_extensions))
def test_casimir_residual_is_the_casimir_laws(ext):
    t = ringext.tensor_over_R(ext)
    ops = ringext._casimir_ops(t)
    for vec in _samples(ext.field, t.dim, random.Random(0)):
        central = all(vec_is_zero(op.apply(vec)) for op in ops)
        assert (ringext.casimir_residual(t, vec) == []) == central


def _w3_verdict(ops, vec):
    """The labels of the W3 operators that do not kill vec, each once."""
    bad = []
    for name, op in ops:
        if name not in bad and not vec_is_zero(op.apply(vec)):
            bad.append(name)
    return bad


# Every corpus twist map R has entries 0 and 1 only.  The W3 laws are
# linear in e for any map R, so a doubled R, no longer a factorization,
# checks that each R-coefficient enters the residual.
FACTORIZATIONS = _corpus(corpus_factorizations) + [
    pytest.param(smash.entwining_to_factorization(e.values[0]),
                 id="from-%s" % e.id)
    for e in ENTWININGS] + [
    pytest.param(smash.Factorization(fact.b, fact.a, fact.rmap.scale(field.of(2))),
                 id="%s-%s-doubled-R" % (tag, name))
    for tag, field in FIELDS if field.char != 2
    for name, fact in corpus_factorizations(field)]


@pytest.mark.parametrize("fact", FACTORIZATIONS)
def test_w3_residual_is_the_w3_operators(fact):
    """w3_residual evaluates on the element from structure constants; it must
    give the verdicts of the operators compute_W3 solves on the W3 basis,
    on the vectors that satisfy only the B-laws or only the A-laws, and on
    seeded random vectors."""
    f, rng = fact.field, random.Random(0)
    n = fact.b.dim * fact.b.dim * fact.a.dim
    ops = ref.w3_ops(fact)
    vectors = list(smash.compute_W3(fact).basis) + _samples(f, n, rng)
    for kind in ("casimir-B", "casimir-A"):
        laws = LinearLaws(f, 1, n)
        for name, op in ops:
            if name == kind:
                laws.add(Term(left=op))
        vectors += laws.kernel()
    for vec in vectors:
        assert smash.w3_residual(fact, vec) == _w3_verdict(ops, vec)


# The W1 laws are linear in z for any map psi: the rescaled entwinings and a
# doubled psi, no longer an entwining, check that each coefficient of A and
# of psi enters the residual.
Z_ENTWININGS = ENTWININGS + [
    pytest.param(e, id="%s-%s-%s" % (tag, name, kind))
    for tag, field in FIELDS if field.char != 2
    for name, corpus_e in corpus_entwinings(field)
    for kind, e in (("rescaled", rescaled_entwining(corpus_e)),
                    ("doubled-psi", Entwining(corpus_e.a, corpus_e.c,
                                              corpus_e.psi.scale(field.of(2)))))]


@pytest.mark.parametrize("e", Z_ENTWININGS)
def test_z_residual_is_the_w1_operators(e):
    """z_residual evaluates on the element from structure constants; it must
    give the verdicts of the per-element W1 operators z |-> b z - z b of the
    probing reference on the W1 basis, on the vectors that satisfy every law
    but one, and on seeded random vectors."""
    f, rng = e.field, random.Random(0)
    n = e.a.dim * e.c.dim
    ops = ref.w1_ops(e)
    vectors = list(coforget.compute_W1(e).basis) + _samples(f, n, rng)
    for drop in range(len(ops)):
        laws = LinearLaws(f, 1, n)
        for beta, op in enumerate(ops):
            if beta != drop:
                laws.add(Term(left=op))
        vectors += laws.kernel()
    for vec in vectors:
        assert coforget.z_residual(e, vec) == [
            "z-central@a%d" % beta for beta, op in enumerate(ops)
            if not vec_is_zero(op.apply(vec))]


# -- the builder on its own -------------------------------------------------

def test_no_laws_keep_every_unknown():
    for _, field in FIELDS:
        laws = LinearLaws(field, 2, 3)
        assert laws.maps((2,), (3,)) == [
            LinMap(field, (2,), (3,), tuple(tuple(field.one if (r, c) == divmod(t, 2)
                                                  else field.zero for c in range(2))
                                            for r in range(3)))
            for t in range(6)]


def test_term_shapes_are_checked():
    laws = LinearLaws(QQ, 2, 3)
    with pytest.raises(ShapeError):
        laws.add(Term(left=LinMap.identity(QQ, (2,))))
    with pytest.raises(ShapeError):
        laws.add(Term(), Term(after=2))


def test_commutant_of_a_matrix():
    """X with A X = X A for A = diag(1, 2) over Q: exactly the diagonal maps."""
    a = LinMap.from_rows(QQ, (2,), (2,), [[QQ.of(1), QQ.zero], [QQ.zero, QQ.of(2)]])
    laws = LinearLaws(QQ, 2, 2)
    laws.add(Term(left=a), Term(-1, right=a))
    assert [m.mat for m in laws.maps((2,), (2,))] == [
        ((1, 0), (0, 0)), ((0, 0), (0, 1))]


# M = [[1, 1], [0, 1]] over Q: M x = (1, 1) has the one solution x = (0, 1)
_M = [[QQ.of(1), QQ.of(1)], [QQ.zero, QQ.of(1)]]


def _laws_kernel():
    laws = LinearLaws(QQ, 1, 2)
    laws.add(Term(left=LinMap.from_rows(QQ, (2,), (2,), _M)))
    return laws.kernel()


@pytest.mark.parametrize("solve,bad", [
    pytest.param(_laws_kernel, "kernel vector", id="laws-kernel"),
    pytest.param(lambda: solve_linear(QQ, _M, [QQ.one, QQ.one]), "kernel vector",
                 id="solve_linear-kernel"),
    pytest.param(lambda: nullspace(QQ, _M), "kernel vector", id="nullspace-kernel"),
    pytest.param(lambda: solve_linear(QQ, _M, [QQ.one, QQ.one]), "particular solution",
                 id="solve_linear-particular"),
])
def test_kernel_is_checked_by_substitution(monkeypatch, solve, bad):
    """Every exact solve goes through one substitution check: a kernel
    vector or a particular solution that does not solve the system is an
    internal error, whichever entry point asked."""
    from entwine import exactlin

    if bad == "kernel vector":
        monkeypatch.setattr(exactlin, "_kernel", lambda p, basis, n: [{0: QQ.one}])
    else:
        # every right-hand side entry (column 2) of the echelon form off by one
        real = exactlin._echelon
        monkeypatch.setattr(exactlin, "_echelon", lambda p, rows: {
            c: {k: v + 1 if k == 2 else v for k, v in row.items()}
            for c, row in real(p, rows).items()})
    with pytest.raises(InternalCheckError, match=bad):
        solve()
