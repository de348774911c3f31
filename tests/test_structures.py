"""Validators, duals, opposites, and (co)module checks on shelf structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.cli import mutate_payload
from entwine.exactlin import QQ, Field, LinMap, ParseError, basis_vec, iter_multi
from entwine.structures import (
    Violation,
    ActionData,
    AlgebraData,
    BialgebraData,
    CoactionData,
    CoalgebraData,
    check_action,
    check_algebra,
    check_algebra_map,
    check_bialgebra,
    check_coalgebra,
    check_comodule_algebra,
    check_module_coalgebra,
    coordinate_dual_basis,
    dual_algebra,
)
from entwine.corpus import (
    cyclic_group_algebra,
    cyclic_group_bialgebra,
    dual_numbers_coalgebra,
    grouplike_coalgebra,
    matrix_algebra,
    sweedler_bialgebra,
    trivial_algebra,
)

from _vectors import product

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)
FIELDS = [QQ, F2, F3]


@pytest.mark.parametrize("field", FIELDS)
def test_shelf_algebras_validate(field):
    for alg in (trivial_algebra(field), cyclic_group_algebra(field, 2),
                cyclic_group_algebra(field, 3), matrix_algebra(field, 2)):
        rep = check_algebra(alg)
        assert rep.ok, rep.describe()


@pytest.mark.parametrize("field", FIELDS)
def test_shelf_coalgebras_validate(field):
    for co in (grouplike_coalgebra(field, 1), grouplike_coalgebra(field, 2),
               grouplike_coalgebra(field, 3), dual_numbers_coalgebra(field)):
        rep = check_coalgebra(co)
        assert rep.ok, rep.describe()


@pytest.mark.parametrize("field", FIELDS)
def test_shelf_bialgebras_validate(field):
    # Sweedler's constants are all 0 or +-1: valid in every characteristic
    for bi in (cyclic_group_bialgebra(field, 2), cyclic_group_bialgebra(field, 3),
               sweedler_bialgebra(field)):
        rep = check_bialgebra(bi)
        assert rep.ok, rep.describe()


def test_dim_zero_rejected():
    with pytest.raises(ParseError):
        AlgebraData.make(QQ, [], [])
    with pytest.raises(ParseError):
        CoalgebraData.make(QQ, [], [])


def test_mutated_mult_is_rejected_with_witness():
    alg = cyclic_group_algebra(QQ, 2)
    mult = [[list(r) for r in p] for p in alg.mult]
    mult[0][1][1] = mult[0][1][1] + 1  # 1*g = 2g breaks the left unit law
    bad = AlgebraData.make(QQ, mult, list(alg.unit))
    rep = check_algebra(bad)
    assert not rep.ok
    assert all(v.index for v in rep.violations)


def test_mutated_comult_is_rejected_with_witness():
    co = grouplike_coalgebra(F2, 2)
    comult = [[list(r) for r in p] for p in co.comult]
    comult[0][0][0] = F2.zero  # Delta(g_0) = 0 breaks the counit law
    bad = CoalgebraData.make(F2, comult, list(co.counit))
    rep = check_coalgebra(bad)
    assert not rep.ok


def test_matrix_algebra_products():
    m2 = matrix_algebra(QQ, 2)
    e = lambda i, j: basis_vec(QQ, 4, 2 * i + j)
    assert product(m2, e(0, 1), e(1, 0)) == e(0, 0)
    assert product(m2, e(0, 1), e(0, 1)) == (QQ.zero,) * 4
    assert m2.unit == tuple(QQ.of(x) for x in (1, 0, 0, 1))


def test_opposite_involution_and_validity():
    m2 = matrix_algebra(QQ, 2)
    op = m2.opposite()
    assert check_algebra(op).ok
    assert op.opposite() == m2
    dn = dual_numbers_coalgebra(F3)
    cop = dn.opposite()
    assert check_coalgebra(cop).ok
    assert cop.opposite() == dn


def test_tensor_algebra_of_cyclic_groups():
    a = cyclic_group_algebra(QQ, 2)
    t = a.tensor(a)
    assert check_algebra(t).ok
    # (g (x) g)^2 = 1 (x) 1
    g_g = basis_vec(QQ, 4, 3)
    assert product(t, g_g, g_g) == t.unit


# -- duals -------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_grouplike_dual_is_split_product(field):
    """GL_2* is k x k: coordinate functionals are orthogonal idempotents."""
    d = dual_algebra(grouplike_coalgebra(field, 2))
    assert check_algebra(d).ok
    e0, e1 = basis_vec(field, 2, 0), basis_vec(field, 2, 1)
    assert product(d, e0, e0) == e0
    assert product(d, e1, e1) == e1
    assert product(d, e0, e1) == (field.zero,) * 2
    assert d.unit == (field.one, field.one)  # the counit functional


@pytest.mark.parametrize("field", FIELDS)
def test_dual_numbers_dual_is_nilpotent_extension(field):
    """DN* is k[t]/(t^2): unit g*, and t = x* squares to zero."""
    d = dual_algebra(dual_numbers_coalgebra(field))
    assert check_algebra(d).ok
    gstar, xstar = basis_vec(field, 2, 0), basis_vec(field, 2, 1)
    assert d.unit == gstar
    assert product(d, xstar, xstar) == (field.zero,) * 2
    assert product(d, gstar, xstar) == xstar
    assert product(d, xstar, gstar) == xstar


def test_dual_opposite_flag():
    dn = dual_numbers_coalgebra(QQ)
    plain = dual_algebra(dn)
    opped = dual_algebra(dn, opposite=True)
    assert opped == plain.opposite()
    assert check_algebra(opped).ok


def test_dual_pairing_identity():
    """Delta against the coordinate dual basis equals the convolution table.

    Sum_i Delta(d_i) (x) d_i* and Sum_{ij} d_i (x) d_j (x) d_i* d_j* have the
    same coordinates; both reduce to the comultiplication constants.
    """
    for co in (dual_numbers_coalgebra(QQ), grouplike_coalgebra(QQ, 3)):
        db = coordinate_dual_basis(co.field, co.dim)
        assert db.size == co.dim
        conv = dual_algebra(co)
        n = co.dim
        for u, v, s in iter_multi((n, n, n)):
            assert conv.mult[u][v][s] == co.comult[s][u][v]


# -- actions / coactions ------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_regular_coaction_is_comodule_algebra(field):
    h = cyclic_group_bialgebra(field, 2)
    rho = CoactionData("right", h.coalgebra.comult_map())
    rep = check_comodule_algebra(h, h.algebra, rho)
    assert rep.ok, rep.describe()


@pytest.mark.parametrize("field", FIELDS)
def test_regular_action_is_module_coalgebra(field):
    h = cyclic_group_bialgebra(field, 2)
    act = ActionData("right", h.algebra.mult_map())
    rep = check_module_coalgebra(h, h.coalgebra, act)
    assert rep.ok, rep.describe()


def test_broken_coaction_is_rejected():
    h = cyclic_group_bialgebra(F2, 2)
    # swap the two coaction outputs: no longer coassociative/counital
    rows = [list(r) for r in h.coalgebra.comult_map().mat]
    rows[0], rows[3] = rows[3], rows[0]
    rho = CoactionData("right", LinMap.from_rows(F2, (2,), (2, 2), rows))
    assert not check_comodule_algebra(h, h.algebra, rho).ok


def test_left_action_checker():
    a = cyclic_group_algebra(QQ, 3)
    act = ActionData("left", a.mult_map())
    assert check_action(a, act).ok


def test_algebra_map_checker():
    a = trivial_algebra(QQ)
    s = cyclic_group_algebra(QQ, 2)
    emb = LinMap.from_images(QQ, (1,), (2,), [s.unit])
    assert check_algebra_map(a, s, emb).ok
    skew = LinMap.from_images(QQ, (1,), (2,), [basis_vec(QQ, 2, 1)])
    assert not check_algebra_map(a, s, skew).ok


def _reference_algebra_violations(a):
    """check_algebra's violations by evaluating products of basis vectors on
    the structure constants one triple at a time: the first failing
    (i, j, k) in row-major order at its first coordinate, then the unit on
    each basis vector, left before right."""
    n, f = a.dim, a.field

    def times(u, v):
        out = [f.zero] * n
        for i, j in iter_multi((n, n)):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] = out[k] + u[i] * v[j] * a.mult[i][j][k]
        return out

    e = [list(basis_vec(f, n, i)) for i in range(n)]
    found = []
    for i, j, k in iter_multi((n, n, n)):
        lhs, rhs = times(times(e[i], e[j]), e[k]), times(e[i], times(e[j], e[k]))
        if lhs != rhs:
            w = next(t for t in range(n) if lhs[t] != rhs[t])
            found.append(Violation("associativity", (i, j, k),
                                   "coordinate %d: %s != %s" % (w, lhs[w], rhs[w])))
            break
    for i in range(n):
        if times(list(a.unit), e[i]) != e[i]:
            found.append(Violation("unit-left", (i,)))
        if times(e[i], list(a.unit)) != e[i]:
            found.append(Violation("unit-right", (i,)))
    return found


@st.composite
def algebra_constants(draw):
    """Random structure constants and unit, mostly neither associative nor
    unital, over Q, F2 or F3."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    scalar = st.sampled_from([0, 0, 1, 2, -1]).map(field.of)
    flat = draw(st.lists(scalar, min_size=n ** 3, max_size=n ** 3))
    mult = [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    return AlgebraData.make(field, mult, draw(st.lists(scalar, min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(algebra_constants())
def test_check_algebra_reports_what_the_per_triple_check_does(a):
    assert check_algebra(a).violations == _reference_algebra_violations(a)


@pytest.mark.parametrize("field", FIELDS)
def test_check_algebra_matches_the_per_triple_check_on_shelf_algebras(field):
    for alg in (matrix_algebra(field, 2), matrix_algebra(field, 3),
                cyclic_group_algebra(field, 3), mutate_payload(matrix_algebra(field, 2))):
        assert check_algebra(alg).violations == _reference_algebra_violations(alg)
