"""Scalar fields, flattening, LinMap algebra, and the exact solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.exactlin import (
    GF,
    QQ,
    Field,
    InternalCheckError,
    LinMap,
    ParseError,
    ShapeError,
    basis_vec,
    hom_probe_matrix,
    is_consistent,
    is_prime,
    iter_multi,
    kron_vec,
    nullspace,
    prod,
    rref,
    solve_linear,
    swap_map,
    unflatten_index,
)

from _vectors import dot, flatten_index, in_span, vec_add, vec_scale

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)
F5 = Field("Fp", 5)


# -- scalars ---------------------------------------------------------------

def test_prime_gate():
    assert is_prime(2) and is_prime(3) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(4) and not is_prime(561)
    with pytest.raises(ParseError):
        Field("Fp", 4)
    with pytest.raises(ParseError):
        Field("Fp", 2**61 + 9)  # beyond the supported range, even if prime


def test_parse_and_format():
    assert QQ.parse("3/6") == Fraction(1, 2)
    assert QQ.parse("-4/2") == Fraction(-2)
    assert QQ.to_str(Fraction(-1, 2)) == "-1/2"
    assert QQ.to_str(Fraction(3)) == "3"
    assert QQ.parse(7) == Fraction(7)
    assert F5.parse("7") == GF(5)(2)
    assert F5.parse("1/2") == GF(5)(3)  # 2 * 3 = 6 = 1 mod 5
    assert F5.to_str(GF(5)(3)) == "3"
    for bad in ("1/0", "0.5", "a", "1//2", "", "1 / 2"):
        with pytest.raises(ParseError):
            QQ.parse(bad)
    with pytest.raises(ParseError):
        F2.parse("1/2")  # denominator vanishes mod 2


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_f5_matches_integer_arithmetic(a, b):
    x, y = GF(5)(a), GF(5)(b)
    assert (x + y).v == (a + b) % 5
    assert (x - y).v == (a - b) % 5
    assert (x * y).v == (a * b) % 5
    if b % 5:
        assert ((x / y) * y) == x


def test_fp_elements_enumerate_canonically():
    assert [e.v for e in F3.elements()] == [0, 1, 2]
    assert F3.order == 3 and QQ.order is None
    assert F3.char == 3 and QQ.char == 0


# -- index bookkeeping -----------------------------------------------------

@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
def test_flatten_roundtrip(shape, data):
    shape = tuple(shape)
    multi = tuple(data.draw(st.integers(0, d - 1)) for d in shape)
    flat = flatten_index(shape, multi)
    assert unflatten_index(shape, flat) == multi
    # row-major: flat index enumerates iter_multi in order
    assert list(iter_multi(shape))[flat] == multi


# -- LinMap ----------------------------------------------------------------

def test_tensor_of_identities():
    i2 = LinMap.identity(QQ, (2,))
    i3 = LinMap.identity(QQ, (3,))
    assert i2.tensor(i3).mat == LinMap.identity(QQ, (2, 3)).mat


def test_compose_and_apply_agree():
    f = LinMap.from_rows(F3, (2,), (2,), [[1, 2], [0, 1]])
    g = LinMap.from_rows(F3, (2,), (2,), [[2, 0], [1, 1]])
    fg = f.compose(g)
    for i in range(2):
        v = basis_vec(F3, 2, i)
        assert fg.apply(v) == f.apply(g.apply(v))


def test_compose_needs_matching_flat_dims():
    f = LinMap.identity(QQ, (2, 3))
    g = LinMap.identity(QQ, (6,))
    assert f.compose(g).dim_dom == 6  # (2,3) and (6,) agree flat
    h = LinMap.identity(QQ, (4,))
    with pytest.raises(Exception):
        f.compose(h)


def test_swap_map_is_an_involution_up_to_shapes():
    s = swap_map(QQ, 2, 3)
    t = swap_map(QQ, 3, 2)
    assert t.compose(s).mat == LinMap.identity(QQ, (2, 3)).mat


def _naive_regroup(m, cod, dom):
    """The regrouped map entry by entry: the joint index of the result,
    split into legs, read back at those legs in m."""
    shape = m.cod + m.dom
    k = len(m.cod)
    new_cod, new_dom = tuple(shape[i] for i in cod), tuple(shape[i] for i in dom)
    rows = []
    for out in iter_multi(new_cod):
        row = []
        for inp in iter_multi(new_dom):
            legs = [0] * len(shape)
            for leg, i in zip(cod + dom, out + inp):
                legs[leg] = i
            row.append(m.mat[flatten_index(m.cod, legs[:k])][flatten_index(m.dom, legs[k:])])
        rows.append(row)
    return LinMap.from_rows(m.field, new_dom, new_cod, rows)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5), st.data())
def test_regroup_matches_naive_reference(shape, data):
    k = data.draw(st.integers(0, len(shape)))
    legs = data.draw(st.permutations(range(len(shape))))
    j = data.draw(st.integers(0, len(shape)))
    field = data.draw(st.sampled_from([QQ, F3]))
    m = LinMap.from_rows(field, shape[k:], shape[:k],
                         [[field.of(data.draw(st.integers(-5, 5)))
                           for _ in range(prod(shape[k:]))] for _ in range(prod(shape[:k]))])
    cod, dom = tuple(legs[:j]), tuple(legs[j:])
    got = m.regroup(cod, dom)
    assert got == _naive_regroup(m, cod, dom)
    assert (got.cod, got.dom) == (tuple(shape[i] for i in cod), tuple(shape[i] for i in dom))
    # and back: leg legs[i] of m is leg i of got
    back = [legs.index(i) for i in range(len(shape))]
    assert got.regroup(back[:k], back[k:]) == m


def test_swap_map_and_transpose_are_unchanged():
    """Against the definitions they had before they became regroupings."""
    for field in (QQ, F2, F3):
        for d1, d2 in iter_multi((3, 3)):
            want = LinMap.from_images(
                field, (d1 + 1, d2 + 1), (d2 + 1, d1 + 1),
                [basis_vec(field, (d1 + 1) * (d2 + 1), j * (d1 + 1) + i)
                 for i, j in iter_multi((d1 + 1, d2 + 1))])
            assert swap_map(field, d1 + 1, d2 + 1) == want
    m = LinMap.from_rows(QQ, (2, 3), (4,), [[QQ.of(6 * r + c) for c in range(6)]
                                            for r in range(4)])
    t = m.transpose()
    assert (t.dom, t.cod, t.mat) == ((4,), (2, 3), tuple(zip(*m.mat)))


def test_regroup_needs_an_order_of_the_legs():
    m = LinMap.identity(QQ, (2, 3))
    for cod, dom in (((0, 1), (2,)), ((0, 1), (2, 2)), ((0, 1, 2), (3, 4)),
                     ((), (0, 1, 2, -1))):
        with pytest.raises(ShapeError):
            m.regroup(cod, dom)


def test_inverse():
    m = LinMap.from_rows(QQ, (2,), (2,), [[1, 1], [0, 1]])
    inv = m.inverse()
    assert inv is not None
    assert m.compose(inv).mat == LinMap.identity(QQ, (2,)).mat
    sing = LinMap.from_rows(QQ, (2,), (2,), [[1, 1], [1, 1]])
    assert sing.inverse() is None


def _mk(field, rows):
    return [[field.of(x) for x in r] for r in rows]


# -- solver: pinned examples ------------------------------------------------

def test_solve_identity_1x1():
    part, kern = solve_linear(QQ, _mk(QQ, [[1]]), [QQ.of(1)])
    assert part == (Fraction(1),)
    assert kern == []


def test_solve_zero_matrix_full_kernel():
    part, kern = solve_linear(QQ, _mk(QQ, [[0, 0], [0, 0]]), [QQ.zero, QQ.zero])
    assert part == (Fraction(0), Fraction(0))
    assert len(kern) == 2


def test_solve_infeasible():
    part, kern = solve_linear(QQ, _mk(QQ, [[2, 0], [0, 0]]), [QQ.one, QQ.one])
    assert part is None
    assert len(kern) == 1  # kernel of the matrix itself


def test_solve_over_f2():
    # x + y = 1, y = 1 over F2
    part, kern = solve_linear(F2, _mk(F2, [[1, 1], [0, 1]]), [F2.one, F2.one])
    assert part == (F2.zero, F2.one)
    assert kern == []


# -- solver: property tests --------------------------------------------------

@settings(max_examples=60)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_rank_nullity_f2(nr, nc, data):
    rows = [[GF(2)(data.draw(st.integers(0, 1))) for _ in range(nc)] for _ in range(nr)]
    _, pivots = rref(F2, [list(r) for r in rows])
    kern = nullspace(F2, rows)
    assert len(pivots) + len(kern) == nc


@settings(max_examples=60)
@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_solution_substitutes_over_q(nr, nc, data):
    rows = [[Fraction(data.draw(st.integers(-3, 3))) for _ in range(nc)] for _ in range(nr)]
    rhs = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(nr)]
    part, kern = solve_linear(QQ, rows, rhs)
    if part is not None:
        for row, b in zip(rows, rhs):
            assert dot(row, part) == b
    for v in kern:
        for row in rows:
            assert dot(row, v) == 0


# -- consistency without solving ------------------------------------------------

CONSISTENCY_FIELDS = (F2, F3, QQ)


@st.composite
def augmented_systems(draw):
    """(field, rows, rhs) with 0-4 equations in 0-4 unknowns.  Over F_p the
    entries are unreduced ints or field elements; over Q, ints or Fractions
    with mixed denominators.  Some draws zero out a row, zero the right-hand
    side, or make a row a combination of the others, with the right-hand
    side either the same combination (consistent) or not."""
    field = draw(st.sampled_from(CONSISTENCY_FIELDS))
    nr, nc = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    # zeros are drawn often: a zero below a pivot is where elimination
    # goes wrong most easily
    if field.kind == "Q":
        scalar = st.one_of(st.just(0), st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=6))
    else:
        scalar = st.one_of(st.just(0), st.integers(-7, 7),
                           st.integers(0, field.p - 1).map(field.of))
    rows = [[draw(scalar) for _ in range(nc)] for _ in range(nr)]
    rhs = [draw(scalar) for _ in range(nr)]
    how = draw(st.sampled_from(["plain", "zero row", "zero rhs", "combination"]))
    if how == "zero row" and nr:
        rows[draw(st.integers(0, nr - 1))] = [0] * nc
    elif how == "zero rhs":
        rhs = [0] * nr
    elif how == "combination" and nr > 1:
        target = draw(st.integers(0, nr - 1))
        combo, b = [0] * nc, 0
        for i in range(nr):
            if i != target:
                w = draw(scalar)
                combo = [c + w * x for c, x in zip(combo, rows[i])]
                b = b + w * rhs[i]
        rows[target] = combo
        rhs[target] = b + draw(st.sampled_from([0, 1]))
    return field, rows, rhs


@settings(max_examples=300, deadline=None)
@given(augmented_systems())
def test_is_consistent_matches_solve_linear(case):
    """The rank test says "consistent" exactly when `solve_linear` finds a
    particular solution, on raw scalars and on field elements alike; the
    input is left unmodified."""
    field, rows, rhs = case
    want = solve_linear(field, rows, rhs)[0] is not None
    before = ([list(r) for r in rows], list(rhs))
    assert is_consistent(field, rows, rhs) == want
    assert ([list(r) for r in rows], list(rhs)) == before
    boxed = [[field.of(x) if type(x) is int else x for x in r] for r in rows]
    assert is_consistent(field, boxed, [field.of(x) if type(x) is int else x
                                        for x in rhs]) == want


@pytest.mark.parametrize("field,rows,rhs,want", [
    (QQ, [], [], True),                                  # no equations
    (QQ, [[], []], [0, 0], True),                        # no unknowns
    (F3, [[], []], [0, 4], False),                       # no unknowns, 4 = 1 mod 3
    (F2, [[0, 0], [0, 0]], [0, 0], True),                # all-zero rows
    (F2, [[0, 0], [0, 0]], [0, 1], False),
    (QQ, [[1, 2], [2, 4]], [0, 0], True),                # zero right-hand side
    (QQ, [[Fraction(1, 2), Fraction(1, 3)], [3, 2]],
     [Fraction(1, 6), 1], True),                         # mixed denominators
    (QQ, [[Fraction(1, 2), Fraction(1, 3)], [3, 2]],
     [Fraction(1, 6), Fraction(1, 2)], False),
    (F3, [[4, -2], [5, 8]], [7, -1], True),              # unreduced: [[1, 1], [2, 2]], [1, 2]
    (F3, [[4, -2], [5, 8]], [7, 1], False),
    (QQ, [[2, -1], [0, -1], [1, 0]], [1, 0, 0], False),  # a zero below the first pivot
])
def test_is_consistent_edge_cases(field, rows, rhs, want):
    assert is_consistent(field, rows, rhs) == want
    assert (solve_linear(field, rows, rhs)[0] is not None) == want


def test_in_span():
    basis = [basis_vec(QQ, 3, 0), vec_add(basis_vec(QQ, 3, 1), basis_vec(QQ, 3, 2))]
    assert in_span(QQ, basis, (Fraction(2), Fraction(5), Fraction(5)))
    assert not in_span(QQ, basis, (Fraction(0), Fraction(1), Fraction(0)))


def test_kron_vec_matches_tensor_map():
    u = (Fraction(1), Fraction(2))
    v = (Fraction(0), Fraction(3), Fraction(1))
    m = LinMap.const(QQ, u, (2,)).tensor(LinMap.const(QQ, v, (3,)))
    assert m.apply((Fraction(1),)) == kron_vec(u, v)


def test_probe_matrix_with_no_constraints_keeps_unknowns():
    rows = hom_probe_matrix(QQ, 3, [lambda j: []])
    part, kern = solve_linear(QQ, rows, [QQ.zero] * len(rows))
    assert part is not None and len(kern) == 3


def test_vec_scale():
    assert vec_scale(Fraction(2), (Fraction(1), Fraction(3))) == (Fraction(2), Fraction(6))
