"""The exact elimination kernel and the map algebra against sympy's, over
Q and GF(p).

`rref`, `solve_linear`, `nullspace`, `LinMap.inverse`, `LinMap.rank` and
`is_singular` are compared with sympy's DomainMatrix on random matrices
over Q and over GF(p) for p = 2, 3, 7 and the prime 2^61 - 1 just below
the supported bound.  The reduced row echelon form is unique, so it must
agree exactly; the nullspace basis must be the one read off that form
(free unknown 1, pivots from the form), which sympy's own basis spans but
scales differently over GF(p), and so must the particular solution (free
unknowns 0).

`LinMap.compose`, `tensor`, `add`, `sub`, `transpose`, `regroup` and
`apply` are compared with DomainMatrix products, sums, Kronecker blocks
and transposes and with sympy's `permutedims`, over Q, GF(2), GF(3) and
GF(5), for maps given as field elements and as plain ints (unreduced over
GF(p); over Q the ints are a matrix of their own).  Every entry a map
gives back must be a field element, not a raw scalar.

sympy is a test-only dependency: without it these tests are skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.exactlin import (QQ, Field, LinMap, is_singular, nullspace, prod, rref,
                              solve_linear)

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import GF as SymGF  # noqa: E402
from sympy.polys.domains import QQ as SymQQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PRIMES = (2, 3, 7, 2**61 - 1)
FIELDS = (QQ,) + tuple(Field("Fp", p) for p in PRIMES)


@st.composite
def matrices(draw, square=False):
    """(field, rows) with entries mostly small and often zero, so that rank
    deficiency, repeated rows and zero columns all come up."""
    field = draw(st.sampled_from(FIELDS))
    nr = draw(st.integers(1, 6))
    nc = nr if square else draw(st.integers(1, 7))
    if field.kind == "Q":
        entry = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-4, max_value=4, max_denominator=3))
    else:
        entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(0, field.p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if field.kind == "Q":
        return field, [[Fraction(x) for x in row] for row in rows]
    return field, [[field.of(x) for x in row] for row in rows]


def to_sympy(field, rows):
    """Rows of field elements or plain ints."""
    if field.kind == "Q":
        dom = SymQQ
        cells = [[dom(Fraction(x).numerator, Fraction(x).denominator) for x in row]
                 for row in rows]
    else:
        dom = SymGF(field.p)
        cells = [[dom(x if type(x) is int else x.v) for x in row] for row in rows]
    return DomainMatrix(cells, (len(rows), len(rows[0])), dom)


def from_sympy(field, m):
    if field.kind == "Q":
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
                for row in m.to_list()]
    return [[field.of(int(x) % field.p) for x in row] for row in m.to_list()]


def sympy_rref(field, rows):
    red, pivots = to_sympy(field, rows).rref()
    return from_sympy(field, red)[:len(pivots)], list(pivots)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_sympy(case):
    field, rows = case
    assert rref(field, [list(r) for r in rows]) == sympy_rref(field, rows)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(case):
    field, rows = case
    ncols = len(rows[0])
    red, pivots = sympy_rref(field, rows)
    want = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, c in zip(red, pivots):
            vec[c] = -row[f]
        want.append(tuple(vec))
    got = nullspace(field, rows)
    assert got == want
    if got:
        product = to_sympy(field, rows) * to_sympy(field, [list(v) for v in got]).transpose()
        assert product.is_zero_matrix


def raw(field, rows):
    """The same matrix in raw scalars: unreduced ints over GF(p); over Q,
    ints where an entry is integral and Fractions elsewhere."""
    if field.kind == "Q":
        return [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
    return [[x.v + field.p * ((i + j) % 3 - 1) for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_solve_linear_matches_sympy(case):
    """M x = b for b the last column of a drawn matrix: feasibility, the
    particular solution (every free unknown 0) and the kernel basis are
    read off sympy's reduced echelon form of [M | b], with the entries
    given as field elements and as raw scalars."""
    field, aug = case
    ncols = len(aug[0]) - 1
    red, pivots = sympy_rref(field, aug)
    part = None
    if ncols not in pivots:
        part = [field.zero] * ncols
        for row, c in zip(red, pivots):
            part[c] = row[ncols]
        part = tuple(part)
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, c in zip(red, pivots):
            if c < ncols:
                vec[c] = -row[f]
        kernel.append(tuple(vec))
    for rows in (aug, raw(field, aug)):
        assert solve_linear(field, [r[:-1] for r in rows], [r[-1] for r in rows]) \
            == (part, kernel)


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_sympy(case):
    field, rows = case
    n = len(rows)
    m = to_sympy(field, rows)
    inv = LinMap.from_rows(field, (n,), (n,), rows).inverse()
    if m.rank() < n:
        assert inv is None
    else:
        assert inv is not None
        assert [list(r) for r in inv.mat] == from_sympy(field, m.inv())


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_matches_sympy(case):
    field, rows = case
    lm = LinMap.from_rows(field, (len(rows[0]),), (len(rows),), rows)
    assert lm.rank() == to_sympy(field, rows).rank()


@st.composite
def square_cases(draw):
    """(field, rows) square, where a drawn share of the matrices is made
    singular by construction: a zero row, or one row replaced by a
    combination of the others (with fractional weights over Q)."""
    field, rows = draw(matrices(square=True))
    n = len(rows)
    how = draw(st.sampled_from(("as drawn", "zero row", "combination")))
    target = draw(st.integers(0, n - 1))
    if how == "zero row":
        rows[target] = [field.zero] * n
    elif how == "combination" and n > 1:
        if field.kind == "Q":
            weight = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        else:
            weight = st.integers(0, field.p - 1).map(field.of)
        combo = [field.zero] * n
        for i in range(n):
            if i != target:
                w = draw(weight)
                combo = [c + w * x for c, x in zip(combo, rows[i])]
        rows[target] = combo
    return field, rows


@settings(max_examples=200, deadline=None)
@given(square_cases())
def test_is_singular_matches_sympy_det(case):
    """Field elements and raw scalars (unreduced ints over GF(p), Fractions
    and integer-scaled rows over Q) give the verdict of sympy's determinant
    and of LinMap.inverse; the input is left unmodified."""
    field, rows = case
    n = len(rows)
    want = to_sympy(field, rows).det() == 0
    assert (LinMap.from_rows(field, (n,), (n,), rows).inverse() is None) == want
    before = [list(r) for r in rows]
    assert is_singular(field, rows) == want
    assert rows == before
    if field.kind == "Q":
        raw = [[x.numerator * (7 ** 3) // x.denominator for x in row]
               if all(x.denominator == 1 for x in row) else list(row) for row in rows]
    else:
        raw = [[x.v + field.p * ((i + j) % 3 - 1) for j, x in enumerate(row)]
               for i, row in enumerate(rows)]
    assert is_singular(field, raw) == want


# -- the map algebra -----------------------------------------------------------

MAP_FIELDS = (QQ,) + tuple(Field("Fp", p) for p in (2, 3, 5))
LEGS = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)


@st.composite
def linmaps(draw, field, dom, cod):
    """The rows of a map dom -> cod twice, as field elements and as plain
    ints, with the two LinMaps built from them: over GF(p) the ints are
    the same matrix unreduced, over Q they are the numerators alone."""
    nr, nc = prod(cod), prod(dom)
    nums = draw(st.lists(st.lists(st.one_of(st.just(0), st.integers(-4, 6)),
                                  min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if field.kind == "Q":
        dens = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=nr * nc, max_size=nr * nc))
        elems = [[Fraction(x, dens[r * nc + c]) for c, x in enumerate(row)]
                 for r, row in enumerate(nums)]
    else:
        elems = [[field.of(x) for x in row] for row in nums]
    return [(rows, LinMap(field, dom, cod, rows)) for rows in (elems, nums)]


def assert_boxed(field, lm, want):
    """lm's entries, read as field elements, are sympy's matrix `want`."""
    got = [list(r) for r in lm.mat]
    assert got == from_sympy(field, want)
    assert all(type(x) is type(field.zero) for row in got for x in row)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_and_apply_match_sympy(data):
    field = data.draw(st.sampled_from(MAP_FIELDS))
    a_dom, a_cod, b_dom = data.draw(LEGS), data.draw(LEGS), data.draw(LEGS)
    vec = data.draw(st.lists(st.integers(-4, 6), min_size=prod(b_dom), max_size=prod(b_dom)))
    for (ra, a), (rb, b) in zip(data.draw(linmaps(field, a_dom, a_cod)),
                                data.draw(linmaps(field, b_dom, a_dom))):
        want = to_sympy(field, ra) * to_sympy(field, rb)
        assert_boxed(field, a.compose(b), want)
        for v in (vec, [field.of(x) for x in vec]):
            col = from_sympy(field, want * to_sympy(field, [[x] for x in v]))
            got = a.compose(b).apply(v)
            assert list(got) == [row[0] for row in col]
            assert all(type(x) is type(field.zero) for x in got)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tensor_matches_sympy_kronecker(data):
    field = data.draw(st.sampled_from(MAP_FIELDS))
    shapes = [data.draw(LEGS) for _ in range(4)]
    for (ra, a), (rb, b) in zip(data.draw(linmaps(field, shapes[0], shapes[1])),
                                data.draw(linmaps(field, shapes[2], shapes[3]))):
        sa, sb = to_sympy(field, ra), to_sympy(field, rb)
        # one block row per row of a: the blocks a[r][c] * b side by side
        blocks = [(row[0] * sb).hstack(*[x * sb for x in row[1:]]) for row in sa.to_list()]
        t = a.tensor(b)
        assert (t.dom, t.cod) == (shapes[0] + shapes[2], shapes[1] + shapes[3])
        assert_boxed(field, t, blocks[0].vstack(*blocks[1:]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_add_sub_and_transpose_match_sympy(data):
    field = data.draw(st.sampled_from(MAP_FIELDS))
    dom, cod = data.draw(LEGS), data.draw(LEGS)
    for (ra, a), (rb, b) in zip(data.draw(linmaps(field, dom, cod)),
                                data.draw(linmaps(field, dom, cod))):
        sa, sb = to_sympy(field, ra), to_sympy(field, rb)
        assert_boxed(field, a.add(b), sa + sb)
        assert_boxed(field, a.sub(b), sa - sb)
        assert_boxed(field, a.transpose(), sa.transpose())
        assert a.sub(a).is_zero() and a.add(b) == b.add(a)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_regroup_matches_sympy_permutedims(data):
    """Entry (cod choice, dom choice) of the regrouped map is the entry of
    sympy's Array of the map's entries with its legs permuted."""
    field = data.draw(st.sampled_from(MAP_FIELDS))
    dom, cod = data.draw(LEGS), data.draw(LEGS)
    legs = cod + dom
    order = data.draw(st.permutations(range(len(legs))))
    k = data.draw(st.integers(1, len(legs) - 1))
    for rows, lm in data.draw(linmaps(field, dom, cod)):
        cells = [sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                 if field.kind == "Q" else (x if type(x) is int else x.v) % field.p
                 for row in rows for x in row]
        moved = sympy.permutedims(sympy.Array(cells, legs), order)
        flat = list(sympy.flatten(moved.tolist()))
        ncol = prod(legs[i] for i in order[k:])
        want = [[Fraction(int(v.p), int(v.q)) if field.kind == "Q" else field.of(int(v))
                 for v in flat[r:r + ncol]] for r in range(0, len(flat), ncol)]
        got = lm.regroup(order[:k], order[k:])
        assert (got.cod, got.dom) == (tuple(legs[i] for i in order[:k]),
                                      tuple(legs[i] for i in order[k:]))
        assert [list(r) for r in got.mat] == want
