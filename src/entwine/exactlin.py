"""Exact scalars and sparse linear algebra over Q and F_p.

Everything else in this package reduces to the two primitives defined here:
`Field`, a handle whose elements support +, -, *, / exactly, and `LinMap`,
a linear map tagged with the tensor-factor shapes of its domain and
codomain.  Tensor legs are flattened row-major: the flat index of
(i_1, ..., i_k) with shape (d_1, ..., d_k) is ((i_1*d_2 + i_2)*d_3 + ...).

The leg layout lives here only.  A map built from structure maps by
`compose`, `tensor` and `swap_map` is turned into the map another formula
needs by `LinMap.regroup(cod, dom)`, which renumbers its legs (codomain
first, then domain) into a new codomain and domain and moves entries
without arithmetic; a leg that crosses sides is read in the coordinate dual
basis.  A swap next to another factor is a regroup of that factor, with
no dense swap to compose through.  `swap_map`, `LinMap.transpose` and
`LinMap.from_images` are regroupings too.

So does the scalar layout.  A `LinMap` holds its entries once, as sparse
rows of raw scalars (ints in [0, p) over F_p, Fractions over Q), and every
operation on maps, `LinearLaws` and the elimination kernel work on that
form with no FpElement in their loops; an identity factor costs one entry
per row.  Field elements are read in by the constructors and made again
only where a caller reads them: `LinMap.mat`, `column`, `entry` and
`apply`, the solvers' results, and `integer_vectors`, which gives integer
vectors instead.  Elimination reduces sparse rows one at a time into the
reduced row echelon form, which is unique for the row space, so `rref`,
`solve_linear`, `nullspace`, `LinMap.inverse` and `LinMap.rank` return the
same bases whatever order the rows come in.

Solution spaces of linear laws in an unknown map X are assembled by
`LinearLaws`: every law is a sum of terms L . (id (x) X (x) id) . R with
fixed maps L and R, and its constraint rows are contracted directly from
the nonzero entries of L and R (vec(PXQ) = (P (x) Q^T) vec(X) for the
row-major vec), without evaluating any law on a trial value of X.

Two questions are decided from the pivot columns alone, without solving:
`is_singular` (a square matrix has a pivotless column) and
`is_consistent` (the right-hand side column of [M | b] has no pivot).
Both run one integer elimination, `_pivotless`: column elimination mod p
over F_p, and over Q fraction-free elimination on integers (Bareiss 1968:
each step divides exactly by the previous pivot, so entries stay minors
of the matrix and no Fraction is built).  It works a column at a time, so
`is_singular` stops at the first column without a pivot.

Every solution is read off the echelon form by one routine, `_solve`,
which `solve_linear` (so also `nullspace`) and `LinearLaws` call: the
kernel basis and the particular solution.  It substitutes each of them
into every row before returning, and a failed substitution is an internal
error, never a verdict.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

MAX_PRIME = 2**61


class ParseError(ValueError):
    """A scalar or structure literal that cannot be read exactly."""


class ShapeError(ValueError):
    """Operands whose shapes make the requested operation undefined."""


class InternalCheckError(AssertionError):
    """An exact self-check failed; indicates a bug, not a mathematical verdict."""


# ---------------------------------------------------------------------------
# scalars

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """An element of F_p in canonical form.

    Invariant: `v` is reduced to [0, p).  Subclasses are generated per prime
    by `GF`; elements of different primes never mix.
    """

    __slots__ = ("v",)
    p = 0

    def __init__(self, v: int):
        self.v = v % self.p

    def _other(self, o):
        if isinstance(o, FpElement):
            if o.p != self.p:
                raise ShapeError("mixed prime fields %d and %d" % (self.p, o.p))
            return o.v
        if isinstance(o, int):
            return o
        return None

    def __add__(self, o):
        w = self._other(o)
        return NotImplemented if w is None else self.__class__(self.v + w)

    __radd__ = __add__

    def __sub__(self, o):
        w = self._other(o)
        return NotImplemented if w is None else self.__class__(self.v - w)

    def __rsub__(self, o):
        w = self._other(o)
        return NotImplemented if w is None else self.__class__(w - self.v)

    def __mul__(self, o):
        w = self._other(o)
        return NotImplemented if w is None else self.__class__(self.v * w)

    __rmul__ = __mul__

    def __truediv__(self, o):
        w = self._other(o)
        if w is None:
            return NotImplemented
        return self.__class__(self.v * pow(w, -1, self.p))

    def __rtruediv__(self, o):
        w = self._other(o)
        if w is None:
            return NotImplemented
        return self.__class__(w * pow(self.v, -1, self.p))

    def __neg__(self):
        return self.__class__(-self.v)

    def __pow__(self, n: int):
        return self.__class__(pow(self.v, n, self.p))

    def __eq__(self, o):
        if isinstance(o, FpElement):
            return self.p == o.p and self.v == o.v
        if isinstance(o, int):
            return self.v == o % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


_GF_CACHE: dict[int, type] = {}


def GF(p: int) -> type:
    """Element class for F_p, cached per prime."""
    cls = _GF_CACHE.get(p)
    if cls is None:
        if not (isinstance(p, int) and 1 < p < MAX_PRIME and is_prime(p)):
            raise ParseError("not a supported prime: %r" % (p,))
        cls = type("F%d" % p, (FpElement,), {"__slots__": (), "p": p})
        _GF_CACHE[p] = cls
    return cls


_Q_RE = re.compile(r"^[+-]?[0-9]+(/[+-]?[0-9]+)?$")  # ASCII digits only


@dataclass(frozen=True)
class Field:
    """Handle for Q (kind='Q') or F_p (kind='Fp', p prime < 2^61).  `_box`
    makes a field element of a raw scalar: `Fraction` over Q, the cached
    element class `GF(p)` over F_p."""

    kind: str
    p: Optional[int] = None
    zero: object = dc_field(init=False, repr=False, compare=False)
    one: object = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ParseError("Q takes no modulus")
            box = _fraction
        elif self.kind == "Fp":
            box = GF(self.p)
        else:
            raise ParseError("unknown field kind %r" % (self.kind,))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "zero", box(0))
        object.__setattr__(self, "one", box(1))

    @property
    def char(self) -> int:
        return 0 if self.kind == "Q" else self.p

    def of(self, n: int):
        return self._box(n % self.p) if self.p else Fraction(n)

    def parse(self, s):
        """Read a scalar from a string (or a plain int).

        Accepts "a" and "a/b" (b nonzero), each an optional sign and ASCII
        digits: other Unicode digits are malformed.  Over F_p the result is reduced;
        "a/b" means a * b^{-1} mod p and requires p not dividing b.
        """
        if isinstance(s, int) and not isinstance(s, bool):
            return self.of(s)
        if not isinstance(s, str) or not _Q_RE.match(s.strip()):
            raise ParseError("malformed scalar %r" % (s,))
        s = s.strip()
        num, _, den = s.partition("/")
        try:
            a, b = int(num), int(den) if den else 1
        except ValueError as ex:  # past the interpreter's int-conversion limit
            raise ParseError("scalar of %d characters: %s" % (len(s), ex)) from None
        if b == 0:
            raise ParseError("zero denominator in %r" % (s,))
        if self.kind == "Q":
            return Fraction(a, b)
        if b % self.p == 0:
            raise ParseError("denominator of %r is 0 mod %d" % (s, self.p))
        return self.of(a * pow(b, -1, self.p))

    def to_str(self, x) -> str:
        return str(x)

    def elements(self) -> Iterator:
        """All field elements in canonical order; only finite fields iterate."""
        if self.kind == "Q":
            raise ShapeError("Q is not enumerable")
        return map(self._box, range(self.p))

    @property
    def order(self) -> Optional[int]:
        return None if self.kind == "Q" else self.p

    def random(self, rng):
        """A scalar for seeded sampling: uniform in F_p, small integer in Q."""
        if self.kind == "Q":
            return Fraction(rng.randint(-9, 9))
        return self._box(rng.randrange(self.p))

    def describe(self) -> dict:
        return {"kind": self.kind} if self.kind == "Q" else {"kind": "Fp", "p": self.p}


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


QQ = Field("Q")


def field_from_dict(d) -> Field:
    """{"kind": "Q"} or {"kind": "Fp", "p": <prime>}, with no other key."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ParseError("field must be an object with a 'kind'")
    kind = d["kind"]
    keys = {"Q": ["kind"], "Fp": ["kind", "p"]}.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ParseError("unknown field kind %r" % (kind,))
    if sorted(d) != keys:
        raise ParseError("a field of kind %s takes exactly the keys %s, not %s"
                         % (kind, ", ".join(keys), ", ".join(sorted(d))))
    if kind == "Fp" and type(d["p"]) is not int:
        raise ParseError("the modulus p must be an integer, not %r" % (d["p"],))
    return QQ if kind == "Q" else Field("Fp", d["p"])


# ---------------------------------------------------------------------------
# index bookkeeping

def prod(shape: Sequence[int]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def unflatten_index(shape: Sequence[int], flat: int) -> tuple[int, ...]:
    multi = []
    for d in reversed(shape):
        multi.append(flat % d)
        flat //= d
    if flat:
        raise ShapeError("flat index out of range")
    return tuple(reversed(multi))


def iter_multi(shape: Sequence[int]):
    return itertools.product(*(range(d) for d in shape))


# ---------------------------------------------------------------------------
# vectors (plain tuples of field elements)

def basis_vec(field: Field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_is_zero(v) -> bool:
    return not any(v)


def kron_vec(u, v):
    """u (x) v flattened row-major."""
    return tuple(a * b for a in u for b in v)


# ---------------------------------------------------------------------------
# raw scalars
#
# Maps and the elimination kernel hold raw scalars: plain ints reduced mod p
# over F_p, Fractions over Q, with `p` = 0 standing for Q.  No FpElement is
# built inside their loops; field elements are read in at the constructors
# and boxed on the way out (`Field._box`).

def _modulus(field: Field) -> int:
    """The kernel's name for a field: p for F_p, 0 for Q."""
    return field.p if field.kind == "Fp" else 0


_VALUE = operator.attrgetter("v")


def _raw(p: int, x):
    """A field element, or a plain int, -> raw scalar."""
    if p:
        return x % p if type(x) is int else x.v
    return Fraction(x) if type(x) is int else x


def _raw_line(p: int, line: Sequence) -> list:
    """Field elements, or plain ints, -> raw scalars."""
    if p:
        try:
            return list(map(_VALUE, line))
        except AttributeError:  # a matrix written with plain ints
            return [x % p if type(x) is int else x.v for x in line]
    return [Fraction(x) if type(x) is int else x for x in line]


def integer_vectors(field: Field, vecs: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Flat vectors of field elements -> (lists of ints, d) with vecs = ints / d:
    residues and d = 1 over F_p; over Q, the vectors scaled by the least
    common denominator d of all their entries."""
    p = _modulus(field)
    if p:
        return [_raw_line(p, v) for v in vecs], 1
    d = math.lcm(*(x.denominator for v in vecs for x in v))
    return [[x.numerator * (d // x.denominator) for x in v] for v in vecs], d


def _sparse(p: int, row: Sequence) -> dict:
    """Dense row of field elements or raw scalars -> sparse raw row."""
    return {k: v for k, v in enumerate(_raw_line(p, row)) if v}


def _dense(field: Field, row: dict, n: int) -> tuple:
    """Sparse raw row -> dense tuple of field elements."""
    out = [field.zero] * n
    box = field._box
    for k, v in row.items():
        out[k] = box(v)
    return tuple(out)


def _row_times(p: int, row: dict, rows: Sequence[dict]) -> dict:
    """A sparse raw row times the matrix with sparse raw rows `rows`."""
    acc: dict = {}
    get = acc.get
    for k, x in row.items():
        for c, y in rows[k].items():
            acc[c] = get(c, 0) + x * y
    return _reduced(p, acc)


def _reduced(p: int, acc: dict) -> dict:
    """A sparse row of unreduced sums -> raw scalars, zeros dropped."""
    if p:
        return {k: r for k, v in acc.items() if (r := v % p)}
    return {k: v for k, v in acc.items() if v}


# ---------------------------------------------------------------------------
# linear maps

class LinMap:
    """A linear map between tensor-shaped spaces.

    Entry (r, c) is the coefficient of codomain basis vector r in the image
    of domain basis vector c (both flat, row-major).  A map holds its
    entries once, as sparse rows of raw scalars: row r is a dict {c: entry}
    of its nonzero entries, never changed once the map holds it (maps may
    share rows: `with_shapes`).  The constructor reads dense rows of field
    elements (or plain ints); `mat`, `column`, `entry` and `apply` give
    field elements back, made when they are read.
    """

    __slots__ = ("field", "dom", "cod", "_rows")

    def __init__(self, field: Field, dom, cod, mat: Sequence[Sequence]):
        dom, cod = tuple(dom), tuple(cod)
        if len(mat) != prod(cod):
            raise ShapeError("row count %d != codomain dim %d" % (len(mat), prod(cod)))
        n = prod(dom)
        for row in mat:
            if len(row) != n:
                raise ShapeError("row width %d != domain dim %d" % (len(row), n))
        p = _modulus(field)
        self.field, self.dom, self.cod = field, dom, cod
        self._rows = [_sparse(p, row) for row in mat]

    @classmethod
    def _from_raw(cls, field: Field, dom: tuple, cod: tuple, rows: list) -> "LinMap":
        """The map with sparse raw rows `rows` (a list, one per codomain index)."""
        lm = object.__new__(cls)
        lm.field, lm.dom, lm.cod, lm._rows = field, dom, cod, rows
        return lm

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return ((self.field, self.dom, self.cod, self._rows)
                == (other.field, other.dom, other.cod, other._rows))

    __hash__ = None

    def __repr__(self):
        return "LinMap(%r, %r, %r, %r)" % (self.field, self.dom, self.cod, self.mat)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_images(field: Field, dom, cod, images: Sequence[Sequence]) -> "LinMap":
        """Build from the images of the domain basis vectors (the columns)."""
        return LinMap.from_rows(field, cod, dom, images).transpose()

    @staticmethod
    def from_rows(field: Field, dom, cod, rows) -> "LinMap":
        return LinMap(field, dom, cod, [tuple(r) for r in rows])

    @staticmethod
    def identity(field: Field, shape) -> "LinMap":
        shape = tuple(shape)
        one = _raw(_modulus(field), 1)
        return LinMap._from_raw(field, shape, shape, [{i: one} for i in range(prod(shape))])

    @staticmethod
    def zero_map(field: Field, dom, cod) -> "LinMap":
        dom, cod = tuple(dom), tuple(cod)
        return LinMap._from_raw(field, dom, cod, [{} for _ in range(prod(cod))])

    @staticmethod
    def const(field: Field, vec, shape) -> "LinMap":
        """The map k -> shape sending 1 to `vec`."""
        shape = tuple(shape)
        if len(vec) != prod(shape):
            raise ShapeError("vector length %d != shape %r" % (len(vec), shape))
        return LinMap(field, (1,), shape, [(x,) for x in vec])

    # -- basic data --------------------------------------------------------

    @property
    def dim_dom(self) -> int:
        return prod(self.dom)

    @property
    def dim_cod(self) -> int:
        return prod(self.cod)

    @property
    def mat(self) -> tuple[tuple, ...]:
        """The dense matrix of field elements, rows by codomain index."""
        n = self.dim_dom
        return tuple(_dense(self.field, row, n) for row in self._rows)

    def entry(self, r: int, c: int):
        x = self._rows[r].get(c)
        return self.field.zero if x is None else self.field._box(x)

    def column(self, c: int) -> tuple:
        return tuple(self.entry(r, c) for r in range(len(self._rows)))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def with_shapes(self, dom, cod) -> "LinMap":
        dom, cod = tuple(dom), tuple(cod)
        if prod(dom) != self.dim_dom or prod(cod) != self.dim_cod:
            raise ShapeError("reshape must preserve flat dimensions")
        return LinMap._from_raw(self.field, dom, cod, self._rows)

    def mismatch(self, other: "LinMap", by_column: bool = False):
        """The first entry where two maps of one shape differ, in row-major
        order (column-major with `by_column`): (row, column, this entry,
        that entry), the entries as field elements; None if they are equal."""
        where = [(c, r) if by_column else (r, c)
                 for r, (a, b) in enumerate(zip(self._rows, other._rows)) if a != b
                 for c in a.keys() | b.keys() if a.get(c) != b.get(c)]
        if where:
            r, c = min(where)[::-1] if by_column else min(where)
            return r, c, self.entry(r, c), other.entry(r, c)
        return None

    # -- algebra -----------------------------------------------------------

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.dim_dom:
            raise ShapeError("vector length %d != domain dim %d" % (len(vec), self.dim_dom))
        p = _modulus(self.field)
        x = _raw_line(p, vec)
        acc = {}
        for r, row in enumerate(self._rows):
            s = 0
            for c, a in row.items():
                s += a * x[c]
            acc[r] = s
        return _dense(self.field, _reduced(p, acc), len(self._rows))

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other.  Defined when flat dimensions agree."""
        if other.dim_cod != self.dim_dom:
            raise ShapeError("compose: %r after %r" % (self.cod, other.cod))
        p = _modulus(self.field)
        orows = other._rows
        out = [_row_times(p, row, orows) for row in self._rows]
        return LinMap._from_raw(self.field, other.dom, self.cod, out)

    def tensor(self, other: "LinMap") -> "LinMap":
        p = _modulus(self.field)
        ncb = other.dim_dom
        brows = other._rows
        out = []
        for arow in self._rows:
            for brow in brows:
                if not (arow and brow):
                    out.append({})
                elif p:
                    out.append({c1 * ncb + c2: x * y % p
                                for c1, x in arow.items() for c2, y in brow.items()})
                else:
                    out.append({c1 * ncb + c2: x * y
                                for c1, x in arow.items() for c2, y in brow.items()})
        return LinMap._from_raw(self.field, self.dom + other.dom, self.cod + other.cod, out)

    def _plus(self, other: "LinMap", sign: int, what: str) -> "LinMap":
        if self.dom != other.dom or self.cod != other.cod:
            raise ShapeError("%s: shape mismatch" % what)
        return linear_combination([self, other], (1, sign))

    def add(self, other: "LinMap") -> "LinMap":
        return self._plus(other, 1, "add")

    def sub(self, other: "LinMap") -> "LinMap":
        return self._plus(other, -1, "sub")

    def scale(self, s) -> "LinMap":
        p = _modulus(self.field)
        s = _raw(p, s)
        return LinMap._from_raw(self.field, self.dom, self.cod,
                                [_reduced(p, {c: x * s for c, x in row.items()})
                                 for row in self._rows])

    def transpose(self) -> "LinMap":
        k = len(self.cod)
        return self.regroup(range(k, k + len(self.dom)), range(k))

    def regroup(self, cod, dom) -> "LinMap":
        """The same tensor with its legs regrouped.

        The legs of `self` are numbered codomain first, then domain: leg i
        is self.cod[i] for i < len(self.cod), then self.dom in order.  The
        result's codomain is the legs `cod` and its domain the legs `dom`,
        each in the order given, and its entry at a choice of one index per
        leg is the entry of `self` at the same choice.  So a leg that moves
        between domain and codomain is read in the coordinate dual basis:
        with legs (a | c, b), regroup((2, 0), (1,)) is c -> B* (x) A,
        c |-> sum_b e_b* (x) self(c (x) e_b).  Only entries move.
        """
        cod, dom = tuple(cod), tuple(dom)
        shape = self.cod + self.dom
        if sorted(cod + dom) != list(range(len(shape))):
            raise ShapeError("regroup: %r, %r is not an order of the %d legs"
                             % (cod, dom, len(shape)))
        # each leg's step in the new (row, column) position
        step = {}
        for side, legs in enumerate((cod, dom)):
            size = 1
            for leg in reversed(legs):
                step[leg] = (size, 0) if side == 0 else (0, size)
                size *= shape[leg]
        k = len(self.cod)
        at_row = _leg_positions(shape, range(k), step)
        at_col = _leg_positions(shape, range(k, len(shape)), step)
        out = [{} for _ in range(prod(shape[i] for i in cod))]
        for (r0, c0), row in zip(at_row, self._rows):
            for c, x in row.items():
                r1, c1 = at_col[c]
                out[r0 + r1][c0 + c1] = x
        return LinMap._from_raw(self.field, tuple(shape[i] for i in dom),
                                tuple(shape[i] for i in cod), out)

    def rank(self) -> int:
        return len(_echelon(_modulus(self.field), self._rows))

    def inverse(self) -> Optional["LinMap"]:
        """Exact two-sided inverse, or None if not square/invertible: the
        reduced echelon form of [M | I] is [I | M^-1] exactly when M is."""
        n = self.dim_dom
        if n != self.dim_cod:
            return None
        p = _modulus(self.field)
        one = _raw(p, 1)
        basis = _echelon(p, [{**row, n + i: one} for i, row in enumerate(self._rows)])
        if sorted(basis) != list(range(n)):
            return None
        return LinMap._from_raw(self.field, self.cod, self.dom, [
            {c - n: x for c, x in basis[i].items() if c >= n} for i in range(n)])


def _leg_positions(shape: tuple, legs, step: dict) -> list:
    """For each index choice on `legs`, in row-major order, the (row,
    column) offset it contributes, each leg adding its index times its
    step."""
    out = [(0, 0)]
    for leg in legs:
        dr, dc = step[leg]
        out = [(r + i * dr, c + i * dc) for r, c in out for i in range(shape[leg])]
    return out


def linear_combination(basis: Sequence[LinMap], coeffs: Sequence) -> LinMap:
    """sum coeffs_i basis_i for a nonempty basis of maps of one shape; the
    coefficients are field elements or plain ints."""
    b0 = basis[0]
    p = _modulus(b0.field)
    acc = [{} for _ in b0._rows]
    for s, b in zip(coeffs, basis):
        s = _raw(p, s)
        if not s:
            continue
        for a, row in zip(acc, b._rows):
            get = a.get
            for c, x in row.items():
                a[c] = get(c, 0) + s * x
    return LinMap._from_raw(b0.field, b0.dom, b0.cod, [_reduced(p, a) for a in acc])


def cokernel(rel: LinMap) -> tuple[LinMap, LinMap, tuple]:
    """The quotient of the codomain V of `rel` by the span of its columns.

    Returns (pi, sigma, relations).  `relations` are the rows of the reduced
    row echelon form of that span (`rref`), as tuples of field elements;
    the free columns (no pivot) index the quotient.  pi: V -> V/span reads
    off the coordinates of the free columns, a pivot basis vector going to
    minus its relation's free entries; sigma sends quotient coordinate i to
    the basis vector of the i-th free column, so pi . sigma = id.
    """
    f = rel.field
    p = _modulus(f)
    n = rel.dim_cod
    red, pivots = rref(f, rel.transpose().mat)
    pivot = set(pivots)
    free = [c for c in range(n) if c not in pivot]
    at = {c: i for i, c in enumerate(free)}
    one = _raw(p, 1)
    pi = [{c: one} for c in free]
    sigma = [{at[c]: one} if c in at else {} for c in range(n)]
    for t, line in zip(pivots, red):
        for c, x in _sparse(p, line).items():
            if c != t:
                pi[at[c]][t] = (-x) % p if p else -x
    return (LinMap._from_raw(f, rel.cod, (len(free),), pi),
            LinMap._from_raw(f, (len(free),), rel.cod, sigma), tuple(map(tuple, red)))


def swap_map(field: Field, d1: int, d2: int) -> LinMap:
    """X (x) Y -> Y (x) X on basis vectors."""
    return LinMap.identity(field, (d1, d2)).regroup((1, 0), (2, 3))


# ---------------------------------------------------------------------------
# the elimination kernel
#
# A row is a sparse dict {column: raw scalar} holding only nonzero entries.

def _axpy(p: int, row: dict, f, b: dict):
    """row -= f * b in place, dropping entries that become zero."""
    get = row.get
    if p:
        for k, v in b.items():
            x = (get(k, 0) - f * v) % p
            if x:
                row[k] = x
            else:
                del row[k]
    else:
        for k, v in b.items():
            x = get(k, 0) - f * v
            if x:
                row[k] = x
            else:
                del row[k]


def _echelon(p: int, rows) -> dict:
    """Reduced row echelon form of the span of `rows`, as {pivot column: row}.

    Rows are reduced one at a time against the basis so far and kept fully
    reduced: pivot entries are 1, each row is zero left of its pivot, and
    every pivot column is zero in the other rows.  That form is unique for
    the row space, so it does not depend on the order or multiplicity of
    `rows`, which are left unmodified.
    """
    basis: dict = {}
    for src in rows:
        row = dict(src)
        # a basis row is zero in every other pivot column, so one pass works
        for c in [c for c in row if c in basis]:
            _axpy(p, row, row[c], basis[c])
        if not row:
            continue
        lead = min(row)
        x = row[lead]
        if x != 1:
            if p:
                inv = pow(x, -1, p)
                row = {k: v * inv % p for k, v in row.items()}
            else:
                row = {k: v / x for k, v in row.items()}
        for b in basis.values():
            f = b.get(lead)
            if f:
                _axpy(p, b, f, row)
        basis[lead] = row
    return basis


def _kernel(p: int, basis: dict, n: int) -> list[dict]:
    """Basis of the solutions of the reduced system in columns 0..n-1, one
    vector per free column in increasing order (the free column set to 1)."""
    one = 1 if p else Fraction(1)
    out = []
    for f in range(n):
        if f in basis:
            continue
        vec = {f: one}
        for c, row in basis.items():
            x = row.get(f) if c < n else None
            if x:
                vec[c] = (-x) % p if p else -x
        out.append(vec)
    return out


def _solve(p: int, rows: Sequence[dict], n: int):
    """Solve sparse raw `rows` in the unknowns 0..n-1, the right-hand side in
    column n (absent from a homogeneous system).

    Returns (particular, kernel) as sparse raw vectors, both read off the
    reduced echelon form: `particular` is None when infeasible, else the
    solution with every free unknown 0; `kernel` is `_kernel`'s basis.
    Before returning, each is substituted into every row, the particular
    solution x as (x, -1), and a nonzero residual is an internal error.
    """
    basis = _echelon(p, rows)
    kernel = _kernel(p, basis, n)
    checks = [(v, "kernel vector") for v in kernel]
    particular = None
    if n not in basis:
        particular = {c: row[n] for c, row in basis.items() if n in row}
        checks.append(({**particular, n: -1}, "particular solution"))
    # all at once: the rows times the matrix whose column j is check j
    by_unknown = [{} for _ in range(n + 1)]
    for j, (vec, _) in enumerate(checks):
        for k, x in vec.items():
            by_unknown[k][j] = x
    bad = {j for row in rows for j in _row_times(p, row, by_unknown)}
    if bad:
        raise InternalCheckError("%s failed substitution" % checks[min(bad)][1])
    return particular, kernel


# ---------------------------------------------------------------------------
# solving

def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (first-nonzero pivoting).

    Returns (nonzero rows, pivot column indices); the input is not modified.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    p = _modulus(field)
    basis = _echelon(p, [_sparse(p, r) for r in rows])
    pivots = sorted(basis)
    return [list(_dense(field, basis[c], ncols)) for c in pivots], pivots


def is_singular(field: Field, rows: Sequence[Sequence]) -> bool:
    """Whether the square matrix `rows` is singular, without inverting it:
    whether some column has no pivot.  Entries are as `_integer_rows` takes
    them, and `rows` is not modified."""
    p = _modulus(field)
    return next(_pivotless(p, _integer_rows(p, rows), len(rows)), None) is not None


def is_consistent(field: Field, rows: Sequence[Sequence], rhs: Sequence) -> bool:
    """Whether M x = b has a solution, without solving it: whether the last
    column of [M | b] has no pivot.  Entries are as `_integer_rows` takes
    them.  Scaling M or b by a nonzero scalar keeps the answer, so over Q
    an integer multiple of each will do."""
    n = len(rows[0]) if rows else 0
    p = _modulus(field)
    return n in _pivotless(p, _integer_rows(p, [[*row, b] for row, b in zip(rows, rhs)]),
                           n + 1)


def _integer_rows(p: int, rows: Sequence[Sequence]) -> list[list[int]]:
    """Rows of field elements or raw scalars (ints with any residue over
    F_p; ints or Fractions over Q) -> integer rows for `_pivotless`, zero
    rows dropped: residues over F_p, and over Q each row scaled to integers,
    which keeps the pivot columns."""
    if p:
        try:
            m = [[x % p for x in row] for row in rows]
        except TypeError:  # field elements
            m = [_raw_line(p, row) for row in rows]
    else:
        try:
            m = [list(map(operator.index, row)) for row in rows]
        except TypeError:  # Fractions
            m = []
            for row in rows:
                line = [Fraction(x) for x in row]
                den = math.lcm(*(x.denominator for x in line))
                m.append([x.numerator * (den // x.denominator) for x in line])
    return [row for row in m if any(row)]


def _pivotless(p: int, m: list[list[int]], ncols: int) -> Iterator[int]:
    """Eliminate the integer rows `m` in place, column by column from the
    left, and yield each of the columns 0..ncols-1 that has no pivot.  A
    column is only eliminated once the caller asks past it, so a caller
    that stops at the first pivotless column pays for no more."""
    return _pivotless_mod(p, m, ncols) if p else _pivotless_bareiss(m, ncols)


def _pivotless_mod(p: int, m: list[list[int]], ncols: int) -> Iterator[int]:
    """`_pivotless` on residues mod p."""
    r = 0
    for k in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][k]), None)
        if piv is None:
            yield k
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        r += 1
        inv = pow(top[k], -1, p)
        tail = [(c, top[c]) for c in range(k + 1, ncols) if top[c]]
        for row in m[r:]:
            if row[k]:
                f = row[k] * inv % p
                for c, v in tail:
                    row[c] = (row[c] - f * v) % p


def _pivotless_bareiss(m: list[list[int]], ncols: int) -> Iterator[int]:
    """`_pivotless` over Z, fraction-free (Bareiss).  After each pivot every
    entry below the pivots is a minor of the matrix on the pivot columns so
    far and its own column, so the division by the previous pivot is exact;
    a pivotless column is all zero below the pivots and changes nothing."""
    r, prev = 0, 1
    for k in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][k]), None)
        if piv is None:
            yield k
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        r += 1
        a = top[k]
        for row in m[r:]:
            b = row[k]
            for c in range(k + 1, ncols):
                row[c] = (a * row[c] - b * top[c]) // prev
        prev = a


def solve_linear(field: Field, rows: Sequence[Sequence], rhs: Sequence):
    """Solve M x = b exactly.

    Entries of M and b may be field elements or raw scalars: ints (any
    residue) over F_p, ints or Fractions over Q.  Returns (particular,
    kernel_basis) in field elements: `particular` is None when infeasible,
    else the solution with every free unknown 0, and `kernel_basis` spans
    the solution set of M x = 0 either way.  `_solve` verifies both by
    substitution before returning.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ShapeError("ragged matrix")
    if len(rhs) != len(rows):
        raise ShapeError("rhs length %d != row count %d" % (len(rhs), len(rows)))
    p = _modulus(field)
    particular, kernel = _solve(
        p, [_sparse(p, list(row) + [b]) for row, b in zip(rows, rhs)], ncols)
    return (None if particular is None else _dense(field, particular, ncols),
            [_dense(field, v, ncols) for v in kernel])


def nullspace(field: Field, rows: Sequence[Sequence]) -> list[tuple]:
    if not rows:
        raise ShapeError("nullspace of empty system is ambiguous; pass explicit zero rows")
    _, kernel = solve_linear(field, rows, [field.zero] * len(rows))
    return kernel


@dataclass
class SolutionSpace:
    """A computed linear solution space plus its defining residual check.

    `basis` holds decoded payloads; `residual` maps a payload to a list of
    violated-condition labels (empty list = exact member).  Every basis
    element is re-checked through `residual` at construction time.
    """

    basis: list
    residual: Callable[[object], list]

    def __post_init__(self):
        for i, b in enumerate(self.basis):
            bad = self.residual(b)
            if bad:
                raise InternalCheckError("solution basis element %d violates %r" % (i, bad))

    @property
    def dim(self) -> int:
        return len(self.basis)


class Term(NamedTuple):
    """One term coef * left . (id_before (x) X (x) id_after) . right of a law
    in an unknown map X; `left` and `right` are fixed maps, None for an
    identity, and `before`/`after` are the dimensions of the identity legs."""

    coef: int = 1
    left: Optional[LinMap] = None
    before: int = 1
    after: int = 1
    right: Optional[LinMap] = None


def _legs(lm: Optional[LinMap], d: int, before: int, after: int, p: int, left: bool):
    """Nonzero entries of a map beside the leg (id_before (x) X (x) id_after),
    grouped by the identity legs: {(u, v): [(outer, k, raw)]}, where the
    entry's index on the X side is (u, k, v) and `outer` is its other index."""
    groups: dict = {}
    if lm is None:
        one = 1 if p else Fraction(1)
        for u in range(before):
            for v in range(after):
                groups[(u, v)] = [((u * d + k) * after + v, k, one) for k in range(d)]
        return groups
    span = d * after
    for r, row in enumerate(lm._rows):
        for c, x in row.items():
            outer, mid = (r, c) if left else (c, r)
            u, rest = divmod(mid, span)
            k, v = divmod(rest, after)
            groups.setdefault((u, v), []).append((outer, k, x))
    return groups


class LinearLaws:
    """Linear laws in an unknown map X: k^dom -> k^cod, as sparse constraint rows.

    The unknowns are the entries of X's matrix in row-major order: X[r][c]
    is unknown r * dom + c.  A law is a sum of `Term`s equal to zero.  For
    each pair (u, v) of identity-leg indices a term restricts to P . X . Q
    with P[i][r] = left[i][(u, r, v)] and Q[c][j] = right[(u, c, v)][j], and
    the coefficient of X[r][c] in entry (i, j) of P . X . Q is
    P[i][r] * Q[c][j], i.e. vec(PXQ) = (P (x) Q^T) vec(X).  So each law's
    rows come from the nonzero entries of its fixed maps alone: no map is
    ever evaluated on a trial value of X.
    """

    def __init__(self, field: Field, dom: int, cod: int):
        self.field = field
        self.dom, self.cod = dom, cod
        self.rows: list[dict] = []

    def add(self, *terms: Term):
        """Add the law sum(terms) = 0: one row per entry of its value."""
        p = _modulus(self.field)
        acc: dict = {}
        shape = None
        for t in terms:
            mid_cod = t.before * self.cod * t.after
            mid_dom = t.before * self.dom * t.after
            if ((t.left is not None and t.left.dim_dom != mid_cod)
                    or (t.right is not None and t.right.dim_cod != mid_dom)):
                raise ShapeError("law term does not compose with the unknown")
            n = mid_dom if t.right is None else t.right.dim_dom
            m = mid_cod if t.left is None else t.left.dim_cod
            if shape not in (None, (m, n)):
                raise ShapeError("law terms of different shapes")
            shape = (m, n)
            rights = _legs(t.right, self.dom, t.before, t.after, p, left=False)
            for uv, lefts in _legs(t.left, self.cod, t.before, t.after, p, left=True).items():
                for j, c, qv in rights.get(uv, ()):
                    for i, r, pv in lefts:
                        row = acc.setdefault(i * n + j, {})
                        col = r * self.dom + c
                        row[col] = row.get(col, 0) + t.coef * pv * qv
        for row in acc.values():
            row = {k: v % p for k, v in row.items() if v % p} if p else \
                {k: v for k, v in row.items() if v}
            if row:
                self.rows.append(row)

    def kernel(self) -> list[tuple]:
        """Basis of the solutions as flat coordinate vectors of X.

        Each vector is verified by substitution into every law row.  The
        basis is the one read off the reduced row echelon form (one vector
        per free unknown, in increasing order), so it is fixed by the
        solution space and the unknown order alone.
        """
        p = _modulus(self.field)
        n = self.dom * self.cod
        _, vecs = _solve(p, self.rows, n)
        return [_dense(self.field, v, n) for v in vecs]

    def maps(self, dom, cod) -> list[LinMap]:
        """The kernel as maps between the tensor shapes `dom` and `cod`."""
        dom, cod = tuple(dom), tuple(cod)
        if (prod(dom), prod(cod)) != (self.dom, self.cod):
            raise ShapeError("maps %r -> %r for %d x %d unknowns" % (dom, cod, self.cod, self.dom))
        _, vecs = _solve(_modulus(self.field), self.rows, self.dom * self.cod)
        out = []
        for vec in vecs:
            rows = [{} for _ in range(self.cod)]
            for k, x in vec.items():
                r, c = divmod(k, self.dom)
                rows[r][c] = x
            out.append(LinMap._from_raw(self.field, dom, cod, rows))
        return out


def hom_probe_matrix(field: Field, dim_unknown: int, operators: Sequence[Callable[[int], Sequence]]):
    """Stack linear operators on an unknown vector into one constraint matrix.

    Each operator takes the index of an unknown-space basis vector and returns
    the operator's value on it (a vector); rows of the result are constraint
    coordinates, columns are unknowns.

    This is the probing construction, one operator evaluation per unknown.
    The package assembles its solution spaces with `LinearLaws` instead; the
    tests keep this as the reference those spaces are compared against.
    """
    cols = []
    for j in range(dim_unknown):
        parts = []
        for op in operators:
            parts.extend(op(j))
        cols.append(parts)
    nrows = len(cols[0]) if cols else 0
    if nrows == 0:
        # no constraints: one explicit zero row keeps the unknown count visible
        return [[field.zero] * dim_unknown]
    return [[cols[j][i] for j in range(dim_unknown)] for i in range(nrows)]
