"""Exact scalars and dense linear algebra over Q and F_p.

Everything else in this package reduces to the two primitives defined here:
`Field`, a handle whose elements support +, -, *, / exactly, and `LinMap`,
a dense matrix tagged with the tensor-factor shapes of its domain and
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

Linear algebra runs on a plain-number kernel: compose and elimination work
on raw scalars, ints mod p over F_p and Fractions over Q, with no FpElement
inside their loops.  That layout stays in this module: other modules hand
in field elements (or raw scalars, where a function says so) and get field
elements back, or integer vectors from `integer_vectors`.  Elimination
reduces sparse rows one at a time into the reduced row echelon form, which
is unique for the row space, so `rref`, `solve_linear`, `nullspace`,
`LinMap.inverse` and `LinMap.rank` return the same bases whatever order
the rows come in.

Solution spaces of linear laws in an unknown map X are assembled by
`LinearLaws`: every law is a sum of terms L . (id (x) X (x) id) . R with
fixed maps L and R, and its constraint rows are contracted directly from
the nonzero entries of L and R (vec(PXQ) = (P (x) Q^T) vec(X) for the
row-major vec), without evaluating any law on a trial value of X.

Singularity of a square matrix is decided by `is_singular` without
inverting it: column elimination mod p over F_p, and over Q fraction-free
elimination on integers (Bareiss 1968: each step divides exactly by the
previous pivot, so entries stay minors of the matrix and no Fraction is
built).  Both stop at the first column without a pivot.

Every solution is read off that form by one routine, `_solve`, which
`solve_linear` (so also `nullspace`) and `LinearLaws.kernel` call: the
kernel basis and the particular solution.  It substitutes each of them
into every row before returning, and a failed substitution is an internal
error, never a verdict.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
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


_Q_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")


@dataclass(frozen=True)
class Field:
    """Handle for Q (kind='Q') or F_p (kind='Fp', p prime < 2^61)."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ParseError("Q takes no modulus")
        elif self.kind == "Fp":
            GF(self.p)
        else:
            raise ParseError("unknown field kind %r" % (self.kind,))

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else GF(self.p)(0)

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else GF(self.p)(1)

    @property
    def char(self) -> int:
        return 0 if self.kind == "Q" else self.p

    def of(self, n: int):
        return Fraction(n) if self.kind == "Q" else GF(self.p)(n)

    def parse(self, s):
        """Read a scalar from a string (or a plain int).

        Accepts "a" and "a/b" (b nonzero).  Over F_p the result is reduced;
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
        return GF(self.p)(a * pow(b, -1, self.p))

    def to_str(self, x) -> str:
        return str(x)

    def elements(self) -> Iterator:
        """All field elements in canonical order; only finite fields iterate."""
        if self.kind == "Q":
            raise ShapeError("Q is not enumerable")
        cls = GF(self.p)
        return (cls(i) for i in range(self.p))

    @property
    def order(self) -> Optional[int]:
        return None if self.kind == "Q" else self.p

    def random(self, rng):
        """A scalar for seeded sampling: uniform in F_p, small integer in Q."""
        if self.kind == "Q":
            return Fraction(rng.randint(-9, 9))
        return GF(self.p)(rng.randrange(self.p))

    def describe(self) -> dict:
        return {"kind": self.kind} if self.kind == "Q" else {"kind": "Fp", "p": self.p}


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


def flatten_index(shape: Sequence[int], multi: Sequence[int]) -> int:
    if len(shape) != len(multi):
        raise ShapeError("index arity %d vs shape arity %d" % (len(multi), len(shape)))
    flat = 0
    for d, i in zip(shape, multi):
        if not 0 <= i < d:
            raise ShapeError("index %r out of range for shape %r" % (multi, shape))
        flat = flat * d + i
    return flat


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
# vectors (plain tuples of scalars)

def basis_vec(field: Field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(s, v):
    return tuple(s * a for a in v)


def vec_is_zero(v) -> bool:
    return not any(v)


def kron_vec(u, v):
    """u (x) v flattened row-major."""
    return tuple(a * b for a in u for b in v)


def dot(u, v):
    s = None
    for a, b in zip(u, v, strict=True):
        s = a * b if s is None else s + a * b
    if s is None:
        raise ShapeError("empty dot product")
    return s


# ---------------------------------------------------------------------------
# raw scalars
#
# The inner loops of compose and of elimination work on raw scalars: plain
# ints reduced mod p over F_p, Fractions over Q, with `p` = 0 standing for Q.
# No FpElement is built inside them; values are converted on the way in and
# out.

def _modulus(field: Field) -> int:
    """The kernel's name for a field: p for F_p, 0 for Q."""
    return field.p if field.kind == "Fp" else 0


_VALUE = operator.attrgetter("v")


def _raw_line(p: int, line: Sequence) -> list:
    """Field elements, or plain ints, -> raw scalars: ints in [0, p) over
    F_p, Fractions over Q."""
    if p:
        try:
            return list(map(_VALUE, line))
        except AttributeError:  # a matrix written with plain ints
            return [x % p if type(x) is int else x.v for x in line]
    return [Fraction(x) if type(x) is int else x for x in line]


def _field_rows(field: Field, rows: list[list]) -> tuple[tuple, ...]:
    """Rows of raw scalars (ints over F_p, reduced or not; Fractions or 0
    over Q) -> a matrix of field elements."""
    if field.kind == "Fp":
        p = field.p
        cls = GF(p)
        zero = cls(0)
        return tuple(tuple(cls(v) if v % p else zero for v in row) for row in rows)
    zero = Fraction(0)
    return tuple(tuple(v if v else zero for v in row) for row in rows)


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
    raw = [0] * n
    for k, v in row.items():
        raw[k] = v
    return _field_rows(field, [raw])[0]


# ---------------------------------------------------------------------------
# linear maps

@dataclass(frozen=True)
class LinMap:
    """A linear map between tensor-shaped spaces, as a dense matrix.

    mat[r][c] is the coefficient of codomain basis vector r in the image of
    domain basis vector c (both flat, row-major).
    """

    field: Field
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    mat: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.mat) != prod(self.cod):
            raise ShapeError("row count %d != codomain dim %d" % (len(self.mat), prod(self.cod)))
        n = prod(self.dom)
        for row in self.mat:
            if len(row) != n:
                raise ShapeError("row width %d != domain dim %d" % (len(row), n))

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_images(field: Field, dom, cod, images: Sequence[Sequence]) -> "LinMap":
        """Build from the images of the domain basis vectors (the columns)."""
        return LinMap.from_rows(field, cod, dom, images).transpose()

    @staticmethod
    def from_rows(field: Field, dom, cod, rows) -> "LinMap":
        return LinMap(field, tuple(dom), tuple(cod), tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(field: Field, shape) -> "LinMap":
        shape = tuple(shape)
        n = prod(shape)
        rows = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = field.one
        return LinMap(field, shape, shape, tuple(tuple(r) for r in rows))

    @staticmethod
    def zero_map(field: Field, dom, cod) -> "LinMap":
        dom, cod = tuple(dom), tuple(cod)
        return LinMap(field, dom, cod, tuple((field.zero,) * prod(dom) for _ in range(prod(cod))))

    @staticmethod
    def const(field: Field, vec, shape) -> "LinMap":
        """The map k -> shape sending 1 to `vec`."""
        shape = tuple(shape)
        if len(vec) != prod(shape):
            raise ShapeError("vector length %d != shape %r" % (len(vec), shape))
        return LinMap(field, (1,), shape, tuple((x,) for x in vec))

    # -- basic data --------------------------------------------------------

    @property
    def dim_dom(self) -> int:
        return prod(self.dom)

    @property
    def dim_cod(self) -> int:
        return prod(self.cod)

    def column(self, c: int) -> tuple:
        return tuple(row[c] for row in self.mat)

    def is_zero(self) -> bool:
        return all(not x for row in self.mat for x in row)

    def with_shapes(self, dom, cod) -> "LinMap":
        dom, cod = tuple(dom), tuple(cod)
        if prod(dom) != self.dim_dom or prod(cod) != self.dim_cod:
            raise ShapeError("reshape must preserve flat dimensions")
        return LinMap(self.field, dom, cod, self.mat)

    # -- algebra -----------------------------------------------------------

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.dim_dom:
            raise ShapeError("vector length %d != domain dim %d" % (len(vec), self.dim_dom))
        out = [self.field.zero] * self.dim_cod
        for c, x in enumerate(vec):
            if not x:
                continue
            for r, row in enumerate(self.mat):
                m = row[c]
                if m:
                    out[r] = out[r] + m * x
        return tuple(out)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other.  Defined when flat dimensions agree."""
        if other.dim_cod != self.dim_dom:
            raise ShapeError("compose: %r after %r" % (self.cod, other.cod))
        p = _modulus(self.field)
        nc = other.dim_dom
        # the nonzero entries of each column of self, as raw scalars
        cols = [[] for _ in range(self.dim_dom)]
        for r, row in enumerate(self.mat):
            for k, x in enumerate(_raw_line(p, row)):
                if x:
                    cols[k].append((r, x))
        out = [[0] * nc for _ in range(self.dim_cod)]
        for col, orow in zip(cols, other.mat):
            if not col:
                continue
            for c, y in enumerate(_raw_line(p, orow)):
                if y:
                    for r, x in col:
                        out[r][c] += x * y
        return LinMap(self.field, other.dom, self.cod, _field_rows(self.field, out))

    def tensor(self, other: "LinMap") -> "LinMap":
        a, b = self, other
        nrb, ncb = b.dim_cod, b.dim_dom
        nr, nc = a.dim_cod * nrb, a.dim_dom * ncb
        zero = a.field.zero
        out = [[zero] * nc for _ in range(nr)]
        for r1, arow in enumerate(a.mat):
            for c1, av in enumerate(arow):
                if not av:
                    continue
                for r2, brow in enumerate(b.mat):
                    orow = out[r1 * nrb + r2]
                    base = c1 * ncb
                    for c2, bv in enumerate(brow):
                        if bv:
                            orow[base + c2] = av * bv
        return LinMap(a.field, a.dom + b.dom, a.cod + b.cod, tuple(tuple(r) for r in out))

    def add(self, other: "LinMap") -> "LinMap":
        if self.dom != other.dom or self.cod != other.cod:
            raise ShapeError("add: shape mismatch")
        p = _modulus(self.field)
        return LinMap(self.field, self.dom, self.cod, _field_rows(self.field, [
            [x + y for x, y in zip(_raw_line(p, r), _raw_line(p, s))]
            for r, s in zip(self.mat, other.mat)]))

    def sub(self, other: "LinMap") -> "LinMap":
        if self.dom != other.dom or self.cod != other.cod:
            raise ShapeError("sub: shape mismatch")
        p = _modulus(self.field)
        return LinMap(self.field, self.dom, self.cod, _field_rows(self.field, [
            [x - y for x, y in zip(_raw_line(p, r), _raw_line(p, s))]
            for r, s in zip(self.mat, other.mat)]))

    def scale(self, s) -> "LinMap":
        return LinMap(self.field, self.dom, self.cod,
                      tuple(tuple(s * x for x in r) for r in self.mat))

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
        flat = list(itertools.chain.from_iterable(self.mat))
        cols = _regroup_offsets(shape, dom)
        return LinMap(self.field, tuple(shape[i] for i in dom), tuple(shape[i] for i in cod),
                      tuple(tuple([flat[r + c] for c in cols])
                            for r in _regroup_offsets(shape, cod)))

    def rank(self) -> int:
        p = _modulus(self.field)
        return len(_echelon(p, [_sparse(p, r) for r in self.mat]))

    def inverse(self) -> Optional["LinMap"]:
        """Exact two-sided inverse, or None if not square/invertible: the
        reduced echelon form of [M | I] is [I | M^-1] exactly when M is."""
        n = self.dim_dom
        if n != self.dim_cod:
            return None
        p = _modulus(self.field)
        one = 1 if p else Fraction(1)
        basis = _echelon(p, [{**_sparse(p, row), n + i: one}
                             for i, row in enumerate(self.mat)])
        if sorted(basis) != list(range(n)):
            return None
        return LinMap(self.field, self.cod, self.dom, _field_rows(
            self.field, [[basis[i].get(n + j, 0) for j in range(n)] for i in range(n)]))


def _regroup_offsets(shape: tuple, order: tuple) -> list:
    """Flat positions, in a row-major tensor with legs of sizes `shape`, of
    the index choices on the legs `order` with every other leg at 0, in
    row-major order over `order`; a row's and a column's positions add."""
    offsets = [0]
    for leg in order:
        step = prod(shape[leg + 1:])
        offsets = [o + i * step for o in offsets for i in range(shape[leg])]
    return offsets


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


def _residual(p: int, row: dict, vec: dict):
    acc = 0
    for k, a in row.items():
        x = vec.get(k)
        if x:
            acc += a * x
    return acc % p if p else acc


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
    for vec, what in checks:
        if any(_residual(p, row, vec) for row in rows):
            raise InternalCheckError("%s failed substitution" % what)
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
    """Whether the square matrix `rows` is singular, without inverting it.

    Entries may be field elements or raw scalars: ints (any residue) over
    F_p, ints or Fractions over Q.  Over F_p the columns are eliminated mod
    p; over Q each row is scaled to integers (which keeps the rank) and the
    columns are eliminated fraction-free by Bareiss's method, where every
    division is exact.  Both stop at the first column without a pivot.
    `rows` is not modified.
    """
    p = _modulus(field)
    if p:
        try:
            m = [[x % p for x in row] for row in rows]
        except TypeError:  # field elements
            m = [_raw_line(p, row) for row in rows]
        return _singular_mod(p, m)
    try:
        m = [list(map(operator.index, row)) for row in rows]
    except TypeError:  # Fractions
        m = []
        for row in rows:
            line = [Fraction(x) for x in row]
            den = math.lcm(*(x.denominator for x in line))
            m.append([x.numerator * (den // x.denominator) for x in line])
    return _singular_bareiss(m)


def _singular_mod(p: int, m: list[list[int]]) -> bool:
    """Column elimination mod p in place, stopping at a pivotless column."""
    n = len(m)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return True
        m[k], m[piv] = m[piv], m[k]
        top = m[k]
        inv = pow(top[k], -1, p)
        tail = [(c, top[c]) for c in range(k + 1, n) if top[c]]
        for row in m[k + 1:]:
            if row[k]:
                f = row[k] * inv % p
                for c, v in tail:
                    row[c] = (row[c] - f * v) % p
    return False


def _singular_bareiss(m: list[list[int]]) -> bool:
    """Fraction-free (Bareiss) column elimination over Z in place, stopping
    at a pivotless column.  After step k every entry below the pivots is a
    minor of the matrix, so the division by the previous pivot is exact."""
    n = len(m)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return True
        m[k], m[piv] = m[piv], m[k]
        top = m[k]
        a = top[k]
        for row in m[k + 1:]:
            b = row[k]
            for c in range(k + 1, n):
                row[c] = (a * row[c] - b * top[c]) // prev
        prev = a
    return False


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


def row_space_basis(field: Field, rows: Sequence[Sequence]) -> list[tuple]:
    red, _ = rref(field, [list(r) for r in rows])
    return [tuple(r) for r in red]


def in_span(field: Field, basis: Sequence[Sequence], vec: Sequence) -> bool:
    """Whether vec lies in the span of `basis` (by exact solve)."""
    if not basis:
        return vec_is_zero(vec)
    part, _ = solve_linear(field, list(zip(*basis)), vec)
    return part is not None


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
    for outer, line in enumerate(lm.mat if left else zip(*lm.mat)):
        for mid, x in enumerate(_raw_line(p, line)):
            if x:
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
        nd = self.dom
        return [LinMap(self.field, tuple(dom), tuple(cod),
                       tuple(vec[r * nd:(r + 1) * nd] for r in range(self.cod)))
                for vec in self.kernel()]


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
