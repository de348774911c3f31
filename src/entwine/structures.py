"""Finite-dimensional algebra, coalgebra, and bialgebra data with validators.

Structure constants follow one convention everywhere:
  mult[i][j][k]    coefficient of e_k in e_i * e_j
  comult[i][j][k]  coefficient of e_j (x) e_k in Delta(e_i)
Validator failure is data (a report with witness indices), not an exception;
malformed shapes and dim 0 are rejected with ParseError before any math runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Sequence

from .exactlin import (
    Field,
    LinMap,
    ParseError,
    basis_vec,
    iter_multi,
    kron_vec,
    unflatten_index,
)


# ---------------------------------------------------------------------------
# validation reports

@dataclass(frozen=True)
class Violation:
    law: str
    index: tuple
    detail: str = ""

    def __str__(self):
        where = "@" + repr(self.index) if self.index else ""
        return "%s%s %s" % (self.law, where, self.detail)


@dataclass
class ValidationReport:
    subject: str
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        self.violations.extend(other.violations)
        return self

    def add_law(self, law: str, lhs: LinMap, rhs: LinMap):
        """Record the first witness coordinate where lhs != rhs, if any."""
        bad = lhs.mismatch(rhs)
        if bad is not None:
            r, c, x, y = bad
            self.violations.append(Violation(
                law, unflatten_index(lhs.dom, c),
                "output %r: %s != %s" % (unflatten_index(lhs.cod, r), x, y)))

    def describe(self) -> str:
        if self.ok:
            return "%s: ok" % self.subject
        lines = ["%s: %d violation(s)" % (self.subject, len(self.violations))]
        lines += ["  " + str(v) for v in self.violations]
        return "\n".join(lines)


def _freeze3(dim: int, cube, what: str):
    if len(cube) != dim:
        raise ParseError("%s must have %d outer entries" % (what, dim))
    out = []
    for i, plane in enumerate(cube):
        if len(plane) != dim:
            raise ParseError("%s[%d] must have %d entries" % (what, i, dim))
        rows = []
        for j, line in enumerate(plane):
            if len(line) != dim:
                raise ParseError("%s[%d][%d] must have %d entries" % (what, i, j, dim))
            rows.append(tuple(line))
        out.append(tuple(rows))
    return tuple(out)


def _freeze1(dim: int, vec, what: str):
    if len(vec) != dim:
        raise ParseError("%s must have %d entries" % (what, dim))
    return tuple(vec)


# ---------------------------------------------------------------------------
# algebras

@dataclass(frozen=True)
class AlgebraData:
    field: Field
    dim: int
    mult: tuple
    unit: tuple

    @staticmethod
    def make(field: Field, mult, unit) -> "AlgebraData":
        dim = len(unit)
        if dim < 1:
            raise ParseError("algebra dim must be >= 1")
        return AlgebraData(field, dim, _freeze3(dim, mult, "mult"),
                           _freeze1(dim, unit, "unit"))

    def mult_map(self) -> LinMap:
        return self._mult_map

    @cached_property
    def _mult_map(self) -> LinMap:
        """m: A (x) A -> A, read off the structure constants on first use."""
        imgs = [self.mult[i][j] for i, j in iter_multi((self.dim, self.dim))]
        return LinMap.from_images(self.field, (self.dim, self.dim), (self.dim,), imgs)

    def unit_map(self) -> LinMap:
        return LinMap.const(self.field, self.unit, (self.dim,))

    def lmult(self, vec: Sequence) -> LinMap:
        """x -> vec * x."""
        n = self.dim
        v, idn = LinMap.const(self.field, vec, (n,)), LinMap.identity(self.field, (n,))
        return self.mult_map().compose(v.tensor(idn)).with_shapes((n,), (n,))

    def rmult(self, vec: Sequence) -> LinMap:
        """x -> x * vec."""
        n = self.dim
        v, idn = LinMap.const(self.field, vec, (n,)), LinMap.identity(self.field, (n,))
        return self.mult_map().compose(idn.tensor(v)).with_shapes((n,), (n,))

    def opposite(self) -> "AlgebraData":
        m = tuple(tuple(self.mult[j][i] for j in range(self.dim)) for i in range(self.dim))
        return AlgebraData(self.field, self.dim, m, self.unit)

    def tensor(self, other: "AlgebraData") -> "AlgebraData":
        """Componentwise product algebra on the tensor product space."""
        # m_A (x) m_B after id_A (x) swap (x) id_B: its domain legs reordered
        m = self.mult_map().tensor(other.mult_map()).regroup((0, 1), (2, 4, 3, 5))
        return AlgebraData.from_mult_map(m, kron_vec(self.unit, other.unit))

    @staticmethod
    def from_mult_map(m: LinMap, unit: Sequence) -> "AlgebraData":
        """The algebra with multiplication m: X (x) X -> X and the given unit."""
        n = m.dim_cod
        cube = m.transpose().mat
        return AlgebraData(m.field, n, tuple(cube[i * n:(i + 1) * n] for i in range(n)),
                           tuple(unit))


def check_algebra(a: AlgebraData, subject: str = "algebra") -> ValidationReport:
    """Associativity at the first failing (i, j, k) in row-major order, then
    the unit on each basis vector, both read off composites of m and u, the
    n^2 columns of one i at a time, so no map on n^3 columns is built."""
    rep = ValidationReport(subject)
    n, f = a.dim, a.field
    m, u, idn = a.mult_map(), a.unit_map(), LinMap.identity(f, (n,))
    for i in range(n):
        li = a.lmult(basis_vec(f, n, i))
        # column (j, k): (e_i e_j) e_k and e_i (e_j e_k)
        bad = m.compose(li.tensor(idn)).mismatch(li.compose(m), by_column=True)
        if bad is not None:
            w, jk, x, y = bad
            rep.violations.append(Violation("associativity", (i,) + unflatten_index((n, n), jk),
                                            "coordinate %d: %s != %s" % (w, x, y)))
            break
    left, right = m.compose(u.tensor(idn)), m.compose(idn.tensor(u))
    for i in range(n):
        if left.column(i) != idn.column(i):
            rep.violations.append(Violation("unit-left", (i,)))
        if right.column(i) != idn.column(i):
            rep.violations.append(Violation("unit-right", (i,)))
    return rep


# ---------------------------------------------------------------------------
# coalgebras

@dataclass(frozen=True)
class CoalgebraData:
    field: Field
    dim: int
    comult: tuple
    counit: tuple

    @staticmethod
    def make(field: Field, comult, counit) -> "CoalgebraData":
        dim = len(counit)
        if dim < 1:
            raise ParseError("coalgebra dim must be >= 1")
        return CoalgebraData(field, dim, _freeze3(dim, comult, "comult"),
                             _freeze1(dim, counit, "counit"))

    def comult_map(self) -> LinMap:
        n = self.dim
        imgs = []
        for i in range(n):
            img = [self.comult[i][j][k] for j, k in iter_multi((n, n))]
            imgs.append(img)
        return LinMap.from_images(self.field, (n,), (n, n), imgs)

    def counit_map(self) -> LinMap:
        return LinMap.from_rows(self.field, (self.dim,), (1,), [self.counit])

    def opposite(self) -> "CoalgebraData":
        d = tuple(tuple(tuple(self.comult[i][k][j] for k in range(self.dim))
                        for j in range(self.dim)) for i in range(self.dim))
        return CoalgebraData(self.field, self.dim, d, self.counit)


def check_coalgebra(c: CoalgebraData, subject: str = "coalgebra") -> ValidationReport:
    rep = ValidationReport(subject)
    n = c.dim
    delta = c.comult_map()
    eps = c.counit_map()
    idc = LinMap.identity(c.field, (n,))
    lhs = delta.tensor(idc).compose(delta)
    rhs = idc.tensor(delta).compose(delta).with_shapes((n,), (n, n, n))
    rep.add_law("coassociativity", lhs, rhs)
    left = eps.tensor(idc).compose(delta).with_shapes((n,), (n,))
    right = idc.tensor(eps).compose(delta).with_shapes((n,), (n,))
    rep.add_law("counit-left", left, idc)
    rep.add_law("counit-right", right, idc)
    return rep


def dual_algebra(c: CoalgebraData, opposite: bool = False) -> AlgebraData:
    """Convolution algebra on C* in the coordinate dual basis.

    (e_i* e_j*)(e_s) = comult[s][i][j]; with opposite=True the factors are
    convolved in reverse order.  The unit is the counit functional.
    """
    # legs of Delta: (c1, c2 | c); the product of C* pairs its legs with c1, c2
    m = c.comult_map().regroup((2,), (1, 0) if opposite else (0, 1))
    return AlgebraData.from_mult_map(m, c.counit)


# ---------------------------------------------------------------------------
# bialgebras

@dataclass(frozen=True)
class BialgebraData:
    algebra: AlgebraData
    coalgebra: CoalgebraData

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @staticmethod
    def make(algebra: AlgebraData, coalgebra: CoalgebraData) -> "BialgebraData":
        if algebra.dim != coalgebra.dim:
            raise ParseError("bialgebra parts must share a dimension")
        if algebra.field != coalgebra.field:
            raise ParseError("bialgebra parts must share a field")
        return BialgebraData(algebra, coalgebra)


def check_bialgebra(b: BialgebraData, subject: str = "bialgebra") -> ValidationReport:
    rep = ValidationReport(subject)
    rep.merge(check_algebra(b.algebra, subject + ".algebra"))
    rep.merge(check_coalgebra(b.coalgebra, subject + ".coalgebra"))
    n = b.dim
    f = b.field
    m, u = b.algebra.mult_map(), b.algebra.unit_map()
    delta, eps = b.coalgebra.comult_map(), b.coalgebra.counit_map()
    # Delta(xy) = Delta(x)Delta(y), with m (x) m reading x1 (x) y1 (x) x2 (x) y2
    rhs = m.tensor(m).regroup((0, 1), (2, 4, 3, 5)).compose(delta.tensor(delta))
    rep.add_law("comult-multiplicative", delta.compose(m), rhs)
    rep.add_law("comult-unital", delta.compose(u), u.tensor(u).with_shapes((1,), (n, n)))
    rep.add_law("counit-multiplicative", eps.compose(m),
                eps.tensor(eps).with_shapes((n, n), (1,)))
    rep.add_law("counit-unital", eps.compose(u), LinMap.identity(f, (1,)))
    return rep


# ---------------------------------------------------------------------------
# actions and coactions

@dataclass(frozen=True)
class ActionData:
    """A module action of an algebra; `side` fixes which leg is the algebra."""

    side: str  # "left": H (x) M -> M ; "right": M (x) H -> M
    map: LinMap


@dataclass(frozen=True)
class CoactionData:
    side: str  # "left": M -> H (x) M ; "right": M -> M (x) H
    map: LinMap


def check_action(h: AlgebraData, act: ActionData, subject: str = "action") -> ValidationReport:
    rep = ValidationReport(subject)
    f = h.field
    t = act.map
    if act.side == "right":
        mdim = t.dim_cod
        idm = LinMap.identity(f, (mdim,))
        idh = LinMap.identity(f, (h.dim,))
        lhs = t.compose(t.tensor(idh))
        rhs = t.compose(idm.tensor(h.mult_map()))
        rep.add_law("action-associativity", lhs.with_shapes((mdim, h.dim, h.dim), (mdim,)),
                    rhs.with_shapes((mdim, h.dim, h.dim), (mdim,)))
        unit_side = t.compose(idm.tensor(h.unit_map())).with_shapes((mdim,), (mdim,))
        rep.add_law("action-unit", unit_side, idm)
    elif act.side == "left":
        mdim = t.dim_cod
        idm = LinMap.identity(f, (mdim,))
        idh = LinMap.identity(f, (h.dim,))
        lhs = t.compose(idh.tensor(t))
        rhs = t.compose(h.mult_map().tensor(idm))
        rep.add_law("action-associativity", lhs.with_shapes((h.dim, h.dim, mdim), (mdim,)),
                    rhs.with_shapes((h.dim, h.dim, mdim), (mdim,)))
        unit_side = t.compose(h.unit_map().tensor(idm)).with_shapes((mdim,), (mdim,))
        rep.add_law("action-unit", unit_side, idm)
    else:
        raise ParseError("action side must be 'left' or 'right'")
    return rep


def check_coaction(h: CoalgebraData, coact: CoactionData,
                   subject: str = "coaction") -> ValidationReport:
    rep = ValidationReport(subject)
    f = h.field
    t = coact.map
    mdim = t.dim_dom
    idm = LinMap.identity(f, (mdim,))
    idh = LinMap.identity(f, (h.dim,))
    if coact.side == "right":
        lhs = t.tensor(idh).compose(t)
        rhs = idm.tensor(h.comult_map()).compose(t)
        rep.add_law("coaction-coassociativity", lhs.with_shapes((mdim,), (mdim, h.dim, h.dim)),
                    rhs.with_shapes((mdim,), (mdim, h.dim, h.dim)))
        counit_side = idm.tensor(h.counit_map()).compose(t).with_shapes((mdim,), (mdim,))
        rep.add_law("coaction-counit", counit_side, idm)
    elif coact.side == "left":
        lhs = idh.tensor(t).compose(t)
        rhs = h.comult_map().tensor(idm).compose(t)
        rep.add_law("coaction-coassociativity", lhs.with_shapes((mdim,), (h.dim, h.dim, mdim)),
                    rhs.with_shapes((mdim,), (h.dim, h.dim, mdim)))
        counit_side = h.counit_map().tensor(idm).compose(t).with_shapes((mdim,), (mdim,))
        rep.add_law("coaction-counit", counit_side, idm)
    else:
        raise ParseError("coaction side must be 'left' or 'right'")
    return rep


def check_comodule_algebra(h: BialgebraData, a: AlgebraData, rho: CoactionData,
                           subject: str = "comodule-algebra") -> ValidationReport:
    """rho: A -> A (x) H is a right coaction and an algebra map."""
    rep = ValidationReport(subject)
    if rho.side != "right":
        raise ParseError("comodule-algebra coaction must be right-sided")
    rep.merge(check_coaction(h.coalgebra, rho, subject + ".coaction"))
    n, dh = a.dim, h.dim
    t = rho.map.with_shapes((n,), (n, dh))
    m = a.mult_map()
    lhs = t.compose(m)
    # (a1 a2) (x) (h1 h2) from a1 (x) h1 (x) a2 (x) h2
    rhs = m.tensor(h.algebra.mult_map()).regroup((0, 1), (2, 4, 3, 5)).compose(t.tensor(t))
    rep.add_law("coaction-multiplicative", lhs, rhs)
    rep.add_law("coaction-unital", t.compose(a.unit_map()),
                a.unit_map().tensor(h.algebra.unit_map()).with_shapes((1,), (n, dh)))
    return rep


def check_module_coalgebra(h: BialgebraData, c: CoalgebraData, act: ActionData,
                           subject: str = "module-coalgebra") -> ValidationReport:
    """act: C (x) H -> C is a right action and a coalgebra map."""
    rep = ValidationReport(subject)
    if act.side != "right":
        raise ParseError("module-coalgebra action must be right-sided")
    rep.merge(check_action(h.algebra, act, subject + ".action"))
    n, dh = c.dim, h.dim
    t = act.map.with_shapes((n, dh), (n,))
    delta = c.comult_map()
    lhs = delta.compose(t)
    # t(c1 (x) h1) (x) t(c2 (x) h2) from c1 (x) c2 (x) h1 (x) h2
    rhs = t.tensor(t).regroup((0, 1), (2, 4, 3, 5)).compose(
        delta.tensor(h.coalgebra.comult_map()))
    rep.add_law("action-comultiplicative", lhs, rhs)
    eps_c, eps_h = c.counit_map(), h.coalgebra.counit_map()
    lhs2 = eps_c.compose(t)
    rhs2 = eps_c.tensor(eps_h).with_shapes((n, dh), (1,))
    rep.add_law("action-counital", lhs2, rhs2)
    return rep


def check_algebra_map(src: AlgebraData, dst: AlgebraData, f: LinMap,
                      subject: str = "algebra-map") -> ValidationReport:
    """f preserves products and the unit."""
    rep = ValidationReport(subject)
    lhs = f.compose(src.mult_map())
    rhs = dst.mult_map().compose(f.tensor(f))
    rep.add_law("multiplicative", lhs.with_shapes((src.dim, src.dim), (dst.dim,)),
                rhs.with_shapes((src.dim, src.dim), (dst.dim,)))
    rep.add_law("unital", f.compose(src.unit_map()), dst.unit_map())
    return rep


# ---------------------------------------------------------------------------
# dual bases

@dataclass
class DualBasis:
    """A finite dual basis: elements x_i with functionals x_i*.

    The construction site guarantees the resolution-of-identity property for
    the module structure it was built for; `elements[i]` are module vectors
    and `functionals[i]` are linear maps from the module to the coefficient
    space acting on the left.
    """

    elements: tuple
    functionals: tuple
    note: str = ""

    @property
    def size(self) -> int:
        return len(self.elements)


def coordinate_dual_basis(field: Field, n: int) -> DualBasis:
    """The tautological dual basis {e_i, e_i*} of a coordinate space."""
    els = tuple(basis_vec(field, n, i) for i in range(n))
    fns = tuple(LinMap.from_rows(field, (n,), (1,), [basis_vec(field, n, i)])
                for i in range(n))
    return DualBasis(els, fns, "coordinate")
