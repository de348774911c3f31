"""Entwining structures, Doi-Hopf induction, and entwined modules.

An entwining is a triple (A, C, psi) with psi: C (x) A -> A (x) C subject to
four axioms tying psi to multiplication, unit, comultiplication, and counit.
The nested-constant convention is psi[c][a][a2][c2] = coefficient of
e_{a2} (x) e_{c2} in psi(e_c (x) e_a).

Entwined modules carry a right A-action and a right C-coaction compatible
through psi; optional left structures make them objects of the one-sided
bimodule categories used by the Frobenius analyses.  The constructions
take valid input to valid output and re-check neither: a structure is
checked once, on entry, by corpus.validate_payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactlin import Field, LinMap, ParseError, iter_multi, swap_map
from .structures import (
    ActionData,
    AlgebraData,
    BialgebraData,
    CoactionData,
    CoalgebraData,
    ValidationReport,
    check_action,
    check_bialgebra,
    check_coaction,
    check_comodule_algebra,
    check_module_coalgebra,
)


@dataclass(frozen=True)
class Entwining:
    a: AlgebraData
    c: CoalgebraData
    psi: LinMap  # dom (dim C, dim A), cod (dim A, dim C)

    @property
    def field(self) -> Field:
        return self.a.field

    @staticmethod
    def make(a: AlgebraData, c: CoalgebraData, psi_nested) -> "Entwining":
        """Build from nested constants psi[c][a][a2][c2]."""
        na, nc = a.dim, c.dim
        imgs = []
        for ci, ai in iter_multi((nc, na)):
            try:
                block = psi_nested[ci][ai]
                img = [block[a2][c2] for a2, c2 in iter_multi((na, nc))]
            except (IndexError, TypeError) as exc:
                raise ParseError("psi must be [%d][%d][%d][%d] nested" % (nc, na, na, nc)) from exc
            imgs.append(img)
        psi = LinMap.from_images(a.field, (nc, na), (na, nc), imgs)
        return Entwining(a, c, psi)

    @staticmethod
    def flip(a: AlgebraData, c: CoalgebraData) -> "Entwining":
        return Entwining(a, c, swap_map(a.field, c.dim, a.dim))

    def psi_entry(self, a2: int, c2: int, c: int, a: int):
        """Coefficient of e_{a2} (x) e_{c2} in psi(e_c (x) e_a)."""
        nc, na = self.c.dim, self.a.dim
        return self.psi.entry(a2 * nc + c2, c * na + a)


def check_entwining(e: Entwining, subject: str = "entwining") -> ValidationReport:
    """The four entwining axioms, as exact identities of linear maps."""
    rep = ValidationReport(subject)
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    m, u = e.a.mult_map(), e.a.unit_map()
    delta, eps = e.c.comult_map(), e.c.counit_map()
    psi = e.psi

    # psi(c (x) ab) = (ab)_psi (x) c^psi multiplicativity
    lhs = psi.compose(idc.tensor(m))
    rhs = m.tensor(idc).compose(ida.tensor(psi)).compose(psi.tensor(ida))
    rep.add_law("entwine-mult", lhs, rhs.with_shapes((nc, na, na), (na, nc)))

    # eps(c^psi) a_psi = eps(c) a
    lhs = ida.tensor(eps).compose(psi).with_shapes((nc, na), (na,))
    rhs = eps.tensor(ida).with_shapes((nc, na), (na,))
    rep.add_law("entwine-counit", lhs, rhs)

    # a_psi (x) Delta(c^psi) = a_psiPsi (x) c1^Psi (x) c2^psi
    lhs = ida.tensor(delta).compose(psi)
    rhs = psi.tensor(idc).compose(idc.tensor(psi)).compose(delta.tensor(ida))
    rep.add_law("entwine-comult", lhs, rhs.with_shapes((nc, na), (na, nc, nc)))

    # psi(c (x) 1) = 1 (x) c
    lhs = psi.compose(idc.tensor(u)).with_shapes((nc,), (na, nc))
    rhs = u.tensor(idc).with_shapes((nc,), (na, nc))
    rep.add_law("entwine-unit", lhs, rhs)
    return rep


# ---------------------------------------------------------------------------
# Doi-Hopf data

@dataclass(frozen=True)
class DoiHopfDatum:
    """A bialgebra H, a right H-comodule algebra A, a right H-module coalgebra C."""

    h: BialgebraData
    a: AlgebraData
    c: CoalgebraData
    coaction: CoactionData  # right: A -> A (x) H
    action: ActionData      # right: C (x) H -> C

    @property
    def field(self) -> Field:
        return self.h.field


def check_doi_hopf(d: DoiHopfDatum, subject: str = "doi-hopf") -> ValidationReport:
    rep = ValidationReport(subject)
    rep.merge(check_bialgebra(d.h, subject + ".h"))
    rep.merge(check_comodule_algebra(d.h, d.a, d.coaction, subject + ".comodule-algebra"))
    rep.merge(check_module_coalgebra(d.h, d.c, d.action, subject + ".module-coalgebra"))
    return rep


def from_doi_hopf(d: DoiHopfDatum) -> Entwining:
    """psi(c (x) a) = a_(0) (x) c . a_(1); an entwining whenever d is valid."""
    f = d.field
    na, nc, nh = d.a.dim, d.c.dim, d.h.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    # C (x) A -> C (x) A (x) H -> A (x) C (x) H -> A (x) C; the swap reorders legs
    psi = (ida.tensor(d.action.map.with_shapes((nc, nh), (nc,)))
           .compose(idc.tensor(d.coaction.map.with_shapes((na,), (na, nh)))
                    .regroup((1, 0, 2), (3, 4))))
    return Entwining(d.a, d.c, psi.with_shapes((nc, na), (na, nc)))


# ---------------------------------------------------------------------------
# entwined modules

@dataclass(frozen=True)
class EntwinedObject:
    """A right-right entwined module, with optional left structures.

    act:    M (x) A -> M
    coact:  M -> M (x) C
    lact:   A (x) M -> M        (objects of the A-bimodule flavored category)
    lcoact: M -> C (x) M        (objects of the C-bicomodule flavored category)
    """

    label: str
    dim: int
    act: LinMap
    coact: LinMap
    lact: Optional[LinMap] = None
    lcoact: Optional[LinMap] = None

    @property
    def field(self) -> Field:
        return self.act.field


def check_entwined_object(e: Entwining, m: EntwinedObject,
                          subject: Optional[str] = None) -> ValidationReport:
    rep = ValidationReport(subject or ("object " + m.label))
    f = e.field
    na, nc, dm = e.a.dim, e.c.dim, m.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    idm = LinMap.identity(f, (dm,))
    act = m.act.with_shapes((dm, na), (dm,))
    coact = m.coact.with_shapes((dm,), (dm, nc))

    rep.merge(check_action(e.a, ActionData("right", act), rep.subject + ".act"))
    rep.merge(check_coaction(e.c, CoactionData("right", coact), rep.subject + ".coact"))

    # rho(m a) = m0 a_psi (x) m1^psi
    lhs = coact.compose(act)
    rhs = (act.tensor(idc)
           .compose(idm.tensor(e.psi))
           .compose(coact.tensor(ida)))
    rep.add_law("entwined-compatibility", lhs, rhs.with_shapes((dm, na), (dm, nc)))

    if m.lact is not None:
        lact = m.lact.with_shapes((na, dm), (dm,))
        rep.merge(check_action(e.a, ActionData("left", lact), rep.subject + ".lact"))
        lhs = lact.compose(ida.tensor(act))
        rhs = act.compose(lact.tensor(ida))
        rep.add_law("bimodule-commute", lhs.with_shapes((na, dm, na), (dm,)),
                    rhs.with_shapes((na, dm, na), (dm,)))
        lhs = coact.compose(lact)
        rhs = lact.tensor(idc).compose(ida.tensor(coact))
        rep.add_law("left-action-colinear", lhs, rhs.with_shapes((na, dm), (dm, nc)))

    if m.lcoact is not None:
        lcoact = m.lcoact.with_shapes((dm,), (nc, dm))
        rep.merge(check_coaction(e.c, CoactionData("left", lcoact), rep.subject + ".lcoact"))
        lhs = idc.tensor(coact).compose(lcoact)
        rhs = lcoact.tensor(idc).compose(coact)
        rep.add_law("bicomodule-commute", lhs.with_shapes((dm,), (nc, dm, nc)),
                    rhs.with_shapes((dm,), (nc, dm, nc)))
        lhs = lcoact.compose(act)
        rhs = idc.tensor(act).compose(lcoact.tensor(ida))
        rep.add_law("left-coaction-linear", lhs, rhs.with_shapes((dm, na), (nc, dm)))
    return rep


def twisted_mult(e: Entwining) -> LinMap:
    """C (x) A (x) A -> A (x) C, c (x) b (x) a |-> b_psi a (x) c^psi."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    # psi (x) id_A followed by id_A (x) swap: its codomain legs reordered
    psi_a = e.psi.tensor(LinMap.identity(f, (na,))).regroup((0, 2, 1), (3, 4, 5))
    return e.a.mult_map().tensor(LinMap.identity(f, (nc,))).compose(psi_a)


def twisted_comult(e: Entwining) -> LinMap:
    """C (x) A -> A (x) C (x) C, c (x) a |-> a_psi (x) c1^psi (x) c2."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    # Delta (x) id_A followed by id_C (x) swap: its codomain legs reordered
    comult_a = e.c.comult_map().tensor(LinMap.identity(f, (na,))).regroup((0, 2, 1), (3, 4))
    return e.psi.tensor(LinMap.identity(f, (nc,))).compose(comult_a)


def std_object_AC(e: Entwining) -> EntwinedObject:
    """A (x) C with (b (x) c) a = b a_psi (x) c^psi, rho = id (x) Delta, a(b (x) c) = ab (x) c."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    m = e.a.mult_map()
    act = m.tensor(idc).compose(ida.tensor(e.psi)).with_shapes((na * nc, na), (na * nc,))
    coact = ida.tensor(e.c.comult_map()).with_shapes((na * nc,), (na * nc, nc))
    lact = m.tensor(idc).with_shapes((na, na * nc), (na * nc,))
    return EntwinedObject("A(x)C", na * nc, act, coact, lact=lact)


def std_object_CA(e: Entwining) -> EntwinedObject:
    """C (x) A with (c (x) a) b = c (x) ab, rho = (id (x) psi)(Delta (x) id), lambda = Delta (x) id."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    act = idc.tensor(e.a.mult_map()).with_shapes((nc * na, na), (nc * na,))
    coact = (idc.tensor(e.psi)
             .compose(e.c.comult_map().tensor(ida))).with_shapes((nc * na,), (nc * na, nc))
    lcoact = e.c.comult_map().tensor(ida).with_shapes((nc * na,), (nc, nc * na))
    return EntwinedObject("C(x)A", nc * na, act, coact, lcoact=lcoact)


def std_object_CstarA(e: Entwining) -> EntwinedObject:
    """C* (x) A in the coordinate dual basis.

    Right action: (c* (x) a) b = c* (x) ab.
    Left action:  b (c* (x) a) = sum_i <c*, d_i^psi> d_i* (x) b_psi a.
    Coaction:     rho(c* (x) a) = sum_i d_i* * c* (x) a_psi (x) d_i^psi
    with * the convolution product.
    """
    na, nc = e.a.dim, e.c.dim
    act = LinMap.identity(e.field, (nc,)).tensor(e.a.mult_map()).with_shapes(
        (nc * na, na), (nc * na,))
    # legs of twisted_mult: (b_psi a, c^psi | c, b, a); of twisted_comult:
    # (a_psi, c1^psi, c2 | c, a)
    lact = twisted_mult(e).regroup((2, 0), (3, 1, 4)).with_shapes(
        (na, nc * na), (nc * na,))
    coact = twisted_comult(e).regroup((3, 0, 1), (2, 4)).with_shapes(
        (nc * na,), (nc * na, nc))
    return EntwinedObject("C*(x)A", nc * na, act, coact, lact=lact)


def std_object_AstarC(e: Entwining) -> EntwinedObject:
    """A* (x) C in the coordinate dual basis.

    Right action:       (a* (x) c) b = sum_i <a*, b_psi a_i> a_i* (x) c^psi.
    Right coaction:     rho = id (x) Delta.
    Left coaction:      lambda(a* (x) c) = sum_i <a*, a_i_psi> c1^psi (x) a_i* (x) c2
    with psi applied to (c1 (x) a_i).  This is the unique uniform formula
    compatible with the counit, coassociativity, bicomodule, and
    right-linearity laws (solved for, then frozen).
    """
    na, nc = e.a.dim, e.c.dim
    coact = LinMap.identity(e.field, (na,)).tensor(e.c.comult_map()).with_shapes(
        (na * nc,), (na * nc, nc))
    act = twisted_mult(e).regroup((4, 1), (0, 2, 3)).with_shapes((na * nc, na), (na * nc,))
    lcoact = twisted_comult(e).regroup((1, 4, 2), (0, 3)).with_shapes(
        (na * nc,), (nc, na * nc))
    return EntwinedObject("A*(x)C", na * nc, act, coact, lcoact=lcoact)


# ---------------------------------------------------------------------------
# inverse entwinings and adjunctions

def invert_psi(e: Entwining):
    """(phi, report) where phi = psi^{-1}, or (None, report) when singular.

    A two-sided inverse automatically satisfies the mirrored counit and
    comultiplication laws; both are re-verified exactly and recorded.
    """
    rep = ValidationReport("psi-inverse")
    phi = e.psi.inverse()
    if phi is None:
        from .structures import Violation
        rep.violations.append(Violation("psi-invertible", (), "matrix is singular"))
        return None, rep
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    eps = e.c.counit_map()
    delta = e.c.comult_map()
    phi = phi.with_shapes((na, nc), (nc, na))

    lhs = eps.tensor(ida).compose(phi).with_shapes((na, nc), (na,))
    rhs = ida.tensor(eps).with_shapes((na, nc), (na,))
    rep.add_law("inverse-counit", lhs, rhs)

    lhs = delta.tensor(ida).compose(phi)
    rhs = idc.tensor(phi).compose(phi.tensor(idc)).compose(ida.tensor(delta))
    rep.add_law("inverse-comult", lhs, rhs.with_shapes((na, nc), (nc, nc, na)))
    return phi, rep


def adjunction_check(e: Entwining, m: EntwinedObject,
                     subject: Optional[str] = None) -> ValidationReport:
    """Triangle identities and unit/counit morphism laws on one sample object.

    Coaction-forgetting side: the unit is the coaction itself (must be
    A-linear and colinear), the counit is id (x) counit.  Action-forgetting
    side: the unit inserts the algebra unit, the counit is the action.
    """
    rep = ValidationReport(subject or ("adjunction on " + m.label))
    f = e.field
    na, nc, dm = e.a.dim, e.c.dim, m.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    idm = LinMap.identity(f, (dm,))
    act = m.act.with_shapes((dm, na), (dm,))
    coact = m.coact.with_shapes((dm,), (dm, nc))
    eps = e.c.counit_map()
    u = e.a.unit_map()

    # unit of (forget-coaction, - (x) C) is a morphism
    lhs = coact.compose(act)
    rhs = (act.tensor(idc).compose(idm.tensor(e.psi))
           .compose(coact.tensor(ida)))
    rep.add_law("unit-linear", lhs, rhs.with_shapes((dm, na), (dm, nc)))
    lhs = coact.tensor(idc).compose(coact)
    rhs = idm.tensor(e.c.comult_map()).compose(coact)
    rep.add_law("unit-colinear", lhs.with_shapes((dm,), (dm, nc, nc)),
                rhs.with_shapes((dm,), (dm, nc, nc)))
    # triangles
    lhs = idm.tensor(eps).compose(coact).with_shapes((dm,), (dm,))
    rep.add_law("triangle-counit-after-unit", lhs, idm)
    lhs = (idm.tensor(eps).tensor(idc)
           .compose(idm.tensor(e.c.comult_map())).with_shapes((dm, nc), (dm, nc)))
    rep.add_law("triangle-on-free-comodule", lhs, LinMap.identity(f, (dm, nc)))

    # counit of (- (x) A, forget-action) is a morphism
    lhs = act.compose(act.tensor(ida))
    rhs = act.compose(idm.tensor(e.a.mult_map()))
    rep.add_law("counit-linear", lhs.with_shapes((dm, na, na), (dm,)),
                rhs.with_shapes((dm, na, na), (dm,)))
    # triangles
    lhs = act.compose(idm.tensor(u)).with_shapes((dm,), (dm,))
    rep.add_law("triangle-unit-after-counit", lhs, idm)
    lhs = (idm.tensor(e.a.mult_map())
           .compose(idm.tensor(u).tensor(ida)).with_shapes((dm, na), (dm, na)))
    rep.add_law("triangle-on-free-module", lhs, LinMap.identity(f, (dm, na)))
    return rep
