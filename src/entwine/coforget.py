"""Separability and Frobenius analysis for the coaction-forgetting adjunction.

F forgets the coaction of an entwined module; its right adjoint is - (x) C.
All questions reduce to exact linear algebra over two solution spaces:

  V1: maps theta: C (x) C -> A satisfying a centrality law and a
      comultiplication-compatibility law;
  W1: elements z of A (x) C centralized by A, where the right A-action on
      A (x) C runs through psi.

Separability of either functor is an affine feasibility question over V1 or
W1.  The Frobenius property asks for a compatible pair (theta, z); it is
decided either by scanning W1 candidates and solving linearly for theta
("search" route), or through an isomorphism A (x) C ~ C* (x) A in the
bimodule category, from which a pair is extracted ("iso" route).
"""

from __future__ import annotations

from typing import Sequence

from .entwining import (
    Entwining,
    std_object_AC,
    std_object_CstarA,
    twisted_comult,
)
from .exactlin import (
    LinearLaws,
    LinMap,
    ShapeError,
    SolutionSpace,
    Term,
    basis_vec,
    iter_multi,
    kron_vec,
    vec_is_zero,
)
from .homspaces import (
    BilinearSystem,
    ConstraintSet,
    FrobeniusProblem,
    SearchConfig,
    Verdict,
    decide_frobenius,
    decide_normalized,
    flat,
    iso_frobenius,
)
from .structures import DualBasis

FROBENIUS_CS = ConstraintSet(right_A_linear=True, right_C_colinear=True,
                             left_A_linear=True)


def _theta_laws(e: Entwining, theta: LinMap) -> list[tuple[str, LinMap]]:
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    m = e.a.mult_map()
    th = theta.with_shapes((nc, nc), (na,))

    # theta is central for the psi-twisted multiplications
    lhs = m.compose(th.tensor(ida))
    rhs = (m.compose(ida.tensor(th))
           .compose(e.psi.tensor(idc))
           .compose(idc.tensor(e.psi)))
    central = lhs.with_shapes((nc, nc, na), (na,)).sub(
        rhs.with_shapes((nc, nc, na), (na,)))

    # theta twisted around comultiplication
    lhs = th.tensor(idc).compose(idc.tensor(e.c.comult_map()))
    rhs = e.psi.compose(idc.tensor(th)).compose(e.c.comult_map().tensor(idc))
    comult = lhs.with_shapes((nc, nc), (na, nc)).sub(
        rhs.with_shapes((nc, nc), (na, nc)))
    return [("theta-central", central), ("theta-comult", comult)]


def theta_residual(e: Entwining, theta: LinMap) -> list[str]:
    return [name for name, diff in _theta_laws(e, theta) if not diff.is_zero()]


def compute_V1(e: Entwining) -> SolutionSpace:
    """Basis of the theta-space, each element a map C (x) C -> A."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    idc = LinMap.identity(f, (nc,))
    m = e.a.mult_map()
    delta = e.c.comult_map()
    # the laws of _theta_laws, with theta as the unknown
    laws = LinearLaws(f, nc * nc, na)
    laws.add(Term(left=m, after=na),
             Term(-1, left=m, before=na,
                  right=e.psi.tensor(idc).compose(idc.tensor(e.psi))))
    laws.add(Term(after=nc, right=idc.tensor(delta)),
             Term(-1, left=e.psi, before=nc, right=delta.tensor(idc)))
    return SolutionSpace(laws.maps((nc, nc), (na,)), lambda th: theta_residual(e, th))


def z_residual(e: Entwining, z: Sequence) -> list[str]:
    """The labels of the basis elements b of A with b z != z b, for one z
    in A (x) C, where (x (x) c) b = x b_psi (x) c^psi; evaluated on z from
    the structure constants of A and psi, not through the maps whose law
    `compute_W1` solves."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    if len(z) != na * nc:
        raise ShapeError("z has length %d, want %d" % (len(z), na * nc))
    mult = e.a.mult
    # psi_img[c][b]: the nonzero (a2, c2, coefficient) of psi(e_c (x) e_b)
    psi_img = [[[(a2, c2, p) for a2, c2 in iter_multi((na, nc))
                 if (p := e.psi_entry(a2, c2, c, b))] for b in range(na)] for c in range(nc)]
    terms = [(idx // nc, idx % nc, x) for idx, x in enumerate(z) if x]
    bad = []
    for beta in range(na):
        diff = [f.zero] * (na * nc)
        for i, j, x in terms:
            for t, m in enumerate(mult[beta][i]):  # b z
                if m:
                    diff[t * nc + j] += m * x
            for a2, c2, p in psi_img[j][beta]:  # z_A b_psi (x) z_C^psi
                for t, m in enumerate(mult[i][a2]):
                    if m:
                        diff[t * nc + c2] -= m * p * x
        if not vec_is_zero(diff):
            bad.append("z-central@a%d" % beta)
    return bad


def compute_W1(e: Entwining) -> SolutionSpace:
    """Basis of the centralized elements of A (x) C."""
    na, nc = e.a.dim, e.c.dim
    # b z = z b as maps A -> A (x) C, b |-> b z and b |-> z b
    laws = LinearLaws(e.field, 1, na * nc)
    laws.add(Term(left=e.a.mult_map().tensor(LinMap.identity(e.field, (nc,))), before=na),
             Term(-1, left=std_object_AC(e).act, after=na))
    return SolutionSpace(laws.kernel(), lambda z: z_residual(e, z))


# ---------------------------------------------------------------------------
# separability

def F_separable(e: Entwining) -> Verdict:
    """Does forgetting the coaction give a separable functor?

    Equivalent to a theta in V1 with theta . Delta = unit . counit; decided
    by one exact linear solve, so the answer is always definitive.
    """
    na, nc = e.a.dim, e.c.dim
    v1 = compute_V1(e)
    return decide_normalized(
        e.field, "F-sep", v1, LinMap.zero_map(e.field, (nc, nc), (na,)),
        lambda th: flat(th.compose(e.c.comult_map()).with_shapes((nc,), (na,))),
        flat(e.a.unit_map().compose(e.c.counit_map())), "theta",
        ("theta-laws", "counit-normalization"),
        ("counit normalization is infeasible over the theta space",
         "normalized theta found"), {"V1_dim": v1.dim})


def G_separable(e: Entwining) -> Verdict:
    """Is - (x) C separable?  Needs z in W1 with (id (x) counit) z = 1."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    w1 = compute_W1(e)
    counit_leg = LinMap.identity(f, (na,)).tensor(e.c.counit_map()).with_shapes(
        (na * nc,), (na,))
    return decide_normalized(
        f, "G-sep", w1, (f.zero,) * (na * nc), counit_leg.apply, e.a.unit, "z",
        ("z-laws", "unit-normalization"),
        ("unit normalization is infeasible over the z space",
         "normalized integral found"), {"W1_dim": w1.dim})


# ---------------------------------------------------------------------------
# Frobenius

def _frobenius_condition_maps(e: Entwining, z: Sequence, theta: LinMap):
    """The two normalization maps C -> A evaluated for a concrete pair."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    m = e.a.mult_map()
    th = theta.with_shapes((nc, nc), (na,))
    zc = LinMap.const(f, list(z), (na, nc))

    # d |-> sum_l a_l theta(c_l (x) d)
    first = (m.compose(ida.tensor(th))
             .compose(zc.tensor(idc)).with_shapes((nc,), (na,)))
    # d |-> sum_l a_l_psi theta(d^psi (x) c_l)
    second = (m.compose(ida.tensor(th))
              .compose(e.psi.tensor(idc))
              .compose(idc.tensor(zc)).with_shapes((nc,), (na,)))
    return first, second


def frobenius_residual(e: Entwining, theta: LinMap, z: Sequence) -> list[str]:
    """Violated conditions for a claimed Frobenius pair (theta, z)."""
    bad = theta_residual(e, theta) + z_residual(e, z)
    target = e.a.unit_map().compose(e.c.counit_map()).with_shapes(
        (e.c.dim,), (e.a.dim,))
    first, second = _frobenius_condition_maps(e, z, theta)
    if first != target:
        bad.append("frobenius-normalization-plain")
    if second != target:
        bad.append("frobenius-normalization-twisted")
    return bad


def _extract_theta(e: Entwining, iso: LinMap) -> LinMap:
    """theta(d (x) c) = iso(1 (x) c) evaluated at d."""
    na, nc = e.a.dim, e.c.dim
    unit_leg = e.a.unit_map().tensor(LinMap.identity(e.field, (nc,))).with_shapes(
        (nc,), (na, nc))
    # legs (d, s | c) of C* (x) A <- C
    return iso.with_shapes((na, nc), (nc, na)).compose(unit_leg).regroup((1,), (0, 2))


def _extract_z(e: Entwining, iso_inv: LinMap):
    """z = iso^{-1}(counit (x) 1)."""
    return iso_inv.apply(kron_vec(e.c.counit, e.a.unit))


def frobenius_system(e: Entwining) -> BilinearSystem:
    """The normalization laws of a pair (theta, z), bilinear in z in W1 and
    theta in V1."""
    na, nc = e.a.dim, e.c.dim
    v1 = compute_V1(e)
    w1 = compute_W1(e)
    target = flat(e.a.unit_map().compose(e.c.counit_map()).with_shapes((nc,), (na,)))
    return BilinearSystem(
        e.field, w1.basis, v1.basis, LinMap.zero_map(e.field, (nc, nc), (na,)),
        lambda z, th: [x for m in _frobenius_condition_maps(e, z, th) for x in flat(m)],
        target + target)


def FG_frobenius(e: Entwining, cfg: SearchConfig = SearchConfig(),
                 route: str = "auto") -> Verdict:
    """Is (forget-coaction, - (x) C) a Frobenius pair?

    route="search": scan W1 candidates projectively, solving linearly for
    theta.  route="iso": look for an invertible bimodule morphism
    A (x) C -> C* (x) A and extract the pair from it.  route="auto" runs the
    search first and falls back to the isomorphism test for definitiveness.
    """
    return decide_frobenius(FrobeniusProblem(
        "FG-frob", "pair", system=lambda: frobenius_system(e), dims=("V1_dim", "W1_dim"),
        witness=lambda z, theta: {"theta": theta, "z": z},
        residual=lambda w: frobenius_residual(e, w["theta"], w["z"]),
        iso=lambda: iso_frobenius(
            "FG-frob", e, std_object_AC(e),
            std_object_CstarA(e), FROBENIUS_CS, cfg, "bimodule",
            lambda iso, inv: {"theta": _extract_theta(e, iso), "z": _extract_z(e, inv)})),
        cfg, route)


# ---------------------------------------------------------------------------
# converters between descriptions

def theta_to_phibar(e: Entwining, theta: LinMap) -> LinMap:
    """The morphism A (x) C -> C* (x) A attached to theta.

    phibar(a (x) c) = sum_i d_i* (x) a_psi theta(d_i^psi (x) c).
    """
    f = e.field
    na, nc = e.a.dim, e.c.dim
    th = theta.with_shapes((nc, nc), (na,))
    # legs (a_psi theta(d^psi (x) c) | d, a, c)
    return (e.a.mult_map()
            .compose(LinMap.identity(f, (na,)).tensor(th))
            .compose(e.psi.tensor(LinMap.identity(f, (nc,))))).regroup((1, 0), (2, 3))


def phibar_to_theta(e: Entwining, phibar: LinMap) -> LinMap:
    return _extract_theta(e, phibar.with_shapes((e.a.dim * e.c.dim,),
                                                (e.c.dim * e.a.dim,)))


def z_to_phi(e: Entwining, z: Sequence) -> LinMap:
    """The morphism C* (x) A -> A (x) C attached to z.

    phi(c* (x) a) = sum_l a_l a_psi (x) <c*, c_l(2)> c_l(1)^psi.
    """
    f = e.field
    na, nc = e.a.dim, e.c.dim
    idc = LinMap.identity(f, (nc,))
    zc = LinMap.const(f, list(z), (na, nc)).tensor(LinMap.identity(f, (na,)))
    # legs (a_l a_psi, c_l(1)^psi, c_l(2) | a)
    return (e.a.mult_map().tensor(idc).tensor(idc)
            .compose(LinMap.identity(f, (na,)).tensor(twisted_comult(e)))
            .compose(zc.with_shapes((na,), (na, nc, na)))).regroup((0, 1), (2, 3))


def phi_to_z(e: Entwining, phi: LinMap):
    return _extract_z(e, phi)


# ---------------------------------------------------------------------------
# dual bases

def dual_basis_AC(e: Entwining, theta: LinMap, z: Sequence) -> tuple[DualBasis, bool]:
    """Dual basis for A (x) C as a left A-module, built from a Frobenius pair.

    Elements are 1 (x) c_j; the functional for c_j collects the A-leg of
    sum_l a_l_psi theta(d^psi (x) c_l(1)) (x) c_l(2) at C-coordinate j.
    The pair resolves the identity because that sum collapses to 1 (x) d.
    Returns the basis and whether the resolution holds.
    """
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    m = e.a.mult_map()
    th = theta.with_shapes((nc, nc), (na,))
    zc = LinMap.const(f, list(z), (na, nc))

    # S: C -> A (x) C,  d |-> sum a_l_psi theta(d^psi (x) c_l(1)) (x) c_l(2)
    s_map = (m.tensor(idc)
             .compose(ida.tensor(th).tensor(idc))
             .compose(e.psi.tensor(idc).tensor(idc))
             .compose(idc.tensor(ida).tensor(e.c.comult_map()))
             .compose(idc.tensor(zc))).with_shapes((nc,), (na, nc))

    # P(a (x) d) = a . S(d) componentwise in A, keeping the C leg
    p_map = (m.tensor(idc)
             .compose(ida.tensor(s_map))).with_shapes((na, nc), (na, nc))

    functionals = []
    elements = []
    rows = p_map.mat  # row alpha * nc + j of P, for alpha in A
    for j in range(nc):
        functionals.append(LinMap(f, (na, nc), (na,), rows[j::nc]))
        elements.append(tuple(kron_vec(list(e.a.unit), basis_vec(f, nc, j))))

    ok = p_map == LinMap.identity(f, (na * nc,)).with_shapes((na, nc), (na, nc))
    note = "left A-module dual basis for A (x) C from a Frobenius pair"
    return DualBasis(tuple(elements), tuple(functionals), note), ok
