"""Separability and Frobenius analysis for the action-forgetting adjunction.

G' forgets the action of an entwined module; - (x) A is its left adjoint.
The relevant solution spaces are

  V1': functionals vartheta: C (x) A -> k balancing comultiplication
       against the psi-twist;
  W1': maps e: C -> A (x) A that are coassociative under the twist and
       centralize multiplication.

Separability of either functor is affine feasibility; the Frobenius property
searches for a compatible pair (vartheta, e), either directly or through an
isomorphism C (x) A ~ A* (x) C in the bicomodule category.
"""

from __future__ import annotations

from .entwining import (
    Entwining,
    invert_psi,
    std_object_AstarC,
    std_object_CA,
    twisted_mult,
)
from .exactlin import (
    InternalCheckError,
    LinearLaws,
    LinMap,
    SolutionSpace,
    Term,
    basis_vec,
    iter_multi,
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

FROBENIUS_PRIME_CS = ConstraintSet(right_A_linear=True, right_C_colinear=True,
                                   left_C_colinear=True)


# ---------------------------------------------------------------------------
# the two solution spaces

def _vartheta_law(e: Entwining, vt: LinMap) -> LinMap:
    """vartheta(c1 (x) a_psi) c2^psi - c1 vartheta(c2 (x) a), as one map."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    v = vt.with_shapes((nc, na), (1,))
    lhs = (v.tensor(idc)
           .compose(idc.tensor(e.psi))
           .compose(e.c.comult_map().tensor(ida)))
    rhs = idc.tensor(v).compose(e.c.comult_map().tensor(ida))
    return lhs.with_shapes((nc, na), (nc,)).sub(rhs.with_shapes((nc, na), (nc,)))


def vartheta_residual(e: Entwining, vt: LinMap) -> list[str]:
    return [] if _vartheta_law(e, vt).is_zero() else ["vartheta-balance"]


def compute_V1prime(e: Entwining) -> SolutionSpace:
    """Basis of the vartheta space, each element a functional on C (x) A."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    split = e.c.comult_map().tensor(ida)
    # the law of _vartheta_law, with vartheta as the unknown
    laws = LinearLaws(f, nc * na, 1)
    laws.add(Term(after=nc, right=idc.tensor(e.psi).compose(split)),
             Term(-1, before=nc, right=split))
    return SolutionSpace(laws.maps((nc, na), (1,)), lambda vt: vartheta_residual(e, vt))


def _e_laws(e: Entwining, em: LinMap) -> list[tuple[str, LinMap]]:
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    m = e.a.mult_map()
    delta = e.c.comult_map()
    emap = em.with_shapes((nc,), (na, na))

    # e(c1) (x) c2 = double psi push-through of c1 (x) e(c2)
    lhs = emap.tensor(idc).compose(delta)
    rhs = (ida.tensor(e.psi)
           .compose(e.psi.tensor(ida))
           .compose(idc.tensor(emap))
           .compose(delta))
    coassoc = lhs.with_shapes((nc,), (na, na, nc)).sub(
        rhs.with_shapes((nc,), (na, na, nc)))

    # e1(c) (x) e2(c) a = a_psi e1(c^psi) (x) e2(c^psi)
    lhs = ida.tensor(m).compose(emap.tensor(ida))
    rhs = m.tensor(ida).compose(ida.tensor(emap)).compose(e.psi)
    central = lhs.with_shapes((nc, na), (na, na)).sub(
        rhs.with_shapes((nc, na), (na, na)))
    return [("e-coaction-shift", coassoc), ("e-central", central)]


def e_residual(e: Entwining, em: LinMap) -> list[str]:
    return [name for name, diff in _e_laws(e, em) if not diff.is_zero()]


def compute_W1prime(e: Entwining) -> SolutionSpace:
    """Basis of the Casimir-style space of maps C -> A (x) A."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    m = e.a.mult_map()
    delta = e.c.comult_map()
    # the laws of _e_laws, with e as the unknown
    laws = LinearLaws(f, nc, na * na)
    laws.add(Term(after=nc, right=delta),
             Term(-1, left=ida.tensor(e.psi).compose(e.psi.tensor(ida)),
                  before=nc, right=delta))
    laws.add(Term(left=ida.tensor(m), after=na),
             Term(-1, left=m.tensor(ida), before=na, right=e.psi))
    return SolutionSpace(laws.maps((nc,), (na, na)), lambda em: e_residual(e, em))


# ---------------------------------------------------------------------------
# separability

def Fprime_separable(e: Entwining) -> Verdict:
    """Is - (x) A separable?  Needs vartheta with vartheta(c (x) 1) = eps(c)."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    v1 = compute_V1prime(e)
    unit_leg = LinMap.identity(f, (nc,)).tensor(
        LinMap.const(f, list(e.a.unit), (na,))).with_shapes((nc,), (nc, na))
    return decide_normalized(
        f, "Fp-sep", v1, LinMap.zero_map(f, (nc, na), (1,)),
        lambda vt: flat(vt.compose(unit_leg)), e.c.counit, "vartheta",
        ("vartheta-laws", "counit-normalization"),
        ("counit normalization is infeasible over the vartheta space",
         "normalized vartheta found"), {"V1prime_dim": v1.dim})


def Gprime_separable(e: Entwining) -> Verdict:
    """Is forgetting the action separable?  Needs e with m . e = unit . counit."""
    na, nc = e.a.dim, e.c.dim
    w1 = compute_W1prime(e)
    m = e.a.mult_map()
    return decide_normalized(
        e.field, "Gp-sep", w1, LinMap.zero_map(e.field, (nc,), (na, na)),
        lambda em: flat(m.compose(em)), flat(e.a.unit_map().compose(e.c.counit_map())),
        "e", ("e-laws", "mult-normalization"),
        ("multiplication normalization is infeasible over the e space",
         "separating e-map found"), {"W1prime_dim": w1.dim})


# ---------------------------------------------------------------------------
# Frobenius

def _frobenius_condition_maps(e: Entwining, em: LinMap, vt: LinMap):
    """Both normalization maps C -> A for a pair (vartheta, e)."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    v = vt.with_shapes((nc, na), (1,))
    emap = em.with_shapes((nc,), (na, na))
    delta = e.c.comult_map()

    # c |-> vartheta(c1 (x) e1(c2)) e2(c2)
    first = (v.tensor(ida)
             .compose(idc.tensor(emap))
             .compose(delta)).with_shapes((nc,), (na,))
    # c |-> e1(c2)_psi vartheta(c1^psi (x) e2(c2))
    second = (ida.tensor(v)
              .compose(e.psi.tensor(ida))
              .compose(idc.tensor(emap))
              .compose(delta)).with_shapes((nc,), (na,))
    return first, second


def frobenius_prime_residual(e: Entwining, vt: LinMap, em: LinMap) -> list[str]:
    bad = vartheta_residual(e, vt) + e_residual(e, em)
    target = e.a.unit_map().compose(e.c.counit_map()).with_shapes(
        (e.c.dim,), (e.a.dim,))
    first, second = _frobenius_condition_maps(e, em, vt)
    if first != target:
        bad.append("frobenius-normalization-plain")
    if second != target:
        bad.append("frobenius-normalization-twisted")
    return bad


def _extract_vartheta(e: Entwining, iso: LinMap) -> LinMap:
    """vartheta(c (x) a) = <iso(c (x) a), 1 (x) counit>."""
    na, nc = e.a.dim, e.c.dim
    pair = e.a.unit_map().transpose().tensor(e.c.counit_map())
    return pair.compose(iso.with_shapes((nc, na), (na, nc))).with_shapes((nc, na), (1,))


def _extract_e(e: Entwining, iso_inv: LinMap) -> LinMap:
    """e(c) = sum_i a_i (x) (counit (x) id) iso_inv(a_i* (x) c)."""
    na, nc = e.a.dim, e.c.dim
    counit_leg = e.c.counit_map().tensor(LinMap.identity(e.field, (na,)))
    # legs (t | a_i*, c)
    return (counit_leg.compose(iso_inv.with_shapes((na, nc), (nc, na)))
            .with_shapes((na, nc), (na,)).regroup((1, 0), (2,)))


def frobenius_prime_system(e: Entwining) -> BilinearSystem:
    """The normalization laws of a pair (vartheta, e), bilinear in e in
    W1' and vartheta in V1'."""
    na, nc = e.a.dim, e.c.dim
    v1 = compute_V1prime(e)
    w1 = compute_W1prime(e)
    target = flat(e.a.unit_map().compose(e.c.counit_map()).with_shapes((nc,), (na,)))
    return BilinearSystem(
        e.field, w1.basis, v1.basis, LinMap.zero_map(e.field, (nc, na), (1,)),
        lambda em, vt: [x for m in _frobenius_condition_maps(e, em, vt) for x in flat(m)],
        target + target)


def FprimeGprime_frobenius(e: Entwining, cfg: SearchConfig = SearchConfig(),
                           route: str = "auto") -> Verdict:
    """Is (- (x) A, forget-action) a Frobenius pair?

    route="search" scans the e space projectively and solves for vartheta;
    route="iso" looks for an invertible bicomodule morphism
    C (x) A -> A* (x) C; route="auto" chains them.
    """
    return decide_frobenius(FrobeniusProblem(
        "FpGp-frob", "pair", system=lambda: frobenius_prime_system(e),
        dims=("V1prime_dim", "W1prime_dim"),
        witness=lambda em, vt: {"vartheta": vt, "e": em},
        residual=lambda w: frobenius_prime_residual(e, w["vartheta"], w["e"]),
        iso=lambda: iso_frobenius(
            "FpGp-frob", e, std_object_CA(e),
            std_object_AstarC(e), FROBENIUS_PRIME_CS, cfg, "bicomodule",
            lambda iso, inv: {"vartheta": _extract_vartheta(e, iso),
                              "e": _extract_e(e, inv)})),
        cfg, route)


# ---------------------------------------------------------------------------
# converters

def e_to_omega(e: Entwining, em: LinMap) -> LinMap:
    """The morphism A* (x) C -> C (x) A attached to e.

    omega(a* (x) c) = <a*, e1(c2)_psi> c1^psi (x) e2(c2), with psi applied
    to (c1 (x) e1(c2)).
    """
    f = e.field
    na, nc = e.a.dim, e.c.dim
    # legs (e1(c2)_psi, c1^psi, e2(c2) | c)
    return (e.psi.tensor(LinMap.identity(f, (na,)))
            .compose(LinMap.identity(f, (nc,)).tensor(em.with_shapes((nc,), (na, na))))
            .compose(e.c.comult_map())).regroup((1, 2), (0, 3))


def omega_to_e(e: Entwining, omega: LinMap) -> LinMap:
    return _extract_e(e, omega.with_shapes((e.a.dim * e.c.dim,),
                                           (e.c.dim * e.a.dim,)))


def vartheta_to_omegabar(e: Entwining, vt: LinMap) -> LinMap:
    """The morphism C (x) A -> A* (x) C attached to vartheta.

    omegabar(c (x) a) = sum_i vartheta(c1 (x) a_psi a_i) a_i* (x) c2^psi,
    with psi applied to (c2 (x) a).
    """
    f = e.field
    na, nc = e.a.dim, e.c.dim
    idc = LinMap.identity(f, (nc,))
    # legs (c2^psi | c, a, a_i)
    return (vt.with_shapes((nc, na), (1,)).tensor(idc)
            .compose(idc.tensor(twisted_mult(e)))
            .compose(e.c.comult_map().tensor(LinMap.identity(f, (na, na))))
            .with_shapes((nc, na, na), (nc,))).regroup((3, 0), (1, 2))


def omegabar_to_vartheta(e: Entwining, omegabar: LinMap) -> LinMap:
    return _extract_vartheta(e, omegabar.with_shapes((e.c.dim * e.a.dim,),
                                                     (e.a.dim * e.c.dim,)))


# ---------------------------------------------------------------------------
# dual bases

def dual_basis_A(e: Entwining, vt: LinMap, em: LinMap):
    """Dual basis of A built from a Frobenius pair, for invertible psi.

    Fix c with eps(c) = 1 and expand (id (x) e) Delta(c) = sum_i c_i (x) b_i
    (x) a_i.  The elements are the a_i; the functional paired with a_i sends
    a to vartheta(c_i^phi (x) a_phi b_i), phi = psi^{-1} applied to (a (x) c_i).
    Returns (basis, resolves_identity); fails loudly when psi is singular.
    """
    f = e.field
    na, nc = e.a.dim, e.c.dim
    phi, _ = invert_psi(e)
    if phi is None:
        raise InternalCheckError("dual basis requires invertible psi")
    pick = next((i for i in range(nc) if e.c.counit[i]), None)
    if pick is None:
        raise InternalCheckError("counit is zero; no normalized c exists")
    scale = f.one / e.c.counit[pick]
    c_vec = [scale * x for x in basis_vec(f, nc, pick)]

    emap = em.with_shapes((nc,), (na, na))
    idc = LinMap.identity(f, (nc,))
    spread = idc.tensor(emap).compose(e.c.comult_map()).with_shapes(
        (nc,), (nc, na, na))
    coeffs = spread.apply(list(c_vec))

    elements = []
    functionals = []
    v = vt.with_shapes((nc, na), (1,))
    for (u, s, t), w in zip(iter_multi((nc, na, na)), coeffs):
        if not w:
            continue
        elements.append(tuple(basis_vec(f, na, t)))
        # a |-> w * vartheta(phi(a (x) e_u) multiplied into e_s)
        lift = phi.compose(
            LinMap.identity(f, (na,)).tensor(LinMap.const(f, basis_vec(f, nc, u), (nc,))))
        func = (v.compose(idc.tensor(e.a.rmult(basis_vec(f, na, s))))
                .compose(lift.with_shapes((na,), (nc, na)))
                .scale(w)).with_shapes((na,), (1,))
        functionals.append(func)

    # resolution of identity: a |-> sum_i a_i sigma_i(a)
    resolver = LinMap.zero_map(f, (na,), (na,))
    for el, func in zip(elements, functionals):
        outer = LinMap.const(f, list(el), (na,)).compose(
            func.with_shapes((na,), (1,)))
        resolver = resolver.add(outer.with_shapes((na,), (na,)))
    ok = resolver == LinMap.identity(f, (na,))
    note = "dual basis of A from a Frobenius pair, via the inverse entwining"
    return DualBasis(tuple(elements), tuple(functionals), note), ok
