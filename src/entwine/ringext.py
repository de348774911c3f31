"""Splitting, separability, and Frobenius analysis for ring extensions.

An extension is a unital algebra map i: R -> S between finite-dimensional
algebras.  The module tensor product S (x)_R S is realized as an explicit
quotient of S (x) S, and every question becomes exact linear algebra:

  V1: R-bimodule maps S -> R (conditional expectations, unnormalized);
  W1: Casimir elements of S (x)_R S.

The extension splits iff some nu in V1 has nu(1) = 1, is separable iff some
Casimir e multiplies to 1, and is Frobenius iff a pair (nu, e) satisfies
both normalizations i(nu(e1)) e2 = 1 = e1 i(nu(e2)).  The Frobenius question
is also decided structurally: S finitely generated projective over R plus
an invertible morphism from S to the twisted right-dual Hom_R(S, R).

Each space is the solution of laws in the structure maps.  The relations of
S (x)_R S are the columns of one map S (x) R (x) S -> S (x) S,
s (x) r (x) t |-> s i(r) (x) t - s (x) i(r) t.  A morphism phi into the
right dual is solved for in coordinates of a basis of Hom_R(S, R), and its
two bimodule laws are stated on D . phi, where the injective map D sends
those coordinates to Hom_R(S, R) inside R (x) S*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    Field,
    InternalCheckError,
    LinearLaws,
    LinMap,
    SolutionSpace,
    Term,
    basis_vec,
    cokernel,
    nullspace,
    solve_linear,
    vec_is_zero,
)
from .homspaces import (
    BilinearSystem,
    FrobeniusProblem,
    SearchConfig,
    Verdict,
    combine,
    decide_frobenius,
    decide_normalized,
    find_invertible_in_span,
    flat,
)
from .structures import (
    AlgebraData,
    DualBasis,
    ValidationReport,
    Violation,
    check_algebra,
    check_algebra_map,
)


@dataclass(frozen=True)
class RingExtension:
    """A unital algebra map i: R -> S, with both algebras by structure constants."""

    r: AlgebraData
    s: AlgebraData
    embedding: LinMap

    @property
    def field(self) -> Field:
        return self.r.field


def check_extension(ext: RingExtension) -> ValidationReport:
    rep = check_algebra(ext.r, "base algebra")
    rep.merge(check_algebra(ext.s, "total algebra"))
    rep.merge(check_algebra_map(ext.r, ext.s, ext.embedding, "embedding"))
    for ker in nullspace(ext.field, ext.embedding.mat):
        if not vec_is_zero(ker):
            rep.violations.append(Violation("embedding-injective", (),
                                            "kernel contains %r" % (ker,)))
            break
    return rep


# ---------------------------------------------------------------------------
# the balanced tensor product

@dataclass(frozen=True)
class TensorOverR:
    """S (x)_R S as a quotient of S (x) S.

    pi projects onto quotient coordinates, sigma is a section with
    pi . sigma = id; equality in the quotient is equality after pi.
    """

    ext: RingExtension
    pi: LinMap
    sigma: LinMap
    relations: tuple

    @property
    def dim(self) -> int:
        return self.pi.dim_cod


def tensor_over_R(ext: RingExtension) -> TensorOverR:
    ms, ids = ext.s.mult_map(), LinMap.identity(ext.field, (ext.s.dim,))
    # s (x) r (x) t |-> s i(r) (x) t - s (x) i(r) t; its columns span the relations
    rel = (ms.compose(ids.tensor(ext.embedding)).tensor(ids)
           .sub(ids.tensor(ms.compose(ext.embedding.tensor(ids)))))
    return TensorOverR(ext, *cokernel(rel))


def quotient_mult(t: TensorOverR) -> LinMap:
    """The induced multiplication S (x)_R S -> S."""
    return t.ext.s.mult_map().compose(t.sigma.with_shapes(
        (t.dim,), (t.ext.s.dim, t.ext.s.dim)))


def _casimir_ops(t: TensorOverR) -> list[LinMap]:
    """Per S-basis element: act on the left minus act on the right, on the quotient."""
    f = t.ext.field
    ns = t.ext.s.dim
    ids = LinMap.identity(f, (ns,))
    sig = t.sigma.with_shapes((t.dim,), (ns, ns))
    ops = []
    for a in range(ns):
        sa = basis_vec(f, ns, a)
        diff = (t.ext.s.lmult(sa).tensor(ids)
                .sub(ids.tensor(t.ext.s.rmult(sa))))
        ops.append(t.pi.compose(diff).compose(sig))
    return ops


def casimir_residual(t: TensorOverR, vec) -> list[str]:
    """Whether s e = e s for every basis element s of S, for one e given in
    quotient coordinates; evaluated on e from the structure constants, not
    through the operators `compute_casimir` solves."""
    f = t.ext.field
    ns = t.ext.s.dim
    mult = t.ext.s.mult
    lift = t.sigma.apply(vec)
    for a in range(ns):
        diff = [f.zero] * (ns * ns)
        for i in range(ns):
            for j in range(ns):
                w = lift[i * ns + j]
                if not w:
                    continue
                for k, m in enumerate(mult[a][i]):  # s_a s_i (x) s_j
                    if m:
                        diff[k * ns + j] += m * w
                for k, m in enumerate(mult[j][a]):  # s_i (x) s_j s_a
                    if m:
                        diff[i * ns + k] -= m * w
        if not vec_is_zero(t.pi.apply(diff)):
            return ["casimir-central"]
    return []


def compute_casimir(t: TensorOverR) -> SolutionSpace:
    """Basis of {e in S (x)_R S : s e = e s for all s}, in quotient coordinates."""
    laws = LinearLaws(t.ext.field, 1, t.dim)
    for op in _casimir_ops(t):
        laws.add(Term(left=op))
    return SolutionSpace(laws.kernel(), lambda v: casimir_residual(t, v))


# ---------------------------------------------------------------------------
# conditional expectations

def expectation_residual(ext: RingExtension, nu: LinMap) -> list[str]:
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    n = nu.with_shapes((ns,), (nr,))
    bad = []
    for j in range(nr):
        ij = ext.embedding.column(j)
        rj = basis_vec(f, nr, j)
        if n.compose(ext.s.lmult(ij)) != ext.r.lmult(rj).compose(n):
            bad.append("left-R-linear")
            break
    for j in range(nr):
        ij = ext.embedding.column(j)
        rj = basis_vec(f, nr, j)
        if n.compose(ext.s.rmult(ij)) != ext.r.rmult(rj).compose(n):
            bad.append("right-R-linear")
            break
    return bad


def compute_expectations(ext: RingExtension) -> SolutionSpace:
    """Basis of the R-bimodule maps S -> R."""
    laws = _r_linear_laws(ext, left=True)
    return SolutionSpace(laws.maps((ext.s.dim,), (ext.r.dim,)),
                         lambda nu: expectation_residual(ext, nu))


def _r_linear_laws(ext: RingExtension, left: bool) -> LinearLaws:
    """Laws for a map nu: S -> R to be right R-linear, nu(s i(r)) = nu(s) r,
    and if `left` also left R-linear, nu(i(r) s) = r nu(s)."""
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    laws = LinearLaws(f, ns, nr)
    for j in range(nr):
        ij = ext.embedding.column(j)
        rj = basis_vec(f, nr, j)
        if left:
            laws.add(Term(right=ext.s.lmult(ij)), Term(-1, left=ext.r.lmult(rj)))
        laws.add(Term(right=ext.s.rmult(ij)), Term(-1, left=ext.r.rmult(rj)))
    return laws


# ---------------------------------------------------------------------------
# the three questions

def split_check(ext: RingExtension) -> Verdict:
    """Does the extension split: nu in V1 with nu(1_S) = 1_R?"""
    v1 = compute_expectations(ext)
    return decide_normalized(
        ext.field, "ext-split", v1, LinMap.zero_map(ext.field, (ext.s.dim,), (ext.r.dim,)),
        lambda nu: nu.apply(ext.s.unit), ext.r.unit, "nu",
        ("expectation-laws", "unit-normalization"),
        ("no conditional expectation fixes the unit",
         "unit-fixing conditional expectation found"), {"V1_dim": v1.dim})


def separable_check(ext: RingExtension) -> Verdict:
    """Is the extension separable: Casimir e with mu(e) = 1_S?"""
    t = tensor_over_R(ext)
    w1 = compute_casimir(t)
    return decide_normalized(
        ext.field, "ext-sep", w1, (ext.field.zero,) * t.dim, quotient_mult(t).apply,
        ext.s.unit, "e", ("casimir-laws", "mult-normalization"),
        ("no Casimir element multiplies to the unit", "separability element found"),
        {"W1_dim": w1.dim, "tensor_dim": t.dim})


def _frobenius_norms(ext: RingExtension, nu: LinMap, lift) -> tuple[list, list]:
    """i(nu(e1)) e2 and e1 i(nu(e2)) for a lifted tensor in S (x) S."""
    inu = ext.embedding.compose(nu.with_shapes((ext.s.dim,), (ext.r.dim,)))
    ms, ids = ext.s.mult_map(), LinMap.identity(ext.field, (ext.s.dim,))
    return (list(ms.compose(inu.tensor(ids)).apply(lift)),
            list(ms.compose(ids.tensor(inu)).apply(lift)))


def frobenius_residual(ext: RingExtension, t: TensorOverR, nu: LinMap, evec) -> list[str]:
    bad = expectation_residual(ext, nu) + casimir_residual(t, evec)
    lift = t.sigma.apply(evec)
    first, second = _frobenius_norms(ext, nu, lift)
    one = list(ext.s.unit)
    if list(first) != one:
        bad.append("frobenius-normalization-left")
    if list(second) != one:
        bad.append("frobenius-normalization-right")
    return bad


def right_dual_space(ext: RingExtension) -> list[LinMap]:
    """Basis of Hom_R(S_R, R_R), the right R-linear maps S -> R."""
    return _r_linear_laws(ext, left=False).maps((ext.s.dim,), (ext.r.dim,))


def fg_projective_coords(ext: RingExtension, dspace: list[LinMap]):
    """Dual-basis coordinates exhibiting S as f.g. projective over R, or None.

    Solves for sigma_1..sigma_n in the right dual with
    sum_i s_i i(sigma_i(s)) = s over the basis s_i of S.
    """
    f = ext.field
    ns = ext.s.dim
    nd = len(dspace)
    if nd == 0:
        return None
    prod = ext.s.mult_map().compose(LinMap.identity(f, (ns,)).tensor(ext.embedding))
    # d_k(s_b) for every k, with legs (k, r | b)
    dual = LinMap(f, (ns,), (nd, ext.r.dim), tuple(row for d in dspace for row in d.mat))
    # rows (s_b, coordinate t of the sum), unknowns (i, k): sum_j d_k(s_b)_j (s_i i(r_j))_t
    system = prod.regroup((0, 1), (2,)).compose(dual.regroup((1,), (0, 2))).regroup((3, 0), (1, 2))
    part, _ = solve_linear(f, system.mat, flat(LinMap.identity(f, (ns,))))
    if part is None:
        return None
    return [part[i * nd:(i + 1) * nd] for i in range(ns)]


def _dual_map(ext: RingExtension, dspace: list[LinMap]) -> LinMap:
    """D: k^{nd} -> Hom(S, R), the injective map whose columns are the dual
    basis, with Hom(S, R) as R (x) S*."""
    return LinMap.from_images(ext.field, (len(dspace),), (ext.r.dim, ext.s.dim),
                              [flat(d) for d in dspace])


# ---------------------------------------------------------------------------
# converters between the expectation/Casimir picture and the dual-module one

def nu_to_phibar(ext: RingExtension, dspace: list[LinMap], nu: LinMap) -> LinMap:
    """Send an expectation to s |-> nu(s .), in right-dual coordinates.

    The image is right S-linear and left R-linear for the actions
    (r . f . s)(t) = r f(s t) whenever nu is an R-bimodule map.
    """
    ns = ext.s.dim
    d = _dual_map(ext, dspace).mat
    # row b: t |-> nu(s_b t) in R (x) S*
    rows = nu.with_shapes((ns,), (ext.r.dim,)).compose(ext.s.mult_map()).regroup((1,), (0, 2)).mat
    imgs = []
    for row in rows:
        part, _ = solve_linear(ext.field, d, row)
        if part is None:
            raise InternalCheckError("map lies outside the right dual span")
        imgs.append(part)
    return LinMap.from_images(ext.field, (ns,), (len(dspace),), imgs)


def phibar_to_nu(ext: RingExtension, dspace: list[LinMap], phibar: LinMap) -> LinMap:
    """Evaluate a morphism S -> Hom_R(S,R) at the unit of S."""
    return combine(ext.field, dspace, phibar.apply(ext.s.unit))


def e_to_phi(ext: RingExtension, t: TensorOverR, dspace: list[LinMap],
             evec) -> LinMap:
    """Send a Casimir element to f |-> i(f(e1)) e2, in right-dual coordinates."""
    f = ext.field
    ns = ext.s.dim
    # e as the map s_a* |-> sum_b e_ab s_b
    e = LinMap.const(f, t.sigma.apply(evec), (ns, ns)).regroup((1,), (0, 2))
    return ext.s.mult_map().compose(ext.embedding.tensor(e)).compose(_dual_map(ext, dspace))


def phi_to_e(ext: RingExtension, t: TensorOverR, sigmas, phi: LinMap):
    """Assemble sum_i s_i (x) phi(sigma_i) in quotient coordinates.

    sigmas are finite-projectivity coordinates from fg_projective_coords.
    """
    return tuple(t.pi.apply([x for sig in sigmas for x in phi.apply(sig)]))


def dual_morphism_space(ext: RingExtension, dspace: list[LinMap]) -> list[LinMap]:
    """Basis of the bimodule maps phi: S -> Hom_R(S, R), in dual coordinates:
    phi(s a) = phi(s) . a and phi(i(r) s) = r . phi(s).

    Both laws are stated on D . phi, which has the same solutions because D
    is injective, with the actions (f . a)(t) = f(a t) and (r . f)(t) = r f(t)
    on Hom(S, R) = R (x) S*.
    """
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    ms, mr = ext.s.mult_map(), ext.r.mult_map()
    ids, idr = LinMap.identity(f, (ns,)), LinMap.identity(f, (nr,))
    d = _dual_map(ext, dspace)
    right_s = idr.tensor(ms.regroup((2,), (0, 1))).compose(d.tensor(ids))
    left_r = mr.tensor(ids).compose(idr.tensor(d))
    laws = LinearLaws(f, ns, len(dspace))
    laws.add(Term(left=d, right=ms), Term(-1, left=right_s, after=ns))
    laws.add(Term(left=d, right=ms.compose(ext.embedding.tensor(ids))),
             Term(-1, left=left_r, before=nr))
    return laws.maps((ns,), (len(dspace),))


def frobenius_system(ext: RingExtension, t: TensorOverR) -> BilinearSystem:
    """The normalization laws of a Frobenius system (nu, e), bilinear in the
    Casimir element e and the expectation nu."""
    v1 = compute_expectations(ext)
    w1 = compute_casimir(t)
    one = list(ext.s.unit)
    return BilinearSystem(
        ext.field, w1.basis, v1.basis,
        LinMap.zero_map(ext.field, (ext.s.dim,), (ext.r.dim,)),
        lambda evec, nu: [x for half in _frobenius_norms(ext, nu, t.sigma.apply(evec))
                          for x in half],
        one + one)


def frobenius_check(ext: RingExtension, cfg: SearchConfig = SearchConfig(),
                    route: str = "auto") -> Verdict:
    """Is the extension Frobenius?

    route="search" scans Casimir candidates and solves for the expectation;
    route="iso" checks finite projectivity and looks for an invertible
    morphism onto the twisted right dual; route="auto" chains them.
    """
    return decide_frobenius(_frobenius_problem(ext, tensor_over_R(ext), cfg), cfg, route)


def _frobenius_problem(ext: RingExtension, t: TensorOverR,
                       cfg: SearchConfig) -> FrobeniusProblem:
    """The Frobenius question of ext over its tensor square t = S (x)_R S."""
    return FrobeniusProblem(
        "ext-frob", "system", system=lambda: frobenius_system(ext, t),
        dims=("V1_dim", "W1_dim"), extra={"tensor_dim": t.dim},
        witness=lambda evec, nu: {"nu": nu, "e": evec},
        residual=lambda w: frobenius_residual(ext, t, w["nu"], w["e"]),
        iso=lambda: _iso_route(ext, t, cfg))


def _iso_route(ext: RingExtension, t: TensorOverR, cfg: SearchConfig) -> Verdict:
    """S finitely generated projective over R and isomorphic to its twisted
    right dual, with the system read off the isomorphism."""
    q = "ext-frob"
    dspace = right_dual_space(ext)
    meta = {"route": "iso", "dual_dim": len(dspace), "definitive": True}
    sigmas = fg_projective_coords(ext, dspace)
    if sigmas is None:
        return Verdict(q, "no",
                       "the total algebra is not finitely generated projective "
                       "over the base", meta=meta)
    if len(dspace) != ext.s.dim:
        return Verdict(q, "no",
                       "the right dual has a different dimension", meta=meta)

    basis = dual_morphism_space(ext, dspace)
    meta["morphism_dim"] = len(basis)
    if not basis:
        return Verdict(q, "no", "no nonzero morphism onto the twisted dual exists",
                       meta=meta)

    status, phi, phi_inv, search_meta = find_invertible_in_span(ext.field, basis, cfg)
    meta.update(search_meta)
    if status == "no":
        return Verdict(q, "no",
                       "no invertible morphism onto the twisted dual exists",
                       meta=meta)
    if status != "yes":
        meta["definitive"] = False
        return Verdict(q, "unknown", "invertibility search was inconclusive", meta=meta)
    return Verdict(q, "yes",
                   "Frobenius system extracted from a twisted-dual isomorphism",
                   witness={"nu": phibar_to_nu(ext, dspace, phi),
                            "e": phi_to_e(ext, t, sigmas, phi_inv), "iso": phi},
                   meta=meta)


# ---------------------------------------------------------------------------
# dual bases

def dual_basis_S(ext: RingExtension, t: TensorOverR, nu: LinMap, evec):
    """Dual basis of S over R from a Frobenius system.

    Elements are the left legs of e; the functional paired with a left leg
    sends s to nu(e2 s).  Returns (basis, resolves_identity).
    """
    f = ext.field
    ns = ext.s.dim
    lift = t.sigma.apply(evec)
    n = nu.with_shapes((ns,), (ext.r.dim,))
    elements, functionals = [], []
    for a in range(ns):
        for b in range(ns):
            w = lift[a * ns + b]
            if not w:
                continue
            elements.append(tuple(x * w for x in basis_vec(f, ns, a)))
            functionals.append(n.compose(ext.s.lmult(basis_vec(f, ns, b))))

    resolver = LinMap.zero_map(f, (ns,), (ns,))
    for el, func in zip(elements, functionals):
        # s |-> el i(func(s))
        resolver = resolver.add(ext.s.lmult(el).compose(ext.embedding.compose(func)))
    ok = resolver == LinMap.identity(f, (ns,))
    note = "dual basis of the total algebra over the base, from a Frobenius system"
    return DualBasis(tuple(elements), tuple(functionals), note), ok
