"""Algebra factorizations and smash products.

A factorization structure twists the tensor product of two algebras by a
map R: A (x) B -> B (x) A; the four axioms are exactly associativity and
unitality of the twisted multiplication (b # a)(d # c) = b d_R # a_R c.
The smash product contains A along a |-> 1 # a, and splitting,
separability, and Frobenius questions for that extension reduce to the
kappa/Casimir spaces V3 and W3.  W3 is cut out by two laws in its element
e of B (x) B (x) A, b e = e b for b in B and for b in A, each one map
B -> B (x) B (x) A, resp. A -> B (x) B (x) A, with the small factors
composed first and the identity factors tensored on last.  Questions over
B are answered through the opposite factorization, never by re-deriving
left-handed formulas.

A factorization with B the opposite dual of a coalgebra C is the same
data as an entwining of (A, C); the dictionary in both directions lives
here and ties the smash picture to the entwined-module one.  It, the
smash product and the op-dual take valid input to valid output and never
re-check it; corpus.validate_payload is the gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    Field,
    InternalCheckError,
    LinearLaws,
    LinMap,
    ParseError,
    SolutionSpace,
    Term,
    basis_vec,
    iter_multi,
    kron_vec,
    swap_map,
    vec_is_zero,
)
from .entwining import Entwining
from .homspaces import (
    BilinearSystem,
    FrobeniusProblem,
    SearchConfig,
    Verdict,
    decide_frobenius,
    decide_normalized,
)
from .ringext import RingExtension, _frobenius_problem, frobenius_check, tensor_over_R
from .structures import (
    AlgebraData,
    ValidationReport,
    check_algebra,
    dual_algebra,
)


@dataclass(frozen=True)
class Factorization:
    b: AlgebraData
    a: AlgebraData
    rmap: LinMap  # dom (dim A, dim B), cod (dim B, dim A)

    @property
    def field(self) -> Field:
        return self.a.field

    @staticmethod
    def make(b: AlgebraData, a: AlgebraData, r_nested) -> "Factorization":
        """Build from nested constants r[a][b][b2][a2]."""
        nb, na = b.dim, a.dim
        imgs = []
        for ai, bi in iter_multi((na, nb)):
            try:
                block = r_nested[ai][bi]
                img = [block[b2][a2] for b2, a2 in iter_multi((nb, na))]
            except (IndexError, TypeError) as exc:
                raise ParseError("rmap must be [%d][%d][%d][%d] nested"
                                 % (na, nb, nb, na)) from exc
            imgs.append(img)
        rmap = LinMap.from_images(a.field, (na, nb), (nb, na), imgs)
        return Factorization(b, a, rmap)

    @staticmethod
    def flip(b: AlgebraData, a: AlgebraData) -> "Factorization":
        return Factorization(b, a, swap_map(a.field, a.dim, b.dim))

    def r_entry(self, b2: int, a2: int, a: int, b: int):
        """Coefficient of e_{b2} (x) e_{a2} in R(e_a (x) e_b)."""
        nb, na = self.b.dim, self.a.dim
        return self.rmap.entry(b2 * na + a2, a * nb + b)


def check_factorization(fact: Factorization,
                        subject: str = "factorization") -> ValidationReport:
    """The four twist axioms, as exact identities of linear maps."""
    rep = check_algebra(fact.b, subject + ".b")
    rep.merge(check_algebra(fact.a, subject + ".a"))
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    ida = LinMap.identity(f, (na,))
    idb = LinMap.identity(f, (nb,))
    ma, ua = fact.a.mult_map(), fact.a.unit_map()
    mb, ub = fact.b.mult_map(), fact.b.unit_map()
    r = fact.rmap

    # R(aa' (x) b) = b_Rr (x) a_R a'_r
    lhs = r.compose(ma.tensor(idb))
    rhs = (idb.tensor(ma)
           .compose(r.tensor(ida))
           .compose(ida.tensor(r)))
    rep.add_law("factor-mult-A", lhs, rhs.with_shapes((na, na, nb), (nb, na)))

    # R(a (x) bb') = b_R b'_r (x) a_Rr
    lhs = r.compose(ida.tensor(mb))
    rhs = (mb.tensor(ida)
           .compose(idb.tensor(r))
           .compose(r.tensor(idb)))
    rep.add_law("factor-mult-B", lhs, rhs.with_shapes((na, nb, nb), (nb, na)))

    # R(a (x) 1) = 1 (x) a
    lhs = r.compose(ida.tensor(ub).with_shapes((na,), (na, nb)))
    rhs = ub.tensor(ida).with_shapes((na,), (nb, na))
    rep.add_law("factor-unit-B", lhs, rhs)

    # R(1 (x) b) = b (x) 1
    lhs = r.compose(ua.tensor(idb).with_shapes((nb,), (na, nb)))
    rhs = idb.tensor(ua).with_shapes((nb,), (nb, na))
    rep.add_law("factor-unit-A", lhs, rhs)
    return rep


def smash_mult_map(fact: Factorization) -> LinMap:
    """(m_B (x) m_A) . (id (x) R (x) id) on (B (x) A) (x) (B (x) A)."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    ida = LinMap.identity(f, (na,))
    idb = LinMap.identity(f, (nb,))
    return (fact.b.mult_map().tensor(fact.a.mult_map())
            .compose(idb.tensor(fact.rmap).tensor(ida)))


def smash_product(fact: Factorization) -> AlgebraData:
    """The twisted algebra B # A."""
    return AlgebraData.from_mult_map(smash_mult_map(fact),
                                     kron_vec(fact.b.unit, fact.a.unit))


def unit_embedding_A(fact: Factorization) -> RingExtension:
    """The extension A -> B # A along a |-> 1 # a."""
    f = fact.field
    smash = smash_product(fact)
    imgs = [kron_vec(fact.b.unit, basis_vec(f, fact.a.dim, i))
            for i in range(fact.a.dim)]
    emb = LinMap.from_images(f, (fact.a.dim,), (smash.dim,), imgs)
    return RingExtension(fact.a, smash, emb)


def op_dual(fact: Factorization) -> Factorization:
    """The factorization (A^op, B^op, R~) with R~ = swap . R . swap.

    The smash product of the dual is the opposite algebra of B # A under
    the leg swap.
    """
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    s = swap_map(f, nb, na)
    rmap = s.compose(fact.rmap).compose(s).with_shapes((nb, na), (na, nb))
    return Factorization(fact.a.opposite(), fact.b.opposite(), rmap)


# ---------------------------------------------------------------------------
# the kappa space V3 and the Casimir space W3

def _kappa_laws(fact: Factorization, kappa: LinMap) -> LinMap:
    """a kappa(b) - kappa(b_R) a_R as one map A (x) B -> A."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    ida = LinMap.identity(f, (na,))
    k = kappa.with_shapes((nb,), (na,))
    ma = fact.a.mult_map()
    lhs = ma.compose(ida.tensor(k))
    rhs = ma.compose(k.tensor(ida)).compose(fact.rmap)
    return lhs.sub(rhs.with_shapes((na, nb), (na,)))


def kappa_residual(fact: Factorization, kappa: LinMap) -> list[str]:
    if not _kappa_laws(fact, kappa).is_zero():
        return ["kappa-commutes"]
    return []


def compute_V3(fact: Factorization) -> SolutionSpace:
    """Basis of {kappa: B -> A | a kappa(b) = kappa(b_R) a_R}."""
    nb, na = fact.b.dim, fact.a.dim
    ma = fact.a.mult_map()
    # the law of _kappa_laws, with kappa as the unknown
    laws = LinearLaws(fact.field, nb, na)
    laws.add(Term(left=ma, before=na), Term(-1, left=ma, after=na, right=fact.rmap))
    return SolutionSpace(laws.maps((nb,), (na,)), lambda k: kappa_residual(fact, k))


def w3_residual(fact: Factorization, vec) -> list[str]:
    """Whether b e = e b for every basis element b of B and of A, for one e
    in B (x) B (x) A; evaluated on e from the structure constants of B, A
    and R, not through the operators `compute_W3` solves."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    multb, multa = fact.b.mult, fact.a.mult
    # r_img[a][b]: the nonzero (b2, a2, coefficient) of R(e_a (x) e_b)
    r_img = [[[(b2, a2, r) for b2, a2 in iter_multi((nb, na))
               if (r := fact.r_entry(b2, a2, a, b))] for b in range(nb)] for a in range(na)]
    terms = [(idx // (nb * na), idx // na % nb, idx % na, x)
             for idx, x in enumerate(vec) if x]
    bad = []
    for bi in range(nb):
        diff = [f.zero] * len(vec)
        for i, j, k, x in terms:
            for t, m in enumerate(multb[bi][i]):  # b e1 (x) e2 (x) e3
                if m:
                    diff[(t * nb + j) * na + k] += m * x
            for b2, a2, rv in r_img[k][bi]:  # e1 (x) e2 b_R (x) e3_R
                for t, m in enumerate(multb[j][b2]):
                    if m:
                        diff[(i * nb + t) * na + a2] -= m * rv * x
        if not vec_is_zero(diff):
            bad.append("casimir-B")
            break
    for ai in range(na):
        diff = [f.zero] * len(vec)
        for i, j, k, x in terms:
            for b2, a2, rv in r_img[ai][i]:  # e1_R (x) e2_r (x) a_Rr e3
                for b3, a3, rw in r_img[a2][j]:
                    for t, m in enumerate(multa[a3][k]):
                        if m:
                            diff[(b2 * nb + b3) * na + t] += rv * rw * m * x
            for t, m in enumerate(multa[k][ai]):  # e1 (x) e2 (x) e3 a
                if m:
                    diff[(i * nb + j) * na + t] -= m * x
        if not vec_is_zero(diff):
            bad.append("casimir-A")
            break
    return bad


def compute_W3(fact: Factorization) -> SolutionSpace:
    """Basis of the Casimir space inside B (x) B (x) A."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    ida, idb = LinMap.identity(f, (na,)), LinMap.identity(f, (nb,))
    mb, ma = fact.b.mult_map(), fact.a.mult_map()
    laws = LinearLaws(f, 1, nb * nb * na)
    # b e1 (x) e2 (x) e3 = e1 (x) e2 b_R (x) e3_R
    laws.add(Term(left=mb.tensor(LinMap.identity(f, (nb, na))), before=nb),
             Term(-1, left=idb.tensor(mb.tensor(ida).compose(idb.tensor(fact.rmap))), after=nb))
    # e1_R (x) e2_r (x) a_Rr e3 = e1 (x) e2 (x) e3 a
    twist = idb.tensor(idb.tensor(ma).compose(fact.rmap.tensor(ida)))
    laws.add(Term(left=twist.compose(fact.rmap.tensor(LinMap.identity(f, (nb, na)))), before=na),
             Term(-1, left=LinMap.identity(f, (nb, nb)).tensor(ma), after=na))
    return SolutionSpace(laws.kernel(), lambda v: w3_residual(fact, v))


# ---------------------------------------------------------------------------
# the bridge to the balanced tensor square of B # A over A

def gamma_lift_map(fact: Factorization) -> LinMap:
    """(B#A) (x) (B#A) -> B (x) B (x) A, b#a (x) d#c |-> b (x) d_R (x) a_R c."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    ida = LinMap.identity(f, (na,))
    idb = LinMap.identity(f, (nb,))
    return (idb.tensor(idb).tensor(fact.a.mult_map())
            .compose(idb.tensor(fact.rmap).tensor(ida)))


def gamma_section_map(fact: Factorization) -> LinMap:
    """B (x) B (x) A -> (B#A) (x) (B#A), b (x) d (x) c |-> b#1 (x) d#c."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    return (LinMap.identity(f, (nb,))
            .tensor(fact.a.unit_map())
            .tensor(LinMap.identity(f, (nb, na)))
            .with_shapes((nb, nb, na), (nb, na, nb, na)))


# ---------------------------------------------------------------------------
# the three questions for B # A over A

def smash_split_A(fact: Factorization) -> Verdict:
    """Split: kappa in V3 with kappa(1_B) = 1_A."""
    v3 = compute_V3(fact)
    return decide_normalized(
        fact.field, "smash-A-split", v3,
        LinMap.zero_map(fact.field, (fact.b.dim,), (fact.a.dim,)),
        lambda k: k.apply(fact.b.unit), fact.a.unit, "kappa",
        ("kappa-laws", "unit-normalization"),
        ("no commuting map B -> A fixes the unit", "unit-fixing kappa found"),
        {"V3_dim": v3.dim})


def smash_separable_A(fact: Factorization) -> Verdict:
    """Separable: e in W3 with e1 e2 (x) e3 = 1 (x) 1."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    w3 = compute_W3(fact)
    mu = fact.b.mult_map().tensor(LinMap.identity(f, (na,)))
    return decide_normalized(
        f, "smash-A-sep", w3, (f.zero,) * (nb * nb * na), mu.apply,
        kron_vec(fact.b.unit, fact.a.unit), "e",
        ("casimir-laws", "mult-normalization"),
        ("no Casimir element contracts to the unit", "separability element found"),
        {"W3_dim": w3.dim})


def _frobenius_values(fact: Factorization, kappa: LinMap, evec) -> list:
    """Both normalizations applied to e, concatenated; a Frobenius system
    has 1 (x) 1 in each half."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    ida = LinMap.identity(f, (na,))
    idb = LinMap.identity(f, (nb,))
    k = kappa.with_shapes((nb,), (na,))
    ma = fact.a.mult_map()
    # e2_R (x) kappa(e1)_R e3
    twisted = (idb.tensor(ma)
               .compose(fact.rmap.tensor(ida))
               .compose(k.tensor(idb).tensor(ida)))
    # e1 (x) kappa(e2) e3
    plain = idb.tensor(ma).compose(idb.tensor(k).tensor(ida))
    return list(twisted.apply(evec)) + list(plain.apply(evec))


def frobenius_smash_residual(fact: Factorization, kappa: LinMap, evec) -> list[str]:
    bad = kappa_residual(fact, kappa) + w3_residual(fact, evec)
    target = list(kron_vec(fact.b.unit, fact.a.unit))
    values = _frobenius_values(fact, kappa, evec)
    half = len(values) // 2
    if values[:half] != target:
        bad.append("frobenius-normalization-twisted")
    if values[half:] != target:
        bad.append("frobenius-normalization-plain")
    return bad


def frobenius_smash_system(fact: Factorization) -> BilinearSystem:
    """The normalization laws of a Frobenius system (kappa, e), bilinear in
    e in W3 and kappa in V3."""
    v3 = compute_V3(fact)
    w3 = compute_W3(fact)
    target = list(kron_vec(fact.b.unit, fact.a.unit))
    return BilinearSystem(
        fact.field, w3.basis, v3.basis,
        LinMap.zero_map(fact.field, (fact.b.dim,), (fact.a.dim,)),
        lambda evec, k: _frobenius_values(fact, k, evec), target + target)


def smash_frobenius_A(fact: Factorization, cfg: SearchConfig = SearchConfig(),
                      route: str = "auto") -> Verdict:
    """Is B # A / A a Frobenius extension?

    route="search" scans W3 candidates and solves linearly for kappa;
    route="iso" decides through the extension machinery on A -> B # A and
    pulls the witnesses back along the leg identification; route="auto"
    chains them.
    """
    return decide_frobenius(FrobeniusProblem(
        "smash-A-frob", "system", system=lambda: frobenius_smash_system(fact),
        dims=("V3_dim", "W3_dim"),
        witness=lambda evec, kappa: {"kappa": kappa, "e": evec},
        residual=lambda w: frobenius_smash_residual(fact, w["kappa"], w["e"]),
        iso=lambda: _iso_route(fact, cfg)), cfg, route)


def _iso_route(fact: Factorization, cfg: SearchConfig) -> Verdict:
    """The extension's iso route on A -> B # A, its system pulled back."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    q = "smash-A-frob"
    ext = unit_embedding_A(fact)
    t = tensor_over_R(ext)
    ve = decide_frobenius(_frobenius_problem(ext, t, cfg), cfg, "iso")
    meta = dict(ve.meta)
    meta["route"] = "iso"
    if ve.status != "yes":
        return Verdict(q, ve.status, ve.reason, meta=meta)
    restrict = LinMap.from_images(
        f, (nb,), (ext.s.dim,),
        [kron_vec(basis_vec(f, nb, i), fact.a.unit) for i in range(nb)])
    kappa = ve.witness["nu"].with_shapes((ext.s.dim,), (na,)).compose(restrict)
    evec = tuple(gamma_lift_map(fact).apply(t.sigma.apply(ve.witness["e"])))
    return Verdict(q, "yes", "Frobenius system pulled back from the extension",
                   witness={"kappa": kappa, "e": evec}, meta=meta)


def smash_over_A_report(fact: Factorization, cfg: SearchConfig = SearchConfig()) -> dict:
    """Split/separable/Frobenius verdicts for B # A over A."""
    return {
        "split": smash_split_A(fact),
        "separable": smash_separable_A(fact),
        "frobenius": smash_frobenius_A(fact, cfg),
    }


def smash_over_B_report(fact: Factorization, cfg: SearchConfig = SearchConfig()) -> dict:
    """Split/separable/Frobenius verdicts for B # A over B, via the op-dual."""
    rep = smash_over_A_report(op_dual(fact), cfg)
    out = {}
    for key, v in rep.items():
        meta = dict(v.meta)
        meta["via"] = "op-dual"
        out[key] = Verdict(v.question.replace("smash-A", "smash-B"), v.status,
                           v.reason, witness=v.witness, meta=meta,
                           residual_checks=v.residual_checks)
    return out


# ---------------------------------------------------------------------------
# the dictionary with entwinings

def entwining_to_factorization(e: Entwining) -> Factorization:
    """((C*)^op, A, R) with R(a (x) c*) = <c*, c_i^psi> c_i* (x) a_psi."""
    # legs of psi: (a_psi, c^psi | c, a)
    rmap = e.psi.with_shapes((e.c.dim, e.a.dim), (e.a.dim, e.c.dim)).regroup((2, 0), (3, 1))
    return Factorization(dual_algebra(e.c, opposite=True), e.a, rmap)


def factorization_to_entwining(fact: Factorization, c) -> Entwining:
    """Recover psi from a factorization whose B is the opposite dual of c.

    The coalgebra witness is required; handing a B that is not (C*)^op for
    the declared c is a contract violation.
    """
    if fact.b != dual_algebra(c, opposite=True):
        raise ParseError("factorization's B is not the opposite dual "
                         "of the declared coalgebra")
    # legs of R: (c*_R, a_R | a, c*)
    psi = fact.rmap.with_shapes((fact.a.dim, c.dim), (c.dim, fact.a.dim)).regroup((1, 3), (0, 2))
    return Entwining(fact.a, c, psi)


def cross_check_frobenius(e: Entwining, cfg: SearchConfig = SearchConfig()) -> dict:
    """The entwined Frobenius question against the smash-extension one.

    The coaction-forgetting pair is Frobenius exactly when (C*)^op # A is
    Frobenius over A; both verdicts are computed and compared.  The smash
    verdict is also checked against the extension machinery on
    A -> (C*)^op # A, and a definitive disagreement there raises.
    """
    from .coforget import FG_frobenius
    entwined = FG_frobenius(e, cfg)
    fact = entwining_to_factorization(e)
    extension = smash_frobenius_A(fact, cfg)
    direct = frobenius_check(unit_embedding_A(fact), cfg)
    if extension.definitive and direct.definitive and extension.status != direct.status:
        raise InternalCheckError(
            "smash and extension disagree on Frobenius: %s vs %s"
            % (extension.status, direct.status))
    agree = (entwined.status == extension.status
             or not (entwined.definitive and extension.definitive))
    return {"entwined": entwined, "extension": extension, "agree": agree}
