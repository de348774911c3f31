"""Ring extensions: splitting, separability, Frobenius systems, dual bases.

The F2 oracle enumerates expectations and Casimir representatives directly
from the structure constants; quotient equality is tested against a
relation span generated independently of the solver code.
"""

import itertools

import pytest

from entwine.corpus import (
    arrow_coalgebra,
    cyclic_group_algebra,
    matrix_algebra,
    trivial_algebra,
)
from entwine.structures import dual_algebra
from entwine.exactlin import (
    Field,
    LinMap,
    QQ,
    basis_vec,
    hom_probe_matrix,
    kron_vec,
    nullspace,
    solve_linear,
)
from entwine.homspaces import SearchConfig
from entwine.ringext import (
    RingExtension,
    check_extension,
    casimir_residual,
    compute_casimir,
    compute_expectations,
    dual_basis_S,
    e_to_phi,
    expectation_residual,
    fg_projective_coords,
    frobenius_check,
    frobenius_residual,
    nu_to_phibar,
    phi_to_e,
    phibar_to_nu,
    quotient_mult,
    right_dual_space,
    separable_check,
    split_check,
    tensor_over_R,
)

from _vectors import embed, in_span, product, row_space_basis

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)
F5 = Field("Fp", 5)


def unit_extension(field, s):
    """k -> S along the unit."""
    r = trivial_algebra(field)
    emb = LinMap.from_images(field, (1,), (s.dim,), [list(s.unit)])
    return RingExtension(r, s, emb)


def identity_extension(s):
    return RingExtension(s, s, LinMap.identity(s.field, (s.dim,)))


def unipotent_extension(field):
    """kC2 -> M2 sending g to I + e12; an algebra map only in characteristic 2."""
    r = cyclic_group_algebra(field, 2)
    s = matrix_algebra(field, 2)
    one = field.one
    z = field.zero
    emb = LinMap.from_images(field, (2,), (4,),
                             [(one, z, z, one), (one, one, z, one)])
    return RingExtension(r, s, emb)


# -- independent brute-force oracle over F2 ----------------------------------

def _relation_span(ext):
    f = ext.field
    ns = ext.s.dim
    rows = []
    for j in range(ext.r.dim):
        ij = ext.embedding.column(j)
        for a in range(ns):
            left = product(ext.s, basis_vec(f, ns, a), ij)
            for b in range(ns):
                right = product(ext.s, ij, basis_vec(f, ns, b))
                v = [x - y for x, y in zip(kron_vec(left, basis_vec(f, ns, b)),
                                           kron_vec(basis_vec(f, ns, a), right))]
                rows.append(v)
    return row_space_basis(f, rows)


def _nu_ok(ext, numat):
    """numat[j][b] = coefficient of r_j in nu(s_b); raw bimodule check."""
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    for j in range(nr):
        ij = ext.embedding.column(j)
        for b in range(ns):
            left_arg = product(ext.s, ij, basis_vec(f, ns, b))
            got = [sum((numat[t][u] * left_arg[u] for u in range(ns)), start=f.zero)
                   for t in range(nr)]
            nub = [numat[t][b] for t in range(nr)]
            want = product(ext.r, basis_vec(f, nr, j), nub)
            if got != list(want):
                return False
            right_arg = product(ext.s, basis_vec(f, ns, b), ij)
            got = [sum((numat[t][u] * right_arg[u] for u in range(ns)), start=f.zero)
                   for t in range(nr)]
            want = product(ext.r, nub, basis_vec(f, nr, j))
            if got != list(want):
                return False
    return True


def _casimir_rep_ok(ext, rel, v):
    """v in S (x) S; checks s v - v s lies in the relation span for all s."""
    f = ext.field
    ns = ext.s.dim
    for a in range(ns):
        diff = [f.zero] * (ns * ns)
        for x in range(ns):
            for y in range(ns):
                w = v[x * ns + y]
                if not w:
                    continue
                left = product(ext.s, basis_vec(f, ns, a), basis_vec(f, ns, x))
                for t, lv in enumerate(left):
                    if lv:
                        diff[t * ns + y] = diff[t * ns + y] + w * lv
                right = product(ext.s, basis_vec(f, ns, y), basis_vec(f, ns, a))
                for t, rv in enumerate(right):
                    if rv:
                        diff[x * ns + t] = diff[x * ns + t] - w * rv
        if not in_span(f, rel, diff):
            return False
    return True


def _norms(ext, numat, v):
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    first = [f.zero] * ns
    second = [f.zero] * ns
    for a in range(ns):
        nua = embed(ext, [numat[t][a] for t in range(nr)])
        for b in range(ns):
            w = v[a * ns + b]
            if not w:
                continue
            p = product(ext.s, nua, basis_vec(f, ns, b))
            first = [x + w * y for x, y in zip(first, p)]
    for b in range(ns):
        nub = embed(ext, [numat[t][b] for t in range(nr)])
        for a in range(ns):
            w = v[a * ns + b]
            if not w:
                continue
            p = product(ext.s, basis_vec(f, ns, a), nub)
            second = [x + w * y for x, y in zip(second, p)]
    return first, second


def brute_force_facts(ext):
    """(V1 count, Casimir class count, split, sep, frob) over F2."""
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    rel = _relation_span(ext)
    nus = []
    for bits in itertools.product([f.zero, f.one], repeat=nr * ns):
        numat = [[bits[t * ns + b] for b in range(ns)] for t in range(nr)]
        if _nu_ok(ext, numat):
            nus.append(numat)
    reps = [v for v in itertools.product([f.zero, f.one], repeat=ns * ns)
            if _casimir_rep_ok(ext, rel, v)]
    n_classes = len(reps) // (2 ** len(rel))
    split = any(
        [sum((numat[t][b] * ext.s.unit[b] for b in range(ns)), start=f.zero)
         for t in range(nr)] == list(ext.r.unit)
        for numat in nus)
    one = list(ext.s.unit)
    sep = False
    for v in reps:
        mu = [f.zero] * ns
        for a in range(ns):
            for b in range(ns):
                w = v[a * ns + b]
                if w:
                    p = product(ext.s, basis_vec(f, ns, a), basis_vec(f, ns, b))
                    mu = [x + w * y for x, y in zip(mu, p)]
        if mu == one:
            sep = True
            break
    frob = any(
        _norms(ext, numat, v) == (one, one)
        for numat in nus for v in reps)
    return len(nus), n_classes, split, sep, frob


@pytest.mark.parametrize("make", [
    lambda: unit_extension(F2, cyclic_group_algebra(F2, 2)),
    lambda: unit_extension(F2, cyclic_group_algebra(F2, 3)),
    lambda: identity_extension(cyclic_group_algebra(F2, 2)),
    lambda: unit_extension(F2, dual_algebra(arrow_coalgebra(F2))),
])
def test_solver_agrees_with_brute_force_over_F2(make):
    ext = make()
    n_nu, n_cas, split, sep, frob = brute_force_facts(ext)
    v1 = compute_expectations(ext)
    t = tensor_over_R(ext)
    w1 = compute_casimir(t)
    assert n_nu == 2 ** v1.dim
    assert n_cas == 2 ** w1.dim
    assert (split_check(ext).status == "yes") == split
    assert (separable_check(ext).status == "yes") == sep
    verdict = frobenius_check(ext)
    assert verdict.status in ("yes", "no")
    assert (verdict.status == "yes") == frob


def test_unipotent_expectations_agree_with_brute_force():
    ext = unipotent_extension(F2)
    assert check_extension(ext).ok
    f = F2
    count = 0
    for bits in itertools.product([f.zero, f.one], repeat=2 * 4):
        numat = [[bits[t * 4 + b] for b in range(4)] for t in range(2)]
        if _nu_ok(ext, numat):
            count += 1
    assert count == 2 ** compute_expectations(ext).dim
    assert split_check(ext).status == "no"


# -- structure of the balanced tensor product ---------------------------------

def test_tensor_over_identity_extension_collapses():
    ext = identity_extension(cyclic_group_algebra(QQ, 2))
    t = tensor_over_R(ext)
    assert t.dim == 2
    assert t.pi.compose(t.sigma) == LinMap.identity(QQ, (t.dim,))
    assert len(t.relations) == 2


def test_tensor_over_unit_extension_is_full():
    ext = unit_extension(QQ, matrix_algebra(QQ, 2))
    t = tensor_over_R(ext)
    assert t.dim == 16
    assert len(t.relations) == 0


# -- frozen witnesses ----------------------------------------------------------

def test_matrix_algebra_separability_element():
    for field in (QQ, F2, F3):
        ext = unit_extension(field, matrix_algebra(field, 2))
        t = tensor_over_R(ext)
        # e = e11 (x) e11 + e21 (x) e12, basis order (e11, e12, e21, e22)
        e = [field.zero] * 16
        e[0 * 4 + 0] = field.one
        e[2 * 4 + 1] = field.one
        evec = t.pi.apply(e)
        assert casimir_residual(t, evec) == []
        assert list(quotient_mult(t).apply(evec)) == list(ext.s.unit)
        assert separable_check(ext).status == "yes"


def test_matrix_algebra_trace_frobenius_system():
    for field in (QQ, F2, F3):
        ext = unit_extension(field, matrix_algebra(field, 2))
        t = tensor_over_R(ext)
        trace = LinMap(field, (4,), (1,),
                       ((field.one, field.zero, field.zero, field.one),))
        e = [field.zero] * 16
        for a, b in ((0, 0), (1, 2), (2, 1), (3, 3)):
            e[a * 4 + b] = field.one
        evec = tuple(t.pi.apply(e))
        assert frobenius_residual(ext, t, trace, evec) == []
        v = frobenius_check(ext)
        assert v.status == "yes"
        assert frobenius_residual(ext, t, v.witness["nu"], v.witness["e"]) == []


def test_group_algebra_over_F2_not_separable_but_frobenius():
    ext = unit_extension(F2, cyclic_group_algebra(F2, 2))
    assert separable_check(ext).status == "no"
    t = tensor_over_R(ext)
    coeff_of_1 = LinMap(F2, (2,), (1,), ((F2.one, F2.zero),))
    e = [F2.zero] * 4
    e[0 * 2 + 0] = F2.one   # 1 (x) 1
    e[1 * 2 + 1] = F2.one   # g (x) g
    evec = tuple(t.pi.apply(e))
    assert frobenius_residual(ext, t, coeff_of_1, evec) == []
    v = frobenius_check(ext)
    assert v.status == "yes"


@pytest.mark.parametrize("n,field,want", [
    (2, QQ, "yes"), (2, F2, "no"), (2, F3, "yes"), (2, F5, "yes"),
    (3, QQ, "yes"), (3, F2, "yes"), (3, F3, "no"), (3, F5, "yes"),
])
def test_maschke_separability_of_group_algebras(n, field, want):
    ext = unit_extension(field, cyclic_group_algebra(field, n))
    assert separable_check(ext).status == want


def test_identity_extension_all_yes():
    ext = identity_extension(cyclic_group_algebra(QQ, 2))
    assert split_check(ext).status == "yes"
    assert separable_check(ext).status == "yes"
    assert frobenius_check(ext).status == "yes"


@pytest.mark.parametrize("field", [F2, F3])
def test_frobenius_routes_agree(field):
    makes = [
        lambda: unit_extension(field, cyclic_group_algebra(field, 2)),
        lambda: unit_extension(field, cyclic_group_algebra(field, 3)),
        lambda: unit_extension(field, matrix_algebra(field, 2)),
        lambda: identity_extension(cyclic_group_algebra(field, 2)),
        # triangular 2x2 matrices: noncommutative, and not Frobenius over k
        lambda: unit_extension(field, dual_algebra(arrow_coalgebra(field))),
        # noncommutative base ring via the identity extension
        lambda: identity_extension(dual_algebra(arrow_coalgebra(field))),
    ]
    for make in makes:
        ext = make()
        t = tensor_over_R(ext)
        a = frobenius_check(ext, route="search")
        b = frobenius_check(ext, route="iso")
        assert a.status == b.status
        if a.status == "yes":
            assert frobenius_residual(ext, t, a.witness["nu"], a.witness["e"]) == []
            assert frobenius_residual(ext, t, b.witness["nu"], b.witness["e"]) == []


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_triangular_matrices_not_frobenius_over_base_field(field):
    ext = unit_extension(field, dual_algebra(arrow_coalgebra(field)))
    v = frobenius_check(ext)
    assert v.status == "no"
    assert v.meta["definitive"]


def test_frobenius_over_Q_matrix_algebra_definitive():
    ext = unit_extension(QQ, matrix_algebra(QQ, 2))
    v = frobenius_check(ext)
    assert v.status == "yes"
    assert v.meta["definitive"]


# -- validation ----------------------------------------------------------------

def test_check_extension_rejects_bad_embeddings():
    # g |-> 1 + g is not multiplicative over Q
    r = cyclic_group_algebra(QQ, 2)
    emb = LinMap.from_images(QQ, (2,), (2,),
                             [(QQ.one, QQ.zero), (QQ.one, QQ.one)])
    rep = check_extension(RingExtension(r, r, emb))
    assert not rep.ok
    assert any(v.law == "multiplicative" for v in rep.violations)
    # the unipotent embedding fails outside characteristic 2
    rep = check_extension(unipotent_extension(F3))
    assert not rep.ok
    # non-injective maps are flagged
    s = cyclic_group_algebra(QQ, 2)
    emb = LinMap.from_images(QQ, (2,), (2,),
                             [(QQ.one, QQ.zero), (QQ.one, QQ.zero)])
    rep = check_extension(RingExtension(r, s, emb))
    assert any(v.law == "embedding-injective" for v in rep.violations)
    assert check_extension(unipotent_extension(F2)).ok


# -- dual bases ------------------------------------------------------------------

def test_dual_basis_resolves_identity_from_frobenius_system():
    for field in (QQ, F2):
        ext = unit_extension(field, cyclic_group_algebra(field, 2))
        t = tensor_over_R(ext)
        v = frobenius_check(ext)
        assert v.status == "yes"
        db, ok = dual_basis_S(ext, t, v.witness["nu"], v.witness["e"])
        assert ok
        bad = LinMap.zero_map(field, (2,), (1,))
        _, bad_ok = dual_basis_S(ext, t, bad, v.witness["e"])
        assert not bad_ok


def test_dual_basis_matrix_algebra():
    ext = unit_extension(QQ, matrix_algebra(QQ, 2))
    t = tensor_over_R(ext)
    v = frobenius_check(ext)
    db, ok = dual_basis_S(ext, t, v.witness["nu"], v.witness["e"])
    assert ok
    assert db.size == 4


# -- converters into the dual-module picture -------------------------------------

def _flat_map(m):
    return [v for row in m.mat for v in row]


def _dual_actions(ext, dspace):
    """Action matrices on the right dual, re-expanded against the given basis."""
    f = ext.field
    nd, ns, nr = len(dspace), ext.s.dim, ext.r.dim
    cols = [_flat_map(d) for d in dspace]
    rows = [[cols[k][i] for k in range(nd)] for i in range(nr * ns)]

    def coords(m):
        part, _ = solve_linear(f, rows, _flat_map(m))
        assert part is not None
        return list(part)

    right_on = []
    for a in range(ns):
        sa = basis_vec(f, ns, a)
        right_on.append(LinMap.from_images(
            f, (nd,), (nd,), [coords(d.compose(ext.s.lmult(sa))) for d in dspace]))
    left_on = []
    for j in range(nr):
        rj = basis_vec(f, nr, j)
        left_on.append(LinMap.from_images(
            f, (nd,), (nd,), [coords(ext.r.lmult(rj).compose(d)) for d in dspace]))
    return right_on, left_on


def _intertwiner_space(f, dim_src, dim_dst, laws):
    """Basis of maps Phi with Phi . pre == post . Phi for every law pair."""
    def op(t):
        mat = tuple(tuple(f.one if (r == t // dim_src and c == t % dim_src) else f.zero
                          for c in range(dim_src)) for r in range(dim_dst))
        phi = LinMap(f, (dim_src,), (dim_dst,), mat)
        out = []
        for pre, post in laws:
            diff = phi.compose(pre).sub(post.compose(phi))
            for row in diff.mat:
                out.extend(row)
        return out

    rows = hom_probe_matrix(f, dim_src * dim_dst, [op])
    return [LinMap(f, (dim_src,), (dim_dst,),
                   tuple(tuple(vec[r * dim_src + c] for c in range(dim_src))
                         for r in range(dim_dst)))
            for vec in nullspace(f, rows)]


def _hom_pair_spaces(ext, dspace):
    """Bimodule morphism spaces S -> dual and dual -> S, built from the laws."""
    f = ext.field
    ns = ext.s.dim
    right_on, left_on = _dual_actions(ext, dspace)
    v2_laws, w2_laws = [], []
    for a in range(ns):
        sa = basis_vec(f, ns, a)
        v2_laws.append((ext.s.rmult(sa), right_on[a]))
        w2_laws.append((right_on[a], ext.s.rmult(sa)))
    for j in range(ext.r.dim):
        ij = ext.embedding.column(j)
        v2_laws.append((ext.s.lmult(ij), left_on[j]))
        w2_laws.append((left_on[j], ext.s.lmult(ij)))
    v2 = _intertwiner_space(f, ns, len(dspace), v2_laws)
    w2 = _intertwiner_space(f, len(dspace), ns, w2_laws)
    return v2, w2


CONVERTER_EXTS = [
    lambda f: unit_extension(f, cyclic_group_algebra(f, 2)),
    lambda f: unit_extension(f, matrix_algebra(f, 2)),
    lambda f: unit_extension(f, dual_algebra(arrow_coalgebra(f))),
    lambda f: identity_extension(cyclic_group_algebra(f, 2)),
    lambda f: identity_extension(dual_algebra(arrow_coalgebra(f))),
]


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_converter_round_trips_and_hom_membership(field):
    for make in CONVERTER_EXTS:
        ext = make(field)
        t = tensor_over_R(ext)
        dspace = right_dual_space(ext)
        sigmas = fg_projective_coords(ext, dspace)
        assert sigmas is not None
        v2, w2 = _hom_pair_spaces(ext, dspace)
        v1 = compute_expectations(ext)
        w1 = compute_casimir(t)
        assert len(v2) == v1.dim
        assert len(w2) == w1.dim
        v2_span = [_flat_map(b) for b in v2]
        w2_span = [_flat_map(b) for b in w2]
        for nu in v1.basis:
            pb = nu_to_phibar(ext, dspace, nu)
            assert phibar_to_nu(ext, dspace, pb).mat == nu.mat
            assert in_span(field, v2_span, _flat_map(pb))
        for evec in w1.basis:
            ph = e_to_phi(ext, t, dspace, evec)
            assert phi_to_e(ext, t, sigmas, ph) == tuple(evec)
            assert in_span(field, w2_span, _flat_map(ph))
        for pb in v2:
            nu = phibar_to_nu(ext, dspace, pb)
            assert expectation_residual(ext, nu) == []
            assert nu_to_phibar(ext, dspace, nu).mat == pb.mat
        for ph in w2:
            evec = phi_to_e(ext, t, sigmas, ph)
            assert casimir_residual(t, evec) == []
            assert e_to_phi(ext, t, dspace, evec).mat == ph.mat


def test_dual_morphism_space_matches_bilinear_brute_force_F2():
    """Over the base field k the morphisms S -> Hom(S,k) are exactly the
    balanced bilinear forms B(st, u) = B(s, tu); enumerate those directly."""
    for make in [lambda: unit_extension(F2, cyclic_group_algebra(F2, 2)),
                 lambda: unit_extension(F2, dual_algebra(arrow_coalgebra(F2)))]:
        ext = make()
        f = F2
        ns = ext.s.dim
        prod = [[product(ext.s, basis_vec(f, ns, a), basis_vec(f, ns, b))
                 for b in range(ns)] for a in range(ns)]
        forms = []
        for bits in itertools.product([f.zero, f.one], repeat=ns * ns):
            mat = [[bits[r * ns + c] for c in range(ns)] for r in range(ns)]
            ok = True
            for a in range(ns):
                for b in range(ns):
                    for c in range(ns):
                        lhs = sum((prod[b][a][u] * mat[u][c] for u in range(ns)),
                                  start=f.zero)
                        rhs = sum((prod[a][c][u] * mat[b][u] for u in range(ns)),
                                  start=f.zero)
                        if lhs != rhs:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                forms.append([v for row in mat for v in row])
        dspace = right_dual_space(ext)
        v2, _ = _hom_pair_spaces(ext, dspace)
        assert len(forms) == 2 ** len(v2)
        v2_forms = []
        for pb in v2:
            bil = [[sum((pb.mat[k][b] * dspace[k].mat[0][c]
                         for k in range(len(dspace))), start=f.zero)
                    for c in range(ns)] for b in range(ns)]
            v2_forms.append([v for row in bil for v in row])
        brute_basis = row_space_basis(f, forms)
        for vf in v2_forms:
            assert in_span(f, brute_basis, vf)
        assert len(row_space_basis(f, v2_forms)) == len(brute_basis)


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_frobenius_witness_gives_mutually_inverse_morphisms(field):
    makes = [
        lambda f: unit_extension(f, cyclic_group_algebra(f, 2)),
        lambda f: unit_extension(f, matrix_algebra(f, 2)),
        lambda f: identity_extension(dual_algebra(arrow_coalgebra(f))),
    ]
    for make in makes:
        ext = make(field)
        v = frobenius_check(ext)
        assert v.status == "yes"
        t = tensor_over_R(ext)
        dspace = right_dual_space(ext)
        pb = nu_to_phibar(ext, dspace, v.witness["nu"])
        ph = e_to_phi(ext, t, dspace, v.witness["e"])
        assert ph.compose(pb).mat == LinMap.identity(field, (ext.s.dim,)).mat
        assert pb.compose(ph).mat == LinMap.identity(field, (len(dspace),)).mat
