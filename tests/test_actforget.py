"""Action-forgetting adjunction: separability, Frobenius, converters.

The F2 oracles enumerate every candidate map by brute force and check the
defining laws scalar by scalar, independently of the solver code paths.
"""

import itertools

import pytest

from entwine.actforget import (
    FROBENIUS_PRIME_CS,
    Fprime_separable,
    FprimeGprime_frobenius,
    Gprime_separable,
    compute_V1prime,
    compute_W1prime,
    dual_basis_A,
    e_residual,
    e_to_omega,
    frobenius_prime_residual,
    omega_to_e,
    omegabar_to_vartheta,
    vartheta_residual,
    vartheta_to_omegabar,
)
from entwine.corpus import (
    arrow_coalgebra,
    cyclic_group_algebra,
    cyclic_group_bialgebra,
    dual_numbers_coalgebra,
    grouplike_coalgebra,
    matrix_algebra,
    trivial_algebra,
    trivial_coalgebra,
)
from entwine.entwining import (
    DoiHopfDatum,
    Entwining,
    from_doi_hopf,
    std_object_AstarC,
    std_object_CA,
)
from entwine.exactlin import Field, InternalCheckError, LinMap, QQ
from entwine.homspaces import hom_basis, morphism_ok
from entwine.structures import ActionData, CoactionData, dual_algebra

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)


def doi_hopf_kc2_entwining(field):
    h = cyclic_group_bialgebra(field, 2)
    d = DoiHopfDatum(h, h.algebra, h.coalgebra,
                     CoactionData("right", h.coalgebra.comult_map()),
                     ActionData("right", h.algebra.mult_map()))
    return from_doi_hopf(d)


def triangular_entwining(field):
    """Upper-triangular 2x2 algebra with a one-point coalgebra, flipped."""
    return Entwining.flip(dual_algebra(arrow_coalgebra(field)),
                          trivial_coalgebra(field))


# -- independent brute-force oracle over F2 ----------------------------------

def _vartheta_ok(e, vt):
    """vt[c][a]; raw check of the balance law."""
    na, nc = e.a.dim, e.c.dim
    f = e.field
    for c in range(nc):
        for a in range(na):
            lhs = [f.zero] * nc
            for j1 in range(nc):
                for j2 in range(nc):
                    d = e.c.comult[c][j1][j2]
                    if not d:
                        continue
                    for alpha in range(na):
                        for u in range(nc):
                            p = e.psi_entry(alpha, u, j2, a)
                            if p:
                                lhs[u] = lhs[u] + d * p * vt[j1][alpha]
            rhs = [f.zero] * nc
            for u in range(nc):
                for j2 in range(nc):
                    d = e.c.comult[c][u][j2]
                    if d:
                        rhs[u] = rhs[u] + d * vt[j2][a]
            if lhs != rhs:
                return False
    return True


def _e_ok(e, em):
    """em[c][b1][b2]; raw check of the coaction-shift and centrality laws."""
    na, nc = e.a.dim, e.c.dim
    f = e.field
    for c in range(nc):
        lhs = [f.zero] * (na * na * nc)
        rhs = [f.zero] * (na * na * nc)
        for j1 in range(nc):
            for j2 in range(nc):
                d = e.c.comult[c][j1][j2]
                if not d:
                    continue
                for b1 in range(na):
                    for b2 in range(na):
                        ev = em[j1][b1][b2]
                        if ev:
                            lhs[(b1 * na + b2) * nc + j2] = \
                                lhs[(b1 * na + b2) * nc + j2] + d * ev
                        ev = em[j2][b1][b2]
                        if not ev:
                            continue
                        for alpha in range(na):
                            for u in range(nc):
                                p1 = e.psi_entry(alpha, u, j1, b1)
                                if not p1:
                                    continue
                                for beta in range(na):
                                    for w in range(nc):
                                        p2 = e.psi_entry(beta, w, u, b2)
                                        if p2:
                                            rhs[(alpha * na + beta) * nc + w] = \
                                                rhs[(alpha * na + beta) * nc + w] \
                                                + d * ev * p1 * p2
        if lhs != rhs:
            return False
    for c in range(nc):
        for a in range(na):
            lhs = [f.zero] * (na * na)
            for b1 in range(na):
                for b2 in range(na):
                    ev = em[c][b1][b2]
                    if ev:
                        for t, mm in enumerate(e.a.mult[b2][a]):
                            lhs[b1 * na + t] = lhs[b1 * na + t] + ev * mm
            rhs = [f.zero] * (na * na)
            for alpha in range(na):
                for u in range(nc):
                    p = e.psi_entry(alpha, u, c, a)
                    if not p:
                        continue
                    for b1 in range(na):
                        for b2 in range(na):
                            ev = em[u][b1][b2]
                            if ev:
                                for t, mm in enumerate(e.a.mult[alpha][b1]):
                                    rhs[t * na + b2] = rhs[t * na + b2] + p * ev * mm
            if lhs != rhs:
                return False
    return True


def _frob_prime_ok(e, vt, em):
    na, nc = e.a.dim, e.c.dim
    f = e.field
    for c in range(nc):
        want = [e.c.counit[c] * u for u in e.a.unit]
        got = [f.zero] * na
        for j1 in range(nc):
            for j2 in range(nc):
                d = e.c.comult[c][j1][j2]
                if not d:
                    continue
                for b1 in range(na):
                    for b2 in range(na):
                        ev = em[j2][b1][b2]
                        if ev:
                            got[b2] = got[b2] + d * ev * vt[j1][b1]
        if got != want:
            return False
        got = [f.zero] * na
        for j1 in range(nc):
            for j2 in range(nc):
                d = e.c.comult[c][j1][j2]
                if not d:
                    continue
                for b1 in range(na):
                    for b2 in range(na):
                        ev = em[j2][b1][b2]
                        if not ev:
                            continue
                        for alpha in range(na):
                            for u in range(nc):
                                p = e.psi_entry(alpha, u, j1, b1)
                                if p:
                                    got[alpha] = got[alpha] + d * ev * p * vt[u][b2]
        if got != want:
            return False
    return True


def brute_force_facts(e):
    """(V1' count, W1' count, F'-sep, G'-sep, frob) by exhaustive F2 scan."""
    na, nc = e.a.dim, e.c.dim
    f = e.field
    vts, es = [], []
    for bits in itertools.product([f.zero, f.one], repeat=nc * na):
        vt = [[bits[c * na + a] for a in range(na)] for c in range(nc)]
        if _vartheta_ok(e, vt):
            vts.append(vt)
    for bits in itertools.product([f.zero, f.one], repeat=nc * na * na):
        em = [[[bits[(c * na + b1) * na + b2] for b2 in range(na)]
               for b1 in range(na)] for c in range(nc)]
        if _e_ok(e, em):
            es.append(em)
    fp_sep = any(
        all(sum((vt[c][a] * e.a.unit[a] for a in range(na)), start=f.zero)
            == e.c.counit[c] for c in range(nc))
        for vt in vts)
    gp_sep = any(
        all(sum((em[c][b1][b2] * e.a.mult[b1][b2][t]
                 for b1 in range(na) for b2 in range(na)), start=f.zero)
            == e.c.counit[c] * e.a.unit[t]
            for c in range(nc) for t in range(na))
        for em in es)
    frob = any(_frob_prime_ok(e, vt, em) for vt in vts for em in es)
    return len(vts), len(es), fp_sep, gp_sep, frob


@pytest.mark.parametrize("make", [
    doi_hopf_kc2_entwining,
    triangular_entwining,
    lambda f: Entwining.flip(cyclic_group_algebra(f, 2), grouplike_coalgebra(f, 2)),
    lambda f: Entwining.flip(trivial_algebra(f), dual_numbers_coalgebra(f)),
])
def test_solver_agrees_with_brute_force_over_F2(make):
    e = make(F2)
    n_vt, n_e, fp_sep, gp_sep, frob = brute_force_facts(e)
    v1 = compute_V1prime(e)
    w1 = compute_W1prime(e)
    assert n_vt == 2 ** v1.dim
    assert n_e == 2 ** w1.dim
    assert (Fprime_separable(e).status == "yes") == fp_sep
    assert (Gprime_separable(e).status == "yes") == gp_sep
    verdict = FprimeGprime_frobenius(e)
    assert verdict.status in ("yes", "no")
    assert (verdict.status == "yes") == frob


# -- frozen values ------------------------------------------------------------

def test_spaces_for_flip_over_grouplike():
    e = Entwining.flip(trivial_algebra(QQ), grouplike_coalgebra(QQ, 2))
    assert compute_V1prime(e).dim == 2
    assert compute_W1prime(e).dim == 2


def test_triangular_casimir_space_is_a_line():
    e = triangular_entwining(QQ)
    w1 = compute_W1prime(e)
    assert w1.dim == 1
    em = w1.basis[0].with_shapes((1,), (3, 3))
    vals = em.apply([QQ.one])
    nonzero = {i for i, v in enumerate(vals) if v}
    # the line is spanned by x* (x) g* + h* (x) x*, basis order (g*, h*, x*)
    assert nonzero == {2 * 3 + 0, 1 * 3 + 2}
    assert vals[2 * 3 + 0] == vals[1 * 3 + 2]


def test_matrix_algebra_casimir_dimension():
    e = Entwining.flip(matrix_algebra(QQ, 2), trivial_coalgebra(QQ))
    assert compute_W1prime(e).dim == 4
    assert compute_V1prime(e).dim == 4


def test_Fprime_sep_flip_dual_numbers_yes():
    for field in (QQ, F2, F3):
        e = Entwining.flip(trivial_algebra(field), dual_numbers_coalgebra(field))
        v = Fprime_separable(e)
        assert v.status == "yes"
        assert vartheta_residual(e, v.witness["vartheta"]) == []


def test_Gprime_sep_group_algebra_depends_on_characteristic():
    for field, want in ((QQ, "yes"), (F2, "no"), (F3, "yes")):
        e = Entwining.flip(cyclic_group_algebra(field, 2),
                           trivial_coalgebra(field))
        assert Gprime_separable(e).status == want


def test_triangular_not_separable_not_frobenius_all_fields():
    for field in (QQ, F2, F3):
        e = triangular_entwining(field)
        assert Gprime_separable(e).status == "no"
        v = FprimeGprime_frobenius(e)
        assert v.status == "no"
        assert v.meta["definitive"]


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_matrix_algebra_frobenius_yes_with_trace_pair(field):
    e = Entwining.flip(matrix_algebra(field, 2), trivial_coalgebra(field))
    v = FprimeGprime_frobenius(e)
    assert v.status == "yes"
    assert frobenius_prime_residual(e, v.witness["vartheta"], v.witness["e"]) == []
    # the trace pairing with e = sum e_ij (x) e_ji, basis order (e11, e12, e21, e22)
    trace = LinMap(field, (1, 4), (1,),
                   ((field.one, field.zero, field.zero, field.one),))
    pairs = [(0, 0), (1, 2), (2, 1), (3, 3)]  # e11(x)e11, e12(x)e21, e21(x)e12, e22(x)e22
    em = [[field.zero] for _ in range(16)]
    for i, j in pairs:
        em[i * 4 + j][0] = field.one
    known = LinMap(field, (1,), (4, 4), tuple(tuple(r) for r in em))
    assert frobenius_prime_residual(e, trace, known) == []


@pytest.mark.parametrize("field", [F2, F3])
def test_frobenius_routes_agree(field):
    for make in (doi_hopf_kc2_entwining,
                 triangular_entwining,
                 lambda f: Entwining.flip(cyclic_group_algebra(f, 2),
                                          grouplike_coalgebra(f, 2))):
        e = make(field)
        a = FprimeGprime_frobenius(e, route="search")
        b = FprimeGprime_frobenius(e, route="iso")
        assert a.status == b.status
        if a.status == "yes":
            assert frobenius_prime_residual(
                e, a.witness["vartheta"], a.witness["e"]) == []
            assert frobenius_prime_residual(
                e, b.witness["vartheta"], b.witness["e"]) == []


# -- converters ----------------------------------------------------------------

def test_converter_frozen_values_grouplike():
    field = QQ
    e = Entwining.flip(trivial_algebra(field), grouplike_coalgebra(field, 2))
    eps_e = LinMap(field, (2,), (1, 1), ((field.one, field.one),))
    omega = e_to_omega(e, eps_e)
    # omega(1* (x) g_i) = g_i (x) 1: the identity matrix in these coordinates
    assert omega.with_shapes((2,), (2,)) == LinMap.identity(field, (2,))
    eps_vt = LinMap(field, (2, 1), (1,), ((field.one, field.one),))
    omegabar = vartheta_to_omegabar(e, eps_vt)
    assert omegabar.with_shapes((2,), (2,)) == LinMap.identity(field, (2,))


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_converters_are_mutually_inverse_and_land_in_hom_spaces(field):
    for make in (doi_hopf_kc2_entwining,
                 lambda f: Entwining.flip(trivial_algebra(f), dual_numbers_coalgebra(f)),
                 lambda f: Entwining.flip(cyclic_group_algebra(f, 2),
                                          grouplike_coalgebra(f, 2))):
        e = make(field)
        x = std_object_CA(e)
        y = std_object_AstarC(e)
        w1 = compute_W1prime(e)
        homs = hom_basis(e, y, x, FROBENIUS_PRIME_CS)
        assert len(homs) == w1.dim
        for em in w1.basis:
            om = e_to_omega(e, em)
            assert morphism_ok(e, y, x, om, FROBENIUS_PRIME_CS)
            assert omega_to_e(e, om) == em
        v1 = compute_V1prime(e)
        homs_back = hom_basis(e, x, y, FROBENIUS_PRIME_CS)
        assert len(homs_back) == v1.dim
        for vt in v1.basis:
            ob = vartheta_to_omegabar(e, vt)
            assert morphism_ok(e, x, y, ob, FROBENIUS_PRIME_CS)
            assert omegabar_to_vartheta(e, ob) == vt


# -- dual bases -----------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_dual_basis_resolves_identity_for_group_algebra(field):
    e = Entwining.flip(cyclic_group_algebra(field, 2), grouplike_coalgebra(field, 2))
    v = FprimeGprime_frobenius(e)
    assert v.status == "yes"
    db, ok = dual_basis_A(e, v.witness["vartheta"], v.witness["e"])
    assert ok
    # a non-normalized pair must not resolve the identity
    bad_vt = LinMap.zero_map(field, (2, 2), (1,))
    _, bad_ok = dual_basis_A(e, bad_vt, v.witness["e"])
    assert not bad_ok


def test_dual_basis_through_nontrivial_psi():
    for field in (QQ, F3):
        e = doi_hopf_kc2_entwining(field)
        v = FprimeGprime_frobenius(e)
        assert v.definitive
        if v.status == "yes":
            _, ok = dual_basis_A(e, v.witness["vartheta"], v.witness["e"])
            assert ok


def test_dual_basis_rejects_singular_psi():
    f = QQ
    a = cyclic_group_algebra(f, 2)
    c = grouplike_coalgebra(f, 2)
    e = Entwining(a, c, LinMap.zero_map(f, (2, 2), (2, 2)))
    vt = LinMap.zero_map(f, (2, 2), (1,))
    em = LinMap.zero_map(f, (2,), (2, 2))
    with pytest.raises(InternalCheckError):
        dual_basis_A(e, vt, em)
