"""Coaction-forgetting adjunction: separability, Frobenius, converters.

The F2 oracles enumerate every candidate map by brute force and check the
defining laws scalar by scalar, independently of the solver code paths.
"""

import itertools

import pytest

from entwine.coforget import (
    FROBENIUS_CS,
    FG_frobenius,
    F_separable,
    G_separable,
    compute_V1,
    compute_W1,
    dual_basis_AC,
    frobenius_residual,
    phi_to_z,
    phibar_to_theta,
    theta_to_phibar,
    theta_residual,
    z_residual,
    z_to_phi,
)
from entwine.corpus import (
    arrow_coalgebra,
    cyclic_group_algebra,
    cyclic_group_bialgebra,
    dual_numbers_coalgebra,
    grouplike_coalgebra,
    trivial_algebra,
)
from entwine.entwining import (
    DoiHopfDatum,
    Entwining,
    from_doi_hopf,
    std_object_AC,
    std_object_CstarA,
)
from entwine.exactlin import Field, LinMap, QQ
from entwine.homspaces import SearchConfig, hom_basis, morphism_ok
from entwine.structures import ActionData, CoactionData

from _vectors import in_span

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)


def doi_hopf_kc2_entwining(field):
    h = cyclic_group_bialgebra(field, 2)
    d = DoiHopfDatum(h, h.algebra, h.coalgebra,
                     CoactionData("right", h.coalgebra.comult_map()),
                     ActionData("right", h.algebra.mult_map()))
    return from_doi_hopf(d)


# -- independent brute-force oracle over F2 ----------------------------------

def _theta_law_ok(e, th):
    """Raw scalar translation of the two theta laws."""
    na, nc = e.a.dim, e.c.dim
    f = e.field
    for c in range(nc):
        for c2 in range(nc):
            for a in range(na):
                lhs = [f.zero] * na
                for s in range(na):
                    tv = th[s][c][c2]
                    if tv:
                        for t, mm in enumerate(e.a.mult[s][a]):
                            lhs[t] = lhs[t] + tv * mm
                rhs = [f.zero] * na
                for alpha in range(na):
                    for gamma in range(nc):
                        p1 = e.psi_entry(alpha, gamma, c2, a)
                        if not p1:
                            continue
                        for a2 in range(na):
                            for g2 in range(nc):
                                p2 = e.psi_entry(a2, g2, c, alpha)
                                if not p2:
                                    continue
                                for s in range(na):
                                    tv = th[s][g2][gamma]
                                    if tv:
                                        for t, mm in enumerate(e.a.mult[a2][s]):
                                            rhs[t] = rhs[t] + p1 * p2 * tv * mm
                if lhs != rhs:
                    return False
    for c in range(nc):
        for c2 in range(nc):
            lhs = [[f.zero] * nc for _ in range(na)]
            for j in range(nc):
                for j2 in range(nc):
                    d = e.c.comult[c2][j][j2]
                    if d:
                        for s in range(na):
                            lhs[s][j2] = lhs[s][j2] + d * th[s][c][j]
            rhs = [[f.zero] * nc for _ in range(na)]
            for j in range(nc):
                for j2 in range(nc):
                    d = e.c.comult[c][j][j2]
                    if not d:
                        continue
                    for s in range(na):
                        tv = th[s][j2][c2]
                        if not tv:
                            continue
                        for a2 in range(na):
                            for g2 in range(nc):
                                p = e.psi_entry(a2, g2, j, s)
                                if p:
                                    rhs[a2][g2] = rhs[a2][g2] + d * tv * p
            if lhs != rhs:
                return False
    return True


def _z_central_ok(e, z):
    na, nc = e.a.dim, e.c.dim
    f = e.field
    for a in range(na):
        lhs = [f.zero] * (na * nc)
        for b in range(na):
            for g in range(nc):
                zv = z[b * nc + g]
                if zv:
                    for t, mm in enumerate(e.a.mult[a][b]):
                        lhs[t * nc + g] = lhs[t * nc + g] + zv * mm
        rhs = [f.zero] * (na * nc)
        for b in range(na):
            for g in range(nc):
                zv = z[b * nc + g]
                if not zv:
                    continue
                for alpha in range(na):
                    for g2 in range(nc):
                        p = e.psi_entry(alpha, g2, g, a)
                        if p:
                            for t, mm in enumerate(e.a.mult[b][alpha]):
                                rhs[t * nc + g2] = rhs[t * nc + g2] + zv * p * mm
        if lhs != rhs:
            return False
    return True


def _frob_pair_ok(e, th, z):
    na, nc = e.a.dim, e.c.dim
    f = e.field
    for d in range(nc):
        want = [e.c.counit[d] * u for u in e.a.unit]
        got = [f.zero] * na
        for b in range(na):
            for g in range(nc):
                zv = z[b * nc + g]
                if not zv:
                    continue
                for s in range(na):
                    tv = th[s][g][d]
                    if tv:
                        for t, mm in enumerate(e.a.mult[b][s]):
                            got[t] = got[t] + zv * tv * mm
        if got != want:
            return False
        got = [f.zero] * na
        for b in range(na):
            for g in range(nc):
                zv = z[b * nc + g]
                if not zv:
                    continue
                for alpha in range(na):
                    for delta in range(nc):
                        p = e.psi_entry(alpha, delta, d, b)
                        if not p:
                            continue
                        for s in range(na):
                            tv = th[s][delta][g]
                            if tv:
                                for t, mm in enumerate(e.a.mult[alpha][s]):
                                    got[t] = got[t] + zv * p * tv * mm
        if got != want:
            return False
    return True


def brute_force_facts(e):
    """(V1 count, W1 count, F-sep, G-sep, FG-frob) by exhaustive scan over F2."""
    na, nc = e.a.dim, e.c.dim
    f = e.field
    thetas, zs = [], []
    for bits in itertools.product([f.zero, f.one], repeat=na * nc * nc):
        th = [[[bits[(s * nc + c) * nc + c2] for c2 in range(nc)]
               for c in range(nc)] for s in range(na)]
        if _theta_law_ok(e, th):
            thetas.append(th)
    for bits in itertools.product([f.zero, f.one], repeat=na * nc):
        if _z_central_ok(e, list(bits)):
            zs.append(list(bits))
    f_sep = any(
        all(sum((th[s][j][j2] * e.c.comult[c][j][j2]
                 for j in range(nc) for j2 in range(nc)), start=f.zero)
            == e.c.counit[c] * e.a.unit[s]
            for c in range(nc) for s in range(na))
        for th in thetas)
    g_sep = any(
        all(sum((z[b * nc + g] * e.c.counit[g] for g in range(nc)), start=f.zero)
            == e.a.unit[b] for b in range(na))
        for z in zs)
    frob = any(_frob_pair_ok(e, th, z) for th in thetas for z in zs)
    return len(thetas), len(zs), f_sep, g_sep, frob


@pytest.mark.parametrize("make", [
    doi_hopf_kc2_entwining,
    lambda f: Entwining.flip(cyclic_group_algebra(f, 2), grouplike_coalgebra(f, 2)),
    lambda f: Entwining.flip(trivial_algebra(f), arrow_coalgebra(f)),
    lambda f: Entwining.flip(trivial_algebra(f), dual_numbers_coalgebra(f)),
])
def test_solver_agrees_with_brute_force_over_F2(make):
    e = make(F2)
    n_theta, n_z, f_sep, g_sep, frob = brute_force_facts(e)
    v1, w1 = compute_V1(e), compute_W1(e)
    assert n_theta == 2 ** v1.dim
    assert n_z == 2 ** w1.dim
    assert (F_separable(e).status == "yes") == f_sep
    assert (G_separable(e).status == "yes") == g_sep
    verdict = FG_frobenius(e)
    assert verdict.status in ("yes", "no")
    assert (verdict.status == "yes") == frob


# -- frozen values ------------------------------------------------------------

def test_V1_grouplike_is_diagonal():
    e = Entwining.flip(trivial_algebra(QQ), grouplike_coalgebra(QQ, 2))
    v1 = compute_V1(e)
    assert v1.dim == 2
    for th in v1.basis:
        assert th.mat[0][0 * 2 + 1] == QQ.zero
        assert th.mat[0][1 * 2 + 0] == QQ.zero


def test_V1_dual_numbers_constraints():
    e = Entwining.flip(trivial_algebra(QQ), dual_numbers_coalgebra(QQ))
    v1 = compute_V1(e)
    assert v1.dim == 2
    for th in v1.basis:
        assert th.mat[0][0] == QQ.zero          # theta(g (x) g) = 0 forced
        assert th.mat[0][1] == th.mat[0][2]     # theta(g (x) x) = theta(x (x) g)


def test_W1_doi_hopf_kc2_frozen_span():
    e = doi_hopf_kc2_entwining(QQ)
    w1 = compute_W1(e)
    assert w1.dim == 2
    frozen = [
        (QQ.one, QQ.one, QQ.zero, QQ.zero),   # 1 (x) 1 + 1 (x) g
        (QQ.zero, QQ.zero, QQ.one, QQ.one),   # g (x) 1 + g (x) g
    ]
    for v in frozen:
        assert in_span(QQ, w1.basis, v)
    for b in w1.basis:
        assert in_span(QQ, frozen, b)


def test_F_sep_grouplike_yes_dual_numbers_no():
    for field in (QQ, F2, F3):
        e = Entwining.flip(trivial_algebra(field), grouplike_coalgebra(field, 2))
        v = F_separable(e)
        assert v.status == "yes"
        assert theta_residual(e, v.witness["theta"]) == []
        e = Entwining.flip(trivial_algebra(field), dual_numbers_coalgebra(field))
        assert F_separable(e).status == "no"


def test_G_sep_doi_hopf_kc2_depends_on_characteristic():
    v = G_separable(doi_hopf_kc2_entwining(QQ))
    assert v.status == "yes"
    half = QQ.parse("1/2")
    assert list(v.witness["z"]) == [half, half, QQ.zero, QQ.zero]
    assert G_separable(doi_hopf_kc2_entwining(F2)).status == "no"
    assert G_separable(doi_hopf_kc2_entwining(F3)).status == "yes"


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_FG_frobenius_dual_numbers_yes_with_expected_witness(field):
    e = Entwining.flip(trivial_algebra(field), dual_numbers_coalgebra(field))
    v = FG_frobenius(e)
    assert v.status == "yes"
    assert frobenius_residual(e, v.witness["theta"], v.witness["z"]) == []
    # the known pair: theta(g (x) x) = theta(x (x) g) = 1, theta(x (x) x) = 0, z = x
    known_theta = LinMap(field, (2, 2), (1,),
                         ((field.zero, field.one, field.one, field.zero),))
    known_z = (field.zero, field.one)
    assert frobenius_residual(e, known_theta, known_z) == []


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_FG_frobenius_arrow_coalgebra_definitive_no(field):
    e = Entwining.flip(trivial_algebra(field), arrow_coalgebra(field))
    v = FG_frobenius(e)
    assert v.status == "no"
    assert v.meta["definitive"]


@pytest.mark.parametrize("field", [F2, F3])
def test_FG_routes_agree(field):
    for make in (doi_hopf_kc2_entwining,
                 lambda f: Entwining.flip(trivial_algebra(f), dual_numbers_coalgebra(f)),
                 lambda f: Entwining.flip(trivial_algebra(f), arrow_coalgebra(f))):
        e = make(field)
        a = FG_frobenius(e, route="search")
        b = FG_frobenius(e, route="iso")
        assert a.status == b.status
        if a.status == "yes":
            assert frobenius_residual(e, a.witness["theta"], a.witness["z"]) == []
            assert frobenius_residual(e, b.witness["theta"], b.witness["z"]) == []


# -- converters ----------------------------------------------------------------

def test_converter_frozen_values_grouplike():
    field = QQ
    e = Entwining.flip(trivial_algebra(field), grouplike_coalgebra(field, 2))
    delta_theta = LinMap(field, (2, 2), (1,),
                         ((field.one, field.zero, field.zero, field.one),))
    phibar = theta_to_phibar(e, delta_theta)
    # phibar(1 (x) g_i) = g_i* (x) 1: the identity matrix in these coordinates
    assert phibar.with_shapes((2,), (2,)) == LinMap.identity(field, (2,))
    z = (field.one, field.one)  # 1 (x) g0 + 1 (x) g1
    phi = z_to_phi(e, z)
    assert phi.with_shapes((2,), (2,)) == LinMap.identity(field, (2,))


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_converters_are_mutually_inverse_and_land_in_hom_spaces(field):
    for make in (doi_hopf_kc2_entwining,
                 lambda f: Entwining.flip(trivial_algebra(f), dual_numbers_coalgebra(f)),
                 lambda f: Entwining.flip(cyclic_group_algebra(f, 2),
                                          grouplike_coalgebra(f, 2))):
        e = make(field)
        x, y = std_object_AC(e), std_object_CstarA(e)
        homs = hom_basis(e, x, y, FROBENIUS_CS)
        v1 = compute_V1(e)
        assert len(homs) == v1.dim
        for th in v1.basis:
            pb = theta_to_phibar(e, th)
            assert morphism_ok(e, x, y, pb, FROBENIUS_CS)
            assert phibar_to_theta(e, pb) == th
        w1 = compute_W1(e)
        homs_back = hom_basis(e, y, x, FROBENIUS_CS)
        assert len(homs_back) == w1.dim
        for z in w1.basis:
            ph = z_to_phi(e, z)
            assert morphism_ok(e, y, x, ph, FROBENIUS_CS)
            assert phi_to_z(e, ph) == z


# -- dual bases -----------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_dual_basis_resolves_identity_iff_frobenius_pair(field):
    e = Entwining.flip(trivial_algebra(field), dual_numbers_coalgebra(field))
    v = FG_frobenius(e)
    db, ok = dual_basis_AC(e, v.witness["theta"], v.witness["z"])
    assert ok
    assert db.size == 2
    # a non-normalized pair must not resolve the identity
    bad_theta = LinMap.zero_map(field, (2, 2), (1,))
    _, bad_ok = dual_basis_AC(e, bad_theta, v.witness["z"])
    assert not bad_ok


def test_dual_basis_grouplike():
    e = Entwining.flip(trivial_algebra(QQ), grouplike_coalgebra(QQ, 2))
    v = FG_frobenius(e)
    assert v.status == "yes"
    db, ok = dual_basis_AC(e, v.witness["theta"], v.witness["z"])
    assert ok
