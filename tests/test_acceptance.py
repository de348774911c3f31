"""Acceptance gate: ten criteria, one test and one pass/fail line each, plus
speed guards for the witness search.

Every equality here is exact (rational or modular arithmetic, tolerance 0),
and each criterion asserts its own wall-time budget.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from _reversed_corpus import run_reversed
from _vectors import in_span
from entwine.actforget import (
    FROBENIUS_PRIME_CS,
    FprimeGprime_frobenius,
    compute_V1prime,
    compute_W1prime,
    dual_basis_A,
    e_to_omega,
    omega_to_e,
    omegabar_to_vartheta,
    vartheta_to_omegabar,
)
from entwine.cli import main as cli_main, mutate_payload
from entwine.coforget import (
    FROBENIUS_CS,
    FG_frobenius,
    F_separable,
    compute_V1,
    compute_W1,
    dual_basis_AC,
    frobenius_residual,
    phi_to_z,
    phibar_to_theta,
    theta_to_phibar,
    z_to_phi,
)
from entwine.corpus import (
    all_entries,
    corpus_entwinings,
    corpus_extensions,
    corpus_factorizations,
    cyclic_group_algebra,
    dual_numbers_coalgebra,
    grouplike_coalgebra,
    matrix_algebra,
    trivial_algebra,
    unit_extension,
    upper_triangular_algebra,
    validate_payload,
)
from entwine.entwining import (
    Entwining,
    adjunction_check,
    std_object_AC,
    std_object_AstarC,
    std_object_CA,
    std_object_CstarA,
)
from entwine.exactlin import (
    Field,
    LinMap,
    QQ,
    basis_vec,
    hom_probe_matrix,
    nullspace,
    solve_linear,
)
from entwine.homspaces import SearchConfig, hom_basis, morphism_ok
from entwine.ringext import (
    casimir_residual,
    compute_casimir,
    compute_expectations,
    dual_basis_S,
    e_to_phi,
    fg_projective_coords,
    frobenius_check,
    frobenius_residual as ext_frobenius_residual,
    nu_to_phibar,
    phi_to_e,
    phibar_to_nu,
    quotient_mult,
    right_dual_space,
    separable_check,
    tensor_over_R,
)
from entwine.smash import (
    Factorization,
    check_factorization,
    cross_check_frobenius,
    entwining_to_factorization,
    factorization_to_entwining,
    smash_product,
)
from entwine.structures import check_algebra

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)
F5 = Field("Fp", 5)


class budget:
    """Assert the body of a `with` block finishes inside a wall-time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, (
                "budget exceeded: %.2fs >= %gs" % (elapsed, self.seconds))
        return False


def test_criterion_01_builtin_validators_and_mutation_rejection():
    with budget(5):
        for field in (QQ, F2, F3):
            for entry in all_entries(field):
                assert validate_payload(entry.payload).ok, entry.name
        mutations = 0
        for field in (F2, F3):
            for entry in all_entries(field):
                rep = validate_payload(mutate_payload(entry.payload))
                assert not rep.ok, entry.name
                assert rep.violations, entry.name
                mutations += 1
        assert mutations >= 30


def test_criterion_02_group_algebra_maschke_and_matrix_hand_witnesses():
    with budget(5):
        fields = [QQ, F2, F3, F5]
        for n in (2, 3):
            for field in fields:
                ext = unit_extension(field, cyclic_group_algebra(field, n))
                want = "no" if field.char and n % field.char == 0 else "yes"
                v = separable_check(ext)
                assert v.status == want, (n, field.char)
                assert v.definitive

        # M2(k)/k: separable and Frobenius everywhere, with hand witnesses
        for field in (QQ, F2, F3):
            one, zero = field.one, field.zero
            ext = unit_extension(field, matrix_algebra(field, 2))
            assert separable_check(ext).status == "yes"
            assert frobenius_check(ext).status == "yes"
            t = tensor_over_R(ext)
            # separability element: sum_j E_j0 (x) E_0j
            e_sep = [zero] * 16
            for j in range(2):
                e_sep[(2 * j) * 4 + j] = one
            eq = tuple(t.pi.apply(e_sep))
            assert casimir_residual(t, eq) == []
            assert list(quotient_mult(t).apply(eq)) == list(ext.s.unit)
            # Frobenius system: trace form with dual bases E_ij, E_ji
            e_frob = [zero] * 16
            for i in range(2):
                for j in range(2):
                    e_frob[(2 * i + j) * 4 + (2 * j + i)] = one
            nu_tr = LinMap.from_rows(field, (4,), (1,),
                                     [[one, zero, zero, one]])
            assert ext_frobenius_residual(ext, t, nu_tr,
                                          tuple(t.pi.apply(e_frob))) == []


def test_criterion_03_frobenius_without_separability_dual_numbers():
    with budget(1):
        for field in (QQ, F2, F3):
            e = Entwining.flip(trivial_algebra(field),
                               dual_numbers_coalgebra(field))
            v = FG_frobenius(e)
            assert v.status == "yes" and v.definitive
            assert frobenius_residual(e, v.witness["theta"],
                                      v.witness["z"]) == []
            s = F_separable(e)
            assert s.status == "no" and s.definitive


def test_criterion_04_frobenius_route_equivalence_finite_fields():
    with budget(60):
        for field in (F2, F3):
            for name, e in corpus_entwinings(field):
                a = FG_frobenius(e, route="search")
                b = FG_frobenius(e, route="iso")
                assert a.definitive and b.definitive, name
                assert a.status == b.status, name
                a = FprimeGprime_frobenius(e, route="search")
                b = FprimeGprime_frobenius(e, route="iso")
                assert a.definitive and b.definitive, name
                assert a.status == b.status, name
            for name, ext in corpus_extensions(field):
                a = frobenius_check(ext, route="search")
                b = frobenius_check(ext, route="iso")
                assert a.definitive and b.definitive, name
                assert a.status == b.status, name


def test_criterion_05_dictionary_round_trip_and_cross_check():
    with budget(30):
        for field in (QQ, F2, F3):
            for name, e in corpus_entwinings(field):
                fact = entwining_to_factorization(e)
                assert check_factorization(fact).ok, name
                assert factorization_to_entwining(fact, e.c) == e, name
        for field in (F2, F3):
            for name, e in corpus_entwinings(field):
                cc = cross_check_frobenius(e)
                assert cc["agree"], name
                assert cc["entwined"].status == cc["extension"].status, name


def test_criterion_06_smash_associativity_iff_axioms():
    with budget(30):
        b = cyclic_group_algebra(F2, 2)
        a = cyclic_group_algebra(F2, 2)
        rng = random.Random(0)
        for _ in range(200):
            rows = [[F2.one if rng.randrange(2) else F2.zero
                     for _ in range(4)] for _ in range(4)]
            fact = Factorization(b, a, LinMap.from_rows(F2, (2, 2), (2, 2), rows))
            ax = check_factorization(fact).ok
            alg = check_algebra(smash_product(fact)).ok
            assert ax == alg
        for field in (F2, F3):
            for name, fact in corpus_factorizations(field):
                assert check_factorization(fact).ok, name
                assert check_algebra(smash_product(fact)).ok, name
                rows = [list(r) for r in fact.rmap.mat]
                rows[0][0] = rows[0][0] + field.one
                broken = Factorization(fact.b, fact.a, LinMap.from_rows(
                    field, fact.rmap.dom, fact.rmap.cod, rows))
                assert not check_factorization(broken).ok
                assert not check_algebra(smash_product(broken)).ok


def test_criterion_07_dual_basis_resolutions_of_identity():
    with budget(10):
        hits = 0
        for field in (QQ, F2, F3):
            for name, e in corpus_entwinings(field):
                v = FG_frobenius(e)
                if v.status == "yes":
                    _, ok = dual_basis_AC(e, v.witness["theta"], v.witness["z"])
                    assert ok, name
                    hits += 1
                v = FprimeGprime_frobenius(e)
                if v.status == "yes":
                    _, ok = dual_basis_A(e, v.witness["vartheta"], v.witness["e"])
                    assert ok, name
                    hits += 1
            for name, ext in corpus_extensions(field):
                v = frobenius_check(ext)
                if v.status == "yes":
                    t = tensor_over_R(ext)
                    _, ok = dual_basis_S(ext, t, v.witness["nu"], v.witness["e"])
                    assert ok, name
                    hits += 1
        assert hits >= 20  # the corpus is rich in Frobenius instances


def _flat_map(m):
    return [v for row in m.mat for v in row]


def _dual_actions(ext, dspace):
    f = ext.field
    nd, ns, nr = len(dspace), ext.s.dim, ext.r.dim
    cols = [_flat_map(d) for d in dspace]
    rows = [[cols[k][i] for k in range(nd)] for i in range(nr * ns)]

    def coords(m):
        part, _ = solve_linear(f, rows, _flat_map(m))
        assert part is not None
        return list(part)

    right_on = [LinMap.from_images(
        f, (nd,), (nd,),
        [coords(d.compose(ext.s.lmult(basis_vec(f, ns, a)))) for d in dspace])
        for a in range(ns)]
    left_on = [LinMap.from_images(
        f, (nd,), (nd,),
        [coords(ext.r.lmult(basis_vec(f, nr, j)).compose(d)) for d in dspace])
        for j in range(nr)]
    return right_on, left_on


def _intertwiner_space(f, dim_src, dim_dst, laws):
    def op(t):
        mat = tuple(tuple(f.one if (r == t // dim_src and c == t % dim_src)
                          else f.zero for c in range(dim_src))
                    for r in range(dim_dst))
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


def test_criterion_08_converter_round_trips_and_hom_membership():
    with budget(30):
        for field in (QQ, F2, F3):
            for name, e in corpus_entwinings(field):
                x = std_object_AC(e)
                y = std_object_CstarA(e)
                v1, w1 = compute_V1(e), compute_W1(e)
                assert len(hom_basis(e, x, y, FROBENIUS_CS)) == v1.dim, name
                assert len(hom_basis(e, y, x, FROBENIUS_CS)) == w1.dim, name
                for th in v1.basis:
                    pb = theta_to_phibar(e, th)
                    assert morphism_ok(e, x, y, pb, FROBENIUS_CS)
                    assert phibar_to_theta(e, pb) == th
                for z in w1.basis:
                    ph = z_to_phi(e, z)
                    assert morphism_ok(e, y, x, ph, FROBENIUS_CS)
                    assert phi_to_z(e, ph) == z

                xp = std_object_CA(e)
                yp = std_object_AstarC(e)
                v1p, w1p = compute_V1prime(e), compute_W1prime(e)
                assert len(hom_basis(e, xp, yp, FROBENIUS_PRIME_CS)) == v1p.dim
                assert len(hom_basis(e, yp, xp, FROBENIUS_PRIME_CS)) == w1p.dim
                for vt in v1p.basis:
                    ob = vartheta_to_omegabar(e, vt)
                    assert morphism_ok(e, xp, yp, ob, FROBENIUS_PRIME_CS)
                    assert omegabar_to_vartheta(e, ob) == vt
                for em in w1p.basis:
                    om = e_to_omega(e, em)
                    assert morphism_ok(e, yp, xp, om, FROBENIUS_PRIME_CS)
                    assert omega_to_e(e, om) == em

            for name, ext in corpus_extensions(field):
                f = ext.field
                ns = ext.s.dim
                dspace = right_dual_space(ext)
                sigmas = fg_projective_coords(ext, dspace)
                assert sigmas is not None, name
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
                t = tensor_over_R(ext)
                v1, w1 = compute_expectations(ext), compute_casimir(t)
                assert len(v2) == v1.dim, name
                assert len(w2) == w1.dim, name
                v2_flat = [_flat_map(m) for m in v2]
                w2_flat = [_flat_map(m) for m in w2]
                for nu in v1.basis:
                    pb = nu_to_phibar(ext, dspace, nu)
                    assert in_span(f, v2_flat, _flat_map(pb)), name
                    assert phibar_to_nu(ext, dspace, pb) == nu
                for evec in w1.basis:
                    ph = e_to_phi(ext, t, dspace, evec)
                    assert in_span(f, w2_flat, _flat_map(ph)), name
                    assert phi_to_e(ext, t, sigmas, ph) == tuple(evec)


def test_criterion_09_adjunction_triangle_identities():
    with budget(10):
        for field in (QQ, F2, F3):
            for name, e in corpus_entwinings(field):
                for std in (std_object_AC, std_object_CA,
                            std_object_CstarA, std_object_AstarC):
                    m = std(e)
                    rep = adjunction_check(e, m)
                    assert rep.ok, (name, m.label, rep.describe())


def test_criterion_10_corpus_run_byte_determinism(monkeypatch):
    with budget(120):
        def run_json():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(["corpus", "run", "--format", "json"])
            assert code == 0
            return buf.getvalue()

        first = run_json()
        second = run_json()
        assert first == second
        code, reversed_order = run_reversed(monkeypatch,
                                            ["corpus", "run", "--format", "json"])
        assert code == 0
        assert reversed_order == first
        rep = json.loads(first)
        assert rep["ok"] and rep["failed"] == 0


def test_speed_guard_invertibility_search_over_q():
    """flip(kC4, GL2) over Q, FG-frob on the iso route: the morphism space is
    8-dimensional, so the grid cannot be scanned completely and the seeded
    random points go first; one of them hits (the lexicographic grid hit
    only at its 6562nd point).  Points are tested for singularity on
    integers and only the hit is inverted; inverting every point took over
    3 s."""
    e = Entwining.flip(cyclic_group_algebra(QQ, 4), grouplike_coalgebra(QQ, 2))
    with budget(1.5):
        v = FG_frobenius(e, route="iso")
    assert v.status == "yes" and v.meta["points"] <= SearchConfig().trials
    assert frobenius_residual(e, v.witness["theta"], v.witness["z"]) == []


def test_speed_guard_iso_routes_hit_in_the_random_phase():
    """flip(kC4, GL3)/Q FG-frob and k -> M3/Q ext-frob on the iso route:
    grid-first, each scanned its whole 65536-point grid before a random
    point hit (2.5 and 4.0 s)."""
    e = Entwining.flip(cyclic_group_algebra(QQ, 4), grouplike_coalgebra(QQ, 3))
    with budget(1.5):
        v = FG_frobenius(e, route="iso")
    assert v.status == "yes" and v.meta["points"] <= SearchConfig().trials
    assert frobenius_residual(e, v.witness["theta"], v.witness["z"]) == []

    ext = unit_extension(QQ, matrix_algebra(QQ, 3))
    with budget(1.5):
        v = frobenius_check(ext, route="iso")
    assert v.status == "yes" and v.meta["points"] <= SearchConfig().trials
    assert ext_frobenius_residual(ext, tensor_over_R(ext), v.witness["nu"],
                                  v.witness["e"]) == []


def test_speed_guard_search_route_over_fp_hits_in_the_random_phase():
    """k -> M4/F3 ext-frob on the search route: 3^16 Casimir candidates do
    not fit the budget, so the seeded random points go first and one of
    them hits.  Grid-first, the projective enumeration hit only at its
    6814th point (3.4 s)."""
    ext = unit_extension(F3, matrix_algebra(F3, 4))
    with budget(1.5):
        v = frobenius_check(ext, route="search")
    assert v.status == "yes" and v.meta["points"] <= SearchConfig().trials
    assert v.meta["mode"] == "projective-partial"
    assert ext_frobenius_residual(ext, tensor_over_R(ext), v.witness["nu"],
                                  v.witness["e"]) == []


@pytest.mark.parametrize("field,n", [(F3, 4), (QQ, 3)])
def test_speed_guard_iso_route_refutes_by_hom_dimensions(field, n):
    """flip(T2, GLn) FpGp-frob on the iso route, over F3 with n = 4 and over
    Q with n = 3: no invertible bicomodule morphism exists, and the scan
    cannot be complete (without the certificate it ended "unknown" after
    its 65536-point budget, in about 2.7 s).  The Hom dimensions prove "no"
    once the first `trials` points have missed."""
    e = Entwining.flip(upper_triangular_algebra(field), grouplike_coalgebra(field, n))
    with budget(1.5):
        v = FprimeGprime_frobenius(e, route="iso")
    assert v.status == "no" and v.definitive
    assert v.meta["points"] == SearchConfig().trials
    assert v.meta["certificate"] == (
        "dim Hom(Y,X) = %d != dim Hom(X,Y) = %d" % (n, 3 * n))
