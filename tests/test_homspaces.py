"""Hom-space bases, invertibility search, affine span solving, and the two
decision pipelines every decider goes through."""

import itertools
from types import SimpleNamespace

import pytest

from entwine.corpus import (
    cyclic_group_algebra,
    dual_numbers_coalgebra,
    grouplike_coalgebra,
    random_doi_hopf,
    trivial_algebra,
)
from entwine.entwining import (
    EntwinedObject,
    Entwining,
    check_entwined_object,
    check_entwining,
    from_doi_hopf,
    std_object_AC,
    std_object_CA,
    std_object_CstarA,
)
from entwine.exactlin import Field, InternalCheckError, LinMap, QQ, SolutionSpace
from entwine.homspaces import (
    ENTWINED_MORPHISMS,
    ConstraintSet,
    FrobeniusProblem,
    SearchConfig,
    Verdict,
    combine_in_span,
    decide_frobenius,
    decide_normalized,
    find_invertible_in_span,
    hom_basis,
    iso_exists,
    morphism_ok,
    search_candidates,
    solve_affine_in_span,
)

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)

BIMOD = ConstraintSet(right_A_linear=True, right_C_colinear=True, left_A_linear=True)


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_standard_objects_used_here_are_entwined_modules(field):
    """The builders take valid entwinings and do not check what they build;
    this checks the objects the tests below build."""
    for c in (grouplike_coalgebra(field, 2), grouplike_coalgebra(field, 3),
              dual_numbers_coalgebra(field)):
        e = Entwining.flip(trivial_algebra(field), c)
        assert check_entwining(e).ok
        for build in (std_object_AC, std_object_CA, std_object_CstarA):
            assert check_entwined_object(e, build(e)).ok


def test_frozen_dim_maps_AC_to_CstarA_over_grouplikes():
    # A = k, C = 2 group-likes: colinear maps C -> C* are exactly the
    # diagonal ones, one free scalar per group-like.
    e = Entwining.flip(trivial_algebra(QQ), grouplike_coalgebra(QQ, 2))
    basis = hom_basis(e, std_object_AC(e), std_object_CstarA(e), BIMOD)
    assert len(basis) == 2
    for b in basis:
        assert morphism_ok(e, std_object_AC(e), std_object_CstarA(e), b, BIMOD)


def brute_force_hom_count(e, x, y, cs):
    """Independent oracle: try every matrix over F2 against the raw laws."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    count = 0
    for bits in itertools.product([f.zero, f.one], repeat=x.dim * y.dim):
        mat = tuple(tuple(bits[r * x.dim + c] for c in range(x.dim))
                    for r in range(y.dim))
        fm = LinMap(f, (x.dim,), (y.dim,), mat)
        ok = True
        if cs.right_A_linear:
            lhs = fm.compose(x.act.with_shapes((x.dim, na), (x.dim,)))
            rhs = y.act.with_shapes((y.dim, na), (y.dim,)).compose(fm.tensor(ida))
            ok = ok and lhs == rhs.with_shapes((x.dim, na), (y.dim,))
        if cs.right_C_colinear:
            lhs = y.coact.with_shapes((y.dim,), (y.dim, nc)).compose(fm)
            rhs = fm.tensor(idc).compose(x.coact.with_shapes((x.dim,), (x.dim, nc)))
            ok = ok and lhs == rhs.with_shapes((x.dim,), (y.dim, nc))
        if ok:
            count += 1
    return count


def test_hom_basis_matches_brute_force_over_F2():
    e = Entwining.flip(trivial_algebra(F2), grouplike_coalgebra(F2, 3))
    x, y = std_object_AC(e), std_object_CstarA(e)
    basis = hom_basis(e, x, y, ENTWINED_MORPHISMS)
    assert brute_force_hom_count(e, x, y, ENTWINED_MORPHISMS) == 2 ** len(basis)


def test_hom_basis_doi_hopf_self_check():
    for field in (F2, F3):
        d = random_doi_hopf((2, 2, 2), field, 5)
        e = from_doi_hopf(d)
        assert check_entwining(e).ok
        x, y = std_object_AC(e), std_object_CA(e)
        assert check_entwined_object(e, x).ok and check_entwined_object(e, y).ok
        basis = hom_basis(e, x, y, ENTWINED_MORPHISMS)
        for b in basis:
            assert morphism_ok(e, x, y, b, ENTWINED_MORPHISMS)
        if len(basis) >= 2:
            mixed = combine_in_span(field, basis, [field.one] * len(basis))
            assert morphism_ok(e, x, y, mixed, ENTWINED_MORPHISMS)


def test_missing_left_structure_is_reported():
    e = Entwining.flip(trivial_algebra(QQ), grouplike_coalgebra(QQ, 2))
    x = std_object_CA(e)  # has no left action
    with pytest.raises(Exception):
        hom_basis(e, x, x, ConstraintSet(left_A_linear=True))


# -- iso search --------------------------------------------------------------

def grouplike_line_object(field, n, which=0):
    """n-dim comodule over A = k where every basis vector coacts along g_which."""
    imgs = [[field.zero] * (n * n) for _ in range(n)]
    for i in range(n):
        imgs[i][i * n + which] = field.one
    coact = LinMap.from_images(field, (n,), (n, n), imgs)
    act = LinMap.identity(field, (n,)).with_shapes((n, 1), (n,))
    return EntwinedObject("line^%d" % n, n, act, coact)


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_iso_exists_grouplike_dual(field):
    e = Entwining.flip(trivial_algebra(field), grouplike_coalgebra(field, 2))
    v = iso_exists(e, std_object_AC(e), std_object_CstarA(e), BIMOD)
    assert v.status == "yes"
    f, finv = v.witness["iso"], v.witness["inverse"]
    n = f.dim_dom
    assert f.compose(finv.with_shapes(finv.dom, f.dom)).with_shapes((n,), (n,)) \
        == LinMap.identity(field, (n,))


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_iso_exists_dual_numbers(field):
    e = Entwining.flip(trivial_algebra(field), dual_numbers_coalgebra(field))
    v = iso_exists(e, std_object_AC(e), std_object_CstarA(e), BIMOD)
    assert v.status == "yes"


@pytest.mark.parametrize("field", [QQ, F2])
def test_iso_exists_definitive_no(field):
    e = Entwining.flip(trivial_algebra(field), grouplike_coalgebra(field, 2))
    x = grouplike_line_object(field, 2)
    y = std_object_CA(e)
    v = iso_exists(e, x, y, ENTWINED_MORPHISMS)
    assert v.status == "no"
    assert v.meta["definitive"]


def test_iso_exists_dimension_mismatch():
    e = Entwining.flip(trivial_algebra(QQ), grouplike_coalgebra(QQ, 2))
    v = iso_exists(e, std_object_AC(e), grouplike_line_object(QQ, 3), ENTWINED_MORPHISMS)
    assert v.status == "no" and "mismatch" in v.reason


def test_iso_exists_budget_exhaustion_is_unknown():
    e = Entwining.flip(trivial_algebra(F2), grouplike_coalgebra(F2, 2))
    cfg = SearchConfig(enum_budget=1, trials=0)
    v = iso_exists(e, std_object_AC(e), std_object_CstarA(e), BIMOD, cfg)
    assert v.status == "unknown"
    assert not v.definitive


# -- search primitives -------------------------------------------------------

def test_projective_search_is_exhaustive_over_F2():
    seen = []

    def attempt(coeffs):
        seen.append(tuple(coeffs))
        return None

    hit, complete, meta = search_candidates(F2, 3, attempt, SearchConfig())
    assert hit is None and complete
    assert len(seen) == 7  # (2^3 - 1) / (2 - 1)
    assert len(set(seen)) == 7


def test_single_line_over_Q_is_definitive():
    hit, complete, meta = search_candidates(QQ, 1, lambda c: None, SearchConfig())
    assert hit is None and complete and meta["mode"] == "single-line"


def test_grid_then_random_over_Q_is_incomplete():
    hit, complete, meta = search_candidates(QQ, 2, lambda c: None,
                                            SearchConfig(trials=3))
    assert hit is None and not complete
    assert meta["points"] == 8 + 3  # 3^2 - 1 grid points, then 3 randoms


def _scan(field, dim, cfg, **kwargs):
    """The points a miss-everything scan visits, and its result."""
    seen = []
    result = search_candidates(field, dim, lambda c: seen.append(tuple(c)), cfg, **kwargs)
    return seen, result


def test_random_first_moves_the_random_points_before_an_incomplete_scan():
    cfg = SearchConfig(trials=3)
    grid_first, (_, complete, _) = _scan(QQ, 3, cfg)  # 26 grid points, 3 random
    seen, (_, complete_rf, _) = _scan(QQ, 3, cfg, random_first=True)
    assert not complete and not complete_rf
    assert seen == grid_first[26:] + grid_first[:26]
    # a partial projective scan has no random points unless they go first
    cfg = SearchConfig(enum_budget=5, trials=3)
    enumerated, _ = _scan(F3, 3, cfg)
    seen, (_, complete, meta) = _scan(F3, 3, cfg, random_first=True)
    assert not complete and meta["mode"] == "projective-partial"
    assert len(enumerated) == 5 and seen[-5:] == enumerated and len(seen) > 5


def test_random_first_keeps_a_complete_scan_in_order():
    cfg = SearchConfig()
    assert _scan(F3, 3, cfg, random_first=True) == _scan(F3, 3, cfg)
    assert _scan(QQ, 2, cfg, random_first=True, grid_values=range(3)) \
        == _scan(QQ, 2, cfg, grid_values=range(3))


def _refute_log(cert):
    calls = []

    def refute():
        calls.append(True)
        return cert
    return calls, refute


def test_refutation_is_consulted_once_after_the_trials_points():
    # F3, dim 4: 40 projective points, a complete scan
    calls, refute = _refute_log(None)
    seen, (_, complete, meta) = _scan(F3, 4, SearchConfig(trials=5), refute=refute)
    assert calls == [True] and complete and len(seen) == 40 and "certificate" not in meta

    calls, refute = _refute_log("proof")
    seen, (hit, complete, meta) = _scan(F3, 4, SearchConfig(trials=5), refute=refute)
    assert calls == [True] and len(seen) == meta["points"] == 5
    assert hit is None and complete and meta["certificate"] == "proof"


def test_refutation_waits_for_the_end_of_an_incomplete_scan_with_no_trials():
    calls, refute = _refute_log("proof")
    seen, (hit, complete, meta) = _scan(F3, 4, SearchConfig(enum_budget=10, trials=0),
                                        refute=refute)
    assert calls == [True] and len(seen) == 10
    assert hit is None and complete and meta["certificate"] == "proof"


def test_refutation_is_not_consulted_for_a_hit_or_a_short_complete_scan():
    calls, refute = _refute_log("proof")
    hit, _, meta = search_candidates(F3, 4, lambda c: "hit" if c[-1] else None,
                                     SearchConfig(trials=5), refute=refute)
    assert hit == "hit" and meta["points"] <= 5
    seen, (hit, complete, meta) = _scan(F3, 4, SearchConfig(trials=40), refute=refute)
    assert len(seen) == 40 and complete and "certificate" not in meta
    assert calls == []


def test_find_invertible_reports_grid_certificate_over_Q():
    # span of two rank-one maps sharing a row: never invertible
    z, o = QQ.zero, QQ.one
    b1 = LinMap(QQ, (2,), (2,), ((o, z), (z, z)))
    b2 = LinMap(QQ, (2,), (2,), ((z, o), (z, z)))
    status, f, finv, meta = find_invertible_in_span(QQ, [b1, b2], SearchConfig())
    assert status == "no"
    assert "certificate" in meta


def test_solve_affine_in_span_recovers_solution():
    # find x = (x0, x1) with x0 + x1 = 2 and x0 - x1 = 0: the images of the
    # two basis elements are (1, 1) and (1, -1)
    images = [(QQ.one, QQ.one), (QQ.one, -QQ.one)]
    part, kern = solve_affine_in_span(QQ, images, [QQ.of(2), QQ.zero])
    assert part is not None and list(part) == [QQ.one, QQ.one]
    assert kern == []


def test_solve_affine_infeasible():
    # x0 = 0 and x0 = 1
    part, kern = solve_affine_in_span(QQ, [(QQ.one, QQ.one)], [QQ.zero, QQ.one])
    assert part is None


# -- the separability helper -------------------------------------------------

def _plane(residual=lambda x: []):
    return SolutionSpace([(QQ.one, QQ.zero), (QQ.zero, QQ.one)], residual)


CHECKS = ("w-laws", "w-normalization")


def test_decide_normalized_finds_and_names_the_witness():
    v = decide_normalized(QQ, "q", _plane(), None, lambda x: [x[0] + x[1], x[0] - x[1]],
                          [QQ.of(2), QQ.zero], "w", CHECKS, ("none", "found"), {"dim": 2})
    assert (v.status, v.reason, v.witness) == ("yes", "found", {"w": (QQ.one, QQ.one)})
    assert v.meta == {"dim": 2, "definitive": True}
    assert v.residual_checks == {"w-laws": "0", "w-normalization": "0"}


def test_decide_normalized_on_an_empty_space_uses_the_zero_element():
    empty = SolutionSpace([], lambda x: [])
    zero = (QQ.zero, QQ.zero)
    v = decide_normalized(QQ, "q", empty, zero, list, [QQ.zero, QQ.zero], "w",
                          CHECKS, ("none", "found"), {})
    assert v.status == "yes" and v.witness == {"w": zero}
    assert v.residual_checks == {"w-laws": "0", "w-normalization": "0"}
    v = decide_normalized(QQ, "q", empty, zero, list, [QQ.one, QQ.zero], "w",
                          CHECKS, ("none", "found"), {})
    assert (v.status, v.reason, v.definitive) == ("no", "none", True)
    assert v.residual_checks == {}


def test_decide_normalized_rechecks_the_laws_of_its_space():
    # the basis satisfies the space's laws, the normalized combination does not
    space = _plane(lambda x: ["law"] if x == (QQ.one, QQ.one) else [])
    with pytest.raises(InternalCheckError, match="w-laws: \\['law'\\]"):
        decide_normalized(QQ, "q", space, None, list, [QQ.one, QQ.one], "w",
                          CHECKS, ("none", "found"), {})


def test_decide_normalized_rechecks_the_normalization(monkeypatch):
    # a solver that answers zero coefficients: a member of the space that
    # is not normalized
    from entwine import homspaces

    monkeypatch.setattr(homspaces, "solve_affine_in_span",
                        lambda field, images, target: ([QQ.zero] * len(images), []))
    with pytest.raises(InternalCheckError, match="q witness fails w-normalization"):
        decide_normalized(QQ, "q", _plane(), None, list, [QQ.one, QQ.one], "w",
                          CHECKS, ("none", "found"), {})


# -- the Frobenius driver ------------------------------------------------------

def _problem(search, iso_status, bad=()):
    """A problem whose search returns `search` = (hit, complete) and whose
    iso route answers `iso_status`; every witness fails `bad`."""
    system = SimpleNamespace(unknowns=[None], cands=[None, None],
                             search=lambda cfg: (search[0], search[1], {"points": 3}))
    return FrobeniusProblem(
        "q", "pair", system=lambda: system, dims=("U_dim", "C_dim"),
        witness=lambda w, v: {"w": w, "v": v}, residual=lambda wit: list(bad),
        iso=lambda: Verdict("q", iso_status, "by iso", witness={"w": 1},
                            meta={"route": "iso"}))


@pytest.mark.parametrize("route", ["search", "auto"])
def test_decide_frobenius_search_verdicts(route):
    v = decide_frobenius(_problem(((1, 2), False), "no"), SearchConfig(), route)
    assert (v.status, v.witness) == ("yes", {"w": 1, "v": 2})
    assert v.meta == {"points": 3, "U_dim": 1, "C_dim": 2, "route": "search",
                      "definitive": True}
    assert v.residual_checks == {"frobenius-system": "0"}
    v = decide_frobenius(_problem((None, True), "yes"), SearchConfig(), route)
    assert (v.status, v.reason) == ("no", "candidate space scanned completely; "
                                          "no pair exists")
    assert v.residual_checks == {}


def test_decide_frobenius_falls_back_to_the_iso_route():
    cfg = SearchConfig()
    undecided = (None, False)
    v = decide_frobenius(_problem(undecided, "unknown"), cfg, "search")
    assert (v.status, v.reason, v.meta["definitive"]) == (
        "unknown", "search budget exhausted", False)
    for status, checks in (("yes", {"frobenius-system": "0"}), ("no", {})):
        v = decide_frobenius(_problem(undecided, status), cfg, "auto")
        assert (v.status, v.meta["route"]) == (status, "iso")
        assert v.residual_checks == checks
    # an undecided iso route keeps the search's verdict
    v = decide_frobenius(_problem(undecided, "unknown"), cfg, "auto")
    assert (v.status, v.meta["route"]) == ("unknown", "search")
    v = decide_frobenius(_problem(undecided, "unknown"), cfg, "iso")
    assert (v.status, v.reason) == ("unknown", "by iso")


@pytest.mark.parametrize("route,search", [("search", ((1, 2), False)), ("iso", None)])
def test_decide_frobenius_rechecks_every_witness(route, search):
    with pytest.raises(InternalCheckError, match="from the %s route" % route):
        decide_frobenius(_problem(search, "yes", bad=["law"]), SearchConfig(), route)


def test_decide_frobenius_rejects_an_unknown_route():
    with pytest.raises(ValueError):
        decide_frobenius(_problem((None, True), "no"), SearchConfig(), "fast")
