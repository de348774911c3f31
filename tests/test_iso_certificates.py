"""Hom-dimension certificates of the isomorphism route.

When the invertibility search of `iso_exists` misses its first `trials`
points, or ends incomplete, it compares dim Hom(Y, X), dim End X and
dim End Y with dim Hom(X, Y), and a mismatch is a definitive "no".  Here
every certified dimension is recomputed independently (the probing
reference of `_probe_reference`, and sympy's rank), the certificate is
checked against exhaustive scans, and `analyze --trials 0` is checked to
still reach it at the end of the scan.
"""

import json
import re

import pytest

import _probe_reference as ref
from entwine import cli
from entwine.actforget import FROBENIUS_PRIME_CS
from entwine.coforget import FROBENIUS_CS
from entwine.corpus import corpus_entwinings, grouplike_coalgebra, upper_triangular_algebra
from entwine.entwining import (
    Entwining,
    std_object_AC,
    std_object_AstarC,
    std_object_CA,
    std_object_CstarA,
)
from entwine.exactlin import Field, QQ
from entwine.homspaces import (
    SearchConfig,
    _hom_dim_refutation,
    find_invertible_in_span,
    hom_basis,
    iso_exists,
)

F2 = Field("Fp", 2)
F3 = Field("Fp", 3)

# the objects X, Y and the morphism laws of the FG-frob and FpGp-frob iso routes
ROUTES = {
    "FG": (std_object_AC, std_object_CstarA, FROBENIUS_CS),
    "FpGp": (std_object_CA, std_object_AstarC, FROBENIUS_PRIME_CS),
}
CERTIFICATE = re.compile(r"dim Hom\(([XY]),([XY])\) = (\d+) != dim Hom\(X,Y\) = (\d+)$")


def route_objects(e, route):
    x_of, y_of, cs = ROUTES[route]
    return x_of(e), y_of(e), cs


def t2_flip(field, n):
    return Entwining.flip(upper_triangular_algebra(field), grouplike_coalgebra(field, n))


def certified(field, n):
    """The FpGp iso route's verdict on flip(T2, GLn), which no invertible
    bicomodule morphism has, and its certificate as (X, Y, cs, Z1, Z2,
    dim Hom(Z1, Z2), dim Hom(X, Y))."""
    e = t2_flip(field, n)
    x, y, cs = route_objects(e, "FpGp")
    v = iso_exists(e, x, y, cs)
    assert v.status == "no" and v.definitive
    src, dst, dim, hom_dim = CERTIFICATE.match(v.meta["certificate"]).groups()
    objs = {"X": x, "Y": y}
    assert int(hom_dim) == v.meta["hom_dim"] and int(dim) != int(hom_dim)
    return e, x, y, cs, objs[src], objs[dst], int(dim), int(hom_dim)


# F3 with GL3 scans its 9841 points completely after the certificate; the
# other two cannot be scanned completely
CERTIFIED = [(F3, 3), (F3, 4), (QQ, 3)]
CERTIFIED_IDS = ["F3-GL3", "F3-GL4", "Q-GL3"]


@pytest.mark.parametrize("field,n", CERTIFIED, ids=CERTIFIED_IDS)
def test_certified_dimensions_recomputed_by_probing(field, n):
    e, x, y, cs, z1, z2, dim, hom_dim = certified(field, n)
    assert len(ref.hom_basis(e, z1, z2, cs)) == dim
    assert len(ref.hom_basis(e, x, y, cs)) == hom_dim


@pytest.mark.parametrize("field,n", CERTIFIED, ids=CERTIFIED_IDS)
def test_certified_dimensions_recomputed_by_sympy_rank(field, n):
    pytest.importorskip("sympy")
    from sympy.polys.domains import GF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    def dim_by_rank(a, b):
        rows = ref.hom_constraints(e, a, b, cs)
        if field.kind == "Q":
            dom = SymQQ
            cells = [[dom(v.numerator, v.denominator) for v in row] for row in rows]
        else:
            dom = GF(field.p)
            cells = [[dom(v.v) for v in row] for row in rows]
        return a.dim * b.dim - DomainMatrix(cells, (len(rows), len(rows[0])), dom).rank()

    e, x, y, cs, z1, z2, dim, hom_dim = certified(field, n)
    assert dim_by_rank(z1, z2) == dim
    assert dim_by_rank(x, y) == hom_dim


def test_refutation_agrees_with_exhaustive_scans():
    """On both iso routes of every F2/F3 corpus entwining, and of
    flip(T2, GL2) and flip(T2, GL3): a certificate is only ever given where
    an exhaustive projective scan finds no invertible morphism, and never
    where one exists; `iso_exists` reaches the scan's verdict."""
    outcomes = {"certified": 0, "yes": 0}
    for field in (F2, F3):
        extra = [("flip-T2-GL%d" % n, t2_flip(field, n)) for n in (2, 3)]
        for name, e in corpus_entwinings(field) + extra:
            for route in ROUTES:
                x, y, cs = route_objects(e, route)
                basis = hom_basis(e, x, y, cs)
                if not basis:
                    continue
                certificate = _hom_dim_refutation(e, x, y, cs, len(basis))()
                status, _, _, meta = find_invertible_in_span(
                    field, basis, SearchConfig(trials=0))
                where = (name, field.describe(), route)
                assert meta["mode"] == "projective-exhaustive", where
                if certificate is not None:
                    assert status == "no", where
                    outcomes["certified"] += 1
                if status == "yes":
                    assert certificate is None, where
                    outcomes["yes"] += 1
                assert iso_exists(e, x, y, cs).status == status, where
    assert outcomes["certified"] >= 4 and outcomes["yes"] >= 20


def test_trials_zero_still_refutes_at_the_end_of_the_scan(tmp_path, capsys):
    """With no random points, the certificate is consulted when the
    incomplete scan ends.  The bilinear search cannot decide within the
    budget either, so `analyze` falls back to the iso route."""
    path = tmp_path / "t2-gl4.json"
    path.write_text(json.dumps(cli.payload_to_structure_document(F3, t2_flip(F3, 4))))
    code = cli.main(["analyze", str(path), "--question", "FpGp-frob", "--trials", "0",
                     "--enum-budget", "20", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_NO and rep["status"] == "no" and rep["definitive"]
    meta = rep["meta"]
    assert (meta["route"], meta["mode"], meta["points"]) == ("iso", "projective-partial", 20)
    assert meta["certificate"] == "dim Hom(Y,X) = 4 != dim Hom(X,Y) = 12"
