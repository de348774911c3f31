"""The tabulated Frobenius systems against the probing reference.

A Frobenius search decides, at each candidate point, whether a linear
system in the unknown's coordinates has a solution.
`homspaces.BilinearSystem` combines it from a table of the bilinear
normalization maps on basis pairs; `_probe_reference` builds it the way
the search once did, by evaluating the laws on the combined candidate at
the zero unknown and at each unit vector.  Both must give the same rows and
right-hand side (==, entry by entry), and the rank test must call the
system solvable exactly when `solve_linear` solves it, over every corpus
entwining, factorization and extension over Q, F2 and F3, for each of the
four deciders.  A table that disagrees with direct evaluation must
stop a complete scan with an internal error (exit 70), never a "no".

The search decides each point with an integer rank test and solves only
the hit.  On the same structures it must end where a scan that solves
every point (`_probe_reference.solve_every_point`) ends, with the same
witness.  A rank test that disagrees with `solve_linear`, on the hit or on
the check point of a complete scan, is an internal error too.
"""

import json
import random
from fractions import Fraction

import pytest

import _probe_reference as ref
from _rescaled import scaled_algebra, scales
from entwine import actforget, coforget, homspaces, ringext, smash
from entwine.cli import main, payload_to_structure_document
from entwine.corpus import (
    arrow_coalgebra,
    builtin,
    corpus_entwinings,
    corpus_extensions,
    corpus_factorizations,
    cyclic_group_algebra,
)
from entwine.entwining import Entwining
from entwine.exactlin import QQ, Field, InternalCheckError, solve_linear
from entwine.homspaces import BilinearSystem, SearchConfig
from entwine.smash import Factorization, check_factorization

FIELDS = (("Q", QQ), ("F2", Field("Fp", 2)), ("F3", Field("Fp", 3)))
POINTS = 20


def _rescaled(fact):
    """The same factorization in the bases e_0, 2 e_1, 2 e_2, ... of A and of
    B.  Every corpus twist map R has entries 0 and 1 only; in these bases the
    structure constants and, unless R is a flip, the entries of R take the
    values 2, 4 and 1/2 as well."""
    s, t = scales(fact.field, fact.a.dim), scales(fact.field, fact.b.dim)
    # R(e'_a (x) e'_b) = sum r s_a t_b / (t_b2 s_a2) e'_b2 (x) e'_a2
    r = [[[[fact.r_entry(b2, a2, a, b) * s[a] * t[b] / (t[b2] * s[a2])
            for a2 in range(fact.a.dim)] for b2 in range(fact.b.dim)]
          for b in range(fact.b.dim)] for a in range(fact.a.dim)]
    out = Factorization.make(scaled_algebra(fact.b, t), scaled_algebra(fact.a, s), r)
    assert check_factorization(out).ok
    return out


def _cases(rescaled=True):
    out = []
    for tag, field in FIELDS:
        for name, e in corpus_entwinings(field):
            out.append(pytest.param(coforget.frobenius_system, ref.fg_frobenius_system, e,
                                    id="FG-%s-%s" % (tag, name)))
            out.append(pytest.param(actforget.frobenius_prime_system,
                                    ref.fpgp_frobenius_system, e,
                                    id="FpGp-%s-%s" % (tag, name)))
            out.append(pytest.param(smash.frobenius_smash_system, ref.smash_frobenius_system,
                                    smash.entwining_to_factorization(e),
                                    id="smash-%s-from-%s" % (tag, name)))
        for name, fact in corpus_factorizations(field):
            out.append(pytest.param(smash.frobenius_smash_system, ref.smash_frobenius_system,
                                    fact, id="smash-%s-%s" % (tag, name)))
        for name, ext in corpus_extensions(field):
            out.append(pytest.param(
                lambda x: ringext.frobenius_system(x, ringext.tensor_over_R(x)),
                ref.ext_frobenius_system, ext, id="ext-%s-%s" % (tag, name)))
        if not rescaled or field.char == 2:
            continue  # over F2, 2 is not invertible: no rescaled bases
        rescaled = corpus_factorizations(field) + [
            ("from-" + name, smash.entwining_to_factorization(e))
            for name, e in corpus_entwinings(field)]
        for name, fact in rescaled:
            out.append(pytest.param(smash.frobenius_smash_system, ref.smash_frobenius_system,
                                    _rescaled(fact), id="smash-%s-%s-rescaled" % (tag, name)))
    return out


def _points(field, dim, rng):
    """Seeded coefficient vectors; over Q with small denominators too."""
    def scalar():
        if field.kind == "Q" and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return field.random(rng)
    return [[scalar() for _ in range(dim)] for _ in range(POINTS)]


@pytest.mark.parametrize("build,reference,payload", _cases())
def test_tabulated_system_is_the_probed_system(build, reference, payload):
    system, probe = build(payload), reference(payload)
    for coeffs in _points(payload.field, len(system.cands), random.Random(0)):
        want = probe(coeffs)
        assert system.tabulated(coeffs) == want
        assert system.probed(coeffs) == want
        assert system.consistent(coeffs) == (solve_linear(payload.field, *want)[0] is not None)


def _long_scans():
    """Two FG-frob scans past the corpus: over Q a bounded grid+random scan
    of 792 points that ends "unknown", over F2 a complete one of 511
    points that ends "no"."""
    f2 = Field("Fp", 2)
    return [pytest.param(coforget.frobenius_system, None,
                         Entwining.flip(cyclic_group_algebra(field, n), arrow_coalgebra(field)),
                         id="FG-%s-flip-kC%d-arrow" % (tag, n))
            for tag, field, n in (("Q", QQ, 2), ("F2", f2, 3))]


@pytest.mark.parametrize("build,reference,payload", _cases(rescaled=False) + _long_scans())
def test_search_matches_solving_every_point(build, reference, payload):
    """The rank-tested scan ends where a scan that solves every point does:
    same status, point count, mode and witness."""
    cfg = SearchConfig()
    hit, complete, meta = build(payload).search(cfg)
    want, want_complete, want_meta = ref.solve_every_point(build(payload), cfg)
    assert (hit is None, complete) == (want is None, want_complete)
    assert (meta["points"], meta["mode"]) == (want_meta["points"], want_meta["mode"])
    assert hit == want


def _corrupt_first_row(monkeypatch):
    """Make coforget's Frobenius system report a wrong value in one table
    entry: pair(W_0, v) is off by one in its first coordinate, while pair on
    any other candidate, a combined one included, stays exact."""
    real = coforget.frobenius_system

    def corrupted(e):
        system = real(e)
        pair, first = system.pair, system.cands[0]

        def pair_off_by_one(w, v):
            out = list(pair(w, v))
            if w is first:
                out[0] = out[0] + 1
            return out

        system.pair = pair_off_by_one
        return system

    monkeypatch.setattr(coforget, "frobenius_system", corrupted)


def _analyze_exit(tmp_path, capsys, name, field):
    """Exit code and standard error of `analyze --question FG-frob` on a
    corpus entwining."""
    p = tmp_path / ("%s.json" % name)
    p.write_text(json.dumps(payload_to_structure_document(field, builtin(name, field).payload)))
    code = main(["analyze", str(p), "--question", "FG-frob"])
    return code, capsys.readouterr().err


def test_a_corrupted_table_stops_a_complete_scan(tmp_path, capsys, monkeypatch):
    f2 = Field("Fp", 2)
    e = builtin("flip-k-arrow", f2).payload
    # uncorrupted, the search route scans the whole space and finds nothing
    v = coforget.FG_frobenius(e, SearchConfig(), route="search")
    assert (v.status, v.meta["mode"], v.meta["W1_dim"]) == ("no", "projective-exhaustive", 3)

    _corrupt_first_row(monkeypatch)
    with pytest.raises(InternalCheckError, match="tabulated Frobenius system differs"):
        coforget.FG_frobenius(e, SearchConfig(), route="search")
    code, err = _analyze_exit(tmp_path, capsys, "flip-k-arrow", f2)
    assert code == 70
    assert "tabulated Frobenius system differs" in err


def test_a_rank_test_that_rejects_the_check_point_stops_a_complete_scan(
        tmp_path, capsys, monkeypatch):
    """flip-k-GL2/F2 has a Frobenius pair at the check point of its
    complete scan.  A rank test that rejects every point would end the scan
    with "no"; solving the check point exposes it, with exit 70."""
    f2 = Field("Fp", 2)
    e = builtin("flip-k-GL2", f2).payload
    v = coforget.FG_frobenius(e, SearchConfig(), route="search")
    assert (v.status, v.meta["mode"]) == ("yes", "projective-exhaustive")

    monkeypatch.setattr(homspaces, "is_consistent", lambda field, rows, rhs: False)
    with pytest.raises(InternalCheckError, match="rank test rejects"):
        coforget.FG_frobenius(e, SearchConfig(), route="search")
    code, err = _analyze_exit(tmp_path, capsys, "flip-k-GL2", f2)
    assert code == 70 and "rank test rejects" in err


def test_a_rank_test_that_accepts_an_unsolvable_point_stops_the_scan(
        tmp_path, capsys, monkeypatch):
    """flip-k-arrow/F2 has no Frobenius pair.  A rank test that accepts
    every point hands `solve_linear` an unsolvable system on the first."""
    f2 = Field("Fp", 2)
    e = builtin("flip-k-arrow", f2).payload
    monkeypatch.setattr(homspaces, "is_consistent", lambda field, rows, rhs: True)
    with pytest.raises(InternalCheckError, match="rank test accepts"):
        coforget.FG_frobenius(e, SearchConfig(), route="search")
    code, err = _analyze_exit(tmp_path, capsys, "flip-k-arrow", f2)
    assert code == 70 and "rank test accepts" in err


def test_table_rows_are_filled_on_first_use():
    calls = []
    system = BilinearSystem(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.one]], [None], None,
                            lambda w, v: calls.append(list(w)) or list(w),
                            [QQ.one, QQ.zero])
    assert system.tabulated([QQ.one, QQ.zero]) == ([[QQ.one], [QQ.zero]],
                                                   [QQ.one, QQ.zero])
    assert len(calls) == 1
    assert system.tabulated([Fraction(1, 2), QQ.of(3)]) == (
        [[Fraction(1, 2)], [QQ.of(3)]], [QQ.one, QQ.zero])
    assert len(calls) == 2

    # a scan: x * w = (1, 0) for w in the span of three vectors whose
    # denominators 5, 6 and 1 differ.  The grid reaches each coordinate
    # first at points 1, 3 and 9, and the hit is point 9, w = (1/5, 0).
    calls.clear()
    cands = [(Fraction(1, 5), QQ.zero), (Fraction(1, 2), Fraction(1, 3)), (QQ.zero, QQ.one)]
    system = BilinearSystem(QQ, cands, [(QQ.one,)], (QQ.zero,),
                            lambda w, v: calls.append(w) or [x * v[0] for x in w],
                            [QQ.one, QQ.zero])
    hit, complete, meta = system.search(SearchConfig())
    assert hit == ((Fraction(1, 5), QQ.zero), (QQ.of(5),))
    assert (complete, meta["points"]) == (False, 9)
    assert calls == cands[::-1]
    # the filled rows were rescaled to the common denominator 30 on the way
    assert system.tabulated([QQ.one, QQ.one, QQ.one]) == (
        [[Fraction(7, 10)], [Fraction(4, 3)]], [QQ.one, QQ.zero])
    assert len(calls) == 3
