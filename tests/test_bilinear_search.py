"""The tabulated Frobenius systems against the probing reference.

A Frobenius search solves, at each candidate point, a linear system in the
unknown's coordinates.  `homspaces.BilinearSystem` combines it from a table
of the bilinear normalization maps on basis pairs; `_probe_reference`
builds it the way the search once did, by evaluating the laws on the
combined candidate at the zero unknown and at each unit vector.  Both must
give the same rows and right-hand side (==, entry by entry) over every
corpus entwining, factorization and extension over Q, F2 and F3, for each
of the four deciders.  A table that disagrees with direct evaluation must
stop a complete scan with an internal error (exit 70), never a "no".
"""

import json
import random
from fractions import Fraction

import pytest

import _probe_reference as ref
from _rescaled import scaled_algebra, scales
from entwine import actforget, coforget, ringext, smash
from entwine.cli import main, payload_to_structure_document
from entwine.corpus import (
    builtin,
    corpus_entwinings,
    corpus_extensions,
    corpus_factorizations,
)
from entwine.exactlin import QQ, Field, InternalCheckError
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


def _cases():
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
        if field.char == 2:
            continue  # 2 is not invertible: no rescaled bases
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


def test_a_corrupted_table_stops_a_complete_scan(tmp_path, capsys, monkeypatch):
    f2 = Field("Fp", 2)
    e = builtin("flip-k-arrow", f2).payload
    # uncorrupted, the search route scans the whole space and finds nothing
    v = coforget.FG_frobenius(e, SearchConfig(), route="search")
    assert (v.status, v.meta["mode"], v.meta["W1_dim"]) == ("no", "projective-exhaustive", 3)

    _corrupt_first_row(monkeypatch)
    with pytest.raises(InternalCheckError, match="tabulated Frobenius system differs"):
        coforget.FG_frobenius(e, SearchConfig(), route="search")

    p = tmp_path / "flip-k-arrow.json"
    p.write_text(json.dumps(payload_to_structure_document(f2, e)))
    code = main(["analyze", str(p), "--question", "FG-frob"])
    err = capsys.readouterr().err
    assert code == 70
    assert "tabulated Frobenius system differs" in err


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
