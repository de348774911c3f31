"""Document -> payload -> document is the identity on the file format.

Each document is shaped like one payload kind, with dimensions and
scalars drawn at random (in canonical form: residues over F_p, reduced
fractions over Q).  The shapes are written out here from the format's
description, not read from the program's own format table.  The opposite
direction, payload -> document -> payload over the corpus, is
`test_cli.test_document_round_trip_every_entry`.
"""

import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from entwine.cli import parse_structure_document, payload_to_structure_document
from entwine.exactlin import Field

FIELDS = {"F2": Field("Fp", 2), "F3": Field("Fp", 3), "Q": Field("Q")}


def _scalars(field):
    if field.kind == "Q":
        return st.fractions(max_denominator=50).map(str)
    return st.integers(0, field.p - 1).map(str)


def _doc_maker(draw, field):
    """The per-kind document builders, drawing each scalar as they go."""
    scalar = _scalars(field)

    def tensor(*dims):
        if not dims:
            return draw(scalar)
        return [tensor(*dims[1:]) for _ in range(dims[0])]

    def algebra(n):
        return {"mult": tensor(n, n, n), "unit": tensor(n)}

    def coalgebra(n):
        return {"comult": tensor(n, n, n), "counit": tensor(n)}

    def bialgebra(n):
        return {"algebra": algebra(n), "coalgebra": coalgebra(n)}

    return {
        "algebra": algebra,
        "coalgebra": coalgebra,
        "bialgebra": bialgebra,
        "entwining": lambda na, nc: {
            "algebra": algebra(na), "coalgebra": coalgebra(nc),
            "psi": tensor(nc, na, na, nc)},
        "doi_hopf": lambda nh, na, nc: {
            "bialgebra": bialgebra(nh), "algebra": algebra(na),
            "coalgebra": coalgebra(nc),
            # matrices are rows by codomain, then columns by domain
            "coaction": {"side": "right", "map": tensor(na * nh, na)},
            "action": {"side": "right", "map": tensor(nc, nc * nh)}},
        "factorization": lambda nb, na: {
            "algebra_b": algebra(nb), "algebra_a": algebra(na),
            "rmap": tensor(na, nb, nb, na)},
        "ring_extension": lambda nr, ns: {
            "base": algebra(nr), "total": algebra(ns), "embedding": tensor(ns, nr)},
    }


ARITY = {"algebra": 1, "coalgebra": 1, "bialgebra": 1, "entwining": 2,
         "doi_hopf": 3, "factorization": 2, "ring_extension": 2}


@pytest.mark.parametrize("tag", sorted(FIELDS))
@pytest.mark.parametrize("kind", sorted(ARITY))
# no shrink phase: shrinking a failing document of a hundred draws takes
# minutes, and the unshrunk one already names its kind, field and dimensions
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_document_payload_document_is_identity(kind, tag, data):
    field = FIELDS[tag]
    dims = data.draw(st.tuples(*[st.integers(1, 3)] * ARITY[kind]), label="dims")
    doc = {"field": field.describe(),
           kind: _doc_maker(data.draw, field)[kind](*dims)}
    f2, kind2, payload = parse_structure_document(json.loads(json.dumps(doc)))
    assert (f2, kind2) == (field, kind)
    assert payload_to_structure_document(field, payload) == doc
