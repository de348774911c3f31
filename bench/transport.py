"""Seeded change of basis for benchmark structures.

Each underlying space of a structure is moved along a random invertible
matrix P, drawn per space from a generator seeded by (seed, task label).
Seed 0 leaves every structure in its standard presentation.

Two kinds of P:

* permutation: relabels the basis.  The timed workloads use this kind: it
  keeps every structure exactly as sparse as its standard presentation and
  keeps the length of every Q grid scan and complete F_p scan, so the work
  of a task hardly depends on the seed (an F_p search that stops at a hit
  may visit 29 to 37 points instead of 31).
* unitriangular: P = (permutation) x (unitriangular, entries in {-1, 0, 1}).
  det P = +-1, so P is invertible over every field and P^-1 has integer
  entries: constants over Q stay integral.  It fills the structure constants
  in, which makes the M3 tasks about three times slower on some seeds and
  cuts the Q grid scan of flip(kC4,GL2) from 6562 points to 9 on others, so
  timing runs cannot use it.  The smoke test uses it to check that verdicts
  do not change under a dense change of basis.

A transported structure is isomorphic to the original, so every separability
and Frobenius verdict must come out the same.
"""

from __future__ import annotations

import random

from entwine.entwining import Entwining
from entwine.exactlin import Field, LinMap
from entwine.ringext import RingExtension
from entwine.smash import Factorization
from entwine.structures import AlgebraData, CoalgebraData


def random_basis_change(n: int, rng: random.Random, unitriangular: bool):
    """(P, P^-1) as integer matrices, P = Pi U with U unitriangular
    (U = 1 unless `unitriangular`)."""
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[1 if i == j else (rng.choice((-1, 0, 1))
                            if j > i and unitriangular else 0)
          for j in range(n)] for i in range(n)]
    uinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            uinv[i][j] = -sum(u[i][k] * uinv[k][j] for k in range(i + 1, j + 1))
    # (Pi U)[i][j] = U[perm[i]][j] and (Pi U)^-1 = U^-1 Pi^T
    p = [list(u[perm[i]]) for i in range(n)]
    pinv = [[uinv[i][perm[j]] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if sum(p[i][k] * pinv[k][j] for k in range(n)) != (i == j):
                raise AssertionError("basis change of size %d is not invertible" % n)
    return p, pinv


class Transport:
    """Draws one basis change per space from a seeded generator.

    With seed 0 every change is the identity, so the standard presentation
    goes through untouched (but still through the same code path).
    """

    def __init__(self, field: Field, seed: int, label: str,
                 unitriangular: bool = False):
        self.field = field
        self.rng = None if seed == 0 else random.Random("%d:%s" % (seed, label))
        self.unitriangular = unitriangular

    def _pair(self, n: int):
        f = self.field
        if self.rng is None:
            ident = LinMap.identity(f, (n,))
            return ident, ident
        p, pinv = random_basis_change(n, self.rng, self.unitriangular)
        return (LinMap.from_rows(f, (n,), (n,), [[f.of(x) for x in r] for r in p]),
                LinMap.from_rows(f, (n,), (n,), [[f.of(x) for x in r] for r in pinv]))

    def algebra(self, a: AlgebraData):
        """Returns (transported algebra, P, P^-1)."""
        n = a.dim
        p, pinv = self._pair(n)
        m = pinv.compose(a.mult_map()).compose(p.tensor(p))
        mult = [[[m.mat[k][i * n + j] for k in range(n)] for j in range(n)]
                for i in range(n)]
        return AlgebraData.make(a.field, mult, pinv.apply(a.unit)), p, pinv

    def coalgebra(self, c: CoalgebraData):
        n = c.dim
        p, pinv = self._pair(n)
        d = pinv.tensor(pinv).compose(c.comult_map()).compose(p)
        comult = [[[d.mat[j * n + k][i] for k in range(n)] for j in range(n)]
                  for i in range(n)]
        counit = c.counit_map().compose(p).mat[0]
        return CoalgebraData.make(c.field, comult, counit), p, pinv

    def entwining(self, e: Entwining) -> Entwining:
        a, pa, pai = self.algebra(e.a)
        c, pc, pci = self.coalgebra(e.c)
        psi = pai.tensor(pci).compose(e.psi).compose(pc.tensor(pa))
        return Entwining(a, c, psi.with_shapes(e.psi.dom, e.psi.cod))

    def factorization(self, fact: Factorization) -> Factorization:
        b, pb, pbi = self.algebra(fact.b)
        a, pa, pai = self.algebra(fact.a)
        r = pbi.tensor(pai).compose(fact.rmap).compose(pa.tensor(pb))
        return Factorization(b, a, r.with_shapes(fact.rmap.dom, fact.rmap.cod))

    def extension(self, ext: RingExtension) -> RingExtension:
        r, pr, _ = self.algebra(ext.r)
        s, _, psinv = self.algebra(ext.s)
        emb = psinv.compose(ext.embedding).compose(pr)
        return RingExtension(r, s, emb.with_shapes(ext.embedding.dom,
                                                   ext.embedding.cod))

    def structure(self, payload):
        for cls, move in ((Entwining, self.entwining),
                          (Factorization, self.factorization),
                          (RingExtension, self.extension)):
            if isinstance(payload, cls):
                return move(payload)
        raise TypeError("no transport for %s" % type(payload).__name__)
