"""Structures in the rescaled bases e_0, 2 e_1, 2 e_2, ...

Every structure constant of the corpus is 0 or 1.  The same structures in
these bases take the values 2, 4 and 1/2 as well, so a test that runs on
them notices a formula that drops or misplaces a factor.  2 must be
invertible: the field is Q or F_p with p odd.
"""

from entwine.entwining import Entwining, check_entwining
from entwine.exactlin import LinMap
from entwine.ringext import RingExtension, check_extension
from entwine.smash import Factorization, check_factorization
from entwine.structures import AlgebraData, CoalgebraData


def scales(field, n):
    return [field.one] + [field.of(2)] * (n - 1)


def scaled_algebra(a, s):
    """The algebra in the basis s_i e_i: e'_i e'_j = sum_k s_i s_j m_ijk / s_k e'_k."""
    n = a.dim
    return AlgebraData.make(a.field, [[[s[i] * s[j] * a.mult[i][j][k] / s[k]
                                        for k in range(n)] for j in range(n)]
                                      for i in range(n)],
                            [a.unit[i] / s[i] for i in range(n)])


def scaled_coalgebra(c, t):
    """The coalgebra in the basis t_i e_i:
    Delta(e'_i) = sum t_i d_ijk / (t_j t_k) e'_j (x) e'_k."""
    n = c.dim
    return CoalgebraData.make(c.field, [[[t[i] * c.comult[i][j][k] / (t[j] * t[k])
                                          for k in range(n)] for j in range(n)]
                                        for i in range(n)],
                              [t[i] * c.counit[i] for i in range(n)])


def rescaled_entwining(e):
    """The same entwining in the bases e_0, 2 e_1, 2 e_2, ... of A and of C."""
    na, nc = e.a.dim, e.c.dim
    s, t = scales(e.field, na), scales(e.field, nc)
    # psi(e'_c (x) e'_a) = sum psi t_c s_a / (s_a2 t_c2) e'_a2 (x) e'_c2
    psi = [[[[e.psi.mat[a2 * nc + c2][c * na + a] * t[c] * s[a] / (s[a2] * t[c2])
              for c2 in range(nc)] for a2 in range(na)]
            for a in range(na)] for c in range(nc)]
    out = Entwining.make(scaled_algebra(e.a, s), scaled_coalgebra(e.c, t), psi)
    assert check_entwining(out).ok
    return out


def rescaled_extension(ext):
    """The same extension in the bases e_0, 2 e_1, 2 e_2, ... of R and of S."""
    nr, ns = ext.r.dim, ext.s.dim
    s, t = scales(ext.field, nr), scales(ext.field, ns)
    # i(e'_j) = sum s_j i_aj / t_a e'_a
    emb = [[ext.embedding.mat[a][j] * s[j] / t[a] for j in range(nr)] for a in range(ns)]
    out = RingExtension(scaled_algebra(ext.r, s), scaled_algebra(ext.s, t),
                        LinMap.from_rows(ext.field, (nr,), (ns,), emb))
    assert check_extension(out).ok
    return out


def rescaled_factorization(fact):
    """The same factorization in the bases e_0, 2 e_1, 2 e_2, ... of B and of A."""
    nb, na = fact.b.dim, fact.a.dim
    s, t = scales(fact.field, nb), scales(fact.field, na)
    # R(e'_a (x) e'_b) = sum R t_a s_b / (s_b2 t_a2) e'_b2 (x) e'_a2
    r = [[[[fact.r_entry(b2, a2, a, b) * t[a] * s[b] / (s[b2] * t[a2])
            for a2 in range(na)] for b2 in range(nb)]
          for b in range(nb)] for a in range(na)]
    out = Factorization.make(scaled_algebra(fact.b, s), scaled_algebra(fact.a, t), r)
    assert check_factorization(out).ok
    return out
