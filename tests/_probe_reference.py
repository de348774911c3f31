"""Reference solution spaces and Frobenius systems built by probing, for
differential tests.

Every solution space here is computed the slow, obvious way: evaluate the
defining laws with dense LinMap algebra on each matrix unit of the unknown
(each basis vector, for a vector unknown), stack the values as the columns
of one constraint matrix with `exactlin.hom_probe_matrix`, and take its
exact nullspace.  The package builds the same spaces by contraction
(`exactlin.LinearLaws`); both take the basis read off the reduced row
echelon form with the unknowns in the same order, so the two bases must be
equal, not just span the same space.
"""

from entwine import actforget, coforget, homspaces, ringext, smash
from entwine.entwining import std_object_AC
from entwine.exactlin import LinMap, basis_vec, hom_probe_matrix, kron_vec, nullspace, prod


def probe_maps(field, dom, cod, law_values):
    """Basis of the maps X: dom -> cod whose law values are all zero.

    `law_values(X)` returns the list of LinMaps the laws evaluate to."""
    nd, ncod = prod(dom), prod(cod)

    def op(t):
        mat = tuple(tuple(field.one if (r, c) == divmod(t, nd) else field.zero
                          for c in range(nd)) for r in range(ncod))
        return [v for d in law_values(LinMap(field, dom, cod, mat))
                for row in d.mat for v in row]

    rows = hom_probe_matrix(field, nd * ncod, [op])
    return [LinMap(field, dom, cod, tuple(tuple(vec[r * nd:(r + 1) * nd])
                                          for r in range(ncod)))
            for vec in nullspace(field, rows)]


def probe_vectors(field, n, ops):
    """Basis of the vectors killed by every operator in `ops`."""
    rows = hom_probe_matrix(field, n, [lambda t: [v for op in ops for v in op.column(t)]])
    return nullspace(field, rows)


def hom_basis(e, x, y, cs):
    return probe_maps(e.field, (x.dim,), (y.dim,),
                      lambda fm: homspaces._law_values(e, x, y, fm, cs))


def compute_V1(e):
    return probe_maps(e.field, (e.c.dim, e.c.dim), (e.a.dim,),
                      lambda th: [d for _, d in coforget._theta_laws(e, th)])


def w1_ops(e):
    """For each basis element b of A, the map z |-> b z - z b on A (x) C."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    act = std_object_AC(e, validate=False).act
    idc = LinMap.identity(f, (nc,))
    ops = []
    for beta in range(na):
        left = e.a.lmult(basis_vec(f, na, beta)).tensor(idc)
        right = act.compose(LinMap.identity(f, (na * nc,)).tensor(
            LinMap.const(f, basis_vec(f, na, beta), (na,))))
        ops.append(left.with_shapes((na * nc,), (na * nc,)).sub(
            right.with_shapes((na * nc,), (na * nc,))))
    return ops


def compute_W1(e):
    return probe_vectors(e.field, e.a.dim * e.c.dim, w1_ops(e))


def compute_V1prime(e):
    return probe_maps(e.field, (e.c.dim, e.a.dim), (1,),
                      lambda vt: [actforget._vartheta_law(e, vt)])


def compute_W1prime(e):
    return probe_maps(e.field, (e.c.dim,), (e.a.dim, e.a.dim),
                      lambda em: [d for _, d in actforget._e_laws(e, em)])


def compute_V3(fact):
    return probe_maps(fact.field, (fact.b.dim,), (fact.a.dim,),
                      lambda k: [smash._kappa_laws(fact, k)])


def compute_W3(fact):
    dim = fact.b.dim * fact.b.dim * fact.a.dim
    return probe_vectors(fact.field, dim, [op for _, op in smash._w3_ops(fact)])


def compute_casimir(t):
    return probe_vectors(t.ext.field, t.dim, ringext._casimir_ops(t))


def _r_linear_values(ext, nu, left):
    f = ext.field
    nr = ext.r.dim
    out = []
    for j in range(nr):
        ij = ext.embedding.column(j)
        rj = basis_vec(f, nr, j)
        if left:
            out.append(nu.compose(ext.s.lmult(ij)).sub(ext.r.lmult(rj).compose(nu)))
        out.append(nu.compose(ext.s.rmult(ij)).sub(ext.r.rmult(rj).compose(nu)))
    return out


def compute_expectations(ext):
    return probe_maps(ext.field, (ext.s.dim,), (ext.r.dim,),
                      lambda nu: _r_linear_values(ext, nu, left=True))


def right_dual_space(ext):
    return probe_maps(ext.field, (ext.s.dim,), (ext.r.dim,),
                      lambda d: _r_linear_values(ext, d, left=False))


def dual_morphism_space(ext, dspace):
    f = ext.field
    ns = ext.s.dim
    right_s, left_r = ringext._dual_action_matrices(ext, dspace)

    def values(phi):
        out = [phi.compose(ext.s.rmult(basis_vec(f, ns, a))).sub(right_s[a].compose(phi))
               for a in range(ns)]
        out += [phi.compose(ext.s.lmult(ext.embedding.column(j))).sub(left_r[j].compose(phi))
                for j in range(ext.r.dim)]
        return out

    return probe_maps(f, (ns,), (len(dspace),), values)


# -- Frobenius systems, probed at each point --------------------------------
#
# The systems a Frobenius search solves at one candidate point, built as the
# search once built them: combine the candidate, evaluate the normalization
# laws at the zero unknown and at each unit coefficient vector of the
# unknown, and read the rows and right-hand side off the differences.  Each
# function takes the structure and returns the system as a function of the
# candidate's coefficients.

def affine_system(field, dim, residual_at):
    zero, one = field.zero, field.one
    base = list(residual_at([zero] * dim))
    cols = []
    for j in range(dim):
        probe = [zero] * dim
        probe[j] = one
        cols.append([x - b for x, b in zip(residual_at(probe), base)])
    rows = [[cols[j][i] for j in range(dim)] for i in range(len(base))]
    return rows, [-b for b in base]


def _vec_in_span(field, basis, coeffs):
    out = [field.zero] * len(basis[0])
    for s, vec in zip(coeffs, basis):
        if s:
            out = [x + s * y for x, y in zip(out, vec)]
    return out


def _map_in_span(field, basis, coeffs, dom, cod):
    if basis:
        return homspaces.combine_in_span(field, basis, coeffs)
    return LinMap.zero_map(field, dom, cod)


def _entries(lm):
    return [v for row in lm.mat for v in row]


def fg_frobenius_system(e):
    f = e.field
    na, nc = e.a.dim, e.c.dim
    v1, w1 = coforget.compute_V1(e), coforget.compute_W1(e)
    target = _entries(e.a.unit_map().compose(e.c.counit_map()).with_shapes((nc,), (na,)))

    def at(z_coeffs):
        z = _vec_in_span(f, w1.basis, z_coeffs)

        def residual(theta_coeffs):
            th = _map_in_span(f, v1.basis, theta_coeffs, (nc, nc), (na,))
            first, second = coforget._frobenius_condition_maps(e, z, th)
            return ([x - t for x, t in zip(_entries(first), target)]
                    + [x - t for x, t in zip(_entries(second), target)])

        return affine_system(f, v1.dim, residual)

    return at


def fpgp_frobenius_system(e):
    f = e.field
    na, nc = e.a.dim, e.c.dim
    v1, w1 = actforget.compute_V1prime(e), actforget.compute_W1prime(e)
    target = _entries(e.a.unit_map().compose(e.c.counit_map()).with_shapes((nc,), (na,)))

    def at(e_coeffs):
        em = homspaces.combine_in_span(f, w1.basis, e_coeffs)

        def residual(vt_coeffs):
            vt = _map_in_span(f, v1.basis, vt_coeffs, (nc, na), (1,))
            first, second = actforget._frobenius_condition_maps(e, em, vt)
            return ([x - t for x, t in zip(_entries(first), target)]
                    + [x - t for x, t in zip(_entries(second), target)])

        return affine_system(f, v1.dim, residual)

    return at


def ext_frobenius_system(ext):
    f = ext.field
    t = ringext.tensor_over_R(ext)
    v1, w1 = ringext.compute_expectations(ext), ringext.compute_casimir(t)
    one = list(ext.s.unit)

    def at(e_coeffs):
        lift = t.sigma.apply(_vec_in_span(f, w1.basis, e_coeffs))

        def residual(nu_coeffs):
            nu = _map_in_span(f, v1.basis, nu_coeffs, (ext.s.dim,), (ext.r.dim,))
            first, second = ringext._frobenius_norms(ext, nu, lift)
            return ([x - y for x, y in zip(first, one)]
                    + [x - y for x, y in zip(second, one)])

        return affine_system(f, v1.dim, residual)

    return at


def smash_frobenius_system(fact):
    f = fact.field
    v3, w3 = smash.compute_V3(fact), smash.compute_W3(fact)
    target = list(kron_vec(fact.b.unit, fact.a.unit)) * 2

    def at(e_coeffs):
        evec = _vec_in_span(f, w3.basis, e_coeffs)

        def residual(k_coeffs):
            k = _map_in_span(f, v3.basis, k_coeffs, (fact.b.dim,), (fact.a.dim,))
            return [x - y for x, y in zip(smash._frobenius_values(fact, k, evec), target)]

        return affine_system(f, v3.dim, residual)

    return at
