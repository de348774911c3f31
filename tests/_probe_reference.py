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

The per-basis operators and hand-indexed loops the package once used are
kept here as references too: the W3 operators, the matrices of the dual
actions solved for coordinate by coordinate, and the loops that built the
relations of S (x)_R S and the projectivity system.  So is the Frobenius
search that solved every scanned point instead of rank-testing it.
"""

from entwine import actforget, coforget, homspaces, ringext, smash
from entwine.entwining import std_object_AC
from entwine.exactlin import (
    LinMap,
    basis_vec,
    hom_probe_matrix,
    kron_vec,
    nullspace,
    prod,
    rref,
    solve_linear,
    vec_is_zero,
)

from _vectors import product


def probe_rows(field, dom, cod, law_values):
    """The constraint matrix of the laws on X: dom -> cod, with one column
    per matrix unit of X, in row-major order.

    `law_values(X)` returns the list of LinMaps the laws evaluate to."""
    nd, ncod = prod(dom), prod(cod)

    def op(t):
        mat = tuple(tuple(field.one if (r, c) == divmod(t, nd) else field.zero
                          for c in range(nd)) for r in range(ncod))
        return [v for d in law_values(LinMap(field, dom, cod, mat))
                for row in d.mat for v in row]

    return hom_probe_matrix(field, nd * ncod, [op])


def probe_maps(field, dom, cod, law_values):
    """Basis of the maps X: dom -> cod whose law values are all zero."""
    nd, ncod = prod(dom), prod(cod)
    return [LinMap(field, dom, cod, tuple(tuple(vec[r * nd:(r + 1) * nd])
                                          for r in range(ncod)))
            for vec in nullspace(field, probe_rows(field, dom, cod, law_values))]


def probe_vectors(field, n, ops):
    """Basis of the vectors killed by every operator in `ops`."""
    rows = hom_probe_matrix(field, n, [lambda t: [v for op in ops for v in op.column(t)]])
    return nullspace(field, rows)


def hom_constraints(e, x, y, cs):
    """The probed constraint matrix whose nullspace is Hom(X, Y)."""
    return probe_rows(e.field, (x.dim,), (y.dim,),
                      lambda fm: homspaces._law_values(e, x, y, fm, cs))


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
    act = std_object_AC(e).act
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


def w3_ops(fact):
    """Per basis element of B and of A, the centrality law b e - e b on
    B (x) B (x) A as one operator, labelled casimir-B or casimir-A."""
    f = fact.field
    nb, na = fact.b.dim, fact.a.dim
    ida = LinMap.identity(f, (na,))
    idb = LinMap.identity(f, (nb,))
    mb, ma = fact.b.mult_map(), fact.a.mult_map()
    laws = []
    for bi in range(nb):
        bv = basis_vec(f, nb, bi)
        # b e1 (x) e2 (x) e3 = e1 (x) e2 b_R (x) e3_R
        lhs = fact.b.lmult(bv).tensor(idb).tensor(ida)
        inner = fact.rmap.compose(
            ida.tensor(LinMap.const(f, bv, (nb,))).with_shapes((na,), (na, nb)))
        rhs = (idb.tensor(mb).tensor(ida)
               .compose(idb.tensor(idb).tensor(inner)))
        laws.append(("casimir-B", lhs.sub(rhs.with_shapes(lhs.dom, lhs.cod))))
    for ai in range(na):
        av = basis_vec(f, na, ai)
        # e1_R (x) e2_r (x) a_Rr e3 = e1 (x) e2 (x) e3 a
        lhs = (idb.tensor(idb).tensor(ma)
               .compose(idb.tensor(fact.rmap).tensor(ida))
               .compose(fact.rmap.tensor(idb).tensor(ida))
               .compose(LinMap.const(f, av, (na,))
                        .tensor(LinMap.identity(f, (nb, nb, na)))
                        .with_shapes((nb, nb, na), (na, nb, nb, na))))
        rhs = idb.tensor(idb).tensor(fact.a.rmult(av))
        laws.append(("casimir-A", lhs.sub(rhs.with_shapes(lhs.dom, lhs.cod))))
    return laws


def compute_W3(fact):
    dim = fact.b.dim * fact.b.dim * fact.a.dim
    return probe_vectors(fact.field, dim, [op for _, op in w3_ops(fact)])


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


def tensor_over_R(ext):
    """(pi, sigma, relations) of S (x)_R S, the relations collected one
    basis triple (r_j, s_a, s_b) at a time."""
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    n2 = ns * ns
    rel_rows = []
    for j in range(nr):
        ij = ext.embedding.column(j)
        for a in range(ns):
            left = product(ext.s, basis_vec(f, ns, a), ij)   # s_a i(r_j)
            for b in range(ns):
                right = product(ext.s, ij, basis_vec(f, ns, b))  # i(r_j) s_b
                row = list(kron_vec(left, basis_vec(f, ns, b)))
                sub = kron_vec(basis_vec(f, ns, a), right)
                row = [x - y for x, y in zip(row, sub)]
                if not vec_is_zero(row):
                    rel_rows.append(row)

    red, pivots = rref(f, rel_rows)
    free = [c for c in range(n2) if c not in pivots]
    pivot_at = {c: i for i, c in enumerate(pivots)}
    pi_cols = []
    for t in range(n2):
        if t in pivot_at:
            row = red[pivot_at[t]]
            col = [-row[c] for c in free]
        else:
            col = [f.one if c == t else f.zero for c in free]
        pi_cols.append(col)
    pi_mat = tuple(tuple(pi_cols[t][k] for t in range(n2)) for k in range(len(free)))
    pi = LinMap(f, (ns, ns), (len(free),), pi_mat)
    sigma = LinMap.from_images(f, (len(free),), (ns, ns),
                               [basis_vec(f, n2, c) for c in free])
    return pi, sigma, tuple(tuple(r) for r in red)


def fg_projective_coords(ext, dspace):
    """The projectivity system sum_i s_i i(sigma_i(s)) = s, one entry at a
    time from a table of the products s_i i(r_j)."""
    f = ext.field
    ns = ext.s.dim
    nd = len(dspace)
    if nd == 0:
        return None
    # prod_table[i][j] = s_i i(r_j) as a vector in S
    prod_table = [[product(ext.s, basis_vec(f, ns, i), ext.embedding.column(j))
                   for j in range(ext.r.dim)] for i in range(ns)]
    rows = [[f.zero] * (ns * nd) for _ in range(ns * ns)]
    rhs = []
    for b in range(ns):
        for t in range(ns):
            row = rows[b * ns + t]
            for i in range(ns):
                for k, d in enumerate(dspace):
                    acc = f.zero
                    for j in range(ext.r.dim):
                        dv = d.mat[j][b]
                        if dv:
                            acc = acc + dv * prod_table[i][j][t]
                    row[i * nd + k] = acc
            rhs.append(f.one if t == b else f.zero)
    part, _ = solve_linear(f, rows, rhs)
    if part is None:
        return None
    return [tuple(part[i * nd + k] for k in range(nd)) for i in range(ns)]


def dual_action_matrices(ext, dspace):
    """Matrices of the bimodule actions on the right dual, in dual coordinates.

    The right dual carries left R and right S actions
    (r . f . s)(t) = r f(s t).  Each image is put in dual coordinates by its
    own exact solve against the stacked dual basis.
    """
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    nd = len(dspace)
    cols = [[v for row in d.mat for v in row] for d in dspace]
    sys_rows = [[cols[k][i] for k in range(nd)] for i in range(nr * ns)]

    def coords(dm):
        part, _ = solve_linear(f, sys_rows, [v for row in dm.mat for v in row])
        assert part is not None, "map lies outside the right dual span"
        return list(part)

    right_s = [LinMap.from_images(f, (nd,), (nd,), [
        coords(d.compose(ext.s.lmult(basis_vec(f, ns, a)))) for d in dspace])
        for a in range(ns)]
    left_r = [LinMap.from_images(f, (nd,), (nd,), [
        coords(ext.r.lmult(basis_vec(f, nr, j)).compose(d)) for d in dspace])
        for j in range(nr)]
    return right_s, left_r


def dual_morphism_space(ext, dspace):
    f = ext.field
    ns = ext.s.dim
    right_s, left_r = dual_action_matrices(ext, dspace)

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


def solve_every_point(system, cfg):
    """`BilinearSystem.search` without the rank test: every scanned point's
    system is rebuilt by `probed` and solved by `solve_linear`, and the
    first solvable point is the hit.  Returns what `search` returns."""
    f = system.field

    def attempt(coeffs):
        part, _ = solve_linear(f, *system.probed(coeffs))
        if part is None:
            return None
        return system.candidate(coeffs), system.unknown(part)

    return homspaces.search_candidates(f, len(system.cands), attempt, cfg,
                                       random_first=f.kind == "Fp")
