"""Vector and index helpers the tests use and the package does not: sums,
scalar multiples and dot products of plain tuples of field elements, span
membership and a row-space basis by exact elimination, the flat index of a
multi-index (the inverse of `exactlin.unflatten_index`), the product of two
vectors of an algebra and the image of a vector under a ring extension's
embedding."""

from entwine.exactlin import ShapeError, kron_vec, rref, solve_linear, vec_is_zero


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(s, v):
    return tuple(s * a for a in v)


def dot(u, v):
    s = None
    for a, b in zip(u, v, strict=True):
        s = a * b if s is None else s + a * b
    return s


def in_span(field, basis, vec) -> bool:
    """Whether vec lies in the span of `basis` (by exact solve)."""
    if not basis:
        return vec_is_zero(vec)
    part, _ = solve_linear(field, list(zip(*basis)), vec)
    return part is not None


def row_space_basis(field, rows):
    red, _ = rref(field, [list(r) for r in rows])
    return [tuple(r) for r in red]


def flatten_index(shape, multi) -> int:
    if len(shape) != len(multi):
        raise ShapeError("index arity %d vs shape arity %d" % (len(multi), len(shape)))
    flat = 0
    for d, i in zip(shape, multi):
        if not 0 <= i < d:
            raise ShapeError("index %r out of range for shape %r" % (multi, shape))
        flat = flat * d + i
    return flat


def product(alg, u, v) -> tuple:
    """u v in the algebra `alg` (an `AlgebraData`), as m(u (x) v)."""
    return alg.mult_map().apply(kron_vec(u, v))


def embed(ext, rvec) -> tuple:
    """i(r) for the embedding i: R -> S of the ring extension `ext`."""
    return ext.embedding.apply(rvec)
