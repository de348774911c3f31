"""Built-in worked structures and seeded random instance generation.

Every entry is constructed from first principles at call time (nothing is
cached across fields) and is expected to pass its validator on any supported
field unless the entry declares a field constraint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .exactlin import Field, InternalCheckError, LinMap, ParseError, iter_multi
from .structures import (
    ActionData,
    AlgebraData,
    BialgebraData,
    CoactionData,
    CoalgebraData,
    ValidationReport,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_comodule_algebra,
    check_module_coalgebra,
    dual_algebra,
)


# ---------------------------------------------------------------------------
# algebras

def trivial_algebra(field: Field) -> AlgebraData:
    return AlgebraData.make(field, [[[field.one]]], [field.one])


def cyclic_group_algebra(field: Field, n: int) -> AlgebraData:
    """kC_n: basis g^0..g^{n-1}, g^i g^j = g^{(i+j) mod n}."""
    zero, one = field.zero, field.one
    mult = [[[one if k == (i + j) % n else zero for k in range(n)]
             for j in range(n)] for i in range(n)]
    unit = [one] + [zero] * (n - 1)
    return AlgebraData.make(field, mult, unit)


def matrix_algebra(field: Field, n: int) -> AlgebraData:
    """M_n(k): basis E_{ij} flattened row-major, E_{ij}E_{kl} = [j=k] E_{il}."""
    dim = n * n
    zero, one = field.zero, field.one
    mult = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j in iter_multi((n, n)):
        for k, l in iter_multi((n, n)):
            if j == k:
                mult[i * n + j][k * n + l][i * n + l] = one
    unit = [one if i == j else zero for i, j in iter_multi((n, n))]
    return AlgebraData.make(field, mult, unit)


# ---------------------------------------------------------------------------
# coalgebras

def grouplike_coalgebra(field: Field, n: int) -> CoalgebraData:
    """n group-like basis vectors: Delta(g_i) = g_i (x) g_i, eps(g_i) = 1."""
    zero, one = field.zero, field.one
    comult = [[[one if i == j == k else zero for k in range(n)]
               for j in range(n)] for i in range(n)]
    return CoalgebraData.make(field, comult, [one] * n)


def trivial_coalgebra(field: Field) -> CoalgebraData:
    return grouplike_coalgebra(field, 1)


def dual_numbers_coalgebra(field: Field) -> CoalgebraData:
    """Basis {g, x}: Delta g = g(x)g, Delta x = g(x)x + x(x)g, eps = (1, 0)."""
    zero, one = field.zero, field.one
    comult = [
        [[one, zero], [zero, zero]],   # Delta(g) = g (x) g
        [[zero, one], [one, zero]],    # Delta(x) = g (x) x + x (x) g
    ]
    return CoalgebraData.make(field, comult, [one, zero])


def arrow_coalgebra(field: Field) -> CoalgebraData:
    """Path coalgebra of one arrow: {g, h, x}, Delta x = g(x)x + x(x)h.

    Its dual is the upper-triangular 2x2 algebra, which is not
    self-injective, making this the smallest stock non-Frobenius coalgebra.
    """
    zero, one = field.zero, field.one
    n = 3
    comult = [[[zero] * n for _ in range(n)] for _ in range(n)]
    comult[0][0][0] = one              # Delta(g) = g (x) g
    comult[1][1][1] = one              # Delta(h) = h (x) h
    comult[2][0][2] = one              # Delta(x) = g (x) x ...
    comult[2][2][1] = one              #          ... + x (x) h
    return CoalgebraData.make(field, comult, [one, one, zero])


# ---------------------------------------------------------------------------
# bialgebras

def cyclic_group_bialgebra(field: Field, n: int) -> BialgebraData:
    return BialgebraData.make(cyclic_group_algebra(field, n),
                              grouplike_coalgebra(field, n))


def trivial_bialgebra(field: Field) -> BialgebraData:
    return cyclic_group_bialgebra(field, 1)


def sweedler_bialgebra(field: Field) -> BialgebraData:
    """The 4-dimensional bialgebra on {1, g, x, gx}.

    g^2 = 1, x^2 = 0, xg = -gx; Delta(g) = g(x)g, Delta(x) = x(x)1 + g(x)x.
    All structure constants are 0 or +-1, so the data is valid in every
    characteristic (including 2, where the sign collapses).
    """
    zero, one = field.zero, field.one
    n = 4  # indices: 0 = 1, 1 = g, 2 = x, 3 = gx
    mult = [[[zero] * n for _ in range(n)] for _ in range(n)]

    def put(i, j, k, c):
        mult[i][j][k] = mult[i][j][k] + c

    # normal form (g^a x^b)(g^c x^d) = (-1)^{bc} g^{a+c} x^{b+d}, x^2 = 0
    pows = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    idx = {v: k for k, v in pows.items()}
    for i in range(n):
        for j in range(n):
            a, b = pows[i]
            c, d = pows[j]
            if b + d >= 2:
                continue
            sign = one if (b * c) % 2 == 0 else -one
            put(i, j, idx[((a + c) % 2, b + d)], sign)
    unit = [one, zero, zero, zero]
    alg = AlgebraData.make(field, mult, unit)

    comult = [[[zero] * n for _ in range(n)] for _ in range(n)]
    comult[0][0][0] = one                      # Delta(1) = 1 (x) 1
    comult[1][1][1] = one                      # Delta(g) = g (x) g
    comult[2][2][0] = one                      # Delta(x) = x (x) 1 ...
    comult[2][1][2] = one                      # ... + g (x) x
    comult[3][3][1] = one                      # Delta(gx) = gx (x) g ...
    comult[3][0][3] = one                      # ... + 1 (x) gx
    counit = [one, one, zero, zero]
    coalg = CoalgebraData.make(field, comult, counit)
    return BialgebraData.make(alg, coalg)


# ---------------------------------------------------------------------------
# seeded random Doi-Hopf data

_ALGEBRA_BY_DIM: dict[int, Callable[[Field], AlgebraData]] = {
    1: trivial_algebra,
    2: lambda f: cyclic_group_algebra(f, 2),
    3: lambda f: cyclic_group_algebra(f, 3),
    4: lambda f: matrix_algebra(f, 2),
}

_COALGEBRA_BY_DIM: dict[int, Callable[[Field], CoalgebraData]] = {
    1: trivial_coalgebra,
    2: lambda f: grouplike_coalgebra(f, 2),
    3: lambda f: grouplike_coalgebra(f, 3),
    4: lambda f: grouplike_coalgebra(f, 4),
}

_BIALGEBRA_BY_DIM: dict[int, Callable[[Field], BialgebraData]] = {
    1: trivial_bialgebra,
    2: lambda f: cyclic_group_bialgebra(f, 2),
    3: lambda f: cyclic_group_bialgebra(f, 3),
    4: sweedler_bialgebra,
}

_MAX_ATTEMPTS = 4000  # candidate (co)actions random_doi_hopf draws before it gives up


def upper_triangular_algebra(field: Field) -> AlgebraData:
    """T2: upper triangular 2x2 matrices, realized as the dual of the arrow
    coalgebra.  Not self-injective, hence the stock non-Frobenius algebra."""
    return dual_algebra(arrow_coalgebra(field))


def random_doi_hopf(dims: tuple[int, int, int], field: Field, seed: int):
    """Rejection-sample a valid Doi-Hopf datum with the given (H, A, C) dims.

    The bialgebra H and the underlying algebra A / coalgebra C are fixed
    shelf structures for the requested dimensions; only the H-coaction on A
    and the H-action on C are sampled, and candidates are kept exactly when
    the comodule-algebra / module-coalgebra validators pass.  Identical
    (dims, field, seed) give identical output; the sampled maps are never
    the entwining itself.
    """
    from .entwining import DoiHopfDatum  # late import; entwining depends on structures only

    dh, da, dc = dims
    try:
        h = _BIALGEBRA_BY_DIM[dh](field)
        a = _ALGEBRA_BY_DIM[da](field)
        c = _COALGEBRA_BY_DIM[dc](field)
    except KeyError as e:
        raise ParseError("unsupported dimension in %r" % (dims,)) from e
    rng = random.Random(seed)

    def rand_map(dom, cod):
        rows = [[field.random(rng) for _ in range(dom)] for _ in range(cod)]
        return rows

    # Each validator also checks one cheap law (the counit law of the
    # coaction, the unit law of the action).  Testing it first rejects most
    # candidates early; the full validator still decides acceptance, so the
    # sample drawn is the same.
    ida, idc = LinMap.identity(field, (a.dim,)), LinMap.identity(field, (c.dim,))
    counit_leg = ida.tensor(h.coalgebra.counit_map())
    unit_leg = idc.tensor(h.algebra.unit_map())

    coaction = None
    for _ in range(_MAX_ATTEMPTS):
        cand = CoactionData("right", LinMap.from_rows(
            field, (a.dim,), (a.dim, h.dim), rand_map(a.dim, a.dim * h.dim)))
        if (counit_leg.compose(cand.map).mat == ida.mat
                and check_comodule_algebra(h, a, cand).ok):
            coaction = cand
            break
    if coaction is None:
        raise ParseError("no valid coaction found in %d attempts (dims=%r seed=%r)"
                         % (_MAX_ATTEMPTS, dims, seed))
    action = None
    for _ in range(_MAX_ATTEMPTS):
        cand = ActionData("right", LinMap.from_rows(
            field, (c.dim, h.dim), (c.dim,), rand_map(c.dim * h.dim, c.dim)))
        if (cand.map.compose(unit_leg).mat == idc.mat
                and check_module_coalgebra(h, c, cand).ok):
            action = cand
            break
    if action is None:
        raise ParseError("no valid action found in %d attempts (dims=%r seed=%r)"
                         % (_MAX_ATTEMPTS, dims, seed))
    return DoiHopfDatum(h, a, c, coaction, action)


# ---------------------------------------------------------------------------
# named registry

@dataclass(frozen=True)
class CorpusEntry:
    """A named, validated example structure.

    field_spec is "any" or a constraint string like "p!=2"; builtin refuses
    to construct an entry over a field its payload is not defined for.
    note records where the structure comes from mathematically.
    """

    name: str
    field_spec: str
    payload: object
    note: str


def field_allowed(spec: str, field: Field) -> bool:
    if spec == "any":
        return True
    if spec == "p!=2":
        return field.char != 2
    raise InternalCheckError("unknown field spec %r" % (spec,))


def doi_hopf_kc2_datum(field: Field):
    """kC2 coacting on itself by comultiplication and acting by multiplication."""
    from .entwining import DoiHopfDatum

    h = cyclic_group_bialgebra(field, 2)
    return DoiHopfDatum(h, h.algebra, h.coalgebra,
                        CoactionData("right", h.coalgebra.comult_map()),
                        ActionData("right", h.algebra.mult_map()))


def _doi_hopf_kc2_entwining(field: Field):
    from .entwining import from_doi_hopf

    return from_doi_hopf(doi_hopf_kc2_datum(field))


def unit_extension(field: Field, s: AlgebraData):
    """k -> S along the unit."""
    from .ringext import RingExtension

    r = trivial_algebra(field)
    emb = LinMap.from_images(field, (1,), (s.dim,), [list(s.unit)])
    return RingExtension(r, s, emb)


def identity_extension(s: AlgebraData):
    from .ringext import RingExtension

    return RingExtension(s, s, LinMap.identity(s.field, (s.dim,)))


def _flip_entwining(a_of, c_of):
    from .entwining import Entwining

    return lambda f: Entwining.flip(a_of(f), c_of(f))


def _flip_factorization(b_of, a_of):
    from .smash import Factorization

    return lambda f: Factorization.flip(b_of(f), a_of(f))


def _doihopf_factorization(field: Field):
    from .smash import entwining_to_factorization

    return entwining_to_factorization(_doi_hopf_kc2_entwining(field))


def _kc2(f):
    return cyclic_group_algebra(f, 2)


# name -> (field spec, builder, provenance note); insertion order is the
# published listing order
_REGISTRY = {
    "k": ("any", trivial_algebra,
          "the base field as an algebra over itself"),
    "kC2": ("any", _kc2,
            "group algebra of the cyclic group of order 2"),
    "kC3": ("any", lambda f: cyclic_group_algebra(f, 3),
            "group algebra of the cyclic group of order 3"),
    "M2": ("any", lambda f: matrix_algebra(f, 2),
           "2x2 matrix algebra"),
    "T2": ("any", upper_triangular_algebra,
           "upper triangular 2x2 matrices (dual of the arrow coalgebra)"),
    "GL2": ("any", lambda f: grouplike_coalgebra(f, 2),
            "coalgebra spanned by two group-likes"),
    "GL3": ("any", lambda f: grouplike_coalgebra(f, 3),
            "coalgebra spanned by three group-likes"),
    "DN": ("any", dual_numbers_coalgebra,
           "group-like plus a primitive over it; dual to the dual numbers"),
    "arrow": ("any", arrow_coalgebra,
              "path coalgebra of a single arrow; dual is not self-injective"),
    "bialg-kC2": ("any", lambda f: cyclic_group_bialgebra(f, 2),
                  "group bialgebra of the cyclic group of order 2"),
    "sweedler": ("p!=2", sweedler_bialgebra,
                 "bialgebra of the 4-dimensional Hopf algebra with g^2=1, "
                 "x^2=0, xg=-gx; kept away from characteristic 2 where the "
                 "relations degenerate to a commutative algebra"),
    "flip-k-GL2": ("any", _flip_entwining(trivial_algebra,
                                          lambda f: grouplike_coalgebra(f, 2)),
                   "trivial entwining of the base field with two group-likes"),
    "flip-k-DN": ("any", _flip_entwining(trivial_algebra, dual_numbers_coalgebra),
                  "trivial entwining with the dual-numbers coalgebra; the "
                  "standard Frobenius-but-not-separable coextension"),
    "flip-kC2-GL2": ("any", _flip_entwining(_kc2,
                                            lambda f: grouplike_coalgebra(f, 2)),
                     "trivial entwining of kC2 with two group-likes"),
    "flip-kC2-DN": ("any", _flip_entwining(_kc2, dual_numbers_coalgebra),
                    "trivial entwining of kC2 with the dual-numbers coalgebra"),
    "flip-M2-GL1": ("any", _flip_entwining(lambda f: matrix_algebra(f, 2),
                                           trivial_coalgebra),
                    "trivial entwining of the matrix algebra with one group-like"),
    "flip-k-arrow": ("any", _flip_entwining(trivial_algebra, arrow_coalgebra),
                     "trivial entwining with the arrow coalgebra, whose "
                     "coforgetful functor is not Frobenius"),
    "doihopf-kC2": ("any", _doi_hopf_kc2_entwining,
                    "entwining induced by kC2 coacting on itself by "
                    "comultiplication and acting on itself by multiplication"),
    "doihopf-kC2-datum": ("any", doi_hopf_kc2_datum,
                          "the datum behind doihopf-kC2, kept as raw "
                          "action/coaction data"),
    "fact-doihopf-kC2": ("any", _doihopf_factorization,
                         "factorization of the doihopf-kC2 entwining; its "
                         "smash product is the Heisenberg double of kC2"),
    "fact-flip-kC2-kC2": ("any", _flip_factorization(_kc2, _kc2),
                          "flip factorization; smash product is the group "
                          "algebra of C2 x C2"),
    "fact-flip-T2-k": ("any", _flip_factorization(upper_triangular_algebra,
                                                  trivial_algebra),
                       "flip factorization whose smash product is the "
                       "non-Frobenius algebra T2"),
    "ext-k-kC2": ("any", lambda f: unit_extension(f, cyclic_group_algebra(f, 2)),
                  "kC2 over the base field"),
    "ext-k-kC3": ("any", lambda f: unit_extension(f, cyclic_group_algebra(f, 3)),
                  "kC3 over the base field"),
    "ext-k-M2": ("any", lambda f: unit_extension(f, matrix_algebra(f, 2)),
                 "2x2 matrices over the base field"),
    "ext-k-T2": ("any", lambda f: unit_extension(f, upper_triangular_algebra(f)),
                 "upper triangular 2x2 matrices over the base field; "
                 "split but neither separable nor Frobenius"),
    "ext-id-kC2": ("any", lambda f: identity_extension(cyclic_group_algebra(f, 2)),
                   "identity extension of kC2"),
}


def corpus_names() -> tuple:
    return tuple(_REGISTRY)


def validate_payload(payload) -> ValidationReport:
    """Run the validator matching the payload type.  This is the gate: the
    constructions and deciders take valid input and never re-check it."""
    from .entwining import DoiHopfDatum, Entwining, check_doi_hopf, check_entwining
    from .ringext import RingExtension, check_extension
    from .smash import Factorization, check_factorization

    if isinstance(payload, AlgebraData):
        return check_algebra(payload)
    if isinstance(payload, CoalgebraData):
        return check_coalgebra(payload)
    if isinstance(payload, BialgebraData):
        return check_bialgebra(payload)
    if isinstance(payload, Entwining):
        return check_entwining(payload)
    if isinstance(payload, DoiHopfDatum):
        return check_doi_hopf(payload)
    if isinstance(payload, Factorization):
        return check_factorization(payload)
    if isinstance(payload, RingExtension):
        return check_extension(payload)
    raise ParseError("no validator for payload of type %s"
                     % (type(payload).__name__,))


def builtin(name: str, field: Field) -> CorpusEntry:
    """Construct and validate the named corpus entry over the given field."""
    if name not in _REGISTRY:
        raise ParseError("unknown corpus entry %r (known: %s)"
                         % (name, ", ".join(corpus_names())))
    spec, build, note = _REGISTRY[name]
    if not field_allowed(spec, field):
        raise ParseError("corpus entry %r requires a field with %s"
                         % (name, spec))
    payload = build(field)
    rep = validate_payload(payload)
    if not rep.ok:
        raise InternalCheckError("corpus entry %r failed validation:\n%s"
                                 % (name, rep.describe()))
    return CorpusEntry(name, spec, payload, note)


def all_entries(field: Field) -> list:
    """Every entry defined over the field, in listing order."""
    return [builtin(name, field) for name in corpus_names()
            if field_allowed(_REGISTRY[name][0], field)]


def _entries_of(field: Field, kind) -> list:
    return [(e.name, e.payload) for e in all_entries(field)
            if isinstance(e.payload, kind)]


def corpus_entwinings(field: Field) -> list:
    from .entwining import Entwining

    return _entries_of(field, Entwining)


def corpus_factorizations(field: Field) -> list:
    from .smash import Factorization

    return _entries_of(field, Factorization)


def corpus_extensions(field: Field) -> list:
    from .ringext import RingExtension

    return _entries_of(field, RingExtension)
