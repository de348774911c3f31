"""Hom spaces between entwined modules, and exact witness searches.

Morphism spaces are the exact kernels of the defining linear laws, whose
constraint rows `LinearLaws` assembles by contraction from the action and
coaction matrices; `morphism_ok` re-checks a single map by evaluating the
laws on it.  The two search primitives share one soundness story:

* over F_p, candidate sets are enumerated projectively and exhaustively
  whenever the point count fits the budget, so a miss is a proof;
* over Q, invertibility searches are settled by evaluating the determinant
  on an integer grid large enough for polynomial identity testing, while
  bilinear witness searches fall back to a seeded random scan and report
  "unknown" rather than overclaim.

Scan order.  A scan that can be complete keeps its fixed lexicographic
order, so its witnesses do not depend on the seed.  When it cannot, the
invertibility search tries the seeded random points first: the invertible
maps of a span are the complement of the determinant's zero set, so if
there is one, a random point is one with high probability (Schwartz 1980;
Zippel 1979), while the early lexicographic points are sparse and mostly
singular.  The bilinear search does the same over F_p, where an
incomplete scan needs more than `enum_budget` projective points and its
early lexicographic points, nearly all zero, rarely hit.  Over Q it keeps
the grid first: whether pair(w, v) = target is solvable is not an open
condition in w, and the sparse early grid points give sparse witnesses.
Either way only the order of an incomplete scan changes, and a "no" still
needs a complete one.  `iso_exists` adds a "no" certificate to the
invertibility scan: if X and Y are isomorphic, then Hom(Y, X), End X and
End Y all have the dimension of Hom(X, Y).  It is consulted once, when the
first `trials` points have missed or an incomplete scan ends.

Per point, both run on raw scalars, in the integer form
`exactlin.integer_vectors` gives (residues over F_p; over Q the vectors
scaled by a common denominator).  `find_invertible_in_span` combines the
candidate on integers and decides invertibility with
`exactlin.is_singular`, without inverting; only the hit is built as a map
and inverted.  A Frobenius search asks, at each candidate w, whether the
laws pair(w, v) = target have a solution v, where `pair` is bilinear:
`BilinearSystem` tabulates pair on basis pairs once, combines each point's
rows from the table on integers and decides the point with
`exactlin.is_consistent`, a rank test on those integers, with no field
element built per point.  Only the hit is solved, by `solve_linear`.
Before a complete scan says "no", one scanned point's system is rebuilt
by evaluating the laws directly and solved; a mismatch with the table, or
a solution the rank test missed, is an internal error.

Every decider asks its question through one of two pipelines.
`decide_normalized` settles a separability or splitting question with one
exact solve for a normalized element of a solution space.
`decide_frobenius` settles a Frobenius question from a `FrobeniusProblem`:
the bilinear search, the isomorphism route as its fallback.  Each pipeline
re-checks the witness it returns, once, with the question's residual
evaluator, which tests the defining equations directly rather than the
rows the solver used; a failure raises `InternalCheckError`.  A "yes"
verdict names the checks its witness passed in `residual_checks`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exactlin import (
    Field,
    InternalCheckError,
    LinearLaws,
    LinMap,
    ParseError,
    SolutionSpace,
    Term,
    basis_vec,
    integer_vectors,
    is_consistent,
    is_singular,
    linear_combination,
    solve_linear,
)
from .entwining import EntwinedObject, Entwining


@dataclass(frozen=True)
class ConstraintSet:
    """Which module/comodule laws a morphism must respect."""

    right_A_linear: bool = False
    left_A_linear: bool = False
    right_C_colinear: bool = False
    left_C_colinear: bool = False

    def describe(self) -> str:
        names = []
        if self.right_A_linear:
            names.append("right-A-linear")
        if self.left_A_linear:
            names.append("left-A-linear")
        if self.right_C_colinear:
            names.append("right-C-colinear")
        if self.left_C_colinear:
            names.append("left-C-colinear")
        return ", ".join(names) or "unconstrained"


ENTWINED_MORPHISMS = ConstraintSet(right_A_linear=True, right_C_colinear=True)


def _structure(mp: Optional[LinMap], what: str, who: str) -> LinMap:
    if mp is None:
        raise ParseError("%s has no %s structure" % (who, what))
    return mp


def hom_basis(e: Entwining, x: EntwinedObject, y: EntwinedObject,
              cs: ConstraintSet = ENTWINED_MORPHISMS) -> list[LinMap]:
    """Basis of the space of maps X -> Y satisfying the chosen laws."""
    na, nc = e.a.dim, e.c.dim
    dx, dy = x.dim, y.dim
    laws = LinearLaws(e.field, dx, dy)
    if cs.right_A_linear:
        # f . act_X = act_Y . (f (x) id_A)
        laws.add(Term(right=x.act), Term(-1, left=y.act, after=na))
    if cs.left_A_linear:
        # f . lact_X = lact_Y . (id_A (x) f)
        lx = _structure(x.lact, "left action", x.label)
        ly = _structure(y.lact, "left action", y.label)
        laws.add(Term(right=lx), Term(-1, left=ly, before=na))
    if cs.right_C_colinear:
        # coact_Y . f = (f (x) id_C) . coact_X
        laws.add(Term(left=y.coact), Term(-1, after=nc, right=x.coact))
    if cs.left_C_colinear:
        # lcoact_Y . f = (id_C (x) f) . lcoact_X
        cx = _structure(x.lcoact, "left coaction", x.label)
        cy = _structure(y.lcoact, "left coaction", y.label)
        laws.add(Term(left=cy), Term(-1, before=nc, right=cx))
    return laws.maps((dx,), (dy,))


def morphism_ok(e: Entwining, x: EntwinedObject, y: EntwinedObject,
                fm: LinMap, cs: ConstraintSet = ENTWINED_MORPHISMS) -> bool:
    """Re-verify one map against the laws by evaluating each law on it.

    The laws are evaluated with LinMap algebra, independently of the
    constraint rows `hom_basis` solves, so this cross-checks them.
    """
    return all(d.is_zero() for d in _law_values(e, x, y, fm, cs))


def _law_values(e: Entwining, x: EntwinedObject, y: EntwinedObject,
                fm: LinMap, cs: ConstraintSet) -> list[LinMap]:
    """Each law of `cs` evaluated on fm: X -> Y, as lhs - rhs."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    dx, dy = x.dim, y.dim
    ida = LinMap.identity(f, (na,))
    idc = LinMap.identity(f, (nc,))
    fm = fm.with_shapes((dx,), (dy,))
    diffs = []
    if cs.right_A_linear:
        ax = x.act.with_shapes((dx, na), (dx,))
        ay = y.act.with_shapes((dy, na), (dy,))
        diffs.append(fm.compose(ax).sub(
            ay.compose(fm.tensor(ida)).with_shapes((dx, na), (dy,))))
    if cs.left_A_linear:
        lx = _structure(x.lact, "left action", x.label).with_shapes((na, dx), (dx,))
        ly = _structure(y.lact, "left action", y.label).with_shapes((na, dy), (dy,))
        diffs.append(fm.compose(lx).sub(
            ly.compose(ida.tensor(fm)).with_shapes((na, dx), (dy,))))
    if cs.right_C_colinear:
        cx = x.coact.with_shapes((dx,), (dx, nc))
        cy = y.coact.with_shapes((dy,), (dy, nc))
        diffs.append(cy.compose(fm).sub(
            fm.tensor(idc).compose(cx).with_shapes((dx,), (dy, nc))))
    if cs.left_C_colinear:
        cx = _structure(x.lcoact, "left coaction", x.label).with_shapes((dx,), (nc, dx))
        cy = _structure(y.lcoact, "left coaction", y.label).with_shapes((dy,), (nc, dy))
        diffs.append(cy.compose(fm).sub(
            idc.tensor(fm).compose(cx).with_shapes((dx,), (nc, dy))))
    return diffs


# ---------------------------------------------------------------------------
# verdicts and search configuration

@dataclass(frozen=True)
class SearchConfig:
    enum_budget: int = 1 << 16
    trials: int = 64
    seed: int = 0


@dataclass
class Verdict:
    """Outcome of a decision question.

    status is "yes", "no", or "unknown"; "no" is only ever reported when the
    search was logically complete or a certificate (meta["certificate"])
    proves it, so it is a theorem about the input, not a statement about
    sampling.  Witness payloads are re-verifiable data.  residual_checks
    maps each check a "yes" witness passed to "0" (its residual); it is
    empty for "no" and "unknown".
    """

    question: str
    status: str
    reason: str
    witness: dict = dc_field(default_factory=dict)
    meta: dict = dc_field(default_factory=dict)
    residual_checks: dict = dc_field(default_factory=dict)

    @property
    def definitive(self) -> bool:
        return self.status in ("yes", "no")


# ---------------------------------------------------------------------------
# candidate enumeration

def _projective_points(field: Field, dim: int):
    """All nonzero coefficient vectors over F_p, one per scalar line."""
    els = list(field.elements())
    zero, one = field.zero, field.one
    for lead in range(dim):
        for tail in itertools.product(els, repeat=dim - lead - 1):
            yield [zero] * lead + [one] + list(tail)


def _projective_count(p: int, dim: int) -> int:
    return (p ** dim - 1) // (p - 1)


def _grid_points(field: Field, dim: int, values: Sequence[int]):
    """Deterministic integer-grid scan, zero vector excluded."""
    els = [field.of(v) for v in values]
    for combo in itertools.product(els, repeat=dim):
        if any(combo):
            yield list(combo)


def _random_points(field: Field, dim: int, trials: int, seed: int):
    rng = random.Random(seed)
    for _ in range(trials):
        vec = [field.random(rng) for _ in range(dim)]
        if any(vec):
            yield vec


def search_candidates(field: Field, dim: int, attempt: Callable[[list], Optional[dict]],
                      cfg: SearchConfig, grid_values: Optional[Sequence[int]] = None,
                      random_first: bool = False,
                      refute: Optional[Callable[[], Optional[str]]] = None):
    """Scan coefficient vectors for the candidate space, one scalar line at most
    once over F_p.

    `attempt` returns a witness payload or None.  The boolean in the result
    marks whether a miss is exhaustive for the whole space of nonzero
    candidates up to scaling, which the caller must ensure is enough (the
    conditions have to be scale-compatible for projective completeness).

    Scan order: a complete scan (modes projective-exhaustive, grid-complete,
    single-line) enumerates in its fixed lexicographic order.  An incomplete
    one enumerates at most `cfg.enum_budget` points; over Q the
    `cfg.trials` seeded random points follow the grid (mode grid+random).
    With `random_first` the random points come first instead, over F_p too
    (mode projective-partial).  That suits a condition that holds on a
    Zariski-open set, such as invertibility: when it holds anywhere, a
    random point almost always hits (Schwartz 1980; Zippel 1979), while the
    early lexicographic points are sparse and mostly fail it.  The
    invertibility search always passes it; the bilinear search passes it
    over F_p only.

    `refute`, if given, is called at most once: before the scan goes on
    past its first `cfg.trials` points, all missed (never, for 0 trials),
    or else at the end of an incomplete scan.  A string it returns is a
    proof that no candidate succeeds; the scan stops with (None, True, meta)
    and the string under meta["certificate"].  A hit within `cfg.trials`
    points, or a complete scan of at most `cfg.trials` points, never calls
    it.

    Returns (payload_or_None, complete, meta).
    """
    meta = {"seed": cfg.seed, "budget": cfg.enum_budget, "points": 0}
    if dim == 0:
        meta["mode"] = "empty-space"
        return None, True, meta

    if field.kind == "Fp":
        total = _projective_count(field.p, dim)
        complete = total <= cfg.enum_budget
        meta["mode"] = "projective-exhaustive" if complete else "projective-partial"
        source = itertools.islice(_projective_points(field, dim), cfg.enum_budget)
    elif dim == 1:
        # one scalar line: a single representative settles it
        complete = True
        meta["mode"] = "single-line"
        source = iter([[field.one]])
    else:
        values = list(grid_values) if grid_values is not None else [0, 1, -1]
        total = len(values) ** dim
        complete = total <= cfg.enum_budget and grid_values is not None
        meta["mode"] = "grid-complete" if complete else "grid+random"
        source = itertools.islice(_grid_points(field, dim, values), cfg.enum_budget)
        if not complete and not random_first:
            source = itertools.chain(source, _random_points(field, dim, cfg.trials, cfg.seed))
    if not complete and random_first:
        source = itertools.chain(_random_points(field, dim, cfg.trials, cfg.seed), source)

    def refuted() -> bool:
        nonlocal refute
        cert, refute = refute(), None
        if cert is not None:
            meta["certificate"] = cert
        return cert is not None

    for coeffs in source:
        if refute is not None and 0 < cfg.trials == meta["points"] and refuted():
            return None, True, meta
        meta["points"] += 1
        hit = attempt(coeffs)
        if hit is not None:
            return hit, complete, meta
    if refute is not None and not complete and refuted():
        return None, True, meta
    return None, complete, meta


def combine_in_span(field: Field, basis: Sequence[LinMap], coeffs: Sequence) -> LinMap:
    """sum coeffs_i basis_i for a nonempty basis of maps of one shape."""
    return linear_combination(basis, coeffs)


def combine(field: Field, basis: Sequence, coeffs: Sequence, zero=None):
    """sum coeffs_i basis_i: a map for a basis of maps, a tuple for a basis
    of flat vectors, and `zero` for an empty basis."""
    if not basis:
        return zero
    if isinstance(basis[0], LinMap):
        return combine_in_span(field, basis, coeffs)
    out = [field.zero] * len(basis[0])
    for s, vec in zip(coeffs, basis):
        if s:
            out = [x + s * y if y else x for x, y in zip(out, vec)]
    return tuple(out)


def flat(lm: LinMap) -> list:
    """The entries of a map, row by row."""
    return [v for row in lm.mat for v in row]


class _IntSpan:
    """Integer combinations of integer vectors.  The partial sums over the
    coefficients the previous point shares as a prefix are reused:
    enumerated points mostly differ from their predecessor in the last few
    coordinates only.

    A vector may be None until some point has a nonzero coefficient on it:
    setting it then leaves the sums valid, since every earlier point had
    coefficient 0 there.  `scale` multiplies every vector by one integer."""

    def __init__(self, vecs: Sequence[Optional[Sequence[int]]], length: int):
        self.vecs = list(vecs)
        self.prev: list = []
        self.sums = [[0] * length]  # sums[k] = sum_{i<k} prev_i vecs_i

    def scale(self, k: int):
        self.vecs = [None if v is None else [x * k for x in v] for v in self.vecs]
        self.prev = []
        del self.sums[1:]

    def at(self, coeffs: Sequence[int]) -> list[int]:
        k = 0
        for a, b in zip(self.prev, coeffs):
            if a != b:
                break
            k += 1
        del self.sums[k + 1:]
        acc = self.sums[k]
        for s, vec in zip(coeffs[k:], self.vecs[k:]):
            if s:
                acc = [a + s * x for a, x in zip(acc, vec)]
            self.sums.append(acc)
        self.prev = list(coeffs)
        return acc


def find_invertible_in_span(field: Field, basis: Sequence[LinMap],
                            cfg: SearchConfig,
                            refute: Optional[Callable[[], Optional[str]]] = None):
    """Search span(basis) for an invertible map.

    Invertibility is invariant under scaling, so projective enumeration over
    F_p is complete.  Over Q the determinant restricted to the span is a
    polynomial of degree at most n, and vanishing on the grid {0..n}^dim
    forces it to vanish identically, so a full grid miss certifies "no".

    When the scan cannot be complete, the seeded random points go first:
    the invertible maps of a span are the complement of the determinant's
    zero set, so if there is one, a random point is one with high
    probability, and the lexicographic points are scanned only after them.
    Complete scans keep their fixed order and so their witnesses.
    `refute` is a "no" certificate, consulted as `search_candidates` says.

    Each point is combined on integers (residues over F_p; over Q the basis
    and the point each scaled by a common denominator, which keeps the rank)
    and tested with `is_singular`; only a nonsingular point is built as a
    map and inverted.

    Returns (status, f, f_inverse, meta).
    """
    if not basis:
        return "no", None, None, {"mode": "empty-space", "points": 0}
    n = basis[0].dim_dom
    if basis[0].dim_cod != n:
        return "no", None, None, {"mode": "non-square", "points": 0}

    span = _IntSpan(integer_vectors(field, [flat(b) for b in basis])[0], n * n)

    def attempt(coeffs):
        (ints,), _ = integer_vectors(field, [coeffs])
        acc = span.at(ints)
        if is_singular(field, [acc[r * n:(r + 1) * n] for r in range(n)]):
            return None
        cand = combine_in_span(field, basis, coeffs)
        inv = cand.inverse()
        if inv is None:
            raise InternalCheckError("a nonsingular candidate has no inverse")
        return {"f": cand, "finv": inv}

    grid = None if field.kind == "Fp" else range(n + 1)
    hit, complete, meta = search_candidates(field, len(basis), attempt, cfg,
                                            grid_values=grid, random_first=True,
                                            refute=refute)
    if hit is not None:
        return "yes", hit["f"], hit["finv"], meta
    if complete:
        if field.kind == "Q" and len(basis) > 1:
            meta.setdefault("certificate",
                            "determinant vanishes on a degree-covering grid")
        return "no", None, None, meta
    return "unknown", None, None, meta


def _hom_dim_refutation(e: Entwining, x: EntwinedObject, y: EntwinedObject,
                        cs: ConstraintSet, hom_dim: int):
    """A "no" certificate for X ~= Y from the dimension d = dim Hom(X, Y).

    The morphisms of `cs` compose, contain the identities and contain the
    inverse of each bijective member, so an isomorphism phi: X -> Y gives
    linear bijections Hom(Y, X) -> Hom(X, Y), g -> phi g phi, and
    Hom(X, X) -> Hom(X, Y), g -> phi g, and Hom(Y, Y) -> Hom(X, Y),
    g -> g phi.  So a space among these three whose dimension is not d
    proves X and Y not isomorphic.  Returns the check as a function that
    gives the first mismatch, or None when all three dimensions are d.
    """
    def refute() -> Optional[str]:
        for name, (a, b) in (("Y,X", (y, x)), ("X,X", (x, x)), ("Y,Y", (y, y))):
            dim = len(hom_basis(e, a, b, cs))
            if dim != hom_dim:
                return "dim Hom(%s) = %d != dim Hom(X,Y) = %d" % (name, dim, hom_dim)
        return None
    return refute


def iso_exists(e: Entwining, x: EntwinedObject, y: EntwinedObject,
               cs: ConstraintSet, cfg: SearchConfig = SearchConfig()) -> Verdict:
    """Is there an isomorphism X -> Y respecting the chosen laws?

    `find_invertible_in_span` scans Hom(X, Y), random points first when the
    scan cannot be complete.  If the first `cfg.trials` points miss, or an
    incomplete scan ends, it compares dim Hom(Y, X), dim End X and
    dim End Y with dim Hom(X, Y), and a mismatch is a definitive "no"
    whose meta["certificate"] names the two dimensions.
    """
    q = "iso-exists"
    if x.dim != y.dim:
        return Verdict(q, "no", "dimension mismatch: %d != %d" % (x.dim, y.dim),
                       meta={"definitive": True})
    basis = hom_basis(e, x, y, cs)
    if not basis:
        return Verdict(q, "no", "hom space is zero", meta={"definitive": True})
    status, fm, finv, meta = find_invertible_in_span(
        e.field, basis, cfg, refute=_hom_dim_refutation(e, x, y, cs, len(basis)))
    meta["hom_dim"] = len(basis)
    meta["definitive"] = status != "unknown"
    if status == "yes":
        if not morphism_ok(e, x, y, fm, cs):
            raise InternalCheckError("found iso violates the morphism laws")
        return Verdict(q, "yes", "invertible morphism found",
                       witness={"iso": fm, "inverse": finv}, meta=meta)
    if status == "no":
        return Verdict(q, "no", "no invertible element in the morphism space", meta=meta)
    return Verdict(q, "unknown",
                   "search budget exhausted without an invertible candidate", meta=meta)


# ---------------------------------------------------------------------------
# affine solving inside a known span

def solve_affine_in_span(field: Field, images: Sequence[Sequence], target: Sequence):
    """Solve sum_j x_j images_j = target for x in a coefficient space, where
    images_j is the image (flat field values) of the j-th basis element
    under a linear map.  Returns (particular_coeffs_or_None, kernel_basis).
    """
    dim = len(images)
    if not target:
        # no conditions at all: everything solves
        return [field.zero] * dim, [basis_vec(field, dim, j) for j in range(dim)]
    return solve_linear(field, [[img[i] for img in images] for i in range(len(target))],
                        target)


def decide_normalized(field: Field, question: str, space: SolutionSpace, zero,
                      normalize: Callable[[object], Sequence], target: Sequence,
                      key: str, checks: tuple[str, str], reasons: tuple[str, str],
                      meta: dict) -> Verdict:
    """Is there x in span(space.basis) with normalize(x) = target?

    This is how every separability and splitting question is asked: the
    functor (or extension) is separable exactly when its solution space
    holds a normalized element.  `normalize` is linear and returns flat
    field values, so the system is read off the basis, one `normalize` per
    element with `target` as the right-hand side, and one exact solve
    decides it: the answer is always definitive.  `zero` is the zero
    element (a map, or a tuple for vector spaces), standing in for an empty
    basis.  A found x is the witness under `key`.  It is re-checked against
    the laws of its space and, by evaluating `normalize` on it, against
    `target`; `checks` names these two checks, and a failure of either is
    an internal error.  `reasons` are the reasons of "no" and of "yes".
    """
    target = list(target)
    part, _ = solve_affine_in_span(field, [normalize(b) for b in space.basis], target)
    meta = dict(meta, definitive=True)
    if part is None:
        return Verdict(question, "no", reasons[0], meta=meta)
    x = combine(field, space.basis, part, zero)
    laws, norm = checks
    bad = space.residual(x)
    if bad:
        raise InternalCheckError("%s witness fails %s: %r" % (question, laws, bad))
    if any(a - b for a, b in zip(normalize(x), target)):
        raise InternalCheckError("%s witness fails %s" % (question, norm))
    return Verdict(question, "yes", reasons[1], witness={key: x}, meta=meta,
                   residual_checks={laws: "0", norm: "0"})


# ---------------------------------------------------------------------------
# bilinear witness search

class BilinearSystem:
    """The laws pair(w, v) = target in a candidate w in span(cands) and an
    unknown v in span(unknowns), where `pair` is bilinear and returns a flat
    list of field values; v is `zero` when there are no unknowns.

    At a candidate point c the laws are the linear system
    sum_j x_j (sum_i c_i pair(W_i, V_j)) = target in the unknown's
    coordinates x.  The system keeps the table pair(W_i, V_j) as the
    vectors of one `_IntSpan` for its whole life: row i is filled the first
    time a point has c_i != 0, in integers over a common denominator D
    (1 over F_p) that grows, rescaling the filled rows, when a new row
    needs it.  At a point the span combines the rows on integers, reusing
    the sums of the previous point's prefix.  `consistent` decides the
    point from those integers with `exactlin.is_consistent`, and
    `tabulated` reads the same integers as the system's rows.  `probed`
    evaluates pair on the combined candidate and each V_j; it gives the
    same rows and right-hand side as `tabulated`.
    """

    def __init__(self, field: Field, cands: Sequence, unknowns: Sequence, zero,
                 pair: Callable[[object, object], Sequence], target: Sequence):
        self.field = field
        self.cands, self.unknowns, self.zero = cands, unknowns, zero
        self.pair, self.target = pair, list(target)
        # vector i of the span: pair(W_i, V_j) for all j, j-major, times
        # the common denominator self._den, as integers
        self._span = _IntSpan([None] * len(cands), len(unknowns) * len(self.target))
        self._den = 1
        (self._rhs,), _ = integer_vectors(field, [self.target])

    def candidate(self, coeffs: Sequence):
        return combine(self.field, self.cands, coeffs)

    def unknown(self, coeffs: Sequence):
        return combine(self.field, self.unknowns, coeffs, self.zero)

    def _fill(self, i: int):
        vals = [x for v in self.unknowns for x in self.pair(self.cands[i], v)]
        (ints,), d = integer_vectors(self.field, [vals])
        den = math.lcm(self._den, d)
        if den != self._den:
            self._span.scale(den // self._den)
            self._den = den
        self._span.vecs[i] = [x * (den // d) for x in ints]

    def _combined(self, coeffs: Sequence):
        """The system's rows at a point as integers, and the denominator
        they stand over."""
        (ints,), d = integer_vectors(self.field, [coeffs])
        vecs = self._span.vecs
        for i, s in enumerate(ints):
            if s and vecs[i] is None:
                self._fill(i)
        acc, m = self._span.at(ints), len(self.target)
        return [acc[r::m] for r in range(m)], self._den * d

    def consistent(self, coeffs: Sequence) -> bool:
        """Whether the system at a point has a solution.  Its integer rows
        and the target's integer form are nonzero multiples of its rows
        and right-hand side, which keeps the answer."""
        return is_consistent(self.field, self._combined(coeffs)[0], self._rhs)

    def tabulated(self, coeffs: Sequence):
        """(rows, rhs) of the system at a point, from the table; the rows are
        raw scalars (unreduced ints over F_p, Fractions over Q)."""
        rows, den = self._combined(coeffs)
        if self.field.kind == "Q":
            rows = [[Fraction(x, den) for x in row] for row in rows]
        return rows, list(self.target)

    def probed(self, coeffs: Sequence):
        """(rows, rhs) of the system at a point, by evaluating the laws on
        the combined candidate and each V_j."""
        w = self.candidate(coeffs)
        cols = [self.pair(w, v) for v in self.unknowns]
        return [[col[i] for col in cols] for i in range(len(self.target))], list(self.target)

    def search(self, cfg: SearchConfig):
        """Scan candidate points with `search_candidates`, deciding each
        point with `consistent`; returns ((w, v) or None, complete, meta).
        Over F_p the seeded random points go first when the scan cannot be
        complete; over Q the grid does.

        Only a point `consistent` accepts is solved, by `solve_linear` on its
        tabulated system, and v is that solution.  If it has none, the two
        disagree: an internal error.  Before a complete scan reports no
        solution, the system of one scanned point (the first with every
        coefficient nonzero, else the last) is rebuilt by `probed`.  It must
        equal the tabulated one, and `solve_linear` must find it has no
        solution; either failure is an internal error."""
        f = self.field
        check_at = None

        def attempt(coeffs):
            nonlocal check_at
            if check_at is None or not all(check_at):
                check_at = coeffs
            if not self.consistent(coeffs):
                return None
            part, _ = solve_linear(f, *self.tabulated(coeffs))
            if part is None:
                raise InternalCheckError(
                    "the rank test accepts a Frobenius system that has no solution")
            return self.candidate(coeffs), self.unknown(part)

        hit, complete, meta = search_candidates(f, len(self.cands), attempt, cfg,
                                                random_first=f.kind == "Fp")
        if hit is None and complete and check_at is not None:
            probed = self.probed(check_at)
            if self.tabulated(check_at) != probed:
                raise InternalCheckError(
                    "tabulated Frobenius system differs from direct evaluation")
            if solve_linear(f, *probed)[0] is not None:
                raise InternalCheckError(
                    "the rank test rejects a Frobenius system that has a solution")
        return hit, complete, meta


# ---------------------------------------------------------------------------
# the Frobenius driver

ROUTES = ("auto", "search", "iso")


@dataclass(frozen=True)
class FrobeniusProblem:
    """One Frobenius question, in the terms `decide_frobenius` asks it.

    `system` builds the normalization laws of a witness (a pair or a
    system, `noun`) as a `BilinearSystem`; `dims` names the meta keys of
    the dimensions of its unknowns' and its candidates' spaces, and `extra`
    is more meta of the search route.  `witness` names the parts of a
    solution (candidate, unknown), and `residual` lists the conditions a
    named witness violates.  `iso` decides the question through an
    isomorphism of standard objects and returns that route's verdict, its
    witness named the same way.
    """

    question: str
    noun: str
    system: Callable[[], BilinearSystem]
    dims: tuple[str, str]
    witness: Callable[[object, object], dict]
    residual: Callable[[dict], list]
    iso: Callable[[], Verdict]
    extra: dict = dc_field(default_factory=dict)


def decide_frobenius(problem: FrobeniusProblem, cfg: SearchConfig,
                     route: str) -> Verdict:
    """route="search": scan candidates with the bilinear system, solving
    linearly for the unknown; a complete scan without a solution is a "no".
    route="iso": the problem's isomorphism route.  route="auto" searches
    first and falls back to the isomorphism route, keeping the search's
    "unknown" when that route is undecided too.  Every witness is re-checked
    with the problem's residual; a failure is an internal error, and a pass
    is recorded as residual_checks {"frobenius-system": "0"}.
    """
    if route not in ROUTES:
        raise ValueError("route must be auto, search, or iso")
    q, noun = problem.question, problem.noun
    fallback = None
    if route != "iso":
        system = problem.system()
        hit, complete, meta = system.search(cfg)
        meta.update({problem.dims[0]: len(system.unknowns),
                     problem.dims[1]: len(system.cands)})
        meta.update(problem.extra)
        meta["route"] = "search"
        meta["definitive"] = hit is not None or complete
        if hit is not None:
            witness = problem.witness(*hit)
            return Verdict(q, "yes", "Frobenius %s found by candidate search" % noun,
                           witness=witness, meta=meta,
                           residual_checks=_recheck(problem, witness, "search"))
        if complete:
            return Verdict(q, "no",
                           "candidate space scanned completely; no %s exists" % noun,
                           meta=meta)
        fallback = Verdict(q, "unknown", "search budget exhausted", meta=meta)
        if route == "search":
            return fallback
    v = problem.iso()
    if v.status == "yes":
        v.residual_checks = _recheck(problem, v.witness, "iso")
    return fallback if v.status == "unknown" and fallback is not None else v


def _recheck(problem: FrobeniusProblem, witness: dict, route: str) -> dict:
    bad = problem.residual(witness)
    if bad:
        raise InternalCheckError("Frobenius %s from the %s route fails %r"
                                 % (problem.noun, route, bad))
    return {"frobenius-system": "0"}


def iso_frobenius(question: str, e: Entwining, x: EntwinedObject, y: EntwinedObject,
                  cs: ConstraintSet, cfg: SearchConfig, kind: str,
                  extract: Callable[[LinMap, LinMap], dict]) -> Verdict:
    """The isomorphism route of an entwined-module Frobenius question: an
    invertible morphism X -> Y of `kind` ("bimodule" or "bicomodule")
    morphisms, with the pair `extract(iso, inverse)` read off it."""
    iso = iso_exists(e, x, y, cs, cfg)
    meta = dict(iso.meta)
    meta["route"] = "iso"
    if iso.status == "yes":
        witness = extract(iso.witness["iso"], iso.witness["inverse"])
        witness["iso"] = iso.witness["iso"]
        return Verdict(question, "yes",
                       "Frobenius pair extracted from a %s isomorphism" % kind,
                       witness=witness, meta=meta)
    if iso.status == "no":
        return Verdict(question, "no", "no invertible %s morphism exists: %s"
                       % (kind, iso.reason), meta=meta)
    return Verdict(question, "unknown", iso.reason, meta=meta)
