"""Truncated Fock representation and the non-maximality witness pipeline.

The Fock space over an evaluation representation sigma is graded by path
length; level n has the composable paths of length n ending in a sigma
atom as an orthonormal basis.  Truncating at level N keeps everything a
finite exact matrix problem: the creation operators annihilate the top
level, and every relation check excludes the top level, a documented
truncation boundary rather than an approximation.

All operators are stored column-sparse over basis keys, all scalars are
Gaussian rationals, and every residual is a max squared modulus that must
come out exactly zero.  The generators the pipeline builds are Gaussian
integers, so on the witness path every entry and residual is an int.

One reach rule sizes every list the chain checks by the space.  An edge
copy e acts on it only through t(e), which visits only the keys its
source atom s(e) leads below the top level, and successors puts e (x) k
in the next level for each such k.  So t(e) != 0 exactly when e lies in
the created copies C(F) = {k.path[0] : k a basis key above level 0}.
The generator vectors are the single copies of C(F); the generator
functions are delta_C and (1 + i) delta_C for each class C with an atom
in by_lead, and the point masses at the leading atoms; the covariance
check compresses phi(f) = sum_e f(r(e)) theta_{e,e} to C(F) and probes
it over C(F).  What is left out moves no residual:
- a class C with no atom in by_lead has rho(delta_C) = rho((1 + i)
  delta_C) = 0, and phi(delta_C) x keeps only copies ranging in C, none
  of them created (r(e) would lead a key): such pairs compare 0 with 0;
- a copy e outside C(F) has t(e) = 0, and s(e) leads no key below the
  top level, so rho(<e, y>) is zero on the compared columns 0..N-1;
- t(e) t(e)* = 0 for e outside C(F), so psi_t of phi(f) equals psi_t of
  its compression to C(F): the covariance residual is the same on every
  input.
No structural shortcut is taken: every residual is still computed
generically over every generator kept.  What no longer runs are pairs
and probes whose both sides are the zero operator on the truncated space.

build_fock fills both generator lists once per space, and checks the
single copy of each created copy against the correspondence once.  t0
and rho0 read through a memo on the TruncatedFock keyed by their
argument's value, so the relation checks, the invariance and covariance
checks and the non-reducing search share one operator per argument.
A negative control patches _build_t / _build_rho on a fresh space.
Every residual is still computed in full from those operators.  The
relation checks compare each joined pair in place, its accumulated
columns against the rhs operator's, on the same columns and after the
same degree check as operator_residual, without building an operator
per pair.
"""

from __future__ import annotations

from collections import Counter
from numbers import Rational
from typing import Callable, Iterable, Mapping, NamedTuple

from .algebra import CoefFn, EvaluationRep, IdealSpec
from .correspondence import (
    Correspondence, EdgeCopy, ModuleVector, TensorKey, gram_matrix, inner,
    leading_atom, left_action_as_compacts, left_mul, successors,
)
from .errors import (
    BudgetExceededError, DomainError, InternalInconsistencyError,
    WitnessRefusedError,
)
from .scalars import QI, QI_ONE

DEFAULT_FOCK_LEVEL = 3
DEFAULT_BASIS_BUDGET = 10_000


class TruncatedFock:
    """The path bases of levels 0..N and the two generator lists of the
    relation checks (the reach rule of the module docstring).

    singles maps each created copy e of C(F), in sorted order, to its
    single-copy vector; functions is delta_C for each class C with an atom
    in by_lead, the point masses at the leading atoms, then the probes
    (1 + i) delta_C.  Indicators and point masses are real and take only
    the values 0 and 1, so a corruption of t or rho in how it treats a
    scalar (a conjugation, a dropped imaginary part, a scalar ignored or
    squared, a sign on one generator) passes them.  The probe is neither
    real nor of modulus 1, so it sees those; and it is a Gaussian integer,
    so every entry of every rho(f), t(x), psi_t(phi(f)), join product and
    residual stays in int arithmetic.

    A space is read-only by convention, nothing enforces it: only t0 and
    rho0 write, each into its own memo.  Spaces compare by identity.
    """

    def __init__(self, parent: Correspondence, sigma: EvaluationRep, n_levels: int,
                 bases: tuple, index: dict, by_lead: dict, singles: dict,
                 functions: tuple):
        self.parent = parent
        self.sigma = sigma
        self.n_levels = n_levels    # N; bases cover levels 0..N inclusive
        self.bases = bases          # tuple[tuple[TensorKey, ...]]
        self.index = index          # TensorKey -> level
        self.by_lead = by_lead      # leading Atom -> tuple[TensorKey, ...], all levels, basis order
        self.singles = singles      # created EdgeCopy -> its single-copy ModuleVector, sorted
        self.functions = functions  # tuple[CoefFn, ...], in the order above
        # built over this space once each and shared read-only: t(x) keyed by
        # x.coeffs, rho(f) by f
        self._t: dict = {}
        self._rho: dict = {}


def build_fock(c: Correspondence, sigma: EvaluationRep, n_levels: int = DEFAULT_FOCK_LEVEL,
               basis_budget: int = DEFAULT_BASIS_BUDGET) -> TruncatedFock:
    """Enumerate the path bases of levels 0..n_levels, indexed by leading
    atom, and fill the generator lists read off them (see TruncatedFock).

    Each level is sized at class level before it is enumerated: level n+1
    has, for every leading atom of level n, (keys at that atom) x (fiber
    size of its class) keys.  So a SymbolicOnlyError (the first infinite
    fiber in key order) or a BudgetExceededError (the running total past
    the budget) is raised before that level allocates anything.  The
    enumerated level must then have exactly the computed size.  An empty
    level still costs one unit of the budget, so the truncation level is
    bounded by the budget too.
    """
    if n_levels < 1:
        raise DomainError("truncation level must be at least 1")
    if sigma.parent != c.algebra:
        raise InternalInconsistencyError("evaluation representation over a different algebra")
    bases = [tuple(TensorKey((), a) for a in sigma.atoms)]
    lead = _group_by_lead(c, bases[0])
    by_lead = {a: list(keys) for a, keys in lead.items()}
    total = len(bases[0])
    for n in range(1, n_levels + 1):
        size = sum(len(keys) * c.fiber_size(a.cls) for a, keys in lead.items())
        total += max(size, 1)
        if total > basis_budget:
            raise BudgetExceededError(
                f"Fock basis needs more than {basis_budget} vectors "
                f"({total} and counting at level {n})" if size else
                f"Fock truncation needs more than {basis_budget} units of basis "
                f"budget: level {n} is empty but still costs one unit")
        nxt = tuple(k for key in bases[-1] for k in successors(c, key))
        if len(nxt) != size:
            raise InternalInconsistencyError(
                f"Fock level {n} dimension mismatch: enumerated {len(nxt)}, "
                f"sized {size}")
        bases.append(nxt)
        lead = _group_by_lead(c, nxt)
        for a, keys in lead.items():
            by_lead.setdefault(a, []).extend(keys)
    index = {k: n for n, level in enumerate(bases) for k in level}
    created = sorted({k.path[0] for level in bases[1:] for k in level})
    led = {a.cls for a in by_lead}
    names = [nm for nm in c.algebra.names if nm in led]
    functions = (tuple(CoefFn.delta_class(nm) for nm in names)
                 + tuple(CoefFn.delta_atom(a) for a in sorted(by_lead))
                 + tuple(CoefFn.delta_class(nm, QI(1, 1)) for nm in names))
    return TruncatedFock(c, sigma, n_levels, tuple(bases), index,
                         {a: tuple(keys) for a, keys in by_lead.items()},
                         {e: ModuleVector.single(c, e) for e in created}, functions)


def _group_by_lead(c: Correspondence, keys: Iterable) -> dict:
    """Leading atom -> its keys, both in first-appearance order."""
    out: dict = {}
    for k in keys:
        out.setdefault(leading_atom(c, k), []).append(k)
    return out


# -- graded operators ----------------------------------------------------------

class GradedOperator:
    """Column-sparse operator between Fock levels: cols maps a basis key at
    level n to its image, a vector supported at level n + degree.  A key
    without a column is sent to zero.

    Operators are read-only by convention, nothing enforces it.  t0 and
    rho0 hand every caller the one operator their space's memo holds for
    an argument, so a caller that wants a changed operator builds a new
    one (adjoint does) and never writes into cols or a column.  Operators
    compare by identity."""

    def __init__(self, fock: TruncatedFock, degree: int, cols: dict):
        self.fock = fock
        self.degree = degree
        self.cols = cols  # TensorKey -> {TensorKey: QI}

    def col(self, key: TensorKey) -> dict:
        return self.cols.get(key, {})

    def adjoint(self) -> "GradedOperator":
        cols: dict = {}
        for j, c in self.cols.items():
            for i, z in c.items():
                cols.setdefault(i, {})[j] = z.conj()
        return GradedOperator(self.fock, -self.degree, cols)


def _drop_zeros(cols: dict) -> dict:
    out = {}
    for k, c in cols.items():
        kept = {kk: z for kk, z in c.items() if not z.is_zero()}
        if kept:
            out[k] = kept
    return out


def operator_residual(a: GradedOperator, b: GradedOperator,
                      source_keys: Iterable) -> Rational:
    """Max squared modulus of any matrix entry of a - b, over the given
    source columns."""
    if a.degree != b.degree:
        raise InternalInconsistencyError("comparing operators of different degrees")
    return _cols_residual(a.cols, b.cols, frozenset(source_keys))


def _cols_residual(a: dict, b: dict, src: frozenset) -> Rational:
    """Max squared modulus of any entry of a - b, for two column maps
    {column: {row: value}}, over the columns in src.

    A column absent from both is zero in a - b.  A column equal in a and
    in b, as dicts of exact scalars, has every entry of a - b exactly 0
    there and is skipped.  A column that holds an explicit zero entry is
    not equal to one that lacks the key, so it is compared entrywise."""
    differ = [(ca, cb) for k, ca in a.items()
              if k in src and ca != (cb := b.get(k, _EMPTY))]
    differ += [(_EMPTY, cb) for k, cb in b.items() if cb and k in src and k not in a]
    return _column_residual(differ) if differ else 0


def _column_residual(differ: list) -> Rational:
    """Max squared modulus of any entry of ca - cb over the (ca, cb) pairs
    of columns in differ."""
    return max((ca.get(kk, QI()) - cb.get(kk, QI())).abs2()
               for ca, cb in differ for kk in ca.keys() | cb.keys())


_EMPTY: dict = {}  # read-only: the column of a key an operator lacks, an empty lhs


# -- the representation --------------------------------------------------------

def rho0(fock: TruncatedFock, f: CoefFn) -> GradedOperator:
    """Diagonal action: multiply each basis key by f at its leading atom
    (level 0: at its vacuum atom).

    Only the leading atoms in f's support are visited: those of a class in
    f.class_part, and those listed in f.point_part.  f is evaluated once
    per atom.  Built once per space and f (see TruncatedFock).
    """
    op = fock._rho.get(f)
    if op is None:
        op = fock._rho[f] = _build_rho(fock, f)
    return op


def _build_rho(fock: TruncatedFock, f: CoefFn) -> GradedOperator:
    classes = {cls for cls, _ in f.class_part}
    atoms = {a for a in fock.by_lead if a.cls in classes} if classes else set()
    atoms.update(a for a, _ in f.point_part if a in fock.by_lead)
    cols = {}
    for a in atoms:
        z = f.value_at(a)
        if not z.is_zero():
            for key in fock.by_lead[a]:
                cols[key] = {key: z}
    return GradedOperator(fock, 0, cols)


def t0(fock: TruncatedFock, x: ModuleVector) -> GradedOperator:
    """Creation: tensor x on the left; the top level is annihilated.

    Each copy e in x only visits the keys led by its source atom, below
    the top level: by_lead lists them in basis order, so the top-level
    keys are a suffix.  Built once per space and x (see TruncatedFock).
    """
    if x.parent is not fock.parent and x.parent != fock.parent:
        raise InternalInconsistencyError("vector over a different correspondence")
    op = fock._t.get(x.coeffs)
    if op is None:
        op = fock._t[x.coeffs] = _build_t(fock, x)
    return op


def _build_t(fock: TruncatedFock, x: ModuleVector) -> GradedOperator:
    c = fock.parent
    cols: dict = {}
    for e, z in x.coeffs:
        for key in fock.by_lead.get(c.source_atom(e), ()):
            if len(key.path) == fock.n_levels:
                break
            nk = TensorKey((e,) + key.path, key.atom)
            if nk not in fock.index:
                raise InternalInconsistencyError(
                    f"creation left the enumerated basis at {nk}")
            cols.setdefault(key, {})[nk] = z
    return GradedOperator(fock, 1, cols)


def psi_t(fock: TruncatedFock, phi: Mapping[EdgeCopy, QI]) -> GradedOperator:
    """Image of phi(f) = sum_e f(r(e)) theta_{e,e}, given as the map
    phi: e -> f(r(e)) over single edge copies that left_action_as_compacts
    returns: the sum of phi[e] t(e) t(e)*, with one t(e) per copy.

    A created copy's vector is read from fock.singles; any other copy is
    checked against the correspondence, and its t(e) is empty.

    Operators are indexed op[column][row].  The entry of t(e) t(e)* at
    column k, row i is the sum over basis keys j of t(e)[j][i] times
    conj(t(e)[j][k]), so each column j of t(e) pairs its own entries.
    Every copy accumulates into one column map, and zero entries are
    dropped once at the end.
    """
    cols: dict = {}
    for e, z in phi.items():
        x = fock.singles.get(e) or ModuleVector.single(fock.parent, e)
        for col in t0(fock, x).cols.values():
            for k, y in col.items():
                zy = z * y.conj()
                tgt = cols.setdefault(k, {})
                for i, x in col.items():
                    v = tgt.get(i)
                    tgt[i] = x * zy if v is None else v + x * zy
    return GradedOperator(fock, 0, _drop_zeros(cols))


# -- relation checks -----------------------------------------------------------

class IsometryReport(NamedTuple):
    """Max squared-modulus deviations of the two defining relations,
    checked on levels 0..N-1 (the top level sits past the truncation
    boundary for the adjoint relation)."""

    multiplication: Rational  # rho(f) t(x) vs t(phi(f) x)
    toeplitz: Rational        # t(x)* t(x') vs rho(<x, x'>)

    @property
    def max_residual(self) -> Rational:
        return max(self.multiplication, self.toeplitz)


def verify_isometric_rep(fock: TruncatedFock) -> IsometryReport:
    """Check both defining relations exactly on every generator pair.

    Every operator is read through t0 and rho0; a negative control patches
    _build_t / _build_rho and builds a fresh space, so no honest space's
    memo holds its operators.  Residuals compare levels 0..N-1 only.

    The pairs are covered by a sparse join (_join_residual), not a grid.
    A pair the join does not meet has an lhs that is exactly the empty
    sum.  Its rhs argument is then phi(f) x or <x, y>.  phi(f) x scales
    each copy of x by f at its range atom, so it is exactly the zero
    vector unless f has a class part or a point mass where some copy of x
    ranges.  inner pairs matching copies only, and the vectors are
    distinct single copies, so <x, y> is exactly the zero function unless
    x is y.  Pairs that can have a nonzero rhs are compared in full; every
    other pair compares the empty lhs with t(0) or rho(0), one residual
    for all of them, built by the same builder.
    """
    c = fock.parent
    fns = fock.functions
    copies, vecs = tuple(fock.singles), tuple(fock.singles.values())
    src = frozenset(k for n in range(fock.n_levels) for k in fock.bases[n])
    ts = [t0(fock, x) for x in vecs]

    nonzero_at: dict = {}  # class or atom -> functions with a part there
    for i, f in enumerate(fns):
        for part, _ in f.class_part + f.point_part:
            nonzero_at.setdefault(part, set()).add(i)

    def ranged_by(r: int) -> set:
        a = c.range_atom(copies[r])
        return nonzero_at.get(a.cls, set()) | nonzero_at.get(a, set())

    mult = _join_residual(
        [rho0(fock, f) for f in fns], ts, src, ranged_by,
        lambda i, r: t0(fock, left_mul(fns[i], vecs[r])),
        lambda: t0(fock, ModuleVector.of(c, {})))
    toep = _join_residual(
        [tx.adjoint() for tx in ts], ts, src,
        lambda r: {r},
        lambda i, r: rho0(fock, inner(vecs[i], vecs[r])),
        lambda: rho0(fock, CoefFn.zero()))
    return IsometryReport(mult, toep)


def _join_residual(lefts: list, rights: list, src: frozenset,
                   nonzero_rhs: Callable, rhs_at: Callable,
                   zero_rhs: Callable) -> Rational:
    """Max residual of lefts[i] after rights[r] against rhs_at(i, r) over
    every pair (i, r), on the columns in src, which hold every column of
    every right operand (each is a t(x), and t(x) annihilates the top level).

    With operators indexed op[column][row], the entry of L R at column j,
    row i is the sum over keys k of L[k][i] times R[j][k], and a term
    whose k is not both an output of R and a column of L has a factor
    exactly 0.  So the entries of every left operand are indexed by
    column key, and each right operand in turn streams its outputs
    through the index: the pairs it meets get every nonzero term, and no
    map over all pairs is held.  The pairs met, and those nonzero_rhs(r)
    lists, are compared with their own rhs in place: the accumulated
    {column: {row: value}} against the rhs's cols, on the columns of src
    that either has, as operator_residual compares two operators, after
    the same degree check.  Every other pair has the empty sum as lhs, of
    the degree every pair has, and zero_rhs() is its rhs; that one
    residual covers them all.
    """
    index: dict = {}  # key k -> [(left operand, row, entry at column k)]
    for i, op in enumerate(lefts):
        for k, col in op.cols.items():
            index.setdefault(k, []).extend((i, row, w) for row, w in col.items())
    worst, joined = 0, 0
    for r, right in enumerate(rights):
        lhs: dict = {}  # left operand -> {column: {row: value}}
        for j, col in right.cols.items():
            for k, z in col.items():
                for i, row, w in index.get(k, ()):
                    cols = lhs.get(i)
                    if cols is None:
                        cols = lhs[i] = {}
                    out = cols.get(j)
                    if out is None:
                        out = cols[j] = {}
                    v = out.get(row)
                    out[row] = w * z if v is None else v + w * z
        meets = nonzero_rhs(r).union(lhs)
        for i in meets:
            worst = max(worst, _pair_residual(
                lhs.get(i, _EMPTY), lefts[i].degree + right.degree, rhs_at(i, r), src))
        joined += len(meets)
    if joined < len(lefts) * len(rights):
        worst = max(worst, _pair_residual(
            _EMPTY, lefts[0].degree + rights[0].degree, zero_rhs(), src))
    return worst


def _pair_residual(got: dict, degree: int, rhs: GradedOperator, src: frozenset) -> Rational:
    """operator_residual of an lhs of this degree with these columns, all
    in src, against rhs on src, without building the lhs operator."""
    if rhs.degree != degree:
        raise InternalInconsistencyError("comparing operators of different degrees")
    return _cols_residual(got, rhs.cols, src)


# -- the witness subspace -------------------------------------------------------

class WitnessSubspace(NamedTuple):
    """Basis-key span per level, as build_witness_subspace builds it from
    the ideal J, and J.  Its seed M0, the level-1 keys outside phi(J)X, is
    its level 1, read as m0."""

    levels: tuple  # tuple[tuple[TensorKey, ...]] per level 0..N
    ideal: IdealSpec

    @property
    def m0(self) -> tuple:
        return self.levels[1]

    def key_set(self) -> set:
        return {k for level in self.levels for k in level}


def build_witness_subspace(fock: TruncatedFock, j: IdealSpec) -> WitnessSubspace:
    """The counterexample subspace: M0 is the orthogonal complement of the
    ideal-reached submodule inside level 1, and M stacks M0 under repeated
    creation.  Verifies the second description of M as the orbit of
    0 + M0 + 0 + ... under the generated operator algebra, level by level
    and with level 0 empty, so the creation image of M is its levels
    2..N and M0 is all of the complement (check_cuntz_pimsner)."""
    c = fock.parent
    if j.parent != c.algebra:
        raise InternalInconsistencyError("ideal over a different algebra")
    kept = (tuple(k for k in fock.bases[n] if c.range_atom(k.path[-1]).cls not in j.support)
            for n in range(1, fock.n_levels + 1))
    m0 = next(kept)  # a level-1 key's one copy is its last: M0 is level 1 of M
    if not m0:
        raise WitnessRefusedError(
            "the ideal-reached submodule already covers level 1 over this "
            "evaluation; no degeneracy subspace exists")
    levels = ((), m0, *kept)

    # second description: the span of all creation words applied to M0
    # (diagonal multiplications never leave a key span, so words reduce to
    # pure creation prefixes)
    orbit = {1: set(m0)}
    for n in range(1, fock.n_levels):
        orbit[n + 1] = {k for key in orbit[n] for k in successors(c, key)}
    for n in range(fock.n_levels + 1):
        if set(levels[n]) != orbit.get(n, set()):
            raise InternalInconsistencyError(
                f"witness subspace disagrees with its orbit description at level {n}")
    return WitnessSubspace(levels, j)


def ideal_generator_functions(fock: TruncatedFock, j: IdealSpec) -> list:
    """delta_C for each class C of j, in sorted order, such that every atom
    of C leads a basis key: the generators the truncated space reaches.

    A class left out adds nothing to a residual read on this list.  Fibres
    are complete bipartite (edges_from_atom), so if one atom of C leads a
    key at a level n >= 1, every atom of C does; an infinite class leads
    none there, since build_fock raises SymbolicOnlyError on its fiber
    first.  So a class left out leads at most sigma's vacuum keys: no
    created copy ranges in C, so phi(delta_C) compressed to the created
    copies is empty, and rho(delta_C) is zero on M0, at level 1, where the
    covariance and eq-use-1 residuals read this list.  Each kept generator
    runs the whole generic chain (left_action_as_compacts with its theta
    check, psi_t, rho0, operator_residual).
    """
    reached = Counter(a.cls for a in fock.by_lead)
    return [CoefFn.delta_class(cls) for cls in sorted(j.support)
            if reached[cls] == fock.parent.algebra.count_of(cls)]


def verify_eq_use(fock: TruncatedFock, m: WitnessSubspace) -> tuple:
    """Two exact facts the construction rests on: the ideal m.ideal
    annihilates m.m0, read over ideal_generator_functions(fock, m.ideal),
    and the coefficient algebra acts on m.m0 with full range (each basis
    key is recovered by the point mass at its own leading atom)."""
    c = fock.parent
    ops = [rho0(fock, f) for f in ideal_generator_functions(fock, m.ideal)]
    eq1 = max((z.abs2() for op in ops for k in m.m0 for z in op.col(k).values()),
              default=0)
    eq2 = 0
    for k in m.m0:
        op = rho0(fock, CoefFn.delta_atom(leading_atom(c, k)))
        got = op.col(k).get(k, QI())
        eq2 = max(eq2, (got - QI_ONE).abs2())
    return eq1, eq2


def check_cuntz_pimsner(fock: TruncatedFock, m: WitnessSubspace) -> Rational:
    """Covariance residual of the restriction to m: on the complement of
    the creation image, the compact-operator route must reproduce the
    diagonal action exactly for each f in ideal_generator_functions(fock,
    m.ideal), with phi(f) compressed to the created copies.  That
    complement is m.m0 at level 1 alone: build_witness_subspace checked
    that m is the creation orbit of M0 with level 0 empty, and m holds
    M0 only as its level 1.
    """
    m0_keys = frozenset(m.m0)
    fns = ideal_generator_functions(fock, m.ideal)
    resid = 0
    for f, phi in zip(fns, left_action_as_compacts(fock.parent, fns, m.ideal,
                                                   tuple(fock.singles))):
        resid = max(resid, operator_residual(psi_t(fock, phi), rho0(fock, f), m0_keys))
    return resid


# the certificate's residual names, in the order records write them
RESIDUALS = ("invariance", "eq-use-1", "eq-use-2", "covariance")


class WitnessCertificate(NamedTuple):
    """Everything a verifier needs to re-check the counterexample: the
    subspace bases, its level-1 Gram, the four exact residuals, and the
    non-reducing vector data.  All residuals must be exactly zero and the
    projection norm exactly positive."""

    sigma_atoms: tuple    # tuple[Atom, ...]
    n_levels: int
    m0: tuple
    m_levels: tuple
    m0_gram: tuple        # tuple[tuple[QI]]
    residual_invariance: Rational
    residual_eq_use1: Rational
    residual_eq_use2: Rational
    residual_covariance: Rational
    non_reducing: tuple   # (vacuum TensorKey, EdgeCopy, Rational norm squared)

    def residuals(self) -> tuple:
        """The four residuals, in RESIDUALS order."""
        return (self.residual_invariance, self.residual_eq_use1,
                self.residual_eq_use2, self.residual_covariance)


def check_reducing(fock: TruncatedFock, m: WitnessSubspace) -> WitnessCertificate:
    """Certify that m is invariant but not reducing: the generated algebra
    maps m into itself exactly, while some creation operator pushes a
    vacuum vector (a member of the complement of m) into m with exactly
    positive projection norm."""
    c = fock.parent
    if m.levels[0]:
        raise InternalInconsistencyError("witness subspace meets the vacuum level")
    mset = m.key_set()

    ops = [rho0(fock, f) for f in fock.functions]
    ops += [t0(fock, x) for x in fock.singles.values()]
    inv = max((z.abs2() for op in ops for k in op.cols.keys() & mset
               for kk, z in op.cols[k].items() if kk not in mset), default=0)

    eq1, eq2 = verify_eq_use(fock, m)
    cov = check_cuntz_pimsner(fock, m)

    non_reducing = None
    for up in fock.bases[1]:
        h, e = TensorKey((), up.atom), up.path[0]
        col = t0(fock, fock.singles[e]).col(h)
        norm = sum(z.abs2() for kk, z in col.items() if kk in mset)
        if norm > 0:
            non_reducing = (h, e, norm)
            break
    if non_reducing is None:
        raise InternalInconsistencyError(
            "no vacuum vector escapes into the witness subspace; this "
            "contradicts the construction on a degenerate instance")

    return WitnessCertificate(
        fock.sigma.atoms, fock.n_levels, m.m0, m.levels,
        tuple(tuple(row) for row in gram_matrix(c, list(m.m0))),
        inv, eq1, eq2, cov, non_reducing)


def witness_pipeline(c: Correspondence, sigma: EvaluationRep, j: IdealSpec,
                     n_levels: int = DEFAULT_FOCK_LEVEL,
                     basis_budget: int = DEFAULT_BASIS_BUDGET):
    """The certificate chain that `witness` and `verify` both run: build
    the truncated Fock space of c over sigma, check the representation
    relations, build M against the ideal j, certify.

    Returns (fock, subspace, certificate).  Raises SymbolicOnlyError /
    BudgetExceededError when the bases cannot be enumerated,
    WitnessRefusedError when j reaches all of level 1, and
    InternalInconsistencyError if an exact check that the construction
    guarantees fails.
    """
    fock = build_fock(c, sigma, n_levels, basis_budget)
    report = verify_isometric_rep(fock)
    if report.max_residual != 0:
        raise InternalInconsistencyError(
            f"truncated representation violates its defining relations: {report}")
    m = build_witness_subspace(fock, j)
    cert = check_reducing(fock, m)
    for name, value in zip(RESIDUALS, cert.residuals()):
        if value != 0:
            raise InternalInconsistencyError(
                f"witness certificate has a nonzero {name} residual: {value}")
    return fock, m, cert
