"""Acceptance gate: one test per criterion, one pass/fail line each.

Run `python3 -m pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail lines; add -s to also see the printed measurement summaries.
"""

import random
import time
from fractions import Fraction

from hyperrig.algebra import Atom, AtomSet, CoefFn, EvaluationRep, IdealSpec
from hyperrig.correspondence import (
    Correspondence, EdgeClass, EdgeCopy, ModuleVector, TensorKey,
    ideal_act_submodule, is_nondegenerate, katsura_ideal, leading_atom,
    left_mul, pair_by_gram_identity, sigma_degeneracy_witness,
)
from hyperrig.errors import SymbolicOnlyError
from hyperrig.fock import (
    build_fock, build_witness_subspace, t0, verify_eq_use,
    verify_isometric_rep, witness_pipeline,
)
from hyperrig.graphs import build_correspondence, decide_hyperrigid
from hyperrig.records import instance_digest, verify_witness_record
from hyperrig.scalars import QI, QI_ONE

from instances import (
    BUILD_T, arrow_graph, as_presentation, compact_base_shortcut, fock_bases,
    i1_graph, i2_graph, loop_graph, omega_star, oracle_fin,
    orthogonal_complement, random_discrete_graph, random_interval_graph,
    scaled, star_plus_arm, tower, with_builders,
)

DISCRETE_CORPUS = [loop_graph(), arrow_graph(), star_plus_arm(), omega_star()]
DEGENERATE_CORPUS = [star_plus_arm(), omega_star(), tower()]


def corpus_presentations():
    return [as_presentation(c) for c in DISCRETE_CORPUS] + [i1_graph(), i2_graph()]


def fuzzed_discrete(n=120):
    return [random_discrete_graph(random.Random(seed)) for seed in range(n)]


def all_atoms_rep(c: Correspondence) -> EvaluationRep:
    atoms = [Atom(nm, i) for nm, count in c.algebra.classes
             for i in range(count)]
    return EvaluationRep.of(c.algebra, atoms)


# -- criterion 1 -----------------------------------------------------------------

def test_criterion_1_route_equivalence():
    """All decision routes agree on the corpus and on fuzzed instances."""
    start = time.monotonic()
    checked = 0
    for g in corpus_presentations():
        votes = {value for _, value in decide_hyperrigid(g).routes}
        assert len(votes) == 1, g
        checked += 1
    for g in fuzzed_discrete(120):
        votes = {value for _, value in decide_hyperrigid(g).routes}
        assert len(votes) == 1, g
        checked += 1
    for seed in range(90):
        g = random_interval_graph(random.Random(seed), max_pieces=6)
        votes = {value for _, value in decide_hyperrigid(g).routes}
        assert len(votes) == 1, seed
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 206
    assert elapsed < 5.0
    print(f"criterion 1 PASS: routes agree on {checked} instances "
          f"({elapsed:.2f}s)")


# -- criterion 2 -----------------------------------------------------------------

def test_criterion_2_discrete_specialization():
    """For discrete graphs the verdict is exactly row-finiteness: every
    class an edge ranges in receives finitely many edges, counted by
    enumerating them outside every decision route."""
    graphs = [as_presentation(c) for c in DISCRETE_CORPUS] + fuzzed_discrete(120)
    positives = 0
    for g in graphs:
        verdict = decide_hyperrigid(g).hyperrigid
        assert verdict == ({e.dst for e in g.edges} <= oracle_fin(g.correspondence)), g
        positives += verdict
    print(f"criterion 2 PASS: verdict == row-finiteness on {len(graphs)} "
          f"discrete instances ({positives} hyperrigid)")


# -- criterion 3 -----------------------------------------------------------------

def _all_copies(c: Correspondence, cls: EdgeClass):
    n_src = c.algebra.count_of(cls.src)
    n_dst = c.algebra.count_of(cls.dst)
    for src_i in range(n_src):
        for dst_i in range(n_dst):
            for k in range(cls.mult):
                yield EdgeCopy(cls.name, src_i, dst_i, k)


def _sparse_rank(rows, stop_at=None):
    """Exact Gaussian elimination over the Gaussian rationals on sparse rows
    (dict coordinate -> QI)."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = row[lead]
                pivots[lead] = {j: z / scale for j, z in row.items()}
                break
            factor = row[lead]
            for j, z in pivot.items():
                val = row.get(j, QI()) - factor * z
                if val.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = val
        if stop_at is not None and len(pivots) >= stop_at:
            break
    return len(pivots)


def _ideal_span_rank(c: Correspondence) -> int:
    """Rank of phi(J) X (x)_sigma H inside the level-1 space at a faithful
    evaluation, with coordinates taken through the Gram identity rather than
    the orthonormality shortcut."""
    sigma = all_atoms_rep(c)
    basis = fock_bases(c, sigma, 1)[1]
    index = {k: i for i, k in enumerate(basis)}
    j = katsura_ideal(c)
    rng = random.Random(len(basis))

    def coordinates(vec_terms):
        row = {}
        for key, z in vec_terms:
            for other, i in index.items():
                p = pair_by_gram_identity(c, other, key)
                if not p.is_zero():
                    row[i] = row.get(i, QI()) + p.conj() * z
        return {i: z for i, z in row.items() if not z.is_zero()}

    rows = []
    span_copies = []
    for cls in c.generators:
        if cls.dst not in j.support:
            continue
        f = CoefFn.delta_class(cls.dst)
        for e in _all_copies(c, cls):
            span_copies.append(e)
            x = left_mul(f, ModuleVector.single(c, e))
            rows.append(coordinates(
                [(TensorKey((copy,), c.source_atom(copy)), z)
                 for copy, z in x.coeffs]))
    # a few dense combinations for good measure
    for _ in range(3):
        if not span_copies:
            break
        picks = rng.sample(span_copies, min(3, len(span_copies)))
        terms = []
        for e in picks:
            z = QI(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            terms.append((TensorKey((e,), c.source_atom(e)), z))
        rows.append(coordinates(terms))
    return _sparse_rank(rows, stop_at=len(basis)), len(basis)


def test_criterion_3_finite_graph_positivity():
    """Every all-finite fuzzed graph is hyperrigid, confirmed by an exact
    rank computation."""
    count = 0
    for seed in range(60):
        g = random_discrete_graph(random.Random(seed), max_classes=4,
                                  max_edges=5, all_finite=True)
        assert decide_hyperrigid(g).hyperrigid, seed
        c = build_correspondence(g)
        assert is_nondegenerate(c), seed
        rank, dim = _ideal_span_rank(c)
        assert rank == dim, (seed, rank, dim)
        count += 1
    print(f"criterion 3 PASS: {count}/60 all-finite graphs hyperrigid with "
          f"full ideal-span rank")


# -- criterion 4 -----------------------------------------------------------------

def test_criterion_4_converse_pipeline():
    """The witness pipeline produces exactly-zero residuals on every
    degenerate corpus instance, under a second a piece."""
    timings = []
    for c in DEGENERATE_CORPUS:
        start = time.monotonic()
        w = sigma_degeneracy_witness(c)
        fock, m, cert = witness_pipeline(c, w.rep, w.ideal, 3)
        elapsed = time.monotonic() - start
        report = verify_isometric_rep(fock)
        assert report.multiplication == 0
        assert report.toeplitz == 0
        assert cert.residual_invariance == 0
        assert cert.residual_eq_use1 == 0
        assert cert.residual_eq_use2 == 0
        assert cert.residual_covariance == 0
        assert cert.non_reducing[2] > 0
        assert elapsed < 1.0, elapsed
        timings.append(elapsed)
    print("criterion 4 PASS: all residuals exactly zero on "
          f"{len(DEGENERATE_CORPUS)} degenerate instances "
          f"(max {max(timings):.3f}s)")


# -- criterion 5 -----------------------------------------------------------------

def two_loops() -> Correspondence:
    return Correspondence.of(
        AtomSet.of([("v", 1)]),
        [EdgeClass("e", "v", "v", 1), EdgeClass("f", "v", "v", 1)])


FLIP_POOL = [loop_graph(), two_loops(), arrow_graph()] + DEGENERATE_CORPUS


def _flip_trial(seed: int):
    rng = random.Random(seed)
    c = FLIP_POOL[seed % len(FLIP_POOL)]
    sigma = EvaluationRep.of(c.algebra,
                             [Atom(nm, 0) for nm in c.algebra.names])
    fock = build_fock(c, sigma, 2)
    candidates = [v for v in fock.singles.values() if t0(fock, v).cols]
    target = rng.choice(candidates)

    def flipped(space, x):
        op = BUILD_T(space, x)
        return scaled(op, QI(Fraction(-1))) if x == target else op

    report = with_builders(fock, verify_isometric_rep, t=flipped)
    if report.multiplication != 0:
        return True, "multiplication"
    if report.toeplitz != 0:
        return True, "toeplitz"
    return False, None


def _gram_trial(seed: int, certificates):
    rng = random.Random(seed)
    g, cert = certificates[seed % len(certificates)]
    wrong = rng.choice([QI(Fraction(1, 2)), QI(Fraction(2)),
                        QI(Fraction(0), Fraction(1)), QI(Fraction(1), Fraction(1)),
                        QI()])
    row = rng.randrange(len(cert.m0_gram))
    col = rng.randrange(len(cert.m0_gram))
    if wrong == cert.m0_gram[row][col]:
        wrong = wrong + QI(Fraction(1, 3))
    gram = tuple(tuple(wrong if (i, j) == (row, col) else z
                       for j, z in enumerate(r))
                 for i, r in enumerate(cert.m0_gram))
    ok, failing = verify_witness_record(g, instance_digest(g),
                                        cert._replace(m0_gram=gram))
    return (not ok and failing is not None), failing


def _wrong_ideal_trial(seed: int):
    c = DEGENERATE_CORPUS[seed % len(DEGENERATE_CORPUS)]
    fock = build_fock(c, sigma_degeneracy_witness(c).rep, 3)
    m = build_witness_subspace(fock, katsura_ideal(c))
    missed_class = next(iter(
        {c.range_atom(k.path[0]).cls for k in m.m0}))
    wrong = IdealSpec(c.algebra, katsura_ideal(c).support | {missed_class})
    eq1, _ = verify_eq_use(fock, m._replace(ideal=wrong))
    if eq1 != 0:
        return True, "eq-use-1"
    return False, None


def test_criterion_5_negative_controls():
    """50 seeded mutations: sign flips, Gram perturbations, wrong ideals.
    Every one must be detected with a named failing residual."""
    sa_certificates = []
    for c in DEGENERATE_CORPUS:
        w = sigma_degeneracy_witness(c)
        _, _, cert = witness_pipeline(c, w.rep, w.ideal, 3)
        sa_certificates.append((as_presentation(c), cert))

    outcomes = {}
    for seed in range(50):
        kind = seed % 3
        if kind == 0:
            detected, name = _flip_trial(seed)
        elif kind == 1:
            detected, name = _gram_trial(seed, sa_certificates)
        else:
            detected, name = _wrong_ideal_trial(seed)
        assert detected, (seed, kind)
        assert isinstance(name, str) and name
        outcomes[name] = outcomes.get(name, 0) + 1
    assert sum(outcomes.values()) == 50
    named = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    print(f"criterion 5 PASS: 50/50 mutations detected ({named})")


# -- criterion 6 -----------------------------------------------------------------

def _witness_orthogonality(c: Correspondence) -> bool:
    j = katsura_ideal(c)
    reached = ideal_act_submodule(c, j)
    comp = orthogonal_complement(c, reached)
    assert comp, "degenerate instance with full ideal span"
    w = sigma_degeneracy_witness(c)
    assert pair_by_gram_identity(c, w.key, w.key) == QI_ONE
    try:
        span_keys = [k for k in fock_bases(c, w.rep, 1)[1]
                     if k.path[0].cls in reached]
    except SymbolicOnlyError:
        # infinite fiber: check against one representative copy per class
        span_keys = []
        for atom in w.rep.atoms:
            for name in sorted(reached):
                cls = c.edge(name)
                if cls.src == atom.cls:
                    span_keys.append(
                        TensorKey((EdgeCopy(name, atom.index, 0, 0),), atom))
    for key in span_keys:
        assert pair_by_gram_identity(c, w.key, key).is_zero()
    return True


def test_criterion_6_proposition_check():
    """On degenerate instances the unreached complement is nonzero and the
    witness vector is unit-normed and exactly orthogonal to the span."""
    checked = 0
    for c in DEGENERATE_CORPUS:
        assert _witness_orthogonality(c)
        checked += 1
    for seed in range(200):
        g = random_discrete_graph(random.Random(seed), max_classes=5,
                                  max_edges=8)
        c = build_correspondence(g)
        if sigma_degeneracy_witness(c) is None:
            continue
        assert _witness_orthogonality(c), seed
        checked += 1
        if checked >= 40:
            break
    assert checked >= 20
    print(f"criterion 6 PASS: witness positivity and orthogonality on "
          f"{checked} degenerate instances")


# -- criterion 7 -----------------------------------------------------------------

def test_criterion_7_compact_base_shortcut():
    """On compact instances the clopen-image shortcut matches the routes."""
    agreed = 0
    for seed in range(35):
        g = random_interval_graph(random.Random(seed), max_pieces=4,
                                  compact=True)
        shortcut = compact_base_shortcut(g)
        assert shortcut is not None, seed
        assert shortcut == decide_hyperrigid(g).hyperrigid, seed
        agreed += 1
    assert agreed >= 30
    print(f"criterion 7 PASS: shortcut agrees on {agreed} compact instances")


# -- criterion 8 -----------------------------------------------------------------

def branched_tower() -> Correspondence:
    # an infinitely received middle stage with a loop, so the degeneracy
    # survives to higher tensor powers
    from hyperrig.scalars import OMEGA
    return Correspondence.of(
        AtomSet.of([("V1", 1), ("V2", 1), ("V3", 1), ("W", OMEGA)]),
        [EdgeClass("a", "V1", "V2", 1), EdgeClass("b", "V2", "V3", 1),
         EdgeClass("c", "V2", "V2", 1), EdgeClass("E", "W", "V2", 1)])


def test_criterion_8_tensor_power_reduction():
    """Power-n degeneracy equals level-1 degeneracy of the reduced space,
    and the dimension identity holds exactly."""

    def class_rep(c):
        return EvaluationRep.of(c.algebra,
                                [Atom(nm, 0) for nm in c.algebra.names])

    pool = [(c, class_rep(c)) for c in DISCRETE_CORPUS + [tower(), branched_tower()]]
    for seed in range(6):
        g = random_discrete_graph(random.Random(seed), max_classes=4,
                                  max_edges=6, all_finite=True)
        c = build_correspondence(g)
        pool.append((c, all_atoms_rep(c)))

    runs = 0
    degenerate_runs = 0
    for c, sigma in pool:
        span = ideal_act_submodule(c, katsura_ideal(c))
        bases = fock_bases(c, sigma, 3)
        for n in (2, 3):
            # X^(n) (x)_sigma H = X (x) K, with K the level-(n-1) space
            # evaluated slot by slot at the leading atom of each key
            reduced_atoms = [leading_atom(c, k) for k in bases[n - 1]]
            fiberwise = sum(len(c.edges_from_atom(a)) for a in reduced_atoms)
            assert fiberwise == len(bases[n]), (c, n)
            # power-n degeneracy reduces to level 1 over the reduced atoms
            at_power = any(k.path[0].cls not in span for k in bases[n])
            at_level_1 = any(e.cls not in span
                             for a in reduced_atoms
                             for e in c.edges_from_atom(a))
            assert at_power == at_level_1, (c, n)
            runs += 1
            degenerate_runs += at_power
    assert runs >= 20
    assert degenerate_runs >= 1
    print(f"criterion 8 PASS: dimension identity and level-1 reduction on "
          f"{runs} power instances ({degenerate_runs} degenerate)")
