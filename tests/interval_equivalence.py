"""Dump what the interval layer answers on seeded instances, to compare
two checkouts of the package line by line.

The first part draws `instances.random_interval_graph` instances of 1-6
edge pieces, a third of them mutated in their document form (a flipped
end, a moved or swapped endpoint, an unbounded end, a changed slope or
offset, a piece dropped, duplicated or split at its midpoint).  For each
it writes the error message or the verdict record, the
`classify_vertices` sets, and closure, interior, complement, difference,
intersection, image and preimage sets built from it, each probed with
`contains` and `approaches` at every endpoint and 1/7 to either side;
`value_at`, `finite_end_limits`, `is_proper_into` the target,
`is_local_homeomorphism` and `range_condition` of both maps.  The second part draws free-standing
pairs of sets with rays, the full line and single points and writes their
boolean operations, closure and interior, probed the same way.

Run it once per checkout and compare the outputs:

    python tests/interval_equivalence.py <checkout> a.txt 3000
    python tests/interval_equivalence.py <other checkout> b.txt 3000
    cmp a.txt b.txt

Each checkout is imported from its own src/ and tests/.  The counts of
valid, rejected and mutated instances go to stderr.
"""

import copy
import random
import sys
from fractions import Fraction as F

root, out_path = sys.argv[1], sys.argv[2]
N = int(sys.argv[3]) if len(sys.argv) > 3 else 3000
sys.path[:0] = [f"{root}/src", f"{root}/tests"]

from hyperrig import intervals as iv  # noqa: E402
from hyperrig.graphs import classify_vertices, decide_hyperrigid  # noqa: E402
from hyperrig.records import (  # noqa: E402
    canonical_json, instance_payload, parse_instance, verdict_record,
)
from instances import random_interval_graph  # noqa: E402

OTHER_END = {"closed": "open", "open": "closed"}


def mutate(doc, rng):
    doc = copy.deepcopy(doc)
    ends = [(doc[key], i) for key in ("G0", "G1") for i in range(len(doc[key]))]
    ends += [(ap, "dom") for m in ("r", "s") for ap in doc[m]["pieces"]]
    holder, k = rng.choice(ends)
    v = holder[k]
    op = rng.randrange(9)
    if op == 0:
        j = rng.randrange(2, 4)
        v[j] = OTHER_END[v[j]]
    elif op == 1:
        j = rng.randrange(2)
        if v[j] not in ("inf", "-inf"):
            v[j] = str(F(v[j]) + F(rng.choice([-1, 1]), rng.choice([1, 2, 4])))
    elif op == 2:
        if rng.random() < 0.5:
            v[0] = v[1]
        else:
            v[1] = v[0]
    elif op == 3:
        if rng.random() < 0.5:
            v[0], v[2] = "-inf", "open"
        else:
            v[1], v[3] = "inf", "open"
    elif op == 4:
        ap = rng.choice(doc[rng.choice(("r", "s"))]["pieces"])
        name = rng.choice(("slope", "offset"))
        ap[name] = str(F(ap[name]) + F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3])))
    elif op == 5:
        pieces = doc[rng.choice(("r", "s"))]["pieces"]
        if len(pieces) > 1:
            del pieces[rng.randrange(len(pieces))]
        else:
            pieces.append(copy.deepcopy(pieces[0]))
    elif op == 6:
        # split an affine piece at its midpoint, possibly breaking continuity
        pieces = doc[rng.choice(("r", "s"))]["pieces"]
        ap = rng.choice(pieces)
        lo, hi, lc, hc = ap["dom"]
        if lo != "-inf" and hi != "inf" and lo != hi:
            mid = str((F(lo) + F(hi)) / 2)
            left, right = copy.deepcopy(ap), copy.deepcopy(ap)
            end = rng.choice(["closed", "open"])
            left["dom"] = [lo, mid, lc, end]
            right["dom"] = [mid, hi, "open" if end == "closed"
                            else rng.choice(["closed", "open"]), hc]
            if rng.random() < 0.5:
                if rng.random() < 0.5:
                    right["slope"] = str(-F(right["slope"]))
                right["offset"] = str(F(right["offset"]) + rng.choice([0, 0, 1]))
            pieces[pieces.index(ap)] = left
            pieces.append(right)
    elif op == 7:
        pieces = doc[rng.choice(("G0", "G1"))]
        if len(pieces) > 1:
            del pieces[rng.randrange(len(pieces))]
    else:
        v[0], v[1] = v[1], v[0]
    return doc


def probe_points(sets, delta):
    return sorted({v + d for s in sets for p in s.pieces for v in (p.lo, p.hi)
                   if v is not None for d in (0, -delta, delta)})


def probe_lines(named, xs):
    lines = []
    for name, s in named.items():
        lines.append(f"{name}: {s}")
        lines.append("".join("1" if s.contains(x) else "0" for x in xs))
        for side in ("left", "right"):
            lines.append("".join("1" if iv.approaches(s, x, side) else "0" for x in xs))
    return lines


def instance_lines(g):
    img = iv.image(g.r)
    named = {"G0": g.g0, "G1": g.g1, "img_r": img, "img_s": iv.image(g.s),
             "cl": iv.closure(img, g.g0), "int": iv.interior(img, g.g0),
             "int_line": iv.interior(g.g1), "comp": iv.complement(g.g1),
             "diff": iv.difference(g.g0, img)}
    named["meet"] = iv.intersect(named["comp"], g.g0)
    named["pre_cl"] = iv.preimage(g.r, named["cl"])
    named["pre_int"] = iv.preimage(g.r, named["int"])
    named["pre_s"] = iv.preimage(g.s, named["diff"])
    xs = probe_points(named.values(), F(1, 7))
    lines = probe_lines(named, xs)
    for f in (g.r, g.s):
        values = []
        for x in xs:
            try:
                values.append(str(f.value_at(x)))
            except Exception as exc:
                values.append(f"E:{exc}")
        lines.append(" ".join(values))
        lines.append(f"limits {iv.finite_end_limits(f)} "
                     f"proper {iv.is_proper_into(f, f.target)} "
                     f"lh {iv.is_local_homeomorphism(f)} rc {iv.range_condition(f)}")
    return lines


def random_set(rng):
    pieces = []
    for _ in range(rng.randint(0, 5)):
        a, b = sorted(F(rng.randint(-16, 16), rng.choice([1, 2, 4])) for _ in range(2))
        lo = None if rng.random() < 0.15 else a
        hi = None if rng.random() < 0.15 else b
        if lo is not None and lo == hi:
            pieces.append(iv.Interval(lo, hi, True, True))
        else:
            pieces.append(iv.Interval(lo, hi, lo is not None and rng.random() < 0.5,
                                      hi is not None and rng.random() < 0.5))
    return iv.IntervalSet.of(pieces)


def main():
    counts = {"valid": 0, "rejected": 0, "mutated": 0}
    with open(out_path, "w", encoding="utf-8") as out:
        for seed in range(N):
            rng = random.Random(seed)
            g = random_interval_graph(rng, max_pieces=rng.randint(1, 6),
                                      compact=rng.random() < 0.3,
                                      extra_base=rng.random() < 0.7)
            doc = instance_payload(g)
            if seed % 3 == 0:
                doc = mutate(doc, rng)
                counts["mutated"] += 1
            lines = [f"# seed {seed}"]
            try:
                h = parse_instance(doc)
            except Exception as exc:
                counts["rejected"] += 1
                lines.append(f"{type(exc).__name__}: {exc}")
            else:
                counts["valid"] += 1
                lines.append(canonical_json(verdict_record(h, decide_hyperrigid(h))))
                cls = classify_vertices(h)
                lines.append(f"sce {cls.sce} fin {cls.fin} reg {cls.reg}")
                lines += instance_lines(h)
            out.write("\n".join(lines) + "\n")
        for seed in range(N):
            rng = random.Random(10**6 + seed)
            a, b = random_set(rng), random_set(rng)
            amb = iv.IntervalSet.of(a.pieces + b.pieces)
            named = {"a": a, "b": b, "union": amb, "meet": iv.intersect(a, b),
                     "diff": iv.difference(a, b), "comp": iv.complement(a),
                     "cl": iv.closure(a, amb), "int": iv.interior(a, amb),
                     "int_line": iv.interior(b)}
            lines = [f"# set seed {seed}", f"subset {iv.is_subset(a, b)}"]
            lines += probe_lines(named, probe_points((a, b), F(1, 9)))
            out.write("\n".join(lines) + "\n")
    print(counts, file=sys.stderr)


if __name__ == "__main__":
    main()
