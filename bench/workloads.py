"""Seeded inputs and job lists of the three workloads.

A workload run is a sequence of rounds; round r of seed s uses input set
(s + r) mod SETS, so the same seed always gives the same inputs, and
every set has its canonical report digests recorded in digests.json.
An input set is a list of jobs plus the text of the files they read.
No input file repeats within a set, so a saving can only come from work
done inside one job.

A job is a dict:
  id      unique within the set
  kind    "cli": argv for adamsbar.cli.main, where "@name" is a file;
          "cell": op applied to cell files bound over E3
  oracle  None, or {report key: expected table}; the report's table
          must equal it
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

from exterior import CellSpace, Exterior, random_cocycle
from oracles import gamma_dims, h0_dims, lyndon_count

WORKLOADS = ("hopf", "models", "cells")
SETS = 12

E1 = """cdga E1 free
gen t deg 1 wt 1
"""

E3 = """cdga E3 free
gen x deg 1 wt 1
gen y deg 1 wt 1
gen z deg 1 wt 2
d z = 1*x*y
"""

E4 = """cdga E4 free
gen t deg 1 wt 1
gen u deg 1 wt 1
gen v deg 1 wt 2
d v = 1*t*u
aug u = 0
aug v = 0
"""

E4P = """cdga E4p free
gen t deg 1 wt 1
gen u deg 1 wt 1
gen v deg 1 wt 2
gen w deg 1 wt 3
d v = 1*t*u
d w = 1*u*v + 1*t*v
aug u = 0
aug v = 0
aug w = 0
"""

# E4p plus a weight-4 fiber generator s with d s = t*w + u*w, a cocycle
E4Q = E4P.replace("cdga E4p", "cdga E4q").replace(
    "aug u = 0", "gen s deg 1 wt 4\nd s = 1*t*w + 1*u*w\naug u = 0"
) + "aug s = 0\n"


def punctured_line(k):
    """The formal model of the line minus k points, augmented to Q."""
    gens = [f"a{i}" for i in range(k - 1)]
    return (f"cdga P1minus{k} table\n"
            + "".join(f"gen {g} deg 1 wt 1\n" for g in gens)
            + "".join(f"aug {g} = 0\n" for g in gens))


def build(workload, index):
    """(jobs, files) of input set `index` of `workload`."""
    rng = random.Random(f"adamsbar-bench:{workload}:{index}")
    return {"hopf": _hopf, "models": _models, "cells": _cells}[workload](rng)


def _dims(dim, lo, hi):
    """An oracle table as the report prints it: {"w": dim(w)}."""
    return {str(w): dim(w) for w in range(lo, hi + 1)}


def _cli(jid, *argv, oracle=None):
    return {"id": jid, "kind": "cli", "argv": list(argv), "oracle": oracle}


# ---- hopf: bar-construction Hopf algebras and co-Lie coalgebras --------

# Every set holds each class (letter weights, window) twice, with its own
# letter names, so that sets differ in their inputs but not in the mix of
# job sizes that job_p50_s and job_p90_s are taken over.  Three weight-1
# letters are kept to window 3, where they already give 27 words.
FORMAL_CLASSES = [
    (weights, w_max)
    for k in (2, 3)
    for weights in combinations_with_replacement((1, 2, 3), k)
    for w_max in (3, 4)
    if not (weights == (1, 1, 1) and w_max == 4)
]


def _hopf(rng):
    files = {"e1.cdga": E1, "e3.cdga": E3, "e4.cdga": E4}
    jobs = []
    for k, w in ((3, 6), (4, 4), (5, 3)):
        oracle = {"h0_dims": _dims(lambda i: (k - 1) ** i, 0, w),
                  "gamma_dims": _dims(lambda i: lyndon_count(k - 1, i),
                                      1, w)}
        jobs.append(_cli(f"pi1-k{k}-w{w}", "pi1-demo", "--punctures",
                         str(k), "--wt-max", str(w), oracle=oracle))
    jobs.append(_cli("colie-e3-w5", "colie", "@e3.cdga", "--wt-max", "5"))
    jobs.append(_cli("quillen-e3-w5", "quillen", "@e3.cdga", "--wt-max", "5"))
    jobs.append(_cli("kernel-e1-e4-w5", "kernel", "--base", "@e1.cdga",
                     "--total", "@e4.cdga", "--wt-max", "5"))
    for i, (weights, w_max) in enumerate(2 * FORMAL_CLASSES):
        weights = list(weights)
        rng.shuffle(weights)
        names = rng.sample("abcdefghjkmnpqrs", len(weights))
        fname = f"formal{i}.cdga"
        files[fname] = f"cdga F{i} table\n" + "".join(
            f"gen {n} deg 1 wt {a}\n" for n, a in zip(names, weights))
        jobs.append(_cli(f"bar-h0-formal{i}", "bar-h0", f"@{fname}",
                         "--wt-max", str(w_max),
                         oracle={"tables": _dims(
                             h0_dims(weights, w_max).__getitem__, 0, w_max)}))
        jobs.append(_cli(f"colie-formal{i}", "colie", f"@{fname}",
                         "--wt-max", str(w_max),
                         oracle={"tables": _dims(
                             gamma_dims(weights, w_max).__getitem__, 1,
                             w_max)}))
    return jobs, files


# ---- models: minimal models, simplicial approximations, co-actions -----

# one total per tuple of fiber weights, for the same reason as above
NILPOTENT_CLASSES = [ws for n in (1, 2, 3)
                     for ws in product((1, 2, 3), repeat=n)]


def _models(rng):
    files = {"e1.cdga": E1, "e4p.cdga": E4P, "e4q.cdga": E4Q,
             "p3.cdga": punctured_line(3), "p4.cdga": punctured_line(4)}
    jobs = [
        _cli("minimal-p4-n2-w5", "minimal-model", "@p4.cdga", "--n", "2",
             "--wt-max", "5"),
        _cli("minimal-p3-n2-w7", "minimal-model", "@p3.cdga", "--n", "2",
             "--wt-max", "7"),
        _cli("delta-e4p-n5-w3", "delta-approx", "@e4p.cdga", "--base",
             "@e1.cdga", "--n", "5", "--wt-max", "3"),
        _cli("delta-e4p-n4-w4", "delta-approx", "@e4p.cdga", "--base",
             "@e1.cdga", "--n", "4", "--wt-max", "4"),
        _cli("coaction-e4q-w6", "coaction-check", "--base", "@e1.cdga",
             "--total", "@e4q.cdga", "--wt-max", "6"),
    ]
    for i, weights in enumerate(NILPOTENT_CLASSES):
        fname = f"gn{i}.cdga"
        files[fname] = _nilpotent_total(rng, f"GN{i}", weights)
        w = "3"
        jobs += [
            _cli(f"minimal-gn{i}", "minimal-model", f"@{fname}", "--base",
                 "@e1.cdga", "--n", "2", "--wt-max", w),
            _cli(f"delta-gn{i}", "delta-approx", f"@{fname}", "--base",
                 "@e1.cdga", "--n", "3", "--wt-max", w),
            _cli(f"coaction-gn{i}", "coaction-check", "--base", "@e1.cdga",
                 "--total", f"@{fname}", "--wt-max", w),
            _cli(f"cohomology-gn{i}", "cohomology", f"@{fname}",
                 "--wt-max", w, "--deg-max", "3"),
        ]
    return jobs, files


def _nilpotent_total(rng, name, fiber_weights):
    """A generalized-nilpotent total algebra over E1 (generator t).

    Fiber generators e_i have degree 1 and augment to 0; d e_i is a
    random nonzero degree-2 cocycle in the subalgebra on t and
    e_0..e_{i-1} when there is one, so the declaration order is a
    nilpotence filtration."""
    weights = {"t": 1}
    diff = {}
    for i, wt in enumerate(fiber_weights):
        sub = Exterior(weights, diff)
        for _ in range(4):  # a random combination can vanish; retry
            dval = random_cocycle(rng, sub.basis(2, wt), sub.basis(3, wt),
                                  sub.d_mono)
            if dval:
                diff[f"e{i}"] = dval
                break
        weights[f"e{i}"] = wt
    lines = [f"cdga {name} free"]
    lines += [f"gen {g} deg 1 wt {w}" for g, w in weights.items()]
    lines += [f"d {g} = {_poly(el)}" for g, el in diff.items()]
    lines += [f"aug {g} = 0" for g in weights if g != "t"]
    return "\n".join(lines) + "\n"


def _poly(el):
    """An exterior element in presentation syntax (factors in sorted
    order, so the written product is the stored monomial)."""
    terms = []
    for m, c in sorted(el.items()):
        terms.append(_term(c, "*".join([_rat(abs(c))] + list(m))))
    return _join(terms)


# ---- cells: cell modules over E3 ----------------------------------------

# Module sizes follow a fixed schedule, and each pair of modules (M, N)
# gives six cheap jobs (Hom groups both ways, flatness and t-truncation
# of each) and three dense ones (Hom and tensor complexes with their
# d^2 check, and a cell resolution of M).  The 2:1 mix keeps job_p50_s
# inside the cheap group and job_p90_s inside the dense one, not in the
# gap between them.
CELL_PAIRS = 14
CELL_SIZES = [6 + k % 5 for k in range(2 * CELL_PAIRS)]
CELL_JOBS = (("hom_group", "MN"), ("hom_group", "NM"),
             ("connection_flat", "M"), ("connection_flat", "N"),
             ("t_truncate", "M"), ("t_truncate", "N"),
             ("hom_check", "MN"), ("tensor_check", "MN"),
             ("cell_resolution", "M"))

E3_ALGEBRA = Exterior({"x": 1, "y": 1, "z": 2},
                      {"z": {("x", "y"): Fraction(1)}})


def _cells(rng):
    files = {"e3.cdga": E3}
    for k, size in enumerate(CELL_SIZES):
        text = _cell_module(rng, f"RM{k}", size)
        while text in files.values():
            text = _cell_module(rng, f"RM{k}", size)
        files[f"rm{k}.cell"] = text
    jobs = []
    for p in range(CELL_PAIRS):
        pair = {"M": f"rm{2 * p}.cell", "N": f"rm{2 * p + 1}.cell"}
        for op, args in CELL_JOBS:
            jobs.append({"id": f"{op}-{args}-pair{p}", "kind": "cell",
                         "op": op, "files": [pair[a] for a in args],
                         "oracle": None})
    return jobs, files


def _cell_module(rng, name, size):
    """A random cell module over E3 with d^2 = 0 by construction: each
    cell's differential is a random cocycle of the cells before it."""
    cells, diff = [], {}
    for j in range(size):
        deg, wt = rng.randint(0, 3), rng.randint(0, 5)
        if cells and rng.random() < 0.7:
            M = CellSpace(E3_ALGEBRA, cells, diff)
            z = random_cocycle(rng, M.slice(deg + 1, wt),
                               M.slice(deg + 2, wt),
                               lambda p: M.d_pair(*p))
            for (mono, i), c in z.items():
                diff.setdefault((i, j), {})[mono] = c
        cells.append((f"b{j}", deg, wt))
    lines = [f"cell {name} over E3"]
    lines += [f"elt {n} deg {d} wt {w}" for n, d, w in cells]
    for j in range(len(cells)):
        terms = []
        for (i, jj), el in sorted(diff.items()):
            if jj == j:
                for mono, c in sorted(el.items()):
                    coeff = "*".join([_rat(abs(c))] + list(mono))
                    terms.append(_term(c, f"{coeff} {cells[i][0]}"))
        if terms:
            lines.append(f"d {cells[j][0]} = {_join(terms)}")
    return "\n".join(lines) + "\n"


def _rat(c):
    return str(c.numerator) if c.denominator == 1 else str(c)


def _term(c, body):
    return ("-" if c < 0 else "+", body)


def _join(terms):
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out
