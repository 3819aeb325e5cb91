"""Shared example algebras and random-instance generators for the tests.

E1  free on x (deg 1, wt 1), dx = 0
E2  table algebra with basis {1, x0, x1} in (1,1), all products and d zero
E3  free on x, y (1,1) and z (1,2) with dz = x*y
E4  E1-augmented: free on t (1,1) [base], u (1,1), v (1,2), dv = t*u
E4p E4 plus w (1,3) with dw = u*v + t*v
E4q E4p plus s (1,4) with ds = t*w + u*w
K_k E1-augmented: free on t (1,1) [base], u_i (1,1) and v_i (1,2) for
    i = 1 .. k - 1, d v_i = t*u_i; K_2 is E4 with its letters renamed

free_cdga_text and cell_text write a free cdga and a cell module as the
files the parser reads.
"""

import random
from fractions import Fraction

from adamsbar.cdga import (CdgaPresentation, GeneratorSpec, el_add, el_gen,
                           mono_factors)
from adamsbar import linalg
from adamsbar.parser import parse_text

F = Fraction


def make_e1(letter="x"):
    return CdgaPresentation("E1", [GeneratorSpec(letter, 1, 1)])


def make_e2():
    gens = [GeneratorSpec("x0", 1, 1, table=True),
            GeneratorSpec("x1", 1, 1, table=True)]
    return CdgaPresentation("E2", gens)


def make_e3():
    gens = [
        GeneratorSpec("x", 1, 1),
        GeneratorSpec("y", 1, 1),
        GeneratorSpec("z", 1, 2),
    ]
    return CdgaPresentation("E3", gens, differential={
        "z": {(("x", 1), ("y", 1)): 1}})


def make_e4():
    gens = [
        GeneratorSpec("t", 1, 1),
        GeneratorSpec("u", 1, 1),
        GeneratorSpec("v", 1, 2),
    ]
    return CdgaPresentation("E4", gens,
                            differential={"v": {(("t", 1), ("u", 1)): 1}},
                            augmentation={"u": {}, "v": {}})


def make_e4p():
    A = make_e4()
    gens = A.generators + [GeneratorSpec("w", 1, 3)]
    dw = {(("u", 1), ("v", 1)): 1, (("t", 1), ("v", 1)): 1}
    return CdgaPresentation("E4p", gens,
                            differential={**A.differential, "w": dw},
                            augmentation={"u": {}, "v": {}, "w": {}})


def make_e4q():
    A = make_e4p()
    ds = {(("t", 1), ("w", 1)): 1, (("u", 1), ("w", 1)): 1}
    return CdgaPresentation("E4q", A.generators
                            + [GeneratorSpec("s", 1, 4)],
                            differential={**A.differential, "s": ds},
                            augmentation={**A.augmentation, "s": {}})


def k_text(k):
    """The presentation file of K_k: the relative theory over E1 at the
    size of the line minus k points, with an abelian fiber (d_F = 0, the
    whole of each d v_i being the connection t*u_i)."""
    r = range(1, k)
    return "".join(
        [f"cdga K{k} free\ngen t deg 1 wt 1\n"]
        + [f"gen u{i} deg 1 wt 1\n" for i in r]
        + [f"gen v{i} deg 1 wt 2\n" for i in r]
        + [f"d v{i} = 1*t*u{i}\n" for i in r]
        + [f"aug {x}{i} = 0\n" for x in "uv" for i in r])


def make_k(k):
    return parse_text(k_text(k))[1]


def base_gens_e4():
    return ["t"]


def random_free_cdga(seed, max_gens=4, deg_max=2, wt_max=3):
    """A random valid FREE cdga: each differential a cocycle in earlier gens."""
    rng = random.Random(seed)
    n_gens = rng.randint(1, max_gens)
    gens = []
    diff = {}
    for i in range(n_gens):
        name = f"g{i}"
        coh = rng.randint(1, deg_max)
        adams = rng.randint(1, wt_max)
        sub = CdgaPresentation("tmp", gens, diff)
        choices = []
        basis = sub.slice(coh + 1, adams)
        if basis and rng.random() < 0.7:
            idx = {m: j for j, m in enumerate(basis)}
            ker = linalg.kernel_basis(sub.d_columns(coh + 1, adams))
            if ker:
                v = {}
                for kv in ker:
                    c = F(rng.randint(-2, 2))
                    if c:
                        v = el_add(v, kv, c)
                choices = [{basis[j]: c for j, c in v.items()}]
        gens = gens + [GeneratorSpec(name, coh, adams)]
        if choices and choices[0]:
            diff = dict(diff)
            diff[name] = choices[0]
    return CdgaPresentation(f"R{seed}", gens, diff)


def random_gen_nilpotent(seed, max_fiber=3, wt_max=3):
    """Random generalized-nilpotent total algebra over the base E1 (letter t).

    Fiber generators e_i have degree 1; each differential is a random
    degree-2 cocycle in the subalgebra generated by t and earlier e's, so
    the dependency filtration is the declaration order.
    """
    rng = random.Random(seed)
    n_fiber = rng.randint(1, max_fiber)
    gens = [GeneratorSpec("t", 1, 1)]
    diff = {}
    aug = {}
    for i in range(n_fiber):
        name = f"e{i}"
        adams = rng.randint(1, wt_max)
        sub = CdgaPresentation("tmp", gens, diff)
        basis = sub.slice(2, adams)
        dval = {}
        if basis and rng.random() < 0.8:
            ker = linalg.kernel_basis(sub.d_columns(2, adams))
            v = {}
            for kv in ker:
                c = F(rng.randint(-2, 2))
                if c:
                    v = el_add(v, kv, c)
            dval = {basis[j]: c for j, c in v.items()}
        gens = gens + [GeneratorSpec(name, 1, adams)]
        if dval:
            diff = dict(diff)
            diff[name] = dval
        aug[name] = {}
    return CdgaPresentation(f"GN{seed}", gens, diff,
                            augmentation=aug)


def random_cell_module(A, seed, max_basis=4, deg_range=(0, 2), wt_range=(0, 2),
                       min_basis=1):
    """Random finite cell module over A with d^2 = 0 by construction:
    each new basis element's differential is a random cocycle in the
    module built so far."""
    from adamsbar.cellmod import CellModule

    rng = random.Random(seed)
    n = rng.randint(min_basis, max_basis)
    basis = []
    diff = {}
    for j in range(n):
        coh = rng.randint(*deg_range)
        adams = rng.randint(*wt_range)
        if basis and rng.random() < 0.7:
            M = CellModule(A, basis, diff)
            sl = M.slice_basis(coh + 1, adams)
            if sl:
                ker = linalg.kernel_basis(M.d_columns(coh + 1, adams))
                v = {}
                for kv in ker:
                    c = F(rng.randint(-2, 2))
                    if c:
                        v = el_add(v, kv, c)
                for k, c in v.items():
                    mono, bi = sl[k]
                    key = (bi, j)
                    cur = diff.get(key, {})
                    cur = dict(cur)
                    cur[mono] = cur.get(mono, F(0)) + c
                    if not cur[mono]:
                        del cur[mono]
                    if cur:
                        diff[key] = cur
                    elif key in diff:
                        del diff[key]
        basis.append((f"b{j}", coh, adams))
    from adamsbar.cellmod import _strict_filtration

    return CellModule(A, basis, diff, _strict_filtration(basis, diff),
                      0, f"RM{seed}")


def bench_cell_module(seed):
    """A random cell module of the cells bench's shape: 6-10 cells over E3
    in degrees 0..3 and weights 0..5."""
    return random_cell_module(make_e3(), seed, max_basis=10,
                              deg_range=(0, 3), wt_range=(0, 5),
                              min_basis=6)


def dg_module_from_cell(M):
    """Underlying finite-dimensional dg A-module of a cell module over a
    finite-dimensional algebra (all generators odd), as slice matrices."""
    from adamsbar.cellmod import FiniteDgModule

    A = M.algebra
    pairs = []
    wt_max = max(a for (_, _, a) in M.basis) + sum(
        g.adams for g in A.generators)
    deg_lo = min(c for (_, c, _) in M.basis)
    deg_hi = max(c for (_, c, _) in M.basis) + sum(
        abs(g.coh) for g in A.generators) + 1
    for r in range(0, wt_max + 1):
        for nn in range(deg_lo, deg_hi + 1):
            pairs.extend(M.slice_basis(nn, r))
    index = {p: i for i, p in enumerate(pairs)}
    basis = []
    for mono, j in pairs:
        nm, cj, aj = M.basis[j]
        mn, ma = A.mono_bidegree(mono)
        basis.append((f"{mono}|{nm}", cj + mn, aj + ma))
    d = {}
    for p, i in index.items():
        for (dm, bj), c in M.d_element(*p).items():
            if (dm, bj) in index:
                d[(index[(dm, bj)], i)] = c
    action = {}
    for g in A.generators:
        mat = {}
        for (mono, j), i in index.items():
            prod = A.multiply(el_gen(g.name), {mono: F(1)})
            for pm, c in prod.items():
                if (pm, j) in index:
                    mat[(index[(pm, j)], i)] = c
        action[g.name] = mat
    return FiniteDgModule(A, basis, d, action)


def free_cdga_text(A):
    """A FREE presentation, its d and its aug lines of value 0, as a
    presentation file."""
    lines = [f"cdga {A.name} free"]
    lines += [f"gen {g.name} deg {g.coh} wt {g.adams}" for g in A.generators]
    for name, d in A.differential.items():
        body = " ".join(("- " if c < 0 else "+ ")
                        + "*".join([str(abs(c))] + mono_factors(m))
                        for m, c in d.items())
        lines.append(f"d {name} = {body[2:] if body[0] == '+' else body}")
    lines += [f"aug {name} = 0" for name, a in A.augmentation.items()
              if not a]
    return "\n".join(lines) + "\n"


def cell_text(M):
    """M as a cell file over its algebra."""
    lines = [f"cell {M.name} over {M.algebra.name}"]
    lines += [f"elt {nm} deg {c} wt {a}" for nm, c, a in M.basis]
    for j, (nm, _, _) in enumerate(M.basis):
        terms = [("-" if c < 0 else "+",
                  "*".join([str(abs(c))] + mono_factors(m))
                  + f" {M.basis[i][0]}")
                 for (i, jj), a in M.differential.items() if jj == j
                 for m, c in a.items()]
        if terms:
            body = " ".join(f"{sign} {t}" for sign, t in terms)
            lines.append(f"d {nm} = {body[2:] if body[0] == '+' else body}")
    return "\n".join(lines) + "\n"
