"""Minimal models, absolute and relative, plus the Quillen comparison.

A relative minimal model over a base N is a free extension Sym*E (x) N
whose differential is inductively built from earlier generators.  It is
built by linalg.attach_cells, the cell-attaching loop cell resolutions
share, on the augmentation ideals: the stages run weight by weight, and
degree by degree within a weight; at each stage, closed generators are
adjoined to make the structure map surjective on H^i of the
augmentation ideal, then generators killing the kernel on H^{i+1}.  The
model grows in place, and its one IdealComplex forgets only the slices
of the new generators' weight and above.  All certification is by exact
slice linear algebra.

The input is an AugmentedOverN read through relative.checked_fiber, as
every relative command reads it; its ideal, the kernel of X.eps, is
spanned by the monomials with a fiber generator.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .linalg import _vec_iadd
from .bar import (BarComplex, _exact, _wedge_add, gamma as bar_gamma,
                  map_letters)
from .cdga import CdgaPresentation, GeneratorSpec, el_scale, mono_factors
from .relative import AugmentedOverN, checked_fiber

F = Fraction


def trivial_base():
    return CdgaPresentation("Q", [])


def augment_absolute(A: CdgaPresentation):
    """Copy of A augmented to Q (every generator killed)."""
    return CdgaPresentation(A.name, A.generators, A.differential,
                            A.products, {g.name: {} for g in A.generators})


class IdealComplex(linalg.SliceComplex):
    """The augmentation ideal of A under aug, a generator map that kills
    each generator it names and fixes the rest (AugmentedOverN's eps, or
    a model's augmentation, each new generator marked aug={}).  Such a
    map kills or fixes each monomial as a whole, so the keys of slice
    (i, m) are the monomials of A.slice(i, m) with a killed generator, in
    A's order, and an ideal element's coordinates are its own entries."""

    def __init__(self, A: CdgaPresentation, aug):
        super().__init__()
        self.A = A
        self.aug = aug

    def slice_keys(self, i, m):
        aug = self.aug
        return [mono for mono in self.A.slice(i, m)
                if any(name in aug for name, _ in mono)]

    def d_key(self, i, m, mono):
        return self.A.mono_d(mono)

    def to_coords(self, el, i, m):
        """Coordinates of an ideal element: its entries, each at its
        monomial's position."""
        idx = self.index(i, m)
        try:
            return {idx[mono]: c for mono, c in el.items()}
        except KeyError:
            raise ValueError(
                "element not in the augmentation ideal") from None

    def from_coords(self, v, i, m):
        """The ideal element of coordinates v, a coordinate of denominator
        1 taken as an int."""
        keys = self.slice(i, m)
        return {keys[k]: _exact(c) for k, c in v.items()}


class MinimalModelResult:
    def __init__(self, model, structure_map, fiber_names, stage_log,
                 certification):
        self.model = model
        self.structure_map = structure_map  # fiber gen name -> Element of A
        self.fiber_names = fiber_names
        self.stage_log = stage_log
        self.certification = certification

    def certified(self):
        return all(self.certification.values())


def relative_minimal_model(X: AugmentedOverN, n, w_max):
    """n-minimal model of the total X.total over the base X.base, after
    checked_fiber's input checks.

    Returns a MinimalModelResult whose model is the base with free fiber
    generators adjoined, each augmented to 0, and whose structure map
    sends the model's ideal into the kernel of X.eps (each ideal spanned
    by its monomials with a fiber generator, an IdealComplex), certified
    by slice cohomology comparison within the (coh <= n+1,
    adams <= w_max) window.
    The structure map commutes with d by construction: a closed cell is
    sent to a cocycle, and a cell with d = z to a b with d_A b = s(z).
    """
    checked_fiber(X, w_max)
    N, A = X.base, X.total
    model = CdgaPresentation(f"{A.name}_min", N.generators,
                             N.differential, N.products)
    ic_A = IdealComplex(A, X.eps)
    ic_M = IdealComplex(model, model.augmentation)
    structure_map = {}
    fiber_names = []
    counter = [0]

    def fresh_name():
        while True:
            name = f"mg{counter[0]}"
            counter[0] += 1
            if name not in A.gen and name not in model.gen:
                return name

    def image(i, m, v):
        """A's ideal coordinates of the structure-map image of v."""
        el = A.substitute(ic_M.from_coords(v, i, m), structure_map)
        return ic_A.to_coords(el, i, m)

    def adjoin(i, m, cells):
        cells = [({} if z is None else ic_M.from_coords(z, i + 1, m),
                  ic_A.from_coords(b, i, m)) for z, b in cells]
        for d_el, s_el in cells:
            name = fresh_name()
            model.adjoin(GeneratorSpec(name, i, m), d_el, aug={})
            fiber_names.append(name)
            structure_map[name] = s_el
        ic_M.forget(m)

    stages = [(i, m) for m in range(1, w_max + 1) for i in range(1, n + 1)]
    rounds, certification = linalg.attach_cells(
        stages, n, ic_A, lambda i, m: ic_M.cohomology(i, m)[1], image,
        adjoin)
    stage_log = [{"adams": m, "coh": i, "iterations": k}
                 for (i, m), k in zip(stages, rounds)]
    return MinimalModelResult(model, structure_map, fiber_names, stage_log,
                              certification)


class QAColie:
    """Degree-1 generators of the 1-minimal model with cobracket d.

    basis: list of (weight, generator name); cobracket[g]: {(p, q): c}
    with p < q global indices, reading d(gen) = sum c * gen_p * gen_q.
    quillen builds the model with n = 1 over the trivial base, so every
    generator has degree 1 and every term of its d is a product of two.
    """

    def __init__(self, mm: MinimalModelResult):
        self.mm = mm
        model = mm.model
        self.basis = []
        self.by_weight = {}
        order = {}
        for name in mm.fiber_names:
            g = model.gen[name]
            order[name] = len(self.basis)
            self.by_weight.setdefault(g.adams, []).append(len(self.basis))
            self.basis.append((g.adams, name))
        self.cobracket = {}
        for w, name in self.basis:
            gidx = order[name]
            out = {}
            for mono, c in model.differential.get(name, {}).items():
                p, q = mono_factors(mono)
                _wedge_add(out, order[p], order[q], F(c))
            self.cobracket[gidx] = {k: c for k, c in out.items() if c}

    def dims(self):
        return {w: len(v) for w, v in sorted(self.by_weight.items())}


def quillen_compare(A: CdgaPresentation, w_max):
    """Compare QA (minimal model side) with gamma_A (bar side).

    Builds the map sending a degree-1 model generator e to the class of
    the length-one bar word on its structure-map image, corrected by
    longer words into a cocycle.  Returns (ok, details).
    """
    A = augment_absolute(A)
    gam = bar_gamma(A, w_max)  # first: its connectivity check names A
    mm = relative_minimal_model(AugmentedOverN(trivial_base(), A), 1,
                                w_max)
    qa = QAColie(mm)
    if qa.dims() != {w: d for w, d in gam.dims().items() if d}:
        return False, {"reason": "dimension mismatch",
                       "qa": qa.dims(), "gamma": gam.dims()}
    bar_m = BarComplex(mm.model)
    # image of each QA generator in gamma coordinates: take the length-1
    # word [e] in the bar complex of the model, correct it into a cocycle
    # by longer words, push letters through the structure map, classify;
    # d on the longer words of a weight is eliminated once for all of it
    corrections = {}  # w -> (words, positions of the longer ones, solver)
    phi = {}
    for gidx, (w, name) in enumerate(qa.basis):
        lin = {(((name, 1),),): F(1)}
        target = bar_m.d_lin(lin)
        if target:
            if w not in corrections:
                words = bar_m.slice(0, w)
                long = [j for j, wd in enumerate(words) if len(wd) >= 2]
                cols = bar_m.d_columns(0, w)
                corrections[w] = words, long, linalg.solver(
                    [cols[j] for j in long])
            words, long, solver = corrections[w]
            sol = solver.class_coords(
                el_scale(bar_m.vector(target, 1, w), F(-1)))
            if sol is None:
                return False, {"reason": f"no cocycle correction for {name}"}
            for j, c in sol.items():
                _vec_iadd(lin, {words[long[j]]: F(1)}, c)
        pushed = map_letters(lin, lambda letter: A.substitute(
            {letter: F(1)}, mm.structure_map))
        cls = gam.hopf.classify(pushed, w)
        phi[gidx] = gam.project(cls, w)
    # weight-wise isomorphism?
    for w, gam_idxs in gam.by_weight.items():
        qa_idxs = qa.by_weight.get(w, [])
        pos = {g: k for k, g in enumerate(gam_idxs)}
        cols = [{pos[p]: c for p, c in phi[gi].items()} for gi in qa_idxs]
        if len(linalg.Echelon(cols)) != len(qa_idxs):
            return False, {"reason": f"map not bijective in weight {w}"}
    # co-Lie compatibility: gamma-cobracket of phi(e) equals phi^2 of
    # the QA cobracket of e
    def wedge_apply(pairs):
        out = {}
        for (p, q), c in pairs.items():
            for a, ca in phi[p].items():
                for b, cb in phi[q].items():
                    _wedge_add(out, a, b, c * ca * cb)
        return {k: c for k, c in out.items() if c}

    for gidx in range(len(qa.basis)):
        lhs = {}
        for p, c in phi[gidx].items():
            for (a, b), c2 in gam.cobracket[p].items():
                lhs[(a, b)] = lhs.get((a, b), F(0)) + c * c2
        lhs = {k: c for k, c in lhs.items() if c}
        rhs = wedge_apply(qa.cobracket[gidx])
        if lhs != rhs:
            return False, {
                "reason": f"cobracket mismatch at generator {qa.basis[gidx]}",
                "lhs": lhs,
                "rhs": rhs,
            }
    return True, {"qa_dims": qa.dims(), "gamma_dims": gam.dims(), "phi": phi}
