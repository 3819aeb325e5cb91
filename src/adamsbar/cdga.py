"""Adams-graded cdgas over Q, finitely presented.

A generator is FREE (polynomial, with odd squares zero) or in the one
TABLE (GeneratorSpec.table): a product of two table generators reduces
through an explicit multiplication table, unlisted products being zero,
so a monomial has at most one table factor.  The Adams weight of every
generator is >= 1, so the weight-0 part is Q*1 by construction and every
bidegree slice is finite dimensional.

Monomials are tuples ((name, exponent), ...) sorted by generator name;
elements are dicts {monomial: coefficient}.  A coefficient is an int or
a Fraction, and the two mix in one arithmetic: the structure maps
(products, the differential, substitution) keep ints wherever the
presentation's coefficients are integral, as they are after parsing
whenever the denominator is 1, and divide nowhere.  linalg turns every
value it returns into a Fraction.  The differential is stored on
generators only and extended by Leibniz on demand.

A presentation is fixed when it is built: the constructor takes the
generators, differential, products and augmentation, and afterwards only
set_product and adjoin change it.  Three plain dicts memoize the
structure maps per monomial, filled on first read: the bidegree of a
monomial, the product of a pair of monomials (mono_mul) and d of a
monomial (mono_d).  multiply and apply_d read them, and through these so
do the bar, relative and cell layers; a reader never changes a memoized
dict.  The structure maps add their terms into one fresh dict each, with
linalg's in-place sum (an int stays an int, and keys keep the order in
which they first occur), so multiply and apply_d return fresh dicts and
never write through a memo.
set_product clears the product and d memos (d of a monomial is a sum of
products).  adjoin clears neither: a new generator changes neither the
product nor the d of a monomial that does not contain it.

As a SliceComplex, the algebra finds the monomials of a weight in one
walk, each partial monomial branching straight to the later generators
whose weight fits, and groups them by degree (by_degree).  adjoin
forgets the cached slices and groupings of the new generator's weight
and above, the only ones that gain monomials, and the walk's generator
order; the slices below it are kept.

Whether a presentation is a cdga is the one check structure_failures,
which validate and the cli's input checks (cli._flat) read.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from . import linalg
from .linalg import _vec_iadd

F = Fraction

UNIT = ()  # the empty monomial


class GeneratorSpec:
    """A generator's name, cohomological degree, Adams weight and whether
    it is in the multiplication table.  A spec is a value: two are equal,
    and hash alike, exactly when all four fields are, which is how
    base_mismatches compares a base generator with the total's."""

    __slots__ = ("name", "coh", "adams", "table")

    def __init__(self, name, coh, adams, table=False):
        self.name = name
        self.coh = coh
        self.adams = adams
        self.table = table

    def _fields(self):
        return self.name, self.coh, self.adams, self.table

    def __eq__(self, other):
        if type(other) is not GeneratorSpec:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class CdgaError(Exception):
    pass


def el_gen(name):
    return {((name, 1),): 1}


def el_scalar(c):
    return {UNIT: c} if c else {}


def el_add(a, b, c=1):
    out = dict(a)
    _vec_iadd(out, b, c)
    return out


def el_scale(a, c):
    if not c:
        return {}
    return {m: c * x for m, x in a.items()}


def mono_factors(m):
    """The generator names of a monomial in order, each repeated by its
    exponent: x^2*y -> [x, x, y]."""
    out = []
    for name, e in m:
        out.extend([name] * e)
    return out


class CdgaPresentation(linalg.SliceComplex):
    """The cdga as a SliceComplex: the keys of slice (n, r) are the
    monomials of A^n(r), sorted, grouped by degree once per weight."""

    def __init__(self, name, generators, differential=None, products=None,
                 augmentation=None):
        super().__init__()
        self.name = name
        self.generators = list(generators)
        self.gen = {g.name: g for g in self.generators}
        if len(self.gen) != len(self.generators):
            raise CdgaError(f"duplicate generator names in {name}")
        self._bidegree = {}  # monomial -> (degree, weight)
        self._mul = {}  # (monomial, monomial) -> product element
        self._mono_d = {}  # monomial -> d of the monomial
        self._walk = None  # group_keys' generator order, until adjoin
        for g in self.generators:
            if g.adams < 1:
                raise CdgaError(f"generator {g.name} has Adams weight {g.adams} < 1")
        self.differential = dict(differential or {})
        # table products, keyed by name-sorted pair
        self.products = {}
        for (a, b), val in (products or {}).items():
            self.set_product(a, b, val)
        # the aug lines as given; relative.AugmentedOverN reads every
        # generator outside the base as a fiber generator augmented to 0
        self.augmentation = dict(augmentation or {})

    def adjoin(self, spec: GeneratorSpec, d=None, aug=None):
        """Add the generator spec, with differential d and augmentation
        value aug (absent: fixed by the augmentation), in place.  Only the
        slices of weight >= spec.adams gain monomials, so only they and
        the groupings of those weights are forgotten."""
        if spec.name in self.gen:
            raise CdgaError(f"generator {spec.name} already in {self.name}")
        self.generators.append(spec)
        self.gen[spec.name] = spec
        if d:
            self.differential[spec.name] = d
        if aug is not None:
            self.augmentation[spec.name] = aug
        self._walk = None
        self.forget(spec.adams)

    def set_product(self, a, b, val):
        ga, gb = self.gen[a], self.gen[b]
        if not (ga.table and gb.table):
            raise CdgaError(f"product {a}*{b} declared outside the table")
        self._mul.clear()
        self._mono_d.clear()
        if (a, b) <= (b, a):
            self.products[(a, b)] = val
        else:
            sign = (-1) ** (ga.coh * gb.coh % 2)
            self.products[(b, a)] = el_scale(val, sign)

    # ---- degrees -------------------------------------------------------

    def mono_bidegree(self, m):
        bd = self._bidegree.get(m)
        if bd is None:
            n = r = 0
            for name, e in m:
                g = self.gen[name]
                n += e * g.coh
                r += e * g.adams
            bd = self._bidegree[m] = (n, r)
        return bd

    def el_bidegree(self, a):
        """Bidegree of a homogeneous element (None for 0, error if mixed)."""
        degs = {self.mono_bidegree(m) for m in a}
        if not degs:
            return None
        if len(degs) > 1:
            raise CdgaError(f"inhomogeneous element: bidegrees {sorted(degs)}")
        return degs.pop()

    # ---- multiplication ------------------------------------------------

    def _sort_factors(self, factors):
        """Insertion-sort factor names, returning (sorted, Koszul sign)."""
        fs = list(factors)
        sign = 1
        for i in range(1, len(fs)):
            j = i
            while j > 0 and fs[j - 1] > fs[j]:
                da = self.gen[fs[j - 1]].coh
                db = self.gen[fs[j]].coh
                if (da % 2) and (db % 2):
                    sign = -sign
                fs[j - 1], fs[j] = fs[j], fs[j - 1]
                j -= 1
        return fs, sign

    def _assemble(self, fs):
        """Sorted factor list -> Element (handles table reduction)."""
        for i in range(len(fs) - 1):
            if fs[i] == fs[i + 1] and self.gen[fs[i]].coh % 2:
                return {}
        # reduce the first two table factors (they need not be adjacent
        # after name-sorting)
        for i in range(len(fs)):
            gi = self.gen[fs[i]]
            if not gi.table:
                continue
            for j in range(i + 1, len(fs)):
                gj = self.gen[fs[j]]
                if not gj.table:
                    continue
                # commute fs[j] leftwards next to fs[i]
                sign = 1
                for k in range(i + 1, j):
                    if (gj.coh % 2) and (self.gen[fs[k]].coh % 2):
                        sign = -sign
                a, b = fs[i], fs[j]
                val = self.products.get((a, b) if a <= b else (b, a), {})
                if a > b:
                    val = el_scale(val, (-1) ** (gi.coh * gj.coh % 2))
                mid = fs[i + 1:j] + fs[j + 1:]
                out = {}
                for vm, vc in val.items():
                    rest = fs[:i] + mono_factors(vm) + mid
                    sorted_rest, s = self._sort_factors(rest)
                    _vec_iadd(out, self._assemble(sorted_rest), vc * s * sign)
                return out
        mono = []
        for name in fs:
            if mono and mono[-1][0] == name:
                mono[-1] = (name, mono[-1][1] + 1)
            else:
                mono.append((name, 1))
        return {tuple(mono): 1}

    def mono_mul(self, m1, m2):
        """m1 * m2, memoized: the caller must not change the result."""
        key = (m1, m2)
        val = self._mul.get(key)
        if val is None:
            fs, sign = self._sort_factors(mono_factors(m1) + mono_factors(m2))
            val = self._mul[key] = el_scale(self._assemble(fs), sign)
        return val

    def multiply(self, a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                _vec_iadd(out, self.mono_mul(m1, m2), c1 * c2)
        return out

    # ---- differential --------------------------------------------------

    def mono_d(self, m):
        """d of the monomial m by Leibniz, memoized: the caller must not
        change the result."""
        val = self._mono_d.get(m)
        if val is None:
            val = {}
            fs = mono_factors(m)
            sgn = 1
            for i, name in enumerate(fs):
                dg = self.differential.get(name)
                if dg:
                    term = el_scalar(1)
                    for pre in fs[:i]:
                        term = self.multiply(term, el_gen(pre))
                    term = self.multiply(term, dg)
                    for post in fs[i + 1:]:
                        term = self.multiply(term, el_gen(post))
                    _vec_iadd(val, term, sgn)
                if self.gen[name].coh % 2:
                    sgn = -sgn
            self._mono_d[m] = val
        return val

    def apply_d(self, a):
        out = {}
        for m, c in a.items():
            _vec_iadd(out, self.mono_d(m), c)
        return out

    def substitute(self, a, gen_map):
        """Replace each generator of a by its image in gen_map, multiplying
        the images in this algebra factor by factor.

        Generators absent from gen_map are fixed; an explicit empty image
        kills the generator.  With gen_map = relative.AugmentedOverN's eps,
        which kills exactly the fiber generators, this applies the
        augmentation.
        """
        out = {}
        for m, c in a.items():
            term = el_scalar(1)
            for name in mono_factors(m):
                term = self.multiply(term, gen_map.get(name, el_gen(name)))
                if not term:
                    break
            _vec_iadd(out, term, c)
        return out

    # ---- slice bases ---------------------------------------------------

    def group_keys(self, r):
        """{n: the monomial basis of A^n(r), sorted}: every monomial of
        weight r is found in one walk on an explicit stack.  A partial
        monomial, its factors in name order, branches straight to the
        later generators whose weight fits, read off the name-sorted
        positions of each weight, so no branch skips a generator.  The
        name order and the positions are built once per generator set."""
        if r <= 0:
            return {0: [UNIT]} if r == 0 else {}
        if self._walk is None:
            gens = sorted(self.generators, key=lambda g: g.name)
            at = {}  # weight -> the positions in gens of its generators
            for k, g in enumerate(gens):
                at.setdefault(g.adams, []).append(k)
            self._walk = gens, sorted(at), at
        gens, weights, at = self._walk
        groups = {}
        stack = [(0, (), 0, 0, False)]
        while stack:
            idx, mono, coh, adams, has_table = stack.pop()
            if adams == r:
                groups.setdefault(coh, []).append(mono)
                continue
            room = r - adams
            for w in weights:
                if w > room:
                    break
                ks = at[w]
                for k in ks[bisect_left(ks, idx):]:
                    g = gens[k]
                    if g.table:
                        if not has_table:
                            stack.append((k + 1, mono + ((g.name, 1),),
                                          coh + g.coh, adams + w, True))
                        continue
                    # an odd generator squares to 0
                    for e in range(1, 2 if g.coh % 2 else room // w + 1):
                        stack.append((k + 1, mono + ((g.name, e),),
                                      coh + e * g.coh, adams + e * w,
                                      has_table))
        return {n: sorted(g) for n, g in groups.items()}

    def d_key(self, n, r, m):
        return self.mono_d(m)


# ---- validation --------------------------------------------------------


def bidegree_failures(A: CdgaPresentation, expected=None, label=str):
    """One message per (key, element of A, bidegree) of expected whose
    element is nonzero and inhomogeneous or not of that bidegree, named
    label(key), built only for a failure.  By default expected is each
    differential, augmentation value and table product of A: d(g) must
    have bidegree (deg + 1, wt), aug(g) that of g, and g*h the sum of
    theirs.  CellModule.check passes its entries of d."""
    if expected is None:
        expected = []
        for g in A.generators:
            expected.append((f"d({g.name})", A.differential.get(g.name),
                             (g.coh + 1, g.adams)))
            expected.append((f"aug({g.name})", A.augmentation.get(g.name),
                             (g.coh, g.adams)))
        for (a, b), val in A.products.items():
            ga, gb = A.gen[a], A.gen[b]
            expected.append((f"{a}*{b}", val,
                             (ga.coh + gb.coh, ga.adams + gb.adams)))
    failures = []
    for key, val, want in expected:
        if not val:
            continue
        try:
            bd = A.el_bidegree(val)
        except CdgaError as e:
            failures.append(f"{label(key)} inhomogeneous: {e}")
            continue
        if bd != want:
            failures.append(f"{label(key)} has bidegree {bd}, "
                            f"expected {want}")
    return failures


def check_bidegrees(A: CdgaPresentation):
    """Raise CdgaError naming each differential, augmentation value or
    table product of the wrong bidegree; every slice computation assumes
    they are homogeneous of the right bidegree."""
    failures = bidegree_failures(A)
    if failures:
        raise CdgaError(f"{A.name}: " + "; ".join(failures))


def d_squared_failures(A: CdgaPresentation):
    """One message per generator g with d(d(g)) != 0, in generator order."""
    return [f"d^2({g.name}) != 0" for g in A.generators
            if A.differential.get(g.name)
            and A.apply_d(A.differential[g.name])]


def structure_failures(A: CdgaPresentation):
    """The presentation is a cdga: d_squared_failures(A), then one message
    per triple (g, h, k) of table generators with (gh)k != g(hk) and per
    pair (g, h) with d(gh) != d(g)h + (-1)^|g| g d(h), in generator order,
    each pair's triples before the pair.  A table product is 0 unless
    listed, so a table with no product and no d passes unwalked."""
    failures = d_squared_failures(A)
    table = [g for g in A.generators if g.table]
    if not table or not (A.products or any(A.differential.values())):
        return failures
    for g in table:
        for h in table:
            gh = A.multiply(el_gen(g.name), el_gen(h.name))
            for k in table:
                if el_add(A.multiply(gh, el_gen(k.name)), A.multiply(
                        el_gen(g.name),
                        A.multiply(el_gen(h.name), el_gen(k.name))), -1):
                    failures.append("table not associative on "
                                    f"({g.name},{h.name},{k.name})")
            dg = A.differential.get(g.name, {})
            dh = A.differential.get(h.name, {})
            if el_add(A.apply_d(gh), el_add(
                    A.multiply(dg, el_gen(h.name)),
                    A.multiply(el_gen(g.name), dh), (-1) ** g.coh), -1):
                failures.append(
                    f"Leibniz fails on table pair ({g.name},{h.name})")
    return failures


def augmentation_failures(A: CdgaPresentation, aug):
    """One message per generator g that the augmentation aug maps, in
    generator order, where aug is not a chain map: d(aug g) != aug(d g)."""
    return [f"augmentation not a chain map at {g.name}"
            for g in A.generators if g.name in aug and el_add(
                A.apply_d(aug[g.name]),
                A.substitute(A.differential.get(g.name, {}), aug), -1)]


def base_mismatches(N: CdgaPresentation, A: CdgaPresentation):
    """One message per generator of the base N, in N's order, that A does
    not declare identically, whose differential in A is not its own, or
    that A's augmentation does not fix: the first of these that holds.
    Where every generator passes, one message per pair of them, in N's
    order, whose product in A is not N's, so that N is a subalgebra."""
    failures = []
    for g in N.generators:
        if A.gen.get(g.name) != g:
            failures.append(f"base generator {g.name} not declared "
                            f"identically in {A.name}")
        elif A.differential.get(g.name, {}) != N.differential.get(g.name, {}):
            failures.append(f"differential of base generator {g.name} differs")
        elif g.name in A.augmentation:
            failures.append(f"base generator {g.name} must be fixed by the "
                            "augmentation")
    if failures:
        return failures
    for i, g in enumerate(N.generators):
        for h in N.generators[i:]:
            gh = el_gen(g.name), el_gen(h.name)
            if A.multiply(*gh) != N.multiply(*gh):
                failures.append(
                    f"product {g.name}*{h.name} of base generators differs")
    return failures


def validate(A: CdgaPresentation):
    """Check the presentation axioms; returns (ok, list of failure strings)."""
    failures = (bidegree_failures(A) + structure_failures(A)
                + augmentation_failures(A, A.augmentation))
    return (not failures), failures


def is_coh_connected(A: CdgaPresentation, adams_max):
    """H^n(r) = 0 for n <= 0 and 1 <= r <= adams_max, H^0(0) = Q.

    A monomial of weight r has 1 to r factors (every generator has
    weight >= 1), so its degree is at least min(low, r * low) for the
    lowest generator degree low, and only the degrees from there to 0
    need checking: none where every generator has degree >= 1."""
    low = min((g.coh for g in A.generators), default=1)
    witnesses = []
    for r in range(1, adams_max + 1):
        for n in range(min(low, r * low), 1):
            dim = A.cohomology(n, r)[0]
            if dim:
                witnesses.append((n, r, dim))
    return (not witnesses), witnesses
