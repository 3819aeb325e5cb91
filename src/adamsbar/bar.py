"""Reduced bar construction of an Adams-graded cdga.

Words [x1|...|xm] have letters drawn from slice bases of the
augmentation ideal (positive Adams weight); cohomological degree is
-m + sum deg(xi), Adams weight is the sum of letter weights.  Since every
letter has weight >= 1, word length is bounded by the weight, and every
(degree, weight) slice is finite dimensional.

Sign conventions (fixed once, verified by the d^2 = 0 / Leibniz / Hopf
test suite): with suspended degrees ebar(x) = deg(x) - 1 and
sig_i = sum_{j<i} ebar(x_j),

  d[..] = sum_i (-1)^{sig_i} [..|d x_i|..]
        + sum_i (-1)^{sig_i + ebar(x_i)} [..|x_i x_{i+1}|..]

and the shuffle product carries the Koszul sign of the interleaving
computed from suspended degrees: each time a letter v_j of the second
word is placed before the letters u_i.. still left of the first word, the
sign flips when ebar(v_j) and ebar(u_i) + ... are both odd.
shuffle_words reads the interleavings of a pair of word lengths off a
table built once per BarComplex (interleavings): each is one gather of
u + v and, for each v_j, the number of u's letters placed before it, so
the sign of a term is the XOR of the suffix parities of u at those
counts over the odd letters of v, parities taken once per call.  Every sign
is taken from an exponent mod 2 (an exponent can be negative, and
(-1)**k is a float then), so d and the shuffle of a word carry int
coefficients over an integral presentation.  No command reads the
antipode; the tests check the antipode axiom with a word-level antipode
of their own.

Ints and Fractions.  The inner loops compute in ints wherever the
algebra is integral, and a Fraction is made only where a value leaves
for a reader.  faces reads the algebra's memoized d and products of
monomials (mono_d, mono_mul) as they are, and shuffle_lin adds the
shuffle of every pair of words into one dict, with the pair's
coefficient.  The representatives of H^0 carry a coefficient of
denominator 1 as an int.  HopfPresentation.classify is class_coords
of H^0's projector, bar.cohomology(0, w)[2], of either kind.  A weight
with no word of degree -1 (every algebra whose generators have positive
degree, the punctured lines among them) has no incoming d at H^0, and
its classes are read off a KernelCoords with no elimination, in ints
where the classified combination is integral; a generator of degree
<= 0 can give H^0 an incoming d, and then the coordinates come from an
elimination as Fractions.  product_of and coproduct_of keep that type, and the co-Lie
decomposables echelon takes the products as they come.
CoLiePresentation.project returns Fractions, and the cobracket projects
each H^0 class once, sums in ints and makes one Fraction per structure
constant, antisymmetrized by _wedge_add, the exterior-square
accumulator the Quillen comparison shares.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from . import linalg
from .cdga import CdgaPresentation, is_coh_connected

F = Fraction


def _exact(c):
    """c, an int or a Fraction, as an int when its denominator is 1."""
    return c.numerator if c.denominator == 1 else c


def _wadd(out, w, c):
    y = out.get(w, 0) + c
    if y:
        out[w] = y
    else:
        out.pop(w, None)


def _wedge_add(out, a, b, c):
    """out += c * (e_a wedge e_b) in the basis e_p wedge e_q, p < q: c at
    (a, b) if a < b, -c at (b, a) if b < a, nothing if a = b.  An entry
    that sums to 0 stays, for the caller to drop."""
    if a < b:
        out[a, b] = out.get((a, b), 0) + c
    elif b < a:
        out[b, a] = out.get((b, a), 0) - c


def map_letters(lin, f):
    """The word combination lin with each letter x replaced by the element
    f(x), letter by letter: [x1|...|xm] goes to the sum of the words
    [y1|...|ym] over the monomials yi of f(xi), weighted by their
    coefficients, and a letter sent to 0 kills its word."""
    out = {}
    for word, c in lin.items():
        partial = {(): c}
        for letter in word:
            img = f(letter)
            nxt = {}
            for pw, pc in partial.items():
                for m, mc in img.items():
                    _wadd(nxt, pw + (m,), pc * mc)
            partial = nxt
            if not partial:
                break
        for pw, pc in partial.items():
            _wadd(out, pw, pc)
    return out


class BarComplex(linalg.SliceComplex):
    """The bar complex as a SliceComplex: the keys of slice (n, w) are its
    words, sorted, grouped by degree once per weight, each weight's groups
    built from those of the lower weights.  d does not lengthen
    a word, so the words of length at most m span a subcomplex, the
    truncation at m; filtered_h0 with level len reads the H^0 dims of
    every truncation off this one complex."""

    def __init__(self, A: CdgaPresentation):
        super().__init__()
        self.A = A
        self._letters = {}
        self._interleavings = {}

    # ---- enumeration ---------------------------------------------------

    def letters(self, r):
        """The monomial letters of Adams weight r >= 1, read off
        A.by_degree(r) in one pass, in no set order."""
        if r not in self._letters:
            self._letters[r] = [m for group in self.A.by_degree(r).values()
                                for m in group]
        return self._letters[r]

    def group_keys(self, w):
        """{n: the words of weight w and degree n, sorted}.  A word is its
        first letter followed by a word of the remaining weight, so the
        first letters of every weight are walked in sorted order, and each
        is put before the already sorted groups of by_degree(w - r): each
        group comes out sorted, and each word's degree is the sum of its
        first letter's ebar and its tail's degree."""
        if w == 0:
            return {0: [()]}
        groups = {}
        for letter, r in sorted((letter, r) for r in range(1, w + 1)
                                for letter in self.letters(r)):
            ebar = self._ebar(letter)
            for n, tails in self.by_degree(w - r).items():
                groups.setdefault(n + ebar, []).extend(
                    (letter,) + tail for tail in tails)
        return groups

    # ---- structure maps ------------------------------------------------

    def _ebar(self, m):
        return self.A.mono_bidegree(m)[0] - 1

    def faces(self, word):
        """The terms of d of a word, as a list of (i, k, word', c): the k
        letters from position i of the word replaced by one monomial, d of
        letter i for k = 1 and the product of letters i and i + 1 for
        k = 2, with coefficient c.  A letter may be the unit (ebar -1 and
        d 1 = 0), as in the complex of the simplicial approximation that
        the tests keep as an oracle.  The coefficients
        are the algebra's memoized d and products of monomials, read
        without a copy."""
        A = self.A
        out = []
        sig = 0
        last = len(word) - 1
        for i, letter in enumerate(word):
            for lm, c in A.mono_d(letter).items():
                out.append((i, 1, word[:i] + (lm,) + word[i + 1:],
                            -c if sig % 2 else c))
            ebar = A.mono_bidegree(letter)[0] - 1
            if i < last:
                s = sig + ebar
                for lm, c in A.mono_mul(letter, word[i + 1]).items():
                    out.append((i, 2, word[:i] + (lm,) + word[i + 2:],
                                -c if s % 2 else c))
            sig += ebar
        return out

    def d_word(self, word):
        out = {}
        for _, _, nw, c in self.faces(word):
            _wadd(out, nw, c)
        return out

    def d_lin(self, lin):
        out = {}
        for word, c in lin.items():
            for nw, nc in self.d_word(word).items():
                _wadd(out, nw, c * nc)
        return out

    def d_key(self, n, w, word):
        return self.d_word(word)

    def interleavings(self, m, n):
        """The shuffles of a length-m word u with a length-n word v, m and
        n >= 1, built once per (m, n): for each set of positions of u's
        letters, in combinations order, (gather, before), gather an
        itemgetter that takes the shuffled word out of u + v and before[j]
        the number of u's letters placed before v_j."""
        key = m, n
        if key not in self._interleavings:
            table = self._interleavings[key] = []
            for upos in itertools.combinations(range(m + n), m):
                src, before, i = [], [], 0
                for p in range(m + n):
                    if i < m and upos[i] == p:
                        src.append(i)
                        i += 1
                    else:
                        src.append(m + len(before))
                        before.append(i)
                table.append((operator.itemgetter(*src), before))
        return self._interleavings[key]

    def shuffle_words(self, u, v, out=None, c=1):
        """out += c * (the shuffle of the words u and v), in place, and
        return out (a fresh dict when out is None).  Each term is one
        gather of interleavings(len(u), len(v)), and its sign flips once
        for each odd v_j placed before an odd sum of u's letters."""
        if out is None:
            out = {}
        if not u or not v:
            _wadd(out, u + v, c)
            return out
        m, n = len(u), len(v)
        # suf[i]: parity of ebar(u_i) + ... + ebar(u_{m-1})
        suf = [0] * (m + 1)
        for i in range(m - 1, -1, -1):
            suf[i] = (suf[i + 1] + self._ebar(u[i])) % 2
        odd = [j for j, letter in enumerate(v) if self._ebar(letter) % 2]
        uv = u + v
        coeff = (c, -c)
        for gather, before in self.interleavings(m, n):
            sign = 0
            for j in odd:
                sign ^= suf[before[j]]
            _wadd(out, gather(uv), coeff[sign])
        return out

    def shuffle_lin(self, a, b):
        """The shuffle product of two word combinations, every pair of
        words shuffled into one dict."""
        out = {}
        for u, cu in a.items():
            for v, cv in b.items():
                self.shuffle_words(u, v, out, cu * cv)
        return out

    def coprod_word(self, word):
        """Deconcatenation: list of (prefix, suffix) pairs (coefficient 1)."""
        return [(word[:i], word[i:]) for i in range(len(word) + 1)]

    def vector(self, lin, n, w):
        idx = self.index(n, w)
        return {idx[word]: c for word, c in lin.items()}

    def lin(self, vec, n, w):
        basis = self.slice(n, w)
        return {basis[i]: c for i, c in vec.items() if c}


class HopfPresentation:
    """Weight-truncated H^0(Bbar(A)) with its product and coproduct.  Only
    the representatives are cached: each structure constant is computed
    where it is read, and dims() reads none.

    product_of(w1, i, w2, j): dict {k: coeff} over weight-(w1+w2) classes,
    the class of the shuffle of the two representatives, for any ordered
    pair.
    coproduct_of(w, k): dict {(w1, i, j): coeff} meaning
    class_i(w1) (x) class_j(w - w1), including the w1 = 0 and w1 = w
    (grouplike) parts.  The coefficients of both are classify's, ints or
    Fractions, and the grouplike ones the int 1.  The antipode is not
    built: it is determined by the product and coproduct (the tests check
    the antipode axiom against a word-level antipode).

    The grouplike terms are exact by construction: every letter has
    weight >= 1, so the only splits of prefix weight 0 and w are
    ([], word) and (word, []); they give exactly 1 (x) x_k and x_k (x) 1,
    with coefficient 1.
    """

    def __init__(self, A: CdgaPresentation, w_max):
        self.A = A
        self.w_max = w_max
        self.bar = BarComplex(A)
        self._reps = {}

    def dims(self):
        return {w: self.bar.cohomology(0, w)[0] for w in range(self.w_max + 1)}

    def rep_lins(self, w):
        """The weight-w representatives as word combinations, built once,
        with ints for coefficients of denominator 1."""
        if w not in self._reps:
            self._reps[w] = [
                {word: _exact(c) for word, c in self.bar.lin(v, 0, w).items()}
                for v in self.bar.cohomology(0, w)[1]]
        return self._reps[w]

    def classify(self, lin, w):
        """Class coordinates of a degree-0 weight-w cocycle combination, in
        class order: the projector's class_coords, Fractions off an
        elimination and lin's own int or Fraction coefficients off a
        KernelCoords; a combination outside the span raises."""
        coords = self.bar.cohomology(0, w)[2].class_coords(
            self.bar.vector(lin, 0, w))
        if coords is None:
            raise ValueError("vector outside the span of reps + image")
        return coords

    def product_of(self, w1, i, w2, j):
        """The product of the i-th class of weight w1 and the j-th of w2."""
        prod = self.bar.shuffle_lin(self.rep_lins(w1)[i], self.rep_lins(w2)[j])
        return self.classify(prod, w1 + w2)

    def coproduct_of(self, w, k):
        """The coproduct of the k-th class of weight w."""
        bar = self.bar
        rep = self.rep_lins(w)[k]
        out = {}
        # split the deconcatenation by prefix weight; the splits of prefix
        # weight 0 and w are only recorded, to keep the order in which the
        # weights first occur
        by_weight = {0: None}
        for word, c in rep.items():
            w1 = 0
            for u, v in bar.coprod_word(word)[1:-1]:
                w1 += self.A.mono_bidegree(u[-1])[1]
                _wadd(by_weight.setdefault(w1, {}), (u, v), c)
            by_weight.setdefault(w, None)
        for w1, pairs in by_weight.items():
            if w1 == 0:
                out[(0, 0, k)] = 1
                continue
            if w1 == w:
                out[(w, k, 0)] = 1
                continue
            w2 = w - w1
            # expand over the suffix word basis; each prefix coefficient
            # vector is then a cocycle (no negative bar degrees for
            # connected A)
            suffix_basis = {}
            for (u, v), c in pairs.items():
                suffix_basis.setdefault(v, {})
                _wadd(suffix_basis[v], u, c)
            # classify prefixes, collect (class_i, suffix) coeffs
            suff_by_class = {}
            for v, ulin in suffix_basis.items():
                ucls = self.classify(ulin, w1)
                for i, c in ucls.items():
                    suff_by_class.setdefault(i, {})
                    _wadd(suff_by_class[i], v, c)
            for i, vlin in suff_by_class.items():
                vcls = self.classify(vlin, w2)
                for j, c in vcls.items():
                    out[(w1, i, j)] = out.get((w1, i, j), 0) + c
        return {k2: c for k2, c in out.items() if c}


def require_connected(A: CdgaPresentation, w_max):
    """H^0 of A's bar construction needs A connected up to weight w_max."""
    ok, wit = is_coh_connected(A, adams_max=w_max)
    if not ok:
        raise ValueError(f"algebra {A.name} not cohomologically connected: {wit}")


def h0_hopf(A: CdgaPresentation, w_max):
    require_connected(A, w_max)
    return HopfPresentation(A, w_max)


class CoLiePresentation:
    """Indecomposables gamma(w) of a HopfPresentation with their cobracket.

    basis: list of (w, j) pairs, class j of weight w; index in this list
    is the global generator index.  cobracket[g]: dict {(p, q): coeff} with
    p < q global indices, the coefficient of gen_p wedge gen_q, a
    Fraction; the table is built on its first read, and builds the
    coproduct of the generator classes only (HopfPresentation.coproduct_of).
    Each H^0 class a coproduct term reads is projected onto gamma once
    for the whole table.

    In each weight w the products of each generator (w1, i) of weight
    w1 <= w/2 with every class j of weight w - w1 go into one Echelon as
    they are made (HopfPresentation.product_of), and none is kept.  They
    span the decomposables: the generators of the lower weights span a
    complement of the decomposables there, so by graded Nakayama a class
    a of weight p <= w - p is g + sum g' y, g of generators of weight p
    and each g' a generator of lower weight, and a b = g b + sum g' (y b)
    is a sum of generators of weight <= w/2 times classes.  When j is a
    generator too, the pair is made once, from the generator of the
    lower global index: representatives have bar degree 0, so the Koszul
    sign of every shuffle u * v against v * u is +1 and the two products
    are the same chain.  The generators are
    the classes e_j at the echelon's non-pivot columns j.  The
    projection is exact and read off the same echelon: the residue of x
    against the rows differs from x by decomposables and is 0 at every
    pivot, so it is x mod decomposables, written in the generators.  The
    pivots and that residue are unique, whatever the form of the rows, so
    neither the order of the products nor a repeated one changes them.
    """

    def __init__(self, hopf: HopfPresentation):
        self.hopf = hopf
        self.basis = []
        self.by_weight = {}
        self._gamma = {}  # w -> (decomposables, non-pivot column -> index)
        dims = hopf.dims()
        for w in range(1, hopf.w_max + 1):
            decomp = linalg.Echelon()
            for w1 in range(1, w // 2 + 1):
                w2 = w - w1
                gens2 = self._gamma[w2][1]
                for i, g in self._gamma[w1][1].items():
                    for j in range(dims[w2]):
                        # skip a generator j of lower global index
                        if gens2.get(j, g) >= g:
                            decomp.add(hopf.product_of(w1, i, w2, j))
            cols = {}
            for j in decomp.non_pivots(dims[w]):
                cols[j] = len(self.basis)
                self.basis.append((w, j))
            self.by_weight[w] = list(cols.values())
            self._gamma[w] = (decomp, cols)

    def dims(self):
        return {w: len(self.by_weight[w]) for w in sorted(self.by_weight)}

    @functools.cached_property
    def cobracket(self):
        projected = {}  # (w, i) -> gamma coordinates of class i of weight w

        def gamma_of(w, i):
            if (w, i) not in projected:
                projected[w, i] = {p: _exact(c) for p, c in
                                   self.project({i: 1}, w).items()}
            return projected[w, i]

        return {g: self._cobracket(g, gamma_of)
                for g in range(len(self.basis))}

    def project(self, class_vec, w):
        """gamma coordinates (global indices) of a weight-w H^0_+ vector."""
        decomp, cols = self._gamma[w]
        residue = decomp.reduce(class_vec)
        return {cols[j]: c for j, c in sorted(residue.items())}

    def _cobracket(self, g, gamma_of):
        w, k = self.basis[g]
        # reduced coproduct of class k, projected factor-wise to gamma
        tensor = {}
        for (w1, i, j), c in self.hopf.coproduct_of(w, k).items():
            w2 = w - w1
            if w1 == 0 or w2 == 0:
                continue
            for p, cp in gamma_of(w1, i).items():
                for q, cq in gamma_of(w2, j).items():
                    _wadd(tensor, (p, q), c * cp * cq)
        # antisymmetrize; the orientation (q before p) is fixed so that the
        # cobracket matches the differential of the 1-minimal model under
        # the comparison isomorphism
        out = {}
        for (p, q), c in tensor.items():
            _wedge_add(out, q, p, c)
        return {pq: F(c) for pq, c in out.items() if c}


def gamma(A: CdgaPresentation, w_max):
    return CoLiePresentation(h0_hopf(A, w_max))


def polynomial_dims(gamma_dims, w_max):
    """dims of the free graded-commutative algebra on gamma generators.

    All gamma generators sit in bar degree 0, so this is a plain symmetric
    algebra: coefficient of t^w in prod_w (1 - t^w)^(-gamma_w).
    """
    coeffs = [1] + [0] * w_max
    for w, gdim in gamma_dims.items():
        for _ in range(gdim):
            # multiply by 1/(1 - t^w)
            for i in range(w, w_max + 1):
                coeffs[i] += coeffs[i - w]
    return {w: coeffs[w] for w in range(w_max + 1)}
