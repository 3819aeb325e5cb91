"""Structure-constant level checks of the Hopf axioms on H^0(Bbar(A)).

Everything lives in bar degree 0, so no Koszul signs appear in these
identities; products are plain commutative and tensors unsigned.

The structure constants are read once per h into two tables (tables(h):
the product of every ordered pair, the unit included, and the coproduct
of every class), which all_axioms hands to each check; a check called on
its own reads them itself.  Every ordered product is classified on its
own, so product_commutative tests something: nothing stores one order of
a pair as the other.

The checks read h.w_max, h.dims(), h.product_of(w1, i, w2, j) and
h.coproduct_of(w, k); antipode_axiom also reads h.bar, h.rep_lins and
h.classify, since the antipode of a class is classified here from the
word-level antipode of its representative.
"""

from fractions import Fraction

F = Fraction


def _add(out, k, c):
    y = out.get(k, F(0)) + c
    if y:
        out[k] = y
    else:
        out.pop(k, None)


def tables(h):
    """(product, coproduct) of h: product[(w1, i, w2, j)] for every ordered
    pair of classes with w1 + w2 <= h.w_max, and coproduct[(w, k)] for
    every class, each read once."""
    wmax = h.w_max
    product = {(w1, i, w2, j): h.product_of(w1, i, w2, j)
               for w1 in range(wmax + 1) for w2 in range(wmax + 1 - w1)
               for i in range(h.dims()[w1])
               for j in range(h.dims()[w2])}
    coproduct = {(w, k): h.coproduct_of(w, k) for w in range(wmax + 1)
                 for k in range(h.dims()[w])}
    return product, coproduct


def product_commutative(h, t=None):
    product, _ = t or tables(h)
    for (w1, i, w2, j), val in product.items():
        if product[(w2, j, w1, i)] != val:
            return False, (w1, i, w2, j)
    return True, None


def product_associative(h, t=None):
    product, _ = t or tables(h)
    wmax = h.w_max
    for w1 in range(wmax + 1):
        for w2 in range(wmax + 1 - w1):
            for w3 in range(wmax + 1 - w1 - w2):
                for i in range(h.dims()[w1]):
                    for j in range(h.dims()[w2]):
                        for k in range(h.dims()[w3]):
                            lhs = {}
                            for m, c in product[(w1, i, w2, j)].items():
                                for n, c2 in product[(w1 + w2, m, w3, k)].items():
                                    _add(lhs, n, c * c2)
                            rhs = {}
                            for m, c in product[(w2, j, w3, k)].items():
                                for n, c2 in product[(w1, i, w2 + w3, m)].items():
                                    _add(rhs, n, c * c2)
                            if lhs != rhs:
                                return False, (w1, i, w2, j, w3, k)
    return True, None


def counit_laws(h, t=None):
    _, coproduct = t or tables(h)
    for (w, k), cop in coproduct.items():
        left = {j: c for (w1, i, j), c in cop.items() if w1 == 0}
        right = {i: c for (w1, i, j), c in cop.items() if w1 == w}
        if left != {k: F(1)} or right != {k: F(1)}:
            return False, (w, k)
    return True, None


def coassociative(h, t=None):
    _, coproduct = t or tables(h)
    for (w, k), cop in coproduct.items():
        lhs = {}
        for (w1, i, j), c in cop.items():
            # apply coproduct to the left factor (weight w1, class i)
            for (wa, a, b), c2 in coproduct[(w1, i)].items():
                _add(lhs, (wa, a, w1 - wa, b, w - w1, j), c * c2)
        rhs = {}
        for (w1, i, j), c in cop.items():
            for (wb, a, b), c2 in coproduct[(w - w1, j)].items():
                _add(rhs, (w1, i, wb, a, w - w1 - wb, b), c * c2)
        if lhs != rhs:
            return False, (w, k)
    return True, None


def coproduct_algebra_map(h, t=None):
    product, coproduct = t or tables(h)
    wmax = h.w_max
    for w1 in range(wmax + 1):
        for w2 in range(wmax + 1 - w1):
            w = w1 + w2
            for i in range(h.dims()[w1]):
                for j in range(h.dims()[w2]):
                    lhs = {}
                    for m, c in product[(w1, i, w2, j)].items():
                        for (wa, a, b), c2 in coproduct[(w, m)].items():
                            _add(lhs, (wa, a, w - wa, b), c * c2)
                    rhs = {}
                    for (wa, a, b), c in coproduct[(w1, i)].items():
                        for (wc, e, f), c2 in coproduct[(w2, j)].items():
                            for m, c3 in product[(wa, a, wc, e)].items():
                                for n, c4 in product[
                                    (w1 - wa, b, w2 - wc, f)
                                ].items():
                                    _add(
                                        rhs,
                                        (wa + wc, m, w - wa - wc, n),
                                        c * c2 * c3 * c4,
                                    )
                    if lhs != rhs:
                        return False, (w1, i, w2, j)
    return True, None


def antipode_word(bar, word):
    """The antipode of a bar word [x1|...|xm]: the reversed word with sign
    (-1)^(m + sum_{i<j} ebar_i ebar_j), ebar the suspended degree."""
    m = len(word)
    eb = [bar.A.mono_bidegree(x)[0] - 1 for x in word]
    s = sum(eb[i] * eb[j] for i in range(m) for j in range(i + 1, m))
    return {tuple(reversed(word)): -1 if (m + s) % 2 else 1}


def antipode_axiom(h, word_antipode=antipode_word, t=None):
    """m (S (x) id) Delta = eta eps on every class, S of a class being
    word_antipode applied to its representative, classified by h."""
    product, coproduct = t or tables(h)
    antipode = {}
    for w in range(h.w_max + 1):
        for k, rep in enumerate(h.rep_lins(w)):
            lin = {}
            for word, c in rep.items():
                for nw, nc in word_antipode(h.bar, word).items():
                    _add(lin, nw, c * nc)
            antipode[(w, k)] = h.classify(lin, w)
    for (w, k), cop in coproduct.items():
        acc = {}
        for (w1, i, j), c in cop.items():
            for i2, c2 in antipode[(w1, i)].items():
                for n, c3 in product[(w1, i2, w - w1, j)].items():
                    _add(acc, n, c * c2 * c3)
        expected = {0: F(1)} if w == 0 else {}
        if acc != expected:
            return False, (w, k)
    return True, None


def all_axioms(h, t=None):
    t = t or tables(h)
    for name, check in [
        ("commutative", product_commutative),
        ("associative", product_associative),
        ("counit", counit_laws),
        ("coassociative", coassociative),
        ("algebra_map", coproduct_algebra_map),
        ("antipode", antipode_axiom),
    ]:
        ok, wit = check(h, t=t)
        if not ok:
            return False, (name, wit)
    return True, None


def co_jacobi(colie):
    """Cyclic sum of (delta (x) id) delta vanishes (all degree 0)."""
    for g in range(len(colie.basis)):
        acc = {}
        for (p, q), c in colie.cobracket[g].items():
            for a, b, s in ((p, q, c), (q, p, -c)):
                for (x, y), c2 in colie.cobracket[a].items():
                    for u, v, s2 in ((x, y, c2), (y, x, -c2)):
                        # term u (x) v (x) b, then sum over cyclic rotations
                        for t in ((u, v, b), (v, b, u), (b, u, v)):
                            _add(acc, t, s * s2)
        if acc:
            return False, g
    return True, None
