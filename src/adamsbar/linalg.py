"""Exact sparse rational linear algebra.

Everything downstream (cohomology slices, Hopf structure constants,
minimal-model stages) reduces to kernels, solves, quotient
representatives and class coordinates over Q.  All of them read off one
elimination, Echelon: vectors are added one at a time and kept as
triangular rows keyed by pivot, each 0 below its pivot, so a new vector
or a query is reduced only by the rows at the pivots in its support,
taken in ascending order.  What each view reads off it:

- kernel_basis: one vector per non-pivot column of the rows of a matrix,
  the one view that reduces the rows, once each; a matrix with no
  nonzero entry has the unit vectors as its kernel, with no elimination;
- solver: the columns of a matrix, each tagged by its index, so that one
  elimination answers every right-hand side;
- quotient_basis: the vectors that find a new pivot after the sub;
- cocycle_classes: the image, then the cocycles; those that find a new
  pivot are the representatives, and the same echelon is the projector.
  Given any span and a family independent modulo it, it is the projector
  of that subquotient: the coordinates of a vector on the family;
- KernelCoords: coordinates on a kernel_basis with no elimination at
  all, read at the free columns; it is the projector of a cohomology
  slice whose incoming d is 0.
  Both projectors answer class_coords(v): Fractions off an Echelon, v's
  own int or Fraction entries off a KernelCoords, None outside the span;
- SliceComplex: a (degree, weight)-graded complex, finite in each slice,
  with its index, d, kernel and cohomology built once per slice from the
  views above (an empty slice's cohomology is 0, read without its
  neighbours, and d into an empty slice is 0, built without faces), and
  the H^0 dims of every subcomplex of a filtration by key level
  (filtered_h0), one Echelon per slice fed level by level.  A
  complex whose keys are found by walking a whole weight (the cdga's
  monomials, the bar words) walks it once and groups the keys by degree
  (by_degree).  The cdga, its bar construction, the augmentation ideal,
  cell modules and scalar complexes are all SliceComplexes; the
  word-length truncations of the bar construction, whose H^0 dims are
  the simplicial approximation's tables, are read as one filtration.

attach_cells is the one cell-attaching loop over these views, shared by
minimal models and cell resolutions.  Their sources grow in place, and
the loop images each list of source classes once: a stage's later
rounds and the certificate read the images again for every slice whose
classes no new cell changed.  Each list of class images is eliminated
once, and its rank serves both of a round's tests and the certificate:
quotient_basis and kernel_basis run only where the rank says that they
find something.

Inside Echelon the arithmetic is on Python ints: each row is a primitive
integer vector over a positive denominator, so a reduction step is an
integer update, and the only divisions are one gcd per step and one
division by the content per stored row.  The boundary is exact
rationals: inputs may mix int and fractions.Fraction entries, and every
value that an elimination returns is a Fraction, so results are exact,
bit-for-bit reproducible and the same however the input was written.
Unit vectors share one immutable Fraction(1), ONE.
Elimination always picks the pivot in the lowest remaining row, then the
lowest column.

Vectors are dicts {index: int or Fraction} with no stored zeros, and a
matrix is the list of its columns, each a vector over the rows.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

ONE = Fraction(1)


def _vec_iadd(u, v, c):
    """u += c*v in place, for int or Fraction entries and c.

    Each entry gets the value and type of u.get(i, 0) + c*v[i]: an int
    where every term is an int, a Fraction otherwise.  A key whose sum is
    0 is removed at once, and new keys are appended in v's order.  A new
    key stores c*v[i] itself, and c the int 1 skips the multiply, since
    neither 0 + y nor 1*y changes y's value or type."""
    scale = not (type(c) is int and c == 1)
    for i, x in v.items():
        if scale:
            x = c * x
        if i in u:
            x = u[i] + x
            if x:
                u[i] = x
            else:
                del u[i]
        elif x:
            u[i] = x


def _integral(v):
    """(V, den) with v = V/den, V an integer vector in v's key order and
    den the least common denominator of v's entries."""
    den = 1
    for x in v.values():
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    if den == 1:
        return {i: x.numerator for i, x in v.items()}, 1
    return {i: x.numerator * (den // x.denominator)
            for i, x in v.items()}, den


def _rational(V, den):
    """The Fraction vector V/den, in V's key order."""
    return {i: Fraction(x, den) for i, x in V.items()}


def _iscale(u, a):
    """u *= a in place, for an int a."""
    for i in u:
        u[i] *= a


class Echelon:
    """Triangular rows keyed by pivot, grown one vector at a time.

    Each row is 0 below its pivot, its lowest column, and no later add
    touches it.  A vector added with a tag (its index in a family)
    makes its row remember the combination of tagged vectors it stands
    for, modulo the untagged ones.  The pivots, a vector's residue and
    its combination are unique whatever the form of the rows.

    Each row and its combination are stored together as integer vectors
    R and K over one positive denominator, R[p], the row's entry at its
    pivot p: the row is R/R[p] and the combination K/R[p], with no common
    factor left in R and K.  A reduction step is the integer update
    v <- a*v - b*R with a/b = R[p]/v[p] in lowest terms, so no Fraction
    is built until a result leaves the echelon.
    """

    def __init__(self, vectors=()):
        self._rows = {}    # pivot -> R
        self._combos = {}  # pivot -> K
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self._rows)

    def _reduce(self, v):
        """(V, C, den): v = V/den + the combination C/den of tagged
        vectors, modulo the untagged ones, V 0 at every pivot.  The pivots
        in v's support, and those each row brings in, come off a heap in
        ascending order, so no row is subtracted twice.  A row is walked
        once per subtraction: the walk that updates V pushes each pivot
        it brings in."""
        V, den = _integral(v)
        C = {}
        rows = self._rows
        heap = [p for p in V if p in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            x = V.get(p)
            if not x:
                continue
            R = rows[p]
            g = gcd(x, R[p])
            a, b = R[p] // g, x // g
            if a != 1:
                _iscale(V, a)
                _iscale(C, a)
                den *= a
            for q, y in R.items():
                if q in V:
                    y = V[q] - b * y
                    if y:
                        V[q] = y
                    else:
                        del V[q]
                else:
                    V[q] = -b * y
                    if q in rows:
                        heappush(heap, q)
            _vec_iadd(C, self._combos[p], b)
        return V, C, den

    def reduce(self, v):
        """The residue of v modulo the rows, 0 at the pivots; class_coords
        reads the combination of tagged vectors."""
        V, _, den = self._reduce(v)
        return _rational(V, den)

    def add(self, v, tag=None):
        """Keep v as a new row and return its pivot, or return None and keep
        nothing when v is in the span of the rows."""
        R, C, den = self._reduce(v)
        if not R:
            return None
        p = min(R)
        # the row is R/R[p]; it stands for (den*[tag] - C)/R[p]
        K = {t: -c for t, c in C.items()}
        if tag is not None:
            K[tag] = den
        if R[p] < 0:
            _iscale(R, -1)
            _iscale(K, -1)
        _primitive(R, K)
        self._rows[p] = R
        self._combos[p] = K
        return p

    def non_pivots(self, n):
        """The columns below n that are not pivots, in order."""
        return [j for j in range(n) if j not in self._rows]

    def class_coords(self, v):
        """Coordinates of v on the tagged vectors, in tag order, as
        Fractions, or None when v is outside the span of the rows.  They
        are unique when the added vectors were independent."""
        V, C, den = self._reduce(v)
        if V:
            return None
        return {i: Fraction(C[i], den) for i in sorted(C)}


def _primitive(R, K):
    """Divide R and K in place by the gcd of all their entries."""
    g = gcd(*R.values())
    if g != 1:
        g = gcd(g, *K.values())
        if g != 1:
            for u in (R, K):
                for i in u:
                    u[i] //= g


def kernel_basis(cols):
    """Reduced-echelon basis of the kernel of the matrix with columns cols,
    as vectors over the column indices.

    Representation is canonical: for each free column f the basis vector has
    entry 1 at f and the pivot columns carry the negated elimination
    coefficients, in ascending pivot order.  The rows are reduced once
    each, from the highest pivot down, against the rows above, which are
    reduced already, and written back in place.  Columns with no nonzero
    entry have the unit vectors as their kernel, with no elimination.
    """
    if not any(cols):
        return [{f: ONE} for f in range(len(cols))]
    rows = {}
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    e = Echelon(rows[i] for i in sorted(rows))
    basis = {f: {f: ONE} for f in e.non_pivots(len(cols))}
    for p in sorted(e._rows, reverse=True):
        R = e._rows.pop(p)
        x = R.pop(p)
        V, _, den = e._reduce(R)
        R = e._rows[p] = {p: x * den, **V}
        _primitive(R, {})
    for p in sorted(e._rows):
        R = e._rows[p]
        for f, x in R.items():
            if f != p:
                basis[f][p] = Fraction(-x, R[p])
    return list(basis.values())


def solver(cols):
    """The Echelon of the columns cols of a matrix, each tagged by its
    index.  Its class_coords(b) is the solution x of sum_j x_j cols[j]
    = b supported on the pivot columns (those independent of the columns
    before them), which is unique, or None when b is outside the column
    space."""
    e = Echelon()
    for j, col in enumerate(cols):
        e.add(col, j)
    return e


def solve(cols, b):
    """solver(cols).class_coords(b), for one right-hand side."""
    return solver(cols).class_coords(b)


def quotient_basis(sub_vectors, vectors):
    """Representatives among `vectors` of a basis of span(vectors)/span(sub).

    Returned vectors are members of `vectors`, each independent of sub and
    of the ones before it, canonical given the input order.
    """
    e = Echelon(sub_vectors)
    return [v for v in vectors if e.add(v) is not None]


def cocycle_classes(cocycles, boundaries):
    """(dimension, representatives, projector) of span(cocycles) modulo
    span(boundaries), for a basis of the cocycles and vectors spanning the
    coboundaries, such as the columns of the incoming d.  One Echelon
    takes the boundaries, then the cocycles, each tagged by the number of
    representatives so far; those that find a new pivot are the
    representatives, and the Echelon is the projector: class_coords gives
    a cocycle's coordinates on them.  When the cocycles are independent
    modulo the boundaries, each is a representative, so the projector
    gives coordinates on the whole family: it is the projector of any
    subquotient span(cocycles) modulo span(boundaries).
    """
    projector = Echelon(boundaries)
    reps = []
    for v in cocycles:
        if projector.add(v, len(reps)) is not None:
            reps.append(v)
    return len(reps), reps, projector


class KernelCoords:
    """Coordinates on the vectors of a kernel_basis, read off without an
    elimination.  Each of them is 1 at its free column max(v) and 0 at
    the other free columns, so a vector's coordinates are its entries at
    the free columns, and the vector lies in the span when the residue
    they leave is 0; it is 0 at the free columns by construction, so only
    the other (pivot) columns are checked, against each vector's entries
    there, its tail.  When nothing is divided out (the incoming d is 0)
    this is the projector of the cohomology, as cocycle_classes(kernel,
    [])[2] would be, without adding a row per kernel vector."""

    def __init__(self, kernel):
        self._free = {}   # free column -> position in the kernel
        self._tails = []  # each vector off its free column
        for k, v in enumerate(kernel):
            f = max(v)
            self._free[f] = k
            # a tail entry of denominator 1 as an int, so class_coords
            # computes with ints where the vectors are integral
            self._tails.append({j: x.numerator if x.denominator == 1 else x
                                for j, x in v.items() if j != f})

    def class_coords(self, v):
        """v's coordinates on the kernel vectors, in their order and in
        v's own int or Fraction entries, or None when v is outside their
        span."""
        free = self._free
        coords = {free[j]: v[j] for j in sorted(j for j in v if j in free)}
        residue = {j: x for j, x in v.items() if j not in free}
        for k, c in coords.items():
            _vec_iadd(residue, self._tails[k], -c)
        return None if residue else coords


class SliceComplex:
    """A complex graded by (degree n, weight r), finite in each slice, with
    d of bidegree (+1, 0).

    A subclass supplies two hooks: slice_keys(n, r), the list of basis keys
    of slice (n, r) in order, and d_key(n, r, key), d of one key as
    {key of slice (n + 1, r): coefficient}, no coefficient 0.  A subclass
    that finds its keys by walking all of a weight supplies group_keys(r)
    in place of slice_keys: {n: the keys of slice (n, r) in order}, from
    one walk.  by_degree(r) keeps that grouping, and slice_keys(n, r)
    returns the group's own list, so no slice is stored twice.
    Everything else is built here at most once per slice and cached,
    each cache a dict keyed by (n, r): the keys, their positions, d as
    columns, its kernel and the cohomology.  Where d(n - 1, r) is 0, the
    cohomology at (n, r) is the kernel itself, with KernelCoords as its
    projector; every other slice goes through cocycle_classes.  Vectors
    are over the positions of a slice's keys.  forget(r) drops the cached
    slices of weight >= r, for a complex that gained keys there.
    """

    def __init__(self):
        self._slices, self._index, self._d = {}, {}, {}
        self._ker, self._coh = {}, {}
        self._groups = {}  # weight -> {degree: keys}

    def by_degree(self, r):
        """{n: the keys of slice (n, r)}, group_keys(r) read once per
        weight."""
        if r not in self._groups:
            self._groups[r] = self.group_keys(r)
        return self._groups[r]

    def slice_keys(self, n, r):
        """The keys of slice (n, r) of a subclass that supplies
        group_keys: the degree-n group of by_degree(r)."""
        return self.by_degree(r).get(n, [])

    def slice(self, n, r):
        """The basis keys of slice (n, r), in order."""
        key = n, r
        if key not in self._slices:
            self._slices[key] = self.slice_keys(n, r)
        return self._slices[key]

    def index(self, n, r):
        """{key: position} of slice (n, r)."""
        key = n, r
        if key not in self._index:
            self._index[key] = {k: i for i, k in enumerate(self.slice(n, r))}
        return self._index[key]

    def d_columns(self, n, r):
        """d on slice (n, r): one {position in slice (n + 1, r): coeff}
        column per key.  d has bidegree (+1, 0), so into an empty slice
        every column is {}, built with no d_key.  A key that later joins
        slice (n + 1, r) is in d of no older key, so they stay right."""
        key = n, r
        if key not in self._d:
            cols = self._d[key] = []
            if not self.slice(n + 1, r):
                cols.extend({} for _ in self.slice(n, r))
                return cols
            idx = self.index(n + 1, r)
            for b in self.slice(n, r):
                col = {}
                for k, c in self.d_key(n, r, b).items():
                    col[idx[k]] = c
                cols.append(col)
        return self._d[key]

    def kernel(self, n, r):
        """kernel_basis of d on slice (n, r)."""
        key = n, r
        if key not in self._ker:
            self._ker[key] = kernel_basis(self.d_columns(n, r))
        return self._ker[key]

    def cohomology(self, n, r):
        """(dim, representatives, projector) of H^n at weight r: the
        classes of kernel(n, r) modulo the columns of d(n - 1, r).  When
        no column of d(n - 1, r) is nonzero, they are the kernel vectors
        themselves and the projector is their KernelCoords.  An empty
        slice reads neither neighbour, and an empty kernel does not read
        d(n - 1, r), which maps into it when d^2 = 0."""
        key = n, r
        if key not in self._coh:
            if not self.slice(n, r) or not self.kernel(n, r):
                return self._coh.setdefault(key, (0, [], KernelCoords([])))
            ker, d_in = self.kernel(n, r), self.d_columns(n - 1, r)
            if any(d_in):
                self._coh[key] = cocycle_classes(ker, d_in)
            else:
                self._coh[key] = len(ker), ker, KernelCoords(ker)
        return self._coh[key]

    def filtered_h0(self, level, levels, weights):
        """{l: {r: dim H^0 at weight r}} of the subcomplex spanned by the
        keys of level(key) <= l, for each l in levels (ascending) and r in
        weights; d must not raise the level of a key.  The columns of
        d(0, r) and of d(-1, r) go into one Echelon each, level by level,
        and the rank of the subcomplex's d is read after each level: its
        columns are those added so far, and they lie in the subcomplex.
        A zero column adds nothing to the rank, so it is counted in the
        size and not fed."""
        dims = {l: {} for l in levels}
        for r in weights:
            counts = {}
            for n in (0, -1):
                keys, cols = self.slice(n, r), self.d_columns(n, r)
                order = sorted(range(len(keys)), key=lambda i: level(keys[i]))
                e, i = Echelon(), 0
                for l in levels:
                    while i < len(order) and level(keys[order[i]]) <= l:
                        if cols[order[i]]:
                            e.add(cols[order[i]])
                        i += 1
                    counts[n, l] = i, len(e)
            for l in levels:
                size, rank_out = counts[0, l]
                dims[l][r] = size - rank_out - counts[-1, l][1]
        return dims

    def forget(self, r):
        """Drop every cached slice and grouping of weight >= r."""
        for cache in (self._slices, self._index, self._d, self._ker,
                      self._coh):
            for key in [key for key in cache if key[1] >= r]:
                del cache[key]
        for w in [w for w in self._groups if w >= r]:
            del self._groups[w]


# Rounds per attach_cells stage; a stage still adding cells at its last
# round is not certified.
STAGE_ROUNDS = 6


def attach_cells(stages, top, target, source_reps, image, adjoin):
    """Attach cells to a source complex until its map to target is an
    isomorphism on H^i for i <= top and injective on H^(top+1).

    target has cohomology(i, m) -> (dim, reps, projector) and
    d_columns(i, m); source_reps(i, m) lists the source's cohomology
    representatives and image(i, m, v) the target coordinates of the
    image of a source vector v of slice (i, m).  Each stage (i, m), in
    the order given, runs rounds.  A round adds a closed cell onto each
    target class that no source class hits; when there is none, it adds,
    for each source class at (i + 1, m) of zero image, a cell whose
    boundary z is that class, sent to a b with d b = image(z); the
    target's d(i, m) is eliminated once per stage for all those b.
    adjoin(i, m, cells) gets the round's cells as a list of (z, b), z
    None for a closed cell; every vector in it was read off the source
    before the call changes it.  Rounds stop at one that adds nothing, or
    after STAGE_ROUNDS.  A round raises ValueError when the image of a
    source class is outside the target's cocycles.

    The class images of (i, m) are computed once per list that
    source_reps(i, m) returns, and read again, rounds and certificate
    alike, while it returns that same list object.  So source_reps must
    return a new list whenever the source's classes at (i, m) change, as
    a SliceComplex's cached cohomology does until forget drops it, and
    image(i, m, v) must not change on a vector the source already had.
    Each list of class images is eliminated once, and its rank serves
    both tests and the certificate: the images span the dim-dimensional
    class space exactly when the rank is dim, so a round computes the
    quotient only below it, and they are independent exactly when the
    rank is their number, so it computes the kernel only below that.

    Returns (the number of rounds each stage ran, certificate): the
    certificate maps each stage and each (top + 1, m) to whether the map
    is an isomorphism (injective at top + 1) there, and is False at a
    stage that still added cells in its last round.
    """
    store = {}  # (i, m) -> the class_images of one source_reps list

    def class_images(i, m):
        """[dim H^i(m) of target, source reps, the target class
        coordinates of each rep's image, None where the image is outside
        the target's cocycles, their rank or None until rank reads it],
        read off the store while source_reps(i, m) returns the list it
        was computed for."""
        reps = source_reps(i, m)
        out = store.get((i, m))
        if out is None or out[1] is not reps:
            dim, _, projector = target.cohomology(i, m)
            out = store[i, m] = [dim, reps, [
                projector.class_coords(image(i, m, v)) for v in reps], None]
        return out

    def rank(out):
        """The rank of a class_images entry's images, every one a class:
        one elimination per entry, none for an empty list."""
        if out[3] is None:
            out[3] = len(Echelon(out[2])) if out[2] else 0
        return out[3]

    def classes(i, m):
        """class_images of a round, where every image has a class."""
        out = class_images(i, m)
        if None in out[2]:
            raise ValueError("vector outside the span of reps + image")
        return out

    def combine(coords, vectors):
        out = {}
        for k, c in coords.items():
            _vec_iadd(out, vectors[k], c)
        return out

    stages = list(stages)
    rounds = []
    capped = set()
    for i, m in stages:
        d_solver = None
        for k in range(1, STAGE_ROUNDS + 1):
            out = classes(i, m)
            dim, cols = out[0], out[2]
            cells = []
            if rank(out) < dim:
                reps = target.cohomology(i, m)[1]
                cells = [(None, combine(cv, reps)) for cv in quotient_basis(
                    cols, [{j: ONE} for j in range(dim)])]
            if not cells:
                out = classes(i + 1, m)
                reps, cols = out[1], out[2]
                kernel = kernel_basis(cols) if rank(out) < len(reps) else []
                if kernel and d_solver is None:
                    d_solver = solver(target.d_columns(i, m))
                for kv in kernel:
                    z = combine(kv, reps)
                    b = d_solver.class_coords(image(i + 1, m, z))
                    if b is None:
                        raise ValueError(f"the image of a kernel class at "
                                         f"({i + 1}, {m}) is not exact")
                    cells.append((z, b))
            if not cells:
                break
            adjoin(i, m, cells)
        else:
            capped.add((i, m))
        rounds.append(k)
    certificate = {}
    for i, m in stages + [(top + 1, m) for i, m in stages if i == top]:
        out = class_images(i, m)
        dim, reps, cols = out[:3]
        certificate[(i, m)] = (
            None not in cols and rank(out) == len(reps)
            and (i > top or dim == len(reps)) and (i, m) not in capped)
    return rounds, certificate
