"""Exact integer linear algebra: Smith normal form and chain complex homology.

Everything runs over Python integers, so results are exact.  A matrix
keeps only its nonzero entries, one {col: value} dict per row, and the
Smith normal form and the rank over GF(p) both start with one sparse
eliminator on those rows that pivots in Markowitz order (sparsest row,
then sparsest column).  Over Z it takes only entries +-1 as pivots, each
an invariant factor 1; simplicial boundary matrices are nearly all +-1,
so what is left without a unit entry is small, and a dense Smith normal
form finishes it, pivoting on a smallest-magnitude entry.
Arbitrary-precision arithmetic means entry growth can never wrap; that
pivot rule keeps it tame in practice.  Over GF(p) every nonzero entry is a
pivot and the rank is the pivot count.

One driver, _homology, serves homology, cohomology and homology_mod_p.
It reduces the boundaries from the top degree down and clears: the pivot
rows of d_(d+1) name d-cells whose columns of d_d are never built or read.
Let R be those rows and T the pivot columns.  From d_d d_(d+1) = 0,
d_d[:, R] d_(d+1)[R, T] = -d_d[:, not R] d_(d+1)[not R, T], and the
eliminator's pivots are an LU factorization of the block d_(d+1)[R, T],
so its determinant is the product of the pivots.  Over GF(p) that is
nonzero, so the columns R of d_d lie in the span of the others and the
rank is unchanged.  Over Z only the sparse eliminator's pivots clear:
they are all +-1, the block is unimodular, the columns R are integer
combinations of the others, and the image lattice, hence the rank and the
invariant factors, is unchanged.  A pivot of the dense residue need not be
a unit and never clears.

A supplier that knows a boundary's rank in closed form answers with that
int instead of rows, and only for an image known to be saturated: its
invariant factors are all 1, so there is no torsion below it and the rank
is the same over Z and over every GF(p).  The driver takes the rank as
given, calls no eliminator, and clears nothing below, having no pivots.

The eliminator consumes the rows it is given.  _rows_of copies a matrix
that belongs to a caller, reduced mod p and without the cleared columns;
a simplicial boundary, built for the eliminator alone, goes as built.
"""

from .errors import ConsistencyError, InputError


def is_prime(n):
    """Whether the int n is prime; any other type, bool included, is an
    InputError."""
    if type(n) is not int:
        raise InputError("expected an int, got %r" % (n,))
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power_base(n):
    """Return p if n = p^k with k >= 1 and p prime, else None; n must be
    an int, as for is_prime."""
    if type(n) is not int:
        raise InputError("expected an int, got %r" % (n,))
    factors = _factor(n)
    return next(iter(factors)) if len(factors) == 1 else None


def _factor(n):
    """The prime factorization {p: exponent} of the int n, by trial
    division; {} for n < 2."""
    factors = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors[p] = _exponent(n, p)
            n //= p ** factors[p]
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


def _exponent(n, p):
    """The exponent of p in the positive int n: the largest k with p^k | n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


class IntegerMatrix:
    """Matrix with integer entries, stored sparsely.

    entries[i] is a {col: value} dict holding the nonzero entries of row i;
    a zero is never stored, so writing 0 deletes the entry.  The
    constructor takes dense rows; indices outside the shape raise
    IndexError.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if entries is None:
            entries = [{} for _ in range(rows)]
        else:
            if len(entries) != rows:
                raise InputError("row count does not match shape")
            fixed = []
            for row in entries:
                row = list(row)
                if len(row) != cols:
                    raise InputError("column count does not match shape")
                for v in row:
                    if not isinstance(v, int):
                        raise InputError("matrix entries must be integers")
                fixed.append({j: v for j, v in enumerate(row) if v})
            entries = fixed
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        nc = len(rows[0]) if rows else 0
        return cls(len(rows), nc, rows)

    def _check(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("index (%r, %r) outside a %d x %d matrix"
                             % (i, j, self.rows, self.cols))

    def __getitem__(self, ij):
        i, j = ij
        self._check(i, j)
        return self.entries[i].get(j, 0)

    def __setitem__(self, ij, v):
        i, j = ij
        self._check(i, j)
        if v:
            self.entries[i][j] = v
        else:
            self.entries[i].pop(j, None)

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self.entries)))

    def __repr__(self):
        dense = [[row.get(j, 0) for j in range(self.cols)] for row in self.entries]
        return "IntegerMatrix(%d, %d, %r)" % (self.rows, self.cols, dense)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise InputError("matrix shapes do not compose")
        out = IntegerMatrix(self.rows, other.cols)
        for row, orow in zip(self.entries, out.entries):
            for k, v in row.items():
                for j, w in other.entries[k].items():
                    orow[j] = orow.get(j, 0) + v * w
            for j in [j for j, v in orow.items() if not v]:
                del orow[j]
        return out

    def is_zero(self):
        return not any(self.entries)


def _eliminate(rows, p=None):
    """Sparse elimination with Markowitz-ordered pivots.

    Consumes the list of {col: value} rows it is given, skipping empty
    ones.  Over Z (p is None) only entries +-1 may pivot; over GF(p) every
    entry must be nonzero mod p, any may pivot, and all arithmetic is
    reduced mod p.  The next pivot comes from a sparsest row holding a
    candidate, in its candidate column with the fewest entries, which
    keeps fill-in low.  Each pivot clears its column from the other rows
    (the Schur complement update), then its row and column are dropped.

    The rows wait in a bucket queue: queue[n] lists the numbers of rows
    queued at length n.  The scan climbs from a floor past empty buckets,
    and drops back to the length of any row an update shortens below it;
    fill-in that lengthens a row past the top adds buckets.  An update
    queues its row again at its new length, so an entry whose row has since
    changed length or been dropped is stale and skipped.  Skipping is
    cheaper than avoiding: on the inputs of the benchmark's homology
    workload about 70 % of the pops are stale, yet a dict of the length
    each row is queued at, appending only when that changes, made the
    eliminator about 14 % slower.  Over Z a row without a unit entry
    leaves the queue until an update queues it again.  A pivot alone in
    its row needs no arithmetic: the other rows of its column just drop
    their entry there.

    Returns (pivots, rows): the set of pivot row numbers and {number: row}
    of the rows left, free of +-1 entries over Z and empty over GF(p).
    """
    rows = {i: row for i, row in enumerate(rows) if row}
    cols = {}
    for i, row in rows.items():
        for j in row:
            if j in cols:
                cols[j].add(i)
            else:
                cols[j] = {i}
    queue = [[] for _ in range(max(map(len, rows.values()), default=0) + 1)]
    for i, row in rows.items():
        queue[len(row)].append(i)
    pivots = set()
    n = 1
    while n < len(queue):
        bucket = queue[n]
        if not bucket:
            n += 1
            continue
        i = bucket.pop()
        row = rows.get(i)
        if row is None or len(row) != n:
            continue
        j = None
        for c, v in row.items():
            if (p or v == 1 or v == -1) and (j is None or len(cols[c]) < least):
                j, least = c, len(cols[c])
        if j is None:
            continue  # no unit over Z: an update to the row queues it again
        v = row.pop(j)
        column = cols.pop(j)
        column.discard(i)
        del rows[i]
        pivots.add(i)
        for c in row:
            cols[c].discard(i)
        if row and p:
            inv = pow(v, p - 2, p)
        for k in column:
            other = rows[k]
            f = other.pop(j)  # all that a pivot alone in its row asks
            if row:
                f = -f * inv % p if p else -f * v  # a unit is its own inverse
                for c, w in row.items():
                    x = other.get(c)
                    if x is None:
                        other[c] = f * w % p if p else f * w
                        cols[c].add(k)
                    else:
                        x += f * w
                        if p:
                            x %= p
                        if x:
                            other[c] = x
                        else:
                            del other[c]
                            cols[c].discard(k)
            m = len(other)
            if not m:
                del rows[k]
                continue
            if m >= len(queue):
                queue.extend([] for _ in range(m + 1 - len(queue)))
            queue[m].append(k)
            if m < n:
                n = m
    return pivots, rows


def _smallest_nonzero(a, t, nr, nc):
    best = None
    best_abs = None
    for i in range(t, nr):
        row = a[i]
        for j in range(t, nc):
            v = row[j]
            if v:
                av = abs(v)
                if best is None or av < best_abs:
                    best = (i, j)
                    best_abs = av
                    if av == 1:
                        return best
    return best


def _dense_snf(m):
    """Dense Smith normal form, returned like smith_normal_form.

    The pivot is always a smallest-magnitude nonzero entry of the remaining
    block, which limits entry growth.
    """
    nr, nc = m.rows, m.cols
    a = [[row.get(j, 0) for j in range(nc)] for row in m.entries]
    limit = min(nr, nc)
    t = 0
    while t < limit:
        pivot = _smallest_nonzero(a, t, nr, nc)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
        piv = a[t][t]
        # Clear column t, then row t.  A surviving remainder is strictly
        # smaller than the pivot, so looping back terminates.
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t]:
                q = a[i][t] // piv
                if q:
                    at = a[t]
                    a[i] = [x - q * y for x, y in zip(a[i], at)]
                if a[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, nc):
            if a[t][j]:
                q = a[t][j] // piv
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility: fold in a row holding a non-multiple.
        off = None
        for i in range(t + 1, nr):
            row = a[i]
            for j in range(t + 1, nc):
                if row[j] % piv:
                    off = i
                    break
            if off is not None:
                break
        if off is not None:
            a[t] = [x + y for x, y in zip(a[t], a[off])]
            continue
        t += 1
    diagonal = [abs(a[i][i]) for i in range(t)] + [0] * (limit - t)
    return diagonal, t


def _rows_of(m, p=None, drop=()):
    """Fresh rows of the matrix m, which belongs to a caller, for the
    eliminator to consume: reduced mod p over GF(p), without zeros, and
    without the columns in drop."""
    if p is not None:
        return [{j: x for j, v in row.items() if (x := v % p) and j not in drop}
                for row in m.entries]
    if drop:
        return [{j: v for j, v in row.items() if j not in drop} for row in m.entries]
    return [dict(row) for row in m.entries]


def _reduce(rows, p=None):
    """Reduce one matrix, given as rows to consume: (pivots, factors).

    pivots is the set of the sparse eliminator's pivot rows, each pivot an
    invariant factor 1 over Z; factors lists the nonzero invariant factors
    of the residue it leaves, from the dense Smith normal form (none over
    GF(p)).  The rank is len(pivots) + len(factors).
    """
    pivots, rows = _eliminate(rows, p)
    if not rows:
        return pivots, []
    cols = sorted({j for row in rows.values() for j in row})
    residue = IntegerMatrix(len(rows), len(cols),
                            [[row.get(j, 0) for j in cols] for row in rows.values()])
    diagonal, rank = _dense_snf(residue)
    return pivots, diagonal[:rank]


def smith_normal_form(m):
    """Diagonalize by unimodular row and column operations.

    Returns (diagonal, rank): diagonal has length min(rows, cols), starts
    with the positive invariant factors d1 | d2 | ... | dr and is padded
    with zeros; rank = r.  Sparse elimination first pivots out entries +-1,
    each an invariant factor 1; the residue left without unit entries goes
    through a dense Smith normal form that pivots on a smallest-magnitude
    entry.  Invariant factors are unique, so the order does not matter.
    """
    pivots, factors = _reduce(_rows_of(m))
    factors = [1] * len(pivots) + factors
    return factors + [0] * (min(m.rows, m.cols) - len(factors)), len(factors)


def _require_prime(p):
    if type(p) is not int or not is_prime(p):
        raise InputError("p must be prime, got %r" % (p,))


def rank_mod_p(m, p):
    """Rank over the field with p elements, by sparse Gaussian elimination."""
    _require_prime(p)
    return len(_eliminate(_rows_of(m, p), p)[0])


class HomologyGroup:
    """A finitely generated abelian group Z^betti + Z/d1 + ... + Z/dk.

    Torsion divisors satisfy d1 | d2 | ... | dk with every di > 1.
    """

    __slots__ = ("betti", "torsion")

    def __init__(self, betti=0, torsion=()):
        if betti < 0:
            raise ConsistencyError("negative betti number")
        # Most groups are torsion free: () skips the conversion and checks.
        if torsion != ():
            torsion = tuple(int(d) for d in torsion)
            for d in torsion:
                if d < 2:
                    raise ConsistencyError("torsion divisor must exceed 1")
            for a, b in zip(torsion, torsion[1:]):
                if b % a:
                    raise ConsistencyError("torsion divisors must form a chain")
        self.betti = betti
        self.torsion = torsion

    @property
    def is_trivial(self):
        return self.betti == 0 and not self.torsion

    @property
    def is_torsion_free(self):
        return not self.torsion

    def __eq__(self, other):
        return (isinstance(other, HomologyGroup)
                and self.betti == other.betti and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.betti, self.torsion))

    def __repr__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti:
            parts.append("Z^%d" % self.betti)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts)


class ChainComplexZ:
    """A bounded chain complex of free Z-modules.

    ranks maps degree -> rank; boundaries maps degree d -> the matrix of
    the map from degree d to degree d - 1.  A degree that ranks omits holds
    the zero module, and a degree without a boundary maps by zero, so a
    complex lists only what it has.  The constructor always validates:
    every degree is an int, every rank a non-negative int, every boundary
    an IntegerMatrix of shape rank(d - 1) x rank(d), and successive
    boundaries compose to zero; the library's own complexes are checked
    too.  Equality ignores zero ranks, empty labels and zero maps.
    """

    __slots__ = ("ranks", "boundaries", "labels")

    def __init__(self, ranks, boundaries, labels=None):
        self.ranks = dict(ranks)
        self.boundaries = dict(boundaries)
        self.labels = {d: tuple(v) for d, v in labels.items()} if labels else {}
        self._validate()

    def _validate(self):
        for d in (*self.ranks, *self.boundaries, *self.labels):
            if type(d) is not int:
                raise InputError("degree must be an int, got %r" % (d,))
        for d, r in self.ranks.items():
            if type(r) is not int or r < 0:
                raise InputError("rank in degree %d must be a non-negative "
                                 "int, got %r" % (d, r))
        for d, lab in self.labels.items():
            if len(lab) != self.ranks.get(d, 0):
                raise InputError("label count mismatch in degree %d" % d)
        if not self.ranks:
            if self.boundaries:
                raise InputError("boundary map without degrees")
            return
        lo = min(self.ranks)
        held = sorted(self.boundaries)
        for d in held:
            b = self.boundaries[d]
            if not isinstance(b, IntegerMatrix):
                raise InputError("boundary in degree %d must be an "
                                 "IntegerMatrix" % d)
            if d == lo and not b.is_zero():
                raise InputError("nonzero boundary out of the lowest degree")
            if b.rows != self.rank(d - 1) or b.cols != self.rank(d):
                raise InputError("boundary shape mismatch in degree %d" % d)
        for d in held:
            if d - 1 > lo and d - 1 in self.boundaries:
                if not (self.boundaries[d - 1] * self.boundaries[d]).is_zero():
                    raise ConsistencyError("boundary composition is nonzero at degree %d" % d)

    def degrees(self):
        return sorted(self.ranks)

    def rank(self, d):
        return self.ranks.get(d, 0)

    def boundary(self, d):
        """Matrix of the map degree d -> degree d - 1 (zero if absent)."""
        b = self.boundaries.get(d)
        if b is None:
            return IntegerMatrix(self.rank(d - 1), self.rank(d))
        return b

    def __eq__(self, other):
        if not isinstance(other, ChainComplexZ):
            return NotImplemented
        return self._nonzero() == other._nonzero()

    def _nonzero(self):
        """The nonzero ranks, the nonempty labels and the nonzero maps."""
        return ({d: r for d, r in self.ranks.items() if r},
                {d: lab for d, lab in self.labels.items() if lab},
                {d: b for d, b in self.boundaries.items() if not b.is_zero()})

    def __hash__(self):
        return hash(frozenset((d, r) for d, r in self.ranks.items() if r))


def augment(c):
    """c with Z added in degree -1, the target of the all-ones map out of
    degree 0 (no map when degree 0 is empty or absent); reduced homology is
    the homology of the result.  A column of the boundary out of degree 1
    that does not sum to 0 makes the composition with the augmentation
    nonzero, which the constructor rejects with ConsistencyError."""
    ranks = dict(c.ranks)
    ranks[-1] = 1
    boundaries = dict(c.boundaries)
    boundaries.pop(0, None)
    if ranks.get(0):
        boundaries[0] = IntegerMatrix(1, ranks[0], [[1] * ranks[0]])
    labels = dict(c.labels)
    labels[-1] = ("*",)
    return ChainComplexZ(ranks, boundaries, labels=labels)


def _homology(ranks, boundary, p=None):
    """The one homology driver: {degree: HomologyGroup} over Z (p None), or
    {degree: dimension} over GF(p), of the complex with the given ranks.

    boundary(d, cleared) supplies d_d once the boundary above is reduced:
    None for a zero map; an int, the rank of an image known to be
    saturated (module docstring), which sets no torsion and clears
    nothing; else its {col: value} rows without the columns in cleared,
    fresh rows that the eliminator consumes, where over GF(p) every entry
    must be nonzero mod p.  The boundaries are reduced from the top
    degree down, and the pivot rows that may clear (module docstring) are
    passed down as the next cleared columns.  Only the degrees in ranks are
    visited, so the next one down need not be d - 1; clearing stays sound
    across a missing degree, since a boundary into an absent degree has no
    rows, hence no pivots to clear.
    """
    if p is not None:
        _require_prime(p)
    degrees = sorted(ranks)
    image_rank = {}
    torsion = {}
    cleared = ()
    for d in reversed(degrees):
        rows = boundary(d, cleared)
        if rows is None or type(rows) is int:
            image_rank[d] = rows or 0
            cleared = ()
            continue
        cleared, factors = _reduce(rows, p)
        image_rank[d] = len(cleared) + len(factors)
        torsion[d - 1] = tuple(v for v in factors if v > 1)
    out = {}
    for d in degrees:
        free = ranks[d] - image_rank.get(d, 0) - image_rank.get(d + 1, 0)
        if p is None:
            out[d] = HomologyGroup(free, torsion.get(d, ()))
        elif free < 0:
            raise ConsistencyError("negative mod-p dimension")
        else:
            out[d] = free
    return out


def _held(c, p=None):
    """The boundary supplier of _homology for copies of the matrices c holds."""
    def boundary(d, cleared):
        m = c.boundaries.get(d)
        return None if m is None else _rows_of(m, p, cleared)
    return boundary


def homology(c):
    """Homology groups of the chain complex c, as {degree: HomologyGroup}.

    Only the boundaries c holds are reduced; a missing one is zero.  The
    reduction clears columns (module docstring), which assumes that
    d_(d-1) d_d = 0 in every degree, as ChainComplexZ checks."""
    return _homology(c.ranks, _held(c))


def cohomology(c):
    """Cohomology of the dual complex Hom(C, Z), as {degree: HomologyGroup}."""
    return _universal_coefficients(homology(c))


def _universal_coefficients(h):
    """Cohomology from the homology table h: H^d has the free part of H_d
    and the torsion of H_(d-1)."""
    return {d: HomologyGroup(h[d].betti, h[d - 1].torsion if d - 1 in h else ())
            for d in h}


def homology_mod_p(c, p):
    """Dimensions of homology with coefficients in the field of order p,
    as {degree: dimension}; the same driver and assumption as homology."""
    return _homology(c.ranks, _held(c, p), p)
