"""Equivariant chain complexes over a cyclic group, and acyclic extensions.

A Moore complex M(Z/q, m) is a point, one cell c in degree m and one cell
l in degree m + 1 with boundary q.c.  For a cyclic group of prime-to-q
order p acting trivially on it, the extension adds a free orbit of cells
s_0 .. s_(p-1) in degree m + 1 with boundary c and a free orbit t_0 ..
t_(p-1) in degree m + 2 with boundary l - (s_i + s_(i+1) + ... +
s_(i+q-1)), indices mod p.  Acyclicity of the result is always checked by
computing reduced homology, never assumed: when gcd(p, q) > 1 the window
sums become degenerate and the construction genuinely fails.
"""

from math import gcd

from ._record import _Record
from .errors import (ConsistencyError, InputError, PreconditionError,
                     ResourceLimitError)
from .exactlin import ChainComplexZ, IntegerMatrix, augment, homology
from .permgrp import DEFAULT_ORDER_BOUND

# the window boundary of cyclic_extension has p * min(q, p) entries off its
# first row, and its time and memory grow with them: a million, p = 1000
# with q > p, took 0.7 s CPU and 118 MB peak (CPython 3.11, 2-core x86 VM)
MAX_WINDOW_ENTRIES = 10 ** 6


def _require_order(p):
    """p is an int from 2 up to the order bound every group gets; checked
    before any of the p cells of an orbit is made."""
    if type(p) is not int or p < 2:
        raise InputError("group order p must be at least 2")
    if p > DEFAULT_ORDER_BOUND:
        raise ResourceLimitError("group order p=%d exceeds max_order=%d"
                                 % (p, DEFAULT_ORDER_BOUND))


def moore_complex(m, q):
    """Cells pt (degree 0), c (degree m), l (degree m + 1); boundary of l is q.c."""
    if type(m) is not int or m < 1:
        raise InputError("degree m must be at least 1")
    if type(q) is not int or q < 2:
        raise InputError("torsion order q must be at least 2")
    return ChainComplexZ({0: 1, m: 1, m + 1: 1},
                         {m + 1: IntegerMatrix.from_rows([[q]])},
                         labels={0: ("pt",), m: ("c",), m + 1: ("l",)})


def rp2_complex():
    """The classic three-cell model: moore_complex(1, 2)."""
    return moore_complex(1, 2)


class EquivariantComplex:
    """A chain complex with a degree-wise cell action of a cyclic group.

    orbits[d] lists ("fixed", label) and ("free", labels) descriptors; a
    free orbit has exactly p cells, cyclically shifted by the generator.
    The descriptors of each degree must partition its cells, so a degree
    the complex does not hold, the zero module, takes none.  The
    generator's permutation must commute with the boundary maps.
    """

    __slots__ = ("complex", "p", "orbits", "generator_perm", "_fixed")

    def __init__(self, complex, p, orbits):
        _require_order(p)
        self.complex = complex
        self.p = p
        cells = {d: _orbit_cells(orbits.get(d, ()), p)
                 for d in (*complex.degrees(), *orbits)}
        for d, orbit_cells in cells.items():
            seen = [c for _, group in orbit_cells for c in group]
            if sorted(seen) != sorted(complex.labels.get(d, ())):
                raise InputError("orbits must partition the cells of degree %r" % (d,))
        self.orbits = {d: tuple(orbits.get(d, ())) for d in complex.degrees()}
        perms = {}
        self._fixed = {}
        for d in complex.degrees():
            labels = complex.labels.get(d, ())
            index = {lab: i for i, lab in enumerate(labels)}
            perm = [None] * len(labels)
            fixed = []
            for kind, group in cells[d]:
                if kind == "fixed":
                    i = index[group[0]]
                    perm[i] = i
                    fixed.append(i)
                else:
                    for a, b in zip(group, group[1:] + group[:1]):
                        perm[index[a]] = index[b]
            perms[d] = tuple(perm)
            self._fixed[d] = sorted(fixed)
        self.generator_perm = perms
        self._check_equivariance()

    def _check_equivariance(self):
        perms = self.generator_perm
        for d, b in self.complex.boundaries.items():
            if d not in perms or d - 1 not in perms:
                continue
            pd, pd1 = perms[d], perms[d - 1]
            # The permutations biject the entries, so matching every
            # nonzero entry also matches every zero one.
            for i, row in enumerate(b.entries):
                image = b.entries[pd1[i]]
                for j, v in row.items():
                    if image.get(pd[j], 0) != v:
                        raise InputError("boundary is not equivariant at "
                                         "degree %d" % d)


def _orbit_cells(descriptors, p):
    """[(kind, cells), ...] of a degree's orbit descriptors, each checked
    for its kind and size before any cell is looked up."""
    out = []
    for kind, cells in descriptors:
        if kind == "fixed":
            cells = (cells,) if isinstance(cells, str) else tuple(cells)
            if len(cells) != 1:
                raise InputError("fixed orbit must hold one cell")
        elif kind == "free":
            cells = tuple(cells)
            if len(cells) != p:
                raise InputError("free orbit must hold exactly p cells")
        else:
            raise InputError("unknown orbit kind %r" % (kind,))
        out.append((kind, cells))
    return out


def fixed_part(equiv):
    """Subcomplex spanned by the fixed cells, in the degrees that hold one.

    Boundaries of fixed cells must already lie in the fixed span; anything
    else means the orbit data is inconsistent.
    """
    c = equiv.complex
    idx = equiv._fixed
    boundaries = {}
    for d in sorted(c.boundaries):
        if d not in idx or d - 1 not in idx:
            continue
        b = c.boundaries[d]
        keep_rows = set(idx[d - 1])
        keep_cols = {j: k for k, j in enumerate(idx[d])}
        for i, row in enumerate(b.entries):
            if i not in keep_rows and not keep_cols.keys().isdisjoint(row):
                raise ConsistencyError("boundary of a fixed cell leaves "
                                       "the fixed span at degree %d" % d)
        mat = IntegerMatrix(len(keep_rows), len(keep_cols))
        for row, i in zip(mat.entries, idx[d - 1]):
            row.update((keep_cols[j], v) for j, v in b.entries[i].items()
                       if j in keep_cols)
        if not mat.is_zero():
            boundaries[d] = mat
    held = [d for d in c.degrees() if idx[d]]
    return ChainComplexZ({d: len(idx[d]) for d in held}, boundaries,
                         labels={d: tuple(c.labels[d][i] for i in idx[d])
                                 for d in held})


def reduced_homology_of(c):
    return homology(augment(c))


def verify_acyclic(c):
    """Whether all reduced homology of the complex vanishes."""
    if isinstance(c, EquivariantComplex):
        c = c.complex
    return all(g.is_trivial for g in reduced_homology_of(c).values())


class ExtensionResult(_Record):
    __slots__ = ("equivariant", "acyclic", "witness")

    equivariant: EquivariantComplex
    acyclic: bool
    witness: dict  # nonzero reduced homology when the check fails

    @property
    def complex(self):
        return self.equivariant.complex


def cyclic_extension(m, q, p):
    """Extend moore_complex(m, q) by free orbits for a cyclic group of order p.

    Requires gcd(p, q) = 1.  The acyclicity of the result is verified and
    reported, not asserted; a failing check returns the offending homology.
    Like p, the p * min(q, p) entries of the window boundary are bounded
    before any of them is made.
    """
    _require_order(p)
    base = moore_complex(m, q)
    entries = p * min(q, p)
    if entries > MAX_WINDOW_ENTRIES:
        raise ResourceLimitError("window boundary of %d entries exceeds "
                                 "max_window_entries=%d"
                                 % (entries, MAX_WINDOW_ENTRIES))
    if gcd(p, q) != 1:
        raise PreconditionError("gcd(p, q) must be 1, got gcd(%d, %d) = %d"
                                % (p, q, gcd(p, q)))
    ranks = dict(base.ranks)
    labels = {d: list(base.labels[d]) for d in base.degrees()}
    s_cells = ["s%d" % i for i in range(p)]
    t_cells = ["t%d" % i for i in range(p)]
    ranks[m + 1] += p
    labels[m + 1].extend(s_cells)
    ranks[m + 2] = p
    labels[m + 2] = t_cells
    boundaries = dict(base.boundaries)
    # l and every s_i kill c with multiplicity q and 1 respectively
    boundaries[m + 1] = IntegerMatrix.from_rows([[q] + [1] * p])
    # column of t_i: +1 on l, -1 on the window s_i, s_(i+1), ..., s_(i+q-1).
    # The window runs q // p times round all p cells, then over the q % p
    # cells from s_i on, so it hits s_(i+off) q // p + [off < q % p] times;
    # for q < p only the q cells from s_i on are hit, once each.
    mat = IntegerMatrix(1 + p, p)
    rows = mat.entries
    laps, extra = divmod(q, p)
    for i in range(p):
        rows[0][i] = 1
        for off in range(min(q, p)):
            rows[1 + (i + off) % p][i] = -(laps + (off < extra))
    boundaries[m + 2] = mat
    total = ChainComplexZ(ranks, boundaries,
                          labels={d: tuple(v) for d, v in labels.items()})
    orbits = {0: (("fixed", "pt"),), m: (("fixed", "c"),),
              m + 1: (("fixed", "l"), ("free", tuple(s_cells))),
              m + 2: (("free", tuple(t_cells)),)}
    equiv = EquivariantComplex(total, p, orbits)
    hom = reduced_homology_of(total)
    witness = {d: g for d, g in hom.items() if not g.is_trivial}
    return ExtensionResult(equiv, not witness, witness)
