"""Finite posets of subgroups, their order complexes, and poset checks.

The poset families used throughout: all nontrivial subgroups, nontrivial
nilpotent subgroups, nontrivial elementary abelian subgroups, and proper
nontrivial subgroups.  Euler characteristics are augmented (the empty
chain counts with sign -1).

The reduced Euler characteristic of the order complex is mu(0, 1), the
Moebius value of the poset with a least 0 and a greatest 1 adjoined (P.
Hall, "The Eulerian functions of a group", 1936).

A poset with a greatest or a least element is conically contractible
(Quillen, "Homotopy properties of the poset of nontrivial p-subgroups of a
group", Adv. Math. 1978): its order complex is a cone with that element as
apex.  Its reduced homology is zero in every degree from -1 up to the
dimension of the order complex, which is one less than the number of
elements in a longest chain.  One pass over the elements finds mu(0, 1),
the longest chain and whether the poset is a cone; no chain is listed.
Every "nontrivial" poset, the "nilpotent" poset of a nilpotent group and
every nonempty poset of the subgroups above h is such a cone.

Any other poset gives way to its core.  A beat point is an element whose
elements above have a least one, or whose elements below a greatest one;
the rest of the poset is a strong deformation retract of the whole, and
removing beat points one at a time until none is left gives the core,
unique up to isomorphism (R. E. Stong, "Finite topological spaces", Trans.
AMS 1966; J. A. Barmak, Algebraic Topology of Finite Topological Spaces
and Applications, LNM 2032, 2011).  So the core's order complex has the
reduced homology over Z of the whole one, torsion included, with zeros in
the degrees above its own dimension, and only its chains are listed.  The
elementary abelian poset of a p-group is conically contractible, but
rarely a cone; its core is one element, and no chain is listed at all.
"""

from functools import reduce
from math import comb
from operator import and_

from ._record import _Record
from .errors import InputError
from .exactlin import HomologyGroup
from .permgrp import (Subgroup, _bits, all_subgroups, is_elementary_abelian,
                      is_elementary_abelian_any, is_nilpotent, normalizer,
                      require_p_group)
from .simp import complex_of_chains

FILTERS = ("nontrivial", "nilpotent", "elementary-abelian", "proper-nontrivial")


class FinitePoset:
    """A finite strict poset over opaque elements with string labels.

    lt holds the pairs (i, j) of element indices with element i below
    element j.  The constructor validates them as a strict order and the
    labels as distinct, one per element; the library builds inclusion
    posets, which are strict orders by construction, through the trusted
    _of instead.
    """

    __slots__ = ("elements", "labels", "lt")

    def __init__(self, elements, lt_pairs, labels=None):
        try:
            elements = tuple(elements)
            if labels is None:
                labels = ("x%d" % i for i in range(len(elements)))
            labels = tuple(labels)
        except TypeError:
            raise InputError("elements and labels must be iterables") from None
        try:
            lt = frozenset(lt_pairs)
        except TypeError:
            raise InputError("relation pairs must be (i, j) tuples") from None
        self._fill(elements, lt, labels)
        self._validate()

    @classmethod
    def _of(cls, elements, lt, labels):
        """The poset of the element tuple, the frozenset lt of a strict
        order on their indices and the tuple of their distinct labels."""
        p = object.__new__(cls)
        p._fill(elements, lt, labels)
        return p

    def _fill(self, elements, lt, labels):
        self.elements = elements
        self.lt = lt
        self.labels = labels

    def _validate(self):
        """Transitivity is read from bitmasks: above[i] has bit j for each
        pair (i, j), and i < j < k forces i < k iff above[j] lies inside
        above[i] for every pair (i, j)."""
        n = len(self.elements)
        try:
            distinct = len(set(self.labels))
        except TypeError:
            raise InputError("labels must be hashable") from None
        if len(self.labels) != n or distinct != n:
            raise InputError("labels must be distinct and match the elements")
        above = [0] * n
        for pair in self.lt:
            if type(pair) is not tuple or len(pair) != 2:
                raise InputError("relation pairs must be (i, j) tuples")
            i, j = pair
            if not (type(i) is int and type(j) is int
                    and 0 <= i < n and 0 <= j < n):
                raise InputError("relation index out of range")
            if i == j:
                raise InputError("strict order must be irreflexive")
            if (j, i) in self.lt:
                raise InputError("strict order must be antisymmetric")
            above[i] |= 1 << j
        for i, j in self.lt:
            if above[j] & ~above[i]:
                raise InputError("strict order must be transitive")

    def __len__(self):
        return len(self.elements)

    def order_complex(self):
        pairs = [(self.labels[i], self.labels[j]) for i, j in self.lt]
        return complex_of_chains(self.labels, pairs)

    def chain_counts(self):
        """c[k] = number of chains with k + 1 elements, k >= 0: the f-vector
        of the order complex, built on the element indices."""
        return complex_of_chains(range(len(self)), self.lt).f_vector()

    def augmented_euler(self):
        """-1 + sum over k of (-1)^k (number of k-chains), as mu(0, 1)."""
        return self._mobius_pass()[0]

    def reduced_homology(self):
        """{degree: HomologyGroup} of the order complex, degrees -1 up to
        its dimension, one less than the number of elements in a longest
        chain.

        A cone is all zero, and no chain is built.  Any other poset gives
        way to its core (_core), a strong deformation retract of it, so the
        two order complexes have the same homology over Z, torsion
        included: a one-element core is all zero, and otherwise only the
        core's chains are listed, on its element indices.
        """
        _, longest, cone = self._mobius_pass()
        table = {}
        if not cone:
            size, pairs = self._core()
            if size != 1:
                table = complex_of_chains(range(size), pairs).reduced_homology()
        return {d: table[d] if d in table else HomologyGroup()
                for d in range(-1, longest)}

    def _mobius_pass(self):
        """(mu(0, 1), longest, cone): the augmented Euler characteristic,
        the number of elements in a longest chain, and whether some element
        lies above or below all the others.

        Over the elements in order of how many lie below them, a linear
        extension, Hall's recursion gives mu(0, x) = -1 - sum of mu(0, y)
        over y < x, and mu(0, 1) = -1 - sum of mu(0, x) over all x.  A
        finite poset with just one minimal element has it least.
        """
        n = len(self.elements)
        below = [[] for _ in range(n)]
        for i, j in self.lt:
            below[j].append(i)
        mu = [0] * n
        length = [0] * n
        for j in sorted(range(n), key=lambda j: len(below[j])):
            mu[j] = -1 - sum(map(mu.__getitem__, below[j]))
            length[j] = 1 + max(map(length.__getitem__, below[j]), default=0)
        cone = length.count(1) == 1 or any(len(b) == n - 1 for b in below)
        return -1 - sum(mu), max(length, default=0), cone

    def _core(self):
        """(size, pairs): the core, what is left once beat points are
        removed one at a time until none is left, as its number of elements
        and the strict pairs on its indices 0 .. size - 1 (Stong 1966).

        x is a beat point when the elements above it have a least one, or
        the elements below it a greatest one.  The elements are renumbered
        along a linear extension, by how many lie below each, and up[x] and
        down[x] hold the bits of the elements above and below x, so the
        lowest bit of the live part u of up[x] is minimal in u: it is least
        exactly when the rest of u is the live part of its own up[].  The
        same holds for the highest bit below x.
        """
        n = len(self.elements)
        below = [0] * n
        for i, j in self.lt:
            below[j] += 1
        rank = [0] * n
        for r, j in enumerate(sorted(range(n), key=below.__getitem__)):
            rank[j] = r
        up = [0] * n
        down = [0] * n
        for i, j in self.lt:
            i, j = rank[i], rank[j]
            up[i] |= 1 << j
            down[j] |= 1 << i
        alive = (1 << n) - 1
        removed = True
        while removed:
            removed = False
            for x in range(n):
                if not alive >> x & 1:
                    continue
                u = up[x] & alive
                least = u & -u
                d = down[x] & alive
                greatest = d.bit_length() - 1
                if (u and u ^ least == up[least.bit_length() - 1] & alive
                        or d and d ^ 1 << greatest == down[greatest] & alive):
                    alive ^= 1 << x
                    removed = True
        core = _bits(alive)
        index = {x: i for i, x in enumerate(core)}
        pairs = [(index[x], index[y]) for x in core
                 for y in _bits(up[x] & alive)]
        return len(core), pairs


def subgroup_poset(g, which, p=None):
    """Poset of subgroups of g selected by a named filter, ordered by inclusion.

    "nontrivial": all subgroups except 1.  "nilpotent": nontrivial nilpotent.
    "elementary-abelian": nontrivial elementary abelian, for the prime p if
    given, else for any prime.  "proper-nontrivial": 1 < H < g.
    """
    if which not in FILTERS:
        raise InputError("unknown filter %r; expected one of %s" % (which, list(FILTERS)))
    subs = [h for h in all_subgroups(g) if not h.is_trivial]
    if which == "nilpotent":
        subs = [h for h in subs if is_nilpotent(h)]
    elif which == "elementary-abelian":
        if p is None:
            subs = [h for h in subs if is_elementary_abelian_any(h)]
        else:
            subs = [h for h in subs if is_elementary_abelian(h, p)]
    elif which == "proper-nontrivial":
        subs = [h for h in subs if h.order < g.order]
    return _inclusion_poset(subs)


def _inclusion_poset(subs):
    """Inclusion poset of subgroups of one group, its elements and labels
    in the order of subs; every caller keeps the order of all_subgroups,
    by (order, key), so the labels follow it.

    containing[e] has bit j when subs[j] holds the element number e, so the
    subgroups that hold subs[i] are the AND of containing[e] over the
    elements e of subs[i], subs[i] itself among them; the others are read
    off that mask from its top bit down, straight into pairs, as a list
    per subgroup from permgrp._bits costs more on the small posets.
    """
    subs = tuple(subs)
    labels = tuple("H%d" % i for i in range(len(subs)))
    numbers = [s._element_numbers() for s in subs]
    containing = [0] * (subs[0].group.order if subs else 0)
    bit = 1
    for hs in numbers:
        for e in hs:
            containing[e] |= bit
        bit <<= 1
    pairs = []
    for i, hs in enumerate(numbers):
        above = reduce(and_, map(containing.__getitem__, hs)) ^ 1 << i
        while above:
            j = above.bit_length() - 1
            pairs.append((i, j))
            above ^= 1 << j
    return FinitePoset._of(subs, frozenset(pairs), labels)


def poset_strictly_above(g, h):
    """Poset of subgroups K with h < K <= g; h may be g or a list of elements."""
    hmask = g.group._mask_of(h, "h lies outside the group")
    return _inclusion_poset([k for k in all_subgroups(g)
                             if k.mask != hmask and not hmask & ~k.mask])


def elementary_abelian_euler_formula(p, n):
    """(-1)^n p^(n choose 2); math.comb makes (0 2) = (1 2) = 0."""
    return (-1) ** n * p ** comb(n, 2)


def homology_tables_equal(a, b):
    degrees = set(a) | set(b)
    trivial = HomologyGroup()
    return all(a.get(d, trivial) == b.get(d, trivial) for d in degrees)


class PosetComparison(_Record):
    __slots__ = ("left_size", "right_size", "left_homology", "right_homology",
                 "equal")

    left_size: int
    right_size: int
    left_homology: dict
    right_homology: dict
    equal: bool


def quillen_thevenaz_check(g):
    """Compare reduced homology of the nilpotent and elementary abelian
    subgroup posets of g."""
    n1 = subgroup_poset(g, "nilpotent")
    a1 = subgroup_poset(g, "elementary-abelian")
    hn = n1.reduced_homology()
    ha = a1.reduced_homology()
    return PosetComparison(len(n1), len(a1), hn, ha,
                           homology_tables_equal(hn, ha))


class WeylPosetReport(_Record):
    __slots__ = ("subgroup", "comparison")

    subgroup: object
    comparison: PosetComparison


def weyl_poset_check(g, h):
    """For a p-group g: compare the poset above h with the nontrivial
    subgroup poset of the Weyl group N_g(h)/h, in reduced homology.

    By the correspondence theorem that poset is the interval of subgroups
    K with h < K <= N_g(h), read from g's lattice by the mask of N_g(h);
    no lattice of N_g(h) is built.  h may be g or a list of elements, as
    for poset_strictly_above; the report holds it as a Subgroup of g's
    group.
    """
    require_p_group(g)
    h = Subgroup._of(g.group, g.group._mask_of(h, "h lies outside the group"))
    above = poset_strictly_above(g, h)
    nmask = normalizer(g, h).mask
    weyl = _inclusion_poset([k for k in above.elements if not k.mask & ~nmask])
    ha = above.reduced_homology()
    hw = weyl.reduced_homology()
    cmp = PosetComparison(len(above), len(weyl), ha, hw,
                          homology_tables_equal(ha, hw))
    return WeylPosetReport(h, cmp)
