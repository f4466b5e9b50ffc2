"""Finite posets of subgroups, their order complexes, and poset checks.

The poset families used throughout: all nontrivial subgroups, nontrivial
nilpotent subgroups, nontrivial elementary abelian subgroups, and proper
nontrivial subgroups.  Euler characteristics are augmented (the empty
chain counts with sign -1).
"""

from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import InputError
from .exactlin import HomologyGroup
from .permgrp import (all_subgroups, is_elementary_abelian,
                      is_elementary_abelian_any, is_nilpotent, normalizer,
                      require_p_group)
from .simp import _adjacency, _cliques, complex_of_chains

FILTERS = ("nontrivial", "nilpotent", "elementary-abelian", "proper-nontrivial")


class FinitePoset:
    """A finite strict poset over opaque elements with string labels."""

    __slots__ = ("elements", "labels", "lt")

    def __init__(self, elements, lt_pairs, labels=None, check=True):
        self.elements = tuple(elements)
        n = len(self.elements)
        if labels is None:
            labels = tuple("x%d" % i for i in range(n))
        self.labels = tuple(labels)
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise InputError("labels must be distinct and match the elements")
        self.lt = frozenset(lt_pairs)
        if check:
            self._validate()

    def _validate(self):
        n = len(self.elements)
        for i, j in self.lt:
            if not (0 <= i < n and 0 <= j < n):
                raise InputError("relation index out of range")
            if i == j:
                raise InputError("strict order must be irreflexive")
            if (j, i) in self.lt:
                raise InputError("strict order must be antisymmetric")
        for i, j in self.lt:
            for k in range(n):
                if (j, k) in self.lt and (i, k) not in self.lt:
                    raise InputError("strict order must be transitive")

    def __len__(self):
        return len(self.elements)

    def order_complex(self):
        pairs = [(self.labels[i], self.labels[j]) for i, j in self.lt]
        return complex_of_chains(self.labels, pairs)

    def chain_counts(self):
        """c[k] = number of chains with k + 1 elements, k >= 0: the f-vector
        of the order complex, counted without building it."""
        sizes = Counter(map(len, _cliques(_adjacency(range(len(self)), self.lt))))
        return tuple(sizes[k] for k in range(1, len(sizes) + 1))

    def augmented_euler(self):
        """-1 + sum over k of (-1)^k (number of k-chains)."""
        total = -1
        for k, c in enumerate(self.chain_counts()):
            total += (-1) ** k * c
        return total

    def reduced_homology(self):
        return self.order_complex().reduced_homology()


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
    subs = sorted(subs, key=lambda s: (s.order, s.key))
    labels = tuple("H%d" % i for i in range(len(subs)))
    pairs = {(i, j) for i in range(len(subs)) for j in range(i + 1, len(subs))
             if subs[i] < subs[j]}
    return FinitePoset(subs, pairs, labels=labels, check=False)


def poset_strictly_above(g, h):
    """Poset of subgroups K with h < K <= g."""
    subs = [k for k in all_subgroups(g) if h < k]
    return _inclusion_poset(subs)


def elementary_abelian_euler_formula(p, n):
    """(-1)^n p^(n choose 2); math.comb makes (0 2) = (1 2) = 0."""
    return (-1) ** n * p ** comb(n, 2)


def homology_tables_equal(a, b):
    degrees = set(a) | set(b)
    trivial = HomologyGroup()
    return all(a.get(d, trivial) == b.get(d, trivial) for d in degrees)


@dataclass
class PosetComparison:
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


@dataclass
class WeylPosetReport:
    subgroup: object
    comparison: PosetComparison


def weyl_poset_check(g, h):
    """For a p-group g: compare the poset above h with the nontrivial
    subgroup poset of the Weyl group N_g(h)/h, in reduced homology.

    By the correspondence theorem that poset is the interval of subgroups
    K with h < K <= N_g(h), so it is read from the lattice of N_g(h).
    """
    require_p_group(g)
    above = poset_strictly_above(g, h)
    weyl = poset_strictly_above(normalizer(g, h), h)
    ha = above.reduced_homology()
    hw = weyl.reduced_homology()
    cmp = PosetComparison(len(above), len(weyl), ha, hw,
                          homology_tables_equal(ha, hw))
    return WeylPosetReport(h, cmp)
