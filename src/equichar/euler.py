"""Equivariant Euler characteristics for K acting on a flag complex L.

The ambient group is the semidirect product of a finite group K with the
right-angled Artin group on L; its classifying-space Euler characteristic
decomposes over conjugacy classes of subgroups of K with exact rational
coefficients.  Three routes compute them; the independent checks are
tests/helpers.orbit_count_euler_class and helpers.weyl_sum:

- euler_class and euler_class_coefficient count simplices by stabilizer
  class (K. S. Brown, "Complete Euler characteristics and fixed-point
  theory", JPAA 1982): signed sums of the action's lists of simplices
  per stabilizer mask.  This holds for every finite K.
- The paper's weighted sum holds for p-groups only.  At H = 1 it runs
  over the classes of elementary abelian subgroups, behind
  free_coefficient and vanishing_identity, on the caller's chi values.
- euler_class_cyclic telescopes a cyclic p-group's class from the fixed
  complexes of its subgroup tower, unions of those same lists.
"""

from fractions import Fraction

from .errors import InputError, PreconditionError
from .exactlin import _exponent
from .permgrp import (Subgroup, _bits, _conjugates, _conjugations,
                      _inner_mask, _lattice, conjugacy_classes_of_subgroups,
                      is_cyclic, is_elementary_abelian,
                      is_elementary_abelian_any, require_p_group)
from .posets import elementary_abelian_euler_formula


class EulerClass:
    """A formal rational combination of cosets [G/H] over class representatives."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = {h: c if type(c) is Fraction else Fraction(c)
                             for h, c in coefficients.items()}

    def entries(self):
        """(subgroup, coefficient) pairs, smallest subgroups first."""
        return sorted(self.coefficients.items(), key=lambda hc: (hc[0].order, hc[0].key))

    def coefficient(self, h):
        return self.coefficients.get(h, Fraction(0))

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coefficients.values())

    def __eq__(self, other):
        if not isinstance(other, EulerClass):
            return NotImplemented
        keys = set(self.coefficients) | set(other.coefficients)
        return all(self.coefficient(h) == other.coefficient(h) for h in keys)

    def __hash__(self):
        return hash(frozenset((h.key, c) for h, c in self.coefficients.items() if c))

    def format_text(self):
        return _format_terms([(c, h.describe()) for h, c in self.entries()])

    def __repr__(self):
        return "EulerClass(%s)" % self.format_text()


def _format_terms(terms):
    """The text of an Euler class from its (coefficient, subgroup name)
    pairs: "c1·[Γ/name1] + c2·[Γ/name2] - ...", or "0" for no terms."""
    if not terms:
        return "0"
    (c, name), rest = terms[0], terms[1:]
    out = ["%s·[Γ/%s]" % (c, name)]
    for c, name in rest:
        out.append("%s%s·[Γ/%s]" % (" + " if c >= 0 else " - ", abs(c), name))
    return "".join(out)


def elementary_abelian_classes(k):
    """Conjugacy classes of elementary abelian subgroups, trivial included."""
    return [cls for cls in conjugacy_classes_of_subgroups(k)
            if cls.rep.is_trivial or is_elementary_abelian_any(cls.rep)]


def _chi_lookup(table, cls):
    if cls.rep in table:
        return table[cls.rep]
    for member in cls.members:
        if member in table:
            return table[member]
    raise InputError("chi table is missing the class of %s" % cls.rep.describe())


def free_coefficient(k, chi):
    """Weighted sum over the elementary abelian subgroups E of k.

    chi maps class representatives (any member works) to integers, usually
    Euler characteristics of centralizer pieces.  Each E of rank n for the
    prime p contributes (-1)^n p^(n choose 2) / |k| times the chi value of
    its class, E = 1 included with weight 1.  With chi(E) = 1 - chi(L^E)
    for an action on L it is euler_class_coefficient for h = 1.
    """
    return _elementary_abelian_sum(k, lambda cls: _chi_lookup(chi, cls))


def vanishing_identity(k):
    """Sum of the signed elementary abelian weights; zero for nontrivial k.

    This is free_coefficient with every chi value set to 1, which must
    vanish whenever k is a nontrivial p-group.
    """
    if k.order == 1:
        raise PreconditionError("identity holds only for nontrivial groups")
    return _elementary_abelian_sum(k, lambda cls: 1)


def _elementary_abelian_sum(k, chi):
    """The sum of free_coefficient for the p-group k, one term per class
    C of elementary abelian subgroups, |C| times the weight of its
    representative times chi(C); the trivial class weighs 1, also when k
    is trivial and has no prime."""
    p = require_p_group(k)
    total = 0
    for cls in elementary_abelian_classes(k):
        weight = 1
        if not cls.rep.is_trivial:
            rank = _exponent(cls.rep.order, p)
            weight = elementary_abelian_euler_formula(p, rank)
        total += cls.size * weight * chi(cls)
    return Fraction(total, k.order)


def euler_class_coefficient(action, h):
    """Coefficient of the class of h; any member of the class may be passed.

    It is |h| / |K| times the signed count of the simplices whose
    stabilizer is conjugate to h (see euler_class), read from the lists
    of the masks in the conjugacy orbit of h's mask, so no subgroup
    lattice is built; the trivial and the whole subgroup are their own
    orbits, so for them no multiplication table is built either.
    """
    action.require_admissible()
    k = action.group
    if not isinstance(h, Subgroup):
        if h is not k:
            raise InputError("h must be a subgroup of the acting group")
        h = k.whole()
    hmask = _inner_mask(k, h)
    if hmask in (1, k.mask):
        orbit = [hmask]
    else:
        conjugations = _conjugations(k, k._generator_numbers())
        orbit = _conjugates(conjugations, hmask, _bits(hmask), {})
    table = action._by_mask()
    total = (hmask == k.mask) - sum(1 if len(s) % 2 else -1
                                    for m in orbit for s in table.get(m, ()))
    return Fraction(total * h.order, k.order)


def euler_class(action):
    """Equivariant Euler class of the action of any finite group K.

    The coefficient of the class (H) is |H| / |K| times the sum of
    (-1)^|s| over the simplices s of L with stabilizer K_s in (H), the
    empty simplex included with stabilizer K: each K-orbit of simplices
    with stabilizer conjugate to H has |K : H| members.  An admissible
    action fixes a simplex setwise only pointwise, so K_s is the AND of
    the stabilizer masks of its vertices; the action lists the simplices
    per mask, and each mask is mapped to its class once.
    """
    action.require_admissible()
    k = action.group
    lattice = _lattice(k)
    totals = dict.fromkeys(lattice.classes, 0)
    totals[lattice.class_of(k.mask)] = 1
    for m, simplices in action._by_mask().items():
        totals[lattice.class_of(m)] -= sum(1 if len(s) % 2 else -1
                                           for s in simplices)
    return EulerClass({cls.rep: Fraction(t * cls.rep.order, k.order)
                       for cls, t in totals.items()})


def euler_class_cyclic(action):
    """Telescoped Euler class for a cyclic p-group K = <x> of order p^n.

    With K_i = <x^(p^i)>: the top class K_0 = K carries 1 - chi(fixed of K);
    each K_i below carries (chi of the fixed complex of K_(i-1) minus chi
    of the fixed complex of K_i) / p^i.
    """
    action.require_admissible()
    k = action.group
    p = require_p_group(k)
    if not is_cyclic(k):
        raise PreconditionError("group of order %d is not cyclic" % k.order)
    if p is None:  # the trivial group fixes all of L
        return EulerClass({k.whole(): 1 - action.complex.euler_characteristic()})
    x = min((g for g in k.elements if g.order() == k.order), key=lambda g: g.key)
    n = _exponent(k.order, p)
    towers = [k.subgroup_generated([x ** (p ** i)]) for i in range(n + 1)]
    chis = [action.fixed_subcomplex(t).euler_characteristic() for t in towers]
    coeffs = {towers[0]: Fraction(1 - chis[0])}
    for i in range(1, n + 1):
        coeffs[towers[i]] = Fraction(chis[i - 1] - chis[i], p ** i)
    return EulerClass(coeffs)


class AcyclicityReport:
    """Outcome of the vertex-cover criterion for one-dimensional acyclicity."""

    __slots__ = ("holds", "uncovered", "scope")

    def __init__(self, holds, uncovered, scope):
        self.holds = holds
        self.uncovered = tuple(uncovered)
        self.scope = scope

    def __repr__(self):
        if self.holds:
            return "AcyclicityReport(holds, scope=%s)" % self.scope
        return "AcyclicityReport(fails, uncovered=%r)" % (list(self.uncovered),)


def acyclicity_condition(action, force=False):
    """Check that every vertex is fixed by a nontrivial proper subgroup of K.

    By default K must be elementary abelian of rank 2 (the theorem scope);
    with force any p-group is accepted and the report is marked as remark
    scope.  Returns the verdict and the sorted uncovered vertices.
    """
    action.require_admissible()
    k = action.group
    p = require_p_group(k)
    if p is None:
        raise PreconditionError("acting group is trivial")
    if not force:
        if not (k.order == p * p and is_elementary_abelian(k, p)):
            raise PreconditionError(
                "criterion needs an elementary abelian group of rank 2; "
                "pass force for the general p-group variant")
        scope = "theorem"
    else:
        scope = "remark"
    # a nontrivial stabilizer holds an element of order p, whose cyclic
    # group is proper unless |K| = p; the trivial one has mask 1.  The
    # stabilizers are kept in sorted vertex order.
    uncovered = [v for v, m in action._stabilizers.items()
                 if m == 1 or k.order == p]
    return AcyclicityReport(not uncovered, uncovered, scope)
