"""Equivariant Euler characteristics for K acting on a flag complex L.

The ambient group is the semidirect product of a finite p-group K with the
right-angled Artin group on L; its classifying-space Euler characteristic
decomposes over conjugacy classes of subgroups of K with exact rational
coefficients.  Two independent routes are implemented: the general
weighted-sum formula (euler_class) and a telescope for cyclic K
(euler_class_cyclic); they must agree on cyclic inputs.  The general route
reads chi(L^E) off the action's vertex stabilizer masks without building
L^E; the telescope builds each fixed complex, so the two routes share no
fixed-set code.
"""

from fractions import Fraction

from .errors import InputError, PreconditionError
from .exactlin import _exponent
from .permgrp import (Subgroup, _inner_mask, _lattice, _prime_of_order,
                      conjugacy_classes_of_subgroups, is_cyclic,
                      is_elementary_abelian, is_elementary_abelian_any,
                      require_p_group)
from .posets import elementary_abelian_euler_formula


class EulerClass:
    """A formal rational combination of cosets [G/H] over class representatives."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = {h: Fraction(c) for h, c in coefficients.items()}

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
    its class, E = 1 included with weight 1.  This is the sum of
    euler_class_coefficient for h = 1.
    """
    require_p_group(k)
    return _weyl_sum(k, k.group.trivial_subgroup(), lambda cls: _chi_lookup(chi, cls))


def vanishing_identity(k):
    """Sum of the signed elementary abelian weights; zero for nontrivial k.

    This is free_coefficient with every chi value set to 1, which must
    vanish whenever k is a nontrivial p-group.
    """
    if len(k.elements) == 1:
        raise PreconditionError("identity holds only for nontrivial groups")
    require_p_group(k)
    return _weyl_sum(k, k.group.trivial_subgroup(), lambda cls: 1)


def euler_class_coefficient(action, h):
    """Coefficient of the class of h; any member of the class may be passed.

    It is the free coefficient of the Weyl group N/h, N the normalizer of
    h, acting on L^h; since (L^h)^(E/h) = L^E, it is a sum over single
    subgroups E of the acting group K:

        |h| |(h)| / |K| * sum of (-1)^n p^(n choose 2) (1 - chi(L^E))

    over the E with h normal in E and E/h elementary abelian of rank n,
    E = h included; |(h)| is the size of the class of h, and
    |K| / |(h)| = |N|.
    """
    action.require_admissible()
    k = action.group
    if not isinstance(h, Subgroup):
        if h is not k:
            raise InputError("h must be a subgroup of the acting group")
        h = k.whole()

    def chi(cls):
        return 1 - action._fixed_euler(cls.rep)
    return _weyl_sum(k, h, chi)


def _weyl_sum(k, h, chi):
    """|h| |(h)| / |k| times the sum, over the subgroups E of k with h
    normal in E and E/h elementary abelian of rank n, of
    (-1)^n p^(n choose 2) chi(class of E).

    This is the sum over the classes of elementary abelian subgroups of the
    Weyl group N_k(h)/h, each weighted by its size over |N_k(h)|, taken one
    subgroup at a time: no normalizer and no conjugation orbit is needed.
    p is the prime of |N_k(h) : h| = |k| / (|(h)| |h|); the subgroups E
    and their classes are read from k's memoised lattice.
    """
    hmask = _inner_mask(k, h)
    lattice = _lattice(k)
    cls = lattice.class_of(hmask)
    p = _prime_of_order(k.order // (cls.size * h.order))
    if p is None:  # h = N_k(h), so E = h alone
        return Fraction(chi(cls))
    total = 0
    for e in lattice.sections(hmask, p):
        rank = _exponent(e.order // h.order, p)
        weight = elementary_abelian_euler_formula(p, rank)
        total += weight * chi(lattice.class_of(e.mask))
    return Fraction(total * h.order * cls.size, k.order)


def euler_class(action):
    """Equivariant Euler class of a p-group action, over all subgroup classes.

    1 - chi(L^E) is computed once per class of E, for all the
    coefficients.
    """
    action.require_admissible()
    k = action.group
    require_p_group(k)
    values = {}

    def chi(cls):
        value = values.get(cls)
        if value is None:
            value = values[cls] = 1 - action._fixed_euler(cls.rep)
        return value
    return EulerClass({cls.rep: _weyl_sum(k, cls.rep, chi)
                       for cls in conjugacy_classes_of_subgroups(k)})


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
    if p is None:
        fixed = action.fixed_subcomplex(k.whole())
        return EulerClass({k.whole(): Fraction(1 - fixed.euler_characteristic())})
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
