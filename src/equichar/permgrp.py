"""Finite permutation groups on numbered elements.

An element is stored once, as its int image tuple on the sorted point
list: key[i] is the position of the image of points[i].  The positions are
monotone in the point names, so these keys sort exactly like the tuples of
image names would.  A group is always closed from its generators, and its
elements sort by key, which makes every listing deterministic, puts the
identity first and numbers each element by its place in that order.  One
index maps keys to numbers, and only FiniteGroup._mask_of turns a subgroup
or the elements given by a caller into a mask of numbers; on first use a
group also builds a multiplication table and an inverse table over the
numbers and keeps them on the instance, so a group that is only asked for
its order never pays for a table.  The generators' rows of that table are
the products the closure computed, kept as element numbers, so the table
composes no tuple; every other row is read off the row of a generator and
a row already filled.

One closure routine, _close_under_products, discovers group elements, in
whichever encoding its product function works on: int image tuples when a
group is closed from its generators, paired tuples for the graph of a
homomorphism, and element numbers, through table rows, for every subgroup
generated inside a group.

A subgroup is an int bitmask over element numbers (bit i set when element i
belongs to it); a FiniteGroup is its own whole subgroup, with ``group``
itself and ``mask`` covering every element, so every function below takes
either.  Conjugation, normalizers, centralizers, commutation tests and the
joins of subgroups are table lookups; conjugation by x maps each element
number y to that of x^-1 y x, read off the column of x and the row of
x^-1.  The subgroup lattice comes from cyclic extension (Neubüser 1960;
Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005):
every subgroup is a join of cyclic subgroups of prime-power order, so
joining one member H of each known conjugacy class with such cyclic
subgroups <x> reaches all of them.  Two rules skip the joins that cannot
find a new subgroup.  The power rule joins <x> of order p^k with H only when
x^p lies in H.  The cover rule skips every <x> inside a join J of prime
index over H, since such a J is a minimal overgroup of H and each of them
would give J again.  Neither loses a subgroup: each K > 1 is a minimal
overgroup of one of its maximal subgroups M, so a conjugate of K is <H, z>
for the processed representative H of M's class and any z of that conjugate
outside H.  One such z has prime-power order and z^p in H: take the last of
the p-th powers of a prime-power element outside H that still lies outside
H (_cyclic_extension gives the details).  A join with an x that normalizes H
is the union of p cosets of H, translated on the multiplication table with
no closure.  In a solvable group (every group whose order has at most two
prime divisors, or whose derived series ends in 1) the joins with an x
outside the normalizer of H are skipped too: each K > 1 there has a normal
subgroup of prime index, so the z above can be taken to normalize H
(Neubüser's method for solvable groups).  The lattice stays on element
numbers from the sweep to the output: each subgroup the sweep finds keeps
the sorted element numbers it was listed by, and each conjugate is encoded
into its mask in one pass and listed only when it is new.  The lattice and
its conjugacy classes, which share their Subgroup objects, are memoised on
the group, per subgroup mask; callers always get a fresh list.
"""

import re
from itertools import repeat
from math import lcm
from operator import itemgetter

from .errors import InputError, PreconditionError, ResourceLimitError
from .exactlin import (_exponent, _factor, _require_prime, is_prime,
                       prime_power_base)

DEFAULT_ORDER_BOUND = 20000
_CYCLE_GAP = re.compile(r"\)\s*\(")  # between two cycles


class Permutation:
    """A permutation of a fixed finite set of named points.

    key is the int image tuple on the sorted points, the one encoding that
    products, inverses, orders, equality and sorting work on; mapping,
    {point: image}, is the named view behind calling and cycle notation,
    built on first use.
    """

    __slots__ = ("points", "key", "_mapping")

    def __init__(self, points, mapping):
        points = _sorted_points(points)
        if set(mapping) != set(points):
            raise InputError("permutation domain does not match point set")
        if set(mapping.values()) != set(points):
            raise InputError("permutation is not a bijection")
        pos = {p: i for i, p in enumerate(points)}
        self.points = points
        self.key = tuple(pos[mapping[p]] for p in points)
        self._mapping = dict(mapping)

    @classmethod
    def _of(cls, points, key):
        """The permutation of the sorted point tuple with int image tuple key."""
        g = object.__new__(cls)
        g.points = points
        g.key = key
        g._mapping = None
        return g

    @classmethod
    def identity(cls, points):
        points = _sorted_points(points)
        return cls._of(points, tuple(range(len(points))))

    @classmethod
    def from_cycles(cls, points, text):
        """Parse disjoint cycle notation like "(1 2)(3 4)"; "()" is the identity.

        The key is written straight from the cycles: every named point is
        known and none is repeated, so the cycles make a bijection."""
        points = _sorted_points(points)
        pos = {p: i for i, p in enumerate(points)}
        key = list(range(len(points)))
        seen = bytearray(len(points))
        for names in _cycle_names(text):
            cycle = []
            for name in names:
                i = pos.get(name)
                if i is None:
                    raise InputError("unknown point %r in %r" % (name, text))
                if seen[i]:
                    raise InputError("point %r repeated; cycles must be disjoint" % name)
                seen[i] = 1
                cycle.append(i)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                key[a] = b
        return cls._of(points, tuple(key))

    @property
    def mapping(self):
        if self._mapping is None:
            pts = self.points
            self._mapping = dict(zip(pts, map(pts.__getitem__, self.key)))
        return self._mapping

    def __call__(self, x):
        return self.mapping[x]

    def __mul__(self, other):
        """Composition: (g * h)(x) = g(h(x))."""
        if self.points != other.points:
            raise InputError("permutations act on different point sets")
        return Permutation._of(self.points, _compose(self.key, other.key))

    def inverse(self):
        inv = [0] * len(self.key)
        for i, j in enumerate(self.key):
            inv[j] = i
        return Permutation._of(self.points, tuple(inv))

    def __pow__(self, n):
        """Square and multiply on the keys, with no factor of the identity."""
        if n < 0:
            return self.inverse() ** (-n)
        out, base = None, self.key
        while n:
            if n & 1:
                out = base if out is None else _compose(out, base)
            n >>= 1
            if n:
                base = _compose(base, base)
        return Permutation._of(self.points, out or tuple(range(len(base))))

    @property
    def is_identity(self):
        return all(i == j for i, j in enumerate(self.key))

    def order(self):
        return _cycle_order(self.key)

    def cycles(self):
        """Non-singleton cycles, each starting at its least point."""
        # a cycle has two or more positions, so itemgetter gives a tuple
        return [itemgetter(*c)(self.points) for c in _cycles(self.key)]

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(c) + ")" for c in cycs)

    def __repr__(self):
        return "Permutation(%s)" % self

    def __eq__(self, other):
        return (isinstance(other, Permutation)
                and self.points == other.points and self.key == other.key)

    def __hash__(self):
        return hash((self.points, self.key))

    def __lt__(self, other):
        return self.key < other.key


def _cycle_names(text):
    """The cycles of the cycle notation text as lists of point names, [] for
    the identity "" or "()".  Whitespace may separate the cycles, and
    whitespace or commas the names; a name never holds a parenthesis."""
    body = text.strip()
    if body in ("", "()"):
        return []
    if not body.startswith("(") or not body.endswith(")"):
        raise InputError("cycle notation must be parenthesized: %r" % text)
    cycles = []
    for chunk in _CYCLE_GAP.split(body[1:-1]):
        names = chunk.replace(",", " ").split()
        if len(names) < 2:
            raise InputError("cycle needs at least two points: %r" % chunk)
        if "(" in chunk or ")" in chunk:
            name = next(n for n in names if "(" in n or ")" in n)
            raise InputError("unknown point %r in %r" % (name, text))
        cycles.append(names)
    return cycles


def _sorted_points(points):
    """The points as a sorted tuple; a point listed twice is an InputError."""
    points = tuple(sorted(points))
    for p, q in zip(points, points[1:]):
        if p == q:
            raise InputError("duplicate point %r" % (p,))
    return points


def _compose(a, b):
    """The int image tuple of a * b, the composition a(b(x))."""
    return tuple(map(a.__getitem__, b))


def _close_under_products(generators, times, bound, base):
    """Set of all products of the generators, in any element encoding.

    times(a, b) is the product a * b, and base lists the elements of a
    subgroup B, the identity first, whose generators must be among the
    generators.  The set grows by whole left cosets t*B: each new coset
    representative t is a generator times a known representative
    (Dimino's method).
    """
    elements = set(base)
    reps = [base[0]]
    for r in reps:
        for g in generators:
            t = times(g, r)
            if t not in elements:
                elements.update(map(times, repeat(t), base))
                reps.append(t)
                if len(elements) > bound:
                    raise ResourceLimitError(
                        "group closure exceeded max_order=%d (elements "
                        "found: %d)" % (bound, len(elements)))
    return elements


def _mask(numbers):
    """Mask of the element numbers."""
    mask = 0
    for t in numbers:
        mask |= 1 << t
    return mask


def _bits(mask):
    """Element numbers in a mask, ascending.  They are read from the top
    bit down, so each step works on an int no longer than the bits left."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _cycles(images):
    """The cycles of length at least 2 of an int image tuple, each a list
    of positions starting at its least one, in the order of those."""
    seen = bytearray(len(images))
    for start, i in enumerate(images):
        if i == start or seen[start]:
            continue
        cycle = [start]
        while i != start:
            cycle.append(i)
            seen[i] = 1
            i = images[i]
        yield cycle


def _cycle_order(images):
    """Order of a permutation from the lengths of its cycles."""
    return lcm(*map(len, _cycles(images)))


class FiniteGroup:
    """A permutation group, closed from its generators.

    elements lists every element sorted by key, the identity first; _index
    maps each key to its element number.
    """

    def __init__(self, points, generators, max_order=DEFAULT_ORDER_BOUND):
        self.points = pts = _sorted_points(points)
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                raise InputError("generator %r is not a permutation" % (g,))
            if g.points != pts:
                raise InputError("generator acts on the wrong point set")
            if not g.is_identity:
                gens.append(g)
        self.generators = tuple(gens)
        # products[g] lists the pairs (r, g * r) the closure computes, one
        # for every element r but the identity; they become g's table row.
        # The closure also takes each new element times its base, the
        # identity alone, which needs no product
        identity = tuple(range(len(pts)))
        products = {g.key: [] for g in gens}

        def times(a, b):
            if b is identity:
                return a
            t = _compose(a, b)
            products[a].append((b, t))
            return t

        keys = sorted(_close_under_products(list(products), times, max_order,
                                            [identity]))
        self.elements = tuple(Permutation._of(pts, t) for t in keys)
        self.identity = self.elements[0]
        self._index = index = {t: i for i, t in enumerate(keys)}
        self._gen_rows = []
        for g in gens:
            row = [0] * len(keys)
            row[0] = index[g.key]
            for r, t in products[g.key]:
                row[index[r]] = index[t]
            self._gen_rows.append(row)
        self._mul = None
        self._inv = None
        self._orders = None
        self._lattices = {}

    # ------------------------------------------------ numbered elements

    def _tables(self):
        """(mul, inv): mul[a][b] numbers elements[a] * elements[b].

        The generators' rows are the products the closure computed, kept as
        element numbers, so no tuple is composed here.  Every other row is
        the row of a product e = a * r of a generator a and an element r
        whose row is known: e * b = a * (r * b).  Every element is already
        numbered, so this walk from the identity only picks an order in
        which to fill the rows.
        """
        if self._mul is None:
            gen_rows = self._gen_rows
            mul = [None] * len(self.elements)
            mul[0] = list(range(len(self.elements)))
            filled = [0]
            for r in filled:
                row_r = mul[r]
                for row_a in gen_rows:
                    e = row_a[r]
                    if mul[e] is None:
                        mul[e] = list(map(row_a.__getitem__, row_r))
                        filled.append(e)
            self._mul = mul
            self._inv = [row.index(0) for row in mul]
        return self._mul, self._inv

    def _element_orders(self):
        if self._orders is None:
            self._orders = [_cycle_order(t) for t in self._index]
        return self._orders

    def _mask_of(self, elements, outside):
        """Mask over the element numbers of a subgroup of this group, or of
        any iterable of elements; an element that lies outside the group
        raises InputError(outside)."""
        if isinstance(elements, (Subgroup, FiniteGroup)) and elements.group is self:
            return elements.mask
        index = self._index
        mask = 0
        for g in elements:
            if g not in self:
                raise InputError(outside)
            mask |= 1 << index[g.key]
        return mask

    def _generate(self, numbers, bound, base=1):
        """Mask of the subgroup generated by the numbered elements and the
        subgroup mask base, whose generators must be among them."""
        mul = self._tables()[0]
        return _mask(_close_under_products(numbers, lambda a, b: mul[a][b],
                                           bound, _bits(base)))

    # ------------------------------------------------ public interface

    @property
    def group(self):
        return self

    @property
    def mask(self):
        return (1 << len(self.elements)) - 1

    def _element_numbers(self):
        return range(len(self.elements))

    def _generator_numbers(self):
        index = self._index
        return [index[g.key] for g in self.generators]

    @property
    def order(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return (isinstance(g, Permutation) and g.points == self.points
                and g.key in self._index)

    def subgroup_generated(self, gens):
        numbers = _bits(self._mask_of(gens, "generator lies outside the group"))
        return Subgroup._of(self, self._generate(numbers, self.order))

    def whole(self):
        return Subgroup._of(self, self.mask)

    def trivial_subgroup(self):
        return Subgroup._of(self, 1)

    def __repr__(self):
        return "FiniteGroup(order=%d, points=%r)" % (self.order, list(self.points))


def group_from_generators(points, generators, max_order=DEFAULT_ORDER_BOUND):
    """Close a generator list into a FiniteGroup; the bound guards runaways."""
    return FiniteGroup(points, generators, max_order=max_order)


def homomorphism_images(group, points, generator_images):
    """{element key: Permutation of points} of the homomorphism extending
    generator_images, a map from each generator of group to a permutation
    of points (the vertices acted on); keys come in element-number order.

    The pairs (g, image of g) act on the disjoint union of group.points and
    points, and the subgroup they generate is the graph of a homomorphism
    exactly when its elements have distinct first parts.  The group is
    closed from the same generators, so the first parts then cover it.
    """
    points = tuple(sorted(points))
    gens = group.generators
    imgs = []
    for g in gens:
        img = generator_images.get(g)
        if img is None:
            raise InputError("no image given for generator %s" % g)
        if not isinstance(img, Permutation):
            raise InputError("image of %s is not a permutation" % g)
        if img.points != points:
            raise InputError("image of %s does not permute the vertices" % g)
        imgs.append(img)
    n = len(group.points)
    pairs = [g.key + tuple(n + i for i in img.key) for g, img in zip(gens, imgs)]
    broken = "generator images do not define a homomorphism"
    try:
        graph = _close_under_products(pairs, _compose, group.order,
                                      [tuple(range(n + len(points)))])
    except ResourceLimitError:
        raise InputError(broken) from None
    index = group._index
    second = {index[t[:n]]: tuple(j - n for j in t[n:]) for t in graph}
    if len(second) < len(graph):
        raise InputError(broken)
    return {group.elements[i].key: Permutation._of(points, second[i])
            for i in sorted(second)}


class Subgroup:
    """A subgroup of a FiniteGroup: a mask over its element numbers.

    The ascending element numbers, the sorted element tuple and the tuple
    of their keys are decoded from the mask on first use and kept; the
    subgroup lattice hands over the numbers it listed, so its subgroups
    never decode them.
    """

    __slots__ = ("group", "mask", "_numbers", "_elements", "_key",
                 "_generators")

    def __init__(self, group, elements):
        mask = group._mask_of(elements, "subgroup element lies outside the group")
        if not mask & 1:
            raise InputError("subgroup must contain the identity")
        # the greedy generators close inside the bound |mask| exactly when
        # the elements are closed under products
        try:
            generators = tuple(_generating_numbers(group, mask))
        except ResourceLimitError:
            raise InputError("subgroup elements are not closed under "
                             "products") from None
        self._fill(group, mask, None)
        self._generators = generators

    @classmethod
    def _of(cls, group, mask, numbers=None):
        """The subgroup of group with this mask; numbers, when given, lists
        the mask's element numbers ascending."""
        h = object.__new__(cls)
        h._fill(group, mask, numbers)
        return h

    def _fill(self, group, mask, numbers):
        self.group = group
        self.mask = mask
        self._numbers = numbers
        self._elements = None
        self._key = None
        self._generators = None

    def _element_numbers(self):
        """The element numbers of the subgroup, ascending."""
        if self._numbers is None:
            self._numbers = _bits(self.mask)
        return self._numbers

    @property
    def elements(self):
        if self._elements is None:
            self._elements = tuple(map(self.group.elements.__getitem__,
                                       self._element_numbers()))
        return self._elements

    @property
    def key(self):
        if self._key is None:
            self._key = tuple(g.key for g in self.elements)
        return self._key

    @property
    def order(self):
        return self.mask.bit_count()

    @property
    def is_trivial(self):
        return self.order == 1

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        group = self.group
        return g in group and bool(self.mask >> group._index[g.key] & 1)

    def __le__(self, other):
        if self.group is other.group:
            return not self.mask & ~other.mask
        return all(x in other for x in self.elements)

    def __lt__(self, other):
        if self.group is other.group:
            return self.mask != other.mask and not self.mask & ~other.mask
        return self.order < other.order and self <= other

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.key == other.key
                and self.group.points == other.group.points)

    def __hash__(self):
        return hash(self.key)

    def generating_set(self):
        """Greedy deterministic generating list (empty for the trivial subgroup)."""
        return tuple(map(self.group.elements.__getitem__, self._generator_numbers()))

    def _generator_numbers(self):
        """The element numbers of generating_set(), found once per object."""
        if self._generators is None:
            self._generators = tuple(_generating_numbers(self.group, self.mask))
        return self._generators

    def describe(self):
        """Readable name: "1" for trivial, else generators in cycle notation."""
        return _subgroup_name([str(g) for g in self.generating_set()])

    def __repr__(self):
        return "Subgroup(order=%d, %s)" % (self.order, self.describe())


def _subgroup_name(generators):
    """Subgroup.describe() of the subgroup with these generator strings."""
    return "⟨" + ", ".join(generators) + "⟩" if generators else "1"


def _generating_numbers(group, mask):
    """Greedy generators of a subgroup mask: each element, in order, that
    the ones before it do not generate."""
    gens = []
    have = 1
    for i in _bits(mask):
        if not have >> i & 1:
            gens.append(i)
            have = group._generate(gens, mask.bit_count(), have)
            if have == mask:
                break
    return gens


def _inner_mask(g, h):
    """Mask of h in the numbering of g's group; h must lie inside g."""
    outside = "not a subgroup of the ambient group"
    mask = g.group._mask_of(h, outside)
    if mask & ~g.mask:
        raise InputError(outside)
    return mask


def _conjugation(mul, inv, x, numbers):
    """The element numbers x^-1 y x, for y over the element numbers in
    numbers and in their order, as an iterator that reads the column of x
    and the row of x^-1 without a Python-level loop."""
    return map(mul[inv[x]].__getitem__,
               map(itemgetter(x), map(mul.__getitem__, numbers)))


def _conjugations(group, conjugators):
    """For each element number x in conjugators, the pair (images, bits) of
    conjugation by x: images[y] numbers x^-1 y x, and bits[y] is the mask
    1 << images[y] of that one element."""
    mul, inv = group._tables()
    bit = [1 << y for y in range(len(mul))]
    pairs = []
    for x in conjugators:
        images = list(_conjugation(mul, inv, x, range(len(mul))))
        pairs.append((images, list(map(bit.__getitem__, images))))
    return pairs


class SubgroupClass:
    """A conjugacy class of subgroups; rep is the lexicographically least member."""

    __slots__ = ("rep", "members")

    def __init__(self, rep, members):
        self.rep = rep
        self.members = tuple(members)

    @property
    def size(self):
        return len(self.members)

    def __repr__(self):
        return "SubgroupClass(size=%d, rep=%s)" % (self.size, self.rep.describe())


def all_subgroups(g):
    """Every subgroup, sorted by (order, element keys).

    Memoised on g's group together with the conjugacy classes; each call
    returns a new list.
    """
    return list(_lattice(g).subgroups)


def conjugacy_classes_of_subgroups(g):
    """Conjugacy classes of subgroups of g, sorted by (order, rep key).

    Memoised on g's group together with the lattice; each call returns a
    new list.
    """
    return list(_lattice(g).classes)


def _lattice(g):
    """The _Lattice of g, memoised on its group by g's mask."""
    group = g.group
    memo = group._lattices.get(g.mask)
    if memo is None:
        memo = _Lattice(group, *_cyclic_extension(group, g.mask,
                                                  g._generator_numbers()))
        group._lattices[g.mask] = memo
    return memo


class _Lattice:
    """The subgroups and the conjugacy classes of a subgroup of group,
    which share their Subgroup objects, with the class of a subgroup by
    its mask, looked up in a map built on first use."""

    __slots__ = ("group", "subgroups", "classes", "_class_of")

    def __init__(self, group, subgroups, classes):
        self.group = group
        self.subgroups = subgroups
        self.classes = classes
        self._class_of = None

    def class_of(self, mask):
        """The SubgroupClass of the subgroup with this mask."""
        if self._class_of is None:
            self._class_of = {s.mask: c for c in self.classes
                              for s in c.members}
        return self._class_of[mask]


def _cyclic_extension(group, top, conjugators):
    """(subgroups, classes) of the subgroup top, which the element numbers
    conjugators generate, by cyclic extension.

    Every subgroup is generated by its elements of prime-power order, so
    it is a join of cyclic subgroups of prime-power order.  Starting from
    the trivial group and those cyclic subgroups, each newly found class
    representative H is joined with such cyclic subgroups <x>; a join
    outside the known classes adds its whole class.  Two kinds of join are
    never made, as neither can find a new subgroup:

    - the power rule: <x> of order p^k is joined with H only when x^p lies
      in H (x^p is kept next to the mask of <x>);
    - the cover rule: once a join J has prime index over H, J is a minimal
      overgroup of H (Lagrange), so every <x> inside J would give J again
      and none of them is joined with H.

    The sweep still reaches every subgroup K > 1; K of prime order is
    seeded.  K is a minimal overgroup of one of its maximal subgroups M,
    so some conjugate K^g is a minimal overgroup of the processed
    representative H of M's class.  An element of K^g outside H has a
    prime-power part outside H, as those parts are powers of it that
    generate it; walking down the p-th powers of that part ends in H, and
    the last one z outside H has z^p in H.  So the power rule admits <z>,
    and <H, z> = K^g by minimality.  Were <z> skipped by the cover rule, z
    would lie in a minimal overgroup J of H, and then J = <H, z> = K^g.

    Two more rules make the joins that remain cheap or skip them:

    - the coset union: when x normalizes H (x^-1 g x lies in H for each
      of the generators g of H that the sweep joined) and x^p lies in H,
      then <H, x> = H u Hx u ... u Hx^(p-1), of index p over H.  Those
      cosets are p - 1 right translations of H's listed elements on the
      multiplication table, with no closure, and the join is a cover of
      H.
    - the solvable skip: when top is solvable (_is_solvable), an x
      outside N(H) is never joined with H.  Every K > 1 in a solvable
      group has a normal subgroup M of prime index, as K/K' is a
      nontrivial abelian group, and M is maximal in K.  Run the argument
      above with that M: H = M^g is normal in K^g, so the z found there
      normalizes H, and <H, z> = K^g is a coset union.
    """
    mul, inv = group._tables()
    bound = top.bit_count()
    conjugations = _conjugations(group, conjugators)
    solvable = _is_solvable(group, top)
    bases = {}
    cyclic = {}
    for x in _bits(top)[1:]:
        row = mul[x]
        mask = 1
        y = x
        while y:
            mask |= 1 << y
            y = row[y]
        # the walk has listed <x>, so its length is the order of x
        order = mask.bit_count()
        if order not in bases:
            bases[order] = prime_power_base(order)
        p = bases[order]
        if p is None:
            continue
        # y is the identity again, and p more steps reach x^p
        for _ in range(p):
            y = row[y]
        cyclic.setdefault(mask, (x, y, p))
    # seen maps each subgroup found to its ascending element numbers
    seen = {}
    orbits = [_conjugates(conjugations, 1, [0], seen)]
    frontier = []
    for mask, (x, _, _) in cyclic.items():
        if mask not in seen:
            hs = _bits(mask)
            orbits.append(_conjugates(conjugations, mask, hs, seen))
            frontier.append((mask, (x,), hs))
    # each frontier entry lists its elements, so none is decoded again
    while frontier:
        fresh = []
        for h, gens, hs in frontier:
            covered = h
            order = len(hs)
            gen_rows = [mul[g] for g in gens]
            inside = set(hs)
            for x, xp, p in cyclic.values():
                if xp not in inside or covered >> x & 1:
                    continue
                # x normalizes H when it conjugates each generator into H
                row = mul[inv[x]]
                normal = True
                for gen_row in gen_rows:
                    if row[gen_row[x]] not in inside:
                        normal = False
                        break
                if normal:
                    joined = h
                    elements = hs
                    coset = hs
                    column = itemgetter(x)
                    for _ in range(p - 1):
                        coset = list(map(column, map(mul.__getitem__, coset)))
                        joined |= _mask(coset)
                        elements = elements + coset
                    covered |= joined
                elif solvable:
                    continue
                else:
                    joined = group._generate(gens + (x,), bound, h)
                    if is_prime(joined.bit_count() // order):
                        covered |= joined
                    elements = None
                if joined not in seen:
                    if elements is None:
                        elements = _bits(joined)
                    else:
                        elements = sorted(elements)
                    orbits.append(_conjugates(conjugations, joined, elements,
                                              seen))
                    fresh.append((joined, gens + (x,), elements))
        frontier = fresh
    by_mask = {mask: Subgroup._of(group, mask, seen[mask])
               for mask in _lattice_sorted(seen, seen)}
    by_rep = {}
    for orbit in orbits:
        # the members of a class have one order
        members = sorted(orbit, key=seen.__getitem__)
        by_rep[members[0]] = members
    classes = tuple(SubgroupClass(by_mask[rep],
                                  map(by_mask.__getitem__, by_rep[rep]))
                    for rep in _lattice_sorted(by_rep, seen))
    return tuple(by_mask.values()), classes


def _lattice_sorted(masks, seen):
    """The subgroup masks sorted by (order, key), from the ascending element
    numbers that seen maps each to: elements are numbered in key order, so
    the numbers compare as the keys do, and a stable sort by order keeps
    that order among subgroups of one order."""
    masks = sorted(masks, key=seen.__getitem__)
    masks.sort(key=int.bit_count)
    return masks


def _is_solvable(group, top):
    """Whether the subgroup mask top of group is solvable.

    A group whose order has at most two prime divisors is solvable
    (Burnside's p^a q^b theorem), which settles every p-group at once.
    Otherwise the derived series, each term generated by the commutators
    _commutator_mask lists, must reach the trivial group; it stops early
    at a perfect term.
    """
    if len(_factor(top.bit_count())) <= 2:
        return True
    while top != 1:
        derived = group._generate(
            _bits(_commutator_mask(Subgroup._of(group, top))), top.bit_count())
        if derived == top:
            return False
        top = derived
    return True


def _conjugates(conjugations, mask, numbers, seen):
    """Orbit of the subgroup mask, whose ascending element numbers numbers
    lists, under the group generated by the conjugations (the pairs of
    _conjugations), mask first; each member joins seen, the dict of masks
    to ascending element numbers.  A conjugate's mask is the sum of the
    bits of its elements, which are distinct, so the sum is their OR; its
    elements are listed only when the mask is new."""
    orbit = [mask]
    seen[mask] = numbers
    for k in orbit:
        hs = seen[k]
        for images, bits in conjugations:
            c = sum(map(bits.__getitem__, hs))
            if c not in seen:
                seen[c] = sorted(map(images.__getitem__, hs))
                orbit.append(c)
    return orbit


def _commutator_mask(e):
    """Mask of the commutators [x, g] of the subgroup e, for x in e and g
    among its generators.

    They generate [E, E]: the subgroup they generate holds [g, g'] for
    generators g and g', so E over it is abelian, and it is normal, as
    [x, g]^y = [xy, g][y, g]^-1.  So a subgroup H <= E holds this mask
    exactly when it contains [E, E]; such an H is normal in E, as
    h^x = h[h, x], and E/H is abelian.
    """
    mul, inv = e.group._tables()
    gens = [(g, inv[g]) for g in e._generator_numbers()]
    mask = 0
    for x in e._element_numbers():
        row = mul[x]
        left = mul[inv[x]]
        for g, gi in gens:
            mask |= 1 << mul[left[gi]][row[g]]
    return mask


def normalizer(g, h):
    """N_g(h) = {x in g : h^x = h}, as a Subgroup of g's parent group."""
    hs = _bits(_inner_mask(g, h))
    mul, inv = g.group._tables()
    inside = set(hs)
    mask = 0
    for x in g._element_numbers():
        if inside.issuperset(_conjugation(mul, inv, x, hs)):
            mask |= 1 << x
    return Subgroup._of(g.group, mask)


def centralizer(g, h):
    """C_g(h) = {x in g : xy = yx for all y in h}."""
    hs = _bits(_inner_mask(g, h))
    mul = g.group._tables()[0]
    mask = 0
    for x in g._element_numbers():
        row = mul[x]
        if all(row[y] == mul[y][x] for y in hs):
            mask |= 1 << x
    return Subgroup._of(g.group, mask)


def is_normal(n, h):
    """Whether h is normal in n (both must sit in a common parent)."""
    hs = _bits(_inner_mask(n, h))
    mul, inv = n.group._tables()
    inside = set(hs)
    return all(inside.issuperset(_conjugation(mul, inv, x, hs))
               for x in n._element_numbers())


def is_p_group(h, p):
    _require_prime(p)
    n = h.order
    return p ** _exponent(n, p) == n


def _orders(h):
    orders = h.group._element_orders()
    return list(map(orders.__getitem__, h._element_numbers()))


def is_cyclic(h):
    n = h.order
    return n in _orders(h)


def is_abelian(h):
    mul = h.group._tables()[0]
    xs = h._element_numbers()
    return all(mul[x][y] == mul[y][x] for i, x in enumerate(xs) for y in xs[i + 1:])


def is_nilpotent(h):
    """Every finite p-group is nilpotent.  Otherwise h is nilpotent exactly
    when each of its Sylow subgroups is normal, i.e. when for every prime p
    dividing |h| the elements of p-power order number exactly |h|_p (they
    number more as soon as two Sylow p-subgroups differ)."""
    factors = _factor(h.order)
    if len(factors) < 2:
        return True
    orders = _orders(h)
    for p, e in factors.items():
        part = p ** e
        if sum(1 for o in orders if part % o == 0) != part:
            return False
    return True


def is_elementary_abelian(h, p):
    """Abelian with every element of order dividing p; trivial counts."""
    _require_prime(p)
    if any(o not in (1, p) for o in _orders(h)):
        return False
    return is_abelian(h)


def is_elementary_abelian_any(h):
    """Nontrivial abelian with squarefree exponent: a direct product of
    prime-order cyclic groups, possibly over different primes.  Within a
    p-group this is the usual notion of elementary abelian subgroup."""
    if h.order == 1:
        return False
    if any(e > 1 for e in _factor(lcm(*_orders(h))).values()):
        return False
    return is_abelian(h)


def elementary_abelian_rank(h, p):
    if not is_elementary_abelian(h, p):
        raise InputError("group is not elementary abelian for p=%d" % p)
    return _exponent(h.order, p)


def require_p_group(k):
    """Return the prime p with |k| a power of p (None for the trivial group)."""
    n = k.order
    p = prime_power_base(n)
    if p is None and n > 1:
        raise PreconditionError("group of order %d is not a p-group" % n)
    return p
