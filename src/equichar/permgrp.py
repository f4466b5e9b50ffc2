"""Finite permutation groups on numbered elements.

A group is closed once from its generators.  Its elements sort by their
image tuple on the sorted point list, which makes every listing
deterministic and puts the identity first, and each element is numbered by
its place in that order.  On first use a group builds an index from int
image tuples to numbers, a multiplication table and an inverse table over
the numbers, and keeps them on the instance; a group that is only asked for
its order never pays for a table.

A subgroup is an int bitmask over element numbers (bit i set when element
i belongs to it); a FiniteGroup is its own whole subgroup, with ``group``
itself and ``mask`` covering every element, so every function below takes
either.  Conjugation, normalizers, centralizers, commutation tests and
coset maps are table lookups.  The subgroup lattice comes from cyclic
extension (Neubüser 1960; Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005): every subgroup is a join of cyclic subgroups of
prime-power order, so joining one member of each known conjugacy class
with each such cyclic subgroup not already inside it reaches all of them.
The lattice and its conjugacy classes are memoised on the group, per
subgroup mask; callers always get a fresh list.
"""

from math import lcm

from .errors import InputError, PreconditionError, ResourceLimitError
from .exactlin import is_prime, prime_power_base

DEFAULT_ORDER_BOUND = 20000


class Permutation:
    """A permutation of a fixed finite set of named points."""

    __slots__ = ("points", "mapping", "key")

    def __init__(self, points, mapping):
        points = tuple(sorted(points))
        if set(mapping) != set(points):
            raise InputError("permutation domain does not match point set")
        if set(mapping.values()) != set(points):
            raise InputError("permutation is not a bijection")
        self.points = points
        self.mapping = dict(mapping)
        self.key = tuple(mapping[p] for p in points)

    @classmethod
    def identity(cls, points):
        return cls(points, {p: p for p in points})

    @classmethod
    def from_cycles(cls, points, text):
        """Parse disjoint cycle notation like "(1 2)(3 4)"; "()" is the identity."""
        points = tuple(sorted(points))
        body = text.strip()
        if body in ("", "()"):
            return cls.identity(points)
        if not body.startswith("(") or not body.endswith(")"):
            raise InputError("cycle notation must be parenthesized: %r" % text)
        mapping = {p: p for p in points}
        seen = set()
        for chunk in body[1:-1].split(")("):
            names = chunk.replace(",", " ").split()
            if len(names) < 2:
                raise InputError("cycle needs at least two points: %r" % chunk)
            for name in names:
                if name not in mapping:
                    raise InputError("unknown point %r in %r" % (name, text))
                if name in seen:
                    raise InputError("point %r repeated; cycles must be disjoint" % name)
                seen.add(name)
            for a, b in zip(names, names[1:]):
                mapping[a] = b
            mapping[names[-1]] = names[0]
        return cls(points, mapping)

    def __call__(self, x):
        return self.mapping[x]

    def __mul__(self, other):
        """Composition: (g * h)(x) = g(h(x))."""
        if self.points != other.points:
            raise InputError("permutations act on different point sets")
        return Permutation(self.points, {p: self.mapping[other.mapping[p]] for p in self.points})

    def inverse(self):
        return Permutation(self.points, {v: k for k, v in self.mapping.items()})

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = Permutation.identity(self.points)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @property
    def is_identity(self):
        return all(k == v for k, v in self.mapping.items())

    def order(self):
        n = 1
        g = self
        while not g.is_identity:
            g = g * self
            n += 1
        return n

    def cycles(self):
        """Non-singleton cycles, each starting at its least point."""
        seen = set()
        out = []
        for p in self.points:
            if p in seen or self.mapping[p] == p:
                continue
            cyc = [p]
            seen.add(p)
            q = self.mapping[p]
            while q != p:
                cyc.append(q)
                seen.add(q)
                q = self.mapping[q]
            out.append(tuple(cyc))
        return out

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


def _close_under_products(degree, generators, bound, base=None):
    """Set of all products of the generators, int image tuples on range(degree).

    a * b is the composition a(b(x)), computed as tuple(map(a.__getitem__,
    b)).  The set grows by whole left cosets t*B of base, a subgroup B
    given by its element list (default trivial) whose generators must be
    among the generators: each new coset representative is a generator
    times a known representative (Dimino's method).
    """
    ident = tuple(range(degree))
    base = base or (ident,)
    elements = set(base)
    reps = [ident]
    for r in reps:
        for g in generators:
            t = tuple(map(g.__getitem__, r))
            if t not in elements:
                step = t.__getitem__
                elements.update([tuple(map(step, b)) for b in base])
                reps.append(t)
                if len(elements) > bound:
                    raise ResourceLimitError(
                        "group closure exceeded max_order=%d (elements "
                        "found: %d)" % (bound, len(elements)))
    return elements


def _bits(mask):
    """Element numbers in a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _images_of(points, perms):
    pos = {p: i for i, p in enumerate(points)}
    return [tuple(pos[q] for q in g.key) for g in perms]


def _cycle_order(images):
    """Order of a permutation from the lengths of its cycles."""
    order = 1
    seen = bytearray(len(images))
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = 1
            i = images[i]
            length += 1
        order = lcm(order, length)
    return order


class FiniteGroup:
    """A permutation group given by its full (or generated) element list."""

    def __init__(self, points, generators, elements=None,
                 max_order=DEFAULT_ORDER_BOUND, check=True):
        self.points = tuple(sorted(points))
        gens = []
        for g in generators:
            if g.points != self.points:
                raise InputError("generator acts on the wrong point set")
            if not g.is_identity:
                gens.append(g)
        self.generators = tuple(gens)
        self._images = None
        if elements is None:
            pts = self.points
            images = sorted(_close_under_products(
                len(pts), _images_of(pts, self.generators), max_order))
            self.elements = tuple(
                Permutation(pts, dict(zip(pts, map(pts.__getitem__, t))))
                for t in images)
            self._images = images
        else:
            self.elements = tuple(sorted(set(elements)))
            if check:
                self._verify_closed()
        self.identity = Permutation.identity(self.points)
        self._index = {g.key: i for i, g in enumerate(self.elements)}
        if self.identity.key not in self._index:
            raise InputError("element list omits the identity")
        self._number = None
        self._mul = None
        self._inv = None
        self._orders = None
        self._lattices = {}

    def _verify_closed(self):
        keys = {g.key for g in self.elements}
        for g in self.elements:
            if g.points != self.points:
                raise InputError("element acts on the wrong point set")
            if g.inverse().key not in keys:
                raise InputError("element list is not closed under inverses")
        images = set(_images_of(self.points, self.elements))
        for a in images:
            step = a.__getitem__
            for b in images:
                if tuple(map(step, b)) not in images:
                    raise InputError("element list is not closed under products")

    # ------------------------------------------------ numbered elements

    def _numbering(self):
        """(images, number): the int image tuple of each element, and the
        element number of each image tuple."""
        if self._number is None:
            if self._images is None:
                self._images = _images_of(self.points, self.elements)
            self._number = {t: i for i, t in enumerate(self._images)}
        return self._images, self._number

    def _tables(self):
        """(mul, inv): mul[a][b] numbers elements[a] * elements[b]."""
        if self._mul is None:
            images, number = self._numbering()
            try:
                self._mul = [[number[tuple(map(a.__getitem__, b))] for b in images]
                             for a in images]
            except KeyError:
                raise InputError("element list is not closed under products")
            self._inv = [row.index(0) for row in self._mul]
        return self._mul, self._inv

    def _element_orders(self):
        if self._orders is None:
            self._orders = [_cycle_order(t) for t in self._numbering()[0]]
        return self._orders

    def _generate(self, numbers, bound, base=1):
        """Mask of the subgroup generated by the numbered elements and the
        subgroup mask base, whose generators must be among them."""
        images, number = self._numbering()
        mask = base
        for t in _close_under_products(len(self.points),
                                       [images[i] for i in numbers], bound,
                                       [images[i] for i in _bits(base)]):
            mask |= 1 << number[t]
        return mask

    # ------------------------------------------------ public interface

    @property
    def group(self):
        return self

    @property
    def mask(self):
        return (1 << len(self.elements)) - 1

    @property
    def order(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return isinstance(g, Permutation) and g.key in self._index

    def subgroup_generated(self, gens):
        gens = list(gens)
        for g in gens:
            if g not in self:
                raise InputError("generator lies outside the group")
        mask = self._generate([self._index[g.key] for g in gens], self.order)
        return Subgroup._of(self, mask)

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
    exactly when it has |group| elements with distinct first parts, one for
    each element of the group.
    """
    points = tuple(sorted(points))
    gens = group.generators
    imgs = [generator_images[g] for g in gens]
    for g, img in zip(gens, imgs):
        if img.points != points:
            raise InputError("image of %s does not permute the vertices" % g)
    number = group._numbering()[1]
    n = len(group.points)
    pairs = [a + tuple(n + i for i in b)
             for a, b in zip(_images_of(group.points, gens),
                             _images_of(points, imgs))]
    broken = "generator images do not define a homomorphism"
    try:
        graph = _close_under_products(n + len(points), pairs, group.order)
    except ResourceLimitError:
        raise InputError(broken) from None
    second = {number[t[:n]]: t[n:] for t in graph}
    if len(second) < len(graph):
        raise InputError(broken)
    if len(second) < group.order:
        raise InputError("generators do not generate the group")
    return {group.elements[i].key:
            Permutation(points, dict(zip(points, [points[j - n] for j in second[i]])))
            for i in sorted(second)}


class Subgroup:
    """A subgroup of a FiniteGroup: a mask over its element numbers, plus
    the sorted element tuple and the tuple of their keys."""

    __slots__ = ("group", "mask", "elements", "key")

    def __init__(self, group, elements):
        index = group._index
        mask = 0
        for g in elements:
            i = index.get(g.key) if isinstance(g, Permutation) else None
            if i is None:
                raise InputError("subgroup element lies outside the group")
            mask |= 1 << i
        if not mask & 1:
            raise InputError("subgroup must contain the identity")
        self._fill(group, mask)

    @classmethod
    def _of(cls, group, mask):
        h = object.__new__(cls)
        h._fill(group, mask)
        return h

    def _fill(self, group, mask):
        self.group = group
        self.mask = mask
        self.elements = tuple(map(group.elements.__getitem__, _bits(mask)))
        self.key = tuple(g.key for g in self.elements)

    @property
    def order(self):
        return len(self.elements)

    @property
    def is_trivial(self):
        return self.order == 1

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        if not isinstance(g, Permutation):
            return False
        i = self.group._index.get(g.key)
        return i is not None and bool(self.mask >> i & 1)

    def __le__(self, other):
        if self.group is other.group:
            return not self.mask & ~other.mask
        return all(x in other for x in self.elements)

    def __lt__(self, other):
        return self.order < other.order and self <= other

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def conjugate(self, g):
        """The subgroup g^-1 H g."""
        x = self.group._index.get(g.key)
        if x is None:
            gi = g.inverse()
            return Subgroup(self.group, tuple(gi * h * g for h in self.elements))
        mul, inv = self.group._tables()
        return Subgroup._of(self.group,
                            _conjugate_mask(mul, inv, _bits(self.mask), x))

    def generating_set(self):
        """Greedy deterministic generating list (empty for the trivial subgroup)."""
        return tuple(self.group.elements[i]
                     for i in _generating_numbers(self.group, self.mask))

    def describe(self):
        """Readable name: "1" for trivial, else generators in cycle notation."""
        if self.is_trivial:
            return "1"
        return "⟨" + ", ".join(str(g) for g in self.generating_set()) + "⟩"

    def as_group(self, check=False):
        """View this subgroup as a standalone FiniteGroup on the same points."""
        return FiniteGroup(self.group.points, self.generating_set(),
                           elements=self.elements, check=check)

    def __repr__(self):
        return "Subgroup(order=%d, %s)" % (self.order, self.describe())


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
    group = g.group
    if h.group is group:
        mask = h.mask
    else:
        mask = 0
        for x in h.elements:
            i = group._index.get(x.key)
            if i is None:
                raise InputError("not a subgroup of the ambient group")
            mask |= 1 << i
    if mask & ~g.mask:
        raise InputError("not a subgroup of the ambient group")
    return mask


def _conjugate_mask(mul, inv, hs, x):
    """Mask of x^-1 H x, for H listed by element numbers hs."""
    row = mul[inv[x]]
    mask = 0
    for y in hs:
        mask |= 1 << row[mul[y][x]]
    return mask


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
    return list(_lattice(g)[0])


def conjugacy_classes_of_subgroups(g):
    """Conjugacy classes of subgroups of g, sorted by (order, rep key).

    Memoised on g's group together with the lattice; each call returns a
    new list.
    """
    return list(_lattice(g)[1])


def _lattice(g):
    group = g.group
    memo = group._lattices.get(g.mask)
    if memo is None:
        memo = group._lattices[g.mask] = _cyclic_extension(group, g.mask)
    return memo


def _cyclic_extension(group, top):
    """(subgroups, classes) of the subgroup top, by cyclic extension.

    Every subgroup is generated by its elements of prime-power order, so
    it is a join of cyclic subgroups of prime-power order.  Starting from
    the trivial group and those cyclic subgroups, each newly found class
    representative is joined with every such cyclic subgroup it does not
    already contain; a join outside the known classes adds its whole class.
    Joins with the other members of a class are conjugates of joins with
    its representative, so the sweep reaches every subgroup.
    """
    mul, inv = group._tables()
    orders = group._element_orders()
    bound = top.bit_count()
    conjugators = _generating_numbers(group, top)
    cyclic = {}
    for x in _bits(top)[1:]:
        if prime_power_base(orders[x]) is None:
            continue
        row = mul[x]
        mask = 1
        y = x
        while y:
            mask |= 1 << y
            y = row[y]
        cyclic.setdefault(mask, x)
    seen = set()
    orbits = []

    def new_class(mask):
        orbit = [mask]
        seen.add(mask)
        for h in orbit:
            hs = _bits(h)
            for x in conjugators:
                k = _conjugate_mask(mul, inv, hs, x)
                if k not in seen:
                    seen.add(k)
                    orbit.append(k)
        orbits.append(orbit)

    new_class(1)
    frontier = []
    for mask, x in cyclic.items():
        if mask not in seen:
            new_class(mask)
            frontier.append((mask, (x,)))
    while frontier:
        fresh = []
        for h, gens in frontier:
            for x in cyclic.values():
                if h >> x & 1:
                    continue
                joined = group._generate(gens + (x,), bound, h)
                if joined not in seen:
                    new_class(joined)
                    fresh.append((joined, gens + (x,)))
        frontier = fresh
    by_mask = {mask: Subgroup._of(group, mask) for mask in seen}
    subs = sorted(by_mask.values(), key=lambda s: (s.order, s.key))
    classes = []
    for orbit in orbits:
        members = sorted((by_mask[m] for m in orbit), key=lambda s: s.key)
        classes.append(SubgroupClass(members[0], members))
    classes.sort(key=lambda c: (c.rep.order, c.rep.key))
    return tuple(subs), tuple(classes)


def normalizer(g, h):
    """N_g(h) = {x in g : h^x = h}, as a Subgroup of g's parent group."""
    hmask = _inner_mask(g, h)
    mul, inv = g.group._tables()
    hs = _bits(hmask)
    mask = 0
    for x in _bits(g.mask):
        if _conjugate_mask(mul, inv, hs, x) == hmask:
            mask |= 1 << x
    return Subgroup._of(g.group, mask)


def centralizer(g, h):
    """C_g(h) = {x in g : xy = yx for all y in h}."""
    hs = _bits(_inner_mask(g, h))
    mul = g.group._tables()[0]
    mask = 0
    for x in _bits(g.mask):
        row = mul[x]
        if all(row[y] == mul[y][x] for y in hs):
            mask |= 1 << x
    return Subgroup._of(g.group, mask)


def center(g):
    return centralizer(g, g)


def is_normal(n, h):
    """Whether h is normal in n (both must sit in a common parent)."""
    hmask = _inner_mask(n, h)
    mul, inv = n.group._tables()
    hs = _bits(hmask)
    return all(_conjugate_mask(mul, inv, hs, x) == hmask for x in _bits(n.mask))


class QuotientGroup(FiniteGroup):
    """The quotient N/H realized as a permutation group on coset labels.

    N acts on the left cosets of H by left multiplication; since H is
    normal in N the kernel of that action is exactly H, so the label
    permutations form a faithful copy of N/H.  Extra bookkeeping keeps the
    projection from N, a section picking the least representative of each
    coset, and preimages of subgroups.
    """

    def __init__(self, source, kernel):
        kmask = _inner_mask(source, kernel)
        if not is_normal(source, kernel):
            raise InputError("kernel is not normal in the source group")
        parent = source.group
        source = Subgroup._of(parent, source.mask)
        self.source = source
        self.kernel = kernel
        mul = parent._tables()[0]
        ks = _bits(kmask)
        coset_of = {}
        members = []
        for x in _bits(source.mask):
            if x not in coset_of:
                row = mul[x]
                coset = sorted(row[y] for y in ks)
                for y in coset:
                    coset_of[y] = len(members)
                members.append(coset)
        labels = tuple("c%d" % i for i in range(len(members)))
        perms = [Permutation(labels, {lab: labels[coset_of[mul[c[0]][d[0]]]]
                                      for lab, d in zip(labels, members)})
                 for c in members]
        gens = _generating_numbers(parent, source.mask)
        super().__init__(labels, [perms[coset_of[x]] for x in gens],
                         elements=perms, check=False)
        self.cosets = tuple(tuple(parent.elements[y] for y in c) for c in members)
        self.project = {parent.elements[x].key: perms[c]
                        for x, c in sorted(coset_of.items())}
        self.section = {perm.key: coset[0]
                        for perm, coset in zip(perms, self.cosets)}
        self._preimages = [(perm, sum(1 << y for y in c))
                           for perm, c in zip(perms, members)]
        if self.order * kernel.order != source.order:
            raise InputError("coset action is not faithful; kernel not normal")

    def project_element(self, x):
        if x.key not in self.project:
            raise InputError("element lies outside the source group")
        return self.project[x.key]

    def section_of(self, q):
        """Least source representative of a quotient element."""
        if q.key not in self.section:
            raise InputError("not an element of the quotient")
        return self.section[q.key]

    def preimage(self, sub):
        """Preimage in the source of a subgroup of the quotient."""
        mask = 0
        for perm, cmask in self._preimages:
            if perm in sub:
                mask |= cmask
        return Subgroup._of(self.source.group, mask)


def quotient(n, h):
    """The quotient group n/h; h must be normal in n."""
    return QuotientGroup(n, h)


def is_p_group(h, p):
    if not is_prime(p):
        raise InputError("p must be prime, got %r" % (p,))
    n = len(h.elements)
    while n % p == 0:
        n //= p
    return n == 1


def _orders(h):
    orders = h.group._element_orders()
    return [orders[x] for x in _bits(h.mask)]


def is_cyclic(h):
    n = len(h.elements)
    return n in _orders(h)


def is_abelian(h):
    mul = h.group._tables()[0]
    xs = _bits(h.mask)
    return all(mul[x][y] == mul[y][x] for i, x in enumerate(xs) for y in xs[i + 1:])


def is_nilpotent(h):
    """Every finite p-group is nilpotent.  Otherwise h is nilpotent exactly
    when each of its Sylow subgroups is normal, i.e. when for every prime p
    dividing |h| the elements of p-power order number exactly |h|_p (they
    number more as soon as two Sylow p-subgroups differ)."""
    n = len(h.elements)
    if n == 1 or prime_power_base(n) is not None:
        return True
    orders = _orders(h)
    rest = n
    p = 2
    while rest > 1:
        if rest % p == 0:
            part = 1
            while rest % p == 0:
                rest //= p
                part *= p
            if sum(1 for o in orders if part % o == 0) != part:
                return False
        p += 1
    return True


def is_elementary_abelian(h, p):
    """Abelian with every element of order dividing p; trivial counts."""
    if not is_prime(p):
        raise InputError("p must be prime, got %r" % (p,))
    if any(o not in (1, p) for o in _orders(h)):
        return False
    return is_abelian(h)


def _squarefree(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def is_elementary_abelian_any(h):
    """Nontrivial abelian with squarefree exponent: a direct product of
    prime-order cyclic groups, possibly over different primes.  Within a
    p-group this is the usual notion of elementary abelian subgroup."""
    if len(h.elements) == 1:
        return False
    if any(not _squarefree(o) for o in _orders(h)):
        return False
    return is_abelian(h)


def elementary_abelian_rank(h, p):
    if not is_elementary_abelian(h, p):
        raise InputError("group is not elementary abelian for p=%d" % p)
    n = len(h.elements)
    rank = 0
    while n > 1:
        n //= p
        rank += 1
    return rank


def require_p_group(k):
    """Return the prime p with |k| a power of p (None for the trivial group)."""
    n = len(k.elements)
    if n == 1:
        return None
    p = prime_power_base(n)
    if p is None:
        raise PreconditionError("group of order %d is not a p-group" % n)
    return p
