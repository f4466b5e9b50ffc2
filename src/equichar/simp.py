"""Finite simplicial complexes, flag complexes, and admissible group actions.

Vertices are strings; a simplex is a sorted tuple of vertices.  Every
declared vertex is kept as a 0-simplex, so the vertex list and the
0-skeleton always agree.  The empty complex has no vertices and no
simplices; the empty simplex () is never stored but is accepted by link(),
and it is the single (-1)-cell of the reduced chain complex.
"""

from functools import reduce
from itertools import combinations, compress
from operator import add, and_, eq, itemgetter

from .errors import InputError, PreconditionError
from .exactlin import (ChainComplexZ, IntegerMatrix, _homology,
                       _universal_coefficients)
from .permgrp import Subgroup, _cycles, homomorphism_images


def _adjacency(vertices, edges):
    """{vertex: set of neighbours} of a graph; an edge with an undeclared
    end, or one that is no pair, is an InputError."""
    adj = {v: set() for v in vertices}
    try:
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
    except KeyError as missing:
        raise InputError("pair %r uses undeclared vertex %r"
                         % ((a, b), missing.args[0])) from None
    except (TypeError, ValueError):
        raise InputError("pairs must be 2-tuples of vertices") from None
    return adj


def _cliques(adj):
    """Every nonempty clique of a graph, once each, as a sorted tuple.

    Depth first from an explicit stack of (clique, candidates) entries,
    where the candidates are the common neighbours of the clique that sort
    after all of its vertices; a caller that stops early stops the search.

    The vertices are numbered in sorted order and later[i] is the bitmask
    of the neighbours of vertex i numbered after it, so the candidates are
    one int: a child's are cand & later[i], and the set bits are walked
    lowest first by low = cand & -cand.  The root's children are the
    vertices themselves, with later[i] as their candidates, so no mask of
    all the vertices is walked.  Walking bits lowest first is walking the
    candidates in sorted order, and each entry yields all of its children
    before the stack pops the last of them, so the cliques come in the same
    order as from a scan of sorted candidate lists, an order every caller
    sees in its output.
    """
    verts = sorted(adj)
    index = {v: i for i, v in enumerate(verts)}
    later = []
    stack = []
    for i, v in enumerate(verts):
        mask = 0
        for w in adj[v]:
            j = index[w]
            if j > i:
                mask |= 1 << j
        later.append(mask)
        s = (v,)
        yield s
        if mask:
            stack.append((s, mask))
    while stack:
        clique, cand = stack.pop()
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            s = clique + (verts[i],)
            yield s
            rest = cand & later[i]
            if rest:
                stack.append((s, rest))


class SimplicialComplex:
    """A finite simplicial complex on string vertices.

    The constructor validates its input: every simplex is a nonempty
    sorted duplicate-free tuple of declared vertices, every face of a
    simplex is a simplex, and every vertex is a 0-simplex.  Library
    builders whose output is a complex by construction go through the
    trusted _of instead, which skips that check.
    """

    __slots__ = ("vertices", "simplices", "_dim", "_star", "_link_table")

    def __init__(self, vertices, simplices):
        try:
            self._fill(vertices, simplices)
        except TypeError:
            raise InputError("vertices must be hashable and sortable "
                             "together, and each simplex a tuple of them"
                             ) from None
        self._validate()

    @classmethod
    def _of(cls, vertices, simplices):
        """The complex on vertices and simplices that already form one."""
        x = object.__new__(cls)
        x._fill(vertices, simplices)
        return x

    def _fill(self, vertices, simplices):
        self.vertices = tuple(sorted(set(vertices)))
        self.simplices = frozenset(tuple(s) for s in simplices)
        self._dim = None
        self._star = None  # {vertex: its star}, built by _stars()
        self._link_table = None  # {simplex: link homology}, filled by duality

    def _validate(self):
        vset = set(self.vertices)
        for s in self.simplices:
            if not s:
                raise InputError("the empty simplex is implicit; do not store it")
            # declared vertices sort together, so sorted(s) cannot raise
            if not set(s) <= vset:
                raise InputError("simplex %r uses undeclared vertices" % (s,))
            if list(s) != sorted(set(s)):
                raise InputError("simplex %r is not a sorted duplicate-free tuple" % (s,))
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face and face not in self.simplices:
                    raise InputError("face %r of %r is missing" % (face, s))
        for v in self.vertices:
            if (v,) not in self.simplices:
                raise InputError("vertex %r has no 0-simplex" % v)

    @classmethod
    def empty(cls):
        return cls._of((), ())

    @classmethod
    def from_maximal_simplices(cls, vertices, facets):
        """Close the facet list under faces; isolated vertices stay as points."""
        try:
            vset = set(vertices)
            simplices = set((v,) for v in vset)
            for facet in facets:
                fset = set(facet)
                if not fset <= vset:
                    raise InputError("facet %r uses undeclared vertices" % (facet,))
                s = tuple(sorted(fset))
                for k in range(2, len(s) + 1):
                    simplices.update(combinations(s, k))
            return cls._of(vset, simplices)
        except TypeError:
            raise InputError("vertices must be hashable and sortable "
                             "together, and each facet an iterable of them"
                             ) from None

    @classmethod
    def flag_from_graph(cls, vertices, edges):
        """The flag complex of a graph: simplices are the cliques."""
        try:
            vset = set(vertices)
            pairs = []
            for e in edges:
                pair = set(e)
                if len(pair) != 2:
                    raise InputError("edge %r must join two distinct vertices" % (e,))
                if not pair <= vset:
                    raise InputError("edge %r uses undeclared vertices" % (e,))
                pairs.append(pair)
            return cls._of(vset, _cliques(_adjacency(vset, pairs)))
        except TypeError:
            raise InputError("vertices must be hashable and sortable "
                             "together, and each edge an iterable of them"
                             ) from None

    @property
    def dim(self):
        if self._dim is None:
            self._dim = max(map(len, self.simplices), default=0) - 1
        return self._dim

    @property
    def is_empty(self):
        return not self.vertices

    def simplices_of_dim(self, d):
        return sorted(s for s in self.simplices if len(s) == d + 1)

    def f_vector(self):
        """(f_0, f_1, ..., f_dim)."""
        out = [0] * (self.dim + 1)
        for s in self.simplices:
            out[len(s) - 1] += 1
        return tuple(out)

    def euler_characteristic(self):
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def degree(self, v):
        if (v,) not in self.simplices:
            raise InputError("no vertex %r" % (v,))
        return sum(1 for s in self.simplices if len(s) == 2 and v in s)

    def edges(self):
        return self.simplices_of_dim(1)

    def is_flag(self):
        """Whether every clique of the 1-skeleton is a simplex."""
        return all(len(s) < 3 or s in self.simplices
                   for s in _cliques(_adjacency(self.vertices, self.edges())))

    def link(self, simplex):
        """Link of a simplex; the empty simplex gives the complex itself.

        lk(s) = {t - s : t a coface of s}, read from _cofaces.
        """
        try:
            s = tuple(sorted(set(simplex)))
        except TypeError:
            raise InputError("simplex must be an iterable of vertices that "
                             "sort together") from None
        if s == ():
            return self
        if s not in self.simplices:
            raise InputError("simplex %r not in complex" % (s,))
        return self._link_of(s, self._cofaces(s))

    def _link_of(self, s, cofaces):
        """The link of the nonempty simplex s, from the list of its cofaces."""
        sset = set(s)
        simplices = {tuple(v for v in t if v not in sset) for t in cofaces}
        verts = set(v for t in simplices for v in t)
        return SimplicialComplex._of(verts, simplices)

    def _stars(self):
        """{vertex: its star, the list of the simplices holding it}, built
        on the first call (the complex is immutable, so it never goes
        stale)."""
        star = self._star
        if star is None:
            star = {v: [] for v in self.vertices}
            for t in self.simplices:
                for v in t:
                    star[v].append(t)
            self._star = star
        return star

    def _cofaces(self, s):
        """The simplices that have the nonempty simplex s of the complex as
        a proper face.

        Each of them lies in the star of every vertex of s, so only the
        star of the vertex of s with the fewest cofaces is read.
        """
        star = self._stars()
        n = len(s)
        sset = set(s)
        return [t for t in min((star[v] for v in s), key=len)
                if len(t) > n and sset.issubset(t)]

    def full_subcomplex(self, vertex_subset):
        """All simplices whose vertices lie in the subset; the complex itself
        when the subset holds every vertex."""
        try:
            sub = set(vertex_subset)
        except TypeError:
            raise InputError("vertex subset must be an iterable of hashable "
                             "vertices") from None
        if not sub <= set(self.vertices):
            raise InputError("subset contains undeclared vertices")
        if len(sub) == len(self.vertices):
            return self
        simplices = {s for s in self.simplices if set(s) <= sub}
        return SimplicialComplex._of(sub, simplices)

    def chain_complex(self):
        """Simplicial chain complex, cells labelled "a|b|..."."""
        cells, boundary = self._chains(reduced=False)
        return ChainComplexZ({d: len(group) for d, group in cells.items()},
                             {d: boundary(d) for d in cells if d > 0},
                             labels={d: tuple("|".join(s) for s in group)
                                     for d, group in cells.items()})

    def _chains(self, reduced):
        """(cells, boundary): cells[d] lists the d-simplices, sorted, and
        boundary(d, cleared=()) is the one boundary builder, the matrix of
        the map out of degree d with the columns in cleared left empty.
        When reduced, the empty simplex is the single (-1)-cell, so the
        boundary formula writes the augmentation out of degree 0."""
        lo = -1 if reduced else 0
        cells = {d: [] for d in range(lo, self.dim + 1)}
        if reduced:
            cells[-1].append(())
        for s in self.simplices:
            cells[len(s) - 1].append(s)
        for group in cells.values():
            group.sort()

        def boundary(d, cleared=()):
            faces = cells[d - 1]
            index = dict(zip(faces, range(len(faces))))
            mat = IntegerMatrix(len(faces), len(cells[d]))
            rows = mat.entries
            # combinations lists the faces of s omitting its last vertex
            # first, whose sign is (-1)^d, then the one before, and so on
            first = -1 if d % 2 else 1
            for j, s in enumerate(cells[d]):
                if j in cleared:
                    continue
                sign = first
                for face in combinations(s, d):
                    rows[index[face]][j] = sign
                    sign = -sign
            return mat
        return cells, boundary

    def _reduced(self, p=None):
        """Reduced homology over Z, or over GF(p), through the homology
        driver: each boundary is built after the one above it is reduced,
        without the columns that reduction cleared; its fresh rows hold only
        +-1, nonzero mod every prime, so the eliminator takes them as built."""
        cells, boundary = self._chains(reduced=True)
        return _homology({d: len(group) for d, group in cells.items()},
                         lambda d, cleared: boundary(d, cleared).entries if d >= 0 else None,
                         p)

    def reduced_homology(self):
        """{degree: HomologyGroup} of the augmented chain complex."""
        return self._reduced()

    def reduced_cohomology(self):
        return _universal_coefficients(self._reduced())

    def reduced_homology_mod_p(self, p):
        return self._reduced(p)

    def barycentric_subdivision(self):
        """Flag complex on the simplices, with chains of faces as simplices."""
        simps = sorted(self.simplices)
        names = {s: "|".join(s) for s in simps}
        pairs = [(names[a], names[b]) for b in simps for k in range(1, len(b))
                 for a in combinations(b, k)]
        return complex_of_chains([names[s] for s in simps], pairs)

    def relabel(self, mapping):
        """Rename vertices along an injective map."""
        try:
            if len(set(mapping.values())) != len(mapping):
                raise InputError("relabeling must be injective")
            verts = [mapping[v] for v in self.vertices]
            simplices = {tuple(sorted(mapping[v] for v in s))
                         for s in self.simplices}
            return SimplicialComplex._of(verts, simplices)
        except KeyError as missing:
            raise InputError("relabeling misses vertex %r"
                             % missing.args[0]) from None
        except (AttributeError, TypeError):
            raise InputError("relabeling must be a mapping onto hashable "
                             "labels that sort together") from None

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def __repr__(self):
        return "SimplicialComplex(%d vertices, dim %d)" % (len(self.vertices), self.dim)


def complex_of_chains(labels, strict_pairs):
    """Order complex of a strict relation: simplices are the chains.

    labels lists the vertices; strict_pairs are (smaller, larger) pairs of
    an irreflexive transitive relation, whose chains are exactly the
    cliques of its comparability graph.
    """
    try:
        return SimplicialComplex._of(
            labels, _cliques(_adjacency(labels, strict_pairs)))
    except TypeError:
        raise InputError("labels must be hashable and sortable together"
                         ) from None


_OUTSIDE = "subgroup lies outside the acting group"


class GroupAction:
    """A simplicial action of a finite group on a complex.

    generator_images maps each group generator to a permutation of the
    complex's vertices; omit it when the group already permutes the
    vertices, and each element is then its own image.  Given images are
    extended to all elements by closing products, which checks that the
    assignment is a homomorphism.  Each generator image must carry
    simplices to simplices.

    Each vertex keeps its stabilizer as a bitmask over the group's element
    numbers, the encoding of Subgroup.mask, and a simplex's is the AND of
    its vertices'.  A subgroup fixes a simplex pointwise iff its mask lies
    inside the simplex's; the Euler counts and the fixed complexes read one
    table of the simplices per mask, built on first use.
    """

    def __init__(self, complex, group, generator_images=None):
        self.complex = complex
        self.group = group
        verts = complex.vertices
        if generator_images is None:
            if group.points != verts:
                raise InputError("group points differ from complex vertices; "
                                 "supply generator images")
            # the group's elements permute the vertices themselves, so they
            # are their own images and no second closure is needed
            self.images = {g.key: g for g in group.elements}
            generator_images = {g: g for g in group.generators}
        else:
            self.images = homomorphism_images(group, verts, generator_images)
        simplices = complex.simplices
        for g in group.generators:
            img = generator_images[g].mapping.__getitem__
            broken = [s for s in simplices
                      if tuple(sorted(map(img, s))) not in simplices]
            if broken:
                # the least one, so the message does not hang on the
                # set's iteration order
                raise InputError("generator %s breaks simplex %r"
                                 % (g, min(broken)))
        n = len(verts)
        masks = [0] * n
        for e, img in enumerate(self.images.values()):
            bit = 1 << e
            for i in compress(range(n), map(eq, img.key, range(n))):
                masks[i] |= bit
        self._stabilizers = dict(zip(verts, masks))
        self._admissible = None
        self._table = None  # built by _by_mask()

    def image(self, g):
        if g not in self.group:
            raise InputError("element lies outside the acting group")
        return self.images[g.key]

    def is_admissible(self):
        """Every setwise-fixed simplex is pointwise fixed."""
        if self._admissible is None:
            self._admissible = self._first_offender() is None
        return self._admissible

    def _first_offender(self):
        """The first element, in element order, that fixes a simplex
        setwise but not pointwise, or None.

        g does so iff one of its nontrivial cycles on the vertices spans a
        simplex: a setwise-fixed simplex is a union of cycles of g, and
        every face of a simplex is a simplex.  Such a cycle holds the edge
        from a vertex v to g(v), so the cycles of an element that moves no
        vertex along an edge are not walked.
        """
        verts = self.complex.vertices
        simplices = self.complex.simplices
        n = len(verts)
        number = dict(zip(verts, range(n)))
        along = set()  # i * n + j for each edge {verts[i], verts[j]}, both ways
        for s in simplices:
            if len(s) == 2:
                i, j = number[s[0]], number[s[1]]
                along.update((i * n + j, j * n + i))
        rows = range(0, n * n, n)
        for g, img in zip(self.group.elements, self.images.values()):
            if along.isdisjoint(map(add, rows, img.key)):
                continue
            for cycle in _cycles(img.key):
                if itemgetter(*sorted(cycle))(verts) in simplices:
                    return g
        return None

    def admissibility_witness(self):
        """A (group element, simplex) pair violating admissibility, or None:
        the first offending element and, of the simplices it fixes setwise
        but not pointwise, the least."""
        g = self._first_offender()
        if g is None:
            return None
        img = self.images[g.key].mapping.__getitem__
        for s in sorted(s for s in self.complex.simplices if len(s) > 1):
            if (tuple(sorted(map(img, s))) == s
                    and any(img(v) != v for v in s)):
                return g, s

    def require_admissible(self):
        if not self.is_admissible():
            g, s = self.admissibility_witness()
            raise PreconditionError(
                "action is not admissible: %s fixes %r setwise but not "
                "pointwise" % (g, s))

    def fixed_vertices(self, h):
        mask = self.group._mask_of(h, _OUTSIDE)
        return tuple(v for v, m in self._stabilizers.items() if not mask & ~m)

    def fixed_subcomplex(self, h):
        """Full subcomplex on the vertices h fixes: the lists of the masks
        that contain h's, or the complex itself when h fixes every vertex."""
        self.require_admissible()
        mask = self.group._mask_of(h, _OUTSIDE)
        simplices = [s for m, listed in self._by_mask().items()
                     if not mask & ~m for s in listed]
        if len(simplices) == len(self.complex.simplices):
            return self.complex
        return SimplicialComplex._of((s[0] for s in simplices if len(s) == 1),
                                     simplices)

    def _by_mask(self):
        """{stabilizer mask: the simplices with that mask}, a simplex's mask
        being the AND of its vertices'; built on the first call."""
        if self._table is None:
            stabilizer = self._stabilizers.__getitem__
            table = self._table = {}
            for s in self.complex.simplices:
                table.setdefault(reduce(and_, map(stabilizer, s)), []).append(s)
        return self._table

    def vertex_stabilizer(self, v):
        if v not in self._stabilizers:
            raise InputError("no vertex %r" % (v,))
        return Subgroup._of(self.group, self._stabilizers[v])


class Embedding:
    """An isomorphism from a pattern complex onto a full subcomplex of a host.

    The constructor checks the map; the search, which has compared the
    relabeled pattern with the image already, builds its result through
    the trusted _of instead.
    """

    __slots__ = ("pattern", "host", "mapping", "_image")

    def __init__(self, pattern, host, mapping):
        if set(mapping) != set(pattern.vertices):
            raise InputError("mapping must cover the pattern vertices")
        if len(set(mapping.values())) != len(mapping):
            raise InputError("mapping must be injective")
        image = host.full_subcomplex(mapping.values())
        if pattern.relabel(mapping) != image:
            raise InputError("image is not a full copy of the pattern")
        self._fill(pattern, host, mapping, image)

    @classmethod
    def _of(cls, pattern, host, mapping, image):
        """The embedding of pattern into host by mapping, whose image, the
        full subcomplex of host on the mapped vertices, equals the pattern
        relabeled by mapping."""
        e = object.__new__(cls)
        e._fill(pattern, host, mapping, image)
        return e

    def _fill(self, pattern, host, mapping, image):
        self.pattern = pattern
        self.host = host
        self.mapping = dict(mapping)
        self._image = image

    def image_complex(self):
        return self._image

    def __repr__(self):
        return "Embedding(%r)" % (self.mapping,)


def find_full_subcomplex_isomorphic(host, pattern):
    """First embedding of the pattern as a full subcomplex, or None.

    Backtracking over pattern vertices in sorted order against host
    vertices in sorted order, so the result is deterministic.  Partial
    maps must match edges exactly (the image is induced); a completed map
    is accepted only if the full subcomplex on the image equals the
    relabeled pattern in all dimensions.
    """
    if len(pattern.vertices) > 8:
        raise PreconditionError("pattern too large for backtracking search")
    if pattern.is_empty:
        return Embedding(pattern, host, {})
    pverts = list(pattern.vertices)
    hverts = list(host.vertices)
    padj = _adjacency(pverts, pattern.edges())
    hadj = _adjacency(hverts, host.edges())
    assign = {}
    used = set()

    def place(k):
        """The image of the first full copy extending assign, or None."""
        if k == len(pverts):
            image = host.full_subcomplex({assign[v] for v in pverts})
            return image if pattern.relabel(assign) == image else None
        p = pverts[k]
        for hv in hverts:
            if hv in used or len(hadj[hv]) < len(padj[p]):
                continue
            ok = True
            for q in pverts[:k]:
                if (q in padj[p]) != (assign[q] in hadj[hv]):
                    ok = False
                    break
            if not ok:
                continue
            assign[p] = hv
            used.add(hv)
            image = place(k + 1)
            if image is not None:
                return image
            del assign[p]
            used.discard(hv)
        return None

    image = place(0)
    if image is None:
        return None
    return Embedding._of(pattern, host, assign, image)
