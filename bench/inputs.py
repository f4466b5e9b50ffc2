"""Seeded input generation for the benchmark.

Everything here is the benchmark's own combinatorics: it never imports
equichar, so the inputs (and the expected sizes the checkers use) do not
depend on the code under test.  The seed decides three things: the names
given to points and vertices, the order of queries, and the random graphs.
"""

import itertools
import json
import os
import random

NAME_ALPHABET = "abcdefghjkmnpqrstuvwxyz23456789"

# Base vertices of the octahedron and the cross-polytopes are signed axes.
AXES = "xyzw"


def fresh_names(rng, n):
    """n distinct random vertex names, valid inside cycle notation."""
    names = set()
    while len(names) < n:
        names.add("".join(rng.choice(NAME_ALPHABET) for _ in range(5)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def canonical(v):
    """A sort key for vertex objects (nested frozensets included) that does
    not depend on hash order, so a seed gives the same names in every
    process."""
    if isinstance(v, frozenset):
        return (1, tuple(sorted(canonical(x) for x in v)))
    return (0, repr(v))


def relabel_map(rng, keys):
    """Random distinct names for the given vertex objects."""
    keys = sorted(keys, key=canonical)
    return dict(zip(keys, fresh_names(rng, len(keys))))


# ---------------------------------------------------------------- complexes


def closure(facets):
    """All nonempty faces of the given facets, as frozensets."""
    out = set()
    for f in facets:
        f = tuple(f)
        for k in range(1, len(f) + 1):
            out.update(frozenset(c) for c in itertools.combinations(f, k))
    return out


def cross_polytope(n):
    """Boundary of the n-dimensional cross-polytope: vertices (axis, sign)."""
    verts = [(AXES[i], s) for i in range(n) for s in "+-"]
    facets = [tuple(zip(AXES[:n], signs))
              for signs in itertools.product("+-", repeat=n)]
    return verts, closure(facets)


RP2_FACETS = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6))


def rp2():
    """The six-vertex real projective plane."""
    return list(range(1, 7)), closure(RP2_FACETS)


def subdivide(simplices):
    """Barycentric subdivision: vertices are simplices, simplices are chains."""
    simplices = list(simplices)
    verts = simplices
    above = {s: [t for t in simplices if s < t] for s in simplices}
    chains = set()

    def grow(chain, top):
        chains.add(frozenset(chain))
        for t in above[top]:
            grow(chain + (t,), t)

    for s in simplices:
        grow((s,), s)
    return verts, chains


def f_vector(simplices):
    out = {}
    for s in simplices:
        out[len(s)] = out.get(len(s), 0) + 1
    return tuple(out[k] for k in sorted(out))


def graph_of(simplices):
    return sorted((tuple(sorted(s, key=canonical))
                   for s in simplices if len(s) == 2),
                  key=lambda e: tuple(map(canonical, e)))


def induced(perm, vertex, depth):
    """Image of a vertex of the depth-fold subdivision under a base permutation."""
    if depth == 0:
        return perm[vertex]
    return frozenset(induced(perm, v, depth - 1) for v in vertex)


def sign_flip(n, i):
    """Permutation of the cross-polytope vertices negating axis i."""
    perm = {(a, s): (a, s) for a in AXES[:n] for s in "+-"}
    a = AXES[i]
    perm[(a, "+")], perm[(a, "-")] = (a, "-"), (a, "+")
    return perm


def axis_swap(n, i, j):
    perm = {(a, s): (a, s) for a in AXES[:n] for s in "+-"}
    for s in "+-":
        perm[(AXES[i], s)], perm[(AXES[j], s)] = (AXES[j], s), (AXES[i], s)
    return perm


def sylow2_octahedral():
    """Generators of a Sylow 2-subgroup (order 16) of the octahedral group."""
    return [sign_flip(3, 0), axis_swap(3, 0, 1), sign_flip(3, 2)]


def cycle_text(perm, names):
    """Cycle notation of a permutation of named vertices ("()" if trivial)."""
    seen = set()
    parts = []
    for v in sorted(perm, key=lambda v: names[v]):
        if v in seen or perm[v] == v:
            continue
        cyc = [v]
        seen.add(v)
        w = perm[v]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = perm[w]
        parts.append("(" + " ".join(names[u] for u in cyc) + ")")
    return "".join(parts) or "()"


class Complex:
    """A complex given by its vertex objects and simplices (frozensets)."""

    def __init__(self, verts, simplices):
        self.verts = sorted(verts, key=canonical)
        self.simplices = set(simplices)

    def subdivided(self, times=1):
        out = self
        for _ in range(times):
            out = Complex(*subdivide(out.simplices))
        return out

    def f_vector(self):
        return f_vector(self.simplices)

    def graph_doc(self, names):
        return {"vertices": [names[v] for v in self.verts],
                "graph_edges": [sorted(names[v] for v in e)
                                for e in graph_of(self.simplices)],
                "flag": True}


def cross(n):
    return Complex(*cross_polytope(n))


def base_rp2():
    return Complex(*rp2())


# ---------------------------------------------------------------- graphs


def random_graph(rng, n, m):
    """A uniform graph on n vertices with exactly m edges (G(n, m))."""
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rng.sample(pairs, m))


def cliques(n, edges):
    """f-vector of the flag complex, by bitset clique enumeration."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    counts = []

    def grow(size, cand):
        while len(counts) < size:
            counts.append(0)
        counts[size - 1] += 1
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            grow(size + 1, cand & adj[v])

    for v in range(n):
        grow(1, adj[v] & ~((1 << (v + 1)) - 1))
    return tuple(counts)


def steady_graph(rng, n, p, target, tolerance, tries=1000):
    """A G(n, m) draw, m = round(p * C(n, 2)), whose flag complex has a
    simplex count within tolerance of target (else the closest of tries).

    G(n, p) flag complexes have heavy-tailed clique counts, and the cost of
    their homology grows faster than the count.  Redrawing until the total
    lands in a fixed window keeps a run's work the same from seed to seed
    while the graphs themselves stay seed-drawn.
    """
    m = round(p * n * (n - 1) / 2)
    best = None
    for _ in range(tries):
        edges = random_graph(rng, n, m)
        f = cliques(n, edges)
        miss = abs(sum(f) - target)
        if best is None or miss < best[0]:
            best = (miss, edges, f)
        if miss <= tolerance * target:
            break
    return best[1], best[2]


def write_json(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path
