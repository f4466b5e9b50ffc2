"""Shared builders and independent oracles for the test suite.

The oracles recompute ranks, minors, closures, chain counts and betti
numbers from first principles so that library results are checked against
code that shares none of the library's internals.
"""

import functools
import random
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

from equichar import (GroupAction, HomologyGroup, Permutation,
                      SimplicialComplex, all_subgroups, centralizer,
                      conjugacy_classes_of_subgroups, group_from_generators,
                      permgrp, rank_mod_p, smith_normal_form)


# ---------------------------------------------------------------- groups


def group(*cycle_texts):
    pts = sorted({c for t in cycle_texts for c in re.findall(r"\w+", t)},
                 key=lambda s: (len(s), s))
    gens = [Permutation.from_cycles(pts, t) for t in cycle_texts]
    return group_from_generators(pts, gens)


def group_on(x, *cycle_texts):
    """Group of permutations of the vertex set of the complex x."""
    pts = x.vertices
    gens = [Permutation.from_cycles(pts, t) for t in cycle_texts]
    return group_from_generators(pts, gens)


def cyclic(n):
    return group("(%s)" % " ".join(str(i) for i in range(1, n + 1)))


def elem_ab(p, n):
    texts = []
    start = 1
    for _ in range(n):
        texts.append("(%s)" % " ".join(str(i) for i in range(start, start + p)))
        start += p
    return group(*texts)


def d8():
    return group("(1 2 3 4)", "(1 3)")


def q8():
    return group("(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")


def c4xc2():
    return group("(1 2 3 4)", "(5 6)")


def s3():
    return group("(1 2)", "(1 2 3)")


def s4():
    return group("(1 2)", "(1 2 3 4)")


def a4():
    return group("(1 2 3)", "(1 2)(3 4)")


def d12():
    return group("(1 2 3 4 5 6)", "(2 6)(3 5)")


def c4xc4():
    return group("(1 2 3 4)", "(5 6 7 8)")


def d8xc2():
    return group("(1 2 3 4)", "(1 3)", "(5 6)")


def s3xs3():
    return group("(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)")


def symmetric(n):
    return group("(1 2)", "(%s)" % " ".join(str(i) for i in range(1, n + 1)))


def b4():
    """The hyperoctahedral group B4 of order 384 on the points 1 .. 8."""
    return group("(1 2)(5 6)", "(1 2 3 4)(5 6 7 8)", "(1 5)")


def a5():
    return group("(1 2 3)", "(1 2 3 4 5)")


def s3xc5():
    return group("(1 2)", "(1 2 3)", "(4 5 6 7 8)")


def c7c3xc2():
    """C7 x| C3 x C2 of order 42: 3 acts on Z/7 (point 7 for 0) by
    doubling, and (8 9) is the C2 factor."""
    return group("(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)", "(8 9)")


def s4xc5():
    return group("(1 2)", "(1 2 3 4)", "(5 6 7 8 9)")


_LATTICE_JOINS = {}  # id(group) -> (group, joins made building its lattice)


def lattice_joins(g):
    """Number of closure joins the cyclic extension made building the
    subgroup lattice of g: the _generate calls made from _cyclic_extension
    itself, not the ones that pick conjugators; a join built as a union of
    cosets takes no closure and is not counted.  The lattice is built here,
    with the count on, at the first call for g, which must come before
    anything else builds it; later calls return the same count."""
    if id(g) not in _LATTICE_JOINS:
        calls = [0]
        generate = permgrp.FiniteGroup._generate
        sweep = permgrp._cyclic_extension.__code__

        def counted(self, *args):
            calls[0] += sys._getframe(1).f_code is sweep
            return generate(self, *args)

        permgrp.FiniteGroup._generate = counted
        try:
            conjugacy_classes_of_subgroups(g)
        finally:
            permgrp.FiniteGroup._generate = generate
        _LATTICE_JOINS[id(g)] = g, calls[0]
    return _LATTICE_JOINS[id(g)][1]


@functools.cache
def s6():
    """S6 with its subgroup lattice, built once per test session through
    lattice_joins; a test that times the build makes its own."""
    g = symmetric(6)
    lattice_joins(g)
    return g


# p-groups named in the vanishing-identity and poset criteria
def pgroup_corpus():
    return {
        "C2": cyclic(2), "C4": cyclic(4), "C8": cyclic(8),
        "C2xC2": elem_ab(2, 2), "C2xC2xC2": elem_ab(2, 3),
        "C4xC2": c4xc2(), "D8": d8(), "Q8": q8(),
        "C3": cyclic(3), "C9": cyclic(9), "C3xC3": elem_ab(3, 2),
    }


def sylow_b4():
    """The order-128 Sylow 2-subgroup of B4 on the vertices of the
    4-cross-polytope."""
    return group_on(cross_polytope(4), "(1 5)", "(1 2 3 4)(5 6 7 8)",
                    "(1 3)(5 7)")


def sylow_b5():
    """The order-256 Sylow 2-subgroup of B5 on the vertices of the
    5-cross-polytope: 3,455 subgroups in 978 classes."""
    return group_on(cross_polytope(5), "(1 6)", "(1 2)(6 7)", "(3 4)(8 9)",
                    "(1 3)(2 4)(6 8)(7 9)", "(5 10)")


# the p-groups and groups of orders 6 to 384; the last six have three
# prime divisors, so only their derived series decides their solvability
def group_corpus():
    return dict(pgroup_corpus(), **{
        "S3": s3(), "C6": cyclic(6), "S4": s4(), "A4": a4(), "D12": d12(),
        "C4xC4": c4xc4(), "D8xC2": d8xc2(), "S3xS3": s3xs3(), "B4": b4(),
        "A5": a5(), "S5": symmetric(5), "S3xC5": s3xc5(),
        "C7:C3xC2": c7c3xc2(), "S4xC5": s4xc5(), "C30": cyclic(30),
    })


# ------------------------------------------------------------- complexes


def two_edges():
    return SimplicialComplex.flag_from_graph(
        ["1", "2", "3", "4"], [("1", "2"), ("3", "4")])


def star5():
    return SimplicialComplex.flag_from_graph(
        ["1", "2", "3", "4", "5"],
        [("1", "5"), ("2", "5"), ("3", "5"), ("4", "5")])


def t_complex():
    return SimplicialComplex.from_maximal_simplices(
        ["u", "v1", "v2", "w1", "w2"],
        [("u", "v1", "w1"), ("u", "v2", "w2")])


def octahedron():
    verts = ["1", "2", "3", "4", "5", "6"]
    skip = {frozenset(("1", "6")), frozenset(("2", "5")), frozenset(("3", "4"))}
    edges = [(a, b) for a, b in combinations(verts, 2)
             if frozenset((a, b)) not in skip]
    return SimplicialComplex.flag_from_graph(verts, edges)


def cross_polytope(n):
    """Boundary of the n-dimensional cross-polytope, a flag (n-1)-sphere;
    vertex i is antipodal to vertex i + n."""
    verts = [str(i) for i in range(1, 2 * n + 1)]
    edges = [(a, b) for a, b in combinations(verts, 2)
             if abs(int(a) - int(b)) != n]
    return SimplicialComplex.flag_from_graph(verts, edges)


def tetra_boundary():
    return SimplicialComplex.from_maximal_simplices(
        ["a", "b", "c", "d"],
        [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")])


def rp2_triangulation():
    facets = ["125", "126", "134", "136", "145", "234", "235", "246",
              "356", "456"]
    return SimplicialComplex.from_maximal_simplices(
        [str(i) for i in range(1, 7)], [tuple(f) for f in facets])


def subdivided_action(x, g, times=1):
    """The action of g, a group permuting the vertices of x, carried up
    times barycentric subdivisions.  Each subdivision's vertex "a|b" is the
    simplex (a, b) of the complex below, and moves as that simplex does.
    An induced action on a subdivision is always admissible."""
    moves = {gen: gen for gen in g.generators}
    for _ in range(times):
        bary = x.barycentric_subdivision()
        simplex = {"|".join(s): s for s in x.simplices}
        moves = {gen: Permutation(bary.vertices, {
            v: "|".join(sorted(move(p) for p in simplex[v]))
            for v in bary.vertices}) for gen, move in moves.items()}
        x = bary
    return GroupAction(x, g, generator_images=moves)


def random_flag_complexes():
    """Three seeded G(n, p) flag complexes on 8, 10 and 12 vertices."""
    rng = random.Random(20261018)
    for n, density in ((8, 0.5), (10, 0.6), (12, 0.4)):
        verts = [str(i) for i in range(n)]
        yield SimplicialComplex.flag_from_graph(
            verts, [e for e in combinations(verts, 2) if rng.random() < density])


def complex_corpus():
    return {
        "two_edges": two_edges(), "star5": star5(), "T": t_complex(),
        "octahedron": octahedron(), "tetra_boundary": tetra_boundary(),
        "rp2": rp2_triangulation(),
    }


def complex_and_flag_corpus():
    """complex_corpus() and the random flag complexes, named flag0 to flag2."""
    corpus = complex_corpus()
    corpus.update(("flag%d" % i, x)
                  for i, x in enumerate(random_flag_complexes()))
    return corpus


# ----------------------------------------------------- linear algebra oracles


def rational_rank(rows):
    """Rank over Q by plain Gaussian elimination with Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(nr):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def modp_rank(rows, p):
    m = [[x % p for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(nr):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def det_int(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_int(minor)
    return total


def minors_gcd(rows, k):
    """gcd of all k x k minors; 0 when every minor vanishes."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(nr), k):
        for ci in combinations(range(nc), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, det_int(sub))
    return g


def matrix_rows(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def dense_product(a, b, ncols):
    """Product of dense row lists; b has ncols columns."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(ncols)]
            for i in range(len(a))]


def homology_without_clearing(c):
    """{degree: HomologyGroup} of the chain complex c from every full
    boundary it holds, each through the public smith_normal_form: the
    betti number of degree d is rank C_d - rank d_d - rank d_(d+1), and the
    torsion is the invariant factors above 1 of d_(d+1)."""
    snf = {d: smith_normal_form(c.boundaries[d]) for d in c.degrees()
           if d in c.boundaries}
    out = {}
    for d in c.degrees():
        _, r_here = snf.get(d, ([], 0))
        diag_up, r_up = snf.get(d + 1, ([], 0))
        out[d] = HomologyGroup(c.rank(d) - r_here - r_up,
                               tuple(v for v in diag_up if v > 1))
    return out


def dual_by_universal_coefficients(h):
    """Cohomology from a homology table: the free part of H_d and the
    torsion of H_(d-1) in each degree d."""
    return {d: HomologyGroup(g.betti, h[d - 1].torsion if d - 1 in h else ())
            for d, g in h.items()}


def mod_p_without_clearing(c, p):
    """{degree: dimension} of the homology of c over GF(p), by the same
    formula on every full boundary, each through the public rank_mod_p."""
    ranks = {d: rank_mod_p(c.boundaries[d], p) for d in c.degrees()
             if d in c.boundaries}
    return {d: c.rank(d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in c.degrees()}


# ------------------------------------------------------------ group oracles


def brute_subgroups(g):
    """Element-key sets of all subgroups, via closures of subsets of size <= 3.

    Valid for the test groups, whose subgroups all need at most three
    generators.  Products come from a table filled by Permutation
    multiplication; each closure multiplies by the subset until nothing
    new appears.
    """
    elems = list(g.elements)
    pos = {x: i for i, x in enumerate(elems)}
    table = [[pos[a * b] for b in elems] for a in elems]
    ident = pos[Permutation.identity(g.points)]
    found = set()
    for r in (0, 1, 2, 3):
        for combo in combinations(range(len(elems)), r):
            cur = {ident}
            todo = [ident]
            while todo:
                row = table[todo.pop()]
                for b in combo:
                    if row[b] not in cur:
                        cur.add(row[b])
                        todo.append(row[b])
            found.add(frozenset(elems[i].key for i in cur))
    return found


def brute_classes(g, subgroups):
    """The subgroups, given as element-key sets, grouped into their orbits
    under conjugation x^-1 H x by every element x of g, with Permutation
    arithmetic; a set of frozensets of key sets."""
    elems = list(g.elements)
    by_key = {x.key: x for x in elems}
    todo = set(subgroups)
    orbits = set()
    while todo:
        members = [by_key[k] for k in todo.pop()]
        orbit = frozenset(frozenset((x.inverse() * y * x).key for y in members)
                          for x in elems)
        todo -= orbit
        orbits.add(orbit)
    return orbits


def product_table(g):
    """The multiplication table of g over its element numbers, filled
    directly: entry [a][b] numbers the composition of elements a and b,
    computed on their image tuples for every pair."""
    keys = [x.key for x in g.elements]
    index = {k: i for i, k in enumerate(keys)}
    return [[index[tuple(a[i] for i in b)] for b in keys] for a in keys]


def coset_quotient(n, h):
    """The quotient n/h, for subgroups h normal in n, as the group of left
    multiplications by n on the left cosets of h, which are numbered in
    order of their least element; built with Permutation arithmetic."""
    cosets = []
    for x in n.elements:
        if not any(x in c for c in cosets):
            cosets.append({x * y for y in h.elements})
    points = [str(i) for i in range(len(cosets))]
    label = {y: p for p, c in zip(points, cosets) for y in c}
    gens = [Permutation(points, {p: label[x * min(c)] for p, c in zip(points, cosets)})
            for x in n.generating_set()]
    return group_from_generators(points, gens)


def solvable_by_derived_series(g):
    """Solvability of the group g by its derived series on the product
    table filled directly: each term is the closure of all commutators
    a^-1 b^-1 a b of two of its elements, until a term is trivial or
    equals the one before it."""
    table = product_table(g)
    inv = [row.index(0) for row in table]
    term = set(range(len(table)))
    while len(term) > 1:
        commutators = {table[table[inv[a]][inv[b]]][table[a][b]]
                       for a in term for b in term}
        closed = set(commutators)
        todo = list(closed)
        while todo:
            row = table[todo.pop()]
            for b in commutators:
                if row[b] not in closed:
                    closed.add(row[b])
                    todo.append(row[b])
        if closed == term:
            return False
        term = closed
    return True


def nilpotent_by_central_series(h):
    """Nilpotency of the subgroup h by the upper central series: divide out
    centers of a standalone copy until the group is exhausted or a center
    is trivial."""
    g = group_from_generators(h.group.points, h.generating_set())
    while g.order > 1:
        z = centralizer(g, g)
        if z.is_trivial:
            return False
        g = coset_quotient(g.whole(), z)
    return True


# ------------------------------------------------------- equivariant oracles


def admissibility_scan(action):
    """The first (element, simplex) pair, elements in group order and
    simplices of dimension >= 1 in sorted order, where the element fixes
    the simplex setwise but not pointwise; None for an admissible action.
    Every simplex is moved by every element through Permutation calls."""
    simplices = sorted(s for s in action.complex.simplices if len(s) > 1)
    for g in action.group.elements:
        img = action.image(g)
        for s in simplices:
            if (tuple(sorted(img(v) for v in s)) == s
                    and any(img(v) != v for v in s)):
                return g, s
    return None


def full_subcomplex_fixed(action):
    """h -> L^h by the full-subcomplex route: the full subcomplex of L on
    the vertices h fixes, built once per fixed vertex set."""
    built = {}

    def fixed(h):
        verts = action.fixed_vertices(h)
        if verts not in built:
            built[verts] = action.complex.full_subcomplex(verts)
        return built[verts]
    return fixed


def orbit_count_euler_class(action):
    """{class representative key: signed orbit count} for an action of any
    finite group.

    For each conjugacy class (H) of subgroups, the sum of (-1)^|s| over the
    orbits of simplices s of the complex (the empty simplex included, with
    sign +1) whose stabilizer is conjugate to H.  Stabilizers and their
    classes come from Permutation arithmetic on the action's images; a
    class is named by the key of its least member, as Subgroup.key would
    order it.  Classes that no simplex reaches are left out.
    """
    elems = list(action.group.elements)
    imgs = [action.image(x) for x in elems]

    def moved(i, s):
        return tuple(sorted(imgs[i](v) for v in s))

    classes = {}

    def class_key(stab):
        if stab not in classes:
            members = [elems[i] for i in stab]
            classes[stab] = min(
                tuple(sorted((x.inverse() * y * x).key for y in members))
                for x in elems)
        return classes[stab]

    counts = {}
    seen = set()
    for s in [()] + sorted(action.complex.simplices):
        if s in seen:
            continue
        seen.update(moved(i, s) for i in range(len(elems)))
        key = class_key(tuple(i for i in range(len(elems)) if moved(i, s) == s))
        counts[key] = counts.get(key, 0) + (-1) ** len(s)
    return counts


@functools.cache
def _section_floor(group, emask, p):
    """Mask of the commutators and the p-th powers of the subgroup emask
    of group: a subgroup H <= E holds it exactly when H is normal in E
    and E/H is elementary abelian for p."""
    mul = group._tables()[0]
    powers = 0
    for x in permgrp._bits(emask):
        y = x
        for _ in range(p - 1):
            y = mul[y][x]
        powers |= 1 << y
    return permgrp._commutator_mask(permgrp.Subgroup._of(group, emask)) | powers


def elementary_sections(k, h, p):
    """The subgroups E of k, in lattice order, with h normal in E and E/h
    elementary abelian for p, E = h included; E >= h is tested by mask."""
    group, hmask = k.group, h.mask
    return [e for e in all_subgroups(k) if not hmask & ~e.mask
            and not _section_floor(group, e.mask, p) & ~hmask]


def weyl_sum(k, h, chi):
    """The coefficient of the class of h in the Euler class, by the
    paper's weighted sum for the p-group k: |h| |(h)| / |k| times the sum,
    over the E of elementary_sections with E/h of rank n, of
    (-1)^n p^(n choose 2) chi(class of E); chi takes a SubgroupClass."""
    p = permgrp.require_p_group(k)
    lattice = permgrp._lattice(k)
    cls = lattice.class_of(h.mask)
    if cls.size * h.order == k.order:  # h = N_k(h), so E = h alone
        return Fraction(chi(cls))
    rank = {p ** n: n for n in range(k.order.bit_length())}
    total = 0
    for e in elementary_sections(k, h, p):
        n = rank[e.order // h.order]
        total += (-1) ** n * p ** (n * (n - 1) // 2) * chi(lattice.class_of(e.mask))
    return Fraction(total * h.order * cls.size, k.order)


# ------------------------------------------------------------ poset oracles


def count_chains(n, lt_pairs):
    """Number of k-element chains for each k, by DFS over the raw relation."""
    above = {i: [j for j in range(n) if (i, j) in lt_pairs] for i in range(n)}
    counts = {}

    def extend(i, length):
        counts[length] = counts.get(length, 0) + 1
        for j in above[i]:
            extend(j, length + 1)

    for i in range(n):
        extend(i, 1)
    return counts


def chain_sum_euler(n, lt_pairs):
    """Reduced Euler characteristic of the order complex as the chain sum
    -1 + sum over k of (-1)^(k-1) (number of k-element chains)."""
    counts = count_chains(n, lt_pairs)
    return -1 + sum((-1) ** (k - 1) * c for k, c in counts.items())


def order_complex_homology(s):
    """Reduced homology of the order complex of the whole poset s, its
    chains listed by DFS over the raw relation, on the element indices:
    the route FinitePoset.reduced_homology took for every poset that is not
    a cone before it cut such posets to their core."""
    n = len(s)
    above = {i: [j for j in range(n) if (i, j) in s.lt] for i in range(n)}
    chains = []

    def extend(chain):
        chains.append(tuple(sorted(chain)))
        for j in above[chain[-1]]:
            extend(chain + (j,))

    for i in range(n):
        extend((i,))
    return SimplicialComplex(range(n), chains).reduced_homology()


def inclusion_pairs_by_scan(subs):
    """The pairs (i, j) with subs[i] a proper subgroup of subs[j], all
    subgroups of one group, by comparing the masks of every two of them in
    any order: the pair scan that inclusion posets were built by."""
    masks = [s.mask for s in subs]
    return frozenset((i, j) for j, mj in enumerate(masks)
                     for i, mi in enumerate(masks)
                     if i != j and not mi & ~mj)


def mobius_euler(n, lt_pairs):
    """Reduced Euler characteristic of the order complex via the Mobius
    function of the poset with a bottom and top adjoined: chi-tilde equals
    mu(bottom, top).  No chain enumeration involved."""
    below = {i: [j for j in range(n) if (j, i) in lt_pairs] for i in range(n)}
    mu = {}
    order = sorted(range(n), key=lambda i: len(below[i]))
    for i in order:
        mu[i] = -1 - sum(mu[j] for j in below[i])
    return -1 - sum(mu.values())


# -------------------------------------------------------- simplicial oracles


def list_cliques(adj):
    """Every nonempty clique of the graph {vertex: set of neighbours}, in
    the order simp._cliques yields them: depth first from an explicit stack
    of (clique, candidates) entries, each candidate list scanned for the
    neighbours of the vertex just added."""
    stack = [((), sorted(adj))]
    while stack:
        clique, candidates = stack.pop()
        for i, v in enumerate(candidates):
            s = clique + (v,)
            yield s
            nbrs = adj[v]
            rest = [w for w in candidates[i + 1:] if w in nbrs]
            if rest:
                stack.append((s, rest))


def brute_link(x, s):
    """The simplices of the link of s in x, {t - s : t a simplex of x with
    s a proper face of t}, from a scan over every simplex."""
    sset = set(s)
    return {tuple(v for v in t if v not in sset)
            for t in x.simplices if sset < set(t)}


def uncovered_by_lattice(action):
    """The sorted vertices whose stabilizer holds no nontrivial proper
    subgroup of the acting group, each stabilizer tested against every
    such subgroup of the lattice."""
    k = action.group
    proper = [h for h in all_subgroups(k)
              if not h.is_trivial and h.order < k.order]
    return sorted(v for v in action.complex.vertices
                  if not any(q <= action.vertex_stabilizer(v) for q in proper))


def simplicial_reduced_betti(x, d):
    """Reduced betti number recomputed from the face data alone."""
    by_dim = {-1: [()]}
    for s in x.simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    for k in by_dim:
        by_dim[k] = sorted(by_dim[k])

    def boundary(k):
        rows = by_dim.get(k - 1, [])
        cols = by_dim.get(k, [])
        idx = {s: i for i, s in enumerate(rows)}
        m = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                m[idx[face]][j] = (-1) ** i
        return m

    cells = len(by_dim.get(d, []))
    return cells - rational_rank(boundary(d)) - rational_rank(boundary(d + 1))


def barycentric_by_pair_scan(x):
    """Barycentric subdivision from a scan over every pair of faces, with
    each chain of faces grown one larger face at a time from its least
    element; quadratic in the number of simplices."""
    simps = sorted(x.simplices)
    names = {s: "|".join(s) for s in simps}
    above = {a: [b for b in simps if len(a) < len(b) and set(a) < set(b)]
             for a in simps}
    chains = set()
    stack = [(a,) for a in simps]
    while stack:
        chain = stack.pop()
        chains.add(tuple(sorted(names[s] for s in chain)))
        stack.extend(chain + (b,) for b in above[chain[-1]])
    return SimplicialComplex([names[s] for s in simps], chains)
