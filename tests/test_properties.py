"""Property tests: random small permutation groups, integer matrices and
flag complexes against brute-force oracles and theorems."""

import json
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import helpers  # noqa: E402
from equichar import (FinitePoset, InputError, cli,  # noqa: E402
                      IntegerMatrix, Permutation,
                      SimplicialComplex, all_subgroups, augment, cohomology,
                      conjugacy_classes_of_subgroups,
                      duality, euler_class, euler_class_cyclic,
                      exactlin,
                      group_from_generators, homology, homology_mod_p,
                      normalizer, smith_normal_form)


@st.composite
def small_groups(draw):
    """A group generated by one to three permutations of at most five points."""
    n = draw(st.integers(1, 5))
    points = [str(i) for i in range(1, n + 1)]
    images = draw(st.lists(st.permutations(points), min_size=1, max_size=3))
    gens = [Permutation(points, dict(zip(points, img))) for img in images]
    return group_from_generators(points, gens)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(small_groups())
def test_lattice_lagrange_and_normalizers(g):
    assume(g.order <= 24)
    subs = all_subgroups(g)
    assert len(subs) == len(helpers.brute_subgroups(g))
    for h in subs:
        assert g.order % h.order == 0
        members = set(h.elements)
        fixing = {x.key for x in g.elements
                  if {x.inverse() * y * x for y in h.elements} == members}
        assert set(normalizer(g, h).key) == fixing


@st.composite
def groups_up_to_48(draw):
    """A group of order at most 48, generated by one to three random
    permutations of six points that each keep the blocks of a random
    partition; on six points each of its subgroups needs at most three
    generators, as brute_subgroups requires."""
    points = [str(i) for i in range(1, 7)]
    sizes = draw(st.sampled_from([(6,), (5, 1), (4, 2), (3, 3), (3, 2, 1),
                                  (2, 2, 2)]))
    blocks = []
    start = 0
    for size in sizes:
        blocks.append(points[start:start + size])
        start += size
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        mapping = {}
        for block in blocks:
            mapping.update(zip(block, draw(st.permutations(block))))
        gens.append(Permutation(points, mapping))
    g = group_from_generators(points, gens)
    assume(g.order <= 48)
    return g


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(groups_up_to_48())
def test_lattice_and_classes_against_brute_force(g):
    # the power and cover rules of the cyclic extension lose no subgroup
    brute = helpers.brute_subgroups(g)
    assert {frozenset(h.key) for h in all_subgroups(g)} == brute
    assert ({frozenset(frozenset(h.key) for h in c.members)
             for c in conjugacy_classes_of_subgroups(g)}
            == helpers.brute_classes(g, brute))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(small_groups(), st.lists(st.integers(0, 10 ** 6), max_size=3))
def test_subgroup_generated_equals_closure_of_keys(g, picks):
    # the one closure routine on element numbers against it on image tuples
    xs = [g.elements[i % g.order] for i in picks]
    assert (g.subgroup_generated(xs).key
            == tuple(x.key for x in group_from_generators(g.points, xs)))


@st.composite
def permutation_lists(draw):
    """Two to six permutations of the points "1" .. "n" for n up to 12, so
    that for n >= 10 the points' string order ("1", "10", "11", "2", ...)
    differs from their numeric order."""
    n = draw(st.integers(1, 12))
    points = [str(i) for i in range(1, n + 1)]
    images = draw(st.lists(st.permutations(points), min_size=2, max_size=6))
    return [Permutation(points, dict(zip(points, img))) for img in images]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(permutation_lists(), st.integers(0, 7))
def test_permutation_arithmetic_on_named_points(perms, k):
    a, b = perms[0], perms[1]
    ident = Permutation.identity(a.points)
    assert all((a * b)(x) == a(b(x)) for x in a.points)
    assert (a.inverse() * a).is_identity and a.inverse() * a == ident
    assert a ** -k == (a ** k).inverse()
    power, n = a, 1
    while power != ident:
        power, n = power * a, n + 1
    assert a.order() == n
    assert (sorted(perms)
            == sorted(perms, key=lambda g: tuple(g(p) for p in g.points)))


@st.composite
def sparse_matrices(draw):
    """Up to 8 x 8, entries in {0, +-1, +-2, 3, 6}, empty shapes included."""
    nr = draw(st.integers(0, 8))
    nc = draw(st.integers(0, 8))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 6])
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    return IntegerMatrix(nr, nc, rows)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(sparse_matrices())
def test_sparse_snf_equals_dense_snf(m):
    assert smith_normal_form(m) == exactlin._dense_snf(m)


@st.composite
def flag_complexes(draw):
    """The flag complex of a graph on at most nine vertices."""
    n = draw(st.integers(0, 9))
    verts = [str(i) for i in range(n)]
    pairs = list(combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimplicialComplex.flag_from_graph(
        verts, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(flag_complexes())
def test_universal_coefficients_on_flag_complexes(x):
    # dim H~_d(X; GF(p)) = betti_d + #{p | t in torsion_d} + #{p | t in torsion_(d-1)}
    h = x.reduced_homology()
    for p in (2, 3):
        dims = x.reduced_homology_mod_p(p)
        assert sorted(dims) == sorted(h)
        for d, g in h.items():
            below = h[d - 1].torsion if d - 1 in h else ()
            assert dims[d] == (g.betti + sum(1 for t in g.torsion if t % p == 0)
                               + sum(1 for t in below if t % p == 0))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(flag_complexes())
def test_reduced_chains_match_augmented_route(x):
    augmented = augment(x.chain_complex())
    assert x.reduced_homology() == homology(augmented)
    assert x.reduced_cohomology() == cohomology(augmented)
    assert x.reduced_homology_mod_p(2) == homology_mod_p(augmented, 2)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(flag_complexes())
def test_homology_equals_the_route_without_clearing(x):
    # the top-down driver, which clears, against every full boundary
    chains = x.chain_complex()
    augmented = augment(chains)
    for c in (chains, augmented):
        h = helpers.homology_without_clearing(c)
        assert homology(c) == h
        assert cohomology(c) == helpers.dual_by_universal_coefficients(h)
        for p in (2, 3):
            assert homology_mod_p(c, p) == helpers.mod_p_without_clearing(c, p)
    h = helpers.homology_without_clearing(augmented)
    assert x.reduced_homology() == h
    assert x.reduced_cohomology() == helpers.dual_by_universal_coefficients(h)
    for p in (2, 3):
        assert x.reduced_homology_mod_p(p) == helpers.mod_p_without_clearing(augmented, p)


@st.composite
def facet_complexes(draw):
    """A complex closed from up to six random facets of one to four
    vertices on at most eight: flag or not, with isolated vertices,
    several components, 0-dimensional and empty complexes among them."""
    n = draw(st.integers(0, 8))
    verts = [str(i) for i in range(n)]
    facets = draw(st.lists(st.lists(st.sampled_from(verts), min_size=1,
                                    max_size=min(n, 4), unique=True),
                           max_size=6)) if n else []
    return SimplicialComplex.from_maximal_simplices(verts, facets)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(facet_complexes(), st.randoms(use_true_random=False))
def test_reduced_homology_of_facet_complexes_without_clearing(x, rng):
    # the bottom two degrees are counted in closed form (union-find, the
    # augmentation's rank 1), the others reduced; both against every full
    # boundary of the augmented chain complex, for two vertex namings
    augmented = augment(x.chain_complex())
    h = helpers.homology_without_clearing(augmented)
    tables = (h, helpers.dual_by_universal_coefficients(h),
              helpers.mod_p_without_clearing(augmented, 2),
              helpers.mod_p_without_clearing(augmented, 3))
    names = ["w%d" % i for i in range(len(x.vertices))]
    rng.shuffle(names)
    for y in (x, x.relabel(dict(zip(x.vertices, names)))):
        assert (y.reduced_homology(), y.reduced_cohomology(),
                y.reduced_homology_mod_p(2),
                y.reduced_homology_mod_p(3)) == tables


# p-groups on the points 1 .. 6, as generator cycles
P_GROUPS = (("(1 2)",), ("(1 2)(3 4)",), ("(1 2)", "(3 4)"), ("(1 2 3 4)",),
            ("(1 2 3 4)", "(1 3)"), ("(1 2)(3 4)", "(5 6)"), ("(1 2 3)",),
            ("(1 2 3)(4 5 6)",), ("(1 2 3)", "(4 5 6)"))
CYCLIC_P_GROUPS = tuple(t for t in P_GROUPS if len(t) == 1) + (("(1 2 3 4)(5 6)",),)


@st.composite
def admissible_actions(draw, groups=P_GROUPS):
    """One of the p-groups acting on a complex over six points whose
    facets are closed under it, carried to the barycentric subdivision."""
    points = [str(i) for i in range(1, 7)]
    g = group_from_generators(points, [Permutation.from_cycles(points, t)
                                       for t in draw(st.sampled_from(groups))])
    seeds = draw(st.lists(st.lists(st.sampled_from(points), min_size=1,
                                   max_size=3, unique=True),
                          min_size=1, max_size=4))
    facets = {tuple(sorted(x(v) for v in f)) for f in seeds for x in g.elements}
    x = SimplicialComplex.from_maximal_simplices(points, facets)
    return helpers.subdivided_action(x, g)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(admissible_actions())
def test_euler_class_equals_orbit_count(act):
    counts = helpers.orbit_count_euler_class(act)
    coeffs = {h.key: c for h, c in euler_class(act).entries()}
    assert set(counts) <= set(coeffs)
    assert coeffs == {k: counts.get(k, 0) for k in coeffs}


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(admissible_actions())
def test_fixed_euler_characteristic_congruence(act):
    # the simplices off L^K fall into K-orbits of size divisible by p, so
    # chi(L^K) = chi(L) mod p; checked on the signed count of the list of
    # K's mask that the Euler class reads, and on the built fixed complex
    k = act.group
    p = exactlin.prime_power_base(k.order)
    chi = act.complex.euler_characteristic()
    fixed_by_k = act._by_mask().get(k.mask, ())
    assert (sum((-1) ** (len(s) - 1) for s in fixed_by_k) - chi) % p == 0
    assert (act.fixed_subcomplex(k.whole()).euler_characteristic() - chi) % p == 0


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(admissible_actions())
def test_weyl_route_is_supported_on_stabilizer_classes(act):
    # the coefficient of (H) counts the simplices with stabilizer in (H),
    # so it is nonzero only for H = K (the empty simplex) or H conjugate
    # to a simplex stabilizer; the count has this by construction, and
    # the paper's weighted sum must have it too
    k = act.group
    images = [(g.key, act.image(g)) for g in k.elements]
    stabilizers = {frozenset(key for key, img in images
                             if tuple(sorted(map(img, s))) == s)
                   for s in act.complex.simplices}
    chi = {}
    for c in conjugacy_classes_of_subgroups(k):
        fixed = act.fixed_subcomplex(c.rep)
        chi[c.rep] = 1 - fixed.euler_characteristic()
    for c in conjugacy_classes_of_subgroups(k):
        if helpers.weyl_sum(k, c.rep, lambda e: chi[e.rep]):
            assert c.rep.order == k.order or any(
                frozenset(h.key) in stabilizers for h in c.members)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(admissible_actions(CYCLIC_P_GROUPS))
def test_euler_class_equals_cyclic_telescope(act):
    # chi(L^E) from stabilizer masks against chi of the built fixed complexes
    assert euler_class(act) == euler_class_cyclic(act)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(flag_complexes())
def test_link_table_matches_link_homology_on_flag_complexes(x):
    # closed forms below dimension 2, Smith normal form above, against
    # Smith normal form of every augmented link
    table = duality._link_table(x)
    assert list(table) == [()] + sorted(x.simplices)
    for s, hom in table.items():
        assert hom == homology(augment(x.link(s).chain_complex()))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    if n else st.just(set()))))
def test_poset_validator_equals_the_triple_loop(relation):
    # the bitmask check accepts exactly the irreflexive, antisymmetric,
    # transitive relations, read off pair by pair
    n, lt = relation
    strict = (all(i != j and (j, i) not in lt for i, j in lt)
              and all((i, k) in lt for i, j in lt for j2, k in lt if j2 == j))
    try:
        FinitePoset(range(n), lt)
    except InputError:
        assert not strict
    else:
        assert strict


@st.composite
def strict_orders(draw):
    """The transitive closure of a random DAG on at most 7 elements, its
    edges running from lower to higher index."""
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lt = set(draw(st.lists(st.sampled_from(pairs), unique=True))
             if pairs else ())
    for j in range(n):  # close j's downsets, lowest j first
        for i in range(j):
            if (i, j) in lt:
                lt |= {(k, j) for k in range(i) if (k, i) in lt}
    return FinitePoset(range(n), lt)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(strict_orders())
def test_augmented_euler_equals_the_chain_sum_on_strict_orders(p):
    counts = helpers.count_chains(len(p), p.lt)
    assert p.augmented_euler() == helpers.chain_sum_euler(len(p), p.lt)
    assert p.chain_counts() == tuple(counts[k] for k in sorted(counts))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(strict_orders(), st.randoms(use_true_random=False))
def test_reduced_homology_equals_the_order_complex_oracle_on_strict_orders(
        p, rng):
    # renumbered, so the element indices need not be a linear extension
    n = len(p)
    new = list(range(n))
    rng.shuffle(new)
    relabelled = {(new[i], new[j]) for i, j in p.lt}
    q = FinitePoset(range(n), relabelled)
    for s, lt in ((p, p.lt), (q, relabelled)):
        want = helpers.order_complex_homology(s)
        assert list(s.reduced_homology().items()) == list(want.items())
        # the pairs given are the pairs read back off the up-sets
        assert FinitePoset(range(n), lt).lt == frozenset(lt)


@st.composite
def cycle_notations(draw):
    """Named points, a random {point: image} bijection of them, and its
    cycle notation: the cycles in any order, each begun at any of its
    points, with spaces, commas or tabs between names and nothing,
    spaces or newlines between cycles."""
    points = draw(st.lists(st.text("abz019_.", min_size=1, max_size=3),
                           min_size=1, max_size=8, unique=True))
    mapping = dict(zip(points, draw(st.permutations(points))))
    cycles, seen = [], set()
    for p in points:
        if p in seen or mapping[p] == p:
            continue
        cycle = [p]
        while mapping[cycle[-1]] != p:
            cycle.append(mapping[cycle[-1]])
        seen.update(cycle)
        k = draw(st.integers(0, len(cycle) - 1))
        cycles.append(cycle[k:] + cycle[:k])
    sep = draw(st.sampled_from([" ", ", ", "\t", "  "]))
    gap = draw(st.sampled_from(["", " ", "\n"]))
    text = gap.join("(" + sep.join(c) + ")"
                    for c in draw(st.permutations(cycles)))
    return points, mapping, text


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(cycle_notations())
def test_from_cycles_equals_the_mapping_constructor(case):
    points, mapping, text = case
    parsed = Permutation.from_cycles(points, text)
    built = Permutation(points, mapping)
    assert parsed == built
    assert parsed.mapping == built.mapping == mapping
    assert (parsed.key, str(parsed)) == (built.key, str(built))


# strings with the characters JSON escapes, beside any other
json_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud7ff\U0001f600')
                    | st.characters(), max_size=8)
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([2 ** 100, -3 ** 70]) | json_text,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(json_text, inner)),
    max_leaves=12)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(json_documents)
def test_json_writer_equals_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)
