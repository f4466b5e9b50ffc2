"""Simplicial complexes, group actions on them, subcomplex embeddings."""

import pathlib
import random
import re
import time
from itertools import combinations, permutations

import pytest

import helpers
from equichar import (ChainComplexZ, FinitePoset, GroupAction,
                      HomologyGroup, InputError, Permutation,
                      PreconditionError, SimplicialComplex, all_subgroups,
                      augment, complex_of_chains,
                      conjugacy_classes_of_subgroups, double_along,
                      find_full_subcomplex_isomorphic, group_from_generators,
                      normalizer, simp)
from equichar.cli import load_complex, load_group
from equichar.permgrp import homomorphism_images

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_face_closure():
    x = SimplicialComplex.from_maximal_simplices(["a", "b", "c"],
                                                 [("a", "b", "c")])
    assert ("a", "b") in x.simplices
    assert ("b",) in x.simplices
    assert x.dim == 2
    assert x.f_vector() == (3, 3, 1)
    # overlapping, repeated, unsorted and empty facets
    x = SimplicialComplex.from_maximal_simplices(
        ["a", "b", "c", "d", "e"],
        [("a", "b", "c", "d"), ("c", "b"), ("d", "c", "e"), ("e", "c", "d"), ()])
    assert x.f_vector() == (5, 8, 5, 1)
    assert SimplicialComplex(x.vertices, x.simplices) == x


def test_isolated_vertices_kept():
    x = SimplicialComplex.from_maximal_simplices(["a", "b", "c"], [("a", "b")])
    assert ("c",) in x.simplices
    assert x.euler_characteristic() == 2


@pytest.mark.parametrize("simplices, message", [
    [[("a",), ("b",), ()], "the empty simplex is implicit; do not store it"],
    [[("a",), ("b",), ("b", "a")],
     "simplex ('b', 'a') is not a sorted duplicate-free tuple"],
    [[("a",), ("b",), ("a", "a")],
     "simplex ('a', 'a') is not a sorted duplicate-free tuple"],
    [[("a",), ("b",), ("z",)], "simplex ('z',) uses undeclared vertices"],
    [[("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("a", "b", "c")],
     "face ('b', 'c') of ('a', 'b', 'c') is missing"],
    [[("a",), ("c",)], "vertex 'b' has no 0-simplex"],
])
def test_complex_validation_messages(simplices, message):
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        SimplicialComplex(["a", "b", "c"], simplices)


def test_unknown_vertex_rejected():
    with pytest.raises(InputError):
        SimplicialComplex.from_maximal_simplices(["a", "b"], [("a", "z")])


def test_flag_from_graph_builds_cliques():
    x = SimplicialComplex.flag_from_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    assert ("a", "b", "c") in x.simplices
    assert ("a", "b", "c", "d") not in x.simplices
    assert x.is_flag()


def clique_graphs():
    """{name: adjacency} of the graphs the clique enumerator is checked
    on: edge cases, a complete graph, seeded G(n, p) on string labels, and
    int labels as FinitePoset.chain_counts passes them."""
    k12 = [str(i) for i in range(12)]
    graphs = {
        "empty": {},
        "point": {"a": set()},
        "isolated": simp._adjacency("dbca", []),
        "K12": simp._adjacency(k12, combinations(k12, 2)),
    }
    rng = random.Random(20261020)
    for n in (10, 25, 40):
        for p in (0.25, 0.55):
            verts = [str(i) for i in range(n)]
            rng.shuffle(verts)
            graphs["gnp-%d-%s" % (n, p)] = simp._adjacency(
                verts, [e for e in combinations(verts, 2) if rng.random() < p])
            graphs["gnp-%d-%s-ints" % (n, p)] = simp._adjacency(
                range(n), [e for e in combinations(range(n), 2)
                           if rng.random() < p])
    return graphs


@pytest.mark.parametrize("name", list(clique_graphs()))
def test_cliques_match_the_list_scan(name):
    # the bitmask walk yields the cliques of the list scan in its order,
    # which fixes the order of every table the cliques feed
    adj = clique_graphs()[name]
    assert list(simp._cliques(adj)) == list(helpers.list_cliques(adj))


def test_flagness():
    hollow = SimplicialComplex.from_maximal_simplices(
        ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    assert not hollow.is_flag()
    assert helpers.t_complex().is_flag()
    assert helpers.octahedron().is_flag()
    assert not helpers.tetra_boundary().is_flag()


def test_euler_characteristics():
    assert helpers.two_edges().euler_characteristic() == 2
    assert helpers.star5().euler_characteristic() == 1
    assert helpers.t_complex().euler_characteristic() == 1
    assert helpers.octahedron().euler_characteristic() == 2
    assert helpers.tetra_boundary().euler_characteristic() == 2
    assert helpers.rp2_triangulation().euler_characteristic() == 1


def test_degree_and_edges():
    star = helpers.star5()
    assert star.degree("5") == 4
    assert star.degree("1") == 1
    assert len(star.edges()) == 4


def test_link_of_vertex_in_octahedron():
    oct_ = helpers.octahedron()
    lk = oct_.link(("1",))
    assert lk.f_vector() == (4, 4)
    assert lk.reduced_homology()[1] == HomologyGroup(1)


def test_link_matches_join_definition():
    # lk(s) = {t : t and s disjoint, t u s in K}, scanned the long way
    for x in (helpers.octahedron().barycentric_subdivision(),
              helpers.rp2_triangulation(), helpers.t_complex(),
              helpers.cross_polytope(4), *helpers.random_flag_complexes()):
        for s in sorted(x.simplices):
            expected = {t for t in x.simplices if not set(t) & set(s)
                        and tuple(sorted(set(t) | set(s))) in x.simplices}
            lk = x.link(s)
            assert lk.simplices == expected
            assert set(lk.vertices) == {v for t in expected for v in t}
            # a second call on the same complex reads the same answer
            assert x.link(s) == lk
            assert x.link(reversed(s)) == lk


def test_link_conventions():
    x = helpers.t_complex()
    assert x.link(()) == x
    assert x.link(("u", "v1", "w1")).is_empty
    with pytest.raises(InputError):
        x.link(("u", "v1", "v2"))


def test_full_subcomplex():
    oct_ = helpers.octahedron()
    sub = oct_.full_subcomplex(["1", "2", "3"])
    assert ("1", "2", "3") in sub.simplices
    path = oct_.full_subcomplex(["1", "6"])
    assert path.f_vector() == (2,)
    assert oct_.full_subcomplex(reversed(oct_.vertices)) is oct_


def test_reduced_homology_spheres():
    assert helpers.tetra_boundary().reduced_homology()[2] == HomologyGroup(1)
    assert all(g.is_trivial for d, g in
               helpers.tetra_boundary().reduced_homology().items() if d != 2)
    assert helpers.octahedron().reduced_homology()[2] == HomologyGroup(1)
    assert all(g.is_trivial for g in helpers.star5().reduced_homology().values())


def test_reduced_homology_rp2():
    h = helpers.rp2_triangulation().reduced_homology()
    assert h[0] == HomologyGroup()
    assert h[1] == HomologyGroup(0, (2,))
    assert h[2] == HomologyGroup()
    mod2 = helpers.rp2_triangulation().reduced_homology_mod_p(2)
    assert (mod2[0], mod2[1], mod2[2]) == (0, 1, 1)


def test_reduced_chains_equal_augmented_chain_complex():
    # the empty simplex as the (-1)-cell writes the augmentation row itself
    for x in (*helpers.complex_corpus().values(), helpers.cross_polytope(4),
              helpers.octahedron().barycentric_subdivision(),
              SimplicialComplex.empty()):
        chains = x.chain_complex()
        assert chains.labels == {d: tuple("|".join(s) for s in x.simplices_of_dim(d))
                                 for d in chains.degrees()}
        cells, boundary = x._chains(reduced=True)
        augmented = augment(chains)
        assert {d: len(group) for d, group in cells.items()} == augmented.ranks
        assert {d: boundary(d) for d in cells if d >= 0} == augmented.boundaries
        # a cleared column is never written; the others are as before
        for d in cells:
            if d >= 0:
                cleared = set(range(0, len(cells[d]), 2))
                assert [{j: v for j, v in row.items() if j not in cleared}
                        for row in augmented.boundaries[d].entries] == \
                    boundary(d, cleared).entries


def test_reduced_homology_against_oracle():
    for x in helpers.complex_corpus().values():
        h = x.reduced_homology()
        for d in range(x.dim + 1):
            assert h[d].betti == helpers.simplicial_reduced_betti(x, d)


def test_barycentric_subdivision():
    bary = helpers.tetra_boundary().barycentric_subdivision()
    assert bary.f_vector() == (14, 36, 24)
    assert bary.euler_characteristic() == 2
    assert bary.is_flag()
    assert bary.reduced_homology()[2] == HomologyGroup(1)


def test_barycentric_subdivision_matches_pair_scan():
    for x in (*helpers.complex_corpus().values(), helpers.cross_polytope(4),
              helpers.octahedron().barycentric_subdivision(),
              SimplicialComplex.empty(), *helpers.random_flag_complexes()):
        assert x.barycentric_subdivision() == helpers.barycentric_by_pair_scan(x)


def test_complex_of_chains():
    labels = ("a", "b", "c")
    x = complex_of_chains(labels, {("a", "b"), ("b", "c"), ("a", "c")})
    assert ("a", "b", "c") in x.simplices
    assert x.dim == 2


def test_complex_of_chains_is_flag_complex_of_comparability_graph():
    bary = helpers.octahedron().barycentric_subdivision()
    faces = sorted(bary.simplices)
    labels = ["/".join(s) for s in faces]
    pairs = [("/".join(a), "/".join(b)) for a in faces for b in faces
             if len(a) < len(b) and set(a) < set(b)]
    chains = complex_of_chains(labels, pairs)
    assert chains == SimplicialComplex.flag_from_graph(labels, pairs)
    assert chains.f_vector() == (146, 432, 288)


def test_is_flag_stops_at_first_missing_clique():
    verts = ["v%02d" % i for i in range(20)]
    skeleton = SimplicialComplex.from_maximal_simplices(
        verts, combinations(verts, 2))
    start = time.perf_counter()
    assert not skeleton.is_flag()
    assert time.perf_counter() - start < 0.5


def test_reduced_homology_of_empty_complex():
    empty = SimplicialComplex.empty()
    assert empty.reduced_homology() == {-1: HomologyGroup(1)}
    assert empty.reduced_cohomology() == {-1: HomologyGroup(1)}
    assert empty.reduced_homology_mod_p(2) == {-1: 1}


def test_admissible_action():
    star = helpers.star5()
    act = GroupAction(star, helpers.group_on(star, "(1 2)", "(3 4)"))
    assert act.is_admissible()
    assert act.admissibility_witness() is None


def test_non_admissible_action_witnessed():
    edge = SimplicialComplex.from_maximal_simplices(["1", "2"], [("1", "2")])
    act = GroupAction(edge, helpers.group_on(edge, "(1 2)"))
    assert not act.is_admissible()
    g, s = act.admissibility_witness()
    assert s == ("1", "2")
    with pytest.raises(PreconditionError):
        act.require_admissible()


def test_non_simplicial_image_rejected():
    edges = helpers.two_edges()
    with pytest.raises(InputError):
        GroupAction(edges, helpers.group_on(edges, "(1 3)"))


def _triangle_action(*image_texts):
    tri = SimplicialComplex.from_maximal_simplices("abc", [("a", "b", "c")])
    g = helpers.group("(1 2)", "(3 4)")
    images = {gen: Permutation.from_cycles(tri.vertices, t)
              for gen, t in zip(g.generators, image_texts)}
    return GroupAction(tri, g, generator_images=images)


def test_images_of_wrong_order_rejected():
    with pytest.raises(InputError, match="do not define a homomorphism"):
        _triangle_action("(a b c)", "()")


def test_non_commuting_images_rejected():
    with pytest.raises(InputError, match="do not define a homomorphism"):
        _triangle_action("(a b)", "(b c)")


def test_image_on_wrong_points_rejected():
    tri = SimplicialComplex.from_maximal_simplices("abc", [("a", "b", "c")])
    g = helpers.group("(1 2)")
    images = {g.generators[0]: Permutation.from_cycles("ab", "(a b)")}
    with pytest.raises(InputError, match="does not permute the vertices"):
        GroupAction(tri, g, generator_images=images)


def test_missing_generator_image_rejected():
    tri = SimplicialComplex.from_maximal_simplices("abc", [("a", "b", "c")])
    g = helpers.group("(1 2)", "(3 4)")
    images = {g.generators[0]: Permutation.from_cycles(tri.vertices, "(a b)")}
    with pytest.raises(InputError, match=r"no image given for generator \(3 4\)"):
        GroupAction(tri, g, generator_images=images)


def test_non_permutation_generator_image_rejected():
    tri = SimplicialComplex.from_maximal_simplices("abc", [("a", "b", "c")])
    g = helpers.group("(1 2)")
    for bad in ({"a": "b", "b": "a", "c": "c"}, "(a b)", 5):
        with pytest.raises(InputError,
                           match=r"image of \(1 2\) is not a permutation"):
            GroupAction(tri, g, generator_images={g.generators[0]: bad})


def test_foreign_point_set_is_outside_the_acting_group():
    square = SimplicialComplex.from_maximal_simplices(
        "1234", [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
    act = GroupAction(square, helpers.d8())
    foreign = Permutation.from_cycles("wxyz", "(w x y z)")
    assert foreign.key == Permutation.from_cycles("1234", "(1 2 3 4)").key
    with pytest.raises(InputError, match="outside the acting group"):
        act.image(foreign)
    with pytest.raises(InputError, match="outside the acting group"):
        act.fixed_vertices([foreign])


def test_generators_must_generate_the_group():
    square = SimplicialComplex.from_maximal_simplices(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    g = helpers.group("(1 2)")
    gen = g.generators[0]
    # a 4-cycle image of an involution fits in |g| elements but repeats
    # the involution's first part
    with pytest.raises(InputError, match="do not define a homomorphism"):
        GroupAction(square, g, {gen: Permutation.from_cycles("abcd", "(a b c d)")})


def test_implicit_images_equal_the_closed_homomorphism():
    # a group that permutes the vertices is its own image, as closing the
    # identity assignment on its generators would give, and a generator
    # that breaks a simplex is refused alike on both paths
    actions = refused = 0
    for x_name in ("T", "artinL", "octahedron", "star", "tetra_boundary"):
        x = load_complex(DATA / (x_name + ".json"))
        for g_name in ("c2", "c2swap", "c4", "d8", "k1", "k2", "s4"):
            try:
                g = load_group(DATA / (g_name + ".json"), complex=x)
            except InputError:
                continue
            identity = {gen: gen for gen in g.generators}
            try:
                act = GroupAction(x, g)
            except InputError as exc:
                with pytest.raises(InputError, match="^%s$" % re.escape(str(exc))):
                    GroupAction(x, g, generator_images=identity)
                refused += 1
                continue
            closed = homomorphism_images(g, x.vertices, identity)
            assert list(act.images.items()) == list(closed.items())
            assert act._stabilizers == GroupAction(x, g, identity)._stabilizers
            actions += 1
    assert (actions, refused) == (10, 11)


def test_explicit_images_are_still_closed():
    # images given for a group that permutes the vertices itself still go
    # through the closure, which refuses a non-homomorphism: (1 2) does
    # not invert (1 2 3 4) by conjugation as the image of (1 3) must
    square = SimplicialComplex.from_maximal_simplices(
        "1234", [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
    g = helpers.d8()
    rotation, reflection = g.generators
    images = {rotation: rotation,
              reflection: Permutation.from_cycles(square.vertices, "(1 2)")}
    with pytest.raises(InputError, match="^generator images do not define "
                       "a homomorphism$"):
        GroupAction(square, g, generator_images=images)


def test_broken_simplex_named_is_the_least():
    # the check walks the simplex set in its own order but names the least
    # broken simplex; the vertex names are varied until that order meets
    # another broken simplex first.  (v2 v3)(v4 v5)(v6 v7)(v8 v9) breaks
    # each of the four edges
    for prefix in "abcdefghijklmnopqrst":
        v = [prefix + str(i) for i in range(10)]
        x = SimplicialComplex.from_maximal_simplices(
            v[1:], [(v[1], v[2]), (v[3], v[4]), (v[5], v[6]), (v[7], v[8])])
        g = helpers.group_on(x, "(%s %s)(%s %s)(%s %s)(%s %s)" % tuple(v[2:]))
        gen = g.generators[0]
        broken = [s for s in x.simplices
                  if tuple(sorted(map(gen, s))) not in x.simplices]
        if broken[0] != min(broken):
            break
    else:
        pytest.fail("every vertex naming meets the least broken simplex first")
    assert len(broken) == 4 and min(broken) == (v[1], v[2])
    with pytest.raises(InputError, match="^%s$" % re.escape(
            "generator %s breaks simplex %r" % (gen, (v[1], v[2])))):
        GroupAction(x, g)


def _assert_homomorphism(act):
    images = act.images
    assert list(images) == [g.key for g in act.group.elements]
    for g in act.group.elements:
        for h in act.group.elements:
            assert images[(g * h).key] == images[g.key] * images[h.key]


def test_images_form_a_homomorphism():
    octa = helpers.octahedron()
    sylow = helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)")
    assert sylow.order == 16
    _assert_homomorphism(helpers.subdivided_action(octa, sylow))
    tri = helpers.tetra_boundary().barycentric_subdivision()
    emb = find_full_subcomplex_isomorphic(tri, helpers.t_complex())
    doubled, swap = double_along(tri, emb.mapping.values())
    assert swap.group.order == 2
    _assert_homomorphism(swap)


def test_fixed_subcomplex():
    star = helpers.star5()
    act = GroupAction(star, helpers.group_on(star, "(1 3)(2 4)"))
    g = act.group
    fixed = act.fixed_subcomplex(g.whole())
    assert fixed.vertices == ("5",)
    assert act.fixed_subcomplex(g.trivial_subgroup()) == star


def test_fixed_subcomplex_keeps_fixed_edges():
    star = helpers.star5()
    act = GroupAction(star, helpers.group_on(star, "(2 4)"))
    fixed = act.fixed_subcomplex(act.group.whole())
    assert set(fixed.vertices) == {"1", "3", "5"}
    assert ("1", "5") in fixed.simplices


def _total_betti_mod_p(x, p):
    """Total unreduced F_p Betti number: 0 for the empty complex, else the
    reduced total plus one."""
    return 0 if x.is_empty else sum(x.reduced_homology_mod_p(p).values()) + 1


def test_floyd_inequality_on_fixed_complexes():
    # Floyd (1952): for a p-group H acting admissibly on L, the total F_p
    # Betti number of L^H is at most that of L
    cross3, cross4 = helpers.cross_polytope(3), helpers.cross_polytope(4)
    octa = helpers.octahedron()
    cases = [
        (GroupAction(cross3, helpers.group_on(cross3, "(1 4)", "(2 5)", "(3 6)")), 2),
        (GroupAction(cross4, helpers.group_on(
            cross4, "(1 5)", "(2 6)", "(3 7)", "(4 8)")), 2),
        (helpers.subdivided_action(
            octa, helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)")), 2),
        # a rotation of order 3; only the barycentres of its two fixed
        # triangles are fixed, so the bound is met: 2 against 2
        (helpers.subdivided_action(
            cross3, helpers.group_on(cross3, "(1 2 3)(4 5 6)")), 3),
    ]
    start = time.process_time()
    for act, p in cases:
        total = _total_betti_mod_p(act.complex, p)
        assert total == 2
        classes = conjugacy_classes_of_subgroups(act.group)
        fixed = [_total_betti_mod_p(act.fixed_subcomplex(c.rep), p) for c in classes]
        assert max(fixed) <= total
    whole = cases[-1][0].fixed_subcomplex(cases[-1][0].group.whole())
    assert len(whole.vertices) == len(whole.simplices) == 2
    assert _total_betti_mod_p(whole, 3) == 2
    assert time.process_time() - start < 1.0


def test_vertex_stabilizer():
    star = helpers.star5()
    act = GroupAction(star, helpers.group_on(star, "(1 2 3 4)", "(1 3)"))
    assert act.vertex_stabilizer("5").order == 8
    assert act.vertex_stabilizer("1").order == 2
    # an undeclared vertex is an InputError, as SimplicialComplex.degree's
    with pytest.raises(InputError, match=r"^no vertex '9'$"):
        act.vertex_stabilizer("9")


def corpus_actions():
    """On each corpus complex: the cyclic group of each automorphism, and
    the whole automorphism group; automorphisms found by trying every
    permutation of the vertices."""
    for name, x in helpers.complex_corpus().items():
        autos = []
        for img in permutations(x.vertices):
            move = dict(zip(x.vertices, img))
            if all(tuple(sorted(move[v] for v in s)) in x.simplices
                   for s in x.simplices):
                autos.append(Permutation(x.vertices, move))
        for g in autos:
            yield "%s %s" % (name, g), GroupAction(
                x, group_from_generators(x.vertices, [g]))
        yield name + " all", GroupAction(
            x, group_from_generators(x.vertices, autos))


def subdivided_actions():
    octa = helpers.octahedron()
    yield "Sylow on bary(octahedron)", helpers.subdivided_action(
        octa, helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)"))
    cross = helpers.cross_polytope(3)
    yield "sign flips on bary(cross)", helpers.subdivided_action(
        cross, helpers.group_on(cross, "(1 4)", "(2 5)", "(3 6)"))
    tetra = helpers.tetra_boundary()
    yield "S4 on bary(tetra)", helpers.subdivided_action(
        tetra, helpers.group_on(tetra, "(a b)", "(a b c d)"))
    tri = SimplicialComplex.from_maximal_simplices("abc", [("a", "b", "c")])
    yield "C3 on bary^2(triangle)", helpers.subdivided_action(
        tri, helpers.group_on(tri, "(a b c)"), times=2)


def test_admissibility_equals_the_scan():
    octa = helpers.octahedron()
    octahedral = [(texts, GroupAction(octa, helpers.group_on(octa, *texts)))
                  for texts in (("(1 6)",), ("(1 2)(5 6)",), ("(1 6)", "(3 4)"))]
    verdicts = set()
    for name, act in (*corpus_actions(), *subdivided_actions(), *octahedral):
        witness = helpers.admissibility_scan(act)
        assert act.admissibility_witness() == witness, name
        assert act.is_admissible() == (witness is None), name
        verdicts.add(witness is None)
    assert verdicts == {True, False}
    assert [act.is_admissible() for _, act in octahedral] == [True, False, True]


def test_fixed_sets_equal_permutation_calls():
    # fixed vertices, stabilizers and fixed complexes read from the
    # stabilizer masks (the table's lists of the masks holding E's), against
    # Permutation calls and the full subcomplexes on the vertices they fix
    checked = 0
    for name, act in (*corpus_actions(), *subdivided_actions()):
        imgs = {g: act.image(g) for g in act.group.elements}
        for v in act.complex.vertices:
            assert act.vertex_stabilizer(v).elements == tuple(
                g for g, img in imgs.items() if img(v) == v), name
        for e in all_subgroups(act.group):
            fixed = tuple(v for v in act.complex.vertices
                          if all(imgs[g](v) == v for g in e.elements))
            assert act.fixed_vertices(e) == fixed, name
            assert act.fixed_vertices(list(e.elements)) == fixed, name
            if act.is_admissible():
                full = act.complex.full_subcomplex(fixed)
                assert act.fixed_subcomplex(e) == full, name
                signed = sum((-1) ** (len(s) - 1)
                             for m, group in act._by_mask().items()
                             if not e.mask & ~m for s in group)
                assert signed == full.euler_characteristic(), name
                checked += 1
    assert checked > 250  # 277 subgroups of admissible actions


def test_fixed_subcomplexes_equal_the_full_subcomplex_route():
    # the table's union of lists against the full subcomplex on the fixed
    # vertices, for every class: on the admissible corpus actions, and for
    # the order-256 Sylow 2-subgroup of B5 on bary(5-cross-polytope),
    # whose 978 classes fix 32 distinct vertex sets
    x = helpers.cross_polytope(5)
    sylow = ("B5 Sylow", helpers.subdivided_action(x, helpers.sylow_b5()))
    checked = 0
    for name, act in (*corpus_actions(), *subdivided_actions(), sylow):
        if not act.is_admissible():
            continue
        oracle = helpers.full_subcomplex_fixed(act)
        for c in conjugacy_classes_of_subgroups(act.group):
            assert act.fixed_subcomplex(c.rep) == oracle(c.rep), name
            checked += 1
        assert act.fixed_subcomplex(act.group.trivial_subgroup()) is act.complex
    assert checked > 1000


def _two_reflections():
    """The subgroups <(1 3)> and <(2 4)> of D8, neither inside the other."""
    g = helpers.d8()
    return [g.subgroup_generated([Permutation.from_cycles(g.points, c)])
            for c in ("(1 3)", "(2 4)")]


@pytest.mark.parametrize("call, message", [
    (lambda: Permutation(["1", "2"], {"1": "1"}),
     "permutation domain does not match point set"),
    (lambda: Permutation(["1", "2"], {"1": "1", "2": "1"}),
     "permutation is not a bijection"),
    (lambda: Permutation.from_cycles(["1", "2"], "(1 2)")
     * Permutation.from_cycles(["1", "2", "3"], "(1 2)"),
     "permutations act on different point sets"),
    (lambda: normalizer(*_two_reflections()),
     "not a subgroup of the ambient group"),
    (lambda: helpers.star5().degree("9"), "no vertex '9'"),
    (lambda: helpers.two_edges().relabel({"1": "a", "2": "a", "3": "b",
                                          "4": "c"}),
     "relabeling must be injective"),
    (lambda: GroupAction(helpers.two_edges(), helpers.s3()),
     "group points differ from complex vertices; supply generator images"),
    (lambda: simp.Embedding(helpers.two_edges(), helpers.star5(),
                            {"1": "1", "2": "5"}),
     "mapping must cover the pattern vertices"),
    (lambda: simp.Embedding(helpers.two_edges(), helpers.star5(),
                            {"1": "1", "2": "5", "3": "1", "4": "5"}),
     "mapping must be injective"),
    (lambda: simp.Embedding(helpers.two_edges(), helpers.star5(),
                            {"1": "1", "2": "5", "3": "2", "4": "3"}),
     "image is not a full copy of the pattern"),
    (lambda: double_along(helpers.two_edges(), helpers.star5()),
     "subcomplex vertices do not lie in the complex"),
])
def test_input_errors_name_the_fault(call, message):
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        call()


def test_find_pattern_in_barycentric_sphere():
    bary = helpers.tetra_boundary().barycentric_subdivision()
    emb = find_full_subcomplex_isomorphic(bary, helpers.t_complex())
    assert emb is not None
    image = emb.image_complex()
    assert image == bary.full_subcomplex(image.vertices)
    assert bary.degree(emb.mapping["u"]) == 6


def test_pattern_not_in_octahedron():
    assert find_full_subcomplex_isomorphic(
        helpers.octahedron(), helpers.t_complex()) is None


def test_pattern_must_embed_fully():
    triangle = SimplicialComplex.from_maximal_simplices(
        ["a", "b", "c"], [("a", "b", "c")])
    path = SimplicialComplex.from_maximal_simplices(
        ["1", "2", "3"], [("1", "2"), ("2", "3")])
    assert find_full_subcomplex_isomorphic(triangle, path) is None


def test_pattern_size_bound():
    big = SimplicialComplex.from_maximal_simplices(
        [str(i) for i in range(9)], [(str(i),) for i in range(9)])
    with pytest.raises(PreconditionError):
        find_full_subcomplex_isomorphic(big, big)


def trusted_builds():
    """(name, complex) for every builder that skips the public validator
    through SimplicialComplex._of: the empty complex, face closure, flag
    complexes, links, full and fixed subcomplexes, subdivisions, relabels,
    doubles and order complexes, over the complex corpus and p-group
    actions on it."""
    yield "empty", SimplicialComplex.empty()
    for name, x in helpers.complex_and_flag_corpus().items():
        yield name, x
        yield name + "/bary", x.barycentric_subdivision()
        yield name + "/relabel", x.relabel({v: v + "~" for v in x.vertices})
        yield name + "/double", double_along(x, x.vertices[:2])[0]
        for s in sorted(x.simplices):
            yield "%s/link %r" % (name, s), x.link(s)
        for k in range(len(x.vertices)):
            for sub in combinations(x.vertices, k):
                yield "%s/full %r" % (name, sub), x.full_subcomplex(sub)
    octa = helpers.octahedron()
    star = helpers.star5()
    edges = helpers.two_edges()
    actions = {
        "star5 D8": GroupAction(star, helpers.group_on(star, "(1 2 3 4)", "(1 3)")),
        "two-edge swap": GroupAction(edges, helpers.group_on(edges, "(1 3)(2 4)")),
        "Sylow on bary(octahedron)": helpers.subdivided_action(
            octa, helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)")),
        "doubled T": double_along(helpers.t_complex(), ["u", "v1", "w1"])[1],
    }
    for name, act in actions.items():
        for h in all_subgroups(act.group):
            yield "%s/fixed %s" % (name, h.key), act.fixed_subcomplex(h)
    yield "chains", complex_of_chains(["a", "b", "c"], [("a", "b"), ("a", "c")])


def test_trusted_builds_pass_the_public_validator():
    count = 0
    for name, x in trusted_builds():
        assert SimplicialComplex(x.vertices, x.simplices) == x, name
        count += 1
    assert count > 1000


def test_public_constructors_always_validate():
    # the one unchecked route is the private _of; no public flag skips
    # the validator of a complex, a chain complex or a poset
    with pytest.raises(TypeError):
        SimplicialComplex(["a"], [("a",)], check=False)
    with pytest.raises(TypeError):
        ChainComplexZ({0: 1}, {}, check=False)
    with pytest.raises(TypeError):
        FinitePoset([0], set(), check=False)


@pytest.mark.parametrize("build, message", [
    (lambda: complex_of_chains(["a"], [("a", "b")]),
     "pair ('a', 'b') uses undeclared vertex 'b'"),
    (lambda: complex_of_chains(["b"], [("a", "b")]),
     "pair ('a', 'b') uses undeclared vertex 'a'"),
    (lambda: SimplicialComplex.from_maximal_simplices(
        ["a", "b"], [("a", "b")]).relabel({"a": "z"}),
     "relabeling misses vertex 'b'"),
    (lambda: SimplicialComplex.from_maximal_simplices(
        "abc", ["ab", "bc"]).relabel({"a": 1, "b": "q", "c": "r"}),
     "relabeling must be a mapping onto hashable labels that sort together"),
    (lambda: complex_of_chains(["a"], [("a",)]),
     "pairs must be 2-tuples of vertices"),
    (lambda: complex_of_chains(["a", "b"], [("a", "b", "a")]),
     "pairs must be 2-tuples of vertices"),
    (lambda: SimplicialComplex.from_maximal_simplices(["a"], [("a", 1)]),
     "facet ('a', 1) uses undeclared vertices"),
    (lambda: SimplicialComplex.flag_from_graph(["a"], [("a", 1)]),
     "edge ('a', 1) uses undeclared vertices"),
])
def test_a_missing_vertex_is_an_input_error(build, message):
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        build()


@pytest.mark.parametrize("vertices, simplices", [
    (["a"], [1]),
    (["a", 1], [("a",), (1,)]),
    (["a"], None),
    (["a"], [(["a"],)]),
    (["a", 1], [("a", 1)]),
    (["a", "b", "c"], 5),
    (["a", "b", "c"], ["a", 5]),
    (["a", 1], [[1]]),
])
def test_malformed_shapes_are_input_errors(vertices, simplices):
    # a simplex that is no tuple of vertices, or vertices that do not
    # sort together, fail before the validator can read them
    with pytest.raises(InputError, match="^vertices must be hashable and "
                       "sortable together, and each simplex a tuple of them$"):
        SimplicialComplex(vertices, simplices)
    # and the same shapes, read as facets, edges or strict pairs, fail as
    # input errors in every public builder
    for build in (SimplicialComplex.from_maximal_simplices,
                  SimplicialComplex.flag_from_graph, complex_of_chains):
        with pytest.raises(InputError):
            build(vertices, simplices)
    # and passed to a complex as a simplex, a vertex subset or a
    # relabeling, they are input errors too
    x = SimplicialComplex.from_maximal_simplices("abc", ["ab", "bc"])
    for method in (x.link, x.full_subcomplex, x.relabel):
        with pytest.raises(InputError):
            method(simplices)


def test_a_simplex_of_another_type_is_undeclared():
    with pytest.raises(InputError,
                       match=re.escape("simplex ('a', 1) uses undeclared")):
        SimplicialComplex(["a"], [("a",), ("a", 1)])
