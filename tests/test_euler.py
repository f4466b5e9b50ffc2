"""Equivariant Euler classes, the vanishing identity, and the acyclicity check."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import helpers
from equichar import (EulerClass, GroupAction, InputError, Permutation,
                      PreconditionError, acyclicity_condition, all_subgroups,
                      conjugacy_classes_of_subgroups, double_along,
                      elementary_abelian_classes, euler_class,
                      euler_class_coefficient, euler_class_cyclic,
                      find_full_subcomplex_isomorphic, free_coefficient,
                      group_from_generators, permgrp,
                      vanishing_identity)


def star_action(*texts):
    star = helpers.star5()
    return GroupAction(star, helpers.group_on(star, *texts))


def by_order(group, order):
    return sorted((h for h in all_subgroups(group) if h.order == order),
                  key=lambda h: h.key)


def test_elementary_abelian_class_counts():
    assert len(elementary_abelian_classes(helpers.d8())) == 6
    assert len(elementary_abelian_classes(helpers.cyclic(4))) == 2
    assert len(elementary_abelian_classes(helpers.q8())) == 2
    assert len(elementary_abelian_classes(helpers.elem_ab(2, 3))) == 16
    assert len(elementary_abelian_classes(helpers.c4xc2())) == 5


def test_free_coefficient_c2():
    g = helpers.cyclic(2)
    trivial, whole = by_order(g, 1)[0], by_order(g, 2)[0]
    assert free_coefficient(g, {trivial: 2, whole: 0}) == 1
    assert free_coefficient(g, {trivial: 5, whole: 3}) == 1


def test_free_coefficient_klein_weights():
    g = helpers.elem_ab(2, 2)
    trivial = by_order(g, 1)[0]
    lines = by_order(g, 2)
    whole = by_order(g, 4)[0]
    chi = {trivial: 4, lines[0]: 1, lines[1]: 2, lines[2]: 3, whole: 5}
    expected = Fraction(4, 4) - Fraction(1 + 2 + 3, 4) + Fraction(5, 2)
    assert free_coefficient(g, chi) == expected


def test_free_coefficient_constant_chi_vanishes():
    for name, g in helpers.pgroup_corpus().items():
        chi = {cls.rep: 7 for cls in elementary_abelian_classes(g)}
        assert free_coefficient(g, chi) == 0, name


def test_free_coefficient_missing_class():
    g = helpers.cyclic(2)
    with pytest.raises(InputError):
        free_coefficient(g, {by_order(g, 1)[0]: 1})


def test_free_coefficient_names_the_first_missing_class():
    # the table misses both classes of non-central reflections; the error
    # names the representative of the first class in class order
    g = helpers.d8()
    classes = elementary_abelian_classes(g)
    table = {cls.members[-1]: 1 for cls in classes[:1] + classes[3:]}
    with pytest.raises(InputError, match="^chi table is missing the class "
                       "of ⟨\\(2 4\\)⟩$"):
        free_coefficient(g, table)


def test_free_coefficient_and_vanishing_identity_equal_the_weyl_sum():
    # the by-class sum against the paper's sum over single subgroups at
    # h = 1, on seeded chi tables keyed by any member of each class
    trivial = group_from_generators(("1",), [])
    groups = dict(helpers.pgroup_corpus(), trivial=trivial)
    for name, g in groups.items():
        h = g.trivial_subgroup()
        classes = elementary_abelian_classes(g)
        rng = random.Random(name)
        for _ in range(5):
            values = {cls: rng.randint(-9, 9) for cls in classes}
            table = {rng.choice(cls.members): v for cls, v in values.items()}
            assert free_coefficient(g, table) \
                == helpers.weyl_sum(g, h, values.__getitem__), name
        if g is not trivial:
            assert vanishing_identity(g) \
                == helpers.weyl_sum(g, h, lambda cls: 1), name


def test_euler_class_keeps_fractions_as_given():
    g = helpers.cyclic(2)
    trivial, whole = by_order(g, 1)[0], by_order(g, 2)[0]
    half = Fraction(1, 2)
    cls = EulerClass({trivial: half, whole: 3})
    assert cls.coefficients[trivial] is half
    assert type(cls.coefficients[whole]) is Fraction
    assert cls.coefficients[whole] == 3


def test_free_coefficient_needs_p_group():
    with pytest.raises(PreconditionError):
        free_coefficient(helpers.s3(), {})


def test_vanishing_identity_corpus():
    for name, g in helpers.pgroup_corpus().items():
        assert vanishing_identity(g) == 0, name


def test_vanishing_identity_preconditions():
    trivial = group_from_generators(("1",), [])
    with pytest.raises(PreconditionError):
        vanishing_identity(trivial)
    with pytest.raises(PreconditionError):
        vanishing_identity(helpers.s3())


def test_two_edges_class_both_routes():
    edges = helpers.two_edges()
    act = GroupAction(edges, helpers.group_on(edges, "(1 3)(2 4)"))
    cls = euler_class(act)
    assert cls == euler_class_cyclic(act)
    trivial = by_order(act.group, 1)[0]
    whole = by_order(act.group, 2)[0]
    assert cls.coefficient(trivial) == -1
    assert cls.coefficient(whole) == 1
    assert not cls.is_zero
    assert euler_class_coefficient(act, trivial) == -1
    assert euler_class_coefficient(act, whole) == 1
    # the acting group stands for its whole subgroup; another group does not
    assert euler_class_coefficient(act, act.group) == 1
    with pytest.raises(InputError, match="^h must be a subgroup of the "
                       "acting group$"):
        euler_class_coefficient(act, helpers.group_on(edges, "(1 3)(2 4)"))


def test_trivial_acting_group():
    # L^1 = L, and chi of two disjoint edges is 2
    edges = helpers.two_edges()
    act = GroupAction(edges, group_from_generators(edges.vertices, []))
    assert euler_class_cyclic(act) == EulerClass({act.group.whole(): -1})
    assert euler_class_cyclic(act) == euler_class(act)
    for force in (False, True):
        with pytest.raises(PreconditionError, match="^acting group is trivial$"):
            acyclicity_condition(act, force=force)


def test_two_edges_format():
    edges = helpers.two_edges()
    act = GroupAction(edges, helpers.group_on(edges, "(1 3)(2 4)"))
    text = euler_class(act).format_text()
    assert text == "-1·[Γ/1] + 1·[Γ/⟨(1 3)(2 4)⟩]"


def test_hash_ignores_zero_coefficients():
    g = helpers.d8()
    trivial, whole = by_order(g, 1)[0], by_order(g, 8)[0]
    with_zero = EulerClass({trivial: 0, whole: 1})
    without = EulerClass({whole: 1})
    assert with_zero == without
    assert hash(with_zero) == hash(without)
    assert len({with_zero, without}) == 1


def test_star_actions_all_zero():
    for texts in (("(1 3)",), ("(1 2 3 4)",), ("(1 2 3 4)", "(1 3)")):
        act = star_action(*texts)
        cls = euler_class(act)
        assert cls.is_zero, texts
        if len(texts) == 1:
            assert euler_class_cyclic(act) == cls


def test_trivial_action_on_point_is_zero():
    point = helpers.SimplicialComplex.from_maximal_simplices(["x"], [("x",)])
    g = group_from_generators(("a", "b"),
                              [Permutation.from_cycles(("a", "b"), "(a b)")])
    images = {gen: Permutation.identity(("x",)) for gen in g.generators}
    act = GroupAction(point, g, generator_images=images)
    assert euler_class(act).is_zero


def test_doubled_swap_class_both_routes():
    bary = helpers.tetra_boundary().barycentric_subdivision()
    emb = find_full_subcomplex_isomorphic(bary, helpers.t_complex())
    doubled, act = double_along(bary, emb.mapping.values())
    assert doubled.euler_characteristic() == 3
    cls = euler_class(act)
    assert cls == euler_class_cyclic(act)
    trivial = by_order(act.group, 1)[0]
    whole = by_order(act.group, 2)[0]
    assert cls.coefficient(trivial) == -1
    assert cls.coefficient(whole) == 0


def oracle_actions():
    """The worked actions the orbit-count oracle is checked on."""
    for texts in (("(1 3)",), ("(1 2 3 4)",), ("(1 2 3 4)", "(1 3)")):
        yield "star5 %s" % "".join(texts), star_action(*texts)
    edges = helpers.two_edges()
    yield "two-edge swap", GroupAction(edges, helpers.group_on(edges, "(1 3)(2 4)"))
    cross = helpers.cross_polytope(3)
    yield "sign flips", GroupAction(
        cross, helpers.group_on(cross, "(1 4)", "(2 5)", "(3 6)"))
    octa = helpers.octahedron()
    sylow = helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)")
    yield "Sylow on bary(octahedron)", helpers.subdivided_action(octa, sylow)
    bary = helpers.tetra_boundary().barycentric_subdivision()
    emb = find_full_subcomplex_isomorphic(bary, helpers.t_complex())
    yield "doubled swap", double_along(bary, emb.mapping.values())[1]


def assert_orbit_count(act, name=None):
    """euler_class(act) against the orbit-count oracle, class for class."""
    counts = helpers.orbit_count_euler_class(act)
    coeffs = {h.key: c for h, c in euler_class(act).entries()}
    assert set(counts) <= set(coeffs), name
    assert coeffs == {k: counts.get(k, 0) for k in coeffs}, name


def fixed_chi(act):
    """cls -> 1 - chi(L^E) for E in the class, read off the built fixed
    complex, one per fixed vertex set."""
    by_class, by_verts = {}, {}

    def chi(cls):
        if cls.rep not in by_class:
            verts = act.fixed_vertices(cls.rep)
            if verts not in by_verts:
                fixed = act.complex.full_subcomplex(verts)
                by_verts[verts] = 1 - fixed.euler_characteristic()
            by_class[cls.rep] = by_verts[verts]
        return by_class[cls.rep]
    return chi


def weyl_route(act):
    """The Euler class of a p-group action by the paper's weighted sum."""
    k = act.group
    chi = fixed_chi(act)
    return EulerClass({c.rep: helpers.weyl_sum(k, c.rep, chi)
                       for c in conjugacy_classes_of_subgroups(k)})


def test_euler_class_equals_orbit_count():
    for name, act in oracle_actions():
        counts = helpers.orbit_count_euler_class(act)
        coeffs = {h.key: c for h, c in euler_class(act).entries()}
        assert set(counts) <= set(coeffs), name
        assert coeffs == {k: counts.get(k, 0) for k in coeffs}, name


def test_euler_class_of_the_order_128_action():
    # the Sylow 2-subgroup of B4 on bary(4-cross-polytope), f = 80/464/768/384
    x = helpers.cross_polytope(4)
    k = helpers.group_on(x, "(1 5)", "(1 2 3 4)(5 6 7 8)", "(1 3)(5 7)")
    act = helpers.subdivided_action(x, k)
    start = time.process_time()
    entries = euler_class(act).entries()
    elapsed = time.process_time() - start
    assert k.order == 128 and len(entries) == 177
    counts = helpers.orbit_count_euler_class(act)
    coeffs = {h.key: c for h, c in entries}
    assert set(counts) <= set(coeffs)
    assert coeffs == {key: counts.get(key, 0) for key in coeffs}
    assert elapsed < 2.0


def count_table_builds(monkeypatch):
    """A list that gains an entry each time an action builds its table of
    simplices by stabilizer mask."""
    builds = []
    by_mask = GroupAction._by_mask

    def counting(action):
        if action._table is None:
            builds.append(action)
        return by_mask(action)
    monkeypatch.setattr(GroupAction, "_by_mask", counting)
    return builds


def test_euler_class_reads_each_fixed_complex_once(monkeypatch):
    # chi(L^E) comes from the simplices grouped by stabilizer mask, built
    # once per action; no fixed complex is built
    grouped, fixed = count_table_builds(monkeypatch), []
    build = GroupAction.fixed_subcomplex
    monkeypatch.setattr(GroupAction, "fixed_subcomplex",
                        lambda self, h: fixed.append(h) or build(self, h))
    octa = helpers.octahedron()
    act = helpers.subdivided_action(
        octa, helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)"))
    cls = euler_class(act)
    assert {h: euler_class_coefficient(act, h) for h in cls.coefficients} \
        == cls.coefficients
    assert euler_class(act) == cls
    assert grouped == [act] and fixed == []


def class_member_actions():
    """D8 on the subdivided square, Q8 on a subdivided graph over its
    regular action, and the order-16 Sylow group on bary(octahedron)."""
    square = helpers.SimplicialComplex.flag_from_graph(
        ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
    yield "D8", helpers.subdivided_action(
        square, helpers.group_on(square, "(1 2 3 4)", "(1 3)"))
    q8 = helpers.q8()
    facets = {tuple(sorted(x(v) for v in f))
              for f in (("1", "3"), ("1", "2")) for x in q8.elements}
    graph = helpers.SimplicialComplex.from_maximal_simplices(q8.points, facets)
    yield "Q8", helpers.subdivided_action(graph, q8)
    octa = helpers.octahedron()
    yield "order 16", helpers.subdivided_action(
        octa, helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)"))


def test_every_class_member_gives_the_class_coefficient(monkeypatch):
    # a single coefficient sums the counts over h's conjugacy orbit, so any
    # member of a class gives its coefficient; neither function takes a
    # normalizer or builds a fixed complex, and the simplices are grouped
    # by stabilizer once per action
    normalizers, fixed = [], []
    normalizer = permgrp.normalizer
    monkeypatch.setattr(permgrp, "normalizer",
                        lambda *args: normalizers.append(1) or normalizer(*args))
    build = GroupAction.fixed_subcomplex
    monkeypatch.setattr(GroupAction, "fixed_subcomplex",
                        lambda self, h: fixed.append(h) or build(self, h))
    grouped = count_table_builds(monkeypatch)
    for name, act in class_member_actions():
        del grouped[:]
        cls = euler_class(act)
        assert not cls.is_zero, name
        for c in conjugacy_classes_of_subgroups(act.group):
            expected = cls.coefficients[c.rep]
            for h in c.members:
                assert euler_class_coefficient(act, h) == expected, name
        assert normalizers == [] and fixed == [] and grouped == [act], name


def test_euler_class_of_the_order_256_action():
    # the Sylow 2-subgroup of B5 on bary(5-cross-polytope): 3,455
    # subgroups in 978 classes, of which 24 have a nonzero coefficient
    x = helpers.cross_polytope(5)
    k = helpers.group_on(x, "(1 6)", "(1 2)(6 7)", "(3 4)(8 9)",
                         "(1 3)(2 4)(6 8)(7 9)", "(5 10)")
    act = helpers.subdivided_action(x, k)
    entries = euler_class(act).entries()
    assert k.order == 256 and len(entries) == 978
    assert sum(1 for _, c in entries if c) == 24
    counts = helpers.orbit_count_euler_class(act)
    coeffs = {h.key: c for h, c in entries}
    assert set(counts) <= set(coeffs)
    assert coeffs == {key: counts.get(key, 0) for key in coeffs}


def non_p_group_actions():
    """Groups that are not p-groups, each on bary of the complete graph on
    its points, taken as a 1-dimensional complex, and on bary of the
    boundary of the simplex they span.  Neither is contractible: on the
    flag complex of the complete graph, a simplex, every coefficient is
    0."""
    groups = {"S3": helpers.s3(), "C6": helpers.cyclic(6),
              "D12": helpers.d12(), "A4": helpers.a4(), "S4": helpers.s4(),
              "C3xS3": helpers.group("(1 2 3)", "(4 5)", "(4 5 6)")}
    for name, g in groups.items():
        points = g.points
        for what, k in (("K_n", 2), ("the boundary", len(points) - 1)):
            x = helpers.SimplicialComplex.from_maximal_simplices(
                points, combinations(points, k))
            yield ("%s on bary(%s)" % (name, what),
                   helpers.subdivided_action(x, g))


def test_euler_class_of_groups_that_are_not_p_groups():
    # the count holds for every finite K, and each member of a class
    # gives its class's coefficient
    for name, act in non_p_group_actions():
        assert act.group.order in (6, 12, 18, 24), name
        assert_orbit_count(act, name)
        cls = euler_class(act)
        assert not cls.is_zero, name
        for c in conjugacy_classes_of_subgroups(act.group):
            expected = cls.coefficients[c.rep]
            for h in c.members:
                assert euler_class_coefficient(act, h) == expected, name


def test_weyl_sum_equals_the_count_on_p_groups():
    # the paper's formula, the tests' oracle, against the count
    # class for class
    cases = list(oracle_actions())
    x = helpers.cross_polytope(4)
    cases.append(("order 128", helpers.subdivided_action(x, helpers.group_on(
        x, "(1 5)", "(1 2 3 4)(5 6 7 8)", "(1 3)(5 7)"))))
    x = helpers.cross_polytope(5)
    cases.append(("order 256", helpers.subdivided_action(x, helpers.group_on(
        x, "(1 6)", "(1 2)(6 7)", "(3 4)(8 9)", "(1 3)(2 4)(6 8)(7 9)",
        "(5 10)"))))
    for name, act in cases:
        k = act.group
        assert weyl_route(act) == euler_class(act), name
        chi = fixed_chi(act)
        table = {c.rep: chi(c) for c in elementary_abelian_classes(k)}
        assert free_coefficient(k, table) \
            == euler_class_coefficient(act, k.trivial_subgroup()), name


def test_euler_class_of_the_order_128_action_on_bary2():
    # the same action carried up a second subdivision, f = 1696/10912/
    # 18432/9216; admissibility is checked inside euler_class
    x = helpers.cross_polytope(4)
    k = helpers.group_on(x, "(1 5)", "(1 2 3 4)(5 6 7 8)", "(1 3)(5 7)")
    act = helpers.subdivided_action(x, k, times=2)
    assert act.complex.f_vector() == (1696, 10912, 18432, 9216)
    start = time.process_time()
    entries = euler_class(act).entries()
    elapsed = time.process_time() - start
    assert len(entries) == 177
    counts = helpers.orbit_count_euler_class(act)
    coeffs = {h.key: c for h, c in entries}
    assert set(counts) <= set(coeffs)
    assert coeffs == {key: counts.get(key, 0) for key in coeffs}
    assert elapsed < 4.0


def test_cyclic_route_needs_cyclic_p_group():
    with pytest.raises(PreconditionError):
        euler_class_cyclic(star_action("(1 2 3 4)", "(1 3)"))
    points = helpers.SimplicialComplex.from_maximal_simplices(
        ["1", "2", "3"], [("1",), ("2",), ("3",)])
    s3act = GroupAction(points, helpers.group_on(points, "(1 2)", "(1 2 3)"))
    with pytest.raises(PreconditionError):
        euler_class_cyclic(s3act)
    # the count takes every finite K: S3 moves the points in one orbit
    # with stabilizers of order 2, and the empty simplex gives [Γ/S3]
    assert_orbit_count(s3act)
    assert euler_class(s3act).format_text() == (
        "0·[Γ/1] - 1·[Γ/⟨(2 3)⟩] + 0·[Γ/⟨(1 2 3)⟩] + 1·[Γ/⟨(2 3), (1 2)⟩]")


def test_euler_class_requires_admissible():
    edge = helpers.SimplicialComplex.from_maximal_simplices(
        ["1", "2"], [("1", "2")])
    act = GroupAction(edge, helpers.group_on(edge, "(1 2)"))
    with pytest.raises(PreconditionError):
        euler_class(act)


def test_acyclicity_k1_holds():
    rep = acyclicity_condition(star_action("(1 2)", "(3 4)"))
    assert rep.holds
    assert rep.uncovered == ()
    assert rep.scope == "theorem"


def test_acyclicity_k2_fails():
    rep = acyclicity_condition(star_action("(1 2)(3 4)", "(1 3)(2 4)"))
    assert not rep.holds
    assert rep.uncovered == ("1", "2", "3", "4")
    assert rep.scope == "theorem"


def test_acyclicity_scope_errors_and_force():
    c4 = star_action("(1 2 3 4)")
    with pytest.raises(PreconditionError):
        acyclicity_condition(c4)
    rep = acyclicity_condition(c4, force=True)
    assert not rep.holds and rep.scope == "remark"
    assert rep.uncovered == ("1", "2", "3", "4")
    d8 = star_action("(1 2 3 4)", "(1 3)")
    with pytest.raises(PreconditionError):
        acyclicity_condition(d8)
    rep = acyclicity_condition(d8, force=True)
    assert rep.holds and rep.scope == "remark"
    # the theorem scope is elementary abelian of rank 2 for any p, not 3
    points = helpers.SimplicialComplex.from_maximal_simplices(
        [str(i) for i in range(1, 7)], [])
    c3xc3 = GroupAction(points, helpers.group_on(points, "(1 2 3)", "(4 5 6)"))
    rep = acyclicity_condition(c3xc3)
    assert rep.holds and rep.scope == "theorem"
    rank3 = GroupAction(points, helpers.group_on(points, "(1 2)", "(3 4)", "(5 6)"))
    with pytest.raises(PreconditionError, match="rank 2"):
        acyclicity_condition(rank3)


def test_acyclicity_equals_the_lattice_route():
    # a nontrivial stabilizer holds a subgroup of order p, proper unless
    # |K| = p, when no vertex is covered
    cases = [("%s on its points" % name, GroupAction(
        helpers.SimplicialComplex(g.points, [(v,) for v in g.points]), g))
        for name, g in helpers.pgroup_corpus().items()]
    cases += oracle_actions()
    tri = helpers.SimplicialComplex.from_maximal_simplices(
        "abc", [("a", "b", "c")])
    cases.append(("C3 on bary^2(triangle)", helpers.subdivided_action(
        tri, helpers.group_on(tri, "(a b c)"), times=2)))
    prime_order = 0
    for name, act in cases:
        rep = acyclicity_condition(act, force=True)
        assert rep.uncovered == tuple(helpers.uncovered_by_lattice(act)), name
        assert rep.holds == (not rep.uncovered), name
        if act.group.order in (2, 3):
            assert rep.uncovered == act.complex.vertices, name
            prime_order += 1
    assert prime_order == 6
