"""Permutation groups: enumeration, subgroup lattice, predicates."""

import time

import pytest

import helpers
from equichar import exactlin, permgrp
from equichar import (InputError, Permutation, ResourceLimitError, Subgroup,
                      all_subgroups, centralizer,
                      conjugacy_classes_of_subgroups,
                      elementary_abelian_rank, group_from_generators,
                      is_abelian, is_cyclic, is_elementary_abelian,
                      is_elementary_abelian_any, is_nilpotent, is_normal,
                      is_p_group, normalizer)

PTS = ("1", "2", "3", "4")


def perm(text, points=PTS):
    return Permutation.from_cycles(points, text)


def test_cycle_parsing_and_printing():
    g = perm("(1 2)(3 4)")
    assert g("1") == "2" and g("3") == "4"
    assert str(g) == "(1 2)(3 4)"
    assert str(perm("(1 3)")) == "(1 3)"
    assert str(Permutation.identity(PTS)) == "()"
    assert perm("()") == Permutation.identity(PTS)


def test_cycle_parsing_rejects_garbage():
    with pytest.raises(InputError):
        perm("(1 2")
    with pytest.raises(InputError):
        perm("(1 5)")
    with pytest.raises(InputError):
        perm("(1 2)(2 3)")


def test_cycles_may_be_separated_by_whitespace():
    pts = ("a", "b", "c", "d")
    g = perm("(a b)(c d)", pts)
    for text in ("(a b) (c d)", " (a, b)\t( c d ) ", "(a b)\n(c d)"):
        assert perm(text, pts) == g
        assert permgrp._cycle_names(text) == [["a", "b"], ["c", "d"]]


@pytest.mark.parametrize("text, message", [
    ("(a b)(c d", "cycle notation must be parenthesized: '(a b)(c d'"),
    ("((a b))", "unknown point '(a' in '((a b))'"),
    ("(a b)()", "cycle needs at least two points: ''"),
    ("(a)(b c)", "cycle needs at least two points: 'a'"),
    ("(a b) (b c)", "point 'b' repeated; cycles must be disjoint"),
    ("(a e)", "unknown point 'e' in '(a e)'"),
])
def test_malformed_cycle_messages(text, message):
    with pytest.raises(InputError) as info:
        perm(text, ("a", "b", "c", "d"))
    assert str(info.value) == message


def test_composition_order():
    a = perm("(1 2)")
    b = perm("(2 3)")
    # (a * b)(x) = a(b(x)): 3 -> 2 -> 1
    assert (a * b)("3") == "1"
    assert (b * a)("3") == "2"


def test_powers_inverse_order():
    r = perm("(1 2 3 4)")
    assert r ** 2 == perm("(1 3)(2 4)")
    assert r ** -1 == perm("(1 4 3 2)")
    assert r ** 0 == Permutation.identity(PTS)
    assert r.order() == 4
    assert perm("(1 2)(3 4)").order() == 2


def test_powers_equal_repeated_products_over_s4():
    # square and multiply against the n-fold product, inverses for n < 0
    for x in helpers.s4().elements:
        identity = Permutation.identity(x.points)
        assert x ** 0 == identity and (x ** 0).points == x.points
        for n in range(-4, 10):
            want = identity
            for _ in range(abs(n)):
                want = want * (x if n > 0 else x.inverse())
            assert x ** n == want, (x, n)


def test_cycles_start_at_their_least_position():
    images = (0, 2, 3, 1, 4, 6, 5)
    assert list(permgrp._cycles(images)) == [[1, 2, 3], [5, 6]]
    assert list(permgrp._cycles((0, 1, 2))) == []
    assert permgrp._cycle_order(images) == 6
    assert permgrp._cycle_order(()) == 1
    assert perm("(2 4 3)").cycles() == [("2", "4", "3")]


def test_group_closure_and_membership():
    g = helpers.d8()
    assert g.order == 8
    assert perm("(1 3)") in g
    assert perm("(1 2)") not in g


def test_generators_must_be_permutations_of_the_points():
    with pytest.raises(InputError, match="not a permutation"):
        group_from_generators(["1", "2"], ["(1 2)"])
    with pytest.raises(InputError, match="wrong point set"):
        group_from_generators(["1", "2"], [perm("(1 2)")])


def test_duplicate_points_are_rejected():
    pts = ["1", "1", "2"]
    with pytest.raises(InputError, match="duplicate point '1'"):
        Permutation(pts, {"1": "2", "2": "1"})
    with pytest.raises(InputError, match="duplicate point '1'"):
        Permutation.identity(pts)
    with pytest.raises(InputError, match="duplicate point '1'"):
        Permutation.from_cycles(pts, "()")
    with pytest.raises(InputError, match="duplicate point '1'"):
        Permutation.from_cycles(pts, "(1 2)")
    with pytest.raises(InputError, match="duplicate point '1'"):
        group_from_generators(pts, [])


def test_closure_bound_enforced():
    pts = tuple(str(i) for i in range(1, 8))
    gens = [Permutation.from_cycles(pts, "(1 2 3 4 5 6 7)"),
            Permutation.from_cycles(pts, "(1 2)")]
    with pytest.raises(ResourceLimitError) as info:
        group_from_generators(pts, gens, max_order=100)
    assert "max_order=100" in str(info.value)
    assert "elements found: 101" in str(info.value)


def test_d8_subgroup_lattice():
    g = helpers.d8()
    subs = all_subgroups(g)
    assert len(subs) == 10
    assert sorted(h.order for h in subs) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]
    classes = conjugacy_classes_of_subgroups(g)
    assert len(classes) == 8
    assert sorted(c.size for c in classes) == [1, 1, 1, 1, 1, 1, 2, 2]


def test_subgroup_enumeration_against_brute_force():
    groups = list(helpers.pgroup_corpus().values())
    groups += [helpers.s3(), helpers.cyclic(6), helpers.s4(), helpers.a4(),
               helpers.d12(), helpers.d8xc2(), helpers.s3xs3(),
               helpers.c4xc4(), helpers.elem_ab(2, 3)]
    for g in groups:
        brute = helpers.brute_subgroups(g)
        ours = {frozenset(h.key) for h in all_subgroups(g)}
        assert ours == brute
        classes = conjugacy_classes_of_subgroups(g)
        assert ({frozenset(frozenset(h.key) for h in c.members) for c in classes}
                == helpers.brute_classes(g, brute))
        assert all(c.rep == min(c.members, key=lambda h: h.key) for c in classes)


@pytest.mark.parametrize("build, joins",
                         [(helpers.d8xc2, 0), (helpers.s4, 0),
                          (lambda: helpers.s6(), 6814)])
def test_cyclic_extension_join_counts(build, joins):
    # the closure joins only: a join with an x that normalizes H is a
    # union of cosets, and a solvable group joins no other x, so D8xC2
    # and S4 close none; S6 is not solvable, and 135 of the 6,949 joins
    # that the power and cover rules leave (of 12,257) are coset unions.
    # Counts are exact on any machine, unlike CPU time.  S6 is the
    # session's shared build.
    assert helpers.lattice_joins(build()) == joins


@pytest.mark.parametrize("build, subgroups, classes",
                         [(helpers.a5, 59, 9),
                          (lambda: helpers.symmetric(5), 156, 19)])
def test_non_solvable_lattices_join_outside_the_normalizer(build, subgroups,
                                                           classes):
    # a non-solvable group still closes the joins with an x outside N(H)
    g = build()
    assert not permgrp._is_solvable(g, g.mask)
    assert helpers.lattice_joins(g) > 0
    subs = all_subgroups(g)
    assert len(subs) == subgroups
    found = conjugacy_classes_of_subgroups(g)
    assert len(found) == classes
    assert ({frozenset(frozenset(h.key) for h in c.members) for c in found}
            == helpers.brute_classes(g, {frozenset(h.key) for h in subs}))


@pytest.mark.parametrize("build", [helpers.s3xc5, helpers.c7c3xc2])
def test_three_prime_solvable_lattices_against_brute_force(build):
    # three primes divide the order, so the derived series decides that
    # the group is solvable, and every join is a union of cosets
    g = build()
    assert len(exactlin._factor(g.order)) == 3
    assert permgrp._is_solvable(g, g.mask)
    assert helpers.lattice_joins(g) == 0
    brute = helpers.brute_subgroups(g)
    assert {frozenset(h.key) for h in all_subgroups(g)} == brute
    assert ({frozenset(frozenset(h.key) for h in c.members)
             for c in conjugacy_classes_of_subgroups(g)}
            == helpers.brute_classes(g, brute))


def test_solvability_equals_the_derived_series():
    # whole groups, those with at most two prime divisors included, and
    # every subgroup of S5 as the top mask
    for name, g in helpers.group_corpus().items():
        assert (permgrp._is_solvable(g, g.mask)
                == helpers.solvable_by_derived_series(g)), name
    s5 = helpers.symmetric(5)
    verdicts = set()
    for h in all_subgroups(s5):
        alone = group_from_generators(s5.points, h.generating_set())
        verdict = permgrp._is_solvable(s5, h.mask)
        assert verdict == helpers.solvable_by_derived_series(alone), h
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_s5_lattice_and_classes():
    g = helpers.symmetric(5)
    start = time.perf_counter()
    subs = all_subgroups(g)
    classes = conjugacy_classes_of_subgroups(g)
    elapsed = time.perf_counter() - start
    assert len(subs) == 156
    assert len(classes) == 19
    assert sum(c.size for c in classes) == 156
    assert elapsed < 5.0


def test_lattice_memo_returns_fresh_lists():
    g = helpers.s4()
    first = all_subgroups(g)
    second = all_subgroups(g)
    assert first == second and first is not second
    first.clear()
    assert all_subgroups(g) == second
    classes = conjugacy_classes_of_subgroups(g)
    assert len(classes) == 11
    classes.pop()
    assert len(conjugacy_classes_of_subgroups(g)) == 11


def test_sections_are_the_elementary_abelian_quotients():
    # the E that the oracle's Weyl sum reads for h are those with h normal
    # in E and E/h elementary abelian, checked on the quotient built from
    # cosets; the Heisenberg group of order 27 has exponent 3, so there
    # the commutators decide
    heisenberg = helpers.group("(1 4 7)(2 5 8)(3 6 9)", "(4 5 6)(7 9 8)")
    cases = [(helpers.d8(), 2), (helpers.q8(), 2), (helpers.s4(), 2),
             (helpers.s4(), 3), (helpers.a4(), 2), (helpers.cyclic(9), 3),
             (heisenberg, 3)]
    for g, p in cases:
        subs = all_subgroups(g)
        for h in subs:
            expected = [e for e in subs if h <= e and is_normal(e, h)
                        and is_elementary_abelian(helpers.coset_quotient(e, h), p)]
            assert helpers.elementary_sections(g, h, p) == expected, (g, p, h)


def test_subgroup_lattice_equals_lattice_of_as_group():
    g = helpers.s4()
    for h in all_subgroups(g):
        alone = group_from_generators(h.group.points, h.generating_set())
        ours = all_subgroups(h)
        assert all(k.group is g for k in ours)
        assert [k.key for k in ours] == [k.key for k in all_subgroups(alone)]
        assert ([(c.rep.key, c.size) for c in conjugacy_classes_of_subgroups(h)]
                == [(c.rep.key, c.size)
                    for c in conjugacy_classes_of_subgroups(alone)])


def test_foreign_point_set_is_not_a_member():
    g = helpers.d8()
    r = perm("(1 2 3 4)")
    foreign = perm("(w x y z)", ("w", "x", "y", "z"))
    assert foreign.key == r.key and foreign != r
    assert r in g and foreign not in g
    assert foreign not in g.whole()
    with pytest.raises(InputError, match="lies outside the group"):
        Subgroup(g, [g.identity, foreign, foreign ** 2, foreign ** 3])
    with pytest.raises(InputError, match="lies outside the group"):
        g.subgroup_generated([foreign])
    twin = group_from_generators(
        ("w", "x", "y", "z"), [foreign, perm("(w y)", ("w", "x", "y", "z"))])
    assert [h.key for h in all_subgroups(twin)] == [h.key for h in all_subgroups(g)]
    assert twin.whole() != g.whole()
    assert not twin.whole() <= g.whole()
    with pytest.raises(InputError, match="not a subgroup of the ambient group"):
        normalizer(g, twin.whole())


def test_normalizer_centralizer_center():
    g = helpers.d8()
    h = g.subgroup_generated([perm("(1 3)")])
    assert normalizer(g, h).order == 4
    assert centralizer(g, h).order == 4
    z = centralizer(g, g)
    assert z.order == 2
    assert perm("(1 3)(2 4)") in z


def test_is_normal():
    g = helpers.d8()
    assert is_normal(g.whole(), centralizer(g, g))
    reflection = g.subgroup_generated([perm("(1 3)")])
    assert not is_normal(g.whole(), reflection)
    assert is_normal(normalizer(g, reflection), reflection)


def test_predicates():
    assert is_p_group(helpers.d8(), 2)
    assert not is_p_group(helpers.s3(), 3)
    assert is_cyclic(helpers.cyclic(9))
    assert not is_cyclic(helpers.elem_ab(2, 2))
    assert is_abelian(helpers.c4xc2())
    assert not is_abelian(helpers.q8())


def test_nilpotency():
    assert is_nilpotent(helpers.d8())
    assert is_nilpotent(helpers.q8())
    assert is_nilpotent(helpers.cyclic(12))
    assert not is_nilpotent(helpers.s3())
    assert not is_nilpotent(helpers.s4())
    assert not is_nilpotent(helpers.a4())
    assert not is_nilpotent(helpers.d12())


@pytest.mark.parametrize("build", [helpers.s4, helpers.d8xc2, helpers.s3xs3])
def test_nilpotency_matches_central_series(build):
    for h in all_subgroups(build()):
        assert is_nilpotent(h) == helpers.nilpotent_by_central_series(h)


def test_elementary_abelian_fixed_prime():
    assert is_elementary_abelian(helpers.elem_ab(2, 2), 2)
    assert is_elementary_abelian(helpers.elem_ab(3, 2), 3)
    assert not is_elementary_abelian(helpers.d8(), 2)
    assert not is_elementary_abelian(helpers.cyclic(4), 2)
    # trivial group counts for every prime
    g = helpers.cyclic(2)
    assert is_elementary_abelian(g.trivial_subgroup(), 2)
    with pytest.raises(InputError):
        is_elementary_abelian(g, 6)


def test_elementary_abelian_any_prime():
    # squarefree exponent, mixed primes allowed
    assert is_elementary_abelian_any(helpers.cyclic(2))
    assert is_elementary_abelian_any(helpers.cyclic(6))
    assert is_elementary_abelian_any(helpers.elem_ab(2, 2))
    assert not is_elementary_abelian_any(helpers.cyclic(4))
    assert not is_elementary_abelian_any(helpers.cyclic(2).trivial_subgroup())
    assert not is_elementary_abelian_any(helpers.s3())


def test_elementary_abelian_rank():
    g = helpers.elem_ab(2, 2)
    assert elementary_abelian_rank(g, 2) == 2
    assert elementary_abelian_rank(g.trivial_subgroup(), 2) == 0
    assert elementary_abelian_rank(helpers.cyclic(3), 3) == 1
    with pytest.raises(InputError):
        elementary_abelian_rank(helpers.cyclic(4), 2)


def test_subgroup_describe():
    g = helpers.d8()
    assert g.trivial_subgroup().describe() == "1"
    h = g.subgroup_generated([perm("(1 3)(2 4)")])
    assert h.describe() == "⟨(1 3)(2 4)⟩"


def test_subgroup_from_elements_must_be_a_subgroup():
    g = helpers.cyclic(4)
    r = perm("(1 2 3 4)")
    with pytest.raises(InputError, match="^subgroup must contain the identity$"):
        Subgroup(g, [r ** 2])
    for elements in ([g.identity, r], [g.identity, r, r ** 2]):
        with pytest.raises(InputError, match="^subgroup elements are not "
                           "closed under products$"):
            Subgroup(g, elements)
    h = Subgroup(g, [r ** 2, g.identity])
    assert h == g.subgroup_generated([r ** 2]) and h.order == 2
    assert is_p_group(h, 2)
    assert repr(h) == "Subgroup(order=2, ⟨(1 3)(2 4)⟩)"
    d8 = helpers.d8()
    for k in all_subgroups(d8):
        again = Subgroup(d8, reversed(k.elements))
        assert again == k and again.generating_set() == k.generating_set()


def test_subgroup_order_across_two_group_objects():
    # two builds of D8 are two group objects on one point set; their
    # subgroups compare by elements
    a, b = helpers.d8(), helpers.d8()
    assert a is not b
    for h in all_subgroups(a):
        for k in all_subgroups(b):
            assert (h < k) == (h.order < k.order
                               and set(h.elements) <= set(k.elements))
    assert a.trivial_subgroup() < b.whole()
    assert not b.whole() < a.whole()


def lazy_record_groups():
    return dict(helpers.pgroup_corpus(), S4=helpers.s4(),
                S3xS3=helpers.s3xs3(), **{"order 128": helpers.sylow_b4(),
                                          "order 256": helpers.sylow_b5()})


def test_lattice_records_decode_like_their_masks():
    # the lattice hands its element numbers to the records, which decode
    # elements and keys only on first use; each must equal an eager
    # decode of the mask
    for name, g in lazy_record_groups().items():
        subs = all_subgroups(g)
        classes = conjugacy_classes_of_subgroups(g)
        members = [h for c in classes for h in c.members]
        assert {h.mask for h in members} == {h.mask for h in subs}, name
        for h in subs + members:
            numbers = [i for i in range(g.order) if h.mask >> i & 1]
            assert permgrp._bits(h.mask) == numbers, name
            elements = tuple(g.elements[i] for i in numbers)
            assert h.order == len(numbers), name
            assert h.elements == elements, name
            assert h.key == tuple(x.key for x in elements), name


def test_lattice_order_is_order_then_key():
    # the sweep sorts by (order, element numbers); elements are numbered
    # in key order, so that is the order of (order, key)
    for name, g in lazy_record_groups().items():
        subs = all_subgroups(g)
        assert ([h.mask for h in subs] == [h.mask for h in sorted(
            subs, key=lambda h: (h.order, h.key))]), name
        classes = conjugacy_classes_of_subgroups(g)
        assert ([c.rep.mask for c in classes] == [c.rep.mask for c in sorted(
            classes, key=lambda c: (c.rep.order, c.rep.key))]), name
        for c in classes:
            assert c.rep is c.members[0], name
            assert ([h.mask for h in c.members] == [h.mask for h in sorted(
                c.members, key=lambda h: (h.order, h.key))]), name


def test_public_subgroup_checks_then_decodes_lazily():
    g = helpers.d8()
    r = perm("(1 2 3 4)")
    for elements, text in (
            ([g.identity, perm("(1 2)")],
             "subgroup element lies outside the group"),
            ([r ** 2], "subgroup must contain the identity"),
            ([g.identity, r], "subgroup elements are not closed under "
                              "products")):
        with pytest.raises(InputError, match="^%s$" % text):
            Subgroup(g, elements)
    h = Subgroup(g, [r ** 3, r, g.identity, r ** 2])
    assert h.order == 4 and h.elements == tuple(sorted(h.elements))
    assert h.key == tuple(x.key for x in h.elements)
    assert h in all_subgroups(g) and h.describe() == "⟨(1 2 3 4)⟩"


def test_generating_set_regenerates():
    g = helpers.d8()
    for h in all_subgroups(g):
        regen = g.subgroup_generated(h.generating_set())
        assert regen == h


def _bary_octahedron_image_group():
    """The order-16 Sylow 2-subgroup of the octahedral group, as the group
    of its images on the 26 vertices of bary(octahedron)."""
    octa = helpers.octahedron()
    g = helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)")
    act = helpers.subdivided_action(octa, g)
    return group_from_generators(act.complex.vertices,
                                 [act.images[x.key] for x in g.generators])


def test_tables_match_direct_products():
    groups = [helpers.s4(), helpers.d8xc2(), helpers.s3xs3(), helpers.q8(),
              helpers.a4(), *helpers.pgroup_corpus().values(),
              _bary_octahedron_image_group()]
    assert groups[-1].order == 16 and len(groups[-1].points) == 26
    for g in groups:
        table = helpers.product_table(g)
        mul, inv = g._tables()
        assert mul == table
        assert all(g.elements[a].inverse() == g.elements[inv[a]]
                   for a in range(g.order))


@pytest.mark.parametrize("build, order, n_subgroups, n_classes, seconds",
                         [(helpers.b4, 384, 1659, 193, 3.0),
                          (lambda: helpers.symmetric(6), 720, 1455, 56, 4.0)])
def test_lattice_at_scale(build, order, n_subgroups, n_classes, seconds):
    g = build()
    start = time.process_time()
    classes = conjugacy_classes_of_subgroups(g)
    elapsed = time.process_time() - start
    assert g.order == order
    assert len(all_subgroups(g)) == n_subgroups
    assert len(classes) == n_classes
    assert sum(c.size for c in classes) == n_subgroups
    assert elapsed < seconds


def test_subgroup_generated_on_a_fresh_group_is_cheap():
    pts = [str(i) for i in range(1, 7)]
    g = helpers.symmetric(6)
    gens = [perm("(1 2 3 4 5)", pts), perm("(1 2)(3 4)", pts)]
    start = time.process_time()
    h = g.subgroup_generated(gens)
    elapsed = time.process_time() - start
    assert h.order == 60
    assert elapsed < 0.2
