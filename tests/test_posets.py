"""Subgroup posets, order complexes, and the poset comparison checks."""

import pytest

import helpers
from equichar import (FinitePoset, HomologyGroup, InputError,
                      PreconditionError, Subgroup, all_subgroups, centralizer,
                      conjugacy_classes_of_subgroups,
                      elementary_abelian_euler_formula, homology_tables_equal,
                      is_cyclic, normalizer, poset_strictly_above,
                      prime_power_base, quillen_thevenaz_check,
                      subgroup_poset, weyl_poset_check)
from equichar.posets import (FILTERS, PosetComparison, WeylPosetReport,
                             _inclusion_poset)


def chain_poset(n):
    return FinitePoset(range(n), {(i, j) for i in range(n)
                                  for j in range(i + 1, n)})


def test_poset_validation():
    with pytest.raises(InputError):
        FinitePoset([0, 1], {(0, 0)})
    with pytest.raises(InputError):
        FinitePoset([0, 1], {(0, 1), (1, 0)})
    with pytest.raises(InputError):
        FinitePoset([0, 1, 2], {(0, 1), (1, 2)})
    with pytest.raises(InputError):
        FinitePoset([0, 1], {(0, 2)})
    with pytest.raises(InputError):
        FinitePoset([0, 1], set(), labels=("a", "a"))
    with pytest.raises(InputError, match="^relation index out of range$"):
        FinitePoset([0, 1], {("0", 1)})
    for elements, labels in ((5, None), ([0], 5)):
        with pytest.raises(InputError,
                           match="^elements and labels must be iterables$"):
            FinitePoset(elements, set(), labels=labels)
    with pytest.raises(InputError, match="^labels must be hashable$"):
        FinitePoset([0], set(), labels=[["x"]])


@pytest.mark.parametrize("pairs", [{(0,)}, {(0, 1, 1)}, {0}, [[0, 1]]])
def test_relation_pairs_must_be_pairs(pairs):
    with pytest.raises(InputError,
                       match=r"^relation pairs must be \(i, j\) tuples$"):
        FinitePoset([0, 1], pairs)


def test_chain_poset():
    p = chain_poset(3)
    assert p.chain_counts() == (3, 3, 1)
    assert p.augmented_euler() == 0
    assert p.order_complex().f_vector() == (3, 3, 1)
    assert homology_tables_equal(p.reduced_homology(), {})


def test_antichain_poset():
    p = FinitePoset("abc", set())
    assert p.chain_counts() == (3,)
    assert p.augmented_euler() == 2
    assert p.reduced_homology()[0] == HomologyGroup(2)


def test_empty_poset():
    p = FinitePoset((), set())
    assert p.chain_counts() == () == tuple(helpers.count_chains(0, set()))
    assert p.augmented_euler() == -1
    assert p.reduced_homology() == {-1: HomologyGroup(1)}


def test_divisibility_poset():
    divs = (1, 2, 3, 4, 6, 12)
    p = FinitePoset(divs, {(i, j) for i, a in enumerate(divs)
                           for j, b in enumerate(divs) if a != b and b % a == 0})
    assert len(p) == 6
    # bounded poset, hence a contractible order complex
    assert p.augmented_euler() == 0
    counts = helpers.count_chains(len(p), p.lt)
    assert tuple(counts[k] for k in sorted(counts)) == p.chain_counts()


def test_subgroup_poset_sizes_d8():
    g = helpers.d8()
    assert len(subgroup_poset(g, "nontrivial")) == 9
    assert len(subgroup_poset(g, "nilpotent")) == 9
    assert len(subgroup_poset(g, "elementary-abelian")) == 7
    assert len(subgroup_poset(g, "proper-nontrivial")) == 8


def test_elementary_abelian_filter_prime():
    g = helpers.d12()
    assert len(subgroup_poset(g, "elementary-abelian")) == 12
    assert len(subgroup_poset(g, "elementary-abelian", p=2)) == 10
    assert len(subgroup_poset(g, "elementary-abelian", p=3)) == 1


def test_unknown_filter_rejected():
    with pytest.raises(InputError):
        subgroup_poset(helpers.d8(), "solvable")


def test_poset_euler_identity():
    for p in (2, 3):
        for n in (1, 2, 3):
            g = helpers.elem_ab(p, n)
            s = subgroup_poset(g, "proper-nontrivial")
            value = s.augmented_euler()
            assert value == elementary_abelian_euler_formula(p, n)
            assert value == (-1) ** n * p ** (n * (n - 1) // 2)
            assert value == helpers.mobius_euler(len(s), s.lt)


def test_augmented_euler_matches_mobius_on_subgroup_posets():
    for g in (helpers.s3(), helpers.d8(), helpers.a4(), helpers.c4xc2()):
        for which in ("nontrivial", "nilpotent", "elementary-abelian"):
            s = subgroup_poset(g, which)
            assert s.augmented_euler() == helpers.mobius_euler(len(s), s.lt)


def test_quillen_thevenaz_agreement():
    sizes = {}
    for name, g in (("s3", helpers.s3()), ("s4", helpers.s4()),
                    ("a4", helpers.a4()), ("d8", helpers.d8()),
                    ("d12", helpers.d12())):
        res = quillen_thevenaz_check(g)
        assert res.equal, name
        assert homology_tables_equal(res.left_homology, res.right_homology)
        sizes[name] = (res.left_size, res.right_size)
    assert sizes["s3"] == (4, 4)
    assert sizes["s4"] == (23, 17)
    assert sizes["d8"] == (9, 7)
    assert sizes["d12"] == (12, 12)


def test_quillen_thevenaz_s3_content():
    # both posets are the antichain of three C2s and one C3
    res = quillen_thevenaz_check(helpers.s3())
    assert res.left_size == 4
    assert homology_tables_equal(res.left_homology, {0: HomologyGroup(3)})


def test_elementary_abelian_poset_contractible_for_p_groups():
    for name, g in helpers.pgroup_corpus().items():
        a1 = subgroup_poset(g, "elementary-abelian")
        assert homology_tables_equal(a1.reduced_homology(), {}), name


def test_poset_strictly_above():
    g = helpers.d8()
    z = centralizer(g, g)
    above = poset_strictly_above(g, z)
    assert len(above) == 4
    assert above.augmented_euler() == 0


def test_poset_strictly_above_takes_the_group_and_element_lists():
    # h is read through the group's one mask conversion, as for normalizer:
    # g itself is its whole subgroup, and a list of elements is its set
    g = helpers.d8()
    assert (weyl_poset_check(g, g).comparison
            == weyl_poset_check(g, g.whole()).comparison)
    assert len(poset_strictly_above(g, g)) == 0
    for h in all_subgroups(g):
        above = poset_strictly_above(g, h)
        listed = poset_strictly_above(g, list(h.elements))
        assert (listed.elements, listed.lt) == (above.elements, above.lt)
        assert (weyl_poset_check(g, list(h.elements)).comparison
                == weyl_poset_check(g, h).comparison)
    # an h inside g's group but outside g has nothing above it in g
    c4 = [k for k in all_subgroups(g) if is_cyclic(k) and k.order == 4][0]
    reflection = [k for k in all_subgroups(g)
                  if k.order == 2 and not k <= c4][0]
    assert len(poset_strictly_above(c4, reflection)) == 0
    # an element outside g's group is an InputError
    with pytest.raises(InputError, match="^h lies outside the group$"):
        poset_strictly_above(g, helpers.s3().elements)


def test_weyl_poset_check_reports_a_subgroup():
    # h is read through the group's one mask conversion, and the report
    # holds the subgroup of that mask, whatever form h came in
    g = helpers.d8()
    rep = weyl_poset_check(g, g)
    assert isinstance(rep.subgroup, Subgroup)
    assert rep.subgroup.group is g and rep.subgroup == g.whole()
    assert rep.subgroup.describe() == g.whole().describe()
    assert (weyl_poset_check(g, [g.identity])
            == weyl_poset_check(g, g.trivial_subgroup()))
    for h in all_subgroups(g):
        assert weyl_poset_check(g, list(h.elements)) == weyl_poset_check(g, h)


def test_weyl_poset_check_all_subgroups():
    for g in (helpers.d8(), helpers.elem_ab(2, 3), helpers.c4xc2()):
        for h in all_subgroups(g):
            rep = weyl_poset_check(g, h)
            assert rep.comparison.equal, h.describe()


def test_weyl_poset_check_extremes():
    g = helpers.d8()
    whole = [h for h in all_subgroups(g) if h.order == 8][0]
    rep = weyl_poset_check(g, whole)
    assert rep.comparison.left_size == rep.comparison.right_size == 0
    assert rep.comparison.left_homology == {-1: HomologyGroup(1)}
    trivial = [h for h in all_subgroups(g) if h.order == 1][0]
    rep = weyl_poset_check(g, trivial)
    assert rep.comparison.left_size == rep.comparison.right_size == 9


def test_weyl_poset_check_equals_the_normalizer_lattice_route():
    # the Weyl interval read from g's lattice by the normalizer's mask
    # against the poset above h in the lattice of N(h) itself; a full
    # check builds no lattice but g's own
    for name, g in helpers.pgroup_corpus().items():
        classes = conjugacy_classes_of_subgroups(g)
        reports = [weyl_poset_check(g, cls.rep) for cls in classes]
        assert list(g._lattices) == [g.mask], name
        for cls, rep in zip(classes, reports):
            above = poset_strictly_above(g, cls.rep)
            weyl = poset_strictly_above(normalizer(g, cls.rep), cls.rep)
            ha = above.reduced_homology()
            hw = weyl.reduced_homology()
            assert rep == WeylPosetReport(cls.rep, PosetComparison(
                len(above), len(weyl), ha, hw,
                homology_tables_equal(ha, hw))), name


def test_weyl_interval_matches_coset_quotient():
    # correspondence theorem: the subgroups strictly above h in N(h) are
    # the nontrivial subgroups of N(h)/h, built here as a separate group
    for name, g in helpers.pgroup_corpus().items():
        for cls in conjugacy_classes_of_subgroups(g):
            n = normalizer(g, cls.rep)
            interval = poset_strictly_above(n, cls.rep)
            q = helpers.coset_quotient(n, cls.rep)
            assert len(interval) == len(helpers.brute_subgroups(q)) - 1, name
            assert homology_tables_equal(
                interval.reduced_homology(),
                subgroup_poset(q, "nontrivial").reduced_homology()), name


def test_weyl_poset_check_needs_p_group():
    g = helpers.s3()
    h = all_subgroups(g)[0]
    with pytest.raises(PreconditionError):
        weyl_poset_check(g, h)


def test_homology_tables_equal_ignores_trivial_entries():
    assert homology_tables_equal({1: HomologyGroup()}, {})
    assert homology_tables_equal({0: HomologyGroup(1)}, {0: HomologyGroup(1)})
    assert not homology_tables_equal({0: HomologyGroup(1)}, {})
    assert not homology_tables_equal({1: HomologyGroup(0, (2,))},
                                     {1: HomologyGroup(0, (3,))})


# ------------------------------------------------------------ cone posets


def corpus_groups():
    groups = dict(helpers.pgroup_corpus())
    groups.update(S3=helpers.s3(), S4=helpers.s4(), A4=helpers.a4(),
                  D12=helpers.d12(), C6=helpers.cyclic(6),
                  D8xC2=helpers.d8xc2(), S3xS3=helpers.s3xs3(),
                  C4xC4=helpers.c4xc4())
    return groups


def corpus_posets():
    """Every subgroup poset of the corpus: each filter, the elementary
    abelian one also for p = 2 and 3, and the subgroups above each class
    representative, in g and in its normalizer (both sides of the Weyl
    check)."""
    for name, g in corpus_groups().items():
        for which in FILTERS:
            yield name + "/" + which, subgroup_poset(g, which)
        for p in (2, 3):
            yield "%s/A_%d" % (name, p), subgroup_poset(g, "elementary-abelian", p)
        for c in conjugacy_classes_of_subgroups(g):
            yield name + "/above", poset_strictly_above(g, c.rep)
            yield name + "/weyl", poset_strictly_above(normalizer(g, c.rep), c.rep)


def hand_built_posets():
    return {
        "top only": FinitePoset("abct", {(0, 3), (1, 3), (2, 3), (0, 2)}),
        "bottom only": FinitePoset("bxyzw", {(0, 1), (0, 2), (0, 3), (0, 4),
                                             (1, 3), (2, 3)}),
        "one element": FinitePoset("a", set()),
        "no element": FinitePoset((), set()),
    }


def test_cone_rule_equals_the_order_complex_route():
    posets = list(corpus_posets()) + list(hand_built_posets().items())
    cones = 0
    for name, s in posets:
        want = s.order_complex().reduced_homology()
        assert list(s.reduced_homology().items()) == list(want.items()), name
        assert s.augmented_euler() == helpers.mobius_euler(len(s), s.lt), name
        cones += s._mobius_pass()[2]
    assert 0 < cones < len(posets)


def test_augmented_euler_equals_the_chain_route():
    for name, s in list(corpus_posets()) + list(hand_built_posets().items()):
        assert s.augmented_euler() == helpers.chain_sum_euler(len(s), s.lt), name


def test_chain_counts_equal_the_chain_oracle():
    for name, s in corpus_posets():
        counts = helpers.count_chains(len(s), s.lt)
        assert s.chain_counts() == tuple(counts[k] for k in sorted(counts)), name


def test_chain_counts_do_not_sort_the_labels():
    # chains are listed on the element indices, so labels need not sort
    p = FinitePoset([0, 1], {(0, 1)}, labels=(1, "a"))
    assert (p.chain_counts(), p.augmented_euler()) == ((2, 1), 0)
    # and so are the chains of a core
    q = FinitePoset([0, 1, 2], set(), labels=(1, "a", "b"))
    assert q.reduced_homology() == {-1: HomologyGroup(), 0: HomologyGroup(2)}


def test_augmented_euler_lists_no_chains(monkeypatch):
    # Hall's recursion answers for cones and non-cones alike
    posets = list(corpus_posets())
    want = [s.augmented_euler() for _, s in posets]

    def refuse(self):
        raise AssertionError("chains listed for an Euler value")

    monkeypatch.setattr(FinitePoset, "order_complex", refuse)
    monkeypatch.setattr(FinitePoset, "chain_counts", refuse)
    assert [s.augmented_euler() for _, s in posets] == want
    assert not all(s._mobius_pass()[2] for _, s in posets)


def test_inclusion_posets_pass_the_public_validator():
    # the library builds inclusion posets through the trusted
    # FinitePoset._of; the public constructor accepts each of them
    for name, s in corpus_posets():
        assert FinitePoset(s.elements, s.lt, s.labels).lt == s.lt, name


def test_inclusion_posets_equal_the_pair_scan():
    # the containment bitsets against the scan of every two masks
    groups = dict(helpers.pgroup_corpus(), S4=helpers.s4(),
                  S3xS3=helpers.s3xs3())
    for name, g in groups.items():
        posets = [_inclusion_poset(all_subgroups(g))]
        posets += [subgroup_poset(g, which) for which in FILTERS]
        posets += [poset_strictly_above(g, c.rep)
                   for c in conjugacy_classes_of_subgroups(g)]
        for s in posets:
            assert s.lt == helpers.inclusion_pairs_by_scan(s.elements), name


def test_inclusion_posets_keep_the_order_they_are_given():
    # lattice order is a precondition that the callers keep, not a sort:
    # the labels follow the subgroups as listed, and so do the pairs
    subs = all_subgroups(helpers.s4())
    s = _inclusion_poset(reversed(subs))
    assert s.elements == tuple(reversed(subs))
    assert s.lt == helpers.inclusion_pairs_by_scan(s.elements)
    assert s.augmented_euler() == _inclusion_poset(subs).augmented_euler()


def test_hand_built_cones():
    posets = hand_built_posets()
    assert posets["top only"]._mobius_pass() == (0, 3, True)
    assert posets["bottom only"]._mobius_pass() == (0, 3, True)
    assert posets["one element"].reduced_homology() == {
        -1: HomologyGroup(), 0: HomologyGroup()}
    assert posets["no element"]._mobius_pass() == (-1, 0, False)


def test_cones_build_no_chains(monkeypatch):
    def refuse(self):
        raise AssertionError("chains built for a cone")

    monkeypatch.setattr(FinitePoset, "order_complex", refuse)
    monkeypatch.setattr(FinitePoset, "chain_counts", refuse)
    for g in (helpers.d8xc2(), helpers.s4(), helpers.s3xs3()):
        s = subgroup_poset(g, "nontrivial")
        assert s.augmented_euler() == 0
        assert homology_tables_equal(s.reduced_homology(), {})
    for name, g in helpers.pgroup_corpus().items():
        # a p-group is nilpotent, and above h < g lies g
        assert subgroup_poset(g, "nilpotent").augmented_euler() == 0
        for c in conjugacy_classes_of_subgroups(g):
            if c.rep.order < g.order:
                assert weyl_poset_check(g, c.rep).comparison.equal, name


# ------------------------------------------------------------ core posets


def group_corpus_posets():
    """The four filter posets and every Weyl interval, the subgroups K with
    h < K <= N(h) for each class representative h, of each group in the
    corpus but B4, whose nontrivial poset has 3.8 million chains."""
    for name, g in helpers.group_corpus().items():
        if name == "B4":
            continue
        for which in FILTERS:
            yield name + "/" + which, subgroup_poset(g, which)
        for c in conjugacy_classes_of_subgroups(g):
            yield name + "/weyl", poset_strictly_above(normalizer(g, c.rep), c.rep)


def rp2_face_poset(beat=False):
    """The face poset of the 6-vertex RP^2, with no beat point: each vertex
    lies in five edges, each edge in two triangles and above two vertices,
    each triangle above three edges.  With beat, one element more lies
    below the vertex 1 alone, a beat point whose removal leaves the rest."""
    faces = sorted(helpers.rp2_triangulation().simplices)
    lt = {(i, j) for i, a in enumerate(faces) for j, b in enumerate(faces)
          if set(a) < set(b)}
    labels = ["".join(f) for f in faces]
    if beat:
        lt |= {(len(faces), j) for j, b in enumerate(faces) if "1" in b}
        faces.append("beat")
        labels.append("b")
    return FinitePoset(faces, lt, labels)


def test_reduced_homology_equals_the_order_complex_oracle():
    posets = list(group_corpus_posets()) + list(hand_built_posets().items())
    posets += [("rp2", rp2_face_poset()), ("rp2+beat", rp2_face_poset(True))]
    for name, s in posets:
        want = helpers.order_complex_homology(s)
        assert list(s.reduced_homology().items()) == list(want.items()), name


def test_the_core_keeps_torsion():
    rp2 = rp2_face_poset()
    beat = rp2_face_poset(beat=True)
    assert (len(rp2), rp2._core()[0]) == (31, 31)
    assert (len(beat), beat._core()[0]) == (32, 31)
    assert not beat._mobius_pass()[2]
    for s in (rp2, beat):
        h = s.reduced_homology()
        assert h[1] == HomologyGroup(0, (2,))
        assert homology_tables_equal(h, {1: HomologyGroup(0, (2,))})
    # the beat point adds a degree to the whole order complex, not to the
    # core's, so the table is padded with zeros up to it
    assert list(beat.reduced_homology()) == [-1, 0, 1, 2, 3]
    assert list(rp2.reduced_homology()) == [-1, 0, 1, 2]


def test_quillen_checks_list_no_chains_of_the_whole_poset(monkeypatch):
    # S4's posets are no cones and their homology is not zero; D8xC2's
    # elementary abelian poset is no cone, and its core is one point
    def refuse(self):
        raise AssertionError("chains listed for the whole poset")

    monkeypatch.setattr(FinitePoset, "order_complex", refuse)
    monkeypatch.setattr(FinitePoset, "chain_counts", refuse)
    s4 = quillen_thevenaz_check(helpers.s4())
    assert (s4.equal, s4.left_size, s4.right_size) == (True, 23, 17)
    assert s4.left_homology[0] == HomologyGroup(4)
    d8xc2 = quillen_thevenaz_check(helpers.d8xc2())
    assert (d8xc2.equal, d8xc2.left_size, d8xc2.right_size) == (True, 34, 26)
    assert homology_tables_equal(d8xc2.right_homology, {})


def test_elementary_abelian_posets_of_p_groups_have_a_one_point_core():
    # A_p(P) is conically contractible (Quillen 1978), and a finite poset
    # is contractible exactly when its core is a point (Stong 1966)
    p_groups = 0
    for name, g in helpers.group_corpus().items():
        if prime_power_base(g.order) is None:
            continue
        p_groups += 1
        a = subgroup_poset(g, "elementary-abelian")
        assert a._core()[0] == 1, name
    assert p_groups == 13


# ------------------------------------------------- Brown and Quillen on A_p(G)


def p_part(n, p):
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def test_brown_congruence_on_quillen_posets():
    # K. S. Brown (Invent. Math. 1975): the reduced Euler characteristic of
    # A_p(G) is divisible by |G|_p
    s6 = helpers.s6()
    groups = dict(corpus_groups(), S5=helpers.symmetric(5), S6=s6)
    for name, g in groups.items():
        for p in (2, 3):
            chi = subgroup_poset(g, "elementary-abelian", p).augmented_euler()
            assert chi % p_part(g.order, p) == 0, (name, p, chi)
    a2 = subgroup_poset(s6, "elementary-abelian", 2)
    assert (len(a2), a2.chain_counts()) == (270, (270, 915, 630))
    assert a2.augmented_euler() == -16 == -p_part(720, 2)


def largest_normal_p_subgroup(g, p):
    """O_p(g), the intersection of the Sylow p-subgroups of g."""
    sylow = p_part(g.order, p)
    core = g.mask
    for h in all_subgroups(g):
        if h.order == sylow:
            core &= h.mask
    return core


def test_quillen_contractibility_when_o_p_is_nontrivial():
    # Quillen (Adv. Math. 1978): O_p(G) != 1 makes A_p(G) contractible
    cases = [(g, prime_power_base(g.order))
             for g in helpers.pgroup_corpus().values()]
    cases += [(helpers.s4(), 2), (helpers.a4(), 2), (helpers.s3(), 3),
              (helpers.d12(), 3)]
    for g, p in cases:
        assert largest_normal_p_subgroup(g, p) != 1
        a = subgroup_poset(g, "elementary-abelian", p)
        assert homology_tables_equal(a.reduced_homology(), {})
        assert a.augmented_euler() == 0
    # and where O_p(G) = 1 it need not be: A_2(S3) is three points
    assert largest_normal_p_subgroup(helpers.s3(), 2) == 1
    assert homology_tables_equal(
        subgroup_poset(helpers.s3(), "elementary-abelian", 2).reduced_homology(),
        {0: HomologyGroup(2)})
