"""Subgroup posets, order complexes, and the poset comparison checks."""

import pytest

import helpers
from equichar import (FinitePoset, HomologyGroup, InputError,
                      PreconditionError, all_subgroups, center,
                      conjugacy_classes_of_subgroups,
                      elementary_abelian_euler_formula, homology_tables_equal,
                      normalizer, poset_strictly_above, quillen_thevenaz_check,
                      subgroup_poset, weyl_poset_check)


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
    z = center(g)
    above = poset_strictly_above(g, z)
    assert len(above) == 4
    assert above.augmented_euler() == 0


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
