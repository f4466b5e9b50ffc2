"""Acceptance gate: thirteen end-to-end criteria, one reported line each.

Run with -s to see the [PASS]/[FAIL] lines; each criterion is also its own
test, so plain pytest output gives the same verdicts.  Timing bounds are
part of the criteria and are asserted, not just measured.
"""

import random
import time

import helpers
from equichar import (GroupAction, HomologyGroup, IntegerMatrix,
                      all_subgroups, cohen_macaulay, cyclic_extension,
                      double_along, duality_obstruction_scan, euler_class,
                      euler_class_cyclic, find_full_subcomplex_isomorphic,
                      fixed_part, graded_cohomology_profile, homology,
                      homology_mod_p, homology_tables_equal, moore_complex,
                      quillen_thevenaz_check, reduced_homology_of,
                      smith_normal_form, subgroup_poset, vanishing_identity,
                      weyl_poset_check)


def _report(number, name, ok):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", number, name))
    assert ok, "criterion %d failed: %s" % (number, name)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def doubled_action():
    bary = helpers.tetra_boundary().barycentric_subdivision()
    emb = find_full_subcomplex_isomorphic(bary, helpers.t_complex())
    doubled, act = double_along(bary, emb.mapping.values())
    return bary, emb, doubled, act


def test_criterion_01_poset_euler_identity():
    def body():
        for p in (2, 3):
            for n in (1, 2, 3):
                s = subgroup_poset(helpers.elem_ab(p, n), "proper-nontrivial")
                if s.augmented_euler() != (-1) ** n * p ** (n * (n - 1) // 2):
                    return False
        return True
    ok, elapsed = _timed(body)
    _report(1, "poset Euler identity", ok and elapsed < 1.0)


def test_criterion_02_vanishing_identity():
    def body():
        return all(vanishing_identity(g) == 0
                   for g in helpers.pgroup_corpus().values())
    ok, elapsed = _timed(body)
    _report(2, "vanishing identity on the p-group corpus", ok and elapsed < 1.0)


def test_criterion_03_euler_class_cross_validation():
    edges = helpers.two_edges()
    star = helpers.star5()
    cases = [
        GroupAction(edges, helpers.group_on(edges, "(1 3)(2 4)")),
        GroupAction(star, helpers.group_on(star, "(1 3)")),
        GroupAction(star, helpers.group_on(star, "(1 2 3 4)")),
        doubled_action()[3],
    ]
    ok = True
    for act in cases:
        agree, elapsed = _timed(
            lambda a=act: euler_class(a) == euler_class_cyclic(a))
        ok = ok and agree and elapsed < 1.0
    _report(3, "general and cyclic Euler class routes agree", ok)


def test_criterion_04_two_disjoint_edges_class():
    def body():
        edges = helpers.two_edges()
        act = GroupAction(edges, helpers.group_on(edges, "(1 3)(2 4)"))
        trivial = act.group.trivial_subgroup()
        whole = act.group.whole()
        for cls in (euler_class(act), euler_class_cyclic(act)):
            if cls.coefficient(trivial) != -1 or cls.coefficient(whole) != 1:
                return False
        return True
    ok, elapsed = _timed(body)
    _report(4, "two disjoint edges give -1,+1", ok and elapsed < 1.0)


def test_criterion_05_dihedral_star_class():
    def body():
        star = helpers.star5()
        act = GroupAction(star, helpers.group_on(star, "(1 2 3 4)", "(1 3)"))
        return euler_class(act).is_zero
    ok, elapsed = _timed(body)
    _report(5, "dihedral action on the star is all-zero", ok and elapsed < 1.0)


def test_criterion_06_acyclicity_criterion():
    from equichar import acyclicity_condition
    star = helpers.star5()
    good = acyclicity_condition(
        GroupAction(star, helpers.group_on(star, "(1 2)", "(3 4)")))
    bad = acyclicity_condition(
        GroupAction(star, helpers.group_on(star, "(1 2)(3 4)", "(1 3)(2 4)")))
    ok = (good.holds and good.uncovered == ()
          and not bad.holds and bad.uncovered == ("1", "2", "3", "4"))
    _report(6, "vertex-cover acyclicity criterion", ok)


def test_criterion_07_cohen_macaulay_classification():
    octa = cohen_macaulay(helpers.octahedron())
    bary = cohen_macaulay(helpers.tetra_boundary().barycentric_subdivision())
    t = cohen_macaulay(helpers.t_complex())
    ok = (octa.is_cm and bary.is_cm and not t.is_cm
          and t.failures == ((("u",), 0, HomologyGroup(1)),))
    _report(7, "Cohen-Macaulay classification", ok)


def test_criterion_08_graded_profile_of_t():
    prof = graded_cohomology_profile(helpers.t_complex())
    row2 = prof.entries.get(2, ())
    row3 = prof.entries.get(3, ())
    ok = (prof.degrees_with_entries() == [2, 3]
          and row2 == ((("u",), HomologyGroup(1)),)
          and [s for s, _ in row3] == [("u", "v1", "w1"), ("u", "v2", "w2")]
          and prof.all_torsion_free)
    _report(8, "graded cohomology profile of the non-CM complex", ok)


def test_criterion_09_doubled_sphere_pipeline():
    def body():
        bary, emb, doubled, act = doubled_action()
        if emb is None or bary.degree(emb.mapping["u"]) != 6:
            return False
        if not doubled.is_flag() or not cohen_macaulay(doubled).is_cm:
            return False
        fixed = act.fixed_subcomplex(act.group.whole())
        if fixed != helpers.t_complex().relabel(emb.mapping):
            return False
        if cohen_macaulay(fixed).is_cm:
            return False
        scan = duality_obstruction_scan(act)
        return ([c.subgroup for c in scan.classes if c.obstructed]
                == [act.group.whole()])
    ok, elapsed = _timed(body)
    _report(9, "doubled sphere pipeline", ok and elapsed < 10.0)


def test_criterion_10_moore_extensions():
    ok = True
    for m, q, p in ((1, 2, 3), (1, 2, 5), (2, 2, 3)):
        res = cyclic_extension(m, q, p)
        fixed = fixed_part(res.equivariant)
        ok = (ok and res.acyclic
              and fixed == moore_complex(m, q)
              and reduced_homology_of(fixed)[m] == HomologyGroup(0, (2,))
              and homology_mod_p(fixed, 2)[m] > 0)
    _report(10, "verified acyclic extensions of Moore complexes", ok)


def test_criterion_11_poset_comparison():
    groups = (helpers.s3(), helpers.s4(), helpers.a4(), helpers.d8(),
              helpers.d12())
    ok = all(quillen_thevenaz_check(g).equal for g in groups)
    for g in helpers.pgroup_corpus().values():
        hom = subgroup_poset(g, "elementary-abelian").reduced_homology()
        ok = ok and homology_tables_equal(hom, {})
    _report(11, "nilpotent vs elementary abelian posets", ok)


def test_criterion_12_weyl_poset_comparison():
    ok = True
    for g in (helpers.d8(), helpers.elem_ab(2, 3), helpers.c4xc2()):
        for h in all_subgroups(g):
            ok = ok and weyl_poset_check(g, h).comparison.equal
    _report(12, "poset above H matches the Weyl subgroup poset", ok)


def test_criterion_13_infrastructure_properties():
    def body():
        rng = random.Random(20260813)
        for _ in range(25):
            rows = [[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))]
                    for _ in range(rng.randrange(1, 5))]
            rows = [r + [0] * (max(len(x) for x in rows) - len(r))
                    for r in rows]
            diag, rank = smith_normal_form(IntegerMatrix.from_rows(rows))
            nonzero = [d for d in diag if d]
            if len(nonzero) != rank or rank != helpers.rational_rank(rows):
                return False
            if any(b % a for a, b in zip(nonzero, nonzero[1:])):
                return False
        for x in helpers.complex_corpus().values():
            c = x.chain_complex()
            h = homology(c)
            euler = sum((-1) ** d * c.rank(d) for d in c.degrees())
            if euler != x.euler_characteristic():
                return False
            if euler != sum((-1) ** d * h[d].betti for d in c.degrees()):
                return False
            for p in (2, 3, 5):
                dims = homology_mod_p(c, p)
                for d in c.degrees():
                    expected = (h[d].betti
                                + sum(1 for t in h[d].torsion if t % p == 0)
                                + sum(1 for t in h.get(d - 1,
                                                       HomologyGroup()).torsion
                                      if t % p == 0))
                    if dims[d] != expected:
                        return False
        return True
    ok, elapsed = _timed(body)
    _report(13, "exact linear algebra infrastructure", ok and elapsed < 60.0)
