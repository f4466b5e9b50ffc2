"""Cohen-Macaulay checks, cohomology profiles, doubling, obstruction scans."""

import re
import time

import pytest

import helpers
from equichar import (GroupAction, HomologyGroup, InputError,
                      PreconditionError, SimplicialComplex, augment,
                      cohen_macaulay, double_along, duality,
                      duality_obstruction_scan,
                      find_full_subcomplex_isomorphic, flag_duality,
                      graded_cohomology_profile, homology, jones, posets)


def doubled_pipeline():
    bary = helpers.tetra_boundary().barycentric_subdivision()
    emb = find_full_subcomplex_isomorphic(bary, helpers.t_complex())
    return bary, emb, double_along(bary, emb.mapping.values())


def test_cm_octahedron():
    report = cohen_macaulay(helpers.octahedron())
    assert report.is_cm and report.dimension == 2


def test_cm_barycentric_sphere():
    report = cohen_macaulay(helpers.tetra_boundary().barycentric_subdivision())
    assert report.is_cm and report.dimension == 2


def test_cm_at_scale():
    # 5,186 links, each read from the star of one vertex
    x = helpers.octahedron()
    for _ in range(3):
        x = x.barycentric_subdivision()
    start = time.process_time()
    report = cohen_macaulay(x)
    elapsed = time.process_time() - start
    assert report.is_cm and report.dimension == 2
    assert elapsed < 1.0


def pendant_triangle():
    """A triangle with a pendant edge, plus an isolated vertex: not pure."""
    return SimplicialComplex.from_maximal_simplices(
        ["a", "b", "c", "d", "e"], [("a", "b", "c"), ("c", "d"), ("e",)])


def cone_over_graph():
    """A cone whose apex o has for link a hollow triangle, a path and two
    isolated vertices: four components and one cycle."""
    return SimplicialComplex.from_maximal_simplices(
        list("oabcdefgh"), [("o", "a", "b"), ("o", "b", "c"), ("o", "a", "c"),
                            ("o", "d", "e"), ("o", "e", "f"), ("o", "g"),
                            ("o", "h")])


def test_link_table_matches_augmented_link_homology(monkeypatch):
    link_of, cofaces = SimplicialComplex._link_of, SimplicialComplex._cofaces
    for x in (*helpers.complex_corpus().values(), helpers.cross_polytope(4),
              helpers.octahedron().barycentric_subdivision(),
              *helpers.random_flag_complexes(), pendant_triangle(),
              cone_over_graph()):
        built = []  # simplices whose link the table builds and reduces
        read = []  # simplices whose cofaces are read through _cofaces

        def recording_link_of(self, s, faces):
            built.append(s)
            return link_of(self, s, faces)

        def recording_cofaces(self, s):
            read.append(s)
            return cofaces(self, s)
        monkeypatch.setattr(SimplicialComplex, "_link_of", recording_link_of)
        monkeypatch.setattr(SimplicialComplex, "_cofaces", recording_cofaces)
        table = duality._link_table(x)
        monkeypatch.setattr(SimplicialComplex, "_link_of", link_of)
        monkeypatch.setattr(SimplicialComplex, "_cofaces", cofaces)
        assert list(table) == [()] + sorted(x.simplices)
        assert table[()] == homology(augment(x.chain_complex()))
        links = {s: helpers.brute_link(x, s) for s in x.simplices}
        for s in sorted(x.simplices):
            link = SimplicialComplex({v for t in links[s] for v in t}, links[s])
            assert table[s] == homology(augment(link.chain_complex()))
        # only links of dimension 2 and more go through Smith normal form,
        # and the coface lists come from the vertex stars, not _cofaces
        assert built == [s for s in sorted(x.simplices)
                         if max(map(len, links[s]), default=0) >= 3]
        assert read == []
        assert duality._link_table(x) is table


def test_link_table_closed_forms():
    zero, z = HomologyGroup(), HomologyGroup(1)
    table = duality._link_table(pendant_triangle())
    assert table[("e",)] == {-1: z}  # isolated vertex: empty link
    assert table[("d",)] == {-1: zero, 0: zero}  # one point
    assert table[("c", "d")] == {-1: z}
    assert table[("a", "b")] == {-1: zero, 0: zero}
    assert table[("c",)] == {-1: zero, 0: z, 1: zero}  # edge ab and point d
    assert table[("a",)] == {-1: zero, 0: zero, 1: zero}  # edge bc
    table = duality._link_table(cone_over_graph())
    assert table[("o",)] == {-1: zero, 0: HomologyGroup(3), 1: z}
    assert table[("g",)] == {-1: zero, 0: zero}
    assert table[("a", "o")] == {-1: zero, 0: z}
    assert table[("e", "o")] == {-1: zero, 0: z}


def test_each_link_computed_once_per_complex(monkeypatch):
    # the duality verdict, the profile and the scan's trivial class share
    # one link table; every other class reads the table of its own complex
    octa = helpers.octahedron()
    act = helpers.subdivided_action(
        octa, helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)"))
    x = act.complex
    log = []  # (complex, simplex); holding the complex keeps its id unique
    link_homology = duality._link_homology

    def counting_link_homology(x, s, cofaces):
        log.append((x, s))
        return link_homology(x, s, cofaces)
    monkeypatch.setattr(duality, "_link_homology", counting_link_homology)
    assert flag_duality(x).is_duality
    graded_cohomology_profile(x)
    scan = duality_obstruction_scan(act)
    calls = [(id(c), s) for c, s in log]
    assert len(calls) == len(set(calls))
    # the trivial class's fixed complex is x itself, so nothing is redone
    assert sorted(s for c, s in log if c == x) == sorted(x.simplices)
    assert 1 < len({i for i, _ in calls}) <= len(scan.classes)


def test_scan_checks_each_distinct_fixed_complex_once(monkeypatch):
    # the Sylow 2-subgroup of the octahedral group on bary(octahedron): its
    # 27 classes have 13 nonempty fixed complexes, only 7 of them distinct,
    # and equal fixed complexes have equal fixed vertex sets
    octa = helpers.octahedron()
    act = helpers.subdivided_action(
        octa, helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)"))
    log = []  # (complex, simplex); complexes compare by value
    link_homology = duality._link_homology

    def counting_link_homology(x, s, cofaces):
        log.append((x, s))
        return link_homology(x, s, cofaces)
    built = []  # the vertex sets of the fixed complexes the scan builds
    fixed_subcomplex = GroupAction.fixed_subcomplex

    def counting_fixed_subcomplex(action, h):
        fixed = fixed_subcomplex(action, h)
        built.append(fixed.vertices)
        return fixed
    monkeypatch.setattr(duality, "_link_homology", counting_link_homology)
    monkeypatch.setattr(GroupAction, "fixed_subcomplex",
                        counting_fixed_subcomplex)
    scan = duality_obstruction_scan(act)
    monkeypatch.setattr(GroupAction, "fixed_subcomplex", fixed_subcomplex)
    # one fixed complex per distinct nonempty fixed vertex set
    assert len(built) == len(set(built)) == 7
    fixed = [act.fixed_subcomplex(c.subgroup) for c in scan.classes]
    distinct = {f for f in fixed if not f.is_empty}
    assert (len(scan.classes), len(distinct)) == (27, 7)
    assert len([f for f in fixed if not f.is_empty]) == 13
    assert len(log) == len(set(log)) == sum(len(f.simplices) for f in distinct)
    for c, f in zip(scan.classes, fixed):
        if not f.is_empty:
            assert c.cm == cohen_macaulay(f)


def test_cm_t_fails_at_u():
    report = cohen_macaulay(helpers.t_complex())
    assert not report.is_cm
    assert report.failures == ((("u",), 0, HomologyGroup(1)),)


def test_cm_two_edges_fails_at_empty_simplex():
    report = cohen_macaulay(helpers.two_edges())
    assert report.failures == (((), 0, HomologyGroup(1)),)


def test_cm_rejects_empty_complex():
    with pytest.raises(InputError):
        cohen_macaulay(SimplicialComplex([], []))


def test_flag_duality():
    assert flag_duality(helpers.octahedron()).is_duality
    verdict = flag_duality(helpers.t_complex())
    assert not verdict.is_duality
    assert verdict.cm.failures[0][0] == ("u",)


def test_flag_duality_needs_flag():
    hollow = SimplicialComplex.from_maximal_simplices(
        ["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])
    with pytest.raises(PreconditionError):
        flag_duality(hollow)


def test_profile_of_t():
    prof = graded_cohomology_profile(helpers.t_complex())
    assert prof.max_degree == 3
    assert prof.degrees_with_entries() == [2, 3]
    assert prof.entries[2] == ((("u",), HomologyGroup(1)),)
    row = prof.entries[3]
    assert [s for s, _ in row] == [("u", "v1", "w1"), ("u", "v2", "w2")]
    assert all(g == HomologyGroup(1) for _, g in row)
    assert prof.all_torsion_free


def test_profile_of_duality_complex_concentrates():
    prof = graded_cohomology_profile(helpers.octahedron())
    assert prof.degrees_with_entries() == [3]
    assert len(prof.entries[3]) == 27
    assert prof.all_torsion_free


def test_profile_degree_handling():
    t = helpers.t_complex()
    prof = graded_cohomology_profile(t, max_degree=2)
    assert sorted(prof.entries) == [0, 1, 2]
    with pytest.raises(InputError):
        graded_cohomology_profile(t, max_degree=-1)
    with pytest.raises(InputError):
        graded_cohomology_profile(SimplicialComplex([], []))


def test_double_point():
    point = SimplicialComplex.from_maximal_simplices(["x"], [("x",)])
    doubled, act = double_along(point, ())
    assert doubled.f_vector() == (2,)
    assert act.is_admissible()
    fixed = act.fixed_subcomplex(act.group.whole())
    assert fixed.is_empty


def test_double_edge_along_vertex():
    edge = SimplicialComplex.from_maximal_simplices(["1", "2"], [("1", "2")])
    doubled, act = double_along(edge, ("1",))
    assert sorted(doubled.vertices) == ["1", "2", "2'"]
    assert doubled.f_vector() == (3, 2)
    fixed = act.fixed_subcomplex(act.group.whole())
    assert fixed.vertices == ("1",)


def test_double_validation():
    edge = SimplicialComplex.from_maximal_simplices(["1", "2"], [("1", "2")])
    with pytest.raises(InputError):
        double_along(edge, ("3",))
    not_full = SimplicialComplex.from_maximal_simplices(
        ["1", "2"], [("1",), ("2",)])
    with pytest.raises(PreconditionError):
        double_along(edge, not_full)
    clash = SimplicialComplex.from_maximal_simplices(
        ["1", "1'"], [("1", "1'")])
    with pytest.raises(InputError):
        double_along(clash, ())


def test_doubled_sphere_pipeline():
    bary, emb, (doubled, act) = doubled_pipeline()
    assert len(doubled.vertices) == 23
    assert doubled.is_flag()
    assert cohen_macaulay(doubled).is_cm
    fixed = act.fixed_subcomplex(act.group.whole())
    image = bary.full_subcomplex(emb.mapping.values())
    assert fixed == image
    report = cohen_macaulay(fixed)
    assert not report.is_cm
    assert [f[0] for f in report.failures] == [(emb.mapping["u"],)]


def test_obstruction_scan_trivial_action():
    x = helpers.octahedron()
    act = GroupAction(x, helpers.group_on(x))
    scan = duality_obstruction_scan(act)
    assert not scan.any_obstruction
    assert len(scan.classes) == 1


def test_obstruction_scan_star():
    star = helpers.star5()
    act = GroupAction(star, helpers.group_on(star, "(1 2)(3 4)", "(1 3)(2 4)"))
    scan = duality_obstruction_scan(act)
    assert not scan.any_obstruction
    assert len(scan.classes) == 5
    assert all(c.cm is not None and c.cm.is_cm for c in scan.classes)


def test_obstruction_scan_doubled():
    _, _, (doubled, act) = doubled_pipeline()
    scan = duality_obstruction_scan(act)
    assert scan.any_obstruction
    assert [c.subgroup for c in scan.classes if c.obstructed] == [
        act.group.whole()]
    top = [c for c in scan.classes if c.obstructed][0]
    assert top.note == "fixed complex is not Cohen-Macaulay"


def test_obstruction_scan_empty_fixed_passes():
    # the whole group fixes nothing, which never counts as an obstruction;
    # the trivial class is obstructed because two disjoint edges are not CM
    edges = helpers.two_edges()
    act = GroupAction(edges, helpers.group_on(edges, "(1 3)(2 4)"))
    scan = duality_obstruction_scan(act)
    assert [c.subgroup for c in scan.classes if c.obstructed] == [
        act.group.trivial_subgroup()]
    empty_cases = [c for c in scan.classes if c.cm is None]
    assert len(empty_cases) == 1
    assert not empty_cases[0].obstructed
    assert empty_cases[0].note == "empty fixed complex; trivial factor"


@pytest.mark.parametrize("name", sorted(helpers.complex_and_flag_corpus()))
def test_subdivision_keeps_homology_and_cm_verdict(name):
    # bary(L) is homeomorphic to L, and both reduced homology and the
    # Cohen-Macaulay property are topological invariants (Munkres 1984)
    x = helpers.complex_and_flag_corpus()[name]
    bary = x.barycentric_subdivision()
    assert bary.reduced_homology() == x.reduced_homology()
    assert cohen_macaulay(bary).is_cm == cohen_macaulay(x).is_cm


@pytest.mark.parametrize("record, text", [
    (duality.CMReport, "CMReport(dimension=0, failures='x')"),
    (duality.DualityReport, "DualityReport(is_duality=0, cm='x')"),
    (duality.GradedProfile, "GradedProfile(max_degree=0, entries='x')"),
    (duality.ClassObstruction, "ClassObstruction(subgroup=0, "
     "fixed_vertices=1, cm=2, obstructed=3, note='x')"),
    (duality.ObstructionReport, "ObstructionReport(classes='x')"),
    (posets.PosetComparison, "PosetComparison(left_size=0, right_size=1, "
     "left_homology=2, right_homology=3, equal='x')"),
    (posets.WeylPosetReport, "WeylPosetReport(subgroup=0, comparison='x')"),
    (jones.ExtensionResult,
     "ExtensionResult(equivariant=0, acyclic=1, witness='x')"),
])
def test_result_records(record, text):
    # built by position or keyword in field order, equal by field values
    # within one type only, unhashable, shown as Type(field=value, ...)
    names = re.findall(r"(\w+)=", text)
    values = tuple(range(len(names) - 1)) + ("x",)
    r = record(*values)
    assert r == record(**dict(zip(names, values)))
    assert repr(r) == text
    for bad in (values[:-1], values + (0,)):
        with pytest.raises(TypeError):
            record(*bad)
    with pytest.raises(TypeError):
        record(*values, extra=0)
    assert r != record(*values[:-1], -1)
    assert r != values and values != r
    other = type("Other", (record,), {})
    assert r != other(*values) and other(*values) != r
    with pytest.raises(TypeError):
        hash(r)
