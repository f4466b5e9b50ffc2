"""Cohen-Macaulay tests, duality criteria, and the doubling construction.

A complex of dimension n is Cohen-Macaulay when the reduced homology of
every link (the empty simplex included) is concentrated in top degree
n - dim(simplex) - 1.  For a flag complex this decides whether the
associated right-angled Artin group is a duality group.  The graded
cohomology profile records, for each degree k, which simplices contribute
reduced link cohomology in degree k - dim(simplex) - 2; for a duality
group everything lands in a single k.
"""

from itertools import combinations

from ._record import _Record
from .errors import InputError, PreconditionError
from .exactlin import HomologyGroup, _universal_coefficients
from .permgrp import (Permutation, conjugacy_classes_of_subgroups,
                      group_from_generators)
from .simp import GroupAction, SimplicialComplex, _merges


class CMReport(_Record):
    __slots__ = ("dimension", "failures")

    dimension: int
    failures: tuple  # (simplex, degree, HomologyGroup) triples

    @property
    def is_cm(self):
        return not self.failures


def _link_table(x):
    """{simplex: reduced homology of its link}, the empty simplex first and
    then the simplices in sorted order.  Built once per complex and kept in
    its _link_table slot; complexes are immutable, so it never goes stale.

    The empty simplex's entry is the reduced homology of x by Smith normal
    form.  The other entries are made one vertex v at a time, in sorted
    order: a simplex with least vertex v and all its cofaces lie in the
    star of v, and the faces of a t in that star with least vertex v are v
    plus a subset of the vertices of t after v.  So one walk over the star
    gives each such simplex its list of proper cofaces, from which
    _link_homology makes its entry; the lists are dropped before the next
    vertex.
    """
    table = x._link_table
    if table is None:
        table = {(): x.reduced_homology()}
        stars = x._stars()
        for v in x.vertices:
            cofaces = {}  # tail c -> proper cofaces of (v,) + c
            for t in stars[v]:
                i = t.index(v) + 1
                rest = t[i:]
                if i == 1:  # t = (v,) + rest is not its own coface
                    cofaces.setdefault(rest, [])
                for k in range(len(rest) + (i > 1)):
                    for c in combinations(rest, k):
                        if c in cofaces:
                            cofaces[c].append(t)
                        else:
                            cofaces[c] = [t]
            for c in sorted(cofaces):
                s = (v,) + c
                table[s] = _link_homology(x, s, cofaces[c])
        x._link_table = table
    return table


def _link_homology(x, s, cofaces):
    """Reduced homology of the link of the nonempty simplex s of x, from
    the list of the simplices that have s as a proper face.

    Links of dimension below 2 are counted from the cofaces:
      * no coface: the link is empty, {-1: Z};
      * k cofaces, each one vertex larger: k points, {-1: 0, 0: Z^(k-1)};
      * largest coface two vertices larger: a graph with v vertices, e
        edges and c components (by union-find), {-1: 0, 0: Z^(c-1),
        1: Z^(e-v+c)}.
    These are the degrees and groups that Smith normal form gives on the
    augmented chain complex of the link, which is still built, from the
    cofaces, and reduced for links of dimension 2 and more.
    """
    n = len(s)
    points = 0
    edges = []
    for t in cofaces:
        k = len(t) - n
        if k == 1:
            points += 1
        elif k == 2:
            edges.append(t)
        else:
            return x._link_of(s, cofaces).reduced_homology()
    if not points:  # every coface has a face one vertex larger than s
        return {-1: HomologyGroup(1)}
    if not edges:
        return {-1: HomologyGroup(), 0: HomologyGroup(points - 1)}
    sset = set(s)
    c = points - _merges([v for v in t if v not in sset] for t in edges)
    return {-1: HomologyGroup(), 0: HomologyGroup(c - 1),
            1: HomologyGroup(len(edges) - points + c)}


def cohen_macaulay(x):
    """Check top-degree concentration of all link homologies.

    The links come from the complex's link table: empty links, point links
    and graph links are counted in closed form from the cofaces of each
    simplex (Z in degree -1; Z^(k-1) in degree 0 for k points; Z^(c-1) and
    Z^(e-v+c) in degrees 0 and 1 for a graph with v vertices, e edges and
    c components), and only the complex itself and links of dimension 2 or
    more go through Smith normal form.
    """
    if x.is_empty:
        raise InputError("the empty complex has no dimension to test against")
    n = x.dim
    failures = []
    for s, hom in _link_table(x).items():
        allowed = n - len(s)
        for d in sorted(hom):
            if d != allowed and not hom[d].is_trivial:
                failures.append((s, d, hom[d]))
    return CMReport(n, tuple(failures))


class DualityReport(_Record):
    __slots__ = ("is_duality", "cm")

    is_duality: bool
    cm: CMReport


def flag_duality(x):
    """Whether the Artin group of the flag complex x is a duality group."""
    if not x.is_flag():
        raise PreconditionError("complex is not flag")
    report = cohen_macaulay(x)
    return DualityReport(report.is_cm, report)


class GradedProfile(_Record):
    __slots__ = ("max_degree", "entries")

    max_degree: int
    entries: dict  # degree -> tuple of (simplex, HomologyGroup)

    @property
    def all_torsion_free(self):
        return all(group.is_torsion_free
                   for row in self.entries.values() for _, group in row)

    def degrees_with_entries(self):
        return sorted(d for d, row in self.entries.items() if row)


def graded_cohomology_profile(x, max_degree=None):
    """Reduced link cohomology contributions per global degree.

    For each simplex s (the empty one included) and degree k up to
    max_degree (default dim + 1), record the reduced cohomology of the
    link of s in degree k - dim(s) - 2 when it is nonzero.
    """
    if x.is_empty:
        raise InputError("profile of the empty complex is empty; nothing to do")
    if max_degree is None:
        max_degree = x.dim + 1
    if max_degree < 0:
        raise InputError("max_degree must be non-negative")
    rows = {k: [] for k in range(max_degree + 1)}
    # the table is in sorted order, so each row is too
    for s, hom in _link_table(x).items():
        for d, group in _universal_coefficients(hom).items():
            k = d + len(s) + 1
            if k in rows and not group.is_trivial:
                rows[k].append((s, group))
    return GradedProfile(max_degree, {k: tuple(row) for k, row in rows.items()})


def double_along(x, a):
    """Two copies of x glued along a full subcomplex, plus the swap action.

    a may be a SimplicialComplex (checked to be full in x) or an iterable
    of vertices.  Second-copy vertices get a trailing apostrophe.  The swap
    is always admissible: no simplex meets both copies outside the glued
    part, so a setwise-fixed simplex lies in it.
    """
    if isinstance(a, SimplicialComplex):
        averts = set(a.vertices)
        if not averts <= set(x.vertices):
            raise InputError("subcomplex vertices do not lie in the complex")
        if x.full_subcomplex(averts) != a:
            raise PreconditionError("subcomplex is not full; doubling would "
                                    "break flagness")
    else:
        averts = set(a)
        if not averts <= set(x.vertices):
            raise InputError("subset contains undeclared vertices")
    rename = {}
    for v in x.vertices:
        rename[v] = v if v in averts else v + "'"
        if rename[v] != v and rename[v] in x.vertices:
            raise InputError("vertex name %r collides with the copy" % rename[v])
    verts = list(x.vertices) + [rename[v] for v in x.vertices if v not in averts]
    simplices = set(x.simplices)
    for s in x.simplices:
        simplices.add(tuple(sorted(rename[v] for v in s)))
    doubled = SimplicialComplex._of(verts, simplices)
    swap = {}
    for v in x.vertices:
        swap[v] = rename[v]
        swap[rename[v]] = v
    gen = Permutation(doubled.vertices, swap)
    group = group_from_generators(doubled.vertices, [gen])
    return doubled, GroupAction(doubled, group)


class ClassObstruction(_Record):
    __slots__ = ("subgroup", "fixed_vertices", "cm", "obstructed", "note")

    subgroup: object
    fixed_vertices: tuple
    cm: CMReport | None
    obstructed: bool
    note: str


class ObstructionReport(_Record):
    __slots__ = ("classes",)

    classes: tuple

    @property
    def any_obstruction(self):
        return any(c.obstructed for c in self.classes)


def duality_obstruction_scan(action):
    """Scan fixed complexes of all subgroup classes for Cohen-Macaulay failures.

    A non-CM fixed complex obstructs equivariant duality; a clean scan
    proves nothing and is reported as such.  An empty fixed complex passes
    (the associated centralizer factor is trivial).  A fixed complex is the
    full subcomplex on its fixed vertices, so it is built and checked once
    per distinct nonempty fixed vertex set.
    """
    action.require_admissible()
    out = []
    reports = {}  # fixed vertices -> CMReport
    for cls in conjugacy_classes_of_subgroups(action.group):
        h = cls.rep
        verts = action.fixed_vertices(h)
        if not verts:
            out.append(ClassObstruction(h, (), None, False,
                                        "empty fixed complex; trivial factor"))
            continue
        report = reports.get(verts)
        if report is None:
            report = reports[verts] = cohen_macaulay(action.fixed_subcomplex(h))
        note = "" if report.is_cm else "fixed complex is not Cohen-Macaulay"
        out.append(ClassObstruction(h, verts, report, not report.is_cm, note))
    return ObstructionReport(tuple(out))
