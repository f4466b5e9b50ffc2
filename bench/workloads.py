"""The three benchmark workloads: query lists, inputs and answer checks.

A workload is a list of queries run as one closed loop (one client, one
process, no threads).  Each query has three parts:

* ``prepare(rng)`` builds the query's input text with fresh seed-drawn names
  (and writes files for CLI queries).  It is benchmark work and not timed.
* ``run(payload)`` is the timed call into equichar's public API.  It builds
  groups from generator text and complexes from vertex and edge lists (or
  lets ``cli.main`` read the files), so nothing carries over between
  queries except what the library itself keeps.
* ``summarize(result)`` turns the result into a label-free answer, which
  ``check`` compares with the expected answer.  A check never depends on
  the seed's names, so it holds for seeds never run before.

Some homology checks compare answers of several queries on one input
(Euler-Poincare, universal coefficients); ``Workload.cross_check`` runs them
after each pass.
"""

import collections
import contextlib
import io
import json
import os
import re

import inputs

FILTERS = ("nontrivial", "nilpotent", "elementary-abelian", "proper-nontrivial")


class Query:
    __slots__ = ("qid", "prepare", "run", "summarize", "expected", "source")

    def __init__(self, qid, prepare, run, summarize, expected=None, source=None):
        self.qid = qid
        self.prepare = prepare
        self.run = run
        self.summarize = summarize
        self.expected = expected
        self.source = source  # input id for cross-query checks


class Workload:
    def __init__(self, name, queries, cross_check=None):
        self.name = name
        self.queries = queries
        self.cross_check = cross_check


def _canon(value):
    """JSON round trip, so tuples and lists compare alike."""
    return json.loads(json.dumps(value))


def check(query, answer):
    return query.expected is None or _canon(answer) == _canon(query.expected)


# ================================================================ lattice

# name: generator cycles on points 1..n
GROUPS = {
    "C2xC2": ("(1 2)", "(3 4)"),
    "S3": ("(1 2)", "(1 2 3)"),
    "C3xC3": ("(1 2 3)", "(4 5 6)"),
    "D8": ("(1 2 3 4)", "(1 3)"),
    "C4xC2": ("(1 2 3 4)", "(5 6)"),
    "Q8": ("(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"),
    "C2^3": ("(1 2)", "(3 4)", "(5 6)"),
    "C4xC4": ("(1 2 3 4)", "(5 6 7 8)"),
    "S4": ("(1 2)", "(1 2 3 4)"),
    "D8xC2": ("(1 2 3 4)", "(1 3)", "(5 6)"),
    "S3xS3": ("(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"),
}

# Label-free answers per isomorphism type: subgroup count, class count,
# augmented Euler characteristics of the four posets (in FILTERS order),
# and the Quillen-Thevenaz comparison (equal, nilpotent size, e.a. size).
LATTICE_TABLE = {
    "C2xC2": (5, 5, (0, 0, 0, 2), (True, 4, 4)),
    "S3": (6, 4, (0, 3, 3, 3), (True, 4, 4)),
    "C3xC3": (6, 6, (0, 0, 0, 3), (True, 5, 5)),
    "D8": (10, 8, (0, 0, 0, 0), (True, 9, 7)),
    "C4xC2": (8, 8, (0, 0, 0, 0), (True, 7, 4)),
    "Q8": (6, 6, (0, 0, 0, 0), (True, 5, 1)),
    "C2^3": (16, 16, (0, 0, 0, -8), (True, 15, 15)),
    "C4xC4": (15, 15, (0, 0, 0, 0), (True, 14, 4)),
    "S4": (30, 11, (0, 4, 4, -12), (True, 23, 17)),
    "D8xC2": (35, 27, (0, 0, 0, 0), (True, 34, 26)),
    "S3xS3": (60, 22, (0, -9, -9, 18), (True, 35, 35)),
}

# Which queries each group gets.  The weyl query (p-groups only) compares
# the poset above every class representative with its Weyl quotient.
LATTICE_PLAN = {
    "C2xC2": ("subgroups", "classes", "poset_euler", "quillen", "weyl"),
    "S3": ("subgroups", "classes", "poset_euler", "quillen"),
    "C3xC3": ("subgroups", "classes", "poset_euler", "quillen", "weyl"),
    "D8": ("subgroups", "classes", "poset_euler", "quillen", "weyl"),
    "C4xC2": ("subgroups", "classes", "poset_euler", "quillen", "weyl"),
    "Q8": ("subgroups", "classes", "poset_euler", "quillen", "weyl"),
    "C2^3": ("subgroups", "classes", "poset_euler", "quillen", "weyl"),
    "C4xC4": ("subgroups", "classes", "poset_euler", "quillen"),
    "S4": ("subgroups", "classes", "poset_euler", "quillen"),
    "D8xC2": ("subgroups", "classes", "poset_euler", "quillen"),
    "S3xS3": ("subgroups",),
    # the Sylow 2-subgroup of the octahedral group on the 26 vertices of
    # bary(octahedron), isomorphic to D8xC2
    "D8xC2@bary": ("subgroups",),
}

LATTICE_SMOKE = ("C2xC2", "S3", "D8", "Q8")

_POINT = re.compile(r"[^\s(),]+")


def _relabelled_group(texts):
    """prepare() for a group given by cycles on points 1..n."""
    def prepare(rng):
        points = sorted({p for t in texts for p in _POINT.findall(t)}, key=int)
        names = dict(zip(points, inputs.fresh_names(rng, len(points))))
        return ([names[p] for p in points],
                [_POINT.sub(lambda m: names[m.group(0)], t) for t in texts])
    return prepare


def _bary_group(rng):
    """prepare() for the Sylow 2-subgroup acting on bary(octahedron)."""
    bary = inputs.cross(3).subdivided(1)
    gens = [{v: inputs.induced(g, v, 1) for v in bary.verts}
            for g in inputs.sylow2_octahedral()]
    names = inputs.relabel_map(rng, bary.verts)
    return ([names[v] for v in bary.verts],
            [inputs.cycle_text(g, names) for g in gens])


def _build_group(payload):
    from equichar import Permutation, group_from_generators
    points, texts = payload
    return group_from_generators(
        points, [Permutation.from_cycles(points, t) for t in texts])


def _q_subgroups(payload):
    from equichar import all_subgroups
    return all_subgroups(_build_group(payload))


def _q_classes(payload):
    from equichar import conjugacy_classes_of_subgroups
    return conjugacy_classes_of_subgroups(_build_group(payload))


def _q_poset_euler(payload):
    from equichar import subgroup_poset
    g = _build_group(payload)
    return tuple(subgroup_poset(g, f).augmented_euler() for f in FILTERS)


def _q_quillen(payload):
    from equichar import quillen_thevenaz_check
    return quillen_thevenaz_check(_build_group(payload))


def _q_weyl(payload):
    from equichar import conjugacy_classes_of_subgroups, weyl_poset_check
    g = _build_group(payload)
    return [weyl_poset_check(g, c.rep)
            for c in conjugacy_classes_of_subgroups(g)]


LATTICE_QUERIES = {
    "subgroups": (_q_subgroups, len),
    "classes": (_q_classes,
                lambda cs: (len(cs), sum(len(c.members) for c in cs))),
    "poset_euler": (_q_poset_euler, list),
    "quillen": (_q_quillen,
                lambda r: (r.equal, r.left_size, r.right_size)),
    "weyl": (_q_weyl,
             lambda rs: (len(rs), all(r.comparison.equal for r in rs))),
}


def _lattice_expected(iso, kind):
    subs, classes, euler, quillen = LATTICE_TABLE[iso]
    return {"subgroups": subs, "classes": (classes, subs),
            "poset_euler": euler, "quillen": quillen,
            "weyl": (classes, True)}[kind]


def lattice(smoke=False):
    queries = []
    for name, kinds in LATTICE_PLAN.items():
        if smoke and name not in LATTICE_SMOKE:
            continue
        if name == "D8xC2@bary":
            prepare, iso = _bary_group, "D8xC2"
        else:
            prepare, iso = _relabelled_group(GROUPS[name]), name
        for kind in kinds:
            run, summarize = LATTICE_QUERIES[kind]
            queries.append(Query("%s/%s" % (name, kind), prepare, run,
                                 summarize, _lattice_expected(iso, kind)))
    return Workload("lattice", queries)


# ================================================================ homology

# Seeded flag complexes: (n, edge density, target simplex count, count).
# The target is near the median G(n, m) clique total; inputs.steady_graph
# redraws until a graph's total is within FLAG_TOLERANCE of it.
FLAG_SPECS = ((22, 0.55, 640, 2), (40, 0.25, 410, 2), (30, 0.35, 400, 2),
              (20, 0.5, 330, 2))
FLAG_SPECS_SMOKE = ((12, 0.5, 60, 2),)
FLAG_TOLERANCE = 0.03
MOORE_PARAMS = ((1, 2, 3), (2, 3, 8), (3, 4, 15), (2, 9, 20))



def _homology_doc(table):
    return {str(d): [g.betti, list(g.torsion)]
            for d, g in sorted(table.items()) if not g.is_trivial}


def _mod_p_doc(table):
    return {str(d): v for d, v in sorted(table.items()) if v}


def _invariant(x, kind):
    if kind == "Z":
        return _homology_doc(x.reduced_homology())
    if kind == "coh":
        return _homology_doc(x.reduced_cohomology())
    return _mod_p_doc(x.reduced_homology_mod_p(int(kind[2:])))


def _flag_input(n, edges):
    def prepare(rng):
        names = inputs.fresh_names(rng, n)
        return names, [(names[a], names[b]) for a, b in edges]
    return prepare


def _flag_run(kind):
    def run(payload):
        from equichar import SimplicialComplex
        verts, edges = payload
        return _invariant(SimplicialComplex.flag_from_graph(verts, edges), kind)
    return run


def _bary2_input(base):
    """prepare() for a base complex given by its facets, subdivided twice."""
    maximal = sorted((s for s in base.simplices
                      if not any(s < t for t in base.simplices)),
                     key=inputs.canonical)

    def prepare(rng):
        names = inputs.relabel_map(rng, base.verts)
        return ([names[v] for v in base.verts],
                [[names[v] for v in s] for s in maximal])
    return prepare


def _bary2_run(kind):
    def run(payload):
        from equichar import SimplicialComplex
        verts, facets = payload
        x = SimplicialComplex.from_maximal_simplices(verts, facets)
        x = x.barycentric_subdivision().barycentric_subdivision()
        return _invariant(x, kind)
    return run


def _known_homology(kind, degree, group):
    """Expected answer for a complex whose only reduced homology is
    Z^betti + torsion in one degree."""
    betti, torsion = group
    if kind == "Z":
        return {str(degree): [betti, list(torsion)]}
    if kind == "coh":
        out = {}
        if betti:
            out[str(degree)] = [betti, []]
        if torsion:
            out[str(degree + 1)] = [0, list(torsion)]
        return out
    p = int(kind[2:])
    tp = sum(1 for t in torsion if t % p == 0)
    out = {str(degree): betti + tp}
    if tp:
        out[str(degree + 1)] = tp
    return {d: v for d, v in out.items() if v}


def _moore_run(kind, m, q, p):
    def run(payload):
        from equichar import (cyclic_extension, fixed_part,
                              reduced_homology_of, verify_acyclic)
        ext = cyclic_extension(m, q, p)
        if kind == "extend":
            return [ext.acyclic, _homology_doc(ext.witness)]
        if kind == "verify":
            return verify_acyclic(ext.equivariant)
        return _homology_doc(reduced_homology_of(fixed_part(ext.equivariant)))
    return run


def _no_input(rng):
    return None


def _same(answer):
    return answer


def homology(smoke=False, rng=None):
    """rng draws the flag complexes (once per run)."""
    queries = []
    sources = {}
    # (name, base complex, its only reduced homology, invariants asked)
    bases = [] if smoke else [
        ("oct", inputs.cross(3), (2, (1, ())), ("Z", "GF3")),
        ("rp2", inputs.base_rp2(), (1, (0, (2,))), ("coh", "GF2"))]
    for name, base, (degree, group), kinds in bases:
        sub = base.subdivided(2)
        sources[name] = sub.f_vector()
        for kind in kinds:
            queries.append(Query(
                "bary2_%s/%s" % (name, kind), _bary2_input(base),
                _bary2_run(kind), _same,
                _known_homology(kind, degree, group), source=name))
    specs = FLAG_SPECS_SMOKE if smoke else FLAG_SPECS
    k = 0
    for n, p, target, count in specs:
        for _ in range(count):
            edges, f = inputs.steady_graph(rng, n, p, target, FLAG_TOLERANCE)
            name = "flag%d" % k
            k += 1
            sources[name] = f
            kinds = ("Z", "GF2") if k % 2 else ("Z", "GF3")
            for kind in kinds:
                queries.append(Query("%s_n%d/%s" % (name, n, kind),
                                     _flag_input(n, edges), _flag_run(kind),
                                     _same, source=name))
    for m, q, p in MOORE_PARAMS[:1] if smoke else MOORE_PARAMS:
        tag = "moore_m%d_q%d_p%d" % (m, q, p)
        queries.append(Query(tag + "/extend", _no_input,
                             _moore_run("extend", m, q, p), _same, [True, {}]))
        queries.append(Query(tag + "/verify", _no_input,
                             _moore_run("verify", m, q, p), _same, True))
        queries.append(Query(tag + "/fixed", _no_input,
                             _moore_run("fixed", m, q, p), _same,
                             {str(m): [0, [q]]}))
    return Workload("homology", queries,
                    cross_check=lambda answers: _homology_cross(sources, answers))


def _reduced_euler(f):
    return -1 + sum((-1) ** i * c for i, c in enumerate(f))


def _homology_cross(sources, answers):
    """qids failing the Euler-Poincare or universal-coefficient checks.

    answers maps qid -> (source, answer) for this pass.
    """
    by_source = {}
    for qid, (source, answer) in answers.items():
        if source is not None:
            by_source.setdefault(source, {})[qid.rsplit("/", 1)[1]] = (qid, answer)
    bad = set()
    for source, got in by_source.items():
        chi = _reduced_euler(sources[source])
        for kind, (qid, ans) in got.items():
            if kind in ("Z", "coh"):
                euler = sum((-1) ** int(d) * b for d, (b, _) in ans.items())
            else:
                euler = sum((-1) ** int(d) * v for d, v in ans.items())
            if euler != chi:
                bad.add(qid)
        if "Z" in got:
            zq, z = got["Z"]
            if "coh" in got:
                cq, coh = got["coh"]
                if _coh_from_hom(z) != _canon(coh):
                    bad.update((zq, cq))
        elif "coh" in got:
            zq, coh = got["coh"]
            z = _hom_from_coh(coh)
        else:
            continue
        for p in (2, 3):
            if "GF%d" % p in got:
                gq, gf = got["GF%d" % p]
                if _mod_p_from_hom(z, p) != _canon(gf):
                    bad.update((zq, gq))
    return bad


def _coh_from_hom(z):
    """Cohomology by universal coefficients: free part in the same degree,
    torsion shifted up by one."""
    out = {}
    for d, (betti, torsion) in z.items():
        if betti:
            out.setdefault(str(int(d)), [0, []])[0] = betti
        if torsion:
            out.setdefault(str(int(d) + 1), [0, []])[1] = list(torsion)
    return out


def _hom_from_coh(coh):
    """Homology from cohomology: torsion shifted down by one."""
    out = {}
    for d, (betti, torsion) in coh.items():
        if betti:
            out.setdefault(str(int(d)), [0, []])[0] = betti
        if torsion:
            out.setdefault(str(int(d) - 1), [0, []])[1] = list(torsion)
    return out


def _mod_p_from_hom(z, p):
    out = {}
    for d, (betti, torsion) in z.items():
        tp = sum(1 for t in torsion if t % p == 0)
        for deg, v in ((int(d), betti + tp), (int(d) + 1, tp)):
            if v:
                out[str(deg)] = out.get(str(deg), 0) + v
    return out


# ================================================================ cli_mix

# README sample invocations on the bundled data/ files, each run as
# written and with --json; stdout and exit code are compared byte for byte
# with goldens.json.
README_INVOCATIONS = (
    ("euler-class", "--complex", "data/star.json", "--group", "data/c2swap.json"),
    ("euler-free-coeff", "--complex", "data/star.json", "--group", "data/c2swap.json"),
    ("cm-check", "--complex", "data/T.json"),
    ("acyclicity-check", "--complex", "data/artinL.json", "--group", "data/k1.json"),
    ("acyclicity-check", "--complex", "data/artinL.json", "--group", "data/k2.json"),
    ("subgroups", "--group", "data/d8.json"),
    ("poset-euler", "--group", "data/k1.json", "--filter", "proper-nontrivial"),
    ("quillen-check", "--group", "data/s4.json"),
    ("weyl-check", "--group", "data/d8.json"),
    ("duality-report", "--complex", "data/octahedron.json"),
    ("duality-report", "--complex", "data/artinL.json", "--group", "data/k2.json"),
    ("--json", "double", "--complex", "data/tetra_boundary.json", "--subdivide",
     "--pattern", "data/T.json"),
    ("jones-verify", "--m", "1", "--q", "2", "--p", "3"),
)
README_SAMPLES = README_INVOCATIONS + tuple(
    ("--json",) + argv for argv in README_INVOCATIONS if argv[0] != "--json")
README_SMOKE = (0, 2, 5, 11, 13)

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def readme_key(argv):
    return " ".join(argv)


CliResult = collections.namedtuple("CliResult", "exit stdout")


def cli_call(argv):
    from equichar import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue())


def _histogram(rows):
    """Sorted [row..., count] list of a multiset of rows."""
    counts = collections.Counter(tuple(r) for r in rows)
    return [list(r) + [n] for r, n in sorted(counts.items())]


def _summ_euler_class(doc):
    return _histogram((c["order"], c["coefficient"]["num"],
                       c["coefficient"]["den"]) for c in doc["classes"])


def _summ_free(doc):
    return [doc["coefficient"]["num"], doc["coefficient"]["den"]]


def _summ_acyclicity(doc):
    return [doc["ok"], doc["scope"], len(doc["uncovered"])]


def _summ_subgroups(doc):
    return [doc["order"], doc["subgroup_count"],
            _histogram((c["order"], c["size"]) for c in doc["classes"])]


def _summ_cm(doc):
    return [doc["ok"], doc["dimension"],
            _histogram((len(f["simplex"]), f["degree"], f["betti"],
                        tuple(f["torsion"])) for f in doc["failures"])]


def _summ_duality(doc):
    return [doc["ok"], doc["dimension"], doc["all_torsion_free"],
            {k: len(row) for k, row in doc["profile"].items()},
            _histogram((o["subgroup"]["order"], o["obstructed"])
                       for o in doc.get("obstructions", []))]


def _summ_double(doc):
    return [doc["ok"], len(doc["complex"]["vertices"]),
            len(doc["complex"]["maximal_simplices"]), doc["admissible"],
            doc["fixed_equals_pattern_image"]]


SCALED_COMMANDS = {
    "euler-class": ((), _summ_euler_class),
    "euler-free-coeff": ((), _summ_free),
    "acyclicity-check": (("--force",), _summ_acyclicity),
    "subgroups": ((), _summ_subgroups),
    "cm-check": ((), _summ_cm),
    "duality-report": ((), _summ_duality),
}

# (input, command) pairs of the scaled queries.  b1/b2: the Sylow
# 2-subgroup of the octahedral group on bary^1/bary^2 of the octahedron;
# x3/x4: sign flips on the 3- and 4-dimensional cross-polytopes.
SCALED_PLAN = (
    ("b1", "euler-class"), ("b1", "euler-free-coeff"),
    ("b1", "acyclicity-check"), ("b1", "cm-check"),
    ("b1", "duality-report"),
    ("x3", "euler-class"), ("x3", "euler-free-coeff"),
    ("x3", "acyclicity-check"), ("x3", "subgroups"), ("x3", "cm-check"),
    ("x3", "duality-report"),
    ("x4", "cm-check"), ("b2", "cm-check"),
)
SCALED_SMOKE = (("x3", "euler-class"), ("x3", "cm-check"),
                ("x3", "duality-report"))

# Label-free expected answers: [exit code, summary].
SCALED_EXPECTED = {
    ("b1", "acyclicity-check"): [0, [True, "remark", 0]],
    ("b1", "cm-check"): [0, [True, 2, []]],
    ("b1", "duality-report"):
        [0, [True, 2, True, {"0": 0, "1": 0, "2": 0, "3": 147}, [[1, False, 1],
        [2, False, 7], [4, False, 11], [8, False, 7], [16, False, 1]]]],
    ("b1", "euler-class"):
        [0, [[1, -1, 1, 1], [2, 0, 1, 4], [2, 1, 1, 3], [4, -1, 1, 2], [4, 0,
        1, 9], [8, -1, 1, 1], [8, 0, 1, 6], [16, 1, 1, 1]]],
    ("b1", "euler-free-coeff"): [0, [-1, 1]],
    ("b1", "subgroups"):
        [0, [16, 35, [[1, 1, 1], [2, 1, 3], [2, 2, 4], [4, 1, 7], [4, 2, 4],
        [8, 1, 7], [16, 1, 1]]]],
    ("b2", "cm-check"): [0, [True, 2, []]],
    ("b2", "euler-free-coeff"): [0, [-1, 1]],
    ("oct", "double"): [0, [True, 47, 94, True, True]],
    ("x3", "acyclicity-check"): [0, [True, "remark", 0]],
    ("x3", "cm-check"): [0, [True, 2, []]],
    ("x3", "duality-report"):
        [0, [True, 2, True, {"0": 0, "1": 0, "2": 0, "3": 27}, [[1, False, 1],
        [2, False, 7], [4, False, 7], [8, False, 1]]]],
    ("x3", "euler-class"):
        [0, [[1, -1, 1, 1], [2, 0, 1, 4], [2, 1, 1, 3], [4, -1, 1, 3], [4, 0,
        1, 4], [8, 1, 1, 1]]],
    ("x3", "euler-free-coeff"): [0, [-1, 1]],
    ("x3", "subgroups"):
        [0, [8, 16, [[1, 1, 1], [2, 1, 7], [4, 1, 7], [8, 1, 1]]]],
    ("x4", "cm-check"): [0, [True, 3, []]],
    ("x4", "euler-free-coeff"): [0, [1, 1]],
}


def _action_input(tag):
    """The complex and generator images of a scaled equivariant input."""
    if tag in ("b1", "b2"):
        depth = int(tag[1])
        x = inputs.cross(3).subdivided(depth)
        gens = [{v: inputs.induced(g, v, depth) for v in x.verts}
                for g in inputs.sylow2_octahedral()]
        return x, gens
    n = int(tag[1])
    return inputs.cross(n), [inputs.sign_flip(n, i) for i in range(n)]


def _scaled_prepare(tmpdir, tag, command, x, gens):
    def prepare(rng):
        names = inputs.relabel_map(rng, x.verts)
        stem = "%s_%s" % (tag, command)
        cpath = inputs.write_json(tmpdir, stem + "_complex.json", x.graph_doc(names))
        gpath = inputs.write_json(tmpdir, stem + "_group.json", {
            "generators": [inputs.cycle_text(g, names) for g in gens], "p": 2})
        flags, _ = SCALED_COMMANDS[command]
        argv = ["--json", command] + list(flags) + ["--complex", cpath]
        if command != "cm-check":
            argv += ["--group", gpath]
        return argv
    return prepare


def _double_prepare(tmpdir, root):
    x = inputs.cross(3)

    def prepare(rng):
        names = inputs.relabel_map(rng, x.verts)
        path = inputs.write_json(tmpdir, "double_host.json", x.graph_doc(names))
        return ["--json", "double", "--subdivide", "--complex", path,
                "--pattern", os.path.join(root, "data", "T.json")]
    return prepare


def _json_summary(summarize):
    def summ(result):
        if not result.stdout:      # diagnostics went to stderr
            return [result.exit, None]
        return [result.exit, summarize(json.loads(result.stdout))]
    return summ


def cli_mix(tmpdir, root, smoke=False):
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    queries = []
    samples = [README_SAMPLES[i] for i in README_SMOKE] if smoke else README_SAMPLES
    for argv in samples:
        key = readme_key(argv)
        full = [a if not a.startswith("data/") else os.path.join(root, a)
                for a in argv]
        queries.append(Query("readme/" + key, lambda rng, full=full: full,
                             cli_call, list,
                             [goldens[key]["exit"], goldens[key]["stdout"]]))
    actions = {}
    for tag, command in SCALED_SMOKE if smoke else SCALED_PLAN:
        if tag not in actions:
            actions[tag] = _action_input(tag)
        x, gens = actions[tag]
        queries.append(Query("%s/%s" % (tag, command),
                             _scaled_prepare(tmpdir, tag, command, x, gens),
                             cli_call,
                             _json_summary(SCALED_COMMANDS[command][1]),
                             SCALED_EXPECTED[(tag, command)]))
    if not smoke:
        queries.append(Query("oct/double", _double_prepare(tmpdir, root),
                             cli_call, _json_summary(_summ_double),
                             SCALED_EXPECTED[("oct", "double")]))
    return Workload("cli_mix", queries)
