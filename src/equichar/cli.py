"""Command line front end.

Exit codes: 0 when the requested computation or verification succeeds,
1 when a verification comes back false, 2 for unusable input, 3 when a
mathematical precondition fails.  With --json a single JSON document is
printed on stdout ("schema": "equichar/1"); keys are sorted, so output is
byte-identical across runs.  Diagnostics go to stderr.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii

from .errors import InputError, PreconditionError, ResourceLimitError
from .euler import (_format_terms, acyclicity_condition, euler_class,
                    euler_class_coefficient)
from .duality import (cohen_macaulay, double_along, duality_obstruction_scan,
                      flag_duality, graded_cohomology_profile)
from .exactlin import homology_mod_p, is_prime
from .jones import cyclic_extension, fixed_part, moore_complex, reduced_homology_of
from .permgrp import (Permutation, _cycle_names, _subgroup_name, all_subgroups,
                      conjugacy_classes_of_subgroups, group_from_generators,
                      is_p_group)
from .posets import (FILTERS, quillen_thevenaz_check, subgroup_poset,
                     weyl_poset_check)
from .simp import GroupAction, SimplicialComplex, find_full_subcomplex_isomorphic

SCHEMA = "equichar/1"


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON in %s: %s" % (path, exc))


def _list(values, what):
    if not isinstance(values, list):
        raise InputError("%s must be a list" % what)
    return values


def _names(values, what):
    return [str(v) for v in _list(values, what)]


def load_complex(path):
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError("complex file must hold a JSON object")
    if "vertices" not in doc:
        raise InputError("complex file needs a vertices list")
    vertices = _names(doc["vertices"], "vertices")
    has_max = "maximal_simplices" in doc
    has_graph = "graph_edges" in doc
    if has_max == has_graph:
        raise InputError("complex file needs exactly one of maximal_simplices "
                         "or graph_edges")
    if has_graph:
        if doc.get("flag") is not True:
            raise InputError("graph input requires \"flag\": true")
        edges = [_names(e, "edge") for e in _list(doc["graph_edges"], "graph_edges")]
        return SimplicialComplex.flag_from_graph(vertices, edges)
    if doc.get("flag"):
        raise InputError("flag mode applies to graph input only")
    facets = [_names(s, "simplex")
              for s in _list(doc["maximal_simplices"], "maximal_simplices")]
    return SimplicialComplex.from_maximal_simplices(vertices, facets)


def load_group(path, complex=None):
    """Group from generator cycle strings.

    With a companion complex the points are its vertices; otherwise the
    points are those named by the cycles.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError("group file must hold a JSON object")
    gens_text = doc.get("generators")
    if not isinstance(gens_text, list) or not all(isinstance(s, str) for s in gens_text):
        raise InputError("group file needs a list of generator strings")
    if complex is not None:
        points = complex.vertices
    else:
        points = {name for text in gens_text for names in _cycle_names(text)
                  for name in names}
        if not points:
            raise InputError("cannot infer points from identity-only generators")
    gens = [Permutation.from_cycles(points, text) for text in gens_text]
    group = group_from_generators(points, gens)
    p = doc.get("p")
    if p is not None:
        if not isinstance(p, int):
            raise InputError("expected prime p must be an integer")
        if not is_p_group(group, p):
            raise InputError("group of order %d is not a %d-group as declared"
                             % (group.order, p))
    return group


def _group_arg(args):
    """The --group file, on the vertices of --complex when one is given."""
    return load_group(args.group,
                      complex=load_complex(args.complex) if args.complex else None)


def build_action(complex_path, group_path):
    x = load_complex(complex_path)
    g = load_group(group_path, complex=x)
    return GroupAction(x, g)


def _frac(value):
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator}


def _subgroup_doc(h):
    return {"order": h.order,
            "generators": [str(g) for g in h.generating_set()]}


def _group_doc(g):
    return {"betti": g.betti, "torsion": list(g.torsion)}


def _homology_doc(table):
    return {str(d): _group_doc(g)
            for d, g in sorted(table.items()) if not g.is_trivial}


def _json_text(doc):
    """json.dumps(doc, sort_keys=True, indent=2), byte for byte, for the
    documents the commands build: str-keyed dicts, lists, tuples, str,
    int, bool and None; anything else is a TypeError.  json.dumps encodes
    in pure Python whenever it indents, through machinery these documents
    do not need; this writer appends the pieces to one list."""
    out = []
    write = out.append

    def dump(value, newline):
        # newline is the line break and indent of value's own level
        if isinstance(value, str):
            write(encode_basestring_ascii(value))
        elif value is None:
            write("null")
        elif value is True:
            write("true")
        elif value is False:
            write("false")
        elif isinstance(value, int):
            write(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                write("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError("JSON object keys must be str, not %s"
                                    % type(key).__name__)
                write(sep)
                write(encode_basestring_ascii(key))
                write(": ")
                dump(value[key], inner)
                sep = "," + inner
            write(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                write("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                write(sep)
                dump(item, inner)
                sep = "," + inner
            write(newline + "]")
        else:
            raise TypeError("Object of type %s is not JSON serializable"
                            % type(value).__name__)
    dump(doc, "\n")
    return "".join(out)


def _emit(args, doc, text_lines):
    if args.json:
        doc = dict(doc)
        doc["schema"] = SCHEMA
        print(_json_text(doc))
    else:
        for line in text_lines:
            print(line)


def cmd_subgroups(args):
    g = _group_arg(args)
    classes = conjugacy_classes_of_subgroups(g)
    subs = all_subgroups(g)
    reps = [dict(_subgroup_doc(c.rep), size=c.size) for c in classes]
    doc = {"command": "subgroups", "ok": True, "order": g.order,
           "subgroup_count": len(subs), "classes": reps}
    lines = ["group order %d: %d subgroups in %d conjugacy classes"
             % (g.order, len(subs), len(classes))]
    for rep in reps:
        lines.append("  order %d  size %d  rep %s" % (
            rep["order"], rep["size"], _subgroup_name(rep["generators"])))
    _emit(args, doc, lines)
    return 0


def cmd_poset_euler(args):
    g = _group_arg(args)
    poset = subgroup_poset(g, args.filter)
    value = poset.augmented_euler()
    doc = {"command": "poset-euler", "ok": True, "filter": args.filter,
           "elements": len(poset), "augmented_euler": value}
    _emit(args, doc, ["augmented Euler characteristic of the %s poset: %d "
                      "(%d elements)" % (args.filter, value, len(poset))])
    return 0


def cmd_quillen_check(args):
    g = _group_arg(args)
    report = quillen_thevenaz_check(g)
    doc = {"command": "quillen-check", "ok": report.equal,
           "nilpotent": {"size": report.left_size,
                         "homology": _homology_doc(report.left_homology)},
           "elementary_abelian": {"size": report.right_size,
                                  "homology": _homology_doc(report.right_homology)}}
    verdict = "match" if report.equal else "MISMATCH"
    _emit(args, doc, ["nilpotent poset: %d elements" % report.left_size,
                      "elementary abelian poset: %d elements" % report.right_size,
                      "reduced homology comparison: %s" % verdict])
    return 0 if report.equal else 1


def cmd_weyl_check(args):
    g = _group_arg(args)
    checks = []
    for cls in conjugacy_classes_of_subgroups(g):
        checks.append(weyl_poset_check(g, cls.rep))
    all_equal = all(c.comparison.equal for c in checks)
    docs = [{"subgroup": _subgroup_doc(c.subgroup),
             "equal": c.comparison.equal,
             "above_homology": _homology_doc(c.comparison.left_homology),
             "weyl_homology": _homology_doc(c.comparison.right_homology)}
            for c in checks]
    doc = {"command": "weyl-check", "ok": all_equal, "checks": docs}
    lines = []
    for c in docs:
        lines.append("H = %-28s %s" % (
            _subgroup_name(c["subgroup"]["generators"]),
            "match" if c["equal"] else "MISMATCH"))
    lines.append("all classes: %s" % ("match" if all_equal else "MISMATCH"))
    _emit(args, doc, lines)
    return 0 if all_equal else 1


def cmd_euler_class(args):
    action = build_action(args.complex, args.group)
    entries = euler_class(action).entries()
    classes = [dict(_subgroup_doc(h), coefficient=_frac(c)) for h, c in entries]
    text = _format_terms([(c, _subgroup_name(d["generators"]))
                         for (_, c), d in zip(entries, classes)])
    doc = {"command": "euler-class", "ok": True, "classes": classes, "text": text}
    _emit(args, doc, [text])
    return 0


def cmd_euler_free_coeff(args):
    action = build_action(args.complex, args.group)
    coeff = euler_class_coefficient(action, action.group.trivial_subgroup())
    doc = {"command": "euler-free-coeff", "ok": True, "coefficient": _frac(coeff)}
    _emit(args, doc, [str(coeff)])
    return 0


def cmd_acyclicity_check(args):
    action = build_action(args.complex, args.group)
    report = acyclicity_condition(action, force=args.force)
    doc = {"command": "acyclicity-check", "ok": report.holds,
           "scope": report.scope, "uncovered": list(report.uncovered)}
    if report.holds:
        lines = ["criterion holds (%s scope): every vertex is fixed by a "
                 "nontrivial proper subgroup" % report.scope]
    else:
        lines = ["criterion fails (%s scope); uncovered vertices: %s"
                 % (report.scope, ", ".join(report.uncovered))]
    _emit(args, doc, lines)
    return 0 if report.holds else 1


def cmd_cm_check(args):
    x = load_complex(args.complex)
    report = cohen_macaulay(x)
    doc = {"command": "cm-check", "ok": report.is_cm,
           "dimension": report.dimension,
           "failures": [dict(_group_doc(g), simplex=list(s), degree=d)
                        for s, d, g in report.failures]}
    lines = ["dimension %d: %s" % (report.dimension,
                                   "Cohen-Macaulay" if report.is_cm else "NOT Cohen-Macaulay")]
    for s, d, g in report.failures:
        lines.append("  link of %s has %s in degree %d (top degree is %d)"
                     % ("{%s}" % ",".join(s) if s else "the empty simplex",
                        g, d, report.dimension - len(s)))
    _emit(args, doc, lines)
    return 0 if report.is_cm else 1


def cmd_duality_report(args):
    x = load_complex(args.complex)
    verdict = flag_duality(x)
    profile = graded_cohomology_profile(x, max_degree=args.max_degree)
    doc = {"command": "duality-report", "ok": verdict.is_duality,
           "dimension": verdict.cm.dimension,
           "profile": {str(k): [dict(_group_doc(g), simplex=list(s))
                                for s, g in row]
                       for k, row in profile.entries.items()},
           "all_torsion_free": profile.all_torsion_free}
    lines = ["duality group: %s" % ("yes" if verdict.is_duality else "no")]
    for k in profile.degrees_with_entries():
        row = profile.entries[k]
        lines.append("  degree %d: %d contribution(s)" % (k, len(row)))
        for s, g in row:
            lines.append("    {%s}: %s" % (",".join(s) if s else "", g))
    ok = verdict.is_duality
    if args.group:
        scan = duality_obstruction_scan(GroupAction(x, load_group(args.group, complex=x)))
        doc["obstructions"] = docs = [
            {"subgroup": _subgroup_doc(c.subgroup), "obstructed": c.obstructed,
             "note": c.note} for c in scan.classes]
        doc["ok"] = ok = ok and not scan.any_obstruction
        for c in docs:
            lines.append("class %-28s %s" % (
                _subgroup_name(c["subgroup"]["generators"]),
                "OBSTRUCTED" if c["obstructed"] else "passes"))
        lines.append("obstruction scan: %s" % (
            "obstruction found" if scan.any_obstruction
            else "no obstruction found (not a duality proof)"))
    _emit(args, doc, lines)
    return 0 if ok else 1


def cmd_double(args):
    host = load_complex(args.complex)
    if args.subdivide:
        host = host.barycentric_subdivision()
    pattern = load_complex(args.pattern)
    embedding = find_full_subcomplex_isomorphic(host, pattern)
    if embedding is None:
        doc = {"command": "double", "ok": False}
        _emit(args, doc, ["no full copy of the pattern found in the host"])
        return 1
    image = embedding.image_complex()
    if len(image.vertices) == len(host.vertices):
        raise PreconditionError("pattern covers the whole host; the swap is "
                                "trivial")
    doubled, action = double_along(host, image.vertices)
    gen = action.group.generators[0]
    doc = {"command": "double", "ok": True,
           "embedding": {k: embedding.mapping[k] for k in sorted(embedding.mapping)},
           "complex": {"name": "doubled", "vertices": list(doubled.vertices),
                       "maximal_simplices": _maximal_simplices(doubled)},
           "swap": {"generators": [str(gen)]},
           "admissible": action.is_admissible(),
           "fixed_equals_pattern_image":
               action.fixed_subcomplex(action.group.whole()) == image}
    lines = ["embedded pattern at: %s" % ", ".join(
        "%s->%s" % (k, embedding.mapping[k]) for k in sorted(embedding.mapping)),
        "doubled complex: %d vertices, %d simplices"
        % (len(doubled.vertices), len(doubled.simplices)),
        "swap generator: %s" % gen]
    _emit(args, doc, lines)
    return 0


def _maximal_simplices(x):
    """Simplices that are no other simplex's codimension-1 face."""
    faces = {f for s in x.simplices for f in combinations(s, len(s) - 1)}
    return [list(s) for s in sorted(x.simplices - faces)]


def cmd_jones_verify(args):
    result = cyclic_extension(args.m, args.q, args.p)
    fixed = fixed_part(result.equivariant)
    moore = moore_complex(args.m, args.q)
    fixed_ok = fixed == moore
    fixed_hom = reduced_homology_of(fixed)
    mod_q = None
    expect_mod_q = None
    if is_prime(args.q):
        mod_q = homology_mod_p(fixed, args.q).get(args.m, 0)
        expect_mod_q = mod_q > 0
    verified = result.acyclic and fixed_ok and (expect_mod_q is None or expect_mod_q)
    doc = {"command": "jones-verify", "ok": verified,
           "m": args.m, "q": args.q, "p": args.p,
           "acyclic": result.acyclic,
           "fixed_part_is_moore": fixed_ok,
           "fixed_homology": _homology_doc(fixed_hom),
           "witness": _homology_doc(result.witness)}
    if mod_q is not None:
        doc["fixed_mod_q_dim_in_degree_m"] = mod_q
    lines = ["extension for (m=%d, q=%d, p=%d)" % (args.m, args.q, args.p),
             "  acyclic over Z: %s" % result.acyclic,
             "  fixed part equals the Moore complex: %s" % fixed_ok]
    if mod_q is not None:
        lines.append("  fixed part mod-%d dimension in degree %d: %d"
                     % (args.q, args.m, mod_q))
    if not result.acyclic:
        lines.append("  homology witness: %s" % result.witness)
    _emit(args, doc, lines)
    return 0 if verified else 1


@functools.cache
def _parser():
    """The one parser of the process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="equichar",
        description="Exact invariants of finite group actions on flag complexes")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, complex=False, group=False, pattern=False, optional_complex=False):
        p = sub.add_parser(name)
        if complex:
            p.add_argument("--complex", required=True)
        elif optional_complex:
            p.add_argument("--complex")
        if group:
            p.add_argument("--group", required=True)
        if pattern:
            p.add_argument("--pattern", required=True)
        return p

    add("subgroups", group=True, optional_complex=True)
    p = add("poset-euler", group=True, optional_complex=True)
    p.add_argument("--filter", default="nontrivial", choices=FILTERS)
    add("quillen-check", group=True, optional_complex=True)
    add("weyl-check", group=True, optional_complex=True)
    add("euler-class", complex=True, group=True)
    add("euler-free-coeff", complex=True, group=True)
    p = add("acyclicity-check", complex=True, group=True)
    p.add_argument("--force", action="store_true",
                   help="accept any p-group (remark scope), not just rank 2")
    add("cm-check", complex=True)
    p = add("duality-report", complex=True)
    p.add_argument("--group", help="scan fixed complexes of this action for "
                   "Cohen-Macaulay failures")
    p.add_argument("--max-degree", type=int, default=None)
    p = add("double", complex=True, pattern=True)
    p.add_argument("--subdivide", action="store_true",
                   help="barycentrically subdivide the host before searching")
    p = add("jones-verify")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    # the command is looked up when it runs, not stored in the parser, so
    # the parser kept across calls holds no function objects
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (InputError, ResourceLimitError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
