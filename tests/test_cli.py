"""Command line interface: documented invocations, exit codes, JSON output."""

import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import helpers
from equichar import SimplicialComplex, cli, permgrp
from equichar.cli import main
from equichar.posets import FILTERS

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data(name):
    return DATA / name


def test_euler_class_two_edges(capsys):
    code, out, _ = run(capsys, "euler-class", "--complex", data("star.json"),
                       "--group", data("c2swap.json"))
    assert code == 0
    assert out.strip() == "-1·[Γ/1] + 1·[Γ/⟨(1 3)(2 4)⟩]"


def test_euler_free_coeff_two_edges(capsys):
    code, out, _ = run(capsys, "euler-free-coeff", "--complex",
                       data("star.json"), "--group", data("c2swap.json"))
    assert code == 0
    assert out.strip() == "-1"


def test_cm_check_t_fails(capsys):
    code, out, _ = run(capsys, "cm-check", "--complex", data("T.json"))
    assert code == 1
    assert "NOT Cohen-Macaulay" in out
    assert "link of {u} has Z in degree 0" in out


def test_cm_check_octahedron_passes(capsys):
    code, out, _ = run(capsys, "cm-check", "--complex", data("octahedron.json"))
    assert code == 0
    assert "Cohen-Macaulay" in out


def test_acyclicity_check_k1_k2(capsys):
    code, out, _ = run(capsys, "acyclicity-check", "--complex",
                       data("artinL.json"), "--group", data("k1.json"))
    assert code == 0
    assert "criterion holds (theorem scope)" in out
    code, out, _ = run(capsys, "acyclicity-check", "--complex",
                       data("artinL.json"), "--group", data("k2.json"))
    assert code == 1
    assert "uncovered vertices: 1, 2, 3, 4" in out


def test_acyclicity_check_scope_exit_codes(capsys):
    code, _, err = run(capsys, "acyclicity-check", "--complex",
                       data("artinL.json"), "--group", data("c4.json"))
    assert code == 3
    assert "precondition failed" in err
    code, out, _ = run(capsys, "acyclicity-check", "--complex",
                       data("artinL.json"), "--group", data("c4.json"), "--force")
    assert code == 1
    assert "remark scope" in out


def test_subgroups_listing(capsys):
    code, out, _ = run(capsys, "subgroups", "--group", data("d8.json"))
    assert code == 0
    assert "group order 8: 10 subgroups in 8 conjugacy classes" in out


def test_poset_euler_klein(capsys):
    code, out, _ = run(capsys, "poset-euler", "--group", data("k1.json"),
                       "--filter", "proper-nontrivial")
    assert code == 0
    assert "proper-nontrivial poset: 2 (3 elements)" in out


def test_quillen_check(capsys):
    code, out, _ = run(capsys, "--json", "quillen-check", "--group",
                       data("s4.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["nilpotent"]["size"] == 23
    assert doc["elementary_abelian"]["size"] == 17


def test_weyl_check(capsys):
    code, out, _ = run(capsys, "weyl-check", "--group", data("d8.json"))
    assert code == 0
    assert "all classes: match" in out


def test_jones_verify(capsys):
    code, out, _ = run(capsys, "jones-verify", "--m", 1, "--q", 2, "--p", 3)
    assert code == 0
    assert "acyclic over Z: True" in out
    assert "mod-2 dimension in degree 1: 1" in out
    code, _, err = run(capsys, "jones-verify", "--m", 1, "--q", 2, "--p", 2)
    assert code == 3
    assert "gcd" in err


def test_jones_verify_bounds_the_group_order(capsys):
    # the p cells of an orbit are never made: refused at once, exit 2
    start = time.perf_counter()
    code, out, err = run(capsys, "jones-verify", "--m", 1, "--q", 2,
                         "--p", 1000000007)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == ("input error: group order p=1000000007 exceeds "
                   "max_order=20000\n")


def test_jones_verify_bounds_the_window(capsys):
    # the window boundary is never made: refused at once, exit 2
    start = time.perf_counter()
    code, out, err = run(capsys, "jones-verify", "--m", 1, "--q", 2001,
                         "--p", 2000)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == ("input error: window boundary of 4000000 entries exceeds "
                   "max_window_entries=1000000\n")


def test_jones_verify_composite_q_skips_mod_column(capsys):
    code, out, _ = run(capsys, "--json", "jones-verify",
                       "--m", 1, "--q", 4, "--p", 3)
    assert code == 0
    doc = json.loads(out)
    assert doc["acyclic"] is True
    assert "fixed_mod_q_dim_in_degree_m" not in doc


def test_duality_report(capsys):
    code, out, _ = run(capsys, "duality-report", "--complex",
                       data("octahedron.json"))
    assert code == 0
    assert "duality group: yes" in out
    code, out, _ = run(capsys, "duality-report", "--complex", data("T.json"))
    assert code == 1
    assert "duality group: no" in out


def test_duality_report_rejects_non_flag(capsys):
    code, _, err = run(capsys, "duality-report", "--complex",
                       data("tetra_boundary.json"))
    assert code == 3
    assert "not flag" in err


def test_duality_report_with_clean_scan(capsys):
    code, out, _ = run(capsys, "duality-report", "--complex",
                       data("artinL.json"), "--group", data("k2.json"))
    assert code == 0
    assert "no obstruction found (not a duality proof)" in out


def test_exit_2_unusable_input(capsys, tmp_path):
    code, _, err = run(capsys, "cm-check", "--complex", tmp_path / "nope.json")
    assert code == 2 and "input error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(capsys, "cm-check", "--complex", bad)[0] == 2
    neither = tmp_path / "neither.json"
    neither.write_text(json.dumps({"vertices": ["1"]}))
    assert run(capsys, "cm-check", "--complex", neither)[0] == 2
    both = tmp_path / "both.json"
    both.write_text(json.dumps({"vertices": ["1", "2"],
                                "maximal_simplices": [["1", "2"]],
                                "graph_edges": [["1", "2"]], "flag": True}))
    assert run(capsys, "cm-check", "--complex", both)[0] == 2
    unflagged = tmp_path / "unflagged.json"
    unflagged.write_text(json.dumps({"vertices": ["1", "2"],
                                     "graph_edges": [["1", "2"]]}))
    assert run(capsys, "cm-check", "--complex", unflagged)[0] == 2


def test_exit_2_complex_fields_not_lists(capsys, tmp_path):
    for field, extra in (("maximal_simplices", {}), ("graph_edges", {"flag": True})):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": ["a"], field: 5, **extra}))
        code, out, err = run(capsys, "cm-check", "--complex", bad)
        assert code == 2 and out == ""
        assert "%s must be a list" % field in err


def test_exit_2_bad_group_files(capsys, tmp_path):
    nolist = tmp_path / "nolist.json"
    nolist.write_text(json.dumps({"generators": "(1 2)"}))
    assert run(capsys, "subgroups", "--group", nolist)[0] == 2
    wrongp = tmp_path / "wrongp.json"
    wrongp.write_text(json.dumps({"generators": ["(1 2)"], "p": 3}))
    code, _, err = run(capsys, "subgroups", "--group", wrongp)
    assert code == 2 and "not a 3-group" in err


def test_group_file_cycles_separated_by_whitespace(capsys, tmp_path):
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps({"generators": ["(a b) (c d)", "(a c)(b d)"]}))
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps({"generators": ["(a b)(c d)", "(a c)(b d)"]}))
    code, out, err = run(capsys, "--json", "subgroups", "--group", spaced)
    assert (code, err) == (0, "")
    assert json.loads(out)["order"] == 4
    assert run(capsys, "--json", "subgroups", "--group", tight) == (0, out, "")


@pytest.mark.parametrize("command, doc, message", [
    ("cm-check", ["a"], "complex file must hold a JSON object"),
    ("cm-check", {"maximal_simplices": [["a"]]},
     "complex file needs a vertices list"),
    ("cm-check", {"vertices": ["a"], "maximal_simplices": [["a"]],
                  "flag": True}, "flag mode applies to graph input only"),
    ("subgroups", {"generators": ["()"]},
     "cannot infer points from identity-only generators"),
    ("subgroups", {"generators": ["(1 2)"], "p": "2"},
     "expected prime p must be an integer"),
    ("subgroups", ["(1 2)"], "group file must hold a JSON object"),
    ("subgroups", {"generators": ["((1 2))"]}, "unknown point '(1' in '((1 2))'"),
    ("subgroups", {"generators": ["(1 2)(3"]},
     "cycle notation must be parenthesized: '(1 2)(3'"),
])
def test_exit_2_malformed_files(capsys, tmp_path, command, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    flag = "--complex" if command == "cm-check" else "--group"
    assert run(capsys, command, flag, path) == (2, "", "input error: %s\n" % message)


def test_exit_2_non_simplicial_generators(capsys):
    code, _, err = run(capsys, "euler-class", "--complex", data("star.json"),
                       "--group", data("c2.json"))
    assert code == 2
    assert "breaks simplex" in err


def test_diagnostics_do_not_depend_on_hash_seed():
    # the broken simplex is the first in sorted order, not in set order
    argv = [sys.executable, "-m", "equichar.cli", "euler-class", "--complex",
            str(data("octahedron.json")), "--group", str(data("c2swap.json"))]
    errs = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 2
        errs.add(proc.stderr)
    assert len(errs) == 1
    assert "breaks simplex" in errs.pop()


def test_exit_3_non_admissible_action(capsys, tmp_path):
    # the witness is the first offending element in element order and the
    # least simplex it fixes setwise but not pointwise
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"vertices": ["1", "2"],
                                "maximal_simplices": [["1", "2"]]}))
    cases = ((edge, ["(1 2)"], "(1 2) fixes ('1', '2')"),
             (data("octahedron.json"), ["(1 6)", "(1 2)(5 6)", "(3 4)"],
              "(1 2)(5 6) fixes ('1', '2')"),
             (data("tetra_boundary.json"), ["(a b c)"],
              "(a b c) fixes ('a', 'b', 'c')"))
    for complex_path, gens, witness in cases:
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"generators": gens}))
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, *flags, "euler-class", "--complex",
                                 complex_path, "--group", group)
            assert (code, out) == (3, "")
            assert err == ("precondition failed: action is not admissible: "
                           "%s setwise but not pointwise\n" % witness)


def test_json_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "euler-class", "--complex",
                           data("star.json"), "--group", data("c2swap.json"))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["schema"] == "equichar/1"
    assert doc["classes"][0]["coefficient"] == {"num": -1, "den": 1}
    assert doc["classes"][1]["coefficient"] == {"num": 1, "den": 1}


def test_euler_class_renders_each_generator_once(capsys, monkeypatch, tmp_path):
    # the order-16 Sylow action on bary(octahedron): 27 classes, whose
    # representatives have 46 generators between them; the text line and
    # the JSON document share one rendering of each
    octa = helpers.octahedron()
    act = helpers.subdivided_action(
        octa, helpers.group_on(octa, "(1 6)", "(1 2)(5 6)", "(3 4)"))
    x = act.complex
    complex_path, group_path = tmp_path / "complex.json", tmp_path / "group.json"
    complex_path.write_text(json.dumps(
        {"vertices": list(x.vertices), "flag": True,
         "graph_edges": sorted(list(s) for s in x.simplices if len(s) == 2)}))
    group_path.write_text(json.dumps(
        {"p": 2, "generators": [str(act.images[g.key]) for g in act.group.generators]}))
    calls = []
    cycles = permgrp.Permutation.cycles
    monkeypatch.setattr(permgrp.Permutation, "cycles",
                        lambda self: calls.append(1) or cycles(self))
    outputs = []
    for mode in ((), ("--json",)):
        calls.clear()
        code, out, _ = run(capsys, *mode, "euler-class", "--complex", complex_path,
                           "--group", group_path)
        assert code == 0
        assert len(calls) == 46
        outputs.append(out)
    doc = json.loads(outputs[1])
    assert len(doc["classes"]) == 27
    assert sum(len(c["generators"]) for c in doc["classes"]) == 46
    assert outputs[0] == doc["text"] + "\n"


# one README sample per subcommand, paths relative to the repository root
README_SAMPLES = (
    ("euler-class", "--complex", "data/star.json", "--group", "data/c2swap.json"),
    ("euler-free-coeff", "--complex", "data/star.json", "--group", "data/c2swap.json"),
    ("cm-check", "--complex", "data/T.json"),
    ("acyclicity-check", "--complex", "data/artinL.json", "--group", "data/k1.json"),
    ("subgroups", "--group", "data/d8.json"),
    ("poset-euler", "--group", "data/k1.json", "--filter", "proper-nontrivial"),
    ("quillen-check", "--group", "data/s4.json"),
    ("weyl-check", "--group", "data/d8.json"),
    ("duality-report", "--complex", "data/artinL.json", "--group", "data/k2.json"),
    ("double", "--complex", "data/tetra_boundary.json", "--subdivide",
     "--pattern", "data/T.json"),
    ("jones-verify", "--m", "1", "--q", "2", "--p", "3"),
)


def test_json_is_byte_identical_across_hash_seeds():
    # every subcommand once, in process, under three hash seeds
    script = ("import sys\n"
              "from equichar.cli import main\n"
              "for argv in %r:\n"
              "    code = main(['--json', *argv])\n"
              "    sys.stdout.write('exit %%d\\n' %% code)\n" % (README_SAMPLES,))
    outs = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run([sys.executable, "-c", script], cwd=DATA.parent,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    out = outs.pop()
    assert out.count("exit ") == len(README_SAMPLES)
    assert sorted(argv[0] for argv in README_SAMPLES) == sorted(
        name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_"))


def test_double_pipeline_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "--json", "double", "--complex",
                       data("tetra_boundary.json"), "--subdivide",
                       "--pattern", data("T.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["admissible"] is True
    assert doc["fixed_equals_pattern_image"] is True
    assert len(doc["complex"]["vertices"]) == 23
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps(doc["complex"]))
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps(doc["swap"]))
    assert run(capsys, "cm-check", "--complex", doubled)[0] == 0
    code, out, _ = run(capsys, "duality-report", "--complex", doubled,
                       "--group", swap)
    assert code == 1
    assert "duality group: yes" in out
    assert out.count("OBSTRUCTED") == 1
    assert "obstruction found" in out


def test_double_checks_the_image_once(capsys, monkeypatch):
    # the search and the fixed-subcomplex comparison scan; the Embedding,
    # image_complex and double_along reuse the image the search checked
    calls = []
    full = SimplicialComplex.full_subcomplex
    monkeypatch.setattr(SimplicialComplex, "full_subcomplex",
                        lambda self, sub: calls.append(1) or full(self, sub))
    monkeypatch.chdir(DATA.parent)
    argv = README_SAMPLES[[a[0] for a in README_SAMPLES].index("double")]
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0 and json.loads(out)["fixed_equals_pattern_image"]
    assert len(calls) <= 2


def test_double_without_match(capsys):
    code, out, _ = run(capsys, "double", "--complex",
                       data("tetra_boundary.json"), "--pattern",
                       data("T.json"))
    assert code == 1
    assert "no full copy" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "equichar.cli", "subgroups", "--group",
         str(data("d8.json"))], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "10 subgroups" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "equichar.cli", "no-such-command"],
        capture_output=True, text=True)
    assert proc.returncode == 2


LEAN = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def loaded_after(code):
    """Which LEAN modules a fresh interpreter holds after running code."""
    probe = "%s\nimport sys\nprint(*(m for m in %r if m in sys.modules))" % (
        code, LEAN)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return set(proc.stdout.split())


def test_command_loads_no_code_introspection_modules():
    # a command process imports the library and the CLI and runs one
    # command, and needs none of the code-introspection modules, whose
    # import would be a large share of its startup; the stdlib modules the
    # CLI does import are the baseline, in case a Python version loads some
    # of these names by itself
    ran = loaded_after(
        "import contextlib, io\nimport equichar, equichar.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert equichar.cli.main(%r) == 0"
        % ["--json", "subgroups", "--group", str(data("d8.json"))])
    baseline = loaded_after("import argparse, fractions, json")
    assert ran - baseline == set()


def test_double_pattern_covering_host_is_precondition_failure(capsys, tmp_path):
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"vertices": ["1", "2"],
                                "maximal_simplices": [["1", "2"]]}))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "maximal_simplices": []}))
    for x in (edge, empty):
        code, out, err = run(capsys, "double", "--complex", x, "--pattern", x)
        assert (code, out) == (3, "")
        assert err == ("precondition failed: pattern covers the whole host; "
                       "the swap is trivial\n")


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    # main keeps one parser per process; an argparse error in between must
    # leave nothing behind that changes the next call
    monkeypatch.setenv("COLUMNS", "80")
    good = ["subgroups", "--group", str(data("d8.json"))]
    bad = ["subgroups"]

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "equichar.cli", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, COLUMNS="80"))
        return proc.returncode, proc.stdout, proc.stderr

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    expected_good, expected_bad = fresh(good), fresh(bad)
    assert expected_good[0] == 0 and "10 subgroups" in expected_good[1]
    assert expected_bad[0] == 2 and expected_bad[1] == ""
    assert "the following arguments are required: --group" in expected_bad[2]
    assert in_process(good) == expected_good
    assert in_process(bad) == expected_bad
    assert in_process(good) == expected_good


def test_commands_are_looked_up_when_they_run(capsys, monkeypatch):
    # the kept parser must not pin the command functions: a wrapper put in
    # place between two calls, as a tracer does, is the one that runs
    argv = ["subgroups", "--group", str(data("d8.json"))]
    assert main(argv) == 0
    seen = []
    command = cli.cmd_subgroups

    def wrapper(args):
        seen.append(args.command)
        return command(args)
    monkeypatch.setattr(cli, "cmd_subgroups", wrapper)
    assert main(argv) == 0
    assert seen == ["subgroups"]
    capsys.readouterr()


SWEEP_COMPLEXES = ("T", "artinL", "octahedron", "star", "tetra_boundary")
SWEEP_GROUPS = ("c2", "c2swap", "c4", "d8", "k1", "k2", "s4")


def sweep_argvs():
    """Every subcommand on every pairing of the data/ complexes and groups,
    with each --filter, with and without --force and --subdivide, and
    jones-verify on a grid that includes gcd(p, q) > 1."""
    for g in SWEEP_GROUPS:
        for x in (None, *SWEEP_COMPLEXES):
            args = ["--group", data(g + ".json")]
            if x is not None:
                args += ["--complex", data(x + ".json")]
            yield ["subgroups", *args]
            for which in FILTERS:
                yield ["poset-euler", "--filter", which, *args]
            yield ["quillen-check", *args]
            yield ["weyl-check", *args]
    for x in SWEEP_COMPLEXES:
        for g in SWEEP_GROUPS:
            pair = ["--complex", data(x + ".json"), "--group", data(g + ".json")]
            yield ["euler-class", *pair]
            yield ["euler-free-coeff", *pair]
            yield ["acyclicity-check", *pair]
            yield ["acyclicity-check", "--force", *pair]
            yield ["duality-report", *pair]
        yield ["cm-check", "--complex", data(x + ".json")]
        yield ["duality-report", "--complex", data(x + ".json")]
        for pattern in SWEEP_COMPLEXES:
            pair = ["--complex", data(x + ".json"),
                    "--pattern", data(pattern + ".json")]
            yield ["double", *pair]
            yield ["double", "--subdivide", *pair]
    for m in (1, 2):
        for q, p in ((2, 3), (3, 2), (2, 4), (4, 3), (6, 3)):
            yield ["jones-verify", "--m", m, "--q", q, "--p", p]


def test_every_subcommand_on_every_data_pairing(capsys):
    # no input from data/ lets an exception escape main: every call exits
    # 0 - 3, a refusal prints only its one-line diagnostic, and --json
    # prints one document whenever the command ran
    codes = {}
    for mode in ((), ("--json",)):
        for argv in sweep_argvs():
            code, out, err = run(capsys, *mode, *argv)
            codes[code] = codes.get(code, 0) + 1
            if code in (2, 3):
                assert out == "", argv
                assert err.startswith(("input error: ", "precondition failed: ")), argv
                assert err.count("\n") == 1, argv
            else:
                assert code in (0, 1) and err == "", argv
                if mode:
                    assert json.loads(out)["schema"] == cli.SCHEMA, argv
    assert codes == {0: 482, 1: 88, 2: 432, 3: 76}


def test_json_writer_equals_json_dumps_on_every_document(capsys, monkeypatch):
    # the writer behind --json against json.dumps, on every document of
    # the data/ sweep and of the README samples
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, doc, lines:
                        docs.append(doc) or emit(args, doc, lines))
    monkeypatch.chdir(DATA.parent)
    written = 0
    for argv in (*sweep_argvs(), *README_SAMPLES):
        del docs[:]
        main(["--json", *map(str, argv)])
        out = capsys.readouterr().out
        if docs:
            doc = dict(docs[0], schema=cli.SCHEMA)
            assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n", argv
            written += 1
    assert written == 296


def test_json_writer_refuses_what_the_documents_never_hold():
    assert cli._json_text({"a": ({}, [[]])}) == \
        '{\n  "a": [\n    {},\n    [\n      []\n    ]\n  ]\n}'
    for value in (1.5, {1: "x"}, {"a": {None: 1}}, {"x"}, Fraction(1, 2),
                  b"bytes"):
        with pytest.raises(TypeError):
            cli._json_text(value)
