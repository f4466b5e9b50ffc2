"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bytes", "ratio")


def bench(*args, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py")] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def smoke(workload, trace, seed=3):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def one_pass(name, tmp_path, seed=5):
    wl = run.build_workload(name, seed, str(tmp_path), smoke=True)
    prepared = run.prepare_pass(wl, seed, 0)
    return wl, prepared


@pytest.mark.parametrize("name", ["lattice", "homology", "cli_mix"])
def test_smoke_run_is_correct_and_quick(name):
    meta, result = smoke(name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_s", "query_p50_ms", "query_tail_ms",
                                      "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["seed"] == 3 and meta["queries_per_pass"] >= 1


@pytest.mark.parametrize("name", ["lattice", "homology", "cli_mix"])
def test_traced_answers_match_untraced_and_counts_repeat(name):
    meta0, _ = smoke(name, 0)
    meta1, traced = smoke(name, 1)
    again, traced_again = smoke(name, 1)
    assert meta0["answer_digests"] == meta1["answer_digests"]
    assert len(meta1["answer_digests"]) == 1
    assert traced["correct"]
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for key, metric in traced["metrics"].items():
        if metric["unit"] in COUNT_UNITS:
            assert metric["value"] == traced_again["metrics"][key]["value"], key


def test_lattice_checker_rejects_a_perturbed_answer(tmp_path):
    wl, prepared = one_pass("lattice", tmp_path)
    for query, payload in prepared:
        answer = query.summarize(query.run(payload))
        assert workloads.check(query, answer), query.qid
        if isinstance(answer, int):
            bad = answer + 1
        elif isinstance(answer, (list, tuple)) and isinstance(answer[0], bool):
            bad = [not answer[0]] + list(answer[1:])
        else:
            bad = list(answer)
            bad[-1] = bad[-1] + 1 if isinstance(bad[-1], int) else not bad[-1]
        assert not workloads.check(query, bad), query.qid


def test_homology_cross_checks_reject_perturbed_answers(tmp_path):
    wl, prepared = one_pass("homology", tmp_path)
    answers = {}
    for query, payload in prepared:
        answers[query.qid] = (query.source, query.summarize(query.run(payload)))
    assert wl.cross_check(answers) == set()
    flagged = 0
    for qid, (source, answer) in answers.items():
        if source is None:
            continue
        broken = dict(answers)
        if qid.endswith("/Z"):
            bad = dict(answer)
            bad["7"] = [1, []]        # an extra sphere breaks Euler-Poincare
        elif "/GF" in qid:
            bad = dict(answer)
            bad["0"] = bad.get("0", 0) + 1
        else:
            continue
        broken[qid] = (source, bad)
        assert qid in wl.cross_check(broken)
        flagged += 1
    assert flagged >= 2
    # torsion moved between degrees keeps the Euler characteristic but
    # breaks universal coefficients against GF(2)
    gf2_source = [s for q, (s, _) in answers.items() if q.endswith("/GF2")][0]
    z = [q for q, (s, _) in answers.items()
         if s == gf2_source and q.endswith("/Z")][0]
    source, answer = answers[z]
    broken = dict(answers)
    broken[z] = (source, dict(answer, **{"9": [0, [2]]}))
    assert z in wl.cross_check(broken)


def test_homology_known_answers_reject_perturbation():
    oct_z = workloads._known_homology("Z", 2, (1, ()))
    assert oct_z == {"2": [1, []]}
    rp2 = {k: workloads._known_homology(k, 1, (0, (2,)))
           for k in ("Z", "coh", "GF2", "GF3")}
    assert rp2 == {"Z": {"1": [0, [2]]}, "coh": {"2": [0, [2]]},
                   "GF2": {"1": 1, "2": 1}, "GF3": {}}
    q = workloads.Query("x/Z", None, None, None, expected=rp2["Z"])
    assert workloads.check(q, {"1": [0, [2]]})
    assert not workloads.check(q, {"1": [0, [3]]})


def test_cli_checker_rejects_perturbed_output(tmp_path):
    wl, prepared = one_pass("cli_mix", tmp_path)
    kinds = set()
    for query, payload in prepared:
        result = query.run(payload)
        assert workloads.check(query, query.summarize(result)), query.qid
        wrong_code = workloads.CliResult(result.exit + 1, result.stdout)
        assert not workloads.check(query, query.summarize(wrong_code))
        if query.qid.startswith("readme/"):
            kinds.add("readme")
            wrong = workloads.CliResult(result.exit, result.stdout + " ")
            assert not workloads.check(query, query.summarize(wrong))
        else:
            kinds.add("scaled")
            doc = json.loads(result.stdout)
            doc["ok"] = not doc["ok"]
            if "dimension" in doc:
                doc["dimension"] += 1
            if "coefficient" in doc:
                doc["coefficient"]["num"] += 1
            if "classes" in doc:
                doc["classes"] = doc["classes"][1:]
            wrong = workloads.CliResult(result.exit, json.dumps(doc))
            assert not workloads.check(query, query.summarize(wrong)), query.qid
    assert kinds == {"readme", "scaled"}


def test_seed_changes_labels_not_answers(tmp_path):
    wl = run.build_workload("lattice", 1, str(tmp_path), smoke=True)
    a = run.prepare_pass(wl, 1, 0)
    b = run.prepare_pass(wl, 2, 0)
    assert [p for _, p in a] != [p for _, p in b]
    assert sorted(q.qid for q, _ in a) == sorted(q.qid for q, _ in b)
    rng = random.Random(0)
    names = workloads.inputs.fresh_names(rng, 50)
    assert len(set(names)) == 50
    assert not any(c in n for n in names for c in " (),")


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench("--workload", "lattice", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "bench" / "run.py"))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tail_leaves_ten_queries_beyond_it():
    value, pct = run.tail(list(range(40, 0, -1)))
    assert pct == 75.0
    assert abs(value - 30.5) < 0.01    # pn + 1/2 on evenly spaced values
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_quantile_estimate_moves_smoothly():
    values = [1.0] * 20 + [10.0] * 20
    mid = run.hd_quantile(values, 0.5)
    assert abs(mid - 5.5) < 1e-6       # symmetric: halfway across the gap
    shifted = run.hd_quantile([1.0] * 21 + [10.0] * 19, 0.5)
    assert 1.0 < shifted < mid         # one value changing side moves it a bit
    assert abs(run.hd_quantile(range(1, 100), 0.5) - 50) < 1e-6


def test_latency_is_the_per_query_median_over_passes():
    passes = [{"a": 1.0, "b": 5.0}, {"a": 9.0, "b": 4.0}, {"a": 2.0, "b": 6.0}]
    assert run.per_query_medians(passes) == {"a": 2.0, "b": 5.0}


def test_scaling_divides_out_machine_speed():
    ref = run.SPEED_REF_S
    assert run.scale(0.5, ref, ref) == 0.5
    # a machine at half speed takes twice as long for kernel and query alike
    assert abs(run.scale(1.0, 2 * ref, 2 * ref) - 0.5) < 1e-12
    # speed that changes during a query counts as the mean of both ends
    assert abs(run.scale(1.0, ref, 3 * ref) - 0.5) < 1e-12
    assert run.speed_probe() > 0
