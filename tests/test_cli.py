import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from horoindex import lattices, spaces, weyl
from horoindex.cli import main
from horoindex.errors import RouteDisagreementError

GOLDEN = Path(__file__).resolve().parent / "golden"

BEZOUT_PROBLEM = {
    "group": {"gl": [3], "torus": 0},
    "face": {"blocks": [[1, 2]]},
    "lambda_H": {"offset": [0, 0], "basis": [[1, 0]]},
    "mode": "general",
    "supports": [
        [[0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
        [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]],
    ],
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_index_bezout(tmp_path, capsys):
    path = write(tmp_path, "problem.json", BEZOUT_PROBLEM)
    code, out, err = run_cli(["index", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == "6"
    assert payload["routes"]["integral"] == "6"
    assert payload["routes"]["lift"] == "6"
    assert payload["routes"]["hilbert"] is None


def test_index_of_a_space_with_no_supports(tmp_path, capsys):
    path = write(tmp_path, "problem.json", {})
    code, out, _ = run_cli(["index", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == "1"
    assert payload["routes"] == {"integral": "1", "lift": "1", "hilbert": None}


def test_index_deterministic_across_runs(tmp_path, capsys):
    path = write(tmp_path, "problem.json", BEZOUT_PROBLEM)
    _, out1, _ = run_cli(["index", path], capsys)
    _, out2, _ = run_cli(["index", path], capsys)
    assert out1 == out2


def test_moment(tmp_path, capsys):
    path = write(tmp_path, "problem.json", BEZOUT_PROBLEM)
    code, out, _ = run_cli(["moment", path], capsys)
    assert code == 0
    polys = json.loads(out)["polytopes"]
    assert len(polys) == 3
    assert polys[0]["vertices"] == [["0", "0"], ["1", "0"]]


def test_newton(tmp_path, capsys):
    path = write(tmp_path, "problem.json", BEZOUT_PROBLEM)
    code, out, _ = run_cli(["newton", path], capsys)
    assert code == 0
    polys = json.loads(out)["polytopes"]
    assert len(polys) == 3
    # lifts live in face coords (2) + free pattern entries (2)
    assert all(len(v) == 4 for v in polys[0]["vertices"])


def test_completion(tmp_path, capsys):
    problem = dict(BEZOUT_PROBLEM)
    problem["supports"] = [[[0, 0, 0], [3, 0, 0]]]
    path = write(tmp_path, "problem.json", problem)
    code, out, _ = run_cli(["completion", path], capsys)
    assert code == 0
    supports = json.loads(out)["supports"]
    assert supports[0] == [["0", "0", "0"], ["1", "0", "0"],
                           ["2", "0", "0"], ["3", "0", "0"]]


def test_weyl(capsys):
    code, out, _ = run_cli(["weyl", "--gl", "3", "--weight", "2,1,0",
                            "--blocks", "1,2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 8
    assert payload["degree"] == 2


def test_gc_count(tmp_path, capsys):
    code, out, _ = run_cli(["gc", "--n", "3", "--weight", "2,1,0", "--count"], capsys)
    assert code == 0
    assert out == "8\n"
    out_path = tmp_path / "count.json"
    code, out, _ = run_cli(["gc", "--n", "3", "--weight", "2,1,0", "--count",
                            "-o", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text()) == 8


def test_gc_polytope(capsys):
    code, out, _ = run_cli(["gc", "--n", "2", "--weight", "3,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == [["1"], ["3"]]
    assert payload["volume"] == "2"


def test_gc_gl5(capsys):
    code, out, _ = run_cli(["gc", "--n", "5", "--weight", "2,1,1,0,0"], capsys)
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 40


@pytest.mark.parametrize("extra", [[], ["--count"]])
def test_gc_gl0_is_rejected(capsys, extra):
    code, out, err = run_cli(["gc", "--n", "0", "--weight", ""] + extra, capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("bad", [1.0, True])
@pytest.mark.parametrize("where", ["weight", "lattice", "group"])
def test_a_float_or_bool_number_exits_3_by_name(tmp_path, capsys, bad, where):
    problem = json.loads(json.dumps(BEZOUT_PROBLEM))
    if where == "weight":
        problem["supports"][0][1][0] = bad
    elif where == "lattice":
        problem["lambda_H"]["basis"][0][0] = bad
    else:
        problem["group"]["gl"][0] = bad
    code, out, err = run_cli(["index", write(tmp_path, "problem.json", problem)], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "validation",
        "detail": f"rationals must be integers or 'p/q' strings, got {bad!r}"}


def test_the_support_count_is_checked_before_any_route_is_built(tmp_path, capsys, monkeypatch):
    def expand(face):
        raise AssertionError("restricted_weyl ran before the support count was checked")

    monkeypatch.setattr(weyl, "restricted_weyl", expand)
    monkeypatch.setattr(lattices, "bareiss", expand)
    for group, n in (({"gl": [7]}, 28), ({"torus": 1000}, 1000)):
        path = write(tmp_path, "problem.json", {"group": group})
        code, out, err = run_cli(["index", path], capsys)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "validation",
                                   "detail": f"need exactly {n} supports (= dim(G/P')), got 0"}


@pytest.mark.parametrize("problem, golden", [("gl3.json", "gl3-index.out"),
                                             ("gl3_wall.json", "gl3-wall-index.out")])
def test_the_index_path_expands_no_weyl_polynomial(capsys, monkeypatch, problem, golden):
    # the integral route integrates the top Weyl term as its linear forms;
    # every module that binds restricted_weyl gets the raising stand-in
    def expand(face):
        raise AssertionError("restricted_weyl ran on the index path")

    original = weyl.restricted_weyl
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "horoindex"]:
        if getattr(module, "restricted_weyl", None) is original:
            monkeypatch.setattr(module, "restricted_weyl", expand)
    spaces.memo_clear()
    spaces._integral_route.cache_clear()  # so the route is built again
    code, out, _ = run_cli(["index", str(GOLDEN / problem)], capsys)
    assert (code, out) == (0, (GOLDEN / golden).read_text())


def test_mixed_volume(tmp_path, capsys):
    tri = {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
    path = write(tmp_path, "bodies.json", {"bodies": [tri, tri]})
    code, out, _ = run_cli(["mixed-volume", path], capsys)
    assert code == 0
    assert json.loads(out) == "1/2"


def test_mixed_integral(tmp_path, capsys):
    tri = {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
    obj = {"polynomial": {"terms": [{"exp": [1, 0], "coef": "1"}]},
           "bodies": [tri, tri, tri]}
    path = write(tmp_path, "bodies.json", obj)
    code, out, _ = run_cli(["mixed-integral", path], capsys)
    assert code == 0
    assert json.loads(out) == "1/6"


def test_hilbert(tmp_path, capsys):
    problem = {
        "group": {"gl": [2]},
        "mode": "quotient_by_commutator",
        "supports": [[[0, 0], [1, 0], [1, 1]]],
    }
    path = write(tmp_path, "problem.json", problem)
    code, out, _ = run_cli(["hilbert", path, "--k", "2"], capsys)
    assert code == 0
    assert json.loads(out)["values"] == {"0": 1, "1": 4, "2": 10}


def test_hilbert_negative_k_is_rejected(tmp_path, capsys):
    problem = {"group": {"gl": [2]}, "mode": "quotient_by_commutator",
               "supports": [[[0, 0], [1, 0], [1, 1]]]}
    path = write(tmp_path, "problem.json", problem)
    code, out, err = run_cli(["hilbert", path, "--k", "-1"], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "validation"


def test_mixed_integral_variable_count_mismatch(tmp_path, capsys):
    obj = {"polynomial": {"terms": [{"exp": [0, 0, 0, 0, 0], "coef": "1"}]},
           "bodies": [{"vertices": [["0", "0"]]}, {"vertices": [["1", "2"]]}]}
    path = write(tmp_path, "bodies.json", obj)
    code, out, err = run_cli(["mixed-integral", path], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "validation"


def test_mixed_integral_rejects_the_zero_polynomial_by_name(tmp_path, capsys):
    tri = {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
    obj = {"polynomial": {"terms": [{"exp": [2, 0], "coef": 0}]}, "bodies": [tri] * 4}
    path = write(tmp_path, "bodies.json", obj)
    code, out, err = run_cli(["mixed-integral", path], capsys)
    assert code == 3
    assert out == ""
    detail = json.loads(err)["detail"]
    assert "zero polynomial" in detail and "needs" not in detail


def test_verify_quick(capsys):
    code, out, _ = run_cli(["verify", "--quick"], capsys)
    assert code == 0
    assert "all checks passed" in out


def test_verify_reports_a_route_disagreement_as_a_failure(monkeypatch, capsys):
    def disagree(space, supports):
        raise RouteDisagreementError("integral 6 != lift 5")

    monkeypatch.setattr("horoindex.cli.index_report", disagree)
    code, out, _ = run_cli(["verify", "--quick"], capsys)
    assert code == 3
    assert "FAIL index routes agree on GL(2)  (integral 6 != lift 5)" in out
    assert out.endswith("1 failures\n")


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run_cli(["index", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "parse"


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(["index", "no_such_file.json"], capsys)
    assert code == 2


def test_exit_code_semantic_error(tmp_path, capsys):
    problem = dict(BEZOUT_PROBLEM)
    problem["supports"] = problem["supports"][:2]  # wrong support count
    path = write(tmp_path, "problem.json", problem)
    code, _, err = run_cli(["index", path], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "validation"


def test_unknown_mode_is_named(tmp_path, capsys):
    path = write(tmp_path, "problem.json", dict(BEZOUT_PROBLEM, mode="bogus"))
    code, out, err = run_cli(["index", path], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "validation", "detail": "unknown mode 'bogus'"}


def test_output_file(tmp_path, capsys):
    path = write(tmp_path, "problem.json", BEZOUT_PROBLEM)
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(["index", path, "-o", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["index"] == "6"


TRIANGLE = {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize("verb, obj", [
    ("index", [1, 2]),
    ("index", dict(BEZOUT_PROBLEM, group={"gl": ["x"]})),
    ("index", dict(BEZOUT_PROBLEM, face={"blocks": "ab"})),
    ("mixed-integral", {"polynomial": {"terms": [{"coef": "1"}]},
                        "bodies": [TRIANGLE] * 3}),
])
def test_malformed_json_is_a_validation_error(tmp_path, capsys, verb, obj):
    path = write(tmp_path, "input.json", obj)
    code, out, err = run_cli([verb, path], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "validation"


def test_unwritable_output_file(tmp_path, capsys):
    path = write(tmp_path, "problem.json", BEZOUT_PROBLEM)
    out_path = tmp_path / "no_such_dir" / "result.json"
    code, out, err = run_cli(["index", path, "-o", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "io"


def test_parser_survives_a_bad_flag(tmp_path, capsys):
    """The parser is built once per process; a rejected command line leaves it
    as a fresh process would build it."""
    path = write(tmp_path, "problem.json", BEZOUT_PROBLEM)
    with pytest.raises(SystemExit) as exc:
        main(["index", "--no-such-flag", path])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(["index", path], capsys)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "horoindex.cli", "index", path], env=env,
                           capture_output=True, text=True, timeout=120)
    assert (code, out) == (fresh.returncode, fresh.stdout)


def test_mixed_integral_rejects_a_negative_exponent_fast(tmp_path):
    """A negative exponent is named and rejected with exit 3 at parse time,
    in a fresh process bounded by a timeout: powering by it never ends, and
    integrating it would return a number."""
    obj = {"polynomial": {"terms": [{"exp": [-1, 1], "coef": 1}]},
           "bodies": [TRIANGLE, TRIANGLE]}
    path = write(tmp_path, "bodies.json", obj)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "horoindex.cli", "mixed-integral", path],
                         env=env, capture_output=True, text=True, timeout=30)
    assert run.returncode == 3
    assert run.stdout == ""
    error = json.loads(run.stderr)
    assert error["error"] == "validation"
    assert "[-1, 1]" in error["detail"] and "nonnegative" in error["detail"]
