"""Command line behavior: report shapes, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from permrel import __version__, cli, subgroups
from permrel.cli import main, parse_group_spec, run_command
from permrel.errors import InputError


def _run(argv):
    stream = io.StringIO()
    code = run_command(argv, stream=stream)
    return code, stream.getvalue()


def _run_json(argv):
    code, text = _run(argv)
    assert code == 0, text
    return json.loads(text)


@pytest.fixture()
def specdir(tmp_path):
    files = {
        "s3.json": {"type": "perm", "degree": 3,
                    "generators": ["(0 1)", "(0 1 2)"]},
        "a4.json": {"type": "perm", "degree": 4,
                    "generators": ["(0 1 2)", "(0 1)(2 3)"]},
        "s4.json": {"type": "preset", "name": "S4"},
        "s5.json": {"type": "preset", "name": "S5"},
        "aff.json": {"type": "semidirect", "l": 3, "d": 2,
                     "matrices": [[[0, 2], [1, 0]]]},
        "prod.json": {"type": "product", "parts": [
            {"type": "preset", "name": "C3"},
            {"type": "preset", "name": "S3"}]},
        "bad.json": None,
    }
    for name, spec in files.items():
        path = tmp_path / name
        if spec is None:
            path.write_text("{ not json", encoding="utf-8")
        else:
            path.write_text(json.dumps(spec), encoding="utf-8")
    return tmp_path


def test_prim_report_a4(specdir):
    report = _run_json(["prim", "--group", str(specdir / "a4.json"),
                        "--char", "5"])
    assert report["version"] == __version__
    assert report["input"]["command"] == "prim"
    assert report["input"]["characteristic"] == 5
    assert report["input"]["group"] == {
        "type": "perm", "degree": 4, "generators": ["(0 1 2)", "(0 1)(2 3)"]}
    labels = [cls["label"] for cls in report["classes"]]
    assert labels == ["o1_c0", "o2_c1", "o3_c2", "o4_c3", "o12_c4"]
    result = report["result"]
    assert result["free_rank"] == 1
    assert result["torsion"] == []
    assert result["invariants"] == "Z"
    assert result["kernel_rank"] == 2
    assert result["imprimitive_columns"] == 1
    assert result["generator"] == {
        "o2_c1": 1, "o3_c2": -1, "o4_c3": -1, "o12_c4": 1}
    oracle = report["oracle"]
    assert oracle["source"] == "Thm2.9a"
    assert oracle["pass"] is True


def test_prim_generator_null_when_absent(specdir):
    report = _run_json(["prim", "--group", str(specdir / "s3.json"),
                        "--char", "0"])
    assert report["result"]["generator"] is None
    assert report["result"]["invariants"] == "Z"
    assert report["oracle"]["source"] == "ThmMainB"


def test_marks_csv_exact(specdir):
    code, text = _run(["marks", "--group", str(specdir / "s3.json"),
                       "--format", "csv"])
    assert code == 0
    assert text == (
        "label,o1_c0,o2_c1,o3_c2,o6_c3\n"
        "o1_c0,6,0,0,0\n"
        "o2_c1,3,1,0,0\n"
        "o3_c2,2,0,2,0\n"
        "o6_c3,1,1,1,1\n"
    )


def test_kernel_csv_exact(specdir):
    code, text = _run(["kernel", "--group", str(specdir / "s3.json"),
                       "--char", "0", "--format", "csv"])
    assert code == 0
    assert text == "label,b0\no1_c0,1\no2_c1,-2\no3_c2,-1\no6_c3,2\n"


def test_kernel_json_fields(specdir):
    report = _run_json(["kernel", "--group", str(specdir / "a4.json"),
                        "--char", "5"])
    result = report["result"]
    assert result["rank"] == 2
    assert result["hypo_class_labels"] == ["o1_c0", "o2_c1", "o3_c2"]
    assert len(result["basis"]) == 2
    oracle = report["oracle"]
    assert oracle["source"] == "rank"
    assert oracle["predicted"] == 2
    assert oracle["pass"] is True


def test_classify_report(specdir):
    report = _run_json(["classify", "--group", str(specdir / "s4.json")])
    result = report["result"]
    assert result["order"] == 24
    assert result["soluble"] is True
    assert result["cyclic"] is False
    assert result["hypo_elementary_primes"] == []
    assert result["dress_pairs"] == [[2, 2]]
    assert "effective_prime" not in result
    with_char = _run_json(["classify", "--group", str(specdir / "s4.json"),
                           "--char", "5"])
    result = with_char["result"]
    assert result["effective_prime"] == 5
    tags = [m["tag"] for m in result["main_cases"]]
    assert tags == ["VectorSemidirect"]


def test_theta_qk_cli():
    report = _run_json(["theta", "--family", "qk", "--l", "3", "--q", "2",
                        "--k", "0", "--char", "5"])
    result = report["result"]
    assert result["family"] == "qk"
    assert result["parameters"] == {"l": 3, "q": 2, "k": 0}
    assert result["group_order"] == 6
    assert result["element"] == {
        "o1_c0": 1, "o2_c1": -2, "o3_c2": -1, "o6_c3": 2}
    assert result["verified"] is True
    assert report["oracle"]["pass"] is True


def test_theta_mn_default_bezout_matches_explicit():
    default = _run_json(["theta", "--family", "mn", "--l", "7", "--m", "2",
                         "--n", "3", "--char", "5"])
    explicit = _run_json(["theta", "--family", "mn", "--l", "7", "--m", "2",
                          "--n", "3", "--alpha", "2", "--beta", "-1",
                          "--char", "5"])
    assert default["result"]["element"] == explicit["result"]["element"]
    assert default["result"]["parameters"]["alpha"] == 2
    assert default["result"]["parameters"]["beta"] == -1


def test_theta_mn_rejects_half_bezout():
    code, _ = _run(["theta", "--family", "mn", "--l", "7", "--m", "2",
                    "--n", "3", "--alpha", "2", "--char", "5"])
    assert code == 1


@pytest.mark.parametrize("m,n", [(1, 0), (0, 4), (2, 4), (2, -3)])
def test_theta_mn_rejects_m_and_n_without_a_traceback(m, n, capsys):
    code, text = _run(["theta", "--family", "mn", "--l", "7", "--m", str(m),
                       "--n", str(n), "--char", "5"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_theta_highdim_cli(specdir):
    report = _run_json(["theta", "--family", "highdim", "--group",
                        str(specdir / "aff.json"), "--char", "5"])
    result = report["result"]
    assert result["group_order"] == 36
    assert result["verified"] is True


def test_theta_highdim_rejects_a_spec_it_does_not_build(tmp_path, capsys):
    # with no matrices theta_highdim builds (C_l)^2, so the spec's C2^3
    # is rejected rather than answered for C2^2
    path = tmp_path / "c2_3.json"
    path.write_text(
        json.dumps({"type": "semidirect", "l": 2, "d": 3, "matrices": []}),
        encoding="utf-8",
    )
    code, text = _run(["theta", "--family", "highdim", "--group", str(path),
                       "--char", "5"])
    assert (code, text) == (1, "")
    assert "no matrices needs d = 2" in capsys.readouterr().err


def test_corpus_small_csv():
    code, text = _run(["corpus", "--max-order", "12", "--format", "csv"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "group,characteristic,source,predicted,computed,pass"
    assert len(lines) == 36  # 7 groups x 5 characteristics
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_corpus_char_subset():
    report = _run_json(["corpus", "--max-order", "12", "--chars", "2,5"])
    assert len(report["rows"]) == 14
    assert report["all_pass"] is True
    assert {row["characteristic"] for row in report["rows"]} == {2, 5}


def test_corpus_empty_chars():
    report = _run_json(["corpus", "--chars", ""])
    assert report["rows"] == []
    assert report["all_pass"] is True


def test_seed_echoed(specdir):
    report = _run_json(["classify", "--group", str(specdir / "s3.json"),
                        "--seed", "7"])
    assert report["input"]["seed"] == 7


def test_exit_code_input_errors(tmp_path, specdir):
    cases = [
        ["prim", "--char", "5"],  # missing --group
        ["prim", "--group", str(specdir / "bad.json"), "--char", "5"],
        ["prim", "--group", str(tmp_path / "missing.json"), "--char", "5"],
        ["prim", "--group", str(specdir / "s3.json"), "--char", "4"],
        ["prim", "--group", str(specdir / "s3.json"), "--char", "-3"],
        ["classify", "--group", str(specdir / "s3.json"),
         "--format", "csv"],
        ["theta", "--family", "mn", "--l", "7", "--char", "5"],
        # usage errors that argparse reports
        ["prim", "--group", str(specdir / "s3.json")],  # missing --char
        ["frobnicate"],
        ["marks", "--group", str(specdir / "s3.json"), "--format", "xml"],
        ["marks", "--group", str(specdir / "s3.json"), "--max-order", "abc"],
    ]
    for argv in cases:
        code, _ = _run(argv)
        assert code == 1, argv


def test_help_and_version_exit_0(capsys):
    for argv in (["--help"], ["--version"], ["prim", "--help"]):
        assert _run(argv)[0] == 0, argv
    assert __version__ in capsys.readouterr().out


def test_exit_code_cap_exceeded(specdir):
    code, _ = _run(["prim", "--group", str(specdir / "s5.json"),
                    "--char", "5", "--max-order", "50"])
    assert code == 2


@pytest.mark.parametrize("family, order", [
    (["mn", "--l", "7", "--m", "2", "--n", "3"], 42),
    (["qk", "--l", "3", "--q", "2", "--k", "0"], 6),
])
def test_theta_refuses_a_group_past_max_order(family, order, capsys, monkeypatch):
    # the order is read off the parameters; no group is built
    argv = ["theta", "--char", "5", "--family", *family]
    monkeypatch.setattr(cli, "theta_mn", None)
    monkeypatch.setattr(cli, "theta_qk", None)
    code, text = _run(argv + ["--max-order", str(order - 1)])
    assert (code, text) == (2, "")
    assert "order %d exceeds --max-order %d" % (order, order - 1) in capsys.readouterr().err
    monkeypatch.undo()
    report = _run_json(argv + ["--max-order", str(order)])
    assert report["result"]["group_order"] == order


def test_exit_code_subgroup_cap_exceeded(specdir, monkeypatch):
    # S4 has 30 subgroups
    monkeypatch.setattr(subgroups, "SUBGROUP_CAP", 10)
    code, _ = _run(["marks", "--group", str(specdir / "s4.json")])
    assert code == 2


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_max_order_below_one_rejected(specdir, bound, capsys):
    for argv in (["marks", "--group", str(specdir / "s4.json")], ["corpus"]):
        code, text = _run(argv + ["--max-order", bound])
        assert (code, text) == (1, ""), argv
        assert "--max-order must be at least 1" in capsys.readouterr().err


def test_spec_rejects_malformed():
    with pytest.raises(InputError):
        parse_group_spec({"type": "perm", "degree": "3", "generators": []})
    with pytest.raises(InputError):
        parse_group_spec({"type": "mystery"})
    with pytest.raises(InputError):
        parse_group_spec({"degree": 3})
    with pytest.raises(InputError):
        parse_group_spec({"type": "product", "parts": []})


@pytest.mark.parametrize("spec", [
    {"type": "semidirect", "l": 3, "d": 2, "matrices": [[[0, 2.5], [1, 0]]]},
    {"type": "semidirect", "l": 3, "d": 2, "matrices": [[[0, "a"], [1, 0]]]},
    {"type": "semidirect", "l": 3, "d": 2, "matrices": [[0, 2]]},
    {"type": "semidirect", "l": 3, "d": 2, "matrices": [[[0, 2], [1, 0], [1, 1]]]},
    {"type": "semidirect", "l": 3, "d": 2, "matrices": [[[0, 2], [1]]]},
    {"type": "perm", "degree": 3, "generators": [5]},
    # JSON's true is a Python bool, an int to isinstance
    {"type": "perm", "degree": True, "generators": []},
    {"type": "semidirect", "l": True, "d": 2, "matrices": []},
    {"type": "semidirect", "l": 3, "d": True, "matrices": []},
    {"type": "semidirect", "l": 3, "d": 2, "matrices": [[[0, True], [1, 0]]]},
], ids=["float", "string", "flat", "tall", "ragged", "int-generator", "bool-degree", "bool-l",
        "bool-d", "bool-entry"])
def test_malformed_spec_entry_is_an_input_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, text = _run(["classify", "--group", str(path)])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(InputError):
        parse_group_spec(spec)


def test_product_and_semidirect_specs(specdir):
    report = _run_json(["classify", "--group", str(specdir / "prod.json")])
    assert report["result"]["order"] == 18
    report = _run_json(["classify", "--group", str(specdir / "aff.json")])
    assert report["result"]["order"] == 36


def test_main_returns_exit_code(capsys):
    assert main(["corpus", "--chars", ""]) == 0
    capsys.readouterr()


def _subprocess_bytes(argv, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-m", "permrel.cli"] + argv,
        capture_output=True, env=env, check=True,
    )
    return out.stdout


def test_output_bytes_deterministic_across_processes(specdir):
    jobs = [
        ["prim", "--group", str(specdir / "aff.json"), "--char", "5"],
        ["corpus", "--max-order", "12", "--format", "csv"],
        ["classify", "--group", str(specdir / "s4.json"), "--char", "0"],
    ]
    for argv in jobs:
        first = _subprocess_bytes(argv, "1")
        second = _subprocess_bytes(argv, "2")
        assert first == second, argv
