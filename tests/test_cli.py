import json

import pytest

from cocyred import cli
from cocyred.search import default_workers
from cocyred.verify import CheckResult


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_output(capsys):
    code, out, _ = run(capsys, "cohomology", "--group", "g2:3", "--degree", "2")
    assert code == 0
    assert "dim H^2 = 3" in out
    lines = dict(l.split(": ") for l in out.strip().splitlines() if ": " in l)
    assert lines["q"] == "3" and lines["r"] == "6" and lines["s"] == "10"
    assert lines["l"] == "1" and lines["k"] == "2"


def test_cohomology_g2_even(capsys):
    code, out, _ = run(capsys, "cohomology", "--group", "g2:2", "--degree", "2")
    assert code == 0 and "dim H^2 = 6" in out


def test_search_improper_line(capsys):
    code, out, _ = run(capsys, "search", "--group", "g1:1", "--degree", "3",
                       "--test", "improper")
    assert code == 0
    assert "improper: 64, proper-among-hits: 0" in out


def test_search_deterministic_stdout(capsys):
    _, out1, _ = run(capsys, "search", "--group", "cyclic:2", "--degree", "3",
                     "--test", "improper")
    _, out2, _ = run(capsys, "search", "--group", "cyclic:2", "--degree", "3",
                     "--test", "improper", "--workers", "4")
    assert out1 == out2
    assert "improper: 32, proper-among-hits: 0" in out1


def test_search_hadamard2d(capsys):
    code, out, _ = run(capsys, "search", "--group", "g1:1", "--degree", "2",
                       "--test", "hadamard2d")
    assert code == 0 and "hadamard2d: 6" in out


def test_search_refuses_large_span(capsys):
    code, _, err = run(capsys, "search", "--group", "cyclic:5", "--degree", "3",
                       "--test", "improper")
    assert code == 3
    assert "sampl" in err


def test_search_sampled(capsys):
    args = ("search", "--group", "cyclic:5", "--degree", "3",
            "--test", "improper", "--sample", "50", "--seed", "9")
    code, out1, _ = run(capsys, *args)
    assert code == 0 and "mode: sampled" in out1 and "examined: 50" in out1
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_search_negative_sample_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--group", "cyclic:2", "--degree", "3",
                         "--test", "improper", "--sample", "-5")
    assert code == 1 and out == "" and "nonnegative" in err


def test_tensor_repeated_combo_label_is_usage_error(capsys):
    code, out, err = run(capsys, "tensor", "--group", "g1:1", "--degree", "3",
                         "--combo", "c4,c4")
    assert code == 1 and out == "" and "'cob:4'" in err


def test_search_dump(capsys, tmp_path):
    dump = tmp_path / "w.json"
    code, _, _ = run(capsys, "search", "--group", "cyclic:2", "--degree", "3",
                     "--test", "improper", "--dump", str(dump))
    assert code == 0
    doc = json.loads(dump.read_text())
    assert doc["hits"]["improper"] == 32
    assert len(doc["witnesses"]) == 32
    assert all("labels" in w for w in doc["witnesses"])


def test_search_sampled_dump_holds_distinct_masks(capsys, tmp_path):
    # seed 1 draws one hit mask twice: stdout counts both draws, the dump
    # and witnesses_kept list the mask once
    dump = tmp_path / "w.json"
    code, out, err = run(capsys, "search", "--group", "g1:1", "--degree", "3",
                         "--test", "improper", "--sample", "4096", "--seed",
                         "1", "--dump", str(dump))
    assert code == 0 and "improper: 6, proper-among-hits: 0" in out
    assert "witnesses_kept: 5" in err
    masks = [w["mask"] for w in json.loads(dump.read_text())["witnesses"]]
    assert masks == sorted(set(masks)) and len(masks) == 5


def test_tensor_text_output(capsys):
    code, out, _ = run(capsys, "tensor", "--group", "cyclic:2", "--degree", "3",
                       "--combo", "c4,c7,c8,c9")
    assert code == 0
    assert out.splitlines()[0] == "1 1 1 1"


def test_tensor_json_output(capsys):
    code, out, _ = run(capsys, "tensor", "--group", "g1:1", "--degree", "2",
                       "--combo", "r1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["v"] == 4 and doc["n"] == 2
    assert set(doc["entries"]) <= {1, -1}


def test_tensor_bad_combo(capsys):
    code, _, err = run(capsys, "tensor", "--group", "g1:1", "--degree", "2",
                       "--combo", "x9")
    assert code == 1 and "combo" in err
    code, _, err = run(capsys, "tensor", "--group", "g1:1", "--degree", "2",
                       "--combo", "c999")
    assert code == 1


def test_basis_text_and_out_file(capsys, tmp_path):
    out_path = tmp_path / "basis.txt"
    code, _, _ = run(capsys, "basis", "--group", "g1:1", "--degree", "2",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    labels = [l.split()[0] for l in lines]
    assert labels == ["rep:1", "rep:2", "rep:3", "cob:2"]
    assert all(set(l.split()[1]) <= {"0", "1"} for l in lines)
    assert all(len(l.split()[1]) == 16 for l in lines)


def test_basis_json_mode_all(capsys):
    code, out, _ = run(capsys, "basis", "--group", "cyclic:2", "--degree", "3",
                       "--mode", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "all"
    assert len(doc["entries"]) == 13
    assert doc["entries"][0]["label"] == "rep:1"


def test_missing_model_exit_code(capsys):
    code, _, err = run(capsys, "basis", "--group", "d4t:2", "--degree", "3")
    assert code == 1
    assert "no built-in model" in err


def test_bad_group_spec(capsys):
    code, _, err = run(capsys, "cohomology", "--group", "g9:1", "--degree", "2")
    assert code == 1 and "bad group spec" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--group", "g1:1", "--degree", "3"])
    assert exc.value.code == 1


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--group", "g1:1", "--degree", "2")
    assert code == 0
    assert "0 failed" in out
    assert out.count("PASS") >= 15


def test_verify_warns_on_g2_odd_degree3(capsys):
    code, out, _ = run(capsys, "verify", "--group", "g2:3", "--degree", "3")
    assert code == 0
    assert "WARN hdim-tabulated" in out
    assert "1 warnings" in out


def test_verify_missing_model(capsys):
    code, _, err = run(capsys, "verify", "--group", "cyclic:2", "--degree", "2")
    assert code == 1 and "no built-in model" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_verify",
                        lambda spec, degree: [CheckResult("FAIL", "forced", "x")])
    code, out, _ = run(capsys, "verify", "--group", "g1:1", "--degree", "2")
    assert code == 2 and "FAIL forced" in out


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("COCYRED_WORKERS", "4")
    assert default_workers() == 4
    monkeypatch.setenv("COCYRED_WORKERS", "junk")
    assert default_workers() == 1
    monkeypatch.delenv("COCYRED_WORKERS")
    assert default_workers() == 1
