import hashlib
import json
import tracemalloc

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


def test_search_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--group", "g1:1", "--degree", "3",
                         "--test", "improper", "--sample", "4096", "--seed", "-1")
    assert code == 1 and out == "" and "seed must be nonnegative" in err


def test_search_negative_witness_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--group", "g1:1", "--degree", "3",
                         "--test", "improper", "--max-witnesses", "-5")
    assert code == 1 and out == "" and "nonnegative" in err


def test_verify_checks_group_axioms_above_order_64(capsys):
    code, out, _ = run(capsys, "verify", "--group", "g1:17", "--degree", "2")
    assert code == 0
    assert ("PASS group-axioms: associativity/identity/inverse/Latin-square "
            "exhaustive, order 68\n") in out


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


@pytest.mark.parametrize("command", ["basis", "verify"])
def test_missing_model_exit_code(capsys, command):
    code, _, err = run(capsys, command, "--group", "d4t:2", "--degree", "3")
    assert code == 1
    assert err == "error: no built-in model for this family/degree pair " \
        "(d4t:2, degree 3)\n"


@pytest.mark.parametrize("degree", ["1", "0"])
def test_degree_below_two_exit_code(capsys, degree):
    code, out, err = run(capsys, "cohomology", "--group", "g1:1",
                         "--degree", degree)
    assert code == 1 and out == ""
    assert err == "error: no built-in model for this family/degree pair " \
        f"(g1:1, degree {degree})\n"


def test_cohomology_degree4(capsys):
    code, out, _ = run(capsys, "cohomology", "--group", "g1:1", "--degree", "4")
    assert code == 0 and "dim H^4 = 5" in out


def test_oversized_reduction_refused(capsys):
    # g1:3 at degree 5 would unpack a basis of about 5 GB; it is refused
    # before any cochain is allocated.  g1:2 at degree 5 (about 155 MB)
    # fits the budget
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "cohomology", "--group", "g1:3",
                             "--degree", "5")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == "error: degree-5 cocycle basis needs 5860295680 bytes at " \
        "v = 12, over the 268435456-byte budget\n"
    assert peak < 1 << 24
    code, out, _ = run(capsys, "cohomology", "--group", "g1:2", "--degree", "5")
    assert code == 0 and "dim H^5 = 6" in out


@pytest.mark.parametrize("command", ["cohomology", "verify"])
def test_oversized_model_refused(capsys, command):
    # g1:6 at degree 6 would build a lift table of 24^6 x 7 bytes and its
    # int64 terms, about 6 GB; it is refused before the group is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, "--group", "g1:6", "--degree", "6")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == "error: degree-6 model needs 5924284416 bytes at v = 24, " \
        "over the 268435456-byte budget\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("command,extra", [
    ("cohomology", ()), ("basis", ()), ("tensor", ("--combo", "r1")),
    ("search", ("--test", "improper")), ("verify", ())])
def test_oversized_basis_refused_before_model(capsys, command, extra):
    # g1:3 at degree 6 has a model of about 93 MB, within the budget, but a
    # cocycle basis of 842 GB: refused, with the reduction's message,
    # before the model is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, "--group", "g1:3", "--degree",
                             "6", *extra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == "error: degree-6 cocycle basis needs 842229686272 bytes " \
        "at v = 12, over the 268435456-byte budget\n"
    assert peak < 4 << 20


@pytest.mark.parametrize("command,extra", [
    ("basis", ("--out",)), ("tensor", ("--combo", "r1", "--out")),
    ("search", ("--test", "improper", "--dump"))])
def test_unwritable_output_is_usage_error(capsys, tmp_path, command, extra):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, command, "--group", "g1:1", "--degree", "2",
                         *extra, str(path))
    assert code == 1
    assert err.endswith(f"error: [Errno 2] No such file or directory: "
                        f"'{path}'\n")


def test_unwritable_dump_refused_before_the_walk(capsys, tmp_path, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the span was walked")

    monkeypatch.setattr(cli, "enumerate_span", walk)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "search", "--group", "g1:1", "--degree", "3",
                         "--test", "improper", "--dump", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_refused_search_keeps_an_existing_dump(capsys, tmp_path):
    dump = tmp_path / "w.json"
    dump.write_text("kept\n")
    code, out, _ = run(capsys, "search", "--group", "cyclic:5", "--degree",
                       "3", "--test", "improper", "--dump", str(dump))
    assert (code, out) == (3, "")
    assert dump.read_text() == "kept\n"
    # a search that runs replaces it
    code, _, _ = run(capsys, "search", "--group", "g1:1", "--degree", "3",
                     "--test", "improper", "--dump", str(dump))
    assert code == 0 and json.loads(dump.read_text())["hits"]["improper"] == 64


@pytest.mark.parametrize("command", ["cohomology", "verify"])
def test_bad_group_spec(capsys, command):
    code, _, err = run(capsys, command, "--group", "g9:1", "--degree", "2")
    assert code == 1
    assert err == "error: bad group spec 'g9:1'; expected g1:t, g2:t, " \
        "d4t:t or cyclic:t\n"


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


# sha256 of main(argv) stdout: a refactor must keep every digest.  Cases
# whose oracle is skipped are left out, because the SKIP text quotes a byte
# count that depends on sys.int_info.
GOLDEN_STDOUT = {
    "cohomology --group g1:1 --degree 2":
        "fde600fe874b905bf64c37ee46e40877817ea4b340a8b0aa634563b3cb5353d1",
    "basis --group g1:1 --degree 2 --format json":
        "4c3849036469edfbed9f4f8093ba5769510c7a3fbab2020b54e4fe923739fed0",
    "basis --group g1:1 --degree 2 --format json --mode all":
        "e0f4bfee5049133c948b5e2e49ce2627b8e6548b2c1555018f3fb4a2f2f59dc5",
    "verify --group g1:1 --degree 2":
        "bef364fc16d2711977f2f8c9acaa9d38097d31f7b0c7468f608c58a19600b5ed",
    "cohomology --group g1:3 --degree 2":
        "44157aa4f47c5894c92c625346d4b98e0881a149d9d6904854c24dc8c114880c",
    "basis --group g1:3 --degree 2 --format json":
        "721ff967e9f30fd584fadb0fc2ba73016576492fe5cf401df0e98fcfdad9d2e6",
    "basis --group g1:3 --degree 2 --format json --mode all":
        "fbdf0a31722be48ec69c6c04f6695595adc8b4daa67a5249b0263a36f6fbe2d6",
    "verify --group g1:3 --degree 2":
        "b7ac071e2d6651f1afca7acc76c31c2a37759c958f72540df6ff7a532a9e7355",
    "cohomology --group g2:3 --degree 2":
        "b3aa9f386fa031c93c5e08dc6a57e03cd8fd5de4e01cdca79a6f29f6c3c94cf2",
    "basis --group g2:3 --degree 2 --format json":
        "1fcec67e79dc953a136ba44df1e99b76d94b89f186eb7436e52295c9926591a3",
    "basis --group g2:3 --degree 2 --format json --mode all":
        "1ee6dfbd81bf09db40e5d0953e170c5a7da44cdbccef07280b5115b5fa97e3a6",
    "verify --group g2:3 --degree 2":
        "1c7baa0c27da13690665432a59f912193fb286af9c5d2b7e568e1ad738cd5e64",
    "cohomology --group d4t:3 --degree 2":
        "56bf64e9af1b64b29a288d82cd78da30ae5f446a3bf9c5ec168a35dda7c79f3c",
    "basis --group d4t:3 --degree 2 --format json":
        "41d0b92583f282b049f34b085ebc932c8da276a3e4ca39dc6426d30393c8ca31",
    "basis --group d4t:3 --degree 2 --format json --mode all":
        "e7042224c2a0a0e15f263defccca33e5ee77ddd9170743e923bcfc6dc713baaa",
    "verify --group d4t:3 --degree 2":
        "643fd6b59b533b1416581564de22a1e491d4b79eded5e96cf05bfad167fd329e",
    "cohomology --group g1:1 --degree 3":
        "f27f426c643e9a848d5bcda65e8c3b1c90d7b7dd596d0a091132eda2d3e36b41",
    "basis --group g1:1 --degree 3 --format json":
        "48f07ae3df8602c72d93dd42690fc36547da24dafadb37b3b0b42d9a0ecc3a4c",
    "basis --group g1:1 --degree 3 --format json --mode all":
        "48f07ae3df8602c72d93dd42690fc36547da24dafadb37b3b0b42d9a0ecc3a4c",
    "verify --group g1:1 --degree 3":
        "2d648bf54ff90ba0fe0c1eb1689d31d16855543281df2e667812cd952c2d0a6f",
    "cohomology --group g1:3 --degree 3":
        "7ee710e2d322c3f3deb921d1047e8d7139dc9fde14bec7cd7c0c95d8f5dc771d",
    "basis --group g1:3 --degree 3 --format json":
        "a2908511beef8749b449e7d67b630809e340f67df3828b2ec6bd0b703ca76c9c",
    "basis --group g1:3 --degree 3 --format json --mode all":
        "a2908511beef8749b449e7d67b630809e340f67df3828b2ec6bd0b703ca76c9c",
    "verify --group g1:3 --degree 3":
        "700b22f2d1f20da7c66385139e209c6879986bac0f5526730a8bf615e0db6070",
    "cohomology --group g2:2 --degree 3":
        "4816d55a2177c211af4d402202f76fd3d54fa28aedc1ad66f8873e19b2d2ebdf",
    "basis --group g2:2 --degree 3 --format json":
        "6d717f70fe79399f893b8f6d460d0531faa2b26eac20e2223ba2ea13dae2d745",
    "basis --group g2:2 --degree 3 --format json --mode all":
        "6d717f70fe79399f893b8f6d460d0531faa2b26eac20e2223ba2ea13dae2d745",
    "verify --group g2:2 --degree 3":
        "95aed82c7e64a6fc107f26305a9a07afd5d5191f9050c31527e7cd7b3b7e6506",
    "cohomology --group cyclic:5 --degree 3":
        "e156493055277fe03a1f0a4cb9df1e5a8e05c3fa29de7705266b11b2c6321639",
    "basis --group cyclic:5 --degree 3 --format json":
        "86e756bdb4a1b0aa6b9b7b892f6b455f4cfd46ba187703e7e684645ccbe26add",
    "basis --group cyclic:5 --degree 3 --format json --mode all":
        "86e756bdb4a1b0aa6b9b7b892f6b455f4cfd46ba187703e7e684645ccbe26add",
    "verify --group cyclic:5 --degree 3":
        "4a28dcc5142f7235170e21a79cd059e4468aa38dafd4e32b69a0c32029e6fb3e",
    "search --group g1:1 --degree 3 --test improper":
        "9710ee268fb180d46cdf58b7d7c281aeb7a5782f038e6d54fb55ffc1f4778373",
    "search --group d4t:3 --degree 2 --test hadamard2d":
        "81a9bde6d14067a73b331cb27ed948ea2625f2fa2ae8784ce7a2535b100e6cae",
}


def test_golden_stdout(capsys):
    got = {}
    for cmd in GOLDEN_STDOUT:
        code, out, _ = run(capsys, *cmd.split())
        assert code == 0, cmd
        got[cmd] = hashlib.sha256(out.encode()).hexdigest()
    assert got == GOLDEN_STDOUT


@pytest.mark.parametrize("group,degree,test,dim", [
    ("g1:1", "3", "improper", 4), ("d4t:3", "2", "hadamard2d", 0)])
def test_search_reports_quotient_dim(capsys, group, degree, test, dim):
    code, out, err = run(capsys, "search", "--group", group, "--degree",
                         degree, "--test", test)
    assert code == 0
    assert f"quotient_dim: {dim}\n" in err
    assert "quotient_dim" not in out


@pytest.mark.parametrize("group,degree,test,head", [
    ("g1:1", "3", "improper", "2"), ("g1:3", "2", "hadamard2d", "5 4 1")])
def test_search_reports_head_pairs(capsys, group, degree, test, head):
    code, out, err = run(capsys, "search", "--group", group, "--degree",
                         degree, "--test", test)
    assert code == 0
    assert f"head_pairs: {head}\n" in err
    assert "head_pairs" not in out
