import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quasiflags.cli import HANDLERS, ic_stalk_table_from_json, main, stratum_records_from_json
from quasiflags.partitions import GammaPartition
from quasiflags.roots import GammaVec
from quasiflags.strata import enumerate_strata, ic_stalk_table


ROOT = Path(__file__).resolve().parents[1]
# exit code and stdout SHA-256 of every argv the benchmark runs, recorded
# at a known-good commit
RECORDED = json.loads((ROOT / "bench" / "cli_digests.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kostant_table_is_bare_polynomial(capsys):
    code, out, err = run_cli(capsys, "kostant", "--n", "3", "--gamma", "1,1")
    assert code == 0
    assert out == "1 + t\n"
    assert err == ""


def test_kostant_json(capsys):
    code, out, _ = run_cli(capsys, "kostant", "--n", "4", "--gamma", "1,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "kostant"
    assert payload["params"] == {"n": 4, "gamma": [1, 1, 1]}
    assert payload["result"]["coefficients"] == [1, 2, 1]
    assert payload["result"]["text"] == "1 + 2*t + t^2"


def test_kostant_csv(capsys):
    code, out, _ = run_cli(capsys, "kostant", "--n", "3", "--gamma", "2,2", "--format", "csv")
    assert code == 0
    assert out == "exponent,coefficient\n0,1\n1,1\n2,1\n"


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"n": 3}
    assert payload["result"]["coroots"][1] == {"p": 2, "q": 1, "gamma": [1, 1]}
    assert len(payload["result"]["coroots"]) == 3


def test_roots_csv(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "3", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "coroot,p,q,gamma"
    assert len(lines) == 4


def test_kpartitions_json(capsys):
    code, out, _ = run_cli(capsys, "kpartitions", "--n", "3", "--gamma", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 2
    first, second = payload["result"]["partitions"]
    assert first["kappa"] == [[1, 1, 1], [2, 2, 1]]
    assert first["mu"] == [1, 0, 1]
    assert first["stratum_dim"] == 0
    assert second["kappa"] == [[2, 1, 1]]
    assert second["mu"] == [1, 1, 1]
    assert second["stratum_dim"] == 1


def test_gamma_partitions_json(capsys):
    code, out, _ = run_cli(
        capsys, "gamma-partitions", "--n", "3", "--alpha", "1,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 2
    assert payload["result"]["partitions"] == [[[1, 1]], [[1, 0], [0, 1]]]


def test_strata_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "strata", "--n", "3", "--alpha", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["moduli_dim"] == 7
    assert payload["result"]["count"] == 5
    records = stratum_records_from_json(payload)
    assert records == enumerate_strata(3, GammaVec((1, 1)))


def test_ic_stalks_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "ic-stalks",
        "--n", "3",
        "--alpha", "1,1",
        "--beta", "0,0",
        "--parts", "1,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["parity_ok"] is True
    rebuilt = ic_stalk_table_from_json(payload)
    want = ic_stalk_table(
        3, GammaVec((1, 1)), GammaVec((0, 0)), GammaPartition.of(3, [GammaVec((1, 1))])
    )
    assert rebuilt == want


def test_ic_stalks_table_output(capsys):
    code, out, _ = run_cli(
        capsys, "ic-stalks", "--n", "3", "--alpha", "1,1", "--beta", "0,0", "--parts", "1,1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "parity ok"
    assert lines[1].split() == ["degree", "twist", "multiplicity"]
    assert lines[3].split() == ["-7", "0", "1"]
    assert lines[4].split() == ["-5", "1", "1"]


def test_ic_stalks_multipart(capsys):
    code, out, _ = run_cli(
        capsys,
        "ic-stalks",
        "--n", "3",
        "--alpha", "1,1",
        "--beta", "0,0",
        "--parts", "1,0;0,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["parts"] == [[1, 0], [0, 1]]
    assert payload["result"]["entries"] == [{"degree": -7, "twist": 0, "multiplicity": 1}]


def test_smallness_verdict_lines(capsys):
    code, out, _ = run_cli(capsys, "smallness", "--n", "2", "--alpha", "3")
    assert code == 0
    assert out.splitlines()[0] == "PASS (vacuous)"
    code, out, _ = run_cli(capsys, "smallness", "--n", "3", "--alpha", "1,1")
    assert code == 0
    assert out.splitlines()[0] == "PASS (min margin 1)"


def test_smallness_json(capsys):
    code, out, _ = run_cli(capsys, "smallness", "--n", "3", "--alpha", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    result = payload["result"]
    assert result["passed"] is True
    assert result["vacuous"] is False
    assert result["min_margin"] == 1
    assert result["witness"]["beta"] == [0, 0]
    assert result["witness"]["parts"] == [[1, 1]]
    assert result["aggregate"] == [{"fiber_dim": 1, "min_codim": 3, "ok": True}]


def test_fiber_count_verify_pass(capsys):
    code, out, _ = run_cli(
        capsys, "fiber-count", "--n", "3", "--gamma", "1,1", "--q", "2", "--verify"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS, total 3"
    assert lines[1].split() == ["mu", "expected", "actual", "ok"]
    assert lines[3].split() == ["1;0,1", "1", "1", "yes"]
    assert lines[4].split() == ["1;1,1", "2", "2", "yes"]


def test_fiber_count_json(capsys):
    code, out, _ = run_cli(
        capsys, "fiber-count", "--n", "3", "--gamma", "1,1", "--q", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["verify"] is False
    assert payload["result"]["total"] == 4
    assert payload["result"]["buckets"] == [
        {"mu": [1, 0, 1], "count": 1},
        {"mu": [1, 1, 1], "count": 3},
    ]


def test_fiber_count_verify_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "fiber-count",
        "--n", "2",
        "--gamma", "2",
        "--q", "3",
        "--verify",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    verify = payload["result"]["verify"]
    assert verify["passed"] is True
    assert verify["total_expected"] == 1
    assert verify["missing_mu"] == []
    assert verify["unexpected_mu"] == []
    assert verify["buckets"] == [{"mu": [2], "expected": 1, "actual": 1, "ok": True}]


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "kostant", "--n", "3", "--gamma", "1,1,1")[0] == 2
    assert run_cli(capsys, "kostant", "--n", "3", "--gamma", "1,x")[0] == 2
    assert run_cli(capsys, "kostant", "--n", "3", "--gamma", "1,-1")[0] == 2
    assert run_cli(capsys, "kostant", "--n", "1", "--gamma", "")[0] == 2
    assert run_cli(capsys, "ic-stalks", "--n", "3", "--alpha", "1,1", "--beta", "2,0", "--parts", "")[0] == 2
    assert run_cli(capsys, "ic-stalks", "--n", "3", "--alpha", "1,1", "--beta", "0,0", "--parts", "1,0")[0] == 2
    assert run_cli(capsys, "fiber-count", "--n", "3", "--gamma", "1,1", "--q", "4")[0] == 2


def test_usage_error_message_on_stderr(capsys):
    code, out, err = run_cli(capsys, "kostant", "--n", "3", "--gamma", "1,1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_command_exits_2(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_cap_exceeded_exit_3(capsys):
    assert run_cli(capsys, "roots", "--n", "9")[0] == 3
    assert run_cli(capsys, "fiber-count", "--n", "3", "--gamma", "1,1", "--q", "5")[0] == 3
    assert run_cli(capsys, "kpartitions", "--n", "3", "--gamma", "9,9")[0] == 3


def test_cap_overrides(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "9", "--cap-rank", "9", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 37
    code, out, _ = run_cli(
        capsys,
        "fiber-count",
        "--n", "2",
        "--gamma", "3",
        "--q", "5",
        "--cap-oracle-primes", "2,3,5",
        "--verify",
    )
    assert code == 0
    assert out.splitlines()[0] == "PASS, total 1"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["kostant", "--help"]) == 0
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "strata", "--n", "3", "--alpha", "2,1", "--format", "json")
    second = run_cli(capsys, "strata", "--n", "3", "--alpha", "2,1", "--format", "json")
    assert first == second
    third = run_cli(
        capsys, "fiber-count", "--n", "3", "--gamma", "2,1", "--q", "2", "--verify", "--format", "csv"
    )
    fourth = run_cli(
        capsys, "fiber-count", "--n", "3", "--gamma", "2,1", "--q", "2", "--verify", "--format", "csv"
    )
    assert third == fourth


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quasiflags", "kostant", "--n", "3", "--gamma", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + t\n"


def test_oracle_q_outside_allowed_primes_is_classified_quickly(capsys):
    argv = ("fiber-count", "--n", "3", "--gamma", "1,1", "--q")
    assert run_cli(capsys, *argv, "4")[0] == 2
    assert run_cli(capsys, *argv, "5")[0] == 3
    start = time.perf_counter()
    assert run_cli(capsys, *argv, "1000000000000000000000007")[0] == 3  # prime
    assert run_cli(capsys, *argv, str(1000000000000000000000007 * 1000003))[0] == 2
    assert run_cli(capsys, *argv, str(2**4423 - 1))[0] == 3  # prime, 1,332 digits
    assert time.perf_counter() - start < 1.0


def test_plain_fiber_count_obeys_the_oracle_caps_alone(capsys):
    argv = ("fiber-count", "--n", "9", "--gamma", "0,0,0,0,0,0,0,1", "--q", "2")
    argv += ("--cap-oracle-rank", "9")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "total 1"
    # --verify also checks the calculus caps, whose rank cap is 8
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert code == 3 and out == ""
    assert "rank cap 8" in err


def test_broken_pipe_exits_as_an_unbroken_run():
    argv = ["strata", "--n", "4", "--alpha", "3,3,3", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "quasiflags", *argv]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err


def _vector(draw, n):
    # mostly n - 1 entries in 0..2; sometimes a wrong count, a negative or garbage entry
    size = draw(st.sampled_from([max(n - 1, 0)] * 6 + [0, 1, max(n, 0)]))
    entry = st.sampled_from(["0", "1", "2"] * 8 + ["-1", "x", "", " ", "1.5", "+1"])
    return ",".join(draw(st.lists(entry, min_size=size, max_size=size)))


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(HANDLERS)))
    n = draw(st.sampled_from([2, 3, 4] * 4 + [-1, 0, 1]))
    argv = [command, "--n", str(n), "--format", draw(st.sampled_from(["table", "json", "csv"]))]
    names = {
        "kpartitions": ["gamma"], "kostant": ["gamma"], "fiber-count": ["gamma"],
        "gamma-partitions": ["alpha"], "strata": ["alpha"], "smallness": ["alpha"],
        "ic-stalks": ["alpha", "beta"],
    }.get(command, [])
    for name in names:
        argv += [f"--{name}", _vector(draw, n)]
    if command == "ic-stalks":
        argv += ["--parts", ";".join(_vector(draw, n) for _ in range(draw(st.integers(0, 2))))]
    if command == "fiber-count":
        argv += ["--q", str(draw(st.integers(-1, 5)))]
        if draw(st.booleans()):
            argv.append("--verify")
    for cap in ("rank", "length", "oracle-rank", "oracle-length", "lattice-volume"):
        if draw(st.integers(0, 5)) == 0:
            argv += [f"--cap-{cap}", str(draw(st.integers(-2, 0)))]
    if draw(st.integers(0, 5)) == 0:
        argv += ["--cap-oracle-primes", draw(st.sampled_from(["0", "-1", "", "0,-2", "x"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.remove(draw(st.sampled_from(argv)))
    return argv


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cli_argvs())
def test_fuzzed_argv_exits_0_to_3_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


def test_volume_cap_fires_before_any_enumeration(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "fiber-count", "--n", "8", "--gamma", "0,0,0,0,0,0,30", "--q", "2",
        "--cap-oracle-rank", "8", "--cap-oracle-length", "30",
    )
    assert code == 3 and out == ""
    assert "exceed the volume cap 1000000" in err
    assert time.perf_counter() - start < 1.0


def test_output_matches_recorded_digests(capsys):
    differ = []
    for key, want in sorted(RECORDED.items()):
        # split(" ") keeps the empty argument of `--parts ""`
        code, out, _ = run_cli(capsys, *key.split(" "))
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (want["exit"], want["sha256"]):
            differ.append(key)
    assert differ == []


def test_output_does_not_depend_on_hash_seed():
    for argv in (
        ["strata", "--n", "4", "--alpha", "2,1,1", "--format", "json"],
        ["fiber-count", "--n", "3", "--gamma", "2,1", "--q", "2", "--verify", "--format", "csv"],
    ):
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
            cmd = [sys.executable, "-m", "quasiflags", *argv]
            outputs.add(subprocess.run(cmd, env=env, capture_output=True, check=True).stdout)
        assert len(outputs) == 1, argv
