import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import accumulate, groupby
from operator import attrgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from quasiflags import cli, kostant, oracle, strata
from quasiflags.cli import HANDLERS, ic_stalk_table_from_json, main, stratum_records_from_json
from quasiflags.kostant import IntPolynomial
from quasiflags.limits import DEFAULT_CAPS, CapExceededError, Caps
from quasiflags.partitions import GammaPartition, gamma_partitions, kappa_partitions, kappa_to_nu, mu_triangles, nu_to_mu
from quasiflags.roots import GammaVec, Interval
from quasiflags.strata import enumerate_strata, ic_stalk_table, smallness_report


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


def test_long_gamma_under_raised_caps(capsys):
    # counted without recursion, so a length far past the default cap runs
    code, out, err = run_cli(capsys, "kostant", "--n", "2", "--gamma", "1000", "--cap-length", "1000")
    assert (code, out, err) == (0, "1\n", "")


def test_a_box_too_large_to_index_exits_3(capsys):
    # a box of more vectors than sys.maxsize is refused before it is built, not by an
    # OverflowError from the list it would be
    huge, cap = str(10**22), ("--cap-length", str(10**23))
    for argv in (
        ("kostant", "--n", "2", "--gamma", huge),
        ("gamma-partitions", "--n", "2", "--alpha", huge),
        ("strata", "--n", "2", "--alpha", huge),
        ("smallness", "--n", "2", "--alpha", huge),
        ("ic-stalks", "--n", "2", "--alpha", huge, "--beta", "0", "--parts", huge),
    ):
        code, out, err = run_cli(capsys, *argv, *cap)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: the box 0 <= v <= (") and "Traceback" not in err, argv
    caps = Caps(max_length=10**23)
    for call in (kostant.kostant_poly, gamma_partitions, lambda v, caps: enumerate_strata(2, v, caps=caps)):
        with pytest.raises(CapExceededError, match="more than an index reaches"):
            call(GammaVec((10**22,)), caps=caps)
    # kpartitions lists coroot partitions without the box, and answers
    code, out, _ = run_cli(capsys, "kpartitions", "--n", "2", "--gamma", huge, *cap)
    assert (code, out.splitlines()[-1].split()[1:]) == (0, [huge, huge, "0"])


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


def test_strata_json_reader_refuses_non_int_trailing_zeros():
    # the open stratum of (3, (1,1)), whose fiber polynomial is 1
    opened = {"beta": [1, 1], "parts": [], "m": 0, "stratum_dim": 7, "codim": 0, "fiber_dim": 0}
    assert stratum_records_from_json({"result": {"strata": [{**opened, "fiber_poincare": [1, 0]}]}})
    for zero in (0.0, False):
        payload = {"result": {"strata": [{**opened, "fiber_poincare": [1, zero]}]}}
        with pytest.raises(ValueError, match="coefficient must be a nonnegative integer"):
            stratum_records_from_json(payload)


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
    for argv, message in (
        (("ic-stalks", "--n", "3", "--alpha", "1,1", "--beta", "1,1", "--parts", "0,0"),
         "error: --parts entries must be nonzero vectors\n"),
        (("roots", "--n", "3", "--cap-rank", "x"), "argument --cap-rank: invalid int value: 'x'\n"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(message), argv


def test_unknown_command_exits_2(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    # only the named subcommand's flags are built, and no other subcommand's
    for argv in (
        ["strata", "--n", "3", "--alpha", "1,1", "--q", "2"],
        ["kostant", "--n", "3", "--gamma", "1,1", "--parts", "1,1"],
        ["roots", "--n", "3", "--verify"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments" in err, argv


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


def test_negative_caps_are_usage_errors(capsys):
    argv = ("fiber-count", "--n", "3", "--gamma", "1,1", "--q", "2")
    for flag in ("rank", "length", "oracle-rank", "oracle-length", "lattice-volume"):
        code, out, err = run_cli(capsys, *argv, f"--cap-{flag}", "-1")
        assert (code, out) == (2, ""), flag
        assert f"argument --cap-{flag}: must be nonnegative, got -1" in err
    code, out, err = run_cli(capsys, *argv, "--cap-oracle-primes", "2,-3")
    assert (code, out) == (2, "")
    assert "entries must be nonnegative" in err
    # zero is still a cap, which the input then exceeds
    assert run_cli(capsys, "kpartitions", "--n", "3", "--gamma", "1,1", "--cap-length", "0")[0] == 3
    assert run_cli(capsys, *argv, "--cap-lattice-volume", "0")[0] == 3


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert [name for name in HANDLERS if name not in out] == []
    assert main(["kostant", "--help"]) == 0
    capsys.readouterr()
    assert main(["strata", "--help"]) == 0
    out = capsys.readouterr().out
    flags = ("--n", "--alpha", "--format", "--cap-rank", "--cap-length", "--cap-oracle-rank",
             "--cap-oracle-length", "--cap-oracle-primes", "--cap-lattice-volume")
    assert [flag for flag in flags if flag not in out] == []
    assert "--q" not in out and "--parts" not in out


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


def test_process_entry_answers_as_main_does_in_process(capsys):
    # an answer, a usage error from the handler and one from the parser, and a cap
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    codes = []
    for argv in (
        ("kostant", "--n", "3", "--gamma", "1,1"),
        ("kostant", "--n", "3", "--gamma", "1,x"),
        ("roots", "--n", "3", "extra"),
        ("roots", "--n", "9"),
    ):
        proc = subprocess.run([sys.executable, "-m", "quasiflags", *argv], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv), argv
        codes.append(proc.returncode)
    assert codes == [0, 2, 2, 3]


def test_process_entry_freezes_the_heap_and_still_runs_atexit():
    # run() freezes the heap once main returns; the atexit handlers run after it
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr))\n"
        "runpy.run_module('quasiflags', run_name='__main__', alter_sys=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, status, out in ((("kostant", "--n", "3", "--gamma", "1,1"), 0, "1 + t\n"), (("roots", "--n", "9"), 3, "")):
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (status, out), argv
        assert proc.stderr.endswith("atexit True True\n"), argv


def test_process_entry_runs_no_collection_inside_main():
    # gc.callbacks sees each collection start: none while cli.main runs under run(), though
    # this listing of 249 strata starts young collections with the collector on; at exit the
    # collector is on again and the heap frozen
    code = (
        "import atexit, gc, runpy, sys\n"
        "import quasiflags.cli as cli\n"
        "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info['generation']))\n"
        "real = cli.main\n"
        "def main(argv=None):\n"
        "    before = len(starts)\n"
        "    try:\n"
        "        return real(argv)\n"
        "    finally:\n"
        "        print('inside', len(starts) - before, gc.isenabled(), file=sys.stderr)\n"
        "cli.main = main\n"
        "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr))\n"
        "runpy.run_module('quasiflags', run_name='__main__', alter_sys=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ("strata", "--n", "4", "--alpha", "2,2,2", "--format", "json")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["count"] == len(enumerate_strata(4, GammaVec((2, 2, 2))))
    assert proc.stderr == "inside 0 False\natexit True True\n"


def test_entry_module_import_and_main_leave_the_collector_alone(capsys):
    # the entry module freezes only when run as __main__; tests and the benchmark call main in-process
    code = (
        "import gc\n"
        "state = lambda: (gc.get_freeze_count(), gc.isenabled())\n"
        "before = state()\n"
        "import quasiflags.__main__\n"
        "imported = state()\n"
        "quasiflags.__main__.main(['kostant', '--n', '3', '--gamma', '1,1'])\n"
        "print(before == imported == state(), before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "1 + t\nTrue (0, True)\n"), proc.stderr
    before = gc.get_freeze_count(), gc.isenabled()
    import quasiflags.__main__  # noqa: F401

    assert run_cli(capsys, "kostant", "--n", "3", "--gamma", "1,1")[:2] == (0, "1 + t\n")
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# the parser's usage line names all eight subcommands, though only the one in argv is built;
# Python 3.13 keeps the "..." of the subcommand's arguments on the line of the names
PARSE_ERROR_USAGES = (
    "usage: quasiflags [-h]\n"
    "                  {roots,kpartitions,kostant,gamma-partitions,strata,smallness,ic-stalks,fiber-count}\n"
    "                  ...\n",
    "usage: quasiflags [-h]\n"
    "                  {roots,kpartitions,kostant,gamma-partitions,strata,smallness,ic-stalks,fiber-count} ...\n",
)


def test_parse_error_usage_names_every_subcommand(capsys):
    for argv, message in (
        (("roots", "--n", "3", "extra"), "quasiflags: error: unrecognized arguments: extra\n"),
        (("strata", "--n", "3", "--alpha", "1,1", "--bogus"), "quasiflags: error: unrecognized arguments: --bogus\n"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err in [usage + message for usage in PARSE_ERROR_USAGES], argv
    # the full parser's errors still name the positional by its dest
    for argv, message in ((["bogus"], "argument command: invalid choice: 'bogus'"), ([], "required: command\n")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("usage: quasiflags [-h]\n") and message in err, argv


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
    # every format prints over 64 KiB here, more than a pipe holds, so the
    # reader goes in the middle of the stream
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for fmt, head in (("table", b"beta "), ("json", b"{"), ("csv", b"beta,")):
        cmd = [sys.executable, "-m", "quasiflags", "strata", "--n", "4", "--alpha", "3,3,3", "--format", fmt]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10).startswith(head), fmt
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b""), fmt


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


def test_a_huge_colength_passes_the_volume_cap_in_little_memory():
    # the volume check keeps only the counts its recurrence reads, not one per unit of colength
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "quasiflags", "fiber-count", "--n", "2", "--gamma", "1000000000", "--q", "2",
            "--cap-oracle-length", "1000000000"]
    runs = [
        subprocess.run(cmd, env=env, capture_output=True, text=True, preexec_fn=cap_address_space)
        for cmd in (argv, [*argv, "--verify"])
    ]
    plain, verify = ((p.returncode, p.stdout.split("\n", 1)[0], p.stderr) for p in runs)
    assert plain == (0, "total 1", "")
    # the calculus's length cap refuses it, after the oracle's caps pass
    assert verify == (3, "", "error: total degree 1000000000 exceeds the length cap 12\n")


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


_JSON_INTS = st.integers(-10**40, 10**40)
# escapes, control characters, non-ASCII and astral code points
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001d11e'), st.characters())
)
# library values, few enough that one recurs at several depths of a drawn value: the writer keeps
# the text of a degree vector or polynomial per indent, and a partition reads its parts' kept texts
_LIBRARY_VALUES = st.sampled_from([
    GammaVec((1, 0)), GammaVec((0, 1)), GammaVec((1,)), GammaVec((2, 0, 1)),
    IntPolynomial(()), IntPolynomial((1,)), IntPolynomial((1, 0, 2)),
    GammaPartition.of(3, []), *gamma_partitions(GammaVec((1, 1))), *gamma_partitions(GammaVec((2, 0, 1))),
    *kappa_partitions(GammaVec((1, 1))), *mu_triangles(GammaVec((2, 1))),
])
_JSON_LEAVES = st.one_of(_JSON_INTS, st.booleans(), _LIBRARY_VALUES)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), _JSON_TEXT, _JSON_LEAVES, st.lists(_JSON_LEAVES)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


def _json(obj):
    """What cli._write_json writes for obj, its pieces joined."""
    pieces = []
    cli._write_json(obj, "", pieces.append)
    return "".join(pieces)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_JSON_VALUES)
@example({"ints": [1, -2, 10**39], "flags": [1, True, 0, False], "empty": [[], {}], "none": None})
@example({"caf\xe9 \"q\"\n": ["\U0001d11e\t\\"]})
@example([GammaVec((1, 0)), [GammaVec((1, 0)), gamma_partitions(GammaVec((1, 1)))], {"p": IntPolynomial(())}])
def test_json_writer_matches_json_dumps_indent_2(obj):
    want = json.dumps(obj, indent=2, default=helpers._json_form)
    assert _json(obj) == want
    # streamed into a text stream, in chunks small enough to split the lists drawn
    buf = io.StringIO()
    with mock.patch.object(cli, "_CHUNK", 1):
        cli._write_json(obj, "", buf.write)
    assert buf.getvalue() == want


@settings(derandomize=True, deadline=None, max_examples=40)
@given(helpers.small_alphas(), st.sampled_from([1, 2, cli._CHUNK]))
def test_streamed_atlas_matches_the_one_string_reference(alpha, chunk):
    # gamma-partitions and kpartitions list library values outside rows, so that a chunk of 1 or
    # 2 streams them through the JSON writer's long-list path; strata and smallness are checked
    # against their records' rows, as the commands write no row tuples
    for command in ("strata", "smallness", "gamma-partitions", "kpartitions"):
        handler, _, (flag,) = HANDLERS[command]
        argv = ["--n", str(alpha.n), f"--{flag}", ",".join(map(str, alpha.coeffs))]
        if command in ("strata", "smallness"):
            out = helpers.listing_output(command, alpha)
        else:
            out = handler(None, DEFAULT_CAPS, alpha.n, alpha)
        for fmt in ("table", "json", "csv"):
            want = helpers.reference_output(fmt, command, {"n": alpha.n, flag: alpha}, out)
            buf = io.StringIO()
            with mock.patch.object(cli, "_CHUNK", chunk), contextlib.redirect_stdout(buf):
                main([command, *argv, "--format", fmt])
            assert buf.getvalue() == want, (command, fmt)


# the last, the open stratum alone, is a listing of one row and no tail
_LISTING_EXAMPLES = (
    GammaVec((0, 2, 0, 1)), GammaVec((3, 0)), GammaVec((0, 0, 3)), GammaVec((4,)), GammaVec((0, 0)),
)


def _listing_examples(test):
    for alpha in _LISTING_EXAMPLES:
        test = example(alpha)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=30)
@given(helpers.small_alphas())
@_listing_examples
def test_the_tree_walk_gives_each_records_row(alpha):
    # every row value that the commands write from the prefix tree is that of the stratum's record:
    # beta the span's, the partition read from the stratum's key, and the rest from the first
    # record of the stratum's group at its |beta|
    records = enumerate_strata(alpha.n, alpha)
    vecs, keys, groups, spans, firsts = strata._rows(alpha.n, alpha, DEFAULT_CAPS)
    assert len(keys) == len(groups) == len(records)
    # one span per run of records of one beta
    runs = list(accumulate(len(list(run)) for _, run in groupby(records, attrgetter("beta"))))
    assert [(lo, hi) for lo, hi, _ in spans] == list(zip([0, *runs], runs))
    assert [beta for _, _, beta in spans] == [records[lo].beta for lo, _, _ in spans]
    # one entry per (|beta|, group), the first stratum's, in listing order; no pair repeats
    first = {}
    for i, (rec, g) in enumerate(zip(records, groups)):
        first.setdefault((rec.beta.length, g), i)
    assert firsts == [(g, records[i]) for (_, g), i in first.items()]
    held = {(rec.beta.length, g): rec for g, rec in firsts}
    for lo, hi, beta in spans:
        for i in range(lo, hi):
            parts = GammaPartition.of(alpha.n, [vecs[ord(c)] for c in keys[i]])
            for row_of in (cli._stratum, strata._smallness_row):
                values = row_of(held[beta.length, groups[i]])
                assert (beta, parts) + values[2:] == row_of(records[i]), (i, row_of)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(helpers.small_alphas())
@_listing_examples
def test_streamed_listings_match_their_records_rows(alpha):
    # strata and smallness in each format and at three chunk sizes, against the one-string
    # reference of their records' row tuples; the five smallness summaries are the report's
    argv = ["--n", str(alpha.n), "--alpha", ",".join(map(str, alpha.coeffs))]
    for command in ("strata", "smallness"):
        out = helpers.listing_output(command, alpha)
        for fmt in ("table", "json", "csv"):
            want = helpers.reference_output(fmt, command, {"n": alpha.n, "alpha": alpha}, out)
            for chunk in (1, 2, cli._CHUNK):
                buf = io.StringIO()
                with mock.patch.object(cli, "_CHUNK", chunk), contextlib.redirect_stdout(buf):
                    main([command, *argv, "--format", fmt])
                assert buf.getvalue() == want, (command, fmt, chunk)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["smallness", *argv, "--format", "json"])
    result = json.loads(buf.getvalue())["result"]
    report = smallness_report(alpha.n, alpha)
    witness = result["witness"] and stratum_records_from_json({"result": {"strata": [result["witness"]]}})[0]
    assert (result["passed"], result["vacuous"], result["min_margin"], witness) == (
        report.passed, report.vacuous, report.min_margin, report.witness
    )
    assert [tuple(a.values()) for a in result["aggregate"]] == list(report.aggregate)


@pytest.mark.parametrize("chunk", [1, 2, cli._CHUNK])
def test_streamed_stalks_and_counts_match_the_one_string_reference(chunk):
    # the other commands whose JSON lists their rows as objects: ic-stalks, and fiber-count
    # with its buckets as the result's or, under --verify, inside "verify"
    for command, argv in (
        ("ic-stalks", "--n 4 --alpha 2,2,1 --beta 0,1,0 --parts 1,1,1;1,0,0"),
        ("ic-stalks", "--n 3 --alpha 1,1 --beta 1,1"),
        ("fiber-count", "--n 3 --gamma 2,1 --q 2"),
        ("fiber-count", "--n 3 --gamma 2,1 --q 2 --verify"),
    ):
        args = cli.build_parser(command).parse_args([command, *argv.split()])
        handler, _, flags = HANDLERS[command]
        vectors = [cli._parse_vector(getattr(args, flag), args.n, flag) for flag in flags]
        out = handler(args, DEFAULT_CAPS, args.n, *vectors)
        params = {"n": args.n, **dict(zip(flags, vectors)), **out.params}
        for fmt in ("table", "json", "csv"):
            want = helpers.reference_output(fmt, command, params, out)
            buf = io.StringIO()
            with mock.patch.object(cli, "_CHUNK", chunk), contextlib.redirect_stdout(buf):
                main([command, *argv.split(), "--format", fmt])
            assert buf.getvalue() == want, (command, argv, fmt)


def test_json_writer_writes_each_library_value_as_its_schema_says():
    kappa = kappa_partitions(GammaVec((1, 1)))[0]
    mu = nu_to_mu(kappa_to_nu(kappa))
    parts = GammaPartition.of(3, [GammaVec((1, 0)), GammaVec((0, 1))])
    for value, plain in (
        (GammaVec((1, 0)), [1, 0]),
        (IntPolynomial((1, 0, 2)), [1, 0, 2]),
        (parts, [[1, 0], [0, 1]]),
        (GammaPartition.of(3, []), []),
        (mu, [1, 0, 1]),
        (kappa, [[1, 1, 1], [2, 2, 1]]),
        ({"v": [GammaVec((2,))]}, {"v": [[2]]}),
    ):
        assert _json(value) == json.dumps(plain, indent=2), value


def test_json_writer_refuses_other_types():
    record = enumerate_strata(2, GammaVec((1,)))[0]
    for obj in ((1, 2), 1.5, {"k": {1}}, Interval(1, 1), record, [record]):
        with pytest.raises(TypeError):
            _json(obj)


def _loaded_modules(*argv):
    """Exit code, stdout and the modules imported by `python -m quasiflags ARGV`."""
    # runpy runs the package as -m does; the module names are the last line on stderr
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*sys.modules, file=sys.stderr))\n"
        "runpy.run_module('quasiflags', run_name='__main__', alter_sys=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, set(proc.stderr.splitlines()[-1].split())


def test_subcommands_load_only_the_modules_they_use():
    unused = {"quasiflags.oracle", "quasiflags.gfpoly", "csv"}
    code, out, loaded = _loaded_modules("kostant", "--n", "3", "--gamma", "1,1")
    assert (code, out) == (0, "1 + t\n")
    assert "quasiflags.kostant" in loaded and not unused & loaded
    code, out, loaded = _loaded_modules("strata", "--n", "3", "--alpha", "1,1", "--format", "json")
    assert code == 0 and json.loads(out)["command"] == "strata"
    assert not unused & loaded
    code, out, loaded = _loaded_modules("fiber-count", "--n", "3", "--gamma", "1,1", "--q", "2", "--verify")
    assert code == 0 and out.startswith("PASS, total ")
    assert {"quasiflags.oracle", "quasiflags.gfpoly"} <= loaded
    code, out, loaded = _loaded_modules("roots", "--n", "3", "--format", "csv")
    assert code == 0 and out.startswith("coroot,p,q,gamma\n") and "csv" in loaded


# exit 1: the library is patched to disagree with itself, which no real input does

FAILING_VERIFY = ("fiber-count", "--n", "3", "--gamma", "1,1", "--q", "2", "--verify")


def _drop_one_chain(monkeypatch):
    # the count core that fiber_point_count and verify_against_kostant share
    original = oracle._mu_row_counts

    def short_by_one(*args):
        counts = original(*args)
        counts[list(counts)[-1]] -= 1
        return counts

    monkeypatch.setattr(oracle, "_mu_row_counts", short_by_one)


def test_failed_verification_exits_1_in_every_format(capsys, monkeypatch):
    _drop_one_chain(monkeypatch)
    assert run_cli(capsys, *FAILING_VERIFY) == (1, (
        "FAIL, total 2\n"
        "mu     expected  actual  ok\n"
        "-----  --------  ------  ---\n"
        "1;0,1  1         1       yes\n"
        "1;1,1  2         1       NO\n"
    ), "")
    assert run_cli(capsys, *FAILING_VERIFY, "--format", "csv") == (1, (
        "mu,expected,actual,ok\n"
        '"1;0,1",1,1,yes\n'
        '"1;1,1",2,1,NO\n'
    ), "")
    code, out, err = run_cli(capsys, *FAILING_VERIFY, "--format", "json")
    assert (code, err) == (1, "")
    assert '"ok": false' in out
    verify = json.loads(out)["result"]["verify"]
    assert verify["passed"] is False and verify["total_expected"] == 3
    assert verify["buckets"][1] == {"mu": [1, 1, 1], "expected": 2, "actual": 1, "ok": False}


def test_failed_smallness_exits_1_in_every_format(capsys, monkeypatch):
    original = kostant.kostant_poly

    def too_big(gamma, *, caps):
        # K of the tight row's one part with degree 2: fiber_dim 2 at codim 3, margin -1
        return IntPolynomial((1, 1, 1)) if gamma == GammaVec((1, 1)) else original(gamma, caps=caps)

    # the listing reads each K_v(t) through the public kostant_poly
    monkeypatch.setattr(kostant, "kostant_poly", too_big)
    argv = ("smallness", "--n", "3", "--alpha", "1,1")
    assert run_cli(capsys, *argv) == (1, (
        "FAIL (min margin -1)\n"
        "beta   parts        codim  fiber_dim  margin  ok\n"
        "-----  -----------  -----  ---------  ------  ---\n"
        "(1,1)  -            0      0          -       yes\n"
        "(1,0)  (0,1)        1      0          -       yes\n"
        "(0,1)  (1,0)        1      0          -       yes\n"
        "(0,0)  (1,1)        3      2          -1      NO\n"
        "(0,0)  (1,0)+(0,1)  2      0          -       yes\n"
    ), "")
    assert run_cli(capsys, *argv, "--format", "csv") == (1, (
        "beta,parts,codim,fiber_dim,margin,ok\n"
        '"(1,1)",-,0,0,-,yes\n'
        '"(1,0)","(0,1)",1,0,-,yes\n'
        '"(0,1)","(1,0)",1,0,-,yes\n'
        '"(0,0)","(1,1)",3,2,-1,NO\n'
        '"(0,0)","(1,0)+(0,1)",2,0,-,yes\n'
    ), "")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    result = json.loads(out)["result"]
    assert (result["passed"], result["min_margin"]) == (False, -1)
    assert result["rows"][3] == {
        "beta": [0, 0], "parts": [[1, 1]], "codim": 3, "fiber_dim": 2, "margin": -1, "ok": False,
    }
    assert result["rows"][0]["margin"] is None


def test_parity_violation_exits_1_in_every_format(capsys, monkeypatch):
    def odd_degrees(*args, **kwargs):
        table = ic_stalk_table(*args, **kwargs)
        entries = tuple(helpers.replace(e, degree=e.degree + 1) for e in table.entries)
        return helpers.replace(table, entries=entries)

    monkeypatch.setattr(strata, "ic_stalk_table", odd_degrees)
    argv = ("ic-stalks", "--n", "3", "--alpha", "1,1", "--beta", "0,0", "--parts", "1,1")
    assert run_cli(capsys, *argv) == (1, (
        "parity VIOLATED\n"
        "degree  twist  multiplicity\n"
        "------  -----  ------------\n"
        "-6      0      1\n"
        "-4      1      1\n"
    ), "")
    csv = "degree,twist,multiplicity\n-6,0,1\n-4,1,1\n"
    assert run_cli(capsys, *argv, "--format", "csv") == (1, csv, "")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    result = json.loads(out)["result"]
    assert result["parity_ok"] is False
    assert [e["degree"] for e in result["entries"]] == [-6, -4]
