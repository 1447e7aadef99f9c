import ast
import dataclasses
import fnmatch
import hashlib
import inspect
import io
import os
import pickle
import subprocess
import sys
import tokenize
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gates
import helpers
import quasiflags
from quasiflags import (
    CapExceededError, Caps, GammaPartition, GammaVec, Interval, KappaPartition, Lattice, Triangle,
    interval_to_gamma,
)

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_the_object_its_module_defines():
    assert len(set(quasiflags.__all__)) == len(quasiflags.__all__)
    for name in quasiflags.__all__:
        obj = getattr(quasiflags, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(quasiflags.__all__) <= set(dir(quasiflags))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from quasiflags import *", namespace)
    assert {name: namespace[name] for name in quasiflags.__all__} == {
        name: getattr(quasiflags, name) for name in quasiflags.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quasiflags.no_such_name


def test_bare_import_loads_submodules_on_first_use():
    code = (
        "import sys, quasiflags\n"
        "assert [m for m in sys.modules if m.startswith('quasiflags.')] == [], sys.modules\n"
        "strata = quasiflags.strata\n"
        "assert strata is sys.modules['quasiflags.strata']\n"
        "assert quasiflags.enumerate_strata is strata.enumerate_strata\n"
        "assert 'quasiflags.oracle' not in sys.modules\n"
        "assert quasiflags.gfpoly is sys.modules['quasiflags.gfpoly']\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_name_follows_a_patched_module_attribute(monkeypatch):
    from quasiflags import strata

    def patched(*args, **kwargs):
        raise AssertionError

    monkeypatch.setattr(strata, "enumerate_strata", patched)
    assert quasiflags.enumerate_strata is patched


def _importtime(code, *argv):
    """The quasiflags modules that `python -X importtime` logs, and those in sys.modules at exit."""
    code = (
        "import atexit, sys\n"
        "ours = lambda: [m for m in sys.modules if m.startswith('quasiflags')]\n"
        "atexit.register(lambda: print(*ours(), file=sys.stderr))\n"
    ) + code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-X", "importtime", "-c", code, *argv]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    logged = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    return {m for m in logged if m.startswith("quasiflags")}, set(lines[-1].split())


def test_importtime_logs_every_module_loaded():
    logged, loaded = _importtime("import quasiflags\nquasiflags.strata\n")
    assert {"quasiflags.strata", "quasiflags.kostant"} <= loaded
    assert logged == loaded
    # as `python -m quasiflags fiber-count ...` runs
    logged, loaded = _importtime(
        "import runpy\nrunpy.run_module('quasiflags', run_name='__main__', alter_sys=True)\n",
        "fiber-count", "--n", "3", "--gamma", "1,1", "--q", "2",
    )
    assert "quasiflags.gfpoly" in loaded
    assert logged == loaded


def _new_modules(code, *argv):
    """The modules that code adds to sys.modules, run by python -S with the package on the path.

    Under -S, since a site configuration can load typing or other modules before any code runs.
    """
    code = (
        "import atexit, sys\n"
        "before = set(sys.modules)\n"
        "atexit.register(lambda: print(*sorted(set(sys.modules) - before), file=sys.stderr))\n"
    ) + code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_cli_start_up_imports_no_heavy_module():
    # what the command line loads before its handler runs; the handlers that need them load
    # json.encoder, csv, strata and oracle, and dataclasses only raises FrozenInstanceError
    heavy = {"dataclasses", "inspect", "json", "typing", "quasiflags.strata"}
    loaded = _new_modules("import quasiflags.cli\n")
    assert "quasiflags.kostant" in loaded
    assert not loaded & heavy
    # as `python -m quasiflags kostant --n 3 --gamma 1,1` runs
    loaded = _new_modules(
        "import runpy\nrunpy.run_module('quasiflags', run_name='__main__', alter_sys=True)\n",
        "kostant", "--n", "3", "--gamma", "1,1",
    )
    assert "quasiflags.kostant" in loaded
    assert not loaded & (heavy | {"quasiflags.oracle"})


# the values of the library's classes that the adversarial strategy draws, built once
def _library_values():
    from quasiflags import (
        GammaPartition, GammaVec, IntPolynomial, Interval, Lattice, enumerate_fiber_chains,
        enumerate_lattices, enumerate_strata, fiber_point_count, ic_stalk_table, kappa_partitions,
        kappa_to_nu, mu_triangles, smallness_report, verify_against_kostant,
    )

    gamma, parts = GammaVec((1, 1)), GammaPartition.of(3, [GammaVec((1, 0)), GammaVec((0, 1))])
    kappa = kappa_partitions(gamma)[0]
    return [
        gamma, parts, kappa, mu_triangles(gamma)[0], kappa_to_nu(kappa), Interval(1, 1), Interval(2, 1),
        IntPolynomial((1, 1)), enumerate_lattices(2, 1, 2)[0], Lattice.full(1, 3),
        enumerate_fiber_chains(3, gamma, 2)[0], enumerate_strata(3, gamma)[1],
        ic_stalk_table(3, gamma, GammaVec((0, 0)), parts), smallness_report(3, gamma),
        verify_against_kostant(3, gamma, 2), fiber_point_count(3, gamma, 2),
    ]


# small enough that every enumeration they admit takes milliseconds
_SMALL_CAPS = st.builds(
    Caps,
    max_rank=st.integers(0, 4),
    max_length=st.integers(0, 4),
    oracle_max_rank=st.integers(0, 4),
    oracle_max_length=st.integers(0, 4),
    oracle_primes=st.sampled_from([(), (2,), (2, 3), (3, 5)]),
    max_lattice_volume=st.integers(0, 100),
)
# huge: past 64 bits and past the 1024-bit limit on q; 2**521 - 1 and 2**4423 - 1 are prime
_HUGE = (-(2**64), 2**64, 10**30, 2**521 - 1, 2**4423 - 1)
_LEAVES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([2.0, 2.5, -1.0, float("nan"), float("inf")]),
    st.sampled_from(["", "3", "mu", "nu", "x"]),
    st.integers(-3, 6),
    st.sampled_from(_HUGE),
    # degree vectors of every small rank, so most are of the wrong rank for the call
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(lambda c: GammaVec(tuple(c))),
    st.sampled_from(_library_values()),
    _SMALL_CAPS,
)
_ADVERSARIAL = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner),
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from([Interval(1, 1), Interval(2, 1), 1, "x"]), inner, max_size=2),
    ),
    max_leaves=6,
)
# these build the n entries a caller asks for and take no cap (README, Argument contract),
# so their n is drawn at most 64 and otherwise from the same strategy
_SIZED = {(GammaVec.zero, "n"), (interval_to_gamma, "n")}
_CALLABLES = [
    obj
    for obj in map(quasiflags.__getattr__, quasiflags.__all__)
    if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
] + [Lattice.full, Lattice.from_generators, GammaPartition.of, KappaPartition.of, Triangle.from_flat, GammaVec.zero]
# value classes with a verdict property that the package does not re-export
_CALLABLES += [quasiflags.strata.SmallnessRow, quasiflags.oracle.BucketCheck]
_PACKAGE = Path(quasiflags.__file__).parent


@settings(derandomize=True, deadline=None, max_examples=300, suppress_health_check=list(HealthCheck))
@given(st.data())
def test_every_public_callable_answers_refuses_by_name_or_hits_a_cap(data):
    func = data.draw(st.sampled_from(_CALLABLES), label="callable")
    args, kwargs = [], {}
    for param in inspect.signature(func).parameters.values():
        if param.kind is param.KEYWORD_ONLY:
            # every caps= takes small caps or any other value
            kwargs[param.name] = data.draw(_SMALL_CAPS | _ADVERSARIAL, label=param.name)
        elif param.default is param.empty or data.draw(st.booleans()):
            values = _ADVERSARIAL
            if (func, param.name) in _SIZED:
                values = values.filter(lambda v: not (type(v) is int and v > 64))
            args.append(data.draw(values, label=param.name))
    try:
        result = func(*args, **kwargs)
        # every property of each package value returned, alone or in a list or tuple
        for value in result if type(result) in (list, tuple) else (result,):
            if "_unchecked" in vars(type(value)):
                for name, attr in vars(type(value)).items():
                    if isinstance(attr, property):
                        getattr(value, name)
    except CapExceededError:
        pass
    except (TypeError, ValueError) as exc:
        # raised by one of the library's own checks, whose messages name the argument
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        assert Path(frame.filename).parent == _PACKAGE and frame.line.startswith("raise "), repr(exc)
        assert "integer string conversion" not in str(exc), repr(exc)


def _values_by_class():
    """Package values per value class, with every class that limits.record wrote as a key."""
    from quasiflags import cli

    gamma = GammaVec((1, 1))
    report = quasiflags.smallness_report(3, gamma)
    table = quasiflags.ic_stalk_table(3, gamma, GammaVec((0, 0)), GammaPartition.of(3, [gamma]))
    values = _library_values() + [Caps(), Caps(max_rank=3), GammaVec((1, 0)), Interval(1, 1)]
    values += [*report.rows, *table.entries, *quasiflags.verify_against_kostant(3, gamma, 2).buckets]
    # the command line's Output records
    values += [cli._cmd_kostant(None, Caps(), 3, gamma), cli._cmd_roots(None, Caps(), 3)]
    by_class = {}
    for value in values:
        by_class.setdefault(type(value), []).append(value)
    # every value class of the package: those that limits.record wrote
    for module in quasiflags._EXPORTS:
        getattr(quasiflags, module)
    classes = {
        obj
        for name, module in list(sys.modules.items())
        if name.startswith("quasiflags.")
        for obj in vars(module).values()
        if isinstance(obj, type) and "_unchecked" in obj.__dict__
    }
    assert set(by_class) == classes
    return by_class


def test_every_value_class_behaves_as_its_dataclass_twin():
    by_class = _values_by_class()
    for cls, members in by_class.items():
        for value in members:
            twin = helpers.dataclass_twin(value)
            assert repr(value) == repr(twin)
            assert _hash_or_error(value) == _hash_or_error(twin)
            assert cls.__match_args__ == type(twin).__match_args__
            # keyword construction through the checked constructor, and a pickle round trip
            assert helpers.replace(value) == value
            assert value.__reduce__()[0] is cls._unchecked
            restored = pickle.loads(pickle.dumps(value))
            assert type(restored) is cls and restored == value and repr(restored) == repr(value)
            for name in cls.__match_args__:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, name)
            assert not hasattr(value, "__dict__")
            for other in members:
                assert (value == other) is (twin == helpers.dataclass_twin(other))
                assert (value != other) is (twin != helpers.dataclass_twin(other))
            assert value != twin


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(_library_values()), st.sampled_from(_library_values()))
def test_value_methods_read_the_field_tuple(value, other):
    # hash, ==, repr and pickling of every value class, stated on the field tuple alone
    cls, fields = type(value), _fields(value)
    # FiberCount holds a dict, so it and its field tuple both refuse to hash
    assert _hash_or_error(value) == _hash_or_error(fields)
    assert (value == other) is (type(other) is cls and fields == _fields(other))
    assert (value != other) is not (value == other)
    assert repr(value) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(cls.__match_args__, fields))})"
    assert value.__reduce__() == (cls._unchecked, fields)
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is cls and _fields(restored) == fields
    # the constructor's own argument errors, as a dataclass words them
    init = f"{cls.__qualname__}.__init__()"
    with pytest.raises(TypeError) as error:
        cls(*fields, bogus=None)
    assert str(error.value) == f"{init} got an unexpected keyword argument 'bogus'"
    with pytest.raises(TypeError) as error:
        cls(*fields, None)
    assert str(error.value) == f"{init} takes {len(fields) + 1} positional arguments but {len(fields) + 2} were given"


def test_every_value_class_adopts_its_values_from_an_unbound_slots_base():
    # the maker fills a value of the unfrozen base with plain stores, then assigns __class__,
    # which CPython allows only when the class adds nothing to the base's layout
    by_class = _values_by_class()
    bound = [
        obj
        for name, module in list(sys.modules.items())
        if name.startswith("quasiflags.")
        for obj in vars(module).values()
    ]
    for cls, (value, *_) in by_class.items():
        base = cls.__mro__[1]
        assert cls.__slots__ == ()
        assert cls.__mro__ == (cls, base, object)
        assert base.__slots__ == cls.__match_args__
        assert not any(obj is base for obj in bound), base
        made = cls._unchecked(**{name: getattr(value, name) for name in cls.__match_args__})
        assert type(made) is cls and made == value


def test_verdicts_are_read_from_the_numbers_they_judge():
    # a verdict, or a number read from other fields, is a property, not a field: no constructor
    # takes it, and repr, ==, hash and __match_args__ leave it out, so no value holds a verdict
    # that its numbers contradict
    from quasiflags.oracle import BucketCheck, FiberCount, OracleReport
    from quasiflags.strata import SmallnessReport, SmallnessRow, StratumRecord

    derived = {
        StratumRecord: ("m", "stratum_dim", "codim", "fiber_dim"),
        SmallnessRow: ("margin", "ok"),
        SmallnessReport: ("min_margin", "witness", "aggregate", "passed", "vacuous"),
        OracleReport: ("missing_mu", "passed"),
        FiberCount: ("total",),
    }
    for cls, names in derived.items():
        for name in names:
            assert isinstance(vars(cls)[name], property) and name not in cls.__match_args__, name
    gamma = GammaVec((1, 1))
    report = quasiflags.smallness_report(3, gamma)
    for name in ("passed", "min_margin", "witness", "aggregate"):
        with pytest.raises(TypeError):
            helpers.replace(report, **{name: None})
    (tight,) = [row for row in report.rows if row.record == report.witness]
    for name in ("m", "stratum_dim", "codim", "fiber_dim"):
        with pytest.raises(TypeError):
            helpers.replace(tight.record, **{name: 0})
    for name in ("margin", "ok"):
        with pytest.raises(TypeError):
            helpers.replace(tight, **{name: -1})
    # a failing row is stated by its record: a fiber polynomial of degree 2 under codim 3
    record = helpers.replace(tight.record, fiber_poincare=quasiflags.IntPolynomial((1, 1, 1)))
    failing = helpers.replace(report, rows=(SmallnessRow(record),))
    assert (failing.passed, failing.vacuous, failing.rows[0].ok) == (False, False, False)
    assert (failing.min_margin, failing.witness, failing.aggregate) == (-1, record, ((2, 3, False),))
    assert "passed=" not in repr(failing) and "ok=" not in repr(failing.rows[0])
    assert "codim=" not in repr(record) and "margin=" not in repr(failing.rows[0])
    assert helpers.replace(report, rows=tuple(row for row in report.rows if row is not tight)).vacuous
    oracle = quasiflags.verify_against_kostant(3, gamma, 2)
    first, *rest = oracle.buckets
    emptied = helpers.replace(oracle, buckets=(BucketCheck(first.mu, first.expected, 0), *rest))
    assert (emptied.missing_mu, emptied.passed) == ((first.mu,), False)
    assert oracle.missing_mu == () and oracle.passed
    count = quasiflags.fiber_point_count(3, gamma, 2)
    assert count.total == 3 and FiberCount(count.buckets) == count


def test_readme_library_quickstart_runs_as_written():
    # README's quickstart block, statement by statement; each expression must equal the
    # literal in its trailing comment
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    tokens = tokenize.generate_tokens(io.StringIO(block).readline)
    comments = {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}
    namespace, checked = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            source = ast.unparse(stmt)
            assert stmt.end_lineno in comments, f"no value shown for {source}"
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comments[stmt.end_lineno]), source
            checked.append(source)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert "(report.passed, report.min_margin)" in checked
    assert "(oracle.passed, oracle.total_actual)" in checked


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def _ran(stdout=b"", code=0):
    return subprocess.CompletedProcess([], code, stdout, b"")


def test_each_gate_check_names_the_expected_and_the_actual_value_on_a_miss():
    # kind, expected, a process that matches, one that misses, and the (expected, actual) of the miss
    other = hashlib.sha256(b"other\n").hexdigest()
    cases = [
        ("sha256", hashlib.sha256(b"out\n").hexdigest(), _ran(b"out\n"), _ran(b"other\n"), None, other),
        ("first_line", "PASS", _ran(b"PASS\nrows\n"), _ran(b"FAIL\nrows\n"), None, "FAIL"),
        ("stdout", "1 + t", _ran(b"1 + t\n\n"), _ran(b"1 + t\nmore\n"), None, "1 + t\nmore"),
        ("exit", 2, _ran(code=2), _ran(code=3), 2, 3),
        ("summary", None, _ran(b'run\n{"correct": true, "failed": 0}\n'),
         _ran(b'{"correct": 1, "failed": 2}\n'), (True, 0), (False, 2)),
        ("print", "x", _ran(b"anything"), _ran(code=1), 0, 1),
    ]
    with pytest.raises(ValueError, match="unknown check 'sha'"):
        gates.check(gates.Gate("row", ["true"], 1, "sha", "x"), _ran())
    assert {gate.kind for gate in gates.GATES} == {case[0] for case in cases}
    for kind, expected, hit, miss, want, got in cases:
        gate = gates.Gate("row", ["true"], 1, kind, expected)
        assert gates.check(gate, hit) is None, kind
        message = gates.check(gate, miss)
        assert message and repr(expected if want is None else want) in message and repr(got) in message, kind
        # every kind but "exit" also requires exit 0
        if kind != "exit":
            assert "expected 0, got 1" in gates.check(gate, _ran(hit.stdout, 1)), kind


def test_a_gate_row_fails_on_a_wrong_value_or_past_its_timeout():
    row = gates.Gate("row", [sys.executable, "-c", "print('1 + t')"], 60, "stdout", "1 + t")
    gates.test_gate(row)
    with pytest.raises(AssertionError, match=r"^row: stdout: expected '1 \+ 2t', got '1 \+ t'"):
        gates.test_gate(row._replace(expected="1 + 2t"))
    with pytest.raises(subprocess.TimeoutExpired):
        gates.test_gate(row._replace(argv=[sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5))


def test_a_console_row_without_its_script_fails_naming_it_and_the_fix():
    # a fake console script that no PATH holds: the row fails, not skips, with no traceback
    row = gates.Gate("console_row", ["quasiflags-not-on-path", "kostant", "--n", "3", "--gamma", "1,1"], 60,
                     "stdout", "1 + t")
    with pytest.raises(pytest.fail.Exception) as failed:
        gates.test_gate(row)
    message = str(failed.value)
    assert message.startswith("console_row: no console script 'quasiflags-not-on-path' on PATH")
    assert "pip install -e ." in message and 'exec python3 -m quasiflags "$@"' in message
    assert not failed.value.pytrace


def test_gate_names_are_unique_and_each_picks_its_row_alone():
    names = [gate.name for gate in gates.GATES]
    assert len(set(names)) == len(names)
    # -k NAME picks a row whose name holds NAME, so no name may hold another
    assert all(name.isidentifier() and not any(name in other for other in names if other != name) for name in names)


def test_every_gate_argv_parses_without_running_it():
    from quasiflags.cli import build_parser

    console = [gate for gate in gates.GATES if gate.argv[0] == "quasiflags"]
    assert len(console) >= 15
    for gate in console:
        try:
            build_parser(gate.argv[1]).parse_args(gate.argv[1:])
        except SystemExit:
            pytest.fail(f"{gate.name}: {gate.argv[1:]} does not parse")
    for gate in gates.GATES:
        if "-c" in gate.argv:
            compile(gate.argv[gate.argv.index("-c") + 1], gate.name, "exec")


def test_tier1_collects_no_gate(pytestconfig):
    # the tier-1 run names no file, so pytest collects by the python_files patterns
    assert gates.__file__.endswith("gates.py")
    assert not any(fnmatch.fnmatch("gates.py", pattern) for pattern in pytestconfig.getini("python_files"))
