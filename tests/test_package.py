import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasiflags

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
