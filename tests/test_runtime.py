"""What running the package pulls in: the modules ``import zham`` loads, and
the demos under ``demos/``, each run as a script."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

LOADED_BY_IMPORT = """\
import sys
before = set(sys.modules)
import zham
print(sorted({"numpy", "orjson", "argparse", "zham.cli"} & (set(sys.modules) - before)))
"""


def test_import_loads_no_numpy_orjson_argparse_or_cli():
    # numpy is no dependency; orjson is imported where a report is written;
    # the command line (and with it argparse and its one parser) loads only
    # when it runs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", LOADED_BY_IMPORT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(path, capsys):
    # each demo checks its own claims with assert statements
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
