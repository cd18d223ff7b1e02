"""Importing the package or its command line loads only what runs.

The package namespace resolves each public name on first use (PEP 562),
so `import spdecov` loads no submodule, and `import spdecov.cli` loads
what every command shares: not the Monte Carlo module (mc imports it),
not the spectral oracle (oracle imports it), not json (only jsonl
output needs it) and not numpy.polynomial (the Gauss-Legendre rules
are a table in fem). Each check runs in a fresh interpreter, as
test_one_lapack.py does for scipy, since this one has imported all of
them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_public_api import PUBLIC_NAMES, REMOVED

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code, *args):
    """stdout of code run in a new interpreter with src/ on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# prints the modules loaded, one per line; it imports nothing else, so
# that the child's own imports cannot hide what the target loads
LOADED = "import sys\nimport {}\nprint('\\n'.join(sorted(sys.modules)))"


def _loaded(target):
    return set(_fresh(LOADED.format(target)).split())


@pytest.fixture(scope="module")
def cli_modules():
    return _loaded("spdecov.cli")


@pytest.mark.parametrize(
    "module", ["numpy.polynomial", "json", "spdecov.montecarlo", "spdecov.spectral"]
)
def test_cli_import_skips_what_only_some_commands_run(cli_modules, module):
    assert "spdecov.cli" in cli_modules
    assert not {m for m in cli_modules if m == module or m.startswith(module + ".")}


def test_bare_import_loads_no_submodule():
    loaded = _loaded("spdecov")
    assert "spdecov" in loaded
    assert sorted(m for m in loaded if m.startswith("spdecov.")) == []


NAMESPACE = """
import json, sys
import spdecov
names = json.loads(sys.argv[1])
unresolved = [n for n in names if getattr(spdecov, n, None) is None]
try:
    spdecov.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "all": sorted(spdecov.__all__),
    "unresolved": unresolved,
    "missing_from_dir": sorted(set(names) - set(dir(spdecov))),
    "unknown": unknown,
    "removed_present": [n for n in json.loads(sys.argv[2]) if hasattr(spdecov, n)],
}))
"""


def test_public_names_resolve_on_first_use():
    removed = sorted({n for names in REMOVED.values() for n in names})
    got = json.loads(_fresh(NAMESPACE, json.dumps(PUBLIC_NAMES), json.dumps(removed)))
    assert got["all"] == PUBLIC_NAMES
    assert got["unresolved"] == []
    assert got["missing_from_dir"] == []
    assert got["unknown"] == "module 'spdecov' has no attribute 'no_such_name'"
    assert got["removed_present"] == []
