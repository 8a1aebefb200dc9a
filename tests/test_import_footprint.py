"""What a serving process imports, and the lazy package exports behind it.

Every package ``__init__`` resolves its ``__all__`` on first attribute
access (:mod:`repro._lazy`), and the CLI imports per command, so an
idle ``repro serve`` loads the serving modules only -- not the client,
the fault proxy, the cluster coordinator, the offline front-ends or
``multiprocessing``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import signal
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: modules an idle ``repro serve`` must not import
NOT_SERVED = [
    "multiprocessing",
    "repro.api",
    "repro.core.parallel",
    "repro.core.sampling",
    "repro.service.client",
    "repro.service.faults",
    "repro.cluster.client",
    "repro.cluster.coordinator",
    "repro.streams",
    "repro.analysis.describe",
]

#: ceiling on ``repro.*`` modules an idle ``repro serve`` holds
MAX_SERVE_MODULES = 36

PACKAGES = [
    "repro",
    "repro.core",
    "repro.service",
    "repro.obs",
    "repro.cluster",
    "repro.analysis",
]

_SERVE = """
import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), flush=True))
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(code: str, *args: str) -> "subprocess.Popen[str]":
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_idle_serve_loads_only_serving_modules(tmp_path):
    proc = _python(
        _SERVE, "serve", "--port", "0", "--data-dir", str(tmp_path / "d")
    )
    try:
        assert "listening on" in proc.stdout.readline()
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    modules = json.loads(out.splitlines()[-1])
    loaded = [name for name in NOT_SERVED if name in modules]
    assert loaded == []
    served = [name for name in modules if name.split(".")[0] == "repro"]
    assert len(served) <= MAX_SERVE_MODULES, served


def test_import_repro_loads_no_submodule():
    proc = _python(
        "import json, sys, repro; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))"
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert json.loads(out) == ["repro", "repro._lazy"]


def _type_checking_imports(package: str) -> "dict[str, tuple[str, str]]":
    """``name -> (module, attribute)`` from the package's
    ``if TYPE_CHECKING:`` block; attribute ``""`` means the module."""
    pkg = importlib.import_module(package)
    tree = ast.parse(inspect.getsource(pkg))
    block = next(
        node
        for node in tree.body
        if isinstance(node, ast.If)
        and getattr(node.test, "id", None) == "TYPE_CHECKING"
    )
    found = {}
    for node in block.body:
        assert isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names:
            if node.module is None:
                found[alias.name] = (f"{package}.{alias.name}", "")
            else:
                found[alias.name] = (f"{package}.{node.module}", alias.name)
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve_to_their_canonical_objects(package):
    pkg = importlib.import_module(package)
    canonical = _type_checking_imports(package)
    listing = dir(pkg)
    for name in pkg.__all__:
        assert name in listing
        value = getattr(pkg, name)
        if name == "__version__":
            continue
        module, attr = canonical[name]
        expected = importlib.import_module(module)
        if attr:
            expected = getattr(expected, attr)
        assert value is expected, name
    assert set(canonical) <= set(pkg.__all__)


def test_describe_stays_the_function_after_submodule_import():
    proc = _python(
        "import repro.analysis.describe\n"
        "from repro.analysis import describe\n"
        "import repro.analysis as analysis\n"
        "assert callable(describe), describe\n"
        "assert analysis.describe is describe\n"
        "assert describe([1.0, 2.0, 3.0], epsilon=0.1).n == 3\n"
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err


def test_version_matches_project_metadata():
    """The installed version is ``repro.__version__``, read by setuptools
    from the source (statically, so the lazy ``__init__`` is not run)."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    expand = pytest.importorskip("setuptools.config.expand")
    import repro

    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    package_dir = config["tool"]["setuptools"]["package-dir"]
    assert expand.read_attr(attr, package_dir, root) == repro.__version__
