"""What a serving process imports, and the lazy package exports behind it.

Every package ``__init__`` resolves its ``__all__`` on first attribute
access (:mod:`repro._lazy`), and ``repro serve`` parses with its own
parser, so an idle ``repro serve`` loads the serving modules only --
not the other verbs (:mod:`repro.commands`), the cluster package, the
collapse-tree recorder, the client, the fault proxy, the offline
front-ends, ``multiprocessing``, or ``asyncio`` with the ``ssl`` and
``concurrent.futures`` it pulls in (the server is a ``selectors``
reactor).  A server run from source compiles every module it loads
and keeps the code, so the modules' summed source lines are bounded
too.  The KLL, Frugal and adaptive engines load with their first
metric, and the Prometheus and memory reports with the first ``STATS``
that asks for them.

It also runs one thread: ``repro serve`` defaults numpy's OpenBLAS pool
to one thread (nothing in the server calls BLAS) unless the operator
set its size.
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
    "asyncio",
    "ssl",
    "concurrent.futures",
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
    "repro.core.kll",
    "repro.core.frugal",
    "repro.core.adaptive",
    "repro.obs.exposition",
    "repro.analysis.memory",
    "repro.core.tree",
    "repro.cluster",
    "repro.commands",
]

#: ceiling on ``repro.*`` modules an idle ``repro serve`` holds
MAX_SERVE_MODULES = 27

#: ceiling on the summed source lines of those modules: a server run
#: from source compiles every one of them at start, and keeps the code
MAX_SERVE_SOURCE_LINES = 9_529

#: what OpenBLAS reads for its pool size, in order of precedence
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"
)

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs Linux /proc"
)

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
atexit.register(lambda: print(json.dumps({
    name: getattr(module, "__file__", None)
    for name, module in sorted(sys.modules.items())
}), flush=True))
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(
    code: str, *args: str, blas_threads: "str | None" = None
) -> "subprocess.Popen[str]":
    """A child running *code*; none of :data:`BLAS_THREAD_VARS` reaches
    it except ``OPENBLAS_NUM_THREADS=blas_threads`` when given, so the
    environment the tests run in cannot decide the pool size."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _serve(tmp_path, blas_threads: "str | None" = None, work=None):
    """``(modules, threads)`` of a ``repro serve``: every module it
    imported by its exit (name to source file), and its thread count at
    the listening line.
    ``work(port)``, when given, drives the server before it stops."""
    proc = _python(
        _SERVE, "serve", "--port", "0", "--data-dir", str(tmp_path / "d"),
        blas_threads=blas_threads,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line
        threads = _thread_count(proc.pid)
        if work is not None:
            work(int(line.split(":")[1].split()[0]))
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1]), threads


def _thread_count(pid: int) -> "int | None":
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except FileNotFoundError:  # no procfs
        return None


def test_idle_serve_loads_only_serving_modules(tmp_path):
    modules, _ = _serve(tmp_path)
    loaded = [name for name in NOT_SERVED if name in modules]
    assert loaded == []
    served = [name for name in modules if name.split(".")[0] == "repro"]
    assert len(served) <= MAX_SERVE_MODULES, served
    lines = {}
    for name in served:
        with open(modules[name], "rb") as fh:
            lines[name] = fh.read().count(b"\n")
    assert sum(lines.values()) <= MAX_SERVE_SOURCE_LINES, lines


def test_paper_only_server_never_loads_other_engines(tmp_path):
    """CREATE, INGEST, QUERY and SNAPSHOT of a paper metric load no
    other engine, not even through the snapshot codec."""
    from repro.service import QuantileClient

    def work(port):
        with QuantileClient("127.0.0.1", port) as client:
            client.create("p/fixed", kind="fixed", eps=0.01, n=100_000)
            client.ingest("p/fixed", [float(i) for i in range(5_000)])
            client.query("p/fixed", [0.5])
            client.snapshot()

    modules, _ = _serve(tmp_path, work=work)
    assert "repro.core.engines" in modules  # the snapshot ran
    loaded = [
        name for name in ("repro.core.kll", "repro.core.frugal")
        if name in modules
    ]
    assert loaded == []


@needs_proc
def test_idle_serve_runs_one_thread(tmp_path):
    _, threads = _serve(tmp_path)
    assert threads == 1


@needs_proc
def test_explicit_blas_threads_are_honoured(tmp_path):
    """An operator's ``OPENBLAS_NUM_THREADS`` wins over the default: the
    server runs as many threads as a bare ``import numpy`` does."""
    probe = _python(
        "import os, numpy; print(len(os.listdir('/proc/self/task')))",
        blas_threads="2",
    )
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 0, err
    expected = int(out)
    if expected == 1:
        pytest.skip("numpy starts no BLAS worker (one CPU or no OpenBLAS)")
    _, threads = _serve(tmp_path, blas_threads="2")
    assert threads == expected


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
