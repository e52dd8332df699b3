"""The comparison-flip mutator's enumeration, and its clean-up when stopped.  Running
the mutants is not part of tier-1: ``python3 tools/mutants.py <source>`` does that in a
copy of the repository."""

import ast
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

# the modules whose mutation runs are recorded; the mutator itself takes any source
SOURCES = [ROOT / "src" / "irschain" / name
           for name in ("metrics.py", "params.py", "deployment.py", "cli.py")]


def _enumerate(path):
    tree = ast.parse(path.read_text())
    before = ast.unparse(tree)
    found = list(mutants.mutants(tree))
    assert ast.unparse(tree) == before  # every flip is undone
    return found


def test_flips_pair_each_operator_with_its_boundary_twin():
    assert len(mutants.FLIPS) == 10
    for op, twin in mutants.FLIPS.items():
        assert mutants.FLIPS[twin] is op


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_one_mutant_per_comparison_operator(path):
    tree = ast.parse(path.read_text())
    found = _enumerate(path)
    assert len(found) == sum(len(node.ops) for node in ast.walk(tree)
                             if isinstance(node, ast.Compare))
    baseline = ast.unparse(tree)
    for _, _, _, before, after, op, source in found:
        assert before != after and f" {op} " in f" {after} "
        assert source != baseline and source.count("\n") == baseline.count("\n")


def test_every_listed_equivalent_is_a_current_mutant():
    # an edit that renames or drops a listed comparison must update the list
    found = {(path.name, scope, before, op)
             for path in SOURCES for _, _, scope, before, _, op, _ in _enumerate(path)}
    assert set(mutants.EQUIVALENT) <= found


def _suites(pid):
    """Pids of the pytest processes whose parent is ``pid``."""
    found = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            ppid = int((proc / "stat").read_text().rpartition(")")[2].split()[1])
            if ppid == pid and b"pytest" in (proc / "cmdline").read_bytes():
                found.append(int(proc.name))
        except OSError:  # the process ended while being read
            continue
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_sigterm_kills_the_suite_and_removes_the_copy(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    tool = subprocess.Popen([sys.executable, str(ROOT / "tools" / "mutants.py"),
                             str(SOURCES[0])], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        suite = []
        while not suite:  # its one child is the suite, started once the copy is made
            assert tool.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
            suite = _suites(tool.pid)
        time.sleep(0.2)  # past the exec, into subprocess.run's wait
        assert len(list(tmp_path.glob("mutants-*"))) == 1
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=10) == 128 + signal.SIGTERM
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
    assert list(tmp_path.glob("mutants-*")) == []
    assert [pid for pid in suite if Path(f"/proc/{pid}").exists()] == []
