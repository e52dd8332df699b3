"""Comparison-flip mutation testing: does tier-1 pin each boundary the code decides on?

Each mutant flips one comparison operator of one source file at its boundary:
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not`` or ``in``/``not in``.
The tier-1 suite then runs against it with ``-x``.  A mutant the suite passes has
survived: either no test pins that boundary, or the flip cannot change any
result.  The second kind, an equivalent mutant, is listed in ``EQUIVALENT`` with
its reason.

Everything runs in a temporary copy of the whole repository, so the working tree
is never written.  The mutated files are regenerated with ``ast.unparse``, which
drops comments; a first run of the suite on the unparsed but unmutated files
checks that this alone changes nothing.  Stdlib only.  From the repository root:

    python3 tools/mutants.py src/irschain/metrics.py [more sources ...]

Exit status: 0 when every survivor is a listed equivalent, 1 when one is not (or
a mutant timed out), 2 when the suite fails on the unmutated sources, 143 when
stopped by SIGTERM, after killing the running suite and removing the copy.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PAIRS = ((ast.Lt, ast.LtE, "<", "<="), (ast.Gt, ast.GtE, ">", ">="),
          (ast.Eq, ast.NotEq, "==", "!="), (ast.Is, ast.IsNot, "is", "is not"),
          (ast.In, ast.NotIn, "in", "not in"))
FLIPS = {**{a: b for a, b, _, _ in _PAIRS}, **{b: a for a, b, _, _ in _PAIRS}}
SYMBOLS = {**{a: s for a, _, s, _ in _PAIRS}, **{b: s for _, b, _, s in _PAIRS}}

# (file name, enclosing function, comparison as ast.unparse writes it, flipped operator)
_TIE = ("on a tie both branches take the same value as the shift, so every bit of "
        "the result is unchanged")
_NEGLIGIBLE = ("at exactly NEGLIGIBLE_LOG the flip computes the factor the code skips, and "
               "1.0 + exp(-38.0) rounds to 1.0, so that factor is 1.0 / 1.0 and the watts "
               "keep every bit")
EQUIVALENT = {
    ("metrics.py", "objective", "amp >= awgn", ">"):
        f"the SNR's first shift choice, max(amp, awgn); {_TIE}",
    ("metrics.py", "objective", "m >= floor", ">"):
        f"the SNR's second shift choice, max(m, floor); {_TIE}",
    ("metrics.py", "power_values", "signal >= amp", ">"):
        "the power's numerator shift; on a tie either branch gives m_num = signal = amp "
        "and the partner t = 0.0",
    ("metrics.py", "power_values", "incident >= log_s2", ">"):
        "the power's denominator shift; on a tie either branch gives m_den = incident "
        "= log_s2 and the partner u = 0.0",
    ("metrics.py", "power_values", "t > NEGLIGIBLE_LOG", ">="):
        f"the power's numerator partner test; {_NEGLIGIBLE}",
    ("metrics.py", "power_values", "u > NEGLIGIBLE_LOG", ">="):
        f"the power's denominator partner test; {_NEGLIGIBLE}",
    # the one panel-diagonal test in fraunhofer_distance, run once per grid
    ("params.py", "fraunhofer_distance", "aperture > d_max", ">="):
        "a running max(d_max, aperture); on a tie both are the same non-negative float, "
        "so d_max and the threshold keep every bit",
    # the config parser's test that a count is a whole number
    ("cli.py", "_parse_value", "abs(value - count) > 1e-09", ">="):
        "a count's value is above 0.5, so it and its rounded count are multiples of "
        "2**-53, as is their difference, which is exact near 1e-9; the double 1e-9 "
        "(0x1.12e0be826d695p-30) is no such multiple, so the two never differ by it",
}

# What the copy leaves out: history and caches, which the suite does not read, and
# this tool's own tests, which read the mutated sources and so would fail on exactly
# the listed equivalents.
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench", ".benchmarks", "*.egg-info", "test_mutants.py")
# the tier-1 command, with -x and no cache; pyproject.toml makes RuntimeWarnings errors
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
TIMEOUT_S = 900  # per suite run, about 60 times tier-1's; a mutant past it is reported


def mutants(tree: ast.Module):
    """Yield (lineno, col, scope, before, after, mutated source), one per operator.

    ``scope`` is the dotted name of the enclosing functions and classes, "" at
    module level.  The tree is restored after each mutant.
    """
    def compares(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from compares(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Compare):
                yield child, scope
            yield from compares(child, scope)

    for node, scope in list(compares(tree, "")):
        before = ast.unparse(node)
        for i, op in enumerate(node.ops):
            node.ops[i] = FLIPS[type(op)]()
            try:
                yield (node.lineno, node.col_offset, scope, before, ast.unparse(node),
                       SYMBOLS[type(node.ops[i])], ast.unparse(tree))
            finally:
                node.ops[i] = op


def run_suite(copy: Path) -> str:
    """'passed', 'failed' or 'timeout' for tier-1 with -x in the copy."""
    src = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    # no bytecode: a same-size flip (== to !=) in the same second would reuse a stale .pyc
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def _where(path: Path, lineno: int, col: int, scope: str, before: str, after: str) -> str:
    return f"{path.relative_to(ROOT)}:{lineno}:{col} {scope or '<module>'}: {before}  ->  {after}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs="+", type=Path, help="source files to mutate")
    args = parser.parse_args(argv)
    sources = [path.resolve() for path in args.sources]
    for path in sources:
        if not path.is_file() or ROOT not in path.parents:
            parser.error(f"{path} is not a file of this repository")
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    # SIGTERM unwinds as an exception does, so subprocess.run kills the running suite
    # and TemporaryDirectory removes the copy; by default it ends the process at once
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    start = time.perf_counter()
    counts = dict.fromkeys(("killed", "equivalent", "survived", "timeout"), 0)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / ROOT.name
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        for path, tree in trees.items():
            (copy / path.relative_to(ROOT)).write_text(ast.unparse(tree) + "\n")
        if run_suite(copy) != "passed":
            print("error: tier-1 fails on the unparsed, unmutated sources", file=sys.stderr)
            return 2
        for path, tree in trees.items():
            target = copy / path.relative_to(ROOT)
            baseline = target.read_text()
            for lineno, col, scope, before, after, op, source in mutants(tree):
                target.write_text(source + "\n")
                outcome = run_suite(copy)
                reason = EQUIVALENT.get((path.name, scope, before, op))
                if outcome == "failed":
                    status = "killed"
                elif outcome == "timeout":
                    status = "timeout"
                else:
                    status = "equivalent" if reason else "survived"
                counts[status] += 1
                print(f"{status:<10} {_where(path, lineno, col, scope, before, after)}",
                      flush=True)
                if status == "equivalent":
                    print(f"{'':<11}({reason})", flush=True)
            target.write_text(baseline)
    print(f"{sum(counts.values())} mutants: {counts['killed']} killed, "
          f"{counts['equivalent']} equivalent, {counts['survived']} survived, "
          f"{counts['timeout']} timed out in {time.perf_counter() - start:.0f} s")
    return 1 if counts["survived"] or counts["timeout"] else 0


if __name__ == "__main__":
    sys.exit(main())
