"""Mutation survey of the refusal checks in ``src/codag``.

Each ``raise`` statement in turn becomes ``pass`` in a temporary copy of the
repository, and the test suite runs on that copy, without
``test_acceptance.py``, as ``pytest -x -q``. A mutant is killed when a test
fails or the run outlasts ``TIMEOUT_S``, and it survives when every test
passes: then no test sees that check fail. The test file named after the
mutated module runs first, so most mutants die within seconds. The
repository itself is never written.

Run it from anywhere; it surveys every ``raise``::

    python tests/mutation_survey.py

It prints one line per mutant, ``file:line killed|survived SECONDS``, and
exits 1 if any mutant survived (2 if the unmutated suite already fails).
Its name keeps pytest from collecting it. It imports only the standard
library; the suite it runs needs pytest.
"""

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600.0  # a mutant's suite that runs longer counts as killed
_SKIPPED_TESTS = {"test_acceptance.py"}
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     ".bench_work", "*.egg-info")


def raise_sites(source: str) -> list[ast.Raise]:
    """Every ``raise`` statement of a module, in line order."""
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    return sorted(nodes, key=lambda node: (node.lineno, node.col_offset))


def mutate(source: str, node: ast.Raise) -> str:
    """``source`` with the statement ``node`` replaced by ``pass``."""
    lines = source.encode("utf-8").splitlines(keepends=True)  # ast offsets count UTF-8 bytes
    first, last = lines[node.lineno - 1], lines[node.end_lineno - 1]
    lines[node.lineno - 1:node.end_lineno] = [first[:node.col_offset] + b"pass"
                                              + last[node.end_col_offset:]]
    return b"".join(lines).decode("utf-8")


def run_suite(copy: str, first: str | None) -> bool:
    """True when ``pytest -x -q`` passes on the copy's tests, ``first`` run first."""
    tests = sorted(name for name in os.listdir(os.path.join(copy, "tests"))
                   if name.startswith("test_") and name.endswith(".py")
                   and name not in _SKIPPED_TESTS)
    if first in tests:
        tests.remove(first)
        tests.insert(0, first)
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(os.path.join("tests", name) for name in tests)]
    # Its own session, so a timeout also stops the suite's worker processes.
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="codag-mutants-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
        if not run_suite(copy, None):
            print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
            return 2
        src = os.path.join(copy, "src", "codag")
        survivors = total = 0
        for fname in sorted(os.listdir(src)):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(src, fname)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            for node in raise_sites(original):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(mutate(original, node))
                start = time.perf_counter()
                try:
                    killed = not run_suite(copy, f"test_{fname}")
                finally:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(original)
                total += 1
                survivors += not killed
                print(f"{fname}:{node.lineno} {'killed' if killed else 'survived'} "
                      f"{time.perf_counter() - start:.1f}", flush=True)
    print(f"{total} mutants, {survivors} survived", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
