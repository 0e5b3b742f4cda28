#!/usr/bin/env python3
"""List the functions of ``src/qautcert`` that no standard certificate runs.

Runs ``qautcert.cli.main`` over the six standard partitions on both
backends, each with ``--strict``, ``--out`` and ``--markdown`` into a
temporary directory, plus one ``diff`` of two of the certificates, under
``sys.setprofile``.  Every function of the package (each ``def`` found by
``ast``, methods and nested functions included) whose code never ran is
printed with its line count, ``def`` to end, per module and in total.

    PYTHONPATH=src python scripts/unreached_functions.py

Exits 1 when a certificate fails, since a failing run reaches less code.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile

import qautcert
from qautcert import cli

PARTITIONS = [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1)]
BACKENDS = ("exact", "float")


def functions(path: str):
    """(first line, qualified name, line count) of every ``def`` in a file.
    The first line is the one its code object reports: that of its first
    decorator, if it has one."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, prefix + child.name, child.end_lineno - child.lineno + 1))
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    with open(path) as fh:
        walk(ast.parse(fh.read()), "")
    return out


def reached_code(argvs) -> tuple[set, int]:
    """(filename, first line) of every code object called while ``cli.main``
    runs each argv in turn, and the number of runs that exited nonzero."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    failures = 0
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            # diff exits 1 when the certificates differ, which they do
            failures += code != (1 if argv[0] == "diff" else 0)
    finally:
        sys.setprofile(None)
    return {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in seen}, failures


def main() -> int:
    package = os.path.dirname(os.path.abspath(qautcert.__file__))
    with tempfile.TemporaryDirectory() as tmp:
        argvs, certs = [], []
        for backend in BACKENDS:
            for partition in PARTITIONS:
                base = os.path.join(tmp, "_".join(map(str, partition)) + "_" + backend)
                certs.append(base + ".json")
                argvs.append(["run", "--partition", ",".join(map(str, partition)),
                              "--backend", backend, "--seed", "42", "--strict",
                              "--out", base + ".json", "--markdown", base + ".md"])
        argvs.append(["diff", certs[0], certs[len(PARTITIONS)]])
        reached, failures = reached_code(argvs)
    total_functions = total_lines = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        unreached = [(qual, lines) for first, qual, lines in functions(path)
                     if (path, first) not in reached]
        if not unreached:
            continue
        lines = sum(n for _, n in unreached)
        total_functions += len(unreached)
        total_lines += lines
        print(f"{name}: {len(unreached)} functions, {lines} lines")
        for qual, n in unreached:
            print(f"  {qual} ({n})")
    print(f"total: {total_functions} functions, {total_lines} lines")
    if failures:
        print(f"{failures} runs did not exit as a passing run does", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
