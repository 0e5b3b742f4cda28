#!/usr/bin/env python3
"""Gate: every function of ``src/qautcert`` runs in a standard certificate
or is on ``ALLOWED`` with its reason.

Runs ``qautcert.cli.main`` over the six standard partitions on both
backends, each with ``--strict``, ``--out`` and ``--markdown`` into a
temporary directory, plus one ``diff`` of two of the certificates, under
``sys.setprofile``.  Every function of the package (each ``def`` found by
``ast``, methods and nested functions included) whose code never ran is
printed with its line count, ``def`` to end, and its reason, per module and
in total.

    PYTHONPATH=src python scripts/unreached_functions.py

Exits 1 when a certificate fails, since a failing run reaches less code;
when a function that never ran is not on ``ALLOWED``; or when a name on
``ALLOWED`` is not a function that never ran (it runs now, or is gone), so
that the list stays exact.
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

# reason -> {module: the qualified names of its functions kept for it}
ALLOWED = {
    # perfbench/spans.py and tests/test_bench_hooks.py name them
    "perfbench": {
        "arith": """
            Mat.__init__ Mat._new Mat.exact Mat.from_entries Mat.vstack Mat.zeros
            Mat.identity Mat.scalar Mat._promote_pair Mat._promote_order Mat._rescaled_pair
            Mat.__matmul__ Mat.__add__ Mat.__sub__ Mat.__neg__ Mat.scale Mat.kron
            Mat.adjoint Mat.transpose Mat.conj Mat.select Mat.entry Mat.trace
            Mat.normalized_trace Mat.to_float Mat.is_zero Mat.equals Mat.residual
            Mat.is_unitary Mat.scalar_multiple_of_identity Mat.entries Mat.terms
            Mat.sparse_entries Mat.__repr__
            _product_table _stored _contract _linear _bilinear _planes_kron _float_residual
            Terms.dense""",
        "formal": "FormalTensor.substitute",
        "qaut": "permutation_assignment",
    },
    # tests/mat_reference.py, the dense reference of the tests, calls them
    "test reference": {
        "arith": """Cyclotomic.__sub__ Cyclotomic.__rsub__ Cyclotomic.__rtruediv__
                    Cyclotomic.__pow__ Cyclotomic.__hash__""",
    },
    # they run on bad input or on a failed check, or read a report as a bool
    "input/error path": {
        "arith": "_reduce_mod_phi",
        "cli": "_crash_site",
        "pauli": "NotPVM.__init__ UebReport.__bool__",
        "qaut": "haar_compat_check.failed",
        "relations": """QautPresentation.instance_name SnPresentation.instance_name
                        PvmPresentation.instance_name RelationReport.__bool__ _quotients""",
    },
    # their removal changes certificates, so it waits for a change that may
    "deferred": {
        "algebra": "delta_form_check",
    },
}
REASONS = {(f"{module}.py", name): reason for reason, modules in ALLOWED.items()
           for module, names in modules.items() for name in names.split()}


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
    # every option of the runs is the one given here, not a QAUTCERT_
    # default read from the caller's environment
    for key in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        del os.environ[key]
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
    listed = set()
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
            listed.add((name, qual))
            print(f"  {qual} ({n}) {REASONS.get((name, qual), 'NOT ALLOWED')}")
    print(f"total: {total_functions} functions, {total_lines} lines")
    unlisted = sorted(listed - REASONS.keys())
    stale = sorted(REASONS.keys() - listed)
    for name, qual in unlisted:
        print(f"{name}: {qual} never ran and is not on ALLOWED", file=sys.stderr)
    for name, qual in stale:
        print(f"{name}: {qual} is on ALLOWED but is not a function that never ran",
              file=sys.stderr)
    if failures:
        print(f"{failures} runs did not exit as a passing run does", file=sys.stderr)
    return 1 if failures or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
