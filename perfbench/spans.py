"""Span tracing of qautcert from outside the package.

``Tracer.installed()`` wraps selected public functions and ``Mat`` methods
and records one span per call: name, start, end and parent.  Spans live in
flat arrays in memory and are reduced to per-layer metrics after the timed
work.  A layer is a module of the package; its self time is the time spent
in its wrapped calls minus the time covered by their wrapped children.  Time
in functions that are not wrapped counts to the nearest wrapped caller.

Functions are replaced in every package module that bound them (``cli``
imports the suite entry points by name), methods on their class.  Nothing
under ``src/`` is edited; ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "arith", "formal", "qaut", "algebra", "crossed", "cocycle", "pauli")

# (module, function) replaced wherever a package module bound it.  The
# suite entry points ``cli`` imports are included so that their time counts
# to their own module, not to ``cli``.
FUNCTIONS = (
    ("cli", "run"), ("cli", "ft_to_float"),
    ("qaut", "check_relations"), ("qaut", "pi_map"), ("qaut", "rho_map"),
    ("qaut", "covariance_check"), ("qaut", "rearranged_Q_check"),
    ("qaut", "haar_compat_check"), ("qaut", "uet_pvm"),
    ("qaut", "permutation_assignment"), ("qaut", "direct_sum_assignment"),
    ("qaut", "classical_assignment_aut"), ("qaut", "classical_theta_battery"),
    ("qaut", "block_preserving_permutations"), ("qaut", "arbitrary_permutations"),
    ("algebra", "recognize_blocks"),
    ("crossed", "takesaki_takai_check"), ("crossed", "conjugation_lemma_check"),
    ("cocycle", "verify_twist_theorem"), ("cocycle", "fourier_function_algebra"),
    ("cocycle", "spec_cocycle"),
    ("pauli", "pvm_check"), ("pauli", "weyl_basis"), ("pauli", "entangled_basis"),
    ("pauli", "is_unitary_error_basis"), ("pauli", "depolarization_check"),
)

# (module, class, method, span name).  Mat methods beyond the four reported
# ops are wrapped so that their time counts to arith, not to their caller.
METHODS = (
    ("arith", "Mat", "__matmul__", "arith.mat_matmul"),
    ("arith", "Mat", "__add__", "arith.mat_add"),
    ("arith", "Mat", "scale", "arith.mat_scale"),
    ("arith", "Mat", "kron", "arith.mat_kron"),
    ("arith", "Mat", "to_float", "arith.mat_to_float"),
    ("arith", "Mat", "__neg__", "arith.mat_neg"),
    ("arith", "Mat", "adjoint", "arith.mat_adjoint"),
    ("arith", "Mat", "conj", "arith.mat_conj"),
    ("arith", "Mat", "transpose", "arith.mat_transpose"),
    ("arith", "Mat", "equals", "arith.mat_equals"),
    ("arith", "Mat", "residual", "arith.mat_residual"),
    ("formal", "FormalTensor", "substitute", "formal.substitute"),
    ("algebra", "StructAlgebra", "verify_axioms", "algebra.verify_axioms"),
)

# Spans whose inclusive time (``.s``) is reported; ``.calls`` for those in CALLS.
TIMED_SPANS = (
    "arith.mat_matmul", "arith.mat_add", "arith.mat_scale", "arith.mat_kron",
    "arith.mat_to_float", "cli.ft_to_float",
    "formal.substitute", "qaut.check_relations",
    "qaut.pi_map", "qaut.rho_map", "qaut.covariance_check",
    "qaut.rearranged_Q_check", "qaut.haar_compat_check",
    "algebra.verify_axioms", "algebra.recognize_blocks",
    "crossed.takesaki_takai_check", "crossed.conjugation_lemma_check",
    "cocycle.verify_twist_theorem", "pauli.pvm_check",
)
CALLS = ("arith.mat_matmul", "arith.mat_add", "arith.mat_scale", "arith.mat_kron",
         "formal.substitute", "qaut.check_relations")
_MAT_BINARY = ("arith.mat_matmul", "arith.mat_add", "arith.mat_kron")


def layer_metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.metrics`` returns, in report order."""
    names = [f"{m}.self_s" for m in MODULES]
    for span in TIMED_SPANS:
        names.append(f"{span}.s")
        if span in CALLS:
            names.append(f"{span}.calls")
    names += ["arith.mat_object_share", "arith.mat_promotions",
              "qaut.relations_checked", "qaut.relations_per_s"]
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def wrap(self, name: str, fn, probe=None):
        """Return ``fn`` recording a span per call; ``probe(args, result)``
        runs after the span closes, so its cost counts to the caller."""
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_start(0.0)
            add_end(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return traced

    def _probe_mat_binary(self, args, result):
        if result.backend != "exact":
            return
        a, b = args[0], args[1]
        self.counters["exact_ops"] += 1
        if object in (a.coef.dtype, b.coef.dtype, result.coef.dtype):
            self.counters["object_ops"] += 1
        if a.order != b.order:
            self.counters["promotions"] += 1

    def _probe_mat_scale(self, args, result):
        if result.backend != "exact":
            return
        a = args[0]
        self.counters["exact_ops"] += 1
        if object in (a.coef.dtype, result.coef.dtype):
            self.counters["object_ops"] += 1
        if result.order != a.order:
            self.counters["promotions"] += 1

    def _probe_relations(self, args, report):
        self.counters["relations_checked"] += report.checked

    def _probe_for(self, name: str):
        if name in _MAT_BINARY:
            return self._probe_mat_binary
        if name == "arith.mat_scale":
            return self._probe_mat_scale
        if name == "qaut.check_relations":
            return self._probe_relations
        return None

    # -- installation -------------------------------------------------------
    def install(self):
        import qautcert
        from qautcert import algebra, arith, cli, cocycle, crossed, formal, pauli, qaut

        mods = {"cli": cli, "arith": arith, "formal": formal, "qaut": qaut,
                "algebra": algebra, "crossed": crossed, "cocycle": cocycle,
                "pauli": pauli}
        holders = [qautcert, *mods.values()]
        for mod, attr in FUNCTIONS:
            original = getattr(mods[mod], attr)
            name = f"{mod}.{attr}"
            traced = self.wrap(name, original, self._probe_for(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, traced)
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, self.wrap(name, original, self._probe_for(name)))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (see ``layer_metric_names``)."""
        n = len(self.span_start)
        names, parent = self.names, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        module = [name.split(".", 1)[0] for name in names]
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        # Inclusive time counts only the outermost of nested same-name spans.
        path: list[int] = []
        open_names: Counter = Counter()
        for i in range(n):
            while path and path[-1] != parent[i]:
                open_names[self.span_name[path.pop()]] -= 1
            nid = self.span_name[i]
            self_s[module[nid]] += dur[i] - covered[i]
            calls[nid] += 1
            if not open_names[nid]:
                inclusive[nid] += dur[i]
            path.append(i)
            open_names[nid] += 1
        ids = {name: i for i, name in enumerate(names)}
        out: dict[str, float] = {f"{m}.self_s": self_s[m] for m in MODULES}
        for span in TIMED_SPANS:
            out[f"{span}.s"] = inclusive[ids.get(span, -1)]
            if span in CALLS:
                out[f"{span}.calls"] = calls[ids.get(span, -1)]
        c = self.counters
        out["arith.mat_object_share"] = (c["object_ops"] / c["exact_ops"]
                                         if c["exact_ops"] else 0.0)
        out["arith.mat_promotions"] = c["promotions"]
        out["qaut.relations_checked"] = c["relations_checked"]
        busy = out["qaut.check_relations.s"]
        out["qaut.relations_per_s"] = c["relations_checked"] / busy if busy else 0.0
        return out

