"""Command-line front end: run verification suites per partition, emit
deterministic JSON certificates (timings quarantined in their own section),
render Markdown reports, and diff certificates structurally.

Exit codes of ``run``: 0 all selected suites passed, 1 at least one suite
failed, 2 malformed configuration (a repeated suite included) or an output
file that cannot be written.  Exit codes of ``diff``: 0 identical,
1 the certificates differ, 2 a file is missing or is not a certificate, or
the tool versions differ.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .algebra import BlockSpec
from .arith import root_of_unity
from .cocycle import (
    FinAbGroup,
    fourier_function_algebra,
    spec_cocycle,
    verify_twist_theorem,
)
from .crossed import (
    action_from_graded,
    conjugation_lemma_check,
    takesaki_takai_check,
)
from .pauli import (
    BlockEmbedding,
    depolarization_check,
    entangled_basis,
    is_unitary_error_basis,
    pvm_check,
    table_terms,
    weyl_basis,
)
from .qaut import (
    QautPresentation,
    SnPresentation,
    arbitrary_permutations,
    battery_groups,
    block_preserving_permutations,
    direct_sum_assignment,
    check_relations,
    classical_assignment_aut,
    classical_theta_battery,
    covariance_check,
    haar_compat_check,
    image_stack,
    pi_map,
    rearranged_Q_check,
    rho_forms_agree,
    rho_map,
    strict_word_check,
    uet_pvm,
)

SUITE_NAMES = ("ueb", "twist", "conj", "tt", "pvm", "homs", "shuffle", "cov", "haar")

ENV_PREFIX = "QAUTCERT_"

CONVENTIONS = {
    "pauli": "X diagonal (X|j> = w^j |j>), Z cyclic shift (Z|j> = |j+1>)",
    "weyl_product": "T_ij T_kl = w^(-jk) T_(i+k,j+l)",
    "pairing": "<chi, g> = prod_i zeta_(f_i)^(chi_i g_i) on matching tuples",
    "base_cocycle": "w'([j1,j2],[k1,k2]) = zeta_n^(j1 k2)",
    "sqrt_branch": "psi(h) = zeta_(2M)^(-k) for w'(h,h^-1) = zeta_M^k, shared within {h, h^-1}",
    "base_points": "torsor base point (0,0) per block",
    "layout": "interleaved (a1,b1,...,am,bm) <-> paired ((a..),(b..)) mixed radix",
    "shuffle": "(1,2,3,4) -> (1,3)(2,4), applied once at certificate assembly",
    "pi_prefactor": "1/n_r (forced by the column-sum relation)",
    "rho_prefactor": "1/n_s (forced by idempotency of the images)",
    "shuffle_constant": "n_s",
    "beta_targets": "x+1|s=t, y-1|s=t, v+1|r=t, w-1|r=t",
}


class ConfigError(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    partition: tuple[int, ...]
    backend: str = "exact"
    tol: float = 1e-9
    seed: int = 42
    suites: tuple[str, ...] = SUITE_NAMES
    out: str | None = None
    markdown: str | None = None
    force: bool = False
    strict: bool = False

    def __post_init__(self):
        if not self.partition or any(n < 1 for n in self.partition):
            raise ConfigError("partition entries must be >= 1")
        if self.backend not in ("exact", "float"):
            raise ConfigError("backend must be exact or float")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError("tolerance must be finite and positive")
        if not self.suites:
            raise ConfigError("no suites selected")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ConfigError(f"unknown suites: {', '.join(unknown)}")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise ConfigError(f"repeated suites: {', '.join(repeated)}")
        N = sum(n * n for n in self.partition)
        cap = 16 if self.backend == "exact" else 36
        if N > cap and not self.force:
            raise ConfigError(
                f"N = {N} exceeds the desk-scale cap {cap} for the {self.backend} "
                "backend; pass --force to override")

    @property
    def spec(self) -> BlockSpec:
        return BlockSpec(self.partition)


# ---------------------------------------------------------------------------
# suites

def _suite_ueb(cfg: SuiteConfig) -> dict:
    """Exact on both backends: a passing check has residual 0.0."""
    spec = cfg.spec
    cases = 0
    for n in sorted(set(spec.sizes)):
        family = weyl_basis(n)
        rep = is_unitary_error_basis(family, n)
        if not rep.ok:
            return {"passed": False, "failure": f"n={n}: {rep.failure}",
                    "worst_residual": rep.worst_residual}
        drep = depolarization_check(family)  # every matrix unit of M_n
        if not drep.ok:
            return {"passed": False, "failure": drep.failure,
                    "worst_residual": drep.worst_residual}
        entangled_basis(n)  # verifies orthonormality of its n^2 vectors
        cases += 2 * n * n
    emb, d2 = BlockEmbedding(spec), spec.d ** 2
    for s, n in enumerate(spec.sizes, start=1):
        pvm_check([table_terms(d2, emb.phi_table(s, i, j)) for i in range(n) for j in range(n)])
        cases += n * n
    return {"passed": True, "worst_residual": 0.0, "cases": cases,
            "block_sizes_checked": sorted(set(spec.sizes))}


def _suite_twist(cfg: SuiteConfig) -> dict:
    return verify_twist_theorem(cfg.spec)


def _suite_conj(cfg: SuiteConfig) -> dict:
    graded = fourier_function_algebra(cfg.spec)
    sigma = spec_cocycle(cfg.spec)
    return conjugation_lemma_check(graded, sigma)


def _tt_group(spec: BlockSpec) -> FinAbGroup:
    """Largest canonical translation subgroup keeping the double crossed
    product at desk scale (dimension <= 300)."""
    n1 = spec.sizes[0]
    full = []
    for n in spec.sizes:
        full += [n, n]
    for factors in (tuple(full), (n1, n1), (n1,)):
        order = 1
        for f in factors:
            order *= f
        if spec.N * order * order <= 300:
            return FinAbGroup(factors)
    return FinAbGroup((1,))


def _suite_tt(cfg: SuiteConfig) -> dict:
    spec = cfg.spec
    group = _tt_group(spec)
    action = action_from_graded(fourier_function_algebra(spec), group)
    out = takesaki_takai_check(action, seed=cfg.seed)
    out["acting_group"] = list(group.factors)
    return out


def _suite_pvm(cfg: SuiteConfig) -> dict:
    return uet_pvm(cfg.spec)


def _suite_homs(cfg: SuiteConfig) -> dict:
    spec = cfg.spec
    qpres, upres = QautPresentation(spec), SnPresentation(spec)
    # block-preserving by default, plus a few arbitrary permutations and one
    # direct sum: matrix-valued and block-crossing members exercise the
    # relation families the classical block-preserving points cannot reach
    perms = block_preserving_permutations(spec, 20, seed=cfg.seed)
    tagged = [("block", p) for p in perms]
    tagged += [("any", p) for p in arbitrary_permutations(spec, 3, seed=cfg.seed)]
    worst = 0.0

    def battery_failure(presentation, images, asg, cases, key):
        """Check the presentation's relations at the images of each case of
        the assignment, labelled (failure label, record line) in ``cases``;
        the failing fragment, if any."""
        nonlocal worst
        if cfg.backend == "float":
            images = ft_to_float(images)
        for first, group in battery_groups(images, presentation, asg):
            rep = check_relations(group, cfg.tol)
            worst = max(worst, rep.worst_residual)
            if not rep.ok:
                case = first + rep.failing_case
                return {"passed": False, "failure": f"{cases[case][0]}: {rep.failing}",
                        "worst_residual": worst, key: [line for _, line in cases[:case + 1]]}
        return None

    # the permutation cases, then their first two as one direct sum
    pi_cases = [("pi battery", f"{mode}:" + ",".join(f"{k}->{v}" for k, v in sorted(perm.items())))
                for mode, perm in tagged]
    pi_cases.append(("pi direct sum", "direct_sum:first-two-block-preserving"))
    points = [perm for _, perm in tagged] + perms[:2]
    pi_asg = direct_sum_assignment(spec, points, np.minimum(np.arange(len(points)), len(tagged)))
    failure = battery_failure(qpres, image_stack(pi_map(spec), qpres, upres), pi_asg, pi_cases,
                              "pi_battery")
    if failure:
        return failure
    rho = rho_map(spec)
    if not rho_forms_agree(spec, rho):
        return {"passed": False, "failure": "rho displayed forms disagree",
                "worst_residual": worst}
    battery = classical_theta_battery(spec, 10, seed=cfg.seed)
    theta_cases = [("rho battery", str(entry[:-1])) for entry in battery]
    failure = battery_failure(upres, image_stack(rho, upres, qpres),
                              classical_assignment_aut(spec, [entry[-1] for entry in battery]),
                              theta_cases, "theta_battery")
    if failure:
        return failure
    out = {"passed": True, "worst_residual": worst,
           "pi_permutations": len(perms), "rho_automorphisms": len(battery),
           "rho_forms_agree": True,
           "pi_battery": [line for _, line in pi_cases],
           "theta_battery": [line for _, line in theta_cases]}
    if cfg.strict:
        out["strict_mode"] = strict_word_check(spec)
    return out


def ft_to_float(ft):
    """The float form of a formal tensor: each row's coefficient, its
    image's prefactor times zeta_order^exp, as a complex128 phase."""
    roots = np.array([root_of_unity(ft.order, e).to_complex() for e in range(ft.order)])
    prefactors = np.array([float(p) for p in ft.prefactors])
    return replace(ft, phase=prefactors[ft.row // ft.size] * roots[ft.exp % ft.order])


def _suite_shuffle(cfg: SuiteConfig) -> dict:
    return rearranged_Q_check(cfg.spec)


def _suite_cov(cfg: SuiteConfig) -> dict:
    return covariance_check(cfg.spec)


def _suite_haar(cfg: SuiteConfig) -> dict:
    return haar_compat_check(cfg.spec)


_SUITES = {
    "ueb": _suite_ueb,
    "twist": _suite_twist,
    "conj": _suite_conj,
    "tt": _suite_tt,
    "pvm": _suite_pvm,
    "homs": _suite_homs,
    "shuffle": _suite_shuffle,
    "cov": _suite_cov,
    "haar": _suite_haar,
}


# ---------------------------------------------------------------------------
# certificate assembly

def run(cfg: SuiteConfig) -> dict:
    """Execute the selected suites and assemble the certificate."""
    results: dict = {}
    timings: dict = {}
    selected = list(cfg.suites)
    for name in selected:
        t0 = time.perf_counter()
        try:
            results[name] = _SUITES[name](cfg)
        except Exception as exc:  # suite crashes are certificate failures
            results[name] = {"passed": False, "error": f"{type(exc).__name__}: {exc}",
                             "where": _crash_site(exc)}
        timings[name] = round(time.perf_counter() - t0, 6)
    passed = all(results[name].get("passed", False) for name in selected)
    cert = {
        "schema": 1,
        "tool": {"name": "qautcert", "version": __version__},
        "config": {
            "partition": list(cfg.partition),
            "backend": cfg.backend,
            "tol": cfg.tol,
            "seed": cfg.seed,
            "suites": sorted(cfg.suites),
            "force": cfg.force,
            "strict": cfg.strict,
        },
        "conventions": dict(CONVENTIONS),
        "suites": {name: results[name] for name in sorted(results)},
        "summary": {
            "passed": passed,
            "suites_passed": sum(1 for n in selected if results[n].get("passed")),
            "suites_failed": sum(1 for n in selected if not results[n].get("passed")),
        },
        "timings": timings,
    }
    return cert


def _crash_site(exc: BaseException) -> str:
    """``<module>.py:<line>`` of the innermost traceback frame inside this
    package."""
    package = os.path.dirname(os.path.abspath(__file__))
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if os.path.dirname(os.path.abspath(f.filename)) == package]
    return f"{os.path.basename(frames[-1].filename)}:{frames[-1].lineno}"


def certificate_json(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"


def certificate_markdown(cert: dict) -> str:
    """Markdown rendering, a pure function of the certificate JSON."""
    lines = [
        f"# qautcert report (schema {cert['schema']}, v{cert['tool']['version']})",
        "",
        f"- partition: {cert['config']['partition']}",
        f"- backend: {cert['config']['backend']}  tol: {cert['config']['tol']}"
        f"  seed: {cert['config']['seed']}",
        f"- overall: {'PASS' if cert['summary']['passed'] else 'FAIL'}",
        "",
        "| suite | passed | worst residual | notes |",
        "|-------|--------|----------------|-------|",
    ]
    for name, frag in sorted(cert["suites"].items()):
        resid = frag.get("worst_residual", "")
        note = frag.get("failure", frag.get("error", ""))
        lines.append(f"| {name} | {frag.get('passed')} | {resid} | {note} |")
    lines.append("")
    lines.append("## Conventions")
    for k, v in sorted(cert["conventions"].items()):
        lines.append(f"- {k}: {v}")
    lines.append("")
    return "\n".join(lines)


def diff(cert_a: dict, cert_b: dict) -> str:
    """Structural delta ignoring the timing section; empty when identical."""
    if cert_a.get("tool", {}).get("version") != cert_b.get("tool", {}).get("version"):
        raise VersionMismatch("certificates come from different tool versions")
    deltas: list[str] = []

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if path == "" and key == "timings":
                    continue
                walk(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                deltas.append(f"{path}: list length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif a != b:
            deltas.append(f"{path}: {a!r} != {b!r}")

    walk(cert_a, cert_b, "")
    return "\n".join(deltas)


# ---------------------------------------------------------------------------
# argument handling

def _load_certificate(path: str) -> dict:
    with open(path) as fh:
        try:
            cert = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(cert, dict) or not isinstance(cert.get("tool", {}), dict):
        raise ValueError(f"{path}: not a certificate object")
    return cert


def _env_default(name: str, fallback):
    return os.environ.get(ENV_PREFIX + name, fallback)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qautcert",
        description="desk-scale verification suites for quantum automorphism "
                    "group constructions")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run suites and write a certificate")
    runp.add_argument("--partition", default=_env_default("PARTITION", "2"),
                      help="comma-separated block sizes, e.g. 2,1")
    runp.add_argument("--backend", default=_env_default("BACKEND", "exact"),
                      choices=["exact", "float"])
    runp.add_argument("--tol", type=float, default=_env_default("TOL", "1e-9"))
    runp.add_argument("--seed", type=int, default=_env_default("SEED", "42"))
    runp.add_argument("--suites", default=_env_default("SUITES", ",".join(SUITE_NAMES)))
    runp.add_argument("--out", default=_env_default("OUT", None))
    runp.add_argument("--markdown", default=_env_default("MARKDOWN", None))
    runp.add_argument("--force", action="store_true",
                      default=_env_default("FORCE", "") == "1")
    runp.add_argument("--strict", action="store_true",
                      default=_env_default("STRICT", "") == "1")
    diffp = sub.add_parser("diff", help="structurally compare two certificates")
    diffp.add_argument("cert_a")
    diffp.add_argument("cert_b")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "diff":
        try:
            delta = diff(_load_certificate(args.cert_a), _load_certificate(args.cert_b))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if delta:
            try:
                print(delta, flush=True)
            except BrokenPipeError:
                # the reader closed early (`| head`): point stdout at devnull
                # so the interpreter's last flush stays quiet too
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return 0
    try:
        partition = tuple(int(x) for x in str(args.partition).split(","))
        cfg = SuiteConfig(
            partition=partition,
            backend=args.backend,
            tol=args.tol,
            seed=args.seed,
            suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()),
            out=args.out,
            markdown=args.markdown,
            force=args.force,
            strict=args.strict,
        )
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with contextlib.ExitStack() as files:
            # both files are opened before any suite runs, so that a bad
            # path costs no run, and emptied only once the run is done
            out, md = [files.enter_context(open(path, "a")) if path else None
                       for path in (cfg.out, cfg.markdown)]
            cert = run(cfg)
            text = certificate_json(cert)
            if out:
                out.truncate(0)
                out.write(text)
            if md:
                md.truncate(0)
                md.write(certificate_markdown(cert))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not cfg.out:
        sys.stdout.write(text)
    for name in sorted(cert["suites"]):
        frag = cert["suites"][name]
        status = "PASS" if frag.get("passed") else "FAIL"
        print(f"{name}: {status}", file=sys.stderr)
    return 0 if cert["summary"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
