import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import qautcert

from qautcert.cli import (
    ConfigError,
    SuiteConfig,
    VersionMismatch,
    certificate_json,
    certificate_markdown,
    diff,
    main,
    run,
)
from qautcert.formal import qsym, usym

import mat_reference
from image_reference import pi_images, pi_stack, rho_images, rho_stack
from mat_reference import mat


SMALL = ("ueb", "twist", "pvm", "haar")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def small_config(**overrides):
    base = dict(partition=(2,), suites=SMALL, seed=42)
    base.update(overrides)
    return SuiteConfig(**base)


def test_run_small_config_passes():
    cert = run(small_config())
    assert cert["summary"]["passed"]
    assert set(cert["suites"]) == set(SMALL)


def test_determinism_byte_identical_without_timings():
    a = run(small_config())
    b = run(small_config())
    a.pop("timings")
    b.pop("timings")
    assert certificate_json(a) == certificate_json(b)


def test_diff_identical_runs_empty():
    a = run(small_config())
    b = run(small_config())
    assert diff(a, b) == ""


def test_diff_different_seeds_only_in_batteries():
    cfg_a = SuiteConfig(partition=(2,), suites=("homs",), seed=1)
    cfg_b = SuiteConfig(partition=(2,), suites=("homs",), seed=2)
    delta = diff(run(cfg_a), run(cfg_b))
    lines = [l for l in delta.splitlines() if not l.startswith("config.seed")]
    assert lines  # seeds differ, so battery membership differs
    for line in lines:
        assert "battery" in line, line


def test_diff_version_mismatch():
    a = run(small_config())
    b = json.loads(certificate_json(a))
    b["tool"]["version"] = "0.0.0"
    with pytest.raises(VersionMismatch):
        diff(a, b)


def test_exit_codes_and_outputs(tmp_path):
    out = tmp_path / "cert.json"
    md = tmp_path / "cert.md"
    code = main(["run", "--partition", "2", "--suites", "ueb,pvm",
                 "--out", str(out), "--markdown", str(md)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["summary"]["passed"]
    assert "| ueb |" in md.read_text()


def test_cli_diff_subcommand(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["run", "--partition", "2", "--suites", "ueb",
                     "--out", str(path)]) == 0
    assert main(["diff", str(a), str(b)]) == 0


def test_config_guardrails():
    with pytest.raises(ConfigError):
        SuiteConfig(partition=(4, 1), backend="exact")  # N = 17 > 16
    SuiteConfig(partition=(4, 1), backend="exact", force=True)
    SuiteConfig(partition=(4, 1), backend="float")  # 17 <= 36
    with pytest.raises(ConfigError):
        SuiteConfig(partition=(6, 1), backend="float")  # N = 37 > 36


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(partition=(0,))
    with pytest.raises(ConfigError):
        SuiteConfig(partition=(2,), backend="quantum")
    with pytest.raises(ConfigError):
        SuiteConfig(partition=(2,), tol=-1.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            SuiteConfig(partition=(2,), tol=tol)
    with pytest.raises(ConfigError):
        SuiteConfig(partition=(2,), suites=("nope",))


def test_malformed_cli_config_exits_2(tmp_path):
    assert main(["run", "--partition", "4,1"]) == 2
    assert main(["run", "--partition", "2", "--suites", "bogus"]) == 2


def test_non_finite_tol_exits_2(capsys):
    assert main(["run", "--partition", "1", "--backend", "float",
                 "--suites", "ueb,homs", "--tol", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""


def test_env_tol_inf_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("QAUTCERT_TOL", "inf")
    assert main(["run", "--partition", "1", "--backend", "float", "--suites", "homs"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_empty_suite_list_is_a_config_error(capsys):
    with pytest.raises(ConfigError):
        SuiteConfig(partition=(1,), suites=())
    assert main(["run", "--partition", "1", "--suites", ","]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""


def test_env_overrides(tmp_path, monkeypatch):
    out = tmp_path / "env.json"
    monkeypatch.setenv("QAUTCERT_PARTITION", "1,1")
    monkeypatch.setenv("QAUTCERT_SUITES", "ueb")
    monkeypatch.setenv("QAUTCERT_OUT", str(out))
    assert main(["run"]) == 0
    cert = json.loads(out.read_text())
    assert cert["config"]["partition"] == [1, 1]
    assert cert["config"]["suites"] == ["ueb"]
    # explicit flags take precedence over the environment
    out2 = tmp_path / "env2.json"
    assert main(["run", "--partition", "2", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["config"]["partition"] == [2]


def test_malformed_env_tol_is_an_argument_error(monkeypatch, capsys):
    monkeypatch.setenv("QAUTCERT_TOL", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suites", "ueb"])
    assert exc.value.code == 2
    assert "argument --tol: invalid float value: 'abc'" in capsys.readouterr().err


def test_malformed_env_seed_does_not_reach_diff(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    assert main(["run", "--partition", "2", "--suites", "ueb", "--out", str(a)]) == 0
    monkeypatch.setenv("QAUTCERT_SEED", "x")
    assert main(["diff", str(a), str(a)]) == 0


def test_tt_recognizer_retries_after_merged_blocks():
    # at this seed a generic central element first merges two blocks
    cert = run(SuiteConfig(partition=(2, 2), suites=("tt",), seed=5))
    assert cert["summary"]["passed"], cert["suites"]["tt"]


def test_degenerate_partition_passes_all_suites():
    cert = run(SuiteConfig(partition=(1, 1, 1, 1)))
    assert cert["summary"]["passed"]


def test_float_pipeline_2_1_reports_tiny_residuals():
    cert = run(SuiteConfig(partition=(2, 1), backend="float", tol=1e-9))
    assert cert["summary"]["passed"]
    for name, frag in cert["suites"].items():
        resid = frag.get("worst_residual")
        if resid is not None:
            assert resid <= 1e-10, (name, resid)


def test_exact_vs_float_deltas_confined_to_expected_fields():
    # ueb, twist, pvm, shuffle and haar are the same computation on both
    # backends
    subset = ("ueb", "twist", "pvm", "shuffle", "haar")
    a = run(SuiteConfig(partition=(2, 1), backend="exact", suites=subset))
    b = run(SuiteConfig(partition=(2, 1), backend="float", suites=subset))
    for line in diff(a, b).splitlines():
        assert line.split(":")[0] == "config.backend", line


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_no_certificate_builds_a_dense_matrix(backend, monkeypatch):
    """Every suite decides its identities on index tables and terms: with
    every ``Mat`` construction raising, every fragment still passes."""
    from qautcert.arith import Mat

    def refuse(cls, *args):
        raise AssertionError("a certificate built a dense Mat")

    monkeypatch.setattr(Mat, "_new", classmethod(refuse))
    for partition in [(2,), (3,), (2, 2), (2, 1, 1)]:
        cert = run(SuiteConfig(partition=partition, backend=backend))
        failed = {name: frag.get("failure") or frag.get("error")
                  for name, frag in cert["suites"].items() if not frag.get("passed")}
        assert not failed, (partition, failed)
        assert cert["summary"]["passed"]


def test_ueb_failures_read_as_the_dense_reference(monkeypatch):
    """A Weyl basis with one wrong phase: the suite names its first failing
    pair after n, and, with that check passed over, its first failing
    depolarization unit, in the dense reference's words."""
    import qautcert.cli
    from qautcert.pauli import PhasePermutation, UebReport, weyl_basis

    T = weyl_basis(2)
    exp = T.exp.copy()
    exp[1, 0] = (exp[1, 0] + 1) % 2  # the phase of member 1 at column 0
    bent = PhasePermutation(T.L, T.perm, exp)
    mats = [mat(bent.at(k)) for k in range(4)]
    monkeypatch.setattr(qautcert.cli, "weyl_basis", lambda n: bent if n == 2 else weyl_basis(n))
    frag = run(SuiteConfig(partition=(2,), suites=("ueb",)))["suites"]["ueb"]
    want = mat_reference.is_unitary_error_basis(mats, 2)
    assert frag["failure"] == f"n=2: {want.failure}"
    monkeypatch.setattr(qautcert.cli, "is_unitary_error_basis", lambda family, n: UebReport(True, 0.0))
    frag = run(SuiteConfig(partition=(2,), suites=("ueb",)))["suites"]["ueb"]
    want = mat_reference.depolarization_units(mats)
    assert frag["failure"] == want.failure and frag["failure"].startswith("depolarization n=2 unit (")
    assert frag["worst_residual"] == pytest.approx(want.worst_residual)


def test_markdown_is_pure_function_of_json():
    cert = run(small_config())
    md1 = certificate_markdown(cert)
    md2 = certificate_markdown(json.loads(certificate_json(cert)))
    assert md1 == md2


def test_strict_mode_reports_in_certificate():
    cert = run(SuiteConfig(partition=(2,), suites=("homs",), strict=True))
    assert cert["summary"]["passed"]
    strict = cert["suites"]["homs"]["strict_mode"]
    assert set(strict["families"].values()) <= {"verified", "inconclusive"}


def test_cli_diff_nonidentical_exits_1(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "--partition", "2", "--suites", "homs", "--seed", "1",
                 "--out", str(a)]) == 0
    assert main(["run", "--partition", "2", "--suites", "homs", "--seed", "2",
                 "--out", str(b)]) == 0
    assert main(["diff", str(a), str(b)]) == 1


def test_repeated_suite_is_a_config_error(capsys):
    with pytest.raises(ConfigError, match="repeated suites: tt"):
        SuiteConfig(partition=(2,), suites=("tt", "ueb", "tt"))
    assert main(["run", "--partition", "2", "--suites", "ueb,tt,ueb,tt"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: repeated suites: tt, ueb\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--out", "--markdown"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, flag):
    # the path is refused before any suite runs
    import qautcert.cli as cli

    def no_run(cfg):
        raise AssertionError("a suite ran before the output path was checked")

    monkeypatch.setattr(cli, "run", no_run)
    target = str(tmp_path / "missing" / "x.json")
    assert main(["run", "--partition", "1", "--suites", "ueb", flag, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and target in err and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_out_and_markdown_at_one_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    # one path, the same path spelled two ways, and a hard link to an
    # existing certificate are each refused before any suite runs
    import qautcert.cli as cli

    def no_run(cfg):
        raise AssertionError("a suite ran with --out and --markdown at one file")

    monkeypatch.setattr(cli, "run", no_run)
    cert, link = tmp_path / "cert.json", tmp_path / "link.md"
    cert.write_text("an earlier certificate\n")
    os.link(cert, link)
    for out, md in [(cert, cert), (cert, tmp_path / "." / "cert.json"), (cert, link),
                    (tmp_path / "new.json", tmp_path / "new.json")]:
        assert main(["run", "--partition", "2", "--suites", "ueb", "--out", str(out),
                     "--markdown", str(md)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --out and --markdown name one file: {out}\n"
    assert cert.read_text() == "an earlier certificate\n"
    assert not (tmp_path / "new.json").exists()


def test_output_file_kept_when_the_other_path_is_unwritable(tmp_path, capsys):
    # a certificate already at --out survives a run refused for --markdown,
    # and a run that goes ahead replaces it whole
    out = tmp_path / "cert.json"
    out.write_text("an earlier certificate\n")
    assert main(["run", "--partition", "2", "--suites", "ueb", "--out", str(out),
                 "--markdown", str(tmp_path / "missing" / "x.md")]) == 2
    assert out.read_text() == "an earlier certificate\n"
    assert main(["run", "--partition", "2", "--suites", "ueb", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["passed"]


def test_cli_diff_missing_file_exits_2(tmp_path, capsys):
    a = tmp_path / "a.json"
    assert main(["run", "--partition", "2", "--suites", "ueb", "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["diff", str(a), str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_diff_malformed_file_exits_2(tmp_path, capsys):
    a = tmp_path / "a.json"
    assert main(["run", "--partition", "2", "--suites", "ueb", "--out", str(a)]) == 0
    for text in ('{"schema": 1,', "[1, 2]", '{"tool": "qautcert"}'):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["diff", str(bad), str(a)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_diff_into_closed_reader_exits_quietly(tmp_path):
    paths = []
    for name, shift in (("a.json", 0), ("b.json", 1)):
        cert = {"tool": {"version": "0.1.0"},
                "values": {str(i): i + shift for i in range(20000)}}
        path = tmp_path / name
        path.write_text(json.dumps(cert))
        paths.append(str(path))
    src = os.path.dirname(os.path.dirname(qautcert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "qautcert", "diff", *paths],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"values.")
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_crashed_fragment_records_where(monkeypatch):
    import re

    import qautcert.qaut

    def broken(spec):
        raise RuntimeError("injected")

    monkeypatch.setattr(qautcert.qaut, "pi_map", broken)
    cert = run(SuiteConfig(partition=(2,), suites=("haar",)))
    frag = cert["suites"]["haar"]
    assert not frag["passed"]
    assert frag["error"] == "RuntimeError: injected"
    assert re.match(r"^qaut\.py:\d+$", frag["where"]), frag["where"]


def _exponent_off_by_one(ft):
    exp = ft.exp.copy()
    exp[0] += 1
    return replace(ft, exp=exp)


def test_homs_fails_when_a_rho_image_disagrees_with_its_conjugated_form(monkeypatch):
    import qautcert.cli

    sym = usym(1, 0, 0, 1, 0, 0)

    def edited(spec):
        rho = rho_images(spec)
        rho[sym] = _exponent_off_by_one(rho[sym])
        return rho_stack(spec, rho)

    monkeypatch.setattr(qautcert.cli, "rho_map", edited)
    frag = run(SuiteConfig(partition=(2,), suites=("homs",)))["suites"]["homs"]
    assert frag["passed"] is False
    assert frag["failure"] == "rho displayed forms disagree"


def test_shuffle_names_the_word_of_a_mutated_pi_image(monkeypatch):
    import qautcert.qaut

    sym = qsym(1, 1, 0, 0, 0, 0)

    def edited(spec):
        pi = pi_images(spec)
        pi[sym] = _exponent_off_by_one(pi[sym])
        return pi_stack(spec, pi)

    monkeypatch.setattr(qautcert.qaut, "pi_map", edited)
    frag = run(SuiteConfig(partition=(2, 1), suites=("shuffle",)))["suites"]["shuffle"]
    assert frag["passed"] is False
    # the first row of pi(q^(1,1)_(0,0),(0,0)) is in the coefficient of this u
    assert frag["failed_word"] == str(usym(1, 0, 0, 1, 0, 0))


def assert_matches_golden(partition, backend):
    tag = "_".join(str(n) for n in partition)
    with open(os.path.join(GOLDEN, f"cert_{tag}_{backend}.json")) as fh:
        golden = json.load(fh)
    tol = golden["config"]["tol"]
    # only float residuals may move, with the LAPACK build
    cert = run(SuiteConfig(partition=partition, backend=backend,
                           suites=tuple(golden["config"]["suites"])))
    for line in diff(golden, cert).splitlines():
        path, values = line.split(": ", 1)
        assert path.endswith(".worst_residual"), line
        assert max(float(v) for v in values.split(" != ")) <= tol, line


@pytest.mark.parametrize("partition", [(2, 1), (1, 1, 1, 1), (2, 1, 1), (2,), (2, 2), (3,)])
def test_exact_certificate_matches_golden(partition):
    assert_matches_golden(partition, "exact")


@pytest.mark.parametrize("partition", [(2, 1), (2, 1, 1), (2,), (3,), (2, 2), (1, 1, 1, 1)])
def test_float_certificate_matches_golden(partition):
    assert_matches_golden(partition, "float")


def test_every_function_no_certificate_runs_is_on_the_allowlist():
    """``scripts/unreached_functions.py``, the gate on code that no standard
    certificate runs, passes on this tree."""
    src = os.path.dirname(os.path.dirname(qautcert.__file__))
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "unreached_functions.py")
    # a QAUTCERT_ variable in the caller's environment does not reach the runs
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, QAUTCERT_SUITES="ueb"),
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
