"""End-to-end runs of the zxw command line."""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxwkit import (check_soundness, controlled_state_normal_form,
                    controlled_sum_states, diagram_from_json, diagram_to_json,
                    hadamard_diagram, matrix_from_text, matrix_to_text,
                    structural_equal, template_names, triangle,
                    vector_from_text, w_diagram, zbox_diagram)
from zxwkit import cli
from zxwkit.cli import CLI_TOL, _build_parser, _config, main
from zxwkit.evaluate import DEFAULT_CAP

EXAMPLE = "1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n-1.0 IIZ\n"


@pytest.fixture
def ham_file(tmp_path):
    f = tmp_path / "ham.txt"
    f.write_text(EXAMPLE)
    return str(f)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_check_rules_single(capsys):
    rc = main(["check-rules", "--rule", "S1", "--samples", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "S1" in out and "ok" in out
    header = out.splitlines()[0]
    for col in ("rule", "samples", "exact%", "scalar%", "max-resid"):
        assert col in header


def test_check_rules_rows_are_the_soundness_report(capsys):
    assert main(["check-rules", "--samples", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    want = check_soundness(template_names(), draws=5, seed=7,
                           tol=CLI_TOL).lines()
    assert lines[1:-1] == want
    assert lines[-1] == f"total: {len(want)} rules, 0 failing draws"


def test_check_rules_unknown_rule(capsys):
    assert main(["check-rules", "--rule", "Bogus"]) == 2
    capsys.readouterr()


def test_eval_diagram_file(tmp_path, capsys):
    f = tmp_path / "tri.json"
    f.write_text(diagram_to_json(triangle()))
    rc = main(["eval", str(f)])
    out = capsys.readouterr().out
    assert rc == 0
    got = matrix_from_text(out)
    assert np.abs(got - np.array([[1, 1], [0, 1]])).max() <= 1e-9


def test_eval_missing_file(capsys):
    assert main(["eval", "/no/such/file.json"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err and "error" in err


def test_controlled_matrix_verify(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text(matrix_to_text(np.array([[1.0, 2.0], [0.5j, -1.0]])))
    rc = main(["controlled", "--matrix", str(f), "--verify"])
    captured = capsys.readouterr()
    assert rc == 0
    d = diagram_from_json(captured.out)
    assert len(d.inputs) == 2    # control wire plus one qubit
    assert "discharge residual" in captured.err


def test_controlled_matrix_verify_at_large_norm(tmp_path, capsys):
    # the error is linear in ||M||: 1e6 on the diagonal still verifies at
    # the CLI tolerance, with a discharge residual of about 5e-10
    f = tmp_path / "m.txt"
    f.write_text(matrix_to_text(np.array([[1e6, 1.0], [2.0, 1e6]])))
    assert main(["controlled", "--matrix", str(f), "--verify"]) == 0
    assert "discharge residual" in capsys.readouterr().err


def test_controlled_verify_that_overflows_exits_two(tmp_path, capfd):
    # the entries are finite, but the diagram overflows before the matrix
    # does (its Pauli coefficients' partial sums pass 1.8e308): a one-line
    # usage error, no numpy warning and an empty stdout
    f = tmp_path / "big.txt"
    f.write_text(matrix_to_text(np.full((4, 4), 1e308)))
    assert main(["controlled", "--matrix", str(f), "--verify"]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert "Warning" not in err and err.startswith("usage: zxw controlled")
    assert err.count("zxw: error") == 1 and err.splitlines()[-1] == (
        "zxw: error: no finite comparison with the target: the diagram's "
        "contraction overflows")


def test_controlled_sum_weights(tmp_path, capsys):
    f1 = tmp_path / "a.txt"
    f2 = tmp_path / "b.txt"
    f1.write_text(matrix_to_text(np.eye(2)))
    f2.write_text(matrix_to_text(np.array([[0.0, 1.0], [1.0, 0.0]])))
    rc = main(["controlled", "--matrix", str(f1), "--matrix", str(f2),
               "--sum", "0.5,2j", "--verify"])
    capsys.readouterr()
    assert rc == 0


@pytest.mark.parametrize("kind", ["--matrix", "--state"])
def test_controlled_empty_sum_is_usage_error(kind, tmp_path, capsys):
    # an empty spec is a bad weight, not a missing --sum
    f = tmp_path / "input"
    f.write_text("1\t0\n0\t1\n" if kind == "--matrix" else "1\n0\n")
    assert main(["controlled", kind, str(f), "--sum", "", "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if line.startswith("zxw: error:")]
    assert len(errors) == 1 and errors[0].startswith("zxw: error: bad weight ''")


def test_controlled_requires_exactly_one_input_kind(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text(matrix_to_text(np.eye(2)))
    assert main(["controlled", "--verify"]) == 2
    assert main(["controlled", "--matrix", str(f), "--state", str(f)]) == 2
    capsys.readouterr()


def test_controlled_state(tmp_path, capsys):
    f = tmp_path / "v.txt"
    f.write_text("1\n0\n0\n2j\n")
    rc = main(["controlled", "--state", str(f), "--verify"])
    capsys.readouterr()
    assert rc == 0


@pytest.mark.parametrize("extra, weights", [
    ([], [1.0, 1.0]),
    (["--verify"], [1.0, 1.0]),
    (["--sum", "0.5,2j"], [0.5, 2j]),
    (["--sum", "0.5,2j", "--verify"], [0.5, 2j]),
], ids=["plain", "verify", "sum", "sum-verify"])
def test_controlled_state_sum(extra, weights, tmp_path, capsys):
    # two --state files are a weighted sum of controlled states, with unit
    # weights when --sum is left out; --verify adds one stderr line
    texts = ["1\n0\n0\n2j\n", "0.5\n-1j\n0.25\n1\n"]
    files = []
    for i, text in enumerate(texts):
        files += ["--state", str(tmp_path / f"v{i}.txt")]
        (tmp_path / f"v{i}.txt").write_text(text)
    assert main(["controlled", *files, *extra]) == 0
    out, err = capsys.readouterr()
    vecs = [vector_from_text(text) for text in texts]
    cd = controlled_sum_states(
        [controlled_state_normal_form(v) for v in vecs], weights=weights)
    assert out == diagram_to_json(cd.diagram) + "\n"
    assert err == ("discharge residual 0.000e+00, idle residual 0.000e+00 "
                   "(tol 1e-09)\n" if "--verify" in extra else "")


@pytest.mark.parametrize("kind, count, spec, noun", [
    ("--matrix", 1, "1,2,3", "matrices"),
    ("--matrix", 2, "1", "matrices"),
    ("--state", 1, "1,2", "states"),
    ("--state", 2, "1,2,3", "states"),
])
def test_controlled_sum_count_mismatch_is_usage_error(kind, count, spec, noun,
                                                      tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")     # the width the usage wraps at
    f = tmp_path / "input"
    f.write_text("1\t0\n0\t1\n" if kind == "--matrix" else "1\n0\n")
    argv = ["controlled"] + [kind, str(f)] * count + ["--sum", spec]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    n = len(spec.split(","))
    assert err == (
        "usage: zxw controlled [-h] [--cap N] [--tol X] [--matrix FILE] "
        "[--state FILE]\n"
        "                      [--sum SPEC] [--verify]\n"
        f"zxw: error: --sum gave {n} weights for {count} {noun}\n")


def test_ham_build_summary_and_verify(ham_file, capsys):
    rc = main(["ham", "build", ham_file, "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "terms=5 qubits=3" in out
    assert "oracle match: 8x8" in out


def test_ham_build_export_json_round_trips(ham_file, capsys):
    rc = main(["ham", "build", ham_file, "--export", "json"])
    captured = capsys.readouterr()
    assert rc == 0
    d = diagram_from_json(captured.out)
    back = diagram_from_json(diagram_to_json(d))
    assert structural_equal(d, back)
    # summary goes to stderr so stdout stays parseable
    assert "terms=5" in captured.err


def test_ham_build_export_dot_shows_weighted_branches(ham_file, capsys):
    rc = main(["ham", "build", ham_file, "--export", "dot"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("graph zxw")
    assert captured.out.count('tooltip="weight"') == 5


def test_ham_build_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("nan nonsense\n")
    assert main(["ham", "build", str(f)]) == 2
    capsys.readouterr()


def test_expm_exact_prints_matrix(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("1.0 ZZZ\n2.0 XZX\n")
    rc = main(["expm", str(f), "--method", "exact", "--t", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    u = matrix_from_text(out)
    assert u.shape == (8, 8)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-9


def test_expm_exact_compare_oracle(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("1.0 ZZZ\n2.0 XZX\n")
    rc = main(["expm", str(f), "--method", "exact", "--t", "0.5",
               "--compare-oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "operator-norm error:" in out
    err = float(out.split(":")[1])
    assert err <= 1e-9


def test_expm_trotter_and_taylor(ham_file, capsys):
    rc = main(["expm", ham_file, "--method", "trotter", "--steps", "5",
               "--t", "0.5", "--compare-oracle"])
    out1 = capsys.readouterr().out
    assert rc == 0
    rc = main(["expm", ham_file, "--method", "taylor", "--order", "4",
               "--t", "0.3", "--compare-oracle"])
    out2 = capsys.readouterr().out
    assert rc == 0
    assert float(out1.split(":")[1]) < 1.0
    assert float(out2.split(":")[1]) < 1e-3


def test_expm_flag_pairing(ham_file, capsys):
    assert main(["expm", ham_file, "--method", "taylor", "--t", "0.5"]) == 2
    assert main(["expm", ham_file, "--method", "trotter", "--t", "0.5"]) == 2
    assert main(["expm", ham_file, "--method", "exact", "--t", "0.5",
                 "--steps", "3"]) == 2
    assert main(["expm", ham_file, "--method", "trotter", "--steps", "2",
                 "--order", "2", "--t", "0.5"]) == 2
    capsys.readouterr()


def test_expm_exact_rejects_noncommuting(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("1.0 X\n1.0 Z\n")
    assert main(["expm", str(f), "--method", "exact", "--t", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "non-commuting" in err


def test_expm_emit_circuit(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("0.8 X\n-0.5 Z\n0.3 I\n")
    rc = main(["expm", str(f), "--method", "taylor", "--order", "12",
               "--t", "1.1", "--emit-circuit"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines, out
    for line in lines:
        parts = line.split()
        assert parts[0] in ("H", "RZ", "RX", "CNOT", "CZ", "PHASE"), line
        assert all(t.isdigit() for t in parts[1].split(","))
    assert any(p.startswith("PHASE") for p in lines)   # identity term folded


def test_expm_emit_circuit_needs_single_qubit(ham_file, capsys):
    assert main(["expm", ham_file, "--method", "trotter", "--steps", "2",
                 "--t", "0.5", "--emit-circuit"]) == 2
    capsys.readouterr()


def test_export_round_trip(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(diagram_to_json(triangle()))
    rc = main(["export", str(f), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert structural_equal(diagram_from_json(out), triangle())
    rc = main(["export", str(f), "--format", "dot"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("graph zxw")


def test_export_rejects_bad_json(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text("{not json")
    assert main(["export", str(f), "--format", "json"]) == 2
    capsys.readouterr()


def test_extract_demo_seeded_is_reproducible(capsys):
    assert main(["extract-demo", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["extract-demo", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "extracted circuit:" in first
    assert "circuit vs dense exponential" in first


def test_extract_demo_explicit_values(capsys):
    rc = main(["extract-demo", "--a", "0.4", "--b", "1.2", "--t", "0.9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H = 0.4 X + 1.2 Z" in out


def test_cap_and_tol_flags(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("1.0 ZZ\n")
    assert main(["ham", "build", str(f), "--verify", "--cap", "0"]) == 2
    assert main(["ham", "build", str(f), "--verify", "--tol", "-1"]) == 2
    assert main(["ham", "build", str(f), "--verify", "--cap", "1"]) == 2
    capsys.readouterr()


def test_ham_build_verify_honours_cap(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("1.0 XXIIIII\n-0.5 IIIIIZZ\n0.25 IIYIIII\n")
    # 7 qubits: 14 open wires on each plug, above the default cap of 12
    assert main(["ham", "build", str(f), "--verify"]) == 2
    assert "14 open wires exceed cap 12" in capsys.readouterr().err
    assert main(["ham", "build", str(f), "--verify", "--cap", "20"]) == 0
    assert "oracle match: 128x128" in capsys.readouterr().out


def test_expm_taylor_of_a_wide_sum_exits_two_at_evaluation(tmp_path,
                                                           capsys):
    # 13 qubits: the build takes no cap, the evaluation does (never raise
    # the cap here: the contraction would allocate gigabytes)
    f = tmp_path / "h.txt"
    f.write_text("0.5 XIIIIIIIIIIIZ\n-0.25 IIIIIIYIIIIII\n")
    assert main(["expm", str(f), "--method", "taylor", "--order", "1",
                 "--t", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "26 open wires exceed cap 12" in captured.err
    assert "Traceback" not in captured.err


def test_controlled_verify_honours_cap(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text(matrix_to_text(np.array([[1.0, 2.0, 0.0, 0.0],
                                          [0.5j, -1.0, 0.0, 1.0],
                                          [0.0, 0.0, 3.0, 0.0],
                                          [1.0, 0.0, 0.0, 1.0]])))
    # 2 qubits: 4 open wires on each plug
    assert main(["controlled", "--matrix", str(f), "--verify",
                 "--cap", "3"]) == 2
    assert "4 open wires exceed cap 3" in capsys.readouterr().err
    assert main(["controlled", "--matrix", str(f), "--verify",
                 "--cap", "20"]) == 0
    capsys.readouterr()


def test_env_overrides(monkeypatch):
    parser = _build_parser()
    argv = ["eval", "d.json"]
    monkeypatch.setenv("ZXW_CAP", "17")
    monkeypatch.setenv("ZXW_TOL", "1e-6")
    cfg = _config(parser.parse_args(argv))
    assert (cfg.cap, cfg.tol) == (17, 1e-6)
    cfg = _config(parser.parse_args(argv + ["--cap", "5", "--tol", "1e-3"]))
    assert (cfg.cap, cfg.tol) == (5, 1e-3)
    monkeypatch.delenv("ZXW_CAP")
    monkeypatch.delenv("ZXW_TOL")
    cfg = _config(parser.parse_args(argv))
    assert (cfg.cap, cfg.tol) == (DEFAULT_CAP, CLI_TOL)


@pytest.mark.parametrize("var", ["ZXW_CAP", "ZXW_TOL"])
def test_bad_env_value_is_usage_error(var, ham_file, capsys, monkeypatch):
    monkeypatch.setenv(var, "abc")
    assert main(["ham", "build", ham_file]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"zxw: error: bad {var} value 'abc'"
    assert "Traceback" not in err


TROTTER = ["--method", "trotter", "--steps", "2", "--compare-oracle"]


@pytest.mark.parametrize("argv, text", [
    (["expm", "FILE", "--t", "0.5"] + TROTTER, "nan ZZ\n"),
    (["expm", "FILE", "--t", "nan"] + TROTTER, EXAMPLE),
    (["controlled", "--verify", "--matrix", "FILE"], "1\tinf\n0\t1\n"),
    (["controlled", "--verify", "--state", "FILE"], "1\nnan\n"),
    (["eval", "FILE"], diagram_to_json(triangle()).replace(
        '"a": [1.0, 0.0]', '"a": [NaN, 0.0]', 1)),
    (["controlled", "--verify", "--matrix", "FILE", "--matrix", "FILE",
      "--sum", "1,nan"], "1\t0\n0\t1\n"),
], ids=["coefficient", "time", "matrix", "vector", "json_label", "weight"])
def test_non_finite_input_is_usage_error(argv, text, tmp_path, capsys):
    f = tmp_path / "input"
    f.write_text(text)
    assert main([str(f) if a == "FILE" else a for a in argv]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("zxw") and "finite" in last


def test_eval_takes_no_time(tmp_path, capsys):
    # a diagram's labels are numbers: only ``expm`` and ``extract-demo``
    # take a time
    f = tmp_path / "d.json"
    f.write_text(diagram_to_json(triangle()))
    assert main(["eval", str(f), "--t", "0.3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith("zxw: error:")


@pytest.mark.parametrize("source", ["flag", "variable"])
def test_non_finite_tol_is_usage_error(source, ham_file, capsys, monkeypatch):
    argv = ["ham", "build", ham_file, "--verify"]
    if source == "flag":
        argv += ["--tol", "inf"]
    else:
        monkeypatch.setenv("ZXW_TOL", "inf")
    assert main(argv) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "zxw: error: tolerance must be finite and positive, got inf"


def test_env_defaults(tmp_path, capsys, monkeypatch):
    f = tmp_path / "h.txt"
    f.write_text("1.0 ZZ\n")
    monkeypatch.setenv("ZXW_CAP", "1")
    assert main(["ham", "build", str(f), "--verify"]) == 2
    monkeypatch.setenv("ZXW_CAP", "12")
    assert main(["ham", "build", str(f), "--verify"]) == 0
    capsys.readouterr()


def test_verification_failure_exits_one(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text(matrix_to_text(np.array([[1.0, 2.0], [3.0, 4.0]])))
    rc = main(["controlled", "--matrix", str(f), "--verify",
               "--tol", "1e-18"])
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize("argv, text, rc, residual", [
    (["controlled", "--matrix", "FILE", "--verify"], "1e308\t0\n0\t-1e308\n",
     0, "discharge residual 0.000e+00"),
    (["controlled", "--matrix", "FILE", "--verify"],
     "1e308\t1e308\n1e308\t1e308\n", 1, "discharge residual 1.996e+292"),
    (["controlled", "--matrix", "FILE", "--verify"],
     "1e308\t-1e308\n-1e308\t1e308\n", 1, "discharge residual 1.996e+292"),
    (["ham", "build", "FILE", "--verify"],
     "1e-320 X\n1e308 X\n-1e200 X\n1e-320 Z\n", 1,
     "oracle MISMATCH: discharge residual 5.988e+292"),
    (["ham", "build", "FILE", "--verify"], "1e308 XX\n1e308 XY\n", 1,
     "oracle MISMATCH: discharge residual 1.129e+293"),
], ids=["diagonal", "ones", "signs", "ham-build", "ham-build-two-terms"])
def test_a_check_at_the_float_limit_compares_absolutely(argv, text, rc,
                                                       residual, tmp_path,
                                                       capsys):
    # the verify plan contracts the weights last, so these finite inputs
    # no longer overflow; the tolerance is absolute, so a correct diagram
    # with a relative error near 1e-16 of a 1e308 norm reads as a mismatch
    # and exits 1 (a tolerance relative to the target's norm would pass
    # all five)
    f = tmp_path / "input.txt"
    f.write_text(text)
    assert main([str(f) if a == "FILE" else a for a in argv]) == rc
    out, err = capsys.readouterr()
    assert residual in out + err and "Traceback" not in err


# a finite input whose check overflows: two terms whose finite sum the
# open-control contraction overflows on the way to, whatever order it
# contracts the weights in, and a 3-qubit sum whose check needs six open
# wires
_OVERFLOWING_SUM = "1.2e308 ZZ\n1.2e308 XI\n"
_THREE_QUBITS = "-0.0 ZZX\n1e-300 IYX\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, text", [
    (["check-rules", "--samples", "-3"], EXAMPLE),
    (["check-rules", "--samples", "0"], EXAMPLE),
    (["expm", "FILE", "--method", "taylor", "--t", "1e308", "--order", "3",
      "--compare-oracle"], EXAMPLE),
    (["expm", "FILE", "--method", "trotter", "--t", "1e308", "--steps", "3",
      "--compare-oracle"], EXAMPLE),
    (["extract-demo", "--seed", "-1"], EXAMPLE),
    (["check-rules", "--seed", "-1", "--samples", "1"], EXAMPLE),
    (["extract-demo", "--a", "1e160", "--b", "1", "--t", "1"], EXAMPLE),
    (["extract-demo", "--a", "2", "--t", "1e308"], EXAMPLE),
    (["extract-demo", "--a", "0.5", "--b", "1e308", "--t", "0.5"], EXAMPLE),
    (["ham", "build", "FILE", "--verify"], _OVERFLOWING_SUM),
    (["ham", "build", "FILE", "--verify", "--cap", "5"], _THREE_QUBITS),
    (["ham", "build", "FILE", "--verify", "--cap", "5", "--export", "json"],
     _THREE_QUBITS),
    (["expm", "FILE", "--method", "taylor", "--order", "2", "--t", "1"],
     "1e308 X\n1 Z\n"),
    (["expm", "FILE", "--method", "exact", "--t", "1e308"],
     "1e308 I\n1e308 Z\n"),
    (["expm", "FILE", "--method", "trotter", "--steps", "2", "--t", "1e300"],
     "1e308 X\n1 Z\n"),
    (["expm", "FILE", "--method", "exact", "--t", "1e308"],
     "1 I\n1 I\n1 I\n1 I\n"),
    (["extract-demo", "--a", "1e308", "--b", "1", "--t", "10"], EXAMPLE),
    (["extract-demo", "--a", "100", "--b", "1", "--t", "1e307"], EXAMPLE),
    (["extract-demo", "--a", "1e200", "--b", "1", "--t", "1e200"], EXAMPLE),
    (["expm", "FILE", "--method", "taylor", "--t", "2", "--order", "0",
      "--emit-circuit"], "1e308 X\n"),
    (["expm", "FILE", "--method", "taylor", "--t", "1e308", "--order", "0",
      "--emit-circuit"], "4 I\n"),
    (["expm", "FILE", "--method", "taylor", "--t", "1e308", "--order", "0",
      "--compare-oracle"], "4 I\n"),
    (["expm", "FILE", "--method", "taylor", "--t", "0.5", "--order", "2",
      "--emit-circuit"], "1j X\n0.5 Z\n"),
    (["expm", "FILE", "--method", "taylor", "--t", "0.5", "--order", "2",
      "--steps", "3"], EXAMPLE),
], ids=["samples-negative", "samples-zero", "taylor-overflow",
        "oracle-overflow", "extract-demo-seed-negative",
        "check-rules-seed-negative", "extract-demo-overflow",
        "extract-demo-angle-overflow", "extract-demo-warnings",
        "ham-build-verify-overflow", "ham-build-verify-cap",
        "ham-build-verify-cap-json", "expm-taylor-not-finite",
        "expm-exact-gadget-phase", "expm-trotter-gadget-phase",
        "expm-exact-global-phase", "extract-demo-putzer-large-a",
        "extract-demo-putzer-large-t", "extract-demo-putzer-large-a-and-t",
        "expm-circuit-rotation-angle", "expm-circuit-global-phase",
        "expm-oracle-warnings", "expm-circuit-non-real",
        "expm-order-and-steps"])
def test_out_of_range_input_is_usage_error(argv, text, tmp_path, capsys):
    # exit 2 with one error line, nothing on stdout and no warning
    f = tmp_path / "input.txt"
    f.write_text(text)
    assert main([str(f) if a == "FILE" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert [ln for ln in lines if "error" in ln] == lines[-1:]
    assert lines[-1].startswith("zxw: error: ")


@pytest.mark.parametrize("argv", [
    ["ham", "build", "--verify", "FILE"],
    ["extract-demo", "--a", "1.0", "--b", "1.0", "--t", "0.7"],
], ids=["ham-build", "extract-demo"])
def test_readme_shows_the_current_node_counts(argv, ham_file, capsys):
    assert main([ham_file if a == "FILE" else a for a in argv]) == 0
    counts = [ln for ln in capsys.readouterr().out.splitlines()
              if "nodes=" in ln]
    readme = Path(__file__).resolve().parent.parent / "README.md"
    shown = readme.read_text(encoding="utf-8").splitlines()
    assert counts
    for line in counts:
        assert line in shown, line


@pytest.mark.parametrize("argv", [
    ["expm", "FILE", "--method", "trotter", "--steps", "2", "--t", "1e308",
     "--emit-circuit"],
    ["extract-demo", "--t", "1e308"],
], ids=["emit-circuit", "extract-demo"])
def test_non_finite_comparison_exits_two_with_empty_stdout(argv, tmp_path,
                                                           capsys):
    f = tmp_path / "h.txt"
    f.write_text("0.5 X\n0.3 Z\n")
    assert main([str(f) if a == "FILE" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith(
        "zxw: error: no finite comparison with the dense exponential")


@pytest.mark.parametrize("argv, text", [
    (["extract-demo", "--a", "-1e3", "--b", "1", "--t", "1"], ""),
    (["extract-demo", "--t", "-1e308"], ""),
    (["expm", "FILE", "--method", "exact", "--t", "-1e3"], "1 Z\n0.3 I\n"),
], ids=["extract-demo-a", "extract-demo-t", "expm-exact-t"])
def test_a_negative_value_in_exponent_notation_reads_as_written(
        argv, text, tmp_path, capsys):
    # argparse reads ``-1e3`` after an option as another option; zxw reads
    # ``--flag -1e3`` as its ``--flag=-1e3`` spelling
    f = tmp_path / "input.txt"
    f.write_text(text)
    argv = [str(f) if a == "FILE" else a for a in argv]
    k = next(k for k, a in enumerate(argv) if a.startswith("-1e"))
    joined = argv[:k - 1] + [f"{argv[k - 1]}={argv[k]}"] + argv[k + 1:]
    got = main(argv), capsys.readouterr()
    assert got == (main(joined), capsys.readouterr())
    assert "expected one argument" not in got[1].err


def test_a_number_after_a_switch_is_an_extra_argument(ham_file, capsys):
    # a switch takes no value, so ``-1e3`` after one is not joined to it;
    # ``_SWITCHES`` names every long option that takes no value
    switches = {s for _, parser in _leaf_parsers(_build_parser())
                for a in parser._actions if a.nargs == 0
                for s in a.option_strings if s.startswith("--")}
    assert switches == set(cli._SWITCHES)
    assert main(["ham", "build", ham_file, "--verify", "-1e3"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "zxw: error: unrecognized arguments: -1e3")


_REAL = st.sampled_from(["1", "-0.5", "0", "2.5e3", "0.25"])
_BAD = st.sampled_from(["1e308", "-1e308", "1e-320", "nan", "inf", "j",
                        "abc", ""])


@st.composite
def _pauli_text(draw):
    """A Pauli sum on 1-3 qubits, half the time with one token broken."""
    m = draw(st.integers(1, 3))
    lines = [[draw(_REAL), draw(st.text("IXYZ", min_size=m, max_size=m))]
             for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        line = draw(st.sampled_from(lines))
        k = draw(st.integers(0, 1))
        line[k] = draw(_BAD if k == 0 else st.text("IXYZQ", max_size=3))
    return "\n".join(" ".join(line) for line in lines)


@st.composite
def _matrix_text(draw, shapes):
    """Matrix text of one of ``shapes``, half the time with a bad entry."""
    rows, cols = draw(st.sampled_from(shapes))
    cells = [[draw(st.one_of(_REAL, st.just("0.3+1j"))) for _ in range(cols)]
             for _ in range(rows)]
    if draw(st.booleans()):
        draw(st.sampled_from(cells))[draw(st.integers(0, cols - 1))] = draw(_BAD)
    return "\n".join("\t".join(row) for row in cells)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text("ab", max_size=2)
    | st.floats(-3, 3, width=16), lambda inner: st.lists(inner, max_size=3),
    max_leaves=4)
_DIAGRAMS = [diagram_to_json(d) for d in (
    triangle(), hadamard_diagram(), w_diagram(), zbox_diagram(0.5, 1, 2))]


def _leaves(tree, path=()):
    """Paths to the scalars and empty containers inside a JSON value."""
    for k, v in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
        if isinstance(v, (dict, list)) and v:
            yield from _leaves(v, path + (k,))
        else:
            yield path + (k,)


@st.composite
def _diagram_json(draw):
    """A small diagram's JSON with up to two leaves replaced or deleted,
    half the time cut short."""
    data = json.loads(draw(st.sampled_from(_DIAGRAMS)))
    for _ in range(draw(st.integers(0, 2))):
        *path, k = draw(st.sampled_from(list(_leaves(data))))
        parent = data
        for step in path:
            parent = parent[step]
        if draw(st.integers(0, 3)):
            parent[k] = draw(_JSON_VALUES)
        else:
            del parent[k]
    text = json.dumps(data)
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


_TIMES = st.sampled_from(["0.5", "-2", "0", "1.3", "1e308"])
_COUNTS = st.sampled_from(["-1", "0", "1", "2", "3"])
_EXPM = st.one_of(
    st.tuples(_TIMES, _COUNTS).map(
        lambda a: ["--method", "taylor", "--t", a[0], "--order", a[1]]),
    st.tuples(_TIMES, _COUNTS).map(
        lambda a: ["--method", "trotter", "--t", a[0], "--steps", a[1]]),
    _TIMES.map(lambda t: ["--method", "exact", "--t", t]))
# the finite numbers of both pools, which the flags' parser passes on
_NUMBERS = st.one_of(_REAL, st.sampled_from(["1e308", "-1e308", "1e-320"]))


def _spelled(flag: str, values):
    """``flag`` with a drawn value, as ``--flag VALUE`` or ``--flag=VALUE``."""
    return st.tuples(values, st.booleans()).map(
        lambda a: [f"{flag}={a[0]}"] if a[1] else [flag, a[0]])


_EXTRACT = st.one_of(
    st.tuples(*[_spelled(flag, _NUMBERS) for flag in ("--a", "--b", "--t")])
    .map(lambda a: ["extract-demo", *a[0], *a[1], *a[2]]),
    _spelled("--seed", _COUNTS).map(lambda a: ["extract-demo", *a]))
_RUNS = st.one_of(
    st.tuples(_pauli_text(), st.just(["ham", "build", "FILE", "--verify"])),
    st.tuples(_pauli_text(), st.tuples(
        _EXPM, st.sampled_from([[], ["--emit-circuit"], ["--compare-oracle"]])
    ).map(lambda a: ["expm", "FILE", *a[0], *a[1]])),
    st.tuples(_matrix_text([(2, 2), (4, 4), (3, 3), (2, 1)]),
              st.just(["controlled", "--matrix", "FILE", "--verify"])),
    st.tuples(_matrix_text([(2, 1), (4, 1), (1, 1), (2, 2)]),
              st.just(["controlled", "--state", "FILE", "--verify"])),
    *[st.tuples(_diagram_json(), st.sampled_from([
        ["eval", "FILE"], ["export", "FILE", "--format", "json"],
        ["export", "FILE", "--format", "dot"]]))] * 2)


def _exits_cleanly(text: str, argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([str(path) if a == "FILE" else a for a in argv])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        # one error line, last, and nothing on stdout
        lines = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert [ln for ln in lines if "error" in ln] == lines[-1:]
        assert lines[-1].startswith("zxw: error: ")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_RUNS, _EXTRACT)
def test_generated_input_never_raises(run, extract):
    # an exception escaping main is what a shell user would see as a
    # traceback; every example runs one command on a file and one
    # extract-demo, which reads no file
    _exits_cleanly(*run)
    _exits_cleanly("", extract)


def _leaf_parsers(parser, words=()):
    """(command words, parser) of every subcommand that runs something."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(words), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, words + (name,))


def test_no_option_takes_an_abbreviation(ham_file, tmp_path, capsys):
    # argparse would read ``--t 0.5`` as ``--tol 0.5`` wherever no ``--t``
    # is defined, and so loosen a verification; every proper prefix of a
    # long option is refused as an unknown argument instead
    matrix = tmp_path / "m.txt"
    matrix.write_text(matrix_to_text(np.eye(2)))
    diagram = tmp_path / "d.json"
    diagram.write_text(diagram_to_json(triangle()))
    base = {
        ("check-rules",): ["--rule", "S1", "--samples", "1"],
        ("eval",): [str(diagram)],
        ("controlled",): ["--matrix", str(matrix)],
        ("ham", "build"): [ham_file, "--verify"],
        ("expm",): [ham_file, "--method", "trotter", "--steps", "1",
                    "--t", "0.5"],
        ("export",): [str(diagram), "--format", "json"],
        ("extract-demo",): [],
    }
    value = {"--cap": "12", "--tol": "0.5", "--rule": "S1", "--samples": "1",
             "--seed": "3", "--matrix": str(matrix), "--state": str(matrix),
             "--sum": "1", "--export": "json", "--method": "trotter",
             "--t": "0.5", "--order": "2", "--steps": "1", "--format": "json",
             "--a": "1", "--b": "1"}
    cases = 0
    for words, parser in _leaf_parsers(_build_parser()):
        actions = {s: a for a in parser._actions for s in a.option_strings}
        for option, action in actions.items():
            for cut in range(3, len(option)):
                prefix = option[:cut]
                if prefix in actions:
                    continue
                extra = [prefix] + ([] if action.nargs == 0
                                    else [value[option]])
                assert main(words + base[tuple(words)] + extra) == 2, extra
                out, err = capsys.readouterr()
                errors = [ln for ln in err.splitlines() if "error:" in ln]
                assert out == "" and errors == [
                    "zxw: error: unrecognized arguments: "
                    + " ".join(extra)], (words, extra)
                cases += 1
    assert cases > 40
