"""Command-line front end.

One binary, subcommand style:

    zxw check-rules [--rule NAME] [--samples N] [--seed S]
    zxw eval FILE
    zxw controlled (--matrix FILE... | --state FILE...) [--sum W,W,...] [--verify]
    zxw ham build FILE [--export dot|json] [--verify]
    zxw expm FILE --method taylor|trotter|exact --t VAL
             [--order N | --steps N] [--emit-circuit] [--compare-oracle]
    zxw export FILE --format json|dot
    zxw extract-demo [--a VAL --b VAL --t VAL | --seed S]

``check-rules`` prints the rows of ``rules.check_soundness``'s report.
Exit status: 0 on success, 1 on a verification failure, 2 on a usage error.
Every subcommand takes --cap and --tol; the environment variables ZXW_CAP
and ZXW_TOL supply the defaults (12 and 1e-9).  Only the command line reads
them: library functions take ``cap`` as an argument (default 12), and every
builder returns an unfused diagram.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .controlled import (controlled_matrix, controlled_state_normal_form,
                         controlled_sum_matrices, controlled_sum_states,
                         state_oracle, verify_controlled)
from .evaluate import DEFAULT_CAP, eval_diagram
from .expo import (Circuit, Gate, _phase, cayley_hamilton_diagram,
                   commuting_exponential, extract_axz_circuit, taylor_diagram,
                   trotter_diagram)
from .graph import DiagramError
from .pauli import build_hamiltonian_diagram, oracle_matrix, parse_pauli_sum
from .rules import check_soundness, template_names
from .serialize import (diagram_from_json, diagram_to_dot, diagram_to_json,
                        matrix_from_text, matrix_to_text, vector_from_text)


# The command line's verification contract, which the acceptance tests pin;
# the library's DEFAULT_TOL (1e-10) is the stricter bound its own checks use.
CLI_TOL = 1e-9


class _Usage(Exception):
    """Bad invocation; main prints the synopsis and exits 2."""


@dataclass(frozen=True)
class Config:
    """Run settings shared by all subcommands."""

    cap: int
    tol: float
    seed: int = 0

    def __post_init__(self):
        if self.cap < 1:
            raise _Usage("cap must be at least 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise _Usage(f"tolerance must be finite and positive, got {self.tol!r}")
        if self.seed < 0:
            raise _Usage(f"seed must be non-negative, got {self.seed}")


def _setting(flag, name: str, parse, default):
    """The flag's value, else environment variable ``name``, else default."""
    if flag is not None:
        return flag
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError:
        raise _Usage(f"bad {name} value {text!r}") from None


def _config(args) -> Config:
    cap = _setting(args.cap, "ZXW_CAP", int, DEFAULT_CAP)
    tol = _setting(args.tol, "ZXW_TOL", float, CLI_TOL)
    seed = getattr(args, "seed", None)
    return Config(cap=cap, tol=tol, seed=0 if seed is None else seed)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc}") from exc


def _parse_weights(spec: str) -> list:
    out = []
    for tok in spec.split(","):
        try:
            w = complex(tok.strip())
        except ValueError as exc:
            raise _Usage(f"bad weight {tok.strip()!r}: {exc}") from exc
        if not cmath.isfinite(w):
            raise _Usage(f"bad weight {tok.strip()!r} (not finite)")
        out.append(w)
    return out


def _finite(text: str) -> float:
    """argparse type for real-valued flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check_rules(args, cfg: Config) -> int:
    if args.samples < 1:
        raise _Usage(f"--samples must be at least 1, got {args.samples}")
    names = template_names()
    if args.rule is not None:
        if args.rule not in names:
            raise _Usage(f"unknown rule {args.rule!r}; known rules: "
                         + ", ".join(names))
        names = [args.rule]
    rep = check_soundness(names, draws=args.samples, seed=cfg.seed,
                          tol=cfg.tol)
    print(f"{'rule':<20} {'samples':>7} {'exact%':>7} {'scalar%':>8} "
          f"{'max-resid':>10}  status")
    for line in rep.lines():
        print(line)
    print(f"total: {len(names)} rules, {rep.total_failures} failing draws")
    return 0 if rep.ok else 1


def _cmd_eval(args, cfg: Config) -> int:
    d = diagram_from_json(_read(args.file))
    mat = eval_diagram(d, cap=cfg.cap)
    sys.stdout.write(matrix_to_text(mat))
    return 0


def _verify(cd, target, cfg: Config) -> dict:
    """``verify_controlled`` of ``cd`` against ``target``, or a usage error
    when a residual is not finite: a finite input can still overflow in
    the contraction."""
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_controlled(cd, np.asarray(target, dtype=complex),
                                tol=cfg.tol, cap=cfg.cap)
    if not all(map(math.isfinite, (rep["err_discharge"], rep["err_idle"]))):
        raise _Usage("no finite comparison with the target: the "
                     "diagram's contraction overflows")
    return rep


# each input kind of ``zxw controlled``: its plural, the reader of one
# file, the builder of one input, the builder of a weighted sum of built
# inputs, and the sum's dense target
_INPUTS = {
    "matrix": ("matrices", matrix_from_text, controlled_matrix,
               controlled_sum_matrices,
               lambda mats, w: sum(c * m for c, m in zip(w, mats))),
    "state": ("states", vector_from_text, controlled_state_normal_form,
              controlled_sum_states, state_oracle),
}


def _cmd_controlled(args, cfg: Config) -> int:
    if bool(args.matrix) == bool(args.state):
        raise _Usage("exactly one of --matrix or --state is required")
    weights = _parse_weights(args.sum) if args.sum is not None else None
    kind = "matrix" if args.matrix else "state"
    noun, read, build, build_sum, sum_target = _INPUTS[kind]
    xs = [read(_read(f)) for f in getattr(args, kind)]
    if weights is not None and len(weights) != len(xs):
        raise _Usage(f"--sum gave {len(weights)} weights for {len(xs)} "
                     f"{noun}")
    if len(xs) == 1 and weights is None:
        cd = build(xs[0])
        target = xs[0]
    else:
        w = weights if weights is not None else [1.0] * len(xs)
        cd = build_sum([build(x) for x in xs], weights=w)
        target = sum_target(xs, w)
    # compare before printing, so a run that exits 2 leaves stdout empty
    rep = _verify(cd, target, cfg) if args.verify else None
    sys.stdout.write(diagram_to_json(cd.diagram) + "\n")
    if rep is not None:
        print(f"discharge residual {rep['err_discharge']:.3e}, "
              f"idle residual {rep['err_idle']:.3e} (tol {cfg.tol:g})",
              file=sys.stderr)
        if not rep["ok"]:
            return 1
    return 0


def _cmd_ham_build(args, cfg: Config) -> int:
    h = parse_pauli_sum(_read(args.file))
    cd, discharged = build_hamiltonian_diagram(h, cap=cfg.cap)
    # compare before printing, so a run that exits 2 leaves stdout empty
    rep = (_verify(cd, oracle_matrix(h, cap=cfg.cap), cfg) if args.verify
           else None)
    # keep stdout clean for piping when an export format was requested
    info = sys.stderr if args.export else sys.stdout
    if args.export == "json":
        sys.stdout.write(diagram_to_json(discharged) + "\n")
    elif args.export == "dot":
        sys.stdout.write(diagram_to_dot(discharged))
    print(f"terms={len(h.terms)} qubits={h.m} "
          f"nodes={len(discharged.nodes)} edges={len(discharged.edges)}",
          file=info)
    if rep is not None:
        dim = 2 ** h.m
        if rep["ok"]:
            print(f"oracle match: {dim}x{dim}, residual < {cfg.tol:g}",
                  file=info)
        else:
            print(f"oracle MISMATCH: discharge residual "
                  f"{rep['err_discharge']:.3e}, idle residual "
                  f"{rep['err_idle']:.3e} (tol {cfg.tol:g})", file=info)
            return 1
    return 0


def _axz_circuit(h, t: float, cfg: Config) -> Circuit:
    """Rotation circuit for a one-qubit sum of X, Z and identity terms."""
    if h.m != 1:
        raise _Usage("--emit-circuit supports one-qubit Hamiltonians only")
    a = b = c = 0.0
    for alpha, p in h.terms:
        if abs(alpha.imag) > 1e-12:
            raise _Usage(f"--emit-circuit needs real coefficients, got {alpha}")
        letter = p.ops[0]
        if letter == "X":
            a += alpha.real
        elif letter == "Z":
            b += alpha.real
        elif letter == "I":
            c += alpha.real
        else:
            raise _Usage("--emit-circuit supports X, Z and I terms only")
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise _Usage("cannot emit a circuit for the zero Hamiltonian")
    gates = []
    if a != 0.0 or b != 0.0:
        gates.extend(extract_axz_circuit(a, b, t).gates)
    if c != 0.0:
        # identity component is a pure phase factor exp(-i*c*t/2)
        phase = -0.5 * c * t
        if not math.isfinite(phase):
            raise _Usage(f"no finite phase: -0.5 * {c!r} * {t!r} is not "
                         "finite")
        gates.append(Gate("PHASE", (0,), phase))
    return Circuit(gates, 1)


def _oracle_diff(u: np.ndarray, h, t: float, cfg: Config) -> np.ndarray:
    """``u`` minus the dense exp(-i H t / 2); a usage error if not finite."""
    from scipy.linalg import expm as dense_expm   # keeps start-up light
    # a finite input can still overflow in the dense exponential
    with np.errstate(over="ignore", invalid="ignore"):
        diff = u - dense_expm(-0.5j * t * oracle_matrix(h, cap=cfg.cap))
    if not np.all(np.isfinite(diff)):
        raise _Usage(f"no finite comparison with the dense exponential "
                     f"at t={t!r}")
    return diff


def _oracle_error(u: np.ndarray, h, t: float, cfg: Config) -> float:
    """Operator-norm distance from ``u`` to the dense exp(-i H t / 2)."""
    return float(np.linalg.norm(_oracle_diff(u, h, t, cfg), 2))


# the approximate methods of ``zxw expm``: the count each takes (a
# truncation order or a number of steps) and its builder, of (h, count, t)
_SERIES = {"taylor": ("order", taylor_diagram),
           "trotter": ("steps", trotter_diagram)}


def _cmd_expm(args, cfg: Config) -> int:
    h = parse_pauli_sum(_read(args.file))
    t = args.t
    given = [name for name in ("order", "steps")
             if getattr(args, name) is not None]
    if args.method == "exact":
        if given:
            raise _Usage("--method exact takes neither --order nor --steps")
    else:
        count, build = _SERIES[args.method]
        if count not in given:
            raise _Usage(f"--method {args.method} requires --{count}")
        if len(given) == 2:
            raise _Usage("--order and --steps are mutually exclusive")
    # a finite input can still overflow in the contraction
    with np.errstate(over="ignore", invalid="ignore"):
        if args.method != "exact":
            u = eval_diagram(build(h, getattr(args, count), t), cap=cfg.cap)
        else:
            wrapper = commuting_exponential(h)
            u = _phase(wrapper.phase_slope, t) * eval_diagram(
                wrapper.at(t), cap=cfg.cap)
    if not np.all(np.isfinite(u)):
        raise _Usage(f"no finite exponential at t={t!r}: its evaluation "
                     "overflows")
    # compare before printing, so a run that exits 2 leaves stdout empty
    circuit = circuit_err = oracle_err = None
    if args.emit_circuit:
        circuit = _axz_circuit(h, t, cfg)
        circuit_err = _oracle_error(circuit.to_matrix(), h, t, cfg)
    if args.compare_oracle:
        oracle_err = _oracle_error(u, h, t, cfg)
    rc = 0
    if circuit is not None:
        print(circuit.to_text())
        if circuit_err > cfg.tol:
            print(f"circuit MISMATCH: operator-norm error {circuit_err:.3e} "
                  f"(tol {cfg.tol:g})", file=sys.stderr)
            rc = 1
    if oracle_err is not None:
        print(f"operator-norm error: {oracle_err:.6e}")
        # approximants report their error; only the exact method must meet tol
        if args.method == "exact" and oracle_err > cfg.tol:
            rc = 1
    if circuit is None and oracle_err is None:
        sys.stdout.write(matrix_to_text(u))
    return rc


def _cmd_export(args, cfg: Config) -> int:
    d = diagram_from_json(_read(args.file))
    if args.format == "json":
        sys.stdout.write(diagram_to_json(d) + "\n")
    else:
        sys.stdout.write(diagram_to_dot(d))
    return 0


def _cmd_extract_demo(args, cfg: Config) -> int:
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        while True:
            a, b = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
            if math.hypot(a, b) > 1e-3:
                break
        t = float(rng.uniform(0.1, 1.5))
    else:
        a, b, t = args.a, args.b, args.t
        if a == 0.0 and b == 0.0:
            raise _Usage("--a and --b cannot both be zero")
    h = parse_pauli_sum(f"{a!r} X\n{b!r} Z")
    # a finite input can still overflow on the way; the comparisons say so
    with np.errstate(over="ignore", invalid="ignore"):
        d = cayley_hamilton_diagram(h, t)
        circuit = extract_axz_circuit(a, b, t)
        err_d = float(np.abs(_oracle_diff(eval_diagram(d, cap=cfg.cap), h,
                                          t, cfg)).max())
        err_c = float(np.abs(_oracle_diff(circuit.to_matrix(), h, t,
                                          cfg)).max())
    print(f"H = {a:g} X + {b:g} Z, t = {t:g}")
    print(f"power-basis diagram: nodes={len(d.nodes)} edges={len(d.edges)}")
    print(f"diagram vs dense exponential: {err_d:.3e}")
    print("extracted circuit:")
    for line in circuit.to_text().splitlines():
        print(f"  {line}")
    print(f"circuit vs dense exponential: {err_c:.3e} (tol {cfg.tol:g})")
    return 0 if max(err_d, err_c) <= cfg.tol else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=None, metavar="N",
                        help="qubit cap (default: ZXW_CAP or 12)")
    common.add_argument("--tol", type=float, default=None, metavar="X",
                        help="tolerance (default: ZXW_TOL or 1e-9)")

    # no parser takes an abbreviation: ``--t`` would otherwise be read as
    # ``--tol`` wherever no ``--t`` is defined, and loosen a check
    parser = argparse.ArgumentParser(
        prog="zxw", allow_abbrev=False,
        description="Build, evaluate, verify and exponentiate ZXW diagrams.")

    def command(parent, name: str, func, help: str):
        """A subcommand of ``parent`` that runs ``func`` and takes the
        common flags, or, with no ``func``, a group of subcommands."""
        p = parent.add_parser(name, allow_abbrev=False, help=help,
                              parents=[common] if func else [])
        p.set_defaults(func=func, _parser=p)
        return p

    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = command(sub, "check-rules", _cmd_check_rules,
                "random soundness audit of the rewrite rules")
    p.add_argument("--rule", metavar="NAME", help="check a single rule")
    p.add_argument("--samples", type=int, default=50, metavar="N",
                   help="random draws per rule (default 50)")
    p.add_argument("--seed", type=int, default=7, metavar="S")

    p = command(sub, "eval", _cmd_eval,
                "evaluate a diagram JSON file to a dense matrix")
    p.add_argument("file")

    p = command(sub, "controlled", _cmd_controlled,
                "build a controlled diagram from matrices or state vectors")
    p.add_argument("--matrix", metavar="FILE", action="append",
                   help="matrix text file; repeat for a sum")
    p.add_argument("--state", metavar="FILE", action="append",
                   help="state-vector text file; repeat for a sum")
    p.add_argument("--sum", metavar="SPEC",
                   help="comma-separated complex weights, one per input")
    p.add_argument("--verify", action="store_true",
                   help="check the discharge and idle contracts")

    ham_sub = command(sub, "ham", None, "Hamiltonian commands").add_subparsers(
        dest="ham_command", required=True, metavar="SUBCOMMAND")
    p = command(ham_sub, "build", _cmd_ham_build,
                "encode a Pauli-sum file as a diagram")
    p.add_argument("file")
    p.add_argument("--export", choices=("dot", "json"),
                   help="write the discharged diagram to stdout")
    p.add_argument("--verify", action="store_true",
                   help="compare the diagram against the dense matrix")

    p = command(sub, "expm", _cmd_expm,
                "diagrammatic exponential of a Pauli-sum file")
    p.add_argument("file")
    p.add_argument("--method", required=True,
                   choices=("taylor", "trotter", "exact"))
    p.add_argument("--t", type=_finite, required=True, metavar="VAL")
    p.add_argument("--order", type=int, default=None, metavar="N",
                   help="truncation order (taylor)")
    p.add_argument("--steps", type=int, default=None, metavar="N",
                   help="product-formula steps (trotter)")
    p.add_argument("--emit-circuit", action="store_true",
                   help="print a rotation circuit (one-qubit X/Z sums)")
    p.add_argument("--compare-oracle", action="store_true",
                   help="print the operator-norm error against a dense "
                        "exponential")

    p = command(sub, "export", _cmd_export,
                "re-emit a diagram JSON file as json or dot")
    p.add_argument("file")
    p.add_argument("--format", required=True, choices=("json", "dot"))

    p = command(sub, "extract-demo", _cmd_extract_demo,
                "exponentiate a X + b Z diagrammatically and extract the "
                "rotation circuit")
    p.add_argument("--a", type=_finite, default=1.0, metavar="VAL")
    p.add_argument("--b", type=_finite, default=1.0, metavar="VAL")
    p.add_argument("--t", type=_finite, default=0.7, metavar="VAL")
    p.add_argument("--seed", type=int, default=None, metavar="S",
                   help="draw a, b and t at random instead")

    return parser


# a word that starts like a negative number (argparse before 3.13 reads
# one as an option unless it looks like -1 or -1.5); the valueless options
_NEGATIVE = re.compile(r"-\.?\d")
_SWITCHES = ("--help", "--verify", "--emit-circuit", "--compare-oracle")


def _joined(argv: list) -> list:
    """``argv`` with each negative number that follows a long option
    taking a value joined to it, ``--t -1e3`` as ``--t=-1e3``: no zxw
    option or operand starts like a number.  Words after ``--`` are left
    alone."""
    out: list = []
    for word in argv:
        prev = out[-1] if out else ""
        if (_NEGATIVE.match(word) and prev[:2] == "--" and "=" not in prev
                and prev not in _SWITCHES and "--" not in out):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_joined(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
        return args.func(args, cfg)
    except (_Usage, DiagramError) as exc:
        args._parser.print_usage(sys.stderr)
        print(f"zxw: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
