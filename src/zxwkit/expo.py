"""Diagrammatic time evolution exp(-i H t / 2) for Pauli-sum Hamiltonians.

Four routes, from special to general: phase gadgets multiply out a
commuting sum exactly; Trotter repetition handles non-commuting sums
approximately; a truncated power series does too; and the power-basis
expansion with Putzer coefficients is exact at small qubit counts.  Both
series are one controlled polynomial in Horner form (``_power_series``).
Every route takes t as a number and writes it into ZBox labels; a
commuting exponential keeps its gadgets' slopes, builds their chain once
and rebinds its labels exp(i * slope * t) at each t it is asked for
(``ExponentialDiagram.at``).
Dropped global phases are always recorded next to the diagram, never
silently.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .controlled import (_CONJ_FOR_LETTER, ControlledDiagram,
                         _attach_conjugation, _factor_sum_into, _fan,
                         _gate_arms)
from .evaluate import HAD_MATRIX, eval_diagram
from .graph import Builder, Diagram, DiagramError, attach_pink, rebind
from .pauli import (PauliString, PauliSum, _hamiltonian_terms,
                    controlled_pauli_string, oracle_matrix, strings_commute)


@dataclass
class ExponentialDiagram:
    """Phase gadgets on ``m`` wires plus their recorded dropped global phase.

    ``gadgets`` are (string, slope) pairs, the first acting first.
    ``at(t)`` is their chain in series with hat labels exp(i * slope * t);
    ``eval(t)`` is its matrix and ``unitary(t)`` multiplies the phase
    exp(i * phase_slope * t) back in.
    """

    m: int
    gadgets: list
    phase_slope: float

    @functools.cached_property
    def _template(self) -> tuple:
        """The gadget chain, built and validated on the first ``at``, and
        its hat boxes' ids in gadget order."""
        d = _chain(self.m, [(p, 1.0) for p, _ in self.gadgets]).build()
        return d, tuple(n.id for n in d.nodes.values() if n.tag == "hat")

    def at(self, t: float) -> Diagram:
        """The chain with its hats rebound to time t: new hat ``Node``s,
        every other one the template's (see ``graph.rebind``)."""
        template, hats = self._template
        return rebind(template, hats, [_phase(slope, t)
                                       for _, slope in self.gadgets])

    def eval(self, t: float) -> np.ndarray:
        return eval_diagram(self.at(t))

    def unitary(self, t: float) -> np.ndarray:
        return _phase(self.phase_slope, t) * self.eval(t)


def _phase(slope: float, t: float) -> complex:
    """exp(i * slope * t); a ``DiagramError`` where slope * t is not
    finite, since ``cmath.exp`` raises a bare ``ValueError`` there."""
    if not math.isfinite(slope * t):
        raise DiagramError(f"no finite phase: {slope!r} * {t!r} is not "
                           "finite")
    return cmath.exp(1j * slope * t)


def _gadget_into(b: Builder, p: PauliString, label, data) -> list:
    """Write the phase gadget of ``p`` into ``b`` on the data refs
    ``data``: copy each supported wire, collect the copies' parity, and
    hang a phase state labelled ``label`` (exp(i * theta)) off it.
    Returns the data outputs."""
    data = list(data)
    probes = []
    for q in p.support():
        ci, co = _attach_conjugation(b, _CONJ_FOR_LETTER[p.ops[q]],
                                     dagger=False)
        b.wire(data[q], ci)
        copy = b.zbox(1.0, tag="copy")
        b.wire(co, copy)
        probes.append(b.leg(copy))
        di, do = _attach_conjugation(b, _CONJ_FOR_LETTER[p.ops[q]],
                                     dagger=True)
        b.wire(b.leg(copy), di)
        data[q] = do
    pins, pouts = attach_pink(b, len(probes), 1, 0.0, tag="body")
    for probe, pin in zip(probes, pins):
        b.wire(probe, pin)
    b.wire(pouts[0], b.zbox(label, tag="hat"))
    return data


def pauli_gadget(p: PauliString, theta_coeff: float) -> ExponentialDiagram:
    """Gadget whose unitary at time t is exp(-i * theta_coeff * t / 2 * P).

    The raw eval carries an extra exp(i * theta / 2); the returned record
    holds the slope that cancels it.
    """
    if not p.support():
        raise DiagramError(
            "all-identity string is a global phase, not a gadget")
    theta_coeff = float(theta_coeff)
    return ExponentialDiagram(p.m, [(p, theta_coeff)], -theta_coeff / 2.0)


def _require_real(terms):
    coeffs = []
    for alpha, p in terms:
        if abs(alpha.imag) > 1e-12:
            raise DiagramError(f"non-real coefficient {alpha} on {p}")
        coeffs.append(alpha.real)
    return coeffs


def _chain(m: int, gadgets) -> Builder:
    """The phase gadgets of (string, label) pairs in series, the first
    acting first, each written as one region of one Builder, which is
    returned unbuilt so the caller can add to it."""
    b = Builder()
    data = [b.input() for _ in range(m)]
    for p, label in gadgets:
        data = b.region(_gadget_into, p, label, data)
    for ref in data:
        b.wire(ref, b.output())
    return b


def commuting_exponential(h: PauliSum) -> ExponentialDiagram:
    """Exact gadget product for a Hamiltonian of commuting terms.

    Identity terms only shift the recorded phase.  Terms are applied in
    list order (first term acts first); pairwise commutation makes that
    order irrelevant.
    """
    coeffs = _require_real(h.terms)
    strings = [p for _, p in h.terms]
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            if not strings_commute(strings[i], strings[j]):
                raise DiagramError(
                    f"non-commuting terms {strings[i]} and {strings[j]}")
    gadgets = [(p, alpha) for alpha, p in zip(coeffs, strings) if p.support()]
    return ExponentialDiagram(h.m, gadgets, -sum(coeffs) / 2.0)


def trotter_diagram(h: PauliSum, steps: int, t: float) -> Diagram:
    """First-order product formula: ``steps`` repetitions of the gadget
    string at angle t / steps.

    The per-gadget phases are folded in as scalar boxes, so the eval is
    the product of the term exponentials itself, no correction needed.
    """
    if steps < 1:
        raise DiagramError("steps must be >= 1")
    coeffs = _require_real(h.terms)
    tau = float(t) / steps
    step = [(p, _phase(alpha, tau))
            for alpha, (_, p) in zip(coeffs, h.terms) if p.support()]
    if not math.isfinite(0.5 * float(t) * sum(coeffs)):
        raise DiagramError(f"no finite global phase at t={t!r}")
    b = _chain(h.m, step * steps)
    # one 0-leg box for all dropped gadget phases and all identity terms
    b.zbox(cmath.exp(-0.5j * float(t) * sum(coeffs)) - 1)
    return b.build()


def _copy_of_h(b: Builder, terms, ctrl, data) -> list:
    """Write one copy of H's controlled sum, W fan first, off ``ctrl``."""
    return _factor_sum_into(b, terms, _fan(b, ctrl, len(terms), "balanced"),
                            data)


def _power_series(h: PauliSum, coeffs) -> Diagram:
    """Discharged diagram of c0 I + H (c1 I + H (c2 I + ...)): one copy
    of H per degree.  Level k's control feeds a W fan into an effect
    labelled c_k and a copy that fires copy k of H and feeds level k + 1,
    so the branch stopping at level k weighs c_k and fires copies 0..k-1.
    The deepest copy acts first on the data wires.  Each copy is H's
    controlled sum (two triangles into one box per Pauli leg), written as
    one region.
    """
    if not all(cmath.isfinite(c) for c in coeffs):
        raise DiagramError("power series coefficients are not finite")
    terms = _hamiltonian_terms(h)
    b = Builder()
    ctrl = b.input()
    data = [b.input() for _ in range(h.m)]
    h_ctrls = []
    for c in coeffs[:-1]:
        fan = b.w(tag="ctrl")
        b.wire(ctrl, (fan, 0))
        b.wire((fan, 1), b.zbox(c, tag="weight"))
        copy = b.zbox(1.0, tag="ctrl")
        b.wire((fan, 2), copy)
        h_ctrls.append(b.leg(copy))
        ctrl = b.leg(copy)
    b.wire(ctrl, b.zbox(coeffs[-1], tag="weight"))
    for c in reversed(h_ctrls):
        data = b.region(_copy_of_h, terms, c, data)
    for ref in data:
        b.wire(ref, b.output())
    return ControlledDiagram(b.build(), "matrix", h.m).discharge()


def taylor_diagram(h: PauliSum, order: int, t: float) -> Diagram:
    """Truncated power series sum_k (-i t H / 2)^k / k!, k <= ``order``,
    as an exact diagram of the polynomial (see ``_power_series``)."""
    if order < 0:
        raise DiagramError("order must be >= 0")
    coeffs = [1.0 + 0j]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * (-0.5j * t) / k)
    return _power_series(h, coeffs)


# ---------------------------------------------------------------------------
# exact form from the power-basis expansion
# ---------------------------------------------------------------------------

@dataclass
class CayleyCoeffs:
    """Power-basis coefficients c_k(t) of exp(-i H t / 2), one row per
    requested time."""

    ts: list
    table: np.ndarray    # shape (len(ts), dim)

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def reconstruct(self, H: np.ndarray, index: int = 0) -> np.ndarray:
        """Sum c_k H^k for the time sample at ``index``."""
        H = np.asarray(H, dtype=complex)
        out = np.zeros_like(H)
        power = np.eye(H.shape[0], dtype=complex)
        for c in self.table[index]:
            out += c * power
            power = power @ H
        return out


def _eigenvalue_nodes(H: np.ndarray):
    """Interpolation nodes: eigenvalues clustered by closeness.

    Normal matrices keep one node per cluster (their minimal polynomial
    has simple roots, and this is what makes H = 0 give coefficients
    (1, 0, ..., 0)); anything else keeps full multiplicities so defective
    inputs still reconstruct exactly.
    """
    lam = np.linalg.eigvals(H)
    scale = max(1.0, float(np.abs(lam).max()))
    tol = 1e-8 * scale
    clusters = []           # (representative, members)
    for v in sorted(lam, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(v - c[0]) <= tol:
                c[1].append(v)
                break
        else:
            clusters.append((v, [v]))
    # a huge H overflows here: the gap may be inf or NaN and the bound
    # inf, without a warning or an exception
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(H @ H.conj().T - H.conj().T @ H).max()
    size = max(1.0, float(np.abs(H).max()))
    try:
        bound = 1e-10 * size ** 2
    except OverflowError:   # a float's ** raises where * would give inf
        bound = math.inf
    normal = gap <= bound
    nodes, cluster_id = [], []
    for k, (rep, members) in enumerate(clusters):
        mean = sum(members) / len(members)
        count = 1 if normal else len(members)
        nodes.extend([mean] * count)
        cluster_id.extend([k] * count)
    return nodes, cluster_id


def putzer_coefficients(H: np.ndarray, t_samples) -> CayleyCoeffs:
    """Closed-form coefficients of exp(-i H t / 2) in powers of H.

    Newton interpolation of exp(-i * lambda * t / 2) on the eigenvalues,
    with confluent divided differences where eigenvalues repeat, expanded
    into the monomial basis.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DiagramError("square matrix required")
    dim = H.shape[0]
    ts = [float(t) for t in t_samples]
    nodes, cid = _eigenvalue_nodes(H)
    r = len(nodes)
    table = np.zeros((len(ts), dim), dtype=complex)
    for row, t in enumerate(ts):
        s = -0.5j * t

        def fderiv(lam, k):
            # k-th derivative of exp(s * lam), divided by k!; cmath.exp
            # raises a bare ValueError where s * lam is not finite
            z = s * lam
            if not cmath.isfinite(z):
                raise DiagramError(f"no finite phase: {s!r} * {complex(lam)!r}"
                                   " is not finite")
            return s ** k * cmath.exp(z) / math.factorial(k)

        dd = [[0j] * r for _ in range(r)]
        for i in range(r):
            dd[i][0] = fderiv(nodes[i], 0)
        for j in range(1, r):
            for i in range(r - j):
                if cid[i + j] == cid[i]:
                    dd[i][j] = fderiv(nodes[i], j)
                else:
                    dd[i][j] = (dd[i + 1][j - 1] - dd[i][j - 1]) \
                        / (nodes[i + j] - nodes[i])
        coeffs = np.zeros(dim, dtype=complex)
        basis = np.zeros(dim, dtype=complex)
        basis[0] = 1.0
        for j in range(r):
            coeffs += dd[0][j] * basis
            if j < r - 1:
                nxt = np.zeros(dim, dtype=complex)
                nxt[1:] = basis[:-1]
                basis = nxt - nodes[j] * basis
        table[row] = coeffs
    return CayleyCoeffs(ts, table)


def cayley_hamilton_diagram(h: PauliSum, t: float) -> Diagram:
    """Exact exponential as a polynomial of degree 2^m - 1 in H.

    The diagram holds 2^m - 1 copies of H (``_power_series``), so it is
    kept to four qubits: 15 copies, whose contraction reaches rank-19
    intermediates on a five-term sum.  The eigenvalue solve behind the
    coefficients is cheap at that size.
    """
    if h.m > 4:
        raise DiagramError("power-basis form is limited to 4 qubits")
    H = oracle_matrix(h)
    coeffs = putzer_coefficients(H, [t]).table[0]
    return _power_series(h, list(coeffs))


# ---------------------------------------------------------------------------
# derivative check
# ---------------------------------------------------------------------------

@dataclass
class DerivativeVerdict:
    ok: bool
    residuals: dict        # step size -> operator-norm residual
    slope: float           # log-log order estimate, None if below noise
    derivative: np.ndarray


def derivative_at_zero(d, h_ref: np.ndarray, steps=(1e-3, 5e-4),
                       tol: float = 1e-6) -> DerivativeVerdict:
    """Check d/dt of the diagram at t = 0 against -i/2 times ``h_ref``.

    Accepts a bare Diagram, which holds no time and so is constant in t,
    or anything with a ``unitary`` method; the recorded global phase is
    factored in by using the latter.  Central
    differences at the two step sizes give residuals that should shrink
    quadratically; the Richardson combination must hit the target.
    """
    if hasattr(d, "unitary"):
        unit = d.unitary
    else:
        def unit(t):
            return eval_diagram(d)
    target = -0.5j * np.asarray(h_ref, dtype=complex)
    fds = {}
    residuals = {}
    for hstep in steps:
        fd = (unit(hstep) - unit(-hstep)) / (2.0 * hstep)
        fds[hstep] = fd
        residuals[hstep] = float(np.linalg.norm(fd - target, 2))
    h1, h2 = sorted(steps, reverse=True)
    ratio = (h1 / h2) ** 2
    rich = (ratio * fds[h2] - fds[h1]) / (ratio - 1.0)
    err = float(np.linalg.norm(rich - target, 2))
    scale = max(1.0, float(np.linalg.norm(target, 2)))
    noise = 1e-12 * scale
    if residuals[h1] > noise and residuals[h2] > noise:
        slope = math.log(residuals[h1] / residuals[h2]) / math.log(h1 / h2)
    else:
        slope = None
    return DerivativeVerdict(err <= tol * scale, residuals, slope, rich)


# ---------------------------------------------------------------------------
# circuit extraction for a X + b Z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    name: str          # H | RZ | RX | CNOT | CZ | PHASE
    qubits: tuple = ()
    angle: float = None

    def __str__(self) -> str:
        parts = [self.name]
        if self.qubits:
            parts.append(",".join(str(q) for q in self.qubits))
        if self.angle is not None:
            parts.append(f"{self.angle:.12g}")
        return " ".join(parts)


def _single_qubit(name: str, angle: float) -> np.ndarray:
    if name == "H":
        return HAD_MATRIX
    if name == "RZ":
        return np.diag([cmath.exp(-0.5j * angle), cmath.exp(0.5j * angle)])
    if name == "RX":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    raise DiagramError(f"unknown gate {name!r}")


@dataclass
class Circuit:
    """Gate list applied first-to-last; wire 0 is the most significant."""

    gates: list
    n_qubits: int = 1

    def to_text(self) -> str:
        return "\n".join(str(g) for g in self.gates)

    def to_matrix(self) -> np.ndarray:
        n = self.n_qubits
        dim = 2 ** n
        u = np.eye(dim, dtype=complex)
        for g in self.gates:
            u = self._gate_matrix(g, n, dim) @ u
        return u

    def _gate_matrix(self, g: Gate, n: int, dim: int) -> np.ndarray:
        if g.name == "PHASE":
            return cmath.exp(1j * g.angle) * np.eye(dim, dtype=complex)
        if g.name in ("H", "RZ", "RX"):
            (q,) = g.qubits
            out = np.ones((1, 1), dtype=complex)
            for w in range(n):
                out = np.kron(out, _single_qubit(g.name, g.angle)
                              if w == q else np.eye(2, dtype=complex))
            return out
        if g.name in ("CNOT", "CZ"):
            ctrl, tgt = g.qubits
            out = np.zeros((dim, dim), dtype=complex)
            for x in range(dim):
                cbit = (x >> (n - 1 - ctrl)) & 1
                tbit = (x >> (n - 1 - tgt)) & 1
                if g.name == "CNOT":
                    y = x ^ (cbit << (n - 1 - tgt))
                    out[y, x] = 1.0
                else:
                    out[x, x] = -1.0 if cbit and tbit else 1.0
            return out
        raise DiagramError(f"unknown gate {g.name!r}")


def extract_axz_circuit(a: float, b: float, t: float) -> Circuit:
    """Single-qubit rotations realizing exp(-i (a X + b Z) t / 2).

    Pure-X and pure-Z inputs come out as one rotation; the mixed case is
    a Z-X-Z Euler split with the leftover phase emitted explicitly.  An
    angle that is not finite raises ``DiagramError``.
    """
    a, b, t = float(a), float(b), float(t)
    if a == 0.0 and b == 0.0:
        raise DiagramError("a and b cannot both be zero")
    if a == 0.0 or b == 0.0:
        name, angle = ("RZ", b * t) if a == 0.0 else ("RX", a * t)
        if not math.isfinite(angle):
            raise DiagramError(f"no finite rotation angle: {name} angle "
                               f"overflows at a={a!r}, b={b!r}, t={t!r}")
        return Circuit([Gate(name, (0,), angle)], 1)
    lam = math.hypot(a, b)
    half = lam * t / 2.0
    if not math.isfinite(half):
        raise DiagramError(f"no finite rotation angle: lambda*t/2 overflows "
                           f"at a={a!r}, b={b!r}, t={t!r}")
    c, s = math.cos(half), math.sin(half)
    target = c * np.eye(2) - 1j * (s / lam) * np.array([[b, a], [a, -b]])
    gamma = 2.0 * math.atan2(abs(target[0, 1]), abs(target[0, 0]))
    half_sum = -cmath.phase(target[0, 0]) if abs(target[0, 0]) > 1e-14 else 0.0
    half_diff = -(cmath.phase(target[0, 1]) + math.pi / 2.0) \
        if abs(target[0, 1]) > 1e-14 else 0.0
    beta, delta = half_sum + half_diff, half_sum - half_diff
    gates = [Gate("RZ", (0,), delta), Gate("RX", (0,), gamma),
             Gate("RZ", (0,), beta)]
    built = Circuit(list(gates), 1).to_matrix()
    phi = cmath.phase(np.trace(built.conj().T @ target))
    if abs(phi) > 1e-12:
        gates.append(Gate("PHASE", (0,), phi))
    circuit = Circuit(gates, 1)
    if float(np.abs(circuit.to_matrix() - target).max()) > 1e-9:
        raise DiagramError("extraction failed to reproduce the target")
    return circuit


# ---------------------------------------------------------------------------
# gadget exchange for anticommuting strings
# ---------------------------------------------------------------------------

@dataclass
class ExchangeVerdict:
    ok: bool
    max_diff: float


def _controls_product(ordered, m: int, link_controls: bool) -> Diagram:
    """Controlled factors on separate control wires, applied in order.

    ``ordered`` pairs each factor with its control wire index (0 or 1);
    when linked, the controls pass through a scaled H-edge pair (a
    controlled-Z) before firing.
    """
    b = Builder()
    ctrls = [b.input(), b.input()]
    data = [b.input() for _ in range(m)]
    if link_controls:
        cx = b.zbox(1.0, tag="cz")
        cy = b.zbox(1.0, tag="cz")
        hh = b.had(tag="cz")
        b.wire(ctrls[0], cx)
        b.wire(ctrls[1], cy)
        b.wire(b.leg(cx), (hh, 0))
        b.wire((hh, 1), b.leg(cy))
        b.zbox(math.sqrt(2.0) - 1.0, tag="cz-scalar")    # 0-leg: scalar sqrt(2)
        ctrls = [b.leg(cx), b.leg(cy)]
    arm_ctrls = [ctrls[which] for _, which in ordered]
    data = _gate_arms(b, arm_ctrls, [cd for cd, _ in ordered], data)[-1]
    for q in range(m):
        b.wire(data[q], b.output())
    return b.build()


def check_anticommuting_gadgets(p: PauliString,
                                q: PauliString) -> ExchangeVerdict:
    """Swapping two controlled-Pauli factors with anticommuting strings
    equals linking their controls; verified by evaluation."""
    if strings_commute(p, q):
        raise DiagramError("inputs commute")
    cp = controlled_pauli_string(p)
    cq = controlled_pauli_string(q)
    lhs = _controls_product([(cp, 0), (cq, 1)], p.m, link_controls=False)
    rhs = _controls_product([(cq, 1), (cp, 0)], p.m, link_controls=True)
    diff = float(np.abs(eval_diagram(lhs) - eval_diagram(rhs)).max())
    return ExchangeVerdict(diff <= 1e-9, diff)
