"""Qubit Hamiltonians given as weighted sums of Pauli strings.

A Hamiltonian sum is one controlled diagram in one Builder: a W-fan branch
per term, a weight box carrying its coefficient, and on every qubit it acts
on two triangles into a box labelled a - 1, giving diag(1, a) in a
conjugated basis.  Pauli letters are the case a = -1 with the basis change
picked per letter (none for Z, Hadamard for X, the V pair for Y).
Discharging the control gives the dense sum; idling gives the identity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .controlled import (ControlledDiagram, _factor_sum, _letters, _plugs,
                         sum_normal_forms)
from .evaluate import (DEFAULT_CAP, HAD_MATRIX, V_MATRIX, CapExceeded,
                       eval_diagram)
from .graph import DiagramError

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# read-only: every oracle reads them, and a one-letter string's matrix is
# the array itself
for _m in PAULI_MATRICES.values():
    _m.setflags(write=False)

_LETTERS = "IXYZ"


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Pauli letters, leftmost on qubit 0."""

    ops: tuple

    def __post_init__(self):
        if len(self.ops) < 1:
            raise DiagramError("a Pauli string needs at least one letter")
        for c in self.ops:
            if c not in _LETTERS:
                raise DiagramError(f"bad Pauli letter {c!r}")

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        return cls(tuple(text))

    @property
    def m(self) -> int:
        return len(self.ops)

    def support(self) -> tuple:
        """Qubits the string acts on (letter not I)."""
        return tuple(q for q, c in enumerate(self.ops) if c != "I")

    def matrix(self) -> np.ndarray:
        """The Kronecker product of the letters' matrices, bit for bit
        ``np.kron``'s: one broadcast product per letter,
        out[i, k, j, l] = prev[i, j] * letter[k, l]."""
        out = PAULI_MATRICES[self.ops[0]]
        for c in self.ops[1:]:
            n = 2 * len(out)
            out = (out[:, None, :, None] * PAULI_MATRICES[c][:, None]
                   ).reshape(n, n)
        return out

    def __str__(self) -> str:
        return "".join(self.ops)


def strings_commute(p: PauliString, q: PauliString) -> bool:
    """Pauli strings commute iff they differ on an even number of
    mutually non-identity positions."""
    if p.m != q.m:
        raise DiagramError("length mismatch")
    clashes = sum(1 for a, b in zip(p.ops, q.ops)
                  if a != "I" and b != "I" and a != b)
    return clashes % 2 == 0


@dataclass
class PauliSum:
    """Weighted sum of equal-length Pauli strings."""

    terms: list          # (coefficient, PauliString) pairs
    m: int = None

    def __post_init__(self):
        if not self.terms:
            raise DiagramError("a Pauli sum needs at least one term")
        self.terms = [(complex(a), p) for a, p in self.terms]
        if self.m is None:
            self.m = self.terms[0][1].m
        for _, p in self.terms:
            if p.m != self.m:
                raise DiagramError(
                    f"term {p} has length {p.m}, expected {self.m}")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def permuted(self, perm) -> "PauliSum":
        perm = list(perm)
        if sorted(perm) != list(range(self.n_terms)):
            raise DiagramError("not a permutation of the term indices")
        return PauliSum([self.terms[i] for i in perm], self.m)

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum([(factor * a, p) for a, p in self.terms], self.m)

    def __str__(self) -> str:
        return " + ".join(f"({a.real:g}{a.imag:+g}j) {p}"
                          for a, p in self.terms)


def _parse_coefficient(token: str) -> complex:
    if token.startswith("("):
        if not token.endswith(")"):
            raise ValueError("unclosed parenthesis")
        re_s, _, im_s = token[1:-1].partition(",")
        if not _:
            raise ValueError("pair form needs a comma")
        value = complex(float(re_s), float(im_s))
    elif "j" in token or "J" in token:
        value = complex(token)
    else:
        value = complex(float(token))
    if not cmath.isfinite(value):
        raise ValueError("not finite")
    return value


def parse_pauli_sum(text: str) -> PauliSum:
    """Read a Pauli sum from text, one term per line.

    A term line is a coefficient, whitespace, then a string over IXYZ.
    Coefficients may be real (1.5), complex (1.5-2j) or a pair ((1.5,-2)).
    Lines starting with # and blank lines are skipped.  All strings must
    share one length; errors carry the 1-based line number.
    """
    terms = []
    m = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise DiagramError(
                f"line {lineno}: expected coefficient and Pauli string")
        coeff_s, string_s = parts[0], parts[1].strip()
        try:
            coeff = _parse_coefficient(coeff_s)
        except ValueError as exc:
            raise DiagramError(
                f"line {lineno}: bad coefficient {coeff_s!r} ({exc})") from None
        for c in string_s:
            if c not in _LETTERS:
                raise DiagramError(f"line {lineno}: bad Pauli letter {c!r}")
        if m is None:
            m = len(string_s)
        elif len(string_s) != m:
            raise DiagramError(
                f"line {lineno}: term has length {len(string_s)}, expected {m}")
        terms.append((coeff, PauliString.from_text(string_s)))
    if not terms:
        raise DiagramError("no terms found")
    return PauliSum(terms, m)


def oracle_matrix(h: PauliSum, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Dense matrix of the sum via Kronecker products."""
    if h.m > cap:
        raise CapExceeded(f"{h.m} qubits exceed cap {cap}")
    dim = 2 ** h.m
    out = np.zeros((dim, dim), dtype=complex)
    for alpha, p in h.terms:
        out += alpha * p.matrix()
    return out


# ---------------------------------------------------------------------------
# controlled factors
# ---------------------------------------------------------------------------

_CONJ_NAMES = ("I", "H", "V")


def controlled_diagonal_factor(labels, conj=None) -> ControlledDiagram:
    """One controlled factor prod_j c_j^dag diag(1, a_j) c_j.

    A qubit gets a gadget leg only when its label a is not 1: the wire is
    copied, and the copy and a control leg each feed a triangle
    T = [[1, 1], [0, 1]] into one 2-leg box labelled a - 1.  That gives
    1 + c x (a - 1), so the amplitude is a exactly when both fire.
    """
    labels = list(labels)
    conj = ["I"] * len(labels) if conj is None else conj
    d = DiagonalFactorSum([(1, labels, conj)])
    return _factor_sum(d.terms, d.m)


def controlled_pauli_string(p: PauliString) -> ControlledDiagram:
    """Controlled diagram of one Pauli string: discharge applies it,
    idle is the identity."""
    return controlled_diagonal_factor(*_letters(p.ops))


@dataclass
class DiagonalFactorSum:
    """Sum of conjugated diagonal factors: terms of (alpha, labels, conj).

    Each term carries m complex labels (the diagonal entries diag(1, a))
    and m conjugation names from I / H / V.
    """

    terms: list
    m: int = field(init=False)

    def __post_init__(self):
        if not self.terms:
            raise DiagramError("a factor sum needs at least one term")
        norm = []
        m = None
        for alpha, labels, conj in self.terms:
            labels = [complex(a) for a in labels]
            conj = list(conj)
            if m is None:
                m = len(labels)
            if len(labels) != m or len(conj) != m:
                raise DiagramError("all terms must share one qubit count")
            for name in conj:
                if name not in _CONJ_NAMES:
                    raise DiagramError(f"unknown conjugation {name!r}")
            norm.append((complex(alpha), labels, conj))
        self.terms = norm
        self.m = m

    def oracle(self) -> np.ndarray:
        """Dense matrix of the sum."""
        conj_mat = {"I": np.eye(2, dtype=complex), "H": HAD_MATRIX,
                    "V": V_MATRIX}
        dim = 2 ** self.m
        out = np.zeros((dim, dim), dtype=complex)
        for alpha, labels, conj in self.terms:
            fac = np.ones((1, 1), dtype=complex)
            for a, name in zip(labels, conj):
                c = conj_mat[name]
                fac = np.kron(fac, c.conj().T @ np.diag([1.0, a]) @ c)
            out += alpha * fac
        return out


def _hamiltonian_terms(h: PauliSum) -> list:
    """``h``'s terms as ``_factor_sum`` terms."""
    return [(a, *_letters(p.ops)) for a, p in h.terms]


def build_diagonal_sum_diagram(d: DiagonalFactorSum,
                               cap: int = DEFAULT_CAP) -> ControlledDiagram:
    """Unfused controlled diagram of a sum of conjugated diagonal factors."""
    if d.m > cap:
        raise CapExceeded(f"{d.m} qubits exceed cap {cap}")
    return _factor_sum(d.terms, d.m)


def build_hamiltonian_diagram(h: PauliSum, cap: int = DEFAULT_CAP):
    """Controlled diagram of a Pauli sum, with its discharged form.

    Returns (controlled, discharged): discharging the control gives the
    Hamiltonian matrix, idling gives the identity.  Duplicate strings stay
    separate branches, and the diagram is left unfused.  More than ``cap``
    qubits raise ``CapExceeded``.
    """
    if h.m > cap:
        raise CapExceeded(f"{h.m} qubits exceed cap {cap}")
    cd = _factor_sum(_hamiltonian_terms(h), h.m)
    return cd, cd.discharge()


# ---------------------------------------------------------------------------
# semantic checks
# ---------------------------------------------------------------------------

@dataclass
class CommutativityVerdict:
    ok: bool
    err_discharge: float
    err_idle: float


def check_sum_commutativity(h: PauliSum, perm,
                            tol: float = 1e-12) -> CommutativityVerdict:
    """Reordering the terms must not change either plug of the diagram;
    both plugs of each diagram are read off one contraction of it."""
    idle_a, dis_a = _plugs(build_hamiltonian_diagram(h)[0])
    idle_b, dis_b = _plugs(build_hamiltonian_diagram(h.permuted(perm))[0])
    err_d = float(np.max(np.abs(dis_a - dis_b)))
    err_i = float(np.max(np.abs(idle_a - idle_b)))
    return CommutativityVerdict(err_d <= tol and err_i <= tol, err_d, err_i)


@dataclass
class LinearityReport:
    ok: bool
    worst_ratio: float
    residuals: list
    dt: float
    tol: float


def verify_schrodinger_linearity(h: PauliSum, psi0, phi0, a, b, t_grid,
                                 dt: float = 1e-3,
                                 tol: float = 1e-5) -> LinearityReport:
    """Check that a*psi(t) + b*phi(t) still solves i d/dt chi = H chi.

    psi and phi evolve exactly (dense matrix exponential); the combination
    is formed as a diagram through sum_normal_forms and evaluated, and the
    time derivative is a central difference with step dt.  The residual is
    compared against tol * ||H|| * ||chi||.
    """
    H = oracle_matrix(h)
    dim = 2 ** h.m
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    phi0 = np.asarray(phi0, dtype=complex).reshape(-1)
    if psi0.shape[0] != dim or phi0.shape[0] != dim:
        raise DiagramError(f"state length must be {dim}")
    norm_h = float(np.linalg.norm(H, 2))
    # the evolution preserves norms, so chi can only be tiny when the
    # combined input vanishes; floor the scale to keep that case sane
    floor = 1e-9 * (float(np.linalg.norm(psi0)) + float(np.linalg.norm(phi0))
                    + 1.0)
    tiny = np.finfo(float).tiny
    import scipy.linalg    # loaded here so that `import zxwkit` stays light

    def chi(tau: float) -> np.ndarray:
        u = scipy.linalg.expm(-1j * H * tau)
        cd = sum_normal_forms([u @ psi0, u @ phi0], [a, b])
        return eval_diagram(cd.discharge()).reshape(-1)

    residuals = []
    worst = 0.0
    for tau in t_grid:
        mid = chi(tau)
        deriv = (chi(tau + dt) - chi(tau - dt)) / (2 * dt)
        resid = float(np.linalg.norm(1j * deriv - H @ mid))
        scale = max(norm_h * max(float(np.linalg.norm(mid)), floor), tiny)
        ratio = resid / scale
        residuals.append(resid)
        worst = max(worst, float(ratio))
    return LinearityReport(worst <= tol, worst, residuals, dt, tol)
