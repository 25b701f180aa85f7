"""The benchmark's two workloads: request generators, the timed library
calls, and the dense oracles that judge every output.

A workload draws one fixed set of requests per run, which the benchmark
runs in passes.  The set holds a fixed mix of request classes (matrix
dimension, Trotter steps, series order, Pauli sum size) in an order shuffled
by the seed, so every run measures the same mix whatever its seed.

The structure of each request, which sets its cost, comes from ``_wiring()``
and not from the seed: the Pauli strings and letters, and the pivot order of
each matrix.  The seed draws the values: coefficients, times and matrix
entries.  Drawn from the seed, the structure moved a run's figures by up to
15% by itself.  Every request is small enough that a pass takes a few
seconds, so a run holds several passes of each request.

Every request carries a ``target``: the dense reference the output must
match to within ``TOL``.  The benchmark computes it with numpy/scipy when it
draws the request, outside the timed region.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.linalg

import zxwkit as zx

TOL = 1e-9   # the tolerance tests/test_acceptance.py pins for these contracts

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def _dense_string(s: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for letter in s:
        out = np.kron(out, _PAULI[letter])
    return out


def _dense_sum(terms) -> np.ndarray:
    return sum(c * _dense_string(s) for c, s in terms)


def _pauli_text(terms) -> str:
    return "\n".join(f"{c!r} {s}" for c, s in terms)


def _wiring():
    """Generator of request structure, the same in every run."""
    return np.random.default_rng(221204462)


def _random_terms(rng, wiring, supports, letters: str, m: int) -> list:
    """One Pauli term per support, each supported qubit given a letter
    drawn by ``wiring`` from ``letters``, with a weight drawn by ``rng``
    uniform in [-1, 1]."""
    terms = []
    for support in supports:
        s = ["I"] * m
        for q in support:
            s[q] = str(wiring.choice(list(letters)))
        terms.append((float(rng.uniform(-1.0, 1.0)), "".join(s)))
    return terms


def _max_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


def _matrix_digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _diagram_digest(d) -> str:
    text = repr((sorted(d.nodes.items()), d.edges, d.inputs, d.outputs))
    return hashlib.sha256(text.encode()).hexdigest()


class ControlledDense:
    """controlled_matrix(M), then verify_controlled against M."""

    name = "controlled_dense"

    def requests(self, rng) -> list:
        # An 8x8 request takes about 5 s, too long to run several times in
        # a run; the 4x4 ones (300-360 nodes) carry the eval and fusion
        # work instead.  A pass takes 2-4 s.  With an odd number of
        # requests, the median and the p90 fall inside one request's
        # samples rather than between two requests.
        wiring = _wiring()
        reqs = [self._request(rng, wiring.permutation(d))
                for d in [2] * 5 + [4] * 8]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def warmup(self, rng) -> dict:
        return self._request(rng, np.arange(2))

    def _request(self, rng, rows) -> dict:
        """The rows ``rows`` of a matrix with a dominant diagonal.

        Entries lie in the unit disc and the diagonal adds 2*dim, so
        partial pivoting picks the rows in the order ``rows`` puts them:
        the row switches, and with them the diagram's wiring, depend on
        ``rows`` alone.
        """
        dim = len(rows)
        d = (rng.uniform(-1, 1, (dim, dim))
             + 1j * rng.uniform(-1, 1, (dim, dim))) / math.sqrt(2.0)
        m = (d + 2 * dim * np.eye(dim))[rows]
        return {"matrix": m, "target": m}

    def run(self, req):
        cd = zx.controlled_matrix(req["matrix"])
        return cd.diagram, zx.verify_controlled(cd, req["target"], tol=TOL)

    def error(self, req, out) -> float:
        rep = out[1]
        return max(rep["err_discharge"], rep["err_idle"])

    def digest(self, req, out) -> str:
        rep = out[1]
        return _diagram_digest(out[0]) + repr((rep["err_discharge"],
                                               rep["err_idle"]))


class TrotterChain:
    """parse_pauli_sum, trotter_diagram, eval_diagram on 3-qubit sums."""

    t = 0.5

    def _request(self, rng, wiring, steps: int) -> dict:
        # the supports of the five-term sum in tests/test_acceptance.py
        supports = ((0, 1), (1, 2), (0,), (1,), (2,))
        terms = _random_terms(rng, wiring, supports, "XZ", 3)
        tau = self.t / steps
        step = np.eye(8, dtype=complex)
        for c, s in terms:
            step = scipy.linalg.expm(-0.5j * tau * c * _dense_string(s)) @ step
        return {"text": _pauli_text(terms), "steps": steps,
                "target": np.linalg.matrix_power(step, steps)}

    def run(self, req):
        h = zx.parse_pauli_sum(req["text"])
        return zx.eval_diagram(zx.trotter_diagram(h, req["steps"], self.t))

    def error(self, req, out) -> float:
        return _max_err(out, req["target"])

    def digest(self, out) -> str:
        return _matrix_digest(out)


class PowerSeries:
    """taylor_diagram (``order`` given) or cayley_hamilton_diagram (order
    None) on 2-qubit sums, then eval_diagram."""

    def _request(self, rng, wiring, order) -> dict:
        terms = _random_terms(rng, wiring, ((0, 1), (0,), (1,)), "XYZ", 2)
        t = float(rng.uniform(0.1, 1.0))
        a = -0.5j * t * _dense_sum(terms)
        if order is None:
            target = scipy.linalg.expm(a)
        else:
            target = sum(np.linalg.matrix_power(a, k) / math.factorial(k)
                         for k in range(order + 1))
        return {"text": _pauli_text(terms), "order": order, "t": t,
                "target": target}

    def run(self, req):
        h = zx.parse_pauli_sum(req["text"])
        if req["order"] is None:
            d = zx.cayley_hamilton_diagram(h, req["t"])
        else:
            d = zx.taylor_diagram(h, req["order"], req["t"])
        return zx.eval_diagram(d)

    def error(self, req, out) -> float:
        return _max_err(out, req["target"])

    def digest(self, out) -> str:
        return _matrix_digest(out)


class SmallRequests:
    """Build, simplify, JSON round trip and eval of small Pauli sums, checked
    against oracle_matrix inside the request."""

    def warmup(self, rng) -> dict:
        return self._request(rng, rng, 2, 3)

    def _request(self, rng, wiring, m: int, n_terms: int) -> dict:
        terms = [(float(rng.normal()),
                  "".join(wiring.choice(list("IXYZ"), m)))
                 for _ in range(n_terms)]
        return {"text": _pauli_text(terms), "target": _dense_sum(terms)}

    def run(self, req):
        h = zx.parse_pauli_sum(req["text"])
        _, discharged = zx.build_hamiltonian_diagram(h)
        res = zx.simplify_basic(discharged)
        d = zx.diagram_from_json(zx.diagram_to_json(res.diagram))
        return res.scalar * zx.eval_diagram(d), zx.oracle_matrix(h)

    def error(self, req, out) -> float:
        got, oracle = out
        return max(_max_err(got, oracle), _max_err(oracle, req["target"]))

    def digest(self, out) -> str:
        return _matrix_digest(out[0]) + _matrix_digest(out[1])


class HamiltonianMix:
    """The Pauli-sum pipelines in one request set: Trotter chains, power
    series and small build-simplify-serialize-eval requests.

    Each request carries the part that runs and checks it.  The small
    requests are most of the set, so the median request is a small one;
    the Trotter and series requests are most of the time.
    """

    name = "hamiltonian_mix"
    trotter, series, small = TrotterChain(), PowerSeries(), SmallRequests()

    def requests(self, rng) -> list:
        # A 64-step Trotter request takes 7-11 s, too long to run several
        # times in a run; 32 steps still shows compose_seq's quadratic
        # cost.  Every small-request size (qubits, terms) appears three
        # times.  A pass takes 5-8 s.  With 65 requests the median falls inside
        # one small request's samples, and the p90 inside the block of four
        # Cayley-Hamilton requests, 1.5 requests from its upper edge.
        wiring = _wiring()
        reqs = [self._tag(self.trotter,
                          self.trotter._request(rng, wiring, steps))
                for steps in (16, 32)]
        reqs += [self._tag(self.series,
                           self.series._request(rng, wiring, order))
                 for order in (2, 3, 4, 5, 6, None, None, None, None)]
        reqs += [self._tag(self.small,
                           self.small._request(rng, wiring, m, n))
                 for m in (1, 2, 3) for n in range(1, 7) for _ in range(3)]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def warmup(self, rng) -> dict:
        return self._tag(self.small, self.small.warmup(rng))

    @staticmethod
    def _tag(part, req) -> dict:
        return dict(req, part=part)

    def run(self, req):
        return req["part"].run(req)

    def error(self, req, out) -> float:
        return req["part"].error(req, out)

    def digest(self, req, out) -> str:
        return req["part"].digest(out)


WORKLOADS = {w.name: w for w in (ControlledDense(), HamiltonianMix())}
