"""Seeded op generators for the four benchmark workloads.

Op ``j`` of a workload is a pure function of ``(seed, workload, j)``, so
the same seed gives the same inputs whatever the run length.  Op kinds
follow a fixed rotation per workload, which keeps every run's mix exact;
only the numbers inside each config come from the random stream.  Inputs
are drawn from continuous distributions (Dirichlet, Wishart, Haar), so no
generated pair sits within solver tolerance of a decision boundary.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable

import numpy as np

WORKLOAD_IDS = {"sweep_quantum": 1, "sweep_lp": 2, "cli_mix": 3, "verify_props": 4}


@dataclass(frozen=True)
class Op:
    """One CLI command: its config text plus what the generator knows of it.

    ``pairs`` counts the reachability questions the command resolves, and
    ``unequal`` how many of them compare objects of unequal length or
    dimension.  ``data`` holds the numbers the reference check needs.
    """

    kind: str
    text: str
    pairs: int
    unequal: int = 0
    candidates: int | None = None
    malformed: bool = False
    data: dict = field(default_factory=dict)

    @property
    def config(self) -> dict:
        return json.loads(self.text)


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def grid_size(length: int, step: float) -> int:
    """Number of length-n distributions on a step grid, C(1/s + n - 1, n - 1)."""
    units = round(1.0 / step)
    return comb(units + length - 1, length - 1)


def _dist(rng, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def _wishart_density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = g @ g.conj().T
    return w / w.trace().real


def _haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def _stochastic(rng, n: int, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k), size=n)


def _uniform_matrix(rng, n: int, k: int) -> np.ndarray:
    """Random strictly positive n x k matrix with rows summing to 1 and
    columns to n/k (Sinkhorn scaling)."""
    m = rng.random((n, k)) + 0.05
    for _ in range(500):
        m /= m.sum(axis=1, keepdims=True)
        cols = m.sum(axis=0)
        if np.max(np.abs(cols - n / k)) < 1e-13:
            break
        m *= (n / k) / cols
    return m


def matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _pure_json(vec: np.ndarray, dims: tuple[int, int]) -> dict:
    return {"state": [[float(z.real), float(z.imag)] for z in vec], "dims": list(dims)}


def _floats(a) -> list[float]:
    return [float(x) for x in a]


def _text(cfg: dict) -> str:
    return json.dumps(cfg)


# ---------------------------------------------------------------- sweeps

# Candidate counts climb geometric ladders, so that op latencies form a
# continuum: with a single size, drifts in CPU speed (about +-25%
# on a shared 2-vCPU host) split the latencies into two clusters and
# the median jumps between them from run to run.
QUANTUM_DIM = 4
QUANTUM_GRID_STEP = 0.1  # candidates are drawn from this grid's 286 points
QUANTUM_COUNTS = tuple(int(round(x)) for x in np.geomspace(24, 160, 16))
LP_GRID_STEPS = (1 / 4, 1 / 5, 1 / 6)  # 35, 56 and 84 length-4 candidates
LP_PAIR_COUNTS = tuple(int(round(x)) for x in np.geomspace(12, 40, 8))


@lru_cache(maxsize=None)
def grid_points(length: int, step: float) -> np.ndarray:
    """All length-n distributions with weights on a step grid, one per row."""
    units = round(1.0 / step)
    rows = [c for c in itertools.product(range(units + 1), repeat=length)
            if sum(c) == units]
    return np.array(rows, dtype=float) * step


def sweep_quantum(seed: int, index: int, out: str) -> Op:
    rng = op_rng(seed, "sweep_quantum", index)
    target = _wishart_density(rng, QUANTUM_DIM)
    variance = "covariant" if index % 2 == 0 else "contravariant"
    grid = grid_points(QUANTUM_DIM, QUANTUM_GRID_STEP)
    n = QUANTUM_COUNTS[(index // 2) % len(QUANTUM_COUNTS)]
    cands = grid[rng.choice(len(grid), size=n, replace=False)]
    cfg = {
        "command": "extend",
        "theory": "qrand_quniform",
        "functor": "classical_to_quantum",
        "monotone": "shannon",
        "variance": variance,
        "target": matrix_json(target),
        "candidates": {"kind": "explicit", "objects": [_floats(c) for c in cands]},
    }
    return Op("extend_qrand", _text(cfg), pairs=2 * n, candidates=n,
              data={"target": target, "objects": cands})


def _pair_family(rng, count: int, n: int = 4, k: int = 3):
    """A target pair y = x0 M0 plus candidates that reach it, are reached
    from it, or neither, so both extensions range over real decisions."""
    x0 = (_dist(rng, n), _dist(rng, n))
    m0 = _stochastic(rng, n, k)
    y = (x0[0] @ m0, x0[1] @ m0)
    cands = [x0]
    while len(cands) < count:
        if len(cands) % 2:
            m = _stochastic(rng, k, n)
            cands.append((y[0] @ m, y[1] @ m))
        else:
            cands.append((_dist(rng, n), _dist(rng, n)))
    order = rng.permutation(len(cands))
    return y, [cands[i] for i in order]


def sweep_lp(seed: int, index: int, out: str) -> Op:
    rng = op_rng(seed, "sweep_lp", index)
    variance = "covariant" if index % 2 == 0 else "contravariant"
    kind, slot = index % 3, index // 3
    if kind == 0:
        q = _dist(rng, 3)
        step = LP_GRID_STEPS[slot % len(LP_GRID_STEPS)]
        n = grid_size(4, step)
        cfg = {
            "command": "extend", "theory": "rand_uniform", "functor": "identity",
            "monotone": "shannon", "variance": variance, "target": _floats(q),
            "candidates": {"kind": "grid", "length": 4, "step": step},
        }
        return Op("extend_uniform_grid", _text(cfg), pairs=2 * n, unequal=2 * n,
                  candidates=n, data={"target": q})
    y, cands = _pair_family(rng, LP_PAIR_COUNTS[slot % len(LP_PAIR_COUNTS)])
    objects = [[_floats(p), _floats(q)] for p, q in cands]
    n = len(cands)
    if kind == 1:
        cfg = {
            "command": "extend", "theory": "cdistinguish", "functor": "identity",
            "monotone": "kl", "variance": variance,
            "target": [_floats(y[0]), _floats(y[1])],
            "candidates": {"kind": "explicit", "objects": objects},
        }
        return Op("extend_cdistinguish", _text(cfg), pairs=2 * n, unequal=2 * n,
                  candidates=n, data={"target": y, "objects": cands})
    cfg = {
        "command": "extend", "theory": "distinguish_restricted",
        "functor": "classical_to_quantum_pairs", "monotone": "kl",
        "variance": variance,
        "target": [matrix_json(np.diag(y[0])), matrix_json(np.diag(y[1]))],
        "candidates": {"kind": "explicit", "objects": objects},
    }
    return Op("extend_restricted", _text(cfg), pairs=2 * n, unequal=2 * n,
              candidates=n, data={"target": y, "objects": cands})


# ---------------------------------------------------------------- cli_mix

REACH_THEORIES = (
    "rand_detmn", "rand_uniform", "qrand_quniform",
    "cdistinguish", "distinguish_restricted", "purebip_locc",
)
# One rotation: six reach ops (one per theory), six lorenz, six spectral
# extends and one usage error, so usage errors are 1/19 of the stream.
CLI_MIX_CYCLE = (
    [("reach", t) for t in REACH_THEORIES]
    + [("lorenz", None)] * 6
    + [("extend_spectral", None)] * 6
    + [("usage_error", None)]
)
USAGE_ERRORS = ("bad_step", "unknown_theory", "missing_key", "invalid_json")


def _reach(rng, theory: str) -> Op:
    positive = rng.random() < 0.5
    data: dict = {"theory": theory}
    if theory == "rand_detmn":
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, 5))
        p = _dist(rng, n)
        if positive:
            f = rng.integers(0, k, size=n)
            q = np.bincount(f, weights=p, minlength=k)
        else:
            q = _dist(rng, k)
        src, tgt, unequal = _floats(p), _floats(q), n != k
        data.update(p=p, q=q)
    elif theory == "rand_uniform":
        n = int(rng.integers(2, 6))
        k = n if rng.random() < 0.5 else int(rng.integers(2, 6))
        p = _dist(rng, n)
        q = p @ _uniform_matrix(rng, n, k) if positive else _dist(rng, k)
        src, tgt, unequal = _floats(p), _floats(q), n != k
        data.update(p=p, q=q)
    elif theory == "qrand_quniform":
        d1 = int(rng.integers(2, 5))
        d2 = d1 if rng.random() < 0.5 else int(rng.integers(2, 5))
        rho = _wishart_density(rng, d1)
        if positive and d1 == d2:
            sigma = np.zeros((d1, d1), dtype=complex)
            for w in rng.dirichlet(np.ones(3)):
                u = _haar_unitary(rng, d1)
                sigma += w * u @ rho @ u.conj().T
        else:
            sigma = _wishart_density(rng, d2)
        sigma = (sigma + sigma.conj().T) / 2
        src, tgt, unequal = matrix_json(rho), matrix_json(sigma), d1 != d2
        data.update(rho=rho, sigma=sigma)
    elif theory in ("cdistinguish", "distinguish_restricted"):
        n = int(rng.integers(2, 5))
        k = n if rng.random() < 0.5 else int(rng.integers(2, 5))
        pair = (_dist(rng, n), _dist(rng, n))
        if positive:
            m = _stochastic(rng, n, k)
            target = (pair[0] @ m, pair[1] @ m)
        else:
            target = (_dist(rng, k), _dist(rng, k))
        unequal = n != k
        data.update(pair=pair, target=target)
        if theory == "cdistinguish":
            src = [_floats(pair[0]), _floats(pair[1])]
            tgt = [_floats(target[0]), _floats(target[1])]
        else:
            src = [matrix_json(np.diag(pair[0])), matrix_json(np.diag(pair[1]))]
            tgt = [matrix_json(np.diag(target[0])), matrix_json(np.diag(target[1]))]
    else:  # purebip_locc
        dims_a = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        dims_b = dims_a if rng.random() < 0.5 else (
            int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        phi_coeffs = _dist(rng, min(dims_a))
        if positive:
            # a convex step toward a product state majorizes the source
            r = min(dims_b)
            base = np.zeros(r)
            base[: min(r, len(phi_coeffs))] = np.sort(phi_coeffs)[::-1][:r]
            base /= base.sum()
            point = np.zeros(r)
            point[0] = 1.0
            alpha = rng.uniform(0.2, 0.8)
            psi_coeffs = alpha * base + (1 - alpha) * point
        else:
            psi_coeffs = _dist(rng, min(dims_b))
        phi = _schmidt_state(rng, phi_coeffs, dims_a)
        psi = _schmidt_state(rng, psi_coeffs, dims_b)
        src, tgt = _pure_json(phi, dims_a), _pure_json(psi, dims_b)
        unequal = min(dims_a) != min(dims_b)
        data.update(phi=phi, psi=psi, dims_a=dims_a, dims_b=dims_b)
    cfg = {"command": "reach", "theory": theory, "source": src, "target": tgt}
    return Op(f"reach_{theory}", _text(cfg), pairs=1, unequal=int(unequal), data=data)


def _schmidt_state(rng, coeffs: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    da, db = dims
    ua, ub = _haar_unitary(rng, da), _haar_unitary(rng, db)
    m = np.zeros((da, db), dtype=complex)
    for i, c in enumerate(coeffs):
        m += np.sqrt(c) * np.outer(ua[:, i], ub[:, i])
    v = m.reshape(-1)
    return v / np.linalg.norm(v)


def _lorenz(rng, out: str) -> Op:
    """Single-curve or equal-length two-curve export.  Unequal lengths are
    a known defect and run in the defect probe instead."""
    n = int(rng.integers(2, 7))
    if rng.random() < 0.3:
        dists = [_dist(rng, n)]
    else:
        p = _dist(rng, n)
        q = p @ _uniform_matrix(rng, n, n) if rng.random() < 0.5 else _dist(rng, n)
        dists = [p, q]
    cfg = {"command": "lorenz", "distributions": [_floats(d) for d in dists], "out": out}
    return Op("lorenz", _text(cfg), pairs=len(dists) - 1, data={"dists": dists})


def _extend_spectral(rng) -> Op:
    d = int(rng.integers(2, 5))
    target = _wishart_density(rng, d)
    cfg = {
        "command": "extend", "theory": "qrand_quniform",
        "functor": "classical_to_quantum", "monotone": "shannon",
        "variance": "covariant" if rng.random() < 0.5 else "contravariant",
        "target": matrix_json(target), "candidates": {"kind": "spectral"},
    }
    return Op("extend_spectral", _text(cfg), pairs=2, candidates=1,
              data={"target": target})


def _usage_error(rng, which: str) -> Op:
    if which == "invalid_json":
        return Op("usage_invalid_json", '{"command": "reach", "theory": ', pairs=0,
                  malformed=True)
    p = _floats(_dist(rng, 3))
    if which == "bad_step":
        cfg = {"command": "extend", "theory": "rand_uniform", "functor": "identity",
               "monotone": "shannon", "variance": "covariant", "target": p,
               "candidates": {"kind": "grid", "length": 3, "step": 0.5}}
    elif which == "unknown_theory":
        cfg = {"command": "reach", "theory": "no_such_theory", "source": p, "target": p}
    else:
        cfg = {"command": "reach", "theory": "rand_uniform", "source": p}
    return Op(f"usage_{which}", _text(cfg), pairs=0, malformed=True)


def cli_mix(seed: int, index: int, out: str) -> Op:
    rng = op_rng(seed, "cli_mix", index)
    kind, theory = CLI_MIX_CYCLE[index % len(CLI_MIX_CYCLE)]
    if kind == "reach":
        return _reach(rng, theory)
    if kind == "lorenz":
        return _lorenz(rng, out)
    if kind == "extend_spectral":
        return _extend_spectral(rng)
    which = USAGE_ERRORS[(index // len(CLI_MIX_CYCLE)) % len(USAGE_ERRORS)]
    return _usage_error(rng, which)


# ---------------------------------------------------------------- verify_props

# (property, parameters); hlp_agreement twice so that the median and the
# 90th percentile fall inside a cluster of similar commands, not between two.
VERIFY_CYCLE = (
    ("hlp_agreement", {"length": 3, "step": 0.25}),
    ("data_processing", {"samples": 20, "length": 4, "out_length": 3}),
    ("optimality", {"samples": 10, "max_objects": 6}),
    ("coincidence", {"samples": 6, "bases": 20, "dims": [2, 3, 4]}),
    ("reduction", {"samples": 10, "length": 3}),
    ("monotonicity", {"samples": 5, "theory": "rand_uniform", "length": 3, "step": 0.1}),
    ("hlp_agreement", {"length": 2, "step": 0.05}),
    ("monotonicity", {"samples": 5, "theory": "qrand_quniform", "length": 2, "step": 0.1}),
)


def verify_pairs(prop: str, params: dict) -> tuple[int, int]:
    """Reachability questions one verify command resolves, and the count
    expected in its ``checked`` field."""
    s = params.get("samples", 0)
    if prop == "hlp_agreement":
        g = grid_size(params["length"], params["step"])
        return g * g, g * g
    if prop == "reduction":
        return 2 * s * s, s
    if prop == "monotonicity":
        g = grid_size(params["length"], params["step"])
        return s * (1 + 4 * g), s
    if prop == "coincidence":
        return 2 * s, s
    return s, s  # data_processing: one joint LP each; optimality: one toy problem each


def verify_props(seed: int, index: int, out: str) -> Op:
    rng = op_rng(seed, "verify_props", index)
    prop, params = VERIFY_CYCLE[index % len(VERIFY_CYCLE)]
    cfg = {"command": "verify", "property": prop, "seed": int(rng.integers(0, 2**31)),
           **params}
    pairs, checked = verify_pairs(prop, params)
    return Op(f"verify_{prop}", _text(cfg), pairs=pairs, data={"checked": checked})


# ---------------------------------------------------------------- defect probe

def defect_probe(seed: int, out: str, lorenz_pairs: int = 60) -> list[Op]:
    """Inputs that hit the known defects: unequal-length ``lorenz`` pairs,
    where zero-padded majorization disagrees with the uniform-map LP, and
    the usage errors that escape ``cli.main`` as exceptions."""
    rng = np.random.default_rng([seed, 99])
    ops = []
    for _ in range(lorenz_pairs):
        n, m = rng.choice(np.arange(2, 6), size=2, replace=False)
        p, q = _dist(rng, int(n)), _dist(rng, int(m))
        cfg = {"command": "lorenz", "distributions": [_floats(p), _floats(q)], "out": out}
        ops.append(Op("lorenz_unequal", _text(cfg), pairs=1, unequal=1,
                      data={"dists": [p, q]}))
    for _ in range(5):
        a, b = _dist(rng, 3), _dist(rng, 2)
        cfg = {"command": "reach", "theory": "cdistinguish",
               "source": [_floats(a), _floats(b)], "target": [_floats(a), _floats(b)]}
        ops.append(Op("escape_dimension_mismatch", _text(cfg), 0, malformed=True))
        cfg = {"command": "verify", "property": "optimality", "samples": 1,
               "max_objects": 12, "seed": _budget_breaking_seed(rng)}
        ops.append(Op("escape_enumeration_budget", _text(cfg), 0, malformed=True))
        cfg = {"command": "extend", "theory": "rand_uniform", "functor": "identity",
               "monotone": "shannon", "variance": "covariant",
               "target": _floats(_dist(rng, 3)),
               "candidates": {"kind": "grid", "length": 0, "step": 0.25}}
        ops.append(Op("escape_recursion", _text(cfg), 0, malformed=True))
        p13 = _dist(rng, 13)
        cfg = {"command": "reach", "theory": "rand_detmn", "source": _floats(p13),
               "target": _floats(_dist(rng, 2))}
        ops.append(Op("escape_size_limit", _text(cfg), 0, malformed=True))
    return ops


def _budget_breaking_seed(rng) -> int:
    """A seed whose first toy problem has at least 10 objects, so 5^n
    assignments exceed the default enumeration budget at once."""
    while True:
        s = int(rng.integers(0, 2**31))
        if np.random.default_rng(s).integers(2, 13) >= 10:
            return s


@dataclass(frozen=True)
class Workload:
    """``make(seed, index, out)`` builds op ``index``; ``out`` is the path
    lorenz commands write to.  ``pool`` is the number of distinct ops before
    the stream repeats, which bounds reference-check time if the program
    gets much faster; at the parent commit no workload reaches it."""

    make: Callable[[int, int, str], Op]
    pool: int


WORKLOADS = {
    "sweep_quantum": Workload(sweep_quantum, 3000),
    "sweep_lp": Workload(sweep_lp, 3000),
    "cli_mix": Workload(cli_mix, 100_000),
    "verify_props": Workload(verify_props, 3000),
}
