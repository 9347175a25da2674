"""Independent reference answers for the benchmark's ops.

Nothing here imports kanext.  Majorization is this module's own sorted
cumulative-sum test on spectra and Schmidt coefficients; map existence is
decided by ``scipy.optimize.linprog`` (HiGHS); deterministic maps by brute
force over all functions; extension values are recomputed from the
reference decisions with the inf/sup table of the paper.

``expect(op, lp)`` reads an op, queues the LP questions it needs on ``lp``
and returns a check.  After ``lp.solve()`` the check takes the op's
outcome and returns ``None`` or the reason it is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from workloads import grid_points

# Cumulative sums may differ by rounding; a real violation is far larger
# because inputs come from continuous distributions.
ORDER_SLACK = 1e-9
# Total constraint violation of the phase-1 LP that still counts as feasible.
LP_TOL = 1e-7
VALUE_TOL = 1e-9
WITNESS_TOL = 1e-7
LP_BATCH = 200


@dataclass
class Outcome:
    """What one CLI command did: exit code, captured streams, the name of
    an exception that escaped ``cli.main`` (or None), and the CSV it wrote."""

    code: int | None
    stdout: str
    stderr: str
    exception: str | None = None
    csv: str | None = None


# ---------------------------------------------------------------- order tests

def _desc_cumsum(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    padded = np.zeros(x.shape[:-1] + (n,))
    padded[..., : x.shape[-1]] = np.sort(x, axis=-1)[..., ::-1]
    return np.cumsum(padded, axis=-1)


def dominates(a, b) -> np.ndarray:
    """True where b is majorized by a (a is the more ordered), zero-padding
    the shorter vector.  Broadcasts over leading axes."""
    n = max(np.shape(a)[-1], np.shape(b)[-1])
    return np.all(_desc_cumsum(b, n) <= _desc_cumsum(a, n) + ORDER_SLACK, axis=-1)


def spectrum(m: np.ndarray) -> np.ndarray:
    vals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return vals / vals.sum()


def schmidt_squares(vec: np.ndarray, dims) -> np.ndarray:
    s = np.linalg.svd(np.asarray(vec).reshape(dims), compute_uv=False) ** 2
    return s / s.sum()


def entropy_bits(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    logs = np.log2(np.where(p > 0, p, 1.0))
    return np.maximum(0.0, -(p * logs).sum(axis=-1))


def kl_bits(p, q) -> float:
    p, q = np.asarray(p, float), np.asarray(q, float)
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return max(0.0, float((p[mask] * np.log2(p[mask] / q[mask])).sum()))


def deterministic_map_exists(p, q) -> bool:
    """Brute force over every function from p's outcomes to q's."""
    n, k = len(p), len(q)
    funcs = np.array(list(itertools.product(range(k), repeat=n)))
    images = np.zeros((len(funcs), k))
    for i in range(n):
        images[np.arange(len(funcs)), funcs[:, i]] += p[i]
    return bool(np.any(np.all(np.abs(images - q) <= 1e-9, axis=1)))


# ---------------------------------------------------------------- batched LPs

def _uniform_system(p, q):
    """Rows sum to 1, columns to n/k, and p M = q, over M >= 0."""
    n, k = len(p), len(q)
    a = np.zeros((n + 2 * k, n * k))
    for i in range(n):
        a[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a[n + j, j::k] = 1.0
        a[n + k + j, j::k] = p
    return a, np.concatenate([np.ones(n), np.full(k, n / k), q])


def _joint_system(pair, target):
    """Rows sum to 1, p M = p' and q M = q', over M >= 0."""
    (p, q), (p2, q2) = pair, target
    n, k = len(p), len(p2)
    a = np.zeros((n + 2 * k, n * k))
    for i in range(n):
        a[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a[n + j, j::k] = p
        a[n + k + j, j::k] = q
    return a, np.concatenate([np.ones(n), p2, q2])


class LpBatch:
    """Queues feasibility questions and answers them with few linprog calls.

    A batch is one block-diagonal LP: each question's equalities get a
    positive and a negative slack column, and the objective is the total
    slack.  Blocks share no variables, so each question is feasible iff its
    own slack is zero at the optimum.
    """

    def __init__(self):
        self._systems: list[tuple[np.ndarray, np.ndarray]] = []
        self._keys: dict = {}
        self._answers: np.ndarray | None = None

    def _ask(self, key, build) -> int:
        if key not in self._keys:
            self._keys[key] = len(self._systems)
            self._systems.append(build())
            self._answers = None
        return self._keys[key]

    def uniform(self, p, q) -> int:
        p, q = np.asarray(p, float), np.asarray(q, float)
        return self._ask(("u", p.tobytes(), q.tobytes()), lambda: _uniform_system(p, q))

    def joint(self, pair, target) -> int:
        pair = tuple(np.asarray(x, float) for x in pair)
        target = tuple(np.asarray(x, float) for x in target)
        key = ("j",) + tuple(x.tobytes() for x in pair + target)
        return self._ask(key, lambda: _joint_system(pair, target))

    def __len__(self) -> int:
        return len(self._systems)

    def solve(self) -> None:
        out = [_solve_block_batch(self._systems[i:i + LP_BATCH])
               for i in range(0, len(self._systems), LP_BATCH)]
        self._answers = np.concatenate(out) if out else np.zeros(0, dtype=bool)

    def __getitem__(self, index: int) -> bool:
        return bool(self._answers[index])


def _solve_block_batch(systems) -> np.ndarray:
    rows, cols, vals, rhs, owner = [], [], [], [], []
    r0 = c0 = 0
    for i, (a, b) in enumerate(systems):
        m, v = a.shape
        rr, cc = np.nonzero(a)
        eye = np.arange(m)
        rows += [rr + r0, eye + r0, eye + r0]
        cols += [cc + c0, eye + c0 + v, eye + c0 + v + m]
        vals += [a[rr, cc], np.ones(m), -np.ones(m)]
        owner.append(np.concatenate([np.full(v, -1), np.full(2 * m, i)]))
        rhs.append(b)
        r0 += m
        c0 += v + 2 * m
    a_eq = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(r0, c0),
    )
    own = np.concatenate(owner)
    slack_cols = own >= 0
    res = linprog(slack_cols.astype(float), A_eq=a_eq, b_eq=np.concatenate(rhs),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    slack = np.bincount(own[slack_cols], weights=res.x[slack_cols],
                        minlength=len(systems))
    return slack <= LP_TOL


# ---------------------------------------------------------------- checks

class Checker:
    """Validates outputs against the CLI's JSON schema and the references."""

    def __init__(self, schema_path: Path):
        schema = json.loads(schema_path.read_text())
        self._validator = jsonschema.Draft7Validator(schema)

    def expect(self, op, lp: LpBatch):
        """Queue op's reference questions; return ``check(outcome)``."""
        if op.malformed:
            return _usage_error_check
        body = _BODY_EXPECTATIONS[op.config["command"]](op, lp)

        def check(outcome: Outcome):
            if outcome.exception is not None:
                return f"exception escaped cli.main: {outcome.exception}"
            if outcome.code != 0:
                return f"exit code {outcome.code}, stderr {outcome.stderr[:200]!r}"
            if outcome.stderr:
                return f"unexpected stderr {outcome.stderr[:200]!r}"
            try:
                doc = json.loads(outcome.stdout)
            except json.JSONDecodeError as exc:
                return f"stdout is not JSON: {exc}"
            if not self._validator.is_valid(doc):
                error = jsonschema.exceptions.best_match(self._validator.iter_errors(doc))
                return f"schema: {error.message}"
            return body(doc, outcome)

        return check


def _usage_error_check(outcome: Outcome):
    if outcome.exception is not None:
        return f"exception escaped cli.main: {outcome.exception}"
    if outcome.code != 2:
        return f"usage error exited {outcome.code}, expected 2"
    if outcome.stdout:
        return "usage error printed to stdout"
    lines = outcome.stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error:"):
        return f"usage error needs one stderr line, got {outcome.stderr[:200]!r}"
    return None


def _close(a, b) -> bool:
    if a == "inf" or b == math.inf:
        return a == "inf" and b == math.inf
    return abs(float(a) - b) <= VALUE_TOL * max(1.0, abs(b))


def _extension_values(values, down, up, covariant: bool):
    """The inf/sup table: minimal ranges over y -> K(X), maximal over K(X) -> y."""
    below = [v for v, ok in zip(values, down) if ok]
    above = [v for v, ok in zip(values, up) if ok]
    if covariant:
        return (min(below) if below else math.inf), (max(above) if above else 0.0)
    return (max(below) if below else 0.0), (min(above) if above else math.inf)


def _resolve(decisions, lp: LpBatch) -> list[bool]:
    """Decisions are a boolean array, or indices of queued LP questions."""
    if isinstance(decisions, np.ndarray):
        return list(decisions)
    return [lp[i] for i in decisions]


def _expect_extend(op, lp: LpBatch):
    cfg = op.config
    covariant = cfg["variance"] == "covariant"
    data = op.data
    complete = False
    if op.kind == "extend_qrand":
        cands = data["objects"]
        spec = spectrum(data["target"])
        values = entropy_bits(cands)
        down, up = dominates(spec, cands), dominates(cands, spec)
    elif op.kind == "extend_spectral":
        spec = spectrum(data["target"])
        cands = spec[None, :]
        values = entropy_bits(cands)
        down, up = dominates(spec, cands), dominates(cands, spec)
        complete = True
    elif op.kind == "extend_uniform_grid":
        cands = grid_points(cfg["candidates"]["length"], cfg["candidates"]["step"])
        q = data["target"]
        values = entropy_bits(cands)
        # permutations are invertible uniform maps, so sorted candidates
        # stand for all their rearrangements
        keys = [np.sort(c) for c in cands]
        down = [lp.uniform(q, c) for c in keys]
        up = [lp.uniform(c, q) for c in keys]
    else:  # extend_cdistinguish and extend_restricted
        y = data["target"]
        cands = data["objects"]
        values = [kl_bits(p, q) for p, q in cands]
        down = [lp.joint(y, c) for c in cands]
        up = [lp.joint(c, y) for c in cands]
    n = len(cands)

    def body(doc, outcome):
        lo, hi = _extension_values(values, _resolve(down, lp), _resolve(up, lp), covariant)
        if doc["candidates"] != n:
            return f"candidates {doc['candidates']} != {n}"
        for side, want in (("minimal", lo), ("maximal", hi)):
            got = doc[side]
            if got["examined"] != n:
                return f"{side} examined {got['examined']} != {n}"
            if got["exact"] != complete:
                return f"{side} exact {got['exact']} != {complete}"
            if not _close(got["value"], want):
                return f"{side} value {got['value']} != reference {want}"
        return None

    return body


def _witness_carries(w, p, q, tol=WITNESS_TOL) -> bool:
    w = np.asarray(w, float)
    return (w.shape == (len(p), len(q)) and np.all(w >= -tol)
            and np.allclose(w.sum(axis=1), 1.0, atol=tol)
            and np.allclose(p @ w, q, atol=tol))


def _restricted_witness_ok(w, pair, target) -> bool:
    """The witness must carry the pair to the target after relabelling the
    outcomes of each side, since the oracle works in joint eigenbases."""
    w = np.asarray(w, float)
    (p, q), (p2, q2) = pair, target
    if w.shape != (len(p), len(p2)) or np.any(w < -WITNESS_TOL):
        return False
    if not np.allclose(w.sum(axis=1), 1.0, atol=WITNESS_TOL):
        return False
    want = np.column_stack([p2, q2])
    want = want[np.lexsort(want.T[::-1])]
    for perm in itertools.permutations(range(len(p))):
        got = np.column_stack([p[list(perm)] @ w, q[list(perm)] @ w])
        got = got[np.lexsort(got.T[::-1])]
        if np.allclose(got, want, atol=WITNESS_TOL):
            return True
    return False


def _expect_reach(op, lp: LpBatch):
    d = op.data
    theory = d["theory"]
    exact = True
    witness_ok = None
    if theory == "rand_detmn":
        want = deterministic_map_exists(d["p"], d["q"])
        witness_ok = lambda w: _witness_carries(w, d["p"], d["q"])
    elif theory == "rand_uniform":
        p, q = d["p"], d["q"]
        want = bool(dominates(p, q)) if len(p) == len(q) else lp.uniform(p, q)
        n, k = len(p), len(q)
        witness_ok = lambda w: (_witness_carries(w, p, q) and np.allclose(
            np.asarray(w).sum(axis=0), n / k, atol=WITNESS_TOL))
    elif theory == "qrand_quniform":
        a, b = spectrum(d["rho"]), spectrum(d["sigma"])
        exact = len(a) == len(b)
        want = bool(dominates(a, b)) if exact else lp.uniform(a, b)
    elif theory == "cdistinguish":
        want = lp.joint(d["pair"], d["target"])
        witness_ok = lambda w: (_witness_carries(w, d["pair"][0], d["target"][0])
                                and _witness_carries(w, d["pair"][1], d["target"][1]))
    elif theory == "distinguish_restricted":
        want = None  # negatives are not certified; positives carry a witness
    else:
        want = bool(dominates(schmidt_squares(d["psi"], d["dims_b"]),
                              schmidt_squares(d["phi"], d["dims_a"])))

    def body(doc, outcome):
        if theory == "distinguish_restricted":
            if not doc["reachable"]:
                return None if not doc["exact"] else "uncertified negative marked exact"
            if not _restricted_witness_ok(doc.get("witness"), d["pair"], d["target"]):
                return "restricted-family witness does not carry the pair"
            return None
        expected = want if isinstance(want, bool) else lp[want]
        if doc["reachable"] != expected:
            return f"reachable {doc['reachable']} != reference {expected}"
        if doc["exact"] != exact:
            return f"exact {doc['exact']} != {exact}"
        if doc["reachable"] and "witness" in doc and witness_ok is not None:
            if not witness_ok(doc["witness"]):
                return "witness does not carry source to target"
        return None

    return body


def lorenz_knots(p) -> np.ndarray:
    n = len(p)
    y = np.concatenate([[0.0], np.cumsum(np.sort(p))])
    y[-1] = 1.0
    return np.column_stack([np.arange(n + 1) / n, y])


def _parse_curves(csv: str) -> tuple[list[np.ndarray], str | None]:
    curves, comment = [], None
    for line in csv.splitlines():
        if line == "x,y":
            curves.append([])
        elif line.startswith("# q_majorized_by_p:"):
            comment = line.split(":", 1)[1].strip()
        elif line and not line.startswith("#"):
            curves[-1].append([float(v) for v in line.split(",")])
    return [np.array(c) for c in curves], comment


def _expect_lorenz(op, lp: LpBatch):
    dists = op.data["dists"]
    want = None
    if len(dists) == 2:
        p, q = dists
        want = bool(dominates(p, q)) if len(p) == len(q) else lp.uniform(p, q)

    def body(doc, outcome):
        if doc["curves"] != len(dists):
            return f"curves {doc['curves']} != {len(dists)}"
        curves, comment = _parse_curves(outcome.csv or "")
        if len(curves) != len(dists):
            return "CSV does not hold one curve per distribution"
        for got, p in zip(curves, dists):
            ref = lorenz_knots(p)
            if got.shape != ref.shape or not np.allclose(got, ref, atol=1e-9):
                return "CSV curve differs from the reference Lorenz knots"
        if want is not None:
            expected = want if isinstance(want, bool) else lp[want]
            if doc.get("q_majorized_by_p") != expected:
                return f"q_majorized_by_p {doc.get('q_majorized_by_p')} != reference {expected}"
            if comment != json.dumps(expected):
                return "CSV dominance comment disagrees with the reference"
        return None

    return body


def _expect_verify(op, lp: LpBatch):
    cfg = op.config
    checked = op.data["checked"]

    def body(doc, outcome):
        if not doc["passed"] or doc["violations"]:
            return f"property {cfg['property']} reported violations"
        if doc["checked"] != checked:
            return f"checked {doc['checked']} != {checked}"
        if cfg["property"] == "reduction":
            # each sample is its own candidate, so both extensions equal M
            if doc.get("details", {}).get("equalities") != checked:
                return "reduction sandwich is not tight on every sample"
        return None

    return body


_BODY_EXPECTATIONS = {
    "extend": _expect_extend,
    "reach": _expect_reach,
    "lorenz": _expect_lorenz,
    "verify": _expect_verify,
}
