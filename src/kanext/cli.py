"""Config-driven command line front door.

One JSON config document (file path or stdin) selects the command and all
parameters; the only flags are --config, --seed, and --out, so a run is
fully reproducible from its config.  Commands:

    reach    decide free reachability between two objects of a theory
    extend   compute both extensions of a monotone at a target object
    verify   run a named property check; exit 1 on any violation
    lorenz   export Lorenz curves to CSV, with a dominance summary in
             two-distribution mode

Exit codes: 0 success/pass, 1 property violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from itertools import chain

import numpy as np

from .bf_oracle import random_toy_problem
from .kan import (
    ExtensionProblem,
    extension,
    verify_monotonicity,
    verify_optimality,
    verify_reduction,
)
from .lp import joint_map_mask, uniform_map_mask
from .pcat import CONTRAVARIANT, COVARIANT, VALUE_SLACK, DistRows, ResourceRef, ext_leq
from .prob import (
    Dist,
    InvariantViolation,
    dist_rows,
    ext_to_json,
    kl_rows,
    lorenz_csv,
    lorenz_curve,
    majorization_mask,
    random_stochastic,
    random_uniform_matrix,
    simplex_grid,
)
from .quantum import (
    DIMENSION_CAP,
    BipartitePure,
    DensityMatrix,
    complex_matrix_from_json,
    measurement_entropy_search,
    random_density,
    random_unitary,
    spectral_entropy,
)
from .theories import (
    RAND_UNIFORM,
    default_registry,
    make_functor,
    make_monotone,
    rand_uniform_oracle,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

GRID_STEP_RANGE = (0.01, 0.25)
# Most ordered grid pairs hlp_agreement will check, all decided by one
# batched simplex; the default grid (length 3, step 0.05) has 53,361.
HLP_PAIRS_CAP = 60_000
# Largest verify sizes, checked before any sampling: sample counts, sampled
# measurement bases, distribution lengths and toy-theory objects.  The first
# three sit well above what the tests, the README and the benchmark use (at
# most 200 samples, 50 bases and length 4); a test runs the object cap.
SAMPLES_CAP = 1_000
BASES_CAP = 1_000
LENGTH_CAP = 16
MAX_OBJECTS_CAP = 16
# Longest distribution, or pair component, a payload may hold: the lengths
# over which prob.ORDER_SLACK bounds the rounding of the order tests.
PAYLOAD_LENGTH_CAP = 64
# Philox keys lie below this bound.  Sample i of the coincidence check
# measures with key seed + i, so its seed is at most the bound less the
# sample count.
PHILOX_KEY_BOUND = 2**128
# Most that either extension at a state may differ from its von Neumann
# entropy in the coincidence check.
COINCIDENCE_TOL = 1e-6
# JSON values that numpy would read as numbers in a weight list.
_NOT_NUMBERS = frozenset((bool, str))
# The types of the JSON numbers a weight list may hold.
_NUMBERS = frozenset((int, float))


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _text(cfg: dict, key: str) -> str:
    value = _require(cfg, key)
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
    return value


def _number(value, key: str, kind: type = int, at_least=None, at_most=None):
    """The config value under ``key`` as a ``kind``.  An integer key takes
    a JSON integer, a float key any JSON number; any other value (a bool,
    text, null, a list, an object, or a fraction where an integer is due)
    or one outside ``[at_least, at_most]`` is a ConfigError naming the
    key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    if kind is int and not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    try:
        number = kind(value)
    except OverflowError as exc:
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from exc
    if at_least is not None and number < at_least:
        raise ConfigError(f"config key {key!r} must be at least {at_least}, got {number}")
    if at_most is not None and number > at_most:
        raise ConfigError(f"config key {key!r} must be at most {at_most}, got {number}")
    return number


def _samples(cfg: dict, default: int) -> int:
    return _number(cfg.get("samples", default), "samples", at_least=0, at_most=SAMPLES_CAP)


def _length(cfg: dict, key: str, default: int) -> int:
    return _number(cfg.get(key, default), key, at_least=1, at_most=LENGTH_CAP)


def _dist(data) -> Dist:
    """A distribution payload, its length checked before it is built.
    It must be a flat list of JSON numbers: numpy would read true and false
    as 1 and 0, numeric text as the number it spells, and a nested list as
    its flattening."""
    weights = np.asarray(data, dtype=float)
    if weights.size > PAYLOAD_LENGTH_CAP:
        raise ConfigError(
            f"length {weights.size} is over the cap of {PAYLOAD_LENGTH_CAP}"
        )
    if weights.ndim != 1 or not _NOT_NUMBERS.isdisjoint(map(type, data)):
        raise ConfigError(f"weights must be a list of JSON numbers, got {data!r}")
    return Dist(weights)


def parse_payload(kind: str, data):
    """Decode one object payload according to its theory's object kind."""
    try:
        if kind == "dist":
            return _dist(data)
        if kind == "dist_pair":
            p, q = data
            return (_dist(p), _dist(q))
        if kind == "density":
            return DensityMatrix(complex_matrix_from_json(data))
        if kind == "density_pair":
            a, b = data
            return (
                DensityMatrix(complex_matrix_from_json(a)),
                DensityMatrix(complex_matrix_from_json(b)),
            )
        if kind == "pure":
            da, db = (
                _number(d, "dims", at_least=1, at_most=DIMENSION_CAP) for d in data["dims"]
            )
            vec = complex_matrix_from_json([data["state"]])[0]
            return BipartitePure(vec, (da, db))
    except (InvariantViolation, TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"bad {kind} object: {exc}") from exc
    raise ConfigError(f"unknown object kind {kind!r}")


def payload_to_json(payload):
    if hasattr(payload, "to_json"):
        return payload.to_json()
    return payload


def _grid_step(value) -> float:
    step = _number(value, "step", float)
    lo, hi = GRID_STEP_RANGE
    if not lo <= step <= hi:
        raise ConfigError(f"grid step {step} outside [{lo}, {hi}]")
    return step


def _dist_matrices(kind: str, objects: list) -> tuple[np.ndarray, ...] | None:
    """An explicit list of ``dist`` or ``dist_pair`` payloads as checked
    weight matrices (one, or a p and a q matrix), each validated once by
    ``dist_rows``; or None unless every payload is a list (of two lists,
    for pairs) of JSON numbers, all of one length within the payload cap,
    and every distribution holds.  The per-payload path then builds a
    family of mixed lengths or raises the error of the first bad payload.
    """
    depth = 1 if kind == "dist" else 2
    try:
        entries = objects
        for _ in range(depth):
            entries = list(chain.from_iterable(entries))
        if not _NUMBERS.issuperset(map(type, entries)):
            return None
        weights = np.asarray(objects, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if weights.shape[1:-1] != (2,) * (depth - 1) or weights.shape[-1] > PAYLOAD_LENGTH_CAP:
        return None
    # components one after another, so that each matrix is one block of rows
    rows = np.moveaxis(weights, -2, 0).reshape(-1, weights.shape[-1])
    try:
        checked = dist_rows(rows)
    except InvariantViolation:
        return None
    return tuple(np.split(checked, depth))


def build_candidates(
    cfg: dict, source_theory: str, source_kind: str, target_payload
) -> tuple[Sequence[ResourceRef], bool]:
    """Materialize the candidate family from its config spec: a
    ``DistRows`` for distribution-valued ones of one length, else a tuple
    of objects.

    Returns (family, complete): ``complete`` is true only for the spectral
    family, which provably captures the unital classical boundary.
    """
    spec = _require(cfg, "candidates")
    if not isinstance(spec, dict):
        raise ConfigError("config key 'candidates' must be an object")
    kind = _require(spec, "kind")
    if kind == "explicit":
        objects = _require(spec, "objects")
        if not isinstance(objects, list):
            raise ConfigError("config key 'objects' must be a list")
        if objects and source_kind in ("dist", "dist_pair"):
            weights = _dist_matrices(source_kind, objects)
            if weights is not None:
                return DistRows(source_theory, weights), False
        payloads = (parse_payload(source_kind, obj) for obj in objects)
        return tuple(ResourceRef(source_theory, p) for p in payloads), False
    if kind == "grid":
        if source_kind != "dist":
            raise ConfigError("grid candidates need a distribution-valued source")
        step = _grid_step(_require(spec, "step"))
        length = _number(_require(spec, "length"), "length")
        return DistRows(source_theory, (simplex_grid(length, step),)), False
    if kind == "spectral":
        if not isinstance(target_payload, DensityMatrix):
            raise ConfigError("spectral candidates need a density-matrix target")
        if source_kind != "dist":
            raise ConfigError(
                "spectral candidates are distributions; the functor's source "
                "theory must be distribution-valued"
            )
        return _spectral_rows(source_theory, target_payload), True
    raise ConfigError(f"unknown candidate kind {kind!r}")


def _spectral_rows(theory_id: str, rho: DensityMatrix) -> DistRows:
    """rho's spectrum as a family of one distribution."""
    return DistRows(theory_id, (rho.spectrum.eigenvalues.weights[None],))


def cmd_reach(cfg: dict) -> tuple[int, dict]:
    registry = default_registry()
    theory_id = _text(cfg, "theory")
    entry = registry.entry(theory_id)
    source = ResourceRef(theory_id, parse_payload(entry.kind, _require(cfg, "source")))
    target = ResourceRef(theory_id, parse_payload(entry.kind, _require(cfg, "target")))
    decision = entry.oracle.decide(source, target)
    doc = {
        "command": "reach",
        "theory": theory_id,
        "reachable": decision.reachable,
        "exact": decision.exact,
    }
    witness = decision.witness
    if witness is None and decision.reachable and entry.witness is not None:
        witness = entry.witness(source.payload, target.payload)
    if witness is not None:
        doc["witness"] = payload_to_json(witness)
    return EXIT_OK, doc


# object kind each monotone evaluates; guards config mismatches up front
_MONOTONE_KINDS = {
    "shannon": "dist",
    "kl": "dist_pair",
    "schmidt": "pure",
    "spectral_entropy": "density",
}


def cmd_extend(cfg: dict) -> tuple[int, dict]:
    registry = default_registry()
    theory_id = _text(cfg, "theory")
    entry = registry.entry(theory_id)
    functor = make_functor(_require(cfg, "functor"), theory_id)
    if functor.target_theory != theory_id:
        raise ConfigError(
            f"functor {functor.name!r} lands in {functor.target_theory!r}, "
            f"not {theory_id!r}"
        )
    source_kind = registry.entry(functor.source_theory).kind
    variance = _require(cfg, "variance")
    if variance not in (COVARIANT, CONTRAVARIANT):
        raise ConfigError(f"unknown variance {variance!r}")
    monotone_id = _text(cfg, "monotone")
    if _MONOTONE_KINDS.get(monotone_id) not in (None, source_kind):
        raise ConfigError(
            f"monotone {monotone_id!r} evaluates {_MONOTONE_KINDS[monotone_id]} "
            f"objects, but the functor's source theory holds {source_kind}"
        )
    monotone = make_monotone(monotone_id, variance)
    target_payload = parse_payload(entry.kind, _require(cfg, "target"))
    candidates, complete = build_candidates(
        cfg, functor.source_theory, source_kind, target_payload
    )
    problem = ExtensionProblem(
        monotone, functor, entry.oracle, candidates, candidates_complete=complete
    )
    lo, hi = extension(problem, ResourceRef(theory_id, target_payload))
    doc = {
        "command": "extend",
        "theory": theory_id,
        "functor": functor.name,
        "monotone": monotone.name,
        "variance": variance,
        "candidates": len(problem.candidates),
        "minimal": lo.to_json(),
        "maximal": hi.to_json(),
    }
    return EXIT_OK, doc


def _shannon_embedding_problem(
    candidates: Sequence[ResourceRef], complete: bool = False
) -> ExtensionProblem:
    return ExtensionProblem(
        make_monotone("shannon", COVARIANT),
        make_functor("classical_to_quantum"),
        default_registry().oracle("qrand_quniform"),
        candidates,
        candidates_complete=complete,
    )


def _verify_reduction(cfg: dict, rng: np.random.Generator) -> dict:
    samples = _samples(cfg, 50)
    length = _length(cfg, "length", 3)
    # one checked Dist per sample, drawn in order, and its weights as a row
    dists = [Dist(rng.dirichlet(np.ones(length))).weights for _ in range(samples)]
    weights = np.array(dists).reshape(samples, length)
    weights.setflags(write=False)
    problem = _shannon_embedding_problem(DistRows(RAND_UNIFORM, (weights,)))
    return verify_reduction(problem, list(problem.candidates))


def _verify_monotonicity(cfg: dict, rng: np.random.Generator) -> dict:
    samples = _samples(cfg, 50)
    theory_id = cfg.get("theory", RAND_UNIFORM)
    registry = default_registry()
    if theory_id == RAND_UNIFORM:
        length = _length(cfg, "length", 3)
        step = _grid_step(cfg.get("step", 0.05))
        problem = ExtensionProblem(
            make_monotone("shannon", COVARIANT),
            make_functor("identity", RAND_UNIFORM),
            registry.oracle(RAND_UNIFORM),
            DistRows(RAND_UNIFORM, (simplex_grid(length, step),)),
        )
        pairs = []
        for _ in range(samples):
            p = Dist(rng.dirichlet(np.ones(length)))
            q = Dist(p.weights @ random_uniform_matrix(rng, length).entries)
            pairs.append(
                (ResourceRef(RAND_UNIFORM, p), ResourceRef(RAND_UNIFORM, q))
            )
    elif theory_id == "qrand_quniform":
        dim = _length(cfg, "length", 2)
        grid = simplex_grid(dim, _grid_step(cfg.get("step", 0.05)))
        problem = _shannon_embedding_problem(DistRows(RAND_UNIFORM, (grid,)))
        pairs = []
        for _ in range(samples):
            rho = random_density(rng, dim)
            mixed = np.zeros((dim, dim), dtype=complex)
            for w in rng.dirichlet(np.ones(3)):
                u = random_unitary(rng, dim)
                mixed += w * u @ rho.entries @ u.conj().T
            sigma = DensityMatrix(mixed)
            pairs.append(
                (ResourceRef(theory_id, rho), ResourceRef(theory_id, sigma))
            )
    else:
        raise ConfigError(f"monotonicity check does not cover theory {theory_id!r}")
    return verify_monotonicity(problem, pairs)


def _verify_optimality(cfg: dict, rng: np.random.Generator) -> dict:
    samples = _samples(cfg, 50)
    # each toy theory has between 2 and max_objects objects
    max_objects = _number(
        cfg.get("max_objects", 6), "max_objects", at_least=2, at_most=MAX_OBJECTS_CAP
    )
    violations = []
    for i in range(samples):
        problem, objects, grid = random_toy_problem(rng, max_objects=max_objects)
        report = verify_optimality(problem, objects, grid)
        if not report["passed"]:
            violations.append({"problem": i, "violations": report["violations"]})
    return {"passed": not violations, "checked": samples, "violations": violations}


def _verify_hlp(cfg: dict, rng: np.random.Generator) -> dict:
    length = _number(cfg.get("length", 3), "length")
    grid = simplex_grid(length, _grid_step(cfg.get("step", 0.05)))
    if len(grid) ** 2 > HLP_PAIRS_CAP:
        raise ConfigError(
            f"hlp_agreement over {len(grid)} grid points checks {len(grid) ** 2} "
            f"pairs, over the cap of {HLP_PAIRS_CAP}"
        )
    rows, cols = grid[:, None], grid[None, :]
    lorenz = majorization_mask(rows, cols)
    disagree = np.argwhere(lorenz != uniform_map_mask(rows, cols))
    disagreements = [
        {"p": grid[i].tolist(), "q": grid[j].tolist(), "lorenz": bool(lorenz[i, j])}
        for i, j in disagree
    ]
    return {
        "passed": not disagreements,
        "checked": len(grid) ** 2,
        "violations": disagreements,
    }


def _verify_data_processing(cfg: dict, rng: np.random.Generator) -> dict:
    samples = _samples(cfg, 200)
    length = _length(cfg, "length", 4)
    out_length = _length(cfg, "out_length", 3)
    # every sample is drawn first, in the order one sample at a time took
    weights = [np.empty((samples, size)) for size in (length, length, out_length, out_length)]
    for i in range(samples):
        p = Dist(rng.dirichlet(np.ones(length)))
        q = Dist(rng.dirichlet(np.ones(length)))
        m = random_stochastic(rng, length, out_length)
        draws = (p, q, Dist(p.weights @ m.entries), Dist(q.weights @ m.entries))
        for side, dist in zip(weights, draws):
            side[i] = dist.weights
    found = joint_map_mask(*weights)
    before, after = kl_rows(*weights[:2]).tolist(), kl_rows(*weights[2:]).tolist()
    violations = []
    for i in range(samples):
        if not found[i]:
            violations.append({"instance": i, "reason": "joint map not found"})
        elif not ext_leq(after[i], before[i], VALUE_SLACK):
            violations.append(
                {"instance": i, "reason": "divergence increased",
                 "before": ext_to_json(before[i]), "after": ext_to_json(after[i])}
            )
    return {"passed": not violations, "checked": samples, "violations": violations}


def _verify_coincidence(cfg: dict, rng: np.random.Generator) -> dict:
    samples = _samples(cfg, 20)
    dims = cfg.get("dims", [2, 3, 4])
    if not isinstance(dims, list) or not dims:
        raise ConfigError("config key 'dims' must be a non-empty list")
    dims = [_number(d, "dims", at_least=1, at_most=DIMENSION_CAP) for d in dims]
    bases = _number(cfg.get("bases", 50), "bases", at_least=1, at_most=BASES_CAP)
    seed = _number(cfg.get("seed", 0), "seed", at_most=PHILOX_KEY_BOUND - samples)
    violations = []
    for i in range(samples):
        dim = dims[i % len(dims)]
        rho = random_density(rng, dim)
        problem = _shannon_embedding_problem(_spectral_rows(RAND_UNIFORM, rho), complete=True)
        y = ResourceRef("qrand_quniform", rho)
        reference = spectral_entropy(rho)
        lo, hi = (side.value for side in extension(problem, y))
        sampled = measurement_entropy_search(rho, bases, seed + i)
        if abs(lo - reference) > COINCIDENCE_TOL or abs(hi - reference) > COINCIDENCE_TOL:
            violations.append({"instance": i, "minimal": lo, "maximal": hi,
                               "reference": reference})
        elif sampled < reference - VALUE_SLACK:
            violations.append({"instance": i, "reason": "sampled search beat spectrum",
                               "sampled": sampled, "reference": reference})
    return {"passed": not violations, "checked": samples, "violations": violations}


_VERIFIERS = {
    "reduction": _verify_reduction,
    "monotonicity": _verify_monotonicity,
    "optimality": _verify_optimality,
    "hlp_agreement": _verify_hlp,
    "data_processing": _verify_data_processing,
    "coincidence": _verify_coincidence,
}


def cmd_verify(cfg: dict) -> tuple[int, dict]:
    prop = _require(cfg, "property")
    if not isinstance(prop, str) or prop not in _VERIFIERS:
        raise ConfigError(f"unknown property {prop!r}; known: {', '.join(_VERIFIERS)}")
    rng = np.random.default_rng(_number(cfg.get("seed", 0), "seed"))
    result = _VERIFIERS[prop](cfg, rng)
    doc = {
        "command": "verify",
        "property": prop,
        "passed": result["passed"],
        "checked": result["checked"],
        "violations": result["violations"],
    }
    extras = {
        k: v for k, v in result.items() if k not in ("passed", "checked", "violations")
    }
    if extras:
        doc["details"] = extras
    return (EXIT_OK if doc["passed"] else EXIT_VIOLATION), doc


def cmd_lorenz(cfg: dict) -> tuple[int, dict]:
    raw = _require(cfg, "distributions")
    if not isinstance(raw, list) or not 1 <= len(raw) <= 2:
        raise ConfigError("lorenz takes one or two distributions")
    out = cfg.get("out")
    if not out or not isinstance(out, str):
        raise ConfigError("lorenz needs an output path")
    dists = [parse_payload("dist", d) for d in raw]
    csvs = [lorenz_csv(lorenz_curve(d)) for d in dists]
    if len(csvs) == 1:
        content = csvs[0]
        doc = {"command": "lorenz", "out": out, "curves": 1}
    else:
        dominated = rand_uniform_oracle(dists[0], dists[1]).reachable
        blocks = [
            "# curve: p\n" + csvs[0],
            "# curve: q\n" + csvs[1],
            f"# q_majorized_by_p: {json.dumps(dominated)}\n",
        ]
        content = "".join(blocks)
        doc = {"command": "lorenz", "out": out, "curves": 2,
               "q_majorized_by_p": dominated}
    with open(out, "w") as fh:
        fh.write(content)
    return EXIT_OK, doc


_COMMANDS = {
    "reach": cmd_reach,
    "extend": cmd_extend,
    "verify": cmd_verify,
    "lorenz": cmd_lorenz,
}


def run(cfg: dict) -> tuple[int, dict]:
    command = _text(cfg, "command")
    if command not in _COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; known: {', '.join(sorted(_COMMANDS))}"
        )
    return _COMMANDS[command](cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanext",
        description="Reachability, monotone extensions, and property checks "
        "for resource theories, driven by a JSON config.",
    )
    parser.add_argument("--config", required=True,
                        help="path to the JSON config, or - for stdin")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="override the config output path")
    return parser


# Built once per process; ``main`` only reads it.  Help and usage text are
# still laid out when printed, at the terminal width of that moment.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        if args.config == "-":
            cfg = _load_config(sys.stdin)
        else:
            with open(args.config) as fh:
                cfg = _load_config(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out"] = args.out
        _number(cfg.get("seed", 0), "seed", at_least=0)
        code, doc = run(cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        _stdout_to_devnull()
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    return code


def _load_config(fh) -> object:
    """The JSON document in ``fh``; one nested too deeply for the parser's
    recursion is a ConfigError, as is a NaN or an infinity."""
    try:
        return json.load(fh, parse_constant=_refuse_constant)
    except RecursionError:
        raise ConfigError("config is nested too deeply to parse") from None


def _refuse_constant(name: str):
    """``json.load`` calls this for NaN, Infinity and -Infinity, which are
    not JSON and which no config value may take."""
    raise ConfigError(f"config holds {name}, which is not a JSON number")


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    interpreter exit cannot raise BrokenPipeError again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


if __name__ == "__main__":
    sys.exit(main())
