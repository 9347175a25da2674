"""Outside-in tracing of kanext's layers.

The tracer wraps, from outside the package, every public function defined
in the layer modules, in every namespace that bound it by name, plus the
``Dist`` and ``DensityMatrix`` constructors and the functor and monotone
callables handed out by ``make_functor`` and ``make_monotone``.  Oracles
are patched in ``theories`` before ``default_registry()`` runs, which binds
them at call time.  Each call records a span (name, start, end, parent span,
op id) in memory; ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "kan", "theories", "pcat", "lp", "quantum", "prob", "bf_oracle")
# Called millions of times by the optimality enumeration; counted, not timed.
COUNT_ONLY = {"pcat.ext_leq"}
ORACLE_SUFFIX = "_oracle"

# Span name -> the metric group it reports under.
GROUPS = {
    "kan.minimal_extension": "kan.extension",
    "kan.maximal_extension": "kan.extension",
    "kan.verify_reduction": "kan.verify",
    "kan.verify_monotonicity": "kan.verify",
    "kan.verify_optimality_bruteforce": "kan.verify",
    "lp.solve_feasibility": "lp.solve",
    "lp.exists_uniform_map": "lp.uniform",
    "lp.exists_joint_stochastic_map": "lp.joint",
    "lp.exists_deterministic_map": "lp.deterministic",
    "quantum.eig_hermitian": "quantum.eig",
    "quantum.DensityMatrix.__post_init__": "quantum.density_new",
    "quantum.schmidt_coefficients": "quantum.schmidt",
    "quantum.measurement_entropy_search": "quantum.measurement_search",
    "prob.Dist.__post_init__": "prob.dist_new",
    "prob.shannon_entropy": "prob.entropy",
    "prob.kl_divergence": "prob.entropy",
    "bf_oracle.random_toy_problem": "bf_oracle.toy_problem",
}

WRAPPED_MARK = "__perfbench_original__"


def layer_modules() -> dict:
    return {name: importlib.import_module(f"kanext.{name}") for name in LAYERS}


def public_functions(modules) -> dict:
    """Every function defined in a layer module and bound under a public
    name in some layer module, mapped to its span name."""
    defined_in = {m.__name__: short for short, m in modules.items()}
    found = {}
    for module in modules.values():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ in defined_in:
                found[obj] = f"{defined_in[obj.__module__]}.{obj.__name__}"
    return found


def group_of(name: str) -> str:
    if name in GROUPS:
        return GROUPS[name]
    if name.startswith("theories.") and name.endswith(ORACLE_SUFFIX):
        return "theories.decide." + name[len("theories."):-len(ORACLE_SUFFIX)]
    return name


class Tracer:
    """Spans are tuples (name, start, end, parent index, op id, outermost in
    its group, info); ``op_id`` is set by the caller before each op."""

    def __init__(self):
        import kanext

        self.modules = layer_modules()
        self.namespaces = [kanext, *self.modules.values()]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches = self._plan()

    # -------------------------------------------------------------- wrappers

    def _span(self, fn, name: str, info=None, post=None):
        spans, stack, active = self.spans, self._stack, self._active
        group = group_of(name)
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer = active[group] == 0
            active[group] += 1
            extra = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, result)
            finally:
                t1 = perf_counter()
                active[group] -= 1
                stack.pop()
                spans[index] = (name, t0, t1, parent, tracer.op_id, outer, extra)
            return post(result) if post is not None else result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _decision_info(self, args, decision):
        return (decision.reachable, decision.exact, self._active["kan.extension"] > 0)

    @staticmethod
    def _solve_info(args, result):
        m, n = args[0].a_eq.shape
        return (result.feasible, (m + 1) * (n + m + 1) * 8)

    def _eig_info(self, args, result):
        return (self.op_id, hash(args[0].entries.tobytes()))

    def _functor_post(self, functor):
        return dataclasses.replace(
            functor, map_object=self._span(functor.map_object, "theories.map_object"))

    def _monotone_post(self, monotone):
        return dataclasses.replace(
            monotone, evaluate=self._span(monotone.evaluate, "theories.monotone"))

    def _make_wrapper(self, fn, name: str):
        if name in COUNT_ONLY:
            return self._counter(fn, name)
        if name.startswith("theories.") and name.endswith(ORACLE_SUFFIX):
            return self._span(fn, name, info=self._decision_info)
        if name == "lp.solve_feasibility":
            return self._span(fn, name, info=self._solve_info)
        if name == "quantum.eig_hermitian":
            return self._span(fn, name, info=self._eig_info)
        if name == "theories.make_functor":
            return self._span(fn, name, post=self._functor_post)
        if name == "theories.make_monotone":
            return self._span(fn, name, post=self._monotone_post)
        return self._span(fn, name)

    # -------------------------------------------------------------- install

    def _plan(self) -> list:
        """(owner, key, original, wrapper, is a dict entry) for every binding."""
        wrappers = {fn: self._make_wrapper(fn, name)
                    for fn, name in public_functions(self.modules).items()}
        patches = []
        for ns in self.namespaces:
            for attr, obj in vars(ns).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((ns, attr, obj, wrappers[obj], False))
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    patches += [(obj, key, value, wrappers[value], True)
                                for key, value in obj.items()
                                if inspect.isfunction(value) and value in wrappers]
        for cls, name in ((self.modules["prob"].Dist, "prob.Dist.__post_init__"),
                          (self.modules["quantum"].DensityMatrix,
                           "quantum.DensityMatrix.__post_init__")):
            original = vars(cls)["__post_init__"]
            patches.append((cls, "__post_init__", original, self._span(original, name), False))
        return patches

    def _apply(self, wrapped: bool) -> None:
        for owner, key, original, wrapper, is_dict in self._patches:
            value = wrapper if wrapped else original
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)

    def install(self) -> None:
        self._apply(True)

    def uninstall(self) -> None:
        self._apply(False)

    # -------------------------------------------------------------- analysis

    def write(self, path) -> None:
        """Spans as tab-separated lines: op, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for name, t0, t1, parent, op, _, _ in self.spans:
                fh.write(f"{op}\t{name}\t{t0!r}\t{t1!r}\t{parent}\n")

    def layer_metrics(self, ops: int) -> dict:
        """Per-op call counts and times, ratios and computed sizes.

        ``.s`` is inclusive time of the outermost spans of a group, and
        ``.self_s`` is span time minus the time of its child spans.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, total, self_time = Counter(), Counter(), Counter()
        decisions = reachable = inexact = in_ext = in_ext_reachable = 0
        solves = feasible = tableau = 0
        eig_inputs = set()
        for i, (name, t0, t1, _, _, outer, info) in enumerate(self.spans):
            group = group_of(name)
            calls[group] += 1
            if outer:
                total[group] += t1 - t0
            self_time[group] += t1 - t0 - child[i]
            if info is None:
                continue
            if group.startswith("theories.decide."):
                decisions += 1
                reachable += info[0]
                inexact += not info[1]
                if info[2]:
                    in_ext += 1
                    in_ext_reachable += info[0]
            elif group == "lp.solve":
                solves += 1
                feasible += info[0]
                tableau += info[1]
            elif group == "quantum.eig":
                eig_inputs.add(info)
        calls.update(self.counts)
        per_op = 1.0 / max(ops, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        aggregates = {"calls": calls, "s": total, "self_s": self_time}
        metrics = {key: (aggregates[agg][key.rsplit(".", 1)[0]] * per_op, unit)
                   for key, unit, agg in _METRIC_TABLE}
        extras = {
            "theories.decide.reachable_ratio": ratio(reachable, decisions),
            "theories.decide.inexact": inexact * per_op,
            "kan.admissible_ratio": ratio(in_ext_reachable, in_ext),
            "lp.solve.feasible_ratio": ratio(feasible, solves),
            "lp.solve.tableau_bytes": ratio(tableau, solves),
            "quantum.eig.distinct_ratio": ratio(len(eig_inputs), calls["quantum.eig"]),
        }
        metrics.update({key: (extras[key], unit) for key, unit in EXTRA_METRICS})
        return metrics


THEORY_IDS = ("rand_detmn", "rand_uniform", "qrand_quniform", "cdistinguish",
              "distinguish_restricted", "purebip_locc")

# (metric name, unit, which aggregate); ratios are added in layer_metrics.
_METRIC_TABLE = (
    [("cli.main.calls", "count/op", "calls"),
     ("cli.main.self_s", "s/op", "self_s"),
     ("cli.parse_payload.self_s", "s/op", "self_s"),
     ("cli.build_candidates.s", "s/op", "s"),
     ("theories.default_registry.calls", "count/op", "calls"),
     ("theories.default_registry.s", "s/op", "s")]
    + [(f"theories.decide.{t}.{agg}", unit, agg)
       for t in THEORY_IDS for agg, unit in (("calls", "count/op"), ("s", "s/op"))]
    + [("theories.map_object.s", "s/op", "s"),
       ("theories.monotone.s", "s/op", "s"),
       ("kan.extension.calls", "count/op", "calls"),
       ("kan.extension.self_s", "s/op", "self_s"),
       ("kan.verify.s", "s/op", "s"),
       ("pcat.ext_leq.calls", "count/op", "calls"),
       ("lp.solve.calls", "count/op", "calls"),
       ("lp.solve.s", "s/op", "s"),
       ("lp.uniform.calls", "count/op", "calls"),
       ("lp.uniform.s", "s/op", "s"),
       ("lp.joint.calls", "count/op", "calls"),
       ("lp.joint.s", "s/op", "s"),
       ("lp.deterministic.calls", "count/op", "calls"),
       ("lp.deterministic.s", "s/op", "s"),
       ("quantum.eig.calls", "count/op", "calls"),
       ("quantum.eig.s", "s/op", "s"),
       ("quantum.density_new.calls", "count/op", "calls"),
       ("quantum.density_new.s", "s/op", "s"),
       ("quantum.schmidt.s", "s/op", "s"),
       ("quantum.measurement_search.s", "s/op", "s"),
       ("prob.dist_new.calls", "count/op", "calls"),
       ("prob.dist_new.s", "s/op", "s"),
       ("prob.majorizes.calls", "count/op", "calls"),
       ("prob.majorizes.s", "s/op", "s"),
       ("prob.simplex_grid.s", "s/op", "s"),
       ("prob.lorenz_curve.s", "s/op", "s"),
       ("prob.entropy.s", "s/op", "s"),
       ("bf_oracle.toy_problem.calls", "count/op", "calls"),
       ("bf_oracle.toy_problem.s", "s/op", "s")]
)

# Ratios, counts and computed sizes that layer_metrics adds to the table;
# eig inputs are distinct per op, since each CLI command is its own process.
EXTRA_METRICS = (
    ("theories.decide.reachable_ratio", "ratio"),
    ("theories.decide.inexact", "count/op"),
    ("kan.admissible_ratio", "ratio"),
    ("lp.solve.feasible_ratio", "ratio"),
    ("lp.solve.tableau_bytes", "B/solve-computed"),
    ("quantum.eig.distinct_ratio", "ratio"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, the tracing overhead included."""
    return ([(k, u) for k, u, _ in _METRIC_TABLE] + list(EXTRA_METRICS)
            + [("trace.overhead_ratio", "ratio")])
