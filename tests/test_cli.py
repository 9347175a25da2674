import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import grid_dists
from kanext import cli, lp, pcat, prob, theories
from kanext.kan import ExtensionProblem, FunctorMap
from kanext.pcat import (
    COVARIANT,
    Decision,
    Dichotomy,
    MonotoneSpec,
    ReachabilityOracle,
    ResourceRef,
)
from kanext.prob import Dist, StochMatrix, shannon_entropy
from kanext.theories import RAND_UNIFORM, TheoryRegistry, default_registry
from maps import complex_matrix_to_json, majorizes


def output_schema():
    text = resources.files("kanext").joinpath("schemas/cli_output.schema.json").read_text()
    return json.loads(text)


SCHEMA = output_schema()


def run_main(tmp_path, cfg, argv_extra=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["--config", str(path), *argv_extra])
    return code, buf.getvalue()


def run_and_validate(tmp_path, cfg, argv_extra=()):
    code, out = run_main(tmp_path, cfg, argv_extra)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, out


def density_json(diagonal):
    return complex_matrix_to_json(np.diag(diagonal).astype(complex))


def bell_json():
    amp = 1 / np.sqrt(2)
    return {"state": [[amp, 0], [0, 0], [0, 0], [amp, 0]], "dims": [2, 2]}


def product_json():
    return {"state": [[1, 0], [0, 0], [0, 0], [0, 0]], "dims": [2, 2]}


class TestReach:
    def test_toward_uniform(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "reach",
            "theory": "rand_uniform",
            "source": [0.7, 0.3],
            "target": [0.5, 0.5],
        })
        assert code == 0
        assert doc["reachable"] is True
        assert doc["exact"] is True

    def test_away_from_uniform(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "reach",
            "theory": "rand_uniform",
            "source": [0.5, 0.5],
            "target": [0.7, 0.3],
        })
        assert code == 0  # unreachable is still a successful run
        assert doc["reachable"] is False

    def test_bell_to_product(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "reach",
            "theory": "purebip_locc",
            "source": bell_json(),
            "target": product_json(),
        })
        assert code == 0
        assert doc["reachable"] is True

    def test_detmn_witness_serialized(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "reach",
            "theory": "rand_detmn",
            "source": [0.5, 0.5],
            "target": [1.0],
        })
        assert code == 0
        assert doc["witness"] == [[1.0], [1.0]]

    JOINT_WITNESS = [[1.0, 0.0], [0.49999999999999994, 0.5000000000000001], [0.0, 1.0]]

    @pytest.mark.parametrize("theory, exact, witness", [
        ("rand_uniform", True, [[0.8333333333333334, 0.16666666666666663],
                                [0.0, 1.0],
                                [0.6666666666666666, 0.33333333333333337]]),
        ("cdistinguish", True, JOINT_WITNESS),
        ("distinguish_restricted", True, JOINT_WITNESS),
        ("qrand_quniform", False, [[1.0, 0.0, 0.0],
                                   [0.3333333333333333, 0.6666666666666667, 0.0],
                                   [0.0, 0.33333333333333254, 0.6666666666666674],
                                   [0.0, 0.333333333333334, 0.6666666666666661]]),
    ], ids=["rand_uniform", "cdistinguish", "distinguish_restricted", "qrand_quniform"])
    def test_positives_print_the_lp_witness(self, tmp_path, theory, exact, witness):
        """The simplex's witnesses, pinned to their bytes, so that a change
        of witness shows as an edit here."""
        p, q = [0.2, 0.3, 0.5], [0.5, 0.3, 0.2]
        m = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        p2, q2 = list(np.array(p) @ m), list(np.array(q) @ m)
        if theory == "rand_uniform":
            source, target = p, [0.5, 0.5]
        elif theory == "qrand_quniform":  # spectra of unequal lengths
            source, target = density_json([0.1, 0.2, 0.3, 0.4]), density_json([0.5, 0.3, 0.2])
        else:
            source, target = [p, q], [p2, q2]
        if theory == "distinguish_restricted":
            # p and p2 increase strictly, so the joint eigenbases keep the
            # standard outcome order and the classical LP applies as is
            source = [density_json(d) for d in source]
            target = [density_json(d) for d in target]
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "reach", "theory": theory, "source": source, "target": target,
        })
        assert (code, doc["reachable"], doc["exact"]) == (0, True, exact)
        assert doc["witness"] == witness

    @pytest.mark.parametrize(
        "source, target, reachable",
        [([0.7, 0.3], [1.0], True), ([1.0], [0.7, 0.3], False)],
        ids=["positive", "negative"],
    )
    def test_unital_channels_across_dimensions_are_inexact(
        self, tmp_path, source, target, reachable
    ):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "reach", "theory": "qrand_quniform",
            "source": density_json(source), "target": density_json(target),
        })
        assert (code, doc["reachable"], doc["exact"]) == (0, reachable, False)


class TestExtend:
    def test_spectral_candidates_coincide(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "extend",
            "theory": "qrand_quniform",
            "functor": "classical_to_quantum",
            "monotone": "shannon",
            "variance": "covariant",
            "target": density_json([0.5, 0.5]),
            "candidates": {"kind": "spectral"},
        })
        assert code == 0
        assert doc["minimal"]["value"] == pytest.approx(1.0)
        assert doc["maximal"]["value"] == pytest.approx(1.0)
        assert doc["minimal"]["exact"] is True

    def test_empty_candidates_contravariant(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "extend",
            "theory": "rand_uniform",
            "functor": "identity",
            "monotone": "shannon",
            "variance": "contravariant",
            "target": [0.5, 0.5],
            "candidates": {"kind": "explicit", "objects": []},
        })
        assert code == 0
        assert doc["minimal"]["value"] == 0
        assert doc["maximal"]["value"] == "inf"

    def test_schmidt_at_bell_target(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "extend",
            "theory": "purebip_locc",
            "functor": "identity",
            "monotone": "schmidt",
            "variance": "contravariant",
            "target": bell_json(),
            "candidates": {"kind": "explicit", "objects": [product_json(), bell_json()]},
        })
        assert code == 0
        assert doc["minimal"]["value"] == 2.0
        assert doc["maximal"]["value"] == 2.0

    def test_grid_candidates(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "extend",
            "theory": "qrand_quniform",
            "functor": "classical_to_quantum",
            "monotone": "shannon",
            "variance": "covariant",
            "target": density_json([0.9, 0.1]),
            "candidates": {"kind": "grid", "step": 0.05, "length": 2},
        })
        assert code == 0
        assert doc["candidates"] == 21
        assert doc["maximal"]["value"] == pytest.approx(
            shannon_entropy(Dist([0.9, 0.1])), abs=1e-9
        )

    def test_grid_step_range_enforced(self, tmp_path):
        code, out = run_main(tmp_path, {
            "command": "extend",
            "theory": "rand_uniform",
            "functor": "identity",
            "monotone": "shannon",
            "variance": "covariant",
            "target": [0.5, 0.5],
            "candidates": {"kind": "grid", "step": 0.5, "length": 2},
        })
        assert code == 2

    def test_spectral_candidates_need_classical_source(self, tmp_path):
        code, _ = run_main(tmp_path, {
            "command": "extend",
            "theory": "qrand_quniform",
            "functor": "identity",
            "monotone": "spectral_entropy",
            "variance": "covariant",
            "target": density_json([0.5, 0.5]),
            "candidates": {"kind": "spectral"},
        })
        assert code == 2

    def test_monotone_kind_mismatch(self, tmp_path):
        code, _ = run_main(tmp_path, {
            "command": "extend",
            "theory": "rand_uniform",
            "functor": "identity",
            "monotone": "schmidt",
            "variance": "contravariant",
            "target": [0.5, 0.5],
            "candidates": {"kind": "explicit", "objects": [[0.5, 0.5]]},
        })
        assert code == 2

    def test_identity_functor_on_quantum_theory(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "extend",
            "theory": "qrand_quniform",
            "functor": "identity",
            "monotone": "spectral_entropy",
            "variance": "covariant",
            "target": density_json([0.75, 0.25]),
            "candidates": {
                "kind": "explicit",
                "objects": [density_json([0.75, 0.25]), density_json([0.5, 0.5])],
            },
        })
        assert code == 0
        h = shannon_entropy(Dist([0.75, 0.25]))
        assert doc["minimal"]["value"] == pytest.approx(h)
        assert doc["maximal"]["value"] == pytest.approx(h)

    def test_unital_channels_across_dimensions_run_keyed(self, tmp_path, monkeypatch):
        # length-3 candidates into a d = 4 target: the spectrum keys decide
        # every candidate, no pair reaches the oracle, and both sides are
        # inexact, as the per-pair decisions across dimensions are
        decided = []
        oracle = theories.qrand_quniform_oracle
        monkeypatch.setattr(theories, "qrand_quniform_oracle",
                            lambda a, b: decided.append(1) or oracle(a, b))
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "extend", "theory": "qrand_quniform",
            "functor": "classical_to_quantum", "monotone": "shannon",
            "variance": "covariant", "target": density_json([0.4, 0.3, 0.2, 0.1]),
            "candidates": {"kind": "explicit", "objects": [
                [0.5, 0.3, 0.2], [1.0, 0.0, 0.0], [0.34, 0.33, 0.33], [0.6, 0.4, 0.0],
                [0.45, 0.35, 0.2],
            ]},
        })
        assert (code, decided) == (0, [])
        assert doc["minimal"] == {"value": 1.4854752972273344, "examined": 5,
                                  "exact": False, "witness": "rand_uniform:[0.5, 0.3, 0.2]"}
        assert doc["maximal"] == {"value": 0.9709505944546686, "examined": 5,
                                  "exact": False, "witness": "rand_uniform:[0.6, 0.4, 0]"}


class TestVerify:
    @pytest.mark.parametrize("prop,extra", [
        ("reduction", {"samples": 10}),
        ("monotonicity", {"samples": 10, "length": 2, "step": 0.1}),
        ("optimality", {"samples": 10}),
        ("hlp_agreement", {"length": 2, "step": 0.1}),
        ("data_processing", {"samples": 20}),
        ("coincidence", {"samples": 4}),
    ])
    def test_properties_pass(self, tmp_path, prop, extra):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "verify",
            "property": prop,
            "seed": 7,
            **extra,
        })
        assert code == 0
        assert doc["passed"] is True
        assert doc["violations"] == []

    def test_quantum_monotonicity(self, tmp_path):
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "verify",
            "property": "monotonicity",
            "theory": "qrand_quniform",
            "samples": 5,
            "length": 2,
            "step": 0.1,
            "seed": 3,
        })
        assert code == 0
        assert doc["passed"] is True

    def test_violation_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            cli._VERIFIERS,
            "optimality",
            lambda cfg, rng: {"passed": False, "checked": 1, "violations": ["boom"]},
        )
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "verify",
            "property": "optimality",
        })
        assert code == 1
        assert doc["passed"] is False

    def test_unknown_property(self, tmp_path):
        code, _ = run_main(tmp_path, {"command": "verify", "property": "nope"})
        assert code == 2

    def test_reduction_violations_document(self, tmp_path, monkeypatch):
        # Images are built at the uniform state while the key map still
        # reads each sample, so no candidate is reachable from a sample's
        # image: its minimal extension is the empty inf.
        real = cli.make_functor("classical_to_quantum")

        def uniform_image(ref):
            return real.map_object(ResourceRef(RAND_UNIFORM, Dist.uniform(len(ref.payload))))

        monkeypatch.setattr(cli, "make_functor", lambda name, theory_id=None:
                            dataclasses.replace(real, map_object=uniform_image))
        monkeypatch.setattr(cli, "make_monotone", lambda name, variance:
                            MonotoneSpec(name, lambda ref: 1.0, variance))
        code, out = run_main(tmp_path, {"command": "verify", "property": "reduction",
                                        "samples": 2, "seed": 5})
        rng = np.random.default_rng(5)
        sources = [ResourceRef(RAND_UNIFORM, Dist(rng.dirichlet(np.ones(3)))).describe()
                   for _ in range(2)]
        assert code == 1
        assert out == printed({
            "command": "verify", "property": "reduction", "passed": False, "checked": 2,
            "violations": [{"source": s, "minimal": "inf", "value": 1.0, "maximal": 1.0}
                           for s in sources],
            "details": {"equalities": 0},
        })

    def test_monotonicity_violations_document(self, tmp_path, monkeypatch):
        # The oracle admits every pair while the sweep decides by the real
        # keys, and each sample is carried to a point mass, which the real
        # order does not reach from it.
        registry = default_registry()
        entry = registry.entry(RAND_UNIFORM)
        lax = dataclasses.replace(
            entry, oracle=dataclasses.replace(entry.oracle, decide=lambda a, b: Decision(True))
        )
        monkeypatch.setattr(cli, "default_registry", lambda: TheoryRegistry(
            {**registry.entries, RAND_UNIFORM: lax}))
        monkeypatch.setattr(cli, "random_uniform_matrix", lambda rng, n:
                            StochMatrix(np.eye(n)[[0] * n]))
        code, out = run_main(tmp_path, {"command": "verify", "property": "monotonicity",
                                        "samples": 2, "step": 0.25, "seed": 5})
        rng = np.random.default_rng(5)
        sources = [ResourceRef(RAND_UNIFORM, Dist(rng.dirichlet(np.ones(3)))).describe()
                   for _ in range(2)]
        assert code == 1
        assert out == printed({
            "command": "verify", "property": "monotonicity", "passed": False, "checked": 2,
            "violations": [{"from": s, "to": "rand_uniform:[1, 0, 0]"} for s in sources],
        })

    def test_optimality_violations_document(self, tmp_path, monkeypatch):
        # decide relates no two toy objects, while their keys put the point
        # mass above the uniform pair, and the sweep reads the keys.
        keys = [Dichotomy(np.array([1.0, 0.0]), np.full(2, 0.5)),
                Dichotomy(np.full(2, 0.5), np.full(2, 0.5))]
        objects = [ResourceRef("toy", i) for i in range(2)]
        functor = FunctorMap(
            "toy_embed", "toy_src", "toy", lambda ref: objects[ref.payload],
            lambda refs: (np.array([keys[r.payload].p for r in refs]),
                          np.array([keys[r.payload].q for r in refs])),
        )
        values = (1.0, 0.0)
        problem = ExtensionProblem(
            MonotoneSpec("toy_value", lambda ref: values[ref.payload], COVARIANT),
            functor,
            ReachabilityOracle("toy", lambda a, b: Decision(a == b),
                               key=lambda ref: keys[ref.payload]),
            tuple(ResourceRef("toy_src", i) for i in range(2)),
            candidates_complete=True,
        )
        monkeypatch.setattr(cli, "random_toy_problem", lambda rng, max_objects:
                            (problem, objects, (0.0, 1.0)))
        code, out = run_main(tmp_path, {"command": "verify", "property": "optimality",
                                        "samples": 1})
        assert code == 1
        assert out == printed({
            "command": "verify", "property": "optimality", "passed": False, "checked": 1,
            "violations": [{"problem": 0, "violations": [
                "minimal extension beaten at object 0: G=1.0 vs 0.0",
                "maximal extension beaten at object 1: G=0.0 vs 1.0",
            ]}],
        })

    def test_hlp_violations_document(self, tmp_path, monkeypatch):
        # The LP verdict is flipped on every seventh pair, counted p-major,
        # so exactly those pairs disagree with the Lorenz test.
        real = cli.uniform_map_mask

        def flipped(p, q):
            mask = real(p, q)
            mask.flat[::7] = ~mask.flat[::7]
            return mask

        monkeypatch.setattr(cli, "uniform_map_mask", flipped)
        code, out = run_main(tmp_path, {"command": "verify", "property": "hlp_agreement",
                                        "length": 2, "step": 0.25})
        grid = grid_dists(2, 0.25)
        pairs = [(p, q) for p in grid for q in grid]
        assert code == 1
        assert out == printed({
            "command": "verify", "property": "hlp_agreement", "passed": False, "checked": 25,
            "violations": [{"p": p.to_json(), "q": q.to_json(), "lorenz": majorizes(p, q)}
                           for p, q in pairs[::7]],
        })

    def test_data_processing_violations_document(self, tmp_path, monkeypatch):
        # One batched LP sees every sample, drawn in the order one sample
        # at a time draws them, and finds no joint map for two of them.
        seen = []

        def two_missing(*weights):
            seen.append(weights)
            return np.array([True, False, False, True])

        monkeypatch.setattr(cli, "joint_map_mask", two_missing)
        code, out = run_main(tmp_path, {"command": "verify", "property": "data_processing",
                                        "samples": 4, "length": 3, "out_length": 2,
                                        "seed": 5})
        rng = np.random.default_rng(5)
        draws = []
        for _ in range(4):
            p, q = Dist(rng.dirichlet(np.ones(3))), Dist(rng.dirichlet(np.ones(3)))
            m = prob.random_stochastic(rng, 3, 2).entries
            images = Dist(p.weights @ m), Dist(q.weights @ m)
            draws.append((p.weights, q.weights, *(d.weights for d in images)))
        assert len(seen) == 1
        for got, want in zip(seen[0], zip(*draws)):
            assert np.array_equal(got, np.array(want))
        assert code == 1
        assert out == printed({
            "command": "verify", "property": "data_processing", "passed": False, "checked": 4,
            "violations": [{"instance": i, "reason": "joint map not found"} for i in (1, 2)],
        })


def printed(doc: dict) -> str:
    """The text the CLI prints for a document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestLorenz:
    def test_single_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "lorenz",
            "distributions": [[0.7, 0.3]],
            "out": str(out),
        })
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 4  # header plus three knots

    def test_uniform_diagonal_knots(self, tmp_path):
        out = tmp_path / "u.csv"
        run_and_validate(tmp_path, {
            "command": "lorenz",
            "distributions": [[0.25, 0.25, 0.25, 0.25]],
            "out": str(out),
        })
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        for x, y in rows:
            assert float(x) == pytest.approx(float(y))

    def test_pair_mode_appends_dominance_comment(self, tmp_path):
        out = tmp_path / "pair.csv"
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "lorenz",
            "distributions": [[0.7, 0.3], [0.5, 0.5]],
            "out": str(out),
        })
        assert code == 0
        text = out.read_text()
        assert "# q_majorized_by_p: true" in text
        assert text.count("x,y") == 2
        assert doc["q_majorized_by_p"] is True

    def test_unequal_lengths_agree_with_reach(self, tmp_path):
        p, q = [0.25, 0.25, 0.25, 0.25], [0.5, 0.5]
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "lorenz", "distributions": [p, q], "out": str(tmp_path / "c.csv"),
        })
        assert code == 0
        _, reach, _ = run_and_validate(tmp_path, {
            "command": "reach", "theory": "rand_uniform", "source": p, "target": q,
        })
        assert doc["q_majorized_by_p"] is reach["reachable"] is True
        assert "# q_majorized_by_p: true" in (tmp_path / "c.csv").read_text()


class TestUsageErrors:
    def test_missing_key(self, tmp_path):
        code, _ = run_main(tmp_path, {"command": "reach", "theory": "rand_uniform"})
        assert code == 2

    def test_unknown_command(self, tmp_path):
        code, _ = run_main(tmp_path, {"command": "nope"})
        assert code == 2

    def test_unknown_theory(self, tmp_path):
        code, _ = run_main(tmp_path, {
            "command": "reach", "theory": "nope", "source": [1], "target": [1],
        })
        assert code == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        import io
        from contextlib import redirect_stdout

        with redirect_stdout(io.StringIO()):
            assert cli.main(["--config", str(path)]) == 2

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, monkeypatch, via):
        # the parser recurses once per bracket and runs out of stack
        text = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.json"
        path.write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["--config", str(path) if via == "file" else "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)

    def test_bad_object(self, tmp_path):
        code, _ = run_main(tmp_path, {
            "command": "reach",
            "theory": "rand_uniform",
            "source": [0.7, 0.9],
            "target": [0.5, 0.5],
        })
        assert code == 2


    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "reach", "theory": "cdistinguish",
             "source": [[0.2, 0.3, 0.5], [0.4, 0.6]],
             "target": [[0.2, 0.3, 0.5], [0.4, 0.6]]},
            {"command": "extend", "theory": "rand_uniform", "functor": "identity",
             "monotone": "shannon", "variance": "covariant",
             "target": [0.2, 0.3, 0.5],
             "candidates": {"kind": "grid", "length": 0, "step": 0.25}},
            {"command": "reach", "theory": "rand_detmn",
             "source": [1 / 13] * 13, "target": [0.5, 0.5]},
        ],
        ids=["dimension_mismatch", "grid_length_0", "size_limit"],
    )
    def test_library_errors_exit_2_with_one_line(self, tmp_path, capsys, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 2
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "reach", "theory": "rand_uniform", "source": [True, False],
             "target": [0.5, 0.5]},
            {"command": "reach", "theory": "rand_uniform", "source": ["0.5", 0.5],
             "target": [0.5, 0.5]},
            {"command": "reach", "theory": "rand_uniform", "source": [[0.7], [0.3]],
             "target": [0.5, 0.5]},
            {"command": "reach", "theory": "rand_detmn", "source": 1.0, "target": [1.0]},
            {"command": "reach", "theory": "cdistinguish", "source": [[0.5, 0.5], [1, False]],
             "target": [[1.0], [1.0]]},
            {"command": "lorenz", "distributions": [[0.5, 0.5], [True]], "out": "pair.csv"},
            {"command": "reach", "theory": "qrand_quniform",
             "source": [[[True, 0], [0, 0]], [[0, 0], [False, 0]]],
             "target": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"command": "reach", "theory": "purebip_locc",
             "source": {"dims": [1, 1], "state": [[True, 0]]},
             "target": {"dims": [1, 1], "state": [[1, 0]]}},
        ],
        ids=["bool_weight", "text_weight", "nested_weights", "scalar_weights",
             "bool_pair_weight", "bool_lorenz_weight", "bool_matrix_entry",
             "bool_state_entry"],
    )
    def test_payload_entries_must_be_numbers(self, tmp_path, capsys, monkeypatch, cfg):
        # numpy would read true, false, numeric text, a nested list and a
        # bare number as weights
        monkeypatch.chdir(tmp_path)
        assert run_main(tmp_path, cfg) == (2, "")
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "cfg, kind",
        [
            ({"command": "reach", "theory": "rand_uniform", "source": [10**400, 0.5],
              "target": [1.0]}, "dist"),
            ({"command": "reach", "theory": "cdistinguish", "source": [[10**400], [1.0]],
              "target": [[1.0], [1.0]]}, "dist_pair"),
            ({"command": "reach", "theory": "qrand_quniform", "source": [[[10**400, 0]]],
              "target": [[[1, 0]]]}, "density"),
            ({"command": "reach", "theory": "distinguish_restricted",
              "source": [[[[1, 0]]], [[[0, 10**400]]]],
              "target": [[[[1, 0]]], [[[1, 0]]]]}, "density_pair"),
            ({"command": "reach", "theory": "purebip_locc",
              "source": {"dims": [1, 1], "state": [[10**400, 0]]},
              "target": {"dims": [1, 1], "state": [[1, 0]]}}, "pure"),
            ({"command": "extend", "theory": "rand_uniform", "functor": "identity",
              "monotone": "shannon", "variance": "covariant", "target": [1.0],
              "candidates": {"kind": "explicit", "objects": [[1.0], [10**400]]}}, "dist"),
        ],
        ids=["dist", "dist_pair", "density", "density_pair", "pure", "explicit_candidates"],
    )
    def test_integers_too_large_for_a_float_exit_2(self, tmp_path, capsys, cfg, kind):
        assert run_main(tmp_path, cfg) == (2, "")
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(f"error: bad {kind} object: ")

    def test_deterministic_search_past_its_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = {"command": "reach", "theory": "rand_detmn",
               "source": list(np.arange(1, 13) / 78), "target": [0.501, 0.499]}
        code, doc, _ = run_and_validate(tmp_path, cfg)
        assert (code, doc["reachable"]) == (0, False)
        monkeypatch.setattr(lp, "DETERMINISTIC_NODE_BUDGET", 100)
        assert run_main(tmp_path, cfg) == (2, "")
        assert_one_error_line(capsys.readouterr().err)

    def test_uniform_twelve_to_eleven_is_decided_at_once(self, tmp_path):
        start = time.perf_counter()
        code, doc, _ = run_and_validate(tmp_path, {
            "command": "reach", "theory": "rand_detmn",
            "source": [1 / 12] * 12, "target": [1 / 11] * 11,
        })
        assert time.perf_counter() - start < 1.0
        assert (code, doc["reachable"]) == (0, False)

    @pytest.mark.parametrize(
        "prop,length,step",
        [("hlp_agreement", 0, 0.25), ("monotonicity", 0, 0.25),
         ("hlp_agreement", 9, 0.01)],
        ids=["hlp_length_0", "monotonicity_length_0", "hlp_over_grid_cap"],
    )
    def test_grid_guard_exits_2_before_building(
        self, tmp_path, capsys, monkeypatch, prop, length, step
    ):
        def no_points(*args, **kwargs):
            raise AssertionError("grid points were built before the size check")

        monkeypatch.setattr(prob, "Dist", no_points)
        code, out = run_main(tmp_path, {
            "command": "verify", "property": prop, "length": length, "step": step,
        })
        assert (code, out) == (2, "")
        assert_one_error_line(capsys.readouterr().err)

    def test_hlp_pair_cap_is_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        class Solved(Exception):
            pass

        def no_solve(p, q):
            raise Solved

        monkeypatch.setattr(cli, "uniform_map_mask", no_solve)
        # 10,626 points, about 1.1e8 pairs: refused
        code, out = run_main(tmp_path, {
            "command": "verify", "property": "hlp_agreement", "length": 5, "step": 0.05,
        })
        assert (code, out) == (2, "")
        assert_one_error_line(capsys.readouterr().err)
        # the default grid, 231 points: admitted, so it reaches the first solve
        with pytest.raises(Solved):
            run_main(tmp_path, {"command": "verify", "property": "hlp_agreement"})

    @pytest.mark.parametrize(
        "prop,extra,key,cap",
        [
            ("reduction", {}, "samples", cli.SAMPLES_CAP),
            ("monotonicity", {}, "samples", cli.SAMPLES_CAP),
            ("optimality", {}, "samples", cli.SAMPLES_CAP),
            ("data_processing", {}, "samples", cli.SAMPLES_CAP),
            ("coincidence", {}, "samples", cli.SAMPLES_CAP),
            ("reduction", {}, "length", cli.LENGTH_CAP),
            ("monotonicity", {}, "length", cli.LENGTH_CAP),
            ("monotonicity", {"theory": "qrand_quniform", "step": 0.25}, "length",
             cli.LENGTH_CAP),
            ("data_processing", {}, "length", cli.LENGTH_CAP),
            ("data_processing", {}, "out_length", cli.LENGTH_CAP),
            ("coincidence", {}, "bases", cli.BASES_CAP),
            ("coincidence", {}, "dims", cli.DIMENSION_CAP),
            ("optimality", {}, "max_objects", cli.MAX_OBJECTS_CAP),
            ("coincidence", {}, "seed", cli.PHILOX_KEY_BOUND - 1),
        ],
    )
    def test_verify_sizes_are_capped_before_sampling(
        self, tmp_path, capsys, monkeypatch, prop, extra, key, cap
    ):
        class Sampled(Exception):
            pass

        def no_sampling(*args, **kwargs):
            raise Sampled

        for name in ("Dist", "random_density", "random_toy_problem", "simplex_grid"):
            monkeypatch.setattr(cli, name, no_sampling)

        def run_at(limit):
            # one sample, so only the first dims entry is ever drawn
            value = [2, limit] if key == "dims" else limit
            cfg = {"command": "verify", "property": prop, "samples": 1, **extra, key: value}
            return run_main(tmp_path, cfg)

        assert run_at(cap + 1) == (2, "")
        assert_one_error_line(capsys.readouterr().err)
        # at the cap the config is admitted, so it reaches the first sampler
        with pytest.raises(Sampled):
            run_at(cap)

    @pytest.mark.parametrize("max_objects", [1, -3])
    def test_max_objects_below_two_exits_2_naming_the_key(
        self, tmp_path, capsys, max_objects
    ):
        # each toy theory draws its object count from [2, max_objects]
        cfg = {"command": "verify", "property": "optimality", "samples": 1,
               "max_objects": max_objects}
        assert run_main(tmp_path, cfg) == (2, "")
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "'max_objects' must be at least 2" in err

    def test_optimality_at_the_object_cap_passes(self, tmp_path):
        code, out = run_main(tmp_path, {"command": "verify", "property": "optimality",
                                        "max_objects": cli.MAX_OBJECTS_CAP, "seed": 0})
        assert code == 0
        assert json.loads(out)["checked"] == 50

    def test_coincidence_seed_is_bounded_by_its_last_key(self, tmp_path, capsys):
        # sample i measures with Philox key seed + i, which must stay below 2**128
        def run_at(seed):
            return run_main(tmp_path, {"command": "verify", "property": "coincidence",
                                       "samples": 2, "dims": [2], "bases": 1, "seed": seed})

        code, out = run_at(cli.PHILOX_KEY_BOUND - 2)
        assert (code, json.loads(out)["checked"]) == (0, 2)
        assert run_at(cli.PHILOX_KEY_BOUND - 1) == (2, "")
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"'seed' must be at most {cli.PHILOX_KEY_BOUND - 2}" in err

    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "extend", "theory": "rand_uniform", "functor": "identity",
             "monotone": "shannon", "variance": "covariant", "target": [0.5, 0.5],
             "candidates": {"kind": "grid", "length": None, "step": 0.25}},
            {"command": "extend", "theory": "rand_uniform", "functor": "identity",
             "monotone": "shannon", "variance": "covariant", "target": [0.5, 0.5],
             "candidates": {"kind": "grid", "length": 2, "step": [0.25]}},
            {"command": "verify", "property": "reduction", "samples": {}},
            {"command": "verify", "property": "coincidence", "samples": 1, "dims": None},
            {"command": "verify", "property": "coincidence", "samples": 1, "dims": [[2]]},
            {"command": "verify", "property": "data_processing", "seed": None},
            {"command": "reach", "theory": [], "source": [1.0], "target": [1.0]},
            {"command": "lorenz", "distributions": None, "out": "curve.csv"},
            {"command": "lorenz", "distributions": [[0.5, 0.5]], "out": ["curve.csv"]},
            {"command": "reach", "theory": "rand_uniform", "source": [0.7, None],
             "target": [0.5, 0.5]},
            {"command": "lorenz", "distributions": [[0.7, None]], "out": "curve.csv"},
        ],
        ids=["grid_length_null", "grid_step_list", "samples_object", "dims_null",
             "dims_entry_list", "seed_null", "theory_list", "distributions_null",
             "out_list", "source_null_weight", "lorenz_null_weight"],
    )
    def test_wrongly_typed_values_exit_2(self, tmp_path, capsys, monkeypatch, cfg):
        monkeypatch.chdir(tmp_path)
        code, out = run_main(tmp_path, cfg)
        assert (code, out) == (2, "")
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "cfg,key",
        [
            ({"command": "verify", "property": "reduction", "samples": True}, "samples"),
            ({"command": "verify", "property": "reduction", "samples": 2.9}, "samples"),
            ({"command": "verify", "property": "reduction", "length": "3"}, "length"),
            ({"command": "verify", "property": "monotonicity", "step": "0.25"}, "step"),
            ({"command": "reach", "theory": "purebip_locc", "target": product_json(),
              "source": {**bell_json(), "dims": [True, 4]}}, "dims"),
            ({"command": "reach", "theory": "purebip_locc", "target": product_json(),
              "source": {**bell_json(), "dims": ["2", "2"]}}, "dims"),
            ({"command": "reach", "theory": "purebip_locc", "target": product_json(),
              "source": {"state": [[1, 0]] + [[0, 0]] * 16, "dims": [17, 1]}}, "dims"),
        ],
        ids=["samples_bool", "samples_fraction", "length_text", "step_text", "dims_bool",
             "dims_text", "dims_over_cap"],
    )
    def test_numbers_of_the_wrong_kind_exit_2(self, tmp_path, capsys, cfg, key):
        code, out = run_main(tmp_path, cfg)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert repr(key) in err

    @pytest.mark.parametrize(
        "make",
        [
            lambda w: {"command": "reach", "theory": "rand_uniform", "source": w,
                       "target": [1.0]},
            lambda w: {"command": "reach", "theory": "cdistinguish", "source": [w, w],
                       "target": [[1.0], [1.0]]},
            lambda w: {"command": "lorenz", "distributions": [w, [1.0]], "out": "pair.csv"},
        ],
        ids=["reach", "pair_component", "lorenz"],
    )
    def test_payload_length_is_capped_before_any_decision(
        self, tmp_path, capsys, monkeypatch, make
    ):
        class Decided(Exception):
            pass

        def no_decision(*args, **kwargs):
            raise Decided

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pcat, "relative_majorization_mask", no_decision)
        for name in ("exists_uniform_map", "exists_joint_stochastic_map"):
            monkeypatch.setattr(theories, name, no_decision)

        def run_at(n):
            return run_main(tmp_path, make([1 / n] * n))

        assert run_at(cli.PAYLOAD_LENGTH_CAP + 1) == (2, "")
        assert_one_error_line(capsys.readouterr().err)
        # at the cap the payload is admitted, so it reaches the first decision
        with pytest.raises(Decided):
            run_at(cli.PAYLOAD_LENGTH_CAP)

    @pytest.mark.parametrize("theory", ["rand_uniform", "cdistinguish"])
    def test_lp_witness_is_capped_before_its_tableau(self, tmp_path, capsys, monkeypatch,
                                                     theory):
        class Solved(Exception):
            pass

        def no_solve(*args):
            raise Solved

        monkeypatch.setattr(lp, "_phase1", no_solve)

        def run_at(n, k):
            # (e_1, u_n) reaches (u_k, u_k), and e_1 reaches u_k, so reach
            # asks the LP for a witness
            point, u_n, u_k = [1.0] + [0.0] * (n - 1), [1 / n] * n, [1 / k] * k
            source, target = {"rand_uniform": (point, u_k),
                              "cdistinguish": ([point, u_n], [u_k, u_k])}[theory]
            return run_main(tmp_path, {"command": "reach", "theory": theory,
                                       "source": source, "target": target})

        assert 41 * 25 == lp.LP_VARIABLES_CAP + 1
        assert run_at(41, 25) == (2, "")
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"cap of {lp.LP_VARIABLES_CAP}" in err
        # at the cap the system is built and handed to the simplex
        with pytest.raises(Solved):
            run_at(64, lp.LP_VARIABLES_CAP // 64)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_finite_json_literals_exit_2(self, tmp_path, capsys, monkeypatch, constant,
                                             source):
        # the literal sits under a key no command reads, so only the parser
        # can refuse it
        text = ('{"command": "reach", "theory": "rand_uniform", "source": [0.7, 0.3], '
                f'"target": [0.5, 0.5], "note": {constant}}}')
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            argv = ["--config", "-"]
        else:
            path = tmp_path / "config.json"
            path.write_text(text)
            argv = ["--config", str(path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
        assert constant in captured.err

    @pytest.mark.parametrize("closed", ["write_raises", "pipe_without_reader"])
    def test_closed_stdout_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, closed):
        class WriteRaises:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        if closed == "write_raises":
            stream = WriteRaises()
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            stream = open(write_end, "w")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": "verify", "property": "coincidence",
                                    "samples": 1}))
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["--config", str(path)]) == 2
        assert_one_error_line(capsys.readouterr().err)
        if closed == "pipe_without_reader":
            # the descriptor now leads to the null device, so the flush at
            # interpreter exit cannot raise
            stream.flush()
            stream.close()


USAGE = "usage: kanext [-h] --config CONFIG [--seed SEED] [--out OUT]\n"


class TestFlags:
    """The three flags, as argparse prints them at a fixed terminal width."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out == USAGE + (
            "\n"
            "Reachability, monotone extensions, and property checks for resource theories,\n"
            "driven by a JSON config.\n"
            "\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --config CONFIG  path to the JSON config, or - for stdin\n"
            "  --seed SEED      override the config seed\n"
            "  --out OUT        override the config output path\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "the following arguments are required: --config"),
            (["--config", "run.json", "--seed", "abc"],
             "argument --seed: invalid int value: 'abc'"),
            (["--config", "run.json", "--nope"], "unrecognized arguments: --nope"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{USAGE}kanext: error: {message}\n"

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        def no_parser(*args, **kwargs):
            raise AssertionError("main built a new ArgumentParser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
        cfg = {"command": "reach", "theory": "rand_uniform", "source": [0.7, 0.3],
               "target": [0.5, 0.5]}
        for _ in range(2):
            assert run_main(tmp_path, cfg)[0] == 0


def assert_one_error_line(err: str):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


# Small valid configs for every command; the fuzz test breaks one value.
FUZZ_BASES = [
    {"command": "reach", "theory": "rand_uniform", "source": [0.7, 0.3],
     "target": [0.5, 0.5]},
    {"command": "reach", "theory": "rand_detmn", "source": [0.5, 0.25, 0.25],
     "target": [0.75, 0.25]},
    {"command": "reach", "theory": "cdistinguish", "source": [[0.7, 0.3], [0.2, 0.8]],
     "target": [[0.5, 0.5], [0.5, 0.5]]},
    {"command": "reach", "theory": "qrand_quniform",
     "source": density_json([0.7, 0.3]), "target": density_json([0.5, 0.5])},
    {"command": "reach", "theory": "purebip_locc", "source": bell_json(),
     "target": product_json()},
    {"command": "extend", "theory": "rand_uniform", "functor": "identity",
     "monotone": "shannon", "variance": "covariant", "target": [0.5, 0.3, 0.2],
     "candidates": {"kind": "grid", "length": 3, "step": 0.25}},
    {"command": "extend", "theory": "rand_uniform", "functor": "identity",
     "monotone": "shannon", "variance": "contravariant", "target": [0.6, 0.4],
     "candidates": {"kind": "explicit", "objects": [[0.5, 0.5], [1.0, 0.0]]}},
    {"command": "extend", "theory": "qrand_quniform", "functor": "classical_to_quantum",
     "monotone": "shannon", "variance": "covariant", "target": density_json([0.6, 0.4]),
     "candidates": {"kind": "spectral"}},
    {"command": "verify", "property": "reduction", "samples": 3, "length": 3, "seed": 1},
    {"command": "verify", "property": "monotonicity", "samples": 2, "length": 2,
     "step": 0.25, "seed": 1},
    {"command": "verify", "property": "monotonicity", "theory": "qrand_quniform",
     "samples": 2, "length": 2, "step": 0.25, "seed": 1},
    {"command": "verify", "property": "optimality", "samples": 1, "max_objects": 3,
     "seed": 1},
    {"command": "verify", "property": "hlp_agreement", "length": 2, "step": 0.25},
    {"command": "verify", "property": "data_processing", "samples": 3, "length": 3,
     "out_length": 2, "seed": 1},
    {"command": "verify", "property": "coincidence", "samples": 2, "dims": [2, 3],
     "bases": 3, "seed": 1},
    {"command": "lorenz", "distributions": [[0.7, 0.3]], "out": "curve.csv"},
    {"command": "lorenz", "distributions": [[0.7, 0.3], [0.5, 0.5]], "out": "pair.csv"},
]
# Never a large number, so that no broken config can run long.
FUZZ_VALUES = [None, [], {}, "x", -1, 0, 1.5, True, "3", 2.5]


def value_paths(doc, prefix=()):
    """Paths to every value nested in a config document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, prefix + (key,))


FUZZ_SITES = [(i, path) for i, base in enumerate(FUZZ_BASES) for path in value_paths(base)]


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


class TestConfigFuzz:
    def test_bases_are_valid(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for cfg in FUZZ_BASES:
            code, _, _ = run_and_validate(tmp_path, cfg)
            assert code == 0

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(site=st.sampled_from(FUZZ_SITES), value=st.sampled_from(FUZZ_VALUES))
    def test_one_bad_value_never_escapes(self, tmp_path, monkeypatch, site, value):
        monkeypatch.chdir(tmp_path)
        base, path = site
        config = tmp_path / "config.json"
        config.write_text(json.dumps(replaced(FUZZ_BASES[base], path, value)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["--config", str(config)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert_one_error_line(err.getvalue())
        else:
            jsonschema.validate(json.loads(out.getvalue()), SCHEMA)


def counting_dists(monkeypatch) -> list:
    """Record every ``Dist.__post_init__`` call (every validated Dist)."""
    calls = []
    original = prob.Dist.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(prob.Dist, "__post_init__", counting)
    return calls


def counting_evaluate(monkeypatch) -> list:
    """Record every ``MonotoneSpec.evaluate`` call of the monotones that
    ``cli`` builds."""
    calls = []

    def make_monotone(name, variance):
        spec = theories.make_monotone(name, variance)

        def evaluate(ref):
            calls.append(ref)
            return spec.evaluate(ref)

        return dataclasses.replace(spec, evaluate=evaluate)

    monkeypatch.setattr(cli, "make_monotone", make_monotone)
    return calls


GOOD_CANDIDATES = [[0.25, 0.25, 0.5], [0.1, 0.2, 0.7]]


def explicit_extend(objects, theory="rand_uniform", monotone="shannon", target=(0.2, 0.3, 0.5)):
    return {"command": "extend", "theory": theory, "functor": "identity",
            "monotone": monotone, "variance": "covariant", "target": list(target),
            "candidates": {"kind": "explicit", "objects": objects}}


class TestCandidateMatrices:
    """Explicit lists and grids reach the sweep as one checked weight
    matrix, with the per-object errors and the per-pair fallback kept."""

    @pytest.mark.parametrize(
        "bad, line",
        [
            ([0.6, -0.1, 0.5], "negative weight in [ 0.6 -0.1  0.5]"),
            ([0.5, 0.4, 0.2], "weights sum to 1.1, expected 1"),
            ([True, 0.0, 0.0], "weights must be a list of JSON numbers, got [True, 0.0, 0.0]"),
            (["0.5", 0.25, 0.25],
             "weights must be a list of JSON numbers, got ['0.5', 0.25, 0.25]"),
            ([[0.5], [0.25], [0.25]],
             "weights must be a list of JSON numbers, got [[0.5], [0.25], [0.25]]"),
            ([1 / 65] * 65, "length 65 is over the cap of 64"),
            ([], "distribution needs at least one outcome"),
        ],
        ids=["negative", "bad_sum", "bool", "text", "nested", "over_cap", "empty"],
    )
    def test_first_bad_candidate_names_the_error(self, tmp_path, capsys, bad, line):
        # a later bad candidate does not change the line
        cfg = explicit_extend(GOOD_CANDIDATES + [bad, [0.5, 0.6, -0.1]])
        assert run_main(tmp_path, cfg) == (2, "")
        assert capsys.readouterr().err == f"error: bad dist object: {line}\n"

    def test_first_bad_pair_names_the_error(self, tmp_path, capsys):
        cfg = explicit_extend(
            [[[0.5, 0.5], [0.1, 0.9]], [[0.5, 0.5], [0.1, 0.95]], [[0.5, 0.5]]],
            theory="cdistinguish", monotone="kl", target=([0.2, 0.8], [0.5, 0.5]),
        )
        assert run_main(tmp_path, cfg) == (2, "")
        assert capsys.readouterr().err == (
            "error: bad dist_pair object: weights sum to 1.05, expected 1\n"
        )

    def test_mixed_lengths_take_the_per_pair_fallback(self, tmp_path):
        objects = [[0.5, 0.5], [0.1, 0.2, 0.7], [0.2, 0.3, 0.5], [0.05, 0.15, 0.3, 0.5]]
        candidates, _ = cli.build_candidates(
            explicit_extend(objects), RAND_UNIFORM, "dist", None
        )
        assert isinstance(candidates, tuple)
        code, doc, _ = run_and_validate(tmp_path, explicit_extend(objects))
        assert code == 0
        assert doc["minimal"] == {"value": 1.0, "examined": 4, "exact": False,
                                  "witness": "rand_uniform:[0.5, 0.5]"}
        assert doc["maximal"] == {"value": 1.6477309221191607, "examined": 4, "exact": False,
                                  "witness": "rand_uniform:[0.05, 0.15, 0.3, 0.5]"}

    def test_rows_keep_the_weights_of_one_object_at_a_time(self):
        objects = np.random.default_rng(3).dirichlet(np.ones(4), size=40).tolist()
        candidates, _ = cli.build_candidates(
            explicit_extend(objects), RAND_UNIFORM, "dist", None
        )
        (weights,) = candidates.weights
        assert all(
            weights[i].tobytes() == Dist(obj).weights.tobytes() for i, obj in enumerate(objects)
        )
        pairs = [[objects[i], objects[i + 1]] for i in range(0, 40, 2)]
        candidates, _ = cli.build_candidates(
            explicit_extend(pairs), "cdistinguish", "dist_pair", None
        )
        for i, (p, q) in enumerate(pairs):
            x = candidates[i].payload
            assert x[0].weights.tobytes() == Dist(p).weights.tobytes()
            assert x[1].weights.tobytes() == Dist(q).weights.tobytes()

    def test_zero_entropy_prints_positive_zero(self, tmp_path):
        cfg = explicit_extend([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], target=[0.0, 1.0, 0.0])
        code, doc, out = run_and_validate(tmp_path, cfg)
        assert code == 0
        assert doc["minimal"]["value"] == doc["maximal"]["value"] == 0.0
        assert '"value": 0.0,' in out and "-0.0" not in out

    def test_grid_extend_validates_no_candidate(self, monkeypatch):
        dists = counting_dists(monkeypatch)
        evaluated = counting_evaluate(monkeypatch)
        code, doc = cli.run({
            "command": "extend", "theory": "qrand_quniform",
            "functor": "classical_to_quantum", "monotone": "shannon",
            "variance": "covariant", "target": density_json([0.4, 0.3, 0.2, 0.1]),
            "candidates": {"kind": "grid", "length": 4, "step": 0.05},
        })
        assert code == 0 and doc["candidates"] == 1771
        # the target's spectrum, u_4 and the two witnesses at most
        assert len(dists) <= 4
        assert evaluated == []

    @pytest.mark.parametrize("theory", ["qrand_quniform", "rand_uniform"])
    def test_explicit_extend_validates_no_candidate_object(self, monkeypatch, theory):
        objects = np.random.default_rng(5).dirichlet(np.ones(4), size=160).tolist()
        if theory == "qrand_quniform":
            functor, target = "classical_to_quantum", density_json([0.4, 0.3, 0.2, 0.1])
        else:
            functor, target = "identity", [0.4, 0.3, 0.2, 0.1]
        dists = counting_dists(monkeypatch)
        evaluated = counting_evaluate(monkeypatch)
        code, doc = cli.run({
            "command": "extend", "theory": theory, "functor": functor, "monotone": "shannon",
            "variance": "covariant", "target": target,
            "candidates": {"kind": "explicit", "objects": objects},
        })
        assert code == 0 and doc["candidates"] == 160
        assert len(dists) <= 4
        assert evaluated == []

    @pytest.mark.parametrize(
        "theory, functor, target",
        [
            ("cdistinguish", "identity", [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]),
            ("distinguish_restricted", "classical_to_quantum_pairs",
             [density_json([0.5, 0.3, 0.2]), density_json([0.2, 0.3, 0.5])]),
        ],
    )
    def test_kl_sweep_evaluates_no_object(self, monkeypatch, theory, functor, target):
        rng = np.random.default_rng(6)
        objects = [rng.dirichlet(np.ones(3), size=2).tolist() for _ in range(60)]
        dists = counting_dists(monkeypatch)
        evaluated = counting_evaluate(monkeypatch)
        code, doc = cli.run({
            "command": "extend", "theory": theory, "functor": functor, "monotone": "kl",
            "variance": "covariant", "target": target,
            "candidates": {"kind": "explicit", "objects": objects},
        })
        assert code == 0 and doc["candidates"] == 60
        assert doc["maximal"]["examined"] == 60
        # the target pair, or its joint-eigenbasis outcomes, and two
        # witnesses of two distributions each
        assert len(dists) <= 6
        assert evaluated == []


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = {
            "command": "verify",
            "property": "coincidence",
            "samples": 3,
            "seed": 11,
        }
        _, first = run_main(tmp_path, cfg)
        _, second = run_main(tmp_path, cfg)
        assert first == second

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {
            "command": "verify",
            "property": "data_processing",
            "samples": 5,
            "seed": 1,
        }
        code, doc, _ = run_and_validate(tmp_path, cfg, argv_extra=["--seed", "99"])
        assert code == 0

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = {
            "command": "lorenz",
            "distributions": [[0.7, 0.3]],
            "out": str(tmp_path / "ignored.csv"),
        }
        target = tmp_path / "flag.csv"
        code, doc, _ = run_and_validate(tmp_path, cfg, argv_extra=["--out", str(target)])
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "ignored.csv").exists()


class TestEntryPoint:
    def test_module_invocation_with_stdin(self, tmp_path):
        cfg = json.dumps({
            "command": "reach",
            "theory": "rand_uniform",
            "source": [0.7, 0.3],
            "target": [0.5, 0.5],
        })
        proc = subprocess.run(
            [sys.executable, "-m", "kanext.cli", "--config", "-"],
            input=cfg,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, SCHEMA)
        assert doc["reachable"] is True
