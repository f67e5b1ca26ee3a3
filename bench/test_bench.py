"""Self-tests for the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import copy
import itertools
import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import relalg  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.KINDS) == set(relalg.report.KINDS)


def test_injected_wrong_expected_value_raises_error_rate():
    workload = workloads.Classify8(seed=1)
    workload.expected = copy.deepcopy(workloads.REFERENCE["models"])
    workload.expected["a4"]["automorphism_count"] += 1
    setups, ops = run.measure(workload, seconds=1)
    metrics, _, detail, attempted, failed = run.end_to_end(workload, setups, ops)
    # operation 0 classifies a relabeled a4, operation 1 an a9
    assert attempted >= 2 and failed >= 1
    assert metrics["ok_rate"] < 1
    assert len(detail["samples"]) == attempted - failed


def _burn():
    """A fixed piece of pure-Python work: about two thirds of a classify8 operation."""
    return [len(sorted(itertools.permutations(range(8)), key=lambda p: p[::-1]))
            for _ in range(16)]


class _Burn:
    """A workload whose operation is only ``_burn``."""

    alias, nodes_alias = "burn_s", None

    def setup(self):
        pass

    def run(self, k):
        return _burn()

    def check(self, k, out):
        return True


def _p50(workload, seconds=6):
    setups, ops = run.measure(workload, seconds)
    metrics, _, _, _, failed = run.end_to_end(workload, setups, ops)
    assert failed == 0
    return metrics["op_s.p50"]


def test_scaling_passes_a_known_extra_cost_through(monkeypatch):
    # The times are scaled by a kernel timed in the same process, so check at
    # full size that extra work put into relalg shows up in op_s.p50 at its
    # own scaled cost rather than being absorbed by the scaling.
    base = _p50(workloads.Classify8(seed=1))
    extra = _p50(_Burn())
    original = relalg.canonical_form

    def slower(a):
        _burn()
        return original(a)
    monkeypatch.setattr(relalg, "canonical_form", slower)
    slowed = _p50(workloads.Classify8(seed=1))
    assert slowed - base == pytest.approx(extra, rel=0.3)


def test_check8_checker_rejects_a_wrong_or_late_witness():
    workload = workloads.Check8(seed=3)
    good = [[e[i] for i in workload.axiom_ids] for e in workload.expected]
    assert workload.check(0, good)
    mutant = next(k for k, s in enumerate(workload.specs) if s[2] is not None)
    failing = next(i for i, w in enumerate(good[mutant]) if w is not None)
    for wrong in (None, {**good[mutant][failing], "r": 7 - good[mutant][failing]["r"]}):
        bad = [row[:] for row in good]
        bad[mutant][failing] = wrong
        assert not workload.check(0, bad)


def test_oracle_agrees_with_relalg_on_the_catalog():
    assert {i: text for i, (text, _) in oracle.AXIOMS.items()} == relalg.AXIOM_TEXT
    for model_id in relalg.list_models():
        a = relalg.build_model(model_id)
        verdicts = oracle.first_counterexamples(workloads.tables_of(a))
        for axiom_id in relalg.AXIOM_IDS:
            assert verdicts[axiom_id] == relalg.check_validity(
                a, relalg.axiom_sentence(axiom_id)), (model_id, axiom_id)


def test_frozen_canonical_forms_match_the_frozen_failing_lists():
    for model_id, want in workloads.REFERENCE["models"].items():
        flat = list(bytes.fromhex(want["canonical_form"]))
        n, ident = flat[0], flat[1]
        neg, conv = flat[2:2 + n], flat[2 + n:2 + 2 * n]
        body = flat[2 + 2 * n:]
        add = [body[i * n:(i + 1) * n] for i in range(n)]
        comp = [body[n * n + i * n:n * n + (i + 1) * n] for i in range(n)]
        verdicts = oracle.first_counterexamples((n, add, neg, comp, conv, ident))
        assert oracle.failing(verdicts, relalg.TARSKI) == want["failing_tarski"]
        assert oracle.failing(verdicts, relalg.R_SYS) == want["failing_r_sys"]


@pytest.mark.parametrize("make", [workloads.classify8_specs, workloads.check8_specs])
def test_seed_fixes_inputs_and_makeup(make):
    assert make(5) == make(5)
    other = make(6)
    assert other != make(5) and len(other) == len(make(5))

    def makeup(specs):
        return Counter((s[0], len(s) > 2 and s[2] is not None) for s in specs)
    assert makeup(other) == makeup(make(5))


def test_tracer_wraps_every_namespace_and_restores_it():
    engine = sys.modules["relalg.search"]
    original = engine.boolean_guided_search
    tracer = spans.Tracer(relalg)
    tracer.install()
    try:
        assert engine.boolean_guided_search is not original
        assert relalg.boolean_guided_search is engine.boolean_guided_search
        assert sys.modules["relalg.report"].boolean_guided_search is engine.boolean_guided_search
        tracer.unit = ("op", 0)
        relalg.status_vector(relalg.build_model("a2"), relalg.TARSKI)
    finally:
        tracer.uninstall()
    assert engine.boolean_guided_search is original
    layers = tracer.summary("op", {("op", 0): 1.0})["layers"]
    assert layers["axioms.status_vector"][0] == 1
    assert layers["terms.check_validity"][0] == len(relalg.TARSKI)
    assert layers["catalog.build_model"][0] == 1


def test_tracer_fails_loudly_on_a_missing_name():
    with pytest.raises(RuntimeError, match="no public function"):
        spans.Tracer(types.SimpleNamespace())


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 9)]) == (6.0, 75.0, 2)
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
