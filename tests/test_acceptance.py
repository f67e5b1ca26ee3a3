"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Criterion 10 is long-running and only executes when RELALG_LONG=1 is set;
it runs both size-8 uniqueness claims of the claim suite to the end and
requires both to pass on their pinned trees.  It also checks the two
size-8 searches the suite runs, each run once: exhaustive on exactly the
pinned nodes, with the pinned class and labeling counts, every model
failing exactly R9 within its system, and the classes' canonical forms
those of ``a9`` (Tarski) and ``RSYS_MINUS_R9_SIZE8`` (R_SYS).
"""

import time

import pytest

from relalg.algebra import canonical_form, find_isomorphism
from relalg.axioms import (R_SYS, S_SYS, TARSKI, axiom_sentence,
                           failing_axioms, satisfies, status_vector)
from relalg.catalog import build_model, list_models
from relalg.report import GOLDEN, _golden_check, run_verification_suite
from relalg.search import (SearchSpec, boolean_guided_search, naive_enumerate,
                           search)
from relalg.terms import holds
from test_search import RSYS_MINUS_R9_SIZE8


def _axioms(ids):
    return tuple(axiom_sentence(i) for i in ids)


def _line(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, text


def test_criterion_01_tarski_independence():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        a = build_model(f"a{n}")
        ok = ok and failing_axioms(status_vector(a, TARSKI)) == [f"R{n}"]
    elapsed = time.perf_counter() - start
    _line(1, ok and elapsed < 2.0,
          f"each a_n fails exactly R_n within the full system ({elapsed:.2f}s)")


def test_criterion_02_reduced_system_independence():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4, 5, 6, 10):
        a = build_model(f"a{n}")
        ok = ok and failing_axioms(status_vector(a, R_SYS)) == [f"R{n}"]
    ok = ok and failing_axioms(status_vector(build_model("b9"), R_SYS)) == ["R9"]
    for mid in ("a8", "a7"):
        a = build_model(mid)
        ok = ok and failing_axioms(status_vector(a, R_SYS)) == ["R8p"]
    elapsed = time.perf_counter() - start
    _line(2, ok and elapsed < 2.0,
          f"independence of the system without R7/R8 ({elapsed:.2f}s)")


def test_criterion_03_distributive_system_independence():
    start = time.perf_counter()
    ok = failing_axioms(status_vector(build_model("a7"), S_SYS)) == ["R8p"]
    ok = ok and failing_axioms(status_vector(build_model("b9"), S_SYS)) == ["R8"]
    for n in (1, 2, 3, 4, 5, 6, 10):
        a = build_model(f"a{n}")
        ok = ok and failing_axioms(status_vector(a, S_SYS)) == [f"R{n}"]
    elapsed = time.perf_counter() - start
    _line(3, ok and elapsed < 2.0,
          f"independence of the system without R7/R9 ({elapsed:.2f}s)")


def test_criterion_04_golden_tables():
    start = time.perf_counter()
    models = {mid: build_model(mid) for mid in list_models()}
    ok = True
    for cid, mid, ident, _, comparisons in GOLDEN:
        good, evidence = _golden_check(models[mid], ident, comparisons)
        if not good:
            print(cid, evidence)
        ok = ok and good
    elapsed = time.perf_counter() - start
    _line(4, ok and elapsed < 1.0,
          f"all constructed tables match the frozen references ({elapsed:.2f}s)")


def test_criterion_05_stated_witnesses():
    start = time.perf_counter()
    cases = [
        ("R2", "a2", {"r": "1'", "s": "1'", "t": "1"}),
        ("R4", "a4", {"r": "{1}", "s": "{2}", "t": "{2}"}),
        ("R9", "a9", {"r": "{0}", "s": "{2}"}),
        ("R8p", "a9", {"r": "{1}", "s": "{0}", "t": "{2}"}),
        ("R9", "b9", {"r": "1'", "s": "a"}),
        ("R8", "b9", {"r": "1'", "s": "a", "t": "b"}),
        ("R10", "b10", {"r": "0'", "s": "0'"}),
        ("R8", "a8", {"r": "0", "s": "1", "t": "0"}),  # identity named "1"
    ]
    ok = True
    for axiom_id, mid, named in cases:
        a = build_model(mid)
        idx = {name: i for i, name in enumerate(a.names)}
        env = {v: idx[name] for v, name in named.items()}
        ok = ok and not holds(a, axiom_sentence(axiom_id), env)
    elapsed = time.perf_counter() - start
    _line(5, ok and elapsed < 1.0,
          f"every stated counterexample falsifies its axiom ({elapsed:.2f}s)")


def test_criterion_06_minimality_searches():
    start = time.perf_counter()
    jobs = {
        "paper.s6.r2-minimality": ([1, 2], []),
        "paper.s7.r4-minimality": ([1, 2, 4], [3, 5, 6, 7]),
        "paper.s9.r7-minimality": ([1, 2], [3]),
        "paper.s11.r9-minimality": ([1, 2, 4], [3, 5, 6, 7]),
        "paper.s14.r9-minimality-rsys": ([1, 2, 4], [3, 5, 6, 7]),
    }
    claims = [c for c in run_verification_suite().claims
              if c.kind == "minimality"]
    ok = sorted(c.claim_id for c in claims) == sorted(jobs)
    for claim in claims:
        searched, excluded = jobs[claim.claim_id]
        sizes = claim.evidence["sizes"]
        ok = ok and claim.status == "pass" and claim.evidence["certified"]
        ok = ok and [s["size"] for s in sizes if s["skipped"] is None] == searched
        ok = ok and [s["size"] for s in sizes if s["skipped"]] == excluded
        ok = ok and all(s["exhaustive"] and s["models"] == 0 for s in sizes)
    elapsed = time.perf_counter() - start
    _line(6, ok and elapsed < 60.0,
          f"no smaller independence models exist, exhaustively ({elapsed:.2f}s)")


def test_criterion_07_uniqueness_r2_size3():
    start = time.perf_counter()
    spec = SearchSpec(3, _axioms(i for i in TARSKI if i != "R2"),
                      _axioms(("R2",)), up_to_iso=True)
    res = search(spec)
    ok = (res.exhaustive and res.iso_class_count == 1
          and find_isomorphism(res.models[0], build_model("a2")) is not None
          and res.labeled_count >= 1)
    elapsed = time.perf_counter() - start
    _line(7, ok and elapsed < 300.0,
          f"one iso class at size 3 for R2, labeled count "
          f"{res.labeled_count} ({elapsed:.2f}s)")


def _population():
    models = [(mid, build_model(mid)) for mid in list_models()]
    r2 = search(SearchSpec(3, _axioms(i for i in TARSKI if i != "R2"),
                           _axioms(("R2",)), up_to_iso=True))
    r7 = boolean_guided_search(
        SearchSpec(4, _axioms(i for i in TARSKI if i != "R7"),
                   _axioms(("R7",)), up_to_iso=True))
    models += [(f"search.r2.{i}", m) for i, m in enumerate(r2.models)]
    models += [(f"search.r7.{i}", m) for i, m in enumerate(r7.models)]
    return models


def test_criterion_08_lemma_semantic_suite():
    start = time.perf_counter()
    population = _population()
    violations = []
    for mid, a in population:
        if satisfies(a, ("R1", "R2", "R3", "R6", "R8p")):
            if satisfies(a, ("R10",)) != satisfies(a, ("R11p",)):
                violations.append((mid, "R10/R11p"))
        if satisfies(a, ("R6", "R7", "R9")):
            if satisfies(a, ("R8",)) != satisfies(a, ("R8p",)):
                violations.append((mid, "R8/R8p"))
        if satisfies(a, ("R1", "R2", "R3", "R4", "R5", "R11p")):
            if not satisfies(a, ("R7",)):
                violations.append((mid, "missing R7"))
        if satisfies(a, ("R1", "R2", "R3", "R5", "R8", "R11p")):
            if not satisfies(a, ("R9",)):
                violations.append((mid, "missing R9"))
        if satisfies(a, R_SYS) and not satisfies(a, ("R7", "R8")):
            violations.append((mid, "reduced system incomplete"))
        if satisfies(a, S_SYS) and not satisfies(a, ("R7", "R9")):
            violations.append((mid, "distributive system incomplete"))
    elapsed = time.perf_counter() - start
    if violations:
        print(violations)
    _line(8, not violations and elapsed < 30.0,
          f"no semantic lemma violations over {len(population)} models "
          f"({elapsed:.2f}s)")


def test_criterion_09_oracle_cross_checks():
    start = time.perf_counter()
    specs = [
        SearchSpec(2, _axioms(("R1", "R5"))),
        SearchSpec(2, _axioms(("R1", "R2", "R3")), _axioms(("R10",))),
        SearchSpec(2, _axioms(("R6", "R7")), _axioms(("R5",))),
    ]
    ok = True
    for spec in specs:
        fast = search(spec)
        slow = naive_enumerate(spec)
        no_prop = search(SearchSpec(spec.size, spec.must_hold, spec.must_fail,
                                    propagate=False))
        ok = ok and fast.labeled_count == slow.labeled_count
        ok = ok and sorted(canonical_form(m) for m in fast.models) == \
            sorted(canonical_form(m) for m in no_prop.models)
    elapsed = time.perf_counter() - start
    _line(9, ok and elapsed < 10.0,
          f"searcher agrees with the naive enumerator on 3 specs, with and "
          f"without pruning ({elapsed:.2f}s)")


@pytest.mark.long
def test_criterion_10_uniqueness_r9_size8(engine, monkeypatch):
    # the claim path: both size-8 uniqueness claims must finish on their
    # pinned trees; the budget is explicit, since tests/conftest.py gives
    # every search without one 20,000 nodes.  Each claim's search is
    # recorded, so its result is checked here and run only once:
    # claim id -> (system, nodes, classes, labelings, canonical forms)
    trees = {"paper.s11.r9-uniqueness-size8":
             (TARSKI, 235838, 1, 20160, [canonical_form(build_model("a9")).hex()]),
             "paper.s14.r9-uniqueness-size8-rsys":
             (R_SYS, 44159, 4, 80640, RSYS_MINUS_R9_SIZE8)}
    run, searched = engine._run, []

    def recording(spec, *rest):
        res = run(spec, *rest)
        if spec.size == 8:
            searched.append((spec.must_hold, res))
        return res
    monkeypatch.setattr(engine, "_run", recording)
    report = run_verification_suite(
        include_long_running=True,
        long_node_limit=max(nodes for _, nodes, *_ in trees.values()))
    by_id = {c.claim_id: c for c in report.claims}
    got, want = {}, {}
    for cid, (system, nodes, classes, labelings, forms) in trees.items():
        claim = by_id[cid]
        held = _axioms(i for i in system if i != "R9")
        runs = [res for must_hold, res in searched if must_hold == held]
        got[cid] = [claim.status, claim.evidence["sizes"][0]["nodes"], len(runs)]
        got[cid] += [(res.exhaustive, res.nodes_explored, res.iso_class_count,
                      res.labeled_count,
                      all(failing_axioms(status_vector(m, system)) == ["R9"]
                          for m in res.models),
                      [canonical_form(m).hex() for m in res.models])
                     for res in runs]
        want[cid] = ["pass", nodes, 1,
                     (True, nodes, classes, labelings, True, forms)]
    ok = report.overall == "pass" and len(searched) == len(trees) and got == want
    _line(10, ok, "; ".join(f"{cid}: {status}, {nodes} nodes, searched {n}x"
                            for cid, (status, nodes, n, *_) in got.items()))
