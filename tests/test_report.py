import json
import sys
from dataclasses import replace

import pytest

from relalg import cli
from relalg.algebra import automorphism_count, make_algebra
from relalg.axioms import SYSTEMS, axiom_sentence, failing_axioms, status_vector
from relalg.catalog import build_model, list_models, m3
from relalg.report import (_RSYS_SUITE, _SSYS_SUITE, _TARSKI_SUITE, GOLDEN,
                           LEMMAS, SEARCHES, Claim, Report, _golden_check,
                           _lemma, render_model, run_verification_suite)
from relalg.search import SearchResult
from relalg.terms import check_validity
from test_search import RSYS_MINUS_R9_SIZE8, _from_form


class TestRenderModel:
    def test_ascii_layout(self):
        text = render_model(m3())
        assert "0' : 0 0' 1 1" in text       # the comp row for 0'
        assert "ident: 1'" in text
        assert text.splitlines()[0] == "size: 4"

    def test_ascii_without_names(self):
        a = make_algebra(2, [[0, 1], [1, 1]], [1, 0], [[0, 0], [0, 1]],
                         [0, 1], 1)
        text = render_model(a)
        assert "1 : 0 1" in text


def _mismatches(claim_id, model_id, bad):
    """The golden claim's mismatches with ``bad`` in place of the model;
    the claim must fail."""
    _, _, mid, ident, comparisons = next(row for row in GOLDEN if row[0] == claim_id)
    assert mid == model_id
    ok, evidence = _golden_check(bad, ident, comparisons)
    assert not ok
    return evidence["mismatches"]


class TestFaultInjection:
    # (model, claim, corrupted cell, wrong value, right value); the a9 and
    # b9 cells lie outside the cells the paper lists as changed
    @pytest.mark.parametrize("model_id, claim_id, row, col, got, want", [
        pytest.param("m3", "paper.s3.table1-m3", "0'", "1'", "1", "0'", id="m3"),
        pytest.param("d", "paper.s3.tables4-5-lyndon-d", "a", "b", "1", "0'",
                     id="d"),
        pytest.param("a9", "paper.s11.table9-a9-diff", "{1}", "{1}", "{0}", "{2}",
                     id="a9"),
        pytest.param("b9", "paper.s14.table11-b9-diff", "a", "b", "1", "0'",
                     id="b9"),
    ])
    def test_corrupted_comp_cell_is_located(self, model_id, claim_id, row,
                                            col, got, want):
        a = build_model(model_id)
        idx = {name: i for i, name in enumerate(a.names)}
        comp = [list(r) for r in a.comp]
        comp[idx[row]][idx[col]] = idx[got]
        bad = make_algebra(a.size, a.add, a.neg, comp, a.conv, a.ident, a.names)
        assert ("comp", row, col, got, want) in _mismatches(claim_id, model_id, bad)

    def test_corrupted_m3_converse_is_located(self):
        a = m3()
        idx = {name: i for i, name in enumerate(a.names)}
        conv = list(a.conv)
        conv[idx["0'"]] = idx["1"]
        bad = make_algebra(a.size, a.add, a.neg, a.comp, conv, a.ident, a.names)
        assert _mismatches("paper.s3.table1-m3", "m3", bad) == \
            [("conv", "0'", "1", "0'")]

    def test_corrupted_m3_identity_is_located(self):
        a = m3()
        bad = make_algebra(a.size, a.add, a.neg, a.comp, a.conv,
                           a.names.index("1"), a.names)
        assert _mismatches("paper.s3.table1-m3", "m3", bad) == [("ident", "1", "1'")]

    def test_uncorrupted_claim_passes(self):
        models = {mid: build_model(mid) for mid in list_models()}
        for cid, _, mid, ident, comparisons in GOLDEN:
            ok, evidence = _golden_check(models[mid], ident, comparisons)
            assert ok, (cid, evidence)


class TestReportStructure:
    def test_overall_and_serialization(self):
        r = Report("0.0.0", [
            Claim("x.a", "first", "extra-fact", "pass", 0.1, {}),
            Claim("x.b", "second", "extra-fact", "skipped-long-running", 0.0, {}),
        ])
        assert r.overall == "pass"
        doc = r.to_dict()
        json.dumps(doc)  # must be serializable
        assert doc["overall"] == "pass"
        assert [c["id"] for c in doc["claims"]] == ["x.a", "x.b"]

    def test_single_failure_flips_overall(self):
        r = Report("0.0.0", [
            Claim("x.a", "first", "extra-fact", "pass", 0.1, {}),
            Claim("x.b", "second", "extra-fact", "fail", 0.1, {"why": "w"}),
        ])
        assert r.overall == "fail"
        assert "FAIL" in r.render()
        assert "evidence" in r.render()

    def test_inconclusive_claim_makes_overall_inconclusive(self):
        r = Report("0.0.0", [
            Claim("x.a", "first", "extra-fact", "pass", 0.1, {}),
            Claim("x.b", "second", "uniqueness", "inconclusive", 0.1, {}),
        ])
        assert r.overall == "inconclusive"
        assert "[INCONCLUSIVE] x.b" in r.render()
        assert "1 inconclusive" in r.render()
        r.claims.append(Claim("x.c", "third", "extra-fact", "fail", 0.1, {}))
        assert r.overall == "fail"


LONG_CLAIMS = ("paper.s11.r9-uniqueness-size8",
               "paper.s14.r9-uniqueness-size8-rsys")


@pytest.fixture(scope="module")
def budget_cut_report():
    """The suite with the size-8 searches stopped after a few nodes."""
    return run_verification_suite(include_long_running=True, long_node_limit=20)


class TestBudgetAborts:
    def test_long_claims_are_inconclusive(self, budget_cut_report):
        by_id = {c.claim_id: c for c in budget_cut_report.claims}
        for cid in LONG_CLAIMS:
            assert by_id[cid].status == "inconclusive"
            assert by_id[cid].evidence["resource_abort"] is True
            assert by_id[cid].evidence["sizes"][0]["exhaustive"] is False
            assert by_id[cid].evidence["sizes"][0]["nodes"] == 21
        # the long budget reaches the size-8 claims alone
        assert [c.claim_id for c in budget_cut_report.claims
                if c.status != "pass"] == list(LONG_CLAIMS)
        assert budget_cut_report.overall == "inconclusive"

    def test_verify_paper_exits_3(self, budget_cut_report, capsys, monkeypatch):
        calls = []

        def suite(**kwargs):
            calls.append(kwargs)
            return budget_cut_report
        monkeypatch.setattr(cli, "run_verification_suite", suite)
        assert cli.main(["verify-paper", "--long"]) == 3
        out = capsys.readouterr().out
        assert f"[INCONCLUSIVE] {LONG_CLAIMS[0]}" in out
        assert cli.main(["verify-paper", "--long", "--json"]) == 3
        assert json.loads(capsys.readouterr().out)["overall"] == "inconclusive"
        # without --limit, the long searches get no budget
        assert calls == [{"include_long_running": True, "long_node_limit": None}] * 2

    def test_a_cut_search_is_never_a_failure(self, capsys, engine, monkeypatch):
        # every search without a budget of its own stops after 5 nodes
        run = engine._run

        def budgeted(spec, *rest):
            if spec.node_limit is None:
                spec = replace(spec, node_limit=5)
            return run(spec, *rest)
        monkeypatch.setattr(engine, "_run", budgeted)
        report = run_verification_suite()
        cut = [c for c in report.claims if c.kind == "minimality"
               and not all(s["exhaustive"] for s in c.evidence["sizes"])]
        assert len(cut) == 5
        for claim in cut:
            assert claim.status == "inconclusive"
            assert claim.evidence["resource_abort"] is True
        assert not [c for c in report.claims if c.status == "fail"]
        assert report.overall == "inconclusive"
        assert cli.main(["verify-paper"]) == 3
        assert "[INCONCLUSIVE] paper.s6.r2-minimality" in capsys.readouterr().out


class TestLongBudget:
    def test_a_bad_budget_is_rejected_before_any_claim_runs(self, monkeypatch):
        suite = sys.modules["relalg.report"]
        built = []
        monkeypatch.setattr(suite, "build_model", built.append)
        for limit in (0, -5, 2.5, "100"):
            with pytest.raises(ValueError):
                run_verification_suite(include_long_running=True,
                                       long_node_limit=limit)
        assert built == []

    def test_long_searches_run_to_the_end_by_default(self, monkeypatch):
        specs = []
        _finished_size8_claims(monkeypatch, [build_model("b9")], specs)
        assert [spec.must_fail for spec in specs] == [(axiom_sentence("R9"),)] * 2
        assert [spec.node_limit for spec in specs] == [None, None]


def _finished_size8_claims(monkeypatch, rsys_models, specs=None):
    """The long suite's claims by id, with made-up finished size-8 searches:
    the full system finds a9 alone, the reduced one ``rsys_models``.  The
    size-8 specs are appended to ``specs`` when it is given."""
    suite = sys.modules["relalg.report"]
    search_for = suite._search_for

    def finished(spec):
        if specs is not None:
            specs.append(spec)
        # of the two systems, only R_SYS holds R8p
        models = rsys_models if axiom_sentence("R8p") in spec.must_hold \
            else [build_model("a9")]
        labeled = sum(40320 // automorphism_count(m) for m in models)
        return SearchResult(models, labeled, len(models), True, 1)
    monkeypatch.setattr(suite, "_search_for", lambda spec:
                        finished if spec.size == 8 else search_for(spec))
    report = run_verification_suite(include_long_running=True)
    return {c.claim_id: c for c in report.claims}


class TestAtSizeClaims:
    def test_any_model_may_match_the_certificate(self, budget_cut_report,
                                                 monkeypatch):
        # the reduced system finds two classes, with b9 second
        by_id = _finished_size8_claims(monkeypatch, [build_model("d"), build_model("b9")])
        tarski, rsys = (by_id[cid] for cid in LONG_CLAIMS)
        assert tarski.status == "pass"
        assert tarski.evidence["certified"] is True
        # not the four classes, though one of them is the certificate's
        assert rsys.status == "fail"
        assert rsys.evidence["sizes"][0]["models"] == 2
        assert rsys.evidence["certified"] is True
        # the three models of the finished searches join the lemma
        # population; those of the searches the budget cut do not
        lemma = "paper.s13.implies-r7"
        cut = {c.claim_id: c for c in budget_cut_report.claims}[lemma]
        assert by_id[lemma].status == "pass"
        assert by_id[lemma].evidence["population"] == \
            cut.evidence["population"] + 3

    def test_r7_size4_finds_two_classes(self, budget_cut_report):
        # the exhaustive size-4 tree of Tarski - R7 + {not R7} has exactly
        # two classes, one of them isomorphic to a7
        claim = {c.claim_id: c for c in budget_cut_report.claims}[
            "paper.s9.r7-size4-search"]
        assert claim.status == "pass"
        row, = claim.evidence["sizes"]
        assert (row["models"], row["labeled"], row["nodes"]) == (2, 48, 399)
        assert row["exhaustive"] and claim.evidence["certified"] is True

    def test_four_reduced_system_classes_pass(self, monkeypatch):
        # the four classes of the finished R_SYS - R9 search, b9's last
        models = [_from_form(form) for form in RSYS_MINUS_R9_SIZE8]
        by_id = _finished_size8_claims(monkeypatch, models)
        rsys = by_id[LONG_CLAIMS[1]]
        assert rsys.status == "pass"
        assert rsys.evidence["sizes"][0]["models"] == 4
        assert rsys.evidence["certified"] is True
        # the four join the lemma population, and every lemma still holds
        assert all(c.status == "pass" for c in by_id.values())


class TestSuiteSmoke:
    def test_default_suite_passes_and_skips_long_claims(self):
        report = run_verification_suite(include_long_running=False)
        assert report.overall == "pass"
        by_id = {c.claim_id: c for c in report.claims}
        for cid in LONG_CLAIMS:
            assert by_id[cid].status == "skipped-long-running"
            assert by_id[cid].evidence == \
                {"hint": "rerun with long-running checks enabled"}
            assert by_id[cid].seconds == 0.0
        # ordering is by claim id, not execution order
        ids = [c.claim_id for c in report.claims]
        assert ids == sorted(ids)
        json.dumps(report.to_dict())

    def test_evidence_node_total(self):
        # every search claim records its searches as "sizes" rows, so each
        # search's nodes are counted once
        report = run_verification_suite()
        assert sum(row["nodes"] for c in report.claims
                   for row in c.evidence.get("sizes", ())) == 1792
        assert not [c for c in report.claims if "nodes_explored" in c.evidence]


class TestVerdictTable:
    def test_each_model_axiom_pair_checked_once_per_run(self, monkeypatch):
        suite = sys.modules["relalg.report"]
        check, calls = suite.check_validity, []

        def spy(a, s):
            calls.append((id(a), s))
            return check(a, s)
        monkeypatch.setattr(suite, "check_validity", spy)
        assert run_verification_suite().overall == "pass"
        first = len(calls)
        assert first and len(set(calls)) == first
        # nothing is carried from one run to the next
        calls.clear()
        assert run_verification_suite().overall == "pass"
        assert len(calls) == first

    def test_independence_evidence_matches_status_vector(self):
        by_id = {c.claim_id: c for c in run_verification_suite().claims}
        jobs = _TARSKI_SUITE + _RSYS_SUITE + _SSYS_SUITE + [
            ("paper.s12.b10-r10-independence", "b10", "tarski", "R10")]
        for cid, mid, sysname, target in jobs:
            a = build_model(mid)
            status = status_vector(a, SYSTEMS[sysname])
            want = {"failing": failing_axioms(status)}
            if status[target] is not None:
                want["witness"] = {var: a.name_of(v)
                                   for var, v in sorted(status[target].items())}
            assert by_id[cid].evidence == want, cid
            assert by_id[cid].status == "pass", cid


class TestLemma:
    def test_counterexample_evidence(self):
        # a stand-in verdict: each model fails exactly the axioms listed
        fails = {"p": set(), "q": {"R8"}, "r": {"R8", "R8p", "R9"}}

        def verdict(a, axiom_id):
            return {} if axiom_id in fails[a] else None
        population = [(mid, mid) for mid in fails]
        assert _lemma(verdict, population, ("R9",), ("R7", "R8")) == \
            (False, {"model": "q", "violates": "R8"})
        assert _lemma(verdict, population, (), ("R8", "R8p"), agree=True) == \
            (False, {"model": "q", "disagree": ["R8", "R8p"]})
        # r fails both sides, so it agrees
        assert _lemma(verdict, population[::2], (), ("R8", "R8p"), agree=True) == \
            (True, {"population": 2, "applicable": 2})
        assert _lemma(verdict, population, ("R8",), ("R7",)) == \
            (True, {"population": 3, "applicable": 1})

    def test_descriptions_say_what_is_checked(self, budget_cut_report):
        # a lemma's evidence is a sample (the catalog and the finished
        # searches' models), and its description says so; it names every
        # hypothesis and conclusion of its row, so text and check agree
        rows = {cid: row for cid, *row in LEMMAS}
        lemmas = [c for c in budget_cut_report.claims if c.kind == "lemma-semantic"]
        assert sorted(c.claim_id for c in lemmas) == sorted(rows)
        for c in lemmas:
            description, hypotheses, conclusions, agree = rows[c.claim_id]
            words = c.description.replace(",", "").split()
            assert c.description == description
            assert "sample" in words
            assert set(hypotheses + conclusions) <= set(words)
            assert ("agree" in words) == agree
            assert set(c.evidence) == {"population", "applicable"}
        # a search claim names its target, system, size and class count,
        # and its certificate; its kind and searched sizes follow from its
        # row: none below the size, or exactly k classes at the size alone
        searches = [c for c in budget_cut_report.claims if c.kind in
                    ("minimality", "uniqueness")]
        rows = {cid: row for cid, *row in SEARCHES}
        assert sorted(c.claim_id for c in searches) == sorted(rows)
        for c in searches:
            sysname, target, size, cert, count, long = rows[c.claim_id]
            words = c.description.replace(",", "").replace("-", " ").split()
            assert {target, sysname, str(size), cert} <= set(words)
            if count:
                assert ("exactly", str(count)) in zip(words, words[1:])
            else:
                assert words[0] == "no"
            # the certificate is compared by isomorphism when its size is searched
            assert ("isomorphic" in words) == (count > 0)
            assert c.kind == ("uniqueness" if count else "minimality")
            assert [row["size"] for row in c.evidence["sizes"]] == \
                ([size] if count else list(range(1, size)))
            assert c.evidence["certificate"] == cert
            assert (c.claim_id in LONG_CLAIMS) == long

    # the first LEMMAS row (R10 against R11p) on one model each, and a
    # model where a hypothesis fails
    @pytest.mark.parametrize("model_id, hypotheses, conclusions, failing, applicable", [
        ("m3", *LEMMAS[0][2:4], [], 1),
        ("a10", *LEMMAS[0][2:4], ["R10", "R11p"], 1),
        ("a6", ("R6",), ("R8", "R8p"), [], 0)],
        ids=["both-hold", "both-fail", "not-applicable"])
    def test_agreement_on_one_model(self, model_id, hypotheses, conclusions,
                                    failing, applicable):
        a = build_model(model_id)
        assert failing_axioms(status_vector(a, conclusions)) == failing

        def verdict(a, axiom_id):
            return check_validity(a, axiom_sentence(axiom_id))
        assert _lemma(verdict, [(model_id, a)], hypotheses, conclusions, agree=True) \
            == (True, {"population": 1, "applicable": applicable})
