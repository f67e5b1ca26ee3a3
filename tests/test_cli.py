import ast
import json
from dataclasses import fields

import pytest

from relalg.algebra import from_json, to_json
from relalg.catalog import boolean_ra, m3
from relalg.cli import _parse_axiom_list, main
from relalg.report import _TARSKI_SUITE, run_verification_suite
from relalg.search import SearchResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAxiomListParsing:
    def test_ranges(self):
        assert _parse_axiom_list("R1,R3-R10") == \
            ["R1"] + [f"R{n}" for n in range(3, 11)]

    def test_named_ids_pass_through(self):
        assert _parse_axiom_list("R8p,monL") == ["R8p", "monL"]

    def test_empty(self):
        assert _parse_axiom_list("") == []

    def test_reversed_range(self):
        with pytest.raises(ValueError, match="'R3-R1'"):
            _parse_axiom_list("R2,R3-R1")


class TestCommands:
    def test_list_models(self, capsys):
        code, out, _ = run(capsys, "list-models")
        assert code == 0
        assert "m3" in out.split()
        assert "a9" in out.split()

    def test_show_ascii(self, capsys):
        code, out, _ = run(capsys, "show", "m3")
        assert code == 0
        assert "0' : 0 0' 1 1" in out

    def test_show_json(self, capsys):
        code, out, _ = run(capsys, "show", "m3", "--json")
        assert code == 0
        assert from_json(out) == m3()

    def test_check_pass_and_fail_exit_codes(self, capsys):
        code, out, _ = run(capsys, "check", "m3")
        assert code == 0
        code, out, _ = run(capsys, "check", "a2")
        assert code == 1
        assert "FAIL R2" in out

    def test_check_json(self, capsys):
        code, out, _ = run(capsys, "check", "a2", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["failing"] == ["R2"]
        assert doc["axioms"]["R2"] == {"r": "1'", "s": "1'", "t": "1"}

    def test_check_system_choice(self, capsys):
        code, out, _ = run(capsys, "check", "b9", "--system", "s")
        assert code == 1
        assert "FAIL R8 " in out

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "d", "r;s^", "--let", "r=a,s=b")
        assert code == 0
        assert out.strip() == "0'"

    def test_eval_by_index(self, capsys):
        code, out, _ = run(capsys, "eval", "m3", "r+s", "--let", "r=2,s=0")
        assert code == 0
        assert out.strip() == "0'"

    def test_eval_errors(self, capsys):
        code, _, err = run(capsys, "eval", "m3", "r;s", "--let", "r=2")
        assert code == 2 and "unbound" in err
        code, _, err = run(capsys, "eval", "m3", "r;;s", "--let", "r=2,s=2")
        assert code == 2
        code, _, err = run(capsys, "eval", "m3", "r", "--let", "r=9")
        assert code == 2

    def test_eval_variable_bound_twice(self, capsys):
        # a usage error, not the last binding silently
        code, out, err = run(capsys, "eval", "m3", "r", "--let", "r=3,r=2")
        assert code == 2 and out == "" and "'r' bound twice" in err

    def test_eval_name_that_is_another_index(self, capsys):
        # in m3 the name 1 is index 3, while index 1 is 1'
        code, out, err = run(capsys, "eval", "m3", "r", "--let", "r=1")
        assert code == 2 and out == ""
        assert "'1': the name of index 3 or index 1 (named 1')" in err
        # the name 0 is index 0, so both readings agree
        code, out, _ = run(capsys, "eval", "m3", "r", "--let", "r=0")
        assert code == 0 and out.strip() == "0"

    def test_eval_variable_not_in_term(self, capsys):
        code, out, err = run(capsys, "eval", "m3", "r", "--let", "r=1',q=0")
        assert code == 2 and out == ""
        assert "variable 'q' does not occur in the term" in err

    def test_independence(self, capsys):
        code, out, _ = run(capsys, "independence", "a2", "--target", "R2")
        assert code == 0
        assert out == ("pass independence of R2 within tarski: failing = ['R2']\n"
                       "  witness: r=1', s=1', t=1\n")
        code, out, _ = run(capsys, "independence", "m3", "--target", "R2")
        assert code == 1
        assert out == "FAIL independence of R2 within tarski: failing = none\n"
        code, out, _ = run(capsys, "independence", "b9", "--target", "R9",
                           "--system", "r")
        assert code == 0
        assert out == ("pass independence of R9 within r: failing = ['R9']\n"
                       "  witness: r=1', s=a\n")
        # a target outside the system is a usage error, raised by the check
        # is_independence_model makes
        code, _, err = run(capsys, "independence", "a2", "--target", "R8p")
        assert code == 2 and err == "error: R8p is not in the given system\n"

    def test_independence_matches_claim_evidence(self, capsys):
        by_id = {c.claim_id: c for c in run_verification_suite().claims}
        for cid, mid, sysname, target in _TARSKI_SUITE:
            code, out, _ = run(capsys, "independence", mid, "--target", target,
                               "--system", sysname)
            assert code == 0, cid
            head, *rest = out.splitlines()
            witness = dict(pair.split("=", 1) for line in rest
                           for pair in line.removeprefix("  witness: ").split(", "))
            assert {"failing": ast.literal_eval(head.split("failing = ")[1]),
                    "witness": witness} == by_id[cid].evidence, cid

    def test_search(self, capsys):
        code, out, _ = run(capsys, "search", "--size", "2",
                           "--hold", "R1,R3-R10", "--fail", "R2", "--iso")
        assert code == 0
        assert "labeled count:  0\n" in out

    def test_search_conflicts_per_axiom(self, capsys):
        # a repeated id is held once, so each id names one count
        argv = ("search", "--size", "2", "--hold", "R1,R3-R10,R1", "--fail",
                "R2", "--iso")
        code, out, _ = run(capsys, *argv, "--json")
        conflicts = json.loads(out)["conflicts"]
        assert list(conflicts) == ["R1", "R3", "R4", "R5", "R6", "R7", "R8",
                                   "R9", "R10"]
        # R1 is never violated: the generic search derives add[j][i] from
        # add[i][j]
        assert conflicts["R3"] > 0
        code, out, _ = run(capsys, *argv)
        line = next(ln for ln in out.splitlines() if ln.startswith("conflicts:"))
        assert line.split(":", 1)[1].strip().split(", ") == [
            f"{i} {c}" for i, c in conflicts.items()]

    def test_search_text_states_each_json_field(self, capsys):
        argv = ("search", "--size", "2", "--hold", "R1,R3-R10,R1", "--fail",
                "R2", "--iso")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        fields = [(key, value) for key, value in doc.items()
                  if key not in ("size", "models")]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(fields)  # no model found
        for (key, value), line in zip(fields, lines):
            if key == "conflicts":
                value = ", ".join(f"{i} {c}" for i, c in value.items())
            assert line.split(":", 1)[1].strip() == str(value), key

    def test_search_prints_every_result_field(self, capsys):
        # text and JSON list each SearchResult counter, in field order, and
        # nothing else besides the size and the models
        counters = [f.name for f in fields(SearchResult) if f.name != "models"]
        argv = ("search", "--size", "2", "--hold", "R1,R3-R10", "--fail", "R2",
                "--iso")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert list(json.loads(out)) == ["size", *counters, "models"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == \
            [name.replace("_", " ") for name in counters]  # no model found

    def test_search_iso_with_r1_r3_is_guided(self, capsys):
        # the guided search's tree; the generic one explores 6,588 nodes
        code, out, _ = run(capsys, "search", "--size", "4", "--hold", "R1-R10",
                           "--iso", "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["nodes_explored"], doc["iso_class_count"],
                doc["labeled_count"]) == (200, 3, 60)

    def test_search_labeled_lists_every_labeling(self, capsys):
        # a labeled run stays generic, though it holds R1-R3: the guided
        # search would list only the labeling with the bitmask Boolean part
        code, out, _ = run(capsys, "search", "--size", "2", "--hold", "R1-R10",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert (len(doc["models"]), doc["labeled_count"]) == (2, 2)

    def test_search_symmetry_cuts(self, capsys):
        # the lex-leader cut acts only up to isomorphism: the labeled run
        # cuts nothing, though the same problem's iso run cuts 15 branches
        for argv, iso in ((("--size", "4", "--hold", "R1-R10", "--iso"), True),
                          (("--size", "3", "--hold", "R1,R3-R10", "--fail", "R2"),
                           False)):
            code, out, _ = run(capsys, "search", *argv, "--json")
            assert code == 0
            cuts = json.loads(out)["symmetry_cuts"]
            assert (cuts > 0) is iso
            code, out, _ = run(capsys, "search", *argv)
            assert f"symmetry cuts:  {cuts}\n" in out

    def test_search_refuted(self, capsys):
        # R1 reads only the preset Boolean part, so it holds at the root
        argv = ("search", "--size", "4", "--hold", "R1-R3", "--fail", "R1",
                "--iso")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["nodes_explored"], doc["refuted"]) == (1, 1)
        code, out, _ = run(capsys, *argv)
        assert "refuted:        1\n" in out

    def test_search_instances(self, capsys):
        # R1-R3 read only the preset Boolean part, so the guided search lays
        # out none of their instances; the generic search keeps R1's 4
        for argv, instances in ((("--size", "4", "--hold", "R1-R3"), 0),
                                (("--size", "2", "--hold", "R1"), 4)):
            argv += ("--fail", "R1", "--iso")
            code, out, _ = run(capsys, "search", *argv, "--json")
            assert code == 0
            assert json.loads(out)["instances"] == instances
            code, out, _ = run(capsys, "search", *argv)
            assert f"instances:      {instances}\n" in out

    def test_search_backjumps(self, capsys):
        # the guided Tarski tree at size 4: 52 nodes return before trying
        # every value, leaving 119 values untried
        argv = ("search", "--size", "4", "--hold", "R1-R10", "--iso")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["backjumps"], doc["values_skipped"]) == (52, 119)
        code, out, _ = run(capsys, *argv)
        assert "backjumps:      52\n" in out
        assert "values skipped: 119\n" in out

    def test_search_nogood_prunes(self, capsys):
        # the same tree: 51 values match a nogood stored earlier in the run
        # and are never tried
        argv = ("search", "--size", "4", "--hold", "R1-R10", "--iso")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["nogood_prunes"] == 51
        code, out, _ = run(capsys, *argv)
        assert "nogood prunes:  51\n" in out

    def test_search_budget_reached_exit_code(self, capsys):
        code, out, _ = run(capsys, "search", "--size", "2", "--limit", "1")
        assert code == 3
        assert "exhaustive:     False" in out
        assert "rechecks:" in out
        code, out, _ = run(capsys, "search", "--size", "2", "--limit", "1", "--json")
        assert code == 3
        assert json.loads(out)["exhaustive"] is False
        assert json.loads(out)["rechecks"] == 0  # no sentence to watch

    def test_search_usage_errors(self, capsys):
        code, _, err = run(capsys, "search", "--size", "2",
                           "--hold", "R3-R1", "--iso")
        assert code == 2 and "R3-R1" in err
        code, _, err = run(capsys, "search", "--size", "9")
        assert code == 2 and "size" in err
        for limit in ("0", "-5"):
            code, _, err = run(capsys, "search", "--size", "2", "--limit", limit)
            assert code == 2 and "node_limit" in err

    def test_search_json(self, capsys):
        code, out, _ = run(capsys, "search", "--size", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["labeled_count"] == 1
        assert doc["models"][0]["size"] == 1

    def test_verify_paper_long_limit(self, capsys):
        # both size-8 uniqueness searches stop at the given budget
        code, out, _ = run(capsys, "verify-paper", "--long", "--limit", "100",
                           "--json")
        assert code == 3
        long_claims = [c for c in json.loads(out)["claims"]
                       if c["id"].startswith(("paper.s11.r9-uniqueness-size8",
                                              "paper.s14.r9-uniqueness-size8"))]
        assert len(long_claims) == 2
        for claim in long_claims:
            assert claim["status"] == "inconclusive"
            assert claim["evidence"]["sizes"][0]["nodes"] == 101
            assert claim["evidence"]["resource_abort"] is True

    @pytest.mark.parametrize("argv, message", [
        (("--limit", "100"), "only with --long"),
        (("--long", "--limit", "0"), "at least 1")])
    def test_verify_paper_limit_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "verify-paper", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "show", "nope")
        assert code == 2
        assert "error" in err

    def test_bad_model_ids(self, capsys):
        code, _, err = run(capsys, "show", "a7[x=1]")
        assert code == 2
        assert "'x'" in err
        code, _, err = run(capsys, "show", "a8[base=a7[k=2]")
        assert code == 2
        assert "unbalanced" in err
        for model_id, message in (("a7[k=2,k=3]", "'k' given twice"),
                                  ("a7[k=3x]", "'k' of 'a7' is not an integer"),
                                  ("bra[k=-1]", "none negative")):
            code, out, err = run(capsys, "show", model_id)
            assert code == 2 and out == "" and message in err

    def test_nested_model_id(self, capsys):
        code, out, _ = run(capsys, "show", "a6[base=bra[k=2]]", "--json")
        assert code == 0
        assert from_json(out).size == 4

    def test_model_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(to_json(m3()))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0

    @pytest.mark.parametrize("field, value", [
        ("add", 5), ("size", "2"), (None, [1, 2])])
    def test_malformed_model_file(self, tmp_path, capsys, field, value):
        # a model file of the wrong shape is a usage error, not a failed check
        doc = json.loads(to_json(boolean_ra(1)))
        if field is None:
            doc = value
        else:
            doc[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error: ")
        assert (f"'{field}'" if field else "JSON object") in err

    def test_too_many_atoms(self, capsys):
        code, out, err = run(capsys, "show", "bra[k=40]")
        assert code == 2
        assert out == "" and "at most 8 atoms" in err

    def test_usage_error_exit_code(self, capsys):
        # --size is required; --guided is gone: the problem picks the search
        for argv in (["search"], ["search", "--size", "2", "--hold", "R1-R3",
                                  "--iso", "--guided"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2
