import inspect
import math
import pickle
import sys
from dataclasses import fields, replace
from functools import reduce
from itertools import product
from operator import or_

import pytest

from relalg.algebra import (automorphism_count, canonical_form,
                            find_isomorphism, make_algebra, relabel)
from relalg.axioms import (AXIOM_TEXT, R_SYS, S_SYS, TARSKI, axiom_sentence,
                           failing_axioms, satisfies, status_vector)
from relalg.catalog import a2, a7, build_model, list_models
from relalg.report import run_verification_suite
from relalg.search import (SearchSpec, _checker, _compile, _generic_rules,
                           _guided_rules, _layout, _plan, _relabeling,
                           boolean_guided_search, naive_enumerate, search)
from relalg.terms import free_vars, holds, parse_sentence


def _axioms(ids):
    return tuple(axiom_sentence(i) for i in ids)


def _forms(models):
    return sorted(canonical_form(m) for m in models)


# structurally different specs used for the oracle cross-checks; all but
# the third hold R1, so the generic search derives add[j][i] from add[i][j]
ORACLE_SPECS = [
    SearchSpec(2, _axioms(("R1", "R5"))),
    SearchSpec(2, _axioms(("R1", "R2", "R3")), _axioms(("R10",))),
    SearchSpec(2, _axioms(("R6", "R7")), _axioms(("R5",))),
    SearchSpec(2, _axioms(i for i in TARSKI if i != "R2")),
]


class TestEngineBasics:
    def test_size_one_unconstrained(self):
        res = search(SearchSpec(1, ()))
        assert res.labeled_count == 1
        assert res.exhaustive

    def test_no_constraints_size_two(self):
        # 2^4 add * 2^2 neg * 2^4 comp * 2^2 conv * 2 ident
        res = search(SearchSpec(2, ()))
        assert res.labeled_count == 8192

    def test_node_limit_reported(self):
        res = search(SearchSpec(2, (), node_limit=10))
        assert not res.exhaustive
        assert res.nodes_explored == 11

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SearchSpec(0, ())
        with pytest.raises(ValueError):
            SearchSpec(9, (), up_to_iso=True)
        with pytest.raises(ValueError):
            SearchSpec(9, ())
        for limit in (0, -5, 2.5):
            with pytest.raises(ValueError):
                SearchSpec(2, (), node_limit=limit)
        for size in (2.0, "2"):  # neither truncated nor parsed
            with pytest.raises(ValueError):
                SearchSpec(size, ())
        with pytest.raises(ValueError):
            naive_enumerate(SearchSpec(3, ()))

    def test_spec_keeps_its_sentences_as_tuples(self):
        # every spec is a plan key, so a list of sentences must hash too
        held, failed = _axioms(("R1", "R5")), _axioms(("R10",))
        spec = SearchSpec(2, list(held), list(failed))
        assert (spec.must_hold, spec.must_fail) == (held, failed)
        assert hash(spec) == hash(SearchSpec(2, held, failed))
        assert search(spec) == search(SearchSpec(2, held, failed))

    def test_naive_enumerate_counts_every_table_it_examines(self):
        # 2^4 add * 2^2 neg * 2^4 comp * 2^2 conv * 2 ident at size 2, one
        # table at size 1; 136 of the size-2 tables are kept
        spec = SearchSpec(2, _axioms(("R1", "R2", "R3")), _axioms(("R10",)))
        res = naive_enumerate(spec)
        assert (res.nodes_explored, res.labeled_count) == (8192, 136)
        assert naive_enumerate(replace(spec, size=1)).nodes_explored == 1


class TestOracleCrossChecks:
    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_labeled_counts_match_naive(self, spec):
        assert search(spec).labeled_count == naive_enumerate(spec).labeled_count

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_pruning_on_off_same_models(self, spec):
        on = search(spec)
        off = search(SearchSpec(spec.size, spec.must_hold, spec.must_fail,
                                propagate=False))
        assert _forms(on.models) == _forms(off.models)
        assert on.labeled_count == off.labeled_count
        assert on.iso_class_count == off.iso_class_count
        # the reference's conflict sets are always full, so it stores none
        assert off.nogood_prunes == 0

    def test_cross_checks_prune_by_nogoods(self):
        # the propagating runs the cross-checks compare try fewer values
        # than they would without nogoods
        assert [search(s).nogood_prunes for s in ORACLE_SPECS] == [0, 9, 7, 7]
        assert [boolean_guided_search(s).nogood_prunes
                for s in GUIDED_ORACLE_SPECS] == [3, 0, 9, 0, 0]

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_iso_class_labeled_sum(self, spec):
        # labeled count reconstructed from iso classes via the orbit formula
        iso = search(SearchSpec(spec.size, spec.must_hold, spec.must_fail,
                                up_to_iso=True))
        n = spec.size
        total = sum(math.factorial(n) // automorphism_count(m)
                    for m in iso.models)
        assert total == naive_enumerate(spec).labeled_count

    def test_deterministic(self):
        spec = ORACLE_SPECS[1]
        r1, r2 = search(spec), search(spec)
        assert [canonical_form(m) for m in r1.models] == \
            [canonical_form(m) for m in r2.models]


# specs for the guided search's on/off cross-check: it folds the preset
# Boolean part, which the generic search never does
GUIDED_ORACLE_SPECS = [
    SearchSpec(2, _axioms(TARSKI)),
    SearchSpec(2, _axioms(("R1", "R2", "R3")), _axioms(("R10",))),
    SearchSpec(2, _axioms(("R1", "R2", "R3", "R4", "R8", "R9", "R11p", "monL"))),
    SearchSpec(2, _axioms(("R1", "R2", "R3", "R6")), _axioms(("R5",)),
               up_to_iso=True),
    # false on the preset Boolean part: the propagating run stops at the
    # root, the reference walks its whole tree
    SearchSpec(2, _axioms(("R1", "R2", "R3")) + (parse_sentence("r+s = r"),)),
]


class TestGuidedOracleCrossChecks:
    @pytest.mark.parametrize("spec", GUIDED_ORACLE_SPECS)
    def test_pruning_on_off_same_models(self, spec):
        on = boolean_guided_search(spec)
        off = boolean_guided_search(replace(spec, propagate=False))
        assert on.exhaustive and off.exhaustive
        assert _forms(on.models) == _forms(off.models)
        assert on.labeled_count == off.labeled_count
        assert on.iso_class_count == off.iso_class_count
        assert off.rechecks == off.nogood_prunes == 0


@pytest.mark.parametrize("runner, spec, broken", [
    (search, ORACLE_SPECS[1], "R3"),
    (boolean_guided_search, GUIDED_ORACLE_SPECS[0], "R10")])
def test_reference_does_not_use_a_broken_checker(runner, spec, broken,
                                                 engine, monkeypatch):
    # a checker that reads one sentence's False as True breaks the
    # propagating run; the reference compiles and lays out nothing, so it
    # still agrees with the brute-force oracle
    compile_, compiled = engine._compile, []

    def breaking(s, *args):
        compiled.append(s)
        check, blame = compile_(s, *args)

        def broken_check(*a):
            held = check(*a)
            return True if held is False else held
        return (broken_check if s == axiom_sentence(broken) else check), blame
    monkeypatch.setattr(engine, "_compile", breaking)
    naive = naive_enumerate(spec).labeled_count
    assert runner(spec).labeled_count != naive
    assert compiled
    compiled.clear()
    off = runner(replace(spec, propagate=False))
    assert off.labeled_count == naive
    assert off.instances == 0 and compiled == []


def _search8_spec():
    must_hold = _axioms(i for i in R_SYS if i != "R9") + (parse_sentence("r^ = r"),)
    return SearchSpec(8, must_hold, _axioms(("R9",)), up_to_iso=True)


# (runner, spec, nodes_explored, rechecks, failed propagation steps,
# symmetry cuts, refuted branches, backjumps, values skipped, nogood
# prunes), as this engine counts them: a step rechecks each instance at
# most once and stops at its first violated instance, that instance is
# rechecked first the next time its cell is set, and a successful step is
# followed by the lex-leader cut, which also cuts at the identity cell
# every identity that passes the step and is not the least of its orbit;
# each node, leaves included, then scans the must-fail instances and cuts
# the branch if a must-fail sentence holds on all of them; a node whose
# child failed on a conflict set without the node's position returns at
# once; a value that matches a stored nogood is not tried
PINNED_COUNTS = {
    # every branch is refuted before a leaf
    "rsys-r9-symmetric-size8": (boolean_guided_search, _search8_spec(),
                                37, 671, 224, 4, 4, 0, 0, 0),
    "tarski-r2-size3": (search, SearchSpec(
        3, _axioms(i for i in TARSKI if i != "R2"), _axioms(("R2",)),
        up_to_iso=True), 466, 6562, 629, 13, 0, 146, 154, 134),
    "tarski-r7-size4": (boolean_guided_search, SearchSpec(
        4, _axioms(i for i in TARSKI if i != "R7"), _axioms(("R7",)),
        up_to_iso=True), 399, 10137, 791, 40, 3, 66, 157, 190),
    # a biconditional and quasi-equations with one and two antecedents
    "mixed-r4-size4": (boolean_guided_search, SearchSpec(
        4, _axioms(("R1", "R2", "R3", "R5", "R6", "R11p", "monL", "monR", "R8"))
        + (parse_sentence("r;s = 0, s;t = 0 -> r;t <= -1'"),),
        _axioms(("R4",)), up_to_iso=True), 294, 9530, 453, 25, 0, 142, 283, 122),
}


def _run_pinned(name):
    """Run a pinned search with a budget of exactly its pinned nodes, so that
    one that lost its pruning stops there and fails at once instead of
    running on.  Returns the result and the pinned (nodes, rechecks,
    failed steps, symmetry cuts, refuted branches, backjumps, values
    skipped, nogood prunes)."""
    runner, spec, *counts = PINNED_COUNTS[name]
    return runner(replace(spec, node_limit=counts[0])), *counts


def _counts(res):
    """The result's counts in the order ``PINNED_COUNTS`` pins them."""
    return [res.nodes_explored, res.rechecks, sum(res.conflicts),
            res.symmetry_cuts, res.refuted, res.backjumps, res.values_skipped,
            res.nogood_prunes]


# sentences beyond the catalog: the constants 0 and 1, meet, and
# quasi-equations with several antecedents
EXTRA_SENTENCES = ("r <= s, s <= t -> r <= t", "r.1 = 0 + r",
                   "r;s = 0, 1;r = r -> s.r^ = 0")


def _clear_caches():
    _checker.cache_clear()
    _plan.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Empty checker and plan caches before every test and again after it,
    so that every test compiles each checker and builds each plan it uses,
    under its own patches if it has any, alone in a run or not."""
    _clear_caches()
    yield
    _clear_caches()


class _Recorder:
    """A ``watch`` stand-in for calling a compiled checker directly: it
    records in ``reads`` every cell the checker subscribes to."""

    def __init__(self):
        self.reads: list[int] = []

    def __getitem__(self, k):
        self.reads.append(k)
        return {}


def _cells(a):
    """The engine's cell array of a complete algebra."""
    cells = [a.ident, *a.neg, *a.conv]
    cells += [v for row in a.add for v in row]
    cells += [v for row in a.comp for v in row]
    assert len(cells) == _layout(a.size)[-1]
    return cells


class TestCompiledChecker:
    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_pinned_counts(self, name):
        res, *counts = _run_pinned(name)
        assert res.exhaustive
        # a failed step has exactly one culprit, counted for its sentence
        assert len(res.conflicts) == len(PINNED_COUNTS[name][1].must_hold)
        assert _counts(res) == counts

    def test_pinned_size8_tree(self):
        # R_SYS with R7 must-fail at size 8 has no model, on a tree that
        # propagates, fails steps, cuts, refutes, jumps and prunes by
        # nogoods at every depth; a budget of exactly its pinned nodes,
        # about 0.2 s
        res = boolean_guided_search(SearchSpec(
            8, _axioms(R_SYS), _axioms(("R7",)), up_to_iso=True, node_limit=1651))
        assert res.exhaustive and res.iso_class_count == 0
        assert _counts(res) == [1651, 122012, 8096, 105, 13, 436, 2298, 955]
        assert res.instances == 1168

    def test_instances_drop_what_holds_on_the_preset(self):
        # the guided search drops the instances of R1-R3, which read only
        # its preset Boolean part, 8^2 + 8^3 + 8^2 of them at size 8; the
        # generic search presets nothing and keeps every instance
        res, *_ = _run_pinned("rsys-r9-symmetric-size8")
        spec = PINNED_COUNTS["rsys-r9-symmetric-size8"][1]
        every = sum(8 ** len(free_vars(s)) for s in spec.must_hold)
        assert (every, res.instances) == (1752, 1112)
        assert every - res.instances == 8 ** 2 + 8 ** 3 + 8 ** 2
        res, *_ = _run_pinned("tarski-r2-size3")
        spec = PINNED_COUNTS["tarski-r2-size3"][1]
        assert res.instances == sum(3 ** len(free_vars(s)) for s in spec.must_hold)

    @pytest.mark.parametrize("model_id", list_models())
    def test_agrees_with_holds(self, model_id):
        # and where the check is False, its blame ORs the mask of every cell
        # the check read, here a bit of its own per cell, and of no other
        a = build_model(model_id)
        n, cells = a.size, _cells(a)
        bits = [1 << k for k in range(len(cells))]
        every_region = set(_layout(n)[:-1])
        for text in (*AXIOM_TEXT.values(), *EXTRA_SENTENCES):
            s = parse_sentence(text)
            names = sorted(free_vars(s))
            plain, blame = _compile(s, n, names, set())
            folded, folded_blame = _compile(s, n, names, every_region)
            for values in product(range(n), repeat=len(names)):
                want = holds(a, s, dict(zip(names, values)))
                watch = _Recorder()
                assert plain(cells, watch, None, 0, values) is want, (text, values)
                assert watch.reads
                if want is False:
                    assert blame(cells, bits, values) == sum(bits[k] for k in
                                                             set(watch.reads))
                    assert folded_blame(cells, bits, values) == 0
                watch = _Recorder()
                assert folded(cells, watch, None, 0, values) is want, (text, values)
                assert watch.reads == []

    def test_watch_holds_each_instance_once(self, engine, monkeypatch):
        # a recheck re-subscribes its instance to every cell it read; the
        # cell must replace the instance's old entry rather than add one.
        # The must-fail scans, which pass no instance, subscribe nowhere in
        # the engine's watch, or a recheck would count their False as a
        # conflict
        refute, engines, scans = engine._Engine.refute, set(), []

        def spy_refute(eng, resume):
            out = refute(eng, resume)
            engines.add(eng)
            scans.append(resume)
            assert not any(None in watchers for watchers in eng.watch)
            return out
        monkeypatch.setattr(engine._Engine, "refute", spy_refute)
        spec = SearchSpec(8, _axioms(i for i in TARSKI if i != "R9"),
                          _axioms(("R9",)), up_to_iso=True, node_limit=1000)
        assert not boolean_guided_search(spec).exhaustive
        assert len(scans) > 500
        (eng,) = engines
        for watchers in eng.watch:
            held = list(watchers)
            assert all(type(inst) is int and 0 <= inst < len(eng.checks)
                       for inst in held)
            assert len(set(held)) == len(held)

    @pytest.mark.parametrize("runner, spec", [
        # the mixed search prunes every branch before a leaf, and search8
        # refutes every one; without must-fail, search8 reaches 10 classes
        *((runner, replace(spec, node_limit=nodes))
          for name, (runner, spec, nodes, *_) in PINNED_COUNTS.items()
          if name not in ("mixed-r4-size4", "rsys-r9-symmetric-size8")),
        (boolean_guided_search, replace(_search8_spec(), must_fail=())),
        *((search, spec) for spec in ORACLE_SPECS),
        # the last guided row is violated at the root and reaches no leaf
        *((boolean_guided_search, spec) for spec in GUIDED_ORACLE_SPECS[:-1])])
    def test_leaves_satisfy_every_instance(self, runner, spec, engine, monkeypatch):
        # a propagating search checks nothing at a leaf, so its watchers
        # must already have seen every instance hold on the leaf's cells
        snapshot, leaves = engine._Engine.snapshot, []

        def spy(eng):
            for inst, (check, values) in enumerate(zip(eng.checks, eng.values)):
                held = check(eng.cells, _Recorder(), inst, 0, values)
                assert held is True, inst
            leaves.append(eng)
            return snapshot(eng)
        monkeypatch.setattr(engine._Engine, "snapshot", spy)
        assert runner(spec).exhaustive
        assert leaves

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_each_step_checks_an_instance_once(self, name, engine, monkeypatch):
        # from the plan's root state every must-hold check is a recheck in
        # set_cell, none of them repeated within a step, and a leaf checks
        # no must-hold instance; the must-fail scans pass no instance and
        # are not counted.
        # The cache is cleared around the run, so that every checker is
        # compiled through the counting wrapper and none outlives the test
        compile_, set_cell = engine._compile, engine._Engine.set_cell
        snapshot = engine._Engine.snapshot
        checked, rechecks = [], []  # since the last step; in every step

        def counting_compile(*args):
            check, blame = compile_(*args)

            def counted(cells, watch, inst, ver, values):
                if inst is not None:
                    checked.append(inst)
                return check(cells, watch, inst, ver, values)
            return counted, blame

        def spy_set_cell(eng, *args):
            checked.clear()
            ok = set_cell(eng, *args)
            assert len(set(checked)) == len(checked)
            rechecks.extend(checked)
            checked.clear()
            return ok

        def spy_snapshot(eng):
            assert checked == []
            return snapshot(eng)
        monkeypatch.setattr(engine, "_compile", counting_compile)
        monkeypatch.setattr(engine._Engine, "set_cell", spy_set_cell)
        monkeypatch.setattr(engine._Engine, "snapshot", spy_snapshot)
        res, _, pinned, *_ = _run_pinned(name)
        assert res.exhaustive
        assert len(rechecks) == res.rechecks == pinned

    def test_every_read_cell_is_watched(self, engine, monkeypatch):
        # what lets a step stop at its first violated instance: after a
        # successful step and after an undo, every instance is subscribed at
        # its current version to each cell its check reads, including the
        # watchers a failed step did not reach; two pinned trees, since
        # nogoods leave tarski-r7-size4 fewer steps than the floor
        set_cell, undo = engine._Engine.set_cell, engine._Engine.undo
        checked = []

        def assert_subscribed(eng):
            checked.append(eng)
            for inst, (check, values) in enumerate(zip(eng.checks, eng.values)):
                watch = _Recorder()
                check(eng.cells, watch, inst, 0, values)
                for k in watch.reads:
                    assert eng.watch[k].get(inst) == eng.version[inst], (inst, k)

        def spy_set_cell(eng, cell, value, trail):
            culprit = set_cell(eng, cell, value, trail)
            if culprit is None:
                assert_subscribed(eng)
            return culprit

        def spy_undo(eng, trail):
            undo(eng, trail)
            assert_subscribed(eng)
        monkeypatch.setattr(engine._Engine, "set_cell", spy_set_cell)
        monkeypatch.setattr(engine._Engine, "undo", spy_undo)
        for name in ("tarski-r7-size4", "tarski-r2-size3"):
            res, *_ = _run_pinned(name)
            assert res.exhaustive
        assert len(checked) > 2500

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_conflict_sets_violate_their_culprit(self, name, engine, monkeypatch):
        # a conflict set must be enough to violate its culprit on its own;
        # equal counts alone would not show a wrong culprit or set
        plan, conflicts = _conflict_sets(name, engine, monkeypatch)
        assert conflicts
        assert _insufficient(plan, conflicts) == []
        # and each holds the failed node's own position, the deepest decided
        # one, so a failed step is never a jump
        for _, _, cells, found in conflicts:
            deepest = max(p for p, c in enumerate(plan.variables)
                          if cells[c] is not None)
            assert found.bit_length() - 1 == deepest

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_a_set_without_its_highest_position_is_caught(self, name, engine,
                                                          monkeypatch):
        # the check above fails a blame that drops the latest decision
        def drop_highest(found):
            return found & ~(1 << found.bit_length() - 1) if found else found
        plan, conflicts = _conflict_sets(name, engine, monkeypatch, drop_highest)
        assert conflicts
        assert _insufficient(plan, conflicts)

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_stored_nogoods_hold_no_model(self, name, engine, monkeypatch):
        # a stored set lies below no cut, refutation or leaf, so it rules
        # out tables, not labelings: no table that agrees with it satisfies
        # the must-hold sentences.  search8 refutes every branch and stores
        # nothing
        nogoods = _offered_nogoods(name, engine, monkeypatch)
        assert bool(nogoods) is (name != "rsys-r9-symmetric-size8")
        for nogood in nogoods:
            res = _replay(name, nogood, engine, monkeypatch)
            assert res.exhaustive and res.labeled_count == 0, nogood

    @pytest.mark.parametrize("name", ["tarski-r2-size3", "tarski-r7-size4"])
    def test_a_nogood_without_a_position_is_caught(self, name, engine,
                                                   monkeypatch):
        # the replay above finds a model below some set that lost its
        # lowest position
        def drop_lowest(found):
            return found & (found - 1) or found
        nogoods = _offered_nogoods(name, engine, monkeypatch, drop_lowest)
        assert any(_replay(name, nogood, engine, monkeypatch).labeled_count
                   for nogood in nogoods)

    def test_blocking_rules(self):
        a = build_model("m3")
        n = a.size
        comp0 = _layout(n)[4]
        cells = _cells(a)
        cells[comp0:comp0 + n * n] = [None] * (n * n)
        r4, _ = _compile(axiom_sentence("R4"), n, ["r", "s", "t"], set())
        quasi, _ = _compile(parse_sentence("r;s = r, r+s = r, (r;s)^ = s -> r = s"),
                            n, ["r", "s"], set())
        bicond, _ = _compile(parse_sentence("r;s = r <-> r+s = r"), n, ["r", "s"],
                             set())
        for r, s, t in product(range(n), repeat=3):
            watch = _Recorder()
            assert r4(cells, watch, None, 0, (r, s, t)) is None
            # r;(s;t) reads s;t first, and nothing after it
            assert watch.reads == [comp0 + s * n + t]
        for r, s in product(range(n), repeat=2):
            # a blocked antecedent does not stop a later false one
            watch = _Recorder()
            want = True if a.add[r][s] != r else None
            assert quasi(cells, watch, None, 0, (r, s)) is want
            assert comp0 + r * n + s in watch.reads
            # a blocked left side is not followed by the right side
            watch = _Recorder()
            assert bicond(cells, watch, None, 0, (r, s)) is None
            assert watch.reads == [comp0 + r * n + s]


def _conflict_sets(name, engine, monkeypatch, change=None):
    """Run a pinned search and record every conflict set it computes, each
    as (the culprit's check, its values, the cells it failed on, the set),
    where ``change``, if given, alters each set before the search uses it.
    Returns the search's plan and the records."""
    compile_, conflicts = engine._compile, []

    def recording(*args):
        check, blame = compile_(*args)

        def recorded(cells, mask, values):
            found = blame(cells, mask, values)
            if change is not None:
                found = change(found)
            conflicts.append((check, values, list(cells), found))
            return found
        return check, recorded
    monkeypatch.setattr(engine, "_compile", recording)
    runner, spec, *_ = PINNED_COUNTS[name]
    _run_pinned(name)
    return _plan_of(runner, spec, engine, monkeypatch), conflicts


def _insufficient(plan, conflicts):
    """The recorded conflicts whose culprit is not violated on the cells
    rebuilt from the set alone: the decision cells at its positions, the
    preset cells, and the derived cells that follow from them.  Each culprit
    must also be violated on the cells it failed on."""
    bad = []
    for check, values, cells, found in conflicts:
        assert check(cells, _Recorder(), None, 0, values) is False
        rebuilt = list(plan.cells)
        for p, c in enumerate(plan.variables):
            if found >> p & 1:
                rebuilt[c] = cells[c]
        fired = True
        while fired:
            fired = False
            for target, deps in plan.derived:
                if rebuilt[target] is None and None not in map(rebuilt.__getitem__,
                                                               deps):
                    rebuilt[target] = reduce(or_, map(rebuilt.__getitem__, deps))
                    fired = True
        if check(rebuilt, _Recorder(), None, 0, values) is not False:
            bad.append((values, found))
    return bad


def _offered_nogoods(name, engine, monkeypatch, change=None):
    """Run a pinned search and record every conflict set it offers to store
    as a nogood, each as {decision cell: value} over the set's positions,
    where ``change``, if given, alters each set before the search stores
    it."""
    learn, nogoods = engine._Engine.learn, []

    def recording(eng, found):
        if change is not None:
            found = change(found)
        nogoods.append({c: eng.cells[c] for p, c in enumerate(eng.plan.variables)
                        if found >> p & 1})
        learn(eng, found)
    with monkeypatch.context() as m:
        m.setattr(engine._Engine, "learn", recording)
        _run_pinned(name)
    return nogoods


def _replay(name, nogood, engine, monkeypatch):
    """The pinned search's must-hold sentences alone, searched labeled with
    the nogood's cells preset, and each derived cell whose deps that fixes
    preset too; the must-fail sentences and the relabelings are dropped, so
    a model anywhere below the nogood is found."""
    runner, spec, *_ = PINNED_COUNTS[name]
    which = "_guided_rules" if runner is boolean_guided_search else "_generic_rules"
    rules = getattr(engine, which)

    def fixing(n, must_hold):
        preset, derived, _ = rules(n, must_hold)
        cells, kept = dict(preset) | nogood, []
        for target, deps in derived:
            if all(d in cells for d in deps):
                cells[target] = reduce(or_, (cells[d] for d in deps))
            else:
                kept.append((target, deps))
        return list(cells.items()), kept, ()
    with monkeypatch.context() as m:
        m.setattr(engine, which, fixing)
        return runner(replace(spec, must_fail=(), up_to_iso=False))


def _counting_compile(engine, monkeypatch):
    """Route the engine's compiles through a wrapper; returns the list of
    (sentence, size, folded regions) it compiled, in order."""
    compile_, compiled = engine._compile, []

    def counting(s, n, names, folded):
        compiled.append((s, n, folded))
        return compile_(s, n, names, folded)
    monkeypatch.setattr(engine, "_compile", counting)
    return compiled


def _plan_of(runner, spec, engine, monkeypatch):
    """The plan ``runner`` passes to ``_run`` for ``spec``; nothing runs."""
    built = []
    with monkeypatch.context() as m:
        m.setattr(engine, "_run", lambda spec, plan: built.append(plan))
        runner(spec)
    (plan,) = built
    return plan


def _plan_key(runner, spec, engine, monkeypatch):
    """The inputs ``runner`` builds its plan from for ``spec``; nothing runs."""
    keys = []
    with monkeypatch.context() as m:
        m.setattr(engine, "_plan", lambda *key: keys.append(key))
        m.setattr(engine, "_run", lambda spec, plan: None)
        runner(spec)
    (key,) = keys
    return key


def _every_instance_evaluated(plan, sentences):
    """Every instance of ``sentences`` evaluated once, in turn, on the
    plan's preset cells, as an engine without the root-state cache would
    lay them out, each instance named (sentence index, values): the
    verdict, each cell's watchers in order, and the instances that hold
    and subscribe nowhere."""
    n, cells = plan.n, plan.cells
    regions = zip(_layout(n)[:-1], (1, n, n, n * n, n * n))
    folded = {base for base, size in regions if None not in cells[base:base + size]}
    watch = [{} for _ in cells]
    verdict, free = True, set()
    for i, s in enumerate(sentences):
        names = sorted(free_vars(s))
        check, _ = _compile(s, n, names, folded)
        for values in product(range(n), repeat=len(names)):
            held = check(cells, watch, (i, values), 0, values)
            verdict = verdict and held is not False
            if held is True and all((i, values) not in w for w in watch):
                free.add((i, values))
    return verdict, [list(w) for w in watch], free


# must-hold sentences read on the guided search's preset Boolean part: a
# quasi-equation whose instances with r+s != r hold there after reading the
# undecided cell comp[r][s], so they are kept, and an equation false there,
# so the root is violated; and must-fail sentences false and true there
PRESET_VIOLATED = (boolean_guided_search, SearchSpec(
    4, _axioms(("R1", "R2", "R3")) + (parse_sentence("r;s = r, r+s = r -> r = s"),
                                      parse_sentence("r+s = r")),
    (parse_sentence("r+s = r"), parse_sentence("r+s = s+r"))))


class TestCheckerCache:
    @pytest.mark.parametrize("runner, spec, verdict", [
        *(pytest.param(*PINNED_COUNTS[name][:2], True, id=name)
          for name in sorted(PINNED_COUNTS)),
        pytest.param(*PRESET_VIOLATED, False, id="preset-violated")])
    def test_root_state_matches_evaluating_every_instance(self, runner, spec,
                                                          verdict, engine,
                                                          monkeypatch):
        # the plan lays out the cached root state; it must match evaluating
        # every instance: the same verdict, each cell's watchers in the same
        # order at version 0, and only the instances that hold and subscribe
        # nowhere dropped.  A run starts from a copy of it
        plan = _plan_of(runner, spec, engine, monkeypatch)
        evaluated, watch, free = _every_instance_evaluated(plan, spec.must_hold)
        assert (not plan.violated) is evaluated is verdict
        kept = list(zip(plan.owner, plan.values))
        assert [[kept[inst] for inst in w] for w in plan.watch] == watch
        assert all(ver == 0 for w in plan.watch for ver in w.values())
        eng = engine._Engine(plan, len(spec.must_hold))
        assert eng.watch == plan.watch and eng.cells == plan.cells
        assert not any(a is b for a, b in zip(eng.watch, plan.watch))
        assert eng.version == [0] * len(kept)
        every = [(i, values) for i, s in enumerate(spec.must_hold)
                 for values in product(range(spec.size),
                                       repeat=len(free_vars(s)))]
        assert kept == [inst for inst in every if inst not in free]
        # a must-fail instance false on the preset is a witness and is kept
        for s, (_, values) in zip(spec.must_fail, plan.refuters):
            _, _, free = _every_instance_evaluated(plan, (s,))
            every = product(range(spec.size), repeat=len(free_vars(s)))
            assert list(values) == [v for v in every if (0, v) not in free]

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_instance_values_fit_their_checker(self, name, engine, monkeypatch):
        # the engine passes an instance's values to its checker unchanged,
        # and the checker unpacks them into the sentence's free variables
        runner, spec, *_ = PINNED_COUNTS[name]
        plan = _plan_of(runner, spec, engine, monkeypatch)
        arity = [len(free_vars(s)) for s in spec.must_hold]
        assert plan.values and len(plan.values) == len(plan.owner)
        assert all(type(v) is tuple and len(v) == arity[i]
                   for v, i in zip(plan.values, plan.owner))
        assert len(plan.refuters) == len(spec.must_fail)
        for s, (_, values) in zip(spec.must_fail, plan.refuters):
            assert all(type(v) is tuple and len(v) == len(free_vars(s))
                       for v in values)

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_warm_cache_changes_nothing(self, name, engine, monkeypatch):
        # the same search from cleared caches, again warm, and again after
        # a search of its sentences at another size: one result, with the
        # pinned counts each time, and the warm run compiles nothing and
        # reuses the plan the cold run built
        compiled = _counting_compile(engine, monkeypatch)
        cold, *counts = _run_pinned(name)
        assert compiled and _plan.cache_info().misses == 1
        compiled.clear()
        warm, *_ = _run_pinned(name)
        assert compiled == [] and _plan.cache_info()[:2] == (1, 1)
        runner, spec, *_ = PINNED_COUNTS[name]
        runner(replace(spec, size=2))
        after, *_ = _run_pinned(name)
        assert cold.exhaustive
        assert cold == warm == after
        assert _counts(warm) == counts
        forms = [[canonical_form(m) for m in res.models]
                 for res in (cold, warm, after)]
        assert forms[0] == forms[1] == forms[2]

    def test_repeated_sentence_keeps_its_own_conflicts(self):
        # the copy shares its sentence's checker but not its count.  R1
        # reads only the preset Boolean part, so its copy is never
        # rechecked and leaves the tree as it was
        runner, spec, *_ = PINNED_COUNTS["tarski-r7-size4"]
        assert axiom_sentence("R1") in spec.must_hold
        repeated = replace(spec, must_hold=spec.must_hold + (axiom_sentence("R1"),))
        base, res = runner(spec), runner(repeated)
        assert len(res.conflicts) == len(repeated.must_hold)
        assert res.conflicts == base.conflicts + (0,)
        assert (res.nodes_explored, res.rechecks) == (base.nodes_explored,
                                                      base.rechecks)

    def test_suite_compiles_each_checker_once(self, engine, monkeypatch):
        # its searches fetch 147 checkers, 63 of them distinct; a second
        # suite reuses every plan and compiles none
        compiled = _counting_compile(engine, monkeypatch)
        run_verification_suite()
        assert len(compiled) == len(set(compiled)) == 63
        compiled.clear()
        run_verification_suite()
        assert compiled == []

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_runs_leave_their_plan_as_built(self, name, engine, monkeypatch):
        # a run changes only its own copy of the root state, so after two
        # runs the cached plan still equals one built afresh
        plan_, keys = engine._plan, []
        monkeypatch.setattr(engine, "_plan",
                            lambda *key: keys.append(key) or plan_(*key))
        _run_pinned(name)
        _run_pinned(name)
        assert keys[0] == keys[1] and plan_.cache_info().misses == 1
        assert vars(plan_(*keys[0])) == vars(engine._Plan(*keys[0]))

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_plan_inputs_survive_pickling(self, name, engine, monkeypatch):
        # a worker process sent a plan's inputs builds the plan the cache
        # holds from them
        runner, spec, *_ = PINNED_COUNTS[name]
        key = _plan_key(runner, spec, engine, monkeypatch)
        sent = pickle.loads(pickle.dumps(key))
        assert sent == key
        assert vars(engine._Plan(*sent)) == vars(_plan(*key))

    @pytest.mark.parametrize("name, iso_nodes", [
        pytest.param("tarski-size4", 200, id="tarski-size4"),
        pytest.param("tarski-minus-r2-size2", 39, id="tarski-minus-r2-size2")])
    def test_labeled_and_iso_runs_share_one_plan(self, name, iso_nodes):
        # the plan keeps its relabelings' image sources, which only the iso
        # run reads, so both runs of one problem build one plan
        runner, spec, nodes, classes, labelings = SYMMETRY_ORACLE_SPECS[name]
        iso = runner(replace(spec, up_to_iso=True, node_limit=iso_nodes))
        labeled = runner(replace(spec, up_to_iso=False, node_limit=nodes))
        assert _plan.cache_info()[:2] == (1, 1)  # hits, misses
        assert iso.exhaustive and labeled.exhaustive
        assert (iso.nodes_explored, labeled.nodes_explored) == (iso_nodes, nodes)
        assert iso.symmetry_cuts > 0 and labeled.symmetry_cuts == 0
        for res in (iso, labeled):
            assert (res.iso_class_count, res.labeled_count) == (classes, labelings)


def _nodes(x):
    """Every term and sentence node of ``x``, ``x`` first."""
    yield x
    for f in fields(x):
        value = getattr(x, f.name)
        for child in value if type(value) is tuple else (value,):
            if not isinstance(child, str):
                yield from _nodes(child)


class TestSentenceHash:
    # every plan lookup hashes its sentences; each node keeps the hash its
    # first hash() computes, and a pickled node leaves it behind
    SENTENCES = (*AXIOM_TEXT.values(), *EXTRA_SENTENCES)

    @pytest.mark.parametrize("text", SENTENCES)
    def test_separate_parses_are_equal_and_hash_equal(self, text):
        a, b = parse_sentence(text), parse_sentence(text)
        assert a is not b and a == b and hash(a) == hash(b)
        assert [hash(x) for x in _nodes(a)] == [hash(x) for x in _nodes(b)]

    @pytest.mark.parametrize("text", SENTENCES)
    def test_second_hash_does_not_recurse(self, text):
        s = parse_sentence(text)
        first, calls = hash(s), []
        profile = sys.getprofile()
        sys.setprofile(lambda frame, event, arg: event == "call"
                       and calls.append(frame.f_code.co_name))
        try:
            second = hash(s)
        finally:
            sys.setprofile(profile)
        assert second == first
        assert calls.count("__hash__") == 1  # the node's own, no child's

    @pytest.mark.parametrize("text", SENTENCES)
    def test_pickled_sentence_carries_no_cached_hash(self, text):
        s = parse_sentence(text)
        hash(s)
        assert all("_hash" in vars(x) for x in _nodes(s))
        sent = pickle.loads(pickle.dumps(s))
        assert sent == s
        assert not any("_hash" in vars(x) for x in _nodes(sent))
        assert hash(sent) == hash(s)


# specs for the up-to-iso against labeled cross-check: (runner, spec, nodes
# of the labeled run, which is the budget of both runs, iso classes,
# labelings); every one has a nontrivial symmetry group
SYMMETRY_ORACLE_SPECS = {
    # no must-fail, so both runs reach leaves; S3 acts at masks 0 and 7
    "rsys-symmetric-size8": (boolean_guided_search,
                             replace(_search8_spec(), must_fail=()),
                             2803, 10, 329280),
    "tarski-size4": (boolean_guided_search, SearchSpec(4, _axioms(TARSKI)),
                     292, 3, 60),
    "rsys-size4": (boolean_guided_search, SearchSpec(4, _axioms(R_SYS)),
                   203, 3, 60),
    # R8 and R8p both held: comp is derived from {0, atoms}^2
    "ssys-size4": (boolean_guided_search, SearchSpec(4, _axioms(S_SYS)),
                   616, 3, 60),
    "ssys-r7-size4": (boolean_guided_search,
                      SearchSpec(4, _axioms(S_SYS), _axioms(("R7",))),
                      616, 0, 0),
    # the generic search with R1 held, which derives add[j][i] from add[i][j]
    "tarski-minus-r2-size2": (search,
                              SearchSpec(2, _axioms(i for i in TARSKI if i != "R2")),
                              60, 1, 2),
    **{name: (*PINNED_COUNTS[name][:2], nodes, classes, labelings)
       for name, nodes, classes, labelings in (
           ("rsys-r9-symmetric-size8", 73, 0, 0),
           ("tarski-r2-size3", 1458, 1, 6),
           ("tarski-r7-size4", 517, 2, 48),
           ("mixed-r4-size4", 495, 0, 0))},
}


def _vmaps(plan):
    """The value maps of the plan's relabelings, in order."""
    return [vmap for _, vmap, _ in plan.tied]


def _least_identities(runner, n):
    """The least identity of each orbit of the relabelings ``runner`` keeps:
    element 0 under every permutation, and the least mask of each atom
    count (0, 1, 3, 7, ...) under the atom permutations."""
    if runner is search:
        return [0]
    return [(1 << k) - 1 for k in range(n.bit_length())]


def _root_survivors(runner, spec, engine, monkeypatch):
    """The identities that pass the lex-leader comparison at the identity
    cell, the first decision, and how many it cut.  Every step below the
    root is failed, by a culprit that read every decided cell, so that no
    node jumps back over the identity and each surviving identity costs
    one node."""
    set_cell, survivors = engine._Engine.set_cell, []

    def spy(eng, cell, value, trail):
        ident = eng.plan.ident_cell
        if cell == ident:
            return set_cell(eng, cell, value, trail)
        if eng.cells[ident] not in survivors:
            survivors.append(eng.cells[ident])
        return 0

    def every_position(eng, culprit):
        return (1 << len(eng.plan.variables)) - 1
    with monkeypatch.context() as m:
        m.setattr(engine._Engine, "set_cell", spy)
        m.setattr(engine._Engine, "blame", every_position)
        res = runner(spec)
    assert res.exhaustive
    return survivors, res.symmetry_cuts


class TestDecisionOrder:
    # the cell layout: at size 3 ident 0, neg 1-3, conv 4-6, add 7-15 and
    # comp 16-24; at size 4 ident 0, neg 1-4, conv 5-8, add 9-24 and comp
    # 25-40, where the guided search presets neg and add
    @pytest.mark.parametrize("runner, size, held, order", [
        # every cell, in layout order
        (search, 3, (), list(range(25))),
        (boolean_guided_search, 4, (), [0, 5, 6, 7, 8, *range(25, 41)]),
        # R1 derives add[1][0], add[2][0] and add[2][1] (cells 10, 13, 14)
        # from add[0][1], add[0][2] and add[1][2]
        (search, 3, ("R1",), [*range(10), 11, 12, *range(15, 25)]),
        # R8 derives comp row 3 (= 1 + 2) from rows 1 and 2; the free rows
        # are decided column by column, so each derived cell completes after
        # the three cells of its column
        (boolean_guided_search, 4, ("R8",),
         [0, 5, 6, 7, 8, 25, 29, 33, 26, 30, 34, 27, 31, 35, 28, 32, 36]),
        # R8p derives comp column 3 of each row from columns 1 and 2
        (boolean_guided_search, 4, ("R8p",),
         [0, 5, 6, 7, 8, 25, 26, 27, 29, 30, 31, 33, 34, 35, 37, 38, 39]),
        # both: R8 derives row 3 and R8p column 3 of rows 0, 1 and 2, so
        # comp is decided on rows and columns {0, 1, 2}, row by row
        (boolean_guided_search, 4, ("R8", "R8p"),
         [0, 5, 6, 7, 8, 25, 26, 27, 29, 30, 31, 33, 34, 35]),
        # R9 derives the converse of 3 from those of 1 and 2
        (boolean_guided_search, 4, ("R9",), [0, 5, 6, 7, *range(25, 41)]),
    ])
    def test_decision_order(self, runner, size, held, order, engine, monkeypatch):
        boolean = ("R1", "R2", "R3") if runner is boolean_guided_search else ()
        spec = SearchSpec(size, _axioms(boolean + held), up_to_iso=True)
        assert _plan_of(runner, spec, engine, monkeypatch).variables == order


class TestDerivedCells:
    @pytest.mark.parametrize("rules", [_generic_rules, _guided_rules])
    def test_rules_are_data(self, rules):
        # a pure function of the size and the held laws, given no plan: it
        # returns the preset (cell, value) pairs, the derived (target, deps)
        # rules and the relabelings, the same on every call
        assert list(inspect.signature(rules).parameters) == ["n", "must_hold"]
        held = _axioms(("R1", "R2", "R3", "R8", "R9"))
        preset, derived, relabelings = rules(4, held)
        assert (preset, derived, relabelings) == rules(4, held)
        assert derived and relabelings
        assert all(v is not None for _, v in preset)
        assert all(t not in deps for t, deps in derived)

    @pytest.mark.parametrize("runner, size, held", [
        (search, 3, ("R1",)),
        (search, 4, ("R1",)),
        (boolean_guided_search, 4, ("R8",)),
        (boolean_guided_search, 4, ("R8p",)),
        (boolean_guided_search, 4, ("R8", "R8p")),
        (boolean_guided_search, 8, ("R8", "R8p", "R9")),
    ])
    def test_relabelings_keep_the_rules(self, runner, size, held, engine, monkeypatch):
        # what lex-leader needs of the relabelings: each maps a table that
        # satisfies the rules to one that does too, so the image of a rule
        # is a rule (a copy, with one dependency, read either way; the
        # guided relabelings also keep OR, see test_guided_symmetries).  And
        # each derived cell has one rule and follows from the decided cells
        boolean = ("R1", "R2", "R3") if runner is boolean_guided_search else ()
        spec = SearchSpec(size, _axioms(boolean + held), up_to_iso=True)
        plan = _plan_of(runner, spec, engine, monkeypatch)
        symmetries = [_relabeling(size, vmap) for vmap in _vmaps(plan)]
        rules = {(t, frozenset(deps)) for t, deps in plan.derived}
        targets = {t for t, _ in rules}
        assert symmetries and rules and len(targets) == len(rules)
        for src, _ in symmetries:
            for t, deps in rules:
                d, *more = deps
                assert ((src[t], frozenset(src[e] for e in deps)) in rules or
                        not more and (src[d], frozenset({src[t]})) in rules)
        known = set(plan.variables)
        known |= {c for c, v in enumerate(plan.cells) if v is not None}
        assert not known & targets
        while fired := {t for t, deps in rules if t not in known and deps <= known}:
            known |= fired
        assert targets <= known

    @pytest.mark.parametrize("name", ["tarski-minus-r2-size2", "tarski-r2-size3",
                                      "tarski-size4", "rsys-size4",
                                      "ssys-size4", "ssys-r7-size4"])
    def test_rules_lose_no_model(self, name, engine, monkeypatch):
        # every table that satisfies the held laws satisfies the rules, so
        # a search that decides the derived cells instead finds the same
        # classes, on a larger tree
        runner, spec, _, classes, labelings = SYMMETRY_ORACLE_SPECS[name]
        spec = replace(spec, up_to_iso=True)
        derived = runner(spec)

        def underived(rules):
            def without_derived(n, must_hold):
                preset, _, relabelings = rules(n, must_hold)
                return preset, [], relabelings
            return without_derived
        # new rules, so a new plan: the cached one has the derived cells
        for rules in ("_generic_rules", "_guided_rules"):
            monkeypatch.setattr(engine, rules, underived(getattr(engine, rules)))
        decided = runner(spec)
        assert derived.exhaustive and decided.exhaustive
        assert _forms(derived.models) == _forms(decided.models)
        assert (derived.iso_class_count, derived.labeled_count) == (classes, labelings)
        assert (decided.iso_class_count, decided.labeled_count) == (classes, labelings)
        assert derived.nodes_explored < decided.nodes_explored


class TestSymmetryBreaking:
    @pytest.mark.parametrize("name", sorted(SYMMETRY_ORACLE_SPECS))
    def test_iso_run_agrees_with_labeled_run(self, name):
        runner, spec, nodes, classes, labelings = SYMMETRY_ORACLE_SPECS[name]
        iso = runner(replace(spec, up_to_iso=True, node_limit=nodes))
        labeled = runner(replace(spec, up_to_iso=False, node_limit=nodes))
        assert iso.exhaustive and labeled.exhaustive
        assert labeled.nodes_explored == nodes
        assert iso.symmetry_cuts > 0 and labeled.symmetry_cuts == 0
        assert _forms(iso.models) == sorted({canonical_form(m)
                                             for m in labeled.models})
        assert iso.iso_class_count == labeled.iso_class_count == classes
        assert iso.labeled_count == labeled.labeled_count == labelings
        # the labeled run lists each class once per relabeling its fixed
        # part allows: all n! for the generic search, the k! atom
        # permutations for the guided one
        n = spec.size
        group = math.factorial(n if runner is search else (n - 1).bit_length())
        assert len(labeled.models) == sum(group // automorphism_count(m)
                                          for m in iso.models)
        # the lex-leader comparison at the identity cell keeps only the
        # least identity of each orbit
        least = _least_identities(runner, n)
        assert all(m.ident in least for m in iso.models)

    @pytest.mark.parametrize("n, fixing", [(1, [0]), (2, [0, 0]),
                                           (4, [1, 0, 1]), (8, [5, 1, 1, 5])])
    def test_guided_symmetries(self, n, fixing, engine, monkeypatch):
        # every Boolean automorphism but the identity map; those fixing a
        # least identity act below it, and the others map it higher, so they
        # drop out at the identity cell without cutting
        spec = SearchSpec(n, _axioms(("R1", "R2", "R3")), up_to_iso=True)
        vmaps = _vmaps(_plan_of(boolean_guided_search, spec, engine, monkeypatch))
        least = _least_identities(boolean_guided_search, n)
        top = n - 1
        k = top.bit_length()
        assert len(vmaps) == math.factorial(k) - 1
        assert len(set(vmaps)) == len(vmaps)
        for vmap in vmaps:
            assert sorted(vmap) == list(range(n)) != list(vmap)
            for x, y in product(range(n), repeat=2):
                assert vmap[x | y] == vmap[x] | vmap[y]
                assert vmap[x ^ top] == vmap[x] ^ top
            assert all(vmap[rep] >= rep for rep in least)
        assert [sum(vmap[rep] == rep for vmap in vmaps)
                for rep in least] == fixing

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generic_symmetries(self, n, engine, monkeypatch):
        # the adjacent transpositions of all the elements: the swap of v - 1
        # and v maps an identity v > 0 lower, and only the swap of 0 and 1
        # moves identity 0
        spec = SearchSpec(n, (), up_to_iso=True)
        plan = _plan_of(search, spec, engine, monkeypatch)
        want = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
                for i in range(n - 1)]
        assert _vmaps(plan) == want

    @pytest.mark.parametrize("runner, n, least", [
        (boolean_guided_search, 1, [0]), (boolean_guided_search, 2, [0, 1]),
        (boolean_guided_search, 4, [0, 1, 3]),
        (boolean_guided_search, 8, [0, 1, 3, 7]),
        (search, 1, [0]), (search, 2, [0]), (search, 3, [0])])
    def test_identity_survives_when_least_in_its_orbit(self, runner, n, least,
                                                       engine, monkeypatch):
        # R1-R3 read no identity cell, so every identity passes its step and
        # the root comparison alone decides which go on
        assert _least_identities(runner, n) == least
        spec = SearchSpec(n, _axioms(("R1", "R2", "R3")), up_to_iso=True)
        assert _root_survivors(runner, spec, engine, monkeypatch) == \
            (least, n - len(least))
        # a labeled run keeps every identity
        assert _root_survivors(runner, replace(spec, up_to_iso=False),
                               engine, monkeypatch) == (list(range(n)), 0)

    @pytest.mark.parametrize("runner, model_id", [
        (search, "a2"), (boolean_guided_search, "a9")])
    def test_image_sources_relabel_every_cell(self, runner, model_id,
                                              engine, monkeypatch):
        # each cell of the relabeled tables is the value map applied to the
        # cell it is read from; the plan keeps those of the decision cells
        a = build_model(model_id)
        spec = SearchSpec(a.size, _axioms(("R1", "R2", "R3")), up_to_iso=True)
        plan = _plan_of(runner, spec, engine, monkeypatch)
        assert plan.tied
        cells = _cells(a)
        for src, vmap, _ in plan.tied:
            image = _cells(relabel(a, vmap))
            every, _ = _relabeling(a.size, vmap)
            assert image == [vmap[cells[k]] for k in every]
            assert src == tuple(every[v] for v in plan.variables)


class TestMustFailSemantics:
    def test_each_sentence_fails_individually(self):
        # ask for R5 and R6 to fail separately: models where only one of the
        # two fails must be rejected
        spec = SearchSpec(2, (), _axioms(("R5", "R6")))
        for m in search(spec).models[:50]:
            from relalg.terms import check_validity
            assert check_validity(m, axiom_sentence("R5")) is not None
            assert check_validity(m, axiom_sentence("R6")) is not None

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_refuting_early_matches_refuting_at_leaves(self, name,
                                                       engine, monkeypatch):
        # without propagation no scan runs and check_validity filters each
        # leaf, but no pinned spec finishes without propagation; so the
        # reference here propagates and holds the scan to leaves, where
        # every cell is decided, and must keep the same classes on a tree
        # no smaller
        early, *_ = _run_pinned(name)
        runner, spec, *_ = PINNED_COUNTS[name]
        refute = engine._Engine.refute
        monkeypatch.setattr(engine._Engine, "refute", lambda eng, resume:
                            refute(eng, resume) if None not in eng.cells
                            else resume)
        late = runner(spec)
        assert early.exhaustive and late.exhaustive
        assert _forms(early.models) == _forms(late.models)
        assert early.iso_class_count == late.iso_class_count
        assert early.labeled_count == late.labeled_count
        assert early.nodes_explored <= late.nodes_explored

    @pytest.mark.parametrize("up_to_iso", [True, False])
    def test_sentence_on_preset_cells_is_refuted_at_the_root(self, up_to_iso):
        # R1 reads only the Boolean part, which the guided search presets,
        # so it holds on every instance before the first decision
        spec = SearchSpec(4, _axioms(("R1", "R2", "R3")), _axioms(("R1",)),
                          up_to_iso=up_to_iso)
        res = boolean_guided_search(spec)
        assert res.exhaustive
        assert (res.nodes_explored, res.refuted) == (1, 1)
        assert (res.models, res.labeled_count, res.iso_class_count) == ([], 0, 0)

    def test_must_fail_sentences_decided_on_the_preset(self):
        # r+s = r is false on the preset Boolean part, a witness before the
        # first decision, so it cuts nothing; r+s = s+r holds on every
        # instance there, so the root is refuted
        held = SearchSpec(4, _axioms(TARSKI), up_to_iso=True)
        base = boolean_guided_search(held)
        assert (base.iso_class_count, base.labeled_count,
                base.nodes_explored) == (3, 60, 200)
        res = boolean_guided_search(
            replace(held, must_fail=(parse_sentence("r+s = r"),)))
        assert res.exhaustive and _forms(res.models) == _forms(base.models)
        assert (res.iso_class_count, res.labeled_count, res.nodes_explored,
                res.refuted) == (3, 60, 200, 0)
        res = boolean_guided_search(
            replace(held, must_fail=(parse_sentence("r+s = s+r"),)))
        assert res.exhaustive
        assert (res.nodes_explored, res.iso_class_count, res.refuted) == (1, 0, 1)


class TestBooleanGuidedSearch:
    def test_requires_boolean_axioms(self):
        with pytest.raises(ValueError):
            boolean_guided_search(SearchSpec(2, _axioms(("R1",))))

    def test_non_power_of_two_is_empty(self):
        spec = SearchSpec(3, _axioms(("R1", "R2", "R3")))
        res = boolean_guided_search(spec)
        assert res.labeled_count == 0 and res.exhaustive

    def test_labeled_count_matches_naive_for_size_two(self):
        # guided search fixes the Boolean part, but the orbit-sum labeled
        # count must still equal the raw labeled count over all structures
        spec = SearchSpec(2, _axioms(("R1", "R2", "R3")), _axioms(("R10",)),
                          up_to_iso=True)
        guided = boolean_guided_search(spec)
        raw = naive_enumerate(SearchSpec(2, spec.must_hold, spec.must_fail))
        assert guided.labeled_count == raw.labeled_count

    def test_unreduced_labeled_count_matches_naive(self):
        # without up_to_iso the leaves keep the bitmask Boolean part, but the
        # labeled count must still cover every labeling
        spec = SearchSpec(2, _axioms(TARSKI))
        guided = boolean_guided_search(spec)
        assert guided.labeled_count == naive_enumerate(spec).labeled_count == 2
        assert guided.iso_class_count == 1
        assert len(guided.models) == 1  # only the bitmask labeling

    def test_finds_a7_in_size_four(self):
        res, *_ = _run_pinned("tarski-r7-size4")
        assert res.exhaustive
        assert res.iso_class_count >= 1
        assert any(find_isomorphism(m, a7()) for m in res.models)


class TestUniquenessAtSizeThree:
    def test_r2_model_is_unique(self):
        res, *_ = _run_pinned("tarski-r2-size3")
        assert res.exhaustive
        assert res.iso_class_count == 1
        assert find_isomorphism(res.models[0], a2()) is not None
        assert res.labeled_count == 6  # no symmetry: all 3! relabelings


def _suite_claims():
    return {c.claim_id: c for c in run_verification_suite().claims}


class TestMinimality:
    def test_r2_below_three(self):
        claim = _suite_claims()["paper.s6.r2-minimality"]
        assert claim.status == "pass"
        sizes = claim.evidence["sizes"]
        assert [s["size"] for s in sizes] == [1, 2]
        assert all(s["models"] == 0 and s["exhaustive"] for s in sizes)

    def test_r9_below_eight_skips_non_powers(self, engine, monkeypatch):
        # each search gets the budget the size-4 one needs, 251 nodes, so
        # one that lost its pruning stops there and fails at once
        run = engine._run
        monkeypatch.setattr(engine, "_run", lambda spec, plan:
                            run(replace(spec, node_limit=251), plan))
        claim = _suite_claims()["paper.s11.r9-minimality"]
        sizes = claim.evidence["sizes"]
        assert [s["size"] for s in sizes if s["skipped"] is None] == [1, 2, 4]
        assert [s["size"] for s in sizes if s["skipped"]] == [3, 5, 6, 7]
        assert claim.status == "pass"

    def test_wrong_certificate(self, monkeypatch):
        suite = sys.modules["relalg.report"]
        build = suite.build_model
        monkeypatch.setattr(suite, "build_model",
                            lambda mid: build("m3" if mid == "a2" else mid))
        claim = _suite_claims()["paper.s6.r2-minimality"]
        assert claim.status == "fail"
        assert claim.evidence["certified"] is False


@pytest.mark.long
def test_full_tarski_size8():
    # every Tarski algebra of size 8, on a budget of exactly its pinned
    # nodes; about 0.5 s
    nodes = 6948
    res = boolean_guided_search(SearchSpec(8, _axioms(TARSKI), up_to_iso=True,
                                           node_limit=nodes))
    assert res.exhaustive and res.nodes_explored == nodes
    assert (res.iso_class_count, res.labeled_count) == (13, 389760)
    assert all(satisfies(m, TARSKI) for m in res.models)


# The canonical forms of the four classes R_SYS - R9 + {not R9} has at size
# 8, in the order the finished guided search lists them (44,159 nodes,
# about 3 s on one core; test_acceptance.py, criterion 10); the last is
# b9's class.
RSYS_MINUS_R9_SIZE8 = [
    ("0800010003020504070600010203040605070002020004070407020102010201"
     "0102020202020202020200010203040506070402020404020402070102050205"
     "0107040102060401060207020207020702070001020304050607010202030202"
     "0202020202030202020203030303030303030402020302010202050202030201"
     "020106020203010201020702020302020102"),
    ("0800010003020504070600010203040605070002020004070407020102010201"
     "0102020202020202020200010203040506070402020404020402070102050205"
     "0107040102060401060207020207020702070001020304050607010202030202"
     "0202020202030202020203030303030303030402020302010202050202030201"
     "040106020203010701020702020302020102"),
    ("0800010003020504070600010203040605070002020004070407020102010201"
     "0102020202020202020200010203040506070402020404020402070102050205"
     "0107040102060401060207020207020702070001020304050607010202030207"
     "0402020202030202020203030303030303030402020302010702050402030706"
     "000106070203010005040702020302040102"),
    ("0800010003020504070600010203040605070002020006050605020102010102"
     "0201020202020202020200010203040506070601020404020601050202050205"
     "0205060202060602060205010207010502070001020304050607010202030202"
     "0202020202030202020203030303030303030402020302010201050202030202"
     "020106020203010202020702020301020102"),
]


def _from_form(text):
    """The algebra a canonical form's hex spells: size, ident, neg, conv,
    add, comp."""
    flat = list(bytes.fromhex(text))
    n, ident = flat[0], flat[1]
    neg, conv = flat[2:2 + n], flat[2 + n:2 + 2 * n]
    body = flat[2 + 2 * n:]
    add = [body[i * n:(i + 1) * n] for i in range(n)]
    comp = [body[n * n + i * n:n * n + (i + 1) * n] for i in range(n)]
    return make_algebra(n, add, neg, comp, conv, ident)


def test_rsys_minus_r9_size8_classes():
    # the search's result checked without the search: four distinct classes,
    # each failing exactly R9 within R_SYS, |Aut| = 2 each, so the orbit sum
    # is the 80,640 labelings; only the last is isomorphic to b9
    assert len(set(RSYS_MINUS_R9_SIZE8)) == 4
    models = [_from_form(form) for form in RSYS_MINUS_R9_SIZE8]
    for form, a in zip(RSYS_MINUS_R9_SIZE8, models):
        assert canonical_form(a).hex() == form
        assert failing_axioms(status_vector(a, R_SYS)) == ["R9"]
        assert automorphism_count(a) == 2
    assert sum(math.factorial(8) // automorphism_count(a) for a in models) == 80640
    b9 = build_model("b9")
    assert [find_isomorphism(a, b9) is not None for a in models] == \
        [False, False, False, True]


# a size-8 tree run to the end on a budget of exactly its pinned nodes,
# about 1 s: (system, target axiom, nodes, classes, labelings).  The two R9
# uniqueness trees are checked on the claim suite's own searches
# (test_acceptance.py, criterion 10)
SIZE8_TREES = {
    "tarski-r4": (TARSKI, "R4", 16657, 6, 141120),
}


@pytest.mark.long
@pytest.mark.parametrize("name", sorted(SIZE8_TREES))
def test_size8_tree(name):
    system, target, nodes, classes, labelings = SIZE8_TREES[name]
    res = boolean_guided_search(SearchSpec(
        8, _axioms(i for i in system if i != target), _axioms((target,)),
        up_to_iso=True, node_limit=nodes))
    assert res.exhaustive and res.nodes_explored == nodes
    assert (res.iso_class_count, res.labeled_count) == (classes, labelings)
    assert all(failing_axioms(status_vector(m, system)) == [target]
               for m in res.models)


class TestCustomSentences:
    def test_search_with_hand_written_sentence(self):
        # commutative idempotent add at size 2: add is one of the two
        # semilattice tables (min or max)
        spec = SearchSpec(2, (parse_sentence("r+s = s+r"),
                              parse_sentence("r+r = r")))
        res = search(spec)
        # 2 add tables * 2^2 neg * 2^4 comp * 2^2 conv * 2 ident
        assert res.labeled_count == 2 * 4 * 16 * 4 * 2
        assert res.labeled_count == naive_enumerate(spec).labeled_count
