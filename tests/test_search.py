import math

import pytest

from relalg.algebra import automorphism_count, canonical_form, find_isomorphism
from relalg.axioms import R_SYS, TARSKI, axiom_sentence
from relalg.catalog import a2, a7, build_model
from relalg.search import (SearchSpec, boolean_guided_search, naive_enumerate,
                           search, verify_minimality)
from relalg.terms import parse_sentence


def _axioms(ids):
    return tuple(axiom_sentence(i) for i in ids)


def _forms(models):
    return sorted(canonical_form(m) for m in models)


# three structurally different specs used for the oracle cross-checks
ORACLE_SPECS = [
    SearchSpec(2, _axioms(("R1", "R5"))),
    SearchSpec(2, _axioms(("R1", "R2", "R3")), _axioms(("R10",))),
    SearchSpec(2, _axioms(("R6", "R7")), _axioms(("R5",))),
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


class TestMustFailSemantics:
    def test_each_sentence_fails_individually(self):
        # ask for R5 and R6 to fail separately: models where only one of the
        # two fails must be rejected
        spec = SearchSpec(2, (), _axioms(("R5", "R6")))
        for m in search(spec).models[:50]:
            from relalg.terms import check_validity
            assert check_validity(m, axiom_sentence("R5")) is not None
            assert check_validity(m, axiom_sentence("R6")) is not None


class TestBooleanGuidedSearch:
    def test_requires_boolean_axioms(self):
        with pytest.raises(ValueError):
            boolean_guided_search(SearchSpec(2, _axioms(("R1",))))

    def test_non_power_of_two_is_empty(self):
        spec = SearchSpec(3, _axioms(("R1", "R2", "R3")))
        res = boolean_guided_search(spec)
        assert res.labeled_count == 0 and res.exhaustive

    def test_labeled_count_matches_naive_at_size_two(self):
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

    def test_finds_a7_at_size_four(self):
        spec = SearchSpec(4, _axioms(i for i in TARSKI if i != "R7"),
                          _axioms(("R7",)), up_to_iso=True)
        res = boolean_guided_search(spec)
        assert res.exhaustive
        assert res.iso_class_count >= 1
        assert any(find_isomorphism(m, a7()) for m in res.models)


class TestUniquenessAtSizeThree:
    def test_r2_model_is_unique(self):
        spec = SearchSpec(3, _axioms(i for i in TARSKI if i != "R2"),
                          _axioms(("R2",)), up_to_iso=True)
        res = search(spec)
        assert res.exhaustive
        assert res.iso_class_count == 1
        assert find_isomorphism(res.models[0], a2()) is not None
        assert res.labeled_count == 6  # no symmetry: all 3! relabelings


class TestMinimality:
    def test_r2_below_three(self):
        rep = verify_minimality("R2", TARSKI, 3, a2())
        assert rep.confirmed
        assert [o.size for o in rep.outcomes] == [1, 2]
        assert all(o.model_count == 0 and o.exhaustive for o in rep.outcomes)

    def test_r9_below_eight_skips_non_powers(self):
        rep = verify_minimality("R9", TARSKI, 8, build_model("a9"))
        searched = [o.size for o in rep.outcomes if o.skipped_reason is None]
        skipped = [o.size for o in rep.outcomes if o.skipped_reason]
        assert searched == [1, 2, 4]
        assert skipped == [3, 5, 6, 7]
        assert rep.confirmed

    def test_certificate_required_for_confirmation(self):
        rep = verify_minimality("R2", TARSKI, 3)
        assert not rep.confirmed  # no certificate provided

    def test_wrong_certificate(self):
        rep = verify_minimality("R2", TARSKI, 3, build_model("m3"))
        assert not rep.certified

    def test_size_cap(self):
        with pytest.raises(ValueError):
            verify_minimality("R2", TARSKI, 9)


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
