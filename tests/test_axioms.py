import pytest

from relalg.axioms import (AXIOM_IDS, AXIOM_TEXT, BOOLEAN, R_SYS, S_SYS, TARSKI,
                           AxiomError, axiom_sentence, exists_right_identity,
                           failing_axioms, is_independence_model, satisfies,
                           status_vector)
from relalg.catalog import (a2, a4, a5, a9, a10, b5, b10, boolean_ra, m3,
                            z3_complex)
from relalg.terms import (check_validity, free_vars, parse_sentence,
                          sentence_to_str)


class TestCatalogOfAxioms:
    def test_all_texts_parse_and_print_back(self):
        for axiom_id, text in AXIOM_TEXT.items():
            s = axiom_sentence(axiom_id)
            assert s == parse_sentence(text)
            assert parse_sentence(sentence_to_str(s)) == s

    def test_variables_stay_within_r_s_t(self):
        for axiom_id in AXIOM_IDS:
            assert free_vars(axiom_sentence(axiom_id)) <= {"r", "s", "t"}

    def test_systems(self):
        assert TARSKI == tuple(f"R{n}" for n in range(1, 11))
        assert "R7" not in R_SYS and "R8" not in R_SYS and "R8p" in R_SYS
        assert "R7" not in S_SYS and "R9" not in S_SYS
        assert "R8" in S_SYS and "R8p" in S_SYS

    def test_unknown_axiom(self):
        with pytest.raises(AxiomError):
            axiom_sentence("R99")


class TestStatusVectors:
    def test_relation_algebras_satisfy_everything(self):
        for a in (m3(), z3_complex(), boolean_ra(2)):
            status = status_vector(a, AXIOM_IDS)
            assert failing_axioms(status) == []

    def test_witness_is_reported(self):
        status = status_vector(a2(), TARSKI)
        assert failing_axioms(status) == ["R2"]
        assert status["R2"] == {"r": 1, "s": 1, "t": 2}

    def test_is_independence_model(self):
        assert is_independence_model(a2(), TARSKI, "R2")
        assert not is_independence_model(m3(), TARSKI, "R2")
        with pytest.raises(AxiomError):
            is_independence_model(a2(), TARSKI, "R8p")

    def test_satisfies(self):
        assert satisfies(m3(), TARSKI)
        assert not satisfies(a5(), ("R5",))


def _completely_additive(a):
    """Whether ; and ^ of a finite Boolean algebra are completely additive:
    R8, R8p and R9 with the zero laws (Jonsson and Tarski 1951)."""
    return satisfies(a, BOOLEAN + ("R8", "R8p", "R9")) and all(
        check_validity(a, parse_sentence(t)) is None
        for t in ("0;r = 0", "r;0 = 0", "0^ = 0"))


class TestAtomFormR11:
    """Where ; and ^ are completely additive, R11 holds iff its atom form
    does: s <= r^;t implies t <= r;s for all atoms r, s, t."""

    def test_valid_in_relation_algebras(self):
        for a in (z3_complex(), m3()):
            assert _completely_additive(a) and satisfies(a, ("R11",))

    def test_valid_in_a4(self):
        # associativity fails in a4 but the cycle law holds
        assert _completely_additive(a4()) and satisfies(a4(), ("R11",))

    def test_r11_fails_in_a9_and_b10(self):
        # neither is completely additive: R8p fails in a9, 0;r = 0 in b10
        for a in (a9(), b10()):
            assert not _completely_additive(a)
            assert not satisfies(a, ("R11",))


class TestR10VersusItsInequalityForm:
    def test_agree_on_boolean_based_models(self):
        # wherever R1-R3 hold, the equation and inequality forms of the
        # cycle-style axiom stand or fall together
        from relalg.catalog import a7, a8, b9, lyndon_d
        for a in (m3(), z3_complex(), lyndon_d(), boolean_ra(2), a7(), a8(),
                  a9(), a10(), b9(), b10()):
            assert satisfies(a, ("R1", "R2", "R3"))
            assert satisfies(a, ("R10",)) == satisfies(a, ("R10p",))


class TestRightIdentity:
    def test_present_in_relation_algebras(self):
        a = m3()
        assert exists_right_identity(a) == a.ident

    def test_absent_when_comp_is_constant_zero(self):
        assert exists_right_identity(a5()) is None

    def test_b5_has_one_despite_failing_r5(self):
        a = b5()
        assert not satisfies(a, ("R5",))
        assert exists_right_identity(a) == 1  # the true identity of m3
