import pytest

from relalg.axioms import (AXIOM_IDS, AXIOM_TEXT, R_SYS, S_SYS, TARSKI,
                           AxiomError, atom_form_r11, axiom_sentence,
                           exists_right_identity, failing_axioms,
                           is_independence_model, satisfies, status_vector)
from relalg.catalog import a2, a3, a4, a5, a10, b5, boolean_ra, m3, z3_complex
from relalg.terms import free_vars, parse_sentence, sentence_to_str


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


class TestAtomFormR11:
    def test_valid_in_relation_algebras(self):
        assert atom_form_r11(z3_complex()) is None
        assert atom_form_r11(m3()) is None

    def test_valid_in_a4(self):
        # associativity fails in a4 but the atom form of the cycle law holds
        assert atom_form_r11(a4()) is None

    def test_requires_boolean_axioms(self):
        with pytest.raises(AxiomError):
            atom_form_r11(a3())


class TestR10VersusItsInequalityForm:
    def test_agree_on_boolean_based_models(self):
        # wherever R1-R3 hold, the equation and inequality forms of the
        # cycle-style axiom stand or fall together
        from relalg.catalog import a7, a8, a9, b9, b10, boolean_ra, lyndon_d
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
