"""The axiom catalog and per-model axiom checking.

Axiom ids are stable strings: "R1" ... "R10" plus the derived laws
"R8p" (left-hand distributivity), "R10p" (inequality form of R10),
"R11", "R11p", and the monotony laws "monL"/"monR".

Axiom systems:
  TARSKI  R1..R10
  R_SYS   R1..R6, R8p, R9, R10   (drop R7, replace R8 by R8p)
  S_SYS   R1..R6, R8, R8p, R10   (drop R7 and R9, keep both distributive laws)
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import FiniteAlgebra
from .terms import Sentence, check_validity, parse_sentence

AXIOM_TEXT = {
    "R1": "r+s = s+r",
    "R2": "r+(s+t) = (r+s)+t",
    "R3": "-(-r+s) + -(-r+-s) = r",
    "R4": "r;(s;t) = (r;s);t",
    "R5": "r;1' = r",
    "R6": "r^^ = r",
    "R7": "(r;s)^ = s^;r^",
    "R8": "(r+s);t = r;t+s;t",
    "R9": "(r+s)^ = r^+s^",
    "R10": "r^;-(r;s)+-s = -s",
    "R8p": "r;(s+t) = r;s+r;t",
    "R10p": "r^;-(r;s) <= -s",
    "R11": "(r;s).t = 0 -> (r^;t).s = 0",
    "R11p": "(r;s).t = 0 <-> (r^;t).s = 0",
    "monL": "r <= s -> r;t <= s;t",
    "monR": "r <= s -> t;r <= t;s",
}

AXIOM_IDS = tuple(AXIOM_TEXT)

BOOLEAN = ("R1", "R2", "R3")  # they force a Boolean algebra
TARSKI = tuple(f"R{n}" for n in range(1, 11))
R_SYS = BOOLEAN + ("R4", "R5", "R6", "R8p", "R9", "R10")
S_SYS = BOOLEAN + ("R4", "R5", "R6", "R8", "R8p", "R10")

SYSTEMS = {"tarski": TARSKI, "r": R_SYS, "s": S_SYS}


class AxiomError(ValueError):
    pass


@lru_cache(maxsize=None)
def axiom_sentence(axiom_id: str) -> Sentence:
    """The canonical Sentence for a named axiom."""
    try:
        return parse_sentence(AXIOM_TEXT[axiom_id])
    except KeyError:
        raise AxiomError(f"unknown axiom id {axiom_id!r}") from None


def status_vector(a: FiniteAlgebra, system) -> dict:
    """Per-axiom status: id -> None when the axiom holds, else the first
    counterexample assignment."""
    return {axiom_id: check_validity(a, axiom_sentence(axiom_id)) for axiom_id in system}


def failing_axioms(status: dict) -> list[str]:
    return [axiom_id for axiom_id, witness in status.items() if witness is not None]


def is_independence_model(a: FiniteAlgebra, system, target: str) -> bool:
    """True iff ``target`` fails in ``a`` and every other member holds."""
    if target not in system:
        raise AxiomError(f"{target} is not in the given system")
    return failing_axioms(status_vector(a, system)) == [target]


def satisfies(a: FiniteAlgebra, axiom_ids) -> bool:
    return all(check_validity(a, axiom_sentence(i)) is None for i in axiom_ids)


def exists_right_identity(a: FiniteAlgebra):
    """Some e with r;e = r for all r, or None.  The existential form of R5."""
    return next((e for e in range(a.size)
                 if all(a.comp[r][e] == r for r in range(a.size))), None)
