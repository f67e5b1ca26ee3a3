"""Independent axiom checker for the benchmark.

Each of the 16 catalog axioms is written out here as a direct evaluation over
the operation tables, without the term parser or evaluator of ``relalg``.
The checker walks assignments in the same order ``check_validity`` promises
(variables alphabetical, elements by index), so for every algebra it yields
the lexicographically first counterexample, or None when the axiom holds.
"""

from __future__ import annotations

from itertools import product

# axiom id -> (the axiom's text, its variables in alphabetical order).
# The text is compared with relalg.AXIOM_TEXT so that the two cannot drift.
AXIOMS = {
    "R1": ("r+s = s+r", "rs"),
    "R2": ("r+(s+t) = (r+s)+t", "rst"),
    "R3": ("-(-r+s) + -(-r+-s) = r", "rs"),
    "R4": ("r;(s;t) = (r;s);t", "rst"),
    "R5": ("r;1' = r", "r"),
    "R6": ("r^^ = r", "r"),
    "R7": ("(r;s)^ = s^;r^", "rs"),
    "R8": ("(r+s);t = r;t+s;t", "rst"),
    "R9": ("(r+s)^ = r^+s^", "rs"),
    "R10": ("r^;-(r;s)+-s = -s", "rs"),
    "R8p": ("r;(s+t) = r;s+r;t", "rst"),
    "R10p": ("r^;-(r;s) <= -s", "rs"),
    "R11": ("(r;s).t = 0 -> (r^;t).s = 0", "rst"),
    "R11p": ("(r;s).t = 0 <-> (r^;t).s = 0", "rst"),
    "monL": ("r <= s -> r;t <= s;t", "rst"),
    "monR": ("r <= s -> t;r <= t;s", "rst"),
}


def _predicates(add, neg, comp, conv, ident):
    """axiom id -> predicate over one assignment, closed over the tables."""
    zero = neg[add[ident][neg[ident]]]

    def le(x, y):
        return add[x][y] == y

    def meet(x, y):
        return neg[add[neg[x]][neg[y]]]

    def r11_lhs(r, s, t):
        return meet(comp[r][s], t) == zero

    def r11_rhs(r, s, t):
        return meet(comp[conv[r]][t], s) == zero

    return {
        "R1": lambda r, s: add[r][s] == add[s][r],
        "R2": lambda r, s, t: add[r][add[s][t]] == add[add[r][s]][t],
        "R3": lambda r, s: add[neg[add[neg[r]][s]]][neg[add[neg[r]][neg[s]]]] == r,
        "R4": lambda r, s, t: comp[r][comp[s][t]] == comp[comp[r][s]][t],
        "R5": lambda r: comp[r][ident] == r,
        "R6": lambda r: conv[conv[r]] == r,
        "R7": lambda r, s: conv[comp[r][s]] == comp[conv[s]][conv[r]],
        "R8": lambda r, s, t: comp[add[r][s]][t] == add[comp[r][t]][comp[s][t]],
        "R9": lambda r, s: conv[add[r][s]] == add[conv[r]][conv[s]],
        "R10": lambda r, s: add[comp[conv[r]][neg[comp[r][s]]]][neg[s]] == neg[s],
        "R8p": lambda r, s, t: comp[r][add[s][t]] == add[comp[r][s]][comp[r][t]],
        "R10p": lambda r, s: le(comp[conv[r]][neg[comp[r][s]]], neg[s]),
        "R11": lambda r, s, t: not r11_lhs(r, s, t) or r11_rhs(r, s, t),
        "R11p": lambda r, s, t: r11_lhs(r, s, t) == r11_rhs(r, s, t),
        "monL": lambda r, s, t: not le(r, s) or le(comp[r][t], comp[s][t]),
        "monR": lambda r, s, t: not le(r, s) or le(comp[t][r], comp[t][s]),
    }


def first_counterexamples(tables) -> dict:
    """axiom id -> None when the axiom holds, else the first failing
    assignment as a dict.  ``tables`` is (size, add, neg, comp, conv, ident)."""
    size, add, neg, comp, conv, ident = tables
    preds = _predicates(add, neg, comp, conv, ident)
    out = {}
    for axiom_id, (_, names) in AXIOMS.items():
        pred = preds[axiom_id]
        out[axiom_id] = None
        for values in product(range(size), repeat=len(names)):
            if not pred(*values):
                out[axiom_id] = dict(zip(names, values))
                break
    return out


def failing(verdicts: dict, axiom_ids) -> list[str]:
    """The members of ``axiom_ids`` with a counterexample, in the given order."""
    return [i for i in axiom_ids if verdicts[i] is not None]
