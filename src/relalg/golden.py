"""Reference operation tables for the catalog models, recorded by element
name in the same row order the tables are usually displayed in.  A9 and B9
are given as the paper gives them, by their differences from the Z3
complex algebra and from D; their full tables are derived from those.

The claim suite's golden rows compare these cell-for-cell against the
constructed algebras; a mismatch means either a transcription error here or
a builder bug, and is reported with the offending cell coordinates.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra

M3_ORDER = ["0", "1'", "0'", "1"]
M3_COMP = [
    ["0", "0", "0", "0"],
    ["0", "1'", "0'", "1"],
    ["0", "0'", "1", "1"],
    ["0", "1", "1", "1"],
]

Z3_ORDER = ["{}", "{0}", "{1}", "{2}", "{0,1}", "{0,2}", "{1,2}", "{0,1,2}"]
Z3_COMP = [
    ["{}"] * 8,
    ["{}", "{0}", "{1}", "{2}", "{0,1}", "{0,2}", "{1,2}", "{0,1,2}"],
    ["{}", "{1}", "{2}", "{0}", "{1,2}", "{0,1}", "{0,2}", "{0,1,2}"],
    ["{}", "{2}", "{0}", "{1}", "{0,2}", "{1,2}", "{0,1}", "{0,1,2}"],
    ["{}", "{0,1}", "{1,2}", "{0,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}"],
    ["{}", "{0,2}", "{0,1}", "{1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}"],
    ["{}", "{1,2}", "{0,2}", "{0,1}", "{0,1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}"],
    ["{}", "{0,1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}"],
]
Z3_CONV = ["{}", "{0}", "{2}", "{1}", "{0,2}", "{0,1}", "{1,2}", "{0,1,2}"]

D_ORDER = ["0", "1'", "a", "b", "1'+a", "1'+b", "0'", "1"]
D_ATOMS = ["1'", "a", "b"]
D_ATOM_COMP = [  # Table of relative products of the three atoms
    ["1'", "a", "b"],
    ["a", "1", "0'"],
    ["b", "0'", "1"],
]
D_COMP = [
    ["0"] * 8,
    ["0", "1'", "a", "b", "1'+a", "1'+b", "0'", "1"],
    ["0", "a", "1", "0'", "1", "0'", "1", "1"],
    ["0", "b", "0'", "1", "0'", "1", "1", "1"],
    ["0", "1'+a", "1", "0'", "1", "1", "1", "1"],
    ["0", "1'+b", "0'", "1", "1", "1", "1", "1"],
    ["0", "0'", "1", "1", "1", "1", "1", "1"],
    ["0", "1", "1", "1", "1", "1", "1", "1"],
]

A2_ORDER = ["0", "1'", "1"]
A2_ADD = [
    ["0", "1'", "1"],
    ["1'", "1'", "0"],
    ["1", "0", "1"],
]
A2_COMP = [
    ["0", "0", "0"],
    ["0", "1'", "1"],
    ["0", "1", "1'"],
]
A2_NEG = ["0", "1", "1'"]

A4_ORDER = Z3_ORDER
A4_COMP = [
    ["{}"] * 8,
    ["{}", "{0}", "{1}", "{2}", "{0,1}", "{0,2}", "{1,2}", "{0,1,2}"],
    ["{}", "{1}", "{0}", "{}", "{0,1}", "{1}", "{0}", "{0,1}"],
    ["{}", "{2}", "{}", "{0}", "{2}", "{0,2}", "{0}", "{0,2}"],
    ["{}", "{0,1}", "{0,1}", "{2}", "{0,1}", "{0,1,2}", "{0,1,2}", "{0,1,2}"],
    ["{}", "{0,2}", "{1}", "{0,2}", "{0,1,2}", "{0,2}", "{0,1,2}", "{0,1,2}"],
    ["{}", "{1,2}", "{0}", "{0}", "{0,1,2}", "{0,1,2}", "{0}", "{0,1,2}"],
    ["{}", "{0,1,2}", "{0,1}", "{0,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}", "{0,1,2}"],
]

B10_ORDER = M3_ORDER
B10_COMP = [
    ["0", "0", "0'", "0'"],
    ["0", "1'", "0'", "1"],
    ["0'", "0'", "0'", "0'"],
    ["0'", "1", "0'", "1"],
]

# Changed relative products in A9 relative to the Z3 complex algebra:
# rows are the singletons, columns the doubletons.
A9_DIFF_ROWS = ["{0}", "{1}", "{2}"]
A9_DIFF_COLS = ["{0,1}", "{0,2}", "{1,2}"]
A9_DIFF_COMP = [
    ["{0,1}", "{0,2}", "{1,2}"],
    ["{0,2}", "{1,2}", "{0,1}"],
    ["{1,2}", "{0,1}", "{0,2}"],
]
# A9 converse: the identity map except that the doubletons containing the
# group unit are interchanged.
A9_CONV_SWAP = ("{0,1}", "{0,2}")

# Changed relative products in B9 relative to D.
B9_DIFF_ROWS = ["1'+a", "1'+b"]
B9_DIFF_COLS = ["a", "b"]
B9_DIFF_COMP = [
    ["0'", "1"],
    ["1", "0'"],
]
B9_CONV_SWAP = ("1'+a", "1'+b")


def _patched(base, order, rows, cols, cells, swap):
    """Comp and conv that differ from ``base`` by the block ``cells`` at
    ``rows`` x ``cols`` and from the identity by the pair ``swap``."""
    comp = [list(row) for row in base]
    for rn, row in zip(rows, cells):
        for cn, value in zip(cols, row):
            comp[order.index(rn)][order.index(cn)] = value
    p, q = swap
    return comp, [{p: q, q: p}.get(x, x) for x in order]


A9_COMP, A9_CONV = _patched(Z3_COMP, Z3_ORDER, A9_DIFF_ROWS, A9_DIFF_COLS,
                            A9_DIFF_COMP, A9_CONV_SWAP)
B9_COMP, B9_CONV = _patched(D_COMP, D_ORDER, B9_DIFF_ROWS, B9_DIFF_COLS,
                            B9_DIFF_COMP, B9_CONV_SWAP)


def index_map(a: FiniteAlgebra) -> dict:
    if a.names is None:
        raise ValueError("golden comparison needs a named algebra")
    return {name: i for i, name in enumerate(a.names)}


def compare(a: FiniteAlgebra, table: str, order, reference) -> list[tuple]:
    """Cell-for-cell comparison of ``a``'s table with a reference given by
    element name: one name per element of ``order`` for the unary neg and
    conv, one row of names per element for a binary table.  Returns the
    mismatches as (row-name, got, expected), or (row-name, col-name, got,
    expected) for a binary table."""
    idx = index_map(a)
    op = getattr(a, table)
    if table in ("neg", "conv"):
        cells = [((rn,), op[idx[rn]], want) for rn, want in zip(order, reference)]
    else:
        cells = [((rn, cn), op[idx[rn]][idx[cn]], want)
                 for rn, row in zip(order, reference) for cn, want in zip(order, row)]
    return [(*at, a.names[got], want) for at, got, want in cells if got != idx[want]]
