"""Finite algebras of the signature (+, -, ;, converse, identity).

An algebra is a set {0, ..., n-1} together with explicit operation tables.
Nothing here assumes that any axiom holds: the same representation is used
for genuine relation algebras and for deliberately broken structures.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass


class AlgebraError(ValueError):
    """Malformed tables, out-of-range entries, or size limits exceeded."""


@dataclass(frozen=True)
class FiniteAlgebra:
    """Operation tables for one finite structure.

    All tables are tuples of ints so values are hashable and safe to share.
    ``names`` is presentation-only; every operation works on indices.
    """

    size: int
    add: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]
    conv: tuple[int, ...]
    ident: int
    names: tuple[str, ...] | None = None

    def name_of(self, x: int) -> str:
        if self.names is not None:
            return self.names[x]
        return str(x)


def _ints(values, what) -> tuple[int, ...]:
    try:  # operator.index neither truncates a float nor parses a string
        return tuple(map(operator.index, values))
    except TypeError:
        raise AlgebraError(f"{what} entries must be integers") from None


def _as_matrix(table, size, what) -> tuple[tuple[int, ...], ...]:
    rows = tuple(_ints(row, what) for row in table)
    if len(rows) != size or any(len(row) != size for row in rows):
        raise AlgebraError(f"{what} table must be {size}x{size}")
    for row in rows:
        for v in row:
            if not 0 <= v < size:
                raise AlgebraError(f"{what} entry {v} out of range for size {size}")
    return rows


def _as_vector(table, size, what) -> tuple[int, ...]:
    row = _ints(table, what)
    if len(row) != size:
        raise AlgebraError(f"{what} vector must have length {size}")
    for v in row:
        if not 0 <= v < size:
            raise AlgebraError(f"{what} entry {v} out of range for size {size}")
    return row


def make_algebra(size, add, neg, comp, conv, ident, names=None) -> FiniteAlgebra:
    """Validate tables and build a FiniteAlgebra.

    Raises AlgebraError on a non-integer size, dimension mismatches,
    non-integer or out-of-range entries, or duplicate display names.  No
    axiom is assumed or checked.
    """
    size, ident = _ints((size, ident), "size and ident")
    if size < 1:
        raise AlgebraError("size must be at least 1")
    add = _as_matrix(add, size, "add")
    comp = _as_matrix(comp, size, "comp")
    neg = _as_vector(neg, size, "neg")
    conv = _as_vector(conv, size, "conv")
    if not 0 <= ident < size:
        raise AlgebraError(f"ident {ident} out of range for size {size}")
    if names is not None:
        names = tuple(str(s) for s in names)
        if len(names) != size:
            raise AlgebraError("names vector has wrong length")
        if len(set(names)) != size:
            raise AlgebraError("names must be pairwise distinct")
    return FiniteAlgebra(size, add, neg, comp, conv, ident, names)


def derived_element(a: FiniteAlgebra, which: str) -> int:
    """The constants definable from identity: 1 = 1' + -1', 0 = -1, 0' = -1'."""
    if which == "one":
        return a.add[a.ident][a.neg[a.ident]]
    if which == "zero":
        return a.neg[derived_element(a, "one")]
    if which == "diversity":
        return a.neg[a.ident]
    raise ValueError(f"unknown derived element {which!r}")


def relabel(a: FiniteAlgebra, perm) -> FiniteAlgebra:
    """Apply a permutation of indices to every table.  perm[i] is the new
    index of old element i."""
    p = tuple(perm)
    n = a.size
    inv = [0] * n
    for i, pi in enumerate(p):
        inv[pi] = i
    add = tuple(tuple(p[a.add[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
    comp = tuple(tuple(p[a.comp[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
    neg = tuple(p[a.neg[inv[i]]] for i in range(n))
    conv = tuple(p[a.conv[inv[i]]] for i in range(n))
    names = None
    if a.names is not None:
        names = tuple(a.names[inv[i]] for i in range(n))
    return FiniteAlgebra(n, add, neg, comp, conv, p[a.ident], names)


def _isomorphisms(a: FiniteAlgebra, b: FiniteAlgebra):
    """Yield every bijection p (p[i] is the image of i) carrying each table
    of ``a`` onto ``b``.  Places a's elements in the order its tables generate
    them from ident (neg and conv, then sums and products of placed elements),
    reading each image from b, and branches on the least unplaced index once
    that set is closed.  Each entry of ``a`` is checked once its elements are."""
    n = a.size
    if b.size != n:
        return
    # a neg or conv entry is (x, x, z), read from b's vector spread along rows
    unary = [(ta, [(v,) * n for v in tb]) for ta, tb in ((a.neg, b.neg), (a.conv, b.conv))]
    binary = ((a.add, b.add), (a.comp, b.comp))
    order, source = [], []  # source[i]: the (x, y, b's table) giving order[i]

    def reach(z, entry):
        if z not in order:
            order.append(z)
            source.append(entry)
    reach(a.ident, (0, 0, [(b.ident,) * n] * n))  # ident is a constant of both
    for i, x in enumerate(order):  # order grows as the loop runs
        if len(order) == n:
            break
        for ta, tb in unary:
            reach(ta[x], (x, x, tb))
        for ta, tb in binary:
            for y in order[:i + 1]:
                reach(ta[x][y], (x, y, tb))
                reach(ta[y][x], (y, x, tb))
        if i + 1 == len(order) < n:  # closed: branch on the least unplaced index
            reach(min(set(range(n)) - set(order)), (None, None, None))
    rank = [order.index(z) for z in range(n)]
    # checks[i]: the entries (x, y, z, b's table) whose last placed element is order[i]
    checks = [[] for _ in range(n)]
    for ta, tb in unary:
        for x, z in enumerate(ta):
            checks[max(rank[x], rank[z])].append((x, x, z, tb))
    for ta, tb in binary:
        for x, row in enumerate(ta):
            for y, z in enumerate(row):
                checks[max(rank[x], rank[y], rank[z])].append((x, y, z, tb))
    p, used = [0] * n, [False] * n

    def place(i):
        if i == n:
            yield tuple(p)
            return
        x, y, tb = source[i]
        for v in (tb[p[x]][p[y]],) if tb else range(n):
            if not used[v]:
                p[order[i]], used[v] = v, True
                if all(tb[p[x]][p[y]] == p[z] for x, y, z, tb in checks[i]):
                    yield from place(i + 1)
                used[v] = False
    yield from place(0)


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra):
    """The lexicographically first permutation carrying every table of ``a``
    onto ``b``, or None: the least that _isomorphisms yields (0.1 ms at size 8)."""
    return min(_isomorphisms(a, b), default=None)


def automorphism_count(a: FiniteAlgebra) -> int:
    """The number of permutations carrying every table of ``a`` onto itself
    (about 0.1 ms at size 8; the 120 of a 32-element algebra in 0.04 s)."""
    return sum(1 for _ in _isomorphisms(a, a))


def canonical_form(a: FiniteAlgebra) -> bytes:
    """Lexicographically least table encoding (size, ident, neg, conv, add,
    comp) over all relabelings; equal iff the algebras are isomorphic.

    Ident goes to 0; depth first, each node labels the complement of the
    earliest labelled element whose complement is unlabelled before the
    rest, in index order.  A branch is cut once its neg digits exceed the
    best so far (an unplaced element's digit is at least the number placed;
    a tie never cuts), and a complete order is read lazily and dropped at
    its first digit above the best.  Capped at size 8 (about 0.4 ms there).
    """
    if a.size > 8:
        raise AlgebraError("canonical form limited to size <= 8")
    n, neg, conv, add, comp = a.size, a.neg, a.conv, a.add, a.comp
    p = [None] * n  # p[x] is the new index of x; order[i] is the x with p[x] == i
    order = []
    best = [n] * (2 * n + 2 * n * n)  # above every encoding

    def digits():
        for vector in (neg, conv):
            for x in order:
                yield p[vector[x]]
        for table in (add, comp):
            for x in order:
                row = table[x]
                for y in order:
                    yield p[row[y]]

    def cut(k):  # whether every completion of the first k labels is above best
        for i in range(k):
            d = p[neg[order[i]]]
            if d is None:
                return k > best[i]
            if d != best[i]:
                return d > best[i]
        return False

    def place(x):
        p[x] = len(order)
        order.append(x)
        if len(order) == n:
            candidate = digits()
            for k, d in enumerate(candidate):
                if d != best[k]:
                    if d < best[k]:
                        best[k:] = [d, *candidate]
                    break
        elif not cut(len(order)):
            first = [neg[y] for y in order if p[neg[y]] is None][:1]
            for y in first + [y for y in range(n) if p[y] is None and y not in first]:
                place(y)
        p[x] = None
        order.pop()

    place(a.ident)
    return bytes([n, 0, *best])


def to_json(a: FiniteAlgebra) -> str:
    """Serialize to the model file format.  Field order is fixed so the
    output is byte-stable for a given algebra."""
    doc: dict = {"size": a.size}
    if a.names is not None:
        doc["names"] = list(a.names)
    doc["add"] = [list(row) for row in a.add]
    doc["neg"] = list(a.neg)
    doc["comp"] = [list(row) for row in a.comp]
    doc["conv"] = list(a.conv)
    doc["ident"] = a.ident
    return json.dumps(doc, indent=1)


def _nested(value, depth, entry) -> bool:
    """Whether ``value`` is an ``entry`` inside ``depth`` levels of lists."""
    if depth == 0:
        return type(value) is entry
    return type(value) is list and all(_nested(v, depth - 1, entry) for v in value)


def from_json(text: str) -> FiniteAlgebra:
    """Read the model file format.  AlgebraError unless the document is an
    object whose fields have the types ``to_json`` writes."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise AlgebraError("a model file must hold a JSON object")
    for key, depth in {"size": 0, "add": 2, "neg": 1, "comp": 2, "conv": 1,
                       "ident": 0}.items():
        if not _nested(doc.get(key), depth, int):
            raise AlgebraError(f"model field {key!r}: expected {'list of ' * depth}int")
    if doc.get("names") is not None and not _nested(doc["names"], 1, str):
        raise AlgebraError("model field 'names': expected list of str")
    return make_algebra(
        doc["size"], doc["add"], doc["neg"], doc["comp"], doc["conv"],
        doc["ident"], doc.get("names"),
    )
