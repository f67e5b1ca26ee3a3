"""Constructors for every algebra used in the independence arguments.

Powerset-based algebras encode subsets as bitmasks: element i of a complex
algebra over a k-element base set is the subset {j : i >> j & 1}.  Boolean
algebras with k atoms use the same encoding with one bit per atom.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from .algebra import (AlgebraError, FiniteAlgebra, derived_element,
                      make_algebra)
from .axioms import TARSKI, satisfies

MAX_ATOMS = 8  # 256 elements; each further atom quadruples every table


@dataclass(frozen=True)
class GroupSpec:
    """A finite group given by tables; validated at construction."""

    size: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    unit: int

    def __post_init__(self):
        n, mul, inv, e = self.size, self.mul, self.inv, self.unit
        if len(mul) != n or any(len(row) != n for row in mul) or len(inv) != n:
            raise AlgebraError("group tables have wrong dimensions")
        for x in range(n):
            if mul[e][x] != x or mul[x][e] != x:
                raise AlgebraError("unit is not a two-sided identity")
            if mul[x][inv[x]] != e or mul[inv[x]][x] != e:
                raise AlgebraError("inv is not a two-sided inverse")
            for y in range(n):
                for z in range(n):
                    if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                        raise AlgebraError("group operation is not associative")


@dataclass(frozen=True)
class PartialGroupoidSpec:
    """A partial binary operation with unit and total inverse.  Undefined
    products are represented by None."""

    size: int
    mul: tuple[tuple[int | None, ...], ...]
    inv: tuple[int, ...]
    unit: int

    def __post_init__(self):
        n, mul, inv, e = self.size, self.mul, self.inv, self.unit
        if len(mul) != n or any(len(row) != n for row in mul) or len(inv) != n:
            raise AlgebraError("partial groupoid tables have wrong dimensions")
        for x in range(n):
            if mul[e][x] != x or mul[x][e] != x:
                raise AlgebraError("unit must act as a two-sided identity where defined")
            if not 0 <= inv[x] < n:
                raise AlgebraError("inv entry out of range")


def cyclic_group(n: int) -> GroupSpec:
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    return GroupSpec(n, mul, inv, 0)


def boolean_group(k: int) -> GroupSpec:
    """Elementary abelian 2-group of order 2**k (every element self-inverse)."""
    if not 0 <= k <= MAX_ATOMS:
        raise AlgebraError(f"at most {MAX_ATOMS} generators and none negative, got {k}")
    n = 1 << k
    mul = tuple(tuple(i ^ j for j in range(n)) for i in range(n))
    return GroupSpec(n, mul, tuple(range(n)), 0)


def _unions(images, n: int) -> list[int]:
    """out[x] = the union (bitwise or) of images[j] over the atoms j of x,
    for every x < n, each from x without its lowest atom."""
    out = [0] * n
    for x in range(1, n):
        low = x & -x
        out[x] = out[x ^ low] | images[low.bit_length() - 1]
    return out


def _complex_algebra(k, atom_comp, atom_conv, ident, names) -> FiniteAlgebra:
    """The algebra of all subsets of k atoms: + is union, - is complement,
    and ; and ^ extend additively from the atoms, where atom_comp[f][h] and
    atom_conv[f] are bitmasks of atoms; ``names`` is read after k is checked."""
    if not 0 <= k <= MAX_ATOMS:
        raise AlgebraError(f"at most {MAX_ATOMS} atoms and none negative, got {k}")
    n = 1 << k
    atom_rows = [_unions(row, n) for row in atom_comp]  # atom_rows[f][y] = f;y
    cols = [_unions([row[y] for row in atom_rows], n) for y in range(n)]
    comp = [[col[x] for col in cols] for x in range(n)]
    conv = _unions(atom_conv, n)
    add = [[x | y for y in range(n)] for x in range(n)]
    neg = [x ^ (n - 1) for x in range(n)]
    return make_algebra(n, add, neg, comp, conv, ident, names)


def group_complex(g: GroupSpec | PartialGroupoidSpec) -> FiniteAlgebra:
    """Complex algebra of a group or partial groupoid: powerset with
    element-wise product and inverse, identity = {unit}.  Undefined products
    contribute nothing to the complex product."""
    atom_comp = [[0 if p is None else 1 << p for p in row] for row in g.mul]
    names = ("{" + ",".join(str(j) for j in range(g.size) if x >> j & 1) + "}"
             for x in range(1 << g.size))
    return _complex_algebra(g.size, atom_comp, [1 << i for i in g.inv],
                            1 << g.unit, names)


def _boolean_names(k: int):
    for mask in range(1 << k):
        if mask == 0:
            yield "0"
        elif mask == (1 << k) - 1:
            yield "1"
        else:
            yield "+".join(f"a{j}" for j in range(k) if mask >> j & 1)


def boolean_ra(k: int = 1) -> FiniteAlgebra:
    """Boolean relation algebra on 2**k elements: r;s = r.s, r^ = r, 1' = 1."""
    atoms = [1 << f for f in range(k)]
    atom_comp = [[p if p == q else 0 for q in atoms] for p in atoms]
    return _complex_algebra(k, atom_comp, atoms, sum(atoms), _boolean_names(k))


def m3() -> FiniteAlgebra:
    """The minimal set relation algebra on a three-element set.  Elements
    are bitmasks over the atoms 1' (bit 0) and 0' (bit 1), with 0';0' = 1."""
    return _complex_algebra(2, [[1, 2], [2, 3]], [1, 2], 1, ["0", "1'", "0'", "1"])


def z3_complex() -> FiniteAlgebra:
    return group_complex(cyclic_group(3))


def lyndon_d() -> FiniteAlgebra:
    """The eight-element algebra with atoms 1', a, b where a;a = b;b = 1 and
    a;b = b;a = 0'; converse is the identity.  Bits: 1'=1, a=2, b=4."""
    atom_comp = [[1, 2, 4], [2, 7, 6], [4, 6, 7]]
    names = ["0", "1'", "a", "1'+a", "b", "1'+b", "0'", "1"]
    return _complex_algebra(3, atom_comp, [1, 2, 4], 1, names)


def a1(k: int = 1) -> FiniteAlgebra:
    """Breaks R1: addition is left-hand projection over a Boolean group."""
    if k < 1:
        raise AlgebraError("a1 needs a group of order at least 2")
    g = boolean_group(k)
    n = g.size
    add = [[x] * n for x in range(n)]
    names = [f"g{x}" for x in range(n)]
    return make_algebra(n, add, list(range(n)), g.mul, g.inv, g.unit, names)


def a2() -> FiniteAlgebra:
    """Breaks R2: the unique three-element independence model.  Elements
    in table order 0, 1', 1."""
    add = [
        [0, 1, 2],
        [1, 1, 0],
        [2, 0, 2],
    ]
    comp = [
        [0, 0, 0],
        [0, 1, 2],
        [0, 2, 1],
    ]
    return make_algebra(3, add, [0, 2, 1], comp, [0, 1, 2], 1, ["0", "1'", "1"])


def a3(k: int = 1) -> FiniteAlgebra:
    """Breaks R3: a Boolean relation algebra with complement replaced by
    the identity function."""
    base = boolean_ra(k)
    return make_algebra(base.size, base.add, list(range(base.size)),
                        base.comp, base.conv, base.ident, base.names)


def mckinsey_partial_groupoid() -> PartialGroupoidSpec:
    """Three elements, 0 the unit, 1*1 = 2*2 = 0, 1*2 and 2*1 undefined."""
    mul = (
        (0, 1, 2),
        (1, 0, None),
        (2, None, 0),
    )
    return PartialGroupoidSpec(3, mul, (0, 1, 2), 0)


def a4() -> FiniteAlgebra:
    """Breaks R4: McKinsey's complex algebra of a partial groupoid."""
    return group_complex(mckinsey_partial_groupoid())


def a5(k: int = 1, ident: int = 1) -> FiniteAlgebra:
    """Breaks R5: relative multiplication is constantly zero."""
    base = boolean_ra(k)
    n = base.size
    comp = [[0] * n for _ in range(n)]
    return make_algebra(n, base.add, base.neg, comp, base.conv, ident, base.names)


def b5(base: FiniteAlgebra | None = None, ident: int = 0) -> FiniteAlgebra:
    """Breaks R5 differently: a relation algebra with the identity constant
    pointed at the wrong element (default: element 0, the zero of every
    bitmask-encoded algebra)."""
    if base is None:
        base = m3()
    if ident == base.ident:
        raise AlgebraError("b5 needs an ident different from the true identity")
    return make_algebra(base.size, base.add, base.neg, base.comp, base.conv,
                        ident, base.names)


def a6(base: FiniteAlgebra | None = None) -> FiniteAlgebra:
    """Breaks R6: converse maps everything to zero."""
    if base is None:
        base = m3()
    n = base.size
    zero = derived_element(base, "zero")
    return make_algebra(n, base.add, base.neg, base.comp, [zero] * n,
                        base.ident, base.names)


def a7(k: int = 2, ident: int = 1) -> FiniteAlgebra:
    """Breaks R7: r;s = r when s is the identity element, else 0, over a
    Boolean algebra with at least four elements; ident must avoid 0 and 1."""
    if k < 2:
        raise AlgebraError("a7 needs a Boolean base with at least 4 elements")
    base = boolean_ra(k)
    n = base.size
    if ident in (0, n - 1):
        raise AlgebraError("a7 ident must differ from the Boolean 0 and 1")
    comp = [[x if y == ident else 0 for y in range(n)] for x in range(n)]
    return make_algebra(n, base.add, base.neg, comp, base.conv, ident, base.names)


def is_symmetric_integral(a: FiniteAlgebra) -> bool:
    """Relation algebra, converse the identity map, size >= 2, and
    r;s = 0 only when r = 0 or s = 0."""
    if a.size < 2:
        return False
    if any(a.conv[x] != x for x in range(a.size)):
        return False
    if not satisfies(a, TARSKI):
        return False
    zero = derived_element(a, "zero")
    for r in range(a.size):
        for s in range(a.size):
            if a.comp[r][s] == zero and r != zero and s != zero:
                return False
    return True


def a8(base: FiniteAlgebra | None = None) -> FiniteAlgebra:
    """Breaks R8: one cell of a symmetric integral relation algebra is
    changed so that 0;0 = 1."""
    if base is None:
        base = boolean_ra(1)
    if not is_symmetric_integral(base):
        raise AlgebraError("a8 needs a symmetric integral relation algebra")
    zero = derived_element(base, "zero")
    one = base.neg[zero]
    comp = [list(row) for row in base.comp]
    comp[zero][zero] = one
    return make_algebra(base.size, base.add, base.neg, comp, base.conv,
                        base.ident, base.names)


def a9() -> FiniteAlgebra:
    """Breaks R9: the complex algebra of Z3 with converse fixing the
    singletons {1} and {2}, compensated by replacing r;s with (inverse of
    r);s whenever r is a singleton and s a doubleton."""
    c = z3_complex()
    n = c.size
    conv = list(range(n))
    conv[0b011], conv[0b101] = 0b101, 0b011  # swap {0,1} and {0,2}
    singletons = [1 << g for g in range(3)]
    doubletons = [0b011, 0b101, 0b110]
    comp = [list(row) for row in c.comp]
    for r in singletons:
        for s in doubletons:
            comp[r][s] = c.comp[c.conv[r]][s]
    return make_algebra(n, c.add, c.neg, comp, conv, c.ident, c.names)


def a10(k: int = 1) -> FiniteAlgebra:
    """Breaks R10: relative multiplication is Boolean addition, converse the
    identity, and the identity constant is the Boolean zero."""
    base = boolean_ra(k)
    n = base.size
    return make_algebra(n, base.add, base.neg, base.add, base.conv, 0, base.names)


def b9() -> FiniteAlgebra:
    """Breaks R9 while keeping the left-hand distributive law: Lyndon's D
    with converse interchanging 1'+a and 1'+b, compensated by r;s =
    (r converse) composed with s for r in {1'+a, 1'+b} and s in {a, b}."""
    d = lyndon_d()
    conv = list(range(8))
    conv[0b011], conv[0b101] = 0b101, 0b011  # swap 1'+a and 1'+b
    comp = [list(row) for row in d.comp]
    for r in (0b011, 0b101):
        for s in (0b010, 0b100):
            comp[r][s] = d.comp[conv[r]][s]
    return make_algebra(8, d.add, d.neg, comp, conv, d.ident, d.names)


def b10() -> FiniteAlgebra:
    """Breaks R10: M3 with relative multiplication by 0' forced to 0' and
    0;1 = 1;0 = 0'."""
    base = m3()
    diver = derived_element(base, "diversity")
    comp = [list(row) for row in base.comp]
    for r in range(4):
        comp[r][diver] = diver
        comp[diver][r] = diver
    comp[0][3] = diver
    comp[3][0] = diver
    return make_algebra(4, base.add, base.neg, comp, base.conv, base.ident, base.names)


# --- the model registry -----------------------------------------------------

MODEL_BUILDERS = {
    "m3": m3,
    "z3c": z3_complex,
    "d": lyndon_d,
    "bra": boolean_ra,
    "a1": a1,
    "a2": a2,
    "a3": a3,
    "a4": a4,
    "a5": a5,
    "b5": b5,
    "a6": a6,
    "a7": a7,
    "a8": a8,
    "a9": a9,
    "a10": a10,
    "b9": b9,
    "b10": b10,
}


def parse_model_id(text: str):
    """Split a model id like "a7[k=2,ident=1]" into name and kwargs.  Only
    top-level commas separate parameters, so a value may itself be a model
    id, as in "a6[base=bra[k=2]]"."""
    text = text.strip()
    if "[" not in text and "]" not in text:
        return text, {}
    name, _, params = text.partition("[")
    if not params.endswith("]"):
        raise AlgebraError(f"malformed model id {text!r}")
    items, depth, start = [], 0, 0
    for i, ch in enumerate(params[:-1]):
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            break
        if ch == "," and depth == 0:
            items.append(params[start:i])
            start = i + 1
    if depth:
        raise AlgebraError(f"unbalanced brackets in model id {text!r}")
    items.append(params[start:-1])
    kwargs = {}
    for item in items:
        if not item:
            continue
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep:
            raise AlgebraError(f"malformed parameter {item!r} in {text!r}")
        if key in kwargs:
            raise AlgebraError(f"parameter {key!r} given twice in {text!r}")
        kwargs[key] = value
    return name, kwargs


def build_model(model_id: str) -> FiniteAlgebra:
    """Build a catalog model from its string id.  A ``base`` parameter names
    another catalog model; every other parameter is an integer."""
    name, kwargs = parse_model_id(model_id)
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise AlgebraError(f"unknown model {name!r}") from None
    for key, value in kwargs.items():
        if key not in inspect.signature(builder).parameters:
            raise AlgebraError(f"model {name!r} has no parameter {key!r}")
        if key != "base" and not value.removeprefix("-").isdecimal():
            raise AlgebraError(f"parameter {key!r} of {name!r} is not an integer: {value!r}")
        kwargs[key] = build_model(value) if key == "base" else int(value)
    return builder(**kwargs)


def list_models() -> list[str]:
    return sorted(MODEL_BUILDERS)
