import hashlib
from itertools import permutations, product

import pytest

from relalg import golden
from relalg.algebra import AlgebraError, derived_element, to_json
from relalg.axioms import TARSKI, is_independence_model, satisfies
from relalg.catalog import (MAX_ATOMS, GroupSpec, a1, a2, a3, a4, a5, a6,
                            a7, a8, a9, a10, b5, b9, b10, boolean_group, boolean_ra, build_model,
                            cyclic_group, group_complex, is_symmetric_integral,
                            list_models, lyndon_d, m3,
                            mckinsey_partial_groupoid, parse_model_id,
                            z3_complex)


class TestSpecs:
    def test_cyclic_group(self):
        g = cyclic_group(5)
        assert g.mul[2][4] == 1
        assert g.inv[2] == 3

    def test_boolean_group(self):
        g = boolean_group(2)
        assert g.size == 4
        assert all(g.inv[x] == x for x in range(4))

    def test_group_validation(self):
        with pytest.raises(AlgebraError, match="inverse"):
            GroupSpec(2, ((0, 1), (1, 1)), (0, 1), 0)
        with pytest.raises(AlgebraError, match="identity"):
            GroupSpec(2, ((0, 1), (0, 1)), (0, 1), 0)
        # Z4 with one interior cell changed: unit and inverses survive but
        # associativity does not
        mul = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        mul[1][1] = 3
        with pytest.raises(AlgebraError, match="associative"):
            GroupSpec(4, tuple(tuple(r) for r in mul), (0, 3, 2, 1), 0)

    @pytest.mark.parametrize("mul, inv, unit", [
        (((0, 1), (1, 0)), (0, 5), 0),     # an inverse
        (((0, 1), (1, 0)), (0, -1), 0),
        (((0, 1), (1, 0)), (0, 1), 3),     # the unit
        (((0, 1), (1, 7)), (0, 1), 0),     # a product
        (((0, 1), (1, -1)), (0, 1), 0),
        (((0, 1, 2), (1, 0, 9), (2, None, 0)), (0, 1, 2), 0),  # partial
    ])
    def test_out_of_range_entry(self, mul, inv, unit):
        with pytest.raises(AlgebraError, match="out of range"):
            GroupSpec(len(mul), mul, inv, unit)

    def test_partial_groupoid_validation(self):
        with pytest.raises(AlgebraError, match="identity"):
            GroupSpec(2, ((0, None), (1, 0)), (0, 1), 0)
        # McKinsey's table with 1*1 = 2: 1 is no longer its own inverse
        with pytest.raises(AlgebraError, match="inverse"):
            GroupSpec(3, ((0, 1, 2), (1, 2, None), (2, None, 0)), (0, 1, 2), 0)
        # Z4 with 1*2 and 2*1 undefined and 1*1 = 3: (1*1)*3 = 2 but
        # 1*(1*3) = 1
        mul = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        mul[1][2] = mul[2][1] = None
        mul[1][1] = 3
        with pytest.raises(AlgebraError, match="associative"):
            GroupSpec(4, tuple(tuple(r) for r in mul), (0, 3, 2, 1), 0)
        p = mckinsey_partial_groupoid()
        assert p.mul[1][2] is None and p.mul[2][1] is None
        assert p.mul[1][1] == 0 == p.mul[2][2]


class TestComplexAlgebras:
    def test_group_complex_is_relation_algebra(self):
        assert satisfies(group_complex(cyclic_group(2)), TARSKI)
        assert satisfies(z3_complex(), TARSKI)

    def test_complex_structure(self):
        a = z3_complex()
        assert a.size == 8
        assert a.ident == 1  # {unit}
        assert a.name_of(a.ident) == "{0}"
        assert a.comp[0b010][0b010] == 0b100  # {1};{1} = {2}
        assert a.conv[0b010] == 0b100         # {1}^ = {2}

    def test_partial_groupoid_complex_drops_undefined_products(self):
        a = group_complex(mckinsey_partial_groupoid())
        assert a.comp[0b010][0b100] == 0      # 1*2 undefined -> empty set

    def test_boolean_ra(self):
        a = boolean_ra(2)
        assert satisfies(a, TARSKI)
        assert a.ident == 3  # 1' = 1 in a Boolean relation algebra
        assert a.comp[1][2] == 0

    def test_m3_vs_golden(self):
        assert golden.compare(m3(), "comp", golden.M3_ORDER, golden.M3_COMP) == []

    def test_z3_vs_golden(self):
        a = z3_complex()
        assert golden.compare(a, "comp", golden.Z3_ORDER, golden.Z3_COMP) == []
        assert golden.compare(a, "conv", golden.Z3_ORDER, golden.Z3_CONV) == []

    def test_lyndon_d_vs_golden(self):
        a = lyndon_d()
        assert golden.compare(a, "comp", golden.D_ORDER, golden.D_COMP) == []
        assert golden.compare(a, "comp", golden.D_ATOMS, golden.D_ATOM_COMP) == []

    def test_a2_vs_golden(self):
        a = a2()
        assert golden.compare(a, "add", golden.A2_ORDER, golden.A2_ADD) == []
        assert golden.compare(a, "comp", golden.A2_ORDER, golden.A2_COMP) == []
        assert golden.compare(a, "neg", golden.A2_ORDER, golden.A2_NEG) == []

    def test_a4_vs_golden(self):
        assert golden.compare(a4(), "comp", golden.A4_ORDER, golden.A4_COMP) == []

    def test_b10_vs_golden(self):
        assert golden.compare(b10(), "comp", golden.B10_ORDER, golden.B10_COMP) == []


def _group_atoms(g):
    """A group or partial groupoid as atom product, inverse and unit, on
    sets of elements: X;Y = {f.h : f in X, h in Y, f.h defined} and
    X^ = {f^-1 : f in X}."""
    return (g.size, lambda f, h: {g.mul[f][h]} - {None},
            lambda f: {g.inv[f]}, {g.unit})


def _symmetric_atoms(k, table, ident):
    """Atom products from a table of atom sets; converse fixes every atom."""
    return k, lambda f, h: table[f][h], lambda f: {f}, ident


def _s3():
    """The symmetric group on three points, the smallest non-abelian group,
    so that a transposed complex product shows."""
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
                for p in perms)
    inv = tuple(index[tuple(p.index(i) for i in range(3))] for p in perms)
    return GroupSpec(6, mul, inv, index[(0, 1, 2)])


_BOOLEAN = [[{f} if f == h else set() for h in range(3)] for f in range(3)]
# atoms 0 = 1' and 1 = 0'
_M3 = [[{0}, {1}], [{1}, {0, 1}]]
# atoms 0 = 1', 1 = a, 2 = b
_D = [[{0}, {1}, {2}], [{1}, {0, 1, 2}, {1, 2}], [{2}, {1, 2}, {0, 1, 2}]]

COMPLEX_CASES = {
    **{f"cyclic{n}": (lambda n=n: group_complex(cyclic_group(n)),
                      _group_atoms(cyclic_group(n))) for n in range(1, 6)},
    **{f"boolean_group{k}": (lambda k=k: group_complex(boolean_group(k)),
                             _group_atoms(boolean_group(k))) for k in range(1, 4)},
    "s3": (lambda: group_complex(_s3()), _group_atoms(_s3())),
    "mckinsey": (lambda: group_complex(mckinsey_partial_groupoid()),
                 _group_atoms(mckinsey_partial_groupoid())),
    **{f"bra{k}": (lambda k=k: boolean_ra(k),
                   _symmetric_atoms(k, _BOOLEAN, set(range(k)))) for k in range(1, 4)},
    "m3": (m3, _symmetric_atoms(2, _M3, {0})),
    "lyndon_d": (lyndon_d, _symmetric_atoms(3, _D, {0})),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_CASES))
def test_complex_algebra_matches_set_definition(name):
    build, (k, times, inverse, unit) = COMPLEX_CASES[name]
    a = build()
    sets = [frozenset(j for j in range(k) if x >> j & 1) for x in range(1 << k)]
    index = {x: i for i, x in enumerate(sets)}
    assert a.size == len(sets)
    assert a.ident == index[frozenset(unit)]
    for (i, x), (j, y) in product(enumerate(sets), repeat=2):
        assert a.add[i][j] == index[x | y]
        assert a.comp[i][j] == index[frozenset().union(
            *(times(f, h) for f in x for h in y))], (x, y)
    for i, x in enumerate(sets):
        assert a.neg[i] == index[frozenset(range(k)) - x]
        assert a.conv[i] == index[frozenset().union(*(inverse(f) for f in x))]


class TestDiffModels:
    def test_a9_cell_diffs(self):
        a, base = a9(), z3_complex()
        changed = [(i, j) for i in range(8) for j in range(8)
                   if a.comp[i][j] != base.comp[i][j]]
        assert len(changed) == 6
        # every change is at a singleton row, doubleton column
        assert all(i in (1, 2, 4) and j in (3, 5, 6) for i, j in changed)
        assert golden.compare(a, "comp", golden.Z3_ORDER, golden.A9_COMP) == []
        assert golden.compare(a, "conv", golden.Z3_ORDER, golden.A9_CONV) == []
        conv_moved = [i for i in range(8) if a.conv[i] != i]
        assert sorted(a.name_of(i) for i in conv_moved) == \
            sorted(golden.A9_CONV_SWAP)

    def test_b9_cell_diffs(self):
        a, base = b9(), lyndon_d()
        changed = [(i, j) for i in range(8) for j in range(8)
                   if a.comp[i][j] != base.comp[i][j]]
        assert len(changed) == 4
        assert golden.compare(a, "comp", golden.D_ORDER, golden.B9_COMP) == []
        assert golden.compare(a, "conv", golden.D_ORDER, golden.B9_CONV) == []
        conv_moved = [i for i in range(8) if a.conv[i] != base.conv[i]]
        assert sorted(a.name_of(i) for i in conv_moved) == \
            sorted(golden.B9_CONV_SWAP)

    def test_derived_references_differ_as_stated(self):
        # the numbers the a9 and b9 golden claims state
        def changed(x, y):
            return sum(p != q for p, q in zip(x, y))
        assert sum(map(changed, golden.A9_COMP, golden.Z3_COMP)) == 6
        assert changed(golden.A9_CONV, golden.Z3_CONV) == 2
        assert sum(map(changed, golden.B9_COMP, golden.D_COMP)) == 4
        assert changed(golden.B9_CONV, golden.D_ORDER) == 2


class TestParameterization:
    def test_small_bases_still_work(self):
        # each breaking construction already works at its smallest base
        assert is_independence_model(a1(1), TARSKI, "R1")
        assert is_independence_model(a3(1), TARSKI, "R3")
        assert is_independence_model(a5(1), TARSKI, "R5")
        assert is_independence_model(a6(boolean_ra(1)), TARSKI, "R6")
        assert is_independence_model(a7(2), TARSKI, "R7")
        assert is_independence_model(a8(boolean_ra(1)), TARSKI, "R8")
        assert is_independence_model(a10(1), TARSKI, "R10")

    def test_minimal_sizes(self):
        # each breaking construction at its smallest admissible parameters
        assert a1(1).size == 2
        assert a3(1).size == 2
        assert a5(1).size == 2
        assert a6(boolean_ra(1)).size == 2
        assert a7(2).size == 4
        assert a8(boolean_ra(1)).size == 2
        assert a10(1).size == 2
        assert a4().size == 8 == a9().size == b9().size

    def test_a1_rejects_trivial_group(self):
        with pytest.raises(AlgebraError):
            a1(0)

    @pytest.mark.parametrize("model_id", [
        "bra[k=9]", "bra[k=40]", "a1[k=40]", "a3[k=40]", "a5[k=40]",
        "a7[k=40]", "a10[k=40]", "bra[k=-1]", "a3[k=-1]", "a5[k=-1]",
        "a10[k=-1]"])
    def test_atom_count_is_capped(self, model_id):
        # 2**k elements, each table 4**k entries: refused before it is built;
        # a negative k is refused by the same check
        with pytest.raises(AlgebraError, match=f"at most {MAX_ATOMS} "):
            build_model(model_id)

    @pytest.mark.parametrize("k", [-1, MAX_ATOMS + 1])
    def test_generator_count_is_capped(self, k):
        with pytest.raises(AlgebraError, match=f"at most {MAX_ATOMS} generators"):
            boolean_group(k)

    def test_largest_atom_count_builds(self):
        assert build_model(f"bra[k={MAX_ATOMS}]").size == 256
        assert boolean_group(MAX_ATOMS).size == 256

    def test_group_complex_is_capped(self):
        # one atom per group element
        with pytest.raises(AlgebraError, match=f"at most {MAX_ATOMS} "):
            group_complex(cyclic_group(MAX_ATOMS + 1))

    def test_a8_changes_exactly_one_cell(self):
        base = m3()
        a = a8(base)
        changed = [(i, j) for i in range(4) for j in range(4)
                   if a.comp[i][j] != base.comp[i][j]]
        assert changed == [(0, 0)]
        assert a.comp[0][0] == derived_element(base, "one")

    def test_a7_parameter_validation(self):
        with pytest.raises(AlgebraError):
            a7(1)
        with pytest.raises(AlgebraError):
            a7(2, ident=0)

    def test_b5_needs_a_wrong_ident(self):
        with pytest.raises(AlgebraError):
            b5(m3(), ident=1)

    def test_is_symmetric_integral(self):
        assert is_symmetric_integral(m3())
        assert is_symmetric_integral(lyndon_d())
        assert not is_symmetric_integral(z3_complex())  # converse moves atoms
        assert not is_symmetric_integral(b10())

    def test_a8_rejects_bad_base(self):
        with pytest.raises(AlgebraError):
            a8(z3_complex())

    def test_a8_on_a_larger_symmetric_integral_base(self):
        assert is_independence_model(a8(m3()), TARSKI, "R8")


class TestRegistry:
    def test_parse_model_id(self):
        assert parse_model_id("m3") == ("m3", {})
        assert parse_model_id("a7[k=2,ident=1]") == ("a7", {"k": "2", "ident": "1"})
        with pytest.raises(AlgebraError):
            parse_model_id("a7[k=2")
        with pytest.raises(AlgebraError):
            parse_model_id("a7[k2]")

    def test_build_model(self):
        assert build_model("a7[k=2,ident=2]").ident == 2
        assert build_model("bra[k=3]").size == 8
        with pytest.raises(AlgebraError):
            build_model("nope")

    def test_nested_model_ids(self):
        assert parse_model_id("a8[base=a7[k=2,ident=1]]") == \
            ("a8", {"base": "a7[k=2,ident=1]"})
        assert build_model("a6[base=bra[k=2]]") == a6(boolean_ra(2))
        assert build_model("b5[base=bra[k=2],ident=1]") == b5(boolean_ra(2), 1)
        for text in ("a8[base=a7[k=2]", "a6[base=bra]k=2]]", "m3]"):
            with pytest.raises(AlgebraError, match="model id"):
                parse_model_id(text)

    def test_unknown_parameter(self):
        with pytest.raises(AlgebraError, match="'x'"):
            build_model("a7[x=1]")
        with pytest.raises(AlgebraError, match="'k'"):
            build_model("z3c[k=1]")
        # a repeated parameter, or one that is not an integer
        for model_id in ("a7[k=2,k=3]", "a7[k=3x]", "a7[k=]", "a7[k=1.5]"):
            with pytest.raises(AlgebraError, match="'k'"):
                build_model(model_id)

    def test_every_listed_model_builds(self):
        for mid in list_models():
            a = build_model(mid)
            assert a.size >= 2
            assert derived_element(a, "one") is not None


# sha256 of to_json(build_model(id)) for every catalog id, so that a change
# to any constructor shows, not only to the models the golden tables hold
MODEL_DIGESTS = {
    "a1": "904275bef5a4e95c1911ed7ac9381ff36223714588962623b3a0c6b4cda5359c",
    "a10": "80ef22c4a782cb3ccbf0050797b4b0adcca2dbe52123a28413b8070603619442",
    "a2": "2a8699c517d22f94f6c030c6b72bfe2de957d0e575ec44fe85839eca1fd0ff47",
    "a3": "fc2fbc881f75589ac95f4aeb25c6c9c4b1b97fa8466e34d9ccd4e9c950545df6",
    "a4": "cc0025d2cda298628b06308aa7d02a1e66a81ed11113bd47018a5ed8cf201aeb",
    "a5": "84303fee1611455d4a8863ad10984210fffa8d63f6e45dead017694e36e534b3",
    "a6": "3c33e49eae577fb6db1540b26b885eef2995f307e9c53981f7ee818157a1d981",
    "a7": "e72c0d1a044eb36223bc0947b5df3f37cd88b4e94b2ed88df9e4b275c2fc3ca7",
    "a8": "326f368a5330f89649a8e9680ff5aa695f9727922a6f2f462ebc80816e7bc94c",
    "a9": "85a4b358cee338eed126937096e7ee36749e207421d2bcd4ab51fab8679177ce",
    "b10": "21bea0138a184c451e034e2c1a5bc45f4fb823f9a1e6692cfb484cfe1cf32af7",
    "b5": "e1fe72993d6179bc4682434b8656b9ee68979a7bb6fdcb0c02e9918897ee5684",
    "b9": "b4218f0d34b32e2bec8c81899b54476638c357463e50c3d73b050ea149ed9842",
    "bra": "a73e6e48984c58b6ebf103625cd7a874b53ae81cf6b1387ac852480a5e82353c",
    "d": "243e58ddd013efd2e0a0982f15d61faaf25713b6381eeb2f484ed8304f0bf286",
    "m3": "fcf1e4a1c0379c00f193459dd7af7f1f4a9ed8323b21624e4714fa6436673325",
    "z3c": "de16e74aed4427b9e72ff6e5693d53b9e3a832ac4b6f47e8d1c3d53429d6fe90",
}


def test_every_model_is_pinned():
    assert {mid: hashlib.sha256(to_json(build_model(mid)).encode()).hexdigest()
            for mid in list_models()} == MODEL_DIGESTS
