import json
import random
import time
from itertools import chain, permutations

import pytest

from relalg.algebra import (AlgebraError, automorphism_count, canonical_form,
                            derived_element, find_isomorphism, from_json,
                            make_algebra, relabel, to_json)
from relalg.axioms import BOOLEAN, R_SYS, axiom_sentence, satisfies
from relalg.catalog import (a2, a9, b10, boolean_ra, build_model, list_models, m3,
                            z3_complex)
from relalg.search import SearchSpec, boolean_guided_search
from relalg.terms import check_validity, holds, parse_sentence


def tiny():
    """The two-element Boolean relation algebra."""
    return boolean_ra(1)


class TestMakeAlgebra:
    def test_valid(self):
        a = tiny()
        assert a.size == 2
        assert a.add[0][1] == 1

    def test_wrong_matrix_shape(self):
        with pytest.raises(AlgebraError, match="add table"):
            make_algebra(2, [[0, 1]], [1, 0], [[0, 0], [0, 1]], [0, 1], 1)

    def test_out_of_range_entry(self):
        with pytest.raises(AlgebraError, match="out of range"):
            make_algebra(2, [[0, 1], [1, 5]], [1, 0], [[0, 0], [0, 1]], [0, 1], 1)
        # an entry that is not an integer is neither truncated nor parsed
        for add, neg, what in [([[0, 1.7], [1, 1]], [1, 0], "add"),
                               ([[0, "1"], [1, 1]], [1, 0], "add"),
                               ([[0, 1], [1, 1]], ["1", 0], "neg"),
                               ([[0, 1], [1, 1]], "10", "neg")]:
            with pytest.raises(AlgebraError, match=f"{what} entries must be integers"):
                make_algebra(2, add, neg, [[0, 0], [0, 1]], [0, 1], 1)

    def test_bad_vector_length(self):
        with pytest.raises(AlgebraError, match="neg vector"):
            make_algebra(2, [[0, 1], [1, 1]], [1], [[0, 0], [0, 1]], [0, 1], 1)

    def test_bad_ident(self):
        with pytest.raises(AlgebraError, match="ident"):
            make_algebra(2, [[0, 1], [1, 1]], [1, 0], [[0, 0], [0, 1]], [0, 1], 3)
        for ident in (1.9, "1", None):
            with pytest.raises(AlgebraError, match="ident"):
                make_algebra(2, [[0, 1], [1, 1]], [1, 0], [[0, 0], [0, 1]], [0, 1], ident)

    def test_duplicate_names(self):
        with pytest.raises(AlgebraError, match="distinct"):
            make_algebra(2, [[0, 1], [1, 1]], [1, 0], [[0, 0], [0, 1]],
                         [0, 1], 1, ["x", "x"])

    def test_size_zero(self):
        with pytest.raises(AlgebraError):
            make_algebra(0, [], [], [], [], 0)
        # nor is a size that is not an integer truncated or parsed
        for size in (2.0, "2"):
            with pytest.raises(AlgebraError, match="size and ident"):
                make_algebra(size, [[0, 1], [1, 1]], [1, 0], [[0, 0], [0, 1]], [0, 1], 1)


def _valid(a, *texts):
    return all(check_validity(a, parse_sentence(t)) is None for t in texts)


# On a finite algebra, ; is completely additive iff R8, R8p and the two
# zero laws hold, and ^ is iff R9 and 0^ = 0 hold (Jonsson and Tarski 1951)
ZERO_LAWS = ("0;r = 0", "r;0 = 0")


class TestDerivedOperations:
    def test_constants_m3(self):
        a = m3()
        assert derived_element(a, "zero") == 0
        assert derived_element(a, "one") == 3
        assert derived_element(a, "diversity") == 2
        with pytest.raises(ValueError):
            derived_element(a, "bogus")

    def test_meet_and_leq(self):
        # . is -(-x + -y) and x <= y is x + y = y, read from m3's tables
        a = m3()
        assert _valid(a, "1'.1 = 1'", "1'.-1' = 0", "1' <= 1")
        assert not _valid(a, "1 <= 1'")


class TestCompleteDistributivity:
    def test_complex_algebra_is_distributive(self):
        a = z3_complex()
        assert satisfies(a, ("R8", "R8p", "R9"))
        assert _valid(a, *ZERO_LAWS, "0^ = 0")

    def test_broken_models(self):
        # b10 holds R8 and R8p, but 0;0' = 0' although the empty join is 0
        a = b10()
        assert satisfies(a, ("R8", "R8p"))
        assert a.name_of(check_validity(a, parse_sentence("0;r = 0"))["r"]) == "0'"
        # a9: converse is not even additive (R9)
        assert not satisfies(a9(), ("R9",))


class TestIsomorphism:
    def test_relabel_round_trip(self):
        a = m3()
        perm = (2, 0, 3, 1)
        b = relabel(a, perm)
        inverse = [0] * 4
        for i, p in enumerate(perm):
            inverse[p] = i
        assert relabel(b, inverse) == a

    def test_find_isomorphism(self):
        a = m3()
        b = relabel(a, (3, 1, 0, 2))
        p = find_isomorphism(a, b)
        assert p is not None
        assert relabel(a, p) == b

    def test_no_isomorphism(self):
        assert find_isomorphism(m3(), b10()) is None
        assert find_isomorphism(m3(), boolean_ra(1)) is None

    def test_canonical_form_invariant(self):
        a = m3()
        assert canonical_form(a) == canonical_form(relabel(a, (1, 3, 2, 0)))
        assert canonical_form(a) != canonical_form(b10())

    def test_canonical_form_size_cap(self):
        with pytest.raises(AlgebraError):
            canonical_form(boolean_ra(4))

    def test_automorphism_count(self):
        # m3's four elements are pairwise distinguishable
        assert automorphism_count(m3()) == 1
        # swapping the two non-unit group elements is an automorphism of Z3's
        # complex algebra
        assert automorphism_count(z3_complex()) == 2


def _tables(a):
    return (a.size, a.ident, a.neg, a.conv, a.add, a.comp)


def _brute_isomorphisms(a, b):
    """Every one of the n! permutations p with relabel(a, p) == b, in
    lexicographic order."""
    return [p for p in permutations(range(a.size))
            if _tables(relabel(a, p)) == _tables(b)]


def _brute_canonical_form(a):
    """The least (size, ident, neg, conv, add, comp) encoding over all n!
    relabelings."""
    return min(bytes([b.size, b.ident, *b.neg, *b.conv, *chain(*b.add), *chain(*b.comp)])
               for b in (relabel(a, p) for p in permutations(range(a.size))))


def _least_encoding_fixing_ident(a):
    """The least (size, ident, neg, conv, add, comp) encoding over the
    (n-1)! relabelings that send ident to 0."""
    def encoding(order):
        p = [0] * a.size
        for i, x in enumerate(order):
            p[x] = i
        return bytes([a.size, 0, *(p[a.neg[x]] for x in order),
                      *(p[a.conv[x]] for x in order),
                      *(p[a.add[x][y]] for x in order for y in order),
                      *(p[a.comp[x][y]] for x in order for y in order)])
    rest = [x for x in range(a.size) if x != a.ident]
    return min(encoding((a.ident, *tail)) for tail in permutations(rest))


def _size8_leaves():
    """Three leaves of the symmetric R_SYS - R9 size-8 search, with the
    labels the search gave them."""
    must_hold = tuple(axiom_sentence(i) for i in R_SYS if i != "R9")
    spec = SearchSpec(8, must_hold + (parse_sentence("r^ = r"),), up_to_iso=True)
    return boolean_guided_search(spec).models[:3]


def _random_tables(rng, n):
    """Junk tables: neg and conv need not be involutions nor add Boolean.
    Each table draws its entries from a range of its own; narrow ranges give
    many permutations that preserve some tables but not the others."""
    def vec():
        k = rng.choice([1, min(2, n), n])
        return [rng.randrange(k) for _ in range(n)]

    def mat():
        k = rng.choice([1, min(2, n), n])
        return [[rng.randrange(k) for _ in range(n)] for _ in range(n)]

    return make_algebra(n, mat(), vec(), mat(), vec(), rng.randrange(n))


def _shuffled(a, seed):
    perm = list(range(a.size))
    random.Random(seed).shuffle(perm)
    return relabel(a, perm)


class TestIsomorphismOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_tables_match_brute_force(self, n):
        rng = random.Random(f"iso-oracle:{n}")
        for k in range(20 if n < 6 else 10):
            a = _random_tables(rng, n)
            others = (_shuffled(a, f"{n}:{k}"), _random_tables(rng, n))
            assert canonical_form(a) == _brute_canonical_form(a)
            assert automorphism_count(a) == len(_brute_isomorphisms(a, a))
            for b in others:
                first = next(iter(_brute_isomorphisms(a, b)), None)
                assert find_isomorphism(a, b) == first

    def test_size8_canonical_form_is_least_encoding(self):
        models = [build_model(m) for m in ("bra[k=3]", "d", "a9", "b9", "a3[k=3]")]
        leaves = _size8_leaves()
        assert len(leaves) == 3
        # neg that is not a Boolean complement: a3's is the identity map,
        # junk tables draw it at random; and one comp cell of d changed
        rng = random.Random("iso-oracle:8")
        junk = [_random_tables(rng, 8) for _ in range(4)]
        d = build_model("d")
        comp = [list(row) for row in d.comp]
        comp[2][5] = (comp[2][5] + 3) % 8
        mutant = make_algebra(8, d.add, d.neg, comp, d.conv, d.ident)
        for a in models + leaves + junk + [mutant]:
            assert a.size == 8
            assert canonical_form(a) == _least_encoding_fixing_ident(a)

    @pytest.mark.parametrize("model_id, count", [("bra[k=4]", 24), ("bra[k=5]", 120)])
    def test_automorphism_count_above_size_8(self, model_id, count):
        assert automorphism_count(build_model(model_id)) == count

    @pytest.mark.parametrize("model_id, size", [
        pytest.param(m, size, id=m) for m, size in
        [("bra[k=4]", 16), ("a7[k=4]", 16), ("bra[k=5]", 32), ("a7[k=5]", 32)]])
    def test_find_isomorphism_above_size_8(self, model_id, size):
        # both directions within 2 s: placing the first argument's elements
        # in index order took about 10 s for bra[k=5] at seed 1 from b to
        # a, and about 1.3 s for a7[k=5] at seed 0
        a = build_model(model_id)
        assert a.size == size
        for seed in range(2):
            b = _shuffled(a, f"{model_id}:{seed}")
            for x, y in ((a, b), (b, a)):
                start = time.perf_counter()
                p = find_isomorphism(x, y)
                assert time.perf_counter() - start < 2.0
                assert p is not None and _tables(relabel(x, p)) == _tables(y)

    def test_random_tables_reach_nontrivial_automorphisms(self):
        rng = random.Random("iso-oracle:4")
        counts = {automorphism_count(_random_tables(rng, 4)) for _ in range(12)}
        assert max(counts) > 1

    @pytest.mark.parametrize("model_id", [m for m in list_models()
                                          if build_model(m).size <= 8])
    def test_catalog_relabelings(self, model_id):
        a = build_model(model_id)
        form, aut = canonical_form(a), automorphism_count(a)
        for seed in range(2):
            b = _shuffled(a, f"{model_id}:{seed}")
            assert canonical_form(b) == form
            assert automorphism_count(b) == aut
            p = find_isomorphism(a, b)
            # with automorphisms p may differ from the shuffle, and so may names
            assert p is not None and _tables(relabel(a, p)) == _tables(b)


class TestDegenerateModels:
    def test_a3_collapses_zero_and_one(self):
        # with neg the identity function, 1 = 1'+1' = 1' and 0 = -1 = 1'
        from relalg.catalog import a3
        a = a3(1)
        assert derived_element(a, "one") == a.ident
        assert derived_element(a, "zero") == a.ident

    def test_a10_constants(self):
        from relalg.catalog import a10
        a = a10(1)
        assert a.ident == 0
        assert derived_element(a, "one") == 1
        assert derived_element(a, "zero") == 0

    def test_leq_in_a2(self):
        # 1' + 1 = 0 in a2, so 1' is not below 1
        assert not _valid(a2(), "1' <= 1")

    def test_d_meet_of_mixed_sums(self):
        from relalg.catalog import lyndon_d
        d = lyndon_d()
        i = {name: k for k, name in enumerate(d.names)}
        assert holds(d, parse_sentence("r.s = 1'"), {"r": i["1'+a"], "s": i["1'+b"]})


class TestBooleanGatedProperties:
    def test_leq_is_a_partial_order_under_r1_r3(self):
        # reflexive, antisymmetric, and r+s the least upper bound of r and s
        for a in (m3(), z3_complex(), a9(), b10()):
            assert satisfies(a, BOOLEAN)
            assert _valid(a, "r <= r", "r <= s, s <= r -> r = s",
                          "r <= r+s", "r <= t, s <= t -> r+s <= t")

    def test_complete_distributivity_implies_both_laws(self):
        for a in (m3(), z3_complex(), boolean_ra(2)):
            assert satisfies(a, ("R8", "R8p"))
            assert _valid(a, *ZERO_LAWS)
        # R8p fails in a9, so its ; is not completely additive
        assert not satisfies(a9(), ("R8p",))


class TestJson:
    def test_round_trip(self):
        for a in (m3(), z3_complex(), a2()):
            assert from_json(to_json(a)) == a

    def test_round_trip_without_names(self):
        a = make_algebra(2, [[0, 1], [1, 1]], [1, 0], [[0, 0], [0, 1]], [0, 1], 1)
        assert from_json(to_json(a)) == a

    def test_byte_stable(self):
        assert to_json(m3()) == to_json(m3())

    def test_field_order(self):
        doc = json.loads(to_json(m3()))
        assert list(doc) == ["size", "names", "add", "neg", "comp", "conv", "ident"]
