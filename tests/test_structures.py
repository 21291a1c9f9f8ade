import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    class_assignment,
    naive_relations,
    permutation_values,
    random_shape,
    shapes_up_to,
)
from limlaw.structures import (
    BULLET,
    ConvexLinearOrder,
    PartSequence,
    as_relational,
    decompose,
    enumerate_shapes,
    hat,
    oplus,
    shape_from_bits,
    structure_view,
)
from limlaw.limitchain import _CHUNK, _step_bits

parts_strategy = st.lists(st.integers(1, 5), min_size=1, max_size=7).map(tuple)


class TestPartSequence:
    def test_literal_round_trip(self):
        p = PartSequence.from_text(" 2, 1,3 ")
        assert p.parts == (2, 1, 3)
        assert str(p) == "2,1,3"
        assert p.size == 6

    @pytest.mark.parametrize("bad", ["", "0", "2,-1", "2,,3", "a,1", "1,0"])
    def test_rejects_bad_literals(self, bad):
        with pytest.raises(ValueError):
            PartSequence.from_text(bad)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            PartSequence(())
        with pytest.raises(ValueError):
            PartSequence((1, 0))

    @given(parts_strategy)
    def test_size_is_sum(self, parts):
        assert PartSequence(parts).size == sum(parts)

    @given(parts_strategy)
    def test_text_round_trip(self, parts):
        p = PartSequence(parts)
        assert PartSequence.from_text(str(p)) == p


class TestConstructors:
    def test_oplus_examples(self):
        assert oplus(ConvexLinearOrder(PartSequence((2, 1))),
                     ConvexLinearOrder(PartSequence((3,)))).shape.parts == (2, 1, 3)
        assert oplus(BULLET, BULLET).shape.parts == (1, 1)

    def test_hat_examples(self):
        assert hat(BULLET).shape.parts == (2,)
        assert hat(ConvexLinearOrder(PartSequence((2, 1)))).shape.parts == (2, 2)

    def test_oplus_concatenates_relation_tables(self):
        # independent point-level oracle: relations of the sum are the two
        # tables side by side plus all-order/no-class across
        rng = random.Random(11)
        for _ in range(200):
            a, b = random_shape(rng, 6), random_shape(rng, 6)
            summed = oplus(ConvexLinearOrder(a), ConvexLinearOrder(b))
            assert summed.size == a.size + b.size
            ra, rb = naive_relations("convex", a), naive_relations("convex", b)
            expected_e = set(ra["E"])
            expected_e |= {(i + a.size, j + a.size) for i, j in rb["E"]}
            view = as_relational("convex", summed.shape)
            for i in range(1, summed.size + 1):
                for j in range(1, summed.size + 1):
                    assert view.holds("E", i, j) == ((i, j) in expected_e)
                    assert view.holds("<", i, j) == (i < j)

    def test_hat_grows_last_class_only(self):
        rng = random.Random(12)
        for _ in range(200):
            c = ConvexLinearOrder(random_shape(rng, 8))
            grown = hat(c)
            before = class_assignment(c.shape.parts)
            after = class_assignment(grown.shape.parts)
            assert after[: c.size + 1] == before
            assert after[grown.size] == after[c.size]
            assert Counter(after[1:])[after[grown.size]] == \
                Counter(before[1:])[before[c.size]] + 1


class TestDecompose:
    def test_examples(self):
        assert decompose(BULLET) == ()
        assert decompose(ConvexLinearOrder(PartSequence((1, 1)))) == (0,)
        assert decompose(ConvexLinearOrder(PartSequence((2,)))) == (1,)
        assert decompose(ConvexLinearOrder(PartSequence((2, 1, 3)))) == \
            (1, 0, 0, 1, 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bijection_with_step_sequences(self, n):
        shapes = enumerate_shapes(n)
        assert len(shapes) == 2 ** (n - 1)
        assert len(set(shapes)) == len(shapes)
        seen = set()
        for shape in shapes:
            steps = decompose(ConvexLinearOrder(shape))
            assert len(steps) == n - 1
            assert set(steps) <= {0, 1}
            assert shape_from_bits(steps) == shape
            seen.add(steps)
        assert len(seen) == 2 ** (n - 1)

    @given(parts_strategy)
    def test_replay_inverts_decompose(self, parts):
        c = ConvexLinearOrder(PartSequence(parts))
        assert shape_from_bits(decompose(c)) == c.shape


def _sampled_parts(n: int, draws: int, seed: int):
    """Part tuples of ``draws`` size-n structures from the estimator's step
    stream for ``seed``, chunk by chunk as the estimator draws them."""
    for idx, start in enumerate(range(0, draws, _CHUNK)):
        size = min(_CHUNK, draws - start)
        for row in _step_bits(seed, idx, size, n):
            yield shape_from_bits(row).parts


class TestSampling:
    def test_exact_path_counts_small(self):
        # every one of the 2^(n-1) step sequences yields a distinct shape
        for n in range(1, 7):
            images = {shape_from_bits(bits)
                      for bits in itertools.product((0, 1), repeat=n - 1)}
            assert len(images) == 2 ** (n - 1)

    def test_n3_frequencies(self):
        draws = 100_000
        counts = Counter(_sampled_parts(3, draws, seed=42))
        assert set(counts) == {(1, 1, 1), (2, 1), (1, 2), (3,)}
        for c in counts.values():
            assert abs(c / draws - 0.25) < 5 * (0.25 * 0.75 / draws) ** 0.5

    def test_n6_frequencies_within_5_sigma(self):
        draws = 100_000
        counts = Counter(_sampled_parts(6, draws, seed=2024))
        assert len(counts) == 32
        p = 1 / 32
        sigma = (p * (1 - p) / draws) ** 0.5
        for c in counts.values():
            assert abs(c / draws - p) < 5 * sigma

    def test_n8_chi_square(self):
        draws = 200_000
        counts = Counter(_sampled_parts(8, draws, seed=77))
        assert len(counts) == 128
        expected = draws / 128
        statistic = sum((c - expected) ** 2 / expected
                        for c in counts.values())
        # chi-square with 127 degrees of freedom: mean 127, sd ~ 15.9;
        # 207 is the +5 sigma cutoff
        assert statistic < 207


#: Per theory, the atom ``(p + left) symbol (p + right)`` that holds exactly
#: when points p and p+1 lie in one block (class, part).
_SAME_BLOCK = {"convex": ("E", 0, 1), "layered": ("<2", 1, 0),
               "composition": ("E", 0, 1), "fractured": ("p2", 0, 1)}


def _read_shape(view):
    """The shape of a view, read from its relations alone: bit p says
    whether points p and p+1 share a block."""
    symbol, left, right = _SAME_BLOCK[view.theory]
    return shape_from_bits(view.holds(symbol, p + left, p + right)
                           for p in range(1, view.size))


def _one_line(view):
    """One-line notation of a layered view: the value at i is one more than
    the number of points below i in ``<2``."""
    pts = range(1, view.size + 1)
    return tuple(1 + sum(view.holds("<2", j, i) for j in pts) for i in pts)


class TestMaps:
    """A structure of every theory is its view on the shared shape; these
    check the correspondences between theories on those views."""

    def test_layered_examples(self):
        assert _read_shape(as_relational(
            "layered", PartSequence((2, 1)))).parts == (2, 1)
        assert _read_shape(as_relational(
            "layered", PartSequence((1, 1, 1)))).parts == (1, 1, 1)

    def test_one_line_notation(self):
        assert _one_line(as_relational("layered", PartSequence((2, 1)))) == \
            (2, 1, 3)
        assert _one_line(as_relational("layered", BULLET.shape)) == (1,)

    def test_blocks_are_where_orders_disagree(self):
        # the convex classes of a shape are exactly the pairs where the
        # layered orders <1 and <2 of the same shape disagree
        for shape in shapes_up_to(8):
            layered = as_relational("layered", shape)
            convex = as_relational("convex", shape)
            val = permutation_values(shape.parts)
            n = shape.size
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    disagree = (i < j) != (val[i] < val[j]) and i != j
                    assert (layered.holds("<1", i, j)
                            != layered.holds("<2", i, j)) == disagree
                    assert convex.holds("E", i, j) == (disagree or i == j)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_layered_round_trip(self, n):
        # a shape's layered and convex views both give the shape back, and
        # the layered view is the permutation of the conftest oracle
        for shape in enumerate_shapes(n):
            layered = as_relational("layered", shape)
            assert _read_shape(layered) == shape
            assert _read_shape(as_relational("convex", shape)) == shape
            assert _one_line(layered) == \
                tuple(permutation_values(shape.parts)[1:])

    def test_expansion_examples(self):
        view = as_relational("fractured", PartSequence((2, 1)))
        assert view.holds("p2", 1, 2) and not view.holds("p2", 2, 1)
        v = as_relational("fractured", PartSequence((1, 1, 1)))
        assert not any(v.holds("p2", i, j)
                       for i in range(1, 4) for j in range(1, 4))

    def test_expansion_satisfies_fractured_axioms(self):
        for shape in shapes_up_to(8):
            v = as_relational("fractured", shape)
            pts = range(1, shape.size + 1)
            for a in pts:
                for rel in ("p1", "p2"):
                    assert not v.holds(rel, a, a)  # strict partial orders
                assert v.holds("E", a, a)
                for b in pts:
                    if a == b:
                        continue
                    # comparability dichotomies
                    p1_comp = v.holds("p1", a, b) or v.holds("p1", b, a)
                    p2_comp = v.holds("p2", a, b) or v.holds("p2", b, a)
                    assert p1_comp == (not v.holds("E", a, b))
                    assert p2_comp == v.holds("E", a, b)
                    assert not (v.holds("p1", a, b) and v.holds("p1", b, a))
                    assert not (v.holds("p2", a, b) and v.holds("p2", b, a))
                    for c in pts:
                        # transitivity and convexity
                        if v.holds("p1", a, b) and v.holds("p1", b, c):
                            assert v.holds("p1", a, c)
                        if v.holds("p2", a, b) and v.holds("p2", b, c):
                            assert v.holds("p2", a, c)
                        if v.holds("E", a, b) and v.holds("p1", a, c):
                            assert v.holds("p1", b, c)

    def test_fractured_to_convex_bullets(self):
        # fusing p1 and p2 into one order gives the convex order < of the
        # same shape
        for shape in shapes_up_to(8):
            frac = as_relational("fractured", shape)
            conv = as_relational("convex", shape)
            n = shape.size
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert frac.holds("E", i, j) == conv.holds("E", i, j)
                    assert frac.holds("p1", i, j) == (
                        not conv.holds("E", i, j) and conv.holds("<", i, j))
                    assert frac.holds("p2", i, j) == (
                        conv.holds("E", i, j) and conv.holds("<", i, j))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_composition_chain_is_bijective_on_shapes(self, n):
        # composition -> fractured -> convex: reading the blocks back from
        # each view hits every shape of size n exactly once
        shapes = enumerate_shapes(n)
        for theory in ("composition", "fractured", "convex"):
            images = [_read_shape(as_relational(theory, s)) for s in shapes]
            assert images == shapes

    def test_structure_view_of_views_and_convex_orders(self):
        shape = PartSequence((2, 1))
        view = as_relational("layered", shape)
        assert structure_view(view) is view
        convex = structure_view(ConvexLinearOrder(shape))
        assert (convex.theory, convex.shape) == ("convex", shape)
        with pytest.raises(ValueError):
            structure_view(shape)


class TestRelationalViews:
    def test_pinned_examples(self):
        v = as_relational("convex", PartSequence((2, 1)))
        assert v.holds("E", 1, 2) and not v.holds("E", 2, 3)
        assert v.holds("<", 1, 3)
        lay = as_relational("layered", PartSequence((2, 1)))
        assert lay.holds("<2", 2, 1) and lay.holds("<2", 1, 3)
        comp = as_relational("composition", PartSequence((2, 1)))
        assert comp.holds("p1", 1, 3) and not comp.holds("p1", 1, 2)

    def test_unknown_theory_and_symbol(self):
        with pytest.raises(ValueError):
            as_relational("digraph", PartSequence((1,)))
        v = as_relational("convex", PartSequence((1,)))
        with pytest.raises(ValueError):
            v.holds("p1", 1, 1)

    @pytest.mark.parametrize("i,j,bad", [(0, 1, 0), (-1, 3, -1), (1, 4, 4),
                                         (3, 0, 0)])
    def test_holds_rejects_points_outside_the_structure(self, i, j, bad):
        # index 0 is class 0 and -1 wraps to the last point, so these once
        # answered as if the point were real
        v = as_relational("convex", PartSequence((2, 1)))
        with pytest.raises(ValueError, match=rf"point {bad} is not in 1\.\.3"):
            v.holds("E", i, j)

    @pytest.mark.parametrize("theory",
                             ["convex", "layered", "composition", "fractured"])
    def test_views_match_naive_tables(self, theory):
        for shape in shapes_up_to(6):
            view = as_relational(theory, shape)
            n = shape.size
            tables = naive_relations(theory, shape.parts)
            tables["="] = {(i, i) for i in range(1, n + 1)}
            for sym, table in tables.items():
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        # ``is``: holds gives a plain bool
                        assert view.holds(sym, i, j) is ((i, j) in table), \
                            (theory, str(shape), sym, i, j)

    @pytest.mark.parametrize("theory",
                             ["convex", "layered", "composition", "fractured"])
    def test_relation_arrays_match_naive_tables(self, theory):
        for shape in shapes_up_to(6):
            view = as_relational(theory, shape)
            n = shape.size
            points = np.arange(1, n + 1)
            tables = naive_relations(theory, shape.parts)
            tables["="] = {(i, i) for i in range(1, n + 1)}
            for sym, table in tables.items():
                m = view.relation(sym, points[:, None], points)
                assert m.shape == (n, n)
                assert {(i + 1, j + 1) for i, j in zip(*m.nonzero())} == \
                    table, (theory, str(shape), sym)
                # rows, columns and the diagonal are the matrix's
                assert (view.relation(sym, points, points)
                        == m.diagonal()).all()
                for p in range(1, n + 1):
                    assert (view.relation(sym, p, points) == m[p - 1]).all()
                    assert (view.relation(sym, points, p)
                            == m[:, p - 1]).all()
        with pytest.raises(ValueError):
            as_relational("convex", PartSequence((2,))).relation("p1", 1, 2)

    @settings(max_examples=60)
    @given(parts_strategy, st.sampled_from(
        ["convex", "layered", "composition", "fractured"]))
    def test_views_match_naive_tables_random(self, parts, theory):
        shape = PartSequence(parts)
        view = as_relational(theory, shape)
        tables = naive_relations(theory, parts)
        for sym, table in tables.items():
            assert all(view.holds(sym, i, j) == ((i, j) in table)
                       for i in range(1, shape.size + 1)
                       for j in range(1, shape.size + 1))
