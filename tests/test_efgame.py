import itertools
import random

import pytest

from conftest import PairSearch, partition_by, random_shape, shapes_up_to
from limlaw.battery import BATTERY
from limlaw import efgame, logic
from limlaw.efgame import (
    BudgetExceededError,
    GameSolver,
    MarkedSegment,
    _pair_codes,
    clear_fast_memo,
    equiv_k,
    fast_equiv_convex,
    fast_equiv_shapes,
    fast_memo_size,
    reduce_representative,
    shape_type_id,
)
from limlaw.limitchain import build_chain, verify_chain_states
from limlaw.logic import SIGNATURES, SignatureError, evaluate, parse, \
    quantifier_depth, translate_to_convex
from limlaw.structures import (
    BULLET,
    THEORIES,
    ConvexLinearOrder,
    PartSequence,
    as_relational,
    oplus,
)


def _convex(*parts):
    return as_relational("convex", PartSequence(parts))


def _line(n):
    return PartSequence((1,) * n)


class TestGenericSolver:
    def test_pinned_equiv_examples(self):
        for shape in (PartSequence((2, 1)), PartSequence((1, 3, 1))):
            v = as_relational("convex", shape)
            for k in range(5):
                assert equiv_k(v, v, k)
        assert not equiv_k(_convex(1), _convex(2), 2)
        assert equiv_k(_convex(2, 1), _convex(3, 1), 1)

    def test_separating_sentence_matches_game(self):
        # [1] and [2] differ at depth 2, witnessed by a depth-2 sentence
        two_points = parse("exists x. exists y. !(x = y)")
        assert quantifier_depth(two_points) == 2
        assert not evaluate(_convex(1), two_points)
        assert evaluate(_convex(2), two_points)

    def test_linear_order_threshold_small(self):
        solver = GameSolver()
        for k in range(4):
            for n in range(1, 10):
                for m in range(n, 10):
                    want = n == m or (n >= 2 ** k - 1 and m >= 2 ** k - 1)
                    got = solver.equiv(as_relational("convex", _line(n)),
                                       as_relational("convex", _line(m)), k)
                    assert got == want, (n, m, k)

    def test_pure_linear_threshold_cases(self):
        s = GameSolver()
        assert s.equiv(as_relational("convex", _line(3)),
                       as_relational("convex", _line(5)), 2)
        assert not s.equiv(as_relational("convex", _line(2)),
                           as_relational("convex", _line(3)), 2)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureError):
            equiv_k(_convex(1, 1), as_relational("layered", _line(2)), 1)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            GameSolver().equiv(_convex(1), _convex(1), -1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            GameSolver().type_id(_convex(1), -1)

    def test_budget_exhaustion_is_reported(self):
        with pytest.raises(BudgetExceededError):
            equiv_k(_convex(*(1,) * 8), _convex(*(1,) * 9), 3, budget=5)
        with pytest.raises(BudgetExceededError, match="convex 1,1,1,1,1,1,1,1"):
            GameSolver(budget=5).type_id(_convex(*(1,) * 8), 3)

    @pytest.mark.parametrize("theory, max_size", [
        ("convex", 6), ("layered", 5), ("composition", 5), ("fractured", 5)])
    def test_type_ids_decide_equiv(self, theory, max_size):
        # equal depth-k types exactly when the pair search finds the two
        # structures k-equivalent; at depth 0 everything is equivalent
        views = [as_relational(theory, s) for s in shapes_up_to(max_size)]
        typer = GameSolver()
        search = GameSolver()
        assert {typer.type_id(v, 0) for v in views} == {0}
        for k in range(1, 4):
            ids = [typer.type_id(v, k) for v in views]
            for i, a in enumerate(views):
                for j in range(i + 1, len(views)):
                    assert (ids[i] == ids[j]) == search.equiv(a, views[j], k), \
                        (str(a.shape), str(views[j].shape), k)

    @pytest.mark.parametrize("theory", THEORIES)
    def test_equiv_matches_the_plain_pair_search(self, theory):
        # the solver decides the last two rounds by comparing each side's
        # type; the plain search plays them out move by move.  b is a random
        # shape or a with one part grown by 0-2 points, so both outcomes
        # occur; openings are random partial isomorphisms, built pair by
        # pair through ``holds``
        def consistent(a, b, pairs, x, y):
            return all(a.holds(s, x, u) == b.holds(s, y, v)
                       and a.holds(s, u, x) == b.holds(s, v, y)
                       for u, v in (*pairs, (x, y)) for s in a.symbols)

        rng = random.Random(307)
        solver, plain = GameSolver(), PairSearch()
        outcomes = set()
        for _ in range(200):
            shape = random_shape(rng, 7)
            if rng.random() < 0.5:
                other = random_shape(rng, 7)
            else:
                grown = list(shape.parts)
                grown[rng.randrange(len(grown))] += rng.randint(0, 2)
                other = PartSequence(tuple(grown))
            a, b = as_relational(theory, shape), as_relational(theory, other)
            for k in (1, 2, 3):
                value = solver.equiv(a, b, k)
                assert value == plain.equiv(a, b, k), \
                    (str(shape), str(other), k)
                outcomes.add((k, value))
            pairs = []
            for _ in range(rng.randint(1, min(3, a.size))):
                x = rng.choice([p for p in a.points()
                                if p not in {u for u, _ in pairs}])
                replies = [q for q in b.points()
                           if q not in {v for _, v in pairs}
                           and consistent(a, b, pairs, x, q)]
                if not replies:
                    break
                pairs.append((x, rng.choice(replies)))
            for r in (2, 3):
                value = solver.equiv(a, b, r, pairs=pairs)
                assert value == plain.equiv(a, b, r, pairs=pairs), \
                    (str(shape), str(other), pairs, r)
                outcomes.add((-r, value))
        # depth 1 never separates two nonempty structures
        assert outcomes == {(1, True)} | {(k, v) for k in (2, 3, -2, -3)
                                          for v in (False, True)}, outcomes

    def test_no_solver_keyword(self):
        # a caller's solver once silently replaced ``budget``
        with pytest.raises(TypeError):
            equiv_k(_convex(1), _convex(1), 1, solver=GameSolver())

    def test_one_round_base_case_against_raw_search(self):
        # every spoiler move must admit a consistent reply, spelled out
        # directly here without the solver's type-set shortcut
        def raw_one_round(A, B, pairs):
            xs = [x for x, _ in pairs]
            ys = [y for _, y in pairs]
            for V, W, pv, pw in ((A, B, xs, ys), (B, A, ys, xs)):
                for p in V.points():
                    if p in pv:
                        continue
                    if not any(q not in pw and _raw_consistent(V, W, pv, pw, p, q)
                               for q in W.points()):
                        return False
            return True

        def _raw_consistent(V, W, pv, pw, p, q):
            for sym in V.symbols:
                if V.holds(sym, p, p) != W.holds(sym, q, q):
                    return False
                for a, b in zip(pv, pw):
                    if V.holds(sym, p, a) != W.holds(sym, q, b):
                        return False
                    if V.holds(sym, a, p) != W.holds(sym, b, q):
                        return False
            return True

        for theory in THEORIES:
            rng = random.Random(211)
            solver = GameSolver()
            built = 0
            while built < 150:
                A = as_relational(theory, random_shape(rng, 7))
                B = as_relational(theory, random_shape(rng, 7))
                pairs = []
                for _ in range(rng.randint(0, 2)):
                    free_a = [p for p in A.points()
                              if p not in {x for x, _ in pairs}]
                    free_b = [q for q in B.points()
                              if q not in {y for _, y in pairs}]
                    if free_a and free_b:
                        pairs.append((rng.choice(free_a), rng.choice(free_b)))
                try:
                    value = solver.equiv(A, B, 1, pairs=pairs)
                except ValueError:
                    continue
                assert value == raw_one_round(A, B, sorted(pairs)), \
                    (theory, str(A.shape), str(B.shape), pairs)
                built += 1

    def test_mid_game_positions_against_the_segment_decider(self):
        # with r rounds left on convex orders, Duplicator wins iff every gap
        # between consecutive played points is r-equivalent to its partner
        # gap as a marked segment; the openings go through a
        # near-isomorphism (b is a with one part grown by 0-2 points, and
        # each point keeps its part and its place in it), so both outcomes
        # occur often
        def starts(parts):
            return list(itertools.accumulate((1, *parts[:-1])))

        def gaps(view, played):
            cls_of, n = view.cls_of, view.size
            bounds = (0, *played, n + 1)
            for lo, hi in zip(bounds, bounds[1:]):
                inside = cls_of[lo + 1:hi]
                if not inside:
                    yield MarkedSegment()
                    continue
                yield MarkedSegment(
                    tuple(len(list(run)) for _, run in itertools.groupby(inside)),
                    lo >= 1 and cls_of[lo] == inside[0],
                    hi <= n and cls_of[hi] == inside[-1])

        rng = random.Random(113)
        solver = GameSolver()
        wins = {1: 0, 2: 0, 3: 0}
        for _ in range(120):
            shape = random_shape(rng, 8)
            grown = list(shape.parts)
            grown[rng.randrange(len(grown))] += rng.randint(0, 2)
            a = as_relational("convex", shape)
            b = as_relational("convex", PartSequence(tuple(grown)))
            a_starts, b_starts = starts(shape.parts), starts(grown)
            opening = rng.sample(a.points(), min(a.size, rng.randint(1, 3)))
            pairs = [(x, x - a_starts[a.cls_of[x]] + b_starts[a.cls_of[x]])
                     for x in opening]
            r = rng.randint(1, 3)
            value = solver.equiv(a, b, r, pairs=pairs)
            xs, ys = zip(*sorted(pairs))
            assert value == all(
                fast_equiv_convex(s, t, r)
                for s, t in zip(gaps(a, xs), gaps(b, ys))), \
                (str(a.shape), str(b.shape), pairs, r)
            wins[r] += value
        assert min(wins.values()) >= 5, wins

    @pytest.mark.parametrize("theory", THEORIES)
    def test_pair_codes_match_holds(self, theory):
        for shape in shapes_up_to(6):
            view = as_relational(theory, shape)
            table = _pair_codes(view)
            assert len(table) == view.size + 1
            for p in view.points():
                row = table[p]
                assert len(row) == view.size + 1 and row[0] == row[p]
                for a in view.points():
                    code = row[a]
                    for i, sym in enumerate(view.symbols):
                        assert (code >> 2 * i) & 1 == view.holds(sym, p, a)
                        assert (code >> 2 * i + 1) & 1 == view.holds(sym, a, p)
                    assert code >> 2 * len(view.symbols) == 0

    @pytest.mark.parametrize("theory", ["layered", "fractured"])
    def test_interdefinable_theories_match_the_segment_decider(self, theory):
        # layered permutations and fractured orders define the convex < and
        # E without quantifiers (and back), so they have the convex games
        shapes = shapes_up_to(6)
        views = [as_relational(theory, s) for s in shapes]
        solver = GameSolver()
        for k in range(4):
            for i, a in enumerate(shapes):
                for j in range(i, len(shapes)):
                    assert solver.equiv(views[i], views[j], k) \
                        == fast_equiv_shapes(a, shapes[j], k), \
                        (str(a), str(shapes[j]), k)

    def test_works_on_other_theories(self):
        a = as_relational("layered", PartSequence((2, 1)))
        b = as_relational("layered", PartSequence((1, 1, 1)))
        assert not equiv_k(a, b, 2)  # one has a descent, the other does not
        assert equiv_k(a, b, 1)


class TestPlayedPairs:
    def test_equal_structures_any_pairs(self):
        v = _convex(2, 2, 1)
        assert GameSolver().equiv(v, v, 3, pairs=((1, 1), (3, 3)))

    def test_invalid_pairs_rejected(self):
        a, b = _convex(2), _convex(1, 1)
        with pytest.raises(ValueError, match="disagree on 'E'"):
            GameSolver().equiv(a, b, 1, pairs=((1, 1), (2, 2)))

    def test_pairs_must_be_injective(self):
        v = _convex(3)
        with pytest.raises(ValueError, match="break injectivity"):
            GameSolver().equiv(v, v, 1, pairs=((1, 1), (2, 1)))

    def test_rounds_must_be_nonnegative(self):
        v = _convex(1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            GameSolver().equiv(v, v, -1, pairs=((1, 1),))

    def test_pinned_points_can_lose(self):
        a, b = _convex(2, 1), _convex(2, 1)
        # an E-related pair mapped onto a non-E pair is not a partial iso
        with pytest.raises(ValueError):
            GameSolver().equiv(a, b, 1, pairs=((1, 1), (2, 3)))
        # consistent but doomed: 1 maps to 3 (class of two vs singleton)
        assert not GameSolver().equiv(a, b, 1, pairs=((1, 3),))


class TestBoardBound:
    # the pair-code table of a board has size ** 2 cells, bounded by
    # logic.MAX_EVALUATION_CELLS, patched low here: 10 points fit in 100

    def test_ten_points_fit(self, monkeypatch):
        monkeypatch.setattr(logic, "MAX_EVALUATION_CELLS", 100)
        solver = GameSolver()
        assert solver.equiv(_convex(10), _convex(9), 2)
        assert solver.type_id(_convex(10), 2) == solver.type_id(_convex(9), 2)

    def test_eleven_points_are_refused_before_the_table(self, monkeypatch):
        monkeypatch.setattr(logic, "MAX_EVALUATION_CELLS", 100)

        pair_codes = efgame._pair_codes

        def small_tables_only(view):
            assert view.size <= 10, "an 11-point pair-code table was built"
            return pair_codes(view)

        monkeypatch.setattr(efgame, "_pair_codes", small_tables_only)
        big, small = _convex(11), _convex(1)
        refused = "11 points needs 121 pair codes, over the bound of 100"
        for search in (lambda: GameSolver().equiv(small, big, 1),
                       lambda: GameSolver().equiv(big, big, 1, pairs=((1, 1),)),
                       lambda: equiv_k(big, small, 1),
                       lambda: GameSolver().type_id(big, 1)):
            with pytest.raises(BudgetExceededError, match=refused) as err:
                search()
            assert err.value.nodes == 121


class TestFastDecider:
    def test_reflexive(self):
        for shape in shapes_up_to(5):
            for k in range(4):
                assert fast_equiv_shapes(shape, shape, k)

    def test_linear_threshold_cases(self):
        assert fast_equiv_shapes(_line(7), _line(9), 3)
        assert not fast_equiv_shapes(_line(6), _line(7), 3)

    def test_attachment_regression(self):
        # distinguishable only through the boundary class: one class of three
        # versus a singleton before a class of two
        assert not fast_equiv_shapes(PartSequence((3,)), PartSequence((1, 2)), 2)

    def test_marked_segment_validation(self):
        with pytest.raises(ValueError):
            MarkedSegment((), True, False)
        with pytest.raises(ValueError):
            MarkedSegment((0,), False, False)

    def test_against_generic_small(self):
        shapes = shapes_up_to(5)
        solver = GameSolver()
        for k in (1, 2, 3):
            for i, a in enumerate(shapes):
                for b in shapes[i:]:
                    assert fast_equiv_shapes(a, b, k) == solver.equiv(
                        as_relational("convex", a),
                        as_relational("convex", b), k), (str(a), str(b), k)

    def test_marked_segments_against_pinned_games(self):
        # a marked segment is a gap between two played boundary points
        def embed(seg):
            parts = list(seg.parts)
            if seg.left_attached:
                parts[0] += 1
            else:
                parts = [1] + parts
            if seg.right_attached:
                parts[-1] += 1
            else:
                parts = parts + [1]
            shape = PartSequence(tuple(parts))
            return as_relational("convex", shape), shape.size

        segments = [MarkedSegment((), False, False)]
        for shape in shapes_up_to(3):
            for la in (False, True):
                for ra in (False, True):
                    segments.append(MarkedSegment(shape.parts, la, ra))
        solver = GameSolver()
        for k in (1, 2, 3):
            for i, s in enumerate(segments):
                for t in segments[i:]:
                    A, na = embed(s)
                    B, nb = embed(t)
                    try:
                        value = solver.equiv(A, B, k, pairs=((1, 1), (na, nb)))
                    except ValueError:
                        continue  # boundary relations differ: never aligned
                    assert value == fast_equiv_convex(s, t, k), (s, t, k)


class TestEquivalenceProperties:
    def test_symmetric_and_transitive_sampled(self):
        rng = random.Random(17)
        shapes = shapes_up_to(7)
        for _ in range(300):
            a, b, c = (rng.choice(shapes) for _ in range(3))
            k = rng.randint(0, 3)
            assert fast_equiv_shapes(a, b, k) == fast_equiv_shapes(b, a, k)
            if fast_equiv_shapes(a, b, k) and fast_equiv_shapes(b, c, k):
                assert fast_equiv_shapes(a, c, k)

    def test_monotone_refinement(self):
        rng = random.Random(23)
        shapes = shapes_up_to(7)
        for _ in range(300):
            a, b = rng.choice(shapes), rng.choice(shapes)
            for k in (0, 1, 2):
                if fast_equiv_shapes(a, b, k + 1):
                    assert fast_equiv_shapes(a, b, k)

    def test_oplus_and_hat_congruence_sampled(self):
        from limlaw.structures import hat

        rng = random.Random(29)
        for k in (1, 2):
            classes = partition_by(shapes_up_to(5),
                                   lambda a, b: fast_equiv_shapes(a, b, k))
            rich = [cls for cls in classes if len(cls) >= 2]
            solver = GameSolver()
            for _ in range(50):
                cls1, cls2 = rng.choice(rich), rng.choice(rich)
                m, n = rng.sample(cls1, 2)
                m2, n2 = rng.sample(cls2, 2)
                left = oplus(ConvexLinearOrder(m), ConvexLinearOrder(m2))
                right = oplus(ConvexLinearOrder(n), ConvexLinearOrder(n2))
                assert solver.equiv(left, right, k)
                assert solver.equiv(hat(ConvexLinearOrder(m)),
                                    hat(ConvexLinearOrder(n)), k)

    @staticmethod
    def _iterated_sum(base, count):
        acc = ConvexLinearOrder(base)
        for _ in range(count - 1):
            acc = oplus(acc, ConvexLinearOrder(base))
        return acc.shape

    def test_repetition_of_iterated_sums(self):
        # the reduction to the linear-order threshold needs the number of
        # copies on both sides to reach 2^k - 1, i.e. a cutoff of 2^k - 2
        for base in (PartSequence((1,)), PartSequence((2,)),
                     PartSequence((2, 1))):
            for k in (1, 2, 3):
                ell = 2 ** k - 2
                sums = {count: self._iterated_sum(base, count)
                        for count in range(ell + 1, ell + 5)}
                counts = sorted(sums)
                for i in counts:
                    for j in counts:
                        assert fast_equiv_shapes(sums[i], sums[j], k), \
                            (str(base), k, i, j)

    def test_repetition_cutoff_cannot_be_halved(self):
        # a cutoff of 2^(k-1) would contradict the linear-order threshold:
        # five and six copies of the one-point structure differ at depth 3
        assert not fast_equiv_shapes(self._iterated_sum(PartSequence((1,)), 5),
                                     self._iterated_sum(PartSequence((1,)), 6),
                                     3)

    def test_logical_soundness_against_battery(self):
        rng = random.Random(41)
        shapes = shapes_up_to(7)
        sentences = [(translate_to_convex(e.theory,
                                          parse(e.text, SIGNATURES[e.theory])))
                     for e in BATTERY]
        for _ in range(200):
            a, b = rng.choice(shapes), rng.choice(shapes)
            k = rng.randint(0, 3)
            if not fast_equiv_shapes(a, b, k):
                continue
            va, vb = as_relational("convex", a), as_relational("convex", b)
            for f in sentences:
                if quantifier_depth(f) <= k:
                    assert evaluate(va, f) == evaluate(vb, f), (str(a), str(b), k)


class TestReduceRepresentative:
    def test_pinned_examples(self):
        assert reduce_representative(
            ConvexLinearOrder(PartSequence((5, 1))), 2).shape.parts == (3, 1)
        assert reduce_representative(
            ConvexLinearOrder(PartSequence((2, 1))), 3).shape.parts == (2, 1)

    def test_run_truncation(self):
        c = ConvexLinearOrder(PartSequence((1,) * 9))
        assert reduce_representative(c, 2).shape.parts == (1, 1, 1)

    def test_k0_and_k1_collapse_to_a_point(self):
        c = ConvexLinearOrder(PartSequence((3, 2, 4)))
        assert reduce_representative(c, 0) == BULLET
        assert reduce_representative(c, 1) == BULLET

    def test_idempotent_and_equivalent(self):
        rng = random.Random(37)
        solver = GameSolver()
        for _ in range(500):
            c = ConvexLinearOrder(random_shape(rng, 12))
            k = rng.randint(0, 3)
            reduced = reduce_representative(c, k)
            assert reduce_representative(reduced, k) == reduced
            assert fast_equiv_shapes(reduced.shape, c.shape, k)
        for _ in range(40):
            c = ConvexLinearOrder(random_shape(rng, 9))
            k = rng.randint(0, 2)
            reduced = reduce_representative(c, k)
            assert solver.equiv(reduced, c, k)

    def test_cap_keeps_the_type_of_every_small_shape(self):
        # the composition theorem, which the cap relies on without a check:
        # 4,095 shapes at four depths, 10,885 of the pairs changed by it
        changed = 0
        for shape in shapes_up_to(12):
            for k in range(4):
                capped = reduce_representative(ConvexLinearOrder(shape), k)
                changed += capped.shape != shape
                assert shape_type_id(capped.shape, k) == \
                    shape_type_id(shape, k), (str(shape), k)
        assert changed == 10885


#: representatives of the 57 depth-2 classes, in discovery order
DEPTH2_REPRESENTATIVES = (
    "1 1,1 2 1,1,1 1,2 2,1 3 1,1,2 1,2,1 1,3 2,1,1 2,2 3,1 1,1,2,1 1,1,3 "
    "1,2,2 1,3,1 2,1,2 2,2,1 2,3 3,1,1 3,2 1,1,2,2 1,1,3,1 1,2,3 1,3,2 "
    "2,1,2,1 2,1,3 2,2,2 2,3,1 3,1,2 3,2,1 3,3 1,1,2,3 1,1,3,2 1,3,3 "
    "2,1,2,2 2,1,3,1 2,2,3 2,3,2 3,1,2,1 3,1,3 3,2,2 3,3,1 1,1,3,3 "
    "2,1,2,3 2,1,3,2 2,3,3 3,1,2,2 3,1,3,1 3,2,3 3,3,2 2,1,3,3 3,1,2,3 "
    "3,1,3,2 3,3,3 3,1,3,3").split()


def test_segment_decider_work_is_pinned():
    # the number of (depth, segment) subproblems the decider solves; a
    # change here is a change in how much work every class-chain build does
    clear_fast_memo()
    assert fast_memo_size() == 0
    ids = {shape_type_id(s, 3) for s in shapes_up_to(10)}
    assert (fast_memo_size(), len(ids)) == (3578, 997)
    clear_fast_memo()
    chain = build_chain(2)
    assert [str(s.representative.shape) for s in chain.states] \
        == DEPTH2_REPRESENTATIVES
    assert fast_memo_size() == 261


def test_game_search_work_is_pinned():
    # nodes the generic solver visits; a change here is a change in its move
    # order or pruning, not only in its speed.  A node is a position searched
    # with three or more rounds left, or a game type computed: verifying a
    # chain computes one node per type, depth by depth, and a search decides
    # its last two rounds by comparing the two sides' types
    solver = GameSolver()
    verify_chain_states(build_chain(2), solver)
    assert solver.nodes == 396
    a, b = PartSequence((2, 1, 3)), PartSequence((3, 1, 2))
    for theory, nodes in (("convex", 28), ("layered", 43),
                          ("composition", 49), ("fractured", 43)):
        solver = GameSolver()
        solver.equiv(as_relational(theory, a), as_relational(theory, b), 3)
        assert solver.nodes == nodes, theory
    solver = GameSolver()
    assert not solver.equiv(_convex(*(1,) * 20), _convex(*(1,) * 40), 5)
    assert solver.nodes == 6575
