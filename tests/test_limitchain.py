import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import chain_from_json, chain_walk, closed_classes, \
    closed_form, dense_limiting_distribution, max_norm_distance, \
    partition_by, random_formula, reachable, recursive_evaluate, shapes_up_to
from limlaw.battery import BATTERY
from limlaw.efgame import BudgetExceededError, GameSolver, fast_equiv_shapes
from limlaw import limitchain
from limlaw.limitchain import (
    Chain,
    ChainState,
    Distribution,
    InternalVerificationError,
    PeriodicChainError,
    analyze_limit,
    build_chain,
    build_sentence_chain,
    chain_to_dot,
    chain_to_json,
    check_fully_aperiodic,
    distribution_after,
    estimate_probability,
    limit_probability,
    limiting_distribution,
    verify_chain_states,
    walk_estimate,
)
from limlaw.logic import (
    MAX_EVALUATION_CELLS,
    SIGNATURES,
    batch_rows,
    evaluate,
    evaluation_cells,
    format_formula,
    miniscope,
    parse,
    quantifier_depth,
)
from limlaw.structures import (
    BULLET,
    ConvexLinearOrder,
    PartSequence,
    as_relational,
    enumerate_shapes,
    shape_from_bits,
)

HALF = Fraction(1, 2)

#: fractured orders whose last class has at least two points (limit 1/2)
FRACTURED_LAST_CLASS = ("exists x. exists y. (x p2 y"
                        " & forall z. (z E x | z p1 x))")


def _hand_chain(succs, accepting=None, start=0):
    states = tuple(
        ChainState(i, ConvexLinearOrder(PartSequence((1,))),
                   None if accepting is None else accepting[i], sp, sh)
        for i, (sp, sh) in enumerate(succs)
    )
    return Chain(k=0, states=states, start=start)


def _class_chain(k, sentence):
    """The depth-k class chain labeled by a convex sentence: the oracle the
    sentence's automaton chain is checked against."""
    return build_chain(
        k, lambda rep: evaluate(as_relational("convex", rep.shape), sentence))


def _accepting_mass(chain, dist):
    return sum((dist[s.id] for s in chain.states if s.accepting), Fraction(0))


class TestBuildChain:
    def test_k0_single_self_looping_state(self):
        chain = build_chain(0)
        assert len(chain) == 1
        assert chain.states[0].succ_plus == 0
        assert chain.states[0].succ_hat == 0

    def test_k1_single_state(self):
        assert len(build_chain(1)) == 1

    def test_k2_matches_brute_force_partition(self):
        chain = build_chain(2)
        solver = GameSolver()
        classes = partition_by(
            shapes_up_to(10),
            lambda a, b: solver.equiv(as_relational("convex", a),
                                      as_relational("convex", b), 2))
        assert len(chain) == len(classes)
        # every shape of size <= 10 is equivalent to some representative
        reps = [s.representative.shape for s in chain.states]
        for cls in classes:
            hits = [r for r in reps if fast_equiv_shapes(cls[0], r, 2)]
            assert len(hits) == 1

    def test_k3_closure_exceeds_any_practical_budget(self):
        with pytest.raises(BudgetExceededError):
            build_chain(3, max_states=2000)

    def test_acceptance_labels(self):
        pair = parse("exists x. exists y. (x E y & !(x = y))")

        def accept(rep):
            return evaluate(as_relational("convex", rep.shape), pair)

        chain = build_chain(2, accept)
        for state in chain.states:
            assert state.accepting == accept(state.representative)

    def test_dangling_successor_rejected(self):
        with pytest.raises(ValueError):
            _hand_chain([(0, 5)])


class TestAperiodicity:
    def test_single_self_loop(self):
        assert check_fully_aperiodic(_hand_chain([(0, 0)]))

    def test_two_cycle_control(self):
        assert not check_fully_aperiodic(_hand_chain([(1, 1), (0, 0)]))

    def test_three_cycle_control(self):
        assert not check_fully_aperiodic(_hand_chain([(1, 1), (2, 2), (0, 0)]))

    def test_transient_singleton_is_vacuous(self):
        assert check_fully_aperiodic(_hand_chain([(1, 1), (1, 1)]))

    def test_transient_cycle_does_not_matter(self):
        # states 0 and 1 swap with probability 1/2 and leak to the sink 2:
        # no cyclic family moves with probability one
        chain = _hand_chain([(1, 2), (0, 2), (2, 2)])
        assert check_fully_aperiodic(chain)

    def test_built_chains_are_fully_aperiodic(self):
        for k in (0, 1, 2):
            assert check_fully_aperiodic(build_chain(k))


class TestLimitingDistribution:
    def test_single_state(self):
        dist = limiting_distribution(_hand_chain([(0, 0)]))
        assert dist.probabilities == (Fraction(1),)

    def test_absorbing_two_state(self):
        # A stays with 1/2 and falls into the absorbing B with 1/2
        chain = _hand_chain([(0, 1), (1, 1)])
        assert limiting_distribution(chain).probabilities == \
            (Fraction(0), Fraction(1))

    def test_two_sinks_split_evenly(self):
        chain = _hand_chain([(1, 2), (1, 1), (2, 2)])
        assert limiting_distribution(chain).probabilities == \
            (Fraction(0), HALF, HALF)

    def test_sink_cycle_with_self_loops(self):
        # one sink component of two states, each with a self-loop: the
        # stationary split is uniform
        chain = _hand_chain([(0, 1), (1, 0)])
        assert limiting_distribution(chain).probabilities == (HALF, HALF)

    def test_periodic_chain_rejected(self):
        with pytest.raises(PeriodicChainError):
            limiting_distribution(_hand_chain([(1, 1), (0, 0)]))

    def test_periodic_error_names_a_state_and_the_period(self):
        # the start leaks into the 2-cycle {1, 2}
        with pytest.raises(PeriodicChainError) as exc:
            limiting_distribution(_hand_chain([(0, 1), (2, 2), (1, 1)]))
        assert (exc.value.state, exc.value.period) == (1, 2)
        assert "state 1 has period 2" in str(exc.value)
        with pytest.raises(PeriodicChainError) as exc:
            limiting_distribution(_hand_chain([(1, 1), (0, 0)]))
        assert (exc.value.state, exc.value.period) == (0, 2)

    def test_transient_cycle_passes_its_visits_on(self):
        # 0 and 1 swap or leak, 0 into 2 and 1 into 3: from 0 the walk
        # reaches 2 with chance 1/2 + 1/4 of that again, so 2/3
        chain = _hand_chain([(1, 2), (0, 3), (2, 2), (3, 3)])
        assert limiting_distribution(chain).probabilities == \
            (0, 0, Fraction(2, 3), Fraction(1, 3))

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            Distribution((HALF, HALF, HALF))
        with pytest.raises(ValueError):
            Distribution((Fraction(3, 2), Fraction(-1, 2)))


def _random_chain(rng):
    """A chain of at most 12 states, shuffled, built to take the solver's
    rarer branches: closed classes of 1 to 6 states, some of them plain
    cycles (period = size), then transient states whose first step stays
    among them, so they often form cycles, and whose two steps sometimes
    agree.  The start is most often transient, else any state."""
    succs = []
    for _ in range(rng.choice((1, 2, 2, 3))):
        size = rng.randint(1, 6)
        if len(succs) + size > 10:
            break
        base = len(succs)
        cycle = rng.random() < 0.1
        for i in range(size):
            nxt = base + (i + 1) % size
            succs.append((nxt, nxt if cycle else base + rng.randrange(size)))
    first = len(succs)
    n = rng.randint(first, 12)
    for _ in range(first, n):
        a, b = rng.randrange(first, n), rng.randrange(n)
        succs.append((a, a) if rng.random() < 0.2 else (a, b))
    perm = rng.sample(range(n), n)
    shuffled = [None] * n
    for u, (a, b) in enumerate(succs):
        shuffled[perm[u]] = (perm[a], perm[b])
    start = rng.randrange(first if first < n and rng.random() < 0.6 else 0, n)
    return _hand_chain(shuffled, start=perm[start])


def _built_chains():
    """Every chain of the battery, the three families at m = 2..6 in all
    four theories, ladder A at m = 2..12, ladder B at m = 2..7, and the
    class chains at depths 1 and 2."""
    texts = [(e.theory, e.text) for e in BATTERY]
    for family in closed_form.FAMILIES:
        for theory in closed_form.THEORIES:
            texts += [(theory, closed_form.family(
                family, theory, m, [f"v{i}" for i in range(m + 1)])[0])
                for m in range(2, 7)]
    texts += [("convex", closed_form.ladder_a(m, [f"v{i}" for i in
                                               range(m + 1)])[0])
              for m in range(2, 13)]
    texts += [("convex", closed_form.ladder_b(m, [f"v{i}" for i in
                                               range(m)])[0])
              for m in range(2, 8)]
    chains = [limitchain.prepare_chain(theory, text)[2]
              for theory, text in texts]
    return chains + [build_chain(1), build_chain(2)]


class TestDenseOracle:
    """The one pass over the components against ``Fraction`` elimination
    over all transient states at once (``conftest``)."""

    def test_built_chains(self):
        chains = _built_chains()
        assert len(chains) == 89
        for chain in chains:
            assert limiting_distribution(chain).probabilities == \
                dense_limiting_distribution(chain).probabilities

    def test_random_chains(self):
        rng = random.Random(28)
        seen = dict.fromkeys(("start closed", "transient cycle", "steps agree",
                              "two closed classes of 2+", "periodic"), 0)
        for _ in range(300):
            chain = _random_chain(rng)
            classes = closed_classes(chain)
            periodic = {u: d for members, d in classes if d != 1
                        for u in members}
            reach = reachable(chain)
            recurrent = set().union(*(members for members, _ in classes))
            seen["start closed"] += chain.start in recurrent
            seen["transient cycle"] += any(
                u in reach[v] for u in reach[chain.start] - recurrent
                for v in reach[u] if v != u)
            seen["steps agree"] += any(s.succ_plus == s.succ_hat != s.id
                                       for s in chain.states)
            seen["two closed classes of 2+"] += sum(
                len(members) >= 2 for members, _ in classes) >= 2
            seen["periodic"] += bool(periodic)
            if periodic:
                with pytest.raises(PeriodicChainError) as exc:
                    limiting_distribution(chain)
                assert periodic[exc.value.state] == exc.value.period
                with pytest.raises(PeriodicChainError):
                    dense_limiting_distribution(chain)
            else:
                assert limiting_distribution(chain).probabilities == \
                    dense_limiting_distribution(chain).probabilities
        assert min(seen.values()) >= 25, seen


class TestDistributionAfter:
    def test_zero_steps(self):
        chain = build_chain(2)
        dist = distribution_after(chain, 0)
        assert dist[chain.start] == 1

    def test_one_step_on_k2_chain(self):
        chain = build_chain(2)
        dist = distribution_after(chain, 1)
        two_singletons = chain_walk(chain, PartSequence((1, 1)))
        one_pair = chain_walk(chain, PartSequence((2,)))
        assert two_singletons != one_pair
        solver = GameSolver()
        assert not solver.equiv(as_relational("convex", PartSequence((1, 1))),
                                as_relational("convex", PartSequence((2,))), 2)
        assert dist[two_singletons] == HALF
        assert dist[one_pair] == HALF

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_pushforward_by_walk_small(self, k):
        chain = build_chain(k)
        for n in range(1, 9):
            counts = [0] * len(chain)
            for shape in enumerate_shapes(n):
                counts[chain_walk(chain, shape)] += 1
            dist = distribution_after(chain, n - 1)
            denom = 1 << (n - 1)
            assert all(Fraction(c, denom) == dist[i]
                       for i, c in enumerate(counts))


class TestClassOperationWellDefined:
    def test_equivalent_shapes_share_successor_states(self):
        rng = random.Random(3)
        chain = build_chain(2)
        classes = partition_by(shapes_up_to(8),
                               lambda a, b: fast_equiv_shapes(a, b, 2))
        rich = [cls for cls in classes if len(cls) >= 2]
        solver = GameSolver()
        from limlaw.structures import hat, oplus

        for _ in range(100):
            cls = rng.choice(rich)
            a, b = rng.sample(cls, 2)
            assert solver.equiv(
                oplus(ConvexLinearOrder(a), BULLET),
                oplus(ConvexLinearOrder(b), BULLET), 2)
            assert solver.equiv(hat(ConvexLinearOrder(a)),
                                hat(ConvexLinearOrder(b)), 2)
            assert chain_walk(chain, a) == chain_walk(chain, b)


class TestLimitProbability:
    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_battery_limits(self, entry):
        assert limit_probability(entry.theory, entry.text) == \
            entry.expected_limit

    def test_routes_agree_at_low_depth(self):
        checked = 0
        for entry in BATTERY:
            analysis = analyze_limit(entry.theory, entry.text)
            if analysis.k > 2:
                continue
            checked += 1
            oracle = _class_chain(analysis.k, analysis.translated)
            assert _accepting_mass(oracle, limiting_distribution(oracle)) \
                == analysis.probability, entry.name
            # the exact finite-n probabilities must agree as well: the
            # automaton is a quotient, so accepting mass is preserved
            for n in range(1, 21):
                assert _accepting_mass(
                    oracle, distribution_after(oracle, n - 1)) == \
                    _accepting_mass(
                        analysis.chain,
                        distribution_after(analysis.chain, n - 1)), \
                    (entry.name, n)
        assert checked == 7

    def test_random_sentences_agree_with_the_class_chain(self):
        # closed {<, E} sentences of quantifier depth at most 2, drawn with
        # quantifiers over fresh names at 45% of levels: the automaton's
        # limit is the limiting mass of the depth-2 classes whose
        # representative satisfies the sentence
        chain = build_chain(2)
        dist = limiting_distribution(chain)
        structures = [as_relational("convex", s.representative.shape)
                      for s in chain.states]
        rng = random.Random(5)
        checked = 0
        while checked < 150:
            sentence = random_formula(rng, [], 4, ("<", "E"), 0.45)
            if sentence.depth > 2:
                continue
            checked += 1
            want = sum((dist[i] for i, struct in enumerate(structures)
                        if recursive_evaluate(struct, sentence)), Fraction(0))
            assert analyze_limit("convex", sentence).probability == want, \
                format_formula(sentence)

    def test_open_formula_rejected(self):
        with pytest.raises(ValueError):
            limit_probability("convex", "x < y")

    @pytest.mark.parametrize("left,right", [
        ("exists x. x = x", "!(forall x. !(x = x))"),
        ("exists x. exists y. (x E y & !(x = y))",
         "exists y. exists x. (y E x & !(y = x))"),
        (BATTERY[2].text,
         "exists x. exists y. (x E y & x < y & !(exists z. z < x)"
         " & !(exists z. (x < z & z < y)))"),
        ("forall x. forall y. x E y", "!(exists x. exists y. !(x E y))"),
        (BATTERY[6].text,
         "exists x. exists y. (!(exists z. y < z) & (x E y & x < y))"),
    ])
    def test_equivalent_sentences_same_limit(self, left, right):
        fl = parse(left, SIGNATURES["convex"])
        fr = parse(right, SIGNATURES["convex"])
        from limlaw.logic import quantifier_depth

        assert quantifier_depth(fl) == quantifier_depth(fr)
        assert limit_probability("convex", fl) == \
            limit_probability("convex", fr)

    def test_depth_reduction_crosses_routes(self):
        # the last-class property written at depth 2 and again at depth 3:
        # two sentences, two automata, one limit
        depth2 = "exists y. (!(exists z. y < z) & exists x. (x < y & x E y))"
        a = analyze_limit("convex", depth2)
        b = analyze_limit("convex", BATTERY[6].text)
        assert (a.k, b.k) == (2, 3)
        assert a.probability == b.probability == HALF

    def test_depth0_sentences(self):
        assert limit_probability("convex", "true") == 1
        assert limit_probability("convex", "false") == 0

    def test_exact_vs_iterated_on_k2_chain(self):
        chain = _class_chain(2, parse("exists x. exists y. (x E y & !(x = y))"))
        exact = limiting_distribution(chain)
        iterated = distribution_after(chain, 2000)
        assert max_norm_distance(exact, iterated) < Fraction(1, 10 ** 9)

    def test_ladder_a_at_m8(self):
        # depth 9, eight points free in the body of the prefix
        text, limit = closed_form.ladder_a(8, [f"v{i}" for i in range(9)])
        analysis = analyze_limit("convex", text)
        assert analysis.probability == limit == 1
        assert analysis.k == 9


class TestRecheck:
    def test_translated_under_the_bound_miniscoped_past_it(self, monkeypatch):
        # ladder A at m = 8 checks its small representatives on the
        # translated sentence itself and the rest on the miniscoped form
        text, _ = closed_form.ladder_a(8, [f"v{i}" for i in range(9)])
        translated = parse(text)
        scoped = miniscope(translated)
        checked = []

        def recording(view, f):
            value = evaluate(view, f)  # a refused formula is not recorded
            checked.append((view.size, f))
            return value

        monkeypatch.setattr(limitchain, "evaluate", recording)
        chain = build_sentence_chain(translated)
        assert len(checked) == len(chain)
        for size, f in checked:
            fits = evaluation_cells(translated, size) <= MAX_EVALUATION_CELLS
            assert f == (translated if fits else scoped)
        assert {f is translated for _, f in checked} == {True, False}

    def test_prepare_chain_compiles_the_miniscoped_form(self, monkeypatch):
        text, _ = closed_form.ladder_a(3, [f"v{i}" for i in range(4)])
        compiled = []
        compile_sentence = limitchain.compile_sentence

        def recording(f):
            compiled.append(f)
            return compile_sentence(f)

        monkeypatch.setattr(limitchain, "compile_sentence", recording)
        _, translated, chain = limitchain.prepare_chain("convex", text)
        assert compiled == [miniscope(translated)] != [translated]
        assert chain.k == quantifier_depth(translated) == 4
        # every representative fits, so every check ran on the translation
        assert all(evaluation_cells(translated, s.representative.size)
                   <= MAX_EVALUATION_CELLS for s in chain.states)

    def test_disagreement_is_reported(self, monkeypatch):
        # a wrong miniscope is caught on the representatives checked
        # against the translation
        monkeypatch.setattr(limitchain, "miniscope",
                            lambda f: parse("exists x. x = x"))
        with pytest.raises(InternalVerificationError, match="disagrees"):
            build_sentence_chain(parse("exists x. exists y. x < y"))


class TestEstimate:
    def test_trivially_true(self):
        result = estimate_probability("convex", "exists x. x = x",
                                      n=50, samples=2000, seed=1)
        assert result.estimate == 1
        assert result.half_width < 0.01

    def test_trivially_false(self):
        result = estimate_probability("convex", "false",
                                      n=10, samples=500, seed=1)
        assert result.estimate == 0

    def test_walk_and_direct_agree_hit_for_hit(self):
        # the battery, a fractured-order sentence (the last class has at
        # least two points), and the benchmark's direct estimate
        cases = [(entry.theory, entry.text, 10, 1500) for entry in BATTERY]
        cases.append(("fractured", FRACTURED_LAST_CLASS, 10, 1500))
        cases.append((BATTERY[2].theory, BATTERY[2].text, 16, 1024))
        for theory, text, n, samples in cases:
            walk = estimate_probability(theory, text, n=n, samples=samples,
                                        seed=7)
            direct = estimate_probability(theory, text, n=n,
                                          samples=samples, seed=7,
                                          method="direct")
            assert walk.hits == direct.hits, (theory, text, n)

    def test_walk_estimate_on_the_analyzed_chain(self):
        # the chain analyze_limit reports is the one estimate_probability
        # walks; 5000 samples make a second, short chunk
        for entry in BATTERY:
            chain = analyze_limit(entry.theory, entry.text).chain
            for n, samples, seed in ((1, 10, 3), (12, 5000, 7)):
                assert walk_estimate(chain, n, samples, seed) == \
                    estimate_probability(entry.theory, entry.text, n,
                                         samples, seed), (entry.name, n)
        for n, samples in ((0, 10), (5, 0), (-1, 1)):
            with pytest.raises(ValueError):
                walk_estimate(chain, n, samples, 1)

    def test_direct_refuses_a_too_wide_sentence_before_drawing(
            self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the direct estimate drew steps")

        monkeypatch.setattr(limitchain, "_step_bytes", refuse)
        with pytest.raises(BudgetExceededError):
            estimate_probability("convex", "exists x. exists y. x E y",
                                 n=100_000, samples=512, seed=1,
                                 method="direct")

    def test_direct_hits_do_not_depend_on_the_slices(self, monkeypatch):
        # slices of one and of three samples, the last one short, against
        # the whole chunk in one slice
        from limlaw import logic

        entry = BATTERY[2]
        kwargs = dict(n=10, samples=100, seed=3, method="direct")
        cells = evaluation_cells(parse(entry.text), 10)
        whole = estimate_probability(entry.theory, entry.text, **kwargs)
        assert batch_rows(entry.theory, parse(entry.text), 10) >= 100
        for rows in (1, 3):
            monkeypatch.setattr(logic, "MAX_EVALUATION_CELLS", rows * cells)
            assert batch_rows(entry.theory, parse(entry.text), 10) == rows
            sliced = estimate_probability(entry.theory, entry.text, **kwargs)
            assert sliced.hits == whole.hits, rows

    def test_class_rows_decode_the_step_bits(self):
        for n in (1, 2, 9, 17):
            bits = limitchain._step_bits(11, 2, 40, n)
            classes = limitchain._class_rows(bits)
            assert classes.shape == (40, n + 1)
            for row, cls_of in zip(bits, classes.tolist()):
                assert cls_of == list(
                    as_relational("convex", shape_from_bits(row)).cls_of), n

    def test_direct_builds_no_chain(self, monkeypatch):
        from limlaw import limitchain

        entry = BATTERY[2]
        kwargs = dict(n=10, samples=1500, seed=7)
        walk = estimate_probability(entry.theory, entry.text, **kwargs)

        def refuse(f):
            raise AssertionError("the direct estimate compiled the sentence")

        monkeypatch.setattr(limitchain, "compile_sentence", refuse)
        direct = estimate_probability(entry.theory, entry.text, **kwargs,
                                      method="direct")
        assert direct.hits == walk.hits

    def test_deterministic(self):
        kwargs = dict(n=100, samples=9000, seed=41)
        a = estimate_probability("convex", BATTERY[2].text, **kwargs)
        b = estimate_probability("convex", BATTERY[2].text, **kwargs)
        assert a == b

    def test_pinned_hits(self):
        # the chunked step stream of every seed is part of the contract:
        # these counts must not move
        entry = BATTERY[2]
        assert entry.name == "first-two-points-share-class"
        assert estimate_probability(entry.theory, entry.text, n=100,
                                    samples=9000, seed=41).hits == 4524
        assert estimate_probability(entry.theory, entry.text, n=2000,
                                    samples=200_000, seed=20240).hits == 100129

    def test_matches_known_finite_probability(self):
        # first part >= 2 holds with probability exactly 1/2 at every n >= 2
        result = estimate_probability("convex", BATTERY[2].text,
                                      n=200, samples=40000, seed=11)
        assert abs(float(result.estimate) - 0.5) < 0.01

    def test_nontrivial_class_at_n50(self):
        # Pr_50 = 1 - 2^-49: the estimate must sit within 0.005 of one
        result = estimate_probability(
            "convex", "exists x. exists y. (x E y & !(x = y))",
            n=50, samples=100_000, seed=5)
        assert abs(float(result.estimate) - (1 - 2 ** -49)) < 0.005

    def test_single_point_structures(self):
        result = estimate_probability("convex", "exists x. x = x",
                                      n=1, samples=100, seed=0)
        assert result.estimate == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_probability("convex", "true", n=0, samples=10, seed=0)
        with pytest.raises(ValueError):
            estimate_probability("convex", "true", n=5, samples=0, seed=0)
        with pytest.raises(ValueError):
            estimate_probability("convex", "true", n=5, samples=10, seed=0,
                                 method="guess")

    def test_removed_parameters(self):
        with pytest.raises(TypeError):
            estimate_probability("convex", "true", n=5, samples=10, seed=0,
                                 threads=2)
        with pytest.raises(TypeError):
            analyze_limit("convex", "true", k_override=2)

    def test_packed_walk_matches_chain_walk(self):
        # n - 1 steps: none, a partial byte only, whole bytes, tails of 1, 3
        # and 7 steps, the old 1024-step slice boundary with and without a
        # tail, and each end of the growing slices with and without a tail
        # or a partial next row; on chains that absorb after one step, after
        # a random number of steps (some-descent), and never
        # (last-class-at-least-2 has no sink), in chunks of an even and an
        # odd size
        slice_steps = 8 * limitchain._SLICE_BYTES
        sizes = (1, 2, 8, 9, 10, 17, 257, 1000,
                 slice_steps + 1, slice_steps + 4) \
            + tuple(8 * rows + d for rows in _slice_ends(252)
                    for d in (0, 1, 2))
        for entry in (BATTERY[2], BATTERY[3], BATTERY[6], BATTERY[7]):
            chain = limitchain.prepare_chain(entry.theory, entry.text)[2]
            for n in sizes:
                tables = limitchain._walk_tables(chain, n)
                for size in (24, 7):
                    states = limitchain._walk_chunk(tables, 5, 1, size, n)
                    bits = limitchain._step_bits(5, 1, size, n)
                    assert bits.shape == (size, n - 1)
                    assert [chain_walk(chain, shape_from_bits(row))
                            for row in bits] == states.tolist(), \
                        (entry.name, n, size)

    def test_step_rows_are_one_draw_of_the_whole_chunk(self):
        # the growing slices are whole 4-byte words of the chunk's stream,
        # so their rows are the bytes of a single draw
        ns = [1, 2, 9] + [8 * rows + d for rows in _slice_ends(380)
                          for d in (0, 1, 2)]
        for size in (1, 3, 24, limitchain._CHUNK):
            for n in ns:
                rows = (n - 1 + 7) // 8
                seq = np.random.SeedSequence(entropy=9, spawn_key=(2,))
                rng = np.random.Generator(np.random.PCG64(seq))
                whole = np.frombuffer(rng.bytes(rows * size), dtype=np.uint8)
                drawn = list(limitchain._step_bytes(9, 2, size, n))
                assert len(drawn) == rows, (size, n)
                if rows:
                    assert np.array_equal(np.stack(drawn),
                                          whole.reshape(rows, size)), (size, n)

    def test_walk_stops_drawing_once_every_sample_is_absorbed(
            self, monkeypatch):
        rows_drawn = []
        step_bytes = limitchain._step_bytes

        def counted(*args):
            rows_drawn.append(0)
            for row in step_bytes(*args):
                rows_drawn[-1] += 1
                yield row

        monkeypatch.setattr(limitchain, "_step_bytes", counted)
        nonempty = BATTERY[0]
        assert nonempty.name == "nonempty"
        # the start is an accepting sink: no row is drawn
        assert estimate_probability(nonempty.theory, nonempty.text,
                                    n=100_000, samples=5000, seed=1).hits \
            == 5000
        assert sum(rows_drawn) == 0
        # the first step decides: every chunk stops within its first slice,
        # and a sample hits iff its first step grows the first class
        entry = BATTERY[2]
        assert entry.name == "first-two-points-share-class"
        samples = 2 * limitchain._CHUNK + 5
        result = estimate_probability(entry.theory, entry.text, n=100_000,
                                      samples=samples, seed=3)
        assert len(rows_drawn) == 3
        assert max(rows_drawn) <= limitchain._FIRST_SLICE_BYTES
        chunks = [(idx, min(limitchain._CHUNK, samples - start))
                  for idx, start in enumerate(
                      range(0, samples, limitchain._CHUNK))]
        assert result.hits == sum(
            int(limitchain._step_bits(3, idx, size, 2).sum())
            for idx, size in chunks)

    def test_half_absorbing_walk_matches_direct(self):
        # half the samples reach the accepting sink at the first step and
        # the other half never reach one, so no chunk stops early; n spans
        # the ends of the first two slices
        text = f"({BATTERY[2].text}) | ({BATTERY[6].text})"
        chain = limitchain.prepare_chain("convex", text)[2]
        assert len(chain) == 4
        assert limitchain._walk_tables(chain, 2).sinks == 1
        for n in (32, 33, 34, 96, 97, 98):
            walk = estimate_probability("convex", text, n=n, samples=1500,
                                        seed=13)
            direct = estimate_probability("convex", text, n=n, samples=1500,
                                          seed=13, method="direct")
            assert walk.hits == direct.hits, n

    def test_memory_bounded_at_large_n(self):
        # the per-chunk step array alone would be 4096 * 10^5 bytes (390 MiB)
        tracemalloc.start()
        try:
            estimate_probability("convex", BATTERY[2].text, n=100_000,
                                 samples=4096, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def _slice_ends(last: int) -> list[int]:
    """The row counts at which the step slices end, up to ``last``."""
    end, width, ends = 0, limitchain._FIRST_SLICE_BYTES, []
    while end < last:
        end += width
        ends.append(end)
        width = min(2 * width, limitchain._SLICE_BYTES)
    return ends


class TestVerification:
    def test_k2_chain_states_pairwise_distinct(self):
        verify_chain_states(build_chain(2), GameSolver())

    def test_automaton_chain_states_pairwise_distinct(self):
        # distinct automaton states accept different suffix sets, so their
        # representatives cannot agree at the sentence's quantifier depth
        solver = GameSolver()
        for entry in BATTERY:
            analysis = analyze_limit(entry.theory, entry.text)
            verify_chain_states(analysis.chain, solver)

    def test_duplicate_states_detected(self):
        rep = ConvexLinearOrder(PartSequence((1,)))
        states = (
            ChainState(0, rep, None, 0, 1),
            ChainState(1, rep, None, 1, 1),
        )
        with pytest.raises(InternalVerificationError):
            verify_chain_states(Chain(k=2, states=states, start=0))

    def test_k2_representatives_pairwise_inequivalent_by_search(self):
        # the pairwise game search as the oracle of the per-side types
        views = [as_relational("convex", s.representative.shape)
                 for s in build_chain(2).states]
        assert len(views) == 57
        solver = GameSolver()
        for i, a in enumerate(views):
            for b in views[i + 1:]:
                assert not solver.equiv(a, b, 2), (a, b)

    def test_equivalent_states_survive_to_depth_k(self):
        # linear orders of 7 and 8 points agree up to depth 3; 1,1 and 2 are
        # told apart from them and from each other at depth 2, so only the
        # two linear orders are typed at depth 3.  Depth 1 is never typed:
        # all nonempty convex linear orders share one depth-1 type
        shapes = ((1,) * 7, (1, 1), (1,) * 8, (2,))
        states = tuple(ChainState(i, ConvexLinearOrder(PartSequence(parts)),
                                  None, i, i)
                       for i, parts in enumerate(shapes))
        solver = _TypeLog()
        with pytest.raises(InternalVerificationError,
                           match=r"states 0 \(1,1,1,1,1,1,1\) and "
                                 r"2 \(1,1,1,1,1,1,1,1\) .* depth 3"):
            verify_chain_states(Chain(k=3, states=states, start=0), solver)
        names = [",".join(map(str, parts)) for parts in shapes]
        assert solver.log == [(name, 2) for name in names] \
            + [(names[0], 3), (names[2], 3)]

    def test_states_told_apart_are_not_typed_deeper(self):
        # the depth-2 representatives are pairwise inequivalent at depth 2,
        # so checking them at depth 3 types none of them at depth 3
        states = build_chain(2).states
        solver = _TypeLog()
        verify_chain_states(Chain(k=3, states=states, start=0), solver)
        names = [str(s.representative.shape) for s in states]
        assert solver.log == [(name, 2) for name in names]

    def test_one_state_and_depth_zero_chains(self):
        one = ChainState(0, ConvexLinearOrder(PartSequence((2,))), None, 0, 0)
        solver = _TypeLog()
        verify_chain_states(Chain(k=3, states=(one,), start=0), solver)
        two = (one, ChainState(1, ConvexLinearOrder(PartSequence((1, 1))),
                               None, 1, 1))
        with pytest.raises(InternalVerificationError,
                           match=r"states 0 \(2\) and 1 \(1,1\) .* depth 0"):
            verify_chain_states(Chain(k=0, states=two, start=0), solver)
        # two states are never told apart at depth 1, where every nonempty
        # convex linear order has the same type
        with pytest.raises(InternalVerificationError,
                           match=r"states 0 \(2\) and 1 \(1,1\) .* depth 1"):
            verify_chain_states(Chain(k=1, states=two, start=0), solver)
        assert solver.log == []


class _TypeLog(GameSolver):
    """A solver that records the (shape, depth) of every type asked for."""

    def __init__(self):
        super().__init__()
        self.log = []

    def type_id(self, structure, k):
        self.log.append((str(structure.shape), k))
        return super().type_id(structure, k)


class TestExports:
    def test_json_round_trip_preserves_limit(self, tmp_path):
        chain = _class_chain(2, parse("exists x. exists y. (x E y & !(x = y))"))
        doc = chain_to_json(chain)
        text = json.dumps(doc)
        reloaded = chain_from_json(json.loads(text))
        assert limiting_distribution(reloaded).probabilities == \
            limiting_distribution(chain).probabilities
        assert [f"{p.numerator}/{p.denominator}"
                for p in limiting_distribution(reloaded).probabilities] == \
            doc["limit"]

    def test_json_field_order(self):
        doc = chain_to_json(build_chain(1))
        assert list(doc) == ["k", "start", "states", "limit", "limit_approx"]
        assert list(doc["states"][0]) == [
            "id", "representative", "accepting", "succ_plus", "succ_hat"]

    def test_dot_export_labels(self):
        chain = build_sentence_chain(
            parse("exists x. exists y. (x E y & !(x = y))"))
        dot = chain_to_dot(chain)
        assert "⊕• 1/2" in dot
        assert "^ 1/2" in dot
        assert "[acc]" in dot
        assert dot.count("->") == 2 * len(chain)
