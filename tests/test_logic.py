import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_SYMBOLS,
    closed_form,
    random_formula,
    recursive_evaluate,
    shapes_up_to,
)
from limlaw.battery import BATTERY
from limlaw.logic import (
    MAX_EVALUATION_CELLS,
    And,
    Atom,
    BudgetExceededError,
    EvaluationError,
    Exists,
    FALSE,
    Forall,
    FormulaSyntaxError,
    Iff,
    Implies,
    MAX_NESTING,
    Not,
    Or,
    SIGNATURES,
    SignatureError,
    TRUE,
    batch_rows,
    ensure_sentence,
    evaluate,
    evaluate_classes,
    evaluation_cells,
    format_formula,
    formula_symbols,
    free_variables,
    miniscope,
    parse,
    quantifier_depth,
    translate_to_convex,
)
from limlaw.structures import (
    RELATIONS,
    THEORIES,
    PartSequence,
    as_relational,
    enumerate_shapes,
)

FIRST_TWO_SHARE = ("exists x. exists y. (!(exists z. z < x) & x < y"
                   " & !(exists z. (x < z & z < y)) & x E y)")


class TestParser:
    def test_pinned_examples(self):
        f = parse("exists x. exists y. (x E y & !(x = y))")
        assert f == Exists("x", Exists("y", And(Atom("E", "x", "y"),
                                                Not(Atom("=", "x", "y")))))
        assert parse("forall x. x < x") == Forall("x", Atom("<", "x", "x"))

    def test_equality_is_an_atom_under_every_signature(self):
        for sig in (None, *SIGNATURES.values()):
            assert parse("x = y", sig) == Atom("=", "x", "y")
        for theory in THEORIES:
            assert translate_to_convex(theory, Atom("=", "x", "y")) == \
                Atom("=", "x", "y")
        assert formula_symbols(parse("x = y & x E y")) == {"E"}

    def test_free_variables_reported_not_fatal(self):
        f = parse("x < y")
        assert free_variables(f) == {"x", "y"}
        with pytest.raises(EvaluationError):
            ensure_sentence(f)

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("exists x x = x")
        assert err.value.position == 9
        with pytest.raises(FormulaSyntaxError):
            parse("exists x. (x = x")
        with pytest.raises(FormulaSyntaxError):
            parse("x = y & @")

    def test_nesting_cap(self):
        def nested(depth):
            return ("(" * depth + "x = x" + ")" * depth,
                    "!" * depth + "x = x",
                    "exists x. " * depth + "x = x",
                    " & ".join(["x = x"] * (depth + 1)),
                    " -> ".join(["x = x"] * (depth + 1)))
        for text in nested(MAX_NESTING):
            parse(text)
        for text in nested(MAX_NESTING + 1):
            with pytest.raises(FormulaSyntaxError, match="deeper than"):
                parse(text)

    def test_deep_formula_built_in_code(self):
        # a left-nested conjunction of 1501 atoms under one quantifier is
        # 1501 levels deep; every entry point rejects it before recursing
        from limlaw.limitchain import analyze_limit
        from limlaw.stepauto import compile_sentence

        body = Atom("=", "x", "x")
        for _ in range(1500):
            body = And(body, Atom("=", "x", "x"))
        f = Exists("x", body)
        view = as_relational("convex", PartSequence((1,)))
        translations = [lambda g, t=t: translate_to_convex(t, g)
                        for t in THEORIES]
        for entry_point in (quantifier_depth, format_formula, ensure_sentence,
                            lambda g: evaluate(view, g), *translations,
                            compile_sentence,
                            lambda g: analyze_limit("convex", g)):
            with pytest.raises(FormulaSyntaxError, match="deeper than"):
                entry_point(f)

    def test_unknown_symbol_for_signature(self):
        parse("exists x. exists y. x p1 y")  # fine without a signature
        with pytest.raises(SignatureError):
            parse("exists x. exists y. x p1 y", SIGNATURES["convex"])
        with pytest.raises(SignatureError):
            parse("exists x. exists y. x <2 y", SIGNATURES["composition"])

    def test_reserved_words_cannot_be_variables(self):
        with pytest.raises(FormulaSyntaxError):
            parse("exists E. E = E")
        with pytest.raises(FormulaSyntaxError):
            parse("exists true. true = true")

    def test_connective_shape(self):
        f = parse("true -> false -> true")  # right-associative
        assert f == Implies(TRUE, Implies(FALSE, TRUE))
        g = parse("true & false & true")  # left-associative chain
        assert g == And(And(TRUE, FALSE), TRUE)
        h = parse("true <-> false <-> true")
        assert h == Iff(TRUE, Iff(FALSE, TRUE))
        assert parse("true | false & true") == Or(TRUE, And(FALSE, TRUE))

    def test_quantifier_scope_extends_right(self):
        f = parse("forall x. x = x & false")
        assert f == Forall("x", And(Atom("=", "x", "x"), FALSE))

    def test_battery_parses(self):
        for entry in BATTERY:
            f = parse(entry.text, SIGNATURES[entry.theory])
            ensure_sentence(f)


class TestPrinter:
    def test_round_trip_500_random_asts(self):
        rng = random.Random(99)
        done = 0
        while done < 500:
            f = random_formula(rng, [], 4)
            if free_variables(f):
                continue
            assert parse(format_formula(f)) == f
            done += 1

    def test_round_trip_battery(self):
        for entry in BATTERY:
            f = parse(entry.text)
            assert parse(format_formula(f)) == f

    def test_round_trip_up_to_half_the_cap(self):
        # every tree level prints at most two levels of nesting ("!(")
        f = Atom("=", "x", "x")
        for _ in range(MAX_NESTING // 2):
            f = Not(f)
        assert parse(format_formula(f)) == f
        with pytest.raises(FormulaSyntaxError, match="deeper than"):
            parse(format_formula(Exists("x", f)))

    def test_quantifier_under_connective_parenthesized(self):
        f = And(Forall("x", Atom("=", "x", "x")), FALSE)
        assert parse(format_formula(f)) == f


class TestQuantifierDepth:
    def test_examples(self):
        assert quantifier_depth(parse("exists x. x = x")) == 1
        assert quantifier_depth(
            parse("exists x. exists y. (x E y & !(x = y))")) == 2
        assert quantifier_depth(parse(FIRST_TWO_SHARE)) == 3
        assert quantifier_depth(TRUE) == 0

    def test_binary_takes_max(self):
        f = parse("(exists x. x = x) & (exists x. exists y. x < y)")
        assert quantifier_depth(f) == 2


def _recomputed_facts(f):
    """``(depth, symbols)`` of ``f`` by plain recursion; asserts that every
    node below ``f`` carries the facts recomputed for it."""
    if isinstance(f, Atom):
        facts = (0, frozenset() if f.symbol == "=" else {f.symbol})
    elif f in (TRUE, FALSE):
        facts = (0, frozenset())
    elif isinstance(f, Not):
        facts = _recomputed_facts(f.body)
    elif isinstance(f, (And, Or, Implies, Iff)):
        (dl, sl), (dr, sr) = _recomputed_facts(f.left), \
            _recomputed_facts(f.right)
        facts = (max(dl, dr), sl | sr)
    else:
        depth, symbols = _recomputed_facts(f.body)
        facts = (depth + 1, symbols)
    assert (f.depth, f.symbols) == facts, format_formula(f)
    return facts


class TestNodeFacts:
    def test_depth_and_symbols_match_a_recomputation(self):
        # random ASTs in every theory's signature and in all symbols at
        # once, with the nodes miniscope and translate_to_convex build
        rng = random.Random(31)
        signatures = [ALL_SYMBOLS] + [sorted(SIGNATURES[t].relations)
                                      for t in THEORIES]
        for _ in range(100):
            for theory, symbols in zip((None, *THEORIES), signatures):
                f = random_formula(rng, [], 5, symbols)
                depth, found = _recomputed_facts(f)
                assert quantifier_depth(f) == depth
                assert formula_symbols(f) == found
                _recomputed_facts(miniscope(f))
                if theory is not None:
                    _recomputed_facts(translate_to_convex(theory, f))


class TestEvaluate:
    def test_pinned_examples(self):
        pair = parse("exists x. exists y. (x E y & !(x = y))")
        assert evaluate(as_relational("convex", PartSequence((2, 1))), pair)
        assert not evaluate(
            as_relational("convex", PartSequence((1, 1, 1))), pair)
        descent = parse("exists x. exists y. (x <1 y & y <2 x)")
        assert evaluate(as_relational("layered", PartSequence((2, 1))), descent)

    def test_env_and_errors(self):
        v = as_relational("convex", PartSequence((2, 1)))
        f = parse("x < y")
        assert evaluate(v, f, {"x": 1, "y": 3})
        assert not evaluate(v, f, {"x": 3, "y": 1})
        with pytest.raises(EvaluationError):
            evaluate(v, f, {"x": 1})
        with pytest.raises(SignatureError):
            evaluate(v, parse("exists x. exists y. x p1 y"))

    def test_shadowing_uses_innermost_binding(self):
        # inner x rebinds: the outer witness is irrelevant inside
        f = parse("exists x. (!(exists z. z < x) & exists x. !(exists z. x < z))")
        v = as_relational("convex", PartSequence((1, 1, 1)))
        assert evaluate(v, f)

    def test_constants(self):
        v = as_relational("convex", PartSequence((1,)))
        assert evaluate(v, TRUE)
        assert not evaluate(v, FALSE)

    def test_env_points_must_exist(self):
        v = as_relational("convex", PartSequence((2, 1)))
        for point in (0, 4):
            with pytest.raises(EvaluationError, match="not a point"):
                evaluate(v, parse("x < y"), {"x": 1, "y": point})

    def test_cells_count_free_bound_variables_not_names(self):
        # a reused name costs nothing: each node has at most two variables
        # free, so eight names cost what two do
        chain = "exists a. exists b. (a < b & exists c. (b < c & exists d. " \
            "(c < d & exists e. (d < e & exists f. (e < f & exists g. " \
            "(f < g & exists h. g < h))))))"
        assert evaluation_cells(parse(chain), 40) == 40 ** 2
        cycle = parse(CYCLE7)
        assert evaluation_cells(cycle, 40) == 40 ** 7
        # every axis counts at least two cells, at any size
        assert evaluation_cells(cycle, 1) == 2 ** 7
        assert evaluation_cells(TRUE, 40) == 1
        # an atom on one variable, or on a free one, is a row, a column or
        # a diagonal: one axis, not a matrix
        assert evaluation_cells(parse("exists x. x = x"), 3000) == 3000
        assert evaluation_cells(parse("forall x. x < y"), 3000) == 3000
        assert evaluation_cells(parse("x E y"), 3000) == 1

    def test_atoms_on_one_axis_on_large_structures(self):
        view = as_relational("fractured", PartSequence((1500, 1500)))
        assert evaluate(view, parse("exists x. x = x"))
        assert evaluate(view, parse("forall x. !(x p2 x)"))
        assert evaluate(view, parse("forall x. (x p1 y | x E y)"), {"y": 2000})
        assert not evaluate(view, parse("exists x. x p1 y"), {"y": 1})
        assert evaluate(view, parse("exists x. y p2 x"), {"y": 1499})
        assert not evaluate(view, parse("y p2 z"), {"y": 1500, "z": 1501})

    def test_reused_axes_match_the_oracle(self):
        # in each chain the third variable takes the first one's axis
        chains = [
            "exists a. exists b. (a < b & exists c. (b < c & !(c E b)))",
            "forall a. exists b. (a E b & forall c. (c < b | b E c))",
            "exists a. (forall b. (a < b -> exists c. (b < c & c E b))"
            " & exists b. b < a)",
        ]
        for text in chains:
            f = parse(text)
            for shape in shapes_up_to(6):
                view = as_relational("convex", shape)
                assert evaluate(view, f) == recursive_evaluate(view, f), \
                    (text, str(shape))

    def test_budget_raises_before_allocating(self):
        # the cycle's widest node is 3000^7 cells, and one of its relation
        # matrices alone would be 9 MB
        view = as_relational("convex", PartSequence((1,) * 3000))
        cycle = parse(CYCLE7)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as err:
                evaluate(view, cycle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.nodes == 3000 ** 7 > MAX_EVALUATION_CELLS
        assert peak < 1 << 20

    def test_budget_applies_to_wide_nodes_only(self):
        view = as_relational("convex", PartSequence((1,) * 40))
        with pytest.raises(BudgetExceededError):
            evaluate(view, parse(CYCLE7))
        # the miniscoped cycle keeps three variables free at once
        assert not evaluate(view, miniscope(parse(CYCLE7)))



#: a cycle of seven strict inequalities, false in every linear order; its
#: quantifier prefix keeps all seven variables free in the body
CYCLE7 = ("exists a. exists b. exists c. exists d. exists e. exists f. "
          "exists g. (a < b & b < c & c < d & d < e & e < f & f < g & g < a)")


class TestMiniscope:
    def test_pinned_examples(self):
        def scoped(text):
            return format_formula(miniscope(parse(text)))

        # exists moves inside the conjuncts that do not mention it
        assert scoped("exists x. (x E x & exists y. (x < y & y E y))") == \
            "exists x. (x E x & (exists y. (x < y & y E y)))"
        assert scoped("exists x. exists y. (x < y & !(x E y)"
                      " & exists z. (z E y & !(z = y)))") == \
            "exists y. ((exists z. (z E y & !(z = y))) & " \
            "(exists x. (x < y & !(x E y))))"
        assert scoped("exists x. exists y. (x E x & y < y)") == \
            "((exists y. y < y) & (exists x. x E x))"
        # ... distributes over |, and is dropped when vacuous
        assert scoped("exists x. (x < y | y E z)") == \
            "((exists x. x < y) | y E z)"
        # ... and commutes with the exists below it to get further in
        assert scoped("exists x. exists y. (y < y & x E y)") == \
            "exists y. (y < y & (exists x. x E y))"
        # forall is the dual
        assert scoped("forall x. forall y. (x < x | y E y)") == \
            "((forall y. y E y) | (forall x. x < x))"
        assert scoped("forall x. (x < y & y E z)") == \
            "((forall x. x < y) & y E z)"
        # a quantifier does not move through the other quantifier, a
        # negation or an implication
        for text in ("exists x. forall y. (y < y | x E y)",
                     "forall x. (x < y | y < x)",
                     "exists x. (x < y & y < x)",
                     "exists x. !(x < y & y E y)",
                     "forall x. (x < y -> y E y)"):
            assert miniscope(parse(text)) == parse(text)

    def test_result_deeper_than_the_cap_is_not_returned(self):
        # a balanced conjunction of 128 atoms is 7 levels deep; pulled out
        # of the quantifier it would become a chain 128 levels deep
        parts = [Atom("<", "y", "y")] * 127 + [Atom("E", "x", "y")]
        while len(parts) > 1:
            parts = [And(a, b) for a, b in zip(parts[::2], parts[1::2])]
        f = Exists("x", parts[0])
        assert miniscope(f) is f
        assert f.nesting == 8

    def test_ladder_a_keeps_two_variables_free(self):
        # the prefix keeps all eight points free in the body; miniscoped,
        # each quantifier sits over the atoms of one consecutive pair
        text, _ = closed_form.ladder_a(8, [f"v{i}" for i in range(9)])
        f = parse(text)
        assert evaluation_cells(f, 10) == 10 ** 8
        assert evaluation_cells(miniscope(f), 10) == 10 ** 2
        assert quantifier_depth(miniscope(f)) == quantifier_depth(f) == 9


# --- differential checks ---------------------------------------------------------

_VARIABLES = ("x", "y", "z")


@st.composite
def _formulas(draw, relations, depth, bound=()):
    """Formulas over x, y, z of quantifier depth exactly ``depth``.  Atoms
    lean towards the innermost bound variables and quantifiers towards
    fresh names, but every name can be drawn anywhere, so there is
    shadowing and there are free variables."""
    kind = draw(st.integers(0, 3 if depth else 4))
    if depth and kind <= 1:
        var = draw(st.sampled_from(
            [v for v in _VARIABLES if v not in bound]
            + [v for v in _VARIABLES if v in bound]))
        quantifier = draw(st.sampled_from((Exists, Forall)))
        return quantifier(var, draw(_formulas(relations, depth - 1,
                                               bound + (var,))))
    if kind == (2 if depth else 3):
        op = draw(st.sampled_from((And, Or, Implies, Iff)))
        operands = [draw(_formulas(relations, depth, bound)),
                    draw(_formulas(relations, draw(st.integers(0, depth)),
                                   bound))]
        if draw(st.booleans()):
            operands.reverse()
        return op(*operands)
    if kind == (3 if depth else 4):
        if not depth and draw(st.booleans()):
            return draw(st.sampled_from((TRUE, FALSE)))
        return Not(draw(_formulas(relations, depth, bound)))
    names = st.sampled_from(bound[::-1] + _VARIABLES)
    symbol = draw(st.sampled_from(relations))
    left, right = draw(names), draw(names)
    return Atom(symbol, left, right)


@st.composite
def _cases(draw):
    theory = draw(st.sampled_from(THEORIES))
    relations = sorted(SIGNATURES[theory].relations) + ["="]
    f = draw(_formulas(relations, draw(st.sampled_from((3, 2, 1, 0)))))
    # points for the free variables, clipped to each structure's size
    env = {v: draw(st.integers(1, 6)) for v in sorted(free_variables(f))}
    return theory, f, env


_DIFFERENTIAL = settings(derandomize=True, max_examples=400, deadline=None,
                         database=None,
                         suppress_health_check=[HealthCheck.too_slow])
_SHAPES = shapes_up_to(6)


class TestDifferential:
    @_DIFFERENTIAL
    @given(_cases())
    def test_array_evaluator_and_miniscope_match_the_oracle(self, case):
        theory, f, env = case
        scoped = miniscope(f)
        assert free_variables(scoped) == free_variables(f)
        assert quantifier_depth(scoped) <= quantifier_depth(f)
        for shape in _SHAPES:
            view = as_relational(theory, shape)
            at = {v: min(p, shape.size) for v, p in env.items()}
            want = recursive_evaluate(view, f, at)
            assert evaluate(view, f, at) == want, (str(shape), at)
            assert recursive_evaluate(view, scoped, at) == want, \
                (str(shape), at, format_formula(scoped))


@st.composite
def _sentences(draw):
    """The differential cases with every free variable bound by a drawn
    quantifier in front, so every closed formula of :func:`_cases` is
    drawn as it is."""
    theory, f, _ = draw(_cases())
    for var in sorted(free_variables(f)):
        f = draw(st.sampled_from((Exists, Forall)))(var, f)
    return theory, f


def _class_batch(theory: str, shapes) -> np.ndarray:
    """The ``cls_of`` rows of shapes of one size, one row per shape."""
    return np.array([as_relational(theory, s).cls_of for s in shapes])


def _batch_matches_evaluate(theory: str, f) -> None:
    for n in range(1, 9):
        shapes = enumerate_shapes(n)
        got = evaluate_classes(theory, _class_batch(theory, shapes), f)
        want = [evaluate(as_relational(theory, s), f) for s in shapes]
        assert got.dtype == bool and got.shape == (len(shapes),)
        assert got.tolist() == want, (theory, format_formula(f), n)


_BATCH_DIFFERENTIAL = settings(derandomize=True, max_examples=200,
                               deadline=None, database=None,
                               suppress_health_check=[HealthCheck.too_slow])


class TestBatchEvaluation:
    """:func:`evaluate_classes` against :func:`evaluate`, structure by
    structure, on every shape of sizes 1..8."""

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_battery_in_every_theory_it_parses_in(self, entry):
        theories = [t for t in THEORIES
                    if formula_symbols(parse(entry.text))
                    <= SIGNATURES[t].relations]
        assert entry.theory in theories
        for theory in theories:
            _batch_matches_evaluate(theory, parse(entry.text))

    @_BATCH_DIFFERENTIAL
    @given(_sentences())
    def test_random_sentences(self, case):
        _batch_matches_evaluate(*case)

    def test_constant_sentences_fill_the_batch(self):
        classes = _class_batch("convex", enumerate_shapes(3))
        assert evaluate_classes("convex", classes, TRUE).tolist() == [True] * 4
        assert evaluate_classes("convex", classes, parse("exists x. x = x")
                                ).tolist() == [True] * 4
        assert not evaluate_classes("convex", classes, FALSE).any()

    def test_checks_of_evaluate(self):
        classes = _class_batch("convex", enumerate_shapes(3))
        with pytest.raises(EvaluationError, match="not a sentence"):
            evaluate_classes("convex", classes, parse("exists x. x < y"))
        with pytest.raises(SignatureError):
            evaluate_classes("convex", classes, parse("exists x. x p1 x"))
        with pytest.raises(ValueError, match="unknown theory"):
            evaluate_classes("cyclic", classes, TRUE)
        deep = TRUE
        for _ in range(MAX_NESTING + 1):
            deep = Not(deep)
        with pytest.raises(FormulaSyntaxError):
            evaluate_classes("convex", classes, deep)
        with pytest.raises(ValueError, match="class rows"):
            evaluate_classes("convex", classes[0], TRUE)

    def test_budget_raises_before_allocating(self):
        # one structure of 3000 points already needs 3000^7 cells
        classes = np.zeros((2, 3001), dtype=np.intp)
        cycle = parse(CYCLE7)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as err:
                evaluate_classes("convex", classes, cycle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.nodes == 3000 ** 7
        assert peak < 1 << 20
        with pytest.raises(BudgetExceededError):
            batch_rows("convex", cycle, 3000)

    def test_batch_rows_fill_the_cell_bound(self):
        pair = parse("exists x. exists y. (x E y & !(x = y))")
        assert batch_rows("convex", pair, 16) == MAX_EVALUATION_CELLS // 256
        # a structure counts its class row when that is larger than its
        # widest node, and one structure always fits
        assert batch_rows("convex", TRUE, 1000) == \
            MAX_EVALUATION_CELLS // 1001
        assert batch_rows("convex", TRUE, MAX_EVALUATION_CELLS) == 1
        rows = batch_rows("convex", pair, 1000)
        assert rows == MAX_EVALUATION_CELLS // 1000 ** 2
        classes = np.zeros((rows + 1, 1001), dtype=np.intp)
        assert evaluate_classes("convex", classes[:rows], pair).all()
        with pytest.raises(BudgetExceededError, match=f"at most {rows} fit"):
            evaluate_classes("convex", classes, pair)


class TestTranslations:
    def test_layered_atom_rules_verbatim(self):
        lt2 = translate_to_convex("layered", Atom("<2", "a", "b"))
        assert lt2 == Or(And(Atom("E", "a", "b"), Atom("<", "b", "a")),
                         And(Not(Atom("E", "a", "b")), Atom("<", "a", "b")))
        assert translate_to_convex("layered", Atom("<1", "a", "b")) == \
            Atom("<", "a", "b")

    def test_composition_atom_rules(self):
        for theory in ("composition", "fractured"):
            assert translate_to_convex(theory, Atom("p1", "a", "b")) == \
                And(Not(Atom("E", "a", "b")), Atom("<", "a", "b"))
            e = Atom("E", "a", "b")
            assert translate_to_convex(theory, e) is e
        assert translate_to_convex("fractured", Atom("p2", "a", "b")) == \
            And(Atom("E", "a", "b"), Atom("<", "a", "b"))

    def test_convex_formulas_come_back_as_they_are(self):
        f = parse("exists x. exists y. (x E y & !(x = y))")
        for theory in ("convex", "composition", "fractured"):
            assert translate_to_convex(theory, f) is f
        # a subtree with no atom to rewrite is kept by the rewrite too
        g = And(f, Exists("x", Exists("y", Atom("p1", "x", "y"))))
        assert translate_to_convex("composition", g).left is f

    def test_foreign_symbols_rejected(self):
        for theory, symbol in (("layered", "E"), ("composition", "<1"),
                               ("composition", "p2"), ("convex", "p1")):
            with pytest.raises(SignatureError):
                translate_to_convex(theory, Atom(symbol, "a", "b"))
        with pytest.raises(ValueError, match="unknown theory"):
            translate_to_convex("cyclic", TRUE)

    def test_depth_preserved_on_battery(self):
        for entry in BATTERY:
            f = parse(entry.text, SIGNATURES[entry.theory])
            assert quantifier_depth(translate_to_convex(entry.theory, f)) == \
                quantifier_depth(f)

    def test_depth_preserved_on_random_asts(self):
        rng = random.Random(7)
        done = 0
        while done < 500:
            f = random_formula(rng, [], 4)
            theories = [t for t in THEORIES
                        if formula_symbols(f) <= SIGNATURES[t].relations]
            for theory in theories:
                assert quantifier_depth(translate_to_convex(theory, f)) == \
                    quantifier_depth(f)
            done += bool(theories)

    @pytest.mark.parametrize("theory", THEORIES)
    def test_each_definition_matches_the_native_relation(self, theory):
        # the two tables of definitions, RELATIONS on the theory's own view
        # and the translation read on the convex view, agree on every point
        # pair of every shape
        for symbol in sorted(SIGNATURES[theory].relations):
            defined = translate_to_convex(theory, Atom(symbol, "a", "b"))
            assert defined.symbols <= {"<", "E"}
            for shape in shapes_up_to(6):
                native = as_relational(theory, shape)
                convex = as_relational("convex", shape)
                for a in native.points():
                    for b in native.points():
                        assert native.holds(symbol, a, b) == \
                            recursive_evaluate(convex, defined,
                                               {"a": a, "b": b}), \
                            (symbol, str(shape), a, b)

    def test_translated_descent_means_nontrivial_class(self):
        descent = translate_to_convex(
            "layered", parse("exists x. exists y. (x <1 y & y <2 x)"))
        nontrivial = parse("exists x. exists y. (x < y & x E y)")
        for shape in shapes_up_to(6):
            v = as_relational("convex", shape)
            assert evaluate(v, descent) == evaluate(v, nontrivial)

    @pytest.mark.parametrize("entry",
                             [e for e in BATTERY if e.theory != "convex"],
                             ids=lambda e: e.name)
    def test_transfer(self, entry):
        f = parse(entry.text, SIGNATURES[entry.theory])
        g = translate_to_convex(entry.theory, f)
        for shape in shapes_up_to(6):
            assert evaluate(as_relational(entry.theory, shape), f) == \
                evaluate(as_relational("convex", shape), g)


def _foreign_cases():
    """Every theory with every relation symbol outside its signature."""
    return [(theory, symbol) for theory in THEORIES
            for symbol in sorted(RELATIONS)
            if symbol != "=" and symbol not in SIGNATURES[theory].relations]


class TestSignatureChecks:
    @pytest.mark.parametrize("theory, symbol", _foreign_cases())
    def test_every_route_rejects_a_foreign_symbol(self, theory, symbol):
        # built in code, so no parser checks the signature first
        from limlaw.limitchain import analyze_limit, estimate_probability

        f = Exists("x", Exists("y", Atom(symbol, "x", "y")))
        view = as_relational(theory, PartSequence((2, 1)))
        for route in (lambda: translate_to_convex(theory, f),
                      lambda: analyze_limit(theory, f),
                      lambda: estimate_probability(theory, f, 4, 8, 0),
                      lambda: estimate_probability(theory, f, 4, 8, 0,
                                                   method="direct"),
                      lambda: evaluate(view, f)):
            with pytest.raises(SignatureError, match=repr(symbol)):
                route()

class _RelabeledView:
    """A composition view with points renamed within their classes."""

    def __init__(self, base, perm):
        self.base = base
        self.perm = np.array(perm)
        self.size = base.size
        self.signature = base.signature
        self.theory = base.theory

    def relation(self, sym, left, right):
        return self.base.relation(sym, self.perm[left], self.perm[right])


class TestLabelInvariance:
    def test_composition_satisfaction_ignores_within_class_labels(self):
        rng = random.Random(5)
        sentences = [
            parse("exists x. exists y. x p1 y"),
            parse("exists x. exists y. (x E y & !(x = y))"),
            parse("forall x. forall y. (x p1 y | y p1 x | x E y)"),
            parse("exists x. forall y. (!(y p1 x) | x E y)"),
        ]
        for shape in shapes_up_to(7):
            base = as_relational("composition", shape)
            for _ in range(3):
                perm = list(range(shape.size + 1))
                start = 1
                for part in shape.parts:
                    block = perm[start:start + part]
                    rng.shuffle(block)
                    perm[start:start + part] = block
                    start += part
                scrambled = _RelabeledView(base, perm)
                for f in sentences:
                    assert evaluate(base, f) == evaluate(scrambled, f)
