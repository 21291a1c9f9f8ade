import re

import pytest

from conftest import closed_form
from limlaw.battery import BATTERY
from limlaw.efgame import GameSolver
from limlaw.limitchain import build_sentence_chain, chain_walk
from limlaw.logic import (
    SIGNATURES,
    SignatureError,
    evaluate,
    miniscope,
    parse,
    translate_to_convex,
)
from limlaw.stepauto import StepAutomaton, compile_sentence
from limlaw.structures import PartSequence, as_relational, enumerate_shapes


def _run(auto, shape):
    state = auto.start
    parts = shape.parts
    first = True
    for part in parts:
        if not first:
            state = auto.step_new[state]
        for _ in range(part - 1):
            state = auto.step_grow[state]
        first = False
    return auto.accepting[state]


def _battery_convex_sentences():
    out = []
    for entry in BATTERY:
        f = parse(entry.text, SIGNATURES[entry.theory])
        out.append((entry.name, translate_to_convex(entry.theory, f)))
    return out


EXTRA_SENTENCES = [
    "forall x. exists y. (x < y | x = y)",
    "exists x. (!(exists y. y < x) & exists y. (x E y & !(x = y)))",
    "forall x. forall y. ((x E y & x < y) -> !(exists z. (x < z & z < y)))",
    "exists x. exists y. (x < y & !(x E y) & !(exists z. y < z)"
    " & !(exists z. (z E x & !(z = x))))",
]


class TestCompilation:
    @pytest.mark.parametrize("name,sentence", _battery_convex_sentences())
    def test_matches_evaluator_exhaustively(self, name, sentence):
        auto = compile_sentence(sentence)
        for n in range(1, 11):
            for shape in enumerate_shapes(n):
                want = evaluate(as_relational("convex", shape), sentence)
                assert _run(auto, shape) == want, (name, str(shape))

    @pytest.mark.parametrize("text", EXTRA_SENTENCES)
    def test_matches_evaluator_extra(self, text):
        sentence = parse(text, SIGNATURES["convex"])
        auto = compile_sentence(sentence)
        for n in range(1, 10):
            for shape in enumerate_shapes(n):
                want = evaluate(as_relational("convex", shape), sentence)
                assert _run(auto, shape) == want, (text, str(shape))

    def test_rejects_open_formulas_and_foreign_symbols(self):
        with pytest.raises(ValueError):
            compile_sentence(parse("x < y"))
        with pytest.raises(SignatureError):
            compile_sentence(parse("exists x. exists y. x p1 y"))

    def test_atom_automata_are_built_once(self, monkeypatch):
        from limlaw import stepauto

        def never(*args):
            raise AssertionError("an atom automaton was built again")

        monkeypatch.setattr(stepauto, "_two_track", never)
        for text in EXTRA_SENTENCES:
            compile_sentence(parse(text, SIGNATURES["convex"]))

    def test_minimal_sizes_of_known_languages(self):
        # the state numbering is part of the output (--emit-json, --emit-dot):
        # breadth-first from the start, new class before grow
        # first part >= 2 is decided by the first step alone
        first_two = parse(
            "exists x. exists y. (!(exists z. z < x) & x < y"
            " & !(exists z. (x < z & z < y)) & x E y)")
        assert compile_sentence(first_two) == StepAutomaton(
            n_states=3, start=0, step_new=(1, 1, 2), step_grow=(2, 1, 2),
            accepting=(False, False, True))
        assert compile_sentence(parse("exists x. x = x")) == StepAutomaton(
            n_states=1, start=0, step_new=(0,), step_grow=(0,),
            accepting=(True,))
        assert compile_sentence(parse("false")) == StepAutomaton(
            n_states=1, start=0, step_new=(0,), step_grow=(0,),
            accepting=(False,))
        # last class >= 2 tracks only the previous step
        last_two = parse("exists x. exists y. (x < y & x E y"
                         " & !(exists z. y < z))")
        assert compile_sentence(last_two) == StepAutomaton(
            n_states=2, start=0, step_new=(0, 0), step_grow=(1, 1),
            accepting=(False, True))


class TestSentenceChain:
    def test_states_carry_verified_representatives(self):
        sentence = parse("exists x. exists y. (x E y & !(x = y))")
        chain = build_sentence_chain(sentence)
        for state in chain.states:
            assert state.accepting == evaluate(
                as_relational("convex", state.representative.shape), sentence)
            assert chain_walk(chain, state.representative.shape) == state.id

    def test_walk_agrees_with_evaluator(self):
        for name, sentence in _battery_convex_sentences():
            chain = build_sentence_chain(sentence)
            for n in range(1, 10):
                for shape in enumerate_shapes(n):
                    walked = chain.states[chain_walk(chain, shape)].accepting
                    assert walked == evaluate(
                        as_relational("convex", shape), sentence), (name, str(shape))

    def test_quotient_respects_depth3_equivalence(self):
        # depth-3-equivalent structures must reach the same chain state:
        # linear orders with >= 7 points are pairwise equivalent, and
        # equivalence is preserved under a common prefix
        solver = GameSolver()
        pairs = []
        for extra in (0, 1, 2):
            a = PartSequence((1,) * (7 + extra))
            b = PartSequence((1,) * (8 + extra))
            pairs.append((a, b))
            pairs.append((PartSequence((3, 2) + a.parts),
                          PartSequence((3, 2) + b.parts)))
        for name, sentence in _battery_convex_sentences():
            chain = build_sentence_chain(sentence)
            for a, b in pairs:
                assert solver.equiv(as_relational("convex", a),
                                    as_relational("convex", b), 3)
                assert chain_walk(chain, a) == chain_walk(chain, b), (name,)


def _ladder_b(names):
    """The points named are pairwise E-inequivalent."""
    pairs = [f"!({a} E {b})" for i, a in enumerate(names)
             for b in names[i + 1:]]
    prefix = "".join(f"exists {v}. " for v in names)
    return prefix + "(" + " & ".join(pairs) + ")"


# renamings that move every variable to another place in the sorted order,
# and with it to another letter bit: x, y, z go from bits 0, 1, 2 to 1, 2, 0
# and the ladder's w, x, y, z from 0, 1, 2, 3 to 2, 0, 3, 1
_ROTATE = {"x": "b", "y": "c", "z": "a"}
_SHUFFLE = {"w": "c", "x": "a", "y": "d", "z": "b"}


class TestVariableNames:
    @pytest.mark.parametrize(
        "theory,text,names",
        [(e.theory, e.text, _ROTATE) for e in BATTERY]
        + [("convex", t, _ROTATE) for t in EXTRA_SENTENCES]
        + [("convex", _ladder_b(["w", "x", "y", "z"]), _SHUFFLE)])
    def test_sorted_order_does_not_matter(self, theory, text, names):
        renamed = re.sub(r"\b[wxyz]\b", lambda m: names[m.group()], text)

        def compiled(t):
            f = parse(t, SIGNATURES[theory])
            return compile_sentence(translate_to_convex(theory, f))

        assert compiled(renamed) == compiled(text)


def _miniscope_battery():
    names = [f"v{i}" for i in range(9)]
    cases = [(f"battery/{name}", sentence)
             for name, sentence in _battery_convex_sentences()]
    cases += [(f"ladder-a/m={m}", closed_form.ladder_a(m, names)[0])
              for m in range(2, 8)]
    cases += [(f"ladder-b/m={m}", closed_form.ladder_b(m, names)[0])
              for m in range(3, 7)]
    for family in closed_form.FAMILIES:
        for theory in closed_form.THEORIES:
            for m in range(2, 7):
                text, _ = closed_form.family(family, theory, m, names)
                cases.append((f"{family}/{theory}/m={m}", translate_to_convex(
                    theory, parse(text, SIGNATURES[theory]))))
    return [pytest.param(parse(f) if isinstance(f, str) else f, id=label)
            for label, f in cases]


class TestMiniscopedCompilation:
    @pytest.mark.parametrize("sentence", _miniscope_battery())
    def test_same_automaton(self, sentence):
        # minimal automata numbered breadth-first are canonical, so an
        # equivalent formula compiles to the very same StepAutomaton
        assert compile_sentence(miniscope(sentence)) == \
            compile_sentence(sentence)
