import hashlib
import random
import re

import pytest

from conftest import (
    chain_walk,
    closed_form,
    random_formula,
    recursive_evaluate,
    shapes_up_to,
)
from limlaw import stepauto
from limlaw.battery import BATTERY
from limlaw.efgame import GameSolver
from limlaw.limitchain import build_sentence_chain
from limlaw.logic import (
    SIGNATURES,
    SignatureError,
    evaluate,
    format_formula,
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


# sentences whose subformulas share an atom's shape under other names: a
# vacuous quantifier beside one over the first track (twice, since taking
# one for the other loses the track of c, which only the second sentence's
# answer shows), conjuncts equal only under a renaming that reverses the
# order of their tracks, and a shadowed bound name
SHARING_SENTENCES = [
    "exists b. exists c. exists d. ((exists a. a < b) & (exists z. c < d))",
    "exists b. exists c. exists d. ((exists a. a < b) & (exists z. c < d)"
    " & c E d)",
    "exists a. exists b. exists c."
    " ((exists x. x < a & x E b) & (exists x. x < c & x E b))",
    "exists x. exists y. (x < y & (exists x. (x E y & !(x = y)))"
    " & (exists y. (x E y & !(x = y))))",
]


class TestCompilation:
    @pytest.mark.parametrize("name,sentence", _battery_convex_sentences())
    def test_matches_evaluator_exhaustively(self, name, sentence):
        auto = compile_sentence(sentence)
        for n in range(1, 11):
            for shape in enumerate_shapes(n):
                want = evaluate(as_relational("convex", shape), sentence)
                assert _run(auto, shape) == want, (name, str(shape))

    @pytest.mark.parametrize("text", EXTRA_SENTENCES + SHARING_SENTENCES)
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

    def test_pair_automata_are_built_once(self, monkeypatch):
        def never(*args):
            raise AssertionError("a pair automaton was built again")

        monkeypatch.setattr(stepauto, "_pair", never)
        for text in EXTRA_SENTENCES + SHARING_SENTENCES:
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
    return [pytest.param(label, parse(f) if isinstance(f, str) else f,
                         id=label)
            for label, f in cases]


#: case of _miniscope_battery -> (states, sha256 of the StepAutomaton's repr)
#: of the automaton it compiles to, as the compiler with per-letter rows
#: made them: the state numbering is part of the output, so a compiler
#: change must reproduce every one
PINNED_AUTOMATA = {
    "battery/nonempty": (
        1, "b3c37bf813b37fa62da18b634d458147297623f06d866bbb97e100f8df31fb74"),
    "battery/some-class-at-least-2": (
        2, "109f473dae96b620db3c40c290a43ea08f1d26c600aa1e4468840eb1ab58167b"),
    "battery/first-two-points-share-class": (
        3, "c513e9e4b3175af47a2d7d0585d67a63fa001baa8e2b21b8d2431132a7151252"),
    "battery/first-two-classes-singletons": (
        4, "645f062436f7724836bb6ac9be1cefddfee0ec3737eeb22d602e1596d71b6f1a"),
    "battery/single-class": (
        2, "5c252d26ccdc77eddab9953ec3410b8faa359ea0094c295fcf85d4738ee296da"),
    "battery/all-classes-singletons": (
        2, "413a578b60ce0fe0bd0eb3b082d7566608d6a72b538eb4d2c6d0fdd337bb64cd"),
    "battery/last-class-at-least-2": (
        2, "62a147a909311b5fc31c2d0b3e0221be91bf878f6dda94d8b3d413e4d991aa5f"),
    "battery/some-descent": (
        2, "109f473dae96b620db3c40c290a43ea08f1d26c600aa1e4468840eb1ab58167b"),
    "battery/identity-permutation": (
        2, "413a578b60ce0fe0bd0eb3b082d7566608d6a72b538eb4d2c6d0fdd337bb64cd"),
    "battery/at-least-two-parts": (
        2, "be81d7ed78a5d5d2ce382489df254860f06843c0d161eaa5a9728f86e7631fde"),
    "ladder-a/m=2": (
        4, "e0c3efa04133d1a9f65b90ee963d29f3676b035fa9bb54b45d34745674527b12"),
    "ladder-a/m=3": (
        6, "22c8e15b82efc64b74add8a59d95f49aac39b86a62b2023b883e0026cd9b166a"),
    "ladder-a/m=4": (
        8, "80b5325ff7d7a40cb3c6187f8bcd01b36c02393067a4ad287be80628d178d035"),
    "ladder-a/m=5": (
        10, "85d3daabe28665cfe1744f8d922224c36ddd4b0aefbd887a934e2a67f0ca83a5"),
    "ladder-a/m=6": (
        12, "e37eabe146990d5303a45004e785461ad34b04d159f13c3c4d57d5f441c4af54"),
    "ladder-a/m=7": (
        14, "16970ea6dade4e5c2c1a16ce7f3386cf0d22296f24084c426a7e0a9a88fe4cc6"),
    "ladder-b/m=3": (
        3, "09a7aee9fe437fd5f0379889fa5054f140a71b8a0bdf70ef571e00f93a57da3d"),
    "ladder-b/m=4": (
        4, "44180587f044e380ea06da71d78e0e11891eb324bd86965340007477fc38db33"),
    "ladder-b/m=5": (
        5, "57388278ff7f126fe08f67aa9d88309033b7c1ad8e32962820accf0a3f0bf175"),
    "ladder-b/m=6": (
        6, "7f730fdf6b532a285be3aa9f844ffa796d39d91f071cc53b6dda1a761a46861d"),
    "first_class/convex/m=2": (
        3, "c513e9e4b3175af47a2d7d0585d67a63fa001baa8e2b21b8d2431132a7151252"),
    "first_class/convex/m=3": (
        4, "35b34b07ba96bea9c3f5634510ed298bc37349e13824500b13ed4981dc04a4f4"),
    "first_class/convex/m=4": (
        5, "78c442b82152fe48f903cf6bb12b3c8309abfef3234b034f30f4d60008aea738"),
    "first_class/convex/m=5": (
        6, "5bf83d0a8da4b87f21f23c06863f25723ead4bac5f0c7a8decc9188ebaaec811"),
    "first_class/convex/m=6": (
        7, "83a69c9a1003132b0bbd34ab5f1f99433a5124d59b6fe6f089aa26f8ec30bda9"),
    "first_class/layered/m=2": (
        3, "c513e9e4b3175af47a2d7d0585d67a63fa001baa8e2b21b8d2431132a7151252"),
    "first_class/layered/m=3": (
        4, "35b34b07ba96bea9c3f5634510ed298bc37349e13824500b13ed4981dc04a4f4"),
    "first_class/layered/m=4": (
        5, "78c442b82152fe48f903cf6bb12b3c8309abfef3234b034f30f4d60008aea738"),
    "first_class/layered/m=5": (
        6, "5bf83d0a8da4b87f21f23c06863f25723ead4bac5f0c7a8decc9188ebaaec811"),
    "first_class/layered/m=6": (
        7, "83a69c9a1003132b0bbd34ab5f1f99433a5124d59b6fe6f089aa26f8ec30bda9"),
    "first_class/composition/m=2": (
        3, "c513e9e4b3175af47a2d7d0585d67a63fa001baa8e2b21b8d2431132a7151252"),
    "first_class/composition/m=3": (
        4, "35b34b07ba96bea9c3f5634510ed298bc37349e13824500b13ed4981dc04a4f4"),
    "first_class/composition/m=4": (
        5, "78c442b82152fe48f903cf6bb12b3c8309abfef3234b034f30f4d60008aea738"),
    "first_class/composition/m=5": (
        6, "5bf83d0a8da4b87f21f23c06863f25723ead4bac5f0c7a8decc9188ebaaec811"),
    "first_class/composition/m=6": (
        7, "83a69c9a1003132b0bbd34ab5f1f99433a5124d59b6fe6f089aa26f8ec30bda9"),
    "first_class/fractured/m=2": (
        3, "c513e9e4b3175af47a2d7d0585d67a63fa001baa8e2b21b8d2431132a7151252"),
    "first_class/fractured/m=3": (
        4, "35b34b07ba96bea9c3f5634510ed298bc37349e13824500b13ed4981dc04a4f4"),
    "first_class/fractured/m=4": (
        5, "78c442b82152fe48f903cf6bb12b3c8309abfef3234b034f30f4d60008aea738"),
    "first_class/fractured/m=5": (
        6, "5bf83d0a8da4b87f21f23c06863f25723ead4bac5f0c7a8decc9188ebaaec811"),
    "first_class/fractured/m=6": (
        7, "83a69c9a1003132b0bbd34ab5f1f99433a5124d59b6fe6f089aa26f8ec30bda9"),
    "last_class/convex/m=2": (
        2, "62a147a909311b5fc31c2d0b3e0221be91bf878f6dda94d8b3d413e4d991aa5f"),
    "last_class/convex/m=3": (
        3, "d1d3066045bcf8d3e89e86be802d6e61418b4bc565d5aec63137ada35c219ffe"),
    "last_class/convex/m=4": (
        4, "dc34318f2a7f6cc01eccba841297798c09bd98f500b17197b6a172348c69c69b"),
    "last_class/convex/m=5": (
        5, "4274baa917836c63e3d61cf34357bbdfa0cdb2ed2bf8be86367b96e58e97c86a"),
    "last_class/convex/m=6": (
        6, "cea229a406905edf28fa93e7f91b10e977537a40d1d0a397ed0ea29215957849"),
    "last_class/layered/m=2": (
        2, "62a147a909311b5fc31c2d0b3e0221be91bf878f6dda94d8b3d413e4d991aa5f"),
    "last_class/layered/m=3": (
        3, "d1d3066045bcf8d3e89e86be802d6e61418b4bc565d5aec63137ada35c219ffe"),
    "last_class/layered/m=4": (
        4, "dc34318f2a7f6cc01eccba841297798c09bd98f500b17197b6a172348c69c69b"),
    "last_class/layered/m=5": (
        5, "4274baa917836c63e3d61cf34357bbdfa0cdb2ed2bf8be86367b96e58e97c86a"),
    "last_class/layered/m=6": (
        6, "cea229a406905edf28fa93e7f91b10e977537a40d1d0a397ed0ea29215957849"),
    "last_class/composition/m=2": (
        2, "62a147a909311b5fc31c2d0b3e0221be91bf878f6dda94d8b3d413e4d991aa5f"),
    "last_class/composition/m=3": (
        3, "d1d3066045bcf8d3e89e86be802d6e61418b4bc565d5aec63137ada35c219ffe"),
    "last_class/composition/m=4": (
        4, "dc34318f2a7f6cc01eccba841297798c09bd98f500b17197b6a172348c69c69b"),
    "last_class/composition/m=5": (
        5, "4274baa917836c63e3d61cf34357bbdfa0cdb2ed2bf8be86367b96e58e97c86a"),
    "last_class/composition/m=6": (
        6, "cea229a406905edf28fa93e7f91b10e977537a40d1d0a397ed0ea29215957849"),
    "last_class/fractured/m=2": (
        2, "62a147a909311b5fc31c2d0b3e0221be91bf878f6dda94d8b3d413e4d991aa5f"),
    "last_class/fractured/m=3": (
        3, "d1d3066045bcf8d3e89e86be802d6e61418b4bc565d5aec63137ada35c219ffe"),
    "last_class/fractured/m=4": (
        4, "dc34318f2a7f6cc01eccba841297798c09bd98f500b17197b6a172348c69c69b"),
    "last_class/fractured/m=5": (
        5, "4274baa917836c63e3d61cf34357bbdfa0cdb2ed2bf8be86367b96e58e97c86a"),
    "last_class/fractured/m=6": (
        6, "cea229a406905edf28fa93e7f91b10e977537a40d1d0a397ed0ea29215957849"),
    "distinct_start/convex/m=2": (
        3, "fff9d98309a771850eddf827c8da3ad21ed3abf4ea68efe032e525e0b5cdc2f2"),
    "distinct_start/convex/m=3": (
        4, "645f062436f7724836bb6ac9be1cefddfee0ec3737eeb22d602e1596d71b6f1a"),
    "distinct_start/convex/m=4": (
        5, "a33d7f49f44ff9d9dfbc8717f1d45cf2333e62f47e254fcc9b6aff1d8fa74bb8"),
    "distinct_start/convex/m=5": (
        6, "73605cf6c08c518108b17cfeca9a9f8408277319d057010da9c09328a5a03b7e"),
    "distinct_start/convex/m=6": (
        7, "617f11444c5f6e56879dc4b5a9c2763dea3f7cf9a2c99b34625b10bd350e6ea2"),
    "distinct_start/layered/m=2": (
        3, "fff9d98309a771850eddf827c8da3ad21ed3abf4ea68efe032e525e0b5cdc2f2"),
    "distinct_start/layered/m=3": (
        4, "645f062436f7724836bb6ac9be1cefddfee0ec3737eeb22d602e1596d71b6f1a"),
    "distinct_start/layered/m=4": (
        5, "a33d7f49f44ff9d9dfbc8717f1d45cf2333e62f47e254fcc9b6aff1d8fa74bb8"),
    "distinct_start/layered/m=5": (
        6, "73605cf6c08c518108b17cfeca9a9f8408277319d057010da9c09328a5a03b7e"),
    "distinct_start/layered/m=6": (
        7, "617f11444c5f6e56879dc4b5a9c2763dea3f7cf9a2c99b34625b10bd350e6ea2"),
    "distinct_start/composition/m=2": (
        3, "fff9d98309a771850eddf827c8da3ad21ed3abf4ea68efe032e525e0b5cdc2f2"),
    "distinct_start/composition/m=3": (
        4, "645f062436f7724836bb6ac9be1cefddfee0ec3737eeb22d602e1596d71b6f1a"),
    "distinct_start/composition/m=4": (
        5, "a33d7f49f44ff9d9dfbc8717f1d45cf2333e62f47e254fcc9b6aff1d8fa74bb8"),
    "distinct_start/composition/m=5": (
        6, "73605cf6c08c518108b17cfeca9a9f8408277319d057010da9c09328a5a03b7e"),
    "distinct_start/composition/m=6": (
        7, "617f11444c5f6e56879dc4b5a9c2763dea3f7cf9a2c99b34625b10bd350e6ea2"),
    "distinct_start/fractured/m=2": (
        3, "fff9d98309a771850eddf827c8da3ad21ed3abf4ea68efe032e525e0b5cdc2f2"),
    "distinct_start/fractured/m=3": (
        4, "645f062436f7724836bb6ac9be1cefddfee0ec3737eeb22d602e1596d71b6f1a"),
    "distinct_start/fractured/m=4": (
        5, "a33d7f49f44ff9d9dfbc8717f1d45cf2333e62f47e254fcc9b6aff1d8fa74bb8"),
    "distinct_start/fractured/m=5": (
        6, "73605cf6c08c518108b17cfeca9a9f8408277319d057010da9c09328a5a03b7e"),
    "distinct_start/fractured/m=6": (
        7, "617f11444c5f6e56879dc4b5a9c2763dea3f7cf9a2c99b34625b10bd350e6ea2"),
}


class TestMiniscopedCompilation:
    @pytest.mark.parametrize("label,sentence", _miniscope_battery())
    def test_same_automaton(self, label, sentence):
        # minimal automata numbered breadth-first are canonical, so an
        # equivalent formula compiles to the very same StepAutomaton
        assert compile_sentence(miniscope(sentence)) == \
            compile_sentence(sentence)

    @pytest.mark.parametrize("label,sentence", _miniscope_battery())
    def test_automaton_is_pinned(self, label, sentence):
        auto = compile_sentence(sentence)
        digest = hashlib.sha256(repr(auto).encode()).hexdigest()
        assert (auto.n_states, digest) == PINNED_AUTOMATA[label]

    def test_every_case_is_pinned(self):
        assert [p.values[0] for p in _miniscope_battery()] == \
            list(PINNED_AUTOMATA)


def _count_minimized(monkeypatch):
    """Record the (rows, columns) of every automaton handed to
    ``_minimize`` and check each result: pairwise distinct columns,
    numbered in order of their first letter."""
    sizes = []
    minimize = stepauto._minimize

    def counting(dfa):
        sizes.append((len(dfa.trans), len(dfa.trans[0])))
        out = minimize(dfa)
        columns = list(zip(*out.trans))
        assert len(set(columns)) == len(columns)
        assert list(dict.fromkeys(out.column)) == list(range(len(columns)))
        return out

    monkeypatch.setattr(stepauto, "_minimize", counting)
    return sizes


class TestCompileWork:
    def test_compile_work_is_pinned(self, monkeypatch):
        # cells the compiler explores and automata it minimizes; a change
        # here is a change in how it represents letters, prunes states,
        # shares subformulas or reads ill-formed words in its pair table,
        # not only in its speed
        names = [f"v{i}" for i in range(10)]
        cases = [
            ("convex", closed_form.ladder_b(6, names)[0], 1038, 15),
            ("composition", closed_form.family(
                "first_class", "composition", 6, names)[0], 1458, 17),
            ("convex", closed_form.ladder_b(10, names)[0], 2614, 27),
        ]
        sizes = _count_minimized(monkeypatch)
        for theory, text, work, calls in cases:
            sizes.clear()
            compile_sentence(miniscope(translate_to_convex(
                theory, parse(text, SIGNATURES[theory]))))
            assert sum(rows * columns for rows, columns in sizes) == work
            assert len(sizes) == calls

    @pytest.mark.parametrize("left,right,op,value", [
        ("false", "body", lambda p, q: p and q, False),
        ("body", "false", lambda p, q: p and q, False),
        ("true", "body", lambda p, q: p or q, True),
        ("false", "body", lambda p, q: (not p) or q, True),
    ], ids=["false-and", "and-false", "true-or", "false-implies"])
    def test_product_with_a_deciding_constant_explores_one_state(
            self, monkeypatch, left, right, op, value):
        # a rejecting sink decides a conjunction and an implication's
        # premise, an accepting sink a disjunction, whatever the other side
        _, body = stepauto._compile(parse("x < y & (x E y | y < z)"), {})
        automata = {"body": body, "false": stepauto._const(0, False),
                    "true": stepauto._const(0, True)}
        sizes = _count_minimized(monkeypatch)
        product = stepauto._product(
            automata[left], (0, 1, 2) if left == "body" else (),
            automata[right], (0, 1, 2) if right == "body" else (), op, 3)
        assert [rows for rows, _ in sizes] == [1]
        assert (0 in product.accept) == value

    def test_minimized_columns_are_distinct_and_ordered(self, monkeypatch):
        sizes = _count_minimized(monkeypatch)
        for text in EXTRA_SENTENCES + [_ladder_b(["w", "x", "y", "z"])]:
            compile_sentence(parse(text, SIGNATURES["convex"]))
        for _, sentence in _battery_convex_sentences():
            compile_sentence(sentence)
        assert sizes


def _shape_ids(*texts):
    """The shape ids of the formulas, compiled into one memo."""
    memo = {}
    return [stepauto._compile(parse(t), memo)[0] for t in texts]


class TestShapeSharing:
    def test_only_order_preserving_renamings_share(self):
        # renaming a, b to c, d keeps the order of the tracks, to c, b it
        # reverses it, and a vacuous quantifier is not one over track 0
        assert len(set(_shape_ids("exists x. x < a & x E b",
                                  "exists x. x < c & x E d"))) == 1
        assert len(set(_shape_ids("exists x. x < a & x E b",
                                  "exists x. x < c & x E b"))) == 2
        assert len(set(_shape_ids("exists a. a < b",
                                  "exists z. c < d"))) == 2

    def test_a_renaming_shares_the_stored_automaton(self):
        # the tracks are positions, so a hit has nothing to rename
        memo = {}
        first = stepauto._compile(parse("exists x. x < a & x E b"), memo)
        second = stepauto._compile(parse("exists y. y < c & y E d"), memo)
        assert second is first

    def test_letters_run_over_the_free_variables(self, monkeypatch):
        # every node, memo hits included, has an alphabet of 3 << k letters
        # over its k free variables: the width is all that names its tracks
        compile_node = stepauto._compile
        nodes = []

        def checked(f, memo):
            entry = compile_node(f, memo)
            assert len(entry[1].column) == 3 << len(f.free), \
                format_formula(f)
            nodes.append(f)
            return entry

        monkeypatch.setattr(stepauto, "_compile", checked)
        rng = random.Random(11)
        sentences = [s for _, s in _battery_convex_sentences()]
        sentences += [random_formula(rng, [], 4, ("<", "E"), fresh)
                      for fresh in (0.0, 0.45) for _ in range(150)]
        for sentence in sentences:
            compile_sentence(sentence)
            compile_sentence(miniscope(sentence))
        assert len(nodes) > 3000


def _pair_type(view, a, b) -> int:
    """The type of the pair of points a and b, in the mask-bit order of
    ``stepauto._PAIR_TYPES``, read from the view's relations."""
    if view.holds("=", a, b):
        return 2
    return (0 if view.holds("<", a, b) else 3) + (not view.holds("E", a, b))


class TestPairTable:
    def test_accepts_exactly_the_pair_types_in_its_mask(self):
        # every shape up to size 6 and every placement of the marks of a
        # and b, coinciding ones included; bit 0 of a letter marks a, bit 1
        # marks b, and its step bit says how the class after the point goes
        assert sorted(stepauto._PAIRS) == list(range(1, 31))
        for shape in shapes_up_to(6):
            view = as_relational("convex", shape)
            points = view.points()
            steps = [int(view.holds("E", p, p + 1)) for p in points[:-1]] + [2]
            for a in points:
                for b in points:
                    word = [step << 2 | (p == a) | (p == b) << 1
                            for p, step in zip(points, steps)]
                    pair_type = _pair_type(view, a, b)
                    for mask, dfa in stepauto._PAIRS.items():
                        state = dfa.start
                        for letter in word:
                            state = dfa.trans[state][dfa.column[letter]]
                        assert (state in dfa.accept) == bool(
                            mask >> pair_type & 1), (mask, str(shape), a, b)

    # the two tests below pin what keeps products small, which the test
    # above cannot see: it reads only words that mark each name once

    def test_class_local_entries_forget_at_every_new_class(self):
        # a mask that holds at both types across classes reads every pair
        # in a class, so a letter that closes the class leaves it nothing
        # to remember but a violation
        local = [m for m in stepauto._PAIRS if m & _CROSS == _CROSS]
        assert len(local) == 7
        for mask in local:
            dfa = stepauto._PAIRS[mask]
            dead = [q for q in stepauto._sinks(dfa) if q not in dfa.accept]
            for row in dfa.trans:
                for letter in range(4):  # step bit 0, any marks
                    assert row[dfa.column[letter]] in (dfa.start, *dead), (
                        mask, row, letter)

    def test_other_entries_settle_at_the_first_deciding_mark(self):
        # every prefix of up to 5 step letters marking each name at most
        # once: when all its completions that mark each name once give
        # types inside the mask, or all give types outside it, it ends in
        # a sink
        words, parents = _mark_once_prefixes(5)
        types = [_completion_types(word) for word in words]
        settled = 0
        for mask, dfa in stepauto._PAIRS.items():
            if mask & _CROSS == _CROSS:
                continue
            sinks = set(stepauto._sinks(dfa))
            states = [dfa.start]
            for word, parent, possible in zip(words, parents, types):
                if parent is not None:
                    states.append(dfa.trans[states[parent]][
                        dfa.column[word[-1]]])
                if possible & mask in (0, possible):
                    settled += 1
                    assert states[-1] in sinks, (mask, word)
        assert settled == 36858


#: the two types across classes, bits 1 and 4 of a mask
_CROSS = 0b10010


def _mark_once_prefixes(length):
    """The words of up to ``length`` letters with step bit 0 or 1 that mark
    each name at most once, each after its longest proper prefix, and the
    index of that prefix (None for the empty word)."""
    words, parents = [()], [None]
    for i, word in enumerate(words):
        if len(word) < length:
            marked = 0
            for letter in word:
                marked |= letter & 3
            for letter in range(8):
                if not letter & marked:
                    words.append(word + (letter,))
                    parents.append(i)
    return words, parents


def _completion_types(word) -> int:
    """The mask of the pair types that the words extending ``word`` and
    marking each name once can give.  Two points share a class when every
    step from the first up to the second grows it (step bit 1)."""
    a = next((i for i, letter in enumerate(word) if letter & 1), None)
    b = next((i for i, letter in enumerate(word) if letter & 2), None)
    if a is None and b is None:
        return 0b11111
    if a is not None and b is not None:
        if a == b:
            return 1 << 2
        apart = not all(letter >> 2 for letter in word[min(a, b):max(a, b)])
        return 1 << ((0 if a < b else 3) + apart)
    # one name is marked; the other goes in its class while that is open,
    # or in a later one
    later = 0b00011 if a is not None else 0b11000
    first = a if a is not None else b
    return later if all(letter >> 2 for letter in word[first:]) else (
        later & _CROSS)


def _accepts(dfa, word) -> bool:
    state = dfa.start
    for letter in word:
        state = dfa.trans[state][dfa.column[letter]]
    return state in dfa.accept


def _read_on(word, places, k):
    """The word as an automaton whose track i is track ``places[i]`` of k
    reads it: each letter keeps its step bit and the marks on those
    tracks."""
    return [letter >> k << len(places) | sum(
        (letter >> place & 1) << i for i, place in enumerate(places))
        for letter in word]


class TestProduct:
    def test_operands_read_their_own_tracks(self):
        # two pair-table entries on different pairs of three tracks, under
        # every connective: on any word, the product accepts when the
        # connective holds of what each entry accepts on its own tracks
        rng = random.Random(5)
        k = 3
        track_pairs = [(0, 1), (0, 2), (1, 2)]
        for _ in range(30):
            a, b = (stepauto._PAIRS[mask] for mask in
                    rng.sample(sorted(stepauto._PAIRS), 2))
            places_a, places_b = rng.sample(track_pairs, 2)
            words = [[rng.randrange(3 << k) for _ in range(rng.randint(0, 6))]
                     for _ in range(30)]
            for op in stepauto._OPS.values():
                product = stepauto._product(a, places_a, b, places_b, op, k)
                for word in words:
                    want = op(_accepts(a, _read_on(word, places_a, k)),
                              _accepts(b, _read_on(word, places_b, k)))
                    assert _accepts(product, word) == want, (
                        places_a, places_b, word)


def _check_random_sentences(rng, fresh):
    """Closed {<, E} sentences of depth up to 4, shadowing and vacuous
    quantifiers included, compiled as they are and miniscoped, against
    ``recursive_evaluate`` on every shape up to size 7."""
    shapes = shapes_up_to(7)
    structures = [as_relational("convex", s) for s in shapes]
    for _ in range(300):
        sentence = random_formula(rng, [], 4, ("<", "E"), fresh)
        automata = (compile_sentence(sentence),
                    compile_sentence(miniscope(sentence)))
        for shape, struct in zip(shapes, structures):
            want = recursive_evaluate(struct, sentence)
            for auto in automata:
                assert _run(auto, shape) == want, (
                    format_formula(sentence), str(shape))


class TestRandomSentences:
    def test_automata_match_the_recursive_evaluator(self):
        _check_random_sentences(random.Random(7), 0.0)

    def test_quantifier_heavy_sentences_match_the_recursive_evaluator(self):
        # a quantifier over a fresh name at 45% of levels puts automata
        # over few tracks under products over more, which lifts them
        _check_random_sentences(random.Random(7), 0.45)
