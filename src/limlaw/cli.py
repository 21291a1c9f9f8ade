"""Command-line front end.

Subcommands: limit, estimate, translate, ef, states, check.
Exit codes: 0 success, 2 user input error, 3 resource budget exhausted,
4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .efgame import (
    BudgetExceededError,
    GameSolver,
    clear_fast_memo,
    fast_equiv_shapes,
    fast_memo_size,
)
from .limitchain import (
    InternalVerificationError,
    PeriodicChainError,
    analyze_limit,
    build_chain,
    chain_to_dot,
    chain_to_json,
    check_fully_aperiodic,
    estimate_probability,
    verify_chain_states,
    walk_estimate,
)
from .logic import (
    SIGNATURES,
    EvaluationError,
    FormulaSyntaxError,
    SignatureError,
    ensure_sentence,
    format_formula,
    parse,
    translate_to_convex,
)
from .structures import THEORIES, PartSequence, as_relational
from .logic import evaluate


def _fraction_text(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def _decimal_text(x) -> str:
    return f"{float(x):.12g}"


def _read_formula(args) -> str:
    if getattr(args, "formula", None) is not None:
        return args.formula
    with open(args.formula_file, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, doc: dict) -> None:
    if getattr(args, "emit_json", None):
        with open(args.emit_json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, ensure_ascii=False, indent=2)
            fh.write("\n")


def cmd_limit(args) -> int:
    theory = args.theory
    sentence = parse(_read_formula(args), SIGNATURES[theory])
    ensure_sentence(sentence)
    analysis = analyze_limit(theory, sentence)
    if args.verify:
        verify_chain_states(analysis.chain, GameSolver(budget=args.budget))
    print(f"theory: {theory}")
    print(f"sentence: {format_formula(analysis.sentence)}")
    print(f"k: {analysis.k}")
    print(f"chain states: {len(analysis.chain)}")
    print(f"limit = {_fraction_text(analysis.probability)}")
    print(f"limit ≈ {_decimal_text(analysis.probability)}")
    if args.emit_json:
        doc = chain_to_json(analysis.chain, analysis.distribution)
        doc["sentence"] = format_formula(analysis.sentence)
        doc["theory"] = theory
        doc["limit_probability"] = _fraction_text(analysis.probability)
        _emit(args, doc)
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(chain_to_dot(analysis.chain))
    return 0


def cmd_estimate(args) -> int:
    theory = args.theory
    sentence = parse(_read_formula(args), SIGNATURES[theory])
    ensure_sentence(sentence)
    if args.compare_limit:
        # one chain serves both the estimate and the limit
        analysis = analyze_limit(theory, sentence)
        result = walk_estimate(analysis.chain, args.n, args.samples, args.seed)
    else:
        result = estimate_probability(theory, sentence, args.n, args.samples,
                                      args.seed)
    print(f"n: {args.n}")
    print(f"samples: {args.samples}")
    print(f"seed: {args.seed}")
    print(f"estimate = {_fraction_text(result.estimate)}")
    print(f"estimate ≈ {_decimal_text(result.estimate)}")
    print(f"half_width_99 ≈ {_decimal_text(result.half_width)}")
    doc = {
        "theory": theory,
        "sentence": format_formula(sentence),
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "hits": result.hits,
        "estimate": _fraction_text(result.estimate),
        "estimate_approx": float(result.estimate),
        "half_width_99": result.half_width,
    }
    if args.compare_limit:
        gap = abs(result.estimate - analysis.probability)
        print(f"limit = {_fraction_text(analysis.probability)}")
        print(f"|estimate - limit| ≈ {_decimal_text(gap)}")
        doc["limit"] = _fraction_text(analysis.probability)
        doc["discrepancy"] = float(gap)
    _emit(args, doc)
    return 0


def cmd_translate(args) -> int:
    source = args.from_theory
    sentence = parse(_read_formula(args), SIGNATURES[source])
    translated = translate_to_convex(source, sentence)
    text = format_formula(translated)
    print(text)
    _emit(args, {"from": source, "sentence": format_formula(sentence),
                 "translated": text})
    return 0


def cmd_ef(args) -> int:
    theory = args.theory
    left = as_relational(theory, PartSequence.from_text(args.left))
    right = as_relational(theory, PartSequence.from_text(args.right))
    if theory == "convex" and not args.oracle:
        # an empty memo makes nodes and --budget the same for every call
        clear_fast_memo()
        wins = fast_equiv_shapes(left.shape, right.shape, args.k,
                                 args.budget)
        method = "segment"
        nodes = fast_memo_size()
    else:
        solver = GameSolver(budget=args.budget)
        wins = solver.equiv(left, right, args.k)
        method = "game-tree"
        nodes = solver.nodes
    print("duplicator" if wins else "spoiler")
    print(f"method: {method}")
    print(f"nodes: {nodes}")
    _emit(args, {"theory": theory, "left": args.left, "right": args.right,
                 "k": args.k, "winner": "duplicator" if wins else "spoiler",
                 "method": method, "nodes": nodes})
    return 0


def cmd_states(args) -> int:
    chain = build_chain(args.k, max_states=args.budget)
    if args.verify:
        verify_chain_states(chain, GameSolver(budget=args.budget))
    if not check_fully_aperiodic(chain):
        raise InternalVerificationError(
            f"built chain for k={args.k} is not fully aperiodic")
    print(f"k: {args.k}")
    print(f"states: {len(chain)}")
    for s in chain.states:
        print(f"{s.id}: {s.representative.shape} "
              f"plus->{s.succ_plus} hat->{s.succ_hat}")
    if args.emit_json:
        _emit(args, chain_to_json(chain))
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(chain_to_dot(chain))
    return 0


def cmd_check(args) -> int:
    theory = args.theory
    sentence = parse(_read_formula(args), SIGNATURES[theory])
    ensure_sentence(sentence)
    view = as_relational(theory, PartSequence.from_text(args.structure))
    value = evaluate(view, sentence)
    print("true" if value else "false")
    _emit(args, {"theory": theory, "structure": args.structure,
                 "sentence": format_formula(sentence), "value": value})
    return 0


def _int_at_least(low: int):
    """An argparse type: an int that is at least ``low``."""
    def parse_int(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse_int


_positive_int, _non_negative_int = _int_at_least(1), _int_at_least(0)


def _add_formula_options(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text in the canonical grammar")
    group.add_argument("--formula-file", help="path to a file holding the formula")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="limlaw",
        description="exact logical limit laws for convex linear orders, "
                    "layered permutations, and compositions")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("limit", help="exact limiting probability of a sentence")
    p.add_argument("--theory", choices=THEORIES, default="convex")
    _add_formula_options(p)
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="node budget of the --verify game-tree solver only")
    p.add_argument("--verify", action="store_true",
                   help="re-check state distinctness with the game solver")
    p.add_argument("--emit-json", metavar="PATH")
    p.add_argument("--emit-dot", metavar="PATH")
    p.set_defaults(func=cmd_limit)

    p = subs.add_parser("estimate", help="Monte Carlo estimate at finite n")
    p.add_argument("--theory", choices=THEORIES, default="convex")
    _add_formula_options(p)
    # checked here, before any chain is built
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--compare-limit", action="store_true")
    p.add_argument("--emit-json", metavar="PATH")
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("translate",
                        help="rewrite a sentence into the convex language")
    p.add_argument("--from", dest="from_theory", choices=THEORIES,
                   required=True)
    _add_formula_options(p)
    p.add_argument("--emit-json", metavar="PATH")
    p.set_defaults(func=cmd_translate)

    p = subs.add_parser("ef", help="winner of the length-k back-and-forth game")
    p.add_argument("--theory", choices=THEORIES, default="convex")
    p.add_argument("left", help="structure literal, e.g. 2,1,3")
    p.add_argument("right", help="structure literal")
    p.add_argument("--k", type=_non_negative_int, required=True)
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="bound on the new segment types of the convex "
                        "decider or, under --oracle or another theory, on "
                        "the nodes of the game-tree solver")
    p.add_argument("--oracle", action="store_true",
                   help="force the generic game-tree solver")
    p.add_argument("--emit-json", metavar="PATH")
    p.set_defaults(func=cmd_ef)

    p = subs.add_parser("states",
                        help="the sentence-independent class machine for k")
    p.add_argument("--k", type=_non_negative_int, required=True)
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="bound on the chain's states and, under --verify, "
                        "on the game types the solver computes")
    p.add_argument("--verify", action="store_true",
                   help="re-check state distinctness with the game solver")
    p.add_argument("--emit-json", metavar="PATH")
    p.add_argument("--emit-dot", metavar="PATH")
    p.set_defaults(func=cmd_states)

    p = subs.add_parser("check", help="evaluate a sentence on one structure")
    p.add_argument("--theory", choices=THEORIES, default="convex")
    p.add_argument("structure", help="structure literal, e.g. 2,1")
    _add_formula_options(p)
    p.add_argument("--emit-json", metavar="PATH")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (InternalVerificationError, PeriodicChainError) as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 4
    except (FormulaSyntaxError, SignatureError, EvaluationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
