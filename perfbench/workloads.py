"""The four workloads: inputs made from a seed, the operations of one pass,
and the check of every operation's output against a reference computed
apart from limlaw.

An operation is a no-argument callable; its check takes the output and
returns ``None`` or a message.  Checks run after the timed passes.  Library
functions are looked up on their modules at call time
(``limitchain.analyze_limit``, not a local import), so the traced run's
wrappers see every call.

The seed chooses variable names, the order of operations, the sampler's
random streams and the convex structure pairs of ``ef-games``.  It never
changes which kinds of operation a pass holds or their sizes (the theory of
every sentence is fixed, not drawn), so every seed does about the same work.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from limlaw import cli, efgame, limitchain
from limlaw.battery import BATTERY
from limlaw.structures import ConvexLinearOrder, PartSequence

import sentences

WORKLOADS = ("shallow-limits", "deep-limits", "sampling", "ef-games")


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


#: two-character variable names; none is a keyword or a relation symbol
_NAME_POOL = [a + b for a in string.ascii_lowercase
              for b in string.ascii_lowercase + string.digits
              if a + b not in ("p1", "p2")]


def _names(rng: random.Random, count: int) -> list[str]:
    return rng.sample(_NAME_POOL, count)


def _rename(text: str, rng: random.Random) -> str:
    """The battery's x, y, z renamed to seeded names."""
    new = dict(zip("xyz", _names(rng, 3)))
    return re.sub(r"\b[xyz]\b", lambda m: new[m.group()], text)


# --- the CLI -----------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    """``limlaw <argv>`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_field(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key):
            return line[len(key):].strip()
    return None


def _limit_op(label: str, theory: str, text: str, expected: Fraction) -> Op:
    def run():
        code, stdout = _cli(["limit", "--theory", theory, "--formula", text])
        if code != 0:
            raise RuntimeError(f"limlaw limit exited {code}")
        return _cli_field(stdout, "limit =")

    want = f"{expected.numerator}/{expected.denominator}"
    return Op(label, run,
              lambda got: None if got == want else f"limit {got}, expected {want}")


#: the parser takes six frames per parenthesis level, so this nesting raises
#: RecursionError under the default recursion limit; fixed, not seeded
FAILING_PARENS = 300


def _shallow(rng: random.Random, smoke: bool) -> list[Op]:
    ops = []
    battery = BATTERY[:3] if smoke else BATTERY
    for entry in battery:
        ops.append(_limit_op(f"battery/{entry.name}", entry.theory,
                             _rename(entry.text, rng), entry.expected_limit))
    # (family, theory, m, negated): depth 2 in every theory, and negated in
    # two theories per family, so that three in four operations solve the
    # 57-state class chain and the median operation is one of them; depth 3
    # in the three theories the battery's depth-3 sentences leave out
    picks = [(fam, th, 2, False) for fam in sentences.FAMILIES
             for th in sentences.THEORIES]
    picks += [(fam, sentences.THEORIES[(2 * i + j) % 4], 2, True)
              for i, fam in enumerate(sentences.FAMILIES) for j in (0, 1)]
    picks += [(fam, th, 3, False) for fam, th in zip(
        sentences.FAMILIES, ("layered", "composition", "fractured"))]
    if smoke:
        picks = [("first_class", "layered", 2, True),
                 ("distinct_start", "composition", 3, False)]
    for fam, theory, m, negated in picks:
        text, limit = sentences.family(fam, theory, m, _names(rng, m + 1))
        if negated:
            text, limit = f"!({text})", 1 - limit
        ops.append(_limit_op(f"{'not-' if negated else ''}{fam}/{theory}/m={m}",
                             theory, text, limit))
    entry = next(b for b in BATTERY if b.name == "last-class-at-least-2")
    ops.append(_limit_op(
        f"parens{FAILING_PARENS}/{entry.name}", entry.theory,
        "(" * FAILING_PARENS + entry.text + ")" * FAILING_PARENS,
        entry.expected_limit))
    rng.shuffle(ops)
    return ops


# --- library limits ------------------------------------------------------------


def _analyze_op(label: str, theory: str, text: str, expected: Fraction) -> Op:
    def run():
        return limitchain.analyze_limit(theory, text).probability

    return Op(label, run,
              lambda got: None if got == expected else f"limit {got}, expected {expected}")


def _deep(rng: random.Random, smoke: bool) -> list[Op]:
    ladder_a = (2,) if smoke else (2, 3, 4, 5)
    ladder_b = (3,) if smoke else (3, 4, 5, 6)
    family_m = (3,) if smoke else (3, 4, 5, 6)
    ops = []
    for m in ladder_a:
        text, limit = sentences.ladder_a(m, _names(rng, m + 1))
        ops.append(_analyze_op(f"ladder-a/m={m}", "convex", text, limit))
    for m in ladder_b:
        text, limit = sentences.ladder_b(m, _names(rng, m))
        ops.append(_analyze_op(f"ladder-b/m={m}", "convex", text, limit))
    # the families in every theory give the pass a dense middle of
    # operations of 10-50 ms, so op_p50_ms does not jump between ladder rungs
    theories = ("layered",) if smoke else sentences.THEORIES
    for fam in sentences.FAMILIES:
        for theory in theories:
            for m in family_m:
                text, limit = sentences.family(fam, theory, m, _names(rng, m + 1))
                ops.append(_analyze_op(f"{fam}/{theory}/m={m}", theory, text, limit))
    rng.shuffle(ops)
    return ops


# --- sampling --------------------------------------------------------------------

#: an estimate may miss its limit by this many 99% Wilson half-widths before
#: it counts as wrong (z = 6.4, so a correct sampler fails about once in
#: 10^10 estimates)
HALF_WIDTHS = 2.5


def _walk_check(expected: Fraction):
    def check(result) -> str | None:
        gap = abs(float(result.estimate) - float(expected))
        if gap <= HALF_WIDTHS * result.half_width:
            return None
        return (f"estimate {float(result.estimate):.5f} is {gap:.5f} from "
                f"{float(expected):.5f}, over {HALF_WIDTHS} x {result.half_width:.5f}")
    return check


def _estimate_op(label: str, theory: str, text: str, n: int, samples: int,
                 seed: int, check, method: str = "walk") -> Op:
    def run():
        return limitchain.estimate_probability(theory, text, n, samples, seed,
                                               method=method)
    return Op(label, run, check)


def _sampling(rng: random.Random, smoke: bool) -> list[Op]:
    n, samples = (64, 1024) if smoke else (256, 16384)
    large_n, large_samples = (2_000, 1024) if smoke else (10_000, 4096)
    direct_n, direct_samples = (8, 64) if smoke else (16, 1024)
    ops = []
    battery = BATTERY[:3] if smoke else BATTERY
    # every battery limit is 0, 1/4, 1/2 or 1, and the probability at
    # n >= 256 is within 2^-250 of it
    for entry in battery:
        ops.append(_estimate_op(
            f"walk/{entry.name}", entry.theory, _rename(entry.text, rng),
            n, samples, rng.randrange(2 ** 32), _walk_check(entry.expected_limit)))
    big = next(b for b in BATTERY if b.name == "first-two-points-share-class")
    ops.append(_estimate_op(
        f"walk-large-n/{big.name}", big.theory, _rename(big.text, rng),
        large_n, large_samples, rng.randrange(2 ** 32),
        _walk_check(big.expected_limit)))
    text, seed = _rename(big.text, rng), rng.randrange(2 ** 32)

    def same_hits_as_walk(result) -> str | None:
        walk = limitchain.estimate_probability(big.theory, text, direct_n,
                                               direct_samples, seed)
        if result.hits != walk.hits:
            return f"direct hits {result.hits} != walk hits {walk.hits}"
        return None

    ops.append(_estimate_op(f"direct/{big.name}", big.theory, text, direct_n,
                            direct_samples, seed, same_hits_as_walk,
                            method="direct"))
    rng.shuffle(ops)
    return ops


# --- games ---------------------------------------------------------------------


def _ef_op(label: str, left: PartSequence, right: PartSequence, k: int,
           expected: Callable[[], bool]) -> Op:
    def run():
        code, stdout = _cli(["ef", "--oracle", str(left), str(right),
                             "--k", str(k)])
        if code != 0:
            raise RuntimeError(f"limlaw ef exited {code}")
        return stdout.split()[0]

    def check(got) -> str | None:
        want = "duplicator" if expected() else "spoiler"
        return None if got == want else f"winner {got}, expected {want}"
    return Op(label, run, check)


def _linear(n: int) -> PartSequence:
    return PartSequence((1,) * n)


def _threshold(n: int, m: int, k: int) -> bool:
    """Linear orders of sizes n and m agree to depth k iff n = m or both
    have at least 2^k - 1 points."""
    t = 2 ** k - 1
    return n == m or (n >= t and m >= t)


def _segment_reference(a: PartSequence, b: PartSequence, k: int) -> bool:
    efgame.clear_fast_memo()
    return efgame.fast_equiv_shapes(a, b, k)


def _random_shape(rng: random.Random, size: int, big_part: int) -> PartSequence:
    """A shape of the given size with one part of size ``big_part`` (above
    the depth's cap, so ``reduce_representative`` has work)."""
    parts = []
    while sum(parts) < size - big_part:
        parts.append(rng.choice((1, 1, 1, 2, 2, 3)))
    parts.insert(rng.randrange(len(parts) + 1), big_part)
    return PartSequence(tuple(parts))


#: linear-order pairs (n, m, k) on both sides of the threshold 2^k - 1; fixed,
#: because a game's cost depends so much on n and m that drawing them would
#: make a pass's work depend on the seed
LINEAR_PAIRS = (
    (1, 1, 1), (1, 2, 1), (4, 9, 1),
    (2, 3, 2), (3, 4, 2), (3, 3, 2), (2, 20, 2), (5, 17, 2), (3, 20, 2),
    (6, 7, 3), (7, 8, 3), (6, 6, 3), (7, 7, 3), (6, 20, 3), (7, 20, 3),
    (5, 12, 3), (9, 14, 3), (13, 13, 3), (4, 7, 3), (8, 11, 3),
)


def _games(rng: random.Random, smoke: bool) -> list[Op]:
    ops = []
    pairs = LINEAR_PAIRS[::4] if smoke else LINEAR_PAIRS
    for n, m, k in pairs:
        ops.append(_ef_op(f"linear/{n},{m}/k={k}", _linear(n), _linear(m), k,
                          lambda n=n, m=m, k=k: _threshold(n, m, k)))
    per_kind = 1 if smoke else 8
    for k, size, big_part in ((2, 10, 5), (3, 13, 9)):
        for i in range(per_kind):
            # a shape against its reduced image: Duplicator wins, so the
            # solver searches the whole tree
            shape = _random_shape(rng, size, big_part)
            reduced = efgame.reduce_representative(ConvexLinearOrder(shape), k).shape
            ops.append(_ef_op(f"reduced/{shape}/k={k}", shape, reduced, k,
                              lambda a=shape, b=reduced, k=k: _segment_reference(a, b, k)))
            a = _random_shape(rng, size, big_part)
            b = _random_shape(rng, size, big_part)
            ops.append(_ef_op(f"pair/{a}~{b}/k={k}", a, b, k,
                              lambda a=a, b=b, k=k: _segment_reference(a, b, k)))

    def states():
        code, stdout = _cli(["states", "--k", "2", "--verify"])
        if code != 0:
            raise RuntimeError(f"limlaw states exited {code}")
        return _cli_field(stdout, "states:")

    ops.append(Op("states/k=2/verify", states,
                  lambda got: None if got == "57" else f"{got} states, expected 57"))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "shallow-limits": _shallow,
    "deep-limits": _deep,
    "sampling": _sampling,
    "ef-games": _games,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"), smoke)
