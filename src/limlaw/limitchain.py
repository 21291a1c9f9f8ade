"""The finite state machine of equivalence classes and its exact limit.

States are classes of the depth-k agreement relation over convex linear
orders; every state has two successors — append a new singleton class, or
grow the last class — taken with probability 1/2 each.  Walking n-1 steps
from the one-point class visits states with exactly the distribution of a
uniformly random size-n structure, so the limiting distribution of the walk
gives the asymptotic probability of any sentence of quantifier depth <= k.

Limits and estimates run on the sentence's step-automaton chain
(:func:`build_sentence_chain`), the coarsest quotient of that class chain
which still decides the sentence.  The class chain itself
(:func:`build_chain`) is built only for ``limlaw states`` and as an
independent check of the quotient.

All chain analysis is exact: probabilities are ``fractions.Fraction`` values
throughout, so the acceptance checks are equalities rather than tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import numpy as np

from .efgame import (
    BudgetExceededError,
    GameSolver,
    reduce_representative,
    shape_type_id,
)
from .stepauto import compile_sentence
from .logic import (
    Formula,
    SIGNATURES,
    batch_rows,
    ensure_sentence,
    evaluate,
    evaluate_classes,
    miniscope,
    parse,
    quantifier_depth,
    translate_to_convex,
)
from .structures import (
    BULLET,
    ConvexLinearOrder,
    as_relational,
    hat,
    oplus,
)


class PeriodicChainError(ValueError):
    """Raised when an operation requires a fully aperiodic chain."""


class InternalVerificationError(RuntimeError):
    """A built chain violated an invariant that should be impossible."""


@dataclass(frozen=True)
class ChainState:
    id: int
    representative: ConvexLinearOrder
    accepting: bool | None
    succ_plus: int
    succ_hat: int


@dataclass(frozen=True)
class Chain:
    k: int
    states: tuple[ChainState, ...]
    start: int

    def __post_init__(self) -> None:
        n = len(self.states)
        if not 0 <= self.start < n:
            raise ValueError(f"start state {self.start} out of range")
        for s in self.states:
            if not (0 <= s.succ_plus < n and 0 <= s.succ_hat < n):
                raise ValueError(f"state {s.id} has a dangling successor")

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Distribution:
    probabilities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for p in self.probabilities:
            if p < 0:
                raise ValueError(f"negative probability {p}")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def __getitem__(self, i: int) -> Fraction:
        return self.probabilities[i]

    def __len__(self) -> int:
        return len(self.probabilities)


#: Default ceiling on discovered classes before build_chain reports
#: exhaustion instead of grinding on: the class count explodes with k (57 at
#: depth 2; at depth 3 nearly every structure of size <= 16 sits in its own
#: class, so the closure is far beyond any explicit enumeration).
DEFAULT_STATE_BUDGET = 50_000


def build_chain(k: int,
                accept: Callable[[ConvexLinearOrder], bool] | None = None,
                max_states: int | None = None) -> Chain:
    """Breadth-first closure from the one-point class.

    Each discovered representative is reduced, and successors are identified
    against existing states by the segment decider's canonical type.  The
    closure is finite for every k, but its size explodes with k; when it
    exceeds the state budget the error names the last representative rather
    than guessing.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    budget = DEFAULT_STATE_BUDGET if max_states is None else max_states
    first = reduce_representative(BULLET, k)
    reps: list[ConvexLinearOrder] = [first]
    state_of_type: dict[int, int] = {shape_type_id(first.shape, k): 0}
    successors: list[tuple[int, int]] = []
    i = 0
    while i < len(reps):
        rep = reps[i]
        found: list[int] = []
        for succ in (oplus(rep, BULLET), hat(rep)):
            reduced = reduce_representative(succ, k)
            tid = shape_type_id(reduced.shape, k)
            j = state_of_type.get(tid)
            if j is None:
                j = len(reps)
                if j >= budget:
                    raise BudgetExceededError(
                        f"class closure for k={k} exceeds {budget} states "
                        f"(last new representative {reduced.shape}); the "
                        f"depth-{k} class count is out of reach of explicit "
                        f"enumeration", j)
                reps.append(reduced)
                state_of_type[tid] = j
            found.append(j)
        successors.append((found[0], found[1]))
        i += 1
    states = tuple(
        ChainState(
            id=idx,
            representative=rep,
            accepting=None if accept is None else bool(accept(rep)),
            succ_plus=successors[idx][0],
            succ_hat=successors[idx][1],
        )
        for idx, rep in enumerate(reps)
    )
    return Chain(k=k, states=states, start=0)


def _successor_sets(chain: Chain) -> list[tuple[int, ...]]:
    return [tuple(sorted({s.succ_plus, s.succ_hat})) for s in chain.states]


def _strongly_connected_components(adj: list[tuple[int, ...]]) -> list[list[int]]:
    """Iterative Tarjan; components are returned in reverse topological order."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, edge_idx = work.pop()
            if edge_idx == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for ei in range(edge_idx, len(adj[node])):
                succ = adj[node][ei]
                if index[succ] == -1:
                    work.append((node, ei + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def check_fully_aperiodic(chain: Chain) -> bool:
    """No family of disjoint state sets P_0..P_{d-1} (d > 1) exists where
    every state of P_i moves to P_{i+1 mod d} with probability 1.

    Such a family is closed under successors, so it always contains a sink
    strongly connected component carrying a consistent cyclic coloring, and
    conversely any sink component of period d > 1 yields one.  The condition
    is therefore equivalent to: every sink component has period 1 (gcd of
    its cycle lengths).  Transient components never witness periodicity —
    their leaked transitions break any probability-1 cyclic partition.
    """
    adj = _successor_sets(chain)
    comps = _strongly_connected_components(adj)
    for comp in comps:
        comp_set = set(comp)
        if any(v not in comp_set for u in comp for v in adj[u]):
            continue  # not a sink component
        if len(comp) == 1 and comp[0] not in adj[comp[0]]:
            continue
        root = comp[0]
        level = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v in comp_set and v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        period = 0
        for u in comp:
            for v in adj[u]:
                if v in comp_set:
                    period = gcd(period, level[u] + 1 - level[v])
        if abs(period) != 1:
            return False
    return True


def _solve_exact(matrix: list[list[Fraction]],
                 rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gaussian elimination over the rationals; ``rhs`` holds one column per
    right-hand side."""
    n = len(matrix)
    a = [row[:] + r[:] for row, r in zip(matrix, rhs)]
    width = len(a[0])
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise InternalVerificationError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [row[n:width] for row in a]


def limiting_distribution(chain: Chain) -> Distribution:
    """The exact limit of the n-step distribution from the start state.

    Condense to strongly connected components; every sink component is
    irreducible and (by the aperiodicity precondition) aperiodic, so it has
    a unique stationary distribution.  The limit weights each sink's
    stationary distribution by the probability of absorption into it.
    """
    if not check_fully_aperiodic(chain):
        raise PeriodicChainError("chain is not fully aperiodic")
    n = len(chain.states)
    adj = _successor_sets(chain)
    comps = _strongly_connected_components(adj)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for node in comp:
            comp_of[node] = ci
    is_sink = [all(comp_of[v] == ci for u in comp for v in adj[u])
               for ci, comp in enumerate(comps)]
    half = Fraction(1, 2)

    def weight(u: int, v: int) -> Fraction:
        s = chain.states[u]
        return half * ((s.succ_plus == v) + (s.succ_hat == v))

    stationary: dict[int, dict[int, Fraction]] = {}
    for ci, comp in enumerate(comps):
        if not is_sink[ci]:
            continue
        m = len(comp)
        pos = {node: idx for idx, node in enumerate(comp)}
        rows = []
        rhs = []
        for j in range(m - 1):
            target = comp[j]
            row = [weight(comp[i], target) - (1 if i == j else 0)
                   for i in range(m)]
            rows.append(row)
            rhs.append([Fraction(0)])
        rows.append([Fraction(1)] * m)
        rhs.append([Fraction(1)])
        solution = _solve_exact(rows, rhs)
        stationary[ci] = {node: solution[pos[node]][0] for node in comp}

    sink_ids = [ci for ci in range(len(comps)) if is_sink[ci]]
    start_comp = comp_of[chain.start]
    absorb: dict[int, Fraction] = {ci: Fraction(0) for ci in sink_ids}
    if is_sink[start_comp]:
        absorb[start_comp] = Fraction(1)
    else:
        transient = [u for u in range(n) if not is_sink[comp_of[u]]]
        t_pos = {u: idx for idx, u in enumerate(transient)}
        rows = []
        rhs = []
        for u in transient:
            row = [Fraction(0)] * len(transient)
            row[t_pos[u]] = Fraction(1)
            hit = [Fraction(0)] * len(sink_ids)
            for v in set(adj[u]):
                w = weight(u, v)
                if v in t_pos:
                    row[t_pos[v]] -= w
                else:
                    hit[sink_ids.index(comp_of[v])] += w
            rows.append(row)
            rhs.append(hit)
        solution = _solve_exact(rows, rhs)
        for si, ci in enumerate(sink_ids):
            absorb[ci] = solution[t_pos[chain.start]][si]
    if sum(absorb.values()) != 1:
        raise InternalVerificationError(
            f"absorption probabilities sum to {sum(absorb.values())}")

    probs = [Fraction(0)] * n
    for ci in sink_ids:
        for node, mass in stationary[ci].items():
            probs[node] = absorb[ci] * mass
    return Distribution(tuple(probs))


def distribution_after(chain: Chain, steps: int) -> Distribution:
    """Exact distribution after the given number of steps from the start."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = len(chain.states)
    plus = [s.succ_plus for s in chain.states]
    grow = [s.succ_hat for s in chain.states]
    nums = [0] * n
    nums[chain.start] = 1
    for _ in range(steps):
        nxt = [0] * n
        for i, v in enumerate(nums):
            if v:
                nxt[plus[i]] += v
                nxt[grow[i]] += v
        nums = nxt
    denom = 1 << steps
    return Distribution(tuple(Fraction(v, denom) for v in nums))


def build_sentence_chain(translated: Formula) -> Chain:
    """Chain of the sentence's step automaton (states: acceptance-equivalent
    construction prefixes).

    This is the coarsest quotient of the class chain that still decides the
    sentence: equivalent prefixes stay equivalent under both constructors,
    so they agree on the sentence after every suffix, and the quotient
    preserves both full aperiodicity and the limiting accepting mass.  It
    stays small for sentences whose class chain is far too large to build.

    The automaton is compiled from the :func:`miniscope` of ``translated``,
    which compiles to the same automaton with narrower intermediate ones.
    Each state carries the first structure reaching it, and the automaton's
    acceptance bit is re-checked by the model checker on that
    representative: on ``translated`` itself, so that the check shares no
    rewrite with the compiler, and on the miniscoped form when
    :func:`evaluate` refuses ``translated`` as too wide.
    """
    scoped = miniscope(translated)
    auto = compile_sentence(scoped)
    reps: list[ConvexLinearOrder | None] = [None] * auto.n_states
    reps[auto.start] = BULLET
    order = [auto.start]
    for q in order:
        rep = reps[q]
        for succ_state, make in ((auto.step_new[q], lambda c: oplus(c, BULLET)),
                                 (auto.step_grow[q], hat)):
            if reps[succ_state] is None:
                reps[succ_state] = make(rep)
                order.append(succ_state)
    states = []
    for q in range(auto.n_states):
        rep = reps[q]
        if rep is None:
            raise InternalVerificationError(
                f"automaton state {q} unreachable by construction steps")
        view = as_relational("convex", rep.shape)
        try:
            checked = evaluate(view, translated)
        except BudgetExceededError:
            checked = evaluate(view, scoped)
        if checked != auto.accepting[q]:
            raise InternalVerificationError(
                f"automaton acceptance disagrees with the model checker on "
                f"{rep.shape}: automaton={auto.accepting[q]} checker={checked}")
        states.append(ChainState(
            id=q,
            representative=rep,
            accepting=auto.accepting[q],
            succ_plus=auto.step_new[q],
            succ_hat=auto.step_grow[q],
        ))
    return Chain(k=quantifier_depth(translated), states=tuple(states),
                 start=auto.start)


# --- sentence-level interface --------------------------------------------------


@dataclass(frozen=True)
class LimitAnalysis:
    theory: str
    sentence: Formula
    translated: Formula
    k: int
    chain: Chain
    distribution: Distribution
    probability: Fraction


def _coerce_sentence(theory: str, sentence) -> Formula:
    if theory not in SIGNATURES:
        raise ValueError(f"unknown theory {theory!r}")
    if isinstance(sentence, str):
        sentence = parse(sentence, SIGNATURES[theory])
    ensure_sentence(sentence)
    return sentence


def prepare_chain(theory: str, sentence) -> tuple[Formula, Formula, Chain]:
    """Translate and build the sentence's step-automaton chain, whose ``k``
    is the quantifier depth of the translated sentence."""
    sentence = _coerce_sentence(theory, sentence)
    translated = translate_to_convex(theory, sentence)
    return sentence, translated, build_sentence_chain(translated)


def analyze_limit(theory: str, sentence) -> LimitAnalysis:
    """Exact limiting probability of the sentence, with the chain evidence.

    Raises ``PeriodicChainError`` if the chain is not fully aperiodic.
    """
    sentence, translated, chain = prepare_chain(theory, sentence)
    dist = limiting_distribution(chain)
    probability = sum((dist[s.id] for s in chain.states if s.accepting),
                      Fraction(0))
    return LimitAnalysis(theory, sentence, translated, chain.k, chain, dist,
                         probability)


def limit_probability(theory: str, sentence) -> Fraction:
    """The asymptotic probability that a uniformly random size-n structure
    of the theory satisfies the sentence."""
    return analyze_limit(theory, sentence).probability


# --- sampling ------------------------------------------------------------------

_WILSON_Z99 = 2.5758293035489004
_CHUNK = 4096
#: step bytes drawn per sample in the first slice (8 steps each); each
#: later slice doubles, up to ``_SLICE_BYTES``.  Both are multiples of 4,
#: so every slice but the last draws whole 4-byte words of the stream
_FIRST_SLICE_BYTES = 4
_SLICE_BYTES = 128


@dataclass(frozen=True)
class EstimateResult:
    estimate: Fraction
    half_width: float
    hits: int
    samples: int


def _wilson_half_width(hits: int, samples: int, z: float = _WILSON_Z99) -> float:
    phat = hits / samples
    denom = 1.0 + z * z / samples
    return (z / denom) * math.sqrt(
        phat * (1.0 - phat) / samples + z * z / (4.0 * samples * samples))


def _step_bytes(seed: int, chunk_index: int, size: int, n: int):
    """Yield the chunk's random construction steps as packed bytes: one row
    of ``size`` bytes (one per sample) per 8 steps, ``ceil((n - 1) / 8)``
    rows in all.  Step ``t`` of sample ``i`` is bit ``t % 8`` (least
    significant first) of byte ``i`` of row ``t // 8``; 1 grows the last
    class.

    Each chunk has its own generator, derived from the seed and the chunk
    index.  Rows are drawn in step-major slices, so a row is contiguous:
    ``_FIRST_SLICE_BYTES`` rows first, then twice as many each time up to
    ``_SLICE_BYTES``, so a walk that stops early draws little and memory
    stays O(size * _SLICE_BYTES) at any n.

    ``Generator.bytes`` is the little-endian bytes of uint32 words from
    ``Generator.integers``, so the slices draw those words directly, which
    spares its copies.  Every slice but the last is a whole number of
    words, so the rows are the bytes of one ``rng.bytes`` draw of the
    whole chunk, whatever the slicing.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.PCG64(seq))
    rows = (n - 1 + 7) // 8
    start, width = 0, _FIRST_SLICE_BYTES
    while start < rows:
        width = min(width, rows - start)
        words = rng.integers(0, 1 << 32, size=(width * size + 3) // 4,
                             dtype=np.uint32)
        block = words.astype("<u4", copy=False).view(np.uint8)
        yield from block[:width * size].reshape(width, size)
        start += width
        width = min(2 * width, _SLICE_BYTES)


def _packed_steps(seed: int, chunk_index: int, size: int, n: int
                  ) -> np.ndarray:
    """The same bytes in one array, ``ceil((n - 1) / 8)`` rows of ``size``."""
    packed = np.empty(((n - 1 + 7) // 8, size), dtype=np.uint8)
    for t, row in enumerate(_step_bytes(seed, chunk_index, size, n)):
        packed[t] = row
    return packed


def _unpacked(packed: np.ndarray, n: int) -> np.ndarray:
    """Packed step bytes unpacked, one row of ``n - 1`` bits per sample."""
    return np.unpackbits(packed.T, axis=1, count=n - 1, bitorder="little")


def _step_bits(seed: int, chunk_index: int, size: int, n: int) -> np.ndarray:
    """The chunk's steps unpacked, one row of ``n - 1`` bits per sample."""
    return _unpacked(_packed_steps(seed, chunk_index, size, n), n)


def _class_rows(bits: np.ndarray) -> np.ndarray:
    """The ``cls_of`` row of the shape each row of step bits builds (as
    :func:`~limlaw.structures.shape_from_bits` does): point 1 is in class
    0, and point ``p + 1`` in class "0-bits among the first ``p`` steps",
    since a 0 starts a new class.  Column 0 is unused."""
    classes = np.zeros((len(bits), bits.shape[1] + 2), dtype=np.intp)
    np.cumsum(bits == 0, axis=1, out=classes[:, 2:])
    return classes


@dataclass(frozen=True)
class _WalkTables:
    """The walk's step tables over the chain renumbered with its absorbing
    states (both successors itself) first, so "every sample sits in a sink"
    is ``state.max() < sinks << 8``.

    Entry ``256*s + b`` of ``full`` is ``256 * t``, where ``t`` is the state
    reached from ``s`` by byte ``b``'s 8 steps, least significant first;
    ``tail`` takes only the last ``(n - 1) % 8`` steps.  ``chain_ids[s]``
    is the chain's id of walk state ``s``."""
    full: np.ndarray
    tail: np.ndarray
    start: int
    sinks: int
    chain_ids: np.ndarray


def _walk_tables(chain: Chain, n: int) -> _WalkTables:
    """The tables of a walk of ``n - 1`` steps through the chain."""
    absorbing = [s.succ_plus == s.succ_hat == s.id for s in chain.states]
    chain_ids = np.array(
        sorted(range(len(chain)), key=lambda q: not absorbing[q]),
        dtype=np.intp)
    walk_id = np.empty_like(chain_ids)
    walk_id[chain_ids] = np.arange(len(chain))
    trans = walk_id[np.array(
        [[chain.states[q].succ_plus for q in chain_ids],
         [chain.states[q].succ_hat for q in chain_ids]], dtype=np.intp)]
    byte = np.arange(256)[:, None]

    def table(width: int) -> np.ndarray:
        moved = np.broadcast_to(np.arange(len(chain)), (256, len(chain)))
        for b in range(width):
            moved = trans[(byte >> b) & 1, moved]
        return (moved.T << 8).ravel()

    return _WalkTables(table(8), table((n - 1) % 8), int(walk_id[chain.start]),
                       sum(absorbing), chain_ids)


def _walk_chunk(tables: _WalkTables, seed: int, chunk_index: int, size: int,
                n: int) -> np.ndarray:
    """Final chain state of each sample of the chunk, one gather per byte.

    A sink never moves, so the walk stops drawing as soon as every sample
    sits in one: at once if the start is a sink, else when a check after
    rows 1, 2, 4 and 8, and after every 8th row from then on, finds them
    all there; a chain without a sink is never checked.  The states
    returned are exact either way."""
    full, tail = tables.full, tables.tail
    full_rows = (n - 1) // 8
    settled = tables.sinks << 8
    state = np.full(size, tables.start << 8, dtype=np.intp)
    if tables.start >= tables.sinks:
        index = np.empty(size, dtype=np.intp)
        check = 1 if tables.sinks else 0  # the next row checked; 0: none
        for t, row in enumerate(_step_bytes(seed, chunk_index, size, n), 1):
            np.add(state, row, out=index)
            np.take(full if t <= full_rows else tail, index, out=state)
            if t == check:
                if state.max() < settled:
                    break
                check = 2 * t if t < 8 else t + 8
    return tables.chain_ids[state >> 8]


def _check_counts(n: int, samples: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")


def _result(hits: int, samples: int) -> EstimateResult:
    return EstimateResult(
        estimate=Fraction(hits, samples),
        half_width=_wilson_half_width(hits, samples),
        hits=hits,
        samples=samples,
    )


def walk_estimate(chain: Chain, n: int, samples: int, seed: int
                  ) -> EstimateResult:
    """Monte Carlo estimate of the chain's accepting mass after the n-1
    construction steps of a size-n structure: each sample's steps run
    through the chain, one table lookup per 8 steps, and satisfaction is
    read off the final state's label.  A chunk stops drawing steps once
    all its samples sit in absorbing states, so the hits are those of the
    full walk at a cost that follows the chain's absorption, not n."""
    _check_counts(n, samples)
    tables = _walk_tables(chain, n)
    accepting = np.array([bool(s.accepting) for s in chain.states])
    hits = 0
    for idx, start in enumerate(range(0, samples, _CHUNK)):
        size = min(_CHUNK, samples - start)
        states = _walk_chunk(tables, seed, idx, size, n)
        hits += int(accepting[states].sum())
    return _result(hits, samples)


def estimate_probability(theory: str, sentence, n: int, samples: int,
                         seed: int, *, method: str = "walk") -> EstimateResult:
    """Monte Carlo estimate with a 99% Wilson half-width.

    Draws uniform size-n structures as independent fair construction steps,
    packed 8 to a byte (one generator per chunk of ``_CHUNK`` samples,
    derived from the seed and the chunk index, so the result is
    deterministic).

    ``method="walk"`` builds the sentence's chain and runs ``walk_estimate``
    on it — exact for every sample, and fast enough for large n.
    ``method="direct"`` builds no chain: it unpacks the same bytes in the
    same bit order, decodes each sample's class row from its bits and model
    checks the samples with :func:`evaluate_classes`, as many at once as
    :func:`batch_rows` allows; both methods decide the same satisfaction
    bit per sample.  A sentence too wide for the evaluator at size ``n``
    raises :class:`BudgetExceededError` before any step is drawn.
    """
    _check_counts(n, samples)
    if method == "walk":
        return walk_estimate(prepare_chain(theory, sentence)[2], n, samples,
                             seed)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    sentence = _coerce_sentence(theory, sentence)
    rows = batch_rows(theory, sentence, n)
    hits = 0
    for idx, start in enumerate(range(0, samples, _CHUNK)):
        size = min(_CHUNK, samples - start)
        packed = _packed_steps(seed, idx, size, n)
        for lo in range(0, size, rows):
            classes = _class_rows(_unpacked(packed[:, lo:lo + rows], n))
            hits += int(evaluate_classes(theory, classes, sentence).sum())
    return _result(hits, samples)


# --- verification and export ----------------------------------------------------


def verify_chain_states(chain: Chain, solver: GameSolver | None = None) -> None:
    """Re-check with the game solver that no two representatives are
    equivalent at the chain's depth; raises naming the first two states of
    a group that is not told apart.

    Two structures are k-equivalent iff their depth-k game types are equal,
    so each representative is typed on its own side by
    :meth:`GameSolver.type_id`, not played against every other one.  The
    states are refined depth by depth: all of them start in one group, and
    at r = 2..k each group is split by depth-r type and its singletons
    dropped.  States told apart at r < k are inequivalent at k too, so they
    are never typed deeper; most states fall apart at shallow depths, where
    types are cheap, which makes this far cheaper than typing every state
    at depth k.  The types read only the solver's pair codes, never the
    segment decider that built the chain.
    """
    s = solver if solver is not None else GameSolver()
    views = [as_relational("convex", st.representative.shape)
             for st in chain.states]
    groups = [list(range(len(views)))] if len(views) > 1 else []
    # every point of a nonempty convex linear order has the same one-point
    # type, so all of them share one depth-1 type: r = 1 never splits a group
    for r in range(2, chain.k + 1):
        refined = []
        for group in groups:
            by_type: dict[int, list[int]] = {}
            for i in group:
                by_type.setdefault(s.type_id(views[i], r), []).append(i)
            refined.extend(g for g in by_type.values() if len(g) > 1)
        groups = refined
    if groups:
        i, j = groups[0][:2]
        raise InternalVerificationError(
            f"states {i} ({views[i].shape}) and {j} ({views[j].shape}) "
            f"are equivalent at depth {chain.k}")


def chain_to_json(chain: Chain, distribution: Distribution | None = None
                  ) -> dict:
    """JSON document of the chain and its limiting distribution, which is
    solved here unless the caller already has it."""
    doc: dict = {
        "k": chain.k,
        "start": chain.start,
        "states": [
            {
                "id": s.id,
                "representative": str(s.representative.shape),
                "accepting": s.accepting,
                "succ_plus": s.succ_plus,
                "succ_hat": s.succ_hat,
            }
            for s in chain.states
        ],
    }
    if distribution is None:
        distribution = limiting_distribution(chain)
    doc["limit"] = [f"{p.numerator}/{p.denominator}"
                    for p in distribution.probabilities]
    doc["limit_approx"] = [float(p) for p in distribution.probabilities]
    return doc


def chain_to_dot(chain: Chain) -> str:
    lines = ["digraph chain {", "  rankdir=LR;"]
    for s in chain.states:
        acc = " [acc]" if s.accepting else ""
        lines.append(f'  {s.id} [label="{s.id}: {s.representative.shape}{acc}"];')
    for s in chain.states:
        lines.append(f'  {s.id} -> {s.succ_plus} [label="⊕• 1/2"];')
        lines.append(f'  {s.id} -> {s.succ_hat} [label="^ 1/2"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
