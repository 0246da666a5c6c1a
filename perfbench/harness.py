"""Timing, tracing and aggregation shared by the three workloads.

A workload runs its fixed list of operations once per *round*.  Every
operation goes through `Round.op`, which times it and counts it as
failed when it raises.  Calls into the library go through the round's
`Tracer`: disabled it is one extra Python call, enabled it adds the time,
call count and output size of each call to per-layer totals named
`<module>.<function>.<stat>`.  Only the benchmark's own calls are timed;
the library itself is not instrumented.
"""

from __future__ import annotations

import gc
import statistics
from collections import defaultdict
from time import perf_counter

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("trees_per_s", "1/s"),
    ("nodes_per_s", "1/s"),
    ("out_productions", "count"),
    ("out_nonterminals", "count"),
    ("peak_rss_mb", "MB"),
    ("max_depth_ok", "depth"),
)

TRANSFORMS = (
    "normalize", "boolean_finals", "eliminate_zero_derivations",
    "constraint_determine", "hadamard", "disjoint_union", "disambiguate",
    "complement_support", "restrict_support", "relabel",
)

PER_LAYER = (
    ("syntax.parse_grammar.s", "s"),
    ("syntax.serialize_grammar.s", "s"),
    ("syntax.parse_term.s", "s"),
    ("syntax.roundtrip.failed", "count"),
    ("trees.enumerate_trees.s", "s"),
    ("trees.enumerate_trees.items", "count"),
    ("trees.term_str.s", "s"),
    ("grammar.classify.s", "s"),
    ("grammar.eq_restriction.s", "s"),
    ("semantics.evaluate.s", "s"),
    ("semantics.evaluate.calls", "count"),
    ("semantics.state_weight.s", "s"),
    ("semantics.derivations.s", "s"),
    ("semantics.derivations.items", "count"),
) + tuple(
    (f"transforms.{name}.{stat}", unit)
    for name in TRANSFORMS
    for stat, unit in (("s", "s"), ("out_p", "count"), ("out_q", "count"))
) + (
    ("homomorphism.image_grammar.s", "s"),
    ("homomorphism.image_grammar.out_p", "count"),
    ("homomorphism.image_weight_oracle.s", "s"),
    ("pumping.pump.s", "s"),
    ("decision.is_support_empty.s", "s"),
    ("decision.finiteness_analysis.s", "s"),
    ("decision.enumerate_support.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.calls", "count"),
    ("bench.warmup_round.s", "s"),
    ("trace.overhead_s", "s"),
)

# Per-round totals that come from the round itself, not from the tracer.
_ROUND_STATS = ("syntax.roundtrip.failed",)
_RUN_STATS = ("bench.warmup_round.s", "trace.overhead_s")

MAX_WRONG = 20


# -- machine speed ------------------------------------------------------------
#
# On a shared virtual machine the speed of a vCPU changes by up to a
# factor of two within seconds, with the load of neighbouring guests, and
# repetition inside one run does not average a slow minute out.  So every
# time the benchmark reports is corrected by a fixed pure-Python probe
# (small objects, tuple hashing, dicts, recursion, string building: what
# the library spends its time on, without calling it) measured on either
# side of each round:
#
#     reported = measured * PROBE_SECONDS / probe
#
# A reported second is a second on a machine where the probe takes
# PROBE_SECONDS, which is about what it takes on an idle 2-vCPU Intel
# Xeon guest, so reported times stay close to raw ones there.  On that
# guest, over ten 30-second runs per workload with different seeds, the
# correction ranged from 0.61 to 1.16 and cut the spread (interquartile
# range over median) of the wall time from 22-27 % raw to 3-5 %.  A
# change to `wtgc` cannot move the probe, which never calls it.

PROBE_SECONDS = 0.006
PROBE_REPEATS = 5


def speed_correction(*probes: float) -> float:
    """The factor that brings a time measured next to these probe times
    to the reference speed."""
    return PROBE_SECONDS * len(probes) / sum(probes)


class _Node:
    __slots__ = ("label", "children", "key")

    def __init__(self, label, children):
        self.label = label
        self.children = children
        self.key = hash((label, tuple(c.key for c in children)))


def _grow(depth: int) -> _Node:
    if depth == 0:
        return _Node("a", ())
    if depth % 3:
        return _Node("g", (_grow(depth - 1),))
    return _Node("s", (_grow(depth - 1), _grow(depth // 2)))


def _text(node: _Node) -> str:
    if not node.children:
        return node.label
    return f"{node.label}({','.join(_text(c) for c in node.children)})"


def _probe_once() -> float:
    start = perf_counter()
    memo = {}
    for i in range(100):
        t = _grow(10 + i % 6)
        memo[(i % 40, t.key)] = _text(t)
    sorted(memo.items())
    return perf_counter() - start


def speed_probe() -> float:
    """Median time of the fixed probe: the machine's current speed."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class Tracer:
    """Per-layer totals of the benchmark's calls into the library."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.stats: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        out = fn(*args)
        self.stats[name + ".s"] += perf_counter() - start
        self.stats[name + ".calls"] += 1
        return out

    def items(self, name: str, fn, *args) -> list:
        """Call and materialize the result inside the timed region, so a
        generator is charged for the work it defers."""
        out = self.call(name, lambda: list(fn(*args)))
        if self.enabled:
            self.stats[name + ".items"] += len(out)
        return out


class Round:
    """One pass over a workload's operation list."""

    def __init__(self, traced: bool):
        self.tr = Tracer(traced)
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.wrong: list[str] = []
        self.roundtrip_failed = 0
        self.trees = 0
        self.nodes = 0
        self.out_p = 0
        self.out_q = 0
        self.wall = 0.0
        self.correction = 1.0

    def op(self, name: str, fn, *args):
        start = perf_counter()
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - the operation boundary
            self.failed += 1
            self.failures.setdefault(name, f"{type(exc).__name__}: {exc}")
        self.latencies.append(perf_counter() - start)

    def expect(self, what, got, want):
        """Record a wrong output; `what` may be a callable, so describing
        the check costs nothing while it passes."""
        if got != want and len(self.wrong) < MAX_WRONG:
            if callable(what):
                what = what()
            self.wrong.append(f"{what}: got {got!r}, expected {want!r}")

    def construct(self, name: str, fn, *args):
        """A construction call whose output size counts towards
        `out_productions` / `out_nonterminals`."""
        out = self.tr.call(name, fn, *args)
        p, q = len(out.productions), len(out.nonterminals)
        self.out_p += p
        self.out_q += q
        if self.tr.enabled:
            self.tr.stats[name + ".out_p"] += p
            self.tr.stats[name + ".out_q"] += q
        return out

    def evaluated(self, trees):
        """Count trees handed to an evaluation, and their nodes."""
        self.trees += len(trees)
        self.nodes += sum(t.size for t in trees)


def run_rounds(run_round, inputs, seconds: float, traced: bool,
               min_rounds: int, max_seconds: float) -> tuple[Round, list]:
    """A warm-up round, then rounds until `seconds` have passed (at least
    `min_rounds`, at most `max_seconds`).  Traced runs alternate untraced
    and traced rounds, so both see the same drift.  The speed probe runs
    between rounds; each round is corrected by the probes on either side
    of it."""
    speed = speed_probe()

    def one(traced_round):
        nonlocal speed
        gc.collect()
        r = Round(traced_round)
        start = perf_counter()
        run_round(inputs, r)
        r.wall = perf_counter() - start
        after = speed_probe()
        r.correction = speed_correction(speed, after)
        speed = after
        return r

    warmup = one(False)
    rounds = []
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        rounds.append(one(traced and len(rounds) % 2 == 1))
        if perf_counter() - start > max_seconds:
            break
    return warmup, rounds


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(rounds, setup_s: float, rss_mb: float, depth: int) -> dict:
    """The end-to-end metrics; times are speed-corrected."""
    latencies = [x * r.correction for r in rounds for x in r.latencies]
    walls = [r.wall * r.correction for r in rounds]
    last = rounds[-1]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * quantile(latencies, 0.9),
        "trees_per_s": statistics.median(
            r.trees / w for r, w in zip(rounds, walls)),
        "nodes_per_s": statistics.median(
            r.nodes / w for r, w in zip(rounds, walls)),
        "out_productions": last.out_p,
        "out_nonterminals": last.out_q,
        "peak_rss_mb": rss_mb,
        "max_depth_ok": depth,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(rounds, warmup: Round) -> dict:
    """The per-layer metrics: medians over the traced rounds, times
    speed-corrected, plus the tracing overhead against the untraced
    rounds of the same run."""
    traced = [r for r in rounds if r.tr.enabled]
    plain = [r for r in rounds if not r.tr.enabled]
    run = {
        "bench.warmup_round.s": warmup.wall * warmup.correction,
        "trace.overhead_s": (
            statistics.median(r.wall * r.correction for r in traced)
            - statistics.median(r.wall * r.correction for r in plain)),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in _RUN_STATS:
            value = run[name]
        elif name in _ROUND_STATS:
            value = statistics.median(r.roundtrip_failed for r in traced)
        else:
            timed = unit == "s"
            value = statistics.median(
                r.tr.stats.get(name, 0.0) * (r.correction if timed else 1)
                for r in traced)
        out[name] = {"value": value, "unit": unit}
    return out
