"""The benchmark's workloads: what one pass computes and how it is checked.

Each workload has a set-up step (everything a fresh interpreter does before
the first answer can be computed) and a pass made of items.  Every item
checks its own output; a failed check or a raised exception marks the item
failed and records the differing data.

Workloads
---------
linear-a3
    ``enumerate_bounded(An-linear:3, chain:poly:2:3, caps (3,4,5),
    mono_only=True)``.  The submodule-chain fast path, where the iso
    classifier and the indecomposability test dominate.  One pass is one item.
generic-zigzag
    ``enumerate_bounded(A4-zigzag, chain:poly:2:2, caps (2,2,2,2),
    mono_only=True)``.  The generic product-of-hom-spaces path, dominated by
    the mono test; it bypasses the orbit/iso engine.  One pass is one item.
approx-battery
    35 seeded random representations in each of three configurations, each
    taken through io, mimo, decompose, transfer round trips and the stable
    reduction.  One item per representation.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Dict, List, Optional, Tuple

from monocat import io as mio
from monocat.base import chain_base
from monocat.decompose import decompose
from monocat.enumerate import enumerate_bounded
from monocat.mimo import (
    injective_rep_recognize,
    mimo,
    mimo_from_stable,
    stable_reduce,
    strip_injective_summands,
    transfer,
)
from monocat.quiver import builtin_quiver
from monocat.rep import is_iso_reps, is_mono, random_representation
from monocat.suites import _match_classes

# The 22 reference vectors of a3_loewy3_length_vectors.json within the caps,
# plus the four known extras 022, 033, 133 and 233, which must stay visible.
LINEAR_A3_VECTORS = (
    "001 002 003 011 012 013 022 023 024 033 111 112 113 122 123 124 133 135 "
    "222 223 224 233 234 244 245 333"
).split()

# approx-battery: (input base, quiver, transfer partner base)
BATTERY_CONFIGS = (
    ("chain:poly:2:3", "An-linear:3", "chain:int:2:3"),
    ("chain:int:2:3", "A4-zigzag", "chain:poly:2:3"),
    ("chain:poly:3:2", "D4", "chain:int:3:2"),
)
BATTERY_ITEMS_PER_CONFIG = 35
# Each config's items are picked from this many times as many seeded draws,
# one at each quantile of total length (see battery_inputs).
BATTERY_DRAWS_PER_ITEM = 8
# A run cycles its passes through this many input sets drawn from its seed:
# which representations a set holds still moves its percentiles by 5-15%
# from seed to seed, so a run pools several sets.
BATTERY_INPUT_SETS = 4


def parse_base(text: str):
    _, arith, p, n = text.split(":")
    return chain_base(arith, int(p), int(n))


def _vector(rep) -> str:
    return "".join(str(rep.modules[v].length()) for v in rep.quiver.vertices)


def _load_data(name: str) -> dict:
    return json.loads(resources.files("monocat").joinpath("data", name).read_text())


@dataclass
class Item:
    """One unit of checked work: run() returns a list of failure messages."""

    label: str
    run: Callable[[], List[str]]


@dataclass
class Workload:
    """setup(inputs) builds a pass's items; make_inputs(seed, k) draws input
    set k, one of ``input_sets`` that a run's passes cycle through."""

    setup: Callable[[Optional[list]], List[Item]]
    make_inputs: Optional[Callable[[int, int], list]] = None
    input_sets: int = 1


# -- enumeration sweeps ------------------------------------------------------------------


@dataclass
class SweepSpec:
    """A bounded monic sweep and its expected answer: one class at each of
    ``expected_vectors`` (reported against the length-vector table in
    ``reference``), or, without them, ``expected_count`` classes matching
    distinct members of the class list in ``reference``."""

    quiver: str
    base: str
    caps: Tuple[int, ...]
    reference: str
    expected_count: int = 0
    expected_vectors: Tuple[str, ...] = ()


LINEAR_A3 = SweepSpec("An-linear:3", "chain:poly:2:3", (3, 4, 5),
                      "a3_loewy3_length_vectors.json", expected_vectors=tuple(LINEAR_A3_VECTORS))
GENERIC_ZIGZAG = SweepSpec("A4-zigzag", "chain:poly:2:2", (2, 2, 2, 2),
                           "a4_zigzag_rad2_classes.json", expected_count=12)


def check_vectors(vectors: List[str], expected: Tuple[str, ...], table: List[str]) -> List[str]:
    """Exactly one class at each expected length vector."""
    missing = Counter(expected) - Counter(vectors)
    surplus = Counter(vectors) - Counter(expected)
    if not missing and not surplus:
        return []
    outside = sorted(set(vectors) - set(table))
    return [f"{len(vectors)} classes, expected {len(expected)}; "
            f"missing {sorted(missing.elements())}; surplus {sorted(surplus.elements())}; "
            f"outside the reference table {outside}"]


def check_reference(classes, reference, expected_count: int) -> List[str]:
    """expected_count classes, each isomorphic to a distinct reference member."""
    failures = []
    if len(classes) != expected_count:
        failures.append(f"{len(classes)} classes, expected {expected_count}: "
                        f"{sorted(_vector(r) for r in classes)}")
    unmatched, _ = _match_classes(classes, reference)
    if unmatched:
        failures.append(f"{len(unmatched)} computed classes match no reference class: "
                        f"{[repr(r) for r in unmatched]}")
    return failures


def sweep_setup(spec: SweepSpec) -> List[Item]:
    quiver = builtin_quiver(spec.quiver)
    base = parse_base(spec.base)
    data = _load_data(spec.reference)
    if spec.expected_vectors:
        table = ["".join(map(str, v)) for v in data["vectors"]]

        def checker(classes):
            return check_vectors([_vector(r) for r in classes], spec.expected_vectors, table)
    else:
        reference = [mio.representation_from_json(d, base=base, quiver=quiver)
                     for d in data["injective"] + data["non_injective"]]

        def checker(classes):
            return check_reference(classes, reference, spec.expected_count)

    def run_sweep() -> List[str]:
        report = enumerate_bounded(quiver, base, spec.caps, mono_only=True)
        return checker([r for r, _ in report.classes])

    return [Item(f"{spec.quiver} {spec.base} caps {spec.caps}", run_sweep)]


# -- approximation battery ---------------------------------------------------------------


def battery_inputs(seed: int, input_set: int) -> list:
    """JSON documents of one pass: 35 random representations per config.

    An item's cost follows the number of serial summands and the total
    length of its representation, so 35 plain draws give percentiles that
    move by 10-20% from seed to seed.  Instead, BATTERY_DRAWS_PER_ITEM * 35
    representations are drawn from random.Random seeded by (seed, input set,
    config), ordered by that size, and the one at the middle of each of 35
    equal rank slices is kept: every seed gives the same spread of sizes and
    different representations."""
    docs = []
    draws = BATTERY_DRAWS_PER_ITEM * BATTERY_ITEMS_PER_CONFIG
    for ci, (base_text, quiver_name, _) in enumerate(BATTERY_CONFIGS):
        base = parse_base(base_text)
        quiver = builtin_quiver(quiver_name)
        rng = random.Random(f"approx-battery:{seed}:{input_set}:{ci}")
        reps = [random_representation(base, quiver, rng) for _ in range(draws)]
        ranked = sorted(range(draws), key=lambda k: (_size(reps[k]), k))
        for j in range(BATTERY_ITEMS_PER_CONFIG):
            r = reps[ranked[j * BATTERY_DRAWS_PER_ITEM + BATTERY_DRAWS_PER_ITEM // 2]]
            docs.append({"config": ci, "representation": mio.representation_to_json(r)})
    return docs


def _size(rep) -> Tuple[int, int]:
    modules = rep.modules.values()
    return sum(len(m.parts) for m in modules), sum(m.length() for m in modules)


def battery_item(rep, partner) -> List[str]:
    """The five checked steps on one representation."""
    return [f"{problem}; input {rep!r}" for problem in _battery_steps(rep, partner)]


def _battery_steps(rep, partner) -> List[str]:
    failures = []
    doc = json.loads(json.dumps(mio.representation_to_json(rep)))
    back = mio.representation_from_json(doc)
    if back != rep:
        return ["io round trip changed the representation"]
    m, _ = mimo(back)
    if not is_mono(m):
        return ["mimo result is not monic"]
    factors = decompose(m)
    certificates = [c for _, _, c in factors]
    if any(c != "exhaustive" for c in certificates):
        failures.append(f"decompose certificates {certificates}")
    for factor, _, _ in factors:
        if injective_rep_recognize(factor) is not None:
            continue
        round_trip = transfer(transfer(factor, partner), rep.base)
        if not is_iso_reps(round_trip, factor):
            failures.append(f"transfer round trip not isomorphic to factor {factor!r}")
    stripped, _ = strip_injective_summands(m)
    if not is_iso_reps(mimo_from_stable(stable_reduce(m)), mimo(stripped)[0]):
        failures.append("mimo_from_stable(stable_reduce(m)) not isomorphic to mimo(strip(m))")
    return failures


def battery_setup(docs: list) -> List[Item]:
    partners = [parse_base(p) for _, _, p in BATTERY_CONFIGS]
    bases = [parse_base(b) for b, _, _ in BATTERY_CONFIGS]
    quivers = [builtin_quiver(q) for _, q, _ in BATTERY_CONFIGS]
    items = []
    for k, doc in enumerate(docs):
        ci = doc["config"]
        rep = mio.representation_from_json(doc["representation"], base=bases[ci], quiver=quivers[ci])
        items.append(Item(f"{BATTERY_CONFIGS[ci][1]} over {BATTERY_CONFIGS[ci][0]} item {k}",
                          lambda rep=rep, partner=partners[ci]: battery_item(rep, partner)))
    return items


WORKLOADS: Dict[str, Workload] = {
    "linear-a3": Workload(lambda _: sweep_setup(LINEAR_A3)),
    "generic-zigzag": Workload(lambda _: sweep_setup(GENERIC_ZIGZAG)),
    "approx-battery": Workload(battery_setup, battery_inputs, BATTERY_INPUT_SETS),
}


def run_items(items: List[Item], tracer=None,
              clock: Callable[[], float] = time.perf_counter) -> Tuple[List[float], List[str]]:
    """Run items in order, closed loop.  Returns (per-item seconds by
    ``clock``, one failure line per failed item)."""
    seconds, failures = [], []
    for k, item in enumerate(items):
        span = tracer.begin_item(k) if tracer else None
        t0 = clock()
        try:
            problems = item.run()
        except Exception as exc:  # BudgetExceeded and any other error fail the item
            problems = [f"{type(exc).__name__}: {exc}"]
        seconds.append(clock() - t0)
        if tracer:
            tracer.close(span)
        if problems:
            failures.append(f"{item.label}: " + " | ".join(problems))
    return seconds, failures
