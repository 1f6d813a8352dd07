"""Seeded, stdlib-only input generator for the causalrag benchmark.

One call writes every input a workload needs into one directory:

- ``triples.tsv``: SemMedDB-style predication rows with hub-skewed degrees,
  the default causality table's predicate mix, a share of explicit
  strengths, case-variant aliases and natural duplicate rows.
- ``dataset.jsonl``: multiple-choice items in the ``causalrag evaluate``
  format.
- ``replies.jsonl``: the canned reply per item and stage, with the item's
  question (the content-keyed fake transport looks replies up by it).
- ``transcript.jsonl``: the same replies as an ordinal-keyed mock
  transcript in dataset order (read by ``MockTranscript.load``).
- ``expected.json``: per item, the expected prediction and the linked
  entities of every chain-of-thought segment.
- ``updates.tsv``: strength-update batches, separated by ``# batch N``
  comment lines, in the format ``parse_strength_updates`` reads.
- ``workload.json``: the workload spec and seed.

Chains of thought are causal-view walks, so retrieval finds real paths.
The generator decides causal-view membership, reachability and the expected
answers with its own model of the graph; it never imports the program. The
same workload and seed always give byte-identical files.

Usage: python3 perfbench/generate.py --workload cot-retrieval --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

# Mirror of the program's default causality table, kept here on purpose:
# the generator predicts view membership independently of the code it checks.
CAUSALITY_WEIGHTS = {
    "CAUSES": 0.9,
    "PREDISPOSES": 0.8,
    "PREVENTS": 0.8,
    "TREATS": 0.7,
    "MANIFESTATION_OF": 0.7,
    "AFFECTS": 0.6,
    "ASSOCIATED_WITH": 0.2,
    "COEXISTS_WITH": 0.15,
}
UNLISTED_WEIGHT = 0.05
THETA = 0.5
MAX_HOPS = 3

# Predicate mix (relative frequency): the default table's labels plus three
# unlisted ones, about half of all edges clearing theta.
PREDICATE_MIX = (
    ("CAUSES", 12),
    ("PREDISPOSES", 5),
    ("PREVENTS", 5),
    ("TREATS", 14),
    ("MANIFESTATION_OF", 4),
    ("AFFECTS", 10),
    ("ASSOCIATED_WITH", 16),
    ("COEXISTS_WITH", 12),
    ("INTERACTS_WITH", 9),
    ("ISA", 8),
    ("LOCATION_OF", 5),
)
SEMTYPES = ("dsyn", "neop", "inbe", "phsu", "gngm", "sosy", "patf", "orgf", "aapp", "bacs", "cell", "fndg")
SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "be", "do", "fu", "ga", "pe", "so", "xa", "ye", "tor", "vin", "quel", "dra")
LABELS = ("A", "B", "C", "D")
HEADER = (
    "subject_cui\tsubject_name\tsubject_semtypes\tpredicate\t"
    "object_cui\tobject_name\tobject_semtypes\tstrength"
)

ENTITY_SEGMENTS = (
    "{0} is elevated",
    "sustained {0} activity",
    "this drives {0}",
    "which in turn triggers {0}",
    "leading to {0}",
    "so {0} follows",
)
PAIR_SEGMENT = "{0} together with {1}"
EMPTY_SEGMENTS = (
    "the underlying process continues",
    "symptoms worsen over time",
    "the condition progresses unchecked",
)
NO_LABEL_REPLY = "The evidence is inconclusive for this case."


@dataclass(frozen=True)
class Spec:
    """Sizes, shares and run-time settings of one workload."""

    nodes: int
    edges: int
    out_skew: float
    in_skew: float
    items: int
    min_segments: int
    max_segments: int
    fallback_share: float
    no_entity_share: float
    unmapped_share: float
    two_entity_share: float
    batches: int
    batch_size: int
    # run-time settings, read by the benchmark
    transport: str  # "mock" (ordinal transcript) or "fake" (content-keyed)
    workers: int
    chunk: int  # items per run_evaluation call
    step_s: float  # nominal seconds per step (one chunk, after a revision if any); sizes a pass
    latency_s: float = 0.0
    transient_share: float = 0.0
    items_per_revision: int = 0  # > 0: revisions alternate with item batches


WORKLOADS = {
    "cot-retrieval": Spec(
        nodes=10_000, edges=40_000, out_skew=0.5, in_skew=0.8, items=3000,
        min_segments=4, max_segments=5, fallback_share=0.12, no_entity_share=0.06,
        unmapped_share=0.05, two_entity_share=0.1, batches=40, batch_size=200,
        transport="mock", workers=1, chunk=5, step_s=0.038,
    ),
    "llm-latency": Spec(
        nodes=4_000, edges=16_000, out_skew=0.5, in_skew=0.5, items=1500,
        min_segments=3, max_segments=3, fallback_share=0.0, no_entity_share=0.05,
        unmapped_share=0.05, two_entity_share=0.0, batches=40, batch_size=100,
        transport="fake", workers=2, chunk=40, step_s=1.25, latency_s=0.015, transient_share=0.05,
    ),
    "view-updates": Spec(
        nodes=10_000, edges=40_000, out_skew=0.5, in_skew=0.8, items=1900,
        min_segments=3, max_segments=3, fallback_share=0.0, no_entity_share=0.0,
        unmapped_share=0.0, two_entity_share=0.0, batches=480, batch_size=200,
        transport="fake", workers=1, chunk=4, step_s=0.05, items_per_revision=4,
    ),
}


def causality_weight(predicate: str) -> float:
    return CAUSALITY_WEIGHTS.get(predicate, UNLISTED_WEIGHT)


class Graph:
    """The generator's own model of the triple file and its causal view."""

    def __init__(self, n: int):
        self.n = n
        self.cuis = [f"C{i:07d}" for i in range(n)]
        self.names: list[str] = []
        self.semtypes: list[str] = []
        self.edges: list[tuple[int, str, int, str]] = []  # subject, predicate, object, strength field
        self.member: list[bool] = []
        self.causal_out: list[list[int]] = [[] for _ in range(n)]
        self.base_out: list[list[tuple[int, bool]]] = [[] for _ in range(n)]

    def add_edge(self, s: int, p: str, o: int, strength: str) -> None:
        effective = float(strength) if strength else causality_weight(p)
        is_member = causality_weight(p) >= THETA and effective >= THETA
        self.edges.append((s, p, o, strength))
        self.member.append(is_member)
        self.base_out[s].append((o, is_member))
        if is_member:
            self.causal_out[s].append(o)

    def member_nodes(self) -> set[int]:
        nodes: set[int] = set()
        for (s, _, o, _), is_member in zip(self.edges, self.member):
            if is_member:
                nodes.add(s)
                nodes.add(o)
        return nodes

    def causal_reach(self, start: int, max_hops: int = MAX_HOPS) -> set[int]:
        """Nodes reachable from ``start`` in 1..max_hops causal hops."""
        seen = {start}
        frontier = [start]
        reached: set[int] = set()
        for _ in range(max_hops):
            nxt = []
            for node in frontier:
                for target in self.causal_out[node]:
                    reached.add(target)
                    if target not in seen:
                        seen.add(target)
                        nxt.append(target)
            frontier = nxt
        return reached


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()


def _stratified(rng: random.Random, population, cum_weights: list[float], k: int) -> list:
    """``k`` draws in proportion to the weights, in random order.

    Systematic sampling: each member is drawn the floor or the ceiling of
    its expected count, so hub degrees, and with them the search cost of
    the graph, vary little from seed to seed.
    """
    total = cum_weights[-1]
    offset = rng.random()
    picks = [population[bisect.bisect_right(cum_weights, (offset + i) * total / k)] for i in range(k)]
    rng.shuffle(picks)
    return picks


def _by_subject(rng: random.Random, subjects: list[int], population, cum_weights: list[float]) -> list:
    """A draw per edge slot, stratified within each subject's slots.

    Used for objects and predicates: how many edges a hub sends to each
    other hub, and how many of its edges are causal, then stay close to
    their expected counts. Those counts drive the cost of every search
    through the hub, so the graph's search cost varies little from seed
    to seed.
    """
    slots: dict[int, list[int]] = {}
    for i, subject in enumerate(subjects):
        slots.setdefault(subject, []).append(i)
    picks = [None] * len(subjects)
    for indices in slots.values():
        for i, pick in zip(indices, _stratified(rng, population, cum_weights, len(indices))):
            picks[i] = pick
    return picks


def make_graph(rng: random.Random, spec: Spec) -> Graph:
    """Chung-Lu style multigraph: endpoint odds fall off as rank ** -skew."""
    g = Graph(spec.nodes)
    # Two-token names ("Word 123") never collide with single filler words.
    g.names = [f"{_word(rng)} {i}" for i in range(spec.nodes)]
    g.semtypes = [
        ",".join(sorted(rng.sample(SEMTYPES, rng.randint(1, 2)))) for _ in range(spec.nodes)
    ]
    order = list(range(spec.nodes))
    rng.shuffle(order)
    out_w = [0.0] * spec.nodes
    in_w = [0.0] * spec.nodes
    for rank, node in enumerate(order):
        out_w[node] = (rank + 1) ** -spec.out_skew
        in_w[node] = (rank + 1) ** -spec.in_skew
    out_cum = list(accumulate(out_w))
    in_cum = list(accumulate(in_w))
    predicates = [p for p, _ in PREDICATE_MIX]
    pred_cum = list(accumulate(w for _, w in PREDICATE_MIX))
    population = range(spec.nodes)

    # A few entities only ever take part in non-causal predications, so
    # unmapped items always have entities outside the causal view to ask about.
    outside = set(rng.sample(range(spec.nodes), max(2 * len(LABELS), spec.nodes // 100)))
    non_causal = [p for p in predicates if causality_weight(p) < THETA]
    seen: set[tuple[int, str, int]] = set()
    while len(g.edges) < spec.edges:
        want = spec.edges - len(g.edges)
        subjects = _stratified(rng, population, out_cum, want)
        objects = _by_subject(rng, subjects, population, in_cum)
        preds = _by_subject(rng, subjects, predicates, pred_cum)
        for s, o, p in zip(subjects, objects, preds):
            if (s in outside or o in outside) and p not in non_causal:
                p = rng.choice(non_causal)
            if s == o or (s, p, o) in seen:
                continue
            seen.add((s, p, o))
            strength = ""
            if rng.random() < 0.1:
                low, high = (0.3, 1.0) if causality_weight(p) >= THETA else (0.0, 0.6)
                strength = f"{rng.uniform(low, high):.2f}"
            g.add_edge(s, p, o, strength)
    return g


def triple_rows(rng: random.Random, g: Graph) -> list[str]:
    rows = []
    for s, p, o, strength in g.edges:
        subject_name = g.names[s].upper() if rng.random() < 0.02 else g.names[s]
        rows.append(
            f"{g.cuis[s]}\t{subject_name}\t{g.semtypes[s]}\t{p}\t"
            f"{g.cuis[o]}\t{g.names[o]}\t{g.semtypes[o]}\t{strength}"
        )
    # Natural duplicates: verbatim repeats placed after their first row, so
    # first-appearance edge order is unchanged.
    for idx in sorted(rng.sample(range(len(rows)), len(rows) // 160), reverse=True):
        rows.insert(rng.randint(idx + 1, len(rows)), rows[idx])
    return rows


# -- items ---------------------------------------------------------------------


def _walk_step(rng: random.Random, g: Graph, node: int, used: set[int], need_out: bool) -> int | None:
    options = [t for t in g.causal_out[node] if t not in used and (g.causal_out[t] or not need_out)]
    return rng.choice(options) if options else None


def _fallback_step(rng: random.Random, g: Graph, node: int, used: set[int], need_out: bool) -> int | None:
    """A base-graph neighbour that no causal path joins to ``node`` in either direction."""
    options = sorted({t for t, is_member in g.base_out[node] if not is_member and t not in used})
    rng.shuffle(options)
    reach = None
    for target in options[:8]:
        if need_out and not g.causal_out[target]:
            continue
        if reach is None:
            reach = g.causal_reach(node)
        if target in reach or node in g.causal_reach(target):
            continue
        return target
    return None


def _segment(rng: random.Random, g: Graph, node: int, spec: Spec, used: set[int], present: list[int]):
    if rng.random() < spec.two_entity_share:
        other = rng.choice(present)
        if other not in used:
            used.add(other)
            return PAIR_SEGMENT.format(g.names[node], g.names[other]), sorted({node, other})
    return rng.choice(ENTITY_SEGMENTS).format(g.names[node]), [node]


def _chain(rng: random.Random, g: Graph, spec: Spec, starts: list[int]):
    """Entity nodes of a causal walk, with some fallback-only hops, or None."""
    length = rng.randint(spec.min_segments, spec.max_segments)
    node = rng.choice(starts)
    nodes = [node]
    used = {node}
    fallback_hops = 0
    while len(nodes) < length:
        need_out = len(nodes) + 1 < length
        step = None
        if rng.random() < spec.fallback_share:
            step = _fallback_step(rng, g, node, used, need_out)
            fallback_hops += step is not None
        if step is None:
            step = _walk_step(rng, g, node, used, need_out)
        if step is None:
            return None
        nodes.append(step)
        used.add(step)
        node = step
    return nodes, used, fallback_hops


def _options(rng: random.Random, g: Graph, answer: int, pool: list[int], avoid: set[int]):
    distractors: list[int] = []
    while len(distractors) < len(LABELS) - 1:
        pick = rng.choice(pool)
        if pick != answer and pick not in avoid and pick not in distractors:
            distractors.append(pick)
    gold = rng.randrange(len(LABELS))
    nodes = distractors[:gold] + [answer] + distractors[gold:]
    return {label: g.names[n] for label, n in zip(LABELS, nodes)}, LABELS[gold], nodes


def make_items(rng: random.Random, g: Graph, spec: Spec):
    """Items, their canned replies, expectations and query nodes."""
    member_nodes = g.member_nodes()
    non_members = [n for n in range(g.n) if n not in member_nodes]
    starts = [n for n in range(g.n) if g.causal_out[n]]
    linked = set()
    for s, _, o, _ in g.edges:
        linked.update((s, o))
    present = sorted(linked)  # nodes the triple file names
    everyone = list(range(g.n))
    items, replies, expected = [], [], {}
    mapped_query: set[int] = set()
    unmapped_query: set[int] = set()
    counts = {"unmapped": 0, "fallback_hops": 0, "empty_segments": 0, "no_label": 0}
    while len(items) < spec.items:
        item_id = f"q{len(items):05d}"
        if len(non_members) > len(LABELS) and rng.random() < spec.unmapped_share:
            subject = rng.choice(non_members)
            options, gold, option_nodes = _options(rng, g, rng.choice(non_members), non_members, {subject})
            question = f"Case {item_id}: a patient presents with {g.names[subject]}. Which outcome is most likely?"
            items.append({"id": item_id, "question": question, "options": options, "answer": gold})
            expected[item_id] = {"expected": "abstain", "mapped": False, "segments": []}
            unmapped_query.update([subject, *option_nodes])
            counts["unmapped"] += 1
            continue
        walk = _chain(rng, g, spec, starts)
        if walk is None:
            continue
        nodes, used, fallback_hops = walk
        segments: list[tuple[str, list[int]]] = []
        for position, node in enumerate(nodes):
            if 0 < position and rng.random() < spec.no_entity_share:
                segments.append((rng.choice(EMPTY_SEGMENTS), []))
                counts["empty_segments"] += 1
            segments.append(_segment(rng, g, node, spec, used, present))
        counts["fallback_hops"] += fallback_hops
        options, gold, option_nodes = _options(rng, g, nodes[-1], everyone, used)
        question = f"Case {item_id}: a patient presents with {g.names[nodes[0]]}. Which outcome is most likely?"
        draw = rng.random()
        if draw < 0.03:
            predicted, infer_text = "abstain", NO_LABEL_REPLY
            counts["no_label"] += 1
        else:
            predicted = gold if draw < 0.8 else rng.choice([l for l in LABELS if l != gold])
            infer_text = f"The retrieved evidence links the presentation to the outcome.\nAnswer: {predicted}"
        cot_text = " → ".join([text for text, _ in segments] + [str(rng.randint(55, 95))])
        enhance_text = (
            f"Enhanced summary: {g.names[nodes[0]]} progresses to {g.names[nodes[-1]]} "
            "along the retrieved causal chain."
        )
        items.append({"id": item_id, "question": question, "options": options, "answer": gold})
        for stage, text in (("cot", cot_text), ("enhance", enhance_text), ("infer", infer_text)):
            replies.append({"item_id": item_id, "question": question, "stage": stage, "text": text})
        expected[item_id] = {
            "expected": predicted,
            "mapped": True,
            "segments": [[text, [g.cuis[n] for n in cuis]] for text, cuis in segments],
        }
        mapped_query.update([nodes[0], *option_nodes])
    return items, replies, expected, mapped_query, unmapped_query, counts


# -- strength updates ------------------------------------------------------------


class _IndexedSet:
    """Set with deterministic O(1) add, remove and uniform choice."""

    def __init__(self, values=()):
        self.items: list[int] = []
        self.pos: dict[int, int] = {}
        for v in values:
            self.add(v)

    def add(self, v: int) -> None:
        if v not in self.pos:
            self.pos[v] = len(self.items)
            self.items.append(v)

    def remove(self, v: int) -> None:
        i = self.pos.pop(v, None)
        if i is None:
            return
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def choice(self, rng: random.Random) -> int:
        return self.items[rng.randrange(len(self.items))]

    def __len__(self) -> int:
        return len(self.items)


def make_updates(rng: random.Random, g: Graph, spec: Spec, protected: set[int], frozen: set[int]) -> list[str]:
    """Batches that promote, demote and revise edges at the view's theta.

    Promotions and demotions are equally frequent, so the view keeps about
    its size over hundreds of revisions and later items cost what early
    ones do.
    Demotions never touch an edge incident to ``protected`` (the mapped
    items' query nodes), and promotions never touch one incident to
    ``frozen`` (the unmapped items' query nodes), so every item's expected
    mapped status holds on every revised view.
    """
    def touches(idx: int, nodes: set[int]) -> bool:
        s, _, o, _ = g.edges[idx]
        return s in nodes or o in nodes

    members = _IndexedSet(i for i, m in enumerate(g.member) if m)
    demotable = _IndexedSet(i for i in members.items if not touches(i, protected))
    promotable = _IndexedSet(i for i, m in enumerate(g.member) if not m and not touches(i, frozen))
    lines: list[str] = []
    for batch in range(spec.batches):
        lines.append(f"# batch {batch}")
        used: set[int] = set()
        for slot in range(spec.batch_size):
            kind = slot % 20
            if kind < 7 and len(promotable):
                idx = promotable.choice(rng)
                strength = rng.uniform(THETA, 1.0)
                promotable.remove(idx)
                members.add(idx)
                if not touches(idx, protected):
                    demotable.add(idx)
            elif kind < 14 and len(demotable):
                idx = demotable.choice(rng)
                if idx in used:
                    continue
                strength = rng.uniform(0.0, THETA - 0.001)
                demotable.remove(idx)
                members.remove(idx)
                if not touches(idx, frozen):
                    promotable.add(idx)
            else:
                idx = members.choice(rng)
                if idx in used:
                    continue
                strength = rng.uniform(THETA, 1.0)
            used.add(idx)
            s, p, o, _ = g.edges[idx]
            lines.append(f"{g.cuis[s]}\t{p}\t{g.cuis[o]}\t{strength:.3f}")
    return lines


# -- entry point -------------------------------------------------------------------


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write every input file of ``workload`` for ``seed`` into ``out``."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"causalrag-bench:{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)

    g = make_graph(rng, spec)
    rows = triple_rows(rng, g)
    with open(out / "triples.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HEADER + "\n")
        fh.write("\n".join(rows) + "\n")

    items, replies, expected, mapped_query, unmapped_query, counts = make_items(rng, g, spec)
    _write_jsonl(out / "dataset.jsonl", items)
    _write_jsonl(out / "replies.jsonl", replies)
    ordinals = {"cot": 0, "enhance": 0, "infer": 0}
    transcript = []
    for reply in replies:
        stage = reply["stage"]
        transcript.append({**reply, "ordinal": ordinals[stage]})
        ordinals[stage] += 1
    _write_jsonl(out / "transcript.jsonl", transcript)
    with open(out / "expected.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"items": expected, "counts": counts}, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")

    updates = make_updates(rng, g, spec, mapped_query, unmapped_query)
    with open(out / "updates.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(updates) + "\n")

    meta = {"workload": workload, "seed": seed, "spec": asdict(spec), "theta": THETA, "max_hops": MAX_HOPS}
    with open(out / "workload.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
