"""Times the program's layers from outside, for the benchmark's traced runs.

``Instrumentation.install`` replaces the public functions and methods the
pipeline calls through with wrappers that open a span in a ``Recorder`` and
count the work passing through; ``uninstall`` puts the originals back. A
module-level function is replaced in every ``causalrag`` module that bound
it by name, so calls made through ``from .x import f`` are caught too.
Nothing in the program is edited.

Span names are ``<layer>.<operation>``, where the layer is the module the
wrapped call belongs to. Adjacency lookups (``out_edges``) are hot leaves:
they are summed into their enclosing span instead of stored one by one.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

from causalrag import causal, cot, enhancer, graph, harness, linker, llm, retrieval

from spans import Recorder


class Instrumentation:
    """Installs and removes the layer wrappers; spans go to ``self.rec``."""

    def __init__(self, transport_types=()):
        self.rec: Recorder | None = None
        self._transport_types = tuple(transport_types)
        self._patches: list[tuple[object, str, object]] = []
        self._in_leaf = threading.local()

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _function(self, original, name: str, after=None, wrapper=None, counter=None) -> None:
        replacement = wrapper or self._spanned(original, name, after, counter=counter)
        for module_name, module in list(sys.modules.items()):
            if module_name == "causalrag" or module_name.startswith("causalrag."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def _method(self, cls, attr: str, name: str, after=None, item_of=None, counter=None) -> None:
        self._set(cls, attr, self._spanned(cls.__dict__[attr], name, after, item_of, counter))

    def _spanned(self, fn, name: str, after=None, item_of=None, counter=None):
        """Span around ``fn``; ``counter`` counts calls, ``after`` reads results."""
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = inst.rec
            if counter is not None:
                rec.count(counter)
            span = rec.open(name, item_of(args) if item_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def _leaf(self, fn, name: str):
        inst = self
        guard = self._in_leaf
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(graph, node_id):
            # A view's out_edges calls the base graph's; count the outer call only.
            if getattr(guard, "active", False):
                return fn(graph, node_id)
            guard.active = True
            start = clock()
            try:
                result = fn(graph, node_id)
            finally:
                guard.active = False
            inst.rec.leaf(name, clock() - start, len(result))
            return result

        return wrapper

    # -- wrappers ---------------------------------------------------------------------

    def install(self, rec: Recorder) -> None:
        if self._patches:
            raise RuntimeError("instrumentation is already installed")
        self.rec = rec

        # graph
        self._function(graph.ingest_triples, "graph.ingest")
        self._function(graph.save_graph, "graph.save")
        self._function(graph.load_graph, "graph.load")
        self._function(graph.shortest_path_length, "graph.bfs", counter="graph.bfs_calls")
        self._set(graph.KnowledgeGraph, "out_edges", self._leaf(graph.KnowledgeGraph.out_edges, "graph.out_edges"))

        # causal
        self._function(causal.build_causal_view, "causal.view_build")
        self._function(causal.apply_strength_updates, "causal.update")
        self._method(causal.CausalGraphView, "member_node_ids", "causal.member_nodes")
        self._set(
            causal.CausalGraphView, "out_edges", self._leaf(causal.CausalGraphView.out_edges, "causal.out_edges")
        )

        # linker
        self._function(linker.build_index, "linker.build")
        self._method(linker.LinkerIndex, "link", "linker.link", counter="linker.link_calls")

        # cot
        self._function(cot.build_cot_prompt, "cot.prompt")
        self._function(cot.parse_cot, "cot.parse", after=_after_parse)
        self._function(cot.render_cot, "cot.render")

        # retrieval
        self._function(retrieval.retrieve_for_cot, "retrieval.retrieve", after=_after_retrieve)
        self._function(retrieval.find_paths, "retrieval.find_paths", after=_after_find_paths)
        self._function(retrieval.prune_and_select, "retrieval.prune", after=_after_prune)

        # enhancer
        self._function(enhancer.fuse_paths, "enhancer.fuse", wrapper=self._fuse_wrapper(enhancer.fuse_paths))
        self._function(enhancer.score_paths, "enhancer.score")
        self._function(enhancer.select_final, "enhancer.select")
        self._function(enhancer.render_paths_block, "enhancer.render")
        self._function(enhancer.build_enhancement_prompt, "enhancer.render")

        # llm
        self._method(llm.LlmGateway, "complete", "llm.complete", counter="llm.calls")
        self._method(llm.MockTranscript, "next_response", "llm.transport", counter="llm.attempts")
        for cls in self._transport_types:
            self._method(cls, "__call__", "llm.transport", counter="llm.attempts")
        self._function(llm.extract_answer_label, "llm.extract")

        # harness
        self._function(harness.run_evaluation, "harness.run_evaluation", wrapper=self._root_wrapper(harness.run_evaluation))
        self._method(
            harness.Pipeline, "answer", "harness.answer", item_of=lambda a: a[1].id, counter="harness.items"
        )
        self._method(harness.Pipeline, "__init__", "harness.pipeline_init")
        self._wrap_failures(llm.LlmGateway, "complete", "llm.failed_calls")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_failures(self, cls, attr: str, counter: str) -> None:
        inner = cls.__dict__[attr]
        inst = self

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except Exception:
                inst.rec.count(counter)
                raise

        self._set(cls, attr, wrapper)

    def _root_wrapper(self, fn):
        """run_evaluation: worker-thread spans attach to this span."""
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = inst.rec
            span = rec.open("harness.run_evaluation")
            previous, rec.root = rec.root, span
            try:
                return fn(*args, **kwargs)
            finally:
                rec.root = previous
                rec.close(span)

        return wrapper

    def _fuse_wrapper(self, fn):
        inst = self

        @functools.wraps(fn)
        def wrapper(pools):
            pools = [list(pool) for pool in pools]
            rec = inst.rec
            with rec.span("enhancer.fuse"):
                fused = fn(pools)
            rec.count("enhancer.pooled", sum(len(pool) for pool in pools))
            rec.count("enhancer.fused", len(fused))
            return fused

        return wrapper


def _after_parse(rec: Recorder, args, chain) -> None:
    rec.count("cot.chains")
    rec.count("cot.segments", len(chain.segments))


def _after_retrieve(rec: Recorder, args, results) -> None:
    rec.count("retrieval.segment_pairs", len(results))
    rec.count(
        "retrieval.no_entity_pairs",
        sum(1 for entry in results.values() if entry.reason == retrieval.REASON_NO_ENTITIES),
    )


def _after_find_paths(rec: Recorder, args, paths) -> None:
    rec.count("retrieval.find_paths_calls")
    rec.count("retrieval.candidates", len(paths))
    if not paths or paths[0].tier == retrieval.TIER_FALLBACK:
        rec.count("retrieval.fallback_searches")


def _after_prune(rec: Recorder, args, kept) -> None:
    rec.count("retrieval.prune_in", len(args[0]))
    rec.count("retrieval.kept", len(kept))
