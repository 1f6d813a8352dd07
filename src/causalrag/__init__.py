"""Causal-first graph retrieval with chain-of-thought aligned path search."""

from .causal import (
    CausalGraphView,
    CausalityTable,
    apply_strength_updates,
    build_causal_view,
    default_causality_table,
)
from .cot import ChainOfThought, build_cot_prompt, parse_cot, render_cot
from .enhancer import (
    EnhancerConfig,
    FusedPath,
    ScoredPath,
    build_enhancement_prompt,
    cui_overlap,
    fuse_paths,
    length_score,
    select_final,
    semantic_overlap,
    total_score,
)
from .graph import (
    ConceptNode,
    KgEdge,
    KnowledgeGraph,
    ingest_triples,
    load_graph,
    load_triples,
    save_graph,
)
from .harness import Mode, Pipeline, PredictionRecord, QAItem, run_evaluation
from .linker import LinkerIndex, build_index
from .llm import LlmGateway, LlmRequest, LlmResponse, MockTranscript, ModelAssignment, extract_answer_label
from .metrics import Metrics, compute_metrics
from .retrieval import (
    GraphPath,
    RetrievalConfig,
    find_paths,
    path_score,
    prune_and_select,
    retrieve_for_cot,
)

__version__ = "0.1.0"
