"""Causal-first graph retrieval with chain-of-thought aligned path search."""

from .causal import build_causal_view, default_causality_table
from .enhancer import cui_overlap, length_score, semantic_overlap, total_score
from .graph import load_triples
from .retrieval import RetrievalConfig, find_paths, path_score
