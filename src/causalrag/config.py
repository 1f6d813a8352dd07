"""Pipeline configuration: defaults, YAML loading, and flag overrides.

Every numeric knob of the pipeline lives here so experiments never require
code edits. Precedence is command-line flags over config file over built-in
defaults, enforced by the CLI calling ``apply_overrides`` on a loaded
config.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Any, Mapping

import yaml

from .causal import DEFAULT_THETA, CausalityTable, default_causality_table
from .enhancer import EnhancerConfig
from .errors import ValidationError
from .llm import ModelAssignment
from .retrieval import RetrievalConfig

logger = logging.getLogger(__name__)

DEFAULT_WORKERS = 4
DEFAULT_COT_TEMPERATURE = 0.7
DEFAULT_ENHANCE_TEMPERATURE = 0.0
DEFAULT_INFER_TEMPERATURE = 0.0

_KNOWN_KEYS = {"causality", "theta", "retrieval", "enhancer", "prompts", "models", "workers", "temperatures"}


@dataclass(frozen=True)
class PipelineConfig:
    causality: CausalityTable
    theta: float
    retrieval: RetrievalConfig
    enhancer: EnhancerConfig
    assignment: ModelAssignment
    cot_template_path: str | None = None
    enhance_template_path: str | None = None
    inference_template_path: str | None = None
    workers: int = DEFAULT_WORKERS
    cot_temperature: float = DEFAULT_COT_TEMPERATURE
    enhance_temperature: float = DEFAULT_ENHANCE_TEMPERATURE
    infer_temperature: float = DEFAULT_INFER_TEMPERATURE

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"theta must be in [0, 1], got {self.theta}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")

    def echo(self) -> dict:
        """Fully resolved knobs for embedding in reports."""
        return {
            "theta": self.theta,
            "max_hops": self.retrieval.max_hops,
            "k": self.retrieval.k,
            "distance_slack": self.retrieval.distance_slack,
            "alpha": self.enhancer.alpha,
            "beta": self.enhancer.beta,
            "gamma": self.enhancer.gamma,
            "keep_ratio": self.enhancer.keep_ratio,
            "models": {
                "cot": self.assignment.cot,
                "enhance": self.assignment.enhance,
                "infer": self.assignment.infer,
            },
            "causality_weights": dict(sorted(self.causality.weights.items())),
            "causality_default_weight": self.causality.default_weight,
            "workers": self.workers,
        }


def default_config() -> PipelineConfig:
    return PipelineConfig(
        causality=default_causality_table(),
        theta=DEFAULT_THETA,
        retrieval=RetrievalConfig(),
        enhancer=EnhancerConfig(),
        assignment=ModelAssignment(),
    )


def config_from_mapping(data: Mapping[str, Any]) -> PipelineConfig:
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        logger.warning("ignoring unknown config keys: %s", ", ".join(sorted(unknown)))

    causality_data = data.get("causality", {}) or {}
    if causality_data:
        causality = CausalityTable(
            weights=dict(causality_data.get("weights", {})),
            default_weight=float(causality_data.get("default_weight", 0.05)),
        )
    else:
        causality = default_causality_table()

    theta = float(data.get("theta", DEFAULT_THETA))

    retrieval_data = data.get("retrieval", {}) or {}
    retrieval = RetrievalConfig(
        max_hops=int(retrieval_data.get("max_hops", 3)),
        k=int(retrieval_data.get("k", 5)),
        distance_slack=int(retrieval_data.get("distance_slack", 1)),
    )

    enhancer_data = data.get("enhancer", {}) or {}
    enhancer = EnhancerConfig(
        alpha=float(enhancer_data.get("alpha", 0.4)),
        beta=float(enhancer_data.get("beta", 0.3)),
        gamma=float(enhancer_data.get("gamma", 0.3)),
        keep_ratio=float(enhancer_data.get("keep_ratio", 0.4)),
    )

    models_data = data.get("models", {}) or {}
    assignment = ModelAssignment(
        cot=str(models_data.get("cot", "mock")),
        enhance=str(models_data.get("enhance", "mock")),
        infer=str(models_data.get("infer", "mock")),
    )

    prompts_data = data.get("prompts", {}) or {}
    temperatures = data.get("temperatures", {}) or {}

    return PipelineConfig(
        causality=causality,
        theta=theta,
        retrieval=retrieval,
        enhancer=enhancer,
        assignment=assignment,
        cot_template_path=prompts_data.get("cot") or None,
        enhance_template_path=prompts_data.get("enhance") or None,
        inference_template_path=prompts_data.get("inference") or None,
        workers=int(data.get("workers", DEFAULT_WORKERS)),
        cot_temperature=float(temperatures.get("cot", DEFAULT_COT_TEMPERATURE)),
        enhance_temperature=float(temperatures.get("enhance", DEFAULT_ENHANCE_TEMPERATURE)),
        infer_temperature=float(temperatures.get("infer", DEFAULT_INFER_TEMPERATURE)),
    )


def load_config(path: str | None = None) -> PipelineConfig:
    """Load a YAML config file, or the built-in defaults when no path given."""
    if path is None:
        return default_config()
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        return default_config()
    if not isinstance(data, Mapping):
        raise ValidationError(f"{path}: config root must be a mapping")
    return config_from_mapping(data)


def apply_overrides(
    config: PipelineConfig,
    theta: float | None = None,
    k: int | None = None,
    max_hops: int | None = None,
    keep_ratio: float | None = None,
    cot_model: str | None = None,
    enhance_model: str | None = None,
    infer_model: str | None = None,
) -> PipelineConfig:
    """Fold command-line overrides into a loaded config (flags win)."""
    updated = config
    if theta is not None:
        updated = replace(updated, theta=theta)
    if k is not None or max_hops is not None:
        updated = replace(
            updated,
            retrieval=replace(
                updated.retrieval,
                k=k if k is not None else updated.retrieval.k,
                max_hops=max_hops if max_hops is not None else updated.retrieval.max_hops,
            ),
        )
    if keep_ratio is not None:
        updated = replace(updated, enhancer=replace(updated.enhancer, keep_ratio=keep_ratio))
    if cot_model or enhance_model or infer_model:
        updated = replace(
            updated,
            assignment=ModelAssignment(
                cot=cot_model or updated.assignment.cot,
                enhance=enhance_model or updated.assignment.enhance,
                infer=infer_model or updated.assignment.infer,
            ),
        )
    return updated
