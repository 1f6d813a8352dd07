"""Pipeline configuration: defaults, and the one reader from YAML and flags.

``config_from_mapping`` is the only route from outside values to a
``PipelineConfig``. Its readers take every default from ``default_config()``
and raise ``ValidationError`` naming the key path. ``load_config`` lays the
command-line flags over the file's mapping first, so flags win over the file
and the file over the defaults, key by key.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable, Mapping

import yaml

from .causal import DEFAULT_THETA, CausalityTable, default_causality_table
from .enhancer import EnhancerConfig
from .errors import ValidationError
from .llm import ModelAssignment
from .retrieval import RetrievalConfig

logger = logging.getLogger(__name__)


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
    workers: int = 4
    cot_temperature: float = 0.7
    enhance_temperature: float = 0.0
    infer_temperature: float = 0.0

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


# prompts and temperatures name PipelineConfig fields by suffix: prompts.cot
# is cot_template_path, temperatures.infer is infer_temperature.
_SUFFIXED_SECTIONS = {"prompts": "_template_path", "temperatures": "_temperature"}
_TOP_KEYS = ("causality", "theta", "workers", "retrieval", "enhancer", "models", *_SUFFIXED_SECTIONS)


def _warn_unknown(section: Mapping, known: Iterable[str], prefix: str = "") -> None:
    unknown = sorted(f"{prefix}{key}" for key in section if key not in known)
    if unknown:
        logger.warning("ignoring unknown config keys: %s", ", ".join(unknown))


def _section(data: Mapping, key: str, prefix: str = "") -> Mapping:
    """``data[key]`` as a mapping; a missing or null section reads as ``{}``."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ValidationError(f"{prefix}{key}: expected a mapping, got {value!r}")
    return value


def _coerce(value: Any, like: Any, path: str) -> Any:
    """``value`` as the type of ``like``; a ``None`` default takes a string or null.

    Ints accept integral numbers and digit strings, floats accept finite
    numbers and numeric strings; neither accepts a boolean.
    """
    if like is None or isinstance(like, str):
        if isinstance(value, str) or (like is None and value is None):
            return value
    elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            if isinstance(like, float) and math.isfinite(float(value)):
                return float(value)
            if isinstance(like, int) and not (isinstance(value, float) and not value.is_integer()):
                return int(value)
        except (ValueError, OverflowError):
            pass
    kind = "str" if like is None else type(like).__name__
    raise ValidationError(f"{path}: expected {kind}, got {value!r}")


def _field(section: Mapping, key: str, default: Any, path: str) -> Any:
    return _coerce(section[key], default, path) if key in section else default


def _read_section(data: Mapping, key: str, target: Any, suffix: str = "") -> Any:
    """``target`` with section ``key`` read into its fields, found by name plus ``suffix``.

    A new dataclass field needs no edit here. Unknown keys warn.
    """
    section = _section(data, key)
    names = {f.name.removesuffix(suffix): f.name for f in fields(target) if f.name.endswith(suffix)}
    _warn_unknown(section, names, f"{key}.")
    return replace(target, **{
        name: _field(section, option, getattr(target, name), f"{key}.{option}")
        for option, name in names.items()
    })


def _causality(data: Mapping, default: CausalityTable) -> CausalityTable:
    """A given ``weights`` table replaces the default table; ``default_weight`` alone keeps it."""
    section = _section(data, "causality")
    _warn_unknown(section, ("weights", "default_weight"), "causality.")
    weights, path = default.weights, "causality.weights"
    if "weights" in section:
        weights = {
            _coerce(label, "", path): _coerce(weight, default.default_weight, f"{path}.{label}")
            for label, weight in _section(section, "weights", "causality.").items()
        }
    default_weight = _field(section, "default_weight", default.default_weight, "causality.default_weight")
    return CausalityTable(weights=weights, default_weight=default_weight)


def config_from_mapping(data: Mapping[str, Any]) -> PipelineConfig:
    """Read a config mapping; missing keys keep ``default_config()``'s values."""
    base = default_config()
    _warn_unknown(data, _TOP_KEYS)
    config = replace(
        base,
        causality=_causality(data, base.causality),
        theta=_field(data, "theta", base.theta, "theta"),
        workers=_field(data, "workers", base.workers, "workers"),
        retrieval=_read_section(data, "retrieval", base.retrieval),
        enhancer=_read_section(data, "enhancer", base.enhancer),
        assignment=_read_section(data, "models", base.assignment),
    )
    for key, suffix in _SUFFIXED_SECTIONS.items():
        config = _read_section(data, key, config, suffix)
    return config


def _overlay(data: Mapping, overrides: Mapping) -> dict:
    """``data`` with the non-null leaves of ``overrides`` laid over it, section by section."""
    merged = dict(data)
    for key, value in overrides.items():
        if isinstance(value, Mapping):
            merged[key] = _overlay(_section(data, key), value)
        elif value is not None:
            merged[key] = value
    return merged


def load_config(path: str | None = None, overrides: Mapping | None = None) -> PipelineConfig:
    """Read a YAML config file (or none), lay ``overrides`` over it, and build the config."""
    data: Mapping = {}
    if path is not None:
        with open(path, "rb") as fh:
            try:
                loaded = yaml.safe_load(fh)
            except (yaml.YAMLError, ValueError, AttributeError) as exc:  # bad dates and tags raise the last two
                raise ValidationError(f"{path}: invalid YAML: {exc}") from None
        data = _section({path: loaded}, path)  # the root reads like any section
    return config_from_mapping(_overlay(data, overrides or {}))
