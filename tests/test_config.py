from __future__ import annotations

import json
import logging
import math
import random
import re
from copy import deepcopy

import pytest
import yaml

from causalrag.cli import _resolve_config, build_parser
from causalrag.config import PipelineConfig, config_from_mapping, default_config, load_config
from causalrag.errors import ValidationError
from causalrag.llm import ModelAssignment

from .test_readme import ROOT


def _readme_config() -> dict:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    return yaml.safe_load(re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1))


def _leaf_paths(data: dict, prefix=()) -> set[tuple[str, ...]]:
    paths = set()
    for key, value in data.items():
        if isinstance(value, dict) and key != "weights":
            paths |= _leaf_paths(value, prefix + (key,))
        else:
            paths.add(prefix + (key,))
    return paths


def _nested(path, value) -> dict:
    for key in reversed(path):
        value = {key: value}
    return value


def test_empty_mapping_is_the_default_config(tmp_path):
    assert config_from_mapping({}) == default_config()
    assert load_config() == default_config()
    empty = tmp_path / "empty.yaml"
    empty.write_text("# nothing set\n", encoding="utf-8")
    assert load_config(empty) == default_config()


def test_readme_config_block_loads_to_the_defaults(caplog):
    with caplog.at_level(logging.WARNING, logger="causalrag"):
        assert config_from_mapping(_readme_config()) == default_config()
    assert not caplog.records


# Each key of the README block, a non-default value for it, and where it lands.
KEY_CASES = {
    ("theta",): (0.7, lambda c: c.theta),
    ("workers",): (3, lambda c: c.workers),
    ("retrieval", "max_hops"): (2, lambda c: c.retrieval.max_hops),
    ("retrieval", "k"): (7, lambda c: c.retrieval.k),
    ("retrieval", "distance_slack"): (0, lambda c: c.retrieval.distance_slack),
    ("enhancer", "alpha"): (0.3, lambda c: c.enhancer.alpha),
    ("enhancer", "beta"): (0.4, lambda c: c.enhancer.beta),
    ("enhancer", "gamma"): (0.4, lambda c: c.enhancer.gamma),
    ("enhancer", "keep_ratio"): (0.6, lambda c: c.enhancer.keep_ratio),
    ("models", "cot"): ("small", lambda c: c.assignment.cot),
    ("models", "enhance"): ("big", lambda c: c.assignment.enhance),
    ("models", "infer"): ("big", lambda c: c.assignment.infer),
    ("prompts", "cot"): ("cot.txt", lambda c: c.cot_template_path),
    ("prompts", "enhance"): ("enhance.txt", lambda c: c.enhance_template_path),
    ("prompts", "inference"): ("infer.txt", lambda c: c.inference_template_path),
    ("temperatures", "cot"): (0.2, lambda c: c.cot_temperature),
    ("temperatures", "enhance"): (0.5, lambda c: c.enhance_temperature),
    ("temperatures", "infer"): (0.9, lambda c: c.infer_temperature),
    ("causality", "weights"): ({"CAUSES": 0.95}, lambda c: c.causality.weights),
    ("causality", "default_weight"): (0.1, lambda c: c.causality.default_weight),
}
# The score weights must sum to 1, so moving one moves another with it.
PARTNERS = {
    ("enhancer", "alpha"): {"beta": 0.4},
    ("enhancer", "beta"): {"alpha": 0.3},
    ("enhancer", "gamma"): {"alpha": 0.3},
}


def test_key_cases_cover_every_readme_key():
    assert set(KEY_CASES) == _leaf_paths(_readme_config())


@pytest.mark.parametrize("path", sorted(KEY_CASES), ids=".".join)
def test_each_key_is_read_back(path):
    value, read = KEY_CASES[path]
    assert read(default_config()) != value
    data = _nested(path, value)
    partner = PARTNERS.get(path, {})
    data.get("enhancer", {}).update(partner)
    config = config_from_mapping(data)
    assert read(config) == value
    moved = {path} | {("enhancer", key) for key in partner}
    for other in KEY_CASES.keys() - moved:
        assert KEY_CASES[other][1](config) == KEY_CASES[other][1](default_config()), other


def test_default_weight_alone_keeps_the_default_table():
    config = config_from_mapping({"causality": {"default_weight": 0.2}})
    assert config.causality.weights == default_config().causality.weights
    assert config.causality.default_weight == 0.2
    with pytest.raises(ValidationError, match="at least one predicate"):
        config_from_mapping({"causality": {"weights": {}}})


@pytest.mark.parametrize("value, expected", [(4, 4), ("4", 4), (" 4 ", 4), (4.0, 4)])
def test_int_fields_accept_integral_values(value, expected):
    assert config_from_mapping({"retrieval": {"k": value}}).retrieval.k == expected


@pytest.mark.parametrize("value", [True, False, 2.5, "2.5", "x", "", None, [1], {}, math.inf, math.nan])
def test_int_fields_reject_everything_else(value):
    with pytest.raises(ValidationError, match=r"^retrieval\.k: expected int, got "):
        config_from_mapping({"retrieval": {"k": value}})


@pytest.mark.parametrize("value, expected", [(0.6, 0.6), (1, 1.0), ("0.25", 0.25), ("1e-1", 0.1)])
def test_float_fields_accept_numbers_and_numeric_strings(value, expected):
    assert config_from_mapping({"theta": value}).theta == expected


@pytest.mark.parametrize(
    "value", [True, "a", "nan", "inf", math.nan, math.inf, -math.inf, 10**400, None, [0.5], {"a": 1}]
)
def test_float_fields_reject_everything_else(value):
    with pytest.raises(ValidationError, match=r"^theta: expected float, got "):
        config_from_mapping({"theta": value})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"retrieval": {"max_hops": "x"}}, "retrieval.max_hops: expected int, got 'x'"),
        ({"theta": "a"}, "theta: expected float, got 'a'"),
        ({"retrieval": [1]}, "retrieval: expected a mapping, got [1]"),
        ({"models": 5}, "models: expected a mapping, got 5"),
        ({"workers": None}, "workers: expected int, got None"),
        ({"models": {"cot": None}}, "models.cot: expected str, got None"),
        ({"prompts": {"cot": 5}}, "prompts.cot: expected str, got 5"),
        ({"temperatures": {"infer": "warm"}}, "temperatures.infer: expected float, got 'warm'"),
        ({"causality": {"weights": {"CAUSES": "x"}}}, "causality.weights.CAUSES: expected float, got 'x'"),
        ({"causality": {"weights": {1: 0.5}}}, "causality.weights: expected str, got 1"),
        ({"causality": {"weights": [1]}}, "causality.weights: expected a mapping, got [1]"),
    ],
)
def test_bad_values_name_their_key_path(data, message):
    with pytest.raises(ValidationError) as excinfo:
        config_from_mapping(data)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("stage", ["cot", "enhance", "infer"])
def test_temperatures_are_range_checked_when_read(stage):
    with pytest.raises(ValidationError, match=rf"^temperatures\.{stage} must be >= 0, got -0\.5$"):
        config_from_mapping({"temperatures": {stage: -0.5}})
    with pytest.raises(ValidationError, match=rf"^temperatures\.{stage} must be >= 0, got nan$"):
        PipelineConfig(**{**vars(default_config()), f"{stage}_temperature": math.nan})
    with pytest.raises(ValidationError, match=rf"^temperatures\.{stage} must be >= 0, got inf$"):
        PipelineConfig(**{**vars(default_config()), f"{stage}_temperature": math.inf})
    assert getattr(config_from_mapping({"temperatures": {stage: 0}}), f"{stage}_temperature") == 0.0


def test_null_sections_read_as_empty():
    sections = [key for key, value in _readme_config().items() if isinstance(value, dict)]
    assert len(sections) == 6
    assert config_from_mapping(dict.fromkeys(sections)) == default_config()


def test_nested_unknown_key_warns_once(caplog):
    with caplog.at_level(logging.WARNING, logger="causalrag"):
        config = config_from_mapping({"retrieval": {"max_hop": 2}, "models": {"cot": "m"}, "colour": 1})
    assert config.retrieval == default_config().retrieval
    messages = [record.getMessage() for record in caplog.records]
    assert messages == [
        "ignoring unknown config keys: colour",
        "ignoring unknown config keys: retrieval.max_hop",
    ]


@pytest.mark.parametrize(
    "text",
    ["retrieval: [1, 2\n", "theta: 2020-13-45\n", "theta: !!float abc\n", "theta: !!timestamp x\n",
     "theta: !!python/name:os.system\n"],
)
def test_invalid_yaml_names_the_path(tmp_path, text):
    broken = tmp_path / "broken.yaml"
    broken.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(broken))}: invalid YAML"):
        load_config(broken)


def test_non_mapping_root_names_the_path(tmp_path):
    listed = tmp_path / "list.yaml"
    listed.write_text("- 1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"{re.escape(str(listed))}: expected a mapping, got \\[1\\]"):
        load_config(listed)


# -- precedence: flags over file over defaults, key by key ---------------------------


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "theta: 0.6\nretrieval:\n  max_hops: 2\nenhancer:\n  keep_ratio: 0.7\nmodels:\n  cot: file-cot\n",
        encoding="utf-8",
    )
    return path


def test_overrides_win_key_by_key(config_file):
    overrides = {"retrieval": {"k": 4, "max_hops": None}, "theta": None, "models": {"infer": "flag"}}
    config = load_config(config_file, overrides)
    assert config.retrieval.k == 4
    assert config.retrieval.max_hops == 2
    assert config.retrieval.distance_slack == default_config().retrieval.distance_slack
    assert config.theta == 0.6
    assert config.enhancer.keep_ratio == 0.7
    assert (config.assignment.cot, config.assignment.infer) == ("file-cot", "flag")
    flagged = load_config(config_file, {"theta": 0.8, "retrieval": {"max_hops": 4}})
    assert (flagged.theta, flagged.retrieval.max_hops) == (0.8, 4)


def test_overrides_without_a_file_lay_over_the_defaults():
    keep = {"enhancer": {"keep_ratio": 0.5}}
    assert load_config(None, keep) == config_from_mapping(keep)
    assert load_config(None, {"theta": None, "retrieval": {"k": None}}) == default_config()


def test_overrides_do_not_hide_a_bad_file_section(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("retrieval: [1]\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"retrieval: expected a mapping, got \[1\]"):
        load_config(path, {"retrieval": {"k": 4}})


def test_cli_flags_lay_over_the_config_file(config_file):
    parser = build_parser()
    base = ["evaluate", "--graph", "g", "--dataset", "d", "--config", str(config_file)]
    assert _resolve_config(parser.parse_args(base)) == load_config(config_file)
    flags = ["--k", "4", "--keep-ratio", "0.5", "--infer-model", "big"]
    config = _resolve_config(parser.parse_args(base + flags))
    assert (config.retrieval.k, config.retrieval.max_hops) == (4, 2)
    assert config.enhancer.keep_ratio == 0.5
    assert config.assignment == ModelAssignment(cot="file-cot", infer="big")
    assert config.theta == 0.6
    config = _resolve_config(parser.parse_args(base + ["--theta", "0.9", "--max-hops", "5"]))
    assert (config.theta, config.retrieval.max_hops) == (0.9, 5)
    assert config.retrieval.k == default_config().retrieval.k
    update = ["update-strengths", "--graph", "g", "--updates", "u", "--config", str(config_file)]
    update += ["--theta", "0.9"]
    assert _resolve_config(parser.parse_args(update)) == load_config(config_file, {"theta": 0.9})


# -- fuzz: only ValidationError may escape ----------------------------------------------

BAD_VALUES = [
    None, True, False, 0, -1, 1, 3, 2.5, 0.5, 10**400, math.nan, math.inf, -math.inf,
    "", "x", "3", "0.5", "nan", [], [1], {}, {"x": 1}, {"CAUSES": "x"}, {1: 0.5},
]


def _key_paths(data: dict, prefix=()):
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _mutate(rng: random.Random, data: dict) -> dict:
    data = deepcopy(data)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_key_paths(data)) + [("unknown",), ("retrieval", "unknown")])
        parent = data
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                parent[key] = {}
            parent = parent[key]
        if rng.random() < 0.15:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = deepcopy(rng.choice(BAD_VALUES))
    return data


def test_fuzzed_mappings_raise_only_validation_errors(tmp_path, caplog):
    rng = random.Random(20261018)
    base = _readme_config()
    outcomes = {"accepted": 0, "rejected": 0}
    path = tmp_path / "fuzz.yaml"
    with caplog.at_level(logging.ERROR, logger="causalrag"):
        for _ in range(600):
            data = _mutate(rng, base)
            flags = {"theta": None, "retrieval": {"k": None}}
            overrides = _mutate(rng, flags) if rng.random() < 0.3 else None
            path.write_text(yaml.safe_dump(data), encoding="utf-8")
            for read, args in ((config_from_mapping, (data,)), (load_config, (path, overrides))):
                try:
                    config = read(*args)
                except ValidationError:
                    outcomes["rejected"] += 1
                    continue
                outcomes["accepted"] += 1
                assert isinstance(config, PipelineConfig)
                json.dumps(config.echo(), sort_keys=True, allow_nan=False)
    assert outcomes["accepted"] > 50 and outcomes["rejected"] > 500, outcomes
