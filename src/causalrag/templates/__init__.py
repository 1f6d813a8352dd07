"""Built-in prompt templates and their file-based overrides."""

from __future__ import annotations

import functools
import re
from importlib import resources

from ..errors import ValidationError, open_text

NO_EVIDENCE_MARKER = "[no graph evidence found]"

_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


def load_template(name: str, override_path: str | None = None) -> str:
    """Read a prompt template, preferring an override file when given.

    An override file is read on every call; a built-in one once per process.
    """
    if override_path:
        with open_text(override_path) as fh:
            return fh.read()
    return _builtin_template(name)


@functools.cache
def _builtin_template(name: str) -> str:
    try:
        return resources.files(__name__).joinpath(name).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"unknown built-in template {name!r}") from None


def fill_template(template: str, **values: str) -> str:
    """Substitute {name} placeholders in one pass over the template.

    A substituted value is never scanned again, so a question holding
    ``{options}`` stays literal; unknown placeholders and stray braces stay
    untouched.
    """
    return _PLACEHOLDER_RE.sub(lambda m: values.get(m.group(1), m.group(0)), template)
