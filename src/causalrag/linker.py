"""Dictionary-based entity linking over graph node names and aliases.

Surface forms are normalized (lowercased, punctuation collapsed to spaces,
whitespace squeezed) and matched against free text with a greedy
longest-match scan, so a longer surface suppresses any shorter surface
nested at the same position. The index is exact-match only by design; a
smarter recognizer can be swapped in anywhere a ``link(text)`` callable is
accepted.
"""

from __future__ import annotations

import logging
import re
from typing import Iterable

from .errors import naming_undecodable
from .graph import KnowledgeGraph

logger = logging.getLogger(__name__)

_NON_WORD_RE = re.compile(r"[\W_]+", re.UNICODE)


def normalize_surface(text: str) -> str:
    """Lowercase, strip punctuation to spaces, collapse whitespace."""
    return " ".join(_NON_WORD_RE.sub(" ", text.lower()).split())


class LinkerIndex:
    """Normalized surface form -> node id set, built once and then read-only."""

    def __init__(self, entries: dict[tuple[str, ...], set[str]]):
        self._entries = {tokens: frozenset(ids) for tokens, ids in entries.items()}
        self._max_tokens = max((len(tokens) for tokens in self._entries), default=0)

    def __len__(self) -> int:
        return len(self._entries)

    def link(self, text: str) -> frozenset[str]:
        """All node ids matched in ``text`` by greedy longest-match scanning."""
        tokens = normalize_surface(text or "").split()
        found: set[str] = set()
        i = 0
        n = len(tokens)
        while i < n:
            longest = min(self._max_tokens, n - i)
            for width in range(longest, 0, -1):
                ids = self._entries.get(tuple(tokens[i : i + width]))
                if ids:
                    found |= ids
                    i += width
                    break
            else:
                i += 1
        return frozenset(found)


def build_index(
    graph: KnowledgeGraph,
    extra_aliases: Iterable[tuple[str, str]] = (),
) -> LinkerIndex:
    """Index every node name and alias; optional (cui, alias) rows merge in.

    Rows naming a CUI absent from the graph are skipped, with one warning
    for all of them, so a shared alias file can cover more concepts than one
    graph contains.
    """
    entries: dict[tuple[str, ...], set[str]] = {}

    def add(surface: str, node_id: str) -> None:
        tokens = tuple(normalize_surface(surface).split())
        if not tokens:
            return
        entries.setdefault(tokens, set()).add(node_id)

    for node in graph.nodes():
        add(node.name, node.id)
        for alias in node.aliases:
            add(alias, node.id)

    unknown = 0
    for cui, alias in extra_aliases:
        if graph.has_node(cui):
            add(alias, cui)
        else:
            unknown += 1
    if unknown:
        logger.warning("skipped %d alias rows naming an unknown CUI", unknown)

    return LinkerIndex(entries)


def load_alias_file(path) -> list[tuple[str, str]]:
    """Read supplementary aliases from a TSV of cui<TAB>alias rows.

    Blank lines and '#' comments are skipped; rows without a CUI and an
    alias are dropped, with one warning carrying their count.
    """
    rows: list[tuple[str, str]] = []
    malformed = 0
    with naming_undecodable(path), open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n").rstrip("\r")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = [f.strip() for f in line.split("\t")]
            if len(fields) < 2 or not fields[0] or not fields[1]:
                malformed += 1
                continue
            rows.append((fields[0], fields[1]))
    if malformed:
        logger.warning("%s: skipped %d malformed alias rows", path, malformed)
    return rows
