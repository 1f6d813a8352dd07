"""Dictionary-based entity linking over graph node names and aliases.

Surface forms are normalized (lowercased, punctuation collapsed to spaces,
whitespace squeezed) and matched against free text with a greedy
longest-match scan, so a longer surface suppresses any shorter surface
nested at the same position. Only a token that starts some surface is
matched against the index, so any other token costs one set lookup. The
index is exact-match only by design; a smarter recognizer can be swapped in
as any object with a ``link(text)`` method and a ``graph`` attribute naming
the graph whose ids it returns.
"""

from __future__ import annotations

import logging
import re
from itertools import compress
from operator import itemgetter
from typing import Collection, Iterable

from .errors import open_text, tsv_rows
from .graph import KnowledgeGraph

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+")


def _tokens(text: str) -> list[str]:
    """Lowercased runs of letters and digits; ``_`` separates, as punctuation does."""
    return _TOKEN_RE.findall(text.lower())


class LinkerIndex:
    """Normalized surface form -> ``graph``'s node ids, built once, read-only."""

    def __init__(self, entries: dict[tuple[str, ...], Collection[str]], graph: KnowledgeGraph):
        self.graph = graph
        self._entries = {tokens: ids for tokens, ids in entries.items() if tokens and ids}
        self._starts = frozenset(map(itemgetter(0), self._entries))
        self._max_tokens = max(map(len, self._entries), default=0)

    def link(self, text: str) -> frozenset[str]:
        """All node ids matched in ``text`` by greedy longest-match scanning."""
        tokens = _tokens(text or "")
        found: set[str] = set()
        i = 0
        n = len(tokens)
        while i < n:
            if tokens[i] in self._starts:
                for width in range(min(self._max_tokens, n - i), 0, -1):
                    ids = self._entries.get(tuple(tokens[i : i + width]))
                    if ids:
                        found.update(ids)
                        i += width - 1
                        break
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
    ids, names, sets, node_sets = graph.node_columns
    surfaces = list(map(tuple, map(_tokens, names)))
    # One surface per name, each with its one id; names that share a surface
    # are grouped again, below, into one tuple of their ids.
    entries = dict(zip(surfaces, zip(ids)))

    def add(surface: tuple[str, ...], node_id: str) -> None:
        present = entries.get(surface, ())
        if node_id not in present:
            entries[surface] = (*present, node_id)

    if len(entries) < len(surfaces):
        entries.clear()
        for surface, node_id in zip(surfaces, ids):
            add(surface, node_id)
    alias_sets = list(map(sets.__getitem__, node_sets[len(ids) :]))
    for node_id, aliases in compress(zip(ids, alias_sets), alias_sets):
        for alias in aliases:
            add(tuple(_tokens(alias)), node_id)

    unknown = 0
    for cui, alias in extra_aliases:
        if graph.has_node(cui):
            add(tuple(_tokens(alias)), cui)
        else:
            unknown += 1
    if unknown:
        logger.warning("skipped %d alias rows naming an unknown CUI", unknown)

    return LinkerIndex(entries, graph)


def load_alias_file(path) -> list[tuple[str, str]]:
    """Read supplementary aliases from a TSV of cui<TAB>alias rows.

    Blank lines and '#' comments are skipped; rows without a CUI and an
    alias are dropped, with one warning carrying their count.
    """
    rows: list[tuple[str, str]] = []
    malformed = 0
    with open_text(path) as fh:
        for _, fields in tsv_rows(fh):
            if len(fields) < 2 or not fields[0] or not fields[1]:
                malformed += 1
                continue
            rows.append((fields[0], fields[1]))
    if malformed:
        logger.warning("%s: skipped %d malformed alias rows", path, malformed)
    return rows
