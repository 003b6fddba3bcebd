"""Finding records produced by the determinism sanitizer.

A :class:`Finding` pins one rule violation to a file/line/column.  Findings
are value objects: they sort deterministically (path, line, column, rule) so
text and JSON reports are byte-stable for a given tree, and they reduce to a
*fingerprint* -- ``(rule, path, message)`` without the line number -- so a
committed baseline survives unrelated edits that only shift lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Version stamp of the JSON report layout (bump on breaking changes).
JSON_REPORT_VERSION = 2


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-independent identity used for baseline matching."""
        return (self.rule, self.path, self.message)

    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable dict (stable key order)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format_text(self) -> str:
        """One-line human-readable rendering (``path:line:col RULE message``)."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"
