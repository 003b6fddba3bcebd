"""Finding records produced by the static lint.

A :class:`Finding` pins one rule violation to a file/line/column.  Findings
are value objects: they sort deterministically (path, line, column, rule) so
text and JSON reports are byte-stable for a given tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Version stamp of the JSON report layout (bump on breaking changes).
JSON_REPORT_VERSION = 3


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

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
