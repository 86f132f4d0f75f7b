"""Finding records produced by simlint rules.

A :class:`Finding` pins one rule violation to a ``file:line`` location
with an actionable fix hint.  Every finding fails the lint run.
Findings are value objects: reporters (text, JSON) and the CLI exit
code are derived from them, and tests compare them directly.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    message: str
    col: int = 0
    hint: str = ""

    @property
    def location(self) -> str:
        """The clickable ``file:line`` anchor of the finding."""
        return f"{self.path}:{self.line}"

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable ordering: by file, then line, column, and rule id."""
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation (the JSON reporter's rows)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """One text-reporter block for this finding."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def exit_code(findings: list[Finding]) -> int:
    """CLI exit code for a finding list (1 when any, else 0)."""
    return 1 if findings else 0
