"""Data model of the static-analysis suite: rules, violations, modules.

A *rule* is a named invariant with a stable id (``DET-TIME``,
``LAY-DAG``, ...).  A *violation* is one concrete breach of a rule at a
``file:line``.  A :class:`ModuleInfo` bundles everything a lint pass
needs to inspect one module — path, dotted module name, source text and
parsed AST — so passes stay pure functions of their input and are
trivially testable against synthetic sources.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import AnalysisError


@dataclass(frozen=True)
class Rule:
    """One enforced invariant.

    Attributes
    ----------
    rule_id:
        Stable identifier used in reports and suppression comments.
    title:
        One-line statement of the invariant.
    rationale:
        Why the invariant is load-bearing for the reproduction.
    """

    rule_id: str
    title: str
    rationale: str


@dataclass(frozen=True)
class Violation:
    """One breach of a rule, pointing at ``file:line``.

    ``hint`` tells the author how to fix the breach (or how to suppress
    it with ``# repro: noqa RULE-ID`` when the flagged construct is
    deliberate).
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self) -> str:
        """``file:line:col: RULE-ID message (hint)``, the text format."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"  [{self.hint}]"
        return text

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable form (the ``--format json`` row)."""
        return {
            "rule": self.rule_id,
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class ModuleInfo:
    """One parsed module, ready for lint passes.

    Attributes
    ----------
    path:
        Filesystem path (as given; kept relative when the caller passed
        a relative root so reports are stable across machines).
    module:
        Dotted module name, e.g. ``repro.cluster.clock``.  Scoped rules
        key off this, so synthetic test trees only need a ``repro/``
        directory to be linted exactly like the real package.
    source:
        Full source text.
    tree:
        The parsed AST.
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    _lines: list[str] = field(default_factory=list, repr=False)

    @property
    def lines(self) -> list[str]:
        """Source split into physical lines (cached, 1-indexed via [n-1])."""
        if not self._lines:
            self._lines = self.source.splitlines()
        return self._lines

    def package(self) -> str:
        """Second dotted component (``repro.cluster.clock`` → ``cluster``).

        Top-level modules (``repro.units``) return their own name
        (``units``); modules outside ``repro`` return ``""`` so scoped
        rules skip them.
        """
        parts = self.module.split(".")
        if not parts or parts[0] != "repro":
            return ""
        if len(parts) == 1:
            return ""
        return parts[1]


def module_name_for(path: Path) -> str:
    """Derive the dotted module name of ``path`` from the ``repro`` package.

    The package root is the last directory named ``repro`` on the path
    that holds an ``__init__.py``, so ``src/repro/sim/engine.py`` and a
    synthetic tree ``/tmp/x/repro/sim/engine.py`` (with its
    ``repro/__init__.py``) both map to ``repro.sim.engine``, while a
    checkout directory that happens to be named ``repro`` does not make
    ``examples/demo.py`` part of the package.  Files outside the
    package fall back to their stem.
    """
    parts = path.with_suffix("").parts
    anchor = None
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and Path(*parts[: i + 1], "__init__.py").is_file():
            anchor = i
    if anchor is None:
        return path.stem
    dotted = list(parts[anchor:])
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def load_module(path: Path, display_path: str | None = None) -> ModuleInfo:
    """Read and parse one file into a :class:`ModuleInfo`.

    Raises :class:`~repro.errors.AnalysisError` when the file cannot be
    read or parsed — a lint run must not silently skip broken inputs.
    """
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    return ModuleInfo(
        path=display_path if display_path is not None else str(path),
        module=module_name_for(path),
        source=source,
        tree=tree,
    )


def parse_source(source: str, module: str, path: str = "<string>") -> ModuleInfo:
    """Parse in-memory source as ``module`` (the unit-test entry point)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    return ModuleInfo(path=path, module=module, source=source, tree=tree)
