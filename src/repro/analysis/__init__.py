"""Self-hosted static analysis: the invariants of the reproduction, linted.

The reproducibility guarantees of this repository rest on conventions a
type checker cannot see: all randomness flows through seeded
:mod:`repro.sim.rng` streams, simulation time never mixes with host
time, seconds never silently mix with milliseconds, packages respect the
layering DAG, and process-pool payloads stay picklable.  This package
enforces them with AST passes over the source tree:

* :mod:`repro.analysis.determinism` — ``DET-*`` rules,
* :mod:`repro.analysis.units_lint` — ``UNIT-*`` rules,
* :mod:`repro.analysis.layering` — ``LAY-*`` rules from the declarative
  contract in ``layering.toml``,
* :mod:`repro.analysis.pickling` — ``PCK-*`` rules,
* :mod:`repro.analysis.ckpt` — ``CKPT-*`` rules (checkpoint-picklable
  callbacks and handles),
* :mod:`repro.analysis.concurrency` — ``CONC-*`` rules, flow-aware over
  the bounded call graph rooted at the pool-worker entry points,
* :mod:`repro.analysis.facade_lint` — ``API-SNAPSHOT``
  (``repro.api.__all__`` vs. the reviewed snapshot).

The flow-aware passes see the whole project through
:class:`~repro.analysis.project.ProjectModel` and
:class:`~repro.analysis.callgraph.CallGraph`; everything else is
per-file.  Each run parses every file once and shares the parses.

Run it as ``repro lint src/repro`` (exit code 1 on violations), or via
:func:`lint_paths`.  Deliberate exceptions are suppressed per line with
``# repro: noqa RULE-ID``; stale suppressions are themselves flagged
(``LINT-UNUSED-NOQA``).  The tier-1 test
``tests/analysis/test_codebase_clean.py`` gates every future change on a
clean run.  See ``docs/static_analysis.md`` for the full rule catalogue.
"""

from repro.analysis.callgraph import CallGraph, format_path
from repro.analysis.engine import (
    ALL_RULES,
    PROJECT_RULE_IDS,
    lint_module,
    lint_paths,
    render_json,
    render_rules,
    render_sarif,
    render_text,
)
from repro.analysis.layering import LayeringContract, load_contract, parse_contract
from repro.analysis.model import ModuleInfo, Rule, Violation, parse_source
from repro.analysis.project import ProjectModel, build_project

__all__ = [
    "ALL_RULES",
    "CallGraph",
    "LayeringContract",
    "ModuleInfo",
    "PROJECT_RULE_IDS",
    "ProjectModel",
    "Rule",
    "Violation",
    "build_project",
    "format_path",
    "lint_module",
    "lint_paths",
    "load_contract",
    "parse_contract",
    "parse_source",
    "render_json",
    "render_rules",
    "render_sarif",
    "render_text",
]
