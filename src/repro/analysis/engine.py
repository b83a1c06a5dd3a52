"""Lint driver: per-file passes, project passes, suppressions.

:func:`lint_paths` is the programmatic entry point (the CLI and the
tier-1 gate test both call it); :func:`lint_module` runs the per-file
passes over one already-parsed
:class:`~repro.analysis.model.ModuleInfo`, which is what the per-pass
unit tests use with synthetic sources.

A run parses every file once and feeds those parses to two kinds of
work:

* **Per-file passes** (DET/UNIT/LAY/PCK/CKPT) see one module at a time.
* **Project passes** (CONC-* over the call graph, API-SNAPSHOT) see a
  :class:`~repro.analysis.project.ProjectModel` over every file in the
  run.

Both produce **raw, pre-suppression** findings; suppression comments,
``--select`` filtering, and the stale-suppression check
(``LINT-UNUSED-NOQA``) are applied when the two are merged.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.analysis import (
    ckpt,
    concurrency,
    determinism,
    facade_lint,
    layering,
    pickling,
    units_lint,
)
from repro.analysis.callgraph import CallGraph
from repro.analysis.layering import LayeringContract, load_contract
from repro.analysis.model import (
    ModuleInfo,
    Rule,
    Violation,
    module_name_for,
    parse_source,
)
from repro.analysis.project import build_project
from repro.analysis.suppress import (
    NoqaComment,
    filter_suppressed,
    iter_noqa_comments,
    unused_noqa,
)
from repro.errors import AnalysisError

#: The meta-rule: a suppression comment that silences nothing.
UNUSED_NOQA_RULE = Rule(
    "LINT-UNUSED-NOQA",
    "suppression comments must suppress something",
    "a stale `# repro: noqa` outlives its violation and then hides the "
    "next real one on that line",
)

#: Every registered rule, keyed by id (the ``--list-rules`` source).
ALL_RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rules in (
        determinism.RULES,
        units_lint.RULES,
        layering.RULES,
        pickling.RULES,
        ckpt.RULES,
        concurrency.RULES,
        facade_lint.RULES,
        (UNUSED_NOQA_RULE,),
    )
    for rule in rules
}

#: Rule ids produced by project-wide passes (skipped under ``--changed``).
PROJECT_RULE_IDS = frozenset(
    {rule.rule_id for rule in concurrency.RULES} | {"API-SNAPSHOT"}
)


def _raw_local_violations(
    info: ModuleInfo, contract: LayeringContract
) -> list[Violation]:
    """Every per-file finding, before suppression or selection."""
    return [
        *determinism.check(info),
        *units_lint.check(info),
        *layering.check(info, contract=contract),
        *pickling.check(info),
        *ckpt.check(info),
    ]


def lint_module(
    info: ModuleInfo,
    contract: LayeringContract | None = None,
    select: frozenset[str] | None = None,
) -> list[Violation]:
    """All (unsuppressed) per-file violations, sorted by position."""
    if contract is None:
        contract = load_contract()
    violations = _raw_local_violations(info, contract)
    if select is not None:
        violations = [v for v in violations if v.rule_id in select]
    violations = filter_suppressed(violations, info)
    return sorted(violations, key=lambda v: (v.line, v.col, v.rule_id))


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
        elif not path.exists():
            raise AnalysisError(f"no such file or directory: {path}")
    return out


def _comment_suppressed(
    violation: Violation, comments: list[NoqaComment]
) -> bool:
    for comment in comments:
        if comment.line != violation.line:
            continue
        if not comment.rules or violation.rule_id in comment.rules:
            return True
    return False


def lint_paths(
    paths: Sequence[Path | str],
    contract_path: Path | None = None,
    select: Sequence[str] | None = None,
    project_rules: bool = True,
) -> tuple[list[Violation], int]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(violations, n_files_checked)``.  ``select`` narrows the
    *report* to the given rule ids (unknown ids raise
    :class:`~repro.errors.AnalysisError` rather than silently matching
    nothing); the underlying analysis always runs every rule so the
    stale-noqa check stays select-independent.

    ``project_rules=False`` skips the project-wide passes (CONC-*,
    API-SNAPSHOT) — the ``--changed`` mode, where a partial file set
    would make whole-project conclusions wrong.
    """
    selected: frozenset[str] | None = None
    if select:
        selected = frozenset(select)
        unknown = selected - set(ALL_RULES)
        if unknown:
            raise AnalysisError(f"unknown rule ids: {sorted(unknown)}")
    contract = load_contract(contract_path)
    files = iter_python_files([Path(p) for p in paths])

    # Phase 1: parse each file once and run the per-file passes.
    per_file: dict[str, tuple[list[Violation], list[NoqaComment]]] = {}
    infos: list[ModuleInfo] = []
    for file in files:
        path_str = str(file)
        try:
            source = file.read_bytes().decode("utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {file}: {exc}") from exc
        info = parse_source(
            source, module=module_name_for(file), path=path_str
        )
        infos.append(info)
        per_file[path_str] = (
            _raw_local_violations(info, contract),
            iter_noqa_comments(source),
        )

    # Phase 2: project passes over the same parses.
    project_raw: list[Violation] = []
    if project_rules:
        project = build_project(infos)
        graph = CallGraph(project)
        project_raw = [
            *concurrency.check_project(project, graph, contract),
            *facade_lint.check_project(project, contract),
        ]

    # Phase 3: merge — suppression, stale-noqa, selection (cheap).
    project_by_path: dict[str, list[Violation]] = {}
    for violation in project_raw:
        project_by_path.setdefault(violation.path, []).append(violation)

    known = frozenset(ALL_RULES)
    violations: list[Violation] = []
    for path_str, (raw, comments) in per_file.items():
        combined = [*raw, *project_by_path.get(path_str, [])]
        for violation in combined:
            if not _comment_suppressed(violation, comments):
                violations.append(violation)
        for comment, reason in unused_noqa(comments, combined, known):
            if not project_rules and (
                not comment.rules
                or any(r in PROJECT_RULE_IDS for r in comment.rules)
            ):
                # Without the project passes we cannot tell whether a
                # CONC/API suppression is live; don't cry stale.
                continue
            violations.append(
                Violation(
                    "LINT-UNUSED-NOQA",
                    path_str,
                    comment.line,
                    comment.col,
                    f"stale suppression: {reason}",
                    "delete the comment, or fix the rule list it names",
                )
            )
    if selected is not None:
        violations = [v for v in violations if v.rule_id in selected]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations, len(files)


def render_text(violations: list[Violation], n_files: int) -> str:
    """Human-readable report (one line per violation plus a summary)."""
    lines = [v.render() for v in violations]
    if violations:
        counts: dict[str, int] = {}
        for v in violations:
            counts[v.rule_id] = counts.get(v.rule_id, 0) + 1
        summary = ", ".join(f"{rid}: {n}" for rid, n in sorted(counts.items()))
        lines.append(
            f"{len(violations)} violation(s) in {n_files} file(s)  ({summary})"
        )
    else:
        lines.append(f"clean: {n_files} file(s), 0 violations")
    return "\n".join(lines)


def render_json(violations: list[Violation], n_files: int) -> str:
    """Machine-readable report (the ``--format json`` payload)."""
    counts: dict[str, int] = {}
    for v in violations:
        counts[v.rule_id] = counts.get(v.rule_id, 0) + 1
    return json.dumps(
        {
            "checked_files": n_files,
            "violations": [v.as_dict() for v in violations],
            "counts": counts,
            "clean": not violations,
        },
        indent=2,
    )


def render_sarif(violations: list[Violation], n_files: int) -> str:
    """SARIF 2.1.0 report (the ``--format sarif`` payload).

    The shape follows the static-analysis results interchange format so
    CI can upload the run to code scanning; rule metadata comes from
    :data:`ALL_RULES`, results carry one physical location each.
    """
    rules = [
        {
            "id": rule_id,
            "name": rule_id.replace("-", ""),
            "shortDescription": {"text": ALL_RULES[rule_id].title},
            "fullDescription": {"text": ALL_RULES[rule_id].rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id in sorted(ALL_RULES)
    ]
    rule_index = {rule_id: i for i, rule_id in enumerate(sorted(ALL_RULES))}
    results = [
        {
            "ruleId": v.rule_id,
            "ruleIndex": rule_index.get(v.rule_id, -1),
            "level": "error",
            "message": {
                "text": v.message + (f" ({v.hint})" if v.hint else "")
            },
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": v.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": v.line,
                            "startColumn": v.col + 1,
                        },
                    }
                }
            ],
        }
        for v in violations
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://github.com/repro/repro"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
                "properties": {"checkedFiles": n_files},
            }
        ],
    }
    return json.dumps(payload, indent=2)


def render_rules() -> str:
    """The ``--list-rules`` table: id, title, rationale."""
    lines = []
    for rule_id in sorted(ALL_RULES):
        rule = ALL_RULES[rule_id]
        lines.append(f"{rule_id:15s} {rule.title}")
        lines.append(f"{'':15s}   {rule.rationale}")
    return "\n".join(lines)
