"""File walker and rule runner.

``run_lint(paths)`` builds a :class:`ModuleContext` per Python file, runs
every rule's per-module pass, runs the project-level passes once over all
contexts, filters findings through inline suppressions, and finally emits
``RL00`` hygiene findings for malformed or unused suppressions.  Findings
come back sorted by ``(path, line, col, rule)`` so output is stable.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules


def iter_python_files(paths: Sequence[str]) -> List[str]:
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(dict.fromkeys(out))


def _selected_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    rules = all_rules()
    if select is None:
        return rules
    wanted = set(select)
    unknown = wanted - {rule.id for rule in rules}
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
    return [rule for rule in rules if rule.id in wanted]


def _apply_suppressions(
    ctx: ModuleContext, findings: Iterable[Finding]
) -> List[Finding]:
    kept = []
    for finding in findings:
        if not ctx.suppressions.covers(finding.line, finding.rule):
            kept.append(finding)
    return kept


def _hygiene_findings(ctx: ModuleContext, check_unused: bool) -> List[Finding]:
    findings = []
    table = ctx.suppressions
    for line, message in zip(table.problem_lines, table.problems):
        findings.append(
            Finding(rule="RL00", path=ctx.path, line=line, col=0, message=message)
        )
    if check_unused:
        for suppression in table.directives:
            if not suppression.used_for:
                findings.append(
                    Finding(
                        rule="RL00",
                        path=ctx.path,
                        line=suppression.line,
                        col=0,
                        message=(
                            "unused suppression "
                            f"(disable={','.join(sorted(suppression.codes))}); "
                            "remove it so the contract stays tight"
                        ),
                    )
                )
    return findings


def lint_contexts(
    ctxs: Sequence[ModuleContext], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    rules = _selected_rules(select)
    findings: List[Finding] = []
    for ctx in ctxs:
        module_findings: List[Finding] = []
        for rule in rules:
            module_findings.extend(rule.check_module(ctx))
        findings.extend(_apply_suppressions(ctx, module_findings))
    # Project-level passes: findings land on their own ctx's suppressions.
    by_path = {ctx.path: ctx for ctx in ctxs}
    for rule in rules:
        for finding in rule.check_project(ctxs):
            ctx = by_path[finding.path]
            findings.extend(_apply_suppressions(ctx, [finding]))
    # Only audit for unused suppressions when the full rule set ran: with
    # --select, a suppression for an unselected rule is legitimately idle.
    check_unused = select is None
    for ctx in ctxs:
        findings.extend(_hygiene_findings(ctx, check_unused))
    return sorted(findings, key=Finding.sort_key)


def run_lint(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], int]:
    """Lint files/directories; returns (findings, files_checked)."""
    ctxs = []
    errors: List[Finding] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        try:
            ctxs.append(ModuleContext(path, source))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule="RL00",
                    path=path,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    findings = lint_contexts(ctxs, select=select)
    findings.extend(errors)
    return sorted(findings, key=Finding.sort_key), len(ctxs)


def lint_source(
    source: str,
    module: str,
    select: Optional[Sequence[str]] = None,
    path: str = "<fixture>",
) -> List[Finding]:
    """Lint one in-memory snippet as if it lived at ``module`` (test helper)."""
    ctx = ModuleContext(path, source, module=module)
    return lint_contexts([ctx], select=select)
