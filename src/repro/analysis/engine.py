"""The AST lint engine: rule framework, dispatch and suppressions.

A :class:`~repro.analysis.rules.Rule` declares the AST node types it is
interested in; the engine parses each module once, walks the tree once,
and dispatches every node to the rules registered for its type (a
visitor registry — adding a rule never adds another tree walk).  After
the per-node walk, rules get a **project phase**: :meth:`Rule.finish`
runs once per lint run with a :class:`~repro.analysis.program.Program`
spanning every linted module — this is where the call-graph rule
(DET003) and the suppression audit (NOQ001) live, because their questions
("does this call transitively reach the wall clock?") are about programs,
not single nodes.

Suppressions follow the project convention::

    something_flagged()  # repro: noqa[DET001]
    another_thing()      # repro: noqa[DET001,API001]
    blanket_escape()     # repro: noqa

A suppression applies to the physical line the finding is anchored to,
and must be a real comment — the engine tokenizes the source, so the
examples above (inside this docstring) suppress nothing.  Suppressions
that suppress nothing are themselves findings (NOQ001, and those are not
suppressible: delete the comment instead).  Unparseable files surface as
``PARSE001`` findings rather than crashing the run, so one bad file
cannot hide findings in the rest of a tree.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.program import Program, SuppressionRecord
from repro.analysis.rules import RULE_REGISTRY, Rule, default_rules

#: A suppression comment: ``repro: noqa`` or ``repro: noqa[CODE,...]``.
#: Anchored at the start of the comment text, so prose that merely
#: *mentions* the syntax (like this very comment) is not a directive.
_NOQA_PATTERN = re.compile(
    r"^#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9_,\s]+)\])?"
)

#: Module prefixes treated as simulation paths by determinism rules.
SIM_SCOPE_PREFIXES = (
    "repro.net",
    "repro.core",
    "repro.faults",
    "repro.load",
    "repro.autoscale",
    "repro.anomaly",
)


def module_name_for(path: str) -> str:
    """The dotted module name a file path denotes.

    The name is rooted at the last ``repro`` component so both installed
    trees (``src/repro/net/switch.py``) and synthetic fixture paths
    (``repro/net/fake.py``) resolve identically; paths outside a
    ``repro`` tree fall back to their stem.
    """
    parts = Path(path).with_suffix("").parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            selected = parts[index:]
            if selected[-1] == "__init__":
                selected = selected[:-1]
            return ".".join(selected)
    return parts[-1] if parts else ""


class LintContext:
    """Per-module state shared by every rule during one walk."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module_name_for(path)

    @property
    def in_sim_scope(self) -> bool:
        """True for modules on the deterministic simulation paths."""
        return self.module.startswith(SIM_SCOPE_PREFIXES)

    def finding(
        self, node: ast.AST, code: str, message: str, *, severity: str = "error"
    ) -> Finding:
        """A finding anchored at *node* (1-based line, 0-based column)."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
            severity=severity,
        )


def _comment_lines(source: str) -> Iterator[tuple[int, str]]:
    """(line, text) for every comment token; tolerant of broken tails.

    Tokenizing (rather than regex-scanning raw lines) keeps string
    literals — docstrings documenting the noqa syntax, say — from being
    read as live suppressions.  Sources the tokenizer rejects outright
    fall back to the lexical scan so suppression behaviour degrades
    rather than disappearing.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for line_number, line in enumerate(source.splitlines(), 1):
            if "#" in line:
                yield line_number, line[line.index("#") :]


def _suppression_records(path: str, source: str) -> dict[int, SuppressionRecord]:
    """``{line: record}`` for every ``# repro: noqa`` comment."""
    records: dict[int, SuppressionRecord] = {}
    for line_number, text in _comment_lines(source):
        match = _NOQA_PATTERN.search(text)
        if match is None:
            continue
        codes = match.group("codes")
        records[line_number] = SuppressionRecord(
            path,
            line_number,
            None
            if codes is None
            else frozenset(
                code.strip() for code in codes.split(",") if code.strip()
            ),
        )
    return records


class LintEngine:
    """Runs a set of rules over source files, modules or trees."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: tuple[Rule, ...] = (
            tuple(rules) if rules is not None else tuple(default_rules())
        )
        # Visitor registry: AST node type -> rules interested in it.
        self._dispatch: dict[type[ast.AST], list[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    # --- public entry points ------------------------------------------------

    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one module's source text."""
        return self._run([(path, source)])

    def lint_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        """Lint files and directory trees (``*.py``, sorted for stability).

        All files form one program: the project-phase rules (call graph,
        suppression audit) see them together, so facts like
        "this helper reaches the wall clock" cross file boundaries.
        """
        files: list[tuple[str, str]] = []
        for path in paths:
            for file_path in _python_files(Path(path)):
                files.append(
                    (str(file_path), file_path.read_text(encoding="utf-8"))
                )
        return self._run(files)

    # --- the run ------------------------------------------------------------

    def _run(self, files: Sequence[tuple[str, str]]) -> list[Finding]:
        findings: list[Finding] = []
        contexts: list[LintContext] = []
        walked: list[tuple[LintContext, list[Finding]]] = []
        for path, source in files:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as error:
                findings.append(
                    Finding(
                        path=path,
                        line=error.lineno or 1,
                        col=(error.offset or 1) - 1,
                        code="PARSE001",
                        message=f"could not parse module: {error.msg}",
                    )
                )
                continue
            context = LintContext(path=path, source=source, tree=tree)
            contexts.append(context)
            walked.append((context, self._walk(context)))

        program = Program(contexts)
        program.ran_codes = frozenset(rule.code for rule in self.rules)
        program.complete = program.ran_codes >= frozenset(RULE_REGISTRY)
        records_by_path: dict[str, dict[int, SuppressionRecord]] = {}
        for context, raw in walked:
            records = _suppression_records(context.path, context.source)
            records_by_path[context.path] = records
            program.suppressions.extend(
                records[line] for line in sorted(records)
            )
            findings.extend(_apply_suppressions(raw, records))

        for rule in sorted(
            self.rules, key=lambda rule: (rule.finish_priority, rule.code)
        ):
            produced = list(rule.finish(program))
            if rule.suppressible:
                by_path: dict[str, list[Finding]] = {}
                for finding in produced:
                    by_path.setdefault(finding.path, []).append(finding)
                produced = []
                for path, group in by_path.items():
                    produced.extend(
                        _apply_suppressions(
                            group, records_by_path.get(path, {})
                        )
                    )
            findings.extend(produced)
        return sorted(findings)

    def _walk(self, context: LintContext) -> list[Finding]:
        """Per-node rule findings for one module (pre-suppression)."""
        for rule in self.rules:
            rule.prepare(context)
        raw: list[Finding] = []
        for node in ast.walk(context.tree):
            for rule in self._dispatch.get(type(node), ()):
                raw.extend(rule.visit(node, context))
        return raw


def _apply_suppressions(
    raw: Iterable[Finding], records: dict[int, SuppressionRecord]
) -> list[Finding]:
    """Drop suppressed findings, marking each record that earned it."""
    kept: list[Finding] = []
    for finding in raw:
        record = records.get(finding.line)
        if record is not None and (
            record.codes is None or finding.code in record.codes
        ):
            record.used_codes.add(finding.code)
            continue
        kept.append(finding)
    return kept


def _python_files(path: Path) -> Iterator[Path]:
    if path.is_dir():
        yield from sorted(path.rglob("*.py"))
    else:
        yield path


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint source text with the default rule set."""
    return LintEngine().lint_source(source, path=path)


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint files/trees with the default rule set."""
    return LintEngine().lint_paths(paths)
