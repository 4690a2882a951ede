"""repro-lint: AST rules for the repository's load-bearing invariants.

Seven performance PRs left the tree resting on contracts that only the
equivalence suites (and memory) enforced: RNG flows through seeded
streams, ``REPRO_*`` gates through one registry, pickled objects drop
process-local caches, cffi kernels receive cached addresses, iteration
orders stay deterministic.  This package checks those contracts *at diff
time* with ~9 custom AST rules:

========  ==============================================================
RL001     no stdlib ``random`` / hidden-global ``numpy.random`` draws /
          bare ``time.time()`` in ``src/repro`` — RNG must flow through
          :mod:`repro.utils.rng` / shard streams, time through injected
          clocks (wall-clock protocol modules are registry-declared)
RL002     no direct ``REPRO_*`` environment reads outside the declared
          gate-registry module (:mod:`repro.core.gates`)
RL003     every module-global gate setter (``set_*``) has a
          restore-guarded context-manager twin in the same module
RL004     registry-declared shard-crossing classes keep a
          ``__getstate__``/``__setstate__`` pair that addresses each of
          their process-local cache attributes
RL005     no ``ffi.from_buffer`` calls inside loops — cffi call sites
          pass cached addresses
RL006     no syntactic set expressions feeding ordering-sensitive sinks
          (``list``/``tuple``/``enumerate``/``iter`` or a bare ``for``)
          without an explicit sort
RL007     every NamedTuple in a wire-visible module is declared in
          ``simulation.wire``'s ``WIRE_MESSAGE_REGISTRY`` codec table
RL008     no unpickling (``pickle.loads``/``load``/``Unpickler``)
          outside the declared mailbox/checkpoint modules
RL009     no ``import gc`` / ``gc.*()`` call outside the declared
          runtime-policy module (:mod:`repro.utils.runtime`)
RL000     suppression hygiene: every inline suppression carries a
          non-empty reason
========  ==============================================================

Run it from the repo root::

    python -m tools.repro_lint src tests            # human output
    python -m tools.repro_lint src tests --json     # machine output

A finding is silenced inline with a *reasoned* suppression on the same
line::

    deadline = time.monotonic() + budget  # repro-lint: disable=RL001(wall-clock watchdog, not sim state)

The reason is mandatory — an empty or missing reason is itself a finding
(RL000).  There is deliberately no ``--fix``: every violation either has
a mechanical consolidation (do it) or a documented exception (write the
reason).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from tools.repro_lint.contracts import DEFAULT_CONTRACTS, Contracts

__all__ = [
    "Finding",
    "FileContext",
    "Project",
    "run_lint",
    "render_text",
    "render_json",
    "main",
]

#: first-lines marker letting fixture files opt into src/repro rule
#: scoping without living under src/repro
_FIXTURE_SRC_MARKER = "# repro-lint-fixture: treat-as-src"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=(?P<items>.*)$")
_ITEM_RE = re.compile(r"(RL\d{3})\s*(\(([^)]*)\))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """One parsed source file plus everything the rules need to know."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel)
        head = self.lines[:5]
        self.is_src = "src/repro/" in rel or any(
            line.strip() == _FIXTURE_SRC_MARKER for line in head
        )
        self._parents: dict[ast.AST, ast.AST] | None = None
        # line -> {rule: reason}; malformed entries become RL000 findings
        self.suppressions: dict[int, dict[str, str]] = {}
        self.bad_suppressions: list[tuple[int, str]] = []
        self._scan_suppressions()

    # -- suppression comments ------------------------------------------- #

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            items = match.group("items").strip()
            found_any = False
            for rule, parens, reason in _ITEM_RE.findall(items):
                found_any = True
                if not parens or not reason.strip():
                    self.bad_suppressions.append(
                        (
                            lineno,
                            f"suppression of {rule} carries no reason — "
                            f"write disable={rule}(<why this is safe>)",
                        )
                    )
                    continue
                self.suppressions.setdefault(lineno, {})[rule] = reason.strip()
            if not found_any:
                self.bad_suppressions.append(
                    (lineno, f"unparseable suppression {items!r}")
                )

    def is_suppressed(self, rule: str, line: int) -> bool:
        return rule in self.suppressions.get(line, {})

    # -- AST helpers ----------------------------------------------------- #

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily once)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def in_loop(self, node: ast.AST) -> bool:
        """Whether *node* sits inside a loop or comprehension."""
        parents = self.parents()
        current = parents.get(node)
        while current is not None:
            if isinstance(
                current,
                (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                 ast.GeneratorExp),
            ):
                return True
            current = parents.get(current)
        return False

    def matches(self, declared: str) -> bool:
        """Whether this file is the registry-declared *declared* path."""
        return self.rel == declared or self.rel.endswith("/" + declared)


class Project:
    """The full set of files one lint invocation covers."""

    def __init__(self, contexts: list[FileContext], contracts: Contracts) -> None:
        self.contexts = contexts
        self.contracts = contracts

    def find(self, declared: str) -> FileContext | None:
        for ctx in self.contexts:
            if ctx.matches(declared):
                return ctx
        return None


def _collect_files(
    paths: Sequence[str], exclude_dirs: Iterable[str]
) -> list[Path]:
    excluded = set(exclude_dirs)
    files: list[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            # explicitly named files are always linted
            files.append(root)
        elif root.is_dir():
            for candidate in sorted(root.rglob("*.py")):
                relative = candidate.relative_to(root)
                if any(part in excluded for part in relative.parts[:-1]):
                    continue
                files.append(candidate)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return files


def load_project(
    paths: Sequence[str], contracts: Contracts = DEFAULT_CONTRACTS
) -> Project:
    """Parse every Python file under *paths* into a :class:`Project`."""
    contexts: list[FileContext] = []
    for path in _collect_files(paths, contracts.exclude_dirs):
        rel = path.as_posix()
        contexts.append(FileContext(path, rel, path.read_text()))
    return Project(contexts, contracts)


def run_lint(
    paths: Sequence[str], contracts: Contracts = DEFAULT_CONTRACTS
) -> list[Finding]:
    """Run every rule over *paths*; returns unsuppressed findings."""
    from tools.repro_lint.rules import ALL_RULES

    project = load_project(paths, contracts)
    findings: list[Finding] = []
    for ctx in project.contexts:
        for line, message in ctx.bad_suppressions:
            findings.append(Finding("RL000", ctx.rel, line, 1, message))
    for rule in ALL_RULES:
        for finding in rule(project):
            ctx = next(c for c in project.contexts if c.rel == finding.path)
            if ctx.is_suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_text(findings: list[Finding]) -> str:
    if not findings:
        return "repro-lint: clean"
    body = "\n".join(f.render() for f in findings)
    return f"{body}\nrepro-lint: {len(findings)} finding(s)"


def render_json(findings: list[Finding]) -> str:
    return json.dumps(
        {
            "tool": "repro-lint",
            "findings": [f.as_dict() for f in findings],
            "count": len(findings),
        },
        indent=2,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import argparse

    from tools.repro_lint.rules import rule_table

    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description="AST lint for the repo's determinism/gate/pickle contracts",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"])
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(rule_table())
        return 0
    try:
        findings = run_lint(args.paths or ["src", "tests"])
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"repro-lint: error: {exc}")
        return 2
    print(render_json(findings) if args.json else render_text(findings))
    return 1 if findings else 0
