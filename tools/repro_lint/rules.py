"""The RL rule implementations.

Each rule is a callable ``(project: Project) -> list[Finding]`` whose
docstring's first line is the user-facing summary.  Rules are scoped by
:class:`tools.repro_lint.contracts.Contracts` — the registries declaring
which modules own which exception — and by ``ctx.is_src`` (tests are
free to read gates, measure wall-clock time, and unpickle round-trips;
``src/repro`` is not).
"""

from __future__ import annotations

import ast

from tools.repro_lint import FileContext, Finding, Project

__all__ = ["ALL_RULES", "rule_table"]


def _finding(rule: str, ctx: FileContext, node: ast.AST, message: str) -> Finding:
    return Finding(
        rule,
        ctx.rel,
        getattr(node, "lineno", 1),
        getattr(node, "col_offset", 0) + 1,
        message,
    )


def _is_name(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Name) and node.id in names


def _attr_on(node: ast.AST, attr: str, *value_names: str) -> bool:
    """Whether *node* is ``<name>.<attr>`` for one of *value_names*."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and _is_name(node.value, *value_names)
    )


def _in_declared(ctx: FileContext, declared: tuple[str, ...]) -> bool:
    return any(ctx.matches(path) for path in declared)


# --------------------------------------------------------------------------- #
# RL001 — determinism: no ambient RNG or wall-clock reads in src/repro        #
# --------------------------------------------------------------------------- #


def rl001(project: Project) -> list[Finding]:
    """ambient RNG / wall-clock read in src/repro hot path"""
    contracts = project.contracts
    findings: list[Finding] = []
    for ctx in project.contexts:
        if not ctx.is_src:
            continue
        wall_clock_ok = _in_declared(ctx, contracts.wall_clock_modules)
        numpy_aliases = {"numpy"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        findings.append(
                            _finding(
                                "RL001",
                                ctx,
                                node,
                                "stdlib `random` draws from ambient state; "
                                "route RNG through repro.utils.rng streams",
                            )
                        )
                    elif alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    findings.append(
                        _finding(
                            "RL001",
                            ctx,
                            node,
                            "stdlib `random` draws from ambient state; "
                            "route RNG through repro.utils.rng streams",
                        )
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in contracts.np_random_ok:
                            findings.append(
                                _finding(
                                    "RL001",
                                    ctx,
                                    node,
                                    f"numpy.random.{alias.name} uses the hidden "
                                    "global generator; derive a Generator from "
                                    "repro.utils.rng instead",
                                )
                            )
        # second pass: calls (numpy aliases are now known)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if _attr_on(func, "time", "time"):
                findings.append(
                    _finding(
                        "RL001",
                        ctx,
                        node,
                        "bare time.time() in a simulation path; time must "
                        "flow through injected clocks (cycle counters)",
                    )
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("monotonic", "perf_counter", "sleep")
                and _is_name(func.value, "time")
                and not wall_clock_ok
            ):
                findings.append(
                    _finding(
                        "RL001",
                        ctx,
                        node,
                        f"time.{func.attr}() outside the declared wall-clock "
                        "modules; simulation state must not depend on host "
                        "timing",
                    )
                )
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in numpy_aliases
                and func.attr not in contracts.np_random_ok
            ):
                findings.append(
                    _finding(
                        "RL001",
                        ctx,
                        node,
                        f"numpy.random.{func.attr}() draws from the hidden "
                        "global generator; use a seeded Generator from "
                        "repro.utils.rng",
                    )
                )
    return findings


# --------------------------------------------------------------------------- #
# RL002 — REPRO_* env reads only in the gate-registry module                  #
# --------------------------------------------------------------------------- #


def _repro_key(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.startswith("REPRO_"):
            return node.value
    return None


def rl002(project: Project) -> list[Finding]:
    """REPRO_* environment read outside the gate-registry module"""
    findings: list[Finding] = []
    registry = project.contracts.gate_registry_module
    for ctx in project.contexts:
        if not ctx.is_src or ctx.matches(registry):
            continue
        for node in ast.walk(ctx.tree):
            key: str | None = None
            if isinstance(node, ast.Call):
                func = node.func
                is_environ_get = (
                    isinstance(func, ast.Attribute)
                    and func.attr == "get"
                    and _attr_on(func.value, "environ", "os")
                )
                is_getenv = _attr_on(func, "getenv", "os")
                if (is_environ_get or is_getenv) and node.args:
                    key = _repro_key(node.args[0])
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                if _attr_on(node.value, "environ", "os"):
                    key = _repro_key(node.slice)
            elif isinstance(node, ast.Compare):
                if (
                    len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.In, ast.NotIn))
                    and _attr_on(node.comparators[0], "environ", "os")
                ):
                    key = _repro_key(node.left)
            if key is not None:
                findings.append(
                    _finding(
                        "RL002",
                        ctx,
                        node,
                        f"direct read of {key}; consume repro.core.gates "
                        "helpers (or RunConfig) instead",
                    )
                )
    return findings


# --------------------------------------------------------------------------- #
# RL003 — gate setters need restore-guarded context-manager twins             #
# --------------------------------------------------------------------------- #


def _is_contextmanager(func: ast.FunctionDef) -> bool:
    for decorator in func.decorator_list:
        if _is_name(decorator, "contextmanager", "asynccontextmanager"):
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr in (
            "contextmanager",
            "asynccontextmanager",
        ):
            return True
    return False


def _mutates_module_state(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            return True
        if isinstance(node, ast.Call) and _is_name(node.func, "globals"):
            return True
    return False


def rl003(project: Project) -> list[Finding]:
    """module-global gate setter without a restore-guarded context manager"""
    findings: list[Finding] = []
    for ctx in project.contexts:
        if not ctx.is_src:
            continue
        setters = [
            node
            for node in ctx.tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("set_")
            and _mutates_module_state(node)
        ]
        if not setters:
            continue
        restored: set[str] = set()
        for node in ctx.tree.body:
            if not isinstance(node, ast.FunctionDef) or not _is_contextmanager(
                node
            ):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Try):
                    for final_stmt in sub.finalbody:
                        for call in ast.walk(final_stmt):
                            if isinstance(call, ast.Call) and isinstance(
                                call.func, ast.Name
                            ):
                                restored.add(call.func.id)
        for setter in setters:
            if setter.name not in restored:
                findings.append(
                    _finding(
                        "RL003",
                        ctx,
                        setter,
                        f"gate setter {setter.name}() has no context-manager "
                        "twin restoring it in a finally block",
                    )
                )
    return findings


# --------------------------------------------------------------------------- #
# RL004 — shard-crossing classes drop process-local caches on pickle         #
# --------------------------------------------------------------------------- #


def rl004(project: Project) -> list[Finding]:
    """shard-crossing class without a cache-dropping pickle pair"""
    findings: list[Finding] = []
    for declared_path, classes in project.contracts.pickle_safe_classes.items():
        ctx = project.find(declared_path)
        if ctx is None:
            continue
        defined = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        for class_name, cache_attrs in classes.items():
            cls = defined.get(class_name)
            if cls is None:
                findings.append(
                    Finding(
                        "RL004",
                        ctx.rel,
                        1,
                        1,
                        f"registry-declared class {class_name} not found — "
                        "update the pickle-safety registry in "
                        "tools/repro_lint/contracts.py",
                    )
                )
                continue
            methods = {
                node.name: node
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
            }
            getstate = methods.get("__getstate__")
            setstate = methods.get("__setstate__")
            if getstate is None or setstate is None:
                findings.append(
                    _finding(
                        "RL004",
                        ctx,
                        cls,
                        f"{class_name} crosses the shard boundary but lacks a "
                        "__getstate__/__setstate__ pair dropping its "
                        "process-local caches",
                    )
                )
                continue
            pair_src = (ast.get_source_segment(ctx.source, getstate) or "") + (
                ast.get_source_segment(ctx.source, setstate) or ""
            )
            for attr in cache_attrs:
                if attr not in pair_src:
                    findings.append(
                        _finding(
                            "RL004",
                            ctx,
                            getstate,
                            f"pickle pair of {class_name} does not address "
                            f"the process-local cache {attr!r}",
                        )
                    )
    return findings


# --------------------------------------------------------------------------- #
# RL005 — no from_buffer marshaling inside loops                              #
# --------------------------------------------------------------------------- #


def rl005(project: Project) -> list[Finding]:
    """ffi.from_buffer call inside a loop"""
    findings: list[Finding] = []
    for ctx in project.contexts:
        if not ctx.is_src:
            continue
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_buffer"
                and ctx.in_loop(node)
            ):
                findings.append(
                    _finding(
                        "RL005",
                        ctx,
                        node,
                        "from_buffer inside a loop re-marshals per iteration; "
                        "pass cached addresses (the _nd descriptor / column "
                        "address pattern) instead",
                    )
                )
    return findings


# --------------------------------------------------------------------------- #
# RL006 — set iteration must not feed ordering-sensitive sinks                #
# --------------------------------------------------------------------------- #


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _is_name(node.func, "set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def rl006(project: Project) -> list[Finding]:
    """set expression feeding an ordering-sensitive sink"""
    findings: list[Finding] = []
    sinks = ("list", "tuple", "enumerate", "iter")
    for ctx in project.contexts:
        if not ctx.is_src:
            continue
        for node in ast.walk(ctx.tree):
            flagged: ast.AST | None = None
            what = ""
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                flagged, what = node.iter, "for-loop over"
            elif (
                isinstance(node, ast.Call)
                and _is_name(node.func, *sinks)
                and node.args
                and _is_set_expr(node.args[0])
            ):
                flagged, what = node, f"{node.func.id}() over"  # type: ignore[attr-defined]
            if flagged is not None:
                findings.append(
                    _finding(
                        "RL006",
                        ctx,
                        flagged,
                        f"{what} a set has hash-dependent order; sort with an "
                        "explicit key before consuming it",
                    )
                )
    return findings


# --------------------------------------------------------------------------- #
# RL007 — NamedTuple wire messages must be codec-registered                   #
# --------------------------------------------------------------------------- #


def _is_namedtuple_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if _is_name(base, "NamedTuple"):
            return True
        if isinstance(base, ast.Attribute) and base.attr == "NamedTuple":
            return True
    return False


def rl007(project: Project) -> list[Finding]:
    """NamedTuple wire message missing from the codec registry"""
    contracts = project.contracts
    registry_ctx = project.find(contracts.wire_registry_module)
    if registry_ctx is None:
        return []
    registry_node: ast.stmt | None = None
    registered: set[str] = set()
    for node in registry_ctx.tree.body:
        if isinstance(node, ast.Assign):
            is_registry = any(
                _is_name(target, "WIRE_MESSAGE_REGISTRY")
                for target in node.targets
            )
        elif isinstance(node, ast.AnnAssign):
            is_registry = _is_name(node.target, "WIRE_MESSAGE_REGISTRY")
        else:
            continue
        if is_registry:
            registry_node = node
            if isinstance(node.value, ast.Dict):
                registered = {
                    key.value
                    for key in node.value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                }
    findings: list[Finding] = []
    if registry_node is None:
        return [
            Finding(
                "RL007",
                registry_ctx.rel,
                1,
                1,
                "wire module defines no WIRE_MESSAGE_REGISTRY codec table",
            )
        ]
    seen: set[str] = set()
    all_modules_scanned = True
    for declared in contracts.wire_message_modules:
        ctx = project.find(declared)
        if ctx is None:
            all_modules_scanned = False
            continue
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and _is_namedtuple_class(node):
                seen.add(node.name)
                if node.name not in registered:
                    findings.append(
                        _finding(
                            "RL007",
                            ctx,
                            node,
                            f"NamedTuple {node.name} is wire-visible but not "
                            "declared in simulation.wire's "
                            "WIRE_MESSAGE_REGISTRY",
                        )
                    )
    if all_modules_scanned:
        for stale in sorted(registered - seen):
            findings.append(
                _finding(
                    "RL007",
                    registry_ctx,
                    registry_node,
                    f"WIRE_MESSAGE_REGISTRY declares {stale!r} but no such "
                    "NamedTuple exists in the wire-visible modules",
                )
            )
    return findings


# --------------------------------------------------------------------------- #
# RL008 — unpickling only in the mailbox/checkpoint modules                   #
# --------------------------------------------------------------------------- #


def rl008(project: Project) -> list[Finding]:
    """unpickling outside the mailbox modules"""
    findings: list[Finding] = []
    for ctx in project.contexts:
        if not ctx.is_src or _in_declared(ctx, project.contracts.mailbox_modules):
            continue
        for node in ast.walk(ctx.tree):
            bad: str | None = None
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and _is_name(
                    func.value, "pickle"
                ):
                    if func.attr in ("loads", "load", "Unpickler"):
                        bad = f"pickle.{func.attr}"
            if bad is not None:
                findings.append(
                    _finding(
                        "RL008",
                        ctx,
                        node,
                        f"{bad} on non-mailbox data; unpickling is confined "
                        "to the CRC-checked mailbox/checkpoint planes",
                    )
                )
    return findings


# --------------------------------------------------------------------------- #
# RL009 — the cyclic collector has one owner                                  #
# --------------------------------------------------------------------------- #


def rl009(project: Project) -> list[Finding]:
    """gc import or call outside the runtime-policy module"""
    findings: list[Finding] = []
    owner = project.contracts.collector_module
    for ctx in project.contexts:
        if not ctx.is_src or ctx.matches(owner):
            continue
        for node in ast.walk(ctx.tree):
            bad: str | None = None
            if isinstance(node, ast.Import) and any(
                alias.name == "gc" for alias in node.names
            ):
                bad = "import gc"
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                bad = "from gc import"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _is_name(node.func.value, "gc")
            ):
                bad = f"gc.{node.func.attr}()"
            if bad is not None:
                findings.append(
                    _finding(
                        "RL009",
                        ctx,
                        node,
                        f"{bad} outside {owner}; the collector policy has one "
                        "owner — use repro.utils.runtime",
                    )
                )
    return findings


ALL_RULES = [rl001, rl002, rl003, rl004, rl005, rl006, rl007, rl008, rl009]


def rule_table() -> str:
    """The rule id / summary table for ``--list-rules``."""
    rows = ["RL000  suppression hygiene: every disable= carries a reason"]
    for rule in ALL_RULES:
        doc = (rule.__doc__ or "").strip().splitlines()[0]
        rows.append(f"{rule.__name__.upper()}  {doc}")
    return "\n".join(rows)
