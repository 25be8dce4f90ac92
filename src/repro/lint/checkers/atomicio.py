"""RL004 — cache/checkpoint files must be written atomically.

The persistent result cache (:mod:`repro.core.cache`), which also holds
the pipeline's artifacts and every campaign checkpoint, promises that a
reader never observes a torn file: writers build a complete temp file
and race on the final :func:`os.replace`.  A bare ``open(path, "w")``,
``np.save`` or ``json.dump`` straight onto the destination breaks that
promise — a crash mid-write leaves a corrupt entry that the next run
either rejects (losing the work) or, worse, trusts.

Scope: every write in the configured atomic modules, plus any write
anywhere whose target expression mentions a cache/checkpoint path
(``config.atomic_target_markers``).  A write passes when its enclosing
function uses the tmp+rename idiom (an ``os.replace``/``os.rename``/
``Path.rename`` call, with the written target named like a temp file)
or targets an in-memory ``io.BytesIO``/``io.StringIO`` buffer.  An
append (``open(path, "a")``) is never atomic, so every one in scope is
flagged.

The tmp half must also be private to its writer.  A temp name built from
``os.getpid()`` alone is shared by every thread of the process: two
engine-pool threads writing one entry then clobber (or rename away) each
other's temp file.  Such a name passes only with a thread-unique part
(``threading.get_ident()``, ``tempfile.mkstemp`` and the like).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.project import Module, Project, import_aliases, resolve_dotted
from repro.lint.registry import register

#: ``module.function`` writers whose first argument is the destination.
_PATH_WRITERS = frozenset(
    {
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
    }
)

#: ``module.function`` writers whose *second* argument is the destination.
_STREAM_WRITERS = frozenset({"json.dump", "pickle.dump"})

#: Method names that write their receiver to disk.
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})

#: Calls that implement the rename half of the tmp+rename idiom.
_RENAME_CALLS = ("os.replace", "os.rename", "pathlib.Path.rename")

#: Calls that make a temp name unique per thread (or per call).
_THREAD_UNIQUE_CALLS = frozenset(
    {
        "threading.get_ident",
        "threading.get_native_id",
        "tempfile.mkstemp",
        "uuid.uuid4",
    }
)

#: open() modes that create/truncate/append the destination.
_WRITE_MODES = ("w", "a", "x")


def _open_mode(call: ast.Call, resolved: str | None) -> str | None:
    """The literal mode of an ``open()`` call, else ``None``."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open" or resolved == "open"):
        return None
    mode: ast.expr | None = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _call_target(call: ast.Call, resolved: str | None) -> ast.expr | None:
    """The destination expression of a recognized write call."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open" or resolved == "open":
        mode = _open_mode(call, resolved)
        if mode is not None and mode.startswith(_WRITE_MODES):
            return call.args[0] if call.args else None
        return None
    if resolved in _PATH_WRITERS and call.args:
        return call.args[0]
    if resolved in _STREAM_WRITERS and len(call.args) > 1:
        return call.args[1]
    if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
        return func.value
    return None


@register
class AtomicIoChecker:
    """Flag non-atomic writes of cache/checkpoint data."""

    rule = "RL004"
    title = "cache/checkpoint writes must use the tmp+rename idiom"

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        """Scan atomic-scoped modules and marker-matching writes."""
        for module in project.modules:
            scoped = config.path_matches(module.rel, config.atomic_modules)
            yield from self._check_module(module, scoped, config)

    def _check_module(
        self, module: Module, scoped: bool, config: LintConfig
    ) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for func_node, calls in _functions_with_calls(module.tree):
            buffers = _memory_buffers(func_node, aliases)
            has_rename = _has_rename(calls, aliases)
            for call in calls:
                resolved = (
                    resolve_dotted(call.func, aliases)
                    if isinstance(call.func, (ast.Attribute, ast.Name))
                    else None
                )
                target = _call_target(call, resolved)
                if target is None:
                    continue
                target_text = ast.unparse(target)
                in_scope = scoped or any(
                    marker in target_text.lower()
                    for marker in config.atomic_target_markers
                )
                if not in_scope:
                    continue
                if isinstance(target, ast.Name) and target.id in buffers:
                    continue  # in-memory staging buffer, not a file
                if has_rename and "tmp" in target_text.lower():
                    if _pid_only_temp_name(func_node, target, aliases):
                        yield Finding(
                            path=module.rel,
                            line=call.lineno,
                            rule=self.rule,
                            message=(
                                f"temp file {target_text!r} is named from "
                                "os.getpid() alone, so threads of one "
                                "process share it: add threading."
                                "get_ident() (see repro.core.cache."
                                "atomic_write_bytes)"
                            ),
                            snippet=module.line(call.lineno),
                        )
                    continue  # the tmp half of tmp+rename
                yield Finding(
                    path=module.rel,
                    line=call.lineno,
                    rule=self.rule,
                    message=(
                        f"non-atomic write to {target_text!r}: write a "
                        "temp file and os.replace() it over the "
                        "destination (see repro.core.cache."
                        "atomic_write_json)"
                    ),
                    snippet=module.line(call.lineno),
                )


def _functions_with_calls(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, list[ast.Call]]]:
    """Yield (scope node, calls) for each function plus the module body.

    Module-level writes get the module itself as their scope so the
    tmp+rename detection still has something to look at.
    """
    function_nodes: list[ast.FunctionDef | ast.AsyncFunctionDef] = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    claimed: set[int] = set()
    for func in function_nodes:
        calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
        nested = {
            id(n)
            for sub in function_nodes
            if sub is not func and _contains(func, sub)
            for n in ast.walk(sub)
            if isinstance(n, ast.Call)
        }
        own = [c for c in calls if id(c) not in nested]
        claimed.update(id(c) for c in calls)
        yield func, own
    module_calls = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and id(n) not in claimed
    ]
    if module_calls:
        yield tree, module_calls


def _contains(outer: ast.AST, inner: ast.AST) -> bool:
    return any(node is inner for node in ast.walk(outer))


def _memory_buffers(scope: ast.AST, aliases: dict[str, str]) -> set[str]:
    """Names bound to io.BytesIO()/io.StringIO() within ``scope``."""
    buffers: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, (ast.Attribute, ast.Name))
        ):
            resolved = resolve_dotted(node.value.func, aliases)
            if resolved in ("io.BytesIO", "io.StringIO"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        buffers.add(target.id)
    return buffers


def _pid_only_temp_name(
    scope: ast.AST, target: ast.expr, aliases: dict[str, str]
) -> bool:
    """True when a temp name uses ``os.getpid()`` but nothing thread-unique.

    Looks at the target expression itself and, for a bare name, at every
    value assigned to that name within ``scope``.
    """
    exprs = [target]
    if isinstance(target, ast.Name):
        exprs += [
            node.value
            for node in ast.walk(scope)
            if isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == target.id
                for t in node.targets
            )
        ]
    calls = {
        resolve_dotted(node.func, aliases)
        for expr in exprs
        for node in ast.walk(expr)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
    }
    return "os.getpid" in calls and not calls & _THREAD_UNIQUE_CALLS


def _has_rename(calls: list[ast.Call], aliases: dict[str, str]) -> bool:
    """True when any call in the scope performs the rename step.

    Recognized: ``os.replace``/``os.rename``, and ``.rename()``/
    ``.replace()`` on a receiver that looks like a temp path (so
    ``text.replace("a", "b")`` string munging does not count).
    """
    for call in calls:
        func = call.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in ("replace", "rename")
        ):
            continue
        resolved = resolve_dotted(func, aliases)
        if resolved in ("os.replace", "os.rename"):
            return True
        receiver = ast.unparse(func.value).lower()
        if "tmp" in receiver or "temp" in receiver:
            return True
    return False
