"""Interprocedural call graph over a :class:`~repro.lint.project.Project`.

Built once per lint run on top of the shared
:class:`~repro.lint.symbols.SymbolTable` (see ``repro.lint.analysis``)
and consumed by the fork-safety (RL003), observability-coverage
(RL005), async-blocking (RL006), lock-guard (RL007) and lock-order
(RL008) checkers.  Resolution is deliberately conservative and purely
syntactic — calls on objects the symbol table cannot type stay
unresolved rather than guessed.

Beyond the resolved callee edges, every function records the
concurrency facts the new rules need:

* which locks are held at each call / ``await`` / lock acquisition
  (a ``with <lock>:`` stack maintained while walking the body);
* reads and writes of ``# guarded-by:``-declared state, with the locks
  held at the access;
* dispatch points — functions handed to a process pool, a thread, or
  an asyncio executor boundary (``asyncio.to_thread`` /
  ``loop.run_in_executor``).  Dispatch targets are *not* call edges:
  crossing an executor boundary is exactly what makes a blocking call
  legal inside a coroutine (RL006).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.project import Module, Project
from repro.lint.symbols import FunctionSymbol, ModuleSymbols, SymbolTable

#: :mod:`repro.obs` calls that open a span (RL005).  Counters and
#: histograms (``obs.add``/``obs.observe``) do not count.
SPAN_CALLS = frozenset({"repro.obs.span"})

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "put",
    }
)

#: Executor/pool methods whose first argument runs in a worker.
_DISPATCH_METHODS = frozenset({"submit", "apply_async", "map_async"})

#: Receiver types that pin a ``.submit()`` dispatch to a worker kind.
_EXECUTOR_KINDS = {
    "concurrent.futures.ProcessPoolExecutor": "process",
    "concurrent.futures.ThreadPoolExecutor": "thread",
}


@dataclass
class GlobalMutation:
    """One in-function mutation of a module-level name."""

    name: str  #: the module-level global being mutated
    line: int  #: 1-indexed line of the mutation
    how: str  #: human-readable description ("rebinds", "mutates", …)


@dataclass(frozen=True)
class CallSite:
    """One resolved call, with the locks held when it runs."""

    callee: str  #: canonical qualname of the callee
    line: int
    held: tuple[str, ...]  #: canonical lock ids held at the call site


@dataclass(frozen=True)
class MethodCall:
    """One *unresolved* ``obj.method(...)`` call (receiver untyped)."""

    attr: str  #: the method name
    line: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class LockAcquisition:
    """One ``with <lock>:`` entry (or the lock a function requires)."""

    lock: str  #: canonical lock id being acquired
    line: int
    held: tuple[str, ...]  #: locks already held when acquiring


@dataclass(frozen=True)
class GuardedAccess:
    """One read/write of ``# guarded-by:``-declared state."""

    target: str  #: canonical name of the guarded attribute/global
    line: int
    write: bool
    held: tuple[str, ...]


@dataclass(frozen=True)
class AwaitSite:
    """One ``await`` expression, with the locks held around it."""

    line: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class DispatchPoint:
    """One function handed to a pool/thread/executor boundary.

    ``kind`` is ``"process"`` (fork pool, ``multiprocessing.Process``,
    untyped ``.submit``), ``"thread"`` (``threading.Thread``, a
    ``.submit`` on a receiver typed as ``ThreadPoolExecutor``) or
    ``"offload"`` (``asyncio.to_thread`` / ``loop.run_in_executor`` —
    still a thread, but reached from the event loop).
    """

    target: str  #: canonical qualname of the dispatched function
    line: int
    module: Module
    kind: str


@dataclass
class FunctionInfo:
    """Call-graph node for one function or method."""

    qualname: str  #: ``module.func`` or ``module.Class.method``
    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool = False
    #: resolved callee qualname → first call line (iterates like the
    #: historical ``set`` of callees)
    calls: dict[str, int] = field(default_factory=dict)
    call_sites: list[CallSite] = field(default_factory=list)
    method_calls: list[MethodCall] = field(default_factory=list)
    #: calls a span-opening :mod:`repro.obs` function (:data:`SPAN_CALLS`)
    opens_span: bool = False
    mutations: list[GlobalMutation] = field(default_factory=list)
    acquisitions: list[LockAcquisition] = field(default_factory=list)
    accesses: list[GuardedAccess] = field(default_factory=list)
    awaits: list[AwaitSite] = field(default_factory=list)
    #: lock the caller must hold (function-level ``# guarded-by:``)
    requires_lock: str | None = None


class CallGraph:
    """Functions, their resolved callees, locks, and dispatch points."""

    def __init__(self, project: Project, symbols: SymbolTable | None = None) -> None:
        """Analyze every function of ``project`` (one AST pass each).

        Pass the run's shared :class:`SymbolTable` to avoid rebuilding
        it; without one a private table is constructed.
        """
        self.symbols = symbols if symbols is not None else SymbolTable(project)
        self.functions: dict[str, FunctionInfo] = {}
        self.dispatches: list[DispatchPoint] = []
        for symbol in self.symbols.functions.values():
            info = FunctionInfo(
                qualname=symbol.qualname,
                module=symbol.module,
                node=symbol.node,
                is_async=symbol.is_async,
                requires_lock=symbol.requires_lock,
            )
            _FunctionVisitor(self, symbol, info).run()
            self.functions[info.qualname] = info

    # -- queries -------------------------------------------------------

    @property
    def entry_points(self) -> list[tuple[str, int, Module]]:
        """(qualname, line, module) of process/thread worker entry points.

        The historical RL003 surface: executor-offload targets
        (``asyncio.to_thread`` / ``run_in_executor``) are excluded —
        they run in the serving process where in-process locks still
        apply; use :attr:`dispatches` for the full picture.
        """
        return [
            (d.target, d.line, d.module)
            for d in self.dispatches
            if d.kind in ("process", "thread")
        ]

    def dispatch_targets(self, kinds: tuple[str, ...]) -> list[DispatchPoint]:
        """Dispatch points whose kind is in ``kinds``."""
        return [d for d in self.dispatches if d.kind in kinds]

    def reachable_from(self, roots: list[str]) -> set[str]:
        """Transitive closure of resolvable callees starting at ``roots``."""
        seen: set[str] = set()
        frontier = [root for root in roots if root in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for callee in self.functions[current].calls:
                if callee in self.functions and callee not in seen:
                    frontier.append(callee)
        return seen

    def instrumented(self, qualname: str) -> bool:
        """True when the function opens a :mod:`repro.obs` span directly,
        or directly calls a resolvable function that does (one delegation
        level — the span still opens on every invocation).  A counter
        (``obs.add``) is not a span: it leaves the trace blank."""
        info = self.functions.get(qualname)
        if info is None:
            return False
        if info.opens_span:
            return True
        return any(
            callee in self.functions and self.functions[callee].opens_span
            for callee in info.calls
        )


class _FunctionVisitor(ast.NodeVisitor):
    """One function body walk maintaining the held-locks stack."""

    def __init__(
        self, graph: CallGraph, symbol: FunctionSymbol, info: FunctionInfo
    ) -> None:
        self.graph = graph
        self.symbols = graph.symbols
        self.symbol = symbol
        self.info = info
        self.module = symbol.module
        self.syms: ModuleSymbols = graph.symbols.modules[symbol.module.name]
        self.held: list[str] = (
            [symbol.requires_lock] if symbol.requires_lock else []
        )
        self.locals = frozenset(_local_bindings(symbol.node))
        self.module_globals = _module_level_names(symbol.module.tree)
        self.global_decls: set[str] = set()
        for inner in ast.walk(symbol.node):
            if isinstance(inner, ast.Global):
                self.global_decls.update(inner.names)

    def run(self) -> None:
        """Visit the function body (not the ``def`` node itself)."""
        for decorator in self.symbol.node.decorator_list:
            self.visit(decorator)
        for stmt in self.symbol.node.body:
            self.visit(stmt)

    # -- resolution helpers -------------------------------------------

    def _resolve(self, node: ast.expr) -> str | None:
        return self.symbols.resolve(node, self.syms, self.symbol, self.locals)

    def _guard_access(self, target: str, line: int, write: bool) -> None:
        spec = self.symbols.guards.get(target)
        if spec is None:
            return
        if spec.module == self.module.name and line == spec.line:
            return  # the declaration line itself
        self.info.accesses.append(
            GuardedAccess(target=target, line=line, write=write, held=tuple(self.held))
        )

    # -- locks ---------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired = 0
        for item in node.items:
            resolved = self._resolve(item.context_expr)
            if resolved is not None and resolved in self.symbols.locks:
                self.info.acquisitions.append(
                    LockAcquisition(
                        lock=resolved,
                        line=item.context_expr.lineno,
                        held=tuple(self.held),
                    )
                )
                self.held.append(resolved)
                acquired += 1
            else:
                self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            del self.held[-acquired:]

    def visit_Await(self, node: ast.Await) -> None:
        self.info.awaits.append(AwaitSite(line=node.lineno, held=tuple(self.held)))
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        resolved = self._resolve(func)
        if resolved is not None:
            self.info.calls.setdefault(resolved, node.lineno)
            self.info.call_sites.append(
                CallSite(callee=resolved, line=node.lineno, held=tuple(self.held))
            )
            if resolved in SPAN_CALLS:
                self.info.opens_span = True
            if resolved.rsplit(".", 1)[-1] == "acquire":
                owner = resolved.rsplit(".", 1)[0]
                if owner in self.symbols.locks:
                    self.info.acquisitions.append(
                        LockAcquisition(
                            lock=owner, line=node.lineno, held=tuple(self.held)
                        )
                    )
        if isinstance(func, ast.Attribute):
            if resolved is None:
                self.info.method_calls.append(
                    MethodCall(
                        attr=func.attr, line=node.lineno, held=tuple(self.held)
                    )
                )
            receiver = self._resolve(func.value)
            if receiver is not None and receiver in self.symbols.guards:
                self._guard_access(
                    receiver, node.lineno, write=func.attr in MUTATING_METHODS
                )
            else:
                self.visit(func.value)
            self._record_method_mutation(node, func)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        self._record_dispatch(node, resolved)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def _record_dispatch(self, node: ast.Call, resolved: str | None) -> None:
        """Remember functions handed across a worker boundary."""
        target: ast.expr | None = None
        kind = "process"
        func = node.func
        if resolved == "asyncio.to_thread" and node.args:
            target, kind = node.args[0], "offload"
        elif isinstance(func, ast.Attribute) and func.attr == "run_in_executor":
            if len(node.args) >= 2:
                target, kind = node.args[1], "offload"
        elif isinstance(func, ast.Attribute) and func.attr in _DISPATCH_METHODS:
            if node.args:
                target = node.args[0]
                receiver_type = self.symbols.resolve_type(
                    func.value, self.syms, self.symbol
                )
                kind = _EXECUTOR_KINDS.get(receiver_type or "", "process")
        elif resolved == "multiprocessing.Process":
            target = _keyword(node, "target")
        elif resolved == "threading.Thread":
            target, kind = _keyword(node, "target"), "thread"
        if target is None:
            return
        qual = self._resolve(target)
        if qual is not None:
            self.graph.dispatches.append(
                DispatchPoint(
                    target=qual, line=node.lineno, module=self.module, kind=kind
                )
            )

    def _record_method_mutation(self, node: ast.Call, func: ast.Attribute) -> None:
        if not (
            isinstance(func.value, ast.Name) and func.attr in MUTATING_METHODS
        ):
            return
        name = func.value.id
        shadowed = name in self.locals and name not in self.global_decls
        if name in self.module_globals and not shadowed:
            self.info.mutations.append(
                GlobalMutation(
                    name=name,
                    line=node.lineno,
                    how=f"calls mutating method .{func.attr}() on",
                )
            )

    # -- guarded state accesses ---------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            resolved = self._resolve(node)
            if resolved is not None and resolved in self.symbols.guards:
                self._guard_access(resolved, node.lineno, write=False)
                return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            name = node.id
            shadowed = name in self.locals and name not in self.global_decls
            if name in self.syms.global_names and not shadowed:
                self._guard_access(
                    f"{self.module.name}.{name}", node.lineno, write=False
                )

    # -- assignments ---------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(target, node.lineno)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target, node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_store(node.target, node.lineno)
        if node.value is not None:
            self.visit(node.value)

    def _record_store(self, target: ast.expr, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, line)
        elif isinstance(target, ast.Starred):
            self._record_store(target.value, line)
        elif isinstance(target, ast.Attribute):
            resolved = self._resolve(target)
            if resolved is not None:
                self._guard_access(resolved, line, write=True)
            else:
                self.visit(target.value)
        elif isinstance(target, ast.Subscript):
            base_resolved = self._resolve(target.value)
            if base_resolved is not None and base_resolved in self.symbols.guards:
                self._guard_access(base_resolved, line, write=True)
            else:
                self.visit(target.value)
            name = (
                target.value.id if isinstance(target.value, ast.Name) else None
            )
            if name is not None:
                shadowed = name in self.locals and name not in self.global_decls
                if name in self.module_globals and not shadowed:
                    self.info.mutations.append(
                        GlobalMutation(name=name, line=line, how="assigns into")
                    )
            self.visit(target.slice)
        elif isinstance(target, ast.Name):
            if target.id in self.global_decls:
                if target.id in self.module_globals:
                    self.info.mutations.append(
                        GlobalMutation(name=target.id, line=line, how="rebinds")
                    )
                self._guard_access(
                    f"{self.module.name}.{target.id}", line, write=True
                )

    # -- nested definitions -------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_deferred(node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_deferred(node.body)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_deferred([node.body])

    def _visit_deferred(self, body: list[ast.stmt] | list[ast.expr]) -> None:
        # A nested def/lambda body runs later: calls inside it still
        # belong to this function (historical behavior), but no lock
        # from the enclosing ``with`` is held when it finally executes.
        saved, self.held = self.held, []
        for stmt in body:
            self.visit(stmt)
        self.held = saved


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    """The value of keyword argument ``name``, or ``None``."""
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names bound by assignment at module top level."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _local_bindings(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Parameter and assignment bindings local to ``func``."""
    names: set[str] = set()
    args = func.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]:
        names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    names.add(item.optional_vars.id)
        elif isinstance(node, ast.comprehension):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names
