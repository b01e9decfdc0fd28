"""Wire-contract rules (RL-W*): the protocol surface cannot drift.

The serving protocol's promise is that every transport exposes the
*same* method surface with the *same* error contract. RL-W01 pins the
``METHODS`` tuple to the handler table and each handler's
**docstring-declared** error contract. Both clients take their wrappers
from one shared surface (``serve/frontend.py`` ``ClientSurface``), so
client parity holds by construction and needs no rule.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Project, Rule, SourceFile, dotted_name
from repro.analysis.findings import Finding
from repro.analysis.rules import register

PROTOCOL_FILE = "serve/protocol.py"
METHODS_NAME = "METHODS"
HANDLERS_NAME = "_HANDLERS"

#: The documented error contract: exception type -> wire status.
CONTRACT_STATUS = {
    "ValueError": 400,
    "TypeError": 400,
    "KeyError": 404,
    "LookupError": 409,
    "IndexError": 409,
    "RuntimeError": 503,
    "ServiceUnavailable": 503,
}

_ERRORS_LINE_RE = re.compile(r"^\s*Errors:\s*(?P<codes>.*)$", re.MULTILINE)


def _string_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: List[str] = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
        values.append(element.value)
    return tuple(values)


def _module_assign(tree: ast.Module, name: str) -> Optional[ast.expr]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value
    return None


def _handler_map(tree: ast.Module) -> Dict[str, Tuple[str, int]]:
    """``_HANDLERS`` as {method: (function name, line)}."""
    value = _module_assign(tree, HANDLERS_NAME)
    mapping: Dict[str, Tuple[str, int]] = {}
    if not isinstance(value, ast.Dict):
        return mapping
    for key, handler in zip(value.keys, value.values):
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(handler, ast.Name)
        ):
            mapping[key.value] = (handler.id, key.lineno)
    return mapping


def _declared_statuses(docstring: Optional[str]) -> Optional[Set[int]]:
    """Statuses on the docstring's ``Errors:`` line; None when undeclared.

    ``Errors: none`` declares an empty contract (no explicit raises).
    """
    if not docstring:
        return None
    match = _ERRORS_LINE_RE.search(docstring)
    if match is None:
        return None
    return {int(code) for code in re.findall(r"\b\d{3}\b", match.group("codes"))}


def _explicit_raises(
    func: ast.AST, module_functions: Dict[str, ast.AST]
) -> Iterator[Tuple[str, int]]:
    """(exception type name, line) raised by ``func`` or its direct helpers."""
    seen: Set[str] = set()
    stack: List[ast.AST] = [func]
    while stack:
        current = stack.pop()
        for node in ast.walk(current):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                name = dotted_name(exc)
                if name is not None:
                    yield name.split(".")[-1], node.lineno
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name in module_functions
                    and name not in seen
                    and current is func  # one level of helper expansion
                ):
                    seen.add(name)
                    stack.append(module_functions[name])


@register
class HandlerErrorContract(Rule):
    """RL-W01: METHODS <-> handlers, each with a declared error contract.

    A wire method whose handler raises an exception type outside the
    documented 400/404/409/503 table surfaces to clients as a 500 — a
    contract break no transport test catches until a client trips it.
    This rule requires METHODS and the handler table to match one for
    one, every handler docstring to declare its statuses on an
    ``Errors:`` line, and every *explicit* raise (including one level of
    helper calls) to map to a declared status. Backend-raised contract
    errors are covered by the shared dispatch table and need no
    per-handler declaration beyond the statuses listed.
    """

    id = "RL-W01"
    title = "wire handler missing, undocumented, or off-contract"

    def check(self, project: Project) -> Iterator[Finding]:
        source = project.get(PROTOCOL_FILE)
        if source is None:
            return
        methods = _string_tuple(
            _module_assign(source.tree, METHODS_NAME) or ast.Tuple(elts=[])
        )
        if methods is None:
            methods = ()
        handlers = _handler_map(source.tree)
        functions: Dict[str, ast.AST] = {
            node.name: node
            for node in source.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        for method in methods:
            if method not in handlers:
                yield Finding(
                    path=source.rel,
                    line=1,
                    col=0,
                    rule=self.id,
                    message=(
                        f"METHODS names {method!r} but {HANDLERS_NAME} has "
                        "no handler for it"
                    ),
                    key=f"missing-handler:{method}",
                )
        for method, (handler_name, line) in handlers.items():
            if method not in methods:
                yield Finding(
                    path=source.rel,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"{HANDLERS_NAME} maps {method!r} but METHODS does "
                        "not list it — unreachable handler"
                    ),
                    key=f"unlisted-method:{method}",
                )
                continue
            func = functions.get(handler_name)
            if func is None:
                yield Finding(
                    path=source.rel,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"handler {handler_name} for {method!r} is not a "
                        "module-level function"
                    ),
                    key=f"missing-function:{method}",
                )
                continue
            yield from self._check_handler(source, method, func, functions)

    def _check_handler(
        self,
        source: SourceFile,
        method: str,
        func: ast.AST,
        functions: Dict[str, ast.AST],
    ) -> Iterator[Finding]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        declared = _declared_statuses(ast.get_docstring(func))
        if declared is None:
            yield Finding(
                path=source.rel,
                line=func.lineno,
                col=func.col_offset,
                rule=self.id,
                message=(
                    f"handler {func.name} for {method!r} must declare its "
                    "error contract in the docstring ('Errors: 400, 404' "
                    "or 'Errors: none')"
                ),
                key=f"undeclared:{method}",
            )
            return
        undocumented = declared - {400, 404, 409, 503}
        if undocumented:
            yield Finding(
                path=source.rel,
                line=func.lineno,
                col=func.col_offset,
                rule=self.id,
                message=(
                    f"handler {func.name} declares status(es) "
                    f"{sorted(undocumented)} outside the documented "
                    "400/404/409/503 contract"
                ),
                key=f"bad-status:{method}",
            )
        for exc_name, line in _explicit_raises(func, functions):
            status = CONTRACT_STATUS.get(exc_name)
            if status is None:
                yield Finding(
                    path=source.rel,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"handler {func.name} raises {exc_name}, which has "
                        "no documented wire status — clients would see a "
                        "500"
                    ),
                    key=f"off-contract:{method}:{exc_name}",
                )
            elif status not in declared:
                yield Finding(
                    path=source.rel,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"handler {func.name} raises {exc_name} "
                        f"(status {status}) but its docstring declares "
                        f"only {sorted(declared)}"
                    ),
                    key=f"undeclared-status:{method}:{status}",
                )
