"""The maclint AST analysis pass.

:func:`check_source` analyses one module's source text and returns the
surviving findings plus the pragma-suppressed ones.  Scoping is derived
from the file's path: rule families apply to the packages whose
guarantees they guard (see :data:`CORE_PACKAGES` and
:func:`scope_for_path`), so e.g. experiment drivers may construct their
own documented ``random.Random`` while the protocol core may not.

The pass is purely syntactic -- no imports of the checked code, no type
inference -- so it is safe to run on broken work-in-progress trees and
costs only an ``ast.parse`` per file.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.pragmas import PragmaSet, parse_pragmas
from repro.lint.rules import PAPER_CONSTANTS, RULES

#: Packages (under ``repro``) forming the deterministic protocol core:
#: DET and HOT rules apply here.
CORE_PACKAGES: Set[str] = {"sim", "core", "phy", "protocols", "traffic"}

#: Module paths (relative to ``repro``) exempt from specific families.
#: ``sim/rng.py`` is the one sanctioned home of ``random.Random``;
#: ``phy/timing.py`` is the one sanctioned home of the paper constants.
DET_EXEMPT_MODULES: Set[Tuple[str, ...]] = {("sim", "rng")}
PROTO_EXEMPT_MODULES: Set[Tuple[str, ...]] = {("phy", "timing")}

#: Packages outside the core that still must be deterministic.  The
#: fuzzer's whole value is reproducibility: a case must be a pure
#: function of (campaign seed, index), so generator randomness is
#: forced through seeded ``RandomStreams`` and wall-clock reads are
#: banned exactly as in the protocol core.
DET_EXTRA_PACKAGES: Set[str] = {"fuzz"}

#: Hot-path modules *outside* the core packages.  These sit on the
#: per-event or per-cycle path even though their packages are otherwise
#: engine/CLI-side: the metrics registry is called from inside the
#: simulation loop, and the Welford accumulators in
#: ``metrics/stats.py`` run once per delivered packet.  The HOT family
#: (no console/file I/O on the hot path) therefore applies to them too.
HOT_EXTRA_MODULES: Set[Tuple[str, ...]] = {
    ("obs", "registry"),
    ("metrics", "stats"),
    # The service-mode cycle loop steps the simulator once per paced
    # cycle; its per-cycle bookkeeping is on the same critical path.
    ("serve", "service"),
    # The fuzz evaluation path runs whole simulations per case; its
    # per-case modules must not print or open files mid-campaign
    # (reporting lives in campaign/corpus/cli, which stay exempt).
    ("fuzz", "case"),
    ("fuzz", "generator"),
    ("fuzz", "oracles"),
    ("fuzz", "runner"),
    ("fuzz", "shrink"),
}

#: The linter itself is exempt from every family (its rule tables spell
#: out the very literals PROTO001 hunts for).
EXEMPT_PACKAGES: Set[str] = {"lint"}

_WALL_CLOCK_TIME_ATTRS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
    "process_time_ns",
}
_DATETIME_NOW_ATTRS = {"now", "utcnow", "today"}
_MUTABLE_FACTORIES = {
    "list", "dict", "set", "deque", "defaultdict", "Counter",
    "OrderedDict",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    text: str  # the stripped source line, for fingerprints/reports

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")

    def to_json(self) -> Dict[str, object]:
        from repro.lint.baseline import fingerprint

        return {
            "rule": self.rule,
            "family": RULES[self.rule].family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "text": self.text,
            "fingerprint": fingerprint(self),
        }


@dataclass(frozen=True)
class Scope:
    """Which rule families apply to the file being checked."""

    det: bool
    par: bool
    proto: bool
    proto_core: bool  # core_only PROTO constants also apply
    hot: bool


@dataclass
class FileReport:
    """The outcome of checking one file."""

    path: str
    findings: List[Finding]
    suppressed: List[Finding]
    pragma_errors: List[str]


def repro_module_parts(path: str) -> Optional[Tuple[str, ...]]:
    """Path components below the ``repro`` package, if any.

    ``src/repro/phy/channel.py`` -> ``("phy", "channel")``; returns
    ``None`` for paths not under a ``repro`` directory.
    """
    pure = PurePosixPath(str(path).replace(os.sep, "/"))
    parts = [part for part in pure.parts if part not in (".", "")]
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    below = parts[index + 1:]
    if not below:
        return None
    below[-1] = below[-1][:-3] if below[-1].endswith(".py") else below[-1]
    return tuple(below)


def scope_for_path(path: str) -> Scope:
    """Rule-family applicability for ``path``.

    Files outside any ``repro`` package (e.g. test fixtures) get the
    full core treatment so the checker is maximally strict on them.
    """
    parts = repro_module_parts(path)
    if parts is None:
        return Scope(det=True, par=True, proto=True, proto_core=True,
                     hot=True)
    package = parts[0]
    if package in EXEMPT_PACKAGES:
        return Scope(det=False, par=False, proto=False,
                     proto_core=False, hot=False)
    in_core = package in CORE_PACKAGES
    return Scope(
        det=(in_core or package in DET_EXTRA_PACKAGES)
        and parts not in DET_EXEMPT_MODULES,
        par=True,
        proto=parts not in PROTO_EXEMPT_MODULES,
        proto_core=in_core,
        hot=in_core or parts in HOT_EXTRA_MODULES,
    )


class _Visitor(ast.NodeVisitor):
    """Single-pass visitor emitting raw findings."""

    def __init__(self, path: str, scope: Scope,
                 lines: Sequence[str]) -> None:
        self.path = path
        self.scope = scope
        self.lines = lines
        self.findings: List[Finding] = []
        # import tracking
        self.random_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.datetime_aliases: Set[str] = set()
        self.from_random: Dict[str, str] = {}
        self.from_time: Dict[str, str] = {}
        self.datetime_classes: Set[str] = set()
        # structural context
        self.func_depth = 0
        self.loop_depth = 0
        self.class_depth = 0
        self.local_funcs: List[Set[str]] = []

    # -- helpers ---------------------------------------------------------------

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = self.lines[line - 1].strip() \
            if 0 < line <= len(self.lines) else ""
        self.findings.append(Finding(rule=rule, path=self.path,
                                     line=line, col=col,
                                     message=message, text=text))

    # -- imports ---------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_aliases.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self.from_random[alias.asname or alias.name] = alias.name
        elif node.module == "time":
            for alias in node.names:
                self.from_time[alias.asname or alias.name] = alias.name
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_classes.add(alias.asname or alias.name)

    # -- structure -------------------------------------------------------------

    def _visit_function(self, node: ast.AST, name: Optional[str]) -> None:
        if name is not None and self.func_depth > 0 and self.local_funcs:
            self.local_funcs[-1].add(name)
        self.func_depth += 1
        self.local_funcs.append(set())
        self.generic_visit(node)
        self.local_funcs.pop()
        self.func_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node, None)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_depth += 1
        self.generic_visit(node)
        self.class_depth -= 1

    def _visit_loop(self, node: ast.AST) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    # -- DET004: set iteration -------------------------------------------------

    def _check_iterable(self, iterable: ast.expr) -> None:
        if not self.scope.det:
            return
        is_set = isinstance(iterable, (ast.Set, ast.SetComp))
        if not is_set and isinstance(iterable, ast.Call):
            func = iterable.func
            is_set = isinstance(func, ast.Name) \
                and func.id in ("set", "frozenset")
        if is_set:
            self._flag("DET004", iterable,
                       "iteration over a set: order depends on "
                       "PYTHONHASHSEED/insertion history; iterate "
                       "sorted(...) or an order-preserving container")

    # -- PAR001/PAR002 ---------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        if self.scope.par and self.func_depth > 0:
            names = ", ".join(node.names)
            self._flag("PAR001", node,
                       f"`global {names}`: module state mutated from a "
                       f"function is per-process under --jobs N; pass "
                       f"state explicitly or confine it to the parent "
                       f"process")
        self.generic_visit(node)

    def _check_module_assign(self, target: ast.expr,
                             value: Optional[ast.expr]) -> None:
        if not self.scope.par or value is None:
            return
        if self.func_depth > 0 or self.class_depth > 0:
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if name.isupper() or name.startswith("__"):
            return
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp,
                                     ast.SetComp))
        if not mutable and isinstance(value, ast.Call):
            func = value.func
            mutable = isinstance(func, ast.Name) \
                and func.id in _MUTABLE_FACTORIES
        if mutable:
            self._flag("PAR002", target,
                       f"module-level mutable container {name!r}: "
                       f"per-process state diverges across pool "
                       f"workers; pass it through the task config or "
                       f"mark it an immutable UPPER_CASE constant")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_module_assign(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_module_assign(node.target, node.value)
        self.generic_visit(node)

    # -- PROTO001 --------------------------------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if not self.scope.proto:
            return
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        for constant, types, symbol, core_only in PAPER_CONSTANTS:
            if type(value) not in types or value != constant:
                continue
            if core_only and not self.scope.proto_core:
                continue
            self._flag("PROTO001", node,
                       f"paper constant {value!r} re-typed as a "
                       f"literal; use repro.phy.timing.{symbol}")
            break

    # -- calls: DET001/002/003, PAR003, HOT001/002 -----------------------------

    def _is_wall_clock(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) \
                    and base.id in self.time_aliases \
                    and func.attr in _WALL_CLOCK_TIME_ATTRS:
                return True
            if func.attr in _DATETIME_NOW_ATTRS:
                if isinstance(base, ast.Name) \
                        and base.id in self.datetime_classes:
                    return True
                if isinstance(base, ast.Attribute) \
                        and base.attr in ("datetime", "date") \
                        and isinstance(base.value, ast.Name) \
                        and base.value.id in self.datetime_aliases:
                    return True
        elif isinstance(func, ast.Name):
            if self.from_time.get(func.id) in _WALL_CLOCK_TIME_ATTRS:
                return True
        return False

    def _check_point_task(self, node: ast.Call) -> None:
        fn_arg: Optional[ast.expr] = None
        for keyword in node.keywords:
            if keyword.arg == "fn":
                fn_arg = keyword.value
                break
        if fn_arg is None and node.args:
            fn_arg = node.args[0]
        if fn_arg is None:
            return
        if isinstance(fn_arg, ast.Lambda):
            self._flag("PAR003", fn_arg,
                       "lambda as a Point task function: not picklable "
                       "by reference; use a module-level function")
        elif isinstance(fn_arg, ast.Name):
            for local_names in self.local_funcs:
                if fn_arg.id in local_names:
                    self._flag(
                        "PAR003", fn_arg,
                        f"nested function {fn_arg.id!r} as a Point "
                        f"task function: closures do not cross the "
                        f"process boundary; hoist it to module level")
                    break

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in self.random_aliases:
            if self.scope.det:
                if func.attr in ("Random", "SystemRandom"):
                    self._flag("DET003", node,
                               f"direct random.{func.attr} "
                               f"construction; derive the stream from "
                               f"repro.sim.rng.RandomStreams instead")
                else:
                    self._flag("DET001", node,
                               f"module-global random.{func.attr}(); "
                               f"draw from an injected sim.rng stream "
                               f"instead")
        elif isinstance(func, ast.Name):
            origin = self.from_random.get(func.id)
            if origin is not None and self.scope.det:
                if origin in ("Random", "SystemRandom"):
                    self._flag("DET003", node,
                               f"direct {origin} construction; derive "
                               f"the stream from "
                               f"repro.sim.rng.RandomStreams instead")
                else:
                    self._flag("DET001", node,
                               f"module-global random function "
                               f"{origin}(); draw from an injected "
                               f"sim.rng stream instead")
            if func.id == "print" and self.scope.hot:
                self._flag("HOT001", node,
                           "print() in a hot-path module; report "
                           "through stats/obs and render from the CLI "
                           "layer")
            if func.id == "open" and self.scope.hot \
                    and self.loop_depth > 0:
                self._flag("HOT002", node,
                           "open() inside a loop in a hot-path module; "
                           "buffer and write once outside the loop")
            if func.id == "Point" and self.scope.par:
                self._check_point_task(node)
        if self.scope.det and self._is_wall_clock(func):
            self._flag("DET002", node,
                       "wall-clock read in simulation code; use "
                       "sim.now (simulated seconds) instead")
        self.generic_visit(node)


class LintSyntaxError(Exception):
    """Raised when a checked file does not parse."""

    def __init__(self, path: str, error: SyntaxError):
        super().__init__(f"{path}:{error.lineno}: {error.msg}")
        self.path = path
        self.error = error


def check_source(source: str, path: str = "<string>",
                 pragmas: Optional[PragmaSet] = None,
                 scope: Optional[Scope] = None) -> FileReport:
    """Analyse ``source`` as the module at ``path``.

    ``scope`` overrides the path-derived rule-family scoping; the
    project-level driver uses this to hand HOT scoping over to the
    call-graph reachability pass.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise LintSyntaxError(path, error) from error
    pragma_set = pragmas if pragmas is not None else parse_pragmas(source)
    if scope is None:
        scope = scope_for_path(path)
    visitor = _Visitor(path, scope, source.splitlines())
    visitor.visit(tree)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in sorted(visitor.findings,
                          key=lambda f: (f.line, f.col, f.rule)):
        if pragma_set.suppresses(finding.rule, finding.line):
            suppressed.append(finding)
        else:
            findings.append(finding)
    return FileReport(path=path, findings=findings,
                      suppressed=suppressed,
                      pragma_errors=list(pragma_set.errors))


def check_file(path: str, display_path: Optional[str] = None) -> FileReport:
    """Analyse the file at ``path`` (reported as ``display_path``)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return check_source(source, display_path or path)
