"""The maclint whole-program index: symbols, classes, call graph.

maclint v1 was strictly per-module: each file was parsed, matched
against syntactic rules, and forgotten.  That cannot see a tainted
value cross a function boundary, and it forced rule scoping onto
hand-curated module lists.  This module builds the project-wide context
the v2 flow pass (:mod:`repro.lint.flow`) runs over:

* a **symbol table** -- every module, top-level function, class,
  method, and module-level binding under the analysis universe, keyed
  by dotted qualified name (``repro.sim.core.Simulator.run``);
* per-module **import maps** so a bare name or an ``alias.attr``
  expression resolves to the dotted thing it denotes (project function,
  external module function like ``random.random``, or class);
* a **class hierarchy** with per-class method tables and inferred
  instance-attribute types (``self.journal = ServiceJournal(...)`` in
  ``__init__`` types ``self.journal`` for every other method);
* an interprocedural **call graph** with three edge kinds: direct
  calls, virtual dispatch (``self.m()`` resolves through the MRO plus
  subclass overrides), and *reference* edges for function objects
  passed as arguments (the event loop and the process pool both invoke
  code they only ever received by reference);
* **reachability** queries over that graph, which replace v1's curated
  scoping lists: HOT rules apply to functions reachable from the
  simulator event loop, and the PAR004 family to functions reachable
  from process-pool entry points (``Point`` task functions).

Everything here is still pure ``ast`` -- no imports of the checked
code, no runtime type information -- so the index is safe to build on
broken work-in-progress trees.  Resolution is deliberately
name-and-structure based: unresolved calls stay unresolved rather than
guessing, so reachability over-approximates only through declared
structure (bases, overrides, references), not through string matching.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.checker import repro_module_parts

#: Sentinel "class" qnames for builtin container types the flow pass
#: cares about (iteration-order taint) and hashlib digest objects.
DICT_TYPE = "builtins.dict"
SET_TYPE = "builtins.set"
HASH_TYPE = "hashlib._Hash"

_CONTAINER_CTORS = {
    "dict": DICT_TYPE, "set": SET_TYPE, "frozenset": SET_TYPE,
    "defaultdict": DICT_TYPE, "OrderedDict": DICT_TYPE,
    "Counter": DICT_TYPE,
}

_HASHLIB_CTORS = {
    "md5", "sha1", "sha224", "sha256", "sha384", "sha512",
    "blake2b", "blake2s", "sha3_256", "sha3_512", "new",
}

#: Attribute names that register a callback with the simulator event
#: loop (or a channel).  Function references passed to these run *from
#: inside* the event loop, so they seed HOT reachability even though no
#: syntactic call edge exists.
SIM_REGISTRAR_METHODS = {"call_at", "add_listener", "attach"}

#: Dotted names whose call sites mark their ``fn`` argument (first
#: positional or ``fn=`` keyword) as a process-pool entry point.
POOL_TASK_WRAPPERS = {"repro.engine.spec.Point", "Point"}


@dataclass
class ClassInfo:
    """One class definition in the analysis universe."""

    qname: str
    name: str
    module: str
    bases: List[str] = field(default_factory=list)
    #: method simple name -> function qname
    methods: Dict[str, str] = field(default_factory=dict)
    #: self attribute -> class qname (or a builtin sentinel above)
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: annotated class-level fields in declaration order -- the
    #: positional constructor signature of dataclass-style classes
    fields: List[str] = field(default_factory=list)


@dataclass
class FunctionInfo:
    """One function or method (nested defs fold into their parent)."""

    qname: str
    module: str
    path: str
    name: str
    node: ast.AST
    lineno: int
    #: qname of the enclosing class, for methods
    cls: Optional[str] = None


@dataclass
class CallSite:
    """One resolved ``ast.Call`` inside a function body."""

    node: ast.Call
    #: project function qnames this call may invoke
    targets: Tuple[str, ...] = ()
    #: dotted external name (``random.random``, ``time.time``) if any
    external: Optional[str] = None
    #: project functions passed by reference as arguments
    ref_targets: Tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """Per-module symbol and import context."""

    name: str
    path: str
    tree: ast.Module
    lines: List[str]
    #: import alias -> dotted module name (``np`` -> ``numpy``)
    imports: Dict[str, str] = field(default_factory=dict)
    #: from-imported name -> dotted target (``Point`` ->
    #: ``repro.engine.spec.Point``)
    symbols: Dict[str, str] = field(default_factory=dict)
    #: top-level function simple name -> qname
    functions: Dict[str, str] = field(default_factory=dict)
    #: class simple name -> qname
    classes: Dict[str, str] = field(default_factory=dict)
    #: module-level names bound to mutable containers -> first lineno
    module_mutables: Dict[str, int] = field(default_factory=dict)
    #: every module-level binding (constants included)
    module_names: Set[str] = field(default_factory=set)


def module_name_for_path(path: str) -> str:
    """Dotted module name for ``path``.

    Files under a ``repro`` package map to their real import path;
    out-of-tree files (test fixtures) get their bare stem so sibling
    fixtures can import each other by name.
    """
    parts = repro_module_parts(path)
    if parts is not None:
        return "repro." + ".".join(parts)
    stem = path.replace("\\", "/").rsplit("/", 1)[-1]
    return stem[:-3] if stem.endswith(".py") else stem


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """The bare textual name of a simple annotation, if recoverable."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the outermost identifier.
        text = node.value.strip().split("[", 1)[0]
        return text.rsplit(".", 1)[-1] if text.isidentifier() or \
            "." in text else None
    if isinstance(node, ast.Subscript):
        return _annotation_name(node.value)
    return None


_DICT_ANNOTATIONS = {"dict", "Dict", "DefaultDict", "OrderedDict",
                     "Counter", "Mapping", "MutableMapping"}
_SET_ANNOTATIONS = {"set", "Set", "FrozenSet", "frozenset",
                    "MutableSet", "AbstractSet"}


def container_type_of_annotation(node: Optional[ast.AST]
                                 ) -> Optional[str]:
    """``DICT_TYPE``/``SET_TYPE`` for dict/set-flavoured annotations."""
    name = _annotation_name(node)
    if name in _DICT_ANNOTATIONS:
        return DICT_TYPE
    if name in _SET_ANNOTATIONS:
        return SET_TYPE
    return None


def is_mutable_container_expr(node: Optional[ast.AST]) -> bool:
    """Whether ``node`` constructs a mutable container (v1 PAR002)."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "deque",
                                "defaultdict", "Counter", "OrderedDict")
    return False


class Project:
    """The whole-program index over one analysis universe."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: class qname -> direct subclass qnames
        self.subclasses: Dict[str, List[str]] = {}
        #: function qname -> outgoing call sites
        self.calls: Dict[str, List[CallSite]] = {}
        #: function qname -> successor function qnames
        self.edges: Dict[str, Set[str]] = {}
        #: functions registered as simulator event callbacks
        self.sim_callback_roots: Set[str] = set()
        #: functions passed as process-pool ``Point`` tasks
        self.pool_task_roots: Set[str] = set()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, sources: Sequence[Tuple[str, str]]) -> "Project":
        """Index ``(display_path, source_text)`` pairs.

        Files that fail to parse are skipped (the syntactic pass
        reports their errors); the rest of the universe still indexes.
        """
        project = cls()
        for path, source in sources:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            project._index_module(path, source, tree)
        project._link_classes()
        for module in project.modules.values():
            project._index_attr_types(module)
        for info in list(project.functions.values()):
            project._index_calls(info)
        return project

    def _index_module(self, path: str, source: str,
                      tree: ast.Module) -> None:
        modname = module_name_for_path(path)
        module = ModuleInfo(name=modname, path=path, tree=tree,
                            lines=source.splitlines())
        # Imports anywhere in the file (this codebase imports lazily
        # inside functions a lot); visibility is over-approximated to
        # the whole module, which is harmless for resolution.
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    module.imports[bound] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    module.symbols[bound] = \
                        f"{node.module}.{alias.name}"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                qname = f"{modname}.{node.name}"
                module.functions[node.name] = qname
                self.functions[qname] = FunctionInfo(
                    qname=qname, module=modname, path=path,
                    name=node.name, node=node, lineno=node.lineno)
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets \
                    if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    module.module_names.add(target.id)
                    if is_mutable_container_expr(node.value):
                        module.module_mutables.setdefault(
                            target.id, target.lineno)
        self.modules[modname] = module
        self.by_path[path] = module

    def _index_class(self, module: ModuleInfo,
                     node: ast.ClassDef) -> None:
        qname = f"{module.name}.{node.name}"
        info = ClassInfo(qname=qname, name=node.name,
                         module=module.name)
        for base in node.bases:
            dotted = self._dotted_text(base)
            if dotted:
                info.bases.append(dotted)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                fq = f"{qname}.{item.name}"
                info.methods[item.name] = fq
                self.functions[fq] = FunctionInfo(
                    qname=fq, module=module.name, path=module.path,
                    name=item.name, node=item, lineno=item.lineno,
                    cls=qname)
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                info.fields.append(item.target.id)
        module.classes[node.name] = qname
        self.classes[qname] = info

    @staticmethod
    def _dotted_text(node: ast.AST) -> Optional[str]:
        """``a.b.c`` as text for Name/Attribute chains, else None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def _link_classes(self) -> None:
        """Resolve base-class names and build the subclass map."""
        for info in self.classes.values():
            resolved: List[str] = []
            module = self.modules[info.module]
            for base in info.bases:
                target = self.resolve_dotted(module, base)
                if target in self.classes:
                    resolved.append(target)
                    self.subclasses.setdefault(target, []) \
                        .append(info.qname)
            info.bases = resolved

    def _index_attr_types(self, module: ModuleInfo) -> None:
        """Infer ``self.x`` types from assignments inside methods."""
        for class_name, qname in module.classes.items():
            info = self.classes[qname]
            for method_qname in info.methods.values():
                func = self.functions[method_qname]
                params = self._param_annotations(module, func.node)
                for node in ast.walk(func.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if not (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            continue
                        inferred = self._infer_type(
                            module, node.value, params)
                        if inferred:
                            info.attr_types.setdefault(
                                target.attr, inferred)

    def _param_annotations(self, module: ModuleInfo,
                           node: ast.AST) -> Dict[str, str]:
        """param name -> class qname (or container sentinel)."""
        types: Dict[str, str] = {}
        args = getattr(node, "args", None)
        if args is None:
            return types
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            container = container_type_of_annotation(arg.annotation)
            if container:
                types[arg.arg] = container
                continue
            name = _annotation_name(arg.annotation)
            if name is None:
                continue
            target = self.resolve_name(module, name)
            if target in self.classes:
                types[arg.arg] = target
        return types

    def _infer_type(self, module: ModuleInfo, value: ast.AST,
                    params: Dict[str, str]) -> Optional[str]:
        """Class/sentinel type of an assigned expression, if known."""
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return DICT_TYPE
        if isinstance(value, (ast.Set, ast.SetComp)):
            return SET_TYPE
        if isinstance(value, ast.Name):
            return params.get(value.id)
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                if func.id in _CONTAINER_CTORS:
                    return _CONTAINER_CTORS[func.id]
                target = self.resolve_name(module, func.id)
                if target in self.classes:
                    return target
            dotted = self._dotted_text(func)
            if dotted:
                target = self.resolve_dotted(module, dotted)
                if target in self.classes:
                    return target
                if target and target.startswith("hashlib."):
                    return HASH_TYPE
        return None

    # -- name resolution ---------------------------------------------------

    def resolve_name(self, module: ModuleInfo,
                     name: str) -> Optional[str]:
        """Dotted target a bare ``name`` denotes inside ``module``."""
        if name in module.symbols:
            return module.symbols[name]
        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name]
        if name in module.imports:
            return module.imports[name]
        return None

    def resolve_dotted(self, module: ModuleInfo,
                       dotted: str) -> Optional[str]:
        """Resolve ``a.b.c`` text through the module's import maps."""
        head, _, rest = dotted.partition(".")
        base = self.resolve_name(module, head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base

    def resolve_method(self, class_qname: str,
                       method: str) -> List[str]:
        """Possible targets of ``instance.method()``.

        The static target (first definition up the MRO) plus every
        override in the subclass closure -- virtual dispatch.
        """
        targets: List[str] = []
        static = self._mro_lookup(class_qname, method)
        if static:
            targets.append(static)
        seen = {class_qname}
        queue = deque(self.subclasses.get(class_qname, ()))
        while queue:
            sub = queue.popleft()
            if sub in seen:
                continue
            seen.add(sub)
            info = self.classes.get(sub)
            if info is None:
                continue
            if method in info.methods:
                targets.append(info.methods[method])
            queue.extend(self.subclasses.get(sub, ()))
        return targets

    def _mro_lookup(self, class_qname: str,
                    method: str) -> Optional[str]:
        seen: Set[str] = set()
        queue = deque([class_qname])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def instance_class(self, module: ModuleInfo, func: FunctionInfo,
                       node: ast.AST,
                       local_classes: Dict[str, str]
                       ) -> Optional[str]:
        """Class qname of the instance an expression evaluates to."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and func.cls:
                return func.cls
            if node.id in local_classes:
                return local_classes[node.id]
            target = self.resolve_name(module, node.id)
            return target if target in self.classes else None
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls") and func.cls:
            info = self.classes.get(func.cls)
            while info is not None:
                if node.attr in info.attr_types:
                    return info.attr_types[node.attr]
                info = self.classes.get(info.bases[0]) \
                    if info.bases else None
            return None
        if isinstance(node, ast.Call):
            module_info = self.modules.get(func.module, module)
            return self._infer_type(module_info, node, {})
        return None

    def resolve_call(self, func: FunctionInfo, call: ast.Call,
                     local_classes: Dict[str, str]
                     ) -> Tuple[Tuple[str, ...], Optional[str]]:
        """``(project targets, external dotted name)`` for a call."""
        module = self.modules[func.module]
        node = call.func
        if isinstance(node, ast.Name):
            target = self.resolve_name(module, node.id)
            if target in self.functions:
                return (target,), None
            if target in self.classes:
                init = self._mro_lookup(target, "__init__")
                return ((init,) if init else ()), target
            if target is not None:
                return (), target
            return (), None
        if isinstance(node, ast.Attribute):
            receiver = node.value
            # module alias: time.monotonic(), random.random(), ...
            if isinstance(receiver, ast.Name) \
                    and receiver.id in module.imports \
                    and receiver.id not in local_classes:
                dotted = f"{module.imports[receiver.id]}.{node.attr}"
                resolved = self.resolve_dotted(module, dotted) \
                    if dotted.startswith(tuple(module.symbols)) \
                    else dotted
                if resolved in self.functions:
                    return (resolved,), None
                return (), dotted
            # super().m(): the first definition above the caller's class
            if isinstance(receiver, ast.Call) \
                    and isinstance(receiver.func, ast.Name) \
                    and receiver.func.id == "super" and func.cls:
                info = self.classes.get(func.cls)
                for base in (info.bases if info else ()):
                    target = self._mro_lookup(base, node.attr)
                    if target:
                        return (target,), None
                return (), None
            # dotted module path: repro.phy.timing.foo(...)
            dotted = self._dotted_text(node)
            if dotted:
                resolved = self.resolve_dotted(module, dotted)
                if resolved in self.functions:
                    return (resolved,), None
            # instance method through a known receiver class
            klass = self.instance_class(module, func, receiver,
                                        local_classes)
            if klass in (DICT_TYPE, SET_TYPE, HASH_TYPE):
                return (), f"{klass}.{node.attr}"
            if klass is not None:
                targets = self.resolve_method(klass, node.attr)
                if targets:
                    return tuple(targets), None
                return (), None
            # self.m() fallback already covered by instance_class;
            # everything else stays unresolved.
        return (), None

    # -- call graph --------------------------------------------------------

    def _index_calls(self, func: FunctionInfo) -> None:
        module = self.modules[func.module]
        sites: List[CallSite] = []
        edges: Set[str] = set()
        local_classes: Dict[str, str] = {}
        # Source-order walk: NodeVisitor visits fields in order, so
        # assignments that type a receiver precede calls through it.
        project = self

        class _Walk(ast.NodeVisitor):
            def visit_Assign(self, node: ast.Assign) -> None:
                inferred = project._infer_type(
                    module, node.value,
                    project._param_annotations(module, func.node))
                if inferred:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_classes[target.id] = inferred
                self.generic_visit(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                if isinstance(node.target, ast.Name):
                    container = container_type_of_annotation(
                        node.annotation)
                    if container:
                        local_classes[node.target.id] = container
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                targets, external = project.resolve_call(
                    func, node, local_classes)
                refs = project._reference_args(
                    module, func, node, local_classes)
                sites.append(CallSite(node=node, targets=targets,
                                      external=external,
                                      ref_targets=tuple(refs)))
                edges.update(targets)
                edges.update(refs)
                project._note_entry_points(
                    module, node, targets, external, refs)
                self.generic_visit(node)

        _Walk().visit(func.node)
        self.calls[func.qname] = sites
        self.edges[func.qname] = edges

    def _reference_args(self, module: ModuleInfo, func: FunctionInfo,
                        call: ast.Call,
                        local_classes: Dict[str, str]) -> List[str]:
        """Project functions passed by reference as arguments."""
        refs: List[str] = []
        values = list(call.args) \
            + [kw.value for kw in call.keywords]
        for value in values:
            if isinstance(value, ast.Name):
                target = self.resolve_name(module, value.id)
                if target in self.functions:
                    refs.append(target)
            elif isinstance(value, ast.Attribute) \
                    and isinstance(value.value, ast.Name):
                klass = self.instance_class(
                    module, func, value.value, local_classes)
                if klass is not None:
                    refs.extend(self.resolve_method(klass,
                                                    value.attr))
        return refs

    def _note_entry_points(self, module: ModuleInfo, call: ast.Call,
                           targets: Tuple[str, ...],
                           external: Optional[str],
                           refs: List[str]) -> None:
        """Record sim-callback and pool-task roots at this call."""
        node = call.func
        method = node.attr if isinstance(node, ast.Attribute) \
            else node.id if isinstance(node, ast.Name) else None
        if method in SIM_REGISTRAR_METHODS:
            self.sim_callback_roots.update(refs)
        is_point = external in POOL_TASK_WRAPPERS \
            or (isinstance(node, ast.Name) and node.id == "Point") \
            or any(t.endswith(".Point.__init__") for t in targets)
        if is_point:
            fn_arg: Optional[ast.AST] = None
            for keyword in call.keywords:
                if keyword.arg == "fn":
                    fn_arg = keyword.value
            if fn_arg is None and call.args:
                fn_arg = call.args[0]
            if isinstance(fn_arg, ast.Name):
                target = self.resolve_name(module, fn_arg.id)
                if target in self.functions:
                    self.pool_task_roots.add(target)

    # -- reachability ------------------------------------------------------

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Function qnames reachable from ``roots`` over all edges."""
        seen: Set[str] = set()
        queue = deque(root for root in roots
                      if root in self.functions)
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self.edges.get(current, ()))
        return seen

    def match_functions(self, patterns: Iterable[str]) -> Set[str]:
        """Functions whose qname matches one of ``patterns``.

        A pattern is a dotted qname; a trailing ``.*`` matches every
        function in that prefix.
        """
        matched: Set[str] = set()
        for pattern in patterns:
            if pattern.endswith(".*"):
                prefix = pattern[:-1]
                matched.update(q for q in self.functions
                               if q.startswith(prefix))
            elif pattern in self.functions:
                matched.add(pattern)
        return matched

    def function_at(self, path: str, line: int
                    ) -> Optional[FunctionInfo]:
        """The innermost indexed function containing ``path:line``."""
        best: Optional[FunctionInfo] = None
        for info in self.functions.values():
            if info.path != path:
                continue
            end = getattr(info.node, "end_lineno", info.lineno)
            if info.lineno <= line <= (end or info.lineno):
                if best is None or info.lineno >= best.lineno:
                    best = info
        return best
