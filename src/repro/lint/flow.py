"""The maclint v2 forward taint / dataflow pass.

Three taint kinds, each guarding one clause of the repository's
determinism discipline:

* ``rng`` -- a value derived from an *unseeded* random source
  (``random.*``, ``numpy.random``, ``uuid``, ``secrets``).  Draws from
  :class:`repro.sim.rng.RandomStreams` are project functions and carry
  no taint, so "every random-like draw must trace to a named, seeded
  stream" falls out of source classification.  FLOW101 fires when rng
  taint born *outside* the deterministic core crosses a call boundary
  into it (inside the core the syntactic DET rules already fire at the
  draw itself).
* ``clock`` -- a wall-clock read (``time.time``/``monotonic``/...,
  ``datetime.now``).  FLOW102 fires when such a value reaches a
  determinism-bearing **sink**: a journal record, a digest input, an
  envelope field, or a simulator event time.  Wall-clock reads that
  never reach a sink (heartbeats, pacing, lag metrics) are fine -- the
  flow pass is precisely what lets maclint stop banning them by module.
* ``order`` -- a value whose content depends on unsorted ``dict``/
  ``set`` iteration order.  Dict iteration is insertion-ordered, but
  insertion history is not canonical across pool workers, shard merge
  order, or replay; set iteration additionally depends on
  ``PYTHONHASHSEED``.  FLOW103 fires when such a value reaches the
  same sinks -- exactly the bug class the shard coordinator's
  canonical-ordering contract guards against.  ``sorted()``,
  ``canonical_order()``, ``canonical()``, and
  ``json.dumps(..., sort_keys=True)`` are sanitizers.

The pass is interprocedural: every function gets a **summary**
(which taints it returns, which parameters it forwards, which
parameters reach a sink inside it) computed to a fixpoint over the
:class:`repro.lint.project.Project` call graph, so taint crosses
helper-function boundaries that the per-module v1 pass provably cannot
see.  Findings are reported **at the sink line** (a
``# maclint: disable=FLOW...`` pragma there suppresses the whole
cross-function chain); the message names the origin.

The same project index also replaces v1's curated scoping lists:

* HOT001/HOT002 run over functions *reachable from the event loop*
  (``Simulator.run``, channel completion, and every callback
  reference handed to a registrar), instead of a hand-maintained
  module list.
* PAR004 flags mutation of module-level state inside functions
  reachable from process-pool entry points (``Point`` task functions,
  the pool's worker loop and point runner, the long-lived shard worker,
  fuzz case execution) -- mutations via ``global`` are PAR001's
  jurisdiction and are left to it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
    Union,
)

from repro.lint.checker import (
    DET_EXEMPT_MODULES,
    Finding,
    repro_module_parts,
    scope_for_path,
)
from repro.lint.project import (
    DICT_TYPE,
    HASH_TYPE,
    SET_TYPE,
    FunctionInfo,
    ModuleInfo,
    Project,
)

# --------------------------------------------------------------------------
# taint values


@dataclass(frozen=True)
class TaintTag:
    """One concrete taint: kind + where it was born."""

    kind: str  # "rng" | "clock" | "order"
    origin: str  # human-readable source, e.g. "time.monotonic()"
    path: str
    line: int
    func: str  # qname of the function the source sits in


@dataclass(frozen=True)
class ParamTag:
    """Summary marker: "the taint of my caller's argument ``index``"."""

    index: int


@dataclass(frozen=True)
class FieldTag:
    """Field-scoped taint on a dataclass-style object.

    Constructing ``RunResult(values=clean, wall_s=clock)`` yields
    ``{FieldTag("wall_s", clock)}``; loading ``.values`` extracts
    nothing, loading ``.wall_s`` extracts the clock tag, and passing
    the whole object into a sink flattens every field's taint.  Depth
    is capped at one level: wrapping an already-wrapped tag re-wraps
    its inner tag, keeping the tag universe finite for the fixpoint.
    """

    field: str  # attribute name, or "#<i>" for tuple position i
    inner: Union[TaintTag, ParamTag]


Tag = Union[TaintTag, ParamTag, FieldTag]
Taint = FrozenSet[Tag]
EMPTY: Taint = frozenset()


def _strip_order(taint: Iterable[Tag]) -> Taint:
    """Remove order tags, including inside field/tuple wrappers."""
    out: Set[Tag] = set()
    for tag in taint:
        probe = tag.inner if isinstance(tag, FieldTag) else tag
        if isinstance(probe, TaintTag) and probe.kind == "order":
            continue
        out.add(tag)
    return frozenset(out)


def _project_field(taint: Iterable[Tag], key: str) -> Taint:
    """Extract ``key``'s taint from a field/tuple-tagged value.

    Matching wrappers unwrap, other wrappers drop, and bare tags pass
    through (they taint the whole object, hence every projection).
    """
    out: Set[Tag] = set()
    for tag in taint:
        if isinstance(tag, FieldTag):
            if tag.field == key:
                out.add(tag.inner)
        else:
            out.add(tag)
    return frozenset(out)


def flatten(taint: Iterable[Tag]) -> Set[Union[TaintTag, ParamTag]]:
    """Strip field wrappers: the tags a whole-object use exposes."""
    out: Set[Union[TaintTag, ParamTag]] = set()
    for tag in taint:
        out.add(tag.inner if isinstance(tag, FieldTag) else tag)
    return out


@dataclass(frozen=True)
class SinkInfo:
    """One sink site inside a function body."""

    descr: str
    path: str
    line: int
    col: int
    func: str
    kinds: Tuple[str, ...]


@dataclass(frozen=True)
class Summary:
    """The interprocedural behaviour of one function."""

    returns: Taint = EMPTY
    param_sinks: FrozenSet[Tuple[int, SinkInfo]] = frozenset()


# --------------------------------------------------------------------------
# source / sanitizer / sink tables

_WALL_CLOCK_EXTERNALS = {
    "time.time", "time.time_ns", "time.monotonic",
    "time.monotonic_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
}
_DATETIME_NOW_ATTRS = ("now", "utcnow", "today")
_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")
_ORDER_VIEW_METHODS = {"items", "keys", "values"}
_LINEARIZERS = {"list", "tuple", "iter", "enumerate"}

#: Builtins whose result does not depend on argument iteration order.
_ORDER_SANITIZERS = {"sorted", "sum", "min", "max", "len", "frozenset"}
#: Builtins whose result carries no taint at all.
_FULL_SANITIZERS = {"len", "any", "all", "bool", "isinstance", "id"}
#: Project functions that canonicalise ordering; declared explicitly so
#: recursion in their bodies cannot blur the summary.
_ORDER_SANITIZER_FUNCS = {
    "repro.shard.envelopes.canonical_order",
    "repro.shard.envelopes.canonical_sort_key",
    "repro.engine.hashing.canonical",
}

_JOURNAL_CLASSES = {"AppendLog", "ServiceJournal", "CityJournal"}
_JOURNAL_METHODS = {
    "append_control", "append_snapshot", "append_event",
    "append_epoch", "write_header", "append_record",
}
_ENVELOPE_SINK_FUNCS = {
    "repro.shard.envelopes.message_envelope",
    "repro.shard.envelopes.handoff_envelope",
}
_SIM_CLASSES = {"Simulator"}
_EVENT_TIME_METHODS = {"call_at"}

#: HOT reachability roots: the event loop and channel completion.
HOT_ROOT_PATTERNS: Tuple[str, ...] = (
    "repro.sim.core.Simulator.run",
    "repro.phy.channel.Link.deliver_codewords",
    "repro.phy.channel.ReverseChannel._complete",
    "repro.phy.channel.ForwardChannel._complete",
)

#: PAR004 roots beyond auto-discovered ``Point(fn=...)`` targets: the
#: pool's worker loop, the engine's point runner and the city's shard
#: worker.  A worker lives for the whole ``map`` or city run, so module
#: state it mutates persists across points or epochs -- and differs
#: from the serial run, where everything shares one copy.
PAR_ROOT_PATTERNS: Tuple[str, ...] = (
    "repro.engine.executors.point_runner",
    "repro.engine.executors.serve",
    "repro.fuzz.runner.run_fuzz_case",
    "repro.shard.shard.ShardSim.*",
    "repro.shard.worker.shard_worker",
)

#: Methods that mutate a container in place (PAR004).
_MUTATOR_METHODS = {
    "append", "appendleft", "add", "update", "setdefault", "pop",
    "popitem", "popleft", "clear", "extend", "remove", "discard",
    "insert", "sort", "reverse",
}


def _source_kind(external: Optional[str]) -> Optional[str]:
    """Taint kind born by calling the external dotted name, if any."""
    if external is None:
        return None
    if external.startswith(_RNG_PREFIXES) or \
            external.startswith("uuid.uuid"):
        return "rng"
    if external in _WALL_CLOCK_EXTERNALS:
        return "clock"
    if external.startswith("datetime.") and \
            external.rsplit(".", 1)[-1] in _DATETIME_NOW_ATTRS:
        return "clock"
    return None


# --------------------------------------------------------------------------
# per-function transfer


class _FunctionWalk:
    """Flow-sensitive walk of one function body.

    Runs in two modes: summary mode (``collect is None``) computes the
    returns/param-sink summary; findings mode additionally emits
    :class:`Finding` objects for concrete taint reaching sinks and for
    rng taint crossing into the deterministic core.
    """

    def __init__(self, flow: "FlowEngine", func: FunctionInfo,
                 collect: Optional[List[Finding]]) -> None:
        self.flow = flow
        self.project = flow.project
        self.func = func
        self.module: ModuleInfo = flow.project.modules[func.module]
        self.collect = collect
        self.env: Dict[str, Taint] = {}
        self.local_classes: Dict[str, str] = {}
        self.returns: Set[Tag] = set()
        self.param_sinks: Set[Tuple[int, SinkInfo]] = set()
        self.param_index: Dict[str, int] = {}
        args = getattr(func.node, "args", None)
        if args is not None:
            ordered = args.posonlyargs + args.args
            for index, arg in enumerate(ordered):
                self.param_index[arg.arg] = index
                self.env[arg.arg] = frozenset({ParamTag(index)})
            for arg in args.kwonlyargs:
                index = len(ordered) + args.kwonlyargs.index(arg)
                self.param_index[arg.arg] = index
                self.env[arg.arg] = frozenset({ParamTag(index)})
        self.local_classes.update(
            self.project._param_annotations(self.module, func.node))
        # Draws inside the sanctioned RNG home (sim/rng.py, the one
        # place allowed to construct random.Random) carry no taint:
        # "traces to RandomStreams" is exactly this exemption.
        self.rng_sanctioned = \
            repro_module_parts(func.path) in DET_EXEMPT_MODULES

    # -- summary entry point -----------------------------------------------

    def run(self) -> Summary:
        body = getattr(self.func.node, "body", [])
        self.exec_block(body)
        return Summary(returns=frozenset(self.returns),
                       param_sinks=frozenset(self.param_sinks))

    # -- helpers -----------------------------------------------------------

    def _tag(self, kind: str, origin: str, node: ast.AST) -> TaintTag:
        return TaintTag(kind=kind, origin=origin, path=self.func.path,
                        line=getattr(node, "lineno", self.func.lineno),
                        func=self.func.qname)

    def _line_text(self, path: str, line: int) -> str:
        module = self.project.by_path.get(path)
        if module and 0 < line <= len(module.lines):
            return module.lines[line - 1].strip()
        return ""

    def _emit(self, rule: str, path: str, line: int, col: int,
              message: str) -> None:
        if self.collect is None:
            return
        finding = Finding(rule=rule, path=path, line=line, col=col,
                          message=message,
                          text=self._line_text(path, line))
        key = (rule, path, line, message)
        if key not in self.flow.seen:
            self.flow.seen.add(key)
            self.collect.append(finding)

    def _report_sink(self, tag: TaintTag, sink: SinkInfo) -> None:
        """A concrete taint reached a sink: FLOW102 / FLOW103."""
        if tag.kind == "clock":
            self._emit(
                "FLOW102", sink.path, sink.line, sink.col,
                f"wall-clock value ({tag.origin}, "
                f"{tag.path}:{tag.line}) reaches {sink.descr}; derive "
                f"it from sim.now or cycle indices instead")
        elif tag.kind == "order":
            self._emit(
                "FLOW103", sink.path, sink.line, sink.col,
                f"iteration-order-dependent value ({tag.origin}, "
                f"{tag.path}:{tag.line}) reaches {sink.descr}; sort "
                f"or canonicalise before emitting")

    def _sink(self, sink: SinkInfo, taints: Iterable[Taint]) -> None:
        """Route every tag of ``taints`` into ``sink``."""
        for taint in taints:
            for tag in flatten(taint):
                if isinstance(tag, ParamTag):
                    self.param_sinks.add((tag.index, sink))
                elif tag.kind in sink.kinds:
                    self._report_sink(tag, sink)

    # -- expression evaluation ---------------------------------------------

    def eval(self, node: Optional[ast.AST]) -> Taint:
        if node is None:
            return EMPTY
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Default: union of child expression taints.
        out: Set[Tag] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.eval(child)
        return frozenset(out)

    def _eval_Constant(self, node: ast.Constant) -> Taint:
        return EMPTY

    def _eval_Name(self, node: ast.Name) -> Taint:
        return self.env.get(node.id, EMPTY)

    def _eval_Attribute(self, node: ast.Attribute) -> Taint:
        if isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls"):
            return self.env.get(f"self.{node.attr}", EMPTY)
        return _project_field(self.eval(node.value), node.attr)

    def _eval_Subscript(self, node: ast.Subscript) -> Taint:
        base = self.eval(node.value)
        index = node.slice
        if isinstance(index, ast.Constant) \
                and type(index.value) is int:
            return _project_field(base, f"#{index.value}")
        return frozenset(flatten(base)
                         | flatten(self.eval(node.slice)))

    def _eval_Tuple(self, node: ast.Tuple) -> Taint:
        """Tuple literals are position-tagged: ``return payload,
        wall_s`` must not smear the timing's taint onto the payload
        when the caller unpacks."""
        out: Set[Tag] = set()
        for position, element in enumerate(node.elts):
            for tag in self.eval(element):
                inner = tag.inner if isinstance(tag, FieldTag) \
                    else tag
                out.add(FieldTag(f"#{position}", inner))
        return frozenset(out)

    def _eval_Starred(self, node: ast.Starred) -> Taint:
        return self.eval(node.value)

    def _eval_Lambda(self, node: ast.Lambda) -> Taint:
        return EMPTY

    def _eval_IfExp(self, node: ast.IfExp) -> Taint:
        return self.eval(node.test) | self.eval(node.body) \
            | self.eval(node.orelse)

    def _eval_Dict(self, node: ast.Dict) -> Taint:
        out: Set[Tag] = set()
        for key in node.keys:
            out |= self.eval(key)
        for value in node.values:
            out |= self.eval(value)
        return frozenset(out)

    def _comp(self, node: ast.AST, element_nodes: Sequence[ast.AST],
              ) -> Taint:
        saved_env = dict(self.env)
        for comp in getattr(node, "generators", []):
            iter_taint = self._iteration_taint(comp.iter)
            self._bind(comp.target, iter_taint)
            for cond in comp.ifs:
                self.eval(cond)
        out: Set[Tag] = set()
        for element in element_nodes:
            out |= self.eval(element)
        self.env = saved_env
        return frozenset(out)

    def _eval_ListComp(self, node: ast.ListComp) -> Taint:
        return self._comp(node, [node.elt])

    def _eval_SetComp(self, node: ast.SetComp) -> Taint:
        return self._comp(node, [node.elt])

    def _eval_GeneratorExp(self, node: ast.GeneratorExp) -> Taint:
        return self._comp(node, [node.elt])

    def _eval_DictComp(self, node: ast.DictComp) -> Taint:
        return self._comp(node, [node.key, node.value])

    def _eval_Await(self, node: ast.Await) -> Taint:
        return self.eval(node.value)

    def _eval_Yield(self, node: ast.Yield) -> Taint:
        taint = self.eval(node.value)
        self.returns |= taint
        return EMPTY

    def _eval_YieldFrom(self, node: ast.YieldFrom) -> Taint:
        taint = self.eval(node.value)
        self.returns |= taint
        return taint

    # -- container typing / order sources ----------------------------------

    def _static_container(self, node: ast.AST) -> Optional[str]:
        """DICT_TYPE/SET_TYPE when the expression is a known dict/set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return SET_TYPE
        if isinstance(node, (ast.Dict, ast.DictComp)):
            # A dict *literal* iterates in source order -- canonical.
            return None
        klass = self.project.instance_class(
            self.module, self.func, node, self.local_classes)
        if klass in (DICT_TYPE, SET_TYPE):
            return klass
        return None

    def _is_order_view(self, node: ast.AST) -> bool:
        """``x.items()`` / ``.keys()`` / ``.values()`` calls."""
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDER_VIEW_METHODS
                and not node.args and not node.keywords)

    def _order_origin(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set iteration"
        if self._is_order_view(node):
            # Only views over receivers *statically known* to be
            # dict/set: `**kwargs.items()` and friends keep source
            # order and would drown real findings in noise.
            assert isinstance(node, ast.Call)
            assert isinstance(node.func, ast.Attribute)
            if self._static_container(node.func.value) is not None:
                return f".{node.func.attr}() iteration"
            return None
        container = self._static_container(node)
        if container == SET_TYPE:
            return "set iteration"
        if container == DICT_TYPE:
            return "dict iteration"
        return None

    def _iteration_taint(self, iter_node: ast.AST) -> Taint:
        # Tuple structure does not survive iteration in this model:
        # positional wrappers dissolve into their inner tags.
        taint: Set[Tag] = set()
        for tag in self.eval(iter_node):
            if isinstance(tag, FieldTag) and tag.field.startswith("#"):
                taint.add(tag.inner)
            else:
                taint.add(tag)
        origin = self._order_origin(iter_node)
        if origin is not None:
            taint.add(self._tag("order", origin, iter_node))
        return frozenset(taint)

    # -- calls -------------------------------------------------------------

    def _arg_taints(self, call: ast.Call,
                    ) -> Tuple[List[Taint], Dict[str, Taint]]:
        positional = [self.eval(arg) for arg in call.args]
        keywords: Dict[str, Taint] = {}
        for keyword in call.keywords:
            taint = self.eval(keyword.value)
            if keyword.arg is None:  # **kwargs splat
                for index in range(len(positional)):
                    positional[index] |= EMPTY
                keywords["**"] = keywords.get("**", EMPTY) | taint
            else:
                keywords[keyword.arg] = taint
        return positional, keywords

    def _argmap_for(self, target: str, call: ast.Call,
                    positional: List[Taint],
                    keywords: Dict[str, Taint],
                    receiver_taint: Taint, bound: bool,
                    ) -> Dict[int, Taint]:
        """Map call arguments onto the callee's parameter indices."""
        info = self.flow.project.functions.get(target)
        argmap: Dict[int, Taint] = {}
        offset = 1 if (bound and info is not None
                       and info.cls is not None) else 0
        if offset:
            argmap[0] = receiver_taint
        for index, taint in enumerate(positional):
            argmap[index + offset] = taint
        if info is not None:
            names: Dict[str, int] = {}
            args = getattr(info.node, "args", None)
            if args is not None:
                ordered = args.posonlyargs + args.args \
                    + args.kwonlyargs
                for param_pos, arg in enumerate(ordered):
                    names[arg.arg] = param_pos
            for name, taint in keywords.items():
                if name in names:
                    argmap[names[name]] = taint
        return argmap

    def _check_sinks(self, call: ast.Call, targets: Tuple[str, ...],
                     external: Optional[str], receiver_class:
                     Optional[str], positional: List[Taint],
                     keywords: Dict[str, Taint],
                     receiver_taint: Taint) -> None:
        """Direct sink sites at this call."""
        func_node = call.func
        attr = func_node.attr \
            if isinstance(func_node, ast.Attribute) else None
        all_args = list(positional) + list(keywords.values())
        line = call.lineno
        col = call.col_offset

        def sink(descr: str, kinds: Tuple[str, ...],
                 taints: Iterable[Taint]) -> None:
            self._sink(SinkInfo(descr=descr, path=self.func.path,
                                line=line, col=col,
                                func=self.func.qname, kinds=kinds),
                       taints)

        for target in targets:
            if target in _ENVELOPE_SINK_FUNCS:
                name = target.rsplit(".", 1)[-1]
                sink(f"{name}() envelope field",
                     ("clock", "order"), all_args)
        if external is not None and external.startswith("hashlib."):
            sink("digest input (hashlib)", ("clock", "order"),
                 all_args)
        if receiver_class == HASH_TYPE and attr == "update":
            sink("digest input (hashlib update)", ("clock", "order"),
                 all_args)
        if receiver_class is not None and attr is not None:
            simple = receiver_class.rsplit(".", 1)[-1]
            if simple in _JOURNAL_CLASSES \
                    and attr in _JOURNAL_METHODS:
                sink(f"journal record ({simple}.{attr})",
                     ("clock", "order"), all_args)
            if simple in _SIM_CLASSES \
                    and attr in _EVENT_TIME_METHODS and positional:
                sink(f"simulator event time ({simple}.{attr})",
                     ("clock",), positional[:1])
        # Unresolved journal-flavoured receivers (duck typing): only
        # the unambiguous append_* names, to stay quiet on lists.
        if receiver_class is None and attr is not None \
                and attr in ("append_control", "append_snapshot",
                             "append_event", "append_epoch"):
            sink(f"journal record (.{attr})", ("clock", "order"),
                 all_args)

    def _check_rng_crossing(self, call: ast.Call,
                            targets: Tuple[str, ...], result: Taint,
                            argmaps: Dict[str, Dict[int, Taint]],
                            ) -> None:
        """FLOW101: rng taint crossing into the deterministic core."""
        if self.collect is None:
            return
        caller_det = self.flow.det_scoped(self.func.qname)

        def foreign_rng(taint: Taint) -> List[TaintTag]:
            tags = []
            for tag in flatten(taint):
                if isinstance(tag, TaintTag) and tag.kind == "rng" \
                        and tag.func != self.func.qname \
                        and not self.flow.det_scoped(tag.func):
                    tags.append(tag)
            return tags

        if caller_det:
            for tag in foreign_rng(result):
                self._emit(
                    "FLOW101", self.func.path, call.lineno,
                    call.col_offset,
                    f"value derived from {tag.origin} "
                    f"({tag.path}:{tag.line}) enters deterministic "
                    f"core code; draw it from a seeded "
                    f"RandomStreams stream instead")
        else:
            for target in targets:
                if not self.flow.det_scoped(target):
                    continue
                for taint in argmaps.get(target, {}).values():
                    for tag in foreign_rng(taint):
                        self._emit(
                            "FLOW101", self.func.path, call.lineno,
                            call.col_offset,
                            f"value derived from {tag.origin} "
                            f"({tag.path}:{tag.line}) passed into "
                            f"deterministic core function "
                            f"{target.rsplit('.', 1)[-1]}(); draw it "
                            f"from a seeded RandomStreams stream "
                            f"instead")

    def _eval_Call(self, call: ast.Call) -> Taint:
        targets, external = self.project.resolve_call(
            self.func, call, self.local_classes)
        positional, keywords = self._arg_taints(call)
        args_union: Set[Tag] = set()
        for taint in positional:
            args_union |= taint
        for taint in keywords.values():
            args_union |= taint

        func_node = call.func
        receiver_taint = EMPTY
        receiver_class: Optional[str] = None
        bound = False
        if isinstance(func_node, ast.Attribute):
            receiver_taint = self.eval(func_node.value)
            receiver_class = self.project.instance_class(
                self.module, self.func, func_node.value,
                self.local_classes)
            bound = True

        # -- sanitizers ----------------------------------------------------
        if isinstance(func_node, ast.Name):
            name = func_node.id
            if name in _FULL_SANITIZERS:
                return EMPTY
            if name in _ORDER_SANITIZERS:
                return _strip_order(args_union)
            if name in _LINEARIZERS:
                taint = set(args_union)
                if call.args:
                    origin = self._order_origin(call.args[0])
                    if origin is not None:
                        taint.add(self._tag(
                            "order", f"{name}() over {origin}", call))
                return frozenset(taint)
        if external == "json.dumps":
            sort_keys = any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True for kw in call.keywords)
            if sort_keys:
                return _strip_order(args_union)
        if any(t in _ORDER_SANITIZER_FUNCS for t in targets):
            return _strip_order(args_union)

        # -- sources -------------------------------------------------------
        kind = _source_kind(external)
        if kind is not None:
            if kind == "rng" and self.rng_sanctioned:
                return EMPTY
            return frozenset({self._tag(kind, f"{external}()", call)})
        if self._is_order_view(call):
            assert isinstance(func_node, ast.Attribute)
            taint = set(receiver_taint)
            if self._static_container(func_node.value) is not None:
                taint.add(self._tag(
                    "order", f".{func_node.attr}() view", call))
            return frozenset(taint)

        # -- sinks ---------------------------------------------------------
        self._check_sinks(call, targets, external, receiver_class,
                          positional, keywords, receiver_taint)

        # -- interprocedural propagation -----------------------------------
        if not targets and external in self.project.classes:
            # Dataclass-style construction (no explicit __init__):
            # field-scope each argument's taint so later attribute
            # loads extract only their own field.
            return self._construct(external, positional, keywords)
        result: Set[Tag] = set()
        argmaps: Dict[str, Dict[int, Taint]] = {}
        for target in targets:
            argmap = self._argmap_for(target, call, positional,
                                      keywords, receiver_taint, bound)
            argmaps[target] = argmap
            summary = self.flow.summaries.get(target)
            if summary is None:
                continue
            for tag in summary.returns:
                if isinstance(tag, ParamTag):
                    result |= argmap.get(tag.index, EMPTY)
                elif isinstance(tag, FieldTag) \
                        and isinstance(tag.inner, ParamTag):
                    for sub in argmap.get(tag.inner.index, EMPTY):
                        result.add(FieldTag(
                            tag.field,
                            sub.inner if isinstance(sub, FieldTag)
                            else sub))
                else:
                    result.add(tag)
            for index, sink in summary.param_sinks:
                for tag in flatten(argmap.get(index, EMPTY)):
                    if isinstance(tag, ParamTag):
                        self.param_sinks.add((tag.index, sink))
                    elif tag.kind in sink.kinds:
                        if self.collect is not None:
                            self._report_sink(tag, sink)
        if not targets:
            # Unresolved calls conservatively forward their inputs:
            # a method on an rng-tainted object (``rng.random()``)
            # or a helper fed a clock value stays tainted.
            result |= args_union
            result |= receiver_taint
            # In-place mutators taint their receiver variable:
            # ``acc.append(tainted)`` makes ``acc`` tainted.
            if isinstance(func_node, ast.Attribute) \
                    and func_node.attr in _MUTATOR_METHODS \
                    and args_union:
                self._taint_receiver(func_node.value,
                                     frozenset(flatten(args_union)))
        self._check_rng_crossing(call, targets, frozenset(result),
                                 argmaps)
        return frozenset(result)

    def _taint_receiver(self, node: ast.AST, taint: Taint) -> None:
        if isinstance(node, ast.Name):
            self.env[node.id] = self.env.get(node.id, EMPTY) | taint
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls"):
            key = f"self.{node.attr}"
            self.env[key] = self.env.get(key, EMPTY) | taint

    def _construct(self, class_qname: str, positional: List[Taint],
                   keywords: Dict[str, Taint]) -> Taint:
        info = self.project.classes[class_qname]
        out: Set[Tag] = set()

        def wrap(name: Optional[str], taint: Taint) -> None:
            for tag in taint:
                inner = tag.inner if isinstance(tag, FieldTag) \
                    else tag
                out.add(inner if name is None
                        else FieldTag(name, inner))

        for index, taint in enumerate(positional):
            wrap(info.fields[index]
                 if index < len(info.fields) else None, taint)
        for kw_name, taint in keywords.items():
            wrap(kw_name if kw_name in info.fields else None, taint)
        return frozenset(out)

    # -- statements --------------------------------------------------------

    def _bind(self, target: ast.AST, taint: Taint,
              value: Optional[ast.AST] = None,
              augment: bool = False) -> None:
        if isinstance(target, ast.Name):
            if augment:
                taint = taint | self.env.get(target.id, EMPTY)
            self.env[target.id] = taint
            if value is not None:
                inferred = self.project._infer_type(
                    self.module, value,
                    self.project._param_annotations(
                        self.module, self.func.node))
                if inferred:
                    self.local_classes[target.id] = inferred
                elif not augment and target.id in self.local_classes:
                    del self.local_classes[target.id]
        elif isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id in ("self", "cls"):
            key = f"self.{target.attr}"
            if augment:
                taint = taint | self.env.get(key, EMPTY)
            self.env[key] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for position, element in enumerate(target.elts):
                self._bind(element,
                           _project_field(taint, f"#{position}"))
        elif isinstance(target, ast.Subscript):
            # x[k] = tainted  -->  x absorbs the taint.
            base = target.value
            if isinstance(base, ast.Name):
                self.env[base.id] = \
                    self.env.get(base.id, EMPTY) | taint
            elif isinstance(base, ast.Attribute) \
                    and isinstance(base.value, ast.Name) \
                    and base.value.id in ("self", "cls"):
                key = f"self.{base.attr}"
                self.env[key] = self.env.get(key, EMPTY) | taint
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)

    def exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def _merged(self, branches: Sequence[Sequence[ast.stmt]]) -> None:
        """Execute each branch from the same entry env; union exits."""
        entry = dict(self.env)
        exits: List[Dict[str, Taint]] = []
        for body in branches:
            self.env = dict(entry)
            self.exec_block(body)
            exits.append(self.env)
        merged: Dict[str, Taint] = {}
        for env in exits or [entry]:
            for name, taint in env.items():
                merged[name] = merged.get(name, EMPTY) | taint
        self.env = merged

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, taint, value=stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            taint = self.eval(stmt.value) if stmt.value else EMPTY
            self._bind(stmt.target, taint, value=stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            taint = self.eval(stmt.value)
            self._bind(stmt.target, taint, augment=True)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            self.returns |= self.eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._iteration_taint(stmt.iter)
            # Two body passes propagate loop-carried taint.
            for _ in range(2):
                self._bind(stmt.target, taint)
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for _ in range(2):
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self._merged([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint,
                               value=item.context_expr)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            branches: List[Sequence[ast.stmt]] = [[]]
            branches.extend(h.body for h in stmt.handlers)
            self._merged(branches)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # Nested function/class definitions are indexed as part of the
        # enclosing function's call graph; their bodies are not
        # re-walked here.


# --------------------------------------------------------------------------
# the engine


class FlowEngine:
    """Whole-program taint + reachability analysis over a Project."""

    MAX_PASSES = 8

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries: Dict[str, Summary] = {}
        self.seen: Set[Tuple[str, str, int, str]] = set()
        self._det_cache: Dict[str, bool] = {}

    def det_scoped(self, qname: str) -> bool:
        """Whether ``qname`` lives in a DET-scoped file."""
        cached = self._det_cache.get(qname)
        if cached is not None:
            return cached
        info = self.project.functions.get(qname)
        value = bool(info) and scope_for_path(info.path).det \
            if info else False
        self._det_cache[qname] = value
        return value

    def run(self) -> List[Finding]:
        """Compute summaries to fixpoint, then emit all findings."""
        for _ in range(self.MAX_PASSES):
            changed = False
            for qname, info in self.project.functions.items():
                summary = _FunctionWalk(self, info, None).run()
                if self.summaries.get(qname) != summary:
                    self.summaries[qname] = summary
                    changed = True
            if not changed:
                break
        findings: List[Finding] = []
        for info in self.project.functions.values():
            _FunctionWalk(self, info, findings).run()
        findings.extend(self.hot_findings())
        findings.extend(self.par_findings())
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    # -- reachability-scoped HOT ------------------------------------------

    def hot_reachable(self) -> Set[str]:
        roots = self.project.match_functions(HOT_ROOT_PATTERNS)
        roots |= self.project.sim_callback_roots
        return self.project.reachable_from(roots)

    def hot_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        for qname in sorted(self.hot_reachable()):
            info = self.project.functions[qname]
            if not scope_for_path(info.path).par:
                continue  # lint package itself is exempt
            module = self.project.modules[info.module]
            self._scan_hot(info, module, info.node, 0, findings)
        return findings

    def _scan_hot(self, info: FunctionInfo, module: ModuleInfo,
                  node: ast.AST, loop_depth: int,
                  findings: List[Finding]) -> None:
        for child in ast.iter_child_nodes(node):
            depth = loop_depth
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                depth += 1
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Name):
                if child.func.id == "print":
                    findings.append(self._hot_finding(
                        "HOT001", info, module, child,
                        "print() on the event-loop path (reachable "
                        "from the simulator kernel); report through "
                        "stats/obs and render from the CLI layer"))
                elif child.func.id == "open" and loop_depth > 0:
                    findings.append(self._hot_finding(
                        "HOT002", info, module, child,
                        "open() inside a loop on the event-loop "
                        "path; buffer and write once outside the "
                        "loop"))
            self._scan_hot(info, module, child, depth, findings)

    def _hot_finding(self, rule: str, info: FunctionInfo,
                     module: ModuleInfo, node: ast.AST,
                     message: str) -> Finding:
        line = getattr(node, "lineno", info.lineno)
        text = module.lines[line - 1].strip() \
            if 0 < line <= len(module.lines) else ""
        return Finding(rule=rule, path=info.path, line=line,
                       col=getattr(node, "col_offset", 0),
                       message=message, text=text)

    # -- PAR004: pool-reachable module state -------------------------------

    def par_roots(self) -> Set[str]:
        roots = set(self.project.pool_task_roots)
        roots |= self.project.match_functions(PAR_ROOT_PATTERNS)
        return roots

    def par_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        reachable = self.project.reachable_from(self.par_roots())
        for qname in sorted(reachable):
            info = self.project.functions[qname]
            if not scope_for_path(info.path).par:
                continue
            module = self.project.modules[info.module]
            shadowed = self._local_names(info.node)
            for node, name in self._module_mutations(
                    module, info.node, shadowed):
                line = getattr(node, "lineno", info.lineno)
                text = module.lines[line - 1].strip() \
                    if 0 < line <= len(module.lines) else ""
                findings.append(Finding(
                    rule="PAR004", path=info.path, line=line,
                    col=getattr(node, "col_offset", 0),
                    message=f"module-level state {name!r} mutated "
                            f"on the process-pool path (function "
                            f"reachable from a Point task, a pool "
                            f"worker or a shard worker); each worker "
                            f"mutates a private copy -- pass state "
                            f"through the task config",
                    text=text))
        return findings

    @staticmethod
    def _local_names(node: ast.AST) -> Set[str]:
        """Names bound (or declared global) inside the function."""
        names: Set[str] = set()
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (args.posonlyargs + args.args
                        + args.kwonlyargs):
                names.add(arg.arg)
            if args.vararg:
                names.add(args.vararg.arg)
            if args.kwarg:
                names.add(args.kwarg.arg)
        for child in ast.walk(node):
            if isinstance(child, ast.Name) \
                    and isinstance(child.ctx, ast.Store):
                names.add(child.id)
            elif isinstance(child, (ast.Global, ast.Nonlocal)):
                # `global` mutations are PAR001's jurisdiction.
                names.update(child.names)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                names.add(child.name)
        return names

    def _module_level_name(self, module: ModuleInfo, node: ast.AST,
                           shadowed: Set[str]) -> Optional[str]:
        """The module-level binding ``node`` refers to, if any."""
        if isinstance(node, ast.Name):
            if node.id in shadowed:
                return None
            if node.id in module.module_names:
                return node.id
            dotted = module.symbols.get(node.id)
            if dotted:
                owner, _, attr = dotted.rpartition(".")
                target = self.project.modules.get(owner)
                if target and attr in target.module_names:
                    return node.id
            return None
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id not in shadowed:
            owner_name = module.imports.get(node.value.id)
            target = self.project.modules.get(owner_name or "")
            if target and node.attr in target.module_names:
                return f"{node.value.id}.{node.attr}"
        return None

    def _module_mutations(self, module: ModuleInfo, node: ast.AST,
                          shadowed: Set[str],
                          ) -> List[Tuple[ast.AST, str]]:
        hits: List[Tuple[ast.AST, str]] = []
        for child in ast.walk(node):
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and child.func.attr in _MUTATOR_METHODS:
                name = self._module_level_name(
                    module, child.func.value, shadowed)
                if name is not None:
                    hits.append((child, name))
            elif isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = child.targets \
                    if isinstance(child, ast.Assign) \
                    else [child.target]
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    name = self._module_level_name(
                        module, target.value, shadowed)
                    if name is not None:
                        hits.append((target, name))
        return hits


def analyze_project(project: Project) -> List[Finding]:
    """All flow/reachability findings for ``project``."""
    return FlowEngine(project).run()
