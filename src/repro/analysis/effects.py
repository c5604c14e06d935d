"""Fixed-point effect inference over the project call graph.

Every function in the analysed package gets a *summary*: a set of
effect atoms drawn from a finite lattice ordered by set inclusion.
``pure`` is the empty set; ``unknown`` is the practical top (a dynamic
call we cannot resolve could do anything).  The atoms:

========================  ====================================================
``io``                    filesystem / process / stdout interaction
``mutates-arg``           assigns into state reachable from a parameter
``mutates-self``          assigns into state reachable from ``self``
``mutates-global``        assigns module-level bindings
``reads-global-mutable``  reads a module-level container some function writes
``nondeterministic``      wall clock, randomness, environment, ``id()``
``counter``               writes process-wide effort counters (trusted)
``store``                 reads/publishes persistent artifacts (trusted)
``unknown``               an unresolvable dynamic call — anything possible
========================  ====================================================

Inference is a classic monotone fixed point: each function is seeded
with the atoms of its own statements (:mod:`repro.analysis.callgraph`
supplies stores, global reads, and call sites with receiver roots),
then call edges propagate callee summaries into callers.  At an edge,
``mutates-self`` is *translated*: it stays ``mutates-self`` when the
receiver is ``self``, becomes ``mutates-arg`` through a parameter
receiver, ``mutates-global`` through a module-level receiver, and is
absorbed entirely by constructor calls and fresh locals (mutating an
object you just built is pure from the outside).  ``mutates-arg`` is
tracked *per parameter* — the inferred atom is ``mutates-arg:<name>``
— so translation follows exactly the argument bound to the mutated
parameter; a caller passing a fresh accumulator list absorbs the
effect instead of inheriting it.

Functions in the configured *counter modules* (``repro.metrics``) carry
the declared summary ``{counter}`` — effort
accounting is exempt by design.  Functions in the *store modules*
(``repro.store.runtime`` and friends) likewise carry ``{store}``: the
artifact store is a content-addressed hydration channel whose hits are
bit-identical to the cold computation, so reaching it through the
declared channel is as benign as a counter bump — while reaching
storage *around* the channel still infers ``io``/``unknown`` and is
flagged.  A ``# repro-lint: effects[pure]`` comment on a ``def`` pins a
summary where inference is too weak (document the reason next to it).

Every (function, atom) pair records *provenance* — the call edge or the
local statement that introduced the atom — so rules can render a
witness chain from the flagged site down to the offending statement.
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph, CallSite, FunctionScan
from repro.analysis.framework import Codebase, LintConfig

__all__ = ["ATOMS", "EffectAnalysis", "analysis_for", "atom_family"]

#: Lattice atoms in canonical (report) order.
ATOMS = (
    "counter",
    "io",
    "mutates-arg",
    "mutates-global",
    "mutates-self",
    "nondeterministic",
    "reads-global-mutable",
    "store",
    "unknown",
)

_PURE_BUILTINS = frozenset({
    "abs", "all", "any", "ascii", "bin", "bool", "bytes", "callable", "chr",
    "complex", "dict", "dir", "divmod", "enumerate", "filter", "float",
    "format", "frozenset", "getattr", "hasattr", "hash", "hex", "int",
    "isinstance", "issubclass", "iter", "len", "list", "map", "max",
    "memoryview", "min", "next", "object", "oct", "ord", "pow", "range",
    "repr", "reversed", "round", "set", "slice", "sorted", "str", "sum",
    "super", "tuple", "type", "vars", "zip",
    # Exception constructors (``raise ValueError(...)``).
    "ArithmeticError", "AssertionError", "AttributeError", "BaseException",
    "Exception", "FileNotFoundError", "IndexError", "KeyError",
    "KeyboardInterrupt", "LookupError", "NameError", "NotImplementedError",
    "OSError", "OverflowError", "RecursionError", "RuntimeError",
    "StopIteration", "SystemExit", "TypeError", "ValueError",
    "ZeroDivisionError",
})

_IO_BUILTINS = frozenset({"open", "print", "input", "breakpoint",
                          "__import__"})
_NONDET_BUILTINS = frozenset({"id"})

#: setattr-family externals mutate their first argument.
_SETATTR_FAMILY = frozenset({
    "setattr", "delattr", "object.__setattr__", "object.__delattr__",
})

_PURE_EXTERNAL_HEADS = frozenset({
    "abc", "argparse", "array", "ast", "bisect", "collections", "copy",
    "dataclasses", "decimal", "enum", "fractions", "functools", "hashlib",
    "heapq", "itertools", "json", "math", "numbers", "operator", "re",
    "statistics", "string", "struct", "textwrap", "traceback", "typing",
    "unicodedata",
})

_IO_HEADS = frozenset({
    "atexit", "importlib", "io", "logging", "multiprocessing", "pathlib",
    "shutil", "socket", "subprocess", "sys", "tempfile", "threading",
    "warnings",
})

_NONDET_HEADS = frozenset({"random", "secrets"})

_CLOCKISH = frozenset({
    "time", "time_ns", "ctime", "localtime", "gmtime", "now", "utcnow",
    "today", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
})

_MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "cache_clear", "clear", "discard",
    "difference_update", "extend", "insert", "intersection_update", "pop",
    "popitem", "popleft", "remove", "reverse", "setdefault", "sort",
    "symmetric_difference_update", "update", "write", "writelines",
    "__setitem__", "__delitem__",
})

_PURE_METHODS = frozenset({
    # str
    "capitalize", "casefold", "center", "count", "decode", "encode",
    "endswith", "expandtabs", "find", "format", "format_map", "index",
    "isalnum", "isalpha", "isascii", "isdecimal", "isdigit", "isidentifier",
    "islower", "isnumeric", "isprintable", "isspace", "istitle", "isupper",
    "join", "ljust", "lower", "lstrip", "maketrans", "partition",
    "removeprefix", "removesuffix", "replace", "rfind", "rindex", "rjust",
    "rpartition", "rsplit", "rstrip", "split", "splitlines", "startswith",
    "strip", "swapcase", "title", "translate", "upper", "zfill",
    # container reads
    "copy", "difference", "get", "intersection", "isdisjoint", "issubset",
    "issuperset", "items", "keys", "symmetric_difference", "union", "values",
    # misc read-only
    "as_integer_ratio", "bit_length", "cache_info", "digest", "hex",
    "hexdigest", "to_bytes", "__contains__", "__len__",
})


def _classify_external(dotted: str, package: str) -> frozenset[str]:
    """Effect atoms of a call out of the analysed package."""
    parts = dotted.split(".")
    head, last = parts[0], parts[-1]
    if "." not in dotted:  # bare builtin
        if dotted in _PURE_BUILTINS:
            return frozenset()
        if dotted in _IO_BUILTINS:
            return frozenset({"io"})
        if dotted in _NONDET_BUILTINS:
            return frozenset({"nondeterministic"})
        return frozenset({"unknown"})
    if dotted in _SETATTR_FAMILY:
        return frozenset({"mutates-self"})  # translated via the receiver
    if dotted in ("os.urandom", "os.getenv", "os.environ"):
        return frozenset({"nondeterministic"})
    if head in _NONDET_HEADS:
        return frozenset({"nondeterministic"})
    if head == "uuid" and last in ("uuid1", "uuid4"):
        return frozenset({"nondeterministic"})
    if head in ("time", "datetime", "date") and last in _CLOCKISH:
        return frozenset({"nondeterministic"})
    if head == "os":
        return frozenset({"io"})
    if head in _IO_HEADS:
        return frozenset({"io"})
    if head in _PURE_EXTERNAL_HEADS:
        return frozenset()
    if head == package or head == "builtins":
        # An internal dotted name the graph could not resolve.
        return frozenset({"unknown"})
    return frozenset({"unknown"})


def _mutation_atoms(root: str | None, constructor: bool) -> frozenset[str]:
    """What mutating *this receiver* means from the caller's viewpoint.

    Parameter receivers yield the *indexed* atom ``mutates-arg:<name>``
    so a call edge can translate precisely: a caller passing a fresh
    list into the mutated parameter absorbs the effect instead of
    inheriting a blanket ``mutates-arg``.
    """
    if constructor or root is None or root in ("fresh", "local"):
        return frozenset()
    if root == "self":
        return frozenset({"mutates-self"})
    if root.startswith("param:"):
        return frozenset({"mutates-arg:" + root[len("param:"):]})
    if root.startswith(("global:", "class:", "func:", "module:")):
        return frozenset({"mutates-global"})
    if root.startswith("external:"):
        return frozenset({"io"})
    return frozenset({"unknown"})


def atom_family(atom: str) -> str:
    """Collapse an indexed atom (``mutates-arg:flat``) to its family."""
    return atom.partition(":")[0]


class EffectAnalysis:
    """Summaries + provenance for every function of a codebase."""

    def __init__(self, codebase: Codebase, config: LintConfig) -> None:
        self.codebase = codebase
        self.config = config
        self.graph = CallGraph(codebase)
        #: qualname → effect atoms (empty set = pure)
        self.summaries: dict[str, frozenset[str]] = {}
        #: qualname → {atom → (line, detail)} for *locally* seeded atoms
        self.seeds: dict[str, dict[str, tuple[int, str]]] = {}
        #: (qualname, atom) → ("seed", line, detail)
        #:                  | ("call", line, callee qualname, callee atom)
        self.provenance: dict[tuple[str, str], tuple] = {}
        self._declared: dict[str, frozenset[str]] = {}
        self._solve()

    # -- inference ---------------------------------------------------------

    def _declared_summary(self, qualname: str) -> frozenset[str] | None:
        cached = self._declared.get(qualname)
        if cached is not None:
            return cached
        scan = self.graph.scans[qualname]
        if scan.declared is not None:
            self._declared[qualname] = scan.declared
            return scan.declared
        module = self.graph.functions[qualname].module
        counters = getattr(self.config, "counter_modules", ())
        if module in counters:
            declared = frozenset({"counter"})
            self._declared[qualname] = declared
            return declared
        stores = getattr(self.config, "store_modules", ())
        if module in stores:
            declared = frozenset({"store"})
            self._declared[qualname] = declared
            return declared
        return None

    def _seed(self, qualname: str) -> dict[str, tuple[int, str]]:
        scan = self.graph.scans[qualname]
        seeds: dict[str, tuple[int, str]] = {}

        def put(atom: str, line: int, detail: str) -> None:
            if atom not in seeds:
                seeds[atom] = (line, detail)

        for store in scan.stores:
            for atom in sorted(_mutation_atoms(store.root, False)):
                put(atom, store.line, f"assigns {store.detail}")
        for read in scan.global_reads:
            if self.graph.data_bindings.get(read.dotted) and (
                read.dotted in self.graph.mutated_globals
            ):
                put(
                    "reads-global-mutable", read.line,
                    f"reads mutated module-level {read.dotted}",
                )
        for site in scan.calls:
            for atom in sorted(self._local_call_atoms(site)):
                put(atom, site.line, f"calls {site.display}")
        return seeds

    def _local_call_atoms(self, site: CallSite) -> frozenset[str]:
        """Atoms a call site contributes *without* a resolved target."""
        if site.target is not None:
            return frozenset()  # handled by propagation
        if site.external is not None:
            atoms = _classify_external(site.external, self.config.package)
            if "mutates-self" in atoms:  # setattr family
                return _mutation_atoms(site.receiver, False)
            return atoms
        if site.method is not None:
            if site.method in _PURE_METHODS:
                return frozenset()
            if site.method in _MUTATING_METHODS:
                return _mutation_atoms(site.receiver, False)
            return frozenset({"unknown"})
        return frozenset({"unknown"})

    def _callee_summary(self, site: CallSite) -> list[tuple[str, frozenset[str]]]:
        """(callee qualname, summary) pairs a resolved site depends on."""
        target = site.target
        if target is None:
            return []
        if target in self.graph.functions:
            return [(target, self.summaries.get(target, frozenset()))]
        if site.constructor:
            out = []
            for ctor in ("__init__", "__post_init__"):
                fn = self.graph.resolve_method(target, ctor)
                if fn is not None:
                    out.append((fn, self.summaries.get(fn, frozenset())))
            return out
        return []

    def _solve(self) -> None:
        order = sorted(self.graph.scans)
        for qualname in order:
            declared = self._declared_summary(qualname)
            if declared is not None:
                self.summaries[qualname] = declared
                self.seeds[qualname] = {}
                continue
            seeds = self._seed(qualname)
            self.seeds[qualname] = seeds
            self.summaries[qualname] = frozenset(seeds)
            for atom, (line, detail) in seeds.items():
                self.provenance[(qualname, atom)] = ("seed", line, detail)
        changed = True
        while changed:
            changed = False
            for qualname in order:
                if self._declared_summary(qualname) is not None:
                    continue
                current = self.summaries[qualname]
                grown = set(current)
                scan = self.graph.scans[qualname]
                for site in scan.calls:
                    for callee, summary in self._callee_summary(site):
                        for callee_atom in sorted(summary):
                            translated = self._translate(
                                callee_atom, site, callee
                            )
                            for atom in sorted(translated):
                                if atom not in grown:
                                    grown.add(atom)
                                    self.provenance[(qualname, atom)] = (
                                        "call", site.line, callee, callee_atom,
                                    )
                if len(grown) != len(current):
                    self.summaries[qualname] = frozenset(grown)
                    changed = True

    def _translate(
        self, atom: str, site: CallSite, callee: str
    ) -> frozenset[str]:
        """A callee atom seen from the caller, through one call edge."""
        if atom == "mutates-self":
            return _mutation_atoms(site.receiver, site.constructor)
        if atom.startswith("mutates-arg"):
            root = self._argument_root(atom, site, callee)
            if root is not None:
                return _mutation_atoms(root, False)
            # Unindexed atom (a declared summary) or an unmatched
            # parameter (*args forwarding): union over every argument.
            out: set[str] = set()
            for arg_root in site.arg_roots:
                out |= _mutation_atoms(arg_root, False)
            for _, kw_root in site.kw_roots:
                out |= _mutation_atoms(kw_root, False)
            return frozenset(out)
        return frozenset({atom})

    def _argument_root(
        self, atom: str, site: CallSite, callee: str
    ) -> str | None:
        """The caller-side root bound to the mutated callee parameter."""
        _, _, param = atom.partition(":")
        if not param:
            return None
        info = self.graph.functions.get(callee)
        if info is None or param not in info.params:
            return None
        for keyword, root in site.kw_roots:
            if keyword == param:
                return root
        index = info.params.index(param)
        if index < len(site.arg_roots):
            return site.arg_roots[index]
        # Not passed at all — the callee mutates its default value.
        return "fresh"

    # -- reporting ---------------------------------------------------------

    def summary(self, qualname: str) -> frozenset[str] | None:
        return self.summaries.get(qualname)

    def _short(self, qualname: str) -> str:
        prefix = self.config.package + "."
        return qualname[len(prefix):] if qualname.startswith(prefix) else (
            qualname
        )

    def location(self, qualname: str, line: int | None = None) -> str:
        info = self.graph.functions[qualname]
        module = self.codebase.modules[info.module]
        return f"{self.codebase.relpath(module)}:{line or info.line}"

    def explain(self, qualname: str, atom: str) -> list[str]:
        """The witness chain from ``qualname`` down to the local seed."""
        steps: list[str] = []
        current, current_atom = qualname, atom
        for _ in range(24):  # chains are acyclic; this is a safety bound
            record = self.provenance.get((current, current_atom))
            if record is None:
                steps.append(f"{self._short(current)} [{current_atom}]")
                break
            if record[0] == "seed":
                _, line, detail = record
                steps.append(
                    f"{self._short(current)} {detail} "
                    f"({self.location(current, line)})"
                )
                break
            _, line, callee, callee_atom = record
            steps.append(
                f"{self._short(current)} → {self._short(callee)} "
                f"({self.location(current, line)})"
            )
            current, current_atom = callee, callee_atom
        return steps

    def first_step_line(self, qualname: str, atom: str) -> int:
        """The line *inside* ``qualname`` that introduces ``atom``."""
        record = self.provenance.get((qualname, atom))
        if record is None:
            return self.graph.functions[qualname].line
        return record[1] if record[0] == "seed" else record[1]

    def summary_payload(self) -> dict:
        """A sorted JSON-able dump of every inferred summary."""
        functions = []
        totals = {atom: 0 for atom in ATOMS}
        pure = 0
        for qualname in sorted(self.summaries):
            atoms = sorted(self.summaries[qualname])
            info = self.graph.functions[qualname]
            functions.append({
                "function": qualname,
                "module": info.module,
                "line": info.line,
                "effects": atoms,
                "pure": not atoms,
            })
            if not atoms:
                pure += 1
            for family in sorted({atom_family(atom) for atom in atoms}):
                totals[family] += 1
        return {
            "atoms": list(ATOMS),
            "functions": functions,
            "totals": {
                "functions": len(functions),
                "pure": pure,
                **{atom: totals[atom] for atom in ATOMS},
            },
        }


def analysis_for(codebase: Codebase, config: LintConfig) -> EffectAnalysis:
    """One shared :class:`EffectAnalysis` per (codebase, config) pair.

    The four ``effects.*`` rules all consume the same summaries; caching
    on the codebase object keeps ``python -m repro lint`` to one
    call-graph construction and one fixed point.
    """
    cached = getattr(codebase, "_effects_analysis", None)
    if cached is not None and cached.config is config:
        return cached
    analysis = EffectAnalysis(codebase, config)
    codebase._effects_analysis = analysis
    return analysis
