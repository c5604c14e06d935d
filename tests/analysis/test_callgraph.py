"""Resolution behaviour of the project call graph."""

from repro.analysis.callgraph import CallGraph

from tests.analysis.util import build


def graph_for(tmp_path, files):
    codebase, _config = build(tmp_path, files)
    return CallGraph(codebase)


def site(graph, qualname, predicate):
    sites = [s for s in graph.scans[qualname].calls if predicate(s)]
    assert sites, f"no matching call site in {qualname}"
    return sites[0]


def test_functions_are_indexed_with_params_sans_self(tmp_path):
    graph = graph_for(tmp_path, {
        "fixpkg/low/base.py": """\
            class Box:
                def put(self, item, slot=0):
                    self.item = item


            def free(a, b):
                return a + b
            """,
    })
    put = graph.functions["fixpkg.low.base.Box.put"]
    assert put.params == ("item", "slot")
    assert put.self_name == "self"
    free = graph.functions["fixpkg.low.base.free"]
    assert free.params == ("a", "b")
    assert free.self_name is None


def test_direct_and_method_calls_resolve(tmp_path):
    graph = graph_for(tmp_path, {
        "fixpkg/low/base.py": """\
            def helper(x):
                return x


            class Runner:
                def step(self):
                    return helper(1)

                def run(self):
                    return self.step()
            """,
    })
    direct = site(
        graph, "fixpkg.low.base.Runner.step", lambda s: s.target
    )
    assert direct.target == "fixpkg.low.base.helper"
    method = site(
        graph, "fixpkg.low.base.Runner.run", lambda s: s.target
    )
    assert method.target == "fixpkg.low.base.Runner.step"
    assert method.receiver == "self"


def test_constructor_and_external_calls(tmp_path):
    graph = graph_for(tmp_path, {
        "fixpkg/low/base.py": """\
            import json


            class Thing:
                def __init__(self, v):
                    self.v = v


            def make():
                return Thing(json.dumps({}))
            """,
    })
    ctor = site(graph, "fixpkg.low.base.make", lambda s: s.constructor)
    assert ctor.target == "fixpkg.low.base.Thing"
    ext = site(graph, "fixpkg.low.base.make", lambda s: s.external)
    assert ext.external == "json.dumps"


def test_attr_types_follow_annotated_ctor_chains(tmp_path):
    """``self.cat = table.cat`` resolves through the field annotation."""
    graph = graph_for(tmp_path, {
        "fixpkg/low/base.py": """\
            from dataclasses import dataclass


            class Cat:
                def point(self, i):
                    return i


            @dataclass
            class Table:
                cat: Cat


            class Solver:
                def __init__(self, table: Table):
                    self.cat = table.cat

                def probe(self):
                    return self.cat.point(0)
            """,
    })
    assert graph.attr_types["fixpkg.low.base.Solver"]["cat"] == (
        "fixpkg.low.base.Cat"
    )
    probe = site(graph, "fixpkg.low.base.Solver.probe", lambda s: s.target)
    assert probe.target == "fixpkg.low.base.Cat.point"


def test_bound_method_alias_resolves(tmp_path):
    graph = graph_for(tmp_path, {
        "fixpkg/low/base.py": """\
            class Pool:
                def intern(self, s):
                    return s

                def drain(self, items):
                    intern = self.intern
                    return [intern(i) for i in items]
            """,
    })
    aliased = site(
        graph, "fixpkg.low.base.Pool.drain", lambda s: s.target
    )
    assert aliased.target == "fixpkg.low.base.Pool.intern"
    assert aliased.receiver == "self"


def test_annotated_local_types_its_receiver(tmp_path):
    """``x: "C" = self.c`` types ``x`` where the value alone cannot."""
    graph = graph_for(tmp_path, {
        "fixpkg/low/base.py": """\
            class C:
                def m(self):
                    return 1


            class Holder:
                def __init__(self, c):
                    self.c = c

                def run(self):
                    x: "C" = self.c
                    return x.m()
            """,
    })
    call = site(
        graph, "fixpkg.low.base.Holder.run", lambda s: s.display == "x.m()"
    )
    assert call.target == "fixpkg.low.base.C.m"
    assert call.receiver == "self"


def test_store_roots_and_kw_roots(tmp_path):
    graph = graph_for(tmp_path, {
        "fixpkg/low/base.py": """\
            REGISTRY = {}


            def fill(out):
                out["k"] = 1


            def caller(data):
                fill(out=data)


            class Holder:
                def keep(self, v):
                    self.v = v
                    REGISTRY["x"] = v
            """,
    })
    scan = graph.scans["fixpkg.low.base.Holder.keep"]
    roots = sorted(store.root for store in scan.stores)
    assert roots == ["global:fixpkg.low.base.REGISTRY", "self"]
    kw_site = site(graph, "fixpkg.low.base.caller", lambda s: s.target)
    assert kw_site.kw_roots == (("out", "param:data"),)


def test_declared_effects_comment_is_parsed(tmp_path):
    codebase, _config = build(tmp_path, {
        "fixpkg/low/base.py": """\
            # repro-lint: effects[pure] trusted by contract
            def opaque(f):
                return f()


            # repro-lint: effects[io, nondeterministic] probes the host
            def probe():
                return object()
            HOOK = print  # repro-lint: effects[pure] names this line only
            def unpinned():
                return HOOK()
            """,
    })
    graph = CallGraph(codebase)
    assert graph.scans["fixpkg.low.base.opaque"].declared == frozenset()
    assert graph.scans["fixpkg.low.base.probe"].declared == frozenset(
        {"io", "nondeterministic"}
    )
    assert graph.scans["fixpkg.low.base.unpinned"].declared is None
