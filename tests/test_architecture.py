"""The module import graph of ``src/repro`` is pinned.

Every import of a ``repro`` module is an edge, whether it sits at module
level, inside a function (a lazy import) or under ``TYPE_CHECKING``.  A
change may drop edges.  A new edge fails here until ``GRAPH`` is edited
on purpose: an upward import into the ``repro.database`` facade, or a
layer reaching past its neighbour, is a design decision, not an accident.
Ten modules besides the package ``__init__`` import ``repro.database``,
and the executor imports ``repro.query.compile`` lazily because the
compiler imports the executor.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: module -> the ``repro`` modules it imports, both without ``repro.``
GRAPH = {
    "algebra": "algebra.ops algebra.recursive",
    "algebra.ops": "errors model.schema model.values",
    "algebra.recursive": "algebra.ops errors model.schema model.values",
    "baselines": "baselines.flat baselines.lorie",
    "baselines.flat": (
        "datasets.paper index.manager model.values storage.buffer storage.heap"
        " storage.pagedfile storage.segment storage.tid"
    ),
    "baselines.ims": (
        "errors storage.buffer storage.pagedfile storage.segment storage.tid"
    ),
    "baselines.lorie": "storage.buffer storage.pagedfile storage.segment storage.tid",
    "catalog": "catalog.catalog",
    "catalog.catalog": (
        "catalog.store errors index.manager index.stats index.text model.schema"
        " mvcc.store storage.segment storage.tid temporal.subtuple_versions"
        " temporal.versions wal.delta"
    ),
    "catalog.store": (
        "catalog.catalog errors index.manager index.text model.schema"
        " model.values storage.complex_object storage.heap"
        " storage.minidirectory storage.subtuple storage.tid"
        " temporal.subtuple_versions"
    ),
    "concurrency": "concurrency.locks concurrency.session",
    "concurrency.locks": "errors obs",
    "concurrency.session": (
        "concurrency.locks database errors model.values obs storage.tid"
    ),
    "database": (
        "catalog.catalog catalog.store concurrency.locks concurrency.session"
        " errors index.addresses index.manager index.text model.ddl"
        " model.evolution model.schema model.types model.values mvcc.gc"
        " mvcc.read mvcc.snapshot mvcc.store names.tuple_names obs obs.ash"
        " obs.metrics obs.querylog obs.slo obs.sysviews obs.timeseries"
        " query.ast query.binder query.compile query.dml query.executor"
        " query.parser query.planner render storage.buffer"
        " storage.complex_object storage.minidirectory storage.pagedfile"
        " storage.segment storage.tid temporal.versions wal.delta wal.manager"
        " wal.recovery"
    ),
    "datasets": "datasets.generator datasets.paper",
    "datasets.generator": "datasets.paper model.values",
    "datasets.paper": "model.schema model.values",
    "errors": "",
    "index": "index.addresses index.btree index.manager index.text",
    "index.addresses": "storage.tid",
    "index.btree": "errors index.stats obs",
    "index.manager": (
        "concurrency.locks errors index.addresses index.btree index.stats"
        " model.schema obs storage.complex_object storage.minidirectory"
        " storage.tid"
    ),
    "index.stats": "",
    "index.text": (
        "concurrency.locks errors index.addresses index.manager index.stats"
        " model.schema model.types obs storage.complex_object storage.tid"
    ),
    "model": "model.schema model.types model.values",
    "model.ddl": "errors model.schema model.types",
    "model.evolution": "errors model.schema",
    "model.schema": "errors model.types",
    "model.types": "errors",
    "model.values": "errors model.schema",
    "mvcc": "",
    "mvcc.gc": "database obs",
    "mvcc.read": "catalog.catalog errors mvcc.snapshot mvcc.visibility storage.tid",
    "mvcc.snapshot": "mvcc.store obs",
    "mvcc.store": "catalog.catalog mvcc.snapshot mvcc.visibility storage.tid",
    "mvcc.visibility": "",
    "names": "names.tuple_names",
    "names.tuple_names": (
        "errors model.schema model.values storage.complex_object"
        " storage.minidirectory storage.tid"
    ),
    "obs": (
        "obs.metrics obs.promtext obs.querylog obs.slo obs.timeseries obs.trace"
        " obs.waits"
    ),
    "obs.ash": "database obs.metrics obs.querylog obs.waits",
    "obs.metrics": "obs.promtext",
    "obs.promtext": "obs.metrics",
    "obs.querylog": "obs.metrics",
    "obs.slo": "database obs.metrics",
    "obs.sysviews": (
        "database index.text model.schema model.values obs.metrics obs.trace"
    ),
    "obs.timeseries": "database obs.metrics",
    "obs.trace": "obs.metrics",
    "obs.waits": "obs.metrics obs.trace",
    "query": "query.parser",
    "query.ast": "",
    "query.binder": "errors model.schema model.types query.ast",
    "query.compile": (
        "errors model.schema model.values obs query.ast query.binder"
        " query.executor query.planner"
    ),
    "query.dml": (
        "database errors model.schema model.values query.ast query.compile"
        " storage.tid"
    ),
    "query.executor": (
        "errors model.schema model.values obs query.ast query.binder"
        " query.compile"
    ),
    "query.lexer": "errors",
    "query.parser": "errors obs.sysviews query.ast query.lexer",
    "query.planner": (
        "catalog.catalog index.addresses index.manager index.text obs query.ast"
        " storage.tid"
    ),
    "render": "model.schema model.values",
    "replication": (
        "concurrency.locks database errors obs wal.delta wal.manager"
        " wal.recovery"
    ),
    "repro": "database model.ddl model.schema model.types model.values render",
    "server": "concurrency.session database errors obs obs.slo replication shell",
    "shell": "database errors model.ddl model.values obs render",
    "storage": (
        "storage.buffer storage.complex_object storage.heap"
        " storage.minidirectory storage.pagedfile storage.segment storage.tid"
    ),
    "storage.address_space": "errors obs storage.constants storage.segment storage.tid",
    "storage.buffer": (
        "concurrency.locks errors obs storage.constants storage.page"
        " storage.pagedfile"
    ),
    "storage.complex_object": (
        "errors model.schema model.values obs storage.address_space"
        " storage.constants storage.lazy storage.minidirectory storage.segment"
        " storage.subtuple storage.tid"
    ),
    "storage.constants": "",
    "storage.heap": (
        "model.schema model.values obs storage.segment storage.subtuple"
        " storage.tid"
    ),
    "storage.lazy": "errors model.values",
    "storage.mdrender": (
        "model.schema storage.complex_object storage.minidirectory storage.tid"
    ),
    "storage.minidirectory": (
        "errors model.schema model.values obs storage.address_space"
        " storage.subtuple storage.tid"
    ),
    "storage.page": "errors storage.constants",
    "storage.pagedfile": "errors obs.waits storage.constants",
    "storage.segment": "errors storage.buffer storage.constants storage.tid",
    "storage.subtuple": "errors model.schema model.types model.values storage.tid",
    "storage.tid": "errors storage.constants",
    "temporal": "temporal.versions",
    "temporal.subtuple_versions": (
        "errors model.schema model.values storage.address_space"
        " storage.complex_object storage.minidirectory storage.segment"
        " storage.subtuple storage.tid temporal.versions"
    ),
    "temporal.versions": "errors mvcc.visibility storage.tid",
    "wal": "wal.manager wal.record wal.recovery",
    "wal.delta": "errors",
    "wal.faults": "errors storage.constants storage.pagedfile wal.manager",
    "wal.manager": "errors obs wal.record",
    "wal.record": "errors",
    "wal.recovery": "obs storage.page storage.pagedfile wal.delta wal.record",
}


def _short(module: str) -> str:
    return module[len("repro."):] if module != "repro" else module


def import_graph() -> dict[str, set[str]]:
    """Module -> the ``repro`` modules it imports, from the source."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        package = parts[-1] == "__init__"
        if package:
            parts.pop()
        files[".".join(parts)] = (path, package)
    graph = {}
    for name, (path, package) in files.items():
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets.update(a.name for a in node.names if a.name.startswith("repro"))
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = name if package else name.rpartition(".")[0]
                    for _ in range(node.level - 1):
                        anchor = anchor.rpartition(".")[0]
                    base = f"{anchor}.{base}" if base else anchor
                if not base.startswith("repro"):
                    continue
                for alias in node.names:
                    submodule = f"{base}.{alias.name}"
                    targets.add(submodule if submodule in files else base)
        targets.discard(name)
        graph[_short(name)] = {_short(target) for target in targets}
    return graph


def test_no_new_import_edges():
    graph = import_graph()
    # the walker sees lazy imports inside functions
    assert "query.compile" in graph["query.executor"]
    new = sorted(
        f"{name} -> {target}"
        for name, targets in graph.items()
        for target in targets - set(GRAPH.get(name, "").split())
    )
    assert not new, "new import edges: " + ", ".join(new)


def test_database_importers():
    importers = sorted(
        name for name, targets in import_graph().items() if "database" in targets
    )
    assert len(importers) == 11 and "repro" in importers, importers


def test_the_facade_does_not_dispatch_on_storage_kind():
    """A flat table is the degenerate complex object: ``database.py``
    calls the table's store and never asks which kind it holds."""
    source = (SRC / "repro" / "database.py").read_text()
    assert [
        name
        for name in ("is_flat", "HeapFile", "ComplexObjectManager", "FlatIndex")
        if name in source
    ] == []
