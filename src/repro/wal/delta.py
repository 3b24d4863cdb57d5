"""Catalog deltas: what one COMMIT changed in the catalog.

A CHECKPOINT record (like the catalog sidecar and a replica's attach
snapshot) holds the full catalog state, format 1::

    {"format": 1, "tables": [<table state>, ...]}

A COMMIT record holds only what its transaction changed, format 2::

    {"format": 2,
     "dropped": ["T", ...],
     "tables": [{"name": "T", "entry": <table state>},
                {"name": "U", "roots": [...], "pages": [...]}, ...]}

``dropped`` names tables the transaction dropped.  Each ``tables`` item
is either a table's whole state (``entry``: it is new, DDL touched it, or
it is versioned) or its root-list and page-list operations in the order
they happened:

* roots — ``["+", page, slot]`` appended, ``["-", page, slot]`` removed,
  ``["~", page, slot, new_page, new_slot]`` replaced in place;
* pages — ``["a", page]`` allocated (the segment's last free page when
  it has one, else a page new to the file), ``["f", page]`` freed.

Index statistics are not part of a delta; reopen re-derives them, and the
next checkpoint carries them again.

:func:`apply_catalog_delta` is the one replay function: crash recovery
folds the winners' COMMIT records onto the last CHECKPOINT with it, and a
replica folds every shipped batch onto its attach snapshot.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import WalError

SNAPSHOT_FORMAT = 1
DELTA_FORMAT = 2


def table_name(table_state: dict) -> str:
    # the segment state carries the table name — cheaper than re-parsing
    # the DDL text
    return table_state["segment"]["name"]


def apply_catalog_delta(state: Optional[dict], delta: Any) -> dict:
    """Fold one COMMIT payload onto *state* and return the result.

    A format-1 payload (a full snapshot, as COMMIT records carried before
    deltas) replaces *state*.  A delta updates *state* in place: dropped
    tables go first, so a table dropped and re-created in one transaction
    lands where memory has it — at the end.  Raises :class:`WalError` for
    an unknown format, a delta without a base, or an operation the base
    contradicts; the caller must then discard *state*.
    """
    fmt = delta.get("format") if isinstance(delta, dict) else None
    if fmt == SNAPSHOT_FORMAT:
        return delta
    if fmt != DELTA_FORMAT:
        raise WalError(f"unknown catalog record format {fmt!r}")
    if state is None:
        raise WalError("catalog delta without a snapshot to apply it to")
    tables = state["tables"]
    if delta["dropped"]:
        dropped = set(delta["dropped"])
        tables[:] = [t for t in tables if table_name(t) not in dropped]
    positions = {table_name(t): i for i, t in enumerate(tables)}
    for change in delta["tables"]:
        name = change["name"]
        position = positions.get(name)
        if "entry" in change:
            if position is None:
                positions[name] = len(tables)
                tables.append(change["entry"])
            else:
                tables[position] = change["entry"]
            continue
        if position is None:
            raise WalError(f"catalog delta changes unknown table {name!r}")
        table = tables[position]
        _replay_roots(table["tids"], change["roots"], name)
        _replay_pages(table["segment"], change["pages"], name)
    return state


def _replay_roots(tids: list, ops: list, name: str) -> None:
    for op in ops:
        kind, tid = op[0], op[1:3]
        try:
            if kind == "+":
                tids.append(tid)
            elif kind == "-":
                tids.remove(tid)
            elif kind == "~":
                tids[tids.index(tid)] = op[3:5]
            else:
                raise WalError(f"unknown root operation {kind!r} on {name!r}")
        except ValueError:
            raise WalError(
                f"catalog delta names root {tid} that {name!r} does not have"
            ) from None


def _replay_pages(segment: dict, ops: list, name: str) -> None:
    pages, free = segment["pages"], segment["free_pages"]
    for kind, page_no in ops:
        if kind == "a":
            if free and free.pop() != page_no:
                raise WalError(
                    f"catalog delta allocates page {page_no} of {name!r} "
                    "out of free-list order"
                )
            pages.append(page_no)
        elif kind == "f":
            try:
                pages.remove(page_no)
            except ValueError:
                raise WalError(
                    f"catalog delta frees page {page_no} that {name!r} "
                    "does not own"
                ) from None
            free.append(page_no)
        else:
            raise WalError(f"unknown page operation {kind!r} on {name!r}")
