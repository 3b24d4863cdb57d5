"""Tests for NF2 indexes: the three addressing schemes of Section 4.2,
entry computation, maintenance, and the text index."""

import pytest

from repro.datasets import paper
from repro.errors import AccessPathError
from repro.index.addresses import AddressingMode, HierarchicalAddress
from repro.index.manager import FlatIndex, IndexDefinition, NF2Index
from repro.index.text import TextIndex, fragments_of, words_of
from repro.model.values import TupleValue
from repro.storage.buffer import BufferManager
from repro.storage.complex_object import ComplexObjectManager
from repro.storage.minidirectory import StorageStructure
from repro.storage.pagedfile import MemoryPagedFile
from repro.storage.segment import Segment
from repro.storage.tid import TID


def stored_departments(structure=StorageStructure.SS3):
    buffer = BufferManager(MemoryPagedFile(), capacity=256)
    manager = ComplexObjectManager(Segment(buffer), structure)
    roots = []
    for row in paper.DEPARTMENTS_ROWS:
        value = TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, row)
        roots.append(manager.store(paper.DEPARTMENTS_SCHEMA, value))
    return manager, roots


def function_index(mode):
    definition = IndexDefinition(
        name="IDX_FUNCTION",
        table="DEPARTMENTS",
        attribute_path=("PROJECTS", "MEMBERS", "FUNCTION"),
        mode=mode,
    )
    definition.validate_against(paper.DEPARTMENTS_SCHEMA)
    return NF2Index(definition)


def test_definition_validation():
    bad = IndexDefinition("I", "T", ("DNO", "X"))
    with pytest.raises(AccessPathError):
        bad.validate_against(paper.DEPARTMENTS_SCHEMA)
    bad2 = IndexDefinition("I", "T", ("PROJECTS",))
    with pytest.raises(AccessPathError):
        bad2.validate_against(paper.DEPARTMENTS_SCHEMA)
    good = IndexDefinition("I", "T", ("PROJECTS", "MEMBERS", "EMPNO"))
    good.validate_against(paper.DEPARTMENTS_SCHEMA)


@pytest.mark.parametrize("structure", list(StorageStructure))
def test_consultant_entries_match_paper(structure):
    """Section 4.2: the 'Consultant' posting has exactly the three data
    subtuples 56019 / 89921 / 44512."""
    manager, roots = stored_departments(structure)
    index = function_index(AddressingMode.HIERARCHICAL)
    for root in roots:
        index.index_object(manager.open(root, paper.DEPARTMENTS_SCHEMA))
    addresses = index.search("Consultant")
    assert len(addresses) == 3
    # every address has two components: project-level and member-level
    assert all(len(a.components) == 2 for a in addresses)
    # the consultant-departments query: distinct roots = depts 314 and 218
    consultant_roots = index.roots_for("Consultant")
    assert len(consultant_roots) == 2
    assert set(consultant_roots) == {roots[0], roots[1]}


def test_root_tid_mode_deduplicates_but_cannot_localize():
    manager, roots = stored_departments()
    index = function_index(AddressingMode.ROOT_TID)
    for root in roots:
        index.index_object(manager.open(root, paper.DEPARTMENTS_SCHEMA))
    addresses = index.search("Consultant")
    # dept 218 is referenced twice — visible in the address list
    assert addresses.count(roots[1]) == 2
    assert set(index.roots_for("Consultant")) == {roots[0], roots[1]}
    # no inner position information exists
    assert all(isinstance(a, TID) for a in addresses)


def test_data_tid_mode_cannot_reach_objects():
    manager, roots = stored_departments()
    index = function_index(AddressingMode.DATA_TID)
    for root in roots:
        index.index_object(manager.open(root, paper.DEPARTMENTS_SCHEMA))
    addresses = index.search("Consultant")
    assert len(addresses) == 3
    assert all(isinstance(a, TID) for a in addresses)
    with pytest.raises(AccessPathError):
        index.roots_for("Consultant")  # the paper's first approach fails here


def test_hierarchical_prefix_join_p2_equals_f2():
    """Fig 7b: with indexes on PNO and FUNCTION, 'PNO=17 AND consultant in
    the same project' is decided purely on index information."""
    manager, roots = stored_departments()
    pno_def = IndexDefinition(
        "IDX_PNO", "DEPARTMENTS", ("PROJECTS", "PNO"), AddressingMode.HIERARCHICAL
    )
    pno_index = NF2Index(pno_def)
    function_idx = function_index(AddressingMode.HIERARCHICAL)
    for root in roots:
        obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
        pno_index.index_object(obj)
        function_idx.index_object(obj)
    p_addresses = pno_index.search(17)
    f_addresses = function_idx.search("Consultant")
    # P2 = F2: some P and F share root and first component -> same project
    hits = [
        (p, f)
        for p in p_addresses
        for f in f_addresses
        if p.shares_prefix(f, 1)
    ]
    assert len(hits) == 1  # dept 314, project 17, consultant 56019
    assert hits[0][0].root == roots[0]
    # project 25 has consultants but PNO != 17: no cross match
    assert all(p.components[0] == hits[0][0].components[0] for p, _f in hits)


def test_top_level_index_component_is_root_data_subtuple():
    manager, roots = stored_departments()
    definition = IndexDefinition(
        "IDX_DNO", "DEPARTMENTS", ("DNO",), AddressingMode.HIERARCHICAL
    )
    index = NF2Index(definition)
    for root in roots:
        index.index_object(manager.open(root, paper.DEPARTMENTS_SCHEMA))
    addresses = index.search(314)
    assert len(addresses) == 1
    assert len(addresses[0].components) == 1


def test_deindex_removes_all_entries():
    manager, roots = stored_departments()
    index = function_index(AddressingMode.HIERARCHICAL)
    for root in roots:
        index.index_object(manager.open(root, paper.DEPARTMENTS_SCHEMA))
    index.deindex_object(roots[1])  # dept 218 (two consultants)
    assert len(index.search("Consultant")) == 1
    index.deindex_object(roots[0])
    assert index.search("Consultant") == []


def test_reindex_is_idempotent():
    manager, roots = stored_departments()
    index = function_index(AddressingMode.HIERARCHICAL)
    obj = manager.open(roots[0], paper.DEPARTMENTS_SCHEMA)
    index.index_object(obj)
    index.index_object(obj)  # again
    assert len(index.search("Consultant")) == 1


def spy_tree(monkeypatch, tree) -> list:
    calls = []
    for name in ("insert", "remove"):
        original = getattr(tree, name)

        def spy(key, address, name=name, original=original):
            calls.append((name, key))
            return original(key, address)

        monkeypatch.setattr(tree, name, spy)
    return calls


def test_reindex_applies_only_the_difference(monkeypatch):
    """Mini TIDs survive partial updates, so re-indexing an object moves
    only the postings whose keys changed."""
    manager, roots = stored_departments()
    index = function_index(AddressingMode.HIERARCHICAL)
    for root in roots:
        index.index_object(manager.open(root, paper.DEPARTMENTS_SCHEMA))
    calls = spy_tree(monkeypatch, index.tree)
    obj = manager.open(roots[0], paper.DEPARTMENTS_SCHEMA)
    index.index_object(obj)
    assert calls == []  # unchanged object: no tree work
    # dept 314, project 17, member 56019: Consultant -> Adviser
    obj.update_atoms([("PROJECTS", 0), ("MEMBERS", 1)], {"FUNCTION": "Adviser"})
    index.index_object(obj)
    assert calls == [("remove", "Consultant"), ("insert", "Adviser")]
    calls.clear()
    obj.insert_element([("PROJECTS", 1)], "MEMBERS", {"EMPNO": 1, "FUNCTION": "Temp"})
    index.index_object(obj)
    assert calls == [("insert", "Temp")]
    assert len(index.search("Consultant")) == 2  # only dept 218's remain


def test_flat_index_row_with_unchanged_key_is_a_no_op(monkeypatch):
    index = FlatIndex(IndexDefinition("I", "E", ("EMPNO",)))
    index.index_row(TID(1, 0), 100)
    calls = spy_tree(monkeypatch, index.tree)
    index.index_row(TID(1, 0), 100)
    assert calls == []
    index.index_row(TID(1, 0), 101)
    assert calls == [("remove", 100), ("insert", 101)]
    assert index.search(101) == [TID(1, 0)] and index.search(100) == []


def test_nulls_not_indexed():
    buffer = BufferManager(MemoryPagedFile(), capacity=64)
    manager = ComplexObjectManager(Segment(buffer))
    row = dict(paper.DEPARTMENTS_ROWS[0], MGRNO=None)
    root = manager.store(
        paper.DEPARTMENTS_SCHEMA,
        TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, row),
    )
    definition = IndexDefinition("I", "D", ("MGRNO",))
    index = NF2Index(definition)
    index.index_object(manager.open(root, paper.DEPARTMENTS_SCHEMA))
    assert len(index) == 0


def test_flat_index():
    definition = IndexDefinition("I", "E", ("EMPNO",))
    index = FlatIndex(definition)
    index.index_row(TID(1, 0), 100)
    index.index_row(TID(1, 1), 200)
    assert index.search(100) == [TID(1, 0)]
    index.deindex_row(TID(1, 0))
    assert index.search(100) == []
    with pytest.raises(AccessPathError):
        FlatIndex(IndexDefinition("I", "E", ("A", "B")))


# -- text index --------------------------------------------------------------------


def test_words_and_fragments():
    assert words_of("Text Editing, and String-Search!") == [
        "text", "editing", "and", "string", "search",
    ]
    assert fragments_of("comput", 3) == {"com", "omp", "mpu", "put"}
    assert fragments_of("ab", 3) == {"ab"}


def stored_reports():
    buffer = BufferManager(MemoryPagedFile(), capacity=256)
    manager = ComplexObjectManager(Segment(buffer))
    roots = []
    for row in paper.REPORTS_ROWS:
        value = TupleValue.from_plain(paper.REPORTS_SCHEMA, row)
        roots.append(manager.store(paper.REPORTS_SCHEMA, value))
    return manager, roots


def test_text_index_masked_search():
    manager, roots = stored_reports()
    definition = IndexDefinition("TX", "REPORTS", ("TITLE",))
    index = TextIndex(definition)
    for root in roots:
        index.index_object(manager.open(root, paper.REPORTS_SCHEMA))
    # '*string*' hits report 0189 only
    candidates = index.candidate_roots("*string*")
    assert candidates == [roots[1]]
    # '*comput*' matches nothing in the paper's Table 6
    assert index.candidate_roots("*comput*") == []
    # too-short run: cannot narrow
    assert index.search("*a*") is None


def test_text_index_candidates_are_superset():
    """Fragment hits may be false positives; they are never false
    negatives."""
    manager, roots = stored_reports()
    definition = IndexDefinition("TX", "REPORTS", ("TITLE",))
    index = TextIndex(definition)
    for root in roots:
        index.index_object(manager.open(root, paper.REPORTS_SCHEMA))
    from repro.query.executor import masked_match

    for pattern in ["*concurrency*", "*branch*bound*", "*editing*"]:
        candidates = index.candidate_roots(pattern)
        assert candidates is not None
        truth = [
            root
            for root in roots
            if masked_match(
                pattern,
                manager.load(root, paper.REPORTS_SCHEMA)["TITLE"],
            )
        ]
        assert set(truth) <= set(candidates)


def test_text_index_deindex():
    manager, roots = stored_reports()
    definition = IndexDefinition("TX", "REPORTS", ("TITLE",))
    index = TextIndex(definition)
    for root in roots:
        index.index_object(manager.open(root, paper.REPORTS_SCHEMA))
    index.deindex_object(roots[1])
    assert index.candidate_roots("*string*") == []


def test_text_index_requires_string_attribute():
    definition = IndexDefinition("TX", "DEPARTMENTS", ("DNO",))
    index = TextIndex(definition)
    with pytest.raises(AccessPathError):
        index.validate_against(paper.DEPARTMENTS_SCHEMA)
