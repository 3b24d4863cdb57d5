"""Tests for complex-object storage: Mini Directories, local address
spaces, clustering, partial access, relocation — across SS1/SS2/SS3."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DepartmentsGenerator, paper
from repro.errors import RecordNotFoundError, StorageError
from repro.model.values import TupleValue
from repro.storage.buffer import BufferManager
from repro.storage.complex_object import ComplexObjectManager
from repro.storage.minidirectory import StorageStructure, get_codec
from repro.storage.pagedfile import MemoryPagedFile
from repro.storage.segment import Segment

ALL_STRUCTURES = list(StorageStructure)


def make_manager(structure=StorageStructure.SS3, capacity=256):
    buffer = BufferManager(MemoryPagedFile(), capacity=capacity)
    return ComplexObjectManager(Segment(buffer), structure)


def dept_value(index=0) -> TupleValue:
    return TupleValue.from_plain(
        paper.DEPARTMENTS_SCHEMA, paper.DEPARTMENTS_ROWS[index]
    )


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_store_load_roundtrip(structure):
    manager = make_manager(structure)
    value = dept_value()
    root = manager.store(paper.DEPARTMENTS_SCHEMA, value)
    assert manager.load(root, paper.DEPARTMENTS_SCHEMA) == value


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_store_load_all_three_departments(structure):
    manager = make_manager(structure)
    roots = [
        manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(i)) for i in range(3)
    ]
    for i, root in enumerate(roots):
        assert manager.load(root, paper.DEPARTMENTS_SCHEMA) == dept_value(i)


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_ordered_subtable_preserves_order(structure):
    manager = make_manager(structure)
    value = TupleValue.from_plain(paper.REPORTS_SCHEMA, paper.REPORTS_ROWS[2])
    root = manager.store(paper.REPORTS_SCHEMA, value)
    loaded = manager.load(root, paper.REPORTS_SCHEMA)
    assert loaded["AUTHORS"].column("NAME") == ["Pool A", "Meyer P", "Jones A"]


def test_md_subtuple_counts_match_paper_fig6():
    """Department 314: SS1 has 7 MD subtuples, SS3 has 5, SS2 has 3."""
    counts = {}
    for structure in ALL_STRUCTURES:
        manager = make_manager(structure)
        root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
        stats = manager.statistics(root, paper.DEPARTMENTS_SCHEMA)
        counts[structure] = stats["md_subtuples"]
    assert counts[StorageStructure.SS1] == 7
    assert counts[StorageStructure.SS3] == 5
    assert counts[StorageStructure.SS2] == 3


@given(
    departments=st.integers(1, 3),
    projects=st.integers(0, 4),
    members=st.integers(0, 4),
    equipment=st.integers(0, 4),
)
@settings(max_examples=25, deadline=None)
def test_property_md_count_ordering(departments, projects, members, equipment):
    """#MD(SS1) >= #MD(SS3) >= #MD(SS2), strict when complex subobjects
    exist (the paper's ordering)."""
    gen = DepartmentsGenerator(
        departments=departments,
        projects_per_department=projects,
        members_per_project=members,
        equipment_per_department=equipment,
        seed=5,
    )
    rows = gen.rows()
    counts = {}
    for structure in ALL_STRUCTURES:
        manager = make_manager(structure)
        total = 0
        for row in rows:
            value = TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, row)
            root = manager.store(paper.DEPARTMENTS_SCHEMA, value)
            total += manager.statistics(root, paper.DEPARTMENTS_SCHEMA)["md_subtuples"]
        counts[structure] = total
    assert counts[StorageStructure.SS1] >= counts[StorageStructure.SS3]
    assert counts[StorageStructure.SS3] >= counts[StorageStructure.SS2]
    if projects > 0:  # complex subobjects exist
        assert counts[StorageStructure.SS1] > counts[StorageStructure.SS3]
        assert counts[StorageStructure.SS3] > counts[StorageStructure.SS2]


@given(
    departments=st.integers(1, 2),
    projects=st.integers(0, 3),
    members=st.integers(0, 5),
    structure=st.sampled_from(ALL_STRUCTURES),
)
@settings(max_examples=25, deadline=None)
def test_property_store_load_roundtrip(departments, projects, members, structure):
    gen = DepartmentsGenerator(
        departments=departments,
        projects_per_department=projects,
        members_per_project=members,
        seed=11,
    )
    manager = make_manager(structure)
    for row in gen.rows():
        value = TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, row)
        root = manager.store(paper.DEPARTMENTS_SCHEMA, value)
        assert manager.load(root, paper.DEPARTMENTS_SCHEMA) == value


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_clustering_object_occupies_few_pages(structure):
    manager = make_manager(structure)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    assert len(manager.object_pages(root)) <= 2


def test_navigation_reads_no_data_pages():
    """Separation of structure and data: open() must not read any data
    subtuple."""
    manager = make_manager(StorageStructure.SS3)
    # big data subtuples on their own pages
    gen = DepartmentsGenerator(departments=1, projects_per_department=8,
                               members_per_project=20)
    value = TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, gen.rows()[0])
    root = manager.store(paper.DEPARTMENTS_SCHEMA, value)
    obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
    # count elements without touching data subtuples
    members = sum(
        len(p.subtables[0].elements)
        for p in obj.decoded.subtables[0].elements
    )
    assert members == 160


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_update_atoms_in_place(structure):
    manager = make_manager(structure)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
    obj.update_atoms([], {"BUDGET": 999_999})
    obj.update_atoms([("PROJECTS", 0)], {"PNAME": "CGA-RENAMED"})
    obj.update_atoms([("PROJECTS", 0), ("MEMBERS", 1)], {"FUNCTION": "Adviser"})
    loaded = manager.load(root, paper.DEPARTMENTS_SCHEMA)
    assert loaded["BUDGET"] == 999_999
    assert loaded["PROJECTS"][0]["PNAME"] == "CGA-RENAMED"
    assert loaded["PROJECTS"][0]["MEMBERS"][1]["FUNCTION"] == "Adviser"


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_update_atoms_rejects_table_attribute(structure):
    manager = make_manager(structure)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
    with pytest.raises(StorageError):
        obj.update_atoms([], {"PROJECTS": []})


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_insert_element_flat_and_complex(structure):
    manager = make_manager(structure)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
    # flat subobject into EQUIP
    obj.insert_element([], "EQUIP", {"QU": 9, "TYPE": "3290"})
    # complex subobject into PROJECTS, with its own MEMBERS subtable
    obj.insert_element(
        [],
        "PROJECTS",
        {
            "PNO": 99,
            "PNAME": "NEW",
            "MEMBERS": [{"EMPNO": 11111, "FUNCTION": "Leader"}],
        },
    )
    # member into an existing project
    obj.insert_element([("PROJECTS", 0)], "MEMBERS", {"EMPNO": 22222, "FUNCTION": "Staff"})
    loaded = manager.load(root, paper.DEPARTMENTS_SCHEMA)
    assert len(loaded["EQUIP"]) == 4
    assert len(loaded["PROJECTS"]) == 3
    new_project = [p for p in loaded["PROJECTS"] if p["PNO"] == 99][0]
    assert new_project["MEMBERS"][0]["EMPNO"] == 11111
    project17 = [p for p in loaded["PROJECTS"] if p["PNO"] == 17][0]
    assert 22222 in project17["MEMBERS"].column("EMPNO")


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_insert_element_at_position_in_list(structure):
    manager = make_manager(structure)
    value = TupleValue.from_plain(paper.REPORTS_SCHEMA, paper.REPORTS_ROWS[0])
    root = manager.store(paper.REPORTS_SCHEMA, value)
    obj = manager.open(root, paper.REPORTS_SCHEMA)
    obj.insert_element([], "AUTHORS", {"NAME": "Newfirst Z"}, position=0)
    loaded = manager.load(root, paper.REPORTS_SCHEMA)
    assert loaded["AUTHORS"].column("NAME")[0] == "Newfirst Z"


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_delete_element(structure):
    manager = make_manager(structure)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
    obj.delete_element([], "PROJECTS", 1)  # drop project 23 and its members
    loaded = manager.load(root, paper.DEPARTMENTS_SCHEMA)
    assert loaded["PROJECTS"].column("PNO") == [17]
    with pytest.raises(RecordNotFoundError):
        obj.delete_element([], "PROJECTS", 5)


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_delete_object_releases_pages(structure):
    manager = make_manager(structure)
    segment = manager.segment
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    pages_before = segment.page_count
    assert pages_before > 0
    manager.delete(root, paper.DEPARTMENTS_SCHEMA)
    with pytest.raises(RecordNotFoundError):
        manager.load(root, paper.DEPARTMENTS_SCHEMA)
    assert segment.page_count == 0  # every page returned to the free pool
    # the freed pages are recycled for the next object
    root2 = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(1))
    assert segment.page_count <= pages_before + 1
    assert manager.load(root2, paper.DEPARTMENTS_SCHEMA) == dept_value(1)


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_copy_object_page_level(structure):
    """Relocation/check-out: the copy is identical and no pointer inside
    changed (verified by loading through new page list)."""
    manager = make_manager(structure)
    value = dept_value(0)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, value)
    copy_root = manager.copy_object(root, paper.DEPARTMENTS_SCHEMA)
    assert copy_root != root
    assert manager.load(copy_root, paper.DEPARTMENTS_SCHEMA) == value
    # original untouched
    assert manager.load(root, paper.DEPARTMENTS_SCHEMA) == value
    # page sets disjoint
    assert not set(manager.object_pages(root)) & set(manager.object_pages(copy_root))
    # mutating the copy leaves the original alone
    obj = manager.open(copy_root, paper.DEPARTMENTS_SCHEMA)
    obj.update_atoms([], {"BUDGET": 1})
    assert manager.load(root, paper.DEPARTMENTS_SCHEMA)["BUDGET"] == 320_000


def test_large_object_spans_pages_and_roundtrips():
    manager = make_manager(StorageStructure.SS3)
    gen = DepartmentsGenerator(
        departments=1, projects_per_department=10, members_per_project=50,
        equipment_per_department=10,
    )
    value = TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, gen.rows()[0])
    root = manager.store(paper.DEPARTMENTS_SCHEMA, value)
    assert len(manager.object_pages(root)) > 1
    assert manager.load(root, paper.DEPARTMENTS_SCHEMA) == value


@pytest.mark.parametrize("capacity", [2, 256])
def test_load_reads_each_object_page_once(capacity):
    """A whole-object load costs the root read plus one logical read per
    object page.  A pool of two frames lets a read scope keep one pin, so
    it releases each page before pinning the next."""
    manager = make_manager(StorageStructure.SS3, capacity)
    gen = DepartmentsGenerator(
        departments=1, projects_per_department=10, members_per_project=50,
        equipment_per_department=10,
    )
    value = TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, gen.rows()[0])
    root = manager.store(paper.DEPARTMENTS_SCHEMA, value)
    pages = manager.object_pages(root)
    buffer = manager.segment.buffer
    buffer.stats.reset()
    assert manager.load(root, paper.DEPARTMENTS_SCHEMA) == value
    assert buffer.stats.logical_reads == 1 + len(pages)
    assert buffer.pinned_pages == []


def test_mini_tids_survive_many_structural_edits():
    """Pointer stability: the data Mini TID of member 0 stays readable
    across many inserts/deletes elsewhere in the object."""
    manager = make_manager(StorageStructure.SS3)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
    _schema, member0 = obj.resolve([("PROJECTS", 0), ("MEMBERS", 0)])
    pinned_mini = member0.data
    for i in range(40):
        obj.insert_element([], "EQUIP", {"QU": i, "TYPE": f"T{i}"})
    for _ in range(20):
        obj.delete_element([], "EQUIP", 3)
    # re-open from disk state and read through the pinned Mini TID
    obj2 = manager.open(root, paper.DEPARTMENTS_SCHEMA)
    payload = obj2.space.read(pinned_mini)
    from repro.storage.subtuple import decode_data_subtuple

    values = decode_data_subtuple(paper.MEMBERS_SCHEMA.attributes, payload)
    assert values == (39582, "Leader")


def test_open_non_root_tid_rejected():
    manager = make_manager(StorageStructure.SS3)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    from repro.storage.tid import TID

    bad = TID(root.page, root.slot + 1) if root.slot else TID(root.page, root.slot + 1)
    try:
        manager.open(bad, paper.DEPARTMENTS_SCHEMA)
    except (StorageError, RecordNotFoundError):
        pass
    else:
        pytest.fail("expected an error opening a non-root TID")


def test_huge_subtable_md_spans_pages():
    """A subtable with thousands of tuples (the paper: subtables "may
    consist of thousands of tuples") — its MD subtuple exceeds one page
    and is chained transparently."""
    manager = make_manager(StorageStructure.SS3, capacity=2048)
    gen = DepartmentsGenerator(
        departments=1, projects_per_department=1, members_per_project=2000,
    )
    value = TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, gen.rows()[0])
    root = manager.store(paper.DEPARTMENTS_SCHEMA, value)
    loaded = manager.load(root, paper.DEPARTMENTS_SCHEMA)
    assert len(loaded["PROJECTS"][0]["MEMBERS"]) == 2000
    assert loaded == value
    # partial access still works
    obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
    schema, member = obj.resolve([("PROJECTS", 0), ("MEMBERS", 1500)])
    atoms = obj.read_atoms(schema, member)
    assert atoms["EMPNO"] == value["PROJECTS"][0]["MEMBERS"][1500]["EMPNO"]


def test_subtable_grows_past_page_incrementally():
    """Insert elements one at a time until the MEMBERS MD subtuple must
    chain; every intermediate state stays consistent."""
    manager = make_manager(StorageStructure.SS3, capacity=2048)
    root = manager.store(paper.DEPARTMENTS_SCHEMA, dept_value(0))
    for index in range(900):
        obj = manager.open(root, paper.DEPARTMENTS_SCHEMA)
        obj.insert_element(
            [("PROJECTS", 0)], "MEMBERS",
            {"EMPNO": 100_000 + index, "FUNCTION": "Staff"},
        )
    loaded = manager.load(root, paper.DEPARTMENTS_SCHEMA)
    members = loaded["PROJECTS"][0]["MEMBERS"]
    assert len(members) == 903  # 3 original + 900 inserted
    assert members.column("EMPNO")[-1] == 100_899
