#!/usr/bin/env python3
"""CAD/CAM: a robot-arm bill of materials as one complex object.

Section 1 motivates the extended NF2 model with CAD objects: "deeply
nested hierarchical structures" that must be clustered, partially updated,
and checked out to workstations.  This example models a robot arm as one
complex object (assembly → subassemblies → parts → features), then:

* retrieves single parts without materializing the assembly (navigation
  on the Mini Directory only);
* applies partial updates (a tolerance change on one feature);
* checks the design out at the *page level* (copy_object — no pointer
  inside the object changes, only the page list, Section 4.1);
* shows the clustering effect with buffer-manager counters.

Run:  python examples/cad_assembly.py
"""

from repro import Database

BOM_DDL = """
CREATE TABLE ASSEMBLIES (
    ASM_ID INT,
    NAME STRING,
    REVISION INT,
    SUBASSEMBLIES TABLE OF (
        SUB_ID INT,
        NAME STRING,
        PARTS TABLE OF (
            PART_ID INT,
            NAME STRING,
            MATERIAL STRING,
            FEATURES LIST OF (KIND STRING, TOLERANCE FLOAT)
        )
    ),
    DOCUMENTS TABLE OF (DOC STRING)
)
"""


def robot_arm() -> dict:
    def features(n):
        return [
            {"KIND": kind, "TOLERANCE": 0.05 * (i + 1)}
            for i, kind in enumerate(["bore", "thread", "chamfer", "face"][:n])
        ]

    def parts(sub_id, count):
        return [
            {
                "PART_ID": sub_id * 100 + i,
                "NAME": f"part-{sub_id}-{i}",
                "MATERIAL": ["steel", "aluminium", "pa66"][i % 3],
                "FEATURES": features(2 + i % 3),
            }
            for i in range(count)
        ]

    return {
        "ASM_ID": 7000,
        "NAME": "robot-arm",
        "REVISION": 1,
        "SUBASSEMBLIES": [
            {"SUB_ID": 1, "NAME": "shoulder", "PARTS": parts(1, 6)},
            {"SUB_ID": 2, "NAME": "elbow", "PARTS": parts(2, 8)},
            {"SUB_ID": 3, "NAME": "wrist", "PARTS": parts(3, 5)},
            {"SUB_ID": 4, "NAME": "gripper", "PARTS": parts(4, 10)},
        ],
        "DOCUMENTS": [{"DOC": f"drawing-{i}.dxf"} for i in range(5)],
    }


def main() -> None:
    db = Database()
    db.execute(BOM_DDL)
    tid = db.insert("ASSEMBLIES", robot_arm())

    schema = db.table_schema("ASSEMBLIES")
    print(f"Stored the robot arm: depth {schema.depth()} hierarchy,")
    obj = db.open_object("ASSEMBLIES", tid)
    pages = obj.space.pages
    print(f"clustered on {len(pages)} page(s): {pages}")

    # -- partial retrieval: one part, no full materialization ---------------------
    db.reset_io_stats()
    part_schema, part = obj.resolve([("SUBASSEMBLIES", 1), ("PARTS", 3)])
    atoms = obj.read_atoms(part_schema, part)
    print(f"\nPartial read of one part: {atoms}")
    print(f"  logical page reads: {db.io_stats.logical_reads}")

    # -- cross-level query: parts out of tolerance --------------------------------
    tight = db.query(
        "SELECT s.NAME AS SUB, p.PART_ID, p.NAME "
        "FROM a IN ASSEMBLIES, s IN a.SUBASSEMBLIES, p IN s.PARTS "
        "WHERE EXISTS f IN p.FEATURES: f.TOLERANCE <= 0.05"
    )
    print(f"\nParts with a <=0.05 tolerance feature: {len(tight)}")

    # -- partial update: tighten one feature's tolerance ----------------------------
    db.update(
        "ASSEMBLIES",
        tid,
        lambda o: o.update_atoms(
            [("SUBASSEMBLIES", 1), ("PARTS", 3), ("FEATURES", 0)],
            {"TOLERANCE": 0.01},
        ),
    )
    check = db.query(
        "SELECT f.TOLERANCE "
        "FROM a IN ASSEMBLIES, s IN a.SUBASSEMBLIES, p IN s.PARTS, "
        "     f IN p.FEATURES "
        "WHERE p.PART_ID = 203 AND f.KIND = 'bore'"
    )
    print(f"Tolerance of part 203's bore after the update: "
          f"{check.column('TOLERANCE')}")

    # -- check-out: page-level copy for the workstation ------------------------------
    entry = db.catalog.table("ASSEMBLIES")
    copy_tid = entry.store.manager.copy_object(tid, schema)
    copy = entry.store.manager.load(copy_tid, schema)
    print(f"\nChecked out a workstation copy at {copy_tid}; "
          f"{len(copy['SUBASSEMBLIES'])} subassemblies intact.")
    print("No D/C pointer was rewritten — only the page list differs "
          "(Mini TIDs are local).")

    # -- structural edit on the copy: add a part -------------------------------------
    copy_obj = entry.store.manager.open(copy_tid, schema)
    copy_obj.insert_element(
        [("SUBASSEMBLIES", 3)],
        "PARTS",
        {
            "PART_ID": 499,
            "NAME": "sensor-mount",
            "MATERIAL": "titanium",
            "FEATURES": [{"KIND": "bore", "TOLERANCE": 0.02}],
        },
    )
    master_parts = len(entry.store.manager.load(tid, schema)["SUBASSEMBLIES"][3]["PARTS"])
    copy_parts = len(entry.store.manager.load(copy_tid, schema)["SUBASSEMBLIES"][3]["PARTS"])
    print(f"Added part 499 to the checked-out copy: copy gripper has "
          f"{copy_parts} parts, master still has {master_parts}.")

    # -- true workstation check-out: ship the object to another database ------
    blob = db.checkout("ASSEMBLIES", tid)
    workstation = Database()
    workstation.execute(BOM_DDL)
    ws_tid = workstation.checkin("ASSEMBLIES", blob)
    ws_copy = workstation.catalog.table("ASSEMBLIES").store.manager.load(ws_tid, schema)
    print(f"\nShipped {len(blob):,} bytes to the workstation database; "
          f"rebuilt object has {len(ws_copy['SUBASSEMBLIES'])} subassemblies "
          "with every Mini TID intact (only the page list was rebuilt).")


if __name__ == "__main__":
    main()
