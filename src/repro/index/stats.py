"""Per-index statistics for cost-based access-path selection.

System R's access-path selection (Selinger et al., SIGMOD 1979) scores
every applicable index on cheap, incrementally-maintained statistics
instead of probing.  The reproduction keeps three numbers per index:

* ``entry_count`` — total postings (one per indexed occurrence; an NF2
  index can hold many per object);
* ``distinct_keys`` — distinct key values currently in the tree;
* ``max_posting_list`` — high-water mark of any single posting list
  (monotone within one index lifetime; deletes do not shrink it, and a
  rebuild — e.g. on database reopen — re-derives the exact value).

``entry_count`` and ``distinct_keys`` are exact and maintained on every
insert/delete; the derived ``avg_posting_list`` is the equality-estimate
(``entry_count / distinct_keys``).  Range estimates use the classical
Selinger magic fraction (1/3) of all entries — no key histograms are
kept.  Statistics are persisted with the catalog sidecar (they are cheap
to serialize and let tooling inspect a database without opening its
trees), and re-derived exactly when indexes are rebuilt on reopen.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Selinger's magic selectivity for a one-sided range predicate when no
#: histogram is available (System R used 1/3 for ``col > value``).
RANGE_SELECTIVITY = 1.0 / 3.0

#: Selectivity assumed for a masked CONTAINS pattern the text index cannot
#: estimate more precisely (unused when fragment postings give a bound).
CONTAINS_SELECTIVITY = 1.0 / 10.0


@dataclass
class IndexStatistics:
    """A point-in-time statistics snapshot for one index."""

    entry_count: int = 0
    distinct_keys: int = 0
    max_posting_list: int = 0

    @property
    def avg_posting_list(self) -> float:
        """Average posting-list length — the equality-probe estimate."""
        if self.distinct_keys <= 0:
            return 0.0
        return self.entry_count / self.distinct_keys

    # -- cost estimates -----------------------------------------------------

    def estimate_eq(self) -> float:
        """Estimated matching entries for ``attr = literal``."""
        return self.avg_posting_list

    def estimate_range(self) -> float:
        """Estimated matching entries for a one-sided range condition."""
        return self.entry_count * RANGE_SELECTIVITY

    # -- persistence --------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "entry_count": self.entry_count,
            "distinct_keys": self.distinct_keys,
            "max_posting_list": self.max_posting_list,
        }
