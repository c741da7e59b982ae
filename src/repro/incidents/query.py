"""SQL query layer over the SEV store.

Section 4.2: "We use SQL queries to analyze the SEV report dataset for
our study."  Each method here is one such query.  The runtime's fold
states (:mod:`repro.runtime.states`) run the counting queries on every
SQLite shard, and the :mod:`repro.core` finalizers turn the counts
into the paper's tables and figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.incidents.sev import RootCause, Severity
from repro.incidents.store import SEVStore
from repro.topology.devices import DeviceType


class SEVQuery:
    """Read-only analytical queries against a :class:`SEVStore`."""

    def __init__(self, store: SEVStore) -> None:
        self._conn = store.connection

    # -- counting ------------------------------------------------------

    def total(self, year: Optional[int] = None) -> int:
        if year is None:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM sevs").fetchone()
        else:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM sevs WHERE opened_year = ?", (year,)
            ).fetchone()
        return n

    def count_by_year(self) -> Dict[int, int]:
        return dict(
            self._conn.execute(
                "SELECT opened_year, COUNT(*) FROM sevs GROUP BY opened_year"
            )
        )

    def count_by_type(self, year: Optional[int] = None) -> Dict[DeviceType, int]:
        """Incidents attributed to each device type (section 4.3.1)."""
        if year is None:
            rows = self._conn.execute(
                "SELECT device_type, COUNT(*) FROM sevs "
                "WHERE device_type IS NOT NULL GROUP BY device_type"
            )
        else:
            rows = self._conn.execute(
                "SELECT device_type, COUNT(*) FROM sevs "
                "WHERE device_type IS NOT NULL AND opened_year = ? "
                "GROUP BY device_type",
                (year,),
            )
        return {DeviceType(t): n for (t, n) in rows}

    def count_by_year_and_type(self) -> Dict[int, Dict[DeviceType, int]]:
        out: Dict[int, Dict[DeviceType, int]] = {}
        for year, t, n in self._conn.execute(
            "SELECT opened_year, device_type, COUNT(*) FROM sevs "
            "WHERE device_type IS NOT NULL "
            "GROUP BY opened_year, device_type"
        ):
            out.setdefault(year, {})[DeviceType(t)] = n
        return out

    def count_by_severity(
        self, year: Optional[int] = None
    ) -> Dict[Severity, int]:
        if year is None:
            rows = self._conn.execute(
                "SELECT severity, COUNT(*) FROM sevs GROUP BY severity"
            )
        else:
            rows = self._conn.execute(
                "SELECT severity, COUNT(*) FROM sevs "
                "WHERE opened_year = ? GROUP BY severity",
                (year,),
            )
        return {Severity(s): n for (s, n) in rows}

    def count_by_severity_and_type(
        self, year: Optional[int] = None
    ) -> Dict[Severity, Dict[DeviceType, int]]:
        """The Figure 4 cross-tabulation."""
        sql = (
            "SELECT severity, device_type, COUNT(*) FROM sevs "
            "WHERE device_type IS NOT NULL {} GROUP BY severity, device_type"
        )
        if year is None:
            rows = self._conn.execute(sql.format(""))
        else:
            rows = self._conn.execute(
                sql.format("AND opened_year = ?"), (year,)
            )
        out: Dict[Severity, Dict[DeviceType, int]] = {}
        for s, t, n in rows:
            out.setdefault(Severity(s), {})[DeviceType(t)] = n
        return out

    def count_by_year_and_severity(self) -> Dict[int, Dict[Severity, int]]:
        out: Dict[int, Dict[Severity, int]] = {}
        for year, s, n in self._conn.execute(
            "SELECT opened_year, severity, COUNT(*) FROM sevs "
            "GROUP BY opened_year, severity"
        ):
            out.setdefault(year, {})[Severity(s)] = n
        return out

    # -- root causes -----------------------------------------------------

    def count_by_root_cause(
        self, year: Optional[int] = None
    ) -> Dict[RootCause, int]:
        """Root-cause counts as Table 2 defines them.

        A SEV with multiple root causes counts toward multiple
        categories; a SEV with no recorded cause counts as
        undetermined.
        """
        if year is None:
            rows = self._conn.execute(
                "SELECT root_cause, COUNT(*) FROM sev_root_causes "
                "GROUP BY root_cause"
            )
            (orphans,) = self._conn.execute(
                "SELECT COUNT(*) FROM sevs s WHERE NOT EXISTS "
                "(SELECT 1 FROM sev_root_causes rc WHERE rc.sev_id = s.sev_id)"
            ).fetchone()
        else:
            rows = self._conn.execute(
                "SELECT rc.root_cause, COUNT(*) "
                "FROM sev_root_causes rc JOIN sevs s ON s.sev_id = rc.sev_id "
                "WHERE s.opened_year = ? GROUP BY rc.root_cause",
                (year,),
            )
            (orphans,) = self._conn.execute(
                "SELECT COUNT(*) FROM sevs s WHERE s.opened_year = ? "
                "AND NOT EXISTS (SELECT 1 FROM sev_root_causes rc "
                "WHERE rc.sev_id = s.sev_id)",
                (year,),
            ).fetchone()
        counts = {RootCause(c): n for (c, n) in rows}
        if orphans:
            counts[RootCause.UNDETERMINED] = (
                counts.get(RootCause.UNDETERMINED, 0) + orphans
            )
        return counts

    def count_by_root_cause_and_type(
        self,
    ) -> Dict[RootCause, Dict[DeviceType, int]]:
        """The Figure 2 cross-tabulation."""
        out: Dict[RootCause, Dict[DeviceType, int]] = {}
        for cause, t, n in self._conn.execute(
            "SELECT rc.root_cause, s.device_type, COUNT(*) "
            "FROM sev_root_causes rc JOIN sevs s ON s.sev_id = rc.sev_id "
            "WHERE s.device_type IS NOT NULL "
            "GROUP BY rc.root_cause, s.device_type"
        ):
            out.setdefault(RootCause(cause), {})[DeviceType(t)] = n
        for t, n in self._conn.execute(
            "SELECT s.device_type, COUNT(*) FROM sevs s "
            "WHERE s.device_type IS NOT NULL AND NOT EXISTS "
            "(SELECT 1 FROM sev_root_causes rc WHERE rc.sev_id = s.sev_id) "
            "GROUP BY s.device_type"
        ):
            bucket = out.setdefault(RootCause.UNDETERMINED, {})
            bucket[DeviceType(t)] = bucket.get(DeviceType(t), 0) + n
        return out

    # -- timing ----------------------------------------------------------

    def open_times(
        self, year: int, device_type: DeviceType
    ) -> List[float]:
        """Incident start timestamps, ordered, for MTBI (section 5.6)."""
        return [
            t
            for (t,) in self._conn.execute(
                "SELECT opened_at_h FROM sevs "
                "WHERE opened_year = ? AND device_type = ? "
                "ORDER BY opened_at_h",
                (year, device_type.value),
            )
        ]

    def repeat_offenders(self, min_incidents: int = 2) -> List[Tuple[str, int]]:
        """Devices implicated in multiple SEVs, most-incident first.

        Section 5.6 credits slower, more thorough fixes with reducing
        "the likelihood of repeat incidents"; this query is how that
        likelihood gets measured.
        """
        if min_incidents < 1:
            raise ValueError("min_incidents must be positive")
        return [
            (name, n)
            for (name, n) in self._conn.execute(
                "SELECT device_name, COUNT(*) AS n FROM sevs "
                "GROUP BY device_name HAVING n >= ? "
                "ORDER BY n DESC, device_name",
                (min_incidents,),
            )
        ]

    def distinct_devices(self) -> int:
        """How many distinct devices ever appear in a SEV."""
        (n,) = self._conn.execute(
            "SELECT COUNT(DISTINCT device_name) FROM sevs"
        ).fetchone()
        return n

    def durations(
        self, year: Optional[int] = None, device_type: Optional[DeviceType] = None
    ) -> List[float]:
        """Incident resolution times in hours, for p75IRT (section 5.6)."""
        clauses, params = [], []  # type: Tuple[List[str], List[object]]
        if year is not None:
            clauses.append("opened_year = ?")
            params.append(year)
        if device_type is not None:
            clauses.append("device_type = ?")
            params.append(device_type.value)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        return [
            d
            for (d,) in self._conn.execute(
                f"SELECT duration_h FROM sevs {where} ORDER BY duration_h",
                params,
            )
        ]
