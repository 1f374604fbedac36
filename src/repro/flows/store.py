"""Versioned SQLite store for flow records (stdlib ``sqlite3``).

The offline analogue of the goflow → ClickHouse leg: runs land as rows
in a normalized schema that the query layer (and plain ``sqlite3`` on
the command line) can aggregate without reloading JSON.

Schema (``FLOW_DB_SCHEMA`` = 1)::

    meta(key TEXT PRIMARY KEY, value TEXT)       -- schema_version, ...
    runs(run_id INTEGER PK, label, sample_rate, meta_json)
    flows(flow_id INTEGER PK, run_id, scope, src, dst, src_port,
          dst_port, proto, cls, first_ns, last_ns, packets, bytes,
          drops, latency_sum_ns, latency_samples, reason)
    flow_sites(flow_id, site, packets, bytes, drops)

``flow_sites`` is the exploded per-emit-site breakdown (kernel queues,
``fault:`` drop sites, fabric ``link:`` labels) that the per-link
utilization query joins against.  Opening a store with a different
schema version raises rather than guessing.
"""

import json

__all__ = ["FLOW_DB_SCHEMA", "FlowStore"]

#: Bump on incompatible schema change; stored in the meta table.
FLOW_DB_SCHEMA = 1

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    label       TEXT NOT NULL,
    sample_rate INTEGER NOT NULL,
    meta_json   TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS flows (
    flow_id         INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id          INTEGER NOT NULL REFERENCES runs(run_id),
    scope           TEXT NOT NULL,
    src             TEXT NOT NULL,
    dst             TEXT NOT NULL,
    src_port        INTEGER NOT NULL,
    dst_port        INTEGER NOT NULL,
    proto           INTEGER NOT NULL,
    cls             TEXT NOT NULL,
    first_ns        INTEGER NOT NULL,
    last_ns         INTEGER NOT NULL,
    packets         INTEGER NOT NULL,
    bytes           INTEGER NOT NULL,
    drops           INTEGER NOT NULL,
    latency_sum_ns  INTEGER NOT NULL,
    latency_samples INTEGER NOT NULL,
    reason          TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS flow_sites (
    flow_id INTEGER NOT NULL REFERENCES flows(flow_id),
    site    TEXT NOT NULL,
    packets INTEGER NOT NULL,
    bytes   INTEGER NOT NULL,
    drops   INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_flows_run ON flows(run_id);
CREATE INDEX IF NOT EXISTS idx_flows_run_cls ON flows(run_id, cls);
CREATE INDEX IF NOT EXISTS idx_sites_flow ON flow_sites(flow_id);
"""

_FLOW_COLUMNS = ("scope", "src", "dst", "src_port", "dst_port", "proto",
                 "cls", "first_ns", "last_ns", "packets", "bytes",
                 "drops", "latency_sum_ns", "latency_samples", "reason")


class FlowStore:
    """One SQLite flow database; multiple runs per file."""

    def __init__(self, path):
        # Imported here, not at module load: only a store opened on disk
        # needs it, and it costs every simulator process ~1 MB.
        import sqlite3

        self.path = str(path)
        self.conn = sqlite3.connect(self.path)
        self.conn.executescript(_DDL)
        row = self.conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        if row is None:
            self.conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(FLOW_DB_SCHEMA),))
            self.conn.commit()
        elif int(row[0]) != FLOW_DB_SCHEMA:
            self.conn.close()
            raise ValueError(
                f"{self.path}: flow store schema {row[0]} is not the "
                f"supported version {FLOW_DB_SCHEMA}")

    # ------------------------------------------------------------------
    def begin_run(self, *, label="", sample_rate=0, meta=None) -> int:
        cursor = self.conn.execute(
            "INSERT INTO runs (label, sample_rate, meta_json) "
            "VALUES (?, ?, ?)",
            (label, sample_rate, json.dumps(meta or {}, sort_keys=True)))
        self.conn.commit()
        return cursor.lastrowid

    def add_records(self, run_id: int, records) -> int:
        """Insert record dicts (schema v1) under *run_id*; returns count."""
        cursor = self.conn.cursor()
        n = 0
        for record in records:
            cursor.execute(
                "INSERT INTO flows (run_id, " + ", ".join(_FLOW_COLUMNS)
                + ") VALUES (" + ", ".join("?" * (1 + len(_FLOW_COLUMNS)))
                + ")",
                (run_id,) + tuple(record[c] for c in _FLOW_COLUMNS))
            flow_id = cursor.lastrowid
            cursor.executemany(
                "INSERT INTO flow_sites (flow_id, site, packets, bytes, "
                "drops) VALUES (?, ?, ?, ?, ?)",
                [(flow_id, site, triple[0], triple[1], triple[2])
                 for site, triple in sorted(record["sites"].items())])
            n += 1
        self.conn.commit()
        return n

    # ------------------------------------------------------------------
    def runs(self):
        return [{"run_id": run_id, "label": label,
                 "sample_rate": sample_rate,
                 "meta": json.loads(meta_json)}
                for run_id, label, sample_rate, meta_json
                in self.conn.execute(
                    "SELECT run_id, label, sample_rate, meta_json "
                    "FROM runs ORDER BY run_id")]

    def latest_run(self):
        row = self.conn.execute("SELECT MAX(run_id) FROM runs").fetchone()
        return row[0]

    def records(self, run_id=None):
        """Record dicts for *run_id* (default: latest), schema v1."""
        from repro.flows.records import FLOW_SCHEMA_VERSION

        if run_id is None:
            run_id = self.latest_run()
        if run_id is None:
            return []
        sites_by_flow = {}
        for flow_id, site, packets, nbytes, drops in self.conn.execute(
                "SELECT s.flow_id, s.site, s.packets, s.bytes, s.drops "
                "FROM flow_sites s JOIN flows f ON f.flow_id = s.flow_id "
                "WHERE f.run_id = ?", (run_id,)):
            sites_by_flow.setdefault(flow_id, {})[site] = [
                packets, nbytes, drops]
        records = []
        for row in self.conn.execute(
                "SELECT flow_id, " + ", ".join(_FLOW_COLUMNS)
                + " FROM flows WHERE run_id = ? ORDER BY flow_id",
                (run_id,)):
            record = dict(zip(_FLOW_COLUMNS, row[1:]))
            record["schema"] = FLOW_SCHEMA_VERSION
            record["sites"] = sites_by_flow.get(row[0], {})
            records.append(record)
        return records

    def close(self):
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
