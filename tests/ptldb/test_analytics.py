"""The analytics family against an independent SQL oracle: stdlib sqlite3.

Each of the five scan-shaped analytics queries (``repro.ptldb.analytics``)
runs cold on the ``hdd`` device through the public :class:`PTLDB` methods.
sqlite3, loaded with the same ``connections`` / ``trips`` rows, answers the
same SQL text. Both engines must return the same rows in the same order.
The few dialect differences live in :class:`SqliteOracle` and nowhere else.
"""

import math
import re
import sqlite3

import pytest

from repro.labeling.ttl import build_labels
from repro.ptldb import analytics, sqltext
from repro.ptldb.framework import PTLDB
from repro.timetable.generator import random_timetable
from repro.timetable.model import Connection, Timetable


class SqliteOracle:
    """An in-memory sqlite3 database holding a timetable's analytics tables.

    Dialect adapter:

    * parameters: minidb numbers them ``$1``; sqlite spells that ``?1``;
    * ``FLOOR``: both engines divide two integers with truncation, so
      ``FLOOR(td/$1)`` is an integer bucket in minidb. sqlite's own
      ``floor`` is an optional build feature, so the oracle registers one
      that keeps integers integral;
    * ``AVG``: both return a float; rows are compared with a relative
      tolerance on floats (:func:`same_rows`) and exactly on everything
      else.
    """

    def __init__(self, timetable: Timetable):
        self.conn = sqlite3.connect(":memory:")
        self.conn.create_function(
            "floor", 1, lambda x: None if x is None else math.floor(x)
        )
        self.conn.execute(analytics.CONNECTIONS_DDL)
        self.conn.execute(analytics.TRIPS_DDL)
        self.conn.executemany(
            "INSERT INTO connections VALUES (?, ?, ?, ?, ?, ?)",
            [
                (cid, c.trip, c.u, c.v, c.dep, c.arr)
                for cid, c in enumerate(timetable.connections)
            ],
        )
        self.conn.executemany(
            "INSERT INTO trips VALUES (?, ?, ?, ?, ?)",
            analytics.derive_trip_rows(timetable),
        )

    def rows(self, sql: str, params: tuple) -> list[tuple]:
        sql = re.sub(r"\$(\d+)", r"?\1", sql)
        return self.conn.execute(sql, params).fetchall()


def same_rows(got, want) -> bool:
    """Same rows in the same order: floats (AVG) within a relative
    tolerance, every other value exactly and with the same type."""
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        for g, w in zip(g_row, w_row):
            if type(g) is not type(w):
                return False
            if isinstance(g, float):
                if not math.isclose(g, w, rel_tol=1e-12):
                    return False
            elif g != w:
                return False
    return True


def multi_leg_timetable() -> Timetable:
    """Routes with several trips of several legs each, so per-route
    COUNT/SUM/AVG and the trip spans are not all trivially 1."""
    connections = []
    trip = 0
    for route, stops in enumerate([(0, 1, 2, 3), (3, 2, 1), (4, 1, 5, 2, 6)]):
        for run in range(3 + route):
            dep = 6 * 3600 + run * 1500 + route * 420
            for u, v in zip(stops, stops[1:]):
                connections.append(
                    Connection(dep=dep, arr=dep + 300, u=u, v=v, trip=trip)
                )
                dep += 360
            trip += 1
    return Timetable(num_stops=7, connections=connections)


TIMETABLES = {
    "random": lambda: random_timetable(24, 2000, seed=7),
    "multi_leg": multi_leg_timetable,
    # A scalar aggregate over no rows is still one row (COUNT 0, NULL
    # extremes): network_span must not come back empty.
    "empty": lambda: Timetable(num_stops=3, connections=[]),
}

#: (query id, PTLDB call, the SQL it runs, its parameters)
QUERIES = [
    ("busiest_hubs[1]", lambda p: p.busiest_hubs(1),
     sqltext.ANALYTICS_BUSIEST_HUBS, (1,)),
    ("busiest_hubs[5]", lambda p: p.busiest_hubs(5),
     sqltext.ANALYTICS_BUSIEST_HUBS, (5,)),
    ("busiest_hubs[all]", lambda p: p.busiest_hubs(1000),
     sqltext.ANALYTICS_BUSIEST_HUBS, (1000,)),
    ("route_trip_stats", lambda p: p.route_trip_stats(),
     sqltext.ANALYTICS_ROUTE_TRIPS, ()),
    ("hourly_departures[3600]", lambda p: p.hourly_departures(),
     sqltext.ANALYTICS_HOURLY_LOAD, (3600,)),
    ("hourly_departures[900]", lambda p: p.hourly_departures(900),
     sqltext.ANALYTICS_HOURLY_LOAD, (900,)),
    ("hourly_departures[7]", lambda p: p.hourly_departures(7),
     sqltext.ANALYTICS_HOURLY_LOAD, (7,)),
    ("route_leg_volume", lambda p: p.route_leg_volume(),
     sqltext.ANALYTICS_ROUTE_LEGS, ()),
    ("network_span", lambda p: [p.network_span()],
     sqltext.ANALYTICS_NETWORK_SPAN, ()),
]


@pytest.fixture(scope="module", params=sorted(TIMETABLES))
def deployment(request):
    timetable = TIMETABLES[request.param]()
    labels, _ = build_labels(timetable, add_dummies=True)
    ptldb = PTLDB.from_timetable(timetable, device="hdd", labels=labels)
    yield request.param, ptldb, SqliteOracle(timetable)
    ptldb.db.close()


@pytest.mark.parametrize(
    "call, sql, params", [q[1:] for q in QUERIES], ids=[q[0] for q in QUERIES]
)
def test_matches_sqlite(deployment, call, sql, params):
    name, ptldb, oracle = deployment
    ptldb.restart()
    got = call(ptldb)
    want = oracle.rows(sql, params)
    assert same_rows(got, want), f"{name}: {got[:5]} != {want[:5]}"
    if name != "empty":
        # Cold: the scan came from the device, not a warm pool.
        assert ptldb.db.last_cost.page_reads > 0
