"""JSON (de)serialisation of graphs, loops and schedules.

Lets users persist workloads and scheduler outputs — dump a dependence
graph from one session, inspect or re-verify a schedule in another, diff
schedules across library versions.  The format is plain dict/JSON with a
``"format"`` version tag; round-tripping is exact and covered by property
tests.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from ..errors import GraphError, SchedulingError
from .ddg import DepKind, DependenceGraph
from .loop import Loop, Program
from .operation import DEFAULT_CATALOG, OpCatalog

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids ir<->arch cycle)
    from ..arch.cluster import MachineConfig
    from ..arch.resources import FuSet

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Dependence graphs
# ---------------------------------------------------------------------------
def graph_to_dict(graph: DependenceGraph) -> dict[str, Any]:
    """Serialise a dependence graph to a JSON-ready dict."""
    return {
        "format": FORMAT_VERSION,
        "kind": "graph",
        "name": graph.name,
        "operations": [
            {"opcode": op.opcode.name, "tag": op.tag} for op in graph.operations()
        ],
        "dependences": [
            {
                "src": d.src,
                "dst": d.dst,
                "latency": d.latency,
                "distance": d.distance,
                "kind": d.kind.value,
            }
            for d in graph.edges
        ],
    }


def graph_from_dict(
    data: dict[str, Any], catalog: OpCatalog = DEFAULT_CATALOG
) -> DependenceGraph:
    """Rebuild (and validate) a graph serialised by :func:`graph_to_dict`."""
    _check_format(data, "graph")
    graph = DependenceGraph(data["name"], catalog)
    for op in data["operations"]:
        _check_record(op, "operation")
        graph.add_operation(op["opcode"], op.get("tag", ""))
    for dep in data["dependences"]:
        _check_record(dep, "dependence")
        graph.add_dependence(
            dep["src"],
            dep["dst"],
            distance=dep["distance"],
            kind=DepKind(dep["kind"]),
            latency=dep["latency"],
        )
    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# Loops and programs
# ---------------------------------------------------------------------------
def loop_to_dict(loop: Loop) -> dict[str, Any]:
    """Serialise a loop (graph + dynamic statistics)."""
    return {
        "format": FORMAT_VERSION,
        "kind": "loop",
        "graph": graph_to_dict(loop.graph),
        "trip_count": loop.trip_count,
        "times_executed": loop.times_executed,
    }


def loop_from_dict(
    data: dict[str, Any], catalog: OpCatalog = DEFAULT_CATALOG
) -> Loop:
    """Rebuild a loop serialised by :func:`loop_to_dict`."""
    _check_format(data, "loop")
    return Loop(
        graph=graph_from_dict(data["graph"], catalog),
        trip_count=data["trip_count"],
        times_executed=data["times_executed"],
    )


def program_to_dict(program: Program) -> dict[str, Any]:
    """Serialise a program (a named set of loops)."""
    return {
        "format": FORMAT_VERSION,
        "kind": "program",
        "name": program.name,
        "loops": [loop_to_dict(lp) for lp in program.loops],
    }


def program_from_dict(
    data: dict[str, Any], catalog: OpCatalog = DEFAULT_CATALOG
) -> Program:
    """Rebuild a program serialised by :func:`program_to_dict`."""
    _check_format(data, "program")
    return Program(
        name=data["name"],
        loops=[loop_from_dict(lp, catalog) for lp in data["loops"]],
    )


# ---------------------------------------------------------------------------
# Machine configurations and schedules
# ---------------------------------------------------------------------------
def config_to_dict(config: "MachineConfig") -> dict[str, Any]:
    """Serialise a machine configuration (homogeneous or not)."""
    return {
        "format": FORMAT_VERSION,
        "kind": "machine",
        "name": config.name,
        "n_clusters": config.n_clusters,
        "fu_per_cluster": _fuset(config.fu_per_cluster),
        "regs_per_cluster": config.regs_per_cluster,
        "buses": {"count": config.buses.count, "latency": config.buses.latency},
        "cluster_fus": (
            [_fuset(f) for f in config.cluster_fus]
            if config.cluster_fus is not None
            else None
        ),
    }


def config_from_dict(data: dict[str, Any]) -> "MachineConfig":
    """Rebuild a machine configuration serialised by :func:`config_to_dict`."""
    from ..arch.cluster import MachineConfig
    from ..arch.resources import BusSpec

    _check_format(data, "machine")
    cluster_fus = data.get("cluster_fus")
    return MachineConfig(
        name=data["name"],
        n_clusters=data["n_clusters"],
        fu_per_cluster=_unfuset(data["fu_per_cluster"]),
        regs_per_cluster=data["regs_per_cluster"],
        buses=BusSpec(data["buses"]["count"], data["buses"]["latency"]),
        cluster_fus=(
            tuple(_unfuset(f) for f in cluster_fus) if cluster_fus else None
        ),
    )


#: Field order of a schedule body's rows (:func:`schedule_body_to_rows`),
#: which are also the record keys of the self-describing document
#: (:func:`schedule_to_dict`), per body key.
_OP_FIELDS = ("node", "cycle", "cluster", "fu_index")
_COMM_FIELDS = ("producer", "src_cluster", "bus", "start_cycle", "readers")
_LOG_FIELDS = ("no_fu", "no_bus", "register_pressure", "dependence_window")
_RECORDS = {
    "attempt_failures": (_LOG_FIELDS, "attempt log"),
    "operations": (_OP_FIELDS, "operation"),
    "communications": (_COMM_FIELDS, "communication"),
}


def schedule_to_dict(schedule) -> dict[str, Any]:
    """Serialise a :class:`~repro.core.schedule.ModuloSchedule`, graph and
    machine included, every placement, transfer and attempt log a
    self-describing record (:func:`schedule_body_to_rows` is the compact
    body without graph and machine)."""
    body = schedule_body_to_rows(schedule)
    for key, (names, _what) in _RECORDS.items():
        body[key] = [dict(zip(names, row)) for row in body[key]]
    return {
        "format": FORMAT_VERSION,
        "kind": "schedule",
        "graph": graph_to_dict(schedule.graph),
        "machine": config_to_dict(schedule.config),
        **body,
    }


def schedule_from_dict(data: dict[str, Any], catalog: OpCatalog = DEFAULT_CATALOG):
    """Rebuild a schedule; callers typically re-verify it afterwards.

    Each record is read by name into its row and the rows are decoded by
    :func:`schedule_body_from_rows`, with its checks; a record missing a
    field raises ``KeyError``.
    """
    _check_format(data, "schedule")
    body = {
        "ii": data["ii"],
        "mii": data["mii"],
        "bus_utilisation": data.get("bus_utilisation", 0.0),
        "attempt_failures": data.get("attempt_failures", []),
        "operations": data["operations"],
        "communications": data["communications"],
    }
    for key, (names, what) in _RECORDS.items():
        body[key] = [_record_row(record, names, what) for record in body[key]]
    return schedule_body_from_rows(
        body, graph_from_dict(data["graph"], catalog), config_from_dict(data["machine"])
    )


def schedule_body_to_rows(schedule) -> dict[str, Any]:
    """The II, placements, transfers and attempt logs of a schedule,
    without its graph and machine: for a store whose reader already holds
    both.  Every record is a fixed-order row: an operation
    ``[node, cycle, cluster, fu_index]``, a communication ``[producer,
    src_cluster, bus, start_cycle, readers]`` (readers sorted), an attempt
    log ``[no_fu, no_bus, register_pressure, dependence_window]``."""
    return {
        "ii": schedule.ii,
        "mii": schedule.mii,
        "bus_utilisation": schedule.bus_utilisation,
        "attempt_failures": [
            [log.no_fu, log.no_bus, log.register_pressure, log.dependence_window]
            for log in schedule.attempt_failures
        ],
        "operations": [list(op) for op in schedule.ops.values()],
        "communications": [
            [c.producer, c.src_cluster, c.bus, c.start_cycle, sorted(c.readers)]
            for c in schedule.comms
        ],
    }


def schedule_body_from_rows(
    body: dict[str, Any], graph: DependenceGraph, config: "MachineConfig"
):
    """Rebuild a :func:`schedule_body_to_rows` body as a schedule of
    *graph* on *config*, in one pass over its rows.

    Raises
    ------
    GraphError
        When II or MII is not a positive integer, a row is not a list of
        its record's length, or the body does not place every node of
        *graph* exactly once (a node twice raises
        :class:`~repro.errors.SchedulingError`).
    """
    from ..core.schedule import Communication, FailureLog, ModuloSchedule, ScheduledOp

    ii, mii = body["ii"], body["mii"]
    for key, value in (("ii", ii), ("mii", mii)):
        if type(value) is not int or value < 1:
            raise GraphError(
                f"schedule {key} must be a positive integer, got {value!r}"
            )
    schedule = ModuloSchedule(graph, config, ii, mii=mii)
    schedule.bus_utilisation = body["bus_utilisation"]
    logs = schedule.attempt_failures
    for row in body["attempt_failures"]:
        if type(row) is not list or len(row) != 4:
            raise _row_error(row, _LOG_FIELDS, "attempt log")
        logs.append(FailureLog(*row))
    ops = schedule.ops
    make = ScheduledOp._make
    for row in body["operations"]:
        if type(row) is not list or len(row) != 4:
            raise _row_error(row, _OP_FIELDS, "operation")
        node = row[0]
        if node in ops:
            raise SchedulingError(f"node {node} scheduled twice")
        ops[node] = make(row)
    if ops.keys() != set(graph.node_ids):
        raise GraphError(
            f"schedule places nodes {sorted(ops)}, not the "
            f"{len(graph)} node(s) of graph {graph.name!r}"
        )
    for row in body["communications"]:
        if type(row) is not list or len(row) != 5:
            raise _row_error(row, _COMM_FIELDS, "communication")
        schedule.add_comm(
            Communication(row[0], row[1], row[2], row[3], frozenset(row[4]))
        )
    return schedule


# ---------------------------------------------------------------------------
def dumps(obj_dict: dict[str, Any]) -> str:
    """JSON text for any dict produced by the *_to_dict functions."""
    return json.dumps(obj_dict, indent=2, sort_keys=True)


def loads(text: str) -> dict[str, Any]:
    """Parse JSON text back into a dict for the *_from_dict functions."""
    return json.loads(text)


def _fuset(f: "FuSet") -> dict[str, int]:
    return {"int": f.int_units, "fp": f.fp_units, "mem": f.mem_units}


def _unfuset(d: dict[str, int]) -> "FuSet":
    from ..arch.resources import FuSet

    return FuSet(d["int"], d["fp"], d["mem"])


def _check_record(item: Any, what: str) -> None:
    if not isinstance(item, dict):
        raise GraphError(f"expected a {what} object, got {type(item).__name__}")


def _record_row(record: Any, names: tuple[str, ...], what: str) -> list[Any]:
    _check_record(record, what)
    return [record[name] for name in names]


def _row_error(row: Any, names: tuple[str, ...], what: str) -> GraphError:
    shape = f"{len(row)} field(s)" if type(row) is list else type(row).__name__
    return GraphError(f"bad {what} row: expected [{', '.join(names)}], got {shape}")


def _check_format(data: dict[str, Any], kind: str) -> None:
    if not isinstance(data, dict):
        raise GraphError(f"expected a {kind!r} document, got {type(data).__name__}")
    if data.get("format") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported format version {data.get('format')!r} "
            f"(library supports {FORMAT_VERSION})"
        )
    if data.get("kind") != kind:
        raise GraphError(f"expected a {kind!r} document, got {data.get('kind')!r}")
