"""Scenario work units and their results.

A :class:`ScenarioPoint` is one self-describing unit of experiment work:
*schedule this loop on this machine with this scheduler under this
unrolling policy* — and optionally *then execute it on the
cycle-accurate simulator*.  Points carry only primitive fields (names,
canonical JSON, numbers), so they are hashable, picklable, and stable
across processes; :meth:`ScenarioPoint.canonical` is the content-address
used by both the in-process memo and the on-disk cache.

A :class:`PointResult` is the JSON-serialisable outcome: the schedule's
placements and transfers as compact rows
(:func:`~repro.ir.serialize.schedule_body_to_rows`),
the transformation that produced it, and — for simulated points — the
analytic-vs-simulated cycle and IPC comparison.  Its payload carries no
graph and no machine: both follow from the point and the loop it was
run on, so a payload decodes only against its ``(point, loop)``
(:meth:`PointResult.from_dict`).  Everything any figure reducer needs
can be recovered from it, which is what lets repeated sweeps skip
scheduling entirely.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any

from ..core.selective import ScheduledLoopResult, SelectiveRule, UnrollPolicy
from ..errors import ReproError
from ..ir.ddg import DependenceGraph
from ..ir.loop import Loop
from ..ir.serialize import (
    config_from_dict,
    config_to_dict,
    graph_to_dict,
    schedule_body_from_rows,
    schedule_body_to_rows,
)
from ..ir.unroll import unrolled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arch.cluster import MachineConfig

#: Version of the :class:`PointResult` payload layout.  Bumping it
#: invalidates every cache entry (it feeds the default code version).
RESULT_FORMAT = 3

#: What decoding a malformed :class:`PointResult` payload raises: a bad
#: layout (``KeyError``, ``TypeError``, ``ValueError``) or a library error
#: while rebuilding its schedule (a row of the wrong shape, a node placed
#: twice, a node set that is not the graph's, a schedule that fails
#: verification).
PAYLOAD_ERRORS = (ReproError, KeyError, TypeError, ValueError)


def _canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace (hash input)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def graph_content_hash(graph: DependenceGraph) -> str:
    """Content hash of a dependence graph (name, operations, dependences).

    The same loop hashes identically regardless of the suite or program
    that owns it (ownership is not part of the graph), so shared loops
    dedupe to one cache entry per scenario.  The graph *name* is part of
    the content: two identically-shaped loops with different names are
    distinct points.  Memoised on the graph (any mutation, and a rename,
    recomputes it).
    """

    def build() -> str:
        text = _canonical_json(graph_to_dict(graph))
        return hashlib.sha256(text.encode()).hexdigest()[:24]

    return graph.derived(("content_hash", graph.name), build)


@functools.lru_cache(maxsize=256)
def machine_to_json(config: "MachineConfig") -> str:
    """Canonical JSON description of a machine configuration.

    The full configuration (clusters, FU mix, registers, bus fabric) is
    embedded in the scenario point, so arbitrary machines — not just the
    paper's named ones — are cacheable and reconstructible in workers.
    Memoised like :func:`machine_from_json` (a ``MachineConfig`` is frozen
    and hashable), so a grid or a reducer serialises each machine once.
    """
    return _canonical_json(config_to_dict(config))


@functools.lru_cache(maxsize=256)
def machine_from_json(text: str) -> "MachineConfig":
    """Rebuild a machine configuration from :func:`machine_to_json`.

    Memoised: a ``MachineConfig`` is frozen, so every point on one
    machine shares one.  The bound is fixed because a service accepts
    any bus count and latency.
    """
    return config_from_dict(json.loads(text))


@dataclass(frozen=True)
class ScenarioPoint:
    """One hashable, self-describing unit of experiment work.

    Attributes
    ----------
    loop:
        Loop name (also embedded in the graph hash via the graph name).
    graph_hash:
        :func:`graph_content_hash` of the loop body.
    machine:
        Canonical machine JSON from :func:`machine_to_json`.
    scheduler:
        Registered scheduler name (see
        :data:`repro.runner.engine.SCHEDULERS`); unified machines always
        dispatch to the SMS scheduler regardless.
    policy:
        :class:`~repro.core.selective.UnrollPolicy` value string.
    rule:
        :class:`~repro.core.selective.SelectiveRule` value string.
    simulate:
        When true, the scheduled loop is also executed on the
        cycle-accurate simulator and diffed against the analytic model.
    niter:
        Source iterations to simulate (the loop's trip count); only
        meaningful when *simulate* is set.
    miss_rate / miss_penalty / seed:
        Optional memory-model parameters for simulated points
        (``miss_rate == 0`` is the paper's perfect memory).
    program:
        Canonical loop payload (:func:`program_payload`) for user-supplied
        workloads that exist in no catalogue — frontend-parsed ``.loop``
        programs, inline service programs.  Empty for catalogue loops, and
        *omitted from the canonical identity when empty*, so every
        pre-existing point hashes exactly as before.
    """

    loop: str
    graph_hash: str
    machine: str
    scheduler: str
    policy: str
    rule: str
    simulate: bool = False
    niter: int = 0
    miss_rate: float = 0.0
    miss_penalty: int = 0
    seed: int = 0
    program: str = ""

    def canonical(self) -> str:
        """Canonical JSON identity of this point (the memo/cache key).

        The ``program`` payload participates only when present: catalogue
        points keep their historical identity byte-for-byte, while a
        user program's full content (already summarised by ``graph_hash``)
        still travels with the point so any worker can rebuild it.
        Computed once per point (the point is frozen).
        """
        try:
            return self.__dict__["_canonical"]
        except KeyError:
            pass
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if not data["program"]:
            del data["program"]
        text = _canonical_json(data)
        object.__setattr__(self, "_canonical", text)
        return text

    def program_loop(self) -> Loop:
        """Rebuild the embedded user program as a live :class:`Loop`.

        Only valid for points carrying a ``program`` payload.
        """
        from ..ir.serialize import loop_from_dict

        if not self.program:
            raise ValueError(f"point {self.loop!r} carries no program payload")
        return loop_from_dict(json.loads(self.program))

    def config(self) -> "MachineConfig":
        """The machine configuration this point targets."""
        return machine_from_json(self.machine)

    @property
    def unroll_policy(self) -> UnrollPolicy:
        """The parsed :class:`UnrollPolicy`."""
        return UnrollPolicy(self.policy)

    @property
    def selective_rule(self) -> SelectiveRule:
        """The parsed :class:`SelectiveRule`."""
        return SelectiveRule(self.rule)

    def without_simulation(self) -> "ScenarioPoint":
        """The schedule-only twin of a simulated point.

        Used for cache cross-pollination: a simulated point can reuse a
        schedule cached by a figure sweep, and vice versa.
        """
        return ScenarioPoint(
            loop=self.loop,
            graph_hash=self.graph_hash,
            machine=self.machine,
            scheduler=self.scheduler,
            policy=self.policy,
            rule=self.rule,
            program=self.program,
        )

    def describe(self) -> str:
        """Short human-readable label (progress lines, error messages)."""
        sim = f" sim(niter={self.niter})" if self.simulate else ""
        return (
            f"{self.loop} @ {json.loads(self.machine)['name']} "
            f"[{self.scheduler}/{self.policy}]{sim}"
        )


def program_payload(loop: Loop) -> str:
    """Canonical JSON payload of a user-supplied loop.

    Embedded in :class:`ScenarioPoint.program` so that non-catalogue
    workloads are self-describing: a fabric worker (or a cold cache miss
    on another machine) rebuilds the exact loop from the point alone via
    :meth:`ScenarioPoint.program_loop`.
    """
    from ..ir.serialize import loop_to_dict

    return _canonical_json(loop_to_dict(loop))


def scenario_for(
    loop: Loop,
    config: "MachineConfig",
    scheduler: str,
    policy: UnrollPolicy,
    rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    *,
    simulate: bool = False,
    niter: int | None = None,
    miss_rate: float = 0.0,
    miss_penalty: int = 0,
    seed: int = 0,
    program: str = "",
) -> ScenarioPoint:
    """Build the :class:`ScenarioPoint` for one (loop, machine, algorithm)
    data point.

    *niter* defaults to the loop's trip count when *simulate* is set.
    Pass ``program=program_payload(loop)`` for user-supplied loops that
    exist in no catalogue, making the point self-describing.
    """
    return ScenarioPoint(
        loop=loop.name,
        graph_hash=graph_content_hash(loop.graph),
        machine=machine_to_json(config),
        scheduler=scheduler,
        policy=policy.value,
        rule=rule.value,
        simulate=simulate,
        niter=(loop.trip_count if niter is None else niter) if simulate else 0,
        miss_rate=miss_rate if simulate else 0.0,
        miss_penalty=miss_penalty if simulate else 0,
        seed=seed if simulate else 0,
        program=program,
    )


@dataclass(frozen=True)
class SimOutcome:
    """Analytic-vs-simulated numbers for one executed scenario point."""

    analytic_cycles: int
    simulated_cycles: int
    analytic_ipc: float
    simulated_ipc: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimOutcome":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            analytic_cycles=data["analytic_cycles"],
            simulated_cycles=data["simulated_cycles"],
            analytic_ipc=data["analytic_ipc"],
            simulated_ipc=data["simulated_ipc"],
        )


@dataclass(frozen=True)
class PointResult:
    """The serialisable outcome of executing one :class:`ScenarioPoint`.

    Attributes
    ----------
    schedule:
        :func:`~repro.ir.serialize.schedule_body_to_rows` payload of the
        emitted modulo schedule (of the unrolled graph when the policy
        unrolled); the graph and machine are the point's.
    unroll_factor:
        How many source iterations one kernel iteration retires.
    policy:
        The :class:`UnrollPolicy` value the point was scheduled under.
    fallback:
        True when modulo scheduling failed and the point was charged the
        non-pipelined list-schedule fallback.
    sim:
        :class:`SimOutcome` for simulated points, else ``None``.
    """

    schedule: dict[str, Any]
    unroll_factor: int
    policy: str
    fallback: bool = False
    sim: SimOutcome | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (the on-disk cache value)."""
        return {
            "format": RESULT_FORMAT,
            "schedule": self.schedule,
            "unroll_factor": self.unroll_factor,
            "policy": self.policy,
            "fallback": self.fallback,
            "sim": self.sim.to_dict() if self.sim else None,
        }

    @classmethod
    def from_dict(
        cls,
        data: dict[str, Any],
        point: ScenarioPoint,
        loop: Loop,
    ) -> "PointResult":
        """Rebuild a :meth:`to_dict` payload of *point* run on *loop*.

        The schedule is decoded here, against ``loop.graph`` unrolled by
        the payload's factor (:func:`~repro.ir.unroll.unrolled`) and the
        point's machine; only the point's machine is read, so a
        simulated point's schedule-only twin decodes the same way.

        Raises
        ------
        PAYLOAD_ERRORS
            On a malformed payload, an unroll factor no policy emits on
            the point's machine (1 or its cluster count), or a schedule
            that does not place exactly the graph's nodes.
        """
        if not isinstance(data, dict):
            raise ValueError(f"point result is a {type(data).__name__}, not a dict")
        if data.get("format") != RESULT_FORMAT:
            raise ValueError(
                f"unsupported point-result format {data.get('format')!r}"
            )
        config = point.config()
        factor = data["unroll_factor"]
        if type(factor) is not int or factor not in (1, config.n_clusters):
            raise ValueError(
                f"unroll factor {factor!r} on a {config.n_clusters}-cluster machine"
            )
        schedule = schedule_body_from_rows(
            data["schedule"], unrolled(loop.graph, factor), config
        )
        sim = data.get("sim")
        result = cls(
            schedule=data["schedule"],
            unroll_factor=factor,
            policy=data["policy"],
            fallback=data["fallback"],
            sim=SimOutcome.from_dict(sim) if sim else None,
        )
        decoded = ScheduledLoopResult(schedule, factor, UnrollPolicy(result.policy))
        object.__setattr__(result, "_loop_result", decoded)
        return result

    def loop_result(self) -> ScheduledLoopResult:
        """The :class:`ScheduledLoopResult`, decoded by :meth:`from_dict`
        or live from :meth:`from_loop_result`; do not mutate it.

        Raises
        ------
        ValueError
            For a result built by the constructor, which holds only the
            payload.
        """
        try:
            return self.__dict__["_loop_result"]
        except KeyError:
            raise ValueError(
                "this point result holds no schedule; build it with "
                "PointResult.from_dict or PointResult.from_loop_result"
            ) from None

    @classmethod
    def from_loop_result(
        cls,
        result: ScheduledLoopResult,
        *,
        fallback: bool = False,
        sim: SimOutcome | None = None,
    ) -> "PointResult":
        """Wrap a live :class:`ScheduledLoopResult` for caching.

        :meth:`loop_result` then returns the live schedule, with no
        ``base_schedule`` (which is what a decode yields).
        """
        point_result = cls(
            schedule=schedule_body_to_rows(result.schedule),
            unroll_factor=result.unroll_factor,
            policy=result.policy.value,
            fallback=fallback,
            sim=sim,
        )
        live = ScheduledLoopResult(result.schedule, result.unroll_factor, result.policy)
        object.__setattr__(point_result, "_loop_result", live)
        return point_result


#: One entry of a declared grid: the work unit plus the live loop whose
#: graph the worker will schedule.  Grids are lists of these.
GridItem = tuple[ScenarioPoint, Loop]
