"""Seeded inputs for every workload.

The seed is the only thing that varies: the same seed gives the same
inputs (each builder returns a digest over them), and every seed keeps the
same shape -- points per policy and per machine, and the SPECfp program
mix -- so a claim can be re-checked on a seed it was not tuned on.  Each
call builds its loops anew: ``DependenceGraph.derived`` memoises ordering
and MII per graph object, so reusing graphs would hide that work.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

#: Per-point schedule summary and per-loop cold cost of the fig8 --quick
#: grid, written by ``perfbench/record_expected.py``.
EXPECTED_PATH = Path(__file__).with_name("fig8_quick_expected.json")

#: ``repro-vliw fig8 --quick``: one bus, bus latencies 1 and 4.
FIG8_QUICK = {"bus_counts": (1,), "latencies": (1, 4)}

#: Kernel catalogue used by the HTTP pool and the fabric grid.
KERNELS = (
    "daxpy", "vadd", "dot", "rec1", "stencil3", "stencil5", "fir4", "cmul",
    "hydro", "tridiag", "sqrtnorm", "gather", "fib", "figure7", "ladder",
)
LIVERMORE = ("ll1", "ll3", "ll5", "ll7", "ll9", "ll10", "ll11", "ll12")

#: (clusters, buses, latency) shapes served over HTTP; 1 cluster = unified.
HTTP_MACHINES = ((1, 1, 1), (2, 1, 1), (2, 1, 4), (4, 1, 1), (4, 2, 2))
POLICIES = ("none", "all", "selective")


def digest(data) -> str:
    """Short content digest of JSON-ready *data*."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------------------
# sweep_cold / sweep_warm: a slice of the fig8 --quick grid
# ---------------------------------------------------------------------------
def sweep_slice(seed: int, expected: dict) -> tuple[list, str]:
    """A freshly built SPECfp suite cut down to the seed's slice.

    Every program contributes one loop per stratum.  A stratum is a set of
    loops of that program whose cold fig8 --quick cost was within a few
    tens of milliseconds of each other when the strata were recorded, so
    every seed does about the same work; a program without such a pair
    contributes a fixed loop.  The run_fig8 grid over the slice then
    covers the unified baseline plus 2- and 4-cluster machines, all three
    unrolling policies, one bus and bus latencies 1 and 4.
    """
    from repro.ir.loop import Program
    from repro.workloads.specfp import specfp95_suite

    rng = random.Random(f"sweep:{seed}")
    suite = []
    for program in specfp95_suite():
        chosen = {rng.choice(group) for group in expected["strata"][program.name]}
        loops = [loop for loop in program.loops if loop.name in chosen]
        suite.append(Program(program.name, loops))
    names = [[loop.name for loop in program.loops] for program in suite]
    return suite, digest({"slice": names, **FIG8_QUICK})


def scenario_key(loop: str, clusters: int, buses: int, latency: int, policy: str) -> str:
    """Key of one fig8 point in the expected file."""
    if clusters == 1:
        return f"{loop}|unified|{policy}"
    return f"{loop}|c{clusters}b{buses}l{latency}|{policy}"


# ---------------------------------------------------------------------------
# serve_http: a closed-loop request stream
# ---------------------------------------------------------------------------
#: Every FRESH_EVERY-th request is fresh (misses every cache); they
#: alternate between an inline ``.loop`` program and a ``simulate`` request.
FRESH_EVERY = 25
POOL_PER_CELL = 3


def loop_source(rng: random.Random, name: str) -> str:
    """One fresh ``.loop`` program of a fixed shape: three loads, eight FP
    operations wired at random, a distance-1 accumulator and a store."""
    lines = [f"loop {name}", "trip 100", "", "BB0:", "    a = live", "", "BB1:"]
    values = []
    for k in range(3):
        lines.append(f"    x{k} = load x{k}[i]")
        values.append(f"x{k}")
    for k in range(8):
        op = rng.choice(("fadd", "fmul", "fsub"))
        lhs = rng.choice(values[-3:])
        rhs = rng.choice(values + ["a"])
        lines.append(f"    t{k} = {op} {lhs}, {rhs}")
        values.append(f"t{k}")
    lines.append(f"    s = fadd {values[-1]}, s@1")
    lines.append("    store s, y[i]")
    lines += ["", "BB2:", ""]
    return "\n".join(lines)


def http_pool(rng: random.Random) -> list[dict]:
    """Catalogue-kernel scenarios: POOL_PER_CELL kernels for every machine
    shape and policy, each kernel in the same number of cells.

    The seed permutes the kernels; cell *i* takes kernels ``i``,
    ``i + 5`` and ``i + 10`` of the permutation, so each kernel meets
    every policy once whatever the seed.  Drawing kernels per cell
    independently instead lets one seed's pool be mostly cheap,
    high-IPC kernels and another's mostly the opposite.
    """
    kernels = rng.sample(KERNELS, len(KERNELS))
    cells = [(shape, policy) for shape in HTTP_MACHINES for policy in POLICIES]
    stride = len(kernels) // POOL_PER_CELL
    pool = []
    for i, ((clusters, buses, latency), policy) in enumerate(cells):
        for j in range(POOL_PER_CELL):
            pool.append(
                {
                    "kernel": kernels[(i + stride * j) % len(kernels)],
                    "clusters": clusters,
                    "buses": buses,
                    "latency": latency,
                    "policy": policy,
                }
            )
    return pool


def http_stream(seed: int, n_requests: int) -> tuple[list[dict], str]:
    """*n_requests* ``POST /schedule`` bodies for one seed.

    Mostly repeats from :func:`http_pool`; every FRESH_EVERY-th request is
    fresh instead, alternately an inline ``.loop`` program and a
    ``simulate`` request with a new memory-model seed.  Fresh requests
    sit at fixed positions, so every stretch of the stream has the same
    mix.
    """
    rng = random.Random(f"http:{seed}")
    pool = http_pool(rng)
    sim_kernels = rng.sample(KERNELS, len(KERNELS))
    stream = []
    for k in range(n_requests):
        fresh, slot = divmod(k, FRESH_EVERY)
        if slot != FRESH_EVERY - 1:
            stream.append(rng.choice(pool))
        elif fresh % 2 == 0:
            stream.append(
                {
                    "program": loop_source(rng, f"user{seed}_{fresh}"),
                    "clusters": 4,
                    "buses": 1,
                    "latency": 1,
                }
            )
        else:
            stream.append(
                {
                    "kernel": sim_kernels[fresh // 2 % len(sim_kernels)],
                    "clusters": 2,
                    "buses": 1,
                    "latency": 1,
                    "simulate": True,
                    "niter": 100,
                    "miss_rate": 0.05,
                    "miss_penalty": 10,
                    "seed": seed * 100_000 + fresh,
                }
            )
    return stream, digest(stream)


# ---------------------------------------------------------------------------
# fabric_pull: a grid of cheap no-unrolling points
# ---------------------------------------------------------------------------
FABRIC_SCHEDULERS = ("bsa", "two-phase")
FABRIC_SHAPES = tuple(
    (clusters, buses, latency)
    for clusters in (2, 4)
    for buses in (1, 2)
    for latency in (1, 2, 4)
)


def fabric_grid(seed: int) -> tuple[list, str]:
    """Freshly built grid items: catalogue kernels x shapes x schedulers,
    in the seed's order.

    Every seed resolves the same points; the seed decides the order they
    are leased in, and so which points share a shard.  Letting the seed
    choose the shapes instead moved the grid's cold cost by ~20% between
    seeds and its tail latency by more, since a handful of 4-cluster
    Livermore points (ll9 above all) are the slowest by far.
    """
    from repro.arch.configs import clustered_config
    from repro.core.selective import UnrollPolicy
    from repro.runner.scenario import scenario_for
    from repro.workloads.kernels import kernel_loop

    items = []
    for name in KERNELS + LIVERMORE:
        loop = kernel_loop(name)
        for shape in FABRIC_SHAPES:
            config = clustered_config(*shape)
            for scheduler in FABRIC_SCHEDULERS:
                point = scenario_for(loop, config, scheduler, UnrollPolicy.NONE)
                items.append((point, loop))
    random.Random(f"fabric:{seed}").shuffle(items)
    return items, digest([point.canonical() for point, _loop in items])
