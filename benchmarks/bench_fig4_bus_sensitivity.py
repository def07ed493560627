"""EXP-F4 — Figure 4: relative IPC vs number of buses, BSA vs two-phase.

Paper shape: BSA (single-pass assign-and-schedule) above N&E (two-phase)
across the sweep — about 7% at the N&E configurations (2c/2b, 4c/4b,
latency 1); both approach unified parity as buses grow; both degrade as
buses shrink or slow, the two-phase approach faster.
"""

from conftest import save_result

from repro.experiments import fig4_rows, run_fig4
from repro.perf import format_table

#: trimmed sweep keeps the bench under a few minutes while covering the
#: paper's interesting region (scarce buses) and the saturation end.
BUS_SWEEP = (1, 2, 4, 8)


def _points_by(points, **filters):
    out = []
    for p in points:
        if all(getattr(p, k) == v for k, v in filters.items()):
            out.append(p)
    return out


def test_fig4(benchmark, ctx, results_dir):
    points = benchmark.pedantic(
        run_fig4, args=(ctx,), kwargs={"bus_sweep": BUS_SWEEP}, rounds=1, iterations=1
    )

    # --- paper-shape assertions -------------------------------------
    for n_clusters in (2, 4):
        for latency in (1, 2):
            bsa = {
                p.n_buses: p.relative_ipc
                for p in _points_by(
                    points, n_clusters=n_clusters, algorithm="bsa", bus_latency=latency
                )
            }
            nee = {
                p.n_buses: p.relative_ipc
                for p in _points_by(
                    points,
                    n_clusters=n_clusters,
                    algorithm="two-phase",
                    bus_latency=latency,
                )
            }
            # 1. more buses never hurt much (monotone-ish recovery)
            assert bsa[max(BUS_SWEEP)] >= bsa[1] - 0.02
            # 2. plenty of buses approaches unified parity for BSA
            assert bsa[max(BUS_SWEEP)] > 0.85
            # 3. single-pass at least matches two-phase on average
            bsa_mean = sum(bsa.values()) / len(bsa)
            nee_mean = sum(nee.values()) / len(nee)
            assert bsa_mean >= nee_mean - 0.01

    # 4. the N&E configurations of the paper (latency 1): BSA wins
    for n_clusters in (2, 4):
        bus = 2 if n_clusters == 2 else 4  # 2c/2b and 4c/4b in the paper
        bsa_pt = _points_by(
            points, n_clusters=n_clusters, algorithm="bsa", bus_latency=1, n_buses=bus
        )[0]
        nee_pt = _points_by(
            points,
            n_clusters=n_clusters,
            algorithm="two-phase",
            bus_latency=1,
            n_buses=bus,
        )[0]
        assert bsa_pt.relative_ipc >= nee_pt.relative_ipc - 0.01

    save_result(
        results_dir,
        "fig4.txt",
        format_table(
            fig4_rows(points),
            title="Figure 4: relative IPC (clustered/unified) vs number of buses",
        ),
    )
