"""Pure helpers of the end-to-end benchmark: the job menus, their seeded
order, answer checks and order statistics. `run.py` drives the programs
with them; `test_benchlib.py` pins them."""

import json

MACHINES = ("SPARC-II", "Pentium-IV")

# serve-search: the six irregular sections, each pair tuned three ways.
# `None` sends no "strategy" field: the serial IE golden path.
SEARCH_BENCHMARKS = ("BZIP2", "CRAFTY", "GZIP", "TWOLF", "VORTEX", "MESA")
SEARCH_STRATEGIES = (None, "ga", "clustered")

# serve-figure7: the methods `figure7_method_list` plots for SWIM and
# MGRID, without WHL (16-66 s per job) and MGRID's AVG (6-11 s). ART is
# left out too: its cells take 2-7.5 s, up to 10x the smallest, and leave
# room for one pass a run where SWIM and MGRID alone take two (README.md).
FIGURE7_METHODS = (
    ("SWIM", ("CBR", "RBR", "AVG")),
    ("MGRID", ("CBR", "MBR", "RBR")),
)

# table1: the Table 1 sections on both machines, without APSI, WUPWISE,
# MCF and ART (README.md). The twelve cells of the RBR integer sections and
# MESA, 4-18 ms each, are more than half of the 20, so the median falls in
# that dense cluster; the tail falls among the EQUAKE and SWIM cells.
TABLE1_BENCHMARKS = (
    "BZIP2", "CRAFTY", "GZIP", "TWOLF", "VORTEX", "MESA",
    "APPLU", "MGRID", "EQUAKE", "SWIM",
)

WORKLOADS = ("serve-search", "serve-figure7", "table1")

# Seed that no tuning of the benchmark or of a change may use: a claimed
# gain must also hold when the benchmark runs with it.
HELD_OUT_SEED = 9973

# Per-job deadline sent with every request; a job that misses it fails.
DEADLINE_MS = 60000


def serve_menu(workload):
    """The (key, request) pairs of a served workload, in menu order.
    The key names the job; requests carry it as their id."""
    menu = []
    if workload == "serve-search":
        for bench in SEARCH_BENCHMARKS:
            for machine in MACHINES:
                for strategy in SEARCH_STRATEGIES:
                    key = "%s/%s/%s" % (bench, machine, strategy or "serial")
                    req = {"id": key, "kind": "tune", "benchmark": bench, "machine": machine}
                    if strategy is not None:
                        req["strategy"] = strategy
                    menu.append((key, req))
    elif workload == "serve-figure7":
        for bench, methods in FIGURE7_METHODS:
            for machine in MACHINES:
                for method in methods:
                    key = "%s/%s/%s" % (bench, machine, method)
                    req = {"id": key, "kind": "tune", "benchmark": bench,
                           "machine": machine, "method": method}
                    menu.append((key, req))
    else:
        raise ValueError("not a served workload: %r" % workload)
    for _, req in menu:
        req["deadline_ms"] = DEADLINE_MS
    return menu


def table1_menu():
    """The Table 1 cells, in menu order."""
    return [{"id": "%s/%s" % (bench, machine), "benchmark": bench, "machine": machine}
            for bench in TABLE1_BENCHMARKS for machine in MACHINES]


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return state, z ^ (z >> 31)


def seeded_order(items, seed):
    """A copy of `items` shuffled by `seed` (Fisher-Yates on SplitMix64).
    The seed changes only the order: every seed yields the same items."""
    out = list(items)
    state = seed & 0xFFFFFFFFFFFFFFFF
    for i in range(len(out) - 1, 0, -1):
        state, r = _splitmix64(state)
        j = r % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def seeded_jobs(menu, seed, benchmark):
    """`menu` in seeded order. The seed permutes the benchmarks, and the
    jobs are dealt from them round-robin; each benchmark's jobs keep their
    menu order. Jobs of one benchmark share compiled versions and argument
    streams, and the first of them pays for both: reordering inside a
    benchmark would move that cost from job to job and make the latency
    order statistics depend on the seed. Dealing round-robin spreads each
    benchmark's jobs over the pass, so a slow spell of the host does not
    fall on one benchmark's jobs alone."""
    blocks = {}
    for item in menu:
        blocks.setdefault(benchmark(item), []).append(item)
    order = seeded_order(list(blocks), seed)
    depth = max(len(b) for b in blocks.values())
    return [blocks[b][i] for i in range(depth) for b in order if i < len(blocks[b])]


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def tail_percentile(samples, beyond=10):
    """The highest percentile with at least `beyond` samples beyond it.

    Returns (value, percentile, n): the (n - beyond)-th smallest sample,
    the share of samples at or below its rank in percent, and the sample
    count. Ties are ranked, not merged. None when n <= beyond."""
    s = sorted(samples)
    n = len(s)
    if n <= beyond:
        return None
    rank = n - beyond
    return s[rank - 1], 100.0 * rank / n, n


def diff_answer(got, want):
    """Names of the fields of a tune report that differ from the expected
    one (empty when they agree). Both are parsed JSON objects."""
    if not isinstance(got, dict):
        return ["result"]
    fields = sorted(set(got) | set(want))
    out = [f for f in fields if f != "search" and got.get(f) != want.get(f)]
    gs, ws = got.get("search"), want.get("search")
    if not isinstance(gs, dict) or not isinstance(ws, dict):
        return out + (["search"] if gs != ws else [])
    return out + ["search." + f for f in sorted(set(gs) | set(ws)) if gs.get(f) != ws.get(f)]


def table1_expected(rows_by_machine):
    """Committed Table 1 rows grouped by cell id: `rows_by_machine` maps a
    machine name to the parsed `results_table1_*.json` list."""
    cells = {}
    for machine, rows in rows_by_machine.items():
        for row in rows:
            cells.setdefault("%s/%s" % (row["benchmark"], machine), []).append(row)
    return cells


def request_line(req):
    return json.dumps(req, separators=(",", ":"))
