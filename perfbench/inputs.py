"""Seeded inputs of the nbtisim benchmark and the reference answers to them.

Everything the program receives is made here from the workload seed: the
100k-gate circuit spec of signoff-dag100k, and the grid spec, results-store
rows and query mix of campaign-grid. The same seed gives byte-identical
inputs.

`Reference` answers a query by rescanning the rows the benchmark
generated, independently of the program's index and query code.
"""

import hashlib
import json
import random

# ---------------------------------------------------------------- signoff

def signoff_circuit_spec(seed):
    """The 100k-gate random DAG `nbtisim generate` writes for this seed."""
    return f"dag:256x100000@{seed}"


# ----------------------------------------------------------- campaign-grid

# ISCAS85-class circuits from the smallest to the largest of the suite, then
# the arithmetic generators. Set-up writes each as a .bench file, which the
# grid names. The wide-input members the MLV/pareto searches find slowest
# (c2670, c5315, c6288) are left out so one grid job stays short.
GRID_CIRCUITS = ["c432", "c880", "c1908", "c3540", "c7552", "mult:8",
                 "alu:16"]
GRID_ANALYSES = ["aging", "criticality", "derate", "failure", "ivc",
                 "lifetime", "multi", "pareto", "sizing", "st", "thermal"]


def generated_bench_name(spec):
    return spec.replace(":", "_") + ".bench"


def campaign_spec(seed, bench_dir, threads):
    """Grid spec: 7 circuits x 2 conditions x all 11 registry analyses.

    The seed moves the Monte-Carlo/signal-probability seed and the two
    standby temperatures; grid size and search budgets stay fixed, so every
    seed asks for the same amount of work. Parameters start from
    examples/campaign_all_analyses.json with smaller search budgets.
    """
    rng = random.Random(f"campaign-grid/{seed}")
    cool = 320 + 5 * rng.randrange(5)   # 320..340 K
    hot = 380 + 5 * rng.randrange(5)    # 380..400 K
    netlists = [f"{bench_dir}/{generated_bench_name(c)}"
                for c in GRID_CIRCUITS]
    return {
        "name": f"grid_{seed}",
        "netlists": netlists,
        "conditions": [
            {"ras": "1:9", "t_active": 400, "t_standby": cool, "years": 10},
            {"ras": "1:9", "t_active": 400, "t_standby": hot, "years": 10},
        ],
        "analyses": GRID_ANALYSES,
        "params": {
            "sp_vectors": 1024, "seed": 1000 + seed,
            "samples": 50, "spec_margin": 5.0,
            "population": 8, "max_rounds": 3,
            "st_sigma": 0.05,
            "sizing_margin": 3.0, "sizing_step": 0.5,
            "sizing_max_size": 4.0, "sizing_max_moves": 600,
            "derate_years": [1, 2, 3, 5, 7, 10],
            "pareto_samples": 8, "pareto_rounds": 1, "pareto_flips": 2,
            "crit_samples": 100, "crit_sigma": 0.015,
            "clock_ghz": 1.0, "pbti_ratio": 0.35,
            "thermal_power": 60.0, "thermal_replication": 1e5,
            "thermal_runaway_k": 1000.0,
            "fail_dvth": 0.05, "fail_max_years": 100.0, "fail_points": 24,
            "weibull_beta": 2.0, "fail_curve_years": [1, 5, 10, 20],
        },
        "n_threads": threads,
        "shards": 16,
    }


# ------------------------------------------------------ results store, queries

QUERY_ROWS = 30000
QUERY_POOL = 512

STORE_NETLISTS = ["c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540",
                  "c5315", "c6288", "c7552", "mult_8", "mult_12", "mult_16",
                  "alu_8", "alu_16", "alu_32", "dag_64x5000_1",
                  "dag_64x5000_2", "dag_256x100000_1", "dag_256x100000_2"]
STORE_RAS = ["1:1", "1:3", "1:5", "1:9"]
STORE_T_ACTIVE = [380, 400, 420]
STORE_T_STANDBY = [300, 315, 330, 345, 360, 375, 390, 400]
STORE_YEARS = [5, 10]

# Scalar metrics per analysis, as the registry analyses name them, with the
# value range each is drawn from.
METRICS = {
    "aging": {"fresh_ns": (0.5, 400), "aged_worst_ns": (0.5, 420),
              "worst_pct": (1, 12), "worst_half_horizon_pct": (1, 10),
              "vector0_pct": (1, 11), "best_pct": (0.5, 6)},
    "criticality": {"distinct_paths": (1, 40), "critical_gates": (5, 400),
                    "max_prob": (0.1, 1)},
    "derate": {f"{p}_y{y}": (1.0, 1.1) for p in ("worst", "vec0", "best")
               for y in (1, 2, 3, 5, 7, 10)},
    "failure": {"mttf_nbti_years": (0.1, 50), "mttf_pbti_years": (1, 1000),
                "mttf_hci_years": (0.1, 50), "mttf_tddb_years": (0.1, 80),
                "mttf_em_years": (0.1, 60), "system_mttf_years": (0.05, 20),
                "fail_at_y1": (0, 1), "fail_at_y5": (0, 1),
                "fail_at_y10": (0, 1), "fail_at_y20": (0, 1)},
    "ivc": {"worst_pct": (1, 12), "best_mlv_pct": (1, 12),
            "best_mlv_leak_ua": (10, 5000), "mlv_spread_pct": (0, 1),
            "random_ref_pct": (1, 12), "inc_bound_pct": (0.5, 6),
            "n_mlv": (1, 64)},
    "lifetime": {"median_years": (0.5, 30), "p01_years": (0.1, 20),
                 "fail_at_horizon_pct": (0, 100), "survivor_pct": (0, 100)},
    "multi": {"fresh_ns": (0.5, 400), "nbti_pct": (1, 12),
              "multi_pct": (1, 20), "pmos_mv": (5, 60), "nmos_mv": (5, 60)},
    "pareto": {"front_size": (1, 12), "evaluated": (10, 200),
               "min_leak_ua": (10, 5000), "min_leak_deg_pct": (1, 12),
               "min_deg_pct": (1, 12), "min_deg_leak_ua": (10, 5000),
               "balanced_leak_ua": (10, 5000), "balanced_deg_pct": (1, 12),
               "deg_range_pct": (0, 1)},
    "sizing": {"spec_ns": (0.5, 400), "aged_before_ns": (0.5, 420),
               "aged_after_ns": (0.5, 400), "area_overhead_pct": (0, 10),
               "guard_band_pct": (0, 10), "moves": (0, 600),
               "rounds": (0, 600), "met": (0, 1)},
    "st": {"st_total_pct": (1, 15), "st_logic_pct": (1, 8),
           "st_drop_pct": (1, 8), "no_st_pct": (1, 12),
           "wl_base": (100, 1000), "wl_nbti_aware": (100, 1100),
           "wl_increase_pct": (0, 5), "st_dvth_mv": (5, 40)},
    "thermal": {"temp_k": (330, 1000), "leakage_w": (1, 5000),
                "iterations": (1, 40), "converged": (0, 1)},
}
ANALYSES = sorted(METRICS)
# Count-like metrics are whole numbers in real rows.
INTEGRAL = {"distinct_paths", "critical_gates", "n_mlv", "front_size",
            "evaluated", "moves", "rounds", "met", "iterations", "converged"}


def _metric_value(rng, name, lo, hi):
    if name in INTEGRAL:
        return rng.randint(int(lo), int(hi))
    return rng.uniform(lo, hi)


def store_rows(seed, n=QUERY_ROWS):
    """Result-store rows in the campaign row schema, structured payloads
    (failure curve, pareto front, criticality gate_prob) included."""
    rng = random.Random(f"results-store/{seed}")
    rows = []
    for i in range(n):
        analysis = rng.choice(ANALYSES)
        netlist = rng.choice(STORE_NETLISTS)
        metrics = {m: _metric_value(rng, m, lo, hi)
                   for m, (lo, hi) in METRICS[analysis].items()}
        if analysis == "failure":
            metrics["curve"] = [[y, rng.random()] for y in (1, 5, 10, 20)]
        elif analysis == "pareto":
            metrics["front"] = [{"leak_ua": rng.uniform(10, 5000),
                                 "deg_pct": rng.uniform(1, 12)}
                                for _ in range(rng.randint(1, 6))]
        elif analysis == "criticality":
            metrics["gate_prob"] = [rng.random() for _ in range(16)]
        rows.append({
            "hash": hashlib.sha256(f"{seed}/{i}".encode()).hexdigest()[:16],
            "campaign": f"store_{seed}",
            "netlist": netlist,
            "netlist_spec": netlist,
            "ras": rng.choice(STORE_RAS),
            "t_active": rng.choice(STORE_T_ACTIVE),
            "t_standby": rng.choice(STORE_T_STANDBY),
            "years": rng.choice(STORE_YEARS),
            "analysis": analysis,
            "metrics": metrics,
        })
    return rows


def query_pool(seed, rows, n=QUERY_POOL):
    """A seeded mix of four query shapes, a quarter each: selective
    filter+select, count by coordinates (answered from the index alone),
    quantile aggregate, and hash point lookup."""
    rng = random.Random(f"query-pool/{seed}")
    pool = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            analysis = rng.choice(ANALYSES)
            metric = rng.choice(sorted(METRICS[analysis]))
            lo, hi = METRICS[analysis][metric]
            a = rng.uniform(lo, hi)
            b = rng.uniform(lo, hi)
            q = {"where": {"netlist": rng.choice(STORE_NETLISTS),
                           "analysis": analysis,
                           metric: {"min": min(a, b), "max": max(a, b)}},
                 "select": ["hash", "ras", "t_active", "t_standby", "years",
                            metric]}
        elif kind == 1:
            q = {"where": {"analysis": rng.sample(ANALYSES, 2),
                           "netlist": rng.sample(STORE_NETLISTS, 4),
                           "t_standby": {"min": rng.choice(STORE_T_STANDBY)}},
                 "agg": {"op": "count", "by": ["netlist", "ras"]}}
        elif kind == 2:
            analysis = rng.choice(ANALYSES)
            q = {"where": {"analysis": analysis,
                           "netlist": rng.sample(STORE_NETLISTS, 3)},
                 "agg": {"op": "quantile",
                         "q": rng.choice([0.5, 0.9, 0.99]),
                         "by": ["netlist", "t_active"],
                         "metrics": rng.sample(sorted(METRICS[analysis]), 2)}}
        else:
            row = rng.choice(rows)
            q = {"where": {"hash": row["hash"]},
                 "select": ["netlist", "analysis"] +
                           sorted(METRICS[row["analysis"]])[:3]}
        pool.append(q)
    return pool


# ------------------------------------------------- query reference (rescan)

STRING_COORDS = ("netlist", "ras", "analysis", "hash")
NUMBER_COORDS = ("t_active", "t_standby", "years")


def _value(row, key):
    if key in STRING_COORDS or key in NUMBER_COORDS:
        return row.get(key)
    return row["metrics"].get(key)


def _matches(pred, v):
    if v is None:
        return False
    if isinstance(pred, dict):
        if isinstance(v, (bool, str, list, dict)):
            return False
        return pred.get("min", float("-inf")) <= v <= pred.get("max",
                                                               float("inf"))
    if isinstance(pred, list):
        return v in pred
    return v == pred


def _canonical(row):
    return (row["netlist"], row["ras"], row["t_active"], row["t_standby"],
            row["years"], row["analysis"], row["hash"])


class Reference:
    """Full-rescan answers to the query pool, over the generated rows."""

    def __init__(self, rows):
        self.rows = rows
        self.by_hash = {r["hash"]: r for r in rows}
        self.by_cell = {}
        for r in rows:
            self.by_cell.setdefault((r["analysis"], r["netlist"]), []).append(r)

    def _candidates(self, where):
        """Rows that can match: a superset of the answer, narrowed on the
        hash, analysis and netlist predicates."""
        if isinstance(where.get("hash"), str):
            r = self.by_hash.get(where["hash"])
            return [r] if r else []

        def values(key, universe):
            p = where.get(key)
            return [p] if isinstance(p, str) else p if isinstance(
                p, list) else universe
        return [r for a in values("analysis", ANALYSES)
                for n in values("netlist", STORE_NETLISTS)
                for r in self.by_cell.get((a, n), [])]

    def reply(self, q):
        """The expected {"ok","columns","rows","matched"} of one query."""
        where = q.get("where", {})
        matched = sorted((r for r in self._candidates(where)
                          if all(_matches(p, _value(r, k))
                                 for k, p in where.items())),
                         key=_canonical)
        if "agg" not in q:
            cols = q["select"]
            out = [[_value(r, c) for c in cols] for r in matched]
        else:
            agg = q["agg"]
            cols = agg["by"] + ["count"]
            metrics = agg.get("metrics", []) if agg["op"] != "count" else []
            cols += [f"{agg['op']}_{m}" for m in metrics]
            groups = {}
            for r in matched:
                key = tuple(_value(r, c) for c in agg["by"])
                groups.setdefault(key, []).append(r)
            out = []
            for key, members in groups.items():
                cells = list(key) + [len(members)]
                for m in metrics:
                    vals = sorted(_value(r, m) for r in members)
                    h = agg["q"] * (len(vals) - 1)
                    lo = int(h)
                    hi = min(lo + 1, len(vals) - 1)
                    cells.append(vals[lo] + (h - lo) * (vals[hi] - vals[lo]))
                out.append(cells)
        return {"ok": True, "columns": cols, "rows": out,
                "matched": len(matched)}


def dumps_line(obj):
    return json.dumps(obj, separators=(",", ":"))
