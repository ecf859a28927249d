"""Output checks of the nbtisim benchmark.

Each check returns a list of problems (empty when the output is right);
the benchmark counts an operation with any problem as failed.
"""

import hashlib
import math
import re

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def digest(parts):
    """sha256 over byte strings, each length-prefixed."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            p = p.encode()
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def printed_numbers(text):
    """The numbers a job printed, in order, as one string."""
    return " ".join(NUMBER.findall(text))


def md_rows(text):
    """Body rows of the markdown tables in `text`, as lists of cells."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("|") or line.startswith("|---"):
            continue
        rows.append([c.strip() for c in line.strip("|").split("|")])
    return rows


def _num(cell):
    m = NUMBER.search(cell)
    return float(m.group()) if m else None


def _finite(*xs):
    return all(x is not None and math.isfinite(x) for x in xs)


# ------------------------------------------------------------------ signoff

def parse_aging(text):
    """{policy: (fresh_ns, aged_ns, pct)} from `nbtisim aging`."""
    out = {}
    for cells in md_rows(text):
        if len(cells) == 4 and cells[0] != "standby policy":
            out[cells[0]] = tuple(_num(c) for c in cells[1:])
    return out


WORST = "all nodes stressed (worst)"
VECTOR = "inputs held all-0"
BEST = "all nodes relaxed (best)"


def check_aging(text):
    rows = parse_aging(text)
    if set(rows) != {WORST, VECTOR, BEST}:
        return [f"aging: expected three policy rows, got {sorted(rows)}"]
    problems = []
    for name, (fresh, aged, pct) in rows.items():
        if not _finite(fresh, aged, pct):
            problems.append(f"aging: non-finite values for {name}")
        elif not (fresh > 0 and aged >= fresh and pct >= 0):
            problems.append(f"aging: {name}: aged {aged} vs fresh {fresh}")
    if not problems and not (rows[WORST][2] >= rows[VECTOR][2] >= rows[BEST][2]):
        problems.append("aging: expected worst >= vector >= best degradation")
    return problems


def parse_failure(text):
    """({mechanism: mttf_years or inf}, system_mttf, [(year, p)])."""
    mech, system, curve = {}, None, []
    for cells in md_rows(text):
        if cells[0] in ("mechanism", "years"):
            continue
        if len(cells) == 3:
            value = math.inf if cells[1].startswith(">") else _num(cells[1])
            if cells[0].startswith("system"):
                system = value
            else:
                mech[cells[0]] = value
        elif len(cells) == 2:
            curve.append((_num(cells[0]), _num(cells[1])))
    return mech, system, curve


def check_failure(text):
    mech, system, curve = parse_failure(text)
    problems = []
    if not mech or system is None or not curve:
        return ["failure: missing mechanism, system or curve rows"]
    for name, v in list(mech.items()) + [("system", system)]:
        if v is None or math.isnan(v) or v <= 0:
            problems.append(f"failure: MTTF of {name} is not positive: {v}")
    finite = [v for v in mech.values() if v is not None and math.isfinite(v)]
    if finite and system is not None and system > min(finite) + 0.01:
        problems.append("failure: system MTTF above its weakest mechanism")
    ps = [p for _, p in curve]
    if not all(p is not None and 0 <= p <= 1 for p in ps):
        problems.append("failure: curve probability outside [0, 1]")
    elif ps != sorted(ps):
        problems.append("failure: failure curve decreases")
    return problems


def parse_lifetime(text):
    return {cells[0]: _num(cells[1]) for cells in md_rows(text)
            if len(cells) == 2 and cells[0] != "quantity"}


def check_lifetime(text):
    r = parse_lifetime(text)
    keys = ["median lifetime", "1%-ile lifetime", "failed within the horizon",
            "survivors at 30 years"]
    if any(k not in r for k in keys) or not _finite(*(r[k] for k in keys)):
        return ["lifetime: missing or non-finite rows"]
    problems = []
    if not r["median lifetime"] > 0:
        problems.append("lifetime: median lifetime not positive")
    if r["1%-ile lifetime"] > r["median lifetime"] + 0.01:
        problems.append("lifetime: 1%-ile above the median")
    for k in keys[2:]:
        if not 0 <= r[k] <= 100:
            problems.append(f"lifetime: {k} outside [0, 100] %")
    return problems


def close(a, b):
    """Equal to the precision the CLI prints (4 significant digits or two
    decimals)."""
    return abs(a - b) <= max(1e-3 * abs(b), 0.0051)


def check_signoff_replay(results, aging_text, failure_text, lifetime_text):
    """The traced in-process replay must reproduce the CLI's numbers."""
    problems = []
    rows = parse_aging(aging_text)
    for (fresh, aged), name in zip(results["aging"], (WORST, VECTOR, BEST)):
        if name not in rows or not (close(fresh, rows[name][0]) and
                                    close(aged, rows[name][1])):
            problems.append(f"replay: aging {name} differs from the CLI")
    mech, system, _ = parse_failure(failure_text)
    if system is None or not close(results["failure"]["system_mttf"], system):
        problems.append("replay: failure system MTTF differs from the CLI")
    for got, want in zip(results["failure"]["mechanisms"], mech.values()):
        if (got is None) != (not math.isfinite(want)) or (
                got is not None and not close(got, want)):
            problems.append("replay: failure mechanism MTTF differs")
    life = parse_lifetime(lifetime_text)
    if not (close(results["lifetime"][0], life.get("median lifetime", -1)) and
            close(results["lifetime"][1], life.get("1%-ile lifetime", -1))):
        problems.append("replay: lifetime quantiles differ from the CLI")
    return problems


# ------------------------------------------------------------ campaign-grid

def _ge(a, b, tol=1e-9):
    return a >= b - tol * max(1.0, abs(b))


def check_campaign_row(row):
    """Physical invariants of one campaign result row."""
    a, m = row["analysis"], row["metrics"]
    scalars = {k: v for k, v in m.items() if not isinstance(v, (list, dict))}
    bad = [k for k, v in scalars.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        return [f"{a}: non-finite {bad}"]
    where = f"{row['netlist']} {row['t_standby']}K {a}"
    rules = []
    if a == "aging":
        rules = [("aged >= fresh", _ge(m["aged_worst_ns"], m["fresh_ns"])),
                 ("worst >= vector >= best",
                  _ge(m["worst_pct"], m["vector0_pct"]) and
                  _ge(m["vector0_pct"], m["best_pct"]) and m["best_pct"] >= 0),
                 ("half horizon <= horizon",
                  _ge(m["worst_pct"], m["worst_half_horizon_pct"]))]
    elif a == "derate":
        rules = [("worst >= vector >= best >= 1",
                  all(_ge(m[f"worst_y{y}"], m[f"vec0_y{y}"]) and
                      _ge(m[f"vec0_y{y}"], m[f"best_y{y}"]) and
                      m[f"best_y{y}"] >= 1.0 for y in (1, 2, 3, 5, 7, 10)))]
    elif a == "failure":
        mttfs = [v for k, v in m.items() if k.startswith("mttf_")]
        fails = [m[k] for k in sorted((k for k in m if k.startswith("fail_at_y")),
                                      key=lambda k: int(k[9:]))]
        rules = [("positive MTTFs", all(v > 0 for v in mttfs) and
                  m["system_mttf_years"] > 0),
                 ("system <= weakest mechanism",
                  _ge(min(mttfs), m["system_mttf_years"])),
                 ("failure curve in [0,1], non-decreasing",
                  all(0 <= p <= 1 for p in fails) and fails == sorted(fails))]
    elif a == "ivc":
        rules = [("worst >= best MLV >= all-relaxed bound",
                  _ge(m["worst_pct"], m["best_mlv_pct"]) and
                  _ge(m["best_mlv_pct"], m["inc_bound_pct"]))]
    elif a == "lifetime":
        rules = [("positive median lifetime", m["median_years"] > 0),
                 ("1%-ile <= median", _ge(m["median_years"], m["p01_years"]))]
    elif a == "multi":
        rules = [("fresh > 0", m["fresh_ns"] > 0),
                 ("all mechanisms >= NBTI only",
                  _ge(m["multi_pct"], m["nbti_pct"]))]
    elif a == "sizing":
        rules = [("sizing does not slow the aged path",
                  _ge(m["aged_before_ns"], m["aged_after_ns"]))]
    elif a == "pareto":
        rules = [("front extremes ordered",
                  _ge(m["min_leak_deg_pct"], m["min_deg_pct"]) and
                  _ge(m["min_deg_leak_ua"], m["min_leak_ua"]))]
    elif a == "criticality":
        rules = [("probability in (0, 1]", 0 < m["max_prob"] <= 1)]
    elif a == "thermal":
        rules = [("positive temperature", m["temp_k"] > 0)]
    elif a == "st":
        rules = [("ST adds degradation",
                  _ge(m["st_total_pct"], m["st_logic_pct"]))]
    return [f"{where}: {name}" for name, ok in rules if not ok]
