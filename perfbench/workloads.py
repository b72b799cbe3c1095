"""Workload definitions: the CLI calls each workload repeats, and the check
every call's outputs must pass.

A workload's calls are fixed by its seed. Every call is checked three ways:
its output files must be byte-identical to those of the first call with the
same arguments in the run; they must satisfy the invariants below; and for a
seed listed in ``references/`` the summarized values must match the stored
ones (decisions, memberships and counts exactly, floats within ``REL_TOL``).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import inputs

# Rounding allowance for reorganized arithmetic (ROADMAP): relative 1e-12.
REL_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

SURVEY_FLAGS = ("--with-const", "--instruments", "xinst,extra", "--cluster", "wave")
SURVEY_K = 3
ALPHAS = ("0.05", "0.1")
FUNCTIONALS = ("mean", "median", "mode")


@dataclass(frozen=True)
class Call:
    """One CLI invocation: a label, its argv and the files it writes."""

    label: str
    kind: str              # "test", "cset" or "simulate"
    argv: tuple
    outputs: tuple         # ((role, path), ...)
    expect: dict           # values the invariants compare against


@dataclass(frozen=True)
class Workload:
    """A workload's name and input sizes; BENCHMARK.json says why it exists."""

    name: str
    full: dict             # sizes of the benchmark proper
    tiny: dict             # sizes of the smoke run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survey-cset",
            full={"waves": 40, "wave_size": 500, "grid_m": 50},
            tiny={"waves": 4, "wave_size": 50, "grid_m": 5},
        ),
        Workload(
            "mc-size-coverage",
            full={"sample_size": 500, "replications": 1000, "draws": 1000},
            tiny={"sample_size": 200, "replications": 100, "draws": 20},
        ),
    )
}


def make_inputs(name: str, workdir: Path, seed: int, tiny: bool) -> dict:
    """Write the workload's input files; return {file name: sha256}."""
    if name != "survey-cset":
        return {}
    sizes = WORKLOADS[name].tiny if tiny else WORKLOADS[name].full
    path = workdir / "survey.csv"
    return {path.name: inputs.write_survey_csv(
        path, seed, waves=sizes["waves"], wave_size=sizes["wave_size"])}


def _survey_calls(workdir: Path, sizes: dict) -> list[Call]:
    rows = sizes["waves"] * sizes["wave_size"]
    source = ("--input", str(workdir / "survey.csv"), *SURVEY_FLAGS)
    calls = [
        Call(f"test-{f}", "test",
             ("test", *source, "--functional", f,
              "--out-json", str(workdir / f"test-{f}.json")),
             (("json", workdir / f"test-{f}.json"),),
             {"functional": f, "n_obs": rows})
        for f in FUNCTIONALS
    ]
    out = {role: workdir / f"cset.{role}" for role in ("json", "csv", "svg")}
    calls.append(Call(
        "cset", "cset",
        ("cset", *source, "--grid-m", str(sizes["grid_m"]), "--alpha", ",".join(ALPHAS),
         "--out-json", str(out["json"]), "--out-csv", str(out["csv"]),
         "--out-svg", str(out["svg"])),
        tuple(out.items()),
        {"resolution": sizes["grid_m"], "n_obs": rows},
    ))
    return calls


def _simulate_calls(workdir: Path, seed: int, sizes: dict) -> list[Call]:
    designs = {
        "size": ("--dgp", "ar-garch", "--instrument-set", "2"),
        "coverage": ("--dgp", "heteroskedastic", "--beta", "mean-mode",
                     "--draws", str(sizes["draws"])),
    }
    calls = []
    for experiment, flags in designs.items():
        out = workdir / f"{experiment}.json"
        calls.append(Call(
            f"simulate-{experiment}", "simulate",
            ("simulate", "--experiment", experiment, *flags, "--gamma", "0.5",
             "--sample-size", str(sizes["sample_size"]),
             "--replications", str(sizes["replications"]),
             "--seed", str(seed), "--out-json", str(out)),
            (("json", out),),
            {"kind": f"{experiment}_experiment", "seed": seed,
             "n_obs": sizes["sample_size"], "replications": sizes["replications"]},
        ))
    return calls


def make_calls(name: str, workdir: Path, seed: int, tiny: bool) -> list[Call]:
    """The cycle of CLI calls the workload repeats (inputs already written)."""
    sizes = WORKLOADS[name].tiny if tiny else WORKLOADS[name].full
    if name == "survey-cset":
        return _survey_calls(workdir, sizes)
    return _simulate_calls(workdir, seed, sizes)


def read_outputs(call: Call) -> dict:
    return {role: Path(path).read_bytes() for role, path in call.outputs}


# -- summaries: the values references store and invariants inspect ---------

def summarize(call: Call, files: dict) -> dict:
    doc = json.loads(files["json"])
    if call.kind == "test":
        keys = ("schema", "kind", "functional", "statistic", "df", "p_value",
                "bandwidth", "reject_at", "n_obs")
        return {k: doc.get(k) for k in keys}
    if call.kind == "simulate":
        return doc
    points, m = doc["points"], doc["resolution"]
    return {
        "schema": doc.get("schema"),
        "kind": doc.get("kind"),
        "resolution": doc["resolution"],
        "alpha_levels": doc["alpha_levels"],
        "bandwidth": doc["bandwidth"],
        "df": doc["df"],
        "n_obs": doc["n_obs"],
        "objective": [p["objective"] for p in points],
        "p_value": [p["p_value"] for p in points],
        "member": {a: "".join("1" if p["member"][a] else "0" for p in points)
                   for a in ALPHAS},
        "note": {str(i): p["note"] for i, p in enumerate(points) if p["note"] is not None},
        "grid_ok": all(p["index"] == list(ij) and p["theta"] == [ij[0] / m, ij[1] / m,
                                                                  (m - ij[0] - ij[1]) / m]
                       for p, ij in zip(points, _lattice(m))),
    }


def _lattice(m: int):
    return [(i, j) for i in range(m + 1) for j in range(m - i + 1)]


# -- invariants -------------------------------------------------------------

def _check_test(call: Call, s: dict) -> list[str]:
    bad = []
    if s["schema"] != 1 or s["kind"] != "rationality_test":
        bad.append(f"schema/kind {s['schema']!r}/{s['kind']!r}")
    if s["functional"] != call.expect["functional"]:
        bad.append(f"functional {s['functional']!r}")
    if s["df"] != SURVEY_K or s["n_obs"] != call.expect["n_obs"]:
        bad.append(f"df {s['df']!r}, n_obs {s['n_obs']!r}")
    stat, p = s["statistic"], s["p_value"]
    if not (isinstance(stat, float) and stat >= 0.0):
        bad.append(f"statistic {stat!r} is not >= 0")
    if not (isinstance(p, float) and 0.0 <= p <= 1.0):
        bad.append(f"p-value {p!r} outside [0, 1]")
    elif s["reject_at"] != {a: p < float(a) for a in ALPHAS}:
        bad.append(f"reject_at {s['reject_at']!r} disagrees with p = {p!r}")
    bw = s["bandwidth"]
    if call.expect["functional"] == "mode":
        if not (isinstance(bw, float) and bw > 0.0):
            bad.append(f"mode bandwidth {bw!r} is not positive")
    elif bw is not None:
        bad.append(f"bandwidth {bw!r} reported for a moment test")
    return bad


def _check_cset(call: Call, s: dict, files: dict) -> list[str]:
    bad = []
    m = call.expect["resolution"]
    n_points = (m + 1) * (m + 2) // 2
    if s["schema"] != 1 or s["kind"] != "confidence_set":
        bad.append(f"schema/kind {s['schema']!r}/{s['kind']!r}")
    if (s["resolution"], s["df"], s["n_obs"]) != (m, SURVEY_K, call.expect["n_obs"]):
        bad.append(f"resolution/df/n_obs {s['resolution']}/{s['df']}/{s['n_obs']}")
    if [f"{a:g}" for a in s["alpha_levels"]] != list(ALPHAS):
        bad.append(f"alpha levels {s['alpha_levels']!r}")
    if not (isinstance(s["bandwidth"], float) and s["bandwidth"] > 0.0):
        bad.append(f"bandwidth {s['bandwidth']!r}")
    if len(s["objective"]) != n_points:
        return bad + [f"{len(s['objective'])} grid points, expected {n_points}"]
    m95, m90 = s["member"]["0.05"], s["member"]["0.1"]
    if not s["grid_ok"]:
        bad.append("grid points are not the simplex lattice in (i, j) order")
    for i, (obj, p) in enumerate(zip(s["objective"], s["p_value"])):
        if obj is None:
            if str(i) not in s["note"] or m95[i] == "1" or m90[i] == "1":
                bad.append(f"point {i}: unscored without a note, or a member")
            continue
        if not (obj >= 0.0 and 0.0 <= p <= 1.0):
            bad.append(f"point {i}: objective {obj!r}, p-value {p!r}")
        if m90[i] == "1" and m95[i] != "1":
            bad.append(f"point {i}: in the 90% set but not the 95% set")
        for a, flags in (("0.05", m95), ("0.1", m90)):
            member, alpha = flags[i] == "1", float(a)
            if (member and p < alpha - 1e-9) or (not member and p > alpha + 1e-9):
                bad.append(f"point {i}: membership {member} at {a} with p = {p!r}")
        if len(bad) > 5:
            return bad
    rows = list(csv.reader(io.StringIO(files["csv"].decode("utf-8"))))
    if len(rows) != n_points + 1:
        bad.append(f"CSV has {len(rows) - 1} rows, expected {n_points}")
    else:
        for i, row in enumerate(rows[1:]):
            obj = s["objective"][i]
            if obj is not None and float(row[3]) != obj:
                bad.append(f"CSV row {i}: objective {row[3]} differs from the JSON")
                break
            if row[5:7] != [s["member"]["0.05"][i], s["member"]["0.1"][i]]:
                bad.append(f"CSV row {i}: memberships differ from the JSON")
                break
    svg = files["svg"].decode("utf-8")
    if svg.count("<circle ") != n_points:
        bad.append("SVG point count differs from the grid")
    if svg.count('fill="#000000"/>') != m90.count("1"):
        bad.append("SVG black points differ from the 90% set")
    return bad


def _check_simulate(call: Call, s: dict) -> list[str]:
    bad = []
    e = call.expect
    if s.get("schema") != 1 or s.get("kind") != e["kind"]:
        bad.append(f"schema/kind {s.get('schema')!r}/{s.get('kind')!r}")
    config = s.get("config", {})
    if (config.get("seed"), config.get("n_obs")) != (e["seed"], e["n_obs"]):
        bad.append(f"config {config!r}")
    if s.get("replications") != e["replications"]:
        bad.append(f"replications {s.get('replications')!r}")
    if s.get("successes") != s.get("replications") or s.get("failures") != {}:
        bad.append(f"successes {s.get('successes')!r} of {s.get('replications')!r}, "
                   f"failures {s.get('failures')!r}")
    rate = s.get("rate")
    if not (isinstance(rate, float) and 0.0 <= rate <= 1.0):
        bad.append(f"rate {rate!r}")
    elif abs(rate * s["successes"] - round(rate * s["successes"])) > 1e-6:
        bad.append(f"rate {rate!r} is not a count over {s['successes']} successes")
    if e["kind"] == "coverage_experiment":
        theta = s.get("details", {}).get("theta", [])
        if len(theta) != 3 or min(theta) < 0.0 or abs(sum(theta) - 1.0) > 1e-9:
            bad.append(f"implied theta {theta!r} is not on the simplex")
    return bad


def check_invariants(call: Call, summary: dict, files: dict) -> list[str]:
    if call.kind == "test":
        return _check_test(call, summary)
    if call.kind == "cset":
        return _check_cset(call, summary, files)
    return _check_simulate(call, summary)


# -- references --------------------------------------------------------------

def _p_tolerance(statistic) -> float:
    # p-values are derived from the statistic; the chi-square hazard is at most
    # about 1/2, so a relative change REL_TOL in S moves p by about S/2 * REL_TOL.
    return REL_TOL * max(1.0, statistic or 0.0)


def _close(ref, got, tol) -> bool:
    if ref is None or got is None:
        return ref is got
    return ref == got or abs(ref - got) <= tol * max(abs(ref), abs(got))


def compare(ref: dict, got: dict, path: str = "") -> list[str]:
    """Differences between a stored summary and a fresh one."""
    bad = []
    for key, r in ref.items():
        g = got.get(key)
        where = f"{path}{key}"
        if key == "p_value":
            stats = ref.get("objective", ref.get("statistic"))
            pairs = zip(r, g, stats) if isinstance(r, list) else [(r, g, stats)]
            if isinstance(r, list) and len(r) != len(g or []):
                bad.append(f"{where}: length {len(g or [])} != {len(r)}")
            elif not all(_close(a, b, _p_tolerance(st)) for a, b, st in pairs):
                bad.append(f"{where} differs beyond tolerance")
        elif isinstance(r, dict) and isinstance(g, dict):
            bad += compare(r, g, where + ".")
        elif isinstance(r, float) and isinstance(g, float):
            if not _close(r, g, REL_TOL):
                bad.append(f"{where}: {g!r} != {r!r}")
        elif isinstance(r, list) and r and isinstance(r[0], (float, type(None))):
            if len(r) != len(g or []) or not all(
                    _close(a, b, REL_TOL) for a, b in zip(r, g)):
                bad.append(f"{where} differs beyond tolerance")
        elif r != g:
            bad.append(f"{where}: {g!r} != {r!r}")
    return bad


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_references(name: str, seed: int, tiny: bool) -> dict | None:
    """{call label: summary} stored for this workload and seed, if any."""
    path = reference_path(name)
    if tiny or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))
