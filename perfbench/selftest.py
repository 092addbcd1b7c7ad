"""Show that the benchmark's checks reject corrupted answers.

    python3 perfbench/selftest.py

For each kind of check, a true answer from lvfte must pass and a corrupted
copy must fail: a map with one label swapped, an event time shifted by
1e-3, and an equilibrium nudged by 1e-6.  Exits 1 if any check accepts a
corrupted answer or rejects a true one.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _case(name: str, true_fails, corrupt_fails) -> bool:
    ok = not true_fails and bool(corrupt_fails)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: true answer {true_fails or 'passes'}; "
          f"corrupted answer {corrupt_fails[:1] or 'passes'}")
    return ok


def map_case() -> bool:
    work = workloads.MapWorkload(0, 1.0, workloads.SMOOTH_INDICES)
    cells = {key: cell for key, cell, _ in work.round()}
    bad = copy.deepcopy(cells)
    key = next(k for k in bad if k[0] < k[1] and bad[k]["label"] == "UWins")
    bad[key]["label"] = "VWins"
    return _case("map-smooth label swap", ref.check_map_smooth(cells), ref.check_map_smooth(bad))


def census_case() -> bool:
    work = workloads.CensusWorkload(0)
    idx = next(i for i, s in enumerate(work.starts) if s[0] == "certified")
    _, _, u0, v0, t_end = work.starts[idx]
    verdict, _ = work._integrate(work.starts[idx])
    field = ref.competition_field(workloads.CERTIFIED)
    trajectory = ref.reference_trajectory(field, (u0, v0), t_end, "u")
    bad = copy.deepcopy(verdict)
    species, t_star = bad["events"][0]
    bad["events"][0] = (species, t_star + 1e-3)
    k = workloads.CERTIFIED
    return _case("census event time +1e-3",
                 ref.check_trajectory(verdict, trajectory, field, k),
                 ref.check_trajectory(bad, trajectory, field, k))


def equilibria_case() -> bool:
    import lvfte.cli

    out = ROOT / ".perfbench_out" / "selftest"
    try:
        code = lvfte.cli.main(["equilibria", "--config",
                               str(ROOT / "configs" / "equilibria_mixed_exponents.ini"),
                               "--out", str(out)])
        _, summary = ref.load_summary(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    listing = summary["results"]["equilibria"]
    k = workloads._floats(workloads._read_config(
        ROOT / "configs" / "equilibria_mixed_exponents.ini", ())["kinetics"])
    bad = copy.deepcopy(listing)
    interior = next(eq for eq in bad if eq["kind"] == "Interior")
    interior["u"] += 1e-6
    true_fails = ref.check_equilibria(listing, k) + ([f"exit {code}"] if code else [])
    return _case("equilibrium nudged by 1e-6", true_fails, ref.check_equilibria(bad, k))


def main() -> int:
    results = [map_case(), census_case(), equilibria_case()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
