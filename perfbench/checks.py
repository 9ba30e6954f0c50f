"""Correctness checks on the CLI outputs, run outside the timed region.

Each check takes one command's exit code and stdout and returns an
``Outcome``: how many operations the output holds and one message per
operation that failed.  Operations are curve rows, ``msd`` rows, and
``threshold``/``simulate`` reports.  A command that exits non-zero or
prints a malformed table fails every operation it holds (at least one).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

#: Certification bound of the curve residuals (never loosened).
CERTIFICATION_TOL = 1e-8
#: Monte Carlo bound on ``|z|`` per ``msd`` row.
Z_BOUND = 3.0
#: Nodes per axis of the independent residual re-evaluation.
REEVAL_NODES = 2048

CURVE_COLUMNS = ["lambda", "rho", "residual", "branch_id", "l_over_r", "R_over_r"]
MSD_COLUMNS = ["protocol", "p", "r", "l", "analytic", "mc_mean", "mc_stderr",
               "n_samples", "z_score"]
SIMULATE_COLUMNS = ["step", "mean_r2", "meeting_fraction"]
THRESHOLD_KEYS = {"geometry", "w", "lambda_star", "rho0", "ratio_inf", "ratio_sup",
                  "nu_slope", "paper_value", "status", "branches"}
BRANCH_KEYS = {"branch_id", "ratio_inf", "ratio_sup"}


@dataclass
class Outcome:
    attempted: int
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _table(text: str, columns: list[str]) -> list[dict[str, str]]:
    """Rows of a CSV with exactly ``columns``; raises ValueError otherwise."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != columns:
        raise ValueError(f"header is not {','.join(columns)}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"line {n} has {len(cells)} cells")
        rows.append(dict(zip(columns, cells)))
    if not rows:
        raise ValueError("no data rows")
    return rows


def _broken(command: str, code: int, text: str, columns: list[str]):
    """Rows when the command exited 0 with a well-formed table, else an Outcome."""
    if code != 0:
        return Outcome(max(1, len(text.splitlines()) - 1),
                       [f"{command}: exit code {code}"])
    try:
        return _table(text, columns)
    except ValueError as exc:
        return Outcome(max(1, len(text.splitlines()) - 1), [f"{command}: {exc}"])


def _all_failed(outcome: Outcome) -> Outcome:
    """A whole-command failure counts against every operation it holds."""
    return Outcome(outcome.attempted, outcome.failures * outcome.attempted)


def check_curve(code: int, text: str, reevaluate) -> Outcome:
    """Curve rows: certified residuals within 1e-8, confirmed independently.

    ``reevaluate(rho, lam)`` returns the residual on a 2048-node grid; it
    is applied to the first, middle and last ``rho > 0`` rows.
    """
    rows = _broken("curve", code, text, CURVE_COLUMNS)
    if isinstance(rows, Outcome):
        return _all_failed(rows)
    bad: dict[int, str] = {}
    for i, row in enumerate(rows):
        res = float(row["residual"])
        if not abs(res) <= CERTIFICATION_TOL:
            bad[i] = f"curve row {i}: residual {res:.3e} > {CERTIFICATION_TOL:g}"
    interior = [i for i, row in enumerate(rows) if float(row["rho"]) > 0.0]
    if interior:
        for i in sorted({interior[0], interior[len(interior) // 2], interior[-1]}):
            rho, lam = float(rows[i]["rho"]), float(rows[i]["lambda"])
            res = float(reevaluate(rho, lam))
            if not abs(res) <= CERTIFICATION_TOL:
                bad.setdefault(i, f"curve row {i}: {REEVAL_NODES}-node residual "
                                  f"{res:.3e} > {CERTIFICATION_TOL:g}")
    return Outcome(len(rows), [bad[i] for i in sorted(bad)])


def check_threshold(code: int, text: str) -> Outcome:
    """The report parses and has exactly the documented keys."""
    if code != 0:
        return Outcome(1, [f"threshold: exit code {code}"])
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return Outcome(1, [f"threshold: not JSON ({exc})"])
    if not isinstance(report, dict) or set(report) != THRESHOLD_KEYS:
        return Outcome(1, ["threshold: keys differ from the documented ones"])
    if not all(isinstance(b, dict) and set(b) == BRANCH_KEYS for b in report["branches"]):
        return Outcome(1, ["threshold: branch keys differ from the documented ones"])
    if report["status"] not in ("consistent", "discrepant"):
        return Outcome(1, [f"threshold: unknown status {report['status']!r}"])
    return Outcome(1)


def check_msd(code: int, text: str) -> Outcome:
    """Every row's Monte Carlo mean within 3 standard errors of the law."""
    # msd exits 1 exactly when some |z| > 3, so its exit code is judged
    # after the rows, which say which operation failed.
    rows = _broken("msd", 0, text, MSD_COLUMNS)
    if isinstance(rows, Outcome):
        return _all_failed(rows)
    failures = []
    for row in rows:
        z = float(row["z_score"])
        if not abs(z) <= Z_BOUND:
            failures.append(f"msd {row['protocol']}: |z| = {abs(z):.2f} > {Z_BOUND:g}")
    if code != 0 and not failures:
        failures = [f"msd: exit code {code}"] * len(rows)
    return Outcome(len(rows), failures)


def msd_samples(text: str) -> int:
    """Monte Carlo samples an ``msd`` table reports, over all its rows."""
    return sum(int(row["n_samples"]) for row in _table(text, MSD_COLUMNS))


def check_simulate(code: int, text: str, r: float, steps: int) -> Outcome:
    """Step 0 holds ``r**2``; meeting fractions never decrease and lie in [0, 1]."""
    rows = _broken("simulate", code, text, SIMULATE_COLUMNS)
    if isinstance(rows, Outcome):
        return Outcome(1, rows.failures[:1])
    if [int(row["step"]) for row in rows] != list(range(steps + 1)):
        return Outcome(1, [f"simulate: steps are not 0..{steps}"])
    if float(rows[0]["mean_r2"]) != r * r:
        return Outcome(1, [f"simulate: step 0 mean_r2 {rows[0]['mean_r2']} != {r * r}"])
    frac = [float(row["meeting_fraction"]) for row in rows]
    if not all(0.0 <= f <= 1.0 for f in frac):
        return Outcome(1, ["simulate: meeting_fraction outside [0, 1]"])
    if any(b < a for a, b in zip(frac, frac[1:])):
        return Outcome(1, ["simulate: meeting_fraction decreases"])
    return Outcome(1)


def check_digest(command: str, digest: str, reference: str | None, attempted: int) -> Outcome:
    """A repeated run with the same inputs must print the same bytes."""
    if reference is None or digest == reference:
        return Outcome(attempted)
    return Outcome(attempted, [f"{command}: output differs from a run with the "
                               f"same inputs"] * attempted)


def gaps(curve_text: str, threshold_text: str) -> dict[str, float]:
    """Known disagreement of ``threshold`` with ``curve``, reported, not gated.

    ``lambda_star_gap`` compares the threshold's ``lambda_star`` with the
    curve's axis row; ``ratio_sup_gap`` the threshold's ``ratio_sup`` with
    the largest ``l_over_r`` in the curve.
    """
    rows = _table(curve_text, CURVE_COLUMNS)
    report = json.loads(threshold_text)
    axis = [float(r["lambda"]) for r in rows if float(r["rho"]) == 0.0]
    ratios = [float(r["l_over_r"]) for r in rows if r["l_over_r"]]
    out = {"lambda_star_gap": math.nan, "ratio_sup_gap": math.nan}
    if axis and report["lambda_star"] is not None:
        out["lambda_star_gap"] = abs(report["lambda_star"] - axis[-1])
    if ratios and report["ratio_sup"] is not None:
        out["ratio_sup_gap"] = abs(report["ratio_sup"] - max(ratios))
    return out
