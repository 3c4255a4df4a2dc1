"""Cross-checks between routes, failure accounting and margins.

Tolerances are the acceptance suites' own: exact equality for rational
routes, a relative 1e-9 for float routes, and 1e-7 between the approximate
witness solver and its exact reference.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

FLOAT_TOL = 1e-9
APPROX_TOL = 1e-7
MAX_REPORTED = 5


class Checker:
    """Collects check outcomes for the job in progress and margins for the run.

    A job fails when any of its checks disagrees or it raises.  Margins record
    how close the passing checks came to failing.
    """

    def __init__(self):
        self.job_failed = False
        self.job_name = ""
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.float_gap_over_tol = 0.0
        self.approx_gap_over_tol = 0.0
        self.game_bound_slack = 1.0
        self.cert_product_over_n = 0.0

    def _fail(self, message: str) -> None:
        self.job_failed = True
        if len(self.messages) < MAX_REPORTED:
            self.messages.append(f"{self.job_name}: {message}")

    def exact(self, what: str, got, want) -> None:
        if got != want:
            self._fail(f"{what}: {got!r} != {want!r}")

    def holds(self, what: str, condition: bool) -> None:
        if not condition:
            self._fail(f"{what}: does not hold")

    def close(self, what: str, got: float, want: float, tol: float = FLOAT_TOL) -> None:
        """Relative agreement within ``tol``; infinities must match exactly."""
        got, want = float(got), float(want)
        if math.isinf(got) or math.isinf(want):
            if got != want:
                self._fail(f"{what}: {got!r} vs {want!r}")
            return
        ratio = abs(got - want) / (tol * max(abs(got), abs(want), 1.0))
        if tol == APPROX_TOL:
            self.approx_gap_over_tol = max(self.approx_gap_over_tol, ratio)
        else:
            self.float_gap_over_tol = max(self.float_gap_over_tol, ratio)
        if not ratio <= 1.0:
            self._fail(f"{what}: {got!r} vs {want!r} beyond {tol:g}")

    def game_slack(self, bound: float, mean_cost: float) -> None:
        self.game_bound_slack = min(self.game_bound_slack, (bound - mean_cost) / bound)

    def cert_ratio(self, product, n_vars: int) -> None:
        self.cert_product_over_n = max(self.cert_product_over_n, float(product) / n_vars)

    def end_job(self, error: BaseException | None = None) -> bool:
        """Close the current job; returns whether it passed."""
        if error is not None:
            self._fail(f"unexpected {type(error).__name__}: {error}")
        failed = self.job_failed
        self.job_failed = False
        self.attempted += 1
        self.failed += failed
        return not failed

    def margins(self) -> dict:
        return {
            "margin.float_gap_over_tol_max": self.float_gap_over_tol,
            "margin.approx_gap_over_tol_max": self.approx_gap_over_tol,
            "margin.game_bound_slack_min": self.game_bound_slack,
            "margin.cert_product_over_n_max": self.cert_product_over_n,
        }

    def report(self, stream=sys.stderr) -> None:
        for message in self.messages:
            print(f"check failed: {message}", file=stream)


def self_test() -> None:
    """Feed the checker values that are wrong by a hair and require that each
    is counted as a failed job.  Raises AssertionError when a check is dead."""
    chk = Checker()
    chk.exact("exact", Fraction(1, 3) + Fraction(1, 10**12), Fraction(1, 3))
    chk.end_job()
    chk.close("float", 1.0 + 2 * FLOAT_TOL, 1.0)
    chk.end_job()
    chk.close("approx", 2.0 + 4 * APPROX_TOL, 2.0, APPROX_TOL)
    chk.end_job()
    chk.close("infinity", math.inf, 1e300)
    chk.end_job()
    chk.holds("holds", False)
    chk.end_job()
    chk.end_job(ZeroDivisionError("raised inside a job"))
    chk.close("float", 1.0 + FLOAT_TOL / 2, 1.0)
    chk.end_job()
    if (chk.attempted, chk.failed) != (7, 6):
        raise AssertionError(f"checker counted {chk.failed} of 6 planted failures")
