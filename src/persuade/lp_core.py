"""Small linear programs shared by the scheme modules.

Two entry points live here.  ``solve_lp`` solves the package's generic LPs,
which only the brute-force referees in ``exact_oracle`` build,
deterministically with HiGHS, calling the bindings scipy ships
(``scipy.optimize._highspy``) directly.
``solve_slope_lp`` solves the per-slope scheme LP in closed form: when every
segment shares one slope, trading receiver value for sender value happens at
a single fixed exchange rate, so the optimum is a one-dimensional shift from
the sender-optimal corner.  The closed form itself is ``_slope_lp``;
``slope_algorithm`` calls it directly with one row of the unique-event table
that serves its whole sweep, and ``solve_slope_lp`` with the event lists it
is given.

These LPs are tiny (one seed-1 benchmark round handed ``solve_lp`` 183 LPs
with 18 204 row entries on the independent workload while the relaxation
was still solved as an LP, and 59 with 9 768 on symmetric-corpus; 65 with
10 942 while the bicriteria fit still built one per run, as in the timings
below), so a solve is mostly fixed overhead,
and ``linprog``'s wrapper cost more than HiGHS's own run: one round's LPs
took 0.69-0.83 s through ``linprog(method="highs")`` and 0.2 s through the
bindings (2 CPUs, Python 3.11, scipy 1.17).  ``solve_lp`` passes HiGHS what
that call passed with its defaults (the same column-wise matrix, "<=" rows
before "=" rows; presolve on, dual simplex, no debugging, no output) and
keeps its status mapping and post-solve feasibility check, so it returns
the same bits.

The matrix is assembled row by row in plain Python: each row is checked in
turn and its nonzero entries appended to per-column lists, which are
HiGHS's column starts, row indices and values as they stand.  At these
sizes vectorised assembly buys nothing: replaying every LP of those two
rounds through ``solve_lp`` took 0.082-0.090 s on independent and
0.043-0.070 s on symmetric-corpus, against 0.102-0.113 s and 0.049-0.078 s
with numpy (medians of 15 replays in each of 3 processes; 2 CPUs), with
the same status, values and objective bit for bit.  So
``lp_core`` imports nothing else from the package and no numpy: the
standard library at import, scipy's HiGHS bindings at the first solve.

HiGHS (scipy) is imported on the first ``solve_lp`` call, not with the
package: importing scipy is most of a CLI call's start-up, and a command
that never solves a generic LP (every ``solve`` and ``simulate``; only
``exact`` and ``compare`` run a referee) skips it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .prob_oracle import SegmentProb, UniquePointProb

# The package's float tolerances, one per role.
# Slack on a persuasiveness, receiver-threshold or budget check.
CONSTRAINT_TOL = 1e-8
# A candidate (slope, subset LP) replaces the incumbent only when better by more.
GAIN_TOL = 1e-12
# Slack on `compare`'s check that a method's value is at least bound * optimum.
GUARANTEE_TOL = 1e-6
# The bicriteria fit runs at epsilon minus this, so the closed form's
# CONSTRAINT_TOL on the receiver deficit, at most k/(k-1)·CONSTRAINT_TOL of
# regret, stays inside epsilon.
BICRITERIA_MARGIN = 1e-5
# At or below this counts as zero: an optimum, a row weight.
ZERO_TOL = 1e-12
# At or below this counts as zero: a budget, a checked signal mass.
NEGLIGIBLE_TOL = 1e-15
# linprog's post-solve check: an optimal LP answer may leave a bound or a row by this.
SOLUTION_TOL = math.sqrt(1e-9) * 10

RowCoeffs = Union[Sequence[float], Mapping[int, float]]


@dataclass(frozen=True)
class LinearProgram:
    """A maximization LP: max objective @ x subject to rows and box bounds.

    Each row is a triple (coeffs, relation, rhs) with relation one of
    "<=", ">=", "=".  Coefficients may be a dense sequence or a sparse
    {index: value} mapping.  ``bounds`` holds one (low, high) box per
    variable, with None for an unbounded side; if omitted entirely, every
    variable defaults to [0, inf).
    """

    objective: tuple[float, ...]
    rows: tuple[tuple[RowCoeffs, str, float], ...]
    bounds: tuple[tuple[float | None, float | None], ...] | None = None


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal", "infeasible", or "unbounded"
    values: tuple[float, ...] | None
    objective: float | None


# relation -> (equality row, sign): a ">=" row enters as a "<=" row negated.
_RELATIONS = {"<=": (False, 1.0), ">=": (False, -1.0), "=": (True, 1.0)}


def _columns(rows, n_vars: int):
    """The rows as HiGHS's column-wise matrix with row bounds, as lists:
    (start, index, value, lower, upper).

    "<=" and ">=" rows come first, then "=" rows, each block in `rows` order;
    a row enters times its relation's sign, so the first block is bounded
    above only.  A column's entries are in row order, zero coefficients left
    out.  Each row is checked in turn (its relation, right-hand side and
    length, then each entry's index and value), so the error raised is the
    first malformed row's; row numbers count within a block.
    """
    # Per block (False: "<=" and ">=" rows, True: "=" rows): each column's
    # row numbers and values, and the rows' right-hand sides.
    index = {eq: [[] for _ in range(n_vars)] for eq in (False, True)}
    value = {eq: [[] for _ in range(n_vars)] for eq in (False, True)}
    rhs: dict[bool, list[float]] = {False: [], True: []}
    for coeffs, relation, b in rows:
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        eq, sign = _RELATIONS[relation]
        r, b = len(rhs[eq]), float(b)
        if not math.isfinite(b):
            raise ValueError(f"row {r} has a non-finite right-hand side")
        if isinstance(coeffs, Mapping):
            entries = coeffs.items()
        elif len(coeffs) == n_vars:
            entries = enumerate(coeffs)
        else:
            raise ValueError(f"row {r} has {len(coeffs)} coefficients, expected {n_vars}")
        for key, a in entries:
            try:
                j = operator.index(key)
            except TypeError:
                j = None
            if j is None or isinstance(key, bool):
                raise ValueError(f"row {r} references variable {key!r}, not an integer index")
            if not 0 <= j < n_vars:
                raise ValueError(f"row {r} references variable {j} out of range")
            a = float(a)
            if not math.isfinite(a):
                raise ValueError(f"row {r} has a non-finite coefficient")
            if a != 0.0:
                index[eq][j].append(r)
                value[eq][j].append(sign * a)
        rhs[eq].append(sign * b)

    n_ub = len(rhs[False])
    start, flat_index, flat_value = [0], [], []
    for j in range(n_vars):
        flat_index += index[False][j] + [n_ub + r for r in index[True][j]]
        flat_value += value[False][j] + value[True][j]
        start.append(len(flat_index))
    return start, flat_index, flat_value, [-math.inf] * n_ub + rhs[True], rhs[False] + rhs[True]


@cache
def _highs():
    """HiGHS's bindings and the options `linprog(method="highs")` passes by
    default, made on the first solve."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise ImportError(
            "solve_lp needs scipy>=1.15, whose HiGHS bindings are "
            "scipy.optimize._highspy"
        ) from exc
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = int(_core.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = False
    options.log_to_console = False
    return _core, options


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a small maximization LP deterministically.

    Returns an LpSolution whose status is "optimal", "infeasible", or
    "unbounded".  Values and objective are None unless optimal.  Any other
    outcome raises RuntimeError, as does an "optimal" answer that leaves a
    variable's bounds or a row by more than ``SOLUTION_TOL``.
    """
    n_vars = len(lp.objective)
    if n_vars == 0:
        raise ValueError("the LP has no variables")
    cost = [-float(c) for c in lp.objective]
    if not all(map(math.isfinite, cost)):
        raise ValueError("objective has a non-finite coefficient")
    start, index, value, row_lower, row_upper = _columns(lp.rows, n_vars)

    bounds = list(lp.bounds) if lp.bounds is not None else [(0.0, None)] * n_vars
    if len(bounds) != n_vars:
        raise ValueError(f"{len(bounds)} bounds given for {n_vars} variables")
    # None is an open side; a nan given as a bound is refused.
    col_lower = [-math.inf if low is None else float(low) for low, _ in bounds]
    col_upper = [math.inf if high is None else float(high) for _, high in bounds]
    for i, (low, high) in enumerate(zip(col_lower, col_upper)):
        if math.isnan(low) or math.isnan(high):
            side = "lower" if math.isnan(low) else "upper"
            raise ValueError(f"variable {i} has a nan {side} bound")

    core, options = _highs()
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n_vars
    model.num_row_ = model.a_matrix_.num_row_ = len(row_upper)
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value
    model.col_cost_ = cost
    model.col_lower_ = col_lower
    model.col_upper_ = col_upper
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    highs = core._Highs()
    highs.passOptions(options)
    if highs.passModel(model) == core.HighsStatus.kError:
        # With rows and objective checked, only an empty box (a lower bound
        # of +inf, an upper one of -inf) is refused; linprog calls it infeasible.
        return LpSolution("infeasible", None, None)
    ran = highs.run()
    status = highs.getModelStatus()
    if status == core.HighsModelStatus.kInfeasible:
        return LpSolution("infeasible", None, None)
    if status == core.HighsModelStatus.kUnbounded:
        return LpSolution("unbounded", None, None)
    if status != core.HighsModelStatus.kOptimal or ran == core.HighsStatus.kError:
        raise RuntimeError(f"LP solver failed: {highs.modelStatusToString(status)}")

    # linprog's post-solve check: each variable within its bounds, and per
    # row, b - A x (a "<=" row's slack, an "=" row's residual) within the
    # tolerance; a nan anywhere fails.
    solution = highs.getSolution()
    fun = highs.getInfo().objective_function_value
    inside = all(
        low - SOLUTION_TOL <= v <= high + SOLUTION_TOL
        for v, low, high in zip(solution.col_value, col_lower, col_upper)
    ) and all(
        (abs(high - v) if math.isfinite(low) else v - high) <= SOLUTION_TOL
        for v, low, high in zip(solution.row_value, row_lower, row_upper)
    )
    if math.isnan(fun) or not inside:
        raise RuntimeError(
            f"LP solver failed: the optimum leaves a bound or a row by more than {SOLUTION_TOL:.2e}"
        )
    return LpSolution("optimal", tuple(solution.col_value), -fun)


@dataclass(frozen=True)
class SlopeLpResult:
    """Solution of the per-slope scheme LP.

    ``alphas`` holds one weight per input segment, the probability of
    recommending the segment's low-rho endpoint (the one with higher xi).
    All entries are equal: segments of one slope trade at one rate, so any
    split achieving the same receiver value has the same sender value, and
    the uniform split is the canonical representative.
    """

    alphas: tuple[float, ...]
    u_sender: float
    u_receiver: float


def solve_slope_lp(
    segments: Sequence[SegmentProb],
    uniques: Sequence[UniquePointProb],
    rho_e: Fraction | float,
    s,
) -> SlopeLpResult | None:
    """Maximize sender utility at one candidate slope, or None if infeasible.

    The LP is: max sum p_ab (alpha xi_a + (1-alpha) xi_b) + sum p_c xi_c
    subject to the same expression in rho being at least rho_e and every
    alpha in [0,1].  Because every segment shares slope s, each unit of receiver
    value bought by lowering some alpha costs exactly |s| sender value.  So
    the optimum starts at alpha = 1 (all mass on the higher-xi endpoints)
    and shifts uniformly until the receiver constraint is tight.  The LP is
    infeasible exactly when even alpha = 0 everywhere leaves the receiver
    short by more than the tolerance.
    """
    for seg in segments:
        if seg.slope != s:
            raise ValueError(f"segment {seg.a.id}-{seg.b.id} has slope {seg.slope}, not {s}")
    for pt in uniques:
        if pt.s != s:
            raise ValueError(f"unique point {pt.c.id} was computed for slope {pt.s}, not {s}")

    xi, rho = [float(pt.c.xi) for pt in uniques], [float(pt.c.rho) for pt in uniques]
    return _slope_lp(segments, [pt.p for pt in uniques], xi, rho, float(rho_e), s)


def _slope_lp(
    segments: Sequence[SegmentProb], probs: Sequence[float | None], xi: Sequence[float],
    rho: Sequence[float], rho_e: float, s,
) -> SlopeLpResult | None:
    """The closed form of `solve_slope_lp`; ``probs[t]`` is the probability
    that the point (``xi[t]``, ``rho[t]``) alone is the tangency point, None
    when that cannot happen."""
    sender = sum(seg.p * float(seg.a.xi) for seg in segments)
    receiver = sum(seg.p * float(seg.a.rho) for seg in segments)
    sender += sum(p * x for p, x in zip(probs, xi) if p is not None)
    receiver += sum(p * r for p, r in zip(probs, rho) if p is not None)
    available = sum(seg.p * float(seg.b.rho - seg.a.rho) for seg in segments)
    deficit = rho_e - receiver
    if deficit <= CONSTRAINT_TOL:
        return SlopeLpResult((1.0,) * len(segments), sender, receiver)
    if deficit > available + CONSTRAINT_TOL:
        return None
    shift = min(1.0, deficit / available)  # fraction of the available receiver gain
    return SlopeLpResult(
        alphas=(1.0 - shift,) * len(segments),
        u_sender=sender + float(s) * shift * available,
        u_receiver=receiver + shift * available,
    )
