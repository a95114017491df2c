"""Small linear programs shared by the scheme modules.

Two entry points live here.  ``solve_lp`` is a thin, deterministic wrapper
around scipy's HiGHS backend for the handful of generic LPs in the package
(the brute-force scheme oracle, the relaxation LPs, the bicriteria LP).
``solve_slope_lp`` solves the per-slope scheme LP in closed form: when every
segment shares one slope, trading receiver value for sender value happens at
a single fixed exchange rate, so the optimum is a one-dimensional shift from
the sender-optimal corner.  The closed form itself is ``_slope_lp``;
``slope_algorithm`` calls it directly with one row of the unique-event table
that serves its whole sweep, and ``solve_slope_lp`` with the event lists it
is given.

HiGHS (scipy) is imported on the first ``solve_lp`` call, not with the
package: importing scipy is most of a CLI call's start-up, and a command
that never solves a generic LP (a slope ``solve``, ``simulate``) skips it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Mapping, Sequence, Union

import numpy as np

from .prob_oracle import SegmentProb, UniquePointProb

# The package's float tolerances, one per role.
# Slack on a persuasiveness, receiver-threshold or budget check.
CONSTRAINT_TOL = 1e-8
# A candidate (slope, subset LP) replaces the incumbent only when better by more.
GAIN_TOL = 1e-12
# Slack on `compare`'s check that a method's value is at least bound * optimum.
GUARANTEE_TOL = 1e-6
# A recommendation row's weights must sum to 1 within this.
ROW_SUM_TOL = 1e-6
# The bicriteria LP runs at epsilon minus this, so HiGHS's own slack stays inside it.
BICRITERIA_MARGIN = 1e-5
# At or below this counts as zero: an optimum, a row weight, a bicriteria signal mass.
ZERO_TOL = 1e-12
# At or below this counts as zero: a budget, a checked signal mass, a normalised weight.
NEGLIGIBLE_TOL = 1e-15

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


# relation -> (block, sign): a ">=" row enters the "<=" block negated.
_RELATIONS = {"<=": ("ub", 1.0), ">=": ("ub", -1.0), "=": ("eq", 1.0)}


def _blocks(rows, n_vars: int):
    """{block: (matrix, right-hand sides)} for the "ub" and "eq" blocks, each
    row times its relation's sign, zero coefficients left out; (None, None)
    for a block without rows.

    All coefficients are checked at once, but the error raised is the one a
    row-by-row check would meet first, in `rows` order; row numbers count
    within a block.
    """
    from scipy import sparse

    keys, values, lengths, blocks, signs, numbers = [], [], [], [], [], []
    rhs: dict[str, list[float]] = {"ub": [], "eq": []}
    refused = None  # the first row refused before its coefficients are read
    for coeffs, relation, value in rows:
        value = float(value)
        if relation not in _RELATIONS:
            refused = f"unknown relation {relation!r}"
            break
        block, sign = _RELATIONS[relation]
        if isinstance(coeffs, Mapping):
            keys.append(coeffs.keys())
            values.append(coeffs.values())
        elif len(coeffs) != n_vars:
            refused = f"row {len(rhs[block])} has {len(coeffs)} coefficients, expected {n_vars}"
            break
        else:
            keys.append(range(n_vars))
            values.append(coeffs)
        lengths.append(len(coeffs))
        blocks.append(block)
        signs.append(sign)
        numbers.append(len(rhs[block]))
        rhs[block].append(sign * value)

    total = sum(lengths)
    cols = np.fromiter(chain.from_iterable(keys), dtype=np.int64, count=total)
    vals = np.fromiter(chain.from_iterable(values), dtype=float, count=total)
    row_of = np.repeat(np.arange(len(lengths)), lengths)
    outside = (cols < 0) | (cols >= n_vars)
    bad = outside | ~np.isfinite(vals)
    if bad.any():
        e = int(bad.argmax())
        r = numbers[row_of[e]]
        if outside[e]:
            raise ValueError(f"row {r} references variable {cols[e]} out of range")
        raise ValueError(f"row {r} has a non-finite coefficient")
    if refused is not None:
        raise ValueError(refused)

    vals *= np.asarray(signs)[row_of]
    entry_block = np.asarray(blocks)[row_of]
    entry_row = np.asarray(numbers, dtype=np.int64)[row_of]
    out = {}
    for block in ("ub", "eq"):
        if not rhs[block]:
            out[block] = (None, None)
            continue
        kept = (entry_block == block) & (vals != 0.0)
        matrix = sparse.csr_matrix(
            (vals[kept], (entry_row[kept], cols[kept])), shape=(len(rhs[block]), n_vars)
        )
        out[block] = (matrix, np.asarray(rhs[block]))
    return out


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a small maximization LP deterministically.

    Returns an LpSolution whose status is "optimal", "infeasible", or
    "unbounded".  Values and objective are None unless optimal.
    """
    from scipy.optimize import linprog

    n_vars = len(lp.objective)
    objective = np.asarray(lp.objective, dtype=float)
    if not np.all(np.isfinite(objective)):
        raise ValueError("objective has a non-finite coefficient")
    blocks = _blocks(lp.rows, n_vars)

    bounds = list(lp.bounds) if lp.bounds is not None else [(0.0, None)] * n_vars
    if len(bounds) != n_vars:
        raise ValueError(f"{len(bounds)} bounds given for {n_vars} variables")

    (a_ub, b_ub), (a_eq, b_eq) = blocks["ub"], blocks["eq"]
    result = linprog(
        -objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if result.status == 0:
        return LpSolution("optimal", tuple(float(v) for v in result.x), -float(result.fun))
    if result.status == 2:
        return LpSolution("infeasible", None, None)
    if result.status == 3:
        return LpSolution("unbounded", None, None)
    raise RuntimeError(f"LP solver failed: {result.message}")


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
