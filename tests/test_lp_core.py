"""Generic LP wrapper and the closed-form single-slope solver."""

from __future__ import annotations

import ast
import sys
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import persuade as P
from persuade import exact_oracle, lp_core
from persuade.lp_core import (
    CONSTRAINT_TOL,
    LinearProgram,
    LpSolution,
    solve_lp,
    solve_slope_lp,
)
from persuade.model import ActionType, IIDInstance, all_types, n_slots
from persuade.prob_oracle import (
    SegmentProb,
    UniquePointProb,
    candidate_slopes,
    segment_probabilities,
    unique_probabilities,
)
from corpus import independent_corpus, relaxation_lp, symmetric_corpus


def test_solve_lp_simple_maximum():
    lp = LinearProgram(objective=(1.0,), rows=(((1.0,), "<=", 1.0),), bounds=((0.0, 2.0),))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective - 1.0) < 1e-9
    assert abs(sol.values[0] - 1.0) < 1e-9


def test_solve_lp_infeasible():
    lp = LinearProgram(objective=(1.0,), rows=(((1.0,), ">=", 2.0),), bounds=((0.0, 1.0),))
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.values is None
    assert sol.objective is None


def test_solve_lp_unbounded():
    lp = LinearProgram(objective=(1.0,), rows=(), bounds=((0.0, None),))
    assert solve_lp(lp).status == "unbounded"


def test_solve_lp_equality_and_mapping_rows():
    lp = LinearProgram(objective=(1.0, 2.0), rows=(({0: 1.0, 1: 1.0}, "=", 1.0),), bounds=None)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective - 2.0) < 1e-9
    assert abs(sol.values[1] - 1.0) < 1e-9


def test_solve_lp_two_variable_vertex():
    # max 3x + 2y s.t. x + y <= 4, x <= 2: optimum at (2, 2).
    lp = LinearProgram(
        objective=(3.0, 2.0),
        rows=(((1.0, 1.0), "<=", 4.0), ((1.0, 0.0), "<=", 2.0)),
        bounds=None,
    )
    sol = solve_lp(lp)
    assert abs(sol.objective - 10.0) < 1e-9
    assert abs(sol.values[0] - 2.0) < 1e-9 and abs(sol.values[1] - 2.0) < 1e-9


@pytest.mark.parametrize(
    "rows, message",
    [
        ((({0: 1.0}, "=", 1.0), ({1: 1.0, 2: 1.0}, "<=", 1.0)), "row 0 references variable 2 out of range"),
        ((({0: 1.0}, "<=", 1.0), ({-1: 1.0}, ">=", 0.0)), "row 1 references variable -1 out of range"),
        ((({0: 1.0}, "<=", 1.0), ((1.0, float("nan")), "<=", 1.0)), "row 1 has a non-finite coefficient"),
        ((({0: 1.0}, "=", 1.0), ((1.0,), "=", 1.0)), "row 1 has 1 coefficients, expected 2"),
        ((({0: 1.0}, "<", 1.0),), "unknown relation '<'"),
        ((({0: 1.0}, "<=", 1.0), ({1: 1.0}, ">=", float("nan"))), "row 1 has a non-finite right-hand side"),
        ((({0: 1.0, 1.5: 1.0}, "<=", 1.0),), "row 0 references variable 1.5, not an integer index"),
        ((({0: 1.0}, "=", 1.0), ({"1": 1.0}, "=", 1.0)), "row 1 references variable '1', not an integer index"),
        ((({True: 1.0}, ">=", 0.0),), "row 0 references variable True, not an integer index"),
    ],
)
def test_solve_lp_refuses_a_malformed_row(rows, message):
    # Row numbers count within a block: "<=" and ">=" rows, or "=" rows.
    with pytest.raises(ValueError) as refused:
        solve_lp(LinearProgram(objective=(1.0, 1.0), rows=rows, bounds=None))
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "rows, bounds, message",
    [
        ((({1: 1.0, 2: 1.0}, "<=", 1.0), ({0: 1.0}, "<", 1.0)), None, "row 0 references variable 2 out of range"),
        (
            (({0: 1.0}, "<=", 1.0), ({0: float("nan")}, "=", 0.0), ({-1: 1.0}, "<=", 0.0)),
            None,
            "row 0 has a non-finite coefficient",
        ),
        ((({0: float("inf")}, ">=", 1.0), ((1.0,), "<=", 1.0)), None, "row 0 has a non-finite coefficient"),
        ((((1.0,), "=", 1.0), ({0: 1.0}, "<", 1.0)), None, "row 0 has 1 coefficients, expected 2"),
        ((({0: 1.0}, "<", 1.0), ({5: 1.0}, "=", 1.0)), None, "unknown relation '<'"),
        ((({3: 1.0}, "=", 1.0),), ((0.0, 1.0),), "row 0 references variable 3 out of range"),
        (
            (({0: 1.0}, "<=", 1.0), ({0: 1.0, 1.0: 1.0}, "<=", 1.0), ({5: 1.0}, "=", 1.0)),
            None,
            "row 1 references variable 1.0, not an integer index",
        ),
    ],
)
def test_solve_lp_reports_the_first_malformed_row_in_row_order(rows, bounds, message):
    # Several errors: the one raised is the first a row-by-row check meets,
    # and every row is checked before the bounds.
    with pytest.raises(ValueError) as refused:
        solve_lp(LinearProgram(objective=(1.0, 1.0), rows=rows, bounds=bounds))
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "bounds, message",
    [
        (((0.0, 1.0), (float("nan"), float("nan"))), "variable 1 has a nan lower bound"),
        (((None, float("nan")), (0.0, None)), "variable 0 has a nan upper bound"),
    ],
)
def test_solve_lp_refuses_a_nan_bound(bounds, message):
    # None is an open side; a nan is a malformed bound, not a free variable.
    lp = LinearProgram(objective=(1.0, 1.0), rows=(((1.0, 1.0), "<=", 3.0),), bounds=bounds)
    with pytest.raises(ValueError) as refused:
        solve_lp(lp)
    assert str(refused.value) == message


def test_solve_lp_refuses_an_lp_without_variables():
    with pytest.raises(ValueError, match="no variables"):
        solve_lp(LinearProgram(objective=(), rows=(), bounds=None))


def linprog_answer(lp: LinearProgram) -> LpSolution:
    """What scipy's public `linprog(method="highs")` answers for `lp`, with
    dense matrices: ">=" rows negated into the "<=" block."""
    from scipy.optimize import linprog

    n = len(lp.objective)
    blocks = {"ub": ([], []), "eq": ([], [])}
    for coeffs, relation, value in lp.rows:
        dense = np.zeros(n)
        if isinstance(coeffs, Mapping):
            dense[list(coeffs)] = list(coeffs.values())
        else:
            dense[:] = coeffs
        sign = -1.0 if relation == ">=" else 1.0
        matrix, rhs = blocks["eq" if relation == "=" else "ub"]
        matrix.append(sign * dense)
        rhs.append(sign * value)
    (a_ub, b_ub), (a_eq, b_eq) = blocks["ub"], blocks["eq"]
    result = linprog(
        -np.asarray(lp.objective, dtype=float),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=b_eq or None,
        bounds=lp.bounds if lp.bounds is not None else (0, None),
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[result.status]
    if status != "optimal":
        return LpSolution(status, None, None)
    return LpSolution(status, tuple(float(v) for v in result.x), -float(result.fun))


def caller_lps(monkeypatch) -> list[LinearProgram]:
    """Every LP the package's callers of `solve_lp` build: the orbit referee
    on symmetric priors and the state-level referee on an independent prior
    with infeasible subsets, plus the relaxation LP that the tests keep as
    f_of_S's reference (``relaxation_lp``)."""
    lps: list[LinearProgram] = []

    def record(lp):
        lps.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(exact_oracle, "solve_lp", record)
    for inst in symmetric_corpus(count=6):
        for k in range(2, n_slots(inst) + 1):
            exact_oracle._orbit_lp(inst, k, 10**5)
    independent = independent_corpus(count=2)[1]
    n = n_slots(independent)
    exact_oracle._state_lp(independent, combinations(range(n), 2), 10**5)
    for inst in (independent, P.load_fixture("coins_k5")):
        everything = range(len(inst.actions))
        for S in ((), *combinations(everything, 1), everything):
            lps.append(relaxation_lp(inst, S))
    return lps


def test_solve_lp_returns_linprogs_bits_on_every_caller_lp(monkeypatch):
    # solve_lp calls HiGHS's bindings, which scipy keeps private; this pins
    # it to the public linprog: the same status, values and objective, bit
    # for bit.
    lps = caller_lps(monkeypatch)
    statuses = [solve_lp(lp).status for lp in lps]
    assert statuses.count("infeasible") >= 3 and len(lps) >= 30
    for lp in lps:
        assert solve_lp(lp) == linprog_answer(lp)


@pytest.mark.parametrize(
    "lp",
    [
        LinearProgram(objective=(1.0, -1.0), rows=(), bounds=((0.0, 2.0), (0.0, None))),
        LinearProgram(objective=(1.0, 0.5), rows=(((1.0, -1.0), ">=", -1.0),), bounds=None),
        LinearProgram(
            objective=(1.0, 2.0, 0.5),
            rows=(({0: 1.0, 1: 1.0}, "=", 1.0), ({0: 1.0, 1: -0.0, 2: 0.0}, "=", 0.25)),
            bounds=((0.0, 1.0), (0.0, 1.0), (None, 3.0)),
        ),
        LinearProgram(
            objective=(1.0, 2.0, 0.5, -1.0),
            rows=(({0: 1.0, 2: 2.0}, "<=", 1.0), ((0.0, 1.0, 0.0, 0.0), ">=", 0.5)),
            bounds=((0.0, 1.0),) * 4,
        ),
        LinearProgram(objective=(1.0,), rows=(((1.0,), "<=", 1.0),), bounds=((2.0, 3.0),)),
        LinearProgram(objective=(1.0,), rows=(), bounds=((float("inf"), None),)),
        LinearProgram(
            objective=(1.0, 2.0),
            rows=(({np.int64(0): 1.0, np.int32(1): 1.0}, "<=", 1.0),),
            bounds=((0.0, 1.0), (0.0, 1.0)),
        ),
    ],
    ids=[
        "no-rows", "unbounded", "equality-only", "column-in-no-row", "empty-box", "infinite-lower",
        "numpy-integer-indices",
    ],
)
def test_solve_lp_returns_linprogs_bits_on_edge_cases(lp):
    assert solve_lp(lp) == linprog_answer(lp)


def test_solve_lp_names_the_scipy_it_needs(monkeypatch):
    lp_core._highs.cache_clear()
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    try:
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            solve_lp(LinearProgram(objective=(1.0,), rows=(), bounds=((0.0, 1.0),)))
    finally:
        lp_core._highs.cache_clear()


def module_level_imports(body):
    """The modules a module body imports as it runs, `if TYPE_CHECKING:`
    blocks left out."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.If) and ast.unparse(node.test) != "TYPE_CHECKING":
            yield from module_level_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [line for handler in node.handlers for line in handler.body]
            yield from module_level_imports(node.body + handlers + node.orelse + node.finalbody)


def test_lp_core_imports_no_numpy_and_no_other_package_module():
    # lp_core is a leaf: the standard library at import, scipy's HiGHS
    # bindings at the first solve, package types in annotations only.
    tree = ast.parse(Path(lp_core.__file__).read_text())
    imported = list(module_level_imports(tree.body))
    assert "math" in imported
    assert [m for m in imported if m.startswith((".", "persuade"))] == []
    everywhere = [
        alias.name if isinstance(node, ast.Import) else node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [m for m in everywhere if m.split(".")[0] == "numpy"] == []


def tug_inputs(k: int, s):
    inst = P.load_fixture("tug_of_war")
    segs = [seg for seg in segment_probabilities(inst, k) if seg.slope == s and seg.p > 0]
    uniq = unique_probabilities(inst, k, s)
    return segs, uniq


def test_slope_lp_frozen_running_example():
    rho_e = Fraction(1, 3)
    segs, uniq = tug_inputs(2, Fraction(-1))
    res = solve_slope_lp(segs, uniq, rho_e, Fraction(-1))
    assert res is not None
    assert res.alphas == (1.0,)
    assert abs(res.u_sender - 2 / 3) < 1e-12
    assert abs(res.u_receiver - 1 / 3) < 1e-12

    segs3, uniq3 = tug_inputs(3, Fraction(-1))
    res3 = solve_slope_lp(segs3, uniq3, rho_e, Fraction(-1))
    assert res3 is not None
    assert abs(res3.alphas[0] - 2 / 3) < 1e-12
    assert abs(res3.u_sender - 2 / 3) < 1e-12
    assert abs(res3.u_receiver - 1 / 3) < 1e-12


def test_slope_lp_infeasible_slope_returns_none():
    a = ActionType("a", Fraction(0), Fraction(1))
    b = ActionType("b", Fraction(1), Fraction(0))
    inst = IIDInstance(palette=((a, Fraction(1, 2)), (b, Fraction(1, 2))), n=2)
    rho_e = P.best_fixed_action_value(inst)
    assert rho_e == Fraction(1, 2)
    uniq = unique_probabilities(inst, 2, Fraction(0))
    assert solve_slope_lp([], uniq, rho_e, Fraction(0)) is None


def test_slope_lp_rejects_mismatched_inputs():
    a = ActionType("a", Fraction(0), Fraction(1))
    b = ActionType("b", Fraction(1), Fraction(0))
    seg = SegmentProb(a=a, b=b, slope=Fraction(-1), p=1.0)
    with pytest.raises(ValueError, match="slope"):
        solve_slope_lp([seg], [], Fraction(1, 2), Fraction(-2))
    pt = UniquePointProb(c=a, s=Fraction(-1), p=1.0)
    with pytest.raises(ValueError, match="slope"):
        solve_slope_lp([], [pt], Fraction(1, 2), Fraction(-2))


def random_slope_inputs(rng):
    """Synthetic same-slope segment and unique tables with total mass 1."""
    s = -Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    n_seg = int(rng.integers(1, 4))
    n_un = int(rng.integers(0, 3))
    raw = rng.random(n_seg + n_un)
    mass = raw / raw.sum()
    segments = []
    for j in range(n_seg):
        rho_a = Fraction(int(rng.integers(0, 5)), 8)
        width = Fraction(int(rng.integers(1, 9)), 8)
        xi_a = Fraction(int(rng.integers(4, 17)), 8)
        a = ActionType(f"a{j}", rho_a, xi_a)
        b = ActionType(f"b{j}", rho_a + width, xi_a + s * width)
        segments.append(SegmentProb(a=a, b=b, slope=s, p=float(mass[j])))
    uniques = []
    for j in range(n_un):
        c = ActionType(
            f"c{j}", Fraction(int(rng.integers(0, 9)), 8), Fraction(int(rng.integers(0, 9)), 8)
        )
        uniques.append(UniquePointProb(c=c, s=s, p=float(mass[n_seg + j])))
    return segments, uniques, s


def test_slope_lp_matches_explicit_lp():
    rng = np.random.default_rng(8)
    agree = 0
    for _ in range(200):
        segments, uniques, s = random_slope_inputs(rng)
        rho_e = float(rng.random()) * 1.2
        closed = solve_slope_lp(segments, uniques, rho_e, s)

        const_sender = sum(seg.p * float(seg.b.xi) for seg in segments)
        const_sender += sum(pt.p * float(pt.c.xi) for pt in uniques)
        const_receiver = sum(seg.p * float(seg.b.rho) for seg in segments)
        const_receiver += sum(pt.p * float(pt.c.rho) for pt in uniques)
        objective = tuple(seg.p * float(seg.a.xi - seg.b.xi) for seg in segments)
        row = tuple(seg.p * float(seg.a.rho - seg.b.rho) for seg in segments)
        lp = LinearProgram(
            objective=objective,
            rows=((row, ">=", rho_e - const_receiver),),
            bounds=tuple((0.0, 1.0) for _ in segments),
        )
        sol = solve_lp(lp)
        if closed is None:
            # The closed form applies a small feasibility tolerance, so only
            # clearly infeasible LPs must agree.
            if sol.status == "optimal":
                slack = const_receiver + sum(
                    r * v for r, v in zip(row, sol.values)
                ) - rho_e
                assert slack < 0 or abs(slack) < 10 * CONSTRAINT_TOL
            else:
                assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert abs((sol.objective + const_sender) - closed.u_sender) < 1e-7
            agree += 1
    assert agree > 100


def test_slope_lp_tolerance_band():
    # A deficit within the constraint tolerance keeps alpha at 1.
    a = ActionType("a", Fraction(0), Fraction(1))
    b = ActionType("b", Fraction(1), Fraction(0))
    seg = SegmentProb(a=a, b=b, slope=Fraction(-1), p=1.0)
    res = solve_slope_lp([seg], [], CONSTRAINT_TOL / 2, Fraction(-1))
    assert res is not None and res.alphas == (1.0,)
    assert res.u_sender == 1.0
