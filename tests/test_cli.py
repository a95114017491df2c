"""Command line surface: schemas, exit codes, reproducibility."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import persuade as P
from persuade.cli import main


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    runner = CliRunner()
    res = runner.invoke(main, ["fixtures", "--output", str(out)])
    assert res.exit_code == 0, res.output
    return out


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_fixtures_command_writes_catalog(fixture_dir):
    names = {p.name for p in fixture_dir.iterdir()}
    assert names == {f"{n}.json" for n in P.fixture_names()}
    blob = json.loads((fixture_dir / "tug_of_war.json").read_text())
    assert blob["kind"] == "d_random_order"


def test_solve_slope_schema_and_reproducibility(fixture_dir):
    args = ["solve", "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "3"]
    first = invoke(*args)
    second = invoke(*args)
    assert first.exit_code == 0, first.output
    assert first.output == second.output
    blob = json.loads(first.output)
    assert set(blob) == {"method", "s_star", "alpha", "u_sender", "u_receiver"}
    assert blob["method"] == "slope"
    assert blob["s_star"] == -1
    assert blob["u_sender"] == pytest.approx(2 / 3, abs=1e-9)
    assert blob["alpha"] == [
        {"a": "sender_pick", "alpha": pytest.approx(2 / 3), "b": "receiver_pick"}
    ]
    # Keys are emitted in sorted order and the file ends with a newline.
    assert first.output.endswith("\n")
    assert list(blob) == sorted(blob)


def test_solve_writes_output_file(fixture_dir, tmp_path):
    target = tmp_path / "scheme.json"
    res = invoke(
        "solve",
        "--instance",
        str(fixture_dir / "tug_of_war.json"),
        "--k",
        "2",
        "--output",
        str(target),
    )
    assert res.exit_code == 0, res.output
    blob = json.loads(target.read_text())
    assert blob["method"] == "slope"
    assert blob["s_star"] == -1


def test_solve_refuses_uncertified_greedy(fixture_dir):
    res = invoke(
        "solve", "--instance", str(fixture_dir / "fallback_trap.json"), "--k", "2",
        "--method", "greedy",
    )
    assert res.exit_code == 3
    assert "--force" in res.output
    forced = invoke(
        "solve", "--instance", str(fixture_dir / "fallback_trap.json"), "--k", "2",
        "--method", "greedy", "--force",
    )
    assert forced.exit_code == 0, forced.output
    blob = json.loads(forced.output)
    assert blob["warning"] == "persuasiveness not guaranteed"
    assert blob["method"] == "independent"
    assert set(blob) == {"method", "order", "accept", "fallback", "u_sender_lb", "warning"}


def test_certified_independent_scheme_has_no_warning(fixture_dir, tmp_path):
    import numpy as np

    from corpus import random_best_fixed_deterministic

    inst = random_best_fixed_deterministic(np.random.default_rng(12), 4)
    path = tmp_path / "inst.json"
    P.save_instance(inst, path)
    res = invoke("solve", "--instance", str(path), "--k", "2", "--method", "greedy")
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert set(blob) == {"method", "order", "accept", "fallback", "u_sender_lb"}


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--k", "2"),
        ("solve", "--instance", "nope.json", "--k", "2"),
        ("solve", "--instance", "IGNORED", "--k", "not_an_int"),
        ("solve", "--instance", "IGNORED", "--k", "2", "--threads", "2"),
        ("solve", "--instance", "IGNORED", "--k", "2", "--bogus", "1"),
        ("solve", "--instance", "IGNORED", "--k"),
        ("bogus",),
        ("solve", "--instance", "IGNORED", "--k", "4"),
        ("solve", "--instance", "COINS", "--k", "2", "--method", "fptas", "--epsilon", "1e-6",
         "--force"),
    ],
)
def test_validation_failures_exit_1(fixture_dir, args):
    paths = {
        "IGNORED": str(fixture_dir / "tug_of_war.json"),  # n=3
        "COINS": str(fixture_dir / "coins_k3.json"),
    }
    res = invoke(*(paths.get(a, a) for a in args))
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)  # reported, not a traceback
    assert "error:" in res.output


def test_solve_large_iid_instance(tmp_path):
    # C(1200, 600) overflows a float; the oracle never forms it.
    path = tmp_path / "iid.json"
    path.write_text(json.dumps({
        "kind": "iid",
        "n": 1200,
        "palette": [
            {"id": "hi", "rho": 1, "xi": "1/4", "q": "1/2"},
            {"id": "lo", "rho": 0, "xi": 1, "q": "1/2"},
        ],
    }))
    res = invoke("solve", "--instance", str(path), "--k", "600")
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert blob["u_receiver"] >= 0.5 - 1e-8  # rho_e: the palette's mean receiver utility


def test_help_exits_0():
    assert invoke("--help").exit_code == 0
    assert invoke("solve", "--help").exit_code == 0


def test_method_instance_mismatch_exits_1(fixture_dir):
    res = invoke(
        "solve", "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2",
        "--method", "greedy",
    )
    assert res.exit_code == 1
    res2 = invoke(
        "solve", "--instance", str(fixture_dir / "fallback_trap.json"), "--k", "2",
        "--method", "slope",
    )
    assert res2.exit_code == 1


def test_exact_command_schema(fixture_dir):
    res = invoke("exact", "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2")
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert set(blob) == {"method", "k", "u_sender", "persuasive", "signals"}
    assert blob["method"] == "exact"
    assert blob["persuasive"] is True
    assert blob["u_sender"] == pytest.approx(2 / 3, abs=1e-9)
    for payload in blob["signals"].values():
        assert set(payload) == {"probability", "obey", "best_deviation"}


def test_simulate_command_schema_and_determinism(fixture_dir):
    args = [
        "simulate", "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2",
        "--samples", "2000", "--seed", "5",
    ]
    first = invoke(*args)
    second = invoke(*args)
    assert first.exit_code == 0, first.output
    assert first.output == second.output
    blob = json.loads(first.output)
    assert set(blob) == {
        "method", "k", "seed", "samples", "sender_mean", "sender_stderr",
        "receiver_mean", "receiver_stderr", "signals",
    }
    assert blob["samples"] == 2000
    assert abs(blob["sender_mean"] - 2 / 3) < 0.05


GOLDEN = Path(__file__).parent / "golden"

# No bundled fixture is a prophet-secretary prior, so the golden test writes one.
PROPHET_SECRETARY_DOC = {"kind": "prophet_secretary", "dists": [
    [{"id": "a", "rho": "1/2", "xi": 1, "q": "1/2"}, {"id": "b", "rho": 1, "xi": 0, "q": "1/2"}],
    [{"id": "c", "rho": "3/4", "xi": "1/2", "q": "1/3"}, {"id": "d", "rho": 0, "xi": 1, "q": "2/3"}],
    [{"id": "e", "rho": "1/4", "xi": "3/4", "q": 1}],
    [{"id": "f", "rho": 1, "xi": "1/4", "q": "1/4"}, {"id": "g", "rho": "1/3", "xi": "1/3", "q": "3/4"}],
]}


@pytest.mark.parametrize("name, args", [
    ("ratio_iid", ["--k", "2"]),
    ("tight_random_order", ["--k", "2"]),
    ("prophet_secretary", ["--k", "2"]),
    ("coins_k3", ["--k", "2", "--method", "greedy", "--force"]),
])
def test_simulate_output_is_pinned_across_releases(fixture_dir, tmp_path, name, args):
    # Same seed, same report: the expected files hold the output of earlier
    # releases, so a change to sampling or execution order shows up here.
    path = fixture_dir / f"{name}.json"
    if name == "prophet_secretary":
        path = tmp_path / "prophet_secretary.json"
        path.write_text(json.dumps(PROPHET_SECRETARY_DOC))
    res = invoke("simulate", "--instance", str(path), *args, "--samples", "2000", "--seed", "3")
    assert res.exit_code == 0, res.output
    assert res.stdout == (GOLDEN / f"simulate_{name}.json").read_text()


# Rare high-value types make the choice of actions matter: at k=3 greedy and
# fptas keep actions (5, 7), reduce keeps (3, 7).
RARE_INDEPENDENT_DOC = {"kind": "independent", "actions": [
    [{"id": "t0", "rho": "1/3", "xi": 1, "q": 1}],
    [{"id": "t1", "rho": "7/12", "xi": "1/8", "q": 1}],
    [{"id": "t2", "rho": "1/2", "xi": "1/4", "q": 1}],
    [{"id": "t3", "rho": "1/6", "xi": "3/4", "q": "4/15"}, {"id": "t4", "rho": "2/3", "xi": 0, "q": "11/15"}],
    [{"id": "t5", "rho": "1/12", "xi": "1/4", "q": 1}],
    [{"id": "t6", "rho": "1/3", "xi": 0, "q": "10/11"}, {"id": "t7", "rho": 1, "xi": "1/2", "q": "1/11"}],
    [{"id": "t8", "rho": "1/2", "xi": "3/4", "q": 1}],
    [{"id": "t9", "rho": "7/12", "xi": "5/8", "q": "7/19"}, {"id": "t10", "rho": "1/6", "xi": "1/8", "q": "12/19"}],
]}


@pytest.mark.parametrize("method", [["greedy"], ["reduce"], ["fptas", "--epsilon", "0.1"]],
                         ids=["greedy", "reduce", "fptas"])
@pytest.mark.parametrize("name, extra", [("rare_independent", []), ("coins_k3", ["--force"])])
def test_solve_output_is_pinned_across_releases(fixture_dir, tmp_path, name, extra, method):
    # The expected files hold earlier releases' schemes, so a change to
    # action selection or to the relaxation's solution shows up here.
    path = fixture_dir / f"{name}.json"
    if name == "rare_independent":
        path = tmp_path / "rare_independent.json"
        path.write_text(json.dumps(RARE_INDEPENDENT_DOC))
    res = invoke("solve", "--instance", str(path), "--k", "3", "--method", *method, *extra)
    assert res.exit_code == 0, res.output
    assert res.stdout == (GOLDEN / f"solve_{name}_{method[0]}.json").read_text()


def test_compare_symmetric(fixture_dir):
    res = invoke(
        "compare", "--instance", str(fixture_dir / "tight_random_order.json"), "--k", "2"
    )
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert set(blob) == {"k", "u_exact", "methods"}
    assert set(blob["methods"]) == {"slope", "imitation"}
    slope = blob["methods"]["slope"]
    assert set(slope) == {"value", "ratio", "bound", "ok"}
    assert slope["ok"] is True and slope["bound"] == 1.0
    assert blob["methods"]["imitation"]["bound"] == pytest.approx(0.5)


def test_compare_independent(fixture_dir):
    res = invoke(
        "compare", "--instance", str(fixture_dir / "coins_k3.json"), "--k", "2",
        "--epsilon", "0.1", "--force",
    )
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert set(blob["methods"]) == {"greedy", "fptas", "reduce"}
    for row in blob["methods"].values():
        assert row["ok"] is True
