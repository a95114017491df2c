"""Command line surface: schemas, exit codes, reproducibility."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import persuade as P
from persuade.cli import main
from corpus import PROPHET_SECRETARY_DOC


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
        ("solve", "--instance", "N_TRUE", "--k", "2"),
    ],
)
def test_validation_failures_exit_1(fixture_dir, tmp_path, args):
    n_true = tmp_path / "n_true.json"  # a JSON boolean is not a slot count
    n_true.write_text(json.dumps({"kind": "iid", "n": True, "palette": [
        {"id": "a", "rho": 0, "xi": 1, "q": 1},
    ]}))
    paths = {
        "IGNORED": str(fixture_dir / "tug_of_war.json"),  # n=3
        "COINS": str(fixture_dir / "coins_k3.json"),
        "N_TRUE": str(n_true),
    }
    res = invoke(*(paths.get(a, a) for a in args))
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)  # reported, not a traceback
    assert "error:" in res.output
    if "N_TRUE" in args:  # rejected as a document, not read as n = 1
        assert "'n' must be an integer" in res.output


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


def test_exact_refusal_prints_a_count_past_the_int_string_limit(tmp_path):
    # 3000! orderings has over 9000 digits, past what int-to-str will print.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"kind": "prophet_secretary", "dists": [
        [{"id": f"t{i}", "rho": f"{i % 7}/7", "xi": f"{i % 5}/5", "q": 1}] for i in range(3000)
    ]}))
    res = invoke("exact", "--instance", str(path), "--k", "2", "--state-bound", str(10**12))
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "10^9130" in lines[0] and str(10**12) in lines[0]


def test_memory_error_exits_1(fixture_dir, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setattr("persuade.cli.slope_algorithm", exhausted)
    res = invoke("solve", "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2")
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [
        "error: out of memory on this instance: Unable to allocate 7.45 GiB"
    ]


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


def test_reduce_keeps_the_rare_pair_of_rare_independent():
    # The fixture's purpose: at k = 3 reduce keeps actions 3 and 7.  The
    # full relaxation's budget runs out where action 3's piece ties with the
    # designated action 1's at slope 1/8; the tie rule gives the rest to
    # action 3, whose contribution then ranks second, above action 5's.
    inst = P.instance_from_dict(RARE_INDEPENDENT_DOC)
    assert P.actions_reduce(inst, 3) == (3, 7)


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


COMPARE_CASES = [
    (name, k, extra)
    for name in P.fixture_names()
    for k in (2, 3) if k <= P.model.n_slots(P.load_fixture(name))
    for extra in ([], ["--epsilon", "0.1", "--samples", "500", "--force"])
]


@pytest.mark.parametrize("name, k, extra", COMPARE_CASES,
                         ids=[f"{n}-k{k}-{'forced' if e else 'plain'}" for n, k, e in COMPARE_CASES])
def test_compare_output_is_pinned_across_releases(fixture_dir, name, k, extra):
    # Every bundled fixture, plain and forced with bicriteria/fptas included:
    # exit 0, exit 3 (coins without --force) and exit 2 (fallback_trap forced).
    expected = json.loads((GOLDEN / "compare.json").read_text())[
        " ".join([name, "--k", str(k), *extra])
    ]
    res = invoke("compare", "--instance", str(fixture_dir / f"{name}.json"), "--k", str(k), *extra)
    assert [res.stdout, res.stderr, res.exit_code] == [
        expected["stdout"], expected["stderr"], expected["exit"]
    ]


NEGATIVE_TYPES = [{"id": "a", "rho": 1, "xi": -1, "q": "1/2"},
                  {"id": "b", "rho": 0, "xi": "-1/10", "q": "1/2"}]


@pytest.mark.parametrize("doc, extra", [
    ({"kind": "iid", "n": 4, "palette": NEGATIVE_TYPES}, []),
    ({"kind": "independent", "actions": [NEGATIVE_TYPES] * 3}, ["--epsilon", "0.1", "--force"]),
], ids=["iid", "independent"])
def test_compare_checks_no_ratio_bound_on_negative_sender_utilities(tmp_path, doc, extra):
    # Every method here is optimal, but a share below 1 of a negative optimum
    # asks for more than the optimum; only slope's exact bound is checked.
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    res = invoke("compare", "--instance", str(path), "--k", "2", *extra)
    assert res.exit_code == 0, res.output
    blob = json.loads(res.stdout)
    assert blob["u_exact"] < 0
    assert set(blob["methods"]) == ({"slope", "imitation"} if doc["kind"] == "iid"
                                    else {"greedy", "reduce", "fptas"})
    for name, row in blob["methods"].items():
        assert row["ratio"] == pytest.approx(1.0)
        assert (row["bound"], row["ok"]) == ((1.0 if name == "slope" else None), True)


def test_compare_with_epsilon_needs_samples_on_a_symmetric_instance(fixture_dir):
    res = invoke("compare", "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2",
                 "--epsilon", "0.1")
    assert one_error_line(res) == "error: missing required option --samples"
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "forced"])
def test_fptas_without_epsilon_is_a_missing_option(fixture_dir, command, force):
    # coins_k3 is not certified: the missing option is reported before the
    # persuasiveness refusal, in the words bicriteria uses.
    res = invoke(command, "--instance", str(fixture_dir / "coins_k3.json"), "--k", "2",
                 "--method", "fptas", "--samples", "10", *force)
    assert one_error_line(res) == "error: missing required option --epsilon"
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["exact", "compare"])
def test_exact_enumeration_refuses_a_huge_instance_from_its_logarithm(tmp_path, command):
    # 2^(10^12) raw states: the exact count alone would take over 100 GB.
    path = tmp_path / "huge_iid.json"
    path.write_text(json.dumps({"kind": "iid", "n": 10**12, "palette": NEGATIVE_TYPES}))
    res = invoke(command, "--instance", str(path), "--k", "2")
    assert one_error_line(res) == (
        "error: exact enumeration would visit about 10^301029995664.0 combinations, "
        "over the bound of 100000"
    )


def one_error_line(res) -> str:
    """The single stderr line of a reported failure (exit 1, no traceback)."""
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    return lines[0]


@pytest.mark.parametrize("command, extra", [
    ("solve", []), ("simulate", ["--samples", "10"]), ("compare", []),
])
def test_unwritable_output_is_one_error_line(fixture_dir, tmp_path, command, extra):
    target = tmp_path / "missing" / "x.json"
    res = invoke(command, "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2",
                 *extra, "--output", str(target))
    assert one_error_line(res).startswith(f"error: cannot write {target}: ")
    assert res.stdout == ""


def test_fixtures_onto_an_existing_file_is_one_error_line(tmp_path):
    target = tmp_path / "taken"
    target.write_text("keep")
    res = invoke("fixtures", "--output", str(target))
    assert one_error_line(res).startswith(f"error: cannot write {target}: ")
    assert target.read_text() == "keep"


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_bicriteria_rejects_a_non_finite_epsilon(fixture_dir, epsilon):
    res = invoke("solve", "--instance", str(fixture_dir / "ratio_iid.json"), "--k", "2",
                 "--method", "bicriteria", "--epsilon", epsilon, "--samples", "10")
    assert "epsilon" in one_error_line(res)


def test_simulate_refuses_states_past_the_sampler_limit(tmp_path):
    # One drawn state of n = 10^9 slots would take gigabytes; the sampler
    # refuses before building any array of that length.
    path = tmp_path / "huge_iid.json"
    path.write_text(json.dumps({"kind": "iid", "n": 10**9, "palette": [
        {"id": "hi", "rho": 1, "xi": "1/4", "q": "1/2"},
        {"id": "lo", "rho": 0, "xi": 1, "q": "1/2"},
    ]}))
    res = invoke("simulate", "--instance", str(path), "--k", "2", "--samples", "1")
    line = one_error_line(res)
    assert str(10**9) in line and str(P.model.SAMPLER_MAX_SLOTS) in line
    # The limit counts the slots a draw holds: bicriteria draws only k of them.
    res = invoke("solve", "--instance", str(path), "--k", "2", "--method", "bicriteria",
                 "--epsilon", "0.1", "--samples", "20")
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("command, extra", [
    ("simulate", []),
    ("solve", ["--method", "bicriteria", "--epsilon", "0.1"]),
])
def test_a_sample_count_past_the_limit_is_refused_before_drawing(fixture_dir, command, extra):
    # Drawing 10^8 + 1 states would take the better part of an hour.
    over = P.model.SAMPLER_MAX_SAMPLES + 1
    res = invoke(command, "--instance", str(fixture_dir / "ratio_iid.json"), "--k", "2",
                 "--samples", str(over), *extra)
    line = one_error_line(res)
    assert str(over) in line and str(P.model.SAMPLER_MAX_SAMPLES) in line


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with these arguments on this checkout's package."""
    env = dict(os.environ)
    src = str(Path(P.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def scipy_loaded_after(code: str) -> bool:
    """Run code in a fresh interpreter; whether scipy is imported afterwards.

    A fresh process, because other tests load scipy into this one.
    """
    run = run_fresh("-c", code + "\nimport sys\nprint('scipy' in sys.modules)")
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ["persuade", "persuade.cli"])
def test_importing_the_package_loads_no_scipy(module):
    assert not scipy_loaded_after(f"import {module}")


RUN_CLI = """
from click.testing import CliRunner
from persuade.cli import main
res = CliRunner().invoke(main, {args!r})
assert res.exit_code == 0, res.output
"""


def test_slope_solve_and_simulate_load_no_scipy(fixture_dir):
    solve = ["solve", "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2"]
    simulate = ["simulate", "--instance", str(fixture_dir / "ratio_iid.json"), "--k", "2",
                "--samples", "200"]
    bicriteria = ["--method", "bicriteria", "--epsilon", "0.1", "--samples", "200"]
    runs = [solve, simulate, solve + bicriteria, simulate[:-2] + bicriteria]
    assert not scipy_loaded_after("".join(RUN_CLI.format(args=args) for args in runs))


def test_independent_solve_and_simulate_load_no_scipy(fixture_dir):
    # The relaxation is read off the value curves, so no independent method
    # reaches HiGHS.
    base = ["--instance", str(fixture_dir / "coins_k3.json"), "--k", "3", "--force"]
    runs = [["solve", *base, "--method", method] for method in ("greedy", "reduce")]
    runs += [["solve", *base, "--method", "fptas", "--epsilon", "0.1"],
             ["simulate", *base, "--method", "greedy", "--samples", "200"]]
    assert not scipy_loaded_after("".join(RUN_CLI.format(args=args) for args in runs))


def test_exact_loads_scipy_on_its_first_lp(fixture_dir):
    exact = ["exact", "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2"]
    assert scipy_loaded_after(RUN_CLI.format(args=exact))


def test_simulate_with_a_negative_seed_writes_no_warning(fixture_dir):
    # A fresh process, so numpy's warnings reach stderr instead of pytest.
    run = run_fresh("-m", "persuade.cli", "simulate", "--instance",
                    str(fixture_dir / "ratio_iid.json"), "--k", "2", "--samples", "300",
                    "--seed", "-1")
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert json.loads(run.stdout)["seed"] == -1


@pytest.mark.parametrize("command", [
    ["compare"], ["solve", "--method", "bicriteria"], ["simulate", "--method", "bicriteria"],
])
def test_bicriteria_takes_a_negative_seed_modulo_2_64(fixture_dir, command):
    args = [*command, "--instance", str(fixture_dir / "tug_of_war.json"), "--k", "2",
            "--epsilon", "0.1", "--samples", "200", "--seed"]
    neg, pos = invoke(*args, "-1"), invoke(*args, str(2**64 - 1))
    assert neg.exit_code == pos.exit_code == 0, neg.output
    if command == ["compare"]:
        assert neg.stdout == pos.stdout
    else:  # solve and simulate echo the seed as given
        a, b = json.loads(neg.stdout), json.loads(pos.stdout)
        assert (a.pop("seed"), b.pop("seed")) == (-1, 2**64 - 1)
        assert a == b


def test_every_benchmark_traced_function_exists():
    # perfbench/tracing.py wraps these package functions by name; a renamed
    # one would drop its metrics from the benchmark's traced result line.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"persuade.{module}")
        for name in attr.split("."):  # "Class.method" names a method on its class
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"persuade.{module}.{attr}")
    assert missing == []
