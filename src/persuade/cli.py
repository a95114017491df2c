"""Command line interface.

Exit codes: 0 on success, 1 for validation problems (a malformed instance,
a bad option value, an unknown option or command, a missing option value,
or arithmetic that overflows or memory that runs out on an instance too
large for it), 2 for infeasibility or a violated guarantee, 3 when a scheme
builder refuses an instance it cannot certify (override with --force).
Every error prints one ``error:`` line to stderr.  All commands print JSON
with sorted keys and floats rounded to 12 significant digits, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import click

from .exact_oracle import (
    expected_utilities,
    optimal_scheme_bruteforce,
    persuasiveness_check,
)
from .independent_schemes import (
    PreconditionError,
    expost_scheme_to_dict,
    independent_scheme,
)
from .lp_core import GUARANTEE_TOL, ZERO_TOL
from .model import (
    all_types,
    fixture_names,
    is_symmetric,
    load_instance,
    n_slots,
)
from .simulate import estimate
from .symmetric_schemes import (
    SlopeSchemeExecutor,
    bicriteria_scheme,
    imitation_scheme,
    slope_algorithm,
    slope_scheme_to_dict,
)


def _die(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Group(click.Group):
    """Command group whose usage errors are validation errors (exit 1).

    Click exits 2 on a bad option value, an unknown option or command and
    a missing option value; this tool reserves 2 for infeasibility.
    """

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _usage_error(exc)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _usage_error(exc)


def _usage_error(exc: click.UsageError) -> None:
    hint = f" (see '{exc.ctx.command_path} --help')" if exc.ctx is not None else ""
    _die(1, exc.format_message() + hint)


def _guarded(fn):
    """Translate library exceptions into the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PreconditionError as exc:
            _die(3, f"{exc} (pass --force to build it anyway)")
        except (ValueError, TypeError) as exc:
            _die(1, str(exc))
        except ArithmeticError as exc:
            _die(1, f"{type(exc).__name__} on this instance: {exc}")
        except MemoryError as exc:
            _die(1, f"out of memory on this instance: {str(exc) or 'no detail'}")
        except RuntimeError as exc:
            _die(2, str(exc))

    return wrapper


def _need(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}") + 0.0  # adding 0.0 turns -0.0 into 0.0
    if isinstance(obj, dict):
        return {key: _round12(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(value) for value in obj]
    return obj


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(_round12(doc), sort_keys=True, indent=2) + "\n"
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            _die(1, f"cannot write {output}: {exc}")
    else:
        click.echo(text, nl=False)


def _slope(instance, k, method, epsilon, samples, seed, force):
    scheme = slope_algorithm(instance, k)
    return SlopeSchemeExecutor(scheme, k), slope_scheme_to_dict(scheme)


def _imitation(instance, k, method, epsilon, samples, seed, force):
    executor = imitation_scheme(instance, k)
    base = slope_scheme_to_dict(executor.base.scheme)
    return executor, {"method": "imitation", "k": k, "n": n_slots(instance), "base": base}


def _bicriteria(instance, k, method, epsilon, samples, seed, force):
    epsilon, samples = _need(epsilon, "--epsilon"), _need(samples, "--samples")
    r = bicriteria_scheme(instance, k, epsilon, samples, seed)
    return r.scheme, {"method": "bicriteria", "epsilon": epsilon, "samples": r.samples,
                      "seed": seed, "u_sender": r.u_sender, "u_receiver": r.u_receiver,
                      "max_regret": r.max_regret}


def _independent(instance, k, method, epsilon, samples, seed, force):
    if method == "fptas":
        epsilon = _need(epsilon, "--epsilon")
    scheme = independent_scheme(instance, k, method=method, epsilon=epsilon, force=force)
    return scheme, expost_scheme_to_dict(scheme)


@dataclass(frozen=True)
class _Method:
    """What solve, simulate and compare know about one method.

    `build` refuses a missing option its method needs.  A `value` of None
    makes compare enumerate the prior for the exact expected sender utility.
    """

    symmetric: bool  # serves symmetric priors, otherwise independent-actions ones
    build: Callable  # (instance, k, method, epsilon, samples, seed, force) -> (executor, doc)
    value: str | None  # key of the doc's sender utility that compare checks
    bound: Callable  # (k, n, epsilon) -> guaranteed share of the optimum, or None
    by_epsilon: bool = False  # compare runs it only when --epsilon is given


# The one method table, in the order `unknown method` lists it.
_METHODS = {
    "slope": _Method(True, _slope, "u_sender", lambda k, n, eps: 1.0),
    "imitation": _Method(True, _imitation, None, lambda k, n, eps: k / n),
    "bicriteria": _Method(True, _bicriteria, None, lambda k, n, eps: None, by_epsilon=True),
    "greedy": _Method(False, _independent, "u_sender_lb", lambda k, n, eps: (
        (1.0 - (1.0 - 1.0 / k) ** k) * (1.0 - (1.0 - 1.0 / k) ** (k - 1)))),
    "fptas": _Method(False, _independent, "u_sender_lb", lambda k, n, eps: (
        (1.0 - (1.0 - 1.0 / k) ** k) * (1.0 - eps) * (1.0 - 1.0 / k)), by_epsilon=True),
    "reduce": _Method(False, _independent, "u_sender_lb", lambda k, n, eps: (
        (1.0 - (1.0 - 1.0 / k) ** k) * (k - 1) / n)),
}


def _build(instance, k, method, epsilon, samples, seed, force):
    """Build the scheme of any method: (executor, document for ``solve``).

    The executor has recommend/recommendation_distribution methods.
    """
    row = _METHODS.get(method)
    if row is None:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(_METHODS)}")
    if row.symmetric != is_symmetric(instance):
        family = "a symmetric" if row.symmetric else "an independent-actions"
        raise ValueError(f"method {method!r} needs {family} instance")
    return row.build(instance, k, method, epsilon, samples, seed, force)


@click.group(cls=_Group, no_args_is_help=False)
def main() -> None:
    """Signaling schemes for Bayesian persuasion with limited signal spaces."""


@main.command()
@click.option("--instance", "instance_path", type=str, default=None, help="Instance JSON file.")
@click.option("--k", type=int, default=None, help="Number of signals.")
@click.option("--method", type=str, default="slope", show_default=True,
              help="slope, imitation or bicriteria for symmetric instances; "
                   "greedy, fptas or reduce for independent ones.")
@click.option("--epsilon", type=float, default=None, help="Accuracy for fptas/bicriteria.")
@click.option("--samples", type=int, default=None, help="Sample count for bicriteria.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--force", is_flag=True, help="Build even when persuasiveness cannot be certified.")
@click.option("--output", type=str, default=None, help="Write JSON here instead of stdout.")
@_guarded
def solve(instance_path, k, method, epsilon, samples, seed, force, output):
    """Compute a k-signal scheme and print it."""
    instance = load_instance(_need(instance_path, "--instance"))
    k = _need(k, "--k")
    _, doc = _build(instance, k, method, epsilon, samples, seed, force)
    _emit(doc, output)


@main.command()
@click.option("--instance", "instance_path", type=str, default=None, help="Instance JSON file.")
@click.option("--k", type=int, default=None, help="Number of signals.")
@click.option("--state-bound", type=int, default=10**5, show_default=True,
              help="Refuse to enumerate more raw state combinations than this.")
@click.option("--output", type=str, default=None)
@_guarded
def exact(instance_path, k, state_bound, output):
    """Exactly optimal scheme by brute-force enumeration (small instances)."""
    instance = load_instance(_need(instance_path, "--instance"))
    k = _need(k, "--k")
    scheme, opt = optimal_scheme_bruteforce(instance, k, state_bound=state_bound)
    report = persuasiveness_check(scheme, instance, state_bound=state_bound)
    doc = {
        "method": "exact",
        "k": k,
        "u_sender": opt,
        "persuasive": report.persuasive,
        "signals": {
            str(i): {
                "probability": s.probability,
                "obey": s.value,
                "best_deviation": s.best_deviation,
            }
            for i, s in report.signals.items()
        },
    }
    _emit(doc, output)


@main.command()
@click.option("--instance", "instance_path", type=str, default=None, help="Instance JSON file.")
@click.option("--k", type=int, default=None, help="Number of signals.")
@click.option("--method", type=str, default="slope", show_default=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--samples", type=int, default=None, help="Monte Carlo sample count.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--force", is_flag=True)
@click.option("--output", type=str, default=None)
@_guarded
def simulate(instance_path, k, method, epsilon, samples, seed, force, output):
    """Build a scheme and estimate its utilities by simulation."""
    instance = load_instance(_need(instance_path, "--instance"))
    k = _need(k, "--k")
    samples = _need(samples, "--samples")
    executor, _ = _build(instance, k, method, epsilon, samples, seed, force)
    report = estimate(executor, instance, samples, seed)
    doc = {"method": method, "k": k, "seed": seed, **asdict(report)}
    doc["signals"] = {str(i): stats for i, stats in doc["signals"].items()}
    _emit(doc, output)


@main.command()
@click.option("--instance", "instance_path", type=str, default=None, help="Instance JSON file.")
@click.option("--k", type=int, default=None, help="Number of signals.")
@click.option("--epsilon", type=float, default=None,
              help="Include fptas (independent) or bicriteria (symmetric; needs --samples) "
                   "at this accuracy.")
@click.option("--samples", type=int, default=None, help="Bicriteria sample count.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--state-bound", type=int, default=10**5, show_default=True)
@click.option("--force", is_flag=True)
@click.option("--output", type=str, default=None)
@_guarded
def compare(instance_path, k, epsilon, samples, seed, state_bound, force, output):
    """Compare every applicable method against the brute-force optimum.

    Runs slope and imitation on symmetric instances, greedy and reduce on
    independent ones; --epsilon adds bicriteria or fptas.  Exits with status
    2 when a method lands below its guaranteed share of the optimum.  The
    shares assume nonnegative sender utilities: when some type has xi < 0,
    only shares of 1 are checked and the others are reported as null.
    """
    instance = load_instance(_need(instance_path, "--instance"))
    k = _need(k, "--k")
    _, opt = optimal_scheme_bruteforce(instance, k, state_bound=state_bound)
    n = n_slots(instance)
    # A share below 1 of a negative optimum asks for more than the optimum:
    # the ratio bounds hold for nonnegative sender utilities only.
    negative = any(t.xi < 0 for t in all_types(instance))
    methods: dict[str, dict] = {}
    # The methods --epsilon adds run last, so their errors print last.
    for name, row in sorted(_METHODS.items(), key=lambda item: item[1].by_epsilon):
        if row.symmetric != is_symmetric(instance) or (row.by_epsilon and epsilon is None):
            continue
        executor, doc = _build(instance, k, name, epsilon, samples, seed, force)
        value = (doc[row.value] if row.value is not None
                 else expected_utilities(executor, instance, state_bound)[0])
        bound = row.bound(k, n, epsilon)
        if negative and bound is not None and bound < 1.0:
            bound = None
        ok = bound is None or value >= bound * opt - GUARANTEE_TOL
        ratio = value / opt if abs(opt) > ZERO_TOL else None
        methods[name] = {"value": value, "ratio": ratio, "bound": bound, "ok": ok}

    doc = {"k": k, "u_exact": opt, "methods": methods}
    _emit(doc, output)
    if not all(info["ok"] for info in methods.values()):
        _die(2, "a method fell below its guaranteed share of the optimum")


@main.command()
@click.option("--output", "output_dir", type=str, default=".", show_default=True,
              help="Directory to write the instance files into.")
@_guarded
def fixtures(output_dir):
    """Write the example instances shipped with the package to a directory."""
    out = Path(output_dir)
    root = resources.files("persuade") / "fixtures"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in fixture_names():
            path = out / f"{name}.json"
            path.write_text((root / f"{name}.json").read_text())
            click.echo(str(path))
    except OSError as exc:
        _die(1, f"cannot write {output_dir}: {exc}")


if __name__ == "__main__":
    main()
