"""The workloads: a fixed list of operations per seed, run in whole rounds.

An operation is one call into the program (a solve, a referee call, an
audit or a simulation) plus the benchmark's check of its output.  Only
the call is timed.  An operation fails when the call raises or the check
rejects its output; the round goes on either way.  Operations marked as a
known fault are never timed, so mending them does not read as a slowdown.

The program is always reached through the `persuade` package's attributes
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import persuade as P

import checks as C
import gen
from calibrate import Speedometer
from instances import load, type_map

MC_OBEDIENCE_SAMPLES = 2000  # sampled states per scheme in the Monte Carlo obedience audit
FPTAS_EPSILON = 0.2
METHODS = ("greedy", "reduce", "fptas")


@dataclass
class Op:
    kind: str  # "solve", "referee", "audit" or "simulate"
    label: str
    call: Callable[[dict], object]  # reads earlier results from the round's dict
    check: Callable[[object, dict], None] | None = None
    key: str | None = None  # keep the result under this key for later operations
    samples: int = 0  # Monte Carlo samples a "simulate" operation draws
    fault: str | None = None  # a known fault: expected to fail, never timed


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (label, message, known fault?)
    scaled: dict = field(default_factory=dict)  # kind -> seconds at the reference speed
    raw: dict = field(default_factory=dict)  # kind -> wall seconds
    sim_samples: int = 0

    def seconds(self, *kinds: str, raw: bool = False) -> float:
        times = self.raw if raw else self.scaled
        return sum(times.get(kind, 0.0) for kind in kinds or times)


def run_round(ops: list[Op], speed: Speedometer) -> RoundResult:
    """Run every operation once; time each call but the known faults against
    `speed`'s calibration kernel."""
    out = RoundResult()
    results: dict = {}
    for op in ops:
        out.attempted += 1
        mark = speed.start()
        try:
            value = op.call(results)
            lap = speed.stop(mark)
            if op.key is not None:
                results[op.key] = value
            if op.check is not None:
                op.check(value, results)
        except Exception as exc:  # a raise or a rejected output fails only this operation
            out.failed += 1
            out.failures.append((op.label, f"{type(exc).__name__}: {exc}", op.fault is not None))
            continue
        if op.fault is not None:
            continue
        speed.record(op.kind, lap)
        if op.kind == "simulate":
            out.sim_samples += op.samples
    out.scaled, out.raw = speed.take()
    return out


# --------------------------------------------------------------------------
# Operations shared by the workloads
# --------------------------------------------------------------------------

def slope_op(label: str, inst, k: int, rho_e, key: str) -> Op:
    return Op("solve", label, lambda r: P.slope_algorithm(inst, k),
              lambda s, r: C.check_receiver_value(s.u_receiver, rho_e), key=key)


def simulate_op(label: str, inst, k: int, samples: int, seed: int, key: str, rho_e=None) -> Op:
    def call(r):
        return P.estimate(P.SlopeSchemeExecutor(r[key], k), inst, samples, seed)

    def check(report, r):
        C.require(report.samples == samples, f"{report.samples} samples, asked for {samples}")
        C.check_sim_mean(report.sender_mean, report.sender_stderr, r[key].u_sender, "sender mean")
        if rho_e is not None:
            C.check_sim_receiver(report.receiver_mean, report.receiver_stderr, rho_e)

    return Op("simulate", label, call, check, samples=samples)


# --------------------------------------------------------------------------
# symmetric-large
# --------------------------------------------------------------------------

def symmetric_large(inputs: list[dict]) -> list[Op]:
    ops: list[Op] = []
    for case in inputs:
        doc, k, name = case["doc"], case["k"], case["name"]
        inst = load(doc)
        rho_e = C.best_fixed_value(doc)
        key = name
        ops.append(slope_op(f"{name} slope k={k}", inst, k, rho_e, key))
        ops.append(simulate_op(f"{name} simulate", inst, k, case["samples"], case["sim_seed"],
                               key, rho_e))
        states, rho = C.sample_symmetric_states(doc, type_map(inst), MC_OBEDIENCE_SAMPLES,
                                                case["mc_seed"])

        def obey_call(r, key=key, k=k, states=states):
            executor = P.SlopeSchemeExecutor(r[key], k)
            return [executor.recommendation_distribution(s) for s in states]

        ops.append(Op("audit", f"{name} Monte Carlo obedience", obey_call,
                      lambda dists, r, rho=rho: C.check_mc_obedience(dists, rho)))
    fault = gen.OVERFLOW_IID
    doc, k = fault["doc"], fault["k"]
    op = slope_op(f"two-type iid n={doc['n']} slope k={k}", load(doc), k,
                  C.best_fixed_value(doc), "overflow")
    op.fault = "prob_oracle overflow at n=1200, k=600"
    ops.append(op)
    return ops


# --------------------------------------------------------------------------
# symmetric-corpus
# --------------------------------------------------------------------------

def symmetric_corpus(inputs: dict) -> list[Op]:
    ops: list[Op] = []
    loaded = [load(doc) for doc in inputs["instances"]]
    for idx, (doc, inst) in enumerate(zip(inputs["instances"], loaded)):
        rho_e = C.best_fixed_value(doc)
        for k in range(2, gen.doc_slots(doc) + 1):
            tag = f"corpus[{idx}] k={k}"
            key = f"{idx}/{k}"
            ops.append(slope_op(f"{tag} slope", inst, k, rho_e, key))

            def referee_check(value, r, key=key):
                C.check_close(r[key].u_sender, value[1], 1e-6, "slope value against the referee")

            ops.append(Op("referee", f"{tag} referee",
                          lambda r, inst=inst, k=k: P.optimal_scheme_bruteforce(inst, k),
                          referee_check))

            def audit_call(r, inst=inst, k=k, key=key):
                executor = P.SlopeSchemeExecutor(r[key], k)
                return P.persuasiveness_check(executor, inst), P.expected_utilities(executor, inst)

            def audit_check(value, r, key=key):
                report, (sender, _) = value
                C.require(report.persuasive, "the audit finds the slope executor not persuasive")
                C.check_close(sender, r[key].u_sender, 1e-7, "executor's exact sender value")

            ops.append(Op("audit", f"{tag} audit", audit_call, audit_check))
    for sim in inputs["sims"]:
        inst, k = load(sim["doc"]), sim["k"]
        key = f"fixture/{sim['name']}"
        ops.append(slope_op(f"{sim['name']} slope k={k}", inst, k,
                            C.best_fixed_value(sim["doc"]), key))
        ops.append(simulate_op(f"{sim['name']} simulate", inst, k, gen.CORPUS_SIM_SAMPLES,
                               sim["seed"], key))
    eps, samples = gen.CORPUS_BICRITERIA["epsilon"], gen.CORPUS_BICRITERIA["samples"]
    for run in inputs["bicriteria"]:
        inst, k, seed = loaded[run["instance"]], run["k"], run["seed"]

        def regret_check(res, r):
            C.require(res.max_regret <= res.epsilon,
                      f"empirical regret {res.max_regret!r} above epsilon {res.epsilon}")

        ops.append(Op("solve", f"corpus[{run['instance']}] bicriteria k={k}",
                      lambda r, inst=inst, k=k, seed=seed: P.bicriteria_scheme(
                          inst, k, eps, samples, rng=seed),
                      regret_check))
    return ops


# --------------------------------------------------------------------------
# independent
# --------------------------------------------------------------------------

def _scheme_op(label: str, doc: dict, inst, k: int, method: str, key: str,
               extra: Callable[[object, dict], None] | None = None,
               epsilon: float = FPTAS_EPSILON) -> Op:
    eps = epsilon if method == "fptas" else None

    def check(scheme, r):
        r[key + "/S"] = C.check_expost_scheme(doc, k, scheme)
        if extra is not None:
            extra(scheme, r)

    return Op("solve", label,
              lambda r: P.independent_scheme(inst, k, method=method, epsilon=eps),
              check, key=key)


def independent(inputs: dict) -> list[Op]:
    ops: list[Op] = []
    for idx, case in enumerate(inputs["large"]):
        doc, k = case["doc"], case["k"]
        inst = load(doc)
        n = len(doc["actions"])
        for method in METHODS:
            key = f"large{idx}/{method}"
            tag = f"large[{idx}] n={n} k={k} {method}"
            ops.append(_scheme_op(tag, doc, inst, k, method, key))
            ops.append(Op("audit", f"{tag} relaxation",
                          lambda r, inst=inst, key=key: P.f_of_S(inst, r[key + "/S"]).objective,
                          lambda value, r, doc=doc, key=key: C.check_relaxation(
                              doc, r[key + "/S"], value)))
        key = f"large{idx}/greedy"
        samples = gen.INDEP_SIM_SAMPLES

        def sim_check(report, r, key=key):
            C.require(report.samples == samples, f"{report.samples} samples, asked for {samples}")
            C.check_sim_mean(report.sender_mean, report.sender_stderr, r[key].u_sender,
                             "sender mean")

        ops.append(Op("simulate", f"large[{idx}] simulate greedy",
                      lambda r, inst=inst, key=key, seed=case["seed"]: P.estimate(
                          r[key], inst, samples, seed),
                      sim_check, samples=samples))
    for idx, case in enumerate(inputs["small"]):
        doc, k = case["doc"], case["k"]
        inst = load(doc)
        n = len(doc["actions"])
        key = f"small{idx}/opt"
        ops.append(Op("referee", f"small[{idx}] n={n} k={k} referee",
                      lambda r, inst=inst, k=k: P.optimal_scheme_bruteforce(inst, k)[1],
                      key=key))
        for method in METHODS:
            factor = C.method_factor(method, k, n, FPTAS_EPSILON)

            def factor_check(scheme, r, factor=factor, method=method, key=key):
                C.check_factor(scheme.u_sender, factor, r[key], method)

            ops.append(_scheme_op(f"small[{idx}] n={n} k={k} {method}", doc, inst, k, method,
                                  f"small{idx}/{method}", factor_check))
    doc, eps = gen.FPTAS_FAULT["doc"], gen.FPTAS_FAULT["epsilon"]
    inst = load(doc)
    for k in gen.FPTAS_FAULT["k"]:
        def set_check(scheme, r, k=k):
            C.check_fptas_set(doc, r[f"fault/{k}/S"], k, eps)

        op = _scheme_op(f"fptas fault instance k={k} epsilon={eps}", doc, inst, k, "fptas",
                        f"fault/{k}", set_check, epsilon=eps)
        op.fault = "fptas_select below 1-epsilon of the best (k-1)-set"
        ops.append(op)
    return ops


OPERATIONS = {
    "symmetric-large": symmetric_large,
    "symmetric-corpus": symmetric_corpus,
    "independent": independent,
}
