"""Output checks computed apart from the program.

Every reference value here comes from the instance document's rationals or
from the benchmark's own arithmetic (its own state sampler, its own
relaxation LP, its own evaluation of an acceptance table), never from a
stored copy of an earlier output.  A check that rejects an output raises
`CheckFailed`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

SE_LIMIT = 5.0  # simulated means must lie within this many standard errors


class CheckFailed(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Reference values from the document's rationals
# --------------------------------------------------------------------------

def best_fixed_value(doc: dict) -> Fraction:
    """Receiver value of the best fixed action, exactly, from the document."""
    kind = doc["kind"]
    if kind == "iid":
        return sum((Fraction(t["q"]) * Fraction(t["rho"]) for t in doc["palette"]), Fraction(0))
    if kind == "prophet_secretary":
        total = sum((Fraction(t["q"]) * Fraction(t["rho"]) for d in doc["dists"] for t in d), Fraction(0))
        return total / len(doc["dists"])
    if kind == "d_random_order":
        n = len(doc["vectors"][0])
        return sum(
            (Fraction(qv) * sum((Fraction(t["rho"]) for t in vec), Fraction(0)) / n
             for vec, qv in zip(doc["vectors"], doc["vector_probs"])),
            Fraction(0),
        )
    return max(_action_mean(a, "rho") for a in doc["actions"])


def _action_mean(action: list[dict], field: str) -> Fraction:
    return sum((Fraction(t["q"]) * Fraction(t[field]) for t in action), Fraction(0))


def designated_action(doc: dict) -> int:
    """The a-priori receiver-best action: highest expected receiver value,
    then highest expected sender value, then lowest index."""
    acts = doc["actions"]
    return max(
        range(len(acts)),
        key=lambda i: (_action_mean(acts[i], "rho"), _action_mean(acts[i], "xi"), -i),
    )


def cascade(k: int) -> float:
    return 1.0 - (1.0 - 1.0 / k) ** k


def method_factor(method: str, k: int, n: int, epsilon: float) -> float:
    """The guaranteed share of the k-signal optimum, from the README's table."""
    miss = 1.0 - 1.0 / k
    if method == "greedy":
        return cascade(k) * (1.0 - miss ** (k - 1))
    if method == "reduce":
        return cascade(k) * (k - 1) / n
    return cascade(k) * (1.0 - epsilon) * (1.0 - 1.0 / k)


# --------------------------------------------------------------------------
# Symmetric schemes
# --------------------------------------------------------------------------

def check_receiver_value(u_receiver: float, rho_e: Fraction) -> None:
    require(u_receiver >= float(rho_e) - 1e-7,
            f"u_receiver {u_receiver!r} below the best fixed action {float(rho_e)!r}")


def check_sim_mean(mean: float, stderr: float, expected: float, what: str) -> None:
    gap = abs(mean - expected)
    require(gap <= SE_LIMIT * stderr + 1e-9,
            f"simulated {what} {mean!r} is {gap:.3g} from {expected!r} "
            f"(standard error {stderr:.3g})")


def check_sim_receiver(mean: float, stderr: float, rho_e: Fraction) -> None:
    require(mean >= float(rho_e) - SE_LIMIT * stderr - 1e-9,
            f"simulated receiver mean {mean!r} below the best fixed action {float(rho_e)!r}")


def sample_symmetric_states(doc: dict, types: dict, samples: int, seed: int):
    """States drawn by the benchmark's own sampler from the document's prior.

    `types` maps type ids to the program's type objects, so the states can
    be handed to an executor.  Returns (states, rho) with rho a
    samples x n float matrix of receiver values.
    """
    rng = np.random.default_rng(seed)
    kind = doc["kind"]
    if kind == "d_random_order":
        vectors = doc["vectors"]
        n = len(vectors[0])
        ids = np.array([[t["id"] for t in vec] for vec in vectors], dtype=object)
        probs = np.array([float(Fraction(q)) for q in doc["vector_probs"]])
        pick = rng.choice(len(vectors), size=samples, p=probs / probs.sum())
        order = rng.permuted(np.tile(np.arange(n), (samples, 1)), axis=1)
        rows = ids[pick[:, None], order]
    else:
        # One categorical draw per slot from padded cumulative tables.
        dists = [doc["palette"]] * doc["n"] if kind == "iid" else doc["dists"]
        n, width = len(dists), max(len(d) for d in dists)
        cum = np.ones((n, width))
        ids = np.empty((n, width), dtype=object)
        for i, dist in enumerate(dists):
            acc = Fraction(0)
            for j, t in enumerate(dist):
                acc += Fraction(t["q"])
                cum[i, j] = float(acc)
                ids[i, j] = t["id"]
        draws = (rng.random((samples, n))[:, :, None] >= cum[None, :, :-1]).sum(axis=2)
        rows = ids[np.arange(n)[None, :], draws]
        if kind == "prophet_secretary":  # distributions meet slots in random order
            order = rng.permuted(np.tile(np.arange(n), (samples, 1)), axis=1)
            rows = np.take_along_axis(rows, order, axis=1)
    states = [tuple(types[tid] for tid in row) for row in rows]
    rho = np.array([[float(t.rho) for t in state] for state in states])
    return states, rho


def check_mc_obedience(dists: list[dict], rho: np.ndarray) -> None:
    """Per-signal Monte Carlo obedience: for every signal i and every slot j,
    E[p_i * (rho_i - rho_j)] must not be significantly negative.

    `dists` holds the executor's recommendation distribution on each
    sampled state; `rho` the states' receiver values.
    """
    samples, n = rho.shape
    s1: dict[int, np.ndarray] = {}
    s2: dict[int, np.ndarray] = {}
    for row, dist in zip(rho, dists):
        for i, p in dist.items():
            y = p * (row[i] - row)
            if i not in s1:
                s1[i], s2[i] = np.zeros(n), np.zeros(n)
            s1[i] += y
            s2[i] += y * y
    for i in s1:
        mean = s1[i] / samples
        var = np.maximum(s2[i] / samples - mean * mean, 0.0)
        slack = mean + SE_LIMIT * np.sqrt(var / samples) + 1e-9
        j = int(np.argmin(slack))
        require(slack[j] >= 0.0,
                f"signal {i}: deviating to slot {j} gains {-mean[j]:.3g} on average")


# --------------------------------------------------------------------------
# Independent schemes
# --------------------------------------------------------------------------

def relaxation_value(doc: dict, S) -> float:
    """The shared-budget relaxation over S plus the designated action, as an
    LP built here: maximise sum x_t xi_t subject to the total accepted mass
    being at most 1, each action's accepted mass clearing the receiver
    threshold on average, and 0 <= x_t <= q_t."""
    acts = doc["actions"]
    rho_e = best_fixed_value(doc)
    chosen = sorted(set(S) | {designated_action(doc)})
    cols = [(a, t) for a in chosen for t in acts[a]]
    c = np.array([-float(Fraction(t["xi"])) for _, t in cols])
    a_ub = [np.ones(len(cols))]
    for a in chosen:
        a_ub.append(np.array([
            -float(Fraction(t["rho"]) - rho_e) if owner == a else 0.0 for owner, t in cols
        ]))
    b_ub = [1.0] + [0.0] * len(chosen)
    bounds = [(0.0, float(Fraction(t["q"]))) for _, t in cols]
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs")
    if res.status != 0:
        raise CheckFailed(f"reference relaxation LP failed: {res.message}")
    return -float(res.fun)


def best_subset_value(doc: dict, size: int) -> float:
    """Best relaxation value over all non-designated action sets of `size`."""
    d = designated_action(doc)
    others = [i for i in range(len(doc["actions"])) if i != d]
    return max(relaxation_value(doc, S) for S in combinations(others, size))


def selected_set(doc: dict, order, k: int) -> tuple[int, ...]:
    """The k-1 selected actions: the scheme's order without the designated one."""
    d = designated_action(doc)
    S = tuple(sorted(i for i in order if i != d))
    require(len(S) == k - 1 and d in order,
            f"order {tuple(order)} is not k-1={k - 1} actions plus the designated {d}")
    return S


def scheme_values(doc: dict, order, accept, fallback: int) -> tuple[float, float]:
    """Exact expected (sender, receiver) utility of a sequential-acceptance
    scheme, evaluated from its acceptance table and the document.

    Actions are inspected in `order`; action i is recommended when its own
    coin, accept[i][realized type], comes up.  When every coin fails the
    fallback is recommended; its type is then distributed as its prior
    conditioned on its own coin having failed.
    """
    def coins(i: int, row: dict) -> list[tuple[float, float, float]]:
        """(mass, xi, rho) of each of action i's types taken by its coin."""
        return [(float(Fraction(t["q"])) * row.get(t["id"], 0.0),
                 float(Fraction(t["xi"])), float(Fraction(t["rho"]))) for t in doc["actions"][i]]

    sender = receiver = 0.0
    reach = 1.0
    for i in order:
        taken = coins(i, accept[i])
        sender += reach * sum(w * xi for w, xi, _ in taken)
        receiver += reach * sum(w * rho for w, _, rho in taken)
        reach *= 1.0 - sum(w for w, _, _ in taken)
    # The fallback's types that its own coin leaves behind.
    row = accept.get(fallback, {}) if fallback in order else {}
    left = coins(fallback, {t["id"]: 1.0 - row.get(t["id"], 0.0) for t in doc["actions"][fallback]})
    total = sum(w for w, _, _ in left)
    if reach > 0.0 and total > 0.0:
        sender += reach * sum(w * xi for w, xi, _ in left) / total
        receiver += reach * sum(w * rho for w, _, rho in left) / total
    return sender, receiver


def check_expost_scheme(doc: dict, k: int, scheme) -> tuple[int, ...]:
    """Properties every sequential-acceptance scheme must have.

    Returns the selected action set.  Checks that each inspected action
    clears the receiver threshold on its accepted mass, that the stored
    u_sender matches the benchmark's own evaluation of the acceptance table
    within 1e-9, and that u_sender lies between (1-(1-1/k)^k) f(S) and f(S),
    with f(S) from the benchmark's own relaxation LP.
    """
    acts = doc["actions"]
    rho_e = best_fixed_value(doc)
    S = selected_set(doc, scheme.order, k)
    for i in scheme.order:
        slack = sum(
            float(Fraction(t["q"]) * (Fraction(t["rho"]) - rho_e)) * scheme.accept[i].get(t["id"], 0.0)
            for t in acts[i]
        )
        require(slack >= -1e-9, f"action {i} misses the receiver threshold by {-slack:.3g}")
    sender, _ = scheme_values(doc, scheme.order, scheme.accept, scheme.fallback)
    require(abs(sender - scheme.u_sender) <= 1e-9,
            f"u_sender {scheme.u_sender!r} but the acceptance table is worth {sender!r}")
    f_s = relaxation_value(doc, S)
    require(cascade(k) * f_s - 1e-7 <= scheme.u_sender <= f_s + 1e-7,
            f"u_sender {scheme.u_sender!r} outside [{cascade(k) * f_s!r}, {f_s!r}]")
    return S


def check_relaxation(doc: dict, S, objective: float) -> None:
    ref = relaxation_value(doc, S)
    require(abs(objective - ref) <= 1e-7, f"f(S) {objective!r} but the reference LP gives {ref!r}")


def check_fptas_set(doc: dict, S, k: int, epsilon: float) -> None:
    best = best_subset_value(doc, k - 1)
    got = relaxation_value(doc, S)
    if got < (1.0 - epsilon) * best - 1e-9:
        raise CheckFailed(f"fptas set {tuple(S)} has f={got:.4f}, below 1-eps of the best "
                          f"{k - 1}-set's {best:.4f} (ratio {got / best:.3f})")


def check_factor(value: float, factor: float, opt: float, what: str) -> None:
    require(value >= factor * opt - 1e-6,
            f"{what} {value!r} below {factor:.4f} x optimum {opt!r}")


def check_close(got: float, want: float, tol: float, what: str) -> None:
    require(math.isfinite(got) and abs(got - want) <= tol,
            f"{what}: {got!r} differs from {want!r} by more than {tol:g}")
