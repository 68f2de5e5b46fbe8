"""Independent reference computations used to check choicealloc's outputs.

Nothing here imports choicealloc. The optimum comes from the paper's theorem
(budget split by sensitivity, local shares split by a softmax of
alpha / (1 + sum of local betas)), probabilities from log-sum-exp over the
utilities with the opt-out at 0, and gradients from their own formula.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

GAMMA_GRID = np.arange(1, 100) / 100.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


@dataclass(frozen=True)
class Instance:
    """A scenario as plain arrays; the benchmark's own view of the inputs."""

    location_ids: tuple[str, ...]
    alpha: np.ndarray  # (L,)
    local_ids: tuple[str, ...]
    beta_local: np.ndarray  # (K,)
    central_ids: tuple[str, ...]
    beta_central: np.ndarray  # (C,)
    budget: float

    @property
    def beta_sum(self) -> float:
        return math.fsum(self.beta_local) + math.fsum(self.beta_central)


def instance_from_json(path: str) -> tuple[Instance, dict]:
    """Read a scenario file with the json module alone; returns it and its allocations."""
    with open(path, encoding="utf-8") as stream:
        raw = json.load(stream)
    inst = Instance(
        tuple(str(d["id"]) for d in raw["locations"]),
        np.array([d["alpha"] for d in raw["locations"]], dtype=float),
        tuple(str(d["id"]) for d in raw["local_resources"]),
        np.array([d["beta"] for d in raw["local_resources"]], dtype=float),
        tuple(str(d["id"]) for d in raw["central_resources"]),
        np.array([d["beta"] for d in raw["central_resources"]], dtype=float),
        float(raw["budget"]),
    )
    allocations = {}
    for name, alloc in raw.get("allocations", {}).items():
        local = np.array([[alloc["local"][f"{loc}/{res}"] for res in inst.local_ids]
                          for loc in inst.location_ids], dtype=float)
        central = np.array([alloc["central"][res] for res in inst.central_ids], dtype=float)
        allocations[name] = (local.reshape(len(inst.location_ids), len(inst.local_ids)), central)
    return inst, allocations


# --- allocations: local is (L, K), central is (C,) --------------------------------


def optimum(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The paper's closed-form optimum."""
    r, total = inst.budget, inst.beta_sum
    scaled = inst.alpha / (1.0 + math.fsum(inst.beta_local))
    shares = np.exp(scaled - scaled.max())
    shares /= shares.sum()
    local = np.outer(shares, inst.beta_local * r / total)
    return local, inst.beta_central * r / total


def cle(inst: Instance, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    n_loc, n_res = len(inst.alpha), len(inst.beta_local)
    local = np.full((n_loc, n_res), (1.0 - gamma) * inst.budget / (n_loc * n_res))
    return local, np.full(len(inst.beta_central), gamma * inst.budget / len(inst.beta_central))


def celp(inst: Instance, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    n_res = len(inst.beta_local)
    weights = inst.alpha / math.fsum(inst.alpha)
    local = np.outer(weights, np.full(n_res, (1.0 - gamma) * inst.budget / n_res))
    return local, np.full(len(inst.beta_central), gamma * inst.budget / len(inst.beta_central))


RULES = {"cle": cle, "celp": celp}


# --- the choice model --------------------------------------------------------------


def utilities(inst: Instance, local: np.ndarray, central: np.ndarray) -> np.ndarray:
    return inst.alpha - np.log(local) @ inst.beta_local - float(np.log(central) @ inst.beta_central)


def log_sum_exp(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + math.log(float(np.sum(np.exp(v - m))))


@dataclass(frozen=True)
class Probabilities:
    per_location: np.ndarray
    opt_out: float
    overall: float
    ln_b: float


def probabilities(inst: Instance, local: np.ndarray, central: np.ndarray) -> Probabilities:
    v = utilities(inst, local, central)
    ln_b = log_sum_exp(v)
    ln_denominator = float(np.logaddexp(0.0, ln_b))
    return Probabilities(np.exp(v - ln_denominator), math.exp(-ln_denominator),
                         math.exp(ln_b - ln_denominator), ln_b)


def relative_stationarity(inst: Instance, local: np.ndarray, central: np.ndarray) -> float:
    """max |g - mean g| / |mean g| for the gradient of B, scaled by exp(-max V).

    dB/dx[i, j] = -beta_j exp(V_i) / x[i, j] and dB/dx[c] = -beta_c B / x[c].
    """
    v = utilities(inst, local, central)
    terms = np.exp(v - v.max())
    g = np.concatenate([(-terms[:, None] * inst.beta_local[None, :] / local).ravel(),
                        -terms.sum() * inst.beta_central / central])
    mean = float(np.mean(g))
    return float(np.max(np.abs(g - mean)) / abs(mean))


def best_gamma(inst: Instance, rule: str) -> float:
    """Grid gamma minimising ln B for a rule; ties go to the smaller gamma."""
    ln_b = [probabilities(inst, *RULES[rule](inst, float(g))).ln_b for g in GAMMA_GRID]
    return float(GAMMA_GRID[int(np.argmin(ln_b))])  # argmin returns the first minimum


def budget_for(inst: Instance, target: float) -> float:
    """Budget at which the optimum's overall probability is target (B scales as R^-sum beta)."""
    ln_b_now = probabilities(inst, *optimum(inst)).ln_b
    return inst.budget * math.exp((ln_b_now - math.log(target / (1.0 - target))) / inst.beta_sum)


# --- comparing outputs -------------------------------------------------------------


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(actual, expected, rel: float, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    expect(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    error = np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300)
    worst = float(np.max(error)) if error.size else 0.0
    expect(worst <= rel, f"{what}: relative error {worst:.3e} > {rel:.0e}")


def parse_csv(text: str) -> dict[str, dict[str, float]]:
    """A CSV table from the CLI as {row label: {column: value}}."""
    rows = list(csv.reader(io.StringIO(text)))
    expect(len(rows) >= 2 and rows[0][0] == "label", f"not a CLI table: {text[:80]!r}")
    header = rows[0][1:]
    table = {}
    for row in rows[1:]:
        expect(len(row) == len(header) + 1, f"row {row[0]!r} has {len(row) - 1} cells")
        table[row[0]] = {col: float(cell) for col, cell in zip(header, row[1:])}
    return table


def solution_row(inst: Instance, local: np.ndarray, central: np.ndarray) -> dict[str, float]:
    """The columns the CLI prints for one allocation, computed by the reference."""
    p = probabilities(inst, local, central)
    row = {f"x[{res}]": float(v) for res, v in zip(inst.central_ids, central)}
    for j, res in enumerate(inst.local_ids):
        for i, loc in enumerate(inst.location_ids):
            row[f"x[{loc}/{res}]"] = float(local[i, j])
    for i, loc in enumerate(inst.location_ids):
        row[f"P[{loc}]%"] = 100.0 * float(p.per_location[i])
    row["overall%"] = 100.0 * p.overall
    return row


def expect_row(actual: dict[str, float], expected: dict[str, float], rel: float, what: str) -> None:
    expect(set(actual) == set(expected), f"{what}: columns {sorted(actual)} != {sorted(expected)}")
    cols = sorted(expected)
    expect_close([actual[c] for c in cols], [expected[c] for c in cols], rel, what)
