"""Scenario data model, logit location-choice probabilities, and the convex surrogate.

A scenario describes a set of locations an offender may target, the protective
resources a policy maker can fund (central resources shield every location,
local resources shield one location each), and a total budget. An allocation
assigns a strictly positive amount to every (location, local resource) pair and
to every central resource.

The offender picks a location, or opts out, by maximising a random utility

    U_i = V_i + eps_i,            V_i = alpha_i - sum_j beta_j * ln(x_entry)
    U_opt_out = eps_0

with iid standard Gumbel noise, which yields multinomial-logit choice
probabilities. The probability that any location is hit equals B / (1 + B)
where the surrogate

    B(x) = sum_i exp(alpha_i) / prod(x_entry ** beta)

is convex in x even though the hit probability itself is not. Minimising B
therefore minimises the hit probability, and everything downstream (the
closed-form solver, the numerical oracle) works on B.

An allocation is stored as one flat vector in the scenario's canonical entry
order (see :func:`entry_keys`); its ``local`` and ``central`` dicts are built
on first read. :func:`flatten` and :func:`unflatten` copy, so no caller holds
an allocation's own vector.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

#: Allocation entries below this are rejected as nonpositive; utilities
#: diverge as any entry approaches zero, so the feasible set is open.
POSITIVITY_FLOOR = 1e-12

#: Relative slack on the budget when checking feasibility, absorbing round-off
#: in constructed allocations.
FEASIBILITY_SLACK = 1e-9


class ScenarioError(ValueError):
    """A scenario violates one of its invariants, or references an unknown id."""


class AllocationError(ValueError):
    """An allocation is nonpositive, key-mismatched, or over budget."""


@dataclass(frozen=True)
class Scenario:
    """One protection problem instance.

    Attributes:
        locations: ordered (id, alpha) pairs; alpha >= 0 is the location's
            intrinsic attractiveness to the offender.
        local_resources: ordered (id, beta) pairs; beta > 0 is the offender's
            sensitivity to that resource. Each local resource is allocated
            per location.
        central_resources: ordered (id, beta) pairs; a central resource
            protects all locations at once.
        budget: total amount available, > 0.

    Ids must be distinct across all three lists, locations must be nonempty,
    and at least one resource (local or central) must exist.
    """

    locations: tuple[tuple[str, float], ...]
    local_resources: tuple[tuple[str, float], ...]
    central_resources: tuple[tuple[str, float], ...]
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "locations", tuple((str(i), float(a)) for i, a in self.locations)
        )
        object.__setattr__(
            self,
            "local_resources",
            tuple((str(i), float(b)) for i, b in self.local_resources),
        )
        object.__setattr__(
            self,
            "central_resources",
            tuple((str(i), float(b)) for i, b in self.central_resources),
        )
        object.__setattr__(self, "budget", float(self.budget))
        self._validate()

    def _validate(self) -> None:
        if not self.locations:
            raise ScenarioError("locations must be nonempty")
        if not self.local_resources and not self.central_resources:
            raise ScenarioError("at least one local or central resource is required")
        ids = [i for i, _ in self.locations]
        ids += [i for i, _ in self.local_resources]
        ids += [i for i, _ in self.central_resources]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ScenarioError(f"ids must be distinct across all lists, got duplicates {dupes}")
        for loc, alpha in self.locations:
            if not math.isfinite(alpha) or alpha < 0:
                raise ScenarioError(f"location {loc!r}: alpha must be finite and >= 0, got {alpha}")
        for res, beta in self.local_resources + self.central_resources:
            if not math.isfinite(beta) or beta <= 0:
                raise ScenarioError(f"resource {res!r}: beta must be finite and > 0, got {beta}")
        if not math.isfinite(self.budget) or self.budget <= 0:
            raise ScenarioError(f"budget must be finite and > 0, got {self.budget}")

    # Built once per scenario: evaluate and the rules read them on every call.
    @cached_property
    def location_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.locations)

    @cached_property
    def local_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.local_resources)

    @cached_property
    def central_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.central_resources)

    @property
    def n_entries(self) -> int:
        """Number of allocation entries: |locations|*|local| + |central|."""
        return len(self.locations) * len(self.local_resources) + len(self.central_resources)

    @cached_property
    def _design(self) -> _Design:
        alpha = np.array([a for _, a in self.locations], dtype=float)
        local_betas = np.tile([b for _, b in self.local_resources], len(self.locations))
        beta = np.concatenate([local_betas, [b for _, b in self.central_resources]])
        return _Design(self.location_ids, self.local_ids, self.central_ids, alpha, beta)


class Allocation:
    """A strictly positive budget split.

    Attributes:
        local: (location-id, local-resource-id) -> amount.
        central: central-resource-id -> amount.
        total: sum of the local entries, then the central ones, in dict order.

    The stored form is the flat vector in a scenario design's canonical entry
    order, and the dicts are built on first read. An allocation built from
    dicts gets its vector when it first meets a scenario, after the key check.
    Positivity is enforced here; key agreement with a scenario and the budget
    bound are checked by the operations that take a scenario. Allocations are
    immutable and, like their dicts, unhashable.
    """

    __hash__ = None

    def __init__(self, local: dict[tuple[str, str], float], central: dict[str, float]):
        local = {(str(i), str(j)): float(v) for (i, j), v in local.items()}
        central = {str(j): float(v) for j, v in central.items()}
        x = np.array([*local.values(), *central.values()])
        total = _checked_total(lambda: [*local, *central], x, len(local))
        self.__dict__.update(local=local, central=central, total=total, _design=None, _x=None)

    @classmethod
    def _from_vector(cls, design: _Design, x: np.ndarray) -> Allocation:
        """The allocation whose entries are x, in design's order; x is kept, not copied."""
        total = _checked_total(lambda: design.local_keys + design.central_keys, x, design.n_local)
        allocation = cls.__new__(cls)
        allocation.__dict__.update(total=total, _design=design, _x=x)
        return allocation

    @cached_property
    def local(self) -> dict[tuple[str, str], float]:
        return dict(zip(self._design.local_keys, self._x[: self._design.n_local].tolist()))

    @cached_property
    def central(self) -> dict[str, float]:
        return dict(zip(self._design.central_keys, self._x[self._design.n_local :].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return (self.local, self.central) == (other.local, other.central)

    def __repr__(self) -> str:
        return f"Allocation(local={self.local!r}, central={self.central!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _checked_total(keys, x: np.ndarray, n_local: int) -> float:
    """Sum of x's first n_local entries plus the sum of the rest, each added one
    at a time as sum() does; raises naming keys()[k] for the first entry k that
    is not finite and at least POSITIVITY_FLOOR."""
    bad = np.flatnonzero(~(np.isfinite(x) & (x >= POSITIVITY_FLOOR)))
    if bad.size:
        k = int(bad[0])
        raise AllocationError(
            f"entry {keys()[k]!r} must be at least {POSITIVITY_FLOOR}, got {float(x[k])}"
        )
    # cumsum adds in turn; [-1:].sum() is its last value, or 0.0 when empty.
    return float(np.cumsum(x[:n_local])[-1:].sum() + np.cumsum(x[n_local:])[-1:].sum())


@dataclass(frozen=True)
class Evaluation:
    """Choice probabilities and surrogate value for one allocation.

    Attributes:
        per_location: location-id -> probability the offender targets it.
        opt_out: probability the offender targets nothing.
        overall: probability some location is targeted (sum of per_location).
        surrogate: convex surrogate B with overall = B / (1 + B).
        utilities: location-id -> deterministic utility V.
    """

    per_location: dict[str, float]
    opt_out: float
    overall: float
    surrogate: float
    utilities: dict[str, float]


@dataclass(frozen=True)
class _Design:
    """Vectorised view of a scenario; entry order is the canonical flat order.

    The first L*K entries are the local ones, location-major, so location i's
    local entries are row i of the (L, K) reshape; the C central entries
    follow and enter every location's utility.
    """

    location_ids: tuple[str, ...]
    local_ids: tuple[str, ...]
    central_keys: tuple[str, ...]
    alpha: np.ndarray       # per location
    beta: np.ndarray        # per entry

    @cached_property
    def local_keys(self) -> tuple[tuple[str, str], ...]:
        """Built on first use; the vector paths never need it."""
        return tuple((loc, res) for loc in self.location_ids for res in self.local_ids)

    @property
    def n_local(self) -> int:
        return len(self.location_ids) * len(self.local_ids)

    @property
    def n_entries(self) -> int:
        return self.beta.size

    @property
    def local_shape(self) -> tuple[int, int]:
        """(L, K): locations by local resources."""
        return len(self.location_ids), len(self.local_ids)


def entry_keys(scenario: Scenario) -> list[tuple[str, str] | str]:
    """Canonical flat entry order: local pairs location-major, then central ids."""
    d = scenario._design
    return list(d.local_keys) + list(d.central_keys)


def _vector(scenario: Scenario, allocation: Allocation) -> tuple[_Design, np.ndarray]:
    """The scenario's design and the allocation's own vector in that design's order.

    An allocation built on this design passes by identity; any other is key
    checked once and keeps its vector for this design.
    """
    d = scenario._design
    if allocation._design is d:
        return d, allocation._x
    if set(allocation.local) != set(d.local_keys):
        missing = set(d.local_keys) - set(allocation.local)
        extra = set(allocation.local) - set(d.local_keys)
        raise AllocationError(
            f"local keys do not match scenario (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    if set(allocation.central) != set(d.central_keys):
        missing = set(d.central_keys) - set(allocation.central)
        extra = set(allocation.central) - set(d.central_keys)
        raise AllocationError(
            f"central keys do not match scenario (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    x = np.array([*map(allocation.local.get, d.local_keys),
                  *map(allocation.central.get, d.central_keys)])
    allocation.__dict__.update(_design=d, _x=x)
    return d, x


def check_feasible(scenario: Scenario, allocation: Allocation) -> None:
    """Raise unless the allocation matches the scenario's keys and fits the budget."""
    _vector(scenario, allocation)
    slack = FEASIBILITY_SLACK * scenario.budget
    if allocation.total > scenario.budget + slack:
        raise AllocationError(
            f"allocation total {allocation.total} exceeds budget {scenario.budget}"
        )


def flatten(scenario: Scenario, allocation: Allocation) -> np.ndarray:
    """Allocation as a new vector in canonical entry order."""
    return _vector(scenario, allocation)[1].copy()


def unflatten(scenario: Scenario, x: np.ndarray) -> Allocation:
    """Inverse of :func:`flatten`; the allocation keeps a copy of x."""
    d = scenario._design
    x = np.array(x, dtype=float)
    if x.shape != (d.n_entries,):
        raise AllocationError(f"expected vector of length {d.n_entries}, got shape {x.shape}")
    return Allocation._from_vector(d, x)


def _location_sums(design: _Design, per_entry: np.ndarray) -> np.ndarray:
    """Per location, the sum of a per-entry vector over the entries in its utility."""
    n_local = design.n_local
    local = per_entry[:n_local].reshape(design.local_shape).sum(axis=1)
    return local + per_entry[n_local:].sum()


def _utilities(design: _Design, x: np.ndarray) -> np.ndarray:
    """Deterministic utilities V_i, which are also the log surrogate terms."""
    return design.alpha - _location_sums(design, design.beta * np.log(x))


def _log_sum_exp(v: np.ndarray) -> float:
    """ln B = ln sum_i exp(V_i), shifted by the largest V so nothing overflows."""
    top = float(np.max(v))
    return top + math.log(float(np.sum(np.exp(v - top))))


def _exp_or_inf(ln_value: float) -> float:
    """exp() that saturates to inf instead of raising past the double range."""
    return math.exp(ln_value) if ln_value < 709.0 else math.inf


def _surrogate_value(design: _Design, x: np.ndarray) -> float:
    return _exp_or_inf(_log_sum_exp(_utilities(design, x)))


def _containing_sums(design: _Design, terms: np.ndarray) -> np.ndarray:
    """Per entry, the sum of the surrogate terms whose utility contains it.

    A local entry appears only in its own location's term; a central entry
    appears in every term, so its sum is B.
    """
    n_central = len(design.central_keys)
    per_local = np.repeat(terms, design.local_shape[1])
    return np.concatenate([per_local, np.full(n_central, terms.sum())])


def _gradient_vector(design: _Design, x: np.ndarray) -> np.ndarray:
    """Gradient of the surrogate: -beta_k * (sum of terms containing k) / x_k."""
    terms = np.exp(_utilities(design, x))
    return -design.beta * _containing_sums(design, terms) / x


def deterministic_utility(scenario: Scenario, allocation: Allocation, location: str) -> float:
    """V at one location: alpha minus beta-weighted logs of the relevant entries."""
    if location not in scenario.location_ids:
        raise ScenarioError(f"unknown location id {location!r}")
    _vector(scenario, allocation)
    alpha = dict(scenario.locations)[location]
    v = alpha
    for res, beta in scenario.local_resources:
        v -= beta * math.log(allocation.local[(location, res)])
    for res, beta in scenario.central_resources:
        v -= beta * math.log(allocation.central[res])
    return v


def surrogate_B(scenario: Scenario, allocation: Allocation) -> float:
    """Surrogate value B, the sum over locations of exp(alpha) / prod(x ** beta).

    Requires positive entries matching the scenario; the budget bound is not
    needed here (B is defined on all positive allocations).
    """
    return _surrogate_value(*_vector(scenario, allocation))


def gradient_B(scenario: Scenario, allocation: Allocation) -> dict[tuple[str, str] | str, float]:
    """Partial derivatives of B, keyed like the allocation's entries.

    For a local entry the derivative is -beta * term_i / x; for a central
    entry it is -beta * B / x. Every component is strictly negative.
    """
    g = _gradient_vector(*_vector(scenario, allocation))
    return dict(zip(entry_keys(scenario), g.tolist()))


def evaluate(scenario: Scenario, allocation: Allocation) -> Evaluation:
    """Choice probabilities and surrogate for a feasible allocation.

    Everything comes from the utilities in the log domain: ln B is the
    log-sum-exp of the utilities, the probabilities are the softmax over the
    utilities and the zero-utility opt-out, and overall = B / (1 + B) is
    exp(ln B - ln(1 + B)). The surrogate is exp(ln B), which saturates to inf
    past the double range while the probabilities stay finite.
    """
    check_feasible(scenario, allocation)
    v = _utilities(*_vector(scenario, allocation))
    ln_b = _log_sum_exp(v)
    ln_denom = float(np.logaddexp(0.0, ln_b))
    per_location = np.exp(v - ln_denom)
    ids = scenario.location_ids
    return Evaluation(
        per_location=dict(zip(ids, per_location.tolist())),
        opt_out=math.exp(-ln_denom),
        overall=math.exp(ln_b - ln_denom),
        surrogate=_exp_or_inf(ln_b),
        utilities=dict(zip(ids, v.tolist())),
    )
