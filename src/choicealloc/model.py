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

A scenario keeps α per location and β per entry as vectors, which is all the
optimum depends on. An allocation is stored as one flat vector in the
scenario's canonical entry order (see :func:`entry_keys`); its ``local`` and
``central`` dicts are built on first read. :func:`flatten` and
:func:`unflatten` copy, so no caller holds an allocation's own vector. An
evaluation is stored as arrays too, its utilities and per-location
probabilities, with its dicts built on read; a solver builds its evaluation
from the utilities and ln B it computes for its certificate. B's
gradient is -B * r with r = A^T softmax(V) / x, where A holds each location's
betas; r is scale-free, so certificates built on it survive B overflowing.
An allocation carries one certificate: the (V, ln B, r) first computed for
it on its scenario are kept with it, so a solve and the ``kkt_residual`` of
its output share one pass over the entries.

The per-entry kernels read and write the (L, K) local block one column at a
time, never along a row: K, the number of local resources, is small, and a
numpy call along so short an axis pays a fixed cost per row that outweighs
the work on the entries. A column-wise sum adds in the order numpy's row sum
uses for rows shorter than 8, so it is bit-identical there; from K = 8 numpy
sums rows pairwise, and the sums differ by round-off only. A vector-built
allocation sums its ``total`` on first read.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

#: Allocation entries a caller gives below this are rejected as nonpositive;
#: utilities diverge as any entry approaches zero, so the feasible set is open.
#: The solvers' and rules' own output is only checked to be finite and > 0.
POSITIVITY_FLOOR = 1e-12

#: Relative slack on the budget when checking feasibility, absorbing round-off
#: in constructed allocations.
FEASIBILITY_SLACK = 1e-9


class ScenarioError(ValueError):
    """A scenario violates one of its invariants."""


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

    # The vector view. Entries are in the canonical flat order: the first L*K
    # are the local ones, location-major, so location i's local entries are
    # row i of the (L, K) reshape; the C central entries follow and enter
    # every location's utility.
    @cached_property
    def _alpha(self) -> np.ndarray:
        return np.array([a for _, a in self.locations], dtype=float)

    @cached_property
    def _alpha_total(self) -> float:
        return math.fsum(self._alpha.tolist())

    # The closed form's constants: fsums of all betas, of the local betas, and
    # of beta * ln(beta) over all of them.
    @cached_property
    def _beta_total(self) -> float:
        return math.fsum(b for _, b in self.local_resources + self.central_resources)

    @cached_property
    def _local_beta_total(self) -> float:
        return math.fsum(b for _, b in self.local_resources)

    @cached_property
    def _beta_log_beta_total(self) -> float:
        return math.fsum(b * math.log(b) for _, b in self.local_resources + self.central_resources)

    @cached_property
    def _beta(self) -> np.ndarray:
        local_betas = np.tile([b for _, b in self.local_resources], len(self.locations))
        return np.concatenate([local_betas, [b for _, b in self.central_resources]])

    @cached_property
    def _local_keys(self) -> tuple[tuple[str, str], ...]:
        """Built on first use; the vector paths never need it."""
        return tuple((loc, res) for loc in self.location_ids for res in self.local_ids)

    @cached_property
    def _local_shape(self) -> tuple[int, int]:
        """(L, K): locations by local resources."""
        return len(self.locations), len(self.local_resources)

    @cached_property
    def _n_local(self) -> int:
        return len(self.locations) * len(self.local_resources)


class _Record:
    """Immutable, unhashable value with a dataclass's == and repr over ``_fields``.

    Fields are plain instance attributes; a dict field declared with
    :func:`_lazy_dict` is built from arrays on first read and then kept.
    """

    __hash__ = None
    _fields: tuple[str, ...] = ()

    @classmethod
    def _new(cls, **attributes):
        record = cls.__new__(cls)
        record.__dict__.update(attributes)
        return record

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return [getattr(self, n) for n in fields] == [getattr(other, n) for n in fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _lazy_dict(keys, values) -> cached_property:
    """A field read as dict(zip(keys(record), values(record).tolist())), built
    on first read; a record that already holds the dict never calls it."""
    return cached_property(lambda record: dict(zip(keys(record), values(record).tolist())))


class Allocation(_Record):
    """A strictly positive budget split.

    Attributes:
        local: (location-id, local-resource-id) -> amount.
        central: central-resource-id -> amount.
        total: sum of the local entries, then the central ones, in dict order.

    The stored form is the flat vector in its scenario's canonical entry
    order, and the dicts are built on first read. An allocation built from
    dicts gets its vector when it first meets a scenario, after the key check.
    Positivity is enforced here: entries given by a caller must be at least
    ``POSITIVITY_FLOOR``, while the solvers' and rules' own output need only
    be finite and > 0. Key agreement with a scenario and the budget bound are
    checked by the operations that take a scenario. Allocations are immutable
    and, like their dicts, unhashable.
    """

    _fields = ("local", "central")

    def __init__(self, local: dict[tuple[str, str], float], central: dict[str, float]):
        local = {(str(i), str(j)): float(v) for (i, j), v in local.items()}
        central = {str(j): float(v) for j, v in central.items()}
        x = np.array([*local.values(), *central.values()])
        _check_entries(lambda: [*local, *central], x, POSITIVITY_FLOOR)
        self.__dict__.update(local=local, central=central, total=_total(x, len(local)),
                             _scenario=None, _x=None)

    @classmethod
    def _from_vector(cls, scenario: Scenario, x: np.ndarray, floor: float = 0.0) -> Allocation:
        """The allocation whose entries are x, in scenario's order; x is kept, not copied."""
        _check_entries(lambda: entry_keys(scenario), x, floor)
        return cls._new(_scenario=scenario, _x=x)

    local = _lazy_dict(lambda a: a._scenario._local_keys, lambda a: a._x[: a._scenario._n_local])
    central = _lazy_dict(lambda a: a._scenario.central_ids, lambda a: a._x[a._scenario._n_local :])
    # Summed on first read for a vector-built allocation; __init__ sets it.
    total = cached_property(lambda a: _total(a._x, a._scenario._n_local))


def _check_entries(keys, x: np.ndarray, floor: float) -> None:
    """Raise naming keys()[k] for the first entry k of x that is not finite and
    positive, or is below a nonzero floor."""
    # x's extremes decide; only a bad entry pays for the scan that names it.
    if x.size and not ((x.min() >= floor if floor else x.min() > 0.0) and x.max() < math.inf):
        bad = np.flatnonzero(~(np.isfinite(x) & ((x >= floor) if floor else (x > 0.0))))
        k = int(bad[0])
        bound = f"at least {floor}" if floor else "positive"
        raise AllocationError(f"entry {keys()[k]!r} must be {bound}, got {float(x[k])}")


def _total(x: np.ndarray, n_local: int) -> float:
    """Sum of x's first n_local entries plus the sum of the rest, each added one
    at a time as sum() does."""
    # cumsum adds in turn; its last value is the sum, and an empty part adds 0.0.
    local, central = x[:n_local].cumsum(), x[n_local:].cumsum()
    return (float(local[-1]) if local.size else 0.0) + (float(central[-1]) if central.size else 0.0)


class Evaluation(_Record):
    """Choice probabilities and surrogate value for one allocation.

    Attributes:
        per_location: location-id -> probability the offender targets it.
        opt_out: probability the offender targets nothing.
        overall: probability some location is targeted (sum of per_location).
        surrogate: convex surrogate B with overall = B / (1 + B).
        utilities: location-id -> deterministic utility V.
        ln_surrogate: ln B, finite where B itself overflows to inf.

    :func:`evaluate` stores the per-location probabilities and utilities as
    arrays, and the two dicts are built on first read. Evaluations are
    immutable and unhashable.
    """

    _fields = ("per_location", "opt_out", "overall", "surrogate", "utilities", "ln_surrogate")

    def __init__(self, per_location: dict[str, float], opt_out: float, overall: float,
                 surrogate: float, utilities: dict[str, float], ln_surrogate: float):
        self.__dict__.update(per_location=per_location, opt_out=opt_out, overall=overall,
                             surrogate=surrogate, utilities=utilities, ln_surrogate=ln_surrogate)

    per_location = _lazy_dict(lambda e: e._ids, lambda e: e._p)
    utilities = _lazy_dict(lambda e: e._ids, lambda e: e._v)


def entry_keys(scenario: Scenario) -> list[tuple[str, str] | str]:
    """Canonical flat entry order: local pairs location-major, then central ids."""
    return list(scenario._local_keys) + list(scenario.central_ids)


def _vector(scenario: Scenario, allocation: Allocation) -> np.ndarray:
    """The allocation's own vector in the scenario's entry order.

    An allocation built on this scenario passes by identity; any other is key
    checked once and keeps its vector for this scenario, dropping the
    certificate it kept for the last one.
    """
    if allocation._scenario is scenario:
        return allocation._x
    local_keys = scenario._local_keys
    if set(allocation.local) != set(local_keys):
        missing = set(local_keys) - set(allocation.local)
        extra = set(allocation.local) - set(local_keys)
        raise AllocationError(
            f"local keys do not match scenario (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    central_ids = scenario.central_ids
    if set(allocation.central) != set(central_ids):
        missing = set(central_ids) - set(allocation.central)
        extra = set(allocation.central) - set(central_ids)
        raise AllocationError(
            f"central keys do not match scenario (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    x = np.array([*map(allocation.local.get, local_keys),
                  *map(allocation.central.get, central_ids)])
    # total is read first, so it stays summed in the order the allocation was built in.
    allocation.__dict__.update(total=allocation.total, _scenario=scenario, _x=x)
    allocation.__dict__.pop("_log_state", None)
    return x


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
    return _vector(scenario, allocation).copy()


def unflatten(scenario: Scenario, x: np.ndarray) -> Allocation:
    """Inverse of :func:`flatten`; the allocation keeps a copy of x."""
    x = np.array(x, dtype=float)
    n = scenario.n_entries
    if x.shape != (n,):
        raise AllocationError(f"expected vector of length {n}, got shape {x.shape}")
    return Allocation._from_vector(scenario, x, POSITIVITY_FLOOR)


def _local_columns(scenario: Scenario, per_entry: np.ndarray) -> np.ndarray:
    """The (K, L) transposed view of a per-entry vector's (L, K) local block:
    iterating it yields the K strided columns, column j holding local resource
    j's entry at every location."""
    return per_entry[: scenario._n_local].reshape(scenario._local_shape).T


def _location_sums(scenario: Scenario, per_entry: np.ndarray) -> np.ndarray:
    """Per location, the sum of a per-entry vector over the entries in its utility.

    The local entries are added column by column from 0.0, which is the order
    numpy's row sum uses for rows shorter than 8; the central sum comes last.
    """
    sums = np.zeros(len(scenario.locations))
    for column in _local_columns(scenario, per_entry):
        sums += column
    sums += per_entry[scenario._n_local :].sum()
    return sums


def _transposed(scenario: Scenario, p: np.ndarray) -> np.ndarray:
    """A^T p for per-location p: per entry, beta times the sum of p over the
    locations whose utility contains it (its own for a local entry, all for a
    central one)."""
    a = np.empty(scenario.n_entries)
    for column in _local_columns(scenario, a):
        column[:] = p
    a[scenario._n_local :] = p.sum()
    a *= scenario._beta
    return a


def _utilities(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """Deterministic utilities V_i, which are also the log surrogate terms."""
    terms = np.log(x)
    terms *= scenario._beta
    return scenario._alpha - _location_sums(scenario, terms)


def _log_sum_exp(v: np.ndarray) -> float:
    """ln B = ln sum_i exp(V_i), shifted by the largest V so nothing overflows."""
    top = float(v.max())
    return top + math.log(float(np.exp(v - top).sum()))


def _exp_or_inf(ln_value: float) -> float:
    """exp() that saturates to inf instead of raising past the double range."""
    return math.exp(ln_value) if ln_value < 709.0 else math.inf


def _log_gradient(scenario: Scenario, x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """The utilities V, ln B and the scale-free gradient r = A^T softmax(V) / x,
    so dB/dx = -B * r.

    Every r_k is finite, however large or small B is, and positive unless a
    location's softmax weight underflows to 0.
    """
    v = _utilities(scenario, x)
    ln_b = _log_sum_exp(v)
    r = _transposed(scenario, np.exp(v - ln_b))
    r /= x
    return v, ln_b, r


def _log_state(scenario: Scenario, allocation: Allocation) -> tuple[np.ndarray, float, np.ndarray]:
    """:func:`_log_gradient` at the allocation, computed once and kept in it;
    :func:`_vector` drops it when the allocation moves to another scenario."""
    x = _vector(scenario, allocation)
    state = allocation.__dict__.get("_log_state")
    if state is None:
        state = allocation.__dict__["_log_state"] = _log_gradient(scenario, x)
    return state


def evaluate(scenario: Scenario, allocation: Allocation) -> Evaluation:
    """Choice probabilities and surrogate for a feasible allocation.

    Everything comes from the utilities in the log domain: ln B is the
    log-sum-exp of the utilities, the probabilities are the softmax over the
    utilities and the zero-utility opt-out, and overall = B / (1 + B) is
    exp(ln B - ln(1 + B)). The surrogate is exp(ln B), which saturates to inf
    past the double range while the probabilities stay finite.
    """
    check_feasible(scenario, allocation)
    v = _utilities(scenario, _vector(scenario, allocation))
    return _evaluation(scenario, v, _log_sum_exp(v))


def _evaluation(scenario: Scenario, v: np.ndarray, ln_b: float) -> Evaluation:
    """The evaluation at utilities v with ln B = ln_b; v is kept, not copied."""
    ln_denom = float(np.logaddexp(0.0, ln_b))
    return Evaluation._new(
        opt_out=math.exp(-ln_denom),
        overall=math.exp(ln_b - ln_denom),
        surrogate=_exp_or_inf(ln_b),
        ln_surrogate=ln_b,
        _ids=scenario.location_ids,
        _p=np.exp(v - ln_denom),
        _v=v,
    )
