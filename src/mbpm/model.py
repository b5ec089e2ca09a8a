"""Model specification and sampling.

A model couples three ingredients: per-type offspring laws, a per-type
migration component (no change / immigration / emigration with
state-dependent probabilities), and an initial law.  One step from state z
draws the migration adjustment M, then sums z_i + M_i independent
offspring vectors of each type i:

    Z' = sum_i sum_{j <= z_i + M_i} X_{j,i}

Emigration is only possible from types with a positive count (the branch
is folded into "no migration" at z_i = 0, where removing is a no-op), so
states never leave the nonnegative orthant.

One kernel, ``advance``, draws every transition: it steps an (R, p) array
of states with a fixed sequence of numpy calls, per type for migration and
per parent type for offspring.  What a step does not need to recompute is
compiled once and cached on the spec: each migration component's constant
branch probabilities become intervals of a uniform, with the folds of
missing laws and of a zero count already applied
(``MigrationComponent.branches``), and the Perron weights are computed
once (``ModelSpec.size_weights``).  When every offspring count is Poisson
the offspring take one call: the children of type j from all parents are
a sum of independent Poissons, hence Poisson with the summed rate.
``step`` and ``simulate_path`` run the kernel on a single row,
``sample_step_batch`` on one state broadcast to many rows, and the
ensembles in ``montecarlo`` on blocks of replicates.

The mean matrix convention is column-per-parent: mean_matrix()[i, j] is
the expected number of type-i children of one type-j parent, and the
conditional mean acts as a left matrix product.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import algebra, laws
from .laws import (
    Clamp,
    Constant,
    EmigrationLaw,
    ImmigrationLaw,
    IndependentOffspring,
    PoissonOffspring,
    ShiftedPoissonImmigration,
    StateFunction,
    poisson_draws,
)


class SpecFormatError(ValueError):
    """Malformed specification document; ``field`` names the offending entry."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


_PROB_TOL = 1e-12


@dataclass(frozen=True)
class OffspringSpec:
    """One joint offspring law per parent type."""

    laws: tuple

    def __post_init__(self):
        p = len(self.laws)
        if p == 0:
            raise ValueError("offspring spec needs at least one type")
        for i, law in enumerate(self.laws):
            if law.dim != p:
                raise ValueError(
                    f"offspring law for type {i} produces {law.dim}-vectors "
                    f"in a {p}-type model"
                )

    @property
    def dim(self) -> int:
        return len(self.laws)

    def mean_matrix(self):
        # column j = mean children vector of a type-j parent
        return np.stack([law.mean_vec() for law in self.laws], axis=1)

    def cov_tensor(self):
        # cov_tensor()[i] = covariance of the children vector of a type-i parent
        return np.stack([law.cov() for law in self.laws], axis=0)

    @cached_property
    def poisson_means(self):
        """The mean matrix if every child count of every parent is Poisson, else None."""
        if all(
            isinstance(law, IndependentOffspring)
            and all(isinstance(c, PoissonOffspring) for c in law.components)
            for law in self.laws
        ):
            return self.mean_matrix()
        return None

    def sample_sum_batch(self, rng, counts):
        """Children (R, p) of the parent counts (R, p), summed over all parents.

        All-Poisson laws draw once per row and child type, at the rate
        (counts @ m.T)[r, j].  The rates are summed parent by parent rather
        than by a BLAS product, whose fused multiply-adds vary by CPU: the
        draws must not.  With one type the rate is counts * mean, as in
        ``PoissonOffspring``.  Other laws draw parent type by parent type.
        """
        m = self.poisson_means
        if m is not None:
            rates = counts[:, :1] * m[:, 0]
            for i in range(1, self.dim):
                rates += counts[:, i, None] * m[:, i]
            return poisson_draws(rng, rates)
        out = np.zeros_like(counts)
        for i, law in enumerate(self.laws):
            law.sample_sum_batch(rng, counts[:, i], out)
        return out


@dataclass(frozen=True)
class MigrationComponent:
    """Migration behaviour of one type: nothing / immigration / emigration."""

    prob_none: StateFunction
    prob_imm: StateFunction
    prob_em: StateFunction
    immigration: Optional[ImmigrationLaw] = None
    emigration: Optional[EmigrationLaw] = None

    def branch_probs(self, z, u, zi):
        """Effective (none, immigration, emigration) probabilities at z.

        ``z`` is one state with this type's count ``zi``, or a stack of
        states (R, p) with the counts (R,); each probability is then a
        scalar or one value per row.  Emigration is folded into "none"
        where the type's count is zero: there is nothing to remove, so the
        branch is a no-op there.  Only then do constant probabilities
        become per-row arrays.
        """
        pn = self.prob_none(z, u)
        pi = self.prob_imm(z, u)
        pe = self.prob_em(z, u)
        empty = np.asarray(zi) <= 0
        if self.emigration is None:
            pn, pe = pn + pe, 0.0
        elif empty.any():
            moved = pe * empty
            pn, pe = pn + moved, pe - moved
        if self.immigration is None:
            pn, pi = pn + pi, 0.0
        return pn, pi, pe

    @cached_property
    def branches(self):
        """``branch_probs`` compiled once into ``_Branches``; None unless every
        probability is constant.

        The fold at a zero count is compiled as well, where it can trigger:
        with an emigration law and a positive emigration probability.
        """
        if not all(isinstance(f, Constant) for f in (self.prob_none, self.prob_imm, self.prob_em)):
            return None
        pn, pi, pe = self.branch_probs(None, None, 1)
        hi = pn + pi
        empty = None
        if self.emigration is not None and self.prob_em.value > 0.0:
            pn0, pi0, _ = self.branch_probs(None, None, 0)
            empty = (pn0, pn0 + pi0)
        return _Branches(pn, hi, pe > 0.0, empty, empty is None and pn <= 0.0 and hi >= 1.0)


@dataclass(frozen=True)
class _Branches:
    """One type's migration branches as intervals of a uniform x per row.

    x picks immigration on [lo, hi) and emigration on [hi, 1) where
    ``emigrates`` (a bool, or one per row).  ``empty`` is the (lo, hi) of a
    row whose count is zero, which does not emigrate, or None where that
    fold cannot trigger.  ``everyone_immigrates`` is True where [lo, hi)
    covers [0, 1) in every row.
    """

    lo: object
    hi: object
    emigrates: object
    empty: Optional[tuple] = None
    everyone_immigrates: bool = False


@dataclass(frozen=True)
class MigrationSpec:
    components: tuple

    @property
    def dim(self) -> int:
        return len(self.components)

    def needs_size(self) -> bool:
        """Whether any state function here depends on the scalar size u . z."""

        def depends(f) -> bool:
            if isinstance(f, Constant):
                return False
            if isinstance(f, Clamp):
                return depends(f.inner)
            return True

        for comp in self.components:
            if any(depends(f) for f in (comp.prob_none, comp.prob_imm, comp.prob_em)):
                return True
            if isinstance(comp.immigration, ShiftedPoissonImmigration) and depends(
                comp.immigration.mean_fn
            ):
                return True
        return False


@dataclass(frozen=True)
class DeterministicInitial:
    state: tuple

    def __post_init__(self):
        s = np.asarray(self.state)
        if (s < 0).any() or not np.array_equal(s, s.astype(int)):
            raise ValueError("initial state must have nonnegative integer entries")

    @property
    def dim(self) -> int:
        return len(self.state)

    def sample(self, rng, size: int):
        """``size`` initial states, one per row."""
        return np.tile(np.asarray(self.state, dtype=np.int64), (size, 1))

    def mean_norm(self) -> float:
        return float(np.sum(self.state))


@dataclass(frozen=True)
class TableInitial:
    states: tuple  # of int tuples
    probs: tuple

    def __post_init__(self):
        s = np.asarray(self.states)
        p = np.asarray(self.probs, dtype=float)
        if s.ndim != 2 or s.shape[0] != p.shape[0] or s.size == 0:
            raise ValueError("initial table needs one probability per state")
        if (s < 0).any() or not np.array_equal(s, s.astype(int)):
            raise ValueError("initial states must have nonnegative integer entries")
        if (p < 0).any() or abs(p.sum() - 1.0) > _PROB_TOL:
            raise ValueError("initial probabilities must be nonnegative and sum to 1")

    @property
    def dim(self) -> int:
        return len(self.states[0])

    def sample(self, rng, size: int):
        """``size`` initial states, one per row."""
        idx = rng.choice(len(self.states), p=self.probs, size=size)
        return np.asarray(self.states, dtype=np.int64)[idx]

    def mean_norm(self) -> float:
        return float(np.asarray(self.states).sum(axis=1) @ np.asarray(self.probs))


InitialLaw = DeterministicInitial | TableInitial


class ModelSpec:
    """Offspring + migration + initial law, with cached spectral data."""

    def __init__(self, offspring: OffspringSpec, migration: MigrationSpec, initial: InitialLaw):
        if offspring.dim != migration.dim:
            raise ValueError(
                f"offspring describes {offspring.dim} types but migration "
                f"describes {migration.dim}"
            )
        if initial.dim != offspring.dim:
            raise ValueError(
                f"initial law produces {initial.dim}-vectors in a {offspring.dim}-type model"
            )
        self.offspring = offspring
        self.migration = migration
        self.initial = initial
        self._spectral = None

    @property
    def dim(self) -> int:
        return self.offspring.dim

    def mean_matrix(self):
        return self.offspring.mean_matrix()

    def cov_tensor(self):
        return self.offspring.cov_tensor()

    def spectral(self) -> algebra.SpectralData:
        if self._spectral is None:
            self._spectral = algebra.perron(self.mean_matrix())
        return self._spectral

    def size_weights(self):
        """Left Perron weights u when the migration needs them, else None.

        Constant-only specs stay usable on models whose mean matrix is not
        primitive (the weights are never evaluated there).  Computed once.
        """
        return self._size_weights

    @cached_property
    def _size_weights(self):
        if not self.migration.needs_size():
            return None
        try:
            return self.spectral().u
        except ValueError as exc:
            raise ValueError(
                "migration uses size-dependent state functions, which need the "
                "left Perron weights, but the offspring mean matrix is not "
                "primitive"
            ) from exc

    def validate(self):
        """Check probability and immigration-mean invariants at probe states."""
        p = self.dim
        u = self.size_weights()
        probes = [np.zeros(p, dtype=np.int64)]
        probes.extend(np.eye(p, dtype=np.int64))
        probes.append(np.full(p, 5, dtype=np.int64))
        probes.append(np.arange(1, p + 1, dtype=np.int64) * 7)
        for z in probes:
            for i, comp in enumerate(self.migration.components):
                vals = {
                    "prob_none": comp.prob_none(z, u),
                    "prob_imm": comp.prob_imm(z, u),
                    "prob_em": comp.prob_em(z, u),
                }
                for name, v in vals.items():
                    if not 0.0 <= v <= 1.0 + _PROB_TOL:
                        raise ValueError(
                            f"migration[{i}].{name} = {v} at z={z.tolist()} "
                            "is outside [0, 1]"
                        )
                total = sum(vals.values())
                if abs(total - 1.0) > _PROB_TOL:
                    raise ValueError(
                        f"migration[{i}] branch probabilities sum to {total} "
                        f"at z={z.tolist()}"
                    )
                if comp.immigration is None and vals["prob_imm"] > 0.0:
                    raise ValueError(
                        f"migration[{i}] has immigration probability {vals['prob_imm']} "
                        f"at z={z.tolist()} but no immigration law"
                    )
                if comp.emigration is None and vals["prob_em"] > 0.0 and z[i] > 0:
                    raise ValueError(
                        f"migration[{i}] has emigration probability {vals['prob_em']} "
                        f"at z={z.tolist()} but no emigration law"
                    )
                if comp.immigration is not None:
                    mean = comp.immigration.mean(z, u)
                    if mean < 1.0 - _PROB_TOL:
                        raise ValueError(
                            f"migration[{i}] immigration mean {mean} at "
                            f"z={z.tolist()} is below 1"
                        )
        return self


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (n+1, p) int64

    def __len__(self) -> int:
        return self.states.shape[0]


# ---------------------------------------------------------------------------
# Sampling: one transition kernel on arrays of states
# ---------------------------------------------------------------------------


def sample_migration(spec: MigrationSpec, Z, rng, u=None):
    """Migration adjustments M (R, p) for the states Z (R, p).

    Per type, one uniform per row chooses the row's branch; immigration
    and emigration then draw only for the rows in their branch, at those
    rows' states and counts.  The branch intervals come compiled from
    ``MigrationComponent.branches``, or from ``branch_probs`` at these
    rows where a probability depends on the state.  The uniforms are drawn
    even where every row takes the same branch, so the stream does not
    depend on the shortcut.
    """
    out = np.zeros(Z.shape, dtype=np.int64)
    for i, comp in enumerate(spec.components):
        zi, col = Z[:, i], out[:, i]
        b = comp.branches
        if b is None:
            pn, pi, pe = comp.branch_probs(Z, u, zi)
            b = _Branches(pn, pn + pi, pe > 0.0)
        lo, hi, em_ok = b.lo, b.hi, b.emigrates
        if b.empty is not None:
            empty = zi <= 0
            if np.count_nonzero(empty):
                lo = np.where(empty, b.empty[0], lo)
                hi = np.where(empty, b.empty[1], hi)
                em_ok = ~empty
        x = rng.random(len(Z))
        if b.everyone_immigrates and len(Z):  # no masks; zero rows draw nothing
            col[:] = comp.immigration.sample_batch(rng, Z, None, u)
            continue
        imm = (x >= lo) & (x < hi)
        if np.count_nonzero(imm):
            col[imm] = comp.immigration.sample_batch(rng, Z, imm, u)
        em = (x >= hi) & em_ok
        if np.count_nonzero(em):
            col[em] = -comp.emigration.sample_batch(rng, zi[em])
    return out


def advance(spec: ModelSpec, Z, rng):
    """The next generation of every row of the int64 states Z (R, p).

    Migration first (``sample_migration``, with the spec's cached Perron
    weights and compiled branch intervals), then every parent present sums
    its offspring (``OffspringSpec.sample_sum_batch``).  The draws are a
    fixed sequence of numpy calls, so the same rows from the same stream
    give the same result.  ``Z`` may be a read-only view, such as one
    state broadcast to R rows.
    """
    counts = sample_migration(spec.migration, Z, rng, u=spec.size_weights())
    counts += Z
    return spec.offspring.sample_sum_batch(rng, counts)


def step(spec: ModelSpec, z, rng):
    """One transition from the state z: ``advance`` on a single row."""
    return advance(spec, np.asarray(z, dtype=np.int64)[None, :], rng)[0]


def simulate_path(spec: ModelSpec, n: int, rng) -> Trajectory:
    """A trajectory of n steps from the initial law: ``advance`` on a single row."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    states = np.empty((n + 1, spec.dim), dtype=np.int64)
    Z = spec.initial.sample(rng, 1)
    states[0] = Z[0]
    for k in range(n):
        Z = advance(spec, Z, rng)
        states[k + 1] = Z[0]
    return Trajectory(states=states)


def sample_step_batch(spec: ModelSpec, z, size: int, rng):
    """``size`` independent one-step transitions from the same state z."""
    z = np.asarray(z, dtype=np.int64)
    return advance(spec, np.broadcast_to(z, (size, spec.dim)), rng)


# ---------------------------------------------------------------------------
# Serialization: JSON-compatible document schema (see README for the schema)
# ---------------------------------------------------------------------------


def _mapping(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise SpecFormatError(path, f"expected a mapping, got {type(d).__name__}")
    return d


def _require(d, key: str, path: str):
    if key not in _mapping(d, path):
        raise SpecFormatError(f"{path}.{key}" if path else key, "missing required field")
    return d[key]


def _integer(x) -> int:
    """An integer field's value: an int, or an integral float such as 1.0."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"expected an integer, got {x!r}")


class _Conv(NamedTuple):
    """A field's conversion from its document value and back."""

    read: Callable  # (document value, field path) -> constructor argument
    write: Callable  # attribute -> document value


class _Field(NamedTuple):
    key: str
    conv: _Conv
    attr: Optional[str] = None  # the attribute's name, where it is not the key
    optional: bool = False  # absent or null reads as None, and None is not written


class _Block(NamedTuple):
    """The registry of one kind of document block: ``forms`` maps each value
    of the ``tag`` field (``kind``/``family``; None for a block with one form)
    to a constructor and its fields in document order, each a ``_Field`` or a
    (key, conv) pair.  A constructor that is not a class is read, never written.
    """

    tag: Optional[str]
    noun: str
    forms: dict


def _read(block: _Block, d, path: str):
    """The object the document block d at path describes; errors name their field."""
    _mapping(d, path)
    tag = _require(d, block.tag, path) if block.tag else None
    form = block.forms.get(tag) if tag is None or isinstance(tag, str) else None
    if form is None:
        raise SpecFormatError(f"{path}.{block.tag}", f"unknown {block.noun} {block.tag} {tag!r}")
    make, fields = form
    fields = [_Field(*f) for f in fields]
    known = {block.tag, *(f.key for f in fields)}
    for key in d:
        if key not in known:
            raise SpecFormatError(f"{path}.{key}", "unknown field")
    args = {}
    try:
        for key, conv, attr, optional in fields:
            if optional and d.get(key) is None:
                args[attr or key] = None
            else:
                args[attr or key] = conv.read(_require(d, key, path), f"{path}.{key}")
        return make(**args)
    except SpecFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(path, str(exc)) from exc


def _write(block: _Block, obj) -> dict:
    """The document block of obj, which ``_read`` reads back as obj."""
    for tag, (make, fields) in block.forms.items():
        if isinstance(make, type) and isinstance(obj, make):
            d = {block.tag: tag} if block.tag else {}
            for key, conv, attr, optional in (_Field(*f) for f in fields):
                value = getattr(obj, attr or key)
                if not (optional and value is None):
                    d[key] = conv.write(value)
            return d
    raise TypeError(f"no {block.noun} form writes {obj!r}")


def _one(block: _Block) -> _Conv:
    return _Conv(partial(_read, block), partial(_write, block))


def _each(block: _Block) -> _Conv:
    return _Conv(
        lambda ds, path: tuple(_read(block, d, f"{path}[{j}]") for j, d in enumerate(ds)),
        lambda objs: [_write(block, obj) for obj in objs],
    )


_FLOAT = _Conv(lambda x, path: float(x), lambda x: x)
_INT = _Conv(lambda x, path: _integer(x), int)
_FLOATS = _Conv(lambda xs, path: tuple(float(x) for x in xs), list)
_INTS = _Conv(lambda xs, path: tuple(_integer(x) for x in xs), list)
_INT_ROWS = _Conv(lambda rows, path: tuple(_INTS.read(row, path) for row in rows),
                  lambda rows: [list(row) for row in rows])

# a state function field; bound late, as a clamp nests one in the registry below
_STATE = _Conv(lambda d, path: _read(_STATE_FN, d, path), lambda f: _write(_STATE_FN, f))
_STATE_FN = _Block("kind", "state function", {
    "constant": (laws.Constant, [("value", _FLOAT)]),
    "power": (laws.Power, [("coeff", _FLOAT), ("exponent", _FLOAT)]),
    "table": (laws.Table, [("breaks", _FLOATS), ("values", _FLOATS)]),
    "clamp": (laws.Clamp, [
        ("inner", _STATE), _Field("lo", _FLOAT, optional=True), _Field("hi", _FLOAT, optional=True),
    ]),
})
_MARGINAL = _Block("family", "offspring", {
    "poisson": (laws.PoissonOffspring, [("mean", _FLOAT)]),
    "bernoulli": (laws.BernoulliOffspring, [("prob", _FLOAT)]),
    "geometric": (laws.GeometricOffspring, [("mean", _FLOAT)]),
    "deterministic": (lambda value: laws.TableOffspring((value,), (1.0,)), [("value", _INT)]),
    "table": (laws.TableOffspring, [("values", _INTS), ("probs", _FLOATS)]),
})
_OFFSPRING = _Block("kind", "offspring law", {
    "independent": (laws.IndependentOffspring, [("components", _each(_MARGINAL))]),
    "table": (laws.FiniteOffspring, [("vectors", _INT_ROWS), ("probs", _FLOATS)]),
})
_IMMIGRATION = _Block("family", "immigration", {
    "shifted_poisson": (laws.ShiftedPoissonImmigration, [_Field("mean", _STATE, "mean_fn")]),
    "deterministic": (laws.DeterministicImmigration, [("value", _INT)]),
    "table": (laws.TableImmigration, [("values", _INTS), ("probs", _FLOATS)]),
})
_EMIGRATION = _Block("family", "emigration", {
    "uniform": (laws.UniformEmigration, []),
    "truncated_geometric": (laws.TruncatedGeometricEmigration, [("ratio", _FLOAT)]),
    "inverse_cube": (laws.InverseCubeEmigration, []),
    "deterministic": (laws.DeterministicEmigration, [("value", _INT)]),
})
_COMPONENT = _Block(None, "migration component", {None: (MigrationComponent, [
    ("prob_none", _STATE), ("prob_imm", _STATE), ("prob_em", _STATE),
    _Field("immigration", _one(_IMMIGRATION), optional=True),
    _Field("emigration", _one(_EMIGRATION), optional=True),
])})
_INITIAL = _Block("kind", "initial law", {
    "deterministic": (DeterministicInitial, [("state", _INTS)]),
    "table": (TableInitial, [("states", _INT_ROWS), ("probs", _FLOATS)]),
})


def spec_from_dict(doc: dict) -> ModelSpec:
    """Build and validate a ModelSpec from a configuration document.

    Unknown top-level keys are allowed (experiment layers attach e.g. a
    ``limit`` block); unknown or missing fields inside the model blocks
    raise SpecFormatError naming the field.  ``dim`` may be left out; where
    present it must be the number of types.
    """
    offspring_doc = _require(doc, "offspring", "")
    if not isinstance(offspring_doc, (list, tuple)):
        raise SpecFormatError("offspring", "expected a list of per-type offspring laws")
    laws = _each(_OFFSPRING).read(offspring_doc, "offspring")
    try:
        offspring = OffspringSpec(laws)
    except ValueError as exc:
        raise SpecFormatError("offspring", str(exc)) from exc
    if "dim" in doc:
        try:
            dim = _integer(doc["dim"])
        except ValueError as exc:
            raise SpecFormatError("dim", str(exc)) from exc
        if dim != offspring.dim:
            raise SpecFormatError(
                "dim", f"{dim} does not match the {offspring.dim} per-type offspring laws"
            )
    migration_doc = _require(doc, "migration", "")
    if not isinstance(migration_doc, (list, tuple)):
        raise SpecFormatError("migration", "expected a list of per-type components")
    if len(migration_doc) != offspring.dim:
        raise SpecFormatError(
            "migration", f"{len(migration_doc)} components for {offspring.dim} types"
        )
    migration = MigrationSpec(_each(_COMPONENT).read(migration_doc, "migration"))
    initial = _read(_INITIAL, _require(doc, "initial", ""), "initial")
    try:
        spec = ModelSpec(offspring, migration, initial)
        spec.validate()
    except SpecFormatError:
        raise
    except ValueError as exc:
        raise SpecFormatError("spec", str(exc)) from exc
    return spec


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "dim": spec.dim,
        "offspring": _each(_OFFSPRING).write(spec.offspring.laws),
        "migration": _each(_COMPONENT).write(spec.migration.components),
        "initial": _write(_INITIAL, spec.initial),
    }


def load_spec(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError("document", f"not valid JSON: {exc}") from exc
    return spec_from_dict(doc)


def spec_digest(spec: ModelSpec) -> str:
    """Stable content hash of the model (formatting-independent)."""
    canonical = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
