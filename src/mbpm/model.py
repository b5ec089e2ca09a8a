"""Model specification and sampling.

A model couples three ingredients: per-type offspring laws, a per-type
migration component (immigration or emigration with state-dependent
probabilities, no change with the rest), and an initial law.  One step
from state z draws the migration adjustment M, then sums z_i + M_i
independent offspring vectors of each type i:

    Z' = sum_i sum_{j <= z_i + M_i} X_{j,i}

Emigration is only possible from types with a positive count (its
probability is 0 at z_i = 0, where removing is a no-op, and "no
migration" takes it), so states never leave the nonnegative orthant.

The migration's state functions read one scalar of a state, its size
s = u . z with u the left Perron weight vector.  ``ModelSpec.size`` is the
one place a size is formed, and it forms none where every state function
is constant; everything downstream (``branch_probs``, the immigration
laws, the migration moments) reads s, never u.

``ModelSpec`` holds the per-type parts as tuples, ``spec.offspring[i]``
and ``spec.migration[i]``, and counts the types once, when it is built.

One kernel, ``advance``, draws every transition: it steps an (R, p) array
of states with a fixed sequence of numpy calls in two half-steps, each a
module function of the spec.  ``sample_migration`` draws per type: it
forms the rows' sizes once per step and reads each component's branch
probabilities at them (``branch_probs``), so constant and state-dependent
documents take the same path.  ``sample_offspring`` draws per parent
type, or, when every offspring count is Poisson, in one call: the
children of type j from all parents are a sum of independent Poissons,
hence Poisson with the summed rate.
``sample_step_batch`` steps one state broadcast to many rows.  Every
trajectory runs through one loop, ``_trajectories``: ``simulate_path``
on a single row, the ensembles in ``montecarlo`` once per block.

The mean matrix convention is column-per-parent: mean_matrix()[i, j] is
the expected number of type-i children of one type-j parent, and the
conditional mean acts as a left matrix product.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import algebra, laws
from .laws import (
    _PROB_TOL,
    EmigrationLaw,
    ImmigrationLaw,
    IndependentOffspring,
    PoissonOffspring,
    StateFunction,
    limit_of,
    poisson_draws,
)


class SpecFormatError(ValueError):
    """Malformed specification document; ``field`` names the offending entry."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MigrationComponent:
    """Migration behaviour of one type: immigration, emigration, or nothing."""

    prob_imm: StateFunction
    prob_em: StateFunction
    immigration: Optional[ImmigrationLaw] = None
    emigration: Optional[EmigrationLaw] = None

    def branch_probs(self, s, zi):
        """Effective (none, immigration, emigration) probabilities at the
        size s (``ModelSpec.size``) of a state with this type's count zi.

        ``s`` and ``zi`` are one state's, or one per row of a stack of
        states (R,); each probability is then a scalar or one value per
        row.  ``s`` is None where no state function reads the size.  A
        branch without a law has probability 0, and so has emigration
        where the type's count is zero: there is nothing to remove, so the
        branch is a no-op there.  Only then do constant probabilities
        become per-row arrays.  The kernel calls this at every step, so the
        zero-count mask is built only where there is an emigration law.
        No migration takes the remainder, 1 - (pi + pe).

        This fold, with the ``pe > 0`` mask of ``sample_migration``, is the
        one place the zero-count rule lives: the emigration laws are
        defined only on counts >= 1, and every caller (the kernel,
        ``moments`` and ``classify``) reaches them only where pe > 0.
        """
        pi = 0.0 if self.immigration is None else self.prob_imm(s)
        pe = 0.0 if self.emigration is None else self.prob_em(s)
        if self.emigration is not None and np.count_nonzero(empty := zi <= 0):
            pe = np.where(empty, 0.0, pe)
        return 1.0 - (pi + pe), pi, pe

    def state_functions(self) -> tuple:
        """The immigration and emigration probabilities, followed by the
        immigration mean where there is an immigration law."""
        fns = (self.prob_imm, self.prob_em)
        return fns if self.immigration is None else fns + (self.immigration.mean_fn,)


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


@dataclass(frozen=True)
class TableInitial:
    states: tuple  # of int tuples
    probs: tuple

    def __post_init__(self):
        laws.check_table(self.states, self.probs, "initial table", ndim=2)

    @property
    def dim(self) -> int:
        return len(self.states[0])

    def sample(self, rng, size: int):
        """``size`` initial states, one per row."""
        idx = rng.choice(len(self.states), p=self.probs, size=size)
        return np.asarray(self.states, dtype=np.int64)[idx]


InitialLaw = DeterministicInitial | TableInitial


class ModelSpec:
    """One joint offspring law and one migration component per type, and
    an initial law, with cached spectral data."""

    def __init__(self, offspring, migration, initial: InitialLaw):
        self.offspring = offspring = tuple(offspring)
        self.migration = migration = tuple(migration)
        self.initial = initial
        p = len(offspring)
        if p == 0:
            raise SpecFormatError("offspring", "offspring spec needs at least one type")
        for i, law in enumerate(offspring):
            if law.dim != p:
                raise SpecFormatError(
                    "offspring", f"offspring law for type {i} produces {law.dim}-vectors "
                    f"in a {p}-type model"
                )
        if len(migration) != p:
            raise SpecFormatError("migration", f"{len(migration)} components for {p} types")
        if initial.dim != p:
            raise ValueError(f"initial law produces {initial.dim}-vectors in a {p}-type model")
        self._spectral = None
        self._u = None  # the weights of the size, where the migration reads it
        if any(laws.reads_size(f) for comp in migration for f in comp.state_functions()):
            try:
                self._u = self.spectral().u
            except ValueError as exc:
                raise ValueError(
                    "migration uses size-dependent state functions, which need the "
                    "left Perron weights, but the offspring mean matrix is not "
                    "primitive"
                ) from exc

    @property
    def dim(self) -> int:
        return len(self.offspring)

    def mean_matrix(self):
        # column j = mean children vector of a type-j parent
        return np.stack([law.mean_vec() for law in self.offspring], axis=1)

    def cov_tensor(self):
        # cov_tensor()[i] = covariance of the children vector of a type-i parent
        return np.stack([law.cov() for law in self.offspring], axis=0)

    @cached_property
    def poisson_means(self):
        """The mean matrix if every child count of every parent is Poisson, else None."""
        if all(
            isinstance(law, IndependentOffspring)
            and all(isinstance(c, PoissonOffspring) for c in law.components)
            for law in self.offspring
        ):
            return self.mean_matrix()
        return None

    @cached_property
    def _largest(self):
        """(largest, widest): largest[i, j] is the largest count of child type
        j from one parent of type i, 0 where the law has none, and widest the
        largest column sum; None if no law has a largest count."""
        largest = np.array([law.largest_vec() for law in self.offspring], dtype=object)
        widest = int(largest.sum(axis=0).max())
        return (largest, widest) if widest else None

    def spectral(self) -> algebra.SpectralData:
        if self._spectral is None:
            self._spectral = algebra.perron(self.mean_matrix())
        return self._spectral

    def size(self, z):
        """The size s = u . z that the state functions read: a float for one
        state (p,), one per row for a stack (R, p); None where no state
        function reads it (``laws.reads_size``).

        The one place a size is formed.  u, the left Perron weight vector,
        is found once, when the spec is built; a constant-only spec needs
        none, so its mean matrix need not be primitive.
        """
        return None if self._u is None else algebra.weigh(z, self._u)

    def validate(self):
        """Check the probability and immigration-mean invariants at every size
        (``_check_branches``), so that no migration, the remainder, is a
        probability too.

        First at probe states: zero, the unit states and two more; where a
        probe leaves the type empty, its emigration probability is 0, as
        ``branch_probs`` gives it, whatever the state function reads.  Then as
        functions of the size s: at every knee of a state function (a
        ``Table`` break, a size where the inner function of a ``Clamp``
        meets a bound) and in the limit of large sizes.  Between two knees,
        and beyond the last, each state function is a constant or a single
        power, so an unclamped power that leaves [0, 1] fails in the limit.
        The immigration mean is checked with the probabilities, as a state
        function of its own.
        """
        p = self.dim
        probes = [np.zeros(p, dtype=np.int64)]
        probes.extend(np.eye(p, dtype=np.int64))
        probes.append(np.full(p, 5, dtype=np.int64))
        probes.append(np.arange(1, p + 1, dtype=np.int64) * 7)
        for i, comp in enumerate(self.migration):
            fns = comp.state_functions()
            for z in probes:
                s = self.size(z)
                _check_branches(i, comp, f"z={z.tolist()}", [f(s) for f in fns], z[i] > 0)
            for s in sorted({float(s) for f in fns for s in f.knees() if s > 0}):
                _check_branches(i, comp, f"size u.z = {s!r}", [f(s) for f in fns], True)
            values = [limit_of(f.leading()) for f in fns]
            _check_branches(i, comp, "the limit of large sizes", values, True)
        return self


def _check_branches(i: int, comp: MigrationComponent, where: str, values, emigrates):
    """Refuse migration component i's (immigration, emigration)
    probabilities, followed by its immigration mean if it has a law, at one
    place, described by where: each must lie in [0, 1], and their sum must
    not pass 1, which leaves no migration a probability in [0, 1].  Where
    the type's count is 0 (``emigrates`` false), emigration has
    probability 0, as ``branch_probs`` gives it, and its state function is
    not read there."""
    pi, pe = values[:2]
    if not emigrates:
        pe = 0.0
    if not 0.0 <= pi <= 1.0 + _PROB_TOL:
        raise ValueError(f"migration[{i}].prob_imm = {pi} at {where} is outside [0, 1]")
    if comp.immigration is None and pi > 0.0:
        raise ValueError(
            f"migration[{i}] has immigration probability {pi} at {where} "
            "but no immigration law"
        )
    if not 0.0 <= pe <= 1.0 + _PROB_TOL:
        raise ValueError(f"migration[{i}].prob_em = {pe} at {where} is outside [0, 1]")
    if comp.emigration is None and pe > 0.0:
        raise ValueError(
            f"migration[{i}] has emigration probability {pe} at {where} "
            "but no emigration law"
        )
    if pi + pe > 1.0 + _PROB_TOL:
        raise ValueError(f"migration[{i}] immigration and emigration probabilities sum to "
                         f"{pi + pe} at {where}, past 1")
    for mean in values[2:]:
        if not mean >= 1.0 - _PROB_TOL:
            raise ValueError(f"migration[{i}] immigration mean {mean} at {where} is below 1")


# ---------------------------------------------------------------------------
# Sampling: one transition kernel on arrays of states
# ---------------------------------------------------------------------------


def sample_migration(spec: ModelSpec, Z, rng):
    """Migration adjustments M (R, p) for the states Z (R, p).

    The rows' sizes are formed once (``ModelSpec.size``; none where the
    migration reads no size).  Per type, ``branch_probs`` at these sizes
    and counts gives the branch intervals of a uniform x: immigration on
    [pn, pn + pi), emigration on [pn + pi, 1) where pe > 0.  One uniform
    per row chooses the row's branch; immigration and emigration then draw
    only for the rows in their branch, at those rows' sizes and counts,
    which they reach through index arrays (``mask.nonzero()[0]``): at tens of
    thousands of rows numpy scatters and gathers by index several times
    faster than by boolean mask.  The pe > 0 mask, with the fold in
    ``branch_probs``, is the one place the zero-count rule lives: at a
    folded row pn + pi can round to just below 1, and the mask keeps that
    row's count of 0 away from the emigration law.  Where pn is one scalar
    <= 0 and pn + pi >= 1, every row immigrates, and the draw takes no
    index.  The uniforms are drawn even then, so the stream does not
    depend on the shortcut.

    The adjustments are written type-major, one contiguous row of a (p, R)
    buffer per type, and returned as its transpose: an F-ordered (R, p)
    view, whose columns ``sample_offspring`` reads as rows.
    """
    s = spec.size(Z)
    R = len(Z)
    out = np.zeros((spec.dim, R), dtype=np.int64)
    for i, comp in enumerate(spec.migration):
        zi, row = Z[:, i], out[i]
        pn, pi, pe = comp.branch_probs(s, zi)
        hi = pn + pi
        x = rng.random(R)
        if isinstance(hi, float) and pn <= 0.0 and hi >= 1.0 and R:  # zero rows draw nothing
            row[:] = comp.immigration.sample_batch(rng, R, s)
            continue
        imm = ((x >= pn) & (x < hi)).nonzero()[0]
        if imm.size:
            row[imm] = comp.immigration.sample_batch(rng, imm.size, s, imm)
        em = ((x >= hi) & (pe > 0.0)).nonzero()[0]
        if em.size:
            row[em] = -comp.emigration.sample_batch(rng, zi[em])
    return out.T


def _check_int64(spec: ModelSpec, counts):
    """Refuse a row whose parents could have more children of one type
    than int64 holds, naming the row and the child type.

    One max reduction decides whether any row can come near; only then
    are the rows' bounds summed, exactly, in Python integers.
    """
    if spec._largest is None:
        return
    largest, widest = spec._largest
    if int(counts.max(initial=0)) * widest <= _INT64_MAX:
        return
    bounds = counts.astype(object) @ largest
    for r, j in np.argwhere(bounds > _INT64_MAX)[:1]:
        raise ValueError(
            f"the parents of row {r} could have {bounds[r, j]} children of type {j}, "
            f"past int64 ({_INT64_MAX})"
        )


def sample_offspring(spec: ModelSpec, counts, rng):
    """Children (R, p) of the parent counts (R, p), summed over all parents.

    All-Poisson laws draw once per row and child type, at the rate
    (counts @ m.T)[r, j].  The rates are summed parent by parent rather
    than by a BLAS product, whose fused multiply-adds vary by CPU: the
    draws must not.  They are formed type-major, a (p, R) array from
    the rows of counts.T (contiguous where counts is the transpose of
    ``sample_migration``'s buffer), and drawn through its transpose in
    the C order of (R, p).  With one type the rate is counts * mean, as
    in ``PoissonOffspring``.  Other laws draw parent type by parent
    type, after ``_check_int64``: numpy would wrap a sum past int64
    silently.  Either way the children come back C-ordered.
    """
    m = spec.poisson_means
    if m is not None:
        c = counts.T
        rates = c[0] * m[:, :1]
        for i in range(1, spec.dim):
            rates += c[i] * m[:, i, None]
        return poisson_draws(rng, rates.T)
    _check_int64(spec, counts)
    out = np.zeros(counts.shape, dtype=np.int64)
    for i, law in enumerate(spec.offspring):
        law.sample_sum_batch(rng, counts[:, i], out)
    return out


def advance(spec: ModelSpec, Z, rng):
    """The next generation of every row of the int64 states Z (R, p).

    Migration first (``sample_migration``, at the rows' sizes), then every
    parent present sums its offspring (``sample_offspring``).  The draws
    are a fixed sequence of numpy calls, so the same rows from the same
    stream give the same result.  ``Z`` may be a read-only view, such as
    one state broadcast to R rows, or F-ordered; the next generation is
    C-ordered either way.
    """
    counts = sample_migration(spec, Z, rng)
    counts += Z
    return sample_offspring(spec, counts, rng)


def _trajectories(spec: ModelSpec, n: int, steps, rng, out, first: int = 0):
    """out, int64 (rows, len(steps), p), filled with len(out) rows drawn
    from the initial law and advanced n steps, kept at steps: increasing
    ints in [0, n] ending at n.  A ValueError from the kernel is raised
    again with the step and the first replicate of the block, whose row r
    is replicate first + r.
    """
    Z = spec.initial.sample(rng, len(out))
    j = 0
    try:
        for k in range(n):
            if k == steps[j]:
                out[:, j] = Z
                j += 1
            Z = advance(spec, Z, rng)
    except ValueError as exc:
        raise ValueError(
            f"step {k + 1} of {n}, block from replicate {first} (row r is "
            f"replicate {first} + r): {exc}"
        ) from exc
    out[:, j] = Z  # steps[j] == n
    return out


def simulate_path(spec: ModelSpec, n: int, rng) -> np.ndarray:
    """The (n + 1, p) int64 states of n steps from the initial law: the
    trajectory loop on a single row, every step kept."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    states = np.empty((1, n + 1, spec.dim), dtype=np.int64)
    return _trajectories(spec, n, range(n + 1), rng, states)[0]


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


def _integer(x, path: str) -> int:
    """An integer field's value: an int, or an integral float such as 1.0,
    within int64."""
    integral = isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer()
    if not integral or isinstance(x, bool):
        raise SpecFormatError(path, f"expected an integer, got {x!r}")
    if not -_INT64_MAX - 1 <= x <= _INT64_MAX:
        raise SpecFormatError(path, f"expected an integer within int64, got {x!r}")
    return int(x)


def _number(x, path: str) -> float:
    """A real-number field's value: a finite int or float, never a bool or a string."""
    real = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    if not (real and math.isfinite(x)):
        raise SpecFormatError(path, f"expected a finite number, got {x!r}")
    return float(x)


def _numbers(xs, path: str, size: Optional[int] = None) -> list:
    """A list field's numbers, each read by ``_number``; ``size`` of them where given."""
    if not isinstance(xs, (list, tuple)) or size not in (None, len(xs)):
        count = "" if size is None else f"{size} "
        raise SpecFormatError(path, f"expected a list of {count}numbers, got {xs!r}")
    return [_number(x, f"{path}[{j}]") for j, x in enumerate(xs)]


def _integers(xs, path: str) -> tuple:
    """A list field's integers, each read by ``_integer``."""
    if not isinstance(xs, (list, tuple)):
        raise SpecFormatError(path, f"expected a list of integers, got {xs!r}")
    return tuple(_integer(x, f"{path}[{j}]") for j, x in enumerate(xs))


def _integer_rows(rows, path: str) -> tuple:
    """A list field's integer lists, each read by ``_integers``."""
    if not isinstance(rows, (list, tuple)):
        raise SpecFormatError(path, f"expected a list of integer lists, got {rows!r}")
    return tuple(_integers(row, f"{path}[{j}]") for j, row in enumerate(rows))


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
    def read(ds, path: str) -> tuple:
        if not isinstance(ds, (list, tuple)):
            raise SpecFormatError(path, f"expected a list of mappings, got {ds!r}")
        return tuple(_read(block, d, f"{path}[{j}]") for j, d in enumerate(ds))

    return _Conv(read, lambda objs: [_write(block, obj) for obj in objs])


_FLOAT = _Conv(_number, lambda x: x)
_INT = _Conv(_integer, int)
_FLOATS = _Conv(lambda xs, path: tuple(_numbers(xs, path)), list)
_INTS = _Conv(_integers, list)
_INT_ROWS = _Conv(_integer_rows, lambda rows: [list(row) for row in rows])

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
    ("prob_imm", _STATE), ("prob_em", _STATE),
    _Field("immigration", _one(_IMMIGRATION), optional=True),
    _Field("emigration", _one(_EMIGRATION), optional=True),
])})
_INITIAL = _Block("kind", "initial law", {
    "deterministic": (DeterministicInitial, [("state", _INTS)]),
    "table": (TableInitial, [("states", _INT_ROWS), ("probs", _FLOATS)]),
})


# the model's fields, then the extras the command line's suites read
_DOCUMENT_KEYS = ("dim", "offspring", "migration", "initial",
                  "reference_state", "limit", "expected_verdict", "explosion_bounds")


def spec_from_dict(doc: dict) -> ModelSpec:
    """Build and validate a ModelSpec from a configuration document.

    An unknown or missing field, at the top level (``_DOCUMENT_KEYS``) or
    inside a model block, raises SpecFormatError naming the field.  ``dim``
    may be left out; where present it must be the number of types.
    """
    for key in _mapping(doc, ""):
        if key not in _DOCUMENT_KEYS:
            raise SpecFormatError(key, "unknown field")
    offspring = _each(_OFFSPRING).read(_require(doc, "offspring", ""), "offspring")
    migration = _each(_COMPONENT).read(_require(doc, "migration", ""), "migration")
    initial = _read(_INITIAL, _require(doc, "initial", ""), "initial")
    try:
        spec = ModelSpec(offspring, migration, initial)
        if "dim" in doc and (dim := _integer(doc["dim"], "dim")) != spec.dim:
            raise SpecFormatError(
                "dim", f"{dim} does not match the {spec.dim} per-type offspring laws"
            )
        spec.validate()
    except SpecFormatError:
        raise
    except ValueError as exc:
        raise SpecFormatError("spec", str(exc)) from exc
    return spec


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "dim": spec.dim,
        "offspring": _each(_OFFSPRING).write(spec.offspring),
        "migration": _each(_COMPONENT).write(spec.migration),
        "initial": _write(_INITIAL, spec.initial),
    }


def _load_document(path) -> dict:
    """The JSON document at path.  Raises SpecFormatError on text that is
    not JSON or holds a NaN or Infinity literal, FileNotFoundError if there
    is no file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=lambda name: _number(float(name), "document"))
        except json.JSONDecodeError as exc:
            raise SpecFormatError("document", f"not valid JSON: {exc}") from exc


def load_spec(path) -> ModelSpec:
    return spec_from_dict(_load_document(path))


def spec_digest(spec: ModelSpec) -> str:
    """Stable content hash of the model (formatting-independent)."""
    import hashlib  # here, not at the top: loading a document needs no OpenSSL

    canonical = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
