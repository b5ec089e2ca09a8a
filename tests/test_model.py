"""Model assembly, sampling, and round-trip serialization."""
import copy
import json
import math

import numpy as np
import pytest

import oracles
from conftest import SHIPPED, load_doc, spec_path
from mbpm import (
    BernoulliOffspring,
    Clamp,
    Constant,
    DeterministicEmigration,
    DeterministicImmigration,
    DeterministicInitial,
    FiniteOffspring,
    GeometricOffspring,
    InverseCubeEmigration,
    MigrationComponent,
    ModelSpec,
    PoissonOffspring,
    IndependentOffspring,
    Power,
    ShiftedPoissonImmigration,
    SpecFormatError,
    Table,
    TableImmigration,
    TableInitial,
    TableOffspring,
    TruncatedGeometricEmigration,
    UniformEmigration,
    advance,
    cli,
    cond_var,
    load_spec,
    migration_atoms,
    run_ensemble,
    sample_migration,
    sample_offspring,
    sample_step_batch,
    sigma2,
    simulate_path,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
    stream_for,
)
from mbpm.model import _PROB_TOL


def single_type_spec(prob_imm=0.5, prob_em=0.0, immigration=None):
    offspring = (IndependentOffspring(components=(PoissonOffspring(mean=1.0),)),)
    comp = MigrationComponent(
        prob_imm=Constant(prob_imm),
        prob_em=Constant(prob_em),
        immigration=immigration,
        emigration=None,
    )
    return ModelSpec(offspring, (comp,),
                     DeterministicInitial(state=(1,)))


def offspring_only(*laws):
    """A model of these offspring laws, one per type, without migration."""
    still = MigrationComponent(prob_imm=Constant(0.0), prob_em=Constant(0.0))
    return ModelSpec(laws, [still] * len(laws), DeterministicInitial((0,) * len(laws)))


def test_dimension_mismatch_rejected(two_type_spec):
    with pytest.raises(ValueError):
        ModelSpec(two_type_spec.offspring, two_type_spec.migration,
                  DeterministicInitial(state=(1, 2, 3)))
    with pytest.raises(SpecFormatError, match=r"^migration: 1 components for 2 types$"):
        ModelSpec(two_type_spec.offspring, two_type_spec.migration[:1], two_type_spec.initial)


def test_branch_probs_fold_missing_laws():
    spec = single_type_spec(prob_imm=0.4, prob_em=0.6)
    comp = spec.migration[0]
    pn, pi, pe = comp.branch_probs(spec.size([5]), 5)
    assert (pn, pi, pe) == (1.0, 0.0, 0.0)  # no law: neither branch fires


def test_branch_probs_fold_at_zero_count(emigration_spec):
    comp = emigration_spec.migration[0]
    size = emigration_spec.size
    pn, pi, pe = comp.branch_probs(size([0, 4]), 0)
    assert pe == 0.0 and abs(pn - 1.0) < 1e-12
    pn1, pi1, pe1 = comp.branch_probs(size([4, 0]), 4)
    assert abs(pe1 - 0.5) < 1e-12
    # a stack of states gives per-row probabilities equal to the scalar ones
    Z = np.array([[0, 4], [4, 0], [1, 1]])
    rows = np.broadcast_arrays(*comp.branch_probs(size(Z), Z[:, 0]))
    for r, z in enumerate(Z):
        assert [b[r] for b in rows] == list(comp.branch_probs(size(z), z[0]))
    # constant probabilities stay scalars while no row is empty
    assert all(np.ndim(b) == 0 for b in comp.branch_probs(size(Z[1:]), Z[1:, 0]))


def test_validate_passes_shipped_documents():
    for name in SHIPPED:
        load_spec(spec_path(name)).validate()


def test_validate_rejects_missing_immigration_law():
    spec = single_type_spec(prob_imm=0.5, immigration=None)
    with pytest.raises(ValueError, match="no immigration law"):
        spec.validate()


# A NaN fails every comparison, so each range check must be one that NaN fails.
@pytest.mark.parametrize("make", [
    lambda: PoissonOffspring(math.nan),
    lambda: GeometricOffspring(math.nan),
    lambda: single_type_spec(immigration=ShiftedPoissonImmigration(Constant(math.nan))).validate(),
    lambda: TableOffspring((0, 1), (math.nan, 1.0)),
    lambda: FiniteOffspring(((0,), (1,)), (math.nan, 1.0)),
    lambda: TableImmigration((1, 2), (math.nan, 1.0)),
    lambda: TableInitial(((0,), (1,)), (math.nan, 1.0)),
], ids=["poisson-mean", "geometric-mean", "shifted-poisson-mean", "table-offspring",
        "finite-offspring", "table-immigration", "table-initial"])
def test_nan_parameters_are_refused(make):
    with pytest.raises(ValueError):
        make()


def _table(breaks, values):
    return {"kind": "table", "breaks": breaks, "values": values}


def _power(coeff, exponent):
    return {"kind": "power", "coeff": coeff, "exponent": exponent}


_EMIGRANT = {"family": "deterministic", "value": 1}

_PROBE_GAPS = {
    # refused at the first probe already, by the component and the state
    "mean-constant": (
        {"immigration": {"family": "shifted_poisson", "mean": {"kind": "constant", "value": 0.5}}},
        "spec: migration[0] immigration mean 0.5 at z=[0] is below 1"),
    # immigration and emigration leave no migration -0.1 wherever the type
    # has a count to remove, the first probe after z = [0]
    "sum-at-a-probe": (
        {"prob_imm": {"kind": "constant", "value": 0.6},
         "prob_em": {"kind": "constant", "value": 0.5}, "emigration": _EMIGRANT},
        "spec: migration[0] immigration and emigration probabilities sum to 1.1 at z=[1], "
        "past 1"),
    # ... only from size 100 on, past every probe state
    "sum-at-a-table-knee": (
        {"prob_imm": _table([0, 100], [0.5, 0.8]), "prob_em": _table([0, 100], [0.5, 0.3]),
         "emigration": _EMIGRANT},
        "spec: migration[0] immigration and emigration probabilities sum to 1.1 at size "
        "u.z = 100.0, past 1"),
    # ... only in the limit, where each clamped power reaches its bound
    # beyond every float size
    "sum-in-the-limit": (
        {"prob_imm": {"kind": "clamp", "inner": _power(1e-300, 1e-3), "hi": 0.6},
         "prob_em": {"kind": "clamp", "inner": _power(1e-300, 1e-3), "hi": 0.6},
         "emigration": _EMIGRANT},
        "spec: migration[0] immigration and emigration probabilities sum to 1.2 at the limit "
        "of large sizes, past 1"),
    # max(0.01 s, 1) is 1 up to s = 100 and then grows without bound
    "unclamped-power": (
        {"prob_imm": {"kind": "clamp", "inner": _power(0.01, 1.0), "lo": 1.0}},
        "spec: migration[0].prob_imm = inf at the limit of large sizes is outside [0, 1]"),
    # the immigration mean falls below 1 at size 50
    "mean-table-break": (
        {"immigration": {"family": "shifted_poisson", "mean": _table([0, 50], [2.0, 0.5])}},
        "spec: migration[0] immigration mean 0.5 at size u.z = 50.0 is below 1"),
    # 3 s**-0.1 is above 1 at every probe but tends to 0
    "mean-decays": (
        {"immigration": {"family": "shifted_poisson",
                         "mean": {"kind": "clamp", "inner": _power(3.0, -0.1), "hi": 3.0}}},
        "spec: migration[0] immigration mean 0.0 at the limit of large sizes is below 1"),
    # emigration past 1 wherever the type has a count to remove
    "prob-em-past-one": (
        {"prob_imm": {"kind": "constant", "value": 0.0},
         "prob_em": {"kind": "constant", "value": 1.5}, "emigration": _EMIGRANT},
        "spec: migration[0].prob_em = 1.5 at z=[1] is outside [0, 1]"),
    # emigration with nothing to draw the emigrants from
    "emigration-without-law": (
        {"prob_imm": {"kind": "constant", "value": 0.5},
         "prob_em": {"kind": "constant", "value": 0.3}},
        "spec: migration[0] has emigration probability 0.3 at z=[1] but no emigration law"),
}


@pytest.mark.parametrize("case", sorted(_PROBE_GAPS))
def test_validate_checks_between_the_probe_states(case):
    change, message = _PROBE_GAPS[case]
    doc = load_doc("gamma_single_type")
    doc["migration"][0].update(change)
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(doc)
    assert str(err.value) == message


def test_decaying_emigration_needs_no_clamp():
    # 0.1 / s is inf at s = 0, where the count is 0 and nothing emigrates,
    # and at most 0.1 wherever the type has a count
    doc = load_doc("gamma_single_type")
    doc["migration"][0].update(prob_imm={"kind": "constant", "value": 0.5},
                               prob_em=_power(0.1, -1.0), emigration=_EMIGRANT)
    spec = spec_from_dict(doc)
    comp = spec.migration[0]
    pn, pi, pe = comp.branch_probs(spec.size([0]), 0)
    assert (pn, pi, pe) == (0.5, 0.5, 0.0)
    assert comp.branch_probs(spec.size([4]), 4) == (0.475, 0.5, 0.025)
    Z = advance(spec, np.array([[0], [1], [4]]), np.random.default_rng(0))
    assert (Z >= 0).all()


def test_state_function_knees():
    assert Table((0, 10, 100), (1, 2, 3)).knees() == (0, 10, 100)
    assert Clamp(Power(0.5, 0.5), lo=1.0, hi=2.0).knees() == (4.0, 16.0)
    assert Clamp(Power(2.0, -1.0), hi=1.0).knees() == (2.0,)
    assert Clamp(Power(-1.0, 1.0), lo=0.0).knees() == ()  # meets 0 only at s = 0
    assert Clamp(Clamp(Table((0, 5), (0.2, 3.0)), hi=2.0), lo=0.5).knees() == (0, 5)
    assert Clamp(Power(1e-300, 1e-3), hi=1.0).knees() == ()  # beyond every float
    assert Power(1.0, 2.0).knees() == () and Constant(0.5).knees() == ()


def test_size_is_formed_by_the_spec():
    # u = (1,) on sqrt_drift: one state gives a float, a stack one size per row
    spec = load_spec(spec_path("sqrt_drift_single_type"))
    assert spec.size([7]) == 7.0 and np.ndim(spec.size([7])) == 0
    assert spec.size(np.array([[7], [0], [3]])).tolist() == [7.0, 0.0, 3.0]
    # two types weigh their counts by u, the null state included, and each
    # row of a stack has the size of its state alone, to the bit: no BLAS
    # product forms them
    spec = spec_from_dict(table_branches_doc())
    u = spec.spectral().u
    Z = np.array([[2, 3], [0, 0], [4, 0]])
    alone = [spec.size(z) for z in Z]
    assert alone == [z[0] * u[0] + z[1] * u[1] for z in Z]
    assert spec.size(Z).tolist() == alone
    assert spec.size([0, 0]) == 0.0
    # constant-only migration forms no size, even on a mean matrix that is
    # not primitive; size-dependent migration is refused there
    assert load_spec(spec_path("two_type_mixed")).size(Z) is None
    assert load_spec(spec_path("pure_death")).size([5]) is None
    doc = load_doc("pure_death")
    doc["migration"][0]["prob_em"] = {"kind": "table", "breaks": [0.0, 10.0],
                                      "values": [0.0, 0.0]}
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(doc)
    assert str(err.value) == (
        "spec: migration uses size-dependent state functions, which need the left Perron "
        "weights, but the offspring mean matrix is not primitive")


def test_sample_migration_bounds(two_type_spec):
    rng = np.random.default_rng(0)
    Z = np.tile([[50, 30], [0, 2], [1, 0]], (200, 1))
    m = sample_migration(two_type_spec, Z, rng)
    assert m.shape == Z.shape
    assert (Z + m >= 0).all()


def test_step_stays_nonnegative(two_type_spec):
    rng = np.random.default_rng(1)
    z = np.array([50, 30])
    for _ in range(500):
        z = advance(two_type_spec, z[None, :], rng)[0]
        assert z.dtype == np.int64
        assert (z >= 0).all()


def test_simulate_path_shape_and_stream(two_type_spec):
    states = simulate_path(two_type_spec, 100, stream_for(555, 3))
    assert states.shape == (101, 2)
    assert states.dtype == np.int64
    assert (states[0] == [50, 30]).all()
    assert (states >= 0).all()
    # the path is a function of its stream
    again = simulate_path(two_type_spec, 100, stream_for(555, 3))
    assert np.array_equal(states, again)


def test_kernel_error_in_a_path_names_the_step():
    # Poisson(1e9) children: rates 1e9 and ~1e18 pass, the ~1e27 of step 3 does not
    offspring = (IndependentOffspring(components=(PoissonOffspring(1e9),)),)
    stay = MigrationComponent(prob_imm=Constant(0.0), prob_em=Constant(0.0))
    spec = ModelSpec(offspring, (stay,), DeterministicInitial((1,)))
    with pytest.raises(ValueError, match=r"^step 3 of 5, block from replicate 0 \(row r is "
                                         r"replicate 0 \+ r\): Poisson offspring rate .* "
                                         r"at row 0, "):
        simulate_path(spec, 5, stream_for(1, 0))


def test_pure_death_absorbs(pure_death_spec):
    states = simulate_path(pure_death_spec, 10, np.random.default_rng(2))
    assert (states[1:] == 0).all()


def test_batch_and_step_agree_in_law(two_type_spec):
    z = np.array([50, 30])
    batch = sample_step_batch(two_type_spec, z, 200_000, stream_for(77, 0))
    rng = np.random.default_rng(3)
    loop = np.array([advance(two_type_spec, z[None, :], rng)[0] for _ in range(20_000)])
    bm, lm = batch.mean(axis=0), loop.mean(axis=0)
    se = np.sqrt(batch.var(axis=0) / len(batch) + loop.var(axis=0) / len(loop))
    assert (np.abs(bm - lm) < 5 * se + 1e-9).all()


def assert_step_law_matches_enumeration(doc, spec, z):
    """200k one-step draws from z are within TV 0.01 of the exact law."""
    exact = oracles.one_step_pmf(doc, z)
    assert abs(sum(exact.values()) - 1.0) < 1e-12
    batch = sample_step_batch(spec, np.array(z), 200_000, stream_for(42, 0))
    states, counts = np.unique(batch, axis=0, return_counts=True)
    emp = {tuple(int(x) for x in s): c / len(batch)
           for s, c in zip(states, counts)}
    assert oracles.total_variation(exact, emp) < 0.01


def test_one_step_pmf_matches_enumeration(small_support_spec):
    assert_step_law_matches_enumeration(load_doc("small_support"), small_support_spec, (2, 1))


# ---------------------------------------------------------------------------
# offspring: one pooled Poisson draw, or parent by parent
# ---------------------------------------------------------------------------

def pooled_small_support_doc():
    """small_support's migration with Poisson children of both types.

    The means differ by parent and child type, so a transposed mean matrix
    gives a different law.
    """
    doc = copy.deepcopy(load_doc("small_support"))
    doc["offspring"] = [
        {"kind": "independent",
         "components": [{"family": "poisson", "mean": a}, {"family": "poisson", "mean": b}]}
        for a, b in [(0.5, 0.2), (0.3, 0.6)]
    ]
    return doc


def mixed_family_spec():
    """A Poisson parent and a Table parent: not poolable."""
    doc = copy.deepcopy(load_doc("small_support"))
    doc["offspring"][0] = {"kind": "independent",
                           "components": [{"family": "poisson", "mean": 0.5}] * 2}
    return spec_from_dict(doc)


def reference_advance(spec, Z, rng):
    """The kernel with every parent type drawing its own children."""
    counts = sample_migration(spec, Z, rng) + Z
    out = np.zeros_like(counts)
    for i, law in enumerate(spec.offspring):
        law.sample_sum_batch(rng, counts[:, i], out)
    return out


def test_poisson_documents_pool_their_offspring():
    for name in ["gamma_single_type", "sqrt_drift_single_type", "two_type_mixed",
                 "pure_emigration", "two_type_coupled"]:
        spec = load_spec(spec_path(name))
        assert np.array_equal(spec.poisson_means, spec.mean_matrix())
    for name in ["small_support", "pure_death"]:
        assert load_spec(spec_path(name)).poisson_means is None
    assert mixed_family_spec().poisson_means is None


def test_pooled_one_step_pmf_matches_enumeration():
    doc = pooled_small_support_doc()
    spec = spec_from_dict(doc)
    assert spec.poisson_means is not None
    assert_step_law_matches_enumeration(doc, spec, (1, 1))


@pytest.mark.parametrize("name", ["gamma_single_type", "sqrt_drift_single_type"])
def test_single_type_pooled_draws_equal_per_parent_draws(name):
    # one type: the pooled rate is counts * mean, drawn in the same order
    spec = load_spec(spec_path(name))
    rng_a, rng_b = stream_for(7, 0), stream_for(7, 0)
    Z = np.arange(256, dtype=np.int64)[:, None] % 40
    for _ in range(30):
        nxt = advance(spec, Z, rng_a)
        assert np.array_equal(nxt, reference_advance(spec, Z, rng_b))
        Z = nxt


def test_mixed_family_draws_parent_by_parent():
    spec = mixed_family_spec()
    rng_a, rng_b = stream_for(8, 0), stream_for(8, 0)
    Z = np.stack([np.arange(256) % 7, np.arange(256) % 5], axis=1).astype(np.int64)
    for _ in range(30):
        nxt = advance(spec, Z, rng_a)
        assert np.array_equal(nxt, reference_advance(spec, Z, rng_b))
        Z = nxt


@pytest.mark.parametrize("name", ["two_type_mixed", "small_support"])
def test_zero_count_rows_have_no_children(name):
    spec = load_spec(spec_path(name))
    counts = np.array([[0, 0], [40, 0], [0, 0], [0, 40], [0, 0]], dtype=np.int64)
    kids = sample_offspring(spec, counts, np.random.default_rng(9))
    assert kids.shape == counts.shape and kids.dtype == np.int64
    assert (kids[[0, 2, 4]] == 0).all()
    assert kids[[1, 3]].sum() > 0
    empty = sample_offspring(spec, counts[:0], np.random.default_rng(9))
    assert empty.shape == (0, 2)


def test_pooled_rate_past_numpy_limit_is_named():
    # each parent's rate 2^62 is fine, their pooled sum 2^63 is not
    unit = IndependentOffspring(components=(PoissonOffspring(1.0), PoissonOffspring(1.0)))
    spec = offspring_only(unit, unit)
    counts = np.array([[1, 1], [2**62, 2**62]], dtype=np.int64)
    with pytest.raises(ValueError, match=r"rate 9\.223372037e\+18 at row 1, child type 0 is "
                                         r"past numpy's Poisson limit 9\.223372006e\+18"):
        sample_offspring(spec, counts, np.random.default_rng(0))
    # asymmetric means: only child type 1 of row 2 passes the limit, and the
    # rates, formed type-major, are still named by row and child type
    skew = IndependentOffspring(components=(PoissonOffspring(1.0), PoissonOffspring(2.0)))
    spec = offspring_only(skew, skew)
    counts = np.array([[1, 1], [2**60, 2**60], [2**61, 2**61]], dtype=np.int64)
    with pytest.raises(ValueError, match=r"rate 9\.223372037e\+18 at row 2, child type 1 is "):
        sample_offspring(spec, counts, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"at row 2, child type 1 is "):
        sample_offspring(spec, np.asfortranarray(counts), np.random.default_rng(0))


@pytest.mark.parametrize("law", [
    IndependentOffspring(components=(TableOffspring((0, 1, 3), (0.5, 0.25, 0.25)),
                                     BernoulliOffspring(0.5))),
    FiniteOffspring(vectors=((0, 0), (3, 1)), probs=(0.5, 0.5)),
], ids=["independent", "finite"])
def test_children_past_int64_are_refused_before_the_draw(law):
    # a parent of either type has at most 3 children of type 0, so the rows'
    # bounds are 3 (z_0 + z_1): exactly 2^63 - 2 in row 0, 2^63 + 1 in row 1
    spec = offspring_only(law, law)
    edge = (2**63 - 1) // 3
    counts = np.array([[edge, 0], [edge, 1], [2**62, 0]], dtype=np.int64)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=rf"^the parents of row 1 could have {3 * edge + 3} "
                                         r"children of type 0, past int64"):
        sample_offspring(spec, counts, rng)
    assert rng.random() == np.random.default_rng(0).random()  # nothing was drawn
    assert sample_offspring(spec, counts[:1], rng).shape == (1, 2)


def test_supercritical_ensemble_stops_before_int64_wraps(small_support_spec):
    # Perron root 1.227: unguarded, states wrap negative at step 202 and
    # numpy's multinomial fails at step 203 with a bare "n < 0"; the
    # worst-case bound (two children of type 0 per type-0 parent, one per
    # type-1 parent) passes int64 at step 199
    with pytest.raises(ValueError, match=r"^step 199 of 400, block from replicate 0 .*: the "
                                         r"parents of row 19 could have \d+ children of type "
                                         r"0, past int64 \(9223372036854775807\)$"):
        run_ensemble(small_support_spec, 400, 100, 7)


# ---------------------------------------------------------------------------
# migration: one kernel path, whose branch probabilities fold at every step
# ---------------------------------------------------------------------------

def reference_migration(spec, Z, rng):
    """Migration with the branch probabilities evaluated and folded at every
    step, and every branch drawn through a mask."""
    s = spec.size(Z)
    out = np.zeros(Z.shape, dtype=np.int64)
    for i, comp in enumerate(spec.migration):
        zi = Z[:, i]
        pn, pi, pe = comp.branch_probs(s, zi)
        x = rng.random(len(Z))
        imm = (x >= pn) & (x < pn + pi)
        em = (x >= pn + pi) & (pe > 0.0)
        if imm.any():
            out[imm, i] = comp.immigration.sample_batch(rng, int(imm.sum()), s, imm)
        if em.any():
            out[em, i] = -comp.emigration.sample_batch(rng, zi[em])
    return out


def reference_kernel(spec, Z, rng):
    """``advance`` with ``reference_migration``."""
    counts = reference_migration(spec, Z, rng) + Z
    return sample_offspring(spec, counts, rng)


def table_branches_doc():
    """small_support with size-dependent branch probabilities.

    Type 0 has table prob_imm with a table immigration law, so its
    remainder, no migration, is a table too; type 1 has table prob_imm and
    prob_em, so its emigration mask is per row.
    """
    def table(values):
        return {"kind": "table", "breaks": [0.0, 3.0], "values": values}

    doc = copy.deepcopy(load_doc("small_support"))
    m0, m1 = doc["migration"]
    m0["prob_imm"] = table([0.3, 0.6])
    m1["prob_imm"], m1["prob_em"] = table([0.2, 0.1]), table([0.2, 0.3])
    return doc


# about 10^4 sizes: every integer below 1000, where tables break, then a
# geometric grid to 1e15
DENSE_SIZES = np.unique(np.concatenate((np.arange(1000.0), np.geomspace(1.0, 1e15, 9000))))


@pytest.mark.parametrize("name", SHIPPED + ["table_branches"])
def test_state_functions_stay_valid_on_a_dense_grid_of_sizes(name):
    # validation checks probes, knees and the limit; this checks between them,
    # with one vectorised call per state function
    spec = kernel_spec(name)
    for comp in spec.migration:
        pi, pe, *mean = (np.broadcast_to(f(DENSE_SIZES), DENSE_SIZES.shape)
                         for f in comp.state_functions())
        for prob in (pi, pe):
            assert ((prob >= 0.0) & (prob <= 1.0)).all()
        assert (pi + pe <= 1.0 + _PROB_TOL).all()
        for a in mean:
            assert (a >= 1.0 - _PROB_TOL).all()


def kernel_spec(name):
    """A shipped document's spec, or the table_branches one."""
    if name == "table_branches":
        return spec_from_dict(table_branches_doc())
    return load_spec(spec_path(name))


# sha256 of the initial states and the 50 states after them (int64 bytes),
# from stream_for(61, R), for R = 1, 7 and 300.  Recorded again when
# stream_for moved from Philox to SFC64: a change that keeps the kernel's
# draws keeps them.  pure_death draws nothing, so its three did not move.
STREAM_DIGESTS = {
    "gamma_single_type": (
        "c0e81a9aee5a340429a7c5e70b14951597798cef013ee6a6c113c03d9257f15e",
        "c79c72adab6ea0df387b2f426771249aa4f3e57745e050ad3eda30472205bbfe",
        "da91206b9ac64c0de943a79f541ab88122a5a425c15e81cd8978ab0218515421",
    ),
    "sqrt_drift_single_type": (
        "6741d7967373fb07c91045cbee4c79c2914b27339029f29b87db1545a3b53394",
        "e38acc15c0a161857365779d14c1e7e74045938c559c50a9d02613e704e5e934",
        "c83d328a1fb619da2b06906c1ccc05cb2331a217eaecc56737ae375ba7eec77f",
    ),
    "two_type_mixed": (
        "0385dfacc6a118c7bc4fb0fc7618e3906dafa13ff3e93833f6c1d6d813831874",
        "d0b76ec75b47d128cccfc355e0c678440591b8c18e6a2069e04adea4f36c3565",
        "4ca32dd3a06ffd63246b3bb54228ca85218ee28688b712fdc55d93c650e523d6",
    ),
    "two_type_coupled": (
        "4a2b4524cc5812eaaf379c6b018a72840dc10d8a2e93ccb12ac3e05bf9b17c8f",
        "29658d88ad96548740a6c8fea60c51207c5a211b1b8636c2e6f865d015b76d41",
        "76dfa76741d77ef37fa7c6bcb124544aea645002ee0f92eab74fceefd85c1883",
    ),
    "pure_emigration": (
        "e22bacbc25e9f79610dd88bb6f15df03f142f2ee9fe5a21447433f60c2930702",
        "e06a359ee193333ced412aa57548949881d1ab326ca6a5581f9ebb5d3c8771c9",
        "f5c0b788018185b25bbfa8881ace6b4d8f37672fc91fd13b783b723e64ff17e9",
    ),
    "small_support": (
        "2925684b04292efabd927dbc58e814c5b4fe9a8807a371053ecac831c95355a5",
        "d5eee5907e8b626787132efb74e0ccaaf0026d54875b44662e35b9dc4a9fda77",
        "3e03764ba07b1d5a021eff2b11670ec6b7ebd211ecea993f62e717a438987d96",
    ),
    "pure_death": (
        "7ce3b5ecbaadb8c4aba02a0a4d4ee9cf8e5876f3246a0102b20c64ce3a741848",
        "2a754f67eaf53606b33033d989a377114edff83b6bd73187e51ca3e315695337",
        "e91c1e7c0cff6b4eb2e4c6a3c37ae37da213520d1cf6363e82e7b1e07f8b015e",
    ),
    "table_branches": (
        "65593442d3e570b7bc31182cf7c4579fa4220f9022f9ee99aba74c21465c4839",
        "dd0e9901195f324769e168589d19abfab0f5daa1859ed32f4003a5ac5ba197ca",
        "a9f02c24cd7188aacff2b9a80876f589d3c880a318afd4fdeffc503e481219bb",
    ),
}


@pytest.mark.parametrize("R", [1, 7, 300])
@pytest.mark.parametrize("name", SHIPPED + ["table_branches"])
def test_kernel_stream_is_pinned(name, R):
    import hashlib

    spec = kernel_spec(name)
    rng = stream_for(61, R)
    Z = spec.initial.sample(rng, R)
    digest = hashlib.sha256(np.ascontiguousarray(Z, dtype="<i8").tobytes())
    for _ in range(50):
        Z = advance(spec, Z, rng)
        digest.update(np.ascontiguousarray(Z, dtype="<i8").tobytes())
    assert digest.hexdigest() == STREAM_DIGESTS[name][[1, 7, 300].index(R)]


@pytest.mark.parametrize("R", [1, 7, 300])
@pytest.mark.parametrize("name", SHIPPED + ["table_branches"])
def test_kernel_equals_reference_kernel(name, R):
    spec = kernel_spec(name)
    if name == "table_branches":
        assert not any(isinstance(c.prob_imm, Constant) for c in spec.migration)
    rng_a, rng_b = stream_for(61, R), stream_for(61, R)
    Z = spec.initial.sample(rng_a, R)
    assert np.array_equal(Z, spec.initial.sample(rng_b, R))
    empty_rows = 0
    for _ in range(50):
        nxt = advance(spec, Z, rng_a)
        assert np.array_equal(nxt, reference_kernel(spec, Z, rng_b))
        Z = nxt
        empty_rows += int((Z == 0).any(axis=1).sum())
    assert rng_a.random() == rng_b.random()
    if R > 1 and name in ("pure_emigration", "pure_death", "two_type_mixed"):
        assert empty_rows > 0  # rows reach zero, where emigration folds


@pytest.mark.parametrize("name", ["two_type_mixed", "small_support", "sqrt_drift_single_type"])
def test_advance_reads_any_layout_of_the_states(name):
    # C-ordered, F-ordered and broadcast read-only states give the same
    # C-ordered next generation and leave the stream at the same place
    spec = load_spec(spec_path(name))
    rng = stream_for(5, 0)
    Z = spec.initial.sample(rng, 300)
    for _ in range(3):
        Z = advance(spec, Z, rng)
    z = Z[0]
    layouts = {
        "rows": (Z, np.asfortranarray(Z)),
        "one state": (np.tile(z, (300, 1)), np.asfortranarray(np.tile(z, (300, 1))),
                      np.broadcast_to(z, (300, spec.dim))),
    }
    for states in layouts.values():
        assert not states[-1].flags.c_contiguous or spec.dim == 1
        results = []
        for X in states:
            rng = stream_for(6, 0)
            nxt = advance(spec, X, rng)
            assert nxt.flags.c_contiguous
            results.append((nxt, rng.random()))
        for nxt, after in results[1:]:
            assert np.array_equal(nxt, results[0][0]) and after == results[0][1]


def test_branch_probs_fold_missing_laws_and_empty_rows():
    def components(name):
        return load_spec(spec_path(name)).migration

    rows = np.array([3, 0, 1])  # one empty row
    (gamma,) = components("gamma_single_type")
    assert gamma.branch_probs(None, 1) == (0.0, 1.0, 0.0)  # every row immigrates
    (death,) = components("pure_death")
    assert death.branch_probs(None, 1) == (1.0, 0.0, 0.0)
    for em in components("pure_emigration"):
        # no immigration law: prob_imm folds into none; an empty row cannot emigrate
        assert em.branch_probs(None, 1) == (0.5, 0.0, 0.5)
        assert em.branch_probs(None, 0) == (1.0, 0.0, 0.0)
        pn, pi, pe = em.branch_probs(None, rows)
        assert (pn.tolist(), pi, pe.tolist()) == ([0.5, 1.0, 0.5], 0.0, [0.5, 0.0, 0.5])
    imm_em, _ = components("two_type_mixed")
    pn, pi, pe = imm_em.branch_probs(None, 1)
    assert (pn, pn + pi, pe) == (0.5, 0.8, 0.2)
    pn, pi, pe = imm_em.branch_probs(None, 0)
    assert (pn, pn + pi, pe) == (0.7, 1.0, 0.0)
    pn, pi, pe = imm_em.branch_probs(None, rows)
    assert (pn + pi).tolist() == [0.8, 1.0, 0.8] and pn.tolist() == [0.5, 0.7, 0.5]
    assert pe.tolist() == [0.2, 0.0, 0.2]


EMIGRATION_LAWS = (UniformEmigration, TruncatedGeometricEmigration, InverseCubeEmigration,
                   DeterministicEmigration)


def four_emigrations_spec():
    """Four types, one per emigration law, each with Poisson(1/4) children
    of every type (critical) and +1 or -D with probability 1/4 each."""
    offspring = tuple(
        IndependentOffspring(components=(PoissonOffspring(mean=0.25),) * 4) for _ in range(4))
    comps = tuple(
        MigrationComponent(prob_imm=Constant(0.25), prob_em=Constant(0.25),
                           immigration=DeterministicImmigration(value=1),
                           emigration=law)
        for law in (UniformEmigration(), TruncatedGeometricEmigration(ratio=0.5),
                    InverseCubeEmigration(), DeterministicEmigration(value=2)))
    return ModelSpec(offspring, comps,
                     DeterministicInitial(state=(1, 1, 1, 1)))


def test_emigration_laws_see_only_positive_counts(tmp_path, monkeypatch):
    # branch_probs folds an empty type's emigration into "no migration", and
    # the laws are defined only on counts >= 1: check every count they are
    # handed by the kernel, the exact moments and the classifier
    reached = set()

    def checking(law, name, at):
        method = getattr(law, name)

        def wrapped(self, *args):
            lowest = np.min(args[at])
            assert lowest >= 1, f"{law.__name__}.{name} was handed a count of {lowest}"
            reached.add(law)
            return method(self, *args)
        return wrapped

    for law in EMIGRATION_LAWS:
        for name, at in (("raw_moment", 1), ("atoms", 0), ("sample_batch", 1)):
            if hasattr(law, name):
                monkeypatch.setattr(law, name, checking(law, name, at))

    for spec in (load_spec(spec_path("pure_emigration")), load_spec(spec_path("two_type_mixed")),
                 four_emigrations_spec()):
        paths = run_ensemble(spec, 30, 200, 5, steps=range(31), workers=1).states
        assert (paths == 0).any()  # rows reach 0
        for z in ([0] * spec.dim, [0, 4, 0, 9][:spec.dim], [5, 0, 2, 0][:spec.dim]):
            z = np.array(z)
            cond_var(spec, z)
            sigma2(spec, z)
            for i in range(spec.dim):
                migration_atoms(spec, i, z)
    for name in SHIPPED:
        assert cli.main(["--spec", spec_path(name), "--suite", "classify",
                         "--out", str(tmp_path / name)]) == 0
    assert reached == set(EMIGRATION_LAWS)


def test_copied_and_pickled_spec_draws_alike():
    import pickle

    spec = load_spec(spec_path("two_type_mixed"))
    Z = np.array([[0, 3], [5, 0], [2, 2]], dtype=np.int64)
    first = advance(spec, Z, stream_for(4, 0))
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert spec_digest(clone) == spec_digest(spec)
        assert np.array_equal(advance(clone, Z, stream_for(4, 0)), first)


def test_clamped_constant_immigration_mean_reads_no_size():
    # a clamp of a constant reads no size, as the constant does: the spec
    # forms none, and the masked immigration branch draws as the bare one
    doc = load_doc("gamma_single_type")
    comp = doc["migration"][0]
    comp["prob_imm"]["value"] = 0.5
    bare = spec_from_dict(doc)
    comp["immigration"]["mean"] = {"kind": "clamp", "inner": comp["immigration"]["mean"],
                                   "lo": 1.0}
    clamped = spec_from_dict(doc)
    Z = np.arange(1, 41, dtype=np.int64)[:, None]
    assert clamped.size(Z) is None
    m = sample_migration(clamped, Z, stream_for(5, 0))
    assert np.array_equal(m, sample_migration(bare, Z, stream_for(5, 0)))
    assert 0 < np.count_nonzero(m) < len(Z)


def test_immigration_rate_past_numpy_limit_is_named():
    doc = load_doc("gamma_single_type")
    doc["migration"][0]["immigration"]["mean"]["value"] = 1e19
    spec = spec_from_dict(doc)  # the mean is >= 1, so the document is valid
    with pytest.raises(ValueError, match=r"^Poisson immigration rate 1e\+19 is past numpy's "
                                         r"Poisson limit 9\.223372006e\+18$"):
        advance(spec, np.ones((3, 1), dtype=np.int64), stream_for(0, 0))


def test_geometric_offspring_past_numpy_limit_are_named():
    # numpy's own refusal reads "n too large or p too small"
    doc = load_doc("gamma_single_type")
    doc["offspring"][0]["components"][0] = {"family": "geometric", "mean": 1e6}
    doc["migration"][0] = {"prob_imm": {"kind": "constant", "value": 0.0},
                           "prob_em": {"kind": "constant", "value": 0.0}}
    doc["initial"]["state"] = [10**13]
    spec = spec_from_dict(doc)
    with pytest.raises(ValueError, match=r"^geometric offspring of mean 1000000 from "
                                         r"10000000000000 parents are past numpy's "
                                         r"negative-binomial limit$"):
        advance(spec, np.array([spec.initial.state]), stream_for(0, 0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_round_trip_all_documents():
    for name in SHIPPED:
        spec = load_spec(spec_path(name))
        again = spec_from_dict(spec_to_dict(spec))
        assert spec_digest(spec) == spec_digest(again)


def test_digest_ignores_key_order():
    doc = load_doc("two_type_mixed")
    shuffled = json.loads(json.dumps(doc, sort_keys=True))
    reordered = dict(reversed(list(shuffled.items())))
    a = spec_digest(spec_from_dict(doc))
    b = spec_digest(spec_from_dict(reordered))
    assert a == b


def test_digest_distinguishes_models():
    docs = [load_doc("two_type_mixed"), load_doc("gamma_single_type")]
    digests = {spec_digest(spec_from_dict(d)) for d in docs}
    assert len(digests) == 2


def test_from_dict_tolerates_extra_keys():
    doc = load_doc("gamma_single_type")
    assert "limit" in doc  # calibration block rides along in the file
    spec = spec_from_dict(doc)
    assert spec.dim == 1


def test_missing_top_level_field():
    doc = load_doc("gamma_single_type")
    del doc["offspring"]
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(doc)
    assert "offspring" in str(err.value)


def test_bad_nested_field_is_named():
    doc = load_doc("gamma_single_type")
    doc["migration"][0]["prob_imm"]["kind"] = "no-such-function"
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(doc)
    assert "migration[0].prob_imm" in str(err.value)


def test_bad_offspring_family_is_named():
    doc = load_doc("small_support")
    doc["offspring"][1]["components"][0]["family"] = "zeta"
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(doc)
    assert "offspring[1]" in str(err.value)


# The digest of each shipped document.  Reports carry it, so any change in
# what spec_to_dict writes shows here.
SHIPPED_DIGESTS = {
    "gamma_single_type": "df1eca33886ece0913f30d1de12e57e67370826ee353c02b292ad52b58a13f2e",
    "sqrt_drift_single_type": "4e9ad57a02ec0017bc2fc971bf3faec534ffde1eca2cdd7b0d278384c83a4224",
    "two_type_mixed": "5937ae65030edd3dba1449fe10a1a4d43ef91091b4e7de8721cd0a01a1837161",
    "pure_emigration": "58c296098d318ebafe2cf3be5f6f569e5318e3b57c223771c81dd08c305d92ac",
    "small_support": "8f82308b788cbaee618f1801c0f59fd3e559beabf65c88876faef661a146e27e",
    "pure_death": "3c08eabc646b2d0a197d0e94e8adfe92e1335757060ea9d190be629f0b4d0b49",
    "two_type_coupled": "b61f749c782c23efc631785232f039b407cf57214c56a7d5df3fca157bcd26bb",
}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_digests_are_pinned(name):
    assert spec_digest(load_spec(spec_path(name))) == SHIPPED_DIGESTS[name]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_documents_are_canonical(name):
    # the shipped documents are edited by hand: each model block must be
    # what spec_to_dict writes, so a stray or missing field shows by name
    doc = load_doc(name)
    for key, block in spec_to_dict(load_spec(spec_path(name))).items():
        assert doc[key] == block, key


def _const(v):
    return {"kind": "constant", "value": v}


# Every kind and family the schema has: the four state functions (a power
# outside a clamp, a clamp with only lo, one with only hi), the five
# marginals (with the read-only `deterministic` alias of a one-atom table),
# both offspring kinds, three immigration and four emigration families, and
# a table initial law (ALL_FAMILIES_DETERMINISTIC has the other kind).
ALL_FAMILIES = {
    "dim": 4,
    "offspring": [
        {"kind": "independent", "components": [
            {"family": "poisson", "mean": 0.3}, {"family": "bernoulli", "prob": 0.2},
            {"family": "geometric", "mean": 0.25}, {"family": "deterministic", "value": 1}]},
        {"kind": "table", "vectors": [[1, 0, 1, 0], [0, 1, 0, 1]], "probs": [0.5, 0.5]},
        {"kind": "independent", "components": [
            {"family": "table", "values": [0, 1], "probs": [0.6, 0.4]},
            {"family": "poisson", "mean": 0.2}, {"family": "poisson", "mean": 0.2},
            {"family": "bernoulli", "prob": 0.3}]},
        {"kind": "independent", "components": [
            {"family": "geometric", "mean": 0.1},
            {"family": "table", "values": [0, 2], "probs": [0.9, 0.1]},
            {"family": "poisson", "mean": 0.1}, {"family": "poisson", "mean": 0.5}]},
    ],
    "migration": [
        {"prob_imm": {"kind": "table", "breaks": [0.0, 10.0], "values": [0.3, 0.2]},
         "prob_em": {"kind": "table", "breaks": [0.0, 10.0], "values": [0.2, 0.3]},
         "immigration": {"family": "shifted_poisson", "mean": {
             "kind": "clamp", "inner": {"kind": "power", "coeff": 1.0, "exponent": 0.5},
             "lo": 1.0}},
         "emigration": {"family": "uniform"}},
        {"prob_imm": {"kind": "clamp", "inner": _const(0.3), "hi": 0.2},
         "prob_em": _const(0.2),
         "immigration": {"family": "deterministic", "value": 2},
         "emigration": {"family": "truncated_geometric", "ratio": 0.5}},
        {"prob_imm": _const(0.3), "prob_em": _const(0.2),
         "immigration": {"family": "table", "values": [1, 3], "probs": [0.5, 0.5]},
         "emigration": {"family": "inverse_cube"}},
        {"prob_imm": _const(0.0), "prob_em": {"kind": "power", "coeff": 0.3, "exponent": 0.0},
         "emigration": {"family": "deterministic", "value": 1}},
    ],
    "initial": {"kind": "table", "states": [[1, 0, 0, 0], [0, 1, 1, 1]], "probs": [0.5, 0.5]},
}
ALL_FAMILIES_DETERMINISTIC = dict(ALL_FAMILIES,
                                  initial={"kind": "deterministic", "state": [1, 2, 0, 3]})


@pytest.mark.parametrize("doc, digest", [
    (ALL_FAMILIES, "fd154e986ead71d9b84ba035576d05b5550a5d61860e807979151eb979893120"),
    (ALL_FAMILIES_DETERMINISTIC,
     "1262a7407795740261c8bb5726f91aa7ef67e23a4512a734c967552536c17d7a"),
], ids=["table-initial", "deterministic-initial"])
def test_every_kind_and_family_round_trips(doc, digest):
    spec = spec_from_dict(copy.deepcopy(doc))
    written = spec_to_dict(spec)
    again = spec_from_dict(written)
    assert spec_to_dict(again) == written
    assert spec_digest(spec) == spec_digest(again) == digest
    # the deterministic marginal is read as a one-atom table and written as one
    assert written["offspring"][0]["components"][3] == {
        "family": "table", "values": [1], "probs": [1.0]}


_DELETE = object()


def _edited(doc, keys, value):
    doc = copy.deepcopy(doc)
    *parents, last = keys
    target = doc
    for k in parents:
        target = target[k]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


@pytest.mark.parametrize("keys, value, message", [
    # an unknown kind or family in every block
    (("migration", 3, "prob_em", "kind"), "x",
     "migration[3].prob_em.kind: unknown state function kind 'x'"),
    (("migration", 0, "immigration", "mean", "inner", "kind"), "x",
     "migration[0].immigration.mean.inner.kind: unknown state function kind 'x'"),
    (("offspring", 0, "components", 2, "family"), "x",
     "offspring[0].components[2].family: unknown offspring family 'x'"),
    (("offspring", 1, "kind"), "x", "offspring[1].kind: unknown offspring law kind 'x'"),
    (("migration", 2, "immigration", "family"), "x",
     "migration[2].immigration.family: unknown immigration family 'x'"),
    (("migration", 1, "emigration", "family"), "x",
     "migration[1].emigration.family: unknown emigration family 'x'"),
    (("initial", "kind"), "x", "initial.kind: unknown initial law kind 'x'"),
    (("initial", "kind"), ["table"], "initial.kind: unknown initial law kind ['table']"),
    (("offspring", 0, "kind"), None, "offspring[0].kind: unknown offspring law kind None"),
    # a missing required field in every kind and family that has one
    (("migration", 1, "prob_em", "value"), _DELETE,
     "migration[1].prob_em.value: missing required field"),
    (("migration", 3, "prob_em", "exponent"), _DELETE,
     "migration[3].prob_em.exponent: missing required field"),
    (("migration", 0, "prob_imm", "breaks"), _DELETE,
     "migration[0].prob_imm.breaks: missing required field"),
    (("migration", 1, "prob_imm", "inner"), _DELETE,
     "migration[1].prob_imm.inner: missing required field"),
    (("offspring", 0, "components", 0, "mean"), _DELETE,
     "offspring[0].components[0].mean: missing required field"),
    (("offspring", 0, "components", 1, "prob"), _DELETE,
     "offspring[0].components[1].prob: missing required field"),
    (("offspring", 0, "components", 2, "mean"), _DELETE,
     "offspring[0].components[2].mean: missing required field"),
    (("offspring", 0, "components", 3, "value"), _DELETE,
     "offspring[0].components[3].value: missing required field"),
    (("offspring", 2, "components", 0, "probs"), _DELETE,
     "offspring[2].components[0].probs: missing required field"),
    (("offspring", 0, "components"), _DELETE, "offspring[0].components: missing required field"),
    (("offspring", 1, "vectors"), _DELETE, "offspring[1].vectors: missing required field"),
    (("offspring", 0, "kind"), _DELETE, "offspring[0].kind: missing required field"),
    (("migration", 0, "immigration", "mean"), _DELETE,
     "migration[0].immigration.mean: missing required field"),
    (("migration", 1, "immigration", "value"), _DELETE,
     "migration[1].immigration.value: missing required field"),
    (("migration", 2, "immigration", "values"), _DELETE,
     "migration[2].immigration.values: missing required field"),
    (("migration", 0, "immigration", "family"), _DELETE,
     "migration[0].immigration.family: missing required field"),
    (("migration", 1, "emigration", "ratio"), _DELETE,
     "migration[1].emigration.ratio: missing required field"),
    (("migration", 3, "emigration", "value"), _DELETE,
     "migration[3].emigration.value: missing required field"),
    (("migration", 2, "prob_em"), _DELETE, "migration[2].prob_em: missing required field"),
    (("initial", "states"), _DELETE, "initial.states: missing required field"),
    (("initial", "kind"), _DELETE, "initial.kind: missing required field"),
    (("initial",), _DELETE, "initial: missing required field"),
    # a block that is not a mapping
    (("migration", 0, "prob_imm"), 0.5, "migration[0].prob_imm: expected a mapping, got float"),
    (("migration", 0, "immigration", "mean"), 2.0,
     "migration[0].immigration.mean: expected a mapping, got float"),
    (("offspring", 0, "components", 0), "poisson",
     "offspring[0].components[0]: expected a mapping, got str"),
    (("offspring", 1), [], "offspring[1]: expected a mapping, got list"),
    (("migration", 0, "immigration"), 2, "migration[0].immigration: expected a mapping, got int"),
    (("migration", 1, "emigration"), "uniform",
     "migration[1].emigration: expected a mapping, got str"),
    (("migration", 3), None, "migration[3]: expected a mapping, got NoneType"),
    (("initial",), [1, 2, 0, 3], "initial: expected a mapping, got list"),
    # a constructor's refusal is reported at its block
    (("initial",), {"kind": "deterministic", "state": [-1, 0, 0, 0]},
     "initial: initial state must have nonnegative integer entries"),
    (("migration", 1, "prob_imm", "lo"), 0.5, "migration[1].prob_imm: clamp bounds are inverted"),
    (("offspring", 0, "components", 0, "mean"), "abc",
     "offspring[0].components[0].mean: expected a finite number, got 'abc'"),
    # a list of blocks that is not a list
    (("offspring", 0, "components"), 3,
     "offspring[0].components: expected a list of mappings, got 3"),
    (("offspring", 0, "components"), "ab",
     "offspring[0].components: expected a list of mappings, got 'ab'"),
    (("offspring",), 5, "offspring: expected a list of mappings, got 5"),
    (("migration",), {"prob_imm": 0.5},
     "migration: expected a list of mappings, got {'prob_imm': 0.5}"),
    # the model counts its types once, when it is built
    (("offspring",), [], "offspring: offspring spec needs at least one type"),
    (("offspring", 0, "components"), [{"family": "poisson", "mean": 0.3}],
     "offspring: offspring law for type 0 produces 1-vectors in a 4-type model"),
    (("migration",), ALL_FAMILIES["migration"][:3], "migration: 3 components for 4 types"),
    # dim, where given, is an integer equal to the number of types
    (("dim",), 7, "dim: 7 does not match the 4 per-type offspring laws"),
    (("dim",), "x", "dim: expected an integer, got 'x'"),
    # an unknown field in a block, in each kind of block
    (("migration", 1, "prob_imm", "hii"), 50, "migration[1].prob_imm.hii: unknown field"),
    (("migration", 0, "immigration", "mean", "inner", "coef"), 1.0,
     "migration[0].immigration.mean.inner.coef: unknown field"),
    (("offspring", 0, "components", 0, "prob"), 0.2,
     "offspring[0].components[0].prob: unknown field"),
    (("offspring", 1, "components"), [], "offspring[1].components: unknown field"),
    (("migration", 3, "immigration_law"), {"family": "deterministic", "value": 1},
     "migration[3].immigration_law: unknown field"),
    (("migration", 2, "emigration", "ratio"), 0.5, "migration[2].emigration.ratio: unknown field"),
    (("migration", 1, "immigration", "values"), [1], "migration[1].immigration.values: unknown field"),
    (("initial", "state"), [1, 0, 0, 0], "initial.state: unknown field"),
    # no migration is the remainder of the other two branches, never a field
    (("migration", 2, "prob_none"), _const(0.5), "migration[2].prob_none: unknown field"),
])
def test_format_errors_name_their_field(keys, value, message):
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(_edited(ALL_FAMILIES, keys, value))
    assert str(err.value) == message


def test_dim_may_be_left_out_or_integral():
    digest = spec_digest(spec_from_dict(ALL_FAMILIES))
    for value in (_DELETE, 4.0):
        assert spec_digest(spec_from_dict(_edited(ALL_FAMILIES, ("dim",), value))) == digest


def _field_path(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


_INTEGER_FIELDS = [
    ("initial", "state", 0),
    ("migration", 1, "immigration", "value"),
    ("migration", 3, "emigration", "value"),
    ("offspring", 0, "components", 3, "value"),
    ("offspring", 2, "components", 0, "values", 1),
    ("offspring", 1, "vectors", 0, 0),
]


@pytest.mark.parametrize("value", [1.7, True, "1"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("keys", _INTEGER_FIELDS, ids=_field_path)
def test_integer_fields_refuse_non_integers(keys, value):
    # each refusal names the entry itself, as the real-number fields' do
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(_edited(ALL_FAMILIES_DETERMINISTIC, keys, value))
    assert str(err.value) == f"{_field_path(keys)}: expected an integer, got {value!r}"


@pytest.mark.parametrize("doc, keys, value, message", [
    (ALL_FAMILIES, ("offspring", 2, "components", 0, "values"), "012",
     "offspring[2].components[0].values: expected a list of integers, got '012'"),
    (ALL_FAMILIES_DETERMINISTIC, ("initial", "state"), 5,
     "initial.state: expected a list of integers, got 5"),
    (ALL_FAMILIES_DETERMINISTIC, ("initial", "state"), "21",
     "initial.state: expected a list of integers, got '21'"),
    (ALL_FAMILIES, ("initial", "states"), [[1, 2], 7],
     "initial.states[1]: expected a list of integers, got 7"),
    (ALL_FAMILIES, ("offspring", 1, "vectors"), 5,
     "offspring[1].vectors: expected a list of integer lists, got 5"),
], ids=["values-string", "state-int", "state-string", "states-row-int", "vectors-int"])
def test_integer_list_fields_refuse_non_lists(doc, keys, value, message):
    # a string is not read as a list of characters, nor a number as a list
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(_edited(doc, keys, value))
    assert str(err.value) == message


@pytest.mark.parametrize("keys", _INTEGER_FIELDS, ids=_field_path)
def test_integer_fields_accept_integral_floats(keys):
    doc = ALL_FAMILIES_DETERMINISTIC
    target = doc
    for k in keys:
        target = target[k]
    spec = spec_from_dict(_edited(doc, keys, float(target)))
    assert spec_digest(spec) == spec_digest(spec_from_dict(copy.deepcopy(doc)))


# Every real-number field of ALL_FAMILIES, one of each kind and family.
_REAL_FIELDS = [
    ("offspring", 0, "components", 0, "mean"),
    ("offspring", 0, "components", 1, "prob"),
    ("offspring", 0, "components", 2, "mean"),
    ("offspring", 1, "probs", 0),
    ("offspring", 2, "components", 0, "probs", 1),
    ("migration", 3, "prob_em", "coeff"),
    ("migration", 3, "prob_em", "exponent"),
    ("migration", 0, "prob_imm", "breaks", 1),
    ("migration", 0, "prob_imm", "values", 0),
    ("migration", 0, "immigration", "mean", "lo"),
    ("migration", 1, "prob_imm", "hi"),
    ("migration", 1, "prob_em", "value"),
    ("migration", 1, "emigration", "ratio"),
    ("migration", 2, "immigration", "probs", 0),
    ("initial", "probs", 1),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, True, "0.5"],
                         ids=["nan", "inf", "bool", "string"])
@pytest.mark.parametrize("keys", _REAL_FIELDS, ids=_field_path)
def test_real_fields_refuse_non_numbers(keys, value):
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(_edited(ALL_FAMILIES, keys, value))
    assert str(err.value) == f"{_field_path(keys)}: expected a finite number, got {value!r}"


@pytest.mark.parametrize("keys", [
    ("offspring", 1, "probs"),
    ("offspring", 2, "components", 0, "probs"),
    ("migration", 0, "prob_imm", "breaks"),
    ("migration", 2, "immigration", "probs"),
    ("initial", "probs"),
], ids=_field_path)
def test_list_fields_refuse_strings(keys):
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(_edited(ALL_FAMILIES, keys, "01"))
    assert str(err.value) == f"{_field_path(keys)}: expected a list of numbers, got '01'"


def test_unknown_top_level_field_is_refused():
    doc = dict(ALL_FAMILIES, expected_verdic="no-growth")
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(doc)
    assert str(err.value) == "expected_verdic: unknown field"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_load_spec_refuses_non_finite_literals(tmp_path, value):
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(_edited(ALL_FAMILIES, ("offspring", 0, "components", 0, "mean"),
                                       value)))
    assert ("NaN" if math.isnan(value) else "Infinity") in path.read_text()
    with pytest.raises(SpecFormatError) as err:
        load_spec(str(path))
    assert str(err.value) == f"document: expected a finite number, got {value!r}"


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_spec(str(tmp_path / "nope.json"))


def test_load_spec_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecFormatError):
        load_spec(str(path))


def test_copy_and_pickle_round_trip(two_type_spec):
    import pickle

    clone = pickle.loads(pickle.dumps(two_type_spec))
    assert spec_digest(clone) == spec_digest(two_type_spec)
    assert spec_digest(copy.deepcopy(two_type_spec)) == spec_digest(two_type_spec)
