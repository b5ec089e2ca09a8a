"""Model assembly, sampling, and round-trip serialization."""
import copy
import json

import numpy as np
import pytest

import oracles
from conftest import load_doc, spec_path
from mbpm import (
    Constant,
    DeterministicImmigration,
    DeterministicInitial,
    MigrationComponent,
    MigrationSpec,
    ModelSpec,
    OffspringSpec,
    PoissonOffspring,
    IndependentOffspring,
    SpecFormatError,
    advance,
    load_spec,
    sample_migration,
    sample_step_batch,
    simulate_path,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
    step,
    stream_for,
)


def single_type_spec(prob_none=0.5, prob_imm=0.5, prob_em=0.0, immigration=None):
    offspring = OffspringSpec(
        laws=(IndependentOffspring(components=(PoissonOffspring(mean=1.0),)),)
    )
    comp = MigrationComponent(
        prob_none=Constant(prob_none),
        prob_imm=Constant(prob_imm),
        prob_em=Constant(prob_em),
        immigration=immigration,
        emigration=None,
    )
    return ModelSpec(offspring, MigrationSpec(components=(comp,)),
                     DeterministicInitial(state=(1,)))


def test_dimension_mismatch_rejected(two_type_spec):
    with pytest.raises(ValueError):
        ModelSpec(two_type_spec.offspring, two_type_spec.migration,
                  DeterministicInitial(state=(1, 2, 3)))


def test_branch_probs_fold_missing_laws():
    spec = single_type_spec(prob_none=0.4, prob_imm=0.0, prob_em=0.6)
    comp = spec.migration.components[0]
    pn, pi, pe = comp.branch_probs(np.array([5]), None, 5)
    assert (pn, pi, pe) == (1.0, 0.0, 0.0)  # no emigration law: branch folds


def test_branch_probs_fold_at_zero_count(emigration_spec):
    comp = emigration_spec.migration.components[0]
    u = emigration_spec.spectral().u
    z = np.array([0, 4])
    pn, pi, pe = comp.branch_probs(z, u, 0)
    assert pe == 0.0 and abs(pn - 1.0) < 1e-12
    pn1, pi1, pe1 = comp.branch_probs(np.array([4, 0]), u, 4)
    assert abs(pe1 - 0.5) < 1e-12
    # a stack of states gives per-row probabilities equal to the scalar ones
    Z = np.array([[0, 4], [4, 0], [1, 1]])
    rows = np.broadcast_arrays(*comp.branch_probs(Z, u, Z[:, 0]))
    for r, z in enumerate(Z):
        assert [b[r] for b in rows] == list(comp.branch_probs(z, u, z[0]))
    # constant probabilities stay scalars while no row is empty
    assert all(np.ndim(b) == 0 for b in comp.branch_probs(Z[1:], u, Z[1:, 0]))


def test_validate_passes_shipped_documents():
    for name in ["two_type_mixed", "gamma_single_type", "sqrt_drift_single_type",
                 "pure_emigration", "small_support", "pure_death"]:
        load_spec(spec_path(name)).validate()


def test_validate_rejects_bad_probability_sum():
    spec = single_type_spec(prob_none=0.7, prob_imm=0.5,
                            immigration=DeterministicImmigration(value=1))
    with pytest.raises(ValueError, match="sum"):
        spec.validate()


def test_validate_rejects_missing_immigration_law():
    spec = single_type_spec(prob_none=0.5, prob_imm=0.5, immigration=None)
    with pytest.raises(ValueError, match="no immigration law"):
        spec.validate()


def test_sample_migration_bounds(two_type_spec):
    rng = np.random.default_rng(0)
    u = two_type_spec.spectral().u
    Z = np.tile([[50, 30], [0, 2], [1, 0]], (200, 1))
    m = sample_migration(two_type_spec.migration, Z, rng, u)
    assert m.shape == Z.shape
    assert (Z + m >= 0).all()


def test_step_stays_nonnegative(two_type_spec):
    rng = np.random.default_rng(1)
    z = np.array([50, 30])
    for _ in range(500):
        z = step(two_type_spec, z, rng)
        assert z.dtype == np.int64
        assert (z >= 0).all()


def test_simulate_path_shape_and_stream(two_type_spec):
    traj = simulate_path(two_type_spec, 100, stream_for(555, 3))
    assert traj.states.shape == (101, 2)
    assert len(traj) == 101
    assert (traj.states[0] == [50, 30]).all()
    assert (traj.states >= 0).all()
    # the path is a function of its stream
    again = simulate_path(two_type_spec, 100, stream_for(555, 3))
    assert np.array_equal(traj.states, again.states)


def test_pure_death_absorbs(pure_death_spec):
    traj = simulate_path(pure_death_spec, 10, np.random.default_rng(2))
    assert (traj.states[1:] == 0).all()


def test_batch_and_step_agree_in_law(two_type_spec):
    z = np.array([50, 30])
    batch = sample_step_batch(two_type_spec, z, 200_000, stream_for(77, 0))
    rng = np.random.default_rng(3)
    loop = np.array([step(two_type_spec, z, rng) for _ in range(20_000)])
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
    counts = sample_migration(spec.migration, Z, rng, u=spec.size_weights()) + Z
    out = np.zeros_like(counts)
    for i, law in enumerate(spec.offspring.laws):
        law.sample_sum_batch(rng, counts[:, i], out)
    return out


def test_poisson_documents_pool_their_offspring():
    for name in ["gamma_single_type", "sqrt_drift_single_type", "two_type_mixed",
                 "pure_emigration"]:
        offspring = load_spec(spec_path(name)).offspring
        assert np.array_equal(offspring.poisson_means, offspring.mean_matrix())
    for name in ["small_support", "pure_death"]:
        assert load_spec(spec_path(name)).offspring.poisson_means is None
    assert mixed_family_spec().offspring.poisson_means is None


def test_pooled_one_step_pmf_matches_enumeration():
    doc = pooled_small_support_doc()
    spec = spec_from_dict(doc)
    assert spec.offspring.poisson_means is not None
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
    offspring = load_spec(spec_path(name)).offspring
    counts = np.array([[0, 0], [40, 0], [0, 0], [0, 40], [0, 0]], dtype=np.int64)
    kids = offspring.sample_sum_batch(np.random.default_rng(9), counts)
    assert kids.shape == counts.shape and kids.dtype == np.int64
    assert (kids[[0, 2, 4]] == 0).all()
    assert kids[[1, 3]].sum() > 0
    empty = offspring.sample_sum_batch(np.random.default_rng(9), counts[:0])
    assert empty.shape == (0, 2)


def test_pooled_rate_past_numpy_limit_is_named():
    # each parent's rate 2^62 is fine, their pooled sum 2^63 is not
    unit = IndependentOffspring(components=(PoissonOffspring(1.0), PoissonOffspring(1.0)))
    offspring = OffspringSpec(laws=(unit, unit))
    counts = np.array([[1, 1], [2**62, 2**62]], dtype=np.int64)
    with pytest.raises(ValueError, match=r"rate 9\.223372037e\+18 at row 1, child type 0 is "
                                         r"past numpy's Poisson limit 9\.223372006e\+18"):
        offspring.sample_sum_batch(np.random.default_rng(0), counts)


# ---------------------------------------------------------------------------
# migration: branch intervals compiled once per component
# ---------------------------------------------------------------------------

SHIPPED = ["gamma_single_type", "sqrt_drift_single_type", "two_type_mixed",
           "pure_emigration", "small_support", "pure_death"]


def reference_migration(spec, Z, rng, u=None):
    """Migration with the branch probabilities evaluated and folded at every step."""
    out = np.zeros(Z.shape, dtype=np.int64)
    for i, comp in enumerate(spec.components):
        zi = Z[:, i]
        pn, pi, pe = comp.branch_probs(Z, u, zi)
        x = rng.random(len(Z))
        imm = (x >= pn) & (x < pn + pi)
        em = (x >= pn + pi) & (pe > 0.0)
        if imm.any():
            out[imm, i] = comp.immigration.sample_batch(rng, Z, imm, u)
        if em.any():
            out[em, i] = -comp.emigration.sample_batch(rng, zi[em])
    return out


def reference_kernel(spec, Z, rng):
    """``advance`` without compiled branches."""
    u = spec.size_weights()
    counts = reference_migration(spec.migration, Z, rng, u) + Z
    return spec.offspring.sample_sum_batch(rng, counts)


def table_branches_doc():
    """small_support with size-dependent branch probabilities: no component compiles.

    Type 0 has table prob_none and prob_imm with a table immigration law;
    type 1 has table prob_imm and prob_em, so its emigration mask is per row.
    """
    def table(values):
        return {"kind": "table", "breaks": [0.0, 3.0], "values": values}

    doc = copy.deepcopy(load_doc("small_support"))
    m0, m1 = doc["migration"]
    m0["prob_none"], m0["prob_imm"] = table([0.5, 0.2]), table([0.3, 0.6])
    m1["prob_imm"], m1["prob_em"] = table([0.2, 0.1]), table([0.2, 0.3])
    return doc


@pytest.mark.parametrize("R", [1, 7, 300])
@pytest.mark.parametrize("name", SHIPPED + ["table_branches"])
def test_compiled_kernel_equals_reference_kernel(name, R):
    if name == "table_branches":
        spec = spec_from_dict(table_branches_doc())
        assert all(c.branches is None for c in spec.migration.components)
    else:
        spec = load_spec(spec_path(name))
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


def test_branches_compile_the_folds():
    def branches(name):
        return [c.branches for c in load_spec(spec_path(name)).migration.components]

    (gamma,) = branches("gamma_single_type")
    assert gamma.everyone_immigrates and not gamma.emigrates and gamma.empty is None
    (death,) = branches("pure_death")
    assert (death.lo, death.hi, death.emigrates, death.everyone_immigrates) == (1.0, 1.0, False, False)
    for em in branches("pure_emigration"):
        # no immigration law: prob_imm folds into none; an empty row cannot emigrate
        assert (em.lo, em.hi, em.emigrates, em.empty) == (0.5, 0.5, True, (1.0, 1.0))
    imm_em, _ = branches("two_type_mixed")
    assert (imm_em.lo, imm_em.hi, imm_em.empty) == (0.5, 0.8, (0.7, 1.0))
    assert not imm_em.everyone_immigrates


def test_compiled_spec_copies_and_pickles():
    import pickle

    spec = load_spec(spec_path("two_type_mixed"))
    Z = np.array([[0, 3], [5, 0], [2, 2]], dtype=np.int64)
    first = advance(spec, Z, stream_for(4, 0))
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert spec_digest(clone) == spec_digest(spec)
        assert np.array_equal(advance(clone, Z, stream_for(4, 0)), first)


def test_immigration_rate_past_numpy_limit_is_named():
    doc = load_doc("gamma_single_type")
    doc["migration"][0]["immigration"]["mean"]["value"] = 1e19
    spec = spec_from_dict(doc)  # the mean is >= 1, so the document is valid
    with pytest.raises(ValueError, match=r"^Poisson immigration rate 1e\+19 is past numpy's "
                                         r"Poisson limit 9\.223372006e\+18$"):
        advance(spec, np.ones((3, 1), dtype=np.int64), stream_for(0, 0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_round_trip_all_documents():
    for name in ["two_type_mixed", "gamma_single_type", "sqrt_drift_single_type",
                 "pure_emigration", "small_support", "pure_death"]:
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
    "gamma_single_type": "f871bb125ea2cf331fb6fc2c1a737e5f76d5de64fdf86ffa391cb405be673a7f",
    "sqrt_drift_single_type": "b030aba7b15f54fa519f5a2a0830f103ab68e8c47d117a6e717a30c21518b2c2",
    "two_type_mixed": "1e436b4d9b7ee5dbcc8f3080e9ebaed5f805a0bcf1553d2623ea4582e7a873de",
    "pure_emigration": "0eb16a9088f385a513273ee19dd44fa678e8b12ef770bdff8d8690ffae84350d",
    "small_support": "0da01724cb0f95f1e15373e299300def25ff2afd911b4a2de1d849403413754e",
    "pure_death": "7c5923fa65a63b127701885ce2960a157d9bf30cb82c9528216b31d75047fe16",
}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_digests_are_pinned(name):
    assert spec_digest(load_spec(spec_path(name))) == SHIPPED_DIGESTS[name]


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
        {"prob_none": {"kind": "power", "coeff": 0.5, "exponent": 0.0},
         "prob_imm": {"kind": "table", "breaks": [0.0, 10.0], "values": [0.3, 0.2]},
         "prob_em": {"kind": "table", "breaks": [0.0, 10.0], "values": [0.2, 0.3]},
         "immigration": {"family": "shifted_poisson", "mean": {
             "kind": "clamp", "inner": {"kind": "power", "coeff": 1.0, "exponent": 0.5},
             "lo": 1.0}},
         "emigration": {"family": "uniform"}},
        {"prob_none": _const(0.6),
         "prob_imm": {"kind": "clamp", "inner": _const(0.3), "hi": 0.2},
         "prob_em": _const(0.2),
         "immigration": {"family": "deterministic", "value": 2},
         "emigration": {"family": "truncated_geometric", "ratio": 0.5}},
        {"prob_none": _const(0.5), "prob_imm": _const(0.3), "prob_em": _const(0.2),
         "immigration": {"family": "table", "values": [1, 3], "probs": [0.5, 0.5]},
         "emigration": {"family": "inverse_cube"}},
        {"prob_none": _const(0.7), "prob_imm": _const(0.0), "prob_em": _const(0.3),
         "emigration": {"family": "deterministic", "value": 1}},
    ],
    "initial": {"kind": "table", "states": [[1, 0, 0, 0], [0, 1, 1, 1]], "probs": [0.5, 0.5]},
}
ALL_FAMILIES_DETERMINISTIC = dict(ALL_FAMILIES,
                                  initial={"kind": "deterministic", "state": [1, 2, 0, 3]})


@pytest.mark.parametrize("doc, digest", [
    (ALL_FAMILIES, "726431708d7c70c3a6fa61a5fb9ddd394bc36b0aa701a56e3a2083ef4902fae0"),
    (ALL_FAMILIES_DETERMINISTIC,
     "a0b7c92f4aa406b43fc0f3d11366d0b638b8eae1b5127ac6d8df317daa9eb915"),
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
    (("migration", 0, "prob_none", "kind"), "x",
     "migration[0].prob_none.kind: unknown state function kind 'x'"),
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
    (("migration", 0, "prob_none", "exponent"), _DELETE,
     "migration[0].prob_none.exponent: missing required field"),
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
    (("migration", 0, "prob_none"), 0.5, "migration[0].prob_none: expected a mapping, got float"),
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
    (("migration", 1, "prob_imm", "lo"), 0.5, "migration[1].prob_imm: clamp bounds are inverted"),
    (("offspring", 0, "components", 0, "mean"), "abc",
     "offspring[0].components[0]: could not convert string to float: 'abc'"),
    (("offspring", 0, "components"), 3, "offspring[0]: 'int' object is not iterable"),
    (("offspring",), [], "offspring: offspring spec needs at least one type"),
    (("offspring", 0, "components"), [{"family": "poisson", "mean": 0.3}],
     "offspring: offspring law for type 0 produces 1-vectors in a 4-type model"),
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
])
def test_format_errors_name_their_field(keys, value, message):
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(_edited(ALL_FAMILIES, keys, value))
    assert str(err.value) == message


def test_dim_may_be_left_out_or_integral():
    digest = spec_digest(spec_from_dict(ALL_FAMILIES))
    for value in (_DELETE, 4.0):
        assert spec_digest(spec_from_dict(_edited(ALL_FAMILIES, ("dim",), value))) == digest


_INTEGER_FIELDS = [
    (("initial", "state", 0), "initial"),
    (("migration", 1, "immigration", "value"), "migration[1].immigration"),
    (("migration", 3, "emigration", "value"), "migration[3].emigration"),
    (("offspring", 0, "components", 3, "value"), "offspring[0].components[3]"),
    (("offspring", 2, "components", 0, "values", 1), "offspring[2].components[0]"),
    (("offspring", 1, "vectors", 0, 0), "offspring[1]"),
]
_INTEGER_IDS = [".".join(map(str, keys)) for keys, _ in _INTEGER_FIELDS]


@pytest.mark.parametrize("value", [1.7, True, "1"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("keys, path", _INTEGER_FIELDS, ids=_INTEGER_IDS)
def test_integer_fields_refuse_non_integers(keys, path, value):
    with pytest.raises(SpecFormatError) as err:
        spec_from_dict(_edited(ALL_FAMILIES_DETERMINISTIC, keys, value))
    assert str(err.value) == f"{path}: expected an integer, got {value!r}"


@pytest.mark.parametrize("keys, path", _INTEGER_FIELDS, ids=_INTEGER_IDS)
def test_integer_fields_accept_integral_floats(keys, path):
    doc = ALL_FAMILIES_DETERMINISTIC
    target = doc
    for k in keys:
        target = target[k]
    spec = spec_from_dict(_edited(doc, keys, float(target)))
    assert spec_digest(spec) == spec_digest(spec_from_dict(copy.deepcopy(doc)))


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
