import numpy as np
import pytest

from missfair import impute, predict
from missfair.data_model import (Cohort, ConfigurationError, ImputationResult, MaskedCohort,
                                 ObservationMask)
from missfair.linalg_stat import ols_solve

ALL_SPECS = [
    impute.ImputerSpec("population_mean"),
    impute.ImputerSpec("group_mean"),
    impute.ImputerSpec("mice", mice_draws=3, mice_iterations=3),
    impute.ImputerSpec("group_mice", mice_draws=3, mice_iterations=3),
    impute.ImputerSpec("group_mice", append_indicators=True,
                       mice_draws=3, mice_iterations=3),
]


def _masked(n=400, seed=0, miss=0.3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    X[:, 2] = 0.8 * X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.standard_normal(n)
    g = (rng.random(n) < 0.4).astype(int)
    y = (rng.random(n) < 0.5).astype(int)
    observed = np.ones((n, 3), dtype=bool)
    observed[:, 2] = rng.random(n) >= miss
    return MaskedCohort(Cohort(X, g, y), ObservationMask(observed))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_observed_values_preserved_exactly(spec):
    data = _masked()
    fitted = impute.fit(data, spec)
    result = impute.transform(fitted, data)
    obs = data.mask.observed
    for m in result.completed:
        assert np.array_equal(m[obs], data.cohort.covariates[obs])


def test_population_mean_value_is_observed_training_mean():
    data = _masked()
    fitted = impute.fit(data, impute.ImputerSpec("population_mean"))
    result = impute.transform(fitted, data)
    obs = data.mask.observed[:, 2]
    expected = data.cohort.covariates[obs, 2].mean()
    filled = result.completed[0][~obs, 2]
    assert np.allclose(filled, expected)


def test_group_mean_uses_per_group_observed_means():
    data = _masked()
    fitted = impute.fit(data, impute.ImputerSpec("group_mean"))
    result = impute.transform(fitted, data)
    obs = data.mask.observed[:, 2]
    for g in (0, 1):
        rows = (data.group == g) & ~obs
        expected = data.cohort.covariates[(data.group == g) & obs, 2].mean()
        assert np.allclose(result.completed[0][rows, 2], expected)


def test_group_mean_falls_back_when_group_unobserved():
    X = np.array([[1.0, 5.0], [2.0, 7.0], [3.0, 0.0], [4.0, 0.0]])
    g = np.array([0, 0, 1, 1])
    observed = np.array([[1, 1], [1, 1], [1, 0], [1, 0]], dtype=bool)
    data = MaskedCohort(Cohort(X, g, np.zeros(4, dtype=int)),
                        ObservationMask(observed))
    fitted = impute.fit(data, impute.ImputerSpec("group_mean"))
    assert fitted.fills[1, 1] == 6.0                        # population mean of column 1
    assert fitted.warnings == ("group 1 has no observed values for covariate 1; "
                               "falling back to the population mean",)
    result = impute.transform(fitted, data)
    assert np.allclose(result.completed[0][2:, 1], 6.0)


@pytest.mark.parametrize("strategy", impute.STRATEGIES)
def test_only_group_mean_warns_of_a_group_fallback(strategy):
    # 6 rows: group 1 has no observed value in column 1; every other strategy never
    # reads group means, so it has no fallback to warn of
    X = np.array([[1.0, 5.0], [2.0, 7.0], [3.0, 9.0], [4.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
    g = np.array([0, 0, 0, 1, 1, 1])
    observed = np.array([[1, 1], [1, 1], [1, 1], [1, 0], [1, 0], [1, 0]], dtype=bool)
    data = MaskedCohort(Cohort(X, g, np.zeros(6, dtype=int)), ObservationMask(observed))
    fitted = impute.fit(data, impute.ImputerSpec(strategy, mice_draws=2, mice_iterations=2))
    fallback = [w for w in fitted.warnings if "falling back to the population mean" in w]
    assert len(fallback) == (strategy == "group_mean")


def test_fit_rejects_fully_missing_column():
    X = np.ones((5, 2))
    observed = np.ones((5, 2), dtype=bool)
    observed[:, 1] = False
    data = MaskedCohort(Cohort(X, np.zeros(5, dtype=int), np.zeros(5, dtype=int)),
                        ObservationMask(observed))
    with pytest.raises(ConfigurationError, match="1"):
        impute.fit(data, impute.ImputerSpec("population_mean"))


def test_mice_recovers_linear_structure():
    data = _masked(n=2000, seed=3)
    fitted = impute.fit(data, impute.ImputerSpec("mice", mice_draws=5))
    result = impute.transform(fitted, data)
    truth = data.cohort.covariates[:, 2]
    missing = ~data.mask.observed[:, 2]
    stacked = np.stack([m[missing, 2] for m in result.completed]).mean(axis=0)
    mice_mse = float(((stacked - truth[missing]) ** 2).mean())
    mean_mse = float(((truth[data.mask.observed[:, 2]].mean() - truth[missing]) ** 2).mean())
    assert mice_mse < 0.25 * mean_mse


def test_mice_draw_count_and_variation():
    data = _masked(n=300, seed=4)
    fitted = impute.fit(data, impute.ImputerSpec("mice", mice_draws=4, mice_iterations=2))
    result = impute.transform(fitted, data)
    assert result.n_draws == 4
    missing = ~data.mask.observed[:, 2]
    assert not np.array_equal(result.completed[0][missing, 2],
                              result.completed[1][missing, 2])


def test_mean_strategies_have_single_draw():
    data = _masked()
    for name in ("population_mean", "group_mean"):
        result = impute.transform(impute.fit(data, impute.ImputerSpec(name)), data)
        assert result.n_draws == 1


@pytest.mark.parametrize("name", ["population_mean", "group_mean"])
def test_mean_strategies_fit_no_medians(name):
    data = _masked()
    fitted = impute.fit(data, impute.ImputerSpec(name))
    X = data.cohort.covariates
    obs = data.mask.observed[:, 2]
    expected = X.copy()
    for g in (0, 1):
        rows = data.group == g if name == "group_mean" else np.ones(data.n, dtype=bool)
        expected[rows & ~obs, 2] = X[rows & obs, 2].mean()
        assert fitted.fills[g, 2] == X[rows & obs, 2].mean()
    assert np.array_equal(impute.transform(fitted, data).completed[0], expected)
    # only MICE chains start from the training median
    mice = impute.fit(data, impute.ImputerSpec("mice", mice_draws=1))
    assert np.array_equal(mice.fills[:, 2], np.full(2, np.median(X[obs, 2])))


def test_indicator_columns_mark_missing_cells():
    data = _masked()
    spec = impute.ImputerSpec("group_mice", append_indicators=True,
                              mice_draws=2, mice_iterations=2)
    fitted = impute.fit(data, spec)
    result = impute.transform(fitted, data)
    # columns 0 and 1 are complete in training: only column 2 gets an indicator
    assert fitted.indicated == (2,)
    assert np.array_equal(result.indicator_columns,
                          (~data.mask.observed[:, [2]]).astype(float))
    assert result.n_features == 4


def test_indicators_only_for_columns_missing_in_training():
    train, test = _masked(seed=5), _masked(seed=6)
    observed = test.mask.observed.copy()
    observed[::7, 0] = False        # column 0: complete in training, missing in test
    test = MaskedCohort(test.cohort, ObservationMask(observed))
    spec = impute.ImputerSpec("population_mean", append_indicators=True)
    fitted = impute.fit(train, spec)
    assert fitted.indicated == (2,)
    assert impute.fit(train, impute.ImputerSpec("population_mean")).indicated == ()
    done, scored = impute.transform(fitted, train), impute.transform(fitted, test)
    assert scored.n_features == 4
    assert np.array_equal(scored.indicator_columns, (~observed[:, [2]]).astype(float))
    # a model given every column's indicator weighs the all-zero training ones at 0
    logistic = predict.LogisticSpec(fixed_penalty=1.0)
    model = predict.train(done, train.outcome, logistic)
    full = predict.train(ImputationResult(done.completed, (~train.mask.observed).astype(float)),
                         train.outcome, logistic)
    assert np.array_equal(full.draws[0].weights[3:5], [0.0, 0.0])
    every = ImputationResult(scored.completed, (~observed).astype(float))
    assert np.allclose(predict.predict(model, scored), predict.predict(full, every),
                       rtol=0, atol=1e-12)


def test_transform_is_deterministic_for_fixed_seed():
    data = _masked()
    spec = impute.ImputerSpec("group_mice", mice_draws=2, mice_iterations=3, seed=11)
    a = impute.transform(impute.fit(data, spec), data)
    b = impute.transform(impute.fit(data, spec), data)
    for x, y in zip(a.completed, b.completed):
        assert np.array_equal(x, y)


def test_transform_applies_to_new_partition():
    train = _masked(seed=5)
    test = _masked(seed=6)
    for spec in ALL_SPECS:
        fitted = impute.fit(train, spec)
        result = impute.transform(fitted, test)
        obs = test.mask.observed
        for m in result.completed:
            assert np.array_equal(m[obs], test.cohort.covariates[obs])
            assert np.isfinite(m).all()


@pytest.mark.parametrize("strategy", ["mice", "group_mice"])
def test_mice_fills_columns_complete_in_train_but_missing_elsewhere(strategy):
    # 200-row cohort: column 0 is complete in the 160 train rows and missing in
    # 20 of the 40 test rows; MICE has no regression for it, so it must take the
    # population mean like population_mean does, never keep the masked 0.0.
    rng = np.random.default_rng(21)
    X = rng.standard_normal((200, 3)) + 5.0
    g = (rng.random(200) < 0.4).astype(int)
    y = (rng.random(200) < 0.5).astype(int)
    observed = np.ones((200, 3), dtype=bool)
    observed[:160, 2] = rng.random(160) >= 0.3
    observed[160:180, 0] = False
    train = MaskedCohort(Cohort(X[:160], g[:160], y[:160]), ObservationMask(observed[:160]))
    test = MaskedCohort(Cohort(X[160:], g[160:], y[160:]), ObservationMask(observed[160:]))
    spec = impute.ImputerSpec(strategy, mice_draws=3, mice_iterations=3)
    mean = impute.transform(impute.fit(train, impute.ImputerSpec("population_mean")), test)
    result = impute.transform(impute.fit(train, spec), test)
    hidden = ~test.mask.observed[:, 0]
    assert hidden.sum() == 20
    for m in result.completed:
        assert np.array_equal(m[hidden, 0], mean.completed[0][hidden, 0])
        assert np.isfinite(m).all()


def test_schema_mismatch_rejected():
    fitted = impute.fit(_masked(), impute.ImputerSpec("population_mean"))
    rng = np.random.default_rng(0)
    other = MaskedCohort(
        Cohort(rng.standard_normal((10, 2)), np.zeros(10, dtype=int),
               np.zeros(10, dtype=int)),
        ObservationMask(np.ones((10, 2), dtype=bool)))
    with pytest.raises(ConfigurationError):
        impute.transform(fitted, other)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        impute.ImputerSpec("median")
    with pytest.raises(ConfigurationError):
        impute.ImputerSpec("mice", mice_draws=0)


def _count_ols(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return ols_solve(*args, **kwargs)

    monkeypatch.setattr(impute, "ols_solve", counting)
    return calls


def _two_incomplete(n=400, seed=0, miss=0.3):
    data = _masked(n=n, seed=seed, miss=miss)
    observed = data.mask.observed.copy()
    observed[:, 0] = np.random.default_rng(seed + 100).random(n) >= miss
    return MaskedCohort(data.cohort, ObservationMask(observed))


@pytest.mark.parametrize("strategy", ["mice", "group_mice"])
def test_one_incomplete_column_is_solved_once(monkeypatch, strategy):
    calls = _count_ols(monkeypatch)
    fitted = impute.fit(_masked(), impute.ImputerSpec(strategy, mice_draws=4,
                                                      mice_iterations=3))
    assert len(calls) == 1
    assert len(fitted.chains) == 4
    for chain in fitted.chains:
        (reg,) = chain
        assert np.array_equal(reg.coefficients, fitted.chains[0][0].coefficients)
        assert reg.residual_std == fitted.chains[0][0].residual_std


def test_two_incomplete_columns_iterate_every_chain(monkeypatch):
    calls = _count_ols(monkeypatch)
    data = _two_incomplete()
    spec = impute.ImputerSpec("mice", mice_draws=4, mice_iterations=3)
    fitted = impute.fit(data, spec)
    assert len(calls) == spec.mice_draws * spec.mice_iterations * 2
    first = fitted.chains[0]
    assert [r.column for r in first] == [0, 2]
    for chain in fitted.chains[1:]:
        assert [r.column for r in chain] == [0, 2]
        assert not all(np.array_equal(a.coefficients, b.coefficients)
                       for a, b in zip(chain, first))

    result = impute.transform(fitted, data)
    for j in (0, 2):
        missing = ~data.mask.observed[:, j]
        assert not np.array_equal(result.completed[0][missing, j],
                                  result.completed[1][missing, j])


def _iterated_chain(spec, train, data, regressions, rng):
    """`_run_chain` as written before its one-drawn-column shortcut: every iteration
    predicts and draws every column that has a regression. Its start values come from
    the train partition: the median of a regressed column, the mean of any other."""
    X = data.covariates_masked.copy()
    by_column = {r.column: r for r in regressions}
    missing = {j: np.flatnonzero(~data.mask.observed[:, j]) for j in range(data.d)}
    missing = {j: rows for j, rows in missing.items() if rows.size}
    for j, rows in missing.items():
        seen = train.cohort.covariates[train.mask.observed[:, j], j]
        X[rows, j] = np.median(seen) if j in by_column else seen.mean()
    for _ in range(spec.mice_iterations):
        for j, rows in missing.items():
            reg = by_column.get(j)
            if reg is None:
                continue
            pred = impute._mice_design(X[rows], j, data.group[rows], spec.uses_group) \
                @ reg.coefficients
            X[rows, j] = pred + reg.residual_std * rng.standard_normal(pred.size)
    return X


def _start(fitted, data):
    """The filled start matrix `transform` hands every chain."""
    start = fitted.fills[data.group]
    np.copyto(start, data.covariates_masked, where=data.mask.observed)
    return start


def _also_missing_outside_train():
    """Column 2 incomplete in train; column 0 complete in train, missing in the test rows."""
    data = _masked(n=300, seed=22)
    observed = data.mask.observed.copy()
    observed[240:260, 0] = False
    full = MaskedCohort(data.cohort, ObservationMask(observed))
    return full.take(np.arange(240)), full.take(np.arange(240, 300))


def _count_designs(monkeypatch):
    calls = []
    design = impute._mice_design
    monkeypatch.setattr(impute, "_mice_design", lambda *a: calls.append(1) or design(*a))
    return calls


@pytest.mark.parametrize("strategy", ["mice", "group_mice"])
@pytest.mark.parametrize("case", ["one_incomplete", "plus_mean_filled_column"])
def test_one_drawn_column_equals_the_iterated_chain(monkeypatch, strategy, case):
    if case == "one_incomplete":
        train = test = _masked()
    else:
        train, test = _also_missing_outside_train()
    spec = impute.ImputerSpec(strategy, mice_draws=3, mice_iterations=4)
    fitted = impute.fit(train, spec)
    start = _start(fitted, test)
    calls = _count_designs(monkeypatch)
    for c, regressions in enumerate(fitted.chains):
        rng, reference_rng = np.random.default_rng(c), np.random.default_rng(c)
        calls.clear()
        completed = impute._run_chain(spec, start, test, regressions, rng)
        assert len(calls) == 1                      # one prediction per chain
        assert completed.tobytes() == \
            _iterated_chain(spec, train, test, regressions, reference_rng).tobytes()
        # the same stream was consumed: the next draw of both generators agrees
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_two_drawn_columns_take_the_iterated_path(monkeypatch):
    data = _two_incomplete()
    spec = impute.ImputerSpec("mice", mice_draws=2, mice_iterations=3)
    fitted = impute.fit(data, spec)
    calls = _count_designs(monkeypatch)
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    completed = impute._run_chain(spec, _start(fitted, data), data, fitted.chains[0], rng)
    assert len(calls) == spec.mice_iterations * 2
    assert completed.tobytes() == \
        _iterated_chain(spec, data, data, fitted.chains[0], reference_rng).tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state
