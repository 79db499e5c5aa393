import json
import math

import numpy as np
import pytest
from scipy import stats

from ou_spectra.model import covariance_at, matrix_exponential, solve_lyapunov, validate_model
from ou_spectra.polynomials import SparsePolynomial
from ou_spectra.simulate import (
    SimConfig,
    config_digest,
    default_burn_in,
    ensemble_to_csv,
    estimate_pairing,
    sample_transition,
    save_ensemble,
    stationary_ensemble,
)
from ou_spectra.worked_examples import Section5Params, section5_eigenfunctions
from reference import hermite_tensor


@pytest.fixture(scope="module")
def ensemble5():
    from ou_spectra.worked_examples import section5_model

    model = section5_model(Section5Params(2, 1, 1))
    return stationary_ensemble(SimConfig(model=model, step=0.5, paths=100_000, seed=2024))


@pytest.fixture(scope="module")
def ensemble4():
    from ou_spectra.worked_examples import section4_model

    return stationary_ensemble(SimConfig(model=section4_model(), step=0.5, paths=100_000, seed=5))


class TestTransition:
    def test_one_step_mean_clt(self, model5):
        rng = np.random.default_rng(51)
        h, n = 0.4, 100_000
        x0 = np.array([1.0, -0.5])
        block = sample_transition(model5, h, np.tile(x0, (n, 1)), rng)
        target = matrix_exponential(model5.B, h) @ x0
        sigma = covariance_at(model5, h).sigma
        se = np.sqrt(np.diag(sigma) / n)
        assert np.all(np.abs(block.mean(axis=0) - target) < 4 * se)

    def test_scalar_closed_form_law(self, model_1d):
        rng = np.random.default_rng(7)
        h, n = 0.3, 50_000
        x0 = np.array([2.0])
        block = sample_transition(model_1d, h, np.tile(x0, (n, 1)), rng)
        var = (1 - math.exp(-2 * h)) / 2
        assert block.mean() == pytest.approx(2.0 * math.exp(-h), abs=4 * math.sqrt(var / n))
        assert block.var(ddof=1) == pytest.approx(var, rel=0.05)

    def test_small_step_stays_close(self, model5):
        rng = np.random.default_rng(9)
        x0 = np.array([1.0, 1.0])
        steps = sample_transition(model5, 1e-8, np.tile(x0, (20_000, 1)), rng)
        assert np.abs(steps.mean(axis=0) - x0).max() < 1e-3

    def test_one_step_law_kolmogorov_smirnov(self, model5):
        # distributional exactness of each marginal at fixed seed
        rng = np.random.default_rng(123)
        h, n = 0.7, 10_000
        x0 = np.array([0.3, -1.2])
        block = sample_transition(model5, h, np.tile(x0, (n, 1)), rng)
        mean = matrix_exponential(model5.B, h) @ x0
        sigma = covariance_at(model5, h).sigma
        for i in range(2):
            z = (block[:, i] - mean[i]) / math.sqrt(sigma[i, i])
            assert stats.kstest(z, "norm").pvalue > 0.01


class TestBurnIn:
    def test_default_burn_in_reaches_decay(self, model5):
        m = default_burn_in(model5, 0.5)
        E = matrix_exponential(model5.B, 0.5)
        assert np.linalg.norm(np.linalg.matrix_power(E, m), 2) < 1e-6
        assert np.linalg.norm(np.linalg.matrix_power(E, m - 1), 2) >= 1e-6

    @staticmethod
    def spectral_norm_search(model, h, decay=1e-6):
        E, power = matrix_exponential(model.B, h), np.eye(model.dim)
        for m in range(1, 10**6):
            power = power @ E
            if np.linalg.norm(power, 2) < decay:
                return m

    @pytest.mark.parametrize("seed", range(8))
    def test_same_step_count_as_spectral_norm_search(self, seed):
        """Strongly non-normal drifts, whose norm first grows: the Frobenius
        bracket must stop at the same step. On odd seeds the first mode is a
        rotation, so two singular values decay together and the Frobenius
        norm alone would stop late; on the others the lower bound f / sqrt(N)
        alone would stop early."""
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        rates = -rng.uniform(0.2, 2.0, n)
        B = np.diag(rates) + np.triu(rng.uniform(-8, 8, (n, n)), 1)
        if seed % 2:
            B[1, 0], B[0, 1], B[1, 1] = -2.0, 2.0, B[0, 0]
        R, _ = np.linalg.qr(rng.standard_normal((n, n)))
        model = validate_model(np.eye(n), R @ B @ R.T)
        h = rng.uniform(0.05, 0.5)
        assert default_burn_in(model, h) == self.spectral_norm_search(model, h)

    def test_same_step_count_for_slow_scalar_drift(self):
        model = validate_model([[1]], [[-0.01]])
        assert default_burn_in(model, 0.1) == self.spectral_norm_search(model, 0.1) == 13816


class TestStationaryEnsemble:
    def test_covariance_close_to_stationary(self, ensemble5):
        model = ensemble5.config.model
        emp = np.cov(ensemble5.samples, rowvar=False)
        q_inf = solve_lyapunov(model).sigma
        assert np.abs(emp - q_inf).max() / np.abs(q_inf).max() < 0.05

    def test_rotation_model_covariance(self, ensemble4):
        emp = np.cov(ensemble4.samples, rowvar=False)
        assert np.abs(emp - np.eye(2) / 2).max() / 0.5 < 0.05

    def test_mean_is_centered(self, ensemble5):
        n = ensemble5.paths
        std = ensemble5.samples.std(axis=0, ddof=1)
        assert np.all(np.abs(ensemble5.samples.mean(axis=0)) < 4 * std / math.sqrt(n))

    def test_determinism_and_worker_independence(self, model5):
        cfg = SimConfig(model=model5, step=0.5, paths=20_000, seed=99)
        a = stationary_ensemble(cfg)
        b = stationary_ensemble(cfg)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.provenance == b.provenance == config_digest(cfg)

    def test_different_seed_changes_samples(self, model5):
        a = stationary_ensemble(SimConfig(model=model5, step=0.5, paths=500, seed=1))
        b = stationary_ensemble(SimConfig(model=model5, step=0.5, paths=500, seed=2))
        assert a.samples.tobytes() != b.samples.tobytes()

    def test_negative_seed_is_deterministic(self, model5):
        cfg = SimConfig(model=model5, step=0.5, paths=500, seed=-3)
        a, b = stationary_ensemble(cfg), stationary_ensemble(cfg)
        assert a.samples.tobytes() == b.samples.tobytes()

    @pytest.mark.parametrize("burn_in", [1, 3])
    def test_burn_in_is_honoured(self, model5, burn_in):
        # a short burn-in leaves the samples at N(0, S_(m h)), not N(0, S)
        cfg = SimConfig(model=model5, step=0.5, paths=100_000, seed=11, burn_in=burn_in)
        emp = np.cov(stationary_ensemble(cfg).samples, rowvar=False)
        target = covariance_at(model5, burn_in * 0.5).sigma
        d = np.diag(target)
        se = np.sqrt((np.outer(d, d) + target**2) / cfg.paths)
        assert np.all(np.abs(emp - target) < 5 * se)
        S = solve_lyapunov(model5).sigma
        assert np.any(np.abs(emp - S) > 5 * se)


class TestEstimatePairing:
    def test_headline_value_within_three_sigma(self, ensemble5):
        vs = section5_eigenfunctions(Section5Params(2, 1, 1))
        est = estimate_pairing(ensemble5, vs[0][0], vs[2][0])
        assert abs(est.estimate - 0.125) < 3 * est.std_error

    def test_constant_pair_is_exact(self, ensemble5):
        one = SparsePolynomial.constant(2, 1.0)
        est = estimate_pairing(ensemble5, one, one)
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_orthonormal_pair_consistent_with_zero(self, ensemble4):
        h10 = hermite_tensor((1, 0), normalized=True)
        h01 = hermite_tensor((0, 1), normalized=True)
        est = estimate_pairing(ensemble4, h10.to_float(), h01.to_float())
        assert abs(est.estimate) < 3 * est.std_error

    def test_standard_error_halves_with_four_times_paths(self, model5):
        vs = section5_eigenfunctions(Section5Params(2, 1, 1))
        small = stationary_ensemble(SimConfig(model=model5, step=0.5, paths=10_000, seed=4))
        large = stationary_ensemble(SimConfig(model=model5, step=0.5, paths=40_000, seed=4))
        se_small = estimate_pairing(small, vs[0][0], vs[1][0]).std_error
        se_large = estimate_pairing(large, vs[0][0], vs[1][0]).std_error
        assert 1.5 < se_small / se_large < 2.7

    def test_jackknife_matches_classic_se(self, ensemble5):
        vs = section5_eigenfunctions(Section5Params(2, 1, 1))
        est = estimate_pairing(ensemble5, vs[0][0], vs[0][0])
        vals = vs[0][0].evaluate_rows(ensemble5.samples) ** 2
        classic = vals.std(ddof=1) / math.sqrt(len(vals))
        assert est.std_error == pytest.approx(classic, rel=1e-10)


class TestPersistence:
    def test_binary_round_trip(self, model5, tmp_path):
        ens = stationary_ensemble(SimConfig(model=model5, step=0.5, paths=300, seed=8))
        path = str(tmp_path / "samples.f64")
        sidecar = save_ensemble(ens, path)
        with open(path + ".json") as fh:
            meta = json.load(fh)
        samples = np.fromfile(path, dtype="<f8").reshape(meta["paths"], meta["dim"])
        assert np.array_equal(samples, ens.samples)
        assert meta == sidecar
        assert meta["config_sha256"] == ens.provenance
        assert meta["dtype"] == "<f8"

    def test_csv_export(self, model5, tmp_path):
        ens = stationary_ensemble(SimConfig(model=model5, step=0.5, paths=50, seed=8))
        path = str(tmp_path / "samples.csv")
        ensemble_to_csv(ens, path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert loaded == pytest.approx(ens.samples)


class TestConfigValidation:
    def test_rejects_bad_step(self, model5):
        with pytest.raises(ValueError):
            SimConfig(model=model5, step=0.0, paths=10, seed=1)

    def test_rejects_bad_paths(self, model5):
        with pytest.raises(ValueError):
            SimConfig(model=model5, step=0.5, paths=0, seed=1)

    def test_cholesky_failure_signals_bad_upstream(self, model5, monkeypatch):
        import ou_spectra.simulate as sim
        from ou_spectra.errors import CholeskyFailure
        from ou_spectra.model import CovarianceMatrix

        def broken(model, h):
            return CovarianceMatrix(t=h, sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))

        monkeypatch.setattr(sim, "covariance_at", broken)
        with pytest.raises(CholeskyFailure):
            sim.transition_maps(model5, 0.5)
