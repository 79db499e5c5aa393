"""Exact-discretization sampling of the diffusion and Monte Carlo pairings.

One transition over time h is x -> e^(hB) x + xi with xi drawn from the exact
time-h covariance, so the sampled law has no step-size bias and the
statistical tolerance is the only error source. A chain of m such steps of
length h has the law of one transition over time m h, so the stationary
ensemble is drawn as that single transition from the origin, from one
counter-based RNG stream keyed by the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CholeskyFailure, InvalidParams
from .model import OUModel, covariance_at, drift_eigenvalues, matrix_exponential
from .polynomials import SparsePolynomial

BURN_IN_DECAY = 1e-6
BURN_IN_CAP = 1_000_000  # most steps the burn-in search tries


@dataclass(frozen=True)
class SimConfig:
    model: OUModel
    step: float
    paths: int
    seed: int
    burn_in: int | None = None  # None: smallest m with ||e^(m h B)||_2 < 1e-6

    def __post_init__(self):
        if self.paths < 1 or (self.burn_in is not None and self.burn_in < 1):
            raise InvalidParams(
                f"paths and burn_in must be positive, got {self.paths} and {self.burn_in}"
            )
        if not (self.step > 0 and math.log2(self.step) + math.log2(self.burn_in or 1) < 1024):
            raise InvalidParams(
                f"step and step * burn_in must be finite and positive: {self.step}, {self.burn_in}"
            )

    def resolved_burn_in(self) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return default_burn_in(self.model, self.step)


@dataclass(frozen=True)
class Ensemble:
    samples: np.ndarray  # (paths, N)
    config: SimConfig
    provenance: str  # hash of the fully resolved config

    @property
    def paths(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class PairingEstimate:
    estimate: float
    std_error: float
    paths: int


def default_burn_in(model: OUModel, h: float, decay: float = BURN_IN_DECAY) -> int:
    """Smallest step count m with spectral norm ||e^(m h B)|| below the decay
    target.

    ||e^(m h B)|| >= e^(m h alpha), with alpha the largest real part of the
    drift eigenvalues, so m > ln(decay) / (h alpha). A drift for which that
    bound passes BURN_IN_CAP is rejected before the search starts. Every
    step is checked, as the norm need not fall monotonically for a
    non-normal B, but the spectral norm (an SVD) only where the Frobenius
    norm f, ||P|| <= f <= sqrt(N) ||P||, cannot decide.
    """
    alpha = drift_eigenvalues(model.B)[-1].real
    if math.log(decay) / (h * alpha) > BURN_IN_CAP:
        raise InvalidParams(
            f"burn-in to {decay:g} needs more than {BURN_IN_CAP} steps of {h:g} "
            f"(slowest drift rate {alpha:g}); pass --burn-in"
        )
    E = matrix_exponential(model.B, h)
    power = np.eye(model.dim)
    undecided = math.sqrt(model.dim) * decay  # f at or above this means ||P|| >= decay
    for m in range(1, BURN_IN_CAP + 1):
        power = power @ E
        f = np.linalg.norm(power)
        if f < decay or (f < undecided and np.linalg.norm(power, 2) < decay):
            return m
    raise InvalidParams(f"burn-in search stopped at {BURN_IN_CAP} steps; pass --burn-in")


def config_digest(config: SimConfig) -> str:
    payload = {
        "Q": config.model.Q.tolist(),
        "B": config.model.B.tolist(),
        "step": config.step,
        "paths": config.paths,
        "seed": config.seed,
        "burn_in": config.resolved_burn_in(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def transition_maps(model: OUModel, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^(hB), Cholesky factor of the time-h covariance)."""
    E = matrix_exponential(model.B, h)
    sigma = covariance_at(model, h).sigma
    try:
        L = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as e:
        raise CholeskyFailure(f"time-{h} covariance is not positive definite: {e}") from e
    return E, L


def sample_transition(model: OUModel, h: float, x, rng: np.random.Generator) -> np.ndarray:
    """One exact transition from state x (a vector or a (m, N) block)."""
    E, L = transition_maps(model, h)
    x = np.asarray(x, dtype=float)
    noise = rng.standard_normal(x.shape)
    return x @ E.T + noise @ L.T if x.ndim == 2 else E @ x + L @ noise


def worker_count() -> int:
    """Always 1: sampling runs in one thread. Kept because the benchmark
    harness still imports it to report its worker figure."""
    return 1


def stationary_ensemble(config: SimConfig) -> Ensemble:
    """Draw one near-stationary sample per path.

    A path of burn_in exact steps of length h from the origin has the law
    N(0, S_(m h)), within ||e^(m h B)||^2 of the stationary covariance, so
    every path is drawn as one exact transition over time m h. The draws come
    from a single Philox stream keyed by the seed; negative seeds are taken
    modulo 2^64. The ensemble's config carries the resolved burn_in, so the
    default search runs once per ensemble.
    """
    config = replace(config, burn_in=config.resolved_burn_in())
    rng = np.random.Generator(np.random.Philox(key=config.seed & 0xFFFFFFFFFFFFFFFF))
    origin = np.zeros((config.paths, config.model.dim))
    samples = sample_transition(config.model, config.burn_in * config.step, origin, rng)
    return Ensemble(samples=samples, config=config, provenance=config_digest(config))


def estimate_pairing(
    ensemble: Ensemble, p: SparsePolynomial, q: SparsePolynomial
) -> PairingEstimate:
    """Sample mean of p(x) * conj(q(x)) with a jackknife standard error."""
    X = ensemble.samples
    vals = p.evaluate_rows(X) * np.conj(q.evaluate_rows(X))
    n = vals.shape[0]
    total = vals.sum()
    est = total / n
    if n == 1:
        return PairingEstimate(float(np.real(est)), math.inf, 1)
    loo = (total - vals) / (n - 1)
    var = (n - 1) / n * np.sum(np.abs(loo - loo.mean()) ** 2)
    return PairingEstimate(float(np.real(est)), float(math.sqrt(var)), n)


# -- persistence -------------------------------------------------------------


def save_ensemble(ensemble: Ensemble, path: str) -> dict:
    """Write little-endian float64 row-major samples plus a JSON sidecar."""
    data = np.ascontiguousarray(ensemble.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(data.tobytes())
    sidecar = {
        "paths": int(ensemble.samples.shape[0]),
        "dim": int(ensemble.samples.shape[1]),
        "dtype": "<f8",
        "layout": "row-major",
        "step": ensemble.config.step,
        "seed": ensemble.config.seed,
        "burn_in": ensemble.config.resolved_burn_in(),
        "Q": ensemble.config.model.Q.tolist(),
        "B": ensemble.config.model.B.tolist(),
        "config_sha256": ensemble.provenance,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return sidecar


def ensemble_to_csv(ensemble: Ensemble, path: str):
    np.savetxt(
        path,
        ensemble.samples,
        delimiter=",",
        header=",".join(f"x{i + 1}" for i in range(ensemble.samples.shape[1])),
        comments="",
    )
