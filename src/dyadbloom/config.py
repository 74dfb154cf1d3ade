"""Experiment configuration and deterministic seed derivation.

A config pins depth, master seed, trial count, suite list, and one ensemble
recipe per role (mu, lambda, symbol).  Per-trial, per-role streams are derived
as SeedSequence((master XOR trial, role)), which keeps roles and trials
independent without the off-by-one collisions of additive schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .weights import SYMBOL_KINDS, WEIGHT_KINDS, EnsembleSpec

__all__ = [
    "SUITE_NAMES",
    "ROLE_MU",
    "ROLE_LAMBDA",
    "ROLE_SYMBOL",
    "ROLE_FUNC",
    "derive_seed",
    "ExperimentConfig",
]

SUITE_NAMES = (
    "identities",
    "equivalences",
    "paraproduct-bounds",
    "commutator-bounds",
    "carleson",
    "ppott",
    "stopping",
    "neccon-chain",
)

ROLE_MU = 0
ROLE_LAMBDA = 1
ROLE_SYMBOL = 2
ROLE_FUNC = 3

MIN_DEPTH = 2
MAX_DEPTH = 14


def derive_seed(master: int, trial: int, role: int) -> int:
    """Stable 64-bit stream seed for (master, trial, role)."""
    ss = np.random.SeedSequence((master ^ trial, role))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


_DEFAULT_MU = {"kind": "cascade", "delta": 0.4}
_DEFAULT_LAMBDA = {"kind": "cascade", "delta": 0.4}
_DEFAULT_SYMBOL = {"kind": "log-symbol", "delta": 0.3}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a verification run needs; JSON-round-trippable."""

    depth: int = 8
    seed: int = 2026
    trials: int = 20
    suites: tuple[str, ...] = SUITE_NAMES
    mu: dict = field(default_factory=lambda: dict(_DEFAULT_MU))
    lam: dict = field(default_factory=lambda: dict(_DEFAULT_LAMBDA))
    symbol: dict = field(default_factory=lambda: dict(_DEFAULT_SYMBOL))

    def __post_init__(self):
        if not MIN_DEPTH <= self.depth <= MAX_DEPTH:
            raise ConfigError(
                f"depth must be in [{MIN_DEPTH}, {MAX_DEPTH}], got {self.depth}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ConfigError(
                    f"unknown suite {s!r}; choose from {', '.join(SUITE_NAMES)}"
                )
        for role_name, d, kinds in (
            ("mu", self.mu, WEIGHT_KINDS),
            ("lambda", self.lam, WEIGHT_KINDS),
            ("symbol", self.symbol, WEIGHT_KINDS + SYMBOL_KINDS),
        ):
            if not isinstance(d, dict) or "kind" not in d:
                raise ConfigError(f"role {role_name!r} needs an object with a 'kind'")
            if d["kind"] not in kinds:
                raise ConfigError(
                    f"role {role_name!r} cannot use kind {d['kind']!r}"
                )
            if "depth" in d or "seed" in d:
                raise ConfigError(
                    f"role {role_name!r} must not pin depth or seed; the runner "
                    f"derives them from the config"
                )
            try:
                EnsembleSpec.from_dict({**d, "depth": self.depth})
            except ConfigError as e:
                raise ConfigError(f"role {role_name!r}: {e}") from e

    def role_spec(self, role_dict: dict, trial: int, role: int) -> EnsembleSpec:
        return EnsembleSpec.from_dict(
            {**role_dict, "depth": self.depth, "seed": derive_seed(self.seed, trial, role)}
        )

    def mu_spec(self, trial: int) -> EnsembleSpec:
        return self.role_spec(self.mu, trial, ROLE_MU)

    def lambda_spec(self, trial: int) -> EnsembleSpec:
        return self.role_spec(self.lam, trial, ROLE_LAMBDA)

    def symbol_spec(self, trial: int) -> EnsembleSpec:
        return self.role_spec(self.symbol, trial, ROLE_SYMBOL)

    def func_seed(self, trial: int) -> int:
        return derive_seed(self.seed, trial, ROLE_FUNC)

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "seed": self.seed,
            "trials": self.trials,
            "suites": list(self.suites),
            "mu": dict(self.mu),
            "lambda": dict(self.lam),
            "symbol": dict(self.symbol),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object, got {type(d).__name__}")
        known = {"depth", "seed", "trials", "suites", "mu", "lambda", "symbol"}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        kw = {}
        try:
            for name in ("depth", "seed", "trials"):
                if name in d:
                    kw[name] = int(d[name])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"depth, seed and trials must be integers: {e}") from e
        if "suites" in d:
            if not isinstance(d["suites"], (list, tuple)):
                raise ConfigError(f"suites must be a list of names, got {d['suites']!r}")
            kw["suites"] = tuple(d["suites"])
        for role, key in (("mu", "mu"), ("lambda", "lam"), ("symbol", "symbol")):
            if role in d:
                kw[key] = dict(d[role]) if isinstance(d[role], dict) else d[role]
        return cls(**kw)
