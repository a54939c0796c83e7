"""Step-length disorder: discrete pmf families and seeded realizations.

A disorder spec fixes one discrete distribution over nonnegative step
lengths; a realization is the frozen sequence of lengths one walk uses for
all its steps. Sampling is inverse-CDF over a precomputed cumulative table
(truncated where the remaining tail mass is below 1e-12), so identical
(spec, seed, n) triples always reproduce identical lengths.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import gammaln

from .errors import ConfigurationError

_TAIL_EPS = 1e-12
_MAX_SUPPORT = 100_000

FAMILIES = (
    "poisson",
    "binomial",
    "hypergeometric",
    "negative_binomial",
    "geometric",
    "geometric_shifted",
    "point_mass",
)

# canonical parameter order per family, as used in serialized text
_PARAM_KEYS = {
    "poisson": ("lambda",),
    "binomial": ("n", "p"),
    "hypergeometric": ("N", "K", "n"),
    "negative_binomial": ("r", "k"),
    "geometric": ("k",),
    "geometric_shifted": ("k",),
    "point_mass": ("length",),
}


@dataclass(frozen=True)
class DisorderSpec:
    """One step-length distribution: a family name plus its parameters."""

    family: str
    params: tuple  # ((key, value), ...) in canonical order

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown disorder family {self.family!r} "
                f"(known: {', '.join(FAMILIES)})"
            )
        keys = tuple(k for k, _ in self.params)
        if keys != _PARAM_KEYS[self.family]:
            raise ConfigurationError(
                f"family {self.family!r} needs parameters "
                f"{_PARAM_KEYS[self.family]}, got {keys}"
            )
        _VALIDATORS[self.family](dict(self.params))

    def param(self, key: str) -> float:
        return dict(self.params)[key]

    def to_text(self) -> str:
        parts = [f"family={self.family}"]
        parts += [f"{k}={_fmt_num(v)}" for k, v in self.params]
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "DisorderSpec":
        fields = {}
        for chunk in text.split():
            if "=" not in chunk:
                raise ConfigurationError(f"malformed disorder field {chunk!r}")
            key, _, value = chunk.partition("=")
            fields[key] = value
        family = fields.pop("family", None)
        if family is None:
            raise ConfigurationError("disorder text lacks a family= field")
        return build_spec(family, fields)

    def pmf(self, l: int) -> float:
        if l < 0 or int(l) != l:
            raise ConfigurationError(f"step length must be a nonnegative integer, got {l}")
        return _pmf_array(self, np.array([int(l)]))[0]

    def support_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, probabilities) covering all but < 1e-12 of the mass,
        as read-only arrays that are built once per spec."""
        return _support_table(self)

    def moments(self) -> tuple[float, float]:
        """Closed-form (mean, variance)."""
        return _MOMENTS[self.family](dict(self.params))

    def classification(self) -> str:
        mean, var = self.moments()
        if math.isclose(var, mean, rel_tol=1e-9, abs_tol=1e-12):
            return "poissonian"
        return "sub_poissonian" if var < mean else "super_poissonian"


def _fmt_num(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _validate_poisson(p: dict) -> None:
    if not p["lambda"] > 0:
        raise ConfigurationError("poisson needs lambda > 0")


def _validate_binomial(p: dict) -> None:
    n = p["n"]
    if n < 1 or int(n) != n:
        raise ConfigurationError("binomial needs integer n >= 1")
    if not 0.0 <= p["p"] <= 1.0:
        raise ConfigurationError("binomial needs p in [0, 1]")


def _validate_hypergeometric(p: dict) -> None:
    big_n, k, n = p["N"], p["K"], p["n"]
    for name, v in (("N", big_n), ("K", k), ("n", n)):
        if int(v) != v or v < 0:
            raise ConfigurationError(f"hypergeometric needs integer {name} >= 0")
    if not (big_n >= k and big_n >= n and big_n >= 1):
        raise ConfigurationError("hypergeometric needs N >= K, N >= n, N >= 1")


def _validate_negative_binomial(p: dict) -> None:
    if not p["r"] > 0:
        raise ConfigurationError("negative_binomial needs r > 0")
    if not 0.0 < p["k"] < 1.0:
        raise ConfigurationError("negative_binomial needs k in (0, 1)")


def _validate_geometric(p: dict) -> None:
    if not 0.0 < p["k"] <= 1.0:
        raise ConfigurationError("geometric needs k in (0, 1]")


def _validate_point_mass(p: dict) -> None:
    length = p["length"]
    if int(length) != length or length < 0:
        raise ConfigurationError("point_mass needs integer length >= 0")


_VALIDATORS = {
    "poisson": _validate_poisson,
    "binomial": _validate_binomial,
    "hypergeometric": _validate_hypergeometric,
    "negative_binomial": _validate_negative_binomial,
    "geometric": _validate_geometric,
    "geometric_shifted": _validate_geometric,
    "point_mass": _validate_point_mass,
}


def poisson(lam: float) -> DisorderSpec:
    return DisorderSpec("poisson", (("lambda", float(lam)),))


def binomial(n: int, p: float) -> DisorderSpec:
    return DisorderSpec("binomial", (("n", int(n)), ("p", float(p))))


def hypergeometric(N: int, K: int, n: int) -> DisorderSpec:
    return DisorderSpec(
        "hypergeometric", (("N", int(N)), ("K", int(K)), ("n", int(n)))
    )


def negative_binomial(r: float, k: float) -> DisorderSpec:
    return DisorderSpec("negative_binomial", (("r", float(r)), ("k", float(k))))


def geometric(k: float) -> DisorderSpec:
    return DisorderSpec("geometric", (("k", float(k)),))


def geometric_shifted(k: float) -> DisorderSpec:
    return DisorderSpec("geometric_shifted", (("k", float(k)),))


def point_mass(length: int = 1) -> DisorderSpec:
    """Every step uses the same length; reduces disordered runs to clean ones."""
    return DisorderSpec("point_mass", (("length", int(length)),))


_FACTORIES = {
    "poisson": poisson,
    "binomial": binomial,
    "hypergeometric": hypergeometric,
    "negative_binomial": negative_binomial,
    "geometric": geometric,
    "geometric_shifted": geometric_shifted,
    "point_mass": point_mass,
}


def build_spec(family: str, fields: dict) -> DisorderSpec:
    """Construct a spec from string-or-number parameter values."""
    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown disorder family {family!r} (known: {', '.join(FAMILIES)})"
        )
    expected = _PARAM_KEYS[family]
    if set(fields) != set(expected):
        raise ConfigurationError(
            f"family {family!r} needs parameters {expected}, "
            f"got {tuple(sorted(fields))}"
        )
    try:
        values = [float(fields[k]) for k in expected]
    except ValueError as exc:
        raise ConfigurationError(f"non-numeric disorder parameter: {exc}") from None
    for key, value in zip(expected, values):
        if not math.isfinite(value):
            raise ConfigurationError(
                f"disorder parameter {key} must be finite, got {fields[key]!r}"
            )
    return _FACTORIES[family](*values)


# Table II rows at unit mean. The hypergeometric triple (10, 5, 2) gives
# variance 4/9 exactly; no small triple matches the table any closer.
TABLE2_PRESETS = {
    "tableII-binomial": binomial(2, 0.5),
    "tableII-hypergeometric": hypergeometric(10, 5, 2),
    "tableII-negbinomial": negative_binomial(1.0, 0.5),
    "tableII-geometric": geometric_shifted(0.5),
}


def _pmf_array(spec: DisorderSpec, ls: np.ndarray) -> np.ndarray:
    p = dict(spec.params)
    ls = np.asarray(ls, dtype=np.int64)
    out = np.zeros(ls.shape, dtype=np.float64)
    fam = spec.family
    if fam == "poisson":
        lam = p["lambda"]
        ok = ls >= 0
        lf = ls[ok].astype(np.float64)
        out[ok] = np.exp(lf * math.log(lam) - lam - gammaln(lf + 1.0))
    elif fam == "binomial":
        n, q = int(p["n"]), p["p"]
        ok = (ls >= 0) & (ls <= n)
        lf = ls[ok].astype(np.float64)
        with np.errstate(divide="ignore"):
            log_q = math.log(q) if q > 0 else -np.inf
            log_1q = math.log(1 - q) if q < 1 else -np.inf
        log_pmf = (
            gammaln(n + 1.0) - gammaln(lf + 1.0) - gammaln(n - lf + 1.0)
        )
        log_pmf = log_pmf + np.where(lf > 0, lf * log_q, 0.0)
        log_pmf = log_pmf + np.where(n - lf > 0, (n - lf) * log_1q, 0.0)
        out[ok] = np.exp(log_pmf)
    elif fam == "hypergeometric":
        big_n, k, n = int(p["N"]), int(p["K"]), int(p["n"])
        lo = max(0, n - (big_n - k))
        hi = min(n, k)
        ok = (ls >= lo) & (ls <= hi)
        lf = ls[ok].astype(np.float64)

        def log_comb(a, b):
            return gammaln(a + 1.0) - gammaln(b + 1.0) - gammaln(a - b + 1.0)

        out[ok] = np.exp(
            log_comb(float(k), lf)
            + log_comb(float(big_n - k), n - lf)
            - log_comb(float(big_n), float(n))
        )
    elif fam == "negative_binomial":
        r, k = p["r"], p["k"]
        ok = ls >= 0
        lf = ls[ok].astype(np.float64)
        out[ok] = np.exp(
            gammaln(lf + r) - gammaln(r) - gammaln(lf + 1.0)
            + r * math.log(1 - k) + lf * math.log(k)
        )
    elif fam == "geometric":
        k = p["k"]
        ok = ls >= 1
        lf = ls[ok].astype(np.float64)
        if k == 1.0:
            out[ok] = np.where(lf == 1, 1.0, 0.0)
        else:
            out[ok] = np.exp((lf - 1.0) * math.log(1 - k)) * k
    elif fam == "geometric_shifted":
        k = p["k"]
        ok = ls >= 0
        lf = ls[ok].astype(np.float64)
        if k == 1.0:
            out[ok] = np.where(lf == 0, 1.0, 0.0)
        else:
            out[ok] = np.exp(lf * math.log(1 - k)) * k
    elif fam == "point_mass":
        out[ls == int(p["length"])] = 1.0
    else:  # pragma: no cover - guarded by the constructor
        raise ConfigurationError(f"unknown family {fam!r}")
    return out


@functools.lru_cache(maxsize=64)
def _support_table(spec: DisorderSpec) -> tuple[np.ndarray, np.ndarray]:
    # built once per spec and shared by every caller, so read-only
    p = dict(spec.params)
    fam = spec.family
    if fam == "binomial":
        hi = int(p["n"])
    elif fam == "hypergeometric":
        hi = min(int(p["n"]), int(p["K"]))
    elif fam == "point_mass":
        hi = int(p["length"])
    else:
        # unbounded support: grow until the remaining tail is negligible
        hi = 64
        while hi <= _MAX_SUPPORT:
            ls = np.arange(hi + 1)
            ps = _pmf_array(spec, ls)
            if 1.0 - float(np.sum(ps)) < _TAIL_EPS:
                break
            hi *= 2
        else:
            raise ConfigurationError(
                f"disorder {spec.to_text()!r} has too heavy a tail to tabulate"
            )
    ls = np.arange(hi + 1)
    ps = _pmf_array(spec, ls)
    ls.flags.writeable = ps.flags.writeable = False
    return ls, ps


def _mom_poisson(p: dict) -> tuple[float, float]:
    return p["lambda"], p["lambda"]


def _mom_binomial(p: dict) -> tuple[float, float]:
    n, q = p["n"], p["p"]
    return n * q, n * q * (1 - q)


def _mom_hypergeometric(p: dict) -> tuple[float, float]:
    big_n, k, n = p["N"], p["K"], p["n"]
    mean = n * k / big_n
    if big_n <= 1:
        return mean, 0.0
    var = n * (k / big_n) * (1 - k / big_n) * (big_n - n) / (big_n - 1)
    return mean, var


def _mom_negative_binomial(p: dict) -> tuple[float, float]:
    # consistent with the pmf C(l+r-1, l)(1-k)^r k^l
    r, k = p["r"], p["k"]
    return r * k / (1 - k), r * k / (1 - k) ** 2


def _mom_geometric(p: dict) -> tuple[float, float]:
    k = p["k"]
    return 1.0 / k, (1 - k) / k ** 2


def _mom_geometric_shifted(p: dict) -> tuple[float, float]:
    k = p["k"]
    return (1 - k) / k, (1 - k) / k ** 2


def _mom_point_mass(p: dict) -> tuple[float, float]:
    return float(p["length"]), 0.0


_MOMENTS = {
    "poisson": _mom_poisson,
    "binomial": _mom_binomial,
    "hypergeometric": _mom_hypergeometric,
    "negative_binomial": _mom_negative_binomial,
    "geometric": _mom_geometric,
    "geometric_shifted": _mom_geometric_shifted,
    "point_mass": _mom_point_mass,
}


@dataclass(frozen=True)
class Realization:
    """One frozen sequence of step lengths plus the seed that produced it."""

    seed: int
    lengths: np.ndarray


def child_seed(master_seed: int, index: int) -> int:
    """Derive realization seed i from the master seed, order-independently."""
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_realization(spec: DisorderSpec, n_steps: int, seed: int) -> Realization:
    """Draw n_steps i.i.d. lengths from the spec's pmf, deterministically."""
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    ls, ps = spec.support_table()
    cum = np.cumsum(ps)
    rng = np.random.default_rng(int(seed))
    u = rng.random(n_steps)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, ls.size - 1)
    return Realization(seed=int(seed), lengths=ls[idx].astype(np.int64))
