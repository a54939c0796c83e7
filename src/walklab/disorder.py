"""Step-length disorder: discrete pmf families and seeded realizations.

A disorder spec fixes one discrete distribution over nonnegative step
lengths; a realization is the frozen sequence of lengths one walk uses for
all its steps. Sampling is inverse-CDF over a precomputed cumulative table
(truncated where the remaining tail mass is below 1e-12), so identical
(spec, seed, n) triples always reproduce identical lengths. Each family is
declared once, in `_FAMILIES`; `parse_disorder` is its only text grammar.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError

_TAIL_EPS = 1e-12
# longest support table: a bounded support beyond it is refused, an
# unbounded one whose tail is not negligible by then as well
_MAX_SUPPORT = 100_000


class _Family(NamedTuple):
    """One pmf family. Every callable takes the parameter values in `keys`
    order; `pmf` also takes the lengths (as floats) first, all within the
    support."""

    keys: tuple  # canonical parameter order, as in serialized text
    integers: tuple  # the keys whose values must be integers
    check: Callable[..., bool]  # are the values admissible?
    requires: str  # what `check` asks for
    support: Callable[..., tuple]  # (lowest length, highest length or None)
    pmf: Callable[..., np.ndarray]
    moments: Callable[..., tuple]  # closed-form (mean, variance)


def _log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def _xlog(x: np.ndarray, log_y: float) -> np.ndarray:
    """x·log_y, taken as 0 where x = 0 (so 0·log 0 is 0, not NaN)."""
    return np.multiply(x, log_y, out=np.zeros_like(x), where=x > 0)


def _gammaln(x):
    """scipy.special.gammaln, imported on use: scipy would dominate the
    CLI's start-up, and only disordered runs tabulate a pmf."""
    from scipy.special import gammaln

    return gammaln(x)


def _log_comb(a, b):
    return _gammaln(a + 1.0) - _gammaln(b + 1.0) - _gammaln(a - b + 1.0)


def _geometric(lowest: int) -> _Family:
    """Geometric over lowest, lowest + 1, ... with success probability k."""
    return _Family(
        ("k",), (), lambda k: 0.0 < k <= 1.0, "k in (0, 1]",
        lambda k: (lowest, None),
        lambda l, k: (np.where(l == lowest, 1.0, 0.0) if k == 1.0
                      else np.exp((l - lowest) * math.log(1 - k)) * k),
        lambda k: (1 / k if lowest else (1 - k) / k, (1 - k) / k ** 2),
    )


_FAMILIES = {
    "poisson": _Family(
        ("lambda",), (), lambda lam: lam > 0, "lambda > 0",
        lambda lam: (0, None),
        lambda l, lam: np.exp(l * math.log(lam) - lam - _gammaln(l + 1.0)),
        lambda lam: (lam, lam),
    ),
    "binomial": _Family(
        ("n", "p"), ("n",), lambda n, p: n >= 1 and 0.0 <= p <= 1.0,
        "n >= 1 and p in [0, 1]",
        lambda n, p: (0, n),
        lambda l, n, p: np.exp(_gammaln(n + 1.0) - _gammaln(l + 1.0)
                               - _gammaln(n - l + 1.0) + _xlog(l, _log(p))
                               + _xlog(n - l, _log(1 - p))),
        lambda n, p: (n * p, n * p * (1 - p)),
    ),
    "hypergeometric": _Family(
        ("N", "K", "n"), ("N", "K", "n"),
        lambda N, K, n: N >= 1 and 0 <= K <= N and 0 <= n <= N,
        "N >= 1 and K, n in [0, N]",
        lambda N, K, n: (max(0, n - (N - K)), min(n, K)),
        lambda l, N, K, n: np.exp(_log_comb(float(K), l)
                                  + _log_comb(float(N - K), n - l)
                                  - _log_comb(float(N), float(n))),
        lambda N, K, n: (n * K / N, n * (K / N) * (1 - K / N) * (N - n) / (N - 1)
                         if N > 1 else 0.0),
    ),
    # pmf C(l + r - 1, l)(1 - k)^r k^l
    "negative_binomial": _Family(
        ("r", "k"), (), lambda r, k: r > 0 and 0.0 < k < 1.0,
        "r > 0 and k in (0, 1)",
        lambda r, k: (0, None),
        lambda l, r, k: np.exp(_gammaln(l + r) - _gammaln(r) - _gammaln(l + 1.0)
                               + r * math.log(1 - k) + l * math.log(k)),
        lambda r, k: (r * k / (1 - k), r * k / (1 - k) ** 2),
    ),
    "geometric": _geometric(1),
    "geometric_shifted": _geometric(0),
    "point_mass": _Family(
        ("length",), ("length",), lambda length: length >= 0, "length >= 0",
        lambda length: (length, length),
        lambda l, length: np.ones_like(l),
        lambda length: (float(length), 0.0),
    ),
}


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise ConfigurationError(
            f"unknown disorder family {name!r} (known: {', '.join(_FAMILIES)})"
        )
    return _FAMILIES[name]


@dataclass(frozen=True)
class DisorderSpec:
    """One step-length distribution: a family name plus its parameters.

    The parameters are checked, then stored as ints (integer keys) and
    floats (the rest)."""

    family: str
    params: tuple  # ((key, value), ...) in canonical order

    def __post_init__(self) -> None:
        fam = _family(self.family)
        keys = tuple(k for k, _ in self.params)
        if keys != fam.keys:
            raise ConfigurationError(
                f"family {self.family!r} needs parameters {fam.keys}, got {keys}"
            )
        for key, value in self.params:
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"disorder parameter {key} must be finite, got {value!r}"
                )
            if key in fam.integers and not float(value).is_integer():
                raise ConfigurationError(
                    f"{self.family} needs an integer {key}, got {value!r}"
                )
        params = tuple((k, int(v) if k in fam.integers else float(v))
                       for k, v in self.params)
        if not fam.check(*(v for _, v in params)):
            raise ConfigurationError(f"{self.family} needs {fam.requires}")
        object.__setattr__(self, "params", params)

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.params)

    def param(self, key: str) -> float:
        return dict(self.params)[key]

    def to_text(self) -> str:
        parts = [f"family={self.family}"]
        parts += [f"{k}={_fmt_num(v)}" for k, v in self.params]
        return " ".join(parts)

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
        return _FAMILIES[self.family].moments(*self.values)

    def classification(self) -> str:
        mean, var = self.moments()
        if math.isclose(var, mean, rel_tol=1e-9, abs_tol=1e-12):
            return "poissonian"
        return "sub_poissonian" if var < mean else "super_poissonian"


def _fmt_num(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _spec(family: str, *values) -> DisorderSpec:
    return DisorderSpec(family, tuple(zip(_FAMILIES[family].keys, values)))


def poisson(lam: float) -> DisorderSpec:
    return _spec("poisson", lam)


def binomial(n: int, p: float) -> DisorderSpec:
    return _spec("binomial", n, p)


def hypergeometric(N: int, K: int, n: int) -> DisorderSpec:
    return _spec("hypergeometric", N, K, n)


def negative_binomial(r: float, k: float) -> DisorderSpec:
    return _spec("negative_binomial", r, k)


def geometric(k: float) -> DisorderSpec:
    return _spec("geometric", k)


def geometric_shifted(k: float) -> DisorderSpec:
    return _spec("geometric_shifted", k)


def point_mass(length: int = 1) -> DisorderSpec:
    """Every step uses the same length; reduces disordered runs to clean ones."""
    return _spec("point_mass", length)


def build_spec(family: str, fields: dict) -> DisorderSpec:
    """Construct a spec from string-or-number parameter values, in any key
    order; the spec checks them."""
    keys = _family(family).keys
    if set(fields) != set(keys):
        raise ConfigurationError(
            f"family {family!r} needs parameters {keys}, got {tuple(sorted(fields))}"
        )
    try:
        return _spec(family, *(float(fields[k]) for k in keys))
    except ValueError as exc:
        raise ConfigurationError(f"non-numeric disorder parameter: {exc}") from None


# Table II rows at unit mean. The hypergeometric triple (10, 5, 2) gives
# variance 4/9 exactly; no small triple matches the table any closer.
TABLE2_PRESETS = {
    "tableII-binomial": binomial(2, 0.5),
    "tableII-hypergeometric": hypergeometric(10, 5, 2),
    "tableII-negbinomial": negative_binomial(1.0, 0.5),
    "tableII-geometric": geometric_shifted(0.5),
}


def parse_disorder(text: str) -> DisorderSpec:
    """Parse the disorder grammar: a preset name or family:key=value,..."""
    if text in TABLE2_PRESETS:
        return TABLE2_PRESETS[text]
    if ":" not in text:
        presets = ", ".join(TABLE2_PRESETS)
        raise ConfigurationError(
            f"disorder spec {text!r} is neither a preset ({presets}) "
            "nor family:key=value,..."
        )
    family, _, rest = text.partition(":")
    fields = {}
    for item in rest.split(","):
        if "=" not in item:
            raise ConfigurationError(
                f"malformed disorder parameter {item!r} (expected key=value)"
            )
        key, _, value = item.partition("=")
        fields[key.strip()] = value.strip()
    return build_spec(family.strip(), fields)


def _pmf_array(spec: DisorderSpec, ls: np.ndarray) -> np.ndarray:
    fam, values = _FAMILIES[spec.family], spec.values
    lo, hi = fam.support(*values)
    ls = np.asarray(ls, dtype=np.int64)
    ok = (ls >= lo) if hi is None else (ls >= lo) & (ls <= hi)
    out = np.zeros(ls.shape, dtype=np.float64)
    out[ok] = fam.pmf(ls[ok].astype(np.float64), *values)
    return out


@functools.lru_cache(maxsize=64)
def _support_table(spec: DisorderSpec) -> tuple[np.ndarray, np.ndarray]:
    # built once per spec and shared by every caller, so read-only; it starts
    # at the lowest length of the support, and an unbounded support grows
    # until the remaining tail is negligible
    lowest, highest = _FAMILIES[spec.family].support(*spec.values)
    hi = 64 if highest is None else highest
    while hi <= _MAX_SUPPORT:
        ls = np.arange(lowest, hi + 1)
        ps = _pmf_array(spec, ls)
        if highest is not None or 1.0 - float(np.sum(ps)) < _TAIL_EPS:
            ls.flags.writeable = ps.flags.writeable = False
            return ls, ps
        hi *= 2
    raise ConfigurationError(
        f"disorder {spec.to_text()!r} needs step lengths beyond the support "
        f"cap of {_MAX_SUPPORT}"
    )


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
