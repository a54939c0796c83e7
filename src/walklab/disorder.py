"""Step-length disorder: discrete pmf families and seeded realizations.

A disorder spec fixes one discrete distribution over nonnegative step
lengths; a realization is the frozen sequence of lengths one walk uses for
all its steps. Sampling is inverse-CDF over the spec's pmf table (truncated
where the remaining tail mass is below 1e-12), so identical (spec, seed, n)
triples always reproduce identical lengths; a spec object builds its table
once, and nothing else holds it. The one draw, `sample_realization`, refuses
lengths beyond the memory budget before it draws. Each family is declared
once, in `_FAMILIES`; `parse_disorder` is its only text grammar. Every pmf
table steps its family's exact term ratio p(j+1)/p(j), summing the logs of
the ratio's factors, so no ratio underflows and no log-gammas cancel (large
N or r): sampling loads no scipy.
"""
from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError
from .lattice import check_budget, checked

_TAIL_EPS = 1e-12
# longest support table: a bounded support beyond it is refused, an
# unbounded one whose tail is not negligible by then as well
_MAX_SUPPORT = 100_000


class _Family(NamedTuple):
    """One pmf family. Every callable takes the parameter values in `keys`
    order; `log_ratio` also takes the lengths j (as floats) first."""

    keys: tuple  # canonical parameter order, as in serialized text
    integers: tuple  # the keys whose values must be integers
    check: Callable[..., bool]  # are the values admissible?
    requires: str  # what `check` asks for
    support: Callable[..., tuple]  # (lowest length, highest length or None)
    # log p(j+1)/p(j) at lengths j within the support, as the sum of the
    # logs of the ratio's factors: no factor underflows, a zero one gives −inf
    log_ratio: Callable[..., np.ndarray]
    # log p(lowest); None for a bounded support, over which p is normalized
    log_first: Callable[..., Optional[float]]
    moments: Callable[..., tuple]  # closed-form (mean, variance)


def _from_ratios(fam: _Family, values: tuple, lowest: int, top: int) -> np.ndarray:
    """p at the lengths lowest..top from the family's term ratio, summed in
    logs. A bounded support (no log p(lowest)) is summed outward from its
    mode, the length the ratios ≥ 1 climb to (its pmf is log-concave), and
    normalized: so an infinite ratio never meets an infinite sum, and a
    degenerate binomial keeps its zero-probability lengths."""
    j = np.arange(lowest, top, dtype=np.float64)
    with np.errstate(divide="ignore"):  # log 0 = −inf: a zero probability
        steps = np.broadcast_to(fam.log_ratio(j, *values), j.shape)
        log_first = fam.log_first(*values)
    if log_first is not None:
        return np.exp(log_first + np.concatenate(([0.0], np.cumsum(steps))))
    mode = np.count_nonzero(steps >= 0.0)
    below = np.cumsum(steps[:mode][::-1])[::-1]
    p = np.exp(np.concatenate((-below, [0.0], np.cumsum(steps[mode:]))))
    return p / np.sum(p)


def _geometric(lowest: int) -> _Family:
    """Geometric over lowest, lowest + 1, ... with success probability k."""
    return _Family(
        ("k",), (), lambda k: 0.0 < k <= 1.0, "k in (0, 1]",
        lambda k: (lowest, None),
        lambda j, k: np.log1p(-k),
        lambda k: math.log(k),
        lambda k: (1 / k if lowest else (1 - k) / k, (1 - k) / k ** 2),
    )


_FAMILIES = {
    "poisson": _Family(
        ("lambda",), (), lambda lam: lam > 0, "lambda > 0",
        lambda lam: (0, None),
        lambda j, lam: math.log(lam) - np.log(j + 1),
        lambda lam: -lam,
        lambda lam: (lam, lam),
    ),
    "binomial": _Family(
        ("n", "p"), ("n",), lambda n, p: n >= 1 and 0.0 <= p <= 1.0,
        "n >= 1 and p in [0, 1]",
        lambda n, p: (0, n),
        lambda j, n, p: np.log(n - j) - np.log(j + 1) + np.log(p) - np.log1p(-p),
        lambda n, p: None,
        lambda n, p: (n * p, n * p * (1 - p)),
    ),
    "hypergeometric": _Family(
        ("N", "K", "n"), ("N", "K", "n"),
        lambda N, K, n: N >= 1 and 0 <= K <= N and 0 <= n <= N,
        "N >= 1 and K, n in [0, N]",
        lambda N, K, n: (max(0, n - (N - K)), min(n, K)),
        # N - K - n + 1 is summed as exact integers before j joins it
        lambda j, N, K, n: (np.log(K - j) + np.log(n - j) - np.log(j + 1)
                            - np.log(N - K - n + 1 + j)),
        lambda N, K, n: None,
        lambda N, K, n: (n * K / N, n * (K / N) * (1 - K / N) * (N - n) / (N - 1)
                         if N > 1 else 0.0),
    ),
    # pmf C(l + r - 1, l)(1 - k)^r k^l
    "negative_binomial": _Family(
        ("r", "k"), (), lambda r, k: r > 0 and 0.0 < k < 1.0,
        "r > 0 and k in (0, 1)",
        lambda r, k: (0, None),
        lambda j, r, k: np.log(j + r) + math.log(k) - np.log(j + 1),
        lambda r, k: r * math.log1p(-k),
        lambda r, k: (r * k / (1 - k), r * k / (1 - k) ** 2),
    ),
    "geometric": _geometric(1),
    "geometric_shifted": _geometric(0),
    "point_mass": _Family(
        ("length",), ("length",), lambda length: length >= 0, "length >= 0",
        lambda length: (length, length),
        lambda j, length: 0.0,  # never taken: the support is one length
        lambda length: None,
        lambda length: (float(length), 0.0),
    ),
}


@dataclass(frozen=True)
class DisorderSpec:
    """One step-length distribution: a family name plus its parameters.

    The parameters are checked, then stored as ints (integer keys) and
    floats (the rest)."""

    family: str
    params: tuple  # ((key, value), ...) in canonical order

    def __post_init__(self) -> None:
        fam = _FAMILIES[checked("disorder family", self.family, _FAMILIES)]
        keys = tuple(k for k, _ in checked("params", self.params, tuple))
        if keys != fam.keys:
            raise ConfigurationError(
                f"family {self.family!r} needs parameters {fam.keys}, got {keys}"
            )
        for key, value in self.params:
            if not math.isfinite(checked(f"disorder parameter {key}", value, numbers.Real)):
                raise ConfigurationError(
                    f"disorder parameter {key} must be finite, got {value!r}"
                )
            if key in fam.integers and value != int(value):  # exact, also for Fraction
                raise ConfigurationError(
                    f"{self.family} needs an integer {key}, got {float(value)!r}"
                )
        params = tuple((k, int(v) if k in fam.integers else float(v))
                       for k, v in self.params)
        if not fam.check(*(v for _, v in params)):
            raise ConfigurationError(f"{self.family} needs {fam.requires}")
        object.__setattr__(self, "params", params)

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.params)

    def to_text(self) -> str:
        parts = [f"family={self.family}"]
        parts += [f"{k}={_fmt_num(v)}" for k, v in self.params]
        return " ".join(parts)

    def support_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, probabilities) covering all but < 1e-12 of the mass, read-only."""
        return self._table[:2]

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (lengths, probabilities, the draws' running sums), read-only, from the
        # support's lowest length to its highest or until the tail is negligible;
        # the last running sum is +inf, so a u past the tail gets the last length
        fam, values = _FAMILIES[self.family], self.values
        lowest, highest = fam.support(*values)
        hi = 64 if highest is None else highest
        while hi <= _MAX_SUPPORT:
            ps = _from_ratios(fam, values, lowest, hi)
            if highest is not None or 1.0 - float(np.sum(ps)) < _TAIL_EPS:
                table = (np.arange(lowest, hi + 1), ps, np.append(np.cumsum(ps)[:-1], np.inf))
                for array in table:
                    array.flags.writeable = False
                return table
            hi *= 2
        raise ConfigurationError(f"disorder {self.to_text()!r} needs step lengths beyond "
                                 f"the support cap of {_MAX_SUPPORT}")

    def moments(self) -> tuple[float, float]:
        """Closed-form (mean, variance)."""
        return _FAMILIES[self.family].moments(*self.values)

    def classification(self) -> str:
        mean, var = self.moments()
        if math.isclose(var, mean, rel_tol=1e-9, abs_tol=1e-12):
            return "poissonian"
        return "sub_poissonian" if var < mean else "super_poissonian"


def _fmt_num(v) -> str:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    return repr(v)


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


def _number(value, integer: bool):
    """A float, or an integer key's value exactly as written (bar inf, nan)."""
    number = float(value)
    if not integer or not math.isfinite(number):
        return number
    from fractions import Fraction  # it loads decimal: imported only when needed
    return Fraction(str(value))


def build_spec(family: str, fields: dict) -> DisorderSpec:
    """Construct a spec from string-or-number parameter values, in any key
    order; the spec checks them."""
    fam = _FAMILIES[checked("disorder family", family, _FAMILIES)]
    if set(checked("disorder parameters", fields, Mapping)) != set(fam.keys):
        raise ConfigurationError(
            f"family {family!r} needs parameters {fam.keys}, got {tuple(sorted(fields))}"
        )
    try:
        return _spec(family, *(_number(fields[k], k in fam.integers) for k in fam.keys))
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
        key, _, value = (part.strip() for part in item.partition("="))
        if key in fields:
            raise ConfigurationError(f"disorder parameter {key!r} is given twice")
        fields[key] = value
    return build_spec(family.strip(), fields)


@dataclass(frozen=True)
class Realization:
    """One frozen sequence of step lengths."""

    lengths: np.ndarray


def child_seed(master_seed: int, index: int) -> int:
    """Derive realization seed i from the master seed, order-independently."""
    entropy = (checked("seed", master_seed, lo=0), checked("index", index, lo=0))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def sample_realization(spec: DisorderSpec, n_steps: int, seed: int) -> Realization:
    """Draw n_steps i.i.d. lengths from the spec's pmf, deterministically;
    n_steps int64 lengths beyond `lattice.MAX_ARRAY_BYTES` are refused first."""
    n_steps = checked("n_steps", n_steps, lo=1)
    check_budget(n_steps * 8, f"{n_steps} disordered steps need {{}} bytes of step lengths")
    u = np.random.default_rng(checked("seed", seed, lo=0)).random(n_steps)
    lengths, _, cumulative = checked("spec", spec, DisorderSpec)._table
    return Realization(lengths=lengths[np.searchsorted(cumulative, u, side="right")])
