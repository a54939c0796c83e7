"""Independent reference implementations used to validate the package.

Everything here is deliberately written with different algorithms and data
structures than the library (dicts, exact rationals, brute-force path
enumeration instead of arrays and float recurrences), so agreement between
the two is meaningful evidence and not a shared bug.
"""
import math
from collections import defaultdict
from fractions import Fraction


def dict_quantum_walk(steps, coin, amp_l=1.0, amp_r=0.0, absorber=None,
                      lengths=None):
    """Coin-shift-absorb evolution on a dict {position: (ampL, ampR)}.

    coin is ((a, b), (c, d)) acting |L> -> a|L> + b|R>, |R> -> c|L> + d|R>.
    Returns (final amplitude dict, per-step absorbed probabilities).
    """
    (a, b), (c, d) = coin
    psi = {0: (complex(amp_l), complex(amp_r))}
    absorbed = []
    for t in range(steps):
        step_len = 1 if lengths is None else int(lengths[t])
        moved = defaultdict(lambda: [0j, 0j])
        for n, (pl, pr) in psi.items():
            moved[n - step_len][0] += a * pl + c * pr
            moved[n + step_len][1] += b * pl + d * pr
        eaten = 0.0
        if absorber is not None:
            for n in list(moved):
                gone = n >= absorber if absorber > 0 else n <= absorber
                if gone:
                    pl, pr = moved.pop(n)
                    eaten += abs(pl) ** 2 + abs(pr) ** 2
        absorbed.append(eaten)
        psi = {n: (v[0], v[1]) for n, v in moved.items()}
    return psi, absorbed


def dict_classical_walk(steps, absorber=None, lengths=None):
    """Fair-split evolution on a dict {position: probability}."""
    prob = {0: 1.0}
    absorbed = []
    for t in range(steps):
        step_len = 1 if lengths is None else int(lengths[t])
        moved = defaultdict(float)
        for n, p in prob.items():
            if step_len == 0:
                moved[n] += p
            else:
                moved[n - step_len] += 0.5 * p
                moved[n + step_len] += 0.5 * p
        eaten = 0.0
        if absorber is not None:
            for n in list(moved):
                gone = n >= absorber if absorber > 0 else n <= absorber
                if gone:
                    eaten += moved.pop(n)
        absorbed.append(eaten)
        prob = dict(moved)
    return prob, absorbed


def brute_force_first_passage(t_max, m1):
    """Exact first-passage probabilities by enumerating every +-1 path.

    Returns Fractions p[0..t_max]; p[t] is the probability that a fair
    unit-step walk from 0 first reaches m1 at step t. Exponential in t_max,
    keep t_max <= 16.
    """
    m = abs(int(m1))
    counts = [0] * (t_max + 1)
    for bits in range(2 ** t_max):
        pos = 0
        for t in range(1, t_max + 1):
            pos += 1 if (bits >> (t - 1)) & 1 else -1
            if pos == m:
                counts[t] += 1
                break
    return [Fraction(c, 2 ** t_max) for c in counts]


def exact_first_passage(t, m1):
    """Exact probability (a Fraction) that a fair unit-step walk from 0 first
    reaches m1 at step t, by the reflection principle: the walk must stand
    at |m1| − 1 after t − 1 steps without having touched |m1|, which is
    P(S_{t−1} = |m1| − 1) − P(S_{t−1} = |m1| + 1), and then step outward.
    """
    m, n = abs(int(m1)), t - 1
    if t < m or (t - m) % 2:
        return Fraction(0)

    def at(k):  # P(S_n = k)
        return Fraction(math.comb(n, (n + k) // 2), 2 ** n) if k <= n else Fraction(0)

    return (at(m - 1) - at(m + 1)) / 2


def binomial_half_coeffs(n_terms):
    """Exact generalized binomial coefficients C(1/2, k) for k = 0..n_terms-1.

    These are the Taylor coefficients of sqrt(1 + x).
    """
    coeffs = [Fraction(1)]
    for k in range(n_terms - 1):
        coeffs.append(coeffs[-1] * (Fraction(1, 2) - k) / (k + 1))
    return coeffs


def _poly_mul(p, q, order):
    out = [Fraction(0)] * (order + 1)
    for i, pi in enumerate(p):
        if pi == 0 or i > order:
            continue
        for j, qj in enumerate(q):
            if i + j > order:
                break
            if qj:
                out[i + j] += pi * qj
    return out


def _rational_half_series(order):
    """The rational series e, h with f = e/sqrt(2) and g = h/sqrt(2).

    e = (1 + z^2 - sqrt(1 + z^4)) / z and h = (1 - z^2 - sqrt(1 + z^4)) / z,
    both with exactly rational coefficients (the sqrt contributes
    -C(1/2, k) at degree 4k - 1 after the division by z).
    """
    sqrt_c = binomial_half_coeffs(order // 4 + 2)
    e = [Fraction(0)] * (order + 1)
    h = [Fraction(0)] * (order + 1)
    if order >= 1:
        e[1] = Fraction(1)
        h[1] = Fraction(-1)
    for k in range(1, len(sqrt_c)):
        deg = 4 * k - 1
        if deg > order:
            break
        e[deg] -= sqrt_c[k]
        h[deg] -= sqrt_c[k]
    return e, h


def exact_absorption_probabilities(m1, initial, order):
    """p_t (t = 1..order) for an absorber at m1 >= 1, each exact rational
    rounded once to a float."""
    return [float(p) for p in exact_absorption_fractions(m1, initial, order)]


def exact_absorption_fractions(m1, initial, order):
    """Exact rational p_t (t = 1..order) for an absorber at m1 >= 1.

    The absorbed-amplitude series is h^m1 / 2^(m1/2) for initial coin R and
    e·h^(m1-1) / 2^(m1/2) for initial L, so p_t = coeff^2 / 2^m1 is rational.
    """
    m1 = int(m1)
    if m1 < 1:
        raise ValueError("use the mirror mapping for negative positions")
    e, h = _rational_half_series(order)
    acc = [Fraction(0)] * (order + 1)
    acc[0] = Fraction(1)
    for _ in range(m1 - 1 if initial == "L" else m1):
        acc = _poly_mul(acc, h, order)
    if initial == "L":
        acc = _poly_mul(acc, e, order)
    scale = Fraction(1, 2 ** m1)
    return [c * c * scale for c in acc[1:]]


def negative_binomial_product_pmf(r, k, l):
    """P(step length = l) of the negative binomial as the product
    (1 − k)^r · Π_{j<l} (r + j)k/(j + 1): the product in exact rationals of
    the float parameters, (1 − k)^r as exp(r·log1p(−k)), rounded once each."""
    r_exact, k_exact = Fraction(r), Fraction(k)
    product = Fraction(1)
    for j in range(l):
        product *= (r_exact + j) * k_exact / (j + 1)
    return float(product) * math.exp(r * math.log1p(-k))


def pmf_oracle(family, params, l):
    """P(step length = l) from each family's closed form, one length at a
    time: exact rationals (`math.comb`, `Fraction`) for the binomial and
    hypergeometric, `math.lgamma` for the Poisson and negative binomial."""
    if family == "binomial":
        n, p = params["n"], Fraction(params["p"])
        return float(math.comb(n, l) * p ** l * (1 - p) ** (n - l)) if l <= n else 0.0
    if family == "hypergeometric":
        big_n, k, n = params["N"], params["K"], params["n"]
        if l > n:
            return 0.0
        return float(Fraction(math.comb(k, l) * math.comb(big_n - k, n - l),
                              math.comb(big_n, n)))
    if family == "poisson":
        lam = params["lambda"]
        return math.exp(l * math.log(lam) - lam - math.lgamma(l + 1))
    if family == "negative_binomial":
        r, k = params["r"], params["k"]
        return math.exp(math.lgamma(l + r) - math.lgamma(r) - math.lgamma(l + 1)
                        + r * math.log(1 - k) + l * math.log(k))
    if family == "geometric":
        k = params["k"]
        return k * (1 - k) ** (l - 1) if l >= 1 else 0.0
    if family == "geometric_shifted":
        k = params["k"]
        return k * (1 - k) ** l
    if family == "point_mass":
        return 1.0 if l == params["length"] else 0.0
    raise ValueError(f"no oracle for {family!r}")
