"""Independent reference implementations used to validate the package.

Everything here is deliberately written with different algorithms and data
structures than the library (dicts, exact rationals, brute-force path
enumeration instead of arrays and float recurrences), so agreement between
the two is meaningful evidence and not a shared bug.
"""
import itertools
import json
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


def exact_avg_times(m1, horizons):
    """The finite-horizon average absorbing time Σ t·p_t / Σ p_t over
    t ≤ n for each n in `horizons`, from `exact_first_passage`."""
    ps = [float(exact_first_passage(t, m1)) for t in range(1, max(horizons) + 1)]
    return [math.fsum(t * p for t, p in enumerate(ps[:n], 1)) / math.fsum(ps[:n])
            for n in horizons]


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


def binomial_by_prime_powers(n, i):
    """C(n, i) as the product of its prime powers, the exponent of p being
    Σ_q ⌊n/q⌋ − ⌊i/q⌋ − ⌊(n−i)/q⌋ over q = p, p², ... <= n (Legendre),
    multiplied as a balanced tree: at n = 2^19 it took 0.09 s, and
    math.comb 2.7 s (Python 3.11, one core of a 2-core x86-64 box)."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    powers = []
    for p in itertools.compress(range(n + 1), sieve):
        e, q = 0, p
        while q <= n:
            e += n // q - i // q - (n - i) // q
            q *= p
        powers.append(p ** e)
    while len(powers) > 1:
        powers = [math.prod(powers[k:k + 2]) for k in range(0, len(powers), 2)]
    return powers[0] if powers else 1


def exact_absorption_term(m1, initial, t):
    """Exact p_t of the absorber at m1 (either sign) as integers (num, den),
    num/den = p_t with no common factor taken out: at large t a gcd costs
    more than the terms, and num / den is the correctly rounded float.

    Lagrange inversion (Flajolet and Sedgewick, Analytic Combinatorics,
    Theorem A.2): c = (√(1 + w²) − 1)/w solves c = w(1 − c²)/2, so
    [w^n] c^j = (j/n)·2^(−n)·(−1)^((n−j)/2)·C(n, (n−j)/2) for 1 <= j <= n,
    n ≡ j (mod 2). With G = −(1 + c)/√2 and F = (1 − c)/√2, the row of
    k = |m1| is z^k·H(z²), H = F·G^(k−1) (initial L, m1 > 0) or G^k, so
    H = ±2^(−k/2)·Σ_j b_j·c^j for integers b_j, and at t = k + 2n >= k + 2,
    p_t = A² / (n²·4^n·2^k) with A = Σ_j b_j·j·(−1)^((n−j)/2)·C(n, (n−j)/2).
    """
    k = abs(int(m1))
    n, odd = divmod(t - k, 2)
    if n < 0 or odd:
        return 0, 1
    if n == 0:
        return 1, 2 ** k
    if (m1 > 0) == (initial == "L"):  # (1 − c)(1 + c)^(k−1); a negative m1 swaps the coins
        b = [math.comb(k - 1, j) - (math.comb(k - 1, j - 1) if j else 0) for j in range(k + 1)]
    else:  # (1 + c)^k
        b = [math.comb(k, j) for j in range(k + 1)]
    j = 2 - n % 2  # the smallest j >= 1 of n's parity
    i = (n - j) // 2
    binom, total = binomial_by_prime_powers(n, i), 0
    while j <= min(k, n):
        total += (-1) ** i * b[j] * j * binom
        binom = binom * i // (n - i + 1)  # C(n, i − 1): the next j is 2 larger
        j, i = j + 2, i - 1
    return total * total, n * n << (2 * n + k)


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
    time: 50-digit `mpmath` for the binomial, exact rationals (`math.comb`,
    `Fraction`) for the hypergeometric, `math.lgamma` for the Poisson and
    negative binomial."""
    if family == "binomial":
        import mpmath  # perfbench loads this module for its walks, not for this

        n = params["n"]
        if l > n:
            return 0.0
        with mpmath.workdps(50):
            p = mpmath.mpf(params["p"])
            return float(mpmath.binomial(n, l) * p ** l * (1 - p) ** (n - l))
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


def render_table(fmt, version, meta, columns, rows, json_key="rows"):
    """A whole CLI table rendered from a list of row tuples, one string built
    at once: the renderer the CLI had before it wrote tables in chunks.
    None and NaN cells are missing (empty in CSV, null in JSON)."""
    def cell(value):
        if isinstance(value, float):  # np.float64 included
            return None if math.isnan(value) else float(value)
        return value

    meta = {"tool": "walklab", "version": version, **meta}
    if fmt == "csv":
        lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join("" if cell(v) is None else str(v) for v in row))
        return "\n".join(lines) + "\n"
    payload = {
        "meta": {k: cell(v) for k, v in meta.items()},
        json_key: [dict(zip(columns, map(cell, row))) for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
