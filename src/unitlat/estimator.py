"""Qubit resource estimates for unit-group computation, generic vs structured.

Everything here is structural: each asymptotic bound is instantiated with
constant 1 (flagged in the output), exponentially large oracle quantities
(s, nu, Lip) are held in log2 space as exact rationals, and the interesting
outputs are comparisons — per-term breakdowns, ratios, slopes — rather than
absolute hardware claims.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import euler_phi

EPSILON = Fraction(243, 1024)  # failure bound of the five-fold oracle tensor
CONSTANT_CONVENTION = "all asymptotic constants set to 1"


def _log2f(x) -> Fraction:
    return Fraction(math.log2(float(x)))


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class FieldProfile:
    """Shape parameters of a number field as the estimator sees it.

    n: degree; (n1, n2): signature; m: unit rank; d_log2: log2 |discriminant|.
    """

    n: int
    n1: int
    n2: int
    m: int
    d_log2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "d_log2", Fraction(self.d_log2))
        if self.n1 + 2 * self.n2 != self.n:
            raise ProfileError("signature does not match the degree")
        if self.n1 + self.n2 - 1 != self.m:
            raise ProfileError("unit rank must be n1 + n2 - 1")
        if not (self.n / 2 - 1 <= self.m <= self.n - 1):
            raise ProfileError("unit rank outside [n/2 - 1, n - 1]")


def totally_real_profile(n: int, d_log2) -> FieldProfile:
    return FieldProfile(n=n, n1=n, n2=0, m=n - 1, d_log2=Fraction(d_log2))


def cyclotomic_generic_profile(conductor: int) -> FieldProfile:
    """Cyclotomic-shaped profile fed to the *generic* estimate.

    Uses the conductor itself as the rank variable (with log2 D =
    (m - 2) log2 m), matching the convention under which the conductor-10^4
    headline is the m^5 term.
    """
    m = conductor
    d_log2 = Fraction(m - 2) * _log2f(m)
    return FieldProfile(n=m + 1, n1=m + 1, n2=0, m=m, d_log2=d_log2)


def oracle_params(profile: FieldProfile) -> dict:
    """Log2-scale oracle constants: Gaussian width s, resolution nu,
    Lipschitz bound, concentration radius r, failure bound epsilon."""
    n, m = profile.n, profile.m
    if n < 2:
        raise ProfileError("degree must be at least 2")
    d_log2 = profile.d_log2
    # s = 3 * 2^(2n) * sqrt(n D)
    s_log2 = _log2f(3) + 2 * n + Fraction(1, 2) * (_log2f(n) + d_log2)
    # nu = 1 / (4 n (s sqrt(n))^(2n))
    nu_log2 = -(2 + _log2f(n) + 2 * n * (s_log2 + Fraction(1, 2) * _log2f(n)))
    # Lip(f) = sqrt(pi n) s / (4 nu) + 1; the +1 is absorbed (s/nu is huge)
    lip_log2 = Fraction(1, 2) * _log2f(math.pi * n) + s_log2 - 2 - nu_log2
    # r = s (sqrt n)^(n-1) * 2 nu * sqrt(m)
    r_log2 = (
        s_log2
        + Fraction(n - 1, 2) * _log2f(n)
        + 1
        + nu_log2
        + Fraction(1, 2) * _log2f(max(m, 1))
    )
    return {
        "s_log2": s_log2,
        "nu_log2": nu_log2,
        "lip_log2": lip_log2,
        "r_log2": r_log2,
        "epsilon": EPSILON,
    }


def sampler_qubits(
    profile: FieldProfile,
    delta_lambda_log2: Fraction,
    eta: Fraction,
    lip_log2: Fraction = None,
) -> Fraction:
    """Per-sample register width Q = m log(m log 1/eta) + log(Lip/(eta delta lambda_1*))."""
    eta = Fraction(eta)
    if not 0 < eta < Fraction(1, 2):
        raise ProfileError("eta must lie in (0, 1/2)")
    m = profile.m
    if lip_log2 is None:
        lip_log2 = oracle_params(profile)["lip_log2"]
    log_inv_eta = _log2f(Fraction(1, 1) / eta)
    return (
        m * _log2f(m * max(log_inv_eta, Fraction(1)))
        + lip_log2
        - _log2f(eta)
        - Fraction(delta_lambda_log2)
    )


@dataclass(frozen=True)
class ResourceEstimate:
    model: str  # "generic" | "cyclotomic" | "hsp-conjectural"
    m: int
    n: int
    d_log2: Fraction
    q: Fraction
    k: int
    terms: tuple  # six summands of the total qubit count
    lip_log2: Fraction
    leading_term: Fraction

    @property
    def total(self) -> Fraction:
        return sum(self.terms, Fraction(0))

    @property
    def total_log10(self) -> float:
        t = self.total
        return float("-inf") if t <= 0 else math.log10(float(t))

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "m": self.m,
            "n": self.n,
            "logD": float(self.d_log2),
            "Q": float(self.q),
            "k": self.k,
            "terms": [float(t) for t in self.terms],
            "total": float(self.total),
            "total_log10": self.total_log10,
            "lip_log2": float(self.lip_log2),
            "epsilon": str(EPSILON),
            "note": CONSTANT_CONVENTION,
        }


CSV_COLUMNS = [
    "model", "m", "n", "logD", "Q",
    "term1", "term2", "term3", "term4", "term5", "term6",
    "total_log10",
]


def estimate_row(est: ResourceEstimate) -> dict:
    row = {
        "model": est.model,
        "m": est.m,
        "n": est.n,
        "logD": float(est.d_log2),
        "Q": float(est.q),
        "total_log10": est.total_log10,
    }
    for i, t in enumerate(est.terms, 1):
        row[f"term{i}"] = float(t)
    return row


def render_csv(estimates) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    for e in estimates:
        w.writerow(estimate_row(e))
    return buf.getvalue()


def render_table(estimates) -> str:
    rows = [estimate_row(e) for e in estimates]
    widths = {c: len(c) for c in CSV_COLUMNS}
    rendered = []
    for r in rows:
        out = {}
        for c in CSV_COLUMNS:
            v = r[c]
            out[c] = f"{v:.4g}" if isinstance(v, float) else str(v)
            widths[c] = max(widths[c], len(out[c]))
        rendered.append(out)
    header = "  ".join(c.ljust(widths[c]) for c in CSV_COLUMNS)
    lines = [header, "-" * len(header)]
    for r in rendered:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in CSV_COLUMNS))
    return "\n".join(lines)


def render_json(estimates) -> str:
    return json.dumps([e.to_json() for e in estimates], indent=2, sort_keys=True)


def lambda1_dual_inv_log2(profile: FieldProfile) -> Fraction:
    """log2 of 1/lambda_1(L*) via the reduced-basis shape m + (1/m) log2 D."""
    m = max(profile.m, 1)
    return Fraction(m) + profile.d_log2 / m


def qubit_count_generic(profile: FieldProfile, tau_log2: Fraction) -> ResourceEstimate:
    """Six-term total qubit count for the generic unit-group pipeline.

    Terms (constants 1): m^3 log m, m^3 log2 Lip, m^2 log2 D,
    m (log2 Lip + log2 1/lambda_1*), m (log2 1/lambda_1* + tau),
    and the sampler registers Q*m.
    """
    tau_log2 = Fraction(tau_log2)
    m = profile.m
    lip = oracle_params(profile)["lip_log2"]
    inv_lam = lambda1_dual_inv_log2(profile)

    from .recovery import compute_k

    k = compute_k(m, lip, profile.d_log2)
    eta = Fraction(1, k * k)
    delta_lambda_log2 = -(inv_lam + 1)  # delta lambda_1* = lambda_1*/2
    q = sampler_qubits(profile, delta_lambda_log2, eta)

    mf = Fraction(m)
    terms = (
        mf**3 * _log2f(max(m, 2)),
        mf**3 * lip,
        mf**2 * profile.d_log2,
        mf * (lip + inv_lam),
        mf * (inv_lam + tau_log2),
        q * mf,
    )
    return ResourceEstimate(
        model="generic",
        m=m,
        n=profile.n,
        d_log2=profile.d_log2,
        q=q,
        k=k,
        terms=terms,
        lip_log2=lip,
        leading_term=mf**5,
    )


def qubit_count_cyclotomic(conductor: int) -> ResourceEstimate:
    """Structured count for conductor-m cyclotomic fields: Q ~ m log m per
    register (the known unit sublattice caps the precision at ~log m bits per
    dimension), total Q * m ~ m^2 log m."""
    m = conductor
    if m < 3:
        raise ProfileError("conductor must be at least 3")
    d_log2 = Fraction(m - 2) * _log2f(m)
    log_m = _log2f(m)
    q = Fraction(m) * log_m
    terms = (Fraction(0),) * 5 + (q * m,)
    return ResourceEstimate(
        model="cyclotomic",
        m=m,
        n=euler_phi(m),
        d_log2=d_log2,
        q=q,
        k=0,
        terms=terms,
        lip_log2=oracle_params(cyclotomic_generic_profile(m))["lip_log2"],
        leading_term=q * m,
    )


def slope_fit(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den
