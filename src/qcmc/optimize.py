"""Parity-check density optimization: pick (d_v, m, p, t) minimizing decryption cost.

Decryption costs C(m) = n * (d_v'/m) * I + n * m binary operations:
the first term is iterative decoding over a Tanner graph with n * d_v edges
(d_v = d_v'/m), the second is the sparse multiplication by Q with average
row weight m.  For fixed d_v' the unconstrained minimum sits at
m' = sqrt(d_v' * I); error correction and the enumeration bound push the
practical optimum into [1, m'].

The search procedure: fix the security level, derive the smallest public
column weight d_v' resisting dual-code attacks and the smallest t resisting
information-set decoding (both at the shortest length in the p grid, the
conservative reference); then, for every candidate private weight d_v, snap
m = d_v'/d_v to the grid realizable by integer circulant-block weights, find
the shortest p whose bit-flipping threshold covers t' = ceil(m t), and keep
the rows that re-verify every constraint at the achieved parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .attacks import dca_wf_at, h_enumeration_wf, isda_secure, isda_wf_at
from .design import N0_MAX, SystemParams, realizable_sigma, weight_matrix
from .errors import ParameterError
from .threshold import ThresholdQuery, bf_threshold

__all__ = ["OptimizerConfig", "DesignResult", "OptimizationReport",
           "complexity_c", "m_star", "security_targets", "optimize_design"]

DEFAULT_P_GRID = tuple(1024 * i for i in range(4, 33))  # 2^12 .. 2^15
DEFAULT_CANDIDATES = (15, 19, 25, 35, 45, 59, 77)
D_V_PRIME_MAX = 300
T_MAX = 600


def complexity_c(n: int, d_v_prime, m, I) -> float:
    """Decryption operation count C(m) = n*(d_v'/m)*I + n*m."""
    if m < 1:
        raise ParameterError("m below 1 cannot give a nonsingular Q")
    # float(n) first: n times a Fraction d_v'/m would multiply exactly and round differently
    return float(n) * (d_v_prime / m) * I + n * m


def m_star(d_v_prime, I) -> float:
    """Unconstrained minimizer of C(m): sqrt(d_v' * I)."""
    if d_v_prime <= 0 or I <= 0:
        raise ParameterError("d_v_prime and I must be positive")
    return math.sqrt(d_v_prime * I)


@dataclass(frozen=True)
class OptimizerConfig:
    """Design-search settings; I is the average decoder iteration count."""

    target_security_bits: float
    n0: int = 4
    I: float = 10.0
    d_v_candidates: tuple[int, ...] = DEFAULT_CANDIDATES
    p_grid: tuple[int, ...] = DEFAULT_P_GRID

    def __post_init__(self):
        if not 0 < self.target_security_bits < math.inf:
            raise ParameterError("security target must be positive and finite")
        if self.n0 < 2:
            raise ParameterError("need n0 >= 2 circulant blocks")
        if self.n0 > N0_MAX:
            raise ParameterError(f"n0 above N0_MAX = {N0_MAX}")
        if not 1 <= self.I < math.inf:
            raise ParameterError("I must be finite and at least 1")
        if not self.d_v_candidates:
            raise ParameterError("need at least one d_v candidate")
        if not self.p_grid or min(self.p_grid) < 1:
            raise ParameterError("the p grid must be nonempty, every entry at least 1")
        if any(d % 2 == 0 for d in self.d_v_candidates):
            raise ParameterError("d_v candidates must be odd: even-weight "
                                 "circulants are never invertible")


@dataclass(frozen=True)
class DesignResult:
    """One feasible design row; every constraint field is re-verified."""

    params: SystemParams
    d_v_prime: float
    t: int
    C_log2: float
    bf_margin: int
    dca_bits: float
    isda_bits: float
    h_enum_bits: float


@dataclass(frozen=True)
class OptimizationReport:
    """Feasible designs sorted by cost, plus why each rejected candidate failed."""

    designs: tuple[DesignResult, ...]
    rejections: tuple[tuple[int, str], ...] = field(default_factory=tuple)


def _smallest_over(lo: int, hi: int, predicate) -> int:
    """Smallest value in [lo, hi] satisfying a monotone predicate, or raise."""
    if not predicate(hi):
        raise ParameterError("security target unreachable within the searched range")
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def security_targets(target_bits: float, n0: int, p_ref: int) -> tuple[int, int]:
    """Smallest (d_v', t) meeting the security target at the reference length.

    d_v' is the smallest public column weight in [1, D_V_PRIME_MAX] with DCA
    work factor >= target; t the smallest intentional error count in
    [1, T_MAX] with ISDA work factor >= target.  Both are evaluated at
    n = n0 * p_ref, the conservative short length.  Each binary-search step
    decides whether the target is met rather than computing the minimum work
    factor: the ISDA search stops at the first shift count below the target.
    """
    if n0 < 2:
        raise ParameterError("need n0 >= 2 circulant blocks")

    def dca_ok(v: int) -> bool:
        try:
            return dca_wf_at(n0, p_ref, v).log2_wf >= target_bits
        except ParameterError:
            return False

    return (_smallest_over(1, D_V_PRIME_MAX, dca_ok),
            _smallest_over(1, T_MAX, lambda v: isda_secure(n0, p_ref, v, target_bits)))


def _snap_candidates(d_v_prime_target: int, d_v: int, n0: int, cap: float) -> list[Fraction]:
    """Grid values m = sigma/n0 near d_v'/d_v, nearest first, realizable patterns only.

    Integer even m admits no invertible Q (see design.pattern_det_gf2), so
    those grid points are skipped; the remaining neighbors are tried in order
    of distance from the exact ratio until one survives re-verification.
    """
    raw = Fraction(d_v_prime_target, d_v)
    grid_center = round(raw * n0)
    out: list[tuple[Fraction, Fraction]] = []
    for offset in range(2 * n0 + 3):
        for sigma in ((grid_center + offset, grid_center - offset) if offset
                      else (grid_center,)):
            m = Fraction(sigma, n0)
            if 1 <= m <= cap and realizable_sigma(n0, sigma):
                out.append((abs(m - raw), m))
    return [m for _, m in sorted(out)]


def optimize_design(cfg: OptimizerConfig) -> OptimizationReport:
    """Search candidate densities and return feasible designs sorted by C_log2."""
    lam = cfg.target_security_bits
    d_v_prime_target, t = security_targets(lam, cfg.n0, min(cfg.p_grid))
    cap = m_star(d_v_prime_target, cfg.I)

    designs: list[DesignResult] = []
    rejections: list[tuple[int, str]] = []
    for d_v in cfg.d_v_candidates:
        row, reason = _evaluate_candidate(cfg, lam, d_v, d_v_prime_target, t, cap)
        if row is not None:
            designs.append(row)
        else:
            rejections.append((d_v, reason))

    designs.sort(key=lambda d: d.C_log2)
    return OptimizationReport(tuple(designs), tuple(rejections))


def _evaluate_candidate(cfg: OptimizerConfig, lam: float, d_v: int,
                        d_v_prime_target: int, t: int, cap: float):
    reason = "no realizable m on the grid"
    for m in _snap_candidates(d_v_prime_target, d_v, cfg.n0, cap):
        achieved_dvp = m * d_v
        sigma_w = m * cfg.n0
        t_prime = math.ceil(m * t)

        chosen_p, thr = None, None
        for p in cfg.p_grid:
            if d_v > p:
                continue
            thr = bf_threshold(ThresholdQuery(cfg.n0 * p, cfg.n0, d_v))
            if thr >= t_prime:
                chosen_p = p
                break
        if chosen_p is None:
            reason = f"no p in grid reaches threshold {t_prime}"
            continue

        h_enum = h_enumeration_wf(chosen_p, d_v)
        if h_enum < lam:
            reason = f"enumeration bound {h_enum:.1f} below target"
            continue
        dca_bits = dca_wf_at(cfg.n0, chosen_p, achieved_dvp).log2_wf
        if dca_bits < lam:
            reason = f"DCA {dca_bits:.1f} below target at snapped m={float(m):g}"
            continue
        isda_bits = isda_wf_at(cfg.n0, chosen_p, t).log2_wf
        if isda_bits < lam:
            reason = f"ISDA {isda_bits:.1f} below target"
            continue

        params = SystemParams(cfg.n0, chosen_p, d_v,
                              weight_matrix(cfg.n0, int(sigma_w)), t)
        c_val = complexity_c(params.n, achieved_dvp, m, cfg.I)
        return DesignResult(
            params=params,
            d_v_prime=float(achieved_dvp),
            t=t,
            C_log2=math.log2(c_val),
            bf_margin=thr - t_prime,
            dca_bits=dca_bits,
            isda_bits=isda_bits,
            h_enum_bits=h_enum,
        ), None
    return None, reason


DESIGN_FIELDS = ["d_v", "m", "p", "n", "t", "t_prime", "threshold",
                 "C_log2", "dca_bits", "isda_bits", "h_enum_bits"]


def design_rows(report: OptimizationReport) -> list[dict]:
    """One dict per design, keyed by DESIGN_FIELDS in order."""
    rows = []
    for d in report.designs:
        pr = d.params
        bits = (round(x, 2) for x in (d.C_log2, d.dca_bits, d.isda_bits, d.h_enum_bits))
        rows.append(dict(zip(DESIGN_FIELDS, (pr.d_v, float(pr.m), pr.p, pr.n, d.t, pr.t_prime,
                                             pr.t_prime + d.bf_margin, *bits), strict=True)))
    return rows
