"""Admissibility checks for every parameter inequality the analysis
imposes, with per-condition margins.

Margins follow the convention: for a strict inequality the condition
holds iff margin > 0, for a non-strict one iff margin >= 0.  A bound
whose denominator is non-positive is reported as vacuous (no constraint)
with an explanatory tag instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class GateCondition:
    name: str
    formula: str
    satisfied: bool
    margin: float
    note: str = ""


@dataclass
class GateReport:
    conditions: list[GateCondition] = field(default_factory=list)
    special_case_d2q2: bool = False
    derived: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.satisfied for c in self.conditions) or self.special_case_d2q2

    def extend(self, other: "GateReport") -> "GateReport":
        self.conditions.extend(other.conditions)
        self.special_case_d2q2 = self.special_case_d2q2 or other.special_case_d2q2
        self.derived.update(other.derived)
        return self

    def lines(self) -> list[str]:
        width = max((len(c.name) for c in self.conditions), default=4)
        out = []
        for c in self.conditions:
            mark = "ok" if c.satisfied else "FAIL"
            margin = f"{c.margin:+.4g}" if math.isfinite(c.margin) else "inf"
            note = f"  [{c.note}]" if c.note else ""
            out.append(f"{mark:<4} {c.name:<{width}}  margin {margin:>9}  {c.formula}{note}")
        if self.special_case_d2q2:
            out.append("special case d=2, aleph=2, q=2 active: overall admissible")
        out.append(f"overall: {'admissible' if self.overall else 'not admissible'}")
        return out


def _strict(name, formula, value, bound, larger=True, note=""):
    """Condition value > bound (larger) or value < bound."""
    margin = (value - bound) if larger else (bound - value)
    return GateCondition(name, formula, margin > 0, margin, note=note)


def _vacuous(name, formula, note):
    return GateCondition(name, formula, True, math.inf, note=note)


def _pstar_floor(scale: float, denom: float) -> tuple[float, str]:
    """max(scale / denom, 4), with the first branch vacuous when denom <= 0."""
    if denom <= 0:
        return 4.0, "first branch vacuous: denominator <= 0"
    return max(scale / denom, 4.0), ""


def is_special_case(q: float, aleph: float, d: int) -> bool:
    return d == 2 and aleph == 2.0 and q == 2.0


def check_spaces(q: float, aleph: float, alpha: float, d: int,
                 p_star0: float) -> GateReport:
    """Exponent and moment-order constraints of the underlying spaces.

    Evaluates the q upper bound, the alpha window, the p*_0 bound, and
    derives p*_1 and the recommended p* = max(p*_0, 2 p*_1).
    """
    rep = GateReport(special_case_d2q2=is_special_case(q, aleph, d))
    denom_q = 2 * d - aleph
    if denom_q <= 0:
        rep.conditions.append(_vacuous(
            "q-upper-bound", "q < min(aleph+d, 2d)/(2d-aleph)",
            "no upper bound on q: 2d - aleph <= 0",
        ))
    else:
        bound = min(aleph + d, 2.0 * d) / denom_q
        rep.conditions.append(_strict(
            "q-upper-bound", f"q < min(aleph+d, 2d)/(2d-aleph) = {bound:.6g}",
            q, bound, larger=False,
        ))

    lower = d * (0.5 - 1.0 / q)
    upper = aleph / 2.0 - d / 2.0
    note = "alpha window empty" if lower >= upper else ""
    rep.conditions.append(_strict(
        "alpha-lower", f"alpha > d(1/2 - 1/q) = {lower:.6g}", alpha, lower,
        larger=True, note=note,
    ))
    rep.conditions.append(_strict(
        "alpha-upper", f"alpha < aleph/2 - d/2 = {upper:.6g}", alpha, upper,
        larger=False, note=note,
    ))

    bound0, note0 = _pstar_floor(2.0 * d, aleph + 2 * d - d * q + 2 * q * alpha)
    rep.conditions.append(_strict(
        "pstar0-lower", f"p*_0 > max(2d/(aleph+2d-dq+2q alpha), 4) = {bound0:.6g}",
        p_star0, bound0, larger=True, note=note0,
    ))

    p_star1 = None
    p1_note = "no p*_1 rule for this (d, q) range"
    if d == 1 and 2.0 <= q < aleph + 1.0:
        tau = 0.5 - 1.0 / q - alpha
        p_star1 = math.inf if tau == 0 else aleph / (q * tau)
        p1_note = f"tau = 1/2 - 1/q - alpha = {tau:.6g}"
    elif 1.0 <= q < 2.0:
        p_star1 = 1.0 / (2.0 - q)
        p1_note = "p*_1 = 1/(2-q)"
    rep.derived["p_star1"] = p_star1
    rep.derived["p_star1_note"] = p1_note
    if p_star1 is None:
        rep.derived["p_star"] = p_star0
    else:
        rep.derived["p_star"] = max(p_star0, 2.0 * p_star1)
    return rep


def check_noise(gamma1: float, gamma2: float, d: int, aleph: float,
                alpha: float, p_star: float) -> GateReport:
    """Lower bounds on the noise coloring exponents."""
    rep = GateReport()
    bound1 = d / 2.0 + d / p_star - min(2.0 / p_star, d / p_star)
    rep.conditions.append(_strict(
        "gamma1-lower",
        f"gamma1 > d/2 + d/p* - min(2/p*, d/p*) = {bound1:.6g}",
        gamma1, bound1, larger=True,
    ))
    if d == 2:
        bound2 = d - aleph / 2.0
        rep.conditions.append(_strict(
            "gamma2-lower", f"gamma2 > d - aleph/2 = {bound2:.6g}",
            gamma2, bound2, larger=True,
        ))
    elif alpha >= 0 or alpha + aleph / 2.0 <= 0.5:
        bound2 = 1.0 - aleph / 2.0
        case = "alpha >= 0" if alpha >= 0 else "alpha < 0, alpha + aleph/2 <= 1/2"
        rep.conditions.append(_strict(
            "gamma2-lower", f"gamma2 > 1 - aleph/2 = {bound2:.6g} (d=1, {case})",
            gamma2, bound2, larger=True,
        ))
    else:
        rep.conditions.append(_vacuous(
            "gamma2-lower", "gamma2 lower bound",
            "no stated bound for d=1, alpha < 0, alpha + aleph/2 > 1/2",
        ))
    return rep


def check_embedding(l1: float, l2: float, alpha: float, aleph: float,
                    d: int) -> tuple[bool, float]:
    """Mixed-norm embedding condition d/2 - alpha <= (aleph/2)(2/l1) + d/l2.

    Returns (satisfied, margin) with margin = rhs - lhs (non-strict).
    """
    if not (l1 > 2 and l2 > 2):
        raise ValueError("l1 and l2 must lie in (2, inf)")
    lhs = d / 2.0 - alpha
    rhs = (aleph / 2.0) * (2.0 / l1) + d / l2
    margin = rhs - lhs
    return margin >= 0, margin


def check_rho_window(rho: float, q: float, aleph: float, d: int,
                     p_star: float) -> GateReport:
    """Path-space smoothness window and the associated p* bound."""
    rep = GateReport()
    lower = d / 2.0 - aleph / (2.0 * q) - d / (2.0 * q)
    upper = aleph / 2.0 - d / 2.0
    note = "rho window empty" if lower >= upper else ""
    rep.conditions.append(_strict(
        "rho-lower", f"rho > d/2 - aleph/(2q) - d/(2q) = {lower:.6g}",
        rho, lower, larger=True, note=note,
    ))
    margin_up = upper - rho
    rep.conditions.append(GateCondition(
        "rho-upper", f"rho <= aleph/2 - d/2 = {upper:.6g}",
        margin_up >= 0, margin_up, note=note,
    ))
    bound, pnote = _pstar_floor(4.0 * d, aleph + d - d * q + 2 * q * rho)
    rep.conditions.append(_strict(
        "pstar-rho-lower", f"p* > max(4d/(aleph+d-dq+2q rho), 4) = {bound:.6g}",
        p_star, bound, larger=True, note=pnote,
    ))
    return rep


def evaluate_gate(q: float, aleph: float, alpha: float, d: int, p_star0: float,
                  gamma1: float, gamma2: float, rho: float) -> GateReport:
    """Full admissibility report.

    The configured moment order is checked both as p*_0 (its lower bound)
    and as the p* entering the noise and path-space bounds; the
    recommended p* derived from the formulas is reported alongside.
    """
    rep = check_spaces(q, aleph, alpha, d, p_star0)
    rep.extend(check_noise(gamma1, gamma2, d, aleph, alpha, p_star0))
    return rep.extend(check_rho_window(rho, q, aleph, d, p_star0))


def gate_args(params, noise, space) -> dict:
    """evaluate_gate arguments of a (ModelParams, NoiseConfig, SpaceConfig)."""
    return dict(q=params.q, aleph=params.aleph, alpha=params.alpha, d=space.d,
                p_star0=params.p_star, gamma1=noise.gamma1, gamma2=noise.gamma2,
                rho=params.rho)


def gate_sweep(base: dict, axis: tuple[str, list]):
    """Evaluate the gate along one argument, the others taken from base.

    Yields rows of (value, overall, n_failed, worst_margin).
    """
    name, values = axis
    for x in values:
        rep = evaluate_gate(**{**base, name: x})
        finite = [c.margin for c in rep.conditions if math.isfinite(c.margin)]
        worst = min(finite) if finite else math.inf
        failed = sum(1 for c in rep.conditions if not c.satisfied)
        yield [x, rep.overall, failed, worst]
