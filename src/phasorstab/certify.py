"""Distributed stability certificates evaluated along trajectories.

Two per-component lenses plus one system-wide one:

* integral criterion -- the running deviation integral of
  dP d(theta) + dQ d(ln V) must stay non-positive at every sample;
* storage criterion  -- the analytic storage rate must not exceed the
  supply rate pointwise, evaluated under both sign conventions;
* convexity          -- the divergence Hessian at the equilibrium must be
  positive semidefinite with its only zero mode the uniform angle shift.

Every verdict is accompanied by the numeric margin that produced it, and
the system conclusion combines convexity membership with the storage
verdicts. The hypothesis that the zero-dissipation invariant set contains
only equilibria is not checkable numerically and is stated as assumed.
"""

from __future__ import annotations

import json

import numpy as np

from .components import (
    CertificateUnavailable,
    Component,
    LocalCertificate,
    SupplyConvention,
    local_certificate,
)
from .equilibrium import EquilibriumSolution
from .potential import POS_TOL, ZERO_TOL, ConvexityReport, convexity_check, hessian_vp
from .network import NetworkModel
from .records import asdict, recordclass
from .simulator import Trajectory

__all__ = [
    "IntegralVerdict",
    "StorageVerdict",
    "CertificateReport",
    "check_integral_criterion",
    "check_storage_criterion",
    "check_w_consistency",
    "certify",
    "render_report",
]

DEFAULT_CRITERION_TOL = 1e-6


@recordclass(frozen=True)
class IntegralVerdict:
    component_id: str
    satisfied: bool
    max_value: float
    time_of_max: float
    tol: float


@recordclass(frozen=True)
class StorageVerdict:
    component_id: str
    convention: SupplyConvention
    satisfied: bool | None          # None when the certificate is unavailable
    worst_margin: float | None      # min over t of (supply - storage_rate)
    time_of_worst: float | None
    tol: float
    unavailable_reason: str | None = None


@recordclass
class CertificateReport:
    integral: dict[str, IntegralVerdict]
    storage: dict[SupplyConvention, dict[str, StorageVerdict]]
    local_forms: dict[str, LocalCertificate]
    convexity: ConvexityReport
    identity_residual_potential: float | None
    identity_residual_divergence: float | None
    w_consistency: str
    conclusion: str
    tolerances: dict[str, float]
    trajectory_evaluated: bool
    invariant_set_note: str = (
        "assumed hypothesis: the largest invariant set with zero deviation "
        "supply contains only equilibria (not checkable numerically)"
    )

    def to_dict(self) -> dict:
        def block(verdicts: dict) -> dict:
            """Each verdict's fields in order, without those the keys hold."""
            return {
                cid: {
                    k: value
                    for k, value in asdict(v).items()
                    if k not in ("component_id", "convention")
                }
                for cid, v in verdicts.items()
            }

        return {
            "integral_criterion": block(self.integral),
            "storage_criterion": {
                conv.value: block(verdicts) for conv, verdicts in self.storage.items()
            },
            "local_quadratic_forms": {
                cid: {
                    conv.value: {
                        "verdict": rep.verdict,
                        "eigenvalues": [float(x) for x in rep.eigenvalues],
                        "variables": list(rep.variables),
                    }
                    for conv, rep in cert.reports.items()
                }
                for cid, cert in self.local_forms.items()
            },
            "convexity": {
                "member": self.convexity.member,
                "degenerate": self.convexity.degenerate,
                "eigenvalues": [float(x) for x in self.convexity.eigenvalues],
                "zero_eigenvalue": self.convexity.zero_eigenvalue,
                "zero_mode_cosine": self.convexity.zero_mode_cosine,
                "detail": self.convexity.detail,
            },
            "identity_residuals": {
                "trajectory_vs_potential": self.identity_residual_potential,
                "deviation_vs_divergence": self.identity_residual_divergence,
            },
            "w_consistency": self.w_consistency,
            "conclusion": self.conclusion,
            "tolerances": self.tolerances,
            "trajectory_evaluated": self.trajectory_evaluated,
            "invariant_set_note": self.invariant_set_note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def check_integral_criterion(
    traj: Trajectory, tol: float = DEFAULT_CRITERION_TOL
) -> dict[str, IntegralVerdict]:
    """Per-component verdict on the running deviation integral."""
    verdicts: dict[str, IntegralVerdict] = {}
    for cid in traj.component_ids():
        series = traj.integral[cid]
        idx = int(np.argmax(series))
        max_value = float(series[idx])
        verdicts[cid] = IntegralVerdict(
            component_id=cid,
            satisfied=bool(max_value <= tol),
            max_value=max_value,
            time_of_max=float(traj.times[idx]),
            tol=tol,
        )
    return verdicts


def check_storage_criterion(
    traj: Trajectory,
    components: dict[str, Component] | None = None,
    convention: SupplyConvention = SupplyConvention.NEGATED,
    tol: float = DEFAULT_CRITERION_TOL,
) -> dict[str, StorageVerdict]:
    """Pointwise storage-rate vs supply-rate verdict per component.

    The recorded supply series carries the trajectory's convention; the
    other convention is its negation. Storage rates are analytic (chain
    rule), so the pointwise margin carries no differencing noise.
    """
    components = components or traj.components
    verdicts: dict[str, StorageVerdict] = {}
    for cid in traj.component_ids():
        comp = components[cid]
        anchor = traj.anchors[cid]
        try:
            comp.require_stiffness(anchor)
        except CertificateUnavailable as exc:
            verdicts[cid] = StorageVerdict(
                component_id=cid,
                convention=convention,
                satisfied=None,
                worst_margin=None,
                time_of_worst=None,
                tol=tol,
                unavailable_reason=str(exc),
            )
            continue
        supply = traj.supply[cid]
        if convention is not traj.convention:
            supply = -supply
        margin = supply - traj.storage_rate[cid]  # satisfied when >= 0
        idx = int(np.argmin(margin))
        worst = float(margin[idx])
        verdicts[cid] = StorageVerdict(
            component_id=cid,
            convention=convention,
            satisfied=bool(worst >= -tol),
            worst_margin=worst,
            time_of_worst=float(traj.times[idx]),
            tol=tol,
        )
    return verdicts


def identity_residuals(traj: Trajectory) -> tuple[float, float]:
    """Max-over-samples residuals of the two trajectory identities.

    The unshifted integral must track the potential change and the
    deviation integral must track the divergence change; both residuals
    shrink as O(h^2). Only meaningful when the network was not modified
    mid-run.
    """
    d_vp = traj.vp - traj.vp[0]
    potential_gap = float(np.max(np.abs(traj.unshifted_integral - d_vp)))
    total_shifted = np.zeros(traj.n_samples)
    for cid in traj.component_ids():
        total_shifted += traj.integral[cid]
    d_w = traj.w - traj.w[0]
    divergence_gap = float(np.max(np.abs(total_shifted - d_w)))
    return potential_gap, divergence_gap


def check_w_consistency(
    traj: Trajectory,
    integral_verdicts: dict[str, IntegralVerdict],
    divergence_residual: float | None,
) -> str:
    """Cross-check of the two lenses on a fixed-network run.

    When every component's integral criterion holds, the divergence series
    cannot rise above its start by more than the quadrature error; checked
    with headroom 10x the measured identity residual.
    """
    if traj.network_changed:
        return "not applicable (network modified during the run)"
    if not integral_verdicts:
        return "not applicable (no dynamic components)"
    if not all(v.satisfied for v in integral_verdicts.values()):
        return "not evaluated (some integral criterion violated)"
    assert divergence_residual is not None
    headroom = 10.0 * max(divergence_residual, 1e-15)
    excess = float(np.max(traj.w - traj.w[0]))
    if excess <= headroom:
        return f"consistent: max W rise {excess:.3e} within headroom {headroom:.3e}"
    return f"VIOLATED: W rises {excess:.3e} above start (headroom {headroom:.3e})"


def certify(
    net: NetworkModel,
    components: dict[str, Component],
    equilibrium: EquilibriumSolution,
    traj: Trajectory | None = None,
    tol: float = DEFAULT_CRITERION_TOL,
) -> CertificateReport:
    """Assemble the full certificate report for one equilibrium.

    Trajectory-dependent criteria are marked not-evaluated when no
    trajectory is supplied. Storage anchors are the solved equilibrium
    (identical to the setpoints whenever those are consistent).
    """
    hess = hessian_vp(net, equilibrium.state.V, equilibrium.state.theta)
    convexity = convexity_check(hess)

    local_forms: dict[str, LocalCertificate] = {}
    for cid, anchor in equilibrium.anchors.items():
        try:
            local_forms[cid] = local_certificate(components[cid], anchor)
        except CertificateUnavailable:
            pass  # surfaced through the storage verdicts below

    if traj is not None:
        integral = check_integral_criterion(traj, tol)
        storage = {
            conv: check_storage_criterion(traj, components, conv, tol)
            for conv in SupplyConvention
        }
        if traj.network_changed:
            potential_res = divergence_res = None
        else:
            potential_res, divergence_res = identity_residuals(traj)
        w_note = check_w_consistency(traj, integral, divergence_res)
    else:
        integral = {}
        storage = {conv: {} for conv in SupplyConvention}
        potential_res = divergence_res = None
        w_note = "not evaluated (no trajectory supplied)"

    default_storage = storage[SupplyConvention.NEGATED]
    if traj is None:
        conclusion = "not certified: trajectory criteria not evaluated"
        if convexity.member:
            conclusion += "; equilibrium is in the convexity set"
    elif convexity.member and default_storage and all(
        v.satisfied for v in default_storage.values()
    ):
        conclusion = (
            "stable by the storage criterion: convexity member and every "
            "component satisfies the negated-convention storage inequality"
        )
    elif convexity.member and integral and all(
        v.satisfied for v in integral.values()
    ):
        conclusion = (
            "convergent by the integral criterion (under the assumed "
            "invariant-set hypothesis): convexity member and every running "
            "deviation integral stays non-positive"
        )
    else:
        reasons = []
        if not convexity.member:
            reasons.append("equilibrium not certified convex")
        if integral and not all(v.satisfied for v in integral.values()):
            bad = [cid for cid, v in integral.items() if not v.satisfied]
            reasons.append(f"integral criterion violated for {bad}")
        if default_storage and not all(
            v.satisfied for v in default_storage.values()
        ):
            bad = [
                cid
                for cid, v in default_storage.items()
                if v.satisfied is not True
            ]
            reasons.append(f"storage criterion not satisfied for {bad}")
        conclusion = "not certified: " + "; ".join(reasons)

    return CertificateReport(
        integral=integral,
        storage=storage,
        local_forms=local_forms,
        convexity=convexity,
        identity_residual_potential=potential_res,
        identity_residual_divergence=divergence_res,
        w_consistency=w_note,
        conclusion=conclusion,
        tolerances={"criterion_tol": tol, "zero_tol": ZERO_TOL, "pos_tol": POS_TOL},
        trajectory_evaluated=traj is not None,
    )


def render_report(report: CertificateReport) -> str:
    """Human-readable summary, one line per verdict."""
    lines = []
    lines.append(f"convexity: {report.convexity.detail}")
    if report.integral:
        for cid, v in report.integral.items():
            status = "satisfied" if v.satisfied else "VIOLATED"
            lines.append(
                f"integral criterion [{cid}]: {status} "
                f"(max {v.max_value:.3e} at t = {v.time_of_max:.3g}, tol {v.tol:.1e})"
            )
    else:
        lines.append("integral criterion: not evaluated (no trajectory)")
    for conv in SupplyConvention:
        block = report.storage.get(conv, {})
        if not block:
            lines.append(f"storage criterion ({conv.value}): not evaluated")
            continue
        for cid, v in block.items():
            if v.satisfied is None:
                lines.append(
                    f"storage criterion ({conv.value}) [{cid}]: unavailable "
                    f"({v.unavailable_reason})"
                )
            else:
                status = "satisfied" if v.satisfied else "VIOLATED"
                lines.append(
                    f"storage criterion ({conv.value}) [{cid}]: {status} "
                    f"(worst margin {v.worst_margin:.3e} at t = {v.time_of_worst:.3g})"
                )
    for cid, cert in report.local_forms.items():
        for conv, rep in cert.reports.items():
            lines.append(
                f"local quadratic form ({conv.value}) [{cid}]: {rep.verdict}"
            )
    if report.identity_residual_potential is not None:
        lines.append(
            f"identity residual (potential): {report.identity_residual_potential:.3e}"
        )
        lines.append(
            f"identity residual (divergence): {report.identity_residual_divergence:.3e}"
        )
    lines.append(f"w-consistency: {report.w_consistency}")
    lines.append(f"note: {report.invariant_set_note}")
    lines.append(f"conclusion: {report.conclusion}")
    return "\n".join(lines) + "\n"
