"""Phasor-circuit stability analytics for AC power systems."""

__version__ = "0.1.0"

from .components import (
    Anchor,
    CertificateUnavailable,
    DroopComponent,
    Setpoints,
    SupplyConvention,
    VsgComponent,
    local_certificate,
    supply_rate,
)
from .equilibrium import (
    EquilibriumError,
    InconsistentInput,
    solve_equilibrium,
    solve_setpoints,
)
from .netfile import CaseDefinition, NetworkFileError, load_case, parse_case
from .network import (
    Bus,
    BusKind,
    BusState,
    ConstantPowerBranch,
    DynamicShunt,
    LosslessLine,
    NetworkError,
    NetworkModel,
    branch_currents_oracle,
    power_injection,
    tellegen_sum,
)
from .potential import (
    BregmanDivergence,
    convexity_check,
    eval_vp,
    grad_vp,
    hessian_vp,
    path_dependence_experiment,
)
from .signals import (
    ComplexPower,
    Phasor,
    ThreePhaseSignal,
    complex_power,
    dq0_transform,
    phasor_from_dq,
)
from .simulator import (
    LineScale,
    LoadStep,
    Scenario,
    SimulationError,
    SolverConfig,
    StatePerturbation,
    Trajectory,
    simulate,
)
from .certify import (
    CertificateReport,
    certify,
    check_integral_criterion,
    check_storage_criterion,
)
