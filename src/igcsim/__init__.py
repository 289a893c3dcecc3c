"""3D pursuit-evasion engagement simulator.

An integrated guidance and control law maps relative engagement geometry
and pursuer attitude directly to fin deflections through three cascaded
ISS stages; small-gain certificates and trajectory bound audits check the
stability claims numerically along simulated trajectories.
"""

from .airframe import AeroConfig, AttitudeState
from .analysis import (
    BoundTrace,
    GainCertificate,
    LinearGain,
    bound_audit,
    build_certificate,
    linear_gains,
    theorem2_bound,
    x0_bound,
)
from .engagement import (
    AxisSignal,
    DisturbanceModel,
    EngagementState,
    EvaderModel,
    VectorSignal,
)
from .errors import GuardError, ScenarioError, SingularityError
from .frames import LosAngles, VelocityAngles
from .igc import Gains, LawConstants, iss_control, law
from .sim import Scenario, SimLog, SimSummary, rk4_step, run, sweep

__all__ = [
    "AeroConfig", "AttitudeState",
    "BoundTrace", "GainCertificate", "LinearGain",
    "bound_audit", "build_certificate", "linear_gains",
    "theorem2_bound", "x0_bound",
    "AxisSignal", "DisturbanceModel", "EngagementState", "EvaderModel",
    "VectorSignal",
    "GuardError", "ScenarioError", "SingularityError",
    "LosAngles", "VelocityAngles",
    "Gains", "LawConstants", "iss_control", "law",
    "Scenario", "SimLog", "SimSummary", "rk4_step", "run", "sweep",
]
