"""Three-phase radial feeder state estimation toolkit.

Estimates bus voltages two ways -- classic weighted-least-squares
(Gauss-Newton) and topology-pruned neural networks -- and benchmarks
them across observability scenarios on synthetic measurement data.
"""

from dsse.grid_model import (
    Branch,
    Bus,
    FeederModel,
    FeederValidationError,
    Load,
    dump_feeder,
    load_feeder,
)
from dsse.powerflow import PowerFlowResult, StateVector, solve_power_flow
from dsse.measurements import (
    MeasurementSet,
    jacobian_rows,
    measurement_function,
    plan_measurements,
    synthesize,
)
from dsse.wls import NonConvergedError, UnobservableError, WlsReport, estimate, objective
from dsse.partitioning import (
    MaskPlan,
    ParamCount,
    Partition,
    build_mask_plan,
    count_params,
    partition_at_pmus,
)
from dsse.network import EvalReport, MaskedNetwork, TrainConfig, evaluate, train

__version__ = "0.1.0"
