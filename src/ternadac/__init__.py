"""ternadac: simulation library for ternary resistor-ladder DACs.

Balanced-ternary encoding, resistive-network solving (modified nodal
analysis), converter topology builders with calibration, stimulus/simulation
pipeline and signal/noise/distortion analysis, plus a CSV-emitting CLI.
"""

__version__ = "0.1.0"

from .analysis import (
    MonteCarloResult,
    NoiseBudget,
    SweepResult,
    SweepRow,
    dynamic_range,
    efficiency,
    level_sweep,
    monte_carlo,
    quantization_dynamic_range,
    sfdr,
    snap_coherent,
    thermal_noise,
)
from .codec import DigitVector, ternary_full_scale
from .dac import (
    Dac,
    DacConfig,
    StageKind,
    StageSpec,
    TopologyKind,
    WeightTable,
    build_prototype,
    build_topology,
    calibrate,
    perturb,
    read_config,
    trial_weights,
    weights,
    write_config,
)
from .errors import (
    CalibrationError,
    ConfigError,
    FileFormatError,
    RangeError,
    SolverError,
    TernadacError,
)
from .network import (
    NetworkSolver,
    Resistor,
    ResistiveNetwork,
    Solution,
    VoltageSource,
    netlist_dump,
)
from .pipeline import (
    SimulationTrace,
    StimulusKind,
    StimulusSpec,
    generate,
    simulate,
    simulate_digits,
)

__all__ = [
    "__version__",
    # codec
    "DigitVector",
    "ternary_full_scale",
    # network
    "Resistor",
    "VoltageSource",
    "ResistiveNetwork",
    "Solution",
    "NetworkSolver",
    "netlist_dump",
    # dac
    "StageKind",
    "TopologyKind",
    "StageSpec",
    "DacConfig",
    "WeightTable",
    "Dac",
    "build_topology",
    "build_prototype",
    "calibrate",
    "weights",
    "perturb",
    "trial_weights",
    "read_config",
    "write_config",
    # pipeline
    "StimulusKind",
    "StimulusSpec",
    "SimulationTrace",
    "generate",
    "simulate",
    "simulate_digits",
    # analysis
    "NoiseBudget",
    "SweepRow",
    "SweepResult",
    "MonteCarloResult",
    "sfdr",
    "snap_coherent",
    "efficiency",
    "thermal_noise",
    "dynamic_range",
    "quantization_dynamic_range",
    "level_sweep",
    "monte_carlo",
    # errors
    "TernadacError",
    "ConfigError",
    "RangeError",
    "SolverError",
    "CalibrationError",
    "FileFormatError",
]
