"""Design and switched-circuit simulation of LLC resonant half-bridge
DC-DC converters.

The package splits into a sinusoidal-approximation design layer (gain
curves, tank synthesis, feasibility), a time-domain layer (event-driven
switched-circuit integration, periodic steady state, closed-loop control)
and a CLI that drives both from a JSON project configuration.
"""

from .tank import (
    TankParams,
    DesignRequirements,
    NormalizedPoint,
    LoadSpec,
    resonant_frequency,
    char_impedance,
    series_resonance,
    noload_resonance,
    effective_load,
    normalize,
)
from .gain import (
    GainError,
    GainPoleError,
    UnreachableGain,
    BelowAsymptote,
    Region,
    GainPoint,
    GainBand,
    gain,
    gain_magnitude,
    asymptotic_gain,
    peak_gain,
    solve_frequency,
    operating_point,
    gain_band,
    boundary_frequency,
    classify_region,
    tank_input_impedance,
    short_circuit_gain,
)
from .synthesis import (
    SERIES_NAMES,
    DesignReport,
    choose_turns_ratio,
    synthesize_tank,
    round_to_series,
    round_components,
    check_feasibility,
    search_design_point,
)
from .sim import (
    CHANNELS,
    SimError,
    ModeViolation,
    ModeChatter,
    EventLocalizationFailure,
    RecordOverflow,
    NotSettled,
    RectPhase,
    SimState,
    SimConfig,
    SimEvent,
    ZvsEdge,
    ZvsReport,
    Waveform,
    SimResult,
    stored_energy,
    warm_start_state,
    PeriodDriver,
    run_transient,
    fundamental_component,
)
from .steady_state import (
    METHODS,
    PopError,
    NoConvergence,
    Divergence,
    PopMetrics,
    PopResult,
    pop_metrics,
    find_pop,
)
from .control import (
    ControllerConfig,
    FrequencyController,
    ControlTrace,
    ClosedLoopResult,
    LoadStepReport,
    baseline_frequency,
    default_controller,
    run_closed_loop,
    run_load_step,
)
from .config import (
    SCHEMA_VERSION,
    ConfigError,
    TankOverrides,
    SimSettings,
    ControllerSettings,
    ProjectConfig,
    parse_config,
    load_config,
)

__version__ = "0.1.0"
