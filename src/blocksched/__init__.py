"""Trace-driven simulator for deadline- and priority-constrained block
transmission scheduling over bandwidth-limited links."""
from .errors import (
    ConfigurationError,
    DegenerateIntervalError,
    DegenerateLatencyError,
    DuplicateBlockError,
    IllegalStateError,
    SimulationInvariantError,
    TraceParseError,
)
from .linksim import EventKind, Simulation, SimulationResult
from .metrics import (
    DEFAULT_ALPHA,
    QoEReport,
    build_report,
    channel_utilization,
    delivery_indicator,
    session_qoe,
)
from .model import (
    Block,
    BlockAwaitingQueue,
    MediaElement,
    Packet,
    PacketState,
    ScenarioConfig,
    SimClock,
    generate_blocks,
    load_scenario,
    mark_block_complete,
    save_scenario,
)
from .predictor import (
    BandwidthPredictor,
    InflightLedger,
    Regime,
    Thresholds,
    classify_regime,
    instantaneous_throughput,
    smoothed_throughput,
)
from .runner import (
    ComparisonRow,
    ComparisonTable,
    RunParams,
    TuneResult,
    build_table,
    execute_run,
    run_sweep,
    tune_thresholds,
)
from .schedulers import (
    SCHEDULER_NAMES,
    BlockStats,
    DecisionReason,
    SchedulerDecision,
    SchedulingContext,
    compute_block_stats,
    filter_expired,
    make_scheduler,
    select_block_fifo,
    select_block_proposed,
    select_block_rswn,
    select_block_sfra,
)
from .traces import (
    LinkTrace,
    concat_traces,
    filter_corpus,
    load_trace,
    parse_csv_trace,
    parse_packet_opportunity_trace,
    split_corpus,
    synthesize_trace,
    trace_passes_filter,
)
from .units import PACKET_PAYLOAD_BYTES, bytes_per_s_to_mbps, mbps_to_bytes_per_s

__version__ = "0.1.0"
