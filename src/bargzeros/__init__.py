"""Zero sets of noisy Bargmann transforms on finite grids.

Simulates the weighted transform of "deterministic signal + complex white
noise", detects its zeros with the AMN / MGN / ST grid algorithms, and
validates the resulting point processes against closed-form benchmarks
(Kac-Rice intensity, expected counts) and against high-resolution
reference runs (consistency certificates, failure-probability tables).
"""

from .errors import ConfigError, DataError
from .grid import GridSpec, Method, PointSet, make_grid, subsample
from .signal import (
    SignalKind,
    SignalModel,
    bargmann_closed_form,
    bargmann_derivative,
    model_for,
    parse_signal,
)
from .simulate import (
    FieldSource,
    WeightedField,
    draw_noise,
    evaluate_continuous,
    read_field,
    refine_zero,
    synthesize_field,
    write_field,
    zero_noise,
)
from .detect import (
    amn,
    amn_select,
    detect_ladder,
    mgn,
    read_pointset_csv,
    sieve,
    st,
    write_pointset_csv,
)
from .stats import (
    count_in_box,
    expected_count,
    rho1,
    summary_rows,
    variance_benchmark,
    write_stats_csv,
)
from .consistency import (
    aggregate_failure_table,
    greedy_match,
    ladder_rows,
    write_consistency_csv,
)

__all__ = [
    "ConfigError",
    "DataError",
    "GridSpec",
    "Method",
    "PointSet",
    "make_grid",
    "subsample",
    "SignalKind",
    "SignalModel",
    "bargmann_closed_form",
    "bargmann_derivative",
    "model_for",
    "parse_signal",
    "FieldSource",
    "WeightedField",
    "draw_noise",
    "evaluate_continuous",
    "read_field",
    "refine_zero",
    "synthesize_field",
    "write_field",
    "zero_noise",
    "amn",
    "amn_select",
    "detect_ladder",
    "mgn",
    "read_pointset_csv",
    "sieve",
    "st",
    "write_pointset_csv",
    "count_in_box",
    "expected_count",
    "rho1",
    "summary_rows",
    "variance_benchmark",
    "write_stats_csv",
    "aggregate_failure_table",
    "greedy_match",
    "ladder_rows",
    "write_consistency_csv",
]

__version__ = "0.1.0"
