"""herdscan: herding detection in multi-asset intraday price panels.

The package combines the two standard dispersion regressions (overall and
up/down market regimes) with a correlation-graph pipeline (Pearson matrix,
metric distance transform, minimum spanning tree, Louvain communities) so
herding can be assessed for whole vehicle classes and for data-driven
asset communities over named sub-periods.
"""

from .community import (
    Partition,
    WeightedGraph,
    aggregate,
    graph_from_tree,
    local_move_phase,
    louvain,
    modularity,
)
from .econometrics import (
    BetaReport,
    HerdingVerdict,
    RegressionFit,
    Significance,
    beta_distance_stats,
    capm_beta,
    fit_csad_basic,
    fit_csad_updown,
    ols,
    verdict,
)
from .graph import (
    CorrelationMatrix,
    DistanceMatrix,
    SpanningTree,
    mst,
    pearson_matrix,
    to_distance,
)
from .ingest import (
    AlignedPanel,
    AssetMeta,
    RawSeries,
    Sector,
    SubPeriod,
    Vehicle,
    align,
    filter_by_missing,
    load_bars,
    read_sector_map,
    read_subperiods,
    slice_panel,
)
from .pipeline import (
    AnalysisRun,
    CommunityReport,
    VehicleCell,
    compute_beta_reports,
    emit_report,
    load_panel,
    run_analysis,
    run_per_vehicle,
    sector_distribution,
)
from .returns import CsadSeries, ReturnPanel, csad, log_returns, up_down_masks

__version__ = "0.1.0"

__all__ = [
    "AlignedPanel", "AnalysisRun", "AssetMeta", "BetaReport",
    "CommunityReport", "CorrelationMatrix", "CsadSeries", "DistanceMatrix",
    "HerdingVerdict", "Partition", "RawSeries", "RegressionFit",
    "ReturnPanel", "Sector", "Significance", "SpanningTree", "SubPeriod",
    "Vehicle", "VehicleCell", "WeightedGraph",
    "aggregate", "align", "beta_distance_stats", "capm_beta",
    "compute_beta_reports", "csad", "emit_report",
    "filter_by_missing", "fit_csad_basic", "fit_csad_updown",
    "graph_from_tree", "load_bars", "load_panel", "local_move_phase",
    "log_returns", "louvain", "modularity", "mst", "ols", "pearson_matrix",
    "read_sector_map", "read_subperiods", "run_analysis", "run_per_vehicle",
    "sector_distribution", "slice_panel", "to_distance", "up_down_masks",
    "verdict",
]
