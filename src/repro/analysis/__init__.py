"""Analysis and diagnostics: graph statistics and terminal plots."""

from .charts import ascii_bar_chart, ascii_curve, learning_curves
from .diagnostics import (computation_graph_stats, dataset_report,
                          degree_histogram, reach_statistics)

__all__ = [
    "ascii_curve", "ascii_bar_chart", "learning_curves",
    "degree_histogram", "computation_graph_stats", "reach_statistics",
    "dataset_report",
]
