"""Experiment harnesses reproducing the paper's table and figures.

The Table 1 and Figure 7 harnesses build
:class:`repro.runner.CampaignSpec` sweeps and execute them on the
campaign runner — parallel under ``jobs=N``, cacheable, resumable.
The scaling study (:mod:`repro.experiments.scaling`) times its phase
passes itself, serially in one process.
"""

from repro.experiments.figure7 import (
    DEFAULT_RATIOS,
    default_circuits,
    format_panel,
    panel_spec,
    run_panel,
)
from repro.experiments.table1 import (
    Table1Row,
    campaign_spec,
    format_table1,
    run_row,
    run_table1,
    select_specs,
)

__all__ = [
    "DEFAULT_RATIOS",
    "Table1Row",
    "campaign_spec",
    "default_circuits",
    "format_panel",
    "format_table1",
    "panel_spec",
    "run_panel",
    "run_row",
    "run_table1",
    "select_specs",
]
