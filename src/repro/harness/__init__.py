"""Experiment harness: Section 7 protocols and report formatting."""

from repro.harness.experiment import (
    NestingComparison,
    RunResult,
    ScalingPoint,
    compare_nesting,
    run_workload,
    scaling_curve,
)
from repro.harness.export import (
    comparison_to_dict,
    dump_json,
    profile_to_dict,
    rows_to_csv,
    scaling_to_dicts,
)
from repro.harness.parallel import (
    CampaignFailure,
    CaseSpec,
    CaseTimeout,
    run_campaign,
)
from repro.harness.profile import Profile, format_profiles, profile_machine
from repro.harness.txstats import (
    TxStatsCollector,
    format_tx_character,
)
from repro.harness.sweep import (
    SpeedupPoint,
    format_speedup_curve,
    speedup_curve,
)
from repro.harness.report import (
    format_bar_chart,
    format_figure5,
    format_scaling,
    format_table,
)

__all__ = [
    "CampaignFailure",
    "CaseSpec",
    "CaseTimeout",
    "run_campaign",
    "NestingComparison",
    "Profile",
    "format_profiles",
    "profile_machine",
    "RunResult",
    "ScalingPoint",
    "compare_nesting",
    "format_bar_chart",
    "format_figure5",
    "format_scaling",
    "format_table",
    "SpeedupPoint",
    "comparison_to_dict",
    "dump_json",
    "profile_to_dict",
    "rows_to_csv",
    "scaling_to_dicts",
    "TxStatsCollector",
    "format_tx_character",
    "format_speedup_curve",
    "run_workload",
    "speedup_curve",
    "scaling_curve",
]
