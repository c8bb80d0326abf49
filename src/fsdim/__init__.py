"""Finite-state dimension toolkit.

Exact radix arithmetic, block-entropy statistics, low-discrepancy filters,
exponential-sum machinery, growth schedules, and a staged constructor that
builds a real number with prescribed block entropies stage by stage.
"""

from fsdim.base_arith import (
    CylinderInterval,
    DigitWord,
    as_unit,
    digit_at,
    digits_prefix,
    frac_of_scaled,
    in_cylinder,
    read_digit_file,
    value_of_word,
    write_digit_file,
)
from fsdim.blockstats import (
    BlockCounter,
    BlockDistribution,
    EntropyProfile,
    block_entropy,
    dimension_estimate,
    entropy_profile,
    occurrence_count,
    prefix_entropies,
)
from fsdim.constructor import (
    ConstructionParams,
    ConstructionTrace,
    RequirementVerdict,
    StageBounds,
    StepChoice,
    check_requirements,
    delta_k,
    run_construction,
    select_step,
    write_trace_csv,
)
from fsdim.discrepancy import (
    DiscrepancyParams,
    calibrate,
    discrepancy_statistic,
    low_discrepancy_test,
    sample_good_string,
    star_discrepancy,
)
from fsdim.expsum import (
    a_m,
    weyl_average,
    weyl_entropy_certificate,
    weyl_report,
)
from fsdim.schedule import (
    AlphaTable,
    PaperGrowth,
    ScaledGrowth,
    Schedule,
    StagePlan,
    TableGrowth,
    angle_base,
    check_sin_lower_bound,
    equivalent,
    eta_constant,
    parse_plan,
    read_plan_file,
    sin_ratio,
    validate_good_sequence,
)

__version__ = "0.1.0"
