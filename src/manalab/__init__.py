"""manalab: a numerical laboratory for magic in odd-prime qudit systems.

Discrete Wigner functions, mana and mutual mana, competing magic-correlation
measures, generalized discrete beamsplitters, closed-form oracles, and a
phase-vector optimizer, all at desk scale (d <= 7 locals).
"""

from .circuits import (
    BeamsplitterSpec,
    QUTRIT_G,
    apply_beamsplitter,
    beamsplitter,
    clifford_gate,
    conjugate_weyl,
    csum_spec,
    heisenberg_pullback,
    prop3_expectation,
    prop3_index,
    qutrit_specs,
    swap_spec,
)
from .measures import (
    l1_magic,
    mana,
    measure_report,
    mutual_information,
    mutual_l1,
    mutual_mana,
    mutual_sre,
    nonlocal_mana_upper,
    purity_bound,
    sre_alpha,
    sum_negativity,
    von_neumann_entropy,
)
from .oracles import (
    ComparisonRecord,
    OracleId,
    closed_form,
    oracle_vs_numeric,
    p_crit,
    table1_cell,
    threshold_by_bisection,
)
from .phasespace import (
    PhasePoint,
    WignerTable,
    phase_point_operator,
    weyl,
    wigner,
)
from .search import PhaseVector, SearchResult, max_mana_coherent, mutual_mana_coherent_equals_mana
from .states import (
    DensityState,
    PureVector,
    enumerate_stabilizer_pure,
    maximally_mixed,
    named_state,
    noisy_mix,
    partial_trace,
    random_density,
    random_pure,
    reconstruct,
    state_from_json,
    state_to_json,
    tensor,
)

__version__ = "0.1.0"
