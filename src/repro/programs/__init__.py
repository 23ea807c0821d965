"""The paper's programs, one module each, parsed from their surface syntax."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".tc": (
        "tc_program", "transitive_closure", "ctc_stratified_program",
        "complement_tc", "reference_transitive_closure",
    ),
    ".win": ("win_program", "win_states", "paper_win_instance"),
    ".closer": ("closer_program", "closer", "reference_closer"),
    ".ctc_inflationary": (
        "ctc_inflationary_program", "complement_tc_inflationary",
    ),
    ".good_nodes": (
        "good_nodes_program", "good_nodes", "reference_good_nodes",
    ),
    ".flip_flop": ("flip_flop_program", "flip_flop_input"),
    ".orientation": (
        "orientation_program", "remove_two_cycles", "orientations",
    ),
    ".proj_diff": (
        "proj_diff_negneg_program", "proj_diff_bottom_program",
        "proj_diff_forall_program",
    ),
    ".evenness": (
        "evenness_stratified_program", "evenness_inflationary_program",
        "evenness_semipositive_program", "evenness",
    ),
    ".parity_chain": ("parity_chain_program", "parity_chain"),
    ".same_generation": (
        "same_generation_program", "same_generation", "tree_instance",
    ),
    ".hamiltonian": ("has_hamiltonian_circuit", "hamiltonian_vertices"),
    ".evenness_generic": ("evenness_generic_program", "evenness_generic"),
    ".component_chain": (
        "component_chain_program", "component_chain_database",
        "component_chain_source", "reference_component_chain",
    ),
}, unlisted={".tc": ("reference_complement_tc",)})
