"""zxwkit: a ZXW-calculus kernel.

Build, evaluate, rewrite and verify ZXW diagrams; construct controlled
diagrams and diagram sums; encode arbitrary qubit Hamiltonians as diagrams;
and exponentiate them diagrammatically (Taylor, Trotter, Cayley-Hamilton),
with dense-matrix oracles backing every construction at desk scale.
"""

from .graph import (Builder, Diagram, DiagramError, and_box, cap, compose_par,
                    compose_seq, cup, green_phase, hadamard_diagram,
                    identity, make_generator, pink_spider, plug_basis,
                    scalar_box, scalar_of, structural_equal, swap_pair,
                    transpose_diagram, triangle, v_gate, validate, w_diagram,
                    w_spider, wire_permutation, zbox_diagram)
from .evaluate import (CapExceeded, ContractionPlan, ScalarEquivalence,
                       equal_up_to_scalar, eval_diagram, matrices_close,
                       plan_contraction)
from .serialize import (diagram_from_dict, diagram_from_json, diagram_to_dict,
                        diagram_to_dot, diagram_to_json, matrix_from_text,
                        matrix_to_text, vector_from_text)
from .rules import (SimplifyResult, SoundnessReport, TemplateReport,
                    apply_fusion, check_soundness, check_template,
                    instantiate, simplify_basic, template_names)
from .controlled import (ControlledDiagram, check_controlled_matrix,
                         controlled_identity, controlled_matrix,
                         controlled_product, controlled_state_normal_form,
                         controlled_sum_matrices, controlled_sum_states,
                         state_oracle, sum_normal_forms, verify_controlled)
from .pauli import (DiagonalFactorSum, LinearityReport, PauliString, PauliSum,
                    build_diagonal_sum_diagram, build_hamiltonian_diagram,
                    check_sum_commutativity, controlled_diagonal_factor,
                    controlled_pauli_string, oracle_matrix, parse_pauli_sum,
                    strings_commute, verify_schrodinger_linearity)
from .expo import (CayleyCoeffs, Circuit, ExponentialDiagram, Gate,
                   cayley_hamilton_diagram, check_anticommuting_gadgets,
                   commuting_exponential, derivative_at_zero,
                   extract_axz_circuit, pauli_gadget, putzer_coefficients,
                   taylor_diagram, trotter_diagram)

__all__ = [
    "Builder", "Diagram", "DiagramError", "and_box", "cap",
    "compose_par", "compose_seq", "cup", "green_phase", "hadamard_diagram",
    "identity", "make_generator", "pink_spider", "plug_basis", "scalar_box",
    "scalar_of", "structural_equal", "swap_pair", "transpose_diagram",
    "triangle", "v_gate", "validate", "w_diagram", "w_spider",
    "wire_permutation", "zbox_diagram",
    "CapExceeded", "ContractionPlan", "ScalarEquivalence", "equal_up_to_scalar",
    "eval_diagram", "matrices_close", "plan_contraction",
    "diagram_from_dict", "diagram_from_json", "diagram_to_dict",
    "diagram_to_dot", "diagram_to_json", "matrix_from_text", "matrix_to_text",
    "vector_from_text",
    "SimplifyResult", "SoundnessReport", "TemplateReport", "apply_fusion",
    "check_soundness", "check_template", "instantiate", "simplify_basic",
    "template_names",
    "ControlledDiagram", "check_controlled_matrix", "controlled_identity",
    "controlled_matrix", "controlled_product", "controlled_state_normal_form",
    "controlled_sum_matrices", "controlled_sum_states", "state_oracle",
    "sum_normal_forms", "verify_controlled",
    "DiagonalFactorSum", "LinearityReport", "PauliString", "PauliSum",
    "build_diagonal_sum_diagram", "build_hamiltonian_diagram",
    "check_sum_commutativity", "controlled_diagonal_factor",
    "controlled_pauli_string", "oracle_matrix", "parse_pauli_sum",
    "strings_commute", "verify_schrodinger_linearity",
    "CayleyCoeffs", "Circuit", "ExponentialDiagram", "Gate",
    "cayley_hamilton_diagram", "check_anticommuting_gadgets",
    "commuting_exponential", "derivative_at_zero", "extract_axz_circuit",
    "pauli_gadget", "putzer_coefficients", "taylor_diagram", "trotter_diagram",
]

__version__ = "0.1.0"
