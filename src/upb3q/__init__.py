"""Three-qubit bound entanglement in the tensor-of-coherences picture:
state tables, reflections, PPT and sign-oracle diagnostics, exact adjoint
flows, and a claim-grading command line tool."""

from .claims import (
    ClaimReport,
    claim_ids,
    run_claims,
    write_bloch_csv,
    write_orbit_csv,
)
from .dynamics import (
    FIXED_POINT,
    ONE_SPIN,
    ORBIT,
    STAGE1,
    STAGE2,
    TAU_P,
    byproduct_preparation,
    generator,
    orbit,
    prepare_upb,
    rodrigues_flow,
    stationarity,
)
from .entanglement import (
    OQ_TRIPLES,
    UPB_TRIPLES,
    lhv_oracle,
    partial_transpose,
    triple_value,
    verify_triple_structure,
)
from .linalg import frobenius_distance, jacobi_eigh
from .pauli import (
    ProductKet,
    bloch_vector,
    coherence_product,
    from_coherence,
    ket_from_string,
    label_index,
    lambda_matrix,
    reduced_density,
    to_coherence,
)
from .states import (
    X,
    check_upb,
    complement_map,
    expected_oq_tensor,
    expected_upb_tensor,
    family,
    family_mixture,
    partial_reflect,
    reflect,
    reflect_density,
    rho_oq,
    rho_sep,
    rho_upb,
)

__version__ = "0.1.0"
