"""qcevolve: genetic-algorithm search for quantum circuits."""

from .circuit import (
    Circuit,
    Gate,
    Role,
    deserialize,
    export_qasm,
    pad_to,
    random_circuit,
    random_circuits,
    repair,
    serialize,
    validate,
)
from .engine import RunConfig, evolve, make_rng_streams, random_baseline
from .errors import (
    CircuitStructureError,
    ConfigurationError,
    ParseError,
    QcevolveError,
)
from .fitness import (
    Dataset,
    EntanglementFitness,
    FidelityFitness,
    FitnessFunction,
    MLFitness,
    load_dataset,
    register_fitness,
)
from .gates import FULL_GATE_SET, RESTRICTED_GATE_SET, GateKind, gate_matrix
from .operators import Individual
from .simulator import (
    apply_gate,
    fidelity,
    partial_trace,
    simulate,
    von_neumann_entropy,
    zero_state,
)

__version__ = "0.1.0"
