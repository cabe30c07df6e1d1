"""hsgen: deterministic assembly of FLAPW Hamiltonian/overlap matrices
from per-atom coefficient and coupling blocks, with a numpy
reference oracle, a synthetic problem generator, per-kernel flop
accounting, and a tiled multi-worker executor."""

from .builder import BuildOutput, build_hs
from .kernels import (SECTIONS, ExecPolicy, FlopLedger, FlopRecord, KernelKind, flops_of,
                      hermitian_mirror)
from .matcore import (
    DimensionError,
    Dims,
    InputError,
    InvariantError,
    frobenius,
    is_hermitian,
    rel_frob_error,
    zeros,
)
from .probgen import (
    ProblemInstance,
    ProblemSpec,
    generate,
    preset_dims,
    validate_instance,
)
from .reference import h_reference, s_reference
from .report import (
    HEAVY_SECTIONS,
    TABLE5,
    format_table,
    heavy_fraction,
    section_flops,
    summarize,
    validate_flop_model,
)
from .storage import (
    StorageError,
    load_instance,
    read_matrix,
    save_instance,
    write_matrix,
)

__version__ = "0.1.0"
