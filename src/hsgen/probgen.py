"""Deterministic synthetic problem instances and the named size presets.

Randomness comes from numpy's Philox counter-based bit generator keyed on
the spec's seed, so the same spec always reproduces the same instance
bit-for-bit within one build of numpy.  Draw order is fixed: first the
non-HPD atom permutation, then per atom (in index order) the A block, the
B block, the AB coupling block, the AA block's unitary/eigenvalues (plus
one negative replacement draw for non-HPD atoms), the BB block's
unitary/eigenvalues, and finally the norm weights.  Each field is one
C-contiguous array with a leading atom axis (``instance_fields``), so
``p.a_blocks[a]`` is atom a's block and atoms a0..a1 are one slice.
``atom_chunks`` cuts the atoms into the one chunk grid that the builder
loops over and the instance files checksum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .matcore import Dims, InputError, InvariantError, int_fields, is_hermitian

#: Basis sizes per test case and plane-wave cutoff.
_PRESET_TABLE = {
    "NaCl": (512, 49, {2.5: 2256, 3.0: 3893, 3.5: 6217, 4.0: 9273}),
    "AuAg": (108, 121, {2.5: 3275, 3.0: 5638, 3.5: 8970, 4.0: 13379}),
}

PRESET_NAMES = tuple(_PRESET_TABLE)
KMAX_VALUES = (2.5, 3.0, 3.5, 4.0)

#: Eigenvalue interval of the generated Hermitian coupling blocks.
EIGENVALUE_RANGE = (0.5, 2.0)


def preset_dims(name: str, k_max: float) -> Dims:
    """Dimensions of a named test case at a given cutoff."""
    entry = _PRESET_TABLE.get(name)
    if entry is None or float(k_max) not in entry[2]:
        raise InputError(
            f"unknown preset {name!r} with k_max {k_max!r}; valid: "
            f"{', '.join(PRESET_NAMES)} with k_max in "
            f"{', '.join(str(k) for k in KMAX_VALUES)}"
        )
    na, nl, ng_by_k = entry
    return Dims(na, nl, ng_by_k[float(k_max)])


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for one synthetic instance."""

    dims: Dims
    seed: int = 0
    nonhpd_fraction: float = 0.0

    def __post_init__(self):
        int_fields(self, seed=0)
        if self.seed >= 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        f = self.nonhpd_fraction  # a bool is no number here, though Python counts True as 1
        if isinstance(f, (bool, np.bool_)) or not (isinstance(f, numbers.Real) and 0 <= f <= 1):
            raise InputError(f"nonhpd_fraction must be a number in [0, 1], got {f!r}")
        object.__setattr__(self, "nonhpd_fraction", float(f))


@dataclass
class ProblemInstance:
    """Coefficient blocks, coupling blocks, and norm weights, stacked over
    atoms.  The BA coupling block is never stored; it is the conjugate
    transpose of ``t_ab`` everywhere it is needed."""

    dims: Dims
    a_blocks: np.ndarray = field(repr=False)
    b_blocks: np.ndarray = field(repr=False)
    t_aa: np.ndarray = field(repr=False)
    t_ab: np.ndarray = field(repr=False)
    t_bb: np.ndarray = field(repr=False)
    u_norms: np.ndarray = field(repr=False)


def _complex_gaussians(rng, rows: int, cols: int, scale: float) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) * scale


def _spectral_hermitian(rng, n, eig_lo, eig_hi, force_indefinite) -> np.ndarray:
    q, _ = np.linalg.qr(_complex_gaussians(rng, n, n, 1.0))  # unitary
    d = rng.uniform(eig_lo, eig_hi, size=n)
    if force_indefinite:
        d[int(np.argmin(d))] = rng.uniform(-0.1, -0.01)
    m = (q * d) @ np.conj(q).T
    return (m + np.conj(m.T)) / 2.0  # bitwise Hermitian, exactly real diagonal


def generate(spec: ProblemSpec) -> ProblemInstance:
    """Fully populated instance; identical spec -> bit-identical instance.
    InputError, before anything is allocated, if a field would exceed the
    bytes one array can hold."""
    dims = spec.dims
    fields = instance_fields(dims)
    largest = max(math.prod(shape) * dtype.itemsize for shape, dtype in fields.values())
    if largest > np.iinfo(np.intp).max:
        raise InputError(f"{dims} needs a field of {largest} bytes, more than one array can hold")
    n_a, n_l, n_g = dims.n_atoms, dims.n_l, dims.n_g
    rng = np.random.Generator(np.random.Philox(spec.seed))
    n_non = round(spec.nonhpd_fraction * n_a)
    nonhpd = set(rng.permutation(n_a)[:n_non].tolist())
    lo, hi = EIGENVALUE_RANGE
    scale = 1.0 / math.sqrt(n_l)

    inst = ProblemInstance(dims, **{
        name: np.empty(shape, dtype) for name, (shape, dtype) in fields.items()
    })
    for a in range(n_a):
        inst.a_blocks[a] = _complex_gaussians(rng, n_l, n_g, scale)
        inst.b_blocks[a] = _complex_gaussians(rng, n_l, n_g, scale)
        inst.t_ab[a] = _complex_gaussians(rng, n_l, n_l, scale)
        inst.t_aa[a] = _spectral_hermitian(rng, n_l, lo, hi, a in nonhpd)
        inst.t_bb[a] = _spectral_hermitian(rng, n_l, lo, hi, False)
        inst.u_norms[a] = rng.uniform(0.5, 1.5, size=n_l)
    return inst


def instance_fields(dims: Dims) -> dict:
    """``{field: (shape, dtype)}`` of each ProblemInstance field; the
    leading axis is the atom."""
    n_a, n_l, n_g = dims.n_atoms, dims.n_l, dims.n_g
    c16 = np.dtype(np.complex128)
    blocks, coupling = ((n_a, n_l, n_g), c16), ((n_a, n_l, n_l), c16)
    return {"a_blocks": blocks, "b_blocks": blocks, "t_aa": coupling, "t_ab": coupling,
            "t_bb": coupling, "u_norms": ((n_a, n_l), np.dtype(np.float64))}


#: Bytes of one chunk's A rows; sets the atoms per chunk.
_CHUNK_BYTES = 32 << 20


def atom_chunks(dims: Dims) -> list:
    """``[(a0, a1), ...]``: consecutive atom ranges of at most
    ``_CHUNK_BYTES // (16 n_l n_g)`` atoms (at least one) covering every
    atom.  The grid depends on the dims alone.  It is part of the instance
    format, whose checksums are per chunk: changing it needs a
    ``storage.FORMAT`` bump."""
    per = max(1, _CHUNK_BYTES // (16 * dims.n_l * dims.n_g))
    return [(a0, min(a0 + per, dims.n_atoms)) for a0 in range(0, dims.n_atoms, per)]


#: Bytes of the coupling blocks ``validate_instance`` checks at once, so a
#: group and its temporaries stay in cache.  On a 2-vCPU x86-64 host, the
#: 16 blocks of n_l = 49 (614 KB) checked as one group took longer than
#: block by block, and in groups of 4 to 8 about half as long.
_CHECK_BYTES = 256 << 10


def validate_instance(p: ProblemInstance) -> None:
    """Raise InvariantError if the instance violates its declared invariants."""
    for name, (shape, _) in instance_fields(p.dims).items():
        x = getattr(p, name)
        if (got := getattr(x, "shape", None)) != shape:
            raise InvariantError(f"{name} has shape {got}, expected {shape}")
        if not np.isfinite(x).all():
            raise InvariantError(f"{name} contains non-finite entries")
    step = max(1, _CHECK_BYTES // (16 * p.dims.n_l**2))
    for name in ("t_aa", "t_bb"):
        for a0 in range(0, p.dims.n_atoms, step):
            bad = np.flatnonzero(~is_hermitian(getattr(p, name)[a0 : a0 + step], tol=1e-14))
            if bad.size:
                raise InvariantError(f"{name}[{a0 + bad[0]}] is not Hermitian within 1e-14")
    if not (p.u_norms > 0).all():
        raise InvariantError("u_norms has non-positive entries")
