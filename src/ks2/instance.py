"""The isotropic-instance data model, its validity gates, generators, and file I/O.

An instance is an ordered family of m real d-vectors whose outer-product sum
is (approximately) the identity.  alpha, the largest squared norm, is always
recomputed from the vectors and never trusted from a file, because it enters
the correctness-critical thresholds c * sqrt(alpha).
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import prng
from .errors import BadSubset, DegenerateSample, EmptyInstance, KsError, NotIsotropic
from .linalg import SymMatrix, eig_extremes, eig_extremes_stack, inv_sqrt, spectral_distance_half

DEFAULT_ISO_TOL = 1e-8


@dataclass(frozen=True)
class Instance:
    """An ordered family of d-dimensional vectors with derived alpha.

    ``vectors`` is an (m, d) read-only float64 array; indices 0..m-1 follow
    row order.  ``validated`` is set by :func:`validate` once the isotropy
    gate has been passed.
    """

    vectors: np.ndarray
    meta: dict = field(default_factory=dict)
    validated: bool = False
    alpha: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise EmptyInstance(f"need an (m, d) array with m, d >= 1, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise EmptyInstance("vectors contain non-finite entries")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        # alpha is always recomputed here, never trusted from a file.
        object.__setattr__(self, "alpha", float(np.max((v ** 2).sum(axis=1))))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_vectors(self) -> int:
        return self.vectors.shape[0]

    def gram(self, subset: Sequence[int] | None = None) -> SymMatrix:
        """sum over the subset (default: all) of v v^T, as a SymMatrix."""
        if subset is None:
            rows = self.vectors
        else:
            idx = list(subset)
            if len(idx) == 0:
                return SymMatrix.zeros(self.dim)
            rows = self.vectors[idx]
        return SymMatrix(rows.T @ rows)

    def grams(self, members: np.ndarray) -> np.ndarray:
        """Stack of A_S, one per row of a bool (L, m) membership matrix.

        One batched product over masked copies of the vectors; the rows
        left out contribute exact zeros, so each matrix equals gram(S).a.
        """
        v = self.vectors
        return (members[:, :, None] * v).transpose(0, 2, 1) @ v

    def isotropy_deviation(self) -> float:
        """||sum v v^T - I|| in spectral norm."""
        lo, hi = eig_extremes_stack(self.gram().a - np.eye(self.dim))
        return float(max(abs(lo), abs(hi)))


@dataclass(frozen=True)
class SubsetReport:
    """Eigenvalue extremes of A_S and the two band conditions for (c, epsilon).

    satisfies_eq1 is the exact band 1/2 +- c*sqrt(alpha); satisfies_eq2 is the
    epsilon-relaxed band [(1-eps)(1/2 - c*sqrt(alpha)), (1+eps)(1/2 + c*sqrt(alpha))].
    """

    subset: tuple[int, ...]
    lambda_min: float
    lambda_max: float
    satisfies_eq1: bool
    satisfies_eq2: bool
    c: float
    epsilon: float

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "satisfies_eq1": self.satisfies_eq1,
            "satisfies_eq2": self.satisfies_eq2,
            "c": self.c,
            "epsilon": self.epsilon,
        }


def validate(inst: Instance, iso_tol: float = DEFAULT_ISO_TOL) -> Instance:
    """Return the instance marked validated iff ||sum v v^T - I|| <= iso_tol."""
    dev = inst.isotropy_deviation()
    if not dev <= iso_tol:  # a Gram that overflows gives dev NaN
        raise NotIsotropic(dev, iso_tol)
    return dataclasses.replace(inst, validated=True)


def check_subset(inst: Instance, subset: Sequence[int], c: float, epsilon: float) -> SubsetReport:
    """Eigenvalue extremes of A_S plus both band flags, computed from scratch.

    The comparisons are exact (no slack): the solver uses this as its
    acceptance gate and must not weaken it.
    """
    if c <= 0:
        raise BadSubset(f"c must be positive, got {c}")
    if not (0 <= epsilon < 1):
        raise BadSubset(f"epsilon must be in [0, 1), got {epsilon}")
    idx = sorted(int(i) for i in subset)
    m = inst.num_vectors
    if any(i < 0 or i >= m for i in idx):
        raise BadSubset(f"subset indices out of range 0..{m - 1}")
    if len(set(idx)) != len(idx):
        raise BadSubset("subset contains duplicate indices")
    lo, hi = eig_extremes(inst.gram(idx))
    ca = c * np.sqrt(inst.alpha)
    eq1 = bool(0.5 - ca <= lo and hi <= 0.5 + ca)
    eq2 = bool((1.0 - epsilon) * (0.5 - ca) <= lo and hi <= (1.0 + epsilon) * (0.5 + ca))
    return SubsetReport(tuple(idx), lo, hi, eq1, eq2, c, epsilon)


def subset_distance(inst: Instance, subset: Sequence[int]) -> float:
    """Worst-direction deviation of A_S from I/2."""
    return spectral_distance_half(inst.gram(list(subset)))


# --- generators ---------------------------------------------------------------


def _gaussian_rows(stream: prng.Stream, m: int, d: int) -> np.ndarray:
    return np.array([stream.normals(d) for _ in range(m)], dtype=np.float64)


def _whiten(rows: np.ndarray, target_scale: float) -> np.ndarray:
    """Map rows so their outer-product sum becomes target_scale * I."""
    g = SymMatrix.from_array(rows.T @ rows, symmetrize=False)
    try:
        n = inv_sqrt(g)
    except Exception as exc:
        raise DegenerateSample(f"second-moment matrix not invertible: {exc}") from exc
    return rows @ (np.sqrt(target_scale) * n.a)


def gen_random(d: int, m: int, seed: int) -> Instance:
    """m seeded Gaussian vectors whitened to an isotropic family.

    Deterministic per (d, m, seed).  Raises DegenerateSample when the sample
    second-moment matrix is singular (always for m < d).
    """
    if d < 1 or m < 1:
        raise EmptyInstance(f"need d, m >= 1, got d={d}, m={m}")
    stream = prng.Stream(prng.derive_key(seed, prng.TAG_GEN_RANDOM, d, m))
    rows = _whiten(_gaussian_rows(stream, m, d), 1.0)
    inst = Instance(rows, meta={"kind": "random", "seed": seed})
    try:
        return validate(inst, iso_tol=1e-9)
    except NotIsotropic as exc:
        raise DegenerateSample(f"whitening too inaccurate: {exc}") from exc


def gen_planted(d: int, k: int, seed: int) -> tuple[Instance, tuple[int, ...]]:
    """Instance of m = 2k vectors with a known subset summing to I/2.

    k Gaussian vectors are whitened so their outer-product sum is I/2, then
    each is emitted twice (copies adjacent).  The planted subset takes one
    copy of each pair, so A_planted = I/2 and the full family is isotropic.
    """
    if d < 1 or k < 1:
        raise EmptyInstance(f"need d, k >= 1, got d={d}, k={k}")
    stream = prng.Stream(prng.derive_key(seed, prng.TAG_GEN_PLANTED, d, k))
    half = _whiten(_gaussian_rows(stream, k, d), 0.5)
    rows = np.repeat(half, 2, axis=0)
    planted = tuple(range(0, 2 * k, 2))
    inst = Instance(rows, meta={"kind": "planted", "seed": seed})
    try:
        inst = validate(inst, iso_tol=1e-9)
    except NotIsotropic as exc:
        raise DegenerateSample(f"whitening too inaccurate: {exc}") from exc
    return inst, planted


# --- file I/O -----------------------------------------------------------------
# Canonical instance file: {"d": int, "vectors": [[...d reals...] x m], "meta": {...}}
# with reals written to 17 significant digits (lossless for doubles).
# Subset file: JSON array of 0-based indices, sorted ascending.


def _fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def instance_to_json(inst: Instance) -> str:
    rows = ",\n    ".join(
        "[" + ", ".join(_fmt_real(x) for x in row) + "]" for row in inst.vectors
    )
    meta = json.dumps(inst.meta) if inst.meta else "{}"
    return (
        "{\n"
        f'  "d": {inst.dim},\n'
        f'  "vectors": [\n    {rows}\n  ],\n'
        f'  "meta": {meta}\n'
        "}\n"
    )


def _is_json(x, kind) -> bool:
    """isinstance for parsed JSON, where true and false are bools, never ints."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _parse_json(text: str, error: type[KsError]):
    """json.loads(text), raising error for nesting too deep to parse: bad input, not a crash."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise error("JSON nested too deeply to parse") from exc


def instance_from_json(text: str) -> Instance:
    obj = _parse_json(text, EmptyInstance)
    if not isinstance(obj, dict) or not _is_json(obj.get("d"), int):
        raise EmptyInstance('an instance file is an object with an integer "d"')
    d, rows = obj["d"], obj.get("vectors")
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == d
            and all(_is_json(x, (int, float)) for x in row) for row in rows):
        raise EmptyInstance(f'"vectors" must be a list of rows of d={d} numbers')
    try:
        vectors = np.asarray(rows, dtype=np.float64)
    except OverflowError as exc:
        raise EmptyInstance(f"an entry of \"vectors\" is not a double: {exc}") from exc
    return Instance(vectors, meta=obj.get("meta") or {})


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(instance_to_json(inst))


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_json(fh.read())


def save_subset(subset: Sequence[int], path) -> None:
    with open(path, "w") as fh:
        json.dump(sorted(int(i) for i in subset), fh)
        fh.write("\n")


def load_subset(path) -> list[int]:
    with open(path) as fh:
        data = _parse_json(fh.read(), BadSubset)
    if not isinstance(data, list) or not all(_is_json(i, int) for i in data):
        raise BadSubset("a subset file is a JSON array of integer indices")
    return data
