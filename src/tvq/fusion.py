"""Fusion-category data for the Fibonacci string-net model.

Every edge of the trivalent graph carries a label: 0 for the vacuum string,
1 for the Fibonacci string. All amplitude machinery downstream (plaquette
operators, Pachner moves, circuit compilation) is driven by the tables held
here: quantum dimensions d_s, the branching table delta_abc, and the
six-index F-tensor F^{abc}_{def}.

Index convention for ``fsym[a, b, c, d, e, f]``: a vertical strand pair
(a, b) fused through the internal label e recouples to the pair with
internal label f; the four outer strands are (a, b, c, d). An entry is
nonzero only when all four vertex triples (a,b,e), (e,c,d), (b,c,f),
(a,f,d) branch.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .lattice import MoveError, _refusing_malformed

PHI = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class FusionData:
    """Immutable fusion-category tables.

    num_labels: label count N (2 for Fibonacci).
    qdim: quantum dimension per label, shape (N,).
    branching: boolean admissibility table delta_abc, shape (N, N, N).
    fsym: real six-index tensor, shape (N,)*6, zero on inadmissible entries.
    total_dim_sq: D**2 = sum of squared quantum dimensions.
    tables: tables the state kernels derive from the fields above, kept
        per object (statevec._table); a new object, or a copy made with
        dataclasses.replace, starts with none.
    """

    num_labels: int
    qdim: np.ndarray
    branching: np.ndarray
    fsym: np.ndarray
    total_dim_sq: float
    tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def admissible(self, a: int, b: int, c: int) -> bool:
        return bool(self.branching[a, b, c])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.cache
def fibonacci_data() -> FusionData:
    """The Fibonacci category: labels {0, 1}, d_1 = golden ratio. One
    shared object, so every default of it shares its tables."""
    n = 2
    qdim = _freeze(np.array([1.0, PHI]))

    branching = np.zeros((n, n, n), dtype=bool)
    for triple in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]:
        branching[triple] = True
    branching = _freeze(branching)

    # The only non-trivial block sits at outer labels (1,1,1,1); every other
    # admissible entry is 1.
    golden = np.array(
        [
            [1.0 / PHI, PHI ** -0.5],
            [PHI ** -0.5, -1.0 / PHI],
        ]
    )
    fsym = np.zeros((n,) * 6)
    for a, b, c, d, e, f in itertools.product(range(n), repeat=6):
        if branching[a, b, e] and branching[e, c, d] and branching[b, c, f] and branching[a, f, d]:
            fsym[a, b, c, d, e, f] = golden[e, f] if (a, b, c, d) == (1, 1, 1, 1) else 1.0
    fsym = _freeze(fsym)

    return FusionData(
        num_labels=n,
        qdim=qdim,
        branching=branching,
        fsym=fsym,
        total_dim_sq=float(1.0 + PHI**2),
    )


def trivial_data() -> FusionData:
    """The one-label category; every map it generates is the identity."""
    return FusionData(
        num_labels=1,
        qdim=_freeze(np.array([1.0])),
        branching=_freeze(np.ones((1, 1, 1), dtype=bool)),
        fsym=_freeze(np.ones((1,) * 6)),
        total_dim_sq=1.0,
    )


def admissible_ef(
    data: FusionData, a: int, b: int, c: int, d: int
) -> tuple[list[int], list[int]]:
    """Labels e (old internal) and f (new internal) admissible for the
    outer strands (a, b, c, d)."""
    es = [e for e in range(data.num_labels) if data.branching[a, b, e] and data.branching[e, c, d]]
    fs = [f for f in range(data.num_labels) if data.branching[b, c, f] and data.branching[a, f, d]]
    return es, fs


def f_unitarity_residual(data: FusionData) -> float:
    """Largest entry of |B B^T - I| and |B^T B - I| over the admissible
    F-blocks B.

    Recoupling must be invertible, so for each (a,b,c,d) the admissible
    e and f sets must have equal size; the residual is inf when they do
    not, and 0.0 when there is no block.
    """
    n = data.num_labels
    residual = 0.0
    for a, b, c, d in itertools.product(range(n), repeat=4):
        es, fs = admissible_ef(data, a, b, c, d)
        if not es and not fs:
            continue
        if len(es) != len(fs):
            return math.inf
        block = data.fsym[a, b, c, d][np.ix_(es, fs)]
        eye = np.eye(len(es))
        residual = max(residual, float(np.max(np.abs(block @ block.T - eye))))
        residual = max(residual, float(np.max(np.abs(block.T @ block - eye))))
    return residual


def verify_f_unitarity(data: FusionData, tol: float = 1e-12) -> bool:
    """True iff every admissible F-block is real orthogonal within tol."""
    return f_unitarity_residual(data) <= tol


def verify_pentagon_coherence(data: FusionData, tol: float = 1e-12, depth: int = 5) -> bool:
    """True iff all F-move sequences (length <= depth) that meet at the
    same triangulation induce the same linear map within tol.

    Walks the flip graphs of triangulated 4-, 5- and 6-gons and compares
    the composed amplitude maps of paths that meet (coherence module,
    which needs the lattice and state machinery).
    """
    from .coherence import pentagon_residual

    return pentagon_residual(data, depth=depth) <= tol


def vacuum_s_vector(data: FusionData) -> np.ndarray:
    """Amplitudes (d_s / D) preparing a vacuum loop from |0>; unit norm."""
    return data.qdim / np.sqrt(data.total_dim_sq)


def fusion_to_json(data: FusionData) -> str:
    """Serialize the category tables (golden-file friendly: sorted keys)."""
    doc = {
        "num_labels": data.num_labels,
        "qdim": [float(x) for x in data.qdim],
        "branching": [
            [int(a), int(b), int(c)]
            for (a, b, c) in np.argwhere(data.branching).tolist()
        ],
        "fsym": data.fsym.tolist(),
        "total_dim_sq": float(data.total_dim_sq),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def fusion_from_json(text: str) -> FusionData:
    """Inverse of fusion_to_json; text that is not a well-formed fusion
    document raises MoveError."""
    with _refusing_malformed("fusion JSON"):
        doc = json.loads(text)
        n = doc["num_labels"]
        if not isinstance(n, numbers.Integral) or n < 1:
            raise MoveError(f"num_labels must be a positive integer, got {n!r}")
        branching = np.zeros((n, n, n), dtype=bool)
        for a, b, c in doc["branching"]:
            if not all(isinstance(x, numbers.Integral) and 0 <= x < n for x in (a, b, c)):
                raise MoveError(f"branching entry {[a, b, c]} is not a triple of labels below {n}")
            branching[a, b, c] = True
        fsym = np.asarray(doc["fsym"], dtype=float)
        if fsym.shape != (n,) * 6:
            raise MoveError(f"fsym shape {fsym.shape} does not match num_labels {n}")
        return FusionData(
            num_labels=n,
            qdim=_freeze(np.asarray(doc["qdim"], dtype=float)),
            branching=_freeze(branching),
            fsym=_freeze(fsym),
            total_dim_sq=float(doc["total_dim_sq"]),
        )
