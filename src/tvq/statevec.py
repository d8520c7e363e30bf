"""Sparse string-net state vectors and exact operator application.

A state is a pair of parallel arrays (configs: uint64, amps: complex128)
over branching-valid edge-label configurations, bound to a lattice
version. Bit i of a config is the label of the edge whose qubit slot id
is the i-th smallest; pinned boundary edges carry no bit and always read
the vacuum label.

All operations are pure and vectorized. The F-move, the largest state
kernel, works in blocks of at most FMOVE_BLOCK sorted configs, so that
its many passes run in cache. A block holds both members of every pair
(c, c ^ flag) of the switched edge's bit, and the move mixes nothing
else, so each output config gets its (at most two) terms from one
block; their sum does not depend on the order, and the blocked result
equals the whole-array one bit for bit. Each block writes straight into
the move's one result allocation, so a move's peak is its input, its
output and one block. The other kernels make
whole-array passes. The plaquette projector runs on a block of states
that share one support, one amplitude column each: it sorts its terms
once by output config and sums one column at a time through that
order, so a block of seeds pays one sort per plaquette and holds no
(terms x columns) array. Every projection onto the code space runs one
plaquette loop (_project): ground_project on one column, and
code_space, the only builder of a code-space basis, on blocks of
seeds. A plaquette's tables are built for many leg patterns at once,
each fan factor read from the flat F-symbol array by one index per
position, in the order one pattern alone would multiply them. A
projected block is filtered against the basis by a screen, one einsum
over all its columns, and only the columns the screen cannot rule out
get the exact Gram-Schmidt test; the screen's threshold leaves room for
its rounding, so it rules out only columns the test would drop. Neither
changes a bit of a table or a basis. The kernels read small read-only
tables derived from a category, each built on first use and kept in
that category object's own FusionData.tables (_table). Configs hold
one bit per edge, so _table refuses data without exactly two labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .fusion import FusionData, fibonacci_data
from .lattice import (
    MoveError,
    SurfaceLattice,
    _refusing_malformed,
    apply_cpi,
    pachner_13,
    pachner_22,
    pachner_31,
)

U64 = np.uint64
CONFIG_BITS = 64  # one bit per qubit slot in a uint64 config
PACHNER31_RESIDUAL_TOL = 1e-10  # relative weight a 3-1 move may drop
FMOVE_BLOCK = 1 << 15  # configs per F-move block: 0.8 MB of configs and amplitudes
SEED_BLOCK = 1 << 16  # valid configs x seed columns per code_space block: 1 MB of amplitudes
BP_TABLE_BATCH = 1 << 16  # leg x boundary patterns per plaquette-table pass: 64 kB of masks


class VersionError(ValueError):
    """State used with a lattice it is not bound to."""


@dataclass(frozen=True)
class StringNetState:
    lattice_version: int
    sig_key: int  # structural hash of the bound lattice
    configs: np.ndarray  # uint64, strictly increasing
    amps: np.ndarray  # complex128, parallel to configs
    tolerance: float = 1e-14

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def nnz(self) -> int:
        return len(self.configs)


def _sig_key(lat: SurfaceLattice) -> int:
    return hash(lat.signature())


def _check_width(lat: SurfaceLattice) -> int:
    """lat's qubit slot count. Configs hold one bit per qubit slot; numpy
    reads shifts of 64 or more as 0, so wider lattices would silently
    drop labels (MoveError)."""
    n = sum(1 for rec in lat.edges.values() if rec.qubit is not None)
    if n > CONFIG_BITS:
        raise MoveError(f"{n} qubit slots exceed the {CONFIG_BITS}-bit config width")
    return n


def _check_bound(state: StringNetState, lat: SurfaceLattice) -> None:
    """Refuse a state that is not bound to lat: lat must fit the config
    width (MoveError), then the state must carry lat's version and
    structural key (VersionError). Every fresh build is version 0, so
    the version alone does not tell two lattices apart."""
    _check_width(lat)
    if state.lattice_version != lat.version:
        raise VersionError(
            f"state bound to lattice version {state.lattice_version}, got {lat.version}"
        )
    if state.sig_key != _sig_key(lat):
        raise VersionError("state bound to a lattice of another structure")


def bit_positions(lat: SurfaceLattice) -> dict[int, int]:
    """edge id -> config bit index, for qubit-bearing edges."""
    slots = lat.qubit_slots()
    rank = {s: i for i, s in enumerate(slots)}
    return {e: rank[rec.qubit] for e, rec in lat.edges.items() if rec.qubit is not None}


def _table(data: FusionData, key: Hashable, build: Callable[[], Any]) -> Any:
    """The table named key derived from data: build() on first use, then
    the one kept in data.tables. Kernels index these tables with config
    bits, one per edge, so this refuses data without exactly two labels."""
    if data.num_labels != 2:
        raise MoveError(f"state kernels need 2 labels (one bit per edge), got {data.num_labels}")
    table = data.tables.get(key)
    if table is None:
        table = data.tables[key] = build()
    return table


def _branching(data: FusionData) -> np.ndarray:
    """The branching table flat over the 3-bit key of a triangle's edges."""
    return _table(data, "branching", lambda: data.branching.reshape(-1))


def _locate(support: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each query in the sorted, non-empty support, and
    whether it is there; a query past the end reads position 0."""
    at = np.searchsorted(support, queries)
    at[at == len(support)] = 0
    return at, support[at] == queries


def _runs(configs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort order of non-empty configs, the sorted configs, and
    whether each sorted config starts a run of equal ones. The stable
    sort (timsort for uint64) merges inputs made of a few presorted runs
    in about linear time, and keeps each run in input order."""
    order = np.argsort(configs, kind="stable")
    c = configs[order]
    head = np.empty(len(c), dtype=bool)
    head[0] = True
    np.not_equal(c[1:], c[:-1], out=head[1:])
    return order, c, head


def _coalesce(configs: np.ndarray, amps: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort, merge duplicate configs (amps parallel to them), drop tiny
    amplitudes."""
    if len(configs) == 0:
        return configs.astype(U64), amps.astype(np.complex128)
    order, c, head = _runs(configs)
    starts = np.flatnonzero(head)
    return _drop(c[starts], np.add.reduceat(amps[order], starts), tol)


def _drop(uniq: np.ndarray, summed: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Drop the amplitudes below tol of merged configs. summed is parallel
    to uniq, or a block of states (states x configs) that share them:
    then an amplitude below tol is zeroed in its state, in place and in
    one pass over the block, a config is dropped when it is zero in every
    state, and the amplitudes come back as (configs x states)."""
    if summed.ndim == 1:
        keep = np.abs(summed) >= tol
        return (uniq, summed) if keep.all() else (uniq[keep], summed[keep])
    summed[np.abs(summed) < tol] = 0
    keep = summed.any(axis=0)
    if keep.all():
        return uniq, summed.T
    return uniq[keep], np.compress(keep, summed, axis=1).T


def _move_bits(configs: np.ndarray, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """Copy bit i of every config to bit j for each (i, j) in pairs; every
    other output bit is 0, and one source bit may feed several
    destinations. Bits that move by the same shift share one
    mask-and-shift pass."""
    masks: dict[int, int] = {}
    for i, j in pairs:
        masks[j - i] = masks.get(j - i, 0) | (1 << i)
    out = np.zeros(len(configs), dtype=U64)
    part = np.empty_like(out)
    for shift, mask in masks.items():
        np.bitwise_and(configs, U64(mask), out=part)
        if shift > 0:
            np.left_shift(part, U64(shift), out=part)
        elif shift < 0:
            np.right_shift(part, U64(-shift), out=part)
        out |= part
    return out


def _key(configs: np.ndarray, bits: Sequence[int | None]) -> np.ndarray:
    """int64 table index whose bit k is config bit bits[k]; None reads 0.
    A table flattened from axes (x0, ..., xm) takes its bits xm first."""
    return _move_bits(configs, [(b, k) for k, b in enumerate(bits) if b is not None]).view(np.int64)


def make_state(
    lat: SurfaceLattice,
    configs: np.ndarray,
    amps: np.ndarray,
    tolerance: float = 1e-14,
) -> StringNetState:
    """The state sum amps[k] |configs[k]> bound to lat, sorted and merged
    (_coalesce). Raises MoveError when a config sets a bit at or above
    lat's qubit count: no edge reads that bit, and a relabeling would
    drop it."""
    nq = _check_width(lat)
    configs = np.asarray(configs, dtype=U64)
    if nq < CONFIG_BITS and len(configs) and int(configs.max()) >> nq:
        raise MoveError(f"config sets a bit at or above the lattice's {nq} qubit edges")
    amps = np.asarray(amps, dtype=np.complex128)
    if not np.isfinite(amps).all():
        raise ValueError("state amplitudes must be finite")
    c, a = _coalesce(configs, amps, tolerance)
    return StringNetState(
        lattice_version=lat.version,
        sig_key=_sig_key(lat),
        configs=c,
        amps=a,
        tolerance=tolerance,
    )


def _moved(
    state: StringNetState, out: SurfaceLattice, configs: np.ndarray, amps: np.ndarray
) -> tuple[StringNetState, SurfaceLattice]:
    """A move kernel's result: its output arrays bound to the lattice
    out, with state's tolerance, and out itself."""
    new_state = StringNetState(
        lattice_version=out.version,
        sig_key=_sig_key(out),
        configs=configs,
        amps=amps,
        tolerance=state.tolerance,
    )
    return new_state, out


def diff_norm(lat: SurfaceLattice, a: StringNetState, b: StringNetState) -> float:
    """Norm of a - b, both bound to lat."""
    cfg = np.concatenate([a.configs, b.configs])
    amp = np.concatenate([a.amps, -b.amps])
    return make_state(lat, cfg, amp, tolerance=0.0).norm()


def rebind_state(state: StringNetState, lat: SurfaceLattice) -> StringNetState:
    """Bind to a lattice with identical structure but different version
    counter (e.g. after a closed protocol loop)."""
    if state.sig_key != _sig_key(lat):
        raise VersionError("cannot rebind: lattice structure differs")
    return replace(state, lattice_version=lat.version)


# ---- enumeration ---------------------------------------------------------------


def _triangle_bits(lat: SurfaceLattice):
    """Per-triangle branching-table key bits (bit position or None, last
    edge first), sorted by triangle id."""
    pos = bit_positions(lat)
    return [[pos.get(e) for e in reversed(es)] for _t, es in sorted(lat.triangles.items())]


def valid_mask(lat: SurfaceLattice, configs: np.ndarray, data: FusionData | None = None) -> np.ndarray:
    """Branching validity of each config at every dual vertex."""
    flat = _branching(data or fibonacci_data())
    ok = np.ones(len(configs), dtype=bool)
    for bits in _triangle_bits(lat):
        ok &= flat[_key(configs, bits)]
    return ok


def _grow(configs: np.ndarray, fresh: list[int]) -> np.ndarray:
    """Every config extended by every pattern of the fresh bits."""
    if not fresh:
        return configs
    grow = _move_bits(np.arange(1 << len(fresh), dtype=U64), enumerate(fresh))
    return (configs[:, None] | grow[None, :]).ravel()


def enumerate_valid_configs(
    lat: SurfaceLattice, data: FusionData | None = None, max_qubits: int = 40
) -> np.ndarray:
    """All branching-valid configs, by constraint propagation over the
    triangle list (builder ordering keeps the frontier small)."""
    flat = _branching(data or fibonacci_data())
    nbits = len(lat.qubit_slots())
    if nbits > max_qubits:
        raise MoveError(f"{nbits} qubit edges exceed the enumeration guard ({max_qubits})")

    configs = np.zeros(1, dtype=U64)
    seen: set[int] = set()
    for bits in _triangle_bits(lat):
        fresh = sorted({b for b in bits if b is not None and b not in seen})
        configs = _grow(configs, fresh)
        seen.update(fresh)
        configs = configs[flat[_key(configs, bits)]]
    # edges not on any triangle (does not occur in shipped builders)
    configs = _grow(configs, sorted(set(range(nbits)) - seen))
    configs.sort()
    return configs


def random_valid_state(
    lat: SurfaceLattice,
    rng: np.random.Generator,
    support: int | None = None,
    data: FusionData | None = None,
) -> StringNetState:
    configs = enumerate_valid_configs(lat, data)
    if support is not None and support < len(configs):
        pick = rng.choice(len(configs), size=support, replace=False)
        configs = np.sort(configs[pick])
    amps = rng.normal(size=len(configs)) + 1j * rng.normal(size=len(configs))
    amps /= np.linalg.norm(amps)
    return make_state(lat, configs, amps)


def make_delta_state(lat: SurfaceLattice, config: int) -> StringNetState:
    return make_state(lat, np.array([config], dtype=U64), np.array([1.0 + 0j]))


# ---- vertex and plaquette projectors ----------------------------------------------


def apply_qv(
    state: StringNetState, lat: SurfaceLattice, dual_vertex_id: int, data: FusionData | None = None
) -> StringNetState:
    """Diagonal branching projector at one dual vertex (= triangle)."""
    _check_bound(state, lat)
    flat = _branching(data or fibonacci_data())
    if dual_vertex_id not in lat.triangles:
        raise MoveError(f"no dual vertex {dual_vertex_id}")
    pos = bit_positions(lat)
    bits = [pos.get(e) for e in reversed(lat.triangles[dual_vertex_id])]
    keep = flat[_key(state.configs, bits)]
    return replace(state, configs=state.configs[keep], amps=state.amps[keep])


def _bp_fans(data: FusionData) -> tuple[np.ndarray, np.ndarray]:
    """Where a plaquette fan factor can be nonzero, from the zeros of
    fsym: pin[leg, in_i, in_{i+1}] and pout[leg, out_{i+1}, out_i]."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        nz = data.fsym != 0
        fans = (nz.any(axis=(2, 3, 5)), nz.any(axis=(1, 2, 4)))
        for t in fans:
            t.setflags(write=False)
        return fans

    return _table(data, "plaquette fans", build)


def _bp_tables(
    data: FusionData, n: int, lkeys: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Nonzero entries of the plaquette operator for each leg pattern in
    lkeys, in that order.

    Entry (out, in) over boundary patterns is sum_s (d_s/D^2) prod_i
    F[leg_i, in_i, s, out_{i+1}, in_{i+1}, out_i], indices cyclic in i.
    A table is a CSR by input pattern: the entries of input `in` are
    outs[ptr[in]:ptr[in + 1]] (output patterns, increasing) and the
    matching complex vals, whose imaginary parts are 0; an input that
    breaks branching at a fan triangle has none. Each table is kept in
    data.tables under ("plaquette", n, leg pattern); the patterns not
    kept yet are built together (_bp_build), at most
    BP_TABLE_BATCH >> n of them per pass.
    """
    _bp_fans(data)  # refuses other categories before data.tables is read
    lkeys = [int(k) for k in lkeys]
    missing = np.array(
        sorted({k for k in lkeys if ("plaquette", n, k) not in data.tables}), dtype=np.int64
    )
    step = max(BP_TABLE_BATCH >> n, 1)
    built: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for start in range(0, len(missing), step):
        built.update(_bp_build(data, n, missing[start : start + step]))
    return [_table(data, ("plaquette", n, k), lambda k=k: built[k]) for k in lkeys]


def _bp_build(
    data: FusionData, n: int, lkeys: np.ndarray
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The tables (_bp_tables) of the leg patterns lkeys, in one pass.

    A pattern can have nonzero entries only if every fan factor can be
    nonzero, which the fan masks (_bp_fans) decide for all 2^n patterns
    at once: per position and leg label, one row over the patterns, read
    from the mask flat over the two fan labels and gathered by each leg
    pattern's label. Entries are computed over the stacked candidates
    only, by leg pattern, then input, then output. Per position, one flat
    index into data.fsym.ravel() (its five labels other than s, from
    small per-pattern code tables) reads the factor for both values of
    s; each s keeps its own product, ones * F_0 * ... * F_{n-1} *
    (d_s/D^2), and the products are summed over s from zeros: per
    pattern, the same factors multiplied and added in the same order as
    one pattern alone, so the entries do not change by a bit.
    """
    fsym = data.fsym.ravel()  # index 32 leg + 16 in_i + 8 s + 4 out_{i+1} + 2 in_{i+1} + out_i
    pin, pout = (t.reshape(2, 4) for t in _bp_fans(data))  # (leg, 2 * label + label)
    size = 1 << n
    pats = np.arange(size)
    bits = [(pats >> i) & 1 for i in range(n)]
    ok_in = np.ones((len(lkeys), size), dtype=bool)
    ok_out = np.ones_like(ok_in)
    for i in range(n):
        j = (i + 1) % n
        leg = (lkeys >> i) & 1
        ok_in &= pin[:, 2 * bits[i] + bits[j]][leg]
        ok_out &= pout[:, 2 * bits[j] + bits[i]][leg]
    # candidates: each (pattern k, input p) with every output o of pattern k
    k, p = np.nonzero(ok_in)
    n_out = ok_out.sum(axis=1)
    outs = np.flatnonzero(ok_out) & (size - 1)
    rep = n_out[k]
    # candidate t of (k, p) reads outs at t - (first candidate of (k, p)) + (first output of k)
    first = np.repeat(np.cumsum(n_out)[k] - rep - (np.cumsum(rep) - rep), rep)
    o = outs[np.arange(rep.sum()) + first]
    k = np.repeat(k, rep)
    p = np.repeat(p, rep)
    prods = np.ones((data.num_labels, len(p)))
    for i in range(n):
        j = (i + 1) % n
        at = (((lkeys >> i) & 1) << 5)[k]
        at |= (16 * bits[i] + 2 * bits[j])[p]
        at |= (4 * bits[j] + bits[i])[o]
        for s, prod in enumerate(prods):
            prod *= fsym[at + 8 * s]
    mat = np.zeros(len(p))
    for s, prod in enumerate(prods):
        prod *= data.qdim[s] / data.total_dim_sq
        mat += prod
    nz = np.flatnonzero(mat)
    counts = np.bincount(k[nz] * size + p[nz], minlength=len(lkeys) * size).reshape(-1, size)
    ptrs = np.zeros((len(lkeys), size + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=ptrs[:, 1:])
    ends = np.cumsum(ptrs[:, -1]).tolist()
    outs, vals = o[nz], mat[nz].astype(np.complex128)
    built = {}
    for lkey, ptr, end in zip(lkeys.tolist(), ptrs, ends):
        table = (ptr, outs[end - ptr[-1] : end], vals[end - ptr[-1] : end])
        for t in table:
            t.setflags(write=False)
        built[lkey] = table
    return built


def _bp_block(
    lat: SurfaceLattice,
    plaquette_id: int,
    configs: np.ndarray,
    amps: np.ndarray,
    data: FusionData,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """B_p on a block of states that share one sorted support: amps is
    (configs x columns), one column per state.

    Each config is keyed by its leg pattern, which picks a sparse table
    (_bp_tables), and its boundary pattern, which picks that table's
    entries for this input. Every config expands into one term per entry:
    its non-boundary bits kept, the output pattern spread onto the
    boundary bits, its row and the entry's real coefficient; a config
    with no entries, branching-invalid at this plaquette, contributes
    nothing. The terms are sorted once by output config, stably, so each
    output's terms stay in input config order; each column then gathers
    its amplitudes through that order, scales them and sums each output's
    run (reduceat). Amplitudes at or below tol are zeroed in their
    column, and configs zero in every column are dropped (_drop). A
    column's result thus equals that of the column alone, up to the
    rounding of sums that meet zeros from other columns. Beyond the
    block itself, the kernel holds a few arrays of one entry per term
    and one column of terms at a time, never (terms x columns)
    amplitudes.
    """
    if plaquette_id in lat.punctures:
        raise MoveError(f"plaquette {plaquette_id} is a puncture")
    plq = lat.plaquette(plaquette_id)
    if plq is None:
        raise MoveError(f"vertex {plaquette_id} has no closed plaquette")
    pos = bit_positions(lat)
    bpos = [pos[e] for e in plq.boundary]  # boundary edges always carry qubits here
    lpos = [pos.get(e) for e in plq.legs]
    n = len(bpos)
    if n > 14:
        raise MoveError(f"plaquette {plaquette_id} has {n} boundary edges; table too large")
    _bp_fans(data)  # before the empty return, so an empty block refuses other categories too
    empty = configs[:0], amps[:0]
    if len(configs) == 0:
        return empty

    # boundary pattern spread onto the boundary bits; the all-ones one is their mask
    spread = _move_bits(np.arange(1 << n, dtype=U64), enumerate(bpos))
    mask = spread[-1]
    ekey = _key(configs, bpos)
    uniq, inv = np.unique(_key(configs, lpos), return_inverse=True)
    tables = _bp_tables(data, n, uniq.tolist())
    # stack the tables into one CSR over (leg pattern, input pattern)
    base = np.cumsum([0] + [len(t[1]) for t in tables])
    ptr = np.concatenate([t[0][:-1] + b for t, b in zip(tables, base)] + [base[-1:]])
    outs = np.concatenate([t[1] for t in tables])
    vals = np.concatenate([t[2].real for t in tables])
    row = (inv << n) | ekey
    lo = ptr[row]
    count = ptr[row + 1] - lo
    total = int(count.sum())
    if total == 0:
        return empty
    term = np.arange(total) + np.repeat(lo - (np.cumsum(count) - count), count)
    c = np.repeat(configs & ~mask, count)
    c |= spread[outs[term]]
    coef = vals[term]
    # free each per-term array once used: millions of configs make tens of millions of terms
    del term
    order, c, head = _runs(c)
    starts = np.flatnonzero(head)
    coef = coef[order]
    src = np.repeat(np.arange(len(configs), dtype=np.int32), count)[order]
    del order
    summed = np.empty((amps.shape[1], len(starts)), dtype=np.complex128)
    buf = np.empty(total, dtype=np.complex128)
    for col, out in zip(amps.T, summed):
        np.take(col, src, out=buf)
        buf *= coef
        np.add.reduceat(buf, starts, out=out)
    merged = c[starts]
    del c, coef, src, buf  # the drop may copy the block; free the terms first
    # keep |amplitude| > tol, as the projector always has
    return _drop(merged, summed, np.nextafter(tol, np.inf))


def apply_bp(
    state: StringNetState, lat: SurfaceLattice, plaquette_id: int, data: FusionData | None = None
) -> StringNetState:
    """Plaquette projector B_p = sum_s (d_s/D^2) B_p^s at an interior
    primal vertex; coefficients are cyclic products of F-symbols with the
    legs as controls. This is the block kernel _bp_block on one column:
    amplitudes at or below the state's tolerance are dropped.
    """
    _check_bound(state, lat)
    data = data or fibonacci_data()
    c, a = _bp_block(lat, plaquette_id, state.configs, state.amps[:, None], data, state.tolerance)
    return replace(state, configs=c, amps=a[:, 0])


def ground_project(
    state: StringNetState, lat: SurfaceLattice, data: FusionData | None = None
) -> StringNetState:
    """Project onto the code space: all branching projectors, then every
    non-puncture plaquette projector (they commute). The plaquettes run
    through the loop code_space projects its seeds with (_project), on
    one column at the state's tolerance, so each drops the amplitudes at
    or below it, as apply_bp does. Not normalized."""
    _check_bound(state, lat)
    data = data or fibonacci_data()
    keep = valid_mask(lat, state.configs, data)
    c, a = _project(lat, state.configs[keep], state.amps[keep, None], data, state.tolerance)
    return replace(state, configs=c, amps=a[:, 0])


def _project(
    lat: SurfaceLattice, configs: np.ndarray, amps: np.ndarray, data: FusionData, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """A block of states (configs x columns, one sorted support) pushed
    through every non-puncture plaquette projector, each once (_bp_block)."""
    for v in lat.plaquette_vertices():
        if v not in lat.punctures:
            configs, amps = _bp_block(lat, v, configs, amps, data, tol)
    return configs, amps


def inner(a: StringNetState, b: StringNetState) -> complex:
    """Hermitian inner product <a|b> over sparse supports."""
    if a.lattice_version != b.lattice_version or a.sig_key != b.sig_key:
        raise VersionError("inner product requires states on the same lattice version")
    if len(a.configs) == 0 or len(b.configs) == 0:
        return 0.0 + 0.0j
    # configs are sorted and unique, so the matched pairs come out in
    # config order, as from a sorted-set intersection
    at, hit = _locate(b.configs, a.configs)
    hit = np.flatnonzero(hit)
    return complex(np.sum(np.conj(a.amps[hit]) * b.amps[at[hit]]))


def _filter_block(
    lat: SurfaceLattice, basis: list[StringNetState], configs: np.ndarray, amps: np.ndarray, tol: float
) -> None:
    """Gram-Schmidt filter over a projected block (configs x columns):
    append to basis, in column order, each column p whose weight outside
    the basis so far, |p|^2 - sum |<b|p>|^2, is above tol * |p|^2.

    Each basis state is found once on the block's configs (_locate, as
    inner does). The exact test of a column sums each overlap's products
    over the configs both hold, in config order, as inner does; a kept
    column has all its overlaps subtracted in one make_state, and the
    remainder is normalised.

    A block of several columns first screens every column it has not
    passed yet: the basis states' amplitudes are scattered into rows over
    the block's configs, one einsum (no BLAS call, no gathered copy of
    the block) takes each column's overlaps with them, and the screened
    residual is its weight minus their squares. Only a column whose
    screened residual is above (tol / 2 - slack) * its weight gets the
    exact test; the first one kept joins the basis, its overlaps are
    taken off the later columns' residuals, and the screen goes on from
    the next column. Both ways of summing an overlap are within about
    (rows + 2) * eps * |b| * |p| of the true one, and slack, 4 * (basis +
    1) * (rows + basis + 2) * eps, is about twice what the rounding of
    both residuals can add up to; so a column the screen passes by is
    one the exact test would drop, and every basis is the same bit for
    bit. With tol below 2 * slack the screen passes by nothing.
    """

    def on_block(b: StringNetState) -> tuple[np.ndarray, np.ndarray]:
        at, hit = _locate(configs, b.configs)
        return at[hit], b.amps[hit]

    def kept(p: np.ndarray) -> bool:
        index.extend(on_block(b) for b in basis[len(index) :])
        c = np.zeros(len(basis), dtype=np.complex128)
        for k, (at, b_amps) in enumerate(index):
            mine = p[at]
            hit = mine != 0
            c[k] = np.sum(np.conj(b_amps[hit]) * mine[hit])
        rows = np.flatnonzero(p)
        weight = float(np.sum(np.abs(p[rows]) ** 2))
        if weight - float(np.sum(np.abs(c) ** 2)) <= tol * weight:
            return False
        r = make_state(
            lat,
            np.concatenate([configs[rows], *(b.configs for b in basis)]),
            np.concatenate([p[rows], *(-cb * b.amps for cb, b in zip(c, basis))]),
        )
        basis.append(replace(r, amps=r.amps / r.norm()))
        return True

    if len(configs) == 0:  # every seed projected to 0
        return
    index: list[tuple[np.ndarray, np.ndarray]] = []  # per basis state: block rows, amplitudes
    n_cols = amps.shape[1]
    if n_cols == 1:
        kept(amps[:, 0])
        return
    weight = np.einsum("rc,rc->c", amps.real, amps.real) + np.einsum("rc,rc->c", amps.imag, amps.imag)
    resid = weight.copy()
    col = screened = 0  # the first column not passed yet; basis states taken off resid
    while col < n_cols:
        index.extend(on_block(b) for b in basis[len(index) :])
        on_rows = np.zeros((len(basis) - screened, len(configs)), dtype=np.complex128)
        for row, (at, b_amps) in zip(on_rows, index[screened:]):
            row[at] = np.conj(b_amps)
        over = np.einsum("kr,rc->kc", on_rows, amps[:, col:])
        resid[col:] -= np.einsum("kc,kc->c", over.real, over.real) + np.einsum("kc,kc->c", over.imag, over.imag)
        screened = len(basis)
        slack = 4 * (len(basis) + 1) * (len(configs) + len(basis) + 2) * np.finfo(float).eps
        ahead = col + np.flatnonzero(resid[col:] > (0.5 * tol - slack) * weight[col:])
        col = n_cols
        for j in ahead.tolist():
            if kept(amps[:, j]):
                col = j + 1
                break


def code_space(
    lat: SurfaceLattice,
    data: FusionData | None = None,
    tol: float = 1e-8,
    max_edges: int = 30,
    max_seeds: int = 24,
) -> list[StringNetState]:
    """Orthonormal basis of the code space, by seeded projection: the one
    basis builder (gadgets.logical_action's default basis is this one).

    The seeds are delta states on every valid config (when there are at
    most 1024) or on a deterministic spread of max_seeds of them, in
    config order. They are ground-projected in blocks: a block is a
    sorted support shared by its seeds and one amplitude column per
    seed. Valid seeds pass every branching projector, so a block only
    goes once through the plaquette loop ground_project runs (_project),
    at the tolerance of a delta state; each column is the seed's own
    ground_project up to the rounding of its sums. SEED_BLOCK bounds a
    block's (configs x seeds) amplitudes, the kernel's per-term arrays
    do not grow with the seed count: a block holds at most
    max(SEED_BLOCK // valid configs, 1) seeds, so the 2x2 torus (175
    valid configs) and lattices of 2250 valid configs project all their
    seeds in one block, and a lattice with more than SEED_BLOCK // 2
    valid configs projects one seed at a time.

    A projected seed p joins the basis unless its weight outside the
    basis so far, |p|^2 - sum |<b|p>|^2, is at most tol * |p|^2;
    otherwise all its overlaps are subtracted in one make_state and the
    remainder is normalised (_filter_block). A block of several seeds is
    screened first, all its columns against the basis in one einsum, and
    only a seed the screen cannot rule out gets that exact test; the
    screen leaves a margin for rounding, so it drops only seeds the test
    would drop, and the basis is the one a test of every seed gives, bit
    for bit. The spread can miss a sector, so on large lattices the
    basis may be smaller than the code space; raise max_seeds to check.
    Raises MoveError when max_seeds is below 1 or the lattice has more
    than max_edges qubits.
    """
    if max_seeds < 1:
        raise MoveError(f"max_seeds must be at least 1, got {max_seeds}")
    data = data or fibonacci_data()
    nq = len(lat.qubit_slots())
    if nq > max_edges:
        raise MoveError(f"lattice has {nq} qubits, above the dense limit {max_edges}")
    _check_width(lat)
    valid = enumerate_valid_configs(lat, data, max_qubits=max(nq, 40))
    seeds = valid if len(valid) <= 1024 else valid[:: max(len(valid) // max_seeds, 1)][:max_seeds]
    width = max(SEED_BLOCK // len(valid), 1)
    basis: list[StringNetState] = []
    for start in range(0, len(seeds), width):
        block = seeds[start : start + width]
        eye = np.eye(len(block), dtype=np.complex128)
        configs, amps = _project(lat, block, eye, data, StringNetState.tolerance)
        _filter_block(lat, basis, configs, amps, tol)
    return basis


def code_space_dim(
    lat: SurfaceLattice,
    data: FusionData | None = None,
    tol: float = 1e-8,
    max_edges: int = 30,
    max_seeds: int = 24,
) -> int:
    """Size of code_space's basis (same arguments)."""
    return len(code_space(lat, data, tol, max_edges, max_seeds))


# ---- Pachner moves on amplitudes ---------------------------------------------------


def _fmove_tables(data: FusionData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient tables of the F-move over the 5-bit key a b c d e.

    stay[key] = F[a, b, c, d, e, e] and flip[key] = F[a, b, c, d, e, 1 - e];
    runs[r, key] says whether a config with that key contributes to run r:
    0 keeps its label (nonzero stay), 1 has its e bit set and 2 cleared
    (nonzero flip with e = 0 and e = 1). Kept in data.tables (_table).
    """

    def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f = data.fsym.reshape(16, 2, 2)  # (legs a b c d, e, f)
        stay = np.stack([f[:, 0, 0], f[:, 1, 1]], axis=1).reshape(32)
        flip = np.stack([f[:, 0, 1], f[:, 1, 0]], axis=1).reshape(32)
        e = np.arange(32) & 1
        moves = np.abs(flip) > 1e-15
        runs = np.stack([np.abs(stay) > 1e-15, moves & (e == 0), moves & (e == 1)])
        for t in (stay, flip, runs):
            t.setflags(write=False)
        return stay, flip, runs

    return _table(data, "fmove", build)


def _fmove_bits(pos: dict[int, int], edge_id: int, legs: Sequence[int]) -> list[int | None]:
    """Key bits of the F-move tables (_fmove_tables) for the flip of
    edge_id with legs (a, b, c, d), pos giving each edge's config bit:
    e d c b a from bit 0 up, a pinned leg (no bit) read as 0."""
    return [pos[edge_id], *(pos.get(e) for e in reversed(legs))]


def _fmove_block(
    cfg: np.ndarray,
    amps: np.ndarray,
    bits: list[int | None],
    flag: np.uint64,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The F-move on sorted configs that hold both members of every pair
    (c, c ^ flag) they touch; bits are the key bits (_fmove_bits).

    Each config is keyed by its legs (a, b, c, d) and edge label e, and
    its two coefficients are read from the stay and flip tables. The
    nonzero terms form three runs, each already sorted because it keeps
    input order and treats one bit the same way throughout: configs that
    keep their label, configs whose e bit the move sets, and configs
    whose e bit it clears. A stable sort of sorted runs merges them
    (_runs). An output config gets at most two terms, from c and
    c ^ flag, so one indexed add onto each output's first term sums its
    second, in input order, as reduceat would.
    """
    stay, flip, run_tables = tables
    # the intp key indexes the tables without a conversion pass
    key = _key(cfg, bits)
    runs = [np.flatnonzero(t[key]) for t in run_tables]
    src = np.concatenate(runs)
    n_same, n_set = len(runs[0]), len(runs[1])
    c = cfg[src]
    c[n_same : n_same + n_set] |= flag
    c[n_same + n_set :] &= ~flag
    src_key = key[src]
    a = amps[src]
    a[:n_same] *= stay[src_key[:n_same]]
    a[n_same:] *= flip[src_key[n_same:]]
    if len(c) == 0:
        return c, a
    order, c, head = _runs(c)
    a = a[order]
    starts = np.flatnonzero(head)
    second = np.flatnonzero(~head)  # the k-th of these belongs to output second[k] - (k + 1)
    summed = a[starts]
    summed[second - np.arange(1, len(second) + 1)] += a[second]
    return _drop(c[starts], summed, tol)


def _pair_blocks(cfg: np.ndarray, ebit: int) -> Iterator[tuple[list[list[slice]], int | None]]:
    """Cut sorted configs into blocks of at most FMOVE_BLOCK that hold
    both members of every pair (c, c ^ flag), flag = 1 << ebit.

    Yields (blocks, split); a block is a list of slices of cfg whose
    concatenation is sorted. Pairs share hi = c >> (ebit + 1), so runs of
    whole hi groups make one-slice blocks, and then split is None. A hi
    group larger than a block is cut by ranges of its bits below ebit
    into (e = 0 slice, e = 1 slice) blocks, and split is the group's
    first value with the e bit set: the outputs below it, block by
    block, precede those at or above it.
    """
    n = len(cfg)
    if n <= FMOVE_BLOCK:
        yield [[slice(0, n)]], None
        return
    width = ebit + 1
    start = 0  # always the first index of a hi group
    while start < n:
        stop = start + FMOVE_BLOCK
        if stop >= n:
            yield [[slice(start, n)]], None
            return
        base = (int(cfg[stop]) >> width) << width  # cfg[stop]'s hi group begins there
        cut = start + int(np.searchsorted(cfg[start:stop], U64(base)))
        if cut > start:
            yield [[slice(start, cut)]], None
            start = cut
            continue
        # cfg[start:stop + 1] lies in one hi group: cut it by low bits
        nxt = base + (1 << width)
        end = n if nxt >> CONFIG_BITS else stop + int(np.searchsorted(cfg[stop:], U64(nxt)))
        split = base | (1 << ebit)
        mid = start + int(np.searchsorted(cfg[start:end], U64(split)))
        # every step-th low value of each slice starts a block, so a
        # block takes at most step configs from each slice
        step = max(FMOVE_BLOCK // 2, 1)
        lows = np.union1d(cfg[start:mid:step] - U64(base), cfg[mid:end:step] - U64(split))
        i0 = [*(start + np.searchsorted(cfg[start:mid], lows + U64(base))).tolist(), mid]
        i1 = [*(mid + np.searchsorted(cfg[mid:end], lows + U64(split))).tolist(), end]
        yield [
            [slice(i0[k], i0[k + 1]), slice(i1[k], i1[k + 1])] for k in range(len(lows))
        ], split
        start = end


def apply_fmove(
    state: StringNetState,
    lat: SurfaceLattice,
    edge_id: int,
    data: FusionData | None = None,
    *,
    layout: Sequence[int] | None = None,
):
    """2-2 move: rewrite the lattice and rotate the switched edge label by
    the admissible F-block controlled on the four legs.

    The move only mixes the two members of a pair (c, c ^ flag), flag the
    bit of the switched edge: an output config gets at most two terms,
    one staying and one flipped, both from its own pair. So the sorted
    configs are cut into blocks of at most FMOVE_BLOCK that hold whole
    pairs (_pair_blocks), the kernel runs on each block in cache
    (_fmove_block), and the blocks' sorted outputs are written in order
    into one result allocation of 2n entries, trimmed in place at the end.
    A one-slice block is read as a view of the state's arrays. So a move
    holds its input, its output and one block at a time. The sum of two
    doubles does not depend on their order, so the amplitudes equal
    those of one pass over the whole state, bit for bit.

    layout, which only run_schedule passes, gives the config bit that
    holds each of lat's canonical bits (bit_positions) while relabelings
    are deferred; the state's configs are then sorted in that layout,
    and so is the result.
    """
    _check_bound(state, lat)
    tables = _fmove_tables(data or fibonacci_data())
    out, rec = pachner_22(lat, edge_id)
    pos = bit_positions(lat)
    if layout is not None:
        pos = {e: layout[b] for e, b in pos.items()}
    ebit = pos[edge_id]
    bits = _fmove_bits(pos, edge_id, rec.legs)
    flag = U64(1) << U64(ebit)
    cfg, amps = state.configs, state.amps
    # a block holds whole pairs and a pair gives at most two outputs, so
    # 2n bounds the result; pages that no output reaches are never touched
    configs = np.empty(2 * len(cfg), dtype=U64)
    new_amps = np.empty(2 * len(cfg), dtype=np.complex128)

    def put(at: int, c: np.ndarray, a: np.ndarray) -> int:
        configs[at : at + len(c)] = c
        new_amps[at : at + len(a)] = a
        return at + len(c)

    m = 0  # outputs written
    for blocks, split in _pair_blocks(cfg, ebit):
        if split is None:
            for (s,) in blocks:
                m = put(m, *_fmove_block(cfg[s], amps[s], bits, flag, tables, state.tolerance))
            continue
        # a pair gives at most one output below split, so the group's
        # below halves end before m + its input size, where its above
        # halves wait until they slide down behind them (in place)
        park = top = m + blocks[-1][-1].stop - blocks[0][0].start
        for block in blocks:
            c, a = _fmove_block(
                np.concatenate([cfg[s] for s in block]),
                np.concatenate([amps[s] for s in block]),
                bits,
                flag,
                tables,
                state.tolerance,
            )
            j = int(np.searchsorted(c, U64(split)))
            m = put(m, c[:j], a[:j])
            top = put(top, c[j:], a[j:])
        m = put(m, configs[park:top], new_amps[park:top])
    # shrink in place (realloc), so the result owns exactly its entries
    configs.resize(m, refcheck=False)
    new_amps.resize(m, refcheck=False)
    return _moved(state, out, configs, new_amps)


def _pachner13_table(data: FusionData) -> np.ndarray:
    """Isometry coefficients of the 1-3 move, flat over the 6-bit key
    a b c d e f: legs (a, b, c) above, new labels (d, e, f) below.

    The split leg b is copied, a vacuum loop is prepared with weight
    d_s/D, and two recouplings attach it; the closed form per new labels
    (d, e, f) is (d_d/D) F[b,b,d,d,0,e] F[a,c,d,e,b,f], 0 where either
    F-symbol is. The 3-1 move reads the same table. Kept in data.tables
    (_table).
    """

    def build() -> np.ndarray:
        droot = np.sqrt(data.total_dim_sq)
        table = np.zeros(64, dtype=data.fsym.dtype)
        for key in range(64):
            a, b, c, d, e, f = ((key >> i) & 1 for i in range(5, -1, -1))
            f1 = data.fsym[b, b, d, d, 0, e]
            f2 = data.fsym[a, c, d, e, b, f]
            if abs(f1) >= 1e-15 and abs(f2) >= 1e-15:
                table[key] = data.qdim[d] / droot * f1 * np.conj(f2)
        table.setflags(write=False)
        return table

    return _table(data, "pachner13", build)


def apply_pachner13(
    state: StringNetState, lat: SurfaceLattice, triangle_id: int, data: FusionData | None = None
):
    """1-3 move: three new qubit edges entangled by the exact isometry.

    Each config expands into one term per nonzero table entry of its leg
    pattern, the new labels spread onto the fresh bits. The fresh bits
    are the top ones and were 0, so no two terms share a config.
    """
    _check_bound(state, lat)
    table = _pachner13_table(data or fibonacci_data())
    out, rec = pachner_13(lat, triangle_id)
    _check_width(out)
    pos_old = bit_positions(lat)
    pos_new = bit_positions(out)
    pd, pe, pf = (pos_new[e] for e in rec.new_edges)
    # key bits c b a from bit 0 up, then the 8 new-label patterns f e d
    legs = _key(state.configs, [pos_old.get(e) for e in reversed(rec.legs)])
    coeff = table.reshape(8, 8)[legs]
    src, pat = np.nonzero(coeff)
    spread = _move_bits(np.arange(8, dtype=U64), [(2, pd), (1, pe), (0, pf)])
    c = state.configs[src] | spread[pat]
    return _moved(state, out, *_coalesce(c, state.amps[src] * coeff[src, pat], state.tolerance))


def apply_pachner31(
    state: StringNetState,
    lat: SurfaceLattice,
    vertex_id: int,
    data: FusionData | None = None,
):
    """3-1 move: adjoint of the 1-3 isometry. Fails when the released
    qubits are entangled with the rest (relative weight lost above
    PACHNER31_RESIDUAL_TOL)."""
    _check_bound(state, lat)
    table = _pachner13_table(data or fibonacci_data())
    out, rec = pachner_31(lat, vertex_id)
    pos = bit_positions(lat)
    nbits = len(lat.qubit_slots())
    spoke_bits = [pos[e] for e in rec.new_edges]
    # key bits f e d (spokes) then c b a (legs) from bit 0 up
    key = _key(state.configs, [pos.get(e) for e in reversed((*rec.legs, *rec.new_edges))])
    coeff = np.conj(table[key])
    nz = np.flatnonzero(np.abs(coeff) > 1e-15)
    kept = [b for b in range(nbits) if b not in spoke_bits]
    stripped = _move_bits(state.configs[nz], ((b, j) for j, b in enumerate(kept)))
    c, a = _coalesce(stripped, state.amps[nz] * coeff[nz], state.tolerance)
    in_norm2 = float(np.sum(np.abs(state.amps) ** 2))
    out_norm2 = float(np.sum(np.abs(a) ** 2))
    if in_norm2 - out_norm2 > PACHNER31_RESIDUAL_TOL * max(in_norm2, 1.0):
        raise MoveError(
            f"3-1 at vertex {vertex_id}: released qubits are entangled "
            f"(residual weight {in_norm2 - out_norm2:.3e})"
        )
    return _moved(state, out, c, a)


def apply_state_permutation(
    state: StringNetState,
    lat: SurfaceLattice,
    vmap: dict[int, int],
    target: SurfaceLattice | None = None,
):
    """Relabel configuration bits by the relabeling of a vertex map.

    apply_cpi checks the vertex map and derives the slot map sigma;
    _defer_permutation turns sigma into a bit layout and drops the
    amplitudes below the tolerance, and _materialize moves the bits by
    one mask-and-shift per distinct shift (_move_bits). sigma is a
    bijection of qubit slots, so the relabeled configs are distinct: one
    sort orders them and nothing is merged.
    """
    out, rec = apply_cpi(lat, vmap, target=target)
    moved, layout = _defer_permutation(state, lat, out, rec.sigma, None)
    return _materialize(moved, layout), out


def _defer_permutation(
    state: StringNetState,
    lat: SurfaceLattice,
    out: SurfaceLattice,
    sigma: dict[int, int],
    layout: Sequence[int] | None,
) -> tuple[StringNetState, tuple[int, ...]]:
    """A relabeling of the state with the bit moves deferred.

    out and sigma are what apply_cpi returned for the relabeling of lat:
    the end lattice and the slot map. layout gives the config bit that
    holds each canonical bit of lat (None: bit i holds bit i). The
    configs stay where they are, bound to out, and the returned layout
    gives the bit that holds each canonical bit of out; _materialize
    moves them home. Amplitudes below the tolerance are dropped here.
    The state must be bound to lat, which must fit the config width.
    """
    _check_bound(state, lat)
    rank = {s: i for i, s in enumerate(out.qubit_slots())}
    slots = lat.qubit_slots()
    held = range(len(slots)) if layout is None else layout
    new = [0] * len(slots)
    for i, s in enumerate(slots):
        new[rank[sigma[s]]] = held[i]
    keep = np.abs(state.amps) >= state.tolerance
    if keep.all():
        return _moved(state, out, state.configs, state.amps)[0], tuple(new)
    return _moved(state, out, state.configs[keep], state.amps[keep])[0], tuple(new)


def _materialize(state: StringNetState, layout: Sequence[int] | None) -> StringNetState:
    """The state with every canonical bit moved home from the bit layout
    gives it (one _move_bits) and its configs sorted again."""
    if layout is None or all(b == i for i, b in enumerate(layout)):
        return state
    moved = _move_bits(state.configs, ((b, i) for i, b in enumerate(layout)))
    order = np.argsort(moved)
    return replace(state, configs=moved[order], amps=state.amps[order])


# ---- snapshots ---------------------------------------------------------------------


def state_to_jsonlines(state: StringNetState, lat: SurfaceLattice) -> str:
    header = {
        "lattice_version": state.lattice_version,
        "edge_count": len(lat.qubit_slots()),
        "tolerance": state.tolerance,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for cfg, amp in zip(state.configs, state.amps):
        lines.append(
            json.dumps(
                {"config": format(int(cfg), "x"), "re": float(amp.real), "im": float(amp.imag)},
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def state_from_jsonlines(text: str, lat: SurfaceLattice) -> StringNetState:
    """The state a state_to_jsonlines snapshot holds, bound to lat.
    Raises MoveError when the text has no header, the header lacks
    edge_count or tolerance, edge_count is not lat's qubit count, a
    config sets a bit at or above it (make_state), or a line is not a
    JSON object with the fields state_to_jsonlines writes."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MoveError("snapshot is empty: no header line")
    with _refusing_malformed("a state snapshot"):
        header = json.loads(lines[0])
        if not isinstance(header, dict) or not {"edge_count", "tolerance"} <= header.keys():
            raise MoveError(f"snapshot header needs edge_count and tolerance, got {lines[0]}")
        nq = len(lat.qubit_slots())
        if header["edge_count"] != nq:
            raise MoveError(f"snapshot has {header['edge_count']} qubit edges, the lattice {nq}")
        rows = [json.loads(ln) for ln in lines[1:]]
        configs = np.array([int(r["config"], 16) for r in rows], dtype=U64)
        amps = np.array([complex(r["re"], r["im"]) for r in rows], dtype=np.complex128)
        return make_state(lat, configs, amps, tolerance=float(header["tolerance"]))
