"""Sparse string-net state vectors and exact operator application.

A state is a pair of parallel arrays (configs: uint64, amps: complex128)
over branching-valid edge-label configurations, bound to a lattice
version. Bit i of a config is the label of the edge whose qubit slot id
is the i-th smallest; pinned boundary edges carry no bit and always read
the vacuum label.

All operations are pure and vectorized; big states are processed in
chunks to respect the small-memory sandbox.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .fusion import FusionData, fibonacci_data
from .lattice import (
    MoveError,
    SurfaceLattice,
    apply_cpi,
    pachner_13,
    pachner_22,
    pachner_31,
    pachner_31_roles,
)

CHUNK = 200_000
U64 = np.uint64
CONFIG_BITS = 64  # one bit per qubit slot in a uint64 config


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


def _check_version(state: StringNetState, lat: SurfaceLattice) -> None:
    if state.lattice_version != lat.version:
        raise VersionError(
            f"state bound to lattice version {state.lattice_version}, got {lat.version}"
        )


def _check_width(lat: SurfaceLattice) -> None:
    """Configs hold one bit per qubit slot; numpy reads shifts of 64 or
    more as 0, so wider lattices would silently drop labels."""
    n = sum(1 for rec in lat.edges.values() if rec.qubit is not None)
    if n > CONFIG_BITS:
        raise MoveError(f"{n} qubit slots exceed the {CONFIG_BITS}-bit config width")


def bit_positions(lat: SurfaceLattice) -> dict[int, int]:
    """edge id -> config bit index, for qubit-bearing edges."""
    slots = lat.qubit_slots()
    rank = {s: i for i, s in enumerate(slots)}
    return {e: rank[rec.qubit] for e, rec in lat.edges.items() if rec.qubit is not None}


def _labels(configs: np.ndarray, pos: dict[int, int], edge: int) -> np.ndarray:
    """Per-config label of one edge, given bit_positions; pinned edges read 0."""
    b = pos.get(edge)
    if b is None:
        return np.zeros(len(configs), dtype=np.int64)
    return ((configs >> U64(b)) & U64(1)).astype(np.int64)


def _coalesce(configs: np.ndarray, amps: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort, merge duplicate configs, drop tiny amplitudes."""
    if len(configs) == 0:
        return configs.astype(U64), amps.astype(np.complex128)
    order = np.argsort(configs, kind="stable")
    c = configs[order]
    a = amps[order]
    head = np.empty(len(c), dtype=bool)
    head[0] = True
    np.not_equal(c[1:], c[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    summed = np.add.reduceat(a, starts)
    uniq = c[starts]
    keep = np.abs(summed) >= tol
    return uniq[keep], summed[keep]


def make_state(
    lat: SurfaceLattice,
    configs: np.ndarray,
    amps: np.ndarray,
    tolerance: float = 1e-14,
) -> StringNetState:
    _check_width(lat)
    c, a = _coalesce(np.asarray(configs, dtype=U64), np.asarray(amps, dtype=np.complex128), tolerance)
    return StringNetState(
        lattice_version=lat.version,
        sig_key=_sig_key(lat),
        configs=c,
        amps=a,
        tolerance=tolerance,
    )


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
    """Per-triangle (bit position or None) triples, sorted by triangle id."""
    pos = bit_positions(lat)
    out = []
    for t, es in sorted(lat.triangles.items()):
        out.append(tuple(pos.get(e) for e in es))
    return out


def valid_mask(lat: SurfaceLattice, configs: np.ndarray, data: FusionData | None = None) -> np.ndarray:
    """Branching validity of each config at every dual vertex."""
    data = data or fibonacci_data()
    flat = data.branching.reshape(-1)
    ok = np.ones(len(configs), dtype=bool)
    for bits in _triangle_bits(lat):
        idx = np.zeros(len(configs), dtype=np.int64)
        for b in bits:
            lab = ((configs >> U64(b)) & U64(1)).astype(np.int64) if b is not None else 0
            idx = (idx << 1) | lab
        ok &= flat[idx]
    return ok


def enumerate_valid_configs(
    lat: SurfaceLattice, data: FusionData | None = None, max_qubits: int = 40
) -> np.ndarray:
    """All branching-valid configs, by constraint propagation over the
    triangle list (builder ordering keeps the frontier small)."""
    data = data or fibonacci_data()
    nbits = len(lat.qubit_slots())
    if nbits > max_qubits:
        raise MoveError(f"{nbits} qubit edges exceed the enumeration guard ({max_qubits})")
    flat = data.branching.reshape(-1)

    configs = np.zeros(1, dtype=U64)
    seen: set[int] = set()
    for bits in _triangle_bits(lat):
        fresh = sorted({b for b in bits if b is not None and b not in seen})
        if fresh:
            pats = np.arange(1 << len(fresh), dtype=U64)
            grow = np.zeros(len(pats), dtype=U64)
            for j, b in enumerate(fresh):
                grow |= ((pats >> U64(j)) & U64(1)) << U64(b)
            configs = (configs[:, None] | grow[None, :]).ravel()
            seen.update(fresh)
        idx = np.zeros(len(configs), dtype=np.int64)
        for b in bits:
            lab = ((configs >> U64(b)) & U64(1)).astype(np.int64) if b is not None else 0
            idx = (idx << 1) | lab
        configs = configs[flat[idx]]
    rest = sorted(set(range(nbits)) - seen)
    for b in rest:  # edges not on any triangle (does not occur in shipped builders)
        configs = np.concatenate([configs, configs | (U64(1) << U64(b))])
    configs.sort()
    return configs


def uniform_state(lat: SurfaceLattice, data: FusionData | None = None) -> StringNetState:
    configs = enumerate_valid_configs(lat, data)
    amps = np.full(len(configs), 1.0 / np.sqrt(len(configs)), dtype=np.complex128)
    return make_state(lat, configs, amps)


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
    _check_version(state, lat)
    data = data or fibonacci_data()
    if dual_vertex_id not in lat.triangles:
        raise MoveError(f"no dual vertex {dual_vertex_id}")
    pos = bit_positions(lat)
    idx = np.zeros(len(state.configs), dtype=np.int64)
    for e in lat.triangles[dual_vertex_id]:
        b = pos.get(e)
        lab = ((state.configs >> U64(b)) & U64(1)).astype(np.int64) if b is not None else 0
        idx = (idx << 1) | lab
    keep = data.branching.reshape(-1)[idx]
    return replace(state, configs=state.configs[keep], amps=state.amps[keep])


def _bp_plaquette_ctx(lat: SurfaceLattice, vertex: int, data: FusionData):
    plq = lat.plaquette(vertex)
    if plq is None:
        raise MoveError(f"vertex {vertex} has no closed plaquette")
    pos = bit_positions(lat)
    n = len(plq.boundary)
    bpos = [pos[e] for e in plq.boundary]  # boundary edges always carry qubits here
    lpos = [pos.get(e) for e in plq.legs]
    mask = U64(0)
    for b in bpos:
        mask |= U64(1) << U64(b)
    spread = np.zeros(1 << n, dtype=U64)
    pats = np.arange(1 << n, dtype=U64)
    for i, b in enumerate(bpos):
        spread |= ((pats >> U64(i)) & U64(1)) << U64(b)
    return plq, n, bpos, lpos, mask, spread


_BP_MATS: dict[tuple, np.ndarray] = {}


def _bp_matrix(data: FusionData, n: int, lkey: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix over boundary patterns for one leg pattern.

    Entry [out, in] is sum_s (d_s/D^2) prod_i F[leg_i, in_i, s, out_{i+1},
    in_{i+1}, out_i], indices cyclic in i. The block is built as a
    (2,)*2n array with one axis per boundary bit, outputs then inputs,
    each most significant bit first, so a C-order reshape gives the
    pattern integers. Per s, the n factors F[leg_i, :, s] are broadcast
    onto the four bit axes each touches and multiplied in, i = 0 .. n-1.
    """
    fp = hash(data.fsym.tobytes())
    key = (fp, n, lkey)
    mat = _BP_MATS.get(key)
    if mat is None:
        if len(_BP_MATS) > 512:
            _BP_MATS.clear()
        dim = 1 << n
        out_ax = [n - 1 - i for i in range(n)]
        in_ax = [2 * n - 1 - i for i in range(n)]
        mat = np.zeros((dim, dim))
        for s in range(data.num_labels):
            prod = np.ones((2,) * (2 * n))
            for i in range(n):
                j = (i + 1) % n
                axes = (in_ax[i], out_ax[j], in_ax[j], out_ax[i])  # axes of fac
                fac = data.fsym[(lkey >> i) & 1, :, s]
                shape = [1] * (2 * n)
                for a in axes:
                    shape[a] = 2
                prod *= fac.transpose(np.argsort(axes)).reshape(shape)
            prod *= data.qdim[s] / data.total_dim_sq
            mat += prod.reshape(dim, dim)
        mat.setflags(write=False)
        _BP_MATS[key] = mat
    return mat


def apply_bp(
    state: StringNetState, lat: SurfaceLattice, plaquette_id: int, data: FusionData | None = None
) -> StringNetState:
    """Plaquette projector B_p = sum_s (d_s/D^2) B_p^s at an interior
    primal vertex; coefficients are cyclic products of F-symbols with the
    legs as controls.

    Configs sharing all non-boundary bits form closed blocks; each block
    is hit with a dense 2^n matrix picked by its (frozen) leg labels, so
    no duplicate outputs arise and no coalescing pass is needed. Each
    matrix is built once per (category, n, leg pattern) as a broadcast
    product of the n F-factors over the 2n boundary bits (_bp_matrix).
    """
    _check_version(state, lat)
    data = data or fibonacci_data()
    if plaquette_id in lat.punctures:
        raise MoveError(f"plaquette {plaquette_id} is a puncture")
    plq, n, bpos, lpos, mask, spread = _bp_plaquette_ctx(lat, plaquette_id, data)
    if n > 14:
        raise MoveError(f"plaquette {plaquette_id} has {n} boundary edges; dense block too large")
    if len(state.configs) == 0:
        return state

    cfg = state.configs
    amp = state.amps
    rest = cfg & ~mask
    ekey = np.zeros(len(cfg), dtype=np.int64)
    for i, b in enumerate(bpos):
        ekey |= ((cfg >> U64(b)) & U64(1)).astype(np.int64) << i

    order = np.argsort(rest, kind="stable")
    rest_s = rest[order]
    new_block = np.concatenate(([True], rest_s[1:] != rest_s[:-1]))
    starts = np.flatnonzero(new_block)
    ends = np.concatenate((starts[1:], [len(cfg)]))
    nblocks = len(starts)
    block_rest = rest_s[starts]
    block_id = np.cumsum(new_block) - 1
    first = cfg[order[starts]]
    lkeys = np.zeros(nblocks, dtype=np.int64)
    for i, b in enumerate(lpos):
        if b is None:
            continue  # pinned leg: control fixed to the vacuum label
        lkeys |= ((first >> U64(b)) & U64(1)).astype(np.int64) << i

    dim = 1 << n
    col_order = np.argsort(spread, kind="stable")  # emit outputs in config order
    out_c = []
    out_a = []
    bgroup = max(1, (CHUNK * 16) // dim)
    for lo in range(0, nblocks, bgroup):
        hi = min(nblocks, lo + bgroup)
        i0, i1 = starts[lo], ends[hi - 1]
        rows_local = block_id[i0:i1] - lo
        sel = order[i0:i1]
        gathered = np.zeros((hi - lo, dim), dtype=np.complex128)
        gathered[rows_local, ekey[sel]] = amp[sel]
        hit = np.empty_like(gathered)
        lk = lkeys[lo:hi]
        for l in np.unique(lk):
            mat = _bp_matrix(data, n, int(l))
            rs = np.flatnonzero(lk == l)
            hit[rs] = gathered[rs] @ mat.T
        hit = hit[:, col_order]
        nzb, nzj = np.nonzero(np.abs(hit) > state.tolerance)
        out_c.append(block_rest[lo:hi][nzb] | spread[col_order[nzj]])
        out_a.append(hit[nzb, nzj])
    c = np.concatenate(out_c) if out_c else np.array([], dtype=U64)
    a = np.concatenate(out_a) if out_a else np.array([], dtype=np.complex128)
    # outputs run in (rest, boundary pattern) order; rest and boundary bits
    # interleave, so one sort restores increasing configs
    srt = np.argsort(c)
    return replace(state, configs=c[srt], amps=a[srt])


def ground_project(
    state: StringNetState, lat: SurfaceLattice, data: FusionData | None = None
) -> StringNetState:
    """Project onto the code space: all branching projectors, then every
    non-puncture plaquette projector (they commute). Not normalized."""
    _check_version(state, lat)
    data = data or fibonacci_data()
    keep = valid_mask(lat, state.configs, data)
    cur = replace(state, configs=state.configs[keep], amps=state.amps[keep])
    for v in lat.plaquette_vertices():
        if v in lat.punctures:
            continue
        cur = apply_bp(cur, lat, v, data)
    return cur


def inner(a: StringNetState, b: StringNetState) -> complex:
    """Hermitian inner product <a|b> over sparse supports."""
    if a.lattice_version != b.lattice_version or a.sig_key != b.sig_key:
        raise VersionError("inner product requires states on the same lattice version")
    if len(a.configs) == 0 or len(b.configs) == 0:
        return 0.0 + 0.0j
    # configs are sorted and unique, so the matched pairs come out in
    # config order, as from a sorted-set intersection
    at = np.searchsorted(b.configs, a.configs)
    at[at == len(b.configs)] = 0
    hit = np.flatnonzero(b.configs[at] == a.configs)
    return complex(np.sum(np.conj(a.amps[hit]) * b.amps[at[hit]]))


def code_space_dim(
    lat: SurfaceLattice,
    data: FusionData | None = None,
    tol: float = 1e-8,
    max_edges: int = 30,
    max_seeds: int = 24,
) -> int:
    """Numerical rank of the Gram matrix of ground-projected seeds.

    Small lattices use every valid config as a seed (exact); larger ones
    use a deterministic spread of seeds. The projected seeds are scattered
    into one dense (seeds x union of supports) array, so the Gram matrix
    is a single product.
    """
    data = data or fibonacci_data()
    nq = len(lat.qubit_slots())
    if nq > max_edges:
        raise MoveError(f"{nq} qubit edges exceed the code_space_dim guard ({max_edges})")
    configs = enumerate_valid_configs(lat, data, max_qubits=max(nq, 40))
    if len(configs) <= 1024:
        seeds = configs
    else:
        step = len(configs) // max_seeds
        seeds = configs[:: max(step, 1)][:max_seeds]
    projected = []
    for cfg in seeds:
        st = ground_project(make_delta_state(lat, int(cfg)), lat, data)
        if st.norm() > 1e-13:
            projected.append(st)
    if not projected:
        return 0
    union = np.unique(np.concatenate([st.configs for st in projected]))
    a = np.zeros((len(projected), len(union)), dtype=np.complex128)
    for i, st in enumerate(projected):
        a[i, np.searchsorted(union, st.configs)] = st.amps
    g = a.conj() @ a.T
    evals = np.linalg.eigvalsh(g)
    top = evals[-1]
    if top <= tol:
        return 0
    return int(np.sum(evals > tol * max(top, 1.0)))


# ---- Pachner moves on amplitudes ---------------------------------------------------


def apply_fmove(
    state: StringNetState, lat: SurfaceLattice, edge_id: int, data: FusionData | None = None
):
    """2-2 move: rewrite the lattice and rotate the switched edge label by
    the admissible F-block controlled on the four legs."""
    _check_version(state, lat)
    _check_width(lat)
    data = data or fibonacci_data()
    out, rec = pachner_22(lat, edge_id)
    pos = bit_positions(lat)
    la, lb, lc, ld = (_labels(state.configs, pos, e) for e in rec.legs)
    ebit = pos[edge_id]
    le = _labels(state.configs, pos, edge_id)
    pieces_c = []
    pieces_a = []
    for f in range(data.num_labels):
        coeff = data.fsym[la, lb, lc, ld, le, f]
        nz = np.flatnonzero(np.abs(coeff) > 1e-15)
        if len(nz) == 0:
            continue
        cleared = state.configs[nz] & ~(U64(1) << U64(ebit))
        pieces_c.append(cleared | (U64(f) << U64(ebit)))
        pieces_a.append(state.amps[nz] * coeff[nz])
    if pieces_c:
        c, a = _coalesce(np.concatenate(pieces_c), np.concatenate(pieces_a), state.tolerance)
    else:
        c, a = np.array([], dtype=U64), np.array([], dtype=np.complex128)
    new_state = StringNetState(
        lattice_version=out.version,
        sig_key=_sig_key(out),
        configs=c,
        amps=a,
        tolerance=state.tolerance,
    )
    return new_state, out


def _pachner13_coeffs(data: FusionData, la: int, lb: int, lc: int):
    """(d, e, f) labels and isometry coefficients for one leg pattern.

    The split leg b is copied, a vacuum loop is prepared with weight
    d_s/D, and two recouplings attach it; the closed form per new labels
    (d, e, f) is (d_d/D) F[b,b,d,d,0,e] F[a,c,d,e,b,f].
    """
    out = []
    droot = np.sqrt(data.total_dim_sq)
    for d in range(data.num_labels):
        for e in range(data.num_labels):
            f1 = data.fsym[lb, lb, d, d, 0, e]
            if abs(f1) < 1e-15:
                continue
            for f in range(data.num_labels):
                f2 = data.fsym[la, lc, d, e, lb, f]
                if abs(f2) < 1e-15:
                    continue
                out.append((d, e, f, data.qdim[d] / droot * f1 * np.conj(f2)))
    return out


def apply_pachner13(
    state: StringNetState, lat: SurfaceLattice, triangle_id: int, data: FusionData | None = None
):
    """1-3 move: three new qubit edges entangled by the exact isometry."""
    _check_version(state, lat)
    data = data or fibonacci_data()
    out, rec = pachner_13(lat, triangle_id)
    _check_width(out)
    pos_old = bit_positions(lat)
    pos_new = bit_positions(out)
    pd, pe, pf = (pos_new[e] for e in rec.new_edges)
    la, lb, lc = (_labels(state.configs, pos_old, e) for e in rec.legs)
    key = (la << 2) | (lb << 1) | lc
    pieces_c = []
    pieces_a = []
    for pat in np.unique(key):
        sel = np.flatnonzero(key == pat)
        terms = _pachner13_coeffs(data, (pat >> 2) & 1, (pat >> 1) & 1, pat & 1)
        for d, e, f, coeff in terms:
            add = (U64(d) << U64(pd)) | (U64(e) << U64(pe)) | (U64(f) << U64(pf))
            pieces_c.append(state.configs[sel] | add)
            pieces_a.append(state.amps[sel] * coeff)
    if pieces_c:
        c, a = _coalesce(np.concatenate(pieces_c), np.concatenate(pieces_a), state.tolerance)
    else:
        c, a = np.array([], dtype=U64), np.array([], dtype=np.complex128)
    new_state = StringNetState(
        lattice_version=out.version,
        sig_key=_sig_key(out),
        configs=c,
        amps=a,
        tolerance=state.tolerance,
    )
    return new_state, out


def _drop_bits(configs: np.ndarray, nbits: int, drop: list[int]) -> np.ndarray:
    """Compact configs by removing the given bit positions."""
    keep = [b for b in range(nbits) if b not in set(drop)]
    out = np.zeros(len(configs), dtype=U64)
    for j, b in enumerate(keep):
        out |= ((configs >> U64(b)) & U64(1)) << U64(j)
    return out


def apply_pachner31(
    state: StringNetState,
    lat: SurfaceLattice,
    vertex_id: int,
    data: FusionData | None = None,
    residual_tol: float = 1e-10,
):
    """3-1 move: adjoint of the 1-3 isometry. Fails when the released
    qubits are entangled with the rest (weight lost above residual_tol)."""
    _check_version(state, lat)
    data = data or fibonacci_data()
    tris, legs, spokes = pachner_31_roles(lat, vertex_id)
    pos = bit_positions(lat)
    nbits = len(lat.qubit_slots())
    pd, pe, pf = (pos[e] for e in spokes)
    la, lb, lc = (_labels(state.configs, pos, e) for e in legs)
    ldl, lel, lfl = (_labels(state.configs, pos, e) for e in spokes)
    key = (la << 5) | (lb << 4) | (lc << 3) | (ldl << 2) | (lel << 1) | lfl

    coeff = np.zeros(len(state.configs))
    for pat in np.unique(key):
        sel = key == pat
        terms = _pachner13_coeffs(data, (pat >> 5) & 1, (pat >> 4) & 1, (pat >> 3) & 1)
        want = ((pat >> 2) & 1, (pat >> 1) & 1, pat & 1)
        for d, e, f, cf in terms:
            if (d, e, f) == want:
                coeff[sel] = np.conj(cf)
                break
    nz = np.flatnonzero(np.abs(coeff) > 1e-15)
    stripped = _drop_bits(state.configs[nz], nbits, [pd, pe, pf])
    c, a = _coalesce(stripped, state.amps[nz] * coeff[nz], state.tolerance)

    out, _rec = pachner_31(lat, vertex_id)
    in_norm2 = float(np.sum(np.abs(state.amps) ** 2))
    out_norm2 = float(np.sum(np.abs(a) ** 2))
    if in_norm2 - out_norm2 > residual_tol * max(in_norm2, 1.0):
        raise MoveError(
            f"3-1 at vertex {vertex_id}: released qubits are entangled "
            f"(residual weight {in_norm2 - out_norm2:.3e})"
        )
    new_state = StringNetState(
        lattice_version=out.version,
        sig_key=_sig_key(out),
        configs=c,
        amps=a,
        tolerance=state.tolerance,
    )
    return new_state, out


def apply_state_permutation(
    state: StringNetState,
    lat: SurfaceLattice,
    sigma: dict[int, int],
    target: SurfaceLattice | None = None,
):
    """Relabel configuration bits by an accepted qubit permutation."""
    _check_version(state, lat)
    _check_width(lat)
    out, rec = apply_cpi(lat, sigma, target=target)
    tgt = target if target is not None else lat
    src_slots = lat.qubit_slots()
    tgt_slots = tgt.qubit_slots()
    tgt_rank = {s: i for i, s in enumerate(tgt_slots)}
    full = rec.sigma or {}
    new_configs = np.zeros(len(state.configs), dtype=U64)
    for i, s in enumerate(src_slots):
        j = tgt_rank[full.get(s, s)]
        new_configs |= ((state.configs >> U64(i)) & U64(1)) << U64(j)
    c, a = _coalesce(new_configs, state.amps.copy(), state.tolerance)
    new_state = StringNetState(
        lattice_version=out.version,
        sig_key=_sig_key(out),
        configs=c,
        amps=a,
        tolerance=state.tolerance,
    )
    return new_state, out


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = json.loads(lines[0])
    configs = np.array([int(json.loads(ln)["config"], 16) for ln in lines[1:]], dtype=U64)
    amps = np.array(
        [complex(json.loads(ln)["re"], json.loads(ln)["im"]) for ln in lines[1:]],
        dtype=np.complex128,
    )
    st = make_state(lat, configs, amps, tolerance=float(header["tolerance"]))
    if header["lattice_version"] != lat.version:
        st = replace(st, lattice_version=int(header["lattice_version"]))
    return st
