"""Amplitude layer: projectors, Pachner isometries, permutations, snapshots.

The plaquette tests compare the vectorized operator against a dense matrix
rebuilt here with plain loops straight from the fan product formula, so the
two implementations share no code beyond the F-symbol table itself.
"""

import functools
import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from tvq.fusion import FusionData, fibonacci_data, trivial_data
from tvq.gadgets import PERMUTATION, MoveSchedule, baseline_schedule, braid_schedule, run_schedule
from tvq.lattice import (
    Edge,
    MoveError,
    apply_cpi,
    build_honeycomb_torus,
    build_planar_patch,
    build_tetra_sphere,
    build_theta_sphere,
    pachner_13,
    pachner_22,
    polar_vertex_id,
    replace_lattice,
)
from tvq import statevec
from tvq.statevec import (
    StringNetState,
    VersionError,
    _bp_block,
    _bp_tables,
    _key,
    _materialize,
    _move_bits,
    _pair_blocks,
    apply_bp,
    apply_fmove,
    apply_pachner13,
    apply_pachner31,
    apply_qv,
    apply_state_permutation,
    bit_positions,
    code_space_dim,
    enumerate_valid_configs,
    ground_project,
    inner,
    make_delta_state,
    make_state,
    random_valid_state,
    rebind_state,
    state_from_jsonlines,
    state_to_jsonlines,
    uniform_state,
    valid_mask,
)

PHI = 1.618033988749895
INV_D = 0.5257311121191336  # 1/sqrt(2 + PHI)
INV_D2 = 0.27639320225002106
INV_PHI = 0.6180339887498949
INV_SQRT_PHI = 0.7861513777574233

DATA = fibonacci_data()

# 1-3 subdivision coefficients for each admissible leg pattern (a, b, c),
# worked out by hand from the two-recoupling closed form; keys are the new
# labels (d, e, f), values carry the 1/D normalization already.
SUBDIVISION_TABLE = {
    (0, 0, 0): {(0, 0, 0): 0.5257311121191336, (1, 1, 1): 0.85065080835204},
    (1, 1, 0): {(0, 1, 0): INV_D, (1, 0, 1): INV_D, (1, 1, 1): 0.6687403049764221},
    (0, 1, 1): {(0, 1, 1): INV_D, (1, 0, 0): INV_D, (1, 1, 1): 0.6687403049764221},
    (1, 0, 1): {(0, 0, 1): INV_D, (1, 1, 0): INV_D, (1, 1, 1): 0.6687403049764221},
    (1, 1, 1): {
        (0, 1, 1): INV_D,
        (1, 0, 1): INV_D,
        (1, 1, 0): INV_D,
        (1, 1, 1): -0.41330423812239925,
    },
}


def amp_diff(a, b):
    """Largest amplitude difference over the union of supports."""
    assert a.lattice_version == b.lattice_version
    lut = {int(c): amp for c, amp in zip(a.configs, a.amps)}
    worst = 0.0
    for c, amp in zip(b.configs, b.amps):
        worst = max(worst, abs(lut.pop(int(c), 0.0) - amp))
    for amp in lut.values():
        worst = max(worst, abs(amp))
    return worst


def dense(state, basis):
    index = {int(c): i for i, c in enumerate(basis)}
    vec = np.zeros(len(basis), dtype=np.complex128)
    for cfg, amp in zip(state.configs, state.amps):
        vec[index[int(cfg)]] = amp
    return vec


def bp_oracle_matrix(lat, vertex, basis):
    """Plaquette projector as a dense matrix on the branching-valid span."""
    plq = lat.plaquette(vertex)
    pos = bit_positions(lat)
    n = len(plq.boundary)
    bpos = [pos[e] for e in plq.boundary]
    lpos = [pos.get(e) for e in plq.legs]
    index = {int(c): i for i, c in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for ci, cin in enumerate(int(c) for c in basis):
        legs = [0 if b is None else (cin >> b) & 1 for b in lpos]
        ein = [(cin >> b) & 1 for b in bpos]
        for pat in range(1 << n):
            eout = [(pat >> i) & 1 for i in range(n)]
            val = 0.0
            for s in range(DATA.num_labels):
                prod = DATA.qdim[s] / DATA.total_dim_sq
                for i in range(n):
                    prod *= DATA.fsym[
                        legs[i], ein[i], s, eout[(i + 1) % n], ein[(i + 1) % n], eout[i]
                    ]
                val += prod
            if abs(val) < 1e-14:
                continue
            cout = cin
            for i, b in enumerate(bpos):
                cout = (cout & ~(1 << b)) | (eout[i] << b)
            # the plaquette operator never leaves the branching-valid span
            assert cout in index
            mat[index[cout], ci] += val
    return mat


@pytest.fixture(scope="module")
def theta():
    return build_theta_sphere()


@pytest.fixture(scope="module")
def tetra():
    return build_tetra_sphere()


@pytest.fixture(scope="module")
def torus():
    return build_honeycomb_torus(2, 2)


# ---- enumeration -------------------------------------------------------------------


def test_theta_valid_configs(theta):
    assert enumerate_valid_configs(theta).tolist() == [0, 3, 5, 6, 7]


def test_torus_enumeration_matches_brute_force(torus):
    ok = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
    pos = bit_positions(torus)
    brute = []
    for cfg in range(1 << 12):
        good = True
        for es in torus.triangles.values():
            labs = tuple((cfg >> pos[e]) & 1 for e in es)
            if labs not in ok:
                good = False
                break
        if good:
            brute.append(cfg)
    got = enumerate_valid_configs(torus)
    assert got.tolist() == brute
    assert len(got) == 175


def test_enumeration_guard():
    lat = build_planar_patch(4, 6)  # 48 qubit edges
    with pytest.raises(MoveError):
        enumerate_valid_configs(lat)


# ---- vertex projector --------------------------------------------------------------


def test_qv_filters_to_branching_set(theta):
    all8 = np.arange(8, dtype=np.uint64)
    st = make_state(theta, all8, np.full(8, np.sqrt(1 / 8), dtype=np.complex128))
    for t in theta.triangles:
        st = apply_qv(st, theta, t)
    assert st.configs.tolist() == [0, 3, 5, 6, 7]
    again = apply_qv(st, theta, 0)
    assert amp_diff(st, again) < 1e-14


@settings(max_examples=32, deadline=None)
@given(st_.integers(min_value=0, max_value=7))
def test_qv_projector_on_basis_states(cfg):
    theta = build_theta_sphere()
    st = apply_qv(make_delta_state(theta, cfg), theta, 0)
    if cfg in (0, 3, 5, 6, 7):
        assert st.configs.tolist() == [cfg]
    else:
        assert len(st.configs) == 0


# ---- plaquette projector vs dense oracle -------------------------------------------


def test_plaquette_matrix_is_projector_family(torus):
    basis = enumerate_valid_configs(torus)
    mats = [bp_oracle_matrix(torus, v, basis) for v in torus.plaquette_vertices()]
    for m in mats:
        assert np.max(np.abs(m - m.T)) < 1e-12
        assert np.max(np.abs(m @ m - m)) < 1e-12
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) < 1e-12


def test_apply_bp_matches_oracle(torus):
    basis = enumerate_valid_configs(torus)
    rng = np.random.default_rng(7)
    for v in torus.plaquette_vertices():
        mat = bp_oracle_matrix(torus, v, basis)
        for _ in range(3):
            st = random_valid_state(torus, rng)
            got = dense(apply_bp(st, torus, v), basis)
            assert np.max(np.abs(got - mat @ dense(st, basis))) < 1e-10


def test_bp_projector_identities(torus):
    rng = np.random.default_rng(11)
    verts = torus.plaquette_vertices()
    for _ in range(3):
        st = random_valid_state(torus, rng)
        once = apply_bp(st, torus, verts[0])
        twice = apply_bp(once, torus, verts[0])
        assert amp_diff(once, twice) < 1e-12
        ab = apply_bp(apply_bp(st, torus, verts[0]), torus, verts[1])
        ba = apply_bp(apply_bp(st, torus, verts[1]), torus, verts[0])
        assert amp_diff(ab, ba) < 1e-12
        # diagonal and plaquette projectors commute as well
        qb = apply_qv(apply_bp(st, torus, verts[0]), torus, 0)
        bq = apply_bp(apply_qv(st, torus, 0), torus, verts[0])
        assert amp_diff(qb, bq) < 1e-12


def test_bp_output_configs_strictly_increasing(theta, torus):
    # boundary and other bits interleave, so block-by-block output order is
    # not config order; inner and the Gram matrix rely on sorted configs
    for lat in (theta, torus):
        st = random_valid_state(lat, np.random.default_rng(8))
        for v in lat.plaquette_vertices():
            out = apply_bp(st, lat, v)
            assert len(out.configs) > 1
            assert np.all(out.configs[1:] > out.configs[:-1])
        g = ground_project(st, lat)
        assert np.all(g.configs[1:] > g.configs[:-1])


def test_bp_vacuum_expectation(theta, torus):
    for lat in (theta, torus):
        st = make_delta_state(lat, 0)
        v = lat.plaquette_vertices()[0]
        val = inner(st, apply_bp(st, lat, v))
        assert abs(val - INV_D2) < 1e-12


def test_bp_rejects_punctures_and_stale_states(torus):
    patch = build_planar_patch(3, 4, punctures=[(0, 0)])
    stp = make_delta_state(patch, 0)
    with pytest.raises(MoveError):
        apply_bp(stp, patch, 0)  # vertex 0 is the puncture
    st = make_delta_state(torus, 0)
    moved, _ = pachner_22(torus, 0)
    with pytest.raises(VersionError):
        apply_bp(st, moved, moved.plaquette_vertices()[0])


# ---- ground space ------------------------------------------------------------------


def bp_block_reference(n, lkey, data=DATA):
    """Plaquette block by explicit loops over s and the n factors, in the
    kernel's product order, vectorized only over the (out, in) entries."""
    out = np.arange(1 << n)[:, None]
    inp = np.arange(1 << n)[None, :]

    def bit(x, i):
        return (x >> (i % n)) & 1

    mat = np.zeros((1 << n, 1 << n))
    for s in range(data.num_labels):
        prod = np.ones((1 << n, 1 << n))
        for i in range(n):
            leg = (lkey >> i) & 1
            prod = prod * data.fsym[leg, bit(inp, i), s, bit(out, i + 1), bit(inp, i + 1), bit(out, i)]
        mat += (data.qdim[s] / data.total_dim_sq) * prod
    return mat


def masked_data():
    """Two labels with random F entries whose zeros follow no symmetry:
    an entry F[a, b, c, d, e, f] is 0 where (a, b, e) or (a, d, f) is
    barred, so a fan mask read from the wrong axes drops real entries.
    The Fibonacci zeros are symmetric and cannot show that."""
    rng = np.random.default_rng(5)
    bar_in = np.zeros((2, 2, 2), dtype=bool)
    bar_in[0, 1, 0] = bar_in[1, 1, 1] = True
    bar_out = np.zeros((2, 2, 2), dtype=bool)
    bar_out[0, 0, 1] = bar_out[1, 0, 0] = True
    a, b, _, d, e, f = np.indices((2,) * 6)
    fsym = rng.normal(size=(2,) * 6) * ~(bar_in[a, b, e] | bar_out[a, d, f])
    return FusionData(2, DATA.qdim, DATA.branching, fsym, DATA.total_dim_sq)


MASKED = masked_data()


def assert_table_matches_reference(n, lkey, data):
    """The sparse table holds exactly the nonzero entries of the block,
    bit for bit, with outputs increasing within each input's entries."""
    ptr, outs, vals = _bp_tables(data, n, [lkey])[0]
    ref = bp_block_reference(n, lkey, data)
    assert len(ptr) == (1 << n) + 1 and ptr[0] == 0 and ptr[-1] == len(outs) == len(vals)
    ins = np.repeat(np.arange(1 << n), np.diff(ptr))
    assert np.all((ins[1:] > ins[:-1]) | (outs[1:] > outs[:-1]))
    present = np.zeros(ref.shape, dtype=bool)
    present[outs, ins] = True
    assert np.all(ref[~present] == 0.0)
    assert np.all(vals.imag == 0.0) and np.all(vals.real != 0.0)
    assert np.array_equal(vals.real.view(np.int64), ref[outs, ins].view(np.int64))


@pytest.mark.parametrize("n", range(3, 10))
def test_bp_block_matches_per_entry_reference(n):
    full = (1 << n) - 1
    for lkey in sorted({0, 1, full, full ^ 1, 0b0101_0101 & full, 0b0110_1011 & full}):
        assert_table_matches_reference(n, lkey, DATA)


def test_bp_table_keeps_entries_of_asymmetric_data():
    for n in range(3, 7):
        for lkey in range(1 << n):
            assert_table_matches_reference(n, lkey, MASKED)


def bp_table_reference(n, lkey, data):
    """The sparse table of one leg pattern, read off the dense reference."""
    mat = bp_block_reference(n, lkey, data)
    ins, outs = np.nonzero(mat.T)  # by input, then output
    ptr = np.zeros((1 << n) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ins, minlength=1 << n), out=ptr[1:])
    return ptr, outs, mat[outs, ins].astype(np.complex128)


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("name", ["fibonacci", "masked"])
@pytest.mark.parametrize("passes", ["one", "pairs"])
def test_bp_tables_batch_matches_per_pattern_tables(n, name, passes, monkeypatch):
    """A batch mixing kept patterns, new ones and repeats returns, in its
    order, each pattern's table byte for byte, keeps each new one under
    its own key and leaves the kept ones as they were; also when the new
    patterns are built two per pass."""
    if passes == "pairs":
        monkeypatch.setattr(statevec, "BP_TABLE_BATCH", 2 << n)
    data = replace(DATA if name == "fibonacci" else MASKED)  # no tables kept yet
    full = (1 << n) - 1
    kept = sorted({1, full ^ 2})
    new = sorted({0, 5 & full, full, 0b0110_1011 & full, 0b1_0101_0101 & full} - set(kept))
    before = {k: _bp_tables(data, n, [k])[0] for k in kept}
    lkeys = [new[-1], kept[0], *new[:-1], kept[-1], new[0]]
    got = _bp_tables(data, n, lkeys)
    assert len(got) == len(lkeys)
    for lkey, table in zip(lkeys, got):
        assert data.tables[("plaquette", n, lkey)] is table
        if lkey in before:
            assert table is before[lkey]
        for a, b in zip(table, bp_table_reference(n, lkey, data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
    keys = {k for k in data.tables if isinstance(k, tuple) and k[0] == "plaquette"}
    assert keys == {("plaquette", n, k) for k in kept + new}


@pytest.mark.parametrize("columns", [1, 3])
def test_bp_block_without_terms_returns_empty(columns):
    """Configs that break branching at a fan triangle have no entries; a
    block made only of them projects to no configs, in every column."""
    vertex = TORUS.plaquette_vertices()[0]
    n_configs = 1 << len(TORUS.qubit_slots())
    everything = make_state(TORUS, np.arange(n_configs, dtype=np.uint64), np.ones(n_configs))
    fan_valid = everything
    for t in TORUS.plaquette(vertex).fan_triangles:
        fan_valid = apply_qv(fan_valid, TORUS, t)
    broken = np.setdiff1d(everything.configs, fan_valid.configs)[:40]
    assert len(broken) == 40
    amps = np.random.default_rng(2).normal(size=(len(broken), columns)).astype(np.complex128)
    configs, out = _bp_block(TORUS, vertex, broken, amps, DATA, 1e-14)
    assert configs.dtype == np.uint64 and configs.shape == (0,)
    assert out.dtype == np.complex128 and out.shape == (0, columns)


def test_ground_project_rank_one_on_sphere(theta):
    p0 = ground_project(make_delta_state(theta, 0), theta)
    p7 = ground_project(make_delta_state(theta, 7), theta)
    n0, n7 = p0.norm(), p7.norm()
    assert n0 > 1e-3 and n7 > 1e-3
    assert abs(abs(inner(p0, p7)) - n0 * n7) < 1e-10
    twice = ground_project(p0, theta)
    assert amp_diff(p0, twice) < 1e-12


def test_ground_project_annihilates_orthogonal_seed(theta):
    g = ground_project(uniform_state(theta), theta)
    amp = {int(c): a for c, a in zip(g.configs, g.amps)}
    seed = make_state(
        theta,
        np.array([3, 5], dtype=np.uint64),
        np.array([amp[5], -amp[3]], dtype=np.complex128),
    )
    assert abs(inner(g, seed)) < 1e-12
    assert ground_project(seed, theta).norm() < 1e-10


def test_ground_project_matches_oracle_product(torus):
    basis = enumerate_valid_configs(torus)
    full = np.eye(len(basis))
    for v in torus.plaquette_vertices():
        full = bp_oracle_matrix(torus, v, basis) @ full
    st = random_valid_state(torus, np.random.default_rng(3))
    got = dense(ground_project(st, torus), basis)
    assert np.max(np.abs(got - full @ dense(st, basis))) < 1e-10


def test_code_space_dims_match_dense_rank(theta, torus):
    basis = enumerate_valid_configs(torus)
    full = np.eye(len(basis))
    for v in torus.plaquette_vertices():
        full = bp_oracle_matrix(torus, v, basis) @ full
    evals = np.linalg.eigvalsh((full + full.T) / 2)
    assert int(np.sum(evals > 1e-8)) == 4
    assert code_space_dim(torus) == 4
    assert code_space_dim(theta) == 1


def test_disk_with_pinned_boundary_is_nondegenerate():
    assert code_space_dim(build_planar_patch(2, 3)) == 1
    assert code_space_dim(build_planar_patch(2, 4)) == 1


def test_code_space_dim_guard():
    with pytest.raises(MoveError):
        code_space_dim(build_planar_patch(4, 4))  # 40 qubit edges


def test_code_space_dim_invariant_under_moves(tetra, torus):
    rng = np.random.default_rng(5)
    lat = torus
    for _ in range(3):
        flippable = [e for e in lat.edges if _can_flip(lat, e)]
        lat, _rec = pachner_22(lat, int(rng.choice(flippable)))
    assert code_space_dim(lat) == 4
    sub, _rec = pachner_13(tetra, 0)
    assert code_space_dim(sub) == code_space_dim(tetra) == 1


def walked(lat, seed, subdivisions, flips):
    """Seeded Pachner walk: 1-3 moves at random triangles, then random
    admissible 2-2 flips."""
    rng = np.random.default_rng(seed)
    for _ in range(subdivisions):
        lat, _rec = pachner_13(lat, sorted(lat.triangles)[int(rng.integers(len(lat.triangles)))])
    while flips:
        edge = sorted(lat.edges)[int(rng.integers(len(lat.edges)))]
        if _can_flip(lat, edge):
            lat, _rec = pachner_22(lat, edge)
            flips -= 1
    return lat


def test_code_space_dim_on_walked_lattices(tetra, torus):
    # 18 qubits, 2250 valid configs: the seeded path, 7-edge plaquettes
    sphere = walked(tetra, 2, subdivisions=4, flips=2)
    assert len(enumerate_valid_configs(sphere)) > 1024
    assert code_space_dim(sphere, DATA, max_seeds=12) == 1
    # 12 qubits, 175 valid configs: every config seeds the Gram matrix
    flipped = walked(torus, 1, subdivisions=0, flips=3)
    assert max(len(flipped.plaquette(v).boundary) for v in flipped.plaquette_vertices()) == 7
    assert code_space_dim(flipped, DATA, max_seeds=12) == 4


def _can_flip(lat, edge_id):
    try:
        pachner_22(lat, edge_id)
        return True
    except MoveError:
        return False


# ---- 2-2 move ----------------------------------------------------------------------


def test_fmove_norm_and_round_trip(torus):
    rng = np.random.default_rng(13)
    st = random_valid_state(torus, rng)
    st1, lat1 = apply_fmove(st, torus, 8)
    assert abs(st1.norm() - 1.0) < 1e-12
    st2, lat2 = apply_fmove(st1, lat1, 8)
    assert lat2.signature() == torus.signature()
    back = rebind_state(st2, torus)
    assert amp_diff(st, back) < 1e-12


def test_fmove_vacuum_leg_passthrough(torus):
    _, rec = pachner_22(torus, 8)
    a, b, c, d = rec.legs
    pos = bit_positions(torus)
    for cfg in enumerate_valid_configs(torus):
        cfg = int(cfg)
        if (cfg >> pos[a]) & 1 == 0:
            break
    st, _lat = apply_fmove(make_delta_state(torus, cfg), torus, 8)
    assert len(st.configs) == 1
    assert abs(st.amps[0] - 1.0) < 1e-12
    # with a vacuum leg the new label is forced to the label opposite it
    got = (int(st.configs[0]) >> pos[8]) & 1
    assert got == (cfg >> pos[d]) & 1


def test_fmove_golden_rotation(torus):
    _, rec = pachner_22(torus, 8)
    pos = bit_positions(torus)
    legmask = 0
    for e in rec.legs:
        legmask |= 1 << pos[e]
    ebit = 1 << pos[8]
    cfg0 = next(
        int(c)
        for c in enumerate_valid_configs(torus)
        if (int(c) & legmask) == legmask and not int(c) & ebit
    )
    for e_in, expect in ((0, (INV_PHI, INV_SQRT_PHI)), (1, (INV_SQRT_PHI, -INV_PHI))):
        start = cfg0 | (ebit if e_in else 0)
        st, _lat = apply_fmove(make_delta_state(torus, start), torus, 8)
        amps = {int(c): a for c, a in zip(st.configs, st.amps)}
        assert abs(amps[cfg0] - expect[0]) < 1e-12
        assert abs(amps[cfg0 | ebit] - expect[1]) < 1e-12


def test_fmove_preserves_code_space(torus):
    g = ground_project(random_valid_state(torus, np.random.default_rng(17)), torus)
    g = make_state(torus, g.configs, g.amps / g.norm())
    g1, lat1 = apply_fmove(g, torus, 8)
    again = ground_project(g1, lat1)
    assert amp_diff(g1, again) < 1e-10


# ---- 1-3 and 3-1 moves -------------------------------------------------------------


def test_subdivision_matches_hand_table(theta):
    pos = bit_positions(theta)
    for cfg in (0, 3, 5, 6, 7):
        st, lat1 = apply_pachner13(make_delta_state(theta, cfg), theta, 0)
        legs = ((cfg >> pos[1]) & 1, (cfg >> pos[0]) & 1, (cfg >> pos[2]) & 1)
        table = SUBDIVISION_TABLE[legs]
        got = {int(c): a for c, a in zip(st.configs, st.amps)}
        assert len(got) == len(table)
        npos = bit_positions(lat1)
        for (d, e, f), coeff in table.items():
            cout = cfg | (d << npos[3]) | (e << npos[4]) | (f << npos[5])
            assert abs(got[cout] - coeff) < 1e-12
        assert abs(st.norm() - 1.0) < 1e-12


def test_subdivision_round_trip(tetra):
    rng = np.random.default_rng(23)
    st = random_valid_state(tetra, rng)
    st1, lat1 = apply_pachner13(st, tetra, 2)
    assert abs(st1.norm() - 1.0) < 1e-12
    new_vertex = max(lat1.vertices)
    st2, lat2 = apply_pachner31(st1, lat1, new_vertex)
    assert lat2.signature() == tetra.signature()
    assert amp_diff(rebind_state(st2, tetra), st) < 1e-12


def test_merge_rejects_entangled_interior(tetra):
    _, lat1 = apply_pachner13(make_delta_state(tetra, 0), tetra, 2)
    bad = uniform_state(lat1)  # spreads weight outside the isometry image
    with pytest.raises(MoveError):
        apply_pachner31(bad, lat1, max(lat1.vertices))


def test_merge_refuses_a_pinned_spoke(tetra):
    """The 3-1 move reads its legs and spokes from the lattice rewrite's
    record, so a pinned spoke raises the rewrite's MoveError, not a
    missing config bit."""
    assert tetra.edges[2].endpoints() == {0, 3}  # a spoke of vertex 3
    bad = replace_lattice(tetra, edges={**tetra.edges, 2: Edge(0, 3, None)})
    bad.check()
    with pytest.raises(MoveError, match="spokes include a pinned edge"):
        apply_pachner31(make_delta_state(bad, 0), bad, 3)


# ---- permutations ------------------------------------------------------------------


def torus_translation(size, di, dj):
    """Vertex map of the (di, dj) translation of build_honeycomb_torus(size, size)."""
    return {
        i + size * j: (i + di) % size + size * ((j + dj) % size)
        for i in range(size)
        for j in range(size)
    }


def test_translation_permutation_round_trip(torus):
    # on the 2x2 torus only the diagonal shift keeps triangles whole
    vmap = torus_translation(2, 1, 1)
    st = random_valid_state(torus, np.random.default_rng(29))
    st1, lat1 = apply_state_permutation(st, torus, vmap)
    assert abs(st1.norm() - 1.0) < 1e-12
    assert np.allclose(np.sort(np.abs(st1.amps)), np.sort(np.abs(st.amps)))
    inv = {v: k for k, v in vmap.items()}
    st2, lat2 = apply_state_permutation(st1, lat1, inv)
    assert st2.configs.tolist() == st.configs.tolist()
    assert np.allclose(st2.amps, st.amps)


def test_permutation_rejects_non_automorphism(torus):
    # swapping two vertices of the 2x2 torus keeps every edge an edge
    # (its vertices are pairwise joined) but splits its triangles
    st = make_delta_state(torus, 0)
    with pytest.raises(MoveError, match="triangle"):
        apply_state_permutation(st, torus, {0: 1, 1: 0})
    with pytest.raises(MoveError, match="not injective"):
        apply_state_permutation(st, torus, {0: 1})


# ---- kernels against per-config references ------------------------------------------
#
# The references walk one config at a time and keep the old summation
# order: every term in input order, added left to right per output
# config. The kernels must match them bit for bit.


def fmove_reference(state, lat, edge, data=DATA):
    _, rec = pachner_22(lat, edge)
    pos = bit_positions(lat)
    flag = 1 << pos[edge]

    def label(cfg, e):
        return (cfg >> pos[e]) & 1 if e in pos else 0

    outs, factors, coeffs = [], [], []
    for cfg, amp in zip(state.configs.tolist(), state.amps):
        legs = tuple(label(cfg, e) for e in rec.legs)
        e_in = label(cfg, edge)
        for f in (0, 1):
            coeff = data.fsym[legs + (e_in, f)]
            if abs(coeff) > 1e-15:
                outs.append((cfg & ~flag) | (f * flag))
                factors.append(amp)
                coeffs.append(coeff)
    # one array product, as in the kernel: numpy's array loop rounds a
    # complex product once and its scalar product twice, which can give
    # an underflowing part the other sign of zero
    products = np.array(factors, dtype=np.complex128) * np.array(coeffs, dtype=np.float64)
    terms = {}
    for cfg, term in zip(outs, products):
        terms.setdefault(cfg, []).append(term)
    configs, amps = [], []
    for cfg in sorted(terms):
        total = terms[cfg][0]
        for amp in terms[cfg][1:]:
            total = total + amp
        if abs(total) >= state.tolerance:
            configs.append(cfg)
            amps.append(total)
    return np.array(configs, dtype=np.uint64), np.array(amps, dtype=np.complex128)


def permutation_reference(state, lat, sigma, target=None):
    tgt = lat if target is None else target
    rank = {s: i for i, s in enumerate(tgt.qubit_slots())}
    dest = [rank[sigma.get(s, s)] for s in lat.qubit_slots()]
    pairs = []
    for cfg, amp in zip(state.configs.tolist(), state.amps):
        out = sum(((cfg >> i) & 1) << j for i, j in enumerate(dest))
        if abs(amp) >= state.tolerance:
            pairs.append((out, amp))
    pairs.sort(key=lambda p: p[0])
    return (
        np.array([p[0] for p in pairs], dtype=np.uint64),
        np.array([p[1] for p in pairs], dtype=np.complex128),
    )


def assert_bit_equal(state, ref):
    configs, amps = ref
    assert state.configs.dtype == np.uint64 and state.amps.dtype == np.complex128
    assert np.array_equal(state.configs, configs)
    # compare the bits, so that -0.0 and 0.0 differ too
    assert np.array_equal(state.amps.view(np.float64).view(np.uint64), amps.view(np.float64).view(np.uint64))
    assert np.all(state.configs[1:] > state.configs[:-1])


# the state_loop patch: no braid flip has a pinned leg, so the golden block fires
PATCH = build_planar_patch(5, 4, punctures=[(0, 0), (2, 0)])
TORUS = build_honeycomb_torus(2, 2)
TORUS3 = build_honeycomb_torus(3, 3)


def flippable(lat):
    return [e for e in sorted(lat.edges) if _can_flip(lat, e)]


def has_pinned_leg(lat, edge):
    pos = bit_positions(lat)
    return any(e not in pos for e in pachner_22(lat, edge)[1].legs)


PATCH_FLIPS = flippable(PATCH)
FLIPS = [(PATCH, e) for e in PATCH_FLIPS] + [(TORUS, e) for e in flippable(TORUS)]


def relabelings():
    """(lattice, vmap, target, sigma) of the torus translations that
    keep triangles whole (the diagonal shift of the 2x2 torus, the unit
    shifts of the 3x3 torus) and of every relabeling in the state_loop
    braid and its baseline; sigma is the slot map the record derives."""
    out = []
    for lat, size, di, dj in ((TORUS, 2, 1, 1), (TORUS3, 3, 1, 0), (TORUS3, 3, 0, 1)):
        vmap = torus_translation(size, di, dj)
        out.append((lat, vmap, None, apply_cpi(lat, vmap)[1].sigma))
    anyon = polar_vertex_id(4, 2, 0)
    cur = PATCH
    for build in (
        lambda lat: braid_schedule(lat, anyon, 0, steps=4),
        lambda lat: baseline_schedule(lat, anyon, [polar_vertex_id(4, 2, (i + 1) % 4) for i in range(4)]),
    ):
        for group in build(cur).groups:
            if group.kind == PERMUTATION:
                (rec,) = group.records()
                out.append((cur, rec.vmap, group.target, rec.sigma))
            _, cur = run_schedule(None, cur, MoveSchedule((group,)))
    return out


RELABELINGS = relabelings()

amplitudes = st_.tuples(
    st_.floats(-2.0, 2.0, allow_nan=False), st_.floats(-2.0, 2.0, allow_nan=False)
).map(lambda p: complex(*p))


def draw_state(draw, lat, flag=0):
    """A sparse state of raw bit patterns (valid or not); with flag set,
    some configs come with their partner across that bit, so two terms
    meet in one output config."""
    nbits = len(lat.qubit_slots())
    cfgs = draw(st_.lists(st_.integers(0, (1 << nbits) - 1), max_size=24))
    partners = draw(st_.lists(st_.booleans(), min_size=len(cfgs), max_size=len(cfgs)))
    cfgs = sorted(set(cfgs) | {c ^ flag for c, p in zip(cfgs, partners) if p and flag})
    amps = draw(st_.lists(amplitudes, min_size=len(cfgs), max_size=len(cfgs)))
    tol = draw(st_.sampled_from([1e-14, 0.0]))
    return make_state(lat, np.array(cfgs, dtype=np.uint64), np.array(amps, dtype=np.complex128), tolerance=tol)


def scrambled_data():
    """Two labels with an F-tensor of random entries, a fifth of them 0.

    It is no category, but the kernel only reads the table, and with no
    symmetry left a leg read in the wrong order shows."""
    rng = np.random.default_rng(3)
    fsym = rng.normal(size=(2,) * 6) * (rng.random((2,) * 6) > 0.2)
    return FusionData(2, DATA.qdim, DATA.branching, fsym, DATA.total_dim_sq)


SCRAMBLED = scrambled_data()


@functools.lru_cache(maxsize=None)
def reference_block(n, lkey):
    return bp_block_reference(n, lkey)


def bp_dense_reference(state, lat, vertex):
    """B_p by dense products: the configs that share their non-boundary
    bits form one vector over boundary patterns, hit by the reference
    block of their leg pattern."""
    plq = lat.plaquette(vertex)
    pos = bit_positions(lat)
    n = len(plq.boundary)
    bpos = [pos[e] for e in plq.boundary]
    lpos = [pos.get(e) for e in plq.legs]
    bmask = sum(1 << b for b in bpos)
    vecs = {}
    for cfg, amp in zip(state.configs.tolist(), state.amps):
        ein = sum(((cfg >> b) & 1) << i for i, b in enumerate(bpos))
        vecs.setdefault(cfg & ~bmask, np.zeros(1 << n, dtype=np.complex128))[ein] += amp
    out = {}
    for rest, vec in vecs.items():
        lkey = sum(((rest >> b) & 1) << i for i, b in enumerate(lpos) if b is not None)
        hit = reference_block(n, lkey) @ vec
        for pat in np.flatnonzero(np.abs(hit) > state.tolerance).tolist():
            out[rest | sum(((pat >> i) & 1) << b for i, b in enumerate(bpos))] = hit[pat]
    keys = sorted(out)
    return keys, np.array([out[k] for k in keys], dtype=np.complex128)


def test_bp_keeps_only_amplitudes_above_the_tolerance():
    state = random_valid_state(TORUS, np.random.default_rng(11), support=40)
    vertex = TORUS.plaquette_vertices()[0]
    out = apply_bp(state, TORUS, vertex)
    mags = np.abs(out.amps)
    edge = float(np.sort(mags)[len(mags) // 2])  # one output sits exactly on it
    cut = apply_bp(replace(state, tolerance=edge), TORUS, vertex)
    assert cut.configs.tolist() == out.configs[mags > edge].tolist()
    assert np.array_equal(cut.amps, out.amps[mags > edge])


WALKED = walked(build_tetra_sphere(), 2, subdivisions=4, flips=2)  # 7-edge plaquettes
BP_LATTICES = (TORUS, WALKED)
VALID = {id(lat): enumerate_valid_configs(lat) for lat in BP_LATTICES}


@settings(max_examples=120, deadline=None)
@given(st_.data())
def test_bp_matches_dense_reference_products(data):
    lat = data.draw(st_.sampled_from(BP_LATTICES))
    vertex = data.draw(st_.sampled_from(lat.plaquette_vertices()))
    valid = VALID[id(lat)]
    picks = data.draw(st_.lists(st_.integers(0, len(valid) - 1), max_size=24))
    raw = data.draw(st_.lists(st_.integers(0, (1 << len(lat.qubit_slots())) - 1), max_size=8))
    cfgs = sorted({int(valid[i]) for i in picks} | set(raw))
    amps = np.array(data.draw(st_.lists(amplitudes, min_size=len(cfgs), max_size=len(cfgs))))
    if np.any(amps):
        # scaled first, part by part (a complex division of subnormals
        # gives nan), so that a draw of tiny amplitudes has a norm above 0
        scale = np.max(np.abs(amps))
        amps = amps.real / scale + 1j * (amps.imag / scale)
        amps = amps / np.linalg.norm(amps)
    state = make_state(lat, np.array(cfgs, dtype=np.uint64), amps)
    got = apply_bp(state, lat, vertex)
    keys, want = bp_dense_reference(state, lat, vertex)
    assert got.configs.tolist() == keys
    assert len(keys) == 0 or np.max(np.abs(got.amps - want)) <= 1e-15
    # configs that break branching at a fan triangle have no entries
    fan_valid = state
    for t in lat.plaquette(vertex).fan_triangles:
        fan_valid = apply_qv(fan_valid, lat, t)
    broken = np.setdiff1d(state.configs, fan_valid.configs)
    off = make_state(lat, broken, state.amps[np.isin(state.configs, broken)])
    assert apply_bp(off, lat, vertex).nnz() == 0


@settings(max_examples=150, deadline=None)
@given(st_.data())
def test_fmove_matches_per_config_reference(data):
    lat, edge = data.draw(st_.sampled_from(FLIPS))
    fdata = data.draw(st_.sampled_from([DATA, SCRAMBLED]))
    state = draw_state(data.draw, lat, flag=1 << bit_positions(lat)[edge])
    out, _ = apply_fmove(state, lat, edge, fdata)
    assert_bit_equal(out, fmove_reference(state, lat, edge, fdata))


def test_fmove_reference_rounds_underflow_like_the_kernel():
    # a recorded draw: the real part of 5e-324 times a coefficient
    # underflows, and only an array product gives it the kernel's sign
    amps = np.array([0, complex(5e-324, -0.0)])
    state = make_state(TORUS, np.array([0, 396], dtype=np.uint64), amps, tolerance=0.0)
    out, _ = apply_fmove(state, TORUS, 0, SCRAMBLED)
    assert_bit_equal(out, fmove_reference(state, TORUS, 0, SCRAMBLED))


@settings(max_examples=80, deadline=None)
@given(st_.data())
def test_state_permutation_matches_per_config_reference(data):
    lat, vmap, target, sigma = data.draw(st_.sampled_from(RELABELINGS))
    state = draw_state(data.draw, lat)
    out, _ = apply_state_permutation(state, lat, vmap, target=target)
    assert_bit_equal(out, permutation_reference(state, lat, sigma, target))


def eager_permutation(state, lat, vmap, target=None):
    """The eager body apply_state_permutation had before relabelings went
    through _defer_permutation, kept as the reference: every bit moved at
    once, one sort, then the drop."""
    out, rec = apply_cpi(lat, vmap, target=target)
    tgt = target if target is not None else lat
    tgt_rank = {s: i for i, s in enumerate(tgt.qubit_slots())}
    dest = [tgt_rank[rec.sigma[s]] for s in lat.qubit_slots()]
    moved = _move_bits(state.configs, enumerate(dest))
    order = np.argsort(moved)
    keep = np.abs(state.amps[order]) >= state.tolerance
    if not keep.all():
        order = order[keep]
    return moved[order], state.amps[order], out


# the relabeling pool, the identity on the torus and on the braid patch too
EAGER_RELABELINGS = [(lat, vmap, target) for lat, vmap, target, _ in RELABELINGS] + [
    (TORUS, {}, None),
    (PATCH, {}, None),
]


@settings(max_examples=80, deadline=None)
@given(st_.data())
def test_state_permutation_equals_the_eager_relabeling(data):
    """Bit for bit, bound to the same lattice, with some amplitudes
    scaled below the tolerance."""
    lat, vmap, target = data.draw(st_.sampled_from(EAGER_RELABELINGS))
    state = draw_state(data.draw, lat)
    tiny = data.draw(st_.lists(st_.booleans(), min_size=state.nnz(), max_size=state.nnz()))
    amps = np.where(tiny, state.amps * 1e-20, state.amps)
    state = replace(state, amps=amps, tolerance=data.draw(st_.sampled_from([0.0, 1e-14, 1e-3])))
    got, got_lat = apply_state_permutation(state, lat, vmap, target=target)
    configs, amps, want_lat = eager_permutation(state, lat, vmap, target)
    assert_bit_equal(got, (configs, amps))
    assert (got_lat.signature(), got_lat.version) == (want_lat.signature(), want_lat.version)
    assert (got.lattice_version, got.sig_key, got.tolerance) == (
        want_lat.version,
        hash(want_lat.signature()),
        state.tolerance,
    )


def test_state_permutation_refuses_a_state_of_another_version():
    lat, vmap, target, _ = RELABELINGS[-1]
    state = make_delta_state(lat, 0)
    with pytest.raises(VersionError):
        apply_state_permutation(state, replace_lattice(lat, version=lat.version + 1), vmap, target=target)


def test_state_permutation_drops_amplitudes_below_the_tolerance():
    lat, vmap, target, sigma = RELABELINGS[0]
    state = make_state(lat, np.arange(4, dtype=np.uint64), np.array([1e-3, 1.0, 1e-9, 0.5]))
    state = replace(state, tolerance=1e-6)
    out, _ = apply_state_permutation(state, lat, vmap, target=target)
    assert out.nnz() == 3
    assert_bit_equal(out, permutation_reference(state, lat, sigma, target))


def test_reference_pools_cover_the_patch_cases():
    assert any(has_pinned_leg(PATCH, e) for e in PATCH_FLIPS)
    assert any(not has_pinned_leg(PATCH, e) for e in PATCH_FLIPS)
    assert len(RELABELINGS) == 3 + 8  # torus translations, then 4 braid and 4 baseline steps


def _ref_move_bits(configs, pairs):
    return np.array(
        [sum(((int(c) >> i) & 1) << j for i, j in pairs) for c in configs], dtype=np.uint64
    )


def _ref_key(configs, bits):
    return np.array(
        [sum(((int(c) >> b) & 1) << k for k, b in enumerate(bits) if b is not None) for c in configs],
        dtype=np.int64,
    )


BIT_CONFIGS = np.concatenate(
    [
        np.array([0, 1, 1 << 63, (1 << 64) - 1], dtype=np.uint64),
        np.random.default_rng(41).integers(0, 1 << 64, size=200, dtype=np.uint64, endpoint=False),
    ]
)


@pytest.mark.parametrize(
    "pairs",
    [
        [(3, 0), (3, 1), (5, 2)],  # one source bit feeds two destinations
        [(63, 0), (0, 63), (62, 5)],  # into and out of bit 63
        [(i, 63 - i) for i in range(64)],  # bit reversal: every shift distinct
        [(i, i + 1) for i in range(63)],  # one shared shift, top bit dropped
        [],
    ],
)
def test_move_bits_matches_per_config_reference(pairs):
    out = _move_bits(BIT_CONFIGS, pairs)
    assert out.dtype == np.uint64
    assert np.array_equal(out, _ref_move_bits(BIT_CONFIGS, pairs))


@pytest.mark.parametrize(
    "bits",
    [
        [7, 7, 2],  # quad sides that repeat an edge read it twice
        [63, 0, 62],
        [None, 4, None, 63],  # pinned edges read the vacuum 0
        [None, None],
        [],
    ],
)
def test_key_matches_per_config_reference(bits):
    key = _key(BIT_CONFIGS, bits)
    assert key.dtype == np.int64
    assert np.array_equal(key, _ref_key(BIT_CONFIGS, bits))
    assert key.max(initial=0) < 1 << len(bits)


@settings(max_examples=60, deadline=None)
@given(
    st_.lists(
        st_.tuples(st_.integers(0, 63), st_.integers(0, 63)), max_size=12, unique_by=lambda p: p[1]
    )
)
def test_move_bits_matches_reference_on_random_pairs(pairs):
    assert np.array_equal(_move_bits(BIT_CONFIGS, pairs), _ref_move_bits(BIT_CONFIGS, pairs))


def test_kernels_on_the_empty_state():
    empty = make_state(PATCH, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.complex128))
    edge = PATCH_FLIPS[0]
    out, _ = apply_fmove(empty, PATCH, edge)
    assert_bit_equal(out, fmove_reference(empty, PATCH, edge))
    assert out.nnz() == 0
    lat, vmap, target, _ = RELABELINGS[-1]
    empty = make_state(lat, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.complex128))
    out, _ = apply_state_permutation(empty, lat, vmap, target=target)
    assert out.nnz() == 0 and out.configs.dtype == np.uint64


# ---- blocked F-move ----------------------------------------------------------------


BLOCK_LATTICES = (TORUS3, build_planar_patch(3, 4))  # no pinned edge; flips with pinned legs
BLOCK_FLIPS = {id(lat): flippable(lat) for lat in BLOCK_LATTICES}
BLOCK_VALID = {id(lat): enumerate_valid_configs(lat) for lat in BLOCK_LATTICES}


def fmove_in_blocks(state, lat, edge, layout, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevec, "FMOVE_BLOCK", block)
        out = apply_fmove(state, lat, edge, layout=layout)[0]
        groups = _pair_blocks(state.configs, layout[bit_positions(lat)[edge]])
        return out, [slices for blocks, _split in groups for slices in blocks]


@settings(max_examples=60, deadline=None)
@given(st_.data())
def test_blocked_fmove_equals_one_block(data):
    """Blocks of a few configs give the arrays of one block over the
    whole state, on random sorted valid supports of up to a few hundred
    configs, with the flipped edge's bit laid out at config bit 0, at a
    middle bit or at the top bit, at tolerance 0 and at the default."""
    lat = data.draw(st_.sampled_from(BLOCK_LATTICES))
    edge = data.draw(st_.sampled_from(BLOCK_FLIPS[id(lat)]))
    nbits = len(lat.qubit_slots())
    where = data.draw(st_.sampled_from([0, nbits // 2, nbits - 1]))
    block = data.draw(st_.sampled_from([2, 3, 8, 32]))
    tol = data.draw(st_.sampled_from([0.0, 1e-14]))
    rng = np.random.default_rng(data.draw(st_.integers(0, 2**32 - 1)))
    bit = bit_positions(lat)[edge]
    layout = rng.permutation(nbits)
    at = int(np.flatnonzero(layout == where)[0])
    layout[[bit, at]] = layout[[at, bit]]
    layout = tuple(layout.tolist())

    valid = BLOCK_VALID[id(lat)]
    picks = valid[rng.choice(len(valid), size=data.draw(st_.integers(0, 400)), replace=False)]
    # half the picks bring their partner across the flipped edge, so two terms meet
    partners = picks[rng.random(len(picks)) < 0.5] ^ np.uint64(1 << bit)
    canon = np.union1d(picks, partners[np.isin(partners, valid)])
    amps = rng.normal(size=len(canon)) + 1j * rng.normal(size=len(canon))
    amps[rng.random(len(canon)) < 0.2] *= 1e-14  # some outputs fall below the default tolerance
    canon_state = make_state(lat, canon, amps, tolerance=tol)
    state = replace(canon_state, configs=_move_bits(canon_state.configs, enumerate(layout)))
    order = np.argsort(state.configs)
    state = replace(state, configs=state.configs[order], amps=state.amps[order])

    got, blocks = fmove_in_blocks(state, lat, edge, layout, block)
    whole, one = fmove_in_blocks(state, lat, edge, layout, max(state.nnz(), 1))
    assert len(one) == 1
    assert_bit_equal(got, (whole.configs, whole.amps))
    # in the canonical layout the unblocked kernel gives the same state
    assert_bit_equal(_materialize(got, layout), fmove_reference(canon_state, lat, edge))
    # every block holds at most `block` configs, each with its partner
    flag = 1 << layout[bit]
    owner = {}
    for k, slices in enumerate(blocks):
        cfgs = np.concatenate([state.configs[s] for s in slices])
        assert len(cfgs) <= block and np.all(cfgs[1:] > cfgs[:-1])
        owner.update(dict.fromkeys(cfgs.tolist(), k))
    assert sorted(owner) == state.configs.tolist()
    assert all(owner.get(c ^ flag, k) == k for c, k in owner.items())


def test_blocked_fmove_on_the_empty_state():
    edge = BLOCK_FLIPS[id(TORUS3)][0]
    layout = tuple(range(len(TORUS3.qubit_slots())))
    empty = make_state(TORUS3, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.complex128))
    got, _ = fmove_in_blocks(empty, TORUS3, edge, layout, 2)
    whole, _ = apply_fmove(empty, TORUS3, edge)
    assert_bit_equal(got, (whole.configs, whole.amps))
    assert got.nnz() == 0


@pytest.mark.parametrize(
    "where, block, path",
    [(13, 1 << 15, "one block"), (0, 64, "many blocks"), (26, 64, "split hi group")],
)
def test_blocked_fmove_result_owns_exactly_its_entries(where, block, path):
    """Each path of apply_fmove's assembly (one block; many one-slice
    blocks; a hi group cut at its split) returns arrays that own their
    data and hold exactly nnz entries, and leaves the input arrays,
    which the blocks read as views, as they were."""
    lat = TORUS3
    edge = BLOCK_FLIPS[id(lat)][0]
    rng = np.random.default_rng(5)
    valid = BLOCK_VALID[id(lat)]
    picks = valid[rng.choice(len(valid), size=2000, replace=False)]
    bit = bit_positions(lat)[edge]
    # every other pick brings its partner across the flipped edge
    partners = picks[::2] ^ np.uint64(1 << bit)
    canon = np.union1d(picks, partners[np.isin(partners, valid)])
    layout = list(range(len(lat.qubit_slots())))
    layout[bit], layout[where] = where, bit
    configs = _move_bits(canon, enumerate(layout))
    order = np.argsort(configs)
    amps = rng.normal(size=len(canon)) + 1j * rng.normal(size=len(canon))
    state = replace(make_state(lat, canon, amps), configs=configs[order], amps=amps[order])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevec, "FMOVE_BLOCK", block)
        groups = list(_pair_blocks(state.configs, where))
    if sum(len(blocks) for blocks, _ in groups) == 1:
        assert path == "one block"
    else:
        assert path == ("many blocks" if all(s is None for _, s in groups) else "split hi group")
    before = (state.configs.copy(), state.amps.copy())
    state.configs.flags.writeable = state.amps.flags.writeable = False

    got, _ = fmove_in_blocks(state, lat, edge, tuple(layout), block)
    assert got.nnz() > len(state.configs) // 2
    for arr, width in ((got.configs, 8), (got.amps, 16)):
        assert arr.base is None and arr.flags.owndata and arr.flags.c_contiguous
        assert arr.nbytes == width * got.nnz()
    assert np.array_equal(state.configs, before[0])
    assert np.array_equal(state.amps.view(np.uint64), before[1].view(np.uint64))
    whole, _ = fmove_in_blocks(state, lat, edge, tuple(layout), len(state.configs))
    assert_bit_equal(got, (whole.configs, whole.amps))


def golden_config(lat, edge):
    """A config with every leg of the flip set to tau and its edge to 0."""
    _, rec = pachner_22(lat, edge)
    pos = bit_positions(lat)
    return sum(1 << pos[e] for e in rec.legs), 1 << pos[edge]


def test_fmove_exact_cancellation_at_zero_tolerance():
    edge = next(e for e in PATCH_FLIPS if not has_pinned_leg(PATCH, e))
    cfg, flag = golden_config(PATCH, edge)
    f = DATA.fsym[1, 1, 1, 1]
    # F[0,0] * F[1,0] - F[1,0] * F[0,0] is exactly 0 at the unflipped output
    amps = np.array([f[1, 0], -f[0, 0]], dtype=np.complex128)
    for tol, kept in ((0.0, [cfg, cfg | flag]), (1e-14, [cfg | flag])):
        state = make_state(PATCH, np.array([cfg, cfg | flag], dtype=np.uint64), amps, tolerance=tol)
        out, _ = apply_fmove(state, PATCH, edge)
        assert_bit_equal(out, fmove_reference(state, PATCH, edge))
        assert out.configs.tolist() == kept
        if tol == 0.0:
            assert out.amps[0] == 0  # kept as an exact zero, not dropped


def test_fmove_sums_of_signed_zeros_match_the_reference():
    """Two terms meet in each output. Where the move sets the e bit, the
    kernel adds them in the other order than the reference (the staying
    term first); that must not change a bit, not even of a -0.0."""
    edge = next(e for e in PATCH_FLIPS if not has_pinned_leg(PATCH, e))
    cfg, flag = golden_config(PATCH, edge)
    parts = [0.0, -0.0, 1.0, -1.0]
    amps = [complex(re, im) for re in parts for im in parts]
    for a0, a1 in itertools.product(amps, amps):
        state = make_state(PATCH, np.array([cfg, cfg | flag], dtype=np.uint64), np.array([a0, a1]), tolerance=0.0)
        out, _ = apply_fmove(state, PATCH, edge)
        assert_bit_equal(out, fmove_reference(state, PATCH, edge))


def test_fmove_with_pinned_legs_reads_the_vacuum():
    rng = np.random.default_rng(5)
    nbits = len(PATCH.qubit_slots())
    for edge in (e for e in PATCH_FLIPS if has_pinned_leg(PATCH, e)):
        configs = rng.integers(0, 1 << nbits, size=64, dtype=np.uint64)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        state = make_state(PATCH, configs, amps)
        out, _ = apply_fmove(state, PATCH, edge)
        assert_bit_equal(out, fmove_reference(state, PATCH, edge))


def test_fmove_one_by_one_block_flips_the_bit():
    """Legs (tau, tau, vacuum, vacuum) admit only e = vacuum -> f = tau,
    with F = 1."""
    edge = next(e for e in PATCH_FLIPS if not has_pinned_leg(PATCH, e))
    _, rec = pachner_22(PATCH, edge)
    pos = bit_positions(PATCH)
    cfg = (1 << pos[rec.legs[0]]) | (1 << pos[rec.legs[1]])
    flag = 1 << pos[edge]
    assert DATA.fsym[1, 1, 0, 0, 0, 1] == 1.0 and DATA.fsym[1, 1, 0, 0, 0, 0] == 0.0
    state = make_state(PATCH, np.array([cfg], dtype=np.uint64), np.array([0.6 - 0.8j]))
    out, _ = apply_fmove(state, PATCH, edge)
    assert out.configs.tolist() == [cfg | flag]
    assert np.array_equal(out.amps, [0.6 - 0.8j])
    assert_bit_equal(out, fmove_reference(state, PATCH, edge))


def three_label_data():
    return FusionData(3, np.ones(3), np.ones((3,) * 3, dtype=bool), np.ones((3,) * 6), 3.0)


def test_fmove_rejects_categories_without_two_labels():
    state = make_delta_state(TORUS, 0)
    for data in (trivial_data(), three_label_data()):
        with pytest.raises(MoveError, match="2 labels"):
            apply_fmove(state, TORUS, 8, data)


@pytest.mark.parametrize(
    "kernel",
    [
        "bp",
        "bp_empty",
        "pachner13",
        "pachner31",
        "qv",
        "valid_mask",
        "enumerate",
        "ground_project",
        "ground_project_empty",
        "code_space_dim",
    ],
)
def test_kernels_reject_categories_without_two_labels(kernel):
    """One check, in statevec._table, refuses these categories for every
    kernel, also where an empty state would return before any table is
    read."""
    theta = build_theta_sphere()
    state = make_delta_state(theta, 7)  # every edge tau
    empty = replace(state, configs=state.configs[:0], amps=state.amps[:0])
    sub_state, sub = apply_pachner13(state, theta, 0)
    run = {
        "bp": lambda data: apply_bp(state, theta, theta.plaquette_vertices()[0], data),
        "bp_empty": lambda data: apply_bp(empty, theta, theta.plaquette_vertices()[0], data),
        "pachner13": lambda data: apply_pachner13(state, theta, 0, data),
        "pachner31": lambda data: apply_pachner31(sub_state, sub, max(sub.vertices), data),
        # these read the branching table with config bits
        "qv": lambda data: apply_qv(state, theta, 0, data),
        "valid_mask": lambda data: valid_mask(theta, state.configs, data),
        "enumerate": lambda data: enumerate_valid_configs(theta, data),
        "ground_project": lambda data: ground_project(state, theta, data),
        "ground_project_empty": lambda data: ground_project(empty, theta, data),
        "code_space_dim": lambda data: code_space_dim(theta, data),
    }[kernel]
    for data in (trivial_data(), three_label_data()):
        with pytest.raises(MoveError, match="2 labels"):
            run(data)


# ---- tables per category -----------------------------------------------------------

# The copies below keep the Fibonacci F-symbols and change the quantum
# dimensions or D^2. They are no category, but the kernels read those
# fields, so a table built for the Fibonacci object must not serve them.


@pytest.mark.parametrize("n", [3, 6])
def test_bp_table_follows_the_quantum_dimensions(n):
    copy = replace(DATA, qdim=DATA.qdim * np.array([1.0, 0.5]))
    for lkey in (0, 1, (1 << n) - 1):
        _bp_tables(DATA, n, [lkey])[0]  # the Fibonacci tables are warm first
        assert_table_matches_reference(n, lkey, copy)


def test_pachner13_follows_the_total_dimension(theta):
    copy = replace(DATA, total_dim_sq=2.0 * DATA.total_dim_sq)
    pos = bit_positions(theta)
    for cfg in (0, 3, 5, 6, 7):
        seed = make_delta_state(theta, cfg)
        fib, lat1 = apply_pachner13(seed, theta, 0)  # warm the Fibonacci table
        got, _ = apply_pachner13(seed, theta, 0, copy)
        assert got.configs.tolist() == fib.configs.tolist()
        assert np.all(np.abs(got.amps - fib.amps) > 1e-3)
        a, b, c = ((cfg >> pos[e]) & 1 for e in (1, 0, 2))
        npos = bit_positions(lat1)
        for cout, amp in zip(got.configs.tolist(), got.amps):
            d, e, f = ((cout >> npos[k]) & 1 for k in (3, 4, 5))
            closed = copy.qdim[d] / np.sqrt(copy.total_dim_sq)
            closed *= copy.fsym[b, b, d, d, 0, e] * copy.fsym[a, c, d, e, b, f]
            assert abs(amp - closed) <= 1e-15


def test_tables_stay_with_their_category():
    assert fibonacci_data() is DATA  # every default shares one object and its tables
    state = random_valid_state(TORUS, np.random.default_rng(2), support=30)
    edge = flippable(TORUS)[0]
    vertex = TORUS.plaquette_vertices()[0]
    copies = [DATA, replace(DATA), replace(DATA, qdim=DATA.qdim * np.array([1.0, 0.5])), scrambled_data()]
    for data in copies:
        apply_fmove(state, TORUS, edge, data)
        apply_bp(state, TORUS, vertex, data)
        apply_pachner13(state, TORUS, 0, data)
        valid_mask(TORUS, state.configs, data)
    for i, one in enumerate(copies):
        assert {"branching", "fmove", "pachner13", "plaquette fans"} <= set(one.tables)
        for other in copies[i + 1 :]:
            assert one is not other
            for key, table in one.tables.items():
                assert all(table is not t for t in other.tables.values()), key
    assert not replace(DATA).tables  # a copy starts with none


# ---- snapshots and rebinding -------------------------------------------------------


def test_state_jsonlines_round_trip(torus):
    st = random_valid_state(torus, np.random.default_rng(31))
    text = state_to_jsonlines(st, torus)
    back = state_from_jsonlines(text, torus)
    assert back.configs.tolist() == st.configs.tolist()
    assert np.array_equal(back.amps, st.amps)
    assert state_to_jsonlines(back, torus) == text


def test_state_from_jsonlines_binds_to_the_given_lattice(torus):
    st = random_valid_state(torus, np.random.default_rng(31))
    text = state_to_jsonlines(st, torus)
    # a structurally equal lattice at another version
    lat1, _ = pachner_22(torus, 0)
    lat2, _ = pachner_22(lat1, 0)
    back = state_from_jsonlines(text, lat2)
    assert back.lattice_version == lat2.version == 2
    assert np.array_equal(back.configs, st.configs) and np.array_equal(back.amps, st.amps)
    assert apply_bp(back, lat2, 0).nnz() > 0


def test_state_from_jsonlines_refuses_a_snapshot_of_another_width(torus, tetra):
    text = state_to_jsonlines(random_valid_state(torus, np.random.default_rng(31)), torus)
    # 12 qubit edges onto the 6 of the tetra sphere
    with pytest.raises(MoveError, match="12 qubit edges"):
        state_from_jsonlines(text, tetra)
    # the right edge_count, but a config with bit 12 set
    header, first, *rest = text.splitlines()
    row = json.loads(first)
    row["config"] = format(int(row["config"], 16) | 1 << 12, "x")
    forged = "\n".join([header, json.dumps(row, sort_keys=True), *rest])
    with pytest.raises(MoveError, match="at or above"):
        state_from_jsonlines(forged, torus)


@pytest.mark.parametrize(
    "text",
    ["", " \n\n", '{"tolerance": 1e-14}\n', '{"edge_count": 12}\n', "[12]\n"],
    ids=["empty", "blank", "no edge_count", "no tolerance", "not a mapping"],
)
def test_state_from_jsonlines_refuses_a_snapshot_without_its_header(torus, text):
    with pytest.raises(MoveError, match="snapshot"):
        state_from_jsonlines(text, torus)


@pytest.mark.parametrize(
    "row, message",
    [
        ("{}", "KeyError: 'config'"),
        ("x", "JSONDecodeError"),
        ("[1]", "TypeError"),
        ('{"config": "zz", "re": 1, "im": 0}', "ValueError"),
        ('{"config": "-1", "re": 1, "im": 0}', "OverflowError"),
        ('{"config": "1' + "0" * 16 + '", "re": 1, "im": 0}', "OverflowError"),
        ('{"config": "0", "re": "1", "im": 0}', "TypeError"),
    ],
)
def test_state_from_jsonlines_refuses_a_malformed_row(torus, row, message):
    header = state_to_jsonlines(make_delta_state(torus, 0), torus).splitlines()[0]
    with pytest.raises(MoveError, match=f"not a state snapshot: {message}"):
        state_from_jsonlines(header + "\n" + row + "\n", torus)


def test_make_state_refuses_a_bit_above_the_qubit_count():
    """The 52-qubit patch reads config bits 0-51. The braid's relabelings
    would drop bit 60 of a config, which would then come back equal to
    its partner without the bit and break the strictly increasing
    support, so make_state refuses it."""
    nq = len(PATCH.qubit_slots())
    x, _ = golden_config(PATCH, next(e for e in PATCH_FLIPS if not has_pinned_leg(PATCH, e)))
    with pytest.raises(MoveError, match=f"at or above the lattice's {nq} qubit edges"):
        make_state(PATCH, np.array([x, x | 1 << 60], dtype=np.uint64), np.array([0.6, 0.8]))
    with pytest.raises(MoveError, match="at or above"):
        make_state(PATCH, [1 << nq], [1.0])
    top = make_state(PATCH, [x, 1 << (nq - 1)], [0.6, 0.8])
    assert top.configs.tolist() == sorted([x, 1 << (nq - 1)])


def test_rebind_requires_matching_signature(torus, tetra):
    st = make_delta_state(torus, 0)
    lat1, _ = pachner_22(torus, 0)
    lat2, _ = pachner_22(lat1, 0)
    assert rebind_state(st, lat2).lattice_version == lat2.version
    with pytest.raises(VersionError):
        rebind_state(st, tetra)


# ---- inner product ----------------------------------------------------------------


def aligned_vdot(a, b):
    """<a|b> by np.vdot on dense copies over the union of supports."""
    union = np.union1d(a.configs, b.configs)
    va = np.zeros(len(union), dtype=np.complex128)
    vb = np.zeros(len(union), dtype=np.complex128)
    va[np.searchsorted(union, a.configs)] = a.amps
    vb[np.searchsorted(union, b.configs)] = b.amps
    return np.vdot(va, vb)


def test_inner_matches_vdot_on_union(torus):
    rng = np.random.default_rng(12)
    configs = enumerate_valid_configs(torus)

    def state(cfgs):
        amps = rng.normal(size=len(cfgs)) + 1j * rng.normal(size=len(cfgs))
        return make_state(torus, cfgs, amps)

    half = len(configs) // 2
    pairs = {
        "disjoint": (state(configs[:half]), state(configs[half:])),
        "empty": (state(configs[:0]), state(configs[:half])),
        # the first state reaches past the second one's largest config
        "partial": (state(configs[half:]), state(configs[: half + 10])),
        "equal": (state(configs), state(configs)),
    }
    for name, (a, b) in pairs.items():
        for x, y in ((a, b), (b, a)):
            want = aligned_vdot(x, y)
            got = inner(x, y)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name
            # the matched pairs, in config order, of a sorted-set intersection
            _, ia, ib = np.intersect1d(x.configs, y.configs, return_indices=True)
            assert got == complex(np.sum(np.conj(x.amps[ia]) * y.amps[ib])), name
    assert inner(*pairs["disjoint"]) == 0 and inner(*pairs["empty"]) == 0
    assert abs(inner(*pairs["partial"])) > 0


def test_inner_rejects_mismatched_versions(torus):
    moved, _ = pachner_22(torus, 0)
    with pytest.raises(VersionError):
        inner(make_delta_state(torus, 0), make_delta_state(moved, 0))


BOUND_KERNELS = {
    "apply_qv": lambda st, lat: apply_qv(st, lat, 0),
    "apply_bp": lambda st, lat: apply_bp(st, lat, 0),
    "ground_project": ground_project,
    "apply_fmove": lambda st, lat: apply_fmove(st, lat, 0),
    "apply_pachner13": lambda st, lat: apply_pachner13(st, lat, 0),
    "apply_pachner31": lambda st, lat: apply_pachner31(st, lat, 0),
    "apply_state_permutation": lambda st, lat: apply_state_permutation(st, lat, {}),
}


@pytest.mark.parametrize("kernel", sorted(BOUND_KERNELS))
def test_kernels_refuse_a_state_bound_to_another_lattice(kernel, torus, tetra):
    # both fresh builds are version 0: only the structural key tells them apart
    st = random_valid_state(torus, np.random.default_rng(5))
    assert st.lattice_version == tetra.version == 0
    with pytest.raises(VersionError, match="another structure"):
        BOUND_KERNELS[kernel](st, tetra)


# ---- config width ----------------------------------------------------------------


def test_width_guard_rejects_more_than_64_slots():
    lat = build_planar_patch(6, 12)  # 192 qubit slots
    with pytest.raises(MoveError, match="64-bit"):
        apply_pachner13(make_delta_state(lat, 0), lat, 0)
    # states that bypass make_state are refused by each move record too
    state = StringNetState(lat.version, 0, np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.complex128))
    edge = next(e for e, rec in sorted(lat.edges.items()) if not rec.pinned and 0 not in rec.endpoints())
    with pytest.raises(MoveError, match="64-bit"):
        apply_fmove(state, lat, edge)
    with pytest.raises(MoveError, match="64-bit"):
        apply_pachner13(state, lat, 0)
    with pytest.raises(MoveError, match="64-bit"):
        apply_state_permutation(state, lat, {})


def test_width_guard_allows_exactly_64_slots_and_stops_growth_past_them():
    lat = build_planar_patch(2, 16)
    assert len(lat.qubit_slots()) == 64
    state = make_delta_state(lat, 0)
    assert apply_state_permutation(state, lat, {})[0].norm() == pytest.approx(1.0)
    with pytest.raises(MoveError, match="67 qubit slots"):
        apply_pachner13(state, lat, 0)


# ---- code-space blocks -------------------------------------------------------------


def code_space_reference(lat, max_seeds=24, tol=1e-8):
    """code_space one seed at a time: each delta seed ground-projected on
    its own and filtered with inner, as before seeds were blocked."""
    valid = enumerate_valid_configs(lat, max_qubits=40)
    seeds = valid if len(valid) <= 1024 else valid[:: max(len(valid) // max_seeds, 1)][:max_seeds]
    basis = []
    for cfg in seeds.tolist():
        p = ground_project(make_delta_state(lat, cfg), lat)
        c = np.array([inner(b, p) for b in basis], dtype=np.complex128)
        weight = float(np.sum(np.abs(p.amps) ** 2))
        if weight - float(np.sum(np.abs(c) ** 2)) <= tol * weight:
            continue
        r = make_state(
            lat,
            np.concatenate([p.configs, *(b.configs for b in basis)]),
            np.concatenate([p.amps, *(-cb * b.amps for cb, b in zip(c, basis))]),
        )
        basis.append(replace(r, amps=r.amps / r.norm()))
    return basis


def span_gap(a, b):
    """Spectral norm of P_a - P_b for orthonormal bases of one size: the
    larger of |(I - P_a) B| and |(I - P_b) A|, each computed as vectors,
    so that it resolves gaps far below sqrt(machine epsilon)."""
    support = np.unique(np.concatenate([s.configs for s in (*a, *b)]))

    def columns(basis):
        m = np.zeros((len(support), len(basis)), dtype=np.complex128)
        for j, s in enumerate(basis):
            m[np.searchsorted(support, s.configs), j] = s.amps
        return m

    ma, mb = columns(a), columns(b)
    return max(
        np.linalg.norm(mb - ma @ (ma.conj().T @ mb), 2),
        np.linalg.norm(ma - mb @ (mb.conj().T @ ma), 2),
    )


THREE_PUNCTURES = build_planar_patch(3, 4, punctures=[(0, 0), (2, 0), (2, 2)])
SEED_LATTICES = {
    "theta": build_theta_sphere(),
    "tetra": build_tetra_sphere(),
    "torus": TORUS,
    "torus3": TORUS3,
    "walked": WALKED,
}
SEED_VALID = {name: enumerate_valid_configs(lat) for name, lat in SEED_LATTICES.items()}


@settings(max_examples=40, deadline=None)
@given(st_.data())
def test_projected_blocks_match_per_seed_ground_project(data):
    name = data.draw(st_.sampled_from(sorted(SEED_LATTICES)))
    lat, valid = SEED_LATTICES[name], SEED_VALID[name]
    picks = data.draw(st_.lists(st_.integers(0, len(valid) - 1), min_size=1, max_size=5, unique=True))
    seeds = np.sort(valid[picks])
    width = data.draw(st_.sampled_from([1, 2, 3, max(statevec.SEED_BLOCK // len(valid), 1)]))
    columns = []
    for start in range(0, len(seeds), width):
        block = seeds[start : start + width]
        eye = np.eye(len(block), dtype=np.complex128)
        configs, amps = statevec._project(lat, block, eye, DATA, StringNetState.tolerance)
        assert amps.shape == (len(configs), min(width, len(seeds) - start))
        assert configs.dtype == np.uint64 and np.all(configs[1:] > configs[:-1])
        # no config is zero in every column, and no kept amplitude is tiny
        assert np.all(np.any(amps != 0, axis=1))
        assert np.all((amps == 0) | (np.abs(amps) > 1e-14))
        columns += [(configs, amps[:, j]) for j in range(amps.shape[1])]
    for seed, (configs, col) in zip(seeds.tolist(), columns):
        rows = np.flatnonzero(col)
        got = make_state(lat, configs[rows], col[rows], tolerance=0.0)
        want = ground_project(make_delta_state(lat, seed), lat)
        assert amp_diff(got, want) <= 1e-14


# sha256 of the configs and amplitude bytes of code_space's bases and of
# ground_project's outputs, taken when ground_project still chained
# apply_bp and code_space had a plaquette loop of its own; each output
# must keep them now that both run one loop (statevec._project).
PINNED_LATTICES = {
    "torus": TORUS,
    "patch3x3": build_planar_patch(3, 3, punctures=[(0, 0)]),
    "patch3x4": build_planar_patch(3, 4, punctures=[(0, 0), (2, 0)]),
    "walked_tetra": WALKED,  # 7-edge plaquettes
    "walked_torus": walked(build_honeycomb_torus(2, 2), 3, subdivisions=2, flips=3),  # 8-edge plaquettes
}
BASIS_SHA = {  # dimension, configs, amplitudes
    "torus": (4, "52be8d99c734fe86", "ac78474996caa57a"),
    "patch3x3": (2, "30372ca0b598a74c", "97a9ec5f83d0ff46"),
    "patch3x4": (5, "e8bc79716ca97313", "988fdad2ed770463"),
    "walked_tetra": (1, "5d9c709e2d972869", "4b4e1d913d88a9ee"),
    "walked_torus": (4, "4558184d5a1f3abb", "d58b0cedb9b4c96b"),
}
GROUND_SHA = {  # nnz, configs, amplitudes
    ("torus", "valid"): (175, "1d1c4e256044b67f", "a1be050b5d564640"),
    ("torus", "mixed"): (175, "1d1c4e256044b67f", "6876e54e7e1b835b"),
    ("patch3x3", "valid"): (2070, "5cff63a400339e6a", "bfb8ae7d29c19b4b"),
    ("patch3x3", "mixed"): (2070, "5cff63a400339e6a", "919a93c5ed341db8"),
    ("patch3x4", "valid"): (26403, "0e727d363cd1800a", "6a1af85683fcf9f0"),
    ("patch3x4", "mixed"): (26403, "0e727d363cd1800a", "6a1af85683fcf9f0"),
    ("walked_tetra", "valid"): (1123, "5d9c709e2d972869", "6a5084d22984c5d3"),
    ("walked_tetra", "mixed"): (1123, "5d9c709e2d972869", "6a5084d22984c5d3"),
    ("walked_torus", "valid"): (1965, "6018cdf508df1f5e", "bd6b3f1ccdf0ca0a"),
    ("walked_torus", "mixed"): (1965, "6018cdf508df1f5e", "ec529e396dc76d06"),
}


def sha256_prefix(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def pinned_states(lat):
    """A random valid state on 300 configs, and the same state with 40
    random configs added, most of them branching-invalid."""
    rng = np.random.default_rng(11)
    valid = random_valid_state(lat, rng, support=300)
    raw = rng.integers(0, 1 << len(lat.qubit_slots()), size=40, dtype=np.uint64)
    amps = np.concatenate([valid.amps, rng.normal(size=40) + 0j])
    return {"valid": valid, "mixed": make_state(lat, np.concatenate([valid.configs, raw]), amps)}


def ground_project_reference(state, lat):
    """The branching mask, then apply_bp at every non-puncture plaquette."""
    keep = valid_mask(lat, state.configs)
    cur = replace(state, configs=state.configs[keep], amps=state.amps[keep])
    for v in lat.plaquette_vertices():
        if v not in lat.punctures:
            cur = apply_bp(cur, lat, v)
    return cur


@pytest.mark.parametrize("name", sorted(PINNED_LATTICES))
def test_code_space_bases_keep_their_bytes(name):
    basis = statevec.code_space(PINNED_LATTICES[name], DATA)
    got = (len(basis), sha256_prefix(b.configs for b in basis), sha256_prefix(b.amps for b in basis))
    assert got == BASIS_SHA[name]


@pytest.mark.parametrize("name", sorted(PINNED_LATTICES))
def test_ground_project_keeps_its_bytes(name):
    """Equal bytes to the reference loop and to the pinned hashes, with
    the state's version, structure hash and tolerance."""
    lat = PINNED_LATTICES[name]
    for kind, state in pinned_states(lat).items():
        got = ground_project(state, lat, DATA)
        want = ground_project_reference(state, lat)
        assert got.configs.tobytes() == want.configs.tobytes()
        assert got.amps.tobytes() == want.amps.tobytes()
        assert got.amps.shape == got.configs.shape
        assert (got.lattice_version, got.sig_key, got.tolerance) == (
            state.lattice_version,
            state.sig_key,
            state.tolerance,
        )
        pin = (got.nnz(), sha256_prefix([got.configs]), sha256_prefix([got.amps]))
        assert pin == GROUND_SHA[name, kind]


def test_ground_project_runs_the_plaquette_loop_not_apply_bp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("apply_bp called")

    monkeypatch.setattr(statevec, "apply_bp", refuse)
    state = pinned_states(TORUS)["valid"]
    got = ground_project(state, TORUS, DATA)
    assert got.nnz() == GROUND_SHA["torus", "valid"][0]


@functools.lru_cache(maxsize=None)
def cached_reference(name, max_seeds):
    lat = THREE_PUNCTURES if name == "three_punctures" else SEED_LATTICES[name]
    return code_space_reference(lat, max_seeds=max_seeds)


@pytest.mark.parametrize("cap", [1, 2, 3, None])
@pytest.mark.parametrize(
    "name, max_seeds",
    [(n, 24) for n in sorted(SEED_LATTICES)] + [("three_punctures", 24), ("three_punctures", 48)],
)
def test_code_space_matches_per_seed_reference(name, max_seeds, cap):
    """cap columns per block (None: the default SEED_BLOCK); the same
    dimension and span as one seed at a time. On the three-puncture
    patch the default 24 seeds under-count (CHANGES.md), so only
    agreement is checked there."""
    lat = THREE_PUNCTURES if name == "three_punctures" else SEED_LATTICES[name]
    n_valid = len(enumerate_valid_configs(lat, max_qubits=40))
    widths = []
    filter_block = statevec._filter_block

    def spy(lat_, basis, configs, amps, tol):
        widths.append(amps.shape[1])
        return filter_block(lat_, basis, configs, amps, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevec, "_filter_block", spy)
        if cap is not None:
            mp.setattr(statevec, "SEED_BLOCK", cap * n_valid)
        got = statevec.code_space(lat, DATA, max_seeds=max_seeds)
    want = cached_reference(name, max_seeds)
    n_seeds = n_valid if n_valid <= 1024 else min(max_seeds, n_valid)
    width = cap or max(statevec.SEED_BLOCK // n_valid, 1)
    assert sum(widths) == n_seeds and max(widths) == min(width, n_seeds)
    if cap is None and name in ("torus", "walked"):
        # 175 and 2250 valid configs: the default block holds every seed
        assert widths == [n_seeds]
    assert len(got) == len(want)
    assert span_gap(got, want) <= 1e-12
    gram = np.array([[inner(a, b) for b in got] for a in got])
    assert np.max(np.abs(gram - np.eye(len(got)))) <= 1e-12


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan), complex(0.0, np.inf)])
def test_make_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        make_state(TORUS, np.array([0, 3], dtype=np.uint64), np.array([0.6, bad]))
    # a norm that underflows to 0 turned tiny amplitudes into inf+nanj
    tiny = np.array([5e-324, 1e-200])
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            make_state(TORUS, np.array([0, 3], dtype=np.uint64), tiny / np.linalg.norm(tiny))
