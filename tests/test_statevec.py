"""Amplitude layer: projectors, Pachner isometries, permutations, snapshots.

The plaquette tests compare the vectorized operator against a dense matrix
rebuilt here with plain loops straight from the fan product formula, so the
two implementations share no code beyond the F-symbol table itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from tvq.fusion import fibonacci_data
from tvq.lattice import (
    MoveError,
    build_honeycomb_torus,
    build_planar_patch,
    build_tetra_sphere,
    build_theta_sphere,
    pachner_13,
    pachner_22,
    sigma_from_vertex_map,
)
from tvq.statevec import (
    StringNetState,
    VersionError,
    _bp_matrix,
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


def bp_block_reference(n, lkey):
    """Plaquette block by explicit loops over s and the n factors, in the
    kernel's product order, vectorized only over the (out, in) entries."""
    out = np.arange(1 << n)[:, None]
    inp = np.arange(1 << n)[None, :]

    def bit(x, i):
        return (x >> (i % n)) & 1

    mat = np.zeros((1 << n, 1 << n))
    for s in range(DATA.num_labels):
        prod = np.ones((1 << n, 1 << n))
        for i in range(n):
            leg = (lkey >> i) & 1
            prod = prod * DATA.fsym[leg, bit(inp, i), s, bit(out, i + 1), bit(inp, i + 1), bit(out, i)]
        mat += (DATA.qdim[s] / DATA.total_dim_sq) * prod
    return mat


@pytest.mark.parametrize("n", range(3, 9))
def test_bp_block_matches_per_entry_reference(n):
    full = (1 << n) - 1
    for lkey in sorted({0, 1, full, full ^ 1, 0b0101_0101 & full, 0b0110_1011 & full}):
        got = _bp_matrix(DATA, n, lkey)
        assert got.shape == (1 << n, 1 << n)
        assert np.max(np.abs(got - bp_block_reference(n, lkey))) <= 1e-15


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


# ---- permutations ------------------------------------------------------------------


def test_translation_permutation_round_trip(torus):
    vmap = {}
    for j in range(2):
        for i in range(2):
            vmap[(i % 2) + 2 * (j % 2)] = ((i + 1) % 2) + 2 * (j % 2)
    sigma = sigma_from_vertex_map(torus, torus, vmap)
    st = random_valid_state(torus, np.random.default_rng(29))
    st1, lat1 = apply_state_permutation(st, torus, sigma)
    assert abs(st1.norm() - 1.0) < 1e-12
    assert np.allclose(np.sort(np.abs(st1.amps)), np.sort(np.abs(st.amps)))
    inv = {v: k for k, v in sigma.items()}
    st2, lat2 = apply_state_permutation(st1, lat1, inv)
    assert st2.configs.tolist() == st.configs.tolist()
    assert np.allclose(st2.amps, st.amps)


def test_permutation_rejects_non_automorphism(torus):
    sigma = {q: q for q in range(12)}
    sigma[0], sigma[1] = 1, 0  # mixes an h edge with a v edge
    st = make_delta_state(torus, 0)
    with pytest.raises(MoveError):
        apply_state_permutation(st, torus, sigma)


# ---- snapshots and rebinding -------------------------------------------------------


def test_state_jsonlines_round_trip(torus):
    st = random_valid_state(torus, np.random.default_rng(31))
    text = state_to_jsonlines(st, torus)
    back = state_from_jsonlines(text, torus)
    assert back.configs.tolist() == st.configs.tolist()
    assert np.array_equal(back.amps, st.amps)
    assert state_to_jsonlines(back, torus) == text


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
