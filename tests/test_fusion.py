"""Fibonacci category tables: frozen values and self-consistency."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvq import coherence
from tvq.coherence import _fan_polygon, _match_residual, pentagon_residual
from tvq.fusion import (
    PHI,
    FusionData,
    admissible_ef,
    f_unitarity_residual,
    fibonacci_data,
    fusion_from_json,
    fusion_to_json,
    trivial_data,
    vacuum_s_vector,
    verify_f_unitarity,
    verify_pentagon_coherence,
)
from tvq.lattice import Edge, MoveError, SurfaceLattice, pachner_22
from tvq.statevec import _fmove_tables, bit_positions, enumerate_valid_configs

INV_PHI = 0.6180339887498949
INV_SQRT_PHI = 0.7861513777574233


@pytest.fixture(scope="module")
def fib():
    return fibonacci_data()


def test_qdim_is_golden_ratio(fib):
    assert fib.qdim[0] == 1.0
    assert fib.qdim[1] == pytest.approx(1.6180339887498949, abs=1e-14)
    # defining identity, not a truncated literal
    assert abs(fib.qdim[1] ** 2 - fib.qdim[1] - 1.0) < 1e-14


def test_total_dim_sq(fib):
    assert fib.total_dim_sq == pytest.approx(1.0 + PHI**2, abs=1e-14)
    assert fib.total_dim_sq == pytest.approx(3.618033988749895, abs=1e-12)


def test_branching_table(fib):
    allowed = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert fib.branching[a, b, c] == ((a, b, c) in allowed)
    assert fib.branching.sum() == 5
    assert fib.admissible(1, 1, 0)
    assert not fib.admissible(1, 0, 0)


def test_branching_fully_symmetric(fib):
    t = fib.branching
    assert np.array_equal(t, t.transpose(0, 2, 1))
    assert np.array_equal(t, t.transpose(1, 0, 2))
    assert np.array_equal(t, t.transpose(2, 1, 0))


def test_golden_block_frozen_values(fib):
    assert fib.fsym[1, 1, 1, 1, 0, 0] == pytest.approx(INV_PHI, abs=1e-14)
    assert fib.fsym[1, 1, 1, 1, 0, 1] == pytest.approx(INV_SQRT_PHI, abs=1e-14)
    assert fib.fsym[1, 1, 1, 1, 1, 0] == pytest.approx(INV_SQRT_PHI, abs=1e-14)
    assert fib.fsym[1, 1, 1, 1, 1, 1] == pytest.approx(-INV_PHI, abs=1e-14)


def test_non_golden_admissible_entries_are_one(fib):
    for idx in np.argwhere(fib.fsym != 0.0):
        a, b, c, d, e, f = (int(x) for x in idx)
        if (a, b, c, d) != (1, 1, 1, 1):
            assert fib.fsym[a, b, c, d, e, f] == 1.0


def test_inadmissible_entries_are_zero(fib):
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    for e in range(2):
                        for f in range(2):
                            ok = (
                                fib.branching[a, b, e]
                                and fib.branching[e, c, d]
                                and fib.branching[b, c, f]
                                and fib.branching[a, f, d]
                            )
                            if not ok:
                                assert fib.fsym[a, b, c, d, e, f] == 0.0


def test_f_unitarity_holds(fib):
    assert verify_f_unitarity(fib)


def _with_fsym(data, fsym):
    return FusionData(
        num_labels=data.num_labels,
        qdim=data.qdim,
        branching=data.branching,
        fsym=fsym,
        total_dim_sq=data.total_dim_sq,
    )


def test_f_unitarity_rejects_perturbation(fib):
    fsym = fib.fsym.copy()
    fsym[1, 1, 1, 1, 0, 1] += 0.01
    assert not verify_f_unitarity(_with_fsym(fib, fsym))


def test_f_unitarity_accepts_identity_blocks(fib):
    fsym = np.zeros_like(fib.fsym)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    es, fs = admissible_ef(fib, a, b, c, d)
                    for e, f in zip(es, fs):
                        fsym[a, b, c, d, e, f] = 1.0
    assert verify_f_unitarity(_with_fsym(fib, fsym))


@settings(max_examples=40, deadline=None)
@given(pick=st.integers(min_value=0, max_value=12), eps=st.sampled_from([0.01, -0.01, 0.05, 0.3]))
def test_any_admissible_perturbation_breaks_unitarity(pick, eps):
    data = fibonacci_data()
    nonzero = np.argwhere(data.fsym != 0.0)
    idx = tuple(int(x) for x in nonzero[pick % len(nonzero)])
    fsym = data.fsym.copy()
    fsym[idx] += eps
    assert not verify_f_unitarity(_with_fsym(data, fsym))


def test_vacuum_s_vector_frozen(fib):
    v = vacuum_s_vector(fib)
    assert v[0] == pytest.approx(0.5257311121191336, abs=1e-12)
    assert v[1] == pytest.approx(0.8506508083520399, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_vacuum_s_vector_trivial_category():
    v = vacuum_s_vector(trivial_data())
    assert v.shape == (1,)
    assert v[0] == pytest.approx(1.0, abs=1e-15)


def test_trivial_category_tables():
    triv = trivial_data()
    assert triv.num_labels == 1
    assert verify_f_unitarity(triv)


def test_json_round_trip(fib):
    text = fusion_to_json(fib)
    back = fusion_from_json(text)
    assert back.num_labels == fib.num_labels
    assert np.array_equal(back.qdim, fib.qdim)
    assert np.array_equal(back.branching, fib.branching)
    assert np.array_equal(back.fsym, fib.fsym)
    assert back.total_dim_sq == fib.total_dim_sq
    # serialization is stable (golden-file requirement)
    assert fusion_to_json(back) == text


def test_json_rejects_shape_mismatch(fib):
    doc = json.loads(fusion_to_json(fib))
    doc["num_labels"] = 3
    with pytest.raises(ValueError):
        fusion_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: {}, "KeyError: 'num_labels'"),
        (lambda doc: [], "TypeError"),
        (lambda doc: {**doc, "num_labels": "2"}, "num_labels must be a positive integer"),
        (lambda doc: {k: v for k, v in doc.items() if k != "fsym"}, "KeyError: 'fsym'"),
        (lambda doc: {**doc, "branching": [[0, 0, 2]]}, "not a triple of labels below 2"),
        (lambda doc: {**doc, "branching": [[0, 0, -1]]}, "not a triple of labels below 2"),
        (lambda doc: {**doc, "branching": [[0, 0]]}, "ValueError"),
        (lambda doc: {**doc, "qdim": "ab"}, "ValueError"),
    ],
)
def test_json_rejects_malformed_documents(fib, edit, message):
    doc = edit(json.loads(fusion_to_json(fib)))
    with pytest.raises(MoveError, match=message):
        fusion_from_json(json.dumps(doc))
    with pytest.raises(MoveError, match="JSONDecodeError"):
        fusion_from_json("x")


def test_pentagon_coherence_holds(fib):
    assert verify_pentagon_coherence(fib)


def test_pentagon_rejects_sign_flip(fib):
    fsym = fib.fsym.copy()
    fsym[1, 1, 1, 1, 1, 1] *= -1.0
    assert not verify_pentagon_coherence(_with_fsym(fib, fsym))


def test_pentagon_sees_past_orthogonality(fib):
    # negating the whole golden block keeps every F-block orthogonal but
    # breaks the five-term identity, so the walk must still reject it
    fsym = fib.fsym.copy()
    fsym[1, 1, 1, 1] = -fsym[1, 1, 1, 1]
    bad = _with_fsym(fib, fsym)
    assert verify_f_unitarity(bad)
    assert not verify_pentagon_coherence(bad)


def test_pentagon_trivial_category():
    assert verify_pentagon_coherence(trivial_data())


# ---- measured residuals ------------------------------------------------------------
#
# The verifiers compare a measured residual with tol. The pass/fail walk
# they replace gave these verdicts at tol = 1e-16, 1e-15, ..., 1e-8
# (T pass, F fail); the measured ones must give the same.

TOLS = [10.0**-k for k in range(16, 7, -1)]

# golden blocks that pass no pentagon walk: diagonal signs swapped, and
# two orthogonal blocks of rational entries
WRONG_BLOCKS = {
    "swapped_diagonal": [[-1 / PHI, PHI**-0.5], [PHI**-0.5, 1 / PHI]],
    "reflection_3_4_5": [[0.6, 0.8], [0.8, -0.6]],
    "rotation_3_4_5": [[0.6, -0.8], [0.8, 0.6]],
}

VERDICTS = {
    # name: (verify_f_unitarity, verify_pentagon_coherence)
    "fibonacci": ("FTTTTTTTT", "FTTTTTTTT"),
    "trivial": ("TTTTTTTTT", "TTTTTTTTT"),
    "non_orthogonal": ("FFFFFFFFF", "FFFFFFFFF"),
    "swapped_diagonal": ("FTTTTTTTT", "FFFFFFFFF"),
    "reflection_3_4_5": ("TTTTTTTTT", "FFFFFFFFF"),
    "rotation_3_4_5": ("TTTTTTTTT", "FFFFFFFFF"),
}


def verdict_input(name):
    fib = fibonacci_data()
    if name == "fibonacci":
        return fib
    if name == "trivial":
        return trivial_data()
    fsym = fib.fsym.copy()
    if name == "non_orthogonal":
        fsym[1, 1, 1, 1, 0, 1] += 0.01
    else:
        fsym[1, 1, 1, 1] = np.array(WRONG_BLOCKS[name])
    return _with_fsym(fib, fsym)


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_measured_verifiers_keep_the_pass_fail_verdicts(name):
    data = verdict_input(name)
    unitary, coherent = VERDICTS[name]
    assert "".join("T" if verify_f_unitarity(data, tol) else "F" for tol in TOLS) == unitary
    assert "".join("T" if verify_pentagon_coherence(data, tol) else "F" for tol in TOLS) == coherent


def test_residuals_of_the_shipped_data(fib):
    assert f_unitarity_residual(fib) == 1.1102230246251565e-16
    assert 0.0 < pentagon_residual(fib) < 1e-15
    assert f_unitarity_residual(trivial_data()) == 0.0
    assert pentagon_residual(trivial_data()) == 0.0


def test_f_unitarity_residual_takes_both_products(fib):
    # |B B^T - I| peaks at 0.5 and |B^T B - I| at 0.75 for this block
    fsym = fib.fsym.copy()
    fsym[1, 1, 1, 1] = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert f_unitarity_residual(_with_fsym(fib, fsym)) == 0.75
    fsym[1, 1, 1, 1] = fsym[1, 1, 1, 1].T.copy()
    assert f_unitarity_residual(_with_fsym(fib, fsym)) == 0.75


def test_f_unitarity_residual_without_blocks_or_with_unequal_label_sets(fib):
    empty = FusionData(
        num_labels=fib.num_labels,
        qdim=fib.qdim,
        branching=np.zeros_like(fib.branching),
        fsym=np.zeros_like(fib.fsym),
        total_dim_sq=fib.total_dim_sq,
    )
    assert f_unitarity_residual(empty) == 0.0
    # without the vertex (0, 1, 1) the outer strands (0, 1, 1, 0) admit
    # no old internal label but the new one f = 0
    branching = fib.branching.copy()
    branching[0, 1, 1] = False
    lopsided = FusionData(
        num_labels=fib.num_labels,
        qdim=fib.qdim,
        branching=branching,
        fsym=fib.fsym,
        total_dim_sq=fib.total_dim_sq,
    )
    assert admissible_ef(lopsided, 0, 1, 1, 0) == ([], [0])
    assert f_unitarity_residual(lopsided) == math.inf
    assert not verify_f_unitarity(lopsided, tol=1e300)


def test_match_residual_aligns_relabeled_copies(fib):
    # the pentagon with its qubit slots rotated: the same triangulation
    # with another bit order, as two rewrite paths can meet
    lat = _fan_polygon(5)
    slots = lat.qubit_slots()
    moved = dict(zip(slots, slots[1:] + slots[:1]))
    edges = {e: Edge(rec.v1, rec.v2, moved[rec.qubit]) for e, rec in lat.edges.items()}
    copy = SurfaceLattice(lat.topology, dict(lat.vertices), edges, dict(lat.triangles))
    cfgs = enumerate_valid_configs(lat, fib)
    pos, pos_copy = bit_positions(lat), bit_positions(copy)
    relabeled = np.array(
        [sum(((int(c) >> pos[e]) & 1) << pos_copy[e] for e in pos) for c in cfgs], dtype=np.uint64
    )
    order = np.argsort(relabeled)
    cfgs_copy = relabeled[order]
    assert np.array_equal(cfgs_copy, enumerate_valid_configs(copy, fib))
    amps = np.random.default_rng(3).normal(size=(len(cfgs), 4))
    assert _match_residual(cfgs, amps, lat, cfgs_copy, amps[order], copy) == 0.0
    shifted = amps[order] + 1e-3
    assert _match_residual(cfgs, amps, lat, cfgs_copy, shifted, copy) == pytest.approx(1e-3)
    # no matching aligns a config set that lost a config
    assert _match_residual(cfgs, amps, lat, cfgs_copy[1:], shifted[1:], copy) == math.inf


def test_match_residual_refuses_different_complexes(fib):
    # the same pentagon with one diagonal flipped: apply_cpi finds no
    # image for the flipped edge, so no relabeling aligns the two
    lat = _fan_polygon(5)
    diagonal = max(lat.edges)
    flipped, _ = pachner_22(lat, diagonal)
    cfgs, cfgs_flipped = enumerate_valid_configs(lat, fib), enumerate_valid_configs(flipped, fib)
    assert len(cfgs) == len(cfgs_flipped)
    eye = np.eye(len(cfgs))
    assert _match_residual(cfgs, eye, lat, cfgs_flipped, eye, flipped) == math.inf


def test_pentagon_walk_reads_the_kernel_fmove_tables(fib):
    # a copy of the Fibonacci data whose kept F-move tables have stay and
    # flip swapped: the walk must see the tables the state kernels read
    stay, flip, runs = _fmove_tables(fib)
    swapped = replace(fib)
    swapped.tables["fmove"] = (flip, stay, runs)
    assert np.array_equal(swapped.fsym, fib.fsym)
    assert pentagon_residual(swapped) > 1e-3


def test_pentagon_walk_compares_relabeled_copies(fib, monkeypatch):
    # the walk meets relabeled copies 5 times on the Fibonacci data; each
    # comparison must reach the residual, even one that alone sets it
    calls = []

    def counted(*args):
        calls.append(args)
        return _match_residual(*args)

    monkeypatch.setattr(coherence, "_match_residual", counted)
    pentagon_residual(fib)
    assert len(calls) == 5
    monkeypatch.setattr(coherence, "_match_residual", lambda *args: 1.0)
    assert pentagon_residual(fib) == 1.0
