import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgm import datagen
from cdgm.errors import CdgmError, CyclicGraph, ShapeMismatch, UsageError
from cdgm.numerics import cholesky, seeded_rng


# --- candidate precision matrices ---------------------------------------


def test_banded_precision_tridiagonal():
    m = datagen.banded_precision(4, 1, 1.0, 0.3)
    expect = np.eye(4)
    for i in range(3):
        expect[i, i + 1] = expect[i + 1, i] = 0.3
    assert np.array_equal(m, expect)


def test_banded_precision_band_geometry():
    m = datagen.banded_precision(4, 3, 1.0, 0.2)
    nz = np.argwhere((m != 0) & ~np.eye(4, dtype=bool))
    assert sorted(map(tuple, nz)) == [(0, 3), (3, 0)]


def test_banded_precision_is_pd():
    for off in (1, 2, 3):
        cholesky(datagen.banded_precision(12, off, 1.0, 0.45))


def test_block_precision_size_one_is_diagonal():
    m = datagen.block_precision(4, 2, 1, 1.5, 0.9)
    assert np.array_equal(m, np.diag([1.0, 1.5, 1.0, 1.0]))


def test_block_precision_placement():
    m = datagen.block_precision(6, 2, 3, 1.0, 0.2)
    outside = m.copy()
    outside[3:, 3:] = 0.0
    assert np.array_equal(outside, np.eye(6) - np.diag([0, 0, 0, 1.0, 1.0, 1.0]))
    assert np.all(m[3:, 3:] == 0.2 + 0.8 * np.eye(3))
    cholesky(m)


def test_mix_precision_weights():
    a, b = np.eye(2), np.array([[2.0, 0.5], [0.5, 2.0]])
    mix = datagen._Mixer([a, b], 2)
    assert np.array_equal(mix([1.0, 0.0]), a)
    assert np.allclose(mix([0.5, 0.5]), (a + b) / 2)
    stack = mix([[1.0, 0.0], [0.5, 0.5]]).copy()
    assert np.array_equal(stack[1], mix([0.5, 0.5]))
    with pytest.raises(ShapeMismatch):
        mix(np.ones((3, 2)))  # more rows than the mixer holds


@pytest.mark.parametrize("setting", ["G1", "G2"])
def test_support_mix_equals_dense_sum_bit_for_bit(setting):
    # zero and negative weights: off the support a dense sum adds
    # 0.0 + (-0.0), which must come out +0.0 as before
    options = {"block_size": 4} if setting == "G2" else {}
    spec = datagen.make_setting(setting, seed=1, p=12, **options)
    weights = np.random.default_rng(2).uniform(-1.0, 1.0, (9, 3))
    weights[::3, 1] = 0.0
    weights[1::3, 0] = -0.0
    dense = np.zeros((9, 12, 12))
    for l, psi in enumerate(spec.candidates):
        dense += weights[:, l, None, None] * psi
    mix = datagen._Mixer(spec.candidates, 9)
    for _ in range(2):  # the reused stack keeps its zeros
        got = mix(weights)
        assert np.array_equal(got, dense)
        assert np.array_equal(np.signbit(got), np.signbit(dense))
    for w, d in zip(weights, dense):
        assert np.array_equal(np.signbit(mix(w)), np.signbit(d)) and np.array_equal(mix(w), d)


def test_mix_precision_convex_random_is_pd():
    gen = np.random.default_rng(0)
    cands = [datagen.banded_precision(8, l, 1.0, 0.3) for l in (1, 2, 3)]
    mix = datagen._Mixer(cands, 1)
    for _ in range(20):
        w = gen.dirichlet(np.ones(3))
        cholesky(mix(w))


# --- covariate branch rules ----------------------------------------------


def _weights(spec, z):
    """Weights and label of one covariate, as a one-row stack."""
    w, c = datagen.covariate_to_weights(spec, [z])
    return w[0], int(c[0])


def test_g1_branch_rules():
    spec = datagen.make_setting("G1", seed=0, p=8)
    w, c = _weights(spec, [0.2, 0.1])
    assert c == 1 and np.allclose(w, [0.2, 0.8, 0.0])
    w, c = _weights(spec, [0.4, 0.5])
    assert c == 2 and np.allclose(w, [0.0, 0.4, 0.6])
    w, c = _weights(spec, [0.7, 0.9])
    assert c == 3 and np.allclose(w, [0.7, 0.0, 0.3])


def test_g1_boundary_goes_to_lower_interval():
    spec = datagen.make_setting("G1", seed=0, p=8)
    assert _weights(spec, [0.5, 1.0 / 3.0])[1] == 1
    assert _weights(spec, [0.5, 2.0 / 3.0])[1] == 2


def test_g2_branches_from_transformed_covariate():
    spec = datagen.make_setting("G2", seed=1, p=9, block_size=3)
    alphas, betas, centers = spec.rbf_params
    # solve nothing: probe both branches through many draws
    gen = np.random.default_rng(0)
    seen = set()
    for _ in range(300):
        z = gen.standard_normal(spec.q)
        w, c = _weights(spec, z)
        seen.add(c)
        zt = w[0]
        if c == 1:
            assert zt > 0.9 or zt <= 0.1
            assert np.allclose(w, [zt, 0.0, 1.0 - zt])
        else:
            assert 0.1 < zt <= 0.9
            assert np.allclose(w, [zt, 0.5, 0.5 - zt])
    assert seen == {1, 2}


def test_rbf_eval_zero_distance():
    assert datagen.rbf_eval([1.0], [1.0], np.zeros((1, 3)), np.zeros((1, 3))).tolist() == [1.0]


def test_rbf_eval_zero_amplitudes():
    z = np.ones((1, 4))
    assert datagen.rbf_eval(np.zeros(5), np.ones(5), np.zeros((5, 4)), z).tolist() == [0.0]
    with pytest.raises(ShapeMismatch):  # one covariate is a stack of one
        datagen.rbf_eval(np.zeros(5), np.ones(5), np.zeros((5, 4)), z[0])


def test_rbf_eval_matches_naive():
    gen = np.random.default_rng(2)
    alphas = gen.uniform(-10, 10, 10)
    betas = gen.uniform(0.1, 0.5, 10)
    centers = gen.uniform(-1, 1, (10, 6))
    z = gen.normal(size=6)
    naive = sum(a * np.exp(-b * np.sum((z - c) ** 2))
                for a, b, c in zip(alphas, betas, centers))
    assert abs(datagen.rbf_eval(alphas, betas, centers, z[None])[0] - naive) < 1e-12


# --- monotone transforms --------------------------------------------------


def test_npn_values():
    assert datagen.npn_transform(0.0, "sin") == 0.0
    assert datagen.npn_transform(-2.0, "square-sign") == -4.0


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=30))
@settings(max_examples=50, deadline=None)
def test_npn_preserves_order(xs):
    xs = np.sort(np.asarray(xs))
    for kind in ("sin", "square-sign"):
        out = datagen.npn_transform(xs, kind)
        assert np.all(np.diff(out) >= -1e-12)


# --- DAG machinery ---------------------------------------------------------


def test_tree_two_nodes():
    a = datagen.random_tree_dag(2, seeded_rng(0, 0))
    assert np.array_equal(a, [[0.0, 0.0], [1.0, 0.0]])


def test_tree_structure_properties():
    for seed in range(10):
        a = datagen.random_tree_dag(17, seeded_rng(seed, 0))
        assert a.sum() == 16  # p-1 edges
        support = a != 0
        assert support.sum(axis=1).max() <= 1  # each node at most one parent
        n_children = support.sum(axis=0)
        assert n_children.max() <= 3
        datagen.topological_order(a)  # acyclic


def test_topological_order_detects_cycles():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 2] = a[2, 0] = 1.0
    with pytest.raises(CyclicGraph):
        datagen.topological_order(a)


def _mixed_dag(spec, z):
    """The weighted DAG the SEM runs on at covariate ``z``."""
    w, _ = _weights(spec, z)
    b1, b2 = spec.candidates
    return w[0] * b1 + w[1] * b2


def test_dag_mix_branches():
    spec = datagen.make_setting("D1", seed=4, p=10)
    Z = [[0.25, -0.7], [0.75, 0.0], [0.75, 1.0], [0.75, 0.5]]
    weights, labels = datagen.covariate_to_weights(spec, Z)
    # the mixed branch puts zero weight on the first tree at z2 = 0
    assert weights.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.25, 0.75]]
    assert labels.tolist() == [1, 3, 3, 3]
    assert datagen.support_keys(spec, Z).tolist() == [
        [True, False], [False, True], [True, False], [True, True]]


def test_sem_linear_zero_adjacency():
    # one sample: the DAG as the only candidate, at weight one
    x = datagen.sem_simulate_batch((np.zeros((4, 4)),), np.ones((1, 1)), np.zeros((1, 4)),
                                   None)[0]
    assert np.array_equal(x, np.zeros(4))


def test_sem_linear_chain_propagates():
    a = np.zeros((2, 2))
    a[1, 0] = 0.7
    x = datagen.sem_simulate_batch((a,), np.ones((1, 1)), np.array([[1.0, 0.0]]), None)[0]
    assert x[0] == 1.0 and x[1] == pytest.approx(0.7)


def test_sem_hermite_matches_direct_recomputation():
    spec = datagen.make_setting("D2", seed=5, p=6)
    at = _mixed_dag(spec, [0.8, 0.6])
    noise = np.linspace(-0.5, 0.5, 6)
    x = datagen.sem_simulate_batch((at,), np.ones((1, 1)), noise[None], spec.hermite_coeffs)[0]
    order = datagen.topological_order(at)
    expect = np.zeros(6)
    for j in order:
        total = noise[j]
        for k in range(6):
            if at[j, k] != 0:
                basis = datagen.hermite_functions(expect[k])
                total += at[j, k] * float(spec.hermite_coeffs[j, k] @ basis)
        expect[j] = total
    assert np.abs(x - expect).max() < 1e-12


def test_hermite_functions_shape_and_decay():
    vals = datagen.hermite_functions(np.array([0.0, 1.0, -30.0]))
    assert vals.shape == (3, 3)
    assert vals[0, 0] == 0.0  # odd function at zero
    assert np.abs(vals[2]).max() < 1e-100  # Gaussian envelope


def test_moralize_chain_has_no_marriage():
    a = np.zeros((3, 3))
    a[1, 0] = a[2, 1] = 1.0  # 0 -> 1 -> 2
    skel = datagen.moralize(a)
    expect = np.zeros((3, 3), dtype=bool)
    expect[0, 1] = expect[1, 0] = expect[1, 2] = expect[2, 1] = True
    assert np.array_equal(skel, expect)


def test_moralize_v_structure_marries_parents():
    a = np.zeros((3, 3))
    a[2, 0] = a[2, 1] = 1.0  # 0 -> 2 <- 1
    skel = datagen.moralize(a)
    assert skel[0, 1] and skel[1, 0]
    assert datagen.moralize(a, pseudo=True)[0, 1] == False  # noqa: E712


def _moralize_bruteforce(a):
    p = a.shape[0]
    support = a != 0
    skel = support | support.T
    for child in range(p):
        parents = np.nonzero(support[child])[0]
        for x in parents:
            for y in parents:
                if x != y:
                    skel[x, y] = True
    np.fill_diagonal(skel, False)
    return skel


def _random_dag(p, gen):
    a = np.zeros((p, p))
    for j in range(1, p):
        for k in range(j):
            if gen.random() < 0.4:
                a[j, k] = gen.uniform(0.4, 1.0) * gen.choice([-1.0, 1.0])
    return a


def test_moralize_matches_bruteforce_parent_pairs():
    gen = np.random.default_rng(8)
    for _ in range(50):
        a = _random_dag(6, gen)
        assert np.array_equal(datagen.moralize(a), _moralize_bruteforce(a))


def test_pseudo_moral_is_subset_missing_exactly_marriages():
    gen = np.random.default_rng(9)
    for _ in range(20):
        a = _random_dag(7, gen)
        full = datagen.moralize(a)
        pseudo = datagen.moralize(a, pseudo=True)
        assert np.all(pseudo <= full)
        support = a != 0
        married = full & ~pseudo
        direct = support | support.T
        assert not np.any(married & direct)


# --- linear SEM precision ---------------------------------------------------


def test_linear_sem_precision_no_edges():
    theta = datagen.linear_sem_precision(np.zeros((3, 3)), noise_var=np.array([1.0, 2.0, 4.0]))
    assert np.allclose(theta, np.diag([1.0, 0.5, 0.25]))


def test_linear_sem_precision_chain_hand_computed():
    a = np.zeros((2, 2))
    a[1, 0] = 0.7
    theta = datagen.linear_sem_precision(a)
    assert np.allclose(theta, [[1.49, -0.7], [-0.7, 1.0]])


def test_linear_sem_precision_matches_monte_carlo():
    gen = np.random.default_rng(12)
    a = _random_dag(8, gen)
    theta = datagen.linear_sem_precision(a)
    n = 1_000_000
    eps = gen.standard_normal((n, 8))
    x = np.linalg.solve(np.eye(8) - a, eps.T).T
    emp_cov = x.T @ x / n
    assert np.abs(emp_cov - np.linalg.inv(theta)).max() < 0.02


def test_linear_sem_precision_support_is_moral_graph():
    gen = np.random.default_rng(13)
    for _ in range(30):
        a = _random_dag(7, gen)
        theta = datagen.linear_sem_precision(a)
        support = np.abs(theta) > 1e-8
        np.fill_diagonal(support, False)
        assert np.array_equal(support, datagen.moralize(a))


# --- dataset generation ------------------------------------------------------


def test_generate_dataset_shapes_and_split_check():
    spec = datagen.make_setting("G1", seed=2, p=10)
    ds = datagen.generate_dataset(spec, 60, (40, 10, 10))
    assert ds.X.shape == (60, 10) and ds.Z.shape == (60, 2)
    assert ds.part("train")[0].shape == (40, 10)
    with pytest.raises(UsageError):
        datagen.generate_dataset(spec, 60, (50, 10, 10))


def test_generate_dataset_deterministic():
    spec = datagen.make_setting("D1", seed=6, p=9)
    a = datagen.generate_dataset(spec, 30, (20, 5, 5))
    b = datagen.generate_dataset(spec, 30, (20, 5, 5))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Z, b.Z)


def test_npn_dataset_is_transformed_gaussian_twin():
    g = datagen.generate_dataset(datagen.make_setting("G1", seed=7, p=8), 40, (30, 5, 5))
    n = datagen.generate_dataset(datagen.make_setting("N1", seed=7, p=8), 40, (30, 5, 5))
    assert np.array_equal(n.Z, g.Z)
    assert np.allclose(n.X, datagen.npn_transform(g.X, "sin"))
    g2 = datagen.generate_dataset(datagen.make_setting("G2", seed=7, p=9, block_size=3), 30, (20, 5, 5))
    n2 = datagen.generate_dataset(datagen.make_setting("N2", seed=7, p=9, block_size=3), 30, (20, 5, 5))
    assert np.allclose(n2.X, datagen.npn_transform(g2.X, "square-sign"))


def test_cluster_skeletons_identical_within_g1_cluster():
    spec = datagen.make_setting("G1", seed=8, p=12)
    ds = datagen.generate_dataset(spec, 120, (120, 0, 0))
    labels = datagen.cluster_labels(spec, ds.Z)
    for cluster in (1, 2, 3):
        members = np.nonzero(labels == cluster)[0]
        skels = [datagen.truth_skeleton(spec, ds.Z[i]) for i in members]
        for s in skels[1:]:
            assert np.array_equal(s, skels[0])


def test_d_setting_truth_is_moralized_support():
    spec = datagen.make_setting("D1", seed=9, p=10)
    ds = datagen.generate_dataset(spec, 40, (40, 0, 0))
    b1, b2 = spec.candidates
    union = (b1 + b2) != 0
    for z in ds.Z:
        support = _mixed_dag(spec, z) != 0
        assert np.array_equal(datagen.truth_skeleton(spec, z), datagen.moralize(support))
        assert np.array_equal(datagen.truth_skeleton(spec, z), _nx_moral_graph(support))
        w, _ = _weights(spec, z)
        if w[0] > 0 and w[1] > 0:
            assert np.array_equal(support, union)


def _nx_moral_graph(a) -> np.ndarray:
    """networkx's moral graph of the DAG with (child, parent) adjacency ``a``."""
    import networkx as nx

    dag = nx.DiGraph()
    dag.add_nodes_from(range(a.shape[0]))
    child, parent = np.nonzero(a)
    dag.add_edges_from(zip(parent.tolist(), child.tolist()))
    skel = np.zeros(a.shape, dtype=bool)
    for j, k in nx.moral_graph(dag).edges():
        skel[j, k] = skel[k, j] = True
    return skel


def test_every_gaussian_theta_is_pd():
    spec = datagen.make_setting("G2", seed=10, p=9, block_size=3)
    ds = datagen.generate_dataset(spec, 200, (200, 0, 0))
    weights, _ = datagen.covariate_to_weights(spec, ds.Z)
    cholesky(datagen._Mixer(spec.candidates, len(weights))(weights))


def test_dataset_roundtrip(tmp_path):
    spec = datagen.make_setting("D2", seed=11, p=8, noise_sd=0.4)
    ds = datagen.generate_dataset(spec, 30, (20, 5, 5))
    datagen.save_dataset(ds, tmp_path / "d", csv=True)
    back = datagen.load_dataset(tmp_path / "d")
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Z, ds.Z)
    assert back.splits == ds.splits
    assert back.spec.setting == "D2" and back.spec.noise_sd == 0.4
    assert np.array_equal(back.spec.candidates[0], spec.candidates[0])
    assert (tmp_path / "d" / "X.csv").exists()
    x_csv = np.loadtxt(tmp_path / "d" / "X.csv", delimiter=",")
    assert np.allclose(x_csv, ds.X)


@pytest.mark.parametrize("setting,options", [
    ("G1", dict(diag_value=1.3, offdiag_value=0.35)),
    ("G2", dict(block_size=20, rbf_terms=6, diag_value=1.5, offdiag_value=0.3)),
    ("N1", dict(p=9)),
    ("N2", dict(block_size=5, rbf_terms=3)),
    ("D1", dict(p=11, noise_sd=0.7)),
    ("D2", dict(noise_sd=1.4, block_size=2))])
def test_dataset_roundtrip_keeps_every_generator_option(tmp_path, setting, options):
    spec = datagen.make_setting(setting, seed=3, **options)
    ds = datagen.generate_dataset(spec, 40, (20, 10, 10))
    datagen.save_dataset(ds, tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    assert list(meta) == ["setting", "n", "p", "q", "seed", "splits", "generator",
                          "resample_count"]
    assert list(meta["generator"]) == ["diag_value", "offdiag_value", "block_size",
                                       "rbf_terms", "noise_sd"]
    back = datagen.load_dataset(tmp_path / "d").spec
    for name in ("setting", "seed", "q") + datagen.GENERATOR_OPTIONS:
        assert getattr(back, name) == getattr(spec, name), name
    for a, b in zip(back.candidates, spec.candidates, strict=True):
        assert np.array_equal(a, b)
    for a, b in zip(back.rbf_params or (), spec.rbf_params or (), strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(back.hermite_coeffs, spec.hermite_coeffs)


@pytest.mark.parametrize("option,value", [
    ("seed", -1), ("p", 3), ("block_size", 0), ("block_size", 17), ("rbf_terms", 0),
    ("diag_value", 0.0), ("diag_value", np.nan), ("offdiag_value", 0.0),
    ("offdiag_value", np.inf), ("noise_sd", -1.0), ("noise_sd", 0.0), ("noise_sd", np.nan)])
def test_setting_spec_range_checks_options_the_setting_does_not_read(option, value):
    # D1 reads none of these but noise_sd; every option is checked anyway
    with pytest.raises(UsageError, match=f"^{option} must"):
        datagen.make_setting("D1", **{"seed": 0, option: value})


@pytest.mark.parametrize("name,cut", [("X.f64", 8), ("Z.f64", 8), ("X.f64", 3)])
def test_load_dataset_rejects_wrong_file_length(tmp_path, name, cut):
    spec = datagen.make_setting("G1", seed=1, p=6)
    datagen.save_dataset(datagen.generate_dataset(spec, 50, (30, 10, 10)), tmp_path / "d")
    path = tmp_path / "d" / name
    path.write_bytes(path.read_bytes()[:-cut])
    cols = 6 if name == "X.f64" else 2
    with pytest.raises(CdgmError, match=f"{name}: ShapeMismatch: expected {50 * cols * 8} bytes"):
        datagen.load_dataset(tmp_path / "d")


@pytest.mark.parametrize("name,bad", [("X.f64", np.nan), ("Z.f64", -np.inf)])
def test_load_dataset_rejects_non_finite_values(tmp_path, name, bad):
    spec = datagen.make_setting("G1", seed=1, p=6)
    datagen.save_dataset(datagen.generate_dataset(spec, 50, (30, 10, 10)), tmp_path / "d")
    path = tmp_path / "d" / name
    values = np.fromfile(path, dtype="<f8").reshape(50, -1)
    values[[23, 41], 1] = bad
    values.tofile(path)
    with pytest.raises(CdgmError, match=f"{name}: ShapeMismatch: row 23 holds NaN or inf"):
        datagen.load_dataset(tmp_path / "d")


def test_load_dataset_reads_the_top_level_seed(tmp_path):
    # the seed is stored once; an edited seed used to be ignored for generator.setting_seed
    spec = datagen.make_setting("G1", seed=7, p=6)
    datagen.save_dataset(datagen.generate_dataset(spec, 50, (30, 10, 10)), tmp_path / "d")
    meta_path = tmp_path / "d" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["seed"] = 99
    meta_path.write_text(json.dumps(meta))
    assert datagen.load_dataset(tmp_path / "d").spec.seed == 99


@pytest.mark.parametrize("key", ["setting_seed", "transpose_coeffs", "p", "noise"])
def test_load_dataset_rejects_an_undeclared_generator_key(tmp_path, key):
    # setting_seed and transpose_coeffs are what older meta.json files hold
    spec = datagen.make_setting("G1", seed=7, p=6)
    datagen.save_dataset(datagen.generate_dataset(spec, 50, (30, 10, 10)), tmp_path / "d")
    meta_path = tmp_path / "d" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["generator"][key] = 7
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CdgmError, match=f"meta.json: TypeError: .*'{key}'"):
        datagen.load_dataset(tmp_path / "d")


def test_load_dataset_names_a_meta_json_it_cannot_parse(tmp_path):
    # a meta.json cut to 40 bytes used to reach the CLI as a bare JSONDecodeError
    spec = datagen.make_setting("G1", seed=1, p=6)
    datagen.save_dataset(datagen.generate_dataset(spec, 50, (30, 10, 10)), tmp_path / "d")
    path = tmp_path / "d" / "meta.json"
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CdgmError) as err:
        datagen.load_dataset(tmp_path / "d")
    assert str(err.value).startswith(f"{path}: JSONDecodeError: ")


@pytest.mark.parametrize("setting,options", [("G1", dict(p=6)), ("G2", dict(p=9, block_size=3))])
def test_load_dataset_rejects_a_q_that_is_not_the_settings(tmp_path, setting, options):
    # a G1 meta.json with q 1 and Z.f64 cut to match used to train a
    # one-covariate network, which `cdgm eval` then could not read
    spec = datagen.make_setting(setting, seed=1, **options)
    datagen.save_dataset(datagen.generate_dataset(spec, 40, (20, 10, 10)), tmp_path / "d")
    meta_path, z_path = tmp_path / "d" / "meta.json", tmp_path / "d" / "Z.f64"
    meta = json.loads(meta_path.read_text())
    meta["q"] = spec.q - 1
    meta_path.write_text(json.dumps(meta))
    z_path.write_bytes(np.fromfile(z_path, dtype="<f8").reshape(40, spec.q)[:, 1:].tobytes())
    with pytest.raises(CdgmError, match=f"q is {spec.q - 1}, not {setting}'s {spec.q}$") as err:
        datagen.load_dataset(tmp_path / "d")
    assert str(err.value).startswith(f"{meta_path}: ")


@pytest.mark.parametrize("splits", [(60, 30, 60), (-10, 70, 60)])
def test_load_dataset_rejects_splits_that_do_not_cover_n(tmp_path, splits):
    # 60/30/60 on 120 rows used to load with a 30-row test split
    spec = datagen.make_setting("G1", seed=1, p=6)
    datagen.save_dataset(datagen.generate_dataset(spec, 120, (60, 30, 30)), tmp_path / "d")
    meta_path = tmp_path / "d" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["splits"] = dict(zip(("train", "val", "test"), splits))
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CdgmError,
                       match=r"meta.json: UsageError: splits .* must be >= 0 and sum to 120"):
        datagen.load_dataset(tmp_path / "d")


@pytest.mark.parametrize("splits", [(-10, 60, 50), (60, 30, 20), (50, 50), (60.7, 20.9, 20)])
def test_generate_dataset_rejects_splits_that_do_not_cover_n(splits):
    # -10/60/50 on 100 rows used to give 90 train rows and an empty val split inside them,
    # and 60.7/20.9/20 was cut to 60/20/20
    spec = datagen.make_setting("G1", seed=1, p=6)
    rule = r"^splits .* must be >= 0 and sum to 100 as integers$"
    with pytest.raises(UsageError, match=rule):
        datagen.generate_dataset(spec, 100, splits)


@pytest.mark.parametrize("setting", ["G2", "N2"])
def test_canonical_g2_n2_generate_for_every_seed(setting):
    # At p=90 the negative-weight branch mixes indefinite precisions; they
    # must be redrawn, not raised as NotPositiveDefinite.
    resamples = 0
    for seed in range(6):
        spec = datagen.make_setting(setting, seed=seed)
        assert spec.p == 90
        ds = datagen.generate_dataset(spec, 200, (100, 50, 50))
        assert ds.X.shape == (200, 90) and np.isfinite(ds.X).all()
        resamples += ds.resample_count
    assert resamples > 0
