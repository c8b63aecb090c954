import math
import tracemalloc

import numpy as np
import pytest

from gfnpool.envs import (
    CHILD_STOP,
    GridEnv,
    MultisetEnv,
    SequenceEnv,
    StateSpace,
)
from gfnpool.errors import (
    EnumerationGuardError,
    FingerprintMismatchError,
    MalformedStateError,
    NoParentsError,
    NotTerminalError,
    UnsupportedFeaturizationError,
)
from gfnpool.envs.space import _key_codes, unique_ints
from tests.conftest import (
    _with,
    assert_key_matrix,
    assert_same_space,
    key_walk,
    level_walk,
    reference_key_walk,
    reference_levels,
)

ALL_ENV_FIXTURES = ["grid3", "mset33", "seq22", "phylo4"]


def walk_random_states(env, rng, n_walks=60):
    """Random-walk sample of reachable states (initial state excluded)."""
    out = []
    for _ in range(n_walks):
        s = env.initial_key()
        while True:
            kids = [(a, c) for a, c, stop in env.children(s) if not stop]
            if not kids or rng.random() < 0.25:
                break
            _, s = kids[rng.integers(len(kids))]
            out.append(s)
    return out


@pytest.mark.parametrize("fixture", ALL_ENV_FIXTURES)
def test_children_parents_duality(fixture, rng, request):
    env = request.getfixturevalue(fixture)
    states = [env.initial_key()] + walk_random_states(env, rng)
    for s in states:
        for a, child, stop in env.children(s):
            if stop:
                continue
            assert (s, a) in env.parents(child)
        if s != env.initial_key():
            for parent, a in env.parents(s):
                assert (a, s, False) in env.children(parent)


@pytest.mark.parametrize("fixture", ALL_ENV_FIXTURES)
def test_enumeration_topological_and_unique(fixture, request):
    env = request.getfixturevalue(fixture)
    space = StateSpace.enumerated(env)
    assert len(set(space.keys)) == space.n_states == env.n_states_estimate()
    # acyclicity via grading: every interior edge increases depth by one
    for i in range(space.n_states):
        row = space.children_rows(np.array([i]))[0]
        for code in row[row >= 0]:
            assert space.depth(int(code)) == space.depth(i) + 1
    # parent counts from the child table agree with the env's own parents()
    assert space.nparents(space.root) == 0
    for i in range(space.n_states):
        if i != space.root:
            assert space.nparents(i) == len(env.parents(space.keys[i]))


@pytest.mark.parametrize("fixture", ALL_ENV_FIXTURES)
def test_terminal_exactly_when_stop_is_legal(fixture, request):
    env = request.getfixturevalue(fixture)
    for space in (StateSpace.enumerated(env), key_walk(env)):
        every = np.arange(space.n_states)
        assert space.terminal_mask(every).tolist() == [env.is_terminal(k) for k in space.keys]


@pytest.mark.parametrize(
    "env",
    [
        MultisetEnv(values=(0.1, -0.2, 0.3), target_size=3),
        MultisetEnv(values=(0.0,) * 4, target_size=8),
        MultisetEnv(values=(0.0,) * 10, target_size=8),
        MultisetEnv(values=(0.0,) * 40, target_size=2),  # 3**40 codes overflow int64
        MultisetEnv(values=(0.0,) * 70, target_size=2),  # 2**70 codes would wrap onto each other
        MultisetEnv(values=(0.0,), target_size=40_000),  # counts past int16
        SequenceEnv(pos_scores=(0.0,), token_scores=(0.0,)),
        SequenceEnv(pos_scores=(0.0,) * 2, token_scores=(0.0,) * 2),
        SequenceEnv(pos_scores=(0.0,) * 4, token_scores=(0.0,) * 4),
        SequenceEnv(pos_scores=(0.0,) * 6, token_scores=(0.0,) * 6),
    ],
    ids=lambda env: "{}-{}x{}".format(*env.structure().values()),
)
def test_level_walk_equals_per_key_walk(env):
    # the estimate is exact here, so a walk that runs away stops at once
    guard = env.n_states_estimate()
    want = reference_key_walk(env, guard)
    got = level_walk(env, guard)
    assert_key_matrix(got, want)
    assert_same_space(got, want)  # builds the keys from the matrix
    assert_same_space(key_walk(env, guard), want)


@pytest.mark.parametrize("fixture", ["grid3", "phylo4"])
def test_per_key_walk_equals_the_reference_and_reads_no_parents(fixture, request):
    env = request.getfixturevalue(fixture)
    calls = []

    def parents(s):
        calls.append(s)
        return env.parents(s)

    space = StateSpace.enumerated(_with(env, parents=parents))
    assert calls == []
    want = reference_key_walk(env)
    assert space.keys == want.keys and space.index == want.index
    for name in ("_children", "_nparents", "_terminal", "_depth"):
        x, y = getattr(space, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
        # no view into the walk's growth buffers, which hold spare rows
        assert x.base is None, name


@pytest.mark.parametrize("fixture", ALL_ENV_FIXTURES)
def test_lazy_space_counts_parents_on_read(fixture, request, rng):
    env = request.getfixturevalue(fixture)
    space = StateSpace(env)
    for _ in range(3):  # expand a few states, so the space is incomplete
        space.children_rows(rng.integers(0, space.n_states, 4))
    assert not space.complete and space.n_states > 1
    read = rng.integers(0, space.n_states, 5)
    got = space.nparents(read)
    assert got.tolist() == [0 if i == space.root else len(env.parents(space.keys[i])) for i in read]
    counted = np.flatnonzero(space._nparents[: space.n_states] >= 0)
    assert set(counted.tolist()) == {space.root, *read.tolist()}
    assert space.nparents(int(read[0])) == got[0]
    with pytest.raises(EnumerationGuardError):
        space.terminal_mask(read)


@pytest.mark.parametrize("width,top", [(3, 2), (70, 1)])  # 2**70 keys need renumbering
def test_key_codes_equal_exactly_for_equal_keys(width, top):
    gen = np.random.default_rng(width)
    lengths = gen.integers(0, width + 1, 300)
    rows = gen.integers(0, top + 1, (300, width)).astype(np.uint8)
    rows[np.arange(width) >= lengths[:, None]] = 0  # zero padding: (1,) and (1, 0) share a row
    keys = [tuple(r[:m]) for r, m in zip(rows.tolist(), lengths.tolist())]
    codes = _key_codes(rows, lengths).tolist()
    assert len(set(zip(keys, codes))) == len(set(keys)) == len(set(codes))


class UnderCountedMultiset(MultisetEnv):
    def n_states_estimate(self) -> int:
        return 1


@pytest.mark.parametrize("walk", [level_walk, key_walk])
def test_guard_crossed_during_the_walk_raises(walk):
    env = UnderCountedMultiset(values=(0.0,) * 4, target_size=8)
    assert walk(env, guard=495).n_states == 495
    with pytest.raises(EnumerationGuardError, match="exceeds guard of 494"):
        walk(env, guard=494)


def test_level_walk_peak_memory_within_the_per_key_walk():
    env = MultisetEnv(values=(0.0,) * 10, target_size=6)
    peaks = []
    for walk in (level_walk, reference_key_walk, key_walk):
        tracemalloc.start()
        try:
            walk(env)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]
    # the program's per-key walk stays within the walk it replaced
    assert peaks[2] <= peaks[1]


@pytest.mark.parametrize("fixture", ALL_ENV_FIXTURES)
def test_reward_positivity_on_terminals(fixture, request):
    env = request.getfixturevalue(fixture)
    space = StateSpace.enumerated(env)
    logs = space.log_rewards(space.terminal_indices())
    assert np.all(np.isfinite(logs))
    assert np.all(np.exp(logs) > 0)


# -- grid ---------------------------------------------------------------------


def test_grid_corner_has_only_stop():
    env = GridEnv(side=9, beacons=((0, 0),))
    assert env.children((8, 8)) == [(2, None, True)]


def test_grid_parents_exact():
    env = GridEnv(side=9, beacons=((0, 0),))
    assert set(env.parents((3, 4))) == {((2, 4), 0), ((3, 3), 1)}
    with pytest.raises(NoParentsError):
        env.parents((0, 0))


def test_grid_enumeration_count():
    env = GridEnv(side=9, beacons=((1, 1),))
    space = StateSpace.enumerated(env)
    assert space.n_states == 81
    assert space.terminal_indices().size == 81  # every cell is terminal


def test_grid_reward_formula():
    env = GridEnv(side=9, beacons=((1, 1), (2, 7)), kappa=1.0, delta=2.0)
    x, y = 4, 4
    d = min(math.hypot(x - 1, y - 1), math.hypot(x - 2, y - 7))
    expected = math.log(1.0 / (1.0 + math.exp(-(2.0 - d))))
    assert env.log_reward((4, 4)) == pytest.approx(expected, abs=1e-12)


def test_grid_featurize():
    env = GridEnv(side=9, beacons=((1, 1),))
    assert np.array_equal(env.featurize((0, 0)), [0.0, 0.0])
    assert np.allclose(env.featurize((3, 6)), [3 / 9, 6 / 9])


def test_grid_malformed_keys():
    env = GridEnv(side=3, beacons=((1, 1),))
    for bad in [(3, 0), (0,), ("a", 1), (0, -1), [0, 0]]:
        with pytest.raises(MalformedStateError):
            env.children(bad)


MALFORMED_KEYS = {
    "mset33": [(0, 0), (-1, 0, 0), (2, 1, 1), [1, 0, 0], (0.5, 0, 0), "abc"],
    "seq22": [(0, 0, 0), (2,), (-1,), [0], ("a",), 7],
    "phylo4": [
        ("0", "1", "2"),  # a leaf is missing
        ("1", "0", "2", "3"),  # forest not sorted
        ("(1,0)", "2", "3"),  # tree not canonical
        ("0", "0", "1", "2", "3"),  # duplicated leaf
        ("(0,1", "2", "3"),  # unbalanced
        (),
        ["0", "1", "2", "3"],
    ],
}


@pytest.mark.parametrize("fixture", sorted(MALFORMED_KEYS))
def test_public_methods_validate_keys(fixture, request):
    env = request.getfixturevalue(fixture)
    for bad in MALFORMED_KEYS[fixture]:
        for method in (env.children, env.is_terminal, env.featurize):
            with pytest.raises(MalformedStateError):
                method(bad)


def test_space_views_share_structure_not_rewards():
    a = MultisetEnv(values=(0.1, 0.5, 0.9), target_size=3)
    b = MultisetEnv(values=(0.7, 0.2, 0.4), target_size=3)
    space = StateSpace.enumerated(a)
    term = space.terminal_indices()
    view = space.for_env(b)
    assert space.for_env(a) is space
    assert view.keys is space.keys and view.index is space.index
    every = np.arange(space.n_states)
    assert np.array_equal(view.children_rows(every), space.children_rows(every))
    assert np.array_equal(view.nparents(every), space.nparents(every))
    got_b = view.log_rewards(term)  # fill the view's cache first
    got_a = space.log_rewards(term)
    assert np.array_equal(got_b, [b.log_reward(space.keys[i]) for i in term])
    assert np.array_equal(got_a, [a.log_reward(space.keys[i]) for i in term])
    assert not np.array_equal(got_a, got_b)
    # a fresh view of the space's own env starts with an empty cache
    fresh = space.view(a)
    assert fresh is not space and fresh.env is a and np.isnan(fresh._logr).all()
    assert np.array_equal(fresh.log_rewards(term), got_a)


def test_space_reads_each_missing_reward_once_in_index_order(rng):
    batches = []

    class Recorded(MultisetEnv):
        def log_rewards(self, keys):
            batches.append(list(keys))
            return super().log_rewards(keys)

    env = Recorded(values=(0.1, 0.5, 0.9), target_size=4)
    space = StateSpace.enumerated(env)
    term = space.terminal_indices()
    idx = rng.choice(term, 3 * term.size)  # unsorted and repeated
    cached: set = set()
    for part in np.array_split(idx, 3):  # later calls meet rewards an earlier one cached
        new = sorted(set(part.tolist()) - cached)
        got = space.log_rewards(part)
        assert batches == [[space.keys[i] for i in new]]
        assert np.array_equal(got, [MultisetEnv.log_reward(env, space.keys[i]) for i in part])
        batches.clear()
        cached.update(new)


def test_unique_ints_equals_np_unique(rng):
    arrays = [np.array([], dtype=np.int64), np.array([7]), np.full(9, -3), np.full(2000, 11)]
    for size in (2, 512, 5000):
        for high in (3, size, 10**12):
            arrays.append(rng.integers(-high, high, size))
    arrays.append(rng.integers(0, 40, (30, 20)))  # the inverse keeps the input's shape
    for a in arrays:
        want, want_inv = np.unique(a, return_inverse=True)
        got, got_inv = unique_ints(a, return_inverse=True)
        assert got.dtype == want.dtype and got_inv.dtype == want_inv.dtype and got_inv.shape == want_inv.shape
        assert np.array_equal(got, want) and np.array_equal(got_inv, want_inv)
        assert np.array_equal(unique_ints(a), want)


@pytest.mark.parametrize("view", [False, True])
def test_space_features_are_the_env_features(view):
    # repeated, unsorted indices, some featurized on an earlier call
    space = StateSpace.enumerated(MultisetEnv(values=(0.1, 0.5, 0.9), target_size=3))
    if view:
        space = space.for_env(MultisetEnv(values=(0.7, 0.2, 0.4), target_size=3))
    for idx in ([5, 2, 5, 0], [13, 2, 9, 5, 9, 0, 19]):
        got = space.features(np.array(idx))
        assert got.shape == (len(idx), space.env.feature_dim)
        for row, i in zip(got, idx):
            assert np.array_equal(row, space.env._featurize(space.keys[i]))


def per_key_features(env, s):
    """The per-key encodings each env gave before featurization went by key
    matrix, kept as the reference the batch form must equal byte for byte."""
    if isinstance(env, GridEnv):
        return np.array([s[0] / env.side, s[1] / env.side])
    if isinstance(env, MultisetEnv):
        return np.asarray(s, dtype=np.float64) / env.target_size
    width = env.num_tokens + 1
    out = np.zeros(env.feature_dim)
    for i in range(env.max_len):
        sym = s[i] if i < len(s) else env.num_tokens  # blank beyond length
        out[i * width + sym] = 1.0
    out[-1] = len(s) / env.max_len
    return out


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fixture", ALL_ENV_FIXTURES)
def test_features_equal_the_per_key_encodings_byte_for_byte(fixture, request):
    env = request.getfixturevalue(fixture)
    space = StateSpace.enumerated(env)
    every = np.arange(space.n_states)
    if env.feature_dim is None:
        with pytest.raises(UnsupportedFeaturizationError):
            space.features(every)
        return
    want = np.array([per_key_features(env, k) for k in space.keys])
    assert_same_bytes(space.features(every), want)
    for k, row in zip(space.keys, want):
        assert_same_bytes(env.featurize(k), row)


def test_features_take_a_blank_wider_than_the_key_matrix_dtype():
    env = SequenceEnv(pos_scores=(0.0,), token_scores=(0.0,) * 256)
    space = StateSpace.enumerated(env)
    assert space._rows.dtype == np.uint8  # tokens 0..255; the blank is 256
    want = np.array([per_key_features(env, k) for k in space.keys])
    assert_same_bytes(space.features(np.arange(space.n_states)), want)


@pytest.mark.parametrize(
    "env",
    [
        GridEnv(side=5, beacons=((1, 1),)),
        MultisetEnv(values=(0.1, 0.5, 0.9), target_size=4),
        SequenceEnv(pos_scores=(0.1,) * 4, token_scores=(0.2,) * 3),
    ],
    ids=["grid", "multiset", "sequence"],
)
def test_features_on_a_lazy_space_equal_the_per_key_encodings(env, rng):
    space = StateSpace(env)
    for _ in range(3):  # expand a few states, so the space is incomplete
        space.children_rows(rng.integers(0, space.n_states, 4))
    assert not space.complete
    idx = rng.integers(0, space.n_states, 3 * space.n_states)  # unsorted and repeated
    for part in np.array_split(idx, 3):  # later calls meet rows an earlier one filled
        want = np.array([per_key_features(env, space.keys[i]) for i in part])
        assert_same_bytes(space.features(part), want)


def test_space_view_rejects_other_dag():
    space = StateSpace.enumerated(MultisetEnv(values=(0.1, 0.5, 0.9), target_size=3))
    with pytest.raises(FingerprintMismatchError):
        space.for_env(MultisetEnv(values=(0.1, 0.5, 0.9), target_size=4))
    with pytest.raises(FingerprintMismatchError):
        space.for_env(GridEnv(side=3, beacons=((1, 1),)))
    lazy = StateSpace(MultisetEnv(values=(0.1, 0.5, 0.9), target_size=3))
    with pytest.raises(EnumerationGuardError):
        lazy.for_env(MultisetEnv(values=(0.3, 0.2, 0.1), target_size=3))


@pytest.mark.parametrize("env", [*ALL_ENV_FIXTURES, "grid2", "deep-multiset"])
def test_levels_are_the_depth_groups(env, request):
    if env == "deep-multiset":  # one item: 2,001 levels of one state each
        env = MultisetEnv(values=(0.3,), target_size=2_000)
    else:
        env = request.getfixturevalue(env)
    space = StateSpace.enumerated(env)
    got, want = space.levels(), reference_levels(space)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_forward_needs_a_complete_space(grid3):
    lazy = StateSpace(grid3)
    with pytest.raises(EnumerationGuardError):
        lazy.forward(lambda lv, held, rows: np.broadcast_to(held[:, None], rows.shape), np.add)


# -- multiset -----------------------------------------------------------------


def test_multiset_children_forced_by_size():
    env = MultisetEnv(values=(0.1, 0.2, 0.3), target_size=2)
    kids = env.children((1, 0, 0))
    assert len(kids) == 3 and all(not stop for _, _, stop in kids)
    assert env.children((1, 1, 0)) == [(3, None, True)]


def test_multiset_parents_distinct_items():
    env = MultisetEnv(values=(0.1, 0.2), target_size=3)
    assert set(env.parents((2, 1))) == {((1, 1), 0), ((2, 0), 1)}


def test_multiset_zero_values_reward():
    env = MultisetEnv(values=(0.0, 0.0, 0.0), target_size=4)
    assert env.log_reward((2, 1, 1)) == 0.0
    with pytest.raises(NotTerminalError):
        env.log_reward((1, 0, 0))


def test_multiset_log_reward_is_dot_with_values():
    env = MultisetEnv(values=(0.1, -0.7, 2.3, 0.45), target_size=5)
    space = StateSpace.enumerated(env)
    for i in space.terminal_indices():
        key = space.keys[i]
        assert env.log_reward(key) == float(np.dot(key, env.values))
    for bad in [(1, 1, 1), (1, 1, 1, 1, 1), (6, 0, 0, -1), (1.0, 2, 1, 1)]:
        with pytest.raises(MalformedStateError):
            env.log_reward(bad)


def test_multiset_counts_stars_and_bars():
    env = MultisetEnv(values=tuple(np.linspace(0, 1, 10)), target_size=8)
    space = StateSpace.enumerated(env)
    assert space.n_states == math.comb(18, 8) == 43758
    assert space.terminal_indices().size == math.comb(17, 8) == 24310


def test_multiset_featurize_scaling():
    env = MultisetEnv(values=(0.0,) * 3, target_size=8)
    assert np.allclose(env.featurize((2, 0, 1)), [0.25, 0.0, 0.125])


# -- sequence -----------------------------------------------------------------


def test_sequence_reward_arithmetic(seq22):
    # positions (1, 2), token scores (0.5, -0.25): 1*0.5 + 2*(-0.25) = 0
    assert seq22.log_reward((0, 1)) == pytest.approx(0.0, abs=1e-15)
    assert seq22.log_reward(()) == 0.0  # empty sequence


def test_sequence_stop_everywhere_and_cap():
    env = SequenceEnv(pos_scores=(1.0, 1.0), token_scores=(0.0, 0.0, 0.0))
    assert (env.stop_action, None, True) in env.children(())
    assert env.children((0, 1)) == [(3, None, True)]  # length cap
    assert env.parents((0, 1)) == [((0,), 1)]


def test_sequence_enumeration_geometric_sum():
    env = SequenceEnv(pos_scores=(0.0,) * 6, token_scores=(0.0,) * 6)
    space = StateSpace.enumerated(env)
    assert space.n_states == sum(6**k for k in range(7)) == 55987


def test_sequence_featurize_blank_padding():
    env = SequenceEnv(pos_scores=(1.0,) * 3, token_scores=(0.0, 0.0))
    f = env.featurize(())
    assert f.shape == (3 * 3 + 1,)
    assert f[-1] == 0.0
    # each position carries the blank symbol
    blanks = [f[i * 3 + 2] for i in range(3)]
    assert blanks == [1.0, 1.0, 1.0]
    f2 = env.featurize((1, 0))
    assert f2[-1] == pytest.approx(2 / 3)
    assert f2[0 * 3 + 1] == 1.0 and f2[1 * 3 + 0] == 1.0 and f2[2 * 3 + 2] == 1.0


# -- guards and misc ----------------------------------------------------------


def test_enumeration_guard_raises():
    env = SequenceEnv(pos_scores=(0.0,) * 6, token_scores=(0.0,) * 6)
    with pytest.raises(EnumerationGuardError):
        StateSpace.enumerated(env, guard=1000)


def test_fingerprint_structural_only():
    a = GridEnv(side=5, beacons=((0, 0),))
    b = GridEnv(side=5, beacons=((4, 4), (1, 2)))
    c = GridEnv(side=6, beacons=((0, 0),))
    assert a.fingerprint() == b.fingerprint()  # rewards differ, structure equal
    assert a.fingerprint() != c.fingerprint()


def test_phylo_has_no_featurization(phylo4):
    with pytest.raises(UnsupportedFeaturizationError):
        phylo4.featurize(phylo4.initial_key())
    assert phylo4.feature_dim is None


def test_space_children_codes(grid3, grid3_space):
    row = grid3_space.children_rows(np.array([grid3_space.index[(2, 2)]]))[0]
    assert row[2] == CHILD_STOP and row[0] == -1 and row[1] == -1
