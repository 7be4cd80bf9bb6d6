"""Unit tests for the 30-parameter Spark configuration space and the
Sobol' low-discrepancy sampler."""
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.core.config_space import (
    _JOE_KUO, SPARK_PARAMS, ConfigSpace, Param, _directions, _log_units, hibench_space, sobol,
)


# The scalar per-parameter maps the space's block maps replaced, kept as
# the reference they must equal bit for bit.
def _oracle_to_unit(p: Param, value) -> float:
    if p.kind == "cat":
        return p.choices.index(value) / max(len(p.choices) - 1, 1)
    v = float(value)
    if p.log:
        return (math.log(v) - math.log(p.low)) / (math.log(p.high) - math.log(p.low))
    return (v - p.low) / (p.high - p.low)


def _oracle_from_unit(p: Param, u: float):
    u = min(max(float(u), 0.0), 1.0)
    if p.kind == "cat":
        return p.choices[int(round(u * (len(p.choices) - 1)))]
    if p.log:
        v = math.exp(math.log(p.low) + u * (math.log(p.high) - math.log(p.low)))
    else:
        v = p.low + u * (p.high - p.low)
    if p.kind == "int":
        return int(min(max(round(v), p.low), p.high))
    return float(v)


def _oracle_config(space: ConfigSpace, u) -> dict:
    return {p.name: _oracle_from_unit(p, x) for p, x in zip(space.params, u)}


def _oracle_units(space: ConfigSpace, config: dict) -> np.ndarray:
    return np.array([_oracle_to_unit(p, config[p.name]) for p in space.params])


def _same(got: dict, want: dict) -> bool:
    """Equal configs, with every value of the same type."""
    return got == want and [type(v) for v in got.values()] == [type(v) for v in want.values()]


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


class TestParams:
    def test_thirty_parameters(self, space):
        assert space.dim == 30  # paper §2.1: 30 performance-critical params

    def test_names_unique(self, space):
        assert len(set(space.names)) == 30

    def test_defaults_within_ranges(self):
        for p in SPARK_PARAMS:
            if p.kind == "cat":
                assert p.default in p.choices
            else:
                assert p.low <= p.default <= p.high

    def test_key_params_present(self, space):
        for name in (
            "spark.executor.instances", "spark.executor.cores",
            "spark.executor.memory", "spark.memory.fraction",
            "spark.memory.storageFraction", "spark.default.parallelism",
            "spark.sql.shuffle.partitions", "spark.io.compression.codec",
            "spark.serializer",
        ):
            assert name in space.names

    def test_param_unit_roundtrip_int(self):
        space = ConfigSpace((Param("x", "int", 1, 800, log=True, default=8),))
        for v in (1, 8, 100, 800):
            assert space.from_unit(space.to_unit({"x": v})) == {"x": v}

    def test_param_unit_roundtrip_cat(self):
        space = ConfigSpace((Param("c", "cat", choices=("a", "b", "c"), default="a"),))
        for v in ("a", "b", "c"):
            assert space.from_unit(space.to_unit({"c": v})) == {"c": v}

    def test_param_unit_clamps(self):
        space = ConfigSpace((Param("x", "float", 0.4, 0.9),))
        assert space.from_unit([-3.0])["x"] == pytest.approx(0.4)
        assert space.from_unit([7.0])["x"] == pytest.approx(0.9)


class TestSpace:
    def test_unit_roundtrip_default(self, space):
        d = space.default_config()
        assert space.from_unit(space.to_unit(d)) == space.clip(d)

    def test_unit_vector_in_cube(self, space):
        rng = np.random.default_rng(0)
        for c in space.sample_random(20, rng):
            u = space.to_unit(c)
            assert np.all(u >= -1e-9) and np.all(u <= 1 + 1e-9)

    def test_cat_mask(self, space):
        mask = space.cat_mask
        assert mask.sum() == sum(1 for p in space.params if p.kind == "cat")
        assert mask[space.index_of("spark.serializer")]
        assert not mask[space.index_of("spark.executor.instances")]

    # random configs inside a sub-space are uniform blocks on its dims
    # around a base row, as the generator and the fixed-sub-space
    # baselines draw them
    def test_sample_random_respects_subspace(self, space):
        rng = np.random.default_rng(0)
        base = space.default_config()
        dims = [0, 2]
        cands = space.snap_subspace(rng.random((10, len(dims))), dims, space.to_unit(base))
        for r in range(len(cands)):
            c = space.from_unit(cands.raw_row(r))
            for i, p in enumerate(space.params):
                if i not in dims:
                    assert c[p.name] == base[p.name]

    def test_sample_random_varies_subspace(self, space):
        rng = np.random.default_rng(0)
        cands = space.snap_subspace(rng.random((20, 1)), [0],
                                    space.to_unit(space.default_config()))
        vals = {space.from_unit(cands.raw_row(i))["spark.executor.instances"]
                for i in range(len(cands))}
        assert len(vals) > 3

    def test_clip_snaps_to_grid(self, space):
        cfg = space.default_config() | {"spark.executor.instances": 12345}
        assert space.clip(cfg)["spark.executor.instances"] == 800

    def test_clip_rounds_ints_half_to_even(self, space):
        # in value space, where the scalar unit round trip broke such a
        # tie by its float error (12.5 executors went to 13)
        cfg = space.default_config() | {"spark.executor.instances": 12.5,
                                        "spark.executor.cores": 2.5}
        got = space.clip(cfg)
        assert (got["spark.executor.instances"], got["spark.executor.cores"]) == (12, 2)

    def test_to_unit_rejects_off_grid(self):
        # hibench's executor table ends at 96: 97 would read the next table
        space = hibench_space()
        for name, v in (("spark.executor.instances", 97), ("spark.executor.instances", 0),
                        ("spark.executor.cores", 2.5), ("spark.memory.fraction", 0.95),
                        ("spark.memory.fraction", float("nan"))):
            with pytest.raises(ValueError, match=name):
                space.to_unit(space.default_config() | {name: v})

    def test_index_of(self, space):
        assert space.names[space.index_of("spark.serializer")] == "spark.serializer"

    def test_hibench_space_smaller(self):
        hb = hibench_space()
        assert hb.dim == 30
        p = hb.params[hb.index_of("spark.executor.instances")]
        assert p.high == 96

    def test_sample_sobol_configs_valid(self, space):
        for c in space.sample_sobol(8, seed=1):
            u = space.to_unit(c)
            assert np.all((u >= 0) & (u <= 1))


_UNIT = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
_SPACES = {"spark": ConfigSpace(), "hibench": hibench_space()}
#: Spaces that lack whole parameter kinds.
_PARTIAL = {
    "cat only": ConfigSpace(tuple(p for p in SPARK_PARAMS if p.kind == "cat")),
    "float only": ConfigSpace(tuple(p for p in SPARK_PARAMS if p.kind == "float")),
    "one log int": ConfigSpace((SPARK_PARAMS[0],)),
    "no cat": ConfigSpace(tuple(p for p in SPARK_PARAMS if p.kind != "cat")),
}


def _off_grid_values(p: Param):
    """Values of ``p`` on and off its grid, for ``clip`` and ``to_unit``:
    ints out of range or non-integral (log ints stay > 0, where the
    reference's ``math.log`` is defined), floats out of range. Values
    near a half-integer are left out: there rint breaks the tie and the
    reference its float error (``test_clip_rounds_ints_half_to_even``)."""
    if p.kind == "cat":
        return st.sampled_from(p.choices)
    span = p.high - p.low
    if p.kind == "float":
        return st.floats(p.low - span, p.high + span)
    low = max(p.low - span, 1) if p.log else p.low - span
    ints = st.integers(int(low), int(p.high + span))
    fracs = st.floats(low, p.high + span).filter(lambda v: abs(v % 1.0 - 0.5) > 1e-6)
    return st.one_of(ints, ints.map(float), fracs)


@st.composite
def _space_and_config(draw):
    space = (_SPACES | _PARTIAL)[draw(st.sampled_from(sorted(_SPACES | _PARTIAL)))]
    config = {p.name: draw(_off_grid_values(p)) for p in space.params}
    cats = [p.name for p in space.params if p.kind == "cat"]
    if cats and draw(st.integers(0, 9)) == 0:  # now and then, a value outside the choices
        config[draw(st.sampled_from(cats))] = "unknown"
    return space, config


class TestVectorized:
    """The space's block maps equal the scalar reference maps exactly."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_SPACES | _PARTIAL)),
           st.lists(st.lists(_UNIT, min_size=30, max_size=30), min_size=1, max_size=8))
    def test_snap_equals_scalar_roundtrip(self, which, rows):
        space = (_SPACES | _PARTIAL)[which]
        U = np.array(rows)[:, :space.dim]
        V, S = space.snap(U)
        for v, s, u in zip(V, S, U):
            want = _oracle_config(space, u)
            assert _same(space.from_unit(u), want)
            assert np.array_equal(s, _oracle_units(space, want))
            assert np.array_equal(space.to_unit(want), s)
            assert list(v) == [p.choices.index(want[p.name]) if p.kind == "cat"
                               else want[p.name] for p in space.params]

    def test_snap_equals_scalar_roundtrip_bulk(self):
        # many rows, inside and outside the cube (both maps clamp)
        U = np.random.default_rng(0).uniform(-0.2, 1.2, (4000, 30))
        for space in (_SPACES | _PARTIAL).values():
            Us = U[:, :space.dim]
            _, S = space.snap(Us)
            want = [_oracle_config(space, u) for u in Us]
            assert np.array_equal(S, np.array([_oracle_units(space, c) for c in want]))
            assert all(_same(space.from_unit(u), c) for u, c in zip(Us, want))

    @settings(max_examples=200, deadline=None)
    @given(_space_and_config())
    def test_clip_and_to_unit_equal_scalar_reference(self, space_config):
        space, config = space_config
        if "unknown" in config.values():
            for fn in (space.clip, space.to_unit):
                with pytest.raises(ValueError):
                    fn(config)
            return
        want = {p.name: _oracle_from_unit(p, _oracle_to_unit(p, config[p.name]))
                for p in space.params}
        assert _same(space.clip(config), want)
        on_grid = all(p.kind == "cat" or p.low <= v <= p.high and (p.kind == "float" or v % 1 == 0)
                      for p, v in zip(space.params, config.values()))
        if on_grid:
            assert np.array_equal(space.to_unit(config), _oracle_units(space, config))
        else:
            with pytest.raises(ValueError):
                space.to_unit(config)

    def test_log_units_built_on_first_snap(self):
        _log_units.cache_clear()
        space = ConfigSpace()
        assert _log_units.cache_info().currsize == 0
        space.snap(np.full((1, space.dim), 0.5))
        assert _log_units.cache_info().currsize == sum(p.log for p in space.params)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(_SPACES)), st.integers(0, 12), st.integers(0, 2**32 - 1),
           st.one_of(st.none(), st.sets(st.integers(0, 29), max_size=30).map(sorted)),
           st.lists(_UNIT, min_size=30, max_size=30))
    def test_sample_random_equals_scalar_loop(self, which, n, seed, subspace, base_u):
        """``sample_random``, and a uniform block in a sub-space, as configs."""
        space = _SPACES[which]
        base = space.from_unit(np.array(base_u))
        if subspace is None:  # every dim drawn: the base does not matter
            got = space.sample_random(n, np.random.default_rng(seed))
        else:
            B = np.random.default_rng(seed).random((n, len(subspace)))
            cands = space.snap_subspace(B, subspace, space.to_unit(base))
            got = [space.from_unit(cands.raw_row(i)) for i in range(n)]
        rng, u0, expect = np.random.default_rng(seed), space.to_unit(base), []
        for _ in range(n):
            u = u0.copy()
            for i in subspace if subspace is not None else range(space.dim):
                u[i] = rng.random()
            expect.append(space.from_unit(u))
        assert got == expect

    def test_log_scaling_is_int_only(self):
        with pytest.raises(ValueError):
            Param("x", "float", 1.0, 10.0, log=True)

    def test_categorical_needs_two_choices(self):
        with pytest.raises(ValueError):
            Param("c", "cat", choices=("only",))


def _kind(p: Param) -> str:
    return "log int" if p.log else {"int": "linear int"}.get(p.kind, p.kind)


#: One dim of each kind of the full space: a log int, a linear int, a
#: float and a categorical.
_ONE_OF_EACH = {_kind(p): i for i, p in reversed(list(enumerate(SPARK_PARAMS)))}


class TestSubspaceSnap:
    """``snap_subspace`` of a block equals ``snap`` of the full rows that
    hold the block on its dims and the base row elsewhere, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(_SPACES | _PARTIAL)), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 29), min_size=1, max_size=30, unique=True),
           st.integers(1, 40), st.booleans())
    @example(which="spark", seed=0, dims=[_ONE_OF_EACH["log int"]], n=7, outside=True)
    @example(which="spark", seed=1, dims=[_ONE_OF_EACH["linear int"]], n=7, outside=True)
    @example(which="spark", seed=2, dims=[_ONE_OF_EACH["float"]], n=7, outside=True)
    @example(which="spark", seed=3, dims=[_ONE_OF_EACH["cat"]], n=7, outside=True)
    @example(which="spark", seed=4, dims=list(range(30)), n=7, outside=True)
    @example(which="hibench", seed=5, dims=list(range(29, -1, -1)), n=7, outside=False)
    def test_equals_snap_of_the_full_rows(self, which, seed, dims, n, outside):
        space, rng = (_SPACES | _PARTIAL)[which], np.random.default_rng(seed)
        dims = [i for i in dims if i < space.dim] or [0]
        event("K = d" if len(dims) == space.dim else "K = 1" if len(dims) == 1 else "1 < K < d")
        for i in dims:
            event(_kind(space.params[i]))
        lo, hi = (-0.3, 1.3) if outside else (0.0, 1.0)  # rows outside the cube
        B, base = rng.uniform(lo, hi, (n, len(dims))), rng.uniform(lo, hi, space.dim)
        U = np.tile(base, (n, 1))
        U[:, dims] = B
        V, S = space.snap(U)
        got = space.snap_subspace(B, dims, base)
        assert len(got) == n
        assert np.array_equal(got.rows(), S)
        assert np.array_equal(got.rows(0.25), np.c_[S, np.full(n, 0.25)])
        assert all(np.array_equal(got.raw_row(i), U[i]) for i in range(n))
        columns = got.columns(space.names)
        for j, name in enumerate(space.names):
            assert np.array_equal(np.broadcast_to(columns[name], n), V[:, j])
        # rows of S, some changed on one dim, as a history to find
        X = S[rng.integers(0, n, 5)]
        X[::2, rng.integers(0, space.dim)] = 0.123
        assert np.array_equal(got.seen(X), (S[:, None] == X[None]).all(2).any(1))
        keep = rng.random(n) < 0.5
        assert np.array_equal(got.take(keep).rows(), S[keep])
        assert got.take(np.ones(n, bool)) is got


class TestSobol:
    def test_joe_kuo_entries_valid(self):
        # each entry: degree s, s initial numbers m_k, every m_k odd and < 2^k
        for s, a, m in _JOE_KUO:
            assert len(m) == s and 0 <= a < 1 << (s - 1)
            assert all(mk % 2 == 1 and mk < 1 << (k + 1) for k, mk in enumerate(m))

    def test_more_dims_than_direction_numbers_raise(self):
        assert sobol(4, 32).shape == (4, 32)
        with pytest.raises(ValueError):
            sobol(4, 33)

    def test_shape_and_range(self):
        pts = sobol(64, 31)
        assert pts.shape == (64, 31)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    def test_deterministic(self):
        assert np.array_equal(sobol(16, 5, seed=2), sobol(16, 5, seed=2))

    def test_seed_shifts(self):
        assert not np.array_equal(sobol(16, 5, seed=1), sobol(16, 5, seed=2))

    def test_mutating_a_design_leaves_the_next(self):
        """Designs share one direction table: a caller writing into its
        design, or into the table, cannot change the next design."""
        first = sobol(16, 7, seed=3)
        ref = first.copy()
        first[:] = 0.5
        assert np.array_equal(sobol(16, 7, seed=3), ref)
        with pytest.raises(ValueError):
            _directions()[0, 0] = 1
        assert np.array_equal(sobol(16, 7, seed=3), ref)

    def test_no_duplicate_points(self):
        pts = sobol(128, 8)
        assert len(np.unique(pts, axis=0)) == 128

    def test_stratification_beats_iid_worst_case(self):
        # first dimension of a digitally-shifted Sobol' fills [0,1)
        # evenly: each of 8 bins gets exactly 16 of 128 points
        pts = sobol(128, 3, seed=0)
        counts, _ = np.histogram(pts[:, 0], bins=8, range=(0, 1))
        assert np.all(counts == 16)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=0, max_value=5))
    def test_any_dim_in_unit_cube(self, d, seed):
        pts = sobol(32, d, seed=seed)
        assert pts.shape == (32, d)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 9), st.integers(1, 32), st.integers(0, 2**32 - 1))
    def test_every_column_stratified(self, m, d, seed):
        # n = 2**m points: each column has one point in every [k/n, (k+1)/n)
        n = 2**m
        cells = np.floor(sobol(n, d, seed=seed) * n).astype(int)
        assert np.array_equal(np.sort(cells, axis=0), np.tile(np.arange(n)[:, None], (1, d)))
