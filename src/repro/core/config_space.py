"""Spark configuration space: 30 performance-critical parameters.

Follows the paper (§2.2/§6.1), which tunes the same 30 parameters as
Tuneful (Fekry et al., KDD 2020). Ranges are sized for a mid-size YARN
resource group (≤ 800 executors); per the paper, ranges would be set per
cluster.

A configuration is a ``dict`` name → value. For modelling, configs map
to a unit-cube vector (numeric dims min-max- or log-scaled to [0,1];
categoricals as ``index/(k-1)`` on a discrete grid) — the GP applies a
Hamming kernel on the categorical dims and Matérn on the numeric ones,
and trees treat categoricals ordinally. :class:`ConfigSpace` holds the
one map each way, per column group of one kind: unit → value (clamp to
the cube, round onto the grid) and value → unit. ``to_unit``,
``from_unit``, ``clip``, ``snap`` and the samplers all go through them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np


@dataclass(frozen=True)
class Param:
    """One tunable Spark parameter.

    ``kind`` is one of ``int`` / ``float`` / ``cat``; booleans are
    2-way categoricals. ``log`` scales the unit mapping logarithmically;
    it is for wide integer ranges such as executor counts.
    """

    name: str
    kind: str
    low: float = 0.0
    high: float = 1.0
    log: bool = False
    choices: tuple = ()
    default: object = None

    def __post_init__(self) -> None:
        if self.log and self.kind != "int":
            raise ValueError(f"{self.name}: log scaling is for int params only")
        if self.kind == "cat" and len(self.choices) < 2:
            raise ValueError(f"{self.name}: a categorical needs two choices or more")


@cache
def _log_units(p: Param) -> np.ndarray:
    """The unit value of every int of a log-scaled param (read-only:
    every caller shares it). ``math.log``, not ``np.log``: the two differ
    in the last ulp on some ints, and the unit values feed every model."""
    lo, span = math.log(p.low), math.log(p.high) - math.log(p.low)
    table = np.array([(math.log(v) - lo) / span for v in range(int(p.low), int(p.high) + 1)])
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class _Block:
    """The columns of one kind, with the space's two maps between their
    unit and value blocks. ``kind`` is ``int`` (categoricals as their
    choice index), ``float`` or ``log``; a column's value at unit ``u``
    (a log int's log value) is ``a + u·b``."""

    kind: str
    cols: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    table: np.ndarray | None = None  # log: the columns' _log_units, concatenated
    offset: np.ndarray | None = None  # log: where value 0 would sit in ``table``

    def clamp(self, V: np.ndarray) -> np.ndarray:
        """Values clamped to their ranges, ints rounded half to even first."""
        return np.clip(V if self.kind == "float" else np.rint(V), self.lo, self.hi)

    def values(self, U: np.ndarray) -> np.ndarray:
        """Unit block → value block: clamped to the cube, rounded onto the
        grid. A rounded value needs no clamp: ``lo + u·(hi - lo)`` is exact
        at the ends, and ``exp`` is off by far less than 0.5 there. NumPy's
        ``exp`` may differ from ``math``'s in the last ulp, so it only
        feeds the rounding to an int."""
        x = self.a + np.clip(U, 0.0, 1.0) * self.b
        return x if self.kind == "float" else np.rint(np.exp(x) if self.kind == "log" else x)

    def units(self, V: np.ndarray) -> np.ndarray:
        """Value block on the grid → unit block."""
        if self.kind == "log":
            return self.table[V.astype(np.intp) + self.offset]
        return (V - self.a) / self.b

    def take(self, j: np.ndarray) -> "_Block":
        """The block of its columns at positions ``j``."""
        return _Block(self.kind, self.cols[j], self.lo[j], self.hi[j], self.a[j], self.b[j],
                      self.table, None if self.offset is None else self.offset[j])


def _snap(U: np.ndarray, blocks: list[tuple[_Block, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The value and unit matrices of :meth:`ConfigSpace.snap`, each
    ``(block, columns of U)`` pair filling its columns."""
    V, S = np.empty(U.shape), np.empty(U.shape)
    for b, j in blocks:
        V[:, j] = v = b.values(U[:, j])
        S[:, j] = b.units(v)
    return V, S


def _bool(name: str, default: bool) -> Param:
    return Param(name, "cat", choices=(False, True), default=default)


#: The 30 tuned parameters. Order matters: it defines vector dimensions.
SPARK_PARAMS: tuple[Param, ...] = (
    Param("spark.executor.instances", "int", 1, 800, log=True, default=8),
    Param("spark.executor.cores", "int", 1, 8, default=2),
    Param("spark.executor.memory", "int", 1, 32, log=True, default=4),  # GB
    Param("spark.executor.memoryOverhead", "int", 256, 4096, log=True, default=384),  # MB
    Param("spark.driver.memory", "int", 1, 16, log=True, default=2),  # GB
    Param("spark.driver.cores", "int", 1, 8, default=1),
    Param("spark.default.parallelism", "int", 8, 2000, log=True, default=128),
    Param("spark.sql.shuffle.partitions", "int", 8, 2000, log=True, default=200),
    Param("spark.memory.fraction", "float", 0.4, 0.9, default=0.6),
    Param("spark.memory.storageFraction", "float", 0.1, 0.9, default=0.5),
    _bool("spark.shuffle.compress", True),
    _bool("spark.shuffle.spill.compress", True),
    Param("spark.shuffle.file.buffer", "int", 16, 256, log=True, default=32),  # KB
    Param("spark.reducer.maxSizeInFlight", "int", 16, 256, log=True, default=48),  # MB
    Param("spark.io.compression.codec", "cat", choices=("lz4", "snappy", "zstd"), default="lz4"),
    Param("spark.serializer", "cat", choices=("java", "kryo"), default="java"),
    Param("spark.kryoserializer.buffer.max", "int", 16, 256, log=True, default=64),  # MB
    _bool("spark.rdd.compress", False),
    Param("spark.broadcast.blockSize", "int", 1, 16, default=4),  # MB
    Param("spark.network.timeout", "int", 60, 600, default=120),  # s
    Param("spark.locality.wait", "float", 0.0, 10.0, default=3.0),  # s
    _bool("spark.speculation", False),
    Param("spark.task.maxFailures", "int", 1, 8, default=4),
    Param("spark.shuffle.sort.bypassMergeThreshold", "int", 100, 1000, default=200),
    Param("spark.shuffle.io.numConnectionsPerPeer", "int", 1, 8, default=1),
    _bool("spark.memory.offHeap.enabled", False),
    Param("spark.memory.offHeap.size", "int", 1, 8, default=1),  # GB, used iff enabled
    Param("spark.storage.memoryMapThreshold", "int", 1, 10, default=2),  # MB
    Param("spark.sql.autoBroadcastJoinThreshold", "int", 1, 64, log=True, default=10),  # MB
    Param("spark.scheduler.mode", "cat", choices=("FIFO", "FAIR"), default="FIFO"),
)


@dataclass
class ConfigSpace:
    """Vectorization, sampling and sub-spacing over a parameter tuple."""

    params: tuple[Param, ...] = SPARK_PARAMS
    _index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self._index = {p.name: i for i, p in enumerate(self.params)}

    @property
    def dim(self) -> int:
        return len(self.params)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.params]

    @property
    def cat_mask(self) -> np.ndarray:
        return np.array([p.kind == "cat" for p in self.params])

    def index_of(self, name: str) -> int:
        return self._index[name]

    def default_config(self) -> dict:
        return {p.name: p.default for p in self.params}

    @cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        """The column groups of each kind, built on first use."""
        ps = self.params
        lo = np.array([0.0 if p.kind == "cat" else p.low for p in ps], dtype=np.float64)
        hi = np.array([len(p.choices) - 1 if p.kind == "cat" else p.high for p in ps],
                      dtype=np.float64)
        span = hi - lo
        kinds = np.array(["log" if p.log else "float" if p.kind == "float" else "int" for p in ps])
        lin, flt, log = (np.flatnonzero(kinds == k) for k in ("int", "float", "log"))
        logs = [ps[i] for i in log]
        tables = [_log_units(p) for p in logs]
        starts = np.cumsum([0] + [len(t) for t in tables], dtype=np.intp)[:-1]
        return (
            _Block("int", lin, lo[lin], hi[lin], lo[lin], span[lin]),
            _Block("float", flt, lo[flt], hi[flt], lo[flt], span[flt]),
            _Block("log", log, lo[log], hi[log], np.array([math.log(p.low) for p in logs]),
                   np.array([math.log(p.high) - math.log(p.low) for p in logs]),
                   np.concatenate([np.empty(0)] + tables), starts - lo[log].astype(np.intp)),
        )

    def _blockwise(self, f, X: np.ndarray) -> np.ndarray:
        """The rows of ``X`` mapped block by block by ``f``, one of
        :class:`_Block`'s methods."""
        out = np.empty(X.shape)
        for b in self._blocks:
            out[:, b.cols] = f(b, X[:, b.cols])
        return out

    def _row(self, config: dict) -> np.ndarray:
        """A config's values as one row, each categorical as its choice
        index (ValueError for a value outside ``choices``)."""
        return np.array([[p.choices.index(config[p.name]) if p.kind == "cat" else config[p.name]
                          for p in self.params]], dtype=np.float64)

    def _configs(self, V: np.ndarray) -> list[dict]:
        """Value rows as configs: categoricals pick their choice."""
        return [{p.name: p.choices[int(x)] if p.kind == "cat" else int(x) if p.kind == "int" else x
                 for p, x in zip(self.params, row)} for row in V.tolist()]

    def to_unit(self, config: dict) -> np.ndarray:
        """The unit row of a config on the grid, as :meth:`from_unit`,
        :meth:`clip` and :meth:`default_config` return them; ValueError
        for any other config."""
        V = self._row(config)
        off = np.flatnonzero(self._blockwise(_Block.clamp, V)[0] != V[0])
        if len(off):
            raise ValueError(f"off the space's grid: {[self.params[i].name for i in off]}")
        return self._blockwise(_Block.units, V)[0]

    def from_unit(self, u: np.ndarray) -> dict:
        """The config of a unit row: clamped to the cube, rounded onto the grid."""
        return self._configs(self._blockwise(_Block.values, np.asarray(u, dtype=float)[None]))[0]

    def clip(self, config: dict) -> dict:
        """Snap a config onto the space's grid/ranges: values clamped in
        value space (ints rounded half to even first), then mapped to
        their unit row and back."""
        V = self._blockwise(_Block.units, self._blockwise(_Block.clamp, self._row(config)))
        return self._configs(self._blockwise(_Block.values, V))[0]

    def snap(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit rows snapped onto the grid, in bulk: the value matrix
        (categoricals as their choice index) and the unit matrix whose
        rows equal ``to_unit(from_unit(u))``. Both are filled block by
        block, so no temporary is as large as ``U``."""
        return _snap(U, [(b, b.cols) for b in self._blocks])

    def snap_subspace(self, B: np.ndarray, dims, base: np.ndarray) -> "SubspaceRows":
        """The unit rows that equal ``base`` outside the columns ``dims``
        and hold the block ``B`` on them (column ``j`` of ``B`` is dim
        ``dims[j]``), snapped as :meth:`snap` snaps them: only ``B`` and
        one ``base`` row go through the maps."""
        dims = np.asarray(dims, dtype=np.intp)
        rest = np.ones(self.dim, bool)
        rest[dims] = False
        rest = np.flatnonzero(rest)
        base_V, base_S = self.snap(base[None])
        # each kind's columns among dims: their positions in B and in the kind's block
        kind, pos = self._kind_positions
        blocks = []
        for k, b in enumerate(self._blocks):
            j = np.flatnonzero(kind[dims] == k)
            if len(j):
                blocks.append((b.take(pos[dims[j]]), j))
        return SubspaceRows(dims, rest, base[rest], base_V[0, rest], base_S[0, rest],
                            B, *_snap(B, blocks))

    @cached_property
    def _kind_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Per column, its block's index in ``_blocks`` and its position there."""
        kind, pos = np.empty(self.dim, np.intp), np.empty(self.dim, np.intp)
        for k, b in enumerate(self._blocks):
            kind[b.cols], pos[b.cols] = k, np.arange(len(b.cols))
        return kind, pos

    def sample_unit(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` uniform unit rows, not yet snapped."""
        return rng.random((n, self.dim))

    def sample_random(self, n: int, rng: np.random.Generator) -> list[dict]:
        """:meth:`sample_unit`, as configs."""
        return self._configs(self._blockwise(_Block.values, self.sample_unit(n, rng)))

    def sample_sobol(self, n: int, *, seed: int = 0) -> list[dict]:
        """Low-discrepancy initial design (§3.3 "Initial configurations")."""
        return self._configs(self._blockwise(_Block.values, sobol(n, self.dim, seed=seed)))


class SubspaceRows:
    """Unit rows that differ only on the columns ``dims``, kept as blocks
    over those columns (block column ``j`` is dim ``dims[j]``): as drawn
    (``raw``), snapped onto the grid (``values``, ``units``). On the
    other columns, ``rest``, every row holds one base row: ``base`` as
    drawn, ``base_values`` and ``base_units`` snapped. Built by
    :meth:`ConfigSpace.snap_subspace`; the full rows are formed only by
    :meth:`rows` and :meth:`raw_row`."""

    def __init__(self, dims: np.ndarray, rest: np.ndarray, base: np.ndarray,
                 base_values: np.ndarray, base_units: np.ndarray, raw: np.ndarray,
                 values: np.ndarray, units: np.ndarray) -> None:
        self.dims, self.rest = dims, rest
        self.base, self.base_values, self.base_units = base, base_values, base_units
        self.raw, self.values, self.units = raw, values, units

    def __len__(self) -> int:
        return len(self.raw)

    def take(self, keep: np.ndarray) -> "SubspaceRows":
        """The rows where the mask ``keep`` holds; itself, no copy, when
        it holds for every row."""
        if keep.all():
            return self
        return SubspaceRows(self.dims, self.rest, self.base, self.base_values, self.base_units,
                            self.raw[keep], self.values[keep], self.units[keep])

    def columns(self, names: list[str]) -> dict:
        """Each column's values by parameter name, as :func:`resource`
        takes them: a block column, or the base's one value."""
        cols = dict(zip([names[i] for i in self.rest], self.base_values))
        cols.update(zip([names[i] for i in self.dims], self.values.T))
        return cols

    def seen(self, X: np.ndarray) -> np.ndarray:
        """Which rows, snapped, equal a row of the unit matrix ``X``."""
        # only a row of X that equals the base outside dims can match;
        # it then matches on the first dim: compare whole blocks only
        # for the pairs that pass that
        H = X[(X[:, self.rest] == self.base_units).all(axis=1)][:, self.dims]
        r, h = np.nonzero(self.units[:, :1] == H[:, 0])
        seen = np.zeros(len(self), bool)
        seen[r[(self.units[r] == H[h]).all(axis=1)]] = True
        return seen

    def rows(self, extra: float | None = None) -> np.ndarray:
        """The snapped unit rows, with a last column of the value
        ``extra`` when it is given."""
        d = len(self.dims) + len(self.rest)
        X = np.empty((len(self), d + (extra is not None)))
        X[:, self.rest] = self.base_units
        X[:, self.dims] = self.units
        if extra is not None:
            X[:, d] = extra
        return X

    def raw_row(self, i: int) -> np.ndarray:
        """Row ``i`` as drawn."""
        u = np.empty(len(self.dims) + len(self.rest))
        u[self.rest] = self.base
        u[self.dims] = self.raw[i]
        return u


def hibench_space() -> ConfigSpace:
    """The 30-parameter space sized for the paper's 4-node HiBench
    cluster (§6.1: 2×48-core AMD per node → 384 cores): executor counts
    up to 96 instead of 800. "The value ranges of the parameters are
    set differently depending on the cluster size."
    """
    params = []
    for p in SPARK_PARAMS:
        if p.name == "spark.executor.instances":
            p = Param(p.name, p.kind, 1, 96, log=True, default=8)
        elif p.name in ("spark.default.parallelism", "spark.sql.shuffle.partitions"):
            p = Param(p.name, p.kind, 8, 1000, log=True, default=p.default)
        params.append(p)
    return ConfigSpace(tuple(params))


# ---------------------------------------------------------------------------
# Sobol' sequence (no scipy offline). Direction numbers follow the
# Joe–Kuo construction, which this table holds for dimensions 2–32; a
# test checks every entry (m_k odd, m_k < 2^k). The direction numbers of
# all 32 dimensions are built once, on the first design. A random digital
# shift (seeded) decorrelates repeated designs.
# ---------------------------------------------------------------------------

_JOE_KUO: list[tuple[int, int, tuple[int, ...]]] = [
    # (s = degree, a = poly coeffs, m_1..m_s) for dims 2, 3, ...
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
    (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
    (5, 14, (1, 3, 5, 5, 31)),
    (6, 1, (1, 3, 3, 9, 7, 49)),
    (6, 13, (1, 1, 1, 15, 21, 21)),
    (6, 16, (1, 3, 1, 13, 27, 49)),
    (6, 19, (1, 1, 1, 15, 7, 5)),
    (6, 22, (1, 3, 1, 15, 13, 25)),
    (6, 25, (1, 1, 5, 5, 19, 61)),
    (7, 1, (1, 3, 7, 11, 23, 15, 103)),
    (7, 4, (1, 3, 7, 13, 13, 15, 69)),
    (7, 7, (1, 1, 3, 13, 7, 35, 63)),
    (7, 8, (1, 3, 5, 9, 1, 25, 53)),
    (7, 14, (1, 3, 1, 13, 9, 35, 107)),
    (7, 19, (1, 3, 1, 5, 27, 61, 31)),
    (7, 21, (1, 1, 5, 11, 19, 41, 61)),
    (7, 28, (1, 3, 5, 3, 3, 13, 69)),
    (7, 31, (1, 1, 7, 13, 1, 19, 1)),
    (7, 32, (1, 3, 7, 5, 13, 19, 59)),
    (7, 37, (1, 1, 3, 9, 25, 29, 41)),
    (7, 41, (1, 3, 5, 13, 23, 1, 55)),
    (7, 42, (1, 3, 7, 3, 13, 59, 17)),
]

_BITS = 30


def _direction_numbers(dim_index: int) -> np.ndarray:
    """v_1..v_BITS (scaled by 2^BITS) for one dimension."""
    v = np.zeros(_BITS, dtype=np.int64)
    if dim_index == 0:  # first dimension: van der Corput in base 2
        for k in range(_BITS):
            v[k] = 1 << (_BITS - 1 - k)
        return v
    s, a, m = _JOE_KUO[dim_index - 1]
    mi = list(m)
    for k in range(s, _BITS):
        new = mi[k - s] ^ (mi[k - s] << s)
        for j in range(1, s):
            if (a >> (s - 1 - j)) & 1:
                new ^= mi[k - j] << j
        mi.append(new)
    for k in range(_BITS):
        v[k] = mi[k] << (_BITS - 1 - k)
    return v


@cache
def _directions() -> np.ndarray:
    """Every dimension's direction numbers, ``(1 + len(_JOE_KUO), BITS)``,
    built once (read-only: every design shares them)."""
    table = np.stack([_direction_numbers(i) for i in range(1 + len(_JOE_KUO))])
    table.flags.writeable = False
    return table


def sobol(n: int, d: int, *, seed: int = 0) -> np.ndarray:
    """First ``n`` points of a digitally-shifted Sobol' sequence in
    [0,1)^d, for d ≤ 32 (ValueError beyond)."""
    if d > 1 + len(_JOE_KUO):
        raise ValueError(f"sobol: {d} dims; direction numbers exist for at most "
                         f"{1 + len(_JOE_KUO)}")
    rng = np.random.default_rng(seed)
    V = _directions()[:d]  # (d, BITS)
    shift = rng.integers(0, 1 << _BITS, size=d, dtype=np.int64)
    out = np.empty((n, d))
    x = np.zeros(d, dtype=np.int64)
    for i in range(n):
        out[i] = ((x ^ shift) & ((1 << _BITS) - 1)) / float(1 << _BITS)
        c = (~i & (i + 1)).bit_length() - 1  # index of lowest zero bit of i
        x ^= V[:, c]
    return out
