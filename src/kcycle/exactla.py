"""Exact linear algebra over the integers.

Everything downstream (orbit dimensions, conormal spaces, rank tests,
transversality certificates) reduces to ranks, column spaces and
kernels of small matrices with int entries, and over the rationals
each of these has an integer answer and an integer basis.  Entries are
therefore Python ints and nothing else: from_flat, and so from_rows
and from_cols, raise TypeError for any other entry (a float, a bool
or a rational), so a stray true division can never reach exact data;
submatrix slices the entries and from_cols transposes them by one
zip.  Rank and reduced echelon forms are computed by fraction-free
elimination, whose every division is exact.  rank skips elimination
for a vector and is otherwise one Bareiss elimination with a lazy
scale, so the sparse product rows of the transversality sweep cost
about their nonzeros (see rank).  rref returns each pivot row as a
primitive int vector with a positive pivot, and kernel reads a null
space's canonical basis of primitive int vectors off a single rref.

Batches of small int matrices are proven of full rank as lanes, with
no matrix built per lane: a grid holds one sequence per entry, of that
entry's values across the lanes.  certify_full_lanes runs Bareiss
without pivoting on every lane at once and proves the lanes whose
pivots are all nonzero; lane_pfaffian expands a leading Pfaffian over
the lanes.  The conormal sampler and the transversality sweep both
certify through them and rank only the lanes left unproven.

Random draws come from splitmix64 streams (Steele, Lea and Flood,
OOPSLA 2014).  _mix64 holds the one copy of the mix, and draw_streams
the one copy of the draw: count values from [lo, hi] on each of many
stream states, and the states after them.  SeedStream is one such
stream; its randints(count, lo, hi) is draw_streams on its own state,
and count one-value calls of it draw the same values and end in the
same state.
derive_states derives the streams of many seeds under one tag, as
SeedStream(seed).derive(tag) does for one, so a caller that draws per
seed builds no SeedStream per seed.

A batch is mixed on whole ints, not value by value.  Each value sits
in the low half of a 128-bit lane of one packed int, lane j at bits
128j onwards.  The lanes are twice as wide as the values so that a
64 x 64-bit product, and the carry of adding a stream's offsets, stay
inside the lane: masking the high halves after each step leaves every
lane its own value mod 2^64, and the mix is twelve big-int operations
for a whole chunk.  A chunk holds at most _LANES lanes, a module
constant, so temporaries stay within 8 KiB.  The lanes are built from
bytes (int.to_bytes/int.from_bytes with an explicit byte order), a
chunk of one long stream as head * _ONES + _STEP_INT, and read back
through one native-order memoryview cast, whose word order is chosen
from sys.byteorder, so the values do not depend on the host.
Only the modulus, lo + v % (hi - lo + 1), is taken per value, on the
64-bit outputs.
"""

from __future__ import annotations

import operator
import sys
import zlib
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence


def _all_int(entries) -> bool:
    """True when every entry is an int, by one type scan at C level."""
    return {int}.issuperset(map(type, entries))


class QMatrix(NamedTuple):
    """Immutable matrix of int entries, stored row-major.

    Indexing takes a pair (i, j); as a tuple a matrix still iterates
    over, and compares equal to, (nrows, ncols, entries), which no
    package code relies on.
    """

    nrows: int
    ncols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "QMatrix":
        rows = list(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls.from_flat(len(rows), ncols, [x for row in rows for x in row])

    @classmethod
    def from_flat(cls, nrows: int, ncols: int, flat: Iterable) -> "QMatrix":
        """Row-major entries, kept as they are; an entry that is not an int raises TypeError.

        A negative size, or an entry count other than nrows * ncols,
        raises ValueError.
        """
        flat = tuple(flat)
        if nrows < 0 or ncols < 0 or len(flat) != nrows * ncols:
            raise ValueError(f"entry count {len(flat)} does not fit a {nrows} x {ncols} matrix")
        if not _all_int(flat):
            bad = next(x for x in flat if type(x) is not int)
            raise TypeError(f"{type(bad).__name__} entry {bad!r} is not an int")
        return cls(nrows, ncols, flat)

    @classmethod
    def from_cols(cls, ncols_ambient: int, cols: Iterable[Sequence]) -> "QMatrix":
        cols = list(cols)
        if any(len(col) != ncols_ambient for col in cols):
            raise ValueError("ragged columns")
        return cls.from_flat(ncols_ambient, len(cols), [x for row in zip(*cols) for x in row])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.ncols + j] for i in range(self.nrows))

    def rows(self) -> list:
        return [list(self.row(i)) for i in range(self.nrows)]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_rows([self.col(j) for j in range(self.ncols)])

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        cols = [other.col(j) for j in range(other.ncols)]
        return QMatrix.from_rows(
            [[sum(map(operator.mul, self.row(i), c)) for c in cols] for i in range(self.nrows)]
        )

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row counts differ in hstack")
        return QMatrix(self.nrows, self.ncols + other.ncols,
                       tuple([x for i in range(self.nrows) for x in self.row(i) + other.row(i)]))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "QMatrix":
        e, nc = self.entries, self.ncols
        rows = [e[i * nc:(i + 1) * nc] for i in row_idx]
        return QMatrix(len(rows), len(col_idx), tuple([row[j] for row in rows for j in col_idx]))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


def rank(m: QMatrix) -> int:
    """Exact rank, by fraction-free (Bareiss) elimination on integer rows.

    A vector (at most one row or at most one column, empty shapes
    included) needs no elimination: its rank is 1 if any entry is
    nonzero, else 0.  Any other matrix is eliminated on row slices of
    its int entries, which the loop replaces and never mutates.

    A row with a zero in the pivot column is left alone.  Plain Bareiss
    multiplies every remaining row through at every pivot, pv being the
    pivot and prev the one before it, so that its exact division by prev
    sees all rows at one minor scale.  Here row i carries scale[i], the
    pivot it was last updated against (1 at the start), under the
    invariant

        true Bareiss row i = stored row i * prev / scale[i].

    A skipped row would have been multiplied by pv / prev, and these
    factors telescope: when the next pivot becomes prev the invariant
    holds with the row and its scale unchanged.  A touched row becomes
    (pv * row - row[c] * top) // scale[i], which is exactly its true
    Bareiss row, and takes scale[i] = pv; a pivot row whose scale is
    not prev is first brought up to date as row * prev // scale[i].
    So every row that enters arithmetic is a true Bareiss row, made of
    minors of the matrix (Sylvester's identity): every division is
    exact and entries grow no more than in plain Bareiss.
    """
    e, nr, nc = m.entries, m.nrows, m.ncols
    if nr < 2 or nc < 2:
        return 1 if any(e) else 0
    rows = [r for r in (e[i:i + nc] for i in range(0, len(e), nc)) if any(r)]
    n = len(rows)
    scale = [1] * n
    r = 0
    prev = 1
    for c in range(nc):
        if r == n:
            break
        for piv in range(r, n):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            scale[r], scale[piv] = scale[piv], scale[r]
        top, s = rows[r], scale[r]
        if s != prev:
            top = [x * prev // s for x in top]
        pv = top[c]
        for i in range(r + 1, n):
            row = rows[i]
            xi = row[c]
            if xi:
                s = scale[i]
                rows[i] = [(x * pv - xi * y) // s for x, y in zip(row, top)]
                scale[i] = pv
        prev = pv
        r += 1
    return r


def certify_full_lanes(grid: list) -> list:
    """Per lane, whether pivot-free Bareiss proves a k x k int matrix of rank k, k >= 1.

    grid[i][j] holds entry (i, j) of every lane, one sequence per entry.
    Fraction-free Bareiss without pivoting runs on all lanes at once,
    one map per entry and step: when every pivot of a lane is nonzero,
    the last one is its determinant, so the rank is k.  A lane with a
    zero pivot is not proven, whatever its rank; its later divisions use
    1 in place of the zero, so the other lanes go on exactly.  The grid
    itself is left as it is.
    """
    m = [list(row) for row in grid]
    k = len(m)
    pivots = [m[0][0]]
    for p in range(k - 1):
        top, pv = m[p], m[p][p]
        prev = [v or 1 for v in m[p - 1][p - 1]] if p else None
        for row in m[p + 1:]:
            x = row[p]
            for j in range(p + 1, k):
                v = map(operator.sub, map(operator.mul, pv, row[j]), map(operator.mul, x, top[j]))
                row[j] = list(v if prev is None else map(operator.floordiv, v, prev))
        pivots.append(m[p + 1][p + 1])
    return list(map(all, zip(*pivots)))


def lane_pfaffian(grid: list, order: int) -> list:
    """Per lane, the Pfaffian of the leading order x order block of a grid of lanes.

    grid is as for certify_full_lanes; order is even and at least 2, and
    only entries (i, j) with i < j are read, so the block is taken to be
    alternating.  The expansion along the first row,
    Pf = sum over t of (-1)^t a[i][j_t] Pf(block without rows and columns
    i, j_t), is exact, and each smaller block's Pfaffian is formed once
    for all lanes.
    """
    memo = {}

    def pf(idx):
        if len(idx) == 2:
            return grid[idx[0]][idx[1]]
        if idx not in memo:
            i, rest = idx[0], idx[1:]
            total = None
            for t, j in enumerate(rest):
                term = map(operator.mul, grid[i][j], pf(rest[:t] + rest[t + 1:]))
                total = list(term if total is None else
                             map(operator.sub if t % 2 else operator.add, total, term))
            memo[idx] = total
        return memo[idx]

    return list(pf(tuple(range(order))))


def rref(m: QMatrix):
    """Reduced row echelon form; returns (pivot column list, row list).

    Elimination is fraction-free: a row is cleared by cross-multiplying
    it with the pivot row and dividing out its content, so the rows stay
    integral throughout.  At the end each pivot row is divided by its
    content, signed so that its pivot is positive: it is the reduced
    echelon row times the smallest positive scale that makes it
    integral, so the form is still canonical.  The rows after the pivot
    rows are zero.
    """
    rows = m.rows()
    pivots = []
    for c in range(m.ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        pv = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    for i, c in enumerate(pivots):
        g = gcd(*rows[i]) if rows[i][c] > 0 else -gcd(*rows[i])
        rows[i] = [x // g for x in rows[i]]
    return pivots, rows


def kernel(m: QMatrix) -> QMatrix:
    """A basis of the right null space {x : m x = 0}, as columns, by one rref.

    m is reduced with its columns reversed (its entries reversed, which
    also reverses the rows and so leaves the row space, hence the rref,
    alone).  In the original order, the rational kernel vector of a free
    column f then has its leading 1 at f, its other nonzeros at pivot
    columns after f, and zeros at the other free columns.  Taken as rows
    by increasing f, these vectors are therefore the kernel's reduced
    row echelon form.  Each is scaled by the lcm of the pivots, which
    makes it integral, and divided by its content: a primitive int
    vector with a positive leading entry.  So the basis is canonical:
    two matrices have equal kernels exactly when their kernel bases are
    equal.
    """
    nc = m.ncols
    pivots, rows = rref(QMatrix(m.nrows, nc, m.entries[::-1]))
    scale = lcm(*(rows[r_i][c] for r_i, c in enumerate(pivots)))
    vectors = []
    for f in range(nc - 1, -1, -1):  # increasing original column nc-1-f
        if f in pivots:
            continue
        v = [0] * nc
        v[nc - 1 - f] = scale
        for r_i, c in enumerate(pivots):
            v[nc - 1 - c] = -rows[r_i][f] * (scale // rows[r_i][c])
        g = gcd(*v)
        vectors.append([x // g for x in v])
    return QMatrix.from_cols(nc, vectors)


class Subspace:
    """A placeholder that the benchmark's tracer (perfbench/tracer.py) patches
    by name; the package has no subspace type, and tests/reference.py has one."""

    @classmethod
    def span(cls, *args):
        raise TypeError("kcycle has no Subspace; tests/reference.py holds the oracle")


_MASK64 = (1 << 64) - 1
SEED_MAX = _MASK64  # seeds are 0..SEED_MAX; any other would alias one of them


def check_seed(seed: int) -> None:
    """seed must be an int, not a bool, in 0..SEED_MAX."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must be between 0 and {SEED_MAX}, as an int, got {seed!r}")


def check_count(name: str, count: int) -> None:
    """count must be a positive int, not a bool.

    A sampled check that examined nothing could not fail.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"{name} must be at least 1, as an int, got {count!r}")


_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment
_LANES = 512  # lanes mixed per chunk: a packed int stays within 8 KiB
_LANE_MASK = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
# lane j holds (j+1)*gamma, below 2^73: the offset of a stream's draw j
_STEPS = b"".join([((j + 1) * _GAMMA).to_bytes(16, "little") for j in range(_LANES)])
# lane j of head * _ONES + _STEP_INT is head + (j+1)*gamma, with no carry between lanes
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_STEP_INT = int.from_bytes(_STEPS, "little")
# which 64-bit words of a packed int's native bytes are the lanes' low halves
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _mix64(z: int, mask: int = _MASK64) -> int:
    """splitmix64's output function, on every 128-bit lane of z that mask keeps.

    Lane j is bits 128j to 128j+127; a value below 2^64 sits in its low
    half, and mask is all ones there and zeros in the high halves.  A
    64 x 64-bit product fills at most the whole lane, so masking after
    each shift and product keeps every lane its own value mod 2^64.
    Only the low halves of the result are outputs: the last shift moves
    bits of each lane into the high half of the lane below.  With the
    default mask, z is one value and so is the result.
    """
    z = (z ^ (z >> 30)) & mask
    z = z * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) & mask
    z = z * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def _mixed_lanes(z: int, lanes: int) -> memoryview:
    """The 64-bit outputs of _mix64 on the first `lanes` lanes of z, as a memoryview.

    The high halves of z's lanes may hold carries; they are masked off
    first.  The bytes are written in the host's byte order, so the
    native cast reads every word right, and the lanes' low halves are
    every other word: from the first on a little-endian host, from the
    last, backwards, on a big-endian one.
    """
    mask = _LANE_MASK >> 128 * (_LANES - lanes)
    return memoryview(
        _mix64(z & mask, mask).to_bytes(16 * lanes, sys.byteorder)
    ).cast("Q")[_LOW_HALVES]


def _draw_segments(heads: Sequence[int], m: int, lo: int, span: int) -> list:
    """The m draws after each head state, head after head, mixed as one chunk.

    Each head fills m lanes from bytes, and _STEPS adds (j+1)*gamma to
    the lane of draw j; the sums carry into the high halves, which
    _mixed_lanes masks off, so the lanes hold the states mod 2^64.
    """
    z = int.from_bytes(b"".join([h.to_bytes(16, "little") * m for h in heads]), "little")
    z += int.from_bytes(_STEPS[:16 * m] * len(heads), "little")
    return [lo + v % span for v in _mixed_lanes(z, m * len(heads))]


def draw_streams(states: Sequence[int], count: int, lo: int, hi: int) -> tuple:
    """count draws from [lo, hi] on each stream state: (draw lists, final states).

    The draws of a state are those of a SeedStream in that state: draw j is
    lo + mix(state + (j+1)*gamma mod 2^64) mod (hi - lo + 1), and the
    final state is state + count*gamma mod 2^64.  The mixing is done on
    packed 128-bit lanes, at most _LANES to a chunk: _LANES // count
    whole streams of count <= _LANES draws, or _LANES draws of a longer
    stream, whose list is allocated at full size before any is drawn and
    whose chunk is one product and one sum, head * _ONES + _STEP_INT;
    a count that no list can hold raises MemoryError at once.
    """
    if lo > hi:
        raise ValueError(f"empty draw range [{lo}, {hi}]")
    if count <= 0:
        return [[] for _ in states], list(states)
    if count > sys.maxsize:
        raise MemoryError(f"no list holds {count} draws")
    span = hi - lo + 1
    if count <= _LANES:
        group, draws = _LANES // count, []
        for first in range(0, len(states), group):
            flat = _draw_segments(states[first:first + group], count, lo, span)
            draws += [flat[i:i + count] for i in range(0, len(flat), count)]
    else:
        draws = [[0] * count for _ in states]
        for z, out in zip(states, draws):
            for at in range(0, count, _LANES):
                m = min(_LANES, count - at)
                head = (z + at * _GAMMA) & _MASK64
                out[at:at + m] = [lo + v % span for v in _mixed_lanes(head * _ONES + _STEP_INT, m)]
    step = count * _GAMMA
    return draws, [(z + step) & _MASK64 for z in states]


def _derive_mask(tag) -> int:
    """What derive XORs into a state for tag: a str is hashed by crc32."""
    if isinstance(tag, str):
        tag = zlib.crc32(tag.encode("utf-8"))
    return (tag & _MASK64) ^ 0xD1B54A32D192ED03


def derive_states(seeds: Sequence[int], tag) -> list:
    """The state of SeedStream(seed).derive(tag) for each seed.

    Every seed is range-checked, as SeedStream(seed) checks it: all are
    in range when the least and the greatest are.
    """
    if seeds:
        check_seed(min(seeds))
        check_seed(max(seeds))
    t, out = _derive_mask(tag), []
    for first in range(0, len(seeds), _LANES):
        chunk = seeds[first:first + _LANES]
        z = int.from_bytes(b"".join([(seed ^ t).to_bytes(16, "little") for seed in chunk]),
                           "little")
        out += _mixed_lanes(z, len(chunk))
    return out


class SeedStream:
    """Small deterministic generator (splitmix64).

    The standard library's Random would do, but an explicit generator pins
    the byte-identical-output guarantee to this file rather than to the
    interpreter version.
    """

    def __init__(self, seed: int):
        check_seed(seed)
        self.state = seed

    def randints(self, count: int, lo: int, hi: int) -> list:
        """count draws from [lo, hi]; count one-value calls give the same values and state."""
        (out,), (self.state,) = draw_streams((self.state,), count, lo, hi)
        return out

    def derive(self, *tags) -> "SeedStream":
        x = self.state
        for tag in tags:
            x = _mix64(x ^ _derive_mask(tag))
        return SeedStream(x)
