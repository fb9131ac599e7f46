"""
Wavefunction of the walker on the periodic N x N lattice.

Sites carry centered coordinates x, y in {-(N-1)/2, ..., (N-1)/2} with N
odd.  Internally amplitudes live in a complex array indexed by
(x mod N, y mod N, chirality), which puts the origin at index (0, 0) and
turns periodic shifts into plain array rolls.

Every table the program writes (grids, spectra, alpha scans) goes
through one row writer, `_table_rows`.  It prints each number with the
bytes of Python's own `"%.17g" %` or `repr`, but takes the digits from one
vectorized kernel (`_decimal_digits`) and hands Python only the values the
kernel cannot certify.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .coins import CHIRALITIES, chirality_index

__all__ = [
    "ConsistencyError",
    "InitialSpec",
    "WalkState",
    "coords",
    "origin_superposition",
    "pure_state",
    "write_grid_csv",
    "write_grid_json",
]

#: Allowed drift of the total probability from 1 (construction and long runs).
NORM_TOL = 1e-10
#: Tolerance on the normalization of an initial chirality vector.
SPEC_NORM_TOL = 1e-12


class ConsistencyError(RuntimeError):
    """An internal cross-check between independent computations failed."""


def _check_size(n: int) -> int:
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"lattice size must be an odd integer >= 3, got {n}")
    return n


def coords(n: int) -> np.ndarray:
    """Centered coordinate values -(n-1)/2 ... (n-1)/2 in order."""
    half = (_check_size(n) - 1) // 2
    return np.arange(-half, half + 1)


@dataclass(frozen=True)
class InitialSpec:
    """
    Chirality weights (alpha, beta, gamma, zeta) of an origin-localized
    initial state, in the order (R, L, U, D).

    The weights must be normalized: |alpha|^2 + |beta|^2 + |gamma|^2 +
    |zeta|^2 = 1 within 1e-12.
    """

    alpha: complex = 0.0
    beta: complex = 0.0
    gamma: complex = 0.0
    zeta: complex = 0.0

    def __post_init__(self) -> None:
        total = sum(abs(w) ** 2 for w in self.weights.tolist())
        if not abs(total - 1.0) <= SPEC_NORM_TOL:
            raise ValueError(
                f"initial weights must satisfy sum |w|^2 = 1, got {total!r}"
            )

    @property
    def weights(self) -> np.ndarray:
        """The four weights as a complex vector in chirality order."""
        return np.array([self.alpha, self.beta, self.gamma, self.zeta], dtype=np.complex128)

    @classmethod
    def pure(cls, chirality) -> "InitialSpec":
        """Unit weight on a single chirality at the origin."""
        w = [0.0, 0.0, 0.0, 0.0]
        w[chirality_index(chirality)] = 1.0
        return cls(*w)

    def describe(self) -> str:
        """Short deterministic label, e.g. 'R' for a pure state."""
        w = self.weights
        for idx, name in enumerate(CHIRALITIES):
            if abs(w[idx] - 1.0) < 1e-15 and abs(np.delete(w, idx)).max() < 1e-15:
                return name
        parts = []
        for value in w:
            if value.imag == 0.0:
                parts.append(f"{value.real:g}")
            else:
                parts.append(f"{value.real:g}{value.imag:+g}i")
        return "custom:" + ",".join(parts)


class WalkState:
    """
    Amplitudes of the total state at one instant, plus the step counter.

    Treat instances as values: evolution returns new states and never
    mutates an existing one, so states can be shared freely between
    threads.
    """

    __slots__ = ("amplitudes", "t")

    def __init__(self, amplitudes, t: int = 0, *, validate: bool = True):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if validate:
            if amplitudes.ndim != 3 or amplitudes.shape[2] != 4 or (
                amplitudes.shape[0] != amplitudes.shape[1]
            ):
                raise ValueError(
                    f"amplitudes must have shape (N, N, 4), got {amplitudes.shape}"
                )
            _check_size(amplitudes.shape[0])
            total = float((np.abs(amplitudes) ** 2).sum())
            if not abs(total - 1.0) <= NORM_TOL:
                raise ValueError(
                    f"state norm deviates from 1 by {abs(total - 1.0):.3e}"
                )
            if int(t) < 0:
                raise ValueError(f"time must be nonnegative, got {t}")
        self.amplitudes = amplitudes
        self.t = int(t)

    @property
    def n(self) -> int:
        """Lattice size N."""
        return self.amplitudes.shape[0]

    def norm_sq(self) -> float:
        return float((np.abs(self.amplitudes) ** 2).sum())

    def _site(self, x: int, y: int) -> tuple[int, int]:
        half = (self.n - 1) // 2
        if not (-half <= x <= half and -half <= y <= half):
            raise ValueError(
                f"site ({x}, {y}) outside the centered range [-{half}, {half}]"
            )
        return x % self.n, y % self.n

    def amplitude(self, x: int, y: int, chirality=None):
        """Amplitude(s) at a site: the 4-vector, or one chirality component."""
        ix, iy = self._site(x, y)
        if chirality is None:
            return self.amplitudes[ix, iy].copy()
        return complex(self.amplitudes[ix, iy, chirality_index(chirality)])

    def probability_at(self, x: int, y: int) -> float:
        """Total occupation probability of site (x, y), summed over chiralities."""
        ix, iy = self._site(x, y)
        return float((np.abs(self.amplitudes[ix, iy]) ** 2).sum())

    def probability_grid(self) -> np.ndarray:
        """
        Site probabilities as an (N, N) array in centered layout:
        entry [i, j] belongs to x = coords(N)[i], y = coords(N)[j].
        """
        half = (self.n - 1) // 2
        p = (np.abs(self.amplitudes) ** 2).sum(axis=2)
        return np.roll(p, (half, half), axis=(0, 1))

    def translated(self, dx: int, dy: int) -> "WalkState":
        """The same state shifted by (dx, dy) on the torus."""
        return WalkState(
            np.roll(self.amplitudes, (int(dx), int(dy)), axis=(0, 1)),
            self.t,
            validate=False,
        )

    def __repr__(self) -> str:
        return f"WalkState(n={self.n}, t={self.t})"


def pure_state(n: int, chirality, x: int = 0, y: int = 0) -> WalkState:
    """
    State fully concentrated on one chirality of one site.

    Parameters
    ----------
    n: int
        Odd lattice size >= 3.
    chirality: str or int
        'R', 'L', 'U', 'D' or 0..3.
    x, y: int
        Centered site coordinates; default origin.

    Raises
    ------
    ValueError
        For even/too-small n or a site outside the lattice.
    """
    n = _check_size(n)
    amplitudes = np.zeros((n, n, 4), dtype=np.complex128)
    state = WalkState(amplitudes, 0, validate=False)
    ix, iy = state._site(int(x), int(y))
    amplitudes[ix, iy, chirality_index(chirality)] = 1.0
    return WalkState(amplitudes, 0)


def origin_superposition(n: int, spec: InitialSpec) -> WalkState:
    """
    State with chirality weights `spec` at the origin and zero elsewhere.
    """
    n = _check_size(n)
    amplitudes = np.zeros((n, n, 4), dtype=np.complex128)
    amplitudes[0, 0, :] = spec.weights
    return WalkState(amplitudes, 0)


def _json_frame(payload: dict, key: str) -> tuple:
    """
    The text of `json.dumps(payload, indent=2, sort_keys=True) + "\n"`
    around the items of the nonempty top-level list payload[key]: the head
    up to the list's first item and the tail after its last, each item
    indented by four spaces and followed by ",\n" except the last.
    """
    # json escapes newlines and quotes inside strings: only the placeholder's own line matches
    head, tail = json.dumps({**payload, key: 0}, indent=2, sort_keys=True).split(
        f'\n  "{key}": 0')
    return f'{head}\n  "{key}": [\n', f"\n  ]{tail}\n"


#: Rows formatted per pass of `_table_rows`; bounds the writers' buffers.
TABLE_CHUNK_ROWS = 4096
#: Fewest values for the kernel: its ~40 numpy calls cost more than Python's text below ~300.
KERNEL_MIN_VALUES = 256
#: Exponents k of the table of 10**k that scales a double to 17 digits.
_POWER_RANGE = range(-293, 326)
#: The columns of one number in `_table_rows`: the sign, "0.000", the 17
#: digits, ".", the last 16 digits again, ".0", "e", the exponent's sign and 3 digits.
_NUMBER_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b".0e+000", np.uint8)


@functools.cache
def _decimal_scale():
    """
    The powers 10**k, k in _POWER_RANGE, as np.longdouble parsed from
    decimal strings, and the bound B on |y - x| for y = fl(v * 10**k) in
    [1e16, 1e17) and x = v * 10**k exactly: the power and the product are
    each rounded once, by at most eps / 2 relative, so B = 1.01e17 * eps
    of np.longdouble, 0.011 on x86-64.  None when no rounding decision
    could clear B (longdouble is double: B is 22) or the type's arithmetic
    does not round like IEEE (double-double longdouble).
    """
    info = np.finfo(np.longdouble)
    bound = 1.01e17 * float(info.eps)
    if bound >= 0.5 or info.nmant not in (63, 112):
        return None
    return np.array([f"1e{k}" for k in _POWER_RANGE], dtype=np.longdouble), bound


@functools.cache
def _digit_quads() -> np.ndarray:
    """The ASCII of "0000" ... "9999" as 10,000 native uint32 words."""
    ascii = np.frombuffer(b"0123456789", np.uint8)  # int64 temporaries raised the peak RSS
    return np.stack(np.meshgrid(*[ascii] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


def _glyphs(digits: np.ndarray) -> np.ndarray:
    """The ASCII of each int64 below 10**17 as 17 digits with leading zeros, (m, 17) uint8."""
    quads = _digit_quads()
    words = np.empty((digits.size, 5), np.uint32)
    words[:, 0] = quads[digits // 10**16]
    for k, scale in enumerate((10**12, 10**8, 10**4, 1), 1):
        group = digits // scale
        words[:, k] = quads[group - group // 10**4 * 10**4]
    return words.view(np.uint8)[:, 3:]


def _significant(digits: np.ndarray) -> np.ndarray:
    """How many leading digits of each 17-digit int64 are significant: 1 for 0."""
    used = np.where(digits == 0, 1, 17)
    live = np.flatnonzero((digits % 10 == 0) & (digits != 0))
    rest = digits[live]
    while live.size:
        used[live] -= 1
        rest //= 10
        zero = rest % 10 == 0
        live, rest = live[zero], rest[zero]
    return used


def _decimal_digits(values: np.ndarray, shortest: bool):
    """
    The decimal digits of each value's text after its sign: `repr(v)` when
    `shortest`, else `"%.17g" % v`, both of which write -v as "-" and the
    text of v.

    Returns (digits, exponent, done): where done, the text's significant
    digits are the leading digits of the 17-digit int64 `digits` (padded
    with zeros) and its first digit stands at 10**exponent; zeros of
    either sign give 0 and 0.  A value is done only when every rounding
    decision made on it clears `_decimal_scale`'s bound, so it is never
    wrong; the others (subnormal, non-finite, powers of two, whose
    round-trip interval is asymmetric, and any value too near a decision
    boundary) are left to Python's formatting.

    Each normal |v| is scaled to y = |v| * 10**(16 - E) in [1e16, 1e17)
    in np.longdouble, with E = floor(log10(|v|)) corrected once.  "%.17g"
    rounds y to an integer.  `repr` takes the fewest digits n whose nearest
    n-digit decimal lies strictly inside the round-trip interval y +- h, h
    half the spacing of doubles at |v|; the nearest one is inside whenever
    any is, and n = 17 always fits (h > 0.55 units of the 17th digit).
    """
    values = np.abs(values)
    digits, exponent = np.zeros((2,) + values.shape, np.int64)
    done = values == 0.0
    scale = _decimal_scale()
    if scale is None:
        return digits, exponent, done
    powers, bound = scale
    mantissa = np.frexp(values)[0]
    fast = np.flatnonzero((values >= np.finfo(np.float64).tiny)
                          & (values < np.finfo(np.float64).max) & (mantissa != 0.5))
    v = values[fast]
    e = np.floor(np.log10(v)).astype(np.int64)
    wide = v.astype(np.longdouble)
    y = wide * powers[16 - _POWER_RANGE.start - e]
    off = np.flatnonzero((y >= 1e17) | (y < 1e16))  # log10 rounded across a power of ten
    e[off] += np.where(y[off] >= 1e17, 1, -1)
    y[off] = wide[off] * powers[16 - _POWER_RANGE.start - e[off]]
    top = y.astype(np.int64)  # y > 0: truncation is the floor
    # exact: y < 2**57 keeps at most 10 bits below the point
    frac = (y - top).astype(np.float64)
    # the 17-digit rounding, which is also repr's when it needs all 17 digits
    live = np.flatnonzero((top >= 10**16) & (top < 10**17))
    sure = np.zeros(top.shape, bool)
    sure[live] = np.abs(frac[live] - 0.5) > bound
    result = top + (frac > 0.5)
    if shortest:
        # h = y * 2**-54 / mantissa; its float64 rounding (< 4e-15) is within B's 1% slack
        half = y.astype(np.float64) / mantissa[fast] * 2.0**-54
        for k in range(1, 17):
            step = 10 ** k
            whole = top[live]
            low = whole - whole // step * step
            # whole - below is the multiple of 10**k nearer to x, and below + frac the
            # offset of x from it: exact in float64 while |below| < 2**43, and far
            # outside every bound beyond
            below = low - step * (low >= step // 2)
            gap = np.abs(below + frac[live])
            room = half[live] - gap  # > 0: that multiple is inside the interval
            # unsure: too near the interval's end, or inside and too near the midpoint
            # of the two multiples to tell which is nearer (possible only for k = 1)
            unsure = (np.abs(room) <= bound) | ((room > 0) & (gap >= step // 2 - bound))
            sure[live[unsure]] = False
            inside = (room > bound) & ~unsure
            live = live[inside]
            if not live.size:
                break
            result[live] = whole[inside] - below[inside]
            sure[live] = True
    carry = result == 10**17
    result[carry] //= 10
    e += carry
    fast = fast[sure]
    digits[fast], exponent[fast], done[fast] = result[sure], e[sure], True
    return digits, exponent, done


@functools.cache
def _layouts(shortest: bool) -> np.ndarray:
    """
    Which columns of _NUMBER_TEMPLATE, with the digits filled in, spell a
    number as repr (`shortest`) or "%.17g" writes it, one row per form
    and count of significant digits `used` (1 ... 17), row form * 18 +
    used, each row one void item (`take` copies those faster than rows of
    bools).  Forms 0 ... 20 have the first digit at 10**(form - 4), 21 and
    22 are exponential with two and three exponent digits.

    Fixed notation (10**-4 <= v < 10**16, 10**17 for "%.17g") keeps
    "0." and zeros ahead of a number below 1, the digits up to the point,
    and the point and the rest of the digits, or ".0" in repr when none
    are left; the other numbers keep one digit, the point and the rest,
    and e, the sign and at least two exponent digits.
    """
    form, used = np.divmod(np.arange(23 * 18)[:, None], 18)
    exponent = np.where(form < 21, form - 4, np.where(form == 21, -5, -100))
    fixed = (exponent >= -4) & (exponent < (16 if shortest else 17))
    head = np.where(fixed, np.where(exponent < 0, used, exponent + 1), 1)
    col = np.arange(17)
    table = np.concatenate([
        fixed & (exponent < 0) & (col[:5] < 1 - exponent),
        col < head,
        used > head,
        (col[1:] >= head) & (col[1:] < used),
        np.repeat(shortest & fixed & (exponent >= 0) & (used <= head), 2, axis=1),
        np.repeat(~fixed, 2, axis=1),
        ~fixed & (np.abs(exponent) >= 100),
        np.repeat(~fixed, 2, axis=1),
    ], axis=1)
    return table.view(f"V{table.shape[1]}").ravel()


@functools.cache
def _exponent_words() -> np.ndarray:
    """The ASCII of the sign and three digits of each exponent -400 ... 400, as uint32 words."""
    return np.frombuffer("".join(f"{e:+04d}" for e in range(-400, 401)).encode(), np.uint32)


def _number_columns(block: np.ndarray, keep: np.ndarray, values: np.ndarray,
                    shortest: bool) -> None:
    """
    Fill `block`, m rows of _NUMBER_TEMPLATE, with the text of each value,
    repr or "%.17g" as `_decimal_digits` says, and mark in `keep` which of
    its columns the text uses (the sign where `np.signbit` is set, then
    `_layouts`): the kept columns of a row, in order, are the text.
    Values the kernel leaves undone take Python's own text, as do all
    values of a call with fewer than KERNEL_MIN_VALUES.
    """
    rest = np.arange(len(values))
    if len(values) >= KERNEL_MIN_VALUES:
        digits, exponent, done = _decimal_digits(values, shortest)
        glyphs = _glyphs(digits)
        block[:, 6:23] = glyphs
        block[:, 24:40] = glyphs[:, 1:]
        block[:, 43:] = _exponent_words()[exponent + 400, None].view(np.uint8)
        used = _significant(digits)
        fixed = (exponent >= -4) & (exponent < (16 if shortest else 17))
        form = np.where(fixed, exponent + 4, np.where(np.abs(exponent) < 100, 21, 22))
        keep[:, 0] = np.signbit(values)
        keep[:, 1:] = _layouts(shortest).take(form * 18 + used).view(bool).reshape(len(rest), -1)
        rest = np.flatnonzero(~done)
    if rest.size:
        text = repr if shortest else "%.17g".__mod__
        words = np.array([text(v).encode() for v in values[rest].tolist()], f"S{block.shape[1]}")
        words = words.view(np.uint8).reshape(rest.size, -1)
        block[rest], keep[rest] = words, words > 0  # numpy pads bytes with NUL


def _table_rows(parts: list, columns: list, shortest: bool, join: str = ""):
    """
    Yield the text of a table, TABLE_CHUNK_ROWS rows at a time.  Row r is
    parts[0], entry r of the first column, parts[1], and so on up to the
    last column and parts[-1]; rows are separated by `join`.  A column is
    either a pair (names, index), entries of the bytes array `names` picked
    by the integer array `index`, or a float64 array, each entry written by
    `_number_columns` as repr(v) when `shortest`, else "%.17g" % v.
    """
    layout, places, tables = [parts[0].encode()], [], []
    for column, part in zip(columns, parts[1:]):
        if isinstance(column, tuple):
            # one void item per NUL-padded name: `take` copies those as fast as a broadcast
            width = column[0].itemsize
            template, table = bytes(width), column[0].view(f"V{width}")
        else:
            template, table = _NUMBER_TEMPLATE.tobytes(), None
        at = sum(map(len, layout))
        places.append(slice(at, at + len(template)))
        tables.append(table)
        layout += [template, part.encode()]
    row = np.frombuffer(b"".join(layout + [join.encode()]), np.uint8)
    count = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    # one buffer pair serves every chunk: each yielded text is a copy
    text = np.empty((min(TABLE_CHUNK_ROWS, count), row.size), np.uint8)
    keep = np.empty(text.shape, bool)
    for start in range(0, count, TABLE_CHUNK_ROWS):
        stop = min(start + TABLE_CHUNK_ROWS, count)
        text, keep = text[:stop - start], keep[:stop - start]
        text[...], keep[...] = row, True
        for place, column, table in zip(places, columns, tables):
            if table is None:
                _number_columns(text[:, place], keep[:, place], column[start:stop], shortest)
            else:
                names = table.take(column[1][start:stop]).view(np.uint8).reshape(stop - start, -1)
                text[:, place], keep[:, place] = names, names > 0
        if stop == count:
            keep[-1, row.size - len(join):] = False
        yield str(text[keep].data, "ascii")


def _write_parts(path, parts) -> None:
    """Write the strings `parts` to `path`, a file name or an open text stream, unjoined."""
    if hasattr(path, "write"):
        path.writelines(parts)
        return
    with open(path, "w") as out:
        out.writelines(parts)


def _grid_columns(grid: np.ndarray) -> list:
    """The columns x, y and p of a probability grid's table, x-major in centered coordinates."""
    n = len(grid)
    names = np.array(list(map(str, coords(n).tolist())), "S")
    lines = np.arange(n, dtype=np.min_scalar_type(n))
    return [(names, lines.repeat(n)), (names, lines[None].repeat(n, axis=0).ravel()), grid.ravel()]


def write_grid_csv(state: WalkState, path) -> np.ndarray:
    """
    Write the probability grid as CSV: a header `x,y,p`, then one row per
    site in centered coordinates, x-major, p formatted `%.17g`; every line
    ends in a newline.  The numbers come from `_decimal_digits`, byte for
    byte Python's `"%.17g" % p`.  Returns the grid it wrote.
    """
    grid = state.probability_grid()
    rows = _table_rows(["", ",", ",", "\n"], _grid_columns(grid), shortest=False)
    _write_parts(path, itertools.chain(["x,y,p\n"], rows))
    return grid


def write_grid_json(state: WalkState, path, *, coin: str = "", initial: str = "") -> np.ndarray:
    """
    Write the probability grid as JSON with run metadata: the bytes of
    `json.dumps(payload, indent=2, sort_keys=True)` plus a newline, where
    `payload["rows"]` holds one [x, y, p] per site in CSV order and each p
    is written as its Python `repr` (what `json` writes for a finite
    float), from `_decimal_digits`.  Returns the grid it wrote.
    """
    grid = state.probability_grid()
    payload = {"coin": coin, "N": state.n, "t": state.t, "initial": initial,
               "columns": ["x", "y", "p"]}
    head, tail = _json_frame(payload, "rows")
    rows = _table_rows(["    [\n      ", ",\n      ", ",\n      ", "\n    ]"],
                       _grid_columns(grid), shortest=True, join=",\n")
    _write_parts(path, itertools.chain([head], rows, [tail]))
    return grid
