"""Generalized first-quadrant lattice paths with marked peaks.

Steps are NE, SE, S, SW, E with S/SW allowed only right after NE and E only
at height zero.  Paths start on the y-axis, end on the x-axis, and never end
with an East step (so each major index is reached by finitely many paths and
the peakless path is the unique one of major index zero).  A peak is a
vertex entered by NE and left by S (marked ``a`` or ``b``), SW (``ab``) or
SE (``one``); the major index is the sum of the peaks' x-coordinates.

The module also holds the peak-count generating functions (recurrence and
closed form) and the bijection with rank-bounded Frobenius symbols.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .counts import CountTable, cell_shift, check_bound, state_rows
from .frobenius import FrobeniusSymbol, rank_interval, successive_ranks
from .hyperg import r_exponent
from .overpartitions import check_ki
from .qtools import f_poly as _f_poly
from .series import TruncatedSeries, mono, over_one_minus

NE, SE, S, SW, E = "NE", "SE", "S", "SW", "E"

_MOVES = {NE: (1, 1), SE: (1, -1), S: (0, -1), SW: (-1, -1), E: (1, 0)}


class PeakRecord(NamedTuple):
    """One peak with its left-context statistics.

    ``u`` and ``v`` count the plain a-peaks and b-peaks strictly to the
    left (ab-peaks are excluded; only u - v ever enters a formula, so the
    convention is invisible downstream).  ``east_odd`` is the parity of the
    East steps to the left.
    """

    x: int
    y: int
    mark: str
    east_odd: bool
    u: int
    v: int


# The step leaving a peak, with the marks it allows and the error otherwise,
# in listing order.
_PEAK_MARKS = {
    SE: (("one",), "a SE-followed peak must be marked one"),
    S: (("a", "b"), "an S-followed peak must be marked a or b"),
    SW: (("ab",), "a SW-followed peak must be marked ab"),
}


def _start(height: int) -> tuple:
    """The empty prefix of a path starting at ``height`` on the y-axis."""
    return (0, height, None, False, 0, 0, (0, 0, 0, height), ())


def _step(prefix: tuple, step, mark):
    """``prefix`` extended by ``step``, or the message of the rule it breaks.

    A prefix is (x, y, last step, East parity, u, v, stats, peaks), with
    stats (major index, marked a, marked b, max height) and peaks the
    :class:`PeakRecord` of each peak so far.  When ``step`` leaves a peak,
    the peak is recorded with ``mark``, unchecked; otherwise ``mark`` is
    ignored.
    """
    x, y, last, east_odd, u, v, stats, peaks = prefix
    move = _MOVES.get(step)
    if move is None:
        return f"unknown step {step!r}"
    if step == E:
        if y != 0:
            return "E step only allowed at height 0"
        east_odd = not east_odd
    elif last == NE and step != NE:  # (x, y) is a peak
        peaks += (PeakRecord(x, y, mark, east_odd, u, v),)
        major, marked_a, marked_b, top = stats
        stats = (major + x, marked_a + (mark in ("a", "ab")), marked_b + (mark in ("b", "ab")), top)
        u += mark == "a"
        v += mark == "b"
    elif step in (S, SW):
        return f"{step} step must follow a NE step"
    x, y = x + move[0], y + move[1]
    if y < 0 or x < 0:
        return "path leaves the first quadrant"
    if y > stats[3]:
        stats = stats[:3] + (y,)
    return (x, y, step, east_odd, u, v, stats, peaks)


class LatticePath:
    __slots__ = ("start_height", "steps", "marks", "_peaks", "_stats")

    def __init__(self, start_height: int, steps, marks):
        """Validate the path by folding :func:`_step` over its steps, then
        each peak's mark against the step leaving it.

        Faults are reported in a fixed order: a start height that is not a
        nonnegative ``int`` (a ``bool`` included), the first bad step, the
        end point, a trailing E, the number of marks, then the first peak
        whose mark does not fit the step leaving it.
        """
        if type(start_height) is not int or start_height < 0:
            raise ValueError(f"start height {start_height!r} must be a nonnegative integer")
        self.start_height = start_height
        self.steps = steps = tuple(steps)
        self.marks = marks = tuple(marks)
        prefix = _start(self.start_height)
        for step in steps:
            n_peaks = len(prefix[7])
            prefix = _step(prefix, step, marks[n_peaks] if n_peaks < len(marks) else None)
            if type(prefix) is str:
                raise ValueError(prefix)
        _x, y, last, *_, peaks = prefix
        if y != 0:
            raise ValueError(f"path must end on the x-axis, ended at height {y}")
        if last == E:
            raise ValueError("path may not end with an E step")
        if len(marks) != len(peaks):
            raise ValueError(f"expected {len(peaks)} peak marks, got {len(marks)}")
        # The walk took each peak's leaving step right after an NE.
        leaving = (step for last, step in zip(steps, steps[1:]) if last == NE and step != NE)
        for step, mark in zip(leaving, marks):
            allowed, message = _PEAK_MARKS[step]
            if mark not in allowed:
                raise ValueError(message)
        self._stats, self._peaks = prefix[6:]

    @classmethod
    def _walked(cls, start_height: int, steps, prefix: tuple) -> "LatticePath":
        """The path whose steps ``_step`` has already taken to ``prefix``."""
        path = cls.__new__(cls)
        path.start_height = start_height
        path.steps = tuple(steps)
        path._stats, path._peaks = prefix[6:]
        path.marks = tuple(peak.mark for peak in path._peaks)
        return path

    def peaks(self) -> tuple[PeakRecord, ...]:
        return self._peaks

    def major_index(self) -> int:
        return self._stats[0]

    def marked_a(self) -> int:
        return self._stats[1]

    def marked_b(self) -> int:
        return self._stats[2]

    s_stat, t_stat = marked_a, marked_b

    def max_height(self) -> int:
        return self._stats[3]

    def __eq__(self, other):
        return (
            isinstance(other, LatticePath)
            and self.start_height == other.start_height
            and self.steps == other.steps
            and self.marks == other.marks
        )

    def __hash__(self):
        return hash((self.start_height, self.steps, self.marks))

    def __repr__(self):
        return f"LatticePath(h={self.start_height}, {'-'.join(self.steps) or 'empty'})"

    def to_obj(self) -> dict:
        return {
            "start_height": self.start_height,
            "steps": list(self.steps),
            "marks": [{"peak": i, "mark": m} for i, m in enumerate(self.marks)],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "LatticePath":
        """The path of a :meth:`to_obj` listing, whose marks name each peak
        once by index."""
        peaks = [entry["peak"] for entry in obj["marks"]]
        if any(type(p) is not int for p in peaks) or sorted(peaks) != list(range(len(peaks))):
            raise ValueError(f"mark peaks {peaks} are not 0 .. {len(peaks) - 1}, each once")
        marks = sorted(obj["marks"], key=lambda entry: entry["peak"])
        return cls(obj["start_height"], obj["steps"], [entry["mark"] for entry in marks])


def satisfies_odd_conditions(path: LatticePath, k: int, i: int) -> bool:
    """Start height k-i and height always below k."""
    check_ki(k, i)
    return path.start_height == k - i and path.max_height() <= k - 1


def satisfies_even_conditions(path: LatticePath, k: int, i: int) -> bool:
    """Odd conditions plus the parity constraint at peaks of height k-1."""
    return satisfies_odd_conditions(path, k, i) and not any(
        _breaks_parity(peak, k, i) for peak in path.peaks())


def _breaks_parity(peak: PeakRecord, k: int, i: int) -> bool:
    """Whether ``peak`` breaks the even (k, i)-conditions: it lies at height
    k-1 and x - u + v differs from i - 1 in parity."""
    return peak.y == k - 1 and (peak.x - peak.u + peak.v - (i - 1)) % 2 != 0


# The (step, mark) choices in listing order: at a peak NE or a way down with
# each mark it allows, elsewhere NE, SE or E (``_step`` refuses the rest).
_AT_PEAK = ((NE, None),) + tuple(
    (step, mark) for step, (allowed, _) in _PEAK_MARKS.items() for mark in allowed)
_OFF_PEAK = ((NE, None), (SE, None), (E, None))


def _least_major(extended, step, k: int) -> int | None:
    """The least major index of a (k, i)-path through ``extended``, what
    :func:`_step` made of a prefix by ``step``, or None for a refused step or
    a prefix at height k or above.  After NE to x a peak lies at x or beyond,
    after E to x at x + 1 or beyond."""
    if type(extended) is str or extended[1] >= k:
        return None
    x, major = extended[0], extended[6][0]
    return major + (x if step == NE else x + 1 if step == E else 0)


def _paths_up_to(k: int, i: int, n_max: int) -> tuple[LatticePath, ...]:
    """All paths meeting the odd (k, i)-conditions with major index <= n_max.

    Depth-first over :func:`_step`, pruned by the height bound and by the
    least major index a completion can reach: after NE to x a peak lies at
    x or beyond, after E to x at x + 1 or beyond.  Deterministic order
    (steps explored NE, SE, S(a), S(b), SW, E).
    """
    check_ki(k, i)
    out: list[LatticePath] = []
    steps: list[str] = []

    def walk(prefix: tuple):
        last = prefix[2]
        if prefix[1] == 0 and last != E:
            out.append(LatticePath._walked(k - i, steps, prefix))
        for step, mark in _AT_PEAK if last == NE else _OFF_PEAK:
            extended = _step(prefix, step, mark)
            least = _least_major(extended, step, k)
            if least is None or least > n_max:
                continue
            steps.append(step)
            walk(extended)
            steps.pop()

    walk(_start(k - i))
    return tuple(out)


def paths_up_to(k: int, i: int, n_max: int, even: bool = False):
    """``(major index, path)`` for each (k, i)-path of major index <= n_max
    meeting the odd conditions (or the even ones), in listing order."""
    return ((path.major_index(), path) for path in _paths_up_to(k, i, n_max)
            if not even or satisfies_even_conditions(path, k, i))


def count_paths(k: int, i: int, n_max: int, even: bool = False,
                bound: int | None = None) -> CountTable:
    """Table of path counts by (marked-a, marked-b, major index), counted
    without building any path.

    How a prefix can be completed depends only on its walk state (x, y,
    last step), with (u - v + i - 1) mod 2 for the even conditions, so
    :func:`_walk_rows` gives each state one count row of its completions
    by the major index they add.  With i - 1 folded into the parity no state
    depends on i, and one walk serves the starts (0, k - i) of every i.
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    return CountTable.from_rows(_walk_rows(k, even, n_max)[i - 1], n_max)


@lru_cache(maxsize=None)
def _walk_rows(k: int, even: bool, n_max: int) -> tuple[tuple[int, ...], ...]:
    """The count rows of :func:`count_paths` for i = 1 .. k: the rows of the
    walk states of the empty (k, i)-path prefixes in
    :func:`qpair.counts.state_rows` over :func:`_state_steps`.  Rows are
    filled in decreasing x: the steps that add major index 0 (NE, SE off a
    peak, E) all raise x, and every other step leaves a peak at x >= 1."""
    starts = [(0, k - i, None, (i - 1) % 2 if even else 0) for i in range(1, k + 1)]
    rows = state_rows(starts, lambda state: _state_steps(state, k, even, n_max),
                      lambda state: -state[0], n_max)
    return tuple(tuple(rows[start]) for start in starts)


def _state_steps(state: tuple, k: int, even: bool, n_max: int) -> tuple[int, list[tuple]]:
    """The step table of ``state`` for :func:`qpair.counts.state_rows`:
    whether a path may end there, and the (least major index, major index,
    cell shift, next state) of each step a (k, i)-walk keeps from it.  It
    steps by :func:`_step` from a prefix whose u, v, East parity, statistics
    and peaks are reset, and reads what the step adds from the new
    statistics and the peak it records; the least major index is the bound
    of :func:`_least_major`."""
    x, y, last, odd = state
    out = []
    prefix = (x, y, last, False, odd, 0) + _start(y)[6:]
    for step, mark in _AT_PEAK if last == NE else _OFF_PEAK:
        extended = _step(prefix, step, mark)
        least = _least_major(extended, step, k)
        if least is None:
            continue
        peaks = extended[7]
        # The peak's u holds u - v + i - 1: the parity test of i = 1.
        if even and peaks and _breaks_parity(peaks[0], k, 1):
            continue
        major, ds, dt, _top = extended[6]
        odd_next = (extended[4] - extended[5]) % 2 if even else 0
        out.append((least, major, cell_shift(ds, dt, n_max),
                    (extended[0], extended[1], step, odd_next)))
    return int(y == 0 and last != E), out


# ------------------------------------------------------------------ bijection


_OVERLINES = {"one": (True, True), "a": (True, False), "b": (False, True), "ab": (False, False)}
_MARK_OF = {v: m for m, v in _OVERLINES.items()}


def path_to_symbol(path: LatticePath, k: int, i: int) -> FrobeniusSymbol:
    """Map an odd-conditions path to its rank-bounded Frobenius symbol.

    The leftmost peak gives the rightmost column; a peak at (x, y) with u, v
    plain a/b-peaks to its left maps to the column (p, q) with

        p = (x + k - i - y + u - v) / 2,  q = (x - k + i + y - 2 - u + v) / 2

    when an even number of E steps lie to its left, and

        p = (x + k - i + y - 1 + u - v) / 2,  q = (x - k + i - y - 1 - u + v) / 2

    when that number is odd.  1-peaks overline both entries, a-peaks the
    top, b-peaks the bottom.
    """
    if not satisfies_odd_conditions(path, k, i):
        raise ValueError(f"path does not satisfy the odd ({k},{i})-conditions")
    top = []
    bottom = []
    for peak in path.peaks():
        x, y, u, v = peak.x, peak.y, peak.u, peak.v
        if not peak.east_odd:
            two_p = x + k - i - y + u - v
            two_q = x - k + i + y - 2 - u + v
        else:
            two_p = x + k - i + y - 1 + u - v
            two_q = x - k + i - y - 1 - u + v
        if two_p % 2 or two_q % 2:
            raise ValueError(f"non-integer column for peak at ({x},{y})")
        over_p, over_q = _OVERLINES[peak.mark]
        top.append((two_p // 2, over_p))
        bottom.append((two_q // 2, over_q))
    top.reverse()
    bottom.reverse()
    return FrobeniusSymbol(top, bottom)


def symbol_to_path(f: FrobeniusSymbol, k: int, i: int) -> LatticePath:
    """Inverse map: rebuild the unique path from a rank-bounded symbol."""
    check_ki(k, i)
    lo, hi = rank_interval(k, i)
    ranks = successive_ranks(f)
    for idx, r in enumerate(ranks):
        if not (lo <= r <= hi):
            raise ValueError(
                f"rank {r} at column {idx + 1} outside [{lo}, {hi}] for (k,i)=({k},{i})"
            )
    # Recover the peaks, leftmost first (rightmost column first).
    peaks = []
    u = v = 0
    n_cols = f.columns
    for idx in range(n_cols - 1, -1, -1):
        p, over_p = f.top[idx]
        q, over_q = f.bottom[idx]
        mark = _MARK_OF[(over_p, over_q)]
        x = p + q + 1
        rank = p - q - u + v
        y_even = k - i + 1 - rank
        y_odd = rank - (k - i)
        even_ok = 1 <= y_even <= k - 1
        odd_ok = 1 <= y_odd <= k - 1
        if even_ok == odd_ok:
            raise ValueError("exactly one parity must solve for a valid height")
        y = y_even if even_ok else y_odd
        peaks.append((x, y, mark, not even_ok))
        if mark == "a":
            u += 1
        elif mark == "b":
            v += 1

    steps: list[str] = []
    marks: list[str] = []
    east_so_far = 0

    def descend_then_climb(x0: int, h0: int, x1: int, y1: int):
        """Fill SE (then E at the axis) then NE steps from (x0,h0) up to (x1,y1)."""
        nonlocal east_so_far
        hit_zero = x0 + h0
        climb_from = x1 - y1
        if hit_zero <= climb_from:
            steps.extend([SE] * h0)
            steps.extend([E] * (climb_from - hit_zero))
            east_so_far += climb_from - hit_zero
            steps.extend([NE] * y1)
        else:
            if (x0 + h0 + climb_from) % 2 != 0:
                raise ValueError("columns do not connect into a path")
            xj = (x0 + h0 + climb_from) // 2
            steps.extend([SE] * (xj - x0))
            steps.extend([NE] * (x1 - xj))

    cx, ch = 0, k - i
    for x, y, mark, east_odd in peaks:
        descend_then_climb(cx, ch, x, y)
        if east_odd != (east_so_far % 2 == 1):
            raise ValueError("East-step parity does not match the column data")
        marks.append(mark)
        if mark == "one":
            steps.append(SE)
            cx, ch = x + 1, y - 1
        elif mark == "ab":
            steps.append(SW)
            cx, ch = x - 1, y - 1
        else:
            steps.append(S)
            cx, ch = x, y - 1
    steps.extend([SE] * ch)
    path = LatticePath(k - i, steps, marks)
    if path_to_symbol(path, k, i) != f:
        raise ValueError("reconstructed path does not map back to the symbol")
    return path


# ------------------------------------------------------------------ generating functions


def _plus_shifted(s: TruncatedSeries, shifted: TruncatedSeries, e: int) -> TruncatedSeries:
    """``s + shifted * q^e``, with ``shifted`` cut to ``s``'s cutoff less e
    before the shift: the sum keeps nothing of it at or above that cutoff."""
    return s + shifted.truncated(s.q_cutoff - e).times_monomial(mono(1, q=e))


@lru_cache(maxsize=None)
def _gf_tables(k: int, even: bool, q_cutoff: int, n_peaks: int):
    """Peak-count generating functions from the step-removal recurrences.

    Returns (E, G) read-only mappings keyed by (i, N) for N <= n_peaks,
    since the tables are cached for the life of the process.  Level N is
    added to the cached tables of level N - 1.  Grounding: one path with no
    peaks, and no start-with-NE paths from height k-1.
    """
    if n_peaks == 0:
        E = {(i, 0): TruncatedSeries.one(q_cutoff) for i in range(1, k + 1)}
        G = {(i, 0): TruncatedSeries.zero(q_cutoff) for i in range(0, k)}
        return MappingProxyType(E), MappingProxyType(G)
    if even and k < 2:
        raise ValueError("even-conditions tables need k >= 2")
    N = n_peaks
    E, G = (dict(table) for table in _gf_tables(k, even, q_cutoff, N - 1))
    qN = mono(1, q=N)
    step_weights = TruncatedSeries.poly(
        [mono(1, a=1), mono(1, b=1), mono(1, q=N - 1), mono(1, a=1, b=1, q=1 - N)]
    )
    G[(0, N)] = TruncatedSeries.zero(q_cutoff)
    for i in range(1, k):
        G[(i, N)] = _plus_shifted(step_weights * E[(i + 1, N - 1)], G[(i - 1, N)], N)
    if not even:
        E[(k, N)] = over_one_minus(G[(k - 1, N)].times_monomial(qN), qN)
    else:
        rhs = _plus_shifted(G[(k - 2, N)].times_monomial(qN), G[(k - 1, N)], 2 * N)
        E[(k - 1, N)] = over_one_minus(rhs, mono(1, q=2 * N))
        E[(k, N)] = (E[(k - 1, N)] + G[(k - 1, N)]).times_monomial(qN)
    for i in range(k - 1 if not even else k - 2, 0, -1):
        E[(i, N)] = (G[(i - 1, N)] + E[(i + 1, N)]).times_monomial(qN)
    return MappingProxyType(E), MappingProxyType(G)


def gf_recurrence(k: int, i: int, n_peaks: int, q_cutoff: int, even: bool = False) -> TruncatedSeries:
    """Generating function (in a, b, q) for N-peak paths, via the recurrences."""
    check_ki(k, i)
    E, _G = _gf_tables(k, even, q_cutoff, n_peaks)
    return E[(i, n_peaks)]


def gf_gamma_recurrence(k: int, i: int, n_peaks: int, q_cutoff: int, even: bool = False) -> TruncatedSeries:
    """Companion generating function for first-NE-step-removed paths."""
    if not (0 <= i < k):
        raise ValueError(f"need 0 <= i < k, got i={i}, k={k}")
    _E, G = _gf_tables(k, even, q_cutoff, n_peaks)
    return G[(i, n_peaks)]


@lru_cache(maxsize=None)
def _pair_row(m1: int, m2: int, q_cutoff: int) -> tuple[int, ...]:
    """The coefficients of q^0 .. q^(q_cutoff - 1) in 1/((q)_m1 (q)_m2), m1 <= m2:
    the row of (m1, m2 - 1) divided by 1 - q^m2."""
    if m2 == 0:
        return (1,) + (0,) * (q_cutoff - 1)
    row = list(_pair_row(min(m1, m2 - 1), max(m1, m2 - 1), q_cutoff))
    for d in range(m2, q_cutoff):
        row[d] += row[d - m2]
    return tuple(row)


def _closed_sum(n_peaks: int, summands, q_cutoff: int) -> TruncatedSeries:
    """f_poly(n_peaks) times the sum of ``(-1)^n q^e / ((q)_m1 (q)_m2)`` over the ``(m1, m2,
    n, e)`` in ``summands`` with e below ``q_cutoff``: one row of integers on [0, q_cutoff),
    summed from the cached rows of :func:`_pair_row`.  Every e is >= 0: :func:`gf_closed`
    gives (k - 1/2) n^2 + (k - i + 1/2) n + N, or (k - 1) n^2 + (k - i) n + N when even, and
    :func:`gf_gamma_closed` the same with i + 1 for i and no + N; each is at least m i at
    n = -m, and each of its terms is >= 0 at n >= 0."""
    row = [0] * q_cutoff
    for m1, m2, n, e in summands:
        if e < q_cutoff:
            sign = -1 if n % 2 else 1
            for d, v in enumerate(_pair_row(min(m1, m2), max(m1, m2), q_cutoff)[:q_cutoff - e], e):
                row[d] += sign * v
    terms = {(0, 0, 0, d): v for d, v in enumerate(row) if v}
    return _f_poly(n_peaks, q_cutoff) * TruncatedSeries(terms, 0, q_cutoff)


def gf_closed(k: int, i: int, n_peaks: int, q_cutoff: int, even: bool = False) -> TruncatedSeries:
    """Closed-form peak-count generating function (alternating finite sum)."""
    check_ki(k, i)
    return _closed_sum(n_peaks, ((n_peaks - n, n_peaks + n, n, r_exponent(k, i, n, even) - n + n_peaks)
                                 for n in range(-n_peaks, n_peaks + 1)), q_cutoff)


def gf_gamma_closed(k: int, i: int, n_peaks: int, q_cutoff: int, even: bool = False) -> TruncatedSeries:
    if not (0 <= i < k):
        raise ValueError(f"need 0 <= i < k, got i={i}, k={k}")
    return _closed_sum(n_peaks, ((n_peaks - n - 1, n_peaks + n, n, r_exponent(k, i + 1, n, even) - n)
                                 for n in range(-n_peaks, n_peaks)), q_cutoff)
