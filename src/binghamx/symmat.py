"""Symmetric-matrix ingestion, power sums, and gradient polynomials.

Matrices are plain float64 numpy arrays.  :func:`load_matrix` is the only
ingestion point: it parses the text format, enforces symmetry to the
documented tolerance, and returns the exactly symmetrized matrix, so
everything downstream may assume a finite symmetric array with d >= 2.
:func:`symmetrize` forms that symmetric part for :func:`load_matrix` and
for dense :func:`materialize` alike: a pair whose sum overflows is halved
before it is added, so finite entries up to DBL_MAX stay finite.

The text format is whitespace-separated: the first token is the dimension
d, followed by d*d entries read row by row, each an ASCII decimal number.
Line breaks are not significant beyond separating tokens.

Text conversion costs far more than the arithmetic at large d, so both
directions convert each distinct entry once.  :func:`load_matrix` parses
the upper triangle and copies a value to its mirror when the two tokens
are the same text; :func:`format_matrix`, the one writer of the CLI's
text, csv and md matrices, renders the upper triangle and reuses a string
for its mirror when the two values are bit-equal.  Results are the same as
converting every entry.

At d >= ``D_MIN`` both directions share the work with one forked child
process, each distinct entry still converted once, when the gate
:func:`_can_fork` is open: POSIX ``fork`` exists, the process may run on
at least two CPUs, and no other Python thread runs.  :func:`load_matrix`
takes the header and the top 40% of the rows itself and the child the
rest, each splitting the text from its own end; :func:`format_matrix`
renders the top-left triangle of the rows above r = d / sqrt(2) itself
and the child the rectangle to its right and the bottom triangle, about
d*d/4 entries each.  The bytes, bits and error messages are those of the
serial path, which runs, with no flag or environment variable, when the
gate is closed, the text is not plain ASCII, the entry count is wrong, a
token does not parse or the child fails.  The child leaves by
``os._exit`` and is reaped before either function returns or raises.

Gradients are matrix polynomials g(Sigma), of degree L = m - 2 for m terms.
:func:`materialize` evaluates dense ones by the Paterson-Stockmeyer
scheme: with block size s ~ sqrt(L) it takes (s - 1) + L // s products
(11 at L = 38, 5 at L = 10) instead of Horner's L, and holds at most
s + 2 d x d arrays beyond Sigma.  Each block sum is one BLAS gemv over the
stacked powers and the carried product, so BLAS chooses the order of its
additions as it does for the products; only the diagonal additions are
elementwise.  Diagonal Sigma takes Horner's rule on the diagonal, O(d L).

Before the split, dense Sigma drops the top coefficients whose summed
bound sum_{l > L'} |c_l| nu^l is at most 2^-55 |c_1| omega, omega the
largest off-diagonal |sigma_ij| and nu >= ||Sigma||_2: as
|(Sigma^l)_ij| <= ||Sigma||_2^l, no entry moves by more than a quarter of
the unit roundoff of the first-order off-diagonal scale.  A gradient of
the series records the spectrum it came from, and there nu is its
max |lambda_i| (1 + 2^-20) (``PowerSums._nu``); any other polynomial, or
a Sigma whose ||Sigma||_F^2 does not match that spectrum's p_2, takes
nu = ||Sigma||_F.  In the regime ||Sigma|| <= gamma0 d^(r/2), r < 1, the
coefficient of Sigma^l falls like 1/(d/2)_(l+1), so at m = 40 and
||Sigma||_F = 1 about degree 8 of 38 is kept on a d = 100 trace-zero
Sigma (11 with nu = ||Sigma||_F): 4 products instead of 11.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .bounds import round_half_up
from .errors import (
    DimensionMismatchError,
    InsufficientPowersError,
    MatrixFormatError,
    MatrixValidationError,
)

#: Relative asymmetry tolerated on ingestion: |a_ij - a_ji| / (1 + |a_ij|).
ASYMMETRY_TOL = 1e-9

#: Largest d for which the dense eigenvalue path is attempted.  Larger
#: matrices are supported only through the diagonal fast path.
DENSE_EIGEN_LIMIT = 20000


#: Smallest d at which load_matrix and format_matrix share their
#: conversion with a forked child process (see :func:`_can_fork`): above
#: the crossover, near d = 200 on two CPUs, where the fork and the
#: transfer cost what the second CPU saves.
D_MIN = 250

#: The share of rows, from the top, that load_matrix parses itself.
_LOAD_SHARE = 0.4


def _can_fork(d: int) -> bool:
    """Whether a d x d text conversion is shared with a forked child process.

    All of: d >= ``D_MIN``, POSIX ``fork``, at least two CPUs that this
    process may run on, and no Python thread but this one.
    """
    return (d >= D_MIN and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _forked(child, parent):
    """``(parent(), payload)``, with ``child()`` run in a forked child process.

    ``child()`` returns a list of bytes-like buffers; their concatenation
    comes back through a pipe as the payload, a bytearray, or None when
    the child raises or exits nonzero or fork fails.  The child leaves by
    ``os._exit`` on every path, so it runs no exit handler and flushes no
    buffer of this process.  This process reaps the child before it
    returns or raises: when ``parent()`` or the read raises,
    KeyboardInterrupt included, it kills the child first.  SIGINT is
    blocked across the fork, so the child's pid is known before an
    interrupt can land here, and it stays blocked in the child.
    """
    pid = None
    try:
        read, write = os.pipe()
    except OSError:  # no descriptor left: convert in this process
        return parent(), None
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns on fork while any thread runs, BLAS's
                # own among them; no other Python thread runs (_can_fork),
                # and the child takes no lock of theirs.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            pass
        finally:
            if pid != 0:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if pid == 0:
            status = 1
            try:
                os.close(read)
                buffers = [memoryview(b).cast("B") for b in child()]
                buffers.insert(0, memoryview(sum(map(len, buffers)).to_bytes(8, "little")))
                for data in buffers:
                    while data:
                        data = data[os.write(write, data):]
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        write = None
        mine = parent()
        if pid is None:
            return mine, None
        size = _read_exactly(read, 8)
        payload = size and _read_exactly(read, int.from_bytes(size, "little"))
        status = os.waitpid(pid, 0)[1]
        pid = None
        return mine, (payload if status == 0 else None)
    finally:
        if pid == 0:
            os._exit(1)
        os.close(read)
        if write is not None:
            os.close(write)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _read_exactly(fd: int, n: int) -> bytearray | None:
    """n bytes from ``fd`` read into one buffer, or None if it ends first."""
    buf = bytearray(n)
    with memoryview(buf) as view:
        got = 0
        while got < n and (k := os.readv(fd, [view[got:]])):
            got += k
    return buf if got == n else None


def load_matrix(text: str) -> np.ndarray:
    """Parse matrix text into a validated symmetric float64 array.

    Each distinct entry is converted once: the upper triangle is parsed,
    and an entry below the diagonal is parsed only when its token differs
    from its mirror's; otherwise it takes the mirror's value.  Results and
    error messages are those of parsing every token in row-major order.
    At d >= ``D_MIN`` the rows are shared with a forked child process
    (:func:`_parse_two_ended`), with the same results and messages.

    Parameters
    ----------
    text : str
        First token the dimension d (integer >= 2), then d*d ASCII
        decimal numbers in row-major order.

    Returns
    -------
    numpy.ndarray
        ``symmetrize(A)``, the exactly symmetrized matrix (A + A.T) / 2,
        shape (d, d), finite: a pair whose sum overflows is halved before
        it is added.

    Raises
    ------
    MatrixFormatError
        Malformed header, non-numeric token, or wrong entry count; the
        message names the offending row and column.
    MatrixValidationError
        d < 2, non-finite entries, or relative asymmetry above
        ``ASYMMETRY_TOL``.
    """
    # Only such text can hold a token that int or float reads but the
    # format does not have (see _is_number); isascii is O(1).
    foreign = "_" in text or not text.isascii()
    if not foreign:
        head = text[:24].split(None, 1)
        d = int(head[0]) if len(head) == 2 and head[0].isdigit() else 0
        # Each entry takes at least two characters: d * d >= len(text) is
        # a wrong count, which the serial path names.
        if d * d < len(text) and _can_fork(d):
            a = _parse_two_ended(text, d)
            if a is not None:
                return _validated(a)
    tokens = text.split()
    del text  # freed here unless the caller holds it
    if not tokens:
        raise MatrixFormatError("empty input: expected dimension header")
    try:
        if foreign and not _is_number(tokens[0], int):
            raise ValueError
        d = int(tokens[0])
    except ValueError:
        raise MatrixFormatError(
            f"dimension header must be an integer, got {tokens[0]!r}"
        ) from None
    if d < 2:
        raise MatrixValidationError(f"dimension must be >= 2, got {d}")
    count = len(tokens) - 1
    if count != d * d:
        # Locate the shortfall/overrun for the diagnostic.
        n = min(count, d * d)
        row, col = divmod(n, d)
        raise MatrixFormatError(
            f"expected {d * d} entries for d = {d}, got {count} "
            f"(at row {row + 1}, column {col + 1})"
        )
    try:
        if foreign and not all(map(_is_number, islice(tokens, 1, None))):
            raise ValueError
        a = np.empty((d, d), dtype=np.float64)
        _parse_mirrored(tokens, d, a)
    except ValueError:
        # Name the first bad token in row-major order.
        for idx, tok in enumerate(islice(tokens, 1, None)):
            if not _is_number(tok):
                row, col = divmod(idx, d)
                raise MatrixFormatError(
                    f"row {row + 1}, column {col + 1}: expected a number, got {tok!r}"
                ) from None
        raise
    del tokens
    return _validated(a)


def _validated(a: np.ndarray) -> np.ndarray:
    """``symmetrize(a)`` once ``a`` is finite and symmetric to ``ASYMMETRY_TOL``."""
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise MatrixValidationError(
            f"non-finite entry at row {i + 1}, column {j + 1}"
        )
    # A difference past DBL_MAX is inf, and rejected as such.
    with np.errstate(over="ignore"):
        asym = np.abs(a - a.T) / (1.0 + np.abs(a))
    worst = float(asym.max())
    if worst > ASYMMETRY_TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise MatrixValidationError(
            f"matrix is not symmetric: entries ({i + 1},{j + 1}) and "
            f"({j + 1},{i + 1}) differ, relative asymmetry {worst:.3e} "
            f"exceeds {ASYMMETRY_TOL:.0e}"
        )
    return symmetrize(a)


def _is_number(tok: str, kind=float) -> bool:
    """Whether ``tok`` is a number of the format: ``kind`` reads it, and it
    has no "_" or non-ASCII character (int and float read "1_0" as 10 and
    an Arabic-Indic digit as its value)."""
    try:
        kind(tok)
    except ValueError:
        return False
    return tok.isascii() and "_" not in tok


def _parse_mirrored(tokens: list[str], d: int, a: np.ndarray, top: int = 0) -> None:
    """Fill the entries (top + r, top + c) of a d x d matrix into ``a[r, c]``.

    ``tokens[1:]`` holds rows top .. top + n - 1 in row-major order, n =
    len(a), and ``a`` has a column for each column from ``top`` on.  Each
    distinct token is parsed once: row i's upper part is parsed, and
    column i below the diagonal copies it, except where a token differs
    from its mirror's and is parsed itself.  Raises ValueError on the
    first token ``float`` rejects, in no set order.
    """
    for r in range(len(a)):
        i, start = top + r, 1 + r * d
        upper = tokens[start + i:start + d]
        a[r, r:] = np.fromiter(map(float, upper), np.float64, d - i)
        a[r + 1:, r] = a[r, r + 1:len(a)]
        lower = tokens[start + d + i::d]
        if lower != upper[1:len(lower) + 1]:
            for j, (u, tok) in enumerate(zip(upper[1:], lower), r + 1):
                if u != tok:
                    a[j, r] = float(tok)


def _parse_two_ended(text: str, d: int) -> np.ndarray | None:
    """The matrix of ASCII ``text`` with header d, parsed in two processes, or None.

    Both processes split ``text`` itself, from its two ends, so neither
    touches the other's token objects.  This process takes the header and
    rows < q with ``split``, a forked child the rows >= q with ``rsplit``
    (:func:`_forked`); each parses its rows as :func:`_parse_mirrored`
    does.  The child sends back its square block of columns >= q, where
    its prefix of ``text`` ends, and columns < q of its rows, each joined
    into one string.  Where such a column is the joined tail of its
    mirror row, the entries take their mirrors' values; otherwise the
    tokens are compared one by one.  The count is exact if and only if
    the child's prefix ends before this process's remainder starts, with
    only whitespace between them.  None when the count is not d * d, a
    token does not parse or the child fails: the serial path then gives
    the error.  The entries are those :func:`_parse_mirrored` gives on
    the whole text.
    """
    q = round(_LOAD_SHARE * d)
    n = (d - q) * d

    def child() -> list:
        tokens = text.rsplit(None, n)
        if len(tokens) != n + 1:
            raise ValueError("too few tokens")
        block = np.empty((d - q, d - q), dtype=np.float64)
        _parse_mirrored(tokens, d, block, q)
        columns = "\n".join(" ".join(tokens[1 + j::d]) for j in range(q))
        return [len(tokens[0]).to_bytes(8, "little"), block, columns.encode("ascii")]

    def parent() -> tuple[np.ndarray, list[str], str, int]:
        tokens = text.split(None, 1 + q * d)
        if len(tokens) != 2 + q * d:
            raise ValueError("too few tokens")
        start = len(text) - len(tokens.pop())
        a = np.empty((d, d), dtype=np.float64)
        _parse_mirrored(tokens, d, a[:q])
        a[q:, :q] = a[:q, q:].T
        tails = "\n".join(" ".join(tokens[1 + j * d + q:1 + (j + 1) * d]) for j in range(q))
        return a, tokens, tails, start

    try:
        (a, tokens, tails, start), data = _forked(child, parent)
        if data is None:
            return None
        end = int.from_bytes(data[:8], "little")
        if not (end < start and text[end:start].isspace()):
            return None
        size = 8 + 8 * (d - q) ** 2
        a[q:, q:] = np.frombuffer(data, np.float64, (d - q) ** 2, 8).reshape(d - q, d - q)
        columns = str(memoryview(data)[size:], "ascii")
        del data
        if columns != tails:
            for j, column in enumerate(columns.split("\n")):
                row = tokens[1 + j * d + q:1 + (j + 1) * d]
                for t, (u, tok) in enumerate(zip(row, column.split(" ")), q):
                    if u != tok:
                        a[t, j] = float(tok)
    except ValueError:
        return None
    return a


def _g17(values: list[float]) -> list[str]:
    """Each value with 17 significant digits, as ``f"{x:.17g}"`` writes it."""
    return ((" %.17g" * len(values))[1:] % tuple(values)).split(" ")


def _matrix_rows(a: np.ndarray, cells):
    """Yield each row of ``a`` as a list of strings, each distinct entry rendered once.

    ``cells`` maps a list of floats to their strings.  A square matrix
    renders its upper triangle; an entry below the diagonal reuses its
    mirror's string when the two float64 values are bit-equal, and is
    rendered on its own otherwise.  Only the strings of entries still to
    be printed are held: at most d*d/4 of them.
    """
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    if a.shape[1] != d:
        for r in a:
            yield cells(r.tolist())
        return
    bits = a.view(np.int64)
    # pending[j]: the strings of (0, j) .. (i - 1, j), the mirrors of row j's first i.
    pending = [[] for _ in range(d)]
    for i in range(d):
        upper = cells(a[i, i:].tolist())
        row, pending[i] = pending[i], None
        for j in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
            row[j] = cells([float(a[i, j])])[0]
        # Hand (i, j) to row j for every j > i; the deque only drains the map.
        deque(map(list.append, pending[i + 1:], upper[1:]), maxlen=0)
        row += upper
        yield row


#: For each output format: the cell renderer, the first line for a
#: (rows, columns) shape, and each row's start, separator and end.
_LAYOUTS = {
    "text": (_g17, lambda rows, cols: f"{rows}\n", "", " ", "\n"),
    "csv": (_g17, lambda rows, cols: "", "", ",", "\n"),
    "md": (lambda values: list(map(round_half_up, values)),
           lambda rows, cols: "|" + "---|" * cols + "\n", "| ", " | ", " |\n"),
}


def format_matrix(a: np.ndarray, fmt: str = "text") -> str:
    """Render a matrix in the CLI output format ``fmt``: text, csv or md.

    ``text`` is the format :func:`load_matrix` reads, ``csv`` its rows
    alone, comma-separated, and ``md`` a table of one column per matrix
    column.  Entries have 17 significant digits, so a round trip is
    value-preserving, except in md, which rounds to 5 decimals half-up.
    Each distinct entry is converted once: a mirror entry bit-equal to
    its partner above the diagonal reuses its string.  A square matrix
    with d >= ``D_MIN`` is rendered in two processes
    (:func:`_format_two_process`).  The output is that of formatting
    every entry.
    """
    if fmt not in _LAYOUTS:
        raise ValueError(f"fmt must be one of {', '.join(_LAYOUTS)}, got {fmt!r}")
    cells, first, start, sep, end = _LAYOUTS[fmt]
    shape = np.shape(a)
    if len(shape) == 2 and shape[0] == shape[1] and _can_fork(shape[0]):
        pieces = _format_two_process(np.asarray(a, dtype=np.float64), cells, start, sep, end)
        if pieces is not None:
            return "".join([first(*shape), *pieces])
    lines = [first(*shape)]
    lines += [start + sep.join(row) + end for row in _matrix_rows(a, cells)]
    return "".join(lines)


def _format_two_process(a: np.ndarray, cells, start: str, sep: str, end: str) -> list[str] | None:
    """The rows of square ``a`` as strings to join, or None; arguments as in ``_LAYOUTS``.

    With r = round(d / sqrt(2)), this process renders the top-left
    triangle of rows < r, and a forked child (:func:`_forked`) the
    rectangle of rows < r and columns >= r and the bottom triangle of
    rows >= r: about d*d/4 entries each, none twice.  The child sends
    back each rectangle row as one joined string and its own rows as
    finished text.  Mirrors are reused as :func:`_matrix_rows` reuses
    them, so the text is that of the serial path; None when the child
    fails.
    """
    d = len(a)
    r = round(d / math.sqrt(2))
    w = d - r

    def child() -> list:
        rect = cells(a[:r, r:].ravel().tolist())
        pieces = [sep.join(rect[i * w:(i + 1) * w]) for i in range(r)]
        bits = a.view(np.int64)
        lines = []
        for k, row in enumerate(_matrix_rows(a[r:, r:], cells)):
            left = rect[k::w]
            for j in np.flatnonzero(bits[r + k, :r] != bits[:r, r + k]).tolist():
                left[j] = cells([float(a[r + k, j])])[0]
            left += row
            lines.append(start + sep.join(left) + end)
        pieces.append("".join(lines))
        # The text is ASCII, so each length in characters is one in bytes.
        return [np.array([len(x) for x in pieces], np.int64), "".join(pieces).encode("ascii")]

    def parent() -> list[str]:
        return [sep.join(row) for row in _matrix_rows(a[:r, :r], cells)]

    left, data = _forked(child, parent)
    if data is None:
        return None
    ends = (np.cumsum(np.frombuffer(data, np.int64, r + 1)) + 8 * (r + 1)).tolist()
    with memoryview(data) as view:
        right = [str(view[i:j], "ascii") for i, j in zip([8 * (r + 1), *ends], ends)]
    pieces = []
    for x, y in zip(left, right):
        pieces += (start, x, sep, y, end)
    pieces.append(right[-1])
    return pieces


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A.T) / 2 as a new array.

    A pair whose sum overflows is halved before it is added, so finite
    entries up to DBL_MAX stay finite; every other entry has the bits of
    (a_ij + a_ji) / 2, subnormals and signed zeros included.
    """
    try:
        with np.errstate(over="raise"):
            return (a + a.T) / 2.0
    except FloatingPointError:
        # Some a_ij + a_ji overflowed: halve those pairs before adding them.
        with np.errstate(over="ignore"):
            out = (a + a.T) / 2.0
        wide = np.isinf(out)
        out[wide] = a[wide] / 2.0 + a.T[wide] / 2.0
        return out


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, rescaled by s = max |a_ij| only if the squares overflow or underflow."""
    with np.errstate(over="ignore"):
        squares = float(np.sum(a * a))
    if not np.finfo(float).tiny <= squares < np.inf and np.isfinite(a).all():
        s = float(np.abs(a).max())
        if s > 0.0:
            return s * float(np.sqrt(np.sum((a / s) ** 2)))
    return float(np.sqrt(squares))


@dataclass(frozen=True, eq=False)
class PowerSums:
    """A spectrum lambda and its power sums, the sufficient statistics of the series.

    ``PowerSums(eigenvalues, K)`` derives the rest from lambda alone:
    ``p[j]`` = sum_i lambda_i^j = tr(Sigma^j) for j = 0..K, the sums of a
    running product of lambda, so ``p[0]`` is d = ``len(eigenvalues)`` and
    ``p[1]`` the trace.  The product runs in blocks of max(1, 2^16 // d)
    powers, one cumulative product and one row sum per block, with the
    bits of a product taken one power at a time; beside its copy of lambda
    it holds one block, at most 2^16 entries or one row of d, so memory
    is O(d) at any K.  No instance holds power sums of another spectrum.
    Like :func:`power_sums`, it rejects fewer than 2 eigenvalues and any
    non-finite one with :class:`MatrixValidationError`.

    Instances are immutable and equal only to themselves.  ``eigenvalues``
    and ``p`` are read-only float64 arrays that no other name can write:
    ``eigenvalues`` is copied unless it already is read-only and owns its
    memory.  The series terms of ``p`` live with the instance, in a private
    memo that holds one pass per Pochhammer parameter a, to order
    min(K, MAX_ORDER) + 1, read-only (:mod:`binghamx.zonal`); beside it a
    second memo holds the truncated series gradient of each order m
    (:func:`binghamx.series.norm_const_gradient_truncated`).  No two
    instances share either.
    """

    eigenvalues: np.ndarray = field(repr=False)
    K: int
    d: int = field(init=False)
    p: np.ndarray = field(init=False, repr=False)
    _terms: dict = field(default_factory=dict, init=False, repr=False)
    _gradients: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.K < 1:
            raise InsufficientPowersError(f"K must be >= 1, got {self.K}")
        lam = _read_only(self.eigenvalues)
        if lam.ndim != 1:
            raise MatrixValidationError(f"expected a 1-D spectrum, got shape {lam.shape}")
        if len(lam) < 2:
            raise MatrixValidationError(f"dimension must be >= 2, got {len(lam)}")
        if not np.isfinite(lam).all():
            raise MatrixValidationError("spectrum has non-finite entries")
        p = np.empty(self.K + 1)
        p[0] = len(lam)
        # lambda^j for a block of consecutive j by one cumprod down rows
        # whose first is lambda^(j-1) * lambda and the rest lambda: the same
        # products in the same order as a running product, and each row sum
        # the same pairwise sum as a 1-D sum, so p keeps its bits.
        rows = min(self.K, max(1, 2**16 // len(lam)))
        block = np.empty((rows, len(lam)))
        block[:] = lam
        for j in range(1, self.K + 1, rows):
            n = min(rows, self.K + 1 - j)
            if j > 1:
                np.multiply(block[-1], lam, out=block[0])
                block[1:n] = lam
            np.cumprod(block[:n], axis=0, out=block[:n])
            block[:n].sum(axis=1, out=p[j:j + n])
        p.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "d", len(lam))
        object.__setattr__(self, "p", p)

    @cached_property
    def _nu(self) -> float:
        """max |lambda_i| (1 + 2^-20), a bound on ||Sigma||_2, formed on first use.

        ``eigvalsh`` is backward stable, |lambda_i - lambda^_i| <= p(d) u
        ||Sigma||_2, and the margin covers p(d) up to about 4e9; for a
        diagonal Sigma the bound is exact up to the margin.
        """
        return float(np.abs(self.eigenvalues).max()) * (1.0 + 2.0**-20)

    def require(self, k: int) -> None:
        """Raise unless powers up to order ``k`` are available."""
        if k > self.K:
            raise InsufficientPowersError(
                f"power sums available up to order {self.K}, need {k}"
            )


def _read_only(a) -> np.ndarray:
    """``a`` as a read-only float64 array that no other name can write:
    ``a`` itself if it already is one that owns its memory, else a copy."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=np.float64)
        a.flags.writeable = False
    return a


def _check_sigma(sigma: np.ndarray, d: int) -> None:
    """Raise unless Sigma has shape (d, d), naming its dimension or shape."""
    shape = np.shape(sigma)
    if shape != (d, d):
        square = len(shape) == 2 and shape[0] == shape[1]
        size = f"dimension {shape[0]}" if square else f"shape {shape}"
        raise DimensionMismatchError(f"matrix has {size}, call asked for d = {d}")


def _diagonal(sigma: np.ndarray) -> np.ndarray | None:
    """The diagonal of Sigma if every off-diagonal entry is zero, else None."""
    diag = np.diagonal(sigma)
    # Equal nonzero counts mean a zero off-diagonal, with no d x d temporary.
    return diag if np.count_nonzero(sigma) == np.count_nonzero(diag) else None


def power_sums(sigma: np.ndarray, K: int) -> PowerSums:
    """Compute tr(Sigma^j) for j = 1..K from the eigenvalues of Sigma.

    Dense matrices take one ``eigvalsh`` (lambda ascending), diagonal ones
    their diagonal as it stands; the result is ``PowerSums(lambda, K)``.  Dense
    ones beyond ``DENSE_EIGEN_LIMIT`` are rejected; diagonal ones of any size are fine.

    Parameters
    ----------
    sigma : numpy.ndarray
        Symmetric (d, d) matrix, d >= 2.
    K : int
        Highest power required, K >= 1.

    Returns
    -------
    PowerSums
    """
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise MatrixValidationError(f"expected a square matrix, got shape {sigma.shape}")
    d = sigma.shape[0]
    if d < 2:
        raise MatrixValidationError(f"dimension must be >= 2, got {d}")
    if K < 1:
        raise InsufficientPowersError(f"K must be >= 1, got {K}")
    if not np.isfinite(sigma).all():
        raise MatrixValidationError("matrix has non-finite entries")
    eig = _diagonal(sigma)
    if eig is None:
        if d > DENSE_EIGEN_LIMIT:
            raise MatrixValidationError(
                f"dense matrices are limited to d <= {DENSE_EIGEN_LIMIT} "
                f"(got d = {d}); only diagonal input is supported beyond that"
            )
        try:
            eig = np.linalg.eigvalsh(sigma)
        except np.linalg.LinAlgError as exc:
            raise MatrixValidationError(f"eigenvalue decomposition failed: {exc}") from exc
        if not np.isfinite(eig).all():
            raise MatrixValidationError(
                f"eigenvalues overflow float64: max |sigma_ij| = {float(np.abs(sigma).max())!r} "
                f"at d = {d}; they stay finite while d * max |sigma_ij| <= "
                f"{float(np.finfo(float).max)!r}"
            )
    return PowerSums(eig, K)


@dataclass(frozen=True)
class GradientPolynomial:
    """A matrix polynomial c_0 I + c_1 Sigma + ... + c_L Sigma^L.

    This is the closed form every gradient in the package takes: the
    gradient of a symmetric function of power sums is a polynomial in
    Sigma whose coefficients depend only on the power sums.

    A series gradient also records the spectrum it came from: ``nu``, a
    bound on its ||Sigma||_2, and ``p2`` = sum_i lambda_i^2.  Dense
    :func:`materialize` cuts at ``nu`` when Sigma's ||Sigma||_F^2 matches
    ``p2``; both are None on a polynomial built from coefficients alone.
    """

    d: int
    coeffs: np.ndarray
    nu: float | None = field(default=None, kw_only=True, repr=False, compare=False)
    p2: float | None = field(default=None, kw_only=True, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def polynomial_values(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c_0 + c_1 x_k + ... + c_L x_k^L for every entry x_k, by Horner's rule.

    With x the eigenvalues of Sigma these are the eigenvalues of the
    matrix polynomial at Sigma, so ||g(Sigma)||_F = ||g(lambda)||_2 costs
    O(d L).  It is the loop :func:`materialize` runs on diagonal Sigma.
    """
    out = np.full(len(x), coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


@lru_cache(maxsize=64)
def _split(degree: int) -> int:
    """The Paterson-Stockmeyer block size s for a polynomial of degree >= 1.

    The smallest s with the fewest matrix products, (s - 1) + degree // s:
    about sqrt(degree), and 1 (plain Horner) for degree 1 and 2.  No s
    above t = isqrt(degree) + 1 takes fewer products than t: t s > degree
    gives degree / t - degree / s < s - t, so the quotients' floors differ
    by at most s - t.
    """
    return min(range(1, math.isqrt(degree) + 2), key=lambda s: s - 1 + degree // s)


#: Dense :func:`materialize` drops top terms whose summed bound is at most
#: 2^-CUT_BITS of the first-order off-diagonal scale: a quarter of the unit
#: roundoff.  The derived covariance bound cuts g(lambda) at 2^-CUT_BITS |c_0|.
_CUT_BITS = 55


def _tail_cut(coeffs: np.ndarray, nu: float, low: int, threshold: float) -> tuple[int, float]:
    """(L', tail): the smallest L' >= low with tail = sum_{l > L'} |c_l| nu^l <= threshold.

    A scalar walk down from the top coefficient that stops at the first
    l whose term takes the running tail past the threshold.  Each term is
    formed relative to the threshold through log2, and only once it is at
    most 1, so no power of nu overflows or underflows.  Every term is kept,
    (len(coeffs) - 1, 0.0), when nu or the threshold is not positive and
    finite or the sum of the coefficients is not; none of these warns.
    """
    values = coeffs.tolist()
    degree = len(values) - 1
    if not (0.0 < nu < math.inf and 0.0 < threshold < math.inf
            and math.isfinite(sum(values))):
        return degree, 0.0
    log_nu, log_threshold = math.log2(nu), math.log2(threshold)
    tail = 0.0
    for l in range(degree, low, -1):
        c = abs(values[l])
        if c == 0.0:
            continue
        x = math.log2(c) + l * log_nu - log_threshold
        term = 2.0**x if x <= 0.0 else math.inf
        if tail + term > 1.0:
            return l, tail * threshold
        tail += term
    return low, tail * threshold


def _significant_degree(coeffs: np.ndarray, sigma: np.ndarray,
                        nu: float | None = None, p2: float | None = None) -> int:
    """The degree L' to which dense :func:`materialize` evaluates g(Sigma).

    The smallest L' >= 1 with sum_{l > L'} |c_l| nu^l <= 2^-55 |c_1| omega,
    where nu >= ||Sigma||_2 bounds every entry of Sigma^l by nu^l and
    omega = max_{i != j} |sigma_ij|: dropping c_(L'+1) .. c_L moves no
    entry by more than a quarter of the unit roundoff of the first-order
    off-diagonal scale |c_1| omega (:func:`_tail_cut`).  ``nu`` and ``p2``
    are those the polynomial recorded from its spectrum: nu is used when
    ||Sigma||_F^2 agrees with p2 to 2^-30 relative, so that Sigma is, up
    to rounding, the matrix of that spectrum.  Otherwise, and when none was
    recorded, nu = ||Sigma||_F.  ||Sigma||_F^2 and omega come from one
    |Sigma|.  Every term is kept (L' = L) when c_1 = 0, omega = 0, the
    Frobenius path's ||Sigma||_F^2 is outside the normal range, or any
    quantity is not finite; none of these warns.  A Sigma with a nan or
    inf entry raises :class:`MatrixValidationError`: its ||Sigma||_F^2 is
    not finite, and only then are the entries scanned.
    """
    degree = len(coeffs) - 1
    flat = np.abs(sigma).reshape(-1)
    with np.errstate(all="ignore"):
        nu2 = float(np.vdot(flat, flat))
        if not nu2 < math.inf and not np.isfinite(flat).all():
            raise MatrixValidationError("matrix has non-finite entries")
        if degree < 2:
            return degree
        flat[::sigma.shape[0] + 1] = 0.0
        omega = float(flat.max())
    if nu is None or p2 is None or not abs(nu2 - p2) <= 2.0**-30 * p2:
        if not sys.float_info.min <= nu2 < math.inf:
            return degree
        nu = math.sqrt(nu2)
    threshold = 2.0**-_CUT_BITS * abs(float(coeffs[1])) * omega
    return _tail_cut(coeffs, nu, 1, threshold)[0]


def materialize(g: GradientPolynomial, sigma: np.ndarray) -> np.ndarray:
    """Evaluate a :class:`GradientPolynomial` at Sigma.

    ``g`` is evaluated at the Sigma it came from: a gradient of the series
    at the matrix whose spectrum it records.  That is a precondition, not
    a check.  The p2 match below catches a Sigma whose ||Sigma||_F differs
    from the spectrum's, but not every other matrix: a d = 20, m = 40
    gradient evaluated at a Sigma' with the same ||.||_F but
    ||Sigma'||_2 = 1 against nu = 0.44 has an entry off by
    4.7e-14 |c_1| omega, against an allowance of 2.8e-17.

    Dense Sigma first drops the top terms that cannot move an entry by
    more than 2^-55 |c_1| omega, omega = max_{i != j} |sigma_ij|: it
    evaluates c_0 .. c_L' for the smallest L' >= 1 with
    sum_{l > L'} |c_l| nu^l <= 2^-55 |c_1| omega
    (:func:`_significant_degree`).  The bound holds because
    |(Sigma^l)_ij| <= ||Sigma||_2^l <= nu^l.  nu is ``g.nu``, the
    max |lambda_i| (1 + 2^-20) of the spectrum g records, when Sigma's
    ||Sigma||_F^2 matches that spectrum's ``g.p2`` to 2^-30 relative;
    otherwise, or when g records no spectrum, it is ||Sigma||_F.  Every
    term stays where that rule cannot show a cut safe: c_1 = 0, omega = 0,
    ||Sigma||_F^2 outside the normal range on the Frobenius path, or a
    quantity that is not finite.  ``g.coeffs`` is not changed.

    It then takes the Paterson-Stockmeyer scheme (Paterson &
    Stockmeyer, SIAM J. Comput. 1973; Higham, *Functions of Matrices*,
    2008, sec. 4.2).  For degree L and block size s ~ sqrt(L) it forms
    Sigma^2 .. Sigma^s once and runs Horner's rule in Sigma^s over the
    blocks B_j = c_{js} I + c_{js+1} Sigma + ... + c_{js+s-1} Sigma^(s-1):
    (s - 1) + L // s matrix products, 11 instead of 38 at L = 38.  A
    gradient at d = 100, m = 40 on a trace-zero Sigma with ||Sigma||_F = 1
    keeps L' = 8: 4 products.
    Sigma .. Sigma^(s-1) and a slot for the carried product share one
    (s, d, d) array, so each step is ``acc @ Sigma^s`` into that slot, one
    ``np.dot`` of (c_{js+1}, .., c_{js+s-1}, 1.0) over the stack into acc,
    and c_{js} added to the diagonal; the top block is the same dot over
    its own powers.  The order of each gemv's additions is the BLAS
    kernel's, so results move in their last bits with the BLAS build and
    thread count, as the products' do.  At most s + 2 d x d arrays beyond
    Sigma are alive at once: the stack, Sigma^s and the accumulator.
    Exact zeros of a product are +0.0, as in dense Horner; for L <= 2 the
    split is s = 1, the dot's weight is 1.0 and the steps are Horner's.
    The result goes through :func:`symmetrize` to remove accumulation
    asymmetry, so a finite entry above DBL_MAX / 2 stays finite.

    Diagonal Sigma runs Horner's rule on its diagonal in O(d m) through
    :func:`polynomial_values`.  Its off-diagonal entries are exact zeros,
    also past overflow, where dense products would turn them to nan.
    Diagonal results and degree 0's c_0 I are symmetric as they stand
    and are returned without the mirror sum.

    A Sigma of any shape other than (d, d) raises
    :class:`DimensionMismatchError` naming its shape, before any product,
    and one with a nan or inf entry :class:`MatrixValidationError`, as
    :func:`power_sums` does.  Dense Sigma is scanned for them only when
    the ||Sigma||_F^2 of the cut is not finite; diagonal Sigma checks its
    d entries.
    """
    if np.shape(sigma) != (g.d, g.d):
        raise DimensionMismatchError(
            f"polynomial is for d = {g.d}, matrix has shape {np.shape(sigma)}"
        )
    c = g.coeffs
    diag = _diagonal(sigma)
    if diag is None:
        sigma = np.asanyarray(sigma, dtype=np.float64)
        c = c[:_significant_degree(c, sigma, g.nu, g.p2) + 1]
    elif not np.isfinite(diag).all():
        raise MatrixValidationError("matrix has non-finite entries")
    # Degree 0 takes no product, and c_0 I keeps the sign of its zeros.
    if len(c) == 1:
        return c[0] * np.eye(g.d)
    if diag is not None:
        return np.diag(polynomial_values(c, diag))
    d, degree = g.d, len(c) - 1
    s = _split(degree)
    # stack[:s - 1] holds Sigma .. Sigma^(s-1), stack[s - 1] the carried product.
    stack = np.empty((s, d, d))
    sigma_s = sigma
    if s > 1:
        stack[0] = sigma
        for i in range(1, s - 1):
            np.matmul(stack[i - 1], sigma, out=stack[i])
        sigma_s = stack[s - 2] @ sigma
    terms = stack.reshape(s, -1)
    acc = np.empty_like(sigma, order="C")
    flat = acc.reshape(-1)  # C order makes this a view: np.dot writes acc through it
    last = degree // s * s
    if degree > last:
        np.dot(c[last + 1:], terms[:degree - last], out=flat)
    else:
        acc.fill(0.0)
    flat[::d + 1] += c[last]
    w = np.ones(s)
    for j in range(last - s, -1, -s):
        np.matmul(acc, sigma_s, out=stack[s - 1])
        w[:-1] = c[j + 1:j + s]
        np.dot(w, terms, out=flat)
        flat[::d + 1] += c[j]
    del stack, terms, sigma_s
    return symmetrize(acc)
