"""The state file format and the `analyze --json` writer, the only module
that knows the text format.

JSON document: {"dims": [d_a, d_b], "matrix": [[[re, im], ...], ...]},
matrix row-major over the product basis.  Entries must be JSON numbers
(integers within 64 bits); null, booleans, strings and non-finite values
(NaN, Infinity, 1e999) are rejected, and so is a document nested too deeply
for the JSON parser.  Floats round-trip bit-exactly: every float is written
as float.__repr__ writes it, as json does.  State files go through
json.dumps.  The indented bases of `analyze --json` go through
write_pairs_json, which computes the texts of a chunk's fixed-notation
floats, those in [1e-4, 1e16), together with a shortest-digits kernel
(Schubfach); zero, the subnormals and the floats that repr writes with an
exponent are formatted by repr, one at a time.
criteria.spectra checks that a loaded matrix is a state; the CLI needs dims >= 2.

JSON whitespace is exactly space, tab, newline and carriage return.  A
document in ASCII with exactly these keys in this order, in the nesting
above, is canonical: load_state decodes it without a Python list per matrix
entry (see _load_canonical).  Anything else is read by the general JSON path
(json.loads, then state_from_document) with the same result: the same array
bit for bit, or a ValueError.
"""

from __future__ import annotations

import functools
import json
import re

import numpy as np

from .qstate import DensityMatrix, _checked_dims, _numbers


def complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs for a complex array of any shape."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


# Floats per chunk of write_pairs_json: 16 observables of a 16x16 basis, 28 of
# a 12x12 one, though a chunk may end inside an observable or a pair.  Writing a
# basis peaks at ~1.3 MB of allocations at this size, in proportion to it.  The
# shortest-digits kernel costs about as much per chunk as per float, so chunks
# of 2048 or 4096 floats wrote a 16x16 basis slower; 16384 was no faster.
PAIRS_SLICE_FLOATS = 8192


def write_pairs_json(a: np.ndarray, level: int, out) -> None:
    """Write ``json.dumps(complex_to_pairs(a), indent=2)`` to ``out`` as it
    appears ``level`` levels deep in an indented document: that text with
    ``"  " * level`` after every newline.  The flat floats of ``a`` are
    rendered ``PAIRS_SLICE_FLOATS`` at a time, so the text of the whole array
    is never held.  Every entry of ``a`` must be finite (json spells NaN and
    Infinity where repr says nan and inf) and every axis non-empty.

    Each distinct magnitude of a chunk is formatted once, to the text of
    float.__repr__ (as json formats floats); a Hermitian observable repeats
    every off-diagonal magnitude, so about half the floats of a basis reuse a
    text.  The magnitudes in [1e-4, 1e16), which repr writes in fixed
    notation, are formatted together by a vectorized Schubfach kernel
    (:func:`_fixed_texts`); zero, the subnormals and the magnitudes written
    with an exponent, a few of a chunk's thousands, by repr one at a time.
    A float's sign ends the text before it: the opening brackets, or the
    separator after the previous float, whose brackets and indentation follow
    from how many lists end there, counted over the whole array, so a chunk
    may end inside a pair or an observable.  A chunk's texts
    and separators are gathered from object arrays and joined once.
    """
    pairs = np.ascontiguousarray(a, dtype=complex).view(float).reshape(np.shape(a) + (2,))
    flat, depth = pairs.ravel(), pairs.ndim
    newline = ["\n" + "  " * (level + t) for t in range(depth + 1)]

    def opened(k):  # the k innermost lists opened, the deepest last
        return "".join("[" + newline[t] for t in range(depth - k + 1, depth + 1))

    def closed(k):  # the k innermost lists closed, the deepest first
        return "".join(newline[t] + "]" for t in range(depth - 1, depth - k - 1, -1))

    # between[2k + s]: the separator after a float at which k lists end, then a "-" if s.
    ends = [closed(k) + "," + newline[depth - k] + opened(k) for k in range(depth)] + [closed(depth)]
    between = np.array([end + sign for end in ends for sign in ("", "-")], dtype=object)

    # One chunk's floats, each followed by its separator; a function, so that a
    # chunk's texts are freed before the next chunk is rendered.
    def chunk_text(start):
        chunk = flat[start : start + PAIRS_SLICE_FLOATS]
        magnitudes, code = np.unique(np.abs(chunk), return_inverse=True)
        # after[i]: twice how many lists end right after float start + i, its [re, im]
        # pair first, plus 1 if the float after it (the last float has none) is negative.
        after = np.zeros(chunk.size, dtype=np.intp)
        for size in np.cumprod(pairs.shape[::-1]).tolist():
            after[(size - 1 - start) % size :: size] += 2
        after[: flat.size - start - 1] += np.signbit(flat[start + 1 : start + chunk.size + 1])
        pieces = np.empty(2 * chunk.size, dtype=object)
        pieces[0::2] = np.array(_repr_texts(magnitudes), dtype=object)[code]
        pieces[1::2] = between[after]
        return "".join(pieces.tolist())

    out.write(opened(depth) + "-" * int(np.signbit(flat[0])))
    for start in range(0, flat.size, PAIRS_SLICE_FLOATS):
        out.write(chunk_text(start))


# repr's shortest digits, computed for a whole chunk at once.  repr writes a
# float in fixed notation ("0.00ddd", "dd.ddd", "ddd.0") exactly when it lies in
# [1e-4, 1e16): the nearest double to 1e-4 is the least float whose shortest
# digits put the decimal point at -3 or above, 1e16 the least that puts it past
# 16.  Constants meeting uint64 arrays are numpy scalars, since numpy < 2 turns
# a uint64 array and a Python int into float64; uint64 array arithmetic wraps.
_FIXED_RANGE = (1e-4, 1e16)
_LOW_BQ, _HIGH_BQ = (int(bits) >> 52 for bits in np.array(_FIXED_RANGE).view(np.uint64))
_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)


def _repr_texts(magnitudes: np.ndarray) -> list[str]:
    """``[repr(m) for m in magnitudes.tolist()]`` for sorted, non-negative,
    finite floats, byte for byte.  The fixed-notation ones, [1e-4, 1e16), are
    formatted together by :func:`_fixed_texts`; the rest, 0.0, the subnormals and
    every magnitude repr writes with an exponent, by repr, one at a time."""
    low, high = np.searchsorted(magnitudes, _FIXED_RANGE).tolist()
    fixed = _fixed_texts(magnitudes[low:high])
    return [*map(repr, magnitudes[:low].tolist()), *fixed, *map(repr, magnitudes[high:].tolist())]


def _fixed_texts(v: np.ndarray) -> list[str]:
    """repr of each float of ``v``, sorted and in [1e-4, 1e16), laid out by repr's
    fixed-notation rule from :func:`_shortest_digits`: the 17 digits are looked up
    four at a time, with a group's trailing zeros blank when every later group is
    0000, and written into a matrix of 24 bytes per float, one slice of rows per
    decimal-point position (sorted floats put them in order)."""
    digits, point = _shortest_digits(v)
    high, low = _divmod(digits.view(np.int64), 10**8)
    lead, high = _divmod(high, 10**8)
    groups = (*_divmod(high, 10**4), *_divmod(low, 10**4))
    blank = (low == 0) & (groups[1] == 0), low == 0, groups[3] == 0, True
    index = np.stack([group + 10**4 * trailing for group, trailing in zip(groups, blank)], axis=1)
    text = np.empty((v.size, 17), dtype=np.uint8)
    text[:, 0] = lead + ord("0")
    text[:, 1:] = np.take(_digit_groups(), index).view(np.uint8).reshape(-1, 16)
    chars = np.full((v.size, 24), ord(" "), dtype=np.uint8)  # at most 22 bytes of text, then a space
    bounds = np.searchsorted(point, np.arange(-3, 18)).tolist()
    for p, start, stop in zip(range(-3, 17), bounds, bounds[1:]):
        rows = slice(start, stop)
        if start == stop:
            continue
        if p > 0:  # "dd.ddd", or "ddd.0": the blanks up to the digit after the point are zeros
            chars[rows, :p] = text[rows, :p]
            chars[rows, p] = ord(".")
            chars[rows, p + 1 : 18] = text[rows, p:]
            head = chars[rows, : p + 2]
            head[head == ord(" ")] = ord("0")
        else:  # "0.ddd" or "0.00ddd"
            chars[rows, : 2 - p] = ord("0")
            chars[rows, 1] = ord(".")
            chars[rows, 2 - p : 19 - p] = text[rows]
    return chars.tobytes().decode("ascii").split()


def _divmod(x: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod(x, unit), by floor division, which numpy does by multiplication for a scalar unit."""
    quotient = x // unit
    return quotient, x - quotient * unit


@functools.cache
def _digit_groups() -> np.ndarray:
    """The 4-byte texts "0000" to "9999", then the same with trailing zeros blank."""
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    return np.concatenate([digits, np.where(trailing, ord(" "), digits)]).astype(np.uint8).view("S4").ravel()


def _shortest_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For positive floats in [1e-4, 1e16), the digits repr writes: the fewest that
    read back as the float, the nearest to it of those, ties to even.  Returned
    as an integer of exactly 17 digits, zeros padding the end, and the position
    p of the decimal point: the float reads as 0.ddd…·10^p.

    Giulietti's Schubfach ("The Schubfach way to render doubles", 2020), as in
    Java's ``Double.toString``.  With v = c·2^q and 10^k at most the spacing
    2^q, vb, vbl and vbr are 4·v and the two ends of the interval that rounds to
    v, v ∓ 2^(q-1), over 10^k, each rounded to odd from the top bits of g·cp
    (see :func:`_schubfach_table`).  s·10^k ≤ v < (s + 1)·10^k; the multiple of
    ten just below or above s is one digit shorter, and wins when exactly one of
    the two is inside the interval; else s or s + 1, whichever is inside or,
    both being inside, the nearer.

    Two refinements of the general algorithm never change a digit in this
    range, and are left out.  The interval is taken as closed, though it is
    open at odd c: an end equals no candidate.  Below 2^52 each end has 18 or
    more significant digits, more than any candidate; from 2^52 to 2^53 the
    ends are c ± 1/2 and the candidates integers; above 2^53 v = s is an even
    integer and the ends odd ones.  At a power of two, whose lower neighbour is
    half as far, the interval is taken as wide below v as above: each power of
    two in the range is a decimal of at most 16 digits that no decimal within
    2^(q-1) of it shortens, so both intervals give v's own digits."""
    bits = v.view(np.uint64)
    row = (bits >> _U(52)).astype(np.intp) - _LOW_BQ
    k, consts = _schubfach_table()
    h, *g = np.take(consts, row, axis=1)
    cb = ((bits & _U(2**52 - 1)) | _U(2**52)) << _U(2)  # 4c
    vb, vbl, vbr = (_round_to_odd(g, x << h) for x in (cb, cb - _U(2), cb + _U(2)))
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin, wpin = vbl <= sp10 << _U(2), (sp10 + _U(10)) << _U(2) <= vbr
    uin, win = vbl <= s << _U(2), (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0))))
    d = np.where(upin != wpin, np.where(upin, sp10, sp10 + _U(10)), s + _U(1) - pick_s)
    longer = d >= _U(10**16)  # 2^52 ≤ c ≤ s < 10·c, so d has 16 or 17 digits
    return np.where(longer, d, d * _U(10)), k[row] + 16 + longer


def _round_to_odd(g, cp):
    """g·cp·2^-127 rounded to odd (Schubfach's rop), g = (g1, g1's halves, g0's halves)."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _M32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mul_high(g0_lo, g0_hi, cp_lo, cp_hi)
    return (_mul_high(g1_lo, g1_hi, cp_lo, cp_hi) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _mul_high(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of each 128-bit product a·b of 64-bit numbers given as 32-bit halves."""
    low, cross_a, cross_b = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    carry = (low >> _U(32)) + (cross_a & _M32) + (cross_b & _M32)
    return a_hi * b_hi + (cross_a >> _U(32)) + (cross_b >> _U(32)) + (carry >> _U(32))


@functools.cache
def _schubfach_table() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's constants, one row per biased exponent of [1e-4, 1e16): k[r]
    and consts[:, r] = (h, g1, g1 mod 2³², g1 >> 32, g0 mod 2³², g0 >> 32).  With
    q the exponent, 10^k ≤ 2^q < 10^(k+1), e = ⌊log₂ 10^-k⌋,
    g = g1·2⁶³ + g0 = ⌊10^-k·2^(125-e)⌋ + 1 in [2¹²⁵, 2¹²⁶) and h = q + e + 2, so
    that g·(4c << h)·2^-127 ≈ 4·v·10^-k."""
    ks, consts = [], []
    for q in range(_LOW_BQ - 1075, _HIGH_BQ - 1075 + 1):
        # Exact floors of logarithms from digit and bit counts: for m ≥ 1, 2^m is no power of ten.
        k = len(str(1 << q)) - 1 if q >= 0 else -len(str(1 << -q))
        e = (10**-k).bit_length() - 1 if k <= 0 else -(10**k).bit_length()
        g = (10**-k << (125 - e) if k <= 0 else (1 << (125 - e)) // 10**k) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        ks.append(k)
        consts.append((q + e + 2, g1, g1 & (2**32 - 1), g1 >> 32, g0 & (2**32 - 1), g0 >> 32))
    return np.array(ks), np.array(consts, dtype=np.uint64).T.copy()


# JSON text of the string that stands in for each array while the rest of a document is encoded.
_ARRAY_SLOT = json.dumps("\0")


def write_json(doc: dict, out) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to ``out``, where each
    numpy array in ``doc`` is written as its complex_to_pairs lists.  The rest
    of the document is encoded first, with a placeholder per array; each array
    is then written in its place by :func:`write_pairs_json`, a chunk
    of floats at a time, so neither the text of the whole document nor that
    of one array is ever held at once.

    The indented encoder is json's pure-Python one, whose closures form a
    reference cycle that holds ``slot`` and so ``arrays``; the list is
    emptied on return, so the arrays are freed then, not at the next garbage
    collection."""
    arrays = []

    def slot(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"cannot write {type(value).__name__} as JSON")
        arrays.append(value)
        return "\0"

    try:
        before, *rest = json.dumps(doc, indent=2, default=slot).split(_ARRAY_SLOT)
        out.write(before)
        for array, after in zip(arrays, rest):
            line = before[before.rfind("\n") + 1 :]  # indentation of the line that holds the array
            write_pairs_json(array, (len(line) - len(line.lstrip(" "))) // 2, out)
            out.write(after)
            before = after
        out.write("\n")
    finally:
        arrays.clear()


def state_to_document(rho: DensityMatrix) -> dict:
    return {"dims": [rho.dim_a, rho.dim_b], "matrix": complex_to_pairs(rho.data)}


def state_from_document(doc) -> DensityMatrix:
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise ValueError("state document must contain 'dims' and 'matrix' fields")
    dims = doc["dims"]
    if not (isinstance(dims, (list, tuple)) and len(dims) == 2):
        raise ValueError(f"dims must be a pair [d_a, d_b], got {dims!r}")
    da, db = _checked_dims(*dims, rule="dims must be positive integers")
    n = da * db
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ValueError(f"matrix must have {n} rows for dims {dims!r}")
    return _state_from_pairs(da, db, matrix)  # ragged input: ValueError, or dtype object on numpy < 1.24


def _state_from_pairs(da: int, db: int, matrix) -> DensityMatrix:
    """The state of an (n, n, 2) array, or nested lists, of finite [re, im] numbers, n = da·db."""
    n = da * db
    rule = f"matrix must be {n}x{n} [real, imag] pairs of numbers"
    pairs = _numbers(matrix, rule, "iuf")
    if pairs.shape != (n, n, 2):
        raise ValueError(rule)
    if not np.isfinite(pairs).all():
        raise ValueError("non-finite value in matrix")
    # A view, not re + 1j*im, which would turn a -0.0 real part into +0.0.
    data = np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    return DensityMatrix(da, db, data)


# The canonical document, as save_state writes it, with any JSON whitespace
# (exactly these four characters): its head up to the matrix, with both dims.
_CANONICAL_HEAD = re.compile(r"[ \t\n\r]*".join(
    ["", r"\{", '"dims"', ":", r"\[", "([1-9][0-9]{0,8})", ",", "([1-9][0-9]{0,8})", r"\]", ",", '"matrix"', ":"]
))
# The bytes of JSON numbers and whitespace; what is left of a canonical
# document without them is its skeleton of brackets, commas and keys.
_NUMBER_AND_SPACE = b"0123456789+-.eE \t\n\r"
# Turns a canonical document into the flat JSON list ["dims", d_a, d_b, "matrix", re, im, ...].
_FLATTEN = str.maketrans("[]{}:", "  [],")


def _load_canonical(text) -> DensityMatrix | None:
    """The state of the canonical document ``text``, or None when ``text`` is
    not one (or not an ASCII str).  The state is the one that
    :func:`state_from_document` makes of ``json.loads(text)``, and a
    ValueError is raised where that raises one, but no Python list is built
    per matrix entry.

    The head regex gives the dims.  The skeleton of ``text`` must then be
    exactly that of an n×n matrix of pairs (n = d_a·d_b), which is built
    only after its length matches, so a file that claims huge dims
    allocates nothing of size n².  One json.loads of the flattened text
    then parses, and checks, every number token; two tokens in one slot or
    an empty slot are JSON errors there.  Letters (true, null, NaN), quotes
    and any other character stay in the skeleton, so such a document is
    left to the general path.
    """
    if not (isinstance(text, str) and text.isascii()):
        return None
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    da, db = int(head[1]), int(head[2])
    n = da * db
    skeleton = text.encode("ascii").translate(None, _NUMBER_AND_SPACE)
    prefix = b'{"dims":[,],"matrix":'
    # n rows of 4n + 1 bytes, n - 1 commas between them, then "[", "]" and "}".
    if len(skeleton) != len(prefix) + n * (4 * n + 2) + 2:
        return None
    row = b"[" + b"[,]," * (n - 1) + b"[,]]"
    if skeleton != prefix + b"[" + (row + b",") * (n - 1) + row + b"]}":
        return None
    values = json.loads(text.translate(_FLATTEN))
    return _state_from_pairs(da, db, np.array(values[4:]).reshape(n, n, 2))


def load_state(path_or_file) -> DensityMatrix:
    """Read a state file (see module notes for the JSON schema): a path, read
    as UTF-8 text, or an open text file.  A canonical document (the shape
    :func:`save_state` writes) in ASCII is decoded without a Python list per
    matrix entry; any other is read by the general JSON path, with the same
    result."""
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    rho = _load_canonical(text)
    if rho is not None:
        return rho
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("state file is nested too deeply to be a state document") from None
    return state_from_document(doc)


def save_state(rho: DensityMatrix, path_or_file) -> None:
    """Write a state file to a path, as UTF-8 text, or to an open text file,
    the two inputs :func:`load_state` reads; floats are printed so they
    round-trip exactly.  A non-finite state raises before a path is opened."""
    # One json.dumps call: only a one-shot, unindented encode uses json's C encoder.
    text = json.dumps(state_to_document(rho), allow_nan=False) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)
