"""The state file format and the `analyze --json` writer, the only module
that knows the text format.

JSON document: {"dims": [d_a, d_b], "matrix": [[[re, im], ...], ...]},
matrix row-major over the product basis.  Entries must be JSON numbers
(integers within 64 bits); null, booleans, strings and non-finite values
(NaN, Infinity, 1e999) are rejected, and so is a document nested too deeply
for the JSON parser.  Floats round-trip bit-exactly: the writers format each
one with float.__repr__, as json does, whether through json.dumps (state
files) or through write_pairs_json (the indented bases of `analyze --json`).
The CLI also validates every state it reads and requires both dims >= 2.

JSON whitespace is exactly space, tab, newline and carriage return.  A
document in ASCII with exactly these keys in this order, in the nesting
above, is canonical: load_state decodes it without a Python list per matrix
entry (see _load_canonical).  Anything else is read by the general JSON path
(json.loads, then state_from_document) with the same result: the same array
bit for bit, or a ValueError.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .qstate import DensityMatrix


def complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs for a complex array of any shape."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


# Floats per chunk of write_pairs_json: 16 observables of a 16x16 basis, 28 of
# a 12x12 one, though a chunk may end inside an observable or a pair.  Writing a
# basis peaks at ~1.4 MB of allocations at this size, in proportion to it; the
# write time was flat from 2048 to 16384 floats.
PAIRS_SLICE_FLOATS = 8192


def write_pairs_json(a: np.ndarray, level: int, out) -> None:
    """Write ``json.dumps(complex_to_pairs(a), indent=2)`` to ``out`` as it
    appears ``level`` levels deep in an indented document: that text with
    ``"  " * level`` after every newline.  The flat floats of ``a`` are
    rendered ``PAIRS_SLICE_FLOATS`` at a time, so the text of the whole array
    is never held.  Every entry of ``a`` must be finite (json spells NaN and
    Infinity where repr says nan and inf) and every axis non-empty.

    Each distinct magnitude of a chunk is formatted once by float.__repr__,
    as json formats floats, and given a ``-`` only if it occurs negative; a
    Hermitian observable repeats every off-diagonal magnitude, so about half
    the floats of a basis reuse a text.  The brackets and indentation after
    each float follow from how many lists end there, counted over the whole
    array, so a chunk may end inside a pair or an observable.  A chunk's
    texts and separators are gathered from object arrays and joined once.
    """
    pairs = np.ascontiguousarray(a, dtype=complex).view(float).reshape(np.shape(a) + (2,))
    flat, depth = pairs.ravel(), pairs.ndim
    newline = ["\n" + "  " * (level + t) for t in range(depth + 1)]

    def opened(k):  # the k innermost lists opened, the deepest last
        return "".join("[" + newline[t] for t in range(depth - k + 1, depth + 1))

    def closed(k):  # the k innermost lists closed, the deepest first
        return "".join(newline[t] + "]" for t in range(depth - 1, depth - k - 1, -1))

    between = np.array([closed(k) + "," + newline[depth - k] + opened(k) for k in range(depth)] + [closed(depth)],
                       dtype=object)

    # One chunk's floats, each followed by its separator; a function, so that a
    # chunk's texts are freed before the next chunk is rendered.
    def chunk_text(start):
        chunk = flat[start : start + PAIRS_SLICE_FLOATS]
        magnitudes, code = np.unique(np.abs(chunk), return_inverse=True)
        negative = np.signbit(chunk)
        signed, inverse = np.unique(code[negative], return_inverse=True)
        code[negative] = magnitudes.size + inverse
        texts = list(map(float.__repr__, magnitudes.tolist()))
        texts += ["-" + texts[k] for k in signed.tolist()]
        # closing[i]: how many lists end right after float start + i, its [re, im] pair first.
        closing = np.zeros(chunk.size, dtype=np.intp)
        for size in np.cumprod(pairs.shape[::-1]).tolist():
            closing[(size - 1 - start) % size :: size] += 1
        pieces = np.empty(2 * chunk.size, dtype=object)
        pieces[0::2] = np.array(texts, dtype=object)[code]
        pieces[1::2] = between[closing]
        return "".join(pieces.tolist())

    out.write(opened(depth))
    for start in range(0, flat.size, PAIRS_SLICE_FLOATS):
        out.write(chunk_text(start))


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
    if not all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims):
        raise ValueError(f"dims must be positive integers, got {dims!r}")
    da, db = dims
    n = da * db
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ValueError(f"matrix must have {n} rows for dims {dims!r}")
    pairs = np.array(matrix)  # ragged input: ValueError, or dtype object on numpy < 1.24
    rho = _state_from_pairs(da, db, pairs)
    # np.array turns a boolean beside a number into 0 or 1; only those entries can be one.
    suspects = np.unravel_index(np.flatnonzero((pairs == 0) | (pairs == 1)), pairs.shape)
    for i, j, c in zip(*(index.tolist() for index in suspects)):
        if type(matrix[i][j][c]) is bool:
            raise ValueError(f"boolean at matrix entry [{i}][{j}][{c}]; entries must be numbers")
    return rho


def _state_from_pairs(da: int, db: int, pairs: np.ndarray) -> DensityMatrix:
    """The state of an (n, n, 2) array of finite [re, im] numbers, n = da·db."""
    n = da * db
    if pairs.shape != (n, n, 2) or pairs.dtype.kind not in "iuf":
        raise ValueError(f"matrix must be {n}x{n} [real, imag] pairs of numbers")
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
