import ast
import gc
import io
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import loowit
from loowit import codec, qstate


def complex_array(shape, seed):
    x = np.random.default_rng(seed).normal(size=(2,) + shape)
    a = x[0] + 1j * x[1]
    a.flat[0] = complex(-0.0, 0.0)
    return a


def with_pairs(doc):
    """``doc`` with every numpy array replaced by its complex_to_pairs lists."""
    if isinstance(doc, np.ndarray):
        return codec.complex_to_pairs(doc)
    if isinstance(doc, dict):
        return {key: with_pairs(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [with_pairs(value) for value in doc]
    return doc


class TestWriteJson:
    # Arrays one to four levels deep, in a list and in a dict inside a list,
    # of one to three axes, and a bare array as the whole document.
    DOCUMENTS = {
        "nested": lambda: {
            "n": 1,
            "top": complex_array((2, 2, 2), 1),
            "inner": {"basis": complex_array((4, 2, 2), 2), "deeper": {"vector": complex_array((3,), 3)}},
            "listed": [0.5, complex_array((2, 3), 4), {"in_list": complex_array((1, 2, 2), 5)}, "x"],
            "after": [True, None],
        },
        "bare_array": lambda: complex_array((3, 2, 2), 6),
    }

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_matches_indented_json_of_pairs(self, name):
        doc = self.DOCUMENTS[name]()
        out = io.StringIO()
        codec.write_json(doc, out)
        assert out.getvalue() == json.dumps(with_pairs(doc), indent=2) + "\n"

    def test_value_that_is_not_an_array_raises_before_writing(self):
        # json's default hook sees only what json cannot encode: here a set.
        out = io.StringIO()
        with pytest.raises(TypeError, match="^cannot write set as JSON$"):
            codec.write_json({"n": 1, "basis": {0.5}}, out)
        assert out.getvalue() == ""

    def test_written_arrays_are_freed_on_return(self):
        # json's indented encoder keeps its default hook in a reference cycle;
        # an array it saw must not wait for a garbage collection to be freed.
        array = np.zeros((3, 2), dtype=complex)
        ref = weakref.ref(array)
        enabled = gc.isenabled()
        gc.disable()
        try:
            out = io.StringIO()
            codec.write_json({"basis": array, "n": 1}, out)
            del array
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
        assert json.loads(out.getvalue())["basis"] == [[[0.0, 0.0]] * 2] * 3


def test_the_text_format_lives_in_codec_only():
    package = Path(loowit.__file__).parent
    importers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and {alias.name for alias in node.names} & {"json", "re"}
    }
    assert importers == {"codec.py"}
    moved = ["complex_to_pairs", "PAIRS_SLICE_FLOATS", "write_pairs_json", "state_to_document",
             "state_from_document", "load_state", "save_state", "_load_canonical"]
    assert [name for name in moved if hasattr(qstate, name)] == []
    assert loowit.load_state is codec.load_state and loowit.save_state is codec.save_state
