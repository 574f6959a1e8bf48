import ast
import builtins
import gc
import io
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def normal_neighbourhoods(values):
    """``values`` with the floats on either side of each."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


class TestReprTexts:
    """codec._repr_texts, the basis writer's formatter, against repr."""

    # Every power of two and of ten in the normal range with both neighbours
    # (irregular spacing, and the digit count of s changing), the integers
    # 1 to 10^5 and 2^53 ± 5000 (integer floats, and the spacing of 2 above
    # 2^53), zero, the least normal and subnormal, and each notation switch.
    BOUNDARIES = np.unique(np.concatenate([
        normal_neighbourhoods(2.0 ** np.arange(-1022, 1024)),
        normal_neighbourhoods([float(f"1e{e}") for e in range(-307, 309)]),
        np.arange(1.0, 10**5 + 1),
        2.0**53 + np.arange(-5000.0, 5001.0),
        [0.0, 5e-324, 2.2250738585072014e-308, 1e-4, np.nextafter(1e-4, 0.0), 9999999999999998.0, 1e16],
    ]))

    @staticmethod
    def assert_matches_repr(magnitudes):
        assert codec._repr_texts(magnitudes) == [repr(m) for m in magnitudes.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_matches_repr(self, values):
        self.assert_matches_repr(np.unique(values))

    def test_matches_repr_on_random_normal_bit_patterns(self):
        # 2^20 over the bits of [1e-4, 1e16), where the kernel formats every
        # float, then 2^18 over all normal floats, most of which take repr.
        rng = np.random.default_rng(2020)
        fixed, normal = np.array([1e-4, 1e16]).view(np.uint64), np.array([2.0**-1022, np.inf]).view(np.uint64)
        for low, high, blocks in ((*fixed, 16), (*normal, 4)):
            for _ in range(blocks):
                bits = rng.integers(low, high, size=2**16, dtype=np.uint64)
                self.assert_matches_repr(np.unique(bits.view(float)))

    def test_matches_repr_at_the_boundaries_calling_it_for_zero_and_exponents(self, monkeypatch):
        # Zero, the subnormals and the floats repr writes with an exponent go
        # through repr one at a time; every fixed-notation float through the kernel.
        passed = []

        def spy(value):
            passed.append(value)
            return builtins.repr(value)

        monkeypatch.setattr(codec, "repr", spy, raising=False)
        texts = codec._repr_texts(self.BOUNDARIES)
        monkeypatch.undo()
        assert texts == [repr(m) for m in self.BOUNDARIES.tolist()]
        assert passed == [m for m, text in zip(self.BOUNDARIES.tolist(), texts) if m == 0.0 or "e" in text]
        assert 9.999999999999999e-05 in passed and 1e16 in passed and 1e-4 not in passed
