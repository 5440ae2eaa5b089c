"""End-to-end CLI checks through dispatch(): exit codes, reports, files."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwitness.cli as cli
from qwitness.cli import _parse_args, build_parser, dispatch, load_state, save_state
from qwitness.correlations import BipartiteState, epr_state
from qwitness.qcore import (
    DensityMatrix,
    RandomSpec,
    StateValidationError,
    ginibre_state,
    pure_state,
    random_density,
)

PLUS = pure_state(np.array([1.0, 1.0]))
ZERO = pure_state(np.array([1.0, 0.0]))


def state_path(tmp_path, name, state, dims=None):
    path = tmp_path / name
    save_state(state, str(path), dims=dims)
    return str(path)


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    doc = json.loads(out)
    assert doc["schema_version"] == "2"
    return doc


class TestStateIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(40)
        state = ginibre_state(3, 2, rng)
        path = state_path(tmp_path, "s.json", state)
        back = load_state(path)
        assert back.matrix.tobytes() == state.matrix.tobytes()

    def test_round_trip_with_dims(self, tmp_path):
        path = state_path(tmp_path, "b.json", epr_state().state, dims=(2, 2))
        back = load_state(path)
        assert isinstance(back, BipartiteState)
        assert (back.dim_a, back.dim_b) == (2, 2)

    @pytest.mark.parametrize("split", [False, True], ids=["plain", "dims"])
    @pytest.mark.parametrize("d", [1, 2, 3, 17])
    def test_file_is_json_dump_with_indent(self, tmp_path, d, split):
        # save_state writes the text itself; it must stay json.dump's, with
        # signed zeros and subnormals written as json writes them.
        g = ginibre_state(d, d, np.random.default_rng([41, d])).matrix
        m = 0.1 * g + 0.9 * np.eye(d) / d
        m[0, 0] = complex(m[0, 0].real, -0.0)
        if d > 1:
            m[0, 1], m[1, 0] = complex(-0.0, 5e-324), complex(-0.0, -5e-324)
        state = DensityMatrix(m)
        assert np.signbit(state.matrix[0, 0].imag)
        dims = (1, d) if split else None
        path = tmp_path / "s.json"
        save_state(state, str(path), dims=dims)
        doc = {"dim": d, "re": state.matrix.real.tolist(), "im": state.matrix.imag.tolist()}
        if split:
            doc["dims"] = [1, d]
        expected = io.StringIO()
        json.dump(doc, expected, indent=2)
        assert path.read_bytes() == (expected.getvalue() + "\n").encode("utf-8")
        back = load_state(str(path))
        assert (back.state if split else back).matrix.tobytes() == state.matrix.tobytes()

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_keeps_every_bit(self, data):
        """save_state then load_state returns ``matrix.tobytes()`` and
        ``dims`` unchanged: Ginibre states at d 1-8 and every rank, and
        diagonal states whose off-diagonal zeros carry drawn signs."""
        d = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            rank = data.draw(st.integers(1, d))
            state = random_density(RandomSpec(d, rank, data.draw(st.integers(0, 2**64 - 1))))
        else:
            weights = np.array(
                data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
            )
            signs = data.draw(st.lists(st.booleans(), min_size=2 * d * d, max_size=2 * d * d))
            zeros = np.where(signs, -0.0, 0.0).reshape(2, d, d)
            m = np.empty((d, d), dtype=np.complex128)
            m.real, m.imag = zeros
            np.fill_diagonal(m.real, weights / weights.sum())
            state = DensityMatrix(m)
            assert np.array_equal(np.signbit(state.matrix.imag), np.signbit(zeros[1]))
        splits = [None, *((a, d // a) for a in range(1, d + 1) if d % a == 0)]
        dims = splits[data.draw(st.integers(0, len(splits) - 1))]
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "s.json")
            save_state(state, path, dims=dims)
            back = load_state(path)
        if dims is None:
            assert isinstance(back, DensityMatrix)
        else:
            assert (back.dim_a, back.dim_b) == dims
            back = back.state
        assert back.matrix.tobytes() == state.matrix.tobytes()

    def test_missing_key_is_flagged(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "re": [[1, 0], [0, 0]]}')
        with pytest.raises(ValueError, match="missing required key 'im'"):
            load_state(str(path))

    def test_shape_mismatch_is_flagged(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"dim": 2, "re": [[1.0]], "im": [[0.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="2x2"):
            load_state(str(path))

    @pytest.mark.parametrize("value", [2.7, True, "2"], ids=["float", "bool", "string"])
    def test_dim_must_be_a_json_integer(self, tmp_path, capsys, value):
        path = tmp_path / "a.json"
        doc = {"dim": value, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2}
        path.write_text(json.dumps(doc))
        message = f"dim must be a JSON integer, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=message):
            load_state(str(path))
        b = state_path(tmp_path, "b.json", PLUS)
        code, _, err = run(capsys, ["witness", "--state-a", str(path), "--state-b", b])
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("value", [2.7, True, "2"], ids=["float", "bool", "string"])
    def test_dims_must_be_json_integers(self, tmp_path, capsys, value):
        path = tmp_path / "ab.json"
        save_state(epr_state().state, str(path), dims=(2, 2))
        doc = json.loads(path.read_text())
        doc["dims"] = [2, value]
        path.write_text(json.dumps(doc))
        message = f"dims[1] must be a JSON integer, got {json.dumps(value)}"
        code, _, err = run(capsys, ["discord", "--state", str(path), "--dims", "2", "2"])
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("text", ["[1, 2]", '"state"', "2"], ids=["list", "string", "number"])
    def test_top_level_must_be_a_json_object(self, tmp_path, capsys, text):
        path = tmp_path / "a.json"
        path.write_text(text)
        code, out, err = run(capsys, ["witness", "--state-a", str(path), "--state-b", str(path)])
        assert code == 2 and out == ""
        assert f"{path}: state file must be a JSON object" in err

    @pytest.mark.parametrize("value", [[2], [2, 2, 1], "2 2", {"a": 2, "b": 2}],
                             ids=["one", "three", "string", "object"])
    def test_dims_must_be_a_two_element_list(self, tmp_path, capsys, value):
        path = tmp_path / "ab.json"
        save_state(epr_state().state, str(path), dims=(2, 2))
        doc = json.loads(path.read_text())
        doc["dims"] = value
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["discord", "--state", str(path), "--dims", "2", "2"])
        assert code == 2 and out == ""
        assert f"{path}: dims must be a two-element list" in err

    @pytest.mark.parametrize(
        "key, value", [("re", "0.5"), ("re", True), ("im", None)],
        ids=["string", "bool", "null"],
    )
    def test_matrix_entries_must_be_json_numbers(self, tmp_path, capsys, key, value):
        path = tmp_path / "a.json"
        doc = {"dim": 2, "re": [[1.0, 0], [0, 0.0]], "im": [[0.0, 0], [0, 0]]}
        doc[key][1][0] = value
        path.write_text(json.dumps(doc))
        message = f"{key} entries must be JSON numbers, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=message):
            load_state(str(path))
        b = state_path(tmp_path, "b.json", PLUS)
        code, _, err = run(capsys, ["witness", "--state-a", str(path), "--state-b", b])
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dim": 1, "re": [[1' + "0" * 400 + ']], "im": [[0]]}',
             "re has an entry beyond the float range"),
            ('{"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0]]}',
             "im rows must have equal lengths"),
        ],
        ids=["huge-integer", "ragged"],
    )
    def test_unreadable_matrix_is_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "a.json"
        path.write_text(text)
        code, _, err = run(capsys, ["witness", "--state-a", str(path), "--state-b", str(path)])
        assert code == 2
        assert f"{path}: {message}" in err

    @pytest.mark.parametrize("key", ["dim", "note"])
    def test_integer_beyond_the_digit_limit_is_data_error(self, tmp_path, capsys, key):
        """json.loads refuses an integer literal of more than 4,300 digits
        with a plain ValueError, wherever it stands; the error names the file."""
        path = tmp_path / "a.json"
        doc = {"dim": 1, "re": [[1]], "im": [[0]]}
        path.write_text(json.dumps(doc).replace("}", f', "{key}": 1{"0" * 5000}}}'))
        with pytest.raises(ValueError) as info:
            load_state(str(path))
        assert str(info.value).startswith(f"{path}: Exceeds the limit (4300 digits)")
        code, out, err = run(capsys, ["witness", "--state-a", str(path), "--state-b", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"qwitness witness: invalid input: {path}: Exceeds the limit")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"\xef\xbb\xbf" + json.dumps({"dim": 1, "re": [[1]], "im": [[0]]}).encode(),
             "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            (b'{"dim": 1, "re": [[1]], "im": [[0]], "note": "\xff"}',
             "'utf-8' codec can't decode byte 0xff in position 46: invalid start byte"),
            # Universal newlines, as text-mode open() reads: positions count
            # "\r\n" and "\r" as one character.
            (b'{\r\n"dim": 1,\r\n oops}',
             "Expecting property name enclosed in double quotes: line 3 column 2 (char 13)"),
            (b'{\r"dim": 1,\r oops}',
             "Expecting property name enclosed in double quotes: line 3 column 2 (char 13)"),
        ],
        ids=["bom", "not-utf-8", "crlf", "cr"],
    )
    def test_undecodable_file_is_data_error(self, tmp_path, capsys, raw, message):
        path = tmp_path / "a.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            load_state(str(path))
        assert str(info.value) == f"{path}: {message}"
        code, _, err = run(capsys, ["witness", "--state-a", str(path), "--state-b", str(path)])
        assert (code, err) == (2, f"qwitness witness: invalid input: {path}: {message}\n")

    def test_parse_error_names_the_bad_file_of_two(self, tmp_path, capsys):
        """With a valid --state-a, a --state-b that fails to parse is the
        file the error names."""
        good = state_path(tmp_path, "a.json", DensityMatrix(np.eye(2) / 2.0))
        bad = tmp_path / "b.json"
        bad.write_text('{"dim": 1,')
        code, out, err = run(capsys, ["witness", "--state-a", good, "--state-b", str(bad)])
        message = "Expecting property name enclosed in double quotes: line 1 column 11 (char 10)"
        assert (code, out, err) == (2, "", f"qwitness witness: invalid input: {bad}: {message}\n")

    @pytest.mark.parametrize("command", ["witness", "discord"])
    def test_deeply_nested_file_is_data_error(self, tmp_path, capsys, command):
        """json.loads gives up on deep nesting with a RecursionError, which
        is the input's fault: exit 2, naming the file."""
        path = tmp_path / "deep.json"
        path.write_text('{"dim": 1, "re": ' + "[" * 100_000 + ', "im": [[0]]}')
        argv = {
            "witness": ["witness", "--state-a", str(path), "--state-b", str(path)],
            "discord": ["discord", "--state", str(path), "--dims", "2", "2"],
        }[command]
        code, out, err = run(capsys, argv)
        message = f"{path}: JSON nested too deeply to parse"
        assert (code, out, err) == (2, "", f"qwitness {command}: invalid input: {message}\n")


# Raw JSON tokens for fuzzed state files: numbers json reads (NaN and the
# infinities among them), integers up to and past Python's 4,300-digit
# conversion limit, and values of every other JSON type.
FUZZ_SCALARS = (
    st.sampled_from([
        "0", "1", "-1", "2", "0.5", "-0.0", "1e-7", "1e308", "1e999", "5e-324",
        "NaN", "Infinity", "-Infinity", "true", "false", "null", '"1"', '"\\u00e9"',
        "{}", "1" + "0" * 400, "1" + "0" * 2200, "9" * 4300, "1" + "0" * 4300,
    ])
    | st.integers(-3, 4).map(str)
    | st.floats().map(json.dumps)
)
FUZZ_VALUES = st.recursive(
    FUZZ_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]")
        | st.tuples(st.sampled_from(['"dim"', '"re"', '"x"']), inner).map(
            lambda kv: "{" + ": ".join(kv) + "}")
    ),
    max_leaves=12,
) | st.sampled_from([40, 5000, 100_000]).map(lambda n: "[" * n + "0" + "]" * n)


def json_rows(rows):
    """A list of rows of JSON tokens (or numbers) as JSON text."""
    return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in rows) + "]"


@st.composite
def state_files(draw):
    """The bytes of a state file: a valid maximally mixed state at d 1-3
    with up to three mutations, each replacing a field or one matrix entry
    with fuzzed JSON, adding dims, dropping a key, changing the newlines,
    adding a BOM, a non-UTF-8 note or a huge integer, or cutting the text.
    Each mutation is an index, so that hypothesis shrinks towards fewer."""
    d = draw(st.integers(1, 3))
    re_rows = (np.eye(d) / d).tolist()
    im_rows = np.zeros((d, d)).tolist()
    fields = {"dim": str(d), "re": None, "im": None}
    sep, prefix, note, cut = ", ", b"", b"", False
    for kind in draw(st.lists(st.integers(0, 10), max_size=3)):
        if kind == 0:  # one matrix entry
            rows = re_rows if draw(st.booleans()) else im_rows
            rows[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = draw(FUZZ_SCALARS)
        elif kind == 1:  # a whole field
            fields[draw(st.sampled_from(["dim", "re", "im", "dims"]))] = draw(FUZZ_VALUES)
        elif kind == 2:  # rows of fuzzed entries
            rows = draw(st.lists(st.lists(FUZZ_SCALARS, max_size=3), max_size=3))
            fields[draw(st.sampled_from(["re", "im", "dims"]))] = json_rows(rows)
        elif kind == 3:
            fields["dims"] = draw(st.sampled_from([f"[1, {d}]", f"[{d}, 1]", "[2, 2]"]))
        elif kind == 4:
            fields.pop(draw(st.sampled_from(["dim", "re", "im"])), None)
        elif kind == 5:
            sep = draw(st.sampled_from([",\n", ",\r\n", ",\r"]))
        elif kind == 6:
            prefix = b"\xef\xbb\xbf"
        elif kind in (7, 8):
            note = b', "note": "\xff"' if kind == 7 else b', "note": 1' + b"0" * 4300
        elif kind == 9:
            cut = True
        else:  # each printable, but not the product of the two dims
            big = "1" + "0" * 2200
            key, value = draw(st.sampled_from(
                [("dim", "1" + "0" * 4299), ("dim", "-" + "9" * 4300), ("dims", f"[{big}, {big}]")]))
            fields[key] = value
    for key, rows in (("re", re_rows), ("im", im_rows)):
        if key in fields and fields[key] is None:
            fields[key] = json_rows(rows)
    text = "{" + sep.join(f'"{key}": {value}' for key, value in fields.items())
    raw = prefix + text.encode() + note + b"}"
    return raw[: draw(st.integers(0, len(raw)))] if cut else raw


class TestStateFileFuzz:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(raw=state_files(), method=st.sampled_from(["direct", "trace", "interfere"]))
    def test_any_state_file_is_a_report_or_a_data_error_naming_it(self, raw, method):
        """witness on a fuzzed file as both states: dispatch returns, never
        raises; a data error (exit 2) is one stderr line that names the file
        first; a success writes a report whose floats are all finite."""
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "s.json")
            out = os.path.join(workdir, "r.json")
            with open(path, "wb") as fh:
                fh.write(raw)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = dispatch(["witness", "--state-a", path, "--state-b", path,
                                 "--method", method, "--out", out])
            err = err.getvalue()
            assert code in (0, 2), err
            if code == 2:
                assert err.count("\n") == 1 and err.endswith("\n")
                assert err.startswith(f"qwitness witness: invalid input: {path}: ")
            else:
                assert err == ""
                with open(out, encoding="utf-8") as fh:
                    doc = json.loads(fh.read(), parse_constant=lambda name: pytest.fail(name))
                assert all(math.isfinite(v) for v in doc["results"].values()
                           if isinstance(v, float))


JSON_FLOATS = (
    st.floats()
    | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                       float("nan"), float("inf"), float("-inf")])
    | st.floats().map(np.float64)  # a float subclass
)
JSON_TEXT = st.text() | st.text(st.sampled_from('\x00\x1f\x7f"\\\n\t\u2028\xe9\U0001f600a'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | JSON_TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(JSON_TEXT, inner, max_size=4)
        # json's own text, indented in place: tuples and non-string keys
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.integers() | st.booleans() | st.none(), inner, max_size=3)
    ),
    max_leaves=24,
)


class TestReportText:
    """dispatch writes each report as ``json.dumps(report, indent=2)``
    would, through cli._indented_json."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(value=JSON_VALUES)
    def test_equals_json_dumps_indent_2(self, value):
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    def test_refuses_what_json_refuses(self):
        for value in ({"a": np.int64(3)}, [object()], {(1, 2): 0}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                cli._indented_json(value)

    def test_every_subcommand_report(self, tmp_path, capsys):
        rng = np.random.default_rng(47)
        a = state_path(tmp_path, "a.json", ginibre_state(3, 2, rng))
        b = state_path(tmp_path, "b.json", ginibre_state(3, 3, rng))
        ab = state_path(tmp_path, "ab.json", ginibre_state(4, 2, rng), dims=(2, 2))
        pair = ["--state-a", a, "--state-b", b]
        csv = str(tmp_path / "f.csv")
        commands = [
            ["witness", *pair],
            ["witness", *pair, "--method", "trace"],
            ["witness", *pair, "--method", "interfere"],
            ["witness", *pair, "--method", "interfere", "--shots", "1000", "--seed", "3"],
            ["interfere", "--u", "u1", *pair, "--fringes-out", csv],
            ["interfere", "--u", "u2", *pair, "--phases", "17", "--mode", "sampled",
             "--shots", "100", "--seed", "4", "--fringes-out", csv],
            ["discord", "--state", ab, "--dims", "2", "2", "--grid", "4", "--starts", "2",
             "--max-evals", "200", "--seed", "5"],
            ["example", "epr", "--phi", "0.3"],
            ["example", "separable", "--phi", "0.3", "--theta", "1.1"],
            ["random-state", "--dim", "3", "--rank", "2", "--seed", "6",
             "--out", str(tmp_path / "rs.json")],
        ]
        for argv in commands:
            code, out, _ = run(capsys, argv)
            assert code == 0, argv
            # Every float in a report is finite, so parsing it back is lossless.
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


class TestInputReads:
    """Each input file is read once; its digest is of the bytes parsed."""

    @staticmethod
    def argv_and_inputs(tmp_path):
        a = state_path(tmp_path, "a.json", ZERO)
        b = state_path(tmp_path, "b.json", PLUS)
        ab = state_path(tmp_path, "ab.json", epr_state().state, dims=(2, 2))
        fringes = str(tmp_path / "f.csv")
        return [
            (["witness", "--state-a", a, "--state-b", b], [a, b]),
            (["witness", "--state-a", a, "--state-b", b, "--method", "interfere"], [a, b]),
            (["interfere", "--u", "u2", "--state-a", a, "--state-b", b,
              "--fringes-out", fringes], [a, b]),
            (["discord", "--state", ab, "--dims", "2", "2", "--grid", "4", "--starts", "2",
              "--max-evals", "100"], [ab]),
        ]

    def test_each_input_is_opened_once(self, tmp_path, capsys, monkeypatch):
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        for argv, inputs in self.argv_and_inputs(tmp_path):
            opened.clear()
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert [opened.count(path) for path in inputs] == [1] * len(inputs)
            digests = [d["sha256"] for d in report_of(out)["inputs"].values()]
            assert digests == [
                hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs
            ]

    def test_digest_is_of_the_bytes_parsed(self, tmp_path, capsys, monkeypatch):
        parsed = {}
        load = cli.load_state

        def load_then_replace(path, **kwargs):
            state = load(path, **kwargs)
            parsed[path] = Path(path).read_bytes()
            save_state(pure_state(np.array([0.6, 0.8])), path)
            return state

        monkeypatch.setattr(cli, "load_state", load_then_replace)
        for argv, inputs in self.argv_and_inputs(tmp_path):
            parsed.clear()
            code, out, _ = run(capsys, argv)
            assert code == 0
            digests = [d["sha256"] for d in report_of(out)["inputs"].values()]
            assert digests == [hashlib.sha256(parsed[path]).hexdigest() for path in inputs]
            for path in inputs:  # the next command reads the original again
                Path(path).write_bytes(parsed[path])


class TestWitnessCommand:
    def test_direct_method_reports_q(self, tmp_path, capsys):
        a = state_path(tmp_path, "a.json", ZERO)
        b = state_path(tmp_path, "b.json", PLUS)
        code, out, _ = run(capsys, ["witness", "--state-a", a, "--state-b", b])
        assert code == 0
        doc = report_of(out)
        assert doc["command"] == "witness"
        assert doc["results"]["method"] == "direct_norm"
        assert doc["results"]["q_value"] == pytest.approx(1.0, abs=1e-12)
        assert doc["seed"] is None
        assert set(doc["inputs"]) == {"state_a", "state_b"}
        assert len(doc["inputs"]["state_a"]["sha256"]) == 64

    def test_trace_method_on_commuting_states(self, tmp_path, capsys):
        a = state_path(tmp_path, "a.json", ZERO)
        b = state_path(tmp_path, "b.json", DensityMatrix(np.diag([0.25, 0.75])))
        code, out, _ = run(
            capsys, ["witness", "--state-a", a, "--state-b", b, "--method", "trace"]
        )
        assert code == 0
        assert report_of(out)["results"]["q_value"] == pytest.approx(0.0, abs=1e-12)

    def test_interfere_method_matches_direct(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        sa, sb = ginibre_state(2, 2, rng), ginibre_state(2, 1, rng)
        a = state_path(tmp_path, "a.json", sa)
        b = state_path(tmp_path, "b.json", sb)
        code, out, _ = run(
            capsys,
            ["witness", "--state-a", a, "--state-b", b, "--method", "interfere"],
        )
        assert code == 0
        doc = report_of(out)
        code, out, _ = run(capsys, ["witness", "--state-a", a, "--state-b", b])
        direct = report_of(out)
        assert doc["results"]["q_value"] == pytest.approx(
            direct["results"]["q_value"], abs=1e-9
        )
        assert doc["results"]["stderr_q"] == 0.0

    def test_sampled_interference_is_seed_reproducible(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        a = state_path(tmp_path, "a.json", ginibre_state(2, 2, rng))
        b = state_path(tmp_path, "b.json", ginibre_state(2, 2, rng))
        argv = ["witness", "--state-a", a, "--state-b", b,
                "--method", "interfere", "--shots", "400", "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        r1, r2 = report_of(out1), report_of(out2)
        assert r1["results"] == r2["results"]
        assert r1["seed"] == 9
        assert r1["results"]["stderr_q"] > 0.0

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_single_shot_interference_is_valid(self, tmp_path, capsys, seed):
        """Phases seen 0 or 1 times in one shot still carry sampling noise."""
        rng = np.random.default_rng(0)
        a = state_path(tmp_path, "a.json", ginibre_state(2, 1, rng))
        b = state_path(tmp_path, "b.json", ginibre_state(2, 2, rng))
        code, out, err = run(capsys, ["witness", "--state-a", a, "--state-b", b,
                                      "--method", "interfere", "--shots", "1", "--seed", seed])
        assert (code, err) == (0, "")
        assert report_of(out)["results"]["stderr_q"] > 0.0

    def test_report_goes_to_out_file(self, tmp_path, capsys):
        a = state_path(tmp_path, "a.json", ZERO)
        b = state_path(tmp_path, "b.json", PLUS)
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            ["witness", "--state-a", a, "--state-b", b, "--out", str(dest)],
        )
        assert code == 0
        assert out == ""
        doc = json.loads(dest.read_text())
        assert doc["results"]["q_value"] == pytest.approx(1.0, abs=1e-12)


class TestInterfereCommand:
    def test_exact_scan_writes_sorted_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(43)
        a = state_path(tmp_path, "a.json", ginibre_state(2, 2, rng))
        b = state_path(tmp_path, "b.json", ginibre_state(2, 2, rng))
        csv = tmp_path / "fringes.csv"
        code, out, _ = run(
            capsys,
            ["interfere", "--u", "u1", "--state-a", a, "--state-b", b,
             "--fringes-out", str(csv)],
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "phase_rad,p0,shots"
        assert len(lines) == 9
        phases = [float(line.split(",")[0]) for line in lines[1:]]
        assert phases == sorted(phases)
        assert all(line.endswith(",0") for line in lines[1:])
        doc = report_of(out)
        assert doc["results"]["unitary"] == "u1"
        assert doc["results"]["n_phases"] == 8
        assert 0.0 <= doc["results"]["v"] <= 1.0 + 1e-9

    def test_u2_visibility_is_the_second_moment(self, tmp_path, capsys):
        rng = np.random.default_rng(44)
        sa, sb = ginibre_state(2, 2, rng), ginibre_state(2, 2, rng)
        a = state_path(tmp_path, "a.json", sa)
        b = state_path(tmp_path, "b.json", sb)
        csv = tmp_path / "f.csv"
        _, out, _ = run(
            capsys,
            ["interfere", "--u", "u2", "--state-a", a, "--state-b", b,
             "--fringes-out", str(csv)],
        )
        ma, mb = sa.matrix, sb.matrix
        expected = abs(np.trace(ma @ mb @ ma @ mb))
        assert report_of(out)["results"]["v"] == pytest.approx(expected, abs=1e-12)

    def test_sampled_rerun_is_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(45)
        a = state_path(tmp_path, "a.json", ginibre_state(2, 2, rng))
        b = state_path(tmp_path, "b.json", ginibre_state(2, 2, rng))
        csv = tmp_path / "f.csv"
        argv = ["interfere", "--u", "u1", "--state-a", a, "--state-b", b,
                "--mode", "sampled", "--shots", "250", "--seed", "3",
                "--fringes-out", str(csv)]
        assert run(capsys, argv)[0] == 0
        first = csv.read_bytes()
        assert run(capsys, argv)[0] == 0
        assert csv.read_bytes() == first

    @pytest.mark.parametrize("u", ["u1", "u2"])
    def test_single_shot_scan_is_valid(self, tmp_path, capsys, u):
        rng = np.random.default_rng(0)
        a = state_path(tmp_path, "a.json", ginibre_state(2, 1, rng))
        b = state_path(tmp_path, "b.json", ginibre_state(2, 2, rng))
        code, out, err = run(capsys, ["interfere", "--u", u, "--state-a", a, "--state-b", b,
                                      "--mode", "sampled", "--shots", "1", "--phases", "3",
                                      "--fringes-out", str(tmp_path / "f.csv")])
        assert (code, err) == (0, "")
        assert report_of(out)["results"]["stderr_v"] > 0.0

    def test_exact_visibilities_are_the_witness_terms(self, tmp_path, capsys):
        """interfere runs the cascades of witness --method interfere: in exact
        mode its v is bitwise that command's v1_term (u1) or v2_term (u2)."""
        rng = np.random.default_rng(47)
        ab = ["--state-a", state_path(tmp_path, "a.json", ginibre_state(3, 2, rng)),
              "--state-b", state_path(tmp_path, "b.json", ginibre_state(3, 3, rng))]
        code, out, _ = run(capsys, ["witness", *ab, "--method", "interfere"])
        assert code == 0
        terms = report_of(out)["results"]
        for u, term in (("u1", "v1_term"), ("u2", "v2_term")):
            code, out, _ = run(
                capsys,
                ["interfere", "--u", u, *ab, "--fringes-out", str(tmp_path / "f.csv")],
            )
            assert code == 0
            assert report_of(out)["results"]["v"] == terms[term]

    def test_dimension_mismatch_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(46)
        a = state_path(tmp_path, "a.json", ginibre_state(2, 2, rng))
        b = state_path(tmp_path, "b.json", ginibre_state(3, 3, rng))
        code, _, err = run(
            capsys,
            ["interfere", "--u", "u1", "--state-a", a, "--state-b", b,
             "--fringes-out", str(tmp_path / "f.csv")],
        )
        assert code == 2
        assert "dimensions differ" in err


class TestDiscordCommand:
    def test_epr_detected(self, tmp_path, capsys):
        path = state_path(tmp_path, "epr.json", epr_state().state, dims=(2, 2))
        code, out, _ = run(
            capsys,
            ["discord", "--state", path, "--dims", "2", "2",
             "--grid", "6", "--starts", "2", "--max-evals", "300"],
        )
        assert code == 0
        doc = report_of(out)
        assert doc["results"]["best_q"] > 0.9
        assert doc["results"]["verdict"] == "quantum_correlated"
        assert len(doc["results"]["best_params"]) == 8  # Re, Im of two kets in C^2
        assert len(doc["results"]["trace"]) == 1 + 2

    def test_dims_flag_may_supply_missing_split(self, tmp_path, capsys):
        path = state_path(tmp_path, "epr.json", epr_state().state)  # no dims
        code, out, _ = run(
            capsys,
            ["discord", "--state", path, "--dims", "2", "2",
             "--grid", "5", "--starts", "1", "--max-evals", "100"],
        )
        assert code == 0
        assert report_of(out)["results"]["best_q"] > 0.5

    def test_dims_conflict_with_file_is_data_error(self, tmp_path, capsys):
        path = state_path(tmp_path, "epr.json", epr_state().state, dims=(2, 2))
        code, _, err = run(
            capsys, ["discord", "--state", path, "--dims", "4", "1"]
        )
        assert code == 2
        assert err.startswith(f"qwitness discord: invalid input: {path}: --dims 4 1 conflicts")

    def test_dims_product_mismatch_is_data_error(self, tmp_path, capsys):
        path = state_path(tmp_path, "epr.json", epr_state().state)
        code, _, err = run(
            capsys, ["discord", "--state", path, "--dims", "2", "3"]
        )
        assert code == 2
        assert err == (
            f"qwitness discord: invalid input: {path}: "
            "dim_a * dim_b = 6 does not match total dim 4\n"
        )


class TestExampleCommand:
    def test_epr_at_quarter_pi_reaches_unity(self, capsys):
        code, out, _ = run(
            capsys, ["example", "epr", "--phi", repr(math.pi / 4.0)]
        )
        assert code == 0
        doc = report_of(out)
        assert doc["results"]["q_value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["inputs"] == {}

    def test_separable_closed_form(self, capsys):
        phi = 0.6
        code, out, _ = run(
            capsys,
            ["example", "separable", "--phi", repr(phi), "--theta", "0.8"],
        )
        assert code == 0
        expected = math.sin(2 * phi) ** 2 / 16.0
        assert report_of(out)["results"]["q_value"] == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize(
        "flags",
        [["--phi", "-1e-3"], ["--phi", "0.5", "--theta", "-1e-3"]],
        ids=["phi", "theta"],
    )
    def test_negative_exponent_angle_is_a_value(self, capsys, flags):
        """argparse alone reads "-1e-3" as an option string; it must parse
        like the "--flag=-1e-3" spelling."""
        joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
        results = []
        for argv in (["example", "epr", *flags], ["example", "epr", *joined]):
            code, out, err = run(capsys, argv)
            assert code == 0, err
            results.append(report_of(out)["results"])
        assert results[0] == results[1]
        assert -1e-3 in (results[0]["phi"], results[0]["theta"])


class TestRandomStateCommand:
    def test_writes_valid_reproducible_state(self, tmp_path, capsys):
        dest = tmp_path / "r.json"
        argv = ["random-state", "--dim", "3", "--rank", "2", "--seed", "11",
                "--out", str(dest)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        first = dest.read_bytes()
        state = load_state(str(dest))
        assert state.dim == 3
        doc = report_of(out)  # report goes to stdout, not over the state
        assert doc["results"]["path"] == str(dest)
        assert doc["seed"] == 11
        assert run(capsys, argv)[0] == 0
        assert dest.read_bytes() == first

    def test_largest_seed_is_accepted(self, tmp_path, capsys):
        dest = tmp_path / "r.json"
        code, out, _ = run(
            capsys,
            ["random-state", "--dim", "2", "--rank", "1", "--seed", str(2**64 - 1),
             "--out", str(dest)],
        )
        assert code == 0
        assert report_of(out)["seed"] == 2**64 - 1
        expected = random_density(RandomSpec(dim=2, rank=1, seed=2**64 - 1))
        np.testing.assert_array_equal(load_state(str(dest)).matrix, expected.matrix)

    def test_rank_out_of_range_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["random-state", "--dim", "2", "--rank", "5", "--seed", "0",
             "--out", str(tmp_path / "r.json")],
        )
        assert code == 2
        assert "rank" in err


# Each subcommand's argv with every flag in range and state files that do
# not exist, so a range error is the only error found before a file is read.
IN_RANGE_ARGV = {
    "witness": ["witness", "--state-a", "missing.json", "--state-b", "missing.json",
                "--method", "interfere", "--shots", "10"],
    "interfere": ["interfere", "--u", "u1", "--state-a", "missing.json",
                  "--state-b", "missing.json", "--mode", "sampled", "--shots", "10",
                  "--fringes-out", "f.csv"],
    "discord": ["discord", "--state", "missing.json", "--dims", "2", "2"],
    "example": ["example", "epr", "--phi", "0.5"],
    "random-state": ["random-state", "--dim", "2", "--rank", "1", "--seed", "0",
                     "--out", "r.json"],
}


def out_of_range_cases():
    """(command, row, values, rule) for each end of every ranged row of the
    flag table, one value past it (each element of a nargs row in turn),
    and the non-finite values of every float row."""
    for command, rows in cli._FLAGS.items():
        for row in rows:
            if row.nargs and row.low is not None:
                for i in range(row.nargs):
                    values = [*row.low[:i], row.low[i] - 1, *row.low[i + 1:]]
                    yield command, row, values, f">= {' '.join(map(str, row.low))}"
            elif row.low is not None:
                yield command, row, [row.low - 1], f">= {row.low}"
            if row.high is not None:
                yield command, row, [row.high + 1], f"<= {row.high}"
            if row.type is float:
                for value in (math.nan, math.inf, -math.inf):
                    yield command, row, [value], "finite"


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("interfere", ["--phases", "2"]),
            ("witness", ["--seed", "-1"]),
            ("interfere", ["--seed", "-1"]),
            ("discord", ["--seed", "-1"]),
            ("random-state", ["--seed", "-1"]),
            ("discord", ["--grid", "1"]),
            ("discord", ["--starts", "0"]),
            ("discord", ["--max-evals", "0"]),
            ("random-state", ["--dim", "0", "--seed", "0"]),
            ("discord", ["--dims", "0", "4"]),
            ("discord", ["--dims", "1", "4"]),
            ("discord", ["--dims", "2", "0"]),
            ("witness", ["--shots", "0", "--method", "interfere"]),
            ("interfere", ["--shots", "0", "--mode", "sampled"]),
        ],
        ids=lambda v: v if isinstance(v, str) else "=".join(v),
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, command, extra):
        a = state_path(tmp_path, "a.json", ZERO)
        b = state_path(tmp_path, "b.json", PLUS)
        ab = state_path(tmp_path, "ab.json", epr_state().state, dims=(2, 2))
        argv = {
            "witness": ["--state-a", a, "--state-b", b],
            "interfere": ["--u", "u1", "--state-a", a, "--state-b", b,
                          "--fringes-out", str(tmp_path / "f.csv")],
            "discord": ["--state", ab, "--dims", "2", "2"],
            "random-state": ["--dim", "2", "--rank", "1",
                             "--out", str(tmp_path / "r.json")],
        }[command]
        code, out, err = run(capsys, [command, *argv, *extra])
        assert code == 1
        assert f"error: {extra[0]} must be >= " in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["witness", "--method", "interfere", "--shots", "0"], "--shots"),
            (["interfere", "--u", "u1", "--shots", "0", "--fringes-out", "f.csv"],
             "--shots"),
            (["discord", "--dims", "1", "4"], "--dims"),
        ],
        ids=["witness", "interfere", "discord"],
    )
    def test_range_error_is_found_before_reading_files(self, tmp_path, capsys, argv, flag):
        missing = str(tmp_path / "missing.json")
        files = (["--state", missing] if argv[0] == "discord"
                 else ["--state-a", missing, "--state-b", missing])
        code, out, err = run(capsys, [*argv, *files])
        assert code == 1
        assert f"error: {flag} must be >= " in err
        assert out == ""

    @pytest.mark.parametrize("command", ["witness", "interfere", "discord", "random-state"])
    def test_seed_beyond_64_bits_is_usage_error(self, tmp_path, capsys, command):
        """Every --seed has RandomSpec's range, checked before any file is read."""
        missing = str(tmp_path / "missing.json")
        argv = {
            "witness": ["--state-a", missing, "--state-b", missing],
            "interfere": ["--u", "u1", "--state-a", missing, "--state-b", missing,
                          "--fringes-out", str(tmp_path / "f.csv")],
            "discord": ["--state", missing, "--dims", "2", "2"],
            "random-state": ["--dim", "2", "--rank", "1",
                             "--out", str(tmp_path / "r.json")],
        }[command]
        code, out, err = run(capsys, [command, *argv, "--seed", str(2**64)])
        assert code == 1
        assert f"error: --seed must be <= {2**64 - 1}, got {2**64}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("joined", [False, True], ids=["table", "argparse"])
    def test_dim_above_the_ceiling_is_usage_error(self, tmp_path, capsys, joined):
        """--dim has a ceiling, 2^11, checked before any state is drawn, on
        both parse paths ("--dim=N" is read by argparse)."""
        dim = ["--dim=2049"] if joined else ["--dim", "2049"]
        argv = ["random-state", *dim, "--rank", "1", "--seed", "0",
                "--out", str(tmp_path / "r.json")]
        assert (cli._parse_canonical(argv[0], argv[1:]) is None) == joined
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert f"error: --dim must be <= {2**11}, got 2049" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("joined", [False, True], ids=["table", "argparse"])
    @pytest.mark.parametrize("command", ["witness", "interfere"])
    def test_shots_above_the_ceiling_is_usage_error(self, tmp_path, capsys, command, joined):
        """--shots has a ceiling, 2^63 - 1 (numpy's binomial draw takes an
        int64 count), checked before any file is read, on both parse paths."""
        missing = str(tmp_path / "missing.json")
        shots = [f"--shots={2**63}"] if joined else ["--shots", str(2**63)]
        argv = {
            "witness": ["witness", "--method", "interfere"],
            "interfere": ["interfere", "--u", "u1", "--mode", "sampled",
                          "--fringes-out", str(tmp_path / "f.csv")],
        }[command]
        argv += ["--state-a", missing, "--state-b", missing, *shots]
        assert (cli._parse_canonical(argv[0], argv[1:]) is None) == joined
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"qwitness {command}: error: --shots must be <= {2**63 - 1}, got {2**63}\n"
        assert list(tmp_path.iterdir()) == []

    def test_phases_above_the_ceiling_is_usage_error(self, tmp_path, capsys):
        """--phases has a ceiling, 2^16, checked before the phase grid is
        built or any file is read."""
        missing = str(tmp_path / "missing.json")
        code, out, err = run(
            capsys,
            ["interfere", "--u", "u1", "--state-a", missing, "--state-b", missing,
             "--fringes-out", str(tmp_path / "f.csv"), "--phases", str(2**16 + 1)],
        )
        assert code == 1
        assert f"error: --phases must be <= {2**16}, got {2**16 + 1}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    @pytest.mark.parametrize(
        "command, row, values, rule", list(out_of_range_cases()),
        ids=lambda v: v.flag if isinstance(v, cli._Flag) else v if isinstance(v, str)
        else " ".join(map(str, v)),
    )
    def test_each_flag_range_on_the_table(
        self, tmp_path, capsys, monkeypatch, command, row, values, rule, joined
    ):
        """One past each end of each row's range, on both parse paths, is a
        usage error naming the row's flag and range, found before any file
        is read (none exists) and leaving no file behind."""
        monkeypatch.chdir(tmp_path)
        argv = list(IN_RANGE_ARGV[command])
        got = " ".join(map(str, values))
        # "--dims=A B" is not one flag; given twice, --dims goes to argparse too.
        repeat = joined and row.nargs
        if row.flag in argv and not repeat:
            i = argv.index(row.flag)
            del argv[i:i + 1 + (row.nargs or 1)]
        if joined and not repeat:
            argv.append(f"{row.flag}={got}")
        else:
            argv += [row.flag, *map(str, values)]
        if joined:
            assert cli._parse_canonical(argv[0], argv[1:]) is None
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"qwitness {command}: error: {row.flag} must be {rule}, got {got}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["witness", "--state-a", "a.json", "--state-b", "b.json", "--method",
              "interfere", "--shots", "0", "--seed=-1"], "--shots must be >= 1, got 0"),
            (["discord", "--seed", "-1", "--grid", "1", "--state", "ab.json",
              "--dims", "1", "1"], "--dims must be >= 2 1, got 1 1"),
            (["interfere", "--u", "u1", "--state-a", "a.json", "--state-b", "b.json",
              "--fringes-out", "f.csv", "--seed", str(2**64), "--phases", "2"],
             "--phases must be >= 3, got 2"),
        ],
        ids=["witness", "discord", "interfere"],
    )
    def test_first_out_of_range_flag_in_usage_order_is_reported(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        """Usage order is the flag table's row order, whatever the argv's."""
        monkeypatch.chdir(tmp_path)
        assert run(capsys, argv) == (1, "", f"qwitness {argv[0]}: error: {message}\n")

    def test_no_flag_is_a_single_dash(self):
        """_Parser reads "-inf" and "-nan" as values only while -h is the one
        single-dash option; a flag such as -i or -n would take them."""
        flags = [row.flag for rows in cli._FLAGS.values() for row in rows]
        assert [f for f in flags if f.startswith("-") and not f.startswith("--")] == []

    @pytest.mark.parametrize(
        "flag, value", [("--phi", "nan"), ("--phi", "inf"), ("--theta", "-inf")]
    )
    def test_non_finite_angle_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, ["example", "epr", "--phi", "0.5", f"{flag}={value}"])
        assert code == 1
        assert f"error: {flag} must be finite, got " in err
        assert out == ""

    def test_spaced_negative_infinite_angle_reaches_the_finite_check(self, capsys):
        code, out, err = run(capsys, ["example", "epr", "--phi", "-inf"])
        assert code == 1
        assert "error: --phi must be finite, got -inf" in err
        assert out == ""

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        a = state_path(tmp_path, "a.json", ZERO)
        code, _, err = run(capsys, ["witness", "--state-a", a])
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_shots_without_interfere_is_usage_error(self, tmp_path, capsys):
        a = state_path(tmp_path, "a.json", ZERO)
        b = state_path(tmp_path, "b.json", PLUS)
        code, _, err = run(
            capsys,
            ["witness", "--state-a", a, "--state-b", b, "--shots", "100"],
        )
        assert code == 1
        assert "--shots" in err

    def test_invalid_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        b = state_path(tmp_path, "b.json", PLUS)
        code, _, err = run(
            capsys, ["witness", "--state-a", str(bad), "--state-b", b]
        )
        assert code == 2
        assert "invalid input" in err

    def test_non_density_matrix_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = {"dim": 2, "re": [[1.5, 0.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2}
        bad.write_text(json.dumps(doc))
        b = state_path(tmp_path, "b.json", PLUS)
        code, _, err = run(
            capsys, ["witness", "--state-a", str(bad), "--state-b", b]
        )
        assert code == 2
        assert "trace" in err

    def test_overflowing_state_is_data_error(self, tmp_path, capsys):
        # finite entries whose M + M^dag overflows
        bad = tmp_path / "bad.json"
        big = 1e308
        re = [[1.0, 0.0, big], [0.0, 1.0, big], [big, big, 1.0]]
        bad.write_text(json.dumps({"dim": 3, "re": re, "im": [[0.0] * 3] * 3}))
        b = state_path(tmp_path, "b.json", pure_state(np.array([1.0, 0.0, 0.0])))
        code, _, err = run(capsys, ["witness", "--state-a", str(bad), "--state-b", b])
        assert code == 2
        assert err == (
            f"qwitness witness: invalid input: {bad}: matrix is not finite once "
            "symmetrized: (M + M^dag) / 2 overflows\n"
        )

    # A state check that fails names the file it read, as the parse errors do,
    # and keeps the check's name and magnitude.
    BAD_STATES = {
        "trace": ([[1.2, 0.0], [0.0, 0.0]], "trace", 0.2,
                  "trace deviates from 1 by 2.000e-01"),
        "nan": ([[math.nan, 0.0], [0.0, 0.0]], "finiteness", math.inf,
                "operator has NaN/Inf entries"),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_STATES))
    def test_failed_state_check_names_the_file(self, tmp_path, capsys, kind):
        real, check, magnitude, message = self.BAD_STATES[kind]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "re": real, "im": [[0.0] * 2] * 2}))
        with pytest.raises(StateValidationError) as info:
            load_state(str(bad))
        assert (info.value.check, str(info.value)) == (check, f"{bad}: {message}")
        assert info.value.magnitude == pytest.approx(magnitude)
        a = state_path(tmp_path, "a.json", PLUS)
        code, _, err = run(capsys, ["witness", "--state-a", a, "--state-b", str(bad)])
        assert (code, err) == (2, f"qwitness witness: invalid input: {bad}: {message}\n")
        code, _, err = run(capsys, ["discord", "--state", str(bad), "--dims", "2", "1"])
        assert (code, err) == (2, f"qwitness discord: invalid input: {bad}: {message}\n")

    def test_split_that_does_not_fit_names_the_file(self, tmp_path, capsys):
        bad = state_path(tmp_path, "bad.json", epr_state().state, dims=(2, 3))
        message = "dim_a * dim_b = 6 does not match total dim 4"
        a = state_path(tmp_path, "a.json", PLUS)
        code, _, err = run(capsys, ["witness", "--state-a", a, "--state-b", bad])
        assert (code, err) == (2, f"qwitness witness: invalid input: {bad}: {message}\n")
        code, _, err = run(capsys, ["discord", "--state", bad, "--dims", "2", "3"])
        assert (code, err) == (2, f"qwitness discord: invalid input: {bad}: {message}\n")

    def test_missing_state_file_is_io_error(self, tmp_path, capsys):
        b = state_path(tmp_path, "b.json", PLUS)
        code, _, _ = run(
            capsys,
            ["witness", "--state-a", str(tmp_path / "absent.json"), "--state-b", b],
        )
        assert code == 3

    def test_unwritable_fringe_path_is_io_error(self, tmp_path, capsys):
        a = state_path(tmp_path, "a.json", ZERO)
        b = state_path(tmp_path, "b.json", PLUS)
        code, _, _ = run(
            capsys,
            ["interfere", "--u", "u1", "--state-a", a, "--state-b", b,
             "--fringes-out", ""],
        )
        assert code == 3

    def test_unwritable_report_path_is_io_error(self, tmp_path, capsys):
        a = state_path(tmp_path, "a.json", ZERO)
        b = state_path(tmp_path, "b.json", PLUS)
        code, _, err = run(
            capsys,
            ["witness", "--state-a", a, "--state-b", b,
             "--out", str(tmp_path / "no_dir" / "report.json")],
        )
        assert code == 3
        assert "cannot write report" in err

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("Unable to allocate 5.96 GiB for an array with shape "
                         "(20000, 20000) and data type complex128"),
             "Unable to allocate 5.96 GiB for an array with shape "
             "(20000, 20000) and data type complex128"),
            (MemoryError(), "out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_allocation_failure_is_runtime_error(
        self, tmp_path, capsys, monkeypatch, error, message
    ):
        def exhausted(spec):
            raise error

        monkeypatch.setattr(cli, "random_density", exhausted)
        path = tmp_path / "r.json"
        # The largest --dim accepted; the injected error stands in for a host
        # that cannot allocate it.
        argv = ["random-state", "--dim", str(2**11), "--rank", "1", "--seed", "1",
                "--out", str(path)]
        assert run(capsys, argv) == (3, "", f"qwitness random-state: {message}\n")
        assert not path.exists()


# The required flags of each subcommand; files are never read by the parser.
MINIMAL_ARGV = {
    "witness": ["witness", "--state-a", "a.json", "--state-b", "b.json"],
    "interfere": ["interfere", "--u", "u1", "--state-a", "a.json", "--state-b", "b.json",
                  "--fringes-out", "f.csv"],
    "discord": ["discord", "--state", "ab.json", "--dims", "2", "2"],
    "example": ["example", "epr", "--phi", repr(math.pi / 4.0)],
    "random-state": ["random-state", "--dim", "3", "--rank", "2", "--seed", "11",
                     "--out", "r.json"],
}

# The nine commands of a benchmark cli-session round.
CLI_SESSION_ARGV = [
    ["random-state", "--dim", "3", "--rank", "2", "--seed", "8147", "--out", "rs.json"],
    ["witness", "--state-a", "a.json", "--state-b", "b.json", "--method", "direct",
     "--out", "r_direct.json"],
    ["witness", "--state-a", "a.json", "--state-b", "b.json", "--method", "trace",
     "--out", "r_trace.json"],
    ["witness", "--state-a", "a.json", "--state-b", "b.json", "--method", "interfere",
     "--shots", "100000", "--seed", "51", "--out", "r_winterf.json"],
    ["interfere", "--u", "u1", "--state-a", "a.json", "--state-b", "b.json",
     "--fringes-out", "f_u1.csv", "--out", "r_u1.json"],
    ["interfere", "--u", "u2", "--state-a", "a.json", "--state-b", "b.json",
     "--mode", "sampled", "--shots", "100000", "--seed", "7", "--fringes-out", "f_u2.csv",
     "--out", "r_u2.json"],
    ["example", "epr", "--phi", "1.2345678901234567", "--out", "r_epr.json"],
    ["example", "separable", "--phi", "0.1", "--theta", "3.0", "--out", "r_sep.json"],
    ["discord", "--state", "ab.json", "--dims", "2", "2", "--grid", "4", "--starts", "2",
     "--max-evals", "200", "--seed", "99", "--out", "r_discord.json"],
]

# Every argv shape the tests above parse successfully.
VALID_ARGV = [
    *MINIMAL_ARGV.values(),
    *CLI_SESSION_ARGV,
    [*MINIMAL_ARGV["witness"], "--method", "trace"],
    [*MINIMAL_ARGV["witness"], "--method", "interfere", "--shots", "400", "--seed", "9"],
    [*MINIMAL_ARGV["witness"], "--out", "r.json", "--shots", "100", "--seed", "-1"],
    ["interfere", "--u", "u2", "--state-a", "a.json", "--state-b", "b.json",
     "--mode", "sampled", "--shots", "250", "--seed", "3", "--fringes-out", "f.csv",
     "--phases", "2"],
    [*MINIMAL_ARGV["discord"], "--grid", "6", "--starts", "2", "--max-evals", "300"],
    ["discord", "--state", "ab.json", "--dims", "4", "1", "--seed", "-1"],
    [*MINIMAL_ARGV["discord"], "--dims", "0", "4"],
    ["example", "separable", "--phi", "0.6", "--theta", "0.8", "--out", "r.json"],
    ["example", "epr", "--phi", "0.5", "--theta", "inf"],
    ["random-state", "--dim", "0", "--rank", "5", "--seed", "-1", "--out", "r.json"],
    ["example", "--phi", "0.5", "--", "epr"],
    [*MINIMAL_ARGV["witness"], "--meth", "trace"],
    ["example", "epr", "--phi=-1e-3"],
    ["example", "epr", "--phi", "-1e-3", "--th", "-.5"],
    [*MINIMAL_ARGV["witness"], "--seed", "1", "--seed", "2", "--method", "trace"],
    [*MINIMAL_ARGV["random-state"], "--out", "s.json"],
]


# Values that are not a flag's canonical form, or only just are: negative,
# option-like, padded, unicode digits, empty, of another type or stray.
ODD_VALUES = ["-1", "-1e-3", "-inf", "-h", "--", "-x", "--out", "-", " 2", "2 ", "\u0663",
              "", "1.5", "nan", "x", "1_0", "epr", "u1"]


def canonical_values(row):
    if row.choices is not None:
        return list(row.choices)
    return {int: ["2", "3", "11"], float: ["0.5", "1e-3", "3"]}.get(row.type, ["a.json"])


@st.composite
def argv_variants(draw):
    """A subcommand's canonical arguments (every required flag, some of the
    others, in any order after the positional) with none, one or three
    deviations: an odd value, an abbreviated or "="-joined flag, a flag
    left out, or an extra "--", help, stray or repeated argument.

    Lists are drawn by index: hypothesis labels a strategy by hashing its
    elements, which lists make slow."""

    def pick(items):
        return items[draw(st.integers(0, len(items) - 1))]

    name = pick(sorted(cli._FLAGS))
    rows = cli._FLAGS[name]
    keep = draw(st.integers(0, 2 ** len(rows) - 1))  # which optional flags appear
    parts = []
    for k, row in enumerate(rows):
        if row.required or not row.flag.startswith("-") or keep >> k & 1:
            flag = [row.flag] if row.flag.startswith("-") else []
            values = [pick(canonical_values(row)) for _ in range(row.nargs or 1)]
            parts.append([*flag, *values])
    first = 1 if name == "example" else 0
    order = draw(st.permutations(range(first, len(parts))))
    parts[first:] = [parts[i] for i in order]
    for _ in range(pick([0, 1, 1, 1, 3])):
        kind = pick(["odd", "odd", "abbreviate", "join", "drop", "extra"])
        part = pick(parts) if parts else ["stray"]
        if kind == "odd":  # one of the part's values
            part[-draw(st.integers(1, max(len(part) - 1, 1)))] = pick(ODD_VALUES)
        elif kind == "abbreviate" and part[0].startswith("--") and len(part[0]) > 2:
            part[0] = part[0][:draw(st.integers(2, len(part[0]) - 1))]
        elif kind == "join" and len(part) > 1:
            part[:2] = [f"{part[0]}={part[1]}"]
        elif kind == "drop" and part in parts:
            parts.remove(part)
        else:
            extra = pick([["--"], ["-h"], ["--help"], ["stray"], ["--bogus"], list(part)])
            parts.insert(draw(st.integers(0, len(parts))), extra)
    return [name, *(token for part in parts for token in part)]


def value_types(args):
    return {key: (type(value), *map(type, value)) if isinstance(value, list) else type(value)
            for key, value in vars(args).items()}


def full_parse(capsys, argv):
    """The oracle for dispatch's parse: ``build_parser().parse_args(argv)``,
    as (exit code or None, stdout, stderr)."""
    try:
        build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrimmedParser:
    """dispatch reads a canonical argv against the flag table and parses any
    other with the full parser; to the user the table path must look exactly
    like the full parser."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"], ["-h", "witness"], [], ["frobnicate"],
            *([name, "--help"] for name in MINIMAL_ARGV),
            # After the required flags, so the top-level parser reports it.
            *([*argv, "--bogus"] for argv in MINIMAL_ARGV.values()),
            ["witness", "--state-a", "a.json"],
            ["interfere", "--u", "u3"],
            *([*argv, "stray"] for argv in MINIMAL_ARGV.values()),
            ["example", "--", "epr", "--phi", "0.5"],
            ["example", "epr", "--phi", "--", "0.5"],
            ["witness", "--state-a", "--", "a.json", "--state-b", "b.json"],
            [*MINIMAL_ARGV["witness"], "--", "--method", "trace"],
            ["witness", "--state", "a.json", "--state-b", "b.json"],
            ["interfere", "--u", "u3", "-h"],
            [*MINIMAL_ARGV["witness"], "--method", "bogus", "-h"],
            ["example", "bell", "-h"],
            ["example", "epr", "--phi", "x", "-h"],
        ],
        ids=lambda argv: " ".join(argv) or "no-args",
    )
    def test_output_matches_the_full_parser(self, monkeypatch, capsys, argv):
        for columns in ("80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            expected = full_parse(capsys, argv)
            assert expected[0] in (0, 1)
            assert run(capsys, argv) == expected

    @pytest.mark.parametrize("argv", VALID_ARGV, ids=lambda argv: " ".join(argv))
    def test_namespace_matches_the_full_parser(self, capsys, argv):
        assert _parse_args(argv) == build_parser().parse_args(argv)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", CLI_SESSION_ARGV, ids=lambda argv: " ".join(argv))
    def test_canonical_argv_takes_the_table_path(self, argv):
        args = cli._parse_canonical(argv[0], argv[1:])
        assert args is not None
        assert value_types(args) == value_types(build_parser().parse_args(argv))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(argv=argv_variants())
    def test_table_path_reads_argv_as_argparse_does(self, argv):
        """Where the table path accepts an argv, argparse accepts it
        silently into equal values of the same types; dispatch returns an
        exit code on every variant (no state file exists)."""
        args = cli._parse_canonical(argv[0], argv[1:])
        out, err = io.StringIO(), io.StringIO()
        if args is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                full = build_parser().parse_args(argv)
            assert (out.getvalue(), err.getvalue()) == ("", "")
            assert vars(args) == vars(full)
            assert value_types(args) == value_types(full)
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = dispatch(argv)
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2, 3)


def run_fresh(code):
    """stdout of ``python -c code`` in a fresh interpreter that imports src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestStartup:
    def test_importing_the_cli_does_not_load_scipy(self):
        """The package does not use scipy, so importing the CLI leaves
        scipy.optimize, the costliest part of scipy to import, unloaded."""
        code = "import sys, qwitness.cli; print('scipy.optimize' in sys.modules)"
        assert run_fresh(code) == "False"

    def test_discord_search_does_not_load_scipy(self, tmp_path):
        """The refinement stage is the package's own BFGS."""
        path = state_path(tmp_path, "ab.json", epr_state().state, dims=(2, 2))
        argv = ["discord", "--state", path, "--dims", "2", "2", "--grid", "4",
                "--starts", "2", "--max-evals", "200", "--out", str(tmp_path / "r.json")]
        code = (
            "import sys; from qwitness.cli import dispatch; "
            f"code = dispatch({argv!r}); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert run_fresh(code) == "0 []"

    def test_interference_commands_leave_numpy_ma_as_they_found_it(self, tmp_path):
        """Counting distinct phases with np.unique imported numpy.ma on its
        first call, ~15 ms of every fresh interfering command."""
        rng = np.random.default_rng(48)
        a = state_path(tmp_path, "a.json", ginibre_state(2, 2, rng))
        pair = ["--state-a", a, "--state-b", a]
        argvs = [
            ["witness", *pair, "--method", "interfere", "--shots", "10"],
            ["interfere", "--u", "u2", *pair, "--fringes-out", str(tmp_path / "f.csv")],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from qwitness.cli import dispatch\n"
            "before = 'numpy.ma' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [dispatch(argv) for argv in {argvs!r}]\n"
            "print(codes, before == ('numpy.ma' in sys.modules))"
        )
        assert run_fresh(code) == "[0, 0] True"
