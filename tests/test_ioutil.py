import tracemalloc

import numpy as np
import pytest

from ovabench.ioutil import CSV_BLOCK_ROWS, write_csv


def lines(path):
    return path.read_text().split("\n")


def test_floats_round_trip_with_17_significant_digits(tmp_path):
    values = np.array([0.1, 1e-17, -0.0])
    path = tmp_path / "f.csv"
    write_csv(path, {"x": values})
    assert lines(path) == ["x", "0.10000000000000001", "1.0000000000000001e-17", "-0", ""]
    back = np.array([float(cell) for cell in lines(path)[1:-1]])
    assert back.tobytes() == values.tobytes()  # bit for bit, the sign of -0.0 included


def test_nan_is_an_empty_cell(tmp_path):
    path = tmp_path / "nan.csv"
    write_csv(path, {"a": [1.5, float("nan"), 2.0], "b": np.array([np.nan, 0.25, np.nan])})
    assert lines(path) == ["a,b", "1.5,", ",0.25", "2,", ""]


def test_integer_and_boolean_columns_are_decimal_integers(tmp_path):
    path = tmp_path / "ints.csv"
    write_csv(path, {"i": np.array([0, -7, 2 ** 40], dtype=np.int64),
                     "b": np.array([True, False, True]), "n": [3, 4, 5]})
    assert lines(path) == ["i,b,n", "0,1,3", "-7,0,4", "1099511627776,1,5", ""]


def test_string_columns_are_written_as_they_are(tmp_path):
    path = tmp_path / "str.csv"
    write_csv(path, {"kind": ["point", "center"],
                     "label": np.where([False, True], "", np.array([3, 4]).astype(str))})
    assert lines(path) == ["kind,label", "point,3", "center,", ""]


def test_zero_rows_give_a_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, {"a": np.array([]), "b": np.array([], dtype=np.int64), "c": []})
    assert path.read_text() == "a,b,c\n"


def test_ragged_columns_raise(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(path, {"a": [1.0, 2.0], "b": [1]})
    assert not path.exists()


@pytest.mark.parametrize("column, dtype, shape", [
    (np.array([1.5, None], dtype=object), "object", "(2,)"),
    (np.zeros((2, 2)), "float64", "(2, 2)"),
    (np.array([1 + 1j, 0j]), "complex128", "(2,)"),
    (3.0, "float64", "()"),
    (np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"), "datetime64[D]", "(2,)"),
    (np.array([b"a", b"b"]), "|S1", "(2,)"),
], ids=["object", "2-d", "complex", "scalar", "datetime", "bytes"])
def test_a_column_outside_the_cell_rule_is_named_before_the_file_opens(tmp_path, column,
                                                                       dtype, shape):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError) as info:
        write_csv(path, {"ok": [1, 2], "bad": column})
    assert str(info.value) == ("CSV column 'bad' must be a vector of floats, integers, "
                               f"booleans or strings, got {dtype} of shape {shape}")
    assert not path.exists()


@pytest.mark.parametrize("columns, name", [
    ({"a,b": ["x,y", "p\nq"], "n": [1, 2]}, "a,b"),
    ({"n": [1, 2], "s": ["ok", 'say "hi"']}, "s"),
    ({"n": [1, 2], "s": np.array(["ok", "cr\r"])}, "s"),
    ({"n": [1, 2], "s": ["ok", "p\nq"]}, "s"),
    ({"line\nbreak": [1.5, 2.5]}, "line\nbreak"),
], ids=["comma-name-and-cells", "quote-cell", "carriage-return-cell", "newline-cell",
        "newline-name"])
def test_a_separator_in_a_name_or_string_cell_is_refused_before_the_file_opens(
        tmp_path, columns, name):
    path = tmp_path / "sep.csv"
    with pytest.raises(ValueError) as info:
        write_csv(path, columns)
    assert str(info.value) == (f"CSV column {name!r} has a comma, quote or line break "
                               "in its name or a string cell")
    assert not path.exists()


def test_blocks_give_the_bytes_of_a_one_shot_join(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(1)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[::7] = np.nan
    columns = {"f": floats, "i": rng.integers(-2 ** 40, 2 ** 40, n), "b": rng.random(n) < 0.5,
               "s": np.where(rng.random(n) < 0.5, "", rng.integers(0, 10, n).astype(str))}
    rules = {"f": lambda v: "" if v != v else f"{v:.17g}", "i": str,
             "b": lambda v: str(int(v)), "s": str}
    rows = zip(*(map(rules[name], column.tolist()) for name, column in columns.items()))
    expected = "\n".join(["f,i,b,s", *map(",".join, rows)]) + "\n"
    path = tmp_path / "blocks.csv"
    write_csv(path, columns)
    assert path.read_bytes() == expected.encode()
    assert len(lines(path)) == n + 2  # header, n rows, and the empty string after the last "\n"


def test_a_large_table_is_written_in_bounded_memory(tmp_path):
    n = 100000
    rng = np.random.default_rng(2)
    columns = {"confidence": rng.random(n), "predicted_label": rng.integers(0, 10, n),
               "true_label": rng.integers(0, 10, n), "is_ood": rng.random(n) < 0.5}
    tracemalloc.start()
    try:
        write_csv(tmp_path / "predictions.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # the 2.6 MB file built whole as strings peaks at 38 MB


def cell(v) -> str:
    """The cell rule, one cell at a time: the oracle for write_csv's value tables."""
    if isinstance(v, float):
        return "" if v != v else f"{v:.17g}"
    return str(int(v))


def test_value_tables_give_the_bytes_of_formatting_each_cell(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 5
    rng = np.random.default_rng(3)
    nans = np.array([0x7FF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF,
                     -0x8000000000000, -1], np.int64).view(np.float64)  # signs and payloads
    specials = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
                                -1.7976931348623157e308, 0.1, 1.0, -2.5], nans])
    floats = rng.choice(specials, n)
    floats[::CSV_BLOCK_ROWS // 2], floats[1::CSV_BLOCK_ROWS // 2] = 0.0, -0.0  # both zeros per block
    many = rng.choice(specials, (n, 3))
    int64 = np.iinfo(np.int64)
    columns = {
        "f": floats,
        "strided": many[:, 0],
        "f32": rng.choice(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, 3.4028235e38, 0.1],
                                   np.float32), n),
        "wide": rng.standard_normal(n),
        "i": rng.choice(np.array([int64.min, int64.max, 0, -1, 1], np.int64), n),
        "i32": rng.integers(-3, 3, n, dtype=np.int32),
        "u64": rng.choice(np.array([2 ** 63, 2 ** 64 - 1, 0, 5], np.uint64), n),
        "b": rng.random(n) < 0.5,
    }
    assert not columns["strided"].flags.contiguous
    rows = zip(*(map(cell, column.tolist()) for column in columns.values()))
    expected = "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    path = tmp_path / "tables.csv"
    write_csv(path, columns)
    assert path.read_bytes() == expected.encode()
    first = lines(path)[1:CSV_BLOCK_ROWS + 1]
    assert {"0", "-0", ""} <= {row.split(",")[0] for row in first}
