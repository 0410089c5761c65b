"""Dataset generation, CSV ingestion, splitting and standardization."""

import re

import numpy as np
import pytest

from lastlayer.data import (
    CsvFormatError,
    Dataset,
    apply_standardization,
    gen_synthetic,
    load_csv,
    save_csv,
    split,
    standardize,
)

# frozen output of the repository's permutation stream for (N=20, seed=42);
# guards the seeded-split contract against accidental RNG changes
SPLIT_PERM_20_SEED42 = [13, 8, 16, 9, 1, 12, 7, 5, 0, 6, 4, 11, 3, 10, 18, 15, 14, 2, 19, 17]


class TestGenSynthetic:
    def test_shapes(self):
        ds = gen_synthetic(200, seed=1)
        assert ds.x.shape == (200, 10)
        assert ds.y.shape == (200, 1)

    def test_default_is_ten_thousand_rows(self):
        assert gen_synthetic().n == 10000

    def test_inputs_in_unit_cube(self):
        ds = gen_synthetic(500, seed=2)
        assert np.all(ds.x >= 0.0) and np.all(ds.x < 1.0)

    def test_target_bound(self):
        for seed in range(5):
            ds = gen_synthetic(300, seed=seed)
            assert np.all(np.abs(ds.y) <= 5.0)

    def test_same_seed_bit_identical(self):
        a = gen_synthetic(100, seed=3)
        b = gen_synthetic(100, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_different_seed_different_teacher(self):
        a = gen_synthetic(50, seed=4)
        b = gen_synthetic(50, seed=5)
        assert not np.array_equal(a.y, b.y)


class TestLoadCsv:
    def test_exact_small_file(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,c\n1,2.5,3\n4,5,-6e-1\n")
        ds = load_csv(str(path), ["a", "b"], ["c"])
        assert np.array_equal(ds.x, np.array([[1.0, 2.5], [4.0, 5.0]]))
        assert np.array_equal(ds.y, np.array([[3.0], [-0.6]]))
        assert ds.feature_names == ["a", "b"]
        assert ds.target_names == ["c"]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet exports start UTF-8 files with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx0,y0\n1,2\n")
        ds = load_csv(str(path), ["x0"], ["y0"])
        assert ds.feature_names == ["x0"]
        assert np.array_equal(ds.x, [[1.0]]) and np.array_equal(ds.y, [[2.0]])
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        ds = load_csv(str(path), [0], [1], has_header=False)
        assert np.array_equal(ds.x, [[1.0], [3.0]]) and np.array_equal(ds.y, [[2.0], [4.0]])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(str(path), ["a"], ["b"])

    def test_headerless_ragged_row_names_line_2(self, tmp_path):
        path = tmp_path / "ragged2.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(str(path), [0], [1], has_header=False)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,oops\n")
        with pytest.raises(CsvFormatError, match="line 2, column 2"):
            load_csv(str(path), ["a"], ["b"])

    def test_header_width_differs_from_rows_names_line_1(self, tmp_path):
        path = tmp_path / "wide_header.csv"
        path.write_text("a,b,c,d\n1,2,3\n4,5,6\n")
        for features, targets in ((["a", "b"], ["d"]), (["a"], ["c"])):
            with pytest.raises(CsvFormatError, match="line 1"):
                load_csv(str(path), features, targets)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n", "no data rows (line 2)"),
            ("a,b\n1,2\n\n3,4\n", "expected 2 columns, found 0 (line 3)"),
            ("a,b\n1,2\nx,4\n", "non-numeric cell 'x' (line 3, column 1)"),
            ("a,b\n1,2\n3,4\n5,inf\n", "non-finite cell 'inf' (line 4, column 2)"),
        ],
    )
    def test_errors_name_the_line_and_column_of_a_later_row(self, tmp_path, text, message):
        path = tmp_path / "late.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as raised:
            load_csv(str(path), ["a"], ["b"])
        assert str(raised.value) == message

    def test_matrices_are_c_contiguous_and_writable(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(str(path), ["c", "a"], ["b"])
        assert np.array_equal(ds.x, [[3.0, 1.0], [6.0, 4.0], [9.0, 7.0]])
        assert np.array_equal(ds.y, [[2.0], [5.0], [8.0]])
        for a in (ds.x, ds.y):
            assert a.flags.c_contiguous and a.flags.writeable

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty") as err:
            load_csv(str(path), [0], [1], has_header=False)
        assert err.value.line == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not found"):
            load_csv(str(path), ["z"], ["b"])

    def test_boolean_column_is_neither_name_nor_index(self, tmp_path):
        # True == 1 would otherwise select column 1
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="neither a name nor a 0-based index"):
            load_csv(str(path), [True], ["b"])

    def test_empty_column_list_is_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x0,y0\n1,2\n")
        with pytest.raises(ValueError, match="feature columns select nothing"):
            load_csv(str(path), [], ["y0"])
        with pytest.raises(ValueError, match="target columns select nothing"):
            load_csv(str(path), ["x0"], [])

    @pytest.mark.parametrize("targets", [["y0", "y0"], ["y0", 1], [1, "y0"]])
    def test_column_selected_twice_is_rejected(self, tmp_path, targets):
        path = tmp_path / "cols.csv"
        path.write_text("x0,y0\n1,2\n")
        with pytest.raises(ValueError, match=r"target column .* selects column 1 a second time"):
            load_csv(str(path), ["x0"], targets)

    @pytest.mark.parametrize("text, features, targets, message", [
        ("a,a,b\n1,2,3\n", ["a"], ["b"], "feature column 'a' names both column 0 and column 1"),
        ("b,a,x,a\n1,2,3,4\n", ["b"], ["a"], "target column 'a' names both column 1 and column 3"),
    ])
    def test_selected_name_that_the_header_repeats_is_rejected(self, tmp_path, text, features,
                                                              targets, message):
        path = tmp_path / "dup.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message + " of the header$"):
            load_csv(str(path), features, targets)

    def test_unselected_repeated_names_are_allowed(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,c,c,b,a\n1,2,3,4,5\n")
        ds = load_csv(str(path), ["b"], [1])
        assert ds.x.tolist() == [[4.0]] and ds.y.tolist() == [[2.0]]
        assert ds.feature_names == ["b"] and ds.target_names == ["c"]

    @pytest.mark.parametrize(
        "features, targets, requests",
        [
            (["x0", "y0"], ["y0"], "feature column 'y0' by name, target column 'y0' by name"),
            ([0, 1], ["y0"], "feature column 1 by index, target column 'y0' by name"),
            (["x0", "y0"], [1], "feature column 'y0' by name, target column 1 by index"),
        ],
    )
    def test_column_both_feature_and_target_is_rejected(self, tmp_path, features, targets,
                                                        requests):
        path = tmp_path / "cols.csv"
        path.write_text("x0,y0\n1,2\n")
        with pytest.raises(ValueError) as raised:
            load_csv(str(path), features, targets)
        assert str(raised.value) == (
            f"column 1 is selected as both feature and target ({requests})"
        )

    def test_index_selection_without_header(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("1,2,3\n4,5,6\n")
        ds = load_csv(str(path), [0, 2], [1], has_header=False)
        assert np.array_equal(ds.x, np.array([[1.0, 3.0], [4.0, 6.0]]))
        assert np.array_equal(ds.y, np.array([[2.0], [5.0]]))

    def test_round_trip_bit_identical(self, tmp_path):
        ds = gen_synthetic(40, seed=6)
        path = tmp_path / "roundtrip.csv"
        save_csv(ds, str(path))
        loaded = load_csv(
            str(path), [f"x{i}" for i in range(10)], ["y0"], has_header=True
        )
        assert np.array_equal(ds.x, loaded.x)
        assert np.array_equal(ds.y, loaded.y)


# save_csv's bytes rest on np.savetxt formatting each row with Python's
# %-operator and writing str lines to a text handle
@pytest.mark.numpy_floor
class TestSaveCsv:
    # written by save_csv when it formatted each cell with
    # jsonio.format_float and wrote the rows one at a time
    LOOP_BYTES = (
        b"gr\xc3\xb6\xc3\x9fe,\xe6\x99\x82\xe9\x96\x93,na\xc3\xafve,\xc3\xbf\n"
        b"-0,4.9406564584124654e-324,1.7976931348623157e+308,-1.7976931348623157e+308\n"
        b"0.10000000000000001,-2.5,1e-300,2.2250738585072014e-308\n"
    )

    def test_bytes_match_the_row_loop(self, tmp_path):
        # -0.0, the smallest subnormal, the largest double and UTF-8 names
        x = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.5, 1e-300]])
        y = np.array([[-1.7976931348623157e308], [2.2250738585072014e-308]])
        ds = Dataset(x, y, feature_names=["größe", "時間", "naïve"], target_names=["ÿ"])
        path = tmp_path / "special.csv"
        save_csv(ds, str(path))
        assert path.read_bytes() == self.LOOP_BYTES

    @pytest.mark.parametrize("field, row, col, value, message", [
        ("x", 3, 7, np.inf, r"^dataset input has a non-finite entry inf at \(3, 7\)$"),
        ("y", 2, 0, np.nan, r"^dataset target has a non-finite entry nan at \(2, 0\)$"),
    ], ids=["input", "target"])
    def test_refuses_values_made_non_finite_after_the_dataset_checked_them(
            self, tmp_path, field, row, col, value, message):
        ds = gen_synthetic(5, seed=0)
        getattr(ds, field)[row, col] = value
        with pytest.raises(ValueError, match=message):
            save_csv(ds, str(tmp_path / "nan.csv"))
        assert not (tmp_path / "nan.csv").exists()


class TestSplit:
    def test_sizes(self):
        ds = gen_synthetic(10, seed=8)
        train, test = split(ds, 0.7, seed=1)
        assert train.n == 7 and test.n == 3

    def test_partition_property(self):
        ds = gen_synthetic(50, seed=9)
        train, test = split(ds, 0.6, seed=2)
        combined = np.vstack([train.x, test.x])
        assert np.array_equal(
            np.sort(combined, axis=0), np.sort(ds.x, axis=0)
        )

    def test_same_seed_identical(self):
        ds = gen_synthetic(30, seed=10)
        a_train, a_test = split(ds, 0.7, seed=3)
        b_train, b_test = split(ds, 0.7, seed=3)
        assert np.array_equal(a_train.x, b_train.x)
        assert np.array_equal(a_test.y, b_test.y)

    def test_fixed_seed_snapshot(self):
        ds = gen_synthetic(20, seed=5)
        train, test = split(ds, 0.7, seed=42)
        perm = np.array(SPLIT_PERM_20_SEED42)
        assert not np.array_equal(perm, np.arange(20))
        assert np.array_equal(train.x, ds.x[perm[:14]])
        assert np.array_equal(test.y, ds.y[perm[14:]])

    def test_subset_shares_no_memory_with_the_source(self):
        ds = gen_synthetic(30, seed=4)
        for idx in (np.arange(30), [3, 1, 2], np.arange(0, 30, 2), [5]):
            sub = ds.subset(idx)
            assert not np.shares_memory(sub.x, ds.x) and not np.shares_memory(sub.y, ds.y)
            assert np.array_equal(sub.x, ds.x[idx]) and np.array_equal(sub.y, ds.y[idx])

    def test_two_rows_at_one_half_give_one_train_and_one_test_row(self):
        ds = gen_synthetic(2, seed=12)
        train, test = split(ds, 0.5, seed=0)
        assert train.n == 1 and test.n == 1
        assert sorted(np.vstack([train.x, test.x]).tolist()) == sorted(ds.x.tolist())

    def test_degenerate_sizes_rejected(self):
        ds = gen_synthetic(3, seed=11)
        with pytest.raises(ValueError):
            split(ds, 0.1, seed=0)
        with pytest.raises(ValueError):
            split(ds, 1.5, seed=0)


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(12)
        ds = Dataset(rng.normal(5.0, 3.0, size=(200, 4)), rng.normal(size=(200, 1)))
        out, params = standardize(ds)
        assert float(np.max(np.abs(out.x.mean(axis=0)))) <= 1e-10
        assert float(np.max(np.abs(out.x.var(axis=0) - 1.0))) <= 1e-10

    def test_already_standardized_unchanged(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(500, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        ds = Dataset(x, rng.normal(size=(500, 1)))
        out, _ = standardize(ds)
        assert float(np.max(np.abs(out.x - x))) <= 1e-10

    def test_constant_column_passthrough_with_warning(self):
        x = np.column_stack([np.full(10, 2.0), np.arange(10.0)])
        ds = Dataset(x, np.zeros((10, 1)))
        with pytest.warns(UserWarning, match="constant"):
            out, params = standardize(ds)
        assert np.array_equal(out.x[:, 0], x[:, 0])
        assert params.std[0] == 1.0 and params.mean[0] == 0.0

    def test_statistics_match_independent_accumulation(self):
        rng = np.random.default_rng(14)
        x = rng.normal(2.0, 0.5, size=(64, 2))
        ds = Dataset(x, np.zeros((64, 1)))
        _, params = standardize(ds)
        for j in range(2):
            mean = sum(float(v) for v in x[:, j]) / 64
            var = sum((float(v) - mean) ** 2 for v in x[:, j]) / 64
            assert params.mean[j] == pytest.approx(mean, rel=1e-12)
            assert params.std[j] == pytest.approx(var**0.5, rel=1e-12)

    def test_test_set_uses_train_statistics(self):
        rng = np.random.default_rng(15)
        train = Dataset(rng.normal(3.0, 2.0, size=(100, 2)), np.zeros((100, 1)))
        test = Dataset(rng.normal(3.0, 2.0, size=(50, 2)), np.zeros((50, 1)))
        _, params = standardize(train)
        out = apply_standardization(test, params)
        expected = (test.x - params.mean) / params.std
        assert np.array_equal(out.x, expected)
        assert not np.shares_memory(out.x, test.x) and not np.shares_memory(out.y, test.y)


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.nan]]), np.array([[1.0]]))

    @pytest.mark.parametrize("field, row, col, value, message", [
        ("x", 1, 2, np.nan, r"^dataset input has a non-finite entry nan at \(1, 2\)$"),
        ("y", 2, 0, -np.inf, r"^dataset target has a non-finite entry -inf at \(2, 0\)$"),
    ], ids=["input", "target"])
    def test_non_finite_entry_is_named_by_its_position(self, field, row, col, value, message):
        ds = gen_synthetic(4, seed=18)
        arrays = {"x": ds.x.copy(), "y": ds.y.copy()}
        arrays[field][row, col] = value
        with pytest.raises(ValueError, match=message):
            Dataset(arrays["x"], arrays["y"])

    def test_rejects_row_mismatch(self):
        # no dimension equals another, so the message shows which it names
        with pytest.raises(ValueError, match="^inputs have 3 rows but targets have 4$"):
            Dataset(np.zeros((3, 5)), np.zeros((4, 2)))


@pytest.mark.parametrize("make, message", [
    (lambda path: Dataset(np.zeros(3), np.zeros((3, 1))), "dataset matrices must be 2-D"),
    (lambda path: Dataset(np.zeros((0, 2)), np.zeros((0, 1))),
     "dataset must contain at least one sample"),
    (lambda path: gen_synthetic(0), "n must be >= 1"),
    (lambda path: load_csv(path, [0, 5], [2], has_header=False),
     "feature column index 5 out of range [0, 3)"),
    (lambda path: load_csv(path, ["a"], [2], has_header=False),
     "feature column 'a' requested by name but the file has no header"),
])
def test_refuses(tmp_path, make, message):
    path = tmp_path / "plain.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        make(str(path))
