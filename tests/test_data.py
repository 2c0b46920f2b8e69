import re
import warnings

import numpy as np
import pytest
from scipy import special as sp_special
from scipy import stats as sp_stats

from ankerrank.data import (
    DataFormatError,
    FeatureKind,
    FeatureSchema,
    NormalizationMode,
    NormalizationScope,
    RankedDataset,
    RankedQuery,
    _kolmogorov_sf,
    choose_normalization_scope,
    ks_two_sample,
    load_dataset,
    normalize_train_test,
    save_dataset,
)
from oracles import ks_exact_permutation_p
from synthetic import numeric_schema


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CSV ingestion

def test_load_single_query(tmp_path):
    path = write_csv(tmp_path, "query_id,rank,a,b\nq1,1,1.0,2.0\nq1,2,3.0,4.0\nq1,3,5.0,6.0\n")
    ds = load_dataset(path)
    assert len(ds.queries) == 1
    query = ds.queries[0]
    assert query.n_items == 3
    assert np.array_equal(query.ranking, [0, 1, 2])
    assert np.array_equal(query.items, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_load_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start the file with U+FEFF.
    text = "query_id,rank,a,b\nq1,1,1.0,2.0\nq1,2,3.0,4.0\n"
    marked = load_dataset(write_csv(tmp_path, "\ufeff" + text, name="marked.csv"))
    plain = load_dataset(write_csv(tmp_path, text))
    assert marked.schema == plain.schema
    assert [q.query_id for q in marked.queries] == ["q1"]
    assert np.array_equal(marked.queries[0].items, plain.queries[0].items)


def test_load_duplicate_rank_is_an_error(tmp_path):
    path = write_csv(tmp_path, "query_id,rank,a\nq1,1,1\nq1,1,2\nq1,2,3\n")
    with pytest.raises(DataFormatError, match="duplicate rank"):
        load_dataset(path)


def test_load_groups_queries_by_id(tmp_path):
    path = write_csv(
        tmp_path,
        "query_id,rank,a\nq1,2,1\nq1,1,2\nq2,1,3\nq2,4,4\nq2,2,5\nq2,3,6\n",
    )
    ds = load_dataset(path)
    assert [q.query_id for q in ds.queries] == ["q1", "q2"]
    assert sorted(q.n_items for q in ds.queries) == [2, 4]
    # ranks are file-order positions minus one
    assert np.array_equal(ds.queries[0].ranking, [1, 0])


def test_load_noncontiguous_ranks_error(tmp_path):
    path = write_csv(tmp_path, "query_id,rank,a\nq1,1,1\nq1,3,2\n")
    with pytest.raises(DataFormatError, match="must be exactly 1..2"):
        load_dataset(path)


def test_load_ragged_row_error(tmp_path):
    path = write_csv(tmp_path, "query_id,rank,a,b\nq1,1,1.0\nq1,2,2.0,3.0\n")
    with pytest.raises(DataFormatError, match="row 2 has 3 fields"):
        load_dataset(path)


def test_load_kind_suffixes(tmp_path):
    path = write_csv(
        tmp_path,
        "query_id,rank,price:numeric,stars:ordinal{1<2<3<4<5},flag:binary\n"
        "q1,1,10.5,5,yes\n"
        "q1,2,8.0,3,no\n",
    )
    ds = load_dataset(path)
    assert ds.schema.kinds == (FeatureKind.NUMERIC, FeatureKind.ORDINAL, FeatureKind.BINARY)
    # ordinal level index / (levels - 1); binary levels sorted, so no=0, yes=1
    assert np.allclose(ds.queries[0].items, [[10.5, 1.0, 1.0], [8.0, 0.5, 0.0]])


def test_load_infers_binary_from_two_text_values(tmp_path):
    path = write_csv(tmp_path, "query_id,rank,color\nq1,1,red\nq1,2,blue\nq1,3,red\n")
    ds = load_dataset(path)
    assert ds.schema.kinds == (FeatureKind.BINARY,)
    assert ds.schema.levels == (("blue", "red"),)


def test_load_binary_needs_exactly_two_values(tmp_path):
    path = write_csv(tmp_path, "query_id,rank,flag:binary\nq1,1,a\nq1,2,b\nq1,3,c\n")
    with pytest.raises(DataFormatError, match="exactly two raw values"):
        load_dataset(path)


def test_load_unknown_ordinal_level_with_schema(tmp_path):
    train = write_csv(tmp_path, "query_id,rank,s:ordinal{low<high}\nq1,1,high\nq1,2,low\n")
    schema = load_dataset(train).schema
    query = write_csv(tmp_path, "query_id,rank,s:ordinal{low<high}\nq9,1,medium\nq9,2,low\n", "q.csv")
    with pytest.raises(DataFormatError, match="unknown ordinal level 'medium' in column 's'"):
        load_dataset(query, schema=schema)


def test_load_schema_mismatch_names_the_column(tmp_path):
    train = write_csv(tmp_path, "query_id,rank,a,b\nq1,1,1,2\nq1,2,3,4\n")
    schema = load_dataset(train).schema
    query = write_csv(tmp_path, "query_id,rank,a,c\nq9,1,1,2\nq9,2,3,4\n", "q.csv")
    with pytest.raises(DataFormatError, match="'c'"):
        load_dataset(query, schema=schema)
    short = write_csv(tmp_path, "query_id,rank,a\nq9,1,1\nq9,2,3\n", "short.csv")
    with pytest.raises(DataFormatError, match="expected 2 feature columns"):
        load_dataset(short, schema=schema)


@pytest.mark.parametrize("header, message", [
    ("s:numeric", "column 's' declared as numeric, schema expects ordinal"),
    ("s:ordinal{high<low}", "column 's' declares levels that differ from the schema"),
], ids=["kind", "levels"])
def test_a_header_that_contradicts_the_schema_is_rejected(tmp_path, header, message):
    train = write_csv(tmp_path, "query_id,rank,s:ordinal{low<high}\nq1,1,high\nq1,2,low\n")
    schema = load_dataset(train).schema
    query = write_csv(tmp_path, f"query_id,rank,{header}\nq9,1,high\nq9,2,low\n", "q.csv")
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load_dataset(query, schema=schema)


def test_canonical_round_trip(tmp_path):
    path = write_csv(
        tmp_path,
        "query_id,rank,price:numeric,stars:ordinal{1<2<3},flag:binary\n"
        "q1,1,1.5,3,no\n"
        "q1,2,0.25,1,yes\n"
        "q2,1,2.0,2,yes\n"
        "q2,2,-1.0,3,no\n",
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    save_dataset(load_dataset(path), first)
    save_dataset(load_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_round_trip_quotes_commas_and_double_quotes(tmp_path):
    schema = FeatureSchema(
        ("price, usd", "flag", "grade"),
        (FeatureKind.NUMERIC, FeatureKind.BINARY, FeatureKind.ORDINAL),
        (None, ("a,b", "c"), ('low, "ish"', "mid", 'high"')),
    )
    # rows in rank order, which is the order save_dataset writes them in
    queries = (
        RankedQuery("q,1", np.array([[1.5, 0.0, 0.5], [-2.0, 1.0, 1.0], [0.1, 0.0, 0.0]]), np.arange(3)),
        RankedQuery('say "hi"', np.array([[3.0, 1.0, 0.0], [4e-05, 0.0, 1.0]]), np.arange(2)),
    )
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save_dataset(RankedDataset(schema, queries), first)
    loaded = load_dataset(first)
    assert loaded.schema == schema
    assert [q.query_id for q in loaded.queries] == ["q,1", 'say "hi"']
    for got, expected in zip(loaded.queries, queries):
        assert got.items.tobytes() == expected.items.tobytes()
        assert np.array_equal(got.ranking, expected.ranking)
    save_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_canonical_bytes_of_a_mixed_kind_dataset(tmp_path):
    schema = FeatureSchema(
        ("price", "stars", "flag"),
        (FeatureKind.NUMERIC, FeatureKind.ORDINAL, FeatureKind.BINARY),
        (None, ("1", "2", "3"), ("no", "yes")),
    )
    queries = (
        RankedQuery("h1", np.array([[95.5, 0.5, 0.0], [129.0, 1.0, 1.0]]), np.array([1, 0])),
        RankedQuery("h2", np.array([[0.1, 0.0, 1.0], [-1e-05, 0.5, 0.0], [2e20, 1.0, 0.0]]),
                    np.array([2, 0, 1])),
    )
    path = tmp_path / "canonical.csv"
    save_dataset(RankedDataset(schema, queries), path)
    assert path.read_bytes() == (
        b"query_id,rank,price:numeric,stars:ordinal{1<2<3},flag:binary{no<yes}\n"
        b"h1,1,129.0,3,yes\n"
        b"h1,2,95.5,2,no\n"
        b"h2,1,-1e-05,2,no\n"
        b"h2,2,2e+20,3,no\n"
        b"h2,3,0.1,1,yes\n"
    )


def test_binary_level_order_survives_a_round_trip(tmp_path):
    schema = FeatureSchema(
        ("flag", "stars", "price"),
        (FeatureKind.BINARY, FeatureKind.ORDINAL, FeatureKind.NUMERIC),
        (("yes", "no"), ("1", "2", "3"), None),
    )
    queries = (RankedQuery("q", np.array([[0.0, 1.0, 2.5], [1.0, 0.5, -1.0], [0.0, 0.0, 0.0]]), np.arange(3)),)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save_dataset(RankedDataset(schema, queries), first)
    assert first.read_text().startswith("query_id,rank,flag:binary{yes<no},stars:ordinal{1<2<3},price:numeric\n")
    loaded = load_dataset(first)
    assert loaded.schema == schema
    assert loaded.queries[0].items.tobytes() == queries[0].items.tobytes()
    save_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_a_saved_one_valued_binary_column_loads_without_a_schema(tmp_path):
    schema = FeatureSchema(("flag",), (FeatureKind.BINARY,), (("no", "yes"),))
    path = tmp_path / "one.csv"
    save_dataset(RankedDataset(schema, (RankedQuery("q", np.array([[1.0], [1.0]]), np.arange(2)),)), path)
    loaded = load_dataset(path)
    assert loaded.schema == schema
    assert np.array_equal(loaded.queries[0].items, [[1.0], [1.0]])


@pytest.mark.parametrize("cell, message", [
    ("x:numeric{a<b}", "numeric feature 'x' must not declare levels"),
    ("x:ordinal", "ordinal feature 'x' needs an ordered level list"),
    ("x:weird", "unknown feature kind 'weird'"),
    ("x:binary{a}", "binary feature 'x' must take exactly two raw values, found 1"),
    ("x:ordinal{a<b<a}", "feature 'x' has duplicate levels"),
    (":numeric", "a feature has an empty name"),
])
def test_a_malformed_header_cell_is_rejected(tmp_path, cell, message):
    path = write_csv(tmp_path, f"query_id,rank,{cell}\nq1,1,a\nq1,2,b\n")
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load_dataset(path)


@pytest.mark.parametrize("header, cells, levels", [
    ("flag", ("yes", ""), ("", "yes")),
    ("x:ordinal{a<}", ("a", ""), ("a", "")),
])
def test_a_column_with_a_blank_level_round_trips(tmp_path, header, cells, levels):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    loaded = load_dataset(write_csv(tmp_path, f"query_id,rank,{header}\nq,1,{cells[0]}\nq,2,{cells[1]}\n"))
    assert loaded.schema.levels == (levels,)
    save_dataset(loaded, first)
    again = load_dataset(first)
    assert again.schema == loaded.schema
    assert again.queries[0].items.tobytes() == loaded.queries[0].items.tobytes()
    save_dataset(again, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name, levels, field", [
    ("a:b", ("lo", "hi"), "feature name 'a:b'"),
    (" flag", ("lo", "hi"), "feature name ' flag'"),
    ("flag", ("lo<", "hi"), "level of feature 'flag'"),
    ("flag", ("lo", "hi}"), "level of feature 'flag'"),
    ("flag", ("lo", "hi "), "level of feature 'flag'"),
    ("flag", ("lo", "h\ri"), "level of feature 'flag'"),
])
def test_save_refuses_names_and_levels_that_would_not_load_back(tmp_path, name, levels, field):
    schema = FeatureSchema((name,), (FeatureKind.BINARY,), (levels,))
    path = tmp_path / "out.csv"
    with pytest.raises(DataFormatError, match=re.escape(field)):
        save_dataset(RankedDataset(schema, (RankedQuery("q", np.array([[0.0], [1.0]]), np.arange(2)),)), path)
    assert not path.exists()


@pytest.mark.parametrize("column, value, message", [
    (0, -0.7, "-0.7 is not the code of a level of binary feature 'flag'"),
    (1, 0.3, "0.3 is not the code of a level of ordinal feature 'stars'"),
    (1, 2.0, "2.0 is not the code of a level of ordinal feature 'stars'"),
], ids=["binary-negative", "ordinal-between-levels", "ordinal-above-the-top"])
def test_save_refuses_an_item_value_that_is_no_level_code(tmp_path, column, value, message):
    # z-scored items are such values: save_dataset(ds.with_items(zscored)).
    schema = FeatureSchema(("flag", "stars"), (FeatureKind.BINARY, FeatureKind.ORDINAL),
                           (("no", "yes"), ("1", "2", "3")))
    items = np.array([[0.0, 0.5], [1.0, 1.0]])
    items[1, column] = value
    dataset = RankedDataset(schema, (RankedQuery("ok", np.zeros((2, 2)), np.arange(2)),
                                     RankedQuery("q", items, np.arange(2))))
    path = tmp_path / "out.csv"
    with pytest.raises(DataFormatError, match=re.escape(f"query 'q': {message}")):
        save_dataset(dataset, path)
    assert not path.exists()


def test_a_binary_column_with_grammar_characters_loads_but_does_not_save(tmp_path):
    loaded = load_dataset(write_csv(tmp_path, "query_id,rank,price_band\nq,1,<50\nq,2,50+\n"))
    assert loaded.schema.levels == (("50+", "<50"),)
    with pytest.raises(DataFormatError, match=re.escape("level of feature 'price_band' '<50'")):
        save_dataset(loaded, tmp_path / "out.csv")


@pytest.mark.parametrize("query_id", ["a\rb", " q", "q\t"])
def test_save_refuses_a_query_id_that_would_not_load_back(tmp_path, query_id):
    dataset = RankedDataset(numeric_schema(1), (RankedQuery(query_id, np.zeros((2, 1)), np.arange(2)),))
    path = tmp_path / "out.csv"
    with pytest.raises(DataFormatError, match=re.escape(f"query id {query_id!r}")):
        save_dataset(dataset, path)
    assert not path.exists()


def test_a_query_id_with_a_crlf_still_round_trips(tmp_path):
    path = tmp_path / "crlf.csv"
    save_dataset(RankedDataset(numeric_schema(1), (RankedQuery("a\r\nb", np.zeros((2, 1)), np.arange(2)),)), path)
    assert load_dataset(path).queries[0].query_id == "a\r\nb"


def test_schema_counts_the_levels_of_a_binary_feature():
    with pytest.raises(DataFormatError, match="'flag' must take exactly two raw values, found 3"):
        FeatureSchema(("flag",), (FeatureKind.BINARY,), (("a", "b", "c"),))


def test_schema_needs_a_kind_and_a_level_entry_per_name():
    with pytest.raises(DataFormatError, match="must have equal length"):
        FeatureSchema(("a", "b"), (FeatureKind.NUMERIC,), (None, None))


def test_schema_needs_a_feature():
    with pytest.raises(DataFormatError, match="at least one feature"):
        FeatureSchema((), (), ())


@pytest.mark.parametrize("items, message", [
    (np.zeros(2), "2-D"),
    (np.zeros((0, 2)), "at least one item"),
], ids=["1-D", "no-items"])
def test_query_needs_a_matrix_of_items(items, message):
    with pytest.raises(DataFormatError, match=message):
        RankedQuery("q", items, np.arange(len(items)))


def test_dataset_needs_a_query():
    with pytest.raises(DataFormatError, match="at least one query"):
        RankedDataset(numeric_schema(1), ())


def test_with_items_needs_the_dataset_shape():
    dataset = RankedDataset(numeric_schema(2), (RankedQuery("q", np.zeros((3, 2)), np.arange(3)),))
    with pytest.raises(ValueError, match="replacement matrix shape"):
        dataset.with_items(np.zeros((3, 1)))


def test_query_requires_permutation():
    with pytest.raises(DataFormatError, match="not a permutation"):
        RankedQuery("q", np.zeros((2, 1)), np.array([0, 0]))


@pytest.mark.parametrize("ranking", [np.array([1.5, 0.2]), np.array([0.5, 1.0]), np.array([np.nan, 0.0]),
                                     np.array(["0", 1], dtype=object), [0, [1]], ["1", "0"]])
def test_query_rejects_a_non_integral_ranking(ranking):
    with pytest.raises(DataFormatError, match="not a permutation"):
        RankedQuery("q", np.zeros((2, 1)), ranking)


# Each entry is checked before any cast: a list mixing booleans and integers
# would cast to the integers [1, 0].
@pytest.mark.parametrize("ranking", [np.array([True, False]), np.array([False, True]), [True, 0], [0, np.True_],
                                     np.array([True, 0], dtype=object)])
def test_query_refuses_a_boolean_ranking(ranking):
    with pytest.raises(DataFormatError, match="not a permutation"):
        RankedQuery("q", np.zeros((2, 1)), ranking)


def test_query_stores_an_integral_float_ranking_as_integers():
    query = RankedQuery("q", np.zeros((2, 1)), np.array([1.0, 0.0]))
    assert query.ranking.dtype.kind == "i" and query.ranking.tolist() == [1, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_query_rejects_non_finite_features(bad):
    items = np.zeros((2, 2))
    items[1, 0] = bad
    with pytest.raises(DataFormatError, match="non-finite"):
        RankedQuery("q", items, np.array([0, 1]))


def test_load_non_finite_cell_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("query_id,rank,a,b\nq,1,0.1,nan\nq,2,0.3,0.4\n")
    with pytest.raises(DataFormatError, match="bad.csv: query 'q' has non-finite"):
        load_dataset(path)


def test_dataset_requires_consistent_width():
    schema = FeatureSchema(("a",), (FeatureKind.NUMERIC,), (None,))
    query = RankedQuery("q", np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(DataFormatError, match="schema expects 1"):
        RankedDataset(schema, (query,))


def test_schema_rejects_a_repeated_feature_name():
    with pytest.raises(DataFormatError, match="duplicate feature name 'a'"):
        FeatureSchema(("a", "b", "a"), (FeatureKind.NUMERIC,) * 3, (None,) * 3)


def test_dataset_rejects_a_repeated_query_id():
    queries = (RankedQuery("q", np.zeros((2, 1)), np.arange(2)), RankedQuery("q", np.ones((2, 1)), np.arange(2)))
    with pytest.raises(DataFormatError, match="duplicate query id 'q'"):
        RankedDataset(numeric_schema(1), queries)


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("query_id,rank,a\nq,1,0.1,9\n", "row 2 has 4 fields"),
    ("query_id,rank,a\nq,1,0.1\nq,1,0.2\n", "duplicate rank 1"),
    ("query_id,rank,a:numeric\nq,1,x\nq,2,0.2\n", "non-numeric value 'x'"),
    ("query_id,rank,a\nq,1,0.1\nq,2,nan\n", "non-finite"),
    ("query_id,rank,a,a\nq,1,0.1,0.2\nq,2,0.3,0.4\n", "duplicate feature name 'a'"),
    ("id,rank,a\nq,1,0.1\nq,2,0.2\n", "header must start with query_id,rank"),
    ("query_id,rank\nq,1\nq,2\n", "header must start with query_id,rank and have at least one feature"),
    ("query_id,rank,a\n", "no data rows"),
    ("query_id,rank,a\nq,first,0.1\nq,2,0.2\n", "row 2 has non-integer rank 'first'"),
    ("query_id,rank,c\nq,1,red\nq,2,blue\nq,3,green\n",
     "cannot infer a kind for column 'c': non-numeric with 3 distinct values"),
], ids=["empty", "ragged", "duplicate-rank", "non-numeric", "non-finite", "repeated-name",
        "header-start", "header-without-features", "header-only", "non-integer-rank", "uninferable-kind"])
def test_every_load_error_names_the_file_once(tmp_path, text, message):
    path = write_csv(tmp_path, text, name="named.csv")
    with pytest.raises(DataFormatError, match=re.escape(message)) as excinfo:
        load_dataset(path)
    assert str(excinfo.value).startswith(f"{path}: ") and str(excinfo.value).count("named.csv") == 1


# ---------------------------------------------------------------------------
# Normalization

MINMAX, ZSCORE = NormalizationMode.MINMAX, NormalizationMode.ZSCORE


def _alone(data, mode):
    """``data`` normalized with its own statistics."""
    out, _ = normalize_train_test(data, data, mode, NormalizationScope.TEST_ONLY)
    return out


def test_minmax_basic_column():
    out = _alone(np.array([[2.0], [4.0], [6.0]]), MINMAX)
    assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])


def test_minmax_constant_column_maps_to_zero():
    out = _alone(np.array([[5.0], [5.0]]), MINMAX)
    assert np.array_equal(out.ravel(), [0.0, 0.0])


def test_minmax_in_sample_range():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(40, 5)) * 10
    out = _alone(data, MINMAX)
    assert out.min() >= 0.0 and out.max() <= 1.0


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_minmax_pooled_rows_stay_in_unit_interval(scale):
    # no clamp: rows inside the fitted range round into [0, 1] on their own
    rng = np.random.default_rng(8)
    train = rng.normal(size=(30, 4)) * scale + 3.0 * scale
    test = rng.normal(size=(20, 4)) * scale + 3.0 * scale
    train_n, test_n = normalize_train_test(train, test, MINMAX, NormalizationScope.TRAIN_PLUS_TEST)
    both = np.vstack([train_n, test_n])
    assert both.min() == 0.0 and both.max() == 1.0


def test_zscore_basic_column():
    out = _alone(np.array([[2.0], [4.0], [6.0]]), ZSCORE)
    assert np.allclose(out.ravel(), [-1.0, 0.0, 1.0])  # sample std is 2


def test_zscore_constant_column_maps_to_zero():
    out = _alone(np.array([[3.0], [3.0], [3.0]]), ZSCORE)
    assert np.array_equal(out.ravel(), [0.0, 0.0, 0.0])


def test_zscore_fitted_sample_is_standardized():
    rng = np.random.default_rng(2)
    data = rng.normal(loc=3.0, scale=7.0, size=(100, 4))
    out = _alone(data, ZSCORE)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.std(axis=0, ddof=1) - 1.0)) < 1e-9


@pytest.mark.parametrize("train, test", [
    (np.zeros((0, 2)), np.zeros((2, 2))),
    (np.zeros((2, 2)), np.zeros((0, 2))),
    (np.zeros(2), np.zeros((2, 2))),
], ids=["no-train-rows", "no-test-rows", "1-D-train"])
def test_normalization_needs_two_non_empty_matrices(train, test):
    with pytest.raises(ValueError, match="two non-empty"):
        normalize_train_test(train, test, MINMAX, NormalizationScope.TEST_ONLY)


def test_zscore_one_row_fit_is_rejected():
    with pytest.raises(ValueError, match="at least two rows"):
        normalize_train_test(np.array([[1.0], [2.0]]), np.array([[3.0]]), ZSCORE,
                             NormalizationScope.TEST_ONLY)


@pytest.mark.parametrize("mode", [MINMAX, ZSCORE], ids=["minmax", "zscore"])
def test_overflowing_statistics_are_rejected_without_warnings(mode):
    # finite values whose range (and sample variance) overflow
    data = np.array([[0.1, 1e308], [0.7, -1e308], [0.4, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=f"feature column 2 cannot be {mode.value}-normalized"):
            normalize_train_test(data, data, mode, NormalizationScope.TRAIN_PLUS_TEST)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov

def test_ks_identical_samples():
    decision = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert decision.statistic == 0.0
    assert not decision.rejected


def test_ks_fully_separated_samples():
    decision = ks_two_sample([1.0, 2.0], [3.0, 4.0])
    assert decision.statistic == 1.0


def test_ks_small_sample_decision_vs_permutation_oracle():
    a, b = [1.0, 2.0], [3.0, 4.0]
    exact_p = ks_exact_permutation_p(a, b)
    assert exact_p == pytest.approx(1 / 3)
    # even at full separation, two points per side cannot reject at 0.05
    assert not ks_two_sample(a, b, alpha=0.05).rejected


def test_ks_is_symmetric():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=30), rng.normal(0.5, 1.2, size=20)
    fwd, rev = ks_two_sample(a, b), ks_two_sample(b, a)
    assert fwd.statistic == rev.statistic
    assert fwd.p_value == rev.p_value


def test_ks_statistic_and_pvalue_ranges():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(1, 40)))
        b = rng.normal(rng.normal(), 1.0, size=int(rng.integers(1, 40)))
        decision = ks_two_sample(a, b)
        assert 0.0 <= decision.statistic <= 1.0
        assert 0.0 <= decision.p_value <= 1.0


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_non_finite_sample_rejected(bad):
    for a, b in (([bad, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, bad, 2.0])):
        with pytest.raises(ValueError, match="finite"):
            ks_two_sample(a, b)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -0.05, np.nan])
def test_ks_refuses_a_level_outside_the_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
        ks_two_sample([0.1, 0.2], [0.3, 0.4], alpha=alpha)


def test_scope_of_a_non_finite_query_fails_loudly():
    train = np.random.default_rng(8).random((20, 2))
    test = train[:5].copy()
    test[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        choose_normalization_scope(train, test)


@pytest.mark.parametrize("shift", [0.0, 5.0])
@pytest.mark.parametrize("side", ["train", "test"])
def test_scope_refuses_a_non_finite_value_behind_a_rejecting_feature(shift, side):
    # Feature 0 shifted by 5 makes its KS test reject; the NaN in feature 1
    # must be refused all the same, whichever feature the loop stops at.
    rng = np.random.default_rng(9)
    matrices = {"train": rng.random((50, 2)), "test": rng.random((50, 2))}
    matrices["test"][:, 0] += shift
    matrices[side][3, 1] = np.nan
    with pytest.raises(DataFormatError, match=f"{side} items have non-finite feature values"):
        choose_normalization_scope(matrices["train"], matrices["test"])


@pytest.mark.parametrize("sizes", [(10, 10), (37, 53), (100, 25)])
def test_ks_matches_scipy_statistic_and_asymptotic_formula(sizes):
    rng = np.random.default_rng(sum(sizes))
    a = rng.normal(size=sizes[0])
    b = rng.normal(0.4, 1.3, size=sizes[1])
    ours = ks_two_sample(a, b)
    reference = sp_stats.ks_2samp(a, b, method="asymp")
    assert ours.statistic == pytest.approx(reference.statistic, abs=1e-15)
    effective = np.sqrt(sizes[0] * sizes[1] / sum(sizes))
    assert ours.p_value == pytest.approx(float(sp_special.kolmogorov(effective * ours.statistic)), abs=1e-12)


def test_kolmogorov_sf_matches_scipy():
    for t in [0.0, 0.05, 0.3, 0.5, 0.8, 0.99, 1.0, 1.2, 1.36, 2.0, 3.5]:
        assert _kolmogorov_sf(t) == pytest.approx(float(sp_special.kolmogorov(t)), abs=1e-12)


# ---------------------------------------------------------------------------
# Scope gate

def test_scope_identical_data_pools_train():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(60, 3))
    assert choose_normalization_scope(data, data) is NormalizationScope.TRAIN_PLUS_TEST


def test_scope_large_shift_normalizes_test_alone():
    rng = np.random.default_rng(6)
    train = rng.normal(size=(100, 3))
    test = rng.normal(size=(100, 3))
    test[:, 1] += 10.0 * train[:, 1].std(ddof=1)
    assert choose_normalization_scope(train, test) is NormalizationScope.TEST_ONLY


def test_scope_single_feature_reduces_to_plain_alpha():
    rng = np.random.default_rng(7)
    train = rng.normal(size=(80, 1))
    test = rng.normal(0.35, 1.0, size=(80, 1))
    gate = choose_normalization_scope(train, test)
    single = ks_two_sample(train[:, 0], test[:, 0], alpha=0.05)
    expected = NormalizationScope.TEST_ONLY if single.rejected else NormalizationScope.TRAIN_PLUS_TEST
    assert gate is expected


def test_scope_schema_mismatch():
    with pytest.raises(DataFormatError, match="mismatch"):
        choose_normalization_scope(np.zeros((5, 2)), np.zeros((5, 3)))


def test_scope_needs_a_feature():
    with pytest.raises(DataFormatError, match="no features"):
        choose_normalization_scope(np.zeros((5, 0)), np.zeros((3, 0)))


# Expected outputs of train [[0], [4]] and tests [[8]] / [[8], [10]] per mode.
# Pooled z-score: mean 4, sample std 4; alone: train mean 2, std 2*sqrt(2),
# test mean 9, std sqrt(2).
_POOLED = {MINMAX: ([0.0, 0.5], [1.0]), ZSCORE: ([-1.0, 0.0], [1.0])}
_SEPARATE = {MINMAX: ([0.0, 1.0], [0.0, 1.0]),
             ZSCORE: ([-1 / np.sqrt(2), 1 / np.sqrt(2)], [-1 / np.sqrt(2), 1 / np.sqrt(2)])}


@pytest.mark.parametrize("mode", [MINMAX, ZSCORE], ids=["minmax", "zscore"])
def test_normalize_train_test_pooled_scope(mode):
    train = np.array([[0.0], [4.0]])
    test = np.array([[8.0]])
    train_n, test_n = normalize_train_test(train, test, mode, NormalizationScope.TRAIN_PLUS_TEST)
    assert np.allclose(train_n.ravel(), _POOLED[mode][0])
    assert np.allclose(test_n.ravel(), _POOLED[mode][1])


@pytest.mark.parametrize("mode", [MINMAX, ZSCORE], ids=["minmax", "zscore"])
def test_normalize_train_test_separate_scope(mode):
    train = np.array([[0.0], [4.0]])
    test = np.array([[8.0], [10.0]])
    train_n, test_n = normalize_train_test(train, test, mode, NormalizationScope.TEST_ONLY)
    assert np.allclose(train_n.ravel(), _SEPARATE[mode][0])
    assert np.allclose(test_n.ravel(), _SEPARATE[mode][1])
