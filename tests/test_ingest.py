import datetime as dt

import numpy as np
import pytest

from poolpart import (
    Batch,
    PoolRecord,
    ValidationError,
    filter_pools,
    impute_batches,
    parse_pools,
    read_batches,
    write_batches,
    write_pools,
)

T0 = dt.datetime(2020, 4, 5, 10, 0, 0)


def rec(pid, minutes, statuses, ts=True):
    return PoolRecord(
        pool_id=pid,
        run_timestamp=T0 + dt.timedelta(minutes=minutes) if ts else None,
        pool_size=len(statuses),
        statuses=statuses,
    )


GOLDEN = """pool_id,run_timestamp,pool_size,statuses
a1,2020-04-05T10:00:00,8,NNPNNNNN
a2,2020-04-05T10:07:00,8,NNNNNNNN
b7,,8,NNNNNNNN
c3,2020-04-05T11:00:00,5,NNNNN
d9,2020-04-05T12:00:00,8,NNINNNNN
"""


class TestParsePools:
    def test_golden_fixture_parses_field_exact(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text(GOLDEN)
        records = parse_pools(path)
        assert len(records) == 5
        assert records[0] == PoolRecord("a1", T0, 8, "NNPNNNNN")
        assert records[2].run_timestamp is None
        assert records[3].pool_size == 5
        assert records[4].has_inconclusive

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text("pool_id,run_timestamp,pool_size,statuses\n")
        assert parse_pools(path) == []

    def test_inconclusive_token_is_not_an_error(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text("pool_id,run_timestamp,pool_size,statuses\nx,2020-01-01T00:00:00,2,IN\n")
        assert parse_pools(path)[0].statuses == "IN"

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text("pool_id,pool_size,statuses\nx,2,NN\n")
        with pytest.raises(ValidationError, match="run_timestamp"):
            parse_pools(path)

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text(
            "pool_id,run_timestamp,pool_size,statuses\n"
            "ok,2020-01-01T00:00:00,2,NN\n"
            "bad,2020-01-01T00:00:00,2,NX\n"
            "short,2020-01-01T00:00:00,3,NN\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_pools(path)
        msg = str(err.value)
        assert "line 3" in msg and "line 4" in msg

    def test_every_row_error_has_one_line_prefix(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text(
            "pool_id,run_timestamp,pool_size,statuses\n"
            "t,yesterday,2,NN\n"
            "s,2020-01-01T00:00:00,two,NN\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_pools(path)
        lines = str(err.value).split("\n  ")
        assert lines[0] == f"{path}: 2 malformed row(s):"
        assert lines[1].startswith("line 2: bad timestamp 'yesterday': ")
        assert lines[2] == "line 3: bad pool_size 'two'"

    def test_short_row_is_a_row_error(self, tmp_path):
        # a row missing pool_size once raised TypeError from int(None)
        path = tmp_path / "pools.csv"
        path.write_text("pool_id,run_timestamp,pool_size,statuses\na,2020-01-01T00:00:00\n")
        with pytest.raises(ValidationError) as err:
            parse_pools(path)
        assert str(err.value) == f"{path}: 1 malformed row(s):\n  line 2: bad pool_size ''"

    @pytest.mark.parametrize(
        "size", ["0_4", "\u0664"], ids=["digit-group-underscore", "arabic-indic-four"]
    )
    def test_pool_size_is_ascii_digits(self, tmp_path, size):
        # int() reads both as 4
        path = tmp_path / "pools.csv"
        path.write_text(
            f"pool_id,run_timestamp,pool_size,statuses\na,2020-01-01T00:00:00,{size},NNNN\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as err:
            parse_pools(path)
        assert str(err.value) == f"{path}: 1 malformed row(s):\n  line 2: bad pool_size {size!r}"

    def test_pool_size_may_be_padded(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text(
            "pool_id,run_timestamp,pool_size,statuses\na,2020-01-01T00:00:00, 4 ,NNNN\n"
        )
        assert parse_pools(path)[0].pool_size == 4

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_pools(tmp_path / "absent.csv")

    def test_roundtrip_through_writer(self, tmp_path):
        records = [rec("p1", 0, "NNPN"), rec("p2", 5, "NNNN"), rec("p3", 9, "NINN")]
        path = tmp_path / "pools.csv"
        write_pools(path, records)
        assert parse_pools(path) == records


class TestFilterPools:
    def test_rules_and_counts(self):
        records = [
            rec("keep1", 0, "NNNN"),
            rec("no-ts", 1, "NNNN", ts=False),
            rec("five", 2, "NNNNN"),
            rec("inc", 3, "NINN"),
            rec("keep2", 4, "PPPP"),
        ]
        kept, dropped = filter_pools(records)
        assert [r.pool_id for r in kept] == ["keep1", "keep2"]
        assert dropped["no_timestamp"] == 1
        assert dropped["excluded_size"] == 1
        assert dropped["inconclusive"] == 1
        assert dropped["dropped_specimens"] == 4 + 5 + 4

    def test_first_matching_rule_wins(self):
        # a size-5 pool without timestamp counts under the timestamp rule
        _, dropped = filter_pools([rec("x", 0, "NNNNN", ts=False)])
        assert dropped["no_timestamp"] == 1
        assert dropped["excluded_size"] == 0

    def test_clean_input_is_identity(self):
        records = [rec("a", 0, "NN"), rec("b", 1, "NP")]
        kept, dropped = filter_pools(records)
        assert kept == records
        assert dropped["dropped_specimens"] == 0

    def test_custom_excluded_sizes(self):
        records = [rec("a", 0, "NN"), rec("b", 1, "NNN")]
        kept, dropped = filter_pools(records, excluded_sizes={2, 3})
        assert kept == []
        assert dropped["excluded_size"] == 2


class TestImputeBatches:
    def test_sorts_by_timestamp_before_slicing(self):
        # shuffled input; batch boundaries must follow time order
        records = [rec("late", 20, "PPPP"), rec("early", 0, "NNNN"), rec("mid", 10, "NPNN")]
        batches, remainder = impute_batches(records, 4)
        assert remainder == 0
        assert [b.source_pools for b in batches] == [("early",), ("mid",), ("late",)]
        assert list(batches[0].statuses) == [0, 0, 0, 0]
        assert list(batches[1].statuses) == [0, 1, 0, 0]
        assert list(batches[2].statuses) == [1, 1, 1, 1]

    def test_pools_can_span_batches(self):
        records = [rec("a", 0, "NNN"), rec("b", 1, "PPP")]
        batches, remainder = impute_batches(records, 4)
        assert len(batches) == 1 and remainder == 2
        assert batches[0].source_pools == ("a", "b")
        assert list(batches[0].statuses) == [0, 0, 0, 1]

    def test_exact_fit_leaves_no_remainder(self):
        batches, remainder = impute_batches([rec("a", 0, "NNNN")], 4)
        assert len(batches) == 1 and remainder == 0

    def test_remainder_is_discarded_and_reported(self):
        records = [rec(f"p{i}", i, "NNNNNNNN") for i in range(5)]  # 40 specimens
        batches, remainder = impute_batches(records, 16)
        assert len(batches) == 2
        assert remainder == 8

    def test_conservation(self):
        records = [rec(f"p{i}", i, "NNPNNNNN") for i in range(11)]
        records += [rec("no-ts", 50, "NNNN", ts=False), rec("five", 51, "NNNNN")]
        kept, dropped = filter_pools(records)
        batches, remainder = impute_batches(kept, 16)
        specimens_in = sum(r.pool_size for r in records)
        specimens_out = sum(b.size for b in batches)
        assert specimens_out == specimens_in - dropped["dropped_specimens"] - remainder

    def test_timestamp_ties_keep_input_order(self):
        records = [rec("first", 0, "NN"), rec("second", 0, "PP")]
        batches, _ = impute_batches(records, 2)
        assert [b.source_pools[0] for b in batches] == ["first", "second"]

    def test_batch_size_is_an_integer(self):
        with pytest.raises(ValidationError, match="batch_size must be an integer >= 1, got 2.5"):
            impute_batches([rec("a", 0, "NNNN")], 2.5)
        batches, _ = impute_batches([rec("a", 0, "NNNN")], np.int64(2))
        assert len(batches) == 2

    def test_unfiltered_input_rejected(self):
        with pytest.raises(ValidationError, match="timestamp"):
            impute_batches([rec("x", 0, "NN", ts=False)], 2)

    def test_order_across_batches(self):
        rng = np.random.default_rng(601)
        records = [rec(f"p{i}", int(rng.integers(0, 500)), "NNNN") for i in range(30)]
        batches, _ = impute_batches(records, 8)
        # reconstruct each batch's latest source timestamp; must be monotone
        stamp = {r.pool_id: r.run_timestamp for r in records}
        latest = [max(stamp[p] for p in b.source_pools) for b in batches]
        earliest = [min(stamp[p] for p in b.source_pools) for b in batches]
        for i in range(len(batches) - 1):
            assert latest[i] <= earliest[i + 1] or latest[i] <= latest[i + 1]


    def test_inconclusive_input_rejected(self):
        # an I token was once read as a negative
        with pytest.raises(ValidationError) as err:
            impute_batches([rec("a", 0, "NINP")], 4)
        assert str(err.value) == "pool 'a' has an inconclusive status; filter before imputing"

    @pytest.mark.parametrize(
        "pools, batch_size",
        [
            ([("a", 2, 3), ("b", 0, 5), ("c", 1, 3)], 4),  # pools straddle batch boundaries
            ([("a", 0, 2), ("long", 1, 11), ("b", 2, 3)], 4),  # one pool longer than two batches
            ([("a", 0, 2), ("a", 1, 3), ("b", 2, 2), ("a", 3, 1)], 2),  # adjacent pools share an id
            ([("a", 0, 3), ("b", 0, 1), ("c", 0, 2)], 1),  # batch size 1, timestamp ties
            ([], 3),  # no records
            ([("a", 0, 7), ("b", 1, 6)], 5),  # a remainder of 3
        ],
        ids=["straddle", "long-pool", "shared-id", "batch-size-1", "empty", "remainder"],
    )
    def test_matches_per_specimen_reference(self, pools, batch_size):
        rng = np.random.default_rng(22)
        records = [
            rec(pid, minutes, "".join(rng.choice(["N", "P"], size)))
            for pid, minutes, size in pools
        ]
        # the per-specimen slicing impute_batches replaced, kept as its reference
        statuses, owners = [], []
        for r in sorted(records, key=lambda r: r.run_timestamp):
            statuses.extend(1 if ch == "P" else 0 for ch in r.statuses)
            owners.extend([r.pool_id] * r.pool_size)
        full = len(statuses) // batch_size
        spans = [slice(b * batch_size, (b + 1) * batch_size) for b in range(full)]
        want = [(b, statuses[s], tuple(dict.fromkeys(owners[s]))) for b, s in enumerate(spans)]

        batches, remainder = impute_batches(records, batch_size)
        assert remainder == len(statuses) - full * batch_size
        assert [(b.index, b.statuses.tolist(), b.source_pools) for b in batches] == want
        assert all(b.statuses.dtype == np.uint8 for b in batches)


class TestBatchCsv:
    def test_roundtrip(self, tmp_path):
        batches = [
            Batch(0, np.array([0, 1, 0, 0], dtype=np.uint8), ("a",)),
            Batch(1, np.array([1, 1, 0, 1], dtype=np.uint8), ("b", "c")),
        ]
        path = tmp_path / "batches.csv"
        write_batches(path, batches)
        again = read_batches(path)
        assert len(again) == 2
        for orig, back in zip(batches, again):
            assert back.index == orig.index
            assert np.array_equal(back.statuses, orig.statuses)

    def test_stability_byte_for_byte(self, tmp_path):
        records = [rec(f"p{i}", (7 * i) % 23, "NNPNNNN") for i in range(12)]
        pools = tmp_path / "pools.csv"
        write_pools(pools, records)
        outs = []
        for name in ("one.csv", "two.csv"):
            kept, _ = filter_pools(parse_pools(pools))
            batches, _ = impute_batches(kept, 12)
            write_batches(tmp_path / name, batches)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_bad_tokens_rejected(self, tmp_path):
        path = tmp_path / "batches.csv"
        path.write_text("batch_index,statuses\n0,NPI\n")
        with pytest.raises(ValidationError):
            read_batches(path)

    def test_short_row_has_empty_statuses(self, tmp_path):
        path = tmp_path / "batches.csv"
        path.write_text("batch_index,statuses\n0,NP\n1\n")
        with pytest.raises(ValidationError) as err:
            read_batches(path)
        assert str(err.value) == f"{path}: line 3: empty statuses"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "batches.csv"
        path.write_text("statuses\nNP\n")
        with pytest.raises(ValidationError, match="batch_index"):
            read_batches(path)

    def test_repeated_extra_column_is_ignored(self, tmp_path):
        path = tmp_path / "batches.csv"
        path.write_text("note,batch_index,statuses,note\na,0,NNPN,b\n")
        assert read_batches(path)[0].statuses.tolist() == [0, 0, 1, 0]

    def test_batch_index_is_ascii_digits(self, tmp_path):
        # int() reads "0_0" as 0
        path = tmp_path / "batches.csv"
        path.write_text("batch_index,statuses\n0_0,NP\n")
        with pytest.raises(ValidationError) as err:
            read_batches(path)
        assert str(err.value) == f"{path}: line 2: bad batch_index '0_0'"

    def test_batch_index_may_be_padded(self, tmp_path):
        path = tmp_path / "batches.csv"
        path.write_text("batch_index,statuses\n 4,NP\n")
        assert read_batches(path)[0].index == 4


class TestRecordValidation:
    def test_size_status_mismatch(self):
        with pytest.raises(ValidationError):
            PoolRecord("x", T0, 3, "NN")

    @pytest.mark.parametrize("size, statuses", [(2.0, "NN"), (True, "N")])
    def test_size_must_be_an_integer(self, size, statuses):
        # a float size would pass the length check, then fail in impute_batches
        with pytest.raises(ValidationError, match="pool_size must be an integer"):
            PoolRecord("a", T0, size, statuses)

    def test_size_below_one_keeps_its_message(self):
        with pytest.raises(ValidationError, match=r"pool_size must be >= 1, got 0"):
            PoolRecord("a", T0, 0, "")

    def test_unknown_token(self):
        with pytest.raises(ValidationError, match="unknown status"):
            PoolRecord("x", T0, 2, "NZ")

    @pytest.mark.parametrize(
        "statuses", [["N", "P"], ("N", "P"), b"NP"], ids=["list", "tuple", "bytes"]
    )
    def test_statuses_must_be_a_string(self, statuses):
        # write_pools would write a list as "['N', 'P']", which parse_pools rejects
        with pytest.raises(ValidationError, match="'b': statuses must be a string"):
            PoolRecord("b", None, 2, statuses)

    @pytest.mark.parametrize(
        "stamp", ["2020-04-05T10:00:00", T0.date(), 0], ids=["str", "date", "int"]
    )
    def test_timestamp_must_be_a_datetime_or_none(self, stamp):
        # a string would pass filter_pools, then fail in impute_batches and write_pools
        with pytest.raises(ValidationError, match="run_timestamp must be a datetime or None"):
            PoolRecord("b", stamp, 2, "NP")
        assert PoolRecord("b", None, 2, "NP").run_timestamp is None

    @pytest.mark.parametrize(
        "index", ["x", -3, True, 1.5], ids=["str", "negative", "bool", "float"]
    )
    def test_batch_index_is_a_nonnegative_integer(self, index):
        with pytest.raises(ValidationError, match="batch index must be an integer >= 0"):
            Batch(index, [0, 1])

    def test_source_pools_is_not_a_string(self):
        # tuple("pool-17") would name seven one-character pools
        with pytest.raises(ValidationError, match="source_pools must be a sequence of pool ids"):
            Batch(0, [0, 1], source_pools="pool-17")
        assert Batch(0, [0, 1], source_pools=("pool-17",)).source_pools == ("pool-17",)

    def test_batch_must_be_binary(self):
        with pytest.raises(ValidationError):
            Batch(0, np.array([0, 1, 2]))
