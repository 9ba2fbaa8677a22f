"""Result consolidation, CSV round-trips, and SVG chart rendering."""

from __future__ import annotations

import io
import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainsig.errors import DuplicateRow, EmptySelection, IoFailure
from chainsig.report import (
    CSV_HEADER,
    LEVEL_GROUPS,
    _attr,
    _escape,
    Operation,
    ReportDataset,
    ReportRow,
    Stage,
    parse_csv,
    render_bar_chart,
    write_csv,
)
from chainsig.sim import ChainModel

DATA_DIR = Path(__file__).parent / "data"


def bench_row(
    variant="P-256",
    family="ECDSA",
    level=1,
    operation=Operation.VERIFY,
    mean=0.0788,
    std=0.0029,
    n=10000,
    machine="arm-laptop",
):
    return ReportRow(
        machine=machine,
        family=family,
        variant=variant,
        level=level,
        stage=Stage.BENCHMARK,
        model=None,
        operation=operation,
        mean_ms=mean,
        std_ms=std,
        n=n,
    )


def sim_row(
    variant="P-256",
    family="ECDSA",
    level=1,
    model=ChainModel.BITCOIN,
    mean=136.2845,
    std=2.3648,
    n=1000,
    machine="arm-laptop",
):
    return ReportRow(
        machine=machine,
        family=family,
        variant=variant,
        level=level,
        stage=Stage.SIMULATION,
        model=model,
        operation=Operation.VERIFY,
        mean_ms=mean,
        std_ms=std,
        n=n,
    )


class TestLevelGroup:
    # the paper's grouping, in chart order; chart file names and titles are built
    # from these parts
    def test_mapping(self):
        assert [(levels, slug) for levels, slug, _ in LEVEL_GROUPS] == [
            ((1, 2), "lower"),
            ((3,), "level3"),
            ((5,), "level5"),
        ]

    def test_labels_verbatim(self):
        assert [title for _, _, title in LEVEL_GROUPS] == [
            "Lower Level (1 or 2)",
            "Level 3",
            "Level 5",
        ]


class TestReportRowValidation:
    def test_simulation_requires_model(self):
        with pytest.raises(ValueError, match="carry a model"):
            sim_row(model=None)

    def test_simulation_verify_only(self):
        with pytest.raises(ValueError, match="verify only"):
            ReportRow(
                machine="m",
                family="ECDSA",
                variant="P-256",
                level=1,
                stage=Stage.SIMULATION,
                model=ChainModel.BITCOIN,
                operation=Operation.SIGN,
                mean_ms=1.0,
                std_ms=0.0,
                n=1,
            )

    def test_benchmark_must_not_carry_model(self):
        with pytest.raises(ValueError, match="must not carry"):
            ReportRow(
                machine="m",
                family="ECDSA",
                variant="P-256",
                level=1,
                stage=Stage.BENCHMARK,
                model=ChainModel.BITCOIN,
                operation=Operation.SIGN,
                mean_ms=1.0,
                std_ms=0.0,
                n=1,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean": -0.1},
            {"mean": float("nan")},
            {"mean": float("inf")},
            {"std": -1.0},
            {"n": 0},
            {"level": 4},
            {"level": 9},
        ],
    )
    def test_bad_numbers_rejected(self, kwargs):
        with pytest.raises(ValueError):
            bench_row(**kwargs)


class TestDataset:
    def test_refusals_print_the_record_as_write_csv_would(self):
        text = f'{CSV_HEADER}\nh,"EC\nDSA",P-256,1,Benchmark,,verify\n'
        with pytest.raises(IoFailure) as caught:
            parse_csv(io.StringIO(text))
        assert str(caught.value) == (
            'line 2: expected 10 fields, got 7: h,"EC\\nDSA",P-256,1,Benchmark,,verify'
        )

    def test_duplicate_rows_rejected(self):
        row = bench_row()
        with pytest.raises(DuplicateRow):
            ReportDataset((row, row))

    def test_same_cell_different_machine_allowed(self):
        dataset = ReportDataset(
            (bench_row(machine="a"), bench_row(machine="b"))
        )
        assert len(dataset.rows) == 2


class TestWriteCsv:
    def test_empty_dataset_is_header_only(self):
        buffer = io.StringIO()
        count = write_csv(ReportDataset(()), buffer)
        assert buffer.getvalue() == CSV_HEADER + "\n"
        assert count == len(buffer.getvalue().encode())

    def test_known_row_formatting(self):
        buffer = io.StringIO()
        write_csv(ReportDataset((bench_row(),)), buffer)
        assert (
            "arm-laptop,ECDSA,P-256,1,Benchmark,,verify,0.0788,0.0029,10000"
            in buffer.getvalue().splitlines()
        )

    def test_simulation_row_formatting(self):
        buffer = io.StringIO()
        write_csv(ReportDataset((sim_row(),)), buffer)
        assert (
            "arm-laptop,ECDSA,P-256,1,Simulation,Bitcoin,verify,136.2845,2.3648,1000"
            in buffer.getvalue().splitlines()
        )

    def test_comments_precede_header(self):
        buffer = io.StringIO()
        write_csv(ReportDataset(()), buffer, comments=("alpha", "beta=1"))
        assert buffer.getvalue().splitlines() == [
            "# alpha",
            "# beta=1",
            CSV_HEADER,
        ]

    def test_rows_sorted_regardless_of_input_order(self):
        rows = (
            sim_row(),
            bench_row(variant="ML-DSA-87", family="ML-DSA", level=5, mean=0.1402),
            bench_row(),
        )
        buffer = io.StringIO()
        write_csv(ReportDataset(rows), buffer)
        lines = buffer.getvalue().splitlines()[1:]
        assert lines[0].startswith("arm-laptop,ECDSA,P-256,1,Benchmark")
        assert lines[1].startswith("arm-laptop,ML-DSA,ML-DSA-87,5,Benchmark")
        assert lines[2].startswith("arm-laptop,ECDSA,P-256,1,Simulation")

    def test_write_twice_identical(self):
        dataset = ReportDataset((bench_row(), sim_row()))
        first, second = io.StringIO(), io.StringIO()
        write_csv(dataset, first, comments=("same",))
        write_csv(dataset, second, comments=("same",))
        assert first.getvalue() == second.getvalue()

    def test_path_destination_and_byte_count(self, tmp_path):
        target = tmp_path / "out.csv"
        count = write_csv(ReportDataset((bench_row(),)), target)
        assert target.stat().st_size == count

    def test_golden_bytes(self, tmp_path):
        dataset = ReportDataset(
            (
                bench_row(operation=Operation.KEYPAIR, mean=0.0312, std=0.0041),
                bench_row(operation=Operation.SIGN, mean=0.0441, std=0.0019),
                bench_row(operation=Operation.VERIFY, mean=0.0788, std=0.0029),
                bench_row(
                    variant="ML-DSA-87",
                    family="ML-DSA",
                    level=5,
                    operation=Operation.KEYPAIR,
                    mean=0.0929,
                    std=0.0047,
                ),
                bench_row(
                    variant="ML-DSA-87",
                    family="ML-DSA",
                    level=5,
                    operation=Operation.SIGN,
                    mean=0.2517,
                    std=0.0136,
                ),
                bench_row(
                    variant="ML-DSA-87",
                    family="ML-DSA",
                    level=5,
                    operation=Operation.VERIFY,
                    mean=0.1402,
                    std=0.0063,
                ),
                sim_row(),
                sim_row(
                    variant="ML-DSA-87",
                    family="ML-DSA",
                    level=5,
                    mean=242.3809,
                    std=4.1224,
                ),
            )
        )
        target = tmp_path / "golden_report.csv"
        write_csv(
            dataset,
            target,
            comments=("regression fixture: fixed dataset, fixed bytes",),
        )
        golden = (DATA_DIR / "golden_report.csv").read_bytes()
        assert target.read_bytes() == golden


class TestParseCsv:
    def test_round_trip_simple(self):
        dataset = ReportDataset((bench_row(), sim_row()))
        buffer = io.StringIO()
        write_csv(dataset, buffer, comments=("ignored",))
        parsed = parse_csv(io.StringIO(buffer.getvalue()))
        assert set(parsed.rows) == set(dataset.rows)

    def test_round_trip_from_file(self, tmp_path):
        dataset = ReportDataset((bench_row(),))
        target = tmp_path / "roundtrip.csv"
        write_csv(dataset, target)
        assert parse_csv(target).rows == dataset.rows

    def test_byte_order_mark_dropped_from_any_source(self, tmp_path):
        # spreadsheet tools save a CSV with a UTF-8 byte-order mark ahead of line 1
        plain = parse_csv(DATA_DIR / "golden_report.csv").rows
        assert plain
        text = (DATA_DIR / "golden_report.csv").read_text(encoding="utf-8")
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert parse_csv(io.StringIO("\ufeff" + text)).rows == plain
        with open(marked, encoding="utf-8") as handle:
            assert parse_csv(handle).rows == plain
        assert parse_csv(marked).rows == plain

    def test_awkward_machine_strings_round_trip(self):
        rows = (
            bench_row(machine='has,comma and "quotes"'),
            bench_row(machine="line\nbreak", variant="P-384", family="ECDSA", level=3),
            bench_row(machine="# leading hash", variant="P-521", level=5),
        )
        buffer = io.StringIO()
        write_csv(ReportDataset(rows), buffer)
        parsed = parse_csv(io.StringIO(buffer.getvalue()))
        assert set(parsed.rows) == set(rows)

    def test_missing_header_rejected(self):
        with pytest.raises(IoFailure, match="header"):
            parse_csv(io.StringIO("nope\n"))

    def test_comment_only_rejected(self):
        with pytest.raises(IoFailure, match="header"):
            parse_csv(io.StringIO("# a\n# b\n"))

    def test_wrong_field_count_rejected(self):
        text = CSV_HEADER + "\na,b,c\n"
        with pytest.raises(IoFailure, match="10 fields"):
            parse_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "row",
        [
            "m,ECDSA,P-256,1,Nonsense,,verify,1.0,0.0,5",
            "m,ECDSA,P-256,1,Simulation,Mars,verify,1.0,0.0,5",
            "m,ECDSA,P-256,x,Benchmark,,verify,1.0,0.0,5",
            "m,ECDSA,P-256,1,Benchmark,,verify,feet,0.0,5",
            "m,ECDSA,P-256,1,Benchmark,,verify,-2.0,0.0,5",
            "m,ECDSA,P-256,1,Benchmark,,warp,1.0,0.0,5",
        ],
    )
    def test_malformed_rows_rejected(self, row):
        with pytest.raises(IoFailure, match="malformed row"):
            parse_csv(io.StringIO(CSV_HEADER + "\n" + row + "\n"))

    def test_errors_name_the_line_a_record_starts_on(self):
        # the first record spans lines 2 and 3 through a quoted newline,
        # and line 4 is blank
        text = (
            f'{CSV_HEADER}\n"two\nlines",ECDSA,P-256,1,Benchmark,,verify,1.0,0.0,5\n'
            "\nm,ECDSA,P-256,1,Benchmark,,warp,1.0,0.0,5\n"
        )
        with pytest.raises(IoFailure, match="^line 5: malformed row "):
            parse_csv(io.StringIO(text))

    def test_duplicate_rows_rejected(self):
        line = "m,ECDSA,P-256,1,Benchmark,,verify,1.0,0.0,5"
        text = CSV_HEADER + "\n" + line + "\n" + line + "\n"
        with pytest.raises(DuplicateRow):
            parse_csv(io.StringIO(text))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot read"):
            parse_csv(tmp_path / "absent.csv")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\xff\xfe# bad\n")
        with pytest.raises(IoFailure) as caught:
            parse_csv(path)
        message = str(caught.value)
        assert message.startswith(f"cannot read {path}: 'utf-8' codec can't decode")
        assert "\n" not in message

    def test_nul_in_machine_rejected(self):
        with pytest.raises(ValueError, match="NUL"):
            bench_row(machine="cpu\x00model")

    def test_carriage_return_in_machine_rejected(self):
        # the writer only quotes characters of its LF line terminator,
        # so a bare CR would be written unquoted and break parsing
        with pytest.raises(ValueError, match="carriage-return"):
            bench_row(machine="cpu\rmodel")

    @given(
        st.lists(
            st.tuples(
                st.text(max_size=12).filter(
                    lambda s: "\x00" not in s and "\r" not in s
                ),
                st.sampled_from([1, 2, 3, 5]),
                st.sampled_from(list(Operation)),
                st.integers(0, 10**8),
                st.integers(0, 10**6),
                st.integers(1, 10**6),
            ),
            min_size=0,
            max_size=12,
        )
    )
    def test_round_trip_property(self, seeds):
        rows = tuple(
            ReportRow(
                machine=machine,
                family="ECDSA",
                variant=f"V-{index}",
                level=level,
                stage=Stage.BENCHMARK,
                model=None,
                operation=operation,
                mean_ms=mean_scaled / 10000,
                std_ms=std_scaled / 10000,
                n=n,
            )
            for index, (
                machine,
                level,
                operation,
                mean_scaled,
                std_scaled,
                n,
            ) in enumerate(seeds)
        )
        buffer = io.StringIO()
        write_csv(ReportDataset(rows), buffer, comments=("prop",))
        parsed = parse_csv(io.StringIO(buffer.getvalue()))
        assert set(parsed.rows) == set(rows)
        assert len(parsed.rows) == len(rows)


def chart_rows():
    return ReportDataset(
        (
            bench_row(
                variant="P-256",
                operation=Operation.KEYPAIR,
                mean=0.0312,
                std=0.0041,
            ),
            bench_row(
                variant="P-256", operation=Operation.SIGN, mean=0.0441, std=0.0019
            ),
            bench_row(
                variant="P-256", operation=Operation.VERIFY, mean=0.0788, std=0.0029
            ),
            bench_row(
                variant="Falcon-512",
                family="Falcon",
                operation=Operation.KEYPAIR,
                mean=6.2170,
                std=0.9104,
            ),
            bench_row(
                variant="Falcon-512",
                family="Falcon",
                operation=Operation.SIGN,
                mean=0.1881,
                std=0.0110,
            ),
            bench_row(
                variant="Falcon-512",
                family="Falcon",
                operation=Operation.VERIFY,
                mean=0.0310,
                std=0.0022,
            ),
        )
    )


ALL_OPS = (Operation.KEYPAIR, Operation.SIGN, Operation.VERIFY)


def tick_labels(dataset):
    """The value-axis labels of dataset's chart, bottom to top."""
    buffer = io.StringIO()
    render_bar_chart(dataset, "t", buffer)
    return re.findall(
        r'<text x="74" y="[\d.]+" font-size="11" text-anchor="end">([^<]*)</text>',
        buffer.getvalue(),
    )


def legend(svg):
    """The legend's labels, top to bottom."""
    return re.findall(r'<text x="804" y="\d+" font-size="11">([^<]*)</text>', svg)


def only(operation):
    """chart_rows' rows of one operation."""
    return ReportDataset(tuple(row for row in chart_rows().rows if row.operation is operation))


class TestRenderBarChart:
    def test_valid_svg_with_variant_labels(self, tmp_path):
        target = tmp_path / "chart.svg"
        count = render_bar_chart(chart_rows(), "ops", target)
        text = target.read_text(encoding="utf-8")
        assert text.startswith("<svg ")
        assert text.endswith("</svg>\n")
        assert target.stat().st_size == count
        assert ">P-256</text>" in text
        assert ">Falcon-512</text>" in text
        assert "ops</text>" in text

    def test_bar_count_and_metadata(self):
        buffer = io.StringIO()
        render_bar_chart(chart_rows(), "t", buffer)
        bars = re.findall(r'<rect[^>]*data-variant="([^"]+)" data-op="([^"]+)"', buffer.getvalue())
        assert sorted(bars) == sorted(
            [(v, op.value) for v in ("P-256", "Falcon-512") for op in ALL_OPS]
        )

    def test_taller_bar_for_larger_mean(self):
        buffer = io.StringIO()
        render_bar_chart(only(Operation.KEYPAIR), "t", buffer)
        heights = {
            match.group(2): float(match.group(1))
            for match in re.finditer(
                r'height="([\d.]+)" fill="[^"]*" data-variant="([^"]+)"'
                r' data-op="keypair"',
                buffer.getvalue(),
            )
        }
        assert heights["Falcon-512"] > heights["P-256"]

    def test_deterministic_bytes(self):
        first, second = io.StringIO(), io.StringIO()
        render_bar_chart(chart_rows(), "t", first)
        render_bar_chart(chart_rows(), "t", second)
        assert first.getvalue() == second.getvalue()

    def test_data_mean_is_the_csv_text(self):
        chart, table = io.StringIO(), io.StringIO()
        render_bar_chart(chart_rows(), "t", chart)
        write_csv(chart_rows(), table)
        csv_means = {
            (fields[2], fields[6]): fields[7]
            for fields in (line.split(",") for line in table.getvalue().splitlines()[1:])
        }
        bars = re.findall(
            r'data-variant="([^"]+)" data-op="([^"]+)" data-mean="([^"]+)"',
            chart.getvalue(),
        )
        assert len(bars) == len(csv_means)
        for variant, op, mean in bars:
            assert mean == csv_means[(variant, op)]

    def test_one_ulp_leaves_the_bytes(self):
        nudged = ReportDataset(
            tuple(
                row._replace(mean_ms=math.nextafter(row.mean_ms, math.inf))
                for row in chart_rows().rows
            )
        )
        first, second = io.StringIO(), io.StringIO()
        render_bar_chart(chart_rows(), "t", first)
        render_bar_chart(nudged, "t", second)
        assert first.getvalue() == second.getvalue()

    def test_series_are_the_operations_the_rows_hold(self):
        buffer = io.StringIO()
        render_bar_chart(only(Operation.SIGN), "t", buffer)
        assert legend(buffer.getvalue()) == ["sign"]
        assert set(re.findall(r'data-op="([^"]+)"', buffer.getvalue())) == {"sign"}
        # in Operation order, whatever the order of the rows
        buffer = io.StringIO()
        render_bar_chart(ReportDataset(chart_rows().rows[::-1]), "t", buffer)
        assert legend(buffer.getvalue()) == ["keypair", "sign", "verify"]

    def test_missing_cell_leaves_its_slot_empty(self):
        # Falcon-512 has a verify row only, as in a replay CSV that holds one operation of it
        partial = ReportDataset(
            tuple(
                row for row in chart_rows().rows
                if row.variant == "P-256" or row.operation is Operation.VERIFY
            )
        )

        def bars(dataset):
            """dataset's chart, and the (x, variant, op) of each of its bars."""
            buffer = io.StringIO()
            render_bar_chart(dataset, "t", buffer)
            return buffer.getvalue(), re.findall(
                r'<rect x="([\d.]+)"[^>]*data-variant="([^"]+)" data-op="([^"]+)"',
                buffer.getvalue(),
            )

        svg, drawn = bars(partial)
        full_x = {(variant, op): x for x, variant, op in bars(chart_rows())[1]}
        assert len(drawn) == 4
        assert [(x, op) for x, variant, op in drawn if variant == "Falcon-512"] == [
            (full_x["Falcon-512", "verify"], "verify")
        ]
        # the third series slot of its cluster, as in the full chart, not the first
        assert full_x["Falcon-512", "verify"] != full_x["Falcon-512", "keypair"]
        assert legend(svg) == ["keypair", "sign", "verify"]

    def test_empty_rows_raise(self):
        with pytest.raises(EmptySelection):
            render_bar_chart(ReportDataset(()), "t", io.StringIO())

    def test_two_machines_same_variant_rejected(self):
        dataset = ReportDataset(
            (bench_row(machine="a"), bench_row(machine="b"))
        )
        with pytest.raises(DuplicateRow):
            render_bar_chart(dataset, "t", io.StringIO())

    def test_log_scale_has_decade_ticks(self):
        dataset = ReportDataset(
            (
                bench_row(
                    variant="SHA2-128s-simple",
                    family="SPHINCS+-SHA-s",
                    operation=Operation.SIGN,
                    mean=80.0,
                    std=2.0,
                ),
                bench_row(
                    variant="P-256", operation=Operation.SIGN, mean=0.0441, std=0.0019
                ),
            )
        )
        assert tick_labels(dataset) == ["0.01", "0.1", "1", "10", "100"]

    def test_single_row_chart(self):
        buffer = io.StringIO()
        render_bar_chart(ReportDataset((bench_row(),)), "solo", buffer)
        assert 'data-variant="P-256"' in buffer.getvalue()

    def test_simulation_rows_chartable(self):
        dataset = ReportDataset(
            (sim_row(), sim_row(variant="Falcon-512", family="Falcon", mean=53.0, std=1.0))
        )
        buffer = io.StringIO()
        render_bar_chart(dataset, "per-block cost", buffer)
        assert 'data-variant="Falcon-512"' in buffer.getvalue()


class TestEscape:
    # xml.sax.saxutils is the independent oracle; the package does not import it
    TEXTS = (
        "",
        "P-256",
        "a & b < c > d",
        'say "hi" & \'bye\'',
        "&amp; &lt;x&gt; &quot; &#38;",
        "<<&&>>",
        "Grüße, 署名 ✓ & <é>",
    )

    @pytest.mark.parametrize("text", TEXTS)
    def test_matches_saxutils(self, text):
        from xml.sax.saxutils import escape

        assert _escape(text) == escape(text)
        assert _attr(text) == escape(text, {'"': "&quot;"})


class TestRecommendedLogScale:
    """The value-axis rule render_bar_chart applies to the rows it draws."""

    def test_wide_range_true(self):
        rows = ReportDataset((bench_row(mean=0.03), bench_row(variant="X", mean=80.0)))
        assert tick_labels(rows) == ["0.01", "0.1", "1", "10", "100"]

    def test_narrow_range_false(self):
        rows = ReportDataset((bench_row(mean=0.5), bench_row(variant="X", mean=2.0)))
        assert tick_labels(rows) == ["0", "0.5", "1", "1.5", "2", "2.5"]
        # a spread of exactly 100 is not above 100
        rows = ReportDataset((bench_row(mean=0.5), bench_row(variant="X", mean=50.0)))
        assert tick_labels(rows)[0] == "0"

    def test_zero_means_ignored(self):
        only_zero = ReportDataset((bench_row(mean=0.0),))
        assert tick_labels(only_zero) == ["0", "0.001", "0.002", "0.003", "0.004", "0.005"]
        # one positive mean is no spread, however far it is from zero
        rows = ReportDataset((bench_row(mean=0.0), bench_row(variant="X", mean=80.0)))
        assert tick_labels(rows) == ["0", "20", "40", "60", "80", "100"]

    def test_single_row_false(self):
        assert tick_labels(ReportDataset((bench_row(mean=5.0),))) == [
            "0", "2", "4", "6", "8", "10"
        ]
