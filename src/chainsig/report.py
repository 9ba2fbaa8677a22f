"""CSV datasets and grouped bar charts for benchmark and simulation results.

Output is deliberately deterministic: rows have a total ordering, floats
are written with fixed precision, and the SVG is assembled from plain
strings with no library in the loop. Identical inputs produce identical
bytes, which the golden-file tests rely on.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import DuplicateRow, EmptySelection, IoFailure
from .records import Validated
from .schemes import FAMILY_ORDER
from .sim import ChainModel

CSV_HEADER = "machine,family,variant,level,stage,model,operation,mean_ms,std_ms,n"

_FAMILY_INDEX = {family: index for index, family in enumerate(FAMILY_ORDER)}


class Stage(enum.Enum):
    BENCHMARK = "Benchmark"
    SIMULATION = "Simulation"


class Operation(enum.Enum):
    KEYPAIR = "keypair"
    SIGN = "sign"
    VERIFY = "verify"


class LevelGroup(enum.Enum):
    """Chart grouping: levels 1 and 2 share the lower group."""

    LOWER = "Lower Level (1 or 2)"
    LEVEL3 = "Level 3"
    LEVEL5 = "Level 5"


_LEVEL_GROUPS = {
    1: LevelGroup.LOWER,
    2: LevelGroup.LOWER,
    3: LevelGroup.LEVEL3,
    5: LevelGroup.LEVEL5,
}

_MODEL_LABELS = {model.label: model for model in ChainModel}

_CHART_WIDTH = 960
_CHART_HEIGHT = 540

_OP_COLORS = {
    Operation.KEYPAIR: "#4c72b0",
    Operation.SIGN: "#dd8452",
    Operation.VERIFY: "#55a868",
}


def level_group(level: int) -> LevelGroup:
    try:
        return _LEVEL_GROUPS[level]
    except KeyError:
        raise ValueError(f"no chart group for level {level}") from None


class _ReportRow(NamedTuple):
    machine: str
    family: str
    variant: str
    level: int
    stage: Stage
    model: ChainModel | None
    operation: Operation
    mean_ms: float
    std_ms: float
    n: int


class ReportRow(Validated, _ReportRow):
    __slots__ = ()

    def _check(self) -> None:
        for name in ("machine", "family", "variant"):
            value = getattr(self, name)
            # neither survives the LF-terminated CSV text format: NUL is
            # unwritable outright, and the writer only quotes characters
            # belonging to its line terminator, so a bare CR would be
            # emitted unquoted and corrupt the row
            if "\x00" in value or "\r" in value:
                raise ValueError(
                    f"{name} must not contain NUL or carriage-return characters"
                )
        if self.level not in _LEVEL_GROUPS:
            raise ValueError(f"invalid level {self.level}")
        if self.stage is Stage.SIMULATION:
            if self.model is None:
                raise ValueError("simulation rows must carry a model")
            if self.operation is not Operation.VERIFY:
                raise ValueError("simulation rows measure verify only")
        elif self.model is not None:
            raise ValueError("benchmark rows must not carry a model")
        for name in ("mean_ms", "std_ms"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def key(self) -> tuple:
        """The columns that identify a result: machine through operation."""
        return self[:7]


def _sort_key(row: ReportRow) -> tuple:
    return (
        list(Stage).index(row.stage),
        _FAMILY_INDEX.get(row.family, len(_FAMILY_INDEX)),
        row.family,
        row.level,
        list(Operation).index(row.operation),
        0 if row.model is None else row.model.value,
        row.machine,
        row.variant,
    )


class _ReportDataset(NamedTuple):
    rows: tuple[ReportRow, ...]


class ReportDataset(Validated, _ReportDataset):
    __slots__ = ()

    def _check(self) -> None:
        seen = set()
        for row in self.rows:
            if row.key in seen:
                key = _csv_text(_fields(row)[:7])
                raise DuplicateRow(f"duplicate result row for {key}")
            seen.add(row.key)


def _write_text(destination: str | Path | IO[str], text: str) -> int:
    data = text.encode("utf-8")
    try:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            Path(destination).write_bytes(data)
    except OSError as exc:
        raise IoFailure(f"cannot write {destination}: {exc}") from exc
    return len(data)


def _fields(row: ReportRow) -> list[str]:
    """row's CSV fields, in CSV_HEADER's order."""
    return [
        row.machine,
        row.family,
        row.variant,
        str(row.level),
        row.stage.value,
        row.model.label if row.model is not None else "",
        row.operation.value,
        f"{row.mean_ms:.4f}",
        f"{row.std_ms:.4f}",
        str(row.n),
    ]


def _csv_text(fields: list[str]) -> str:
    """fields as write_csv writes them, kept on one line for an error message.

    The line end is dropped, and a CR or LF inside a quoted field shows as \\r or \\n.
    """
    buffer = io.StringIO()
    # write_csv's line end, so that a field holding a newline is quoted as in the file
    csv.writer(buffer, lineterminator="\n").writerow(fields)
    return buffer.getvalue()[:-1].replace("\r", "\\r").replace("\n", "\\n")


def write_csv(
    dataset: ReportDataset,
    destination: str | Path | IO[str],
    comments: Iterable[str] = (),
) -> int:
    """Write the dataset sorted and fixed-precision; returns bytes written.

    Comment lines (no embedded newlines) are emitted before the header,
    prefixed with "# ". mean_ms and std_ms carry exactly 4 fractional
    digits.
    """
    buffer = io.StringIO()
    for comment in comments:
        buffer.write(f"# {comment}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in sorted(dataset.rows, key=_sort_key):
        writer.writerow(_fields(row))
    return _write_text(destination, buffer.getvalue())


def parse_csv(source: str | Path | IO[str]) -> ReportDataset:
    """Inverse of write_csv.

    Leading "#" comment lines are skipped; the header must follow them
    exactly. Quoted fields may contain any character, newlines included.
    A path is read as UTF-8; a leading byte-order mark is dropped from any source.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {source}: {exc}") from exc
    lines = text.removeprefix("\ufeff").split("\n")
    index = 0
    while index < len(lines) and lines[index].startswith("#"):
        index += 1
    if index >= len(lines) or lines[index] != CSV_HEADER:
        raise IoFailure(f"line {index + 1}: missing or malformed header; expected {CSV_HEADER!r}")
    rows = []
    first_seen: dict[tuple, int] = {}
    reader = csv.reader(io.StringIO("\n".join(lines[index + 1 :])))
    # a record starts on the line after the last one read; quoted
    # newlines make a record span several
    read = index + 1
    for record in reader:
        line, read = read + 1, index + 1 + reader.line_num
        if not record:
            continue
        if len(record) != 10:
            raise IoFailure(
                f"line {line}: expected 10 fields, got {len(record)}: {_csv_text(record)}"
            )
        machine, family, variant, level, stage, model, operation, mean, std, n = record
        try:
            row = ReportRow(
                machine=machine,
                family=family,
                variant=variant,
                level=int(level),
                stage=Stage(stage),
                model=_MODEL_LABELS[model] if model else None,
                operation=Operation(operation),
                mean_ms=float(mean),
                std_ms=float(std),
                n=int(n),
            )
        except (KeyError, ValueError) as exc:
            raise IoFailure(f"line {line}: malformed row {_csv_text(record)}: {exc}") from exc
        first = first_seen.setdefault(row.key, line)
        if first != line:
            raise DuplicateRow(
                f"line {line}: duplicate result row for {_csv_text(_fields(row)[:7])},"
                f" first on line {first}"
            )
        rows.append(row)
    return ReportDataset(tuple(rows))


def _nice_step(raw: float) -> float:
    if raw <= 0:
        return 1.0
    exponent = math.floor(math.log10(raw))
    fraction = raw / 10**exponent
    for candidate in (1.0, 2.0, 5.0):
        if fraction <= candidate:
            return candidate * 10**exponent
    return 10.0 ** (exponent + 1)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(value: str) -> str:
    """SVG text content: `&` first, so the entities added after stay intact."""
    return value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _attr(value: str) -> str:
    return _escape(value).replace('"', "&quot;")


def render_bar_chart(dataset: ReportDataset, title: str, destination: str | Path | IO[str]) -> int:
    """Bar chart of every row: a cluster per variant, a bar per operation the rows hold.

    Error bars span mean +/- std. The value axis is logarithmic when at
    least two of the drawn means are positive and the largest of those is
    more than 100 times the smallest; otherwise it is linear from zero.
    Returns the byte count written.
    """
    rows = dataset.rows
    if not rows:
        raise EmptySelection("no rows to chart")
    series = [op for op in Operation if any(row.operation is op for row in rows)]
    values: dict[tuple[str, Operation], ReportRow] = {}
    for row in rows:
        cell = (row.variant, row.operation)
        if cell in values:
            raise DuplicateRow(f"two rows for variant {row.variant!r} {row.operation.value}")
        values[cell] = row
    # bars in the order the CSV lists their rows
    variants = list(dict.fromkeys(row.variant for row in sorted(rows, key=_sort_key)))

    width, height = _CHART_WIDTH, _CHART_HEIGHT
    left, right, top, bottom = 80, 24, 56, 120
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_axis_y = top + plot_h

    positive = [row.mean_ms for row in rows if row.mean_ms > 0]
    highest = max(row.mean_ms + row.std_ms for row in rows)
    # a spread above 100 needs two positive means and puts two decades between them
    if positive and max(positive) / min(positive) > 100:
        lo_exp = math.floor(math.log10(min(positive) * 0.9))
        hi_exp = math.ceil(math.log10(highest * 1.1))
        axis_lo = 10.0**lo_exp
        axis_hi = 10.0**hi_exp

        def y_of(value: float) -> float:
            clamped = min(max(value, axis_lo), axis_hi)
            fraction = (math.log10(clamped) - lo_exp) / (hi_exp - lo_exp)
            return x_axis_y - fraction * plot_h

        ticks = [10.0**exp for exp in range(lo_exp, hi_exp + 1)]
    else:
        step = _nice_step(max(highest, 1e-9) / 5)
        axis_hi = step * 5
        while axis_hi < highest:
            axis_hi += step

        def y_of(value: float) -> float:
            return x_axis_y - min(max(value, 0.0), axis_hi) / axis_hi * plot_h

        count = int(round(axis_hi / step))
        ticks = [index * step for index in range(count + 1)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_fmt(width / 2)}" y="30" font-size="16" text-anchor="middle">'
        f"{_escape(title)}</text>",
        f'<text x="18" y="{_fmt(top + plot_h / 2)}" font-size="12" text-anchor="middle"'
        f' transform="rotate(-90 18 {_fmt(top + plot_h / 2)})">time (ms)</text>',
    ]
    for tick in ticks:
        tick_y = y_of(tick)
        parts.append(
            f'<line x1="{left}" y1="{_fmt(tick_y)}" x2="{width - right}"'
            f' y2="{_fmt(tick_y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{_fmt(tick_y + 4)}" font-size="11"'
            f' text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{x_axis_y}"'
        ' stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{x_axis_y}" x2="{width - right}" y2="{x_axis_y}"'
        ' stroke="#333333" stroke-width="1"/>'
    )

    group_w = plot_w / len(variants)
    bar_w = group_w * 0.72 / len(series)
    for group_index, variant in enumerate(variants):
        group_left = left + group_index * group_w + group_w * 0.14
        center_x = left + (group_index + 0.5) * group_w
        for series_index, operation in enumerate(series):
            row = values.get((variant, operation))
            if row is None:
                continue
            bar_x = group_left + series_index * bar_w
            bar_y = y_of(row.mean_ms)
            parts.append(
                f'<rect x="{_fmt(bar_x)}" y="{_fmt(bar_y)}" width="{_fmt(bar_w)}"'
                f' height="{_fmt(x_axis_y - bar_y)}" fill="{_OP_COLORS[operation]}"'
                f' data-variant="{_attr(variant)}" data-op="{operation.value}"'
                f' data-mean="{row.mean_ms:.4f}"/>'
            )
            if row.std_ms > 0:
                err_x = bar_x + bar_w / 2
                y_high = y_of(row.mean_ms + row.std_ms)
                y_low = y_of(max(row.mean_ms - row.std_ms, 0.0))
                cap = bar_w * 0.3
                parts.append(
                    f'<line x1="{_fmt(err_x)}" y1="{_fmt(y_high)}" x2="{_fmt(err_x)}"'
                    f' y2="{_fmt(y_low)}" stroke="#333333" stroke-width="1"/>'
                )
                for err_y in (y_high, y_low):
                    parts.append(
                        f'<line x1="{_fmt(err_x - cap)}" y1="{_fmt(err_y)}"'
                        f' x2="{_fmt(err_x + cap)}" y2="{_fmt(err_y)}"'
                        ' stroke="#333333" stroke-width="1"/>'
                    )
        label_y = x_axis_y + 14
        parts.append(
            f'<text x="{_fmt(center_x)}" y="{_fmt(label_y)}" font-size="11"'
            f' text-anchor="end" transform="rotate(-35 {_fmt(center_x)}'
            f' {_fmt(label_y)})">{_escape(variant)}</text>'
        )

    legend_x = width - right - 150
    legend_y = top - 38
    for index, operation in enumerate(series):
        item_y = legend_y + index * 16
        parts.append(
            f'<rect x="{legend_x}" y="{item_y}" width="12" height="12"'
            f' fill="{_OP_COLORS[operation]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 18}" y="{item_y + 10}" font-size="11">'
            f"{operation.value}</text>"
        )
    parts.append("</svg>")
    return _write_text(destination, "\n".join(parts) + "\n")
