"""CSV input and output.

Every table is written by one :func:`_table` and read by one
:func:`read_table`: comma-separated, one header line, a float cell by
:func:`fmt` (``repr``, the shortest string that round-trips in binary, or
``NA`` for NaN) and any other cell by ``str``, and read back as the int, float
or string it was, so every table round-trips losslessly.  Output files go
through a temp file and a rename, so a crash never leaves a partial file, and
get the mode a plain ``open`` gives.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import tempfile

import numpy as np

from .harness import SweepResult
from .theory import certificate_row
from .vi import FitTrace

NA = "NA"


class CsvFormatError(ValueError):
    """Malformed input CSV; remembers the 1-based line of the offence."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def fmt(x: float) -> str:
    """``repr`` of the float, or ``NA`` for NaN; round-trips exactly."""
    x = float(x)
    return NA if math.isnan(x) else repr(x)


def parse_float(cell: str) -> float:
    return math.nan if cell == NA else float(cell)


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory, with
    the mode that a plain ``open`` would give the new file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp gives 0o600
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_samples(path: str) -> np.ndarray:
    """Read an (n, d) sample matrix: numeric rows, optional ``#`` comment lines.

    Raises :class:`CsvFormatError` with the offending line number for ragged
    rows, non-numeric or non-finite (``nan``, ``inf``) cells, or a file with
    no data rows.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for cells in reader:
            line = reader.line_num
            if not cells or (cells[0].lstrip().startswith("#")):
                continue
            if all(not c.strip() for c in cells):
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise CsvFormatError(
                    path, line, f"expected {width} fields, found {len(cells)}"
                )
            row = []
            for cell in cells:
                try:
                    row.append(float(cell))
                except ValueError:
                    raise CsvFormatError(path, line, f"not a number: {cell!r}") from None
            if not all(map(math.isfinite, row)):
                bad = next(c for c, v in zip(cells, row) if not math.isfinite(v))
                raise CsvFormatError(path, line, f"not a finite number: {bad!r}")
            rows.append(row)
    if not rows:
        raise CsvFormatError(path, 1, "no data rows")
    return np.asarray(rows, dtype=float)


def _table(header, rows) -> str:
    """The header line, then one line per row: a float cell by :func:`fmt`, any other by ``str``."""
    lines = [",".join(header)]
    for row in rows:
        cells = (fmt(c) if isinstance(c, (float, np.floating)) else str(c) for c in row)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cell(text: str):
    """A cell as :func:`_table` wrote it: an int, a float, or the string."""
    for parse in (int, parse_float):
        with contextlib.suppress(ValueError):
            return parse(text)
    return text


def read_table(path: str) -> list[dict]:
    """Rows of any table this module writes, as dicts of parsed cells."""
    with open(path, newline="") as fh:
        return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def trace_to_csv(trace: FitTrace) -> str:
    d = trace.m.shape[1]
    header = ["t", *(f"m_{j}" for j in range(d)), *(f"s_{j}" for j in range(d))]
    header += ["objective", "grad_norm_m", "grad_norm_s"]
    columns = (trace.t, trace.m, trace.s, trace.objective, trace.grad_norm_m, trace.grad_norm_s)
    rows = ((t, *m, *s, *tail) for t, m, s, *tail in zip(*(c.tolist() for c in columns)))
    return _table(header, rows)


def write_trace_csv(path: str, trace: FitTrace) -> None:
    atomic_write(path, trace_to_csv(trace))


def read_trace_csv(path: str) -> FitTrace:
    rows = read_table(path)
    col = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    d = sum(1 for key in col if key.startswith("m_"))
    m, s = (np.column_stack([col[f"{p}_{j}"] for j in range(d)]) for p in "ms")
    return FitTrace(t=col["t"], m=m, s=s, objective=col["objective"],
                    grad_norm_m=col["grad_norm_m"], grad_norm_s=col["grad_norm_s"])


def rmse_to_csv(result: SweepResult) -> str:
    rows = (
        (result.problem, eps, method, result.reps, result.rmse(method)[i],
         result.rmse_stderr(method)[i])
        for i, eps in enumerate(result.epsilons)
        for method in result.methods
    )
    return _table(("problem", "epsilon", "estimator", "repetitions", "rmse", "stderr"), rows)


def write_rmse_csv(path: str, result: SweepResult) -> None:
    atomic_write(path, rmse_to_csv(result))


def trials_to_csv(result: SweepResult) -> str:
    rows = (
        (result.problem, eps, method, rep, sq, f"{result.master_seed}-{i}-{rep}")
        for i, eps in enumerate(result.epsilons)
        for method in result.methods
        for rep, sq in enumerate(result.squared_errors[method][i])
    )
    return _table(("problem", "epsilon", "estimator", "trial", "squared_error", "seed"), rows)


def write_trials_csv(path: str, result: SweepResult) -> None:
    atomic_write(path, trials_to_csv(result))


def theory_to_csv(report, extended) -> str:
    """One-row CSV of :func:`.theory.certificate_row`."""
    row = certificate_row(report, extended)
    return _table(row, [row.values()])


def write_theory_csv(path: str, report, extended) -> None:
    atomic_write(path, theory_to_csv(report, extended))
