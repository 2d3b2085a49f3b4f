"""CSV input and output.

All emitted files share one dialect: comma-separated, one header line, floats
rendered with ``repr`` (shortest string that round-trips in binary), ``NA`` for
missing values (NaN).  Writers go through a temp-file-and-rename so a crash
never leaves a partial file behind.  Every writer has a matching reader and
the pair round-trips losslessly, which the tests rely on.
"""

from __future__ import annotations

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
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
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
            try:
                row = [float(c) for c in cells]
            except ValueError:
                bad = next(c for c in cells if not _is_float(c))
                raise CsvFormatError(path, line, f"not a number: {bad!r}") from None
            if not all(map(math.isfinite, row)):
                bad = next(c for c, v in zip(cells, row) if not math.isfinite(v))
                raise CsvFormatError(path, line, f"not a finite number: {bad!r}")
            rows.append(row)
    if not rows:
        raise CsvFormatError(path, 1, "no data rows")
    return np.asarray(rows, dtype=float)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def trace_to_csv(trace: FitTrace) -> str:
    d = trace.m.shape[1]
    header = (
        ["t"]
        + [f"m_{j}" for j in range(d)]
        + [f"s_{j}" for j in range(d)]
        + ["objective", "grad_norm_m", "grad_norm_s"]
    )
    lines = [",".join(header)]
    for t in range(len(trace)):
        cells = [str(int(trace.t[t]))]
        cells += [fmt(v) for v in trace.m[t]]
        cells += [fmt(v) for v in trace.s[t]]
        cells += [fmt(trace.objective[t]), fmt(trace.grad_norm_m[t]), fmt(trace.grad_norm_s[t])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str, trace: FitTrace) -> None:
    atomic_write(path, trace_to_csv(trace))


def read_trace_csv(path: str) -> FitTrace:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = sum(1 for h in header if h.startswith("m_"))
        rows = list(reader)
    t = np.array([int(r[0]) for r in rows])
    m = np.array([[parse_float(c) for c in r[1 : 1 + d]] for r in rows])
    s = np.array([[parse_float(c) for c in r[1 + d : 1 + 2 * d]] for r in rows])
    tail = np.array([[parse_float(c) for c in r[1 + 2 * d :]] for r in rows])
    return FitTrace(
        t=t, m=m, s=s, objective=tail[:, 0], grad_norm_m=tail[:, 1], grad_norm_s=tail[:, 2]
    )


def rmse_to_csv(result: SweepResult) -> str:
    lines = ["problem,epsilon,estimator,repetitions,rmse,stderr"]
    for i, eps in enumerate(result.epsilons):
        for method in result.methods:
            rmse = result.rmse(method)[i]
            stderr = result.rmse_stderr(method)[i]
            lines.append(
                f"{result.problem},{fmt(eps)},{method},{result.reps},{fmt(rmse)},{fmt(stderr)}"
            )
    return "\n".join(lines) + "\n"


def write_rmse_csv(path: str, result: SweepResult) -> None:
    atomic_write(path, rmse_to_csv(result))


def read_rmse_csv(path: str) -> list[dict]:
    """Rows of the aggregate sweep file as dicts with parsed numerics."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    for r in rows:
        r["epsilon"] = parse_float(r["epsilon"])
        r["repetitions"] = int(r["repetitions"])
        r["rmse"] = parse_float(r["rmse"])
        r["stderr"] = parse_float(r["stderr"])
    return rows


def trials_to_csv(result: SweepResult) -> str:
    lines = ["problem,epsilon,estimator,trial,squared_error,seed"]
    for i, eps in enumerate(result.epsilons):
        for method in result.methods:
            sq = result.squared_errors[method][i]
            for rep in range(result.reps):
                seed = f"{result.master_seed}-{i}-{rep}"
                lines.append(
                    f"{result.problem},{fmt(eps)},{method},{rep},{fmt(sq[rep])},{seed}"
                )
    return "\n".join(lines) + "\n"


def write_trials_csv(path: str, result: SweepResult) -> None:
    atomic_write(path, trials_to_csv(result))


def read_trials_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    for r in rows:
        r["epsilon"] = parse_float(r["epsilon"])
        r["trial"] = int(r["trial"])
        r["squared_error"] = parse_float(r["squared_error"])
    return rows


def theory_to_csv(report, extended) -> str:
    """One-row CSV of :func:`.theory.certificate_row`: ``n`` and ``dim`` as
    integers, every float by :func:`fmt`."""
    row = certificate_row(report, extended)
    cells = (fmt(v) if isinstance(v, float) else str(v) for v in row.values())
    return ",".join(row) + "\n" + ",".join(cells) + "\n"


def write_theory_csv(path: str, report, extended) -> None:
    atomic_write(path, theory_to_csv(report, extended))
