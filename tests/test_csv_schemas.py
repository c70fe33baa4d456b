"""Every CSV schema: what its writer writes, its reader and ``validate`` take back.

Random values go through each writer, ``validate`` must then name the
file's kind, and both the generic reader and the library reader must
return the written values bit for bit.  Malformed files must make the
reader raise ``ValueError`` and ``validate`` exit 2.
"""

import contextlib
import importlib
import io
import math
import os
import pkgutil
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deadtime
from deadtime import cli, core
from deadtime.core import (
    LAW_CSV,
    SPECTRUM_CSV,
    TRACE_CSV,
    Schema,
    Spectrum,
    TabulatedDeadTime,
    TimeGrid,
    Trace,
    _fmt,
    read_csv,
    read_law_csv,
    write_csv,
    write_law_csv,
)
from deadtime.mc_sim import (
    ESTIMATE_CSV,
    EVENTS_CSV,
    EnsembleEstimate,
    read_estimate_csv,
    read_events_csv,
    write_estimate_csv,
    write_events_csv,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEG = st.floats(0.0, 1e300)
UNIT = st.floats(0.0, 1.0)
INT64 = st.integers(-(2**63), 2**63 - 1)


def _arrays(draw, n, elements, dtype=float):
    return np.array([draw(elements) for _ in range(n)], dtype=dtype)


def _or_nan(elements):
    return st.one_of(elements, st.just(math.nan))


def _grid(draw, n):
    # seconds-scale grids: the readers' uniform-spacing rule is absolute
    # below a one-second step
    return TimeGrid(draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-6, 1e2)), n)


def _estimate(draw, n):
    return EnsembleEstimate(
        _grid(draw, n),
        _arrays(draw, n, NONNEG),
        _arrays(draw, n, _or_nan(NONNEG)),
        _arrays(draw, n, _or_nan(UNIT)),
        _arrays(draw, n, _or_nan(NONNEG)),
        _arrays(draw, n, st.integers(0, 2**62), np.int64),
    )


def _estimate_columns(est):
    return [est.grid.times(), est.rate_hat, est.rate_se, est.active_hat,
            est.active_se, est.event_count]


@st.composite
def traces(draw):
    n = draw(st.integers(1, 30))
    return Trace(_grid(draw, n), _arrays(draw, n, UNIT), _arrays(draw, n, NONNEG))


@st.composite
def spectra(draw):
    order = draw(st.integers(0, 8))
    half = _arrays(draw, order, FINITE) + 1j * _arrays(draw, order, FINITE)
    return Spectrum(1.0, np.concatenate((half[::-1].conj(), [draw(FINITE)], half)))


@st.composite
def laws(draw):
    n = draw(st.integers(2, 30))
    x = draw(st.floats(0.0, 10.0)) + np.cumsum(_arrays(draw, n, st.floats(1e-3, 10.0)))
    pdf = _arrays(draw, n, st.floats(1e-3, 1e3))
    atom = draw(st.floats(0.0, 0.99))
    return TabulatedDeadTime(x, pdf * (1.0 - atom) / np.trapezoid(pdf, x), atom)


@st.composite
def estimates(draw):
    return _estimate(draw, draw(st.integers(1, 30)))


@st.composite
def events(draw):
    n = draw(st.integers(0, 30))
    return _arrays(draw, n, INT64, np.int64), _arrays(draw, n, FINITE)


@st.composite
def combined(draw):
    n = draw(st.integers(1, 30))
    reference = [_arrays(draw, n, FINITE), _arrays(draw, n, FINITE)]
    t, *estimate = _estimate_columns(_estimate(draw, n))
    return [t, *reference, *estimate]


@st.composite
def hazards(draw):
    n = draw(st.integers(1, 30))
    return [_arrays(draw, n, FINITE), _arrays(draw, n, NONNEG), _arrays(draw, n, NONNEG)]


@st.composite
def sweeps(draw, max_rate=False):
    n = draw(st.integers(1, 30))
    columns = [
        _arrays(draw, n, FINITE),
        _arrays(draw, n, INT64, np.int64),
        _arrays(draw, n, NONNEG),
        _arrays(draw, n, st.floats(-math.pi, math.pi)),
    ]
    return columns + [_arrays(draw, n, FINITE)] * max_rate


def _generic(schema, strategy):
    return schema, strategy, lambda columns, path: write_csv(path, schema, columns), None, list


#: (schema, object strategy, writer, library reader or None, the columns
#: an object writes)
CASES = [
    (TRACE_CSV, traces(), Trace.to_csv, Trace.from_csv,
     lambda tr: [tr.grid.times(), tr.active, tr.rate]),
    (SPECTRUM_CSV, spectra(), Spectrum.to_csv, lambda p: Spectrum.from_csv(p, 1.0),
     lambda s: [np.arange(-s.order, s.order + 1), s.coeffs.real, s.coeffs.imag]),
    (LAW_CSV, laws(), lambda law, p: write_law_csv(law, p), read_law_csv,
     lambda law: [law.x, law.pdf]),
    (ESTIMATE_CSV, estimates(), write_estimate_csv, read_estimate_csv, _estimate_columns),
    (EVENTS_CSV, events(), write_events_csv, read_events_csv, list),
    _generic(cli.COMBINED_CSV, combined()),
    _generic(cli.HAZARD_CSV, hazards()),
    _generic(cli.SWEEP_CSV, sweeps()),
    _generic(cli.SWEEP_MAX_CSV, sweeps(max_rate=True)),
]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape \
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _validate(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["validate", path])
    return code, out.getvalue()


@pytest.mark.parametrize("schema, strategy, write, read, columns", CASES,
                         ids=[case[0].header for case in CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip(schema, strategy, write, read, columns, data):
    written = data.draw(strategy)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        write(written, path)
        assert _validate(path) == (0, f"ok {path} ({schema.kind})\n")
        back, value = read_csv(path, schema)
        assert all(map(_same_bits, back, columns(written)))
        assert value == getattr(written, "atom0", None)
        if read is None:
            return
        back = read(path)
        assert getattr(back, "atom0", None) == value
        got, want = columns(back), columns(written)
        if schema.header.startswith("t,"):
            # the grid is rebuilt from the first time and the first step
            np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-9)
            got, want = got[1:], want[1:]
        assert all(map(_same_bits, got, want))


def _read_sweep(path):
    read_csv(path, cli.SWEEP_CSV)


ESTIMATE_HEADER = ESTIMATE_CSV.header + "\n"

MALFORMED = {
    "trace-unparsable-cell": (Trace.from_csv, "t,A,nu\n0,0.5,1\n1,0.5,oops\n"),
    "estimate-unparsable-cell": (read_estimate_csv, ESTIMATE_HEADER + "0,1,oops,0.5,0.01,3\n"),
    "events-unparsable-cell": (read_events_csv, "component,event_time\n0,oops\n"),
    "law-unparsable-cell": (read_law_csv, "x,rho,atom0=0\n0,oops\n1,1\n"),
    "trace-two-columns": (Trace.from_csv, "t,A,nu\n0,0.5\n1,0.5\n"),
    "spectrum-two-columns": (lambda p: Spectrum.from_csv(p, 1.0), "0,1\n"),
    "trace-ragged-rows": (Trace.from_csv, "t,A,nu\n0,0.5,1\n1,0.5\n"),
    "trace-no-rows": (Trace.from_csv, "t,A,nu\n"),
    "law-no-rows": (read_law_csv, "x,rho,atom0=0\n"),
    "estimate-no-rows": (read_estimate_csv, ESTIMATE_HEADER),
    "sweep-no-rows": (_read_sweep, "f,k,abs,phase\n"),
    "spectrum-repeated-k": (lambda p: Spectrum.from_csv(p, 1.0),
                            "-1,0.5,0\n0,1,0\n1,0.5,0\n1,0.25,0\n"),
    "sweep-header-suffix": (_read_sweep, "f,k,abs,phasefoo\n1,0,1,0\n"),
    "trace-header-suffix": (Trace.from_csv, "t,A,nux\n0,0.5,1\n1,0.5,1\n"),
    "estimate-fractional-count": (read_estimate_csv, ESTIMATE_HEADER + "0,1,0.1,0.5,0.01,1.5\n"),
    "estimate-negative-se": (read_estimate_csv, ESTIMATE_HEADER + "0,1,-0.1,0.5,0.01,1\n"),
}


@pytest.mark.parametrize("read, text", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_file_rejected(tmp_path, read, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read(path)
    assert _validate(str(path))[0] == 2


def _declared_schemas():
    """Every ``Schema`` a module of the package holds at its top level."""
    found = {}
    for info in pkgutil.iter_modules(deadtime.__path__):
        module = importlib.import_module(f"deadtime.{info.name}")
        found.update((id(v), v) for v in vars(module).values() if isinstance(v, Schema))
    return sorted(found.values(), key=lambda schema: (schema.kind, schema.header))


SCHEMAS = _declared_schemas()

#: the cells each column type may hold, weighted toward the ones whose
#: text is easy to get wrong
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
CELLS = {
    "f": st.one_of(FINITE, st.sampled_from(EDGE_FLOATS)),
    "n": st.one_of(FINITE, st.sampled_from(EDGE_FLOATS), st.just(math.nan)),
    "i": st.one_of(INT64, st.sampled_from([0, -1, 2**63 - 1, -(2**63)])),
}


def _reference_text(schema, columns, value):
    """The file ``schema`` describes, built cell by cell."""
    lines = [] if schema.headerless else [
        schema.header + ("" if schema.parameter is None else f",{schema.parameter}={_fmt(value)}")
    ]
    text = [[str(int(v)) if kind == "i" else _fmt(v) for v in col]
            for kind, col in zip(schema.types, columns)]
    lines += map(",".join, zip(*text))
    return "".join(line + "\n" for line in lines)


def _written_text(schema, columns, value, to_stdout):
    if to_stdout:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            write_csv("-", schema, columns, value)
        return out.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        write_csv(path, schema, columns, value)
        with open(path, "rb") as fh:
            return fh.read().decode("ascii")


def test_every_declared_schema_is_covered():
    kinds = {schema.kind for schema in SCHEMAS}
    assert {"trace", "spectrum", "law", "estimate", "events", "combined", "hazard",
            "sweep", "interval"} <= kinds


@pytest.mark.parametrize("schema", SCHEMAS, ids=[s.kind + ":" + s.header for s in SCHEMAS])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_writer_bytes_match_cell_by_cell_text(schema, data):
    n = data.draw(st.integers(0 if schema.empty_ok else 1, 40), label="rows")
    columns = [
        np.array(data.draw(st.lists(CELLS[kind], min_size=n, max_size=n)),
                 dtype=np.int64 if kind == "i" else float)
        for kind in schema.types
    ]
    value = None if schema.parameter is None else data.draw(CELLS["f"], label="parameter")
    to_stdout = data.draw(st.booleans(), label="stdout")
    # a few rows a block, so files span blocks and end on a short one
    with mock.patch.object(core, "_BLOCK_ROWS", data.draw(st.integers(1, 8), label="block")):
        got = _written_text(schema, columns, value, to_stdout)
    assert got == _reference_text(schema, columns, value)


@pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
def test_empty_ok_schema_writes_its_header_alone(to_stdout):
    empty = [schema for schema in SCHEMAS if schema.empty_ok]
    assert empty
    for schema in empty:
        columns = [np.array([], dtype=np.int64 if k == "i" else float) for k in schema.types]
        assert _written_text(schema, columns, None, to_stdout) == schema.header + "\n"
