"""The binary twin beside a law file: read instead of the text exactly when it matches.

``write_law_csv`` leaves ``.<name>.deadtime.npz`` beside a law it writes
to a regular file.  A law read with its twin must equal the law read from
the text alone, bit for bit; a twin that does not match the file must be
ignored; and nothing but the writer may write one.
"""

import io
import os
import shutil
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deadtime import cli, core
from deadtime.core import (
    LAW_CSV,
    GammaDeadTime,
    TabulatedDeadTime,
    read_csv,
    read_law_csv,
    write_law_csv,
)


def run(argv):
    return cli.main([str(a) for a in argv])


def twin_of(path):
    return path.parent / f".{path.name}.deadtime.npz"


def listing(where):
    """Every entry below ``where`` with its bytes (``None`` for a directory)."""
    return {p.relative_to(where): None if p.is_dir() else p.read_bytes()
            for p in sorted(where.rglob("*"))}


def same_law(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("x", "pdf", "_cdf")) and \
        np.float64(a.atom_at_zero).tobytes() == np.float64(b.atom_at_zero).tobytes()


def text_law(path):
    """The law the text of ``path`` holds, its twin aside."""
    (x, pdf), atom = read_csv(path, LAW_CSV)
    return TabulatedDeadTime(x, pdf, atom)


def raw_law(x, rho, atom):
    """A stand-in whose table reaches the file as given, ``-0.0`` densities included."""
    return types.SimpleNamespace(density_table=lambda n_nodes: (x, rho), atom0=atom)


def gamma_table(order, n):
    ref = GammaDeadTime(order, 40.0)
    x = np.linspace(0.0, ref.quantile(1 - 1e-12), n)
    pdf = ref.density(x)
    return TabulatedDeadTime(x, pdf / np.trapezoid(pdf, x))


TINY = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310])


@st.composite
def tables(draw):
    """Non-uniform nodes, an atom, and densities with zeros, subnormals and ``-0.0``."""
    n = draw(st.integers(2, 40))
    start = draw(st.sampled_from([0.0, -0.0, 1e-3, 0.37]))
    x = np.concatenate(([start], start + np.cumsum(
        [draw(st.floats(1e-6, 10.0)) for _ in range(n - 1)])))
    pdf = np.array([draw(st.floats(1e-3, 1e3)) for _ in range(n)])
    tiny = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    pdf[tiny] = 0.0
    assume(np.trapezoid(pdf, x) > 0.0)
    atom = draw(st.sampled_from([0.0, 0.25, 0.999]))
    rho = pdf * ((1.0 - atom) / np.trapezoid(pdf, x))
    # zeros become values far below the mass tolerance
    for i in tiny:
        rho[i] = draw(TINY)
    return x, rho, atom


@settings(max_examples=80, deadline=None, derandomize=True)
@given(table=tables())
def test_twin_reads_back_what_the_text_holds(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("twin") / "law.csv"
    write_law_csv(raw_law(*table), path)
    twin = core._read_twin(path)
    assert twin is not None
    (x, rho), atom = twin
    (tx, trho), tatom = read_csv(path, LAW_CSV)
    assert x.tobytes() == tx.tobytes() and rho.tobytes() == trho.tobytes()
    assert np.float64(atom).tobytes() == np.float64(tatom).tobytes()
    with_twin = read_law_csv(path)
    twin_of(path).unlink()
    assert same_law(with_twin, read_law_csv(path))


def test_twin_holds_tag_digest_rows_and_values(tmp_path):
    law, path = gamma_table(3, 101), tmp_path / "law.csv"
    write_law_csv(law, path)
    with np.load(twin_of(path)) as twin:
        assert sorted(twin.files) == ["atom0", "digest", "rho", "rows", "tag", "x"]
        assert str(twin["tag"]) == core._TWIN_TAG
        assert str(twin["digest"]) == core._sha256(path)
        assert int(twin["rows"]) == 101
        assert twin["x"].tobytes() == law.x.tobytes()
        assert twin["rho"].tobytes() == law.pdf.tobytes()
    assert sorted(os.listdir(tmp_path)) == [".law.csv.deadtime.npz", "law.csv"]


# ---------------------------------------------------------------------------
# twins that do not match are ignored
# ---------------------------------------------------------------------------


def forge(path, donor, **fields):
    """Put at ``path``'s twin the twin of ``donor`` with ``fields`` replaced."""
    with np.load(twin_of(donor)) as twin:
        content = {name: twin[name] for name in twin.files}
    np.savez(twin_of(path), **{**content, **fields})


@pytest.fixture
def two_laws(tmp_path):
    """Two law files of different lengths, each with its twin."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_law_csv(gamma_table(2, 301), a)
    write_law_csv(gamma_table(4, 211), b)
    return a, b


def test_forged_twin_with_the_files_digest_is_trusted(two_laws):
    # the control for the cases below: a twin is trusted by its digest alone
    a, b = two_laws
    forge(a, b, digest=core._sha256(a))
    assert same_law(read_law_csv(a), text_law(b))


@pytest.mark.parametrize("fields", [
    lambda a, b: {},
    lambda a, b: {"digest": core._sha256(a), "tag": "deadtime law twin 0"},
    lambda a, b: {"digest": core._sha256(a), "rows": 212},
    lambda a, b: {"digest": core._sha256(a), "rows": 301},
    lambda a, b: {"digest": core._sha256(a), "x": np.array([0.0, 1.0])},
    lambda a, b: {"digest": core._sha256(a), "atom0": np.array([0.0, 0.0])},
    lambda a, b: {"digest": core._sha256(a).upper()},
], ids=["other-laws-digest", "other-tag", "other-row-count", "row-count-of-the-file",
        "short-column", "atom-not-a-scalar", "digest-in-other-case"])
def test_mismatched_twin_is_ignored(two_laws, fields):
    a, b = two_laws
    forge(a, b, **fields(a, b))
    assert same_law(read_law_csv(a), text_law(a))


def test_twin_without_a_field_is_ignored(two_laws):
    a, b = two_laws
    with np.load(twin_of(b)) as twin:
        content = {name: twin[name] for name in twin.files if name != "tag"}
    np.savez(twin_of(a), **content)
    assert same_law(read_law_csv(a), text_law(a))


def test_csv_one_byte_off_reads_the_text(tmp_path):
    path = tmp_path / "law.csv"
    write_law_csv(gamma_table(3, 101), path)
    text = bytearray(path.read_bytes())
    second = text.index(b"\n", text.index(b"\n") + 1) + 1  # where the second row starts
    last = text.index(b"\n", second) - 1  # the last digit of its density
    text[last] = ord("1") if text[last] != ord("1") else ord("2")
    path.write_bytes(bytes(text))
    got = read_law_csv(path)
    assert same_law(got, text_law(path))
    assert got.pdf[1] != gamma_table(3, 101).pdf[1]


@pytest.mark.parametrize("keep", [0, 10, 100, 0.5, -1], ids=["empty", "10-bytes", "100-bytes",
                                                             "half", "all-but-one"])
def test_truncated_twin_is_ignored(tmp_path, keep):
    path = tmp_path / "law.csv"
    write_law_csv(gamma_table(3, 101), path)
    twin = twin_of(path).read_bytes()
    cut = int(len(twin) * keep) if isinstance(keep, float) else keep % len(twin)
    twin_of(path).write_bytes(twin[:cut])
    assert same_law(read_law_csv(path), text_law(path))


@pytest.mark.parametrize("content", [b"not a zip file", b"\x93NUMPY", None],
                         ids=["garbage", "npy-magic", "plain-npy"])
def test_twin_that_is_not_an_npz_is_ignored(tmp_path, content):
    path = tmp_path / "law.csv"
    write_law_csv(gamma_table(3, 101), path)
    if content is None:
        buf = io.BytesIO()
        np.save(buf, np.arange(3.0))
        content = buf.getvalue()
    twin_of(path).write_bytes(content)
    assert same_law(read_law_csv(path), text_law(path))


def test_directory_at_the_twins_path_is_ignored(tmp_path):
    path = tmp_path / "law.csv"
    write_law_csv(gamma_table(3, 101), path)
    twin_of(path).unlink()
    twin_of(path).mkdir()
    assert same_law(read_law_csv(path), text_law(path))


MALFORMED = {
    "unparsable-cell": "x,rho,atom0=0\n0,oops\n1,1\n",
    "no-rows": "x,rho,atom0=0\n",
    "ragged-row": "x,rho,atom0=0\n0,1\n1\n",
    "non-finite-x": "x,rho,atom0=0\n0,1\ninf,1\n",
    "nan-density": "x,rho,atom0=0\n0,nan\n1,1\n",
    "bad-header": "x,density,atom0=0\n0,1\n1,1\n",
    "mass-off": "x,rho,atom0=0\n0,1\n1,2\n",
    "atom-out-of-range": "x,rho,atom0=1.5\n0,1\n1,1\n",
}


@pytest.mark.parametrize("text", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_text_raises_the_same_error_beside_a_stale_twin(tmp_path, text):
    path = tmp_path / "law.csv"
    write_law_csv(gamma_table(3, 101), path)
    path.write_text(text)
    with pytest.raises(ValueError) as stale:
        read_law_csv(path)
    twin_of(path).unlink()
    with pytest.raises(ValueError) as alone:
        read_law_csv(path)
    assert str(stale.value) == str(alone.value)


@pytest.mark.parametrize("x, rho", [([0.0, np.inf], [1.0, 1.0]), ([0.0, 1.0], [np.nan, 1.0])],
                         ids=["infinite-x", "nan-density"])
def test_matching_twin_of_non_finite_values_raises_the_texts_error(tmp_path, x, rho):
    # the writer refuses such a table, so the file and its twin are made by hand
    path = tmp_path / "law.csv"
    x, rho = np.array(x), np.array(rho)
    path.write_text("x,rho,atom0=0\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, rho)))
    core._write_twin(path, [x, rho], 0.0)
    assert twin_of(path).exists()
    with pytest.raises(ValueError) as twin:
        read_law_csv(path)
    twin_of(path).unlink()
    with pytest.raises(ValueError, match="must hold finite numbers") as text:
        read_law_csv(path)
    assert str(twin.value) == str(text.value)


def test_matching_twin_of_a_law_without_rows_raises_the_texts_error(tmp_path):
    path = tmp_path / "law.csv"
    path.write_text("x,rho,atom0=0\n")
    core._write_twin(path, [np.empty(0), np.empty(0)], 0.0)
    assert twin_of(path).exists()
    with pytest.raises(ValueError, match="law file has no rows"):
        read_law_csv(path)


@pytest.mark.parametrize("x, rho, error", [
    ([0.0, np.inf], [1.0, 1.0], "column 'x' must hold finite numbers"),
    ([0.0, 1.0], [np.nan, 1.0], "column 'rho' must hold finite numbers"),
    ([], [], "law file has no rows"),
], ids=["infinite-x", "nan-density", "no-rows"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-path", "over-a-law"])
def test_writer_refuses_what_the_reader_rejects(tmp_path, x, rho, error, existing):
    path = tmp_path / "law.csv"
    if existing:
        write_law_csv(gamma_table(3, 101), path)
    before = listing(tmp_path)
    with pytest.raises(ValueError, match=error):
        write_law_csv(raw_law(np.array(x, dtype=float), np.array(rho, dtype=float), 0.0), path)
    assert listing(tmp_path) == before


# ---------------------------------------------------------------------------
# only the writer writes a twin
# ---------------------------------------------------------------------------


@pytest.fixture
def law_dir(tmp_path):
    """A directory holding a law file with its twin, and an empty output directory."""
    (tmp_path / "laws").mkdir()
    (tmp_path / "out").mkdir()
    write_law_csv(gamma_table(3, 401), tmp_path / "laws" / "law.csv")
    return tmp_path


@pytest.mark.parametrize("twin", ["matching", "stale", "absent"])
def test_reading_writes_nothing(law_dir, twin):
    laws = law_dir / "laws"
    if twin == "stale":
        forge(laws / "law.csv", laws / "law.csv", digest="0" * 64)
    elif twin == "absent":
        twin_of(laws / "law.csv").unlink()
    before = listing(laws)
    read_law_csv(laws / "law.csv")
    assert listing(laws) == before


@pytest.mark.parametrize("argv, outputs", [
    (["periodic", "--law", "table:LAW", "--nu0", 5, "--f", 3, "--harmonics", 4,
      "--samples", 8, "--out-prefix", "OUT/p"],
     ["p-beta-f3.csv", "p-sweep.csv", "p-trace-f3.csv"]),
    (["hazard", "--law", "table:LAW", "--lambda0", 10, "--tau-max", 0.1, "--out", "OUT/h.csv"],
     ["h.csv"]),
    (["validate", "LAW"], []),
], ids=["periodic", "hazard", "validate"])
@pytest.mark.parametrize("twin", ["matching", "stale"])
def test_commands_reading_a_law_write_no_twin(law_dir, argv, outputs, twin):
    laws, law = law_dir / "laws", law_dir / "laws" / "law.csv"
    if twin == "stale":
        forge(law, law, digest="0" * 64)
    before = listing(laws)
    argv = [str(a).replace("LAW", str(law)).replace("OUT", str(law_dir / "out")) for a in argv]
    assert run(argv) == 0
    assert listing(laws) == before
    assert sorted(os.listdir(law_dir / "out")) == outputs


@pytest.mark.skipif(os.name != "posix", reason="a symlink to the null device")
def test_law_to_a_device_writes_no_twin(tmp_path):
    law = tmp_path / "law.csv"
    law.symlink_to(os.devnull)
    write_law_csv(gamma_table(3, 101), law)
    assert os.listdir(tmp_path) == ["law.csv"]


def test_law_to_stdout_writes_no_twin(tmp_path, monkeypatch, capsys):
    # not even for a file that happens to be named "-"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text("")
    write_law_csv(gamma_table(3, 101), "-")
    assert run(["represent", "--process", "gamma:3,25", "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("x,rho,atom0=")
    assert os.listdir(tmp_path) == ["-"]


@pytest.mark.parametrize("argv, code", [
    (["represent", "--process", "gamma:3,25", "--lambda", 12], 3),
    (["represent", "--process", "lognormal:0,0.5,0.1", "--lambda", 3.0], 3),
    (["represent", "--process", "gamma:0,25"], 2),
], ids=["gamma-rate-too-small", "lognormal-rate-too-small", "gamma-index-zero"])
def test_failed_represent_leaves_no_file(tmp_path, argv, code):
    assert run([*argv, "--out", tmp_path / "law.csv"]) == code
    assert list(tmp_path.iterdir()) == []


def test_represent_with_a_directory_at_the_twins_path(tmp_path, capsys):
    assert run(["represent", "--process", "gamma:3,25", "--out", "-"]) == 0
    want = capsys.readouterr().out.encode("ascii")
    law = tmp_path / "law.csv"
    twin_of(law).mkdir()
    assert run(["represent", "--process", "gamma:3,25", "--out", law]) == 0
    assert law.read_bytes() == want
    assert sorted(os.listdir(tmp_path)) == [".law.csv.deadtime.npz", "law.csv"]
    assert twin_of(law).is_dir() and not any(twin_of(law).iterdir())


def test_represent_twin_matches_its_law(tmp_path):
    law = tmp_path / "law.csv"
    assert run(["represent", "--process", "gamma:3,25", "--out", law]) == 0
    assert core._read_twin(law) is not None
    with_twin = read_law_csv(law)
    shutil.copy(law, tmp_path / "copy.csv")
    assert same_law(with_twin, read_law_csv(tmp_path / "copy.csv"))
    assert not twin_of(tmp_path / "copy.csv").exists()
