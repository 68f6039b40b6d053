"""CLI contract: documents, round trips, pipelines, exit codes."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import warnings
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import hodgelap
from hodgelap import cli
from hodgelap.cli import (
    EXIT_BAD_DOCUMENT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    cli_main,
    document_dict,
    parse_document,
)
from hodgelap.core import closure_of, from_facets
from hodgelap.errors import DocumentError
from hodgelap.operators import WeightScheme


def run_cli(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_document_roundtrip(fixtures):
    for k in fixtures.values():
        doc = parse_document(json.dumps(document_dict(k)))
        assert doc.to_complex() == k


def test_parse_document_diagnostics():
    with pytest.raises(DocumentError) as err:
        parse_document('{"facets": [[0,1],,]}')
    assert err.value.line == 1 and err.value.column is not None
    with pytest.raises(DocumentError):
        parse_document('{"facets": []}')
    with pytest.raises(DocumentError):
        parse_document('{"facets": [[0, 0]]}')
    with pytest.raises(DocumentError):
        parse_document('[1, 2]')


def test_document_weights_validation():
    def parse(weights):
        return parse_document(json.dumps({"facets": [[0, 1]], "weights": weights}))

    doc = parse({"0": 1.0, "1": 2, "0,1": 1.0})
    assert doc.scheme.custom == {(0,): 1.0, (1,): 2.0, (0, 1): 1.0}
    assert all(type(w) is float for w in doc.scheme.custom.values())
    assert parse_document('{"facets": [[0, 1]]}').scheme is None
    with pytest.raises(DocumentError, match="cover every face"):
        parse({"0": 1.0})
    with pytest.raises(DocumentError, match="finite positive"):
        parse({"0": 1.0, "1": 1.0, "0,1": -1.0})
    with pytest.raises(DocumentError, match="not a face"):
        parse({"0": 1.0, "1": 1.0, "0,1": 1.0, "5": 1.0})


def test_generate_then_spectrum_pipeline(tmp_path, capsys):
    out = tmp_path / "c26.json"
    code, _, _ = run_cli(
        ["generate", "circuit", "--i", "2", "--m", "6", "-o", str(out)], capsys
    )
    assert code == EXIT_OK
    code, stdout, _ = run_cli(
        ["spectrum", str(out), "--dim", "2", "--direction", "down", "--scheme", "normalized"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    np.testing.assert_allclose(
        payload["eigenvalues"], [1, 1.5, 1.5, 2.5, 2.5, 3], atol=1e-9
    )
    assert payload["zero_multiplicity"] == 0
    assert "bounds" in payload and "betti" in payload


def test_spectrum_custom_scheme(tmp_path, capsys):
    doc = {
        "facets": [[0, 1], [1, 2]],
        "weights": {"0": 1.0, "1": 2.0, "2": 1.0, "0,1": 1.0, "1,2": 1.0},
    }
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(
        ["spectrum", str(path), "--dim", "0", "--scheme", "custom"], capsys
    )
    assert code == EXIT_OK
    assert len(json.loads(stdout)["eigenvalues"]) == 3


@pytest.mark.parametrize(
    "args", [["betti"], ["spectrum", "--dim", "0", "--scheme", "custom"]]
)
def test_each_command_builds_the_document_complex_and_scheme_once(
    tmp_path, capsys, monkeypatch, args
):
    doc = {
        "facets": [[0, 1], [1, 2]],
        "weights": {"0": 1.0, "1": 2.0, "2": 1.0, "0,1": 1.0, "1,2": 1.0},
    }
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    complexes, schemes = [], []
    build_scheme = WeightScheme.from_map

    def counting_from_facets(facets):
        complexes.append(facets)
        return from_facets(facets)

    def counting_from_map(mapping):
        schemes.append(mapping)
        return build_scheme(mapping)

    monkeypatch.setattr(cli, "from_facets", counting_from_facets)
    monkeypatch.setattr(WeightScheme, "from_map", staticmethod(counting_from_map))
    code, _, _ = run_cli([args[0], str(path)] + args[1:], capsys)
    assert code == EXIT_OK
    assert len(complexes) == 1
    assert len(schemes) == 1


def test_spectrum_wide_custom_weights(tmp_path, capsys):
    k = from_facets([[0, 1, 2, 3], [2, 3, 4], [4, 5]])
    rng = np.random.default_rng(3)
    weights = {
        ",".join(map(str, f)): float(10 ** rng.uniform(-6, 6)) for f in k.all_faces() if f
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"facets": [list(f) for f in k.facets()], "weights": weights}))
    for dim in range(k.dim + 1):
        for direction in ("up", "down", "full"):
            code, stdout, err = run_cli(
                ["spectrum", str(path), "--dim", str(dim), "--direction", direction,
                 "--scheme", "custom"],
                capsys,
            )
            assert code == EXIT_OK, err
            assert len(json.loads(stdout)["eigenvalues"]) == k.n_faces(dim)


@pytest.mark.parametrize(
    "bad",
    ["NaN", "Infinity", "true", "1e999", "1" + "0" * 400],
    ids=["nan", "infinity", "bool", "float-overflow", "int-overflow"],
)
def test_non_finite_or_boolean_weight_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text('{"facets": [[0, 1]], "weights": {"0": 1, "1": %s, "0,1": 1}}' % bad)
    code, _, err = run_cli(["spectrum", str(path), "--dim", "0", "--scheme", "custom"], capsys)
    assert code == EXIT_BAD_DOCUMENT and "finite positive" in err


def test_overflowing_weight_ratio_exits_3(tmp_path, capsys):
    path = tmp_path / "extreme.json"
    path.write_text('{"facets": [[0, 1]], "weights": {"0": 1e-300, "1": 1, "0,1": 1e300}}')
    code, stdout, err = run_cli(["spectrum", str(path), "--dim", "0", "--scheme", "custom"], capsys)
    assert code == EXIT_NUMERIC and stdout == "" and "non-finite" in err


def test_overflowing_weight_ratio_exits_3_without_warnings(tmp_path, capsys):
    path = tmp_path / "extreme.json"
    path.write_text('{"facets": [[0, 1]], "weights": {"0": 1e-300, "1": 1, "0,1": 1e300}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(
            ["spectrum", str(path), "--dim", "0", "--scheme", "custom"], capsys
        )
    assert code == EXIT_NUMERIC and "non-finite" in err


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.json"
    code, stdout, err = run_cli(
        ["generate", "simplex", "--n", "3", "--output", str(target)], capsys
    )
    assert code == EXIT_BAD_DOCUMENT and stdout == ""
    assert str(target) in err and "Traceback" not in err


def test_void_complex_has_no_document(capsys, monkeypatch):
    # Its only facet is the empty face, which no document may hold.
    void = closure_of([])
    with pytest.raises(DocumentError, match="void complex"):
        document_dict(void)
    monkeypatch.setattr(cli, "generate", lambda spec: void)
    code, stdout, err = run_cli(["generate", "simplex", "--n", "1"], capsys)
    assert code == EXIT_BAD_DOCUMENT and stdout == ""
    assert "void complex" in err and "Traceback" not in err


def test_import_and_verify_leave_scipy_unloaded():
    # numpy.ma, which a bare np.unique imports, costs about 1 MB and 12 ms.
    script = (
        "import contextlib, io, sys\n"
        "import hodgelap\n"
        "from hodgelap.cli import cli_main\n"
        "quiet = contextlib.redirect_stdout(io.StringIO())\n"
        "with quiet, contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli_main(['verify', '--suite', 'all'])\n"
        "print(code, 'scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(hodgelap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["0", "False", "False"]


def test_betti_subcommand(tmp_path, capsys):
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps({"facets": [[0, 1], [1, 2], [0, 2]]}))
    code, stdout, _ = run_cli(["betti", str(path)], capsys)
    assert code == EXIT_OK
    assert json.loads(stdout) == {"b~-1": 0, "b~0": 0, "b~1": 1}


def test_construct_subcommands(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"facets": [[0, 1, 2]]}))
    code, stdout, _ = run_cli(
        ["construct", "wedge", str(tri), str(tri), "--face", "0,1"], capsys
    )
    assert code == EXIT_OK
    wedge = parse_document(stdout).to_complex()
    assert wedge.n_faces(0) == 4 and wedge.n_faces(2) == 2

    code, stdout, _ = run_cli(["construct", "cone", str(tri)], capsys)
    assert code == EXIT_OK
    assert parse_document(stdout).to_complex() == from_facets([[0, 1, 2, 3]])

    code, stdout, _ = run_cli(
        ["construct", "duplicate", str(tri), "--motif", "0"], capsys
    )
    assert code == EXIT_OK
    dup = parse_document(stdout).to_complex()
    assert dup.n_faces(2) == 2

    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"facets": [[0, 1]]}))
    code, stdout, _ = run_cli(["construct", "join", str(edge), str(edge)], capsys)
    assert code == EXIT_OK
    assert parse_document(stdout).to_complex() == from_facets([[0, 1, 2, 3]])

    code, stdout, _ = run_cli(["construct", "product", str(edge), str(edge)], capsys)
    assert code == EXIT_OK
    assert parse_document(stdout).to_complex().n_faces(1) == 4


@pytest.mark.parametrize(
    "args, message",
    [
        (["wedge", "tri", "tri", "--face", "0", "--face", "1", "--face", "2"], "once or twice"),
        (["cone", "tri", "--face", "0", "--motif", "5"], "--face applies to wedge only"),
        (["join", "tri", "tri", "--motif", "5"], "--motif applies to duplicate only"),
    ],
    ids=["three-faces", "cone-face-motif", "join-motif"],
)
def test_construct_rejects_options_that_do_not_apply(tmp_path, args, message):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"facets": [[0, 1, 2]]}))
    argv = ["construct"] + [str(tri) if a == "tri" else a for a in args]
    src = str(Path(hodgelap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "hodgelap"] + argv, capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert run.returncode == EXIT_BAD_DOCUMENT and run.stdout == ""
    assert message in run.stderr and "Traceback" not in run.stderr


def test_exit_code_bad_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"facets": [[0, 0, 1]]}')
    code, _, err = run_cli(["betti", str(bad)], capsys)
    assert code == EXIT_BAD_DOCUMENT and "repeated vertex" in err

    worse = tmp_path / "worse.json"
    worse.write_text('{"facets": [[0,1],,]}')
    code, _, err = run_cli(["betti", str(worse)], capsys)
    assert code == EXIT_BAD_DOCUMENT and "line 1" in err

    code, _, _ = run_cli(["betti", str(tmp_path / "missing.json")], capsys)
    assert code == EXIT_BAD_DOCUMENT


def test_verify_small_suite_passes(capsys):
    code, stdout, err = run_cli(["verify", "--suite", "wedge"], capsys)
    assert code == EXIT_OK
    lines = [json.loads(line) for line in stdout.strip().splitlines()]
    assert lines and all(line["pass"] for line in lines)
    assert "0 failed" in err


def test_verify_with_user_complex(tmp_path, capsys):
    path = tmp_path / "user.json"
    path.write_text(json.dumps({"facets": [[0, 1, 2], [1, 2, 3]], "name": "user"}))
    code, stdout, _ = run_cli(
        ["verify", str(path), "--suite", "hodge", "--random-count", "0"], capsys
    )
    assert code == EXIT_OK
    assert any("user-user" in line for line in stdout.splitlines())


def test_verify_refuses_two_documents_of_one_name(tmp_path, capsys):
    # A filled and a hollow triangle, both filed as user-t.
    for folder, facets in (("a", [[0, 1, 2]]), ("b", [[0, 1], [1, 2], [0, 2]])):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "t.json").write_text(json.dumps({"facets": facets}))
    args = ["--suite", "hodge", "--random-count", "0"]
    code, stdout, err = run_cli(
        ["verify", str(tmp_path / "a" / "t.json"), str(tmp_path / "b" / "t.json")] + args, capsys
    )
    assert code == EXIT_BAD_DOCUMENT and stdout == ""
    assert "'user-t'" in err and "Traceback" not in err
    (tmp_path / "b" / "t.json").rename(tmp_path / "b" / "u.json")
    code, stdout, _ = run_cli(
        ["verify", str(tmp_path / "a" / "t.json"), str(tmp_path / "b" / "u.json")] + args, capsys
    )
    assert code == EXIT_OK
    names = {json.loads(line)["inputs"]["complex"] for line in stdout.splitlines()}
    assert {"user-t", "user-u"} <= names


@pytest.mark.parametrize("suite", ["families", "wedge", "join", "duplication", "all"])
def test_verify_takes_documents_only_for_suites_that_read_them(tmp_path, capsys, suite):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"facets": [[0, 1, 2]]}))
    code, stdout, err = run_cli(
        ["verify", str(path), "--suite", suite, "--random-count", "0"], capsys
    )
    if suite == "all":
        assert code == EXIT_OK
        assert any('"complex": "user-tri"' in line for line in stdout.splitlines())
    else:
        assert code == EXIT_BAD_DOCUMENT and stdout == ""
        assert err == f"error: --suite {suite} does not read documents\n"


def test_verify_a_cycle_longer_than_the_recursion_limit(tmp_path, capsys):
    # An odd cycle: the clique bound is 2 and the DSATUR coloring takes 3,
    # so the search for a 2-coloring backtracks through all 1201 vertices
    # before it fails.
    n = 1201
    label = np.random.default_rng(0).permutation(n).tolist()
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"facets": [[label[j], label[(j + 1) % n]] for j in range(n)]}))
    code, stdout, _ = run_cli(["verify", str(path), "--suite", "boundary"], capsys)
    assert code == EXIT_OK
    assert sum('"complex": "user-' in line for line in stdout.splitlines()) == 1


def test_verify_impossible_tolerance_fails(capsys):
    code, stdout, err = run_cli(
        ["verify", "--suite", "duplication", "--tol", "1e-300"], capsys
    )
    assert code == EXIT_VERIFY_FAILED
    assert "failed" in err


def test_a_failed_verify_exits_1_after_its_summary(capsys):
    code, stdout, err = run_cli(["verify", "--suite", "duplication", "--tol", "0"], capsys)
    assert code == EXIT_VERIFY_FAILED
    statuses = [json.loads(line)["status"] for line in stdout.splitlines()]
    failed, n_na = statuses.count("fail"), statuses.count("not-applicable")
    assert failed
    assert err == (
        f"verify: {len(statuses)} checks, {failed} failed, {n_na} not applicable\n"
        f"error: {failed} checks failed\n"
    )


def test_verify_reports_sorted(capsys):
    code, stdout, _ = run_cli(["verify", "--suite", "join"], capsys)
    assert code == EXIT_OK
    rows = [json.loads(line) for line in stdout.strip().splitlines()]
    keys = [r["theorem_id"] for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "argv, code",
    [(["verify", "--suite", "join"], EXIT_OK), (["generate", "no-such-family"], EXIT_BAD_DOCUMENT)],
    ids=["report", "usage-error"],
)
def test_a_redirected_stream_is_freed_after_the_call(argv, code):
    # An in-process caller that hands every call fresh buffers, as a
    # benchmark or a notebook does, must get them back: the CLI keeps no
    # reference to a stream it wrote to.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli_main(argv) == code
    assert err.getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"facets": [[0, 1, 2]]}))
    code, _, err = run_cli(["spectrum", str(path), "--dim", "0"], capsys)
    assert code == EXIT_NUMERIC and "numeric" in err.lower()


def test_cli_spectrum_matches_library(tmp_path, capsys):
    from hodgelap.operators import WeightScheme, laplacian
    from hodgelap.spectra import spectrum

    path = tmp_path / "k.json"
    path.write_text(json.dumps({"facets": [[0, 1, 2], [1, 2, 3]]}))
    code, stdout, _ = run_cli(
        ["spectrum", str(path), "--dim", "1", "--direction", "full"], capsys
    )
    assert code == EXIT_OK
    cli_vals = json.loads(stdout)["eigenvalues"]
    lib = spectrum(
        laplacian(from_facets([[0, 1, 2], [1, 2, 3]]), 1, "full", WeightScheme.normalized())
    )
    lib_vals = [float(f"{v:.12g}") for v in lib.values]
    assert cli_vals == lib_vals


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_spectrum_rejects_a_bad_zero_tol(tmp_path, capsys, value):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"facets": [[0, 1, 2], [2, 3, 4]]}))
    code, stdout, err = run_cli(["spectrum", str(path), "--dim", "0", "--zero-tol", value], capsys)
    assert code == EXIT_BAD_DOCUMENT and stdout == ""
    assert "--zero-tol" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["wedge", "tri", "tri", "--face", "a"],
        ["wedge", "tri", "tri", "--face", ","],
        ["wedge", "tri", "tri", "--face", "0,1", "--face", "1,"],
        ["duplicate", "tri", "--motif", "1,x"],
        ["duplicate", "tri", "--motif", ""],
    ],
    ids=["face-letter", "face-comma", "second-face-empty-vertex", "motif-letter", "motif-empty"],
)
def test_construct_rejects_malformed_vertices(tmp_path, capsys, args):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"facets": [[0, 1, 2]]}))
    argv = ["construct"] + [str(tri) if a == "tri" else a for a in args]
    code, stdout, err = run_cli(argv, capsys)
    assert code == EXIT_BAD_DOCUMENT and stdout == ""
    assert ("--face" in err or "--motif" in err) and "comma-joined integers" in err


@pytest.mark.parametrize(
    "args, option",
    [
        (["--tol", "nan"], "--tol"),
        (["--tol", "inf"], "--tol"),
        (["--tol", "-1"], "--tol"),
        (["--random-count", "-1"], "--random-count"),
    ],
)
def test_verify_rejects_bad_tolerance_and_count(capsys, args, option):
    code, stdout, err = run_cli(["verify", "--suite", "join"] + args, capsys)
    assert code == EXIT_BAD_DOCUMENT and stdout == ""
    assert option in err and "Traceback" not in err


def test_verify_accepts_a_zero_tolerance_and_count(capsys):
    code, stdout, _ = run_cli(["verify", "--suite", "join", "--random-count", "0"], capsys)
    assert code == EXIT_OK and stdout
    # A zero tolerance is valid; rounding makes the checks fail, as 1e-300 does.
    code, stdout, err = run_cli(["verify", "--suite", "duplication", "--tol", "0"], capsys)
    assert code == EXIT_VERIFY_FAILED and stdout and "Invalid value" not in err


# Vertex labels and weights as a document may hold them, most of them wrong.
_LABELS = st.one_of(
    st.integers(0, 5),
    st.integers(-3, -1),
    st.integers(2**63 - 1, 2**64),
    st.just(10**40),
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
)
_GOOD_WEIGHTS = st.floats(0.5, 2.0)
_ANY_WEIGHTS = st.one_of(
    _GOOD_WEIGHTS,
    st.floats(1e-300, 1e300),
    st.integers(-2, 3),
    st.just(10**400),
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)


def _face_keys(facets) -> list[str]:
    """Comma-joined keys of every face the facets would close to, where they sort."""
    faces = set()
    for facet in facets if isinstance(facets, list) else []:
        try:
            vertices = sorted(set(facet))
        except TypeError:
            continue
        for size in range(1, len(vertices) + 1):
            faces.update(combinations(vertices, size))
    return sorted(",".join(str(v) for v in face) for face in faces)


@st.composite
def _documents(draw) -> bytes:
    """A document with at most one flaw, or text or bytes that need not be JSON."""
    flaw = draw(st.sampled_from(["none", "none", "facets", "weights", "name", "text", "bytes"]))
    if flaw == "text":
        return draw(st.text(max_size=40)).encode()
    if flaw == "bytes":
        return draw(st.binary(max_size=40))
    facets = draw(
        st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
                 min_size=1, max_size=4)
    )
    if flaw == "facets":
        facets = draw(
            st.one_of(
                st.lists(st.lists(_LABELS, max_size=4), max_size=4),
                st.lists(st.one_of(_LABELS, st.lists(st.lists(st.integers(0, 3)))), max_size=3),
                _LABELS,
                st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
            )
        )
    document = {"facets": facets}
    keys = _face_keys(facets)
    if flaw == "weights":
        document["weights"] = draw(
            st.one_of(
                st.fixed_dictionaries({key: _ANY_WEIGHTS for key in keys}),
                st.fixed_dictionaries({key: _GOOD_WEIGHTS for key in keys[1:]}),
                st.fixed_dictionaries(
                    {key: st.sampled_from([1e-300, 1.0, 1e300]) for key in keys}
                ),
                st.dictionaries(st.text(max_size=4), _GOOD_WEIGHTS, min_size=1, max_size=3).map(
                    lambda extra: {**{key: 1.0 for key in keys}, **extra}
                ),
                st.lists(_ANY_WEIGHTS, max_size=3),
                _LABELS,
            )
        )
    elif draw(st.booleans()):
        document["weights"] = draw(st.fixed_dictionaries({key: _GOOD_WEIGHTS for key in keys}))
    if flaw == "name":
        document["name"] = draw(_LABELS)
    elif draw(st.booleans()):
        document["name"] = draw(st.text(max_size=4))
    return json.dumps(document).encode()


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=_documents(), dim=st.integers(-2, 3) | st.integers(0, 2))
@example(document=b"[" * 100_000, dim=0)
@example(document=b'{"facets": [[' + b"9" * 5000 + b"]]}", dim=0)
@example(document=b"\xff\xfe{}", dim=0)
@example(document=b'{"facets": [[0, 1]], "weights": {"0": 1e-300, "1": 1, "0,1": 1e300}}', dim=0)
def test_any_document_ends_in_a_documented_exit_code(tmp_path, capsys, document, dim):
    path = tmp_path / "fuzzed.json"
    path.write_bytes(document)
    for args in (
        ["betti", str(path)],
        ["spectrum", str(path), "--dim", str(dim), "--scheme", "custom"],
    ):
        # Any other exception would reach the console script as a traceback.
        code, _, err = run_cli(args, capsys)
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_BAD_DOCUMENT, EXIT_NUMERIC)
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [["generate", "simplex", "--n", "64"], ["generate", "circuit", "--i", "40", "--m", "3"]],
)
def test_huge_complexes_exit_2(args, capsys):
    code, stdout, stderr = run_cli(args, capsys)
    assert code == EXIT_BAD_DOCUMENT
    assert stdout == "" and "more than" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize(
    "family, own, refused",
    [
        ("simplex", ["--n", "3"], ["--m", "7"]),
        ("simplex", ["--n", "3"], ["--i", "1"]),
        ("circuit", ["--i", "1", "--m", "4"], ["--n", "9"]),
        ("path", ["--i", "2", "--m", "3"], ["--n", "4"]),
        ("star", ["--i", "1", "--m", "3"], ["--n", "2"]),
        ("moebius-circuit", [], ["--i", "2"]),
        ("moebius-circuit", [], ["--m", "5"]),
    ],
)
def test_generate_refuses_an_option_its_family_does_not_read(family, own, refused, capsys):
    code, stdout, _ = run_cli(["generate", family, *own], capsys)
    assert code == EXIT_OK and json.loads(stdout)["facets"]
    code, stdout, stderr = run_cli(["generate", family, *own, *refused], capsys)
    assert code == EXIT_BAD_DOCUMENT and stdout == ""
    assert f"{refused[0]} does not apply to {family}" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("solver, suite", [("eigh", "duplication"), ("eigvalsh", "boundary")])
def test_a_lapack_failure_in_a_theorem_check_exits_3(solver, suite, capsys, monkeypatch):
    real = getattr(np.linalg, solver)

    def failing(matrix):
        # Fail the solves a check asks spectra for outside spectrum(): its own
        # dense solves and the component blocks of the boundary check.  The
        # spectra it reads still solve, so the failure is not met first
        # inside spectrum().
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "spectrum":
            if frame.f_globals["__name__"] == "hodgelap.theorems":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            frame = frame.f_back
        return real(matrix)

    monkeypatch.setattr(np.linalg, solver, failing)
    code, _, stderr = run_cli(["verify", "--suite", suite, "--random-count", "0"], capsys)
    assert code == EXIT_NUMERIC
    assert "eigensolver failed" in stderr and "Traceback" not in stderr


def test_huge_document_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"facets": [list(range(40))]}))
    code, _, stderr = run_cli(["betti", str(path)], capsys)
    assert code == EXIT_BAD_DOCUMENT and "more than" in stderr


def test_betti_takes_vertex_labels_past_int64(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"facets": [[0, 1, 1 << 70], [1, 1 << 64]]}))
    code, stdout, stderr = run_cli(["betti", str(path)], capsys)
    assert code == EXIT_OK, stderr
    assert json.loads(stdout) == {"b~-1": 0, "b~0": 0, "b~1": 0, "b~2": 0}


@pytest.mark.parametrize(
    "facets, message",
    [
        ("[[0, true]]", "facet [0, True] must be a list of integers"),
        ("[[0, 1.5]]", "facet [0, 1.5] must be a list of integers"),
        ("[[0, 1], [-1, 2]]", "vertex ids must be non-negative ints: [-1, 2]"),
        ("[[0, 1], [2, 3, 2]]", "repeated vertex in face [2, 3, 2]"),
        ("[[0, 1], []]", "facets must be non-empty vertex lists"),
    ],
    ids=["bool", "float", "negative", "repeated", "empty"],
)
def test_betti_rejects_malformed_vertex_lists(tmp_path, capsys, facets, message):
    path = tmp_path / "bad.json"
    path.write_text('{"facets": %s}' % facets)
    code, stdout, stderr = run_cli(["betti", str(path)], capsys)
    assert code == EXIT_BAD_DOCUMENT and stdout == ""
    assert stderr == f"error: {message}\n"
