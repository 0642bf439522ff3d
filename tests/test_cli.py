import json

import pytest

from tvbcox import bundle, cli, gz
from tvbcox.bundle import example_514_bundle, tangent_bundle
from tvbcox.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_bundle_file,
    serialize_bundle,
)


@pytest.fixture
def ex514_path(tmp_path):
    path = tmp_path / "ex514.json"
    path.write_text(serialize_bundle(example_514_bundle()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roundtrip_is_byte_identical():
    text = serialize_bundle(example_514_bundle())
    assert serialize_bundle(parse_bundle_file(text)) == text


def test_parse_rejects_zero_denominator():
    with pytest.raises(cli.InputError):
        parse_bundle_file('{"n": 1, "s": 2, "M": [["1/0", "1"]], "D": [[0, 1]]}')


def test_parse_rejects_shape_mismatch():
    with pytest.raises(cli.InputError):
        parse_bundle_file('{"n": 2, "s": 2, "M": [["1", "1"]], "D": [[0, 1]]}')


def test_parse_rejects_malformed_structure():
    with pytest.raises(cli.InputError):
        parse_bundle_file("[1, 2]")
    with pytest.raises(cli.InputError):
        parse_bundle_file('{"n": 1, "s": 2, "M": [["1", "1"]], "D": [3]}')
    with pytest.raises(cli.InputError):
        parse_bundle_file('{"n": 1, "s": 2, "M": [["1", "1"]], "D": [[0, 1.5]]}')


def test_analyze_example(capsys, ex514_path):
    code, out, _ = run(capsys, "analyze", ex514_path)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["ci_stability"] == 1
    assert report["results"]["witness"]["A"] == [1, 2, 3]
    assert report["results"]["class"]["hypersurface"] is True


def test_analyze_tangent3(capsys, tmp_path):
    path = tmp_path / "t3.json"
    path.write_text(serialize_bundle(tangent_bundle(3)))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["results"]["ci_stability"] == 2


def test_analyze_reports_are_reproducible(capsys, ex514_path):
    _, out1, _ = run(capsys, "analyze", ex514_path)
    _, out2, _ = run(capsys, "analyze", ex514_path)
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"] == r2["results"]
    assert r1["inputs_hash"] == r2["inputs_hash"]


def test_analyze_malformed_rational(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "s": 2, "M": [["1/0", "1"]], "D": [[0, 1]]}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert "input error" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.json")
    assert code == EXIT_USAGE


def test_ci_stability_command(capsys, ex514_path):
    code, out, _ = run(capsys, "ci-stability", ex514_path)
    assert code == EXIT_OK
    assert json.loads(out)["results"]["ci_stability"] == 1


@pytest.mark.parametrize("command", ["analyze", "ci-stability"])
def test_stability_builds_one_ci_profile(capsys, ex514_path, monkeypatch, command):
    calls = []
    profile = bundle._ci_profile
    monkeypatch.setattr(bundle, "_ci_profile", lambda b: calls.append(1) or profile(b))
    code, _, _ = run(capsys, command, ex514_path)
    assert code == EXIT_OK
    assert len(calls) == 1


def test_region_csv_and_svg(capsys, tmp_path):
    svg = tmp_path / "region.svg"
    code, out, _ = run(
        capsys, "region", "--r-max", "6", "--s-max", "8", "--svg", str(svg)
    )
    assert code == EXIT_OK
    assert "4,6,2" in out
    assert svg.read_text().startswith("<svg")


def test_cox_tangent_emit(capsys):
    code, out, _ = run(capsys, "cox", "tangent", "--n", "2", "--m", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["results"]["generators"]) == 5


def test_cox_tangent_kernel_cap(capsys):
    code, _, err = run(
        capsys, "cox", "tangent", "--n", "3", "--m", "3", "--verify-kernel"
    )
    assert code == EXIT_CAP
    assert "cap exceeded" in err


def test_analyze_caps_ray_subsets(capsys, tmp_path):
    path = tmp_path / "tangent16.json"
    path.write_text(serialize_bundle(tangent_bundle(16)))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_CAP
    assert out == ""
    assert "17 rays" in err


def test_determinant_cap_exits_3(capsys):
    for argv in (["tangent", "--n", "7", "--m", "7"], ["quiver", "--n", "7"]):
        code, out, err = run(capsys, "cox", *argv)
        assert code == EXIT_CAP
        assert out == ""
        assert "cap exceeded: determinant side 7 exceeds cap 6" in err


def test_cox_tangent_rejects_m_above_n(capsys):
    code, _, err = run(capsys, "cox", "tangent", "--n", "2", "--m", "3")
    assert code == EXIT_USAGE
    assert "input error" in err


def test_cox_tangent_names_bad_n(capsys):
    code, _, err = run(capsys, "cox", "tangent", "--n", "0", "--m", "1")
    assert code == EXIT_USAGE
    assert "input error: need n >= 1, got n = 0" in err


def test_cox_lemma_command(capsys):
    code, out, _ = run(capsys, "cox", "lemma-js", "--n", "2", "--set", "1,2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["is_groebner_basis"] is True


def test_cox_pluecker_command(capsys):
    code, out, _ = run(capsys, "cox", "pluecker-match")
    assert code == EXIT_OK


def test_cauchy_command(capsys):
    code, out, _ = run(
        capsys, "cauchy", "--dim-e", "2", "--dim-v", "2", "--max-degree", "3"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "d,lhs,rhs,equal"
    assert lines[3] == "2,10,10,true"


def test_gz_verify_command(capsys):
    code, out, _ = run(capsys, "gz", "verify", "--n", "2")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["confluence"]["confluent"] is True


def test_gz_subduct_command(capsys):
    code, out, _ = run(
        capsys,
        "gz",
        "subduct",
        "--n",
        "2",
        "--word1",
        "[-1],[{1},0]",
        "--word2",
        "[-0],[{1},1]",
    )
    assert code == EXIT_OK
    assert json.loads(out)["results"]["success"] is True


def test_gz_subduct_checks_generators_before_summing(capsys):
    code, _, err = run(
        capsys, "gz", "subduct", "--n", "2", "--word1", "[-5]", "--word2", "[-5]"
    )
    assert code == EXIT_USAGE
    assert "input error: negated index 5 out of range 0..2" in err


def test_gz_verify_caps_the_word_sweep(capsys, monkeypatch):
    def built(word, n):
        raise AssertionError("the sweep built a word past its cap")

    monkeypatch.setattr(gz, "word_pattern_sum", built)
    code, out, err = run(capsys, "gz", "verify", "--n", "4", "--max-word-length", "6")
    assert code == EXIT_CAP
    assert out == ""
    assert "1947791 words up to length 6, over the cap 65536" in err


def test_gz_subduct_unequal_sums(capsys):
    code, _, err = run(
        capsys, "gz", "subduct", "--n", "2", "--word1", "[-1]", "--word2", "[-2]"
    )
    assert code == EXIT_USAGE


def test_report_file_written(capsys, ex514_path, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", ex514_path, "--report", str(report_path))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(report_path.read_text())["command"] == "analyze"


def test_report_in_missing_directory(capsys, ex514_path):
    code, out, err = run(capsys, "analyze", ex514_path, "--report", "/no/such/dir/r.json")
    assert code == EXIT_USAGE
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"n": 3, "s": 3, "M": [["1", "1", "1"]],'
            ' "D": [[true, false, false], [0, 1, 0], [0, 0, 1]]}',
            "diagram entry True is not an integer",
        ),
        (
            '{"n": 3, "s": 3, "M": ["111"], "D": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            "M must be an array of rows, each a JSON array",
        ),
        (
            '{"n": 1, "s": 3, "M": [["1", "1", "1"]], "D": ["100"]}',
            "D must be an array of rows, each a JSON array",
        ),
    ],
    ids=["boolean-diagram-entry", "string-row-of-M", "string-row-of-D"],
)
def test_analyze_rejects_boolean_entries_and_rows_that_are_not_arrays(
    capsys, tmp_path, text, message
):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"input error: {message}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "6"], "n = 6 has 349503 words up to length 3, over the cap 65536"),
        (
            ["--n", "6", "--max-word-length", "2"],
            "n = 6 has 7140 P-variable pairs, over the cap 2048",
        ),
    ],
    ids=["word-cap", "pair-cap"],
)
def test_gz_verify_checks_its_caps_before_building_psi(capsys, monkeypatch, argv, message):
    def built(n):
        raise AssertionError("psi was built before the caps were checked")

    monkeypatch.setattr(gz, "build_psi", built)
    code, out, err = run(capsys, "gz", "verify", *argv)
    assert code == EXIT_CAP
    assert out == ""
    assert message in err
