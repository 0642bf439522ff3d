import json
from types import SimpleNamespace

import pytest

from tvbcox import bundle, cli, cox, gz, poly
from tvbcox.bundle import example_514_bundle, tangent_bundle
from tvbcox.cli import (
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_bundle_file,
)
from oracles import serialize_bundle


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


@pytest.mark.parametrize("command", ["analyze", "ci-stability"])
def test_rational_m_reads_as_its_rows_scaled_to_integers(capsys, tmp_path, command):
    # each row of M times the lcm of its denominators: 4 and 6
    diagram = [[2, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]
    rows = {
        "rational": [["1/2", "-3/4", "1", "0"], ["0", "2/3", "5/6", "1"]],
        "integral": [["2", "-3", "4", "0"], ["0", "4", "5", "6"]],
    }
    results = {}
    for label, m in rows.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"n": 4, "s": 4, "M": m, "D": diagram, "label": label}))
        code, out, _ = run(capsys, command, str(path))
        assert code == EXIT_OK
        results[label] = json.loads(out)["results"]
        assert results[label].pop("label", label) == label
    assert results["rational"] == results["integral"]
    assert results["rational"]["ci_stability"] == 1


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


def test_one_parser_serves_every_call(capsys, tmp_path, ex514_path, monkeypatch):
    # the reports' seconds read 0.0, so a call's output is the same bytes
    # each time it runs
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: 0.0))
    report = tmp_path / "report.json"
    calls = [
        ["analyze", ex514_path, "--report", str(report)],
        ["cox", "tangent", "--n", "2", "--m", "2"],
        ["analyze", ex514_path],
    ]

    def outputs(argv):
        report.unlink(missing_ok=True)
        code, out, err = run(capsys, *argv)
        return code, out, err, report.read_text() if report.exists() else None

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(outputs(argv))
    assert alone[0][1] == "" and alone[0][3] and alone[2][1] and alone[2][3] is None
    cli.build_parser.cache_clear()
    for k in (0, 1, 2, 0, 2, 1, 1, 0):
        assert outputs(calls[k]) == alone[k]
    assert cli.build_parser.cache_info().misses == 1


def test_region_csv_and_svg(capsys, tmp_path):
    svg = tmp_path / "region.svg"
    code, out, _ = run(
        capsys, "region", "--r-max", "6", "--s-max", "8", "--svg", str(svg)
    )
    assert code == EXIT_OK
    assert "4,6,2" in out
    assert svg.read_text().startswith("<svg")


def test_region_csv_goes_to_the_file_alone(capsys, tmp_path):
    csv = tmp_path / "region.csv"
    code, out, _ = run(capsys, "region", "--r-max", "6", "--s-max", "8", "--csv", str(csv))
    assert code == EXIT_OK
    assert out == ""
    text = csv.read_text()
    assert text.startswith("r,s,stability\n") and "4,6,2" in text


def test_cox_tangent_verify_kernel_exits_1_when_unequal(capsys, monkeypatch):
    real = cox.verify_kernel
    monkeypatch.setattr(cox, "verify_kernel", lambda n, **kw: {**real(n, **kw), "equal": False})
    code, out, _ = run(capsys, "cox", "tangent", "--n", "2", "--m", "2", "--verify-kernel")
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["results"]["kernel"]["equal"] is False


def test_cox_tangent_emit(capsys):
    code, out, _ = run(capsys, "cox", "tangent", "--n", "2", "--m", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["results"]["generators"]) == 5


def test_cox_tangent_kernel_cap(capsys):
    code, _, err = run(
        capsys, "cox", "tangent", "--n", "5", "--m", "5", "--verify-kernel"
    )
    assert code == EXIT_CAP
    assert "cap exceeded" in err


def test_cox_tangent_kernel_cap_comes_before_the_basis(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a basis was computed before the kernel cap was checked")

    monkeypatch.setattr(poly, "buchberger", refused)
    code, out, err = run(
        capsys, "cox", "tangent", "--n", "5", "--m", "5", "--emit", "gb", "--verify-kernel"
    )
    assert code == EXIT_CAP
    assert out == ""
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lemma-js", "--n", "3", "--set", "0,1"], "column index out of range 1..3"),
        (["lemma-js", "--n", "3", "--set", "4"], "column index out of range 1..3"),
        (["lemma-js", "--n", "3", "--set", ","], "subset must be nonempty"),
        (["quiver", "--n", "1"], "need n >= 2"),
        (["lemma-js", "--n", "2", "--set", "\u0661"], "not an integer: '\u0661'"),
        (["lemma-js", "--n", "2", "--set", "1,\u0662"], "not an integer: '\u0662'"),
        (["lemma-js", "--n", "2", "--set", "1_0"], "not an integer: '1_0'"),
    ],
)
def test_cox_lemma_and_quiver_refuse_bad_input(capsys, argv, message):
    code, out, err = run(capsys, "cox", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"input error: {message}" in err


def test_cox_tangent_rejects_m_above_n(capsys):
    code, _, err = run(capsys, "cox", "tangent", "--n", "2", "--m", "3")
    assert code == EXIT_USAGE
    assert "input error" in err


def test_cox_tangent_verify_kernel_needs_m_equal_n(capsys):
    code, out, err = run(
        capsys, "cox", "tangent", "--n", "3", "--m", "2", "--verify-kernel"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "input error: --verify-kernel checks the m = n presentation only" in err


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


def test_cox_pluecker_command_fails_on_a_flipped_sign(capsys, monkeypatch):
    monkeypatch.setitem(cox.PLUCKER_SUBSTITUTION, "Y1_1", "p24")
    code, out, _ = run(capsys, "cox", "pluecker-match")
    assert code == EXIT_CHECK_FAILED
    results = json.loads(out)["results"]
    assert results["found"] is False and results["ideal_equal"] is False


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


def test_gz_verify_exits_1_on_a_clash(capsys, broken_confluence):
    code, out, _ = run(capsys, "gz", "verify", "--n", "2", "--max-word-length", "2")
    assert code == EXIT_CHECK_FAILED
    confluence = json.loads(out)["results"]["confluence"]
    assert confluence["confluent"] is False
    assert confluence["clashes"] == [["[-0],[{1},1]", "[-1],[{1},0]"]]


def test_cauchy_rejects_a_negative_degree(capsys):
    code, out, err = run(capsys, "cauchy", "--dim-e", "2", "--dim-v", "2", "--max-degree", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "largest degree must be at least 0, got -1" in err


@pytest.mark.parametrize("degree", ["40", "1000000000000"])
def test_cauchy_over_its_cap_exits_3(capsys, degree):
    code, out, err = run(capsys, "cauchy", "--dim-e", "20", "--dim-v", "20", "--max-degree", degree)
    assert code == EXIT_CAP
    assert out == ""
    assert f"degrees 0 to {degree} have at least" in err


def test_region_over_its_cap_exits_3(capsys, tmp_path):
    # 2 * 32770 - 3 = 65,537 rows, one over the cap of 2^16
    svg = tmp_path / "region.svg"
    code, out, err = run(capsys, "region", "--r-max", "2", "--s-max", "32770", "--svg", str(svg))
    assert code == EXIT_CAP
    assert out == "" and not svg.exists()
    assert "the (r, s) grid has 65537 rows, over the cap 65536" in err


def test_region_refuses_r_max_below_2(capsys):
    code, out, err = run(capsys, "region", "--r-max", "1", "--s-max", "5")
    assert code == EXIT_USAGE
    assert out == ""
    assert "input error: need 2 <= r_max < s_max" in err


@pytest.mark.parametrize(
    "command, digits, ascii_digits",
    [
        ("cox quiver --n {}", "\u0662", "2"),
        ("region --r-max {} --s-max 5", "\uff12", "2"),
        ("gz verify --n 2 --max-word-length {}", "1_0", "10"),
    ],
)
def test_integer_options_are_ascii_digits(capsys, command, digits, ascii_digits):
    # int() reads Arabic-Indic and fullwidth digits and underscores; an
    # option takes ASCII digits only, and those spell the same int
    with pytest.raises(SystemExit) as exc:
        main(command.format(digits).split())
    assert exc.value.code == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert f"invalid integer value: {digits!r}" in out.err
    args = cli.build_parser().parse_args(command.format(ascii_digits).split())
    assert int(digits) in vars(args).values()


@pytest.mark.parametrize("dims", [("-1", "-1"), ("-2", "3")])
def test_cauchy_rejects_a_negative_dimension(capsys, dims):
    # a negative dimension is an input error, not a failed Cauchy identity
    e, v = dims
    code, out, err = run(capsys, "cauchy", "--dim-e", e, "--dim-v", v, "--max-degree", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"dimensions must be at least 0, got dim_e = {e}, dim_v = {v}" in err


@pytest.mark.parametrize("length", ["0", "-1"])
def test_gz_verify_rejects_a_sweep_of_no_word(capsys, length):
    code, out, err = run(capsys, "gz", "verify", "--n", "2", "--max-word-length", length)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"largest word length must be at least 1, got {length}" in err


def test_gz_verify_hashes_the_word_length(capsys):
    hashes = set()
    for length in ("2", "3"):
        code, out, _ = run(capsys, "gz", "verify", "--n", "2", "--max-word-length", length)
        assert code == EXIT_OK
        hashes.add(json.loads(out)["inputs_hash"])
    assert len(hashes) == 2


def test_gz_subduct_hashes_n(capsys):
    hashes = set()
    for n in ("1", "3", "4"):
        code, out, _ = run(capsys, "gz", "subduct", "--n", n, "--word1", "[-0]", "--word2", "[-0]")
        assert code == EXIT_OK
        hashes.add(json.loads(out)["inputs_hash"])
    assert len(hashes) == 3


def test_cox_tangent_hashes_the_options_that_change_results(capsys):
    hashes = set()
    for options in ([], ["--emit", "gb"], ["--verify-kernel"], ["--emit", "gb", "--verify-kernel"]):
        code, out, _ = run(capsys, "cox", "tangent", "--n", "2", "--m", "2", *options)
        assert code == EXIT_OK
        hashes.add(json.loads(out)["inputs_hash"])
    assert len(hashes) == 4


@pytest.mark.parametrize(
    "n, message", [("0", "need n >= 1"), ("-1", "negated index 0 out of range 0..-1")]
)
def test_gz_subduct_refuses_n_below_1(capsys, n, message):
    # the closed-form generator count, 0 at n = 0, holds for n >= 1 only
    code, out, err = run(capsys, "gz", "subduct", "--n", n, "--word1", "[-0]", "--word2", "[-0]")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"input error: {message}" in err


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


@pytest.mark.parametrize("word1", ["[-0],,[-1]", "[-0],[-1],", ",[-0],[-1]"])
def test_gz_subduct_refuses_an_empty_generator(capsys, word1):
    code, out, err = run(
        capsys, "gz", "subduct", "--n", "3", "--word1", word1, "--word2", "[-0],[-1]"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "input error: bad generator syntax: ''" in err


@pytest.mark.parametrize(
    ("generator", "message"),
    [
        ("[{1,,2},0]", "bad generator syntax"),
        ("[{1,1},0]", "repeated column in generator"),
        ("[{1,2},,1]", "bad generator syntax"),
        ("[{1,2}1]", "bad generator syntax"),
        ("[{1,2,0]", "bad generator syntax"),
    ],
)
def test_gz_subduct_refuses_a_malformed_generator_by_name(capsys, generator, message):
    code, out, err = run(
        capsys, "gz", "subduct", "--n", "3", "--word1", generator, "--word2", "[{1,2},0]"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert f"input error: {message}" in err and repr(generator) in err


@pytest.mark.parametrize(
    "generator",
    ["[-" + "9" * 5000 + "]", "[{1," + "2" * 5000 + "},0]", "[{1,2}," + "0" * 10 + "]"],
)
def test_gz_subduct_refuses_an_over_long_number_by_name(capsys, generator):
    # refused before int(), so the message is the same whether or not the
    # interpreter limits the digits of an integer conversion
    code, out, err = run(
        capsys, "gz", "subduct", "--n", "3", "--word1", generator, "--word2", "[-0]"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (f"input error: number of more than {gz.GENERATOR_DIGITS} digits "
                   f"in generator {generator!r}\n")


def test_gz_subduct_checks_generators_before_summing(capsys):
    code, _, err = run(
        capsys, "gz", "subduct", "--n", "2", "--word1", "[-5]", "--word2", "[-5]"
    )
    assert code == EXIT_USAGE
    assert "input error: negated index 5 out of range 0..2" in err


def test_gz_verify_caps_the_word_sweep(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("the sweep built a word or a code table past its cap")

    monkeypatch.setattr(gz, "word_pattern_sum", built)
    monkeypatch.setattr(gz, "_codes", built)
    monkeypatch.setattr(gz, "_packed", built)
    code, out, err = run(capsys, "gz", "verify", "--n", "4", "--max-word-length", "6")
    assert code == EXIT_CAP
    assert out == ""
    assert "1947791 words up to length 6, over the cap 65536" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--max-word-length", "1"], "2199023255550 words up to length 1"),
        (["subduct", "--word1", "[-0]", "--word2", "[-0]"], "2199023255550 generators"),
    ],
)
def test_gz_commands_exit_at_the_cap_at_n40(capsys, monkeypatch, args, message):
    def built(*args):
        raise AssertionError("generators or column sets were enumerated past a cap")

    monkeypatch.setattr(gz, "all_generators", built)
    monkeypatch.setattr(gz, "flag_column_sets", built)
    code, out, err = run(capsys, "gz", args[0], "--n", "40", *args[1:])
    assert code == EXIT_CAP
    assert out == ""
    assert f"{message}, over the cap 65536" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--n", "5000"], "n = 5000 has at least 2^5000 words up to length 3"),
        (["verify", "--n", "2", "--max-word-length", "3000000"],
         "n = 2 has at least 2^64 words up to length 3000000"),
        (["subduct", "--n", "100000", "--word1", "[-0]", "--word2", "[-0]"],
         "n = 100000 has at least 2^100000 generators"),
    ],
    ids=["verify-n", "verify-length", "subduct-n"],
)
def test_gz_counts_past_the_digit_limit_exit_3(capsys, monkeypatch, args, message):
    # an internal count too long for decimal is no input error, and no
    # pattern sum is formed before the cap
    def summed(word, n):
        raise AssertionError("a pattern sum was formed past the generator cap")

    monkeypatch.setattr(gz, "word_pattern_sum", summed)
    code, out, err = run(capsys, "gz", *args)
    assert code == EXIT_CAP
    assert out == ""
    assert f"cap exceeded: {message}, over the cap 65536" in err


def test_cox_tangent_refuses_an_order_past_the_cap_before_its_rank_check(capsys, monkeypatch):
    # 801 x_j and 801 Y1_j: the cubic rank check is not reached
    def ranked(rows):
        raise AssertionError("an order was ranked past the cap")

    monkeypatch.setattr(poly, "rational_rank", ranked)
    code, out, err = run(capsys, "cox", "tangent", "--n", "800", "--m", "1")
    assert code == EXIT_CAP
    assert out == ""
    assert "cap exceeded: an order on 1602 variables, over the cap 256" in err


def test_gz_subduct_unequal_sums(capsys):
    for n, word1, word2 in (("2", "[-1]", "[-2]"), ("3", "[-0]", "[-1]")):
        code, out, err = run(capsys, "gz", "subduct", "--n", n, "--word1", word1, "--word2", word2)
        assert code == EXIT_USAGE
        assert out == ""
        assert "input error: words have different extended-pattern sums" in err


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
    "argv",
    [
        ["analyze", "{dir}"],
        ["analyze", "{bundle}", "--report", "{dir}"],
        ["region", "--r-max", "2", "--s-max", "4", "--csv", "{dir}"],
    ],
    ids=["input-path", "report-path", "csv-path"],
)
def test_a_directory_for_a_file_is_an_input_error(capsys, tmp_path, ex514_path, argv):
    argv = [a.format(dir=tmp_path, bundle=ex514_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("input error: ") and "Is a directory" in err


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
        (
            '{"n": true, "s": 2, "M": [["1", "1"]], "D": [[0, 1]]}',
            "declared n true is not an integer",
        ),
        (
            '{"n": 1, "s": 2.0, "M": [["1", "1"]], "D": [[0, 1]]}',
            "declared s 2.0 is not an integer",
        ),
    ],
    ids=["boolean-diagram-entry", "string-row-of-M", "string-row-of-D", "boolean-n", "float-s"],
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
