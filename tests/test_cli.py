"""End-to-end tests for the command-line interface."""

import argparse
import json

import pytest

import realbott.bottcore as bottcore_mod
import realbott.census as census_mod
import realbott.cli as cli_mod
import realbott.euclid as euclid_mod
import realbott.f2poly as f2poly_mod
from realbott import InconsistencyError, analyze, matrix_at, parse_bott
from realbott.census import CSV_HEADER
from realbott.cli import main

from conftest import KLEIN_TEXT, SIXDIM_BOTT_TEXT, SIXDIM_P_TEXT


@pytest.fixture
def klein_file(tmp_path):
    path = tmp_path / "klein.txt"
    path.write_text(KLEIN_TEXT + "\n")
    return str(path)


@pytest.fixture
def sixdim_bott_file(tmp_path):
    path = tmp_path / "sixdim.txt"
    path.write_text(SIXDIM_BOTT_TEXT)
    return str(path)


@pytest.fixture
def sixdim_p_file(tmp_path):
    path = tmp_path / "sixdim_p.txt"
    path.write_text(SIXDIM_P_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


KLEIN_REPORT = {
    "dimension": 2,
    "free": True,
    "holonomyFull": False,
    "orientable": False,
    "w1": "x1",
    "w2": "0",
    "kahler": False,
    "pairing": None,
    "sVector": None,
    "spin": False,
    "spinMethod": "general",
}


class TestParserBuiltOnce:
    """main() builds its parser on the first call only, and no call leaves
    state behind for the next."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Names of the top-level parsers built from here on."""
        built = []
        real_init = argparse.ArgumentParser.__init__

        def spy_init(parser, *args, **kwargs):
            if kwargs.get("prog") == "realbott":
                built.append(kwargs["prog"])
            real_init(parser, *args, **kwargs)

        cli_mod._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
        yield built
        cli_mod._build_parser.cache_clear()

    def test_usage_error_then_check(self, capsys, builds, klein_file):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        assert "usage: realbott check" in capsys.readouterr().err
        code, out, _ = run(capsys, "check", "--json", klein_file)
        assert code == 0 and json.loads(out) == KLEIN_REPORT
        code, out, _ = run(capsys, "check", klein_file)
        assert code == 0
        assert out.splitlines()[4].split() == ["w1", "x1"]  # a table, not --json
        assert builds == ["realbott"]

    def test_csv_flag_does_not_stick(self, capsys, builds):
        code, out, _ = run(capsys, "census", "-n", "3", "--csv")
        assert code == 0 and out == f"{CSV_HEADER}\n3,8,2,0,2,0,0\n"
        code, out, _ = run(capsys, "census", "-n", "3")
        assert code == 0
        assert out.splitlines()[:2] == ["n               3", "total           8"]
        assert builds == ["realbott"]


class TestCheck:
    def test_sixdim_pmat_json(self, capsys, sixdim_p_file):
        code, out, _ = run(capsys, "check", sixdim_p_file, "--pmat", "--json")
        assert code == 0
        report = json.loads(out)
        assert report == {
            "dimension": 6,
            "free": True,
            "holonomyFull": False,
            "orientable": True,
            "w1": "0",
            "w2": "x3^2 + x4^2",
            "kahler": True,
            "pairing": [[1, 2], [3, 4], [5, 6]],
            "sVector": [0, 0, 1, 1, 0, 0],
            "spin": False,
            "spinMethod": "both-agree",
        }

    def test_zero_2x2(self, capsys, tmp_path):
        path = tmp_path / "torus.txt"
        path.write_text("0 0\n0 0\n")
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["spin"] is True
        assert report["kahler"] is True
        assert report["pairing"] == [[1, 2]]

    def test_klein_human(self, capsys, klein_file):
        code, out, _ = run(capsys, "check", klein_file)
        assert code == 0
        assert "orientable" in out and "false" in out
        assert "w1" in out and "x1" in out

    def test_byte_order_mark_is_skipped(self, capsys, klein_file, tmp_path):
        # editors on some platforms save UTF-8 with a leading BOM
        path = tmp_path / "klein_bom.txt"
        path.write_text("\ufeff" + KLEIN_TEXT + "\n", encoding="utf-8")
        plain = run(capsys, "check", klein_file)
        assert run(capsys, "check", str(path)) == plain
        assert plain[0] == 0 and plain[2] == ""

    def test_generic_pmatrix_skips_bott_deciders(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2 3\n0 1 2\n")
        code, out, _ = run(capsys, "check", str(path), "--pmat", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["kahler"] is None
        assert report["pairing"] is None
        assert report["sVector"] is None
        assert report["spinMethod"] == "general"
        assert report["dimension"] == 3

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("0 1 0\n0 0\n0 0 0\n", [], "row 2 has 2 entries, expected 3 (matrix must be square)"),
            ("1 2 3\n0 1\n", ["--pmat"], "row 2 has 2 entries, expected 3"),
            ("", [], "empty matrix"),
            ("# nothing here\n", [], "empty matrix"),
            ("0 1 0\n0 0 0\n", [], "row 1 has 3 entries, expected 2 (matrix must be square)"),
            ("0 2\n0 0\n", [], "invalid entry '2' at row 1, column 2 (expected one of 0,1)"),
            ("0 x\n0 0\n", [], "invalid entry 'x' at row 1, column 2 (expected one of 0,1)"),
            (
                "0 1\n1 0\n",
                [],
                "entry at row 2, column 1 must be 0 (matrix must be strictly upper triangular)",
            ),
            (
                "1 0/0 0 0\n",
                [],
                "entry at row 1, column 1 must be 0 (matrix must be strictly upper triangular)",
            ),
            ("4 0\n0 0\n", ["--pmat"], "invalid entry '4' at row 1, column 1 (expected one of 0,1,2,3)"),
        ],
        ids=[
            "ragged-bott", "ragged-pmat", "empty", "comment-only", "non-square",
            "bott-digit-2", "letter", "lower-triangle", "diagonal-first", "pmat-digit-4",
        ],
    )
    def test_ragged_rows_exit_2(self, capsys, tmp_path, text, flags, message):
        # one input error: exit 2, nothing on stdout, one error line naming it
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error" in err

    def test_freeness_guard_exit_2(self, capsys, tmp_path):
        # a free 40-row matrix needs 2^28 chunks of 2^12 subsets, over half an
        # hour; this one is not free at the first subset, so only the guard
        # refuses it
        path = tmp_path / "p40.txt"
        path.write_text("0 0 0\n" + "1 2 3\n" * 39)
        code, out, err = run(capsys, "check", str(path), "--pmat")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: size guard exceeded")

    def test_freeness_guard_bound_still_decided(self, capsys, tmp_path):
        path = tmp_path / "p24.txt"
        path.write_text("0 0 0\n" + "1 2 3\n" * (bottcore_mod.MAX_FREE_ROWS - 1))
        code, out, _ = run(capsys, "check", str(path), "--pmat", "--json")
        assert code == 0
        assert json.loads(out)["free"] is False

    def test_freeness_guard_bound_free(self, capsys, tmp_path):
        # a planted-free matrix at the guard's bound: every one of the
        # 2^24 - 1 row subsets is read, and the report says free
        d = bottcore_mod.MAX_FREE_ROWS
        path = tmp_path / "free24.txt"
        path.write_text("".join(
            " ".join(str(1 if j == i else 2 * ((i + j) % 2) * (j > i)) for j in range(d))
            + "".join(f" {(i + k) % 4}" for k in range(2)) + "\n"
            for i in range(d)
        ))
        code, out, _ = run(capsys, "check", str(path), "--pmat", "--json")
        assert code == 0
        assert json.loads(out)["free"] is True

    def test_json_field_order(self, capsys, sixdim_bott_file, tmp_path):
        # the README's order, on the Bott path and the general P-matrix path
        order = [
            "dimension", "free", "holonomyFull", "orientable", "w1", "w2",
            "kahler", "pairing", "sVector", "spin", "spinMethod",
        ]
        generic = tmp_path / "p.txt"
        generic.write_text("1 2 3\n0 1 2\n")
        for argv in ([sixdim_bott_file], [str(generic), "--pmat"]):
            code, out, _ = run(capsys, "check", "--json", *argv)
            assert code == 0
            assert list(json.loads(out)) == order

    def test_inconsistency_error_line_exit_1(self, capsys, klein_file, monkeypatch):
        def analyze(a):
            raise InconsistencyError(f"Spin deciders disagree on {a.to_line()}")

        monkeypatch.setattr(cli_mod, "analyze", analyze)
        code, out, err = run(capsys, "check", klein_file)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: Spin deciders disagree on 01/00"]

    def test_json_stable_across_runs(self, capsys, sixdim_bott_file):
        _, first, _ = run(capsys, "check", sixdim_bott_file, "--json")
        _, second, _ = run(capsys, "check", sixdim_bott_file, "--json")
        assert first == second


class TestIdeal:
    def test_sixdim(self, capsys, sixdim_p_file):
        code, out, _ = run(capsys, "ideal", sixdim_p_file, "--pmat")
        assert code == 0
        assert "theta_1 = x1^2" in out
        assert "theta_5 = x1x5 + x2x5 + x3x5 + x4x5 + x5^2" in out
        assert "rank 6" in out

    def test_zero_3x3(self, capsys, tmp_path):
        path = tmp_path / "zero3.txt"
        path.write_text("000/000/000")
        code, out, _ = run(capsys, "ideal", str(path))
        assert code == 0
        assert "theta_1 = x1^2" in out
        assert "theta_3 = x3^2" in out
        assert "rank 3" in out

    def test_klein_bottle(self, capsys, klein_file):
        code, out, _ = run(capsys, "ideal", klein_file)
        assert code == 0
        assert "theta_1 = x1^2" in out
        assert "theta_2 = x1x2 + x2^2" in out


class TestSw:
    def test_sixdim_degree_2(self, capsys, sixdim_p_file):
        code, out, _ = run(capsys, "sw", sixdim_p_file, "--pmat", "--max-degree", "2")
        assert code == 0
        assert out.strip() == "1 + x3^2 + x4^2"

    def test_zero_matrix(self, capsys, tmp_path):
        path = tmp_path / "zero4.txt"
        path.write_text("0000/0000/0000/0000")
        for degree in ("1", "4"):
            code, out, _ = run(capsys, "sw", str(path), "--max-degree", degree)
            assert code == 0
            assert out.strip() == "1"

    def test_klein_degree_1(self, capsys, klein_file):
        code, out, _ = run(capsys, "sw", klein_file, "--max-degree", "1")
        assert code == 0
        assert out.strip() == "1 + x1"

    def test_default_degree_is_2(self, capsys, sixdim_p_file):
        code, out, _ = run(capsys, "sw", sixdim_p_file, "--pmat")
        assert code == 0
        assert out.strip() == "1 + x3^2 + x4^2"

    def test_negative_degree_exit_2(self, capsys, klein_file):
        code, _, err = run(capsys, "sw", klein_file, "--max-degree", "-1")
        assert code == 2
        assert "error" in err

    def test_product_size_guard_exit_2(self, capsys, sixdim_p_file, monkeypatch):
        # at degree 2 the sixdim running product peaks at 7 terms, after
        # factor 5 of 6, and ends with 3
        monkeypatch.setattr(f2poly_mod, "MAX_PRODUCT_TERMS", 6)
        code, out, err = run(capsys, "sw", sixdim_p_file, "--pmat")
        assert code == 2
        assert out == ""
        assert err == "error: size guard exceeded: 7 terms after factor 5 of 6, limit is 6\n"
        monkeypatch.setattr(f2poly_mod, "MAX_PRODUCT_TERMS", 7)
        assert run(capsys, "sw", sixdim_p_file, "--pmat")[:2] == (0, "1 + x3^2 + x4^2\n")


class TestKahler:
    def test_sixdim(self, capsys, sixdim_bott_file):
        code, out, _ = run(capsys, "kahler", sixdim_bott_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kahler"] is True
        assert payload["pairing"] == [[1, 2], [3, 4], [5, 6]]

    def test_klein(self, capsys, klein_file):
        code, out, _ = run(capsys, "kahler", klein_file)
        assert code == 0
        assert "false" in out

    @pytest.mark.parametrize(
        "text, human, payload",
        [
            (
                SIXDIM_BOTT_TEXT,
                "kahler: true  pairing (1,2) (3,4) (5,6)",
                '{"dimension": 6, "kahler": true, "pairing": [[1, 2], [3, 4], [5, 6]]}',
            ),
            (KLEIN_TEXT, "kahler: false", '{"dimension": 2, "kahler": false, "pairing": null}'),
            (
                "0 0 0 0\n" * 4,
                "kahler: true  pairing (1,2) (3,4)",
                '{"dimension": 4, "kahler": true, "pairing": [[1, 2], [3, 4]]}',
            ),
        ],
        ids=["sixdim", "klein", "zero4"],
    )
    def test_exact_stdout(self, capsys, tmp_path, text, human, payload):
        path = tmp_path / "matrix.txt"
        path.write_text(text)
        assert run(capsys, "kahler", str(path)) == (0, human + "\n", "")
        assert run(capsys, "kahler", str(path), "--json") == (0, payload + "\n", "")


class TestCensus:
    def test_csv_n2(self, capsys):
        code, out, _ = run(capsys, "census", "-n", "2", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,total,orientable,kahler,spin,kahler_and_spin,kahler_not_spin"
        assert lines[1] == "2,2,1,1,1,1,0"

    def test_emit_roundtrip(self, capsys):
        code, out, _ = run(capsys, "census", "-n", "3", "--csv", "--emit")
        assert code == 0
        lines = out.strip().splitlines()
        matrices = lines[2:]
        assert len(matrices) == 8
        for index, line in enumerate(matrices):
            parsed = parse_bott(line)
            assert parsed == matrix_at(3, index)
            assert parsed.to_line() == line

    def test_human_table(self, capsys):
        code, out, _ = run(capsys, "census", "-n", "3")
        assert code == 0
        assert "total           8" in out

    def test_bad_dimension_exit_2(self, capsys):
        code, _, err = run(capsys, "census", "-n", "0")
        assert code == 2
        assert "error" in err

    def test_emit_n8_exit_2(self, capsys, monkeypatch):
        # at n = 8 the listing would be 2^28 lines held in memory; the
        # guard must fire before any range is classified
        def never(*args):
            raise AssertionError("_classify_range ran past the --emit guard")

        monkeypatch.setattr(census_mod, "_classify_range", never)
        code, out, err = run(capsys, "census", "-n", "8", "--emit")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: size guard exceeded")

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "-n", "10"],  # 2^36 orientable matrices
            ["census", "-n", "9", "--check-oracles"],  # 2^36 matrices, full walk
        ],
    )
    def test_walk_guard_exit_2(self, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("_classify_range ran past the size guard")

        monkeypatch.setattr(census_mod, "_classify_range", never)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: size guard exceeded")


class TestVerify:
    """verify cross-checks one matrix; census --check-oracles is the one
    exhaustive cross-check, run here by test_exhaustive_n4 and _n1."""

    def test_exhaustive_n4(self, capsys):
        # README's pinned row, with every matrix through every route
        code, out, _ = run(capsys, "census", "-n", "4", "--check-oracles", "--csv")
        assert (code, out) == (0, f"{CSV_HEADER}\n4,64,8,6,8,6,0\n")

    def test_exhaustive_n1(self, capsys):
        code, out, _ = run(capsys, "census", "-n", "1", "--check-oracles", "--csv")
        assert (code, out) == (0, f"{CSV_HEADER}\n1,1,1,0,1,0,0\n")

    def test_no_dimension_mode(self, capsys):
        # verify takes one matrix file and no dimension: argparse refuses
        # -n before any work
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "-n", "3"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_single_file(self, capsys, sixdim_bott_file):
        code, out, _ = run(capsys, "verify", sixdim_bott_file)
        assert code == 0
        assert out.strip() == "1 matrix, 0 disagreements"

    def test_single_file_runs_analyze_and_kernel(self, capsys, sixdim_bott_file, monkeypatch):
        # the README's Kahler fixture takes every route: analyze with its two
        # Spin deciders, the kernel, and the motion oracle
        calls = []
        real_analyze = census_mod.analyze
        real_kernel = cli_mod.bott_verdicts

        def counted_analyze(a):
            calls.append("analyze")
            return real_analyze(a)

        def counted_kernel(n, rows):
            calls.append("kernel")
            return real_kernel(n, rows)

        monkeypatch.setattr(census_mod, "analyze", counted_analyze)
        monkeypatch.setattr(cli_mod, "bott_verdicts", counted_kernel)
        code, out, _ = run(capsys, "verify", sixdim_bott_file)
        assert code == 0
        assert out.strip() == "1 matrix, 0 disagreements"
        assert calls == ["kernel", "analyze"]

    def test_single_file_sabotaged_analyze(self, capsys, sixdim_bott_file, monkeypatch):
        def flipped(a):
            rep = analyze(a)
            return type(rep)(**{**rep.__dict__, "spin": not rep.spin})

        monkeypatch.setattr(census_mod, "analyze", flipped)
        code, out, _ = run(capsys, "verify", sixdim_bott_file)
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "1 matrix, 1 disagreements"
        assert lines[1].startswith(
            "kernel and analyze disagree on 001111/001111/000011/000011/000000/000000"
        )

    def test_single_file_sabotaged_spin_decider(self, capsys, sixdim_bott_file, monkeypatch):
        # analyze's closed-form Spin decider is wrong: analyze raises, and
        # the oracle still runs
        import realbott.bottcore as bottcore_mod

        monkeypatch.setattr(
            bottcore_mod, "spin_kahler_closed_form", lambda a, pairing: (True, ())
        )
        code, out, _ = run(capsys, "verify", sixdim_bott_file)
        assert code == 1
        assert out.strip().splitlines() == [
            "1 matrix, 1 disagreements",
            "Spin deciders disagree on 001111/001111/000011/000011/000000/000000: "
            "closed-form=True, membership=False",
        ]

    def test_single_file_sabotaged_orientability_route(
        self, capsys, sixdim_bott_file, monkeypatch
    ):
        monkeypatch.setattr(census_mod, "_orientable", lambda gens: False)
        code, out, _ = run(capsys, "verify", sixdim_bott_file)
        assert code == 1
        assert out.strip().splitlines() == [
            "1 matrix, 1 disagreements",
            "kernel and motions disagree on 001111/001111/000011/000011/000000/000000: "
            "orientable = True against False",
        ]

    def test_single_file_size_guard_exit_2(self, capsys, tmp_path, monkeypatch):
        # the motion oracle keeps 2^n motions; n = 21 must be refused
        # before any of them is built
        def never(gens):
            raise AssertionError("subset_columns ran past the size guard")

        monkeypatch.setattr(euclid_mod, "subset_columns", never)
        path = tmp_path / "zero21.txt"
        path.write_text("\n".join(["0" * 21] * 21) + "\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: size guard exceeded")

    def test_single_file_size_guard_before_any_route(self, capsys, tmp_path, monkeypatch):
        # the oracle's guard fires before the generators are built and before
        # analyze and the orientability route, so a large matrix costs
        # nothing beyond its parse and the kernel
        def never(arg):
            raise AssertionError("a route ran before the size guard")

        monkeypatch.setattr(euclid_mod, "generators", never)
        monkeypatch.setattr(census_mod, "analyze", never)
        monkeypatch.setattr(census_mod, "_orientable", never)
        path = tmp_path / "zero21.txt"
        path.write_text("\n".join(["0" * 21] * 21) + "\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: size guard exceeded")

    def test_requires_target(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify"])
        assert excinfo.value.code == 2


class TestOracleFailure:
    """A disagreement ends census --check-oracles with one error line
    carrying the index and the serialized matrix, exit 1."""

    @pytest.fixture
    def sabotaged(self, monkeypatch):
        bad = matrix_at(3, 5)
        real_analyze = census_mod.analyze

        def analyze(a):
            if a == bad:
                raise InconsistencyError("injected disagreement")
            return real_analyze(a)

        monkeypatch.setattr(census_mod, "analyze", analyze)
        return bad.to_line()

    def test_error_line_exit_1(self, capsys, sabotaged):
        code, out, err = run(capsys, "census", "-n", "3", "--check-oracles")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: oracle disagreement at index 5 ({sabotaged}): injected disagreement"
        ]
