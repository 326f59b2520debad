import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cech_map_oracle import closed_families
from corpus import BOUNDARY_5, CROSS_POLYTOPE_8, acceptance_corpus
from froblab.cli import main
from froblab.fmodule import face_count
from froblab.local_cohomology import decomposition, depth_and_cm
from froblab.simplicial import from_facets, mask_vertices
from test_acceptance import Budget


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def two_points_file(tmp_path):
    path = tmp_path / "two_points.facets"
    path.write_text("# two disjoint points\n0\n1\n")
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.facets"
    path.write_text("0 1\n1 2\n0 2\n")
    return str(path)


def test_analyze_complex_two_points(two_points_file, capsys):
    code, out, _ = run_cli(
        ["analyze-complex", two_points_file, "--prime", "2", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    analysis = report["analysis"]
    assert set(analysis) == {"complex", "p", "dim", "depth", "is_cm", "table", "fh_counts"}
    assert (analysis["dim"], analysis["depth"], analysis["is_cm"]) == (1, 1, True)
    assert report["f_pure"] is True
    assert report["nonface_ideal"] == "(x0*x1)"
    assert len(analysis["table"]) == 3
    assert analysis["fh_counts"] == [
        {
            "i": 1,
            "count": 5,
            "validated": True,
            "note": "count (every map checked against the exact sequence of its pair)",
        }
    ]
    assert report["models"] == [{"i": 1, "anti_nilpotent": True, "skipped": None}]
    assert report["oracle_check"]["mismatches"] == 0
    # the maps of the two vertex blocks into the block of the empty face
    assert report["oracle_check"]["maps_checked"] == 2


def test_analyze_complex_triangle_p3(triangle_file, capsys):
    code, out, _ = run_cli(
        ["analyze-complex", triangle_file, "--prime", "3", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    analysis = report["analysis"]
    assert analysis["is_cm"] is True
    assert len(analysis["table"]) == 7
    # seven blocks of multiplicity 1: 2^7 families, within the default cap
    (entry,) = analysis["fh_counts"]
    assert (entry["i"], entry["count"], entry["validated"]) == (2, 19, True)
    assert report["models"] == [{"i": 2, "anti_nilpotent": True, "skipped": None}]


def test_analyze_complex_oracle_mismatch_exit_code(two_points_file, capsys, monkeypatch):
    import froblab.local_cohomology as lc

    args = ["analyze-complex", two_points_file, "--prime", "2", "--format", "json"]
    _, out, _ = run_cli(args, capsys)
    report = json.loads(out)
    monkeypatch.setattr(lc, "oracle_box_check", lambda *a, **k: (0, 1))
    code, out, err = run_cli(args, capsys)
    # the full report is still written, with the disagreement in it
    report["oracle_check"].update(agreements=0, mismatches=1)
    assert (code, json.loads(out)) == (2, report)
    assert err == "internal cross-check failed: graded oracle disagreement\n"


def test_cm_verdict_mismatch_exit_code(triangle_file, capsys, monkeypatch):
    import froblab.local_cohomology as lc

    monkeypatch.setattr(lc, "reisner_cm_condition", lambda *a: False)
    code, out, err = run_cli(["analyze-complex", triangle_file, "--prime", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "internal cross-check failed: link condition disagrees with the table route\n"


def test_f_pure_but_not_f_injective_exit_code(capsys, monkeypatch):
    import froblab.hypersurface as hs

    monkeypatch.setattr(hs, "f_injective_top", lambda h, t: False)
    code, out, err = run_cli(["analyze-hypersurface", "--poly", "x0^3 + x1^3 + x2^3", "--prime", "7"], capsys)
    assert (code, out) == (2, "")
    assert err == "internal cross-check failed: F-pure but not F-injective\n"


def test_level_instability_exit_code(capsys, monkeypatch):
    import froblab.hypersurface as hs

    # the Fermat cubic is not F-pure at p = 11, so only the levels can disagree
    monkeypatch.setattr(hs, "f_injective_top", lambda h, t: t == 1)
    code, out, err = run_cli(["analyze-hypersurface", "--poly", "x0^3 + x1^3 + x2^3", "--prime", "11"], capsys)
    assert (code, out) == (2, "")
    assert err == "internal cross-check failed: level instability in F-injectivity\n"


def test_f_injective_but_not_f_pure_exit_code(capsys, monkeypatch):
    import froblab.hypersurface as hs

    # the Fermat cubic is F-injective at p = 7 at both levels
    monkeypatch.setattr(hs, "fedder_fpure_principal", lambda h: False)
    code, out, err = run_cli(["analyze-hypersurface", "--poly", "x0^3 + x1^3 + x2^3", "--prime", "7"], capsys)
    assert (code, out) == (2, "")
    assert err == "internal cross-check failed: F-injective but not F-pure\n"


def test_oracle_past_its_cap_is_a_capacity_error(tmp_path, capsys):
    # one 8-vertex facet: 2^8 faces times 3^8 sign patterns; the oracle
    # would run for several seconds
    path = tmp_path / "simplex8.facets"
    path.write_text("0 1 2 3 4 5 6 7\n")
    with Budget("graded oracle cap", 1):
        code, out, err = run_cli(["analyze-complex", str(path), "--prime", "2"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: graded oracle size at least 1679616 exceeds cap 1048576\n"


def test_three_points_at_p_257_count_their_submodules(tmp_path, capsys):
    # the empty face branches over the 260 subspaces of F_257^2, within the
    # default cap, and each vertex is in or out: p + 13 are F-stable
    path = tmp_path / "three-points.facets"
    path.write_text("0\n1\n2\n")
    code, out, err = run_cli(["analyze-complex", str(path), "--prime", "257", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["analysis"]["fh_counts"] == [
        {
            "i": 1,
            "count": 270,
            "validated": False,
            "note": "count (map ranks checked; images into blocks of multiplicity > 1 not checked)",
        }
    ]
    assert [m["skipped"] for m in report["models"]] == [None]
    three_points = from_facets(3, [[0], [1], [2]])
    assert face_count(three_points, 257, 1) == len(closed_families(three_points, 257, 1)) == 270


def test_analyze_complex_zero_map_exit_code(triangle_file, capsys, monkeypatch):
    import froblab.fmodule as fm

    # every phi the zero matrix of its shape: the count alone would read
    # 128, the families of seven unlinked blocks, for the true 19
    phi = fm.phi
    monkeypatch.setattr(fm, "phi", lambda *a: tuple((0,) * len(row) for row in phi(*a)))
    code, out, err = run_cli(["analyze-complex", triangle_file, "--prime", "2", "--enumerate-cap", "2097152"], capsys)
    assert (code, out) == (2, "")
    assert err == "internal cross-check failed: phi at i=2, nu=(0,), j=0 has rank 0, the exact sequence 1\n"


def test_block_dimension_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    import froblab.fmodule as fm

    # the block of vertex 3 in H^2 loses one of its two classes: its maps keep
    # their ranks, so the rank check alone passes, and the count reads 11 for 10
    path = tmp_path / "mixed.facets"
    path.write_text("0 3\n3 4\n1 2 3\n")
    block = fm.block

    def dropped(c, p, i, nu):
        faces, boundaries, classes = block(c, p, i, nu)
        return faces, boundaries, classes[1:] if (i, nu) == (2, 0b1000) else classes

    monkeypatch.setattr(fm, "block", dropped)
    code, out, err = run_cli(["analyze-complex", str(path), "--prime", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "internal cross-check failed: block at i=2, nu=(3,) has dimension 1, the table 2\n"


def test_internal_error_exit_code(two_points_file, capsys, monkeypatch):
    import froblab.local_cohomology as lc

    def boom(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(lc, "oracle_box_check", boom)
    code, out, err = run_cli(["analyze-complex", two_points_file, "--prime", "2"], capsys)
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom second line\n"


def test_out_of_memory_is_a_capacity_error(two_points_file, capsys, monkeypatch):
    import froblab.local_cohomology as lc

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(lc, "oracle_box_check", exhausted)
    code, _, err = run_cli(["analyze-complex", two_points_file, "--prime", "2"], capsys)
    assert code == 1
    assert err == "error: capacity exceeded: out of memory\n"


def test_threads_env_var(two_points_file, capsys, monkeypatch):
    monkeypatch.setenv("FROBLAB_THREADS", "4")
    code, out, _ = run_cli(
        ["analyze-complex", two_points_file, "--prime", "2", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["caps"]["threads"] == 4
    monkeypatch.setenv("FROBLAB_THREADS", "zero")
    code, _, err = run_cli(["analyze-complex", two_points_file, "--prime", "2"], capsys)
    assert code == 1


def test_bad_threads_fails_before_any_work(two_points_file, capsys, monkeypatch):
    import froblab.hypersurface as hs
    import froblab.local_cohomology as lc

    def unreachable(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(lc, "oracle_box_check", unreachable)
    monkeypatch.setattr(hs, "make_hypersurface", unreachable)
    monkeypatch.setenv("FROBLAB_THREADS", "zero")
    code, out, err = run_cli(["analyze-complex", two_points_file, "--prime", "2"], capsys)
    assert (code, out, err) == (1, "", "error: FROBLAB_THREADS must be an integer, got 'zero'\n")
    monkeypatch.setenv("FROBLAB_THREADS", "0")
    code, out, err = run_cli(["analyze-hypersurface", "--poly", "x0^2", "--prime", "3"], capsys)
    assert (code, out, err) == (1, "", "error: FROBLAB_THREADS must be positive\n")


def test_seven_disjoint_edges_validate_their_first_model(tmp_path, capsys):
    # the 6-dimensional multiplicity space at the origin has 2,825 subspaces
    path = tmp_path / "seven_edges.facets"
    path.write_text("".join(f"{2 * k} {2 * k + 1}\n" for k in range(7)))
    with Budget("seven disjoint edges", 5):
        code, out, err = run_cli(["analyze-complex", str(path), "--prime", "2", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    (entry,) = [e for e in report["analysis"]["fh_counts"] if e["i"] == 1]
    (model,) = [m for m in report["models"] if m["i"] == 1]
    assert (entry["count"], model["anti_nilpotent"]) == (2825, True)


def test_many_disjoint_points_run_quickly(tmp_path, capsys):
    # 40 points, whose face ring has 780 minimal nonfaces: the whole
    # analyze-complex run, parse to report, within 0.5 s
    path = tmp_path / "points40.facets"
    path.write_text("".join(f"{v}\n" for v in range(40)))
    with Budget("40 disjoint points", 0.5):
        code, out, err = run_cli(["analyze-complex", str(path), "--prime", "2", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["f_pure"] is True


def test_analyze_complex_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.facets"
    path.write_text("")
    code, _, err = run_cli(["analyze-complex", str(path), "--prime", "2"], capsys)
    assert code == 1
    assert "error" in err


def test_far_label_names_only_the_first_uncovered_vertices(tmp_path, capsys):
    # two vertices in use, the largest label 10^6: the message once listed
    # all 999,999 uncovered labels (7.9 MB)
    path = tmp_path / "far.facets"
    path.write_text("0\n1000000\n")
    code, out, err = run_cli(["analyze-complex", str(path), "--prime", "2"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: vertices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 999989 more belong to no facet\n"


def limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))


def test_very_far_label_is_an_input_error_under_a_memory_limit(tmp_path):
    # largest label 10^11: a set of every label in range ran out of
    # memory, so this runs only in a child under a 1.5 GB address-space limit
    path = tmp_path / "very-far.facets"
    path.write_text("0\n100000000000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "froblab.cli", "analyze-complex", str(path), "--prime", "2"],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=60,
    )
    assert_input_error(proc)
    assert len(proc.stderr) < 200 and "99999999989 more" in proc.stderr


@pytest.mark.parametrize(
    "contents", [None, b"0 1\n\xff\xfe 2\n"], ids=["directory", "not-utf-8"]
)
def test_unreadable_facet_file_is_an_input_error(tmp_path, contents, capsys):
    path = tmp_path / "complex.facets"
    if contents is None:
        path.mkdir()
    else:
        path.write_bytes(contents)
    code, out, err = run_cli(["analyze-complex", str(path), "--prime", "2"], capsys)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_analyze_complex_bad_prime(two_points_file, capsys):
    code, _, err = run_cli(["analyze-complex", two_points_file, "--prime", "4"], capsys)
    assert code == 1


def test_reports_byte_deterministic(two_points_file, capsys):
    args = ["analyze-complex", two_points_file, "--prime", "2", "--format", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_json_roundtrip(two_points_file, capsys):
    _, out, _ = run_cli(
        ["analyze-complex", two_points_file, "--prime", "2", "--format", "json"], capsys
    )
    report = json.loads(out)
    assert json.loads(json.dumps(report, sort_keys=True, indent=2)) == report


def test_analyze_hypersurface_fermat7(capsys):
    code, out, _ = run_cli(
        [
            "analyze-hypersurface",
            "--poly",
            "x0^3 + x1^3 + x2^3",
            "--prime",
            "7",
            "--c",
            "x0",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["f_pure"] is True
    assert report["f_injective"] == {"t=1": True, "t=2": True}
    assert report["simplicity_probe"]["found"] is True
    (verdict,) = report["tight_closure"]["socle_classes"]
    assert verdict["consistent_up_to"] == 2 and verdict["fails_at"] is None
    assert "one-sided" in verdict["note"]


def test_analyze_hypersurface_fermat5(capsys):
    code, out, _ = run_cli(
        ["analyze-hypersurface", "--poly", "x0^3 + x1^3 + x2^3", "--prime", "5", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["f_pure"] is False
    assert report["f_injective"] == {"t=1": False, "t=2": False}


def test_analyze_hypersurface_nilpotent(capsys):
    code, out, _ = run_cli(
        ["analyze-hypersurface", "--poly", "x0^2", "--prime", "3", "--params", "x1", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["f_pure"] is False and report["f_injective"]["t=1"] is False


def test_analyze_hypersurface_rejects_inhomogeneous(capsys):
    code, _, err = run_cli(
        ["analyze-hypersurface", "--poly", "x0^2 + x1", "--prime", "3"], capsys
    )
    assert code == 1
    assert "error" in err


def test_text_format_runs(two_points_file, capsys):
    code, out, _ = run_cli(["analyze-complex", two_points_file, "--prime", "2"], capsys)
    assert code == 0
    assert "analysis:" in out and "is_cm: True" in out


def test_explicit_box_flag(two_points_file, capsys):
    # the oracle checks one box, [-3, 1]^n, and takes no flag for it
    code, out, err = run_cli(["analyze-complex", two_points_file, "--prime", "2", "--box=-2:0"], capsys)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in err


def run_cli_process(args):
    return subprocess.run(
        [sys.executable, "-m", "froblab.cli", *args], capture_output=True, text=True
    )


def assert_input_error(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def refused_in_a_child(args, seconds):
    """Run the command in a child under the address-space limit, so that
    a regression fails within the timeout instead of filling memory; it
    must exit 1 with one error line and no output within seconds."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "froblab.cli", *args],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=20,
    )
    elapsed = time.monotonic() - start
    assert_input_error(proc)
    assert proc.stdout == ""
    assert elapsed < seconds, f"refused after {elapsed:.2f}s, budget {seconds}s"
    return proc.stderr


def test_oracle_refuses_a_large_facet_before_listing_its_faces(tmp_path):
    # 2^40 faces would take terabytes; the facet alone bounds the size by 6^40
    path = tmp_path / "simplex40.facets"
    path.write_text(" ".join(map(str, range(40))) + "\n")
    err = refused_in_a_child(["analyze-complex", str(path), "--prime", "2"], 1)
    assert err == f"error: graded oracle size at least {6**40} exceeds cap 1048576\n"


def test_long_cycle_is_parsed_and_refused_quickly(tmp_path):
    # 20,000 edges: the parser's antichain reduction compares each edge
    # only with the facets through one of its vertices
    m = 20000
    path = tmp_path / "cycle.facets"
    path.write_text("".join(f"{v} {(v + 1) % m}\n" for v in range(m)))
    err = refused_in_a_child(["analyze-complex", str(path), "--prime", "2"], 3)
    # (1 + 2m faces) times (1 + 2m + 4m patterns)
    assert err == f"error: graded oracle size {(1 + 2 * m) * (1 + 6 * m)} exceeds cap 1048576\n"


def test_huge_modulus_is_refused_before_trial_division(capsys):
    # a composite past the bound is refused for its size, one below it as before
    for modulus, reason in [(40000, "exceeds the supported bound 32768"), (32767, "is not prime")]:
        code, out, err = run_cli(["analyze-hypersurface", "--poly", "x0^2", "--prime", str(modulus)], capsys)
        assert (code, out, err) == (1, "", f"error: modulus {modulus} {reason}\n")
    # about 10^9 trial divisions would show 10^18 + 3 prime
    err = refused_in_a_child(["analyze-hypersurface", "--poly", "x0^2", "--prime", "1000000000000000003"], 1)
    assert err == "error: modulus 1000000000000000003 exceeds the supported bound 32768\n"


def test_trunc_zero_is_an_input_error(two_points_file):
    assert_input_error(
        run_cli_process(["analyze-complex", two_points_file, "--prime", "2", "--trunc", "0"])
    )


def test_negative_enumerate_cap_is_an_input_error(two_points_file):
    assert_input_error(
        run_cli_process(
            ["analyze-complex", two_points_file, "--prime", "2", "--enumerate-cap", "-5"]
        )
    )


def test_emax_zero_is_an_input_error():
    assert_input_error(
        run_cli_process(
            ["analyze-hypersurface", "--poly", "x0^3 + x1^3 + x2^3", "--prime", "7",
             "--emax", "0", "--c", "x0"]
        )
    )


def test_zero_divisor_multiplier_is_an_input_error():
    # x0 divides f, so x0 lies in a minimal prime and not in R°
    assert_input_error(
        run_cli_process(
            ["analyze-hypersurface", "--poly", "x0*x1*x2", "--prime", "3",
             "--params", "x0-x1", "x1-x2", "--c", "x0^2*x2"]
        )
    )


def test_poly_and_params_are_parsed_once_each(capsys, monkeypatch):
    import froblab.polyfp as pf

    texts, parse = [], pf.parse_polynomial

    def counted(text, *args, **kwargs):
        texts.append(text)
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(pf, "parse_polynomial", counted)
    args = ["analyze-hypersurface", "--poly", "x0*x1*x2", "--prime", "3", "--params", "x0 - x1", "x1 - x2"]
    code, _, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert texts == ["x0*x1*x2", "x0 - x1", "x1 - x2"]


def test_linear_zero_divisor_multiplier_is_an_input_error(capsys):
    # f = x0 * (x0 + x1): the multiplier x0 + x1 divides f, x0 - x1 is coprime to it
    args = ["analyze-hypersurface", "--poly", "x0^2 + x0*x1", "--prime", "3", "--params", "x1"]
    assert_input_error(run_cli_process([*args, "--c", "x0+x1"]))
    code, out, _ = run_cli([*args, "--c", "x0-x1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["tight_closure"]["c"] == "x0 + 2*x1"


def test_multiplier_sharing_a_factor_with_f_is_an_input_error(capsys):
    # x0 + x1 divides f = x0^2 - x1^2 and c = x0^2 + x0*x1, so c * (x0 - x1)
    # lies in (f); x0^2 + x1^2 is irreducible over F_3 and so coprime to f
    args = ["analyze-hypersurface", "--poly", "x0^2 - x1^2", "--prime", "3"]
    proc = run_cli_process([*args, "--c", "x0^2 + x0*x1"])
    assert_input_error(proc)
    assert proc.stderr == "error: the multiplier is a zero divisor: it shares a factor with f\n"
    code, out, _ = run_cli([*args, "--c", "x0^2 + x1^2", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["tight_closure"]["c"] == "x0^2 + x1^2"


@pytest.mark.parametrize("text", ["1", "0", "x0^2 + x1", "-x0 + 1"])
def test_f_of_no_positive_degree_is_refused_before_the_monic_test(text, capsys):
    code, out, err = run_cli(["analyze-hypersurface", "--poly", text, "--prime", "3"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: f must be homogeneous of positive degree\n"


@pytest.mark.parametrize(
    "extra",
    [[], ["--prime", "x"], ["--prime", "2", "--bogus"], ["--prime", "2", "--format", "xml"]],
    ids=["no-prime", "non-integer-prime", "unknown-flag", "unknown-format"],
)
def test_usage_errors_are_input_errors(two_points_file, extra, capsys):
    code, out, err = run_cli(["analyze-complex", two_points_file, *extra], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_missing_subcommand_is_an_input_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("args", [["--help"], ["analyze-hypersurface", "--help"]])
def test_help_exits_zero(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_huge_degree_finishes():
    big = "x0^99999999999 + x1^99999999999 + x2^99999999999"
    proc = run_cli_process(["analyze-hypersurface", "--poly", big, "--prime", "7", "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["f_pure"] is False
    assert report["f_injective"] == {"t=1": False, "t=2": False}


def test_cross_polytope_skips_its_model(tmp_path, capsys):
    # the top module of the 8-vertex cross-polytope counts 59,757,702,070
    # down-sets, which take more memo states than the default cap allows;
    # the 63 blocks of the boundary of the 5-simplex count within it
    reports = {}
    for name, c in (("cross-polytope", CROSS_POLYTOPE_8), ("boundary5", BOUNDARY_5)):
        path = tmp_path / f"{name}.facets"
        path.write_text("".join(" ".join(map(str, f)) + "\n" for f in c.facets))
        code, out, err = run_cli(["analyze-complex", str(path), "--prime", "3", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        reports[name] = json.loads(out)
    assert [m["skipped"] for m in reports["cross-polytope"]["models"]] == ["cap"]
    assert [c["count"] for c in reports["cross-polytope"]["analysis"]["fh_counts"]] == [None]
    assert [m["skipped"] for m in reports["boundary5"]["models"]] == [None]
    assert [c["count"] for c in reports["boundary5"]["analysis"]["fh_counts"]] == [7828353]


MALFORMED = ["", "x", "x0^", "^2", "2*", "x0**2", "x0^-1", "x0 x1", "y0", "(x0)", "x0 +", "+", "1/2*x0", "x0^x1"]
VARIABLES = st.sampled_from(["x0", "x1", "x2", "x3"])


@st.composite
def terms(draw, degree):
    """A monomial of the given degree with an optional coefficient."""
    exponents = {}
    for v in draw(st.lists(VARIABLES, min_size=degree, max_size=degree)):
        exponents[v] = exponents.get(v, 0) + 1
    factors = [v if e == 1 else f"{v}^{e}" for v, e in sorted(exponents.items())]
    coeff = draw(st.sampled_from(["", "1*", "2*", "3*", "10*"]))
    return coeff + "*".join(factors) if factors else coeff.rstrip("*") or "1"


@st.composite
def polynomial_texts(draw, max_degree=4):
    """Text from a small polynomial grammar: mostly homogeneous forms, half
    of them monic in x0, sometimes mixed degrees, sometimes malformed."""
    kind = draw(st.sampled_from(["monic", "form", "monic", "form", "mixed", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED))
    degree = draw(st.integers(1, max_degree))
    count = draw(st.integers(1, 4))
    parts = [
        draw(terms(degree if kind != "mixed" else draw(st.integers(0, max_degree))))
        for _ in range(count)
    ]
    if kind == "monic":
        parts[0] = f"x0^{degree}"
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+"])) + part
    return text


@st.composite
def hypersurface_args(draw):
    args = ["analyze-hypersurface", "--poly", draw(polynomial_texts())]
    args += ["--prime", str(draw(st.sampled_from([2, 3, 4, 5, 7, 9])))]
    if draw(st.booleans()):
        args += ["--params", *draw(st.lists(polynomial_texts(max_degree=1), min_size=1, max_size=3))]
    if draw(st.booleans()):
        args += ["--c", draw(polynomial_texts(max_degree=2))]
    return args + ["--emax", str(draw(st.integers(1, 6))), "--format", "json"]


@settings(derandomize=True, deadline=None, max_examples=50)
@given(hypersurface_args())
def test_analyze_hypersurface_fuzz(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1), err.getvalue()
    assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["tool"] == "froblab"


LOADED_AFTER_RUN = """
import sys
import froblab.cli

code = froblab.cli.main(sys.argv[1:])
watched = ["numpy", "dataclasses", "inspect", "froblab.simplicial", "froblab.local_cohomology",
           "froblab.stanley_reisner", "froblab.fmodule", "froblab.polyfp", "froblab.hypersurface"]
print(code, *[name for name in watched if name in sys.modules], file=sys.stderr)
"""


def loaded_after_run(args):
    """Exit code of one CLI run in a fresh interpreter, then the watched
    modules loaded by its end."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


def test_each_command_loads_only_its_own_modules(triangle_file):
    cubic = ["--poly", "x0^3 + x1^3 + x2^3", "--prime", "7", "--c", "x0"]
    assert loaded_after_run(["analyze-hypersurface", *cubic]) == [
        "0", "froblab.polyfp", "froblab.hypersurface",
    ]
    assert loaded_after_run(["analyze-complex", triangle_file, "--prime", "2"]) == [
        "0", "froblab.simplicial", "froblab.local_cohomology", "froblab.stanley_reisner",
        "froblab.fmodule",
    ]


MALFORMED_FACETS = ["", "# only a comment\n", "0 a\n", "-1\n", "0 1.5\n", "0,1\n", "0\n2\n", "3\n"]


@st.composite
def facet_files(draw):
    """Facet files on at most 4 vertices, with comments and blank lines."""
    facet = st.lists(st.integers(0, 3), min_size=1, max_size=4)
    facets = draw(st.lists(facet, min_size=1, max_size=5))
    # relabel the vertices in use to 0..n-1: a file that skips a label is malformed
    label = {v: k for k, v in enumerate(sorted({v for f in facets for v in f}))}
    lines = [" ".join(str(label[v]) for v in f) for f in facets]
    if draw(st.booleans()):
        extra = draw(st.sampled_from(["# comment", "", "   "]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


# well-formed files twice as often as malformed text
facet_texts = st.one_of(st.sampled_from(MALFORMED_FACETS), facet_files(), facet_files())


@st.composite
def complex_args(draw):
    args = ["--prime", str(draw(st.sampled_from([2, 3, 4, 5])))]
    if draw(st.booleans()):
        args += ["--trunc", str(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        args += ["--enumerate-cap", str(draw(st.sampled_from([1, 8, 64, 256])))]
    return args + ["--format", draw(st.sampled_from(["json", "text"]))]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(facet_texts, complex_args())
def test_analyze_complex_fuzz(tmp_path_factory, text, args):
    path = tmp_path_factory.mktemp("fuzz") / "complex.facets"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze-complex", str(path), *args])
    assert code in (0, 1), err.getvalue()
    assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()


def assert_analysis_is_the_table(c, p, path):
    """The report's analysis block of c is depth_and_cm and the table read
    through mask_vertices, its rows sorted by (i, nu)."""
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in c.facets))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze-complex", str(path), "--prime", str(p), "--format", "json"]) == 0
    analysis = json.loads(out.getvalue())["analysis"]
    rows = analysis.pop("table")
    del analysis["fh_counts"]
    depth, dim, is_cm = depth_and_cm(c, p)
    complex_ = {"n_vertices": c.n_vertices, "facets": [list(f) for f in c.facets]}
    assert analysis == {"complex": complex_, "p": p, "dim": dim, "depth": depth, "is_cm": is_cm}
    table = decomposition(c, p)
    assert all(set(row) == {"i", "nu", "mult"} for row in rows) and len(rows) == len(table)
    assert {(row["i"], tuple(row["nu"])): row["mult"] for row in rows} == {
        (i, mask_vertices(nu)): m for (i, nu), m in table.items()
    }
    keys = [(row["i"], row["nu"]) for row in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("p", [2, 3])
def test_analysis_block_is_the_table_on_the_corpus(tmp_path, p):
    # the empty complex has no facet file
    for c in acceptance_corpus()[1:]:
        assert_analysis_is_the_table(c, p, tmp_path / "complex.facets")


@st.composite
def covered_complexes(draw, max_vertices=5):
    """Complexes on at most max_vertices vertices, each covered by a facet."""
    facets = draw(st.lists(st.sets(st.integers(0, max_vertices - 1), min_size=1), min_size=1, max_size=5))
    label = {v: k for k, v in enumerate(sorted(set().union(*facets)))}
    return from_facets(len(label), [[label[v] for v in f] for f in facets])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(covered_complexes(), st.sampled_from([2, 3]))
def test_analysis_block_is_the_table_on_random_complexes(tmp_path_factory, c, p):
    assert_analysis_is_the_table(c, p, tmp_path_factory.mktemp("analysis") / "complex.facets")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "froblab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "froblab" in proc.stdout
