import io
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lpoly.cli import main
from lpoly.polyhedra import format_lpoly, parse_lpoly
from conftest import egyptian_pyramid, half_interval, unit_square


def run(argv, tmp_path=None):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture
def pyramid_file(tmp_path):
    path = tmp_path / "pyramid.lpoly"
    path.write_text(format_lpoly(egyptian_pyramid()))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.lpoly"
    path.write_text(format_lpoly(unit_square()))
    return str(path)


def test_count_pyramid(pyramid_file):
    code, out = run(["polytope", "count", "--in", pyramid_file, "-m", "1"])
    assert code == 0
    assert out.strip() == "10"


def test_count_interior(square_file):
    code, out = run(["polytope", "count", "--in", square_file, "-m", "2", "--interior"])
    assert code == 0
    assert out.strip() == "1"


def test_faces_output(square_file):
    code, out = run(["polytope", "faces", "--in", square_file])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("face:")]
    assert len(lines) == 9


def test_rr_format(square_file):
    code, out = run(["polytope", "rr", "--in", square_file, "-m", "1"])
    assert code == 0
    assert out.splitlines() == ["1\t0 0", "1\t0 1", "1\t1 0", "1\t1 1"]


def test_rr_negative(tmp_path):
    path = tmp_path / "seg.lpoly"
    path.write_text("dim 1\nlabel 1 ; 0\nlabel -1 ; -2\n")
    code, out = run(["polytope", "rr", "--in", str(path), "-m", "-1"])
    assert code == 0
    assert out.strip() == "-1\t-1"


def test_ehrhart_and_reciprocity(tmp_path):
    path = tmp_path / "half.lpoly"
    path.write_text(format_lpoly(half_interval()))
    code, out = run(["polytope", "ehrhart", "--in", str(path), "--mmax", "10"])
    assert code == 0
    assert "period: 2" in out
    code, out = run(["polytope", "reciprocity", "--in", str(path), "--mmax", "4"])
    assert code == 0
    assert "result: pass" in out


def test_brion(square_file, tmp_path, capsys):
    code, out = run(["polytope", "brion", "--in", square_file, "--z", "2,3"])
    assert code == 0
    assert out.strip() == "12"
    # simple but not simply laced: an input error, not a wrong number
    tri = tmp_path / "tri.lpoly"
    tri.write_text("dim 2\nlabel 2 -1 ; 0\nlabel -1 2 ; 0\nlabel -1 -1 ; -3\n")
    capsys.readouterr()
    code, out = run(["polytope", "brion", "--in", str(tri), "--z", "2,3"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == (
        "error: not simply laced: some vertex cone is not unimodular\n")


def test_desing_roundtrip(pyramid_file):
    code, out = run(["polytope", "desing", "--in", pyramid_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("step: label 0 0 -4 ;")
    body = "\n".join(l for l in lines if not l.startswith("step:")) + "\n"
    P = parse_lpoly(body)
    assert len(P.labels) == 6


def test_shift_roundtrip(pyramid_file):
    code, out = run(["polytope", "shift", "--in", pyramid_file])
    assert code == 0
    P = parse_lpoly(out)
    assert len(P.labels) == 5


def test_orders(tmp_path):
    path = tmp_path / "tri.lpoly"
    path.write_text("dim 2\nlabel 1 0 ; 0\nlabel 0 1 ; 0\nlabel -1 -2 ; -2\n")
    code, out = run(["polytope", "orders", "--in", str(path)])
    assert code == 0
    values = sorted(
        int(l.rsplit("=", 1)[1]) for l in out.splitlines() if "value=" in l and "tight=-" not in l
    )
    assert values.count(2) == 1


def test_minimalize(square_file, tmp_path):
    path = tmp_path / "redundant.lpoly"
    path.write_text(open(square_file).read() + "label 1 0 ; -5\n")
    code, out = run(["polytope", "minimalize", "--in", str(path)])
    assert code == 0
    assert out == open(square_file).read()


def test_weyl_induce_examples():
    code, out = run(["weyl", "induce", "--type", "A1", "--mu", "-1"])
    assert code == 0
    assert out.strip() == "0"
    code, out = run(["weyl", "induce", "--type", "A1", "--mu", "-3"])
    assert out.strip() == "- chi 1"
    code, out = run(["weyl", "induce", "--type", "A1", "--mu", "3"])
    assert out.strip() == "+ chi 3"


def test_weyl_group_and_action():
    code, out = run(["weyl", "group", "--type", "B2"])
    assert code == 0
    assert out.splitlines()[0] == "order: 8"
    code, out = run(["weyl", "action", "--type", "A1", "--word", "1", "--mu", "0"])
    assert out.strip() == "result: -2"


def test_weyl_star_reflect_wall_principal():
    code, out = run(["weyl", "star", "--type", "A2", "--mu", "1,0"])
    assert out.strip() == "0,1"
    code, out = run(["weyl", "reflect", "--type", "A1", "--lambda", "2"])
    assert code == 0
    assert "result: 0" in out
    code, out = run(["weyl", "reflect", "--type", "A1", "--lambda", "1"])
    assert out.strip() == "none"
    code, out = run(["weyl", "wall", "--type", "A2", "--wall", "1"])
    assert "rho_sigma: -1/2,1" in out
    code, out = run(["weyl", "principal", "--type", "A2", "--points", "2,0;3,0"])
    assert out.strip() == "support: 1"


@pytest.mark.parametrize("argv", [
    ["weyl", "star", "--type", "A2", "--mu", "1"],
    ["weyl", "action", "--type", "A2", "--word", "1", "--mu", "1"],
    ["weyl", "induce", "--type", "A2", "--mu", "1,0,0"],
    ["weyl", "reflect", "--type", "A2", "--lambda", "1"],
    ["weyl", "principal", "--type", "A1", "--points", "1,2"],
    ["weyl", "principal", "--type", "A2", "--points", "1,0;2"],
], ids=["star", "action", "induce", "reflect", "principal", "principal-second-point"])
def test_weyl_rejects_weight_of_wrong_length(argv, capsys):
    code, out = run(argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --")


@pytest.mark.parametrize("argv", [
    ["verify", "genus", "--pairs", "-1"],
    ["verify", "glue", "--pairs", "-1"],
    ["verify", "euler", "--samples", "-1"],
    ["verify", "dual-subdivision", "--type", "A2", "--count", "-1"],
    ["verify", "clebsch-gordan", "--max", "-1"],
    ["verify", "quantum-dh", "--mmax", "-1"],
    ["verify", "genus", "--pairs", "0"],
    ["verify", "glue", "--pairs", "0"],
    ["verify", "euler", "--samples", "0"],
    ["verify", "dual-subdivision", "--type", "A2", "--count", "0"],
], ids=["genus", "glue", "euler", "dual-subdivision", "clebsch-gordan", "quantum-dh",
        "genus-zero", "glue-zero", "euler-zero", "dual-subdivision-zero"])
def test_verify_rejects_negative_counts(argv, capsys):
    """Negative bounds and counts, and zero counts, with which a check of
    nothing would pass, are input errors."""
    code, out = run(argv)
    assert code == 2
    assert out == ""
    want = "nonnegative" if argv[-2] in ("--max", "--mmax") else "positive"
    assert capsys.readouterr().err == f"error: {argv[-2]} must be {want}\n"


def test_verify_zero_bounds_stay_valid():
    for argv in (["verify", "clebsch-gordan", "--max", "0"], ["verify", "quantum-dh", "--mmax", "0"]):
        code, out = run(argv)
        assert code == 0
        assert out.endswith("result: pass\n")


def test_polytope_rejects_negative_mmax(tmp_path, capsys):
    path = tmp_path / "half.lpoly"
    path.write_text(format_lpoly(half_interval()))
    # reciprocity up to --mmax 0 would check no row and pass, so its least
    # bound is 1, while ehrhart takes 0
    for verb, mmax, want in (("ehrhart", "-1", "nonnegative"), ("reciprocity", "-1", "positive"),
                             ("reciprocity", "0", "positive")):
        code, out = run(["polytope", verb, "--in", str(path), "--mmax", mmax])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"error: --mmax must be {want}\n"
    # ehrhart's --mmax defaults to the smallest bound that fits
    code, out = run(["polytope", "ehrhart", "--in", str(path)])
    assert code == 0
    assert "period: 2" in out


def test_verify_vergne():
    code, out = run(["verify", "vergne"])
    assert code == 0
    assert "conclusion: - chi 0" in out
    assert "result: pass" in out


def test_verify_clebsch_gordan_small():
    code, out = run(["verify", "clebsch-gordan", "--max", "3"])
    assert code == 0
    assert "result: pass" in out


def test_verify_genus_small():
    code, out = run(["verify", "genus", "--pairs", "6"])
    assert code == 0
    assert "result: pass" in out


def test_verify_glue_files(tmp_path, square_file):
    sub = tmp_path / "split.sub"
    sub.write_text(
        "dim 2\nlabel -1 0 ; -1/3\n---\n"
        "dim 2\nlabel 1 0 ; 1/3\nlabel -1 0 ; -1/3\n---\n"
        "dim 2\nlabel 1 0 ; 1/3\n"
    )
    code, out = run(["verify", "glue", "--delta", square_file, "--subdivision", str(sub)])
    assert code == 0
    assert "result: pass" in out


def test_verify_euler_dual():
    code, out = run(["verify", "euler", "--type", "A2", "--lambda", "1,1", "--samples", "40"])
    assert code == 0
    assert "result: pass" in out


def test_verify_dual_subdivision_small():
    code, out = run(["verify", "dual-subdivision", "--type", "A2", "--count", "2"])
    assert code == 0
    assert "result: pass" in out


def test_verify_quantum_dh():
    code, out = run(["verify", "quantum-dh", "--mmax", "8"])
    assert code == 0
    assert "result: pass" in out


def test_verify_glue_seeded_small():
    code, out = run(["verify", "glue", "--pairs", "3", "--seed", "1"])
    assert code == 0
    assert "result: pass" in out


def test_verify_glue_rejects_inadmissible(tmp_path, square_file):
    sub = tmp_path / "bad.sub"
    sub.write_text(
        "dim 2\nlabel -1 0 ; 0\n---\n"
        "dim 2\nlabel 1 0 ; 0\nlabel -1 0 ; 0\n---\n"
        "dim 2\nlabel 1 0 ; 0\n"
    )
    code, out = run(["verify", "glue", "--delta", square_file, "--subdivision", str(sub)])
    assert code == 1
    assert "not admissible" in out


@pytest.mark.parametrize("verb", ["euler", "glue"])
def test_verify_rejects_subdivision_of_mixed_dims(verb, tmp_path, square_file, capsys):
    sub = tmp_path / "mixed.sub"
    sub.write_text("dim 1\nlabel 1 ; 0\n---\ndim 2\nlabel 1 0 ; 0\n")
    argv = ["verify", verb, "--subdivision", str(sub)]
    if verb == "glue":
        argv += ["--delta", square_file]
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {sub}: cell 2 has dim 2, cell 1 has dim 1")


def test_verify_glue_rejects_delta_of_other_dim(tmp_path, capsys):
    delta = tmp_path / "half.lpoly"
    delta.write_text(format_lpoly(half_interval()))
    sub = tmp_path / "split.sub"
    sub.write_text("dim 2\nlabel -1 0 ; -1/3\n---\ndim 2\nlabel 1 0 ; 1/3\n")
    code, out = run(["verify", "glue", "--delta", str(delta), "--subdivision", str(sub)])
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {delta}: dim 1, but {sub} has dim 2")


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.lpoly"
    bad.write_text("dim 1\nlabel 0 ; 0\n")
    code, _ = run(["polytope", "count", "--in", str(bad), "-m", "1"])
    assert code == 2
    code, _ = run(["polytope", "count", "--in", str(tmp_path / "missing.lpoly"), "-m", "1"])
    assert code == 2


def test_internal_error_exits_3_without_traceback(pyramid_file, monkeypatch, capsys):
    from lpoly import cli

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_poly_faces", broken)
    code, out = run(["polytope", "faces", "--in", pyramid_file])
    err = capsys.readouterr().err
    assert code == 3
    assert out == ""
    assert err.startswith("internal: KeyError: 'boom' (test_cli.py:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_invariant_error_exits_3(square_file, tmp_path, monkeypatch, capsys):
    """A failed invariant is a bug, not an input error: exit 3, one
    ``internal:`` line naming where it was raised.  ``verify glue`` on files
    reaches Fourier-Motzkin through ``is_admissible``."""
    from fractions import Fraction

    from lpoly import _feasible

    sub = tmp_path / "split.sub"
    sub.write_text(
        "dim 2\nlabel -1 0 ; -1/3\n---\n"
        "dim 2\nlabel 1 0 ; 1/3\nlabel -1 0 ; -1/3\n---\n"
        "dim 2\nlabel 1 0 ; 1/3\n"
    )
    monkeypatch.setattr(_feasible, "_back_substitute", lambda levels: (Fraction(-1),) * 2)
    code, out = run(["verify", "glue", "--delta", square_file, "--subdivision", str(sub)])
    err = capsys.readouterr().err
    assert code == 3
    assert out == ""
    assert err.startswith(
        "internal: InvariantError: back-substitution produced a bad witness (_feasible.py:")
    assert len(err.splitlines()) == 1


def test_determinism(pyramid_file):
    a = run(["polytope", "faces", "--in", pyramid_file])
    b = run(["polytope", "faces", "--in", pyramid_file])
    assert a == b
    a = run(["verify", "genus", "--pairs", "4", "--seed", "3"])
    b = run(["verify", "genus", "--pairs", "4", "--seed", "3"])
    assert a == b


def test_no_floats_anywhere(pyramid_file):
    for argv in (
        ["polytope", "faces", "--in", pyramid_file],
        ["polytope", "desing", "--in", pyramid_file],
        ["polytope", "shift", "--in", pyramid_file],
        ["polytope", "ehrhart", "--in", pyramid_file, "--mmax", "6"],
    ):
        _, out = run(argv)
        assert "." not in out.replace(".lpoly", "")


# -- the exit-code contract on random input ------------------------------------------
# A value that may start with '-' follows its flag after '=', or argparse would
# read it as a flag.


@st.composite
def _lpoly_texts(draw):
    """Small .lpoly files in dimension 1-3, most of them inside a box:
    bounded and unbounded, empty and lower-dimensional polyhedra with
    duplicate, parallel and opposite labels, and now and then a line the
    parser rejects."""
    k = draw(st.integers(1, 3))
    rows = [(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k).filter(any)),
             f"{draw(st.integers(-4, 4))}/{draw(st.sampled_from((1, 1, 2, 3)))}")
            for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 3)):
        s = draw(st.integers(0, 2))
        for i in range(k):
            e = [int(i == j) for j in range(k)]
            rows += [(e, -s), ([-x for x in e], -s)]
    lines = [f"dim {k}"] + [f"label {' '.join(map(str, v))} ; {r}"
                            for v, r in draw(st.permutations(rows))]
    # one file in four holds a line the parser rejects
    bad = draw(st.sampled_from((None,) * 12 + ("dim 0", "label 1 ; x", "labels 1 ; 0", "dim 2")))
    if bad:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return k, "\n".join(lines) + "\n"


def _rationals(lengths=st.integers(1, 4)):
    """Comma-separated rationals, as many as ``lengths`` draws."""
    q = st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    return lengths.flatmap(lambda n: st.lists(q, min_size=n, max_size=n)).map(",".join)


def _polytope_argvs(draw, k):
    """Every ``polytope`` verb's arguments, a z of the right length or not."""
    m = str(draw(st.integers(-1, 3)))
    return [
        ["faces"], ["excess"], ["desing"], ["minimalize"], ["orders"],
        ["shift"] + draw(st.sampled_from(([], ["--eta=" + draw(_rationals())]))),
        ["count", "-m", m] + draw(st.sampled_from(([], ["--interior"]))),
        ["rr", "-m", m],
        ["ehrhart"] + draw(st.sampled_from(([], ["--mmax", m]))),
        ["reciprocity", "--mmax", m],
        ["brion", "--z=" + draw(_rationals(st.sampled_from((k, k, k, k + 1))))],
    ]


_WEYL_TYPES = ("A1", "A2", "A3", "B2", "G2", "C2", "A0", "a2", "")


@st.composite
def _weyl_argvs(draw):
    """One ``weyl`` verb with a known or unknown type and weights of any
    length from 1 to 4."""
    kind = draw(st.sampled_from(_WEYL_TYPES))
    ints = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v)))
    verb = draw(st.sampled_from(("group", "action", "induce", "star", "reflect", "wall",
                                 "principal")))
    extra = {
        "group": [],
        "action": ["--word", draw(st.sampled_from(("", "1", "2,1", "1,3"))), "--mu=" + draw(ints)],
        "induce": ["--mu=" + draw(ints)],
        "star": ["--mu=" + draw(ints)],
        "reflect": ["--lambda=" + draw(ints)],
        "wall": ["--wall", draw(st.sampled_from(("", "-", "1", "2", "1,2", "3", "x")))],
        "principal": ["--points=" + ";".join(draw(st.lists(_rationals(), min_size=1, max_size=3)))],
    }[verb]
    return ["weyl", verb, "--type", kind] + extra


def _assert_contract(argv, capsys):
    """Exit 0, 1 or 2, no traceback, in under 3 s."""
    start = time.perf_counter()
    code, _ = run(argv)
    took = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, argv
    assert took < 3, (argv, took)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_polytope_verbs_keep_the_exit_code_contract(data, tmp_path, capsys):
    k, text = data.draw(_lpoly_texts())
    path = tmp_path / "random.lpoly"
    path.write_text(text)
    for argv in _polytope_argvs(data.draw, k):
        _assert_contract(["polytope", argv[0], "--in", str(path)] + argv[1:], capsys)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_weyl_argvs())
def test_weyl_verbs_keep_the_exit_code_contract(argv, capsys):
    _assert_contract(argv, capsys)
