"""Command-line interface."""

import importlib
import json
import platform

import pytest

from fafft.circuit import gen_mul_circuit
from fafft.cli import main
from fafft.mul import ROUTES, mul, mul_schoolbook
from fafft.reference import FaftEngine


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mul_pinned(capsys):
    code, out = run(capsys, "mul", "--a", "b", "--b", "d")
    assert code == 0
    assert out.strip() == "7f"


def test_mul_methods_agree(capsys):
    outs = set()
    for method in ("fafft", "schoolbook", "karatsuba"):
        code, out = run(capsys, "mul", "--a", "deadbeefcafe", "--b", "1234567", "--method", method)
        assert code == 0
        outs.add(out.strip())
    assert len(outs) == 1


def test_mul_zero(capsys):
    code, out = run(capsys, "mul", "--a", "0", "--b", "ff")
    assert code == 0
    assert out.strip() == "0"


def test_faft_constant_poly(capsys):
    code, out = run(capsys, "faft", "--poly", "1", "--m", "5")
    assert code == 0
    lines = out.strip().splitlines()
    sigmas = [int(ln.split()[0].split("=")[1]) for ln in lines]
    assert sigmas == [0, 1, 2, 4, 8, 9, 16, 18]
    for ln in lines:
        assert ln.endswith("value=1")  # constant 1 evaluates to 1 everywhere
    assert lines[4] == "sigma_index=8 level=4 orbit=4 value=1"


def test_faft_matches_engine(capsys):
    code, out = run(capsys, "faft", "--poly", "abc123", "--m", "6")
    assert code == 0
    eng = FaftEngine(6)
    res = eng.faft(0xABC123, 6)
    lines = out.strip().splitlines()
    assert len(lines) == len(res.points)
    for ln, pt, val in zip(lines, res.points, res.values):
        assert ln == f"sigma_index={pt.index} level={pt.level} orbit={pt.orbit} value={val:x}"


def test_faft_expand(capsys):
    code, out = run(capsys, "faft", "--poly", "5", "--m", "4", "--expand")
    assert code == 0
    lines = out.strip().splitlines()
    expand = [ln for ln in lines if ln.startswith("expand_index=")]
    assert len(expand) == 16
    eng = FaftEngine(6)
    res = eng.faft(0x5, 4)
    full = eng.expand_to_full_aft(4, res.values)
    assert expand[3] == f"expand_index=3 value={full[3]:x}"


def test_faft_dump_twiddles(capsys):
    code, out = run(capsys, "faft", "--poly", "1", "--m", "4", "--dump-twiddles")
    assert code == 0
    eng = FaftEngine(6)
    tw_lines = [ln for ln in out.strip().splitlines() if ln.startswith("twiddle")]
    assert len(tw_lines) == 4 + 3 + 2 + 1
    assert tw_lines[0] == f"twiddle j=0 i=0 value={eng.twiddles.value(0, 0):x}"
    assert f"twiddle j=1 i=3 value={eng.twiddles.value(1, 3):x}" in tw_lines


def test_faft_degree_too_big(capsys):
    code = main(["faft", "--poly", "1ff", "--m", "3"])
    assert code == 2
    assert "polynomial degree must be below 2^3" in capsys.readouterr().err
    # the library names the degree, not basis's packed-vector length
    with pytest.raises(ValueError, match=r"polynomial degree must be below 2\^3"):
        FaftEngine(6).faft(0x1FF, 3)
    assert len(FaftEngine(6).faft(0xFF, 3).values) > 0  # degree 7 is the largest


@pytest.mark.parametrize("m", ["33", "-1"])
def test_faft_size_out_of_range(capsys, monkeypatch, m):
    # the library's bound, checked before to_novel builds 2^m-bit masks
    def fail(f, n):
        raise AssertionError("to_novel called before the size check")

    monkeypatch.setattr("fafft.reference.to_novel", fail)
    assert main(["faft", "--poly", "1", "--m", m]) == 2
    assert "outside 0..32" in capsys.readouterr().err


def test_bench_csv(capsys):
    code, out = run(capsys, "bench", "--min-log", "8", "--max-log", "9", "--reps", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,log_bits,seconds_median,peak_mib"
    assert len(lines) == 1 + 3 * 2
    methods = {ln.split(",")[0] for ln in lines[1:]}
    assert methods == {"fafft", "schoolbook", "karatsuba"}
    for ln in lines[1:]:
        _, log_bits, sec, peak = ln.split(",")
        assert int(log_bits) in (8, 9)
        assert float(sec) >= 0
        assert float(peak) > 0


def test_bench_json(capsys, tmp_path):
    out_file = tmp_path / "bench.json"
    code, out = run(
        capsys, "bench", "--min-log", "6", "--max-log", "7", "--reps", "1",
        "--json", str(out_file),
    )
    assert code == 0
    record = json.loads(out_file.read_text())
    machine = record["machine"]
    assert set(machine) == {"cores", "cpu_model", "python", "numpy", "commit"}
    assert machine["python"] == platform.python_version()
    assert machine["cores"] >= 1
    rows = record["rows"]
    assert [(r["method"], r["log_bits"]) for r in rows] == [
        (m, n) for n in (6, 7) for m in ("fafft", "schoolbook", "karatsuba")
    ]
    lines = out.strip().splitlines()
    assert len(lines) == 1 + len(rows)
    for r, ln in zip(rows, lines[1:]):  # the CSV rows, unrounded
        assert ln == f"{r['method']},{r['log_bits']},{r['seconds_median']:.6f},{r['peak_mib']:.4f}"


def test_bench_interleaves_timed_calls(capsys, monkeypatch):
    methods = ("fafft", "schoolbook", "karatsuba")
    calls = []
    for name in methods:

        def record(a, b, name=name):
            calls.append((name, 2 * a.bit_length()))
            return 0

        monkeypatch.setitem(ROUTES, name, record)
    code, out = run(capsys, "bench", "--min-log", "4", "--max-log", "6", "--reps", "3")
    assert code == 0
    points = [(name, 1 << logn) for logn in (4, 5, 6) for name in methods]
    # one warm call per point, then three rounds of an untimed and a timed
    # call per point, then one traced call per point for the peak
    rounds = [p for p in points for _ in range(2)] * 3
    assert calls == points + rounds + points
    assert len(out.strip().splitlines()) == 1 + len(points)


def test_routes_come_from_one_table(capsys, monkeypatch):
    # a route added to fafft.mul.ROUTES reaches mul(), fafft mul and fafft bench
    calls = []

    def route(a, b):
        calls.append((a, b))
        return mul_schoolbook(a, b)

    monkeypatch.setitem(ROUTES, "added", route)
    assert mul(0xB, 0xD, "added") == 0x7F
    code, out = run(capsys, "mul", "--a", "b", "--b", "d", "--method", "added")
    assert code == 0 and out.strip() == "7f"
    assert calls == [(0xB, 0xD)] * 2
    code, out = run(capsys, "bench", "--min-log", "4", "--max-log", "5", "--reps", "1")
    assert code == 0
    rows = [ln.split(",")[:2] for ln in out.strip().splitlines()[1:]]
    assert rows == [[name, str(logn)] for logn in (4, 5) for name in ROUTES]
    assert len(calls) == 2 + 2 * 4  # per size a warm, an untimed, a timed and a traced call


@pytest.mark.parametrize(
    "logs",
    [("3", "6"), ("9", "8"), ("4", "32"), ("70", "70")],
    ids=["min-3", "min-above-max", "max-32", "min-70"],
)
def test_bench_size_range_is_usage_error(capsys, monkeypatch, logs):
    # operands of 2^31 bits and more would overflow random.getrandbits
    cli = importlib.import_module("fafft.cli")
    monkeypatch.setattr(cli, "random", None)  # no operand is drawn
    code = main(["bench", "--min-log", logs[0], "--max-log", logs[1], "--reps", "1"])
    assert code == 2
    assert "need 4 <= min-log <= max-log" in capsys.readouterr().err


def test_gen_circuit_counts(capsys, tmp_path):
    out_file = tmp_path / "c8.slp"
    code, out = run(capsys, "gen-circuit", "--n", "8", "--out", str(out_file))
    assert code == 0
    c = gen_mul_circuit(8)
    assert out.strip() == f"and={c.and_count} xor={c.xor_count} total={c.and_count + c.xor_count}"
    assert out_file.read_text() == c.to_slp()


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-circuit", "--n", "8", "--out"),
        ("bench", "--min-log", "6", "--max-log", "6", "--reps", "1", "--json"),
    ],
    ids=["gen-circuit-out", "bench-json"],
)
def test_unwritable_output_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    def no_product(a, b):
        raise AssertionError("a product ran before the path was checked")

    def no_circuit(n):
        raise AssertionError("a circuit was generated before the path was checked")

    for name in ROUTES:
        monkeypatch.setitem(ROUTES, name, no_product)
    monkeypatch.setattr("fafft.cli.gen_mul_circuit", no_circuit)
    path = tmp_path / "missing" / "f"
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {path}: ")
    assert not path.exists()


def test_verify_circuit_ok_and_fail(capsys, tmp_path):
    good = tmp_path / "good.slp"
    good.write_text(gen_mul_circuit(6).to_slp())
    code, out = run(capsys, "verify-circuit", "--slp", str(good), "--trials", "200")
    assert code == 0
    assert out.startswith("ok ")

    # swap two output bindings: still parseable, functionally wrong
    text = gen_mul_circuit(6).to_slp()
    lines = text.strip().splitlines()
    c2 = [i for i, ln in enumerate(lines) if ln.startswith("c2 ")][0]
    c3 = [i for i, ln in enumerate(lines) if ln.startswith("c3 ")][0]
    l2 = lines[c2].split("=")[1]
    l3 = lines[c3].split("=")[1]
    lines[c2] = "c2 =" + l3
    lines[c3] = "c3 =" + l2
    bad = tmp_path / "bad.slp"
    bad.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "verify-circuit", "--slp", str(bad), "--trials", "200")
    assert code == 1
    assert "mismatch" in out


def test_verify_circuit_unreadable(capsys, tmp_path):
    code = main(["verify-circuit", "--slp", str(tmp_path / "missing.slp")])
    assert code == 1
    empty = tmp_path / "empty.slp"
    empty.write_text("")
    code = main(["verify-circuit", "--slp", str(empty)])
    assert code == 1
    assert "cannot load SLP" in capsys.readouterr().err


def test_verify_circuit_rejects_negative_trials(capsys, tmp_path):
    good = tmp_path / "good.slp"
    good.write_text(gen_mul_circuit(6).to_slp())
    for trials in ("-1", "x"):
        with pytest.raises(SystemExit) as e:
            main(["verify-circuit", "--slp", str(good), "--trials", trials])
        assert e.value.code == 2
    code, out = run(capsys, "verify-circuit", "--slp", str(good), "--trials", "0")
    assert code == 0
    assert out.startswith("ok ")


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "selftest ok" in out
    for K in range(1, 7):  # the field axioms at every tower height
        assert f"check field-K{K} ok" in out.splitlines()


def test_usage_errors():
    with pytest.raises(SystemExit) as e:
        main(["mul", "--a", "zz", "--b", "1"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["mul", "--a", "1"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    for argv in (
        ["mul", "--a", "1", "--b", "1", "--method", "fft"],
        ["--k", "6", "selftest"],  # no field option: the nested tower serves every size
        ["gen-circuit", "--n", "16", "--no-cse"],  # pair extraction always runs
        ["bench", "--reps", "0"],
        ["bench", "--reps", "-3"],
        ["bench", "--csv", "x"],  # the CSV goes to stdout only
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
