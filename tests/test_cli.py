"""Command-line interface."""

import pytest

from fafft.circuit import gen_mul_circuit
from fafft.cli import main
from fafft.transform import FaftEngine


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


def test_k_limits_fafft_sizes(capsys):
    # K = 1: GF(4) has 4 points, enough for a product of up to 4 bits
    code, out = run(capsys, "--k", "1", "mul", "--a", "3", "--b", "3")
    assert (code, out.strip()) == (0, "5")
    code, out = run(capsys, "--k", "1", "mul", "--a", "f", "--b", "f")
    assert (code, out) == (2, "")
    code, out = run(capsys, "--k", "1", "mul", "--a", "f", "--b", "f", "--method", "karatsuba")
    assert (code, out.strip()) == (0, "55")
    code, out = run(capsys, "--k", "2", "bench", "--min-log", "4", "--max-log", "5")
    assert (code, out) == (2, "")
    # n = 2 has a 3-bit product, which fits GF(4); n = 3 has a 5-bit one
    code, out = run(capsys, "--k", "1", "gen-circuit", "--n", "2")
    assert code == 0 and out.startswith("and=")
    code, out = run(capsys, "--k", "1", "gen-circuit", "--n", "3")
    assert (code, out) == (2, "")


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


def test_bench_csv(capsys, tmp_path):
    out_file = tmp_path / "bench.csv"
    code, out = run(
        capsys, "bench", "--min-log", "8", "--max-log", "9", "--reps", "1",
        "--csv", str(out_file),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,log_bits,seconds_median"
    assert len(lines) == 1 + 3 * 2
    methods = {ln.split(",")[0] for ln in lines[1:]}
    assert methods == {"fafft", "schoolbook", "karatsuba"}
    for ln in lines[1:]:
        _, log_bits, sec = ln.split(",")
        assert int(log_bits) in (8, 9)
        assert float(sec) >= 0
    assert out_file.read_text() == out


def test_gen_circuit_counts(capsys, tmp_path):
    out_file = tmp_path / "c8.slp"
    code, out = run(capsys, "gen-circuit", "--n", "8", "--out", str(out_file))
    assert code == 0
    c = gen_mul_circuit(8)
    assert out.strip() == f"and={c.and_count} xor={c.xor_count} total={c.and_count + c.xor_count}"
    assert out_file.read_text() == c.to_slp()


def test_gen_circuit_no_cse(capsys):
    code, out = run(capsys, "gen-circuit", "--n", "16", "--no-cse")
    assert code == 0
    c = gen_mul_circuit(16, cse=False)
    assert f"and={c.and_count}" in out


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
    for argv in (["selftest"], ["--k", "1", "selftest"]):
        code, out = run(capsys, *argv)
        assert code == 0
        assert "selftest ok" in out


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
        ["--k", "7", "faft", "--poly", "1", "--m", "2"],
        ["--k", "0", "selftest"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
