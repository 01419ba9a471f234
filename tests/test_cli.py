import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from conftest import age_ref, assert_same_text, naive_report_json, stream_of, whole_trace
from hypothesis import assume, example, given
from hypothesis import strategies as st

import aoiclock.basic
import aoiclock.cli
import aoiclock.extended
import aoiclock.kernels
import aoiclock.simulate
import aoiclock.verify
from aoiclock.basic import AoiDistribution, decompose
from aoiclock.cli import main
from aoiclock.simulate import (
    RngSpec,
    TraceStream,
    simulate_extended,
    stream_basic,
    write_trace_csv,
)

FIG = ["--a-period", "34", "--b-period", "7", "--n-period", "10"]
# a call of the analyze benchmark workload, whose periods share factors
SHARED = ["--a-period", "10", "--b-period", "12", "--n-period", "15"]
GOLDEN = Path(__file__).parent / "golden"
# sha256 of the trace CSV that each argv writes, each recorded before a change
# of writer (the row-by-row one, then one %-format per block): a trace is a
# pure function of (config, cycles, seed), to the byte
TRACE_DIGESTS = json.loads((GOLDEN / "trace_csv_sha256.json").read_text())
# sha256 of the analyze reports (stdout) at a family of 31,627 progressions,
# recorded from the dict-per-progression json.dumps writer
ANALYZE_DIGESTS = json.loads((GOLDEN / "analyze_sha256.json").read_text())
# help, version and usage errors of main, each argv's exit code and output
# at an 80-column terminal, recorded before the parser was built per subcommand
USAGE = json.loads((GOLDEN / "cli_usage.json").read_text())
# verify's stdout and exit code for each argv, recorded before the run's
# defaults and its warm-up rule moved from cli into verify
VERIFY_STDOUT = json.loads((GOLDEN / "verify_stdout.json").read_text())
# uniform families (starts, step, count): starts and step past 2^63, counts
# past 2^31
_FAMILIES = st.tuples(
    st.lists(st.integers(0, 2**70), min_size=1, max_size=50),
    st.integers(1, 2**70),
    st.integers(1, 2**40),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage(capsys, argv):
    """``run`` for an argv that may end in argparse's SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _expanded(self):
    """Stands in for ``AoiDistribution.to_sorted_array``, the one expansion of a
    family into its values, where a call must not list the hyperperiod."""
    raise AssertionError("a family was expanded")


def _flag_id(flag):
    return f"{flag[0][2:]}={flag[1]}"


def _limit_set(maxdigits):
    """Stands in for ``sys.set_int_max_str_digits``, which no call may make."""
    raise AssertionError(f"the int<->str digit limit was set to {maxdigits}")


@contextlib.contextmanager
def _no_int_str_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestAnalyze:
    def test_basic_reference_report(self, capsys):
        code, out, _ = run(capsys, "analyze", *FIG, "--model", "basic")
        assert code == 0
        report = json.loads(out)
        assert report["decomposition"] == {
            "A": 17, "B": 7, "N": 5, "a": 1, "b": 1, "n": 2,
            "hyperperiod_reads": 35,
        }
        assert report["expected_exact"] == "7/1"
        assert report["band"]["center"] == "15/2"
        assert report["band"]["half_width"] == "1/2"
        assert report["rel_error_bound"] == "1/14"
        assert report["max_bound"] == 15
        assert report["observed_max"] == 14
        assert len(report["distribution"]["progressions"]) == 5
        assert report["distribution"]["mean"] == "7/1"

    def test_extended_reference_report(self, capsys):
        code, out, _ = run(
            capsys, "analyze", *FIG, "--model", "extended", "--sigma", "99/100"
        )
        assert code == 0
        report = json.loads(out)
        assert report["freshness_offset"] == 3
        assert report["expectation"]["value"] == "10/1"
        assert report["expectation"]["terms_used"] == 1
        assert report["band"]["center"] == "21/2"
        assert report["rel_error_bound"] == "1/20"
        assert report["max_bound"] == 18
        assert report["sigma"] == "99/100"
        assert report["max_bound_prob"] == 18

    def test_probabilistic_max_with_loss(self, capsys):
        code, out, _ = run(
            capsys, "analyze", *FIG, "--model", "extended",
            "--p", "0.5", "--sigma", "0.99",
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["p"] == "1/2"
        assert report["max_bound_prob"] == 78
        assert "max_bound" not in report  # no hard max under loss

    @pytest.mark.parametrize("golden,argv", [
        ("analyze_basic.json", [*FIG, "--model", "basic"]),
        ("analyze_extended.json", [*FIG, "--model", "extended", "--sigma", "99/100"]),
        ("analyze_extended_lossy.json",
         [*FIG, "--model", "extended", "--p", "1/2", "--sigma", "0.99"]),
        # a = 3, b = 2: three progressions of step a*b = 6, one per i
        ("analyze_basic_shared_factors.json", [*SHARED, "--model", "basic"]),
        ("analyze_extended_workload.json", [*SHARED, "--model", "extended", "--delta-b", "5",
                                            "--delta-n", "2", "--p", "1/21", "--sigma", "99/100"]),
    ])
    def test_stdout_matches_golden(self, capsys, golden, argv):
        # the reports are pinned byte for byte: a faster summary may not
        # change a digit, a key or the key order
        code, out, _ = run(capsys, "analyze", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("argv,reads", [
        (["--a-period", "7", "--b-period", "31607", "--n-period", "31627",
          "--model", "basic"], 31607 * 31627),
        (["--a-period", "7", "--b-period", "311", "--n-period", "317", "--model", "extended",
          "--delta-b", "4", "--delta-n", "9", "--sigma", "99/100"], 311 * 317),
    ])
    def test_summary_never_expands_the_hyperperiod(self, capsys, monkeypatch, argv, reads):
        monkeypatch.setattr(AoiDistribution, "to_sorted_array", _expanded)
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 0, err
        assert json.loads(out)["distribution"]["hyperperiod_reads"] == reads

    def test_extended_at_a_billion_reads(self, capsys, monkeypatch):
        # the hyperperiod age sums once took 7.45 GiB of int64 reads here
        monkeypatch.setattr(AoiDistribution, "to_sorted_array", _expanded)
        code, out, err = run(capsys, "analyze", "--model", "extended", "--a-period", "7",
                             "--b-period", "31607", "--n-period", "31627", "--p", "1/3",
                             "--sigma", "99/100")
        assert code == 0, err
        report = json.loads(out)
        cfg = aoiclock.extended.SystemConfig(decompose(7, 31607, 31627), p=Fraction(1, 3))
        assert cfg.d.b == 1 and cfg.d.period == 31607 * 31627
        # at b == 1 the failures only add l*N', so E = m(0) + E[l]*N'
        assert Fraction(report["expectation"]["value"]) == (
            aoiclock.extended.distribution_conditional(cfg, 0).mean()
            + (1 - cfg.p) / cfg.p * cfg.d.n_period
        )

    def test_extended_value_past_int_str_limit(self, capsys, default_digit_limit):
        # b = 10^4 at p = 1/10: the exact value has about 10^4 digits
        periods = ["--a-period", "30000", "--b-period", "70000", "--n-period", "11"]
        code, out, _ = run(capsys, "analyze", *periods, "--model", "extended", "--p", "1/10")
        assert code == 0
        report = json.loads(out)
        cfg = aoiclock.extended.SystemConfig(
            aoiclock.basic.decompose(30000, 70000, 11), p=Fraction(1, 10)
        )
        with _no_int_str_limit():
            assert Fraction(report["expectation"]["value"]) == (
                aoiclock.extended.expected_exact_extended(cfg).value
            )

    def test_extended_value_past_float_range(self, capsys):
        # at p = 1/10^400 the exact mean is about 10^401: its *_float fields
        # are null, and its exact strings hold it
        p = Fraction(1, 10**400)
        code, out, err = run(capsys, "analyze", *FIG, "--model", "extended", "--p", str(p))
        assert code == 0, err
        report = json.loads(out)
        cfg = aoiclock.extended.SystemConfig(decompose(34, 7, 10), p=p)
        expectation = report["expectation"]
        assert Fraction(expectation["value"]) == aoiclock.extended.expected_exact_extended(cfg).value
        assert expectation["value_float"] is None and report["band"]["center_float"] is None
        assert report["config"]["p_float"] == 0.0 and report["rel_error_bound_float"] == 0.0

    @pytest.mark.parametrize("name", sorted(ANALYZE_DIGESTS))
    def test_large_report_bytes_match_golden_digest(self, capsys, name):
        case = ANALYZE_DIGESTS[name]
        code, out, err = run(capsys, *case["argv"].split())
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]

    @given(family=_FAMILIES, extended=st.booleans(), null=st.booleans())
    def test_writer_matches_json_dumps_per_family(self, family, extended, null):
        dist = AoiDistribution(*family)
        report = {
            "config": {"a_period": 3, "p": "1/1", "p_float": 1.0},
            "distribution": aoiclock.cli._distribution_block(
                dist, dist.mean(), **({"conditioned_on_l": 0} if extended else {})
            ),
            "rel_error_bound": None if null else "1/14",
            "max_bound": 2**64,
        }
        got = aoiclock.cli._report_json(report, dist)
        assert got == naive_report_json(report, dist.starts.tolist(), dist.step, dist.count)

    @given(periods=st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)),
           model=st.sampled_from(["basic", "extended"]))
    # the null config; a = 3 with shifts and loss; a = 5, b = 3
    @example(periods=(1, 1, 1), model="basic")
    @example(periods=(10, 12, 15), model="extended")
    @example(periods=(6, 15, 10), model="basic")
    def test_writer_matches_json_dumps_per_report(self, periods, model):
        assume(gcd(*periods) == 1)
        written = []
        writer = aoiclock.cli._report_json

        def spy(report, dist):
            written.append((report, dist))
            return writer(report, dist)

        argv = ["analyze", *(f"--{k}-period={v}" for k, v in zip("abn", periods)),
                "--model", model]
        if model == "extended":
            argv += ["--delta-b", "5", "--delta-n", "2", "--p", "1/3", "--sigma", "99/100"]
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(out):
            m.setattr(aoiclock.cli, "_report_json", spy)
            assert main(argv) == 0
        [(report, dist)] = written
        want = naive_report_json(report, dist.starts.tolist(), dist.step, dist.count)
        assert out.getvalue() == want + "\n"

    @pytest.mark.parametrize("argv,code", [
        (["analyze", "--a-period", "3", "--b-period", "4", "--n-period", "5"], 0),
        (["analyze", "--a-period", "4", "--b-period", "6", "--n-period", "2"], 2),
        (["analyze", *FIG, "--p", "zero"], 2),  # a usage error from parse_args
    ])
    def test_int_str_limit_restored(self, capsys, monkeypatch, argv, code):
        # main never touches the limit: the caller's guard stays
        limit = sys.get_int_max_str_digits()
        assert limit != 0
        monkeypatch.setattr(sys, "set_int_max_str_digits", _limit_set)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert sys.get_int_max_str_digits() == limit

    def test_int_str_limit_restored_after_concurrent_calls(self, capsys, monkeypatch):
        # calls that overlap share the one limit, and none of them sets it
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(sys, "set_int_max_str_digits", _limit_set)
        argv = ["analyze", "--a-period", "3", "--b-period", "4", "--n-period", "5"]
        codes = []

        def calls():
            codes.extend(main(argv) for _ in range(200))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert codes == [0] * 400
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("argv", [
        ["analyze", *FIG, "--model", "extended", "--p", "1/1" + "0" * 4999],
        ["analyze", *FIG, "--model", "extended", "--sigma", "9" * 4999 + "/1" + "0" * 4999],
        ["analyze", *FIG, "--model", "extended", "--p", "0." + "0" * 4999 + "1"],
        ["sweep", "--grid", "g.json", "--out", "o", "--bin-width", "1/1" + "0" * 4999],
        ["analyze", "--a-period", "1" + "0" * 4999, "--b-period", "7", "--n-period", "11"],
        ["sweep", "--grid", "g.json", "--out", "o", "--jobs", "9" * 5000],
    ], ids=["p", "sigma", "p-decimal", "bin-width", "a-period", "jobs"])
    def test_term_past_int_str_limit_refused(self, capsys, default_digit_limit, argv):
        # each numeric flag reads its terms through int(), under the
        # interpreter's limit; the refusal says so without echoing 5,000 digits
        code, _, err = run_usage(capsys, argv)
        assert code == 2
        assert ("a term of 5000 digits is past the interpreter's limit of 4300 digits "
                "for int<->str conversion") in err
        assert "00000" not in err and len(err) < 1000

    @pytest.mark.parametrize("flag, value, want", [
        ("--a-period", "x", "invalid int value: 'x'"),
        ("--p", "zero", "not a rational number: 'zero'"),
    ])
    def test_malformed_number_refused_as_argparse_words_it(self, capsys, flag, value, want):
        argv = ["analyze", *FIG, "--model", "extended", flag, value]
        code, _, err = run_usage(capsys, argv)
        assert code == 2
        assert err.endswith(f"error: argument {flag}: {want}\n")

    def test_common_divisor_rejected(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--a-period", "4", "--b-period", "6", "--n-period", "2"
        )
        assert code == 2
        assert "common divisor 2" in err

    @pytest.mark.parametrize("argv", [
        ["analyze", *SHARED, "--model", "basic"],
        ["analyze", *SHARED, "--model", "extended", "--p", "1/21", "--sigma", "99/100"],
    ], ids=["analyze-basic", "analyze-extended"])
    def test_family_read_without_progression_objects(self, capsys, monkeypatch, argv):
        # analyze reads the family's starts array, so it never lists the
        # family's values, however many progressions it has
        monkeypatch.setattr(AoiDistribution, "to_sorted_array", _expanded)
        code, out, err = run(capsys, *argv)
        assert code == 0, out + err
        # the patch sees the values counter too, which expands through it
        with pytest.raises(AssertionError, match="expanded"):
            aoiclock.basic.distribution_basic(decompose(10, 12, 15)).values

    def test_null_config_reports_unbounded_rel_error(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--a-period", "1", "--b-period", "1", "--n-period", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["rel_error_bound"] is None
        assert "identically zero" in report["rel_error_note"]
        assert report["expected_exact"] == "0/1"


# ints around the printer's switch from str() at _STR_BITS, around the lowest
# digit limit CPython admits (640) and around the default one (4,300), signed
_EDGES = {f"{sign}{name}": int(sign + "1") * n for sign in "+-" for name, n in [
    *((f"10^{k}{d:+d}", 10**k + d) for k in (632, 633, 639, 640, 4299, 4300) for d in (-1, 0)),
    *((f"2^2100{d:+d}", 2**2100 + d) for d in (-1, 0, 1)),
]}


class TestIntText:
    """``extended._int_text`` writes each int as ``str()`` does with the limit lifted."""

    @pytest.mark.parametrize("n", [0, 1, -1, 10**4, -(2**64)])
    def test_small(self, n):
        assert aoiclock.extended._int_text(n) == str(n)

    @pytest.mark.parametrize("name", sorted(_EDGES))
    def test_around_the_threshold(self, name):
        n = _EDGES[name]
        got = aoiclock.extended._int_text(n)
        with _no_int_str_limit():
            assert got == str(n)

    def test_under_the_lowest_limit(self):
        # the caller's limit is the caller's: at 640 digits, the least that
        # CPython admits, a 4,000-digit int is still written
        n = random.Random(4000).randrange(10**3999, 10**4000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = aoiclock.extended._int_text(n)
        finally:
            sys.set_int_max_str_digits(limit)
        with _no_int_str_limit():
            assert got == str(n)

    @pytest.mark.parametrize("digits", [641, 4301, 20_000, 100_000])
    def test_random(self, digits):
        rng = random.Random(digits)
        for n in (rng.randrange(10 ** (digits - 1), 10**digits), -rng.randrange(10**digits)):
            got = aoiclock.extended._int_text(n)
            with _no_int_str_limit():
                assert got == str(n)


class TestSimulate:
    def test_basic_reference_rows(self, capsys):
        code, out, err = run(capsys, "simulate", *FIG, "--cycles", "35")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,t,age,l"
        assert len(lines) == 36
        assert lines[1] == "0,0,0,0"
        assert lines[2] == "1,34,6,0"
        assert "cycles=35 warmup=0" in err

    def test_basic_rejects_seed(self, capsys):
        code, _, err = run(capsys, "simulate", *FIG, "--cycles", "10", "--seed", "1")
        assert code == 2
        assert "deterministic" in err

    def test_extended_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "simulate", *FIG, "--model", "extended", "--cycles", "10"
        )
        assert code == 2
        assert "--seed is required" in err

    def test_zero_cycles_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", *FIG, "--cycles", "0")
        assert code == 2
        assert "cycles" in err

    def test_unwritable_out_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        # every block of the extended simulator draws through _misses first
        calls = []
        misses = aoiclock.kernels._misses
        monkeypatch.setattr(aoiclock.kernels, "_misses",
                            lambda *a: calls.append(a) or misses(*a))
        argv = ["simulate", *FIG, "--model", "extended", "--p", "1/2", "--seed", "1"]
        code, _, err = run(capsys, *argv, "--cycles", "3000000",
                           "--out", str(tmp_path / "missing" / "trace.csv"))
        assert (code, calls) == (1, [])
        assert err.startswith("error:")
        assert run(capsys, *argv, "--cycles", "10", "--out", str(tmp_path / "t.csv"))[0] == 0
        assert calls

    @pytest.mark.parametrize("bad", [
        ["--cycles", "10"],
        ["--cycles", "10", "--seed", str(2**64)],
        ["--cycles", "0", "--seed", "1"],
        ["--cycles", str(2**62), "--seed", "1"],
    ], ids=["no-seed", "seed-past-uint64", "zero-cycles", "slot-overflow"])
    def test_guard_failure_leaves_out_untouched(self, capsys, tmp_path, bad):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("k,t,age,l\n")
        for out in (old, new):
            code, _, err = run(capsys, "simulate", *FIG, "--model", "extended", *bad,
                               "--out", str(out))
            assert code == 2 and err.startswith("error:")
        assert old.read_text() == "k,t,age,l\n"
        assert not new.exists()

    def test_seeded_run_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", *FIG, "--model", "extended", "--p", "1/2",
                "--cycles", "200", "--seed", "11"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().splitlines()[0] == "k,t,age,l"

    @pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
    def test_trace_bytes_match_golden_digest(self, capsys, tmp_path, name):
        case = TRACE_DIGESTS[name]
        path = tmp_path / "trace.csv"
        assert main([*case["argv"].split(), "--out", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == case["sha256"]

    def test_stdout_and_file_get_the_same_bytes(self, capsys, tmp_path):
        # a warm-up of 71 rows, then defined rows over two blocks
        argv = TRACE_DIGESTS["extended_p1_5_warmup"]["argv"].split()
        path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, *argv, "--out", "-")
        assert code == 0
        assert main([*argv, "--out", str(path)]) == 0
        capsys.readouterr()
        assert out.encode() == path.read_bytes()


def _summary(trace) -> str:
    """The stderr line of ``simulate``, from a whole trace."""
    warm = trace.warmup_cycles
    if warm == trace.cycles:
        return f"cycles={trace.cycles} warmup={warm} (no delivery seen)\n"
    mean = Fraction(sum(trace.ages[warm:].tolist()), trace.cycles - warm)
    peak = int(trace.ages[warm:].max())
    return f"cycles={trace.cycles} warmup={warm} mean={float(mean):.6f} max={peak}\n"


class TestStreamedSimulate:
    """``simulate`` writes the trace as the kernel yields its blocks, and keeps
    its summary as they go by; the bytes and the stderr line are those of the
    whole trace written by ``write_trace_csv``, at any block size."""

    # name -> (argv, the whole trace of n reads)
    CASES = {
        "basic": (["--model", "basic", *FIG],
                  lambda n: whole_trace(stream_basic(decompose(34, 7, 10), n))),
        "lossy": (
            ["--model", "extended", *FIG, "--delta-b", "3", "--delta-n", "5", "--p", "1/2",
             "--seed", "7"],
            lambda n: simulate_extended(
                aoiclock.extended.SystemConfig(decompose(34, 7, 10), 3, 5, Fraction(1, 2)), n,
                RngSpec(7)),
        ),
        # a warm-up of 86 reads, over several blocks of 1 and of 5 reads
        "warmup": (
            ["--model", "extended", "--a-period", "1", "--b-period", "9", "--n-period", "8",
             "--delta-b", "60", "--delta-n", "45", "--p", "1/5", "--seed", "9"],
            lambda n: simulate_extended(
                aoiclock.extended.SystemConfig(decompose(1, 9, 8), 60, 45, Fraction(1, 5)), n,
                RngSpec(9)),
        ),
        # a warm-up of 50,001 reads, over two blocks of the default size
        "long_warmup": (
            ["--model", "extended", "--a-period", "1", "--b-period", "1", "--n-period", "1",
             "--delta-n", "50000", "--p", "1/2", "--seed", "1"],
            lambda n: simulate_extended(
                aoiclock.extended.SystemConfig(decompose(1, 1, 1), 0, 50000, Fraction(1, 2)),
                n, RngSpec(1)),
        ),
    }
    # block size -> reads: every block size cuts the run in several places
    CHUNKS = {1: 150, 5: 1_003, aoiclock.kernels._CHUNK: 2 * aoiclock.kernels._CHUNK + 7}

    @pytest.mark.parametrize("out", ["file", "-"])
    @pytest.mark.parametrize("chunk", sorted(CHUNKS))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equals_whole_trace(self, capsys, monkeypatch, tmp_path, name, chunk, out):
        argv, whole = self.CASES[name]
        cycles = self.CHUNKS[chunk]
        trace = whole(cycles)
        buf = io.StringIO()
        write_trace_csv(stream_of(trace), buf)
        monkeypatch.setattr(aoiclock.kernels, "_CHUNK", chunk)
        path = tmp_path / "trace.csv"
        code, stdout, err = run(capsys, "simulate", *argv, "--cycles", str(cycles),
                                "--out", str(path) if out == "file" else "-")
        assert code == 0
        assert_same_text(path.read_text() if out == "file" else stdout, buf.getvalue())
        assert err == _summary(trace)

    def test_run_without_a_delivery(self, capsys):
        argv, whole = self.CASES["long_warmup"]
        code, out, err = run(capsys, "simulate", *argv, "--cycles", "20", "--out", "-")
        assert code == 0
        assert out.count(",,\n") == 20
        assert err == _summary(whole(20)) == "cycles=20 warmup=20 (no delivery seen)\n"


# Runs the command in argv[1:] and prints its peak RSS in KiB.  It imports
# no numpy, so the command's peak is its own, not the RSS it forks from.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


_MODELS = {"basic": ["--model", "basic"],
           "extended": ["--model", "extended", "--p", "1/2", "--seed", "1"]}


def _peak_rss_mb(commands: dict) -> dict:
    """Peak RSS in MB of each ``aoiclock`` argv of ``commands``, all run at once."""
    src = str(Path(aoiclock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    procs = {
        key: subprocess.Popen(
            [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "aoiclock.cli", *argv],
            env=env, stdout=subprocess.PIPE,
        )
        for key, argv in commands.items()
    }
    peak_mb = {}
    for key, proc in procs.items():
        out, _ = proc.communicate()
        assert proc.returncode == 0, key
        peak_mb[key] = int(out) / 1024
    return peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
def test_simulate_memory_follows_the_block_not_the_run():
    # a whole trace of 10^7 reads would take 160 MB for ages and fails alone
    peak_mb = _peak_rss_mb({
        (model, cycles): ["simulate", *FIG, *flags, "--cycles", str(cycles), "--out", os.devnull]
        for model, flags in _MODELS.items()
        for cycles in (10**4, 10**7)
    })
    for model in _MODELS:
        assert peak_mb[model, 10**7] < peak_mb[model, 10**4] + 32, peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
def test_verify_memory_follows_the_block_not_the_run():
    # the trace checks stream the run; a whole trace of 10^7 reads and the
    # formula's reads next to it would take over 240 MB
    peak_mb = _peak_rss_mb({
        (model, cycles): ["verify", *FIG, *flags, "--cycles", str(cycles)]
        for model, flags in _MODELS.items()
        for cycles in (10**4, 10**7)
    })
    for model in _MODELS:
        assert peak_mb[model, 10**7] < peak_mb[model, 10**4] + 32, peak_mb


def _corrupt(monkeypatch, name, *ks, by=1):
    """Patch ``verify.<name>``, a stream maker, to add ``by`` to the age of each
    read in ``ks`` as its block goes by."""
    real = getattr(aoiclock.verify, name)

    def corrupted(*args):
        stream = real(*args)

        def blocks():
            for k0, ages, fails in stream.blocks():
                for k in ks:
                    if k0 <= k < k0 + len(ages):
                        ages[k - k0] += by
                yield k0, ages, fails

        return TraceStream(stream.a_period, stream.cycles, blocks())

    monkeypatch.setattr(aoiclock.verify, name, corrupted)


def _age(cfg, k, l):
    """The formula's age at read k and l failures, from the scalar oracle."""
    d = cfg.d
    return age_ref(d, k, aoiclock.kernels._shifts(d.n_period, cfg.delta_b, cfg.delta_n, l))


class TestVerify:
    @pytest.mark.parametrize("name", sorted(VERIFY_STDOUT))
    def test_stdout_matches_golden(self, capsys, name):
        # every PASS line, its order and the closing line are pinned byte for byte
        case = VERIFY_STDOUT[name]
        assert run(capsys, *case["argv"])[:2] == (case["code"], case["stdout"])

    def test_basic_reference_passes(self, capsys):
        code, out, _ = run(capsys, "verify", *FIG, "--model", "basic")
        assert code == 0
        assert "all checks passed" in out
        assert "check progression_family_multiset: PASS" in out
        assert "check closed_form_mean: PASS" in out
        assert "check simulator_matches_formula: PASS" in out
        assert "FAIL" not in out

    def test_extended_lossy_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", *FIG, "--model", "extended",
            "--p", "1/2", "--seed", "3", "--delta-b", "2", "--delta-n", "5",
        )
        assert code == 0
        assert "check trace_bridge_identity: PASS" in out
        assert "check progression_family_multiset_l0: PASS" in out
        assert "check progression_family_multiset_l3: PASS" in out
        assert "_l4" not in out
        # no lossless trace check under loss
        assert "lossless_trace_matches_formula" not in out

    def test_extended_lossless_includes_trace_check(self, capsys):
        code, out, _ = run(capsys, "verify", *FIG, "--model", "extended")
        assert code == 0
        assert "check lossless_trace_matches_formula: PASS" in out

    def test_lossless_checks_share_one_stream(self, capsys, monkeypatch):
        real, calls = aoiclock.verify.stream_extended, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(aoiclock.verify, "stream_extended", counted)
        code, out, _ = run(capsys, "verify", *FIG, "--model", "extended")
        assert code == 0
        assert out.splitlines()[-3:] == [
            "check trace_bridge_identity: PASS",
            "check lossless_trace_matches_formula: PASS",
            "all checks passed",
        ]
        assert len(calls) == 1

    def test_default_seed_is_zero(self, capsys, monkeypatch):
        # a passing run prints the same lines under any seed, so the spy
        # reads the seed the stream gets
        real, seeds = aoiclock.verify.stream_extended, []

        def spy(cfg, cycles, rng):
            seeds.append(rng)
            return real(cfg, cycles, rng)

        monkeypatch.setattr(aoiclock.verify, "stream_extended", spy)
        lossy = ["verify", *FIG, "--model", "extended", "--p", "1/2"]
        runs = [run(capsys, *lossy), run(capsys, *lossy, "--seed", "0")]
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert seeds == [RngSpec(0), RngSpec(0)]

    def test_corrupted_offsets_surface_counterexample(self, capsys, monkeypatch):
        real = aoiclock.basic._start
        monkeypatch.setattr(
            aoiclock.basic,
            "_start",
            lambda d, i, j, shifts=(0, 0, 0): real(d, i, j, shifts) + (i + j == 0),
        )
        code, out, _ = run(capsys, "verify", *FIG, "--model", "basic")
        assert code == 1
        # the family's least age, 0, moved to 1: sorted, the arrays differ from position 0
        assert ("check progression_family_multiset: FAIL (first mismatch at sorted position 0: "
                "closed=1 direct=0)") in out.splitlines()
        assert "1 check(s) failed" in out

    def test_corrupted_extended_offsets_fail(self, capsys, monkeypatch):
        # both models build their families through one start formula; the
        # shift triple's base is 2 + l*N', so this corrupts l == 1 only
        real = aoiclock.basic._start
        monkeypatch.setattr(
            aoiclock.basic,
            "_start",
            lambda d, i, j, shifts: real(d, i, j, shifts) + (shifts[2] == 2 + d.n_period),
        )
        code, out, _ = run(capsys, "verify", *FIG, "--model", "extended")
        assert code == 1
        assert "check progression_family_multiset_l0: PASS" in out
        assert "check progression_family_multiset_l1: FAIL" in out
        assert "(l=1, first mismatch at sorted position" in out

    def test_corrupted_trace_fails_bridge_at_first_mismatch(self, capsys, monkeypatch):
        cfg = aoiclock.extended.SystemConfig(decompose(34, 7, 10), 2, 5, Fraction(1, 2))
        trace = simulate_extended(cfg, aoiclock.verify._default_cycles(cfg.d), RngSpec(3))
        k = trace.warmup_cycles + 4
        l = int(trace.fails[k])
        want = _age(cfg, k, l)
        _corrupt(monkeypatch, "stream_extended", k, k + 9)
        code, out, _ = run(
            capsys, "verify", *FIG, "--model", "extended",
            "--p", "1/2", "--seed", "3", "--delta-b", "2", "--delta-n", "5",
        )
        assert code == 1
        assert (
            f"check trace_bridge_identity: FAIL (k={k} l={l}: simulated={want + 1} formula={want})"
            in out.splitlines()
        )
        assert out.endswith("1 check(s) failed: trace_bridge_identity\n")

    # (30000, 70000, 11) at p = 1/10: a hyperperiod of 77 reads, b = 10^4, and
    # an exact mean whose terms have about 10^4 digits, past the int<->str limit
    BIG_MEAN = ["--model", "extended", "--a-period", "30000", "--b-period", "70000",
                "--n-period", "11", "--p", "1/10"]

    def test_exact_mean_past_int_str_limit_passes(self, capsys, default_digit_limit):
        code, out, _ = run(capsys, "verify", *self.BIG_MEAN)
        assert (code, "FAIL" in out) == (0, False)
        assert "check band_membership: PASS" in out.splitlines()

    def test_band_failure_writes_the_whole_exact_mean(self, capsys, monkeypatch,
                                                       default_digit_limit):
        monkeypatch.setattr(aoiclock.verify, "expected_approx_extended",
                            lambda cfg: aoiclock.basic.BandedValue(Fraction(-1, 2), Fraction(1, 3)))
        code, out, _ = run(capsys, "verify", *self.BIG_MEAN)
        cfg = aoiclock.extended.SystemConfig(decompose(30000, 70000, 11), p=Fraction(1, 10))
        exact = aoiclock.extended.expected_exact_extended(cfg).value
        with _no_int_str_limit():
            want = f"check band_membership: FAIL (exact={exact} band=[-5/6, -1/6])"
        assert len(want) > 2 * 4300
        assert code == 1
        assert want in out.splitlines()

    # (1, 9, 8) at shifts (60, 45): a warm-up of 62 reads at p = 1 and of 86 at
    # p = 1/5 (seed 9), over eight or more blocks of 8
    LATE = ["--a-period", "1", "--b-period", "9", "--n-period", "8", "--delta-b", "60",
            "--delta-n", "45", "--seed", "9"]

    BRIDGE = "check trace_bridge_identity: PASS"

    @pytest.mark.parametrize("argv, trace_lines", [
        (["--model", "basic", *FIG], ["check simulator_matches_formula: PASS"]),
        (["--model", "extended", *FIG, "--p", "1/2", "--seed", "3", "--delta-b", "2",
          "--delta-n", "5"], [BRIDGE]),
        (["--model", "extended", *LATE, "--p", "1/5"], [BRIDGE]),
        (["--model", "extended", *LATE], [BRIDGE, "check lossless_trace_matches_formula: PASS"]),
    ], ids=["basic", "lossy", "late-lossy", "late-lossless"])
    def test_passes_over_small_blocks(self, capsys, monkeypatch, argv, trace_lines):
        monkeypatch.setattr(aoiclock.kernels, "_CHUNK", 8)
        code, out, _ = run(capsys, "verify", *argv)
        assert (code, "FAIL" in out) == (0, False)
        assert out.splitlines()[-len(trace_lines) - 1:] == [*trace_lines, "all checks passed"]

    def test_warmup_blocks_run_no_check(self, capsys, monkeypatch):
        # at p = 1 reads 0..61 are the warm-up, in blocks of 8: the trace
        # checks guard and evaluate no block before the one that holds read 62
        monkeypatch.setattr(aoiclock.kernels, "_CHUNK", 8)
        k0s, inside = [], []
        real_check_trace = aoiclock.verify._check_trace

        def check_trace(*args, **kwargs):
            inside.append(True)
            return real_check_trace(*args, **kwargs)

        def recorded(real):
            def call(*args):
                if inside:
                    k0s.append(args[-2])
                return real(*args)

            return call

        monkeypatch.setattr(aoiclock.verify, "_check_trace", check_trace)
        for name in ("check_sequence_args", "seq_conditional"):
            monkeypatch.setattr(aoiclock.kernels, name, recorded(getattr(aoiclock.kernels, name)))
        code, out, _ = run(capsys, "verify", "--model", "extended", *self.LATE)
        assert code == 0
        assert min(k0s) == 62
        assert out.splitlines() == [
            *(f"check progression_family_multiset_l{l}: PASS" for l in range(4)),
            "check closed_form_mean: PASS",
            "check band_membership: PASS",
            self.BRIDGE,
            "check lossless_trace_matches_formula: PASS",
            "all checks passed",
        ]

    def test_basic_mismatch_in_a_later_block_named_by_its_k(self, capsys, monkeypatch):
        monkeypatch.setattr(aoiclock.kernels, "_CHUNK", 8)
        want = age_ref(decompose(34, 7, 10), 37)
        _corrupt(monkeypatch, "stream_basic", 37, 61)
        code, out, _ = run(capsys, "verify", "--model", "basic", *FIG)
        assert code == 1
        assert out.splitlines()[-2:] == [
            f"check simulator_matches_formula: FAIL (first mismatch at k=37: "
            f"simulated={want + 1} formula={want})",
            "1 check(s) failed: simulator_matches_formula",
        ]

    def test_basic_read_without_an_age_fails(self, capsys, monkeypatch):
        # the lossless model has no warm-up: a first read marked undefined is
        # a mismatch, not a warm-up to skip
        _corrupt(monkeypatch, "stream_basic", 0, by=-1)
        code, out, _ = run(capsys, "verify", "--model", "basic", *FIG)
        assert code == 1
        assert ("check simulator_matches_formula: FAIL (first mismatch at k=0: "
                "simulated=undefined formula=0)") in out.splitlines()

    def test_extended_mismatch_in_a_later_block_named_by_its_k(self, capsys, monkeypatch):
        monkeypatch.setattr(aoiclock.kernels, "_CHUNK", 8)
        cfg = aoiclock.extended.SystemConfig(decompose(1, 9, 8), 60, 45, Fraction(1, 5))
        trace = simulate_extended(cfg, aoiclock.verify._default_cycles(cfg.d), RngSpec(9))
        assert trace.warmup_cycles == 86
        k = 86 + 21
        l = int(trace.fails[k])
        want = _age(cfg, k, l)
        _corrupt(monkeypatch, "stream_extended", k, k + 30)
        code, out, _ = run(capsys, "verify", "--model", "extended", *self.LATE, "--p", "1/5")
        assert code == 1
        assert out.splitlines()[-2:] == [
            f"check trace_bridge_identity: FAIL (k={k} l={l}: simulated={want + 1} formula={want})",
            "1 check(s) failed: trace_bridge_identity",
        ]

    def test_lossless_mismatch_in_a_later_block_named_by_its_k(self, capsys, monkeypatch):
        monkeypatch.setattr(aoiclock.kernels, "_CHUNK", 8)
        cfg = aoiclock.extended.SystemConfig(decompose(1, 9, 8), 60, 45)
        cycles = aoiclock.verify._default_cycles(cfg.d)
        assert simulate_extended(cfg, cycles, RngSpec(9)).warmup_cycles == 62
        want = _age(cfg, 75, 0)
        _corrupt(monkeypatch, "stream_extended", 75)
        code, out, _ = run(capsys, "verify", "--model", "extended", *self.LATE)
        assert code == 1
        assert out.splitlines()[-3:] == [
            f"check trace_bridge_identity: FAIL (k=75 l=0: simulated={want + 1} formula={want})",
            "check lossless_trace_matches_formula: FAIL (first mismatch at k=75)",
            "2 check(s) failed: trace_bridge_identity, lossless_trace_matches_formula",
        ]

    def test_failed_check_keeps_its_first_mismatch(self, capsys, monkeypatch):
        # the bridge's formula, the call with a failure count per read, is
        # corrupted from its second block on, and the lossless one is not: a
        # failed check is not run again, so a later block cannot rename its k
        monkeypatch.setattr(aoiclock.kernels, "_CHUNK", 8)
        real, starts = aoiclock.kernels.seq_conditional, []

        def corrupted(*args):
            ages = real(*args)
            if not isinstance(args[5], int) and len(args[5]):  # a block's failure counts
                starts.append(args[6])
                if len(starts) > 1:
                    ages = ages + 1
            return ages

        monkeypatch.setattr(aoiclock.kernels, "seq_conditional", corrupted)
        code, out, _ = run(capsys, "verify", "--model", "extended", *self.LATE)
        k = starts[1]
        want = _age(aoiclock.extended.SystemConfig(decompose(1, 9, 8), 60, 45), k, 0)
        assert code == 1
        assert out.splitlines()[-3:] == [
            f"check trace_bridge_identity: FAIL (k={k} l=0: simulated={want} formula={want + 1})",
            "check lossless_trace_matches_formula: PASS",
            "1 check(s) failed: trace_bridge_identity",
        ]
        assert len(starts) == 2

    @pytest.mark.parametrize("model", ["basic", "extended"])
    def test_families_compared_without_expanding_values(self, capsys, monkeypatch, model):
        def expanded(self):
            raise AssertionError("a family was expanded into its values")

        monkeypatch.setattr(aoiclock.basic.AoiDistribution, "values", property(expanded))
        code, out, err = run(capsys, "verify", *FIG, "--model", model)
        assert code == 0, out + err
        assert "all checks passed" in out

    @pytest.fixture
    def no_kernels(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify ran a check past its hyperperiod cap")

        for name in (
            "distribution_basic", "sequence_basic", "stream_basic",
            "distribution_conditional", "sequence_conditional", "stream_extended",
            "expected_exact_extended",
        ):
            monkeypatch.setattr(aoiclock.verify, name, refuse)

    @pytest.mark.parametrize("model", ["basic", "extended"])
    def test_oversized_hyperperiod_refused_up_front(self, capsys, no_kernels, model):
        # a hyperperiod of 999,634,589 reads
        code, out, err = run(
            capsys, "verify", "--a-period", "7", "--b-period", "31607",
            "--n-period", "31627", "--model", model,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: hyperperiod of 999634589 reads is over verify's cap of 2000000: "
            "verify expands whole hyperperiods, in memory that grows with them\n"
        )

    @pytest.mark.parametrize("model", ["basic", "extended"])
    @pytest.mark.parametrize(
        "flag", [["--l-max", "-1"], ["--cycles", "-3"], ["--cycles", "0"]], ids=_flag_id
    )
    def test_bad_counts_refused_before_any_check(self, capsys, model, flag):
        code, out, err = run(capsys, "verify", *FIG, "--model", model, *flag)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag[0]} must be >= ")

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    def test_bad_seed_refused_before_any_check(self, capsys, seed):
        code, out, err = run(capsys, "verify", *FIG, "--model", "extended", "--p", "1/3",
                             "--seed", seed)
        assert (code, out) == (2, "")
        assert err == "error: seed must fit in uint64\n"

    # k_min = ceil((first*N' + delta_n + 1)/A'), first = max(0, ceil((delta_b + 1 - delta_n)/N'))
    SMALL = ["--a-period", "3", "--b-period", "4", "--n-period", "5", "--delta-b", "100000"]

    @pytest.mark.parametrize("argv, cycles, k_min", [
        ([*SMALL, "--p", "1/2", "--seed", "3"], ["--cycles", "10"], 33336),
        (SMALL, [], 33336),
        ([*FIG, "--p", "1/2", "--seed", "3", "--delta-n", "50"], ["--cycles", "2"], 2),
    ], ids=["lossy", "default-cycles", "at-k-min"])
    def test_run_with_no_checkable_read_refused_before_any_draw(self, capsys, monkeypatch,
                                                                 argv, cycles, k_min):
        # the simulator kernel draws only as its blocks are asked for, and
        # at p = 1 it makes no draw at all, so the spy counts blocks
        blocks, real = [], aoiclock.kernels.sim_blocks

        def spy(*args):
            for block in real(*args):
                blocks.append(block[0])
                yield block

        monkeypatch.setattr(aoiclock.kernels, "sim_blocks", spy)
        code, out, err = run(capsys, "verify", "--model", "extended", *argv, *cycles)
        assert (code, out, blocks) == (2, "", [])
        assert f"no read before k_min = {k_min} can see a delivery" in err
        code, out, _ = run(capsys, "verify", "--model", "extended", *argv,
                           "--cycles", str(k_min + 1))
        assert (code, out.splitlines()[-1]) == (0, "all checks passed")
        assert blocks

    # The sequence kernels' guard admits top = (k0 + count)*A' + delta_b +
    # delta_n + (l + 2)*N' + 2 below 2^62.  (14924550221447857, 7, 44) has 308
    # reads a hyperperiod, so its family reads 1..308 at l = 0 make top
    # 2^62 - 1; (21449702411290176, 11, 30) has 55, and its default run of
    # 3*55 + 50 = 215 reads, k = 0..214 at l = 0, makes top 2^62 - 2.
    FAMILY_EDGE = ["--a-period", "14924550221447857", "--b-period", "7", "--n-period", "44",
                   "--cycles", "2"]
    RUN_EDGE = ["--a-period", "21449702411290176", "--b-period", "11", "--n-period", "30"]

    # One past each edge, by l or delta_b, the guard refuses; the basic model
    # has neither flag, and one more read passes the simulator's own guard.
    @pytest.mark.parametrize("argv, past, refusal", [
        (["--model", "basic", *FAMILY_EDGE], [], None),
        (["--model", "extended", *FAMILY_EDGE, "--l-max", "0"], ["--l-max", "1"],
         "inputs too large for 64-bit kernels"),
        (["--model", "basic", *RUN_EDGE], ["--cycles", "216"], "slot numbers would overflow int64"),
        (["--model", "extended", *RUN_EDGE], ["--delta-b", "2"],
         "inputs too large for 64-bit kernels"),
    ], ids=["basic-family", "extended-family", "basic-run", "extended-run"])
    def test_passes_at_the_sequence_guards_edge(self, capsys, argv, past, refusal):
        code, out, _ = run(capsys, "verify", *argv)
        assert (code, out.splitlines()[-1]) == (0, "all checks passed")
        if refusal:
            assert run(capsys, "verify", *argv, *past) == (2, "", f"error: {refusal}\n")

    def test_term_cap_refused_before_any_check(self, capsys, monkeypatch):
        # b = gcd(300009, 500015) = 100003, one prime over the exact mean's cap
        real, calls = aoiclock.verify.sequence_conditional, []
        monkeypatch.setattr(aoiclock.verify, "sequence_conditional",
                            lambda *args: calls.append(args) or real(*args))
        code, out, err = run(capsys, "verify", "--model", "extended", "--a-period", "300009",
                             "--b-period", "500015", "--n-period", "7", "--p", "1/2", "--seed", "1")
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: b = gcd(a_period, b_period) = 100003 is over the cap of "
                              "100000: ")

    def test_run_that_never_delivers_fails(self, capsys):
        # `simulate` on the same flags reports warmup=2000 (no delivery seen)
        code, out, _ = run(capsys, "verify", "--model", "extended", "--a-period", "3",
                           "--b-period", "4", "--n-period", "5", "--p", "1/1000000", "--seed", "1",
                           "--cycles", "2000")
        assert code == 1
        assert out.splitlines()[-2:] == [
            "check trace_bridge_identity: FAIL (0 of 2000 reads compared (all warm-up))",
            "1 check(s) failed: trace_bridge_identity",
        ]

    @pytest.mark.parametrize("command", [["verify"], ["simulate", "--out", "-"]],
                             ids=lambda c: c[0])
    def test_p_that_would_run_as_zero_refused_before_any_draw(self, capsys, monkeypatch,
                                                              command):
        draws = []
        monkeypatch.setattr(aoiclock.kernels, "_misses", lambda *args: draws.append(args))
        code, out, err = run(capsys, *command, "--model", "extended", "--a-period", "3",
                             "--b-period", "4", "--n-period", "5",
                             "--p", "1/100000000000000000000", "--seed", "1", "--cycles", "2000")
        assert (code, out, draws) == (2, "", [])
        assert err == ("error: p = 1/100000000000000000000 is below 2^-54: round(p * 2^53) = 0, "
                       "so the simulator's 53-bit draws would never succeed\n")

    def test_cap_admits_its_own_value(self, capsys, monkeypatch):
        monkeypatch.setattr(aoiclock.verify, "_MAX_VERIFY_READS", 35)
        code, out, _ = run(capsys, "verify", *FIG, "--model", "basic")
        assert code == 0
        assert "all checks passed" in out
        monkeypatch.setattr(aoiclock.verify, "_MAX_VERIFY_READS", 34)
        code, _, err = run(capsys, "verify", *FIG, "--model", "basic")
        assert code == 2
        assert "hyperperiod of 35 reads is over verify's cap of 34" in err


class TestSweep:
    def test_end_to_end(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text('{"A": "2..5", "B": "2..5", "N": "2..5", "p": ["1", "1/2"]}')
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, "sweep", "--grid", str(grid), "--out", str(out_dir), "--jobs", "2"
        )
        assert code == 0
        assert (out_dir / "global.csv").exists()
        assert (out_dir / "summary.csv").exists()
        assert "bound_violations=0" in out
        assert "candidates=128" in out

    def test_defaults_are_one_process_and_bins_of_a_hundredth(self, capsys, monkeypatch,
                                                               tmp_path):
        # 64 factor tuples in blocks of 8, on two cores: only --jobs forks
        def refuse():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(aoiclock.sweep, "_BLOCK", 8)
        monkeypatch.setattr(aoiclock.sweep, "_CORES", 2)
        grid = tmp_path / "grid.json"
        grid.write_text('{"A": "2..5", "B": "2..5", "N": "2..5", "p": ["1", "1/2"]}')
        given = tmp_path / "given"
        code, _, _ = run(capsys, "sweep", "--grid", str(grid), "--out", str(given),
                         "--bin-width", "1/100", "--jobs", "1")
        assert code == 0
        monkeypatch.setattr(os, "fork", refuse)
        code, _, _ = run(capsys, "sweep", "--grid", str(grid), "--out", str(tmp_path / "o"))
        assert code == 0
        for f in given.iterdir():
            assert (tmp_path / "o" / f.name).read_bytes() == f.read_bytes(), f.name

    def test_empty_grid_exits_2(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text('{"A": "2..4", "B": "2..4", "N": "2..4"}')
        code, _, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "no grid candidate" in err

    def test_oversized_grid_exits_2(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text('{"A": "1..1000000000000"}')
        out_dir = tmp_path / "o"
        code, _, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_dir))
        assert code == 2
        assert err.startswith(f"error: grid has {4 * 10**14} candidates, over the cap of ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("raw,message", [
        ('{"A": [null]}', "grid field A: None is not an integer"),
        ('{"A": [[2]]}', "grid field A: [2] is not an integer"),
        ('{"A": ["x"]}', "grid field A: 'x' is not an integer"),
        ('{"A": "1..x"}', "grid field A: bad range '1..x'"),
    ])
    def test_malformed_grid_entry_exits_2(self, capsys, tmp_path, raw, message):
        grid = tmp_path / "grid.json"
        grid.write_text(raw)
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, message", [
        (["--jobs", "0"], "--jobs must be >= 1"),
        (["--bin-width", "0"], "--bin-width must be > 0"),
    ], ids=["jobs", "bin-width"])
    def test_bad_flag_exits_2_before_out_is_made(self, capsys, tmp_path, flag, message):
        grid = tmp_path / "grid.json"
        grid.write_text('{"A": "2..5", "B": "2..5", "N": "2..5"}')
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_dir), *flag)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    # a term of 5,001 digits, past the default int<->str limit, in each shape a
    # grid file holds a number in; none of its digits reaches stderr
    BIG = "1" + "0" * 5000
    LIMIT = ("a term of 5001 digits is past the interpreter's limit of 4300 digits for int<->str "
             "conversion")

    @pytest.mark.parametrize("raw, field", [
        ('{"p": ["1/%s"]}' % BIG, "p"),
        ('{"p": %s}' % BIG, "p"),
        ('{"A": %s}' % BIG, "A"),
        ('{"delta_b": [0, %s]}' % BIG, "delta_b"),
        ('{"A": "1..%s"}' % BIG, "A"),
        ('{"N": "2..5:%s"}' % BIG, "N"),
        ('{"B": ["%s"]}' % BIG, "B"),
        ('{"A": [[%s]]}' % BIG, "A"),
    ], ids=["p-string", "p-int", "int-field", "int-list-entry", "range", "range-step",
            "string-list-entry", "nested-list-entry"])
    def test_grid_number_past_int_str_limit_exits_2(self, capsys, tmp_path, default_digit_limit,
                                                     raw, field):
        grid = tmp_path / "grid.json"
        grid.write_text(raw)
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"error: grid field {field}: {self.LIMIT}\n")
        assert len(err) < 300
        assert not out_dir.exists()

    def test_b_over_cap_exits_2(self, capsys, monkeypatch, tmp_path):
        # b = 100001 is over the exact expectation's term cap: the grid is
        # refused when it is read, before any factor tuple is classified
        def listed(*args):
            raise AssertionError("a factor tuple was classified")

        monkeypatch.setattr(aoiclock.sweep, "_iter_candidates", listed)
        grid = tmp_path / "grid.json"
        grid.write_text('{"A": 2, "B": 3, "N": 5, "b": [1, 100001]}')
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err == (
            "error: grid field b: value 100001 is over the cap of 100000 on the exact "
            "expectation's terms\n"
        )
        assert not out_dir.exists()

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def evaluate(*args):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr(aoiclock.sweep, "_evaluate", evaluate)

    def test_out_that_cannot_be_a_directory_fails_before_evaluation(self, capsys, tmp_path,
                                                                     no_evaluation):
        grid = tmp_path / "grid.json"
        grid.write_text('{"A": "2..5", "B": "2..5", "N": "2..5"}')
        out_file = tmp_path / "out"
        out_file.write_text("kept")
        code, out, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(out_file) in err
        assert out_file.read_text() == "kept"

    # each slice file is named slice_<field>_<value>.csv, "/" written "-"
    @pytest.mark.parametrize("raw, field, length", [
        ('{"A": [1, 1e300]}', "A", 313),
        ('{"p": ["1/1%s1"]}' % ("0" * 298), "p", 314),
    ], ids=["int-field", "p"])
    def test_overlong_slice_file_name_exits_2(self, capsys, tmp_path, no_evaluation,
                                              raw, field, length):
        grid = tmp_path / "grid.json"
        grid.write_text(raw)
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_dir))
        assert (code, out, err) == (2, "", (
            f"error: grid field {field}: a slice file name of {length} bytes is over the "
            f"255-byte limit on file names\n"
        ))
        assert not out_dir.exists()

    def test_missing_grid_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--grid", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "error:" in err


class TestModelFlags:
    @pytest.mark.parametrize(
        "flag", [["--p", "1/2"], ["--delta-b", "1"], ["--delta-n", "1"]], ids=_flag_id
    )
    @pytest.mark.parametrize(
        "command", [["analyze"], ["simulate", "--cycles", "10"], ["verify"]], ids=lambda c: c[0]
    )
    def test_basic_model_forces_trivial_extras(self, capsys, command, flag):
        code, out, err = run(capsys, *command, *FIG, "--model", "basic", *flag)
        assert code == 2
        assert out == ""
        assert err == "error: the lossless model has no phase shifts and p == 1\n"

    @pytest.mark.parametrize("command, flag", [
        (["analyze"], ["--sigma", "99/100"]),
        (["verify"], ["--l-max", "5"]),
        (["verify"], ["--l-max", "0"]),
    ], ids=["analyze-sigma=99/100", "verify-l-max=5", "verify-l-max=0"])
    def test_basic_model_rejects_loss_flags(self, capsys, command, flag):
        code, out, err = run(capsys, *command, *FIG, "--model", "basic", *flag)
        assert (code, out) == (2, "")
        assert err == f"error: the basic model is lossless; {flag[0]} does not apply\n"

    def test_verify_rejects_seed_as_simulate_does(self, capsys):
        code, out, err = run(capsys, "verify", *FIG, "--model", "basic", "--seed", "5")
        assert (code, out) == (2, "")
        _, _, want = run(capsys, "simulate", *FIG, "--cycles", "10", "--seed", "5")
        assert err == want == "error: the basic model is deterministic; --seed does not apply\n"


class TestOverflowGuards:
    # periods whose slot numbers do not fit the 64-bit kernels
    HUGE = ["--a-period", "4611686018427387905", "--b-period", "2", "--n-period", "3"]

    @pytest.mark.parametrize("command, message", [
        (["verify"], "inputs too large for 64-bit kernels"),
        (["simulate", "--cycles", "5"], "slot numbers would overflow int64"),
    ], ids=["verify", "simulate"])
    def test_exits_2_with_the_guard_message(self, capsys, command, message):
        code, out, err = run(capsys, *command, *self.HUGE)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestSumsPastInt64:
    # 12 reads of the basic model whose ages sum past 2^63
    BIG = ["--a-period", "144115188075855872", "--b-period", "2882303761517117437", "--n-period", "1"]
    # a hyperperiod of 13 reads whose ages sum past 2^63
    WIDE = ["--a-period", str(2**57), "--b-period", str(13 * 2**57), "--n-period", "1"]

    def test_simulate_prints_the_exact_mean(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--model", "basic", *self.BIG, "--cycles", "12",
                           "--out", str(tmp_path / "t.csv"))
        assert code == 0
        ages = aoiclock.kernels.sim_basic(144115188075855872, 2882303761517117437, 1, 12)
        mean = Fraction(sum(int(a) for a in ages), 12)
        assert mean > 2**63 / 12
        assert f" mean={float(mean):.6f} " in err

    def test_verify_direct_mean_is_exact(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "basic", *self.WIDE, "--cycles", "1")
        assert code == 0
        assert "check closed_form_mean: PASS" in out

    @pytest.mark.parametrize("model", [["--model", "basic"], ["--model", "extended", "--p", "1/2"]],
                             ids=["basic", "extended"])
    def test_verify_refuses_an_overlong_simulation_before_any_check(self, capsys, model):
        # the default 3 hyperperiods of reads pass 2^62 slots
        code, out, err = run(capsys, "verify", *model, *self.WIDE)
        assert code == 2
        assert "check" not in out
        assert err == "error: slot numbers would overflow int64\n"

    def test_verify_checks_the_seed_before_the_run_as_simulate_does(self, capsys):
        # both build the simulation's stream, which takes a checked seed
        flags = ["--model", "extended", "--p", "1/2", *self.WIDE, "--seed", str(2**64)]
        verified = run(capsys, "verify", *flags)
        simulated = run(capsys, "simulate", *flags, "--cycles", "89", "--out", os.devnull)
        assert verified == simulated == (2, "", "error: seed must fit in uint64\n")


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_fraction_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *FIG, "--p", "zero"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "aoiclock" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(USAGE))
    def test_usage_bytes_match_golden(self, capsys, monkeypatch, name):
        # help, version and every usage error read as the golden bytes say
        monkeypatch.setenv("COLUMNS", "80")
        case = USAGE[name]
        assert run_usage(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])

    def test_main_without_argv_dispatches_on_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        case = USAGE["sweep_help"]
        monkeypatch.setattr(sys, "argv", ["aoiclock", *case["argv"]])
        assert run_usage(capsys, None) == (0, case["stdout"], "")
        monkeypatch.setattr(sys, "argv", ["aoiclock", "analyze", *FIG, "--model", "basic"])
        assert run_usage(capsys, None) == (0, (GOLDEN / "analyze_basic.json").read_text(), "")


@pytest.fixture
def fresh_parser():
    """No parser built before the test, and none left behind by it."""
    aoiclock.cli.build_parser.cache_clear()
    yield
    aoiclock.cli.build_parser.cache_clear()


# one process's calls of main, in this order: each must read exactly as it
# does on a parser built for it alone
_SHARED_SEQUENCE = [
    ["analyze", *FIG, "--model", "extended", "--p", "1/2", "--sigma", "99/100"],
    ["analyze", *FIG, "--model", "extended", "--p", "1/2"],
    ["analyze", *FIG, "--p", "zero"],
    ["--version"],
    ["simulate", *FIG, "--cycles", "5", "--out", "-"],
    ["verify", *FIG, "--model", "basic"],
]


@pytest.mark.usefixtures("fresh_parser")
class TestSharedParser:
    def test_repeated_calls_build_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        after = []
        for _ in range(3):
            assert run(capsys, "analyze", *FIG, "--model", "basic")[0] == 0
            after.append(len(built))
        assert after[0] > 0
        assert after[1:] == [after[0]] * 2

    def test_no_state_carries_between_calls(self, capsys):
        shared = [run_usage(capsys, argv) for argv in _SHARED_SEQUENCE]
        alone = []
        for argv in _SHARED_SEQUENCE:
            aoiclock.cli.build_parser.cache_clear()
            alone.append(run_usage(capsys, argv))
        assert shared == alone
        with_sigma, without_sigma = (json.loads(out) for _, out, _ in shared[:2])
        assert with_sigma["sigma"] == "99/100" and "max_bound_prob" in with_sigma
        assert "sigma" not in without_sigma and "max_bound_prob" not in without_sigma
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]

    def test_help_is_laid_out_when_printed(self, capsys, monkeypatch):
        # built under a wide terminal, the parser still prints the golden
        # 80-column bytes at 80 columns
        monkeypatch.setenv("COLUMNS", "200")
        wide = {name: run_usage(capsys, case["argv"]) for name, case in USAGE.items()}
        monkeypatch.setenv("COLUMNS", "80")
        for name, case in USAGE.items():
            assert run_usage(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])
        assert wide["analyze_help"][1] != USAGE["analyze_help"]["stdout"]


# Imports aoiclock.cli and prints how many ArgumentParsers that built, and
# how many parsers build_parser holds.
_COUNT_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def spy(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = spy
import aoiclock.cli
print(len(built), aoiclock.cli.build_parser.cache_info().currsize)
"""


def test_import_builds_no_parser():
    src = str(Path(aoiclock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _COUNT_PARSERS], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0 0\n"
