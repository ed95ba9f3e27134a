import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import skipfree
from skipfree import cli, errors, oracle
from skipfree import (
    ContinuousChain,
    DegenerateSpectrumError,
    DiscreteChain,
    DistributionTable,
    InputError,
    NumericalError,
    SkipFreeError,
    build_law,
    parse_chain,
    pdf_cdf_table,
    phase_representation,
    pmf_table,
    transient_block,
)
from skipfree.corpus import (
    random_birth_death_continuous,
    random_continuous_chain,
    random_discrete_chain,
)
from skipfree.cli import COMMANDS, _histogram_lines, build_parser, config_from_args, emit_table, run
from tests.conftest import CHAIN_DIR, GOLDEN_DIR, csv_rows, in_time_unit, serialize_chain


def run_cli(capsys, command, path, *options):
    """Parse ``command path options`` as the shell would and run it: (exit code, stdout, stderr)."""
    code = run(build_parser().parse_args([command, str(path), *map(str, options)]))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", CHAIN_DIR / "d1_geometric.json")
    assert code == 0 and err == ""
    assert "discrete" in out


def test_validate_bad_chain_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type":"discrete","d":1,"rows":[{"r":0.6,"p":0.5}]}')
    code, out, err = run_cli(capsys, "validate", bad)
    assert code == 1
    assert "error" in err


def test_missing_file_exits_3(capsys):
    code, _, err = run_cli(capsys, "validate", CHAIN_DIR / "no_such_chain.json")
    assert code == 3 and "cannot read" in err


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", CHAIN_DIR / "d2_mixed.json")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,real,imag,classification"
    assert len(lines) == 3
    assert lines[1].endswith("RealMixedSign")
    top = float(lines[1].split(",")[1])
    assert top == pytest.approx((0.5 + math.sqrt(0.97)) / 2, rel=1e-12)


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", CHAIN_DIR / "d2_coupled_rates.json", "--format", "json")
    doc = json.loads(out)
    assert doc["classification"] == "RealNonnegative"
    assert sorted(v["real"] for v in doc["values"]) == pytest.approx(
        [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    )


def test_law_and_moments_documents(capsys):
    code, out, _ = run_cli(capsys, "law", CHAIN_DIR / "d1_geometric.json", "--format", "json")
    doc = json.loads(out)
    assert doc["leading"] == 0.5 and doc["denom"] == [1.0, -0.5]
    assert doc["phase_parameters"] == [0.5]
    code, out, _ = run_cli(capsys, "moments", CHAIN_DIR / "d1_geometric.json")
    assert out.splitlines()[0] == "mean,variance"
    mean, var = (float(x) for x in out.splitlines()[1].split(","))
    assert (mean, var) == (2.0, 2.0)


def test_pmf_golden_d1(capsys):
    code, out, _ = run_cli(capsys, "pmf", CHAIN_DIR / "d1_geometric.json")
    assert code == 0
    golden = (GOLDEN_DIR / "d1_geometric_pmf.csv").read_text()
    assert np.array_equal(csv_rows(out), csv_rows(golden))  # 17-digit round trip is exact


def test_pmf_golden_d2(capsys):
    code, out, _ = run_cli(capsys, "pmf", CHAIN_DIR / "d2_mixed.json")
    golden = csv_rows((GOLDEN_DIR / "d2_mixed_pmf.csv").read_text())
    ours = csv_rows(out)
    assert np.array_equal(ours, golden)
    n, mass, cumulative = ours[2]
    assert n == 3
    assert mass == pytest.approx(0.16, rel=1e-12)
    assert cumulative == pytest.approx(0.48, rel=1e-12)


def test_pdf_cdf_commands(capsys):
    code, out, _ = run_cli(capsys, "pdf", CHAIN_DIR / "d2_pure_birth_rates.json",
                           "--grid-max", 2.0, "--grid-points", 5)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 5
    t, f, cum = (float(x) for x in rows[2].split(","))
    assert t == 1.0
    assert f == pytest.approx(2 * math.exp(-1) - 2 * math.exp(-2), rel=1e-12)
    code, out, _ = run_cli(capsys, "cdf", CHAIN_DIR / "d3_erlang.json",
                           "--grid-max", 1.0, "--grid-points", 3, "--format", "json")
    doc = json.loads(out)
    # oracle: Erlang(3,1) CDF at 1 is 1 - e^{-1}(1 + 1 + 1/2)
    assert doc["cumulative"][-1] == pytest.approx(1 - math.exp(-1) * 2.5, abs=1e-9)
    code, out, err = run_cli(capsys, "cdf", CHAIN_DIR / "d3_erlang.json", "--grid-max", "inf")
    assert (code, out) == (1, "") and err == "error: invalid input: grid_max must be finite, got inf\n"


def test_sample_deterministic_and_seeded(capsys):
    first = run_cli(capsys, "sample", CHAIN_DIR / "d1_geometric.json", "--seed", 5, "--paths", 50)
    second = run_cli(capsys, "sample", CHAIN_DIR / "d1_geometric.json", "--seed", 5, "--paths", 50)
    assert first == second
    lines = first[1].strip().splitlines()
    assert lines[0] == "sample" and len(lines) == 51
    assert all(int(x) >= 1 for x in lines[1:])


def test_verify_examples_exit_0(capsys):
    for name in ("d1_geometric.json", "d2_mixed.json", "d2_coupled_rates.json", "d3_erlang.json"):
        code, out, err = run_cli(capsys, "verify", CHAIN_DIR / name)
        assert code == 0, f"{name}: {err}"
        rows = [row.split(",") for row in out.strip().splitlines()]
        assert rows[0] == ["check", "max_abs_err", "mean_err", "n_points", "threshold",
                           "passed", "margin"]
        for _, err, _, _, threshold, passed, margin in rows[1:]:
            assert passed == "true"
            assert float(margin) == float(err) / float(threshold)
    code, out, _ = run_cli(capsys, "verify", CHAIN_DIR / "d2_mixed.json", "--format", "json")
    for report in json.loads(out):
        assert list(report)[-1] == "margin"
        assert report["margin"] == report["max_abs_err"] / report["threshold"] < 1.0


def _cli_subprocess(*argv):
    """``python -W error -m skipfree.cli argv``: any warning fails the command."""
    src = pathlib.Path(skipfree.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-W", "error", "-m", "skipfree.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)


_PHASES_MEAN_MISS = (r"error: numerical failure: the phases' mean sum\(1/lambda_i\)"
                     r" is off by \S+ relative\n")


def test_invariant_failure_on_valid_chain_exits_2(tmp_path):
    # a valid chain whose complex spectrum misses the stage mean by 0.30: each command
    # printed the spectrum, or a table from it, with exit 0
    wide = tmp_path / "continuous_d24.json"
    wide.write_text(serialize_chain(random_continuous_chain(np.random.default_rng(1), 24)))
    for command in ("spectrum", "law", "pdf", "cdf"):
        proc = _cli_subprocess(command, wide)
        assert proc.returncode == 2 and proc.stdout == "", command
        assert re.fullmatch(_PHASES_MEAN_MISS, proc.stderr), proc.stderr
    # a valid chain whose mean absorption time overflows a double
    slow = tmp_path / "discrete_d256.json"
    slow.write_text(serialize_chain(random_discrete_chain(np.random.default_rng(1), 256)))
    proc = _cli_subprocess("moments", slow)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: numerical failure: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "generator,message",
    [
        # the mean overflows, so the guard refuses the spectrum before the denominator is read
        (random_continuous_chain, "the phases' mean sum(1/lambda_i) is off by 1.000e+00 relative"),
        (random_discrete_chain, "the up product 0.0 leaves the double range"),
    ],
)
def test_law_past_the_double_range_exits_2(tmp_path, generator, message):
    wide = tmp_path / "d256.json"
    wide.write_text(serialize_chain(generator(np.random.default_rng(0), 256)))
    proc = _cli_subprocess("law", wide)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: numerical failure: {message}\n"


def test_law_with_an_overflowing_denominator_exits_2(tmp_path, capsys):
    # gamma_0 gamma_1 = 1e400 overflows the denominator, while the leading constant is 1e200;
    # the computed spectrum {2e200, -0} (true {2e200, 0.5}) misses the mean, and `law`
    # refuses it before it reads the denominator
    chain = ContinuousChain(d=2, up=[1e200, 1.0], down=[[], [1e200]])
    assert build_law(chain).leading == 1e200
    with pytest.raises(errors.InvariantError, match="a denominator coefficient overflows"):
        build_law(chain).denom
    path = tmp_path / "wide_d2.json"
    path.write_text(serialize_chain(chain))
    code, out, err = run_cli(capsys, "law", path)
    assert (code, out) == (2, "")
    assert err == "error: numerical failure: the phases' mean sum(1/lambda_i) is off by inf relative\n"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "law.json"
    code, out, _ = run_cli(capsys, "law", CHAIN_DIR / "d1_geometric.json",
                           "--format", "json", "--out", target)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["d"] == 1


def test_closed_stdout_exits_3_naming_stdout(monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = run(build_parser().parse_args(["sample", str(CHAIN_DIR / "d3_pure_birth.json"),
                                          "--paths", "10"]))
    assert code == 3
    assert "cannot write stdout" in capsys.readouterr().err


def test_erlang_spectrum_is_real_with_unit_phases(capsys):
    path = CHAIN_DIR / "d3_erlang.json"
    code, out, _ = run_cli(capsys, "spectrum", path)
    assert code == 0
    assert all(line.endswith(",RealNonnegative") for line in out.strip().splitlines()[1:])
    law = build_law(parse_chain(path.read_text()))
    assert phase_representation(law) == (1.0, 1.0, 1.0)
    code, out, _ = run_cli(capsys, "law", path, "--format", "json")
    assert code == 0 and json.loads(out)["phase_parameters"] == [1, 1, 1]
    # a triple rate has no partial-fraction form, so the auto route stays uniformization
    with pytest.raises(DegenerateSpectrumError):
        pdf_cdf_table(law, [1.0], method="partial_fractions")


def test_emit_table_empty_support():
    table = DistributionTable((), (), (), 0.0)
    assert emit_table(table, "csv") == "n_or_t,mass_or_density,cumulative"


def test_emit_table_histogram():
    table = DistributionTable((1, 2), (0.5, 0.25), (0.5, 0.75), 0.25)
    bars = _histogram_lines(table)
    assert bars == [f"{1:>12} |{'#' * 60}", f"{2:>12} |{'#' * 30}"]  # the largest mass spans 60


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_histogram_goes_to_stderr_and_leaves_the_document_alone(capsys, fmt):
    path = CHAIN_DIR / "d1_geometric.json"
    code, plain, err = run_cli(capsys, "pmf", path, "--format", fmt)
    assert code == 0 and err == ""
    code, out, bars = run_cli(capsys, "pmf", path, "--format", fmt, "--histogram")
    assert code == 0 and out == plain
    table = pmf_table(build_law(parse_chain(path.read_text())))
    assert bars.splitlines() == _histogram_lines(table)


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(3)
    masses = tuple(rng.random(20))
    table = DistributionTable(tuple(range(1, 21)), masses, tuple(np.cumsum(masses)), 0.0)
    columns = np.column_stack([table.support, table.mass_or_density, table.cumulative])
    assert np.array_equal(csv_rows(emit_table(table, "csv")), columns)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["pmf", "d1_geometric.json", "--eps", "0"], "eps must be in (0,1)"),
        (["pmf", "d1_geometric.json", "--eps", "2"], "eps must be in (0,1)"),
        (["sample", "d1_geometric.json", "--paths", "0"], "paths must be >= 1"),
        (["pdf", "d2_coupled_rates.json", "--grid-points", "0"], "grid points must be >= 1"),
        (["pdf", "d2_coupled_rates.json", "--grid-max", "-1"], "grid must be nonempty"),
        (["cdf", "d2_coupled_rates.json", "--grid-max", "nan"], "grid_max must be finite"),
        (["cdf", "d2_coupled_rates.json", "--grid-max", "inf"], "grid_max must be finite"),
        (["cdf", "d2_coupled_rates.json", "--grid-max", "nan", "--method", "uniformization"],
         "grid_max must be finite"),
        (["pdf", "d2_coupled_rates.json", "--grid-max", "inf", "--method", "uniformization"],
         "grid_max must be finite"),
        (["pdf", "d2_coupled_rates.json", "--grid-points", "1000001"],
         "grid points must be >= 1 and at most 1000000"),
        (["sample", "d1_geometric.json", "--seed", "-1"], "seed must be in 0..2**128-1"),
        (["sample", "d1_geometric.json", "--seed", str(2**128)], "seed must be in 0..2**128-1"),
        (["verify", "d1_geometric.json", "--seed", "-5"], "seed must be >= 0"),
        (["law", "d2_mixed.json", "--tol", "0"], "tol must be positive and finite"),
        (["spectrum", "d2_mixed.json", "--tol", "-1"], "tol must be positive and finite"),
        (["law", "d2_mixed.json", "--tol", "nan"], "tol must be positive and finite"),
        (["pdf", "d2_coupled_rates.json", "--tol", "inf"], "tol must be positive and finite"),
        (["sample", "d1_geometric.json", "--paths", "1000000000000"],
         "paths must be >= 1 and at most 1000000"),
    ],
)
def test_option_out_of_range_exits_1_without_traceback(argv, message):
    proc = _cli_subprocess(argv[0], CHAIN_DIR / argv[1], *argv[2:])
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: invalid input: {message}")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_uniformized_cdf_over_a_huge_grid_exits_0():
    proc = _cli_subprocess("cdf", CHAIN_DIR / "d2_coupled_rates.json",
                           "--method", "uniformization", "--grid-max", "1e300")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [[float(x) for x in line.split(",")] for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 200 and rows[-1][0] == 1e300
    assert all(cdf == 1.0 for t, _, cdf in rows if t > 0.0)


@pytest.mark.parametrize("method", ["auto", "uniformization"])
def test_fast_chain_at_the_top_of_the_double_range_never_tracebacks(tmp_path, method):
    # Lambda times a grid gap passes the largest double
    fast = tmp_path / "fast.json"
    fast.write_text(serialize_chain(
        ContinuousChain(d=3, up=[1e3, 1.2e3, 1e3], down=[[], [900.0], [0.0, 800.0]])))
    proc = _cli_subprocess("cdf", fast, "--method", method, "--grid-max", "1e308")
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


# valid chains whose laws leave the desk scale: a discrete mean of 1.45e16, and a continuous
# mean of 6.4e23 with a Complex spectrum, which sends its tables down the uniformization route;
# and continuous chains far from unit rates: products of two rates past the largest double, a
# total rate past it (in row 1 of d = 2, and in rows 1 and 2 of d = 3), a mean of 1e14, and a
# complex pair 3.2026 +- 1.3541i times 2^-40
_HOSTILE = {
    "discrete_d24": lambda: random_discrete_chain(np.random.default_rng(1), 24),
    "continuous_d32": lambda: random_continuous_chain(np.random.default_rng(0), 32),
    "rates_1e200": lambda: ContinuousChain(d=2, up=[1e200, 1e200], down=[[], [1e200]]),
    "rates_1e308": lambda: ContinuousChain(d=2, up=[1e308, 1e308], down=[[], [1e308]]),
    "rates_1e308_d3": lambda: ContinuousChain(
        d=3, up=[1e308, 1e308, 1.0], down=[[], [1e308], [1e308, 1e308]]),
    "alpha_1e-14": lambda: ContinuousChain(d=1, up=[1e-14]),
    "pair_times_2e-40": lambda: in_time_unit(
        random_continuous_chain(np.random.default_rng(1), 4), 2.0**-40),
}


def _hostile_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_chain(_HOSTILE[name]()))
    return path


@pytest.mark.parametrize("command", ["pdf", "cdf", "sample"])
def test_overflowing_total_rate_exits_2_at_once(tmp_path, command):
    # gamma_1 = 2e308 is inf, over which a uniformization step would never end (the
    # subprocess times out after 60 s instead) and a sampled path would never jump down
    for name in ("rates_1e308", "rates_1e308_d3"):
        proc = _cli_subprocess(command, _hostile_file(tmp_path, name))
        assert proc.returncode == 2 and proc.stdout == "", name
        assert proc.stderr == (
            "error: numerical failure: the total exit rate of row 1 passes the largest double\n")


@pytest.mark.parametrize("d, seed", [(512, 1), (1024, 0), (1024, 1)])
def test_phases_that_miss_the_mean_exit_2(tmp_path, d, seed):
    # spectra whose sum of 1/lambda_i misses the stage mean: at d = 512 by 0.88, where the
    # closed form printed a wrong table with exit 0; at d = 1024 a running product of the
    # weights passes 1e387, and the uniformized table took 31 s and was off by 1e-5
    chain = random_birth_death_continuous(np.random.default_rng(seed), d)
    path = tmp_path / f"birth_death_d{d}.json"
    path.write_text(serialize_chain(chain))
    for argv in (["pdf"], ["cdf"], ["cdf", "--method", "partial_fractions"]):
        proc = _cli_subprocess(*argv, path)
        assert proc.returncode == 2 and proc.stdout == "", argv
        assert re.fullmatch(_PHASES_MEAN_MISS, proc.stderr), proc.stderr


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectrum_and_law_guard_the_phases_mean(tmp_path, capsys, seed):
    # sum 1/lambda_i misses the stage mean by 8.6e-8, 0.88 and 1.0 on seeds 0-2, and both
    # commands printed those spectra with exit 0
    chain = random_birth_death_continuous(np.random.default_rng(seed), 512)
    path = tmp_path / "birth_death_d512.json"
    path.write_text(serialize_chain(chain))
    for command in ("spectrum", "law"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, ""), command
        assert re.fullmatch(_PHASES_MEAN_MISS, err), err


def test_spectrum_and_law_print_exact_spectra_of_slow_chains(tmp_path, capsys):
    # exact spectra the mean guard must not refuse: discretely 1 - (1 - 1e-10) misses
    # 1e-10 by 8.3e-8 relative, and the d = 1 variance 1e320 - 1e320 is nan; nor the
    # tables of a complex spectrum far from unit rates, or of a shipped chain
    slow = {"discrete_mean_1e10": DiscreteChain(d=1, hold=[1 - 1e-10], up=[1e-10]),
            "continuous_mean_1e160": ContinuousChain(d=1, up=[1e-160], down=[[]]),
            "pair_times_2e-40": _HOSTILE["pair_times_2e-40"]()}
    paths = sorted(CHAIN_DIR.glob("*.json"))
    for name, chain in slow.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(serialize_chain(chain))
    for path in paths:
        commands = ["spectrum", "law"]
        # the default grid of mean 1e160 reads the variance too, which is nan
        tables = path.stem != "continuous_mean_1e160"
        if tables and parse_chain(path.read_text()).kind == "continuous":
            commands += ["pdf", "cdf"]
        for command in commands:
            code, _, err = run_cli(capsys, command, path)
            assert (code, err) == (0, ""), (path.stem, command, err)


def test_near_repeated_rates_take_the_uniformized_table(capsys):
    # rates 1e-4 apart: the weights sum to 1.3e12 in modulus, and the closed form's CDF
    # missed the exact one by up to 1.8e-4 on the default grid; auto now uniformizes
    from scipy.linalg import expm

    path = CHAIN_DIR / "d4_near_repeated_rates.json"
    chain = parse_chain(path.read_text())
    code, out, err = run_cli(capsys, "cdf", path)
    assert code == 0 and err == ""
    uniformized = pdf_cdf_table(build_law(chain), method="uniformization")
    assert np.array_equal(csv_rows(out), csv_rows(emit_table(uniformized, "csv")))
    block = transient_block(chain, chain.d - 1)
    exact = [1.0 - expm(block * t)[0].sum() for t in uniformized.support]
    assert np.max(np.abs(uniformized.cumulative - exact)) <= 1e-10
    code, out, err = run_cli(capsys, "cdf", path, "--method", "partial_fractions")
    assert code == 2 and out == ""
    assert err.startswith("error: numerical failure: partial fractions need positive phases")
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0 and "cdf_vs_uniformization" not in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["rates_1e200", "alpha_1e-14", "pair_times_2e-40"])
def test_verify_passes_far_from_unit_rates(tmp_path, capsys, name):
    code, out, err = run_cli(capsys, "verify", _hostile_file(tmp_path, name))
    assert code == 0 and err == "", out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(p.stem for p in CHAIN_DIR.glob("*.json")) + list(_HOSTILE))
def test_every_command_on_a_valid_chain_succeeds_or_exits_2(tmp_path, capsys, monkeypatch, name):
    # a slow chain's samples reach the jump cap, lowered here a thousandfold
    monkeypatch.setattr(oracle, "SAMPLE_JUMP_CAP", 10**6)
    path = _hostile_file(tmp_path, name) if name in _HOSTILE else CHAIN_DIR / f"{name}.json"
    documents = {}
    for command in COMMANDS:
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, command, path, "--format", fmt)
            assert code in (0, 2), (command, fmt, err)
            assert code == 2 or not re.search(r"\bnan\b", out, re.IGNORECASE), (command, fmt)
            documents[command, fmt] = code, out, err
    if parse_chain(path.read_text()).kind == "continuous":
        for fmt in ("csv", "json"):
            assert documents["pmf", fmt] == documents["pdf", fmt]


def _json_as_csv(command, doc):
    """The CSV header and rows that carry the fields of the JSON document ``doc`` of ``command``.

    Only ``tolerance_used`` of the spectrum has no CSV column.
    """
    if command == "validate":
        return ["field", "value"], list(doc.items())
    if command == "spectrum":
        return ["index", "real", "imag", "classification"], [
            (i, v["real"], v["imag"], doc["classification"]) for i, v in enumerate(doc["values"])]
    if command == "law":
        spectrum = doc["spectrum"]
        rows = [("kind", doc["kind"]), ("d", doc["d"]), ("leading", doc["leading"])]
        rows += [(f"denom_{k}", c) for k, c in enumerate(doc["denom"])]
        rows += [(f"lambda_{i}", complex(v["real"], v["imag"]))
                 for i, v in enumerate(spectrum["values"])]
        rows += [("classification", spectrum["classification"])]
        rows += [(f"phase_{i}", x) for i, x in enumerate(doc["phase_parameters"] or ())]
        return ["field", "value"], rows
    if command == "moments":
        return ["mean", "variance"], [(doc["mean"], doc["variance"])]
    if command in ("pmf", "pdf", "cdf"):
        return ["n_or_t", "mass_or_density", "cumulative"], list(
            zip(doc["support"], doc["mass_or_density"], doc["cumulative"]))
    if command == "sample":
        return ["sample"], [(x,) for x in doc]
    return list(doc[0]), [tuple(record.values()) for record in doc]  # verify


def _same_cell(cell, value):
    """Whether a CSV cell reads as the JSON value: exactly, since both print round-trip digits."""
    if isinstance(value, bool):
        return cell == str(value).lower()
    if isinstance(value, str):
        return cell == value
    if isinstance(value, complex):
        return complex(cell) == value
    return float(cell) == value


@pytest.mark.parametrize("command", COMMANDS)
def test_csv_and_json_carry_the_same_document(capsys, command):
    for path in sorted(CHAIN_DIR.glob("*.json")):
        code, text, _ = run_cli(capsys, command, path, "--format", "csv")
        json_code, json_text, _ = run_cli(capsys, command, path, "--format", "json")
        assert code == json_code, path.name
        header, rows = _json_as_csv(command, json.loads(json_text))
        lines = text.splitlines()
        assert lines[0].split(",") == header, path.name
        assert len(lines) - 1 == len(rows), path.name
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert len(cells) == len(row) and all(map(_same_cell, cells, row)), (path.name, line)


def test_json_documents_format_no_csv_cell(monkeypatch, capsys):
    def refuse(x):
        raise AssertionError(f"a JSON run formatted the CSV cell {x!r}")

    monkeypatch.setattr(cli, "_f17", refuse)
    monkeypatch.setattr(cli, "_cell", refuse)
    for name in ("d2_mixed", "d3_erlang"):  # a discrete and a continuous chain
        for command in COMMANDS:
            code, out, _ = run_cli(capsys, command, CHAIN_DIR / f"{name}.json", "--format", "json")
            assert code == 0 and json.loads(out), (name, command)


def test_every_error_has_exactly_one_exit_code_base():
    bases = (InputError, NumericalError)
    leaves = [cls for cls in vars(errors).values() if isinstance(cls, type)
              and issubclass(cls, SkipFreeError) and cls not in bases + (SkipFreeError,)]
    assert len(leaves) >= 9  # the scan found the module's error classes
    for cls in leaves:
        assert sum(issubclass(cls, base) for base in bases) == 1, cls.__name__


def test_parser_rejects_unknown_command_and_format(capsys):
    for argv in (["plot", "x"], ["pmf", "x", "--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_run_reads_the_parsed_namespace(capsys):
    # the call the benchmark's traced cli workload makes
    args = build_parser().parse_args(["moments", str(CHAIN_DIR / "d1_geometric.json"),
                                      "--format", "json"])
    assert run(config_from_args(args)) == 0
    assert json.loads(capsys.readouterr().out) == {"mean": 2.0, "variance": 2.0}


def test_cli_main_entrypoint(capsys):
    from skipfree.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["moments", str(CHAIN_DIR / "d1_geometric.json"), "--format", "json"])
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["mean"] == 2.0


def test_cli_flag_plumbing(capsys):
    from skipfree.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["pmf", str(CHAIN_DIR / "d1_geometric.json"), "--eps", "1e-3", "--histogram"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert len(csv_rows(captured.out)) == 10  # cumulative reaches 1 - 1e-3 at n = 10
    assert "#" in captured.err
