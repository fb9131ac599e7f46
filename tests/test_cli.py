import contextlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qwalk2d import cli, grover_coin


def test_parse_complex_cartesian():
    assert cli.parse_complex("0.5") == 0.5
    assert cli.parse_complex("-0.25i") == -0.25j
    assert cli.parse_complex("1+2i") == 1 + 2j
    assert cli.parse_complex("i") == 1j
    assert cli.parse_complex("-i") == -1j


def test_parse_complex_polar():
    assert cli.parse_complex("0.5e^{i/3}") == pytest.approx(0.5 * np.exp(1j / 3))
    assert cli.parse_complex("-0.5e^{i/3}") == pytest.approx(-0.5 * np.exp(1j / 3))
    assert cli.parse_complex("e^{-ipi/2}") == pytest.approx(-1j)
    assert cli.parse_complex("2e^{i2pi/5}") == pytest.approx(2 * np.exp(2j * np.pi / 5))
    assert cli.parse_complex("e^{i}") == pytest.approx(np.exp(1j))


def test_parse_complex_rejects_garbage():
    with pytest.raises(ValueError):
        cli.parse_complex("spam")
    with pytest.raises(ValueError):
        cli.parse_complex("e^{iq}")


@pytest.mark.parametrize(
    "text",
    ["nan", "-nan", "nan+1i", "1e400", "1" + "0" * 400 + "e^{i pi/3}", "e^{i 1" + "0" * 400 + "}"],
    ids=["nan", "-nan", "nan+1i", "1e400", "modulus-overflow", "phase-overflow"],
)
def test_parse_complex_rejects_non_finite(text):
    with pytest.raises(ValueError, match="not finite"):
        cli.parse_complex(text)


def test_parse_coin_selectors():
    assert cli.parse_coin("grover").label == "grover"
    assert cli.parse_coin("a1").label == "a1"
    assert cli.parse_coin("a4:0.25").label == "a4(p=0.25)"
    with pytest.raises(ValueError):
        cli.parse_coin("a3")
    with pytest.raises(ValueError):
        cli.parse_coin("a4:nan-ish")


def test_parse_initial_pure_and_custom(capsys):
    assert cli.parse_initial("R").describe() == "R"
    spec = cli.parse_initial("custom:0.5e^{i/3},0.5e^{i/3},-0.5e^{i/3},-0.5e^{i/3}")
    assert abs(spec.weights[0] - np.exp(1j / 3) / 2) < 1e-12
    assert capsys.readouterr().err == ""


def test_parse_initial_normalizes_with_warning(capsys):
    spec = cli.parse_initial("custom:1,1,0,0")
    assert "normalizing" in capsys.readouterr().err
    assert abs(spec.weights[0] - 1 / np.sqrt(2)) < 1e-12


def test_parse_initial_rejects_bad_input():
    with pytest.raises(ValueError):
        cli.parse_initial("X")
    with pytest.raises(ValueError):
        cli.parse_initial("custom:1,0")
    with pytest.raises(ValueError):
        cli.parse_initial("custom:0,0,0,0")


@pytest.mark.parametrize("literal,plain", [("3e-170,4e-170,0,0", "3,4,0,0"),
                                           ("1e200,1e200,0,0", "1,1,0,0")],
                         ids=["underflow", "overflow"])
def test_custom_initial_state_far_from_unit_scale(literal, plain, capsys):
    # |w|^2 underflows to 0 or overflows to inf; w over its largest part normalizes the same
    printed = []
    for weights in (literal, plain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["timeavg", "--method", "limit", "--initial", f"custom:{weights}"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert cli.main(["timeavg", "--method", "limit", "--initial", "custom:0,0,0,0"]) == 2
    assert "cannot be all zero" in capsys.readouterr().err


@pytest.mark.parametrize("literal,plain,norm", [("1e308,1e308,1e308,1e308", "1,1,1,1", "2e+308"),
                                                ("1.7e308,1.7e308,0,0", "1,1,0,0", "2.40416e+308")],
                         ids=["four", "two"])
def test_custom_initial_state_past_the_float_range(literal, plain, norm, capsys):
    # the input norm itself exceeds the float range: the run prints what the scaled input
    # prints, with no warning from numpy, and the note gives the norm's decimal value
    printed = []
    for weights in (literal, plain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["timeavg", "--method", "exact", "--n", "5",
                             "--initial", f"custom:{weights}"]) == 0
        printed.append(capsys.readouterr())
    assert printed[0].out == printed[1].out
    assert f"(input norm {norm})" in printed[0].err
    assert "RuntimeWarning" not in printed[0].err and "inf" not in printed[0].err


def test_simulate_writes_grid_and_summary(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = cli.main(
        ["simulate", "--coin", "grover", "--n", "21", "--steps", "10",
         "--initial", "R", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "origin probability:" in captured
    assert "grid maximum:" in captured
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,p"
    assert len(lines) == 1 + 21 * 21


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--coin", "a2", "--n", "9", "--steps", "7",
            "--initial", "custom:0.5,0.5i,-0.5,-0.5i", "--format", "json"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_backends_agree(tmp_path):
    base = ["simulate", "--coin", "grover", "--n", "9", "--steps", "12",
            "--initial", "R", "--format", "json"]
    direct = tmp_path / "direct.json"
    spectral = tmp_path / "spectral.json"
    assert cli.main(base + ["--backend", "direct", "--out", str(direct)]) == 0
    assert cli.main(base + ["--backend", "spectral", "--out", str(spectral)]) == 0
    rows_d = json.loads(direct.read_text())["rows"]
    rows_s = json.loads(spectral.read_text())["rows"]
    gap = max(abs(a[2] - b[2]) for a, b in zip(rows_d, rows_s))
    assert gap < 1e-10


@pytest.mark.parametrize(
    "coin,steps,site", [("grover", 1, "(-1, 0)"), ("a2", 20, "(-6, -1)")]
)
def test_simulate_backends_print_the_same_maximum_site(coin, steps, site, tmp_path, capsys):
    # the maximum is shared by sites equal by symmetry; both backends name the first
    printed = []
    for backend in ("direct", "spectral"):
        argv = ["simulate", "--coin", coin, "--n", "21", "--steps", str(steps),
                "--backend", backend, "--out", str(tmp_path / f"{backend}.csv")]
        assert cli.main(argv) == 0
        printed.append(capsys.readouterr().out.splitlines()[1])
    assert printed[0] == printed[1]
    assert printed[0].endswith(f"at {site}")


def test_simulate_localization_summary(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = cli.main(
        ["simulate", "--coin", "a4:0.3333333333", "--n", "21", "--steps", "10",
         "--initial", "R", "--out", str(out)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    origin = float(lines[0].split(":")[1])
    maximum = float(lines[1].split(":")[1].split("at")[0])
    assert origin == pytest.approx(maximum)


def test_spectrum_grover_counts(tmp_path):
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--coin", "grover", "--n", "5", "--out", str(out)]) == 0
    clusters = json.loads(out.read_text())["clusters"]
    assert clusters[0]["multiplicity"] == 27
    assert clusters[1]["multiplicity"] == 25
    values = {round(c["value"][0], 6) for c in clusters[:2]}
    assert values == {-1.0, 1.0}


def test_spectrum_a1_no_global_cluster(capsys):
    assert cli.main(["spectrum", "--coin", "a1", "--n", "5"]) == 0
    clusters = json.loads(capsys.readouterr().out)["clusters"]
    assert max(c["multiplicity"] for c in clusters) < 25


def test_spectrum_to_stdout_streams_its_text(tmp_path):
    # a coin with no symmetry has 4 N^2 clusters; holding the whole text peaked near
    # 1150 N^2 bytes, streaming it a chunk of rows at a time as --out does near 530
    rng, size = np.random.default_rng(11), 101
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    path = tmp_path / "haar.json"
    path.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in q.tolist()]))
    argv = ["spectrum", "--coin", f"file:{path}", "--n", str(size)]
    assert cli.main([*argv, "--out", str(tmp_path / "spectrum.json")]) == 0
    with open(tmp_path / "stdout.json", "w") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 800 * size ** 2
    assert (tmp_path / "stdout.json").read_bytes() == (tmp_path / "spectrum.json").read_bytes()


def test_spectrum_a4_counts(tmp_path):
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--coin", "a4:0.25", "--n", "7", "--out", str(out)]) == 0
    clusters = json.loads(out.read_text())["clusters"]
    assert clusters[0]["multiplicity"] == 51
    assert clusters[1]["multiplicity"] == 49


def test_timeavg_closed_form_prints_value(capsys):
    code = cli.main(
        ["timeavg", "--coin", "grover", "--n", "5", "--initial", "R",
         "--method", "closed-form"]
    )
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.161, abs=1e-12)


def test_timeavg_closed_form_report_schema(tmp_path, capsys):
    files = {}
    for method in ("closed-form", "exact"):
        files[method] = tmp_path / f"{method}.json"
        code = cli.main(
            ["timeavg", "--coin", "grover", "--n", "5", "--initial", "R",
             "--method", method, "--out", str(files[method])]
        )
        assert code == 0
    closed, exact = (json.loads(path.read_text()) for path in files.values())
    assert closed.keys() == exact.keys()
    assert closed["per_chirality"] == {"R": pytest.approx(0.161, abs=1e-12)}
    assert closed["total"] is None
    assert closed["site"] == [0, 0]
    assert capsys.readouterr().out.startswith("0.161\n")


def test_timeavg_closed_form_guard():
    argv = ["timeavg", "--n", "5", "--method", "closed-form"]
    assert cli.main(argv + ["--coin", "a1", "--initial", "R"]) == 2
    assert cli.main(argv + ["--coin", "grover", "--initial", "custom:0.6,0.8,0,0"]) == 2


@pytest.mark.parametrize("selector", ["a4:0.5", "file"])
def test_timeavg_closed_form_accepts_coins_equal_to_grover(selector, tmp_path, capsys):
    if selector == "file":
        path = tmp_path / "grover.json"
        path.write_text(json.dumps([[[v.real, v.imag] for v in row]
                                    for row in grover_coin().entries.tolist()]))
        selector = f"file:{path}"
    argv = ["timeavg", "--n", "9", "--initial", "R", "--method", "closed-form"]
    assert cli.main(argv + ["--coin", "grover"]) == 0
    want = capsys.readouterr().out
    assert cli.main(argv + ["--coin", selector]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "method,options",
    [("exact", ["--n", "5"]), ("empirical", ["--n", "5", "--samples", "8"]), ("limit", [])],
    ids=["exact", "empirical", "limit"],
)
def test_timeavg_file_records_initial_as_typed(method, options, tmp_path):
    literal = "custom:0.5+0.5i,0.5,0.5i,0.4e^{i pi/3}"
    grid, report = tmp_path / "grid.json", tmp_path / "report.json"
    assert cli.main(["simulate", "--coin", "grover", "--n", "5", "--steps", "1",
                     "--initial", literal, "--format", "json", "--out", str(grid)]) == 0
    assert cli.main(["timeavg", "--coin", "grover", "--initial", literal,
                     "--method", method, *options, "--out", str(report)]) == 0
    assert json.loads(report.read_text())["initial"] == literal
    assert json.loads(grid.read_text())["initial"] == literal


def test_timeavg_exact_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        ["timeavg", "--coin", "grover", "--n", "5", "--initial", "R",
         "--method", "exact", "--out", str(out)]
    )
    assert code == 0
    assert "total:" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["per_chirality"]["R"] == pytest.approx(0.161, abs=1e-10)


def test_timeavg_limit_method(capsys):
    code = cli.main(["timeavg", "--initial", "R", "--method", "limit"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[0].split(":")[1]) == pytest.approx(0.125, abs=1e-12)


@pytest.mark.parametrize("coin", ["a1", "nonsense"])
def test_timeavg_limit_refuses_other_coins(coin, capsys):
    assert cli.main(["timeavg", "--method", "limit", "--coin", coin]) == 2
    assert "error:" in capsys.readouterr().err


def test_timeavg_limit_accepts_coins_equal_to_grover(capsys):
    assert cli.main(["timeavg", "--method", "limit"]) == 0
    want = capsys.readouterr().out
    assert cli.main(["timeavg", "--method", "limit", "--coin", "a4:0.5"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "method,ignored",
    [
        ("limit", ["--n", "9"]),
        ("limit", ["--samples", "5"]),
        ("exact", ["--samples", "5"]),
        ("closed-form", ["--samples", "5"]),
    ],
    ids=["limit-n", "limit-samples", "exact-samples", "closed-form-samples"],
)
def test_timeavg_refuses_options_its_method_ignores(method, ignored, tmp_path, capsys):
    # an ignored option would print another method's number under exit 0
    out = tmp_path / "report.json"
    size = [] if method == "limit" else ["--n", "9"]
    assert cli.main(["timeavg", "--initial", "R", "--method", method, *size, *ignored,
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ignored[0] in captured.err
    assert not out.exists()


def test_timeavg_empirical_defaults_to_twenty_thousand_samples(monkeypatch):
    horizons = []

    def recording(state, coin, horizon, parity):
        horizons.append(horizon)
        return cli.ta.TimeAverageReport("empirical", parity, coin.label, "R", state.n,
                                        (0.25,) * 4, 1.0, horizon)

    monkeypatch.setattr(cli.ta, "empirical_time_average", recording)
    assert cli.main(["timeavg", "--method", "empirical", "--n", "5"]) == 0
    assert cli.main(["timeavg", "--method", "empirical", "--n", "5", "--samples", "7"]) == 0
    assert horizons == [cli.EMPIRICAL_SAMPLES, 7] == [20000, 7]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_timeavg_limit_refuses_parity_split(parity, tmp_path, capsys):
    # the limit is an all-times average; the even-time value tends to 1/4, not 1/8
    out = tmp_path / "report.json"
    assert cli.main(["timeavg", "--method", "limit", "--parity", parity, "--initial", "R",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "parity" in captured.err
    assert not out.exists()


def test_timeavg_empirical_small_horizon(capsys):
    code = cli.main(
        ["timeavg", "--coin", "grover", "--n", "5", "--initial", "R",
         "--method", "empirical", "--samples", "200"]
    )
    assert code == 0
    total = float(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
    assert 0.0 < total < 1.0


def test_scan_alpha_csv(tmp_path, capsysbinary):
    out = tmp_path / "scan.csv"
    assert cli.main(["scan-alpha", "--samples", "201", "--out", str(out)]) == 0
    # stdout gets the same bytes, through the same writer
    assert cli.main(["scan-alpha", "--samples", "201"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,p_R,p_L"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    best = min(rows, key=lambda r: r[1])
    assert best[0] == pytest.approx(0.26357, abs=0.011)


def test_predict_outputs(tmp_path, capsys):
    assert cli.main(["predict", "--coin", "a2", "--n", "9"]) == 0
    assert capsys.readouterr().out.startswith("localizing: no")
    assert cli.main(["predict", "--coin", "grover", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("localizing: yes")
    assert "common eigenvalues: -1, 1" in out
    # i grover keeps +-i in every block; their real parts come out near 1e-18, which
    # prints as 0, as an imaginary part below DEGENERACY_TOL is dropped
    for phase, want in [(1j, "0-1i, 0+1i"),
                        (np.exp(0.7j), "-0.764842187284-0.644217687238i, "
                                       "0.764842187284+0.644217687238i")]:
        path = tmp_path / "phased.json"
        path.write_text(json.dumps([[[v.real, v.imag] for v in row]
                                    for row in (phase * grover_coin().entries).tolist()]))
        for size in ("5", "9"):
            assert cli.main(["predict", "--coin", f"file:{path}", "--n", size]) == 0
            assert f"common eigenvalues: {want}\n" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert cli.main(["timeavg", "--method", "exact", "--coin", "grover"]) == 2
    assert "--n is required for the exact method" in capsys.readouterr().err
    assert cli.main(["timeavg", "--n", "5", "--initial", "custom:,1,0,0"]) == 2
    assert "empty complex literal" in capsys.readouterr().err
    assert cli.main(["simulate", "--coin", "a3", "--n", "5", "--steps", "1",
                     "--out", out]) == 2
    assert cli.main(["simulate", "--coin", "a4:1.5", "--n", "5", "--steps", "1",
                     "--out", out]) == 2
    assert cli.main(["simulate", "--coin", "grover", "--n", "5", "--steps", "-2",
                     "--out", out]) == 2
    assert cli.main(["timeavg", "--coin", "grover", "--n", "5", "--method", "empirical",
                     "--parity", "odd", "--samples", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--coin", "grover", "--n", "4", "--steps", "1",
                  "--out", out])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "spectrum", "timeavg", "predict"])
def test_size_above_the_budget_exits_2_before_allocating(command, tmp_path, capsys, monkeypatch):
    # the parser refuses it: no state is built and no block is diagonalized
    def unreachable(*args, **kwargs):
        raise AssertionError("a command ran past the size check")

    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, unreachable))
    argv = [command, "--coin", "grover", "--n", str(cli.MAX_N + 2)]
    if command == "simulate":
        argv += ["--steps", "1", "--out", str(tmp_path / "grid.csv")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"exceeds the limit {cli.MAX_N}" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()
    argv[argv.index("--n") + 1] = str(cli.MAX_N)
    assert cli.build_parser().parse_args(argv).n == cli.MAX_N


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_scan_samples_above_the_budget_exit_2_before_allocating(out, tmp_path, capsys,
                                                                 monkeypatch):
    # the parser refuses it: no scan is tabulated and no file is written
    def unreachable(*args, **kwargs):
        raise AssertionError("scan-alpha ran past the samples check")

    monkeypatch.setattr(cli.ta, "scan_alpha", unreachable)
    argv = ["scan-alpha", "--samples", str(cli.MAX_SCAN_SAMPLES + 1)]
    if out:
        argv += ["--out", str(tmp_path / "scan.csv")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"exceed the limit {cli.MAX_SCAN_SAMPLES}" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()
    argv[2] = str(cli.MAX_SCAN_SAMPLES)
    assert cli.build_parser().parse_args(argv).samples == cli.MAX_SCAN_SAMPLES


@pytest.mark.parametrize("command", ["simulate", "timeavg"])
def test_direct_evolution_above_the_site_step_budget_exits_2(command, tmp_path, capsys,
                                                             monkeypatch):
    # N^2 * steps is checked before any step is taken; the bound itself is never run
    def unreachable(*args, **kwargs):
        raise AssertionError("direct evolution ran past the site-step check")

    monkeypatch.setattr(cli, "evolve", unreachable)
    monkeypatch.setattr(cli.ta, "empirical_time_average", unreachable)
    size = 101
    steps = cli.MAX_SITE_STEPS // size ** 2 + 1
    out = tmp_path / "grid.csv"
    if command == "simulate":
        argv = ["simulate", "--coin", "grover", "--n", str(size), "--steps", str(steps),
                "--out", str(out)]
    else:
        argv = ["timeavg", "--method", "empirical", "--n", str(size), "--samples", str(steps)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"exceeds the limit {cli.MAX_SITE_STEPS}" in captured.err
    assert not out.exists()
    # one step fewer passes the check and reaches the (patched) evolution
    argv[argv.index(str(steps))] = str(steps - 1)
    with pytest.raises(AssertionError, match="ran past the site-step check"):
        cli.main(argv)


def test_spectral_backend_has_no_site_step_budget(tmp_path, capsys, monkeypatch):
    # propagation costs O(N^2 log t), so a step count past the direct budget runs
    monkeypatch.setattr(cli, "evolve", None)
    size = 21
    steps = cli.MAX_SITE_STEPS // size ** 2 + 1
    assert cli.main(["simulate", "--coin", "grover", "--n", str(size), "--steps", str(steps),
                     "--backend", "spectral", "--out", str(tmp_path / "grid.csv")]) == 0
    assert capsys.readouterr().out.startswith("origin probability: ")


@pytest.mark.parametrize("backend", ["direct", "spectral"])
def test_negative_steps_exit_2(backend, tmp_path, capsys):
    # each backend checks its own step count and names it in the same words
    out = tmp_path / "grid.csv"
    assert cli.main(["simulate", "--coin", "grover", "--n", "5", "--steps", "-1",
                     "--backend", backend, "--out", str(out)]) == 2
    assert "steps must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_errors_exit_3(monkeypatch, tmp_path):
    from qwalk2d.spectral import SpectralError

    def boom(coin, size):
        raise SpectralError("synthetic failure")

    monkeypatch.setattr(cli.ta, "localization_predictor", boom)
    assert cli.main(["predict", "--coin", "grover", "--n", "5"]) == 3

    leaky = cli.parse_coin("grover")
    object.__setattr__(leaky, "entries", 1.001 * leaky.entries)  # past Coin validation
    monkeypatch.setattr(cli, "parse_coin", lambda text: leaky)
    for backend in ("direct", "spectral"):
        assert cli.main(["simulate", "--coin", "grover", "--n", "5", "--steps", "2",
                         "--backend", backend, "--out", str(tmp_path / "grid.csv")]) == 3
    assert cli.main(["timeavg", "--coin", "grover", "--n", "5", "--method", "empirical",
                     "--samples", "2"]) == 3


NAN_RUNS = {
    "simulate-direct": ("simulate", "--n", "5", "--steps", "3", "--backend", "direct",
                        "--out", "{out}"),
    "simulate-spectral": ("simulate", "--n", "5", "--steps", "3", "--backend", "spectral",
                          "--out", "{out}"),
    "timeavg-empirical": ("timeavg", "--n", "5", "--method", "empirical", "--samples", "4"),
}


@pytest.mark.parametrize("argv", NAN_RUNS.values(), ids=NAN_RUNS.keys())
def test_nan_coin_file_exits_2(argv, tmp_path, capsys):
    # json.loads reads NaN; such a coin once ran and printed nan with exit 0
    path = tmp_path / "nan.json"
    entries = [[[-0.5 if i == j else 0.5, 0.0] for j in range(4)] for i in range(4)]
    entries[1][2][0] = float("nan")
    path.write_text(json.dumps(entries))
    argv = [arg.format(out=tmp_path / "grid.csv") for arg in argv]
    assert cli.main([*argv, "--coin", f"file:{path}"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


MALFORMED_RUNS = {
    "simulate": ("simulate", "--n", "5", "--steps", "3", "--out", "{out}"),
    "predict": ("predict", "--n", "5"),
}


@pytest.mark.parametrize("content", ['{"a": 1}', '[[{"a": 1}]]'], ids=["object", "nested-object"])
@pytest.mark.parametrize("argv", MALFORMED_RUNS.values(), ids=MALFORMED_RUNS.keys())
def test_malformed_coin_file_exits_2(argv, content, tmp_path, capsys):
    # numpy raised TypeError on a JSON object, which ended in a traceback and exit 1
    path = tmp_path / "coin.json"
    path.write_text(content)
    argv = [arg.format(out=tmp_path / "grid.csv") for arg in argv]
    assert cli.main([*argv, "--coin", f"file:{path}"]) == 2
    assert "4x4 array of [re, im] pairs" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


NAN_INITIAL_RUNS = {
    **NAN_RUNS,
    "timeavg-exact": ("timeavg", "--n", "5", "--method", "exact"),
    "timeavg-limit": ("timeavg", "--method", "limit"),
}


@pytest.mark.parametrize("argv", NAN_INITIAL_RUNS.values(), ids=NAN_INITIAL_RUNS.keys())
def test_nan_initial_state_exits_2(argv, tmp_path, capsys):
    argv = [arg.format(out=tmp_path / "grid.csv") for arg in argv]
    assert cli.main([*argv, "--coin", "grover", "--initial", "custom:nan,0,0,0"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_decimal_coin_file_evolves_long(tmp_path):
    # grover with 10-decimal entries: accepted by Coin, norm^2 grows ~4e-10 a step
    path = tmp_path / "decimal.json"
    entries = [[[-0.5000000001 if i == j else 0.5000000001, 0.0] for j in range(4)]
               for i in range(4)]
    path.write_text(json.dumps(entries))
    coin = f"file:{path}"
    assert cli.main(["simulate", "--coin", coin, "--n", "5", "--steps", "2000",
                     "--backend", "direct", "--out", str(tmp_path / "grid.csv")]) == 0
    assert cli.main(["timeavg", "--coin", coin, "--n", "5", "--method", "empirical",
                     "--samples", "2000"]) == 0


def test_io_errors_exit_1(tmp_path):
    missing_dir = tmp_path / "nope" / "grid.csv"
    assert cli.main(["simulate", "--coin", "grover", "--n", "5", "--steps", "1",
                     "--out", str(missing_dir)]) == 1
