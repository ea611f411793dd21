import json

import numpy as np
import pytest

from poolpart import (
    Experiment,
    InfeasibleError,
    MultiplicityFunction,
    SymmetricModel,
    ValidationError,
    cost_vector,
    iid_model,
    emit_model_analysis,
    empirical_evaluate,
    fit_iid,
    fit_symmetric,
    prevalence,
    q_from_alpha,
    read_batches,
    sample_outcome,
    strategy_multiplicity,
    substream,
    write_batches,
)
from poolpart.cli import main
from poolpart.ingest import Batch


@pytest.fixture(scope="module")
def batches_file(tmp_path_factory):
    """30 synthetic batches of 80 from a low-prevalence IID population."""
    gen = iid_model(80, 0.016)
    batches = [
        Batch(b, sample_outcome(gen, substream(700, b, 0)).statuses) for b in range(30)
    ]
    path = tmp_path_factory.mktemp("data") / "batches.csv"
    write_batches(path, batches)
    return path


@pytest.fixture(scope="module")
def pools_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pools.csv"
    rows = ["pool_id,run_timestamp,pool_size,statuses"]
    for i in range(12):
        rows.append(f"p{i},2020-04-05T10:{i:02d}:00,8,NNNNNNNP")
    rows.append("no-ts,,8,NNNNNNNN")
    rows.append("five,2020-04-05T11:00:00,5,NNNNN")
    rows.append("inc,2020-04-05T11:01:00,8,NNNNNNNI")
    path.write_text("\n".join(rows) + "\n")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_validation_error_is_2(self, capsys):
        code, _ = run(capsys, "optimize", "--n", "80")  # no model, no prevalence
        assert code == 2

    def test_io_error_is_3(self, capsys):
        code, _ = run(capsys, "fit", "--input", "/nonexistent/batches.csv")
        assert code == 3

    def test_infeasible_is_4(self, capsys, monkeypatch):
        def boom(args):
            raise InfeasibleError("forced")

        monkeypatch.setattr("poolpart.cli._cmd_optimize", boom)
        code, _ = run(capsys, "optimize", "--n", "4", "--prevalence", "0.1")
        assert code == 4

    def test_memory_error_is_2_with_one_line(self, capsys, monkeypatch):
        def boom(args):
            raise MemoryError

        monkeypatch.setattr("poolpart.cli._cmd_optimize", boom)
        assert main(["optimize", "--n", "4", "--prevalence", "0.1"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_argparse_rejections_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--strategy", "bogus", "--n", "4", "--prevalence", "0.1"])
        assert err.value.code == 2


class TestOversizedCounts:
    """A trial count or population size whose float64 vector numpy cannot
    shape exits 2 before anything that size is built.  2**50 trials can be
    shaped but not held (8 PiB): numpy's MemoryError exits 2 as well."""

    @pytest.fixture
    def sim_argv(self, tmp_path):
        (tmp_path / "model.json").write_text('{"n": 4, "alpha": [0.6, 0.2, 0.1, 0.06, 0.04]}')
        (tmp_path / "mu.json").write_text('{"2": 2}')
        (tmp_path / "batches.csv").write_text("batch_index,statuses\n0,NNPN\n1,PPNN\n2,NNNN\n")
        mu = ["--multiplicity", str(tmp_path / "mu.json")]
        return {
            "simulate-model": ["simulate", "--model", str(tmp_path / "model.json"), *mu],
            "simulate-batches": ["simulate", "--batches", str(tmp_path / "batches.csv"), *mu],
            "report": ["report", "--batches", str(tmp_path / "batches.csv")],
        }

    @pytest.mark.parametrize("trials", [2**60, 2**63, 10**20, 2**50])
    @pytest.mark.parametrize("command", ["simulate-model", "simulate-batches", "report"])
    def test_trials(self, capsys, sim_argv, command, trials):
        assert main([*sim_argv[command], "--trials", str(trials)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        if trials == 2**50:
            assert "Unable to allocate 8.00 PiB" in err
        else:
            assert f"trials must be below {2**60 - 1}, got {trials}" in err

    def test_population_size(self, capsys):
        assert main(["optimize", "--n", str(10**20), "--prevalence", "0.1"]) == 2
        assert capsys.readouterr().err == (
            f"error: population size must be below {2**60 - 1}, got {10**20}\n"
        )


class TestIngestCommand:
    def test_summary_and_output(self, capsys, pools_file, tmp_path):
        out_csv = tmp_path / "batches.csv"
        code, out = run(
            capsys, "ingest", "--input", str(pools_file), "--out", str(out_csv),
            "--batch-size", "16",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pools_read"] == 15
        assert doc["pools_kept"] == 12
        assert doc["dropped"]["no_timestamp"] == 1
        assert doc["dropped"]["excluded_size"] == 1
        assert doc["dropped"]["inconclusive"] == 1
        assert doc["batches"] == 6
        assert doc["remainder_discarded"] == 0
        assert doc["specimens_out"] == doc["specimens_in"] - doc["dropped"]["dropped_specimens"]
        assert len(read_batches(out_csv)) == 6


class TestFitCommand:
    def test_both_families(self, capsys, batches_file, tmp_path):
        for family in ("iid", "symmetric"):
            out = tmp_path / f"{family}.json"
            code, _ = run(
                capsys, "fit", "--input", str(batches_file), "--family", family,
                "--out", str(out),
            )
            assert code == 0
            m = SymmetricModel.from_dict(json.loads(out.read_text()))
            assert m.n == 80

    def test_laplace_fills_zero_cells(self, capsys, batches_file, tmp_path):
        out = tmp_path / "m.json"
        code, _ = run(
            capsys, "fit", "--input", str(batches_file), "--family", "symmetric",
            "--laplace", "0.5", "--out", str(out),
        )
        assert code == 0
        m = SymmetricModel.from_dict(json.loads(out.read_text()))
        assert np.all(m.alpha > 0)


class TestOptimizeCommand:
    def test_iid_shortcut_strategies_agree_at_low_prevalence(self, capsys):
        for strategy in ("team8", "dorfman", "iid"):
            code, out = run(
                capsys, "optimize", "--n", "80", "--prevalence", "0.01624",
                "--strategy", strategy,
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["multiplicity"] == {"8": 10}
            assert abs(doc["efficiency"] - 4.04) < 5e-3
            assert len(doc["pools"]) == 10
            assert sorted(i for g in doc["pools"] for i in g) == list(range(80))

    def test_model_file_input(self, capsys, batches_file, tmp_path):
        model_path = tmp_path / "sym.json"
        run(capsys, "fit", "--input", str(batches_file), "--out", str(model_path))
        code, out = run(capsys, "optimize", "--model", str(model_path))
        assert code == 0
        doc = json.loads(out)
        assert sum(int(i) * m for i, m in doc["multiplicity"].items()) == 80

    def test_max_pool_size_is_respected(self, capsys):
        code, out = run(
            capsys, "optimize", "--n", "80", "--prevalence", "0.01624",
            "--strategy", "iid", "--max-pool-size", "6",
        )
        assert code == 0
        doc = json.loads(out)
        assert max(int(i) for i in doc["multiplicity"]) <= 6

    def test_max_pool_size_is_an_integer(self):
        m = iid_model(8, 0.1)
        p, cv = prevalence(m), cost_vector(q_from_alpha(m))
        with pytest.raises(ValidationError, match="max pool size must be an integer >= 1"):
            strategy_multiplicity("team8", p, cv, max_pool=2.5)
        assert strategy_multiplicity("team8", p, cv, max_pool=np.int64(4)).as_dict() == {4: 2}

    def test_float_path_population(self, capsys):
        code, out = run(capsys, "optimize", "--n", "1000", "--prevalence", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert sum(int(i) * m for i, m in doc["multiplicity"].items()) == 1000

    @pytest.mark.parametrize(
        "strategy, want", [("team8", 0), ("dorfman", 0), ("iid", 1), ("symmetric", 0)]
    )
    def test_model_builds_iid_model_only_when_read(
        self, capsys, batches_file, tmp_path, monkeypatch, strategy, want
    ):
        # iid plans under the IID model of the file's model; dorfman reads the
        # file model's prevalence, and team8 and symmetric read neither
        from poolpart import cli

        calls = []

        def counted(*args):
            calls.append(args)
            return iid_model(*args)

        monkeypatch.setattr(cli, "iid_model", counted)
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(fit_symmetric(read_batches(batches_file)).to_dict()))
        assert run(capsys, "optimize", "--model", str(model_path), "--strategy", strategy)[0] == 0
        assert len(calls) == want

    @pytest.mark.parametrize("strategy", ["team8", "dorfman", "iid", "symmetric"])
    def test_model_whose_mean_count_rounds_above_n(self, capsys, tmp_path, strategy):
        # alpha sums to 1 only within 1e-12, so E[count]/n is 1 + 5e-14 here;
        # iid and dorfman plan at prevalence 1
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({"n": 2, "alpha": [0, 1e-13, 1.0]}))
        code, out = run(capsys, "optimize", "--model", str(model_path), "--strategy", strategy)
        assert code == 0
        assert sum(int(i) * m for i, m in json.loads(out)["multiplicity"].items()) == 2

    @pytest.mark.parametrize("laplace", ["0", "0.5"])
    @pytest.mark.parametrize("cap", [[], ["--max-pool-size", "6"]], ids=["no-cap", "cap-6"])
    def test_fitted_model_file_reproduces_report(
        self, capsys, batches_file, tmp_path, laplace, cap
    ):
        # team8 and symmetric plan on the exchangeable fit in both commands,
        # so a model file written by fit gives report's plan and score
        model_path = tmp_path / "sym.json"
        argv = ["--laplace", laplace, "--out", str(model_path)]
        assert run(capsys, "fit", "--input", str(batches_file), *argv)[0] == 0
        argv = ["--batches", str(batches_file), "--laplace", laplace, "--trials", "1", *cap]
        code, out = run(capsys, "report", *argv)
        assert code == 0
        entries = {s["strategy"]: s for s in json.loads(out)["strategies"]}
        for strategy in ("team8", "symmetric"):
            argv = ["--model", str(model_path), "--strategy", strategy, *cap]
            code, out = run(capsys, "optimize", *argv)
            assert code == 0
            doc, entry = json.loads(out), entries[strategy]
            assert doc["multiplicity"] == entry["multiplicity"]
            for key in ("expected_tests", "efficiency"):
                assert doc[key] == entry["theoretical"]["symmetric"][key]

    @pytest.mark.parametrize(
        "cap, want", [([], {"8": 1}), (["--max-pool-size", "3"], {"3": 2, "2": 1})]
    )
    def test_dorfman_at_prevalence_zero_pools_up_to_the_cap(self, capsys, cap, want):
        # the infinite-population formula excludes p = 0: one pool as large
        # as the cap allows, and a remainder pool
        argv = ["--n", "8", "--prevalence", "0", "--strategy", "dorfman", *cap]
        code, out = run(capsys, "optimize", *argv)
        assert code == 0
        assert json.loads(out)["multiplicity"] == want

    def test_unknown_strategy(self):
        m = iid_model(8, 0.1)
        with pytest.raises(ValidationError, match="unknown strategy 'bogus'"):
            strategy_multiplicity("bogus", prevalence(m), cost_vector(q_from_alpha(m)))


class TestSimulateCommand:
    def test_model_mode_with_per_trial_csv(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(iid_model(40, 0.05).to_dict()))
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"8": 5}))
        trace = tmp_path / "trials.csv"
        code, out = run(
            capsys, "simulate", "--model", str(model_path), "--multiplicity",
            str(mu_path), "--trials", "120", "--seed", "5",
            "--per-trial-out", str(trace),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 120
        assert doc["mean_tests"] > 5.0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "trial,total_tests"
        assert len(lines) == 121

    def test_batches_mode_accepts_optimize_output(self, capsys, batches_file, tmp_path):
        opt_path = tmp_path / "opt.json"
        run(
            capsys, "optimize", "--n", "80", "--prevalence", "0.016",
            "--strategy", "team8", "--out", str(opt_path),
        )
        code, out = run(
            capsys, "simulate", "--batches", str(batches_file), "--multiplicity",
            str(opt_path), "--randomize", "off",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 1
        assert doc["std_error"] == 0.0

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"2": 2}))
        code, _ = run(capsys, "simulate", "--multiplicity", str(mu_path))
        assert code == 2


class TestReportCommand:
    def test_structure_and_dominance(self, capsys, batches_file, tmp_path):
        out_path = tmp_path / "report.json"
        plots = tmp_path / "plots"
        code, _ = run(
            capsys, "report", "--batches", str(batches_file), "--trials", "40",
            "--seed", "3", "--out", str(out_path), "--plots-dir", str(plots),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert [s["strategy"] for s in doc["strategies"]] == [
            "team8", "dorfman", "iid", "symmetric",
        ]
        by_name = {s["strategy"]: s for s in doc["strategies"]}
        for s in doc["strategies"]:
            sym = s["theoretical"]["symmetric"]
            assert abs(sym["efficiency"] - 80 / sym["expected_tests"]) < 1e-12
            assert s["empirical"]["randomized"]["trials"] == 40
            assert s["empirical"]["deterministic"]["trials"] == 1
        # the symmetric strategy optimizes the symmetric objective
        best = by_name["symmetric"]["theoretical"]["symmetric"]["expected_tests"]
        for name in ("team8", "dorfman", "iid"):
            other = by_name[name]["theoretical"]["symmetric"]["expected_tests"]
            assert best <= other + 1e-12 * other
        for name in ("alpha.csv", "q.csv", "u.csv"):
            assert (plots / name).exists()

    def test_strategy_entry_schema(self, capsys, batches_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, _ = run(
            capsys, "report", "--batches", str(batches_file), "--trials", "20",
            "--seed", "2", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"batch_size", "trials", "seed", "strategies"}
        summary_keys = {
            "trials", "mean_tests", "std_error", "mean_efficiency", "efficiency_std_error",
        }
        for s in doc["strategies"]:
            assert set(s) == {
                "strategy", "multiplicity", "num_pools", "max_pool", "theoretical", "empirical",
            }
            counts = {int(i): m for i, m in s["multiplicity"].items()}
            assert sum(i * m for i, m in counts.items()) == 80
            assert s["num_pools"] == sum(counts.values())
            assert s["max_pool"] == max(counts)
            assert set(s["theoretical"]) == {"symmetric", "iid"}
            for family in s["theoretical"].values():
                assert set(family) == {"expected_tests", "efficiency"}
            iid = s["theoretical"]["iid"]
            assert abs(iid["efficiency"] - 80 / iid["expected_tests"]) < 1e-12
            assert set(s["empirical"]) == {"randomized", "deterministic"}
            for summary in s["empirical"].values():
                assert set(summary) == summary_keys

    def test_env_variable_supplies_default(self, capsys, batches_file, tmp_path, monkeypatch):
        monkeypatch.setenv("POOLPART_TRIALS", "9")
        code, out = run(capsys, "report", "--batches", str(batches_file), "--seed", "1")
        assert code == 0
        assert json.loads(out)["trials"] == 9

    def test_flag_overrides_env(self, capsys, batches_file, monkeypatch):
        monkeypatch.setenv("POOLPART_TRIALS", "9")
        code, out = run(
            capsys, "report", "--batches", str(batches_file), "--seed", "1",
            "--trials", "5",
        )
        assert code == 0
        assert json.loads(out)["trials"] == 5

    def test_batch_size_is_the_files(self, capsys, tmp_path):
        path = tmp_path / "b16.csv"
        path.write_text("batch_index,statuses\n0,NNPNNNNNNNNNNNNN\n1,NNNNNNNNNNNNNNNN\n")
        code, out = run(capsys, "report", "--batches", str(path), "--trials", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["batch_size"] == 16
        for s in doc["strategies"]:
            assert sum(int(i) * m for i, m in s["multiplicity"].items()) == 16
        # --batch-size only restates the file's size
        assert run(capsys, "report", "--batches", str(path), "--trials", "10",
                   "--batch-size", "16") == (code, out)

    def test_shared_designs_replay_once_with_same_bytes(
        self, capsys, batches_file, tmp_path, monkeypatch
    ):
        from poolpart import cli

        calls = []

        def counting(batches, mu, *args):
            calls.append(mu.counts)
            return empirical_evaluate(batches, mu, *args)

        monkeypatch.setattr(cli, "empirical_evaluate", counting)
        out_path = tmp_path / "report.json"
        code, _ = run(
            capsys, "report", "--batches", str(batches_file), "--trials", "40",
            "--seed", "5", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        designs = [tuple(sorted(s["multiplicity"].items())) for s in doc["strategies"]]
        assert len(set(designs)) < len(designs)  # this cohort shares a design
        assert len(calls) == 2 * len(set(calls)) == 2 * len(set(designs))
        # the same document with every strategy replayed on its own
        batches = read_batches(batches_file)
        for s in doc["strategies"]:
            mu = MultiplicityFunction(80, {int(i): m for i, m in s["multiplicity"].items()})
            s["empirical"] = {
                "randomized": empirical_evaluate(batches, mu, True, 40, 5).to_dict(),
                "deterministic": empirical_evaluate(batches, mu, False, 40, 5).to_dict(),
            }
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert out_path.read_bytes() == expected.encode()


class TestExactQCalls:
    """Each command builds the exact q curve of each model it plans or
    scores with once."""

    @pytest.fixture
    def q_calls(self, monkeypatch):
        calls = []

        def counted(m):
            qc = q_from_alpha(m)
            calls.append(qc._exact is not None)
            return qc

        monkeypatch.setattr("poolpart.cli.q_from_alpha", counted)
        return calls

    @pytest.mark.parametrize("plots", [False, True])
    def test_report(self, capsys, batches_file, tmp_path, q_calls, plots):
        # the plot series write the curves the plans were built from
        argv = ["report", "--batches", str(batches_file), "--trials", "10"]
        if plots:
            argv += ["--plots-dir", str(tmp_path / "plots")]
        assert run(capsys, *argv)[0] == 0
        assert q_calls == [True, True]

    @pytest.mark.parametrize("strategy", ["team8", "dorfman", "iid", "symmetric"])
    def test_optimize_with_prevalence(self, capsys, q_calls, strategy):
        argv = ["optimize", "--n", "80", "--prevalence", "0.01624", "--strategy", strategy]
        assert run(capsys, *argv)[0] == 0
        assert q_calls == [True]

    @pytest.mark.parametrize(
        "strategy, want", [("team8", 1), ("dorfman", 1), ("iid", 2), ("symmetric", 1)]
    )
    def test_optimize_with_model(self, capsys, batches_file, tmp_path, q_calls, strategy, want):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(fit_symmetric(read_batches(batches_file)).to_dict()))
        assert run(capsys, "optimize", "--model", str(model_path), "--strategy", strategy)[0] == 0
        assert q_calls == [True] * want


class TestReportChecksArgumentsFirst:
    """report rejects a bad trial count or pool-size cap before it reads the
    batches, fits the models or builds a curve."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                seen.append(name)
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr("poolpart.cli.read_batches", spy("read_batches", read_batches))
        monkeypatch.setattr("poolpart.cli.q_from_alpha", spy("q_from_alpha", q_from_alpha))
        return seen

    def test_valid_run_reads_then_builds_both_curves(self, capsys, batches_file, calls):
        assert run(capsys, "report", "--batches", str(batches_file), "--trials", "10")[0] == 0
        assert calls == ["read_batches", "q_from_alpha", "q_from_alpha"]

    @pytest.mark.parametrize(
        "flag, value, needle",
        [
            ("--trials", "0", "trials must be an integer >= 1, got 0"),
            ("--trials", str(2**63), f"trials must be below {2**60 - 1}, got {2**63}"),
            ("--max-pool-size", "0", "max pool size must be an integer >= 1, got 0"),
        ],
        ids=["zero-trials", "trials-beyond-shape", "zero-max-pool-size"],
    )
    def test_rejected_before_any_work(self, capsys, batches_file, calls, flag, value, needle):
        assert main(["report", "--batches", str(batches_file), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {needle}\n"
        assert calls == []

    def test_missing_batches_with_zero_trials_is_a_validation_error(self, capsys, tmp_path):
        argv = ["report", "--batches", str(tmp_path / "missing.csv"), "--trials", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: trials must be an integer >= 1, got 0\n"

    def test_missing_batches_is_an_ingest_io_error(self, capsys, tmp_path):
        argv = ["report", "--batches", str(tmp_path / "missing.csv"), "--trials", "10"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ingest: ") and "missing.csv" in err
        assert err.count("\n") == 1


def hand_experiment(m_iid, m_sym):
    """An Experiment with no strategy reports, holding each model's curve."""
    return Experiment([], m_iid, m_sym, q_from_alpha(m_iid), q_from_alpha(m_sym))


class TestEmitModelAnalysis:
    def test_hand_model_series(self, tmp_path):
        m_iid = iid_model(2, 0.5)
        m_sym = SymmetricModel(2, np.array([0.0, 1.0, 0.0]))
        paths = emit_model_analysis(hand_experiment(m_iid, m_sym), tmp_path)
        assert sorted(p.rsplit("/", 1)[-1] for p in paths) == ["alpha.csv", "q.csv", "u.csv"]
        q_rows = (tmp_path / "q.csv").read_text().strip().splitlines()
        assert q_rows[0] == "h,iid,symmetric"
        assert q_rows[1] == "0,1.0,1.0"
        assert q_rows[2] == "1,0.5,0.5"
        assert q_rows[3] == "2,0.25,0.0"
        u_rows = (tmp_path / "u.csv").read_text().strip().splitlines()
        assert u_rows[1] == "1,1.0,1.0"
        assert u_rows[2] == "2,2.5,3.0"

    def test_models_and_curves_must_share_n(self, tmp_path):
        exp = hand_experiment(iid_model(2, 0.5), iid_model(2, 0.5))
        bad = Experiment([], exp.m_iid, exp.m_sym, exp.q_iid, q_from_alpha(iid_model(3, 0.5)))
        with pytest.raises(ValidationError, match="models and curves must share n = 2"):
            emit_model_analysis(bad, tmp_path)

    def test_identical_inputs_identical_series(self, tmp_path):
        m = iid_model(6, 0.2)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_model_analysis(hand_experiment(m, m), d1)
        emit_model_analysis(hand_experiment(m, m), d2)
        for name in ("alpha.csv", "q.csv", "u.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_iid_fit_understates_group_negative_odds_for_clustered_data(self):
        # positives arrive in bursts: the IID fit spreads them out and so
        # underestimates mid-size all-negative probabilities
        rows = []
        for b in range(200):
            row = np.zeros(20, dtype=np.uint8)
            if b % 10 == 0:
                row[:5] = 1
            rows.append(row)
        m_iid, m_sym = fit_iid(rows), fit_symmetric(rows)
        from poolpart import q_from_alpha

        q_iid, q_sym = q_from_alpha(m_iid).q, q_from_alpha(m_sym).q
        for h in (8, 10, 12):
            assert q_iid[h] < q_sym[h]


MIXED_TIMESTAMPS = (
    "pool_id,run_timestamp,pool_size,statuses\n"
    "a,2024-01-01T00:00:00,8,NNNNNNNN\n"
    "b,2024-01-01T00:00:01Z,8,NNNPNNNN\n"
)


NON_UTF8_POOLS = (
    b"pool_id,run_timestamp,pool_size,statuses\n"
    b"caf\xe9,2024-01-01T00:00:00,8,NNNNNNNN\n"
)


REPEATED_STATUSES_POOLS = (
    "pool_id,run_timestamp,pool_size,statuses,statuses\n"
    "a,2024-01-01T00:00:00,8,NNNNNNNN,PPPPPPPP\n"
)


BATCHES_4 = "batch_index,statuses\n0,NNPN\n1,NNNN\n"
CONSTANT_BATCHES_4 = "batch_index,statuses\n0,NNNN\n1,PPPP\n"
MODEL_4 = json.dumps({"n": 4, "alpha": [0.6, 0.2, 0.1, 0.06, 0.04]})


class TestUtf8ByteOrderMark:
    """A leading BOM is skipped: the file reads as it does without one."""

    def test_pool_csv(self, capsys, pools_file, tmp_path):
        bom = tmp_path / "pools-bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + pools_file.read_bytes())
        outputs = []
        for src in (pools_file, bom):
            out_csv = tmp_path / f"{src.stem}-batches.csv"
            code, out = run(
                capsys, "ingest", "--input", str(src), "--out", str(out_csv),
                "--batch-size", "16",
            )
            assert code == 0
            doc = json.loads(out)
            del doc["out"]
            outputs.append((doc, out_csv.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_batch_csv(self, batches_file, tmp_path):
        bom = tmp_path / "batches-bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + batches_file.read_bytes())
        plain, with_bom = read_batches(batches_file), read_batches(bom)
        assert [b.index for b in with_bom] == [b.index for b in plain]
        assert all(np.array_equal(x.statuses, y.statuses) for x, y in zip(plain, with_bom))


class TestMalformedInputs:
    """Each malformed input exits 2 with a one-line message, no traceback."""

    INGEST = ["ingest", "--input", "{path}", "--out", "{dir}/b.csv", "--batch-size", "8"]
    OPTIMIZE = ["optimize", "--model", "{path}"]
    FIT = ["fit", "--input", "{path}"]
    SIMULATE = ["simulate", "--batches", "{dir}/b.csv", "--multiplicity", "{path}"]
    MONTE_CARLO = ["simulate", "--model", "{dir}/model.json", "--multiplicity", "{path}"]
    REPORT = ["report", "--batches", "{path}", "--laplace"]
    REPORT_SEED = ["report", "--batches", "{path}", "--seed"]
    REPLAY_SEED = ["simulate", "--batches", "{path}", "--multiplicity", "{dir}/mu.json", "--seed"]
    REPLAY = ["simulate", "--batches", "{path}", "--multiplicity", "{dir}/mu.json"]
    ONE_INPUT = "give either --model or --n with --prevalence, not both"

    @pytest.mark.parametrize(
        "argv, content, needle",
        [
            (INGEST, MIXED_TIMESTAMPS, "offset-naive"),
            (OPTIMIZE, json.dumps({"n": 2.7, "alpha": [0.5, 0.5, 0.0]}), "integer"),
            (OPTIMIZE, json.dumps({"n": True, "alpha": [0.5, 0.5]}), "integer"),
            (INGEST, NON_UTF8_POOLS, "not UTF-8"),
            (FIT, b"batch_index,statuses\n0,NNPN\xe9\n", "not UTF-8"),
            (OPTIMIZE, b'{"n": 1, "alpha": [1.0, 0.0], "note": "\xff"}', "invalid JSON"),
            (SIMULATE, json.dumps({"4": 2.5}), "integer"),
            (SIMULATE, json.dumps({"8": 1.9}), "integer"),
            (SIMULATE, json.dumps({"8": True}), "integer"),
            (SIMULATE, json.dumps({"8": "1"}), "integer"),
            (OPTIMIZE, json.dumps({"n": 1, "alpha": "abc"}), "alpha"),
            (OPTIMIZE, json.dumps({"n": 1, "alpha": {"a": 1}}), "alpha"),
            (REPORT + ["inf"], BATCHES_4, "laplace"),
            (REPORT + ["nan"], BATCHES_4, "laplace"),
            (FIT + ["--family", "iid", "--laplace", "1e308"], BATCHES_4, "laplace"),
            (FIT + ["--family", "symmetric", "--laplace", "1e308"], BATCHES_4, "laplace"),
            (OPTIMIZE, json.dumps({"n": 1, "alpha": ["0.5", "0.5"]}), "alpha"),
            (OPTIMIZE, json.dumps({"n": 1, "alpha": [True, False]}), "alpha"),
            (OPTIMIZE, json.dumps({"n": 1, "alpha": [None, 1.0]}), "alpha"),
            (OPTIMIZE, '{"n": 1, "alpha": [1' + "0" * 400 + ", 0]}", "alpha"),
            (REPORT_SEED + ["-1"], CONSTANT_BATCHES_4, "seed"),
            (REPORT_SEED + [str(2**64)], CONSTANT_BATCHES_4, "seed"),
            (REPLAY_SEED + ["-5"], CONSTANT_BATCHES_4, "seed"),
            (REPLAY_SEED + [str(2**64)], CONSTANT_BATCHES_4, "seed"),
            (["report", "--batches", "{dir}/missing.csv", "--seed", "-1"], "", "seed"),
            (OPTIMIZE, '{"n": 1, "alpha": [1.0, 0.0], "alpha": [0.0, 1.0]}', "'alpha' is repeated"),
            (SIMULATE, json.dumps({"2": 1, "02": 1, "1": 2}), "part size 2 is given twice"),
            (MONTE_CARLO, json.dumps({"2": 1}),
             "multiplicity target 2 does not match population size 4"),
            (SIMULATE, json.dumps({"2_0": 1}), "bad multiplicity entry: '2_0'"),
            (SIMULATE, json.dumps({"+2": 2}), "bad multiplicity entry: '+2'"),
            (SIMULATE, json.dumps({"\uff12": 2}), "bad multiplicity entry: '\uff12'"),
            (FIT, "batch_index,statuses\n0_0,NNPN\n", "bad batch_index '0_0'"),
            (REPLAY + ["--trials", "\u0661\u0660"], BATCHES_4, "bad --trials value"),
            (REPLAY + ["--trials", "1_0"], BATCHES_4, "bad --trials value"),
            (REPLAY_SEED + ["+3"], BATCHES_4, "bad --seed value"),
            (["POOLPART_TRIALS=1_5"] + REPLAY, BATCHES_4, "bad POOLPART_TRIALS value"),
            (FIT, "batch_index,statuses,statuses\n0,NNPN,PPPP\n", "repeated column(s)"),
            (INGEST, REPEATED_STATUSES_POOLS, "repeated column(s) ['statuses']"),
            (["report", "--batches", "{path}"], "batch_index,statuses\n0,NNPN\n1,PPN\n",
             "fit: heterogeneous batch sizes: 4 then 3"),
            (["report", "--batches", "{path}", "--trials", "5", "--batch-size", "5"], BATCHES_4,
             "batches have size 4, not --batch-size 5"),
            (["report", "--batches", "{path}", "--batch-size", "4_0"], BATCHES_4,
             "bad --batch-size value"),
            # a model file is the one input; --n, even the model's own, restates it
            (OPTIMIZE + ["--prevalence", "0.3"], MODEL_4, ONE_INPUT),
            (OPTIMIZE + ["--n", "4"], MODEL_4, ONE_INPUT),
            (MONTE_CARLO, "[1, 2]", "input: expected a nonempty size->count object"),
            (MONTE_CARLO, "{}", "input: expected a nonempty size->count object"),
        ],
        ids=[
            "mixed-naive-and-aware-timestamps", "fractional-model-n", "boolean-model-n",
            "non-utf8-pool-csv", "non-utf8-batch-csv", "non-utf8-model-json",
            "fractional-multiplicity-count", "fractional-multiplicity-count-below-2",
            "boolean-multiplicity-count", "string-multiplicity-count",
            "string-model-alpha", "object-model-alpha",
            "infinite-laplace", "nan-laplace",
            "iid-laplace-overflowing-total", "symmetric-laplace-overflowing-total",
            "string-alpha-entries", "boolean-alpha-entries",
            "null-alpha-entry", "alpha-entry-beyond-float-range",
            "negative-report-seed-constant-cohort", "report-seed-beyond-uint64-constant-cohort",
            "negative-replay-seed-constant-cohort", "replay-seed-beyond-uint64-constant-cohort",
            "report-seed-checked-before-batches-are-read",
            "repeated-model-json-key", "multiplicity-keys-naming-one-size",
            "multiplicity-not-covering-model-size",
            "underscore-multiplicity-key", "signed-multiplicity-key",
            "fullwidth-digit-multiplicity-key", "underscore-batch-index",
            "arabic-indic-digit-trials", "underscore-trials", "signed-seed",
            "underscore-trials-variable", "repeated-batch-csv-column",
            "repeated-pool-csv-column", "mixed-report-batch-sizes",
            "report-batch-size-not-the-files", "underscore-report-batch-size",
            "model-with-prevalence", "model-with-n", "list-multiplicity", "empty-multiplicity",
        ],
    )
    def test_exit_2_with_one_line(self, capsys, tmp_path, monkeypatch, argv, content, needle):
        while argv[0].startswith("POOLPART_"):  # leading NAME=value words set the environment
            monkeypatch.setenv(*argv[0].split("=", 1))
            argv = argv[1:]
        path = tmp_path / "input"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        (tmp_path / "mu.json").write_text('{"2": 2}')  # a valid design for the n = 4 rows
        (tmp_path / "model.json").write_text(MODEL_4)
        code = main([a.format(path=path, dir=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err


def test_padded_multiplicity_key_is_read(capsys, tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"n": 4, "alpha": [0.6, 0.2, 0.1, 0.06, 0.04]}))
    outs = []
    for key in ("2", " 2 "):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({key: 2}))
        argv = ["--model", str(model), "--multiplicity", str(mu), "--trials", "50", "--seed", "3"]
        outs.append(run(capsys, "simulate", *argv))
    assert outs[0][0] == 0 and outs[1] == outs[0]


# each integer flag and variable, after a command that would otherwise run
INTEGER_OPTIONS = {
    "--seed": TestMalformedInputs.REPLAY,
    "--trials": TestMalformedInputs.REPLAY,
    "--batch-size": ["ingest", "--input", "{path}", "--out", "{dir}/b.csv"],
    "--n": ["optimize", "--prevalence", "0.1"],
    "--max-pool-size": ["optimize", "--prevalence", "0.1", "--n", "4"],
    "--exclude-size": ["ingest", "--input", "{path}", "--out", "{dir}/b.csv"],
    "POOLPART_SEED": TestMalformedInputs.REPLAY,
    "POOLPART_TRIALS": TestMalformedInputs.REPLAY,
    "POOLPART_BATCH_SIZE": ["ingest", "--input", "{path}", "--out", "{dir}/b.csv"],
    "POOLPART_MAX_POOL_SIZE": ["report", "--batches", "{path}"],
}


@pytest.mark.parametrize("value", ["+3", "1_0", "\u0663", "3.0"])
@pytest.mark.parametrize("option", list(INTEGER_OPTIONS))
def test_integer_options_are_ascii_digits(capsys, tmp_path, monkeypatch, option, value):
    # the rule for integers read from files holds for flags and variables
    path = tmp_path / "input"
    path.write_text(BATCHES_4)
    (tmp_path / "mu.json").write_text('{"2": 2}')
    argv = [a.format(path=path, dir=tmp_path) for a in INTEGER_OPTIONS[option]]
    if option.startswith("POOLPART_"):
        monkeypatch.setenv(option, value)
    else:
        argv += [option, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    rule = "is not a nonnegative integer in ASCII digits"
    assert err == f"error: bad {option} value: {value!r} {rule}\n"


def test_padded_integer_flag_is_read(capsys, tmp_path):
    path = tmp_path / "b.csv"
    path.write_text(BATCHES_4)
    (tmp_path / "mu.json").write_text('{"2": 2}')
    argv = [a.format(path=path, dir=tmp_path) for a in TestMalformedInputs.REPLAY]
    outs = [run(capsys, *argv, "--trials", t, "--seed", s) for t, s in (("7", "3"), (" 7 ", "3 "))]
    assert outs[0][0] == 0 and outs[1] == outs[0]
    assert json.loads(outs[0][1])["trials"] == 7


# each float flag and variable, after a command that would otherwise run
REPORT_4 = ["report", "--batches", "{path}", "--trials", "5"]
REAL_OPTIONS = {
    "fit-flag": ("--laplace", TestMalformedInputs.FIT),
    "report-flag": ("--laplace", REPORT_4),
    "optimize-flag": ("--prevalence", ["optimize", "--n", "4"]),
    "fit-variable": ("POOLPART_LAPLACE", TestMalformedInputs.FIT),
    "report-variable": ("POOLPART_LAPLACE", REPORT_4),
}


@pytest.mark.parametrize("value", ["0_1", "\u0661", "\u0660\u066b\u0661"])
@pytest.mark.parametrize("option, argv", REAL_OPTIONS.values(), ids=list(REAL_OPTIONS))
def test_real_options_are_ascii_without_underscores(
    capsys, tmp_path, monkeypatch, option, argv, value
):
    # float() alone would read "0_1" as 1.0 and "\u0661" as 1.0
    path = tmp_path / "input"
    path.write_text(BATCHES_4)
    argv = [a.format(path=path) for a in argv]
    if option.startswith("POOLPART_"):
        monkeypatch.setenv(option, value)
    else:
        argv += [option, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {option} value: {value!r} ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["1e-3", " 0.1 "])
@pytest.mark.parametrize("option", ["--prevalence", "--laplace", "POOLPART_LAPLACE"])
def test_real_option_text_is_read(capsys, tmp_path, monkeypatch, option, text):
    path = tmp_path / "input"
    path.write_text(BATCHES_4)
    argv = ["optimize", "--n", "8"] if option == "--prevalence" else ["fit", "--input", str(path)]
    outs = []
    for value in (text, repr(float(text))):
        if option.startswith("POOLPART_"):
            monkeypatch.setenv(option, value)
            outs.append(run(capsys, *argv))
        else:
            outs.append(run(capsys, *argv, option, value))
    assert outs[0][0] == 0 and outs[1] == outs[0]


# a valid flag for each POOLPART_ variable
VARIABLE_FLAGS = {
    "POOLPART_SEED": ["--seed", "3"],
    "POOLPART_TRIALS": ["--trials", "5"],
    "POOLPART_BATCH_SIZE": ["--batch-size", "4"],
    "POOLPART_MAX_POOL_SIZE": ["--max-pool-size", "2"],
    "POOLPART_LAPLACE": ["--laplace", "0.5"],
}
# a valid run of each command, and the variables whose flags it has
COMMANDS = {
    "ingest": (["ingest", "--input", "{pools}", "--out", "{dir}/b.csv"], ["POOLPART_BATCH_SIZE"]),
    "fit": (TestMalformedInputs.FIT, ["POOLPART_LAPLACE"]),
    "optimize": (["optimize", "--n", "4", "--prevalence", "0.1"], ["POOLPART_MAX_POOL_SIZE"]),
    "simulate": (TestMalformedInputs.REPLAY, ["POOLPART_SEED", "POOLPART_TRIALS"]),
    "report": (
        ["report", "--batches", "{path}"],
        [v for v in VARIABLE_FLAGS if v != "POOLPART_BATCH_SIZE"],
    ),
}


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("variable", list(VARIABLE_FLAGS))
def test_malformed_variable_is_not_read(
    capsys, tmp_path, monkeypatch, pools_file, variable, command
):
    # a command without the variable's flag never reads the variable, and a
    # command with it is given the flag, which wins: output as without it
    path = tmp_path / "input"
    path.write_text(BATCHES_4)
    (tmp_path / "mu.json").write_text('{"2": 2}')
    argv, variables = COMMANDS[command]
    argv = [a.format(path=path, dir=tmp_path, pools=pools_file) for a in argv]
    argv += [a for v in variables for a in VARIABLE_FLAGS[v]]
    plain = run(capsys, *argv)
    monkeypatch.setenv(variable, "x")
    assert plain[0] == 0 and run(capsys, *argv) == plain


class TestSimulateMatchesLibrary:
    def test_json_and_per_trial_csv_match_library(self, capsys, batches_file, tmp_path):
        from poolpart import (
            MultiplicityFunction,
            empirical_evaluate,
            empirical_trial_totals,
            mc_trial_totals,
            monte_carlo,
            pooling_from_multiplicity,
        )

        m = iid_model(80, 0.03)
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(m.to_dict()))
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"8": 10}))
        mu = MultiplicityFunction(80, {8: 10})
        pools = pooling_from_multiplicity(mu, range(80))
        batches = read_batches(batches_file)
        cases = [
            (
                ["--model", str(model_path)],
                monte_carlo(m, pools, 70, 8),
                mc_trial_totals(m, pools, 70, 8),
            ),
            (
                ["--batches", str(batches_file)],
                empirical_evaluate(batches, mu, True, 70, 8),
                empirical_trial_totals(batches, mu, True, 70, 8),
            ),
        ]
        for source, summary, totals in cases:
            trace = tmp_path / "trials.csv"
            code, out = run(
                capsys, "simulate", *source, "--multiplicity", str(mu_path), "--trials", "70",
                "--seed", "8", "--per-trial-out", str(trace),
            )
            assert code == 0
            assert out == json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
            rows = "".join(f"{t},{int(v)}\r\n" for t, v in enumerate(totals))
            assert trace.read_bytes().decode() == "trial,total_tests\r\n" + rows
