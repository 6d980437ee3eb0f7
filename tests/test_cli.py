import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from prym6 import checks, chow, cli, conicbundle
from prym6.cli import main, run_checks

#: sha256 digests of the benchmark's outputs, kept with the benchmark
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["pass"] is True
        assert all(c["pass"] for c in report["checks"])

    def test_report_schema_and_ordering(self):
        report = run_checks("all")
        ids = [c["identifier"] for c in report["checks"]]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        for c in report["checks"]:
            assert set(c) == {"identifier", "anchor", "expected", "computed",
                              "pass", "millis"}
            assert isinstance(c["expected"], list) and len(c["expected"]) == 2
            assert c["expected"][1] > 0  # denominators normalized positive
            assert c["pass"] == (c["expected"] == c["computed"])

    def test_single_suites(self):
        for suite in ("chow", "counts", "slope"):
            report = run_checks(suite)
            assert report["pass"], [c for c in report["checks"] if not c["pass"]]

    def test_suites_partition_the_report(self):
        # an unknown suite would select no check and pass vacuously
        with pytest.raises(ValueError, match="chow, counts, slope"):
            run_checks("bogus")
        ids = {suite: [c["identifier"] for c in run_checks(suite)["checks"]]
               for suite in cli.SUITES}
        assert {s: len(v) for s, v in ids.items()} == {
            "chow": 17, "counts": 17, "slope": 10}
        every = [c["identifier"] for c in run_checks("all")["checks"]]
        assert len(every) == 44
        assert sorted(i for v in ids.values() for i in v) == every

    def test_key_values_present(self):
        report = run_checks("all")
        by_id = {c["identifier"]: c for c in report["checks"]}
        assert by_id["counts.singular_members"]["computed"] == [77, 1]
        assert by_id["counts.double_lines"]["computed"] == [32, 1]
        assert by_id["slope.full.bound"]["computed"] == [53, 10]
        assert by_id["slope.u4.bound"]["computed"] == [13, 2]
        assert by_id["chow.blowup.N4"]["computed"] == [-4, 1]

    def test_json_output_and_stability(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--suite", "slope", "--json", str(p1)]) == 0
        assert main(["verify", "--suite", "slope", "--json", str(p2)]) == 0
        a = json.loads(p1.read_text())
        b = json.loads(p2.read_text())
        for ca, cb_ in zip(a["checks"], b["checks"]):
            ca.pop("millis")
            cb_.pop("millis")
        assert a == b

    def test_each_report_computes_each_number_once(self, monkeypatch):
        calls = {"bundles": 0, "tangent": 0, "euler": 0, "table": 0,
                 "zeta4": 0}
        products = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(chow.ProjectiveBundle, "__init__",
                            counted("bundles", chow.ProjectiveBundle.__init__))
        monkeypatch.setattr(chow, "tangent_chern_classes",
                            counted("tangent", chow.tangent_chern_classes))
        monkeypatch.setattr(chow, "euler_numbers",
                            counted("euler", chow.euler_numbers))
        monkeypatch.setattr(chow, "blowup_intersection_table",
                            counted("table", chow.blowup_intersection_table))
        # zeta^4 on the blow-up ring, read by K_B^2 and by deg h
        monkeypatch.setattr(chow, "intersection_number",
                            counted("zeta4", chow.intersection_number))
        product = chow.ChowClass._product

        def counted_product(self, other):
            products[type(self.ring).__name__] += 1
            return product(self, other)

        monkeypatch.setattr(chow.ChowClass, "_product", counted_product)
        for _ in range(2):
            calls.update(dict.fromkeys(calls, 0))
            products.clear()
            assert run_checks("all")["pass"]
            # once in every report: the second recomputes, caches nothing
            assert calls == {"bundles": 1, "tangent": 1, "euler": 1, "table": 1,
                             "zeta4": 1}
            # Riemann-Roch and deg h are numbers on S, so no product is
            # formed on S or on the bundle: zeta^4 takes two products on the
            # blow-up ring, and the moduli numbers four on products of
            # projective spaces
            assert products == {"BlowupRing": 2, "ProductProjectiveRing": 4}

    def test_failure_exit_code(self, monkeypatch):
        from fractions import Fraction
        broken = checks.Check("chow.broken", "injected failure",
                              Fraction(1), lambda: Fraction(2))
        monkeypatch.setattr(checks, "_checks", lambda: [broken])
        assert main(["verify", "--suite", "chow"]) == 1


class TestConstruct:
    def test_deterministic_json(self, tmp_path, capsys):
        p1, p2 = tmp_path / "i1.json", tmp_path / "i2.json"
        assert main(["construct", "--seed", "3", "--json", str(p1)]) == 0
        assert main(["construct", "--seed", "3", "--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert data["format"] == "conic-bundle-instance-v1"
        assert len(data["certificates"]) == 4
        assert len(data["marked_lines"]) == 5

    def test_stdout_mode(self, capsys):
        assert main(["construct", "--seed", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 4

    def test_seed_required(self):
        with pytest.raises(SystemExit):
            main(["construct"])


@pytest.mark.parametrize("command", ["construct", "sweep"])
def test_removed_exact_flag_is_a_usage_error(command, capsys):
    # the parser alone, so that a parser that still accepted the flag could
    # not start a construction
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(
            [command, "--seed", "1", "--exact-elimination"])
    assert exc.value.code == 2
    assert "--exact-elimination" in capsys.readouterr().err


class TestSweep:
    def test_sweep_report(self, capsys):
        assert main(["sweep", "--seed", "7", "--samples", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["net_dimension"] == 3
        assert len(data["samples"]) == 2
        for s in data["samples"]:
            assert s["certified_nodes"] == 4
            assert len(s["sections"]) == 4

    @pytest.mark.parametrize("samples", ["0", "-2", "two"])
    def test_samples_below_one_are_a_usage_error(self, samples, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--seed", "1", "--samples", samples])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: prym6 sweep") and "--samples" in err

    def test_sweep_deterministic(self, capsys):
        assert main(["sweep", "--seed", "11", "--samples", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--seed", "11", "--samples", "1"]) == 0
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "chow"],
    ["construct", "--seed", "1"],
    ["sweep", "--seed", "7", "--samples", "1"],
])
def test_unwritable_json_path_exits_two(argv, tmp_path, capsys):
    # exit status 1 means a failed check; a report that could not be saved
    # is one line on stderr and status 2, not a traceback
    path = tmp_path / "missing" / "x.json"
    assert main([*argv, "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"prym6: cannot write {path}: No such file or directory"]
    assert not path.parent.exists()


def test_closed_stdout_exits_two_without_a_traceback():
    # a reader that stops early, as in `prym6 verify | head`, closes the
    # pipe: an output error, status 2, and nothing on stderr
    read, write = os.pipe()
    os.close(read)
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    try:
        run = subprocess.run([sys.executable, "-m", "prym6.cli", "verify"],
                             stdout=write, stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr == ""


def test_outputs_match_benchmark_digests(capsys):
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for seed in range(1, 21):
        text = conicbundle.construct_instance(seed).to_json()
        assert sha256(text) == digests["construct"][str(seed)], f"seed {seed}"
    # twelve nets and their pencils: a shifted rng stream changes these
    for seed in range(1, 13):
        assert main(["sweep", "--seed", str(seed), "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert sha256(out) == digests["sweep"][str(seed)], f"sweep seed {seed}"
    # the verify report without its wall-clock millis, as the benchmark
    # serializes it
    report = run_checks("all")
    checks = [{k: v for k, v in c.items() if k != "millis"}
              for c in report["checks"]]
    text = json.dumps(dict(report, checks=checks), sort_keys=True)
    assert sha256(text) == digests["verify"]
