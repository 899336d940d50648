import json
from fractions import Fraction

import pytest

from brokenline import (
    Convention,
    conjugate_word,
    kneading_of_angle,
    validate_spec,
    word_to_fraction,
)
from brokenline import cli
from brokenline.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def as_dict(text):
    return dict(
        line.split(": ", 1) for line in text.strip().splitlines() if ": " in line
    )


def test_line(capsys):
    code, out, _ = run(capsys, "line", "2/5", "--convention", "01", "--check")
    assert code == 0
    fields = as_dict(out)
    assert fields["cutting"] == "0010001"
    assert fields["word"] == "01001"
    assert fields["angle"] == "9/31"
    assert fields["check"] == "ok"


def test_bulb(capsys):
    code, out, _ = run(capsys, "bulb", "2/5")
    assert code == 0
    fields = as_dict(out)
    assert fields["theta-01"] == "9/31"
    assert fields["theta-10"] == "10/31"


def test_broken_all(capsys):
    code, out, _ = run(
        capsys,
        "broken", "1/2", "3/4", "--hinge", "1", "--convention", "01", "--all",
    )
    assert code == 0
    fields = as_dict(out)
    assert fields["angle"] == "7/15"
    assert fields["conjugate"] == "8/15"
    assert fields["kneading"] == "100*"
    assert fields["block-exponents"] == "2"
    assert fields["spoke"] == "1"
    assert fields["spoke-lower"] == "5/12"
    assert fields["spoke-upper"] == "7/12"


def test_broken_json(capsys):
    code, out, _ = run(
        capsys,
        "broken", "2/5", "7/17", "--hinge", "2", "--convention", "01", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["angle"] == "38057/131071"
    assert doc["payload"]["expansion"] == "0.(01001010010101001)"


def test_broken_all_at_a_long_period(capsys):
    code, out, _ = run(
        capsys,
        "broken", "1/2", "2502/5003", "--hinge", "1", "--convention", "01",
        "--all", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    payload = doc["payload"]
    assert payload["period"] == 5003
    assert payload["kneading"] == str(kneading_of_angle(Fraction(payload["angle"])))

    code, out, _ = run(
        capsys,
        "conjugate", "1/2", "2502/5003", "--hinge", "1", "--convention", "01",
        "--verify", "--json",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["chain"] == "ok"
    assert payload["lavaurs"] == "skipped (period > 16)"
    spec = validate_spec(
        Fraction(1, 2), Fraction(2502, 5003), 1, Convention.ZERO_ONE
    )
    assert payload["conjugate"] == str(word_to_fraction(conjugate_word(spec)))


def test_conjugate_verify(capsys):
    code, out, _ = run(
        capsys,
        "conjugate", "1/2", "3/4", "--hinge", "1", "--convention", "01",
        "--verify",
    )
    assert code == 0
    fields = as_dict(out)
    assert fields["conjugate"] == "8/15"
    assert fields["chain"] == "ok"
    assert fields["lavaurs"] == "ok"


def test_kneading_commands(capsys):
    code, out, _ = run(
        capsys, "kneading", "2/5", "7/17", "--hinge", "2", "--convention", "01",
        "--check",
    )
    assert code == 0
    assert as_dict(out)["kneading"] == "1111011110111111*"

    code, out, _ = run(capsys, "kneading-of-angle", "7/15")
    assert code == 0
    fields = as_dict(out)
    assert fields["kneading"] == "100*"
    assert fields["period"] == "4"


def test_invert_kneading(capsys):
    code, out, _ = run(
        capsys, "invert-kneading", "1111011110111101*", "--convention", "01"
    )
    assert code == 0
    fields = as_dict(out)
    assert fields["limb"] == "2/5"
    assert fields["slope"] == "7/17"
    assert fields["hinge"] == "3"


def test_enumerate_with_census(capsys):
    code, out, _ = run(capsys, "enumerate", "--period", "4", "--census")
    assert code == 0
    assert "count: 4" in out
    assert "census-3: 2 2 2" in out
    assert "census-4: 4 4 4" in out
    lines = [l for l in out.splitlines() if l.startswith("theta-")]
    assert len(lines) == 4
    assert any("7/15" in l for l in lines)


def test_enumerate_census_reports_construction_gap(capsys):
    # at period 7 the construction reaches 28 of the 30 counted angles; the
    # census must report, not assert
    code, out, _ = run(capsys, "enumerate", "--period", "7", "--census")
    assert code == 0
    assert "census-7: 30 28 30" in out
    assert "census-discrepancy" in out


def test_enumerate_census_cap_checked_before_any_work(capsys, monkeypatch):
    def no_work(period):
        raise AssertionError("enumerated before the census cap was checked")

    monkeypatch.setattr(cli, "enumerate_specs", no_work)
    code, out, _ = run(capsys, "enumerate", "--period", "15", "--census", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error_kind"] == "ValueError"
    assert doc["message"] == "census is desk-scale: 3 <= period <= 14"


def test_tune(capsys):
    code, out, _ = run(capsys, "tune", "0.(011)", "1/2", "--check")
    assert code == 0
    fields = as_dict(out)
    assert fields["tuned"] == "0.(011010)"

    code, out, _ = run(capsys, "tune", "1/3", "1/2")
    assert code == 0
    assert as_dict(out)["tuned"] == "0.(0110)"


def test_angle_argument_forms(capsys):
    code_a, out_a, _ = run(capsys, "kneading-of-angle", "0.(0111)")
    code_b, out_b, _ = run(capsys, "kneading-of-angle", "7/15")
    assert code_a == code_b == 0
    assert as_dict(out_a)["kneading"] == as_dict(out_b)["kneading"]


def test_domain_error_exit_code(capsys):
    code, out, err = run(
        capsys, "broken", "2/5", "1/2", "--hinge", "3", "--convention", "01"
    )
    assert code == 1
    assert "HypothesisViolated" in err

    code, out, _ = run(
        capsys,
        "broken", "2/5", "1/2", "--hinge", "3", "--convention", "01", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["error_kind"] == "HypothesisViolated"


def test_unreduced_fraction_rejected(capsys):
    code, _, err = run(
        capsys, "broken", "1/2", "6/8", "--hinge", "1", "--convention", "01"
    )
    assert code == 1
    assert "not reduced" in err

    code, _, err = run(capsys, "line", "2/4", "--convention", "01")
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["line", "nonsense", "--convention", "01"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["line", "2/5", "--convention", "02"])
    assert info.value.code == 2


def test_output_round_trips(capsys):
    # every printed fraction parses back, every expansion parses back
    from fractions import Fraction

    from brokenline import PeriodicAngle

    _, out, _ = run(
        capsys,
        "broken", "2/5", "7/17", "--hinge", "2", "--convention", "01", "--all",
    )
    fields = as_dict(out)
    assert Fraction(fields["angle"]) == Fraction(38057, 131071)
    assert PeriodicAngle.parse(fields["expansion"]).value == Fraction(
        38057, 131071
    )
    assert PeriodicAngle.parse(fields["conjugate-expansion"]).value == Fraction(
        fields["conjugate"]
    )


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import brokenline

    # the child imports the package under test, installed or not
    root = str(Path(brokenline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "brokenline", "bulb", "1/3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0
    assert "theta-01: 1/7" in done.stdout


def test_check_smoke_over_enumeration(capsys):
    # the full oracle re-run stays green across whole enumerations
    for b in range(3, 21):
        code, out, _ = run(
            capsys, "enumerate", "--period", str(b), "--check"
        )
        assert code == 0
        assert "check: ok" in out
