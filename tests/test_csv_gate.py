import importlib.util
import os
from unittest import mock

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "csv_gate.py")
_spec = importlib.util.spec_from_file_location("csv_gate", SCRIPT)
csv_gate = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):  # the script pins BLAS threads for its own process only
    _spec.loader.exec_module(csv_gate)

GOT = {"logreg-sgd": "aa", "mlp-lqa": "bb"}


@pytest.mark.parametrize(
    "expected, status, mismatched, matched",
    [
        ({"logreg-sgd": "aa", "mlp-lqa": "bb"}, 0, [], "matched 2/2"),
        ({"logreg-sgd": "aa", "mlp-lqa": "cc"}, 1, ["mlp-lqa"], "matched 1/2"),
        ({"logreg-sgd": "aa", "mlp-lqa": "bb", "lenet5-lqa": "dd"}, 1, ["lenet5-lqa"], "matched 2/3"),
        ({"logreg-sgd": "aa"}, 1, ["mlp-lqa"], "matched 1/2"),
    ],
    ids=["match", "mismatch", "missing-name", "extra-name"],
)
def test_check_names_each_mismatch_and_counts_the_matches(tmp_path, monkeypatch, capsys,
                                                          expected, status, mismatched, matched):
    monkeypatch.setattr(csv_gate, "write_inputs", lambda base: None)
    monkeypatch.setattr(csv_gate, "gate_hashes", lambda base: dict(GOT))
    sums = tmp_path / "expected.sha256"
    sums.write_text("".join(f"{name} {digest}\n" for name, digest in expected.items()))
    assert csv_gate.main(["--check", str(sums)]) == status
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[:-1] == [f"{name} {digest}" for name, digest in GOT.items()]
    assert lines[-1] == matched
    assert [line.split()[1].rstrip(":") for line in err.splitlines()] == mismatched
