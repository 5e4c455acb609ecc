"""Golden CLI outputs: the CSV contract held byte for byte as a test.

Every line of each run, manifest, header and numbers alike, must match
its recorded file as text, so no cell can move unseen however small it
is.  Only the ``# config:`` and ``# output:`` manifest lines are left
out: they carry the paths of the recording run.

Regenerate after an intended output change with
``PYTHONPATH=src python3 tests/test_golden.py`` and list the changed
lines with the change.
"""

import pathlib

import pytest

from magnomech import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")
CONFIGS = pathlib.Path(__file__).parents[1] / "configs"

# configs written at run time, for runs no shipped config covers
EXTRA_CONFIGS = {
    "thermal.txt": "phonon_thermal_occupation = 0.2\n"
                   "truncation = 24\n"
                   "initial_states = fock:1,superposition,fock:2\n",
    "lossy_10km.txt": "fiber_length_km = 10.0\n"
                      "include_loss_in_entanglement = true\n",
}

# golden name -> (command, config: shipped name, extra name, or None)
RUNS = {
    "transfer_1km": ("transfer", "transfer_1km.txt"),
    "transfer_10km": ("transfer", "transfer_10km.txt"),
    "transfer_thermal": ("transfer", "thermal.txt"),
    "entangle_default": ("entangle", "entangle_default.txt"),
    "entangle_lossy_10km": ("entangle", "lossy_10km.txt"),
    "fig5": ("fig5", None),
    "qle_antistokes": ("qle", "qle_antistokes.txt"),
    "qle_stokes": ("qle", "qle_stokes.txt"),
}


# manifest lines that hold paths of the run, not its content
PATH_LINES = ("# config:", "# output:")


def run_body(name, workdir):
    """The lines of one CLI run but its path lines, written under ``workdir``."""
    command, config = RUNS[name]
    argv = [command]
    if config in EXTRA_CONFIGS:
        path = workdir / config
        path.write_text(EXTRA_CONFIGS[config], encoding="utf-8")
        argv.append(str(path))
    elif config is not None:
        argv.append(str(CONFIGS / config))
    out = workdir / f"{name}.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return [ln for ln in out.read_text(encoding="utf-8").splitlines()
            if not ln.startswith(PATH_LINES)]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    got = run_body(name, tmp_path)
    assert len(got) == len(expected), "line count changed"
    for row, (line, ref) in enumerate(zip(got, expected)):
        assert line == ref, f"line {row}: {line} vs golden {ref}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for golden_name in sorted(RUNS):
            body = run_body(golden_name, pathlib.Path(tmp))
            (GOLDEN / f"{golden_name}.csv").write_text("\n".join(body) + "\n",
                                                      encoding="utf-8")
