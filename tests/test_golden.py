"""The files of ``effbath figure fig2..fig8`` against the fingerprints in ``golden/figures.json``.

For each file the manifest holds its sha256 and, for a CSV, its header,
row count, a sample of rows at fixed indices and each column's max|.|;
for a summary, every entry as written.  The test regenerates the seven
bundles in process and compares them within a tolerance per value, a
fraction of the column's max|.| (of the value itself, for a summary
entry):

- ``MARCH_DRIFT`` for what the NIBA march computes: the ``P_niba*``
  traces, the ``spectrum_niba*`` magnitudes and the peak keys taken from
  them.  Measured: solving the march in leaves of 128 steps instead of
  256 moves P_niba by at most 1.2e-14 (fig5; |P| <= 1), a NIBA spectrum
  by 3.8e-15 of its maximum (fig6) and a peak key by 2.9e-15 of itself.
- ``SPECTRUM_DRIFT`` for everything else (grids, the weak-damping traces
  and spectra, the spectral densities, the closed-form summary values):
  the chirp-z magnitudes agree with ``np.fft.rfft``'s within 1.2e-15 of
  the maximum at ten lengths (5.1e-16 on the figure spectra), the
  loosest rounding measured outside the march.

Text entries, header names and row counts must match exactly.  The
sha256s are printed, not asserted (``pytest -s`` shows them): a value may
move within its tolerance and change the bytes.

A change that moves numbers by design rewrites the manifest with

    python tests/test_golden.py

and states the drift this test printed against the old one.
"""

import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

MANIFEST = Path(__file__).with_name("golden") / "figures.json"
TAGS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
MARCH_DRIFT = 1.2e-14
SPECTRUM_DRIFT = 1.2e-15
_SAMPLED_ROWS = 32
# summary keys read off a NIBA spectrum: a run's own, or either twin's
_MARCH_KEY = re.compile(r"(niba|nonlinear|linear)_peak\d_\w+")


def _fingerprint(path: Path) -> dict:
    data = path.read_bytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    text = data.decode("utf-8")
    if path.suffix == ".txt":
        entry["entries"] = dict(line.split("=", 1) for line in text.splitlines())
        return entry
    header, _, body = text.partition("\n")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    rows = np.unique(np.linspace(0, table.shape[0] - 1, _SAMPLED_ROWS).round().astype(int))
    entry.update(header=header.split(","), rows=table.shape[0], sampled_rows=rows.tolist(),
                 samples=table[rows].tolist(), max_abs=np.abs(table).max(axis=0).tolist())
    return entry


def _bundle(tag: str, out: Path) -> dict:
    from effbath.cli import main

    assert main(["figure", tag, "--out", str(out)]) == 0
    return {path.name: _fingerprint(path) for path in sorted(out.iterdir())}


def _tolerance(name: str, column: str) -> float:
    from_march = name.startswith(("P_niba", "spectrum_niba")) and column not in ("t", "omega")
    return MARCH_DRIFT if from_march or _MARCH_KEY.fullmatch(column) else SPECTRUM_DRIFT


def _drifts(name: str, new: dict, ref: dict):
    """(column or key, drift as a fraction of its scale, tolerance) for every compared value."""
    if "entries" in ref:
        assert list(new["entries"]) == list(ref["entries"]), name
        for key, text in ref["entries"].items():
            try:
                expected = float(text)
            except ValueError:
                assert new["entries"][key] == text, (name, key)
                continue
            error = abs(float(new["entries"][key]) - expected)
            yield key, error / abs(expected) if expected else error, _tolerance(name, key)
        return
    for field in ("header", "rows", "sampled_rows"):
        assert new[field] == ref[field], (name, field)
    samples, ref_samples = np.array(new["samples"]), np.array(ref["samples"])
    for i, column in enumerate(ref["header"]):
        scale = ref["max_abs"][i]
        error = max(np.abs(samples[:, i] - ref_samples[:, i]).max(), abs(new["max_abs"][i] - scale))
        yield column, error / scale if scale else error, _tolerance(name, column)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("tag", TAGS)
def test_figure_files_match_their_fingerprints(tmp_path, manifest, tag):
    files = _bundle(tag, tmp_path)
    assert list(files) == list(manifest[tag])
    failed = []
    for name, ref in manifest[tag].items():
        drifts = list(_drifts(name, files[name], ref))
        worst = max(drift for _, drift, _ in drifts)
        same = "matches" if files[name]["sha256"] == ref["sha256"] else "differs"
        print(f"{tag}/{name}: sha256 {same}, largest drift {worst:.3g} of scale")
        failed += [f"{name}:{column} {drift:.3g} > {tol:.3g}" for column, drift, tol in drifts if drift > tol]
    assert not failed, failed


def write_manifest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {tag: _bundle(tag, Path(tmp) / tag) for tag in TAGS}
    # one line per list of numbers or names, one per sampled row
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(manifest, indent=1))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write_manifest()
