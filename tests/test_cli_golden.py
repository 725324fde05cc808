"""Golden pins for ``repro run specs/two_tier``.

Recorded literals: the sha256 of the run's stdout (with wall-clock and
events/s lines stripped, since they read the host clock), its summary
table verbatim, and the sha256 of every file ``--trace-dir`` exports.
A refactor of the CLI's run path must keep every one of them, so a
moved digest means the refactor changed what ``repro run`` simulates,
prints or writes.
"""

import hashlib
import itertools
import shutil
from pathlib import Path

from repro.__main__ import main
from repro.service import Request

SPEC = Path(__file__).resolve().parents[1] / "specs" / "two_tier"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv, tmp_path, monkeypatch, capsys):
    """Run ``repro run specs/two_tier *argv`` from a scratch directory
    (so printed paths are the same relative ones every time); return
    the exit code and the stdout with host-clock lines stripped."""
    # Request ids (and so exported trace ids) count up per process.
    monkeypatch.setattr(Request, "_id_counter", itertools.count())
    shutil.copytree(SPEC, tmp_path / "specs" / "two_tier")
    monkeypatch.chdir(tmp_path)
    code = main(["run", "specs/two_tier", *argv])
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines()
             if "wall" not in line and "events/s" not in line]
    return code, "\n".join(lines) + "\n"


HORIZON_TABLE = """\
uqSim run of specs/two_tier
            metric                value
------------------  -------------------
     requests sent                 8981
       requests ok                 8971
simulated time (s)                  0.3
  events processed               134217
 mean latency (ms)                0.255
          p50 (ms)                0.247
          p95 (ms)                0.368
          p99 (ms)                 0.44
   timeline series                   21
    traces sampled                 8981
         trace dir                  out
 timeline artifact  out/timeseries.json
"""

HORIZON_STDOUT = (
    "41d22514d0f4e24cd2724292d90b66c46adaf3003eb2ed5edd834fc63588d54a"
)

HORIZON_FILES = {
    "timeseries.json":
        "64d95841f63f63482c48d55f9159c4a359549817584c89b412d00d7d48ce75a5",
    "trace.otlp.json":
        "d0b6a2ed9137e721a46918043d46c6325198f5cbf04494e18ed34b8e4c4b4b04",
    "trace.perfetto.json":
        "838f230dbe8844f4d8916ecbea7893837906af214ba1fa018191db2ef46b84f4",
}


def test_horizon_run_with_slo_scrape_and_exports(tmp_path, monkeypatch,
                                                 capsys):
    code, out = run_cli([
        "--until", "0.3", "--slo", "p99<1s", "--slo", "avail>99%",
        "--scrape-interval", "0.05", "--trace-dir", "out",
    ], tmp_path, monkeypatch, capsys)
    assert code == 0
    assert out.startswith(HORIZON_TABLE)
    assert sha256(out.encode()) == HORIZON_STDOUT
    assert {
        path.name: sha256(path.read_bytes())
        for path in (tmp_path / "out").iterdir()
    } == HORIZON_FILES


DRAIN_TABLE = """\
uqSim run of specs/two_tier
            metric   value
------------------  ------
     requests sent   15189
       requests ok   15189
simulated time (s)    0.51
  events processed  227089
 mean latency (ms)   0.255
          p50 (ms)   0.247
          p95 (ms)   0.368
          p99 (ms)   0.438
    traces sampled   15189
"""

DRAIN_STDOUT = (
    "bfabaa53773259afc653b12c8eba98beb4ccc0bfcfad6116b51908a776c01ea0"
)


def test_drain_run_with_slo_and_trace(tmp_path, monkeypatch, capsys):
    code, out = run_cli(["--slo", "p99<2ms", "--trace"],
                        tmp_path, monkeypatch, capsys)
    assert code == 0
    assert out.startswith(DRAIN_TABLE)
    assert sha256(out.encode()) == DRAIN_STDOUT
