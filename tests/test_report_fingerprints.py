"""Every CLI report keeps its exact content: a sha256 per report, pinned.

Each fingerprint is the sha256 of the report's canonical JSON (sorted
keys, no whitespace) with elapsed_seconds removed and config.scenario
reduced to its file name, so the checkout's location does not enter it.
A refactor that must keep the reports byte-identical keeps every hash; a
deliberate format change updates each hash it moves to its new exact value.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from pubsub_refine.cli import main
from pubsub_refine.faults import FAULTS

FIGURE1 = resources.files("pubsub_refine") / "scenarios" / "figure1.json"

FUZZ = ["fuzz", "--traces", "40", "--steps", "12", "--max-peers", "6",
        "--max-topics", "3", "--max-messages", "4", "--seed", "7070"]
STATIC = ["fuzz", "--static", "--traces", "40", "--steps", "12", "--seed", "7"]

REPORTS = {  # name -> (arguments, exit code, fingerprint)
    "fuzz": (FUZZ, 0, "23f8c871659174051782af756c3f0ba1cac4e47edecd1f7792c0b080838c9a3f"),
    "fuzz-static": (STATIC, 0, "38cfb873a64aac0163f9f351aea5c692939f675e62ebeca4b1c78364327e874e"),
    "run-figure1": (["run", str(FIGURE1)], 0,
                    "84bb22c03f0be6b6e94e11bfa9d13e20068f1d5a74d2c6a82a9e661b2d66d1fc"),
}
MUTATIONS = {  # fault -> fingerprint; every planted fault exits 1, "none" exits 0
    "drop-receiver": "863bf3183e21a328e73e829c29ca313339d266db253a7fd8424c208c15ffac0b",
    "skip-good-check": "7189285f4dedb996c2b73b1893e4d22ac0d94ed6e16a64f5910ee42fcb94f958",
    "forward-to-self": "653b974a3727a5352544c2dfaddd2fac3cc9deee876a8c88379da112b13195ab",
    "leave-with-pending": "8dc3ca77d3be7be604f8b781952a2acaf431e6c51108bad228faf26914e5991e",
    "duplicate-seen": "eb65da77606610fba453e883f126779d6795aff2b34d9209e5a286c992887469",
    "unsorted-seen": "6adca1be1c325d27535ee01e4b5fe40a74c24591d820bc4f347c3e3b7ccd539a",
    "none": "c3270610bace9d9fc9b7af226647e9b39b1e679ca39c9872f407837c454f0e20",
}
for fault, digest in MUTATIONS.items():
    REPORTS[f"mutate-{fault}"] = (["mutate", "--fault", fault], int(fault != "none"), digest)

ENUMERATIONS = {
    (1, 1, 1): "50a663ed111669ec9074821b79ecc3c41bb762f40d184e7c95ee8d268193f899",
    (1, 1, 2): "8547aed2cb63527a17854b5eb0c9f546c266bb32973863c73ce1d096c9b6165c",
}


def _fingerprint(obj) -> str:
    obj.pop("elapsed_seconds")
    config = obj.get("config", {})
    if "scenario" in config:
        config["scenario"] = Path(config["scenario"]).name
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("name", REPORTS)
def test_report_fingerprint(name, tmp_path):
    args, code, expected = REPORTS[name]
    path = tmp_path / "report.json"
    assert main(args + ["--report", str(path)]) == code
    assert _fingerprint(json.loads(path.read_text())) == expected


@pytest.mark.parametrize("bounds", ENUMERATIONS)
def test_enumerate_report_fingerprint(bounds, capsys):
    peers, topics, messages = map(str, bounds)
    assert main(["enumerate", "--peers", peers, "--topics", topics, "--messages", messages]) == 0
    assert _fingerprint(json.loads(capsys.readouterr().out)) == ENUMERATIONS[bounds]


def test_every_fault_is_fingerprinted():
    assert set(MUTATIONS) == set(FAULTS)
