"""Every suite's outputs on every shipped document, pinned by digest.

Each digest is the sha256 of one run of ``mbpm --suite <suite> --spec
<document> --n 30 --reps 200 --seed 11 --workers 1``: its exit status, the
refusal it prints on stderr (exit 2), and every file it writes, report.json
read without the fields that name the run rather than its results
(``timestamp``, ``spec_path``, ``workers``).  The digests were recorded on
the code before the size s = u.z moved into ``ModelSpec.size``; a change
that keeps every output unchanged keeps them.  Eight were recorded again
since: the five classify runs with a probe ray, when exact growth
exponents replaced the slope fits, and the three limit suites on
small_support, when they began to refuse its supercritical mean matrix.
They pin float64 results bit for bit, as ``test_kernel_stream_is_pinned``
pins the draws, so a change that moves one last bit of one number shows
here.
"""
import hashlib
import json

import pytest

from conftest import spec_path
from mbpm.cli import SUITES, main

DOCUMENTS = ["gamma_single_type", "sqrt_drift_single_type", "two_type_mixed",
             "pure_emigration", "small_support", "pure_death"]

# (suite, document) -> sha256, in the order SUITES x DOCUMENTS
DIGESTS = {
    ("moments", "gamma_single_type"):
        "e45e69e69aef02201695abdb8e86ea3f217ae8e1aea665c466608e067d3c20f2",
    ("moments", "sqrt_drift_single_type"):
        "d528af918f401a9ce7423f7ece74ade0e43bf86db1a4646344f5ddcb37b6eadd",
    ("moments", "two_type_mixed"):
        "60c4c523bf251acfb6a86870405b24795c281cf07d59f8da18006170171fda14",
    ("moments", "pure_emigration"):
        "fc0f675c3c697d5c2572d65f0058034648f10ccc6d52b1ecc26815427c6844cd",
    ("moments", "small_support"):
        "c34aeabab18d6753d213aad955c95f766e5cb85a74d3ce24bdda086fdc2a3934",
    ("moments", "pure_death"):
        "43b10b753dd68e1e8b2fac4cb3747c12c8e7a059056296c353ccf605ff0cd66b",
    ("classify", "gamma_single_type"):
        "8949a26aa3eafe349a73fa62a37de88c1a83228e781218dfcecbd8f50e2c2aa8",
    ("classify", "sqrt_drift_single_type"):
        "55666c93b15d392a6e9caadce89fbf0e09765467a4812cae1d0680703f31e0a5",
    ("classify", "two_type_mixed"):
        "82896afa26580b5b9dde8566f3f1cd5cfc85016927aadb96010e82a526261b93",
    ("classify", "pure_emigration"):
        "c8b0ab99ba5108c970a6938094374e0f58ec9564cef3ec2563d6031a2e6acb18",
    ("classify", "small_support"):
        "9dbf38f8e9e9246392f35969da82f844c80f022c990a1504e414d4c14e9f06d6",
    ("classify", "pure_death"):
        "ae665e51aba41a1c7f5e7eecbcc885af09126cfff40e240045394c456a8cc890",
    ("gamma-limit", "gamma_single_type"):
        "711a53e37c6079c405dec96adc6f6e0273e5bb4154f5a1ac26c638b5ef7d2833",
    ("gamma-limit", "sqrt_drift_single_type"):
        "eb822339a550d86ef1f1bb596b3f9d1469fa1a281bda8120dc958531f63b4588",
    ("gamma-limit", "two_type_mixed"):
        "4383c95181fd93e9a59b9f7eead5b28344dd0a3ba12990da0785740d999e7d1c",
    ("gamma-limit", "pure_emigration"):
        "4383c95181fd93e9a59b9f7eead5b28344dd0a3ba12990da0785740d999e7d1c",
    ("gamma-limit", "small_support"):
        "fec947d87e1e1b433f66492cd100209798a883aea7692607727f15290230b4dc",
    ("gamma-limit", "pure_death"):
        "ec5001b5cec797b9f6864b0941e82bae17dd30c5cf45006f2e63a4da678f7989",
    ("normal-limit", "gamma_single_type"):
        "5a91943df55170609d2db7e40a85c69d0abc95ca2b6ed1a4850f8dc6026d05da",
    ("normal-limit", "sqrt_drift_single_type"):
        "754f8bc524d0fb175f11f8608cf5a8fad5ef1b20ea7ced0e696ef126dac44bab",
    ("normal-limit", "two_type_mixed"):
        "dd612a3c2ad6cfb6ca5b7e985e903a8feb5029cc15ece88b69d1a7b5bcbab138",
    ("normal-limit", "pure_emigration"):
        "dd612a3c2ad6cfb6ca5b7e985e903a8feb5029cc15ece88b69d1a7b5bcbab138",
    ("normal-limit", "small_support"):
        "f720cc0bd36af4b3ee6108c317b1e76651e72c3eba2f19789e310a8ee6a0c738",
    ("normal-limit", "pure_death"):
        "7da88550b94d80991a52f2c41908c9614949570bcd44eea5dda1711fdbcbdc66",
    ("l1-limit", "gamma_single_type"):
        "e8ccdf2620b9991b514bd2417f4d9f050cf227c588af41f6088347f7fab4c047",
    ("l1-limit", "sqrt_drift_single_type"):
        "e777abe24c63fea3724a9c1667fafcccde778be35817bb79bee237a1552f75eb",
    ("l1-limit", "two_type_mixed"):
        "996eb4adee6e6cb672741a6a2bd7866cfc23e83ee3d3bc169f5da535f37720c7",
    ("l1-limit", "pure_emigration"):
        "996eb4adee6e6cb672741a6a2bd7866cfc23e83ee3d3bc169f5da535f37720c7",
    ("l1-limit", "small_support"):
        "600fd48c570de5f0ed7baa9884174e55dad900f993fe4d737d78e941d6b4108e",
    ("l1-limit", "pure_death"):
        "172fa5539c874c378077af5de18430dd9f04b0708509e887526269aefb1049c5",
    ("feller", "gamma_single_type"):
        "db13e778400496aac5035d0e86270b739f3267bde405df7660768e047bde7b5c",
    ("feller", "sqrt_drift_single_type"):
        "b055731eedb8b759f449103687c30bfd7c6712d3ae44e78d874d1a419aad6070",
    ("feller", "two_type_mixed"):
        "b055731eedb8b759f449103687c30bfd7c6712d3ae44e78d874d1a419aad6070",
    ("feller", "pure_emigration"):
        "b055731eedb8b759f449103687c30bfd7c6712d3ae44e78d874d1a419aad6070",
    ("feller", "small_support"):
        "20106610bc8c6404c55fdbf5ebbcff7f45822dc0967d742721f74ac29f4e3e28",
    ("feller", "pure_death"):
        "6df9dc27ffc034a2f8b992ab3aa7074e0c407a5fb84d40f378a18bb9785ae95e",
    ("explosion", "gamma_single_type"):
        "a64ce57e980388c5030c66d7bc911df72dc5d3a742bb308f49b73dc858ce2faf",
    ("explosion", "sqrt_drift_single_type"):
        "7ef41007ee1604e1459d811d83ec98f9a8f0bcfb2a3520b4bab38e030e0f17be",
    ("explosion", "two_type_mixed"):
        "bd64cd5675abbd8109fa763f997569d85e9a22c6932f3d25ee20d4385768648d",
    ("explosion", "pure_emigration"):
        "bc4dd1ea578146bbf8961c041b4dde235df11aa7152834abb0adfd67cdd39c5c",
    ("explosion", "small_support"):
        "fb2f24a3f9868f3e8fc3fb03488762d9d3e3ae15592ac009f7a001474f81052b",
    ("explosion", "pure_death"):
        "f0416bf6a4e5a427f5179993794b1a60bd59719ff8b9efe884981f366ede584f",
}


def suite_digest(suite, document, out, capsys):
    """The sha256 of one small run's exit status, refusal and files."""
    capsys.readouterr()
    code = main(["--spec", spec_path(document), "--suite", suite, "--n", "30", "--reps", "200",
                 "--seed", "11", "--workers", "1", "--out", str(out)])
    refusal = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    digest = hashlib.sha256(json.dumps([code, refusal]).encode())
    for path in sorted(out.iterdir()) if out.exists() else ():
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            for key in ("timestamp", "spec_path", "workers"):
                del report[key]
            data = json.dumps(report, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("document", DOCUMENTS)
@pytest.mark.parametrize("suite", SUITES)
def test_suite_outputs_are_unchanged(tmp_path, capsys, suite, document):
    assert suite_digest(suite, document, tmp_path / "out", capsys) == DIGESTS[suite, document]
