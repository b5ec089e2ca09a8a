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
Every run that draws was recorded again when ``stream_for`` moved from
Philox to SFC64, in the same change that made moment_check's statistics
exact integer sums; two_type_coupled's seven were first recorded then.
They pin float64 results bit for bit, as ``test_kernel_stream_is_pinned``
pins the draws, so a change that moves one last bit of one number shows
here.

Two more runs, gamma-limit and normal-limit at the size of the
replicates-wide benchmark workload (``--n 8 --reps 10000``), pin
``cdf_pairs.tsv`` at about 10^4 rows of heavy ties and ranks i/R; they
were recorded before the table writer formed the ranks from integers,
and again on the SFC64 streams.
"""
import hashlib
import json

import pytest

from conftest import spec_path
from mbpm.cli import SUITES, main

DOCUMENTS = ["gamma_single_type", "sqrt_drift_single_type", "two_type_mixed",
             "pure_emigration", "small_support", "pure_death", "two_type_coupled"]

# (suite, document) -> sha256, in the order SUITES x DOCUMENTS
DIGESTS = {
    ("moments", "gamma_single_type"):
        "2850d59dc12416622162ceece56ba97ebfad966c1d27fb8fc0a762ea9a93357f",
    ("moments", "sqrt_drift_single_type"):
        "1d7a986af92bd75c39331706dc9d0c29024922bfb14dc32ddcebb91a2a4bfacb",
    ("moments", "two_type_mixed"):
        "6be635beaa69ee362bf3e1dcb83774ebfbbc567c8ada44df6fa2a14edc298f8c",
    ("moments", "pure_emigration"):
        "1b2a2c8d74fca1e0952709190a1c7590d2a084c5ff138e105ad0e0fd287657a0",
    ("moments", "small_support"):
        "bb905264cb0389565260ed9df203ad6e849fc16ff520718cdd75b5be3178b2a9",
    ("moments", "pure_death"):
        "43b10b753dd68e1e8b2fac4cb3747c12c8e7a059056296c353ccf605ff0cd66b",
    ("moments", "two_type_coupled"):
        "3aabe263c484879880c94b7a72b4d142593d8fcd1e79ba2ec8244a134885d21f",
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
    ("classify", "two_type_coupled"):
        "71b11d4dad4a352bc519becbe56674324589281850516c2f6f42af0cdbcdb93c",
    ("gamma-limit", "gamma_single_type"):
        "220d9d78071ab489a0ce7769d08fba6c163091eeb82ab6b270d48ba3c53de143",
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
    ("gamma-limit", "two_type_coupled"):
        "b4f9efbeac8bb885f13fe935073d3aa2a567ed5bed0e0fb71bb31b67f8a6b622",
    ("normal-limit", "gamma_single_type"):
        "5aa520dc2007c38dedba942e30142ce9b1c6f4870ca3ec0a6315fd31b4401fee",
    ("normal-limit", "sqrt_drift_single_type"):
        "070aa920e1b1470d956c19de4507bf76e546763e1f0b816c1cd659688b083065",
    ("normal-limit", "two_type_mixed"):
        "dd612a3c2ad6cfb6ca5b7e985e903a8feb5029cc15ece88b69d1a7b5bcbab138",
    ("normal-limit", "pure_emigration"):
        "dd612a3c2ad6cfb6ca5b7e985e903a8feb5029cc15ece88b69d1a7b5bcbab138",
    ("normal-limit", "small_support"):
        "f720cc0bd36af4b3ee6108c317b1e76651e72c3eba2f19789e310a8ee6a0c738",
    ("normal-limit", "pure_death"):
        "7da88550b94d80991a52f2c41908c9614949570bcd44eea5dda1711fdbcbdc66",
    ("normal-limit", "two_type_coupled"):
        "8748333352627a962c874e582477d87a55c15ad60f62aa92c6ce45a809e58f17",
    ("l1-limit", "gamma_single_type"):
        "102c9cb62b60c5245164924789ac412261ee2c85d70f06e7b51d126bb478c845",
    ("l1-limit", "sqrt_drift_single_type"):
        "f578dd3f788627eec2ff69a3462419719f083d358ce3e9b05cb4f6dab280e428",
    ("l1-limit", "two_type_mixed"):
        "996eb4adee6e6cb672741a6a2bd7866cfc23e83ee3d3bc169f5da535f37720c7",
    ("l1-limit", "pure_emigration"):
        "996eb4adee6e6cb672741a6a2bd7866cfc23e83ee3d3bc169f5da535f37720c7",
    ("l1-limit", "small_support"):
        "600fd48c570de5f0ed7baa9884174e55dad900f993fe4d737d78e941d6b4108e",
    ("l1-limit", "pure_death"):
        "172fa5539c874c378077af5de18430dd9f04b0708509e887526269aefb1049c5",
    ("l1-limit", "two_type_coupled"):
        "06dbf6375cfb95305d3700a71999ad441f4af018967e7afaaf6fb1a8f61c018f",
    ("feller", "gamma_single_type"):
        "93960c8fd7a78df724814503832cda89d8ac8ddf9950afea2a5ec1ac8d4e6a71",
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
    ("feller", "two_type_coupled"):
        "5ccaca06d53f8da44a2fd2de8cd08edb75de100873833623197b780543898a36",
    ("explosion", "gamma_single_type"):
        "e379e2dfbabd249a524c5b840ecefa22e50055dcf68aa644f09d9de04e131b95",
    ("explosion", "sqrt_drift_single_type"):
        "9eb7f71ec3b85c2febefacc9a6250b4841625f2f149be830e6c5eedfcbfc8371",
    ("explosion", "two_type_mixed"):
        "5c4bc5838be284ba71b3d112fdb245b562b826c048afab6542ad4445c3253ab5",
    ("explosion", "pure_emigration"):
        "bc4dd1ea578146bbf8961c041b4dde235df11aa7152834abb0adfd67cdd39c5c",
    ("explosion", "small_support"):
        "6cf9005abb80c02b09ae35860b7ef56dfdc479eadb3b23b3eca62fdde23e2422",
    ("explosion", "pure_death"):
        "f0416bf6a4e5a427f5179993794b1a60bd59719ff8b9efe884981f366ede584f",
    ("explosion", "two_type_coupled"):
        "c41714716acce0881d9e6e0d7e89c3560b6a895fef78ec1836ac53d894cb6c9a",
}


# (suite, document) -> sha256 at --n 8 --reps 10000
WIDE_DIGESTS = {
    ("gamma-limit", "gamma_single_type"):
        "f8fa99d12d95e6263b40f6c84d8d17e3d2a66a0073e54ed331751817da436bf8",
    ("normal-limit", "sqrt_drift_single_type"):
        "498371dfd47fc67842020fe5546cc0d910706ef87f5a7ad3eca8c19e974491c9",
}


def suite_digest(suite, document, out, capsys, n=30, reps=200):
    """The sha256 of one run's exit status, refusal and files."""
    capsys.readouterr()
    code = main(["--spec", spec_path(document), "--suite", suite, "--n", str(n), "--reps",
                 str(reps), "--seed", "11", "--workers", "1", "--out", str(out)])
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


@pytest.mark.parametrize("suite, document", WIDE_DIGESTS)
def test_wide_suite_outputs_are_unchanged(tmp_path, capsys, suite, document):
    digest = suite_digest(suite, document, tmp_path / "out", capsys, n=8, reps=10_000)
    assert digest == WIDE_DIGESTS[suite, document]
