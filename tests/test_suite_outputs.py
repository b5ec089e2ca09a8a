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

Six were recorded again when the Perron data and the sums weighted by it
came to be formed by correctly rounded products rather than BLAS ones:
classify on small_support, and classify, gamma-limit, normal-limit,
l1-limit and feller on two_type_coupled, whose v is now (8/7, 6/7) to the
last bit.  Every run
that writes a report was recorded again when the no-migration
probability left the document schema, as the report carries the spec
digest; nothing else in those outputs moved.  Classify on two_type_mixed
and pure_emigration was recorded again when the growth exponents came
to report alpha, u.c and the ratio's limit theta where u.h is not
eventually positive (they were null there).
``test_suite_outputs_do_not_depend_on_the_blas_kernel`` runs every case
again under two other OpenBLAS kernels and under numpy's baseline SIMD
kernels.

Two more runs, gamma-limit and normal-limit at the size of the
replicates-wide benchmark workload (``--n 8 --reps 10000``), pin
``cdf_pairs.tsv`` at about 10^4 rows of heavy ties and ranks i/R; they
were recorded before the table writer formed the ranks from integers,
and again on the SFC64 streams.
"""
import hashlib
import json
import os

import pytest

from conftest import NUMPY_BASELINE, run_fresh, spec_path
from mbpm.cli import SUITES, main

DOCUMENTS = ["gamma_single_type", "sqrt_drift_single_type", "two_type_mixed",
             "pure_emigration", "small_support", "pure_death", "two_type_coupled"]

# (suite, document) -> sha256, in the order SUITES x DOCUMENTS
DIGESTS = {
    ("moments", "gamma_single_type"):
        "a2dadf2269880e8355f8d33b215d9994fd1b2c1854d193af7c77b63da6fb4724",
    ("moments", "sqrt_drift_single_type"):
        "365a0d7aef3a9ba96c4a1f6e080ebc4f883545dddff6c2854242ebf4404b86b7",
    ("moments", "two_type_mixed"):
        "0ebf1a5ef35d4f6328503c58ebce3ada9f77d657feead95dcbbd376dcb8e9bf4",
    ("moments", "pure_emigration"):
        "e2105dc835c8d577dae126a2833bd40168a3755665eb09a31c5cfd3f5dde934c",
    ("moments", "small_support"):
        "d13ac14958aa0f0f7bb00350e48b8c2b4d3aa7ba807660aa706e77500048b9a3",
    ("moments", "pure_death"):
        "68c11c2459acc06be495e42bc31ca192bd60c182db34db5bc6ff08840ec2009c",
    ("moments", "two_type_coupled"):
        "7500d5b6d2fda70ea4d5d6e587178a5aa80579b582f82cf2cf08d7750b6a7a5d",
    ("classify", "gamma_single_type"):
        "dd0319bb93cacee75b201aa5f3c4acaeebc6f42fb208346ecc4b3f9616df3cb4",
    ("classify", "sqrt_drift_single_type"):
        "016da3840d7d481c8c9220974837dc5cf6de42fcbe6d1a47d4c205a587894c1d",
    ("classify", "two_type_mixed"):
        "3520c278ba8679a5796f6eeecb4b20467449d55727353ef39c5bba35cf6e31fe",
    ("classify", "pure_emigration"):
        "ef9a58a0340943034276ff1d0cc6b49d7d39d50d51b0c43e74ad0beea7f75599",
    ("classify", "small_support"):
        "50dff1e3024ed850835a635289e6190ba4229578a405e98dc4f88584a2c39365",
    ("classify", "pure_death"):
        "e166b1a158ad1984dad72801f429d806deb4b83517aa1ca9807815a288242916",
    ("classify", "two_type_coupled"):
        "8f294296ffd7d9830a74d4f4fabc8095fe65b6d762c97c545dd48db0fd35dc04",
    ("gamma-limit", "gamma_single_type"):
        "9e328e43b339847f643562423033d86d54c7ff2c071c4b368c755703da9fed86",
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
        "3a6d322ef6d02639d73eb6ef763b38b7cbc394a03aa8f907173debda9b7e7609",
    ("normal-limit", "gamma_single_type"):
        "72639ae4a4b6202edca61ce662c8ecd46abdf23a47fae4b6606f2eacc7df0572",
    ("normal-limit", "sqrt_drift_single_type"):
        "77c7748585d30902af042efc9faae2d8574ef8879fa3e0f06a3e794ef4bb8903",
    ("normal-limit", "two_type_mixed"):
        "dd612a3c2ad6cfb6ca5b7e985e903a8feb5029cc15ece88b69d1a7b5bcbab138",
    ("normal-limit", "pure_emigration"):
        "dd612a3c2ad6cfb6ca5b7e985e903a8feb5029cc15ece88b69d1a7b5bcbab138",
    ("normal-limit", "small_support"):
        "f720cc0bd36af4b3ee6108c317b1e76651e72c3eba2f19789e310a8ee6a0c738",
    ("normal-limit", "pure_death"):
        "7da88550b94d80991a52f2c41908c9614949570bcd44eea5dda1711fdbcbdc66",
    ("normal-limit", "two_type_coupled"):
        "da7f7fc786f06a59b472cd6353a64892fa7e12bae4616e99066b2b1451e02a5c",
    ("l1-limit", "gamma_single_type"):
        "9d238cc439e362379dbda4421b819aa219e38d22243db7464a19e26e6f952435",
    ("l1-limit", "sqrt_drift_single_type"):
        "18c8edefeff3184329e126a5168b4feb39f29a759cdd80482218c5ab26829279",
    ("l1-limit", "two_type_mixed"):
        "996eb4adee6e6cb672741a6a2bd7866cfc23e83ee3d3bc169f5da535f37720c7",
    ("l1-limit", "pure_emigration"):
        "996eb4adee6e6cb672741a6a2bd7866cfc23e83ee3d3bc169f5da535f37720c7",
    ("l1-limit", "small_support"):
        "600fd48c570de5f0ed7baa9884174e55dad900f993fe4d737d78e941d6b4108e",
    ("l1-limit", "pure_death"):
        "172fa5539c874c378077af5de18430dd9f04b0708509e887526269aefb1049c5",
    ("l1-limit", "two_type_coupled"):
        "9dd7206a5cda037c805ecd6ea672b03969671c247b1727d9f4ed2c5f70cc3ab8",
    ("feller", "gamma_single_type"):
        "3f4d8b8de09b9a4e7487e62bf4e6ed570e25e98477e8115e57ee9a4c6a5963dd",
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
        "77bc3b013b902ec286270b9e31d1df41445d5f3013cbe7fc36b4519a539b3778",
    ("explosion", "gamma_single_type"):
        "a85689f11c63b69b79879455053b7f39875697fb1be7ea58ee1f63a659effa70",
    ("explosion", "sqrt_drift_single_type"):
        "1b22db8a1dd8a347ddbf0bb3d4e11daab2110ff8c5399df6ace178f49f0bafa0",
    ("explosion", "two_type_mixed"):
        "572a08fd3caed900cf4dc6ed96bb34b29c961c198d4a6597a4c2c0459e9cfe3c",
    ("explosion", "pure_emigration"):
        "b305ae6b3aa886a036020d363f773939b5feb3d4365a8d2e79dc6fd1442b1777",
    ("explosion", "small_support"):
        "6084c7460c80fc6240f754a52b9c2ebe3c3d521a8c10768beead0f0f67c938e8",
    ("explosion", "pure_death"):
        "55b3b65fe70a1c2e67ba7246380eaaf23798c18026c2def77cc117bfdea98e1a",
    ("explosion", "two_type_coupled"):
        "f84bdb780f443160befdc551679ffaf92c32bd417a48c8f7d8072da10c3234c8",
}


# (suite, document) -> sha256 at --n 8 --reps 10000
WIDE_DIGESTS = {
    ("gamma-limit", "gamma_single_type"):
        "9747ace40087795ac5316fd0dd9b2e630c5f63ece7d3ac40a5f954fa2e08bf5b",
    ("normal-limit", "sqrt_drift_single_type"):
        "8fd25f2174c5e0cd78f5918e91b69d5869284ff3d02fc350aa82e9c0df6915c9",
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


@pytest.mark.parametrize("env", [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="Haswell"),
    pytest.param({"OPENBLAS_CORETYPE": "Sandybridge"}, id="Sandybridge"),
    pytest.param(NUMPY_BASELINE, id="numpy-baseline"),
])
def test_suite_outputs_do_not_depend_on_the_blas_kernel(env):
    # OpenBLAS picks its kernels by CPU, and they round products of floats
    # differently: the Perron data, and the products that weigh by it, were
    # formed by BLAS products and moved six of the digests above.  numpy's
    # SIMD kernels are picked by CPU too, and the step kernel goes through
    # np.power (Power state functions) and np.log1p / np.expm1 (truncated-
    # geometric draws).
    proc = run_fresh(["-m", "pytest", "-q", "-p", "no:cacheprovider", os.path.basename(__file__),
                      "-k", "outputs_are_unchanged"], env=env,
                     cwd=os.path.dirname(__file__), timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:]
