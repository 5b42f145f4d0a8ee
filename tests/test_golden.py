"""Output bytes of the CLI, pinned by sha256 for every builtin and for two
products that mix conductors.

The builtin digests were recorded before the checks read their inputs from
a ``Target`` with memoized derived data and ran from a registry, the product
digests before the sums of products were built on integer numerators, the
markdown digests of all subcategories before ``CycNum`` and ``IntPoly`` wrote
their text through one writer; any change to a verdict, a value, a
conductor, a record's order or the rendering changes a digest.  Every
command here exits 0.
"""

import contextlib
import hashlib
import io
import subprocess
import sys

import pytest

from fuscat.catalog import BUILTIN_KEYS
from fuscat.cli import main

# fuscat verify KEY --all-subcategories --format json
VERIFY_ALL_JSON = {
    "trivial":
        "b80e68ae1b29411c4005ca75f8438af874bd9a92ce8df841efe5fba640814a7c",
    "svec":
        "145e6508ea0567a4c42dab9c0b91059067604c1e2fbe3642f9c57f1c06f8e5ce",
    "ising":
        "a8a8b3da2f44a72806dfe73b4fbcbf625fbbc8fb4a365593703da91fca4b9157",
    "fib":
        "8ed087ad0ad0718d8c75db8af44f8ef3ed267a1cf1536fedf6df9b3e0f04ec4d",
    "rep-s3":
        "9a14fb5c3dec12b207c58bc06b40dbf56c4f067b61d4d4001bcd3bbe88487507",
    "su2k-2":
        "779ba7af1254a695cacba7ae0030b664bff3f61c64e4fcfd71eead925bd7f034",
    "su2k-3":
        "9aa59ce0b81308925986fe2c3acacd997c32a544330aeaf9e4385a9c02c35675",
    "su2k-4":
        "201b8ca1dc8c310960c6dd1809f87aafb842aeed396c10a771826a0f30b79c09",
    "pointed-z2-q1":
        "06dd2415e61b03495a2d467c2e721c90ef3bc86448e2e18e0b97b6741600c4c2",
    "pointed-z3-q1":
        "5bcf7344c31eff64fcb3516a6e56f5549a9f8d9678b7c2ad98e7bfe5a16c01aa",
    "pointed-z4-q1":
        "cc1e23cdbb72f343af05c075b016fe05daae771a7c8029af09137424dfdd3841",
    "pointed-z4-q2":
        "48872318fda06a22e3725439bb633c0ae4224dba799bbefe354ac88630ea080a",
    "ising*svec":
        "9828757e3cecdb8b1f1145bdada7e82188bed0704faae9e576092484e5581b07",
}

# fuscat verify KEY (markdown, unit subcategory and whole ring)
VERIFY_MD = {
    "trivial":
        "a6846420d5f77911ff60a98febd306d57e434a0e2d30e3982ac18f97d0f6b563",
    "svec":
        "e3b5de04975be9257dbe7525f15734a249c1d842c8578fa66a3450274de027b9",
    "ising":
        "6bd9d1a7cf910285ffe9b8d366c8e1a371cba0ef2d569dd18824623e9559b9e0",
    "fib":
        "90e65a1b4a55d713cf1b8962a233c34669699c84baf66094eef23f86edab895c",
    "rep-s3":
        "63698960165c8827077c6fd17c489fdde48d25ee72af88b9ab17a7b01a269295",
    "su2k-2":
        "9f9a52136ea3e24d4b531fc17518b0a0dbf047ca96942a0dd21163d0e6cb3f54",
    "su2k-3":
        "91fd0821e216120beb06c4aad8376bd2e51dc997a0e058754bb47809329ac427",
    "su2k-4":
        "99a611c8582bbbf698d7aaab8325e2467c405e43c63e6b16aa028186431c1b16",
    "pointed-z2-q1":
        "d214091037383ee5b40a6d5b493210a9456968fa9124dd6991f42fa649e45341",
    "pointed-z3-q1":
        "2d2ec0ac570e002356cb1edce312cb646eeea5ff2c74d6c683013d89877b976a",
    "pointed-z4-q1":
        "91ba3842e2686da23fb1db1bb9ac20611496eb238b116712bab62395940f9f11",
    "pointed-z4-q2":
        "ca62ebcf51d1215b725849d8aa903eaff9180097b8b79d056e1bb3f51931a330",
    "ising*svec":
        "45065f4f332e6a99ac2edffd49fff942fcf3653af7460aaf345ce94767ecb733",
}

# fuscat verify KEY --all-subcategories --format md, on the builtins and
# the products, where every exact value is written by CycNum.__str__
VERIFY_ALL_MD = {
    "trivial":
        "a6846420d5f77911ff60a98febd306d57e434a0e2d30e3982ac18f97d0f6b563",
    "svec":
        "e3b5de04975be9257dbe7525f15734a249c1d842c8578fa66a3450274de027b9",
    "ising":
        "c5759fa3271ebed8c098914e40ba76c750dd7f118ab2d4ca8060ea0e01fb52d6",
    "fib":
        "90e65a1b4a55d713cf1b8962a233c34669699c84baf66094eef23f86edab895c",
    "rep-s3":
        "642304d4067df24705ea60c13e059e4eae7ce83795308be09a4fb70e4a21f278",
    "su2k-2":
        "6dec6614e55d6bea0028cf685cd74975ac7fd559adc9f5892d1eb58d62028305",
    "su2k-3":
        "e3fc5b9ae7234992cdbe3c98a08f5ea8a9e8c430e625736a16d717cb684db0c5",
    "su2k-4":
        "25a7ccb0f5675df28739313b412462000b0b029a13fd45677bde067b1e59301a",
    "pointed-z2-q1":
        "d214091037383ee5b40a6d5b493210a9456968fa9124dd6991f42fa649e45341",
    "pointed-z3-q1":
        "2d2ec0ac570e002356cb1edce312cb646eeea5ff2c74d6c683013d89877b976a",
    "pointed-z4-q1":
        "9dd60751b167042faebd1c3752ce99dd6b9ab1b7d07e7987cfa481e182d999f7",
    "pointed-z4-q2":
        "1d65e31f455c488441695cd2738496babe068dd02999161f97b95d4a172e40f6",
    "ising*svec":
        "4a7fe2acb6c75f0a8b3382670b5e81b34148dd3fd3b2105d24518783f798bc90",
    "fib*ising":
        "acc4850e2d252f2349cbb5206f923c892e44cc0ad3741a36cfb60d1c8a9b70a3",
    "su2k-4*fib":
        "84754bc1770ea03d872d688ce0f4a8e6888bfa4602ce4061138069622f357d88",
}

# fuscat report KEY
REPORT = {
    "trivial":
        "628c5aa64482cffc84aae9f0d854e13b6283bac9aa64ecf3d76c52f78772cde0",
    "svec":
        "c76e21f2d2b5eb926b21fcd109ae0f4730d5db8ab6947263137ceab11981ed62",
    "ising":
        "2c8012a14af270eb440f4fcb49c16ab24e5fe04f454ee34ad55ed8653618b403",
    "fib":
        "5eb56d59038233c7bd0b082190cf4489b46e75fafcd437ddf5360abae3d6af1f",
    "rep-s3":
        "5de0d625fb070a6bc0b27ca914b411b15a83b901f6569489e59e7e92f408d98b",
    "su2k-2":
        "c41174c721f1eff74719510d0f203101268449dc084da805306e359f3d7ccef3",
    "su2k-3":
        "5f35419bfccc1de1c0111e5d4273fd5ef8c25a21d1280452a712dfbcdffdd2bb",
    "su2k-4":
        "3bf4beba3ebc61d28a24119cd8d02156b7c0c3b4dd362293ddcb3d5da0ad1179",
    "pointed-z2-q1":
        "ae44bce0e7de66751172133a50100e329ca3c4d39a6d5ebc8283d21103eade8f",
    "pointed-z3-q1":
        "91b79496095f5e77af5bb59440685054f6408217d63771e2858a7a319631bf88",
    "pointed-z4-q1":
        "777ae726e11018c2002449b5f302f84a5e8d91f505303ab7ff7eca014e67f150",
    "pointed-z4-q2":
        "53d982506144c3b7a80c34fcb71b5a666cfecce7a22acaec06910b727091d867",
    "ising*svec":
        "eab504f2e438c3d5878b68d56e7a5bf094457462763f93456d24d033ec5e4c8f",
}


# fuscat verify KEY --all-subcategories --format json, then fuscat report KEY,
# on products that mix conductors (1, 5, 8, 40; 24, 120): the conductor of each
# value is in the output, as the json field and as z_n in the report
PRODUCTS = {
    "fib*ising": (
        "d898951aa31e2fe35066b77b54b578c2ee655fc1e723fa55f4eefb9336f4a693",
        "f7ce5a3bf0424b787ce478f81e05ff7095c55ba7ae53a45bb632c106e2192c38"),
    "su2k-4*fib": (
        "b6c7a750d60b3b9113df70efbeb98e12b8a2f77b85e9a11a9f2547e7a01bba0d",
        "4e09c4b1c9e96fbd82f615bc7836b981eefd3ad88512d1b91b8367a025173542"),
}


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_digests_cover_the_builtins():
    for pinned in (VERIFY_ALL_JSON, VERIFY_MD, REPORT):
        assert tuple(pinned) == BUILTIN_KEYS
    assert tuple(VERIFY_ALL_MD) == BUILTIN_KEYS + tuple(PRODUCTS)


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_cli_output_bytes_are_pinned(key):
    assert _digest(["verify", key, "--all-subcategories",
                    "--format", "json"]) == (0, VERIFY_ALL_JSON[key])
    assert _digest(["verify", key]) == (0, VERIFY_MD[key])
    assert _digest(["report", key]) == (0, REPORT[key])
    assert _digest(["verify", key, "--all-subcategories",
                    "--format", "md"]) == (0, VERIFY_ALL_MD[key])


@pytest.mark.parametrize("key", PRODUCTS)
def test_mixed_conductor_output_bytes_are_pinned(key):
    verify_json, report = PRODUCTS[key]
    assert _digest(["verify", key, "--all-subcategories",
                    "--format", "json"]) == (0, verify_json)
    assert _digest(["report", key]) == (0, report)
    assert _digest(["verify", key, "--all-subcategories",
                    "--format", "md"]) == (0, VERIFY_ALL_MD[key])


@pytest.mark.parametrize("key", ["ising", "su2k-4"])
def test_output_bytes_do_not_depend_on_asserts(key):
    # -O strips every assert statement; the report must not change
    proc = subprocess.run([sys.executable, "-O", "-m", "fuscat", "verify", key,
                           "--all-subcategories", "--format", "json"],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_JSON[key]
