"""sha256 fingerprints of the built-in data, pinned so that a change to how
the families or models are written down cannot change what they are.

`MUL_PINS` covers the multiplication table of every family at t = 1..8
(keyed family:t), `MODEL_PINS` the dims, codifferentials and lift table
of every built-in model at t = 1..4, with the paper's printed (l, k, hdim)
for it (keyed family:t/degree).  `K_PINS` covers the rows of K, the
separable masks that a full walk is taken modulo, in the order that
`search._separable_masks` gives them: dim K and the sha256 of the JSON
list of rows, for every built-in model at t = 1..4 and degree 2 or 3 in
mode "all" (keyed family:t/degree); in mode "normalized" K is 0.

The benchmark pins, in `bench/pinned.json`, the status of every `verify`
check on each of its `oracle-verify` cases, and counts any other status
map as a failed job; `test_verify_matches_bench_pins` reads that file, so
that a change to the checks shows here first.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cocyred import search
from cocyred.groups import Family, GroupSpec, build_group, parse_group_spec
from cocyred.model import PRINTED, builtin_model
from cocyred.reduction import full_cocycle_basis
from cocyred.verify import run_verify

BENCH_PINS = json.loads((Path(__file__).resolve().parents[1]
                         / "bench" / "pinned.json").read_text())

MUL_PINS = {
    "g1:1": "cd18db5001222f5aa2e67a2e1ec7bedb6c97259bc407ac0536383a96da99ee0d",
    "g1:2": "e1fd1e0dbacd956a2659711d536455ec878776b4d5dbac030572203913042c44",
    "g1:3": "3724fd1a54289a720fc7cb65df11547450ab3f05ea1231cdff0bc534fb97050c",
    "g1:4": "3af3c62a69f2cc764a9755aa4b26daa5679c8fb6fa1b2c6a6741522cf4ef5226",
    "g1:5": "248730c3c532b5bd9a495655fd76c514b944bc46b7e8f57400d2f783e8608bbc",
    "g1:6": "fe026456a4a98133da41c8a476675ddec8f3e9eab688653c5b0d00f184953313",
    "g1:7": "ba5709d8ecea6e52fe4655d2b3e5ac0a8b50cb3a64581e7c19b6378c712cedcf",
    "g1:8": "6473e33c936621869324c5489d059b47ae0167ee0500a7bf4903c0338ee71181",
    "g2:1": "cd18db5001222f5aa2e67a2e1ec7bedb6c97259bc407ac0536383a96da99ee0d",
    "g2:2": "0c36cc322607a32c2601840aee7d820a15923b3392136668df7c8d17e989bd1d",
    "g2:3": "9bd4efb3a60bbaa28af600aaccd668cddf3b3c4ca8379018b2310f1673fa6715",
    "g2:4": "580acac2bbc7f705cf89f42b0116df6f609a850192d4811c03396f35d316a496",
    "g2:5": "10d9678e9c4e757d7781c547e712fcdb2271b7c86064cba5df5861e8a78829df",
    "g2:6": "d9db04b022800f796abc0677420e1c61411ca99126bb668023f997c753553951",
    "g2:7": "ed15eecbd07ba3ea6207324d16904e82e80acebc313a75ea9b2e45ceeb9c8909",
    "g2:8": "8b806ed38fcdeaaa4ad863b40c9c5a8a280bc00e3e1664ba85858f3913bdc854",
    "d4t:1": "cd18db5001222f5aa2e67a2e1ec7bedb6c97259bc407ac0536383a96da99ee0d",
    "d4t:2": "b4fddc32be007c809e52f6d64b92c1beb18cd7b8a2b30d3cd5cfc0e7973f7470",
    "d4t:3": "d6f6276017e5454d1fd7aa69f9d3dae39f08bf6eff2f1d18ea4e4fb1ae44c573",
    "d4t:4": "ffa0159e31fdd85fefb5bdd730a72b8631cebb8b80c321ebb25c4ddc3eab31a4",
    "d4t:5": "60822ccb2644965729df7c4fa3eef3127beb1782f2377729366e3b17f80cb663",
    "d4t:6": "8c004d2e43430da84fe10ebb89063ac94658dbf43ef3d4a28e318ed5a7a7dbb5",
    "d4t:7": "4217c5d8b88729b49c23be2b81b3d69a89b6b84318e15f53907e7edec2409796",
    "d4t:8": "d4bb5b6139e83e583e4e315cbac1cb7d0adf1cc35782b28cacb473123be085cd",
    "cyclic:1": "db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8",
    "cyclic:2": "6fc74d0f65895396cdb611ac0cfc55c286c78513554e8e9d99112d8f209a21b3",
    "cyclic:3": "2e06ad144d1c87196b9321980710b463c6fba841e32b478a8276b1e72213ece7",
    "cyclic:4": "f6c0adf5798dcfbd2a5417dd09c7e119f6a982ef87d397c20997cf37eea3f4e4",
    "cyclic:5": "4003322cb38c4e69b3ea2f2eb0d932966eaf119c20d2c6bd2dc67e194b63c3d8",
    "cyclic:6": "cc2d91f7adaf7ffa99104f009f619d816827cd4e2ed78b92aa47fef952e4137e",
    "cyclic:7": "e19588770604dbb275604a9cc51909a5389bf76924b702e542fe757ee72bf128",
    "cyclic:8": "44501c9ce8a20609effc13d98e968e15f45a249326d4562a3a056c7a3e2df718",
}

MODEL_PINS = {
    "g1:1/2": "7f98e2e8aa332a1049f00d0cc645776dc5945bade52258b9a73186fa782c6b10",
    "g1:2/2": "ca51a05f60f6fff15a7d228e5ee285391d88673fa0f3a5dd3abfc7edbf19940b",
    "g1:3/2": "45d2243819a296c4cdec2ec6e0fca113e6d9d8e2154703b4eb89da1ff26fa9a9",
    "g1:4/2": "6904324f68190efc1f42ff693af7e5c1fbf41c0656574498043f7d4c08654ab6",
    "g2:1/2": "3d6058270873a5ab3e53e9afcdb51301bc1acda8aaf4751b0270baf45edcbb45",
    "g2:2/2": "df75d1c3eaac42b4575b318656f8b71b8359f9fae246a4faebf968bf90a3e35e",
    "g2:3/2": "fbdd415bbd417bf6aca99ccac2ce0e7ed9d6518733086fa84e25a8ee76217ef1",
    "g2:4/2": "0915085c1ce1c5124399044423a20068023125c2a0ccfda7a231be9b81ef2936",
    "d4t:1/2": "07af1705729b60274691ffd2810c980ca92f59e65c1cf35111c25d7ea87fa4a6",
    "d4t:2/2": "bb2be854944d4e51cf037207d2f8ee9c302bf2bf2630ad44fdf86f037498ea96",
    "d4t:3/2": "c0deada230274ecaaed4d16b35d10d49aaf8c088113a8a5c553206a88e67331e",
    "d4t:4/2": "c1f0d3408d87494c2970f518aaac15ab2476696a7fb46d92a545a0f6cd01f227",
    "g1:1/3": "a2f04b887265a66f3cb723a949d49e975a16900327c6cc5121bffbfbdbda700f",
    "g1:2/3": "a919e0965c01ee19c18709c3b6fe64bcc916ceea56bb3f7a04f0f4fd3032b1eb",
    "g1:3/3": "0d9daffb421c7daae4796eeabd1409f9f635e430bcf76f442db4c7772355f722",
    "g1:4/3": "396e38ac4400ec0b8663ed9aec7bda63b3bcfe49599ee50dbc8aba94676f9391",
    "g2:1/3": "2831178007e9ce1d2b0f904ae30acf6aebc126644ccf5606e016272648607f6c",
    "g2:2/3": "69b37250257f88ff4f012d26cdf135a6adadd29236c3d286104c8ba3896e8fad",
    "g2:3/3": "71fc482ff21a45df5fe1a47b7f191df724831f839070b1f8539331cb496c7fa3",
    "g2:4/3": "96c0071a8059602845f9b1e483fff25372b6504b249f412e76f58a9b96bc4f75",
    "cyclic:1/3": "2607305464911ba1a5f52e44ce36f1a891a7303aef98451c3492592d27858f06",
    "cyclic:2/3": "0c93a11fef11d0bdccbdd24a3958944b882caf0ad70b821291b8a55046ce3630",
    "cyclic:3/3": "0df60c2293d1a88fc582a4fc15c818fc6eb7957f2ae7bab2f1a56399708a2f00",
    "cyclic:4/3": "69e5654efaf6b1003222f6c61e84751c550f1dfed9232de15cbff3effd40f441",
}

EMPTY = hashlib.sha256(b"[]").hexdigest()

K_PINS = {
    "g1:1/2": (1, "501376e57c8da536b2be29ebdc7dbeacbd7b9520b4f2250e65b0fc60e72365ec"),
    "g1:2/2": (1, "04f200f1e2407fd6d986dfa2027e8fe3606ee6c41ae6c7c45d26331416b69308"),
    "g1:3/2": (1, "1859712ce052c531aa213fbb7ee23db5e7bdb1feae063f36b5c167676477993f"),
    "g1:4/2": (1, "c37c81c58cb9f07804ae24a0c2046065b47e367f28ab904565af2bdfa842631a"),
    "g1:1/3": (4, "24898423600b0403a494016e7a3f5bcd7a73c425c3b24cc2886bdd32d4a43db6"),
    "g1:2/3": (4, "5685842ff05bc6d0345ac05e55392b5ed225eb8795c8385f7bb8787b1334ac2f"),
    "g1:3/3": (4, "a8e72bdc8c09306e7f68ca8af4e0a594575163205f3904809a7040b2ab622226"),
    "g1:4/3": (4, "2c2c4764174bb95991b813d5f564f0726c8f19770d353a178e5ebe8e517c36e7"),
    "g2:1/2": (1, "501376e57c8da536b2be29ebdc7dbeacbd7b9520b4f2250e65b0fc60e72365ec"),
    "g2:2/2": (1, "c238db8036789ed94cd64981164901c79808225d2b3a60d5fbb8be1ef0f5498a"),
    "g2:3/2": (1, "1859712ce052c531aa213fbb7ee23db5e7bdb1feae063f36b5c167676477993f"),
    "g2:4/2": (1, "371e8c95806e2dbf01dcde88328f8d5dd535e9e3f3e65a6ac04c07c909a65f2e"),
    "g2:1/3": (4, "24898423600b0403a494016e7a3f5bcd7a73c425c3b24cc2886bdd32d4a43db6"),
    "g2:2/3": (6, "afade0c57c792fefd2874e0a048f931cd0d0aa1f35c79bb267fc6847b63fd923"),
    "g2:3/3": (4, "a8e72bdc8c09306e7f68ca8af4e0a594575163205f3904809a7040b2ab622226"),
    "g2:4/3": (6, "455d759bb01b4d22a5adfdc2be59216e3bf40a8d803e3de7643f5b2c6a4b6559"),
    "d4t:1/2": (1, "501376e57c8da536b2be29ebdc7dbeacbd7b9520b4f2250e65b0fc60e72365ec"),
    "d4t:2/2": (1, "b344603b272cddd6307249d2d9c2fd5e7e93f8fa2a622d38fde392402c235a5a"),
    "d4t:3/2": (1, "f103fb247b1b619a66e1fca1c8bc70f0b428470bc44faef2f062844d04d9bbf5"),
    "d4t:4/2": (1, "3e14cc84667f929cdf7dfc1cd9ff97b7991a32eab2df1dca6c5c257474018b5f"),
    "cyclic:1/2": (1, "038966de9f6b9a901b20b4c6ca8b2a46009feebe031babc842d43690c0bc222b"),
    "cyclic:2/2": (1, "41164c427f4cf681cc1b50eaf1a175e3574a1d015c6c90fbdaf77aea39d24086"),
    "cyclic:3/2": (1, "b86b1ea11b28136fe5224b9d1e3017b7efb68d4fae0b90c4940e0c0f89b3907a"),
    "cyclic:4/2": (1, "d76e4c0bc9e7734f1434be2290edb40208eb6e898a8b3aede34f3eaa42fdabec"),
    "cyclic:1/3": (2, "2d2b1c3992e04e1469b96b426a1504d50e277cfe274887bc764152d00b86edfb"),
    "cyclic:2/3": (2, "3590816e4a341fa31ca8c5eb994897f9b2db993ecf17d59a3a1470a4efe32380"),
    "cyclic:3/3": (2, "839e5b42929915ca3df0ca352023bdfc8d9d81245033801d0d673941fb09ff85"),
    "cyclic:4/3": (2, "accc33f455025895a4213f303450726e12b34ea31a811b306604275732dc82c7"),
}


def mul_fingerprint(spec: GroupSpec) -> str:
    mul = np.ascontiguousarray(build_group(spec).mul, dtype=np.int64)
    return hashlib.sha256(mul.tobytes()).hexdigest()


def model_fingerprint(spec: GroupSpec, degree: int) -> str:
    m = builtin_model(spec, degree)
    n = m.degree
    head = json.dumps([[m.dims[n - 1], m.dims[n], m.dims[n + 1]],
                       [m.diff[n - 1].tolist(), m.diff[n].tolist()],
                       list(m.lift_table.shape),
                       list(PRINTED[(spec.family, n)][spec.t % 2])])
    lift = np.ascontiguousarray(m.lift_table, dtype=np.uint8)
    return hashlib.sha256(head.encode() + lift.tobytes()).hexdigest()


def _spec(key: str) -> GroupSpec:
    fam, t = key.split(":")
    return GroupSpec(Family(fam), int(t))


@pytest.mark.parametrize("key", sorted(MUL_PINS))
def test_multiplication_table_pinned(key):
    assert mul_fingerprint(_spec(key)) == MUL_PINS[key]


@pytest.mark.parametrize("key", sorted(MODEL_PINS))
def test_builtin_model_pinned(key):
    spec, degree = key.split("/")
    assert model_fingerprint(_spec(spec), int(degree)) == MODEL_PINS[key]


@pytest.mark.parametrize("mode", ("all", "normalized"))
@pytest.mark.parametrize("key", sorted(K_PINS))
def test_separable_masks_pinned(key, mode):
    spec, degree = key.split("/")
    out = full_cocycle_basis(builtin_model(_spec(spec), int(degree)),
                             int(degree), mode=mode)
    rows = search._separable_masks(search.SearchSpace.from_reduction(out))
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(rows), digest) == (K_PINS[key] if mode == "all" else (0, EMPTY))


@pytest.mark.parametrize("key", sorted(k for k in BENCH_PINS
                                       if k.startswith("verify ")))
def test_verify_matches_bench_pins(key):
    # the key is "verify <group> deg<n>"
    _, group, degree = key.split()
    checks = run_verify(parse_group_spec(group), int(degree.removeprefix("deg")))
    hdims = {int(x) for c in checks
             for x in re.findall(r"dim H\^\d+ = (\d+)", c.detail)}
    assert {c.name: c.status for c in checks} == BENCH_PINS[key]["statuses"]
    assert hdims == {BENCH_PINS[key]["hdim"]}
