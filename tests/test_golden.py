"""Byte-for-byte golden output of ``superchar table`` and ``superchar check``.

Every bundled spec is rendered in all three formats, plus tables that no
bundled spec reaches (generated from the catalog): extension fields, p = 5,
and algebra groups whose characters fall into orbits of F_q^* of more than
two rows.  The sha256 of each output is compared with a recorded digest.
Any change to the partition, the values or the emitters shows up here.
The report of ``superchar check`` on every bundled spec, and on the
generated specs that ``CHECK_DIGESTS`` names, is pinned the same way: its
class counts, cell counts and axiom lines (with the number of conjugacy
classes) come from the oracle's orbit sweeps.
"""

import hashlib
from pathlib import Path

import pytest

from superchar.algebra import emit_algebra_spec
from superchar.catalog import full_triangular, heisenberg, semidirect_algebra
from superchar.cli import main
from superchar.gf import Fq
from superchar.poset import emit_spec

DATA = Path(__file__).resolve().parents[1] / "src" / "superchar" / "data"

GENERATED = {
    "full_u3_q4": lambda: emit_spec(full_triangular(3), Fq.of(4)),
    "full_u4_q4": lambda: emit_spec(full_triangular(4), Fq.of(4)),
    "semidirect4_q4": lambda: emit_algebra_spec(semidirect_algebra(4, Fq.of(4))),
    "heisenberg4_q4": lambda: emit_spec(heisenberg(4), Fq.of(4)),
    "heisenberg4_q5": lambda: emit_spec(heisenberg(4), Fq.of(5)),
    "full_u3_q9": lambda: emit_spec(full_triangular(3), Fq.of(9)),
    "semidirect4_q5": lambda: emit_algebra_spec(semidirect_algebra(4, Fq.of(5))),
}

DIGESTS = {
    ("annihilator_example_q2", "json"): "12e725edc157e0d0459190287e9e0d376348952601fa380c1ec787cc2ad2c760",
    ("annihilator_example_q2", "csv"): "295ce3f2dd735214fa7eb3dc5fc5efb5bdb6d2c94566a0bd1c3ff3025fa3cf8c",
    ("annihilator_example_q2", "pretty"): "bc4e8c359ba4bdef88c9ba430927f642688a2f10149bdf79c01f3bd80ce3a7de",
    ("class_counterexample_q2", "json"): "4d0fb2c6b9d04f55847f786abe6caef49ee1adfe6792d086d40627c15c91de53",
    ("class_counterexample_q2", "csv"): "a038f9ed60f2ab7e34410990171ea7ee785d9af279ad543553f5433f45811b24",
    ("class_counterexample_q2", "pretty"): "497c4ffa78526c2448c4130bc380dbb8237e695086d04c28b190ddac992d2c5b",
    ("coorbit_shape_q2", "json"): "eb7bc6673024741a0c8f0771b90100a8cbfee132954578914a68064a2dfffa6e",
    ("coorbit_shape_q2", "csv"): "2ba12e9c8b31e95c110ca30acac1da5fd18de9599334b4adec655edec13a4d7a",
    ("coorbit_shape_q2", "pretty"): "b89886520ff11c3d72c8a5313943d58a28f1c60ed5c426ebbce9a2fb32bd786c",
    ("determinant_q2", "json"): "7a7cf9039a367ec7121d09f643e1844a761434e7dec092704fef23a39da6449a",
    ("determinant_q2", "csv"): "79b62fe6f8481f44116887c916b4563c61011e3c42271e56aaa3e91856da0623",
    ("determinant_q2", "pretty"): "660259e156d475d83ee651b26b9c995b8d5446d81d87431e2ace6af69257a5c8",
    ("full_u3_q2", "json"): "202ed4bf8f9fda528ebcc6c09eafb1d458d5af5e2693cb6f919c9f3836f81573",
    ("full_u3_q2", "csv"): "a5ed7b0ca7556245cee425da4808010a53187a476b0292d24e9e931f3df8c5a9",
    ("full_u3_q2", "pretty"): "ec538e077dd429bdc72d04ad3aa9a0546a3dd9ca91ef81f41dcb032d9b7ca720",
    ("full_u3_q3", "json"): "c1fc82f56cd015909842a16c5001295b47c07bed0888839103d006608516c110",
    ("full_u3_q3", "csv"): "fba3d4b9a330bb8a1c754199ba4b4024a484690a12596d85034cf872aeddbfbf",
    ("full_u3_q3", "pretty"): "bb684e20fe8a6f565a18af615d5fd16d18e8452478fdcbacef3d654f1998a9fa",
    ("full_u4_q2", "json"): "a737434c55af504509cf4ae1279aae13086dc820f0e58d6a178fb660b592358b",
    ("full_u4_q2", "csv"): "87c8c9804d99a903c605fca7e571b9e0f0e5f11e61f00979bbbf19a5bb1bf6f2",
    ("full_u4_q2", "pretty"): "c3310d552b6d795d708954f577f1f21e6bf68d0a2eae145c24551d3a065f8752",
    ("full_u4_q3", "json"): "65c2c129ac5ad0c5fc774b777dc0f138069a66a689bd7ccdaa27d14a894310fc",
    ("full_u4_q3", "csv"): "c68798887cadc9d39c73c2720ca84bb5398ac3f0471494fd8f860a7bca5c7025",
    ("full_u4_q3", "pretty"): "fe7d95f1024c6a3974275b49ca637e358c4e7c38756b76d7c977fbe95ffa7ba5",
    ("group16", "json"): "3e462696583b9c3f83548281dbc7105b59b6b7ed4d1c0429c80e63f8e3e7fe45",
    ("group16", "csv"): "8d922c1eb2a1a539a03c7604a4a09bc2406dfd627120b8deff32fb279e6ae431",
    ("group16", "pretty"): "492e33d6e84387a0fbc00d3f09acbf43fe4fbeac555c8a59f1288868e5fe78a0",
    ("heisenberg3_q2", "json"): "202ed4bf8f9fda528ebcc6c09eafb1d458d5af5e2693cb6f919c9f3836f81573",
    ("heisenberg3_q2", "csv"): "a5ed7b0ca7556245cee425da4808010a53187a476b0292d24e9e931f3df8c5a9",
    ("heisenberg3_q2", "pretty"): "ec538e077dd429bdc72d04ad3aa9a0546a3dd9ca91ef81f41dcb032d9b7ca720",
    ("heisenberg3_q3", "json"): "c1fc82f56cd015909842a16c5001295b47c07bed0888839103d006608516c110",
    ("heisenberg3_q3", "csv"): "fba3d4b9a330bb8a1c754199ba4b4024a484690a12596d85034cf872aeddbfbf",
    ("heisenberg3_q3", "pretty"): "bb684e20fe8a6f565a18af615d5fd16d18e8452478fdcbacef3d654f1998a9fa",
    ("heisenberg4_q2", "json"): "9e8d57e380ddbe43f90cab7e3e7cab399aaafde1845522c2c107cb198ddeb633",
    ("heisenberg4_q2", "csv"): "5a6b35bb7f36d50c3cfbdf40d74abb0794b6ed5ac52468143d300fac1d0ec448",
    ("heisenberg4_q2", "pretty"): "cb1278d61302e2c1afac46a5813598eea20ef2dfe0377fd9a47c30c57f8c1f6b",
    ("heisenberg4_q3", "json"): "4eea5748b53363986f4e24bc4e279bdbf97de0f1d3ace6941c89f2fc8329ccd4",
    ("heisenberg4_q3", "csv"): "28beb1a96261f94127cf7429c455d112e1415c94cbae0173d0ea6128074360b2",
    ("heisenberg4_q3", "pretty"): "9dc4abaa9393f0143b8daf0bad803e72bac6741043fcf26b3ad3e392acf5a5cb",
    ("heisenberg5_q2", "json"): "c3c3d3324ea3e38f1a9cad309c272adc0d5f3afd14f6067523a5ca895c7bbc09",
    ("heisenberg5_q2", "csv"): "a9cb2557aaf4e499900200d5f65dbdd60fd174a62371fc0847e4f05278f57813",
    ("heisenberg5_q2", "pretty"): "9e7b4469d666b39a1d436c5fbfeffc0e373d851265993dd7c8229d58bad6d0a6",
    ("heisenberg5_q3", "json"): "aecc4f7094fa5df4edcf0886fe22d5f9d55bf7f0d3767b1e327f3447665d2e42",
    ("heisenberg5_q3", "csv"): "f2c248a15d6e74485b20e7cf9dcf488f94d090d0b3855a1b5cbc4d2ddc525815",
    ("heisenberg5_q3", "pretty"): "e7a643fab7df7e62cd4a7cf002b1250a36b1e7f3468574084fbbe74ae6c638a1",
    ("orbit_shape_q2", "json"): "cf8d45dfa7a7d5fe8c7e21b16b20c05c4bba07d0111df883999505d205f9340a",
    ("orbit_shape_q2", "csv"): "12b0e4be4167a4b96ed0166866f44e2df4bc563602ecf4be339fe7c7b1d32cab",
    ("orbit_shape_q2", "pretty"): "a15f4dceb9277e54ed57dad1cd4145a919e436102530b8df8cc4eebe89995f44",
    ("two_step_q2", "json"): "ef6ef7d32239975a1a2271b15e9a96865ce3616442d5aef2e5844bc05b4ee4a2",
    ("two_step_q2", "csv"): "a74e4b71617c6dc703cba37dea478eac2bcfc44ce7e7bad2f1bddcdabbc9f05b",
    ("two_step_q2", "pretty"): "94ba969efe0e93ed9ada33fd32037291ddb436d7d1d6ad1e10822bb03200756f",
    ("full_u3_q4", "json"): "529e122a0badeaf9fb72768de87b1dfe31af3459e60217580f5dcacae0109585",
    ("full_u3_q4", "csv"): "65a5c13ff783b215a3e9b51ab60fcd5057f4d4fc9001f5b95841631cc314b01d",
    ("full_u3_q4", "pretty"): "7d1e279acaff06aaf10697a8da539d9be1c6f1aad0fe2e70ad03d53d3e2ae4f6",
    ("full_u4_q4", "json"): "b4be685d52342b39780b3e808ce3a37a9177725b2b3df4c88679fe46131bc25d",
    ("full_u4_q4", "csv"): "496e6331f378e8bf90e5175d7c563a3e5676c9124fe8769cb22f514b8282e583",
    ("full_u4_q4", "pretty"): "c90059516a685d6d2b53fbc1a1777cf427c780fad0d99c9184e968bda0822ffc",
    ("semidirect4_q4", "json"): "4989c61621f263b795b6bba6cd7162e860559da65b83b687497fdfa9cfffcf53",
    ("semidirect4_q4", "csv"): "bfc73970f4c9fa2607b263b776ae12a0c4a360b46ce27e439f72e9931898d126",
    ("semidirect4_q4", "pretty"): "299fe0e570c102a88e46c7543efd7dc8eb03155f5aea33e30c4c20b6dae473b7",
    ("heisenberg4_q4", "json"): "949bdd5b4edc7d63104b88bd2aee3928b57b563b2c1209576fdbe2dd200f4d1b",
    ("heisenberg4_q4", "csv"): "12b79344a3a114b9d4dbb625a949117c8cd15f23a1dfd05ef25fd109bc170104",
    ("heisenberg4_q4", "pretty"): "c54bdcf085ff80b60a5c4cc209ac64f54dcb2a995a48c6579075492633930958",
    ("heisenberg4_q5", "json"): "1e4b34799ed98fc5b15505d818cc76decbfe875e44fdb77850c63e2deea432a8",
    ("heisenberg4_q5", "csv"): "e0901b6b8c67bc9a7648106778e0bafa458e3513c77d843352ec612359e94c59",
    ("heisenberg4_q5", "pretty"): "a49f79011cb71a1ef4b47504e9937358f1edce1bd881df7f9af20706ad8be95c",
    ("full_u3_q9", "json"): "40d9b6602d93ca65a5246614944e4494b06bb5da9baf04cd8d0179e74f053d2d",
    ("full_u3_q9", "csv"): "f1eeebeece7ab1dd0673791c7089cbdaf9abbdfc97fc37bfeb5cdd1e4d6dce17",
    ("full_u3_q9", "pretty"): "39dbd3c72b27b9a1fef0db128eb2b50d7c0a5e8bfbb057570fdfd101b8199daa",
    ("semidirect4_q5", "json"): "baf3c0b5fd4df564aba4cf22ff1e100adeafbedf28481471ec3dd553721e9ac9",
    ("semidirect4_q5", "csv"): "a51417c002cff9ba6187cde3aa0019e1a257445afa46221003d5662f2c83c149",
    ("semidirect4_q5", "pretty"): "1de4316d9ac83f4cc5f9a2ca2d5b9c8a3328c5c2f7a71802f08051cc2744550b",
}


def test_every_bundled_spec_has_digests():
    bundled = {p.stem for p in DATA.glob("*.txt")}
    recorded = {name for name, _ in DIGESTS} - set(GENERATED)
    assert bundled == recorded


def _spec(tmp_path, name: str) -> Path:
    """The spec file of a bundled or generated name."""
    if name not in GENERATED:
        return DATA / f"{name}.txt"
    spec = tmp_path / f"{name}.txt"
    spec.write_text(GENERATED[name](), encoding="utf-8")
    return spec


@pytest.mark.parametrize("name,fmt", sorted(DIGESTS))
def test_table_output_matches_golden_digest(tmp_path, name, fmt):
    spec = _spec(tmp_path, name)
    out = tmp_path / f"{name}.{fmt}"
    assert main(["table", str(spec), "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[(name, fmt)]


CHECK_DIGESTS = {
    "annihilator_example_q2": "6af8ad4f6727e75ff1423715a83daa8b5a53eb5734e4ffbd4e3323eba3e624ed",
    "class_counterexample_q2": "c176d7722da9ff4c8a9042f2aee478e0831504406634195039e322b5ae535d65",
    "coorbit_shape_q2": "6fd4cecde6d493001eff03204788128f7735586b6a8b3c13b024d87eee36a112",
    "determinant_q2": "fdecee35b0931a0a66c5949b550a1a971dda0d704b0c771a8c401b66394af191",
    "full_u3_q2": "88831a84ca6809a8636a0ab03781e3432c09a7194dd1626ecf22abbde162e6bd",
    "full_u3_q3": "da24c26d8c8fa64da599a7bc7712f59ce52d545d5295fcd30c7be4a403a25d02",
    "full_u4_q2": "9830a43a3b36ab346d680792c5476dfd2e5b4841646829a881dfd5ce0f29756a",
    "full_u4_q3": "945ba145d069851e469d64de01c7d6b5199ebfaa512bd41215f34a85618f4d4a",
    "group16": "3152eb05c5ee84bef95d0e61acf88091a9b5cf167716e14f5b184dd48ae9a5cd",
    "heisenberg3_q2": "88831a84ca6809a8636a0ab03781e3432c09a7194dd1626ecf22abbde162e6bd",
    "heisenberg3_q3": "da24c26d8c8fa64da599a7bc7712f59ce52d545d5295fcd30c7be4a403a25d02",
    "heisenberg4_q2": "df2ae76d2f7380c16a18192fadd9ecb0066d2b0f0d99b862a6551b53a61f704f",
    "heisenberg4_q3": "308163695654742de79bbcec68ce5da38c38cf081d85cd650742318c7ebac95e",
    "heisenberg5_q2": "9d4fb446f32ae3dabd69a39513889426e82d261a4306d328c60dbd80a2c0b4c4",
    "heisenberg5_q3": "fd66eabb35cd3e9b91bfd150abda639c83e0a309cc9aead8af76e74cb2c95635",
    "orbit_shape_q2": "5477639fe6633bc9c51dd33a9df416fdf7b56ab61f8c14f1d585a032e0d33e38",
    "two_step_q2": "5477639fe6633bc9c51dd33a9df416fdf7b56ab61f8c14f1d585a032e0d33e38",
    "heisenberg4_q4": "9cfed4e7b8be1f94dcfc66e0f33b1281795ef96d3490788b5243b99d1079860a",
    "heisenberg4_q5": "4bac90c7e68f25f547c53ed76bf2887ea90e3bfd39401e5ea554af123018d7c4",
    "full_u3_q9": "f4d401012bd8b5794393f06b05f29c1541af63631ce77aec0cac63767c17c995",
    "semidirect4_q5": "ee5fbf658be7b031f7291989322637c9b42a74cafcd86ae4e9cc377d4fa020e4",
}


def test_every_bundled_spec_has_a_check_digest():
    assert {p.stem for p in DATA.glob("*.txt")} <= set(CHECK_DIGESTS)


@pytest.mark.parametrize("name", sorted(CHECK_DIGESTS))
def test_check_output_matches_golden_digest(tmp_path, capsys, name):
    assert main(["check", str(_spec(tmp_path, name))]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHECK_DIGESTS[name]
