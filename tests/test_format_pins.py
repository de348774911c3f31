"""Byte pins of the structure file format, taken before its parser and
serializer were rewritten as one table: the sha256 of every `corpus export`
document over F2, F3 and Q, the bytes of `corpus list`, and the exact
path-addressed diagnostic (and exit 2) of each kind of malformed input."""

import hashlib
import json

import pytest

from entwine.cli import main, payload_to_structure_document
from entwine.corpus import builtin
from entwine.exactlin import Field

FIELDS = {"F2": Field("Fp", 2), "F3": Field("Fp", 3), "Q": Field("Q")}

# sha256 of `entwine corpus export --name <entry> --field <field>`
EXPORT_SHA256 = {
    "F2/k": "f9c349f4be9bdd881a13157ca1ea733e80707a9fe172da458937537d1873e63f",
    "F2/kC2": "7b53500964c4c7448f7b3ac1b12a150a70ada318904bfdb55c50326816b92d8c",
    "F2/kC3": "7fa0be3268f23718377b8b30b4a18b41b860e4e40ecbad5fed0e2ff3b1455627",
    "F2/M2": "3499f04443eb4b3c89b4241bf48fc44777f40b05897d5d15cf71839075fd12d3",
    "F2/T2": "40bcc7ce10b1f7b7d4927db70157865f7a83e027174a74498ebe32c23aee0c4a",
    "F2/GL2": "de48e95ef94de508f0dac44911abd18cf98cb69c7bca13173f15c785111db7c2",
    "F2/GL3": "8fce964f3ff48d4564964b49a33e1065781ea8e4ba4aa0031660e2c8fbae6f46",
    "F2/DN": "3ce94f3026f6727f943b20545bf8039c9dc19af23da4565abbdedff667295dfb",
    "F2/arrow": "ac6eb9147d5ba97fde987981b22c8d96bc4f99353957eb7679a0090fa1cddf36",
    "F2/bialg-kC2": "b760c2624e461c054439c482865af90849a89c91e14fd83447ee70ac9cd118ea",
    "F2/flip-k-GL2": "48ae8dc1863f1a02015dbb3fcae9c0319175bb6dbdaac45f2b759dedee2b6cfe",
    "F2/flip-k-DN": "020a4c2a01670ac60a41323b71428a099631d8ae75780fb14d2a9dcfc78ec2e9",
    "F2/flip-kC2-GL2": "6ac795134919270167188e4f06ead949c875b23f3fee6d4e69a7ffaa5738e4ab",
    "F2/flip-kC2-DN": "1f78a21c1049a0b31548e29fe81597b536e2b828b249d2da469d52c78c73af01",
    "F2/flip-M2-GL1": "b04552e402a5c69a8f284ee03af384ea953481578d51b9b8a8d31d3dbde72015",
    "F2/flip-k-arrow": "984dffefab248ca4f610e7bb4c61d187253728edd669ab3c8fce96aa905c930a",
    "F2/doihopf-kC2": "c005d522a55fa47c6af57e80ef4d76e7a527a58ed6a0db6fff5decfdd5028d97",
    "F2/doihopf-kC2-datum": "b9ffd0cc3a9c89d67894fc52fe744bb0951d47c10aea8b699bb097378575da37",
    "F2/fact-doihopf-kC2": "774f73ef76a059b5d7ae22c6794c0bc686d864abb77f71ef46afd09c433d44d4",
    "F2/fact-flip-kC2-kC2": "b9412f19f0242d8a35784ef4815ac27eaeed1cd7bf70bec7f9b44a06505f9c28",
    "F2/fact-flip-T2-k": "02b0a7c10b5c702a5bb63d9719456e6f362e223c9df96f81b6cd00e804c4d804",
    "F2/ext-k-kC2": "36fd59251b0cffb90cd0dc5a3e20c89f79ad6e5db9f8c4b203d75dc9e8e35faa",
    "F2/ext-k-kC3": "5c5244279155431b3147f997c8b7819b4d163cd0f29c75c0d2602388b4e5471f",
    "F2/ext-k-M2": "2a403994d0e97c4486aec68b3e54eb35e8371be51ecea02360210233441b809e",
    "F2/ext-k-T2": "0d4c84f9464cc9a1c654485f708e75a1720c07d930f9ef6e55873e7324bce130",
    "F2/ext-id-kC2": "eb6282caee6099a74a46c2f66b8a163f85dd2e76ddf567e879b2fda2fc4ebbc2",
    "F3/k": "440d0d9024ad04d7b0448aace36a05506c20f4405233ff8d43edf1cb9940d73a",
    "F3/kC2": "192fdab47f3d28115f34108ac34be2ed21548c62bb817931daa6c566b51ce49b",
    "F3/kC3": "23a3653f3b4812078885cc7ac49e4e485acfa1588171dc4fc3d3c7eeb72947e5",
    "F3/M2": "fa7238b2594521a21809e0097b1260fb85f504f4b5389a5a27c87e4d3c06a5f8",
    "F3/T2": "10d836d9e758e39f6c28a04385ce02c9efa66de7283012c498737c2434432896",
    "F3/GL2": "f75f2f247d3a2561e2cd36b5797ad73c068242d9b22e21acb3b6f81a10ab8c32",
    "F3/GL3": "530c44e88767e194222f4096da8261f060d345094f4ffb30a09617237b20ae8c",
    "F3/DN": "90b71870fa197751d21d347b8a61c9cf98719cdd049f841849cae0f29a328d4c",
    "F3/arrow": "de899a3e19d4a52b385db125dd4f86dbb4be6c5c5fa0b693d9b32d14b2d91392",
    "F3/bialg-kC2": "51a19d57cd4f4cfe458240cc27ca512f8c2c0af28c7be5026b5d6a14fc86773b",
    "F3/sweedler": "5e35010cfedb3d3ab2fc555b2fc3c68bf724c885df9b4eb311b014adc3df8515",
    "F3/flip-k-GL2": "71f9e7ad5ed838d3371d885f8a89f06d7ea3f93f1c56514049fc29e24210f2f1",
    "F3/flip-k-DN": "fe4cce74a8295cf910f4bebc2dd332ad3016fd965bf5058d1a260ccfc037d9d8",
    "F3/flip-kC2-GL2": "77c3ec9a2f7cd7dac903ae0332e6e22884264efb74f807df77517eb972e57c40",
    "F3/flip-kC2-DN": "09776aa1312b91780016fdf2268550ecfc490932df57cd142450a82130b2ea1c",
    "F3/flip-M2-GL1": "4d15f1b47bfb0d0354c6933f926339464bf4f08afca5bf007e420c3ac7673425",
    "F3/flip-k-arrow": "92a93f3707ce4a0e70fff7c3db8d28d598c8312baae5c19c0a299c97812f3ca3",
    "F3/doihopf-kC2": "8e222002a0fc25a4f6cc66c815f02aca7326a13168299e73a02bfaf7e009f0b2",
    "F3/doihopf-kC2-datum": "4754d20a186a4694a1a4b34b7448c4bd733fab65d904d01844c5ca1ac4a3e12f",
    "F3/fact-doihopf-kC2": "47e0c6dbf8e6b45b7f9fb728793f0325af5c25194b68ab5e3c631fba313977b9",
    "F3/fact-flip-kC2-kC2": "ef55538ff32e449a6f48f3dc261da0965a45530cc54a471e628e64f498e61e72",
    "F3/fact-flip-T2-k": "1874d1ac3fb1e30f6e931abd5ec502a4ad0360fbdb2f5a9e40912a7f6e471bc4",
    "F3/ext-k-kC2": "d21d999a2a8acec0505478e7fa150d37b8a9e33963079caf8b3b2d9c0cf63efb",
    "F3/ext-k-kC3": "57c6fb5bc0ab2b8270a520138564b388827ea3b3cc837882f1047cc50781f190",
    "F3/ext-k-M2": "a33440f6bddcc4c346b70fd273ddf68037c0360ea1ea066c81da4304f4873142",
    "F3/ext-k-T2": "0faa4d8675dcff8d8a67d30380d54c6e21bef48c0d8bb61dadeb6989443625f0",
    "F3/ext-id-kC2": "b478525638bea463aaaa0d04f5d67c54416d5770ea58e383e282c9dcee3b5cae",
    "Q/k": "b354a91032a205efb88477eb12c794eaa7ca9b986b0f68a04c9af19822d01bd5",
    "Q/kC2": "d06dc6d05c522346e7dc3ef93187c55d92860cbf709f51c48a1092a107b81bd4",
    "Q/kC3": "9979aca2d25838d571a182c7cd6c688fe553b1cf017939ef75d7142ca0691902",
    "Q/M2": "19bfa6847e12a1a63c6eba20de27d520eab307aec3484945680ffe5b0c3040e4",
    "Q/T2": "59b85b5a5079e49555116aac446a84143a884e22d6e1be1159080efcb67ec63b",
    "Q/GL2": "d4ce2285fac692e560506ef17f567cb8ba3c3e352ca407bc7eb1a72f129c9ba2",
    "Q/GL3": "ebeb98870a38e130483a8e86375ea776e9ef7ab9cdf232d7b3b5766d19049adb",
    "Q/DN": "95fb57ef90530566fca310b1b85e5d7f4a362c77c001c2e724a3b70b8ee39882",
    "Q/arrow": "76e8796488550e39da7e9a868d7edddf6a6f4910defb1cea02e52fbb362327d0",
    "Q/bialg-kC2": "a234396c481a8b2654ba40d251930c6c90ea700d1110825ae26270e140b5b838",
    "Q/sweedler": "36e80af45d05f8b63ffc9c848711e7b1a173a0330ee7a9499ca247503d32131a",
    "Q/flip-k-GL2": "16d0a9ba5dc242e50e4fe40753d66b9b0c92bffe8bee7f415fdf1d67110aa3ef",
    "Q/flip-k-DN": "7f2ba32c1ebe283dbdd443a0d1ffb614ccf42460370d64ab5d837ec8adc42cdf",
    "Q/flip-kC2-GL2": "0fa43babe8573c8c641b4afb35f2f29368160d24f48307a73001b354f4b4559b",
    "Q/flip-kC2-DN": "1a27183df0e76b4152fc26063692bf91baa1c505dfc5e39899e9885f5e97f964",
    "Q/flip-M2-GL1": "afe37161708dc0f39fd22b5175d79ecf9bde9290ce718bce94d616d32b2cb49a",
    "Q/flip-k-arrow": "d3a9d204e01f2bb5c34d6ed3b8824809ea248a92f144b26aaa940b61e6f7052e",
    "Q/doihopf-kC2": "0d5ea01f87bbf924854a1789dd529e32ad55126e5c844ccdc8101defc52ba88f",
    "Q/doihopf-kC2-datum": "c4fa7fddd7f2d2bdde45e940b4357c21b35eb5ad0ed075f0033a0b33583aded6",
    "Q/fact-doihopf-kC2": "bdafab15ab28ba0a6c6a9e94fdee15a4b6d4afc7d37bd64ada01044c48f1cb99",
    "Q/fact-flip-kC2-kC2": "a9c98bab10858b0b2ca7f7b41abb0a83e7944300e4c9dde9d36a51e2b9504b78",
    "Q/fact-flip-T2-k": "529a344d3cb307cf2dbc221083c5c02cff10de05fcd48f91fab0ad1e90482f2e",
    "Q/ext-k-kC2": "59937d06e62ca1c3bdcbe6fb36ffc69bfde78e1e39f6af945188139525aa671f",
    "Q/ext-k-kC3": "c3745d26aa66bed0d2cffd70607e2dfab487e6ee09f7d146eacf2f0c70c2aba3",
    "Q/ext-k-M2": "43b456a39fb1e4e2d965ab9d61c3f3c98b0d2e351e4a6b749280b2ab771e641d",
    "Q/ext-k-T2": "550f9ce19a5b017dc62fe740bdd73038f23236dd537a6c687ab33435da1b15aa",
    "Q/ext-id-kC2": "b220b3f1728468a1532898335bf115fc47a6a5c9547187347c3b9fdfe6b8dab4",
}

# sha256 of `entwine corpus list`, with --format json and in text
CORPUS_LIST_SHA256 = {
    "json": "b920d43a762f475c51fe76b59c95284b9ee680e9a59c3da74d8276b2e8d64926",
    "text": "97ed4a34c779ec41f0ea498489b8197f9f2a61f404cc1c1f1f8dc253c3b8c66e",
}


def _stdout(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    return out.out


@pytest.mark.parametrize("key", sorted(EXPORT_SHA256))
def test_corpus_export_bytes_are_pinned(capsys, key):
    tag, name = key.split("/")
    out = _stdout(capsys, "corpus", "export", "--name", name, "--field", tag)
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_SHA256[key]


@pytest.mark.parametrize("fmt", sorted(CORPUS_LIST_SHA256))
def test_corpus_list_bytes_are_pinned(capsys, fmt):
    out = _stdout(capsys, "corpus", "list", "--format", fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_LIST_SHA256[fmt]


def _psi(d):
    return d["entwining"]["psi"]


def _doi(d):
    return d["doi_hopf"]


@pytest.mark.parametrize("name,tag,mangle,message", [
    # wrong key set
    ("flip-k-DN", "F2", lambda d: d["entwining"].pop("psi"),
     "entwining: expected exactly the keys algebra, coalgebra, psi"),
    ("fact-flip-kC2-kC2", "F2", lambda d: d["factorization"].pop("rmap"),
     "factorization: expected exactly the keys algebra_a, algebra_b, rmap"),
    ("ext-k-M2", "F2", lambda d: d["ring_extension"].update(extra=1),
     "ring_extension: expected exactly the keys base, embedding, total"),
    ("doihopf-kC2-datum", "F3", lambda d: _doi(d)["action"].pop("side"),
     "doi_hopf.action: expected exactly the keys side, map"),
    ("sweedler", "F3", lambda d: d["bialgebra"]["coalgebra"].update(mult=[]),
     "bialgebra.coalgebra: expected exactly the keys comult, counit"),
    # not an object, not an array
    ("kC2", "Q", lambda d: d.update(algebra=[]), "algebra: expected an object"),
    ("doihopf-kC2-datum", "F2", lambda d: _doi(d).update(coaction=["right"]),
     "doi_hopf.coaction: expected an object"),
    ("GL2", "Q", lambda d: d["coalgebra"].update(counit="1"),
     "coalgebra.counit: expected an array"),
    ("ext-k-kC2", "F3", lambda d: d["ring_extension"].update(embedding={}),
     "ring_extension.embedding: expected an array"),
    # ragged row
    ("ext-k-kC2", "F2",
     lambda d: d["ring_extension"].update(embedding=[["1"], ["0", "0"]]),
     "ring_extension.embedding[1]: ragged row (expected 1 entries)"),
    # wrong tensor shape
    ("flip-kC2-GL2", "F3", lambda d: _psi(d)[1].pop(),
     "entwining.psi[1]: expected 2 entries, found 1"),
    ("fact-flip-T2-k", "Q", lambda d: d["factorization"]["rmap"][0][2][0].append("0"),
     "factorization.rmap[0][2][0]: expected 1 entries, found 2"),
    ("kC3", "F2", lambda d: d["algebra"]["mult"].append(d["algebra"]["mult"][0]),
     "algebra.mult: expected 3 entries, found 4"),
    # empty basis
    ("kC2", "Q", lambda d: d["algebra"].update(unit=[]), "algebra.unit: empty basis"),
    ("ext-k-kC3", "F2", lambda d: d["ring_extension"]["base"].update(unit=[]),
     "ring_extension.base.unit: empty basis"),
    # side other than "right"
    ("doihopf-kC2-datum", "F3", lambda d: _doi(d)["coaction"].update(side="left"),
     "doi_hopf.coaction.side: only right-sided data is supported"),
    # matrix size
    ("ext-k-kC2", "F2", lambda d: d["ring_extension"].update(embedding=[["1"]]),
     "ring_extension.embedding: expected a 2x1 matrix"),
    ("doihopf-kC2-datum", "F2",
     lambda d: _doi(d)["action"].update(map=[["1", "0", "0", "1"]]),
     "doi_hopf.action.map: expected a 2x4 matrix"),
    # malformed scalar
    ("kC2", "Q", lambda d: d["algebra"]["mult"][1][0].__setitem__(1, "1/x"),
     "algebra.mult[1][0][1]: malformed scalar '1/x'"),
    ("GL3", "F3", lambda d: d["coalgebra"]["counit"].__setitem__(2, "1/3"),
     "coalgebra.counit[2]: denominator of '1/3' is 0 mod 3"),
    # several faults: the first in parse order is the one reported
    ("flip-kC2-GL2", "F3",
     lambda d: (_psi(d)[1].pop(), _psi(d)[1][0][1].__setitem__(0, "x")),
     "entwining.psi[1][0][1][0]: malformed scalar 'x'"),
    ("kC2", "F2",
     lambda d: (d["algebra"]["mult"].pop(), d["algebra"]["unit"].__setitem__(1, [])),
     "algebra.unit[1]: malformed scalar []"),
])
def test_malformed_input_diagnostics_are_pinned(tmp_path, capsys, name, tag,
                                                mangle, message):
    field = FIELDS[tag]
    doc = payload_to_structure_document(field, builtin(name, field).payload)
    doc = json.loads(json.dumps(doc))
    mangle(doc)
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code = main(["validate", str(p)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "error: %s\n" % message)
