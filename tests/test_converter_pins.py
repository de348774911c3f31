"""Pinned outputs of the dual standard objects, the witness converters, the
entwining-factorization dictionary and the tensor product of algebras.

Each output is pinned with its `dom`/`cod` shapes and every entry (its type
and its value), as a truncated sha256 digest, for one entwining at a time:

* the structure maps of `std_object_CstarA` and `std_object_AstarC`;
* `theta_to_phibar` / `z_to_phi` on every V1 / W1 basis element and
  `e_to_omega` / `vartheta_to_omegabar` on every W1' / V1' basis element,
  each also on one seeded random input;
* the four inverse converters on those outputs and on one seeded random
  morphism each;
* `entwining_to_factorization` and, on its result, `factorization_to_entwining`;
* `AlgebraData.tensor` of A with the opposite dual algebra of C.

The cases are the corpus entwinings over F2, F3 and Q, the five random
Doi-Hopf entwinings of `test_law_builder`, and the corpus entwinings over Q
and F3 in the rescaled bases e_0, 2 e_1, 2 e_2, ... of A and of C.  Every
structure constant of the corpus is 0 or 1; the rescaled bases bring in 2,
4 and 1/2, so a dropped factor in a formula changes a digest.

The digests were generated on the code before these outputs were built by
regrouping the legs of composed maps (when each was a hand-indexed loop
over the structure constants), so they pin that the regrouped formulas
reproduce the old outputs entry for entry.  Regenerate them only for a
change that is meant to alter an output:

    PYTHONPATH=src python tests/test_converter_pins.py
"""

import hashlib
import random

import pytest

from entwine import actforget, coforget
from entwine.corpus import corpus_entwinings, random_doi_hopf
from entwine.entwining import (
    Entwining,
    from_doi_hopf,
    std_object_AstarC,
    std_object_CstarA,
)
from entwine.exactlin import QQ, Field, LinMap, prod
from entwine.smash import entwining_to_factorization, factorization_to_entwining
from _rescaled import rescaled_entwining
from test_law_builder import RANDOM_DOI_HOPF

FIELDS = (("F2", Field("Fp", 2)), ("F3", Field("Fp", 3)), ("Q", QQ))


def cases() -> dict:
    """{case name: entwining}."""
    out = {}
    fields = dict(FIELDS)
    for tag, field in FIELDS:
        for name, e in corpus_entwinings(field):
            out["%s/%s" % (tag, name)] = e
    for dims, tag, seed in RANDOM_DOI_HOPF:
        out["%s/doihopf%s-seed%d" % (tag, "".join(map(str, dims)), seed)] = \
            from_doi_hopf(random_doi_hopf(dims, fields[tag], seed))
    for tag in ("Q", "F3"):
        for name, e in corpus_entwinings(fields[tag]):
            out["%s/%s-rescaled" % (tag, name)] = rescaled_entwining(e)
    return out


def _random_map(field, dom, cod, rng):
    return LinMap.from_rows(field, dom, cod, [[field.random(rng) for _ in range(prod(dom))]
                                              for _ in range(prod(cod))])


def _plain(x):
    """A map, a vector or a structure-constant array as plain data: the
    shapes of a map, and every entry as its type name and value."""
    if isinstance(x, LinMap):
        return (x.dom, x.cod, _plain(x.mat))
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return (type(x).__name__, str(x))


def outputs(e: Entwining) -> dict:
    """{output name: list of outputs} for one entwining."""
    f = e.field
    na, nc = e.a.dim, e.c.dim
    rng = random.Random(0)
    csa, asc = std_object_CstarA(e), std_object_AstarC(e)
    thetas = coforget.compute_V1(e).basis + [_random_map(f, (nc, nc), (na,), rng)]
    zs = coforget.compute_W1(e).basis + [tuple(f.random(rng) for _ in range(na * nc))]
    ems = actforget.compute_W1prime(e).basis + [_random_map(f, (nc,), (na, na), rng)]
    vts = actforget.compute_V1prime(e).basis + [_random_map(f, (nc, na), (1,), rng)]
    phibars = [coforget.theta_to_phibar(e, th) for th in thetas]
    phis = [coforget.z_to_phi(e, z) for z in zs]
    omegas = [actforget.e_to_omega(e, em) for em in ems]
    omegabars = [actforget.vartheta_to_omegabar(e, vt) for vt in vts]
    fact = entwining_to_factorization(e)
    return {
        "CstarA": [csa.act, csa.coact, csa.lact],
        "AstarC": [asc.act, asc.coact, asc.lcoact],
        "theta_to_phibar": phibars,
        "z_to_phi": phis,
        "e_to_omega": omegas,
        "vartheta_to_omegabar": omegabars,
        "phibar_to_theta": [coforget.phibar_to_theta(e, m) for m in
                            phibars + [_random_map(f, (na, nc), (nc, na), rng)]],
        "phi_to_z": [coforget.phi_to_z(e, m) for m in
                     phis + [_random_map(f, (nc, na), (na, nc), rng)]],
        "omega_to_e": [actforget.omega_to_e(e, m) for m in
                       omegas + [_random_map(f, (na, nc), (nc, na), rng)]],
        "omegabar_to_vartheta": [actforget.omegabar_to_vartheta(e, m) for m in
                                 omegabars + [_random_map(f, (nc, na), (na, nc), rng)]],
        "to_factorization": [fact.rmap, fact.b.mult, fact.b.unit],
        "to_entwining": [factorization_to_entwining(fact, e.c).psi],
        "tensor": [e.a.tensor(fact.b).mult, e.a.tensor(fact.b).unit],
    }


def _digest(values) -> str:
    return hashlib.sha256(repr(_plain(values)).encode()).hexdigest()[:16]


CASES = cases()


def digests() -> dict:
    return {"%s/%s" % (case, name): _digest(values)
            for case, e in CASES.items() for name, values in outputs(e).items()}


def _leaves(x):
    if isinstance(x, (tuple, list)):
        for v in x:
            yield from _leaves(v)
    else:
        yield x


def test_some_case_has_constants_outside_0_and_1():
    """The rescaled bases are what make the pins sensitive to each factor:
    psi, the multiplication and the comultiplication each take a value
    other than 0 and 1 in some case."""
    for constants in (lambda e: e.psi.mat, lambda e: e.a.mult, lambda e: e.c.comult):
        assert any(x not in (0, 1) for e in CASES.values() for x in _leaves(constants(e)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pins(case):
    got = {name: _digest(values) for name, values in outputs(CASES[case]).items()}
    want = {name[len(case) + 1:]: d for name, d in PINNED.items()
            if name.rsplit("/", 1)[0] == case}
    assert got == want


PINNED = {
    'F2/flip-k-GL2/CstarA': '9ea5fbd062f0923b',
    'F2/flip-k-GL2/AstarC': 'bc08bb23fddcc4b3',
    'F2/flip-k-GL2/theta_to_phibar': '37093a3cda7019c9',
    'F2/flip-k-GL2/z_to_phi': '36e2aedc3cdeafda',
    'F2/flip-k-GL2/e_to_omega': 'aaaad07ca23d144c',
    'F2/flip-k-GL2/vartheta_to_omegabar': '350cca12e15e0e58',
    'F2/flip-k-GL2/phibar_to_theta': '525ee083ad90d24c',
    'F2/flip-k-GL2/phi_to_z': '37427cdebd4aa83d',
    'F2/flip-k-GL2/omega_to_e': 'e94df21492b32ba6',
    'F2/flip-k-GL2/omegabar_to_vartheta': '149d41f1c2b2bb77',
    'F2/flip-k-GL2/to_factorization': '237f5c9577b3138a',
    'F2/flip-k-GL2/to_entwining': '9ac9f39d4246db89',
    'F2/flip-k-GL2/tensor': 'e62bc44deb7fea46',
    'F2/flip-k-DN/CstarA': '0659111156172c6d',
    'F2/flip-k-DN/AstarC': 'a01b29ae0d550a68',
    'F2/flip-k-DN/theta_to_phibar': 'c02a66b5e97444c8',
    'F2/flip-k-DN/z_to_phi': '16247b5ac97f5d96',
    'F2/flip-k-DN/e_to_omega': '530ff76d70e6f92c',
    'F2/flip-k-DN/vartheta_to_omegabar': '12fad07fb41e916c',
    'F2/flip-k-DN/phibar_to_theta': '3b438f763276facd',
    'F2/flip-k-DN/phi_to_z': '37427cdebd4aa83d',
    'F2/flip-k-DN/omega_to_e': 'b9a4327d66b07bee',
    'F2/flip-k-DN/omegabar_to_vartheta': '048d778e29525d98',
    'F2/flip-k-DN/to_factorization': '6e9dd78859e35ab8',
    'F2/flip-k-DN/to_entwining': '9ac9f39d4246db89',
    'F2/flip-k-DN/tensor': '4a8f44973e7e5e4a',
    'F2/flip-kC2-GL2/CstarA': '183620f70f1b11df',
    'F2/flip-kC2-GL2/AstarC': '43312d6f17e4dba7',
    'F2/flip-kC2-GL2/theta_to_phibar': '72d0befa1abd868d',
    'F2/flip-kC2-GL2/z_to_phi': 'af3797ba45a725de',
    'F2/flip-kC2-GL2/e_to_omega': '67beed8fbcf4aa24',
    'F2/flip-kC2-GL2/vartheta_to_omegabar': '4518a62df0f683c0',
    'F2/flip-kC2-GL2/phibar_to_theta': 'be7920463e985a23',
    'F2/flip-kC2-GL2/phi_to_z': 'e74b31d376ea7319',
    'F2/flip-kC2-GL2/omega_to_e': '22dc0611ec76c9a8',
    'F2/flip-kC2-GL2/omegabar_to_vartheta': 'fc4ab9b313b3a101',
    'F2/flip-kC2-GL2/to_factorization': 'ca8e39dced1d1b29',
    'F2/flip-kC2-GL2/to_entwining': '89cb0fb3964731bc',
    'F2/flip-kC2-GL2/tensor': '3cbb5809ba9a6599',
    'F2/flip-kC2-DN/CstarA': 'ad3ae3db05481404',
    'F2/flip-kC2-DN/AstarC': '47c0dd3b884dafa5',
    'F2/flip-kC2-DN/theta_to_phibar': '0d2ead2077c8a33b',
    'F2/flip-kC2-DN/z_to_phi': '690002b23d46e0ae',
    'F2/flip-kC2-DN/e_to_omega': '9d93865f5e7ae31e',
    'F2/flip-kC2-DN/vartheta_to_omegabar': 'fa393586b1c53f95',
    'F2/flip-kC2-DN/phibar_to_theta': '7793eae294db84a7',
    'F2/flip-kC2-DN/phi_to_z': 'b0c9e055178e7991',
    'F2/flip-kC2-DN/omega_to_e': '65b1d35b47b7d1bd',
    'F2/flip-kC2-DN/omegabar_to_vartheta': '69460146e157802f',
    'F2/flip-kC2-DN/to_factorization': 'd8f44dce86406572',
    'F2/flip-kC2-DN/to_entwining': '89cb0fb3964731bc',
    'F2/flip-kC2-DN/tensor': '70b05abe6a0de14c',
    'F2/flip-M2-GL1/CstarA': '20c7ff3ee2971874',
    'F2/flip-M2-GL1/AstarC': 'fa5909e174925271',
    'F2/flip-M2-GL1/theta_to_phibar': 'c00154c72b0ff8bf',
    'F2/flip-M2-GL1/z_to_phi': '2b099ef32a9f270f',
    'F2/flip-M2-GL1/e_to_omega': 'c7c2426614857c4e',
    'F2/flip-M2-GL1/vartheta_to_omegabar': 'bddd1918f5bd9b5f',
    'F2/flip-M2-GL1/phibar_to_theta': '68835b0f924a64b7',
    'F2/flip-M2-GL1/phi_to_z': 'a5bd93511d8eb6b2',
    'F2/flip-M2-GL1/omega_to_e': '722a0c403f1affb9',
    'F2/flip-M2-GL1/omegabar_to_vartheta': 'a21bb9061a8e069d',
    'F2/flip-M2-GL1/to_factorization': 'e82a9ab35fbd4f7d',
    'F2/flip-M2-GL1/to_entwining': '94435734e7e31bd9',
    'F2/flip-M2-GL1/tensor': '30664b1e84945a1f',
    'F2/flip-k-arrow/CstarA': 'feeda57c2999bf87',
    'F2/flip-k-arrow/AstarC': 'a6c917129a2a482d',
    'F2/flip-k-arrow/theta_to_phibar': '30e716168a427603',
    'F2/flip-k-arrow/z_to_phi': 'c5009d95e47b4692',
    'F2/flip-k-arrow/e_to_omega': '327902d127f8d773',
    'F2/flip-k-arrow/vartheta_to_omegabar': 'b3d0005dcc31f20d',
    'F2/flip-k-arrow/phibar_to_theta': 'f27f62343464d6a3',
    'F2/flip-k-arrow/phi_to_z': 'f636496600865ad2',
    'F2/flip-k-arrow/omega_to_e': '8a6b60aa23b7743e',
    'F2/flip-k-arrow/omegabar_to_vartheta': '8ce52f19e589da58',
    'F2/flip-k-arrow/to_factorization': 'a18c4d2699fc53e6',
    'F2/flip-k-arrow/to_entwining': '6a4a5f10a9f1291c',
    'F2/flip-k-arrow/tensor': 'f0e0e8cbbfe38108',
    'F2/doihopf-kC2/CstarA': 'eea29dbafba03468',
    'F2/doihopf-kC2/AstarC': '118d1045dff50921',
    'F2/doihopf-kC2/theta_to_phibar': '9247eefb33c5a7f0',
    'F2/doihopf-kC2/z_to_phi': '84c5e14a3e1a38f3',
    'F2/doihopf-kC2/e_to_omega': 'bc71cce650673064',
    'F2/doihopf-kC2/vartheta_to_omegabar': 'deff9dfb5160533a',
    'F2/doihopf-kC2/phibar_to_theta': '88a0005c5d20d34e',
    'F2/doihopf-kC2/phi_to_z': '98d6a9903a397236',
    'F2/doihopf-kC2/omega_to_e': '888d544ea2e7bd75',
    'F2/doihopf-kC2/omegabar_to_vartheta': '60a8321d952fed43',
    'F2/doihopf-kC2/to_factorization': '3333414a1334e1ea',
    'F2/doihopf-kC2/to_entwining': 'e4010932868d8e64',
    'F2/doihopf-kC2/tensor': '3cbb5809ba9a6599',
    'F3/flip-k-GL2/CstarA': '2536a872166cd5c4',
    'F3/flip-k-GL2/AstarC': '8262a10bfe0e526a',
    'F3/flip-k-GL2/theta_to_phibar': '77556bacc56bb143',
    'F3/flip-k-GL2/z_to_phi': '4ec05c9d3ee75391',
    'F3/flip-k-GL2/e_to_omega': '59fba985a2b2d964',
    'F3/flip-k-GL2/vartheta_to_omegabar': '6d5b166edff928a1',
    'F3/flip-k-GL2/phibar_to_theta': '7177fff4cd0d629c',
    'F3/flip-k-GL2/phi_to_z': '7951dfc08dec0257',
    'F3/flip-k-GL2/omega_to_e': '6fc0bc361e9617b9',
    'F3/flip-k-GL2/omegabar_to_vartheta': '6379f51276a416e3',
    'F3/flip-k-GL2/to_factorization': '00fe536cd127b8a5',
    'F3/flip-k-GL2/to_entwining': 'ddf10e11bf48cff1',
    'F3/flip-k-GL2/tensor': '82ef1b1002a7df81',
    'F3/flip-k-DN/CstarA': 'dba0fac7fa4d3ba1',
    'F3/flip-k-DN/AstarC': '9878dc83c588e6c3',
    'F3/flip-k-DN/theta_to_phibar': '8be5bfb79b1165fd',
    'F3/flip-k-DN/z_to_phi': 'bc11f84bdb3550e8',
    'F3/flip-k-DN/e_to_omega': '7630458f401e90ea',
    'F3/flip-k-DN/vartheta_to_omegabar': '519a27c933c76b34',
    'F3/flip-k-DN/phibar_to_theta': '2983309aaece5e28',
    'F3/flip-k-DN/phi_to_z': '846506bd3addb0e2',
    'F3/flip-k-DN/omega_to_e': 'cc127881202d9a33',
    'F3/flip-k-DN/omegabar_to_vartheta': '4c1acfd9db667c3f',
    'F3/flip-k-DN/to_factorization': 'cde8bbc9a84d9d48',
    'F3/flip-k-DN/to_entwining': 'ddf10e11bf48cff1',
    'F3/flip-k-DN/tensor': 'a97b5dae561ed7fc',
    'F3/flip-kC2-GL2/CstarA': '9195fe32a6b2330e',
    'F3/flip-kC2-GL2/AstarC': 'e11fafa0acb07139',
    'F3/flip-kC2-GL2/theta_to_phibar': 'ca6ad842a508dcf4',
    'F3/flip-kC2-GL2/z_to_phi': '2de3e4b99f7dda18',
    'F3/flip-kC2-GL2/e_to_omega': '1c33bb5028e3cfef',
    'F3/flip-kC2-GL2/vartheta_to_omegabar': 'bfbb59851cba8905',
    'F3/flip-kC2-GL2/phibar_to_theta': '2e6c446b8f5644dd',
    'F3/flip-kC2-GL2/phi_to_z': '1d47c4efb46fc561',
    'F3/flip-kC2-GL2/omega_to_e': 'c6e582745c2ca176',
    'F3/flip-kC2-GL2/omegabar_to_vartheta': '213fb4ed74ea741d',
    'F3/flip-kC2-GL2/to_factorization': '83d3c6effb95a4b0',
    'F3/flip-kC2-GL2/to_entwining': '87f58d5a0c9cb225',
    'F3/flip-kC2-GL2/tensor': 'f2ed0892db364f84',
    'F3/flip-kC2-DN/CstarA': '695c32bc150c6bfc',
    'F3/flip-kC2-DN/AstarC': 'd48053380e82fa47',
    'F3/flip-kC2-DN/theta_to_phibar': '813531447c800702',
    'F3/flip-kC2-DN/z_to_phi': 'c398b109bd118bc2',
    'F3/flip-kC2-DN/e_to_omega': '467a0939e273fc5b',
    'F3/flip-kC2-DN/vartheta_to_omegabar': '5d7ca04382bf326c',
    'F3/flip-kC2-DN/phibar_to_theta': '3045d5b344f23834',
    'F3/flip-kC2-DN/phi_to_z': 'c9d2d4571c9cd146',
    'F3/flip-kC2-DN/omega_to_e': 'f71b21452616555d',
    'F3/flip-kC2-DN/omegabar_to_vartheta': '94b753caec9179fe',
    'F3/flip-kC2-DN/to_factorization': 'c44568567df18682',
    'F3/flip-kC2-DN/to_entwining': '87f58d5a0c9cb225',
    'F3/flip-kC2-DN/tensor': '252a5dc0230efe7f',
    'F3/flip-M2-GL1/CstarA': '611412c262319acc',
    'F3/flip-M2-GL1/AstarC': '54bf754cd14d71a5',
    'F3/flip-M2-GL1/theta_to_phibar': '6fafa93a4bac57bc',
    'F3/flip-M2-GL1/z_to_phi': 'ca3a73d4511861f5',
    'F3/flip-M2-GL1/e_to_omega': 'b07da8f1a35f0bbf',
    'F3/flip-M2-GL1/vartheta_to_omegabar': '8e01fcaa927ff9c5',
    'F3/flip-M2-GL1/phibar_to_theta': '620bb2029d36c2c7',
    'F3/flip-M2-GL1/phi_to_z': 'ff199e460138b9b5',
    'F3/flip-M2-GL1/omega_to_e': '14259c7ab36ca010',
    'F3/flip-M2-GL1/omegabar_to_vartheta': '3f86a234cd5cca13',
    'F3/flip-M2-GL1/to_factorization': '967fde7d17d1581d',
    'F3/flip-M2-GL1/to_entwining': '43647276a54f9b75',
    'F3/flip-M2-GL1/tensor': '754131114bc84424',
    'F3/flip-k-arrow/CstarA': 'a3f10cf43073c894',
    'F3/flip-k-arrow/AstarC': 'ffefce6435229f9d',
    'F3/flip-k-arrow/theta_to_phibar': 'da23cd59cb8085db',
    'F3/flip-k-arrow/z_to_phi': '243e0819c0c8c980',
    'F3/flip-k-arrow/e_to_omega': 'a77df081887316d4',
    'F3/flip-k-arrow/vartheta_to_omegabar': 'b8e8e9844ce369c7',
    'F3/flip-k-arrow/phibar_to_theta': '257740647b8034a2',
    'F3/flip-k-arrow/phi_to_z': 'c9af402acd611530',
    'F3/flip-k-arrow/omega_to_e': '495868e48ba0c278',
    'F3/flip-k-arrow/omegabar_to_vartheta': '101016d260b358e6',
    'F3/flip-k-arrow/to_factorization': '484adbcd65402b27',
    'F3/flip-k-arrow/to_entwining': '6503ca0f105e2ade',
    'F3/flip-k-arrow/tensor': '040dac449c3a9971',
    'F3/doihopf-kC2/CstarA': 'e44c9050133588be',
    'F3/doihopf-kC2/AstarC': '34930df6f4ec2d4a',
    'F3/doihopf-kC2/theta_to_phibar': 'c989542222f7fb00',
    'F3/doihopf-kC2/z_to_phi': '48905f878758b853',
    'F3/doihopf-kC2/e_to_omega': '4b96e23f84c42f28',
    'F3/doihopf-kC2/vartheta_to_omegabar': '4af066c8f4575860',
    'F3/doihopf-kC2/phibar_to_theta': 'cd0c6a80fbc913cd',
    'F3/doihopf-kC2/phi_to_z': '819e17f4d2ee2064',
    'F3/doihopf-kC2/omega_to_e': '4e8e210b8815e3b6',
    'F3/doihopf-kC2/omegabar_to_vartheta': '1ae04ce17b394e7d',
    'F3/doihopf-kC2/to_factorization': 'a9f64dddfe96b907',
    'F3/doihopf-kC2/to_entwining': 'b50fcaffeb2e8e72',
    'F3/doihopf-kC2/tensor': 'f2ed0892db364f84',
    'Q/flip-k-GL2/CstarA': '7771dc791fef3476',
    'Q/flip-k-GL2/AstarC': '084769d3b13ad1e1',
    'Q/flip-k-GL2/theta_to_phibar': '59533e3000ad8211',
    'Q/flip-k-GL2/z_to_phi': '2751d2900e2992f7',
    'Q/flip-k-GL2/e_to_omega': 'afc5801973edd61b',
    'Q/flip-k-GL2/vartheta_to_omegabar': '59481ffbeae61ffa',
    'Q/flip-k-GL2/phibar_to_theta': 'a65961735468c6da',
    'Q/flip-k-GL2/phi_to_z': '2570f67b6faa97b7',
    'Q/flip-k-GL2/omega_to_e': '135b21273a37f959',
    'Q/flip-k-GL2/omegabar_to_vartheta': '38c5582029518487',
    'Q/flip-k-GL2/to_factorization': 'ec101e3729b8af90',
    'Q/flip-k-GL2/to_entwining': 'e958bcd2728bf511',
    'Q/flip-k-GL2/tensor': '0dd3080391361e79',
    'Q/flip-k-DN/CstarA': 'c298e5665ca260d1',
    'Q/flip-k-DN/AstarC': 'b2195e32bf148f8d',
    'Q/flip-k-DN/theta_to_phibar': '1e2238db055fc0a2',
    'Q/flip-k-DN/z_to_phi': '832b292c4d7c71ca',
    'Q/flip-k-DN/e_to_omega': '5e3d11815cda50aa',
    'Q/flip-k-DN/vartheta_to_omegabar': '23b83b919d340c07',
    'Q/flip-k-DN/phibar_to_theta': 'faed9b05370af600',
    'Q/flip-k-DN/phi_to_z': 'a3fc09f101558db0',
    'Q/flip-k-DN/omega_to_e': '6b87c4775dcbc63a',
    'Q/flip-k-DN/omegabar_to_vartheta': 'c056252f48b5792f',
    'Q/flip-k-DN/to_factorization': 'fc24c575a96529cb',
    'Q/flip-k-DN/to_entwining': 'e958bcd2728bf511',
    'Q/flip-k-DN/tensor': 'b76147941b22afd7',
    'Q/flip-kC2-GL2/CstarA': 'b1d050649c339080',
    'Q/flip-kC2-GL2/AstarC': '290ded3d831096bd',
    'Q/flip-kC2-GL2/theta_to_phibar': 'bf3de7f66a5565b7',
    'Q/flip-kC2-GL2/z_to_phi': '93c1629cdfce6fe2',
    'Q/flip-kC2-GL2/e_to_omega': 'a3d7c23070e19776',
    'Q/flip-kC2-GL2/vartheta_to_omegabar': '7794ac6f8f99bc9a',
    'Q/flip-kC2-GL2/phibar_to_theta': 'dbd296e9d9475f2b',
    'Q/flip-kC2-GL2/phi_to_z': '299fb2cde1847d1b',
    'Q/flip-kC2-GL2/omega_to_e': 'e81a6f2565bdfd38',
    'Q/flip-kC2-GL2/omegabar_to_vartheta': 'bdae99ea7293cf7e',
    'Q/flip-kC2-GL2/to_factorization': '193cbf5ea3bbe9ee',
    'Q/flip-kC2-GL2/to_entwining': '9ee4661d066bcda0',
    'Q/flip-kC2-GL2/tensor': '808fce3a710cf582',
    'Q/flip-kC2-DN/CstarA': '6bdfd9064e864d4b',
    'Q/flip-kC2-DN/AstarC': '114b7c87b3b93331',
    'Q/flip-kC2-DN/theta_to_phibar': 'eedcac0a35aae0df',
    'Q/flip-kC2-DN/z_to_phi': 'f3bbe31126f034ef',
    'Q/flip-kC2-DN/e_to_omega': '11e2ae7cbd07f428',
    'Q/flip-kC2-DN/vartheta_to_omegabar': '4f67595036833d99',
    'Q/flip-kC2-DN/phibar_to_theta': '35198f08c2b5af1a',
    'Q/flip-kC2-DN/phi_to_z': '9f28f4d8c27a8815',
    'Q/flip-kC2-DN/omega_to_e': '6a5e53a241444539',
    'Q/flip-kC2-DN/omegabar_to_vartheta': '27ab254d53373c78',
    'Q/flip-kC2-DN/to_factorization': '74d8f8db167580f0',
    'Q/flip-kC2-DN/to_entwining': '9ee4661d066bcda0',
    'Q/flip-kC2-DN/tensor': 'ea3d099d53af86f0',
    'Q/flip-M2-GL1/CstarA': '37b24e9eaf143c19',
    'Q/flip-M2-GL1/AstarC': 'db2c96015f36fd92',
    'Q/flip-M2-GL1/theta_to_phibar': '1684dce505b58e75',
    'Q/flip-M2-GL1/z_to_phi': '057b6ff0f0748a9a',
    'Q/flip-M2-GL1/e_to_omega': 'f74c8f0750bf00fc',
    'Q/flip-M2-GL1/vartheta_to_omegabar': 'efdfdd64d4cd7f50',
    'Q/flip-M2-GL1/phibar_to_theta': 'cd08d0714531b9ec',
    'Q/flip-M2-GL1/phi_to_z': 'd342850f0fc0b502',
    'Q/flip-M2-GL1/omega_to_e': '420d61d8af175340',
    'Q/flip-M2-GL1/omegabar_to_vartheta': 'da8cf2f40de2d712',
    'Q/flip-M2-GL1/to_factorization': '0c4f9e3851c28bd3',
    'Q/flip-M2-GL1/to_entwining': '4a3127674b185401',
    'Q/flip-M2-GL1/tensor': '3fd880ca21e2846c',
    'Q/flip-k-arrow/CstarA': 'aa58952fe8c08b83',
    'Q/flip-k-arrow/AstarC': '06e59085d0b64647',
    'Q/flip-k-arrow/theta_to_phibar': 'e7325f0e9bf9fbf5',
    'Q/flip-k-arrow/z_to_phi': '9f0b53ab477318fe',
    'Q/flip-k-arrow/e_to_omega': '5901e09e14f7139c',
    'Q/flip-k-arrow/vartheta_to_omegabar': 'a63dae97206a0b38',
    'Q/flip-k-arrow/phibar_to_theta': 'ce30c39b8c9df9b7',
    'Q/flip-k-arrow/phi_to_z': '0a918270f3ab121d',
    'Q/flip-k-arrow/omega_to_e': 'afac1d16ac607e5f',
    'Q/flip-k-arrow/omegabar_to_vartheta': '3917999c919254c9',
    'Q/flip-k-arrow/to_factorization': '818743b8ae6f5db8',
    'Q/flip-k-arrow/to_entwining': '69e04d1d71724492',
    'Q/flip-k-arrow/tensor': '5d416ffa1773e1f7',
    'Q/doihopf-kC2/CstarA': '0f8fb6f734244b27',
    'Q/doihopf-kC2/AstarC': 'cc4061e5e55a10d7',
    'Q/doihopf-kC2/theta_to_phibar': 'e5b36001589e8fa4',
    'Q/doihopf-kC2/z_to_phi': 'cc99ee1faa36ac06',
    'Q/doihopf-kC2/e_to_omega': 'ea819a3b555a44f2',
    'Q/doihopf-kC2/vartheta_to_omegabar': '872e4554605f49f7',
    'Q/doihopf-kC2/phibar_to_theta': '383879a67ce7721b',
    'Q/doihopf-kC2/phi_to_z': 'a9719e071debc18e',
    'Q/doihopf-kC2/omega_to_e': '1625d4526858ac78',
    'Q/doihopf-kC2/omegabar_to_vartheta': 'f64cd8dfefdad0e8',
    'Q/doihopf-kC2/to_factorization': '3ddb2894bfd02a05',
    'Q/doihopf-kC2/to_entwining': '2e7d1e5ab9bf39b4',
    'Q/doihopf-kC2/tensor': '808fce3a710cf582',
    'F2/doihopf222-seed0/CstarA': '183620f70f1b11df',
    'F2/doihopf222-seed0/AstarC': '43312d6f17e4dba7',
    'F2/doihopf222-seed0/theta_to_phibar': '72d0befa1abd868d',
    'F2/doihopf222-seed0/z_to_phi': 'af3797ba45a725de',
    'F2/doihopf222-seed0/e_to_omega': '67beed8fbcf4aa24',
    'F2/doihopf222-seed0/vartheta_to_omegabar': '4518a62df0f683c0',
    'F2/doihopf222-seed0/phibar_to_theta': 'be7920463e985a23',
    'F2/doihopf222-seed0/phi_to_z': 'e74b31d376ea7319',
    'F2/doihopf222-seed0/omega_to_e': '22dc0611ec76c9a8',
    'F2/doihopf222-seed0/omegabar_to_vartheta': 'fc4ab9b313b3a101',
    'F2/doihopf222-seed0/to_factorization': 'ca8e39dced1d1b29',
    'F2/doihopf222-seed0/to_entwining': '89cb0fb3964731bc',
    'F2/doihopf222-seed0/tensor': '3cbb5809ba9a6599',
    'F2/doihopf222-seed1/CstarA': '183620f70f1b11df',
    'F2/doihopf222-seed1/AstarC': '43312d6f17e4dba7',
    'F2/doihopf222-seed1/theta_to_phibar': '72d0befa1abd868d',
    'F2/doihopf222-seed1/z_to_phi': 'af3797ba45a725de',
    'F2/doihopf222-seed1/e_to_omega': '67beed8fbcf4aa24',
    'F2/doihopf222-seed1/vartheta_to_omegabar': '4518a62df0f683c0',
    'F2/doihopf222-seed1/phibar_to_theta': 'be7920463e985a23',
    'F2/doihopf222-seed1/phi_to_z': 'e74b31d376ea7319',
    'F2/doihopf222-seed1/omega_to_e': '22dc0611ec76c9a8',
    'F2/doihopf222-seed1/omegabar_to_vartheta': 'fc4ab9b313b3a101',
    'F2/doihopf222-seed1/to_factorization': 'ca8e39dced1d1b29',
    'F2/doihopf222-seed1/to_entwining': '89cb0fb3964731bc',
    'F2/doihopf222-seed1/tensor': '3cbb5809ba9a6599',
    'F2/doihopf222-seed2/CstarA': '183620f70f1b11df',
    'F2/doihopf222-seed2/AstarC': '43312d6f17e4dba7',
    'F2/doihopf222-seed2/theta_to_phibar': '72d0befa1abd868d',
    'F2/doihopf222-seed2/z_to_phi': 'af3797ba45a725de',
    'F2/doihopf222-seed2/e_to_omega': '67beed8fbcf4aa24',
    'F2/doihopf222-seed2/vartheta_to_omegabar': '4518a62df0f683c0',
    'F2/doihopf222-seed2/phibar_to_theta': 'be7920463e985a23',
    'F2/doihopf222-seed2/phi_to_z': 'e74b31d376ea7319',
    'F2/doihopf222-seed2/omega_to_e': '22dc0611ec76c9a8',
    'F2/doihopf222-seed2/omegabar_to_vartheta': 'fc4ab9b313b3a101',
    'F2/doihopf222-seed2/to_factorization': 'ca8e39dced1d1b29',
    'F2/doihopf222-seed2/to_entwining': '89cb0fb3964731bc',
    'F2/doihopf222-seed2/tensor': '3cbb5809ba9a6599',
    'F3/doihopf222-seed1/CstarA': '9195fe32a6b2330e',
    'F3/doihopf222-seed1/AstarC': 'e11fafa0acb07139',
    'F3/doihopf222-seed1/theta_to_phibar': 'ca6ad842a508dcf4',
    'F3/doihopf222-seed1/z_to_phi': '2de3e4b99f7dda18',
    'F3/doihopf222-seed1/e_to_omega': '1c33bb5028e3cfef',
    'F3/doihopf222-seed1/vartheta_to_omegabar': 'bfbb59851cba8905',
    'F3/doihopf222-seed1/phibar_to_theta': '2e6c446b8f5644dd',
    'F3/doihopf222-seed1/phi_to_z': '1d47c4efb46fc561',
    'F3/doihopf222-seed1/omega_to_e': 'c6e582745c2ca176',
    'F3/doihopf222-seed1/omegabar_to_vartheta': '213fb4ed74ea741d',
    'F3/doihopf222-seed1/to_factorization': '83d3c6effb95a4b0',
    'F3/doihopf222-seed1/to_entwining': '87f58d5a0c9cb225',
    'F3/doihopf222-seed1/tensor': 'f2ed0892db364f84',
    'F3/doihopf122-seed2/CstarA': '9195fe32a6b2330e',
    'F3/doihopf122-seed2/AstarC': 'e11fafa0acb07139',
    'F3/doihopf122-seed2/theta_to_phibar': 'ca6ad842a508dcf4',
    'F3/doihopf122-seed2/z_to_phi': '2de3e4b99f7dda18',
    'F3/doihopf122-seed2/e_to_omega': '1c33bb5028e3cfef',
    'F3/doihopf122-seed2/vartheta_to_omegabar': 'bfbb59851cba8905',
    'F3/doihopf122-seed2/phibar_to_theta': '2e6c446b8f5644dd',
    'F3/doihopf122-seed2/phi_to_z': '1d47c4efb46fc561',
    'F3/doihopf122-seed2/omega_to_e': 'c6e582745c2ca176',
    'F3/doihopf122-seed2/omegabar_to_vartheta': '213fb4ed74ea741d',
    'F3/doihopf122-seed2/to_factorization': '83d3c6effb95a4b0',
    'F3/doihopf122-seed2/to_entwining': '87f58d5a0c9cb225',
    'F3/doihopf122-seed2/tensor': 'f2ed0892db364f84',
    'Q/flip-k-GL2-rescaled/CstarA': '42d6930f55421fd7',
    'Q/flip-k-GL2-rescaled/AstarC': '06e99e762ae95974',
    'Q/flip-k-GL2-rescaled/theta_to_phibar': '59533e3000ad8211',
    'Q/flip-k-GL2-rescaled/z_to_phi': '9923697970f92136',
    'Q/flip-k-GL2-rescaled/e_to_omega': 'c0b153e76a86c2e2',
    'Q/flip-k-GL2-rescaled/vartheta_to_omegabar': 'd75904b8a80b6817',
    'Q/flip-k-GL2-rescaled/phibar_to_theta': 'a65961735468c6da',
    'Q/flip-k-GL2-rescaled/phi_to_z': 'e428c34a40a7400b',
    'Q/flip-k-GL2-rescaled/omega_to_e': '66e9bb9fbe8d817c',
    'Q/flip-k-GL2-rescaled/omegabar_to_vartheta': '81d8c9d3fa898726',
    'Q/flip-k-GL2-rescaled/to_factorization': 'f499eda919a3b299',
    'Q/flip-k-GL2-rescaled/to_entwining': 'e958bcd2728bf511',
    'Q/flip-k-GL2-rescaled/tensor': '28fcf6f7cb966b83',
    'Q/flip-k-DN-rescaled/CstarA': 'c298e5665ca260d1',
    'Q/flip-k-DN-rescaled/AstarC': 'b2195e32bf148f8d',
    'Q/flip-k-DN-rescaled/theta_to_phibar': '1e2238db055fc0a2',
    'Q/flip-k-DN-rescaled/z_to_phi': '832b292c4d7c71ca',
    'Q/flip-k-DN-rescaled/e_to_omega': '5e3d11815cda50aa',
    'Q/flip-k-DN-rescaled/vartheta_to_omegabar': '23b83b919d340c07',
    'Q/flip-k-DN-rescaled/phibar_to_theta': 'faed9b05370af600',
    'Q/flip-k-DN-rescaled/phi_to_z': 'a3fc09f101558db0',
    'Q/flip-k-DN-rescaled/omega_to_e': '6b87c4775dcbc63a',
    'Q/flip-k-DN-rescaled/omegabar_to_vartheta': 'c056252f48b5792f',
    'Q/flip-k-DN-rescaled/to_factorization': 'fc24c575a96529cb',
    'Q/flip-k-DN-rescaled/to_entwining': 'e958bcd2728bf511',
    'Q/flip-k-DN-rescaled/tensor': 'b76147941b22afd7',
    'Q/flip-kC2-GL2-rescaled/CstarA': '9fd18736f10e971f',
    'Q/flip-kC2-GL2-rescaled/AstarC': '459acb5a24a87cb8',
    'Q/flip-kC2-GL2-rescaled/theta_to_phibar': 'adf59336641bad30',
    'Q/flip-kC2-GL2-rescaled/z_to_phi': '8159887fd9b051b7',
    'Q/flip-kC2-GL2-rescaled/e_to_omega': 'bc83d07e1fc90be0',
    'Q/flip-kC2-GL2-rescaled/vartheta_to_omegabar': '83f80e13366aca99',
    'Q/flip-kC2-GL2-rescaled/phibar_to_theta': 'dbd296e9d9475f2b',
    'Q/flip-kC2-GL2-rescaled/phi_to_z': 'd608cb41d3e32477',
    'Q/flip-kC2-GL2-rescaled/omega_to_e': '7a506fef9907b721',
    'Q/flip-kC2-GL2-rescaled/omegabar_to_vartheta': 'a4727a0731e13f8c',
    'Q/flip-kC2-GL2-rescaled/to_factorization': '57a3196a7b82b902',
    'Q/flip-kC2-GL2-rescaled/to_entwining': '9ee4661d066bcda0',
    'Q/flip-kC2-GL2-rescaled/tensor': 'c710c446a8ea02cc',
    'Q/flip-kC2-DN-rescaled/CstarA': '15dd229ae8fe3eef',
    'Q/flip-kC2-DN-rescaled/AstarC': '01424df7fd53e353',
    'Q/flip-kC2-DN-rescaled/theta_to_phibar': 'fe81af0c59bc1ea0',
    'Q/flip-kC2-DN-rescaled/z_to_phi': '1fe2e09b9da0d555',
    'Q/flip-kC2-DN-rescaled/e_to_omega': 'bc228204c48f0629',
    'Q/flip-kC2-DN-rescaled/vartheta_to_omegabar': '97e792675f403362',
    'Q/flip-kC2-DN-rescaled/phibar_to_theta': '35198f08c2b5af1a',
    'Q/flip-kC2-DN-rescaled/phi_to_z': '9f28f4d8c27a8815',
    'Q/flip-kC2-DN-rescaled/omega_to_e': '05a037c511beeaee',
    'Q/flip-kC2-DN-rescaled/omegabar_to_vartheta': '27ab254d53373c78',
    'Q/flip-kC2-DN-rescaled/to_factorization': '74d8f8db167580f0',
    'Q/flip-kC2-DN-rescaled/to_entwining': '9ee4661d066bcda0',
    'Q/flip-kC2-DN-rescaled/tensor': '50cfb242ef5f62b3',
    'Q/flip-M2-GL1-rescaled/CstarA': '481fd9642e5bc0e8',
    'Q/flip-M2-GL1-rescaled/AstarC': '9763d8e9fdeaee9a',
    'Q/flip-M2-GL1-rescaled/theta_to_phibar': '07792b03a31bacfb',
    'Q/flip-M2-GL1-rescaled/z_to_phi': '6967879dd1f86a9e',
    'Q/flip-M2-GL1-rescaled/e_to_omega': 'c43384e7a5852865',
    'Q/flip-M2-GL1-rescaled/vartheta_to_omegabar': '312a9b0ee6324944',
    'Q/flip-M2-GL1-rescaled/phibar_to_theta': '32ab956564a8adc0',
    'Q/flip-M2-GL1-rescaled/phi_to_z': 'ce1fc040b0aba08f',
    'Q/flip-M2-GL1-rescaled/omega_to_e': 'd89dfe92bdd3b01d',
    'Q/flip-M2-GL1-rescaled/omegabar_to_vartheta': 'f3fd44906638311d',
    'Q/flip-M2-GL1-rescaled/to_factorization': '0c4f9e3851c28bd3',
    'Q/flip-M2-GL1-rescaled/to_entwining': '4a3127674b185401',
    'Q/flip-M2-GL1-rescaled/tensor': '45465a8b46e31ae0',
    'Q/flip-k-arrow-rescaled/CstarA': '0a4aaeae0df28eae',
    'Q/flip-k-arrow-rescaled/AstarC': '999f63a18c73a0b2',
    'Q/flip-k-arrow-rescaled/theta_to_phibar': '33cd9354e1f6931c',
    'Q/flip-k-arrow-rescaled/z_to_phi': '37c68d447a0328bd',
    'Q/flip-k-arrow-rescaled/e_to_omega': '7cee36338f0c61e3',
    'Q/flip-k-arrow-rescaled/vartheta_to_omegabar': 'd35b2c0abedafebf',
    'Q/flip-k-arrow-rescaled/phibar_to_theta': 'd8fb70ff90ed6402',
    'Q/flip-k-arrow-rescaled/phi_to_z': 'd97849a6498b7e6a',
    'Q/flip-k-arrow-rescaled/omega_to_e': 'd90964783d746fb4',
    'Q/flip-k-arrow-rescaled/omegabar_to_vartheta': 'fb9ac0a7dd88c790',
    'Q/flip-k-arrow-rescaled/to_factorization': 'c09e1d7817f4c512',
    'Q/flip-k-arrow-rescaled/to_entwining': '69e04d1d71724492',
    'Q/flip-k-arrow-rescaled/tensor': 'c2da3bca5ab8910b',
    'Q/doihopf-kC2-rescaled/CstarA': 'df12582f87985a5f',
    'Q/doihopf-kC2-rescaled/AstarC': 'f0530a0fd9a701d5',
    'Q/doihopf-kC2-rescaled/theta_to_phibar': '9c4fdac6f63b723a',
    'Q/doihopf-kC2-rescaled/z_to_phi': 'a74d45107a68c231',
    'Q/doihopf-kC2-rescaled/e_to_omega': '5760308eb97366cd',
    'Q/doihopf-kC2-rescaled/vartheta_to_omegabar': '638dd774e8e67b28',
    'Q/doihopf-kC2-rescaled/phibar_to_theta': '715695653da294fa',
    'Q/doihopf-kC2-rescaled/phi_to_z': 'c75cae3aea3a0b16',
    'Q/doihopf-kC2-rescaled/omega_to_e': 'db0898800a56552d',
    'Q/doihopf-kC2-rescaled/omegabar_to_vartheta': 'b571ff03bc08d90e',
    'Q/doihopf-kC2-rescaled/to_factorization': 'bfc40a33a5605f34',
    'Q/doihopf-kC2-rescaled/to_entwining': 'c4697562a3dc5122',
    'Q/doihopf-kC2-rescaled/tensor': 'c710c446a8ea02cc',
    'F3/flip-k-GL2-rescaled/CstarA': '034097f0c53c3477',
    'F3/flip-k-GL2-rescaled/AstarC': 'cad35b4a346bb421',
    'F3/flip-k-GL2-rescaled/theta_to_phibar': '77556bacc56bb143',
    'F3/flip-k-GL2-rescaled/z_to_phi': '859aa324df385603',
    'F3/flip-k-GL2-rescaled/e_to_omega': '916b94a2fdca66d4',
    'F3/flip-k-GL2-rescaled/vartheta_to_omegabar': '345cca43e025b925',
    'F3/flip-k-GL2-rescaled/phibar_to_theta': '7177fff4cd0d629c',
    'F3/flip-k-GL2-rescaled/phi_to_z': 'f0f840ab250dc527',
    'F3/flip-k-GL2-rescaled/omega_to_e': 'c5493b1734478405',
    'F3/flip-k-GL2-rescaled/omegabar_to_vartheta': '887203890c7a3bda',
    'F3/flip-k-GL2-rescaled/to_factorization': 'a57c934c1a403d8d',
    'F3/flip-k-GL2-rescaled/to_entwining': 'ddf10e11bf48cff1',
    'F3/flip-k-GL2-rescaled/tensor': 'a522b1e6dfde59fd',
    'F3/flip-k-DN-rescaled/CstarA': 'dba0fac7fa4d3ba1',
    'F3/flip-k-DN-rescaled/AstarC': '9878dc83c588e6c3',
    'F3/flip-k-DN-rescaled/theta_to_phibar': '8be5bfb79b1165fd',
    'F3/flip-k-DN-rescaled/z_to_phi': 'bc11f84bdb3550e8',
    'F3/flip-k-DN-rescaled/e_to_omega': '7630458f401e90ea',
    'F3/flip-k-DN-rescaled/vartheta_to_omegabar': '519a27c933c76b34',
    'F3/flip-k-DN-rescaled/phibar_to_theta': '2983309aaece5e28',
    'F3/flip-k-DN-rescaled/phi_to_z': '846506bd3addb0e2',
    'F3/flip-k-DN-rescaled/omega_to_e': 'cc127881202d9a33',
    'F3/flip-k-DN-rescaled/omegabar_to_vartheta': '4c1acfd9db667c3f',
    'F3/flip-k-DN-rescaled/to_factorization': 'cde8bbc9a84d9d48',
    'F3/flip-k-DN-rescaled/to_entwining': 'ddf10e11bf48cff1',
    'F3/flip-k-DN-rescaled/tensor': 'a97b5dae561ed7fc',
    'F3/flip-kC2-GL2-rescaled/CstarA': '84298d027db40632',
    'F3/flip-kC2-GL2-rescaled/AstarC': 'e846baefdae7c6a8',
    'F3/flip-kC2-GL2-rescaled/theta_to_phibar': 'ca6ad842a508dcf4',
    'F3/flip-kC2-GL2-rescaled/z_to_phi': '23fbfb0712da02d7',
    'F3/flip-kC2-GL2-rescaled/e_to_omega': '5e9207568ce3edd2',
    'F3/flip-kC2-GL2-rescaled/vartheta_to_omegabar': 'bf50cafa3e4c1d55',
    'F3/flip-kC2-GL2-rescaled/phibar_to_theta': '2e6c446b8f5644dd',
    'F3/flip-kC2-GL2-rescaled/phi_to_z': 'cc7bf260bcf0706a',
    'F3/flip-kC2-GL2-rescaled/omega_to_e': 'fb4ff86c1b724e8b',
    'F3/flip-kC2-GL2-rescaled/omegabar_to_vartheta': 'de1b850a4884e722',
    'F3/flip-kC2-GL2-rescaled/to_factorization': '47a2932fc2b2504f',
    'F3/flip-kC2-GL2-rescaled/to_entwining': '87f58d5a0c9cb225',
    'F3/flip-kC2-GL2-rescaled/tensor': '2de218bd59d66494',
    'F3/flip-kC2-DN-rescaled/CstarA': '695c32bc150c6bfc',
    'F3/flip-kC2-DN-rescaled/AstarC': 'd48053380e82fa47',
    'F3/flip-kC2-DN-rescaled/theta_to_phibar': '813531447c800702',
    'F3/flip-kC2-DN-rescaled/z_to_phi': 'c398b109bd118bc2',
    'F3/flip-kC2-DN-rescaled/e_to_omega': '467a0939e273fc5b',
    'F3/flip-kC2-DN-rescaled/vartheta_to_omegabar': '5d7ca04382bf326c',
    'F3/flip-kC2-DN-rescaled/phibar_to_theta': '3045d5b344f23834',
    'F3/flip-kC2-DN-rescaled/phi_to_z': 'c9d2d4571c9cd146',
    'F3/flip-kC2-DN-rescaled/omega_to_e': 'f71b21452616555d',
    'F3/flip-kC2-DN-rescaled/omegabar_to_vartheta': '94b753caec9179fe',
    'F3/flip-kC2-DN-rescaled/to_factorization': 'c44568567df18682',
    'F3/flip-kC2-DN-rescaled/to_entwining': '87f58d5a0c9cb225',
    'F3/flip-kC2-DN-rescaled/tensor': '252a5dc0230efe7f',
    'F3/flip-M2-GL1-rescaled/CstarA': 'a36d48a9e5d510ba',
    'F3/flip-M2-GL1-rescaled/AstarC': '2a6d49d77c9a3896',
    'F3/flip-M2-GL1-rescaled/theta_to_phibar': '2c503f46437ae9cb',
    'F3/flip-M2-GL1-rescaled/z_to_phi': 'cd0b83dbcaee2665',
    'F3/flip-M2-GL1-rescaled/e_to_omega': '55bd796bee199b10',
    'F3/flip-M2-GL1-rescaled/vartheta_to_omegabar': '187cb5a99e19c566',
    'F3/flip-M2-GL1-rescaled/phibar_to_theta': 'd6bae8959bdc105a',
    'F3/flip-M2-GL1-rescaled/phi_to_z': 'bc538993993f0594',
    'F3/flip-M2-GL1-rescaled/omega_to_e': '2bab360335183fd0',
    'F3/flip-M2-GL1-rescaled/omegabar_to_vartheta': '8bf7cbd5a90e1da2',
    'F3/flip-M2-GL1-rescaled/to_factorization': '967fde7d17d1581d',
    'F3/flip-M2-GL1-rescaled/to_entwining': '43647276a54f9b75',
    'F3/flip-M2-GL1-rescaled/tensor': '6d06344c4cbdee49',
    'F3/flip-k-arrow-rescaled/CstarA': '22c31903829f224a',
    'F3/flip-k-arrow-rescaled/AstarC': '642107eff6db9822',
    'F3/flip-k-arrow-rescaled/theta_to_phibar': '0cdb7a15b6684abd',
    'F3/flip-k-arrow-rescaled/z_to_phi': 'a1146ae56c2cd6e3',
    'F3/flip-k-arrow-rescaled/e_to_omega': 'df2a7b589aacceea',
    'F3/flip-k-arrow-rescaled/vartheta_to_omegabar': 'f40314e12c9a353f',
    'F3/flip-k-arrow-rescaled/phibar_to_theta': '59b95c4c8ccf1f07',
    'F3/flip-k-arrow-rescaled/phi_to_z': '3ecedd40b824d0f6',
    'F3/flip-k-arrow-rescaled/omega_to_e': '6a8010aa2aa2e8b1',
    'F3/flip-k-arrow-rescaled/omegabar_to_vartheta': '159e36ef62051843',
    'F3/flip-k-arrow-rescaled/to_factorization': '3d54b614401814e1',
    'F3/flip-k-arrow-rescaled/to_entwining': '6503ca0f105e2ade',
    'F3/flip-k-arrow-rescaled/tensor': 'c720ab2c761bf797',
    'F3/doihopf-kC2-rescaled/CstarA': '3af897fd5a7666b8',
    'F3/doihopf-kC2-rescaled/AstarC': 'b6ed602c5af3ecd3',
    'F3/doihopf-kC2-rescaled/theta_to_phibar': '8138239cc6840028',
    'F3/doihopf-kC2-rescaled/z_to_phi': '929dc6578c4954cb',
    'F3/doihopf-kC2-rescaled/e_to_omega': 'ab0e20e5f547e82d',
    'F3/doihopf-kC2-rescaled/vartheta_to_omegabar': 'afb542f18c40ec9f',
    'F3/doihopf-kC2-rescaled/phibar_to_theta': 'cd0c6a80fbc913cd',
    'F3/doihopf-kC2-rescaled/phi_to_z': '36a45e9e21dafc90',
    'F3/doihopf-kC2-rescaled/omega_to_e': 'e3cb2b5199a5cd30',
    'F3/doihopf-kC2-rescaled/omegabar_to_vartheta': '2fa2899ee4c41089',
    'F3/doihopf-kC2-rescaled/to_factorization': 'e7e4df9c90788636',
    'F3/doihopf-kC2-rescaled/to_entwining': 'f7a5d899236d92b9',
    'F3/doihopf-kC2-rescaled/tensor': '2de218bd59d66494',
}


if __name__ == "__main__":
    for key, digest in digests().items():
        print("    %r: %r," % (key, digest))
