"""Pinned outputs of the ring-extension spaces and converters and of the
smash Casimir space W3.

Each output is pinned like those of `test_converter_pins`: its `dom`/`cod`
shapes and every entry (type and value), as a truncated sha256 digest.
For one extension at a time:

* `tensor_over_R`: `pi`, `sigma` and `relations`;
* `right_dual_space`, `fg_projective_coords` and `dual_morphism_space`;
* `nu_to_phibar` on every conditional expectation of the basis and on one
  seeded random right R-linear map, `phibar_to_nu` on those outputs and on
  one seeded random map;
* `e_to_phi` on every Casimir element of the basis and on one seeded random
  element, `phi_to_e` on those outputs and on one seeded random map;
* for an extension A -> B # A, the `compute_W3` basis of its factorization.

The cases are the corpus extensions and the extensions A -> B # A of the
corpus factorizations over F2, F3 and Q, and the same over Q and F3 in the
rescaled bases e_0, 2 e_1, 2 e_2, ...  Every structure constant of the
corpus is 0 or 1; the rescaled bases bring in 2, 4 and 1/2, so a dropped
factor in a formula changes a digest.

The digests were generated on the code before these outputs were stated as
contracted laws and composites of structure maps (when the relations, the
projectivity system and W3 were assembled per basis element and the dual
actions were solved for coordinate by coordinate), so they pin that the
new formulas reproduce the old outputs entry for entry.  Regenerate them
only for a change that is meant to alter an output:

    PYTHONPATH=src python tests/test_extension_pins.py
"""

import random

import pytest

from _rescaled import rescaled_extension, rescaled_factorization
from entwine import ringext
from entwine.corpus import corpus_extensions, corpus_factorizations
from entwine.homspaces import combine
from entwine.smash import compute_W3, unit_embedding_A
from test_converter_pins import FIELDS, _digest, _leaves, _random_map


def cases() -> dict:
    """{case name: (extension, its factorization or None)}."""
    out = {}
    for tag, field in FIELDS:
        rescale = tag != "F2"
        for name, ext in corpus_extensions(field):
            out["%s/%s" % (tag, name)] = (ext, None)
            if rescale:
                out["%s/%s-rescaled" % (tag, name)] = (rescaled_extension(ext), None)
        for name, fact in corpus_factorizations(field):
            out["%s/%s" % (tag, name)] = (unit_embedding_A(fact), fact)
            if rescale:
                fact = rescaled_factorization(fact)
                out["%s/%s-rescaled" % (tag, name)] = (unit_embedding_A(fact), fact)
    return out


def outputs(ext, fact) -> dict:
    """{output name: list of outputs} for one extension."""
    f = ext.field
    ns, nr = ext.s.dim, ext.r.dim
    rng = random.Random(0)
    t = ringext.tensor_over_R(ext)
    dspace = ringext.right_dual_space(ext)
    nd = len(dspace)
    sigmas = ringext.fg_projective_coords(ext, dspace)
    nus = (ringext.compute_expectations(ext).basis
           + [combine(f, dspace, [f.random(rng) for _ in dspace])])
    evecs = (ringext.compute_casimir(t).basis
             + [tuple(f.random(rng) for _ in range(t.dim))])
    phibars = [ringext.nu_to_phibar(ext, dspace, nu) for nu in nus]
    phis = [ringext.e_to_phi(ext, t, dspace, ev) for ev in evecs]
    out = {
        "tensor": [t.pi, t.sigma, t.relations],
        "right_dual": dspace,
        "fg_projective": [sigmas],
        "dual_morphisms": ringext.dual_morphism_space(ext, dspace),
        "nu_to_phibar": phibars,
        "phibar_to_nu": [ringext.phibar_to_nu(ext, dspace, m) for m in
                         phibars + [_random_map(f, (ns,), (nd,), rng)]],
        "e_to_phi": phis,
        "phi_to_e": [] if sigmas is None else
                    [ringext.phi_to_e(ext, t, sigmas, m) for m in
                     phis + [_random_map(f, (nd,), (ns,), rng)]],
    }
    if fact is not None:
        out["W3"] = compute_W3(fact).basis
    return out


CASES = cases()


def digests() -> dict:
    return {"%s/%s" % (case, name): _digest(values)
            for case, (ext, fact) in CASES.items()
            for name, values in outputs(ext, fact).items()}


def test_some_case_has_constants_outside_0_and_1():
    for constants in (lambda ext: ext.s.mult, lambda ext: ext.r.mult,
                      lambda ext: ext.embedding.mat):
        assert any(x not in (0, 1) for ext, _ in CASES.values()
                   for x in _leaves(constants(ext)))


def test_some_case_has_relations_over_a_proper_base():
    """Over R = k the balanced tensor square has no relations, and over
    R = S it is S itself; the relations are pinned on a base in between."""
    assert any(1 < ext.r.dim < ext.s.dim and ringext.tensor_over_R(ext).relations
               for ext, _ in CASES.values())


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pins(case):
    got = {name: _digest(values) for name, values in outputs(*CASES[case]).items()}
    want = {name[len(case) + 1:]: d for name, d in PINNED.items()
            if name.rsplit("/", 1)[0] == case}
    assert got == want


PINNED = {
    'F2/ext-k-kC2/tensor': 'caf809722911a924',
    'F2/ext-k-kC2/right_dual': '12a17c4a6fc9a0e0',
    'F2/ext-k-kC2/fg_projective': '6c5f1c5f78c273e1',
    'F2/ext-k-kC2/dual_morphisms': '33342ad0a95e0f1b',
    'F2/ext-k-kC2/nu_to_phibar': 'a8333d2d1459b2a4',
    'F2/ext-k-kC2/phibar_to_nu': 'd46c63a222086c19',
    'F2/ext-k-kC2/e_to_phi': '015e973707fdbf7f',
    'F2/ext-k-kC2/phi_to_e': '86ecab98b1143ad6',
    'F2/ext-k-kC3/tensor': 'dfd582839a344605',
    'F2/ext-k-kC3/right_dual': 'd1317ded0ab9fdc2',
    'F2/ext-k-kC3/fg_projective': 'e76e7006044abd83',
    'F2/ext-k-kC3/dual_morphisms': 'd108f1bbbcb69dbc',
    'F2/ext-k-kC3/nu_to_phibar': 'b8133919f675b819',
    'F2/ext-k-kC3/phibar_to_nu': '7898afcc1884d280',
    'F2/ext-k-kC3/e_to_phi': 'df4d3a2d2493bd9b',
    'F2/ext-k-kC3/phi_to_e': '01fb10b9b5b5273a',
    'F2/ext-k-M2/tensor': 'ba939ec588f51c28',
    'F2/ext-k-M2/right_dual': '7b6b94a4f3ef3fef',
    'F2/ext-k-M2/fg_projective': 'd3887bfd7130dbf3',
    'F2/ext-k-M2/dual_morphisms': '919055243929fe54',
    'F2/ext-k-M2/nu_to_phibar': '552038831e5018d1',
    'F2/ext-k-M2/phibar_to_nu': '36c84c88acb85830',
    'F2/ext-k-M2/e_to_phi': '839e8afb2bfcbb07',
    'F2/ext-k-M2/phi_to_e': 'a7fa94d781868246',
    'F2/ext-k-T2/tensor': 'dfd582839a344605',
    'F2/ext-k-T2/right_dual': 'd1317ded0ab9fdc2',
    'F2/ext-k-T2/fg_projective': 'e76e7006044abd83',
    'F2/ext-k-T2/dual_morphisms': '7fb298a335f04589',
    'F2/ext-k-T2/nu_to_phibar': 'befc90ad6f6bab53',
    'F2/ext-k-T2/phibar_to_nu': '5bf95314819704ba',
    'F2/ext-k-T2/e_to_phi': 'eff9fc200250505d',
    'F2/ext-k-T2/phi_to_e': '7fe85c26f42c143f',
    'F2/ext-id-kC2/tensor': '1fc0c128592e6bac',
    'F2/ext-id-kC2/right_dual': '33342ad0a95e0f1b',
    'F2/ext-id-kC2/fg_projective': '3eba63d5017aef9c',
    'F2/ext-id-kC2/dual_morphisms': '33342ad0a95e0f1b',
    'F2/ext-id-kC2/nu_to_phibar': 'a8333d2d1459b2a4',
    'F2/ext-id-kC2/phibar_to_nu': 'e77bcbbeb720fd8e',
    'F2/ext-id-kC2/e_to_phi': 'b2c90a80bd9b89ac',
    'F2/ext-id-kC2/phi_to_e': '7014b0bde621d284',
    'F2/fact-doihopf-kC2/tensor': '62637a0c76d913f5',
    'F2/fact-doihopf-kC2/right_dual': '9874dfc6bf986df0',
    'F2/fact-doihopf-kC2/fg_projective': '06fff31cca20241e',
    'F2/fact-doihopf-kC2/dual_morphisms': '49b02500260daac7',
    'F2/fact-doihopf-kC2/nu_to_phibar': 'bb434deb5ad6fc72',
    'F2/fact-doihopf-kC2/phibar_to_nu': 'a799a631ca1e0b7c',
    'F2/fact-doihopf-kC2/e_to_phi': '7c2da109db7ef855',
    'F2/fact-doihopf-kC2/phi_to_e': 'a909ae1746edcefd',
    'F2/fact-doihopf-kC2/W3': '76af5234bd27b0f1',
    'F2/fact-flip-kC2-kC2/tensor': 'e488c3ef7db175b9',
    'F2/fact-flip-kC2-kC2/right_dual': '9874dfc6bf986df0',
    'F2/fact-flip-kC2-kC2/fg_projective': '06fff31cca20241e',
    'F2/fact-flip-kC2-kC2/dual_morphisms': '2d147216827d3625',
    'F2/fact-flip-kC2-kC2/nu_to_phibar': 'f8eb8fe4b8d17a88',
    'F2/fact-flip-kC2-kC2/phibar_to_nu': '60466633549a008e',
    'F2/fact-flip-kC2-kC2/e_to_phi': '5af2ff20da838182',
    'F2/fact-flip-kC2-kC2/phi_to_e': 'ba69a73ca1652815',
    'F2/fact-flip-kC2-kC2/W3': 'dcc055caa4da9757',
    'F2/fact-flip-T2-k/tensor': 'dfd582839a344605',
    'F2/fact-flip-T2-k/right_dual': 'd1317ded0ab9fdc2',
    'F2/fact-flip-T2-k/fg_projective': 'e76e7006044abd83',
    'F2/fact-flip-T2-k/dual_morphisms': '7fb298a335f04589',
    'F2/fact-flip-T2-k/nu_to_phibar': 'befc90ad6f6bab53',
    'F2/fact-flip-T2-k/phibar_to_nu': '5bf95314819704ba',
    'F2/fact-flip-T2-k/e_to_phi': 'eff9fc200250505d',
    'F2/fact-flip-T2-k/phi_to_e': '7fe85c26f42c143f',
    'F2/fact-flip-T2-k/W3': '8396b4a11532db66',
    'F3/ext-k-kC2/tensor': '3e6cd252946fe416',
    'F3/ext-k-kC2/right_dual': '56ae0ca68c66c9fc',
    'F3/ext-k-kC2/fg_projective': '358e06ba163db1c7',
    'F3/ext-k-kC2/dual_morphisms': '014d1a7ebbce3d58',
    'F3/ext-k-kC2/nu_to_phibar': '988978d755ffaf14',
    'F3/ext-k-kC2/phibar_to_nu': 'c43cc831cad0124f',
    'F3/ext-k-kC2/e_to_phi': '189656fb3bface30',
    'F3/ext-k-kC2/phi_to_e': '12a5c4d5caf20e97',
    'F3/ext-k-kC2-rescaled/tensor': '3e6cd252946fe416',
    'F3/ext-k-kC2-rescaled/right_dual': '56ae0ca68c66c9fc',
    'F3/ext-k-kC2-rescaled/fg_projective': '358e06ba163db1c7',
    'F3/ext-k-kC2-rescaled/dual_morphisms': '014d1a7ebbce3d58',
    'F3/ext-k-kC2-rescaled/nu_to_phibar': '988978d755ffaf14',
    'F3/ext-k-kC2-rescaled/phibar_to_nu': 'c43cc831cad0124f',
    'F3/ext-k-kC2-rescaled/e_to_phi': '189656fb3bface30',
    'F3/ext-k-kC2-rescaled/phi_to_e': '12a5c4d5caf20e97',
    'F3/ext-k-kC3/tensor': '21a095a5cbdd5f45',
    'F3/ext-k-kC3/right_dual': '44696fd7ac329ba1',
    'F3/ext-k-kC3/fg_projective': '76bd7602b7a94f36',
    'F3/ext-k-kC3/dual_morphisms': 'd397d05ae07ff3a7',
    'F3/ext-k-kC3/nu_to_phibar': 'de238062e9f2f7f1',
    'F3/ext-k-kC3/phibar_to_nu': '6a76bbbbc9b45427',
    'F3/ext-k-kC3/e_to_phi': '8fac8373f57534d7',
    'F3/ext-k-kC3/phi_to_e': '3359f6031c33712c',
    'F3/ext-k-kC3-rescaled/tensor': '21a095a5cbdd5f45',
    'F3/ext-k-kC3-rescaled/right_dual': '44696fd7ac329ba1',
    'F3/ext-k-kC3-rescaled/fg_projective': '76bd7602b7a94f36',
    'F3/ext-k-kC3-rescaled/dual_morphisms': '0af7795da6aa928c',
    'F3/ext-k-kC3-rescaled/nu_to_phibar': '45487e919f22a0da',
    'F3/ext-k-kC3-rescaled/phibar_to_nu': '6a76bbbbc9b45427',
    'F3/ext-k-kC3-rescaled/e_to_phi': '68cef6b426843360',
    'F3/ext-k-kC3-rescaled/phi_to_e': '7cbe5ce880dcb468',
    'F3/ext-k-M2/tensor': 'ce5b370dcb33f00b',
    'F3/ext-k-M2/right_dual': '2ee0c578c2d453f8',
    'F3/ext-k-M2/fg_projective': '78479e1785d40312',
    'F3/ext-k-M2/dual_morphisms': '1d8d1a102077b496',
    'F3/ext-k-M2/nu_to_phibar': '8e701c7ca993bec8',
    'F3/ext-k-M2/phibar_to_nu': 'e9041ba6b1edc54d',
    'F3/ext-k-M2/e_to_phi': '67b989027eb20ad6',
    'F3/ext-k-M2/phi_to_e': 'c19887420227ddf7',
    'F3/ext-k-M2-rescaled/tensor': 'ce5b370dcb33f00b',
    'F3/ext-k-M2-rescaled/right_dual': '2ee0c578c2d453f8',
    'F3/ext-k-M2-rescaled/fg_projective': '78479e1785d40312',
    'F3/ext-k-M2-rescaled/dual_morphisms': '5945509537417698',
    'F3/ext-k-M2-rescaled/nu_to_phibar': '80bc4112ff9b6dde',
    'F3/ext-k-M2-rescaled/phibar_to_nu': 'c9ce533455e8981d',
    'F3/ext-k-M2-rescaled/e_to_phi': '33a60a3c9d531ed8',
    'F3/ext-k-M2-rescaled/phi_to_e': 'adae3462bf9791b7',
    'F3/ext-k-T2/tensor': '21a095a5cbdd5f45',
    'F3/ext-k-T2/right_dual': '44696fd7ac329ba1',
    'F3/ext-k-T2/fg_projective': '76bd7602b7a94f36',
    'F3/ext-k-T2/dual_morphisms': '85181d1f1fd7d850',
    'F3/ext-k-T2/nu_to_phibar': '390ee4a40a7f64bc',
    'F3/ext-k-T2/phibar_to_nu': 'c540f22aedc95238',
    'F3/ext-k-T2/e_to_phi': '1a13af9df2ffde07',
    'F3/ext-k-T2/phi_to_e': '403c4ccc027003ef',
    'F3/ext-k-T2-rescaled/tensor': '21a095a5cbdd5f45',
    'F3/ext-k-T2-rescaled/right_dual': '44696fd7ac329ba1',
    'F3/ext-k-T2-rescaled/fg_projective': '76bd7602b7a94f36',
    'F3/ext-k-T2-rescaled/dual_morphisms': 'a1cd5e9a0eb39218',
    'F3/ext-k-T2-rescaled/nu_to_phibar': '589d4ce14e712296',
    'F3/ext-k-T2-rescaled/phibar_to_nu': '59793344e8ffc6ff',
    'F3/ext-k-T2-rescaled/e_to_phi': '1fcb1e4480adedaf',
    'F3/ext-k-T2-rescaled/phi_to_e': '02f68a4ced4fda21',
    'F3/ext-id-kC2/tensor': '646fccf89e4aa3e7',
    'F3/ext-id-kC2/right_dual': '014d1a7ebbce3d58',
    'F3/ext-id-kC2/fg_projective': '0d7ed721c56ec553',
    'F3/ext-id-kC2/dual_morphisms': '014d1a7ebbce3d58',
    'F3/ext-id-kC2/nu_to_phibar': '988978d755ffaf14',
    'F3/ext-id-kC2/phibar_to_nu': '1cbeccc961ea2ecc',
    'F3/ext-id-kC2/e_to_phi': '89386c152c54e823',
    'F3/ext-id-kC2/phi_to_e': '822284d391304a46',
    'F3/ext-id-kC2-rescaled/tensor': '646fccf89e4aa3e7',
    'F3/ext-id-kC2-rescaled/right_dual': '014d1a7ebbce3d58',
    'F3/ext-id-kC2-rescaled/fg_projective': '0d7ed721c56ec553',
    'F3/ext-id-kC2-rescaled/dual_morphisms': '014d1a7ebbce3d58',
    'F3/ext-id-kC2-rescaled/nu_to_phibar': '988978d755ffaf14',
    'F3/ext-id-kC2-rescaled/phibar_to_nu': '1cbeccc961ea2ecc',
    'F3/ext-id-kC2-rescaled/e_to_phi': '89386c152c54e823',
    'F3/ext-id-kC2-rescaled/phi_to_e': '822284d391304a46',
    'F3/fact-doihopf-kC2/tensor': 'd8a8b9636b7c4e82',
    'F3/fact-doihopf-kC2/right_dual': '07577c2d0e1141ac',
    'F3/fact-doihopf-kC2/fg_projective': '584a338bbd8cdfaf',
    'F3/fact-doihopf-kC2/dual_morphisms': '2cc643b3a6311f05',
    'F3/fact-doihopf-kC2/nu_to_phibar': '755dccf02de425fa',
    'F3/fact-doihopf-kC2/phibar_to_nu': '305ed4f74d3fa53a',
    'F3/fact-doihopf-kC2/e_to_phi': 'edab57298e841524',
    'F3/fact-doihopf-kC2/phi_to_e': 'd9578b93c9ddd9cd',
    'F3/fact-doihopf-kC2/W3': '2828451f56345070',
    'F3/fact-doihopf-kC2-rescaled/tensor': '0ed52704ea803af6',
    'F3/fact-doihopf-kC2-rescaled/right_dual': '07577c2d0e1141ac',
    'F3/fact-doihopf-kC2-rescaled/fg_projective': '584a338bbd8cdfaf',
    'F3/fact-doihopf-kC2-rescaled/dual_morphisms': '475f0c8e8248bfcb',
    'F3/fact-doihopf-kC2-rescaled/nu_to_phibar': 'fd3b8f04ce640a51',
    'F3/fact-doihopf-kC2-rescaled/phibar_to_nu': 'a2669dd9db40398e',
    'F3/fact-doihopf-kC2-rescaled/e_to_phi': '8efdbbc3e1fe700e',
    'F3/fact-doihopf-kC2-rescaled/phi_to_e': '963e4ac1edf9e111',
    'F3/fact-doihopf-kC2-rescaled/W3': '2828451f56345070',
    'F3/fact-flip-kC2-kC2/tensor': '067da1bda0299520',
    'F3/fact-flip-kC2-kC2/right_dual': '07577c2d0e1141ac',
    'F3/fact-flip-kC2-kC2/fg_projective': '584a338bbd8cdfaf',
    'F3/fact-flip-kC2-kC2/dual_morphisms': 'dcdac415979ed43d',
    'F3/fact-flip-kC2-kC2/nu_to_phibar': 'bab53bae2c68d2da',
    'F3/fact-flip-kC2-kC2/phibar_to_nu': '0d9f47f7ef514865',
    'F3/fact-flip-kC2-kC2/e_to_phi': '1ae711121a1d95a9',
    'F3/fact-flip-kC2-kC2/phi_to_e': 'ca7201e722bbf645',
    'F3/fact-flip-kC2-kC2/W3': '3ec2ffd675bfc70a',
    'F3/fact-flip-kC2-kC2-rescaled/tensor': '067da1bda0299520',
    'F3/fact-flip-kC2-kC2-rescaled/right_dual': '07577c2d0e1141ac',
    'F3/fact-flip-kC2-kC2-rescaled/fg_projective': '584a338bbd8cdfaf',
    'F3/fact-flip-kC2-kC2-rescaled/dual_morphisms': 'dcdac415979ed43d',
    'F3/fact-flip-kC2-kC2-rescaled/nu_to_phibar': 'bab53bae2c68d2da',
    'F3/fact-flip-kC2-kC2-rescaled/phibar_to_nu': '0d9f47f7ef514865',
    'F3/fact-flip-kC2-kC2-rescaled/e_to_phi': '1ae711121a1d95a9',
    'F3/fact-flip-kC2-kC2-rescaled/phi_to_e': 'ca7201e722bbf645',
    'F3/fact-flip-kC2-kC2-rescaled/W3': '3ec2ffd675bfc70a',
    'F3/fact-flip-T2-k/tensor': '21a095a5cbdd5f45',
    'F3/fact-flip-T2-k/right_dual': '44696fd7ac329ba1',
    'F3/fact-flip-T2-k/fg_projective': '76bd7602b7a94f36',
    'F3/fact-flip-T2-k/dual_morphisms': '85181d1f1fd7d850',
    'F3/fact-flip-T2-k/nu_to_phibar': '390ee4a40a7f64bc',
    'F3/fact-flip-T2-k/phibar_to_nu': 'c540f22aedc95238',
    'F3/fact-flip-T2-k/e_to_phi': '1a13af9df2ffde07',
    'F3/fact-flip-T2-k/phi_to_e': '403c4ccc027003ef',
    'F3/fact-flip-T2-k/W3': '05e33cef3e54161c',
    'F3/fact-flip-T2-k-rescaled/tensor': '21a095a5cbdd5f45',
    'F3/fact-flip-T2-k-rescaled/right_dual': '44696fd7ac329ba1',
    'F3/fact-flip-T2-k-rescaled/fg_projective': '76bd7602b7a94f36',
    'F3/fact-flip-T2-k-rescaled/dual_morphisms': 'a1cd5e9a0eb39218',
    'F3/fact-flip-T2-k-rescaled/nu_to_phibar': '589d4ce14e712296',
    'F3/fact-flip-T2-k-rescaled/phibar_to_nu': '59793344e8ffc6ff',
    'F3/fact-flip-T2-k-rescaled/e_to_phi': '1fcb1e4480adedaf',
    'F3/fact-flip-T2-k-rescaled/phi_to_e': '02f68a4ced4fda21',
    'F3/fact-flip-T2-k-rescaled/W3': '865668026e278e2d',
    'Q/ext-k-kC2/tensor': '9044551ed7f23adb',
    'Q/ext-k-kC2/right_dual': '638e14e2ef7bf321',
    'Q/ext-k-kC2/fg_projective': '814ca0ed4c24381b',
    'Q/ext-k-kC2/dual_morphisms': '5b6d882db4f79ed4',
    'Q/ext-k-kC2/nu_to_phibar': 'bc3f68dc1ac9bd00',
    'Q/ext-k-kC2/phibar_to_nu': '6eb723ab69f8edc9',
    'Q/ext-k-kC2/e_to_phi': '454b5b0d5bf39cd2',
    'Q/ext-k-kC2/phi_to_e': '74b8c37193eb865c',
    'Q/ext-k-kC2-rescaled/tensor': '9044551ed7f23adb',
    'Q/ext-k-kC2-rescaled/right_dual': '638e14e2ef7bf321',
    'Q/ext-k-kC2-rescaled/fg_projective': '814ca0ed4c24381b',
    'Q/ext-k-kC2-rescaled/dual_morphisms': '7154d4f90970877e',
    'Q/ext-k-kC2-rescaled/nu_to_phibar': '149da1744e1e3bcc',
    'Q/ext-k-kC2-rescaled/phibar_to_nu': '6eb723ab69f8edc9',
    'Q/ext-k-kC2-rescaled/e_to_phi': '77b7598cc7336805',
    'Q/ext-k-kC2-rescaled/phi_to_e': '11c0d3e3e37f5141',
    'Q/ext-k-kC3/tensor': 'ecc0af304f29bab1',
    'Q/ext-k-kC3/right_dual': '557e0db311d88e47',
    'Q/ext-k-kC3/fg_projective': 'c80d1894da75d555',
    'Q/ext-k-kC3/dual_morphisms': '52f11c681f0f6f3b',
    'Q/ext-k-kC3/nu_to_phibar': '6de1316f5798e250',
    'Q/ext-k-kC3/phibar_to_nu': '0d2e556142511ec5',
    'Q/ext-k-kC3/e_to_phi': 'af14cb5646675200',
    'Q/ext-k-kC3/phi_to_e': 'a751a93a72a13b25',
    'Q/ext-k-kC3-rescaled/tensor': 'ecc0af304f29bab1',
    'Q/ext-k-kC3-rescaled/right_dual': '557e0db311d88e47',
    'Q/ext-k-kC3-rescaled/fg_projective': 'c80d1894da75d555',
    'Q/ext-k-kC3-rescaled/dual_morphisms': 'f7e36f30a7100261',
    'Q/ext-k-kC3-rescaled/nu_to_phibar': '893b8bf61a7503b3',
    'Q/ext-k-kC3-rescaled/phibar_to_nu': '0d2e556142511ec5',
    'Q/ext-k-kC3-rescaled/e_to_phi': 'b60780ccc485d5e6',
    'Q/ext-k-kC3-rescaled/phi_to_e': '7089f746fe778f19',
    'Q/ext-k-M2/tensor': '9e01561b61f5ffc5',
    'Q/ext-k-M2/right_dual': '8eeb5b14968c90fc',
    'Q/ext-k-M2/fg_projective': '4287a7cafe24910b',
    'Q/ext-k-M2/dual_morphisms': '8742b7c910e7747d',
    'Q/ext-k-M2/nu_to_phibar': '781ed3211d0df34f',
    'Q/ext-k-M2/phibar_to_nu': '3c4441ebcee60d9d',
    'Q/ext-k-M2/e_to_phi': 'ba7b1888b9e42335',
    'Q/ext-k-M2/phi_to_e': 'a060f3dc5b736c40',
    'Q/ext-k-M2-rescaled/tensor': '9e01561b61f5ffc5',
    'Q/ext-k-M2-rescaled/right_dual': '8eeb5b14968c90fc',
    'Q/ext-k-M2-rescaled/fg_projective': '4287a7cafe24910b',
    'Q/ext-k-M2-rescaled/dual_morphisms': '551d70b5be9a865e',
    'Q/ext-k-M2-rescaled/nu_to_phibar': 'ed67d5b8ecef512b',
    'Q/ext-k-M2-rescaled/phibar_to_nu': '396a4edd8028fab5',
    'Q/ext-k-M2-rescaled/e_to_phi': 'd024b9e536d8b23b',
    'Q/ext-k-M2-rescaled/phi_to_e': '71a337338d410507',
    'Q/ext-k-T2/tensor': 'ecc0af304f29bab1',
    'Q/ext-k-T2/right_dual': '557e0db311d88e47',
    'Q/ext-k-T2/fg_projective': 'c80d1894da75d555',
    'Q/ext-k-T2/dual_morphisms': 'a299a392775d670b',
    'Q/ext-k-T2/nu_to_phibar': '39f43b46179c2c0c',
    'Q/ext-k-T2/phibar_to_nu': '2a86f0cfb89abf50',
    'Q/ext-k-T2/e_to_phi': '725b5f65108829e3',
    'Q/ext-k-T2/phi_to_e': '38ff62b7580f5ed8',
    'Q/ext-k-T2-rescaled/tensor': 'ecc0af304f29bab1',
    'Q/ext-k-T2-rescaled/right_dual': '557e0db311d88e47',
    'Q/ext-k-T2-rescaled/fg_projective': 'c80d1894da75d555',
    'Q/ext-k-T2-rescaled/dual_morphisms': '86e6d9ca31eac7cb',
    'Q/ext-k-T2-rescaled/nu_to_phibar': '2b79340b0904f441',
    'Q/ext-k-T2-rescaled/phibar_to_nu': 'f9e68fd6274e9afa',
    'Q/ext-k-T2-rescaled/e_to_phi': 'c1d20df619660134',
    'Q/ext-k-T2-rescaled/phi_to_e': '3f3ee0451a51dfae',
    'Q/ext-id-kC2/tensor': 'f9bcf29d55f36150',
    'Q/ext-id-kC2/right_dual': '5b6d882db4f79ed4',
    'Q/ext-id-kC2/fg_projective': '9f82345badda0c6c',
    'Q/ext-id-kC2/dual_morphisms': '5b6d882db4f79ed4',
    'Q/ext-id-kC2/nu_to_phibar': 'bc3f68dc1ac9bd00',
    'Q/ext-id-kC2/phibar_to_nu': 'bea86e91aed42848',
    'Q/ext-id-kC2/e_to_phi': 'ecc059856458babc',
    'Q/ext-id-kC2/phi_to_e': 'f1f9940d02c3704d',
    'Q/ext-id-kC2-rescaled/tensor': '0c4bed532f7153a1',
    'Q/ext-id-kC2-rescaled/right_dual': '5dffc28b44ec0339',
    'Q/ext-id-kC2-rescaled/fg_projective': '9f82345badda0c6c',
    'Q/ext-id-kC2-rescaled/dual_morphisms': '7154d4f90970877e',
    'Q/ext-id-kC2-rescaled/nu_to_phibar': '149da1744e1e3bcc',
    'Q/ext-id-kC2-rescaled/phibar_to_nu': 'd4eeaebfe635349c',
    'Q/ext-id-kC2-rescaled/e_to_phi': '185470e75533b2ca',
    'Q/ext-id-kC2-rescaled/phi_to_e': 'a4ecf5edaa34cb80',
    'Q/fact-doihopf-kC2/tensor': 'd010de6cd8819209',
    'Q/fact-doihopf-kC2/right_dual': '3633f7bb01011000',
    'Q/fact-doihopf-kC2/fg_projective': '292805443c113ad0',
    'Q/fact-doihopf-kC2/dual_morphisms': '877cc6fd8d029aa6',
    'Q/fact-doihopf-kC2/nu_to_phibar': '15660d1a5315ce25',
    'Q/fact-doihopf-kC2/phibar_to_nu': '725e97d59a1287e0',
    'Q/fact-doihopf-kC2/e_to_phi': '38a81f1cede07674',
    'Q/fact-doihopf-kC2/phi_to_e': '6660ac52b2d6535d',
    'Q/fact-doihopf-kC2/W3': '029fe3aa6361b2bb',
    'Q/fact-doihopf-kC2-rescaled/tensor': '831b055ede476f89',
    'Q/fact-doihopf-kC2-rescaled/right_dual': 'b76fd43e66dd3fb8',
    'Q/fact-doihopf-kC2-rescaled/fg_projective': '292805443c113ad0',
    'Q/fact-doihopf-kC2-rescaled/dual_morphisms': 'bfee528e26e4033d',
    'Q/fact-doihopf-kC2-rescaled/nu_to_phibar': '8cb1daabf6ae15de',
    'Q/fact-doihopf-kC2-rescaled/phibar_to_nu': 'f8dc98a0d19beafe',
    'Q/fact-doihopf-kC2-rescaled/e_to_phi': '750d6b5ec2996795',
    'Q/fact-doihopf-kC2-rescaled/phi_to_e': '5d60187ef8a0a59d',
    'Q/fact-doihopf-kC2-rescaled/W3': '1ea5cead398c2ee1',
    'Q/fact-flip-kC2-kC2/tensor': 'ccdccc352d2e4246',
    'Q/fact-flip-kC2-kC2/right_dual': '3633f7bb01011000',
    'Q/fact-flip-kC2-kC2/fg_projective': '292805443c113ad0',
    'Q/fact-flip-kC2-kC2/dual_morphisms': '8d109f05d31bf059',
    'Q/fact-flip-kC2-kC2/nu_to_phibar': '7526ea6afd880556',
    'Q/fact-flip-kC2-kC2/phibar_to_nu': 'af7649983f25b6d9',
    'Q/fact-flip-kC2-kC2/e_to_phi': 'd5f25c09de33adb4',
    'Q/fact-flip-kC2-kC2/phi_to_e': 'beb0a1259d757ad0',
    'Q/fact-flip-kC2-kC2/W3': '9a24c2e8a7841375',
    'Q/fact-flip-kC2-kC2-rescaled/tensor': '8f43af3bb3cf806a',
    'Q/fact-flip-kC2-kC2-rescaled/right_dual': 'b76fd43e66dd3fb8',
    'Q/fact-flip-kC2-kC2-rescaled/fg_projective': '292805443c113ad0',
    'Q/fact-flip-kC2-kC2-rescaled/dual_morphisms': 'b86492bbc61b2f72',
    'Q/fact-flip-kC2-kC2-rescaled/nu_to_phibar': '74741f7d14e6bc86',
    'Q/fact-flip-kC2-kC2-rescaled/phibar_to_nu': '57aa641de6a69666',
    'Q/fact-flip-kC2-kC2-rescaled/e_to_phi': 'afdf12bf9fa3d8da',
    'Q/fact-flip-kC2-kC2-rescaled/phi_to_e': '8c693e656a661cd2',
    'Q/fact-flip-kC2-kC2-rescaled/W3': 'f880e506e18df1be',
    'Q/fact-flip-T2-k/tensor': 'ecc0af304f29bab1',
    'Q/fact-flip-T2-k/right_dual': '557e0db311d88e47',
    'Q/fact-flip-T2-k/fg_projective': 'c80d1894da75d555',
    'Q/fact-flip-T2-k/dual_morphisms': 'a299a392775d670b',
    'Q/fact-flip-T2-k/nu_to_phibar': '39f43b46179c2c0c',
    'Q/fact-flip-T2-k/phibar_to_nu': '2a86f0cfb89abf50',
    'Q/fact-flip-T2-k/e_to_phi': '725b5f65108829e3',
    'Q/fact-flip-T2-k/phi_to_e': '38ff62b7580f5ed8',
    'Q/fact-flip-T2-k/W3': '9c0c318d68ac9156',
    'Q/fact-flip-T2-k-rescaled/tensor': 'ecc0af304f29bab1',
    'Q/fact-flip-T2-k-rescaled/right_dual': '557e0db311d88e47',
    'Q/fact-flip-T2-k-rescaled/fg_projective': 'c80d1894da75d555',
    'Q/fact-flip-T2-k-rescaled/dual_morphisms': '86e6d9ca31eac7cb',
    'Q/fact-flip-T2-k-rescaled/nu_to_phibar': '2b79340b0904f441',
    'Q/fact-flip-T2-k-rescaled/phibar_to_nu': 'f9e68fd6274e9afa',
    'Q/fact-flip-T2-k-rescaled/e_to_phi': 'c1d20df619660134',
    'Q/fact-flip-T2-k-rescaled/phi_to_e': '3f3ee0451a51dfae',
    'Q/fact-flip-T2-k-rescaled/W3': '18a31c2eb6c3f5ce',
}


if __name__ == "__main__":
    for key, digest in digests().items():
        print("    %r: %r," % (key, digest))
