"""Pinned digests of the verdict reports for every corpus entry over F2, F3 and Q.

Each report is `json.dumps(cli.verdict_report(...), sort_keys=True)` for one
(entry, question, route): the FG-, FpGp- and smash-frob questions for every
entwining, smash-frob for every factorization and ext-frob for every
extension, each on the "search" and the "iso" route.  A report holds the
verdict, the witness matrices and the search metadata, so any change to a
solution-space basis, a search order or a witness shows up here as a
changed digest.

The F2 and F3 digests were generated from the code before the linear laws
were assembled by contraction (when every solution space was still built
by probing each matrix unit), so they pin that the contraction builder and
the integer elimination kernel reproduce the old output byte for byte.
The Q digests were generated from the code before witness searches ran on
raw scalars (when every search point was inverted as a LinMap and every
Frobenius system was re-probed per point), so they pin that the
fraction-free singularity test, the tabulated bilinear systems and the Q
grid order reproduce the old output byte for byte.
Regenerate them only for a change that is meant to alter a witness:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
from types import SimpleNamespace

from entwine import cli
from entwine.actforget import FprimeGprime_frobenius
from entwine.coforget import FG_frobenius
from entwine.corpus import all_entries
from entwine.entwining import Entwining
from entwine.exactlin import Field
from entwine.homspaces import SearchConfig
from entwine.ringext import RingExtension, frobenius_check
from entwine.smash import Factorization, entwining_to_factorization, smash_frobenius_A

FIELDS = (("F2", Field("Fp", 2)), ("F3", Field("Fp", 3)), ("Q", Field("Q")))
ROUTES = ("search", "iso")
ARGS = SimpleNamespace(seed=0, enum_budget=1 << 16, trials=64)
CFG = SearchConfig(enum_budget=ARGS.enum_budget, trials=ARGS.trials, seed=ARGS.seed)


def _questions(payload):
    """(question, decide(route) -> verdict, reverify(verdict) -> dict) triples."""
    if isinstance(payload, Entwining):
        e = payload
        fact = entwining_to_factorization(e, validate=False)
        return [
            ("FG-frob", lambda r: FG_frobenius(e, CFG, route=r),
             lambda v: cli._reverify_entwining("FG-frob", e, v)),
            ("FpGp-frob", lambda r: FprimeGprime_frobenius(e, CFG, route=r),
             lambda v: cli._reverify_entwining("FpGp-frob", e, v)),
            ("smash-frob", lambda r: smash_frobenius_A(fact, CFG, route=r),
             lambda v: cli._reverify_smash(fact, "frobenius", v)),
        ]
    if isinstance(payload, Factorization):
        return [("smash-frob", lambda r: smash_frobenius_A(payload, CFG, route=r),
                 lambda v: cli._reverify_smash(payload, "frobenius", v))]
    if isinstance(payload, RingExtension):
        return [("ext-frob", lambda r: frobenius_check(payload, CFG, route=r),
                 lambda v: cli._reverify_extension("ext-frob", payload, v))]
    return []


def report_digests() -> dict:
    """{"<field>/<entry>/<question>/<route>": sha256 of the sorted JSON report}."""
    out = {}
    for tag, field in FIELDS:
        for entry in all_entries(field):
            for question, decide, reverify in _questions(entry.payload):
                for route in ROUTES:
                    v = decide(route)
                    report = cli.verdict_report(v, field, ARGS, reverify(v))
                    blob = json.dumps(report, sort_keys=True).encode()
                    key = "/".join((tag, entry.name, question, route))
                    out[key] = hashlib.sha256(blob).hexdigest()
    return out


PINNED = {
    'F2/flip-k-GL2/FG-frob/search':
        '6284e6fbad49a3348bbe2931493ccc3c291176ddf4b4878198ccf167727659a8',
    'F2/flip-k-GL2/FG-frob/iso':
        '3effb5614e6699888ab63689a1eff8fdc7328785da89798213f579b5bcdfb219',
    'F2/flip-k-GL2/FpGp-frob/search':
        '066d78259d3c717eb6073b0e75ef66a219524215c0d894315e8a89a91c58d27b',
    'F2/flip-k-GL2/FpGp-frob/iso':
        'e5e2394d31599c76a816095d6b769d3e2ba50348eb2789d33cd8a5c694ce61f7',
    'F2/flip-k-GL2/smash-frob/search':
        '2adc7fb816ffc6681d933b7c0d23c2fc8655afae69aa697b92f8723d63feeb8d',
    'F2/flip-k-GL2/smash-frob/iso':
        'b923b3ce4e4476351ce905b46f69c680e071220f0eaa2fe4c0da347a1d6b55ce',
    'F2/flip-k-DN/FG-frob/search':
        'df5f9ace5fe817c7d0dc48842ea581861ace157f3deb55260e607cfda5b4a8e8',
    'F2/flip-k-DN/FG-frob/iso':
        '75f8f32c2cd6a62ba3126ed0b97c32b5c9ff7187cb257df01aa50254ad57cf1b',
    'F2/flip-k-DN/FpGp-frob/search':
        '8e43b2e160261ce86f77e3c2725d000049dd5004f330f90d6c45f9f007acf323',
    'F2/flip-k-DN/FpGp-frob/iso':
        'a69f82b7e7873c6d2d2c06ca4388bd25ef10108e50caf63eb777fba59255031e',
    'F2/flip-k-DN/smash-frob/search':
        'f2ebf4d95e7ffd210f0e2ff3f4faff427c96835669b16ea302805bdc07a2e60a',
    'F2/flip-k-DN/smash-frob/iso':
        '2d2c8dc77cb83c61d76c4160afe6158326625e5057a2e46232c9fe0ecd1f0bf0',
    'F2/flip-kC2-GL2/FG-frob/search':
        'ad082c2f1a72ee73fb049e48c2bf84061d06ac63b4589b2086097b0ab5dfe607',
    'F2/flip-kC2-GL2/FG-frob/iso':
        'd480d6387aed82ac96611243c43ac57c33602897d2b2d357db7b27259ca6e618',
    'F2/flip-kC2-GL2/FpGp-frob/search':
        '8728b0d0bd3c51389a7c358f571fdb9fd0b0ca065fbeee72f2c661dada691464',
    'F2/flip-kC2-GL2/FpGp-frob/iso':
        'c0863ee3c2b6bc2b77bab225ca00e08b8567784749e70040c00ee0cb3446ef8d',
    'F2/flip-kC2-GL2/smash-frob/search':
        '18293a8129d07d02580a5324f0cdd2b732030871bd364dc17a2e12bae13cb1ca',
    'F2/flip-kC2-GL2/smash-frob/iso':
        '56672a3622a3fa0664616b9e1acb9e8050aac8c76a9fe2be00125bb309e63c63',
    'F2/flip-kC2-DN/FG-frob/search':
        '0faf243c80801eba3647215c1d67f4b4acc197851d511312813931615ae44a18',
    'F2/flip-kC2-DN/FG-frob/iso':
        '8a86abbf4c8cb3e93394bcd46bab971596c87b8c66c397d5c72669bf08406553',
    'F2/flip-kC2-DN/FpGp-frob/search':
        'defb49e7465422472e1aef5d2a2054fe00736a1d739d94f8946ab1cf7f74832e',
    'F2/flip-kC2-DN/FpGp-frob/iso':
        'ac0b62dcc19f038d7cae7c0637222093a8d7af9caab6a759fc3ef78749fac353',
    'F2/flip-kC2-DN/smash-frob/search':
        '56d76216f4dc1376b0a2eb2b24d380e0de6fd05aeb6eaeec3b887a92dd38033d',
    'F2/flip-kC2-DN/smash-frob/iso':
        'e8ef9015707c146b732b26b8f0b12d609024120fc09e8ec2e57fa5a62b3afedf',
    'F2/flip-M2-GL1/FG-frob/search':
        'ccad5a8410ac5be171cdf2f638645e316f690228bd946b4d63bb1afa4a8c7c3a',
    'F2/flip-M2-GL1/FG-frob/iso':
        '3837d79798ae39fed2efb40b0f345ce2da6aca1e815e078d0f3d8164c90fde32',
    'F2/flip-M2-GL1/FpGp-frob/search':
        'a17b24f1dd789baa0a587aaa9e2f7aa30ba8bcd9d16fa7d7a939ed1917ceb257',
    'F2/flip-M2-GL1/FpGp-frob/iso':
        'd41cc50c9560d40b5d820d53cfbcfbb004977bb98223165133dbb24dd5cddde9',
    'F2/flip-M2-GL1/smash-frob/search':
        '9ca33b4d7be4765d47d185facea34cc9b36e3a5ed5824ef859eecd575ce02a9d',
    'F2/flip-M2-GL1/smash-frob/iso':
        '8e7ed8a74f72fac244078ecb6d00b0a283798880c3fcffef4ce2bc2585d7339a',
    'F2/flip-k-arrow/FG-frob/search':
        '4631c88bab7014eea5756ee6744545d1a96b18517763a3f5b22be8c1af79ee9c',
    'F2/flip-k-arrow/FG-frob/iso':
        'e9b81559395bd8c89a2dc1be60d8a5f564d755a91016e09ae456254d23c3a4cc',
    'F2/flip-k-arrow/FpGp-frob/search':
        'a0f5fcc565a8ad2b719acfcf5a96d7fbedca377d7514b35030d8322ee82c8cfb',
    'F2/flip-k-arrow/FpGp-frob/iso':
        '8d05d4f0e45221df4bea340a5f02649fb9a127eb7f7fb5e6df9d7411410d5e62',
    'F2/flip-k-arrow/smash-frob/search':
        'd1acfe7bb9981944fb7436831328be6efd06249618d0bdb04ad618c96820f4a4',
    'F2/flip-k-arrow/smash-frob/iso':
        'f936e7a9ac5b1e5ce1d537faf690f4ba5a59188e5adf6cfb4ec674c315a6a512',
    'F2/doihopf-kC2/FG-frob/search':
        '0429764d5aacb4f6fbe1a06d00ae38e39a0928a647b531eb4457a1da65d2a0e2',
    'F2/doihopf-kC2/FG-frob/iso':
        '6562899221f1ba5f5104c895935dfb48a2a5cbcfd9038ef566a71d2a5172e341',
    'F2/doihopf-kC2/FpGp-frob/search':
        'e869280b3c2882bc7d43d6cbee72e7fa8cbd492ae5cf053c22321054320e8687',
    'F2/doihopf-kC2/FpGp-frob/iso':
        'a3c9eefebc135f18ebcbafac41f3013617e04a3f6f7f0fa8042e5f0060455da9',
    'F2/doihopf-kC2/smash-frob/search':
        '6dde03acb8a515845173e44e5d6b5287a6fd255a8dd727f5aebc71925cc1f4da',
    'F2/doihopf-kC2/smash-frob/iso':
        'eb5b26d6d479b18c13e8f182f40b1eeaa2e1383af037ad7ad53db841ebfec9f3',
    'F2/fact-doihopf-kC2/smash-frob/search':
        '6dde03acb8a515845173e44e5d6b5287a6fd255a8dd727f5aebc71925cc1f4da',
    'F2/fact-doihopf-kC2/smash-frob/iso':
        'eb5b26d6d479b18c13e8f182f40b1eeaa2e1383af037ad7ad53db841ebfec9f3',
    'F2/fact-flip-kC2-kC2/smash-frob/search':
        '56d76216f4dc1376b0a2eb2b24d380e0de6fd05aeb6eaeec3b887a92dd38033d',
    'F2/fact-flip-kC2-kC2/smash-frob/iso':
        '82c3e6e390f6b8058a74878b86e172ff31a04ca5a19544b53eed7706eed12cb3',
    'F2/fact-flip-T2-k/smash-frob/search':
        'd1acfe7bb9981944fb7436831328be6efd06249618d0bdb04ad618c96820f4a4',
    'F2/fact-flip-T2-k/smash-frob/iso':
        'f936e7a9ac5b1e5ce1d537faf690f4ba5a59188e5adf6cfb4ec674c315a6a512',
    'F2/ext-k-kC2/ext-frob/search':
        'd128103c5fdcefd17c83ddfda151a83d8f1ec4fd16a6630f14a071f2c8cbc729',
    'F2/ext-k-kC2/ext-frob/iso':
        '06c824917f237482844d7344c8271ec5da5d8a2e0c5c50ceba96c99635cebdd1',
    'F2/ext-k-kC3/ext-frob/search':
        '8433a7360da0576a4c671df3a08957b0479165685af21df66cc8afaed4e50208',
    'F2/ext-k-kC3/ext-frob/iso':
        '34bf2aa1953bdd5143e887c4cfe02d2a81b592aa42e80743afb4d629d3b2da7b',
    'F2/ext-k-M2/ext-frob/search':
        'b32423ea354b1f10e3c51294e2e5ad46ccb5ff3fc0638a1b89e4a8c671492035',
    'F2/ext-k-M2/ext-frob/iso':
        'f3c8f8c8520173a7c24f9de8ce9258cd7106fd6a4f77a92ece82d8069d167781',
    'F2/ext-k-T2/ext-frob/search':
        '4e07adabadf5d5aed9be2aedb81f095dfd64973c969ebf3f26e11d1a457bd979',
    'F2/ext-k-T2/ext-frob/iso':
        'b24189a28c3dceb4f026240be819c62a424b370e11753dbf7db44fef4a27beb7',
    'F2/ext-id-kC2/ext-frob/search':
        '7085d8d4cf6212ee720f31c6c17acf7c155914f1ad251a11fd1bbe93d705356a',
    'F2/ext-id-kC2/ext-frob/iso':
        'fb105abfc59911a9d51d887b99273efabfec926a323d3d12971f40ee664eba93',
    'F3/flip-k-GL2/FG-frob/search':
        'b536846602b506d7096f39a9d8fec4f06a97e709a8eeb0329af0f4effb84e264',
    'F3/flip-k-GL2/FG-frob/iso':
        '84dbbd4b272522f81e1fb613ee5088f11b74da833f2c4a299ee1c9f2e1eaabe8',
    'F3/flip-k-GL2/FpGp-frob/search':
        '3dfe2278fbccf05f63210e92a780959d3f9f0f64a9ca76aba33d808de428db07',
    'F3/flip-k-GL2/FpGp-frob/iso':
        'b978a2bc12a1d592dc31e424a0912ded9d01ccafaa0a41281dbd68b842851def',
    'F3/flip-k-GL2/smash-frob/search':
        '08437cfe913a9ae00283ff2079636ced6adc364cbfd9ffb62c06c57935cfd892',
    'F3/flip-k-GL2/smash-frob/iso':
        '161080dbee769ad2ea655e6916588d127c9f7813679afd0b211fdeb001568e37',
    'F3/flip-k-DN/FG-frob/search':
        '2c0abdb061d14a44ed031a06566a4008eeccf3671014e42e3f9a61fe77eeccd1',
    'F3/flip-k-DN/FG-frob/iso':
        'bf603ad9fdc8665cd1870fc1e2d45bfb8717276f2894fea7435cb1b40df4bae0',
    'F3/flip-k-DN/FpGp-frob/search':
        'd7be49b885be47241125b6b9008f7a4111091bee6c0dcd4d88d3e6c7e7f28132',
    'F3/flip-k-DN/FpGp-frob/iso':
        '232979bf5fc81f7510a0f067d34760340c5ad8091e843e37e3a70afa082642b0',
    'F3/flip-k-DN/smash-frob/search':
        '5fba51c779d5e958262f6855856340fbe768792aaa5a01c33d3407da0a27a526',
    'F3/flip-k-DN/smash-frob/iso':
        '83bd760c68f2a3f0699d89143924ce42772d7fac5c103af83163e2509942802f',
    'F3/flip-kC2-GL2/FG-frob/search':
        '347506ff5e0dbd3bc1fc2c2d1953a54c772285c16b122345c38e1bbb01cd2a77',
    'F3/flip-kC2-GL2/FG-frob/iso':
        '568831a7054b50d490b76c6fc433b65b336345d5153698c49c71f43f462de25c',
    'F3/flip-kC2-GL2/FpGp-frob/search':
        '8bc9af89f43a1398e9a332061c9ec0cfc1108c37eef7bb2374b7321bb86baf48',
    'F3/flip-kC2-GL2/FpGp-frob/iso':
        'e3d8d5739c39f8afc728b0ec5924adb0c58816ca7ceab7701e9609bfdef82c5d',
    'F3/flip-kC2-GL2/smash-frob/search':
        'e96cb8b68d87d717e4c46040767b57040bbfca49e42bdc2a11b8df4644bc09ed',
    'F3/flip-kC2-GL2/smash-frob/iso':
        'c5e641cf62af65936d116efb7af08977ad6ffe9c554c151c514f0ef2d9ea0949',
    'F3/flip-kC2-DN/FG-frob/search':
        'f8920300a64f101a6f0d4fe759d624ce340480bbaf7d08a461be61d49e229832',
    'F3/flip-kC2-DN/FG-frob/iso':
        '220e91d2c3065b972258bcf9f3c4bfd2d6bdaf7f985ffae9df7519644ca76421',
    'F3/flip-kC2-DN/FpGp-frob/search':
        '7ba8cd0ed8175c3a3977a298dc04d16db2b1b318064394129d609ca60fb00133',
    'F3/flip-kC2-DN/FpGp-frob/iso':
        '406007ee8a9a530bf72afb6e28757f838352554f8991f526e1d04e5b3c5d23a7',
    'F3/flip-kC2-DN/smash-frob/search':
        'dcb945630932fd479359a08ffbf318e7612e726d1b82eac7db9bc82578ad66e4',
    'F3/flip-kC2-DN/smash-frob/iso':
        'e1023ea5bcff4b8ec8aed8062d171279a5034fc3d693ef54ced675f6dd2b1c09',
    'F3/flip-M2-GL1/FG-frob/search':
        'ff12c029d7d7fde3ddfe29ca670284d2e5fe405dcca70fce6b7bc38ae8a096d5',
    'F3/flip-M2-GL1/FG-frob/iso':
        'cfb74c8dbce75f709a2c2a6c1feb7f074d0dc7b555756f374535233d27e5463d',
    'F3/flip-M2-GL1/FpGp-frob/search':
        '40a1a3cc9ec5271477d2e8b616c4b7cbf07cae9300eb2e82e38268a4d6d4456c',
    'F3/flip-M2-GL1/FpGp-frob/iso':
        '77c815cac196778d3c80e8c2fcf1a19d0631304aa79e699dee0d7c06d75f98d9',
    'F3/flip-M2-GL1/smash-frob/search':
        '81a5c2b5ed51eb9dc9b09d87a26ccb9cb1f7a62b3e342dabfb958c36dd46123e',
    'F3/flip-M2-GL1/smash-frob/iso':
        'a4b3cfe787222353dac998f9347d79516e57d268e9cc981f29cbcf472ea190de',
    'F3/flip-k-arrow/FG-frob/search':
        '7820ef324e6f2e8a2f3ea84863d99bb5a33dc140a66e2bd9b4c18aa6df431706',
    'F3/flip-k-arrow/FG-frob/iso':
        '825be0d2e0675b645a6527105a64c2d58eb4d778d4da5cc88483c0f0ace89438',
    'F3/flip-k-arrow/FpGp-frob/search':
        'ab0f02f5df899455686d47b617010a08da6eaa151819d7f220887334a05b6634',
    'F3/flip-k-arrow/FpGp-frob/iso':
        'fadfd46e768605143cc31cc2893edecbd05dbd04b539779de673b00739197427',
    'F3/flip-k-arrow/smash-frob/search':
        '457fa5ef547f88492e86716b62a08d03e1dd3c0484f4e5300f09a97084c8a5ad',
    'F3/flip-k-arrow/smash-frob/iso':
        '4392e20cb76b23b8ecaed9f0ded2809cd3106b992b2ce062b64f4734bd99ce44',
    'F3/doihopf-kC2/FG-frob/search':
        'c5d11b230976695e9bc0700ef39148bcc94d456c79d8067dc1a64b047dbcc387',
    'F3/doihopf-kC2/FG-frob/iso':
        '7205831a12ad7bb2662f52878a7482f3150b3e2da4d464d3ff4ea632ffa51da6',
    'F3/doihopf-kC2/FpGp-frob/search':
        '8cbf04264b549e05f8dd5bd02cbf92a2613cf4baf3e90f7776eefb988841af23',
    'F3/doihopf-kC2/FpGp-frob/iso':
        '8524990a560223faa3751d80cedef4b4c8a0d70665d26e7b6e5cac803ce17a7f',
    'F3/doihopf-kC2/smash-frob/search':
        'bb71c472f2ff4bcfb24b6e58b8c66b124186c5e7714e50350ffccd7d718df3b3',
    'F3/doihopf-kC2/smash-frob/iso':
        '1fb7822dcbddf4a2025b5b5b81a164a98d578f1df127e145f6a71e9485397fad',
    'F3/fact-doihopf-kC2/smash-frob/search':
        'bb71c472f2ff4bcfb24b6e58b8c66b124186c5e7714e50350ffccd7d718df3b3',
    'F3/fact-doihopf-kC2/smash-frob/iso':
        '1fb7822dcbddf4a2025b5b5b81a164a98d578f1df127e145f6a71e9485397fad',
    'F3/fact-flip-kC2-kC2/smash-frob/search':
        'dcb945630932fd479359a08ffbf318e7612e726d1b82eac7db9bc82578ad66e4',
    'F3/fact-flip-kC2-kC2/smash-frob/iso':
        'b1588dc1ac49920b0c7db27cff3e7d29730fbb9dbd83bf9b328014f04460bc2e',
    'F3/fact-flip-T2-k/smash-frob/search':
        '457fa5ef547f88492e86716b62a08d03e1dd3c0484f4e5300f09a97084c8a5ad',
    'F3/fact-flip-T2-k/smash-frob/iso':
        '4392e20cb76b23b8ecaed9f0ded2809cd3106b992b2ce062b64f4734bd99ce44',
    'F3/ext-k-kC2/ext-frob/search':
        'aadbe0c7e8ddf029180658a561554306008acef18a546c07e38e092e7e2233fc',
    'F3/ext-k-kC2/ext-frob/iso':
        'eccc90ae0c0720980a64ae6672a9c4df331f2522390b7e9c1227e05f34b0df9f',
    'F3/ext-k-kC3/ext-frob/search':
        '0d08feef79906f498400b1e28be8d3032e5c445bd22171192c75a21d0fec0c4d',
    'F3/ext-k-kC3/ext-frob/iso':
        'b738101b37c0c47f1d000ec8d20cd18c2e6612659a7de6abeb97628c2c2699be',
    'F3/ext-k-M2/ext-frob/search':
        'c6e37690eae15b55a5f1064cfec0e93f19514f2821bf78c7af3e3789873ddc07',
    'F3/ext-k-M2/ext-frob/iso':
        '5c78e6dadbbad88e43ce068e1dbad40b00f34a7f4eb031de428b3a5579725430',
    'F3/ext-k-T2/ext-frob/search':
        'da789e3a9c164a763978af42ab84855c9147c823e73584ffa044c75ef89416dc',
    'F3/ext-k-T2/ext-frob/iso':
        '3e147f33469b73bf86efc0478ae248a2f49fd6a284a048a88752e5474d5493e7',
    'F3/ext-id-kC2/ext-frob/search':
        'c29506387364d45cb68a50fc44f6cb446b67200dfddcf1dbd43a22c524636fb6',
    'F3/ext-id-kC2/ext-frob/iso':
        '96132d3d739990794d3cacfd05d2b641a2515feb31e09262e0fc799f5b3ef3d6',
    'Q/flip-k-GL2/FG-frob/search':
        '019389d78835d5c6b66e2f0a9a0bc6a5d5568b698e76f86ea864c63c6464688c',
    'Q/flip-k-GL2/FG-frob/iso':
        '1d5b02a347fe8bbb5fc010264db182c8b53525ed0eb6bb6ec644bca5f95d8b0c',
    'Q/flip-k-GL2/FpGp-frob/search':
        '35cd8efc391ce39f6d025afd595618af1040cac7684f59c7c8cebdda0e6d6a15',
    'Q/flip-k-GL2/FpGp-frob/iso':
        'f59e3e96e4589a170a963da62069d8668a5bd1c151f1740201db8013e65acc53',
    'Q/flip-k-GL2/smash-frob/search':
        'f77dcc3497ae749842981a41a573389a9860b8196764cb0185299fce42770a09',
    'Q/flip-k-GL2/smash-frob/iso':
        '4c5a92331cd8ee30fa5449412c7927b1ef6d3663fb946d98f22b00e5daef880c',
    'Q/flip-k-DN/FG-frob/search':
        'b96390a5bd57eddc8af2e0d366402434ee6676992e17dbe3f551c4491f888266',
    'Q/flip-k-DN/FG-frob/iso':
        '4b52a51c98c782323ac64c137508209566070c79c2a726b74aa0a0cfce2e1349',
    'Q/flip-k-DN/FpGp-frob/search':
        '57746537cc975469e9ebb472ea4046d8cdc67d4c7fd82a71e42cbd5554325806',
    'Q/flip-k-DN/FpGp-frob/iso':
        'a0fa0b6f4ac575422ee2812c7f79e973ab764c94af44b7da63469728dbfe9521',
    'Q/flip-k-DN/smash-frob/search':
        '81ad20bf9342d84cad3cb0f586d1e8150d9e8961a6ff21dea4f7e420ebc2c81b',
    'Q/flip-k-DN/smash-frob/iso':
        '039364b290cdd0e251454792de343378988c276314ab6f4ce85e6e12a1e67876',
    'Q/flip-kC2-GL2/FG-frob/search':
        '2b9f84afd2e162f7c4f414835dcf0b6d77d2ba04e2b3df29b01139c54ced141c',
    'Q/flip-kC2-GL2/FG-frob/iso':
        '1cab171130a8861cb56918bf31584490abeb4f8c04b5bba0dca3319ec73c8c5f',
    'Q/flip-kC2-GL2/FpGp-frob/search':
        '18d0ad3256dc64c4da1a1e8d3a9fabcb510272f9195942249266b463f4c9ebe2',
    'Q/flip-kC2-GL2/FpGp-frob/iso':
        'b43276c6e0063aa0b271070a63b3a0f6f20aecc6f142dc27b1b4fe96c507f05b',
    'Q/flip-kC2-GL2/smash-frob/search':
        'fb8f1b8647d854f78480a0d9117534ade5836cd35c3df212ba9680eb8adfc6dd',
    'Q/flip-kC2-GL2/smash-frob/iso':
        'f2406f2447add2c144ae8c85816d5dd3e2fb5e836a157ec58cc53c63479bb672',
    'Q/flip-kC2-DN/FG-frob/search':
        '6de2f34198113602671ccc8b9c97af3cd71615284f64e89e6f72daf7677e1926',
    'Q/flip-kC2-DN/FG-frob/iso':
        '4d8f384690712983fb392c28995f60415a467912eb7c8f3d479848533b485bc5',
    'Q/flip-kC2-DN/FpGp-frob/search':
        '8e5201462deadbf90778a817cdbb49e1902612e94bc54b6da152c8716c4b672d',
    'Q/flip-kC2-DN/FpGp-frob/iso':
        'c5898069af2e638a4130d43cdb76781df3195911b80bdcdde7b187f0d4bdc5d5',
    'Q/flip-kC2-DN/smash-frob/search':
        'd82937a04e92cd4e2fd244058ac1962f11d4a9b396d8d370f899b609761a7709',
    'Q/flip-kC2-DN/smash-frob/iso':
        'cac7ce3ac3332b26aa56549fd0a80b2b5eb278c46e9877c87dd7126e48445732',
    'Q/flip-M2-GL1/FG-frob/search':
        '70a51fe61d9acff000a8fcc3820043a0e4769aa8223c7a487982d73168ae7acf',
    'Q/flip-M2-GL1/FG-frob/iso':
        '69dfad0a6ab053dd488c1d3c9b89bd6472a416efd74c60a2e2852b5c372320e3',
    'Q/flip-M2-GL1/FpGp-frob/search':
        'b952e826cbbd3b673045b9f17751f604e24a537ca2d9e1fd86eb9e883230459a',
    'Q/flip-M2-GL1/FpGp-frob/iso':
        'a9c9959e0b17d3ef6c50a27728cddd82aa5199a9085057825ba778dca5def1ae',
    'Q/flip-M2-GL1/smash-frob/search':
        'b0df4292deeb66a81738f5d8b0cc57d37dd69a4df607b4763db85b6b0f07b7a6',
    'Q/flip-M2-GL1/smash-frob/iso':
        'c481e78981aedb9b09a9ae16f1d27e8582e4037379031cbda5b433486a5e459d',
    'Q/flip-k-arrow/FG-frob/search':
        'dd82e5205a53f4395e40da722f97cbfc3a6a6d689fb6ebdcc074eab96a292bcb',
    'Q/flip-k-arrow/FG-frob/iso':
        'e927a27a6c9ff5dea625c43300e4f65d2b3928523a13d080b07cca3bcb453e73',
    'Q/flip-k-arrow/FpGp-frob/search':
        '14915f82a5d471a0a17477350c161676d63a86b8fe60d6f9ae3274aa7cb8682e',
    'Q/flip-k-arrow/FpGp-frob/iso':
        '60617283734991b7cf5e1ae520de987a47e6357620deb09806a2c0725170e3e4',
    'Q/flip-k-arrow/smash-frob/search':
        '21d74e379f9bd3b1b45f460dccb1086ba9047b8f48756b7a6f554fb9454ad121',
    'Q/flip-k-arrow/smash-frob/iso':
        '74dea34e883ca3953bd4c4e6cc3889b0691b135afefa56e79cb970965711c160',
    'Q/doihopf-kC2/FG-frob/search':
        '34a5f78b87d3da191483989e149bee913edc28baafa149c0c8aa65b2e4b1f3b0',
    'Q/doihopf-kC2/FG-frob/iso':
        '598483ab28fffa13e52552fa6cac86851717c50cfb413d638e48d18d320199c3',
    'Q/doihopf-kC2/FpGp-frob/search':
        '0ab141a549e00657033a3097d9d5e5cb8a4b3a36b50329446047d9f563e59cfc',
    'Q/doihopf-kC2/FpGp-frob/iso':
        '691a30ee6099ca6d7a0ea9578ee32c4e00f7ad7d1efcaf9a5b122b0bdb744af4',
    'Q/doihopf-kC2/smash-frob/search':
        '81e8ba1938b8e2ea8dfa68fc46afd65859d1456264c4b1c6ebb4a884d8a6d983',
    'Q/doihopf-kC2/smash-frob/iso':
        'f5ba3630f7226c3265468472581805249743b1d92e902ea836324ec37abc7c3e',
    'Q/fact-doihopf-kC2/smash-frob/search':
        '81e8ba1938b8e2ea8dfa68fc46afd65859d1456264c4b1c6ebb4a884d8a6d983',
    'Q/fact-doihopf-kC2/smash-frob/iso':
        'f5ba3630f7226c3265468472581805249743b1d92e902ea836324ec37abc7c3e',
    'Q/fact-flip-kC2-kC2/smash-frob/search':
        'd5833d5511a28cd95bfa5db36310d5a775a8a1623dfbc7d1a226e240c6445ee3',
    'Q/fact-flip-kC2-kC2/smash-frob/iso':
        'b6824a8f844954b559c7bffae640b14cc9ff68310634ff64f40eeba7e96c2bf9',
    'Q/fact-flip-T2-k/smash-frob/search':
        '21d74e379f9bd3b1b45f460dccb1086ba9047b8f48756b7a6f554fb9454ad121',
    'Q/fact-flip-T2-k/smash-frob/iso':
        '74dea34e883ca3953bd4c4e6cc3889b0691b135afefa56e79cb970965711c160',
    'Q/ext-k-kC2/ext-frob/search':
        'b6e5ad1d57c4e14b9e590e0c192f9179be267eb114389389d4a5baf02eda6e39',
    'Q/ext-k-kC2/ext-frob/iso':
        '55943f6354379c8e08a3d36a3862f33d30056fe808b05251ef46a9674281deb2',
    'Q/ext-k-kC3/ext-frob/search':
        '43591bc0af693517b875fa0be075154855c61960ec153a79c515d140ebe17a4a',
    'Q/ext-k-kC3/ext-frob/iso':
        '847807a710815bff5225715ac2eb53d3fe821106876260142942d012186a2e98',
    'Q/ext-k-M2/ext-frob/search':
        '5916b279ef84850c70f345fe1b24c3ab1f09b7cf4ada4a08af04207c9193fce4',
    'Q/ext-k-M2/ext-frob/iso':
        '0c71c103cfe3d5115809dc787ba548e7c0b8eb2a311b860e2209edce1723851c',
    'Q/ext-k-T2/ext-frob/search':
        'fe455a1d8f22037917fc5db1fce99699006159fe2b163190ce4fef028ea66bdd',
    'Q/ext-k-T2/ext-frob/iso':
        '4699486389251d297857b577fb7bd8f02dee4e539443808c1a14ecbe635c962f',
    'Q/ext-id-kC2/ext-frob/search':
        'fcea5d9503dc5a839a7b8709e9208c518dd8c53e4028c0e494fae39631ce13fb',
    'Q/ext-id-kC2/ext-frob/iso':
        '1b0d02974d89a74adce59cde97d40cbf0d7a7ee25147de94f91dd6cdee9148da',
}


def test_verdict_reports_match_pinned_digests():
    got = report_digests()
    assert sorted(got) == sorted(PINNED)
    changed = [k for k in PINNED if got[k] != PINNED[k]]
    assert not changed, "verdict reports changed: %s" % ", ".join(changed)


if __name__ == "__main__":
    for key, digest in report_digests().items():
        print("    %r:\n        %r," % (key, digest))
