"""Pinned digests of the verdict reports for every corpus entry over F2, F3 and Q.

Each report is `json.dumps(cli.verdict_report(...), sort_keys=True)` for one
(entry, question, route): the FG-, FpGp- and smash-frob questions for every
entwining, smash-frob for every factorization and ext-frob for every
extension, each on the "search", the "iso" and the "auto" route.  Every
other question that applies to an entry is pinned through
`cli.run_analysis`, the path `entwine analyze` takes, as its report and
exit code together.  A report holds the verdict, the witness matrices and
the search metadata, so any change to a solution-space basis, a search
order or a witness shows up here as a changed digest.

The F2 and F3 digests were generated from the code before the linear laws
were assembled by contraction (when every solution space was still built
by probing each matrix unit), so they pin that the contraction builder and
the integer elimination kernel reproduce the old output byte for byte.
The Q digests were generated from the code before witness searches ran on
raw scalars (when every search point was inverted as a LinMap and every
Frobenius system was re-probed per point), so they pin that the
fraction-free singularity test, the tabulated bilinear systems and the Q
grid order reproduce the old output byte for byte.
The "auto"-route digests, and the `cli.run_analysis` reports of the
separability and splitting questions (F-sep, G-sep, Fp-sep, Gp-sep,
ext-split, ext-sep) and of smash-over-A, smash-over-B and cross-check,
were generated from the code before the four Frobenius deciders shared one
driver and the eight separability deciders one helper, so they pin that
the shared pipeline reproduces every verdict, witness and exit code of the
per-decider copies byte for byte.
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
ROUTES = ("search", "iso", "auto")
# the questions without a route, asked through `cli.run_analysis`
ANALYSES = {
    "entwining": ("F-sep", "G-sep", "Fp-sep", "Gp-sep",
                  "smash-over-A", "smash-over-B", "cross-check"),
    "factorization": ("smash-over-A", "smash-over-B"),
    "ring_extension": ("ext-split", "ext-sep"),
}
ANALYSES["doi_hopf"] = ANALYSES["entwining"]
ARGS = SimpleNamespace(seed=0, enum_budget=1 << 16, trials=64)
CFG = SearchConfig(enum_budget=ARGS.enum_budget, trials=ARGS.trials, seed=ARGS.seed)


def _questions(payload):
    """(question, decide(route) -> verdict) pairs."""
    if isinstance(payload, Entwining):
        e = payload
        fact = entwining_to_factorization(e)
        return [
            ("FG-frob", lambda r: FG_frobenius(e, CFG, route=r)),
            ("FpGp-frob", lambda r: FprimeGprime_frobenius(e, CFG, route=r)),
            ("smash-frob", lambda r: smash_frobenius_A(fact, CFG, route=r)),
        ]
    if isinstance(payload, Factorization):
        return [("smash-frob", lambda r: smash_frobenius_A(payload, CFG, route=r))]
    if isinstance(payload, RingExtension):
        return [("ext-frob", lambda r: frobenius_check(payload, CFG, route=r))]
    return []


def report_digests() -> dict:
    """{"<field>/<entry>/<question>/<route>": sha256 of the sorted JSON
    report} for the Frobenius questions, {"<field>/<entry>/<question>":
    sha256 of the sorted JSON report and exit code} for the rest."""
    out = {}
    for tag, field in FIELDS:
        for entry in all_entries(field):
            for question, decide in _questions(entry.payload):
                for route in ROUTES:
                    v = decide(route)
                    report = cli.verdict_report(v, field, ARGS, v.residual_checks)
                    blob = json.dumps(report, sort_keys=True).encode()
                    key = "/".join((tag, entry.name, question, route))
                    out[key] = hashlib.sha256(blob).hexdigest()
            kind = cli._entry_kind(entry.payload)
            for question in ANALYSES.get(kind, ()):
                report, code = cli.run_analysis(kind, entry.payload, question, CFG,
                                                field, ARGS)
                blob = json.dumps({"report": report, "exit": code},
                                  sort_keys=True).encode()
                key = "/".join((tag, entry.name, question))
                out[key] = hashlib.sha256(blob).hexdigest()
    return out


PINNED = {
    'F2/flip-k-GL2/FG-frob/search':
        '6284e6fbad49a3348bbe2931493ccc3c291176ddf4b4878198ccf167727659a8',
    'F2/flip-k-GL2/FG-frob/iso':
        '3effb5614e6699888ab63689a1eff8fdc7328785da89798213f579b5bcdfb219',
    'F2/flip-k-GL2/FG-frob/auto':
        '6284e6fbad49a3348bbe2931493ccc3c291176ddf4b4878198ccf167727659a8',
    'F2/flip-k-GL2/FpGp-frob/search':
        '066d78259d3c717eb6073b0e75ef66a219524215c0d894315e8a89a91c58d27b',
    'F2/flip-k-GL2/FpGp-frob/iso':
        'e5e2394d31599c76a816095d6b769d3e2ba50348eb2789d33cd8a5c694ce61f7',
    'F2/flip-k-GL2/FpGp-frob/auto':
        '066d78259d3c717eb6073b0e75ef66a219524215c0d894315e8a89a91c58d27b',
    'F2/flip-k-GL2/smash-frob/search':
        '2adc7fb816ffc6681d933b7c0d23c2fc8655afae69aa697b92f8723d63feeb8d',
    'F2/flip-k-GL2/smash-frob/iso':
        'b923b3ce4e4476351ce905b46f69c680e071220f0eaa2fe4c0da347a1d6b55ce',
    'F2/flip-k-GL2/smash-frob/auto':
        '2adc7fb816ffc6681d933b7c0d23c2fc8655afae69aa697b92f8723d63feeb8d',
    'F2/flip-k-GL2/F-sep':
        'fdc8ea6102ec9bbae3ace8159f5912093c3ee2676078f2c9953d7fb610c3893d',
    'F2/flip-k-GL2/G-sep':
        'a74c6a37d199d1a13023378912203e47e58b301ad15dfcaf3231a1e07f8e7a65',
    'F2/flip-k-GL2/Fp-sep':
        'b88c0b5da4501c6213ef9795b697018689c5655b85d16dcc1138657e75ab484e',
    'F2/flip-k-GL2/Gp-sep':
        '744a793044d351eabfb2246899e6a88bde8a13dc037908c9ae8019014e8f7126',
    'F2/flip-k-GL2/smash-over-A':
        '245bd02f269125104e03c029f27ca7accd057a9e3d6b619e5309d1a469c3db34',
    'F2/flip-k-GL2/smash-over-B':
        '9fcf762ec7a71abdd8f8e2cb62d06636cd0e81cb2160b85bf09b0181f6ea4bbc',
    'F2/flip-k-GL2/cross-check':
        '62e24fb9d12450a8d8d85474a2323b2fba275912336745c1c4d5910732d4c1d2',
    'F2/flip-k-DN/FG-frob/search':
        'df5f9ace5fe817c7d0dc48842ea581861ace157f3deb55260e607cfda5b4a8e8',
    'F2/flip-k-DN/FG-frob/iso':
        '75f8f32c2cd6a62ba3126ed0b97c32b5c9ff7187cb257df01aa50254ad57cf1b',
    'F2/flip-k-DN/FG-frob/auto':
        'df5f9ace5fe817c7d0dc48842ea581861ace157f3deb55260e607cfda5b4a8e8',
    'F2/flip-k-DN/FpGp-frob/search':
        '8e43b2e160261ce86f77e3c2725d000049dd5004f330f90d6c45f9f007acf323',
    'F2/flip-k-DN/FpGp-frob/iso':
        'a69f82b7e7873c6d2d2c06ca4388bd25ef10108e50caf63eb777fba59255031e',
    'F2/flip-k-DN/FpGp-frob/auto':
        '8e43b2e160261ce86f77e3c2725d000049dd5004f330f90d6c45f9f007acf323',
    'F2/flip-k-DN/smash-frob/search':
        'f2ebf4d95e7ffd210f0e2ff3f4faff427c96835669b16ea302805bdc07a2e60a',
    'F2/flip-k-DN/smash-frob/iso':
        '2d2c8dc77cb83c61d76c4160afe6158326625e5057a2e46232c9fe0ecd1f0bf0',
    'F2/flip-k-DN/smash-frob/auto':
        'f2ebf4d95e7ffd210f0e2ff3f4faff427c96835669b16ea302805bdc07a2e60a',
    'F2/flip-k-DN/F-sep':
        '297bc6082e6c6c6c8115a0457f783bf6f22f0a012772d0125bf9fccc6d0027c8',
    'F2/flip-k-DN/G-sep':
        'a74c6a37d199d1a13023378912203e47e58b301ad15dfcaf3231a1e07f8e7a65',
    'F2/flip-k-DN/Fp-sep':
        'f915830ba9afb96cf589e59a4115f007d844484f396f5897208a9384fd36b11e',
    'F2/flip-k-DN/Gp-sep':
        '409d1aa4af344b9501609586db969ecba935e70b0dfff9ed7772dc755505f1c8',
    'F2/flip-k-DN/smash-over-A':
        '7a5646c1246ad08c4e9f7094ee058fa659d0f44aeac186fcf6e89592028a92f9',
    'F2/flip-k-DN/smash-over-B':
        '872a0141613353de2318385a3b9442f75140109f6b7e7dc4d22acba8252b1a95',
    'F2/flip-k-DN/cross-check':
        '6a9b9f9c0c5e1e3c50c3358f7828141f3d1823c41579ebba64c2269a2acfafe7',
    'F2/flip-kC2-GL2/FG-frob/search':
        'ad082c2f1a72ee73fb049e48c2bf84061d06ac63b4589b2086097b0ab5dfe607',
    'F2/flip-kC2-GL2/FG-frob/iso':
        'd480d6387aed82ac96611243c43ac57c33602897d2b2d357db7b27259ca6e618',
    'F2/flip-kC2-GL2/FG-frob/auto':
        'ad082c2f1a72ee73fb049e48c2bf84061d06ac63b4589b2086097b0ab5dfe607',
    'F2/flip-kC2-GL2/FpGp-frob/search':
        '8728b0d0bd3c51389a7c358f571fdb9fd0b0ca065fbeee72f2c661dada691464',
    'F2/flip-kC2-GL2/FpGp-frob/iso':
        'c0863ee3c2b6bc2b77bab225ca00e08b8567784749e70040c00ee0cb3446ef8d',
    'F2/flip-kC2-GL2/FpGp-frob/auto':
        '8728b0d0bd3c51389a7c358f571fdb9fd0b0ca065fbeee72f2c661dada691464',
    'F2/flip-kC2-GL2/smash-frob/search':
        '18293a8129d07d02580a5324f0cdd2b732030871bd364dc17a2e12bae13cb1ca',
    'F2/flip-kC2-GL2/smash-frob/iso':
        '56672a3622a3fa0664616b9e1acb9e8050aac8c76a9fe2be00125bb309e63c63',
    'F2/flip-kC2-GL2/smash-frob/auto':
        '18293a8129d07d02580a5324f0cdd2b732030871bd364dc17a2e12bae13cb1ca',
    'F2/flip-kC2-GL2/F-sep':
        'b90e533768da6fb8ba29ee2be693ac6501716ea83ec380ddbda63ff4a2cc48ed',
    'F2/flip-kC2-GL2/G-sep':
        '29f787f31c2a8001bc4bb270750baeeed69ef36311169e5e024b005a339df391',
    'F2/flip-kC2-GL2/Fp-sep':
        'e51133c0cc462e20aa5b017d7f76c890ceefa2a16ab2521230c19069bc10b74b',
    'F2/flip-kC2-GL2/Gp-sep':
        'd70351a65a1b852d099eaf7117fcbdcbd2796fac5d6c0c0a9217cfab2cb3129b',
    'F2/flip-kC2-GL2/smash-over-A':
        '2b66588a4c36edb65f597a774e96dc11702d695ee24453fb0da58a0041100721',
    'F2/flip-kC2-GL2/smash-over-B':
        '1de48f7fab25e15ec701f2f391fdb60379839190c6ec964638ee2d3450ccb2cb',
    'F2/flip-kC2-GL2/cross-check':
        '39ae2e6530b10cf248a3bc252a96db3fa3e62120b09a545f32d7a7d2f1bcc943',
    'F2/flip-kC2-DN/FG-frob/search':
        '0faf243c80801eba3647215c1d67f4b4acc197851d511312813931615ae44a18',
    'F2/flip-kC2-DN/FG-frob/iso':
        '8a86abbf4c8cb3e93394bcd46bab971596c87b8c66c397d5c72669bf08406553',
    'F2/flip-kC2-DN/FG-frob/auto':
        '0faf243c80801eba3647215c1d67f4b4acc197851d511312813931615ae44a18',
    'F2/flip-kC2-DN/FpGp-frob/search':
        'defb49e7465422472e1aef5d2a2054fe00736a1d739d94f8946ab1cf7f74832e',
    'F2/flip-kC2-DN/FpGp-frob/iso':
        'ac0b62dcc19f038d7cae7c0637222093a8d7af9caab6a759fc3ef78749fac353',
    'F2/flip-kC2-DN/FpGp-frob/auto':
        'defb49e7465422472e1aef5d2a2054fe00736a1d739d94f8946ab1cf7f74832e',
    'F2/flip-kC2-DN/smash-frob/search':
        '56d76216f4dc1376b0a2eb2b24d380e0de6fd05aeb6eaeec3b887a92dd38033d',
    'F2/flip-kC2-DN/smash-frob/iso':
        'e8ef9015707c146b732b26b8f0b12d609024120fc09e8ec2e57fa5a62b3afedf',
    'F2/flip-kC2-DN/smash-frob/auto':
        '56d76216f4dc1376b0a2eb2b24d380e0de6fd05aeb6eaeec3b887a92dd38033d',
    'F2/flip-kC2-DN/F-sep':
        'e9d809d13bbba3d186479e35ce747ca5d184f6171e85b0525ebe3b7b03357b1c',
    'F2/flip-kC2-DN/G-sep':
        '29f787f31c2a8001bc4bb270750baeeed69ef36311169e5e024b005a339df391',
    'F2/flip-kC2-DN/Fp-sep':
        '174d204efc2f54df66cc8415147ca07308e8077737d8de8e37bc11bac4f2447f',
    'F2/flip-kC2-DN/Gp-sep':
        'd70351a65a1b852d099eaf7117fcbdcbd2796fac5d6c0c0a9217cfab2cb3129b',
    'F2/flip-kC2-DN/smash-over-A':
        'c989f4c1f54cd432c15770d5953a02a02ea5ac60ab0c37a9a3932495e746a3c7',
    'F2/flip-kC2-DN/smash-over-B':
        '8622b05e5a89f3ec5c05bb331ef2e4d622b3adcd5cb9566a6ca05ed736167bdb',
    'F2/flip-kC2-DN/cross-check':
        '997dd5916e126adcb0adba514908900b831c4c72b3d5b0bc15c0f47b6662b844',
    'F2/flip-M2-GL1/FG-frob/search':
        'ccad5a8410ac5be171cdf2f638645e316f690228bd946b4d63bb1afa4a8c7c3a',
    'F2/flip-M2-GL1/FG-frob/iso':
        '3837d79798ae39fed2efb40b0f345ce2da6aca1e815e078d0f3d8164c90fde32',
    'F2/flip-M2-GL1/FG-frob/auto':
        'ccad5a8410ac5be171cdf2f638645e316f690228bd946b4d63bb1afa4a8c7c3a',
    'F2/flip-M2-GL1/FpGp-frob/search':
        'a17b24f1dd789baa0a587aaa9e2f7aa30ba8bcd9d16fa7d7a939ed1917ceb257',
    'F2/flip-M2-GL1/FpGp-frob/iso':
        'd41cc50c9560d40b5d820d53cfbcfbb004977bb98223165133dbb24dd5cddde9',
    'F2/flip-M2-GL1/FpGp-frob/auto':
        'a17b24f1dd789baa0a587aaa9e2f7aa30ba8bcd9d16fa7d7a939ed1917ceb257',
    'F2/flip-M2-GL1/smash-frob/search':
        '9ca33b4d7be4765d47d185facea34cc9b36e3a5ed5824ef859eecd575ce02a9d',
    'F2/flip-M2-GL1/smash-frob/iso':
        '8e7ed8a74f72fac244078ecb6d00b0a283798880c3fcffef4ce2bc2585d7339a',
    'F2/flip-M2-GL1/smash-frob/auto':
        '9ca33b4d7be4765d47d185facea34cc9b36e3a5ed5824ef859eecd575ce02a9d',
    'F2/flip-M2-GL1/F-sep':
        '70a7e3865c1eee210cb9c6efe0251ddb4af9ee8afa4761d16e7f583aa07d5a8e',
    'F2/flip-M2-GL1/G-sep':
        '77a472451f7df395b34f45b1cbe71bbbce7dd12ebb2c0fa84562276ef392a9ac',
    'F2/flip-M2-GL1/Fp-sep':
        'a5e037acafb777156ef4a3dfa782d923ea66014c07883fbdf47b8f849a02a73c',
    'F2/flip-M2-GL1/Gp-sep':
        '0387c2f1c8269dbac2916ac1b04af8a3cfc3483297ffdabb2b643e56c7112c58',
    'F2/flip-M2-GL1/smash-over-A':
        '4027e15f6b2e01a5a6556f4c64f909bbc4c122b377b598e751807f3514590877',
    'F2/flip-M2-GL1/smash-over-B':
        'b9f628ea94edf48573899f9d7bdeba527a442649d4add07dba9170d5347bf214',
    'F2/flip-M2-GL1/cross-check':
        '106beaf5e9f9a5874400ff680cfdb3d4e04635ef2aea87a6e5f3051c479106f3',
    'F2/flip-k-arrow/FG-frob/search':
        '4631c88bab7014eea5756ee6744545d1a96b18517763a3f5b22be8c1af79ee9c',
    'F2/flip-k-arrow/FG-frob/iso':
        'e9b81559395bd8c89a2dc1be60d8a5f564d755a91016e09ae456254d23c3a4cc',
    'F2/flip-k-arrow/FG-frob/auto':
        '4631c88bab7014eea5756ee6744545d1a96b18517763a3f5b22be8c1af79ee9c',
    'F2/flip-k-arrow/FpGp-frob/search':
        'a0f5fcc565a8ad2b719acfcf5a96d7fbedca377d7514b35030d8322ee82c8cfb',
    'F2/flip-k-arrow/FpGp-frob/iso':
        '8d05d4f0e45221df4bea340a5f02649fb9a127eb7f7fb5e6df9d7411410d5e62',
    'F2/flip-k-arrow/FpGp-frob/auto':
        'a0f5fcc565a8ad2b719acfcf5a96d7fbedca377d7514b35030d8322ee82c8cfb',
    'F2/flip-k-arrow/smash-frob/search':
        'd1acfe7bb9981944fb7436831328be6efd06249618d0bdb04ad618c96820f4a4',
    'F2/flip-k-arrow/smash-frob/iso':
        'f936e7a9ac5b1e5ce1d537faf690f4ba5a59188e5adf6cfb4ec674c315a6a512',
    'F2/flip-k-arrow/smash-frob/auto':
        'd1acfe7bb9981944fb7436831328be6efd06249618d0bdb04ad618c96820f4a4',
    'F2/flip-k-arrow/F-sep':
        'fbb80aef3a301c0cf2530d7895e020629ed53ebd67e2054793ece982cbddfe1b',
    'F2/flip-k-arrow/G-sep':
        '20d3592d28f55badaded0675cb9cde30378b3ad4d22490e662240f911d7dc1d8',
    'F2/flip-k-arrow/Fp-sep':
        'f601f1989119cba5cba7938f2cd526b483816701ba1a377885b985520720e8d1',
    'F2/flip-k-arrow/Gp-sep':
        'b059f48ad15f16277c7406c9fde88389817e860edc464937fac14791a16f655b',
    'F2/flip-k-arrow/smash-over-A':
        'ae37c462db6863daaf54289cf40ecb2e72ed2e1a74d975a9b0c80638e770687e',
    'F2/flip-k-arrow/smash-over-B':
        'f813be7604c2cbd1253a8df2f09e6a5e2ad782c9aa0dcfb77675a180c2c923c9',
    'F2/flip-k-arrow/cross-check':
        '0a4f89545966244762ca02867a24df4aeae09290b5301ce065e0957ce60f3005',
    'F2/doihopf-kC2/FG-frob/search':
        '0429764d5aacb4f6fbe1a06d00ae38e39a0928a647b531eb4457a1da65d2a0e2',
    'F2/doihopf-kC2/FG-frob/iso':
        '6562899221f1ba5f5104c895935dfb48a2a5cbcfd9038ef566a71d2a5172e341',
    'F2/doihopf-kC2/FG-frob/auto':
        '0429764d5aacb4f6fbe1a06d00ae38e39a0928a647b531eb4457a1da65d2a0e2',
    'F2/doihopf-kC2/FpGp-frob/search':
        'e869280b3c2882bc7d43d6cbee72e7fa8cbd492ae5cf053c22321054320e8687',
    'F2/doihopf-kC2/FpGp-frob/iso':
        'a3c9eefebc135f18ebcbafac41f3013617e04a3f6f7f0fa8042e5f0060455da9',
    'F2/doihopf-kC2/FpGp-frob/auto':
        'e869280b3c2882bc7d43d6cbee72e7fa8cbd492ae5cf053c22321054320e8687',
    'F2/doihopf-kC2/smash-frob/search':
        '6dde03acb8a515845173e44e5d6b5287a6fd255a8dd727f5aebc71925cc1f4da',
    'F2/doihopf-kC2/smash-frob/iso':
        'eb5b26d6d479b18c13e8f182f40b1eeaa2e1383af037ad7ad53db841ebfec9f3',
    'F2/doihopf-kC2/smash-frob/auto':
        '6dde03acb8a515845173e44e5d6b5287a6fd255a8dd727f5aebc71925cc1f4da',
    'F2/doihopf-kC2/F-sep':
        '87635e0b3da93b014b8e77a00636b71aceed05f851a84892b9a31fdec7d10be3',
    'F2/doihopf-kC2/G-sep':
        '64e2e47ff5a4adce3c3f5542a3e5261e5321c68c92c4b75c79a6ef00bf408a16',
    'F2/doihopf-kC2/Fp-sep':
        '1a58324e7718d0e46c035cc96b155fe1dd39ee32d7a27f5a7577a0e755b480e2',
    'F2/doihopf-kC2/Gp-sep':
        'bbe52c89aae9728fb32f50445286fbe10d67fa1e93cf833ffd0c7db1eb123e9e',
    'F2/doihopf-kC2/smash-over-A':
        '1e341c1d95c258f34c9887c6557fc015281e54fdb31c77541847cd2f49c292ab',
    'F2/doihopf-kC2/smash-over-B':
        '6ac1bb3c7286b1c88c0d62895150dc4a46baf1d884caabe13240e3a517ef0347',
    'F2/doihopf-kC2/cross-check':
        '90207d06ec6faa4a572c92de05403e73f1ede6c53e413f4ce5abeaf9107a0049',
    'F2/doihopf-kC2-datum/F-sep':
        '87635e0b3da93b014b8e77a00636b71aceed05f851a84892b9a31fdec7d10be3',
    'F2/doihopf-kC2-datum/G-sep':
        '64e2e47ff5a4adce3c3f5542a3e5261e5321c68c92c4b75c79a6ef00bf408a16',
    'F2/doihopf-kC2-datum/Fp-sep':
        '1a58324e7718d0e46c035cc96b155fe1dd39ee32d7a27f5a7577a0e755b480e2',
    'F2/doihopf-kC2-datum/Gp-sep':
        'bbe52c89aae9728fb32f50445286fbe10d67fa1e93cf833ffd0c7db1eb123e9e',
    'F2/doihopf-kC2-datum/smash-over-A':
        '1e341c1d95c258f34c9887c6557fc015281e54fdb31c77541847cd2f49c292ab',
    'F2/doihopf-kC2-datum/smash-over-B':
        '6ac1bb3c7286b1c88c0d62895150dc4a46baf1d884caabe13240e3a517ef0347',
    'F2/doihopf-kC2-datum/cross-check':
        '90207d06ec6faa4a572c92de05403e73f1ede6c53e413f4ce5abeaf9107a0049',
    'F2/fact-doihopf-kC2/smash-frob/search':
        '6dde03acb8a515845173e44e5d6b5287a6fd255a8dd727f5aebc71925cc1f4da',
    'F2/fact-doihopf-kC2/smash-frob/iso':
        'eb5b26d6d479b18c13e8f182f40b1eeaa2e1383af037ad7ad53db841ebfec9f3',
    'F2/fact-doihopf-kC2/smash-frob/auto':
        '6dde03acb8a515845173e44e5d6b5287a6fd255a8dd727f5aebc71925cc1f4da',
    'F2/fact-doihopf-kC2/smash-over-A':
        '1e341c1d95c258f34c9887c6557fc015281e54fdb31c77541847cd2f49c292ab',
    'F2/fact-doihopf-kC2/smash-over-B':
        '6ac1bb3c7286b1c88c0d62895150dc4a46baf1d884caabe13240e3a517ef0347',
    'F2/fact-flip-kC2-kC2/smash-frob/search':
        '56d76216f4dc1376b0a2eb2b24d380e0de6fd05aeb6eaeec3b887a92dd38033d',
    'F2/fact-flip-kC2-kC2/smash-frob/iso':
        '82c3e6e390f6b8058a74878b86e172ff31a04ca5a19544b53eed7706eed12cb3',
    'F2/fact-flip-kC2-kC2/smash-frob/auto':
        '56d76216f4dc1376b0a2eb2b24d380e0de6fd05aeb6eaeec3b887a92dd38033d',
    'F2/fact-flip-kC2-kC2/smash-over-A':
        'c989f4c1f54cd432c15770d5953a02a02ea5ac60ab0c37a9a3932495e746a3c7',
    'F2/fact-flip-kC2-kC2/smash-over-B':
        '8622b05e5a89f3ec5c05bb331ef2e4d622b3adcd5cb9566a6ca05ed736167bdb',
    'F2/fact-flip-T2-k/smash-frob/search':
        'd1acfe7bb9981944fb7436831328be6efd06249618d0bdb04ad618c96820f4a4',
    'F2/fact-flip-T2-k/smash-frob/iso':
        'f936e7a9ac5b1e5ce1d537faf690f4ba5a59188e5adf6cfb4ec674c315a6a512',
    'F2/fact-flip-T2-k/smash-frob/auto':
        'd1acfe7bb9981944fb7436831328be6efd06249618d0bdb04ad618c96820f4a4',
    'F2/fact-flip-T2-k/smash-over-A':
        'ae37c462db6863daaf54289cf40ecb2e72ed2e1a74d975a9b0c80638e770687e',
    'F2/fact-flip-T2-k/smash-over-B':
        'f813be7604c2cbd1253a8df2f09e6a5e2ad782c9aa0dcfb77675a180c2c923c9',
    'F2/ext-k-kC2/ext-frob/search':
        'd128103c5fdcefd17c83ddfda151a83d8f1ec4fd16a6630f14a071f2c8cbc729',
    'F2/ext-k-kC2/ext-frob/iso':
        '06c824917f237482844d7344c8271ec5da5d8a2e0c5c50ceba96c99635cebdd1',
    'F2/ext-k-kC2/ext-frob/auto':
        'd128103c5fdcefd17c83ddfda151a83d8f1ec4fd16a6630f14a071f2c8cbc729',
    'F2/ext-k-kC2/ext-split':
        '85654f7b14f477ac383014195c9bfe379ac74bcb7ca785bf1b83ac5c72b79883',
    'F2/ext-k-kC2/ext-sep':
        'e34af4e8ccb648cdf0b410766ea95ea70fe5e9b253f83462b31cfa77eddadfa0',
    'F2/ext-k-kC3/ext-frob/search':
        '8433a7360da0576a4c671df3a08957b0479165685af21df66cc8afaed4e50208',
    'F2/ext-k-kC3/ext-frob/iso':
        '34bf2aa1953bdd5143e887c4cfe02d2a81b592aa42e80743afb4d629d3b2da7b',
    'F2/ext-k-kC3/ext-frob/auto':
        '8433a7360da0576a4c671df3a08957b0479165685af21df66cc8afaed4e50208',
    'F2/ext-k-kC3/ext-split':
        '343523b3242f782b6e7e38e6dc271a8df7dda7e273bfcb8864937379ddfa7673',
    'F2/ext-k-kC3/ext-sep':
        '9ca1663617e276445100990b391dc64298a2c31ba19e51790ee5317e63f84271',
    'F2/ext-k-M2/ext-frob/search':
        'b32423ea354b1f10e3c51294e2e5ad46ccb5ff3fc0638a1b89e4a8c671492035',
    'F2/ext-k-M2/ext-frob/iso':
        'f3c8f8c8520173a7c24f9de8ce9258cd7106fd6a4f77a92ece82d8069d167781',
    'F2/ext-k-M2/ext-frob/auto':
        'b32423ea354b1f10e3c51294e2e5ad46ccb5ff3fc0638a1b89e4a8c671492035',
    'F2/ext-k-M2/ext-split':
        '4391f2ca5861a91a8f333cc54e426dca34aedc1bc1fbe52f00da2d5b9d3b55fd',
    'F2/ext-k-M2/ext-sep':
        'd734adebc208ca39c476d341ef9120276e26cb06c44908b4733fd7060f76b5fc',
    'F2/ext-k-T2/ext-frob/search':
        '4e07adabadf5d5aed9be2aedb81f095dfd64973c969ebf3f26e11d1a457bd979',
    'F2/ext-k-T2/ext-frob/iso':
        'b24189a28c3dceb4f026240be819c62a424b370e11753dbf7db44fef4a27beb7',
    'F2/ext-k-T2/ext-frob/auto':
        '4e07adabadf5d5aed9be2aedb81f095dfd64973c969ebf3f26e11d1a457bd979',
    'F2/ext-k-T2/ext-split':
        '343523b3242f782b6e7e38e6dc271a8df7dda7e273bfcb8864937379ddfa7673',
    'F2/ext-k-T2/ext-sep':
        '44a4cf8fd25c66467ba73d06ce37e02b76a9e270c32f9e80ec9c39aa0832de3e',
    'F2/ext-id-kC2/ext-frob/search':
        '7085d8d4cf6212ee720f31c6c17acf7c155914f1ad251a11fd1bbe93d705356a',
    'F2/ext-id-kC2/ext-frob/iso':
        'fb105abfc59911a9d51d887b99273efabfec926a323d3d12971f40ee664eba93',
    'F2/ext-id-kC2/ext-frob/auto':
        '7085d8d4cf6212ee720f31c6c17acf7c155914f1ad251a11fd1bbe93d705356a',
    'F2/ext-id-kC2/ext-split':
        '3dbbb482aa9546fb843ea17a59699737c5487a63ee605b1f6b5c5372c99c7e3e',
    'F2/ext-id-kC2/ext-sep':
        '4bf9573a03c32cde19ed1ef043f6b9451ff73d1c829fa5e1de1d568cd991a324',
    'F3/flip-k-GL2/FG-frob/search':
        'b536846602b506d7096f39a9d8fec4f06a97e709a8eeb0329af0f4effb84e264',
    'F3/flip-k-GL2/FG-frob/iso':
        '84dbbd4b272522f81e1fb613ee5088f11b74da833f2c4a299ee1c9f2e1eaabe8',
    'F3/flip-k-GL2/FG-frob/auto':
        'b536846602b506d7096f39a9d8fec4f06a97e709a8eeb0329af0f4effb84e264',
    'F3/flip-k-GL2/FpGp-frob/search':
        '3dfe2278fbccf05f63210e92a780959d3f9f0f64a9ca76aba33d808de428db07',
    'F3/flip-k-GL2/FpGp-frob/iso':
        'b978a2bc12a1d592dc31e424a0912ded9d01ccafaa0a41281dbd68b842851def',
    'F3/flip-k-GL2/FpGp-frob/auto':
        '3dfe2278fbccf05f63210e92a780959d3f9f0f64a9ca76aba33d808de428db07',
    'F3/flip-k-GL2/smash-frob/search':
        '08437cfe913a9ae00283ff2079636ced6adc364cbfd9ffb62c06c57935cfd892',
    'F3/flip-k-GL2/smash-frob/iso':
        '161080dbee769ad2ea655e6916588d127c9f7813679afd0b211fdeb001568e37',
    'F3/flip-k-GL2/smash-frob/auto':
        '08437cfe913a9ae00283ff2079636ced6adc364cbfd9ffb62c06c57935cfd892',
    'F3/flip-k-GL2/F-sep':
        'ae9a446366dc3537b0e0bd1b2f2aaefdd116ad6f8731f28a35f260c4aefda821',
    'F3/flip-k-GL2/G-sep':
        'aa767eececaf28261899752b2672eeaac8513eb50f19abeffa2b28de2afad4c4',
    'F3/flip-k-GL2/Fp-sep':
        '66e5e9fb3da1bdb0b407e17a908d4700934631015db83774634970d83676913f',
    'F3/flip-k-GL2/Gp-sep':
        'd44da1082367d99c6693dd8c4b5c4e0aca12e8077f7b8da6c622de2ed3c11585',
    'F3/flip-k-GL2/smash-over-A':
        '3a537606fbefe9da1a217848b5eea534edf9e028a16bddc826253c0b5352c3df',
    'F3/flip-k-GL2/smash-over-B':
        '5325cfe94774e171493c78826ebcfa68d57041c41067350d0c84ddb06df8fdcf',
    'F3/flip-k-GL2/cross-check':
        '0b28a28347ddfff6b1e4841cb17283dc562743cf0548fe1849006403914b5dd5',
    'F3/flip-k-DN/FG-frob/search':
        '2c0abdb061d14a44ed031a06566a4008eeccf3671014e42e3f9a61fe77eeccd1',
    'F3/flip-k-DN/FG-frob/iso':
        'bf603ad9fdc8665cd1870fc1e2d45bfb8717276f2894fea7435cb1b40df4bae0',
    'F3/flip-k-DN/FG-frob/auto':
        '2c0abdb061d14a44ed031a06566a4008eeccf3671014e42e3f9a61fe77eeccd1',
    'F3/flip-k-DN/FpGp-frob/search':
        'd7be49b885be47241125b6b9008f7a4111091bee6c0dcd4d88d3e6c7e7f28132',
    'F3/flip-k-DN/FpGp-frob/iso':
        '232979bf5fc81f7510a0f067d34760340c5ad8091e843e37e3a70afa082642b0',
    'F3/flip-k-DN/FpGp-frob/auto':
        'd7be49b885be47241125b6b9008f7a4111091bee6c0dcd4d88d3e6c7e7f28132',
    'F3/flip-k-DN/smash-frob/search':
        '5fba51c779d5e958262f6855856340fbe768792aaa5a01c33d3407da0a27a526',
    'F3/flip-k-DN/smash-frob/iso':
        '83bd760c68f2a3f0699d89143924ce42772d7fac5c103af83163e2509942802f',
    'F3/flip-k-DN/smash-frob/auto':
        '5fba51c779d5e958262f6855856340fbe768792aaa5a01c33d3407da0a27a526',
    'F3/flip-k-DN/F-sep':
        'f34580031033a8718a81464c1fe77b545e40ee07ac4b2ca4efc3160473f785bd',
    'F3/flip-k-DN/G-sep':
        'aa767eececaf28261899752b2672eeaac8513eb50f19abeffa2b28de2afad4c4',
    'F3/flip-k-DN/Fp-sep':
        'f36dd65c7efcb339b2ea89053203fef29ea8a3384404bd8c40bae3ac4e9bed1c',
    'F3/flip-k-DN/Gp-sep':
        'c69db93cc783bf677e20daec2d1223a3026827541f75643521340237bb99d954',
    'F3/flip-k-DN/smash-over-A':
        '695da1337cb70d28ec84084efd1a9d164358343d9940fd5f2b887c9ab5a0a8db',
    'F3/flip-k-DN/smash-over-B':
        '72463ae1195ce561480332e7120c7e8295f53ac7b5afe2577ce1ae698930784d',
    'F3/flip-k-DN/cross-check':
        '09c85cbdd5681500216bb5a9ce56c660514d260efdc19811f242b82ab5ae1005',
    'F3/flip-kC2-GL2/FG-frob/search':
        '347506ff5e0dbd3bc1fc2c2d1953a54c772285c16b122345c38e1bbb01cd2a77',
    'F3/flip-kC2-GL2/FG-frob/iso':
        '568831a7054b50d490b76c6fc433b65b336345d5153698c49c71f43f462de25c',
    'F3/flip-kC2-GL2/FG-frob/auto':
        '347506ff5e0dbd3bc1fc2c2d1953a54c772285c16b122345c38e1bbb01cd2a77',
    'F3/flip-kC2-GL2/FpGp-frob/search':
        '8bc9af89f43a1398e9a332061c9ec0cfc1108c37eef7bb2374b7321bb86baf48',
    'F3/flip-kC2-GL2/FpGp-frob/iso':
        'e3d8d5739c39f8afc728b0ec5924adb0c58816ca7ceab7701e9609bfdef82c5d',
    'F3/flip-kC2-GL2/FpGp-frob/auto':
        '8bc9af89f43a1398e9a332061c9ec0cfc1108c37eef7bb2374b7321bb86baf48',
    'F3/flip-kC2-GL2/smash-frob/search':
        'e96cb8b68d87d717e4c46040767b57040bbfca49e42bdc2a11b8df4644bc09ed',
    'F3/flip-kC2-GL2/smash-frob/iso':
        'c5e641cf62af65936d116efb7af08977ad6ffe9c554c151c514f0ef2d9ea0949',
    'F3/flip-kC2-GL2/smash-frob/auto':
        'e96cb8b68d87d717e4c46040767b57040bbfca49e42bdc2a11b8df4644bc09ed',
    'F3/flip-kC2-GL2/F-sep':
        '7efa171bce8cb017b87c4104c7162b76ff56df608c029df0f2bd79799067a2da',
    'F3/flip-kC2-GL2/G-sep':
        '7668f501131442c2ad1503172333aff6328a3f0312236bf19cc20c6ce1b1aae5',
    'F3/flip-kC2-GL2/Fp-sep':
        '5d738e106d2c38fb39dda8e663405c43616787a0bf3f42e39d749b1729609dad',
    'F3/flip-kC2-GL2/Gp-sep':
        '8bc0b4498f670cb6d702306be62e3dcfed2b2c06b3e4b31b805fe832d6019cd4',
    'F3/flip-kC2-GL2/smash-over-A':
        '9a5b0a132115b6ffeeb8669ab263e298aa47ccff1131eda4e9eb944dfba8ed99',
    'F3/flip-kC2-GL2/smash-over-B':
        'c5e8e7c0b2eab8b658407c978f9cad4e4677f55e1bb42a98ffa35f2642f7fad2',
    'F3/flip-kC2-GL2/cross-check':
        'c88e85bd21ea89d5d4ebe42f7a4e36df9df0818b58e4fa47f5494b0fec8028ff',
    'F3/flip-kC2-DN/FG-frob/search':
        'f8920300a64f101a6f0d4fe759d624ce340480bbaf7d08a461be61d49e229832',
    'F3/flip-kC2-DN/FG-frob/iso':
        '220e91d2c3065b972258bcf9f3c4bfd2d6bdaf7f985ffae9df7519644ca76421',
    'F3/flip-kC2-DN/FG-frob/auto':
        'f8920300a64f101a6f0d4fe759d624ce340480bbaf7d08a461be61d49e229832',
    'F3/flip-kC2-DN/FpGp-frob/search':
        '7ba8cd0ed8175c3a3977a298dc04d16db2b1b318064394129d609ca60fb00133',
    'F3/flip-kC2-DN/FpGp-frob/iso':
        '406007ee8a9a530bf72afb6e28757f838352554f8991f526e1d04e5b3c5d23a7',
    'F3/flip-kC2-DN/FpGp-frob/auto':
        '7ba8cd0ed8175c3a3977a298dc04d16db2b1b318064394129d609ca60fb00133',
    'F3/flip-kC2-DN/smash-frob/search':
        'dcb945630932fd479359a08ffbf318e7612e726d1b82eac7db9bc82578ad66e4',
    'F3/flip-kC2-DN/smash-frob/iso':
        'e1023ea5bcff4b8ec8aed8062d171279a5034fc3d693ef54ced675f6dd2b1c09',
    'F3/flip-kC2-DN/smash-frob/auto':
        'dcb945630932fd479359a08ffbf318e7612e726d1b82eac7db9bc82578ad66e4',
    'F3/flip-kC2-DN/F-sep':
        'd30d28bf40314851e923441d2f0d4d247c6fdb57f63bdddf6356a30ef870e186',
    'F3/flip-kC2-DN/G-sep':
        '7668f501131442c2ad1503172333aff6328a3f0312236bf19cc20c6ce1b1aae5',
    'F3/flip-kC2-DN/Fp-sep':
        '173d5b31c373768d1f9710b2f9c8f6cdc64dae212e3d666fbbe5341c9ca91e37',
    'F3/flip-kC2-DN/Gp-sep':
        '07eb0101f7bd5fc10f9988a1120f00fe131d16aef3a447752307d55df001cd4b',
    'F3/flip-kC2-DN/smash-over-A':
        '462bbd561dce8edb22d8d4e827c86daf7e095bd9ca19d7e9667a70fda281d225',
    'F3/flip-kC2-DN/smash-over-B':
        '6663c666c63c23ce5c746b972dfd9e3cc9413e5f45f31be75d6f570d8ca676b4',
    'F3/flip-kC2-DN/cross-check':
        'cc1a67c6bd6a1bf92107b87f71ddbfb17b01b48c9cc8a84c917a3b25f34371d8',
    'F3/flip-M2-GL1/FG-frob/search':
        'ff12c029d7d7fde3ddfe29ca670284d2e5fe405dcca70fce6b7bc38ae8a096d5',
    'F3/flip-M2-GL1/FG-frob/iso':
        'cfb74c8dbce75f709a2c2a6c1feb7f074d0dc7b555756f374535233d27e5463d',
    'F3/flip-M2-GL1/FG-frob/auto':
        'ff12c029d7d7fde3ddfe29ca670284d2e5fe405dcca70fce6b7bc38ae8a096d5',
    'F3/flip-M2-GL1/FpGp-frob/search':
        '40a1a3cc9ec5271477d2e8b616c4b7cbf07cae9300eb2e82e38268a4d6d4456c',
    'F3/flip-M2-GL1/FpGp-frob/iso':
        '77c815cac196778d3c80e8c2fcf1a19d0631304aa79e699dee0d7c06d75f98d9',
    'F3/flip-M2-GL1/FpGp-frob/auto':
        '40a1a3cc9ec5271477d2e8b616c4b7cbf07cae9300eb2e82e38268a4d6d4456c',
    'F3/flip-M2-GL1/smash-frob/search':
        '81a5c2b5ed51eb9dc9b09d87a26ccb9cb1f7a62b3e342dabfb958c36dd46123e',
    'F3/flip-M2-GL1/smash-frob/iso':
        'a4b3cfe787222353dac998f9347d79516e57d268e9cc981f29cbcf472ea190de',
    'F3/flip-M2-GL1/smash-frob/auto':
        '81a5c2b5ed51eb9dc9b09d87a26ccb9cb1f7a62b3e342dabfb958c36dd46123e',
    'F3/flip-M2-GL1/F-sep':
        '8ed770e130a8a5630137010944ce2e40c4e14dc7ec45533d3022e2e4cb0bb74d',
    'F3/flip-M2-GL1/G-sep':
        '4b65d039000c92e5f45d5495842643d3ad1d7a2dbce236fa09f38959ae0eddc7',
    'F3/flip-M2-GL1/Fp-sep':
        'c42855093c25a9317f78fce613630d6933a0b57b049082c0fa4999ef456bf599',
    'F3/flip-M2-GL1/Gp-sep':
        '56f34440251f9c7ea185f3622b5dfd67752b49bb99d4394b0b4577a0195959c7',
    'F3/flip-M2-GL1/smash-over-A':
        'dfffdc5cf1ac55e4fdfae34df7ea7eb3238b936fd0ce68e052ef3d147f4d44c2',
    'F3/flip-M2-GL1/smash-over-B':
        '514bcaa3347a26c8e997c75b856eb85ac1987c2a699f33c8a9d7b00151cfdf35',
    'F3/flip-M2-GL1/cross-check':
        '24684cfe384eed4f288fbfc0bc045481209bf663fa63b008a44e2f17b1443fec',
    'F3/flip-k-arrow/FG-frob/search':
        '7820ef324e6f2e8a2f3ea84863d99bb5a33dc140a66e2bd9b4c18aa6df431706',
    'F3/flip-k-arrow/FG-frob/iso':
        '825be0d2e0675b645a6527105a64c2d58eb4d778d4da5cc88483c0f0ace89438',
    'F3/flip-k-arrow/FG-frob/auto':
        '7820ef324e6f2e8a2f3ea84863d99bb5a33dc140a66e2bd9b4c18aa6df431706',
    'F3/flip-k-arrow/FpGp-frob/search':
        'ab0f02f5df899455686d47b617010a08da6eaa151819d7f220887334a05b6634',
    'F3/flip-k-arrow/FpGp-frob/iso':
        'fadfd46e768605143cc31cc2893edecbd05dbd04b539779de673b00739197427',
    'F3/flip-k-arrow/FpGp-frob/auto':
        'ab0f02f5df899455686d47b617010a08da6eaa151819d7f220887334a05b6634',
    'F3/flip-k-arrow/smash-frob/search':
        '457fa5ef547f88492e86716b62a08d03e1dd3c0484f4e5300f09a97084c8a5ad',
    'F3/flip-k-arrow/smash-frob/iso':
        '4392e20cb76b23b8ecaed9f0ded2809cd3106b992b2ce062b64f4734bd99ce44',
    'F3/flip-k-arrow/smash-frob/auto':
        '457fa5ef547f88492e86716b62a08d03e1dd3c0484f4e5300f09a97084c8a5ad',
    'F3/flip-k-arrow/F-sep':
        'e847c0b2f4ac388da8d820aef3e6232031ec5c4d8653e25789cd54c1e4a4279f',
    'F3/flip-k-arrow/G-sep':
        '4d4878f82f3fbd04c86d7f4cbd2557139d8fcfc049df4e8e56e908c0b4c7a9ad',
    'F3/flip-k-arrow/Fp-sep':
        '417253d8756683b6a9023c35182904c5a73cf93566cd6e261a185adea32d6e0b',
    'F3/flip-k-arrow/Gp-sep':
        '5a1cf0a45d978684a89a7aaa822a31126b90d97f22dab1253913a12f96e3577a',
    'F3/flip-k-arrow/smash-over-A':
        'd338c8fa604e0127cc1f3a4fbb865e3b9c226c89c8e67201051059ffe41fb18d',
    'F3/flip-k-arrow/smash-over-B':
        '9cd1caf28f52e77393c2133a2fc91a717922d66d5148a1cb3d945e68c2fec9db',
    'F3/flip-k-arrow/cross-check':
        '98ce9cb6d16c5d077c5f11bbefd75edd254a2fe570a6fc32840ff4c0e8397b46',
    'F3/doihopf-kC2/FG-frob/search':
        'c5d11b230976695e9bc0700ef39148bcc94d456c79d8067dc1a64b047dbcc387',
    'F3/doihopf-kC2/FG-frob/iso':
        '7205831a12ad7bb2662f52878a7482f3150b3e2da4d464d3ff4ea632ffa51da6',
    'F3/doihopf-kC2/FG-frob/auto':
        'c5d11b230976695e9bc0700ef39148bcc94d456c79d8067dc1a64b047dbcc387',
    'F3/doihopf-kC2/FpGp-frob/search':
        '8cbf04264b549e05f8dd5bd02cbf92a2613cf4baf3e90f7776eefb988841af23',
    'F3/doihopf-kC2/FpGp-frob/iso':
        '8524990a560223faa3751d80cedef4b4c8a0d70665d26e7b6e5cac803ce17a7f',
    'F3/doihopf-kC2/FpGp-frob/auto':
        '8cbf04264b549e05f8dd5bd02cbf92a2613cf4baf3e90f7776eefb988841af23',
    'F3/doihopf-kC2/smash-frob/search':
        'bb71c472f2ff4bcfb24b6e58b8c66b124186c5e7714e50350ffccd7d718df3b3',
    'F3/doihopf-kC2/smash-frob/iso':
        '1fb7822dcbddf4a2025b5b5b81a164a98d578f1df127e145f6a71e9485397fad',
    'F3/doihopf-kC2/smash-frob/auto':
        'bb71c472f2ff4bcfb24b6e58b8c66b124186c5e7714e50350ffccd7d718df3b3',
    'F3/doihopf-kC2/F-sep':
        'f3c0ffde574cdd3b9618f8b2fb01743b4ef36bbb36be55e1f4cbec9ddca444c8',
    'F3/doihopf-kC2/G-sep':
        'ed8dab3e60a5dbf39366ee330ec2ac58e7dcacbf0b9a036d7e3665848892fc39',
    'F3/doihopf-kC2/Fp-sep':
        'ebb7d7439fd1aa424745cf2b4c1cf48aebb78edd607760a54e2382bd567c02ca',
    'F3/doihopf-kC2/Gp-sep':
        '9adf174f6905cf412ba65194c39ef8a588793ed7afff099a3611f49100f41af9',
    'F3/doihopf-kC2/smash-over-A':
        'fe253d8455718ad4227ad2e670bbdb6ec84d0f72b4cecc90c0a784b47d9f5a8e',
    'F3/doihopf-kC2/smash-over-B':
        '174857280a286d39dcde62489cca997561a8be2729b5d11d66598fb7d8f1a7cf',
    'F3/doihopf-kC2/cross-check':
        '85d2c55ed7982f28cc019e97f4157c1a6e9004eb6537e1ff0b1349bffac8ada8',
    'F3/doihopf-kC2-datum/F-sep':
        'f3c0ffde574cdd3b9618f8b2fb01743b4ef36bbb36be55e1f4cbec9ddca444c8',
    'F3/doihopf-kC2-datum/G-sep':
        'ed8dab3e60a5dbf39366ee330ec2ac58e7dcacbf0b9a036d7e3665848892fc39',
    'F3/doihopf-kC2-datum/Fp-sep':
        'ebb7d7439fd1aa424745cf2b4c1cf48aebb78edd607760a54e2382bd567c02ca',
    'F3/doihopf-kC2-datum/Gp-sep':
        '9adf174f6905cf412ba65194c39ef8a588793ed7afff099a3611f49100f41af9',
    'F3/doihopf-kC2-datum/smash-over-A':
        'fe253d8455718ad4227ad2e670bbdb6ec84d0f72b4cecc90c0a784b47d9f5a8e',
    'F3/doihopf-kC2-datum/smash-over-B':
        '174857280a286d39dcde62489cca997561a8be2729b5d11d66598fb7d8f1a7cf',
    'F3/doihopf-kC2-datum/cross-check':
        '85d2c55ed7982f28cc019e97f4157c1a6e9004eb6537e1ff0b1349bffac8ada8',
    'F3/fact-doihopf-kC2/smash-frob/search':
        'bb71c472f2ff4bcfb24b6e58b8c66b124186c5e7714e50350ffccd7d718df3b3',
    'F3/fact-doihopf-kC2/smash-frob/iso':
        '1fb7822dcbddf4a2025b5b5b81a164a98d578f1df127e145f6a71e9485397fad',
    'F3/fact-doihopf-kC2/smash-frob/auto':
        'bb71c472f2ff4bcfb24b6e58b8c66b124186c5e7714e50350ffccd7d718df3b3',
    'F3/fact-doihopf-kC2/smash-over-A':
        'fe253d8455718ad4227ad2e670bbdb6ec84d0f72b4cecc90c0a784b47d9f5a8e',
    'F3/fact-doihopf-kC2/smash-over-B':
        '174857280a286d39dcde62489cca997561a8be2729b5d11d66598fb7d8f1a7cf',
    'F3/fact-flip-kC2-kC2/smash-frob/search':
        'dcb945630932fd479359a08ffbf318e7612e726d1b82eac7db9bc82578ad66e4',
    'F3/fact-flip-kC2-kC2/smash-frob/iso':
        'b1588dc1ac49920b0c7db27cff3e7d29730fbb9dbd83bf9b328014f04460bc2e',
    'F3/fact-flip-kC2-kC2/smash-frob/auto':
        'dcb945630932fd479359a08ffbf318e7612e726d1b82eac7db9bc82578ad66e4',
    'F3/fact-flip-kC2-kC2/smash-over-A':
        '05df5bb719e50742be4f86ce576c68b847fb36ba389499bccde42e78fb29d4a8',
    'F3/fact-flip-kC2-kC2/smash-over-B':
        '6663c666c63c23ce5c746b972dfd9e3cc9413e5f45f31be75d6f570d8ca676b4',
    'F3/fact-flip-T2-k/smash-frob/search':
        '457fa5ef547f88492e86716b62a08d03e1dd3c0484f4e5300f09a97084c8a5ad',
    'F3/fact-flip-T2-k/smash-frob/iso':
        '4392e20cb76b23b8ecaed9f0ded2809cd3106b992b2ce062b64f4734bd99ce44',
    'F3/fact-flip-T2-k/smash-frob/auto':
        '457fa5ef547f88492e86716b62a08d03e1dd3c0484f4e5300f09a97084c8a5ad',
    'F3/fact-flip-T2-k/smash-over-A':
        'd338c8fa604e0127cc1f3a4fbb865e3b9c226c89c8e67201051059ffe41fb18d',
    'F3/fact-flip-T2-k/smash-over-B':
        '9cd1caf28f52e77393c2133a2fc91a717922d66d5148a1cb3d945e68c2fec9db',
    'F3/ext-k-kC2/ext-frob/search':
        'aadbe0c7e8ddf029180658a561554306008acef18a546c07e38e092e7e2233fc',
    'F3/ext-k-kC2/ext-frob/iso':
        'eccc90ae0c0720980a64ae6672a9c4df331f2522390b7e9c1227e05f34b0df9f',
    'F3/ext-k-kC2/ext-frob/auto':
        'aadbe0c7e8ddf029180658a561554306008acef18a546c07e38e092e7e2233fc',
    'F3/ext-k-kC2/ext-split':
        '803e3a3dc6062acf2ef250dd6ec5beb8017ab651ec07ba341312c623dcf6c308',
    'F3/ext-k-kC2/ext-sep':
        '0f950b8a8a4c8c19e9feaabb956cb3b253b8d4c2299d63d07f0c932211fd560b',
    'F3/ext-k-kC3/ext-frob/search':
        '0d08feef79906f498400b1e28be8d3032e5c445bd22171192c75a21d0fec0c4d',
    'F3/ext-k-kC3/ext-frob/iso':
        'b738101b37c0c47f1d000ec8d20cd18c2e6612659a7de6abeb97628c2c2699be',
    'F3/ext-k-kC3/ext-frob/auto':
        '0d08feef79906f498400b1e28be8d3032e5c445bd22171192c75a21d0fec0c4d',
    'F3/ext-k-kC3/ext-split':
        'e2d70e81cf97a0df881839d167c22717ba432692f29a72ed789a3eacb8aa6eb3',
    'F3/ext-k-kC3/ext-sep':
        '568e92835c7e718e2b5583c6bef69ca0abdb95b92152dbbbae167368bc121247',
    'F3/ext-k-M2/ext-frob/search':
        'c6e37690eae15b55a5f1064cfec0e93f19514f2821bf78c7af3e3789873ddc07',
    'F3/ext-k-M2/ext-frob/iso':
        '5c78e6dadbbad88e43ce068e1dbad40b00f34a7f4eb031de428b3a5579725430',
    'F3/ext-k-M2/ext-frob/auto':
        'c6e37690eae15b55a5f1064cfec0e93f19514f2821bf78c7af3e3789873ddc07',
    'F3/ext-k-M2/ext-split':
        '6a9935d3b87c275b8b38c4c92e0a216f00aefbec6dc64db4d36114ae11a032dd',
    'F3/ext-k-M2/ext-sep':
        'c5110e20cb379737328ca06b953ee73445bd8fcd3f3ce79d5bc69d9c917d69ef',
    'F3/ext-k-T2/ext-frob/search':
        'da789e3a9c164a763978af42ab84855c9147c823e73584ffa044c75ef89416dc',
    'F3/ext-k-T2/ext-frob/iso':
        '3e147f33469b73bf86efc0478ae248a2f49fd6a284a048a88752e5474d5493e7',
    'F3/ext-k-T2/ext-frob/auto':
        'da789e3a9c164a763978af42ab84855c9147c823e73584ffa044c75ef89416dc',
    'F3/ext-k-T2/ext-split':
        'e2d70e81cf97a0df881839d167c22717ba432692f29a72ed789a3eacb8aa6eb3',
    'F3/ext-k-T2/ext-sep':
        'dc7f357c7253a2bce6d59d7651f81e32b780083201a1aad793f39e96c9587740',
    'F3/ext-id-kC2/ext-frob/search':
        'c29506387364d45cb68a50fc44f6cb446b67200dfddcf1dbd43a22c524636fb6',
    'F3/ext-id-kC2/ext-frob/iso':
        '96132d3d739990794d3cacfd05d2b641a2515feb31e09262e0fc799f5b3ef3d6',
    'F3/ext-id-kC2/ext-frob/auto':
        'c29506387364d45cb68a50fc44f6cb446b67200dfddcf1dbd43a22c524636fb6',
    'F3/ext-id-kC2/ext-split':
        '87234b402f814e1824a82d9357ce7fad88858fcfdbbbf2e7f9596b66ba969444',
    'F3/ext-id-kC2/ext-sep':
        'c227aac9dd977a1afd177a0dc8d090620e57768812cb99566fa09263cd7689a4',
    'Q/flip-k-GL2/FG-frob/search':
        '019389d78835d5c6b66e2f0a9a0bc6a5d5568b698e76f86ea864c63c6464688c',
    'Q/flip-k-GL2/FG-frob/iso':
        '1d5b02a347fe8bbb5fc010264db182c8b53525ed0eb6bb6ec644bca5f95d8b0c',
    'Q/flip-k-GL2/FG-frob/auto':
        '019389d78835d5c6b66e2f0a9a0bc6a5d5568b698e76f86ea864c63c6464688c',
    'Q/flip-k-GL2/FpGp-frob/search':
        '35cd8efc391ce39f6d025afd595618af1040cac7684f59c7c8cebdda0e6d6a15',
    'Q/flip-k-GL2/FpGp-frob/iso':
        'f59e3e96e4589a170a963da62069d8668a5bd1c151f1740201db8013e65acc53',
    'Q/flip-k-GL2/FpGp-frob/auto':
        '35cd8efc391ce39f6d025afd595618af1040cac7684f59c7c8cebdda0e6d6a15',
    'Q/flip-k-GL2/smash-frob/search':
        'f77dcc3497ae749842981a41a573389a9860b8196764cb0185299fce42770a09',
    'Q/flip-k-GL2/smash-frob/iso':
        '4c5a92331cd8ee30fa5449412c7927b1ef6d3663fb946d98f22b00e5daef880c',
    'Q/flip-k-GL2/smash-frob/auto':
        'f77dcc3497ae749842981a41a573389a9860b8196764cb0185299fce42770a09',
    'Q/flip-k-GL2/F-sep':
        'fde1196d05b13210b9eb6cb3839d7da00fbe9769938eefd8cf1fb96c13213985',
    'Q/flip-k-GL2/G-sep':
        '0aa46017bcee2614d0a44737714e850d9afd217b0e17bd2d8cbe6ca699c7d81e',
    'Q/flip-k-GL2/Fp-sep':
        '25eeb0a787b53c47d4f38b41f47f598b8d426ad0642ab3d15c2e775e0b10de32',
    'Q/flip-k-GL2/Gp-sep':
        'a34d17daf204c132e3f7ce9ef62bca866234197df196913e1a5c39b438c774a7',
    'Q/flip-k-GL2/smash-over-A':
        '98e64aaa4a0cfb3e6fa1ff76538216e0d7976bcab6acb5ff8ed318bc4ad02f0e',
    'Q/flip-k-GL2/smash-over-B':
        '1395e3eb332991df78c219347f7aa4d041ed6487d5813be581fe249e1e259955',
    'Q/flip-k-GL2/cross-check':
        'b1910e7fdb7b69d3fc61c936a7b37144ffc913ffd4033e605c8f0502a42bf9b7',
    'Q/flip-k-DN/FG-frob/search':
        'b96390a5bd57eddc8af2e0d366402434ee6676992e17dbe3f551c4491f888266',
    'Q/flip-k-DN/FG-frob/iso':
        '4b52a51c98c782323ac64c137508209566070c79c2a726b74aa0a0cfce2e1349',
    'Q/flip-k-DN/FG-frob/auto':
        'b96390a5bd57eddc8af2e0d366402434ee6676992e17dbe3f551c4491f888266',
    'Q/flip-k-DN/FpGp-frob/search':
        '57746537cc975469e9ebb472ea4046d8cdc67d4c7fd82a71e42cbd5554325806',
    'Q/flip-k-DN/FpGp-frob/iso':
        'a0fa0b6f4ac575422ee2812c7f79e973ab764c94af44b7da63469728dbfe9521',
    'Q/flip-k-DN/FpGp-frob/auto':
        '57746537cc975469e9ebb472ea4046d8cdc67d4c7fd82a71e42cbd5554325806',
    'Q/flip-k-DN/smash-frob/search':
        '81ad20bf9342d84cad3cb0f586d1e8150d9e8961a6ff21dea4f7e420ebc2c81b',
    'Q/flip-k-DN/smash-frob/iso':
        '039364b290cdd0e251454792de343378988c276314ab6f4ce85e6e12a1e67876',
    'Q/flip-k-DN/smash-frob/auto':
        '81ad20bf9342d84cad3cb0f586d1e8150d9e8961a6ff21dea4f7e420ebc2c81b',
    'Q/flip-k-DN/F-sep':
        'bc10cc2c1abc97c9a517da4a2c5fada82a807a0cf91e9625610d128c9cf35540',
    'Q/flip-k-DN/G-sep':
        '0aa46017bcee2614d0a44737714e850d9afd217b0e17bd2d8cbe6ca699c7d81e',
    'Q/flip-k-DN/Fp-sep':
        '0070b20a49861ba643ef00ab3361ad24bd63cd50da1452b64b29ae1ccaf39aaf',
    'Q/flip-k-DN/Gp-sep':
        '3582567562f4015d7bedd5e06e95390ef0bd0e8efb330c4a8c20111d8b928ebb',
    'Q/flip-k-DN/smash-over-A':
        '7d0cbe70f483e5f2b8f80a9696804efe0fc36be4f66dba2df1f0361f806ec67f',
    'Q/flip-k-DN/smash-over-B':
        '1d4e4d65e302ec5968e325940843a686be055fbe2f12b9908c3258f7c6989595',
    'Q/flip-k-DN/cross-check':
        '428a09bb882e370a0f2a7d8982e6ec82ccda0c6789a78142d8825435b7cbce29',
    'Q/flip-kC2-GL2/FG-frob/search':
        '2b9f84afd2e162f7c4f414835dcf0b6d77d2ba04e2b3df29b01139c54ced141c',
    'Q/flip-kC2-GL2/FG-frob/iso':
        '1cab171130a8861cb56918bf31584490abeb4f8c04b5bba0dca3319ec73c8c5f',
    'Q/flip-kC2-GL2/FG-frob/auto':
        '2b9f84afd2e162f7c4f414835dcf0b6d77d2ba04e2b3df29b01139c54ced141c',
    'Q/flip-kC2-GL2/FpGp-frob/search':
        '18d0ad3256dc64c4da1a1e8d3a9fabcb510272f9195942249266b463f4c9ebe2',
    'Q/flip-kC2-GL2/FpGp-frob/iso':
        'b43276c6e0063aa0b271070a63b3a0f6f20aecc6f142dc27b1b4fe96c507f05b',
    'Q/flip-kC2-GL2/FpGp-frob/auto':
        '18d0ad3256dc64c4da1a1e8d3a9fabcb510272f9195942249266b463f4c9ebe2',
    'Q/flip-kC2-GL2/smash-frob/search':
        'fb8f1b8647d854f78480a0d9117534ade5836cd35c3df212ba9680eb8adfc6dd',
    'Q/flip-kC2-GL2/smash-frob/iso':
        'f2406f2447add2c144ae8c85816d5dd3e2fb5e836a157ec58cc53c63479bb672',
    'Q/flip-kC2-GL2/smash-frob/auto':
        'fb8f1b8647d854f78480a0d9117534ade5836cd35c3df212ba9680eb8adfc6dd',
    'Q/flip-kC2-GL2/F-sep':
        'cad46ea366c4d832b5fadec748f10bc889d81168c6aded04df63e992e6f2e395',
    'Q/flip-kC2-GL2/G-sep':
        '1c88a39caec638c3743e14147ca063df1e7f58c44a1ee22d3d61ea06e0e678c1',
    'Q/flip-kC2-GL2/Fp-sep':
        '0f04e9a8cfedec1e8828e6f03fea6d093ddd4474b73e745ca4eb14da6e0ec17d',
    'Q/flip-kC2-GL2/Gp-sep':
        'ab7f11ac2ac0250eb0d0f554a084fc7bea934cd8914ae882d64708afa7acdb55',
    'Q/flip-kC2-GL2/smash-over-A':
        'e445c3d14566a86c90f60511114cf934675a264df433b1d89204e2d364549a37',
    'Q/flip-kC2-GL2/smash-over-B':
        '71c9b5a3cb9242e2e4dad7e4ad6027cca33b1518eb2ab16fcfed21ffe8fcebf5',
    'Q/flip-kC2-GL2/cross-check':
        'c8f3396142e046cc8c067d2ff8b176d64b52f34d17a756296037848481c0daae',
    'Q/flip-kC2-DN/FG-frob/search':
        '6de2f34198113602671ccc8b9c97af3cd71615284f64e89e6f72daf7677e1926',
    'Q/flip-kC2-DN/FG-frob/iso':
        '4d8f384690712983fb392c28995f60415a467912eb7c8f3d479848533b485bc5',
    'Q/flip-kC2-DN/FG-frob/auto':
        '6de2f34198113602671ccc8b9c97af3cd71615284f64e89e6f72daf7677e1926',
    'Q/flip-kC2-DN/FpGp-frob/search':
        '8e5201462deadbf90778a817cdbb49e1902612e94bc54b6da152c8716c4b672d',
    'Q/flip-kC2-DN/FpGp-frob/iso':
        'c5898069af2e638a4130d43cdb76781df3195911b80bdcdde7b187f0d4bdc5d5',
    'Q/flip-kC2-DN/FpGp-frob/auto':
        '8e5201462deadbf90778a817cdbb49e1902612e94bc54b6da152c8716c4b672d',
    'Q/flip-kC2-DN/smash-frob/search':
        'd82937a04e92cd4e2fd244058ac1962f11d4a9b396d8d370f899b609761a7709',
    'Q/flip-kC2-DN/smash-frob/iso':
        'cac7ce3ac3332b26aa56549fd0a80b2b5eb278c46e9877c87dd7126e48445732',
    'Q/flip-kC2-DN/smash-frob/auto':
        'd82937a04e92cd4e2fd244058ac1962f11d4a9b396d8d370f899b609761a7709',
    'Q/flip-kC2-DN/F-sep':
        '6b371bc81fa055b652628f55b0e952b5c87a738dfece011f3510f4362a560d28',
    'Q/flip-kC2-DN/G-sep':
        '1c88a39caec638c3743e14147ca063df1e7f58c44a1ee22d3d61ea06e0e678c1',
    'Q/flip-kC2-DN/Fp-sep':
        '8164e29d1ccd8df40e068ee14bf2fe60a0ac141c0aa9cfe00c2b477de70a09d5',
    'Q/flip-kC2-DN/Gp-sep':
        '368a8078a6786979c9446e20d234a3b5f84ab04adeee865ea168331fc79eea8a',
    'Q/flip-kC2-DN/smash-over-A':
        'c11163a907e81b2fce181f67d1edd72c661eff33f64fd91e68fef600e0c7a1aa',
    'Q/flip-kC2-DN/smash-over-B':
        '776839263d69273b3c0d6f2b2e4f64f58405675bc3ad0ea2bfe5c5044076e8d1',
    'Q/flip-kC2-DN/cross-check':
        'c6fb2f22fe416dc3cdc9d1245fbf36650438009478ea0159f3675c9ff69a7ce6',
    'Q/flip-M2-GL1/FG-frob/search':
        '70a51fe61d9acff000a8fcc3820043a0e4769aa8223c7a487982d73168ae7acf',
    'Q/flip-M2-GL1/FG-frob/iso':
        '69dfad0a6ab053dd488c1d3c9b89bd6472a416efd74c60a2e2852b5c372320e3',
    'Q/flip-M2-GL1/FG-frob/auto':
        '70a51fe61d9acff000a8fcc3820043a0e4769aa8223c7a487982d73168ae7acf',
    'Q/flip-M2-GL1/FpGp-frob/search':
        'b952e826cbbd3b673045b9f17751f604e24a537ca2d9e1fd86eb9e883230459a',
    'Q/flip-M2-GL1/FpGp-frob/iso':
        'a9c9959e0b17d3ef6c50a27728cddd82aa5199a9085057825ba778dca5def1ae',
    'Q/flip-M2-GL1/FpGp-frob/auto':
        'b952e826cbbd3b673045b9f17751f604e24a537ca2d9e1fd86eb9e883230459a',
    'Q/flip-M2-GL1/smash-frob/search':
        'b0df4292deeb66a81738f5d8b0cc57d37dd69a4df607b4763db85b6b0f07b7a6',
    'Q/flip-M2-GL1/smash-frob/iso':
        'c481e78981aedb9b09a9ae16f1d27e8582e4037379031cbda5b433486a5e459d',
    'Q/flip-M2-GL1/smash-frob/auto':
        'b0df4292deeb66a81738f5d8b0cc57d37dd69a4df607b4763db85b6b0f07b7a6',
    'Q/flip-M2-GL1/F-sep':
        '30dfb9e049f7faeb081bc53c1ac64b4c5bc2769fdeb62e3312d7dc7adeb50712',
    'Q/flip-M2-GL1/G-sep':
        'ba003ffc2214ef26aafac88a6d2d42fd247408ba80f95f757631ba9aa21b4b14',
    'Q/flip-M2-GL1/Fp-sep':
        'b425433bef4a7f883fa1b679dab42034f5d28f7feda59642ebab5a1f8fac7ac6',
    'Q/flip-M2-GL1/Gp-sep':
        '20422a8232f69ab0c8d81b2c8ffb79e71618073bb43a91f9d324e0034320e6f7',
    'Q/flip-M2-GL1/smash-over-A':
        '6e4b05f26540565adc6fc695c97bb8b7726aa0d16caa083b88d84310279aae24',
    'Q/flip-M2-GL1/smash-over-B':
        '7e30e7762ec7f2c09c18fd9263ee28e73e585af15f48250f795ff24fe432e88e',
    'Q/flip-M2-GL1/cross-check':
        '7a9c2f92a800ed735430ed0c82276c829f00def89888471cd4a0c282d2fe4a8d',
    'Q/flip-k-arrow/FG-frob/search':
        'dd82e5205a53f4395e40da722f97cbfc3a6a6d689fb6ebdcc074eab96a292bcb',
    'Q/flip-k-arrow/FG-frob/iso':
        'e927a27a6c9ff5dea625c43300e4f65d2b3928523a13d080b07cca3bcb453e73',
    'Q/flip-k-arrow/FG-frob/auto':
        'e927a27a6c9ff5dea625c43300e4f65d2b3928523a13d080b07cca3bcb453e73',
    'Q/flip-k-arrow/FpGp-frob/search':
        '14915f82a5d471a0a17477350c161676d63a86b8fe60d6f9ae3274aa7cb8682e',
    'Q/flip-k-arrow/FpGp-frob/iso':
        '60617283734991b7cf5e1ae520de987a47e6357620deb09806a2c0725170e3e4',
    'Q/flip-k-arrow/FpGp-frob/auto':
        '14915f82a5d471a0a17477350c161676d63a86b8fe60d6f9ae3274aa7cb8682e',
    'Q/flip-k-arrow/smash-frob/search':
        '21d74e379f9bd3b1b45f460dccb1086ba9047b8f48756b7a6f554fb9454ad121',
    'Q/flip-k-arrow/smash-frob/iso':
        '74dea34e883ca3953bd4c4e6cc3889b0691b135afefa56e79cb970965711c160',
    'Q/flip-k-arrow/smash-frob/auto':
        '21d74e379f9bd3b1b45f460dccb1086ba9047b8f48756b7a6f554fb9454ad121',
    'Q/flip-k-arrow/F-sep':
        '8136bb2a82867816b5dca672a0058e54fa1414d25dd694f5c53752ec36717c68',
    'Q/flip-k-arrow/G-sep':
        '7413f81fde58e03e88264e7c29c8a0b3555df943662a735ea3793bdb65755207',
    'Q/flip-k-arrow/Fp-sep':
        'c8f1ac89395bbf7e7a3118af1d78f1e5e5c2a6a5038202d21c992653aa398f33',
    'Q/flip-k-arrow/Gp-sep':
        '8445208a1eaa2b69553f618b0ddf874b038e2179f8571595f7017dce73b461fc',
    'Q/flip-k-arrow/smash-over-A':
        'd77ab33d44894b407b47dafe2182b856b8741af0d7235c49c20071d7d8e2f942',
    'Q/flip-k-arrow/smash-over-B':
        '5787dd21716925de55ebdf898130675fb233be77d19c1b6496643d67b9b4480f',
    'Q/flip-k-arrow/cross-check':
        '8aac239d360db52aa0d1a4e3cc93a9514e638c16750f10dbc87513a0cdfe20f4',
    'Q/doihopf-kC2/FG-frob/search':
        '34a5f78b87d3da191483989e149bee913edc28baafa149c0c8aa65b2e4b1f3b0',
    'Q/doihopf-kC2/FG-frob/iso':
        '598483ab28fffa13e52552fa6cac86851717c50cfb413d638e48d18d320199c3',
    'Q/doihopf-kC2/FG-frob/auto':
        '34a5f78b87d3da191483989e149bee913edc28baafa149c0c8aa65b2e4b1f3b0',
    'Q/doihopf-kC2/FpGp-frob/search':
        '0ab141a549e00657033a3097d9d5e5cb8a4b3a36b50329446047d9f563e59cfc',
    'Q/doihopf-kC2/FpGp-frob/iso':
        '691a30ee6099ca6d7a0ea9578ee32c4e00f7ad7d1efcaf9a5b122b0bdb744af4',
    'Q/doihopf-kC2/FpGp-frob/auto':
        '0ab141a549e00657033a3097d9d5e5cb8a4b3a36b50329446047d9f563e59cfc',
    'Q/doihopf-kC2/smash-frob/search':
        '81e8ba1938b8e2ea8dfa68fc46afd65859d1456264c4b1c6ebb4a884d8a6d983',
    'Q/doihopf-kC2/smash-frob/iso':
        'f5ba3630f7226c3265468472581805249743b1d92e902ea836324ec37abc7c3e',
    'Q/doihopf-kC2/smash-frob/auto':
        '81e8ba1938b8e2ea8dfa68fc46afd65859d1456264c4b1c6ebb4a884d8a6d983',
    'Q/doihopf-kC2/F-sep':
        'da1b6a1b1a578560d39eb908c5a2ef74db6f9fbf0237f51300733df609a840fd',
    'Q/doihopf-kC2/G-sep':
        'e63447178e5e469a190f7417cbbd61617c646444b5eec44a98a174069ffbc653',
    'Q/doihopf-kC2/Fp-sep':
        'f6d56935b4b0e556d8fa22f898294dc6d706ad67b9a945c33d821d147d71c274',
    'Q/doihopf-kC2/Gp-sep':
        '7bbef5985422b3b109b8584f71fa996fc620f8c55d97317ddb2c49385ff424ed',
    'Q/doihopf-kC2/smash-over-A':
        'bf75da204d836a2d167f7a5ebd059f27b88d8ec5adaae2b6b7f286be9efcfe67',
    'Q/doihopf-kC2/smash-over-B':
        '730e7634d4262d1c921ce2168561ebf693814de058c252dd61baa40acb91eb48',
    'Q/doihopf-kC2/cross-check':
        '00c95dd3bc83d05db5bab5b6116518c169866a10057a707e2577a53ec5c93ad3',
    'Q/doihopf-kC2-datum/F-sep':
        'da1b6a1b1a578560d39eb908c5a2ef74db6f9fbf0237f51300733df609a840fd',
    'Q/doihopf-kC2-datum/G-sep':
        'e63447178e5e469a190f7417cbbd61617c646444b5eec44a98a174069ffbc653',
    'Q/doihopf-kC2-datum/Fp-sep':
        'f6d56935b4b0e556d8fa22f898294dc6d706ad67b9a945c33d821d147d71c274',
    'Q/doihopf-kC2-datum/Gp-sep':
        '7bbef5985422b3b109b8584f71fa996fc620f8c55d97317ddb2c49385ff424ed',
    'Q/doihopf-kC2-datum/smash-over-A':
        'bf75da204d836a2d167f7a5ebd059f27b88d8ec5adaae2b6b7f286be9efcfe67',
    'Q/doihopf-kC2-datum/smash-over-B':
        '730e7634d4262d1c921ce2168561ebf693814de058c252dd61baa40acb91eb48',
    'Q/doihopf-kC2-datum/cross-check':
        '00c95dd3bc83d05db5bab5b6116518c169866a10057a707e2577a53ec5c93ad3',
    'Q/fact-doihopf-kC2/smash-frob/search':
        '81e8ba1938b8e2ea8dfa68fc46afd65859d1456264c4b1c6ebb4a884d8a6d983',
    'Q/fact-doihopf-kC2/smash-frob/iso':
        'f5ba3630f7226c3265468472581805249743b1d92e902ea836324ec37abc7c3e',
    'Q/fact-doihopf-kC2/smash-frob/auto':
        '81e8ba1938b8e2ea8dfa68fc46afd65859d1456264c4b1c6ebb4a884d8a6d983',
    'Q/fact-doihopf-kC2/smash-over-A':
        'bf75da204d836a2d167f7a5ebd059f27b88d8ec5adaae2b6b7f286be9efcfe67',
    'Q/fact-doihopf-kC2/smash-over-B':
        '730e7634d4262d1c921ce2168561ebf693814de058c252dd61baa40acb91eb48',
    'Q/fact-flip-kC2-kC2/smash-frob/search':
        'd5833d5511a28cd95bfa5db36310d5a775a8a1623dfbc7d1a226e240c6445ee3',
    'Q/fact-flip-kC2-kC2/smash-frob/iso':
        'b6824a8f844954b559c7bffae640b14cc9ff68310634ff64f40eeba7e96c2bf9',
    'Q/fact-flip-kC2-kC2/smash-frob/auto':
        'd5833d5511a28cd95bfa5db36310d5a775a8a1623dfbc7d1a226e240c6445ee3',
    'Q/fact-flip-kC2-kC2/smash-over-A':
        '320f136f479026f84ab2f39d9f4e0e435a6d89bfa088a0d7757c8b7cd391d361',
    'Q/fact-flip-kC2-kC2/smash-over-B':
        'b642c746023204c7407f5d0e5e7ae5501da9bb3c391b16461aa6abb1300f6413',
    'Q/fact-flip-T2-k/smash-frob/search':
        '21d74e379f9bd3b1b45f460dccb1086ba9047b8f48756b7a6f554fb9454ad121',
    'Q/fact-flip-T2-k/smash-frob/iso':
        '74dea34e883ca3953bd4c4e6cc3889b0691b135afefa56e79cb970965711c160',
    'Q/fact-flip-T2-k/smash-frob/auto':
        '21d74e379f9bd3b1b45f460dccb1086ba9047b8f48756b7a6f554fb9454ad121',
    'Q/fact-flip-T2-k/smash-over-A':
        'd77ab33d44894b407b47dafe2182b856b8741af0d7235c49c20071d7d8e2f942',
    'Q/fact-flip-T2-k/smash-over-B':
        '5787dd21716925de55ebdf898130675fb233be77d19c1b6496643d67b9b4480f',
    'Q/ext-k-kC2/ext-frob/search':
        'b6e5ad1d57c4e14b9e590e0c192f9179be267eb114389389d4a5baf02eda6e39',
    'Q/ext-k-kC2/ext-frob/iso':
        '55943f6354379c8e08a3d36a3862f33d30056fe808b05251ef46a9674281deb2',
    'Q/ext-k-kC2/ext-frob/auto':
        'b6e5ad1d57c4e14b9e590e0c192f9179be267eb114389389d4a5baf02eda6e39',
    'Q/ext-k-kC2/ext-split':
        '8ee9e28f4f2a110ee2e6238087ead493015e325242069f0c929eb06e0c5dffd9',
    'Q/ext-k-kC2/ext-sep':
        'a65f7ae4604242acbc5868690b6594a1d95ea3a20493ca41bf095284169a492d',
    'Q/ext-k-kC3/ext-frob/search':
        '43591bc0af693517b875fa0be075154855c61960ec153a79c515d140ebe17a4a',
    'Q/ext-k-kC3/ext-frob/iso':
        '847807a710815bff5225715ac2eb53d3fe821106876260142942d012186a2e98',
    'Q/ext-k-kC3/ext-frob/auto':
        '43591bc0af693517b875fa0be075154855c61960ec153a79c515d140ebe17a4a',
    'Q/ext-k-kC3/ext-split':
        '1007735ea1285e458140b3d50e387e8a821b5a0205684676734769f31eaabd99',
    'Q/ext-k-kC3/ext-sep':
        'a85890595dd28e57001c6d23f4ca3104016374065708fc23392f6fadb0e7258c',
    'Q/ext-k-M2/ext-frob/search':
        '5916b279ef84850c70f345fe1b24c3ab1f09b7cf4ada4a08af04207c9193fce4',
    'Q/ext-k-M2/ext-frob/iso':
        '0c71c103cfe3d5115809dc787ba548e7c0b8eb2a311b860e2209edce1723851c',
    'Q/ext-k-M2/ext-frob/auto':
        '5916b279ef84850c70f345fe1b24c3ab1f09b7cf4ada4a08af04207c9193fce4',
    'Q/ext-k-M2/ext-split':
        '8c5ec87d655ce7ac2f739d837a31dcda87986bf1a40f35e9d07732bc2e2d9d28',
    'Q/ext-k-M2/ext-sep':
        '2ce20a0072b0600a36c0893027bc8584de3de38bb4375f0f3a9d6251506763a4',
    'Q/ext-k-T2/ext-frob/search':
        'fe455a1d8f22037917fc5db1fce99699006159fe2b163190ce4fef028ea66bdd',
    'Q/ext-k-T2/ext-frob/iso':
        '4699486389251d297857b577fb7bd8f02dee4e539443808c1a14ecbe635c962f',
    'Q/ext-k-T2/ext-frob/auto':
        'fe455a1d8f22037917fc5db1fce99699006159fe2b163190ce4fef028ea66bdd',
    'Q/ext-k-T2/ext-split':
        '1007735ea1285e458140b3d50e387e8a821b5a0205684676734769f31eaabd99',
    'Q/ext-k-T2/ext-sep':
        '22e00ea012db1e680603eda92cbe19705d09966ec2b5f0f24a4927f3f6a4b421',
    'Q/ext-id-kC2/ext-frob/search':
        'fcea5d9503dc5a839a7b8709e9208c518dd8c53e4028c0e494fae39631ce13fb',
    'Q/ext-id-kC2/ext-frob/iso':
        '1b0d02974d89a74adce59cde97d40cbf0d7a7ee25147de94f91dd6cdee9148da',
    'Q/ext-id-kC2/ext-frob/auto':
        'fcea5d9503dc5a839a7b8709e9208c518dd8c53e4028c0e494fae39631ce13fb',
    'Q/ext-id-kC2/ext-split':
        '6eba81814f827fddd0007cf75c41ae8d777386fc8c7679d0d4de334c03e5adf0',
    'Q/ext-id-kC2/ext-sep':
        '3d1a78954b21c71ceb2fa1383ec1b5e960e9770f09b0875368dce208b6d54d2e',
}


def test_verdict_reports_match_pinned_digests():
    got = report_digests()
    assert sorted(got) == sorted(PINNED)
    changed = [k for k in PINNED if got[k] != PINNED[k]]
    assert not changed, "verdict reports changed: %s" % ", ".join(changed)


if __name__ == "__main__":
    for key, digest in report_digests().items():
        print("    %r:\n        %r," % (key, digest))
