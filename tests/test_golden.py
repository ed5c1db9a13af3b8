"""Determinism pin: one sha256 per run over its trace, its report and its
internal-sequence dumps, wall-clock fields (*_ns*) left out.

The digests below were produced by an earlier revision of the code; a change
that keeps every trace line, final state, dump and cost count (c, transform
count, C, C_t, search steps, gc_total) byte-identical keeps them passing.
Regenerate with `PYTHONPATH=src python tests/test_golden.py` only when a
change deliberately alters one of those, and say so in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from coedit import woot
from coedit.harness import FuzzSpec, Scenario, _random_scenario, fig1_scenario, run_scenario
from coedit.netsim import UniformLatency

FUZZ_SEEDS = range(20)
TIE_SEEDS = range(10)
MODES = {"ot": "sequencer", "woot": "causal"}


def _symmetric_scenario(seed: int) -> Scenario:
    """Two symmetric OT sites in windows of 4 ops whose gap is shorter than
    the largest delay, so neighbouring windows overlap (the benchmark's
    long-session shape at a small size)."""
    rng = random.Random(f"sym-{seed}")
    return Scenario(
        initial="".join(rng.choice("abcdef") for _ in range(rng.randint(0, 12))),
        sites=2,
        mode="causal",
        latency=UniformLatency(1, 10),
        seed=seed,
        fuzz=FuzzSpec(n_ops=rng.randint(20, 80), insert_ratio=rng.uniform(0.5, 0.85), window=4, gap=8),
    )


def _woot_tie_scenario(seed: int) -> Scenario:
    """Three or four causal WOOT sites on a 40-80-char doc, in windows of
    8-10 ops whose gap is shorter than the largest delay, so concurrent
    inserts often share anchors and their placement falls to id order."""
    rng = random.Random(f"tie-{seed}")
    return Scenario(
        initial="".join(rng.choice("abcdef") for _ in range(rng.randint(40, 80))),
        sites=rng.randint(3, 4),
        mode="causal",
        latency=UniformLatency(1, 10),
        seed=seed,
        fuzz=FuzzSpec(n_ops=rng.randint(60, 120), insert_ratio=rng.uniform(0.6, 0.9), window=rng.randint(8, 10), gap=6),
    )


def _cases():
    for engine, mode in MODES.items():
        for seed in FUZZ_SEEDS:
            # the scenario `harness.fuzz` builds for this seed and engine
            yield f"fuzz-{engine}-{seed}", _random_scenario(random.Random(f"scn-{seed}"), seed, mode), engine, False
    for seed in FUZZ_SEEDS:
        yield f"sym-ot-{seed}", _symmetric_scenario(seed), "ot", False
    for seed in TIE_SEEDS:
        yield f"tie-woot-{seed}", _woot_tie_scenario(seed), "woot", False
    for engine in MODES:
        yield f"fig1-{engine}", fig1_scenario(), engine, False
    yield "fig1-woot-skip34", fig1_scenario(), "woot", True


CASES = {name: (scenario, engine, ablation) for name, scenario, engine, ablation in _cases()}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if "_ns" not in k and k != "requeue_events"}
    return obj


def run_digest(scenario, engine, ablation) -> str:
    report = run_scenario(scenario, engine, ablation=ablation)
    h = hashlib.sha256()
    h.update("\n".join(report.trace).encode())
    h.update(json.dumps(_strip(report.to_dict()), sort_keys=True).encode())
    h.update(json.dumps(report.is_dumps, sort_keys=True).encode())
    return h.hexdigest()


GOLDEN = {
    "fig1-ot": "dc33921f84bf0e60dad8cc316bc9586f8418a0efa9c05699d57ffb1aedf797df",
    "fig1-woot": "1020e32c65df21988f4b35cccf190e1db3527763f378a21a26b15030a41e5213",
    "fig1-woot-skip34": "a6ea7f125a197ab52dfd014b3d6926737a2dce5b2519cd467a8cc62409bb98bb",
    "fuzz-ot-0": "71b26df7a3b09e7693e5b75cda329a28178bfd191bfb3899e830f0d04424dd43",
    "fuzz-ot-1": "9bcee1495f1b035be694b8032f9ced6baa6e85056fc43f6b2a555a214aca4b90",
    "fuzz-ot-10": "e856304d07f8338719d56aacc9b6150626250a572a43b53a489dfb61b15a5df4",
    "fuzz-ot-11": "c37423b69c535a64cf58dbf724aaa8aa5030d26af4031b0b190867176242b5d0",
    "fuzz-ot-12": "4554bd58ec297889cae47acd1107096dfb44b24ebaa0dec0ac07ab77f4267893",
    "fuzz-ot-13": "6bb5486460ed064bdef13b3015ef25d17654aa71d83d576eda5681c5cd0e9a81",
    "fuzz-ot-14": "81d95092f4fb83ce7ebb77acff5138facdca63c741c257f25b7303a8e00fbcbf",
    "fuzz-ot-15": "b25271da16d6cd0da4e3194c0b5fc63b7e52d453a9bf4135d6d6d842b38132d6",
    "fuzz-ot-16": "87c611abe856b4e169339942cb24aa7d118a9170ea2aa9e74b21ea9117f8910e",
    "fuzz-ot-17": "0ba4e93bbe61be364c16773c4728f27fa579f27b41f6a9a35b4bfb6f6be6744b",
    "fuzz-ot-18": "30de444c80848310811f08ed3978e5ab0f190c5d96daad078a1a506ba9bd7355",
    "fuzz-ot-19": "de22ba5cf1acb2be70c1ccfce694f8b758d946d2a3f3427dbdd5ed1281c08434",
    "fuzz-ot-2": "2b90f5ef7422d0db3762ba77ffe48c6b4b4812ae771b2443c90301287c545c2a",
    "fuzz-ot-3": "73acfc6a9ba76eb59c691761f3a317b2127ce7dc07def411a6dc2fc4e6fb7826",
    "fuzz-ot-4": "434ef2c3ec7a791ba40aad6ae96e7350a2d0b373b28710d79bb9e8ff5d112cb7",
    "fuzz-ot-5": "e17edfa43b4a6b274db1af71e01c31ecb9977bdfaaf67bb8bf24e41d2790e8b8",
    "fuzz-ot-6": "60d32b55bb386ec780ee9e009030b9efd8550c3ff4514b43544c483bd1b50b90",
    "fuzz-ot-7": "70f2f21358f5f4708207475cb819145d916c5af730e3b854c3525f508b824b05",
    "fuzz-ot-8": "d480d8a6e532f3b3d13ba047af83504ff8c707b5f05da61b15ccb8cb62cc4aec",
    "fuzz-ot-9": "8cfae7151af6f9374f1e8daeb83b169da66ee6ec0b39905cd69a67fde52825da",
    "fuzz-woot-0": "3b34b2f0e85f7611d1d5405690f8ab215f5d5194c6ba501ad155139d052a747f",
    "fuzz-woot-1": "eb2a84593b01812f43a82a45d968cfdaa2e8c09249669afa095786929a6cff14",
    "fuzz-woot-10": "1dae224db22ae3417f34eaa5f2954167af2a9d5f07c6c25191f778fe2b9b5adb",
    "fuzz-woot-11": "d32a75a507297fe7e6df72b5f16a887da028de54df5a54ef712227a43499ad52",
    "fuzz-woot-12": "40c8b65b5ba2a22a7df1c5cee83980045e291d69e449b911e3a1aa455f8d632d",
    "fuzz-woot-13": "0a1d90c6daf0a577fcc1b396384e80f470cc4d76d5f34d003dbb2511557a1dea",
    "fuzz-woot-14": "250671e7b3de20d7acba0291d84b47b4aeacb0be678e80ebe540f29bebe5502e",
    "fuzz-woot-15": "d3551cd460a3185c25713e711c05e3a9eb7e92870a7b6164327748f0060f6581",
    "fuzz-woot-16": "0d672fb11726455f062b212f1d7e66036a95ff0784e9856ff783b04946192642",
    "fuzz-woot-17": "8290038ac1096344bab9ca7f3398a74cdde9f0ad80b59f6b12eb0294b35b7e15",
    "fuzz-woot-18": "31885140dcccfa80a8b4fe97ba7eee6be4460b87e081a83a781ae0b51ec3ab8c",
    "fuzz-woot-19": "b45bc32f0505002e45a850d53d3f34896b05549ad4f323bd31e82199c8ef5e51",
    "fuzz-woot-2": "c49ca6f76b53c1e67bd813bfba6198530c7e3bfc781930fc61fc95fabaa69f94",
    "fuzz-woot-3": "3ac428a63aced87910e9f705eb60e588795dd1ae1f4b09a63179cc61b39a1cc2",
    "fuzz-woot-4": "24fc463b63c75a9a318374d95243e82a4e030da4aed12309f3e967a1c9f97bd5",
    "fuzz-woot-5": "161bd05e9b8b4889d75e8e892904b97223f48c134f1239738e5c06c29a97a6b8",
    "fuzz-woot-6": "a1933197c6483eb5a09b963a08067edbb6b6924255bee412baf30b1bba4cbb96",
    "fuzz-woot-7": "d4c31dea2a263fbade94f36bbcd19d79144521daaf3a71d55591b2545b86c9ad",
    "fuzz-woot-8": "9e9d824c8e13af4de9ca0aadb8d9b62f42aaf47c4ae48e6b929fb79263844c38",
    "fuzz-woot-9": "d6141921640fba3dfd41f7995984942330a218f46bb6fe852aa975e6e8a3d02f",
    "sym-ot-0": "a3e5490a2be280af475a34466cbea8b002c95dff1ac076058d7a8d84427676fd",
    "sym-ot-1": "c8c2bf8d5284f7d52507376eec38dc4429dabcac14c3cef7e8c2ce244170a1c2",
    "sym-ot-10": "2404fb10d2782142cfb79591d3c95fb3cd4dc3ea9fe294972e71595515e08d2f",
    "sym-ot-11": "0f84680dca6c817837a26c4c42287ca013130d816eb54313acebc2cde1a3e04d",
    "sym-ot-12": "c6b2995b75edc5a7e654c9154667a145aef69dec89863528274ab678adb87a89",
    "sym-ot-13": "b5b65ef8ea5280d4ccea2416ed34bba0bbbbdffb5c4b6da38165a0021a942cfa",
    "sym-ot-14": "caac1e3abb1e7b8c35c01e61173b6b7edde472bdec4563379e0247d7d8a6e71f",
    "sym-ot-15": "255125ff29714b9d91e4fe18c9db848b747f5fcd1f108173c726cbf7ff2979e7",
    "sym-ot-16": "e2b97d081d639a12a6baebe018b1fd8e2c59e32a34a2495807befdf92ff213fe",
    "sym-ot-17": "e3efdbb75c10f561b5e24c381cd1c51e7aa392838bceb6ef5419c4b132ddaa06",
    "sym-ot-18": "b9a66a3c9cefaa30191d68fe9bb8545e4ac4f5cebbe08798252867e0196d5327",
    "sym-ot-19": "6277bc36960015179485794d6756f5ca1bf1ac919a42d4f6f6fcb6e72c5d68f7",
    "sym-ot-2": "d6f5402ad55c5556263e062d7990e29a40409be5b29c9ee687f11dcad340ad2b",
    "sym-ot-3": "79fafff454b9f9e508d40885d732a860b9402880d3a2b59eb3ae788270a43554",
    "sym-ot-4": "52291a3db53240e0506de7e1690e6635a9eaee20550215bd0a0324b7fe1b13bf",
    "sym-ot-5": "57e852694a218029bdc82357567f8df73d34e03db75a8db39c9cb08f518b1b40",
    "sym-ot-6": "38e0f37b337b4fa70be65da0827813e693210310573a947c7a97ac1e97c02959",
    "sym-ot-7": "81a0e317d8745137f31fc0a198c15d9cf8336ed25c1acf1ba2445447b01fcf5e",
    "sym-ot-8": "300b8e09cdeeaccde1eb61fdba4515cdf186963507a12f43f2b02c23c0aaf868",
    "sym-ot-9": "c3ec2512a914797eba4ceaec68623da87453f64a43a78aee445506241153a8cd",
    "tie-woot-0": "db027cc364125c2960ab17f42cd92ff58c43cddda6f078d2fb124fb044b96c20",
    "tie-woot-1": "8f6675cc86ebdc03c5a17fca5f82b6c569150dc1c974cf85fba108af79046d56",
    "tie-woot-2": "85245e8a9c25915b72e36bba783e7620c5799c93dad8868f1d7de0ce38bf7fb1",
    "tie-woot-3": "ea61e83152399100497366786a6a0b982e83c1ec4bc8fd4a9cad49e2ae360632",
    "tie-woot-4": "0958833dd4a35ed2a5c2d71d27f43982df47f3b88bf4d76fd5fb4042541f7fc4",
    "tie-woot-5": "d5c45d82c42d23443127016f6959e85a021965c508346accaaa99432acad4d21",
    "tie-woot-6": "2932cf959ba3185a4f1b0662bf00e94aa292617008d0befdcf21f022b547f9d0",
    "tie-woot-7": "0ada783d0bc89e33bd99362de4506d79711d1782c7500bdfbc9237aa1f0d3f0a",
    "tie-woot-8": "951fb993af510dbbc31db2f850386f8205f5368a30b37a367a777c3598e08cdd",
    "tie-woot-9": "4c8e38299ffc1c1a213577e9a68ce319c046535ca8f3b3375a3b58582f94077d",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_pinned(name):
    assert run_digest(*CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(n for n, (_, engine, _) in CASES.items() if engine == "woot"))
def test_digest_pinned_in_blocks_of_two(monkeypatch, name):
    """No WOOT case splits a block at the default size; in blocks of two
    every one runs the block counts, the splits and the cross-block scans,
    and must reach the same digest."""
    monkeypatch.setattr(woot, "BLOCK", 2)
    assert run_digest(*CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{run_digest(*CASES[name])}",')
