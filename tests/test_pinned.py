"""Bit-for-bit pins of the random draws, the simulated amplitudes and the
operators' outputs.

Each test hashes what the code produces from fixed seeds and compares the
sha256 digest with one recorded from an earlier implementation. A change
that takes another count of numbers from a generator, takes them in
another order, or reorders a floating-point operation changes a digest,
and with it what every `seed` and `target_seeds` value means. Tolerance
tests such as TestSeededTargetRegression do not catch the last-bit case.
"""
from __future__ import annotations

import ctypes
import hashlib
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from qcevolve.circuit import IDENTITY, Circuit, random_circuit, serialize
from qcevolve.engine import RunConfig, evolve
from qcevolve.fitness import Dataset, EntanglementFitness, FitnessFunction, MLFitness
from qcevolve.gates import FULL_GATE_SET, RESTRICTED_GATE_SET, GateKind
from qcevolve.operators import (
    MUTATION_METHODS,
    Individual,
    MutationContext,
    crossover_blockwise,
    crossover_multi_point,
    crossover_single_point,
    select_random,
    select_roulette,
    select_tournament,
)
from qcevolve.simulator import run_gates, simulate

pytestmark = pytest.mark.per_kernel

GATE_SETS = {
    "full": FULL_GATE_SET,
    "restricted": RESTRICTED_GATE_SET,
    # two of three draws on a free row pick a pair
    "pair_heavy": frozenset({GateKind.RZ, GateKind.CX, GateKind.CZ}),
}
SEEDS = range(3)
DEPTHS = range(1, 26)

# sha256 over serialize(circuit), simulate(circuit).tobytes() and
# run_gates on a seeded (3, 2**n) stack, for every seed, then depth 1-25
# drawn in order from one generator per seed; one table per core that
# numpy's bundled OpenBLAS reports (see openblas_core), since each core's
# zgemm kernel rounds the one-qubit gates' products its own way. Nehalem
# and Sandybridge gave the same digests.
DRAW_DIGESTS = {
    "SkylakeX": {
        ("full", 1): "34dc2dc41c7c4f880ecef4509f266841211f6651b1bc887b6793f5aec94fe6f7",
        ("full", 2): "95afe760fb32ed486ff92efe7f16f67dee47c1ecc371e4e407ae0696209fc5ca",
        ("full", 3): "3b2ae7c954bb0161a4067ff8343fc856604b009213164ec98860cf79b2cfedd2",
        ("full", 4): "400f2e3d520a375acc63817d1f178329c5a02b7302f7c0924fe5f16f6350ec28",
        ("full", 5): "a73598903d943d60fe930db9e312952de833fbf4e10bd1460a275a073ae9e30c",
        ("full", 6): "9c340f20c2ca24a979500b685b9a5a3494c4b7fc6f4854e7c52042e33920110e",
        ("pair_heavy", 1): "30b9234974e8988818a4ffdc67f8d53ca0faa75e00135bd3cbe9053517e6f201",
        ("pair_heavy", 2): "a0fc2b3f39177920a5299e5c5029a8cc0d21ece5f6de4b7d2a92806a17be88a5",
        ("pair_heavy", 3): "3978f857cf001a00d9b35bd4dabcbff3983bd8a2c9357df7a6bcdee675552201",
        ("pair_heavy", 4): "2be95416015840594b2d0b5226ad1b2a375c0d0ccb77700b16214bcfbf3c3092",
        ("pair_heavy", 5): "0db5992125cce093d41f2f0bd2c9935695c91fc2a82cae9cba2e8d8e7a919940",
        ("pair_heavy", 6): "de30dcc8c7bd049a96ca3263587b71ba4f0f29a1029fe74fc91f76385e5b427b",
        ("restricted", 1): "3231f52fa4d2fc0b8a313d643f2a1ad937e01ffd0f85ece43f38405f5d62b552",
        ("restricted", 2): "fa5c1f4afee4fb941090f82614e68fd9d43062d843b96d0a3a3bc3ecc02a5c1c",
        ("restricted", 3): "0525f7122176079a1b57070d4c7c2f4be668c5e181b426c6419eb0401dc24df3",
        ("restricted", 4): "dbede50650423995e37da62429e057c15032bcc4fe84fb993f075e6aa53a026e",
        ("restricted", 5): "1052f005d120d7efd3546b5dda3e8c97f9a72e69f43d95a0d6c71fe581103126",
        ("restricted", 6): "4ec9814eca390a480f2520df7aa710eb7483329f4ce8637a83d08ea13994852a",
    },
    "Haswell": {
        ("full", 1): "7fb090d1cb588ce5128d1e998a08ceccaf5331d7e42bcd18591bebbb5c196f30",
        ("full", 2): "8b4315ba9cb9edd86a75e7acdccb43de7ff06a64a32ba87e31fff919141637ed",
        ("full", 3): "1dafe09312d883c3a5b4611da794f4a72da18e971c960808115b9a55a812ed2f",
        ("full", 4): "017e8ac1a25f28ece2e2dbdbdd24e89b32a2d6078bdf1aa82976b1d7e3b46b66",
        ("full", 5): "8a63c1becffe2f5701a89e6757ee80c377a4b7f014e3dd43989fb87a4ae3744f",
        ("full", 6): "e79bdd88dd7a6fe9261b3ae0688a22c16a384e40d64b0753ae87c4967e77f27b",
        ("pair_heavy", 1): "b95ce8cdbcf661972d1a4f85c757ad4bfa43723607f9963290dfdc1a0f8d5e96",
        ("pair_heavy", 2): "4cc947dc6df4466f888e4ea879a7fa4c22a5ce9904901168618f4a90d698599c",
        ("pair_heavy", 3): "bdf3182a6308a91e7dba479a041d49f48ba3ca570062ba634331c4bbc2ae31ff",
        ("pair_heavy", 4): "21babe745862c3779172adbcc46e7f7e68a9a36123a8d1777c4c6b76b7d57431",
        ("pair_heavy", 5): "76f067201f63dcf05454879e0b77f1720609b981a9530ce312205ccb5f2d5c45",
        ("pair_heavy", 6): "75bcdf4d6faa18ef242d8e7399738494f3bcc6634e38e2572a186a7a501b5496",
        ("restricted", 1): "55497cb75a7344878654db031b58c120220e99ef6a1d56ee26fe558000be4dc4",
        ("restricted", 2): "3270298d09612d74708ed3070443cdb522ea232c418419c3a4c4ac7e44dc841a",
        ("restricted", 3): "36c29f8984380aefd775c6bf5f92becf1a3d0ad89e0ee1c1b043fbba9d4c290f",
        ("restricted", 4): "e8e478be8c0c31ff5283877ff25ea6264ec8fc42e87d88e003d9412632f1d7d5",
        ("restricted", 5): "138e978b6787771d1c0db9641ca5e5ec50ed94bf1a94474d873c56a5a4491007",
        ("restricted", 6): "c47a86f53669919f86e45ec4b87f85375c4f603cb8f30dfcb8341209b0b9a626",
    },
    "Sandybridge": {
        ("full", 1): "7fb090d1cb588ce5128d1e998a08ceccaf5331d7e42bcd18591bebbb5c196f30",
        ("full", 2): "4c5299c06f0c6afbf491d403bca45e49a05fc55da5f20502437564dd8321958d",
        ("full", 3): "eb1e3526a1f632ae096a3a74d49bf741ea4a60e3bf66eae2df20cc668c22d3e0",
        ("full", 4): "2000592f955c8256af9440dbad51c197eb32c52f990beb28f78340e3a0d2a3ac",
        ("full", 5): "6ca2894ee79e84d76e0f2643aca307aea3ef82632659ce49be5797ec64003471",
        ("full", 6): "f5b8d25273adf9046087910a272290319e4a781e3a59c2c3df1738f463be7e81",
        ("pair_heavy", 1): "b95ce8cdbcf661972d1a4f85c757ad4bfa43723607f9963290dfdc1a0f8d5e96",
        ("pair_heavy", 2): "4cc947dc6df4466f888e4ea879a7fa4c22a5ce9904901168618f4a90d698599c",
        ("pair_heavy", 3): "bdf3182a6308a91e7dba479a041d49f48ba3ca570062ba634331c4bbc2ae31ff",
        ("pair_heavy", 4): "21babe745862c3779172adbcc46e7f7e68a9a36123a8d1777c4c6b76b7d57431",
        ("pair_heavy", 5): "76f067201f63dcf05454879e0b77f1720609b981a9530ce312205ccb5f2d5c45",
        ("pair_heavy", 6): "75bcdf4d6faa18ef242d8e7399738494f3bcc6634e38e2572a186a7a501b5496",
        ("restricted", 1): "55497cb75a7344878654db031b58c120220e99ef6a1d56ee26fe558000be4dc4",
        ("restricted", 2): "3270298d09612d74708ed3070443cdb522ea232c418419c3a4c4ac7e44dc841a",
        ("restricted", 3): "36c29f8984380aefd775c6bf5f92becf1a3d0ad89e0ee1c1b043fbba9d4c290f",
        ("restricted", 4): "e8e478be8c0c31ff5283877ff25ea6264ec8fc42e87d88e003d9412632f1d7d5",
        ("restricted", 5): "138e978b6787771d1c0db9641ca5e5ec50ed94bf1a94474d873c56a5a4491007",
        ("restricted", 6): "c47a86f53669919f86e45ec4b87f85375c4f603cb8f30dfcb8341209b0b9a626",
    },
    "Katmai": {
        ("full", 1): "3bcec085a4e0d6bed620bc6806e71964bfca8978f0c44abdd22f3f5dc8cce850",
        ("full", 2): "0e0829721308e1495c0613c970de76d0d27a3388149fdb41457906fa74788b75",
        ("full", 3): "944114774de6f7809d0ce47f26486feb6fe37caa2cf8844e4a2e0f989c2ab8cb",
        ("full", 4): "290fe9663e05620cc95019f4c010819a7e76a81cd58f12f88878bf8683b7cad7",
        ("full", 5): "8fbcf23233f8e5a869e5c892d2b859e8868475b12d7e9860fc76cd82ef4de9a2",
        ("full", 6): "2e5c7eb8703a1894aec3a940d7d1a253a33cd98394959dd26edcb953b803db52",
        ("pair_heavy", 1): "b95ce8cdbcf661972d1a4f85c757ad4bfa43723607f9963290dfdc1a0f8d5e96",
        ("pair_heavy", 2): "4cc947dc6df4466f888e4ea879a7fa4c22a5ce9904901168618f4a90d698599c",
        ("pair_heavy", 3): "bdf3182a6308a91e7dba479a041d49f48ba3ca570062ba634331c4bbc2ae31ff",
        ("pair_heavy", 4): "21babe745862c3779172adbcc46e7f7e68a9a36123a8d1777c4c6b76b7d57431",
        ("pair_heavy", 5): "76f067201f63dcf05454879e0b77f1720609b981a9530ce312205ccb5f2d5c45",
        ("pair_heavy", 6): "75bcdf4d6faa18ef242d8e7399738494f3bcc6634e38e2572a186a7a501b5496",
        ("restricted", 1): "c22c658a8fee37a3c002af68dfd3ed3b0a2e5942ba20ea1be014eaead805dd6c",
        ("restricted", 2): "4f5bd58ad7b36a39fa4edc8a027d374accc603b78046c8d420c2f640b0e5d1b8",
        ("restricted", 3): "1350e088b6c64148f82e82a3d4be635a925be716ef1796e9decf5fa0b2ca0a09",
        ("restricted", 4): "9ed3414900d676e1195f02cd10474f2b235820580c66a8873f93f43f57191342",
        ("restricted", 5): "1a201c4b9a9cd2dc2f21c2b1bfdf6aa90517dc0afc7ea4dfb122712a3ea2b86d",
        ("restricted", 6): "3735600aa9fd4c1b55ba90eb8168ace171d0723830c904bf929eb41e35a2e91c",
    },
}
DRAW_DIGESTS["Nehalem"] = DRAW_DIGESTS["Sandybridge"]


@cache
def openblas_core() -> str:
    """The core whose kernels numpy's bundled OpenBLAS runs, as the library
    names it. OPENBLAS_CORETYPE forces one, and several forced names share
    a core: Prescott reports Katmai, Zen Haswell, Cooperlake SkylakeX."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    if not found:
        pytest.fail(f"no libscipy_openblas64_*.so in {libs} to name the OpenBLAS core")
    try:
        corename = ctypes.CDLL(str(found[0])).scipy_openblas_get_corename64_
    except (OSError, AttributeError) as exc:
        pytest.fail(f"cannot ask {found[0]} for its OpenBLAS core: {exc}")
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def recorded_for_this_core(tables: dict[str, dict]) -> dict:
    core = openblas_core()
    if core not in tables:
        pytest.fail(
            f"no amplitude digests recorded for OpenBLAS core {core!r}; "
            f"recorded: {', '.join(sorted(tables))}"
        )
    return tables[core]


def _stack(n: int, rng: np.random.Generator) -> np.ndarray:
    s = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def _simulation_digest(gate_set: str, width: int, depths) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        states = np.random.default_rng(1000 + seed)
        for depth in depths:
            c = random_circuit(width, depth, GATE_SETS[gate_set], rng)
            h.update(serialize(c).encode())
            h.update(simulate(c).tobytes())
            h.update(run_gates(_stack(width, states), c).tobytes())
        # what the generator is left at pins how many numbers were taken
        h.update(rng.bytes(8))
    return h.hexdigest()


@pytest.mark.parametrize("gate_set,width", sorted(DRAW_DIGESTS["SkylakeX"]))
def test_random_circuit_and_simulation_bits(gate_set, width):
    expected = recorded_for_this_core(DRAW_DIGESTS)[gate_set, width]
    assert _simulation_digest(gate_set, width, DEPTHS) == expected


# the same at widths where one-qubit gates reach the one-call layout of
# `simulator._run` (bits 0-2 of the single states and of each row of the
# (3, 2**n) stacks at 9 qubits, bits 0-6 at 13), over fewer depths;
# Haswell gave the SkylakeX digests, and Sandybridge and Nehalem the Katmai
# ones
WIDE_DEPTHS = (1, 3, 7)
WIDE_DIGESTS = {
    "SkylakeX": {
        ("full", 9): "da069fbacf66acddc3ef0855392e72260b0f56b88af4a4f1756a8344bb1b0aa1",
        ("full", 13): "83c001f8f46c074df8cbbf81f928ba45358199e4b1ea10d7a9d4c046212f3bf9",
        ("restricted", 13): "0eba7e0c3ff37b988b395c5bf75d663193aee41dabd9eb698cbd1464f9060a98",
    },
    "Katmai": {
        ("full", 9): "65b9458cf227f699ea624a895c7079b7da4d25332bbc2d2cf6f866b6e979c634",
        ("full", 13): "efc27b89863a891d0f2962a49361a246bc834f1d7ffa5b3b4494744d139272d6",
        ("restricted", 13): "0eba7e0c3ff37b988b395c5bf75d663193aee41dabd9eb698cbd1464f9060a98",
    },
}
WIDE_DIGESTS["Haswell"] = WIDE_DIGESTS["SkylakeX"]
WIDE_DIGESTS["Sandybridge"] = WIDE_DIGESTS["Nehalem"] = WIDE_DIGESTS["Katmai"]


@pytest.mark.parametrize("gate_set,width", sorted(WIDE_DIGESTS["SkylakeX"]))
def test_wide_simulation_bits(gate_set, width):
    digest = _simulation_digest(gate_set, width, WIDE_DEPTHS)
    assert digest == recorded_for_this_core(WIDE_DIGESTS)[gate_set, width]


# sha256 over repr(accuracy) and serialize(trained circuit) of
# MLFitness.evaluate_trained, three steps of training, for seeds 0-2 and
# depths 1-5 drawn in order from one generator per seed, each with its own
# dataset of 8 samples and `width` features; one table per OpenBLAS core,
# since training runs every one-qubit gate through np.matmul and every
# prediction through a BLAS dot product. Unlike the amplitude digests above, Nehalem's
# differ from Sandybridge's.
ML_TRAINING_DIGESTS = {
    "SkylakeX": {
        ("full", 1): "7d1561669cbbded64126e6d9ec9f0b48a1544e124826ccaf67b620a515ac3a6f",
        ("full", 2): "16141862dd9b7ef87a26d5d57452f4747d6c8f262589a6d1e19b4d0ba5870294",
        ("full", 3): "36d96b5aa525a50d211f1814f17513bdc8c77bd03790ce18e560124e72c51030",
        ("full", 4): "3ba5892e40decf3694c7aa8be7462cd056762791ad55b896918d08a7ff17a7ab",
        ("pair_heavy", 1): "b01b7af06ab5a5a0c69acf894d9f0ab15b1f2268e48778cd13c3ebf2560f2264",
        ("pair_heavy", 2): "1bbc1791c53876a877341227136dd310bc3e99eab595941c727feca9a276fede",
        ("pair_heavy", 3): "7378ef69af4f133406bc677d03c150bcea473246aa71aee0d770d31cbaaa05ee",
        ("pair_heavy", 4): "26461df388ff5ae631d2c89833bb360ac340602439e07df53f7845dd7194d5a4",
    },
    "Haswell": {
        ("full", 1): "be2b9aee946165d78312c072c720cbff4e4ab18221a1afaccb1ae4b360e2f043",
        ("full", 2): "51c9b51fd1615d990d12b0ee2a355ed91e812edb674323b50a9a25ba583e6e00",
        ("full", 3): "3157acb729835dbaafb2417b7b87d6617207817d03f73d5a5056572873cfca87",
        ("full", 4): "29e4df5aa4f7cbdc5102e627f3a5d182cf13e8e5dd02a3c9f4098022f54be0c4",
        ("pair_heavy", 1): "ff0b0146361f632c46351062b3026b0b8c1f4c8f8d0fb4a9b1b70c1b4524416a",
        ("pair_heavy", 2): "ede1bf27131341f878dd1757921cb10da57eae9340edf7c62315b9bd16cf3065",
        ("pair_heavy", 3): "7e77bf88a78190450bcf2471aacec510e520b6ad34d2e8b84f983c045526904e",
        ("pair_heavy", 4): "0a905df7cd66e8180630a7c35ac58ad164612ed6dc3107bcd8e0442c8ea8ea3d",
    },
    "Sandybridge": {
        ("full", 1): "be2b9aee946165d78312c072c720cbff4e4ab18221a1afaccb1ae4b360e2f043",
        ("full", 2): "21d4614a0bfeb09f6f6e969954ba1443b97c57071cf4cf68895a8144235bb6d9",
        ("full", 3): "d061251bc400dbc7bfd82bd595f5f6a0b1a76a280fea4506d3cad5a2181b56a4",
        ("full", 4): "24cc193f76600ce0bf69124d52da01a8ed972a98a60e273eb908936ad0738e68",
        ("pair_heavy", 1): "ff0b0146361f632c46351062b3026b0b8c1f4c8f8d0fb4a9b1b70c1b4524416a",
        ("pair_heavy", 2): "ede1bf27131341f878dd1757921cb10da57eae9340edf7c62315b9bd16cf3065",
        ("pair_heavy", 3): "7e77bf88a78190450bcf2471aacec510e520b6ad34d2e8b84f983c045526904e",
        ("pair_heavy", 4): "0a905df7cd66e8180630a7c35ac58ad164612ed6dc3107bcd8e0442c8ea8ea3d",
    },
    "Nehalem": {
        ("full", 1): "be2b9aee946165d78312c072c720cbff4e4ab18221a1afaccb1ae4b360e2f043",
        ("full", 2): "21d4614a0bfeb09f6f6e969954ba1443b97c57071cf4cf68895a8144235bb6d9",
        ("full", 3): "d061251bc400dbc7bfd82bd595f5f6a0b1a76a280fea4506d3cad5a2181b56a4",
        ("full", 4): "26c6aa8a3630bb577c61e03565c4f9874bf9c64cf0b0df36792b0fe406cc9777",
        ("pair_heavy", 1): "ff0b0146361f632c46351062b3026b0b8c1f4c8f8d0fb4a9b1b70c1b4524416a",
        ("pair_heavy", 2): "ede1bf27131341f878dd1757921cb10da57eae9340edf7c62315b9bd16cf3065",
        ("pair_heavy", 3): "7e77bf88a78190450bcf2471aacec510e520b6ad34d2e8b84f983c045526904e",
        ("pair_heavy", 4): "9a20091a453c895e51b56ec495fd9833b1c7f208ada1f03e6ae0c697694dfbf9",
    },
    "Katmai": {
        ("full", 1): "be2b9aee946165d78312c072c720cbff4e4ab18221a1afaccb1ae4b360e2f043",
        ("full", 2): "b2521e641292120fff8d3fc3161af58b829791a5e3d01a87dc5c1aaa15f78329",
        ("full", 3): "ecb92865ea5045a2d0481044db8be37dbc886fadddcb2fb4c8ac55abe063a414",
        ("full", 4): "8d6257f2ecb12d4e87932d0ba42f29735466fd23ea1c397d3491d8c22c697bda",
        ("pair_heavy", 1): "ff0b0146361f632c46351062b3026b0b8c1f4c8f8d0fb4a9b1b70c1b4524416a",
        ("pair_heavy", 2): "9ab12b9c201a39fb59e29bf796c5b593fe73ecb0496dc6917ce6198f8fbf426e",
        ("pair_heavy", 3): "b734d01bc9d7a60e52189dc6122e3e34cf84dee86c45a0ee38e57e550b056b08",
        ("pair_heavy", 4): "9a20091a453c895e51b56ec495fd9833b1c7f208ada1f03e6ae0c697694dfbf9",
    },
}


def _ml_training_digest(gate_set: str, width: int) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(700 + seed)
        for depth in range(1, 6):
            features = rng.uniform(0.0, 1.0, size=(8, width))
            labels = rng.integers(2, size=8)
            c = random_circuit(width, depth, GATE_SETS[gate_set], rng)
            fitness = MLFitness(Dataset(features, labels), train_steps=3, learning_rate=0.5)
            accuracy, trained = fitness.evaluate_trained(c)
            h.update(repr(accuracy).encode())
            h.update(serialize(trained).encode())
    return h.hexdigest()


@pytest.mark.parametrize("gate_set,width", sorted(ML_TRAINING_DIGESTS["SkylakeX"]))
def test_ml_training_bits(gate_set, width):
    digest = _ml_training_digest(gate_set, width)
    assert digest == recorded_for_this_core(ML_TRAINING_DIGESTS)[gate_set, width]


# sha256 over repr(EntanglementFitness.evaluate) for seeds 0-2 and depths
# 1-10 drawn in order from one generator per seed; one table per OpenBLAS
# core, since the score runs the simulation's np.matmul and eigvalsh.
# Nehalem and Sandybridge gave the same digests.
ENTANGLEMENT_DIGESTS = {
    "SkylakeX": {
        2: "99135d68ec3b3765bf86451ba7937e81dffe3e7fed9ffff46ce230e6ce69eb0d",
        3: "1a8cafdbf5c14436fd93b8ee3dbf5945da9685978da9532dc167a3ace6dc2624",
        4: "6bd4320f655006c65d7d34cb081d941e69e5db9f8894bc188dfe7ace3dc399c9",
        5: "5a4b13a6a2c62517425774e1eb0d1b2fc49b9e1cbf91d61f3abb98508c3d4293",
    },
    "Haswell": {
        2: "6f86569dbafd0d148121238fdabfdf93be3bfa6e82cf4b2e6790b6477c9b8516",
        3: "43046393f8fd21d9abb0cadb3dd5b509ce00ce1cebb8b6df00ace0dd1579570e",
        4: "fabbb44dffc788ed49f2e316b666489049b3f9103f8031c7cfbf97f7f8116cbc",
        5: "614c529064a8913c4f579987081dd990870c29279d8a360321cc01b1460930f2",
    },
    "Sandybridge": {
        2: "0880f0ad088ac68e79663bf3b2852e0b05ffea01680b0b0a0e6f8985c698a64e",
        3: "b6f7f4bd8b28a49e2e0dcc5a41f749bffec20471e0b822082fbf0b5b567b7697",
        4: "f796e19bdb7d5c7f773b66743e65da740ce34a56f71c6dbc6b424f102ef282f2",
        5: "b5c01615eec2caa5a89ad564955adafd8657c04d905f234adb566efc28a65c41",
    },
    "Katmai": {
        2: "855b6ad84e0065a984b82d64a738b6e9ae98baf3436e04d891c19be67461783c",
        3: "07db43cc525ceb9a60a44aea3627d7457108373f5fcbc596a7be3d148c551d2e",
        4: "b6db25f0a4247c16206131bac4ad59d103b48874881d9f68c0771370d6bc9bf0",
        5: "0d6a0a7d1c8fb1dcfa72f73f865a7eaae863e3efbdecff06463e65bc626f629d",
    },
}
ENTANGLEMENT_DIGESTS["Nehalem"] = ENTANGLEMENT_DIGESTS["Sandybridge"]


@pytest.mark.parametrize("width", sorted(ENTANGLEMENT_DIGESTS["SkylakeX"]))
def test_entanglement_fitness_bits(width):
    h = hashlib.sha256()
    fitness = EntanglementFitness()
    for seed in SEEDS:
        rng = np.random.default_rng(800 + seed)
        for depth in range(1, 11):
            c = random_circuit(width, depth, FULL_GATE_SET, rng)
            h.update(repr(fitness.evaluate(c)).encode())
    assert h.hexdigest() == recorded_for_this_core(ENTANGLEMENT_DIGESTS)[width]


def _draw_digest(gate_set: str, width: int, make_rng) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = make_rng(seed)
        for depth in DEPTHS:
            c = random_circuit(width, depth, GATE_SETS[gate_set], rng)
            h.update(serialize(c).encode())
        h.update(rng.bytes(8))
    return h.hexdigest()


# sha256 over serialize(circuit) alone, drawn as for DRAW_DIGESTS, and the
# generator's next 8 bytes. Drawing uses no BLAS and only elementwise IEEE
# arithmetic and a stable sort, so these hold on every CPU, under every
# OpenBLAS kernel and with numpy's SIMD loops turned off.
DRAW_ONLY_DIGESTS = {
    ("full", 1): "666a773d9ee073d929dea3eeb6f929405cab5885333158b44269d377e4e7d7c9",
    ("full", 2): "86c823d01fbdeaa4e123a758b7d3d63fd0667bd38b9f330fc366819f69b81646",
    ("full", 3): "159792238cc5f5dcf3f6dd41c292ceb9401eb6f0789a9169155924d7639e6da2",
    ("full", 4): "c8963e80f4d116a370b3993e32b3457ea74ecd993912a251fab2049e17e6dea6",
    ("full", 5): "ff588c88bcab4e9e7bfd429471452b83ba9b7b2e37c4d591eee65f330c27d602",
    ("full", 6): "2dcd916e8745fe8d31d5b9f764277581f1e6e792c671336fdfe1c53ff3dce147",
    ("pair_heavy", 1): "1b0d4ebf2c4b888d5e66cf636cb3ab457b4b2d66be591892261c431a2b989862",
    ("pair_heavy", 2): "0f1338dc44f2ca7e888d1c77a8ededcff4deac14df2150f611a85b85280abd36",
    ("pair_heavy", 3): "cb8721386071c600be9868a87ca27c00a8f4d5194872308c1486c26ba08c093a",
    ("pair_heavy", 4): "e91bb36c9d56895d8dd71896b88abc424268d6fab96dc83fa91ef7a4ed4fc02c",
    ("pair_heavy", 5): "c28e8c3f92ac134028290620d044dd06dfb2c2425cb0fb29805028d56126e5b6",
    ("pair_heavy", 6): "dc1b3bc824ee9196fe866e691bfabd8f04ffb54ea7b41c7696669b7090f4b829",
    ("restricted", 1): "5e0ed59f82cf8f552ac91181360a4d6af176759313adff64f7940ad5e4226f3d",
    ("restricted", 2): "117544ec9c3525154240559204cb49450213a3d7af3c4c89af2df12fab91bc2f",
    ("restricted", 3): "b465a9c8e7d276f29a143cfd702876c6653f44cd0f1a33ea1920653342a5ff93",
    ("restricted", 4): "d77439fc80215769dda3d809013d930f48f03f9614ac631e662d0a7a4981be72",
    ("restricted", 5): "2507104a9311424b6bb55c5b048daf2c87c8dd6e083ed477444c868c14ddbd65",
    ("restricted", 6): "3bac9168d7d65c086ee20df23bb0f8716bf49e1941914b6475b9807b34edcb89",
}


@pytest.mark.parametrize("gate_set,width", sorted(DRAW_ONLY_DIGESTS))
def test_random_circuit_draws(gate_set, width):
    digest = _draw_digest(gate_set, width, np.random.default_rng)
    assert digest == DRAW_ONLY_DIGESTS[gate_set, width]


# the same over MT19937: the circuits depend only on the doubles that
# Generator.random returns, whatever the bit generator
MT19937_DRAW_DIGESTS = {
    ("full", 1): "38051d337206859184da7aeb906c8690a1da907ed9d3898bf1e3a4066a11af5d",
    ("full", 2): "70f1bb6a166ccb052a5584016ed3679687ece3e418ae8905ba3b7c4cdbaa91aa",
    ("full", 3): "031a5fadb405ce1a24dacecccad38e04efc2e09859c6dab4cfd38f8e396027e5",
    ("full", 4): "363f5c7c91d08f5e00f7d178585dc9b48645a83ca84ec9e704974a6ec3278b96",
    ("full", 5): "5260acb16c3e8a5870ab606f7cba6d0bafd4dcaaf3e4f972b45cbd6b30a35176",
    ("full", 6): "3c44fcd5ae1c9974f0d3e38ae16ce8cc648056eaf3f3a67711883214208fff2c",
    ("pair_heavy", 1): "b07600ce363cfa1f8156b177ff0370948f3072958d6da7bd61f94b3ebb9d821e",
    ("pair_heavy", 2): "8fb2af3ecf04897c32e00102e12b95b8b4390552195ebea925a88dddd9115493",
    ("pair_heavy", 3): "80c3d8967a8430e263c5eb7d778120eb82a1038afc9e80292fec97be795e2868",
    ("pair_heavy", 4): "d8f05b9d156f70b42731402eee8e3ac7cf46c219e5fac23abb9d524ecb100879",
    ("pair_heavy", 5): "55d3192eff32c3bb1f1ed75e0a29d3024406d714cd113342dbd4fd9ad30ef455",
    ("pair_heavy", 6): "407c1f19f6731c9ffbb4cbf3729b5482e29a60558f567f230f77317f6c887470",
    ("restricted", 1): "f872eadcf30f2dad3dbfbb4ca4cfda90197ffcb0f05eea12ebb606352c39b0ce",
    ("restricted", 2): "b558a77983dfd8d4d0e7fdcc19e3c4f377f3958243db8c5dd1dd413d76a6bd56",
    ("restricted", 3): "7dd9e6aad828a525af185b1d12799e95ddfe4689faf88f30dd44ad5091c9a14e",
    ("restricted", 4): "dc5f4c313fddd5302df057e31342f57992c7aa0657978dbff511eb7861d5d5fe",
    ("restricted", 5): "41501367ce9ff8b855a4a621f1e4e15c99df60cc84f90e786fedcc64f83006b7",
    ("restricted", 6): "ee0469e4bd73eb060388b03443eaebc978fcf07fcc54356faecb27cef0d478fd",
}


@pytest.mark.parametrize("gate_set,width", sorted(MT19937_DRAW_DIGESTS))
def test_random_circuit_draws_mt19937(gate_set, width):
    digest = _draw_digest(
        gate_set, width, lambda seed: np.random.Generator(np.random.MT19937(seed))
    )
    assert digest == MT19937_DRAW_DIGESTS[gate_set, width]


def _parents(seed: int, gate_set: frozenset) -> list:
    """Pairs of circuits, some of unequal width or depth."""
    rng = np.random.default_rng(seed)
    shapes = [(3, 8, 3, 8), (4, 5, 4, 9), (2, 6, 5, 3), (1, 4, 1, 7), (5, 1, 5, 1)]
    return [
        (random_circuit(n1, m1, gate_set, rng), random_circuit(n2, m2, gate_set, rng))
        for n1, m1, n2, m2 in shapes
    ]


def _operator_digest(apply, gate_set: frozenset) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(500 + seed)
        for a, b in _parents(seed, gate_set):
            for _ in range(4):
                for child in apply(a, b, rng):
                    h.update(serialize(child).encode())
        h.update(rng.bytes(8))
    return h.hexdigest()


CROSSOVERS = {
    "single_point": crossover_single_point,
    "multi_point": lambda a, b, rng: (
        crossover_multi_point(a, b, 2, rng)
        if max(a.depth, b.depth) >= 3
        else crossover_single_point(a, b, rng)
    ),
    "blockwise": crossover_blockwise,
}
CROSSOVER_DIGESTS = {
    ("blockwise", "full"): "f82adec411eea8cde5c51e5714877b75e4e7047e168cb23dedf04f483e05afca",
    ("blockwise", "restricted"): "7a028e67a0815c5569c46bf7b06a6adc5d39150973bba7b80d289e2020f70dfc",
    ("multi_point", "full"): "15651f2653f00dd9295bb30f9447f44b58e6eca594f90c4bba6abe99805d6321",
    ("multi_point", "restricted"): "2203564d57c75e43212bc218c07f9768b6e2044659996fcd4bafbfe605509c3b",
    ("single_point", "full"): "fa21602392c7d5812b718d25832da2c919e2de2f2128dae44e120a550fdafd8a",
    ("single_point", "restricted"): "b2a161f7c7b1c90f5e9e3c4408dec123dc6469c3d26da0229e86e077c4fe333d",
}


@pytest.mark.parametrize("method,gate_set", sorted(CROSSOVER_DIGESTS))
def test_crossover_outputs(method, gate_set):
    digest = _operator_digest(CROSSOVERS[method], GATE_SETS[gate_set])
    assert digest == CROSSOVER_DIGESTS[method, gate_set]


class GateCount(FitnessFunction):
    """Scores a circuit by its count of non-identity cells: no simulation,
    so no OpenBLAS kernel touches the score."""

    name = "gate_count"

    def evaluate(self, circuit):
        return sum(g.kind is not GateKind.ID for row in circuit.grid for g in row)


# sha256 over each run's trace and best circuit, for `evolve` with
# multi-point crossover at depths 1-4 and crossover_points 1, 2, 3 and 9,
# in order; mutation moves the width in [1, 4] and the depth in [1, 8], so
# the padded pairs leave room for fewer cuts than asked, for one or none
MULTI_POINT_EVOLVE_DIGEST = "790dbd764095b5af6d3837ebe95c9d937570ebe4d4f8618788bba7708cd6af60"


def test_multi_point_crossover_in_evolve():
    h = hashlib.sha256()
    for depth in range(1, 5):
        for points in (1, 2, 3, 9):
            cfg = RunConfig(
                population_size=6,
                generations=4,
                n_qubits=2,
                depth=depth,
                min_qubits=1,
                max_qubits=4,
                max_depth=8,
                crossover_prob=1.0,
                mutation_prob=0.5,
                crossover_method="multi_point",
                crossover_points=points,
            )
            best, trace = evolve(cfg, GateCount(), np.random.default_rng(depth * 10 + points))
            h.update(serialize(best.circuit).encode())
            for rec in trace:
                h.update(f"{rec.generation},{rec.best_fitness!r},{rec.mean_fitness!r};".encode())
    assert h.hexdigest() == MULTI_POINT_EVOLVE_DIGEST


MUTATION_DIGESTS = {
    ("gate_count", "full"): "a1917323ae748c3ee15d1476f98966e90737a3f04679f8c8c0ffa722b25644ca",
    ("gate_count", "restricted"): "53fe3d2ac5463882e95ca27e2a743b2db4022c686dd3d3ae92ea036a4b35fffb",
    ("parameter", "full"): "3ff7d363e827bc687ba01c2e66dd0b263b269fe58e5df56b212ef8af6b2e274d",
    ("parameter", "restricted"): "b477c45f5253dc266825c10ad5276e1daf0762bdf43cae6ccb7fa08a2fcb9279",
    ("qubit_count", "full"): "ccee85801e92108140aa44df786243e1ccaeda6e9ca778b28d5e915139da3692",
    ("qubit_count", "restricted"): "e72c637d089a6ff7b724071e26512e22d4d7880c521e23ba7b8dd3c99942cfad",
    ("single_gate_flip", "full"): "8c573019042207a1da553a6d068e703d66637b74eb8f263a51b26115a468bff2",
    ("single_gate_flip", "restricted"): "3a38a733adae731970ba6d3a9c9b9d6b97e98e23e393e4eafede4cc4c8054e2e",
    ("swap_columns", "full"): "1c509cdd2646ae028b0a06a7bd27f50f5bba5be7d1a4eec29b6faf3358c59010",
    ("swap_columns", "restricted"): "55d17dbfbdacf16342ee6cf9aa24ccfecd2043d1be3728915830ab9976a2cb08",
    ("swap_control", "full"): "a8dee006c8a435aca0fea75458473952373a7cc4c0bc131c1a55b46f7adc2be8",
    ("swap_control", "restricted"): "16c3a64ad5fad6f750c997a2f3920826bf5dcce3324ca4e3d589002801523157",
}


@pytest.mark.parametrize("method,gate_set", sorted(MUTATION_DIGESTS))
def test_mutation_outputs(method, gate_set):
    (fn,) = [f for f in MUTATION_METHODS if f.__name__ == f"mutate_{method}"]
    ctx = MutationContext(
        gate_set=GATE_SETS[gate_set], min_qubits=1, max_qubits=6, max_depth=10
    )
    digest = _operator_digest(
        lambda a, b, rng: (fn(a, rng, ctx), fn(b, rng, ctx)), GATE_SETS[gate_set]
    )
    assert digest == MUTATION_DIGESTS[method, gate_set]


# fitness of each population a selection draws from: one member, a tie,
# and seven with ties and negative values
SELECTION_POPULATIONS = ((0.5,), (1.0, 1.0), (0.3, -0.2, 0.3, 0.9, 0.9, -1.5, 0.0))
SELECTIONS = {
    "random": select_random,
    "tournament_1": lambda members, count, rng: select_tournament(members, count, 1, rng),
    "tournament_2": lambda members, count, rng: select_tournament(members, count, 2, rng),
    "tournament_3": lambda members, count, rng: select_tournament(members, count, 3, rng),
    "roulette": select_roulette,
}
# sha256 over the indices each selection picks, for seeds 0-2, every
# population above and counts 1, 2 and 5 drawn in order from one generator
# per seed, and the generator's next 8 bytes. Random selection is a
# tournament of one entrant, and draws the same numbers.
SELECTION_DIGESTS = {
    "random": "663a0ef1cf435162644692b9c5c3f45c72af446919500c52952ea397aef631d5",
    "tournament_1": "663a0ef1cf435162644692b9c5c3f45c72af446919500c52952ea397aef631d5",
    "tournament_2": "a4d1dbcc825aec0a2dbb9dd42da8cf9ca3952d326ebce88d6eb11b24feb06f54",
    "tournament_3": "98cf16d16c36c23565299581c4c8eab61f88c1af58e28e6416855bbe02b839fe",
    "roulette": "fc7f9d294e300277b2d3f064df8b29ec9df825fed2b54c26d1d183e3747f1a8f",
}


@pytest.mark.parametrize("method", sorted(SELECTION_DIGESTS))
def test_selection_draws(method):
    one_cell = Circuit(1, ((IDENTITY,),))
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for fitnesses in SELECTION_POPULATIONS:
            members = [Individual(one_cell, f) for f in fitnesses]
            index = {id(m): i for i, m in enumerate(members)}
            for count in (1, 2, 5):
                picked = SELECTIONS[method](members, count, rng)
                h.update(bytes(index[id(m)] for m in picked))
        h.update(rng.bytes(8))
    assert h.hexdigest() == SELECTION_DIGESTS[method]
