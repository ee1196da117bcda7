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
        ("full", 1): "19e5c391a63de49906b579da9db187b4476d3c194c09ff5dbf14b033f5fb008a",
        ("full", 2): "e0a6b704c03b6ee86fa6034d1cd18f86044612baaa89bbeb0f735f842e2b7491",
        ("full", 3): "b3475f2a34684d7f01b3cd7d16585a64bfd9e0aee388f8c425a38e4343ada0de",
        ("full", 4): "bc15d60be4e9ae0b6eb74a02c8b2cad21c90e5442c3fb0f73f3bd70378551846",
        ("full", 5): "375751c86b5f5a4e1bec62c702f2ad7b91ec8c91c01b29fe6a035378dc4ce0d8",
        ("full", 6): "783d725136207c8e29f66c83dfc7a036a854e229af94e639abb175bae48167e7",
        ("restricted", 1): "2f2987293c939d4e597af4e323d00085a85f29a727e544340b90ce73043b3234",
        ("restricted", 2): "8f27aabc8dcdb0e313cee5562fc069f2033565f4cb611276d4d63f83ec6d97f5",
        ("restricted", 3): "9a3f4abf54f195147c5a5db513f1ea67483ad94ddcbd3042500118dcf3339a46",
        ("restricted", 4): "01ea91831c2830c1cc1bc049458ca100da5da0553b39b8673d715f59ad2bf073",
        ("restricted", 5): "d637e1711fa9e23655aac71d5a160c0abae99407ae4988d3c6491a2961c945c0",
        ("restricted", 6): "f65dd4b0b5a88014cbee692aed8977705618d3e245e5ad94f39bc2c9b9b2cafa",
        ("pair_heavy", 1): "cdad63c7e197e045472f874689b50cd1896226adf8886b9dbebd9a13aa57c507",
        ("pair_heavy", 2): "3a664f931a6eccd5d11ec88a8f18e9a361d8f5a2b89ea8d9d00f4bf3adbdcc59",
        ("pair_heavy", 3): "a657258d0f08f5753a2d9e8df288da2b23801da4fe3e075b006030d1044608a7",
        ("pair_heavy", 4): "faa8f405e95e3d230b3daa9671b3fa3cffae578b78ff33f401977505e80ea69b",
        ("pair_heavy", 5): "15a57a67f63bd5aea31d4cb187564cd05b3efb0e8e46ad2305bf536ad7575894",
        ("pair_heavy", 6): "fe5ecb985fb254c3adca8ee3d6a1f729607442a3cd0e531050358126f5b2172d",
    },
    "Haswell": {
        ("full", 1): "c76fe464b2346ae0bf22729cb3befacc9bacda745f7a8749433e2b48b7d4ffb3",
        ("full", 2): "53873530154cc9c6528612dfb7f310867e5599e8eb22c2a3486cd3bf84ee4a2a",
        ("full", 3): "413d72e3a869fcd90ed7bfeabb67ec4888696c7f4289121af96e0441661b07a3",
        ("full", 4): "0346aed01628e8d90e05aec0101147b9160c220ba7d735f4c25769a9ed380710",
        ("full", 5): "9a3ebc0d84b5ad4cc1c08f0ccd3ba4b04b16ff70c858718f2430fc103f29827d",
        ("full", 6): "1ac9b7d3447ae848159e855e704ac751e499fc1839fb1c2077f33ba23e4c5796",
        ("restricted", 1): "e11ae4f88e76e0cdb4a8539bf4db589675520e0a8459fde025273bf177ae8b3a",
        ("restricted", 2): "1084db1f862826a897c65c6a7647db624142642eba5973e085179608e8cc2cb1",
        ("restricted", 3): "390833badfca1792b181d24afa2c3d6d6221b572a912be769485daaeb1ff783d",
        ("restricted", 4): "a128927ace38ec21182dbdc1af950a69b45bdcf40e9b368b07dca33bff75467b",
        ("restricted", 5): "2cab567e7da034812a1f6587ac970b86893c88a16dd3fcfa7a6a0660a6149558",
        ("restricted", 6): "32761fe3dabed5aa13e6e36c1ed8fc4f265e9d315ad284c619bef7da9d81d3f1",
        ("pair_heavy", 1): "e1a43e4a1c8a902512872204a2c33694772035670101bf757a3550b07fea30b0",
        ("pair_heavy", 2): "4a8e05d580ca62b3960681478e1817e5bb63736b5c6ca6d57a88ab0610c8c495",
        ("pair_heavy", 3): "342aad00185e1f228ecec419ac2818df2cf7d60773f9ea361b85f6c54a108d50",
        ("pair_heavy", 4): "3c81844c0d2e83e38dc4276aaad705d5cf3fd4628c9d17efef36f229195734e8",
        ("pair_heavy", 5): "ec8df608aa627da9902539d859eae1a524ae6c25ab0c9f52ef770179f23f3d46",
        ("pair_heavy", 6): "2f8173736d26e635fe88baee0aa973015376273c9044335a9526531d86a2cd4d",
    },
    "Sandybridge": {
        ("full", 1): "c76fe464b2346ae0bf22729cb3befacc9bacda745f7a8749433e2b48b7d4ffb3",
        ("full", 2): "180932a6f418e4caea773d91071832660083aa84bc82698e41749b4879d00e58",
        ("full", 3): "e68422b234752c9d8fdb504f308454383175a0e96a196928f4d073034442ae66",
        ("full", 4): "1be1236b64f90d91b0b372d39ae2156eec903db1d49958cd179bca83a83e8780",
        ("full", 5): "16078ef63fe8636b1aef4647baabed05a22427504ebf0183e4895427664db987",
        ("full", 6): "869c6dd6a610f729aa4ad41e3cc030baaca5ac40e885351ed356b7f31bb09c9c",
        ("restricted", 1): "e11ae4f88e76e0cdb4a8539bf4db589675520e0a8459fde025273bf177ae8b3a",
        ("restricted", 2): "1084db1f862826a897c65c6a7647db624142642eba5973e085179608e8cc2cb1",
        ("restricted", 3): "390833badfca1792b181d24afa2c3d6d6221b572a912be769485daaeb1ff783d",
        ("restricted", 4): "a128927ace38ec21182dbdc1af950a69b45bdcf40e9b368b07dca33bff75467b",
        ("restricted", 5): "2cab567e7da034812a1f6587ac970b86893c88a16dd3fcfa7a6a0660a6149558",
        ("restricted", 6): "32761fe3dabed5aa13e6e36c1ed8fc4f265e9d315ad284c619bef7da9d81d3f1",
        ("pair_heavy", 1): "e1a43e4a1c8a902512872204a2c33694772035670101bf757a3550b07fea30b0",
        ("pair_heavy", 2): "4a8e05d580ca62b3960681478e1817e5bb63736b5c6ca6d57a88ab0610c8c495",
        ("pair_heavy", 3): "342aad00185e1f228ecec419ac2818df2cf7d60773f9ea361b85f6c54a108d50",
        ("pair_heavy", 4): "3c81844c0d2e83e38dc4276aaad705d5cf3fd4628c9d17efef36f229195734e8",
        ("pair_heavy", 5): "ec8df608aa627da9902539d859eae1a524ae6c25ab0c9f52ef770179f23f3d46",
        ("pair_heavy", 6): "2f8173736d26e635fe88baee0aa973015376273c9044335a9526531d86a2cd4d",
    },
    "Katmai": {
        ("full", 1): "b42adb5522a88c722ba9e62ed5fc931286f82e3fdb8d59f2efdcb681d1cb3e86",
        ("full", 2): "94c8c578e0296a3705cae41eb7153d76f003f2c55f14f5c56b9e47b41bd193aa",
        ("full", 3): "d756142b52a878c6ddcce148097bd624a321812bb26511da4afa50c39257a0b5",
        ("full", 4): "ba1f81683f47ab8579b15e053fef0d9c833586f3218853227abe976e7de81207",
        ("full", 5): "9da1be2f8ddddb2f95cee26abbaef5dc526eed219e28c38ad1518b603987d3cb",
        ("full", 6): "daa7b16e7a19a4dfe677a6045b3451e9b33f5d3dc2f77f5bac2a07c7156b7685",
        ("restricted", 1): "ce8e0a0f64e21b3ca1dbd3b97f59bc871617df053526d7122c158f74315a5223",
        ("restricted", 2): "2b5931cc78cb6600ed4f1e30e029b4e07205755558500e8e33c4bd6be2a42cc6",
        ("restricted", 3): "be7dccc6dc392a9f7fb5887680c1ef4c0e6c90bc437ec28d86ac5220bfa7cca8",
        ("restricted", 4): "c745fc8acd22ed51b9497b190f0d5ffa0890ef0726dd3b6ada8e50f6f1ecead9",
        ("restricted", 5): "66cca4bc8aa8fc96d30f0fa7578314b432b2a95cb8e84eaf32d308bd594d846b",
        ("restricted", 6): "9657e216078dc9ba9188af6984efa6c28b12a33a439e772fb8713bd2eca1bba1",
        ("pair_heavy", 1): "e1a43e4a1c8a902512872204a2c33694772035670101bf757a3550b07fea30b0",
        ("pair_heavy", 2): "4a8e05d580ca62b3960681478e1817e5bb63736b5c6ca6d57a88ab0610c8c495",
        ("pair_heavy", 3): "342aad00185e1f228ecec419ac2818df2cf7d60773f9ea361b85f6c54a108d50",
        ("pair_heavy", 4): "3c81844c0d2e83e38dc4276aaad705d5cf3fd4628c9d17efef36f229195734e8",
        ("pair_heavy", 5): "ec8df608aa627da9902539d859eae1a524ae6c25ab0c9f52ef770179f23f3d46",
        ("pair_heavy", 6): "2f8173736d26e635fe88baee0aa973015376273c9044335a9526531d86a2cd4d",
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


# the same at widths where one-qubit gates on qubits >= 2 reach the
# one-call layout of `simulator._run` (single states and the (3, 2**n)
# stacks at 9 qubits, single states at 13), over fewer depths; the SkylakeX
# digests were recorded with one np.matmul call per block alone
WIDE_DEPTHS = (1, 3, 7)
WIDE_DIGESTS = {
    "SkylakeX": {
        ("full", 9): "f6f7cc533b3ca32991d06f5da66459d1340789f076d8324fe0325025aba7b741",
        ("full", 13): "0eec41ad78bf355630622d8617d6b387cc61fb9a65edf6945dd913b288871d58",
        ("restricted", 13): "23c1d94174f1688efdf95b8a423cf0d38366eba1d8965e492cc493b4c2ec5ce3",
    },
    "Haswell": {
        ("full", 9): "53cd4967dce2f83c0cf7fe9823964692a36677115c3036359e0a675c17c4fa06",
        ("full", 13): "40bb568503a15ecd072de813aeb7c8092df30f4bded5978d47ed6b75af670686",
        ("restricted", 13): "908369f56c116b704f4436c7ad75611b46767f0b04ff445cd53e764d3ad4496a",
    },
    "Sandybridge": {
        ("full", 9): "cae7879c39352b154f3f4a318011cad13e3d7c5c32869b48cef2db8e69dbaeb7",
        ("full", 13): "1cca33fb2e1d65fa66f6a1fba37d222edfe0968a74ce7cbc25857aeb0ee875b7",
        ("restricted", 13): "908369f56c116b704f4436c7ad75611b46767f0b04ff445cd53e764d3ad4496a",
    },
    "Katmai": {
        ("full", 9): "942f223867a2571a39f9d6bb029cc6a31e8996bb1e8330dd0384037cc9700c74",
        ("full", 13): "3b5ac6c78043ca058a7b4e0ad0f1a9540e1290b453b5a689601a55e3e310aeaf",
        ("restricted", 13): "8142f0b78b85ac4ce26667f890aff22dded8df082bfc2ff42a6ecb9df5039538",
    },
}
WIDE_DIGESTS["Nehalem"] = WIDE_DIGESTS["Sandybridge"]


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
        ("full", 1): "59b89418c42a0ae6071e0d00192d7b113dda46eed146e0e50230a139a10133dc",
        ("full", 2): "728ea9b2c224d43622b0b537d8bccc46728e34e60d4f95a3e3c541540a11d0c6",
        ("full", 3): "ae9abd8bbc238b3fc62ecddf59c09d7c1aca75760c633439c0ecd9522e41f361",
        ("full", 4): "b54d9eaacc7aeb626fce6fece9873e125dd2f41008aecb5ef5f4d36f7acfbc54",
        ("pair_heavy", 1): "2e23f426a08458d26f31a3b8b5dfe4dd26697b90ae0689c4ee4136a29380420b",
        ("pair_heavy", 2): "140fa3c3a3e20b71b8a4d02cad2ff5473a26c971783758b074787c41ad15c730",
        ("pair_heavy", 3): "8afb70e58986fbf91c83a0f0da57dea710b2bf94f9aa5e9c8ba97855ccc5f454",
        ("pair_heavy", 4): "a85089f0d79ca68e7decd377c725a3cf7df0b23b3cf6671234f58231b4d2dcb5",
    },
    "Haswell": {
        ("full", 1): "e99310c5559246f5309cebc20f115348f8e6252687146c23565d1eb98fde34dd",
        ("full", 2): "4103ed77028cf7d431307500a27c98f573fc81b070b9ff580d2112e95d2d1a52",
        ("full", 3): "ab2f3220a7dc95d50f529b1ec4a51ad51caec2e8725dfb2571be870157bb54f7",
        ("full", 4): "041486d4879ee901de8c87aa9dafa1039d0ecd749392b39f5d0b80665d603f0b",
        ("pair_heavy", 1): "2ecd1cdf921355cce65b6f3d3347e47121d02db7bb96fec6319204a71ba227e4",
        ("pair_heavy", 2): "0710b3bcc5345a9d69da0d5f9326c6d6ce14bc6ed44c0cad86c08fe0493fd92a",
        ("pair_heavy", 3): "b13ecb8f239bbc6369cb5e1d95eb117b858d1cd7c3ba68e376673045a3a37fcf",
        ("pair_heavy", 4): "322eb558054492f660ea9eae6465759c25b26af2fdf981d5a47f9b72deadcb70",
    },
    "Sandybridge": {
        ("full", 1): "e99310c5559246f5309cebc20f115348f8e6252687146c23565d1eb98fde34dd",
        ("full", 2): "4e82487d4c48899ad725b0e5469fdbc3b5d9418fe0cadb77d7be9666183ec0a5",
        ("full", 3): "e00fb0eb621d7f6fb7497217bf361b490fc264a6f15d3d9d7b9b818563b1bff1",
        ("full", 4): "9a80c0626f06e6cc9a83a7139b8b5646158019b933afe9e9f5b68b1838b536a5",
        ("pair_heavy", 1): "2ecd1cdf921355cce65b6f3d3347e47121d02db7bb96fec6319204a71ba227e4",
        ("pair_heavy", 2): "0710b3bcc5345a9d69da0d5f9326c6d6ce14bc6ed44c0cad86c08fe0493fd92a",
        ("pair_heavy", 3): "b13ecb8f239bbc6369cb5e1d95eb117b858d1cd7c3ba68e376673045a3a37fcf",
        ("pair_heavy", 4): "322eb558054492f660ea9eae6465759c25b26af2fdf981d5a47f9b72deadcb70",
    },
    "Nehalem": {
        ("full", 1): "e99310c5559246f5309cebc20f115348f8e6252687146c23565d1eb98fde34dd",
        ("full", 2): "4e82487d4c48899ad725b0e5469fdbc3b5d9418fe0cadb77d7be9666183ec0a5",
        ("full", 3): "e00fb0eb621d7f6fb7497217bf361b490fc264a6f15d3d9d7b9b818563b1bff1",
        ("full", 4): "cb76d18d3c689ca17f23385de7bd46b28c9f94fe44e87338e21742b84b1cbedd",
        ("pair_heavy", 1): "2ecd1cdf921355cce65b6f3d3347e47121d02db7bb96fec6319204a71ba227e4",
        ("pair_heavy", 2): "0710b3bcc5345a9d69da0d5f9326c6d6ce14bc6ed44c0cad86c08fe0493fd92a",
        ("pair_heavy", 3): "b13ecb8f239bbc6369cb5e1d95eb117b858d1cd7c3ba68e376673045a3a37fcf",
        ("pair_heavy", 4): "12ee7bf05f2ea4adcb63dfe486a4633335b6cb80522df91d2f5a2704e6aefc9a",
    },
    "Katmai": {
        ("full", 1): "740a5876099bcc11631634528fac6bbaa877024aae56906c31c34e05bfc1c1d0",
        ("full", 2): "2c3058451ad54fb98dc13369046fabcc467624ef13faa7617833dd496cc476b7",
        ("full", 3): "484349c322addc82d7f287e937286768427d04df98f5d25ae13fee2c20700048",
        ("full", 4): "be3248afbf6cd788cc01b728a206956d85f96899a5d804572a8b975ba0432182",
        ("pair_heavy", 1): "2ecd1cdf921355cce65b6f3d3347e47121d02db7bb96fec6319204a71ba227e4",
        ("pair_heavy", 2): "a40e8b4fc3ca2a517bd24f6fe5f259b0fa6f220824115dc91a54e99a57a06ec0",
        ("pair_heavy", 3): "b3307a7c0c60a3c51905f82c5919273edc9d47b6f4760164e8e8b4bbaf9dd882",
        ("pair_heavy", 4): "12ee7bf05f2ea4adcb63dfe486a4633335b6cb80522df91d2f5a2704e6aefc9a",
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
        2: "3d29ed3d3c26eb729af2eb4a71f78fbdae3021369408d5bd2d764e9f2cdace37",
        3: "4dc9e8f51cdf354b1d3ac3c0bf2b9575d9db5dc98f9e5c4df23743dc5bf56926",
        4: "976a05c84f9c7aef322b3cc71e33d1ff51f382bc8649e6152bef6a05fb2bccb0",
        5: "99da9c32cf893393df3355e0088ad2eb3f4373269e22ca35d3663e85cd5ea942",
    },
    "Haswell": {
        2: "94460d27cb9244748f3aaa28f184f90abd37243a99b6b56c6ddcb6a8c0005462",
        3: "3e4d7a52c9a3dd4f4f69fdf6a4c20afa068986a8dd91162b768a237ca30297ee",
        4: "a0bf2364f7792c19c12bfdab10d282d4618fd876fd2d23ae6e2c7164e9c9d5da",
        5: "ef877288e4df494cfcb7accf7779452eb649e301e17ba957ed53d64f221c887d",
    },
    "Sandybridge": {
        2: "f43a25ee446614ba814d935236adc96c016e671463632bede23140ac98dcb639",
        3: "c97228e75346de7c3db0934c99fecf67e6a40905330ae065ac1aa756c7c1e1d6",
        4: "3536f535b546711b118390a6433bee65f0b9f9535f50063238879e510f38d4b6",
        5: "f740fd4ef6bad61a1623ac4f372ca96f2c56d07675b9c3058cfc5517e1c91c0b",
    },
    "Katmai": {
        2: "117b6f8d900bbc139c8fe4fa3ddb54789c5fdffa12603e12c95d569b04e8b2df",
        3: "37085a46f19b5c41d81a62d94478fe4728486df8f852b0fadcf7c4fa843c4b97",
        4: "4377ee389bdd30463f4a4203b81de56371be6f132a4f255f2c1db85703f05531",
        5: "daa212b39ce9ef948dee9a4cf174afc386cc00c99dccf3f020215511b7fda0e0",
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
# generator's next 8 bytes. Drawing uses no BLAS, so these hold on every
# CPU and under every OpenBLAS kernel.
DRAW_ONLY_DIGESTS = {
    ("full", 1): "c47c0be2b95ac352056fbe02a97d14cbdc310443a9f9989950b8749c8397528a",
    ("full", 2): "3b5c9657868af09dde403931eaf711fa860213879728eba9385159c9bb5074b2",
    ("full", 3): "5742142ee4fb8b7c4e6ef7f3992d25fa0dca2cdef54c939321d97ec05e665288",
    ("full", 4): "0eafbd90717abe15c55f44a72c5442ab7d24c9df08a08b8c9be49cafdf3e70d0",
    ("full", 5): "64db3e6abc1604dc7ee0bbd54b0e87472b707dd1578a236b16ab72f618b55526",
    ("full", 6): "12b133c6d855253b54046f6e00d69b9cae126da60b7fb9c8cf1cb33b022a9a90",
    ("pair_heavy", 1): "b846fbc81a9aa6a0647c9a9716af8d5c354ffe24f910ce9573d933576c495100",
    ("pair_heavy", 2): "feb49140a62b73cf203e376098972949f220c86d670f432f70a04920e00f5a3c",
    ("pair_heavy", 3): "edd28d8ebc6d1311547ba70d3c45dbc2ae4ad0bb241288aa9f5b41de1cba2b96",
    ("pair_heavy", 4): "d66753c0e5c49ea83ef6b63da547cec24478724ead524ccedbbc3d2bcdf39a82",
    ("pair_heavy", 5): "e6cef0d7ec5a02cc2ec18fd2de83ebcded6a01578849d76b5036ec293143fe34",
    ("pair_heavy", 6): "c6d190a6cbb6c4df657d1df4da6d0627e58133b8dc36c51d4fa0a3afe3349c4a",
    ("restricted", 1): "a66bf366708700c6f9cc3958f64b76d1dbd15366c356fc662fd3274aa6bfc411",
    ("restricted", 2): "3e6984362230c3ef4acb11a437e60d20795b3de1c635891dba5a893ecd3535a8",
    ("restricted", 3): "bae52cd06a97a45a9cb22485bcf6d2559b870988e72f37f781454a4eb21164a1",
    ("restricted", 4): "664f20ab7a69a854beef75c4639dcf52f25e783036cb5cffd4d20bc499d9d210",
    ("restricted", 5): "167bde28c86a760341884cd8a3d755ea4fb44f6d4676b9ce31cff8f0b0125cc1",
    ("restricted", 6): "a07bb678f507a41669161b7c02960d688c584caa5ae2f54f03b0cb29fe17a53c",
}


@pytest.mark.parametrize("gate_set,width", sorted(DRAW_ONLY_DIGESTS))
def test_random_circuit_draws(gate_set, width):
    digest = _draw_digest(gate_set, width, np.random.default_rng)
    assert digest == DRAW_ONLY_DIGESTS[gate_set, width]


# the same over MT19937, whose draws random_circuit takes through numpy's
# Generator methods
MT19937_DRAW_DIGESTS = {
    ("full", 1): "fdcdd96b1dd4a8e1d0177e2a4a0dcbf7fa0bae64f7b6862dc7ff15de52d04fba",
    ("full", 2): "a655f20301d2a944358b73925d1bb4cd8f67854ee52082d59a926a7865271219",
    ("full", 3): "74185fe382493312bb3121afa0243436a75bd15a435472ee7f707b3d631f02ca",
    ("full", 4): "fdb8c00c1f72d90abd208257d4c8756dba58a28be1e36ad4378823aece97f7ce",
    ("full", 5): "fbd9c3bbefb87dde40bb19d8d8dc672a8d5dfae711e15d1b9233a651438c9e55",
    ("full", 6): "6c5bb71efde3c70d7175eda3b1ca60e04b9b1a27ef090b07774b27635056e7ac",
    ("pair_heavy", 1): "7d352f60628a9f9ef676d9a5bb3313d5f61c8a3783c53f09f7c1b6b10d3f5e48",
    ("pair_heavy", 2): "cd31dc8037fab62c1c1a4d79f43fc5cc25b5db2178cd5713bd4bef9b5daef9c9",
    ("pair_heavy", 3): "d7edd5d733ccff550237789f39666b22e7c656cb5188314cf39a02c98cc45b5b",
    ("pair_heavy", 4): "1127253b996ffcaaa2473bbc8fe0fc241f3f6507da37b99165f71161cb210c57",
    ("pair_heavy", 5): "b29e731333bdef6fb003f39e8d264d152a38cda99bf0928028404c7723ccbf0b",
    ("pair_heavy", 6): "776cd5f1e094c45578d8cfe55aac6b8555b6fc664fd74ffc03a49357d6892d1e",
    ("restricted", 1): "5801c1bb2e9b321bca0f04c392d147d2fc0bdc56d34d62807cc46faa7e561989",
    ("restricted", 2): "033f039e5b026900e514d2a4116ea7d36b0a36b01eb4c3b11e914b5f922f15c2",
    ("restricted", 3): "97d7bd38a5b5f8498cbdfc962fc0f55e6aae75d87fa24a1cc60068a4beb7507b",
    ("restricted", 4): "b7b6dcb0e44c2463872bc62b9843c22533aaea7ea5816cc94ab797482a91b1d3",
    ("restricted", 5): "898073e0474883a256e2d41b3f88cacc2bb203cd06f08fe4e33b1aac862a7f8a",
    ("restricted", 6): "edea20252a5af283183609e5666755572dcbceac5533fb7ed22a8e14e83a21a8",
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
    ("single_point", "full"): "4c14b6ea22ed8a16753f907161ff3faa3c780a3093566c70f4126d4469b1c827",
    ("single_point", "restricted"): "2829aa145fc26a697957b4ae8b0f5a5426993957cc0a15732efd6fed00074e38",
    ("multi_point", "full"): "5aa10a0f7e66babd36a742a36070c505887e38cde8905856e359314c6d590d1f",
    ("multi_point", "restricted"): "7bcdcabe87b8f9cf6d747bd9f54c69b4fd87de3a3299ad6fd2e5be8a21bfe37c",
    ("blockwise", "full"): "97150d68bbad663bbb45ec3114098ff2d983e5004bb91642e83fa52029c68fdc",
    ("blockwise", "restricted"): "f519df1a3129ff154aae58f1870b298adf9e5ceb3f9f6c03afc728de5e40a746",
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
MULTI_POINT_EVOLVE_DIGEST = "76fa2f8769b175b023bce2dc317f3a96f3aa509c472f2241d76293eae98a6d4a"


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
    ("single_gate_flip", "full"): "dd6c65c20ec4dc705d502c50584dcdec841bc8d9c063ac4668b7f1126fb65aa3",
    ("single_gate_flip", "restricted"): "1ec750091c57221e4523901b79b9be87ddc412fcd02d43fc434261afa88f570e",
    ("swap_control", "full"): "1421d5e907311906826b5ee56d4d55173d142a3247580c0d44ee2b92f3f4d54a",
    ("swap_control", "restricted"): "1dde9b945a1b915f80e48c9bee7a4c0e892ee89feecde7881c0717e7c5511a0b",
    ("qubit_count", "full"): "e312b75d4693cd7792ac5a85f53f1e6adf7c42154d15106c0340073cced8d0fc",
    ("qubit_count", "restricted"): "4d4ea36c9b73929eaa660a30a5ce47272cd88f0db86a0d32025ac90d5f824156",
    ("gate_count", "full"): "ca6c449f15626986ebbc0b54001b051aa948fa0d92308e3c74d9a0e3826947eb",
    ("gate_count", "restricted"): "d85619e8a854a22bd34878dd29a225428e1b71a693be29935d5a958b12c3495d",
    ("swap_columns", "full"): "61a1e80114c5a34274d16f2bb5fbb9caea9780c56c04bb43512a669173668ea5",
    ("swap_columns", "restricted"): "7f3df938b5d8bfcde4550618f20008f889375eb3b9b641f2862e89be858f4abb",
    ("parameter", "full"): "a988751c9b76ad12f53b0e9d4737baf7221395f76f374387db5cc7c6ae483b42",
    ("parameter", "restricted"): "dadc822d7ee1a646976f29e721d6914261504ffec1db195b063d66bdb1f6255f",
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
