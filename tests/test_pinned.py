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

import hashlib

import numpy as np
import pytest

from qcevolve.circuit import random_circuit, serialize
from qcevolve.gates import FULL_GATE_SET, RESTRICTED_GATE_SET, GateKind
from qcevolve.operators import (
    MUTATION_METHODS,
    MutationContext,
    crossover_blockwise,
    crossover_multi_point,
    crossover_single_point,
)
from qcevolve.simulator import run_gates, simulate

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
# drawn in order from one generator per seed
DRAW_DIGESTS = {
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
}


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


@pytest.mark.parametrize("gate_set,width", sorted(DRAW_DIGESTS))
def test_random_circuit_and_simulation_bits(gate_set, width):
    assert _simulation_digest(gate_set, width, DEPTHS) == DRAW_DIGESTS[gate_set, width]


# the same at widths where one-qubit gates on qubits >= 2 reach the
# one-call layout of `simulator._run` (single states and the (3, 2**n)
# stacks at 9 qubits, single states at 13), over fewer depths; recorded
# with one np.matmul call per block alone
WIDE_DEPTHS = (1, 3, 7)
WIDE_DIGESTS = {
    ("full", 9): "f6f7cc533b3ca32991d06f5da66459d1340789f076d8324fe0325025aba7b741",
    ("full", 13): "0eec41ad78bf355630622d8617d6b387cc61fb9a65edf6945dd913b288871d58",
    ("restricted", 13): "23c1d94174f1688efdf95b8a423cf0d38366eba1d8965e492cc493b4c2ec5ce3",
}


@pytest.mark.parametrize("gate_set,width", sorted(WIDE_DIGESTS))
def test_wide_simulation_bits(gate_set, width):
    digest = _simulation_digest(gate_set, width, WIDE_DEPTHS)
    assert digest == WIDE_DIGESTS[gate_set, width]


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
