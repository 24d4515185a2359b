"""Byte-identity guard: SHA-256 of every registry quantity's data rows.

Each digest covers the CSV header and data rows of one 18-cell sweep
(the '#' metadata lines are left out, so a version bump does not move
them).  A refactor that claims to keep every output byte-identical must
leave all of them unchanged; a change that moves a value on purpose
re-freezes the affected digests with a CHANGES.md entry.
"""

import hashlib

import numpy as np
import pytest

from cohex.spectral import GeneralizedOhmicDensity, OhmicDensity, TabulatedDensity
from cohex.spin_detuned import ModelParams
from cohex.sweep import QUANTITIES, AxisSpec, SweepSpec, run_sweep
from cohex.table import emit_csv

PARAMS = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
AXES = (
    AxisSpec("beta_omega1", 0.5, 8.0, 3, "log"),
    AxisSpec("omega2_over_omega1", 2.0, 4.0, 2),
    AxisSpec("t_over_omega1", 0.0, 0.4, 3),
)
_KNOTS = [(x, x * np.exp(-x / 10.0)) for x in np.linspace(0.0, 60.0, 40)]
# Each bath family as a maker: a tabulated bath keeps its Omega once
# integrated, so a fresh bath per sweep states every integral it needs.
BATH_MAKERS = {
    "ohmic": lambda: OhmicDensity(1.0, 10.0),
    "generalized": lambda: GeneralizedOhmicDensity(1.0, 0.75, 10.0),
    "tabulated": lambda: TabulatedDensity(_KNOTS, 10.0),
}
BATHS = {name: make() for name, make in BATH_MAKERS.items()}
ANY_BATH = tuple(name for name, q in QUANTITIES.items() if not q.needs_ohmic)
CASES = [("ohmic", name) for name in QUANTITIES] + [
    (bath, name) for bath in ("generalized", "tabulated") for name in ANY_BATH
]


def data_digest(bath: str, quantity: str) -> str:
    table = run_sweep(SweepSpec(quantity, AXES, BATHS[bath], PARAMS))
    lines = emit_csv(table).splitlines(keepends=True)
    return hashlib.sha256(
        b"".join(line for line in lines if not line.startswith(b"#"))
    ).hexdigest()


DIGESTS = {
    "ohmic/sigma1x": "2f44155f74d5560de3df6d4a39369071fb07669c98422cca276acac4d42fc70f",
    "ohmic/sigma2x": "17d500c507c1c6a9fe1de27ed4f8d57e472be6e82a81a163b67ee563cacfd331",
    "ohmic/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "ohmic/sigma1x_general": "fff8f8b0b2556143c8127c448b88e94aa042236907aae0277ca3923753813f56",
    "ohmic/sigma2x_general": "58eb53cf4f6fe45541fe5f82677e889937f87ff8f011eea405ba9a58a7c68404",
    "ohmic/r1": "f3df1e306af4cc5f69c8168df92b5949b0beb1a3ff5da7d0d685ad5d471b44f8",
    "ohmic/r2": "7aab0e780e66cdf5908ddb01742f069c61bc5d145edea464b099d8d0c061c4ea",
    "ohmic/static_sigma2x": "ce0ee251f1f68906355ec3aa7c19cfb265769ba365e02229359e306c39e67841",
    "ohmic/sigma2x_low_T": "7dee9a13ccf15fdfaec0cbd095b662eb199f5dca8828f73b479c9d4a4e3dd25d",
    "ohmic/normalized_output_ratio": "4c1ffb9e1d6a293bac910e033989ae13445e1adb2541362dea4da4c73ab76e22",
    "ohmic/normalized_spin": "f5c8807aebb4662ce6f0fad2370ae2472b2a97a0a7c507829290836fcb4ac9d3",
    "ohmic/static_compare": "339dc0292504b4905941dcf29f539241d278544742ee15be0ca6a5304ecbd44d",
    "ohmic/sigma1x_fermion": "6c47a09de4caafffe2da33f037ee53fd23e59ec744df9e590b755d8d80385e51",
    "ohmic/sigma2x_fermion": "35cd5ec5c9976f1a6ca2bba02926a2e3447d1e6b3538f40b37efc1a914885320",
    "ohmic/hartree_fock": "7150cfc1e86cd81a7f4559ccc6c5bfe54b4a3e6b2235a70b083fbcc08a85ba62",
    "ohmic/normalized_fermion": "e8c92983c19f62beb3446346b069782de0fc5593c059716eb675dc15ca1686e7",
    "ohmic/ratio_R": "fcc071dd8486a933badb6e83b1ff2974c8185adab0e44b6c9ba4b5062e05ee96",
    "ohmic/g_script": "aa6e4643390263f8591a980d8cf4416cb0151a4b13b47f44c870c8a8d041b781",
    "ohmic/fermion_high_T": "b3040d6d11644b3477849127a3679e98353aaa2a6c3636ca8e5580aff88c66bf",
    "generalized/sigma1x": "10ac594b785f7c3a69ebb8a1e3be41c8ee594fd24e2485bfd8a1bb7c4c582aad",
    "generalized/sigma2x": "7267c68f3b3327dd34262a206821aaa3e7be8f38dff40daf3e7fda510f4bfeb0",
    "generalized/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "generalized/sigma1x_general": "1f43d5674af5c8d4a0ea96294d3bfa1412b59ac4a9ae5524d311c06d1f140082",
    "generalized/sigma2x_general": "0f1bd56701782301433a9707b2bb79f94c9b1fb7e64234aeba0c8a9312096b14",
    "generalized/r1": "1ff2c8e72638251c05c9326144ef6273186484924161bf9abb7a73ae7740b6fb",
    "generalized/r2": "2512a7b1f34b4d4172af28e8add2185b4a31df6e68d2d700edd9740e0f73f3a4",
    "generalized/static_sigma2x": "11dc255e59ebad4ca4d655c313a7abd2c84619d77359a113303ada1afbea24f5",
    "generalized/sigma1x_fermion": "726e809d954ddd13aece7e25184db0fe119efb616f2164e90fa0cbcc790fbb0a",
    "generalized/sigma2x_fermion": "aa7c7637b8de3f917d79037c6fa93ced13feb620532c2d67dbf4ef1b967b7959",
    "generalized/hartree_fock": "4dc225968e969bbccb1c486af5dc31506bd95a4ac50782d95b1872dc493a648f",
    "tabulated/sigma1x": "e9ea7ad61f08dab6bbafcb7fec7714c59eaa0bc9e10b239fb9f0c96d574b9ab6",
    "tabulated/sigma2x": "2d50e79b39010d5349e031789a4647ce72eadf68d1747a28e2a78c110c49cfde",
    "tabulated/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "tabulated/sigma1x_general": "ad9aa7b5af4451685dc5fac41f52e68efdc03c07e6a2f64307df6962e706f99f",
    "tabulated/sigma2x_general": "674ae9124e62a3d6590715fae1ddfb685aa3efeca88b94bf4da0e8b8fca11bc1",
    "tabulated/r1": "0a8b5998b25bb6b5140bcefc42d3847688ac443d40df587c8d5685447f19a310",
    "tabulated/r2": "d147a73775ec0953ee5956fb967a8c97aed5b53f7d9d9a977bc817e1b4a7692b",
    "tabulated/static_sigma2x": "2a3ba0ca2630cf6632973a30ff24eb152335d3f4d052a0814ed4cad59b176d9b",
    "tabulated/sigma1x_fermion": "06407eab77324e49dcceb564cd28500fd90c7b3414885ee6d5d64ae19e930d69",
    "tabulated/sigma2x_fermion": "d90aafbcf2e1d7c39e2357ac33fc8f446aba6c051ae4fd438297fc1bc6880718",
    "tabulated/hartree_fock": "7dd97253b324e5366bcb7056dc64fa60b0d559dbd79821f2607df722aa69d82f",
}


def test_cases_cover_the_registry():
    assert len(ANY_BATH) == 11
    assert len(CASES) == 41
    assert set(DIGESTS) == {f"{bath}/{name}" for bath, name in CASES}


@pytest.mark.parametrize("bath, quantity", CASES)
def test_data_rows_are_byte_identical(bath, quantity):
    assert data_digest(bath, quantity) == DIGESTS[f"{bath}/{quantity}"]
