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
    "ohmic/sigma1x": "8494452f86778c309a815a80a7632b52bd01f9e3909edb4c89b4afa62a50729e",
    "ohmic/sigma2x": "be32a48b4337fa148ebd0a56f2ad7a5638573b3cc3f5bc7e6094996b47955e00",
    "ohmic/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "ohmic/sigma1x_general": "8d54144536e5517b4619946e0d81b4f086a5428ae6dc5c83f06e7e6b1562a462",
    "ohmic/sigma2x_general": "0a3d7535f6ee740452150df1d56a21615677e325dbfecbe03b3689b8a304588e",
    "ohmic/r1": "cf2fd0b2fee35055e9ef5b39954be178ca14454c29c51401d3ed0b2dfaff51af",
    "ohmic/r2": "64d84064c354870bed59f0189fcabce3d9dbd9320fc5fa039fe75e38cb7f0bfe",
    "ohmic/static_sigma2x": "ce0ee251f1f68906355ec3aa7c19cfb265769ba365e02229359e306c39e67841",
    "ohmic/sigma2x_low_T": "7dee9a13ccf15fdfaec0cbd095b662eb199f5dca8828f73b479c9d4a4e3dd25d",
    "ohmic/normalized_output_ratio": "f933749cc3d6f361ac04c0f517797737f1fa538ef0e65ae55d214f9d6d2c2158",
    "ohmic/normalized_spin": "9d2f0d9de8a72674f846be73634be7186b740823f3adcd1810071e626f71d746",
    "ohmic/static_compare": "469ae60fc8879f020360839a987958b8e4ff5ecbd5f0cd948fc4124e54ee89df",
    "ohmic/sigma1x_fermion": "52d16d05ab3ef6f5cd1e22bef78cf7f6cafc404fb5628e80c2d528bca756822d",
    "ohmic/sigma2x_fermion": "41a055af228fa4c9d98ebaa925b63d4dd74ab855db079c62d3a7b01d47d0416d",
    "ohmic/hartree_fock": "57f948c0c0d24cad5cd92eed82cbf15e3c03240e94d501a4f9d872f099fb2ddd",
    "ohmic/normalized_fermion": "30671b433a67bf48a368a613f66abb83e2e084e83384e37484cbff8e070b13b7",
    "ohmic/ratio_R": "79675aa0ad100f95ffa0aad4e79ead76b5aed8aa5a1af40d817fb414d111a6b3",
    "ohmic/g_script": "fb16f4f8dc08df10e059a2befe1c1ce1f8c0a2bbe98c356022386e648779f736",
    "ohmic/fermion_high_T": "b3040d6d11644b3477849127a3679e98353aaa2a6c3636ca8e5580aff88c66bf",
    "generalized/sigma1x": "89fb2cd922242b87b0a01ccecd01342a74a736449da798b0f583281b57cd6308",
    "generalized/sigma2x": "c3537f4e2121f84d61345257fd921623dc858d43ba4e34c0e02e078ace036719",
    "generalized/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "generalized/sigma1x_general": "8e573642b7e5274873ac16dd5dc9f0294e674f6a3780dfcba81d3e676cad6378",
    "generalized/sigma2x_general": "fbcd6305b8841256a12daaa2d1c664eef94b8c22ac5e866cd56803c2b0803f85",
    "generalized/r1": "28e873cacf94d10962edce2af5fd99f46187c2f1a5a6f16529c4cbfe6d8c3ea1",
    "generalized/r2": "1170be0862001c24ad25e4e0c849f7a64baaeca6adf4c6cbc642fccb7b209494",
    "generalized/static_sigma2x": "11dc255e59ebad4ca4d655c313a7abd2c84619d77359a113303ada1afbea24f5",
    "generalized/sigma1x_fermion": "d3852b6b1f0749e5d485fad67892578593210efaa4cfd26d504db69974e0fd8b",
    "generalized/sigma2x_fermion": "f4bcf4b60cf0dcc6ebd2a6209cb694f2caaafb60d085297b63181d8f1afd74b8",
    "generalized/hartree_fock": "4efc49a5e02c96d623751ce1a6206628a14a3fb61d6a7259f7bbf50fa78a3563",
    "tabulated/sigma1x": "8c00c6ca3cc7399ba540ddb859c5131cdc1c47e62ca5945b26f0502c071a30fe",
    "tabulated/sigma2x": "5984616fdd54f936ee3ae247e86bca11054c7e9fe453b9d7d2fffd6465a26e25",
    "tabulated/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "tabulated/sigma1x_general": "b1aa2d871df17080625c1a455937beec529c5408a47f0fb365891164ad8a0a33",
    "tabulated/sigma2x_general": "e02cd079b17838a205da285d33dbe94b265353c69e44a369cac7b0b226ab5a32",
    "tabulated/r1": "4245dc03973156df3073d1d0addf5f962be292cfe98b6efa68aff5f1a2ef45cf",
    "tabulated/r2": "d5b822ce561f8baf9b07354fd2a75f94d4637b3e1f1c3fe03ab6f0c13dcd3806",
    "tabulated/static_sigma2x": "2a3ba0ca2630cf6632973a30ff24eb152335d3f4d052a0814ed4cad59b176d9b",
    "tabulated/sigma1x_fermion": "1813f2cb8246801f78c388746f9ff16cc502a003f5752a0126e8555e004f6b8f",
    "tabulated/sigma2x_fermion": "3b534770a5d8eebfe8d8b3515d79eaddca0a6fc64f154dd2adb79a28361017c3",
    "tabulated/hartree_fock": "a75473a3390828665e05e8f3a71d2a3824492eebc00ae64885ff97eb7a647f87",
}


def test_cases_cover_the_registry():
    assert len(ANY_BATH) == 11
    assert len(CASES) == 41
    assert set(DIGESTS) == {f"{bath}/{name}" for bath, name in CASES}


@pytest.mark.parametrize("bath, quantity", CASES)
def test_data_rows_are_byte_identical(bath, quantity):
    assert data_digest(bath, quantity) == DIGESTS[f"{bath}/{quantity}"]
