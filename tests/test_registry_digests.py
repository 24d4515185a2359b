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
BATHS = {
    "ohmic": OhmicDensity(1.0, 10.0),
    "generalized": GeneralizedOhmicDensity(1.0, 0.75, 10.0),
    "tabulated": TabulatedDensity(_KNOTS, 10.0),
}
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
    "ohmic/sigma1x_general": "e0cd1cd479f8b8925faa4b8db7e02509fa93bbf91dcfbb11c56d5515f242722f",
    "ohmic/sigma2x_general": "5076d1ddd28bbdeb2c66a5270f0be074c5f67535f6e34d48da95e592c2783fe8",
    "ohmic/r1": "854bc38f8d5812b7dc2c4eac3cc32ab322335a51ecc59d6c7b4fbe48ca867a19",
    "ohmic/r2": "94feebe6611067ec78a3d8b1e24044412c6e69a36c60ce9a6a3fa845eec82576",
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
    "generalized/sigma1x_general": "3451af5a1d17f7d4eb810a3d81d11352a6192b5fe668180b758bb7f103ea41fc",
    "generalized/sigma2x_general": "95e231aa0faa5dd0ccb7077a3d0d55690902037c244c3fcef8ce10cb9c7c8de6",
    "generalized/r1": "f138ec631765906fdf36e9681f271f6fe8820c65a71012d610125babb55b0fa9",
    "generalized/r2": "57e8af37c623e1fd50ca04d80806ac477fe1108d7f09fda65460f38bb1b87f92",
    "generalized/static_sigma2x": "11dc255e59ebad4ca4d655c313a7abd2c84619d77359a113303ada1afbea24f5",
    "generalized/sigma1x_fermion": "d3852b6b1f0749e5d485fad67892578593210efaa4cfd26d504db69974e0fd8b",
    "generalized/sigma2x_fermion": "f4bcf4b60cf0dcc6ebd2a6209cb694f2caaafb60d085297b63181d8f1afd74b8",
    "generalized/hartree_fock": "4efc49a5e02c96d623751ce1a6206628a14a3fb61d6a7259f7bbf50fa78a3563",
    "tabulated/sigma1x": "8c00c6ca3cc7399ba540ddb859c5131cdc1c47e62ca5945b26f0502c071a30fe",
    "tabulated/sigma2x": "5984616fdd54f936ee3ae247e86bca11054c7e9fe453b9d7d2fffd6465a26e25",
    "tabulated/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "tabulated/sigma1x_general": "88906c0db1c80e6ca3b49cfc5fdf7b6390a0a9a31d7d3fcd10eea232c8d4ca95",
    "tabulated/sigma2x_general": "1d6cc3f38b430477dee831a1dc5829dd078d0e0c36e2eb2e70d87841065d64d4",
    "tabulated/r1": "2cd799759a3db5987e6c67966623e701974f2dc39b9d01d055eb17d81e16f4db",
    "tabulated/r2": "df936e5d8270a04bdc2d2ec72be9954adc8585a315a282c9979419b045539cc9",
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
