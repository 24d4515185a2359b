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
    "tabulated/sigma1x": "63ae05b61f8a244c44b3de19731dd74c333bdb762b59f867febd32e09c9bfe39",
    "tabulated/sigma2x": "0d39acc0b2fb2d7a397303f4d1553baea5365d467280b8b5581fe3be6cfcb6a6",
    "tabulated/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "tabulated/sigma1x_general": "1262c1878a653e27814100cab5d4553442b3e88ac8a970ae5a0fe776b9542366",
    "tabulated/sigma2x_general": "1207ebf12d19eeb33ecc5afa5bc328d31e45d964b81a4704ec747675a81da94a",
    "tabulated/r1": "d8c2c31432aa3f4f94bfaf6710e2429ad756df2d113f2a01185f83e1ac11ccf7",
    "tabulated/r2": "9b9b32cb6c5bc71731c71cde3b348d208fc4b28c46a6cab02a04cecf1b22f797",
    "tabulated/static_sigma2x": "2203c7cb3c748811611fd64717280d98daf93d41e355739929849f399aeecfc0",
    "tabulated/sigma1x_fermion": "4916a8d4cdbc8fb328c572ae665e2d348f6d5f531ff0bc5f7da5beca7d1f9017",
    "tabulated/sigma2x_fermion": "ae6a4e9104e4c97c53178faf3b63db9a2b7576586289ebe9d6101f45548cf399",
    "tabulated/hartree_fock": "0996fa7362c92584d1bc7f220416a691b94b4320fdc950b39a6f41d25d202adb",
}


def test_cases_cover_the_registry():
    assert len(ANY_BATH) == 11
    assert len(CASES) == 41
    assert set(DIGESTS) == {f"{bath}/{name}" for bath, name in CASES}


@pytest.mark.parametrize("bath, quantity", CASES)
def test_data_rows_are_byte_identical(bath, quantity):
    assert data_digest(bath, quantity) == DIGESTS[f"{bath}/{quantity}"]
