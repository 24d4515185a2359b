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
    "ohmic/sigma1x": "f89684712fd6518547b75a78073f87adc45e598cb2061e1db4997307f8882c11",
    "ohmic/sigma2x": "d2c6c06b8e14dfaca431dd062607770a27c4d3874101fed487c9e035c6f004a3",
    "ohmic/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "ohmic/sigma1x_general": "7df126be92a7ce2017bcbada6bd5a4847c2286142caecb8a1b3b989a0a79ca8d",
    "ohmic/sigma2x_general": "ea3b61e8eb39ab5f9c1fab0fbb76800f176ca33cf9cb9ef798ba3124cadfcd8f",
    "ohmic/r1": "e564e95bcd804b8fb9cfeb7cfd7e50e7c1823f8254543763034ec27b3bfa8a69",
    "ohmic/r2": "3e7e4bf9afe000753ed95e2530f45f79467934995098d60e6ee5f128b86074c6",
    "ohmic/static_sigma2x": "ce0ee251f1f68906355ec3aa7c19cfb265769ba365e02229359e306c39e67841",
    "ohmic/sigma2x_low_T": "7dee9a13ccf15fdfaec0cbd095b662eb199f5dca8828f73b479c9d4a4e3dd25d",
    "ohmic/normalized_output_ratio": "789355beaf40d283f47feda29908273a1ecc95d3416ae87b7f73fce58bfae5cc",
    "ohmic/normalized_spin": "7491ae9df58ba309fce2ebd1e6b73fa0607194caa8dc7ee7ef92be5e900070fe",
    "ohmic/static_compare": "27744773dc3d4e5beb8c8ccea7656d915a89924b15baa2a798e2fe02a3820840",
    "ohmic/sigma1x_fermion": "7803a97eb57180eb3190dfa30f4f3a2e7c84cfac3daf71a0be3a397ba4cb4cf7",
    "ohmic/sigma2x_fermion": "f58598f7358c4807c7609ae80c170050a9280b2c338f11ed986e20d07bfd980b",
    "ohmic/hartree_fock": "57a9cace85eebbec4b5de1d0e42554a31d26106dd243c04f860e3f54a12ffbc6",
    "ohmic/normalized_fermion": "bc99c6e8a7465fa83f97f0227279fb822de41d3afb8ed4d579f542a81e884397",
    "ohmic/ratio_R": "9b91e3d487b0394b2761d7272e26dfa418d0ce40486cbf2863402ebd6b4ea44f",
    "ohmic/g_script": "4da873bd4263a441686234101f59eb86fd2c3eb1ee2829e1f7b571ebd2c8fc68",
    "ohmic/fermion_high_T": "b3040d6d11644b3477849127a3679e98353aaa2a6c3636ca8e5580aff88c66bf",
    "generalized/sigma1x": "1f82adc347f8c897a2e3f9c376851ab57d02c4b7ddef1928726d536eeee0f894",
    "generalized/sigma2x": "b0c4f85bfaf263091793150e94b2634e74cc5ec1c5ebc21c489b909dcf9778d8",
    "generalized/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "generalized/sigma1x_general": "4208fa875532bfac280a8e0a0c7ed2b366b04625a1e758bac4779f67aaf082dc",
    "generalized/sigma2x_general": "43bec76efa9baa69c5449f64564d15ae3622000528cc7fbb5c6272ee3cc7da98",
    "generalized/r1": "f5e59896e940c345a325d04a2e835d88c2c3edc84eb7ab981085f2161aee3c42",
    "generalized/r2": "88cc0ebd28b54ec7f0a793b613ff7f2062447d468148aa4c762756c24f2d119d",
    "generalized/static_sigma2x": "11dc255e59ebad4ca4d655c313a7abd2c84619d77359a113303ada1afbea24f5",
    "generalized/sigma1x_fermion": "ff5ddf5a629b77a2946b952b81a1dc630c6cb4f8884384e077d4797bfd1ad53f",
    "generalized/sigma2x_fermion": "ada17f8e9f6a6ede8f6772658edf819114554e05136ad997cd28ac6fd713affd",
    "generalized/hartree_fock": "8ff64fd2127e2a7404248e285b28e6460fedba6ca8d5e34c5b52ccaff6c910d2",
    "tabulated/sigma1x": "d0243e737103017129681d840010e825121b376495552d10caf1e26e86e6bfc6",
    "tabulated/sigma2x": "2596b2a20b42597ff1747a6b4a9c70cb22db93bc213ea42dc0be6916d44db80f",
    "tabulated/sigma2y": "84bce8ae49cd624daa7bfe9bf591de646ab66d8bb81127f5005b758ea714c007",
    "tabulated/sigma1x_general": "c23336048915b2a598a1a92985e2699969f50ce7a6f82975a618e7e4eaa7c904",
    "tabulated/sigma2x_general": "26415a0d16cfb50f8a598be707046623939c72f8349d23328d07ce8e6cd38207",
    "tabulated/r1": "54d35a9a5a52d1a9c5747a1abf9a1c79d8c48a7d90e36be0ef10e9e159704626",
    "tabulated/r2": "72e50acdac3ebf8b34d19ab8fad8abfdc67b0516fa9c94be3b5310352098b47f",
    "tabulated/static_sigma2x": "63371c9089b87af89de2de583fe5e6c2ab5fee7fa3a7396d6797f3d0dcea2b60",
    "tabulated/sigma1x_fermion": "79d100ae2d46bfa348303ffdaa88cf74eb704ea9ed96cbaabb8315f24847b412",
    "tabulated/sigma2x_fermion": "c5ad23c6be0e515df33ca9c6eb4b61ae44514f52b2e6b72591d86358da2b1759",
    "tabulated/hartree_fock": "1d3d1de52cb3c5e69012b30d08b0a57a2fb28c7d4f2134e75ae6b01ac12bb0a5",
}


def test_cases_cover_the_registry():
    assert len(ANY_BATH) == 11
    assert len(CASES) == 41
    assert set(DIGESTS) == {f"{bath}/{name}" for bath, name in CASES}


@pytest.mark.parametrize("bath, quantity", CASES)
def test_data_rows_are_byte_identical(bath, quantity):
    assert data_digest(bath, quantity) == DIGESTS[f"{bath}/{quantity}"]
