"""The package's public names: a fixed contract, pinned in order."""

import gammaprod

PUBLIC_API = [
    "GammaprodError", "InvalidModulusError", "NotAUnitError", "DomainError", "InvalidCosetError",
    "OddModulus", "UnitGroup", "HalvingCycle", "CosetDecomposition", "units_mod",
    "multiplicative_order", "odd_lift", "odd_lift_inverse", "halve_mod", "halving_cycles",
    "coset_decomposition",
    "Rhs", "GammaProductIdentity", "FullProduct", "build_identity", "enumerate_identities",
    "complement_identity", "is_self_complementary", "mersenne_identity", "full_product_identity",
    "VerificationReport", "log_gamma", "verify_duplication", "verify_identity",
    "verify_full_product", "default_tolerance",
    "SurveyRow", "ClaimResult", "ClaimReport", "survey_row", "survey_range",
    "check_reference_claims", "is_prime_power",
    "FORMATS", "RenderedIdentity", "render_identity",
    "run_cli", "__version__",
]


def test_all_is_the_fixed_public_api():
    assert gammaprod.__all__ == PUBLIC_API


def test_every_public_name_is_bound():
    assert all(hasattr(gammaprod, name) for name in PUBLIC_API)
