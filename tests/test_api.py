"""The public surface: the package export list and the README quick start."""

import contextlib
import io
import re
from pathlib import Path

import padiclab
from padiclab import field_model, operators, qspecial, seminorms, spectrum_zeta, tree

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = (field_model, tree, operators, qspecial, spectrum_zeta, seminorms)


# The export list, in order; the validator's three names keep their place in
# spectrum_zeta's list although they are defined in padiclab.validation.
EXPORTS = [
    "FieldParams", "Center", "count_g", "pi_power", "TreeWindow", "tree_window_r",
    "tree_window_f", "TestFunction", "assemble_symmetrized_D", "assemble_DstarD", "rho_diag",
    "assemble_commutator", "commutator_norm", "commutator_row_norms", "hs_norm_Dg_inverse",
    "hs_double_sum", "hs_total_partial", "kernel_rho_a_DFinv", "regularizer_bt",
    "kernel_frobenius_norm", "singular_values_window", "BracketError", "SeriesError",
    "RootTable", "phi11", "phi11_derivative", "upper_bracket", "find_roots",
    "eigvec_recurrence", "eigvec_tail_mass", "eigvec_series_c", "eigvec_from_series",
    "PoleError", "CutoffError", "SpectrumRow", "SpectrumTable", "ZetaValue", "CheckResult",
    "ValidationReport", "full_spectrum", "validate_spectrum", "schatten_partial",
    "schatten_m_factor", "zeta_D0", "zeta_DR", "zeta_factor", "factor_poles", "factor_zeros",
    "SeminormReport", "lipschitz_depth", "spectral_seminorm_formula", "comparison_constants",
    "check_norm_comparison", "testfn_library",
]


def test_all_is_pinned():
    assert padiclab.__all__ == EXPORTS


def test_all_is_the_union_of_module_lists():
    names = padiclab.__all__
    assert len(names) == len(set(names))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(padiclab, name) is getattr(module, name), (module.__name__, name)
    assert set(names) == {name for module in MODULES for name in module.__all__}


def test_readme_quick_start_runs():
    """The README's python block, as written, in this process."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert out.getvalue()
    assert namespace["table"].n_max == 5
    assert namespace["report"].passed
