"""Exact arithmetic for cylindric symmetric functions, fusion rings and the
quantum cohomology of Grassmannians."""

from .partitions import (
    AlcoveWeight,
    BoxedPartition,
    conjugate,
    enumerate_alcove,
    enumerate_boxed,
    enumerate_strict,
    n_core,
    parse_partition,
    format_partition,
    quantum_dim,
    reduce_to_alcove,
    stab_order,
    standard_tableaux_count,
    z_factor,
)
from .affine import (
    CylindricLoop,
    CylindricShape,
    ExtAffinePerm,
    act_on_weight,
    is_valid_shape,
    shifted_act,
    tau_power,
)
from .cyclotomic import CycloNum, cyclotomic_poly, eval_alternant, eval_msym, zeta_pow
from .symfunc import (
    SymFunc,
    TensorSymFunc,
    antipode,
    convert,
    coproduct,
    hall_inner,
    mn_character,
    monomial_in_schur,
    multiply,
    omega,
    schur_straighten,
    sym,
)
from .cylindric import (
    Crpp,
    cyl_e,
    cyl_h,
    cyl_h_in_h,
    cyl_p_expand,
    enumerate_crpp,
    nonskew_cyl_h,
    phi_cyl,
    psi_cyl,
    skew_e,
    skew_h,
    theta_cyl,
    theta_weight,
)
from .fusion import CoeffTable, FusionContext, build_table, n_count, n_reduce, n_verlinde
from .grassmannian import (
    GrassContext,
    chi_weight,
    cyl_schur,
    cyl_schur_p,
    cyl_schur_to_schur,
    grass_context,
    gw_bvi,
    gw_ribbon,
    gw_table,
    mcnamara_expand,
    quantum_kostka,
    toric_schur,
)

__version__ = "0.1.0"
