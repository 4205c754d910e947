"""Physical constants (SI, CODATA values), and the admissible range of each
configuration field.

`DOMAINS` maps every numeric field of `params.SystemParams` but the two that
may hold a model name (`gamma_diff`, `gamma_pd`) to a closed float interval
[lo, hi] and the phrase that names it.  An open end is written as the float
next to it: 5e-324 for "positive", `sys.float_info.max` for "finite".  So a
field's own check is the one comparison lo <= v <= hi, which NaN fails; the
spec objects and `SystemParams` run it through `check_domains`, and keep only
the checks that read more than one field or a derived quantity.
"""

import math
import sys

E_CHARGE = 1.602176634e-19  # elementary charge [C] (exact)
K_BOLTZMANN = 1.380649e-23  # Boltzmann constant [J/K] (exact)
EPSILON_0 = 8.8541878128e-12  # vacuum permittivity [F/m]
C_LIGHT = 299792458.0  # speed of light in vacuum [m/s] (exact)
H_PLANCK = 6.62607015e-34  # Planck constant [J s] (exact)

_TINY, _HUGE = math.nextafter(0.0, 1.0), sys.float_info.max
DOMAINS = {
    **dict.fromkeys(("f", "l", "i_s", "a_g", "l_g", "lam", "l_s", "a_pd", "b", "r_il",
                     "i_bk", "gamma", "rho", "i0", "r_sh", "r_s", "n", "t", "d_e"),
                    (_TINY, _HUGE, "positive and finite")),
    **dict.fromkeys(("d", "d_eff", "alpha_air", "psi", "p_in"),
                    (0.0, _HUGE, "non-negative and finite")),
    **dict.fromkeys(("eta_c", "gamma_g", "gamma_shg", "gamma_l1", "gamma_l2", "gamma_l3",
                     "gamma_l4", "r_m1", "r_m2", "r_m5_2nu", "gamma_m5_nu", "gamma_m2_2nu",
                     "gamma_g_eom", "gamma_pv", "t_s", "eta_p", "eta_t", "eta_a"),
                    (_TINY, 1.0, "in (0, 1]")),
    "n0": (math.nextafter(1.0, 2.0), _HUGE, "> 1 and finite"),
    **dict.fromkeys(("n_c", "n_s"), (1.0, _HUGE, ">= 1 and finite")),
    "psi_c": (_TINY, math.pi / 2.0, "in (0, pi/2]"),
}


def check_domains(obj, names) -> None:
    """Raise ValueError for the first field of `names` whose value on `obj`
    lies outside its interval in `DOMAINS`."""
    for name in names:
        lo, hi, phrase = DOMAINS[name]
        v = getattr(obj, name)
        if not lo <= v <= hi:
            raise ValueError(f"{name} must be {phrase}, got {v}")
