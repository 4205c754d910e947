"""Physical constants (SI, CODATA values)."""

E_CHARGE = 1.602176634e-19  # elementary charge [C] (exact)
K_BOLTZMANN = 1.380649e-23  # Boltzmann constant [J/K] (exact)
EPSILON_0 = 8.8541878128e-12  # vacuum permittivity [F/m]
C_LIGHT = 299792458.0  # speed of light in vacuum [m/s] (exact)
H_PLANCK = 6.62607015e-34  # Planck constant [J s] (exact)
