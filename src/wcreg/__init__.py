"""Worst-case regularization toolkit.

Reconstruction rules are judged here by their error against *every*
candidate consistent with the observed data and the a-priori class, not
just the one true solution.  The package provides:

* `grid` - grid-sampled functions, discrete Holder norms, the cumulative
  trapezoid integration operator, bounded noise injection;
* `derivative` - stable numerical differentiation of noisy data with the
  step rule h ~ delta**(1/a) and the certified bound delta/h + m*h**(a-1);
* `adversary` - feasible-set membership and the pair constructions showing
  which classes admit no uniform reconstruction;
* `variational` - constrained minimization of sup|Av-g| + delta*phi(v) over
  a compactum, with the near-minimizer certificate 2*(1+phi(u))*delta;
* `modulus` - modulus of continuity of the inverse operator, exact by
  enumeration on lattice compacta;
* `cli` - reproducible experiment runner emitting plot-ready CSV.
"""

from .adversary import (AdversarialPair, FeasibleClass, FeasibilityCheck,
                        PairCertificate, bump_pair, is_feasible, read_pair_csv,
                        sine_pair, write_pair_csv)
from .derivative import (RegularizerOutput, differentiate, error_bound,
                         regularize, step_size)
from .errors import (ConfigError, GridTooCoarseError, InfeasibleProblemError,
                     PairBudgetExceededError)
from .grid import (NOISE_MODELS, GridFunction, NoisyData, add_noise,
                   format_float, holder_norm, integrate, read_grid_csv,
                   sup_norm, write_grid_csv)
from .modulus import LatticeCompactum, modulus_bruteforce
from .operators import CompactumSpec, ProblemSpec
from .variational import (StudyRow, VariationalResult, convergence_study,
                          minimize)

__version__ = "0.1.0"
