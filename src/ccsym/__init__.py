"""Contou-Carrere symbols over truncated nilpotent C-algebras, their
canonical Laurent factorizations, and a Chen iterated-integral engine
that verifies the exponential formula and the reciprocity laws on the
Riemann sphere."""

from .algebra import (
    AlgebraElement,
    AlgebraSignature,
    Backend,
    deviation,
    exp,
    log1m,
    parse_signature,
)
from .chen import (
    QuadratureConfig,
    TruncatedWordSeries,
    chen_identity_check,
    iterated_integral,
    line_integral,
    transport,
)
from .checks import (
    bilinear_reciprocity_check,
    commutator_quadratic_check,
    identity_suite,
    lemma_check,
    main_theorem_check,
    weil_reciprocity_check,
)
from .errors import (
    CcsymError,
    InputError,
    InsufficientTruncation,
    NotAUnit,
    NotInvertible,
    NotNilpotent,
    PathError,
    PoleOnPath,
    SignatureMismatch,
)
from .forms import BinomialLogForm, DlogForm, Dz, SimplePole
from .laurent import CanonicalFactorization, LaurentSeries, factorize
from .parsing import parse_element, parse_ratfunc, parse_scalar, parse_series
from .paths import Path, circle, commutator, concat, lasso, parse_path, segment
from .ratfunc import RationalFunctionA, SpherePoint, rf_support
from .reports import CheckReport
from .symbol import cc_symbol_series, local_symbols, tame_symbol

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
